//! An annotated, step-by-step protocol trace: watch the directory
//! classify, migrate, demote, and reclassify a block.
//!
//! Run with `cargo run --example protocol_trace`.

use mcc::core::{DirectoryEngine, DirectorySimConfig, Engine, LineState, Protocol};
use mcc::placement::PagePlacement;
use mcc::trace::{Addr, BlockSize, MemRef, NodeId};

fn main() {
    let config = DirectorySimConfig::default();
    let placement = PagePlacement::round_robin(config.nodes);
    let mut engine = DirectoryEngine::new(Protocol::Basic, &config, placement);
    let block = Addr::new(0x40).block(BlockSize::B16);

    let script: Vec<(MemRef, &str)> = vec![
        (
            MemRef::read(NodeId::new(1), Addr::new(0x40)),
            "P1 loads the block: first copy, exclusive-clean",
        ),
        (
            MemRef::write(NodeId::new(1), Addr::new(0x40)),
            "P1 writes: permission fetched from the home (write hit, clean exclusive)",
        ),
        (
            MemRef::read(NodeId::new(2), Addr::new(0x40)),
            "P2 reads: replicate-on-read-miss, both copies Shared",
        ),
        (
            MemRef::write(NodeId::new(2), Addr::new(0x40)),
            "P2 writes: two copies, P2 is not the last invalidator -> MIGRATORY",
        ),
        (
            MemRef::read(NodeId::new(3), Addr::new(0x40)),
            "P3 reads: the block MIGRATES with write permission (one transaction)",
        ),
        (
            MemRef::write(NodeId::new(3), Addr::new(0x40)),
            "P3 writes: free — permission was pre-granted",
        ),
        (
            MemRef::read(NodeId::new(4), Addr::new(0x40)),
            "P4 reads: migrates again",
        ),
        (
            MemRef::read(NodeId::new(5), Addr::new(0x40)),
            "P5 reads while P4 never wrote: block moved CLEAN -> demoted, replicate",
        ),
        (
            MemRef::read(NodeId::new(6), Addr::new(0x40)),
            "P6 reads: plain replication, three copies now",
        ),
        (
            MemRef::write(NodeId::new(6), Addr::new(0x40)),
            "P6 writes: three copies created -> not migratory evidence, just invalidate",
        ),
        (
            MemRef::read(NodeId::new(7), Addr::new(0x40)),
            "P7 reads then writes: evidence builds again...",
        ),
        (
            MemRef::write(NodeId::new(7), Addr::new(0x40)),
            "P7's write hit sees two copies, different invalidator -> MIGRATORY again",
        ),
    ];

    println!(
        "basic adaptive protocol, block {block}, home {}\n",
        NodeId::new(0)
    );
    for (r, note) in script {
        let before = engine.messages().total();
        let info = engine.step(r);
        let cost = engine.messages().total() - before;
        let entry = engine.dir_entry(block).expect("entry exists");
        let holders: Vec<String> = NodeId::first(config.nodes)
            .filter_map(|n| {
                engine.line_state(n, block).map(|s| {
                    format!(
                        "{n}:{}",
                        match s {
                            LineState::Shared => "S",
                            LineState::Exclusive => "E",
                            LineState::MigratoryClean => "MC",
                            LineState::Dirty => "D",
                        }
                    )
                })
            })
            .collect();
        println!("{r}  ({note})");
        println!(
            "    -> {:?}, {} msgs, dir: {entry}, copies: [{}]\n",
            info.kind,
            cost,
            holders.join(" ")
        );
    }
    println!(
        "total: {} messages, {}",
        engine.messages().total(),
        engine.events()
    );
}
