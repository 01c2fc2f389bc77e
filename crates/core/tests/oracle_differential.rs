//! Differential testing against an independent oracle.
//!
//! The engine in `mcc-core` threads message charging through a single
//! code path shared by four protocols, victim handling, and the
//! adaptive hooks. This oracle re-implements ONLY the conventional
//! protocol, straight from Table 1 and §3.3, in the most naive possible
//! style (one flat function, no shared machinery), and the property
//! test asserts the two implementations charge *identical* message
//! totals on arbitrary traces. A bookkeeping bug in either
//! implementation shows up as a divergence.

use std::collections::{HashMap, HashSet};

use mcc_core::{DirectoryEngine, DirectorySimConfig, Engine, PlacementPolicy, Protocol};
use mcc_placement::PagePlacement;
use mcc_prng::SplitMix64;
use mcc_trace::{Addr, BlockSize, MemOp, MemRef, NodeId, Trace};

const NODES: u16 = 4;

/// The naive oracle: conventional write-invalidate over infinite
/// caches, charging Table 1 rows plus §3.3 eviction traffic (none here:
/// infinite caches never evict).
#[derive(Default)]
struct Oracle {
    /// Per block: the set of caching nodes.
    copies: HashMap<u64, HashSet<u16>>,
    /// Per block: the node holding it dirty, if any.
    dirty_at: HashMap<u64, u16>,
    /// Per block: nodes whose copy has write permission but is clean
    /// (exclusive-clean).
    clean_exclusive: HashSet<u64>,
    control: u64,
    data: u64,
}

impl Oracle {
    fn home_of(&self, block: u64) -> u16 {
        // Round-robin 4 KB pages, 16-byte blocks: 256 blocks per page.
        ((block / 256) % u64::from(NODES)) as u16
    }

    fn step(&mut self, node: u16, write: bool, block: u64) {
        let home = self.home_of(block);
        let local = home == node;
        let holders = self.copies.entry(block).or_default();
        let present = holders.contains(&node);
        let dirty = self.dirty_at.get(&block).copied();
        let distant = |holders: &HashSet<u16>| {
            holders.iter().filter(|&&h| h != node && h != home).count() as u64
        };

        if !write {
            if present {
                return; // read hit
            }
            // Read miss (Table 1 rows 1-4).
            match (local, dirty.is_some()) {
                (true, false) => {}
                (true, true) => {
                    self.control += 1;
                    self.data += 1;
                }
                (false, false) => {
                    self.control += 1;
                    self.data += 1;
                }
                (false, true) => {
                    let dc = distant(holders);
                    self.control += 1 + dc;
                    self.data += 1 + dc;
                }
            }
            // The dirty owner (if any) is demoted to a clean shared copy.
            self.dirty_at.remove(&block);
            if holders.len() == 1 {
                self.clean_exclusive.remove(&block);
            }
            if holders.is_empty() {
                self.clean_exclusive.insert(block);
            }
            holders.insert(node);
            return;
        }

        // Writes.
        if present {
            if dirty == Some(node) {
                return; // silent
            }
            if holders.len() == 1 && self.clean_exclusive.contains(&block) {
                // Write hit on a clean exclusively-held copy.
                if !local {
                    self.control += 2;
                }
            } else {
                // Write hit invalidating other copies.
                let dc = distant(holders);
                self.control += if local { 2 * dc } else { 2 + 2 * dc };
            }
        } else {
            // Write miss (Table 1 rows 5-8).
            match (local, dirty.is_some()) {
                (true, false) => self.control += 2 * distant(holders),
                (true, true) => {
                    self.control += 1;
                    self.data += 1;
                }
                (false, false) => {
                    self.control += 1 + 2 * distant(holders);
                    self.data += 1;
                }
                (false, true) => {
                    let dc = distant(holders);
                    self.control += 1 + dc;
                    self.data += 1 + dc;
                }
            }
        }
        holders.clear();
        holders.insert(node);
        self.clean_exclusive.remove(&block);
        self.dirty_at.insert(block, node);
    }
}

fn random_trace(rng: &mut SplitMix64) -> Trace {
    // Blocks spread over several pages so home locality varies.
    let len = rng.gen_range(1..500);
    (0..len)
        .map(|_| {
            let node = rng.gen_range(0..u64::from(NODES)) as u16;
            let write = rng.gen_range(0..2) == 1;
            let block = rng.gen_range(0..1600);
            let op = if write { MemOp::Write } else { MemOp::Read };
            MemRef::new(NodeId::new(node), op, Addr::new(block * 16))
        })
        .collect()
}

#[test]
fn engine_matches_naive_oracle_on_conventional_protocol() {
    for case in 0..192u64 {
        let trace = random_trace(&mut SplitMix64::new(0x0AC1 + case));
        let config = DirectorySimConfig {
            nodes: NODES,
            block_size: BlockSize::B16,
            placement: PlacementPolicy::RoundRobin,
            ..DirectorySimConfig::default()
        };
        let mut engine = DirectoryEngine::new(
            Protocol::Conventional,
            &config,
            PagePlacement::round_robin(NODES),
        );
        let mut oracle = Oracle::default();
        for r in trace.iter() {
            engine.step(*r);
            oracle.step(r.node.index() as u16, r.op.is_write(), r.addr.get() / 16);
        }
        let charged = engine.messages().combined();
        assert_eq!(
            charged.control, oracle.control,
            "control messages diverged, case {case}"
        );
        assert_eq!(
            charged.data, oracle.data,
            "data messages diverged, case {case}"
        );
    }
}
