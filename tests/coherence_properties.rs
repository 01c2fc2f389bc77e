//! Randomized coherence checks across every protocol and both machine
//! models.
//!
//! Both simulators carry a built-in checker: each block has a monotone
//! version; every read (hit or fill) asserts it observes the latest
//! version. Running arbitrary traces through every protocol therefore
//! machine-checks the paper's transparency claim — adaptivity must not
//! change the memory model. The directory engines additionally sweep
//! the invariants tying the directory to the caches, and the monitor
//! runs that sweep after every step.
//!
//! Cases are driven by an explicitly seeded [`SplitMix64`] stream so
//! every failure is reproducible from the case index alone.

use mcc_prng::SplitMix64;

use mcc::cache::{CacheConfig, CacheGeometry};
use mcc::core::{
    AnyEngine, DirectorySimConfig, Engine, EngineKind, Monitor, PlacementPolicy, Protocol,
};
use mcc::placement::PagePlacement;
use mcc::snoop::{BusSim, BusSimConfig, SnoopProtocol};
use mcc::trace::BlockSize;
use mcc::trace::{Addr, MemOp, MemRef, NodeId, Trace};

const NODES: u16 = 4;
const CASES: u64 = 64;

/// Arbitrary traces over a small address space so blocks collide and
/// every protocol path (upgrades, migrations, demotions, evictions,
/// false sharing) gets exercised.
fn random_trace(rng: &mut SplitMix64) -> Trace {
    let len = rng.gen_range(1..400);
    (0..len)
        .map(|_| {
            let node = rng.gen_range(0..u64::from(NODES)) as u16;
            let write = rng.gen_range(0..2) == 1;
            let word = rng.gen_range(0..256);
            let op = if write { MemOp::Write } else { MemOp::Read };
            MemRef::new(NodeId::new(node), op, Addr::new(word * 8))
        })
        .collect()
}

fn all_protocols() -> Vec<Protocol> {
    let mut protocols = vec![
        Protocol::PureMigratory,
        Protocol::Custom(mcc::core::AdaptivePolicy::stenstrom()),
    ];
    protocols.extend(Protocol::PAPER_SET);
    for initial_migratory in [false, true] {
        for events_required in [1u8, 2, 3] {
            for remember_when_uncached in [false, true] {
                protocols.push(Protocol::Custom(mcc::core::AdaptivePolicy {
                    initial_migratory,
                    events_required,
                    remember_when_uncached,
                    demote_on_write_miss: false,
                }));
            }
        }
    }
    protocols
}

/// Every directory protocol preserves coherence (the engine panics on
/// violation) and keeps its directory in sync with the caches, with
/// both infinite and tiny conflict-heavy caches, on both engines. The
/// monitor sweeps after every step, so its structural and data-value
/// checks meet every protocol point in every state a trace reaches.
#[test]
fn directory_protocols_preserve_coherence() {
    for case in 0..CASES {
        let trace = random_trace(&mut SplitMix64::new(0x11C0 + case));
        let tiny = CacheGeometry::new(64, BlockSize::B16, 2).unwrap();
        for cache in [CacheConfig::Infinite, CacheConfig::Finite(tiny)] {
            for protocol in all_protocols() {
                let config = DirectorySimConfig {
                    nodes: NODES,
                    block_size: BlockSize::B16,
                    cache,
                    placement: PlacementPolicy::RoundRobin,
                    ..DirectorySimConfig::default()
                };
                for kind in [EngineKind::Reference, EngineKind::Fast] {
                    let placement = PagePlacement::round_robin(NODES);
                    let mut engine = AnyEngine::new(kind, protocol, &config, placement);
                    let mut monitor = Monitor::new(1);
                    for r in trace.iter() {
                        engine.step(*r);
                        if let Err(v) = monitor.after_step(&engine) {
                            panic!("case {case}, {protocol}, {kind:?}: {v}");
                        }
                    }
                    engine.check_invariants();
                }
            }
        }
    }
}

/// Every snooping protocol preserves coherence and its S2/exclusive
/// invariants under arbitrary traces and tiny caches.
#[test]
fn snooping_protocols_preserve_coherence() {
    for case in 0..CASES {
        let trace = random_trace(&mut SplitMix64::new(0x5009 + case));
        let tiny = CacheGeometry::new(64, BlockSize::B16, 2).unwrap();
        for cache in [CacheConfig::Infinite, CacheConfig::Finite(tiny)] {
            for protocol in [
                SnoopProtocol::Mesi,
                SnoopProtocol::Adaptive,
                SnoopProtocol::AdaptiveMigrateFirst,
            ] {
                let config = BusSimConfig {
                    nodes: NODES,
                    block_size: BlockSize::B16,
                    cache,
                };
                let mut sim = BusSim::new(protocol, &config);
                for r in trace.iter() {
                    sim.step(*r);
                }
                sim.check_invariants();
            }
        }
    }
}

/// Protocols are deterministic: equal traces give equal tallies.
#[test]
fn directory_results_are_deterministic() {
    for case in 0..CASES {
        let trace = random_trace(&mut SplitMix64::new(0xDE7E + case));
        let config = DirectorySimConfig {
            nodes: NODES,
            ..DirectorySimConfig::default()
        };
        let a = mcc::core::DirectorySim::new(Protocol::Aggressive, &config).run(&trace);
        let b = mcc::core::DirectorySim::new(Protocol::Aggressive, &config).run(&trace);
        assert_eq!(a, b, "case {case}");
    }
}

/// Every reference is accounted for exactly once in the event counts,
/// under every protocol.
#[test]
fn events_conserve_references() {
    for case in 0..CASES {
        let trace = random_trace(&mut SplitMix64::new(0xC0A5 + case));
        let config = DirectorySimConfig {
            nodes: NODES,
            ..DirectorySimConfig::default()
        };
        for protocol in all_protocols() {
            let result = mcc::core::DirectorySim::new(protocol, &config).run(&trace);
            assert_eq!(result.events.refs(), trace.len() as u64, "case {case}");
            // Misses split exactly into migrations + replications.
            assert_eq!(
                result.events.read_misses,
                result.events.migrations + result.events.replications,
                "case {case}"
            );
        }
    }
}

/// The paper's cost intuition as a property: on *strictly* migratory
/// hand-off sequences (read-then-write bursts per node, one block),
/// the aggressive protocol never loses to conventional and saves
/// exactly four messages per steady-state hand-off when the home is
/// not involved.
#[test]
fn aggressive_wins_on_pure_handoffs() {
    for handoffs in 2usize..40 {
        let mut trace = Trace::new();
        for turn in 0..handoffs {
            let node = NodeId::new(1 + (turn % 2) as u16);
            trace.push(MemRef::read(node, Addr::new(0)));
            trace.push(MemRef::write(node, Addr::new(0)));
        }
        let config = DirectorySimConfig {
            nodes: 4,
            placement: PlacementPolicy::RoundRobin,
            ..DirectorySimConfig::default()
        };
        let conv = mcc::core::DirectorySim::new(Protocol::Conventional, &config).run(&trace);
        let aggr = mcc::core::DirectorySim::new(Protocol::Aggressive, &config).run(&trace);
        // First access is a read miss + exclusive upgrade under
        // conventional; each later hand-off costs (2,2) + (4,0) vs (2,2).
        assert_eq!(
            conv.total_messages() - aggr.total_messages(),
            4 * (handoffs as u64 - 1) + 2
        );
    }
}
