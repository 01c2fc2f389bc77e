//! Cross-machine comparisons: the directory and bus implementations of
//! the adaptive idea must agree qualitatively (§4.3: "the two classes of
//! protocol behave similarly"), and the execution-driven simulator must
//! conserve work.

use mcc::core::{DirectorySim, DirectorySimConfig, PlacementPolicy, Protocol};
use mcc::execsim::{ExecSim, ExecSimConfig};
use mcc::snoop::{BusCostModel, BusSim, BusSimConfig, SnoopProtocol};
use mcc::trace::{Addr, MemRef, NodeId, Trace};
use mcc::workloads::{Workload, WorkloadParams};

fn small_trace(app: Workload) -> Trace {
    app.generate(&WorkloadParams::new(16).scale(0.02).seed(1))
}

#[test]
fn both_machines_prefer_adaptivity_on_migratory_apps() {
    for app in [Workload::Mp3d, Workload::Water, Workload::Cholesky] {
        let trace = small_trace(app);

        let dir_cfg = DirectorySimConfig::default();
        let conv = DirectorySim::new(Protocol::Conventional, &dir_cfg).run(&trace);
        let aggr = DirectorySim::new(Protocol::Aggressive, &dir_cfg).run(&trace);
        let dir_reduction = aggr.percent_reduction_vs(&conv);

        let bus_cfg = BusSimConfig::default();
        let mesi = BusSim::new(SnoopProtocol::Mesi, &bus_cfg).run(&trace);
        let adaptive = BusSim::new(SnoopProtocol::Adaptive, &bus_cfg).run(&trace);
        let bus_reduction = mcc::stats::percent_reduction(
            mesi.cost(BusCostModel::Unit) as f64,
            adaptive.cost(BusCostModel::Unit) as f64,
        );

        assert!(
            dir_reduction > 20.0,
            "{app}: directory reduction {dir_reduction:.1}%"
        );
        assert!(
            bus_reduction > 20.0,
            "{app}: bus reduction {bus_reduction:.1}%"
        );
        // "The two classes of protocol behave similarly."
        assert!(
            (dir_reduction - bus_reduction).abs() < 25.0,
            "{app}: directory ({dir_reduction:.1}%) and bus ({bus_reduction:.1}%) disagree wildly"
        );
    }
}

#[test]
fn bus_model_2_reduction_is_smaller_than_model_1() {
    // §4.3: model 2 charges misses double, so the *relative* savings of
    // eliminating single-transaction invalidations shrink (Water/MP3D:
    // >40% under model 1, 25–30% under model 2).
    for app in [Workload::Mp3d, Workload::Water] {
        let trace = small_trace(app);
        let bus_cfg = BusSimConfig::default();
        let mesi = BusSim::new(SnoopProtocol::Mesi, &bus_cfg).run(&trace);
        let adaptive = BusSim::new(SnoopProtocol::Adaptive, &bus_cfg).run(&trace);
        let m1 = mcc::stats::percent_reduction(
            mesi.cost(BusCostModel::Unit) as f64,
            adaptive.cost(BusCostModel::Unit) as f64,
        );
        let m2 = mcc::stats::percent_reduction(
            mesi.cost(BusCostModel::ReplyWeighted) as f64,
            adaptive.cost(BusCostModel::ReplyWeighted) as f64,
        );
        assert!(
            m2 < m1,
            "{app}: model 2 ({m2:.1}%) should be below model 1 ({m1:.1}%)"
        );
        assert!(m2 > 0.0, "{app}: model 2 savings vanished");
    }
}

#[test]
fn snooping_cannot_retain_classification_but_directory_can() {
    // §4.3: "the snooping protocol can not retain the classification of
    // a block across time intervals in which the block is not cached."
    // Construct a trace where a migratory block is evicted between every
    // hand-off; the directory (which remembers) keeps winning, while the
    // bus protocol must re-learn each time.
    let mut trace = Trace::new();
    trace.push(MemRef::write(NodeId::new(1), Addr::new(0)));
    for round in 0..12u64 {
        let n = NodeId::new(if round % 2 == 0 { 2 } else { 1 });
        trace.push(MemRef::read(n, Addr::new(0)));
        trace.push(MemRef::write(n, Addr::new(0)));
        // Conflict-evict block 0 from n's one-set cache.
        trace.push(MemRef::read(n, Addr::new(32)));
        trace.push(MemRef::read(n, Addr::new(64)));
        trace.push(MemRef::read(n, Addr::new(96)));
    }
    let tiny = mcc::cache::CacheGeometry::new(32, mcc::trace::BlockSize::B16, 2).unwrap();

    let dir_cfg = DirectorySimConfig {
        cache: mcc::cache::CacheConfig::Finite(tiny),
        placement: PlacementPolicy::RoundRobin,
        ..DirectorySimConfig::default()
    };
    let dir = DirectorySim::new(Protocol::Basic, &dir_cfg).run(&trace);
    assert!(
        dir.events.write_grants_used >= 10,
        "directory should reuse remembered classification: {} grants",
        dir.events.write_grants_used
    );

    let bus_cfg = BusSimConfig {
        cache: mcc::cache::CacheConfig::Finite(tiny),
        ..BusSimConfig::default()
    };
    let bus = BusSim::new(SnoopProtocol::Adaptive, &bus_cfg).run(&trace);
    assert_eq!(
        bus.migratory_fills, 0,
        "the bus protocol cannot migrate blocks it re-learns too late"
    );
}

#[test]
fn execsim_conserves_work_and_matches_trace_events() {
    let trace = small_trace(Workload::Water);
    let cfg = ExecSimConfig::default();
    for protocol in [Protocol::Conventional, Protocol::Basic] {
        let result = ExecSim::new(protocol, &cfg).run(&trace);
        assert_eq!(result.events.refs(), trace.len() as u64, "{protocol}");
        assert!(result.cycles >= *result.per_node_cycles.iter().max().unwrap());
        assert!(result.stall_cycles > 0);
    }
}

#[test]
fn execsim_speedup_is_bounded_by_message_savings_direction() {
    // Time savings must have the same sign as message savings, and the
    // adaptive protocol must not be slower.
    let trace = small_trace(Workload::Mp3d);
    let cfg = ExecSimConfig::default();
    let conv = ExecSim::new(Protocol::Conventional, &cfg).run(&trace);
    let basic = ExecSim::new(Protocol::Basic, &cfg).run(&trace);
    assert!(basic.messages.total() <= conv.messages.total());
    assert!(basic.cycles <= conv.cycles);
}

mod cross_validation {
    use super::*;
    use mcc::cache::{CacheConfig, CacheGeometry};
    use mcc::core::{DirectoryEngine, Engine};
    use mcc::placement::PagePlacement;
    use mcc::trace::{BlockSize, MemOp};
    use mcc_prng::SplitMix64;

    fn random_trace(rng: &mut SplitMix64) -> Trace {
        let len = rng.gen_range(1..300);
        (0..len)
            .map(|_| {
                let node = rng.gen_range(0..4) as u16;
                let write = rng.gen_range(0..2) == 1;
                let word = rng.gen_range(0..64);
                let op = if write { MemOp::Write } else { MemOp::Read };
                mcc::trace::MemRef::new(NodeId::new(node), op, Addr::new(word * 8))
            })
            .collect()
    }

    /// MESI on a bus and the conventional directory protocol are both
    /// plain write-invalidate: with identical caches they must produce
    /// *identical* hit/miss/invalidation behaviour — only the cost
    /// accounting differs. This cross-validates the two independently
    /// written engines against each other.
    #[test]
    fn mesi_and_conventional_directory_agree_on_cache_behaviour() {
        for case in 0..48u64 {
            let trace = random_trace(&mut SplitMix64::new(0xC805 + case));
            let tiny = CacheGeometry::new(64, BlockSize::B16, 2).unwrap();
            for cache in [CacheConfig::Infinite, CacheConfig::Finite(tiny)] {
                let bus_cfg = BusSimConfig {
                    nodes: 4,
                    block_size: BlockSize::B16,
                    cache,
                };
                let mut bus = BusSim::new(SnoopProtocol::Mesi, &bus_cfg);
                let dir_cfg = DirectorySimConfig {
                    nodes: 4,
                    block_size: BlockSize::B16,
                    cache,
                    placement: PlacementPolicy::RoundRobin,
                    ..DirectorySimConfig::default()
                };
                let mut dir = DirectoryEngine::new(
                    Protocol::Conventional,
                    &dir_cfg,
                    PagePlacement::round_robin(4),
                );
                for r in trace.iter() {
                    bus.step(*r);
                    dir.step(*r);
                }
                let bus_stats = bus.finish();
                let dir_events = dir.events();
                assert_eq!(
                    bus_stats.read_hits, dir_events.read_hits,
                    "read hits, case {case}"
                );
                assert_eq!(
                    bus_stats.read_misses, dir_events.read_misses,
                    "read misses, case {case}"
                );
                assert_eq!(
                    bus_stats.write_misses, dir_events.write_misses,
                    "write misses, case {case}"
                );
                // MESI upgrades E->D silently; the directory charges the
                // home but the cache-state effect is the same, so shared
                // upgrades (Bir) must match the directory's.
                assert_eq!(
                    bus_stats.invalidations, dir_events.shared_upgrades,
                    "shared-copy upgrades, case {case}"
                );
                assert_eq!(
                    bus_stats.silent_write_hits,
                    dir_events.silent_write_hits + dir_events.exclusive_upgrades,
                    "write hits with a writable copy, case {case}"
                );
                assert_eq!(
                    bus_stats.writebacks, dir_events.writebacks,
                    "writebacks, case {case}"
                );
            }
        }
    }
}
