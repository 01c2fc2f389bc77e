//! Differential parity: the dense `FastEngine` hot path must be
//! bit-exact against the reference `DirectoryEngine` — same `StepInfo`
//! per reference, same message counters, same directory entries, cache
//! states and version tags, same event stream, same errors, same
//! snapshots (a finite cache's LRU order included), and the same final
//! `SimResult` — across all nine protocol points, every placement
//! policy, infinite and finite caches, faulted and fault-free fabrics,
//! sequential and sharded.
//!
//! The fast engine earns its keep only if "fast" never means
//! "different": any divergence here is a bug in the hot path, full
//! stop.

use mcc::cache::{CacheConfig, CacheGeometry};
use mcc::core::{
    AnyEngine, DirectorySim, DirectorySimConfig, Engine, EngineKind, FaultPlan, PlacementPolicy,
    Protocol, RunSpec, SimResult,
};
use mcc::obs::{lock_sink, shared, BufferSink, Event};
use mcc::placement::PagePlacement;
use mcc::trace::{Addr, BlockSize, MemOp, MemRef, NodeId, Trace};
use mcc_check::protocol_points;

const NODES: u16 = 4;
const BLOCKS: u64 = 8;

fn config() -> DirectorySimConfig {
    DirectorySimConfig {
        nodes: NODES,
        ..DirectorySimConfig::default()
    }
}

/// The finite caches the lockstep suite steps through, as
/// `(sets, ways)`: one line, one set of four ways, where LRU order picks
/// every victim, and two sets of two ways.
const FINITE: [(u64, u32); 3] = [(1, 1), (1, 4), (2, 2)];

/// [`config`] with `sets` sets of `ways` ways per node.
fn finite_config(sets: u64, ways: u32) -> DirectorySimConfig {
    let bytes = sets * u64::from(ways) * 16;
    let geometry = CacheGeometry::new(bytes, BlockSize::B16, ways).expect("a valid geometry");
    DirectorySimConfig {
        cache: CacheConfig::Finite(geometry),
        ..config()
    }
}

/// A deterministic mixed trace: migratory hand-offs, read-shared
/// scans, write bursts and random traffic — enough to drive every
/// protocol action (migrate, replicate, upgrades, invalidation
/// broadcasts, reclassifications) over a small block set.
fn parity_trace(seed: u64, len: usize) -> Trace {
    let mut rng = mcc_prng::SplitMix64::new(seed);
    let mut t = Trace::new();
    while t.len() < len {
        let node = NodeId::new(rng.gen_range(0..u64::from(NODES)) as u16);
        let addr = Addr::new(rng.gen_range(0..BLOCKS) * 16);
        if rng.chance_ppm(350_000) {
            // Migratory visit: read then write from one node.
            t.push(MemRef::read(node, addr));
            t.push(MemRef::write(node, addr));
        } else if rng.chance_ppm(300_000) {
            // Read-shared scan: every node reads the block.
            for n in 0..NODES {
                t.push(MemRef::read(NodeId::new(n), addr));
            }
        } else if rng.chance_ppm(500_000) {
            t.push(MemRef::read(node, addr));
        } else {
            t.push(MemRef::write(node, addr));
        }
    }
    t
}

fn engine_pair(
    cfg: &DirectorySimConfig,
    protocol: Protocol,
    faults: Option<FaultPlan>,
) -> ((AnyEngine, SharedBuffer), (AnyEngine, SharedBuffer)) {
    let build = |kind: EngineKind| {
        let mut engine = AnyEngine::new(kind, protocol, cfg, PagePlacement::round_robin(NODES));
        if let Some(plan) = faults {
            engine = engine.with_faults(plan);
        }
        let (buffer, handle) = shared(BufferSink::new());
        engine.set_sink(Some(handle));
        (engine, buffer)
    };
    let reference = build(EngineKind::Reference);
    let fast = build(EngineKind::Fast);
    assert_eq!(fast.0.kind(), EngineKind::Fast, "no fallback expected");
    (reference, fast)
}

type SharedBuffer = std::sync::Arc<std::sync::Mutex<BufferSink>>;

fn drain(buffer: &SharedBuffer) -> Vec<Event> {
    std::mem::take(&mut *lock_sink(buffer)).into_events()
}

/// How often the lockstep suite compares whole snapshots: each step
/// compares the referenced block, and a finite cache's eviction changes
/// another one.
const SNAPSHOT_EVERY: usize = 32;

/// Steps both engines on `cfg`'s machine in lockstep over `trace`,
/// comparing everything observable about the referenced block after
/// every reference, and whole snapshots every [`SNAPSHOT_EVERY`] steps.
/// Returns the final result, or `None` early (comparing the errors) if
/// both engines reject a step.
fn lockstep(
    cfg: &DirectorySimConfig,
    protocol: Protocol,
    faults: Option<FaultPlan>,
    trace: &Trace,
    label: &str,
) -> Option<SimResult> {
    let ((mut reference, ref_events), (mut fast, fast_events)) = engine_pair(cfg, protocol, faults);
    for (i, r) in trace.iter().enumerate() {
        let want = reference.try_step(*r);
        let got = fast.try_step(*r);
        assert_eq!(want, got, "{label} step {i} ({r}): StepInfo/error diverged");
        assert_eq!(
            drain(&ref_events),
            drain(&fast_events),
            "{label} step {i} ({r}): event streams diverged"
        );
        assert_eq!(
            reference.messages(),
            fast.messages(),
            "{label} step {i}: message counters diverged"
        );
        assert_eq!(
            reference.events(),
            fast.events(),
            "{label} step {i}: event counters diverged"
        );
        let block = r.addr.block(BlockSize::B16);
        assert_eq!(
            reference.dir_entry(block),
            fast.dir_entry(block),
            "{label} step {i}: directory entry diverged"
        );
        assert_eq!(
            reference.latest_version(block),
            fast.latest_version(block),
            "{label} step {i}: latest version diverged"
        );
        assert_eq!(
            reference.memory_version(block),
            fast.memory_version(block),
            "{label} step {i}: memory version diverged"
        );
        for n in 0..NODES {
            let node = NodeId::new(n);
            assert_eq!(
                reference.line_state(node, block),
                fast.line_state(node, block),
                "{label} step {i}: line state at node {n} diverged"
            );
            assert_eq!(
                reference.line_version(node, block),
                fast.line_version(node, block),
                "{label} step {i}: line version at node {n} diverged"
            );
        }
        if want.is_err() {
            // Both errored identically; state after an error is
            // implementation-defined (failed runs are discarded).
            return None;
        }
        if i % SNAPSHOT_EVERY == SNAPSHOT_EVERY - 1 {
            assert_eq!(
                reference.snapshot(),
                fast.snapshot(),
                "{label} step {i}: snapshots diverged"
            );
        }
    }
    // The reference engine's within-node line order is HashMap
    // iteration order; sort by (node, block) before comparing.
    let mut ref_lines = reference.resident_lines();
    let mut fast_lines = fast.resident_lines();
    ref_lines.sort_by_key(|&(node, block, ..)| (node, block));
    fast_lines.sort_by_key(|&(node, block, ..)| (node, block));
    assert_eq!(ref_lines, fast_lines, "{label}: resident lines diverged");
    assert_eq!(
        reference.snapshot(),
        fast.snapshot(),
        "{label}: snapshots diverged"
    );
    reference.verify().expect("reference invariants");
    fast.verify().expect("fast invariants");
    let result = reference.finish();
    assert_eq!(result, fast.finish(), "{label}: final results diverged");
    Some(result)
}

#[test]
fn lockstep_parity_across_all_protocol_points() {
    let trace = parity_trace(0x9a17_1e57, 600);
    for protocol in protocol_points() {
        lockstep(
            &config(),
            protocol,
            None,
            &trace,
            &format!("{protocol} clean"),
        );
    }
}

#[test]
fn lockstep_parity_through_finite_caches() {
    // Eight blocks through at most four lines per node: most misses
    // evict, clean and dirty, so every eviction path runs, faulted and
    // fault-free.
    let trace = parity_trace(0xf1_417e_ca5e, 600);
    for (sets, ways) in FINITE {
        let cfg = finite_config(sets, ways);
        for protocol in protocol_points() {
            for faults in [None, Some(FaultPlan::uniform(11, 40_000))] {
                let label = format!("{protocol} {sets}x{ways} faults={}", faults.is_some());
                let result = lockstep(&cfg, protocol, faults, &trace, &label)
                    .unwrap_or_else(|| panic!("{label}: both engines failed"));
                assert!(result.events.writebacks > 0, "{label}: no write-back");
                assert!(result.events.clean_drops > 0, "{label}: no clean drop");
            }
        }
    }
}

#[test]
fn lockstep_parity_under_injected_faults() {
    // Fault delivery plans are drawn per transaction from the same
    // deterministic injector stream, so even nack/retry/backoff events
    // must match one-for-one. Several seeds, including a hostile rate
    // that exhausts retries (both engines must fail identically).
    let trace = parity_trace(0xfau64 << 32 | 0x17ed, 400);
    for protocol in protocol_points() {
        for (seed, ppm) in [(11, 40_000), (23, 120_000), (99, 450_000)] {
            lockstep(
                &config(),
                protocol,
                Some(FaultPlan::uniform(seed, ppm)),
                &trace,
                &format!("{protocol} faults({seed},{ppm})"),
            );
        }
    }
}

#[test]
fn full_run_parity_across_all_placements() {
    let trace = parity_trace(0x0071_ace5, 800);
    for protocol in protocol_points() {
        for placement in [
            PlacementPolicy::RoundRobin,
            PlacementPolicy::FirstTouch,
            PlacementPolicy::Profiled,
        ] {
            for faults in [None, Some(FaultPlan::uniform(7, 30_000))] {
                let cfg = DirectorySimConfig {
                    placement,
                    ..config()
                };
                let mut reference =
                    DirectorySim::new(protocol, &cfg).with_engine(EngineKind::Reference);
                let mut fast = DirectorySim::new(protocol, &cfg).with_engine(EngineKind::Fast);
                if let Some(plan) = faults {
                    reference = reference.with_faults(plan);
                    fast = fast.with_faults(plan);
                }
                let want = reference.try_run(&trace);
                let got = fast.try_run(&trace);
                assert_eq!(
                    want,
                    got,
                    "{protocol} {placement:?} faults={}",
                    faults.is_some()
                );
            }
        }
    }
}

#[test]
fn sharded_runs_match_the_sequential_reference_bit_exactly() {
    let trace = parity_trace(0x5aa5_d00d, 800);
    for protocol in protocol_points() {
        let reference = DirectorySim::new(protocol, &config()).with_engine(EngineKind::Reference);
        let fast = DirectorySim::new(protocol, &config()).with_engine(EngineKind::Fast);
        let sequential = reference.try_run(&trace).expect("reference run");
        for shards in [1usize, 4, 8] {
            let spec = RunSpec {
                shards,
                monitor: true,
                ..RunSpec::default()
            };
            let sharded_fast = fast
                .execute(&trace, &spec)
                .and_then(|report| report.merged())
                .expect("fast sharded run");
            assert_eq!(
                sharded_fast, sequential,
                "{protocol} K={shards}: fast sharded diverged from sequential reference"
            );
        }
    }
}

#[test]
fn faulted_event_streams_match_after_scrubbing() {
    // Full-run event-stream parity under faults through the
    // DirectorySim front door. The streams are expected to be
    // *bit-exact* (same injector stream on both sides) — the scrub to
    // fault-free skeletons is a separately-pinned weaker guarantee
    // that stays meaningful even if jitter details ever diverge.
    let trace = parity_trace(0xeeee_0b5e, 400);
    let plan = FaultPlan::uniform(31, 60_000);
    for protocol in protocol_points() {
        let run = |kind: EngineKind| {
            let sim = DirectorySim::new(protocol, &config())
                .with_engine(kind)
                .with_faults(plan);
            let (buffer, handle) = shared(BufferSink::new());
            let spec = RunSpec {
                sinks: Some(std::slice::from_ref(&handle)),
                monitor: true,
                ..RunSpec::default()
            };
            let result = sim
                .execute(&trace, &spec)
                .and_then(|report| report.merged());
            let events = std::mem::take(&mut *lock_sink(&buffer)).into_events();
            (result, events)
        };
        let (want, ref_stream) = run(EngineKind::Reference);
        let (got, fast_stream) = run(EngineKind::Fast);
        assert_eq!(want, got, "{protocol}: faulted results diverged");
        assert_eq!(
            ref_stream, fast_stream,
            "{protocol}: faulted event streams diverged"
        );
        let scrub = |events: &[Event]| -> Vec<Event> {
            events
                .iter()
                .filter(|e| {
                    !matches!(
                        e,
                        Event::Nack { .. } | Event::Retry { .. } | Event::Backoff { .. }
                    )
                })
                .cloned()
                .collect()
        };
        assert_eq!(
            scrub(&ref_stream),
            scrub(&fast_stream),
            "{protocol}: scrubbed event skeletons diverged"
        );
    }
}

#[test]
fn read_and_write_only_traces_stay_in_parity() {
    // Degenerate corners: single-op traces exercise the pure
    // replication and pure ownership paths with no interleaving.
    for protocol in protocol_points() {
        for op in [MemOp::Read, MemOp::Write] {
            let mut t = Trace::new();
            for i in 0..200u64 {
                let node = NodeId::new((i % u64::from(NODES)) as u16);
                t.push(MemRef::new(node, op, Addr::new((i % BLOCKS) * 16)));
            }
            lockstep(
                &config(),
                protocol,
                None,
                &t,
                &format!("{protocol} {op:?}-only"),
            );
        }
    }
}

#[test]
fn telemetry_plane_is_inert_and_observes() {
    // The live telemetry plane's sink must be invisible to the
    // simulation: a fully enabled `TelemetrySink` (batched local
    // aggregation publishing into shared atomics) produces bit-exact
    // results against an unobserved run, on both engines — while the
    // plane itself demonstrably sees the event stream.
    use mcc::obs::{NullSink, Telemetry, TelemetrySink};

    let trace = parity_trace(0x7e1e_0b55, 4_000);
    for protocol in Protocol::PAPER_SET {
        let run = |kind: EngineKind, sink: mcc::obs::SharedSink| {
            let mut engine =
                AnyEngine::new(kind, protocol, &config(), PagePlacement::round_robin(NODES));
            engine.set_sink(Some(sink));
            for r in trace.iter() {
                engine.step(*r);
            }
            engine.finish()
        };
        let plane = Telemetry::new();
        let bare = run(EngineKind::Fast, shared(NullSink).1);
        let traced = run(EngineKind::Fast, shared(TelemetrySink::new(&plane)).1);
        assert_eq!(
            bare, traced,
            "{protocol}: a telemetry sink perturbed the fast engine"
        );
        let reference = run(EngineKind::Reference, shared(TelemetrySink::new(&plane)).1);
        assert_eq!(
            bare, reference,
            "{protocol}: a telemetry sink perturbed the reference engine"
        );
        // Both traced runs published: one Step record per reference.
        let snapshot = plane.snapshot();
        assert_eq!(
            snapshot.counter(mcc::obs::metrics::names::RECORDS),
            2 * trace.len() as u64,
            "{protocol}: the plane missed records despite inert results"
        );
    }
}

/// Poisons 8 of 32 blocks and checks that every sweep names the lowest
/// of them, with the same kind, on freshly built engines of both kinds.
/// The reference engine's tables iterate in a per-map random order and
/// the fast engine's slots in first-reference order, so one build of
/// each proves nothing: the test builds many.
#[test]
fn sweeps_name_the_lowest_broken_block_on_every_engine() {
    use mcc::core::{Monitor, Violation, ViolationKind};

    const BUILDS: usize = 24;
    // Out of order and out of first-reference order; the lowest is 5.
    const POISONED: [u64; 8] = [29, 17, 5, 11, 23, 8, 14, 26];
    let block = |b: u64| Addr::new(b * 16).block(BlockSize::B16);
    let holders = |b: u64| [b % 4, (b + 1) % 4, (b + 2) % 4].map(|n| NodeId::new(n as u16));
    // Blocks referenced from high to low; each written by one node and
    // read by two more, which leaves three clean shared copies.
    let mut trace = Trace::new();
    for b in (0..32u64).rev() {
        let [writer, a, c] = holders(b);
        trace.push(MemRef::write(writer, Addr::new(b * 16)));
        trace.push(MemRef::read(a, Addr::new(b * 16)));
        trace.push(MemRef::read(c, Addr::new(b * 16)));
    }
    let built = |kind: EngineKind| {
        let mut engine = AnyEngine::new(
            kind,
            Protocol::Conventional,
            &config(),
            PagePlacement::round_robin(NODES),
        );
        for r in trace.iter() {
            engine.try_step(*r).unwrap();
        }
        engine
    };
    let named = |v: Violation| (v.block, v.kind);
    let lowest = block(5);

    // A lost write in memory's view: the structural sweep's
    // stale-memory check fires, and the monitor reports it first.
    let stale_memory = (
        lowest,
        ViolationKind::StaleMemory {
            memory: 1,
            latest: 105,
        },
    );
    // A stale resident copy on every holder, worst on the lowest node:
    // only the monitor's data-value sweep sees it. Holders are poisoned
    // from the highest node down, so the fast engine, which keeps one
    // version per block, ends on the lowest node's value too.
    let lowest_holder = holders(5).iter().map(|n| n.index() as u64).min().unwrap();
    let stale_copy = (
        lowest,
        ViolationKind::StaleRead {
            observed: 1000 * (lowest_holder + 1) + 5,
            latest: 1,
        },
    );
    for kind in [EngineKind::Reference, EngineKind::Fast] {
        for build in 0..BUILDS {
            let label = format!("{kind:?} build {build}");
            let mut engine = built(kind);
            for b in POISONED {
                engine.poison_latest_version(block(b), 100 + b);
            }
            assert_eq!(engine.verify().map_err(named), Err(stale_memory), "{label}");
            let mut monitor = Monitor::new(1);
            assert_eq!(
                monitor.verify(&engine).map_err(named),
                Err(stale_memory),
                "{label}"
            );

            let mut engine = built(kind);
            for b in POISONED {
                let mut nodes = holders(b);
                nodes.sort_unstable_by_key(|n| std::cmp::Reverse(n.index()));
                for node in nodes {
                    let version = 1000 * (node.index() as u64 + 1) + b;
                    assert!(engine.poison_line_version(node, block(b), version));
                }
            }
            assert!(
                engine.verify().is_ok(),
                "{label}: the structural sweep saw a copy"
            );
            let mut monitor = Monitor::new(1);
            assert_eq!(
                monitor.verify(&engine).map_err(named),
                Err(stale_copy),
                "{label}"
            );
        }
    }
}

#[test]
fn wide_machines_capture_identical_snapshots() {
    // Past 64 nodes a copy set spills to the heap, and the fast engine
    // builds each node's cache row from the copy sets: after a
    // read-heavy random trace, both engines must capture the same
    // snapshot, every row in block order.
    const WIDE: u16 = 130;
    let config = DirectorySimConfig {
        nodes: WIDE,
        ..DirectorySimConfig::default()
    };
    let mut rng = mcc_prng::SplitMix64::new(0x51de_5a9e);
    let trace: Trace = (0..20_000)
        .map(|_| {
            let node = NodeId::new(rng.gen_range(0..u64::from(WIDE)) as u16);
            let addr = Addr::new(rng.gen_range(0..64) * 16);
            if rng.chance_ppm(200_000) {
                MemRef::write(node, addr)
            } else {
                MemRef::read(node, addr)
            }
        })
        .collect();
    for protocol in protocol_points() {
        let run = |kind| {
            let placement = PagePlacement::round_robin(WIDE);
            let mut engine = AnyEngine::new(kind, protocol, &config, placement);
            for r in trace.iter() {
                engine.step(*r);
            }
            engine
        };
        let (reference, fast) = (run(EngineKind::Reference), run(EngineKind::Fast));
        let lines = fast.resident_lines();
        assert!(
            lines.iter().any(|&(node, ..)| node.index() >= 64),
            "{protocol}: no copy set spilled past node 63"
        );
        assert_eq!(
            reference.snapshot(),
            fast.snapshot(),
            "{protocol}: snapshots diverged at {WIDE} nodes"
        );
    }
}
