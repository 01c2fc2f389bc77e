//! Golden regression numbers: exact message totals at a pinned
//! configuration (16 nodes, 16 B blocks, infinite caches, profiled
//! placement, scale 0.1, seed 42), and at the same configuration
//! through the paper's 4 KB 4-way caches.
//!
//! Everything in the pipeline is deterministic, so any drift here means
//! the workload generators or a protocol changed behaviour. After an
//! *intentional* change, regenerate with
//! `cargo run --release -p mcc-bench --bin golden_dump` and update the
//! table.

use mcc::cache::{CacheConfig, CacheGeometry};
use mcc::core::{
    DirectoryRepr, DirectorySim, DirectorySimConfig, EngineKind, Protocol, RunSpec, SimError,
    SimResult,
};
use mcc::obs::SharedSink;
use mcc::trace::{BlockSize, Trace};
use mcc::workloads::{Workload, WorkloadParams};

/// Directory representation the goldens run under: `MCC_TEST_REPR`
/// when set to a slug with a pinned table below (the CI matrix runs
/// `full-map`, `dir4b`, and `cv4`), the full map otherwise.
fn test_repr() -> DirectoryRepr {
    match std::env::var("MCC_TEST_REPR") {
        Ok(raw) => {
            mcc_check::parse_directory_repr(&raw).unwrap_or_else(|e| panic!("MCC_TEST_REPR: {e}"))
        }
        Err(_) => DirectoryRepr::FullMap,
    }
}

/// Shard count for the parallel-path assertions: `MCC_TEST_SHARDS` when
/// set (the CI matrix runs 1 and 4), 4 otherwise.
fn test_shards() -> usize {
    match std::env::var("MCC_TEST_SHARDS") {
        Ok(raw) => {
            raw.parse().ok().filter(|&k| k > 0).unwrap_or_else(|| {
                panic!("MCC_TEST_SHARDS must be a positive integer, got {raw:?}")
            })
        }
        Err(_) => 4,
    }
}

/// Engine the goldens run under: the fast hot path when
/// `MCC_TEST_FAST_ENGINE` is set to a truthy value (the CI matrix runs
/// both), the reference engine otherwise. The pinned totals must hold
/// bit-exactly under either.
fn test_engine() -> EngineKind {
    match std::env::var("MCC_TEST_FAST_ENGINE") {
        Ok(raw) if raw == "1" || raw.eq_ignore_ascii_case("true") => EngineKind::Fast,
        Ok(raw) if raw == "0" || raw.is_empty() || raw.eq_ignore_ascii_case("false") => {
            EngineKind::Reference
        }
        Ok(raw) => panic!("MCC_TEST_FAST_ENGINE must be 0 or 1, got {raw:?}"),
        Err(_) => EngineKind::Reference,
    }
}

/// Ring-sink capacity for the observability-is-inert assertion:
/// `MCC_TEST_EVENTS_RING` when set (CI re-runs the goldens with a ring
/// attached), otherwise `None` and the instrumented re-run is skipped.
fn test_events_ring() -> Option<usize> {
    match std::env::var("MCC_TEST_EVENTS_RING") {
        Ok(raw) => Some(raw.parse().ok().filter(|&k| k > 0).unwrap_or_else(|| {
            panic!("MCC_TEST_EVENTS_RING must be a positive integer, got {raw:?}")
        })),
        Err(_) => None,
    }
}

/// Whether to re-run the goldens with a full live-telemetry plane
/// attached (`MCC_TEST_TELEMETRY` set to a truthy value): the batched
/// `TelemetrySink` must be as inert as the ring — bit-exact totals
/// with the plane's counters visibly advancing.
fn test_telemetry() -> bool {
    match std::env::var("MCC_TEST_TELEMETRY") {
        Ok(raw) if raw == "1" || raw.eq_ignore_ascii_case("true") => true,
        Ok(raw) if raw == "0" || raw.is_empty() || raw.eq_ignore_ascii_case("false") => false,
        Ok(raw) => panic!("MCC_TEST_TELEMETRY must be 0 or 1, got {raw:?}"),
        Err(_) => false,
    }
}

/// The pinned totals for one directory representation.
/// `(workload, trace refs, conventional, conservative, basic, aggressive)`
type GoldenRow = (Workload, usize, u64, u64, u64, u64);

/// Golden table for `repr`, regenerated with
/// `golden_dump --directory <slug>`. The precise full map is the
/// baseline; `Dir4B` drifts only where a copy set overflows four
/// pointers (LocusRoute, Pthor), and `CV4` charges whole 4-node
/// regions so every workload's control traffic grows.
fn golden_table(repr: DirectoryRepr) -> &'static [GoldenRow] {
    match repr {
        DirectoryRepr::FullMap => &[
            (
                Workload::Cholesky,
                1_815_680,
                3_089_550,
                1_794_314,
                1_695_922,
                1_549_900,
            ),
            (
                Workload::LocusRoute,
                383_616,
                536_960,
                463_802,
                457_710,
                442_830,
            ),
            (
                Workload::Mp3d,
                2_067_716,
                4_252_912,
                2_444_256,
                2_317_814,
                2_128_116,
            ),
            (
                Workload::Pthor,
                891_840,
                2_876_060,
                2_471_034,
                2_413_880,
                2_369_136,
            ),
            (
                Workload::Water,
                1_331_840,
                2_346_136,
                1_426_746,
                1_344_348,
                1_296_398,
            ),
        ],
        DirectoryRepr::LimitedPointer { pointers: 4 } => &[
            (
                Workload::Cholesky,
                1_815_680,
                3_089_550,
                1_794_314,
                1_695_922,
                1_549_900,
            ),
            (
                Workload::LocusRoute,
                383_616,
                549_380,
                476_222,
                470_090,
                453_004,
            ),
            (
                Workload::Mp3d,
                2_067_716,
                4_252_912,
                2_444_256,
                2_317_814,
                2_128_116,
            ),
            (
                Workload::Pthor,
                891_840,
                3_067_284,
                2_630_380,
                2_508_150,
                2_462_450,
            ),
            (
                Workload::Water,
                1_331_840,
                2_346_136,
                1_426_746,
                1_344_348,
                1_296_398,
            ),
        ],
        DirectoryRepr::CoarseVector { region_size: 4 } => &[
            (
                Workload::Cholesky,
                1_815_680,
                7_235_184,
                2_349_232,
                1_977_374,
                1_552_520,
            ),
            (
                Workload::LocusRoute,
                383_616,
                1_008_646,
                741_368,
                719_216,
                674_392,
            ),
            (
                Workload::Mp3d,
                2_067_716,
                9_671_840,
                3_106_136,
                2_649_330,
                2_128_900,
            ),
            (
                Workload::Pthor,
                891_840,
                5_709_702,
                4_157_082,
                3_980_118,
                3_846_816,
            ),
            (
                Workload::Water,
                1_331_840,
                5_351_898,
                2_012_154,
                1_712_596,
                1_590_362,
            ),
        ],
        other => panic!(
            "no golden table pinned for {other}; add one via \
             `golden_dump --directory {other}` or run a pinned slug"
        ),
    }
}

/// The full map through the paper's 4 KB 4-way caches (`golden_dump`
/// prints this table last), where most misses evict: the write-back,
/// drop-notification and uncached-interval paths the infinite tables
/// never run. Pinned from the reference engine.
const FINITE_GOLDEN: &[GoldenRow] = &[
    (
        Workload::Cholesky,
        1_815_680,
        2_402_500,
        2_395_588,
        2_395_395,
        2_389_859,
    ),
    (
        Workload::LocusRoute,
        383_616,
        570_772,
        518_815,
        513_390,
        489_971,
    ),
    (
        Workload::Mp3d,
        2_067_716,
        3_051_060,
        2_155_943,
        2_077_830,
        1_949_594,
    ),
    (
        Workload::Pthor,
        891_840,
        2_596_306,
        2_381_611,
        2_339_409,
        2_306_463,
    ),
    (
        Workload::Water,
        1_331_840,
        1_729_789,
        1_375_587,
        1_350_715,
        1_309_439,
    ),
];

#[test]
fn pinned_message_totals_through_finite_caches() {
    let geometry =
        CacheGeometry::paper_default(4 * 1024, BlockSize::B16).expect("the paper's 4 KB cache");
    let cfg = DirectorySimConfig {
        cache: CacheConfig::Finite(geometry),
        ..DirectorySimConfig::default()
    };
    let params = WorkloadParams::new(16).scale(0.1).seed(42);
    for &(app, refs, conv, cons, basic, aggr) in FINITE_GOLDEN {
        let trace = app.generate(&params);
        assert_eq!(trace.len(), refs, "{app}: trace length drifted");
        let expected = [conv, cons, basic, aggr];
        for (protocol, want) in Protocol::PAPER_SET.into_iter().zip(expected) {
            let sim = DirectorySim::new(protocol, &cfg).with_engine(test_engine());
            let got = sim.try_run(&trace).expect("monitored finite-cache run");
            assert_eq!(
                got.total_messages(),
                want,
                "{app}/{protocol} through 4 KB caches: total messages drifted (update via \
                 golden_dump if the change was intentional)"
            );
            assert!(got.events.writebacks > 0, "{app}/{protocol}: no write-back");
        }
    }
}

#[test]
fn pinned_message_totals() {
    let repr = test_repr();
    let golden = golden_table(repr);

    let cfg = DirectorySimConfig {
        directory: repr,
        ..DirectorySimConfig::default()
    };
    let params = WorkloadParams::new(16).scale(0.1).seed(42);
    let shards = test_shards();
    for &(app, refs, conv, cons, basic, aggr) in golden {
        let trace = app.generate(&params);
        assert_eq!(trace.len(), refs, "{app}: trace length drifted");
        let expected = [conv, cons, basic, aggr];
        for (protocol, want) in Protocol::PAPER_SET.into_iter().zip(expected) {
            let sim = DirectorySim::new(protocol, &cfg).with_engine(test_engine());
            let got = sim.run(&trace).total_messages();
            assert_eq!(
                got, want,
                "{app}/{protocol}: total messages drifted (update via golden_dump \
                 if the change was intentional)"
            );
            // The sharded merge path is pinned to the same goldens: a
            // regression in partitioning or merging fails tier-1.
            let spec = RunSpec {
                shards,
                ..RunSpec::default()
            };
            let sharded = sim
                .execute(&trace, &spec)
                .and_then(|report| report.merged())
                .expect("sharded golden run")
                .total_messages();
            assert_eq!(
                sharded, want,
                "{app}/{protocol}: K={shards} sharded total diverged from the golden count"
            );
            // With MCC_TEST_EVENTS_RING set, re-run with a bounded ring
            // sink attached: observability must be inert, so the golden
            // count must hold bit-exactly with events flowing.
            if let Some(capacity) = test_events_ring() {
                let (ring, handle) = mcc::obs::shared(mcc::obs::RingSink::new(capacity));
                let observed = observed_run(&sim, &trace, handle)
                    .expect("instrumented golden run")
                    .total_messages();
                assert_eq!(
                    observed, want,
                    "{app}/{protocol}: a ring sink perturbed the golden count"
                );
                assert!(
                    mcc::obs::lock_sink(&ring).total_seen() > 0,
                    "{app}/{protocol}: the attached ring observed nothing"
                );
            }
            // With MCC_TEST_TELEMETRY set, re-run with the live
            // telemetry plane's batched sink attached: the goldens
            // must hold bit-exactly while the plane's shared counters
            // advance.
            if test_telemetry() {
                use mcc::obs::{metrics::names, shared, Telemetry, TelemetrySink};
                let plane = Telemetry::new();
                let sink = shared(TelemetrySink::new(&plane)).1;
                let observed = observed_run(&sim, &trace, sink)
                    .expect("telemetry-instrumented golden run")
                    .total_messages();
                assert_eq!(
                    observed, want,
                    "{app}/{protocol}: a telemetry sink perturbed the golden count"
                );
                let snapshot = plane.snapshot();
                assert_eq!(
                    snapshot.counter(names::RECORDS),
                    refs as u64,
                    "{app}/{protocol}: the telemetry plane missed records"
                );
                assert_eq!(
                    snapshot.counter(names::CONTROL) + snapshot.counter(names::DATA),
                    want,
                    "{app}/{protocol}: the telemetry plane's message totals drifted \
                     from the golden count"
                );
            }
        }
    }
}

/// `sim`'s monitored sequential run with `sink` attached; the sink is
/// dropped on return, which flushes a batching sink's last events.
fn observed_run(
    sim: &DirectorySim,
    trace: &Trace,
    sink: SharedSink,
) -> Result<SimResult, SimError> {
    let spec = RunSpec {
        sinks: Some(std::slice::from_ref(&sink)),
        monitor: true,
        ..RunSpec::default()
    };
    sim.execute(trace, &spec)?.merged()
}
