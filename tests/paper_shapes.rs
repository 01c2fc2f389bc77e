//! End-to-end checks that the reproduction preserves the *shape* of the
//! paper's results: who wins, in what band, and where the trends point.
//!
//! These run at a reduced work scale; `repro table2`, `repro table3` and
//! `repro exec_time` produce the full tables recorded in EXPERIMENTS.md.

use mcc::cache::{CacheConfig, CacheGeometry};
use mcc::core::{DirectorySim, DirectorySimConfig, PlacementPolicy, Protocol, SimResult};
use mcc::trace::BlockSize;
use mcc::workloads::{Workload, WorkloadParams};

const SCALE: f64 = 0.03;

fn trace_for(app: Workload) -> mcc::trace::Trace {
    app.generate(&WorkloadParams::new(16).scale(SCALE).seed(0))
}

fn run_all(app: Workload, config: &DirectorySimConfig) -> Vec<SimResult> {
    let trace = trace_for(app);
    Protocol::PAPER_SET
        .iter()
        .map(|&p| DirectorySim::new(p, config).run(&trace))
        .collect()
}

fn infinite_config(block_size: BlockSize) -> DirectorySimConfig {
    DirectorySimConfig {
        block_size,
        cache: CacheConfig::Infinite,
        placement: PlacementPolicy::Profiled,
        ..DirectorySimConfig::default()
    }
}

fn pct(results: &[SimResult], i: usize) -> f64 {
    results[i].percent_reduction_vs(&results[0])
}

#[test]
fn adaptive_protocols_never_send_more_messages_on_the_suite() {
    // §6: "In our trace-driven simulations, it never sent more messages
    // than a standard replicate-on-read-miss protocol."
    let config = infinite_config(BlockSize::B16);
    for app in Workload::ALL {
        let results = run_all(app, &config);
        for (i, r) in results.iter().enumerate().skip(1) {
            assert!(
                r.total_messages() <= results[0].total_messages(),
                "{app}: {} sent more messages than conventional ({} vs {})",
                Protocol::PAPER_SET[i],
                r.total_messages(),
                results[0].total_messages()
            );
        }
    }
}

#[test]
fn migratory_apps_approach_the_theoretical_maximum() {
    // Table 3, 16-byte blocks: Cholesky, MP3D and Water approach the
    // theoretical 50% ceiling; Locus Route and Pthor benefit modestly.
    let config = infinite_config(BlockSize::B16);
    for (app, lo, hi) in [
        (Workload::Cholesky, 35.0, 50.0),
        (Workload::Mp3d, 35.0, 50.0),
        (Workload::Water, 35.0, 50.0),
        (Workload::LocusRoute, 5.0, 30.0),
        (Workload::Pthor, 8.0, 30.0),
    ] {
        let results = run_all(app, &config);
        let aggressive = pct(&results, 3);
        assert!(
            aggressive >= lo && aggressive <= hi,
            "{app}: aggressive reduction {aggressive:.1}% outside [{lo}, {hi}]"
        );
    }
}

#[test]
fn aggressiveness_ordering_holds_at_small_blocks() {
    // §6: "for small cache block sizes there is no advantage in being
    // conservative" — aggressive >= basic >= conservative.
    let config = infinite_config(BlockSize::B16);
    for app in Workload::ALL {
        let results = run_all(app, &config);
        let (cons, basic, aggr) = (pct(&results, 1), pct(&results, 2), pct(&results, 3));
        assert!(
            aggr + 0.5 >= basic && basic + 0.5 >= cons,
            "{app}: ordering violated (cons {cons:.1}, basic {basic:.1}, aggr {aggr:.1})"
        );
    }
}

#[test]
fn data_messages_are_nearly_constant_across_protocols() {
    // Table 2: "the number of data-carrying messages is constant or
    // shows a very slight increase" — misclassification cost is small.
    let config = infinite_config(BlockSize::B16);
    for app in Workload::ALL {
        let results = run_all(app, &config);
        let base = results[0].message_count().data as f64;
        for r in &results[1..] {
            let data = r.message_count().data as f64;
            assert!(
                data <= base * 1.02,
                "{app}: {} inflated data messages by {:.2}%",
                r.protocol,
                100.0 * (data - base) / base
            );
        }
    }
}

#[test]
fn reductions_grow_with_cache_size() {
    // Table 2's headline trend: coherence traffic is a larger share of
    // communication with bigger caches, so the relative benefit grows.
    for app in [Workload::Cholesky, Workload::Mp3d, Workload::Water] {
        let trace = trace_for(app);
        let mut last = -1.0;
        for kb in [4u64, 64, 1024] {
            let config = DirectorySimConfig {
                cache: CacheConfig::Finite(
                    CacheGeometry::paper_default(kb * 1024, BlockSize::B16).unwrap(),
                ),
                ..DirectorySimConfig::default()
            };
            let conv = DirectorySim::new(Protocol::Conventional, &config).run(&trace);
            let aggr = DirectorySim::new(Protocol::Aggressive, &config).run(&trace);
            let reduction = aggr.percent_reduction_vs(&conv);
            assert!(
                reduction >= last - 1.0,
                "{app}: reduction fell from {last:.1}% to {reduction:.1}% going to {kb} KB"
            );
            last = reduction;
        }
    }
}

#[test]
fn false_sharing_erodes_mp3d_at_large_blocks() {
    // Table 3: MP3D's effectiveness decreases as block size grows.
    let r16 = run_all(Workload::Mp3d, &infinite_config(BlockSize::B16));
    let r256 = run_all(Workload::Mp3d, &infinite_config(BlockSize::B256));
    assert!(
        pct(&r256, 3) < pct(&r16, 3) - 5.0,
        "MP3D aggressive reduction should fall with block size: {:.1}% at 16B vs {:.1}% at 256B",
        pct(&r16, 3),
        pct(&r256, 3)
    );
}

#[test]
fn cholesky_stays_effective_at_large_blocks() {
    // Table 3: Cholesky's effectiveness *increases* (or at worst holds)
    // with block size — its panels are large and block-aligned.
    let r16 = run_all(Workload::Cholesky, &infinite_config(BlockSize::B16));
    let r256 = run_all(Workload::Cholesky, &infinite_config(BlockSize::B256));
    assert!(
        pct(&r256, 3) > pct(&r16, 3) - 8.0,
        "Cholesky should hold up at 256B: {:.1}% at 16B vs {:.1}% at 256B",
        pct(&r16, 3),
        pct(&r256, 3)
    );
}

#[test]
fn conventional_counts_fall_with_block_size_for_dense_apps() {
    // Table 3's conventional columns: spatial locality coalesces misses
    // as blocks grow (Cholesky 2337 -> 373 thousand in the paper).
    for app in [Workload::Cholesky, Workload::Water] {
        let r16 = run_all(app, &infinite_config(BlockSize::B16));
        let r256 = run_all(app, &infinite_config(BlockSize::B256));
        assert!(
            r256[0].total_messages() < r16[0].total_messages() / 2,
            "{app}: conventional messages should fall strongly with block size"
        );
    }
}

#[test]
fn pure_migratory_matches_aggressive_on_migratory_apps_only() {
    // §5: on migratory-dominated programs the Symmetry/Alewife policy is
    // as good as adapting — the win of adaptivity is elsewhere.
    let config = infinite_config(BlockSize::B16);
    let trace = trace_for(Workload::Water);
    let aggressive = DirectorySim::new(Protocol::Aggressive, &config).run(&trace);
    let pure = DirectorySim::new(Protocol::PureMigratory, &config).run(&trace);
    let diff = (pure.total_messages() as f64 - aggressive.total_messages() as f64).abs()
        / aggressive.total_messages() as f64;
    assert!(
        diff < 0.15,
        "pure vs aggressive differ {:.1}% on Water",
        diff * 100.0
    );

    // On the read-mostly-heavy Locus Route, pure-migratory inflates read
    // misses relative to the adaptive protocol.
    let trace = trace_for(Workload::LocusRoute);
    let aggressive = DirectorySim::new(Protocol::Aggressive, &config).run(&trace);
    let pure = DirectorySim::new(Protocol::PureMigratory, &config).run(&trace);
    assert!(
        pure.events.read_misses > aggressive.events.read_misses,
        "pure-migratory should pay extra read misses on read-mostly data"
    );
}
