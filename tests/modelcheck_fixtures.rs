//! End-to-end fixtures for the model checker and fuzzer: the bounded
//! exhaustive sweep must pass clean for every standard protocol point,
//! with infinite caches and through a one-line cache, and the
//! planted-bug spec (demotion disabled) must be found, shrunk
//! to a handful of records, reproduced deterministically per seed, and
//! survive an `.mcct` write→read round trip as a replayable repro.

use mcc_cache::{CacheConfig, CacheGeometry};
use mcc_check::{
    explore, fuzz, protocol_points, protocol_slug, Checker, CheckerConfig, ExploreConfig,
    FuzzConfig, CHECK_BLOCK_SIZE,
};
use mcc_core::Protocol;
use mcc_trace::Trace;

#[test]
fn bounded_exhaustive_sweep_is_clean_for_every_protocol_point() {
    for protocol in protocol_points() {
        let mut config = ExploreConfig::new(protocol);
        config.max_len = 7;
        let out = explore(&config);
        assert!(out.complete, "{} sweep truncated", protocol_slug(protocol));
        assert_eq!(out.states, 4 + 16 + 64 + 256 + 1024 + 4096 + 16384);
        assert!(
            out.violation.is_none(),
            "{}: {}",
            protocol_slug(protocol),
            out.violation.unwrap().violation
        );
    }
}

#[test]
fn bounded_exhaustive_sweep_is_clean_through_the_fast_engine() {
    // The same bounded space, explored with the fast hot-path engine
    // under every checker: the sweep must stay complete and clean, so
    // the fast path proves itself against the specification — not just
    // against the reference implementation.
    for protocol in protocol_points() {
        let mut config = ExploreConfig::new(protocol);
        config.max_len = 7;
        config.checker.fast_engine = true;
        let out = explore(&config);
        assert!(out.complete, "{} sweep truncated", protocol_slug(protocol));
        assert_eq!(out.states, 4 + 16 + 64 + 256 + 1024 + 4096 + 16384);
        assert!(
            out.violation.is_none(),
            "{}: {}",
            protocol_slug(protocol),
            out.violation.unwrap().violation
        );
    }
}

#[test]
fn bounded_exhaustive_sweep_is_clean_under_a_one_line_cache() {
    // Every trace of length <= 4 over 3 nodes x 2 blocks, through a
    // one-set, one-way cache: a node's second block evicts its first,
    // so paths run the uncached-interval rules (write-back, drop
    // notification, remember-when-uncached) that infinite caches never
    // reach.
    let one_line = CacheGeometry::new(16, CHECK_BLOCK_SIZE, 1).expect("one set of one way");
    for protocol in protocol_points() {
        let mut config = ExploreConfig::new(protocol);
        config.checker.nodes = 3;
        config.checker.cache = CacheConfig::Finite(one_line);
        config.blocks = 2;
        config.max_len = 4;
        let out = explore(&config);
        assert!(out.complete, "{} sweep truncated", protocol_slug(protocol));
        assert_eq!(out.states, 12 + 144 + 1728 + 20736);
        assert!(
            out.violation.is_none(),
            "{}: {}",
            protocol_slug(protocol),
            out.violation.unwrap().violation
        );
    }
}

#[test]
fn planted_demotion_bug_is_found_through_the_fast_engine() {
    // The planted spec bug must still be caught when the checker
    // drives the fast engine, with the identical minimized repro the
    // reference-engine campaign produces.
    let mut config = FuzzConfig::new(0xdead_10cc);
    config.cases = 2;
    config.trace_len = 300;
    config.protocols = vec![Protocol::Aggressive];
    config.checker.spec_demotion_enabled = false;

    let reference = fuzz(&config);
    config.checker.fast_engine = true;
    let fast = fuzz(&config);
    assert!(
        !fast.counterexamples.is_empty(),
        "the planted bug must be found through the fast path"
    );
    assert_eq!(reference.counterexamples.len(), fast.counterexamples.len());
    for (a, b) in reference.counterexamples.iter().zip(&fast.counterexamples) {
        assert_eq!(a.trace.as_slice(), b.trace.as_slice());
        assert_eq!(a.violation.invariant, b.violation.invariant);
    }
}

#[test]
fn planted_demotion_bug_is_found_shrunk_and_replayable() {
    let mut config = FuzzConfig::new(0xdead_10cc);
    config.cases = 2;
    config.trace_len = 300;
    config.protocols = vec![Protocol::Aggressive];
    config.checker.spec_demotion_enabled = false;

    let report = fuzz(&config);
    assert!(
        !report.counterexamples.is_empty(),
        "the planted bug must be found"
    );
    let cx = &report.counterexamples[0];
    assert!(
        cx.trace.len() <= 6,
        "shrunk to {} records, want <= 6",
        cx.trace.len()
    );

    // Deterministic per seed: a second campaign reproduces the same
    // minimized counterexamples.
    let again = fuzz(&config);
    assert_eq!(report.counterexamples.len(), again.counterexamples.len());
    for (a, b) in report.counterexamples.iter().zip(&again.counterexamples) {
        assert_eq!(a.trace.as_slice(), b.trace.as_slice());
        assert_eq!(a.violation.invariant, b.violation.invariant);
    }

    // The .mcct round trip: the written repro replays to the same
    // violation on the machine it was found on, and passes against the
    // correct spec.
    let mut bytes = Vec::new();
    cx.trace.write_to(&mut bytes).expect("serialize repro");
    let replayed = Trace::read_from(&bytes[..]).expect("parse repro");
    assert_eq!(replayed.as_slice(), cx.trace.as_slice());

    let violation = Checker::new(&cx.config)
        .run(&replayed)
        .expect_err("replayed repro must still fail the broken spec");
    assert_eq!(violation.invariant, cx.violation.invariant);

    let clean = CheckerConfig {
        spec_demotion_enabled: true,
        ..cx.config.clone()
    };
    Checker::new(&clean)
        .run(&replayed)
        .expect("the repro is a spec bug, not an engine bug");
}

#[test]
fn seeded_fuzz_smoke_is_clean() {
    let mut config = FuzzConfig::new(2026);
    config.cases = 2;
    config.trace_len = 300;
    let report = fuzz(&config);
    assert!(report.complete);
    assert_eq!(report.cases_run, 2);
    assert!(
        report.counterexamples.is_empty(),
        "[{}] {}",
        report.counterexamples[0].violation.invariant.label(),
        report.counterexamples[0].violation
    );
}
