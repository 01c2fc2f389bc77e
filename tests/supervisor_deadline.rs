//! Supervisor deadline behavior against a genuinely *stalled* (not
//! panicked) shard.
//!
//! The panic path is covered elsewhere; this file wedges one shard via
//! the cooperative spin hook and holds the executor's deadline to its
//! contract: the wedged shard comes back as [`SimError::ShardTimedOut`],
//! the surviving shards' results are salvaged, and the call returns
//! within its budget — never a hang. The whole check runs under a
//! test-level timeout on a separate thread, so even a regression to a
//! hang fails the test instead of wedging the suite.

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use mcc::core::supervision_test_hooks as hooks;
use mcc::core::{DirectorySim, DirectorySimConfig, Protocol, RunSpec, SimError};
use mcc::trace::{Addr, MemRef, NodeId, Trace};

const SHARDS: usize = 4;

/// A monitored `SHARDS`-way run, optionally under a deadline.
fn supervised(deadline: Option<Duration>) -> RunSpec<'static> {
    RunSpec {
        shards: SHARDS,
        deadline,
        monitor: true,
        ..RunSpec::default()
    }
}

/// Enough references over enough blocks that every shard owns work.
fn busy_trace() -> Trace {
    let mut t = Trace::new();
    for round in 0..200u64 {
        for block in 0..32u64 {
            let node = NodeId::new(((round + block) % 4) as u16);
            t.push(MemRef::read(node, Addr::new(block * 16)));
            t.push(MemRef::write(node, Addr::new(block * 16)));
        }
    }
    t
}

/// Clears the wedge hook even when the test body panics, so a failure
/// here cannot wedge unrelated supervised runs in this binary.
struct WedgeGuard;

impl Drop for WedgeGuard {
    fn drop(&mut self) {
        hooks::clear_wedge();
    }
}

#[test]
fn wedged_shard_times_out_and_survivors_are_salvaged() {
    let _guard = WedgeGuard;
    const WEDGED: u32 = 2;
    const BUDGET: Duration = Duration::from_millis(300);
    // Bound the whole supervised call: generous against CI jitter, but
    // finite, so a supervisor that waits on a wedged shard forever is
    // reported as a failure rather than hanging the suite.
    const TEST_TIMEOUT: Duration = Duration::from_secs(30);

    hooks::wedge_shard(WEDGED);

    let (tx, rx) = mpsc::channel();
    let started = Instant::now();
    thread::spawn(move || {
        let trace = busy_trace();
        let cfg = DirectorySimConfig {
            nodes: 4,
            ..DirectorySimConfig::default()
        };
        let sim = DirectorySim::new(Protocol::Basic, &cfg);
        let report = sim.execute(&trace, &supervised(Some(BUDGET)));
        let _ = tx.send(report);
    });

    let report = rx
        .recv_timeout(TEST_TIMEOUT)
        .expect("the supervised run hung past the test-level timeout")
        .expect("sharding is supported for this configuration");
    hooks::clear_wedge();

    // The supervisor honored its budget (with scheduling slack).
    assert!(
        started.elapsed() < TEST_TIMEOUT / 2,
        "supervisor took {:?} against a {BUDGET:?} budget",
        started.elapsed()
    );

    // Exactly the wedged shard failed, and it failed as a timeout.
    let failed = report.failed_shards();
    assert_eq!(
        failed.len(),
        1,
        "only the wedged shard may fail: {failed:?}"
    );
    let (shard, err) = (failed[0].0, failed[0].1);
    assert_eq!(shard, WEDGED);
    match err {
        SimError::ShardTimedOut { shard, budget_ms } => {
            assert_eq!(*shard, WEDGED);
            assert_eq!(*budget_ms, BUDGET.as_millis() as u64);
        }
        other => panic!("expected ShardTimedOut, got {other:?}"),
    }
    assert!(!report.all_completed());

    // The strict merge reports the timeout; the salvage keeps every
    // surviving shard's counters — identical to the same shards of an
    // unwedged run.
    assert!(matches!(
        report.merged(),
        Err(SimError::ShardTimedOut { .. })
    ));
    let trace = busy_trace();
    let cfg = DirectorySimConfig {
        nodes: 4,
        ..DirectorySimConfig::default()
    };
    let clean = DirectorySim::new(Protocol::Basic, &cfg)
        .execute(&trace, &supervised(None))
        .expect("clean supervised run");
    assert!(clean.all_completed());
    for (id, outcome) in report.outcomes().iter().enumerate() {
        if id as u32 == WEDGED {
            continue;
        }
        assert_eq!(
            outcome.as_ref().expect("surviving shard completed"),
            clean.outcomes()[id].as_ref().unwrap(),
            "shard {id} diverged from the unwedged run"
        );
    }
    let salvaged = report.salvaged();
    assert!(salvaged.events.refs() > 0, "salvage kept survivor work");
    assert!(salvaged.events.refs() < clean.merged().unwrap().events.refs());
}
