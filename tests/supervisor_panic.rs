//! Supervisor behavior against a shard that *panics* mid-run.
//!
//! The timeout path is covered by `supervisor_deadline.rs`; this file
//! crashes one shard via the cooperative poison hook and holds the
//! executor to its contract on materialized and streamed sources alike:
//! the panic is contained by `catch_unwind` and surfaced as a typed
//! [`SimError::ShardPanicked`], the surviving shards' results are
//! salvaged bit-identically to a clean run, and the strict merge still
//! refuses the sweep. The hook is process-global, which is why these
//! tests own their binary and take turns on one lock instead of living
//! next to the healthy sharded runs in the `mcc-core` unit tests.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use mcc::core::supervision_test_hooks as hooks;
use mcc::core::{CheckpointPolicy, DirectorySim, DirectorySimConfig, Protocol, RunSpec, SimError};
use mcc::trace::{Addr, MemRef, NodeId, Trace, TraceStream};

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

/// Serializes the tests of this binary: the poison hook would crash
/// the other test's clean runs.
fn serialize() -> MutexGuard<'static, ()> {
    static HOOK: Mutex<()> = Mutex::new(());
    HOOK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Clears the poison hook even when the test body panics, so a failure
/// here cannot crash unrelated supervised runs in this binary.
struct PoisonGuard;

impl Drop for PoisonGuard {
    fn drop(&mut self) {
        hooks::clear_poison();
    }
}

#[test]
fn shard_panic_is_isolated_and_others_salvaged() {
    let _serial = serialize();
    let _guard = PoisonGuard;
    const POISONED: u32 = 2;

    hooks::poison_shard(POISONED);

    let trace = busy_trace();
    let cfg = DirectorySimConfig {
        nodes: 4,
        ..DirectorySimConfig::default()
    };
    let sim = DirectorySim::new(Protocol::Basic, &cfg);
    let report = sim
        .execute(&trace, &supervised(None))
        .expect("sharding is supported for this configuration");
    hooks::clear_poison();

    // Exactly the poisoned shard failed, and it failed as a panic.
    let failed = report.failed_shards();
    assert_eq!(
        failed.len(),
        1,
        "only the poisoned shard may fail: {failed:?}"
    );
    let (shard, err) = (failed[0].0, failed[0].1);
    assert_eq!(shard, POISONED);
    match err {
        SimError::ShardPanicked { shard, message } => {
            assert_eq!(*shard, POISONED);
            assert!(message.contains("poisoned"), "{message}");
        }
        other => panic!("expected ShardPanicked, got {other:?}"),
    }
    assert!(!report.all_completed());

    // The strict merge reports the panic; the salvage keeps the three
    // healthy shards' counters — identical to the same shards of a
    // clean run.
    assert!(matches!(
        report.merged(),
        Err(SimError::ShardPanicked { .. })
    ));
    let clean = DirectorySim::new(Protocol::Basic, &cfg)
        .execute(&busy_trace(), &supervised(None))
        .expect("clean supervised run");
    assert!(clean.all_completed());
    for (id, outcome) in report.outcomes().iter().enumerate() {
        if id as u32 == POISONED {
            continue;
        }
        assert_eq!(
            outcome.as_ref().expect("surviving shard completed"),
            clean.outcomes()[id].as_ref().unwrap(),
            "shard {id} diverged from the clean run"
        );
    }
    let healthy_refs: u64 = report
        .outcomes()
        .iter()
        .flatten()
        .map(|r| r.events.refs())
        .sum();
    assert!(healthy_refs > 0, "salvage kept survivor work");
    assert_eq!(report.salvaged().events.refs(), healthy_refs);
    assert!(report.salvaged().events.refs() < clean.merged().unwrap().events.refs());
}

#[test]
fn streamed_shard_panic_is_isolated_and_others_salvaged() {
    let _serial = serialize();
    let _guard = PoisonGuard;
    const POISONED: u32 = 2;

    let records: Vec<MemRef> = busy_trace().iter().copied().collect();
    let stream = TraceStream::from_generator(records.len() as u64, move |i| records[i as usize]);
    let cfg = DirectorySimConfig {
        nodes: 4,
        ..DirectorySimConfig::default()
    };
    let sim = DirectorySim::new(Protocol::Basic, &cfg);
    let path = std::env::temp_dir().join(format!("mcc-stream-panic-{}.ckpt", std::process::id()));
    let policy = CheckpointPolicy::new(500, &path);
    let checkpointed = RunSpec {
        shards: SHARDS,
        checkpoint: Some(&policy),
        ..RunSpec::default()
    };
    let clean = sim
        .execute(&stream, &checkpointed)
        .expect("clean streamed run");
    assert!(clean.all_completed());

    hooks::poison_shard(POISONED);
    for (entry, outcome) in [
        (
            "try_run_stream_sharded",
            sim.try_run_stream_sharded(&stream, SHARDS),
        ),
        (
            "run_stream_resumable",
            sim.run_stream_resumable(&stream, SHARDS, &policy),
        ),
    ] {
        match outcome {
            Err(SimError::ShardPanicked { shard, message }) => {
                assert_eq!(shard, POISONED, "{entry}");
                assert!(message.contains("poisoned"), "{entry}: {message}");
            }
            other => panic!("{entry}: expected ShardPanicked, got {other:?}"),
        }
    }
    let report = sim
        .execute(&stream, &checkpointed)
        .expect("sharding is supported for this configuration");
    hooks::clear_poison();

    for (id, outcome) in report.outcomes().iter().enumerate() {
        if id as u32 == POISONED {
            assert!(
                matches!(
                    outcome,
                    Err(SimError::ShardPanicked {
                        shard: POISONED,
                        ..
                    })
                ),
                "{outcome:?}"
            );
            continue;
        }
        assert_eq!(
            outcome.as_ref().expect("surviving shard completed"),
            clean.outcomes()[id].as_ref().unwrap(),
            "shard {id} diverged from the clean run"
        );
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(mcc::core::checkpoint::prev_path(&path)).ok();
}
