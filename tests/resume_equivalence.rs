//! Kill-and-resume equivalence: a run interrupted at *any* record
//! boundary and resumed from its checkpoint must finish with a
//! bit-identical result — for every paper protocol, fault-free and
//! under injected faults, sequential and sharded, in memory and through
//! the serialized on-disk format.

use std::path::PathBuf;

use mcc::cache::{CacheConfig, CacheGeometry};
use mcc::core::{
    Checkpoint, CheckpointPolicy, DirectorySim, DirectorySimConfig, EngineKind, FaultPlan,
    Protocol, RunSpec, SimError, SimResult,
};
use mcc::execsim::{ExecCheckpoint, ExecSim, ExecSimConfig};
use mcc::trace::{Addr, MemRef, NodeId, Trace};
use mcc::workloads::{Workload, WorkloadParams};
use mcc_bench::{try_run_protocol, RunOptions};

/// A small mixed workload: migratory hand-offs, read-shared blocks, and
/// some write bursts — enough to exercise every protocol action while
/// staying cheap to replay from every boundary.
fn small_trace(nodes: u16) -> Trace {
    let mut t = Trace::new();
    for round in 0..6u64 {
        // Migratory counters handed around the machine.
        for obj in 0..8u64 {
            let n = NodeId::new(((round + obj) % u64::from(nodes)) as u16);
            t.push(MemRef::read(n, Addr::new(obj * 64)));
            t.push(MemRef::write(n, Addr::new(obj * 64)));
        }
        // A read-shared table everyone scans.
        for n in 0..nodes {
            t.push(MemRef::read(NodeId::new(n), Addr::new(0x2000 + round * 16)));
        }
        // One producer republishing it.
        t.push(MemRef::write(
            NodeId::new(0),
            Addr::new(0x2000 + round * 16),
        ));
    }
    t
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mcc-resume-{}-{name}", std::process::id()))
}

/// Engine the resume suite runs under: the fast hot path when
/// `MCC_TEST_FAST_ENGINE` is set to a truthy value (the CI matrix runs
/// both), the reference engine otherwise.
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

/// A sequential run of `trace` writing snapshots per `policy`.
fn checkpointed(
    sim: &DirectorySim,
    trace: &Trace,
    policy: &CheckpointPolicy,
) -> Result<SimResult, SimError> {
    let spec = RunSpec {
        checkpoint: Some(policy),
        ..RunSpec::default()
    };
    sim.execute(trace, &spec)?.merged()
}

/// Continues `ck` over `trace`, writing further snapshots per `policy`.
fn resume(
    sim: &DirectorySim,
    trace: &Trace,
    ck: &Checkpoint,
    policy: Option<&CheckpointPolicy>,
) -> Result<SimResult, SimError> {
    let spec = RunSpec {
        shards: ck.shard_count(),
        checkpoint: policy,
        resume: Some(ck),
        ..RunSpec::default()
    };
    sim.execute(trace, &spec)?.merged()
}

#[test]
fn every_boundary_resumes_bit_exactly_under_every_protocol() {
    let trace = small_trace(4);
    let cfg = DirectorySimConfig {
        nodes: 4,
        ..DirectorySimConfig::default()
    };
    for protocol in Protocol::PAPER_SET {
        for faults in [None, Some(FaultPlan::uniform(11, 40_000))] {
            let mut sim = DirectorySim::new(protocol, &cfg).with_engine(test_engine());
            if let Some(plan) = faults {
                sim = sim.with_faults(plan);
            }
            let straight = sim.try_run(&trace).expect("uninterrupted run");
            for cut in 0..=trace.len() as u64 {
                let ck = sim
                    .checkpoint_after(&trace, 1, cut)
                    .expect("prefix replays cleanly");
                // Through the serialized format, so the wire encoding is
                // exercised at every boundary too.
                let mut bytes = Vec::new();
                ck.write_to(&mut bytes).expect("vec write");
                let back = Checkpoint::read_from(&mut &bytes[..]).expect("own bytes read back");
                assert_eq!(back, ck, "{protocol} cut {cut}: roundtrip must be lossless");
                let resumed =
                    resume(&sim, &trace, &back, None).expect("resumed tail replays cleanly");
                assert_eq!(
                    resumed,
                    straight,
                    "{protocol} faults={} cut {cut}",
                    faults.is_some()
                );
            }
        }
    }
}

#[test]
fn sharded_runs_resume_bit_exactly() {
    let trace = small_trace(8);
    let cfg = DirectorySimConfig {
        nodes: 8,
        ..DirectorySimConfig::default()
    };
    for protocol in Protocol::PAPER_SET {
        let sim = DirectorySim::new(protocol, &cfg).with_engine(test_engine());
        let spec = RunSpec {
            shards: 4,
            monitor: true,
            ..RunSpec::default()
        };
        let straight = sim
            .execute(&trace, &spec)
            .and_then(|report| report.merged())
            .expect("sharded run");
        for cut in [0u64, 1, 5, 17, trace.len() as u64 / 2, trace.len() as u64] {
            let ck = sim.checkpoint_after(&trace, 4, cut).expect("prefix");
            let resumed = resume(&sim, &trace, &ck, None).expect("resume");
            assert_eq!(resumed, straight, "{protocol} sharded cut {cut}");
        }
    }
}

#[test]
fn on_disk_checkpoints_roundtrip_and_resume() {
    let trace = small_trace(4);
    let cfg = DirectorySimConfig {
        nodes: 4,
        ..DirectorySimConfig::default()
    };
    let sim = DirectorySim::new(Protocol::Aggressive, &cfg).with_engine(test_engine());
    let straight = sim.try_run(&trace).expect("uninterrupted run");

    // A supervised run leaves a final, complete snapshot behind.
    let path = scratch("final.ckpt");
    let policy = CheckpointPolicy::new(13, &path);
    let supervised = checkpointed(&sim, &trace, &policy).expect("supervised run");
    assert_eq!(supervised, straight);
    let ck = Checkpoint::load(&path).expect("final snapshot loads");
    assert!(ck.is_complete());
    assert_eq!(ck.shards()[0].cursor(), trace.len() as u64);

    // A mid-run snapshot saved to disk resumes to the same result.
    let mid = sim
        .checkpoint_after(&trace, 1, trace.len() as u64 / 3)
        .expect("prefix");
    mid.save(&path).expect("atomic save");
    let reloaded = Checkpoint::load(&path).expect("mid snapshot loads");
    assert!(!reloaded.is_complete());
    let resumed = resume(&sim, &trace, &reloaded, None).expect("resume");
    assert_eq!(resumed, straight);
    std::fs::remove_file(&path).ok();
}

#[test]
fn resumed_runs_keep_checkpointing_at_the_same_boundaries() {
    // Kill a supervised run, resume it with the same policy, and the
    // final snapshot must match the one an uninterrupted supervised run
    // writes: cadence is measured in absolute records, not records
    // since resume.
    let trace = small_trace(4);
    let cfg = DirectorySimConfig {
        nodes: 4,
        ..DirectorySimConfig::default()
    };
    let sim = DirectorySim::new(Protocol::Basic, &cfg).with_engine(test_engine());
    let path = scratch("cadence.ckpt");
    let policy = CheckpointPolicy::new(10, &path);
    let straight = checkpointed(&sim, &trace, &policy).expect("supervised");
    let uninterrupted_final = Checkpoint::load(&path).expect("final snapshot");

    let mid = sim
        .checkpoint_after(&trace, 1, 25)
        .expect("killed at record 25");
    let resumed = resume(&sim, &trace, &mid, Some(&policy)).expect("resume with policy");
    assert_eq!(resumed, straight);
    let resumed_final = Checkpoint::load(&path).expect("final snapshot after resume");
    assert_eq!(resumed_final, uninterrupted_final);
    std::fs::remove_file(&path).ok();
}

#[test]
fn bench_router_runs_checkpointed_and_resumes() {
    // The full CLI path: --checkpoint-every via RunOptions, then
    // --resume from the snapshot the first run left behind. Workload
    // scales clamp to 0.1, so this is a ~2M-record trace; the cadence
    // below keeps it to a handful of snapshots.
    let params = WorkloadParams::new(4).scale(0.1).seed(3);
    let trace = Workload::Mp3d.generate(&params);
    let cfg = DirectorySimConfig {
        nodes: 4,
        ..DirectorySimConfig::default()
    };
    let plain = try_run_protocol(Protocol::Basic, &cfg, &trace, &RunOptions::sequential())
        .expect("plain run");

    let path = scratch("bench.ckpt");
    let opts = RunOptions {
        checkpoint: Some(CheckpointPolicy::new(500_000, &path)),
        ..RunOptions::default()
    };
    let supervised =
        try_run_protocol(Protocol::Basic, &cfg, &trace, &opts).expect("supervised run");
    assert_eq!(supervised, plain);

    // "Kill" mid-run: take a mid-run snapshot, overwrite the file with
    // it, and resume through the router.
    let sim = DirectorySim::new(Protocol::Basic, &cfg);
    sim.checkpoint_after(&trace, 1, trace.len() as u64 / 2)
        .expect("prefix")
        .save(&path)
        .expect("save");
    let resume_opts = RunOptions {
        resume: Some(path.clone()),
        ..RunOptions::default()
    };
    let resumed =
        try_run_protocol(Protocol::Basic, &cfg, &trace, &resume_opts).expect("resumed run");
    assert_eq!(resumed, plain);
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpoints_cross_engines_bit_exactly() {
    // Snapshots carry no engine identity: a checkpoint captured under
    // one engine must resume under the other to the identical final
    // result, in both directions, at several boundaries, with infinite
    // caches and through one four-way set per node, whose snapshot
    // carries the LRU order the next eviction follows.
    let trace = small_trace(4);
    let four_ways = CacheGeometry::new(64, mcc::trace::BlockSize::B16, 4).expect("one set");
    for cache in [CacheConfig::Infinite, CacheConfig::Finite(four_ways)] {
        let cfg = DirectorySimConfig {
            nodes: 4,
            cache,
            ..DirectorySimConfig::default()
        };
        for protocol in Protocol::PAPER_SET {
            let reference = DirectorySim::new(protocol, &cfg).with_engine(EngineKind::Reference);
            let fast = DirectorySim::new(protocol, &cfg).with_engine(EngineKind::Fast);
            let straight = reference.try_run(&trace).expect("reference run");
            assert_eq!(
                straight,
                fast.try_run(&trace).expect("fast run"),
                "{protocol} {cache:?}: engines disagree before any checkpointing"
            );
            if cache != CacheConfig::Infinite {
                assert!(straight.events.writebacks > 0, "{protocol}: no eviction");
            }
            for cut in [0u64, 1, 7, trace.len() as u64 / 2, trace.len() as u64] {
                for (capture, resumer) in [(&reference, &fast), (&fast, &reference)] {
                    let ck = capture.checkpoint_after(&trace, 1, cut).expect("prefix");
                    let resumed = resume(resumer, &trace, &ck, None).expect("resume");
                    assert_eq!(
                        resumed,
                        straight,
                        "{protocol} {cache:?} cut {cut}: checkpoint under {:?} did not \
                         resume under {:?}",
                        capture.engine_kind(),
                        resumer.engine_kind(),
                    );
                }
            }
        }
    }
}

#[test]
fn execsim_resume_preserves_stall_cycle_counters() {
    let trace = small_trace(4);
    let cfg = ExecSimConfig {
        nodes: 4,
        stall_shards: 2,
        ..ExecSimConfig::default()
    };
    let sim = ExecSim::new(Protocol::Aggressive, &cfg);
    let straight = sim.try_run(&trace).expect("uninterrupted run");
    assert!(straight.stall_cycles > 0);
    for cut in [1u64, trace.len() as u64 / 2, trace.len() as u64 - 1] {
        let ck = sim.checkpoint_after(&trace, cut).expect("prefix");
        let mut bytes = Vec::new();
        ck.write_to(&mut bytes).expect("vec write");
        let back = ExecCheckpoint::read_from(&mut &bytes[..]).expect("roundtrip");
        let resumed = sim.resume_from(&trace, &back, None).expect("resume");
        assert_eq!(resumed, straight, "cut {cut}");
        assert_eq!(resumed.stall_cycles, straight.stall_cycles);
        assert_eq!(resumed.contention_cycles, straight.contention_cycles);
        assert_eq!(
            resumed.per_shard_stall_cycles,
            straight.per_shard_stall_cycles
        );
    }
}

#[test]
fn telemetry_attached_resume_stays_bit_exact() {
    // The live telemetry plane rides along on resumed runs: attaching
    // a full `TelemetrySink` per shard must leave the resumed result
    // bit-identical to the uninterrupted, unobserved run — while the
    // plane visibly records the restore (a `CheckpointLoaded` event
    // per resumed shard).
    use mcc::obs::{metrics::names, shared, Telemetry, TelemetrySink};

    let trace = small_trace(4);
    let cfg = DirectorySimConfig {
        nodes: 4,
        ..DirectorySimConfig::default()
    };
    for protocol in [Protocol::Basic, Protocol::Aggressive] {
        let sim = DirectorySim::new(protocol, &cfg).with_engine(test_engine());
        let straight = sim.try_run(&trace).expect("uninterrupted run");
        for shards in [1usize, 4] {
            // Cut well inside the trace so every shard has a tail to
            // replay under observation.
            let cut = trace.len() as u64 / (2 * shards as u64);
            let ck = sim
                .checkpoint_after(&trace, shards, cut)
                .expect("prefix replays cleanly");
            let plane = Telemetry::new();
            let sinks: Vec<_> = (0..shards)
                .map(|_| shared(TelemetrySink::new(&plane)).1)
                .collect();
            let spec = RunSpec {
                shards,
                sinks: Some(&sinks),
                resume: Some(&ck),
                ..RunSpec::default()
            };
            let resumed = sim
                .execute(&trace, &spec)
                .and_then(|report| report.merged())
                .expect("instrumented resume");
            assert_eq!(
                resumed, straight,
                "{protocol} K={shards}: a telemetry sink perturbed the resumed run"
            );
            // The final partial batch publishes when the last sink
            // handle drops.
            drop(sinks);
            let snapshot = plane.snapshot();
            assert_eq!(
                snapshot.counter(names::CHECKPOINT_LOADS),
                shards as u64,
                "{protocol} K={shards}: the plane missed the checkpoint restores"
            );
            assert!(
                snapshot.counter(names::RECORDS) > 0,
                "{protocol} K={shards}: the plane observed no records"
            );
        }
    }
}
