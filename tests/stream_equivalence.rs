//! Out-of-core equivalence: a simulation driven by a [`TraceStream`]
//! — file-backed or generator-backed, sequential or sharded — must be
//! bit-identical to the same simulation over the materialized trace,
//! and a streamed run killed at any record boundary must resume
//! through a **re-opened** stream to the identical result.

use std::path::PathBuf;

use mcc::core::{
    stream_fingerprint, Checkpoint, CheckpointPolicy, DirectorySim, DirectorySimConfig, EngineKind,
    FaultPlan, Protocol, RunSource, RunSpec, SimError, SimResult,
};
use mcc::obs::{lock_sink, shared, BufferSink, Event, SharedSink};
use mcc::trace::{Addr, MemRef, NodeId, Trace, TraceStream};
use mcc::workloads::{Workload, WorkloadParams};

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mcc-stream-{}-{name}", std::process::id()))
}

/// Engine the suite runs under, following the CI matrix convention.
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

/// The same mixed workload the resume suite replays: migratory
/// hand-offs, a read-shared table, a producer republishing it.
fn small_trace(nodes: u16) -> Trace {
    let mut t = Trace::new();
    for round in 0..6u64 {
        for obj in 0..8u64 {
            let n = NodeId::new(((round + obj) % u64::from(nodes)) as u16);
            t.push(MemRef::read(n, Addr::new(obj * 64)));
            t.push(MemRef::write(n, Addr::new(obj * 64)));
        }
        for n in 0..nodes {
            t.push(MemRef::read(NodeId::new(n), Addr::new(0x2000 + round * 16)));
        }
        t.push(MemRef::write(
            NodeId::new(0),
            Addr::new(0x2000 + round * 16),
        ));
    }
    t
}

/// Writes `trace` to a scratch MCCT file and opens it as a stream.
fn file_stream(trace: &Trace, name: &str) -> (TraceStream, PathBuf) {
    let path = scratch(name);
    let bytes = {
        let mut buf = Vec::new();
        trace.write_to(&mut buf).expect("encode trace");
        buf
    };
    std::fs::write(&path, bytes).expect("write trace file");
    let stream = TraceStream::open(&path).expect("open trace stream");
    (stream, path)
}

/// Continues `ck` over `stream`, writing further snapshots per `policy`.
fn resume(
    sim: &DirectorySim,
    stream: &TraceStream,
    ck: &Checkpoint,
    policy: Option<&CheckpointPolicy>,
) -> Result<SimResult, SimError> {
    let spec = RunSpec {
        shards: ck.shard_count(),
        checkpoint: policy,
        resume: Some(ck),
        ..RunSpec::default()
    };
    sim.execute(stream, &spec)?.merged()
}

#[test]
fn file_streams_match_materialized_under_every_protocol() {
    let trace = small_trace(8);
    let (stream, path) = file_stream(&trace, "protocols.mcct");
    let cfg = DirectorySimConfig {
        nodes: 8,
        ..DirectorySimConfig::default()
    };
    for protocol in Protocol::PAPER_SET {
        for faults in [None, Some(FaultPlan::uniform(11, 40_000))] {
            let mut sim = DirectorySim::new(protocol, &cfg).with_engine(test_engine());
            if let Some(plan) = faults {
                sim = sim.with_faults(plan);
            }
            let materialized = sim.try_run(&trace).expect("materialized run");
            let streamed = sim.try_run_stream(&stream).expect("streamed run");
            assert_eq!(
                streamed,
                materialized,
                "{protocol} faults={}",
                faults.is_some()
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn sharded_streams_match_materialized_for_every_k() {
    let params = WorkloadParams::new(8).scale(0.1).seed(17);
    let trace = Workload::Mp3d.generate(&params);
    let (stream, path) = file_stream(&trace, "sharded.mcct");
    let cfg = DirectorySimConfig {
        nodes: 8,
        ..DirectorySimConfig::default()
    };
    let sim = DirectorySim::new(Protocol::Aggressive, &cfg).with_engine(test_engine());
    let reference = sim.try_run(&trace).expect("materialized run");
    for shards in [1usize, 4, 8] {
        assert_eq!(
            sim.try_run_stream_sharded(&stream, shards)
                .expect("streamed sharded run"),
            reference,
            "K = {shards}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn generator_streams_match_their_materialization() {
    // A generator-backed stream (no file at all) is the scale bin's
    // trace source; it must agree with collecting the same generator
    // into memory and running the materialized path.
    let nodes = 16u16;
    let stream = TraceStream::from_generator(20_000, move |i| {
        let node = NodeId::new(((i / 5) % u64::from(nodes)) as u16);
        let obj = i % 96;
        let addr = Addr::new(obj * 64 + (i % 5) * 8);
        if i % 5 == 4 {
            MemRef::write(node, addr)
        } else {
            MemRef::read(node, addr)
        }
    });
    let trace = stream.collect_trace().expect("collect generator");
    let cfg = DirectorySimConfig {
        nodes,
        ..DirectorySimConfig::default()
    };
    for protocol in [Protocol::Conventional, Protocol::Basic] {
        let sim = DirectorySim::new(protocol, &cfg).with_engine(test_engine());
        let materialized = sim.try_run(&trace).expect("materialized run");
        assert_eq!(
            sim.try_run_stream(&stream).expect("streamed run"),
            materialized,
            "{protocol} sequential"
        );
        assert_eq!(
            sim.try_run_stream_sharded(&stream, 4)
                .expect("streamed sharded run"),
            materialized,
            "{protocol} K=4"
        );
    }
}

#[test]
fn every_boundary_resumes_bit_exactly_through_a_reopened_stream() {
    let trace = small_trace(4);
    let (stream, path) = file_stream(&trace, "boundaries.mcct");
    let cfg = DirectorySimConfig {
        nodes: 4,
        ..DirectorySimConfig::default()
    };
    for protocol in Protocol::PAPER_SET {
        let sim = DirectorySim::new(protocol, &cfg).with_engine(test_engine());
        let straight = sim.try_run_stream(&stream).expect("uninterrupted run");
        for cut in 0..=trace.len() as u64 {
            let ck = sim
                .checkpoint_after(&stream, 1, cut)
                .expect("prefix replays cleanly");
            // Through the wire format at every boundary.
            let mut bytes = Vec::new();
            ck.write_to(&mut bytes).expect("vec write");
            let back = Checkpoint::read_from(&mut &bytes[..]).expect("own bytes read back");
            assert_eq!(back, ck, "{protocol} cut {cut}: roundtrip must be lossless");
            // The kill scenario: the original stream is gone; the
            // resumed process re-opens the file fresh.
            let reopened = TraceStream::open(&path).expect("re-open stream");
            let resumed =
                resume(&sim, &reopened, &back, None).expect("resumed tail replays cleanly");
            assert_eq!(resumed, straight, "{protocol} cut {cut}");
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn sharded_stream_runs_resume_bit_exactly() {
    let trace = small_trace(8);
    let (stream, path) = file_stream(&trace, "sharded-resume.mcct");
    let cfg = DirectorySimConfig {
        nodes: 8,
        ..DirectorySimConfig::default()
    };
    for protocol in [Protocol::Basic, Protocol::PureMigratory] {
        for faults in [None, Some(FaultPlan::uniform(7, 40_000))] {
            let mut sim = DirectorySim::new(protocol, &cfg).with_engine(test_engine());
            if let Some(plan) = faults {
                sim = sim.with_faults(plan);
            }
            let straight = sim.try_run_stream_sharded(&stream, 4).expect("sharded run");
            for cut in [0u64, 1, 17, trace.len() as u64 / 2, trace.len() as u64] {
                let ck = sim.checkpoint_after(&stream, 4, cut).expect("prefix");
                let reopened = TraceStream::open(&path).expect("re-open stream");
                let resumed = resume(&sim, &reopened, &ck, None).expect("resume");
                assert_eq!(
                    resumed,
                    straight,
                    "{protocol} faults={} sharded cut {cut}",
                    faults.is_some()
                );
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn streamed_resumable_runs_checkpoint_at_absolute_boundaries() {
    // Kill a streamed supervised run, resume with the same policy, and
    // the final on-disk snapshot must match the uninterrupted run's:
    // cadence is absolute record indices, not records since resume.
    let trace = small_trace(4);
    let (stream, trace_path) = file_stream(&trace, "cadence.mcct");
    let cfg = DirectorySimConfig {
        nodes: 4,
        ..DirectorySimConfig::default()
    };
    let sim = DirectorySim::new(Protocol::Basic, &cfg).with_engine(test_engine());
    let ck_path = scratch("stream-cadence.ckpt");
    let policy = CheckpointPolicy::new(10, &ck_path);
    let straight = sim
        .run_stream_resumable(&stream, 1, &policy)
        .expect("supervised streamed run");
    assert_eq!(straight, sim.try_run(&trace).expect("materialized run"));
    let uninterrupted_final = Checkpoint::load(&ck_path).expect("final snapshot");
    assert!(uninterrupted_final.is_complete());
    assert_eq!(uninterrupted_final.total_records(), trace.len() as u64);

    let mid = sim
        .checkpoint_after(&stream, 1, 25)
        .expect("killed at record 25");
    mid.save(&ck_path).expect("atomic save");
    let reloaded = Checkpoint::load(&ck_path).expect("mid snapshot loads");
    assert!(!reloaded.is_complete());
    let reopened = TraceStream::open(&trace_path).expect("re-open stream");
    let resumed = resume(&sim, &reopened, &reloaded, Some(&policy)).expect("resume with policy");
    assert_eq!(resumed, straight);
    let resumed_final = Checkpoint::load(&ck_path).expect("final snapshot after resume");
    assert_eq!(resumed_final, uninterrupted_final);
    std::fs::remove_file(&ck_path).ok();
    std::fs::remove_file(&trace_path).ok();
}

#[test]
fn stream_checkpoints_cross_engines_bit_exactly() {
    let trace = small_trace(4);
    let (stream, path) = file_stream(&trace, "cross-engine.mcct");
    let cfg = DirectorySimConfig {
        nodes: 4,
        ..DirectorySimConfig::default()
    };
    for protocol in Protocol::PAPER_SET {
        let reference = DirectorySim::new(protocol, &cfg).with_engine(EngineKind::Reference);
        let fast = DirectorySim::new(protocol, &cfg).with_engine(EngineKind::Fast);
        let straight = reference.try_run_stream(&stream).expect("reference run");
        for cut in [0u64, 7, trace.len() as u64 / 2] {
            for (capture, resumer) in [(&reference, &fast), (&fast, &reference)] {
                let ck = capture.checkpoint_after(&stream, 1, cut).expect("prefix");
                let resumed = resume(resumer, &stream, &ck, None).expect("resume");
                assert_eq!(resumed, straight, "{protocol} cut {cut}");
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_grown_trace_file_is_rejected_on_resume() {
    // The probe fingerprint must catch the classic operational mistake:
    // the trace file was appended to (or regenerated differently)
    // between the kill and the resume.
    let trace = small_trace(4);
    let (stream, path) = file_stream(&trace, "grown.mcct");
    let cfg = DirectorySimConfig {
        nodes: 4,
        ..DirectorySimConfig::default()
    };
    let sim = DirectorySim::new(Protocol::Basic, &cfg);
    let ck = sim.checkpoint_after(&stream, 1, 20).expect("prefix");
    drop(stream);

    // Re-write the file with one extra record.
    let mut grown = trace.clone();
    grown.push(MemRef::write(NodeId::new(0), Addr::new(0x9999 * 16)));
    let mut buf = Vec::new();
    grown.write_to(&mut buf).expect("encode grown trace");
    std::fs::write(&path, buf).expect("rewrite trace file");

    let reopened = TraceStream::open(&path).expect("re-open grown stream");
    let err = resume(&sim, &reopened, &ck, None).expect_err("grown trace must be rejected");
    assert!(matches!(err, SimError::BadCheckpoint { .. }), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn fingerprints_are_stable_across_sources_and_filters() {
    // The same records must fingerprint identically whether they come
    // from a file or a generator, filtered or not — identity belongs to
    // the trace, not the transport.
    let trace = small_trace(4);
    let (file, path) = file_stream(&trace, "fingerprint.mcct");
    let refs: Vec<MemRef> = trace.iter().copied().collect();
    let generator = TraceStream::from_generator(refs.len() as u64, move |i| refs[i as usize]);
    let ff = stream_fingerprint(&file).expect("file fingerprint");
    assert_eq!(
        ff,
        stream_fingerprint(&generator).expect("generator fingerprint")
    );
    let cfg = DirectorySimConfig::default();
    let filtered = file.clone().with_shard_filter(cfg.block_size, 1, 4);
    assert_eq!(ff, stream_fingerprint(&filtered).expect("filtered"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn streamed_shards_emit_the_materialized_event_streams() {
    // Sinks are part of the one pipeline: a streamed sharded run —
    // checkpointing and under faults — must hand every shard's sink the
    // exact event stream the same records produce materialized, from
    // the `ShardStarted` framing through every `CheckpointSaved`.
    let trace = small_trace(8);
    let (stream, path) = file_stream(&trace, "sinks.mcct");
    let cfg = DirectorySimConfig {
        nodes: 8,
        ..DirectorySimConfig::default()
    };
    let sim = DirectorySim::new(Protocol::Basic, &cfg)
        .with_engine(test_engine())
        .with_faults(FaultPlan::uniform(7, 40_000));
    let shards = 4;
    let observe = |source: RunSource<'_>, name: &str| -> (SimResult, Vec<Vec<Event>>) {
        let ck_path = scratch(name);
        let policy = CheckpointPolicy::new(16, &ck_path);
        let sinks: Vec<_> = (0..shards).map(|_| shared(BufferSink::new())).collect();
        let handles: Vec<SharedSink> = sinks.iter().map(|(_, h)| h.clone()).collect();
        let spec = RunSpec {
            shards,
            sinks: Some(&handles),
            checkpoint: Some(&policy),
            ..RunSpec::default()
        };
        let result = sim
            .execute(source, &spec)
            .and_then(|report| report.merged())
            .expect("observed run");
        std::fs::remove_file(&ck_path).ok();
        std::fs::remove_file(scratch(&format!("{name}.prev"))).ok();
        let events = sinks
            .iter()
            .map(|(sink, _)| lock_sink(sink).events().to_vec())
            .collect();
        (result, events)
    };
    let (materialized, want) = observe(RunSource::from(&trace), "sinks-trace.ckpt");
    let (streamed, got) = observe(RunSource::from(&stream), "sinks-stream.ckpt");
    assert_eq!(streamed, materialized);
    for (id, (want, got)) in want.iter().zip(&got).enumerate() {
        assert!(
            matches!(want.first(), Some(Event::ShardStarted { .. })),
            "shard {id} is not framed"
        );
        assert!(
            want.iter()
                .any(|e| matches!(e, Event::CheckpointSaved { .. })),
            "shard {id} saved no checkpoint"
        );
        assert_eq!(got, want, "shard {id}: streamed events diverged");
    }
    std::fs::remove_file(&path).ok();
}
