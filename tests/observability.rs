//! Observability contract tests.
//!
//! The central guarantee: sinks are *inert*. Attaching any sink to any
//! engine must leave every simulation counter bit-identical to an
//! un-instrumented run, because events are derived observations and no
//! protocol decision reads a sink. On top of that, the captured stream
//! must be faithful enough to reproduce the run's counters, the sharded
//! streams must carry their framing, the per-shard fault streams must
//! not depend on the shard count, and a dying run must leave a usable
//! flight-recorder dump naming the offending block.

use mcc::core::{
    DirectorySim, DirectorySimConfig, FaultPlan, FaultRates, Protocol, RunSpec, SimError, SimResult,
};
use mcc::obs::{
    lock_sink, shared, BufferSink, Event, FlightRecorder, MetricsRecorder, Registry, RingSink,
    SharedSink,
};
use mcc::trace::{shard_of_block, Addr, BlockSize, MemRef, NodeId, Trace};
use mcc_bench::obs::{flight_dump, write_events_jsonl};
use mcc_bench::{try_run_protocol, ObsOptions, RunOptions};
use mcc_prng::SplitMix64;

const NODES: u16 = 8;

fn config() -> DirectorySimConfig {
    DirectorySimConfig {
        nodes: NODES,
        ..DirectorySimConfig::default()
    }
}

/// A workload mixing migratory hand-offs, read-shared data, and private
/// blocks (the same shape the fault-resilience suite uses).
fn mixed_trace(seed: u64) -> Trace {
    let mut rng = SplitMix64::new(seed);
    let mut trace = Trace::new();
    for round in 0..2_000u64 {
        let node = NodeId::new(rng.gen_range(0..NODES as u64) as u16);
        match rng.gen_range(0..10) {
            0..=3 => {
                let block = Addr::new(rng.gen_range(0..8) * 16);
                trace.push(MemRef::read(node, block));
                trace.push(MemRef::write(node, block));
            }
            4..=6 => {
                let block = Addr::new(0x1000 + rng.gen_range(0..16) * 16);
                trace.push(MemRef::read(node, block));
            }
            7..=8 => {
                let block = Addr::new(0x2000 + (node.index() as u64) * 64);
                trace.push(MemRef::write(node, block));
            }
            _ => {
                let block = Addr::new(0x10000 + round * 16);
                trace.push(MemRef::read(node, block));
            }
        }
    }
    trace
}

fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mcc-obs-{}-{name}", std::process::id()))
}

/// `sim`'s monitored sequential run with `sink` attached.
fn observed(sim: &DirectorySim, trace: &Trace, sink: SharedSink) -> Result<SimResult, SimError> {
    let spec = RunSpec {
        sinks: Some(std::slice::from_ref(&sink)),
        monitor: true,
        ..RunSpec::default()
    };
    sim.execute(trace, &spec)?.merged()
}

/// `sim`'s monitored sharded run, one shard per entry of `sinks`.
fn observed_sharded(
    sim: &DirectorySim,
    trace: &Trace,
    sinks: &[SharedSink],
) -> Result<SimResult, SimError> {
    let spec = RunSpec {
        shards: sinks.len(),
        sinks: Some(sinks),
        monitor: true,
        ..RunSpec::default()
    };
    sim.execute(trace, &spec)?.merged()
}

#[test]
fn attached_sinks_never_perturb_results() {
    let trace = mixed_trace(0x0B5E);
    let cfg = config();
    for protocol in Protocol::PAPER_SET {
        let sim = DirectorySim::new(protocol, &cfg);
        let bare = sim.try_run(&trace).expect("bare run");

        let (ring, ring_handle) = shared(RingSink::new(64));
        let ringed = observed(&sim, &trace, ring_handle).expect("ring run");
        assert_eq!(ringed, bare, "{protocol}: a ring sink changed the result");
        assert!(
            lock_sink(&ring).total_seen() >= trace.len() as u64,
            "{protocol}: ring saw fewer events than references"
        );

        let (_buf, buf_handle) = shared(BufferSink::new());
        let buffered = observed(&sim, &trace, buf_handle).expect("buffer run");
        assert_eq!(
            buffered, bare,
            "{protocol}: a buffer sink changed the result"
        );

        let shards = 4;
        let sinks: Vec<_> = (0..shards).map(|_| shared(BufferSink::new())).collect();
        let handles: Vec<_> = sinks.iter().map(|(_, h)| h.clone()).collect();
        let sharded = observed_sharded(&sim, &trace, &handles).expect("sharded observed run");
        assert_eq!(
            sharded, bare,
            "{protocol}: per-shard sinks changed the sharded result"
        );
    }
}

#[test]
fn sharded_streams_carry_shard_framing_and_reproduce_counters() {
    let trace = mixed_trace(0xF7A3);
    let cfg = config();
    let shards = 4;
    // Basic starts blocks non-migratory, so promotions show up as
    // explicit Promote events (Aggressive pre-grants them at insert).
    let sim = DirectorySim::new(Protocol::Basic, &cfg);
    let sinks: Vec<_> = (0..shards).map(|_| shared(BufferSink::new())).collect();
    let handles: Vec<_> = sinks.iter().map(|(_, h)| h.clone()).collect();
    let result = observed_sharded(&sim, &trace, &handles).expect("sharded run");

    let mut merged: Vec<Event> = Vec::new();
    let mut steps_total = 0usize;
    for (id, (sink, _)) in sinks.iter().enumerate() {
        let events = lock_sink(sink).events().to_vec();
        let steps = events
            .iter()
            .filter(|e| matches!(e, Event::Step { .. }))
            .count();
        steps_total += steps;
        match events.first() {
            Some(&Event::ShardStarted { shard, records }) => {
                assert_eq!(shard as usize, id, "shard framing carries the wrong id");
                assert_eq!(
                    records as usize, steps,
                    "declared sub-trace length is wrong"
                );
            }
            other => panic!("shard {id} stream does not open with ShardStarted: {other:?}"),
        }
        match events.last() {
            Some(&Event::ShardFinished { shard, .. }) => {
                assert_eq!(shard as usize, id);
            }
            other => panic!("shard {id} stream does not close with ShardFinished: {other:?}"),
        }
        merged.extend(events);
    }
    assert_eq!(
        steps_total,
        trace.len(),
        "per-shard Step events must partition the trace exactly"
    );

    // Replaying the merged stream through the metrics recorder must
    // reproduce the run's own counters.
    let registry = MetricsRecorder::replay(merged.iter(), 1_000);
    use mcc::obs::metrics::names;
    assert_eq!(registry.counter(names::RECORDS), trace.len() as u64);
    assert_eq!(
        registry.counter(names::INVALIDATIONS),
        result.events.invalidations
    );
    let messages = result.message_count();
    assert_eq!(registry.counter(names::CONTROL), messages.control);
    assert_eq!(registry.counter(names::DATA), messages.data);
    assert!(
        registry.counter(names::PROMOTES) > 0,
        "no promotions observed"
    );
    assert!(
        !registry.intervals().is_empty(),
        "no interval snapshots cut"
    );
}

#[test]
fn fault_events_ride_the_stream_without_changing_the_run() {
    let trace = mixed_trace(0xFA17);
    let cfg = config();
    let sim = DirectorySim::new(Protocol::Basic, &cfg).with_faults(FaultPlan::uniform(7, 50_000));
    let bare = sim.try_run(&trace).expect("faulted run");
    let (buf, handle) = shared(BufferSink::new());
    let observed = observed(&sim, &trace, handle).expect("observed run");
    assert_eq!(observed, bare, "a sink changed a faulted run");

    let events = lock_sink(&buf).events().to_vec();
    let count = |f: &dyn Fn(&Event) -> bool| events.iter().filter(|e| f(e)).count() as u64;
    assert_eq!(
        count(&|e| matches!(e, Event::Nack { .. })),
        bare.events.nacks,
        "NACK events must match the NACK counter"
    );
    assert_eq!(
        count(&|e| matches!(e, Event::Retry { .. })),
        bare.events.retries,
        "Retry events must match the retry counter"
    );
    let backoff_units: u64 = events
        .iter()
        .filter_map(|e| match e {
            Event::Backoff { units, .. } => Some(*units),
            _ => None,
        })
        .sum();
    assert_eq!(backoff_units, bare.events.backoff_units);
}

/// Satellite: `FaultPlan::for_shard` derives each shard's fault stream
/// from (seed, shard id) alone, so shard 0's event sequence must be
/// identical whether the machine is split 2, 4, or 8 ways. Verified
/// end-to-end: a trace touching only shard-0 blocks produces the exact
/// same shard-0 event stream at every shard count.
#[test]
fn shard_zero_fault_stream_is_independent_of_shard_count() {
    const COUNTS: [usize; 3] = [2, 4, 8];
    let block_size = config().block_size;
    assert_eq!(block_size, BlockSize::B16);
    // Blocks that land in shard 0 under every tested shard count.
    let blocks: Vec<u64> = (0..4096u64)
        .filter(|&i| {
            let b = Addr::new(i * 16).block(block_size);
            COUNTS.iter().all(|&k| shard_of_block(b, k) == 0)
        })
        .take(6)
        .collect();
    assert!(blocks.len() == 6, "not enough all-counts-shard-0 blocks");

    let mut rng = SplitMix64::new(0x5A4D);
    let mut trace = Trace::new();
    for _ in 0..3_000u64 {
        let node = NodeId::new(rng.gen_range(0..NODES as u64) as u16);
        let block = blocks[rng.gen_range(0..blocks.len() as u64) as usize];
        trace.push(MemRef::read(node, Addr::new(block * 16)));
        trace.push(MemRef::write(node, Addr::new(block * 16)));
    }

    let cfg = config();
    let sim = DirectorySim::new(Protocol::Aggressive, &cfg)
        .with_faults(FaultPlan::uniform(0xD1CE, 50_000));
    let mut streams = Vec::new();
    for shards in COUNTS {
        let sinks: Vec<_> = (0..shards).map(|_| shared(BufferSink::new())).collect();
        let handles: Vec<_> = sinks.iter().map(|(_, h)| h.clone()).collect();
        observed_sharded(&sim, &trace, &handles).expect("faulted sharded run");
        let shard0 = lock_sink(&sinks[0].0).events().to_vec();
        // Every reference hits shard 0; the others must stay silent
        // apart from their framing.
        for (id, (sink, _)) in sinks.iter().enumerate().skip(1) {
            assert_eq!(
                lock_sink(sink).len(),
                2,
                "shard {id} of {shards} observed events for blocks it does not own"
            );
        }
        assert!(
            shard0
                .iter()
                .any(|e| matches!(e, Event::Nack { .. } | Event::Retry { .. })),
            "the fault plan never fired at K={shards}"
        );
        streams.push((shards, shard0));
    }
    let (_, reference) = &streams[0];
    for (shards, stream) in &streams[1..] {
        assert_eq!(
            stream, reference,
            "shard 0's event stream changed between K={} and K={shards}",
            streams[0].0
        );
    }
}

/// Acceptance: a faulted run that dies leaves a flight-recorder dump
/// carrying the last-K events and the offending block's classification
/// timeline.
#[test]
fn dying_run_leaves_a_flight_dump_with_the_offending_blocks_timeline() {
    let cfg = config();
    // A lossy-but-not-dead fabric with no retry budget: the run makes
    // real progress (promoting blocks along the way) and then dies on
    // the first dropped request. Everything is seeded, so scanning for
    // a seed whose victim block has classification history is
    // deterministic.
    for seed in 0..32u64 {
        let trace = mixed_trace(0xABAD ^ (seed << 8));
        let plan = FaultPlan {
            request: FaultRates {
                drop_ppm: 2_000,
                ..FaultRates::RELIABLE
            },
            max_retries: 0,
            ..FaultPlan::reliable(seed)
        };
        let sim = DirectorySim::new(Protocol::Aggressive, &cfg).with_faults(plan);
        let (buf, handle) = shared(BufferSink::new());
        let Err(err) = observed(&sim, &trace, handle) else {
            continue;
        };
        let Some(block) = err.block() else {
            panic!("fault-induced error does not name a block: {err}");
        };
        let events = lock_sink(&buf).events().to_vec();
        let recorder = FlightRecorder::replay(events.iter(), 64);
        if recorder.timeline(block.index()).is_empty() {
            continue; // victim had no classification history; next seed
        }
        let dump = flight_dump(&events, 64, &err);
        assert!(dump.contains("run failed"), "dump lacks the error: {dump}");
        assert!(
            dump.contains("flight recorder: last"),
            "dump lacks the last-K ring: {dump}"
        );
        assert!(
            dump.contains(&format!(
                "classification timeline for block {}",
                block.index()
            )),
            "dump lacks the offending block's timeline: {dump}"
        );
        assert!(
            dump.contains("promote") || dump.contains("demote"),
            "timeline carries no flips: {dump}"
        );
        return;
    }
    panic!("no seed produced a fault death on a block with classification history");
}

/// End-to-end through the bench router: `--events-out`/`--metrics-out`
/// artifacts parse cleanly and agree with the run's counters.
#[test]
fn router_artifacts_parse_and_round_trip() {
    let trace = mixed_trace(0xE2E);
    let cfg = config();
    let events_path = scratch("events.jsonl");
    let metrics_path = scratch("metrics.json");
    let opts = RunOptions {
        shards: 2,
        obs: ObsOptions {
            events_out: Some(events_path.clone()),
            metrics_out: Some(metrics_path.clone()),
            events_ring: 0,
        },
        ..RunOptions::default()
    };
    let result =
        try_run_protocol(Protocol::Basic, &cfg, &trace, &opts).expect("observed router run");
    let plain = try_run_protocol(Protocol::Basic, &cfg, &trace, &RunOptions::sharded(2))
        .expect("plain router run");
    assert_eq!(result, plain, "observability changed the router's result");

    // Every JSONL line parses back into an event.
    let text = std::fs::read_to_string(&events_path).expect("events file");
    let mut steps = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let event =
            Event::from_json(line).unwrap_or_else(|e| panic!("line {}: {e}: {line}", lineno + 1));
        if matches!(event, Event::Step { .. }) {
            steps += 1;
        }
    }
    assert_eq!(steps, trace.len(), "JSONL misses references");

    // The metrics JSON parses, round-trips byte-identically, and
    // matches the run.
    let metrics_text = std::fs::read_to_string(&metrics_path).expect("metrics file");
    let registry = Registry::from_json(&metrics_text).expect("metrics JSON parses");
    assert_eq!(registry.to_json(), metrics_text, "metrics JSON round-trip");
    use mcc::obs::metrics::names;
    assert_eq!(registry.counter(names::RECORDS), trace.len() as u64);
    let messages = result.message_count();
    assert_eq!(registry.counter(names::CONTROL), messages.control);
    assert_eq!(registry.counter(names::DATA), messages.data);

    // write_events_jsonl is what the router used; re-exporting the
    // parsed stream must reproduce the file.
    let parsed: Vec<Event> = text.lines().map(|l| Event::from_json(l).unwrap()).collect();
    let reexport = scratch("events2.jsonl");
    write_events_jsonl(&reexport, &parsed).expect("re-export");
    assert_eq!(std::fs::read_to_string(&reexport).unwrap(), text);

    for path in [events_path, metrics_path, reexport] {
        std::fs::remove_file(path).ok();
    }
}
