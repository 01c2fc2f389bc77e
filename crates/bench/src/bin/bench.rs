//! Hot-path throughput benchmark: fast engine vs. reference engine.
//!
//! Drives the same workloads through the reference `DirectoryEngine`
//! and the dense `FastEngine` at several shard counts, reporting
//! refs/sec for every (workload, protocol, engine, shards) cell plus
//! the process's resident memory, and writes the machine-readable
//! summary to `BENCH_hotpath.json` (at the repo root when run from
//! there). Later PRs regenerate the file to track the perf trajectory.
//!
//! Every timed configuration is first checked for bit-exact result
//! equality between the two engines — a fast-but-wrong engine fails
//! loudly before any number is reported.
//!
//! `--min-speedup X` turns the run into a CI gate: exit 1 unless the
//! fast engine reaches `X`× the reference's single-thread refs/sec on
//! every protocol of the migratory workload.
//!
//! Two further gates ride along:
//!
//! * **Tracing overhead** — the FastEngine loop is timed with a
//!   [`NullSink`] attached and again with a live [`TelemetrySink`];
//!   `--max-overhead PCT` (default 3) fails the run when the traced
//!   loop is more than that much slower. This is the observability
//!   plane's hot-path budget.
//! * **Perf trajectory** — every run appends its cells to
//!   `BENCH_trajectory.json` and compares them against the previous
//!   entry with the same fingerprint (host, nodes, scale, samples,
//!   quick); `--max-regression PCT` (default 10) fails on a fast-path
//!   refs/sec drop past the threshold. Entries from other machines or
//!   other workload shapes are skipped, never compared.

use std::process::exit;
use std::time::{SystemTime, UNIX_EPOCH};

use mcc_bench::args::Flags;
use mcc_bench::timing::{
    measure, measure_cpu_block, measure_detailed, resident_memory, run_sharded, thread_cpu_secs,
};
use mcc_core::{AnyEngine, DirectorySim, DirectorySimConfig, Engine, EngineKind, Protocol};
use mcc_obs::{shared, Json, NullSink, Telemetry, TelemetrySink};
use mcc_placement::PagePlacement;
use mcc_trace::Trace;
use mcc_workloads::{
    interleave_streams, GenCtx, MigratoryObjects, ReadMostly, Region, WriteShared,
};

const BIN: &str = "bench";

/// Shard counts benchmarked per configuration (1 = the sequential
/// engine loop; higher counts go through the sharded executor).
const SHARD_COUNTS: [usize; 3] = [1, 4, 8];

/// Thread-CPU seconds accumulated per gate-basis measurement block.
/// The scheduler refreshes CPU accounting at tick granularity
/// (1–4 ms), so a block this long keeps the quantization error of a
/// single reading under ~4%.
const GATE_CPU_BLOCK_SECS: f64 = 0.1;

/// CPU blocks per gate-basis measurement; the minimum is kept. Even
/// on-CPU time wobbles with SMT/cache contention from neighbors, and
/// contention only ever slows a block down, so min-of-N converges on
/// the machine's actual capability.
const GATE_CPU_BLOCKS: usize = 3;

/// Min thread-CPU seconds per iteration over [`GATE_CPU_BLOCKS`]
/// blocks, or `None` where the platform hides CPU time.
fn gate_cpu_secs<T>(mut f: impl FnMut() -> T) -> Option<f64> {
    (0..GATE_CPU_BLOCKS)
        .filter_map(|_| measure_cpu_block(GATE_CPU_BLOCK_SECS, &mut f))
        .min_by(f64::total_cmp)
}

/// Protocol points benchmarked: the conventional baseline, the paper's
/// basic and aggressive adaptive points, and pure migratory.
const PROTOCOLS: [Protocol; 4] = [
    Protocol::Conventional,
    Protocol::Basic,
    Protocol::Aggressive,
    Protocol::PureMigratory,
];

struct Args {
    nodes: u16,
    scale: f64,
    seed: u64,
    samples: usize,
    min_speedup: f64,
    max_overhead: f64,
    max_regression: f64,
    out: String,
    trajectory: Option<String>,
    quick: bool,
}

/// The migratory-heavy fixture (Figure-2-style lock-protected records
/// handed from node to node) — the workload the adaptive protocols and
/// the fast engine are both built for, and the one the CI gate runs.
fn migratory_trace(args: &Args) -> Trace {
    let region = MigratoryObjects {
        base: mcc_trace::Addr::new(0),
        objects: 512,
        object_bytes: 64,
        visits_per_object: ((400.0 * args.scale) as u64).max(1),
        reads_per_visit: 2,
        writes_per_visit: 1,
        burst: 3,
        rotate: false,
        stride: 1,
    };
    let mut ctx = GenCtx::new(args.nodes, args.seed);
    let streams = region.streams(&mut ctx);
    interleave_streams(streams, &mut ctx)
}

/// A mixed workload: migratory records, a read-mostly table, and
/// heavily write-shared words, interleaved — closer to a whole
/// application's reference stream than the pure fixture.
fn mixed_trace(args: &Args) -> Trace {
    let mut ctx = GenCtx::new(args.nodes, args.seed ^ 0x6d_6978_6564);
    let mut streams = MigratoryObjects {
        base: mcc_trace::Addr::new(0),
        objects: 256,
        object_bytes: 64,
        visits_per_object: ((200.0 * args.scale) as u64).max(1),
        reads_per_visit: 2,
        writes_per_visit: 1,
        burst: 3,
        rotate: false,
        stride: 1,
    }
    .streams(&mut ctx);
    streams.extend(
        ReadMostly {
            base: mcc_trace::Addr::new(1 << 24),
            bytes: 1 << 16,
            updates: ((50.0 * args.scale) as u64).max(1),
            writes_per_update: 4,
            read_bursts_per_node: ((100.0 * args.scale) as u64).max(1),
            reads_per_burst: 16,
        }
        .streams(&mut ctx),
    );
    streams.extend(
        WriteShared {
            base: mcc_trace::Addr::new(1 << 25),
            words: 32,
            turns: ((200.0 * args.scale) as u64).max(1),
            readers_per_turn: 3,
        }
        .streams(&mut ctx),
    );
    interleave_streams(streams, &mut ctx)
}

struct Row {
    workload: &'static str,
    protocol: Protocol,
    shards: usize,
    refs: u64,
    reference_rps: u64,
    fast_rps: u64,
    /// Noise-robust fast-path throughput — refs over min *thread-CPU*
    /// seconds where the platform exposes CPU time (Linux), refs over
    /// min wall seconds elsewhere. This is what the trajectory gate
    /// compares across runs: preemption and cgroup throttling stretch
    /// wall time by integer factors but barely move on-CPU time.
    fast_gate_rps: u64,
}

impl Row {
    fn speedup(&self) -> f64 {
        if self.reference_rps == 0 {
            0.0
        } else {
            self.fast_rps as f64 / self.reference_rps as f64
        }
    }
}

/// Times one (workload, protocol, shards) cell under both engines,
/// insisting on bit-exact result equality first.
///
/// Single-shard cells time the engine step loop alone, with page
/// placement resolved once up front — that is the engine-vs-engine
/// number the tentpole claims. Sharded cells time the whole fork/join
/// path (`DirectorySim::execute`: placement resolution, shard threads,
/// merging), which is what a parallel caller actually pays.
fn run_cell(
    workload: &'static str,
    protocol: Protocol,
    shards: usize,
    trace: &Trace,
    args: &Args,
) -> Row {
    let config = DirectorySimConfig {
        nodes: args.nodes,
        ..DirectorySimConfig::default()
    };
    let (ref_secs, fast_timing, fast_cpu_secs) = if shards == 1 {
        // The default config profiles the trace for placement; resolve
        // it once so the timed region is pure engine work.
        let placement = PagePlacement::profiled(trace, args.nodes);
        let run = |kind: EngineKind| {
            let mut engine = AnyEngine::new(kind, protocol, &config, placement.clone());
            for r in trace.iter() {
                engine.step(*r);
            }
            engine.finish()
        };
        let want = run(EngineKind::Reference);
        let got = run(EngineKind::Fast);
        assert_eq!(
            want, got,
            "{workload}/{protocol}/K=1: fast engine diverged; refusing to time a wrong engine"
        );
        (
            measure(args.samples, || run(EngineKind::Reference)),
            measure_detailed(args.samples, || run(EngineKind::Fast)),
            gate_cpu_secs(|| run(EngineKind::Fast)),
        )
    } else {
        let reference = DirectorySim::new(protocol, &config).with_engine(EngineKind::Reference);
        let fast = DirectorySim::new(protocol, &config).with_engine(EngineKind::Fast);
        let want = run_sharded(&reference, trace, shards);
        let got = run_sharded(&fast, trace, shards);
        assert_eq!(
            want, got,
            "{workload}/{protocol}/K={shards}: fast engine diverged; refusing to time a wrong engine"
        );
        (
            measure(args.samples, || run_sharded(&reference, trace, shards)),
            measure_detailed(args.samples, || run_sharded(&fast, trace, shards)),
            // Sharded cells burn their CPU on worker threads, which
            // the calling thread's accounting can't see — their gate
            // basis stays min wall time.
            None,
        )
    };
    let refs = trace.len() as u64;
    let rps = |secs: f64| {
        if secs > 0.0 {
            (refs as f64 / secs) as u64
        } else {
            0
        }
    };
    let row = Row {
        workload,
        protocol,
        shards,
        refs,
        reference_rps: rps(ref_secs),
        fast_rps: rps(fast_timing.wall_median),
        fast_gate_rps: rps(fast_cpu_secs.unwrap_or(fast_timing.wall_min)),
    };
    let name = protocol.to_string();
    eprintln!(
        "{BIN}: {workload:<9} {name:<14} K={shards}  reference {:>12} refs/s  fast {:>12} \
         refs/s  ({:.2}x)",
        row.reference_rps,
        row.fast_rps,
        row.speedup()
    );
    row
}

/// Times the single-thread FastEngine loop on the migratory workload
/// (Basic protocol) twice — once with a `NullSink` attached, once with
/// a live batched `TelemetrySink` — and returns
/// `(null_rps, traced_rps, overhead_pct)`.
///
/// The baseline is a *sink*, not `None`: both loops pay event
/// construction and the shared-sink lock, so the delta isolates what
/// the telemetry plane itself adds (local aggregation plus one atomic
/// publish per batch). Results are asserted bit-exact first — a sink
/// that changed the simulation would be a correctness bug, not an
/// overhead.
fn tracing_overhead(trace: &Trace, args: &Args) -> (u64, u64, f64) {
    let config = DirectorySimConfig {
        nodes: args.nodes,
        ..DirectorySimConfig::default()
    };
    let placement = PagePlacement::profiled(trace, args.nodes);
    let run_with = |sink: mcc_obs::SharedSink| {
        let mut engine = AnyEngine::new(
            EngineKind::Fast,
            Protocol::Basic,
            &config,
            placement.clone(),
        );
        engine.set_sink(Some(sink));
        for r in trace.iter() {
            engine.step(*r);
        }
        engine.finish()
    };
    let plane = Telemetry::new();
    let want = run_with(shared(NullSink).1);
    let got = run_with(shared(TelemetrySink::new(&plane)).1);
    assert_eq!(
        want, got,
        "telemetry sink changed the simulation; refusing to time a non-inert tracer"
    );
    // The per-ref delta being measured is a few nanoseconds on a
    // ~10ms loop, and this can run on hosts whose wall-clock rate
    // swings by integer factors (cgroup throttling, noisy neighbors).
    // So the two sides are timed in interleaved blocks — on *thread
    // CPU* time in ≥0.1s blocks where the platform exposes it, on
    // single-iteration wall time otherwise — and the gate compares
    // each side's *minimum*. Contention only ever inflates a reading
    // (SMT/IPC interference stretches even on-CPU time), never
    // deflates it, so the min of several interleaved blocks is each
    // side's cleanest measurement; a per-pair ratio median, by
    // contrast, is corrupted whenever one burst spans most of the
    // sampling window.
    let cpu_basis = thread_cpu_secs().is_some();
    let samples = if cpu_basis { 7 } else { args.samples.max(31) };
    let mut null_secs = f64::INFINITY;
    let mut traced_secs = f64::INFINITY;
    for _ in 0..samples {
        let null_run = || run_with(shared(NullSink).1);
        let traced_run = || run_with(shared(TelemetrySink::new(&plane)).1);
        let null = measure_cpu_block(GATE_CPU_BLOCK_SECS, null_run)
            .unwrap_or_else(|| measure_detailed(1, null_run).wall_min);
        let traced = measure_cpu_block(GATE_CPU_BLOCK_SECS, traced_run)
            .unwrap_or_else(|| measure_detailed(1, traced_run).wall_min);
        null_secs = null_secs.min(null);
        traced_secs = traced_secs.min(traced);
    }
    let refs = trace.len() as f64;
    let rps = |secs: f64| if secs > 0.0 { (refs / secs) as u64 } else { 0 };
    let overhead_pct = if null_secs > 0.0 && null_secs.is_finite() {
        (traced_secs / null_secs - 1.0) * 100.0
    } else {
        0.0
    };
    (rps(null_secs), rps(traced_secs), overhead_pct)
}

/// Best-effort machine identity for the trajectory fingerprint, so
/// numbers from different machines are never compared.
fn hostname() -> String {
    std::env::var("HOSTNAME")
        .ok()
        .or_else(|| std::fs::read_to_string("/proc/sys/kernel/hostname").ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Re-measures just the fast-path gate throughput of one cell — no
/// reference engine, no parity re-check. The trajectory gate uses this
/// to confirm an apparent regression before failing the run: a real
/// regression reproduces, a multi-second contention burst rarely
/// survives into a second reading minutes of work later.
fn remeasure_gate_rps(row: &Row, trace: &Trace, args: &Args) -> u64 {
    let config = DirectorySimConfig {
        nodes: args.nodes,
        ..DirectorySimConfig::default()
    };
    let refs = trace.len() as f64;
    let rps = |secs: f64| if secs > 0.0 { (refs / secs) as u64 } else { 0 };
    if row.shards == 1 {
        let placement = PagePlacement::profiled(trace, args.nodes);
        let run = || {
            let mut engine =
                AnyEngine::new(EngineKind::Fast, row.protocol, &config, placement.clone());
            for r in trace.iter() {
                engine.step(*r);
            }
            engine.finish()
        };
        rps(gate_cpu_secs(run).unwrap_or_else(|| measure_detailed(args.samples, run).wall_min))
    } else {
        let fast = DirectorySim::new(row.protocol, &config).with_engine(EngineKind::Fast);
        rps(measure_detailed(args.samples, || run_sharded(&fast, trace, row.shards)).wall_min)
    }
}

/// Appends this run to the trajectory file and gates against the
/// previous entry with the same fingerprint. Returns the regression
/// failure message, if any; the entry is appended either way, so the
/// file records the regression itself. Cells that appear regressed get
/// one confirmation re-measure (via `remeasure`) and keep their better
/// reading — both for the gate verdict and for the appended entry, so
/// one noise burst can't ratchet the next run's baseline down.
fn update_trajectory(
    path: &str,
    args: &Args,
    rows: &mut [Row],
    overhead_pct: f64,
    remeasure: impl Fn(&Row) -> u64,
) -> Result<(), String> {
    let fingerprint = |v: &Json| -> (u64, String, u64, bool, String, String) {
        (
            v.get("nodes").and_then(Json::as_u64).unwrap_or(0),
            v.get("scale")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            v.get("samples").and_then(Json::as_u64).unwrap_or(0),
            v.get("quick")
                .map(|q| *q == Json::Bool(true))
                .unwrap_or(false),
            v.get("host")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            v.get("gate_basis")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        )
    };

    let mut entries: Vec<Json> = match std::fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text) {
            Ok(top) => top
                .get("entries")
                .and_then(Json::as_arr)
                .map(|a| a.to_vec())
                .unwrap_or_default(),
            Err(e) => {
                eprintln!("{BIN}: {path} is corrupt ({e}); starting a fresh trajectory");
                Vec::new()
            }
        },
        Err(_) => Vec::new(),
    };

    // The previous comparable entry: same machine, same workload shape.
    let gate_basis = if thread_cpu_secs().is_some() {
        "cpu"
    } else {
        "wall"
    };
    let my_fingerprint = (
        u64::from(args.nodes),
        format!("{}", args.scale),
        args.samples as u64,
        args.quick,
        hostname(),
        gate_basis.to_string(),
    );
    let previous = entries
        .iter()
        .rev()
        .find(|e| fingerprint(e) == my_fingerprint)
        .cloned();

    // Gate throughput of the previous run's matching cell, if any.
    let prev_gate_rps = |prev: &Json, row: &Row| -> Option<u64> {
        prev.get("rows")
            .and_then(Json::as_arr)
            .and_then(|rs| {
                rs.iter().find(|p| {
                    p.get("workload").and_then(Json::as_str) == Some(row.workload)
                        && p.get("protocol").and_then(Json::as_str)
                            == Some(row.protocol.to_string().as_str())
                        && p.get("shards").and_then(Json::as_u64) == Some(row.shards as u64)
                })
            })
            .and_then(|p| p.get("fast_gate_refs_per_sec").and_then(Json::as_u64))
    };

    // Confirmation pass, before anything is written: any cell that
    // appears regressed is re-measured once and keeps its better
    // reading. Host-noise bursts on a shared machine last seconds and
    // hit one measurement window; a real regression is still there on
    // the second look.
    let floor = 1.0 - args.max_regression / 100.0;
    if args.max_regression > 0.0 {
        if let Some(prev) = &previous {
            for row in rows.iter_mut() {
                let Some(before) = prev_gate_rps(prev, row).filter(|&b| b > 0) else {
                    continue;
                };
                if (row.fast_gate_rps as f64) < before as f64 * floor {
                    eprintln!(
                        "{BIN}: {}/{}/K={} gate throughput {} vs {} previously; \
                         re-measuring to confirm",
                        row.workload, row.protocol, row.shards, row.fast_gate_rps, before
                    );
                    let again = remeasure(row);
                    row.fast_gate_rps = row.fast_gate_rps.max(again);
                }
            }
        }
    }

    let unix_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let entry = Json::Obj(vec![
        ("unix_ms".into(), Json::u64(unix_ms)),
        ("host".into(), Json::Str(hostname())),
        ("nodes".into(), Json::u64(u64::from(args.nodes))),
        ("scale".into(), Json::Str(format!("{}", args.scale))),
        ("samples".into(), Json::u64(args.samples as u64)),
        ("quick".into(), Json::Bool(args.quick)),
        ("gate_basis".into(), Json::Str(gate_basis.into())),
        (
            "tracing_overhead_pct".into(),
            Json::Str(format!("{overhead_pct:.2}")),
        ),
        (
            "rows".into(),
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("workload".into(), Json::Str(r.workload.into())),
                            ("protocol".into(), Json::Str(r.protocol.to_string())),
                            ("shards".into(), Json::u64(r.shards as u64)),
                            ("fast_refs_per_sec".into(), Json::u64(r.fast_rps)),
                            ("fast_gate_refs_per_sec".into(), Json::u64(r.fast_gate_rps)),
                            ("reference_refs_per_sec".into(), Json::u64(r.reference_rps)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);

    entries.push(entry);
    let top = Json::Obj(vec![
        ("tool".into(), Json::Str(BIN.into())),
        ("entries".into(), Json::Arr(entries)),
    ]);
    std::fs::write(path, format!("{top}\n")).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("{BIN}: appended run to {path}");

    let Some(prev) = previous else {
        eprintln!("{BIN}: no previous comparable entry in {path}; trajectory gate skipped");
        return Ok(());
    };
    if args.max_regression <= 0.0 {
        return Ok(());
    }
    let mut worst: Option<(String, u64, u64, f64)> = None;
    for row in rows.iter() {
        let Some(prev_rps) = prev_gate_rps(&prev, row).filter(|&b| b > 0) else {
            continue;
        };
        let ratio = row.fast_gate_rps as f64 / prev_rps as f64;
        if worst.as_ref().is_none_or(|(_, _, _, w)| ratio < *w) {
            worst = Some((
                format!("{}/{}/K={}", row.workload, row.protocol, row.shards),
                row.fast_gate_rps,
                prev_rps,
                ratio,
            ));
        }
    }
    if let Some((cell, now, before, ratio)) = worst {
        if ratio < floor {
            return Err(format!(
                "trajectory regression: {cell} fast path at {now} refs/s vs {before} previously \
                 ({:.1}% drop, gate allows {:.1}%)",
                (1.0 - ratio) * 100.0,
                args.max_regression
            ));
        }
        eprintln!(
            "{BIN}: trajectory gate passed: worst cell {cell} at {:.1}% of previous",
            ratio * 100.0
        );
    }
    Ok(())
}

fn main() {
    let args = parse_args();
    let workloads: Vec<(&'static str, Trace)> = vec![
        ("migratory", migratory_trace(&args)),
        ("mixed", mixed_trace(&args)),
    ];
    let shard_counts: &[usize] = if args.quick { &[1] } else { &SHARD_COUNTS };

    let mut rows = Vec::new();
    for (workload, trace) in &workloads {
        eprintln!(
            "{BIN}: {workload}: {} refs over {} nodes",
            trace.len(),
            args.nodes
        );
        for &protocol in &PROTOCOLS {
            for &shards in shard_counts {
                rows.push(run_cell(workload, protocol, shards, trace, &args));
            }
        }
    }

    // Tracing overhead: the observability plane's hot-path budget. A
    // reading over budget gets up to two confirmation passes before it
    // can fail the gate — real overhead reproduces in every window,
    // while a noisy neighbor's burst has to span all three multi-second
    // windows to slip through — and the lowest reading is the one
    // reported.
    let mut overhead = tracing_overhead(&workloads[0].1, &args);
    for _ in 0..2 {
        if args.max_overhead <= 0.0 || overhead.2 <= args.max_overhead {
            break;
        }
        eprintln!(
            "{BIN}: tracing overhead measured at {:+.2}%; re-measuring to confirm",
            overhead.2
        );
        let retry = tracing_overhead(&workloads[0].1, &args);
        if retry.2 < overhead.2 {
            overhead = retry;
        }
    }
    let (null_rps, traced_rps, overhead_pct) = overhead;
    eprintln!(
        "{BIN}: tracing overhead: NullSink {null_rps} refs/s, TelemetrySink {traced_rps} refs/s \
         ({overhead_pct:+.2}%)"
    );

    let (rss, rss_peak) = resident_memory();
    let json_rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("workload".into(), Json::Str(r.workload.into())),
                ("protocol".into(), Json::Str(r.protocol.to_string())),
                ("shards".into(), Json::u64(r.shards as u64)),
                ("refs".into(), Json::u64(r.refs)),
                ("reference_refs_per_sec".into(), Json::u64(r.reference_rps)),
                ("fast_refs_per_sec".into(), Json::u64(r.fast_rps)),
                ("fast_gate_refs_per_sec".into(), Json::u64(r.fast_gate_rps)),
                ("speedup".into(), Json::Str(format!("{:.2}", r.speedup()))),
            ])
        })
        .collect();
    let summary = Json::Obj(vec![
        ("tool".into(), Json::Str(BIN.into())),
        ("nodes".into(), Json::u64(u64::from(args.nodes))),
        ("seed".into(), Json::u64(args.seed)),
        ("scale".into(), Json::Str(format!("{}", args.scale))),
        ("samples".into(), Json::u64(args.samples as u64)),
        ("quick".into(), Json::Bool(args.quick)),
        ("rss_bytes".into(), Json::u64(rss)),
        ("rss_peak_bytes".into(), Json::u64(rss_peak)),
        ("tracing_null_refs_per_sec".into(), Json::u64(null_rps)),
        (
            "tracing_telemetry_refs_per_sec".into(),
            Json::u64(traced_rps),
        ),
        (
            "tracing_overhead_pct".into(),
            Json::Str(format!("{overhead_pct:.2}")),
        ),
        ("rows".into(), Json::Arr(json_rows)),
    ]);
    if let Err(e) = std::fs::write(&args.out, format!("{summary}\n")) {
        eprintln!("{BIN}: cannot write {}: {e}", args.out);
        exit(1);
    }
    eprintln!("{BIN}: wrote {}", args.out);

    if args.min_speedup > 0.0 {
        let gate: Vec<&Row> = rows
            .iter()
            .filter(|r| r.workload == "migratory" && r.shards == 1)
            .collect();
        let worst = gate
            .iter()
            .min_by(|a, b| a.speedup().partial_cmp(&b.speedup()).expect("finite"))
            .expect("the migratory workload always runs at one shard");
        if worst.speedup() < args.min_speedup {
            eprintln!(
                "{BIN}: FAIL: fast engine at {:.2}x reference on {}/{} single-thread, \
                 gate requires {:.2}x",
                worst.speedup(),
                worst.workload,
                worst.protocol,
                args.min_speedup
            );
            exit(1);
        }
        eprintln!(
            "{BIN}: gate passed: worst single-thread migratory speedup {:.2}x >= {:.2}x",
            worst.speedup(),
            args.min_speedup
        );
    }

    if args.max_overhead > 0.0 && overhead_pct > args.max_overhead {
        eprintln!(
            "{BIN}: FAIL: tracing overhead {overhead_pct:.2}% exceeds the {:.1}% budget \
             (NullSink {null_rps} refs/s vs TelemetrySink {traced_rps} refs/s)",
            args.max_overhead
        );
        exit(1);
    }

    if let Some(path) = &args.trajectory {
        let remeasure = |row: &Row| {
            let trace = &workloads
                .iter()
                .find(|(w, _)| *w == row.workload)
                .expect("every row comes from a workload in this run")
                .1;
            remeasure_gate_rps(row, trace, &args)
        };
        if let Err(msg) = update_trajectory(path, &args, &mut rows, overhead_pct, remeasure) {
            eprintln!("{BIN}: FAIL: {msg}");
            exit(1);
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        nodes: 16,
        scale: 1.0,
        seed: 0x5eed_b16b_005e,
        samples: 5,
        min_speedup: 0.0,
        max_overhead: 3.0,
        max_regression: 10.0,
        out: "BENCH_hotpath.json".to_string(),
        trajectory: Some("BENCH_trajectory.json".to_string()),
        quick: false,
    };
    let mut flags = Flags::from_env(BIN);
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--nodes" => args.nodes = flags.value(),
            "--scale" => args.scale = flags.value(),
            "--seed" => args.seed = flags.value(),
            "--samples" => args.samples = flags.value(),
            "--min-speedup" => args.min_speedup = flags.value(),
            "--max-overhead" => args.max_overhead = flags.value(),
            "--max-regression" => args.max_regression = flags.value(),
            "--out" => args.out = flags.value(),
            "--trajectory" => args.trajectory = Some(flags.value()),
            "--no-trajectory" => args.trajectory = None,
            "--quick" => {
                args.quick = true;
                args.scale = 0.25;
                args.samples = 3;
            }
            "--help" | "-h" => {
                println!(
                    "{BIN} — fast-engine vs reference-engine throughput benchmark\n\n\
                     Usage: {BIN} [options]\n\
                     \n  --nodes N        simulated machine size (default 16)\
                     \n  --scale X        workload work multiplier (default 1.0)\
                     \n  --seed N         workload RNG seed (default 0x5eedb16b005e)\
                     \n  --samples N      timed samples per cell, median reported (default 5)\
                     \n  --min-speedup X  exit 1 unless fast >= X times reference refs/sec\
                     \n                   single-thread on the migratory workload (default: off)\
                     \n  --max-overhead P exit 1 when the TelemetrySink-traced FastEngine loop\
                     \n                   is more than P% slower than NullSink (default 3, 0 = off)\
                     \n  --max-regression P  exit 1 when a cell's fast refs/sec drops more than\
                     \n                   P% vs the previous comparable trajectory entry (default 10)\
                     \n  --out PATH       summary path (default BENCH_hotpath.json)\
                     \n  --trajectory PATH  perf-trajectory file (default BENCH_trajectory.json)\
                     \n  --no-trajectory  skip the trajectory append + gate\
                     \n  --quick          CI smoke preset: scale 0.25, 3 samples, 1 shard\n\
                     \nWrites a JSON summary with refs/sec per workload x protocol x shard\
                     \ncount for both engines, plus resident memory (VmRSS/VmHWM), and appends\
                     \nthe run to the trajectory file for cross-run regression tracking."
                );
                exit(0);
            }
            _ => flags.unknown(),
        }
    }
    args
}
