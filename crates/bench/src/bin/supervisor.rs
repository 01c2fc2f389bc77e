//! Crash-safe sweep supervisor: runs a manifest of simulation cells,
//! checkpointing as it goes, and skips already-completed cells when
//! restarted — so a sweep that takes hours survives being killed at any
//! point and never repeats finished work.
//!
//! The manifest is a text file with one cell per line:
//!
//! ```text
//! # protocol workload [fault_ppm]
//! conventional mp3d
//! aggressive water
//! basic cholesky 20000
//! custom=0,3,1,0 water
//! ```
//!
//! A protocol is named as `modelcheck --protocol` takes it: one of the
//! five named protocols, or a custom point as `custom=i,e,r,d` or its
//! `custom-i*-e*-r*-d*` slug.
//!
//! For each cell the supervisor keeps two files in the state directory:
//! `<cell>.ckpt`, the crash-safe in-flight snapshot (rewritten every
//! `--checkpoint-every` records and deleted on completion), and
//! `<cell>.result`, the finished counters in `key value` lines. A cell
//! with a `.result` file is skipped on restart; a cell with only a
//! `.ckpt` resumes from the snapshot and replays just the unprocessed
//! tail. A snapshot that fails to load or no longer matches the cell
//! (different flags, edited manifest) degrades gracefully: the
//! supervisor says so, discards it, and reruns the cell from scratch.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mcc_bench::args::Flags;
use mcc_bench::{try_run_protocol_traced, ObsOptions, RunOptions};
use mcc_check::{parse_protocol, protocol_slug};
use mcc_core::checkpoint::{commit_tmp, prev_path, stage_tmp, tmp_path};
use mcc_core::{
    CheckpointPolicy, DirectorySimConfig, FaultPlan, Protocol, RealStorage, SimError, SimResult,
    SnapshotGeneration,
};
use mcc_obs::{SnapshotWriter, Telemetry, TelemetryServer};
use mcc_stats::kv_lines;
use mcc_workloads::{Workload, WorkloadParams};

const BIN: &str = "supervisor";

struct Args {
    manifest: PathBuf,
    state: PathBuf,
    nodes: u16,
    scale: f64,
    seed: u64,
    shards: usize,
    every: u64,
    events_ring: usize,
    obs: bool,
    telemetry: Option<String>,
}

/// The sweep's live telemetry: cell progress a watcher (`mcc-top`, or
/// a bare `curl`) can scrape mid-sweep, plus periodic
/// `sweep.telemetry.jsonl` snapshots in the state directory.
struct SweepTelemetry {
    _server: TelemetryServer,
    writer: Option<SnapshotWriter>,
    completed: Arc<AtomicU64>,
    failed: Arc<AtomicU64>,
    skipped: Arc<AtomicU64>,
    cell_index: Arc<AtomicI64>,
    cells_total: Arc<AtomicI64>,
}

impl SweepTelemetry {
    fn start(addr: &str, state: &Path, total: usize) -> SweepTelemetry {
        let plane = Arc::new(Telemetry::new());
        let server = TelemetryServer::serve(Arc::clone(&plane), addr).unwrap_or_else(|e| {
            eprintln!("{BIN}: telemetry endpoint {addr}: {e}");
            exit(2);
        });
        eprintln!(
            "{BIN}: telemetry endpoint at http://{}/metrics",
            server.addr()
        );
        let snap_path = state.join("sweep.telemetry.jsonl");
        let writer =
            match SnapshotWriter::start(Arc::clone(&plane), &snap_path, Duration::from_millis(500))
            {
                Ok(w) => Some(w),
                Err(e) => {
                    eprintln!("{BIN}: telemetry snapshots {}: {e}", snap_path.display());
                    None
                }
            };
        let tele = SweepTelemetry {
            _server: server,
            writer,
            completed: plane.counter("sweep.cells_completed"),
            failed: plane.counter("sweep.cells_failed"),
            skipped: plane.counter("sweep.cells_skipped"),
            cell_index: plane.gauge("sweep.cell_index"),
            cells_total: plane.gauge("sweep.cells_total"),
        };
        tele.cells_total.store(total as i64, Ordering::Relaxed);
        tele
    }

    fn finish(mut self) {
        if let Some(writer) = self.writer.take() {
            let _ = writer.finish();
        }
    }
}

#[derive(Clone, Debug)]
struct Cell {
    protocol: Protocol,
    workload: Workload,
    fault_ppm: u32,
}

impl Cell {
    /// Stable per-cell file stem: `basic-mp3d`, `basic-mp3d-f20000` or
    /// `custom-i0-e3-r1-d0-mp3d`.
    fn key(&self) -> String {
        let mut key = format!(
            "{}-{}",
            protocol_slug(self.protocol),
            self.workload.name().to_lowercase().replace(' ', "-")
        );
        if self.fault_ppm > 0 {
            key.push_str(&format!("-f{}", self.fault_ppm));
        }
        key
    }
}

fn main() {
    let args = parse_args();
    let cells = parse_manifest(&args.manifest);
    if cells.is_empty() {
        eprintln!("{BIN}: manifest {} has no cells", args.manifest.display());
        exit(2);
    }
    if let Err(e) = fs::create_dir_all(&args.state) {
        eprintln!("{BIN}: cannot create {}: {e}", args.state.display());
        exit(2);
    }

    let total = cells.len();
    let telemetry = args
        .telemetry
        .as_deref()
        .map(|addr| SweepTelemetry::start(addr, &args.state, total));
    let mut completed = 0usize;
    let mut failed = 0usize;
    for (i, cell) in cells.iter().enumerate() {
        let key = cell.key();
        let result_path = args.state.join(format!("{key}.result"));
        let ckpt_path = args.state.join(format!("{key}.ckpt"));
        if let Some(t) = &telemetry {
            t.cell_index.store((i + 1) as i64, Ordering::Relaxed);
        }
        if result_path.exists() {
            // Say *which* file justified the skip — a restarted sweep
            // that silently skips cells is indistinguishable from one
            // that lost them.
            println!(
                "[{}/{total}] {key}: already complete ({} exists), skipping",
                i + 1,
                result_path.display()
            );
            remove_snapshots(&ckpt_path);
            completed += 1;
            if let Some(t) = &telemetry {
                t.skipped.fetch_add(1, Ordering::Relaxed);
                t.completed.fetch_add(1, Ordering::Relaxed);
            }
            continue;
        }
        // Per-cell heartbeat: what is running right now and from where,
        // so a watcher of a long sweep always knows where it is.
        if ckpt_path.exists() {
            println!(
                "[{}/{total}] {key}: running (resuming from snapshot {})",
                i + 1,
                ckpt_path.display()
            );
        } else {
            println!("[{}/{total}] {key}: running (fresh)", i + 1);
        }
        let started = std::time::Instant::now();
        match run_cell(&args, cell, &ckpt_path) {
            Ok((result, recovered_from)) => {
                if let Err(e) = write_result(&result_path, cell, &result, recovered_from) {
                    eprintln!("{BIN}: writing {}: {e}", result_path.display());
                    failed += 1;
                    if let Some(t) = &telemetry {
                        t.failed.fetch_add(1, Ordering::Relaxed);
                    }
                    continue;
                }
                remove_snapshots(&ckpt_path);
                println!(
                    "[{}/{total}] {key}: done in {:.1}s ({} messages over {} references)",
                    i + 1,
                    started.elapsed().as_secs_f64(),
                    result.total_messages(),
                    result.events.refs()
                );
                completed += 1;
                if let Some(t) = &telemetry {
                    t.completed.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) => {
                eprintln!("[{}/{total}] {key}: FAILED: {e}", i + 1);
                failed += 1;
                if let Some(t) = &telemetry {
                    t.failed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    if let Some(t) = telemetry {
        t.finish();
    }
    println!("{completed}/{total} cells complete, {failed} failed");
    exit(i32::from(failed > 0));
}

/// Removes a completed cell's snapshot files: the snapshot, its rotated
/// previous generation and a staged copy a kill left behind. The
/// `.result` file is the completion marker restarts key off, so they
/// are redundant once it exists; a kill between committing it and this
/// removal leaves them for the restart's skip to remove.
fn remove_snapshots(ckpt_path: &Path) {
    for stale in [
        ckpt_path.to_path_buf(),
        prev_path(ckpt_path),
        tmp_path(ckpt_path),
    ] {
        fs::remove_file(stale).ok();
    }
}

/// Runs one cell, resuming from its snapshot when one exists. A
/// snapshot the run rejects (corrupt, or taken under different flags)
/// first falls back to its rotated `.prev` generation inside the
/// loader; when both generations are unusable the cell reruns from
/// scratch with a notice naming the error class and whether the
/// rotated generation was tried — supervision must degrade, not wedge.
/// Returns the result plus which snapshot generation the cell actually
/// recovered from (`None` = ran fresh), recorded in its `.result`.
fn run_cell(
    args: &Args,
    cell: &Cell,
    ckpt_path: &Path,
) -> Result<(SimResult, Option<SnapshotGeneration>), SimError> {
    let cfg = DirectorySimConfig {
        nodes: args.nodes,
        ..DirectorySimConfig::default()
    };
    let faults = (cell.fault_ppm > 0).then(|| FaultPlan::uniform(args.seed, cell.fault_ppm));
    let params = WorkloadParams::new(args.nodes)
        .scale(args.scale)
        .seed(args.seed);
    let trace = cell.workload.generate(&params);
    let policy = CheckpointPolicy::new(args.every, ckpt_path);
    let fresh = RunOptions {
        shards: args.shards,
        checkpoint: Some(policy.clone()),
        resume: None,
        faults,
        // With --obs set, each cell leaves its event stream and metrics
        // registry next to its .result file; with --events-ring set, a
        // failing cell renders the flight recorder (last-K events + the
        // offending block's classification timeline) onto stderr.
        obs: ObsOptions {
            events_out: args
                .obs
                .then(|| args.state.join(format!("{}.events.jsonl", cell.key()))),
            metrics_out: args
                .obs
                .then(|| args.state.join(format!("{}.metrics.json", cell.key()))),
            events_ring: args.events_ring,
        },
    };
    if !ckpt_path.exists() {
        return try_run_protocol_traced(cell.protocol, &cfg, &trace, &fresh);
    }
    let resume = RunOptions {
        resume: Some(ckpt_path.to_path_buf()),
        ..fresh.clone()
    };
    match try_run_protocol_traced(cell.protocol, &cfg, &trace, &resume) {
        Err(SimError::BadCheckpoint { reason }) => {
            eprintln!(
                "{BIN}: {}: snapshot unusable ({reason}); rerunning the cell from scratch",
                cell.key()
            );
            fs::remove_file(ckpt_path).ok();
            try_run_protocol_traced(cell.protocol, &cfg, &trace, &fresh)
        }
        other => other,
    }
}

/// Writes the cell's counters through the crash-ordered write (fsynced
/// temp file, rename, fsynced directory), so neither a kill nor a power
/// cut can fabricate a completed cell: the file is the completion
/// marker a restart skips on, and it is durable before the cell's
/// checkpoint is removed.
fn write_result(
    path: &Path,
    cell: &Cell,
    result: &SimResult,
    recovered_from: Option<SnapshotGeneration>,
) -> std::io::Result<()> {
    let c = result.message_count();
    let recovered_from = recovered_from.map_or_else(|| "fresh".to_string(), |g| g.to_string());
    let body = kv_lines([
        ("protocol", protocol_slug(cell.protocol)),
        ("workload", cell.workload.name().to_string()),
        ("fault_ppm", cell.fault_ppm.to_string()),
        ("references", result.events.refs().to_string()),
        ("messages_control", c.control.to_string()),
        ("messages_data", c.data.to_string()),
        ("messages_total", result.total_messages().to_string()),
        ("migrations", result.events.migrations.to_string()),
        ("invalidations", result.events.invalidations.to_string()),
        ("recovered_from", recovered_from),
    ]);
    let tmp = stage_tmp(&RealStorage, path, body.as_bytes())?;
    commit_tmp(&RealStorage, &tmp, path)
}

fn parse_manifest(path: &Path) -> Vec<Cell> {
    let text = fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("{BIN}: cannot read manifest {}: {e}", path.display());
        exit(2);
    });
    let mut cells = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let bad = |what: &str| -> ! {
            eprintln!(
                "{BIN}: manifest line {}: {what} (expected: <protocol> <workload> [fault_ppm])",
                lineno + 1
            );
            exit(2);
        };
        let protocol =
            parse_protocol(fields.next().unwrap_or_default()).unwrap_or_else(|e| bad(&e));
        let workload = match fields.next().map(str::parse::<Workload>) {
            Some(Ok(w)) => w,
            _ => bad("unknown workload"),
        };
        let fault_ppm = match fields.next() {
            None => 0,
            Some(raw) => match raw.parse() {
                Ok(ppm) => ppm,
                Err(_) => bad("invalid fault_ppm"),
            },
        };
        if fields.next().is_some() {
            bad("trailing fields");
        }
        cells.push(Cell {
            protocol,
            workload,
            fault_ppm,
        });
    }
    cells
}

fn parse_args() -> Args {
    let mut manifest = None;
    let mut state = None;
    let mut nodes = 16u16;
    let mut scale = mcc_bench::DEFAULT_SCALE;
    let mut seed = 0u64;
    let mut shards = 1usize;
    let mut every = 10_000u64;
    let mut events_ring = 0usize;
    let mut obs = false;
    let mut telemetry = None;
    let mut flags = Flags::from_env(BIN);
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--manifest" => manifest = Some(flags.value()),
            "--state" => state = Some(flags.value()),
            "--nodes" => nodes = flags.value(),
            "--scale" => scale = flags.value(),
            "--seed" => seed = flags.value(),
            "--shards" => shards = flags.value(),
            "--checkpoint-every" => every = flags.value(),
            "--events-ring" => events_ring = flags.value(),
            "--obs" => obs = true,
            "--telemetry" => telemetry = Some(flags.value()),
            "--help" | "-h" => {
                println!(
                    "{BIN} — crash-safe sweep supervisor\n\n\
                     Usage: {BIN} --manifest FILE --state DIR [--nodes N] [--scale X] \
                     [--seed N] [--shards K] [--checkpoint-every N] [--events-ring K] [--obs] \
                     [--telemetry ADDR]\n\
                     \n  --manifest FILE       sweep cells, one '<protocol> <workload> [fault_ppm]' per line\
                     \n                        (protocol: a named one, custom=i,e,r,d or its slug)\
                     \n  --state DIR           where per-cell .ckpt/.result files live\
                     \n  --nodes N             simulated machine size (default 16)\
                     \n  --scale X             workload work multiplier (default {})\
                     \n  --seed N              workload RNG seed (default 0)\
                     \n  --shards K            address shards for the parallel engine (default 1)\
                     \n  --checkpoint-every N  snapshot cadence in records (default 10000)\
                     \n  --events-ring K       keep the last K protocol events per cell and dump\
                     \n                        them (flight recorder) when a cell fails\
                     \n  --obs                 write per-cell <cell>.events.jsonl and\
                     \n                        <cell>.metrics.json into the state directory\
                     \n  --telemetry ADDR      serve sweep progress over HTTP at ADDR (port 0 =\
                     \n                        any free port) and append sweep.telemetry.jsonl\
                     \n                        snapshots into the state directory",
                    mcc_bench::DEFAULT_SCALE
                );
                exit(0);
            }
            _ => flags.unknown(),
        }
    }
    let (Some(manifest), Some(state)) = (manifest, state) else {
        flags.fail("--manifest and --state are required");
    };
    Args {
        manifest,
        state,
        nodes,
        scale,
        seed,
        shards,
        every,
        events_ring,
        obs,
        telemetry,
    }
}
