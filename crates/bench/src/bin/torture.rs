//! Kill-at-every-I/O storage torture harness.
//!
//! For each scenario the harness first runs it once on a fault-free
//! [`ChaosStorage`] to count the scenario's I/O ops and capture the
//! reference result, then re-runs it once per op index with a
//! simulated power cut at exactly that op, restarts from whatever the
//! cut left durable, and asserts the restarted run reaches the
//! reference result bit-exactly (or degrades through an explicitly
//! reported path — never silently).
//!
//! Scenarios:
//!
//! * **sequential** — a checkpointed single-shard simulation
//!   ([`DirectorySim::execute`] with a [`CheckpointPolicy`]) over a
//!   materialized migratory trace. A machine-scope kill collapses every
//!   file to its durable image; the restart loads the snapshot with
//!   last-good `.prev` fallback (or reruns fresh when the cut predates
//!   the first publish) and must reproduce the uninterrupted
//!   [`SimResult`] exactly.
//! * **stream** — the same migratory pattern as a generator stream, run
//!   on two shards by [`DirectorySim::run_stream_resumable_on`]; the
//!   kill, recovery and bit-exact check are the sequential scenario's.
//! * **live** — the live service with a durable per-shard WAL
//!   ([`WalConfig::with_storage`]). A file-scope kill crashes the one
//!   shard whose I/O hit the kill-point; its replacement incarnation
//!   salvages the WAL's torn tail, reconciles acked-but-uncommitted
//!   records, and the whole run must still pass its own differential
//!   replay verification ([`LiveReport::ok`]).
//!
//! The sweep prints a JSON report (`--out FILE` to also write it) and
//! exits non-zero if any op index left an unrecovered state. `--stride
//! N` / `--max-kills N` bound the sweep for CI smoke runs; the
//! unbounded default sweeps *every* op index.

use std::num::NonZeroU64;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::Arc;
use std::time::Instant;

use mcc_bench::args::Flags;
use mcc_core::storage::KILLED_MARKER;
use mcc_core::{
    ChaosStorage, Checkpoint, CheckpointError, CheckpointPolicy, DirectorySim, DirectorySimConfig,
    KillScope, Protocol, RunSpec, SimError, SimResult, SnapshotGeneration, StorageFaultPlan,
};
use mcc_live::{run_live, LiveConfig, WalConfig, WalStats};
use mcc_trace::{Addr, MemRef, NodeId, Trace, TraceStream};

const BIN: &str = "torture";

struct Args {
    scenario: Scenario,
    seed: u64,
    stride: u64,
    max_kills: u64,
    out: Option<PathBuf>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Scenario {
    Sequential,
    Stream,
    Live,
    All,
}

/// One scenario's sweep results, rendered into the JSON report.
struct SweepReport {
    name: &'static str,
    ops_total: u64,
    swept: u64,
    stride: u64,
    completed_before_kill: u64,
    recovered_current: u64,
    recovered_prev: u64,
    fresh_rerun: u64,
    unrecovered: Vec<String>,
    wal: Option<WalStats>,
    wall_ms: u128,
}

impl SweepReport {
    fn ok(&self) -> bool {
        self.unrecovered.is_empty()
    }

    fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"name\":\"{}\",\"ops_total\":{},\"swept\":{},\"stride\":{},\
             \"outcomes\":{{\"completed_before_kill\":{},\"recovered_current\":{},\
             \"recovered_prev\":{},\"fresh_rerun\":{}}}",
            self.name,
            self.ops_total,
            self.swept,
            self.stride,
            self.completed_before_kill,
            self.recovered_current,
            self.recovered_prev,
            self.fresh_rerun,
        );
        if let Some(w) = &self.wal {
            s.push_str(&format!(
                ",\"wal\":{{\"torn_tails\":{},\"dropped_bytes\":{},\"reconciled\":{},\
                 \"prev_snapshot_loads\":{}}}",
                w.torn_tails, w.dropped_bytes, w.reconciled, w.prev_snapshot_loads
            ));
        }
        s.push_str(&format!(
            ",\"unrecovered\":{},\"wall_ms\":{}}}",
            self.unrecovered.len(),
            self.wall_ms
        ));
        s
    }
}

fn main() {
    let args = parse_args();
    let mut reports = Vec::new();
    if matches!(args.scenario, Scenario::Sequential | Scenario::All) {
        reports.push(sequential_sweep(&args));
    }
    if matches!(args.scenario, Scenario::Stream | Scenario::All) {
        reports.push(stream_sweep(&args));
    }
    if matches!(args.scenario, Scenario::Live | Scenario::All) {
        reports.push(live_sweep(&args));
    }

    let ok = reports.iter().all(SweepReport::ok);
    let json = format!(
        "{{\"scenarios\":[{}],\"ok\":{ok}}}",
        reports
            .iter()
            .map(SweepReport::to_json)
            .collect::<Vec<_>>()
            .join(",")
    );
    println!("{json}");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("{BIN}: writing {}: {e}", path.display());
            exit(2);
        }
    }
    for report in &reports {
        for failure in &report.unrecovered {
            eprintln!("{BIN}: {}: UNRECOVERED: {failure}", report.name);
        }
    }
    exit(i32::from(!ok));
}

/// Record `i` of a migratory sharing pattern: blocks handed
/// read-then-write from node to node, round after round — the access
/// pattern the paper's adaptive protocols exist for, and the one that
/// exercises every [`StepKind`](mcc_core::StepKind) the checkpoint
/// encodes.
fn migratory_record(i: u64, nodes: u16, blocks: u64) -> MemRef {
    let (round, slot) = (i / (2 * blocks), i % (2 * blocks));
    let block = slot / 2;
    let node = NodeId::new(((round + block) % u64::from(nodes)) as u16);
    let addr = Addr::new(block * 64);
    if slot % 2 == 0 {
        MemRef::read(node, addr)
    } else {
        MemRef::write(node, addr)
    }
}

const NODES: u16 = 8;
const BLOCKS: u64 = 24;
const RECORDS: u64 = 2 * BLOCKS * 64;

/// Whether a simulation error is the kill-point firing (possibly
/// wrapped in a `BadCheckpoint` reason by the snapshot ledger).
fn sim_error_is_kill(e: &SimError) -> bool {
    e.to_string().contains(KILLED_MARKER)
}

fn sequential_sweep(args: &Args) -> SweepReport {
    let cfg = DirectorySimConfig {
        nodes: NODES,
        ..DirectorySimConfig::default()
    };
    let sim = DirectorySim::new(Protocol::Aggressive, &cfg);
    let trace: Trace = (0..RECORDS)
        .map(|i| migratory_record(i, NODES, BLOCKS))
        .collect();
    let ckpt_path = Path::new("torture/seq.ckpt");
    let policy = CheckpointPolicy::new(200, ckpt_path);
    let run = |storage: &ChaosStorage, resume: Option<&Checkpoint>| {
        let spec = RunSpec {
            storage,
            checkpoint: Some(&policy),
            resume,
            ..RunSpec::default()
        };
        sim.execute(&trace, &spec)?.merged()
    };
    checkpoint_sweep(args, "sequential", ckpt_path, run)
}

fn stream_sweep(args: &Args) -> SweepReport {
    const SHARDS: usize = 2;
    let cfg = DirectorySimConfig {
        nodes: NODES,
        ..DirectorySimConfig::default()
    };
    let sim = DirectorySim::new(Protocol::Aggressive, &cfg);
    let ckpt_path = Path::new("torture/stream.ckpt");
    let policy = CheckpointPolicy::new(200, ckpt_path);
    // Every run opens the stream afresh, as a restarted process would.
    let open = || TraceStream::from_generator(RECORDS, |i| migratory_record(i, NODES, BLOCKS));
    let run = |storage: &ChaosStorage, resume: Option<&Checkpoint>| match resume {
        None => sim.run_stream_resumable_on(&open(), SHARDS, &policy, storage),
        Some(checkpoint) => {
            let spec = RunSpec {
                shards: SHARDS,
                storage,
                checkpoint: Some(&policy),
                resume: Some(checkpoint),
                ..RunSpec::default()
            };
            sim.execute(&open(), &spec)?.merged()
        }
    };
    checkpoint_sweep(args, "stream", ckpt_path, run)
}

/// Sweeps a checkpointed run: `run(storage, None)` starts it fresh,
/// `run(storage, Some(snapshot))` continues it from a recovered
/// snapshot, both writing snapshots through `storage` to `ckpt_path`.
fn checkpoint_sweep(
    args: &Args,
    name: &'static str,
    ckpt_path: &Path,
    run: impl Fn(&ChaosStorage, Option<&Checkpoint>) -> Result<SimResult, SimError>,
) -> SweepReport {
    let started = Instant::now();
    // Counting pass: fault-free, so this is also the reference result.
    let counter = ChaosStorage::new(StorageFaultPlan::reliable(args.seed));
    let reference = run(&counter, None).unwrap_or_else(|e| {
        eprintln!("{BIN}: {name} counting pass failed: {e}");
        exit(2);
    });
    let ops_total = counter.stats().ops;

    let mut report = SweepReport {
        name,
        ops_total,
        swept: 0,
        stride: args.stride,
        completed_before_kill: 0,
        recovered_current: 0,
        recovered_prev: 0,
        fresh_rerun: 0,
        unrecovered: Vec::new(),
        wal: None,
        wall_ms: 0,
    };

    for n in (0..ops_total).step_by(args.stride as usize) {
        if args.max_kills > 0 && report.swept >= args.max_kills {
            break;
        }
        report.swept += 1;
        // Vary the seed per index so crash draws (how much unsynced
        // tail survives, how many pending namespace ops wrote back)
        // explore different outcomes across the sweep.
        let storage = ChaosStorage::new(StorageFaultPlan::kill_at(
            args.seed.wrapping_add(n),
            n,
            KillScope::Machine,
        ));
        match run(&storage, None) {
            Ok(result) if !storage.stats().killed => {
                // The run finished under the kill threshold (op counts
                // are deterministic, so treat a drift as a finding).
                if result == reference {
                    report.completed_before_kill += 1;
                } else {
                    report
                        .unrecovered
                        .push(format!("kill {n}: uninterrupted result diverged"));
                }
                continue;
            }
            Ok(_) => {
                report
                    .unrecovered
                    .push(format!("kill {n}: run succeeded *after* the power cut"));
                continue;
            }
            Err(e) if sim_error_is_kill(&e) => {}
            Err(e) => {
                report
                    .unrecovered
                    .push(format!("kill {n}: non-kill failure: {e}"));
                continue;
            }
        }
        // Restart on the surviving durable state.
        let resumed = match Checkpoint::load_with_fallback_from(&storage, ckpt_path) {
            Ok(recovered) => {
                match recovered.generation {
                    SnapshotGeneration::Current => report.recovered_current += 1,
                    SnapshotGeneration::Previous => report.recovered_prev += 1,
                }
                run(&storage, Some(&recovered.checkpoint))
            }
            Err(CheckpointError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                // The cut predates the first durable publish: rerunning
                // from scratch is the correct (and reported) recovery.
                report.fresh_rerun += 1;
                run(&storage, None)
            }
            Err(e) => {
                report.unrecovered.push(format!(
                    "kill {n}: every snapshot generation unusable: {} ({e})",
                    e.class()
                ));
                continue;
            }
        };
        match resumed {
            Ok(result) if result == reference => {}
            Ok(_) => report.unrecovered.push(format!(
                "kill {n}: recovered result diverged from reference"
            )),
            Err(e) => report
                .unrecovered
                .push(format!("kill {n}: restart failed: {e}")),
        }
    }
    report.wall_ms = started.elapsed().as_millis();
    report
}

/// The live scenario's configuration, shared between the counting pass
/// and every swept kill: small enough that a full sweep stays in
/// minutes, big enough to cross several checkpoint boundaries per
/// shard.
fn live_config(seed: u64, storage: Arc<ChaosStorage>) -> LiveConfig {
    let mut cfg = LiveConfig::new(Protocol::Basic, 3, 2);
    cfg.seed = seed;
    // LocusRoute synthesizes in tens of milliseconds where the default
    // Mp3d takes seconds — and the sweep pays workload generation once
    // per swept op index.
    cfg.workload = mcc_workloads::Workload::LocusRoute;
    cfg.max_refs_per_client = 60;
    cfg.checkpoint_every = 16;
    // A killed shard's in-flight requests ride the retry path while
    // the replacement incarnation recovers; budget for a slow machine.
    cfg.chaos.max_retries = 256;
    cfg.chaos.max_total_backoff = u64::MAX;
    cfg.wal = Some(WalConfig::with_storage("torture-wal", storage));
    cfg
}

fn live_sweep(args: &Args) -> SweepReport {
    let started = Instant::now();

    // Counting pass. Thread scheduling makes the op count approximate
    // for later runs; indices past a given run's actual count simply
    // never fire and are recorded as completed_before_kill.
    let counter = Arc::new(ChaosStorage::new(StorageFaultPlan::reliable(args.seed)));
    let count_cfg = live_config(args.seed, Arc::clone(&counter));
    let reference = run_live(&count_cfg).unwrap_or_else(|e| {
        eprintln!("{BIN}: live counting pass failed: {e}");
        exit(2);
    });
    if !reference.ok() {
        eprintln!(
            "{BIN}: live counting pass degraded: clients {:?}, shards {:?}, violations {:?}",
            reference.client_errors(),
            reference.failed_shards(),
            reference.verify.violations
        );
        exit(2);
    }
    let ops_total = counter.stats().ops;

    let mut report = SweepReport {
        name: "live",
        ops_total,
        swept: 0,
        stride: args.stride,
        completed_before_kill: 0,
        recovered_current: 0,
        recovered_prev: 0,
        fresh_rerun: 0,
        unrecovered: Vec::new(),
        wal: Some(WalStats::default()),
        wall_ms: 0,
    };

    for n in (0..ops_total).step_by(args.stride as usize) {
        if args.max_kills > 0 && report.swept >= args.max_kills {
            break;
        }
        report.swept += 1;
        let storage = Arc::new(ChaosStorage::new(StorageFaultPlan::kill_at(
            args.seed.wrapping_add(n),
            n,
            KillScope::File,
        )));
        let cfg = live_config(args.seed, Arc::clone(&storage));
        let run = match run_live(&cfg) {
            Ok(run) => run,
            Err(e) => {
                report.unrecovered.push(format!("kill {n}: {e}"));
                continue;
            }
        };
        if !run.ok() {
            report.unrecovered.push(format!(
                "kill {n}: clients {:?}, shards {:?}, violations {:?}",
                run.client_errors(),
                run.failed_shards(),
                run.verify.violations
            ));
            continue;
        }
        // The service's own differential replay already verified the
        // run; also hold it to the reference's acked-work envelope.
        if run.ops() != run.applied() {
            report.unrecovered.push(format!(
                "kill {n}: acked {} != applied {}",
                run.ops(),
                run.applied()
            ));
            continue;
        }
        if storage.stats().killed {
            report.recovered_current += 1;
        } else {
            report.completed_before_kill += 1;
        }
        if let Some(w) = &mut report.wal {
            w.absorb(&run.wal());
        }
    }
    let _ = reference; // reference.ok() asserted above; per-run acked work varies with scheduling
    report.wall_ms = started.elapsed().as_millis();
    report
}

fn parse_args() -> Args {
    let mut scenario = Scenario::All;
    let mut seed = 0xC0FF_EE00u64;
    let mut stride = 1u64;
    let mut max_kills = 0u64;
    let mut out = None;
    let mut flags = Flags::from_env(BIN);
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--scenario" => {
                scenario = flags.value_with(|name| match name {
                    "sequential" => Ok(Scenario::Sequential),
                    "stream" => Ok(Scenario::Stream),
                    "live" => Ok(Scenario::Live),
                    "all" => Ok(Scenario::All),
                    _ => Err("want sequential, stream, live or all"),
                });
            }
            "--seed" => seed = flags.value(),
            "--stride" => stride = flags.value::<NonZeroU64>().get(),
            "--max-kills" => max_kills = flags.value(),
            "--out" => out = Some(flags.value()),
            "--help" | "-h" => {
                println!(
                    "{BIN} — kill-at-every-I/O storage torture harness\n\n\
                     Usage: {BIN} [--scenario sequential|stream|live|all] [--seed N] \
                     [--stride N] [--max-kills N] [--out FILE]\n\
                     \n  --scenario S    which scenario to sweep (default all)\
                     \n  --seed N        fault/crash draw seed (default 0xC0FFEE00)\
                     \n  --stride N      kill every Nth op index instead of every one\
                     \n  --max-kills N   stop each sweep after N kills (0 = unbounded)\
                     \n  --out FILE      also write the JSON report to FILE\n\
                     \nFor every swept op index the scenario is re-run with a simulated\n\
                     power cut at exactly that I/O op, restarted on what the cut left\n\
                     durable, and required to reach the reference result bit-exactly or\n\
                     through an explicitly reported degrade. Exits non-zero if any index\n\
                     left an unrecovered state."
                );
                exit(0);
            }
            _ => flags.unknown(),
        }
    }
    Args {
        scenario,
        seed,
        stride,
        max_kills,
        out,
    }
}
