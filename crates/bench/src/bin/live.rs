//! Runs the protocol as a live concurrent service and reports
//! sustained throughput, request-latency quantiles, and retry/NACK
//! rates under configurable wire chaos.
//!
//! One thread per directory shard, one per node-cache client, real
//! `mpsc` channels, faults injected on the wire (`--chaos`, or the
//! per-fault `--*-ppm` flags). The run is self-verifying: every shard
//! journal replays through `mcc-check`'s lockstep
//! engine/specification checker, and the process exits non-zero if
//! the run degraded (client errors, dead shards) or verification
//! found any violation — which makes `--soak-secs N` a chaos-soak
//! gate: survive N seconds at the configured fault rates with zero
//! deadlocks, zero lost writes, and zero rule violations, or fail.
//!
//! With `--out BASE` the run also writes `BASE.live.kv`,
//! `BASE.shard-<i>.mcct`, and `BASE.shard-<i>.events.jsonl`, which
//! `obs_report --live BASE` re-validates offline.

use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

use mcc_bench::args::Flags;
use mcc_check::parse_protocol;
use mcc_core::{FaultPlan, FaultRates};
use mcc_live::{run_live, KillSpec, LiveConfig, TelemetrySpec, WalConfig};
use mcc_obs::Log2Histogram;

const BIN: &str = "live";

fn main() {
    let (cfg, out) = parse_args();

    let report = match run_live(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{BIN}: bad configuration: {e}");
            exit(2);
        }
    };

    print!("{}", mcc_live::summary_kv(&report, &cfg));
    print_latency(&report.latency_us());

    if let Some(base) = out {
        match mcc_live::write_artifacts(&report, &cfg, &base) {
            Ok(paths) => {
                for p in paths {
                    eprintln!("{BIN}: wrote {}", p.display());
                }
            }
            Err(e) => {
                eprintln!("{BIN}: writing artifacts under {}: {e}", base.display());
                exit(1);
            }
        }
    }

    if !report.ok() {
        for (node, err) in report.client_errors() {
            eprintln!("{BIN}: client {node}: {err}");
        }
        for shard in report.failed_shards() {
            eprintln!("{BIN}: shard {shard} failed");
        }
        for v in &report.verify.violations {
            eprintln!("{BIN}: verification: {v}");
        }
        exit(1);
    }
}

/// Prints the merged latency histogram's populated buckets.
fn print_latency(latency: &Log2Histogram) {
    if latency.count() == 0 {
        return;
    }
    eprintln!("request latency (us):");
    let last = latency.max_bucket().unwrap_or(0);
    for (i, &count) in latency.buckets().iter().enumerate().take(last + 1) {
        if count > 0 {
            eprintln!("  {:>12} {count}", Log2Histogram::bucket_label(i));
        }
    }
}

fn parse_args() -> (LiveConfig, Option<PathBuf>) {
    let mut cfg = LiveConfig::new(mcc_core::Protocol::Basic, 8, 4);
    cfg.max_refs_per_client = 50_000;
    let mut drop_ppm = 0u32;
    let mut nack_ppm = 0u32;
    let mut delay_ppm = 0u32;
    let mut duplicate_ppm = 0u32;
    let mut max_retries = 64u32;
    let mut out: Option<PathBuf> = None;
    let mut telemetry_addr: Option<String> = None;
    let mut telemetry_every_ms = 250u64;
    let mut flags = Flags::from_env(BIN);
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--protocol" => cfg.protocol = flags.value_with(parse_protocol),
            "--workload" => cfg.workload = flags.value(),
            "--nodes" => cfg.nodes = flags.value(),
            "--shards" => cfg.shards = flags.value(),
            "--scale" => cfg.scale = flags.value(),
            "--seed" => cfg.seed = flags.value(),
            "--chaos" => {
                let ppm: u32 = flags.value();
                drop_ppm = ppm;
                nack_ppm = ppm;
                delay_ppm = ppm;
                duplicate_ppm = ppm;
            }
            "--drop-ppm" => drop_ppm = flags.value(),
            "--nack-ppm" => nack_ppm = flags.value(),
            "--delay-ppm" => delay_ppm = flags.value(),
            "--dup-ppm" => duplicate_ppm = flags.value(),
            "--max-retries" => max_retries = flags.value(),
            "--max-refs" => {
                let n: usize = flags.value();
                cfg.max_refs_per_client = if n == 0 { usize::MAX } else { n };
            }
            "--deadline-ms" => cfg.request_deadline = Duration::from_millis(flags.value()),
            "--soak-secs" => {
                let secs: u64 = flags.value();
                cfg.soak = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--checkpoint-every" => cfg.checkpoint_every = flags.value(),
            "--max-restarts" => cfg.max_restarts = flags.value(),
            "--verify-live" => cfg.verify_live = true,
            "--kill-shard" => {
                let shard = flags.value();
                let after = cfg.kill.map(|k| k.after_applies).unwrap_or(100);
                cfg.kill = Some(KillSpec {
                    shard,
                    after_applies: after,
                });
            }
            "--kill-after" => {
                let after = flags.value();
                let shard = cfg.kill.map(|k| k.shard).unwrap_or(0);
                cfg.kill = Some(KillSpec {
                    shard,
                    after_applies: after,
                });
            }
            "--wal" => {
                let dir: PathBuf = flags.value();
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    eprintln!("{BIN}: cannot create WAL dir {}: {e}", dir.display());
                    exit(2);
                }
                cfg.wal = Some(WalConfig::on_disk(dir));
            }
            "--out" => out = Some(flags.value()),
            "--telemetry" => telemetry_addr = Some(flags.value()),
            "--telemetry-every-ms" => telemetry_every_ms = flags.value(),
            "--help" | "-h" => {
                println!(
                    "{BIN} — the protocol as a live, chaos-hardened service\n\n\
                     Usage: {BIN} [--protocol P] [--workload W] [--nodes N] [--shards K] \
                     [--scale X] [--seed N] [--chaos PPM] [--drop-ppm N] [--nack-ppm N] \
                     [--delay-ppm N] [--dup-ppm N] [--max-retries N] [--max-refs N] \
                     [--deadline-ms N] [--soak-secs N] [--checkpoint-every N] \
                     [--max-restarts N] [--verify-live] [--kill-shard S] [--kill-after N] \
                     [--wal DIR] [--out BASE]\n\
                     \n  --chaos PPM         shorthand: drop = nack = delay = duplicate = PPM\
                     \n  --max-refs N        cap one workload pass at N references per client\
                     \n                      (default 50000; 0 = the full paper-sized trace)\
                     \n  --soak-secs N       soak mode: loop the workload for N seconds\
                     \n  --verify-live       sample-replay journals concurrently with the run\
                     \n  --kill-shard S      crash drill: panic shard S once mid-run\
                     \n  --wal DIR           durable per-shard WAL + snapshots under DIR\
                     \n                      (fsynced before ack; torn tails salvaged on restart)\
                     \n  --out BASE          write BASE.live.kv + per-shard journals/events\
                     \n  --telemetry ADDR    serve live metrics over HTTP at ADDR (port 0 = any\
                     \n                      free port; /metrics, /json, /healthz); with --out,\
                     \n                      also append BASE.telemetry.jsonl snapshots\
                     \n  --telemetry-every-ms N  snapshot cadence (default 250)\n\
                     \nExits 0 only if every client finished, every shard survived, and\n\
                     the differential replay found zero violations."
                );
                exit(0);
            }
            _ => flags.unknown(),
        }
    }
    cfg.chaos = FaultPlan {
        request: FaultRates {
            drop_ppm,
            nack_ppm,
            delay_ppm,
            duplicate_ppm,
        },
        response: FaultRates {
            drop_ppm,
            nack_ppm: 0,
            delay_ppm,
            duplicate_ppm,
        },
        max_retries,
        max_total_backoff: u64::MAX,
        ..FaultPlan::reliable(cfg.seed ^ 0xC4A0_5EED)
    };
    if let Some(addr) = telemetry_addr {
        let mut spec = TelemetrySpec::on(addr);
        spec.snapshot_every = Duration::from_millis(telemetry_every_ms);
        if let Some(base) = &out {
            spec.snapshot_path = Some(mcc_live::artifacts::telemetry_path(base));
        }
        // Announce the resolved endpoint (port 0 picks a free one) as
        // soon as the listener binds, so a scraper can attach mid-run.
        let (tx, rx) = std::sync::mpsc::channel();
        spec.notify_addr = Some(tx);
        std::thread::spawn(move || {
            if let Ok(addr) = rx.recv() {
                eprintln!("{BIN}: telemetry endpoint at http://{addr}/metrics");
            }
        });
        cfg.telemetry = Some(spec);
    }
    (cfg, out)
}
