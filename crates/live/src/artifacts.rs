//! On-disk artifacts of a live run.
//!
//! A run writes, next to a caller-chosen base path:
//!
//! * `<base>.live.kv` — the flat key/value summary (`mcc-stats`
//!   `kv_lines` format) with throughput, latency quantiles,
//!   retry/NACK/chaos counters, restart counts, and the chaos plan the
//!   run was configured with;
//! * `<base>.shard-<i>.mcct` — shard *i*'s journal as a standard trace
//!   file: its linearized reference stream, replayable through any of
//!   the workspace's engines and through `mcc-check`;
//! * `<base>.shard-<i>.events.jsonl` — shard *i*'s committed event
//!   narration, one JSON object per line.
//!
//! `obs_report --live <base>` re-validates the whole set offline:
//! every journal must replay through the lockstep checker with zero
//! violations, every event line must parse, and the counters must
//! reconcile with each other and with the chaos plan.
//!
//! Every artifact is written atomically — rendered to a sibling
//! `.tmp` file and renamed into place — so a crash mid-write (or a
//! reader racing the writer) never observes a half-written artifact,
//! only the previous complete one or none at all.

use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use mcc_check::protocol_slug;
use mcc_core::checkpoint::{commit_tmp, stage_tmp};
use mcc_core::{RealStorage, Storage};
use mcc_stats::kv_lines;
use mcc_trace::Trace;

use crate::service::{LiveConfig, LiveReport};

/// Path of the summary file for a base path.
pub fn summary_path(base: &Path) -> PathBuf {
    with_suffix(base, ".live.kv")
}

/// Path of shard `i`'s journal trace for a base path.
pub fn journal_path(base: &Path, shard: u32) -> PathBuf {
    with_suffix(base, &format!(".shard-{shard}.mcct"))
}

/// Path of shard `i`'s event stream for a base path.
pub fn events_path(base: &Path, shard: u32) -> PathBuf {
    with_suffix(base, &format!(".shard-{shard}.events.jsonl"))
}

/// Path of the periodic telemetry snapshot stream for a base path.
pub fn telemetry_path(base: &Path) -> PathBuf {
    with_suffix(base, ".telemetry.jsonl")
}

fn with_suffix(base: &Path, suffix: &str) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(suffix);
    PathBuf::from(name)
}

/// Writes the full artifact set; returns the paths written.
pub fn write_artifacts(
    report: &LiveReport,
    cfg: &LiveConfig,
    base: &Path,
) -> io::Result<Vec<PathBuf>> {
    write_artifacts_on(report, cfg, base, &RealStorage)
}

/// [`write_artifacts`] through an explicit [`Storage`] backend (the
/// torture harness injects faults here too).
pub fn write_artifacts_on(
    report: &LiveReport,
    cfg: &LiveConfig,
    base: &Path,
    storage: &dyn Storage,
) -> io::Result<Vec<PathBuf>> {
    let mut written = Vec::new();

    let path = summary_path(base);
    publish(storage, &path, summary_kv(report, cfg).into_bytes())?;
    written.push(path);

    for shard in &report.shards {
        let mut trace = Trace::with_capacity(shard.journal.len());
        for entry in &shard.journal {
            trace.push(entry.mref);
        }
        let path = journal_path(base, shard.shard);
        let mut bytes = Vec::new();
        trace.write_to(BufWriter::new(&mut bytes))?;
        publish(storage, &path, bytes)?;
        written.push(path);

        let path = events_path(base, shard.shard);
        let mut bytes = Vec::new();
        for event in &shard.events {
            bytes.write_all(event.to_json().as_bytes())?;
            bytes.write_all(b"\n")?;
        }
        publish(storage, &path, bytes)?;
        written.push(path);
    }
    Ok(written)
}

/// Atomic publish through the crash-ordered write: an fsynced sibling
/// `.tmp` file renamed into place, then the parent directory fsynced.
fn publish(storage: &dyn Storage, path: &Path, bytes: Vec<u8>) -> io::Result<()> {
    let tmp = stage_tmp(storage, path, &bytes)?;
    commit_tmp(storage, &tmp, path)
}

/// Renders the summary key/value document.
pub fn summary_kv(report: &LiveReport, cfg: &LiveConfig) -> String {
    let latency = report.latency_us();
    let req = report.request_chaos();
    let rep = report.reply_chaos();
    let nacks_sent: u64 = report.shards.iter().map(|s| s.nacks_sent).sum();
    let journal_writes: u64 = report
        .shards
        .iter()
        .flat_map(|s| s.journal.iter())
        .filter(|e| e.mref.op.is_write())
        .count() as u64;
    let clients_ok = report.client_errors().is_empty();
    let pairs: Vec<(&str, String)> = vec![
        ("protocol", protocol_slug(report.protocol)),
        ("nodes", report.nodes.to_string()),
        ("shards", report.shards.len().to_string()),
        ("wall_ms", report.wall.as_millis().to_string()),
        ("ops_acked", report.ops().to_string()),
        ("ops_per_sec", format!("{:.1}", report.ops_per_sec())),
        ("acked_writes", report.acked_writes().to_string()),
        ("applied", report.applied().to_string()),
        ("journal_writes", journal_writes.to_string()),
        ("retries", report.retries().to_string()),
        ("nacks", report.nacks().to_string()),
        ("nacks_sent", nacks_sent.to_string()),
        ("timeouts", report.timeouts().to_string()),
        (
            "backoff_units",
            report
                .clients
                .iter()
                .map(|c| c.backoff_units)
                .sum::<u64>()
                .to_string(),
        ),
        (
            "p50_us",
            latency.quantile_upper_bound(0.50).unwrap_or(0).to_string(),
        ),
        (
            "p99_us",
            latency.quantile_upper_bound(0.99).unwrap_or(0).to_string(),
        ),
        ("req_sent", req.sent.to_string()),
        ("req_dropped", req.dropped.to_string()),
        ("req_delayed", req.delayed.to_string()),
        ("req_duplicated", req.duplicated.to_string()),
        ("rep_sent", rep.sent.to_string()),
        ("rep_dropped", rep.dropped.to_string()),
        ("rep_delayed", rep.delayed.to_string()),
        ("rep_duplicated", rep.duplicated.to_string()),
        ("restarts", report.restarts().to_string()),
        ("wal_torn_tails", report.wal().torn_tails.to_string()),
        ("wal_dropped_bytes", report.wal().dropped_bytes.to_string()),
        ("wal_reconciled", report.wal().reconciled.to_string()),
        (
            "wal_prev_snapshot_loads",
            report.wal().prev_snapshot_loads.to_string(),
        ),
        ("shards_failed", report.failed_shards().len().to_string()),
        ("clients_ok", u64::from(clients_ok).to_string()),
        ("client_errors", report.client_errors().len().to_string()),
        (
            "verify_violations",
            report.verify.violations.len().to_string(),
        ),
        ("verify_steps", report.verify.steps_replayed.to_string()),
        (
            "live_verified_steps",
            report.live_verified_steps.to_string(),
        ),
        ("chaos_seed", cfg.chaos.seed.to_string()),
        ("drop_ppm", cfg.chaos.request.drop_ppm.to_string()),
        ("nack_ppm", cfg.chaos.request.nack_ppm.to_string()),
        ("delay_ppm", cfg.chaos.request.delay_ppm.to_string()),
        ("duplicate_ppm", cfg.chaos.request.duplicate_ppm.to_string()),
        ("resp_drop_ppm", cfg.chaos.response.drop_ppm.to_string()),
        ("resp_delay_ppm", cfg.chaos.response.delay_ppm.to_string()),
        (
            "resp_duplicate_ppm",
            cfg.chaos.response.duplicate_ppm.to_string(),
        ),
        (
            "soak_ms",
            cfg.soak.map(|d| d.as_millis()).unwrap_or(0).to_string(),
        ),
        ("checkpoint_every", cfg.checkpoint_every.to_string()),
        ("ok", u64::from(report.ok()).to_string()),
    ];
    kv_lines(pairs)
}
