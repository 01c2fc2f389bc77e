//! `mcc-top` — a refreshing terminal dashboard over a live telemetry
//! plane.
//!
//! Polls either the embedded HTTP endpoint (`--url`, the `/json`
//! snapshot route) or a growing `*.telemetry.jsonl` snapshot file
//! (`--file`, always the last line), and renders per-shard progress,
//! stage latency quantiles, chaos/NACK/retry rates, and WAL health,
//! redrawing in place every `--interval-ms`. Rates are computed
//! client-side from consecutive snapshots, so the run being watched
//! pays nothing for them.
//!
//! Zero dependencies: the "UI" is ANSI clear-screen plus aligned
//! text, the HTTP client is `mcc_obs::http_get`, and the snapshot
//! parser is the workspace's own JSON.

use std::process::exit;
use std::time::Duration;

use mcc_bench::args::Flags;
use mcc_obs::{http_get, Json, Registry, Stage};

const BIN: &str = "mcc-top";

struct Args {
    url: Option<String>,
    file: Option<String>,
    interval: Duration,
    once: bool,
}

/// One decoded snapshot line: envelope + registry.
struct Snapshot {
    ts_ms: u64,
    seq: u64,
    uptime_ms: u64,
    registry: Registry,
}

fn decode_snapshot(line: &str) -> Result<Snapshot, String> {
    let v = Json::parse(line.trim()).map_err(|e| format!("bad snapshot JSON: {e}"))?;
    let u = |k: &str| {
        v.get(k)
            .and_then(Json::as_u64)
            .ok_or(format!("missing {k}"))
    };
    let registry = v
        .get("registry")
        .ok_or("missing registry")
        .map(Json::to_string)?;
    Ok(Snapshot {
        ts_ms: u("ts_ms")?,
        seq: u("seq")?,
        uptime_ms: u("uptime_ms")?,
        registry: Registry::from_json(&registry)?,
    })
}

/// Fetches the freshest snapshot from whichever source was configured.
fn fetch(args: &Args) -> Result<Snapshot, String> {
    if let Some(url) = &args.url {
        let body = http_get(url, "/json").map_err(|e| format!("{url}: {e}"))?;
        return decode_snapshot(&body);
    }
    let path = args.file.as_deref().expect("one source is configured");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{path}: no snapshot lines yet"))?;
    decode_snapshot(last)
}

fn counter(r: &Registry, name: &str) -> u64 {
    r.counter(name)
}

fn gauge(r: &Registry, name: &str) -> i64 {
    r.gauge(name)
}

/// Per-second rate of a counter between two snapshots (0 on the first
/// frame or when the clock did not advance).
fn rate(prev: Option<&Snapshot>, now: &Snapshot, name: &str) -> f64 {
    let Some(prev) = prev else { return 0.0 };
    let dt_ms = now.ts_ms.saturating_sub(prev.ts_ms);
    if dt_ms == 0 {
        return 0.0;
    }
    let delta = counter(&now.registry, name).saturating_sub(counter(&prev.registry, name));
    delta as f64 * 1000.0 / dt_ms as f64
}

fn fmt_us(us: u64) -> String {
    if us == u64::MAX {
        ">64s".into()
    } else if us >= 1_000_000 {
        format!("{:.1}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

fn render(prev: Option<&Snapshot>, now: &Snapshot, clear: bool) {
    let r = &now.registry;
    let mut out = String::new();
    if clear {
        // ANSI: home + clear-to-end, so the frame redraws in place.
        out.push_str("\x1b[H\x1b[2J");
    }
    out.push_str(&format!(
        "mcc-top — snapshot #{} at +{:.1}s\n\n",
        now.seq,
        now.uptime_ms as f64 / 1e3
    ));

    // Throughput and client-observed health — only for planes that
    // actually carry the live-service vocabulary (a sweep supervisor's
    // plane has none of it).
    let has_live = r.counters().contains_key("live.ops_acked");
    if has_live {
        render_live(prev, now, &mut out);
    }

    // Per-shard health, discovered from the registry's name space.
    let mut shard_lines = Vec::new();
    for i in 0.. {
        let name = format!("shard.{i}.applied");
        if !r.counters().contains_key(&name) {
            break;
        }
        shard_lines.push(format!(
            "shard {i:<3} applied {:>10} ({:>8.0}/s) queue {:>5} backlog {:>5} lag {:>5} \
             restarts {}\n",
            counter(r, &name),
            rate(prev, now, &name),
            gauge(r, &format!("shard.{i}.queue_depth")),
            gauge(r, &format!("shard.{i}.wal_backlog")),
            gauge(r, &format!("shard.{i}.lag")),
            counter(r, &format!("shard.{i}.restarts")),
        ));
    }
    if !shard_lines.is_empty() {
        out.push('\n');
        for l in shard_lines {
            out.push_str(&l);
        }
    }

    // Sweep-supervisor planes have their own vocabulary.
    let sweep_total = gauge(r, "sweep.cells_total");
    if sweep_total > 0 {
        out.push_str(&format!(
            "\nsweep    cell {:>3}/{} complete {:>3} failed {:>3} skipped {:>3}\n",
            gauge(r, "sweep.cell_index"),
            sweep_total,
            counter(r, "sweep.cells_completed"),
            counter(r, "sweep.cells_failed"),
            counter(r, "sweep.cells_skipped"),
        ));
    }
    print!("{out}");
}

/// The live-service sections: throughput, faults, chaos, WAL, stages.
fn render_live(prev: Option<&Snapshot>, now: &Snapshot, out: &mut String) {
    let r = &now.registry;
    out.push_str(&format!(
        "ops      {:>12} acked   {:>10.0} ops/s   applied {:>12}\n",
        counter(r, "live.ops_acked"),
        rate(prev, now, "live.ops_acked"),
        counter(r, "live.applied"),
    ));
    out.push_str(&format!(
        "faults   {:>12} retries {:>10.1} retry/s nacks {:>8} timeouts {:>8}\n",
        counter(r, "live.retries"),
        rate(prev, now, "live.retries"),
        counter(r, "live.nacks"),
        counter(r, "live.timeouts"),
    ));
    out.push_str(&format!(
        "chaos    req sent {:>10} dropped {:>8} delayed {:>8} duplicated {:>8}\n",
        counter(r, "live.chaos.req.sent"),
        counter(r, "live.chaos.req.dropped"),
        counter(r, "live.chaos.req.delayed"),
        counter(r, "live.chaos.req.duplicated"),
    ));
    out.push_str(&format!(
        "         rep sent {:>10} dropped {:>8} delayed {:>8} duplicated {:>8}\n",
        counter(r, "live.chaos.rep.sent"),
        counter(r, "live.chaos.rep.dropped"),
        counter(r, "live.chaos.rep.delayed"),
        counter(r, "live.chaos.rep.duplicated"),
    ));
    let wal_appends = counter(r, "live.wal.appends");
    if wal_appends > 0 || counter(r, "live.wal.reconciled") > 0 {
        out.push_str(&format!(
            "wal      appends {:>10} ({:>8.0}/s) torn {:>4} reconciled {:>6} prev-snap {:>4}\n",
            wal_appends,
            rate(prev, now, "live.wal.appends"),
            counter(r, "live.wal.torn_tails"),
            counter(r, "live.wal.reconciled"),
            counter(r, "live.wal.prev_snapshot_loads"),
        ));
    }

    // Stage latency quantiles.
    out.push_str("\nstage        count        p50        p99\n");
    for stage in Stage::ALL {
        if let Some(h) = r.histogram(&stage.metric_name()) {
            if h.count() == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<12} {:>7} {:>10} {:>10}\n",
                stage.label(),
                h.count(),
                fmt_us(h.quantile_upper_bound(0.5).unwrap_or(0)),
                fmt_us(h.quantile_upper_bound(0.99).unwrap_or(0)),
            ));
        }
    }
}

fn main() {
    let args = parse_args();
    let mut prev: Option<Snapshot> = None;
    let mut failures = 0u32;
    loop {
        match fetch(&args) {
            Ok(now) => {
                failures = 0;
                // A restarted run resets seq; drop the stale baseline
                // instead of reporting negative-delta nonsense rates.
                let baseline = prev.take().filter(|p| p.seq < now.seq);
                render(baseline.as_ref(), &now, !args.once);
                prev = Some(now);
            }
            Err(e) => {
                failures += 1;
                eprintln!("{BIN}: {e}");
                // An endpoint that stays gone means the run ended.
                if failures >= 5 {
                    exit(1);
                }
            }
        }
        if args.once {
            exit(i32::from(failures > 0));
        }
        std::thread::sleep(args.interval);
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        url: None,
        file: None,
        interval: Duration::from_millis(1000),
        once: false,
    };
    let mut flags = Flags::from_env(BIN);
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--url" => args.url = Some(flags.value()),
            "--file" => args.file = Some(flags.value()),
            "--interval-ms" => args.interval = Duration::from_millis(flags.value::<u64>().max(50)),
            "--once" => args.once = true,
            "--help" | "-h" => {
                println!(
                    "{BIN} — terminal dashboard over a live telemetry plane\n\n\
                     Usage: {BIN} (--url HOST:PORT | --file PATH.telemetry.jsonl) \
                     [--interval-ms N] [--once]\n\
                     \n  --url HOST:PORT   poll a live /json endpoint (from live --telemetry\
                     \n                    or supervisor --telemetry)\
                     \n  --file PATH       tail a *.telemetry.jsonl snapshot file instead\
                     \n  --interval-ms N   refresh cadence (default 1000, min 50)\
                     \n  --once            render one frame without clearing and exit\n\
                     \nShows ops/sec, per-stage p50/p99, chaos/NACK/retry rates, WAL health,\
                     \nper-shard queue depth / backlog / lag, and sweep cell progress."
                );
                exit(0);
            }
            _ => flags.unknown(),
        }
    }
    if args.url.is_some() == args.file.is_some() {
        flags.fail("exactly one of --url or --file is required");
    }
    args
}
