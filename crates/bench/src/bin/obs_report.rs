//! Renders the observability artifacts of a run — the metrics JSON
//! written by `--metrics-out` and/or the event JSONL written by
//! `--events-out` — into human-readable summary tables: overall
//! totals, per-interval traffic and classification-flip deltas, and
//! the messages-per-reference histogram. An event stream is rendered
//! as the totals the metrics recorder folds it into, so both
//! artifacts read in one vocabulary.
//!
//! Doubles as the CI validator: every JSONL line must parse back into
//! an event and the metrics JSON must round-trip through the registry
//! parser byte-identically, or the process exits non-zero. With
//! `--modelcheck` it additionally validates a `modelcheck` JSON
//! summary: the document must parse, carry the expected shape, and
//! report zero violations (unless it was a `--planted-bug` fixture
//! run, where violations are the point). With `--live BASE` it
//! validates the artifact set of a `live` service run: every shard
//! journal must replay through the lockstep checker with zero
//! violations, every event line must parse, the protocol events must
//! be exactly those the replay's engine emits, and the summary's
//! retry/NACK/chaos counters must reconcile with each other and with
//! the chaos plan the run was configured with. With `--telemetry
//! FILE` it validates a `*.telemetry.jsonl` snapshot stream: every
//! line must parse, the snapshot timestamps must be monotone with
//! strictly increasing sequence numbers, every embedded registry must
//! round-trip through the registry parser, and the counters must never
//! move backwards.
//! With `--scale FILE` it validates a `BENCH_scale.json` summary from
//! the out-of-core `scale` sweep: gates passed, peak RSS bounded in
//! every representation cell, and no cell charging less than the
//! precise full map.

use std::path::{Path, PathBuf};
use std::process::exit;

use mcc_bench::args::Flags;
use mcc_live::{JournalReplay, VerifyOutcome};
use mcc_obs::metrics::names;
use mcc_obs::{Event, Json, Log2Histogram, MetricsRecorder, Registry, DEFAULT_INTERVAL};
use mcc_stats::Table;
use mcc_trace::Trace;

const BIN: &str = "obs_report";

/// The per-interval columns worth a delta table: traffic and the
/// classification churn the paper's detection rules produce.
const INTERVAL_COLUMNS: [&str; 5] = [
    names::CONTROL,
    names::DATA,
    names::PROMOTES,
    names::DEMOTES,
    names::INVALIDATIONS,
];

fn main() {
    let args = parse_args();
    if args.metrics.is_none()
        && args.events.is_none()
        && args.modelcheck.is_none()
        && args.live.is_none()
        && args.telemetry.is_none()
        && args.scale.is_none()
    {
        eprintln!(
            "{BIN}: nothing to do — pass --metrics, --events, --modelcheck, --live, \
             --telemetry, and/or --scale"
        );
        exit(2);
    }
    if let Some(path) = &args.metrics {
        report_metrics(path);
    }
    if let Some(path) = &args.events {
        report_events(path);
    }
    if let Some(path) = &args.modelcheck {
        report_modelcheck(path);
    }
    if let Some(base) = &args.live {
        report_live(base);
    }
    if let Some(path) = &args.telemetry {
        report_telemetry(path);
    }
    if let Some(path) = &args.scale {
        report_scale(path);
    }
}

/// Loads, validates (round-trip), and renders a metrics JSON file.
fn report_metrics(path: &Path) {
    let text = read(path);
    let registry = Registry::from_json(&text).unwrap_or_else(|e| {
        eprintln!("{BIN}: {}: invalid metrics JSON: {e}", path.display());
        exit(1);
    });
    // The registry must survive its own serializer byte-identically —
    // this is the CI round-trip check.
    let reserialized = registry.to_json();
    match Registry::from_json(&reserialized) {
        Ok(back) if back.to_json() == reserialized => {}
        _ => {
            eprintln!(
                "{BIN}: {}: metrics JSON does not round-trip",
                path.display()
            );
            exit(1);
        }
    }

    println!("== metrics: {} ==\n", path.display());
    print_totals(&registry);

    let intervals = registry.intervals_table(&INTERVAL_COLUMNS);
    if !registry.intervals().is_empty() {
        let mut intervals = intervals;
        intervals.title("Per-interval deltas (cumulative record boundary per row)");
        println!("{}", intervals.to_text());
    }

    if let Some(hist) = registry.histogram(names::MESSAGES_PER_REF) {
        println!(
            "{}",
            histogram_table(names::MESSAGES_PER_REF, hist).to_text()
        );
    }
}

/// A `bucket,count` table for one log2 histogram.
fn histogram_table(name: &str, hist: &Log2Histogram) -> Table {
    let mut table = Table::new(["bucket", "count"]);
    table.title(format!("Histogram: {name} (count={})", hist.count()));
    let hi = hist.max_bucket().map_or(0, |i| i + 1);
    for (i, &count) in hist.buckets()[..hi].iter().enumerate() {
        table.row([Log2Histogram::bucket_label(i), count.to_string()]);
    }
    table
}

/// Parses every JSONL line (exiting non-zero on the first bad one) and
/// renders the totals a metrics recorder folds them into: the table
/// `--metrics` prints, per-kind and per-rule breakdowns included.
fn report_events(path: &Path) {
    let events = read_events(path);
    println!(
        "== events: {} ({} lines, all parsed) ==\n",
        path.display(),
        events.len()
    );
    print_totals(&MetricsRecorder::replay(&events, DEFAULT_INTERVAL));
}

/// Prints a registry's counters and gauges as one table.
fn print_totals(registry: &Registry) {
    let mut totals = registry.totals_table();
    totals.title("Totals");
    println!("{}", totals.to_text());
}

/// Validates a `modelcheck` JSON summary (parse + shape + zero
/// violations outside fixture mode) and renders the coverage table.
fn report_modelcheck(path: &Path) {
    let text = read(path);
    let fail = |why: &str| -> ! {
        eprintln!("{BIN}: {}: bad modelcheck summary: {why}", path.display());
        exit(1);
    };
    let doc = match Json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => fail(&format!("invalid JSON: {e}")),
    };
    if doc.get("tool").and_then(Json::as_str) != Some("modelcheck") {
        fail("missing or wrong \"tool\" field");
    }
    let planted = match doc.get("planted_bug") {
        Some(Json::Bool(b)) => *b,
        _ => fail("missing \"planted_bug\" boolean"),
    };
    let Some(exhaustive) = doc.get("exhaustive").and_then(Json::as_arr) else {
        fail("missing \"exhaustive\" array");
    };
    let Some(counterexamples) = doc.get("counterexamples").and_then(Json::as_arr) else {
        fail("missing \"counterexamples\" array");
    };

    println!("== modelcheck: {} ==\n", path.display());
    let mut violations = 0u64;
    let mut table = Table::new(["protocol", "states", "complete", "violations"]);
    table.title("Exhaustive coverage");
    for row in exhaustive {
        let (Some(protocol), Some(states), Some(complete), Some(v)) = (
            row.get("protocol").and_then(Json::as_str),
            row.get("states").and_then(Json::as_u64),
            row.get("complete"),
            row.get("violations").and_then(Json::as_u64),
        ) else {
            fail("exhaustive row missing protocol/states/complete/violations");
        };
        if !matches!(complete, Json::Bool(true)) {
            fail(&format!("exhaustive sweep of {protocol} was truncated"));
        }
        violations += v;
        table.row([
            protocol.to_string(),
            states.to_string(),
            "yes".to_string(),
            v.to_string(),
        ]);
    }
    if !exhaustive.is_empty() {
        println!("{}", table.to_text());
    }

    match doc.get("fuzz") {
        Some(Json::Null) | None => {}
        Some(fuzz) => {
            let (Some(cases), Some(refs), Some(v)) = (
                fuzz.get("cases").and_then(Json::as_u64),
                fuzz.get("refs").and_then(Json::as_u64),
                fuzz.get("violations").and_then(Json::as_u64),
            ) else {
                fail("fuzz summary missing cases/refs/violations");
            };
            violations += v;
            println!("fuzz: {cases} cases, {refs} refs, {v} violations\n");
        }
    }

    if counterexamples.len() as u64 != violations {
        fail(&format!(
            "{violations} violations reported but {} counterexamples listed",
            counterexamples.len()
        ));
    }
    for cx in counterexamples {
        let (Some(protocol), Some(invariant), Some(len)) = (
            cx.get("protocol").and_then(Json::as_str),
            cx.get("invariant").and_then(Json::as_str),
            cx.get("len").and_then(Json::as_u64),
        ) else {
            fail("counterexample row missing protocol/invariant/len");
        };
        println!("counterexample: [{protocol}] {invariant}, {len} records");
    }
    if planted {
        if violations == 0 {
            fail("planted-bug fixture run found nothing");
        }
        println!("planted-bug fixture: bug found, as required");
    } else if violations > 0 {
        fail(&format!("{violations} violations"));
    }
}

/// Validates the artifact set of a `live` service run (see the `live`
/// binary): summary kv + per-shard journal traces + per-shard event
/// JSONL under a common base path.
fn report_live(base: &Path) {
    let fail = |why: String| -> ! {
        eprintln!("{BIN}: live run {}: {why}", base.display());
        exit(1);
    };
    let summary_path = mcc_live::summary_path(base);
    let kv: std::collections::HashMap<String, String> =
        mcc_stats::parse_kv_lines(&read(&summary_path))
            .into_iter()
            .collect();
    let field = |key: &str| -> u64 {
        kv.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| fail(format!("summary missing numeric field {key:?}")))
    };
    let protocol = mcc_check::parse_protocol(
        kv.get("protocol")
            .unwrap_or_else(|| fail("summary missing protocol".into())),
    )
    .unwrap_or_else(|e| fail(e));
    let nodes = field("nodes") as u16;
    let shards = field("shards");

    // Differential replay: every shard journal through the one journal
    // judge, its checker's events against the shard's committed ones;
    // zero violations tolerated.
    let mut applied = 0u64;
    let mut journal_writes = 0u64;
    let mut verdict = VerifyOutcome::default();
    for shard in 0..shards as u32 {
        let journal_path = mcc_live::journal_path(base, shard);
        let trace = std::fs::read(&journal_path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| Trace::read_from(&bytes[..]).map_err(|e| e.to_string()))
            .unwrap_or_else(|e| fail(format!("{}: {e}", journal_path.display())));
        applied += trace.len() as u64;
        journal_writes += trace.iter().filter(|r| r.op.is_write()).count() as u64;

        let events = read_events(&mcc_live::events_path(base, shard));
        let mut replay = JournalReplay::new(protocol, nodes, shard);
        for r in trace.iter() {
            replay.step(*r, None, &mut verdict);
        }
        replay.finish(None, &events, &mut verdict);
    }
    if !verdict.ok() {
        fail(format!("journal replay: {}", verdict.violations.join("; ")));
    }

    // Counter reconciliation within the summary and against the plan.
    if applied != field("applied") {
        fail(format!(
            "journals hold {applied} entries, summary claims {}",
            field("applied")
        ));
    }
    if journal_writes != field("journal_writes") {
        fail(format!(
            "journals hold {journal_writes} writes, summary claims {}",
            field("journal_writes")
        ));
    }
    if field("acked_writes") > journal_writes {
        fail(format!(
            "{} acknowledged writes exceed {journal_writes} journaled — lost-write bug",
            field("acked_writes")
        ));
    }
    let healthy = field("clients_ok") == 1 && field("shards_failed") == 0;
    if healthy {
        if field("ops_acked") != applied {
            fail(format!(
                "healthy run but {} acks vs {applied} applies",
                field("ops_acked")
            ));
        }
        if field("acked_writes") != journal_writes {
            fail(format!(
                "healthy run but {} acked writes vs {journal_writes} journaled",
                field("acked_writes")
            ));
        }
    }
    let chaos_configured = field("drop_ppm") > 0
        || field("nack_ppm") > 0
        || field("delay_ppm") > 0
        || field("duplicate_ppm") > 0
        || field("resp_drop_ppm") > 0
        || field("resp_delay_ppm") > 0
        || field("resp_duplicate_ppm") > 0;
    if !chaos_configured {
        // The chaos-layer counters and NACK draws are deterministic in
        // the plan, so a fault-free plan must show zero. (Retries and
        // timeouts are NOT in this list: deadline expiries are
        // scheduling-dependent and legitimate on a loaded machine even
        // over a reliable wire — the identity check below covers them.)
        for key in [
            "nacks",
            "nacks_sent",
            "req_dropped",
            "req_delayed",
            "req_duplicated",
            "rep_dropped",
            "rep_delayed",
            "rep_duplicated",
        ] {
            if field(key) != 0 {
                fail(format!(
                    "fault-free plan but {key} = {} — phantom faults",
                    field(key)
                ));
            }
        }
    }
    if field("client_errors") == 0 && field("retries") != field("nacks") + field("timeouts") {
        fail(format!(
            "retry identity broken: {} retries vs {} nacks + {} timeouts",
            field("retries"),
            field("nacks"),
            field("timeouts")
        ));
    }
    if field("req_dropped") > field("req_sent") || field("rep_dropped") > field("rep_sent") {
        fail("more messages dropped than sent".into());
    }
    if field("verify_violations") != 0 {
        fail(format!(
            "{} differential-replay violations recorded at run time",
            field("verify_violations")
        ));
    }
    if field("ok") != 1 {
        fail("run recorded ok = 0".into());
    }

    println!(
        "== live: {} ==\n\n{shards} shard journals replayed ({applied} entries, \
         {journal_writes} writes): zero violations; counters reconcile.\n",
        base.display()
    );
}

/// Validates a `*.telemetry.jsonl` snapshot stream written by the
/// live service's periodic [`SnapshotWriter`](mcc_obs::SnapshotWriter):
/// every line parses, the envelope fields are monotone (strictly
/// increasing `seq`, non-decreasing `ts_ms`/`uptime_ms`), every
/// embedded registry round-trips through its own serializer, and no
/// counter ever moves backwards between consecutive snapshots.
fn report_telemetry(path: &Path) {
    let text = read(path);
    let fail = |lineno: usize, why: String| -> ! {
        eprintln!("{BIN}: {}:{}: {why}", path.display(), lineno);
        exit(1);
    };
    let mut prev: Option<(u64, u64, u64, Registry)> = None;
    let mut lines = 0u64;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let doc =
            Json::parse(line).unwrap_or_else(|e| fail(lineno, format!("bad snapshot JSON: {e}")));
        let env = |key: &str| -> u64 {
            doc.get(key)
                .and_then(Json::as_u64)
                .unwrap_or_else(|| fail(lineno, format!("missing envelope field {key:?}")))
        };
        let (ts_ms, seq, uptime_ms) = (env("ts_ms"), env("seq"), env("uptime_ms"));
        let registry_text = doc
            .get("registry")
            .unwrap_or_else(|| fail(lineno, "missing registry".into()))
            .to_string();
        let registry = Registry::from_json(&registry_text)
            .unwrap_or_else(|e| fail(lineno, format!("bad embedded registry: {e}")));
        // Round-trip: the registry must survive its own serializer.
        let reserialized = registry.to_json();
        match Registry::from_json(&reserialized) {
            Ok(back) if back.to_json() == reserialized => {}
            _ => fail(lineno, "embedded registry does not round-trip".into()),
        }
        if let Some((p_ts, p_seq, p_up, p_reg)) = &prev {
            if seq <= *p_seq {
                fail(lineno, format!("seq {seq} not after previous {p_seq}"));
            }
            if ts_ms < *p_ts {
                fail(lineno, format!("ts_ms {ts_ms} went backwards from {p_ts}"));
            }
            if uptime_ms < *p_up {
                fail(
                    lineno,
                    format!("uptime_ms {uptime_ms} went backwards from {p_up}"),
                );
            }
            // Counters are cumulative; a snapshot stream from one run
            // must never show one shrinking.
            for (name, &value) in registry.counters() {
                let before = p_reg.counter(name);
                if value < before {
                    fail(
                        lineno,
                        format!("counter {name:?} moved backwards: {before} -> {value}"),
                    );
                }
            }
        }
        prev = Some((ts_ms, seq, uptime_ms, registry));
        lines += 1;
    }
    let Some((_, seq, uptime_ms, registry)) = prev else {
        eprintln!("{BIN}: {}: no snapshot lines", path.display());
        exit(1);
    };
    println!(
        "== telemetry: {} ==\n\n{lines} snapshots validated (final seq {seq}, \
         +{:.1}s uptime, {} counters, {} gauges, {} histograms): envelope monotone, \
         registries round-trip, counters non-decreasing.\n",
        path.display(),
        uptime_ms as f64 / 1e3,
        registry.counters().len(),
        registry.gauges().len(),
        registry.histograms().len(),
    );
}

/// Every event of a JSONL file; exits non-zero on the first line that
/// does not parse.
fn read_events(path: &Path) -> Vec<Event> {
    let text = read(path);
    let mut events = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        events.push(Event::from_json(line).unwrap_or_else(|e| {
            eprintln!("{BIN}: {}:{}: bad event line: {e}", path.display(), i + 1);
            exit(1);
        }));
    }
    events
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("{BIN}: cannot read {}: {e}", path.display());
        exit(1);
    })
}

/// Validates a `BENCH_scale.json` summary written by the `scale`
/// binary: the document must parse, both correctness gates must have
/// passed, every representation cell must be present with a bounded
/// peak RSS, and no cell may report *less* traffic than the precise
/// full map (imprecision can only over-invalidate).
fn report_scale(path: &Path) {
    let text = read(path);
    let fail = |why: &str| -> ! {
        eprintln!("{BIN}: {}: bad scale summary: {why}", path.display());
        exit(1);
    };
    let doc = match Json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => fail(&format!("invalid JSON: {e}")),
    };
    if doc.get("bench").and_then(Json::as_str) != Some("scale") {
        fail("missing or wrong \"bench\" field");
    }
    for gate in ["parity_gate", "resume_gate"] {
        if doc.get(gate).and_then(Json::as_str) != Some("ok") {
            fail(&format!("{gate} did not pass"));
        }
    }
    let (Some(refs), Some(nodes)) = (
        doc.get("refs").and_then(Json::as_u64),
        doc.get("nodes").and_then(Json::as_u64),
    ) else {
        fail("missing refs/nodes");
    };
    let Some(cells) = doc.get("cells").and_then(Json::as_arr) else {
        fail("missing \"cells\" array");
    };
    if cells.is_empty() {
        fail("no representation cells");
    }
    println!(
        "== scale: {} ({refs} refs, {nodes} nodes) ==\n",
        path.display()
    );
    let mut table = Table::new(["directory", "refs/s", "peak MiB", "messages", "bounded"]);
    table.title("Representation sweep");
    let mut full_map_messages = None;
    for cell in cells {
        let (Some(directory), Some(rps), Some(hwm), Some(messages), Some(bounded)) = (
            cell.get("directory").and_then(Json::as_str),
            cell.get("refs_per_sec").and_then(Json::as_u64),
            cell.get("vm_hwm_bytes").and_then(Json::as_u64),
            cell.get("total_messages").and_then(Json::as_u64),
            cell.get("rss_bounded"),
        ) else {
            fail("cell missing directory/refs_per_sec/vm_hwm_bytes/total_messages/rss_bounded");
        };
        if !matches!(bounded, Json::Bool(true)) {
            fail(&format!("{directory}: peak RSS exceeded the limit"));
        }
        if rps == 0 {
            fail(&format!("{directory}: zero throughput"));
        }
        if directory == "full-map" {
            full_map_messages = Some(messages);
        }
        table.row([
            directory.to_string(),
            rps.to_string(),
            (hwm / (1024 * 1024)).to_string(),
            messages.to_string(),
            "yes".to_string(),
        ]);
    }
    println!("{}", table.to_text());
    let Some(baseline) = full_map_messages else {
        fail("no full-map baseline cell");
    };
    for cell in cells {
        let directory = cell.get("directory").and_then(Json::as_str).unwrap_or("?");
        let messages = cell
            .get("total_messages")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if messages < baseline {
            fail(&format!(
                "{directory} reports {messages} messages, below the full map's {baseline} — \
                 an imprecise representation can never charge less"
            ));
        }
    }
}

#[derive(Default)]
struct Args {
    metrics: Option<PathBuf>,
    events: Option<PathBuf>,
    modelcheck: Option<PathBuf>,
    live: Option<PathBuf>,
    telemetry: Option<PathBuf>,
    scale: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut out = Args::default();
    let mut flags = Flags::from_env(BIN);
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--metrics" => out.metrics = Some(flags.value()),
            "--events" => out.events = Some(flags.value()),
            "--modelcheck" => out.modelcheck = Some(flags.value()),
            "--live" => out.live = Some(flags.value()),
            "--telemetry" => out.telemetry = Some(flags.value()),
            "--scale" => out.scale = Some(flags.value()),
            "--help" | "-h" => {
                println!(
                    "{BIN} — render observability artifacts into summary tables\n\n\
                     Usage: {BIN} [--metrics FILE] [--events FILE] [--modelcheck FILE] \
                     [--live BASE] [--telemetry FILE]\n\
                     \n  --metrics FILE     metrics JSON written by a --metrics-out run; validated\
                     \n                     (parse + round-trip) and rendered as totals,\
                     \n                     per-interval deltas, and histograms\
                     \n  --events FILE      event JSONL written by a --events-out run; every line\
                     \n                     is parsed (non-zero exit on failure) and the stream's\
                     \n                     metric totals are rendered\
                     \n  --modelcheck FILE  JSON summary printed by the modelcheck binary;\
                     \n                     validated (parse + shape + zero violations outside\
                     \n                     --planted-bug fixture runs) and rendered\
                     \n  --live BASE        artifact set written by the live binary's --out BASE;\
                     \n                     every shard journal is replayed through the lockstep\
                     \n                     checker and all counters must reconcile\
                     \n  --telemetry FILE   *.telemetry.jsonl snapshot stream from a live run;\
                     \n                     every line must parse with monotone envelope fields,\
                     \n                     round-tripping registries, non-decreasing counters\
                     \n  --scale FILE       BENCH_scale.json summary from the scale binary; both\
                     \n                     correctness gates must have passed, every cell's peak\
                     \n                     RSS must be bounded, and no representation may charge\
                     \n                     less than the full map\n\
                     \nExit status: 0 on success, 1 when an artifact fails validation."
                );
                exit(0);
            }
            _ => flags.unknown(),
        }
    }
    out
}
