//! `live-wal`: `mcc_live::run_live` as a closed loop of two clients (one
//! per core) against one shard over a reliable wire, with the WAL on
//! disk, so every request is fsynced before its ack. Each client sends a
//! fixed number of Water references (Water because its synthesis is
//! cheap), so every round's journal, and the verdict that replays it
//! through `mcc-check`, has the same size.
//!
//! A round is too short for its simulated message count to stand for the
//! workload: across seeds, one round's `msgs_per_kref` spreads by more
//! than a tenth. So each round synthesizes its own input, from a seed
//! derived from the run's, and the count is taken over all of them. The
//! order in which the shard interleaves the two clients' requests follows
//! the host's scheduling, and the count follows that order, so it is
//! taken from each round's requests in a fixed interleaving and repeats
//! exactly for a seed, as on the other workloads.

use std::fs;
use std::path::Path;
use std::time::Instant;

use mcc_cache::CacheConfig;
use mcc_check::CHECK_BLOCK_SIZE;
use mcc_core::{
    DirectoryRepr, DirectorySim, DirectorySimConfig, PlacementPolicy, Protocol, SimResult,
};
use mcc_live::{
    run_live, verify_run, LiveConfig, LiveReport, TelemetrySpec, VerifyOutcome, WalConfig,
};
use mcc_obs::{Log2Histogram, Stage};
use mcc_prng::SplitMix64;
use mcc_trace::{MemRef, Trace};
use mcc_workloads::{Workload, WorkloadParams};

use crate::layers::Layers;
use crate::report::{best, hist_quantile, median, peak_rss_mb, ratio, EndToEnd, Report};
use crate::spans::Tracer;
use crate::{pins, Opts};

/// One client per core.
const CLIENTS: u16 = 2;
/// References each client sends per round: 3 000 requests a round, so 30
/// latency samples lie beyond a round's p99. The journal replay in the
/// verdict grows faster than the journal, and the host's speed drifts
/// within seconds, so a run makes many short rounds and keeps the
/// fastest.
const REFS_PER_CLIENT: usize = 1_500;
const SCALE: f64 = 0.1;
const PROTOCOL: Protocol = Protocol::Basic;
/// One round, verdict included, takes about this long on the reference
/// host.
const ROUND_SECONDS: f64 = 1.5;
/// Acknowledged writes of one round at the default seed.
const PINNED_WRITES: [u64; 1] = [136];

fn config(seed: u64, wal: &Path, refs_per_client: usize, telemetry: bool) -> LiveConfig {
    let mut cfg = LiveConfig::new(PROTOCOL, CLIENTS, 1);
    cfg.workload = Workload::Water;
    cfg.scale = SCALE;
    cfg.seed = seed;
    cfg.max_refs_per_client = refs_per_client;
    cfg.wal = Some(WalConfig::on_disk(wal));
    // The telemetry plane without an endpoint or snapshot file: the
    // traced round reads its stage histograms from the final registry.
    cfg.telemetry = telemetry.then(TelemetrySpec::default);
    cfg
}

/// Each client's references, derived from the synthesized trace as
/// `run_live` derives them and capped at `REFS_PER_CLIENT`, and the
/// length of the synthesized trace.
fn client_refs(seed: u64) -> (Vec<Vec<MemRef>>, usize) {
    let params = WorkloadParams::new(CLIENTS).scale(SCALE).seed(seed);
    let trace = Workload::Water.generate(&params);
    let mut per_node: Vec<Vec<MemRef>> = trace
        .split_by_node()
        .into_iter()
        .map(|t| t.as_slice()[..t.len().min(REFS_PER_CLIENT)].to_vec())
        .collect();
    per_node.resize(usize::from(CLIENTS), Vec::new());
    (per_node, trace.len())
}

/// The requests and the writes a round of `refs_per_client` must
/// acknowledge.
fn expected(refs: &[Vec<MemRef>], refs_per_client: usize) -> (u64, u64) {
    refs.iter()
        .map(|r| &r[..r.len().min(refs_per_client)])
        .fold((0, 0), |(ops, writes), r| {
            let w = r.iter().filter(|m| m.op.is_write()).count();
            (ops + r.len() as u64, writes + w as u64)
        })
}

/// The seed of round `r`: the run's own for the first round, whose
/// results are pinned, and one derived from it for every later round.
fn round_seed(seed: u64, r: usize) -> u64 {
    match r {
        0 => seed,
        _ => SplitMix64::new(seed ^ (r as u64).rotate_left(32)).next_u64(),
    }
}

/// The simulated messages and references of a round's requests taken one
/// per client in turn (the alternation a closed loop of equal clients
/// approaches), on the geometry every live shard runs: the checker's
/// canonical one.
fn canonical_messages(refs: &[Vec<MemRef>], refs_per_client: usize) -> Result<(u64, u64), String> {
    let refs: Vec<&[MemRef]> = refs
        .iter()
        .map(|r| &r[..r.len().min(refs_per_client)])
        .collect();
    let longest = refs.iter().map(|r| r.len()).max().unwrap_or(0);
    let trace: Trace = (0..longest)
        .flat_map(|i| refs.iter().filter_map(move |r| r.get(i).copied()))
        .collect();
    let config = DirectorySimConfig {
        nodes: CLIENTS,
        block_size: CHECK_BLOCK_SIZE,
        cache: CacheConfig::Infinite,
        placement: PlacementPolicy::RoundRobin,
        directory: DirectoryRepr::FullMap,
    };
    let result = DirectorySim::new(PROTOCOL, &config)
        .try_run(&trace)
        .map_err(|e| format!("the canonical interleaving: {e}"))?;
    Ok((result.total_messages(), trace.len() as u64))
}

/// One `run_live` call on a fresh WAL directory.
struct Round {
    report: LiveReport,
    /// Wall of the whole call: synthesis, load and verdict.
    total_s: f64,
}

impl Round {
    fn run(cfg: &LiveConfig, wal: &Path) -> Result<Round, String> {
        // A WAL left by the previous round would be recovered, not
        // started afresh.
        let _ = fs::remove_dir_all(wal);
        fs::create_dir_all(wal).map_err(|e| format!("{}: {e}", wal.display()))?;
        let started = Instant::now();
        let report = run_live(cfg)?;
        Ok(Round {
            report,
            total_s: started.elapsed().as_secs_f64(),
        })
    }

    /// The load: the clients' summed request latencies over the number of
    /// clients. In a closed loop each client always has one request
    /// outstanding, so this is the wall time of the load alone, without
    /// the synthesis before it and the drain after it, both of which
    /// `report.wall` holds. Taking `wall` less a synthesis timed apart
    /// instead left each round's load off by that timing's own noise, a
    /// tenth of the load or more.
    fn load_s(&self) -> f64 {
        self.report.latency_us().sum() as f64 / 1e6 / f64::from(CLIENTS)
    }

    /// From the end of the load until the verified report returned.
    fn verdict_s(&self) -> f64 {
        self.total_s - self.report.wall.as_secs_f64()
    }

    fn results(&self) -> impl Iterator<Item = &SimResult> {
        self.report
            .shards
            .iter()
            .filter_map(|s| s.result.as_ref().ok())
    }

    /// The requests of this round that count as failed: all of them when
    /// the report is not healthy and verified, or when it acknowledged
    /// other requests or writes than `want` (or, at the default seed,
    /// than the pin).
    fn failures(&self, want: (u64, u64), pin: Option<u64>) -> u64 {
        let r = &self.report;
        let why = if !r.ok() {
            format!(
                "client errors {:?}, failed shards {:?}, violations {:?}",
                r.client_errors(),
                r.failed_shards(),
                r.verify.violations
            )
        } else if r.ops() != want.0 || r.applied() != want.0 {
            format!(
                "{} requests acknowledged and {} applied of {}",
                r.ops(),
                r.applied(),
                want.0
            )
        } else if r.acked_writes() != want.1 {
            format!(
                "{} writes acknowledged, the workload holds {}",
                r.acked_writes(),
                want.1
            )
        } else if pin.is_some_and(|p| p != r.acked_writes()) {
            format!("{} writes acknowledged, pinned {pin:?}", r.acked_writes())
        } else {
            return 0;
        };
        eprintln!("live-wal: {why}");
        want.0
    }
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let wal = opts.work_dir.join("live-wal");

    let rounds_n = if opts.trace {
        1
    } else {
        crate::passes(opts.seconds, ROUND_SECONDS)
    };
    let seeds: Vec<u64> = (0..rounds_n).map(|r| round_seed(opts.seed, r)).collect();

    // Set-up: the synthesis each round starts with, timed on its own; the
    // median counts.
    let mut setup_s = Vec::with_capacity(rounds_n);
    let mut inputs = Vec::with_capacity(rounds_n);
    for &seed in &seeds {
        let started = Instant::now();
        inputs.push(client_refs(seed));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let synth_s = median(&setup_s);
    let wants: Vec<(u64, u64)> = inputs
        .iter()
        .map(|(refs, _)| expected(refs, REFS_PER_CLIENT))
        .collect();
    let pin = pins(opts, PINNED_WRITES).map(|p| p[0]);
    eprintln!(
        "live-wal: {rounds_n} rounds, {} requests and {} writes in all",
        wants.iter().map(|w| w.0).sum::<u64>(),
        wants.iter().map(|w| w.1).sum::<u64>()
    );

    let mut rounds = Vec::with_capacity(rounds_n);
    for &seed in &seeds {
        rounds.push(Round::run(
            &config(seed, &wal, REFS_PER_CLIENT, false),
            &wal,
        )?);
    }
    let peak_rss = peak_rss_mb();
    let mut attempted: u64 = wants.iter().map(|w| w.0).sum();
    let mut failed: u64 = rounds
        .iter()
        .zip(&wants)
        .enumerate()
        .map(|(r, (round, &want))| round.failures(want, pin.filter(|_| r == 0)))
        .sum();

    let report = if opts.trace {
        let ((refs, generated), want) = (&inputs[0], wants[0]);
        let mut tracer = Tracer::new();
        let traced_cfg = config(opts.seed, &wal, REFS_PER_CLIENT, true);
        let traced = tracer.span("live.round", |_| Round::run(&traced_cfg, &wal))?;
        let replay = tracer.span("check.replay", |_| {
            verify_run(
                PROTOCOL,
                CLIENTS,
                &traced.report.shards,
                &traced.report.clients,
            )
        });
        let half_refs = REFS_PER_CLIENT / 2;
        let half_want = expected(refs, half_refs);
        let half = Round::run(&config(opts.seed, &wal, half_refs, false), &wal)?;
        let replay_half = tracer.span("check.replay.half", |_| {
            verify_run(PROTOCOL, CLIENTS, &half.report.shards, &half.report.clients)
        });
        attempted += want.0 + half_want.0;
        failed += traced.failures(want, pin) + half.failures(half_want, None);
        for outcome in [&replay, &replay_half] {
            if !outcome.ok() {
                eprintln!("live-wal: replay: {:?}", outcome.violations);
                failed += 1;
            }
        }
        let layers = live_layers(
            &tracer,
            &traced,
            &replay,
            synth_s,
            *generated,
            rounds[0].total_s,
        )?;
        tracer.write(&opts.work_dir.join("live-wal.spans.jsonl"))?;
        let mut report = Report::new(attempted, failed);
        layers.emit(&mut report);
        report
    } else {
        // Latency and throughput come from the fastest quarter of the
        // rounds, their requests pooled; the verdict, a replay of a
        // fixed-size journal, is the best round's (see `best`). A round's
        // requests wait on the disk's fsync, whose slow stretches can cover
        // most of a run, so only the fastest rounds are steady from run to
        // run. But a round's latencies gather in one or two log2 buckets,
        // and the single best round's median was whichever round's split
        // between them happened to lean lowest; pooling a few of the
        // fastest evens that out. At least ten samples must lie beyond the
        // p99.
        let mut order: Vec<usize> = (0..rounds.len()).collect();
        order.sort_by(|&a, &b| rounds[a].load_s().total_cmp(&rounds[b].load_s()));
        let fastest = &order[..(rounds.len() / 4).max(1)];
        let mut latency = Log2Histogram::default();
        for &r in fastest {
            latency.merge(&rounds[r].report.latency_us());
        }
        if latency.count() < 1000 {
            return Err(format!(
                "{} latency samples: p99 needs at least 1000",
                latency.count()
            ));
        }
        let ops: u64 = fastest.iter().map(|&r| rounds[r].report.ops()).sum();
        let load_s: f64 = fastest.iter().map(|&r| rounds[r].load_s()).sum();
        let throughput = ratio(ops as f64, load_s);
        let applied: u64 = rounds.iter().map(|r| r.report.applied()).sum();
        let msgs: u64 = rounds
            .iter()
            .flat_map(|r| r.results())
            .map(SimResult::total_messages)
            .sum();
        let (fixed_msgs, fixed_refs) = inputs
            .iter()
            .map(|(refs, _)| canonical_messages(refs, REFS_PER_CLIENT))
            .try_fold((0, 0), |(m, n), counts| {
                counts.map(|(dm, dn)| (m + dm, n + dn))
            })?;
        let msgs_per_kref = ratio(1000.0 * fixed_msgs as f64, fixed_refs as f64);
        eprintln!(
            "live-wal: {:.1} msgs/kref in the rounds' own interleavings, {msgs_per_kref:.1} \
             in the fixed one",
            ratio(1000.0 * msgs as f64, applied as f64)
        );
        let verdicts: Vec<f64> = rounds.iter().map(Round::verdict_s).collect();
        let mut report = Report::new(attempted, failed);
        report.end_to_end(&EndToEnd {
            refs_per_s: throughput,
            ops_per_s: throughput,
            latency_p50_us: hist_quantile(&latency, 0.5),
            latency_p99_us: hist_quantile(&latency, 0.99),
            latency_mean_us: ratio(latency.sum() as f64, latency.count() as f64),
            verdict_s: best(&verdicts),
            msgs_per_kref,
            setup_s: synth_s,
            peak_rss_mb: peak_rss,
        });
        report
    };
    let _ = fs::remove_dir_all(&wal);
    Ok(report)
}

/// The per-layer metrics of the traced round.
fn live_layers(
    tracer: &Tracer,
    traced: &Round,
    replay: &VerifyOutcome,
    synth_s: f64,
    generated: usize,
    untraced_s: f64,
) -> Result<Layers, String> {
    let r = &traced.report;
    let registry = r
        .telemetry
        .as_ref()
        .ok_or("the traced round ran without its telemetry plane")?;
    let mut layers = Layers::default();
    for stage in Stage::ALL {
        let h = registry.histogram(&stage.metric_name());
        for (q, suffix) in [(0.5, "p50"), (0.99, "p99")] {
            layers.set(
                &format!("live.{}.{suffix}", stage.metric_name()),
                h.map_or(0.0, |h| hist_quantile(h, q)),
            );
        }
    }
    // A stage's time summed over every request, as load wall: in a closed
    // loop each client is busy all its life, so the clients' summed time
    // is `CLIENTS` times the load.
    let as_wall = |stage: Stage| {
        registry
            .histogram(&stage.metric_name())
            .map_or(0.0, |h| h.sum() as f64 / 1e6 / f64::from(CLIENTS))
    };
    layers.set("workloads.synth_s.water", synth_s);
    layers.set(
        "workloads.synth_refs_per_s.water",
        ratio(generated as f64, synth_s),
    );
    layers.set("live.load_s", traced.load_s());
    layers.set("live.retries", r.retries() as f64);
    layers.set("live.nacks", r.nacks() as f64);
    layers.set("live.timeouts", r.timeouts() as f64);
    layers.set("live.restarts", f64::from(r.restarts()));
    let replay_s = tracer.total("check.replay");
    layers.set("check.replay_s", replay_s);
    layers.set("check.replay_s.half", tracer.total("check.replay.half"));
    layers.set(
        "check.replay_steps_per_s",
        ratio(replay.steps_replayed as f64, replay_s),
    );
    layers.sim_counts(traced.results());
    layers.coverage(
        traced.total_s,
        &[
            ("workloads.synth", synth_s),
            ("live.queue_wait", as_wall(Stage::QueueWait)),
            ("live.engine_step", as_wall(Stage::EngineStep)),
            ("live.commit", as_wall(Stage::Commit)),
            ("live.reply_send", as_wall(Stage::ReplySend)),
            ("live.backoff", as_wall(Stage::Backoff)),
            ("check.verdict", traced.verdict_s()),
        ],
        untraced_s,
    );
    Ok(layers)
}
