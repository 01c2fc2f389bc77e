//! The live service: topology, supervision, and the run loop.
//!
//! [`run_live`] wires up one thread per directory shard and one per
//! node-cache client, connected by real `mpsc` channels behind the
//! chaos layer, then supervises the run to completion:
//!
//! * **heartbeats** — every shard bumps a counter each service-loop
//!   iteration; a counter that stops moving past the stall timeout is
//!   treated like a crash;
//! * **restarts** — a crashed or stalled shard is fenced off (epoch
//!   bump) and a fresh incarnation is spawned, rebuilding the engine
//!   from the last checkpoint plus the journal suffix, up to a restart
//!   budget;
//! * **graceful degradation** — a shard that exhausts its budget is
//!   marked failed; its clients fail their in-flight references
//!   through the bounded retry path, and the run completes with the
//!   surviving shards' results salvaged;
//! * **differential verification** — each shard journal replays once
//!   through `mcc-check`'s lockstep checker: with
//!   [`LiveConfig::verify_live`] a sampler starts the replays while the
//!   run goes on, and the verdict after it continues them; see
//!   [`verify`](crate::verify).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use mcc_core::{FaultPlan, Protocol, RealStorage, SimResult, Storage};
use mcc_obs::{Event, Log2Histogram, Registry, SnapshotWriter, TelemetryServer};
use mcc_workloads::{Workload, WorkloadParams};

use crate::chaos::ChannelStats;
use crate::client::{run_client, ClientCtx, ClientReport};
use crate::shard::{lock, run_incarnation, DurableCtx, ShardCtx, ShardShared};
use crate::telemetry::{LiveTelemetry, TelemetrySpec};
use crate::verify::{resume_run, JournalReplay, VerifyOutcome};
use crate::wal::WalStats;
use crate::wire::{JournalEntry, Reply, Request};

/// Supervisor poll cadence.
const TICK: Duration = Duration::from_millis(2);

/// Crash drill: panic one shard's first incarnation mid-run to prove
/// the checkpoint-restart path end to end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillSpec {
    /// Which shard to crash.
    pub shard: u32,
    /// Crash immediately before this many applies.
    pub after_applies: u64,
}

/// Durable write-ahead logging for the shards.
///
/// With a WAL configured, every committed journal entry is appended to
/// a per-shard on-disk log (CRC-framed, fsynced) *before* the reply is
/// acked, and the periodic engine snapshots are persisted beside it
/// with last-good rotation — so a restarted shard can rebuild from
/// disk even when storage itself misbehaves (torn tails are salvaged,
/// a corrupt snapshot falls back to the previous generation or to full
/// log replay).
#[derive(Clone)]
pub struct WalConfig {
    /// Directory holding the `shard-N.wal` / `shard-N.ckpt` files.
    /// Must already exist — [`run_live`] does not create directories.
    pub dir: PathBuf,
    /// The storage backend every shard I/O goes through; swap in a
    /// [`ChaosStorage`](mcc_core::ChaosStorage) to torture the path.
    pub storage: Arc<dyn Storage>,
}

impl WalConfig {
    /// A WAL on the real filesystem under `dir`.
    pub fn on_disk(dir: impl Into<PathBuf>) -> WalConfig {
        WalConfig {
            dir: dir.into(),
            storage: Arc::new(RealStorage),
        }
    }

    /// A WAL under `dir` through a caller-supplied storage backend.
    pub fn with_storage(dir: impl Into<PathBuf>, storage: Arc<dyn Storage>) -> WalConfig {
        WalConfig {
            dir: dir.into(),
            storage,
        }
    }

    /// The log path for one shard.
    pub fn wal_path(&self, shard: u32) -> PathBuf {
        self.dir.join(format!("shard-{shard}.wal"))
    }

    /// The snapshot path for one shard (its rotated previous
    /// generation lives at the same path with a `.prev` suffix).
    pub fn snap_path(&self, shard: u32) -> PathBuf {
        self.dir.join(format!("shard-{shard}.ckpt"))
    }
}

impl std::fmt::Debug for WalConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalConfig")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

/// Configuration for a live run.
///
/// Every shard runs the machine
/// [`CheckerConfig::sim_config`](mcc_check::CheckerConfig::sim_config)
/// names, so every journal replays through `mcc-check` verbatim.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Protocol point under test.
    pub protocol: Protocol,
    /// Number of node-cache clients (= nodes in the simulated machine).
    pub nodes: u16,
    /// Number of directory shards.
    pub shards: usize,
    /// Workload generating each client's reference stream.
    pub workload: Workload,
    /// Workload scale factor (1.0 = the paper's size).
    pub scale: f64,
    /// Master seed: workload synthesis, chaos streams, and backoff
    /// jitter all derive from it.
    pub seed: u64,
    /// Upper bound on one workload pass per client. The paper-sized
    /// traces run millions of references — the right scale for a
    /// throughput soak, but each live reference is a blocking
    /// request/reply round trip, so tests and smoke runs cap the pass
    /// instead of relying on `scale` (which clamps at 0.1 to keep the
    /// sharing-pattern mix calibrated).
    pub max_refs_per_client: usize,
    /// The chaos plan, reusing the trace-driven injector's vocabulary:
    /// `request` rates fault the client→shard wire (with `nack_ppm`
    /// drawn shard-side), `response` rates fault the shard→client
    /// wire, `max_retries` / `max_total_backoff` bound each client's
    /// retry loop. `invalidation` rates are unused (invalidations are
    /// engine-internal here).
    pub chaos: FaultPlan,
    /// Per-attempt reply deadline.
    pub request_deadline: Duration,
    /// Wall-clock length of one backoff unit.
    pub backoff_unit: Duration,
    /// Checkpoint every this many applies per shard (0 = never).
    pub checkpoint_every: u64,
    /// Shard inbox poll / heartbeat cadence.
    pub heartbeat_interval: Duration,
    /// Declare a shard stalled after this long without a heartbeat.
    pub stall_timeout: Duration,
    /// Restart budget per shard.
    pub max_restarts: u32,
    /// How long to wait for shards to drain after all clients exit.
    pub shutdown_grace: Duration,
    /// `Some(d)`: soak mode — clients cycle their reference stream
    /// for `d`, then stop at the next reference boundary.
    pub soak: Option<Duration>,
    /// Replay the journals while running, so violations surface
    /// mid-run; the verdict continues those replays.
    pub verify_live: bool,
    /// Optional crash drill.
    pub kill: Option<KillSpec>,
    /// Optional durable per-shard write-ahead log.
    pub wal: Option<WalConfig>,
    /// Optional live telemetry plane (HTTP endpoint + snapshot file).
    pub telemetry: Option<TelemetrySpec>,
}

impl LiveConfig {
    /// A small, fast, fault-free configuration; override fields as
    /// needed.
    pub fn new(protocol: Protocol, nodes: u16, shards: usize) -> LiveConfig {
        LiveConfig {
            protocol,
            nodes,
            shards,
            workload: Workload::Mp3d,
            scale: 0.02,
            seed: 1,
            max_refs_per_client: 2_000,
            chaos: FaultPlan::reliable(1),
            request_deadline: Duration::from_millis(100),
            backoff_unit: Duration::from_micros(20),
            checkpoint_every: 64,
            heartbeat_interval: Duration::from_millis(5),
            stall_timeout: Duration::from_millis(1500),
            max_restarts: 3,
            shutdown_grace: Duration::from_secs(10),
            soak: None,
            verify_live: false,
            kill: None,
            wal: None,
            telemetry: None,
        }
    }
}

/// One shard's contribution to the final report.
#[derive(Clone, Debug)]
pub struct ShardOutcome {
    /// The shard id.
    pub shard: u32,
    /// Final engine result, or why the shard was given up on.
    pub result: Result<SimResult, String>,
    /// How many times the supervisor restarted it.
    pub restarts: u32,
    /// The linearized journal (always salvaged, even on failure).
    pub journal: Vec<JournalEntry>,
    /// The committed event narration.
    pub events: Vec<Event>,
    /// Reply-direction chaos stats.
    pub reply_chaos: ChannelStats,
    /// NACKs the shard's simulated controller issued.
    pub nacks_sent: u64,
    /// Durable-WAL recovery statistics (zero when no WAL is
    /// configured).
    pub wal: WalStats,
}

/// Everything a live run produced.
#[derive(Clone, Debug)]
pub struct LiveReport {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Node-cache client count.
    pub nodes: u16,
    /// Per-client reports.
    pub clients: Vec<ClientReport>,
    /// Per-shard outcomes.
    pub shards: Vec<ShardOutcome>,
    /// Wall-clock time of the whole run (including drain).
    pub wall: Duration,
    /// The differential verification of the journals: the verdict
    /// continues the in-run sampler's replays, so it counts the
    /// sampler's steps and violations too.
    pub verify: VerifyOutcome,
    /// Journal entries the in-run sampler checked before the verdict
    /// took over (0 unless [`LiveConfig::verify_live`]).
    pub live_verified_steps: u64,
    /// Final snapshot of the telemetry plane, when one was on — the
    /// same registry a scraper saw, for end-of-run reconciliation.
    pub telemetry: Option<Registry>,
}

impl LiveReport {
    /// Acknowledged operations across all clients.
    pub fn ops(&self) -> u64 {
        self.clients.iter().map(|c| c.ops).sum()
    }

    /// Acknowledged writes across all clients.
    pub fn acked_writes(&self) -> u64 {
        self.clients.iter().map(|c| c.acked_writes).sum()
    }

    /// Sustained acknowledged throughput over the run's wall clock.
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ops() as f64 / secs
        }
    }

    /// All client latencies merged into one histogram (microseconds).
    pub fn latency_us(&self) -> Log2Histogram {
        let mut merged = Log2Histogram::new();
        for c in &self.clients {
            merged.merge(&c.latency_us);
        }
        merged
    }

    /// Total failed-then-retried attempts across clients.
    pub fn retries(&self) -> u64 {
        self.clients.iter().map(|c| c.retries).sum()
    }

    /// Total NACKs clients received.
    pub fn nacks(&self) -> u64 {
        self.clients.iter().map(|c| c.nacks).sum()
    }

    /// Total request deadlines that expired.
    pub fn timeouts(&self) -> u64 {
        self.clients.iter().map(|c| c.timeouts).sum()
    }

    /// Total restarts across shards.
    pub fn restarts(&self) -> u32 {
        self.shards.iter().map(|s| s.restarts).sum()
    }

    /// Journal length across shards (references actually applied).
    pub fn applied(&self) -> u64 {
        self.shards.iter().map(|s| s.journal.len() as u64).sum()
    }

    /// Request-direction chaos stats summed over clients.
    pub fn request_chaos(&self) -> ChannelStats {
        let mut total = ChannelStats::default();
        for c in &self.clients {
            total.absorb(&c.chaos);
        }
        total
    }

    /// Reply-direction chaos stats summed over shards.
    pub fn reply_chaos(&self) -> ChannelStats {
        let mut total = ChannelStats::default();
        for s in &self.shards {
            total.absorb(&s.reply_chaos);
        }
        total
    }

    /// Durable-WAL recovery stats summed over shards.
    pub fn wal(&self) -> WalStats {
        let mut total = WalStats::default();
        for s in &self.shards {
            total.absorb(&s.wal);
        }
        total
    }

    /// Shards that were given up on.
    pub fn failed_shards(&self) -> Vec<u32> {
        self.shards
            .iter()
            .filter(|s| s.result.is_err())
            .map(|s| s.shard)
            .collect()
    }

    /// Client-side errors (exhausted retries, livelock, hangups).
    pub fn client_errors(&self) -> Vec<(u16, String)> {
        self.clients
            .iter()
            .filter_map(|c| c.error.as_ref().map(|e| (c.node, e.clone())))
            .collect()
    }

    /// A fully healthy run: every client finished, every shard
    /// survived (restarts are fine), and verification passed.
    pub fn ok(&self) -> bool {
        self.client_errors().is_empty() && self.failed_shards().is_empty() && self.verify.ok()
    }
}

/// Supervisor-side view of one shard.
struct ShardSup {
    shared: Arc<ShardShared>,
    ctx: Arc<ShardCtx>,
    epoch: u64,
    restarts: u32,
    done: Option<Result<SimResult, String>>,
    hb_last: u64,
    hb_moved: Instant,
}

/// Runs the live service to completion. `Err` means the configuration
/// itself was unusable; everything that can go wrong *during* a run is
/// reported inside the returned [`LiveReport`].
pub fn run_live(cfg: &LiveConfig) -> Result<LiveReport, String> {
    // The live plane runs one OS thread per node client, which is what
    // bounds the count here — the directory itself spills arbitrarily
    // wide copy sets. Out-of-core scale runs belong to the streaming
    // engine, not the live service.
    if cfg.nodes == 0 || cfg.nodes > 1024 {
        return Err(format!("nodes must be in 1..=1024, got {}", cfg.nodes));
    }
    if cfg.shards == 0 || cfg.shards > 256 {
        return Err(format!("shards must be in 1..=256, got {}", cfg.shards));
    }
    if let Some(kill) = cfg.kill {
        if kill.shard as usize >= cfg.shards {
            return Err(format!("kill.shard {} out of range", kill.shard));
        }
    }

    let started = Instant::now();

    // --- Telemetry plane (optional). ---
    let telemetry = cfg
        .telemetry
        .as_ref()
        .map(|_| Arc::new(LiveTelemetry::new(cfg.shards)));
    let mut tele_server = None;
    let mut tele_writer = None;
    if let (Some(spec), Some(lt)) = (cfg.telemetry.as_ref(), telemetry.as_ref()) {
        if let Some(addr) = &spec.addr {
            let server = TelemetryServer::serve(Arc::clone(&lt.plane), addr)
                .map_err(|e| format!("telemetry endpoint {addr}: {e}"))?;
            if let Some(tx) = &spec.notify_addr {
                let _ = tx.send(server.addr());
            }
            tele_server = Some(server);
        }
        if let Some(path) = &spec.snapshot_path {
            let writer = SnapshotWriter::start(Arc::clone(&lt.plane), path, spec.snapshot_every)
                .map_err(|e| format!("telemetry snapshots {}: {e}", path.display()))?;
            tele_writer = Some(writer);
        }
    }

    // --- Workload: one program-order reference stream per client. ---
    let trace = cfg.workload.generate(
        &WorkloadParams::new(cfg.nodes)
            .scale(cfg.scale)
            .seed(cfg.seed),
    );
    let mut per_node: Vec<Vec<mcc_trace::MemRef>> = trace
        .split_by_node()
        .into_iter()
        .map(|t| t.as_slice().to_vec())
        .collect();
    // A node with no references still gets a (trivially finished)
    // client, so accounting below is uniform.
    per_node.resize(cfg.nodes as usize, Vec::new());
    per_node.truncate(cfg.nodes as usize);
    for refs in &mut per_node {
        refs.truncate(cfg.max_refs_per_client);
    }

    // --- Topology: one inbox per shard, one reply channel per client. ---
    let mut shard_sups: Vec<ShardSup> = Vec::with_capacity(cfg.shards);
    let mut request_txs: Vec<Sender<Request>> = Vec::with_capacity(cfg.shards);
    let (exit_tx, exit_rx) = mpsc::channel::<(u32, u64, Result<SimResult, String>)>();
    let mut reply_txs: Vec<Sender<Reply>> = Vec::with_capacity(cfg.nodes as usize);
    let mut reply_rxs = Vec::with_capacity(cfg.nodes as usize);
    for _ in 0..cfg.nodes {
        let (tx, rx) = mpsc::channel::<Reply>();
        reply_txs.push(tx);
        reply_rxs.push(rx);
    }
    let reply_txs = Arc::new(reply_txs);

    for shard in 0..cfg.shards as u32 {
        let (tx, rx) = mpsc::channel::<Request>();
        request_txs.push(tx);
        let shared = Arc::new(ShardShared::new(rx));
        let ctx = Arc::new(ShardCtx {
            shard,
            protocol: cfg.protocol,
            nodes: cfg.nodes,
            chaos_seed: cfg.chaos.seed,
            reply_rates: cfg.chaos.response,
            nack_ppm: cfg.chaos.request.nack_ppm,
            checkpoint_every: cfg.checkpoint_every,
            heartbeat_interval: cfg.heartbeat_interval,
            kill: cfg.kill.map(|k| (k.shard, k.after_applies)),
            durable: cfg.wal.as_ref().map(|w| DurableCtx {
                storage: Arc::clone(&w.storage),
                wal_path: w.wal_path(shard),
                snap_path: w.snap_path(shard),
            }),
            telemetry: telemetry.clone(),
        });
        spawn_incarnation(&ctx, &shared, &reply_txs, 0, &exit_tx);
        shard_sups.push(ShardSup {
            shared,
            ctx,
            epoch: 0,
            restarts: 0,
            done: None,
            hb_last: 0,
            hb_moved: Instant::now(),
        });
    }

    // --- Clients. ---
    let stop = Arc::new(AtomicBool::new(false));
    let (client_tx, client_rx) = mpsc::channel::<ClientReport>();
    let mut client_handles = Vec::with_capacity(cfg.nodes as usize);
    for (node, (refs, reply_rx)) in per_node
        .into_iter()
        .zip(reply_rxs)
        .enumerate()
        .take(cfg.nodes as usize)
    {
        let ctx = ClientCtx {
            node: node as u16,
            shards: cfg.shards,
            refs,
            chaos_seed: cfg.chaos.seed,
            request_rates: cfg.chaos.request,
            deadline: cfg.request_deadline,
            max_retries: cfg.chaos.max_retries,
            max_total_backoff: cfg.chaos.max_total_backoff,
            backoff_unit: cfg.backoff_unit,
            jitter_seed: cfg.chaos.seed,
            soak: cfg.soak.is_some(),
            stop: Arc::clone(&stop),
            telemetry: telemetry.clone(),
        };
        let to_shards = request_txs.clone();
        let tx = client_tx.clone();
        let handle = thread::Builder::new()
            .name(format!("mcc-live-client-{node}"))
            .spawn(move || {
                let report = run_client(ctx, to_shards, reply_rx);
                let _ = tx.send(report);
            })
            .map_err(|e| format!("spawn client {node}: {e}"))?;
        client_handles.push(handle);
    }
    // The supervisor keeps no request senders: once every client has
    // exited, shard inboxes disconnect and incarnations drain out.
    drop(request_txs);
    drop(client_tx);

    // --- Optional in-run sampler. If its thread cannot start, the
    // clients are told to stop (a soak would loop on) and the run
    // fails. ---
    let sampler = cfg
        .verify_live
        .then(|| spawn_sampler(cfg, &shard_sups))
        .transpose()
        .inspect_err(|_| stop.store(true, Ordering::Relaxed))?;

    // Soak duration means *live traffic* time: the clock starts once
    // the clients are up, not at process start, so workload generation
    // (seconds at paper scale) can never eat the soak window.
    let soak_started = Instant::now();

    // --- Supervision loop. ---
    let mut client_reports: Vec<Option<ClientReport>> = (0..cfg.nodes).map(|_| None).collect();
    let mut clients_remaining = cfg.nodes as usize;
    let mut soak_stopped = false;
    let mut drain_started: Option<Instant> = None;
    let mut health_tick = 0u32;
    loop {
        // Supervisor-computed gauges (lag, restarts), throttled to
        // ~every 25 ticks (50ms): cheap, and fast enough for a scraper.
        if let Some(lt) = &telemetry {
            health_tick += 1;
            if health_tick % 25 == 1 {
                lt.update_shard_health(shard_sups.iter().map(|s| s.restarts));
            }
        }
        if let Some(soak) = cfg.soak {
            if !soak_stopped && soak_started.elapsed() >= soak {
                stop.store(true, Ordering::Relaxed);
                soak_stopped = true;
            }
        }

        while let Ok(report) = client_rx.try_recv() {
            let node = report.node as usize;
            if client_reports[node].is_none() {
                clients_remaining -= 1;
            }
            client_reports[node] = Some(report);
        }

        while let Ok((shard, epoch, result)) = exit_rx.try_recv() {
            let sup = &mut shard_sups[shard as usize];
            if epoch != sup.epoch || sup.done.is_some() {
                continue; // a fenced-out zombie reporting in
            }
            match result {
                Ok(r) => sup.done = Some(Ok(r)),
                Err(e) => restart_or_fail(sup, e, cfg.max_restarts, &reply_txs, &exit_tx),
            }
        }

        let now = Instant::now();
        for sup in shard_sups.iter_mut().filter(|s| s.done.is_none()) {
            let hb = sup.shared.heartbeat.load(Ordering::Relaxed);
            if hb != sup.hb_last {
                sup.hb_last = hb;
                sup.hb_moved = now;
            } else if now.duration_since(sup.hb_moved) > cfg.stall_timeout {
                let msg = format!(
                    "shard {}: stalled (no heartbeat for {:?})",
                    sup.ctx.shard, cfg.stall_timeout
                );
                sup.hb_moved = now;
                restart_or_fail(sup, msg, cfg.max_restarts, &reply_txs, &exit_tx);
            }
        }

        let shards_done = shard_sups.iter().all(|s| s.done.is_some());
        if clients_remaining == 0 && shards_done {
            break;
        }
        if clients_remaining == 0 {
            let since = *drain_started.get_or_insert(now);
            if now.duration_since(since) > cfg.shutdown_grace {
                for sup in shard_sups.iter_mut().filter(|s| s.done.is_none()) {
                    sup.done = Some(Err(format!(
                        "shard {}: failed to drain within {:?}",
                        sup.ctx.shard, cfg.shutdown_grace
                    )));
                }
            }
        }
        thread::sleep(TICK);
    }
    for handle in client_handles {
        let _ = handle.join();
    }
    let (replays, sampled) = match sampler {
        Some(sampler) => sampler.finish(cfg),
        None => (fresh_replays(cfg), VerifyOutcome::default()),
    };
    let live_verified_steps = sampled.steps_replayed;
    let wall = started.elapsed();

    // Settle the telemetry plane: final gauge tick, cut the report's
    // registry, then let the writer append its final line (all
    // counters are settled by now, so file and report agree) and stop
    // serving.
    let telemetry_registry = telemetry.as_ref().map(|lt| {
        lt.update_shard_health(shard_sups.iter().map(|s| s.restarts));
        lt.plane.snapshot()
    });
    if let Some(writer) = tele_writer.take() {
        let _ = writer.finish();
    }
    drop(tele_server);

    // --- Salvage journals and assemble the report. ---
    let mut shards_out = Vec::with_capacity(cfg.shards);
    for sup in shard_sups {
        // Fence out any lingering zombie before reading the journal.
        sup.shared.epoch.store(u64::MAX, Ordering::SeqCst);
        let journal = lock(&sup.shared.journal);
        shards_out.push(ShardOutcome {
            shard: sup.ctx.shard,
            result: sup
                .done
                .unwrap_or_else(|| Err("shard never finished".into())),
            restarts: sup.restarts,
            journal: journal.entries.clone(),
            events: journal.events.clone(),
            reply_chaos: journal.reply_chaos,
            nacks_sent: journal.nacks_sent,
            wal: journal.wal,
        });
    }
    let clients: Vec<ClientReport> = client_reports
        .into_iter()
        .map(|r| r.expect("all clients reported"))
        .collect();

    // The verdict continues the sampler's replays, so each entry is
    // checked once per run.
    let verify = resume_run(replays, sampled, &shards_out, &clients);

    Ok(LiveReport {
        protocol: cfg.protocol,
        nodes: cfg.nodes,
        clients,
        shards: shards_out,
        wall,
        verify,
        live_verified_steps,
        telemetry: telemetry_registry,
    })
}

/// Spawns one incarnation thread (detached; it reports through
/// `exit_tx` and is fenced by the epoch).
fn spawn_incarnation(
    ctx: &Arc<ShardCtx>,
    shared: &Arc<ShardShared>,
    reply_txs: &Arc<Vec<Sender<Reply>>>,
    epoch: u64,
    exit_tx: &Sender<(u32, u64, Result<SimResult, String>)>,
) {
    let shard = ctx.shard;
    let ctx = Arc::clone(ctx);
    let shared = Arc::clone(shared);
    let reply_txs = Arc::clone(reply_txs);
    let thread_tx = exit_tx.clone();
    let spawned = thread::Builder::new()
        .name(format!("mcc-live-shard-{shard}"))
        .spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_incarnation(&ctx, &shared, &reply_txs, epoch)
            }));
            let result = match outcome {
                Ok(r) => r,
                Err(payload) => Err(format!("shard {shard}: panicked: {}", panic_msg(&payload))),
            };
            let _ = thread_tx.send((shard, epoch, result));
        });
    if let Err(e) = spawned {
        let _ = exit_tx.send((shard, epoch, Err(format!("spawn failed: {e}"))));
    }
}

/// Restart a failed shard within budget, or mark it failed for good.
fn restart_or_fail(
    sup: &mut ShardSup,
    error: String,
    max_restarts: u32,
    reply_txs: &Arc<Vec<Sender<Reply>>>,
    exit_tx: &Sender<(u32, u64, Result<SimResult, String>)>,
) {
    if sup.restarts < max_restarts {
        sup.restarts += 1;
        sup.epoch += 1;
        // Fence first, then spawn: a zombie must see the new epoch
        // before the replacement touches the journal.
        sup.shared.epoch.store(sup.epoch, Ordering::SeqCst);
        sup.hb_moved = Instant::now();
        spawn_incarnation(&sup.ctx, &sup.shared, reply_txs, sup.epoch, exit_tx);
    } else {
        sup.done = Some(Err(format!(
            "{error} (restart budget of {max_restarts} exhausted)"
        )));
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_msg(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Handle to the in-run sampler thread.
struct Sampler {
    stop: Arc<AtomicBool>,
    handle: thread::JoinHandle<(Vec<JournalReplay>, VerifyOutcome)>,
}

impl Sampler {
    /// Stops the sampler and takes back its replays, each stopped at the
    /// last entry it stepped, with what they recorded so far. A sampler
    /// that panicked hands back fresh replays, and says so.
    fn finish(self, cfg: &LiveConfig) -> (Vec<JournalReplay>, VerifyOutcome) {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap_or_else(|_| {
            let mut lost = VerifyOutcome::default();
            lost.violations.push("live sampler thread panicked".into());
            (fresh_replays(cfg), lost)
        })
    }
}

/// Spawns a thread that steps each shard's [`JournalReplay`] over the
/// journal entries committed so far while the service runs, surfacing
/// rule violations within milliseconds of being committed instead of
/// at the end of the run; the verdict then continues the same replays.
/// Restarts are invisible to it: the journal is append-only across
/// incarnations.
fn spawn_sampler(cfg: &LiveConfig, shard_sups: &[ShardSup]) -> Result<Sampler, String> {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let shareds: Vec<Arc<ShardShared>> = shard_sups.iter().map(|s| Arc::clone(&s.shared)).collect();
    let mut replays = fresh_replays(cfg);
    let handle = thread::Builder::new()
        .name("mcc-live-verifier".to_string())
        .spawn(move || {
            let mut out = VerifyOutcome::default();
            loop {
                let stopping = stop_flag.load(Ordering::Relaxed);
                for (replay, shared) in replays.iter_mut().zip(&shareds) {
                    let pending: Vec<JournalEntry> =
                        lock(&shared.journal).entries[replay.cursor()..].to_vec();
                    for entry in pending {
                        replay.step(entry.mref, Some((entry.kind, entry.messages)), &mut out);
                    }
                }
                if stopping {
                    break;
                }
                thread::sleep(Duration::from_millis(5));
            }
            (replays, out)
        })
        .map_err(|e| format!("spawn live verifier: {e}"))?;
    Ok(Sampler { stop, handle })
}

/// One replay per shard, from each journal's first entry.
fn fresh_replays(cfg: &LiveConfig) -> Vec<JournalReplay> {
    (0..cfg.shards as u32)
        .map(|shard| JournalReplay::new(cfg.protocol, cfg.nodes, shard))
        .collect()
}
