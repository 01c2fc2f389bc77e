//! Live-run telemetry: the handle bundle the service's hot paths
//! record through, and the knobs that turn the plane on.
//!
//! When [`LiveConfig::telemetry`](crate::LiveConfig::telemetry) is
//! set, `run_live` builds one `LiveTelemetry` — a pre-resolved set
//! of atomic counters, gauges, and stage histograms on a shared
//! [`Telemetry`] plane — and threads it into every client, shard, and
//! chaos channel. Recording is lock-free relaxed atomics; the HTTP
//! endpoint, the periodic snapshot writer, and the final
//! [`LiveReport::telemetry`](crate::LiveReport::telemetry) registry
//! all read the same plane.
//!
//! Metric names, all visible in the Prometheus exposition with an
//! `mcc_` prefix:
//!
//! * `live.*` — exact client/shard aggregates (`ops_acked`,
//!   `acked_writes`, `retries`, `nacks`, `timeouts`, `backoff_units`,
//!   `applied`, `nacks_sent`);
//! * `live.chaos.req.*` / `live.chaos.rep.*` — incremental
//!   [`ChannelStats`](crate::ChannelStats), updated per send instead
//!   of only at teardown;
//! * `live.wal.*` — incremental [`WalStats`](crate::WalStats) plus an
//!   `appends` counter;
//! * `shard.<i>.applied` / `shard.<i>.restarts` (counters) and
//!   `shard.<i>.queue_depth` / `shard.<i>.wal_backlog` /
//!   `shard.<i>.lag` (gauges) — per-shard health;
//! * `stage.<stage>_us` — per-stage latency histograms on the
//!   [`Stage`] taxonomy;
//! * the engine-event aggregates (`records`, `messages.*`,
//!   `classification.*`, `step.<kind>`, `promote.<rule>`,
//!   `demote.<rule>`, …: every metric an offline
//!   [`MetricsRecorder`](mcc_obs::MetricsRecorder) writes) fed by a batched
//!   [`TelemetrySink`](mcc_obs::TelemetrySink) on each shard's
//!   committed event stream. These lag by at most one publish batch
//!   and can undercount across a crash; the `live.*` counters are the
//!   exact ones.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Duration;

use mcc_obs::{AtomicHistogram, Stage, Telemetry};

use crate::chaos::SharedChannelStats;

/// Turns the telemetry plane on for a live run.
#[derive(Clone, Default)]
pub struct TelemetrySpec {
    /// Bind address for the embedded HTTP endpoint (e.g.
    /// `"127.0.0.1:9185"`; port 0 picks a free port). `None` serves
    /// nothing.
    pub addr: Option<String>,
    /// Append a JSON snapshot line to this file every
    /// [`TelemetrySpec::snapshot_every`] (plus a final line at
    /// shutdown). Conventionally `<base>.telemetry.jsonl`.
    pub snapshot_path: Option<PathBuf>,
    /// Snapshot cadence (0 is clamped to 10ms by the writer).
    pub snapshot_every: Duration,
    /// When set, the resolved endpoint address is sent here once the
    /// listener is bound — the race-free way to scrape a port-0 run.
    pub notify_addr: Option<Sender<SocketAddr>>,
}

impl TelemetrySpec {
    /// A spec serving HTTP on `addr`, with the default 250ms snapshot
    /// cadence and no snapshot file.
    pub fn on(addr: impl Into<String>) -> TelemetrySpec {
        TelemetrySpec {
            addr: Some(addr.into()),
            snapshot_path: None,
            snapshot_every: Duration::from_millis(250),
            notify_addr: None,
        }
    }

    /// Adds a periodic snapshot file.
    pub fn with_snapshots(mut self, path: impl Into<PathBuf>, every: Duration) -> TelemetrySpec {
        self.snapshot_path = Some(path.into());
        self.snapshot_every = every;
        self
    }
}

impl std::fmt::Debug for TelemetrySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetrySpec")
            .field("addr", &self.addr)
            .field("snapshot_path", &self.snapshot_path)
            .field("snapshot_every", &self.snapshot_every)
            .finish_non_exhaustive()
    }
}

/// Per-shard health handles.
pub(crate) struct ShardGauges {
    /// Counter `shard.<i>.applied`: journal length.
    pub applied: Arc<AtomicU64>,
    /// Counter `shard.<i>.restarts`, stored by the supervisor.
    pub restarts: Arc<AtomicU64>,
    /// Gauge `shard.<i>.queue_depth`: requests delivered to the inbox
    /// and not yet dequeued.
    pub queue_depth: Arc<AtomicI64>,
    /// Gauge `shard.<i>.wal_backlog`: journal entries past the last
    /// checkpoint — the replay length if the shard crashed right now.
    pub wal_backlog: Arc<AtomicI64>,
    /// Gauge `shard.<i>.lag`: how many applies this shard trails the
    /// most-advanced shard by (supervisor-computed).
    pub lag: Arc<AtomicI64>,
}

/// The pre-resolved handle bundle threaded through a live run.
pub(crate) struct LiveTelemetry {
    /// The shared plane (the HTTP endpoint and snapshot writer read
    /// this).
    pub plane: Arc<Telemetry>,
    // Stage latency histograms (microseconds).
    pub queue_wait: Arc<AtomicHistogram>,
    pub engine_step: Arc<AtomicHistogram>,
    pub commit: Arc<AtomicHistogram>,
    pub reply_send: Arc<AtomicHistogram>,
    pub backoff: Arc<AtomicHistogram>,
    pub total: Arc<AtomicHistogram>,
    pub wal_append: Arc<AtomicHistogram>,
    pub wal_fsync: Arc<AtomicHistogram>,
    // Exact client-side aggregates.
    pub ops_acked: Arc<AtomicU64>,
    pub acked_writes: Arc<AtomicU64>,
    pub retries: Arc<AtomicU64>,
    pub nacks: Arc<AtomicU64>,
    pub timeouts: Arc<AtomicU64>,
    pub backoff_units: Arc<AtomicU64>,
    // Exact shard-side aggregates.
    pub applied: Arc<AtomicU64>,
    pub nacks_sent: Arc<AtomicU64>,
    // Incremental chaos stats, per wire direction.
    pub req_chaos: SharedChannelStats,
    pub rep_chaos: SharedChannelStats,
    // Incremental durable-WAL stats.
    pub wal_appends: Arc<AtomicU64>,
    pub wal_torn_tails: Arc<AtomicU64>,
    pub wal_dropped_bytes: Arc<AtomicU64>,
    pub wal_reconciled: Arc<AtomicU64>,
    pub wal_prev_snapshot_loads: Arc<AtomicU64>,
    // Per-shard health.
    pub shards: Vec<ShardGauges>,
}

impl LiveTelemetry {
    /// Registers every metric a run with `shards` shards records.
    pub fn new(shards: usize) -> LiveTelemetry {
        let plane = Arc::new(Telemetry::new());
        let shard_gauges = (0..shards)
            .map(|i| ShardGauges {
                applied: plane.counter(&format!("shard.{i}.applied")),
                restarts: plane.counter(&format!("shard.{i}.restarts")),
                queue_depth: plane.gauge(&format!("shard.{i}.queue_depth")),
                wal_backlog: plane.gauge(&format!("shard.{i}.wal_backlog")),
                lag: plane.gauge(&format!("shard.{i}.lag")),
            })
            .collect();
        LiveTelemetry {
            queue_wait: plane.stage(Stage::QueueWait),
            engine_step: plane.stage(Stage::EngineStep),
            commit: plane.stage(Stage::Commit),
            reply_send: plane.stage(Stage::ReplySend),
            backoff: plane.stage(Stage::Backoff),
            total: plane.stage(Stage::Total),
            wal_append: plane.stage(Stage::WalAppend),
            wal_fsync: plane.stage(Stage::WalFsync),
            ops_acked: plane.counter("live.ops_acked"),
            acked_writes: plane.counter("live.acked_writes"),
            retries: plane.counter("live.retries"),
            nacks: plane.counter("live.nacks"),
            timeouts: plane.counter("live.timeouts"),
            backoff_units: plane.counter("live.backoff_units"),
            applied: plane.counter("live.applied"),
            nacks_sent: plane.counter("live.nacks_sent"),
            req_chaos: SharedChannelStats::registered(&plane, "live.chaos.req"),
            rep_chaos: SharedChannelStats::registered(&plane, "live.chaos.rep"),
            wal_appends: plane.counter("live.wal.appends"),
            wal_torn_tails: plane.counter("live.wal.torn_tails"),
            wal_dropped_bytes: plane.counter("live.wal.dropped_bytes"),
            wal_reconciled: plane.counter("live.wal.reconciled"),
            wal_prev_snapshot_loads: plane.counter("live.wal.prev_snapshot_loads"),
            shards: shard_gauges,
            plane,
        }
    }

    /// Supervisor tick: recompute each shard's applied-record lag
    /// behind the most-advanced shard, and mirror restart counts.
    pub fn update_shard_health(&self, restarts: impl Iterator<Item = u32>) {
        let applied: Vec<u64> = self
            .shards
            .iter()
            .map(|s| s.applied.load(Ordering::Relaxed))
            .collect();
        let max = applied.iter().copied().max().unwrap_or(0);
        for (gauges, done) in self.shards.iter().zip(applied) {
            gauges.lag.store((max - done) as i64, Ordering::Relaxed);
        }
        for (gauges, restarts) in self.shards.iter().zip(restarts) {
            gauges
                .restarts
                .store(u64::from(restarts), Ordering::Relaxed);
        }
    }
}
