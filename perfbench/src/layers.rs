//! The per-layer metric catalogue of the traced run. Every traced run
//! emits every entry, so traced runs of different workloads compare name
//! for name. A layer a workload does not exercise reports 0 there: its
//! busy time and its counts on that workload really are zero.

use std::collections::BTreeMap;

use mcc_core::{EventCounts, SimResult};

use crate::report::{ratio, Report};

/// The applications' metric-name slugs, in `Workload::ALL` order.
pub const APPS: [&str; 5] = ["cholesky", "locusroute", "mp3d", "pthor", "water"];

/// Every per-layer metric with its unit, in output order.
const CATALOGUE: &[(&str, &str)] = &[
    // mcc-workloads: the set-up of paper and live-wal.
    ("workloads.synth_s.cholesky", "s"),
    ("workloads.synth_s.locusroute", "s"),
    ("workloads.synth_s.mp3d", "s"),
    ("workloads.synth_s.pthor", "s"),
    ("workloads.synth_s.water", "s"),
    ("workloads.synth_refs_per_s.cholesky", "refs/s"),
    ("workloads.synth_refs_per_s.locusroute", "refs/s"),
    ("workloads.synth_refs_per_s.mp3d", "refs/s"),
    ("workloads.synth_refs_per_s.pthor", "refs/s"),
    ("workloads.synth_refs_per_s.water", "refs/s"),
    // mcc-placement.
    ("placement.profile_s", "s"),
    // mcc-core: the engine and the monitor on the materialized path.
    ("core.step_s", "s"),
    ("core.fast_step_s", "s"),
    ("core.monitor_s", "s"),
    ("core.monitor_share", "ratio"),
    // mcc-cache.
    ("cache.finite_step_s", "s"),
    ("sim.writebacks", "count"),
    ("sim.clean_drops", "count"),
    // mcc-trace: streams and the shard filter.
    ("trace.stream_drain_s", "s"),
    ("trace.filter_keep_ratio", "ratio"),
    // mcc-core: streamed, sharded, checkpointed runs.
    ("core.stream_step_s", "s"),
    ("core.shard_run_s.max", "s"),
    ("core.shard_balance", "ratio"),
    ("core.repr_cost_ratio", "ratio"),
    ("core.checkpoint_s", "s"),
    ("core.checkpoint_io_s", "s"),
    ("core.checkpoints", "count"),
    ("core.checkpoint_bytes", "bytes"),
    // Simulated counts.
    ("sim.migrations_per_kref", "1/kref"),
    ("sim.miss_ratio", "ratio"),
    ("sim.broadcast_invalidations", "count"),
    // mcc-live.
    ("live.load_s", "s"),
    ("live.retries", "count"),
    ("live.nacks", "count"),
    ("live.timeouts", "count"),
    ("live.restarts", "count"),
    ("live.stage.queue_wait_us.p50", "us"),
    ("live.stage.queue_wait_us.p99", "us"),
    ("live.stage.engine_step_us.p50", "us"),
    ("live.stage.engine_step_us.p99", "us"),
    ("live.stage.wal_append_us.p50", "us"),
    ("live.stage.wal_append_us.p99", "us"),
    ("live.stage.wal_fsync_us.p50", "us"),
    ("live.stage.wal_fsync_us.p99", "us"),
    ("live.stage.commit_us.p50", "us"),
    ("live.stage.commit_us.p99", "us"),
    ("live.stage.reply_send_us.p50", "us"),
    ("live.stage.reply_send_us.p99", "us"),
    ("live.stage.backoff_us.p50", "us"),
    ("live.stage.backoff_us.p99", "us"),
    ("live.stage.total_us.p50", "us"),
    ("live.stage.total_us.p99", "us"),
    // mcc-check.
    ("check.replay_s", "s"),
    ("check.replay_s.half", "s"),
    ("check.replay_steps_per_s", "steps/s"),
    // The traced run itself.
    ("coverage.wall_s", "s"),
    ("coverage.uncovered_s", "s"),
    ("coverage.uncovered_share", "ratio"),
    ("coverage.overhead_s", "s"),
];

/// Per-layer values of one traced run, keyed by catalogue name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets the catalogue metric `name`.
    ///
    /// # Panics
    ///
    /// If `name` is not in the catalogue: a bug in this benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = CATALOGUE
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer catalogue"));
        self.0.insert(key, value);
    }

    /// The simulated counts of `results`.
    pub fn sim_counts<'a>(&mut self, results: impl IntoIterator<Item = &'a SimResult>) {
        let e = results
            .into_iter()
            .fold(EventCounts::default(), |sum, r| sum + r.events);
        let refs = e.refs() as f64;
        self.set("sim.writebacks", e.writebacks as f64);
        self.set("sim.clean_drops", e.clean_drops as f64);
        self.set(
            "sim.broadcast_invalidations",
            e.broadcast_invalidations as f64,
        );
        self.set(
            "sim.migrations_per_kref",
            ratio(1000.0 * e.migrations as f64, refs),
        );
        self.set(
            "sim.miss_ratio",
            ratio((e.read_misses + e.write_misses) as f64, refs),
        );
    }

    /// The coverage check: the traced `wall` split into the layer self
    /// times in `parts` and the remainder they leave uncovered. `untraced`
    /// is the wall of the same work with tracing off.
    pub fn coverage(&mut self, wall: f64, parts: &[(&str, f64)], untraced: f64) {
        let uncovered = wall - parts.iter().map(|(_, secs)| secs).sum::<f64>();
        for (name, secs) in parts {
            eprintln!(
                "coverage: {name:<20} {secs:>10.4} s {:>6.1}%",
                100.0 * ratio(*secs, wall)
            );
        }
        eprintln!(
            "coverage: {:<20} {uncovered:>10.4} s {:>6.1}% of {wall:.4} s traced, {untraced:.4} s untraced",
            "uncovered",
            100.0 * ratio(uncovered, wall)
        );
        self.set("coverage.wall_s", wall);
        self.set("coverage.uncovered_s", uncovered);
        self.set("coverage.uncovered_share", ratio(uncovered, wall));
        self.set("coverage.overhead_s", wall - untraced);
    }

    /// Adds every catalogue metric to `report`, 0 where this run set none.
    pub fn emit(&self, report: &mut Report) {
        for (name, unit) in CATALOGUE {
            report.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}
