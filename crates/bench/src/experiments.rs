//! The paper's experiments as reusable functions.

use std::path::{Path, PathBuf};

use mcc_cache::{CacheConfig, CacheGeometry};
use mcc_core::{
    Checkpoint, CheckpointPolicy, DirectorySim, DirectorySimConfig, FaultPlan, PlacementPolicy,
    Protocol, RunSpec, SimError, SimResult, SnapshotGeneration,
};
use mcc_stats::{thousands, Table};
use mcc_trace::BlockSize;
use mcc_workloads::Workload;

use crate::obs::ObsOptions;
use crate::Scenario;

/// The per-node cache capacities of Table 2, in kilobytes.
pub const CACHE_SIZES_KB: [u64; 5] = [4, 16, 64, 256, 1024];

/// The block sizes of Table 3.
pub const BLOCK_SIZES: [BlockSize; 5] = BlockSize::TABLE3_SWEEP;

/// One application's results across the four paper protocols
/// (conventional, conservative, basic, aggressive — in
/// [`Protocol::PAPER_SET`] order).
#[derive(Clone, Debug)]
pub struct MessageRow {
    /// The workload simulated.
    pub app: Workload,
    /// Results indexed like [`Protocol::PAPER_SET`].
    pub results: Vec<SimResult>,
}

impl MessageRow {
    /// Percentage reduction in total messages of protocol `i` (in
    /// [`Protocol::PAPER_SET`] order) versus the conventional baseline.
    pub fn pct(&self, i: usize) -> f64 {
        self.results[i].percent_reduction_vs(&self.results[0])
    }
}

/// How [`try_run_protocol`] executes one simulation: shard count,
/// optional crash-safe snapshotting, and an optional snapshot to resume
/// from. The checkpoint flags a binary parses land here via
/// [`Scenario::run_options`].
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Address shards for the parallel engine (0 and 1 both mean
    /// sequential).
    pub shards: usize,
    /// When set, write crash-safe snapshots per
    /// [`CheckpointPolicy::every`] and once on completion.
    pub checkpoint: Option<CheckpointPolicy>,
    /// When set, load this snapshot and replay only the unprocessed
    /// tail instead of starting over.
    pub resume: Option<PathBuf>,
    /// Injected interconnect faults for the run, if any.
    pub faults: Option<FaultPlan>,
    /// Observability outputs (event JSONL, metrics JSON, flight-recorder
    /// ring). When none are requested the router takes the exact
    /// un-instrumented code path.
    pub obs: ObsOptions,
}

impl RunOptions {
    /// Sequential, no snapshots — the plain [`DirectorySim::try_run`] run.
    pub fn sequential() -> Self {
        RunOptions::default()
    }

    /// `shards`-way parallel, no snapshots.
    pub fn sharded(shards: usize) -> Self {
        RunOptions {
            shards,
            ..RunOptions::default()
        }
    }
}

/// Runs `protocol` over `trace` on `DirectorySim`'s default engine, the
/// fast one, routing through the address-sharded
/// parallel engine when more than one shard is requested and the
/// configuration supports it (infinite caches). Finite-cache
/// configurations cannot shard — an insertion may evict a block owned
/// by another shard — so the router degrades them to the sequential
/// engine and says so once on stderr: the results are identical either
/// way, the sharded path is purely a wall-clock optimisation.
///
/// With [`RunOptions::checkpoint`] set the run writes crash-safe
/// snapshots as it goes; with [`RunOptions::resume`] set it continues a
/// killed run from its snapshot instead of starting over.
///
/// # Errors
///
/// Everything [`DirectorySim::try_run`] reports, plus
/// [`SimError::BadCheckpoint`] for an unreadable, corrupt, or
/// mismatched snapshot.
pub fn try_run_protocol(
    protocol: Protocol,
    cfg: &DirectorySimConfig,
    trace: &mcc_trace::Trace,
    opts: &RunOptions,
) -> Result<SimResult, SimError> {
    try_run_protocol_traced(protocol, cfg, trace, opts).map(|(result, _)| result)
}

/// [`try_run_protocol`], additionally reporting which snapshot
/// generation a resumed run actually recovered from: `None` for a
/// fresh (non-resumed) run, otherwise the generation the fallback
/// loader settled on. Sweep supervisors record this per cell so a
/// rotated-generation recovery is visible in the results, not just on
/// stderr.
pub fn try_run_protocol_traced(
    protocol: Protocol,
    cfg: &DirectorySimConfig,
    trace: &mcc_trace::Trace,
    opts: &RunOptions,
) -> Result<(SimResult, Option<SnapshotGeneration>), SimError> {
    let mut sim = DirectorySim::new(protocol, cfg);
    if let Some(plan) = opts.faults {
        sim = sim.with_faults(plan);
    }
    let mut shards = opts.shards.max(1);
    if shards > 1 && cfg.cache != CacheConfig::Infinite {
        degradation_notice(shards);
        shards = 1;
    }
    let resumed = opts
        .resume
        .as_deref()
        .map(load_resume_checkpoint)
        .transpose()?;
    let resume = resumed.as_ref().map(|(checkpoint, _)| checkpoint);
    let spec = RunSpec {
        // A resumed run replays the snapshot's own shard layout.
        shards: resume.map_or(shards, Checkpoint::shard_count),
        checkpoint: opts.checkpoint.as_ref(),
        resume,
        // Plain runs sweep the invariants as they go; checkpointed and
        // resumed runs leave that to the engine's final sweep.
        monitor: opts.checkpoint.is_none() && resume.is_none(),
        ..RunSpec::default()
    };
    let result = if opts.obs.is_active() {
        crate::obs::run_observed(&sim, trace, spec, &opts.obs)
    } else {
        sim.execute(trace, &spec).and_then(|report| report.merged())
    }?;
    Ok((result, resumed.map(|(_, generation)| generation)))
}

/// Loads a resume snapshot with last-good fallback: a primary that
/// fails to load falls back to its rotated `.prev` sibling (with a
/// stderr notice naming the error class), and only when every
/// generation is unusable does this report [`SimError::BadCheckpoint`]
/// — the reason then says whether a previous generation was even there
/// to try.
pub(crate) fn load_resume_checkpoint(
    path: &Path,
) -> Result<(Checkpoint, SnapshotGeneration), SimError> {
    match Checkpoint::load_with_fallback(path) {
        Ok(recovered) => {
            if let Some(err) = &recovered.primary_error {
                eprintln!(
                    "mcc-bench: snapshot {} unusable ({}: {err}); \
                     recovered from the rotated {} generation",
                    path.display(),
                    err.class(),
                    recovered.generation,
                );
            }
            Ok((recovered.checkpoint, recovered.generation))
        }
        Err(e) => {
            let prev = mcc_core::checkpoint::prev_path(path);
            let fallback_note = if prev.exists() {
                format!("; the rotated {} is unusable too", prev.display())
            } else {
                format!("; no rotated {} to fall back to", prev.display())
            };
            Err(SimError::BadCheckpoint {
                reason: format!(
                    "loading {} ({}): {e}{fallback_note}",
                    path.display(),
                    e.class()
                ),
            })
        }
    }
}

/// One-line, once-per-process notice that a sharded request degraded to
/// the sequential engine (the sweeps call the router hundreds of times;
/// repeating the notice would bury the tables it accompanies).
fn degradation_notice(requested: usize) {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        eprintln!(
            "mcc-bench: finite caches cannot shard (an eviction may touch another shard's \
             block); degraded the {requested}-shard request to the sequential engine"
        );
    });
}

/// Panicking convenience wrapper over [`try_run_protocol`] for the
/// experiment renderers, which have no error path of their own: any
/// simulation failure is a bug worth dying loudly on.
pub fn run_protocol(
    protocol: Protocol,
    cfg: &DirectorySimConfig,
    trace: &mcc_trace::Trace,
    shards: usize,
) -> SimResult {
    try_run_protocol(protocol, cfg, trace, &RunOptions::sharded(shards))
        .unwrap_or_else(|e| panic!("{e}"))
}

fn run_all_protocols(cfg: &DirectorySimConfig, scenario: &Scenario, app: Workload) -> MessageRow {
    let trace = scenario.trace(app);
    let base = scenario.run_options();
    let results = Protocol::PAPER_SET
        .iter()
        .map(|&p| run_protocol_cell(p, cfg, &trace, app, &base))
        .collect();
    MessageRow { app, results }
}

/// The snapshot file for one sweep cell: the user-supplied base path
/// suffixed with the cell's workload, protocol, and a hash of its
/// config — a sweep visits the same (app, protocol) pair once per cache
/// or block size, and each cell needs its own snapshot.
fn cell_path(
    base: &std::path::Path,
    cfg: &DirectorySimConfig,
    app: Workload,
    p: Protocol,
) -> PathBuf {
    let cfg_hash = mcc_core::checkpoint::fnv1a_64(format!("{cfg:?}").as_bytes());
    let mut name = base
        .file_name()
        .map_or_else(|| "ckpt".into(), |n| n.to_string_lossy().into_owned());
    name.push_str(&format!(
        ".{}-{p}-{:08x}",
        app.name().to_lowercase().replace(' ', "-"),
        cfg_hash as u32
    ));
    base.with_file_name(name)
}

/// [`run_protocol`] for one cell of a checkpointed sweep: snapshots and
/// resumes use the cell's own derived path, a cell whose snapshot is
/// already complete resumes straight to its result (so a restarted
/// sweep skips finished cells), and an unusable snapshot degrades to a
/// fresh run with a stderr notice instead of failing the sweep.
/// Observability outputs are likewise suffixed per cell, so a sweep
/// with `--events-out`/`--metrics-out` leaves one artifact pair per
/// (workload, protocol, config) instead of overwriting a single file.
fn run_protocol_cell(
    protocol: Protocol,
    cfg: &DirectorySimConfig,
    trace: &mcc_trace::Trace,
    app: Workload,
    base: &RunOptions,
) -> SimResult {
    let mut opts = base.clone();
    if let Some(policy) = &base.checkpoint {
        opts.checkpoint = Some(CheckpointPolicy::new(
            policy.every,
            cell_path(&policy.path, cfg, app, protocol),
        ));
    }
    if let Some(resume_base) = &base.resume {
        let path = cell_path(resume_base, cfg, app, protocol);
        opts.resume = path.exists().then_some(path);
    }
    if let Some(events_base) = &base.obs.events_out {
        opts.obs.events_out = Some(cell_path(events_base, cfg, app, protocol));
    }
    if let Some(metrics_base) = &base.obs.metrics_out {
        opts.obs.metrics_out = Some(cell_path(metrics_base, cfg, app, protocol));
    }
    let resuming = opts.resume.is_some();
    match try_run_protocol(protocol, cfg, trace, &opts) {
        Err(SimError::BadCheckpoint { reason }) if resuming => {
            opts.resume = None;
            eprintln!(
                "mcc-bench: {}/{protocol}: snapshot unusable ({reason}); \
                 rerunning the cell from scratch",
                app.name()
            );
            try_run_protocol(protocol, cfg, trace, &opts).unwrap_or_else(|e| panic!("{e}"))
        }
        other => other.unwrap_or_else(|e| panic!("{e}")),
    }
}

/// One cache-size section of Table 2: message counts for every
/// application under every protocol with finite 4-way caches of
/// `cache_kb` kilobytes per node and 16-byte blocks, using the profiled
/// static page placement (§3.3).
pub fn cache_size_sweep(cache_kb: u64, scenario: &Scenario) -> Vec<MessageRow> {
    let geometry = CacheGeometry::paper_default(cache_kb * 1024, BlockSize::B16)
        .expect("paper cache sizes are valid");
    let cfg = DirectorySimConfig {
        nodes: scenario.nodes,
        block_size: BlockSize::B16,
        cache: CacheConfig::Finite(geometry),
        placement: PlacementPolicy::Profiled,
        ..DirectorySimConfig::default()
    };
    Workload::ALL
        .iter()
        .map(|&app| run_all_protocols(&cfg, scenario, app))
        .collect()
}

/// One block-size section of Table 3: message counts with caches "large
/// enough to eliminate capacity misses" (infinite) at the given block
/// size.
pub fn block_size_sweep(block_size: BlockSize, scenario: &Scenario) -> Vec<MessageRow> {
    let cfg = DirectorySimConfig {
        nodes: scenario.nodes,
        block_size,
        cache: CacheConfig::Infinite,
        placement: PlacementPolicy::Profiled,
        ..DirectorySimConfig::default()
    };
    Workload::ALL
        .iter()
        .map(|&app| run_all_protocols(&cfg, scenario, app))
        .collect()
}

/// Renders rows in the layout of the paper's Tables 2 and 3: message
/// counts in thousands, split into messages without and with data, plus
/// the percentage reduction of each adaptive protocol.
pub fn render_message_rows(title: &str, rows: &[MessageRow]) -> Table {
    let mut table = Table::new([
        "app",
        "conv w/o",
        "conv w/",
        "cons w/o",
        "cons w/",
        "cons %",
        "basic w/o",
        "basic w/",
        "basic %",
        "aggr w/o",
        "aggr w/",
        "aggr %",
    ]);
    table.title(title);
    for row in rows {
        let cells: Vec<String> = std::iter::once(row.app.name().to_string())
            .chain((0..4).flat_map(|i| {
                let c = row.results[i].message_count();
                let mut cols = vec![thousands(c.control), thousands(c.data)];
                if i > 0 {
                    cols.push(format!("{:.1}", row.pct(i)));
                }
                cols
            }))
            .collect();
        table.row(cells);
    }
    table
}

/// §4.2: execution-driven timing comparison. Returns, per workload, the
/// conventional and basic-adaptive execution results (round-robin
/// placement, 64 KB caches — the paper's execution-driven setup).
pub fn exec_time_comparison(scenario: &Scenario) -> Vec<ExecComparison> {
    use mcc_execsim::{ExecSim, ExecSimConfig};
    scenario
        .traces()
        .map(|(app, trace)| {
            let mut cfg = ExecSimConfig {
                nodes: scenario.nodes,
                ..ExecSimConfig::default()
            };
            // The traces contain only shared references; how much private
            // compute happens between them differs hugely per program
            // (Water's O(n^2) force evaluation is compute-bound, MP3D is
            // communication-bound) and determines how much of the message
            // savings shows up as time savings.
            cfg.latency.compute_between_refs = compute_density(app);
            ExecComparison {
                app,
                conventional: ExecSim::new(Protocol::Conventional, &cfg).run(&trace),
                basic: ExecSim::new(Protocol::Basic, &cfg).run(&trace),
            }
        })
        .collect()
}

/// Average private compute cycles between shared references, per
/// application (see [`exec_time_comparison`]).
fn compute_density(app: Workload) -> u64 {
    match app {
        Workload::Cholesky => 6,
        Workload::LocusRoute => 10,
        Workload::Mp3d => 120,
        Workload::Pthor => 12,
        Workload::Water => 400,
    }
}

/// One workload's §4.2 timing results.
#[derive(Clone, Debug)]
pub struct ExecComparison {
    /// The workload simulated.
    pub app: Workload,
    /// The conventional protocol's timing.
    pub conventional: mcc_execsim::ExecResult,
    /// The basic adaptive protocol's timing.
    pub basic: mcc_execsim::ExecResult,
}

impl ExecComparison {
    /// Percentage execution-time reduction of basic vs conventional.
    pub fn time_reduction(&self) -> f64 {
        self.basic.percent_faster_than(&self.conventional)
    }

    /// Percentage read-miss latency reduction of basic vs conventional.
    pub fn read_latency_reduction(&self) -> f64 {
        let base = self.conventional.avg_read_miss_latency();
        if base == 0.0 {
            0.0
        } else {
            100.0 * (base - self.basic.avg_read_miss_latency()) / base
        }
    }
}

/// §4.3: bus-based evaluation. Returns, per workload, the transaction
/// statistics of MESI and the adaptive snooping protocol with finite
/// caches of `cache_kb` kilobytes (or infinite when `None`).
pub fn bus_sweep(cache_kb: Option<u64>, scenario: &Scenario) -> Vec<BusComparison> {
    use mcc_snoop::{BusSim, BusSimConfig, SnoopProtocol};
    let cache = match cache_kb {
        Some(kb) => CacheConfig::Finite(
            CacheGeometry::paper_default(kb * 1024, BlockSize::B16)
                .expect("paper cache sizes are valid"),
        ),
        None => CacheConfig::Infinite,
    };
    let cfg = BusSimConfig {
        nodes: scenario.nodes,
        block_size: BlockSize::B16,
        cache,
    };
    scenario
        .traces()
        .map(|(app, trace)| BusComparison {
            app,
            mesi: BusSim::new(SnoopProtocol::Mesi, &cfg).run(&trace),
            adaptive: BusSim::new(SnoopProtocol::Adaptive, &cfg).run(&trace),
            migrate_first: BusSim::new(SnoopProtocol::AdaptiveMigrateFirst, &cfg).run(&trace),
        })
        .collect()
}

/// One workload's §4.3 bus results.
#[derive(Clone, Debug)]
pub struct BusComparison {
    /// The workload simulated.
    pub app: Workload,
    /// Baseline MESI statistics.
    pub mesi: mcc_snoop::BusStats,
    /// Adaptive snooping statistics.
    pub adaptive: mcc_snoop::BusStats,
    /// The §2.1 migrate-first variant's statistics.
    pub migrate_first: mcc_snoop::BusStats,
}

impl BusComparison {
    /// Percentage cost reduction of the adaptive protocol under `model`.
    pub fn reduction(&self, model: mcc_snoop::BusCostModel) -> f64 {
        mcc_stats::percent_reduction(
            self.mesi.cost(model) as f64,
            self.adaptive.cost(model) as f64,
        )
    }
}

/// §4.1 cost-ratio discussion: percentage reductions of the aggressive
/// protocol under different message cost models, per block size.
pub fn cost_ratio_table(scenario: &Scenario) -> Table {
    let mut table = Table::new(["block", "app", "1:1 %", "2:1 %", "4:1 %", "per-16B %"]);
    table.title("Aggressive-protocol reduction under data:control cost ratios");
    for block in BLOCK_SIZES {
        for row in block_size_sweep(block, scenario) {
            let base = &row.results[0];
            let aggr = &row.results[3];
            let cells = [1.0, 2.0, 4.0]
                .iter()
                .map(|&ratio| {
                    mcc_stats::percent_reduction(
                        base.message_count().weighted(ratio),
                        aggr.message_count().weighted(ratio),
                    )
                })
                .collect::<Vec<_>>();
            let per16 = mcc_stats::percent_reduction(
                base.message_count().per_16_bytes(block.bytes()),
                aggr.message_count().per_16_bytes(block.bytes()),
            );
            table.row([
                block.to_string(),
                row.app.name().to_string(),
                format!("{:.1}", cells[0]),
                format!("{:.1}", cells[1]),
                format!("{:.1}", cells[2]),
                format!("{per16:.1}"),
            ]);
        }
    }
    table
}

/// A1 ablation: sweep the three §2 policy axes on every workload with
/// 16-byte blocks, under capacity-free caches *and* small (16 KB) finite
/// caches — the remember-when-uncached axis only matters when blocks
/// actually leave the caches. Returns `(policy label, workload,
/// % reduction vs conventional)` triples; labels carry the cache kind.
pub fn policy_ablation(scenario: &Scenario) -> Vec<(String, Workload, f64)> {
    let small_cache = CacheGeometry::paper_default(16 * 1024, BlockSize::B16)
        .expect("paper cache sizes are valid");
    let mut out = Vec::new();
    for (cache_label, cache) in [
        ("inf", CacheConfig::Infinite),
        ("16K", CacheConfig::Finite(small_cache)),
    ] {
        let cfg = DirectorySimConfig {
            nodes: scenario.nodes,
            block_size: BlockSize::B16,
            cache,
            placement: PlacementPolicy::Profiled,
            ..DirectorySimConfig::default()
        };
        for (app, trace) in scenario.traces() {
            let base = DirectorySim::new(Protocol::Conventional, &cfg).run(&trace);
            for initial_migratory in [false, true] {
                for events_required in [1u8, 2, 3] {
                    for remember_when_uncached in [false, true] {
                        let policy = mcc_core::AdaptivePolicy {
                            initial_migratory,
                            events_required,
                            remember_when_uncached,
                            demote_on_write_miss: false,
                        };
                        let result = DirectorySim::new(Protocol::Custom(policy), &cfg).run(&trace);
                        let label = format!(
                            "{cache_label} init={} events={} remember={}",
                            if initial_migratory { "mig" } else { "rep" },
                            events_required,
                            remember_when_uncached
                        );
                        out.push((label, app, result.percent_reduction_vs(&base)));
                    }
                }
            }
        }
    }
    out
}
