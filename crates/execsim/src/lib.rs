//! Execution-driven timing simulation of a CC-NUMA multiprocessor
//! (§4.2 of the paper).
//!
//! The paper's trace-driven evaluation counts messages; its
//! execution-driven evaluation (with the `dixie` DASH simulator) asks
//! how much *time* the saved messages buy. This crate answers the same
//! question over the same protocol engine: each node executes its own
//! reference stream, stalls for the latency of every coherence
//! operation, and contends for the home nodes' memory controllers. The
//! global interleaving is timing-driven — the node with the smallest
//! local clock issues next — which is what distinguishes
//! execution-driven from trace-driven simulation.
//!
//! Following the paper, the execution-driven configuration uses
//! round-robin page placement (§3.3) rather than the profiled placement
//! of the trace-driven runs.
//!
//! # Examples
//!
//! ```
//! use mcc_core::Protocol;
//! use mcc_execsim::{ExecSim, ExecSimConfig};
//! use mcc_trace::{Addr, MemRef, NodeId, Trace};
//!
//! // Sixty-four counters handed around four nodes.
//! let mut trace = Trace::new();
//! for round in 0..12u64 {
//!     for obj in 0..64u64 {
//!         let node = NodeId::new(((round + obj) % 4) as u16);
//!         trace.push(MemRef::read(node, Addr::new(obj * 64)));
//!         trace.push(MemRef::write(node, Addr::new(obj * 64)));
//!     }
//! }
//!
//! let config = ExecSimConfig { nodes: 4, ..ExecSimConfig::default() };
//! let conventional = ExecSim::new(Protocol::Conventional, &config).run(&trace);
//! let adaptive = ExecSim::new(Protocol::Basic, &config).run(&trace);
//! assert!(adaptive.cycles <= conventional.cycles);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::fs;
use std::io::{Read, Write};
use std::path::Path;

use mcc_cache::{CacheConfig, CacheGeometry};
use mcc_core::checkpoint::{
    fnv1a_64, prev_path, put_u16, put_u64, read_envelope, save_rotating, trace_fingerprint,
    write_envelope, PayloadReader,
};
use mcc_core::{
    CheckpointError, CheckpointPolicy, DirectoryEngine, DirectorySimConfig, Engine, EngineSnapshot,
    EventCounts, FaultPlan, MessageBreakdown, Monitor, PlacementPolicy, Protocol, RealStorage,
    SimError, StepKind,
};
use mcc_obs::{Event as ObsEvent, SharedSink};
use mcc_placement::PagePlacement;
use mcc_trace::{BlockSize, MemRef, NodeId, Trace};

/// The interconnect shape used to turn message counts into wire time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Topology {
    /// Every pair of nodes is one hop apart (a crossbar-like ideal).
    #[default]
    Uniform,
    /// A 2-D mesh of ⌈√n⌉ columns (DASH's interconnect): wire time is
    /// proportional to Manhattan distance.
    Mesh2D,
}

impl Topology {
    /// Network hops between two nodes.
    ///
    /// Under [`Topology::Mesh2D`] nodes are laid out row-major on a
    /// ⌈√nodes⌉-wide grid.
    pub fn hops(self, a: NodeId, b: NodeId, nodes: u16) -> u64 {
        match self {
            Topology::Uniform => u64::from(a != b),
            Topology::Mesh2D => {
                let width = (f64::from(nodes)).sqrt().ceil() as usize;
                let (ax, ay) = (a.index() % width, a.index() / width);
                let (bx, by) = (b.index() % width, b.index() / width);
                (ax.abs_diff(bx) + ay.abs_diff(by)) as u64
            }
        }
    }
}

/// Latency parameters, in processor cycles.
///
/// The defaults are DASH-flavoured: single-cycle hits, a few tens of
/// cycles to local memory, and a network/protocol cost proportional to
/// the messages an operation puts on its critical path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyModel {
    /// A cache hit (and the base cost of every reference).
    pub cache_hit: u64,
    /// Memory/directory access at the home on any miss or upgrade.
    pub memory_access: u64,
    /// Network + service cost per inter-node message on the operation's
    /// critical path.
    pub per_message: u64,
    /// Memory-controller occupancy the operation imposes on the home
    /// node per message; concurrent requests to the same home queue.
    pub controller_occupancy: u64,
    /// Compute cycles between consecutive shared references (the private
    /// work the traces exclude).
    pub compute_between_refs: u64,
    /// Additional wire cycles per network hop between the requester and
    /// the home (used by [`Topology::Mesh2D`]).
    pub per_hop: u64,
    /// Stall cycles per unit of NACK/timeout backoff when a
    /// [`FaultPlan`] injects interconnect faults (one unit is the first
    /// retry's wait; later retries wait exponentially more units).
    pub backoff_unit: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            cache_hit: 1,
            memory_access: 20,
            per_message: 25,
            controller_occupancy: 24,
            compute_between_refs: 4,
            per_hop: 6,
            backoff_unit: 16,
        }
    }
}

/// Configuration of the execution-driven simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecSimConfig {
    /// Number of nodes.
    pub nodes: u16,
    /// Cache block size.
    pub block_size: BlockSize,
    /// Per-node cache model.
    pub cache: CacheConfig,
    /// Latency parameters.
    pub latency: LatencyModel,
    /// Interconnect topology.
    pub topology: Topology,
    /// Injected interconnect faults, if any. Faulted retries charge
    /// [`LatencyModel::backoff_unit`] stall cycles per backoff unit.
    pub faults: Option<FaultPlan>,
    /// Number of address shards stall cycles are attributed to in
    /// [`ExecResult::per_shard_stall_cycles`], using the same
    /// [`shard_of_block`](mcc_trace::shard_of_block) function as the
    /// parallel trace-driven engine. Purely an accounting view — the
    /// timing simulation itself is unaffected. Values below 1 are
    /// treated as 1.
    pub stall_shards: usize,
}

impl Default for ExecSimConfig {
    /// Sixteen nodes, 16-byte blocks, 256 KB 4-way caches (DASH-like
    /// secondary caches), default latencies, reliable interconnect.
    fn default() -> Self {
        ExecSimConfig {
            nodes: 16,
            block_size: BlockSize::B16,
            cache: CacheConfig::Finite(
                CacheGeometry::paper_default(256 * 1024, BlockSize::B16)
                    .expect("valid default geometry"),
            ),
            latency: LatencyModel::default(),
            topology: Topology::Uniform,
            faults: None,
            stall_shards: 1,
        }
    }
}

/// A fixed-width bucket histogram of operation latencies.
///
/// # Examples
///
/// ```
/// use mcc_execsim::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new(16);
/// for latency in [10, 20, 30, 1000] {
///     h.record(latency);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(50.0) <= h.percentile(95.0));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    bucket_width: u64,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    max: u64,
}

impl LatencyHistogram {
    const BUCKETS: usize = 64;

    /// Creates a histogram with 64 buckets of `bucket_width` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is zero.
    pub fn new(bucket_width: u64) -> Self {
        assert!(bucket_width > 0, "bucket width must be positive");
        LatencyHistogram {
            bucket_width,
            buckets: vec![0; Self::BUCKETS],
            overflow: 0,
            count: 0,
            max: 0,
        }
    }

    /// Records one latency observation.
    pub fn record(&mut self, latency: u64) {
        let index = (latency / self.bucket_width) as usize;
        if index < Self::BUCKETS {
            self.buckets[index] += 1;
        } else {
            self.overflow += 1;
        }
        self.count += 1;
        self.max = self.max.max(latency);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest observed latency.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The upper bound of the bucket containing the `p`-th percentile
    /// observation (`max` for observations past the last bucket).
    /// Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 100.0`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return (i as u64 + 1) * self.bucket_width;
            }
        }
        self.max
    }
}

impl Default for LatencyHistogram {
    /// 64 buckets of 16 cycles.
    fn default() -> Self {
        LatencyHistogram::new(16)
    }
}

/// The outcome of one execution-driven run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecResult {
    /// The protocol simulated.
    pub protocol: Protocol,
    /// Execution time of the parallel section: the largest node finish
    /// time, in cycles.
    pub cycles: u64,
    /// Finish time per node.
    pub per_node_cycles: Vec<u64>,
    /// Cycles processors spent stalled on coherence operations.
    pub stall_cycles: u64,
    /// Stall cycles attributed to each address shard (length
    /// [`ExecSimConfig::stall_shards`]); sums to `stall_cycles`. Shows
    /// which slice of the address space a sharded trace-driven run
    /// would spend its time on.
    pub per_shard_stall_cycles: Vec<u64>,
    /// Cycles spent queueing for busy home memory controllers (a
    /// contention measure; the paper observes the adaptive protocol
    /// nearly eliminates this for read misses).
    pub contention_cycles: u64,
    /// Cycles processors spent backed off waiting to retry NACKed or
    /// timed-out transactions (zero on a reliable interconnect).
    pub backoff_cycles: u64,
    /// Read misses observed.
    pub read_misses: u64,
    /// Total latency of all read misses, for average-latency reporting.
    pub read_miss_latency_total: u64,
    /// Distribution of read-miss latencies.
    pub read_miss_latency: LatencyHistogram,
    /// Protocol event counts.
    pub events: EventCounts,
    /// Inter-node message tally.
    pub messages: MessageBreakdown,
}

impl ExecResult {
    /// Average read-miss latency in cycles (0 when no read misses).
    pub fn avg_read_miss_latency(&self) -> f64 {
        if self.read_misses == 0 {
            0.0
        } else {
            self.read_miss_latency_total as f64 / self.read_misses as f64
        }
    }

    /// Percentage reduction in execution time versus `baseline`.
    pub fn percent_faster_than(&self, baseline: &ExecResult) -> f64 {
        if baseline.cycles == 0 {
            0.0
        } else {
            100.0 * (baseline.cycles as f64 - self.cycles as f64) / baseline.cycles as f64
        }
    }
}

impl fmt::Display for ExecResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} cycles ({} stalled, {} queued), avg read-miss latency {:.1}",
            self.protocol,
            self.cycles,
            self.stall_cycles,
            self.contention_cycles,
            self.avg_read_miss_latency()
        )
    }
}

/// An execution-driven simulation of one protocol.
#[derive(Clone, Copy, Debug)]
pub struct ExecSim {
    protocol: Protocol,
    config: ExecSimConfig,
}

impl ExecSim {
    /// Creates a simulation of `protocol` under `config`.
    pub fn new(protocol: Protocol, config: &ExecSimConfig) -> Self {
        ExecSim {
            protocol,
            config: *config,
        }
    }

    /// Runs the trace to completion.
    ///
    /// The trace's global order is used only to recover each node's
    /// program order; the simulated interleaving is then timing-driven.
    ///
    /// # Panics
    ///
    /// Panics if the trace references nodes outside the configuration, on
    /// a coherence violation (a bug in `mcc-core`), or if a configured
    /// fault plan exhausts its retries.
    pub fn run(&self, trace: &Trace) -> ExecResult {
        self.simulate(trace, None).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`ExecSim::run`], but reports failures — coherence
    /// violations, retry exhaustion, livelock, bad node indices — as a
    /// structured [`SimError`] instead of panicking, and sweeps the
    /// engine's global invariants with a [`Monitor`] throughout the run.
    pub fn try_run(&self, trace: &Trace) -> Result<ExecResult, SimError> {
        self.simulate(trace, Some(Monitor::for_run_length(trace.len() as u64)))
    }

    /// Like [`ExecSim::try_run`], but streams the inner protocol
    /// engine's structured observability events into `sink` as the
    /// timing simulation progresses. Step numbering follows the
    /// timing-driven interleaving, which is deterministic for a given
    /// trace and configuration. The result is bit-exact with an
    /// unobserved [`ExecSim::try_run`].
    ///
    /// # Errors
    ///
    /// As for [`ExecSim::try_run`].
    pub fn try_run_with_sink(
        &self,
        trace: &Trace,
        sink: SharedSink,
    ) -> Result<ExecResult, SimError> {
        let monitor = Monitor::for_run_length(trace.len() as u64);
        match self.simulate_inner(trace, Some(monitor), None, None, None, Some(&sink))? {
            ExecOutcome::Finished { result, .. } => Ok(*result),
            ExecOutcome::Suspended(_) => unreachable!("no suspension budget was set"),
        }
    }

    /// Runs the trace with periodic crash-safe snapshots.
    ///
    /// Every [`CheckpointPolicy::every`] processed references the full
    /// simulation state — protocol engine, per-node stream cursors, the
    /// issue heap, controller occupancy, and every accumulated counter
    /// (stall, contention, backoff, read-miss latency histogram) — is
    /// written atomically to [`CheckpointPolicy::path`]. A killed run
    /// restarts from the latest snapshot via [`ExecSim::resume_from`]
    /// and finishes with a bit-identical [`ExecResult`]. A final,
    /// complete snapshot is written when the run finishes.
    ///
    /// # Errors
    ///
    /// Everything [`ExecSim::try_run`] reports, plus
    /// [`SimError::BadCheckpoint`] when a snapshot cannot be written.
    pub fn run_resumable(
        &self,
        trace: &Trace,
        policy: &CheckpointPolicy,
    ) -> Result<ExecResult, SimError> {
        let monitor = Monitor::for_run_length(trace.len() as u64);
        match self.simulate_inner(trace, Some(monitor), None, None, Some(policy), None)? {
            ExecOutcome::Finished { result, .. } => Ok(*result),
            ExecOutcome::Suspended(_) => unreachable!("no suspension budget was set"),
        }
    }

    /// Continues a run from `checkpoint` to completion.
    ///
    /// The result is bit-identical to the uninterrupted run — including
    /// the stall, contention, and backoff cycle counters and the
    /// read-miss latency histogram, which resume from their snapshotted
    /// values. Pass a `policy` to keep writing snapshots while the
    /// resumed run progresses.
    ///
    /// # Errors
    ///
    /// [`SimError::BadCheckpoint`] when the checkpoint does not match
    /// this simulation (different trace, protocol, or configuration),
    /// plus everything [`ExecSim::try_run`] reports.
    pub fn resume_from(
        &self,
        trace: &Trace,
        checkpoint: &ExecCheckpoint,
        policy: Option<&CheckpointPolicy>,
    ) -> Result<ExecResult, SimError> {
        let monitor = Monitor::for_run_length(trace.len() as u64);
        match self.simulate_inner(trace, Some(monitor), Some(checkpoint), None, policy, None)? {
            ExecOutcome::Finished { result, .. } => Ok(*result),
            ExecOutcome::Suspended(_) => unreachable!("no suspension budget was set"),
        }
    }

    /// Runs until `refs` references have been processed and returns the
    /// snapshot at that boundary — a programmatic "kill" for testing
    /// resume equivalence. If the trace has fewer than `refs`
    /// references, the returned checkpoint is the complete final state.
    ///
    /// # Errors
    ///
    /// Everything [`ExecSim::try_run`] reports.
    pub fn checkpoint_after(&self, trace: &Trace, refs: u64) -> Result<ExecCheckpoint, SimError> {
        let monitor = Monitor::for_run_length(trace.len() as u64);
        match self.simulate_inner(trace, Some(monitor), None, Some(refs), None, None)? {
            ExecOutcome::Suspended(ck) => Ok(*ck),
            ExecOutcome::Finished { checkpoint, .. } => {
                Ok(*checkpoint.expect("suspension budget forces a final snapshot"))
            }
        }
    }

    /// Canonical identity of this simulation: protocol plus every
    /// configuration field, hashed. A checkpoint taken under one
    /// identity refuses to resume under another.
    fn config_hash(&self) -> u64 {
        fnv1a_64(format!("{:?}|{:?}", self.protocol, self.config).as_bytes())
    }

    fn simulate(&self, trace: &Trace, monitor: Option<Monitor>) -> Result<ExecResult, SimError> {
        match self.simulate_inner(trace, monitor, None, None, None, None)? {
            ExecOutcome::Finished { result, .. } => Ok(*result),
            ExecOutcome::Suspended(_) => unreachable!("no suspension budget was set"),
        }
    }

    fn simulate_inner(
        &self,
        trace: &Trace,
        mut monitor: Option<Monitor>,
        resume: Option<&ExecCheckpoint>,
        suspend_after: Option<u64>,
        policy: Option<&CheckpointPolicy>,
        sink: Option<&SharedSink>,
    ) -> Result<ExecOutcome, SimError> {
        let nodes = usize::from(self.config.nodes);
        let lat = self.config.latency;
        let dir_config = DirectorySimConfig {
            nodes: self.config.nodes,
            block_size: self.config.block_size,
            cache: self.config.cache,
            placement: PlacementPolicy::RoundRobin,
            ..DirectorySimConfig::default()
        };
        // Round-robin placement, as the paper's execution-driven runs use.
        let placement = PagePlacement::round_robin(self.config.nodes);

        let streams: Vec<Vec<MemRef>> = {
            let mut per_node = trace.split_by_node();
            if per_node.len() > nodes {
                return Err(SimError::NodeOutOfRange {
                    node: NodeId::new((per_node.len() - 1) as u16),
                    nodes: self.config.nodes,
                });
            }
            per_node.resize(nodes, Trace::new());
            per_node
                .into_iter()
                .map(|t| t.into_iter().collect())
                .collect()
        };

        let stall_shards = self.config.stall_shards.max(1);
        let mut engine;
        let mut cursors;
        let mut controller_free;
        let mut processed;
        let mut result;
        let mut ready: BinaryHeap<Reverse<(u64, usize)>>;
        if let Some(ck) = resume {
            ck.validate(self, trace, &streams, stall_shards)?;
            engine =
                ck.engine
                    .restore(self.protocol, &dir_config, placement, self.config.faults)?;
            cursors = ck.cursors.iter().map(|&c| c as usize).collect::<Vec<_>>();
            controller_free = ck.controller_free.clone();
            processed = ck.processed;
            result = ck.rebuild_result(self.protocol);
            ready = ck
                .queued
                .iter()
                .enumerate()
                .filter_map(|(n, t)| t.map(|t| Reverse((t, n))))
                .collect();
            if let Some(s) = sink {
                s.emit(&ObsEvent::CheckpointLoaded {
                    step: engine.steps(),
                    records: processed,
                });
            }
        } else {
            engine = DirectoryEngine::new(self.protocol, &dir_config, placement);
            if let Some(plan) = self.config.faults {
                engine = engine.with_faults(plan);
            }
            cursors = vec![0usize; nodes];
            controller_free = vec![0u64; nodes];
            processed = 0;
            result = ExecResult {
                protocol: self.protocol,
                cycles: 0,
                per_node_cycles: vec![0; nodes],
                stall_cycles: 0,
                per_shard_stall_cycles: vec![0; stall_shards],
                contention_cycles: 0,
                backoff_cycles: 0,
                read_misses: 0,
                read_miss_latency_total: 0,
                read_miss_latency: LatencyHistogram::default(),
                events: EventCounts::default(),
                messages: MessageBreakdown::default(),
            };
            // Min-heap of (next issue time, node): the least-advanced
            // node issues its next reference.
            ready = (0..nodes)
                .filter(|&n| !streams[n].is_empty())
                .map(|n| Reverse((0u64, n)))
                .collect();
        }
        if let Some(s) = sink {
            engine.set_sink(Some(s.clone()));
        }

        while let Some(Reverse((now, n))) = ready.pop() {
            let Some(r) = streams[n].get(cursors[n]).copied() else {
                result.per_node_cycles[n] = result.per_node_cycles[n].max(now);
                continue;
            };
            cursors[n] += 1;
            let info = engine.try_step(r)?;
            if let Some(m) = monitor.as_mut() {
                m.after_step(&engine)?;
            }
            let shard =
                mcc_trace::shard_of_block(r.addr.block(self.config.block_size), stall_shards);
            let mut latency = lat.cache_hit;
            if !info.kind.is_local() {
                // The operation travels to the home (and possibly
                // beyond); every critical-path message adds wire and
                // service time, plus per-hop wire delay on the
                // requester-home round trip.
                latency += lat.memory_access + lat.per_message * info.messages.total();
                latency += lat.per_hop
                    * self
                        .config
                        .topology
                        .hops(r.node, info.home, self.config.nodes)
                    * 2;
                // Queue at the home memory controller.
                let home = info.home.index();
                let occupancy = lat.controller_occupancy * info.messages.total().max(1);
                let start = now.max(controller_free[home]);
                let queued = start - now;
                controller_free[home] = start + occupancy;
                latency += queued;
                result.contention_cycles += queued;
                result.stall_cycles += latency - lat.cache_hit;
                result.per_shard_stall_cycles[shard] += latency - lat.cache_hit;
            }
            // Backed-off retries stall the requester before the
            // transaction finally goes through.
            let backoff = info.backoff_units * lat.backoff_unit;
            latency += backoff;
            result.backoff_cycles += backoff;
            result.stall_cycles += backoff;
            result.per_shard_stall_cycles[shard] += backoff;
            if matches!(
                info.kind,
                StepKind::ReadMissReplicate | StepKind::ReadMissMigrate
            ) {
                result.read_misses += 1;
                result.read_miss_latency_total += latency;
                result.read_miss_latency.record(latency);
            }
            let next = now + latency + lat.compute_between_refs;
            result.per_node_cycles[n] = result.per_node_cycles[n].max(next);
            ready.push(Reverse((next, n)));
            processed += 1;

            // The boundary is measured in absolute processed references,
            // so a resumed run snapshots at the same points the original
            // would have.
            let at_save = policy.is_some_and(|p| p.every > 0 && processed % p.every == 0);
            let at_suspend = suspend_after == Some(processed);
            if at_save || at_suspend {
                let ck = self.capture(
                    trace,
                    processed,
                    &cursors,
                    &ready,
                    &controller_free,
                    &result,
                    &engine,
                );
                if at_save {
                    save_checkpoint(&ck, policy.expect("at_save implies a policy"))?;
                    if let Some(s) = sink {
                        s.emit(&ObsEvent::CheckpointSaved {
                            step: engine.steps(),
                            records: processed,
                        });
                    }
                }
                if at_suspend {
                    return Ok(ExecOutcome::Suspended(Box::new(ck)));
                }
            }
        }

        match monitor.as_mut() {
            Some(m) => m.verify(&engine)?,
            None => engine.verify()?,
        }
        let checkpoint = if policy.is_some() || suspend_after.is_some() {
            let ck = self.capture(
                trace,
                processed,
                &cursors,
                &ready,
                &controller_free,
                &result,
                &engine,
            );
            if let Some(p) = policy {
                save_checkpoint(&ck, p)?;
                if let Some(s) = sink {
                    s.emit(&ObsEvent::CheckpointSaved {
                        step: engine.steps(),
                        records: processed,
                    });
                }
            }
            Some(Box::new(ck))
        } else {
            None
        };
        result.cycles = result.per_node_cycles.iter().copied().max().unwrap_or(0);
        result.events = engine.events();
        result.messages = engine.messages();
        Ok(ExecOutcome::Finished {
            result: Box::new(result),
            checkpoint,
        })
    }

    /// Freezes the loop state between two heap iterations.
    #[allow(clippy::too_many_arguments)]
    fn capture(
        &self,
        trace: &Trace,
        processed: u64,
        cursors: &[usize],
        ready: &BinaryHeap<Reverse<(u64, usize)>>,
        controller_free: &[u64],
        result: &ExecResult,
        engine: &DirectoryEngine,
    ) -> ExecCheckpoint {
        let mut queued: Vec<Option<u64>> = vec![None; cursors.len()];
        for &Reverse((t, n)) in ready.iter() {
            queued[n] = Some(t);
        }
        let h = &result.read_miss_latency;
        ExecCheckpoint {
            config_hash: self.config_hash(),
            trace_len: trace.len() as u64,
            trace_hash: trace_fingerprint(trace),
            processed,
            cursors: cursors.iter().map(|&c| c as u64).collect(),
            queued,
            controller_free: controller_free.to_vec(),
            per_node_cycles: result.per_node_cycles.clone(),
            stall_cycles: result.stall_cycles,
            per_shard_stall_cycles: result.per_shard_stall_cycles.clone(),
            contention_cycles: result.contention_cycles,
            backoff_cycles: result.backoff_cycles,
            read_misses: result.read_misses,
            read_miss_latency_total: result.read_miss_latency_total,
            hist_bucket_width: h.bucket_width,
            hist_buckets: h.buckets.clone(),
            hist_overflow: h.overflow,
            hist_count: h.count,
            hist_max: h.max,
            engine: engine.snapshot(),
        }
    }
}

/// What a supervised simulation loop hands back: either the finished
/// result (plus the final snapshot, when one was requested) or the
/// checkpoint at the requested suspension boundary.
enum ExecOutcome {
    Finished {
        result: Box<ExecResult>,
        checkpoint: Option<Box<ExecCheckpoint>>,
    },
    Suspended(Box<ExecCheckpoint>),
}

fn save_checkpoint(ck: &ExecCheckpoint, policy: &CheckpointPolicy) -> Result<(), SimError> {
    ck.save(&policy.path).map_err(|e| SimError::BadCheckpoint {
        reason: format!("writing {}: {e}", policy.path.display()),
    })
}

/// Magic bytes opening every serialized execution-driven checkpoint:
/// `MCCX` + format version 1, in the family of
/// [`mcc_core::checkpoint::CHECKPOINT_MAGIC`] and the MCCT trace header.
pub const EXEC_CHECKPOINT_MAGIC: [u8; 8] = *b"MCCX\x01\0\0\0";

/// A crash-safe snapshot of an execution-driven simulation in flight.
///
/// Captures everything the timing loop needs to continue bit-exactly:
/// the protocol engine (via [`EngineSnapshot`]), each node's position in
/// its reference stream, the pending issue heap, per-home controller
/// occupancy, and every accumulated counter — stall, contention, and
/// backoff cycles, per-shard stall attribution, and the read-miss
/// latency histogram. Serialized in the same checksummed envelope as the
/// trace-driven [`mcc_core::Checkpoint`], under its own magic
/// ([`EXEC_CHECKPOINT_MAGIC`]).
///
/// Produced by [`ExecSim::run_resumable`] and
/// [`ExecSim::checkpoint_after`]; consumed by [`ExecSim::resume_from`].
#[derive(Clone, Debug, PartialEq)]
pub struct ExecCheckpoint {
    config_hash: u64,
    trace_len: u64,
    trace_hash: u64,
    processed: u64,
    cursors: Vec<u64>,
    queued: Vec<Option<u64>>,
    controller_free: Vec<u64>,
    per_node_cycles: Vec<u64>,
    stall_cycles: u64,
    per_shard_stall_cycles: Vec<u64>,
    contention_cycles: u64,
    backoff_cycles: u64,
    read_misses: u64,
    read_miss_latency_total: u64,
    hist_bucket_width: u64,
    hist_buckets: Vec<u64>,
    hist_overflow: u64,
    hist_count: u64,
    hist_max: u64,
    engine: EngineSnapshot,
}

impl ExecCheckpoint {
    /// References processed when the snapshot was taken.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// References in the trace the snapshot belongs to.
    pub fn total_records(&self) -> u64 {
        self.trace_len
    }

    /// Whether the snapshotted run had already processed every
    /// reference (resuming only re-verifies and reports).
    pub fn is_complete(&self) -> bool {
        self.processed == self.trace_len
    }

    /// Rejects snapshots that do not describe *this* simulation of
    /// *this* trace, before any state is rebuilt from them.
    fn validate(
        &self,
        sim: &ExecSim,
        trace: &Trace,
        streams: &[Vec<MemRef>],
        stall_shards: usize,
    ) -> Result<(), SimError> {
        let bad = |reason: String| Err(SimError::BadCheckpoint { reason });
        if self.config_hash != sim.config_hash() {
            return bad("protocol or configuration differs from the snapshotted run".into());
        }
        if self.trace_len != trace.len() as u64 {
            return bad(format!(
                "trace has {} references but the snapshot expects {}",
                trace.len(),
                self.trace_len
            ));
        }
        if self.trace_hash != trace_fingerprint(trace) {
            return bad("trace fingerprint differs from the snapshotted run".into());
        }
        let nodes = streams.len();
        if self.cursors.len() != nodes
            || self.queued.len() != nodes
            || self.controller_free.len() != nodes
            || self.per_node_cycles.len() != nodes
        {
            return bad(format!("snapshot does not describe {nodes} nodes"));
        }
        if self.per_shard_stall_cycles.len() != stall_shards {
            return bad(format!(
                "snapshot attributes stalls to {} shards, configuration wants {stall_shards}",
                self.per_shard_stall_cycles.len()
            ));
        }
        for (n, (&cursor, stream)) in self.cursors.iter().zip(streams).enumerate() {
            if cursor > stream.len() as u64 {
                return bad(format!(
                    "node {n} cursor {cursor} past its {}-reference stream",
                    stream.len()
                ));
            }
        }
        if self.cursors.iter().sum::<u64>() != self.processed {
            return bad("per-node cursors disagree with the processed count".into());
        }
        if self.engine.steps() != self.processed {
            return bad("engine step count disagrees with the processed count".into());
        }
        if self.hist_bucket_width == 0 {
            return bad("histogram bucket width is zero".into());
        }
        Ok(())
    }

    /// Rebuilds the in-flight accumulators (`events`/`messages` stay at
    /// their defaults — the finish path reads them off the engine, which
    /// carries its own cumulative tallies through the snapshot).
    fn rebuild_result(&self, protocol: Protocol) -> ExecResult {
        ExecResult {
            protocol,
            cycles: 0,
            per_node_cycles: self.per_node_cycles.clone(),
            stall_cycles: self.stall_cycles,
            per_shard_stall_cycles: self.per_shard_stall_cycles.clone(),
            contention_cycles: self.contention_cycles,
            backoff_cycles: self.backoff_cycles,
            read_misses: self.read_misses,
            read_miss_latency_total: self.read_miss_latency_total,
            read_miss_latency: LatencyHistogram {
                bucket_width: self.hist_bucket_width,
                buckets: self.hist_buckets.clone(),
                overflow: self.hist_overflow,
                count: self.hist_count,
                max: self.hist_max,
            },
            events: EventCounts::default(),
            messages: MessageBreakdown::default(),
        }
    }

    /// Serializes the snapshot to `w` in the checksummed MCCX envelope.
    ///
    /// # Errors
    ///
    /// Returns any error produced by the underlying writer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), CheckpointError> {
        let mut p = Vec::new();
        put_u64(&mut p, self.config_hash);
        put_u64(&mut p, self.trace_len);
        put_u64(&mut p, self.trace_hash);
        put_u64(&mut p, self.processed);
        put_u16(&mut p, self.cursors.len() as u16);
        put_u64(&mut p, self.per_shard_stall_cycles.len() as u64);
        for &c in &self.cursors {
            put_u64(&mut p, c);
        }
        for q in &self.queued {
            match q {
                Some(t) => {
                    p.push(1);
                    put_u64(&mut p, *t);
                }
                None => p.push(0),
            }
        }
        for &f in &self.controller_free {
            put_u64(&mut p, f);
        }
        for &c in &self.per_node_cycles {
            put_u64(&mut p, c);
        }
        for &s in &self.per_shard_stall_cycles {
            put_u64(&mut p, s);
        }
        put_u64(&mut p, self.stall_cycles);
        put_u64(&mut p, self.contention_cycles);
        put_u64(&mut p, self.backoff_cycles);
        put_u64(&mut p, self.read_misses);
        put_u64(&mut p, self.read_miss_latency_total);
        put_u64(&mut p, self.hist_bucket_width);
        put_u64(&mut p, self.hist_buckets.len() as u64);
        for &b in &self.hist_buckets {
            put_u64(&mut p, b);
        }
        put_u64(&mut p, self.hist_overflow);
        put_u64(&mut p, self.hist_count);
        put_u64(&mut p, self.hist_max);
        self.engine.encode_into(&mut p);
        write_envelope(w, EXEC_CHECKPOINT_MAGIC, &p)
    }

    /// Deserializes a snapshot from `r`.
    ///
    /// Robust against corrupt input: truncated, bit-flipped,
    /// wrong-magic, or wrong-version streams produce a typed
    /// [`CheckpointError`], never a panic and never an allocation sized
    /// by untrusted data.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] describing the first defect found.
    pub fn read_from<R: Read>(r: &mut R) -> Result<ExecCheckpoint, CheckpointError> {
        let payload = read_envelope(r, EXEC_CHECKPOINT_MAGIC)?;
        let mut r = PayloadReader::new(&payload);
        let config_hash = r.u64()?;
        let trace_len = r.u64()?;
        let trace_hash = r.u64()?;
        let processed = r.u64()?;
        let nodes = usize::from(r.u16()?);
        let shards = r.u64()?;
        r.check_count(nodes as u64, 8)?;
        let mut cursors = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            cursors.push(r.u64()?);
        }
        let mut queued = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            queued.push(match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                _ => return Err(CheckpointError::Corrupt("bad queued-entry presence tag")),
            });
        }
        let mut controller_free = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            controller_free.push(r.u64()?);
        }
        let mut per_node_cycles = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            per_node_cycles.push(r.u64()?);
        }
        let shards = r.check_count(shards, 8)?;
        let mut per_shard_stall_cycles = Vec::with_capacity(shards);
        for _ in 0..shards {
            per_shard_stall_cycles.push(r.u64()?);
        }
        let stall_cycles = r.u64()?;
        let contention_cycles = r.u64()?;
        let backoff_cycles = r.u64()?;
        let read_misses = r.u64()?;
        let read_miss_latency_total = r.u64()?;
        let hist_bucket_width = r.u64()?;
        let declared_buckets = r.u64()?;
        let buckets = r.check_count(declared_buckets, 8)?;
        let mut hist_buckets = Vec::with_capacity(buckets);
        for _ in 0..buckets {
            hist_buckets.push(r.u64()?);
        }
        let hist_overflow = r.u64()?;
        let hist_count = r.u64()?;
        let hist_max = r.u64()?;
        let engine = EngineSnapshot::decode(&mut r)?;
        r.finish()?;
        if processed > trace_len {
            return Err(CheckpointError::Corrupt("cursor past the end of the trace"));
        }
        Ok(ExecCheckpoint {
            config_hash,
            trace_len,
            trace_hash,
            processed,
            cursors,
            queued,
            controller_free,
            per_node_cycles,
            stall_cycles,
            per_shard_stall_cycles,
            contention_cycles,
            backoff_cycles,
            read_misses,
            read_miss_latency_total,
            hist_bucket_width,
            hist_buckets,
            hist_overflow,
            hist_count,
            hist_max,
            engine,
        })
    }

    /// Writes the snapshot to `path` durably and atomically, keeping
    /// the previous generation at `path.prev`, through the same
    /// crash-ordered [`save_rotating`] as
    /// [`Checkpoint::save`](mcc_core::Checkpoint::save).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the filesystem fails.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut bytes = Vec::new();
        self.write_to(&mut bytes)?;
        Ok(save_rotating(&RealStorage, path, &bytes)?)
    }

    /// Reads a snapshot previously [`save`](ExecCheckpoint::save)d,
    /// falling back to the rotated `path.prev` generation when the
    /// newest file is missing or does not decode.
    ///
    /// # Errors
    ///
    /// The newest file's [`CheckpointError`] (I/O failure or
    /// corruption) when neither generation loads.
    pub fn load(path: &Path) -> Result<ExecCheckpoint, CheckpointError> {
        let load = |path: &Path| ExecCheckpoint::read_from(&mut &fs::read(path)?[..]);
        load(path).or_else(|primary| load(&prev_path(path)).map_err(|_| primary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_trace::{Addr, MemRef, NodeId};

    fn migratory_trace(nodes: u16, objects: u64, rounds: usize) -> Trace {
        let mut t = Trace::new();
        for round in 0..rounds {
            for obj in 0..objects {
                let n = NodeId::new(((round as u64 + obj) % u64::from(nodes)) as u16);
                t.push(MemRef::read(n, Addr::new(obj * 64)));
                t.push(MemRef::write(n, Addr::new(obj * 64)));
            }
        }
        t
    }

    fn config(nodes: u16) -> ExecSimConfig {
        ExecSimConfig {
            nodes,
            ..ExecSimConfig::default()
        }
    }

    #[test]
    fn adaptive_is_faster_on_migratory_data() {
        let trace = migratory_trace(8, 64, 20);
        let cfg = config(8);
        let conventional = ExecSim::new(Protocol::Conventional, &cfg).run(&trace);
        let basic = ExecSim::new(Protocol::Basic, &cfg).run(&trace);
        assert!(basic.cycles < conventional.cycles);
        let pct = basic.percent_faster_than(&conventional);
        assert!(pct > 1.0, "expected a visible speedup, got {pct:.2}%");
    }

    #[test]
    fn adaptive_reduces_read_miss_latency_via_contention() {
        // The paper observes a ~20% average read-miss latency drop from
        // eliminating invalidation traffic (less controller contention).
        let trace = migratory_trace(8, 64, 20);
        let cfg = config(8);
        let conventional = ExecSim::new(Protocol::Conventional, &cfg).run(&trace);
        let basic = ExecSim::new(Protocol::Basic, &cfg).run(&trace);
        assert!(basic.avg_read_miss_latency() < conventional.avg_read_miss_latency());
        assert!(basic.contention_cycles <= conventional.contention_cycles);
    }

    #[test]
    fn single_node_run_is_all_hits_after_cold_start() {
        let mut t = Trace::new();
        for _ in 0..10 {
            for i in 0..4u64 {
                t.push(MemRef::read(NodeId::new(0), Addr::new(i * 16)));
            }
        }
        let r = ExecSim::new(Protocol::Conventional, &config(4)).run(&t);
        assert_eq!(r.events.read_misses, 4);
        assert_eq!(r.events.read_hits, 36);
        // 4 misses to node-0-homed pages: local clean misses cost the
        // memory access but no messages.
        assert_eq!(r.messages.combined().total(), 0);
        assert!(r.cycles > 0);
        assert_eq!(r.per_node_cycles.iter().filter(|&&c| c > 0).count(), 1);
    }

    #[test]
    fn execution_time_is_max_over_nodes() {
        let trace = migratory_trace(4, 16, 5);
        let r = ExecSim::new(Protocol::Basic, &config(4)).run(&trace);
        assert_eq!(r.cycles, *r.per_node_cycles.iter().max().unwrap());
        assert!(r.per_node_cycles.iter().all(|&c| c > 0));
    }

    #[test]
    fn results_are_deterministic() {
        let trace = migratory_trace(4, 16, 5);
        let a = ExecSim::new(Protocol::Aggressive, &config(4)).run(&trace);
        let b = ExecSim::new(Protocol::Aggressive, &config(4)).run(&trace);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_trace_finishes_instantly() {
        let r = ExecSim::new(Protocol::Basic, &config(4)).run(&Trace::new());
        assert_eq!(r.cycles, 0);
        assert_eq!(r.avg_read_miss_latency(), 0.0);
    }

    #[test]
    fn latency_histogram_percentiles() {
        let mut h = LatencyHistogram::new(10);
        for v in 0..100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.max(), 99);
        assert_eq!(h.percentile(10.0), 10);
        assert_eq!(h.percentile(50.0), 50);
        assert_eq!(h.percentile(100.0), 100);
        // Overflow observations resolve to max.
        h.record(100_000);
        assert_eq!(h.percentile(100.0), 100_000);
        assert_eq!(LatencyHistogram::default().percentile(99.0), 0);
    }

    #[test]
    fn read_miss_histogram_is_populated() {
        let trace = migratory_trace(4, 16, 5);
        let r = ExecSim::new(Protocol::Basic, &config(4)).run(&trace);
        assert_eq!(r.read_miss_latency.count(), r.read_misses);
        assert!(r.read_miss_latency.percentile(50.0) > 0);
        assert!(r.read_miss_latency.percentile(95.0) >= r.read_miss_latency.percentile(50.0));
    }

    #[test]
    fn mesh_topology_hops() {
        use mcc_trace::NodeId;
        let t = Topology::Mesh2D;
        // 16 nodes on a 4x4 grid, row-major.
        assert_eq!(t.hops(NodeId::new(0), NodeId::new(0), 16), 0);
        assert_eq!(t.hops(NodeId::new(0), NodeId::new(3), 16), 3);
        assert_eq!(t.hops(NodeId::new(0), NodeId::new(15), 16), 6);
        assert_eq!(t.hops(NodeId::new(5), NodeId::new(10), 16), 2);
        assert_eq!(
            Topology::Uniform.hops(NodeId::new(0), NodeId::new(9), 16),
            1
        );
        assert_eq!(
            Topology::Uniform.hops(NodeId::new(4), NodeId::new(4), 16),
            0
        );
    }

    #[test]
    fn mesh_runs_slower_than_uniform_but_same_protocol_work() {
        let trace = migratory_trace(8, 32, 10);
        let uniform = ExecSim::new(Protocol::Basic, &config(8)).run(&trace);
        let mesh_cfg = ExecSimConfig {
            topology: Topology::Mesh2D,
            ..config(8)
        };
        let mesh = ExecSim::new(Protocol::Basic, &mesh_cfg).run(&trace);
        assert!(mesh.cycles > uniform.cycles);
        assert_eq!(mesh.messages, uniform.messages);
        assert_eq!(mesh.events, uniform.events);
    }

    #[test]
    fn adaptive_still_wins_on_a_mesh() {
        let trace = migratory_trace(8, 64, 20);
        let cfg = ExecSimConfig {
            topology: Topology::Mesh2D,
            ..config(8)
        };
        let conv = ExecSim::new(Protocol::Conventional, &cfg).run(&trace);
        let basic = ExecSim::new(Protocol::Basic, &cfg).run(&trace);
        assert!(basic.cycles < conv.cycles);
    }

    #[test]
    fn per_shard_stalls_sum_to_the_total() {
        let trace = migratory_trace(8, 64, 10);
        for stall_shards in [1usize, 4, 8] {
            let cfg = ExecSimConfig {
                stall_shards,
                ..config(8)
            };
            let r = ExecSim::new(Protocol::Basic, &cfg).run(&trace);
            assert_eq!(r.per_shard_stall_cycles.len(), stall_shards);
            assert_eq!(
                r.per_shard_stall_cycles.iter().sum::<u64>(),
                r.stall_cycles,
                "{stall_shards} shards: attribution must be exact"
            );
            assert!(r.stall_cycles > 0);
        }
    }

    #[test]
    fn shard_attribution_does_not_change_the_timing() {
        let trace = migratory_trace(8, 64, 10);
        let one = ExecSim::new(Protocol::Basic, &config(8)).run(&trace);
        let eight = ExecSim::new(
            Protocol::Basic,
            &ExecSimConfig {
                stall_shards: 8,
                ..config(8)
            },
        )
        .run(&trace);
        assert_eq!(one.cycles, eight.cycles);
        assert_eq!(one.stall_cycles, eight.stall_cycles);
        assert_eq!(one.messages, eight.messages);
        assert_eq!(one.events, eight.events);
        // With 64 hot blocks and 8 shards, every shard should see work.
        assert!(eight.per_shard_stall_cycles.iter().all(|&s| s > 0));
    }

    #[test]
    fn zero_stall_shards_clamps_to_one() {
        let trace = migratory_trace(4, 16, 5);
        let cfg = ExecSimConfig {
            stall_shards: 0,
            ..config(4)
        };
        let r = ExecSim::new(Protocol::Basic, &cfg).run(&trace);
        assert_eq!(r.per_shard_stall_cycles.len(), 1);
        assert_eq!(r.per_shard_stall_cycles[0], r.stall_cycles);
    }

    #[test]
    fn faulted_backoff_is_attributed_to_shards() {
        let trace = migratory_trace(4, 32, 10);
        let cfg = ExecSimConfig {
            faults: Some(FaultPlan::uniform(5, 50_000)),
            stall_shards: 4,
            ..config(4)
        };
        let r = ExecSim::new(Protocol::Basic, &cfg).try_run(&trace).unwrap();
        assert!(r.backoff_cycles > 0);
        assert_eq!(r.per_shard_stall_cycles.iter().sum::<u64>(), r.stall_cycles);
    }

    #[test]
    fn resume_is_bit_exact_including_stall_counters() {
        let trace = migratory_trace(8, 32, 10);
        let cfg = ExecSimConfig {
            stall_shards: 4,
            ..config(8)
        };
        let sim = ExecSim::new(Protocol::Aggressive, &cfg);
        let straight = sim.try_run(&trace).unwrap();
        let len = trace.len() as u64;
        for cut in [1u64, 7, len / 3, len / 2, len - 1] {
            let ck = sim.checkpoint_after(&trace, cut).unwrap();
            assert_eq!(ck.processed(), cut);
            assert!(!ck.is_complete());
            let resumed = sim.resume_from(&trace, &ck, None).unwrap();
            // Full structural equality: cycles, per-node finish times,
            // stall/contention/backoff counters, per-shard attribution,
            // and the read-miss latency histogram all continue exactly.
            assert_eq!(resumed, straight, "cut at {cut}");
        }
    }

    #[test]
    fn faulted_resume_replays_the_fault_stream() {
        let trace = migratory_trace(4, 32, 10);
        let cfg = ExecSimConfig {
            faults: Some(FaultPlan::uniform(5, 50_000)),
            stall_shards: 2,
            ..config(4)
        };
        let sim = ExecSim::new(Protocol::Basic, &cfg);
        let straight = sim.try_run(&trace).unwrap();
        assert!(straight.backoff_cycles > 0, "faults must actually fire");
        let cut = trace.len() as u64 / 2;
        let ck = sim.checkpoint_after(&trace, cut).unwrap();
        let resumed = sim.resume_from(&trace, &ck, None).unwrap();
        assert_eq!(resumed, straight);
    }

    #[test]
    fn checkpoint_roundtrips_through_bytes() {
        let trace = migratory_trace(4, 16, 5);
        let sim = ExecSim::new(Protocol::Basic, &config(4));
        let ck = sim.checkpoint_after(&trace, 25).unwrap();
        let mut bytes = Vec::new();
        ck.write_to(&mut bytes).unwrap();
        let back = ExecCheckpoint::read_from(&mut &bytes[..]).unwrap();
        assert_eq!(back, ck);
        let resumed = sim.resume_from(&trace, &back, None).unwrap();
        assert_eq!(resumed, sim.try_run(&trace).unwrap());
    }

    #[test]
    fn complete_checkpoint_resumes_to_the_same_result() {
        let trace = migratory_trace(4, 16, 5);
        let sim = ExecSim::new(Protocol::Conservative, &config(4));
        let ck = sim.checkpoint_after(&trace, u64::MAX).unwrap();
        assert!(ck.is_complete());
        assert_eq!(ck.total_records(), trace.len() as u64);
        let resumed = sim.resume_from(&trace, &ck, None).unwrap();
        assert_eq!(resumed, sim.try_run(&trace).unwrap());
    }

    #[test]
    fn foreign_checkpoints_are_rejected_with_a_typed_error() {
        let trace = migratory_trace(4, 16, 5);
        let ck = ExecSim::new(Protocol::Basic, &config(4))
            .checkpoint_after(&trace, 10)
            .unwrap();
        // Wrong protocol.
        let err = ExecSim::new(Protocol::Conventional, &config(4))
            .resume_from(&trace, &ck, None)
            .expect_err("protocol differs");
        assert!(matches!(err, SimError::BadCheckpoint { .. }), "{err}");
        // Wrong trace.
        let other = migratory_trace(4, 16, 6);
        let err = ExecSim::new(Protocol::Basic, &config(4))
            .resume_from(&other, &ck, None)
            .expect_err("trace differs");
        assert!(matches!(err, SimError::BadCheckpoint { .. }), "{err}");
    }

    #[test]
    fn run_resumable_leaves_a_loadable_complete_snapshot() {
        let trace = migratory_trace(4, 16, 5);
        let sim = ExecSim::new(Protocol::Basic, &config(4));
        let path =
            std::env::temp_dir().join(format!("mcc-execsim-resumable-{}.mccx", std::process::id()));
        let policy = CheckpointPolicy::new(17, &path);
        let supervised = sim.run_resumable(&trace, &policy).unwrap();
        assert_eq!(supervised, sim.try_run(&trace).unwrap());
        let ck = ExecCheckpoint::load(&path).unwrap();
        assert!(ck.is_complete());
        let resumed = sim.resume_from(&trace, &ck, None).unwrap();
        assert_eq!(resumed, supervised);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn display_reports_cycles() {
        let trace = migratory_trace(4, 8, 3);
        let r = ExecSim::new(Protocol::Basic, &config(4)).run(&trace);
        assert!(r.to_string().contains("cycles"));
    }

    #[test]
    fn faults_slow_execution_without_changing_protocol_work() {
        let trace = migratory_trace(4, 32, 10);
        let clean = ExecSim::new(Protocol::Basic, &config(4))
            .try_run(&trace)
            .expect("reliable run");
        let faulty_cfg = ExecSimConfig {
            faults: Some(FaultPlan::uniform(5, 50_000)),
            ..config(4)
        };
        let faulted = ExecSim::new(Protocol::Basic, &faulty_cfg)
            .try_run(&trace)
            .expect("5% faults inside the retry budget");
        assert_eq!(clean.backoff_cycles, 0);
        assert!(faulted.backoff_cycles > 0);
        assert!(faulted.cycles > clean.cycles);
        assert!(faulted.stall_cycles > clean.stall_cycles);
        // Unlike the trace-driven simulator, the interleaving here is
        // timing-driven, so backoff feeds back into the reference order
        // and the delivered traffic may shift — but every reference is
        // still executed, and only the faulted run wastes messages.
        assert_eq!(faulted.events.refs(), clean.events.refs());
        assert_eq!(clean.messages.overhead().total(), 0);
        assert!(faulted.messages.overhead().total() > 0);
    }

    #[test]
    fn faulted_exec_runs_are_deterministic() {
        let trace = migratory_trace(4, 16, 6);
        let cfg = ExecSimConfig {
            faults: Some(FaultPlan::uniform(8, 80_000)),
            ..config(4)
        };
        let a = ExecSim::new(Protocol::Aggressive, &cfg)
            .try_run(&trace)
            .unwrap();
        let b = ExecSim::new(Protocol::Aggressive, &cfg)
            .try_run(&trace)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn retry_exhaustion_is_an_error_not_a_panic() {
        let mut plan = FaultPlan::uniform(1, 1_000_000);
        plan.max_retries = 3;
        let cfg = ExecSimConfig {
            faults: Some(plan),
            ..config(4)
        };
        let trace = migratory_trace(4, 4, 2);
        let err = ExecSim::new(Protocol::Basic, &cfg)
            .try_run(&trace)
            .expect_err("nothing is ever delivered");
        assert!(matches!(
            err,
            mcc_core::SimError::RetryExhausted { .. } | mcc_core::SimError::Livelock { .. }
        ));
    }

    #[test]
    fn overloaded_trace_is_an_error_via_try_run() {
        let mut t = Trace::new();
        t.push(MemRef::read(NodeId::new(7), Addr::new(0)));
        let err = ExecSim::new(Protocol::Basic, &config(4))
            .try_run(&t)
            .expect_err("node 7 with a 4-node machine");
        assert!(matches!(
            err,
            mcc_core::SimError::NodeOutOfRange { nodes: 4, .. }
        ));
    }
}
