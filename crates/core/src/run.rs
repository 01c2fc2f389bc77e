//! The run pipeline: one executor behind every way of running a
//! [`DirectorySim`].
//!
//! [`DirectorySim::execute`] replays a [`RunSource`] — a borrowed
//! materialized [`Trace`] or a borrowed [`TraceStream`] — under a
//! [`RunSpec`]: how many address shards, one observability sink per
//! shard, where and how often to checkpoint, which checkpoint to resume,
//! a wall-clock deadline, and whether the invariant monitor runs. Every
//! other run method is a thin call into it, so a guarantee made here
//! holds on every path.
//!
//! Directory state is keyed by block, and with infinite caches no
//! reference to one block touches another block's state or charges, so
//! a run splits into K shards by
//! [`shard_of_block`](mcc_trace::shard_of_block) and the per-shard
//! results sum to the sequential result **bit-exactly**
//! (`tests/parallel_equivalence.rs` and `tests/stream_equivalence.rs`
//! hold the executor to that):
//!
//! * **Placement** is resolved once, from the full source (a stream's
//!   shard filter is ignored), so every shard homes pages exactly as a
//!   sequential run would.
//! * **Shards** replay the records they own in global order, each tagged
//!   with its absolute index in the source. Finite caches couple blocks
//!   through set eviction, so they only run unsharded
//!   ([`SimError::ShardingUnsupported`] otherwise).
//! * **Fault streams.** A 1-shard run draws the plan's own stream; shard
//!   `s` of a K-shard run draws [`FaultPlan::for_shard`]`(s)`, so a
//!   faulted run is reproducible regardless of thread scheduling.
//! * **Threads.** A 1-shard run without a deadline runs on the calling
//!   thread, over the caller's records in place. Every other run gives
//!   each shard a detached thread that owns its share of the source: the
//!   calling thread splits a materialized trace once into the records
//!   each shard owns (tagged with their absolute indices when the run
//!   checkpoints or resumes), and hands each shard the stream filtered
//!   to its blocks. The calling thread then
//!   supervises, writing the checkpoints the shards hand it and giving
//!   up at the deadline, so the call returns on time even if a shard
//!   never does. On both paths `catch_unwind` turns a panicking shard
//!   into [`SimError::ShardPanicked`].
//! * **Merge.** [`ShardedReport`] keeps one outcome per shard in shard
//!   order; [`ShardedReport::merged`] folds them from
//!   [`SimResult::empty`] and reports the lowest-indexed failure, never
//!   whichever thread happened to finish first.
//!
//! A [`Checkpoint`] stores one absolute cursor per shard: every owned
//! record below it has been applied. A shard snapshots when it reaches a
//! multiple of the policy's cadence — absolute indices, so a resumed run
//! checkpoints at the same boundaries as an uninterrupted one — and once
//! more at the end. Source identity is a full-content fingerprint for a
//! trace and an O(64) probe for a stream, computed only when a
//! checkpoint is written or resumed.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use mcc_cache::CacheConfig;
use mcc_obs::{Event as ObsEvent, SharedSink};
use mcc_placement::PagePlacement;
use mcc_trace::{shard_of_block, MemRef, ReadTraceError, Trace, TraceStream};

use crate::checkpoint::{
    stream_fingerprint, trace_fingerprint, Checkpoint, CheckpointPolicy, ShardSnapshot,
};
use crate::engine::{AnyEngine, Engine};
use crate::error::SimError;
use crate::faults::FaultPlan;
use crate::monitor::Monitor;
use crate::policy::Protocol;
use crate::result::SimResult;
use crate::sim::{DirectorySim, PlacementPolicy};
use crate::storage::{RealStorage, Storage};

/// How often, in absolute record indices, a shard polls its deadline:
/// bounds the overshoot to well under a millisecond of simulation work
/// without a clock read per reference.
const DEADLINE_STRIDE: u64 = 1024;

/// Cooperative fault hooks for supervision tests.
///
/// Production shards never stall or crash on purpose, so the deadline
/// and containment paths would otherwise be untestable. Process-global:
/// tests that set a hook must be the only multi-shard runs in flight
/// and must clear it afterwards.
#[doc(hidden)]
pub mod test_hooks {
    use std::sync::atomic::{AtomicI64, Ordering};

    /// `-1` = no shard wedged; otherwise the wedged shard id.
    static WEDGED_SHARD: AtomicI64 = AtomicI64::new(-1);

    /// Makes shard `shard` of subsequent runs spin — polling its
    /// deadline, making no progress — instead of replaying.
    pub fn wedge_shard(shard: u32) {
        WEDGED_SHARD.store(i64::from(shard), Ordering::SeqCst);
    }

    /// Releases the wedge.
    pub fn clear_wedge() {
        WEDGED_SHARD.store(-1, Ordering::SeqCst);
    }

    /// The currently wedged shard, if any.
    pub fn wedged() -> Option<u32> {
        u32::try_from(WEDGED_SHARD.load(Ordering::SeqCst)).ok()
    }

    /// `-1` = no shard poisoned; otherwise the shard id that panics.
    static POISONED_SHARD: AtomicI64 = AtomicI64::new(-1);

    /// Makes shard `shard` of subsequent runs panic before replaying —
    /// a deterministic stand-in for any shard crash, used to prove
    /// `catch_unwind` containment and salvage.
    pub fn poison_shard(shard: u32) {
        POISONED_SHARD.store(i64::from(shard), Ordering::SeqCst);
    }

    /// Releases the poison.
    pub fn clear_poison() {
        POISONED_SHARD.store(-1, Ordering::SeqCst);
    }

    /// The currently poisoned shard, if any.
    pub fn poisoned() -> Option<u32> {
        u32::try_from(POISONED_SHARD.load(Ordering::SeqCst)).ok()
    }
}

/// What a run replays: a borrowed materialized [`Trace`] or a borrowed
/// [`TraceStream`]. Run methods take `impl Into<RunSource>`, so callers
/// pass `&trace` or `&stream` directly.
#[derive(Clone, Copy, Debug)]
pub struct RunSource<'a>(Src<'a>);

#[derive(Clone, Copy, Debug)]
enum Src<'a> {
    Trace(&'a Trace),
    Stream(&'a TraceStream),
}

impl<'a> From<&'a Trace> for RunSource<'a> {
    fn from(trace: &'a Trace) -> Self {
        RunSource(Src::Trace(trace))
    }
}

impl<'a> From<&'a TraceStream> for RunSource<'a> {
    fn from(stream: &'a TraceStream) -> Self {
        RunSource(Src::Stream(stream))
    }
}

fn trace_err(e: ReadTraceError) -> SimError {
    SimError::TraceUnreadable {
        reason: e.to_string(),
    }
}

impl Src<'_> {
    /// The identity a checkpoint records: every record of a trace, or
    /// the O(64) probe of a stream.
    fn identity(self) -> Result<u64, SimError> {
        match self {
            Src::Trace(t) => Ok(trace_fingerprint(t)),
            Src::Stream(s) => stream_fingerprint(s).map_err(trace_err),
        }
    }
}

/// What one shard replays.
#[derive(Clone, Copy)]
enum Feed<'a> {
    /// Records replayed by position: the caller's whole trace in place,
    /// whose positions are absolute indices, or the records a shard owns
    /// in a run that reads no absolute index (no checkpoint, no resume),
    /// whose positions only pace the deadline polls.
    Records(&'a [MemRef]),
    /// The trace records a shard owns, each with its absolute index.
    Indexed(&'a [(u64, MemRef)]),
    /// The source stream, filtered to the shard's blocks.
    Stream(&'a TraceStream),
}

/// One shard's share of the source, owned so a detached shard thread can
/// hold it: the [`Feed`] it replays.
enum Share {
    Records(Trace),
    Indexed(Vec<(u64, MemRef)>),
    Stream(TraceStream),
}

impl Share {
    fn feed(&self) -> Feed<'_> {
        match self {
            Share::Records(trace) => Feed::Records(trace.as_slice()),
            Share::Indexed(part) => Feed::Indexed(part),
            Share::Stream(stream) => Feed::Stream(stream),
        }
    }
}

/// How [`DirectorySim::execute`] runs a source.
///
/// Every field has a neutral default ([`RunSpec::default`]): one shard,
/// no sinks, snapshots (if any) through [`RealStorage`], no checkpoint,
/// no deadline, no monitor.
///
/// # Examples
///
/// ```
/// use mcc_core::{DirectorySim, DirectorySimConfig, Protocol, RunSpec};
/// use mcc_trace::{Addr, MemRef, NodeId, Trace};
///
/// let mut t = Trace::new();
/// for i in 0..256u64 {
///     t.push(MemRef::write(NodeId::new((i % 4) as u16), Addr::new(i * 16)));
/// }
/// let sim = DirectorySim::new(Protocol::Basic, &DirectorySimConfig::default());
/// let spec = RunSpec { shards: 4, monitor: true, ..RunSpec::default() };
/// let report = sim.execute(&t, &spec).unwrap();
/// assert!(report.all_completed());
/// assert_eq!(report.merged().unwrap(), sim.run(&t));
/// ```
#[derive(Clone, Copy)]
pub struct RunSpec<'a> {
    /// Address shards, each replayed by its own engine (1 = sequential).
    /// A resumed run must ask for the checkpoint's shard count.
    pub shards: usize,
    /// One observability sink per shard: shard `i` streams its events
    /// into `sinks[i]`. Sharded runs frame each stream with
    /// `ShardStarted` / `ShardFinished`; checkpointed runs add
    /// `CheckpointLoaded` / `CheckpointSaved`. Events are derived
    /// observations and never change the result.
    pub sinks: Option<&'a [SharedSink]>,
    /// Where checkpoints are written — the fault-injection seam.
    pub storage: &'a dyn Storage,
    /// Snapshot at this cadence to this path, and once on completion.
    pub checkpoint: Option<&'a CheckpointPolicy>,
    /// Continue this checkpoint, replaying only what it has not covered.
    pub resume: Option<&'a Checkpoint>,
    /// Wall-clock budget: a shard still running when it is spent comes
    /// back as [`SimError::ShardTimedOut`], and the call returns.
    pub deadline: Option<Duration>,
    /// Sweep the global invariants with a [`Monitor`] during the run and
    /// fully at its end (otherwise only the engine's final sweep runs).
    pub monitor: bool,
}

impl Default for RunSpec<'_> {
    fn default() -> Self {
        RunSpec {
            shards: 1,
            sinks: None,
            storage: &RealStorage,
            checkpoint: None,
            resume: None,
            deadline: None,
            monitor: false,
        }
    }
}

/// The salvageable outcome of a run: one [`SimResult`] or one typed
/// [`SimError`] per shard, in shard order.
///
/// One shard panicking or blowing its deadline does not discard the
/// run: [`ShardedReport::salvaged`] folds whatever completed, while
/// [`ShardedReport::merged`] gives the strict all-or-nothing result.
#[derive(Clone, Debug)]
pub struct ShardedReport {
    protocol: Protocol,
    outcomes: Vec<Result<SimResult, SimError>>,
}

impl ShardedReport {
    /// Per-shard outcomes, indexed by shard id.
    pub fn outcomes(&self) -> &[Result<SimResult, SimError>] {
        &self.outcomes
    }

    /// The strict merge: the fold of every shard's result, or — when
    /// any shard failed — the error of the *lowest-indexed* failed
    /// shard (deterministic regardless of thread scheduling).
    pub fn merged(&self) -> Result<SimResult, SimError> {
        let mut merged = SimResult::empty(self.protocol);
        for outcome in &self.outcomes {
            merged += outcome.clone()?;
        }
        Ok(merged)
    }

    /// The partial merge: the fold of the shards that *did* complete.
    /// Counters cover only the surviving shards' records; pair with
    /// [`ShardedReport::failed_shards`] when reporting.
    pub fn salvaged(&self) -> SimResult {
        let mut merged = SimResult::empty(self.protocol);
        for outcome in self.outcomes.iter().flatten() {
            merged += *outcome;
        }
        merged
    }

    /// Ids of the shards that failed, with their errors.
    pub fn failed_shards(&self) -> Vec<(u32, &SimError)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(id, o)| o.as_ref().err().map(|e| (id as u32, e)))
            .collect()
    }

    /// Whether every shard completed.
    pub fn all_completed(&self) -> bool {
        self.outcomes.iter().all(Result::is_ok)
    }
}

/// Renders a caught panic payload for [`SimError::ShardPanicked`].
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one shard's work with its panics turned into
/// [`SimError::ShardPanicked`].
fn contain<T>(shard: usize, work: impl FnOnce() -> Result<T, SimError>) -> Result<T, SimError> {
    catch_unwind(AssertUnwindSafe(work)).unwrap_or_else(|payload| {
        Err(SimError::ShardPanicked {
            shard: shard as u32,
            message: panic_message(payload),
        })
    })
}

/// Where a shard hands each snapshot it takes: straight into the
/// checkpoint the calling thread keeps, or across the channel to the
/// supervisor, which writes it and acknowledges.
type Publish<'p> = &'p mut dyn FnMut(ShardSnapshot) -> Result<(), SimError>;

/// What every shard of one run shares.
struct Plan {
    sim: DirectorySim,
    shards: usize,
    total: u64,
    /// The source identity; computed only when a checkpoint is involved.
    identity: u64,
    placement: PagePlacement,
    monitor: bool,
    /// `Some(every)` when the run checkpoints (`0`: only at the end).
    every: Option<u64>,
    deadline: Option<(Instant, Duration)>,
}

/// One shard in flight: its engine and monitor, and the rare absolute
/// indices at which the record loop stops to poll the deadline or take
/// a snapshot.
struct Shard<'p> {
    plan: &'p Plan,
    id: u32,
    engine: AnyEngine,
    monitor: Option<Monitor>,
    cursor: u64,
    /// The owned-record count, when the event stream is framed.
    owned: Option<u64>,
    next_poll: u64,
    next_save: u64,
}

/// The first multiple of `every` above `index` (never, for no cadence).
fn next_boundary(index: u64, every: Option<u64>) -> u64 {
    match every {
        Some(every) if every > 0 => (index / every + 1).saturating_mul(every),
        _ => u64::MAX,
    }
}

impl<'p> Shard<'p> {
    /// Builds (or restores) shard `id`'s engine, opens its event stream,
    /// and honours the test hooks and a spent deadline before any record.
    fn open(
        plan: &'p Plan,
        id: usize,
        start: Option<&ShardSnapshot>,
        sink: Option<SharedSink>,
        feed: Feed<'_>,
    ) -> Result<Shard<'p>, SimError> {
        let (sim, placement) = (&plan.sim, plan.placement.clone());
        let faults = sim.shard_plan(id, plan.shards);
        let mut engine = match start {
            Some(snap) => {
                let (kind, protocol, config) = (sim.engine, sim.protocol, &sim.config);
                AnyEngine::from_snapshot(kind, &snap.engine, protocol, config, placement, faults)
                    .map_err(|reason| SimError::BadCheckpoint { reason })?
            }
            None => sim.build_engine(placement, faults),
        };
        let cursor = start.map_or(0, |snap| snap.cursor);
        let owned = match sink {
            Some(_) if plan.shards > 1 => Some(count_records(feed)?),
            _ => None,
        };
        engine.set_sink(sink);
        let id = id as u32;
        if let Some(records) = owned {
            engine.emit_obs(&ObsEvent::ShardStarted { shard: id, records });
        }
        if cursor > 0 {
            engine.emit_obs(&ObsEvent::CheckpointLoaded {
                step: engine.steps(),
                records: cursor,
            });
        }
        let shard = Shard {
            plan,
            id,
            engine,
            monitor: plan
                .monitor
                .then(|| Monitor::for_run_length(plan.total / plan.shards as u64)),
            cursor,
            owned,
            next_poll: plan.deadline.map_or(u64::MAX, |_| cursor),
            next_save: next_boundary(cursor, plan.every),
        };
        if test_hooks::poisoned() == Some(id) {
            panic!("shard {id} poisoned by test hook");
        }
        while test_hooks::wedged() == Some(id) {
            shard.poll()?;
            thread::sleep(Duration::from_millis(1));
        }
        // A spent budget times out before the first record.
        shard.poll()?;
        Ok(shard)
    }

    fn poll(&self) -> Result<(), SimError> {
        match self.plan.deadline {
            Some((at, budget)) if Instant::now() >= at => Err(SimError::ShardTimedOut {
                shard: self.id,
                budget_ms: budget.as_millis() as u64,
            }),
            _ => Ok(()),
        }
    }

    fn save(&mut self, cursor: u64, publish: Publish<'_>) -> Result<(), SimError> {
        publish(ShardSnapshot {
            cursor,
            engine: self.engine.snapshot(),
        })?;
        self.engine.emit_obs(&ObsEvent::CheckpointSaved {
            step: self.engine.steps(),
            records: cursor,
        });
        Ok(())
    }

    /// Replays the records from the cursor up to (not including)
    /// absolute index `end`: records in place, a stream from a seek.
    fn replay(&mut self, feed: Feed<'_>, end: u64, publish: Publish<'_>) -> Result<(), SimError> {
        let from = self.cursor;
        match feed {
            Feed::Records(records) => {
                let records = records[from as usize..].iter().zip(from..);
                self.drive(records.map(|(r, i)| Ok((i, *r))), end, publish)
            }
            Feed::Indexed(part) => {
                let rest = &part[part.partition_point(|&(i, _)| i < from)..];
                self.drive(rest.iter().map(|&record| Ok(record)), end, publish)
            }
            Feed::Stream(s) => {
                let records = s.records_from(from).map_err(trace_err)?;
                self.drive(records.map(|item| item.map_err(trace_err)), end, publish)
            }
        }
    }

    /// The record loop every run shares. The only per-record work beyond
    /// the engine step (and the monitor, when asked for) is one compare
    /// against the next stop.
    fn drive<I>(&mut self, records: I, end: u64, publish: Publish<'_>) -> Result<(), SimError>
    where
        I: Iterator<Item = Result<(u64, MemRef), SimError>>,
    {
        let mut stop = end.min(self.next_poll).min(self.next_save);
        for item in records {
            let (i, r) = item?;
            if i >= stop {
                if i >= end {
                    break;
                }
                if i >= self.next_poll {
                    self.poll()?;
                    self.next_poll = i + DEADLINE_STRIDE;
                }
                if i >= self.next_save {
                    self.save(i, publish)?;
                    self.next_save = next_boundary(i, self.plan.every);
                }
                stop = end.min(self.next_poll).min(self.next_save);
            }
            self.engine.try_step(r)?;
            if let Some(monitor) = &mut self.monitor {
                monitor.after_step(&self.engine)?;
            }
        }
        self.cursor = end;
        Ok(())
    }

    /// Replays the rest of the source, sweeps the invariants, writes the
    /// final snapshot, and closes the event stream.
    fn run(mut self, feed: Feed<'_>, publish: Publish<'_>) -> Result<SimResult, SimError> {
        self.replay(feed, self.plan.total, publish)?;
        match &mut self.monitor {
            Some(monitor) => monitor.verify(&self.engine)?,
            None => self.engine.verify()?,
        }
        if self.plan.every.is_some() {
            self.save(self.plan.total, publish)?;
        }
        if let Some(records) = self.owned {
            self.engine.emit_obs(&ObsEvent::ShardFinished {
                shard: self.id,
                records,
            });
        }
        Ok(self.engine.finish())
    }
}

/// The records a feed yields: the shard's owned-record count. Free for
/// records in memory; one more pass for a stream, taken only when a sink
/// frames the shard's event stream.
fn count_records(feed: Feed<'_>) -> Result<u64, SimError> {
    match feed {
        Feed::Records(records) => Ok(records.len() as u64),
        Feed::Indexed(part) => Ok(part.len() as u64),
        Feed::Stream(s) => s
            .records()
            .map_err(trace_err)?
            .try_fold(0, |count, item| item.map(|_| count + 1))
            .map_err(trace_err),
    }
}

/// What a shard thread tells its supervisor.
enum Note {
    /// Write this snapshot and acknowledge.
    Save(usize, ShardSnapshot, mpsc::Sender<Result<(), SimError>>),
    /// The shard's outcome.
    Done(usize, Result<SimResult, SimError>),
}

impl DirectorySim {
    /// Runs `source` as `spec` says — the one executor every other run
    /// method calls. See the [module documentation](self) for the
    /// pipeline and [`RunSpec`] for the choices.
    ///
    /// # Errors
    ///
    /// Failures that stop the run before any shard starts:
    /// [`SimError::ShardingUnsupported`] (finite caches with more than
    /// one shard), [`SimError::BadCheckpoint`] (a resume checkpoint that
    /// belongs to another run, source, or shard count), and
    /// [`SimError::TraceUnreadable`] (a stream that cannot be read for
    /// placement or identity). Everything a shard reports — simulation
    /// errors, panics, timeouts, unwritable checkpoints — is that
    /// shard's outcome inside the [`ShardedReport`].
    ///
    /// # Panics
    ///
    /// Panics if `spec.shards` is zero or `spec.sinks` does not hold
    /// exactly one sink per shard.
    pub fn execute<'a>(
        &self,
        source: impl Into<RunSource<'a>>,
        spec: &RunSpec<'_>,
    ) -> Result<ShardedReport, SimError> {
        let src = source.into().0;
        let plan = self.plan(src, spec)?;
        // The checkpoint a run keeps writing: every shard's latest
        // snapshot, owned by the calling thread, so each file is
        // consistent without a lock.
        let mut ledger = spec.checkpoint.map(|policy| {
            let fresh = |id| ShardSnapshot {
                cursor: 0,
                engine: self
                    .build_engine(plan.placement.clone(), self.shard_plan(id, plan.shards))
                    .snapshot(),
            };
            let shards = (0..plan.shards)
                .map(|id| {
                    spec.resume
                        .map_or_else(|| fresh(id), |c| c.shards[id].clone())
                })
                .collect();
            (policy, self.checkpoint_of(&plan, shards))
        });
        let mut publish = |id: usize, snapshot: ShardSnapshot| match &mut ledger {
            Some((policy, checkpoint)) => {
                checkpoint.shards[id] = snapshot;
                checkpoint
                    .save_with(spec.storage, &policy.path)
                    .map_err(|e| SimError::BadCheckpoint {
                        reason: format!("writing {}: {e}", policy.path.display()),
                    })
            }
            None => Ok(()),
        };
        let start = |id: usize| spec.resume.map(|c| &c.shards[id]);
        let sink = |id: usize| spec.sinks.map(|s| s[id].clone());
        let outcomes = if plan.shards == 1 && plan.deadline.is_none() {
            let feed = match src {
                Src::Trace(t) => Feed::Records(t.as_slice()),
                Src::Stream(s) => Feed::Stream(s),
            };
            vec![contain(0, || {
                Shard::open(&plan, 0, start(0), sink(0), feed)?
                    .run(feed, &mut |snapshot| publish(0, snapshot))
            })]
        } else {
            let shares = plan.split(src, plan.every.is_some() || spec.resume.is_some());
            let plan = Arc::new(plan);
            let (tx, rx) = mpsc::channel::<Note>();
            for (id, share) in shares.into_iter().enumerate() {
                let (plan, to_supervisor) = (Arc::clone(&plan), tx.clone());
                let (start, sink) = (start(id).cloned(), sink(id));
                let spawned = thread::Builder::new()
                    .name(format!("mcc-shard-{id}"))
                    .spawn(move || {
                        // A closed channel means the supervisor stopped
                        // waiting at its deadline: nobody reads on.
                        let gone = || plan.missing(id);
                        let mut publish = |snapshot| {
                            let (ack, acked) = mpsc::channel();
                            to_supervisor
                                .send(Note::Save(id, snapshot, ack))
                                .map_err(|_| gone())?;
                            acked.recv().unwrap_or_else(|_| Err(gone()))
                        };
                        let feed = share.feed();
                        let outcome = contain(id, || {
                            Shard::open(&plan, id, start.as_ref(), sink, feed)?
                                .run(feed, &mut publish)
                        });
                        let _ = to_supervisor.send(Note::Done(id, outcome));
                    });
                if let Err(e) = spawned {
                    let message = format!("thread spawn failed: {e}");
                    let failed = Err(SimError::ShardPanicked {
                        shard: id as u32,
                        message,
                    });
                    let _ = tx.send(Note::Done(id, failed));
                }
            }
            drop(tx);
            supervise(&plan, &rx, &mut publish)
        };
        Ok(ShardedReport {
            protocol: self.protocol,
            outcomes,
        })
    }

    /// Checks `spec` against this simulation and `src`, and resolves
    /// what every shard shares.
    fn plan(&self, src: Src<'_>, spec: &RunSpec<'_>) -> Result<Plan, SimError> {
        let shards = spec.shards;
        assert!(shards > 0, "shard count must be positive");
        if let Some(sinks) = spec.sinks {
            assert_eq!(
                sinks.len(),
                shards,
                "need exactly one sink per shard ({} sinks for {shards} shards)",
                sinks.len()
            );
        }
        if shards > 1 && self.config.cache != CacheConfig::Infinite {
            return Err(SimError::ShardingUnsupported {
                reason: "finite caches couple blocks through set eviction; \
                         sharded runs require CacheConfig::Infinite",
            });
        }
        // A stream's filter does not change its length: absolute
        // indices always range over the whole source.
        let total = match src {
            Src::Trace(t) => t.len() as u64,
            Src::Stream(s) => s.len(),
        };
        let identity = match (spec.checkpoint, spec.resume) {
            (None, None) => 0,
            _ => src.identity()?,
        };
        if let Some(checkpoint) = spec.resume {
            self.check_identity(checkpoint, shards, total, identity)?;
        }
        Ok(Plan {
            sim: *self,
            shards,
            total,
            identity,
            placement: self.resolve_placement(src)?,
            monitor: spec.monitor,
            every: spec.checkpoint.map(|p| p.every),
            deadline: spec.deadline.map(|d| (Instant::now() + d, d)),
        })
    }

    /// A checkpoint of this run holding `shards`.
    fn checkpoint_of(&self, plan: &Plan, shards: Vec<ShardSnapshot>) -> Checkpoint {
        Checkpoint {
            protocol: self.protocol,
            config: self.config,
            faults: self.faults,
            total: plan.total,
            identity: plan.identity,
            shards,
        }
    }

    /// Replays every shard's owned records below absolute index
    /// `records` (clamped to the source) and captures the state as a
    /// [`Checkpoint`] without touching storage — the programmatic kill
    /// that makes every-boundary resume tests cheap to express.
    ///
    /// # Errors
    ///
    /// [`SimError::ShardingUnsupported`] as for [`DirectorySim::execute`],
    /// plus everything the replayed prefix reports.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn checkpoint_after<'a>(
        &self,
        source: impl Into<RunSource<'a>>,
        shards: usize,
        records: u64,
    ) -> Result<Checkpoint, SimError> {
        let src = source.into().0;
        let mut plan = self.plan(
            src,
            &RunSpec {
                shards,
                ..RunSpec::default()
            },
        )?;
        plan.identity = src.identity()?;
        let cut = records.min(plan.total);
        let snapshots = plan
            .split(src, true)
            .iter()
            .enumerate()
            .map(|(id, share)| {
                let feed = share.feed();
                contain(id, || {
                    let mut shard = Shard::open(&plan, id, None, None, feed)?;
                    shard.replay(feed, cut, &mut |_| Ok(()))?;
                    Ok(ShardSnapshot {
                        cursor: cut,
                        engine: shard.engine.snapshot(),
                    })
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(self.checkpoint_of(&plan, snapshots))
    }

    /// Runs the stream sequentially, producing exactly the result of
    /// [`DirectorySim::try_run`] on the materialized trace while holding
    /// one record at a time (no monitor). A shard filter on `stream`
    /// restricts the replayed records — placement still comes from the
    /// full stream — which is how one shard of a partition is simulated
    /// in isolation.
    ///
    /// # Errors
    ///
    /// As for [`DirectorySim::execute`], merged.
    pub fn try_run_stream(&self, stream: &TraceStream) -> Result<SimResult, SimError> {
        self.execute(stream, &RunSpec::default())?.merged()
    }

    /// Runs the stream on `shards` engines, each over its block-hash
    /// slice, producing exactly the sequential result. Peak memory is
    /// `shards` read buffers plus directory state — never the trace.
    ///
    /// # Errors
    ///
    /// As for [`DirectorySim::execute`], merged.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn try_run_stream_sharded(
        &self,
        stream: &TraceStream,
        shards: usize,
    ) -> Result<SimResult, SimError> {
        let spec = RunSpec {
            shards,
            ..RunSpec::default()
        };
        self.execute(stream, &spec)?.merged()
    }

    /// [`DirectorySim::try_run_stream_sharded`] with crash-safe
    /// snapshots per `policy`. A killed run continues through
    /// [`DirectorySim::execute`] with [`RunSpec::resume`] set and a
    /// re-opened stream, replaying only the tail.
    ///
    /// # Errors
    ///
    /// As for [`DirectorySim::execute`], merged; an unwritable snapshot
    /// is [`SimError::BadCheckpoint`].
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn run_stream_resumable(
        &self,
        stream: &TraceStream,
        shards: usize,
        policy: &CheckpointPolicy,
    ) -> Result<SimResult, SimError> {
        self.run_stream_resumable_on(stream, shards, policy, &RealStorage)
    }

    /// [`DirectorySim::run_stream_resumable`] through an explicit
    /// [`Storage`] — the fault-injection seam.
    ///
    /// # Errors
    ///
    /// As for [`DirectorySim::run_stream_resumable`].
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn run_stream_resumable_on(
        &self,
        stream: &TraceStream,
        shards: usize,
        policy: &CheckpointPolicy,
        storage: &dyn Storage,
    ) -> Result<SimResult, SimError> {
        let spec = RunSpec {
            shards,
            storage,
            checkpoint: Some(policy),
            ..RunSpec::default()
        };
        self.execute(stream, &spec)?.merged()
    }

    /// Resolves page placement from a stream exactly as a run over it
    /// does: one pass over the **full** stream (any shard filter is
    /// ignored), through the same resolvers a materialized trace uses.
    ///
    /// # Errors
    ///
    /// [`SimError::TraceUnreadable`] when the stream cannot be read.
    pub fn resolve_placement_stream(
        &self,
        stream: &TraceStream,
    ) -> Result<PagePlacement, SimError> {
        self.resolve_placement(Src::Stream(stream))
    }

    fn resolve_placement(&self, src: Src<'_>) -> Result<PagePlacement, SimError> {
        fn from_records(
            policy: PlacementPolicy,
            records: impl Iterator<Item = MemRef>,
            nodes: u16,
        ) -> PagePlacement {
            match policy {
                PlacementPolicy::RoundRobin => PagePlacement::round_robin(nodes),
                PlacementPolicy::FirstTouch => PagePlacement::first_touch_stream(records, nodes),
                PlacementPolicy::Profiled => PagePlacement::profiled_stream(records, nodes),
            }
        }
        let (policy, nodes) = (self.config.placement, self.config.nodes);
        match src {
            _ if policy == PlacementPolicy::RoundRobin => Ok(PagePlacement::round_robin(nodes)),
            Src::Trace(t) => Ok(from_records(policy, t.iter().copied(), nodes)),
            Src::Stream(s) => {
                // The resolvers take plain records, so a read error is
                // parked and re-raised once they have drained the pass.
                let full = s.unfiltered();
                let mut error = None;
                let records = full
                    .records()
                    .map_err(trace_err)?
                    .map_while(|item| item.map(|(_, r)| r).map_err(|e| error = Some(e)).ok());
                let placement = from_records(policy, records, nodes);
                error.map_or(Ok(placement), |e| Err(trace_err(e)))
            }
        }
    }

    /// The fault plan shard `id` of a `shards`-way run draws from.
    fn shard_plan(&self, id: usize, shards: usize) -> Option<FaultPlan> {
        self.faults.map(|plan| {
            if shards == 1 {
                plan
            } else {
                plan.for_shard(id as u32)
            }
        })
    }

    fn build_engine(&self, placement: PagePlacement, faults: Option<FaultPlan>) -> AnyEngine {
        let engine = AnyEngine::new(self.engine, self.protocol, &self.config, placement);
        match faults {
            Some(plan) => engine.with_faults(plan),
            None => engine,
        }
    }

    /// Refuses a checkpoint that does not belong to this simulation,
    /// shard count, and source — before any engine state is rebuilt.
    fn check_identity(
        &self,
        checkpoint: &Checkpoint,
        shards: usize,
        total: u64,
        identity: u64,
    ) -> Result<(), SimError> {
        let reason = if checkpoint.protocol != self.protocol {
            format!(
                "snapshot is of protocol {} but this run simulates {}",
                checkpoint.protocol, self.protocol
            )
        } else if checkpoint.config != self.config {
            "snapshot configuration differs from this run's".to_string()
        } else if checkpoint.faults != self.faults {
            "snapshot fault plan differs from this run's".to_string()
        } else if checkpoint.shards.len() != shards {
            format!(
                "snapshot has {} shards but this run asks for {shards}",
                checkpoint.shards.len()
            )
        } else if checkpoint.total != total {
            format!(
                "snapshot covers {} records but this source holds {total}",
                checkpoint.total
            )
        } else if checkpoint.identity != identity {
            "source fingerprint mismatch".to_string()
        } else {
            return Ok(());
        };
        Err(SimError::BadCheckpoint { reason })
    }
}

impl Plan {
    /// Splits the source into one share per shard, in shard order: a
    /// trace in one pass over its records, a stream into views filtered
    /// to each shard's blocks (a 1-shard run keeps the caller's filter).
    /// A trace's records carry their absolute indices only when
    /// `indexed`: the tags add half again to the copy, and only
    /// checkpoints and resumes read them.
    fn split(&self, src: Src<'_>, indexed: bool) -> Vec<Share> {
        let (block_size, shards) = (self.sim.config.block_size, self.shards);
        match src {
            Src::Trace(t) if indexed => {
                let mut parts = vec![Vec::new(); shards];
                for (i, r) in (0u64..).zip(t.iter()) {
                    parts[shard_of_block(r.addr.block(block_size), shards)].push((i, *r));
                }
                parts.into_iter().map(Share::Indexed).collect()
            }
            Src::Trace(t) => t
                .partition_by_block(block_size, shards)
                .into_iter()
                .map(Share::Records)
                .collect(),
            Src::Stream(s) if shards == 1 => vec![Share::Stream(s.clone())],
            Src::Stream(s) => (0..shards)
                .map(|id| Share::Stream(s.unfiltered().with_shard_filter(block_size, id, shards)))
                .collect(),
        }
    }

    /// The outcome of a shard the supervisor stopped waiting for.
    fn missing(&self, id: usize) -> SimError {
        match self.deadline {
            Some((_, budget)) => SimError::ShardTimedOut {
                shard: id as u32,
                budget_ms: budget.as_millis() as u64,
            },
            // Only possible if the thread died outside `catch_unwind`.
            None => SimError::ShardPanicked {
                shard: id as u32,
                message: "shard thread vanished without reporting".to_string(),
            },
        }
    }
}

/// Serves the shard threads from the calling thread — writing the
/// snapshots they hand over, collecting their outcomes — until all have
/// reported or the deadline passes.
fn supervise(
    plan: &Plan,
    rx: &mpsc::Receiver<Note>,
    publish: &mut dyn FnMut(usize, ShardSnapshot) -> Result<(), SimError>,
) -> Vec<Result<SimResult, SimError>> {
    let mut outcomes: Vec<Option<Result<SimResult, SimError>>> =
        (0..plan.shards).map(|_| None).collect();
    let mut pending = plan.shards;
    while pending > 0 {
        let note = match plan.deadline {
            None => rx.recv().ok(),
            Some((at, _)) => rx
                .recv_timeout(at.saturating_duration_since(Instant::now()))
                .ok(),
        };
        match note {
            Some(Note::Save(id, snapshot, ack)) => {
                let _ = ack.send(publish(id, snapshot));
            }
            Some(Note::Done(id, outcome)) => {
                outcomes[id] = Some(outcome);
                pending -= 1;
            }
            // The deadline passed, or every thread died unreported.
            None => break,
        }
    }
    outcomes
        .into_iter()
        .enumerate()
        .map(|(id, outcome)| outcome.unwrap_or_else(|| Err(plan.missing(id))))
        .collect()
}
#[cfg(test)]
mod tests {
    use mcc_cache::{CacheConfig, CacheGeometry};
    use mcc_trace::{Addr, BlockSize, MemRef, NodeId, Trace, TraceStream};

    use super::RunSpec;
    use crate::error::SimError;
    use crate::faults::FaultPlan;
    use crate::policy::Protocol;
    use crate::repr::DirectoryRepr;
    use crate::result::SimResult;
    use crate::sim::{DirectorySim, DirectorySimConfig};

    /// A few nodes passing a handful of blocks around: enough migratory
    /// and shared behaviour to exercise every protocol path.
    fn mixed_trace() -> Trace {
        let mut t = Trace::new();
        for round in 0..50u64 {
            for obj in 0..16u64 {
                let node = NodeId::new(((round + obj) % 8) as u16);
                let addr = Addr::new(obj * 64);
                t.push(MemRef::read(node, addr));
                t.push(MemRef::read(node, addr));
                t.push(MemRef::write(node, addr));
            }
            for n in 0..8u16 {
                t.push(MemRef::read(NodeId::new(n), Addr::new(0x4000)));
            }
        }
        t
    }

    fn gen_stream(refs: u64) -> TraceStream {
        TraceStream::from_generator(refs, |i| {
            let node = NodeId::new(((i / 3) % 8) as u16);
            let addr = Addr::new((i % 24) * 64 + (i % 3) * 8);
            if i % 3 == 2 {
                MemRef::write(node, addr)
            } else {
                MemRef::read(node, addr)
            }
        })
    }

    fn config() -> DirectorySimConfig {
        DirectorySimConfig {
            nodes: 8,
            ..DirectorySimConfig::default()
        }
    }

    fn sharded(sim: &DirectorySim, trace: &Trace, shards: usize) -> Result<SimResult, SimError> {
        let spec = RunSpec {
            shards,
            monitor: true,
            ..RunSpec::default()
        };
        sim.execute(trace, &spec)?.merged()
    }

    #[test]
    fn sharded_matches_sequential_for_every_protocol() {
        let trace = mixed_trace();
        for protocol in Protocol::PAPER_SET {
            let sim = DirectorySim::new(protocol, &config());
            let sequential = sim.run(&trace);
            for shards in [1usize, 2, 4, 8] {
                assert_eq!(
                    sharded(&sim, &trace, shards).unwrap(),
                    sequential,
                    "{protocol}/{shards} shards diverged"
                );
            }
        }
    }

    #[test]
    fn streams_match_traces_sequential_and_sharded() {
        let stream = gen_stream(3000);
        let trace = stream.collect_trace().unwrap();
        for directory in [
            DirectoryRepr::FullMap,
            DirectoryRepr::CoarseVector { region_size: 4 },
        ] {
            let cfg = DirectorySimConfig {
                directory,
                ..config()
            };
            let sim = DirectorySim::new(Protocol::Aggressive, &cfg);
            let reference = sim.try_run(&trace).unwrap();
            assert_eq!(sim.try_run_stream(&stream).unwrap(), reference);
            for k in [2usize, 4, 8] {
                assert_eq!(sim.try_run_stream_sharded(&stream, k).unwrap(), reference);
            }
        }
    }

    #[test]
    fn empty_sources_shard_to_an_empty_result() {
        let sim = DirectorySim::new(Protocol::Basic, &config());
        let r = sharded(&sim, &Trace::new(), 8).unwrap();
        assert_eq!(r, SimResult::empty(Protocol::Basic));
        let s = sim.try_run_stream_sharded(&gen_stream(0), 4).unwrap();
        assert_eq!(s, SimResult::empty(Protocol::Basic));
    }

    #[test]
    fn finite_caches_cannot_shard() {
        let cfg = DirectorySimConfig {
            cache: CacheConfig::Finite(CacheGeometry::new(4 * 1024, BlockSize::B16, 4).unwrap()),
            ..config()
        };
        let sim = DirectorySim::new(Protocol::Basic, &cfg);
        match sharded(&sim, &mixed_trace(), 2) {
            Err(SimError::ShardingUnsupported { reason }) => {
                assert!(reason.contains("Infinite"), "{reason}");
            }
            other => panic!("expected ShardingUnsupported, got {other:?}"),
        }
        // One shard is the sequential engine, which handles finite caches.
        assert!(sharded(&sim, &mixed_trace(), 1).is_ok());
    }

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn zero_shards_rejected() {
        let sim = DirectorySim::new(Protocol::Basic, &config());
        let _ = sharded(&sim, &Trace::new(), 0);
    }

    #[test]
    fn out_of_range_node_reported_from_any_shard() {
        let mut trace = mixed_trace();
        trace.push(MemRef::read(NodeId::new(200), Addr::new(0x9000)));
        let sim = DirectorySim::new(Protocol::Basic, &config());
        match sharded(&sim, &trace, 4) {
            Err(SimError::NodeOutOfRange { node, nodes }) => {
                assert_eq!(node, NodeId::new(200));
                assert_eq!(nodes, 8);
            }
            other => panic!("expected NodeOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn zero_deadline_times_out_instead_of_hanging() {
        let sim = DirectorySim::new(Protocol::Basic, &config());
        for shards in [1usize, 4] {
            let spec = RunSpec {
                shards,
                deadline: Some(std::time::Duration::ZERO),
                ..RunSpec::default()
            };
            match sim.execute(&mixed_trace(), &spec).unwrap().merged() {
                Err(SimError::ShardTimedOut { budget_ms, .. }) => assert_eq!(budget_ms, 0),
                other => panic!("expected ShardTimedOut, got {other:?}"),
            }
        }
    }

    #[test]
    fn generous_deadline_completes_normally() {
        let trace = mixed_trace();
        let sim = DirectorySim::new(Protocol::Conservative, &config());
        let spec = RunSpec {
            shards: 2,
            deadline: Some(std::time::Duration::from_secs(600)),
            ..RunSpec::default()
        };
        let report = sim.execute(&trace, &spec).unwrap();
        assert!(report.all_completed());
        assert!(report.failed_shards().is_empty());
        assert_eq!(report.salvaged(), report.merged().unwrap());
        assert_eq!(report.merged().unwrap(), sim.run(&trace));
    }

    #[test]
    fn faulted_sharded_runs_are_reproducible_and_deliver_the_same_traffic() {
        let trace = mixed_trace();
        for protocol in Protocol::PAPER_SET {
            let reliable = DirectorySim::new(protocol, &config()).run(&trace);
            let sim =
                DirectorySim::new(protocol, &config()).with_faults(FaultPlan::uniform(11, 50_000));
            let first = sharded(&sim, &trace, 4).unwrap();
            assert_eq!(sharded(&sim, &trace, 4).unwrap(), first);
            assert_eq!(first.messages.delivered(), reliable.messages.delivered());
            let mut scrubbed = first;
            scrubbed.events.nacks = 0;
            scrubbed.events.retries = 0;
            scrubbed.events.backoff_units = 0;
            assert_eq!(scrubbed.events, reliable.events);
        }
    }

    #[test]
    fn one_shard_draws_the_plans_own_fault_stream() {
        let trace = mixed_trace();
        let sim = DirectorySim::new(Protocol::Basic, &config())
            .with_faults(FaultPlan::uniform(3, 80_000));
        let spec = RunSpec {
            deadline: Some(std::time::Duration::from_secs(600)),
            ..RunSpec::default()
        };
        let threaded = sim.execute(&trace, &spec).unwrap().merged().unwrap();
        assert_eq!(threaded, sim.try_run(&trace).unwrap());
        assert_eq!(sim.try_run_stream(&gen_stream(0)).unwrap().events.refs(), 0);
    }

    #[test]
    fn streamed_checkpoints_roundtrip_and_resume() {
        let stream = gen_stream(500);
        let sim = DirectorySim::new(Protocol::Aggressive, &config())
            .with_faults(FaultPlan::uniform(5, 40_000));
        let straight = sim.try_run_stream_sharded(&stream, 2).unwrap();
        for cut in [0u64, 1, 200, 499, 500] {
            let ckpt = sim.checkpoint_after(&stream, 2, cut).unwrap();
            let mut bytes = Vec::new();
            ckpt.write_to(&mut bytes).unwrap();
            let back = crate::Checkpoint::read_from(&mut bytes.as_slice()).unwrap();
            assert_eq!(back, ckpt);
            assert_eq!(back.is_complete(), cut == 500);
            let spec = RunSpec {
                shards: 2,
                resume: Some(&back),
                ..RunSpec::default()
            };
            let resumed = sim.execute(&stream, &spec).unwrap().merged().unwrap();
            assert_eq!(resumed, straight, "cut {cut}");
        }
    }

    #[test]
    fn resume_refuses_another_stream() {
        let stream = gen_stream(400);
        let sim = DirectorySim::new(Protocol::Basic, &config());
        let ckpt = sim.checkpoint_after(&stream, 1, 100).unwrap();
        let other = TraceStream::from_generator(400, |i| {
            MemRef::read(NodeId::new((i % 8) as u16), Addr::new(i * 16))
        });
        for candidate in [gen_stream(401), other] {
            let spec = RunSpec {
                resume: Some(&ckpt),
                ..RunSpec::default()
            };
            assert!(matches!(
                sim.execute(&candidate, &spec),
                Err(SimError::BadCheckpoint { .. })
            ));
        }
    }
}
