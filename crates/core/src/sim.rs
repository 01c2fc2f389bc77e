//! The trace-driven CC-NUMA memory-system simulator (§3.3).
//!
//! Sixteen (configurable) nodes, each with a private cache; a
//! directory-based write-invalidate protocol with delayed write-back; 4 KB
//! pages assigned to home nodes by a [`PagePlacement`]. Every coherence
//! operation is charged inter-node messages per Table 1 ([`charge`]); the
//! eviction rules of §3.3 are charged by [`charge_eviction`].
//!
//! The simulator also carries a built-in *coherence checker*: every block
//! has a monotone version number bumped by each write, and every read
//! (hit or miss service) asserts that it observes the most recent
//! version. A protocol bug that leaves a stale copy readable, loses a
//! dirty block, or serves old data panics immediately. This machine-checks
//! the paper's transparency claim — the adaptive protocols preserve the
//! standard memory model.

use std::collections::HashMap;

use mcc_cache::{Cache, CacheConfig};
use mcc_obs::{Rule, SharedSink};
use mcc_placement::PagePlacement;
use mcc_trace::{BlockAddr, BlockSize, MemOp, MemRef, NodeId, Trace};

use crate::checkpoint::EngineSnapshot;
use crate::directory::{CopySet, DirEntry, ReadMissAction, Reclassification};
use crate::engine::{BlockRow, Engine, EngineKind, Frame};
use crate::error::{SimError, Violation, ViolationKind};
use crate::faults::{FaultInjector, FaultPlan, TransactionShape};
use crate::msg::{charge, charge_eviction, MessageCount, OpKind};
use crate::policy::Protocol;
use crate::repr::DirectoryRepr;
use crate::result::{EventCounts, MessageBreakdown, SimResult};
use crate::run::RunSpec;

/// How home nodes are assigned to pages for a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Pages homed round-robin by page index — the standard allocator
    /// used by the paper's execution-driven simulations.
    RoundRobin,
    /// Pages homed at the first node to reference them.
    FirstTouch,
    /// The paper's trace-driven setup: a profiling pass homes each page
    /// at its most frequent referencer (§3.3).
    #[default]
    Profiled,
}

/// Configuration of the directory simulator.
///
/// The default matches the paper's Table 3 setup: sixteen nodes, 16-byte
/// blocks, capacity-free caches, profiled page placement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirectorySimConfig {
    /// Number of nodes (processor + cache + memory + directory).
    pub nodes: u16,
    /// Cache block size.
    pub block_size: BlockSize,
    /// Per-node cache model.
    pub cache: CacheConfig,
    /// Page placement policy.
    pub placement: PlacementPolicy,
    /// Directory sharer-set representation (full map, or limited
    /// pointers with broadcast fallback).
    pub directory: DirectoryRepr,
}

impl Default for DirectorySimConfig {
    fn default() -> Self {
        DirectorySimConfig {
            nodes: 16,
            block_size: BlockSize::B16,
            cache: CacheConfig::Infinite,
            placement: PlacementPolicy::Profiled,
            directory: DirectoryRepr::FullMap,
        }
    }
}

/// The coherence state of a block in a node's cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LineState {
    /// One of possibly many read-only copies.
    Shared,
    /// The only copy; clean; write permission must be obtained from the
    /// home before the first write.
    Exclusive,
    /// The only copy, delivered by a migration: clean but with write
    /// permission pre-granted — the first write costs nothing.
    MigratoryClean,
    /// The only copy, modified.
    Dirty,
}

impl LineState {
    /// Whether the copy is modified relative to memory.
    pub const fn is_dirty(self) -> bool {
        matches!(self, LineState::Dirty)
    }

    /// Whether a write completes without contacting the home.
    pub const fn has_write_permission(self) -> bool {
        matches!(self, LineState::Dirty | LineState::MigratoryClean)
    }
}

#[derive(Clone, Copy, Debug)]
struct Line {
    state: LineState,
    version: u64,
}

/// How one reference was resolved by the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// Read hit: no coherence activity.
    ReadHit,
    /// Write hit on a Dirty copy: no coherence activity.
    SilentWrite,
    /// Write hit on a MigratoryClean copy: the pre-granted permission
    /// was used, zero messages.
    GrantedWrite,
    /// Write hit on a clean Exclusive copy: permission fetched from home.
    ExclusiveUpgrade,
    /// Write hit on a Shared copy: other copies invalidated.
    SharedUpgrade,
    /// Read miss serviced by replication.
    ReadMissReplicate,
    /// Read miss serviced by migration (block moved with write
    /// permission).
    ReadMissMigrate,
    /// Write miss.
    WriteMiss,
}

impl StepKind {
    /// Whether the reference completed inside the local cache with no
    /// protocol transaction.
    pub const fn is_local(self) -> bool {
        matches!(
            self,
            StepKind::ReadHit | StepKind::SilentWrite | StepKind::GrantedWrite
        )
    }

    /// Whether the reference was a cache miss.
    pub const fn is_miss(self) -> bool {
        matches!(
            self,
            StepKind::ReadMissReplicate | StepKind::ReadMissMigrate | StepKind::WriteMiss
        )
    }

    /// The observability vocabulary for this outcome (the [`mcc_obs`]
    /// event stream is engine-agnostic, so it carries its own enum).
    pub const fn obs(self) -> mcc_obs::StepKind {
        match self {
            StepKind::ReadHit => mcc_obs::StepKind::ReadHit,
            StepKind::SilentWrite => mcc_obs::StepKind::SilentWrite,
            StepKind::GrantedWrite => mcc_obs::StepKind::GrantedWrite,
            StepKind::ExclusiveUpgrade => mcc_obs::StepKind::ExclusiveUpgrade,
            StepKind::SharedUpgrade => mcc_obs::StepKind::SharedUpgrade,
            StepKind::ReadMissReplicate => mcc_obs::StepKind::ReadMissReplicate,
            StepKind::ReadMissMigrate => mcc_obs::StepKind::ReadMissMigrate,
            StepKind::WriteMiss => mcc_obs::StepKind::WriteMiss,
        }
    }
}

/// Per-reference outcome returned by [`Engine::step`], used by
/// the execution-driven timing simulator to attach latencies and model
/// memory-controller contention.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepInfo {
    /// How the reference resolved.
    pub kind: StepKind,
    /// The home node of the referenced block.
    pub home: NodeId,
    /// Inter-node messages this reference cost on its critical path
    /// (excluding any background eviction traffic it triggered, and
    /// excluding fault-retry overhead, which is charged as latency via
    /// `backoff_units`).
    pub messages: MessageCount,
    /// Latency units of exponential backoff and injected delay this
    /// reference suffered from interconnect faults (zero on a reliable
    /// fabric). The execution-driven simulator converts these into
    /// stall cycles.
    pub backoff_units: u64,
}

/// A one-shot, trace-driven simulation of one protocol on one
/// configuration.
///
/// For stepping a simulation manually (tests, interactive exploration)
/// use [`DirectoryEngine`]; `DirectorySim` resolves page placement from
/// the trace and runs it end to end.
///
/// # Examples
///
/// ```
/// use mcc_core::{DirectorySim, DirectorySimConfig, Protocol};
/// use mcc_trace::{Addr, MemRef, NodeId, Trace};
///
/// // P0 writes a datum; P1 reads then writes it; P2 reads then writes it.
/// let mut t = Trace::new();
/// t.push(MemRef::write(NodeId::new(0), Addr::new(0)));
/// for n in [1u16, 2] {
///     t.push(MemRef::read(NodeId::new(n), Addr::new(0)));
///     t.push(MemRef::write(NodeId::new(n), Addr::new(0)));
/// }
///
/// let config = DirectorySimConfig::default();
/// let adaptive = DirectorySim::new(Protocol::Basic, &config).run(&t);
/// let baseline = DirectorySim::new(Protocol::Conventional, &config).run(&t);
/// assert!(adaptive.total_messages() <= baseline.total_messages());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct DirectorySim {
    pub(crate) protocol: Protocol,
    pub(crate) config: DirectorySimConfig,
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) engine: EngineKind,
}

impl DirectorySim {
    /// Creates a simulation of `protocol` under `config`, on the fast
    /// engine ([`EngineKind::default`]).
    pub fn new(protocol: Protocol, config: &DirectorySimConfig) -> Self {
        DirectorySim {
            protocol,
            config: *config,
            faults: None,
            engine: EngineKind::default(),
        }
    }

    /// Subjects the run to an unreliable interconnect described by
    /// `plan`. Use [`DirectorySim::try_run`] to observe retry
    /// exhaustion as an error instead of a panic.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Selects the engine implementation for the run (the default is
    /// [`EngineKind::Fast`], the dense hot path). Both implementations
    /// model every machine, finite caches included, and are bit-exact
    /// (see `tests/fast_engine_parity.rs`); [`EngineKind::Reference`]
    /// is the auditable one they are checked against.
    ///
    /// The engine kind is a performance knob, not part of a run's
    /// identity: checkpoints taken under one engine resume under the
    /// other.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// The engine implementation the run uses: the one
    /// [`with_engine`](Self::with_engine) selected, or the default.
    pub fn engine_kind(&self) -> EngineKind {
        self.engine
    }

    /// Runs the whole trace: resolves page placement (profiling the trace
    /// if configured), processes every reference, and returns the tally.
    /// A call into [`DirectorySim::execute`] with the default
    /// [`RunSpec`]: one shard, on the calling thread, no monitor, and
    /// the engine's invariant sweep at the end.
    ///
    /// # Panics
    ///
    /// Panics if the trace references nodes outside the configuration, or
    /// if the protocol violates coherence (which would be a bug in this
    /// crate, not in the caller), or if a configured fault plan exhausts
    /// its retries.
    pub fn run(&self, trace: &Trace) -> SimResult {
        self.execute(trace, &RunSpec::default())
            .and_then(|report| report.merged())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`DirectorySim::run`], but reports failures — coherence
    /// violations, retry exhaustion, livelock, bad node indices — as a
    /// structured [`SimError`] instead of panicking, and additionally
    /// sweeps the global invariants with a [`Monitor`](crate::Monitor)
    /// throughout the run (sized to the trace by
    /// [`Monitor::for_run_length`](crate::Monitor::for_run_length), plus
    /// a final full sweep).
    pub fn try_run(&self, trace: &Trace) -> Result<SimResult, SimError> {
        let spec = RunSpec {
            monitor: true,
            ..RunSpec::default()
        };
        self.execute(trace, &spec)?.merged()
    }
}

/// The steppable protocol engine underneath [`DirectorySim`], driven
/// through the [`Engine`] trait.
///
/// # Examples
///
/// ```
/// use mcc_core::{DirectoryEngine, DirectorySimConfig, Engine, LineState, Protocol};
/// use mcc_placement::PagePlacement;
/// use mcc_trace::{Addr, BlockSize, MemRef, NodeId};
///
/// let config = DirectorySimConfig::default();
/// let placement = PagePlacement::round_robin(config.nodes);
/// let mut engine = DirectoryEngine::new(Protocol::Aggressive, &config, placement);
///
/// // Under the aggressive protocol the very first read miss grants
/// // write permission.
/// engine.step(MemRef::read(NodeId::new(1), Addr::new(0)));
/// let block = Addr::new(0).block(BlockSize::B16);
/// assert_eq!(engine.line_state(NodeId::new(1), block), Some(LineState::MigratoryClean));
/// ```
#[derive(Clone, Debug)]
pub struct DirectoryEngine {
    /// Protocol, machine shape, RWITM flag and ledger.
    pub(crate) frame: Frame,
    caches: Vec<Cache<Line>>,
    dir: HashMap<BlockAddr, DirEntry>,
    /// Version held by main memory at the home, per block.
    mem_version: HashMap<BlockAddr, u64>,
    /// Latest version written anywhere, per block (the checker's truth).
    latest: HashMap<BlockAddr, u64>,
}

impl DirectoryEngine {
    /// Creates an engine with an explicit page placement.
    pub fn new(protocol: Protocol, config: &DirectorySimConfig, placement: PagePlacement) -> Self {
        DirectoryEngine {
            frame: Frame::new(protocol, config, placement),
            caches: (0..config.nodes).map(|_| config.cache.build()).collect(),
            dir: HashMap::new(),
            mem_version: HashMap::new(),
            latest: HashMap::new(),
        }
    }

    /// Subjects every demand transaction to the unreliable-interconnect
    /// model described by `plan`. Deterministic: the injector draws from
    /// a private stream seeded by `plan.seed`.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.frame.ledger.faults = Some(FaultInjector::new(plan));
        self
    }

    /// Rebuilds an engine from a snapshot so it continues exactly where
    /// the captured one left off. The error string diagnoses snapshots
    /// that cannot describe an engine of this configuration.
    pub(crate) fn from_snapshot(
        snap: &EngineSnapshot,
        protocol: Protocol,
        config: &DirectorySimConfig,
        placement: PagePlacement,
        faults: Option<FaultPlan>,
    ) -> Result<DirectoryEngine, String> {
        let mut engine = DirectoryEngine::new(protocol, config, placement);
        engine.frame.restore(snap, faults)?;
        for (cache, lines) in engine.caches.iter_mut().zip(&snap.caches) {
            for &(block, state, version) in lines {
                let line = Line { state, version };
                if cache.insert(BlockAddr::new(block), line).is_some() {
                    return Err("cache snapshot does not fit the configured geometry".to_string());
                }
            }
        }
        for (block, entry) in &snap.dir {
            engine.dir.insert(BlockAddr::new(*block), entry.clone());
        }
        let versions =
            |rows: &[(u64, u64)]| rows.iter().map(|&(b, v)| (BlockAddr::new(b), v)).collect();
        engine.mem_version = versions(&snap.mem_version);
        engine.latest = versions(&snap.latest);
        Ok(engine)
    }

    /// Processes one reference with an off-line hint: when `rwitm` is
    /// `true` and the reference is a read miss, it is serviced as a
    /// *read-with-ownership* (§5's "load with intent to modify"): every
    /// existing copy is invalidated and the block arrives with write
    /// permission, charged like a write miss. Used with hints from
    /// [`migrate_hints`](crate::migrate_hints) to measure the off-line
    /// optimum the on-line protocols approximate.
    ///
    /// # Panics
    ///
    /// Panics unless the engine runs [`Protocol::Conventional`] (the
    /// oracle replaces the adaptive machinery, it does not combine with
    /// it), plus the conditions of [`Engine::step`].
    pub fn step_hinted(&mut self, r: MemRef, rwitm: bool) -> StepInfo {
        assert_eq!(
            self.frame.protocol,
            Protocol::Conventional,
            "off-line hints only apply to the conventional substrate"
        );
        self.frame.rwitm = rwitm;
        let info = self.step(r);
        self.frame.rwitm = false;
        info
    }

    fn hit(
        &mut self,
        n: NodeId,
        block: BlockAddr,
        home: NodeId,
        op: MemOp,
    ) -> Result<StepKind, Violation> {
        self.caches[n.index()].touch(block);
        let (state, version) = {
            // Infallible: `hit` is only dispatched after `contains`.
            let line = self.caches[n.index()]
                .get(block)
                .expect("residency checked by the contains() dispatch above");
            (line.state, line.version)
        };
        // Any copy a node is allowed to access must be current: writes by
        // others would have invalidated it.
        self.observe(block, version, "cache hit")?;
        Ok(match op {
            MemOp::Read => {
                self.frame.ledger.events.read_hits += 1;
                StepKind::ReadHit
            }
            MemOp::Write => {
                let kind = match state {
                    LineState::Dirty => {
                        self.frame.ledger.events.silent_write_hits += 1;
                        StepKind::SilentWrite
                    }
                    LineState::MigratoryClean => {
                        // Pre-granted permission: zero messages.
                        self.frame.ledger.events.write_grants_used += 1;
                        self.entry_mut(block).dirty = true;
                        self.caches[n.index()]
                            .get_mut(block)
                            .expect("residency checked by the contains() dispatch above")
                            .state = LineState::Dirty;
                        StepKind::GrantedWrite
                    }
                    LineState::Exclusive => {
                        // "Write hit on a clean, exclusively-held block":
                        // permission fetched from the home.
                        self.frame.ledger.events.exclusive_upgrades += 1;
                        self.frame.ledger.messages.write_hit +=
                            charge(OpKind::WriteHit, home == n, false, 0);
                        let policy = self.frame.policy;
                        let rc = if self.frame.pure_migratory {
                            let e = self.entry_mut(block);
                            e.last_invalidator = Some(n);
                            e.dirty = true;
                            Reclassification::Unchanged
                        } else {
                            self.entry_mut(block)
                                .on_write_hit_clean_exclusive(policy, n)
                        };
                        self.frame
                            .ledger
                            .reclassified(rc, block, n, Rule::WriteHitCleanExclusive);
                        self.caches[n.index()]
                            .get_mut(block)
                            .expect("residency checked by the contains() dispatch above")
                            .state = LineState::Dirty;
                        StepKind::ExclusiveUpgrade
                    }
                    LineState::Shared => {
                        // "Write hit invalidating one or more copies."
                        self.frame.ledger.events.shared_upgrades += 1;
                        let policy = self.frame.policy;
                        let pure = self.frame.pure_migratory;
                        let repr = self.frame.repr;
                        let nodes = self.frame.nodes;
                        let entry = self.entry_mut(block);
                        let dc = repr.charged_distant_copies(
                            &entry.copyset,
                            entry.overflowed,
                            n,
                            home,
                            nodes,
                        );
                        let was_overflowed = entry.overflowed;
                        let others: Vec<NodeId> =
                            entry.copyset.iter().filter(|&m| m != n).collect();
                        let rc = if pure {
                            entry.created = crate::directory::CopiesCreated::One;
                            entry.last_invalidator = Some(n);
                            entry.dirty = true;
                            Reclassification::Unchanged
                        } else {
                            entry.on_write_hit_shared(policy, n)
                        };
                        entry.copyset = CopySet::only(n);
                        entry.overflowed = false;
                        if was_overflowed {
                            self.frame.ledger.events.broadcast_invalidations += 1;
                        }
                        self.frame.ledger.messages.write_hit +=
                            charge(OpKind::WriteHit, home == n, false, dc);
                        for m in others {
                            let removed = self.caches[m.index()].remove(block);
                            debug_assert!(removed.is_some(), "copyset out of sync with caches");
                            self.frame.ledger.invalidated(block, m);
                        }
                        self.frame
                            .ledger
                            .reclassified(rc, block, n, Rule::WriteHitShared);
                        self.caches[n.index()]
                            .get_mut(block)
                            .expect("residency checked by the contains() dispatch above")
                            .state = LineState::Dirty;
                        StepKind::SharedUpgrade
                    }
                };
                let v = self.bump_version(block);
                self.caches[n.index()]
                    .get_mut(block)
                    .expect("residency checked by the contains() dispatch above")
                    .version = v;
                kind
            }
        })
    }

    fn miss(
        &mut self,
        n: NodeId,
        block: BlockAddr,
        home: NodeId,
        op: MemOp,
    ) -> Result<StepKind, Violation> {
        let policy = self.frame.policy;
        let pure = self.frame.pure_migratory;
        // Snapshot directory state before the transaction.
        let repr = self.frame.repr;
        let nodes = self.frame.nodes;
        let (dirty, dc, copyset_before, was_overflowed) = {
            let e = self.entry_mut(block);
            (
                e.dirty,
                // A dirty block has a single, precisely known owner even
                // under limited pointers; only clean multi-copy
                // invalidations are affected by pointer overflow.
                if e.dirty {
                    e.copyset.distant_count(n, home)
                } else {
                    repr.charged_distant_copies(&e.copyset, e.overflowed, n, home, nodes)
                },
                e.copyset.clone(),
                e.overflowed,
            )
        };
        debug_assert!(!copyset_before.contains(n), "missing node holds a copy");
        Ok(match op {
            MemOp::Read if self.frame.rwitm => {
                // Read-with-ownership: fetch the block with write
                // permission, invalidating every existing copy — one
                // transaction, charged like a write miss.
                self.frame.ledger.events.read_misses += 1;
                self.frame.ledger.events.migrations += 1;
                self.frame.ledger.messages.read_miss +=
                    charge(OpKind::WriteMiss, home == n, dirty, dc);
                let mut served_from_owner = None;
                for m in copyset_before.iter() {
                    let old = self.take_copy(m, block, "read-with-ownership")?;
                    if old.state.is_dirty() {
                        self.mem_version.insert(block, old.version);
                        served_from_owner = Some(old.version);
                    }
                    self.frame.ledger.invalidated(block, m);
                }
                let served = served_from_owner.unwrap_or_else(|| self.memory_version(block));
                self.observe(block, served, "read-with-ownership")?;
                let e = self.entry_mut(block);
                e.created = crate::directory::CopiesCreated::One;
                e.last_invalidator = Some(n);
                e.copyset = CopySet::only(n);
                e.overflowed = false;
                e.dirty = false;
                self.insert_line(n, block, LineState::MigratoryClean, served)?;
                StepKind::ReadMissMigrate
            }
            MemOp::Read => {
                self.frame.ledger.events.read_misses += 1;
                self.frame.ledger.messages.read_miss +=
                    charge(OpKind::ReadMiss, home == n, dirty, dc);
                let (action, rc) = {
                    let e = self.entry_mut(block);
                    if pure && dirty {
                        // Sequent Symmetry model B / Alewife: migrate every
                        // modified block on a read miss, unconditionally.
                        (ReadMissAction::Migrate, Reclassification::Unchanged)
                    } else {
                        e.on_read_miss(policy)
                    }
                };
                self.frame.ledger.reclassified(rc, block, n, Rule::ReadMiss);
                match action {
                    ReadMissAction::Migrate => {
                        self.frame.ledger.events.migrations += 1;
                        let served = if let Some(owner) = copyset_before.single() {
                            // One transaction: copy to the requester and
                            // invalidate the previous holder.
                            let old = self.take_copy(owner, block, "migration")?;
                            if old.state.is_dirty() {
                                self.mem_version.insert(block, old.version);
                            }
                            self.frame.ledger.invalidated(block, owner);
                            old.version
                        } else {
                            debug_assert!(copyset_before.is_empty());
                            self.memory_version(block)
                        };
                        self.observe(block, served, "migration")?;
                        let e = self.entry_mut(block);
                        e.copyset = CopySet::only(n);
                        e.overflowed = false;
                        e.dirty = false;
                        self.insert_line(n, block, LineState::MigratoryClean, served)?;
                    }
                    ReadMissAction::Replicate => {
                        self.frame.ledger.events.replications += 1;
                        // Demote an exclusive holder (Dirty, Exclusive or
                        // MigratoryClean) to Shared; a dirty copy is
                        // written back as part of the transaction (§3.3).
                        let mut served_from_owner = None;
                        if let Some(owner) = copyset_before.single() {
                            if let Some(line) = self.caches[owner.index()].get_mut(block) {
                                if line.state.is_dirty() {
                                    served_from_owner = Some(line.version);
                                }
                                line.state = LineState::Shared;
                            }
                        }
                        if let Some(v) = served_from_owner {
                            self.mem_version.insert(block, v);
                        }
                        let served =
                            served_from_owner.unwrap_or_else(|| self.memory_version(block));
                        self.observe(block, served, "replication")?;
                        let e = self.entry_mut(block);
                        e.dirty = false;
                        e.copyset.insert(n);
                        e.overflowed |= repr.overflows(e.copyset.len());
                        let state = if copyset_before.is_empty() {
                            LineState::Exclusive
                        } else {
                            LineState::Shared
                        };
                        self.insert_line(n, block, state, served)?;
                    }
                }
                match action {
                    ReadMissAction::Migrate => StepKind::ReadMissMigrate,
                    ReadMissAction::Replicate => StepKind::ReadMissReplicate,
                }
            }
            MemOp::Write => {
                self.frame.ledger.events.write_misses += 1;
                self.frame.ledger.messages.write_miss +=
                    charge(OpKind::WriteMiss, home == n, dirty, dc);
                // Invalidate every existing copy; a dirty one supplies the
                // data (and is written home).
                let mut served_from_owner = None;
                for m in copyset_before.iter() {
                    let old = self.take_copy(m, block, "write miss")?;
                    if old.state.is_dirty() {
                        self.mem_version.insert(block, old.version);
                        served_from_owner = Some(old.version);
                    }
                    self.frame.ledger.invalidated(block, m);
                }
                let served = served_from_owner.unwrap_or_else(|| self.memory_version(block));
                self.observe(block, served, "write miss")?;
                if was_overflowed {
                    self.frame.ledger.events.broadcast_invalidations += 1;
                }
                let rc = {
                    let e = self.entry_mut(block);
                    let rc = if pure {
                        e.created = crate::directory::CopiesCreated::One;
                        e.last_invalidator = Some(n);
                        e.dirty = true;
                        Reclassification::Unchanged
                    } else {
                        e.on_write_miss(policy, n)
                    };
                    e.copyset = CopySet::only(n);
                    e.overflowed = false;
                    rc
                };
                self.frame
                    .ledger
                    .reclassified(rc, block, n, Rule::WriteMiss);
                let v = self.bump_version(block);
                self.insert_line(n, block, LineState::Dirty, v)?;
                StepKind::WriteMiss
            }
        })
    }

    /// Removes `node`'s copy of `block`, which the directory claims
    /// exists; reports a [`ViolationKind::CopysetMismatch`] if the cache
    /// disagrees.
    fn take_copy(
        &mut self,
        node: NodeId,
        block: BlockAddr,
        context: &'static str,
    ) -> Result<Line, Violation> {
        self.caches[node.index()]
            .remove(block)
            .ok_or_else(|| self.violation(block, ViolationKind::CopysetMismatch, context))
    }

    /// Inserts a line at node `n`, handling the eviction of a victim:
    /// charging §3.3 eviction traffic, writing back dirty data, and
    /// pruning the victim's directory entry. Reports a violation when
    /// the victim has no directory entry (directory/cache desync).
    fn insert_line(
        &mut self,
        n: NodeId,
        block: BlockAddr,
        state: LineState,
        version: u64,
    ) -> Result<(), Violation> {
        let victim = self.caches[n.index()].insert(block, Line { state, version });
        if let Some((vb, vline)) = victim {
            let vhome = self.frame.home_of(vb);
            let dirty = vline.state.is_dirty();
            self.frame.ledger.messages.eviction += charge_eviction(vhome == n, dirty);
            if dirty {
                self.mem_version.insert(vb, vline.version);
                self.frame.ledger.events.writebacks += 1;
            } else {
                self.frame.ledger.events.clean_drops += 1;
            }
            if !self.dir.contains_key(&vb) {
                return Err(self.violation(vb, ViolationKind::CopysetMismatch, "eviction"));
            }
            let policy = self.frame.policy;
            let rc = self
                .dir
                .get_mut(&vb)
                .expect("contains_key checked above")
                .on_copy_dropped(policy, n);
            self.frame.ledger.reclassified(rc, vb, n, Rule::CopyDropped);
        }
        Ok(())
    }

    fn entry_mut(&mut self, block: BlockAddr) -> &mut DirEntry {
        let policy = self.frame.policy;
        self.dir
            .entry(block)
            .or_insert_with(|| DirEntry::new(policy))
    }

    fn bump_version(&mut self, block: BlockAddr) -> u64 {
        let v = self.latest.entry(block).or_insert(0);
        *v += 1;
        *v
    }

    /// Checks an observed version against the latest write; a mismatch
    /// means stale data became visible.
    fn observe(
        &self,
        block: BlockAddr,
        observed: u64,
        context: &'static str,
    ) -> Result<(), Violation> {
        let latest = self.latest_version(block);
        if observed == latest {
            Ok(())
        } else {
            Err(self.violation(
                block,
                ViolationKind::StaleRead { observed, latest },
                context,
            ))
        }
    }

    /// Builds a [`Violation`] report with the engine's current view of
    /// `block` attached.
    fn violation(&self, block: BlockAddr, kind: ViolationKind, context: &'static str) -> Violation {
        Violation {
            block,
            step: self.frame.ledger.steps,
            kind,
            context,
            entry: self.dir.get(&block).cloned(),
        }
    }

    /// Overwrites the version tag of a resident line, returning whether
    /// the line existed. Testing hook: the protocol never creates a
    /// stale resident copy itself, so corruption tests use this to
    /// prove the data-value checks actually fire.
    #[doc(hidden)]
    pub fn poison_line_version(&mut self, node: NodeId, block: BlockAddr, version: u64) -> bool {
        match self.caches[node.index()].get_mut(block) {
            Some(line) => {
                line.version = version;
                true
            }
            None => false,
        }
    }

    /// Overwrites the latest-write version the built-in oracle tracks
    /// for `block`. Testing hook: simulates a lost write so
    /// version-regression checks can be exercised.
    #[doc(hidden)]
    pub fn poison_latest_version(&mut self, block: BlockAddr, version: u64) {
        self.latest.insert(block, version);
    }
}

impl Engine for DirectoryEngine {
    fn protocol(&self) -> Protocol {
        self.frame.protocol
    }

    fn steps(&self) -> u64 {
        self.frame.ledger.steps
    }

    fn try_step(&mut self, r: MemRef) -> Result<StepInfo, SimError> {
        let block = self.frame.open(r)?;
        let home = self.frame.home_of(block);
        let backoff = if self.frame.ledger.faults.is_none() {
            0
        } else {
            let shape = TransactionShape::of(
                r,
                home,
                self.frame.rwitm,
                self.caches[r.node.index()].get(block).map(|l| l.state),
                self.dir
                    .get(&block)
                    .map(|e| (e.dirty, &e.copyset, e.overflowed)),
                self.frame.repr,
                self.frame.nodes,
            );
            self.frame.ledger.deliver(block, r.node, shape)?
        };
        let before = self.frame.ledger.messages.critical_path();
        let kind = if self.caches[r.node.index()].contains(block) {
            self.hit(r.node, block, home, r.op)?
        } else {
            self.miss(r.node, block, home, r.op)?
        };
        let ledger = &self.frame.ledger;
        Ok(ledger.stepped(block, r.node, home, kind, before, backoff))
    }

    /// One walk of the directory that looks up each holder's line in
    /// its node's cache. Only when the walk met fewer lines than the
    /// caches hold are the caches walked too, for the lines at nodes
    /// their block's copy set omits: each comes in a row of its own,
    /// which the sweep reports as a copy-set mismatch.
    fn rows(&self, visit: &mut dyn FnMut(BlockRow<'_>)) {
        let mut met = 0;
        for (&block, entry) in &self.dir {
            let mut lines = entry.copyset.iter().filter_map(|node| {
                let line = self.caches[node.index()].get(block)?;
                met += 1;
                Some((node, line.state, line.version))
            });
            visit(BlockRow {
                block,
                entry: Some((&entry.copyset, entry.dirty)),
                lines: &mut lines,
                memory: self.memory_version(block),
                latest: self.latest_version(block),
            });
        }
        if met == self.caches.iter().map(Cache::len).sum::<usize>() {
            return;
        }
        for node in NodeId::first(self.frame.nodes) {
            for (block, line) in self.caches[node.index()].iter() {
                let entry = self.dir.get(&block);
                if !entry.is_some_and(|e| e.copyset.contains(node)) {
                    visit(BlockRow {
                        block,
                        entry: entry.map(|e| (&e.copyset, e.dirty)),
                        lines: &mut std::iter::once((node, line.state, line.version)),
                        memory: self.memory_version(block),
                        latest: self.latest_version(block),
                    });
                }
            }
        }
    }

    fn messages(&self) -> MessageBreakdown {
        self.frame.ledger.messages
    }

    fn events(&self) -> EventCounts {
        self.frame.ledger.events
    }

    fn line_state(&self, node: NodeId, block: BlockAddr) -> Option<LineState> {
        self.caches[node.index()].get(block).map(|l| l.state)
    }

    fn line_version(&self, node: NodeId, block: BlockAddr) -> Option<u64> {
        self.caches[node.index()].get(block).map(|l| l.version)
    }

    fn dir_entry(&self, block: BlockAddr) -> Option<DirEntry> {
        self.dir.get(&block).cloned()
    }

    fn latest_version(&self, block: BlockAddr) -> u64 {
        self.latest.get(&block).copied().unwrap_or(0)
    }

    fn memory_version(&self, block: BlockAddr) -> u64 {
        self.mem_version.get(&block).copied().unwrap_or(0)
    }

    fn set_sink(&mut self, sink: Option<SharedSink>) {
        self.frame.ledger.sink = sink;
    }

    /// Cache residency in LRU order, directory entries and version
    /// tables in block order, plus the frame's counters and fault
    /// stream position.
    fn snapshot(&self) -> EngineSnapshot {
        let sorted = |map: &HashMap<BlockAddr, u64>| {
            let mut rows: Vec<(u64, u64)> = map.iter().map(|(b, v)| (b.index(), *v)).collect();
            rows.sort_unstable();
            rows
        };
        let mut dir: Vec<(u64, DirEntry)> = self
            .dir
            .iter()
            .map(|(b, e)| (b.index(), e.clone()))
            .collect();
        dir.sort_by_key(|&(b, _)| b);
        let caches = self
            .caches
            .iter()
            .map(|c| {
                c.snapshot_lines()
                    .into_iter()
                    .map(|(b, l)| (b.index(), l.state, l.version))
                    .collect()
            })
            .collect();
        EngineSnapshot {
            caches,
            dir,
            mem_version: sorted(&self.mem_version),
            latest: sorted(&self.latest),
            ..self.frame.capture()
        }
    }

    fn finish(self) -> SimResult {
        self.frame.ledger.finish(self.frame.protocol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_cache::CacheGeometry;
    use mcc_trace::Addr;

    fn config() -> DirectorySimConfig {
        DirectorySimConfig::default()
    }

    fn rr_engine(protocol: Protocol, cfg: &DirectorySimConfig) -> DirectoryEngine {
        DirectoryEngine::new(protocol, cfg, PagePlacement::round_robin(cfg.nodes))
    }

    /// R,W by node 1, then R,W by node 2, alternating, on one block.
    fn ping_pong(rounds: usize) -> Trace {
        let mut t = Trace::new();
        t.push(MemRef::write(NodeId::new(1), Addr::new(0)));
        for i in 0..rounds {
            let n = NodeId::new(if i % 2 == 0 { 2 } else { 1 });
            t.push(MemRef::read(n, Addr::new(0)));
            t.push(MemRef::write(n, Addr::new(0)));
        }
        t
    }

    fn run_rr(protocol: Protocol, trace: &Trace) -> SimResult {
        let cfg = config();
        let mut e = rr_engine(protocol, &cfg);
        for r in trace.iter() {
            e.step(*r);
        }
        e.check_invariants();
        e.finish()
    }

    #[test]
    fn conventional_migratory_costs_match_hand_count() {
        // Block 0 lives at home node 0 (round-robin). Nodes 1 and 2 hand
        // the block back and forth; neither is the home.
        let r = run_rr(Protocol::Conventional, &ping_pong(4));
        // Hand count:
        //   P1 write miss, remote home, uncached: (1,1).
        //   Round 1: P2 read miss, remote, dirty at P1 (DC=1): (2,2);
        //            P2 write hit shared, remote, DC={P1}: (4,0).
        //   Rounds 2-4 identical: (6,2) each.
        assert_eq!(r.messages.write_miss.control, 1);
        assert_eq!(r.messages.write_miss.data, 1);
        assert_eq!(r.messages.read_miss.control, 2 * 4);
        assert_eq!(r.messages.read_miss.data, 2 * 4);
        assert_eq!(r.messages.write_hit.control, 4 * 4);
        assert_eq!(r.messages.write_hit.data, 0);
        assert_eq!(r.total_messages(), 2 + 4 * 8);
    }

    #[test]
    fn basic_adaptive_halves_migratory_traffic() {
        // After one hand-off the basic protocol classifies the block
        // migratory; every later hand-off is a single (2,2) migration.
        let rounds = 10;
        let conventional = run_rr(Protocol::Conventional, &ping_pong(rounds));
        let basic = run_rr(Protocol::Basic, &ping_pong(rounds));
        // Per steady-state hand-off: conventional (6,2)=8, adaptive (2,2)=4.
        assert!(basic.total_messages() < conventional.total_messages());
        // First hand-off is unclassified; the remaining rounds-1 each
        // save exactly 4 messages (the write-hit invalidation round).
        let saved = conventional.total_messages() - basic.total_messages();
        assert_eq!(saved, 4 * (rounds as u64 - 1));
        assert_eq!(basic.events.migrations, rounds as u64 - 1);
        assert_eq!(basic.events.write_grants_used, rounds as u64 - 1);
    }

    #[test]
    fn aggressive_classifies_from_the_first_access() {
        let rounds = 10;
        let aggressive = run_rr(Protocol::Aggressive, &ping_pong(rounds));
        // Every hand-off migrates: no shared upgrades at all.
        assert_eq!(aggressive.events.shared_upgrades, 0);
        assert_eq!(aggressive.events.migrations, rounds as u64);
        let conventional = run_rr(Protocol::Conventional, &ping_pong(rounds));
        assert_eq!(
            conventional.total_messages() - aggressive.total_messages(),
            4 * rounds as u64
        );
    }

    #[test]
    fn conservative_needs_two_handoffs() {
        let conservative = run_rr(Protocol::Conservative, &ping_pong(10));
        let basic = run_rr(Protocol::Basic, &ping_pong(10));
        // One extra unclassified hand-off: 4 more messages.
        assert_eq!(conservative.total_messages() - basic.total_messages(), 4);
        assert_eq!(conservative.events.migrations, 8);
    }

    #[test]
    fn read_shared_data_is_never_migrated_by_basic() {
        // One producer write, then many readers, re-read repeatedly.
        let mut t = Trace::new();
        t.push(MemRef::write(NodeId::new(0), Addr::new(0)));
        for _ in 0..3 {
            for n in 1..8u16 {
                t.push(MemRef::read(NodeId::new(n), Addr::new(0)));
            }
        }
        let basic = run_rr(Protocol::Basic, &t);
        let conventional = run_rr(Protocol::Conventional, &t);
        assert_eq!(basic.events.migrations, 0);
        assert_eq!(basic.total_messages(), conventional.total_messages());
        assert_eq!(basic.message_count(), conventional.message_count());
    }

    #[test]
    fn aggressive_demotes_read_shared_data_after_one_migration() {
        let mut t = Trace::new();
        for n in 0..6u16 {
            t.push(MemRef::read(NodeId::new(n), Addr::new(0)));
        }
        let r = run_rr(Protocol::Aggressive, &t);
        // First read migrates (cold classification), second demotes,
        // the rest replicate.
        assert_eq!(r.events.migrations, 1);
        assert_eq!(r.events.became_other, 1);
        assert_eq!(r.events.replications, 5);
    }

    #[test]
    fn pure_migratory_migrates_every_dirty_read_miss() {
        let t = ping_pong(6);
        let pure = run_rr(Protocol::PureMigratory, &t);
        assert_eq!(pure.events.migrations, 6);
        // On migratory data, pure matches the aggressive protocol.
        let aggressive = run_rr(Protocol::Aggressive, &t);
        assert_eq!(pure.total_messages(), aggressive.total_messages());
    }

    #[test]
    fn pure_migratory_hurts_read_shared_after_write() {
        // Producer writes, readers read, producer's copy keeps getting
        // stolen -> extra read misses (the Thakkar observation, §5).
        let mut t = Trace::new();
        for _ in 0..4 {
            t.push(MemRef::write(NodeId::new(0), Addr::new(0)));
            t.push(MemRef::read(NodeId::new(1), Addr::new(0)));
            t.push(MemRef::read(NodeId::new(0), Addr::new(0)));
        }
        let pure = run_rr(Protocol::PureMigratory, &t);
        let conventional = run_rr(Protocol::Conventional, &t);
        assert!(pure.events.read_misses > conventional.events.read_misses);
    }

    #[test]
    fn remembers_classification_across_eviction() {
        // Tiny cache: one set, two ways. Blocks 0 and the conflicting
        // blocks 2,4 evict block 0 between migratory visits.
        let geom = CacheGeometry::new(32, BlockSize::B16, 2).unwrap();
        let cfg = DirectorySimConfig {
            cache: CacheConfig::Finite(geom),
            ..config()
        };
        let mut t = Trace::new();
        // Establish migratory classification for block 0.
        t.push(MemRef::write(NodeId::new(1), Addr::new(0)));
        for round in 0..4u64 {
            let n = NodeId::new(if round % 2 == 0 { 2 } else { 1 });
            t.push(MemRef::read(n, Addr::new(0)));
            t.push(MemRef::write(n, Addr::new(0)));
            // Evict block 0 from n's cache by filling its set.
            t.push(MemRef::read(n, Addr::new(32)));
            t.push(MemRef::read(n, Addr::new(64)));
            t.push(MemRef::read(n, Addr::new(96)));
        }
        let basic = DirectorySim::new(Protocol::Basic, &cfg).run(&t);
        let conventional = DirectorySim::new(Protocol::Conventional, &cfg).run(&t);
        // The classification survives the uncached intervals, so reloads
        // are granted write permission and skip the upgrade round-trips.
        assert!(basic.events.write_grants_used > 0);
        assert!(basic.total_messages() < conventional.total_messages());
    }

    #[test]
    fn local_home_single_node_costs_nothing() {
        // Node 0 only references a page homed at node 0: every operation
        // is node-local.
        let mut t = Trace::new();
        for i in 0..20u64 {
            t.push(MemRef::read(NodeId::new(0), Addr::new(i * 16)));
            t.push(MemRef::write(NodeId::new(0), Addr::new(i * 16)));
        }
        for p in Protocol::PAPER_SET {
            let r = run_rr(p, &t);
            assert_eq!(r.total_messages(), 0, "{p} charged messages for local work");
        }
    }

    #[test]
    fn eviction_traffic_is_charged() {
        // One-set cache at node 1; round-robin homes page 0 at node 0, so
        // the eviction messages cross nodes and are charged.
        let geom = CacheGeometry::new(32, BlockSize::B16, 2).unwrap();
        let cfg = DirectorySimConfig {
            cache: CacheConfig::Finite(geom),
            placement: PlacementPolicy::RoundRobin,
            ..config()
        };
        let mut t = Trace::new();
        // Three conflicting blocks: the third insert evicts a clean one.
        t.push(MemRef::read(NodeId::new(1), Addr::new(0)));
        t.push(MemRef::read(NodeId::new(1), Addr::new(32)));
        t.push(MemRef::read(NodeId::new(1), Addr::new(64)));
        let r = DirectorySim::new(Protocol::Conventional, &cfg).run(&t);
        assert_eq!(r.events.clean_drops, 1);
        assert_eq!(r.messages.eviction.control, 1);
        assert_eq!(r.messages.eviction.data, 0);

        // Now a dirty victim: write then conflict.
        let mut t = Trace::new();
        t.push(MemRef::write(NodeId::new(1), Addr::new(0)));
        t.push(MemRef::read(NodeId::new(1), Addr::new(32)));
        t.push(MemRef::read(NodeId::new(1), Addr::new(64)));
        let r = DirectorySim::new(Protocol::Conventional, &cfg).run(&t);
        assert_eq!(r.events.writebacks, 1);
        assert_eq!(r.messages.eviction.data, 1);
    }

    /// Sixteen blocks, each read by nodes 1 and 2: two `Shared` holders
    /// and a clean directory entry per block.
    fn shared_blocks() -> DirectoryEngine {
        let mut e = rr_engine(Protocol::Conventional, &config());
        for b in 0..16u64 {
            for n in [1u16, 2] {
                e.step(MemRef::read(NodeId::new(n), Addr::new(b * 16)));
            }
        }
        e
    }

    #[test]
    fn sweeps_name_the_lowest_block_of_each_structural_kind() {
        type Plant = fn(&mut DirectoryEngine, BlockAddr);
        let plants: [(ViolationKind, Plant); 3] = [
            // A holder's line goes while the copy set keeps it.
            (ViolationKind::CopysetMismatch, |e, b| {
                e.caches[2].remove(b).unwrap();
            }),
            // One of two Shared holders turns Exclusive.
            (ViolationKind::ExclusiveConflict, |e, b| {
                e.caches[1].get_mut(b).unwrap().state = LineState::Exclusive;
            }),
            (ViolationKind::DirtyBitMismatch, |e, b| {
                e.dir.get_mut(&b).unwrap().dirty ^= true;
            }),
        ];
        let named = |v: Violation| (v.block, v.kind);
        for (kind, plant) in plants {
            // Each build hashes its tables anew, so the sweep meets the
            // two planted blocks in varying order.
            for build in 0..8 {
                let mut e = shared_blocks();
                for b in [11, 4] {
                    plant(&mut e, BlockAddr::new(b));
                }
                let want = Err((BlockAddr::new(4), kind));
                assert_eq!(e.verify().map_err(named), want, "{kind:?} build {build}");
                let swept = crate::Monitor::new(1).verify(&e).map_err(named);
                assert_eq!(swept, want, "{kind:?} build {build}");
            }
        }
    }

    #[test]
    fn engine_inspection_api() {
        let cfg = config();
        let mut e = rr_engine(Protocol::Basic, &cfg);
        let block = Addr::new(0).block(cfg.block_size);
        e.step(MemRef::read(NodeId::new(1), Addr::new(0)));
        assert_eq!(
            e.line_state(NodeId::new(1), block),
            Some(LineState::Exclusive)
        );
        e.step(MemRef::write(NodeId::new(1), Addr::new(0)));
        assert_eq!(e.line_state(NodeId::new(1), block), Some(LineState::Dirty));
        assert!(e.dir_entry(block).unwrap().dirty);
        e.step(MemRef::read(NodeId::new(2), Addr::new(0)));
        assert_eq!(e.line_state(NodeId::new(1), block), Some(LineState::Shared));
        assert_eq!(e.line_state(NodeId::new(2), block), Some(LineState::Shared));
        e.step(MemRef::write(NodeId::new(2), Addr::new(0)));
        assert_eq!(e.line_state(NodeId::new(1), block), None);
        assert!(
            e.dir_entry(block).unwrap().migratory,
            "basic classifies after one hand-off"
        );
        assert_eq!(e.protocol(), Protocol::Basic);
        assert!(e.messages().total() > 0);
        assert!(e.events().read_misses > 0);
    }

    #[test]
    #[should_panic(expected = "16 nodes")]
    fn rejects_out_of_range_node() {
        let cfg = config();
        let mut e = rr_engine(Protocol::Basic, &cfg);
        e.step(MemRef::read(NodeId::new(16), Addr::new(0)));
    }

    #[test]
    fn rwitm_hints_reach_the_migratory_optimum() {
        // With perfect hints, every hand-off costs a single
        // write-miss-priced transaction from the very first access —
        // matching (and on the first touch beating) the aggressive
        // protocol's steady state.
        let rounds = 10;
        let trace = ping_pong(rounds);
        let hints = crate::oracle::migrate_hints(&trace, BlockSize::B16);
        let cfg = config();
        let mut engine = rr_engine(Protocol::Conventional, &cfg);
        for (r, &hint) in trace.iter().zip(&hints) {
            engine.step_hinted(*r, hint);
        }
        engine.check_invariants();
        let oracle_msgs = engine.messages().total();

        let aggressive = run_rr(Protocol::Aggressive, &trace);
        assert!(
            oracle_msgs <= aggressive.total_messages(),
            "oracle ({oracle_msgs}) must not lose to aggressive ({})",
            aggressive.total_messages()
        );
        // Every hand-off migrated.
        assert_eq!(engine.events().migrations, rounds as u64);
    }

    #[test]
    fn rwitm_on_clean_shared_block_invalidates_all_copies() {
        let cfg = config();
        let mut e = rr_engine(Protocol::Conventional, &cfg);
        let block = Addr::new(0).block(cfg.block_size);
        for n in 1..4u16 {
            e.step(MemRef::read(NodeId::new(n), Addr::new(0)));
        }
        let info = e.step_hinted(MemRef::read(NodeId::new(5), Addr::new(0)), true);
        assert_eq!(info.kind, StepKind::ReadMissMigrate);
        for n in 1..4u16 {
            assert_eq!(e.line_state(NodeId::new(n), block), None);
        }
        assert_eq!(
            e.line_state(NodeId::new(5), block),
            Some(LineState::MigratoryClean)
        );
        // The follow-up write is free.
        let before = e.messages().total();
        e.step(MemRef::write(NodeId::new(5), Addr::new(0)));
        assert_eq!(e.messages().total(), before);
        e.check_invariants();
    }

    #[test]
    #[should_panic(expected = "conventional substrate")]
    fn hints_rejected_on_adaptive_protocols() {
        let cfg = config();
        let mut e = rr_engine(Protocol::Basic, &cfg);
        e.step_hinted(MemRef::read(NodeId::new(0), Addr::new(0)), true);
    }

    #[test]
    fn limited_pointer_directory_broadcasts_after_overflow() {
        use crate::repr::DirectoryRepr;
        let cfg = DirectorySimConfig {
            directory: DirectoryRepr::LimitedPointer { pointers: 2 },
            placement: PlacementPolicy::RoundRobin,
            ..config()
        };
        let mut t = Trace::new();
        // Four readers: the Dir2B entry overflows at the third copy.
        for n in 1..5u16 {
            t.push(MemRef::read(NodeId::new(n), Addr::new(0)));
        }
        // The writer must now broadcast to all 16 nodes.
        t.push(MemRef::write(NodeId::new(1), Addr::new(0)));
        let limited = DirectorySim::new(Protocol::Conventional, &cfg).run(&t);
        assert_eq!(limited.events.broadcast_invalidations, 1);

        let full_cfg = DirectorySimConfig {
            placement: PlacementPolicy::RoundRobin,
            ..config()
        };
        let full = DirectorySim::new(Protocol::Conventional, &full_cfg).run(&t);
        assert_eq!(full.events.broadcast_invalidations, 0);
        // Broadcast: 2 x 14 distant nodes + 2 (remote home request/grant)
        // vs the precise 2 x 3 + 2.
        assert_eq!(
            limited.total_messages() - full.total_messages(),
            2 * 14 - 2 * 3
        );
    }

    #[test]
    fn migratory_data_never_overflows_limited_pointers() {
        use crate::repr::DirectoryRepr;
        // Migratory blocks have at most two copies, so even a Dir2B
        // directory stays precise under the adaptive protocol.
        let cfg = DirectorySimConfig {
            directory: DirectoryRepr::LimitedPointer { pointers: 2 },
            placement: PlacementPolicy::RoundRobin,
            ..config()
        };
        let full_cfg = DirectorySimConfig {
            placement: PlacementPolicy::RoundRobin,
            ..config()
        };
        let t = ping_pong(10);
        let limited = DirectorySim::new(Protocol::Basic, &cfg).run(&t);
        let full = DirectorySim::new(Protocol::Basic, &full_cfg).run(&t);
        assert_eq!(limited.events.broadcast_invalidations, 0);
        assert_eq!(limited.total_messages(), full.total_messages());
    }

    #[test]
    fn false_sharing_defeats_migratory_classification() {
        // Two "variables" in the same 16-byte block, each privately
        // hammered by a different node: the block looks write-shared, not
        // migratory, and basic never classifies it.
        let mut t = Trace::new();
        for _ in 0..10 {
            t.push(MemRef::write(NodeId::new(1), Addr::new(0)));
            t.push(MemRef::write(NodeId::new(2), Addr::new(8)));
        }
        let r = run_rr(Protocol::Basic, &t);
        assert_eq!(r.events.migrations, 0);
        // With 32-byte-or-larger blocks the same accesses would share a
        // block too; with separate blocks they are private:
        let mut separate = Trace::new();
        for _ in 0..10 {
            separate.push(MemRef::write(NodeId::new(1), Addr::new(0)));
            separate.push(MemRef::write(NodeId::new(2), Addr::new(16)));
        }
        let r2 = run_rr(Protocol::Basic, &separate);
        assert!(r2.total_messages() < r.total_messages());
    }

    #[test]
    fn reliable_fault_plan_changes_nothing() {
        let cfg = config();
        let t = ping_pong(25);
        let plain = DirectorySim::new(Protocol::Basic, &cfg).run(&t);
        let reliable = DirectorySim::new(Protocol::Basic, &cfg)
            .with_faults(FaultPlan::reliable(7))
            .try_run(&t)
            .expect("reliable plan cannot fail");
        assert_eq!(plain.messages, reliable.messages);
        assert_eq!(plain.events, reliable.events);
    }

    #[test]
    fn faulted_run_delivers_the_same_protocol_traffic() {
        // Faults waste messages and stall cycles but never change what
        // the protocol ultimately does: the delivered traffic and the
        // protocol event counts must match the fault-free run exactly.
        let cfg = config();
        let t = ping_pong(50);
        for protocol in Protocol::PAPER_SET {
            let clean = DirectorySim::new(protocol, &cfg)
                .try_run(&t)
                .expect("fault-free run");
            let faulted = DirectorySim::new(protocol, &cfg)
                .with_faults(FaultPlan::uniform(42, 20_000))
                .try_run(&t)
                .expect("2% fault rate is comfortably inside the retry budget");
            assert_eq!(clean.messages.delivered(), faulted.messages.delivered());
            assert_eq!(clean.events.refs(), faulted.events.refs());
            assert_eq!(clean.events.migrations, faulted.events.migrations);
            assert_eq!(clean.events.invalidations, faulted.events.invalidations);
            assert_eq!(faulted.messages.delivered(), clean.messages.combined());
            assert!(
                faulted.messages.overhead().total() > 0,
                "a 2% fault rate over {} refs must waste some traffic",
                t.len()
            );
        }
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let cfg = config();
        let t = ping_pong(40);
        let plan = FaultPlan::uniform(99, 50_000);
        let a = DirectorySim::new(Protocol::Aggressive, &cfg)
            .with_faults(plan)
            .try_run(&t)
            .expect("run a");
        let b = DirectorySim::new(Protocol::Aggressive, &cfg)
            .with_faults(plan)
            .try_run(&t)
            .expect("run b");
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn always_dropping_interconnect_reports_retry_exhaustion() {
        let cfg = config();
        let mut plan = FaultPlan::uniform(1, 1_000_000);
        plan.max_retries = 4;
        let t = ping_pong(2);
        let err = DirectorySim::new(Protocol::Conventional, &cfg)
            .with_faults(plan)
            .try_run(&t)
            .expect_err("nothing is ever delivered");
        match err {
            SimError::RetryExhausted { attempts, .. } => assert_eq!(attempts, 5),
            SimError::Livelock { .. } => {}
            other => panic!("expected exhaustion or livelock, got {other}"),
        }
    }

    #[test]
    fn node_out_of_range_is_an_error_not_a_panic() {
        let cfg = config();
        let mut t = Trace::new();
        t.push(MemRef::read(NodeId::new(99), Addr::new(0)));
        let err = DirectorySim::new(Protocol::Basic, &cfg)
            .try_run(&t)
            .expect_err("node 99 with a 16-node machine");
        assert_eq!(
            err,
            SimError::NodeOutOfRange {
                node: NodeId::new(99),
                nodes: cfg.nodes
            }
        );
    }

    #[test]
    fn backoff_stall_units_are_charged_on_faulted_retries() {
        let cfg = config();
        let t = ping_pong(60);
        let faulted = DirectorySim::new(Protocol::Conventional, &cfg)
            .with_faults(FaultPlan::uniform(3, 100_000))
            .try_run(&t)
            .expect("10% faults still inside the retry budget");
        assert!(faulted.events.retries > 0);
        assert!(faulted.events.backoff_units >= faulted.events.retries);
    }

    #[test]
    fn try_step_reports_backoff_in_step_info() {
        let cfg = config();
        let mut plan = FaultPlan::uniform(11, 400_000);
        plan.max_retries = 64;
        let mut engine = rr_engine(Protocol::Conventional, &cfg).with_faults(plan);
        let mut total_backoff = 0u64;
        for r in ping_pong(40).iter() {
            let info = engine.try_step(*r).expect("inside retry budget");
            total_backoff += info.backoff_units;
        }
        assert_eq!(total_backoff, engine.events().backoff_units);
        assert!(total_backoff > 0, "40% fault rate must trigger backoff");
    }
}
