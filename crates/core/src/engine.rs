//! The engine abstraction: one protocol semantics, two implementations.
//!
//! [`DirectoryEngine`](crate::DirectoryEngine) is the reference
//! implementation — hash-mapped tables, one state transition at a time,
//! written for auditability against the paper. [`FastEngine`] is the
//! hot path: dense struct-of-arrays block tables behind an
//! open-addressing index. [`Engine`] is each engine's only API: both
//! implement it directly, and [`AnyEngine`] packages the choice as a
//! runtime value so `DirectorySim`, the sharded runner, resumable runs
//! and the bench bins can select either with one knob.
//!
//! The two engines are kept bit-exact: same `SimResult`, same message
//! counters, same event stream, same errors (see
//! `tests/fast_engine_parity.rs` and DESIGN.md §13). Each writes only
//! its tables, its Figure 3 transitions (`hit`/`miss`), its inspection
//! bodies and the table half of its snapshot conversion. Everything
//! around them is written once: the `Frame` both engines hold carries
//! the protocol, the machine shape and the [`Ledger`], and owns the
//! step opening, snapshot capture and restore; the ledger holds the
//! step counter, the tallies, the fault injector and the sink, and
//! carries the one event path and fault-delivery adapter; the
//! transaction-shape rule and the delivery loop live in
//! [`faults`](crate::faults). The coherence invariants are written once
//! too: each engine only visits its blocks as [`BlockRow`]s
//! ([`Engine::rows`]), and one provided [`Engine::sweep`] checks them,
//! for [`Engine::verify`], the [`Monitor`](crate::Monitor), the
//! `mcc-check` harness and snapshot restore alike; the harness's
//! per-step [`Engine::sweep_blocks`] runs the same checks over the
//! blocks it names. Checkpoints are
//! interchangeable because both sides convert through the same
//! [`EngineSnapshot`], and both refuse the same malformed ones at
//! restore: whatever the sweep refuses in the snapshot's rows.

use std::collections::{BTreeMap, HashMap};

use mcc_obs::{Event as ObsEvent, Rule, SharedSink};
use mcc_placement::PagePlacement;
use mcc_trace::{BlockAddr, BlockSize, MemRef, NodeId};

use crate::checkpoint::EngineSnapshot;
use crate::directory::{CopySet, DirEntry, Reclassification};
use crate::error::{SimError, Violation, ViolationKind};
use crate::fast::FastEngine;
use crate::faults::{FaultInjector, FaultPlan, TransactionShape};
use crate::msg::MessageCount;
use crate::policy::{AdaptivePolicy, Protocol};
use crate::repr::DirectoryRepr;
use crate::result::{EventCounts, MessageBreakdown, SimResult};
use crate::sim::{DirectoryEngine, DirectorySimConfig, LineState, StepInfo, StepKind};

/// The node's zero-based index in the observability event vocabulary
/// (`mcc_obs` speaks raw `u16`s so it needs no trace types).
pub(crate) const fn obs_node(n: NodeId) -> u16 {
    n.index() as u16
}

/// The accounting the [`Frame`] carries for both engines — the step
/// counter, the message and event tallies, the fault injector and the
/// observability sink — and the machinery written once over it.
///
/// Every in-step event goes straight to the sink, in the order the
/// engine performs the transitions it describes. No protocol decision
/// reads the sink, so attaching one cannot perturb results, and with
/// none attached each emission is a single branch.
#[derive(Clone, Debug, Default)]
pub(crate) struct Ledger {
    /// References processed so far (including the one in flight).
    pub(crate) steps: u64,
    pub(crate) messages: MessageBreakdown,
    pub(crate) events: EventCounts,
    /// Interconnect fault injector; `None` models a reliable fabric.
    pub(crate) faults: Option<FaultInjector>,
    pub(crate) sink: Option<SharedSink>,
}

impl Ledger {
    /// Emits `event` into the attached sink, if any.
    pub(crate) fn emit(&self, event: &ObsEvent) {
        if let Some(sink) = &self.sink {
            sink.emit(event);
        }
    }

    /// Runs the transaction `shape` through the fault injector (see
    /// [`FaultInjector::deliver`]) and returns the units it waited.
    /// Engines call this only when a fault plan is attached, computing
    /// `shape` with [`TransactionShape::of`]; `None` (no transaction)
    /// never touches the fabric.
    pub(crate) fn deliver(
        &mut self,
        block: BlockAddr,
        node: NodeId,
        shape: Option<TransactionShape>,
    ) -> Result<u64, SimError> {
        let (Some(injector), Some(shape)) = (&mut self.faults, shape) else {
            return Ok(0);
        };
        let sink = &self.sink;
        injector.deliver(
            shape,
            (self.steps, block, node),
            &mut self.messages,
            &mut self.events,
            |event| {
                if let Some(sink) = sink {
                    sink.emit(event);
                }
            },
        )
    }

    /// Tallies a reclassification and, when the block actually flipped,
    /// emits the promote/demote event tagged with the §2 detection
    /// `rule` that was consulted and the `node` whose reference
    /// triggered it.
    pub(crate) fn reclassified(
        &mut self,
        rc: Reclassification,
        block: BlockAddr,
        node: NodeId,
        rule: Rule,
    ) {
        let (step, block, node) = (self.steps, block.index(), obs_node(node));
        match rc {
            Reclassification::Unchanged => {}
            Reclassification::BecameMigratory => {
                self.events.became_migratory += 1;
                self.emit(&ObsEvent::Promote {
                    step,
                    block,
                    node,
                    rule,
                });
            }
            Reclassification::BecameOther => {
                self.events.became_other += 1;
                self.emit(&ObsEvent::Demote {
                    step,
                    block,
                    node,
                    rule,
                });
            }
        }
    }

    /// Tallies and emits the invalidation of `node`'s copy of `block`.
    pub(crate) fn invalidated(&mut self, block: BlockAddr, node: NodeId) {
        self.events.invalidations += 1;
        if self.sink.is_some() {
            self.emit(&ObsEvent::Invalidation {
                step: self.steps,
                block: block.index(),
                node: obs_node(node),
            });
        }
    }

    /// Closes a step by `node` on `block`: its outcome, with the
    /// critical-path messages charged since `before` (fault overhead is
    /// charged as `backoff_units` instead), and its `Step` event.
    pub(crate) fn stepped(
        &self,
        block: BlockAddr,
        node: NodeId,
        home: NodeId,
        kind: StepKind,
        before: MessageCount,
        backoff_units: u64,
    ) -> StepInfo {
        let after = self.messages.critical_path();
        let info = StepInfo {
            kind,
            home,
            messages: MessageCount::new(after.control - before.control, after.data - before.data),
            backoff_units,
        };
        if self.sink.is_some() {
            self.emit(&ObsEvent::Step {
                step: self.steps,
                block: block.index(),
                node: obs_node(node),
                kind: kind.obs(),
                control: info.messages.control,
                data: info.messages.data,
            });
        }
        info
    }

    /// The run's tally under `protocol`.
    pub(crate) fn finish(self, protocol: Protocol) -> SimResult {
        let result = SimResult {
            protocol,
            messages: self.messages,
            events: self.events,
        };
        result.debug_assert_consistent();
        result
    }
}

/// Sentinel policy for the non-adaptive protocols: never classifies a
/// block as migratory.
const NEVER_ADAPT: AdaptivePolicy = AdaptivePolicy {
    initial_migratory: false,
    events_required: u8::MAX,
    remember_when_uncached: false,
    demote_on_write_miss: false,
};

/// What both engines hold besides their block tables — the protocol,
/// the machine's shape, the one-shot read-with-ownership flag and the
/// [`Ledger`] — and the step opening, snapshot capture and restore
/// written once over them.
#[derive(Clone, Debug)]
pub(crate) struct Frame {
    pub(crate) protocol: Protocol,
    pub(crate) policy: AdaptivePolicy,
    pub(crate) pure_migratory: bool,
    pub(crate) nodes: u16,
    pub(crate) block_size: BlockSize,
    pub(crate) repr: DirectoryRepr,
    pub(crate) placement: PagePlacement,
    /// One-shot flag set by
    /// [`DirectoryEngine::step_hinted`](crate::DirectoryEngine::step_hinted):
    /// service the next read miss as a read-with-ownership.
    pub(crate) rwitm: bool,
    /// Step counter, tallies, fault injector and sink.
    pub(crate) ledger: Ledger,
}

impl Frame {
    /// The frame of a fresh engine running `protocol` on `config`'s
    /// machine.
    pub(crate) fn new(
        protocol: Protocol,
        config: &DirectorySimConfig,
        placement: PagePlacement,
    ) -> Frame {
        Frame {
            protocol,
            policy: protocol.policy().unwrap_or(NEVER_ADAPT),
            pure_migratory: protocol == Protocol::PureMigratory,
            nodes: config.nodes,
            block_size: config.block_size,
            repr: config.directory,
            placement,
            rwitm: false,
            ledger: Ledger::default(),
        }
    }

    /// Opens the step of `r`: refuses a node outside the machine
    /// before anything changes, counts the step, and returns the
    /// referenced block.
    #[inline]
    pub(crate) fn open(&mut self, r: MemRef) -> Result<BlockAddr, SimError> {
        if r.node.index() >= usize::from(self.nodes) {
            return Err(SimError::NodeOutOfRange {
                node: r.node,
                nodes: self.nodes,
            });
        }
        self.ledger.steps += 1;
        Ok(r.addr.block(self.block_size))
    }

    /// The home node of `block` under the run's placement.
    #[inline]
    pub(crate) fn home_of(&self, block: BlockAddr) -> NodeId {
        self.placement.home_of_block(block, self.block_size)
    }

    /// The frame's half of a snapshot, with empty tables: an engine
    /// fills in its own with struct-update syntax.
    pub(crate) fn capture(&self) -> EngineSnapshot {
        EngineSnapshot {
            rwitm: self.rwitm,
            steps: self.ledger.steps,
            injector_rng: self.ledger.faults.as_ref().map(|f| f.rng_state()),
            messages: self.ledger.messages,
            events: self.ledger.events,
            caches: Vec::new(),
            dir: Vec::new(),
            mem_version: Vec::new(),
            latest: Vec::new(),
        }
    }

    /// Restores a fresh frame to where `snap` left off, its fault
    /// stream resumed under the run's `faults` plan (snapshots exclude
    /// sinks). Refuses a snapshot of another node count, one
    /// [`sweep_snapshot`] refuses, or one whose fault injector is
    /// present on one side only. Both engines restore through here, so
    /// they refuse the same snapshots with the same reason.
    pub(crate) fn restore(
        &mut self,
        snap: &EngineSnapshot,
        faults: Option<FaultPlan>,
    ) -> Result<(), String> {
        if snap.caches.len() != usize::from(self.nodes) {
            return Err(format!(
                "snapshot has {} node caches but the configuration has {} nodes",
                snap.caches.len(),
                self.nodes
            ));
        }
        sweep_snapshot(snap)?;
        let faults = match (faults, snap.injector_rng) {
            (Some(plan), Some(state)) => Some(FaultInjector::resume(plan, state)),
            (None, None) => None,
            (Some(_), None) => {
                return Err("run has a fault plan but the snapshot captured no injector".into())
            }
            (None, Some(_)) => {
                return Err("snapshot captured a fault injector but the run has no plan".into())
            }
        };
        self.rwitm = snap.rwitm;
        self.ledger = Ledger {
            steps: snap.steps,
            messages: snap.messages,
            events: snap.events,
            faults,
            sink: None,
        };
        Ok(())
    }
}

/// Refuses a snapshot no correct engine captures at a record boundary.
/// First what a row cannot show: directory rows out of ascending block
/// order (a repeated row could slip a second, unchecked copy set past
/// the sweep) and a line listed twice. Then whatever the invariant sweep
/// refuses in the snapshot's rows, with "every resident copy holds its
/// block's latest version" as the line check.
fn sweep_snapshot(snap: &EngineSnapshot) -> Result<(), String> {
    if let Some(rows) = snap.dir.windows(2).find(|rows| rows[0].0 >= rows[1].0) {
        let block = BlockAddr::new(rows[1].0);
        return Err(format!("snapshot directory out of block order at {block}"));
    }
    // Each block's directory entry and lines, the lines in node order.
    let mut rows = BTreeMap::<u64, (Option<&DirEntry>, Vec<(NodeId, LineState, u64)>)>::new();
    for (block, entry) in &snap.dir {
        rows.entry(*block).or_default().0 = Some(entry);
    }
    for (node, cache) in snap.caches.iter().enumerate() {
        let holder = NodeId::new(node as u16);
        for &(block, state, version) in cache {
            let (_, held) = rows.entry(block).or_default();
            if held.last().is_some_and(|&(n, ..)| n == holder) {
                let block = BlockAddr::new(block);
                return Err(format!("duplicate cache line for {block} at node {node}"));
            }
            held.push((holder, state, version));
        }
    }
    let versions = |rows: &[(u64, u64)]| rows.iter().copied().collect::<HashMap<u64, u64>>();
    let (memory, latest) = (versions(&snap.mem_version), versions(&snap.latest));
    sweep_rows(
        |visit| {
            for (block, (entry, held)) in rows {
                visit(BlockRow {
                    block: BlockAddr::new(block),
                    entry: entry.map(|e| (&e.copyset, e.dirty)),
                    lines: &mut held.into_iter(),
                    memory: memory.get(&block).copied().unwrap_or(0),
                    latest: latest.get(&block).copied().unwrap_or(0),
                });
            }
        },
        &mut |_, version, latest| check_version(version, latest, "snapshot restore"),
    )
    .map_err(|(block, (kind, _))| {
        let why = match kind {
            ViolationKind::CopysetMismatch => "directory copyset disagrees with cache residency",
            ViolationKind::ExclusiveConflict => "multiple cache lines are not all Shared",
            ViolationKind::DirtyBitMismatch => "directory dirty bit disagrees with its cache lines",
            ViolationKind::StaleMemory { .. } => "memory is stale while no cache line is dirty",
            ViolationKind::StaleRead { .. } => "cache lines disagree on version with latest write",
        };
        format!("snapshot {why} at {block}")
    })
}

/// One known block as the invariant sweep reads it.
pub struct BlockRow<'a> {
    /// The block.
    pub block: BlockAddr,
    /// The directory's copy set and dirty bit, if the block has an
    /// entry.
    pub entry: Option<(&'a CopySet, bool)>,
    /// The block's resident lines as `(holder, state, version)`, in
    /// ascending node order.
    pub lines: &'a mut dyn Iterator<Item = (NodeId, LineState, u64)>,
    /// The version the block's home memory holds.
    pub memory: u64,
    /// The latest version written to the block.
    pub latest: u64,
}

/// What a line check finds wrong with one resident line: the kind of
/// violation, and the context to report it under.
pub type LineFault = (ViolationKind, &'static str);

/// The line check every judge of resident copies builds on: a copy
/// `observed` at any version but `latest` is a stale read, reported
/// under `context`.
pub fn check_version(observed: u64, latest: u64, context: &'static str) -> Result<(), LineFault> {
    match observed == latest {
        true => Ok(()),
        false => Err((ViolationKind::StaleRead { observed, latest }, context)),
    }
}

/// The sweep behind [`Engine::sweep`] and snapshot restore: checks each
/// row `rows` visits, and fails with the lowest broken block and what
/// broke there.
fn sweep_rows(
    rows: impl FnOnce(&mut dyn FnMut(BlockRow<'_>)),
    check: &mut dyn FnMut(BlockAddr, u64, u64) -> Result<(), LineFault>,
) -> Result<(), (BlockAddr, LineFault)> {
    // Rows come in the engine's own order, so the sweep keeps the lowest
    // break by block, then check (the four structural checks in order,
    // then the line check), then node; a clean sweep never compares. A
    // row's first refused line is its lowest node's. A block whose lines
    // disagree with the directory may come in more than one row; its
    // copy-set break then outranks the rest.
    let mut lowest: Option<(_, LineFault)> = None;
    rows(&mut |row| {
        let (mut lines, mut listed, mut shared) = (0, 0, 0);
        let (mut any_dirty, mut line_fault) = (false, None);
        for (node, state, version) in row.lines {
            lines += 1;
            listed += u64::from(row.entry.is_some_and(|(copyset, _)| copyset.contains(node)));
            shared += u64::from(state == LineState::Shared);
            any_dirty |= state.is_dirty();
            if let Err(fault) = check(row.block, version, row.latest) {
                line_fault = line_fault.or(Some((node, fault)));
            }
        }
        let (memory, latest) = (row.memory, row.latest);
        let stale = ViolationKind::StaleMemory { memory, latest };
        const SWEEP: &str = "invariant sweep";
        let copies = row.entry.map_or(0, |(copyset, _)| copyset.len());
        let (rank, node, fault) = if listed != copies || listed != lines {
            (0, None, (ViolationKind::CopysetMismatch, SWEEP))
        } else if lines > 1 && shared != lines {
            (1, None, (ViolationKind::ExclusiveConflict, SWEEP))
        } else if row.entry.is_some_and(|(_, dirty)| dirty != any_dirty) {
            (2, None, (ViolationKind::DirtyBitMismatch, SWEEP))
        } else if !any_dirty && memory != latest {
            (3, None, (stale, SWEEP))
        } else if let Some((node, fault)) = line_fault {
            (4, Some(node), fault)
        } else {
            return;
        };
        let key = (row.block, rank, node);
        if lowest.is_none_or(|(k, _)| key < k) {
            lowest = Some((key, fault));
        }
    });
    lowest.map_or(Ok(()), |((block, ..), fault)| Err((block, fault)))
}

/// The [`Violation`] `engine` reports for a sweep's lowest break.
fn swept<E: Engine + ?Sized>(
    engine: &E,
    (block, (kind, context)): (BlockAddr, LineFault),
) -> Violation {
    Violation {
        block,
        step: engine.steps(),
        kind,
        context,
        entry: engine.dir_entry(block),
    }
}

/// Which engine implementation a run uses. Both model every machine,
/// finite caches included, bit-exactly alike.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The auditable HashMap-table reference implementation
    /// ([`DirectoryEngine`](crate::DirectoryEngine)): the parity
    /// oracle, and the engine the live shards, `mcc-check` by default
    /// and the off-line oracle's hinted stepper run.
    Reference,
    /// The dense struct-of-arrays hot path ([`FastEngine`]), and the
    /// default of [`DirectorySim`](crate::DirectorySim).
    #[default]
    Fast,
}

/// The protocol-engine interface, and each engine's only API.
///
/// Everything observable about a run goes through this trait: stepping,
/// invariant sweeps, message/event tallies, per-line and per-block
/// inspection, snapshot capture. Code written against `Engine` (the
/// [`Monitor`](crate::Monitor), the `mcc-check` harness, the parity
/// suite) runs identically on either implementation.
pub trait Engine {
    /// The protocol being simulated.
    fn protocol(&self) -> Protocol;

    /// References processed so far (including the one in flight when
    /// called from inside a step).
    fn steps(&self) -> u64;

    /// Processes one reference, reporting failure as a structured
    /// [`SimError`] instead of panicking.
    ///
    /// Failure modes: a reference by a node outside the configuration
    /// ([`SimError::NodeOutOfRange`], refused before the engine changes
    /// at all), a coherence violation detected by the built-in checker
    /// ([`SimError::Violation`]), or — under a fault plan — a
    /// transaction that cannot be delivered within the plan's retry and
    /// backoff budgets ([`SimError::RetryExhausted`],
    /// [`SimError::Livelock`]).
    ///
    /// # Errors
    ///
    /// After any other error the engine's state is not rolled back; a
    /// failed simulation should be discarded, not resumed.
    fn try_step(&mut self, r: MemRef) -> Result<StepInfo, SimError>;

    /// Processes one reference and reports how it resolved.
    ///
    /// # Panics
    ///
    /// Panics with the `Display` form of the [`SimError`] that
    /// [`Engine::try_step`] would have returned.
    fn step(&mut self, r: MemRef) -> StepInfo {
        self.try_step(r).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Visits every known block (every block with a directory entry or
    /// a resident line) as a [`BlockRow`], in the engine's own order. A
    /// block comes in more than one row only when its directory copy
    /// set omits some of its resident lines.
    fn rows(&self, visit: &mut dyn FnMut(BlockRow<'_>));

    /// Sweeps every row for the global invariants linking the directory
    /// to the caches, in this order within a block:
    /// * the directory copy set agrees with cache residency;
    /// * no exclusive-state copy has company (single writer / multiple
    ///   readers);
    /// * the directory `dirty` bit agrees with the caches;
    /// * a clean block's memory holds its latest version.
    ///
    /// Then passes each resident line to `check` as `(block, version,
    /// latest)`. Reports the lowest broken block; within it, a broken
    /// structural invariant before a line `check` refuses, and among
    /// those the lowest node's. A structural break carries the context
    /// `"invariant sweep"`, a refused line the context `check` gives. A
    /// clean sweep pays for no sort, allocation or second pass.
    fn sweep(
        &self,
        check: &mut dyn FnMut(BlockAddr, u64, u64) -> Result<(), LineFault>,
    ) -> Result<(), Violation> {
        sweep_rows(|visit| self.rows(visit), check).map_err(|fault| swept(self, fault))
    }

    /// [`Engine::sweep`] over `blocks` alone, their lines looked up at
    /// nodes `0..nodes`. Each block with a directory entry or a resident
    /// line comes in one row, built from [`Engine::dir_entry`],
    /// [`Engine::line_state`] and [`Engine::line_version`] per node,
    /// [`Engine::memory_version`] and [`Engine::latest_version`]; the
    /// same checks judge it, so a break among `blocks` is reported as
    /// [`Engine::sweep`] would report it were the other blocks clean.
    fn sweep_blocks(
        &self,
        blocks: &[BlockAddr],
        nodes: u16,
        check: &mut dyn FnMut(BlockAddr, u64, u64) -> Result<(), LineFault>,
    ) -> Result<(), Violation> {
        let rows = |visit: &mut dyn FnMut(BlockRow<'_>)| {
            for &block in blocks {
                let entry = self.dir_entry(block);
                let line = |n| Some((n, self.line_state(n, block)?, self.line_version(n, block)?));
                let mut lines = NodeId::first(nodes).filter_map(line).peekable();
                if entry.is_none() && lines.peek().is_none() {
                    continue;
                }
                visit(BlockRow {
                    block,
                    entry: entry.as_ref().map(|e| (&e.copyset, e.dirty)),
                    lines: &mut lines,
                    memory: self.memory_version(block),
                    latest: self.latest_version(block),
                });
            }
        };
        sweep_rows(rows, check).map_err(|fault| swept(self, fault))
    }

    /// The structural half of [`Engine::sweep`], with no line check.
    fn verify(&self) -> Result<(), Violation> {
        self.sweep(&mut |_, _, _| Ok(()))
    }

    /// [`Engine::verify`] for assertion-style tests.
    ///
    /// # Panics
    ///
    /// Panics with the violation's `Display` form when an invariant is
    /// broken.
    fn check_invariants(&self) {
        self.verify().unwrap_or_else(|v| panic!("{v}"));
    }

    /// Message tally so far.
    fn messages(&self) -> MessageBreakdown;

    /// Event counts so far.
    fn events(&self) -> EventCounts;

    /// The cache-line state of `block` at `node`, if resident.
    fn line_state(&self, node: NodeId, block: BlockAddr) -> Option<LineState>;

    /// The version tag a node's resident copy of `block` holds, if the
    /// block is resident there. Inspection hook for external checkers
    /// (`mcc-check`): a correct protocol keeps every resident copy at
    /// the latest written version.
    fn line_version(&self, node: NodeId, block: BlockAddr) -> Option<u64>;

    /// The directory entry of `block` (by value — the fast engine
    /// materialises it from packed state), if the block has ever been
    /// referenced.
    fn dir_entry(&self, block: BlockAddr) -> Option<DirEntry>;

    /// The latest version written to `block` by anyone — the write
    /// oracle's ground truth. Zero for never-written blocks.
    fn latest_version(&self, block: BlockAddr) -> u64;

    /// The version `block`'s home memory holds (zero before the first
    /// write-back).
    fn memory_version(&self, block: BlockAddr) -> u64;

    /// Every resident cache line as `(node, block, state, version)`:
    /// every row's lines, in the engine's row order.
    fn resident_lines(&self) -> Vec<(NodeId, BlockAddr, LineState, u64)> {
        let mut out = Vec::new();
        self.rows(&mut |row| out.extend(row.lines.map(|(n, state, v)| (n, row.block, state, v))));
        out
    }

    /// Attaches (`Some`) or detaches (`None`) the observability sink
    /// in place — used when restoring from a checkpoint, since
    /// snapshots deliberately exclude sinks.
    fn set_sink(&mut self, sink: Option<SharedSink>);

    /// Attaches an observability sink: every subsequent step streams
    /// structured [`mcc_obs::Event`]s (reference outcomes, migratory
    /// promotions/demotions with the triggering detection rule,
    /// invalidations, fault NACK/retry/backoff) into it.
    #[must_use]
    fn with_sink(mut self, sink: SharedSink) -> Self
    where
        Self: Sized,
    {
        self.set_sink(Some(sink));
        self
    }

    /// Captures the engine's complete replayable state. Cheap relative
    /// to simulation: one pass over resident lines and directory
    /// entries. Snapshots from either implementation are
    /// interchangeable: the two capture byte-identical snapshots of the
    /// same logical state, so a reference-captured snapshot restores
    /// into a fast engine and vice versa.
    fn snapshot(&self) -> EngineSnapshot;

    /// Consumes the engine and returns the tally.
    fn finish(self) -> SimResult
    where
        Self: Sized;
}

/// A runtime-selected [`Engine`]: the reference implementation or the
/// fast hot path, behind one concrete type so `DirectorySim`, shard
/// workers and checkpoint resume can hold either without generics.
///
/// # Examples
///
/// ```
/// use mcc_core::{AnyEngine, DirectorySimConfig, Engine, EngineKind, Protocol};
/// use mcc_placement::PagePlacement;
/// use mcc_trace::{Addr, MemRef, NodeId};
///
/// let config = DirectorySimConfig::default();
/// let mut fast = AnyEngine::new(
///     EngineKind::Fast,
///     Protocol::Aggressive,
///     &config,
///     PagePlacement::round_robin(config.nodes),
/// );
/// let mut reference = AnyEngine::new(
///     EngineKind::Reference,
///     Protocol::Aggressive,
///     &config,
///     PagePlacement::round_robin(config.nodes),
/// );
/// let r = MemRef::read(NodeId::new(1), Addr::new(0));
/// assert_eq!(fast.step(r), reference.step(r));
/// ```
#[derive(Clone, Debug)]
pub enum AnyEngine {
    /// The HashMap-table reference implementation.
    Reference(DirectoryEngine),
    /// The dense struct-of-arrays hot path.
    Fast(FastEngine),
}

/// Delegates a method call to whichever engine is inside.
macro_rules! dispatch {
    ($self:expr, $e:ident => $body:expr) => {
        match $self {
            AnyEngine::Reference($e) => $body,
            AnyEngine::Fast($e) => $body,
        }
    };
}

impl AnyEngine {
    /// Creates an engine of the requested kind on `config`'s machine,
    /// finite caches included.
    pub fn new(
        kind: EngineKind,
        protocol: Protocol,
        config: &DirectorySimConfig,
        placement: PagePlacement,
    ) -> Self {
        match kind {
            EngineKind::Fast => AnyEngine::Fast(FastEngine::new(protocol, config, placement)),
            EngineKind::Reference => {
                AnyEngine::Reference(DirectoryEngine::new(protocol, config, placement))
            }
        }
    }

    /// Which implementation this engine runs: the kind it was built or
    /// restored as.
    pub fn kind(&self) -> EngineKind {
        match self {
            AnyEngine::Reference(_) => EngineKind::Reference,
            AnyEngine::Fast(_) => EngineKind::Fast,
        }
    }

    /// Rebuilds an engine of the requested kind from a snapshot.
    /// Snapshots are engine-agnostic, so the captured and restoring
    /// kinds may differ.
    pub(crate) fn from_snapshot(
        kind: EngineKind,
        snap: &EngineSnapshot,
        protocol: Protocol,
        config: &DirectorySimConfig,
        placement: PagePlacement,
        faults: Option<FaultPlan>,
    ) -> Result<AnyEngine, String> {
        Ok(match kind {
            EngineKind::Fast => AnyEngine::Fast(FastEngine::from_snapshot(
                snap, protocol, config, placement, faults,
            )?),
            EngineKind::Reference => AnyEngine::Reference(DirectoryEngine::from_snapshot(
                snap, protocol, config, placement, faults,
            )?),
        })
    }

    /// Subjects every demand transaction to the unreliable-interconnect
    /// model described by `plan`.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        dispatch!(&mut self, e => e.frame.ledger.faults = Some(FaultInjector::new(plan)));
        self
    }

    /// Emits `event` into the attached sink, if any. Used by run
    /// framing (shard / checkpoint lifecycle events) that happens
    /// between steps.
    pub(crate) fn emit_obs(&self, event: &ObsEvent) {
        dispatch!(self, e => e.frame.ledger.emit(event))
    }

    /// Overwrites the version tag of a resident line (testing hook; see
    /// [`DirectoryEngine::poison_line_version`]).
    #[doc(hidden)]
    pub fn poison_line_version(&mut self, node: NodeId, block: BlockAddr, version: u64) -> bool {
        dispatch!(self, e => e.poison_line_version(node, block, version))
    }

    /// Overwrites the latest-write version the built-in oracle tracks
    /// (testing hook; see [`DirectoryEngine::poison_latest_version`]).
    #[doc(hidden)]
    pub fn poison_latest_version(&mut self, block: BlockAddr, version: u64) {
        dispatch!(self, e => e.poison_latest_version(block, version))
    }
}

impl Engine for AnyEngine {
    fn protocol(&self) -> Protocol {
        dispatch!(self, e => e.protocol())
    }

    fn steps(&self) -> u64 {
        dispatch!(self, e => e.steps())
    }

    fn try_step(&mut self, r: MemRef) -> Result<StepInfo, SimError> {
        dispatch!(self, e => e.try_step(r))
    }

    fn rows(&self, visit: &mut dyn FnMut(BlockRow<'_>)) {
        dispatch!(self, e => e.rows(visit))
    }

    fn messages(&self) -> MessageBreakdown {
        dispatch!(self, e => e.messages())
    }

    fn events(&self) -> EventCounts {
        dispatch!(self, e => e.events())
    }

    fn line_state(&self, node: NodeId, block: BlockAddr) -> Option<LineState> {
        dispatch!(self, e => e.line_state(node, block))
    }

    fn line_version(&self, node: NodeId, block: BlockAddr) -> Option<u64> {
        dispatch!(self, e => e.line_version(node, block))
    }

    fn dir_entry(&self, block: BlockAddr) -> Option<DirEntry> {
        dispatch!(self, e => e.dir_entry(block))
    }

    fn latest_version(&self, block: BlockAddr) -> u64 {
        dispatch!(self, e => e.latest_version(block))
    }

    fn memory_version(&self, block: BlockAddr) -> u64 {
        dispatch!(self, e => e.memory_version(block))
    }

    fn set_sink(&mut self, sink: Option<SharedSink>) {
        dispatch!(self, e => e.set_sink(sink))
    }

    fn snapshot(&self) -> EngineSnapshot {
        dispatch!(self, e => e.snapshot())
    }

    fn finish(self) -> SimResult {
        dispatch!(self, e => e.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;
    use crate::run::RunSpec;
    use crate::sim::DirectorySim;
    use mcc_cache::{CacheConfig, CacheGeometry};
    use mcc_trace::{Addr, BlockSize, Trace};

    const KINDS: [EngineKind; 2] = [EngineKind::Reference, EngineKind::Fast];

    /// Nodes 0 and 1 hand block 0 back and forth; nodes 2 and up never
    /// touch it.
    fn handoffs() -> Trace {
        let mut trace = Trace::new();
        for turn in 0..8u16 {
            let node = NodeId::new(turn % 2);
            trace.push(MemRef::read(node, Addr::new(0)));
            trace.push(MemRef::write(node, Addr::new(0)));
        }
        trace
    }

    /// `snap` with `holder` added to block 0's directory copy set, where
    /// `holder` has no cache line.
    fn with_phantom_holder(snap: &EngineSnapshot, holder: u16) -> EngineSnapshot {
        let mut tampered = snap.clone();
        let (_, entry) = tampered.dir.iter_mut().find(|(b, _)| *b == 0).unwrap();
        entry.copyset.insert(NodeId::new(holder));
        tampered
    }

    fn restore(kind: EngineKind, snap: &EngineSnapshot) -> Result<AnyEngine, String> {
        let config = DirectorySimConfig::default();
        let placement = PagePlacement::round_robin(config.nodes);
        AnyEngine::from_snapshot(kind, snap, Protocol::Basic, &config, placement, None)
    }

    #[test]
    fn both_kinds_refuse_the_same_impossible_snapshots() {
        let config = DirectorySimConfig::default();
        let placement = PagePlacement::round_robin(config.nodes);
        let mut engine = AnyEngine::new(EngineKind::Reference, Protocol::Basic, &config, placement);
        let mut trace = handoffs();
        // Nodes 2 and 3 share block 1 (address 16), read-only.
        trace.push(MemRef::read(NodeId::new(2), Addr::new(16)));
        trace.push(MemRef::read(NodeId::new(3), Addr::new(16)));
        // Node 4 writes block 2 and node 5 reads it: written back, clean.
        trace.push(MemRef::write(NodeId::new(4), Addr::new(32)));
        trace.push(MemRef::read(NodeId::new(5), Addr::new(32)));
        for r in trace.iter() {
            engine.step(*r);
        }
        let snap = engine.snapshot();
        for kind in KINDS {
            assert!(restore(kind, &snap).is_ok(), "{kind:?}");
        }
        let mut cases = Vec::new();
        // A holder inside the machine, and one past its last node.
        for holder in [3, 100] {
            cases.push(("cache residency", with_phantom_holder(&snap, holder)));
        }
        // A cache line the directory does not know.
        let mut stray = snap.clone();
        stray.caches[5].push((77, LineState::Shared, 0));
        cases.push(("cache residency", stray));
        // Block 0's row again, emptied: restored last, it would leave
        // block 0's holder unknown to the directory.
        let mut repeated = snap.clone();
        let mut row = repeated.dir[0].clone();
        row.1.copyset = CopySet::new();
        repeated.dir.insert(1, row);
        cases.push(("out of block order", repeated));
        // Two holders of block 1 that disagree on its version, and two
        // of which one claims exclusivity.
        let at = snap.caches[3].iter().position(|&(b, ..)| b == 1).unwrap();
        let mut stale = snap.clone();
        stale.caches[3][at].2 = 9;
        cases.push(("disagree on version", stale));
        let mut exclusive = snap.clone();
        exclusive.caches[3][at].1 = LineState::Exclusive;
        cases.push(("not all Shared", exclusive));
        // Block 0's dirty bit flipped under its one Dirty line.
        let mut flipped = snap.clone();
        flipped.dir[0].1.dirty ^= true;
        cases.push(("dirty bit", flipped));
        // Block 2's memory a version behind while no line is dirty.
        let mut stale_memory = snap.clone();
        let (_, memory) = stale_memory
            .mem_version
            .iter_mut()
            .find(|(b, _)| *b == 2)
            .unwrap();
        *memory -= 1;
        cases.push(("is stale", stale_memory));
        // Block 0's lone holder a version behind the latest write.
        let mut behind = snap.clone();
        let line = behind.caches[1].iter_mut().find(|(b, ..)| *b == 0).unwrap();
        line.2 -= 1;
        cases.push(("disagree on version", behind));
        for (why, tampered) in &cases {
            let errors = KINDS.map(|kind| restore(kind, tampered).unwrap_err());
            assert_eq!(errors[0], errors[1]);
            assert!(errors[0].contains(why), "{}", errors[0]);
        }
    }

    #[test]
    fn both_kinds_refuse_a_snapshot_that_overfills_a_set() {
        let one_set = |ways: u32| DirectorySimConfig {
            cache: CacheConfig::Finite(
                CacheGeometry::new(16 * u64::from(ways), BlockSize::B16, ways).unwrap(),
            ),
            ..DirectorySimConfig::default()
        };
        let (roomy, cramped) = (one_set(4), one_set(2));
        let placement = PagePlacement::round_robin(roomy.nodes);
        // Node 1 holds three blocks of its one set.
        let mut engine = AnyEngine::new(
            EngineKind::Reference,
            Protocol::Basic,
            &roomy,
            placement.clone(),
        );
        for block in 0..3 {
            engine.step(MemRef::read(NodeId::new(1), Addr::new(block * 16)));
        }
        let snap = engine.snapshot();
        let errors = KINDS.map(|kind| {
            let fits = AnyEngine::from_snapshot(
                kind,
                &snap,
                Protocol::Basic,
                &roomy,
                placement.clone(),
                None,
            );
            assert_eq!(fits.unwrap().snapshot(), snap, "{kind:?}");
            AnyEngine::from_snapshot(
                kind,
                &snap,
                Protocol::Basic,
                &cramped,
                placement.clone(),
                None,
            )
            .unwrap_err()
        });
        assert_eq!(errors[0], errors[1]);
        assert!(errors[0].contains("does not fit"), "{}", errors[0]);
    }

    #[test]
    fn resuming_a_checkpoint_with_a_phantom_holder_is_a_bad_checkpoint() {
        let trace = handoffs();
        for kind in KINDS {
            let sim = DirectorySim::new(Protocol::Basic, &DirectorySimConfig::default())
                .with_engine(kind);
            for holder in [3, 100] {
                let mut ckpt = sim.checkpoint_after(&trace, 1, 6).unwrap();
                let snap = &mut ckpt.shards[0].engine;
                *snap = with_phantom_holder(snap, holder);
                let mut bytes = Vec::new();
                ckpt.write_to(&mut bytes).unwrap();
                let saved = Checkpoint::read_from(&mut bytes.as_slice()).unwrap();
                let spec = RunSpec {
                    resume: Some(&saved),
                    ..RunSpec::default()
                };
                match sim
                    .execute(&trace, &spec)
                    .and_then(|report| report.merged())
                {
                    Err(SimError::BadCheckpoint { reason }) => {
                        assert!(reason.contains("cache residency"), "{reason}")
                    }
                    other => panic!("{kind:?}, holder {holder}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn both_kinds_refuse_an_out_of_range_node_before_counting_it() {
        let config = DirectorySimConfig::default();
        let outside = MemRef::write(NodeId::new(config.nodes), Addr::new(0));
        let errors = KINDS.map(|kind| {
            let placement = PagePlacement::round_robin(config.nodes);
            let mut engine = AnyEngine::new(kind, Protocol::Basic, &config, placement);
            engine.step(MemRef::read(NodeId::new(1), Addr::new(0)));
            let err = engine.try_step(outside).unwrap_err();
            assert_eq!(engine.steps(), 1, "{kind:?}");
            err
        });
        assert_eq!(errors[0], errors[1]);
        assert_eq!(
            errors[0],
            SimError::NodeOutOfRange {
                node: outside.node,
                nodes: config.nodes
            }
        );
    }

    #[test]
    fn finite_caches_honour_the_fast_request() {
        let finite = CacheConfig::Finite(CacheGeometry::new(64, BlockSize::B16, 2).unwrap());
        for cache in [finite, CacheConfig::Infinite] {
            let config = DirectorySimConfig {
                cache,
                ..DirectorySimConfig::default()
            };
            let placement = PagePlacement::round_robin(config.nodes);
            for kind in KINDS {
                let e = AnyEngine::new(kind, Protocol::Basic, &config, placement.clone());
                assert_eq!(e.kind(), kind, "{cache:?}");
                let restored = AnyEngine::from_snapshot(
                    kind,
                    &e.snapshot(),
                    Protocol::Basic,
                    &config,
                    placement.clone(),
                    None,
                );
                assert_eq!(restored.unwrap().kind(), kind, "{cache:?}");
            }
            let sim = DirectorySim::new(Protocol::Basic, &config);
            assert_eq!(sim.engine_kind(), EngineKind::Fast, "{cache:?}");
        }
    }

    #[test]
    fn both_kinds_step_a_small_trace_identically() {
        let config = DirectorySimConfig::default();
        let mut trace = Trace::new();
        for turn in 0..12u16 {
            let node = NodeId::new(turn % 3);
            trace.push(MemRef::read(node, Addr::new(u64::from(turn % 2) * 64)));
            trace.push(MemRef::write(node, Addr::new(u64::from(turn % 2) * 64)));
        }
        for protocol in [Protocol::Conventional, Protocol::Aggressive] {
            let mut reference = AnyEngine::new(
                EngineKind::Reference,
                protocol,
                &config,
                PagePlacement::round_robin(config.nodes),
            );
            let mut fast = AnyEngine::new(
                EngineKind::Fast,
                protocol,
                &config,
                PagePlacement::round_robin(config.nodes),
            );
            for r in trace.iter() {
                assert_eq!(reference.try_step(*r), fast.try_step(*r));
            }
            reference.check_invariants();
            fast.check_invariants();
            assert_eq!(reference.finish(), fast.finish());
        }
    }
}
