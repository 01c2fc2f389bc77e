//! The engine abstraction: one protocol semantics, two implementations.
//!
//! [`DirectoryEngine`](crate::DirectoryEngine) is the reference
//! implementation — hash-mapped tables, one state transition at a time,
//! written for auditability against the paper. [`FastEngine`] is the
//! hot path: dense struct-of-arrays block tables behind an
//! open-addressing index. Both implement [`Engine`], and [`AnyEngine`]
//! packages the choice as a runtime value so `DirectorySim`, the
//! sharded runner, resumable runs and the bench bins can select either
//! with one knob.
//!
//! The two engines are kept bit-exact: same `SimResult`, same message
//! counters, same event stream, same errors (see
//! `tests/fast_engine_parity.rs` and DESIGN.md §13). Only their
//! Figure 3 transitions (`hit`/`miss`) are written twice, once per table
//! layout. Everything around them is written once: the [`Ledger`] both
//! engines keep holds the step counter, the tallies, the fault injector
//! and the sink, and carries the one event path and fault-delivery
//! adapter; the transaction-shape rule and the delivery loop live in
//! [`faults`](crate::faults). Checkpoints are interchangeable because
//! both sides convert through the same [`EngineSnapshot`].

use mcc_cache::CacheConfig;
use mcc_obs::{Event as ObsEvent, Rule, SharedSink};
use mcc_placement::PagePlacement;
use mcc_trace::{BlockAddr, MemRef, NodeId};

use crate::checkpoint::EngineSnapshot;
use crate::directory::{DirEntry, Reclassification};
use crate::error::{SimError, Violation};
use crate::fast::FastEngine;
use crate::faults::{FaultInjector, FaultPlan, TransactionShape};
use crate::msg::MessageCount;
use crate::policy::Protocol;
use crate::result::{EventCounts, MessageBreakdown, SimResult};
use crate::sim::{DirectoryEngine, DirectorySimConfig, LineState, StepInfo, StepKind};

/// The node's zero-based index in the observability event vocabulary
/// (`mcc_obs` speaks raw `u16`s so it needs no trace types).
pub(crate) const fn obs_node(n: NodeId) -> u16 {
    n.index() as u16
}

/// What both engines keep beside their block tables — the step
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
    /// The ledger a snapshot captured, its fault stream resumed under
    /// the run's `faults` plan. Snapshots exclude sinks.
    pub(crate) fn from_snapshot(
        snap: &EngineSnapshot,
        faults: Option<FaultPlan>,
    ) -> Result<Ledger, String> {
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
        Ok(Ledger {
            steps: snap.steps,
            messages: snap.messages,
            events: snap.events,
            faults,
            sink: None,
        })
    }

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

/// Which engine implementation a run uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The auditable HashMap-table reference implementation
    /// ([`DirectoryEngine`](crate::DirectoryEngine)).
    #[default]
    Reference,
    /// The dense struct-of-arrays hot path ([`FastEngine`]). Requires
    /// infinite caches; configurations with finite caches silently fall
    /// back to the reference engine.
    Fast,
}

/// The protocol-engine interface shared by the reference and fast
/// implementations.
///
/// Everything observable about a run goes through this trait: stepping,
/// invariant sweeps, message/event tallies, per-line and per-block
/// inspection, snapshot capture. Code written against `Engine` (the
/// [`Monitor`](crate::Monitor), the `mcc-check` harness, the parity
/// suite) runs identically on either implementation.
pub trait Engine {
    /// The protocol being simulated.
    fn protocol(&self) -> Protocol;

    /// References processed so far.
    fn steps(&self) -> u64;

    /// Processes one reference, reporting failure as a structured
    /// [`SimError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// After an error the engine's state is not rolled back; a failed
    /// simulation should be discarded, not resumed.
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

    /// Sweeps the global invariants linking the directory to the
    /// caches, reporting the first broken one.
    fn verify(&self) -> Result<(), Violation>;

    /// Message tally so far.
    fn messages(&self) -> MessageBreakdown;

    /// Event counts so far.
    fn events(&self) -> EventCounts;

    /// The cache-line state of `block` at `node`, if resident.
    fn line_state(&self, node: NodeId, block: BlockAddr) -> Option<LineState>;

    /// The version tag a node's resident copy of `block` holds, if the
    /// block is resident there.
    fn line_version(&self, node: NodeId, block: BlockAddr) -> Option<u64>;

    /// The directory entry of `block` (by value — the fast engine
    /// materialises it from packed state), if the block has ever been
    /// referenced.
    fn dir_entry(&self, block: BlockAddr) -> Option<DirEntry>;

    /// The latest version written to `block` by anyone. Zero for
    /// never-written blocks.
    fn latest_version(&self, block: BlockAddr) -> u64;

    /// The version `block`'s home memory holds (zero before the first
    /// write-back).
    fn memory_version(&self, block: BlockAddr) -> u64;

    /// Every resident cache line as `(node, block, state, version)`,
    /// ordered by node; the order within a node is implementation
    /// defined.
    fn resident_lines(&self) -> Vec<(NodeId, BlockAddr, LineState, u64)>;

    /// Attaches (`Some`) or detaches (`None`) the observability sink.
    fn set_sink(&mut self, sink: Option<SharedSink>);

    /// Captures the engine's complete replayable state. Snapshots from
    /// either implementation are interchangeable: a reference-captured
    /// snapshot restores into a fast engine and vice versa.
    fn snapshot(&self) -> EngineSnapshot;

    /// Consumes the engine and returns the tally.
    fn finish(self) -> SimResult
    where
        Self: Sized;
}

impl Engine for DirectoryEngine {
    fn protocol(&self) -> Protocol {
        self.protocol()
    }

    fn steps(&self) -> u64 {
        self.steps()
    }

    fn try_step(&mut self, r: MemRef) -> Result<StepInfo, SimError> {
        self.try_step(r)
    }

    fn verify(&self) -> Result<(), Violation> {
        self.verify()
    }

    fn messages(&self) -> MessageBreakdown {
        self.messages()
    }

    fn events(&self) -> EventCounts {
        self.events()
    }

    fn line_state(&self, node: NodeId, block: BlockAddr) -> Option<LineState> {
        self.line_state(node, block)
    }

    fn line_version(&self, node: NodeId, block: BlockAddr) -> Option<u64> {
        self.line_version(node, block)
    }

    fn dir_entry(&self, block: BlockAddr) -> Option<DirEntry> {
        self.entry(block).cloned()
    }

    fn latest_version(&self, block: BlockAddr) -> u64 {
        self.latest_version(block)
    }

    fn memory_version(&self, block: BlockAddr) -> u64 {
        self.memory_version(block)
    }

    fn resident_lines(&self) -> Vec<(NodeId, BlockAddr, LineState, u64)> {
        self.resident_lines()
    }

    fn set_sink(&mut self, sink: Option<SharedSink>) {
        self.set_sink(sink)
    }

    fn snapshot(&self) -> EngineSnapshot {
        self.snapshot()
    }

    fn finish(self) -> SimResult {
        self.finish()
    }
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
    /// Creates an engine of the requested kind.
    ///
    /// [`EngineKind::Fast`] requires infinite caches (the dense tables
    /// model residency per block, not per cache set); configurations
    /// with finite caches fall back to the reference engine, which is
    /// always exact.
    pub fn new(
        kind: EngineKind,
        protocol: Protocol,
        config: &DirectorySimConfig,
        placement: PagePlacement,
    ) -> Self {
        match kind {
            EngineKind::Fast if config.cache == CacheConfig::Infinite => {
                AnyEngine::Fast(FastEngine::new(protocol, config, placement))
            }
            _ => AnyEngine::Reference(DirectoryEngine::new(protocol, config, placement)),
        }
    }

    /// Which implementation this engine actually runs (after any
    /// finite-cache fallback).
    pub fn kind(&self) -> EngineKind {
        match self {
            AnyEngine::Reference(_) => EngineKind::Reference,
            AnyEngine::Fast(_) => EngineKind::Fast,
        }
    }

    /// Rebuilds an engine of the requested kind from a snapshot,
    /// applying the same finite-cache fallback as [`AnyEngine::new`].
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
        match kind {
            EngineKind::Fast if config.cache == CacheConfig::Infinite => Ok(AnyEngine::Fast(
                FastEngine::from_snapshot(snap, protocol, config, placement, faults)?,
            )),
            _ => Ok(AnyEngine::Reference(DirectoryEngine::from_snapshot(
                snap, protocol, config, placement, faults,
            )?)),
        }
    }

    /// Subjects every demand transaction to the unreliable-interconnect
    /// model described by `plan`.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        dispatch!(&mut self, e => e.ledger.faults = Some(FaultInjector::new(plan)));
        self
    }

    /// Attaches an observability sink.
    #[must_use]
    pub fn with_sink(mut self, sink: SharedSink) -> Self {
        self.set_sink(Some(sink));
        self
    }

    /// Emits `event` into the attached sink, if any. Used by run
    /// framing (shard / checkpoint lifecycle events) that happens
    /// between steps.
    pub(crate) fn emit_obs(&self, event: &ObsEvent) {
        dispatch!(self, e => e.ledger.emit(event))
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

    /// Verifies global invariants, panicking when one is broken.
    ///
    /// # Panics
    ///
    /// Panics with the violation's `Display` form.
    pub fn check_invariants(&self) {
        if let Err(v) = Engine::verify(self) {
            panic!("{v}");
        }
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

    fn verify(&self) -> Result<(), Violation> {
        dispatch!(self, e => e.verify())
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
        match self {
            AnyEngine::Reference(e) => e.entry(block).cloned(),
            AnyEngine::Fast(e) => e.dir_entry(block),
        }
    }

    fn latest_version(&self, block: BlockAddr) -> u64 {
        dispatch!(self, e => e.latest_version(block))
    }

    fn memory_version(&self, block: BlockAddr) -> u64 {
        dispatch!(self, e => e.memory_version(block))
    }

    fn resident_lines(&self) -> Vec<(NodeId, BlockAddr, LineState, u64)> {
        dispatch!(self, e => e.resident_lines())
    }

    fn set_sink(&mut self, sink: Option<SharedSink>) {
        dispatch!(self, e => e.set_sink(sink))
    }

    fn snapshot(&self) -> EngineSnapshot {
        dispatch!(self, e => e.snapshot())
    }

    fn finish(self) -> SimResult {
        match self {
            AnyEngine::Reference(e) => e.finish(),
            AnyEngine::Fast(e) => e.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_cache::CacheGeometry;
    use mcc_trace::{Addr, BlockSize, Trace};

    #[test]
    fn finite_caches_fall_back_to_the_reference_engine() {
        let config = DirectorySimConfig {
            cache: CacheConfig::Finite(CacheGeometry::new(64, BlockSize::B16, 2).unwrap()),
            ..DirectorySimConfig::default()
        };
        let e = AnyEngine::new(
            EngineKind::Fast,
            Protocol::Basic,
            &config,
            PagePlacement::round_robin(config.nodes),
        );
        assert_eq!(e.kind(), EngineKind::Reference);
    }

    #[test]
    fn infinite_caches_honour_the_fast_request() {
        let config = DirectorySimConfig::default();
        let e = AnyEngine::new(
            EngineKind::Fast,
            Protocol::Basic,
            &config,
            PagePlacement::round_robin(config.nodes),
        );
        assert_eq!(e.kind(), EngineKind::Fast);
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
