//! The lockstep invariant checker.
//!
//! A [`Checker`] drives a production
//! [`DirectoryEngine`](mcc_core::DirectoryEngine) and the
//! [`ReferenceModel`] through the same
//! reference stream, one step at a time, and verifies after every step
//! that the engine's observable behaviour is exactly what the
//! specification demands:
//!
//! * **structural** — the engine's own invariant sweep
//!   ([`Engine::sweep`]: single writer / multiple readers,
//!   directory/cache agreement, dirty bit, memory freshness) must pass;
//! * **outcome** — the engine resolved the reference the same way the
//!   specification did (hit kind, migrate vs. replicate, ...);
//! * **state** — every cache line state and every directory entry
//!   field (copies created, migratory bit, dirty, last invalidator,
//!   evidence counter) matches the specification's record;
//! * **data values** — the checker counts writes per block itself and
//!   demands that the engine's version oracle and every resident copy
//!   agree with that independent count (the copies in the same sweep,
//!   as its line check);
//! * **message accounting** — each step's critical-path charge matches
//!   the per-class counter deltas and the class charged matches the
//!   outcome kind; the run total must equal the sum of the steps;
//! * **classification soundness** — every promotion/demotion the
//!   engine announces on the `mcc-obs` event stream must be predicted
//!   by the specification *and* be legal for its detection rule under
//!   the protocol's policy (the paper's §2 rules);
//! * **demotion rule** — a migratory block whose single clean copy is
//!   about to move to another node must come out demoted.

use std::collections::BTreeSet;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use mcc_cache::CacheConfig;
use mcc_core::{
    check_version, AnyEngine, CopiesCreated, DirectorySimConfig, Engine, EngineKind,
    MessageBreakdown, MessageCount, PlacementPolicy, Protocol, SimResult, StepInfo, StepKind,
    ViolationKind,
};
use mcc_obs::{lock_sink, shared, BufferSink, Event, Rule};
use mcc_placement::PagePlacement;
use mcc_trace::{BlockAddr, BlockSize, MemOp, MemRef, NodeId};

use crate::spec::{ReferenceModel, SpecReclass};

/// Which invariant a [`CheckViolation`] broke.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvariantId {
    /// The engine itself rejected the step or failed its sweep.
    EngineError,
    /// The engine resolved the reference differently from the spec.
    OutcomeMismatch,
    /// A cache line state differs from the specification's record.
    StateMismatch,
    /// A directory entry field differs from the specification's record.
    EntryMismatch,
    /// A version (engine oracle or resident copy) disagrees with the
    /// checker's independent write count.
    DataValue,
    /// A message charge does not add up.
    MessageAccounting,
    /// A promotion/demotion event the spec did not predict, a missing
    /// one, or one illegal for its detection rule.
    Classification,
    /// A migratory block moved clean without being demoted.
    DemotionRule,
    /// An invalidation event for a copy that was not resident.
    PhantomInvalidation,
    /// End-of-run totals disagree with the per-step accumulation.
    TotalsMismatch,
    /// Directory-vs-snoop differential count mismatch.
    Differential,
    /// An adaptive run migrated more than the off-line oracle bound
    /// allows.
    OracleBound,
}

impl InvariantId {
    /// Stable lower-case label (used in JSON summaries).
    pub fn label(self) -> &'static str {
        match self {
            InvariantId::EngineError => "engine-error",
            InvariantId::OutcomeMismatch => "outcome-mismatch",
            InvariantId::StateMismatch => "state-mismatch",
            InvariantId::EntryMismatch => "entry-mismatch",
            InvariantId::DataValue => "data-value",
            InvariantId::MessageAccounting => "message-accounting",
            InvariantId::Classification => "classification",
            InvariantId::DemotionRule => "demotion-rule",
            InvariantId::PhantomInvalidation => "phantom-invalidation",
            InvariantId::TotalsMismatch => "totals-mismatch",
            InvariantId::Differential => "differential",
            InvariantId::OracleBound => "oracle-bound",
        }
    }
}

/// A broken invariant, with enough context to diagnose and replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckViolation {
    /// Which invariant broke.
    pub invariant: InvariantId,
    /// The step (1-based reference index) at which it broke; 0 for
    /// end-of-run checks.
    pub step: u64,
    /// The offending block, when one can be named.
    pub block: Option<u64>,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for CheckViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] step {}", self.invariant.label(), self.step)?;
        if let Some(b) = self.block {
            write!(f, " block {b}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Configuration for a [`Checker`].
#[derive(Clone, Debug)]
pub struct CheckerConfig {
    /// The protocol point under check.
    pub protocol: Protocol,
    /// Number of nodes.
    pub nodes: u16,
    /// Per-node cache model; finite geometries exercise the eviction
    /// (copy-dropped) paths.
    pub cache: CacheConfig,
    /// When `false`, the *specification* is built with demotion
    /// disabled — the planted bug the fuzzer fixtures hunt.
    pub spec_demotion_enabled: bool,
    /// When `true`, the checker drives the fast hot-path engine
    /// instead of the reference `DirectoryEngine` (finite-cache
    /// configurations fall back to the reference engine, which is the
    /// only one modelling geometry).
    pub fast_engine: bool,
    /// Directory sharer-set representation under check. Residency,
    /// classification, and every other invariant are
    /// representation-independent — only the *charged* invalidation
    /// fan-out may differ — so the whole suite must hold at every
    /// point of the taxonomy.
    pub directory: mcc_core::DirectoryRepr,
}

impl CheckerConfig {
    /// A checker config over infinite caches with a sound spec.
    pub fn new(protocol: Protocol, nodes: u16) -> CheckerConfig {
        CheckerConfig {
            protocol,
            nodes,
            cache: CacheConfig::Infinite,
            spec_demotion_enabled: true,
            fast_engine: false,
            directory: mcc_core::DirectoryRepr::FullMap,
        }
    }

    /// The machine a checker runs: `nodes` nodes, [`CHECK_BLOCK_SIZE`]
    /// blocks, this cache and directory, and round-robin placement,
    /// which with the few blocks a checker sees spreads homes across
    /// nodes. The live service's shards run it too, so a journal always
    /// replays on the machine that wrote it.
    pub fn sim_config(&self) -> DirectorySimConfig {
        DirectorySimConfig {
            nodes: self.nodes,
            block_size: CHECK_BLOCK_SIZE,
            cache: self.cache,
            placement: PlacementPolicy::RoundRobin,
            directory: self.directory,
        }
    }
}

/// The block size every checker runs at (one block = 16 bytes, so
/// block *i* lives at address `16 i`).
pub const CHECK_BLOCK_SIZE: BlockSize = BlockSize::B16;

/// Drives engine and specification in lockstep; see the module docs
/// for the invariant suite.
pub struct Checker {
    engine: AnyEngine,
    spec: ReferenceModel,
    nodes: u16,
    sink: Arc<Mutex<BufferSink>>,
    /// Events already consumed from the sink buffer.
    drained: usize,
    /// Independent per-block write counts (the data-value oracle).
    writes: HashMap<u64, u64>,
    /// Per-block migration counts (read misses serviced by migration),
    /// kept for the off-line oracle bound.
    migrations: HashMap<u64, u64>,
    /// Per-block demotion counts, kept for the off-line oracle bound.
    demotions: HashMap<u64, u64>,
    prev_messages: MessageBreakdown,
    accumulated: MessageCount,
    promotes: u64,
    demotes: u64,
    steps: u64,
    /// `(node, block)` pairs resident after the last step: the next
    /// step's residency before it runs.
    resident: BTreeSet<(u16, u64)>,
}

impl Checker {
    /// Builds a checker (engine + spec + event tap) for `config`, on
    /// the machine [`CheckerConfig::sim_config`] names.
    pub fn new(config: &CheckerConfig) -> Checker {
        let (sink, handle) = shared(BufferSink::new());
        let kind = if config.fast_engine {
            EngineKind::Fast
        } else {
            EngineKind::Reference
        };
        let engine = AnyEngine::new(
            kind,
            config.protocol,
            &config.sim_config(),
            PagePlacement::round_robin(config.nodes),
        )
        .with_sink(handle);
        let mut spec = ReferenceModel::new(config.protocol, CHECK_BLOCK_SIZE);
        if !config.spec_demotion_enabled {
            spec = spec.with_demotion_disabled();
        }
        Checker {
            engine,
            spec,
            nodes: config.nodes,
            sink,
            drained: 0,
            writes: HashMap::new(),
            migrations: HashMap::new(),
            demotions: HashMap::new(),
            prev_messages: MessageBreakdown::default(),
            accumulated: MessageCount::ZERO,
            promotes: 0,
            demotes: 0,
            steps: 0,
            resident: BTreeSet::new(),
        }
    }

    /// An independent continuation of this checker: the engine clone
    /// gets a fresh event tap so sibling branches of a search tree
    /// cannot see each other's events. All events must already be
    /// drained (true after any successful [`Checker::check_step`]).
    pub fn fork(&self) -> Checker {
        let (sink, handle) = shared(BufferSink::new());
        let mut engine = self.engine.clone();
        engine.set_sink(Some(handle));
        Checker {
            engine,
            spec: self.spec.clone(),
            nodes: self.nodes,
            sink,
            drained: 0,
            writes: self.writes.clone(),
            migrations: self.migrations.clone(),
            demotions: self.demotions.clone(),
            prev_messages: self.prev_messages,
            accumulated: self.accumulated,
            promotes: self.promotes,
            demotes: self.demotes,
            steps: self.steps,
            resident: self.resident.clone(),
        }
    }

    /// Steps processed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Every event the engine has emitted into this checker's tap, in
    /// order: the tap keeps them all, and [`Checker::check_step`] only
    /// moves a cursor over them. A [`Checker::fork`] starts a new tap.
    pub fn events(&self) -> Vec<Event> {
        lock_sink(&self.sink).events().to_vec()
    }

    /// Per-block migration counts observed so far.
    pub fn migrations_per_block(&self) -> &HashMap<u64, u64> {
        &self.migrations
    }

    /// Per-block demotion counts observed so far.
    pub fn demotions_per_block(&self) -> &HashMap<u64, u64> {
        &self.demotions
    }

    fn violation(
        &self,
        invariant: InvariantId,
        block: Option<u64>,
        detail: String,
    ) -> CheckViolation {
        CheckViolation {
            invariant,
            step: self.steps,
            block,
            detail,
        }
    }

    /// Processes one reference through engine and spec, then checks
    /// the whole invariant suite. On `Err` the checker must be
    /// discarded (the engine is not rolled back).
    pub fn check_step(&mut self, r: MemRef) -> Result<StepInfo, CheckViolation> {
        let block = r.addr.block(CHECK_BLOCK_SIZE).index();
        let pre_entry = self.engine.dir_entry(r.addr.block(CHECK_BLOCK_SIZE));
        let pre_resident = std::mem::take(&mut self.resident);
        self.steps += 1;

        let info = self.engine.try_step(r).map_err(|e| {
            self.violation(
                InvariantId::EngineError,
                e.block().map(|b| b.index()),
                e.to_string(),
            )
        })?;
        if r.op == MemOp::Write {
            *self.writes.entry(block).or_insert(0) += 1;
        }
        self.sweep()?;
        self.check_messages(&info, block)?;
        // The engine's version oracle agrees with the write count.
        let latest = self.engine.latest_version(r.addr.block(CHECK_BLOCK_SIZE));
        let expected = self.written(block);
        if latest != expected {
            let detail = format!("engine oracle at version {latest}, {expected} writes observed");
            return Err(self.violation(InvariantId::DataValue, Some(block), detail));
        }

        self.resident = (self.engine.resident_lines().into_iter())
            .map(|(n, b, _, _)| (n.index() as u16, b.index()))
            .collect();
        let (invalidated, flips) = self.drain_events(&info, block)?;

        // Residency diff: copies that vanished without an invalidation
        // event were silent cache evictions, which the spec must be
        // told about (it has no cache geometry of its own).
        for &(n, b) in &invalidated {
            if !pre_resident.contains(&(n, b)) {
                return Err(self.violation(
                    InvariantId::PhantomInvalidation,
                    Some(b),
                    format!("invalidation event for node {n} which held no copy"),
                ));
            }
        }
        let spec_out = self.spec.step(r);
        let mut expected: Vec<SpecReclass> = spec_out.reclass.clone().into_iter().collect();
        for &(n, b) in pre_resident.difference(&self.resident) {
            if !invalidated.contains(&(n, b)) {
                expected.extend(self.spec.drop_copy(n, b));
            }
        }

        if info.kind != spec_out.kind {
            return Err(self.violation(
                InvariantId::OutcomeMismatch,
                Some(block),
                format!(
                    "engine resolved {:?} but the spec requires {:?}",
                    info.kind, spec_out.kind
                ),
            ));
        }

        self.check_classification(expected, flips)?;
        self.check_states()?;
        self.check_demotion_rule(pre_entry.as_ref(), r, block)?;

        if info.kind == StepKind::ReadMissMigrate {
            *self.migrations.entry(block).or_insert(0) += 1;
        }
        Ok(info)
    }

    /// Message accounting: the step's critical-path charge must equal
    /// the per-class deltas, the charged class must match the outcome
    /// kind, and nothing may be charged to the fault counters on a
    /// reliable fabric.
    fn check_messages(&mut self, info: &StepInfo, block: u64) -> Result<(), CheckViolation> {
        let cur = self.engine.messages();
        let prev = self.prev_messages;
        let delta = |a: MessageCount, b: MessageCount| {
            MessageCount::new(a.control - b.control, a.data - b.data)
        };
        let read_miss = delta(cur.read_miss, prev.read_miss);
        let write_miss = delta(cur.write_miss, prev.write_miss);
        let write_hit = delta(cur.write_hit, prev.write_hit);
        let eviction = delta(cur.eviction, prev.eviction);
        let critical = read_miss + write_miss + write_hit;
        if critical != info.messages {
            return Err(self.violation(
                InvariantId::MessageAccounting,
                Some(block),
                format!(
                    "StepInfo charged {:?} but the class counters moved by {:?}",
                    info.messages, critical
                ),
            ));
        }
        // Which class may move for this outcome (misses may also charge
        // eviction traffic; hits and upgrades never insert a line).
        let (rm_ok, wm_ok, wh_ok, ev_ok) = match info.kind {
            StepKind::ReadHit | StepKind::SilentWrite | StepKind::GrantedWrite => {
                (false, false, false, false)
            }
            StepKind::ExclusiveUpgrade | StepKind::SharedUpgrade => (false, false, true, false),
            StepKind::ReadMissReplicate | StepKind::ReadMissMigrate => (true, false, false, true),
            StepKind::WriteMiss => (false, true, false, true),
        };
        for (label, moved, allowed) in [
            ("read-miss", read_miss != MessageCount::ZERO, rm_ok),
            ("write-miss", write_miss != MessageCount::ZERO, wm_ok),
            ("write-hit", write_hit != MessageCount::ZERO, wh_ok),
            ("eviction", eviction != MessageCount::ZERO, ev_ok),
        ] {
            if moved && !allowed {
                return Err(self.violation(
                    InvariantId::MessageAccounting,
                    Some(block),
                    format!("{label} charge moved on a {:?} outcome", info.kind),
                ));
            }
        }
        if cur.nacks != prev.nacks || cur.retries != prev.retries {
            return Err(self.violation(
                InvariantId::MessageAccounting,
                Some(block),
                "fault counters moved on a reliable fabric".to_string(),
            ));
        }
        self.prev_messages = cur;
        self.accumulated += info.messages;
        Ok(())
    }

    /// The engine's invariant sweep, with the data-value oracle as its
    /// line check: the checker's own write count per block is the
    /// ground truth, and every resident copy must hold it. A broken
    /// structural invariant is an [`InvariantId::EngineError`], a stale
    /// copy a [`InvariantId::DataValue`] naming its lowest node.
    fn sweep(&self) -> Result<(), CheckViolation> {
        let written = |b: BlockAddr| self.written(b.index());
        let Err(v) = self
            .engine
            .sweep(&mut |b, version, _| check_version(version, written(b), "checker sweep"))
        else {
            return Ok(());
        };
        let (block, ViolationKind::StaleRead { observed, latest }) = (v.block, v.kind) else {
            let block = Some(v.block.index());
            return Err(self.violation(InvariantId::EngineError, block, v.to_string()));
        };
        let stale = |n: &u16| self.engine.line_version(NodeId::new(*n), block) == Some(observed);
        let node = (0..self.nodes).find(stale).unwrap_or_default();
        let detail = format!("node {node} holds version {observed}, latest write is {latest}");
        Err(self.violation(InvariantId::DataValue, Some(block.index()), detail))
    }

    /// Writes the checker has counted to `block`.
    fn written(&self, block: u64) -> u64 {
        self.writes.get(&block).copied().unwrap_or(0)
    }

    /// Drains this step's events from the tap: exactly one terminal
    /// `Step` event whose kind and charges match the engine's return
    /// value, plus the invalidations and classification flips.
    #[allow(clippy::type_complexity)]
    fn drain_events(
        &mut self,
        info: &StepInfo,
        block: u64,
    ) -> Result<(BTreeSet<(u16, u64)>, Vec<SpecReclass>), CheckViolation> {
        let events: Vec<Event> = lock_sink(&self.sink).events()[self.drained..].to_vec();
        self.drained += events.len();
        let mut steps_seen = 0u64;
        let mut invalidated = BTreeSet::new();
        let mut flips = Vec::new();
        let last = events.len().saturating_sub(1);
        for (i, ev) in events.iter().enumerate() {
            match *ev {
                Event::Step {
                    step,
                    block: eb,
                    kind,
                    control,
                    data,
                    ..
                } => {
                    steps_seen += 1;
                    let bad = step != self.steps
                        || eb != block
                        || kind != info.kind.obs()
                        || control != info.messages.control
                        || data != info.messages.data
                        || i != last;
                    if bad {
                        return Err(self.violation(
                            InvariantId::MessageAccounting,
                            Some(block),
                            format!(
                                "step event {ev} disagrees with StepInfo {:?} ({:?})",
                                info.kind, info.messages
                            ),
                        ));
                    }
                }
                Event::Invalidation {
                    block: eb, node, ..
                } => {
                    invalidated.insert((node, eb));
                }
                Event::Promote {
                    block: eb,
                    node,
                    rule,
                    ..
                } => flips.push(SpecReclass {
                    block: eb,
                    promoted: true,
                    rule,
                    node,
                }),
                Event::Demote {
                    block: eb,
                    node,
                    rule,
                    ..
                } => flips.push(SpecReclass {
                    block: eb,
                    promoted: false,
                    rule,
                    node,
                }),
                ref other => {
                    return Err(self.violation(
                        InvariantId::EngineError,
                        Some(block),
                        format!("unexpected event {other} on a fault-free single run"),
                    ));
                }
            }
        }
        if steps_seen != 1 {
            return Err(self.violation(
                InvariantId::MessageAccounting,
                Some(block),
                format!("{steps_seen} step events for one reference"),
            ));
        }
        Ok((invalidated, flips))
    }

    /// Classification soundness: the engine's announced flips must be
    /// exactly the flips the specification derived, and each must be
    /// legal for its detection rule under this protocol's policy.
    fn check_classification(
        &mut self,
        mut expected: Vec<SpecReclass>,
        mut observed: Vec<SpecReclass>,
    ) -> Result<(), CheckViolation> {
        for f in &observed {
            if f.promoted {
                self.promotes += 1;
            } else {
                self.demotes += 1;
                *self.demotions.entry(f.block).or_insert(0) += 1;
            }
            self.check_rule_legality(f)?;
        }
        let key = |f: &SpecReclass| (f.block, f.promoted, f.rule.label(), f.node);
        expected.sort_by_key(key);
        observed.sort_by_key(key);
        if expected != observed {
            return Err(self.violation(
                InvariantId::Classification,
                expected.first().or(observed.first()).map(|f| f.block),
                format!("engine announced flips {observed:?}, spec derived {expected:?}"),
            ));
        }
        Ok(())
    }

    /// The §2 rule-legality table: which detection rules may promote
    /// or demote under this protocol's policy.
    fn check_rule_legality(&self, f: &SpecReclass) -> Result<(), CheckViolation> {
        let Some(policy) = self.engine.protocol().policy() else {
            return Err(self.violation(
                InvariantId::Classification,
                Some(f.block),
                format!(
                    "{} announced for non-adaptive protocol {}",
                    if f.promoted { "promotion" } else { "demotion" },
                    self.engine.protocol()
                ),
            ));
        };
        let legal = if f.promoted {
            match f.rule {
                // The three detection rules of §2.
                Rule::WriteHitShared | Rule::WriteHitCleanExclusive | Rule::WriteMiss => true,
                // Forgetting the demoted state restores an optimistic
                // initial classification.
                Rule::CopyDropped => !policy.remember_when_uncached && policy.initial_migratory,
                // Read misses only ever produce counter-evidence.
                Rule::ReadMiss => false,
                // Snooping-only vocabulary.
                Rule::BusMigratoryFill => false,
            }
        } else {
            match f.rule {
                // Clean moves (and, under Stenström, dirty write-miss
                // moves) are counter-evidence.
                Rule::ReadMiss | Rule::WriteMiss => true,
                // A write hit on a shared copy that fails the
                // migratory test declassifies.
                Rule::WriteHitShared => true,
                // A clean-exclusive write hit never demotes: migratory
                // blocks are granted write permission and skip it.
                Rule::WriteHitCleanExclusive => false,
                // Forgetting restores a pessimistic initial state.
                Rule::CopyDropped => !policy.remember_when_uncached && !policy.initial_migratory,
                Rule::BusMigratoryFill => false,
            }
        };
        if legal {
            Ok(())
        } else {
            Err(self.violation(
                InvariantId::Classification,
                Some(f.block),
                format!(
                    "{} via rule {} is illegal under {}",
                    if f.promoted { "promotion" } else { "demotion" },
                    f.rule.label(),
                    self.engine.protocol()
                ),
            ))
        }
    }

    /// Full state comparison: every line state and directory entry
    /// field against the specification's record.
    fn check_states(&self) -> Result<(), CheckViolation> {
        for b in self.spec.known_blocks().collect::<Vec<_>>() {
            let spec = self.spec.block(b).expect("iterating known blocks");
            let block = mcc_trace::BlockAddr::new(b);
            for node in 0..self.nodes {
                let engine_state = self.engine.line_state(NodeId::new(node), block);
                let spec_state = spec.holders.get(&node).copied();
                if engine_state != spec_state {
                    return Err(self.violation(
                        InvariantId::StateMismatch,
                        Some(b),
                        format!("node {node} holds {engine_state:?}, spec requires {spec_state:?}"),
                    ));
                }
            }
            let Some(entry) = self.engine.dir_entry(block) else {
                return Err(self.violation(
                    InvariantId::EntryMismatch,
                    Some(b),
                    "spec tracks the block but the directory has no entry".to_string(),
                ));
            };
            let engine_holders: BTreeSet<u16> =
                entry.copyset.iter().map(|n| n.index() as u16).collect();
            let spec_holders: BTreeSet<u16> = spec.holders.keys().copied().collect();
            let engine_fields = (
                engine_holders,
                entry.created,
                entry.migratory,
                entry.dirty,
                entry.last_invalidator.map(|n| n.index() as u16),
                entry.evidence,
            );
            let spec_fields = (
                spec_holders,
                spec.created,
                spec.migratory,
                spec.dirty,
                spec.last_invalidator,
                spec.evidence,
            );
            if engine_fields != spec_fields {
                return Err(self.violation(
                    InvariantId::EntryMismatch,
                    Some(b),
                    format!("directory entry {engine_fields:?}, spec requires {spec_fields:?}"),
                ));
            }
        }
        Ok(())
    }

    /// The demotion rule, checked directly from the pre-step state: a
    /// migratory block whose single *clean* copy is accessed by a node
    /// that does not hold it must come out demoted (the copy moved
    /// without having been modified). Under a `demote_on_write_miss`
    /// policy the same holds for dirty copies on write misses.
    fn check_demotion_rule(
        &self,
        pre: Option<&mcc_core::DirEntry>,
        r: MemRef,
        block: u64,
    ) -> Result<(), CheckViolation> {
        let Some(policy) = self.engine.protocol().policy() else {
            return Ok(());
        };
        let Some(pre) = pre else { return Ok(()) };
        let foreign_move = pre.migratory
            && pre.created == CopiesCreated::One
            && !pre.copyset.is_empty()
            && !pre.copyset.contains(r.node);
        if !foreign_move {
            return Ok(());
        }
        let must_demote = match r.op {
            MemOp::Read => !pre.dirty,
            MemOp::Write => !pre.dirty || policy.demote_on_write_miss,
        };
        if !must_demote {
            return Ok(());
        }
        let entry = self.engine.dir_entry(r.addr.block(CHECK_BLOCK_SIZE));
        if entry.is_some_and(|e| e.migratory) {
            return Err(self.violation(
                InvariantId::DemotionRule,
                Some(block),
                format!(
                    "block stayed migratory after its single {} copy moved on a {:?} by node {}",
                    if pre.dirty { "dirty" } else { "clean" },
                    r.op,
                    r.node.index()
                ),
            ));
        }
        Ok(())
    }

    /// End-of-run checks and the final tally: the accumulated per-step
    /// charges must equal the engine's totals, and the event-stream
    /// flip counts must equal the counter totals.
    pub fn finish(self) -> Result<SimResult, CheckViolation> {
        let totals = self.engine.messages();
        let critical = totals.read_miss + totals.write_miss + totals.write_hit;
        if critical != self.accumulated {
            return Err(CheckViolation {
                invariant: InvariantId::TotalsMismatch,
                step: 0,
                block: None,
                detail: format!(
                    "critical-path total {:?} but per-step charges sum to {:?}",
                    critical, self.accumulated
                ),
            });
        }
        let events = self.engine.events();
        if events.became_migratory != self.promotes || events.became_other != self.demotes {
            return Err(CheckViolation {
                invariant: InvariantId::TotalsMismatch,
                step: 0,
                block: None,
                detail: format!(
                    "counters report {}/{} flips, event stream carried {}/{}",
                    events.became_migratory, events.became_other, self.promotes, self.demotes
                ),
            });
        }
        Ok(self.engine.finish())
    }

    /// Runs a whole trace through [`Checker::check_step`] and
    /// [`Checker::finish`].
    pub fn run(mut self, trace: &mcc_trace::Trace) -> Result<SimResult, CheckViolation> {
        for r in trace.iter() {
            self.check_step(*r)?;
        }
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_trace::{Addr, NodeId, Trace};

    fn r(node: u16, block: u64, op: MemOp) -> MemRef {
        MemRef::new(NodeId::new(node), op, Addr::new(block * 16))
    }

    fn migratory_trace() -> Trace {
        let mut t = Trace::new();
        t.push(r(0, 0, MemOp::Write));
        for n in [1u16, 2, 0, 1] {
            t.push(r(n, 0, MemOp::Read));
            t.push(r(n, 0, MemOp::Write));
        }
        t.push(r(2, 1, MemOp::Read));
        t.push(r(0, 1, MemOp::Read));
        t.push(r(2, 1, MemOp::Write));
        t
    }

    #[test]
    fn clean_runs_pass_for_every_protocol_point() {
        for protocol in crate::protocol_points() {
            let checker = Checker::new(&CheckerConfig::new(protocol, 3));
            let result = checker.run(&migratory_trace());
            assert!(result.is_ok(), "{protocol}: {}", result.unwrap_err());
        }
    }

    #[test]
    fn clean_runs_pass_for_every_protocol_point_on_the_fast_engine() {
        for protocol in crate::protocol_points() {
            let mut config = CheckerConfig::new(protocol, 3);
            config.fast_engine = true;
            let result = Checker::new(&config).run(&migratory_trace());
            assert!(result.is_ok(), "{protocol}: {}", result.unwrap_err());
        }
    }

    #[test]
    fn broken_spec_flags_a_correct_engine() {
        let mut config = CheckerConfig::new(Protocol::Aggressive, 2);
        config.spec_demotion_enabled = false;
        let mut checker = Checker::new(&config);
        // Aggressive starts migratory: node 0's read miss installs a
        // MigratoryClean copy; node 1's read miss then moves it clean,
        // which the engine demotes (replicate) but the broken spec
        // does not (migrate).
        checker.check_step(r(0, 0, MemOp::Read)).unwrap();
        let v = checker.check_step(r(1, 0, MemOp::Read)).unwrap_err();
        assert_eq!(v.invariant, InvariantId::OutcomeMismatch);
        assert_eq!(v.block, Some(0));
    }

    #[test]
    fn poisoned_version_is_caught_by_the_data_value_oracle() {
        let mut checker = Checker::new(&CheckerConfig::new(Protocol::Basic, 2));
        checker.check_step(r(0, 0, MemOp::Write)).unwrap();
        checker
            .engine
            .poison_line_version(NodeId::new(0), Addr::new(0).block(CHECK_BLOCK_SIZE), 7);
        let v = checker.check_step(r(0, 0, MemOp::Read)).unwrap_err();
        // The engine's own hit-path freshness check fires first; both
        // paths land in the data-value family.
        assert!(
            v.invariant == InvariantId::DataValue || v.invariant == InvariantId::EngineError,
            "{v}"
        );
    }

    #[test]
    fn forked_branches_do_not_share_events() {
        let mut base = Checker::new(&CheckerConfig::new(Protocol::Basic, 2));
        base.check_step(r(0, 0, MemOp::Write)).unwrap();
        let mut a = base.fork();
        let mut b = base.fork();
        a.check_step(r(1, 0, MemOp::Read)).unwrap();
        b.check_step(r(1, 0, MemOp::Write)).unwrap();
        a.check_step(r(1, 0, MemOp::Write)).unwrap();
        assert!(a.finish().is_ok());
        assert!(b.finish().is_ok());
    }

    #[test]
    fn finite_caches_exercise_the_eviction_sync() {
        use mcc_cache::CacheGeometry;
        for protocol in crate::protocol_points() {
            let mut config = CheckerConfig::new(protocol, 2);
            // Two lines per node: plenty of silent evictions across
            // four blocks.
            config.cache =
                CacheConfig::Finite(CacheGeometry::new(32, CHECK_BLOCK_SIZE, 2).unwrap());
            let mut checker = Checker::new(&config);
            let mut rng = mcc_prng::SplitMix64::new(7);
            for _ in 0..400 {
                let node = rng.gen_range(0..2) as u16;
                let block = rng.gen_range(0..4);
                let op = if rng.chance_ppm(400_000) {
                    MemOp::Write
                } else {
                    MemOp::Read
                };
                checker.check_step(r(node, block, op)).unwrap();
            }
            assert!(checker.finish().is_ok(), "{protocol}");
        }
    }
}
