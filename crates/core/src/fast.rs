//! The dense struct-of-arrays hot-path engine.
//!
//! [`FastEngine`] implements exactly the protocol semantics of
//! [`DirectoryEngine`](crate::DirectoryEngine) — same Table 1 charges,
//! same Figure 3 detection hooks (it calls the *same* [`DirEntry`]
//! methods), same checker, same event stream — but stores all per-block
//! state in parallel `Vec`s indexed by a dense slot id, reached through
//! one open-addressing probe per reference instead of three `HashMap`
//! lookups:
//!
//! * `copyset[slot]` — the holder bitset, which is the residency ground
//!   truth: a node holds a block iff the directory says so;
//! * `flags[slot]` — one packed `u32` carrying the directory entry
//!   (dirty/migratory/overflowed bits, copies-created counter,
//!   hysteresis evidence, last invalidator) plus the single-holder line
//!   state;
//! * `line_version[slot]` / `mem_version[slot]` / `latest[slot]` — the
//!   coherence checker's version slots.
//!
//! One `line_version` per block is exact because all simultaneous
//! holders carry the same version in any non-erroring run: a write
//! invalidates every other copy, and every service path checks the
//! served version against the latest write. The single-slot
//! representation also collapses per-node line state: multiple holders
//! are all `Shared`; a single holder's state is stored in two flag
//! bits.
//!
//! Finite caches add one more dense table, per node `sets × ways` rows
//! of (slot, last-use stamp). A hit stamps its row, an invalidated
//! holder's row is cleared, and an insert into a full set evicts the
//! row with the smallest stamp through the reference engine's eviction
//! rule, in its order: the §3.3 eviction charge, the write-back or
//! clean drop, [`DirEntry::on_copy_dropped`] and its `CopyDropped`
//! reclassification. Every eviction notifies the directory, so the copy
//! set stays the residency and both collapses still hold: an evicted
//! copy leaves the other holders' one version and their `Shared` state
//! as they were. The rows decide only which line a full set evicts and
//! the order a snapshot lists a node's lines in, least recently used
//! first, as the reference engine's caches list them.
//!
//! The engine implements [`Engine`] directly, and writes only what its
//! dense rows need: the tables, the Figure 3 transitions (`hit`/`miss`),
//! the inspection bodies and the table half of snapshot conversion.
//! Everything around them is the reference engine's own code: the
//! shared `Frame` (`engine.rs`) opens each step (refusing a node outside
//! the machine), captures and restores the non-table half of a
//! snapshot, and carries the `Ledger`, which emits each event inline as
//! the transition it describes happens, exactly as the reference engine
//! does; fault delivery goes through the same [`TransactionShape`] rule
//! and [`FaultInjector`](crate::FaultInjector) delivery loop.

use mcc_cache::CacheConfig;
use mcc_obs::{Rule, SharedSink};
use mcc_placement::PagePlacement;
use mcc_prng::mix;
use mcc_trace::{BlockAddr, MemOp, MemRef, NodeId};

use crate::checkpoint::EngineSnapshot;
use crate::directory::{CopiesCreated, CopySet, DirEntry, ReadMissAction, Reclassification};
use crate::engine::{BlockRow, Engine, Frame};
use crate::error::{SimError, Violation, ViolationKind};
use crate::faults::{FaultPlan, TransactionShape};
use crate::msg::{charge, charge_eviction, OpKind};
use crate::policy::Protocol;
use crate::result::{EventCounts, MessageBreakdown, SimResult};
use crate::sim::{DirectorySimConfig, LineState, StepInfo, StepKind};

// Packed per-block flag word layout (16 bits used):
//   bit 0      directory dirty bit
//   bit 1      migratory classification
//   bit 2      limited-pointer overflow
//   bit 3      last-invalidator present
//   bits 4-5   single-holder line state (Exclusive/MigratoryClean/Dirty/Shared)
//   bits 6-7   copies-created counter (Zero/One/Two/ThreeOrMore)
//   bits 8-15  hysteresis evidence counter
// The last-invalidator *identity* lives in the parallel `last_inv`
// array (a full u16, so thousand-node machines fit); only its presence
// bit is packed here.
const F_DIRTY: u32 = 1 << 0;
const F_MIGRATORY: u32 = 1 << 1;
const F_OVERFLOWED: u32 = 1 << 2;
const F_LAST_INV_PRESENT: u32 = 1 << 3;
const SSTATE_SHIFT: u32 = 4;
const CREATED_SHIFT: u32 = 6;
const EVIDENCE_SHIFT: u32 = 8;

const fn sstate_bits(state: LineState) -> u32 {
    match state {
        LineState::Exclusive => 0,
        LineState::MigratoryClean => 1,
        LineState::Dirty => 2,
        LineState::Shared => 3,
    }
}

const fn sstate_decode(bits: u32) -> LineState {
    match bits & 0b11 {
        0 => LineState::Exclusive,
        1 => LineState::MigratoryClean,
        2 => LineState::Dirty,
        _ => LineState::Shared,
    }
}

const fn created_bits(created: CopiesCreated) -> u32 {
    match created {
        CopiesCreated::Zero => 0,
        CopiesCreated::One => 1,
        CopiesCreated::Two => 2,
        CopiesCreated::ThreeOrMore => 3,
    }
}

const fn created_decode(bits: u32) -> CopiesCreated {
    match bits & 0b11 {
        0 => CopiesCreated::Zero,
        1 => CopiesCreated::One,
        2 => CopiesCreated::Two,
        _ => CopiesCreated::ThreeOrMore,
    }
}

/// The slot a free way of a finite cache holds.
const FREE: u32 = u32::MAX;

/// A finite cache's replacement state at every node: per node,
/// `sets × ways` dense rows of (slot, last-use stamp), [`FREE`] in a
/// way no line occupies. Empty under infinite caches, which never
/// evict; every method is then a no-op.
#[derive(Clone, Debug, Default)]
struct CacheRows {
    /// Ways per set; 0 under infinite caches.
    ways: usize,
    /// `sets - 1`: the set count is a power of two.
    set_mask: u64,
    /// Rows per node (`sets × ways`).
    per_node: usize,
    slot: Vec<u32>,
    stamp: Vec<u64>,
    /// Advanced by every touch and insert, as each reference-engine
    /// cache's LRU clock is. One clock for every node orders each node's
    /// lines as its own clock would.
    clock: u64,
}

impl CacheRows {
    fn new(cache: CacheConfig, nodes: u16) -> CacheRows {
        let CacheConfig::Finite(geometry) = cache else {
            return CacheRows::default();
        };
        let per_node = geometry.blocks() as usize;
        let rows = per_node * usize::from(nodes);
        CacheRows {
            ways: geometry.associativity() as usize,
            set_mask: geometry.sets() - 1,
            per_node,
            slot: vec![FREE; rows],
            stamp: vec![0; rows],
            clock: 0,
        }
    }

    /// The rows of `block`'s set at `node`.
    #[inline]
    fn set(&self, node: NodeId, block: BlockAddr) -> std::ops::Range<usize> {
        let set = (block.index() & self.set_mask) as usize;
        let start = node.index() * self.per_node + set * self.ways;
        start..start + self.ways
    }

    /// The row holding `slot`'s line at `node`, if any.
    #[inline]
    fn find(&self, node: NodeId, block: BlockAddr, slot: usize) -> Option<usize> {
        self.set(node, block)
            .find(|&row| self.slot[row] == slot as u32)
    }

    /// Marks `slot`'s line at `node` most recently used.
    #[inline]
    fn touch(&mut self, node: NodeId, block: BlockAddr, slot: usize) {
        if self.ways == 0 {
            return;
        }
        self.clock += 1;
        if let Some(row) = self.find(node, block, slot) {
            self.stamp[row] = self.clock;
        }
    }

    /// Clears `slot`'s row at `node`, whose copy was invalidated.
    #[inline]
    fn remove(&mut self, node: NodeId, block: BlockAddr, slot: usize) {
        if self.ways == 0 {
            return;
        }
        if let Some(row) = self.find(node, block, slot) {
            self.slot[row] = FREE;
        }
    }

    /// Places `slot`'s line at `node` as most recently used. A full set
    /// gives up its least recently used line, whose slot comes back.
    #[inline]
    fn insert(&mut self, node: NodeId, block: BlockAddr, slot: usize) -> Option<usize> {
        if self.ways == 0 {
            return None;
        }
        self.clock += 1;
        let set = self.set(node, block);
        let (row, victim) = match set.clone().find(|&row| self.slot[row] == FREE) {
            Some(row) => (row, None),
            None => {
                let lru = set
                    .min_by_key(|&row| self.stamp[row])
                    .expect("a set has ways");
                (lru, Some(self.slot[lru] as usize))
            }
        };
        self.slot[row] = slot as u32;
        self.stamp[row] = self.clock;
        victim
    }

    /// The slots resident at `node`, least recently used first.
    fn lru_first(&self, node: NodeId) -> Vec<usize> {
        let start = node.index() * self.per_node;
        let mut lines: Vec<(u64, u32)> = (start..start + self.per_node)
            .filter(|&row| self.slot[row] != FREE)
            .map(|row| (self.stamp[row], self.slot[row]))
            .collect();
        lines.sort_unstable();
        lines.into_iter().map(|(_, slot)| slot as usize).collect()
    }
}

/// The dense struct-of-arrays hot path behind
/// [`AnyEngine`](crate::AnyEngine).
///
/// Construct through [`AnyEngine::new`](crate::AnyEngine::new) with
/// [`EngineKind::Fast`](crate::EngineKind::Fast); drive it through the
/// [`Engine`] trait. Bit-exact with the reference engine (see
/// `tests/fast_engine_parity.rs` and DESIGN.md §13).
#[derive(Clone, Debug)]
pub struct FastEngine {
    /// Protocol, machine shape, RWITM flag and ledger.
    pub(crate) frame: Frame,
    /// Open-addressing index: `block.index() + 1` (0 = empty slot) →
    /// position in `slot_ids`. Linear probing, power-of-two capacity.
    keys: Vec<u64>,
    slot_ids: Vec<u32>,
    table_mask: usize,
    /// Parallel arrays, one row per block ever referenced.
    blocks: Vec<BlockAddr>,
    /// The block's home node, resolved once at slot creation: placement
    /// is fixed at construction, so caching it here turns the per-step
    /// page-table lookup into a direct index.
    home: Vec<NodeId>,
    copyset: Vec<CopySet>,
    flags: Vec<u32>,
    /// Last-invalidator node id per block; meaningful only while the
    /// `F_LAST_INV_PRESENT` bit is set in `flags`.
    last_inv: Vec<u16>,
    line_version: Vec<u64>,
    mem_version: Vec<u64>,
    latest: Vec<u64>,
    /// A finite cache's replacement state; empty under infinite caches.
    cache: CacheRows,
}

impl FastEngine {
    /// Creates a fast engine of `config`'s machine, its caches included.
    pub(crate) fn new(
        protocol: Protocol,
        config: &DirectorySimConfig,
        placement: PagePlacement,
    ) -> Self {
        FastEngine {
            frame: Frame::new(protocol, config, placement),
            keys: Vec::new(),
            slot_ids: Vec::new(),
            table_mask: 0,
            blocks: Vec::new(),
            home: Vec::new(),
            copyset: Vec::new(),
            flags: Vec::new(),
            last_inv: Vec::new(),
            line_version: Vec::new(),
            mem_version: Vec::new(),
            latest: Vec::new(),
            cache: CacheRows::new(config.cache, config.nodes),
        }
    }

    // ---- index ----------------------------------------------------

    #[inline]
    fn lookup(&self, block: BlockAddr) -> Option<usize> {
        if self.keys.is_empty() {
            return None;
        }
        let key = block.index().wrapping_add(1);
        let mut i = (mix(key) as usize) & self.table_mask;
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.slot_ids[i] as usize);
            }
            if k == 0 {
                return None;
            }
            i = (i + 1) & self.table_mask;
        }
    }

    fn raw_insert(&mut self, key: u64, id: u32) {
        let mut i = (mix(key) as usize) & self.table_mask;
        while self.keys[i] != 0 {
            i = (i + 1) & self.table_mask;
        }
        self.keys[i] = key;
        self.slot_ids[i] = id;
    }

    fn grow_table(&mut self) {
        let new_cap = self.keys.len().max(32) * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_ids = std::mem::replace(&mut self.slot_ids, vec![0; new_cap]);
        self.table_mask = new_cap - 1;
        for (k, id) in old_keys.into_iter().zip(old_ids) {
            if k != 0 {
                self.raw_insert(k, id);
            }
        }
    }

    /// Appends a fresh row for `block` — the moment the reference
    /// engine's `entry_mut` would create a directory entry.
    fn create_slot(&mut self, block: BlockAddr, home: NodeId) -> usize {
        let slot = self.blocks.len();
        self.blocks.push(block);
        self.home.push(home);
        self.copyset.push(CopySet::new());
        self.flags
            .push(pack_entry(&DirEntry::new(self.frame.policy), 0));
        self.last_inv.push(0);
        self.line_version.push(0);
        self.mem_version.push(0);
        self.latest.push(0);
        // Grow at 50% load so probe chains stay short.
        if (self.blocks.len() + 1) * 2 > self.keys.len() {
            self.grow_table();
        }
        self.raw_insert(block.index().wrapping_add(1), slot as u32);
        slot
    }

    fn ensure_slot(&mut self, block: BlockAddr) -> usize {
        match self.lookup(block) {
            Some(slot) => slot,
            None => self.create_slot(block, self.frame.home_of(block)),
        }
    }

    // ---- packed state accessors -----------------------------------

    /// Materialises the directory entry from the packed row.
    fn entry_at(&self, slot: usize) -> DirEntry {
        let f = self.flags[slot];
        DirEntry {
            copyset: self.copyset[slot].clone(),
            created: created_decode(f >> CREATED_SHIFT),
            migratory: f & F_MIGRATORY != 0,
            dirty: f & F_DIRTY != 0,
            last_invalidator: (f & F_LAST_INV_PRESENT != 0)
                .then(|| NodeId::new(self.last_inv[slot])),
            evidence: ((f >> EVIDENCE_SHIFT) & 0xff) as u8,
            overflowed: f & F_OVERFLOWED != 0,
        }
    }

    /// Writes a (possibly hook-mutated) directory entry back into the
    /// packed row, preserving the line-state bits.
    fn store_entry(&mut self, slot: usize, e: DirEntry) {
        let sstate = (self.flags[slot] >> SSTATE_SHIFT) & 0b11;
        self.flags[slot] = pack_entry(&e, sstate);
        self.last_inv[slot] = e.last_invalidator.map_or(0, |n| n.index() as u16);
        self.copyset[slot] = e.copyset;
    }

    fn set_sstate(&mut self, slot: usize, state: LineState) {
        self.flags[slot] =
            (self.flags[slot] & !(0b11 << SSTATE_SHIFT)) | (sstate_bits(state) << SSTATE_SHIFT);
    }

    /// The line state every current holder of the slot's block sees.
    /// Only meaningful while the copyset is non-empty.
    #[inline]
    fn holder_state(&self, slot: usize) -> LineState {
        if self.copyset[slot].len() > 1 {
            LineState::Shared
        } else {
            sstate_decode(self.flags[slot] >> SSTATE_SHIFT)
        }
    }

    fn dirty_at(&self, slot: usize) -> bool {
        self.flags[slot] & F_DIRTY != 0
    }

    fn overflowed_at(&self, slot: usize) -> bool {
        self.flags[slot] & F_OVERFLOWED != 0
    }

    // ---- stepping -------------------------------------------------

    fn hit(
        &mut self,
        slot: usize,
        n: NodeId,
        block: BlockAddr,
        home: NodeId,
        op: MemOp,
    ) -> Result<StepKind, Violation> {
        self.cache.touch(n, block, slot);
        let state = self.holder_state(slot);
        let version = self.line_version[slot];
        self.observe(slot, block, version, "cache hit")?;
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
                        self.frame.ledger.events.write_grants_used += 1;
                        self.flags[slot] |= F_DIRTY;
                        self.set_sstate(slot, LineState::Dirty);
                        StepKind::GrantedWrite
                    }
                    LineState::Exclusive => {
                        self.frame.ledger.events.exclusive_upgrades += 1;
                        self.frame.ledger.messages.write_hit +=
                            charge(OpKind::WriteHit, home == n, false, 0);
                        let mut e = self.entry_at(slot);
                        let rc = if self.frame.pure_migratory {
                            e.last_invalidator = Some(n);
                            e.dirty = true;
                            Reclassification::Unchanged
                        } else {
                            e.on_write_hit_clean_exclusive(self.frame.policy, n)
                        };
                        self.store_entry(slot, e);
                        self.frame
                            .ledger
                            .reclassified(rc, block, n, Rule::WriteHitCleanExclusive);
                        self.set_sstate(slot, LineState::Dirty);
                        StepKind::ExclusiveUpgrade
                    }
                    LineState::Shared => {
                        self.frame.ledger.events.shared_upgrades += 1;
                        let mut e = self.entry_at(slot);
                        let dc = self.frame.repr.charged_distant_copies(
                            &e.copyset,
                            e.overflowed,
                            n,
                            home,
                            self.frame.nodes,
                        );
                        let was_overflowed = e.overflowed;
                        let others = e.copyset.clone();
                        let rc = if self.frame.pure_migratory {
                            e.created = CopiesCreated::One;
                            e.last_invalidator = Some(n);
                            e.dirty = true;
                            Reclassification::Unchanged
                        } else {
                            e.on_write_hit_shared(self.frame.policy, n)
                        };
                        e.copyset = CopySet::only(n);
                        e.overflowed = false;
                        self.store_entry(slot, e);
                        if was_overflowed {
                            self.frame.ledger.events.broadcast_invalidations += 1;
                        }
                        self.frame.ledger.messages.write_hit +=
                            charge(OpKind::WriteHit, home == n, false, dc);
                        for m in others.iter() {
                            if m == n {
                                continue;
                            }
                            self.invalidate(slot, block, m);
                        }
                        self.frame
                            .ledger
                            .reclassified(rc, block, n, Rule::WriteHitShared);
                        self.set_sstate(slot, LineState::Dirty);
                        StepKind::SharedUpgrade
                    }
                };
                self.latest[slot] += 1;
                self.line_version[slot] = self.latest[slot];
                kind
            }
        })
    }

    fn miss(
        &mut self,
        slot: Option<usize>,
        n: NodeId,
        block: BlockAddr,
        home: NodeId,
        op: MemOp,
    ) -> Result<StepKind, Violation> {
        // The reference engine's entry_mut creates the directory entry
        // here, before the snapshot of pre-transaction state.
        let slot = match slot {
            Some(s) => s,
            None => self.create_slot(block, home),
        };
        let (pure, repr) = (self.frame.pure_migratory, self.frame.repr);
        let dirty = self.dirty_at(slot);
        let was_overflowed = self.overflowed_at(slot);
        let copyset_before = self.copyset[slot].clone();
        let dc = if dirty {
            copyset_before.distant_count(n, home)
        } else {
            repr.charged_distant_copies(&copyset_before, was_overflowed, n, home, self.frame.nodes)
        };
        debug_assert!(!copyset_before.contains(n), "missing node holds a copy");
        // A single holder's copy is dirty iff its line state says so;
        // multiple holders are all Shared (clean) by representation.
        let single_dirty =
            copyset_before.single().is_some() && self.holder_state(slot) == LineState::Dirty;
        let kind = match op {
            MemOp::Read if self.frame.rwitm => {
                self.frame.ledger.events.read_misses += 1;
                self.frame.ledger.events.migrations += 1;
                self.frame.ledger.messages.read_miss +=
                    charge(OpKind::WriteMiss, home == n, dirty, dc);
                let mut served_from_owner = None;
                for m in copyset_before.iter() {
                    if single_dirty {
                        let v = self.line_version[slot];
                        self.mem_version[slot] = v;
                        served_from_owner = Some(v);
                    }
                    self.invalidate(slot, block, m);
                }
                let served = served_from_owner.unwrap_or(self.mem_version[slot]);
                self.observe(slot, block, served, "read-with-ownership")?;
                let mut e = self.entry_at(slot);
                e.created = CopiesCreated::One;
                e.last_invalidator = Some(n);
                e.copyset = CopySet::only(n);
                e.overflowed = false;
                e.dirty = false;
                self.store_entry(slot, e);
                self.set_sstate(slot, LineState::MigratoryClean);
                self.line_version[slot] = served;
                StepKind::ReadMissMigrate
            }
            MemOp::Read => {
                self.frame.ledger.events.read_misses += 1;
                self.frame.ledger.messages.read_miss +=
                    charge(OpKind::ReadMiss, home == n, dirty, dc);
                let (action, rc) = if pure && dirty {
                    (ReadMissAction::Migrate, Reclassification::Unchanged)
                } else {
                    let mut e = self.entry_at(slot);
                    let out = e.on_read_miss(self.frame.policy);
                    self.store_entry(slot, e);
                    out
                };
                self.frame.ledger.reclassified(rc, block, n, Rule::ReadMiss);
                match action {
                    ReadMissAction::Migrate => {
                        self.frame.ledger.events.migrations += 1;
                        let served = if let Some(owner) = copyset_before.single() {
                            let v = self.line_version[slot];
                            if single_dirty {
                                self.mem_version[slot] = v;
                            }
                            self.invalidate(slot, block, owner);
                            v
                        } else {
                            debug_assert!(copyset_before.is_empty());
                            self.mem_version[slot]
                        };
                        self.observe(slot, block, served, "migration")?;
                        let mut e = self.entry_at(slot);
                        e.copyset = CopySet::only(n);
                        e.overflowed = false;
                        e.dirty = false;
                        self.store_entry(slot, e);
                        self.set_sstate(slot, LineState::MigratoryClean);
                        self.line_version[slot] = served;
                        StepKind::ReadMissMigrate
                    }
                    ReadMissAction::Replicate => {
                        self.frame.ledger.events.replications += 1;
                        let mut served_from_owner = None;
                        if copyset_before.single().is_some() {
                            // Demote the exclusive holder to Shared in
                            // place; a dirty copy is written back.
                            if single_dirty {
                                served_from_owner = Some(self.line_version[slot]);
                            }
                            self.set_sstate(slot, LineState::Shared);
                        }
                        if let Some(v) = served_from_owner {
                            self.mem_version[slot] = v;
                        }
                        let served = served_from_owner.unwrap_or(self.mem_version[slot]);
                        self.observe(slot, block, served, "replication")?;
                        // Clear dirty, add the reader, maybe overflow —
                        // directly on the packed row (equivalent to an
                        // entry_at/store_entry round trip, which touches
                        // nothing else here).
                        self.copyset[slot].insert(n);
                        let mut f = self.flags[slot] & !F_DIRTY;
                        if repr.overflows(self.copyset[slot].len()) {
                            f |= F_OVERFLOWED;
                        }
                        self.flags[slot] = f;
                        if copyset_before.is_empty() {
                            self.set_sstate(slot, LineState::Exclusive);
                        }
                        self.line_version[slot] = served;
                        StepKind::ReadMissReplicate
                    }
                }
            }
            MemOp::Write => {
                self.frame.ledger.events.write_misses += 1;
                self.frame.ledger.messages.write_miss +=
                    charge(OpKind::WriteMiss, home == n, dirty, dc);
                let mut served_from_owner = None;
                for m in copyset_before.iter() {
                    if single_dirty {
                        let v = self.line_version[slot];
                        self.mem_version[slot] = v;
                        served_from_owner = Some(v);
                    }
                    self.invalidate(slot, block, m);
                }
                let served = served_from_owner.unwrap_or(self.mem_version[slot]);
                self.observe(slot, block, served, "write miss")?;
                if was_overflowed {
                    self.frame.ledger.events.broadcast_invalidations += 1;
                }
                let mut e = self.entry_at(slot);
                let rc = if pure {
                    e.created = CopiesCreated::One;
                    e.last_invalidator = Some(n);
                    e.dirty = true;
                    Reclassification::Unchanged
                } else {
                    e.on_write_miss(self.frame.policy, n)
                };
                e.copyset = CopySet::only(n);
                e.overflowed = false;
                self.store_entry(slot, e);
                self.frame
                    .ledger
                    .reclassified(rc, block, n, Rule::WriteMiss);
                self.latest[slot] += 1;
                self.set_sstate(slot, LineState::Dirty);
                self.line_version[slot] = self.latest[slot];
                StepKind::WriteMiss
            }
        };
        // Last, as the reference engine inserts the line after the
        // transaction, its eviction's events after the transaction's.
        self.insert_line(n, block, slot);
        Ok(kind)
    }

    /// Invalidates `node`'s copy of the slot's block: clears its cache
    /// row, then tallies and emits the invalidation.
    fn invalidate(&mut self, slot: usize, block: BlockAddr, node: NodeId) {
        self.cache.remove(node, block, slot);
        self.frame.ledger.invalidated(block, node);
    }

    /// Places the slot's line in node `n`'s cache, evicting the least
    /// recently used line of a full set.
    #[inline]
    fn insert_line(&mut self, n: NodeId, block: BlockAddr, slot: usize) {
        if let Some(victim) = self.cache.insert(n, block, slot) {
            self.evict(n, victim);
        }
    }

    /// Evicts the victim slot's line from node `n`'s cache by the
    /// reference engine's rule: the §3.3 eviction charge, a dirty victim
    /// written back or a clean one dropped, and the drop notified to the
    /// victim's directory entry, which removes `n` from its copy set.
    #[inline(never)]
    fn evict(&mut self, n: NodeId, victim: usize) {
        let dirty = self.holder_state(victim).is_dirty();
        self.frame.ledger.messages.eviction += charge_eviction(self.home[victim] == n, dirty);
        if dirty {
            self.mem_version[victim] = self.line_version[victim];
            self.frame.ledger.events.writebacks += 1;
        } else {
            self.frame.ledger.events.clean_drops += 1;
        }
        let mut e = self.entry_at(victim);
        let rc = e.on_copy_dropped(self.frame.policy, n);
        self.store_entry(victim, e);
        let victim_block = self.blocks[victim];
        self.frame
            .ledger
            .reclassified(rc, victim_block, n, Rule::CopyDropped);
    }

    fn observe(
        &self,
        slot: usize,
        block: BlockAddr,
        observed: u64,
        context: &'static str,
    ) -> Result<(), Violation> {
        let latest = self.latest[slot];
        if observed == latest {
            Ok(())
        } else {
            Err(Violation {
                block,
                step: self.frame.ledger.steps,
                kind: ViolationKind::StaleRead { observed, latest },
                context,
                entry: Some(self.entry_at(slot)),
            })
        }
    }

    // ---- testing hooks --------------------------------------------

    /// Testing hook mirroring
    /// [`DirectoryEngine::poison_line_version`]
    /// (crate::DirectoryEngine::poison_line_version). The fast engine
    /// stores one version per block, so poisoning any holder poisons
    /// every holder of that block.
    pub(crate) fn poison_line_version(
        &mut self,
        node: NodeId,
        block: BlockAddr,
        version: u64,
    ) -> bool {
        match self.lookup(block) {
            Some(slot) if self.copyset[slot].contains(node) => {
                self.line_version[slot] = version;
                true
            }
            _ => false,
        }
    }

    /// Testing hook mirroring
    /// [`DirectoryEngine::poison_latest_version`]
    /// (crate::DirectoryEngine::poison_latest_version).
    pub(crate) fn poison_latest_version(&mut self, block: BlockAddr, version: u64) {
        let slot = self.ensure_slot(block);
        self.latest[slot] = version;
    }

    // ---- snapshot conversion --------------------------------------

    /// Rebuilds a fast engine from a snapshot (captured by either
    /// implementation). The dense rows cannot express a directory/cache
    /// desync, holders that disagree on a version or several holders
    /// that are not all `Shared`; no correct engine produces those, and
    /// the frame's restore refuses them on both engines, so the rows
    /// never restore such a state inexactly. A finite cache takes each
    /// node's lines in the snapshot's order, least recently used first,
    /// and refuses a set they overfill with the reference engine's
    /// reason.
    pub(crate) fn from_snapshot(
        snap: &EngineSnapshot,
        protocol: Protocol,
        config: &DirectorySimConfig,
        placement: PagePlacement,
        faults: Option<FaultPlan>,
    ) -> Result<FastEngine, String> {
        let mut engine = FastEngine::new(protocol, config, placement);
        engine.frame.restore(snap, faults)?;
        for (block, entry) in &snap.dir {
            let slot = engine.ensure_slot(BlockAddr::new(*block));
            engine.store_entry(slot, entry.clone());
        }
        for &(block, version) in &snap.mem_version {
            let slot = engine.ensure_slot(BlockAddr::new(block));
            engine.mem_version[slot] = version;
        }
        for &(block, version) in &snap.latest {
            let slot = engine.ensure_slot(BlockAddr::new(block));
            engine.latest[slot] = version;
        }
        // The frame has refused several holders of a block that are not
        // all Shared or disagree on its version, so the dense row's one
        // state and one version hold whichever line sets them last.
        for (node, lines) in NodeId::first(engine.frame.nodes).zip(&snap.caches) {
            for &(block, state, version) in lines {
                let block = BlockAddr::new(block);
                let slot = engine.ensure_slot(block);
                engine.set_sstate(slot, state);
                engine.line_version[slot] = version;
                if engine.cache.insert(node, block, slot).is_some() {
                    return Err("cache snapshot does not fit the configured geometry".to_string());
                }
            }
        }
        Ok(engine)
    }
}

fn pack_entry(e: &DirEntry, sstate: u32) -> u32 {
    let mut f = (sstate & 0b11) << SSTATE_SHIFT;
    if e.dirty {
        f |= F_DIRTY;
    }
    if e.migratory {
        f |= F_MIGRATORY;
    }
    if e.overflowed {
        f |= F_OVERFLOWED;
    }
    f |= created_bits(e.created) << CREATED_SHIFT;
    f |= u32::from(e.evidence) << EVIDENCE_SHIFT;
    if e.last_invalidator.is_some() {
        f |= F_LAST_INV_PRESENT;
    }
    f
}

impl Engine for FastEngine {
    fn protocol(&self) -> Protocol {
        self.frame.protocol
    }

    fn steps(&self) -> u64 {
        self.frame.ledger.steps
    }

    fn try_step(&mut self, r: MemRef) -> Result<StepInfo, SimError> {
        let block = self.frame.open(r)?;
        let (n, op) = (r.node, r.op);
        let slot = self.lookup(block);
        let home = match slot {
            Some(s) => self.home[s],
            None => self.frame.home_of(block),
        };
        let backoff = if self.frame.ledger.faults.is_none() {
            0
        } else {
            // Reads the rows without creating a slot, as the reference
            // engine reads its directory without creating an entry.
            let shape = TransactionShape::of(
                r,
                home,
                self.frame.rwitm,
                slot.filter(|&s| self.copyset[s].contains(n))
                    .map(|s| self.holder_state(s)),
                slot.map(|s| (self.dirty_at(s), &self.copyset[s], self.overflowed_at(s))),
                self.frame.repr,
                self.frame.nodes,
            );
            self.frame.ledger.deliver(block, n, shape)?
        };
        let before = self.frame.ledger.messages.critical_path();
        let kind = match slot {
            Some(s) if self.copyset[s].contains(n) => self.hit(s, n, block, home, op)?,
            _ => self.miss(slot, n, block, home, op)?,
        };
        let ledger = &self.frame.ledger;
        Ok(ledger.stepped(block, n, home, kind, before, backoff))
    }

    /// One row per slot, in first-reference order. The copy set is the
    /// residency and several holders are `Shared` by representation, so
    /// every holder's line carries the slot's one state and version.
    fn rows(&self, visit: &mut dyn FnMut(BlockRow<'_>)) {
        for slot in 0..self.blocks.len() {
            let (state, version) = (self.holder_state(slot), self.line_version[slot]);
            visit(BlockRow {
                block: self.blocks[slot],
                entry: Some((&self.copyset[slot], self.dirty_at(slot))),
                lines: &mut self.copyset[slot].iter().map(|node| (node, state, version)),
                memory: self.mem_version[slot],
                latest: self.latest[slot],
            });
        }
    }

    fn messages(&self) -> MessageBreakdown {
        self.frame.ledger.messages
    }

    fn events(&self) -> EventCounts {
        self.frame.ledger.events
    }

    fn line_state(&self, node: NodeId, block: BlockAddr) -> Option<LineState> {
        let slot = self.lookup(block)?;
        self.copyset[slot]
            .contains(node)
            .then(|| self.holder_state(slot))
    }

    fn line_version(&self, node: NodeId, block: BlockAddr) -> Option<u64> {
        let slot = self.lookup(block)?;
        self.copyset[slot]
            .contains(node)
            .then(|| self.line_version[slot])
    }

    fn dir_entry(&self, block: BlockAddr) -> Option<DirEntry> {
        self.lookup(block).map(|slot| self.entry_at(slot))
    }

    fn latest_version(&self, block: BlockAddr) -> u64 {
        self.lookup(block).map_or(0, |slot| self.latest[slot])
    }

    fn memory_version(&self, block: BlockAddr) -> u64 {
        self.lookup(block).map_or(0, |slot| self.mem_version[slot])
    }

    fn set_sink(&mut self, sink: Option<SharedSink>) {
        self.frame.ledger.sink = sink;
    }

    /// Byte-identical to what the reference engine would capture in the
    /// same state: directory, memory-version and latest-version rows in
    /// block order (version rows only where the reference engine's maps
    /// would hold a key — every insertion there carries a version ≥ 1),
    /// cache rows per node in `snapshot_lines` order: least recently
    /// used first under a finite cache, block order under an infinite
    /// one.
    fn snapshot(&self) -> EngineSnapshot {
        let mut order: Vec<usize> = (0..self.blocks.len()).collect();
        order.sort_unstable_by_key(|&s| self.blocks[s].index());
        let versions = |rows: &[u64]| -> Vec<(u64, u64)> {
            order
                .iter()
                .filter(|&&s| rows[s] > 0)
                .map(|&s| (self.blocks[s].index(), rows[s]))
                .collect()
        };
        let line = |s: usize| {
            (
                self.blocks[s].index(),
                self.holder_state(s),
                self.line_version[s],
            )
        };
        let mut caches = vec![Vec::new(); usize::from(self.frame.nodes)];
        if self.cache.ways > 0 {
            for (node, row) in NodeId::first(self.frame.nodes).zip(&mut caches) {
                *row = self.cache.lru_first(node).into_iter().map(line).collect();
            }
        } else {
            // One pass over the block-sorted slots, each holder's line
            // pushed onto its node's row, keeps every row in block order.
            for &s in &order {
                for node in self.copyset[s].iter() {
                    caches[node.index()].push(line(s));
                }
            }
        }
        EngineSnapshot {
            caches,
            dir: order
                .iter()
                .map(|&s| (self.blocks[s].index(), self.entry_at(s)))
                .collect(),
            mem_version: versions(&self.mem_version),
            latest: versions(&self.latest),
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
    use crate::msg::MessageCount;
    use mcc_trace::{Addr, BlockSize};

    fn fast(protocol: Protocol) -> FastEngine {
        let config = DirectorySimConfig::default();
        FastEngine::new(protocol, &config, PagePlacement::round_robin(config.nodes))
    }

    #[test]
    fn packed_entry_round_trips() {
        let policy = Protocol::Conservative.policy().unwrap();
        let mut e = DirEntry::new(policy);
        e.copyset.insert(NodeId::new(3));
        e.copyset.insert(NodeId::new(700));
        e.created = CopiesCreated::Two;
        e.migratory = true;
        e.dirty = false;
        e.last_invalidator = Some(NodeId::new(1023));
        e.evidence = 1;
        e.overflowed = true;
        let mut engine = fast(Protocol::Conservative);
        let slot = engine.ensure_slot(BlockAddr::new(42));
        engine.store_entry(slot, e.clone());
        assert_eq!(engine.entry_at(slot), e);
    }

    #[test]
    fn index_survives_growth_and_collisions() {
        let mut engine = fast(Protocol::Basic);
        for i in 0..10_000u64 {
            let slot = engine.ensure_slot(BlockAddr::new(i * 3));
            engine.latest[slot] = i + 1;
        }
        for i in 0..10_000u64 {
            assert_eq!(engine.latest_version(BlockAddr::new(i * 3)), i + 1);
            assert_eq!(engine.latest_version(BlockAddr::new(i * 3 + 1)), 0);
        }
    }

    #[test]
    fn migratory_grant_is_detected_like_the_reference() {
        let mut engine = fast(Protocol::Aggressive);
        engine
            .try_step(MemRef::read(NodeId::new(1), Addr::new(0)))
            .unwrap();
        let block = Addr::new(0).block(BlockSize::B16);
        assert_eq!(
            engine.line_state(NodeId::new(1), block),
            Some(LineState::MigratoryClean)
        );
        let info = engine
            .try_step(MemRef::write(NodeId::new(1), Addr::new(0)))
            .unwrap();
        assert_eq!(info.kind, StepKind::GrantedWrite);
        assert_eq!(info.messages, MessageCount::ZERO);
    }

    #[test]
    fn snapshot_round_trips_through_the_fast_engine() {
        let config = DirectorySimConfig::default();
        let mut engine = fast(Protocol::Basic);
        for turn in 0..20u16 {
            let n = NodeId::new(turn % 4);
            engine.step(MemRef::read(n, Addr::new(u64::from(turn % 3) * 16)));
            engine.step(MemRef::write(n, Addr::new(u64::from(turn % 3) * 16)));
        }
        let snap = engine.snapshot();
        let restored = FastEngine::from_snapshot(
            &snap,
            Protocol::Basic,
            &config,
            PagePlacement::round_robin(config.nodes),
            None,
        )
        .unwrap();
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.steps(), engine.steps());
        assert_eq!(restored.messages(), engine.messages());
    }

    #[test]
    fn sweeps_name_the_lowest_block_with_a_flipped_dirty_bit() {
        // Blocks referenced from high to low, each read by nodes 1 and
        // 2, so slot order runs against block order.
        let mut engine = fast(Protocol::Conventional);
        for b in (0..16u64).rev() {
            for n in [1u16, 2] {
                engine.step(MemRef::read(NodeId::new(n), Addr::new(b * 16)));
            }
        }
        // The one structural kind the dense rows can express.
        for b in [11, 4] {
            let slot = engine.lookup(BlockAddr::new(b)).unwrap();
            engine.flags[slot] ^= F_DIRTY;
        }
        let named = |v: Violation| (v.block, v.kind);
        let want = Err((BlockAddr::new(4), ViolationKind::DirtyBitMismatch));
        assert_eq!(engine.verify().map_err(named), want);
        let swept = crate::Monitor::new(1).verify(&engine).map_err(named);
        assert_eq!(swept, want);
    }

    #[test]
    fn verify_catches_a_poisoned_latest_version() {
        let mut engine = fast(Protocol::Conventional);
        engine.step(MemRef::write(NodeId::new(1), Addr::new(0)));
        engine.step(MemRef::read(NodeId::new(2), Addr::new(0)));
        let block = Addr::new(0).block(BlockSize::B16);
        engine.verify().unwrap();
        engine.poison_latest_version(block, 9);
        let v = engine.verify().unwrap_err();
        assert_eq!(v.context, "invariant sweep");
        assert!(matches!(
            v.kind,
            ViolationKind::StaleMemory { latest: 9, .. }
        ));
    }
}
