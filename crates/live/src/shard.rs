//! Shard threads: one directory-engine incarnation per shard, with a
//! journal that doubles as write-ahead log and verification evidence.
//!
//! Each shard owns a disjoint set of blocks (the same
//! [`shard_of_block`](mcc_trace::shard_of_block) partition the offline
//! sharded runner uses) and runs a private [`DirectoryEngine`] over the
//! checker's canonical geometry, so its journal replays directly
//! through `mcc-check`'s lockstep checker.
//!
//! # Incarnations, fencing, and the WAL
//!
//! The state that must survive a crash lives in [`ShardShared`], which
//! the supervisor owns; the engine itself is private to one
//! *incarnation* (one spawned thread) and is rebuilt on restart from
//! the last [`EngineSnapshot`] checkpoint plus a silent replay of the
//! journal suffix — the journal is the WAL, the snapshot just bounds
//! replay time.
//!
//! Supervisor restarts are fenced by an epoch counter: an incarnation
//! that was given up on (stalled, then resumed) observes the bumped
//! epoch and abandons itself before it can corrupt the journal. Engine
//! events are staged in a thread-local buffer during `try_step` and
//! committed to the journal *atomically with the journal entry*, under
//! the same lock and the same epoch check, so the event stream and the
//! entry stream can never disagree — a zombie's half-applied step
//! leaves no trace.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use mcc_cache::CacheConfig;
use mcc_check::CHECK_BLOCK_SIZE;
use mcc_core::{
    DirectoryEngine, DirectoryRepr, DirectorySimConfig, Engine, EngineSnapshot, PlacementPolicy,
    Protocol, SimResult, SnapshotGeneration, Storage,
};
use mcc_obs::{shared, BufferSink, Event, EventSink, TelemetrySink, DEFAULT_PUBLISH_EVERY};
use mcc_placement::PagePlacement;
use mcc_prng::SplitMix64;

use crate::chaos::{ChannelStats, ChaosChannel};
use crate::telemetry::LiveTelemetry;
use crate::wal::{self, WalStats, WalTiming};
use crate::wire::{JournalEntry, Reply, Request};

/// The error string an incarnation reports when it finds itself fenced
/// out by a newer epoch. The supervisor ignores exits carrying a stale
/// epoch, so this is informational.
pub(crate) const SUPERSEDED: &str = "superseded by a newer incarnation";

/// Locks a mutex, tolerating poisoning: an incarnation that panicked
/// while holding a lock must not take the whole service down with it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A shard's durable state: everything that survives an incarnation.
#[derive(Debug, Default)]
pub(crate) struct Journal {
    /// The linearized history of applied references, append-only
    /// across incarnations.
    pub entries: Vec<JournalEntry>,
    /// The engine's event narration, committed in lockstep with
    /// `entries` (framing events excepted).
    pub events: Vec<Event>,
    /// Last published checkpoint: the snapshot plus the number of
    /// journal entries it covers.
    pub checkpoint: Option<(EngineSnapshot, usize)>,
    /// Reply-side chaos stats, folded in when an incarnation exits.
    pub reply_chaos: ChannelStats,
    /// NACKs this shard's simulated controller issued.
    pub nacks_sent: u64,
    /// Durability counters (all zero unless a WAL is configured).
    pub wal: WalStats,
}

/// State shared between the supervisor and a shard's incarnations.
pub(crate) struct ShardShared {
    /// The shard's single inbox. Behind a mutex so a replacement
    /// incarnation can take over receiving; the lock is held only for
    /// one bounded `recv_timeout` at a time.
    pub inbox: Mutex<Receiver<Request>>,
    /// The WAL / evidence journal.
    pub journal: Mutex<Journal>,
    /// Liveness counter, bumped once per service-loop iteration; the
    /// supervisor restarts the shard when it stops moving.
    pub heartbeat: AtomicU64,
    /// Fencing epoch: the supervisor bumps this before spawning a
    /// replacement, stranding any zombie of an older incarnation.
    pub epoch: AtomicU64,
}

impl ShardShared {
    pub(crate) fn new(inbox: Receiver<Request>) -> ShardShared {
        ShardShared {
            inbox: Mutex::new(inbox),
            journal: Mutex::new(Journal::default()),
            heartbeat: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
        }
    }
}

/// Immutable per-shard configuration, shared by all incarnations.
pub(crate) struct ShardCtx {
    pub shard: u32,
    pub protocol: Protocol,
    pub nodes: u16,
    /// Base seed for the chaos layer and the NACK draw.
    pub chaos_seed: u64,
    /// Fault rates for the shard→client reply direction.
    pub reply_rates: mcc_core::FaultRates,
    /// NACK probability drawn at receive time (requests only),
    /// mirroring `MessageClass::Request` in the offline injector.
    pub nack_ppm: u32,
    /// Publish an [`EngineSnapshot`] every this many applies.
    pub checkpoint_every: u64,
    /// Heartbeat / inbox poll cadence.
    pub heartbeat_interval: Duration,
    /// Crash drill: `Some((shard, n))` panics the *first* incarnation
    /// of `shard` immediately before its `n`-th apply.
    pub kill: Option<(u32, u64)>,
    /// On-disk durability: when set, every commit is WAL-appended and
    /// fsynced before it is acked, and engine snapshots are persisted
    /// with rotation.
    pub durable: Option<DurableCtx>,
    /// Live telemetry handles, when the plane is on.
    pub telemetry: Option<Arc<LiveTelemetry>>,
}

/// Where a shard persists its WAL and snapshot, and through which
/// [`Storage`] backend (the seam the torture harness points at a
/// [`ChaosStorage`](mcc_core::ChaosStorage)).
pub(crate) struct DurableCtx {
    pub storage: Arc<dyn Storage>,
    pub wal_path: PathBuf,
    pub snap_path: PathBuf,
}

impl ShardCtx {
    /// The engine geometry every shard runs: the checker's canonical
    /// configuration, so journals replay through `mcc-check` verbatim.
    pub(crate) fn engine_config(&self) -> DirectorySimConfig {
        DirectorySimConfig {
            nodes: self.nodes,
            block_size: CHECK_BLOCK_SIZE,
            cache: CacheConfig::Infinite,
            placement: PlacementPolicy::RoundRobin,
            directory: DirectoryRepr::FullMap,
        }
    }
}

/// Derives a channel/draw seed from the run's chaos seed and a role
/// tag, so every channel gets an independent deterministic stream.
pub(crate) fn derive_seed(base: u64, role: u64, a: u64, b: u64) -> u64 {
    SplitMix64::new(
        base ^ role.rotate_left(48) ^ a.rotate_left(24) ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
    .next_u64()
}

/// Runs one incarnation of a shard until the inbox disconnects (all
/// clients done), the incarnation is fenced out, or the engine fails.
///
/// On success returns the engine's final [`SimResult`] — which, by the
/// WAL construction, is a pure function of the journal.
pub(crate) fn run_incarnation(
    ctx: &ShardCtx,
    shared_state: &ShardShared,
    reply_txs: &[std::sync::mpsc::Sender<Reply>],
    epoch: u64,
) -> Result<SimResult, String> {
    let config = ctx.engine_config();
    let placement = PagePlacement::round_robin(ctx.nodes);

    // --- Rebuild the engine from checkpoint + WAL suffix. ---
    // The catch-up replay runs without a sink: the events for those
    // entries were committed when they were first applied.
    let (mut engine, mut applied, mut last_reply) = {
        let mut journal = lock(&shared_state.journal);

        // Durable-WAL reconcile: salvage the on-disk log (truncating
        // any torn tail) and fold in entries the in-memory journal
        // never saw — a crash can land between the WAL fsync and the
        // in-memory commit, and the durable log is the truth.
        if let Some(d) = &ctx.durable {
            let salvage = wal::open_wal(d.storage.as_ref(), &d.wal_path)
                .map_err(|e| format!("shard {}: wal open: {e}", ctx.shard))?;
            if salvage.dropped_bytes > 0 {
                journal.wal.torn_tails += 1;
                journal.wal.dropped_bytes += salvage.dropped_bytes;
                if let Some(lt) = &ctx.telemetry {
                    lt.wal_torn_tails.fetch_add(1, Ordering::Relaxed);
                    lt.wal_dropped_bytes
                        .fetch_add(salvage.dropped_bytes, Ordering::Relaxed);
                }
            }
            let mem = journal.entries.len();
            if salvage.records.len() < mem {
                // Entries were acked that the durable log does not
                // hold: an fsync lied. There is no way to rewrite
                // history consistently — report the degrade.
                return Err(format!(
                    "shard {}: durable WAL holds {} records but {} were acked \
                     (lost fsync?)",
                    ctx.shard,
                    salvage.records.len(),
                    mem
                ));
            }
            for (i, rec) in salvage.records.iter().take(mem).enumerate() {
                if rec.entry != journal.entries[i] {
                    return Err(format!(
                        "shard {}: durable WAL diverges from memory at record {i}",
                        ctx.shard
                    ));
                }
            }
            for rec in &salvage.records[mem..] {
                journal.entries.push(rec.entry);
                journal.events.extend(rec.events.iter().cloned());
                journal.wal.reconciled += 1;
            }
            if let Some(lt) = &ctx.telemetry {
                let reconciled = (salvage.records.len() - mem) as u64;
                if reconciled > 0 {
                    lt.wal_reconciled.fetch_add(reconciled, Ordering::Relaxed);
                    // Reconciled entries were never counted at commit
                    // time (the crash landed between fsync and the
                    // in-memory commit), so fold them in here.
                    lt.applied.fetch_add(reconciled, Ordering::Relaxed);
                }
            }
            // Adopt the persisted snapshot when it bounds replay
            // better than the in-memory checkpoint (after a process
            // restart there is no in-memory checkpoint at all). A
            // snapshot claiming to cover more entries than the WAL
            // holds is rejected inside `load_snapshot`.
            let covered_mem = journal.checkpoint.as_ref().map_or(0, |(_, c)| *c);
            let max = journal.entries.len();
            match wal::load_snapshot(d.storage.as_ref(), &d.snap_path, max) {
                Ok(Some(loaded)) if loaded.covered > covered_mem => {
                    if loaded.generation == SnapshotGeneration::Previous {
                        journal.wal.prev_snapshot_loads += 1;
                        if let Some(lt) = &ctx.telemetry {
                            lt.wal_prev_snapshot_loads.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    journal.checkpoint = Some((loaded.snapshot, loaded.covered));
                }
                Ok(_) => {}
                Err(e) => {
                    return Err(format!("shard {}: snapshot load: {e}", ctx.shard));
                }
            }
        }

        let (mut engine, covered) = match &journal.checkpoint {
            Some((snapshot, covered)) => {
                let engine = snapshot
                    .restore(ctx.protocol, &config, placement.clone(), None)
                    .map_err(|e| format!("shard {}: checkpoint restore: {e}", ctx.shard))?;
                (engine, *covered)
            }
            None => (
                DirectoryEngine::new(ctx.protocol, &config, placement.clone()),
                0,
            ),
        };
        for entry in &journal.entries[covered..] {
            // Keep beating during WAL replay so a long catch-up is not
            // mistaken for a stall.
            shared_state.heartbeat.fetch_add(1, Ordering::Relaxed);
            let info = engine
                .try_step(entry.mref)
                .map_err(|e| format!("shard {}: WAL replay: {e}", ctx.shard))?;
            if info.kind != entry.kind || info.messages != entry.messages {
                return Err(format!(
                    "shard {}: WAL replay diverged at step {}: {:?} vs journal {:?}",
                    ctx.shard, entry.step, info.kind, entry.kind
                ));
            }
        }
        // Dedup cache: the last applied sequence (and the reply it
        // earned) per client, rebuilt from the journal.
        let mut last_reply: Vec<Option<(u64, Reply)>> = vec![None; ctx.nodes as usize];
        for entry in &journal.entries {
            last_reply[entry.client as usize] = Some((
                entry.seq,
                Reply::Done {
                    seq: entry.seq,
                    kind: entry.kind,
                    messages: entry.messages,
                    step: entry.step,
                },
            ));
        }
        let applied = journal.entries.len() as u64;
        if let Some(lt) = &ctx.telemetry {
            let g = &lt.shards[ctx.shard as usize];
            g.applied.store(applied, Ordering::Relaxed);
            let covered = journal.checkpoint.as_ref().map_or(0, |(_, c)| *c);
            g.wal_backlog
                .store((journal.entries.len() - covered) as i64, Ordering::Relaxed);
        }
        (engine, applied, last_reply)
    };

    // Stage engine events locally; they are committed to the journal
    // together with the entry that produced them.
    let (staged, sink) = shared(BufferSink::new());
    engine.set_sink(Some(sink));
    let mut staged_cursor = 0usize;

    // Advisory engine-event aggregates: committed events also feed a
    // batched TelemetrySink so the plane carries `records`,
    // `messages.*`, etc. These lag by one publish batch; the `live.*`
    // counters are the exact ones.
    let mut event_sink = ctx
        .telemetry
        .as_ref()
        .map(|lt| TelemetrySink::new(&lt.plane, DEFAULT_PUBLISH_EVERY));

    // Reply channels: per-client chaos wrappers, re-seeded per epoch
    // so a restart does not replay the exact fault pattern.
    let mut replies: Vec<ChaosChannel<Reply>> = reply_txs
        .iter()
        .enumerate()
        .map(|(client, tx)| {
            let c = ChaosChannel::new(
                tx.clone(),
                ctx.reply_rates,
                derive_seed(
                    ctx.chaos_seed,
                    0xC0,
                    u64::from(ctx.shard) << 16 | client as u64,
                    epoch,
                ),
            );
            match &ctx.telemetry {
                Some(lt) => c.with_telemetry(lt.rep_chaos.clone(), None),
                None => c,
            }
        })
        .collect();
    let mut nack_rng = SplitMix64::new(derive_seed(
        ctx.chaos_seed,
        0xAC,
        u64::from(ctx.shard),
        epoch,
    ));
    let mut nacks_sent = 0u64;

    // Announce the incarnation in the event stream.
    {
        let mut journal = lock(&shared_state.journal);
        if shared_state.epoch.load(Ordering::SeqCst) != epoch {
            return Err(SUPERSEDED.to_string());
        }
        if journal.checkpoint.is_some() {
            let ev = Event::CheckpointLoaded {
                step: engine.steps(),
                records: applied,
            };
            if let Some(sink) = event_sink.as_mut() {
                sink.emit(&ev);
            }
            journal.events.push(ev);
        }
        let ev = Event::ShardStarted {
            shard: ctx.shard,
            records: applied,
        };
        if let Some(sink) = event_sink.as_mut() {
            sink.emit(&ev);
        }
        journal.events.push(ev);
    }

    let exit =
        |mut replies: Vec<ChaosChannel<Reply>>, shared_state: &ShardShared, nacks_sent: u64| {
            let mut stats = ChannelStats::default();
            for c in replies.iter_mut() {
                c.flush();
                stats.absorb(&c.stats);
            }
            let mut journal = lock(&shared_state.journal);
            journal.reply_chaos.absorb(&stats);
            journal.nacks_sent += nacks_sent;
        };

    loop {
        shared_state.heartbeat.fetch_add(1, Ordering::Relaxed);
        if shared_state.epoch.load(Ordering::SeqCst) != epoch {
            exit(replies, shared_state, nacks_sent);
            return Err(SUPERSEDED.to_string());
        }

        let msg = {
            let inbox = lock(&shared_state.inbox);
            inbox.recv_timeout(ctx.heartbeat_interval)
        };
        let req = match msg {
            Ok(req) => req,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        if let Some(lt) = &ctx.telemetry {
            lt.shards[ctx.shard as usize]
                .queue_depth
                .fetch_sub(1, Ordering::Relaxed);
            lt.queue_wait
                .record(req.queued_at.elapsed().as_micros() as u64);
        }

        let client = req.client as usize;
        if client >= replies.len() {
            continue; // malformed; impossible from our own clients
        }

        // Exactly-once: answer retransmits from the dedup cache.
        if let Some((last_seq, cached)) = last_reply[client] {
            if req.seq < last_seq {
                continue; // stale straggler; the client has moved on
            }
            if req.seq == last_seq {
                replies[client].send(cached);
                continue;
            }
        }

        // Simulated directory-controller NACK (request class only).
        if nack_rng.chance_ppm(ctx.nack_ppm) {
            nacks_sent += 1;
            if let Some(lt) = &ctx.telemetry {
                lt.nacks_sent.fetch_add(1, Ordering::Relaxed);
            }
            replies[client].send(Reply::Nack { seq: req.seq });
            continue;
        }

        // Crash drill: die *before* the apply so the journal, the
        // event stream, and the engine agree at the crash point.
        if epoch == 0 {
            if let Some((kill_shard, kill_after)) = ctx.kill {
                if kill_shard == ctx.shard && applied == kill_after {
                    panic!(
                        "injected crash drill: shard {} at {} applies",
                        ctx.shard, applied
                    );
                }
            }
        }

        // Time the deterministic step from *outside* it: the engine
        // never reads the clock, so the traced and untraced paths run
        // the exact same simulation.
        let step_t0 = ctx.telemetry.as_ref().map(|_| Instant::now());
        let info = engine
            .try_step(req.mref)
            .map_err(|e| format!("shard {}: engine: {e}", ctx.shard))?;
        if let (Some(lt), Some(t0)) = (&ctx.telemetry, step_t0) {
            lt.engine_step.record(t0.elapsed().as_micros() as u64);
        }
        applied += 1;
        let entry = JournalEntry {
            client: req.client,
            seq: req.seq,
            mref: req.mref,
            kind: info.kind,
            messages: info.messages,
            step: engine.steps(),
        };
        let reply = Reply::Done {
            seq: req.seq,
            kind: info.kind,
            messages: info.messages,
            step: entry.step,
        };

        // Commit entry + staged events atomically, behind the fence.
        // With a WAL configured the frame is appended and fsynced
        // first, still under the lock and the fence — a zombie cannot
        // write to the durable log either, and nothing is acked before
        // it is durable.
        let commit_t0 = ctx.telemetry.as_ref().map(|_| Instant::now());
        {
            let mut journal = lock(&shared_state.journal);
            if shared_state.epoch.load(Ordering::SeqCst) != epoch {
                // A replacement took over while we were applying; our
                // engine state is now a private fork. Discard it.
                drop(journal);
                exit(replies, shared_state, nacks_sent);
                return Err(SUPERSEDED.to_string());
            }
            let fresh: Vec<Event> = {
                let buffer = mcc_obs::lock_sink(&staged);
                let fresh = buffer.events()[staged_cursor..].to_vec();
                staged_cursor = buffer.events().len();
                fresh
            };
            if let Some(d) = &ctx.durable {
                let timing = ctx.telemetry.as_ref().map(|lt| WalTiming {
                    append_us: &lt.wal_append,
                    fsync_us: &lt.wal_fsync,
                });
                wal::append_record_timed(
                    d.storage.as_ref(),
                    &d.wal_path,
                    &entry,
                    &fresh,
                    timing.as_ref(),
                )
                .map_err(|e| format!("shard {}: wal append: {e}", ctx.shard))?;
                if let Some(lt) = &ctx.telemetry {
                    lt.wal_appends.fetch_add(1, Ordering::Relaxed);
                }
            }
            if let Some(sink) = event_sink.as_mut() {
                for ev in &fresh {
                    sink.emit(ev);
                }
            }
            journal.entries.push(entry);
            journal.events.extend(fresh);
            if ctx.checkpoint_every > 0 && applied % ctx.checkpoint_every == 0 {
                let snapshot = engine.snapshot();
                let covered = journal.entries.len();
                if let Some(d) = &ctx.durable {
                    wal::save_snapshot(d.storage.as_ref(), &d.snap_path, &snapshot, covered as u64)
                        .map_err(|e| format!("shard {}: snapshot save: {e}", ctx.shard))?;
                }
                journal.checkpoint = Some((snapshot, covered));
                let ev = Event::CheckpointSaved {
                    step: engine.steps(),
                    records: applied,
                };
                if let Some(sink) = event_sink.as_mut() {
                    sink.emit(&ev);
                }
                journal.events.push(ev);
            }
            if let Some(lt) = &ctx.telemetry {
                lt.applied.fetch_add(1, Ordering::Relaxed);
                let g = &lt.shards[ctx.shard as usize];
                g.applied
                    .store(journal.entries.len() as u64, Ordering::Relaxed);
                let covered = journal.checkpoint.as_ref().map_or(0, |(_, c)| *c);
                g.wal_backlog
                    .store((journal.entries.len() - covered) as i64, Ordering::Relaxed);
            }
        }
        if let (Some(lt), Some(t0)) = (&ctx.telemetry, commit_t0) {
            lt.commit.record(t0.elapsed().as_micros() as u64);
        }

        last_reply[client] = Some((req.seq, reply));
        let send_t0 = ctx.telemetry.as_ref().map(|_| Instant::now());
        replies[client].send(reply);
        if let (Some(lt), Some(t0)) = (&ctx.telemetry, send_t0) {
            lt.reply_send.record(t0.elapsed().as_micros() as u64);
        }
    }

    // Inbox disconnected: all clients are gone. Seal the journal.
    {
        let mut journal = lock(&shared_state.journal);
        if shared_state.epoch.load(Ordering::SeqCst) != epoch {
            drop(journal);
            exit(replies, shared_state, nacks_sent);
            return Err(SUPERSEDED.to_string());
        }
        let ev = Event::ShardFinished {
            shard: ctx.shard,
            records: applied,
        };
        if let Some(sink) = event_sink.as_mut() {
            sink.emit(&ev);
        }
        journal.events.push(ev);
    }
    exit(replies, shared_state, nacks_sent);
    engine.set_sink(None);
    Ok(engine.finish())
}
