//! The on-disk per-shard write-ahead log.
//!
//! Until this module, a shard's journal — the service's source of
//! truth — lived only in process memory: a supervisor restart could
//! replay it, but a *process* crash (or a torture-harness power cut)
//! lost it. Here every committed entry is appended to a per-shard WAL
//! file and fsynced **before** the in-memory journal is extended and
//! the client acked, all under the journal lock and the epoch fence,
//! so the durable log is always a superset of what any client was ever
//! told.
//!
//! # Framing
//!
//! A WAL file opens with an 8-byte magic/version header and continues
//! as a sequence of self-checking frames:
//!
//! ```text
//! "MCCW" 0x01 0x00 0x00 0x00      file header
//! u32   payload length            per frame
//! u64   FNV-1a-64 of the payload
//! [u8]  payload (journal entry + the events its apply produced)
//! ```
//!
//! # Torn-tail salvage
//!
//! A crash can land mid-append: the durable file then ends in a torn
//! frame (short length, short payload, or a checksum that does not
//! match). On restart [`open_wal`] scans frame by frame from the
//! start, keeps the longest prefix of fully valid frames, and
//! truncates the file back to it (atomically, via a sibling tmp file
//! and rename). The argument that this is *correct* and not data
//! loss: a frame is only followed by an ack after its fsync returned,
//! so a torn final frame was never acked — the client is still
//! retrying that sequence number and will re-apply it through the
//! normal exactly-once path. Everything acked lives in the valid
//! prefix.
//!
//! # Snapshots
//!
//! Replay time is bounded by a per-shard engine snapshot file written
//! every [`checkpoint_every`](crate::LiveConfig::checkpoint_every)
//! applies with the same fsync-and-rotate discipline as
//! [`Checkpoint::save`](mcc_core::Checkpoint::save) (`.ckpt` ↔
//! `.ckpt.prev`), and loaded with the same fall-back-to-previous
//! recovery. A snapshot that fails to decode, or that claims to cover
//! more entries than the salvaged WAL holds (a lying disk lost WAL
//! bytes after the snapshot was cut), is rejected in favour of the
//! previous generation or a full-log replay.

use std::io;
use std::path::Path;
use std::time::Instant;

use mcc_core::checkpoint::{
    commit_tmp, fnv1a_64, prev_path, put_u16, put_u32, put_u64, read_envelope, save_rotating,
    stage_tmp, write_envelope, PayloadReader,
};
use mcc_core::{EngineSnapshot, MessageCount, SnapshotGeneration, StepKind, Storage};
use mcc_obs::{AtomicHistogram, Event};
use mcc_trace::{MemRef, RECORD_BYTES};

use crate::wire::JournalEntry;

/// Magic + format version header of a WAL file: `MCCW`, version 1,
/// three bytes of padding (the MCCT/MCCK convention).
pub const WAL_MAGIC: [u8; 8] = *b"MCCW\x01\0\0\0";

/// Magic + format version header of a per-shard snapshot file.
pub const SHARD_SNAPSHOT_MAGIC: [u8; 8] = *b"MCCS\x01\0\0\0";

/// One committed record: the journal entry plus the engine events its
/// apply produced (committed atomically with it).
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecord {
    /// The applied reference.
    pub entry: JournalEntry,
    /// The events staged by that apply (including any
    /// `CheckpointSaved` framing committed with it).
    pub events: Vec<Event>,
}

/// What [`open_wal`] recovered from a shard's WAL file.
#[derive(Clone, Debug, Default)]
pub struct SalvagedWal {
    /// Every fully valid record, in commit order.
    pub records: Vec<WalRecord>,
    /// Bytes of torn tail truncated away (0 on a clean file).
    pub dropped_bytes: u64,
    /// Whether the file did not exist (a fresh shard).
    pub created: bool,
}

/// Durability counters a shard accumulates across incarnations,
/// surfaced in [`ShardOutcome`](crate::ShardOutcome) and the run
/// summary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Incarnation starts that found (and truncated) a torn tail.
    pub torn_tails: u64,
    /// Total torn-tail bytes truncated.
    pub dropped_bytes: u64,
    /// Entries recovered from the durable WAL that the in-memory
    /// journal had not yet committed (crash between fsync and ack).
    pub reconciled: u64,
    /// Engine rebuilds that fell back to the rotated `.ckpt.prev`
    /// snapshot generation.
    pub prev_snapshot_loads: u64,
}

impl WalStats {
    /// Folds another shard's counters into this one.
    pub fn absorb(&mut self, other: &WalStats) {
        self.torn_tails += other.torn_tails;
        self.dropped_bytes += other.dropped_bytes;
        self.reconciled += other.reconciled;
        self.prev_snapshot_loads += other.prev_snapshot_loads;
    }
}

// ---------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------

fn step_kind_to_u8(kind: StepKind) -> u8 {
    match kind {
        StepKind::ReadHit => 0,
        StepKind::SilentWrite => 1,
        StepKind::GrantedWrite => 2,
        StepKind::ExclusiveUpgrade => 3,
        StepKind::SharedUpgrade => 4,
        StepKind::ReadMissReplicate => 5,
        StepKind::ReadMissMigrate => 6,
        StepKind::WriteMiss => 7,
    }
}

fn step_kind_from_u8(v: u8) -> Option<StepKind> {
    Some(match v {
        0 => StepKind::ReadHit,
        1 => StepKind::SilentWrite,
        2 => StepKind::GrantedWrite,
        3 => StepKind::ExclusiveUpgrade,
        4 => StepKind::SharedUpgrade,
        5 => StepKind::ReadMissReplicate,
        6 => StepKind::ReadMissMigrate,
        7 => StepKind::WriteMiss,
        _ => return None,
    })
}

/// Serializes one record into a frame payload.
fn encode_record(entry: &JournalEntry, events: &[Event]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    put_u16(&mut out, entry.client);
    put_u64(&mut out, entry.seq);
    out.extend_from_slice(&entry.mref.to_bytes());
    out.push(step_kind_to_u8(entry.kind));
    put_u64(&mut out, entry.messages.control);
    put_u64(&mut out, entry.messages.data);
    put_u64(&mut out, entry.step);
    put_u32(&mut out, events.len() as u32);
    for event in events {
        let json = event.to_json();
        put_u32(&mut out, json.len() as u32);
        out.extend_from_slice(json.as_bytes());
    }
    out
}

/// Decodes one frame payload. `None` means the payload is not a valid
/// record (treated like a checksum failure by the salvage scan).
fn decode_record(payload: &[u8]) -> Option<WalRecord> {
    let mut r = PayloadReader::new(payload);
    let client = r.u16().ok()?;
    let seq = r.u64().ok()?;
    let mref = MemRef::from_bytes(r.bytes(RECORD_BYTES).ok()?.try_into().ok()?).ok()?;
    let kind = step_kind_from_u8(r.u8().ok()?)?;
    let control = r.u64().ok()?;
    let data = r.u64().ok()?;
    let step = r.u64().ok()?;
    let n_events = r.u32().ok()? as usize;
    let mut events = Vec::with_capacity(n_events.min(1024));
    for _ in 0..n_events {
        let len = r.u32().ok()? as usize;
        let bytes = r.bytes(len).ok()?;
        let json = std::str::from_utf8(bytes).ok()?;
        events.push(Event::from_json(json).ok()?);
    }
    r.finish().ok()?;
    Some(WalRecord {
        entry: JournalEntry {
            client,
            seq,
            mref,
            kind,
            messages: MessageCount::new(control, data),
            step,
        },
        events,
    })
}

fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(12 + payload.len());
    put_u32(&mut frame, payload.len() as u32);
    put_u64(&mut frame, fnv1a_64(payload));
    frame.extend_from_slice(payload);
    frame
}

/// Scans `bytes` (which must start with the header) and returns the
/// valid records plus the byte offset where validity ends.
fn scan(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    if bytes.len() < WAL_MAGIC.len() || bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return (records, 0);
    }
    let mut pos = WAL_MAGIC.len();
    while let Some(header) = bytes.get(pos..pos + 12) {
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let stored = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
        let Some(payload) = bytes.get(pos + 12..pos + 12 + len) else {
            break;
        };
        if fnv1a_64(payload) != stored {
            break;
        }
        let Some(record) = decode_record(payload) else {
            break;
        };
        records.push(record);
        pos += 12 + len;
    }
    (records, pos)
}

// ---------------------------------------------------------------------
// WAL operations
// ---------------------------------------------------------------------

/// Reads and scans a WAL file without repairing it (the offline /
/// verification view). A missing file is an empty, `created` salvage.
///
/// # Errors
///
/// Storage failures other than the file not existing.
pub fn read_wal<S: Storage + ?Sized>(storage: &S, path: &Path) -> io::Result<SalvagedWal> {
    let bytes = match storage.read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(SalvagedWal {
                created: true,
                ..SalvagedWal::default()
            })
        }
        Err(e) => return Err(e),
    };
    let (records, valid) = scan(&bytes);
    Ok(SalvagedWal {
        records,
        dropped_bytes: (bytes.len() - valid) as u64,
        created: false,
    })
}

/// Opens a shard's WAL for appending: creates it (header, fsynced,
/// dir-entry fsynced) if missing, or scans it and truncates any torn
/// tail back to the last valid record — atomically, through the same
/// [`stage_tmp`] / [`commit_tmp`] halves as every snapshot save (minus
/// the `.prev` rotation), so a crash *during* salvage cannot lose valid
/// records.
///
/// # Errors
///
/// Any storage failure (including injected ones).
pub fn open_wal<S: Storage + ?Sized>(storage: &S, path: &Path) -> io::Result<SalvagedWal> {
    let bytes = match storage.read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            storage.write_file(path, &WAL_MAGIC)?;
            storage.sync(path)?;
            storage.sync_parent(path)?;
            return Ok(SalvagedWal {
                created: true,
                ..SalvagedWal::default()
            });
        }
        Err(e) => return Err(e),
    };
    let (records, valid) = scan(&bytes);
    let keep = valid.max(WAL_MAGIC.len());
    let dropped = bytes.len().saturating_sub(keep) as u64;
    if bytes.len() != keep || valid < WAL_MAGIC.len() {
        // Torn tail (or a header so mangled the whole file is invalid):
        // rewrite the valid prefix and swap it into place.
        let mut fixed = Vec::with_capacity(keep);
        if valid < WAL_MAGIC.len() {
            fixed.extend_from_slice(&WAL_MAGIC);
        } else {
            fixed.extend_from_slice(&bytes[..keep]);
        }
        let tmp = stage_tmp(storage, path, &fixed)?;
        commit_tmp(storage, &tmp, path)?;
    }
    Ok(SalvagedWal {
        records,
        dropped_bytes: dropped,
        created: false,
    })
}

/// Appends one record and fsyncs it. Only after this returns may the
/// entry be committed to the in-memory journal and acked.
///
/// # Errors
///
/// Any storage failure; on error the entry MUST NOT be acked (the next
/// incarnation's salvage will drop any torn bytes this append left).
pub fn append_record<S: Storage + ?Sized>(
    storage: &S,
    path: &Path,
    entry: &JournalEntry,
    events: &[Event],
) -> io::Result<()> {
    append_record_timed(storage, path, entry, events, None)
}

/// Stage-latency sinks for [`append_record_timed`]: the encode+write
/// half and the fsync half land in separate histograms, so a scraper
/// can tell a slow disk (fsync) from a large frame (append).
pub struct WalTiming<'a> {
    /// Receives the encode + append latency, microseconds.
    pub append_us: &'a AtomicHistogram,
    /// Receives the fsync latency, microseconds.
    pub fsync_us: &'a AtomicHistogram,
}

/// [`append_record`], with optional per-stage latency recording. The
/// clock reads surround the storage calls only — nothing on the
/// deterministic encode path depends on them.
pub fn append_record_timed<S: Storage + ?Sized>(
    storage: &S,
    path: &Path,
    entry: &JournalEntry,
    events: &[Event],
    timing: Option<&WalTiming<'_>>,
) -> io::Result<()> {
    let frame = encode_frame(&encode_record(entry, events));
    let t0 = timing.map(|_| Instant::now());
    storage.append(path, &frame)?;
    if let (Some(t), Some(t0)) = (timing, t0) {
        t.append_us.record(t0.elapsed().as_micros() as u64);
    }
    let t1 = timing.map(|_| Instant::now());
    storage.sync(path)?;
    if let (Some(t), Some(t1)) = (timing, t1) {
        t.fsync_us.record(t1.elapsed().as_micros() as u64);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Per-shard snapshot files
// ---------------------------------------------------------------------

/// A usable per-shard snapshot recovered from disk.
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// The engine snapshot.
    pub snapshot: EngineSnapshot,
    /// Journal entries the snapshot covers.
    pub covered: usize,
    /// Which generation it came from.
    pub generation: SnapshotGeneration,
}

/// Writes a shard snapshot durably, rotating the previous generation
/// to `.prev` through the same [`save_rotating`] as
/// [`Checkpoint::save`](mcc_core::Checkpoint::save).
///
/// # Errors
///
/// Any storage failure.
pub fn save_snapshot<S: Storage + ?Sized>(
    storage: &S,
    path: &Path,
    snapshot: &EngineSnapshot,
    covered: u64,
) -> io::Result<()> {
    let mut payload = Vec::new();
    put_u64(&mut payload, covered);
    snapshot.encode_into(&mut payload);
    let mut bytes = Vec::with_capacity(payload.len() + 24);
    write_envelope(&mut bytes, SHARD_SNAPSHOT_MAGIC, &payload)
        .map_err(|e| io::Error::other(e.to_string()))?;
    save_rotating(storage, path, &bytes)
}

fn decode_snapshot(bytes: &[u8]) -> Option<(EngineSnapshot, usize)> {
    let payload = read_envelope(&mut &bytes[..], SHARD_SNAPSHOT_MAGIC).ok()?;
    let mut r = PayloadReader::new(&payload);
    let covered = r.u64().ok()? as usize;
    let snapshot = EngineSnapshot::decode(&mut r).ok()?;
    r.finish().ok()?;
    Some((snapshot, covered))
}

/// Loads the best usable snapshot for a shard: the current generation
/// if it decodes and covers at most `max_covered` entries (more would
/// mean the WAL lost durable bytes after the snapshot was cut —
/// reject it), else the rotated `.prev`, else `None` (rebuild by full
/// WAL replay).
///
/// # Errors
///
/// Only *environment* failures (e.g. a kill-point firing on the read);
/// corruption never errors, it falls back.
pub fn load_snapshot<S: Storage + ?Sized>(
    storage: &S,
    path: &Path,
    max_covered: usize,
) -> io::Result<Option<LoadedSnapshot>> {
    for (candidate, generation) in [
        (path.to_path_buf(), SnapshotGeneration::Current),
        (prev_path(path), SnapshotGeneration::Previous),
    ] {
        let bytes = match storage.read(&candidate) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        if let Some((snapshot, covered)) = decode_snapshot(&bytes) {
            if covered <= max_covered {
                return Ok(Some(LoadedSnapshot {
                    snapshot,
                    covered,
                    generation,
                }));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_core::{ChaosStorage, KillScope, RealStorage, StorageFaultPlan};
    use mcc_trace::{Addr, MemOp, NodeId};

    fn entry(seq: u64) -> JournalEntry {
        JournalEntry {
            client: 3,
            seq,
            mref: MemRef::new(NodeId::new(3), MemOp::Write, Addr::new(seq * 16)),
            kind: StepKind::WriteMiss,
            messages: MessageCount::new(2, 1),
            step: seq,
        }
    }

    fn events(seq: u64) -> Vec<Event> {
        vec![Event::ShardStarted {
            shard: seq as u32,
            records: seq,
        }]
    }

    #[test]
    fn record_round_trips() {
        let e = entry(42);
        let evs = events(42);
        let payload = encode_record(&e, &evs);
        let rec = decode_record(&payload).expect("decodes");
        assert_eq!(rec.entry, e);
        assert_eq!(rec.events, evs);
    }

    #[test]
    fn wal_append_and_reopen() {
        let fs = ChaosStorage::new(StorageFaultPlan::reliable(1));
        let path = Path::new("shard-0.wal");
        assert!(open_wal(&fs, path).unwrap().created);
        for seq in 1..=5 {
            append_record(&fs, path, &entry(seq), &events(seq)).unwrap();
        }
        let salvage = open_wal(&fs, path).unwrap();
        assert_eq!(salvage.records.len(), 5);
        assert_eq!(salvage.dropped_bytes, 0);
        assert_eq!(salvage.records[4].entry, entry(5));
    }

    /// Every possible truncation of the file recovers exactly the
    /// fully-synced, fully-framed prefix of records.
    #[test]
    fn torn_tail_salvage_at_every_byte() {
        let fs = ChaosStorage::new(StorageFaultPlan::reliable(1));
        let path = Path::new("w.wal");
        open_wal(&fs, path).unwrap();
        let mut boundaries = vec![WAL_MAGIC.len()];
        for seq in 1..=4 {
            append_record(&fs, path, &entry(seq), &events(seq)).unwrap();
            boundaries.push(fs.read(path).unwrap().len());
        }
        let full = fs.read(path).unwrap();
        for cut in 0..=full.len() {
            let torn = ChaosStorage::new(StorageFaultPlan::reliable(2));
            torn.write_file(path, &full[..cut]).unwrap();
            let salvage = open_wal(&torn, path).unwrap();
            // The number of whole records that fit under the cut (a
            // cut inside the header itself salvages zero records).
            let want = boundaries
                .iter()
                .filter(|&&b| b <= cut)
                .count()
                .saturating_sub(1);
            assert_eq!(salvage.records.len(), want, "cut at {cut}");
            for (i, rec) in salvage.records.iter().enumerate() {
                assert_eq!(rec.entry, entry(i as u64 + 1));
            }
            // The salvaged file is clean: re-opening drops nothing and
            // appending continues from the valid prefix.
            let again = open_wal(&torn, path).unwrap();
            assert_eq!(again.dropped_bytes, 0);
            append_record(&torn, path, &entry(99), &events(99)).unwrap();
            let final_read = read_wal(&torn, path).unwrap();
            assert_eq!(final_read.records.len(), want + 1);
        }
    }

    /// Bit flips anywhere in the file never salvage a corrupt record:
    /// the scan stops at (or before) the flipped frame.
    #[test]
    fn bit_flip_cannot_forge_a_record() {
        let fs = ChaosStorage::new(StorageFaultPlan::reliable(1));
        let path = Path::new("w.wal");
        open_wal(&fs, path).unwrap();
        for seq in 1..=3 {
            append_record(&fs, path, &entry(seq), &[]).unwrap();
        }
        let full = fs.read(path).unwrap();
        for byte in WAL_MAGIC.len()..full.len() {
            let mut flipped = full.clone();
            flipped[byte] ^= 0x10;
            let (records, _) = scan(&flipped);
            for (i, rec) in records.iter().enumerate() {
                assert_eq!(rec.entry, entry(i as u64 + 1), "flip at byte {byte}");
            }
        }
    }

    #[test]
    fn snapshot_rotation_and_fallback() {
        use mcc_core::{DirectoryEngine, Engine, Protocol};
        use mcc_placement::PagePlacement;

        let config = mcc_check::CheckerConfig::new(Protocol::Basic, 2).sim_config();
        let mut engine =
            DirectoryEngine::new(Protocol::Basic, &config, PagePlacement::round_robin(2));
        engine
            .try_step(MemRef::new(NodeId::new(0), MemOp::Write, Addr::new(0)))
            .unwrap();
        let snap_a = engine.snapshot();
        engine
            .try_step(MemRef::new(NodeId::new(1), MemOp::Read, Addr::new(16)))
            .unwrap();
        let snap_b = engine.snapshot();

        let fs = ChaosStorage::new(StorageFaultPlan::reliable(1));
        let path = Path::new("d/shard-0.ckpt");
        save_snapshot(&fs, path, &snap_a, 1).unwrap();
        save_snapshot(&fs, path, &snap_b, 2).unwrap();

        // Current wins when usable.
        let loaded = load_snapshot(&fs, path, 10).unwrap().unwrap();
        assert_eq!(loaded.covered, 2);
        assert_eq!(loaded.generation, SnapshotGeneration::Current);

        // Corrupt the current generation: fallback to .prev.
        let mut bytes = fs.read(path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs.write_file(path, &bytes).unwrap();
        let loaded = load_snapshot(&fs, path, 10).unwrap().unwrap();
        assert_eq!(loaded.covered, 1);
        assert_eq!(loaded.generation, SnapshotGeneration::Previous);
        assert_eq!(loaded.snapshot, snap_a);

        // A snapshot ahead of the WAL is rejected the same way.
        let fs2 = ChaosStorage::new(StorageFaultPlan::reliable(1));
        save_snapshot(&fs2, path, &snap_a, 1).unwrap();
        save_snapshot(&fs2, path, &snap_b, 2).unwrap();
        let loaded = load_snapshot(&fs2, path, 1).unwrap().unwrap();
        assert_eq!(loaded.covered, 1);
        assert_eq!(loaded.generation, SnapshotGeneration::Previous);
        assert!(load_snapshot(&fs2, path, 0).unwrap().is_none());
    }

    /// A kill-point mid-append leaves a WAL the next open salvages.
    #[test]
    fn kill_during_append_salvages() {
        for kill_op in 0..20 {
            let fs = ChaosStorage::new(StorageFaultPlan::kill_at(
                kill_op,
                kill_op,
                KillScope::Machine,
            ));
            let path = Path::new("w.wal");
            let mut committed = 0u64;
            let r = (|| -> io::Result<()> {
                open_wal(&fs, path)?;
                for seq in 1..=4 {
                    append_record(&fs, path, &entry(seq), &events(seq))?;
                    committed = seq;
                }
                Ok(())
            })();
            if r.is_ok() {
                continue; // kill landed past this scenario's ops
            }
            let salvage = open_wal(&fs, path).unwrap();
            // Crucially: every record that was acked (append_record
            // returned Ok) survived.
            assert!(
                salvage.records.len() as u64 >= committed,
                "kill at {kill_op}: {} salvaged < {committed} acked",
                salvage.records.len()
            );
            for (i, rec) in salvage.records.iter().enumerate() {
                assert_eq!(rec.entry, entry(i as u64 + 1));
            }
        }
    }

    #[test]
    fn real_storage_wal_round_trip() {
        let dir = std::env::temp_dir().join(format!("mcc-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-0.wal");
        let s = RealStorage;
        assert!(open_wal(&s, &path).unwrap().created);
        append_record(&s, &path, &entry(1), &events(1)).unwrap();
        let salvage = open_wal(&s, &path).unwrap();
        assert_eq!(salvage.records.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
