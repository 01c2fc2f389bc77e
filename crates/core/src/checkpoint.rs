//! Crash-safe checkpoints for directory simulations.
//!
//! Long sweeps should survive a panic, a wedged machine, or an operator
//! Ctrl-C without losing completed work. A [`Checkpoint`] is a
//! versioned, checksummed binary snapshot of a run in flight: per shard,
//! the engine's complete coherence state (cache residency
//! in LRU order, directory entries, version tables), the
//! [`FaultInjector`](crate::FaultInjector) PRNG stream position, the
//! accumulated message/event counters, and an absolute cursor into the
//! source. Every run writes this one format through
//! [`DirectorySim::execute`] (see [`crate::RunSpec`]); a resumed run is
//! **bit-exact** against the uninterrupted run, a property the
//! `resume_equivalence` and `stream_equivalence` integration tests check
//! at every record boundary.
//!
//! # On-disk format
//!
//! The envelope follows the MCCT trace container's style
//! (`crates/trace/src/io.rs`): an 8-byte magic-plus-version header,
//! explicit little-endian integers, and typed rejection of anything
//! malformed.
//!
//! ```text
//! "MCCK" 0x03 0x00 0x00 0x00   magic + format version + padding
//! u64   payload length
//! u64   FNV-1a-64 checksum of the payload
//! [u8]  payload
//! ```
//!
//! The payload holds the protocol, the full simulator configuration,
//! the fault plan, the source's record count and identity, then per
//! shard an absolute cursor (every record the shard owns below it has
//! been applied) and its [`EngineSnapshot`]. Identity is a fingerprint
//! of every record for a materialized trace ([`trace_fingerprint`]) and
//! an O(64) probe for a stream ([`stream_fingerprint`]), which cannot be
//! re-hashed in full on every resume. A resume refuses a snapshot of a
//! different protocol, configuration, fault plan, shard count, or source
//! with [`SimError::BadCheckpoint`] before any state is rebuilt, and
//! so does a restore whose engine snapshot no correct engine could have
//! captured (one the invariant sweep refuses, such as a directory copy
//! set that disagrees with cache residency).
//! Corrupt files (truncation, bit flips, wrong magic, older versions —
//! including version-2 `MCCK` files and the `MCCS` stream snapshots
//! earlier versions wrote) are rejected with a typed
//! [`CheckpointError`], never a panic.
//!
//! What is *not* captured: the records themselves and the page
//! placement, which is recomputed deterministically from the full
//! source exactly as an uninterrupted run computes it.

use std::fmt;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use mcc_cache::{CacheConfig, CacheGeometry};
use mcc_placement::PagePlacement;
use mcc_trace::{BlockSize, NodeId, ReadTraceError, Trace, TraceStream};

use crate::directory::{CopiesCreated, CopySet, DirEntry};
use crate::error::SimError;
use crate::faults::{FaultPlan, FaultRates};
use crate::policy::{AdaptivePolicy, Protocol};
use crate::repr::DirectoryRepr;
use crate::result::{EventCounts, MessageBreakdown};
use crate::sim::{DirectoryEngine, DirectorySimConfig, LineState, PlacementPolicy};
use crate::storage::{RealStorage, Storage};

#[cfg(doc)]
use crate::sim::DirectorySim;

/// Magic + format version header of a checkpoint file: `MCCK`, version
/// 3, three bytes of padding (the MCCT convention). Version 3 replaced
/// the per-shard sub-trace cursors of version 2 — and the separate
/// `MCCS` stream-snapshot format, which now fails as
/// [`CheckpointError::BadMagic`] — with absolute per-shard cursors and
/// one source identity; older `MCCK` files are rejected as
/// [`CheckpointError::UnsupportedVersion`].
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"MCCK\x03\0\0\0";

/// Why a checkpoint file could not be read or written.
///
/// Every malformed input maps to a typed variant — corrupt snapshots
/// must never panic the supervisor that is trying to recover from a
/// crash.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file does not start with the `MCCK` magic.
    BadMagic,
    /// The magic matched but the format version is not understood.
    UnsupportedVersion(u8),
    /// The file ended before the declared payload (or the header) was
    /// complete.
    Truncated,
    /// The payload's checksum does not match the header: the file was
    /// corrupted (bit flips, partial overwrite).
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the payload actually read.
        computed: u64,
    },
    /// The envelope was intact but the payload decodes to nonsense
    /// (an unknown tag, an impossible geometry, trailing bytes…).
    Corrupt(&'static str),
    /// An underlying I/O failure (file missing, permissions, disk).
    Io(io::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint format version {v}")
            }
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch (header {stored:#018x}, payload {computed:#018x})"
            ),
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint payload: {what}"),
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
        }
    }
}

impl CheckpointError {
    /// A short, stable name of the error class, for operator-facing
    /// notices and per-cell audit records (`recovered_from` lines).
    pub fn class(&self) -> &'static str {
        match self {
            CheckpointError::BadMagic => "bad-magic",
            CheckpointError::UnsupportedVersion(_) => "unsupported-version",
            CheckpointError::Truncated => "truncated",
            CheckpointError::ChecksumMismatch { .. } => "checksum-mismatch",
            CheckpointError::Corrupt(_) => "corrupt-payload",
            CheckpointError::Io(_) => "io",
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        // EOF mid-read means the file ended early, which callers reason
        // about as truncation, not as an environment failure.
        if e.kind() == io::ErrorKind::UnexpectedEof {
            CheckpointError::Truncated
        } else {
            CheckpointError::Io(e)
        }
    }
}

// ---------------------------------------------------------------------
// Wire primitives: little-endian integers, FNV-1a checksums, and the
// magic/length/checksum envelope. Public so sibling crates (the
// execution-driven simulator) can build their own snapshots in the same
// format family.
// ---------------------------------------------------------------------

/// FNV-1a 64-bit hash of `bytes` — the checkpoint checksum. Not
/// cryptographic; it detects the accidental corruption (truncation,
/// bit rot, interrupted writes) a crash-recovery path must survive.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash over more bytes, so a long input hashes
/// without being buffered.
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a over one record's MCCT bytes
/// ([`MemRef::to_bytes`](mcc_trace::MemRef::to_bytes)).
fn fnv1a_record(h: u64, r: &mcc_trace::MemRef) -> u64 {
    fnv1a_extend(h, &r.to_bytes())
}

/// Appends a little-endian `u16` to a payload under construction.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32` to a payload under construction.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64` to a payload under construction.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked reader over a decoded payload. Every read that runs
/// off the end reports [`CheckpointError::Truncated`] instead of
/// panicking.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Wraps a payload for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        PayloadReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.buf.len() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] when fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        self.take(n)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Declares decoding finished; trailing payload bytes are corruption.
    pub fn finish(self) -> Result<(), CheckpointError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CheckpointError::Corrupt("trailing bytes after payload"))
        }
    }

    /// A conservative sanity bound for declared element counts: a count
    /// larger than the bytes remaining cannot be honest, so reject it
    /// before any allocation is attempted (the MCCT hostile-count
    /// discipline).
    pub fn check_count(&self, count: u64, min_bytes_each: usize) -> Result<usize, CheckpointError> {
        let remaining = (self.buf.len() - self.pos) as u64;
        let need = count.checked_mul(min_bytes_each as u64);
        match need {
            Some(n) if n <= remaining => Ok(count as usize),
            _ => Err(CheckpointError::Truncated),
        }
    }
}

/// Writes `payload` under `magic` with the length/checksum envelope.
///
/// # Errors
///
/// Any I/O failure of the underlying writer.
pub fn write_envelope<W: Write>(
    w: &mut W,
    magic: [u8; 8],
    payload: &[u8],
) -> Result<(), CheckpointError> {
    w.write_all(&magic)?;
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(&fnv1a_64(payload).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Reads and verifies an envelope written by [`write_envelope`],
/// returning the payload.
///
/// Rejects wrong magic, unsupported versions, truncation, checksum
/// mismatches, and trailing bytes after the payload — each as its own
/// [`CheckpointError`] variant. A hostile declared length does not
/// cause a huge allocation: the buffer grows only as real bytes arrive.
///
/// # Errors
///
/// See [`CheckpointError`].
pub fn read_envelope<R: Read>(r: &mut R, magic: [u8; 8]) -> Result<Vec<u8>, CheckpointError> {
    let mut header = [0u8; 8];
    read_exact_or_truncated(r, &mut header)?;
    if header[..4] != magic[..4] || header[5..] != magic[5..] {
        return Err(CheckpointError::BadMagic);
    }
    if header[4] != magic[4] {
        return Err(CheckpointError::UnsupportedVersion(header[4]));
    }
    let mut word = [0u8; 8];
    read_exact_or_truncated(r, &mut word)?;
    let declared = u64::from_le_bytes(word);
    read_exact_or_truncated(r, &mut word)?;
    let stored = u64::from_le_bytes(word);

    let mut payload = Vec::new();
    r.take(declared).read_to_end(&mut payload)?;
    if (payload.len() as u64) < declared {
        return Err(CheckpointError::Truncated);
    }
    let computed = fnv1a_64(&payload);
    if computed != stored {
        return Err(CheckpointError::ChecksumMismatch { stored, computed });
    }
    let mut probe = [0u8; 1];
    if r.read(&mut probe)? != 0 {
        return Err(CheckpointError::Corrupt("trailing bytes after payload"));
    }
    Ok(payload)
}

fn read_exact_or_truncated<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), CheckpointError> {
    r.read_exact(buf).map_err(CheckpointError::from)
}

/// A position-independent fingerprint of a trace: FNV-1a over its
/// length and every record's `(node, op, addr)`. A checkpoint of a
/// materialized run stores it, so resuming against a different trace is
/// refused.
pub fn trace_fingerprint(trace: &Trace) -> u64 {
    let h = fnv1a_64(&(trace.len() as u64).to_le_bytes());
    trace.iter().fold(h, fnv1a_record)
}

/// The probe fingerprint identifying a stream's underlying trace: FNV-1a
/// over the total record count and up to 64 `(index, node, op, addr)`
/// probes at evenly spaced absolute indices, first and last included.
/// Any shard filter on `stream` is ignored — identity belongs to the
/// underlying trace.
///
/// O(64) for any trace length; collisions require agreeing on the count
/// *and* all sampled records, which no accidental corruption (and no
/// honest re-configuration mistake) does.
///
/// # Errors
///
/// [`ReadTraceError`] when a probe cannot be read.
pub fn stream_fingerprint(stream: &TraceStream) -> Result<u64, ReadTraceError> {
    let full = stream.unfiltered();
    let total = full.len();
    let mut h = fnv1a_64(&total.to_le_bytes());
    let probes = 64u64.min(total);
    for k in 0..probes {
        let i = if probes == 1 {
            0
        } else {
            ((u128::from(k) * u128::from(total - 1)) / u128::from(probes - 1)) as u64
        };
        h = fnv1a_record(fnv1a_extend(h, &i.to_le_bytes()), &full.record_at(i)?);
    }
    Ok(h)
}

// ---------------------------------------------------------------------
// Engine snapshots
// ---------------------------------------------------------------------

/// The complete replayable state of one engine at a record boundary.
///
/// Captured by [`Engine::snapshot`](crate::Engine::snapshot) on either
/// engine (the two capture byte-identical snapshots of the same state),
/// restored by [`EngineSnapshot::restore`]; an engine restored from a
/// snapshot processes the remaining references exactly as the original
/// would have. Cache lines are stored least-recently-used first (see
/// [`Cache::snapshot_lines`](mcc_cache::Cache::snapshot_lines)), so
/// finite-cache replacement decisions survive the round trip; maps are
/// stored sorted by block index, so identical states serialize to
/// identical bytes.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineSnapshot {
    pub(crate) rwitm: bool,
    pub(crate) steps: u64,
    pub(crate) injector_rng: Option<u64>,
    pub(crate) messages: MessageBreakdown,
    pub(crate) events: EventCounts,
    /// Per node, `(block index, line state, version)` in restore order.
    pub(crate) caches: Vec<Vec<(u64, LineState, u64)>>,
    pub(crate) dir: Vec<(u64, DirEntry)>,
    pub(crate) mem_version: Vec<(u64, u64)>,
    pub(crate) latest: Vec<(u64, u64)>,
}

impl EngineSnapshot {
    /// Rebuilds an engine that will continue exactly where the captured
    /// one left off.
    ///
    /// `protocol`, `config`, and `placement` must be the ones the
    /// original engine was built with; `faults` is the plan whose
    /// injector position was captured (`None` if the original ran
    /// reliable).
    ///
    /// # Errors
    ///
    /// [`SimError::BadCheckpoint`] when the snapshot cannot describe an
    /// engine of this configuration (wrong node count, directory rows
    /// out of block order, a cache line listed twice, rows the
    /// invariant sweep of [`Engine::sweep`](crate::Engine::sweep)
    /// refuses or with a copy behind its block's latest write, lines
    /// that do not fit the cache geometry, fault-plan presence
    /// mismatch).
    pub fn restore(
        &self,
        protocol: Protocol,
        config: &DirectorySimConfig,
        placement: PagePlacement,
        faults: Option<FaultPlan>,
    ) -> Result<DirectoryEngine, SimError> {
        DirectoryEngine::from_snapshot(self, protocol, config, placement, faults)
            .map_err(|reason| SimError::BadCheckpoint { reason })
    }

    /// References the captured engine had processed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Serializes the snapshot into a payload under construction.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(u8::from(self.rwitm));
        put_u64(out, self.steps);
        match self.injector_rng {
            Some(state) => {
                out.push(1);
                put_u64(out, state);
            }
            None => out.push(0),
        }
        for c in [
            self.messages.read_miss,
            self.messages.write_miss,
            self.messages.write_hit,
            self.messages.eviction,
            self.messages.nacks,
            self.messages.retries,
        ] {
            put_u64(out, c.control);
            put_u64(out, c.data);
        }
        for v in event_fields(&self.events) {
            put_u64(out, v);
        }
        put_u16(out, self.caches.len() as u16);
        for lines in &self.caches {
            put_u64(out, lines.len() as u64);
            for &(block, state, version) in lines {
                put_u64(out, block);
                out.push(line_state_tag(state));
                put_u64(out, version);
            }
        }
        put_u64(out, self.dir.len() as u64);
        for &(block, ref e) in &self.dir {
            put_u64(out, block);
            let words = e.copyset.to_words();
            put_u16(out, words.len() as u16);
            for w in words {
                put_u64(out, w);
            }
            out.push(match e.created {
                CopiesCreated::Zero => 0,
                CopiesCreated::One => 1,
                CopiesCreated::Two => 2,
                CopiesCreated::ThreeOrMore => 3,
            });
            out.push(u8::from(e.migratory));
            out.push(u8::from(e.dirty));
            match e.last_invalidator {
                Some(n) => {
                    out.push(1);
                    put_u16(out, n.index() as u16);
                }
                None => {
                    out.push(0);
                    put_u16(out, 0);
                }
            }
            out.push(e.evidence);
            out.push(u8::from(e.overflowed));
        }
        for map in [&self.mem_version, &self.latest] {
            put_u64(out, map.len() as u64);
            for &(block, version) in map {
                put_u64(out, block);
                put_u64(out, version);
            }
        }
    }

    /// Decodes a snapshot from a payload reader.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] or [`CheckpointError::Corrupt`]
    /// on malformed input; never panics.
    pub fn decode(r: &mut PayloadReader<'_>) -> Result<EngineSnapshot, CheckpointError> {
        let rwitm = decode_bool(r.u8()?)?;
        let steps = r.u64()?;
        let injector_rng = match r.u8()? {
            0 => None,
            1 => Some(r.u64()?),
            _ => return Err(CheckpointError::Corrupt("bad injector presence tag")),
        };
        let mut counts = [crate::msg::MessageCount::ZERO; 6];
        for c in &mut counts {
            c.control = r.u64()?;
            c.data = r.u64()?;
        }
        let messages = MessageBreakdown {
            read_miss: counts[0],
            write_miss: counts[1],
            write_hit: counts[2],
            eviction: counts[3],
            nacks: counts[4],
            retries: counts[5],
        };
        let mut ev = [0u64; 18];
        for v in &mut ev {
            *v = r.u64()?;
        }
        let events = events_from_fields(&ev);
        let nodes = r.u16()?;
        let mut caches = Vec::with_capacity(usize::from(nodes));
        for _ in 0..nodes {
            let lines = r.u64()?;
            let lines = r.check_count(lines, 17)?;
            let mut v = Vec::with_capacity(lines);
            for _ in 0..lines {
                let block = r.u64()?;
                let state = line_state_from_tag(r.u8()?)?;
                let version = r.u64()?;
                v.push((block, state, version));
            }
            caches.push(v);
        }
        let entries = r.u64()?;
        let entries = r.check_count(entries, 18)?;
        let mut dir = Vec::with_capacity(entries);
        for _ in 0..entries {
            let block = r.u64()?;
            let word_count = r.u16()?;
            // 1024 words cover the u16 node-id space (65 536 nodes);
            // anything longer cannot describe a valid machine.
            if word_count > 1024 {
                return Err(CheckpointError::Corrupt("copyset word list too long"));
            }
            let mut words = Vec::with_capacity(usize::from(word_count));
            for _ in 0..word_count {
                words.push(r.u64()?);
            }
            let copyset = CopySet::from_words(&words);
            let created = match r.u8()? {
                0 => CopiesCreated::Zero,
                1 => CopiesCreated::One,
                2 => CopiesCreated::Two,
                3 => CopiesCreated::ThreeOrMore,
                _ => return Err(CheckpointError::Corrupt("bad copies-created tag")),
            };
            let migratory = decode_bool(r.u8()?)?;
            let dirty = decode_bool(r.u8()?)?;
            let has_invalidator = decode_bool(r.u8()?)?;
            let invalidator = r.u16()?;
            let last_invalidator = has_invalidator.then(|| NodeId::new(invalidator));
            let evidence = r.u8()?;
            let overflowed = decode_bool(r.u8()?)?;
            dir.push((
                block,
                DirEntry {
                    copyset,
                    created,
                    migratory,
                    dirty,
                    last_invalidator,
                    evidence,
                    overflowed,
                },
            ));
        }
        let mut maps = Vec::with_capacity(2);
        for _ in 0..2 {
            let n = r.u64()?;
            let n = r.check_count(n, 16)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push((r.u64()?, r.u64()?));
            }
            maps.push(v);
        }
        let latest = maps.pop().expect("two maps decoded");
        let mem_version = maps.pop().expect("two maps decoded");
        Ok(EngineSnapshot {
            rwitm,
            steps,
            injector_rng,
            messages,
            events,
            caches,
            dir,
            mem_version,
            latest,
        })
    }
}

fn decode_bool(b: u8) -> Result<bool, CheckpointError> {
    match b {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CheckpointError::Corrupt("bad boolean tag")),
    }
}

const fn line_state_tag(s: LineState) -> u8 {
    match s {
        LineState::Shared => 0,
        LineState::Exclusive => 1,
        LineState::MigratoryClean => 2,
        LineState::Dirty => 3,
    }
}

fn line_state_from_tag(tag: u8) -> Result<LineState, CheckpointError> {
    match tag {
        0 => Ok(LineState::Shared),
        1 => Ok(LineState::Exclusive),
        2 => Ok(LineState::MigratoryClean),
        3 => Ok(LineState::Dirty),
        _ => Err(CheckpointError::Corrupt("bad line-state tag")),
    }
}

fn event_fields(e: &EventCounts) -> [u64; 18] {
    [
        e.read_hits,
        e.silent_write_hits,
        e.write_grants_used,
        e.exclusive_upgrades,
        e.shared_upgrades,
        e.read_misses,
        e.write_misses,
        e.migrations,
        e.replications,
        e.invalidations,
        e.clean_drops,
        e.writebacks,
        e.became_migratory,
        e.became_other,
        e.broadcast_invalidations,
        e.nacks,
        e.retries,
        e.backoff_units,
    ]
}

fn events_from_fields(v: &[u64; 18]) -> EventCounts {
    EventCounts {
        read_hits: v[0],
        silent_write_hits: v[1],
        write_grants_used: v[2],
        exclusive_upgrades: v[3],
        shared_upgrades: v[4],
        read_misses: v[5],
        write_misses: v[6],
        migrations: v[7],
        replications: v[8],
        invalidations: v[9],
        clean_drops: v[10],
        writebacks: v[11],
        became_migratory: v[12],
        became_other: v[13],
        broadcast_invalidations: v[14],
        nacks: v[15],
        retries: v[16],
        backoff_units: v[17],
    }
}

// ---------------------------------------------------------------------
// Protocol / configuration / fault-plan wire forms
// ---------------------------------------------------------------------

pub(crate) fn encode_protocol(out: &mut Vec<u8>, p: Protocol) {
    match p {
        Protocol::Conventional => out.push(0),
        Protocol::Conservative => out.push(1),
        Protocol::Basic => out.push(2),
        Protocol::Aggressive => out.push(3),
        Protocol::PureMigratory => out.push(4),
        Protocol::Custom(policy) => {
            out.push(5);
            out.push(u8::from(policy.initial_migratory));
            out.push(policy.events_required);
            out.push(u8::from(policy.remember_when_uncached));
            out.push(u8::from(policy.demote_on_write_miss));
        }
    }
}

pub(crate) fn decode_protocol(r: &mut PayloadReader<'_>) -> Result<Protocol, CheckpointError> {
    Ok(match r.u8()? {
        0 => Protocol::Conventional,
        1 => Protocol::Conservative,
        2 => Protocol::Basic,
        3 => Protocol::Aggressive,
        4 => Protocol::PureMigratory,
        5 => Protocol::Custom(AdaptivePolicy {
            initial_migratory: decode_bool(r.u8()?)?,
            events_required: r.u8()?,
            remember_when_uncached: decode_bool(r.u8()?)?,
            demote_on_write_miss: decode_bool(r.u8()?)?,
        }),
        _ => return Err(CheckpointError::Corrupt("bad protocol tag")),
    })
}

pub(crate) fn encode_config(out: &mut Vec<u8>, c: &DirectorySimConfig) {
    put_u16(out, c.nodes);
    out.push(c.block_size.log2() as u8);
    match c.cache {
        CacheConfig::Infinite => out.push(0),
        CacheConfig::Finite(g) => {
            out.push(1);
            put_u64(out, g.size_bytes());
            put_u32(out, g.associativity());
        }
    }
    out.push(match c.placement {
        PlacementPolicy::RoundRobin => 0,
        PlacementPolicy::FirstTouch => 1,
        PlacementPolicy::Profiled => 2,
    });
    match c.directory {
        DirectoryRepr::FullMap => {
            out.push(0);
            out.push(0);
        }
        DirectoryRepr::LimitedPointer { pointers } => {
            out.push(1);
            out.push(pointers);
        }
        DirectoryRepr::CoarseVector { region_size } => {
            out.push(2);
            put_u16(out, region_size);
        }
        DirectoryRepr::Sparse {
            pointers,
            region_size,
        } => {
            out.push(3);
            out.push(pointers);
            put_u16(out, region_size);
        }
    }
}

pub(crate) fn decode_config(
    r: &mut PayloadReader<'_>,
) -> Result<DirectorySimConfig, CheckpointError> {
    let nodes = r.u16()?;
    let block_size = BlockSize::new(1u64 << r.u8()?.min(63))
        .ok_or(CheckpointError::Corrupt("bad block size"))?;
    let cache = match r.u8()? {
        0 => CacheConfig::Infinite,
        1 => {
            let size_bytes = r.u64()?;
            let associativity = r.u32()?;
            CacheConfig::Finite(
                CacheGeometry::new(size_bytes, block_size, associativity)
                    .map_err(|_| CheckpointError::Corrupt("impossible cache geometry"))?,
            )
        }
        _ => return Err(CheckpointError::Corrupt("bad cache tag")),
    };
    let placement = match r.u8()? {
        0 => PlacementPolicy::RoundRobin,
        1 => PlacementPolicy::FirstTouch,
        2 => PlacementPolicy::Profiled,
        _ => return Err(CheckpointError::Corrupt("bad placement tag")),
    };
    let directory = match r.u8()? {
        0 => {
            r.u8()?; // padding byte
            DirectoryRepr::FullMap
        }
        1 => DirectoryRepr::LimitedPointer { pointers: r.u8()? },
        2 => DirectoryRepr::CoarseVector {
            region_size: r.u16()?,
        },
        3 => DirectoryRepr::Sparse {
            pointers: r.u8()?,
            region_size: r.u16()?,
        },
        _ => return Err(CheckpointError::Corrupt("bad directory tag")),
    };
    Ok(DirectorySimConfig {
        nodes,
        block_size,
        cache,
        placement,
        directory,
    })
}

pub(crate) fn encode_fault_plan(out: &mut Vec<u8>, plan: Option<&FaultPlan>) {
    match plan {
        None => out.push(0),
        Some(p) => {
            out.push(1);
            put_u64(out, p.seed);
            for rates in [p.request, p.response, p.invalidation] {
                put_u32(out, rates.drop_ppm);
                put_u32(out, rates.nack_ppm);
                put_u32(out, rates.delay_ppm);
                put_u32(out, rates.duplicate_ppm);
            }
            put_u32(out, p.max_retries);
            put_u64(out, p.max_total_backoff);
        }
    }
}

pub(crate) fn decode_fault_plan(
    r: &mut PayloadReader<'_>,
) -> Result<Option<FaultPlan>, CheckpointError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let seed = r.u64()?;
            let mut rates = [FaultRates::RELIABLE; 3];
            for x in &mut rates {
                x.drop_ppm = r.u32()?;
                x.nack_ppm = r.u32()?;
                x.delay_ppm = r.u32()?;
                x.duplicate_ppm = r.u32()?;
            }
            Ok(Some(FaultPlan {
                seed,
                request: rates[0],
                response: rates[1],
                invalidation: rates[2],
                max_retries: r.u32()?,
                max_total_backoff: r.u64()?,
            }))
        }
        _ => Err(CheckpointError::Corrupt("bad fault-plan presence tag")),
    }
}

// ---------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------

/// One shard's progress: the absolute source index below which every
/// record the shard owns has been applied, and the engine state there.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardSnapshot {
    pub(crate) cursor: u64,
    pub(crate) engine: EngineSnapshot,
}

impl ShardSnapshot {
    /// Absolute record index the shard resumes from.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }
}

/// A complete, resumable snapshot of a directory simulation in flight.
///
/// Written by runs with a [`CheckpointPolicy`] and by
/// [`DirectorySim::checkpoint_after`]; resumed through
/// [`DirectorySim::execute`]. Carries the run's identity (protocol,
/// configuration, fault plan, shard count, source length and
/// fingerprint) so a snapshot cannot be silently applied to the wrong
/// run.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    pub(crate) protocol: Protocol,
    pub(crate) config: DirectorySimConfig,
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) total: u64,
    pub(crate) identity: u64,
    pub(crate) shards: Vec<ShardSnapshot>,
}

impl Checkpoint {
    /// Number of shards the run was partitioned into (1 = sequential).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard progress snapshots.
    pub fn shards(&self) -> &[ShardSnapshot] {
        &self.shards
    }

    /// Total records in the snapshotted run's source.
    pub fn total_records(&self) -> u64 {
        self.total
    }

    /// Whether every shard has consumed the whole source (resuming
    /// replays nothing).
    pub fn is_complete(&self) -> bool {
        self.shards.iter().all(|s| s.cursor == self.total)
    }

    /// Serializes the checkpoint to a writer.
    ///
    /// # Errors
    ///
    /// Any I/O failure of the writer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), CheckpointError> {
        let mut payload = Vec::new();
        encode_protocol(&mut payload, self.protocol);
        encode_config(&mut payload, &self.config);
        encode_fault_plan(&mut payload, self.faults.as_ref());
        put_u64(&mut payload, self.total);
        put_u64(&mut payload, self.identity);
        put_u32(&mut payload, self.shards.len() as u32);
        for s in &self.shards {
            put_u64(&mut payload, s.cursor);
            s.engine.encode_into(&mut payload);
        }
        write_envelope(w, CHECKPOINT_MAGIC, &payload)
    }

    /// Deserializes a checkpoint from a reader, verifying magic,
    /// version, length, and checksum.
    ///
    /// # Errors
    ///
    /// A typed [`CheckpointError`] for every way the input can be
    /// malformed; never panics.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Checkpoint, CheckpointError> {
        let payload = read_envelope(r, CHECKPOINT_MAGIC)?;
        let mut r = PayloadReader::new(&payload);
        let protocol = decode_protocol(&mut r)?;
        let config = decode_config(&mut r)?;
        let faults = decode_fault_plan(&mut r)?;
        let total = r.u64()?;
        let identity = r.u64()?;
        let count = r.u32()?;
        let count = r.check_count(u64::from(count), 8)?;
        let mut shards = Vec::with_capacity(count);
        for _ in 0..count {
            let cursor = r.u64()?;
            let engine = EngineSnapshot::decode(&mut r)?;
            if cursor > total {
                return Err(CheckpointError::Corrupt("cursor beyond source length"));
            }
            // A shard steps only the records it owns, so its step count
            // is bounded by — not equal to — the cursor.
            if engine.steps > cursor {
                return Err(CheckpointError::Corrupt("engine steps beyond cursor"));
            }
            shards.push(ShardSnapshot { cursor, engine });
        }
        if shards.is_empty() {
            return Err(CheckpointError::Corrupt("checkpoint with zero shards"));
        }
        r.finish()?;
        Ok(Checkpoint {
            protocol,
            config,
            faults,
            total,
            identity,
            shards,
        })
    }

    /// Writes the checkpoint to `path` durably and atomically, keeping
    /// the previous generation at `path.prev` as a fallback (the
    /// last-good generation [`Checkpoint::load_with_fallback`] recovers
    /// from when the newest snapshot turns out corrupt). See
    /// [`save_rotating`] for the crash ordering.
    ///
    /// # Errors
    ///
    /// Any filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        self.save_with(&RealStorage, path)
    }

    /// [`Checkpoint::save`] through an explicit [`Storage`] — the
    /// fault-injection seam the torture harness drives.
    ///
    /// # Errors
    ///
    /// Any storage failure (including injected ones).
    pub fn save_with<S: Storage + ?Sized>(
        &self,
        storage: &S,
        path: &Path,
    ) -> Result<(), CheckpointError> {
        let mut bytes = Vec::new();
        self.write_to(&mut bytes)?;
        save_rotating(storage, path, &bytes).map_err(CheckpointError::from)
    }

    /// Reads a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// See [`Checkpoint::read_from`]; file-open failures surface as
    /// [`CheckpointError::Io`].
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        Checkpoint::load_from(&RealStorage, path)
    }

    /// [`Checkpoint::load`] through an explicit [`Storage`].
    ///
    /// # Errors
    ///
    /// As for [`Checkpoint::load`].
    pub fn load_from<S: Storage + ?Sized>(
        storage: &S,
        path: &Path,
    ) -> Result<Checkpoint, CheckpointError> {
        let bytes = storage.read(path).map_err(CheckpointError::Io)?;
        Checkpoint::read_from(&mut bytes.as_slice())
    }

    /// Loads `path`, falling back to the rotated `path.prev` when the
    /// newest snapshot is missing or corrupt in any way
    /// ([`Checkpoint::read_from`]'s whole taxonomy). The result says
    /// which generation was used and, on fallback, why the newest one
    /// was rejected — so supervisors can report the degradation
    /// instead of silently rewinding.
    ///
    /// # Errors
    ///
    /// The *primary* snapshot's error, when neither generation loads.
    pub fn load_with_fallback(path: &Path) -> Result<RecoveredCheckpoint, CheckpointError> {
        Checkpoint::load_with_fallback_from(&RealStorage, path)
    }

    /// [`Checkpoint::load_with_fallback`] through an explicit
    /// [`Storage`].
    ///
    /// # Errors
    ///
    /// As for [`Checkpoint::load_with_fallback`].
    pub fn load_with_fallback_from<S: Storage + ?Sized>(
        storage: &S,
        path: &Path,
    ) -> Result<RecoveredCheckpoint, CheckpointError> {
        let primary = match Checkpoint::load_from(storage, path) {
            Ok(checkpoint) => {
                return Ok(RecoveredCheckpoint {
                    checkpoint,
                    generation: SnapshotGeneration::Current,
                    primary_error: None,
                })
            }
            Err(e) => e,
        };
        match Checkpoint::load_from(storage, &prev_path(path)) {
            Ok(checkpoint) => Ok(RecoveredCheckpoint {
                checkpoint,
                generation: SnapshotGeneration::Previous,
                primary_error: Some(primary),
            }),
            Err(_) => Err(primary),
        }
    }
}

/// Which snapshot generation [`Checkpoint::load_with_fallback`]
/// recovered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotGeneration {
    /// The newest snapshot (`path`) loaded cleanly.
    Current,
    /// The newest snapshot was unusable; the rotated last-good
    /// (`path.prev`) loaded instead.
    Previous,
}

impl fmt::Display for SnapshotGeneration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotGeneration::Current => write!(f, "snapshot"),
            SnapshotGeneration::Previous => write!(f, "snapshot-prev"),
        }
    }
}

/// A checkpoint recovered by [`Checkpoint::load_with_fallback`], with
/// the provenance a supervisor needs to report honestly.
#[derive(Debug)]
pub struct RecoveredCheckpoint {
    /// The usable checkpoint.
    pub checkpoint: Checkpoint,
    /// Which generation it came from.
    pub generation: SnapshotGeneration,
    /// Why the newest snapshot was rejected, when `generation` is
    /// [`SnapshotGeneration::Previous`].
    pub primary_error: Option<CheckpointError>,
}

/// Writes `bytes` to `path` durably and atomically, rotating an
/// existing `path` to [`prev_path`] — the one crash-ordered save every
/// snapshot writer (MCCK and MCCX checkpoints, live shard snapshots)
/// goes through:
///
/// 1. [`stage_tmp`]: the bytes land in a sibling `.tmp` file, which is
///    fsynced;
/// 2. an existing `path` is renamed to `path.prev`;
/// 3. [`commit_tmp`]: the temp file is renamed into place and the
///    parent directory is fsynced, making the whole sequence durable.
///
/// A power cut at *any* point leaves either the new snapshot, the
/// previous one at `path` or `path.prev`, or both — never only a torn
/// file.
///
/// # Errors
///
/// Any storage failure (including injected ones).
pub fn save_rotating<S: Storage + ?Sized>(
    storage: &S,
    path: &Path,
    bytes: &[u8],
) -> io::Result<()> {
    let tmp = stage_tmp(storage, path, bytes)?;
    if storage.exists(path) {
        storage.rename(path, &prev_path(path))?;
    }
    commit_tmp(storage, &tmp, path)
}

/// The first half of a crash-ordered replacement of `path`: writes
/// `bytes` to its `.tmp` sibling and fsyncs it, leaving `path` itself
/// untouched. Returns the sibling for [`commit_tmp`].
///
/// # Errors
///
/// Any storage failure (including injected ones).
pub fn stage_tmp<S: Storage + ?Sized>(
    storage: &S,
    path: &Path,
    bytes: &[u8],
) -> io::Result<PathBuf> {
    let tmp = sibling(path, ".tmp");
    storage.write_file(&tmp, bytes)?;
    storage.sync(&tmp)?;
    Ok(tmp)
}

/// The second half: renames the fsynced `tmp` over `path`, then fsyncs
/// the parent directory so the rename itself is durable.
///
/// # Errors
///
/// Any storage failure (including injected ones).
pub fn commit_tmp<S: Storage + ?Sized>(storage: &S, tmp: &Path, path: &Path) -> io::Result<()> {
    storage.rename(tmp, path)?;
    storage.sync_parent(path)
}

/// The rotated last-good sibling of a snapshot path (`x.ckpt` ↔
/// `x.ckpt.prev`).
pub fn prev_path(path: &Path) -> PathBuf {
    sibling(path, ".prev")
}

/// `path` with `suffix` appended to its file name.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(suffix);
    path.with_file_name(name)
}

/// When and where a run writes snapshots ([`crate::RunSpec::checkpoint`]).
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Snapshot whenever a shard reaches a multiple of `every` absolute
    /// records, so resumed runs checkpoint at the same boundaries. `0`
    /// disables periodic snapshots; the final complete snapshot is
    /// still written.
    pub every: u64,
    /// File the snapshot is (atomically) written to.
    pub path: PathBuf,
}

impl CheckpointPolicy {
    /// Snapshot every `every` records into `path`.
    pub fn new(every: u64, path: impl Into<PathBuf>) -> Self {
        CheckpointPolicy {
            every,
            path: path.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::SimResult;
    use crate::run::RunSpec;
    use crate::sim::DirectorySim;
    use mcc_trace::{Addr, MemRef};

    fn small_trace() -> Trace {
        let mut t = Trace::new();
        for round in 0..30u64 {
            for obj in 0..6u64 {
                let node = NodeId::new(((round + obj) % 4) as u16);
                let addr = Addr::new(obj * 64);
                t.push(MemRef::read(node, addr));
                t.push(MemRef::write(node, addr));
            }
        }
        t
    }

    fn config() -> DirectorySimConfig {
        DirectorySimConfig {
            nodes: 4,
            ..DirectorySimConfig::default()
        }
    }

    fn resume(sim: &DirectorySim, trace: &Trace, ck: &Checkpoint) -> Result<SimResult, SimError> {
        let spec = RunSpec {
            shards: ck.shard_count(),
            resume: Some(ck),
            ..RunSpec::default()
        };
        sim.execute(trace, &spec)?.merged()
    }

    #[test]
    fn checkpoint_roundtrips_through_bytes() {
        let trace = small_trace();
        let sim = DirectorySim::new(Protocol::Aggressive, &config())
            .with_faults(FaultPlan::uniform(5, 40_000));
        let ckpt = sim.checkpoint_after(&trace, 1, 100).unwrap();
        let mut bytes = Vec::new();
        ckpt.write_to(&mut bytes).unwrap();
        let back = Checkpoint::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.shards()[0].cursor(), 100);
        assert_eq!(back.total_records(), trace.len() as u64);
        assert!(!back.is_complete());
    }

    #[test]
    fn resume_matches_straight_run_at_a_boundary() {
        let trace = small_trace();
        for shards in [1usize, 3] {
            let sim = DirectorySim::new(Protocol::Basic, &config());
            let spec = RunSpec {
                shards,
                ..RunSpec::default()
            };
            let straight = sim.execute(&trace, &spec).unwrap().merged().unwrap();
            let ckpt = sim.checkpoint_after(&trace, shards, 77).unwrap();
            assert_eq!(
                resume(&sim, &trace, &ckpt).unwrap(),
                straight,
                "{shards} shards"
            );
        }
    }

    #[test]
    fn resume_rejects_the_wrong_identity() {
        let trace = small_trace();
        let sim = DirectorySim::new(Protocol::Basic, &config());
        let ckpt = sim.checkpoint_after(&trace, 1, 50).unwrap();

        let other = DirectorySim::new(Protocol::Conventional, &config());
        match resume(&other, &trace, &ckpt) {
            Err(SimError::BadCheckpoint { reason }) => {
                assert!(reason.contains("protocol"), "{reason}");
            }
            other => panic!("expected BadCheckpoint, got {other:?}"),
        }

        let mut tampered = trace.clone();
        tampered.push(MemRef::read(NodeId::new(0), Addr::new(0x7777)));
        match resume(&sim, &tampered, &ckpt) {
            Err(SimError::BadCheckpoint { reason }) => {
                assert!(reason.contains("records"), "{reason}");
            }
            other => panic!("expected BadCheckpoint, got {other:?}"),
        }

        // Same length, one record changed: only the fingerprint differs.
        let edited: Trace = trace
            .iter()
            .enumerate()
            .map(|(i, r)| {
                if i == 3 {
                    MemRef::write(NodeId::new(3), r.addr)
                } else {
                    *r
                }
            })
            .collect();
        match resume(&sim, &edited, &ckpt) {
            Err(SimError::BadCheckpoint { reason }) => {
                assert!(reason.contains("fingerprint"), "{reason}");
            }
            other => panic!("expected BadCheckpoint, got {other:?}"),
        }
    }

    #[test]
    fn resume_rejects_a_mismatched_shard_count() {
        let trace = small_trace();
        let sim = DirectorySim::new(Protocol::Basic, &config());
        let ckpt = sim.checkpoint_after(&trace, 2, 40).unwrap();
        let spec = RunSpec {
            shards: 3,
            resume: Some(&ckpt),
            ..RunSpec::default()
        };
        match sim.execute(&trace, &spec) {
            Err(SimError::BadCheckpoint { reason }) => {
                assert!(reason.contains("shards"), "{reason}")
            }
            other => panic!("expected BadCheckpoint, got {other:?}"),
        }
    }

    #[test]
    fn checkpointed_run_writes_a_loadable_final_checkpoint() {
        let trace = small_trace();
        let path = std::env::temp_dir().join(format!(
            "mcc-ckpt-test-{}-{}.mcck",
            std::process::id(),
            line!()
        ));
        let sim = DirectorySim::new(Protocol::Conservative, &config());
        let policy = CheckpointPolicy::new(64, &path);
        let spec = RunSpec {
            checkpoint: Some(&policy),
            ..RunSpec::default()
        };
        let result = sim.execute(&trace, &spec).unwrap().merged().unwrap();
        assert_eq!(result, sim.try_run(&trace).unwrap());

        let ckpt = Checkpoint::load(&path).unwrap();
        assert!(ckpt.is_complete());
        // Resuming a complete checkpoint replays nothing and agrees.
        assert_eq!(resume(&sim, &trace, &ckpt).unwrap(), result);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(prev_path(&path)).ok();
    }

    #[test]
    fn fingerprints_distinguish_sources() {
        let a = small_trace();
        let mut b = small_trace();
        b.push(MemRef::write(NodeId::new(1), Addr::new(64)));
        assert_ne!(trace_fingerprint(&a), trace_fingerprint(&b));
        assert_eq!(trace_fingerprint(&a), trace_fingerprint(&small_trace()));

        let records: Vec<MemRef> = a.iter().copied().collect();
        let stream =
            TraceStream::from_generator(records.len() as u64, move |i| records[i as usize]);
        let fa = stream_fingerprint(&stream).unwrap();
        let filtered = stream.clone().with_shard_filter(BlockSize::B16, 0, 4);
        assert_eq!(fa, stream_fingerprint(&filtered).unwrap());
        let last = TraceStream::from_generator(a.len() as u64, move |i| {
            MemRef::write(NodeId::new(7), Addr::new(i * 16))
        });
        assert_ne!(fa, stream_fingerprint(&last).unwrap());
    }

    #[test]
    fn envelope_rejects_tampering_with_typed_errors() {
        let trace = small_trace();
        let sim = DirectorySim::new(Protocol::Basic, &config());
        let ckpt = sim.checkpoint_after(&trace, 1, 10).unwrap();
        let mut bytes = Vec::new();
        ckpt.write_to(&mut bytes).unwrap();

        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            Checkpoint::read_from(&mut bad.as_slice()),
            Err(CheckpointError::BadMagic)
        ));

        // Wrong version.
        let mut bad = bytes.clone();
        bad[4] = 9;
        assert!(matches!(
            Checkpoint::read_from(&mut bad.as_slice()),
            Err(CheckpointError::UnsupportedVersion(9))
        ));

        // Truncation.
        let bad = &bytes[..bytes.len() - 1];
        assert!(matches!(
            Checkpoint::read_from(&mut &bad[..]),
            Err(CheckpointError::Truncated)
        ));

        // Payload bit flip.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(matches!(
            Checkpoint::read_from(&mut bad.as_slice()),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));

        // Trailing garbage after the payload.
        let mut bad = bytes.clone();
        bad.push(0xEE);
        assert!(matches!(
            Checkpoint::read_from(&mut bad.as_slice()),
            Err(CheckpointError::Corrupt(_))
        ));
    }
}
