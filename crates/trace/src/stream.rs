//! Out-of-core trace streaming.
//!
//! [`Trace::read_from`] materializes every record before the first one
//! can be simulated — at 11 bytes a record, a billion-reference trace
//! is 11 GB of RSS before the simulator even starts. [`TraceStream`]
//! instead describes *where the records come from* and hands out
//! cheap, restartable passes over them: records are decoded in fixed
//! 64 KB chunks and yielded one at a time, so memory stays bounded no
//! matter how long the trace is.
//!
//! A stream is **re-openable**: every call to [`TraceStream::records`]
//! (or [`TraceStream::records_from`]) starts a fresh pass from a fresh
//! file handle, which is what lets a killed run re-open the same
//! stream and resume from an absolute record index in O(1) — a seek,
//! not a replay. Two sources exist:
//!
//! * **File** — an MCCT v2 (or legacy v1) trace on disk. The header's
//!   record count is validated against the file size *at open*, so a
//!   truncated or hostile file is rejected before any records flow.
//! * **Generator** — a pure function from record index to [`MemRef`].
//!   Synthetic workloads of any length cost no disk and no memory;
//!   index-addressability makes seeking trivial.
//!
//! Block-hash sharding composes on a stream: a
//! [`shard filter`](TraceStream::with_shard_filter) restricts a pass
//! to the records [`shard_of_block`] assigns to one shard while still
//! reporting each record's *absolute* index in the underlying trace —
//! so K filtered streams over the same source partition it exactly,
//! and checkpoint cadence can be phrased in absolute indices that mean
//! the same thing in every shard.

use std::fmt;
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::addr::BlockSize;
use crate::io::{ReadTraceError, RECORD_BYTES, TRACE_MAGIC, TRACE_MAGIC_V1};
use crate::record::MemRef;
use crate::shard::shard_of_block;
use crate::trace::Trace;

/// [`RECORD_BYTES`] as a file offset.
const RECORD_LEN: u64 = RECORD_BYTES as u64;

/// Chunk size for file-backed passes: records are decoded out of a
/// buffered reader of this capacity, never from a whole-file read.
const CHUNK_BYTES: usize = 64 * 1024;

/// A generator closure: record index in, record out. Must be pure —
/// the same index must always produce the same record, or resumed and
/// sharded passes disagree about the trace's contents.
type GeneratorFn = Arc<dyn Fn(u64) -> MemRef + Send + Sync>;

#[derive(Clone)]
enum Source {
    /// An MCCT trace on disk; `offset` is where the payload starts
    /// (16 for v2, 8 for legacy v1).
    File { path: PathBuf, offset: u64 },
    /// A pure index-to-record function.
    Generator(GeneratorFn),
}

/// Restriction of a pass to the records one block-hash shard owns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ShardFilter {
    block_size: BlockSize,
    shard: usize,
    shards: usize,
}

impl ShardFilter {
    fn admits(&self, r: &MemRef) -> bool {
        shard_of_block(r.addr.block(self.block_size), self.shards) == self.shard
    }
}

/// A re-openable, boundedly-buffered source of trace records.
///
/// DESIGN.md §16 describes the design; see [`TraceStream::records`]
/// for iteration.
///
/// # Examples
///
/// ```
/// use mcc_trace::{Addr, MemRef, NodeId, TraceStream};
///
/// // A ten-record synthetic trace that costs no memory.
/// let stream = TraceStream::from_generator(10, |i| {
///     MemRef::read(NodeId::new((i % 4) as u16), Addr::new(i * 16))
/// });
/// assert_eq!(stream.len(), 10);
/// let sum: u64 = stream
///     .records()
///     .unwrap()
///     .map(|r| r.unwrap().1.addr.get())
///     .sum();
/// assert_eq!(sum, 16 * (0..10u64).sum::<u64>());
/// ```
#[derive(Clone)]
pub struct TraceStream {
    source: Source,
    count: u64,
    filter: Option<ShardFilter>,
}

impl fmt::Debug for TraceStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("TraceStream");
        match &self.source {
            Source::File { path, offset } => {
                d.field("file", path).field("offset", offset);
            }
            Source::Generator(_) => {
                d.field("generator", &"<fn>");
            }
        }
        d.field("records", &self.count)
            .field("filter", &self.filter)
            .finish()
    }
}

impl TraceStream {
    /// Opens an MCCT trace file as a stream, validating the header and
    /// the file length without reading any records.
    ///
    /// For a v2 file the declared record count is authoritative and the
    /// file must hold exactly `16 + 11 * count` bytes: a shorter file is
    /// [`ReadTraceError::CountMismatch`] (or
    /// [`ReadTraceError::TruncatedRecord`] when the payload is not a
    /// whole number of records), a longer one
    /// [`ReadTraceError::TrailingBytes`]. A hostile count — one whose
    /// payload could not even be addressed in a `u64` — is rejected the
    /// same way, without allocating. Legacy v1 files (no count) derive
    /// their count from the file size.
    ///
    /// # Errors
    ///
    /// [`ReadTraceError`] when the file cannot be opened or is not a
    /// structurally valid MCCT trace.
    pub fn open(path: impl AsRef<Path>) -> Result<TraceStream, ReadTraceError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let size = file.metadata()?.len();
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                ReadTraceError::BadMagic
            } else {
                ReadTraceError::Io(e)
            }
        })?;
        let (offset, count) = if magic == TRACE_MAGIC {
            let mut count = [0u8; 8];
            file.read_exact(&mut count)
                .map_err(|_| ReadTraceError::TruncatedRecord)?;
            let declared = u64::from_le_bytes(count);
            let payload = size - 16;
            let whole = payload / RECORD_LEN;
            if payload % RECORD_LEN != 0 {
                return Err(if whole >= declared {
                    ReadTraceError::TrailingBytes { declared }
                } else {
                    ReadTraceError::TruncatedRecord
                });
            }
            // `declared * 11` may not even fit a u64 for a hostile
            // header; comparing record counts sidesteps the overflow.
            match whole.cmp(&declared) {
                std::cmp::Ordering::Less => {
                    return Err(ReadTraceError::CountMismatch {
                        declared,
                        read: whole,
                    })
                }
                std::cmp::Ordering::Greater => {
                    return Err(ReadTraceError::TrailingBytes { declared })
                }
                std::cmp::Ordering::Equal => {}
            }
            (16u64, declared)
        } else if magic == TRACE_MAGIC_V1 {
            let payload = size - 8;
            if payload % RECORD_LEN != 0 {
                return Err(ReadTraceError::TruncatedRecord);
            }
            (8u64, payload / RECORD_LEN)
        } else {
            return Err(ReadTraceError::BadMagic);
        };
        Ok(TraceStream {
            source: Source::File { path, offset },
            count,
            filter: None,
        })
    }

    /// Wraps a pure index-to-record function as a `count`-record
    /// stream.
    ///
    /// The function **must** be deterministic: passes may be restarted,
    /// sharded, and resumed, and every pass must see the same records.
    pub fn from_generator(
        count: u64,
        f: impl Fn(u64) -> MemRef + Send + Sync + 'static,
    ) -> TraceStream {
        TraceStream {
            source: Source::Generator(Arc::new(f)),
            count,
            filter: None,
        }
    }

    /// Total records in the **underlying** trace — the filter does not
    /// change this; absolute indices always range over `0..len()`.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether the underlying trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Restricts passes to the records [`shard_of_block`] (under
    /// `block_size`) assigns to `shard` of `shards`. Yielded records
    /// keep their absolute indices, so K filtered clones of the same
    /// stream partition it exactly.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `shard >= shards`.
    pub fn with_shard_filter(
        mut self,
        block_size: BlockSize,
        shard: usize,
        shards: usize,
    ) -> TraceStream {
        assert!(shards > 0, "shard count must be positive");
        assert!(shard < shards, "shard {shard} out of range for {shards}");
        self.filter = Some(ShardFilter {
            block_size,
            shard,
            shards,
        });
        self
    }

    /// The `(block_size, shard, shards)` filter, if one is set.
    pub fn shard_filter(&self) -> Option<(BlockSize, usize, usize)> {
        self.filter.map(|f| (f.block_size, f.shard, f.shards))
    }

    /// A clone of this stream without its shard filter — the full
    /// underlying trace, as placement profiling must see it.
    pub fn unfiltered(&self) -> TraceStream {
        let mut s = self.clone();
        s.filter = None;
        s
    }

    /// The record at absolute index `i`, independent of any pass —
    /// a seek for file sources, a call for generators. This is what
    /// makes cheap spot-validation of a resumed stream possible.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    ///
    /// # Errors
    ///
    /// [`ReadTraceError`] when the underlying file cannot be read or
    /// holds an invalid record.
    pub fn record_at(&self, i: u64) -> Result<MemRef, ReadTraceError> {
        assert!(i < self.count, "record {i} out of range ({})", self.count);
        match &self.source {
            Source::Generator(f) => Ok(f(i)),
            Source::File { path, offset } => {
                let mut file = File::open(path)?;
                file.seek(SeekFrom::Start(offset + i * RECORD_LEN))?;
                let mut buf = [0u8; RECORD_BYTES];
                file.read_exact(&mut buf)
                    .map_err(|_| ReadTraceError::TruncatedRecord)?;
                MemRef::from_bytes(&buf)
            }
        }
    }

    /// Starts a fresh pass over the (filtered) records from absolute
    /// index 0. Each item is `(absolute_index, record)`.
    ///
    /// # Errors
    ///
    /// [`ReadTraceError`] when a file source cannot be re-opened.
    pub fn records(&self) -> Result<Records<'_>, ReadTraceError> {
        self.records_from(0)
    }

    /// Starts a fresh pass from absolute record index `start` (clamped
    /// to the end of the trace): a seek for file sources, an index jump
    /// for generators — O(1) either way, which is what makes resuming
    /// from a checkpoint cheap. The shard filter still applies; indices
    /// yielded are absolute.
    ///
    /// # Errors
    ///
    /// [`ReadTraceError`] when a file source cannot be re-opened.
    pub fn records_from(&self, start: u64) -> Result<Records<'_>, ReadTraceError> {
        let start = start.min(self.count);
        let inner = match &self.source {
            Source::Generator(f) => Inner::Generator(f),
            Source::File { path, offset } => {
                let mut file = File::open(path)?;
                file.seek(SeekFrom::Start(offset + start * RECORD_LEN))?;
                Inner::File(BufReader::with_capacity(CHUNK_BYTES, file))
            }
        };
        Ok(Records {
            inner,
            next: start,
            count: self.count,
            filter: self.filter,
        })
    }

    /// Materializes the (filtered) stream into a [`Trace`] — the bridge
    /// back to the in-memory API, for traces known to fit.
    ///
    /// # Errors
    ///
    /// Any error the pass itself reports.
    pub fn collect_trace(&self) -> Result<Trace, ReadTraceError> {
        let mut t = Trace::new();
        for r in self.records()? {
            t.push(r?.1);
        }
        Ok(t)
    }

    /// Writes the (filtered) records as an MCCT v2 trace. Takes two
    /// passes — one to count, one to write — so the authoritative
    /// header count is exact even under a filter, and memory stays
    /// bounded.
    ///
    /// # Errors
    ///
    /// Any error the passes report, plus I/O errors from `writer`.
    pub fn write_to<W: std::io::Write>(&self, mut writer: W) -> Result<(), ReadTraceError> {
        let mut matching = 0u64;
        for r in self.records()? {
            r?;
            matching += 1;
        }
        writer.write_all(&TRACE_MAGIC)?;
        writer.write_all(&matching.to_le_bytes())?;
        for r in self.records()? {
            writer.write_all(&r?.1.to_bytes())?;
        }
        Ok(())
    }
}

enum Inner<'a> {
    File(BufReader<File>),
    Generator(&'a GeneratorFn),
}

/// One pass over a [`TraceStream`]'s records.
///
/// Yields `Result<(absolute_index, record), ReadTraceError>`; after the
/// first error the pass is fused (yields `None` forever).
pub struct Records<'a> {
    inner: Inner<'a>,
    next: u64,
    count: u64,
    filter: Option<ShardFilter>,
}

impl Records<'_> {
    fn read_one(&mut self) -> Result<MemRef, ReadTraceError> {
        let i = self.next;
        match &mut self.inner {
            Inner::Generator(f) => Ok(f(i)),
            Inner::File(reader) => {
                let mut buf = [0u8; RECORD_BYTES];
                reader.read_exact(&mut buf).map_err(|e| match e.kind() {
                    std::io::ErrorKind::UnexpectedEof => ReadTraceError::TruncatedRecord,
                    _ => ReadTraceError::Io(e),
                })?;
                MemRef::from_bytes(&buf)
            }
        }
    }
}

impl Iterator for Records<'_> {
    type Item = Result<(u64, MemRef), ReadTraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        while self.next < self.count {
            let i = self.next;
            match self.read_one() {
                Ok(r) => {
                    self.next += 1;
                    if self.filter.is_none_or(|f| f.admits(&r)) {
                        return Some(Ok((i, r)));
                    }
                }
                Err(e) => {
                    self.next = self.count; // fuse
                    return Some(Err(e));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::record::NodeId;
    use std::io::Write;

    fn sample() -> Trace {
        let mut t = Trace::new();
        for i in 0..500u64 {
            let node = NodeId::new((i % 16) as u16);
            let addr = Addr::new(i * 13 % 4096);
            t.push(if i % 3 == 0 {
                MemRef::write(node, addr)
            } else {
                MemRef::read(node, addr)
            });
        }
        t
    }

    fn write_tempfile(bytes: &[u8]) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "mcc-stream-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::SeqCst)
        ));
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        path
    }

    fn file_stream(t: &Trace) -> (TraceStream, PathBuf) {
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let path = write_tempfile(&buf);
        (TraceStream::open(&path).unwrap(), path)
    }

    #[test]
    fn file_pass_matches_materialized_read() {
        let t = sample();
        let (stream, path) = file_stream(&t);
        assert_eq!(stream.len(), t.len() as u64);
        let collected = stream.collect_trace().unwrap();
        assert_eq!(collected, t);
        // Indices are the record positions.
        for (want, got) in stream.records().unwrap().enumerate() {
            let (i, r) = got.unwrap();
            assert_eq!(i, want as u64);
            assert_eq!(r, t.as_slice()[want]);
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn generator_pass_is_deterministic_and_restartable() {
        let stream = TraceStream::from_generator(100, |i| {
            MemRef::read(NodeId::new((i % 7) as u16), Addr::new(i * 32))
        });
        let a = stream.collect_trace().unwrap();
        let b = stream.collect_trace().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn records_from_equals_skipped_pass() {
        let t = sample();
        let (stream, path) = file_stream(&t);
        for start in [0u64, 1, 250, 499, 500, 1000] {
            let skipped: Vec<_> = stream
                .records()
                .unwrap()
                .skip(start.min(500) as usize)
                .map(Result::unwrap)
                .collect();
            let seeked: Vec<_> = stream
                .records_from(start)
                .unwrap()
                .map(Result::unwrap)
                .collect();
            assert_eq!(seeked, skipped, "start {start}");
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn shard_filters_partition_exactly_and_keep_absolute_indices() {
        let t = sample();
        let (stream, path) = file_stream(&t);
        let bs = BlockSize::B16;
        for shards in [1usize, 2, 4, 8] {
            let mut seen = vec![false; t.len()];
            for shard in 0..shards {
                let filtered = stream.clone().with_shard_filter(bs, shard, shards);
                for item in filtered.records().unwrap() {
                    let (i, r) = item.unwrap();
                    assert_eq!(r, t.as_slice()[i as usize]);
                    assert_eq!(shard_of_block(r.addr.block(bs), shards), shard);
                    assert!(!seen[i as usize], "record {i} yielded twice");
                    seen[i as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "some record in no shard");
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn filtered_stream_matches_partition_by_block() {
        let t = sample();
        let (stream, path) = file_stream(&t);
        let bs = BlockSize::B16;
        let parts = t.partition_by_block(bs, 4);
        for (shard, part) in parts.iter().enumerate() {
            let filtered = stream
                .clone()
                .with_shard_filter(bs, shard, 4)
                .collect_trace()
                .unwrap();
            assert_eq!(&filtered, part, "shard {shard}");
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn record_at_seeks_anywhere() {
        let t = sample();
        let (stream, path) = file_stream(&t);
        for i in [0u64, 1, 17, 499] {
            assert_eq!(stream.record_at(i).unwrap(), t.as_slice()[i as usize]);
        }
        let gen =
            TraceStream::from_generator(10, |i| MemRef::write(NodeId::new(0), Addr::new(i * 16)));
        assert_eq!(gen.record_at(7).unwrap().addr, Addr::new(112));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn record_at_rejects_out_of_range() {
        let gen = TraceStream::from_generator(10, |i| MemRef::read(NodeId::new(0), Addr::new(i)));
        let _ = gen.record_at(10);
    }

    #[test]
    fn open_reads_legacy_v1_files() {
        let t = sample();
        let mut buf = Vec::from(TRACE_MAGIC_V1);
        for r in t.iter() {
            buf.extend_from_slice(&(r.node.index() as u16).to_le_bytes());
            buf.push(r.op.is_write() as u8);
            buf.extend_from_slice(&r.addr.get().to_le_bytes());
        }
        let path = write_tempfile(&buf);
        let stream = TraceStream::open(&path).unwrap();
        assert_eq!(stream.len(), t.len() as u64);
        assert_eq!(stream.collect_trace().unwrap(), t);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn open_rejects_bad_magic_and_empty_files() {
        let path = write_tempfile(b"NOTATRACE");
        assert!(matches!(
            TraceStream::open(&path).unwrap_err(),
            ReadTraceError::BadMagic
        ));
        std::fs::remove_file(path).unwrap();
        let path = write_tempfile(b"");
        assert!(matches!(
            TraceStream::open(&path).unwrap_err(),
            ReadTraceError::BadMagic
        ));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn open_rejects_truncation_and_count_mismatch() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        // Mid-record truncation.
        let path = write_tempfile(&buf[..buf.len() - 3]);
        assert!(matches!(
            TraceStream::open(&path).unwrap_err(),
            ReadTraceError::TruncatedRecord
        ));
        std::fs::remove_file(path).unwrap();
        // Whole-record shortfall.
        let path = write_tempfile(&buf[..buf.len() - 11]);
        assert!(matches!(
            TraceStream::open(&path).unwrap_err(),
            ReadTraceError::CountMismatch {
                declared: 500,
                read: 499
            }
        ));
        std::fs::remove_file(path).unwrap();
        // Trailing garbage.
        let mut long = buf.clone();
        long.extend_from_slice(&buf[16..27]);
        let path = write_tempfile(&long);
        assert!(matches!(
            TraceStream::open(&path).unwrap_err(),
            ReadTraceError::TrailingBytes { declared: 500 }
        ));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn open_rejects_hostile_count_without_allocating() {
        // A header declaring u64::MAX records: 11 * count overflows, the
        // payload is empty — must fail cleanly at open.
        let mut buf = Vec::from(TRACE_MAGIC);
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let path = write_tempfile(&buf);
        assert!(matches!(
            TraceStream::open(&path).unwrap_err(),
            ReadTraceError::CountMismatch { read: 0, .. }
        ));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn pass_surfaces_bad_op_and_fuses() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        buf[16 + 11 + 2] = 9; // op byte of the second record
        let path = write_tempfile(&buf);
        let stream = TraceStream::open(&path).unwrap();
        let mut pass = stream.records().unwrap();
        assert!(pass.next().unwrap().is_ok());
        assert!(matches!(pass.next(), Some(Err(ReadTraceError::BadOp(9)))));
        assert!(pass.next().is_none(), "errored pass must fuse");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn write_to_round_trips_with_and_without_filter() {
        let t = sample();
        let stream = {
            let mut buf = Vec::new();
            t.write_to(&mut buf).unwrap();
            let path = write_tempfile(&buf);
            TraceStream::open(&path).unwrap()
        };
        let mut out = Vec::new();
        stream.write_to(&mut out).unwrap();
        assert_eq!(Trace::read_from(&out[..]).unwrap(), t);

        let bs = BlockSize::B16;
        let filtered = stream.with_shard_filter(bs, 1, 4);
        let mut out = Vec::new();
        filtered.write_to(&mut out).unwrap();
        assert_eq!(
            Trace::read_from(&out[..]).unwrap(),
            t.partition_by_block(bs, 4)[1]
        );
    }

    #[test]
    fn unfiltered_drops_the_filter() {
        let gen =
            TraceStream::from_generator(64, |i| MemRef::read(NodeId::new(0), Addr::new(i * 16)));
        let filtered = gen.with_shard_filter(BlockSize::B16, 0, 4);
        assert!(filtered.shard_filter().is_some());
        let full = filtered.unfiltered();
        assert!(full.shard_filter().is_none());
        assert_eq!(full.collect_trace().unwrap().len(), 64);
    }

    #[test]
    fn debug_names_the_source() {
        let gen = TraceStream::from_generator(4, |i| MemRef::read(NodeId::new(0), Addr::new(i)));
        assert!(format!("{gen:?}").contains("generator"));
    }
}
