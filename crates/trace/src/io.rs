//! Binary trace serialization.
//!
//! The format is deliberately simple and self-describing. Version 2
//! streams open with an 8-byte header (magic + version) and a
//! little-endian `u64` record count, followed by fixed-width
//! little-endian records of `(node: u16, op: u8, addr: u64)` — 11 bytes
//! per reference. The count is authoritative: the reader pre-allocates
//! (boundedly), detects truncation even on a record boundary, rejects
//! absurd counts before touching memory, and rejects streams that
//! continue past the declared payload. Version 1 streams (no count;
//! records run to end-of-stream) are still read transparently.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use crate::record::{MemOp, MemRef, NodeId};
use crate::trace::Trace;
use crate::Addr;

/// Magic bytes opening every serialized trace: `MCCT` + format version 2.
pub const TRACE_MAGIC: [u8; 8] = *b"MCCT\x02\0\0\0";

/// Magic bytes of the legacy count-less version 1 format, still accepted
/// by [`Trace::read_from`].
pub const TRACE_MAGIC_V1: [u8; 8] = *b"MCCT\x01\0\0\0";

/// Bytes in one serialized reference record.
pub const RECORD_BYTES: usize = 11;

impl MemRef {
    /// The reference as one MCCT record: `u16` node, `u8` operation (0
    /// read, 1 write) and `u64` byte address, little-endian. Trace files
    /// and the live service's WAL frames both carry this encoding.
    pub fn to_bytes(self) -> [u8; RECORD_BYTES] {
        let mut buf = [0u8; RECORD_BYTES];
        buf[..2].copy_from_slice(&(self.node.index() as u16).to_le_bytes());
        buf[2] = u8::from(self.op.is_write());
        buf[3..].copy_from_slice(&self.addr.get().to_le_bytes());
        buf
    }

    /// Decodes one record in [`MemRef::to_bytes`]'s layout.
    ///
    /// # Errors
    ///
    /// [`ReadTraceError::BadOp`] when the operation byte is neither 0
    /// nor 1.
    pub fn from_bytes(buf: &[u8; RECORD_BYTES]) -> Result<MemRef, ReadTraceError> {
        let [n0, n1, op, addr @ ..] = *buf;
        let op = match op {
            0 => MemOp::Read,
            1 => MemOp::Write,
            b => return Err(ReadTraceError::BadOp(b)),
        };
        let node = NodeId::new(u16::from_le_bytes([n0, n1]));
        Ok(MemRef::new(node, op, Addr::new(u64::from_le_bytes(addr))))
    }
}

/// Upper bound on the records pre-allocated from a v2 count prefix.
///
/// A corrupt or hostile count must not translate into an allocation: the
/// reader reserves at most this many records up front and lets the
/// stream itself prove it really contains more.
const PREALLOC_CAP: u64 = 1 << 20;

/// Error produced when deserializing a trace.
#[derive(Debug)]
pub enum ReadTraceError {
    /// The stream did not start with [`TRACE_MAGIC`] (or the legacy
    /// [`TRACE_MAGIC_V1`]).
    BadMagic,
    /// The stream ended in the middle of a record.
    TruncatedRecord,
    /// A v2 stream held a different number of records than its header
    /// declared.
    CountMismatch {
        /// Records the header declared.
        declared: u64,
        /// Records actually present.
        read: u64,
    },
    /// A v2 stream continued past its declared record count. Trailing
    /// bytes mean the header and the payload disagree — the stream was
    /// corrupted, concatenated, or tampered with — so the whole trace is
    /// rejected rather than silently ignoring the tail.
    TrailingBytes {
        /// Records the header declared (all of which parsed cleanly).
        declared: u64,
    },
    /// A record contained an operation byte other than 0 (read) or 1 (write).
    BadOp(u8),
    /// An underlying I/O error.
    Io(io::Error),
}

impl fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadTraceError::BadMagic => write!(f, "stream is not an MCCT trace"),
            ReadTraceError::TruncatedRecord => write!(f, "trace ends mid-record"),
            ReadTraceError::CountMismatch { declared, read } => write!(
                f,
                "trace header declares {declared} records but the stream holds {read}"
            ),
            ReadTraceError::TrailingBytes { declared } => write!(
                f,
                "trace stream continues past its declared {declared} records"
            ),
            ReadTraceError::BadOp(b) => write!(f, "invalid operation byte {b:#x}"),
            ReadTraceError::Io(e) => write!(f, "i/o error reading trace: {e}"),
        }
    }
}

impl Error for ReadTraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReadTraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ReadTraceError {
    fn from(e: io::Error) -> Self {
        ReadTraceError::Io(e)
    }
}

impl Trace {
    /// Serializes the trace to `writer` in the MCCT v2 binary format.
    ///
    /// Pass `&mut writer` if you need the writer back afterwards.
    ///
    /// # Errors
    ///
    /// Returns any error produced by the underlying writer.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> std::io::Result<()> {
    /// use mcc_trace::{Addr, MemRef, NodeId, Trace};
    /// let mut t = Trace::new();
    /// t.push(MemRef::write(NodeId::new(1), Addr::new(0x40)));
    /// let mut buf = Vec::new();
    /// t.write_to(&mut buf)?;
    /// let back = Trace::read_from(&buf[..]).unwrap();
    /// assert_eq!(back, t);
    /// # Ok(())
    /// # }
    /// ```
    pub fn write_to<W: Write>(&self, mut writer: W) -> io::Result<()> {
        writer.write_all(&TRACE_MAGIC)?;
        writer.write_all(&(self.len() as u64).to_le_bytes())?;
        for r in self.iter() {
            writer.write_all(&r.to_bytes())?;
        }
        Ok(())
    }

    /// Deserializes a trace from `reader`, accepting both the v2 format
    /// (with record count) and the legacy v1 format (records to
    /// end-of-stream).
    ///
    /// Pass `&mut reader` if you need the reader back afterwards.
    ///
    /// Robust against corrupt input: any truncated, bit-flipped, or
    /// hostile stream produces an error — never a panic, and never an
    /// allocation sized by untrusted data.
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError`] when the stream is not a valid MCCT trace
    /// or the underlying reader fails.
    pub fn read_from<R: Read>(mut reader: R) -> Result<Trace, ReadTraceError> {
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic)?;
        let declared = if magic == TRACE_MAGIC {
            let mut count = [0u8; 8];
            reader.read_exact(&mut count)?;
            Some(u64::from_le_bytes(count))
        } else if magic == TRACE_MAGIC_V1 {
            None
        } else {
            return Err(ReadTraceError::BadMagic);
        };
        let mut trace = Trace::with_capacity(declared.unwrap_or(0).min(PREALLOC_CAP) as usize);
        let mut buf = [0u8; RECORD_BYTES];
        match declared {
            // v2: the header is authoritative. Read exactly `declared`
            // records, then require the stream to end — trailing bytes
            // are as much a header/payload disagreement as a shortfall.
            Some(declared) => {
                for read in 0..declared {
                    match read_record(&mut reader, &mut buf)? {
                        RecordRead::Eof => {
                            return Err(ReadTraceError::CountMismatch { declared, read })
                        }
                        RecordRead::Record => trace.push(MemRef::from_bytes(&buf)?),
                    }
                }
                let mut probe = [0u8; 1];
                loop {
                    match reader.read(&mut probe) {
                        Ok(0) => break,
                        Ok(_) => return Err(ReadTraceError::TrailingBytes { declared }),
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(e) => return Err(ReadTraceError::Io(e)),
                    }
                }
            }
            // v1: no count; records run to end-of-stream.
            None => loop {
                match read_record(&mut reader, &mut buf)? {
                    RecordRead::Eof => break,
                    RecordRead::Record => trace.push(MemRef::from_bytes(&buf)?),
                }
            },
        }
        Ok(trace)
    }
}

enum RecordRead {
    Eof,
    Record,
}

fn read_record<R: Read>(
    reader: &mut R,
    buf: &mut [u8; RECORD_BYTES],
) -> Result<RecordRead, ReadTraceError> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = reader.read(&mut buf[filled..])?;
        if n == 0 {
            return if filled == 0 {
                Ok(RecordRead::Eof)
            } else {
                Err(ReadTraceError::TruncatedRecord)
            };
        }
        filled += n;
    }
    Ok(RecordRead::Record)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        for i in 0..100u64 {
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

    #[test]
    fn roundtrip() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        assert_eq!(buf.len(), 8 + 8 + 11 * t.len());
        let back = Trace::read_from(&buf[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn empty_roundtrip() {
        let mut buf = Vec::new();
        Trace::new().write_to(&mut buf).unwrap();
        let back = Trace::read_from(&buf[..]).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn reads_legacy_v1_streams() {
        let t = sample();
        let mut buf = Vec::from(TRACE_MAGIC_V1);
        for r in t.iter() {
            buf.extend_from_slice(&(r.node.index() as u16).to_le_bytes());
            buf.push(r.op.is_write() as u8);
            buf.extend_from_slice(&r.addr.get().to_le_bytes());
        }
        let back = Trace::read_from(&buf[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = Trace::read_from(&b"NOTATRACE"[..]).unwrap_err();
        assert!(matches!(err, ReadTraceError::BadMagic));
    }

    #[test]
    fn rejects_truncated_record() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        let err = Trace::read_from(&buf[..]).unwrap_err();
        assert!(matches!(err, ReadTraceError::TruncatedRecord));
    }

    #[test]
    fn rejects_record_count_mismatch() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        // Remove exactly one record: the stream still parses, but the
        // count no longer matches.
        buf.truncate(buf.len() - 11);
        let err = Trace::read_from(&buf[..]).unwrap_err();
        assert!(matches!(
            err,
            ReadTraceError::CountMismatch {
                declared: 100,
                read: 99
            }
        ));
    }

    #[test]
    fn hostile_count_does_not_allocate() {
        // A header declaring u64::MAX records must fail cleanly (the
        // stream is empty), not attempt a 170-exabyte allocation.
        let mut buf = Vec::from(TRACE_MAGIC);
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = Trace::read_from(&buf[..]).unwrap_err();
        assert!(matches!(err, ReadTraceError::CountMismatch { read: 0, .. }));
    }

    #[test]
    fn rejects_trailing_bytes_after_declared_records() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        // A few stray bytes after the declared payload: not even a whole
        // record, but enough to prove the header lies about the length.
        buf.extend_from_slice(&[0xde, 0xad]);
        let err = Trace::read_from(&buf[..]).unwrap_err();
        assert!(matches!(
            err,
            ReadTraceError::TrailingBytes { declared: 100 }
        ));
    }

    #[test]
    fn rejects_trailing_whole_records_too() {
        // A concatenated second payload parses as valid records, but the
        // header still only declares the first — reject, don't truncate.
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        let extra = buf[16..27].to_vec(); // first record, again
        buf.extend_from_slice(&extra);
        let err = Trace::read_from(&buf[..]).unwrap_err();
        assert!(matches!(
            err,
            ReadTraceError::TrailingBytes { declared: 100 }
        ));
    }

    #[test]
    fn rejects_bad_op_byte() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        buf[16 + 2] = 7; // op byte of the first record
        let err = Trace::read_from(&buf[..]).unwrap_err();
        assert!(matches!(err, ReadTraceError::BadOp(7)));
    }

    #[test]
    fn error_display_is_informative() {
        assert!(ReadTraceError::BadMagic.to_string().contains("MCCT"));
        assert!(ReadTraceError::BadOp(9).to_string().contains("0x9"));
        let mismatch = ReadTraceError::CountMismatch {
            declared: 5,
            read: 3,
        };
        assert!(mismatch.to_string().contains("declares 5"));
        let trailing = ReadTraceError::TrailingBytes { declared: 7 };
        assert!(trailing.to_string().contains("past its declared 7 records"));
    }
}
