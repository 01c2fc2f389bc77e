//! Shared-memory reference traces.
//!
//! This crate defines the vocabulary shared by every simulator in the
//! workspace: processor identifiers ([`NodeId`]), byte and block addresses
//! ([`Addr`], [`BlockAddr`], [`BlockSize`]), individual shared-memory
//! references ([`MemRef`]), and sequences of them ([`Trace`]).
//!
//! Traces play the role that Tango-generated SPLASH traces play in the
//! paper (Cox & Fowler, ISCA 1993, §3.2): a globally interleaved sequence
//! of reads and writes to *ordinary shared data*, excluding instruction
//! fetches, private data, and synchronization accesses.
//!
//! # Examples
//!
//! ```
//! use mcc_trace::{Addr, MemOp, MemRef, NodeId, Trace};
//!
//! let mut trace = Trace::new();
//! trace.push(MemRef::read(NodeId::new(0), Addr::new(0x40)));
//! trace.push(MemRef::write(NodeId::new(0), Addr::new(0x40)));
//! trace.push(MemRef::read(NodeId::new(1), Addr::new(0x40)));
//!
//! assert_eq!(trace.len(), 3);
//! let stats = trace.stats();
//! assert_eq!(stats.reads, 2);
//! assert_eq!(stats.writes, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod classify;
mod io;
mod record;
mod shard;
mod stats;
mod stream;
mod trace;

pub use addr::{Addr, BlockAddr, BlockSize, PageAddr, PAGE_SIZE};
pub use classify::{BlockStats, Classification, SharingPattern};
pub use io::{ReadTraceError, RECORD_BYTES, TRACE_MAGIC, TRACE_MAGIC_V1};
pub use record::{MemOp, MemRef, NodeId};
pub use shard::shard_of_block;
pub use stats::TraceStats;
pub use stream::{Records, TraceStream};
pub use trace::{Interleaver, Trace};
