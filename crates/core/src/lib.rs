//! Adaptive directory-based cache coherence for migratory shared data.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Cox & Fowler, *Adaptive Cache Coherency for Detecting Migratory Shared
//! Data*, ISCA 1993): a family of write-invalidate coherence protocols
//! that dynamically classify cache blocks as *migratory* — read and
//! written by one processor at a time, moving from processor to
//! processor — and manage such blocks with a *migrate-on-read-miss*
//! policy that hands them over with write permission in a single
//! transaction, instead of the two transactions (replication, then
//! invalidation) a conventional protocol spends.
//!
//! The crate provides:
//!
//! * [`AdaptivePolicy`] / [`Protocol`] — the protocol family and the
//!   paper's *conventional*, *conservative*, *basic* and *aggressive*
//!   points in it (§2, §4.1), plus the non-adaptive *pure migratory*
//!   policy of the Sequent Symmetry / MIT Alewife (§5);
//! * [`DirEntry`] — directory entries extended with the Figure 3
//!   detection state (copies-created counter, last invalidator,
//!   hysteresis);
//! * [`charge`] / [`charge_eviction`] — the Table 1 / §3.3 inter-node
//!   message cost model;
//! * [`DirectorySim`] / [`DirectoryEngine`] — the trace-driven CC-NUMA
//!   memory-system simulator with a built-in coherence checker;
//! * [`DirectorySim::execute`] / [`RunSpec`] — the one run pipeline:
//!   materialized or streamed sources, address-sharded parallel runs that
//!   reproduce the sequential result bit-exactly, per-shard observability
//!   sinks, crash-safe [`Checkpoint`]s, panic containment and deadlines.
//!
//! # Examples
//!
//! Detect a migratory block and halve its hand-off cost:
//!
//! ```
//! use mcc_core::{DirectorySim, DirectorySimConfig, Protocol};
//! use mcc_trace::{Addr, MemRef, NodeId, Trace};
//!
//! // A counter protected by a lock, incremented by three nodes in turn.
//! let mut trace = Trace::new();
//! for turn in 0..9u16 {
//!     let node = NodeId::new(1 + turn % 3);
//!     trace.push(MemRef::read(node, Addr::new(0)));   // load counter
//!     trace.push(MemRef::write(node, Addr::new(0)));  // store counter+1
//! }
//!
//! let config = DirectorySimConfig::default();
//! let conventional = DirectorySim::new(Protocol::Conventional, &config).run(&trace);
//! let adaptive = DirectorySim::new(Protocol::Aggressive, &config).run(&trace);
//!
//! assert!(adaptive.total_messages() < conventional.total_messages());
//! assert!(adaptive.events.migrations > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod directory;
mod engine;
mod error;
mod fast;
mod faults;
mod layout;
mod monitor;
mod msg;
mod oracle;
mod policy;
mod repr;
mod result;
mod run;
mod sim;
pub mod storage;

pub use checkpoint::{
    stream_fingerprint, Checkpoint, CheckpointError, CheckpointPolicy, EngineSnapshot,
    RecoveredCheckpoint, ShardSnapshot, SnapshotGeneration,
};
pub use directory::{CopiesCreated, CopySet, DirEntry, ReadMissAction, Reclassification};
pub use engine::{check_version, AnyEngine, BlockRow, Engine, EngineKind, LineFault};
pub use error::{SimError, Violation, ViolationKind};
pub use fast::FastEngine;
pub use faults::{
    backoff_units, jittered_backoff_units, AttemptOutcome, AttemptReport, Fault, FaultInjector,
    FaultPlan, FaultRates, MessageClass, TransactionShape,
};
pub use layout::DirEntryLayout;
pub use monitor::Monitor;
pub use msg::{charge, charge_eviction, MessageCount, OpKind};
pub use oracle::migrate_hints;
pub use policy::{AdaptivePolicy, Protocol};
pub use repr::DirectoryRepr;
pub use result::{EventCounts, MessageBreakdown, SimResult};
#[doc(hidden)]
pub use run::test_hooks as supervision_test_hooks;
pub use run::{RunSource, RunSpec, ShardedReport};
pub use sim::{
    DirectoryEngine, DirectorySim, DirectorySimConfig, LineState, PlacementPolicy, StepInfo,
    StepKind,
};
pub use storage::{
    ChaosStorage, ChaosStorageStats, KillScope, RealStorage, Storage, StorageFaultPlan,
};
