//! The coherence protocol as a *live* concurrent service.
//!
//! Everywhere else in this workspace the directory protocol runs as a
//! trace-driven simulation inside one call stack. This crate runs it
//! as a real system: one thread per directory shard and one per
//! node-cache client, connected by real `std::sync::mpsc` channels,
//! with faults injected on the wire itself — messages dropped,
//! NACKed, delayed (and thereby reordered), and duplicated by a
//! [`ChaosChannel`] driven by the same
//! [`FaultPlan`](mcc_core::FaultPlan) vocabulary as the trace-driven
//! injector.
//!
//! The interesting part is keeping the *paper's* guarantees while the
//! transport misbehaves and shards crash:
//!
//! * clients retry with the same seeded jittered exponential backoff
//!   the simulator charges, under a retry budget and a livelock
//!   watchdog ([`client`]);
//! * per-client sequence numbers give exactly-once application over
//!   the lossy wire ([`wire`]);
//! * each shard journals its linearized reference stream; the journal
//!   is simultaneously the write-ahead log that crash restarts replay
//!   (from the last [`EngineSnapshot`](mcc_core::EngineSnapshot)
//!   checkpoint) and the evidence that the live run obeyed the §2
//!   detection/demotion rules and Table-1 message accounting — proven
//!   by replaying it through `mcc-check`'s lockstep
//!   engine/specification checker ([`verify`]);
//! * a supervisor watches heartbeats and restarts stalled or panicked
//!   shards behind an epoch fence, degrading gracefully when a shard
//!   is unrecoverable ([`service`]).
//!
//! # Example
//!
//! ```
//! use mcc_live::{run_live, LiveConfig};
//! use mcc_core::Protocol;
//!
//! let mut cfg = LiveConfig::new(Protocol::Basic, 4, 2);
//! cfg.max_refs_per_client = 100;
//! let report = run_live(&cfg).expect("valid config");
//! assert!(report.ok(), "{:?}", report.verify.violations);
//! assert_eq!(report.ops(), report.applied());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod chaos;
pub mod client;
pub mod service;
pub mod telemetry;
pub mod verify;
pub mod wal;
pub mod wire;

mod shard;

pub use artifacts::{
    events_path, journal_path, summary_kv, summary_path, telemetry_path, write_artifacts,
    write_artifacts_on,
};
pub use chaos::{ChannelStats, ChaosChannel, SharedChannelStats};
pub use client::ClientReport;
pub use service::{run_live, KillSpec, LiveConfig, LiveReport, ShardOutcome, WalConfig};
pub use telemetry::TelemetrySpec;
pub use verify::{verify_run, JournalReplay, VerifyOutcome};
pub use wal::{open_wal, read_wal, SalvagedWal, WalRecord, WalStats};
pub use wire::{JournalEntry, Reply, Request};
