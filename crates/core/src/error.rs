//! Structured errors for the directory simulator.
//!
//! The engine's legacy API panics on protocol bugs, which is the right
//! behaviour for the checker-as-assertion style of the original test
//! suite but useless for a resilience harness that wants to *observe*
//! failures (retry exhaustion under an unreliable interconnect, or an
//! invariant broken by a corrupted transaction) and report them. The
//! types here carry the full diagnosis — which block, at which step, in
//! which protocol context, with the directory's view of the world — so
//! a violation can be logged, asserted on, or rendered for a human
//! without unwinding the stack.
//!
//! [`Engine::try_step`](crate::Engine::try_step) returns
//! `Result<_, SimError>`; the panicking wrappers
//! ([`step`](crate::Engine::step),
//! [`check_invariants`](crate::Engine::check_invariants))
//! format these same types, so panic messages and error reports never
//! diverge.

use core::fmt;

use mcc_trace::{BlockAddr, NodeId};

use crate::directory::DirEntry;

/// What kind of coherence invariant was broken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// A read (hit or miss service) observed a version older than the
    /// latest write: stale data became visible.
    StaleRead {
        /// Version the read observed.
        observed: u64,
        /// Version the latest write produced.
        latest: u64,
    },
    /// The directory's copy set disagrees with actual cache residency.
    CopysetMismatch,
    /// A block has an exclusive-state copy alongside other copies
    /// (single-writer / multiple-reader broken).
    ExclusiveConflict,
    /// The directory `dirty` bit disagrees with the caches.
    DirtyBitMismatch,
    /// No dirty copy exists, yet main memory holds a stale version.
    StaleMemory {
        /// Version held by the home memory.
        memory: u64,
        /// Version the latest write produced.
        latest: u64,
    },
}

impl ViolationKind {
    /// Short machine-readable label for tables and CSV output.
    pub const fn label(self) -> &'static str {
        match self {
            ViolationKind::StaleRead { .. } => "stale-read",
            ViolationKind::CopysetMismatch => "copyset-mismatch",
            ViolationKind::ExclusiveConflict => "exclusive-conflict",
            ViolationKind::DirtyBitMismatch => "dirty-bit-mismatch",
            ViolationKind::StaleMemory { .. } => "stale-memory",
        }
    }
}

/// A coherence violation, with everything needed to diagnose it.
///
/// Produced by [`Engine::verify`](crate::Engine::verify) and by the
/// per-reference checker inside
/// [`try_step`](crate::Engine::try_step). The `Display` form is
/// the exact message the legacy panicking API emits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The block whose invariant broke.
    pub block: BlockAddr,
    /// References processed before the violation was detected.
    pub step: u64,
    /// What broke.
    pub kind: ViolationKind,
    /// Protocol context ("cache hit", "migration", "invariant sweep", ...).
    pub context: &'static str,
    /// The directory's entry for the block at detection time, if one
    /// exists — copy set, classification state, dirty bit, and the last
    /// invalidator feeding the migratory detector.
    pub entry: Option<DirEntry>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ViolationKind::StaleRead { observed, latest } => write!(
                f,
                "coherence violation during {}: {} observed version {observed} \
                 but the latest write produced {latest}",
                self.context, self.block
            )?,
            ViolationKind::CopysetMismatch => write!(f, "copyset out of sync for {}", self.block)?,
            ViolationKind::ExclusiveConflict => write!(
                f,
                "{}: exclusive copy coexists with other copies",
                self.block
            )?,
            ViolationKind::DirtyBitMismatch => {
                write!(f, "{}: directory dirty bit out of sync", self.block)?
            }
            ViolationKind::StaleMemory { memory, latest } => write!(
                f,
                "{}: memory stale while no dirty copy exists (memory {memory}, latest {latest})",
                self.block
            )?,
        }
        write!(f, " [step {}", self.step)?;
        if let Some(e) = &self.entry {
            write!(
                f,
                "; copyset {:?}, migratory {}, dirty {}, last invalidator {:?}",
                e.copyset, e.migratory, e.dirty, e.last_invalidator
            )?;
        }
        write!(f, "]")
    }
}

impl std::error::Error for Violation {}

/// Any structured failure a directory simulation can report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The protocol broke a coherence invariant (a bug in this crate,
    /// or state corrupted by an externally injected fault).
    Violation(Violation),
    /// A transaction was retried up to the fault plan's bound and never
    /// delivered: the interconnect is effectively partitioned.
    RetryExhausted {
        /// The block whose transaction failed.
        block: BlockAddr,
        /// The requesting node.
        node: NodeId,
        /// Attempts made (initial try plus retries).
        attempts: u32,
        /// References processed before giving up.
        step: u64,
    },
    /// The livelock watchdog fired: cumulative exponential backoff
    /// exceeded the plan's budget, so forward progress is no longer
    /// plausible (e.g. a NACK storm).
    Livelock {
        /// The block whose transaction was starved.
        block: BlockAddr,
        /// The requesting node.
        node: NodeId,
        /// Backoff units accumulated when the watchdog fired.
        backoff_units: u64,
        /// References processed before giving up.
        step: u64,
    },
    /// A reference named a node outside the configured machine.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Number of nodes in the configuration.
        nodes: u16,
    },
    /// The configuration cannot run on the sharded parallel engine.
    ///
    /// Sharding assumes blocks never interact; finite set-associative
    /// caches break that (an insertion may evict a block owned by
    /// another shard), so sharded runs require infinite caches.
    ShardingUnsupported {
        /// Why the configuration cannot shard.
        reason: &'static str,
    },
    /// A shard thread of a supervised parallel run panicked. The panic
    /// was caught at the shard boundary: other shards' results survive
    /// and are salvaged by the supervisor.
    ShardPanicked {
        /// Index of the shard whose thread panicked.
        shard: u32,
        /// The panic payload, when it was a string (the overwhelmingly
        /// common case); a fixed placeholder otherwise.
        message: String,
    },
    /// A shard of a supervised parallel run exceeded its wall-clock
    /// budget. The supervisor stops waiting and reports the shards that
    /// did finish; the stuck thread is abandoned, never joined.
    ShardTimedOut {
        /// Index of the shard that blew its deadline.
        shard: u32,
        /// The wall-clock budget, in milliseconds.
        budget_ms: u64,
    },
    /// A checkpoint could not be used or produced: the snapshot does
    /// not match the run being resumed (different trace, protocol,
    /// configuration, or shard count), or writing it to disk failed.
    BadCheckpoint {
        /// Human-readable diagnosis of the mismatch or I/O failure.
        reason: String,
    },
    /// A streamed trace could not be read: the file went away, was
    /// truncated mid-pass, or held an invalid record. Streaming runs
    /// surface the underlying
    /// [`ReadTraceError`](mcc_trace::ReadTraceError)'s rendering here
    /// instead of panicking mid-simulation.
    TraceUnreadable {
        /// Human-readable diagnosis from the trace reader.
        reason: String,
    },
}

impl SimError {
    /// The block the failure is about, when the failure names one:
    /// coherence violations, retry exhaustion, and livelock all pin a
    /// specific block, which is what a flight-recorder dump keys its
    /// classification timeline on. Structural errors (sharding,
    /// checkpoints, bad node indices) name no block.
    pub fn block(&self) -> Option<BlockAddr> {
        match self {
            SimError::Violation(v) => Some(v.block),
            SimError::RetryExhausted { block, .. } | SimError::Livelock { block, .. } => {
                Some(*block)
            }
            SimError::NodeOutOfRange { .. }
            | SimError::ShardingUnsupported { .. }
            | SimError::ShardPanicked { .. }
            | SimError::ShardTimedOut { .. }
            | SimError::BadCheckpoint { .. }
            | SimError::TraceUnreadable { .. } => None,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Violation(v) => v.fmt(f),
            SimError::RetryExhausted {
                block,
                node,
                attempts,
                step,
            } => write!(
                f,
                "retry exhausted: transaction for {block} by {node} failed \
                 {attempts} attempts (step {step})"
            ),
            SimError::Livelock {
                block,
                node,
                backoff_units,
                step,
            } => write!(
                f,
                "livelock watchdog: transaction for {block} by {node} accumulated \
                 {backoff_units} backoff units without delivery (step {step})"
            ),
            SimError::NodeOutOfRange { node, nodes } => write!(
                f,
                "reference by {node} but the configuration has {nodes} nodes"
            ),
            SimError::ShardingUnsupported { reason } => {
                write!(f, "configuration cannot run sharded: {reason}")
            }
            SimError::ShardPanicked { shard, message } => {
                write!(f, "shard {shard} panicked: {message}")
            }
            SimError::ShardTimedOut { shard, budget_ms } => {
                write!(f, "shard {shard} exceeded its {budget_ms} ms deadline")
            }
            SimError::BadCheckpoint { reason } => {
                write!(f, "checkpoint unusable: {reason}")
            }
            SimError::TraceUnreadable { reason } => {
                write!(f, "trace stream unreadable: {reason}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Violation(v) => Some(v),
            _ => None,
        }
    }
}

impl From<Violation> for SimError {
    fn from(v: Violation) -> Self {
        SimError::Violation(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violation(kind: ViolationKind) -> Violation {
        Violation {
            block: BlockAddr::new(3),
            step: 17,
            kind,
            context: "cache hit",
            entry: None,
        }
    }

    #[test]
    fn stale_read_display_matches_legacy_panic() {
        let v = violation(ViolationKind::StaleRead {
            observed: 1,
            latest: 2,
        });
        let s = v.to_string();
        assert!(s.contains("coherence violation during cache hit"), "{s}");
        assert!(s.contains("observed version 1"), "{s}");
        assert!(s.contains("produced 2"), "{s}");
        assert!(s.contains("step 17"), "{s}");
    }

    #[test]
    fn invariant_displays_keep_legacy_phrases() {
        assert!(violation(ViolationKind::CopysetMismatch)
            .to_string()
            .contains("copyset out of sync"));
        assert!(violation(ViolationKind::ExclusiveConflict)
            .to_string()
            .contains("exclusive copy coexists with other copies"));
        assert!(violation(ViolationKind::DirtyBitMismatch)
            .to_string()
            .contains("directory dirty bit out of sync"));
        assert!(violation(ViolationKind::StaleMemory {
            memory: 0,
            latest: 5
        })
        .to_string()
        .contains("memory stale while no dirty copy exists"));
    }

    #[test]
    fn node_out_of_range_display_names_the_configuration() {
        let e = SimError::NodeOutOfRange {
            node: NodeId::new(16),
            nodes: 16,
        };
        assert!(e.to_string().contains("16 nodes"));
    }

    #[test]
    fn sharding_unsupported_display_names_the_reason() {
        let e = SimError::ShardingUnsupported {
            reason: "finite caches couple blocks through eviction",
        };
        let s = e.to_string();
        assert!(s.contains("cannot run sharded"), "{s}");
        assert!(s.contains("finite caches"), "{s}");
    }

    #[test]
    fn supervision_errors_display_the_diagnosis() {
        let p = SimError::ShardPanicked {
            shard: 3,
            message: "CopySet supports at most 64 nodes".into(),
        };
        let s = p.to_string();
        assert!(s.contains("shard 3 panicked"), "{s}");
        assert!(s.contains("at most 64 nodes"), "{s}");

        let t = SimError::ShardTimedOut {
            shard: 1,
            budget_ms: 250,
        };
        let s = t.to_string();
        assert!(s.contains("shard 1"), "{s}");
        assert!(s.contains("250 ms"), "{s}");

        let c = SimError::BadCheckpoint {
            reason: "trace fingerprint mismatch".into(),
        };
        let s = c.to_string();
        assert!(s.contains("checkpoint unusable"), "{s}");
        assert!(s.contains("fingerprint"), "{s}");
    }

    #[test]
    fn labels_are_distinct() {
        let kinds = [
            ViolationKind::StaleRead {
                observed: 0,
                latest: 0,
            }
            .label(),
            ViolationKind::CopysetMismatch.label(),
            ViolationKind::ExclusiveConflict.label(),
            ViolationKind::DirtyBitMismatch.label(),
            ViolationKind::StaleMemory {
                memory: 0,
                latest: 0,
            }
            .label(),
        ];
        let unique: std::collections::HashSet<_> = kinds.iter().collect();
        assert_eq!(unique.len(), kinds.len());
    }

    #[test]
    fn violation_converts_into_sim_error() {
        let v = violation(ViolationKind::CopysetMismatch);
        let e: SimError = v.clone().into();
        assert_eq!(e, SimError::Violation(v));
        assert!(std::error::Error::source(&e).is_some());
    }
}
