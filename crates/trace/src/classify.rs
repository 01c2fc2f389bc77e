//! Off-line sharing-pattern classification of trace blocks.
//!
//! The paper's premise (§1, citing Weber & Gupta and Bennett, Carter &
//! Zwaenepoel) is that "parallel programs exhibit a small number of
//! distinct data-sharing patterns". This module recovers those patterns
//! from a trace after the fact, per cache block:
//!
//! * **Private** — touched by a single node.
//! * **ReadOnly** — never written (or written only during
//!   initialization by its first toucher).
//! * **Migratory** — the block's life is a sequence of single-node
//!   read-write episodes, each episode by a different node than the
//!   previous one.
//! * **ProducerConsumer** — written (almost) exclusively by one node,
//!   read by others.
//! * **WriteShared** — everything else: interleaved writers and readers.
//!
//! Classifying a synthetic workload and checking the distribution
//! against what the literature reports for the corresponding SPLASH
//! program is how this repository validates its trace substitution (see
//! `repro classify` and DESIGN.md §2).

use std::collections::HashMap;
use std::fmt;

use crate::addr::{BlockAddr, BlockSize};
use crate::record::NodeId;
use crate::trace::Trace;

/// The data-sharing pattern of one block (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SharingPattern {
    /// Touched by exactly one node.
    Private,
    /// Multiple readers, no post-initialization writes.
    ReadOnly,
    /// Single-node read-write episodes handed from node to node.
    Migratory,
    /// One (dominant) writer, several readers.
    ProducerConsumer,
    /// Interleaved writes by several nodes.
    WriteShared,
}

impl SharingPattern {
    /// All patterns, in report order.
    pub const ALL: [SharingPattern; 5] = [
        SharingPattern::Private,
        SharingPattern::ReadOnly,
        SharingPattern::Migratory,
        SharingPattern::ProducerConsumer,
        SharingPattern::WriteShared,
    ];
}

impl fmt::Display for SharingPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SharingPattern::Private => "private",
            SharingPattern::ReadOnly => "read-only",
            SharingPattern::Migratory => "migratory",
            SharingPattern::ProducerConsumer => "producer-consumer",
            SharingPattern::WriteShared => "write-shared",
        })
    }
}

/// Per-block access digest accumulated in one pass over the trace.
#[derive(Clone, Debug, Default)]
struct BlockDigest {
    readers: u64, // bitmask of reading nodes (<= 64)
    writers: u64, // bitmask of writing nodes
    reads: u64,
    writes: u64,
    refs: u64,
    /// Episodes: maximal runs of accesses by one node.
    episodes: u64,
    /// Episodes that contained at least one write.
    write_episodes: u64,
    /// Write episodes whose node differed from the previous write
    /// episode's node — the migratory hand-off signature.
    migrating_write_episodes: u64,
    current_node: Option<NodeId>,
    current_episode_wrote: bool,
    last_write_episode_node: Option<NodeId>,
    first_toucher: Option<NodeId>,
    writes_after_foreign_access: u64,
}

impl BlockDigest {
    fn close_episode(&mut self) {
        if let Some(node) = self.current_node {
            self.episodes += 1;
            if self.current_episode_wrote {
                self.write_episodes += 1;
                if self
                    .last_write_episode_node
                    .is_some_and(|prev| prev != node)
                {
                    self.migrating_write_episodes += 1;
                }
                self.last_write_episode_node = Some(node);
            }
        }
        self.current_episode_wrote = false;
    }

    fn classify(mut self) -> (SharingPattern, BlockStats) {
        self.close_episode();
        let node_count = (self.readers | self.writers).count_ones();
        let writer_count = self.writers.count_ones();
        let stats = BlockStats {
            refs: self.refs,
            reads: self.reads,
            writes: self.writes,
            nodes: node_count,
            episodes: self.episodes,
        };
        let pattern = if node_count <= 1 {
            SharingPattern::Private
        } else if self.writes_after_foreign_access == 0 {
            // Written at most during initialization by its first toucher.
            SharingPattern::ReadOnly
        } else if self.write_episodes >= 2
            && self.migrating_write_episodes * 10 >= self.write_episodes.saturating_sub(1) * 7
        {
            // At least 70% of write-episode successions hand off to a
            // different node.
            SharingPattern::Migratory
        } else if writer_count == 1 || self.dominant_writer_fraction().is_some_and(|f| f >= 0.9) {
            SharingPattern::ProducerConsumer
        } else {
            SharingPattern::WriteShared
        };
        (pattern, stats)
    }

    fn dominant_writer_fraction(&self) -> Option<f64> {
        // Approximation without per-writer counts: a single writer bit
        // means fraction 1.0; otherwise unknown.
        if self.writers.count_ones() == 1 {
            Some(1.0)
        } else {
            None
        }
    }
}

/// Summary statistics for one classified block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// References to the block.
    pub refs: u64,
    /// Read references.
    pub reads: u64,
    /// Write references.
    pub writes: u64,
    /// Distinct nodes that touched the block.
    pub nodes: u32,
    /// Single-node access episodes.
    pub episodes: u64,
}

/// The result of classifying a trace at a block size.
#[derive(Clone, Debug, Default)]
pub struct Classification {
    blocks: HashMap<BlockAddr, (SharingPattern, BlockStats)>,
}

impl Classification {
    /// Classifies every block of `trace` at granularity `block_size`.
    ///
    /// Nodes with index ≥ 64 are folded into bit 63 of the reader/writer
    /// sets (pattern decisions stay meaningful; exact node counts above
    /// 64 are not).
    pub fn of(trace: &Trace, block_size: BlockSize) -> Self {
        let mut digests: HashMap<BlockAddr, BlockDigest> = HashMap::new();
        for r in trace.iter() {
            let digest = digests.entry(r.addr.block(block_size)).or_default();
            let bit = 1u64 << r.node.index().min(63);
            digest.refs += 1;
            if digest.first_toucher.is_none() {
                digest.first_toucher = Some(r.node);
            }
            if digest.current_node != Some(r.node) {
                digest.close_episode();
                digest.current_node = Some(r.node);
            }
            if r.op.is_write() {
                digest.writes += 1;
                digest.writers |= bit;
                digest.current_episode_wrote = true;
                // A write counts as "post-initialization" once any other
                // node has touched the block.
                if (digest.readers | digest.writers) & !bit != 0 {
                    digest.writes_after_foreign_access += 1;
                }
            } else {
                digest.reads += 1;
                digest.readers |= bit;
            }
        }
        Classification {
            blocks: digests
                .into_iter()
                .map(|(block, digest)| (block, digest.classify()))
                .collect(),
        }
    }

    /// The pattern of `block`, if it appears in the trace.
    pub fn pattern_of(&self, block: BlockAddr) -> Option<SharingPattern> {
        self.blocks.get(&block).map(|(p, _)| *p)
    }

    /// Number of classified blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` when the trace had no references.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Iterates over `(block, pattern, stats)`.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, SharingPattern, BlockStats)> + '_ {
        self.blocks.iter().map(|(&b, &(p, s))| (b, p, s))
    }

    /// Blocks per pattern.
    pub fn block_counts(&self) -> HashMap<SharingPattern, usize> {
        let mut out = HashMap::new();
        for (pattern, _) in self.blocks.values() {
            *out.entry(*pattern).or_insert(0) += 1;
        }
        out
    }

    /// References per pattern — usually the more meaningful distribution
    /// (hot migratory blocks dominate traffic even when they are few).
    pub fn ref_counts(&self) -> HashMap<SharingPattern, u64> {
        let mut out = HashMap::new();
        for (pattern, stats) in self.blocks.values() {
            *out.entry(*pattern).or_insert(0) += stats.refs;
        }
        out
    }

    /// Fraction of references to blocks of `pattern`, in `[0, 1]`.
    pub fn ref_fraction(&self, pattern: SharingPattern) -> f64 {
        let total: u64 = self.blocks.values().map(|(_, s)| s.refs).sum();
        if total == 0 {
            return 0.0;
        }
        *self.ref_counts().get(&pattern).unwrap_or(&0) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::record::MemRef;

    const BS: BlockSize = BlockSize::B16;

    fn classify(trace: &Trace) -> Classification {
        Classification::of(trace, BS)
    }

    fn block(addr: u64) -> BlockAddr {
        Addr::new(addr).block(BS)
    }

    #[test]
    fn private_block() {
        let mut t = Trace::new();
        for _ in 0..10 {
            t.push(MemRef::read(NodeId::new(3), Addr::new(0)));
            t.push(MemRef::write(NodeId::new(3), Addr::new(0)));
        }
        assert_eq!(
            classify(&t).pattern_of(block(0)),
            Some(SharingPattern::Private)
        );
    }

    #[test]
    fn read_only_block_with_initialization() {
        let mut t = Trace::new();
        // Initialization writes by the first toucher do not disqualify.
        t.push(MemRef::write(NodeId::new(0), Addr::new(0)));
        t.push(MemRef::write(NodeId::new(0), Addr::new(8)));
        for n in 1..6u16 {
            t.push(MemRef::read(NodeId::new(n), Addr::new(0)));
        }
        assert_eq!(
            classify(&t).pattern_of(block(0)),
            Some(SharingPattern::ReadOnly)
        );
    }

    #[test]
    fn migratory_block() {
        let mut t = Trace::new();
        for turn in 0..12u16 {
            let n = NodeId::new(turn % 3);
            t.push(MemRef::read(n, Addr::new(0)));
            t.push(MemRef::write(n, Addr::new(0)));
        }
        assert_eq!(
            classify(&t).pattern_of(block(0)),
            Some(SharingPattern::Migratory)
        );
    }

    #[test]
    fn producer_consumer_block() {
        let mut t = Trace::new();
        for _ in 0..6 {
            t.push(MemRef::write(NodeId::new(0), Addr::new(0)));
            for n in 1..4u16 {
                t.push(MemRef::read(NodeId::new(n), Addr::new(0)));
            }
        }
        assert_eq!(
            classify(&t).pattern_of(block(0)),
            Some(SharingPattern::ProducerConsumer)
        );
    }

    #[test]
    fn write_shared_block() {
        let mut t = Trace::new();
        // Interleaved writes with interleaved readers and repeat writers:
        // no clean hand-off structure.
        for round in 0..6u16 {
            t.push(MemRef::write(NodeId::new(round % 2), Addr::new(0)));
            t.push(MemRef::write(NodeId::new(round % 2), Addr::new(0)));
            t.push(MemRef::read(NodeId::new(2), Addr::new(0)));
            t.push(MemRef::read(NodeId::new(3), Addr::new(0)));
            t.push(MemRef::write(NodeId::new(round % 2), Addr::new(0)));
        }
        assert_eq!(
            classify(&t).pattern_of(block(0)),
            Some(SharingPattern::WriteShared)
        );
    }

    #[test]
    fn ref_fractions_sum_to_one() {
        let mut t = Trace::new();
        for turn in 0..10u16 {
            t.push(MemRef::write(NodeId::new(turn % 2), Addr::new(0)));
            t.push(MemRef::read(NodeId::new(5), Addr::new(16)));
            t.push(MemRef::read(NodeId::new(6), Addr::new(16)));
        }
        let c = classify(&t);
        let total: f64 = SharingPattern::ALL.iter().map(|&p| c.ref_fraction(p)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn empty_trace() {
        let c = classify(&Trace::new());
        assert!(c.is_empty());
        assert_eq!(c.ref_fraction(SharingPattern::Migratory), 0.0);
        assert_eq!(c.pattern_of(block(0)), None);
    }

    #[test]
    fn block_stats_accumulate() {
        let mut t = Trace::new();
        t.push(MemRef::read(NodeId::new(0), Addr::new(0)));
        t.push(MemRef::write(NodeId::new(1), Addr::new(0)));
        t.push(MemRef::read(NodeId::new(1), Addr::new(0)));
        let c = classify(&t);
        let (_, _, stats) = c.iter().next().unwrap();
        assert_eq!(stats.refs, 3);
        assert_eq!(stats.reads, 2);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.nodes, 2);
        assert_eq!(stats.episodes, 2);
    }

    #[test]
    fn pattern_display_names() {
        assert_eq!(SharingPattern::Migratory.to_string(), "migratory");
        assert_eq!(
            SharingPattern::ProducerConsumer.to_string(),
            "producer-consumer"
        );
    }
}
