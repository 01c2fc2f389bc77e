//! Chunked trace generation and interleaving.
//!
//! Workloads are built from *streams* of *chunks*. A chunk is a burst of
//! references that executes atomically from the trace's point of view —
//! for migratory data a chunk is one lock-protected visit, which is what
//! makes the data migratory in the first place. Chunks within a stream
//! stay in order (per-object or per-node program order); chunks from
//! different streams interleave pseudo-randomly, weighted by how much
//! work each stream still has, approximating the schedules a real
//! parallel execution produces.

use mcc_prng::SplitMix64;
use mcc_trace::{MemRef, Trace};

/// A burst of references that is not interleaved with other work.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Chunk {
    refs: Vec<MemRef>,
}

impl Chunk {
    /// Creates an empty chunk.
    pub fn new() -> Self {
        Chunk::default()
    }

    /// Appends a reference.
    pub fn push(&mut self, r: MemRef) {
        self.refs.push(r);
    }

    /// Number of references in the chunk.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Returns `true` when the chunk holds no references.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// The references, in program order.
    pub fn refs(&self) -> &[MemRef] {
        &self.refs
    }
}

impl FromIterator<MemRef> for Chunk {
    fn from_iter<I: IntoIterator<Item = MemRef>>(iter: I) -> Self {
        Chunk {
            refs: iter.into_iter().collect(),
        }
    }
}

/// An ordered sequence of chunks (e.g. the lifetime of one migratory
/// object, or one node's scan order over a read-shared table).
pub type ChunkStream = Vec<Chunk>;

/// Deterministic generation context: a seeded RNG plus the node count.
#[derive(Debug)]
pub struct GenCtx {
    rng: SplitMix64,
    nodes: u16,
}

impl GenCtx {
    /// Creates a context for `nodes` nodes from a seed.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: u16, seed: u64) -> Self {
        assert!(nodes > 0, "node count must be positive");
        GenCtx {
            rng: SplitMix64::new(seed),
            nodes,
        }
    }

    /// Number of nodes in the simulated machine.
    pub fn nodes(&self) -> u16 {
        self.nodes
    }

    /// A uniformly random node.
    pub fn random_node(&mut self) -> u16 {
        self.rng.gen_range(0..u64::from(self.nodes)) as u16
    }

    /// A uniformly random node different from `not`, when possible.
    pub fn random_other_node(&mut self, not: u16) -> u16 {
        if self.nodes == 1 {
            return 0;
        }
        let n = self.rng.gen_range(0..u64::from(self.nodes) - 1) as u16;
        if n >= not {
            n + 1
        } else {
            n
        }
    }

    /// Access to the RNG for region-specific draws.
    pub fn rng(&mut self) -> &mut SplitMix64 {
        &mut self.rng
    }
}

/// Merges chunk streams into one globally interleaved trace.
///
/// At every step a stream is chosen with probability proportional to its
/// remaining reference count, and its next chunk is emitted whole. This
/// keeps long-running activities (a reader scanning a table) spread over
/// the whole trace instead of bunching at the start.
///
/// # Examples
///
/// ```
/// use mcc_workloads::{interleave_streams, Chunk, GenCtx};
/// use mcc_trace::{Addr, MemRef, NodeId};
///
/// let a: Chunk = (0..3).map(|i| MemRef::read(NodeId::new(0), Addr::new(i * 16))).collect();
/// let b: Chunk = (0..3).map(|i| MemRef::read(NodeId::new(1), Addr::new(i * 16))).collect();
/// let mut ctx = GenCtx::new(2, 42);
/// let trace = interleave_streams(vec![vec![a.clone(), a], vec![b]], &mut ctx);
/// assert_eq!(trace.len(), 9);
/// ```
pub fn interleave_streams(streams: Vec<ChunkStream>, ctx: &mut GenCtx) -> Trace {
    struct Cursor {
        chunks: std::vec::IntoIter<Chunk>,
        remaining: u64,
    }
    let mut cursors: Vec<Cursor> = streams
        .into_iter()
        .map(|s| Cursor {
            remaining: s.iter().map(|c| c.len() as u64).sum(),
            chunks: s.into_iter(),
        })
        .collect();
    cursors.retain(|c| c.remaining > 0);
    let mut weights = Fenwick::new(cursors.iter().map(|c| c.remaining));
    let mut total: u64 = cursors.iter().map(|c| c.remaining).sum();
    let mut out = Trace::with_capacity(total as usize);
    while total > 0 {
        // Pick a stream weighted by remaining work: the first cursor
        // whose running sum of remaining counts exceeds the draw.
        let index = weights.first_above(ctx.rng().gen_range(0..total));
        let cursor = &mut cursors[index];
        let chunk = cursor
            .chunks
            .next()
            .expect("remaining > 0 implies more chunks");
        cursor.remaining -= chunk.len() as u64;
        weights.add(index, -(chunk.len() as i64));
        total -= chunk.len() as u64;
        out.extend(chunk.refs().iter().copied());
        if cursor.remaining == 0 {
            let last = cursors.len() - 1;
            let moved = cursors[last].remaining;
            weights.add(index, moved as i64);
            weights.add(last, -(moved as i64));
            cursors.swap_remove(index);
        }
    }
    out
}

/// A Fenwick (binary indexed) tree over non-negative weights: point
/// updates and the weighted pick in O(log n).
struct Fenwick {
    /// 1-based: `tree[i]` sums the weights `(i - lowbit(i), i]`.
    tree: Vec<u64>,
}

impl Fenwick {
    fn new(weights: impl Iterator<Item = u64>) -> Fenwick {
        let mut tree = vec![0];
        tree.extend(weights);
        for i in 1..tree.len() {
            let parent = i + (i & i.wrapping_neg());
            if parent < tree.len() {
                tree[parent] += tree[i];
            }
        }
        Fenwick { tree }
    }

    /// Adds `delta` to weight `index` (0-based).
    fn add(&mut self, index: usize, delta: i64) {
        let mut i = index + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add_signed(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// The smallest index whose prefix sum of weights exceeds `draw`
    /// (which must be below the total).
    fn first_above(&self, mut draw: u64) -> usize {
        let mut pos = 0;
        let mut step = (self.tree.len() - 1).checked_ilog2().map_or(0, |b| 1 << b);
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() && self.tree[next] <= draw {
                pos = next;
                draw -= self.tree[next];
            }
            step >>= 1;
        }
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_trace::{Addr, NodeId};

    fn chunk(node: u16, tag: u64, len: u64) -> Chunk {
        (0..len)
            .map(|i| MemRef::read(NodeId::new(node), Addr::new(tag * 4096 + i * 16)))
            .collect()
    }

    /// The pick as it was first written, a linear scan over the
    /// remaining cursors: the reference the Fenwick tree must match.
    fn interleave_by_scan(streams: Vec<ChunkStream>, ctx: &mut GenCtx) -> Trace {
        let mut cursors: Vec<(std::vec::IntoIter<Chunk>, u64)> = streams
            .into_iter()
            .map(|s| {
                let remaining = s.iter().map(|c| c.len() as u64).sum();
                (s.into_iter(), remaining)
            })
            .filter(|c| c.1 > 0)
            .collect();
        let mut total: u64 = cursors.iter().map(|c| c.1).sum();
        let mut out = Trace::new();
        while total > 0 {
            let mut pick = ctx.rng().gen_range(0..total);
            let mut index = 0;
            for (i, c) in cursors.iter().enumerate() {
                if pick < c.1 {
                    index = i;
                    break;
                }
                pick -= c.1;
            }
            let chunk = cursors[index].0.next().unwrap();
            cursors[index].1 -= chunk.len() as u64;
            total -= chunk.len() as u64;
            out.extend(chunk.refs().iter().copied());
            if cursors[index].1 == 0 {
                cursors.swap_remove(index);
            }
        }
        out
    }

    #[test]
    fn fenwick_pick_matches_the_linear_scan() {
        let mut rng = SplitMix64::new(0x1993);
        for round in 0..200u64 {
            // Random stream counts, chunk counts and chunk lengths
            // (including empty chunks and empty streams), so every
            // removal position and tree shape is exercised.
            let streams: Vec<ChunkStream> = (0..rng.gen_range(0..40))
                .map(|s| {
                    (0..rng.gen_range(0..6))
                        .map(|c| chunk(s as u16 % 4, s * 8 + c, rng.gen_range(0..5)))
                        .collect()
                })
                .collect();
            let fast = interleave_streams(streams.clone(), &mut GenCtx::new(4, round));
            let scan = interleave_by_scan(streams, &mut GenCtx::new(4, round));
            assert_eq!(fast, scan, "round {round}");
        }
    }

    #[test]
    fn fenwick_finds_every_weight_boundary() {
        let weights = [3u64, 0, 1, 5, 0, 0, 2];
        let tree = Fenwick::new(weights.iter().copied());
        let mut draw = 0;
        for (i, &w) in weights.iter().enumerate() {
            for _ in 0..w {
                assert_eq!(tree.first_above(draw), i, "draw {draw}");
                draw += 1;
            }
        }
    }

    #[test]
    fn chunk_basics() {
        let mut c = Chunk::new();
        assert!(c.is_empty());
        c.push(MemRef::read(NodeId::new(0), Addr::new(0)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.refs()[0].node, NodeId::new(0));
    }

    #[test]
    fn interleave_preserves_stream_order() {
        let streams = vec![
            vec![chunk(0, 0, 2), chunk(0, 1, 2), chunk(0, 2, 2)],
            vec![chunk(1, 10, 3), chunk(1, 11, 3)],
        ];
        let mut ctx = GenCtx::new(2, 7);
        let trace = interleave_streams(streams, &mut ctx);
        assert_eq!(trace.len(), 12);
        // Stream 0's chunks appear in tag order 0, 1, 2.
        let tags: Vec<u64> = trace
            .iter()
            .filter(|r| r.node == NodeId::new(0))
            .map(|r| r.addr.get() / 4096)
            .collect();
        assert!(tags.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn interleave_is_deterministic() {
        let make = || {
            (0..3u16)
                .map(|n| {
                    (0..20)
                        .flat_map(|i| vec![chunk(n, u64::from(n) * 100 + i, 2)])
                        .collect()
                })
                .collect::<Vec<_>>()
        };
        let t1 = interleave_streams(make(), &mut GenCtx::new(3, 99));
        let t2 = interleave_streams(make(), &mut GenCtx::new(3, 99));
        assert_eq!(t1, t2);
        let t3 = interleave_streams(make(), &mut GenCtx::new(3, 100));
        // With 60 chunks, different seeds almost surely give different
        // interleavings.
        assert_ne!(t1, t3);
    }

    #[test]
    fn interleave_keeps_every_reference() {
        let streams = vec![
            vec![chunk(0, 0, 7)],
            vec![],
            vec![chunk(1, 1, 1), chunk(1, 2, 1)],
            vec![Chunk::new()],
        ];
        let mut ctx = GenCtx::new(2, 0);
        let trace = interleave_streams(streams, &mut ctx);
        assert_eq!(trace.len(), 9);
    }

    #[test]
    fn chunks_stay_contiguous() {
        let streams = vec![vec![chunk(0, 0, 4)], vec![chunk(1, 1, 4)]];
        let mut ctx = GenCtx::new(2, 5);
        let trace = interleave_streams(streams, &mut ctx);
        // Node can only change at chunk boundaries (multiples of 4 here).
        for (i, pair) in trace.as_slice().windows(2).enumerate() {
            if pair[0].node != pair[1].node {
                assert_eq!((i + 1) % 4, 0, "chunk split mid-burst at {i}");
            }
        }
    }

    #[test]
    fn ctx_random_other_node_differs() {
        let mut ctx = GenCtx::new(4, 3);
        for _ in 0..100 {
            let other = ctx.random_other_node(2);
            assert_ne!(other, 2);
            assert!(other < 4);
        }
        let mut one = GenCtx::new(1, 3);
        assert_eq!(one.random_other_node(0), 0);
    }

    #[test]
    #[should_panic(expected = "node count must be positive")]
    fn zero_nodes_rejected() {
        let _ = GenCtx::new(0, 0);
    }
}
