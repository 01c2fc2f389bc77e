//! Exhaustive sweeps over 3 nodes x 2 blocks: every trace up to a length
//! bound, stepped through the lockstep checker at each protocol point.
//! The alphabet has 12 symbols (node x block x read/write), so a sweep
//! visits 271 452 states to L = 5 and 3 257 436 to L = 6. Depth five
//! runs with infinite caches and through a one-set, one-way cache, where
//! a node's second block evicts its first, so paths run the write-back,
//! drop-notification and uncached-interval rules that infinite caches
//! never reach.

use mcc_cache::{CacheConfig, CacheGeometry};
use mcc_check::{explore, protocol_points, protocol_slug, ExploreConfig, CHECK_BLOCK_SIZE};
use mcc_core::{AdaptivePolicy, Protocol};

/// Explores every trace of length <= `max_len` over 3 nodes x 2 blocks
/// under `cache`; the sweep must be complete and clean.
fn sweep(protocol: Protocol, cache: CacheConfig, max_len: usize) {
    let mut config = ExploreConfig::new(protocol);
    config.checker.nodes = 3;
    config.checker.cache = cache;
    config.blocks = 2;
    config.max_len = max_len;
    let out = explore(&config);
    let slug = protocol_slug(protocol);
    if let Some(cx) = out.violation {
        panic!("{slug} under {cache:?}: {}", cx.violation);
    }
    assert!(out.complete, "{slug} under {cache:?}: sweep truncated");
    let states: u64 = (1..=max_len as u32).map(|k| 12u64.pow(k)).sum();
    assert_eq!(out.states, states, "{slug} under {cache:?}");
}

/// The standard points plus an optimistic start that needs two events,
/// forgets when uncached and demotes on a write miss.
fn depth_five_points() -> Vec<Protocol> {
    let mut points = protocol_points();
    points.push(Protocol::Custom(AdaptivePolicy {
        initial_migratory: true,
        events_required: 2,
        remember_when_uncached: false,
        demote_on_write_miss: true,
    }));
    points
}

#[test]
fn depth_five_with_infinite_caches() {
    for protocol in depth_five_points() {
        sweep(protocol, CacheConfig::Infinite, 5);
    }
}

#[test]
fn depth_five_through_a_one_line_cache() {
    let one_line = CacheGeometry::new(16, CHECK_BLOCK_SIZE, 1).expect("one set of one way");
    for protocol in depth_five_points() {
        sweep(protocol, CacheConfig::Finite(one_line), 5);
    }
}

// Depth six for the paper's four protocols, one test each so the
// harness runs them side by side.

#[test]
fn depth_six_conventional() {
    sweep(Protocol::Conventional, CacheConfig::Infinite, 6);
}

#[test]
fn depth_six_conservative() {
    sweep(Protocol::Conservative, CacheConfig::Infinite, 6);
}

#[test]
fn depth_six_basic() {
    sweep(Protocol::Basic, CacheConfig::Infinite, 6);
}

#[test]
fn depth_six_aggressive() {
    sweep(Protocol::Aggressive, CacheConfig::Infinite, 6);
}
