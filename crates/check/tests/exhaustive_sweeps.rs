//! Exhaustive sweeps: every trace up to a length bound, stepped through
//! the lockstep checker at each protocol point. Over 3 nodes x 2 blocks
//! the alphabet has 12 symbols (node x block x read/write), so a sweep
//! visits 271 452 states to L = 5 and 3 257 436 to L = 6. Depth five
//! runs with infinite caches and, on both engines, through a one-set,
//! one-way cache, where a node's second block evicts its first, so paths
//! run the write-back, drop-notification and uncached-interval rules
//! that infinite caches never reach. Over 2 nodes x 3 blocks (also 12
//! symbols) a one-set, two-way cache makes a node's third block evict
//! the least recently used of the other two, so LRU order picks the
//! victim.

use mcc_cache::{CacheConfig, CacheGeometry};
use mcc_check::{
    explore, protocol_points, protocol_slug, CheckerConfig, ExploreConfig, CHECK_BLOCK_SIZE,
};
use mcc_core::{AdaptivePolicy, Protocol};

/// Explores every trace of length <= `max_len` over `machine`'s nodes x
/// `blocks`; the sweep must be complete and clean.
fn sweep(machine: CheckerConfig, blocks: u64, max_len: usize) {
    let symbols = 2 * u64::from(machine.nodes) * blocks;
    let label = format!(
        "{} under {:?} (fast engine {})",
        protocol_slug(machine.protocol),
        machine.cache,
        machine.fast_engine
    );
    let mut config = ExploreConfig::new(machine.protocol);
    config.checker = machine;
    config.blocks = blocks;
    config.max_len = max_len;
    let out = explore(&config);
    if let Some(cx) = out.violation {
        panic!("{label}: {}", cx.violation);
    }
    assert!(out.complete, "{label}: sweep truncated");
    let states: u64 = (1..=max_len as u32).map(|k| symbols.pow(k)).sum();
    assert_eq!(out.states, states, "{label}");
}

/// A machine of `nodes` nodes running `protocol` through `cache`.
fn machine(protocol: Protocol, nodes: u16, cache: CacheConfig, fast_engine: bool) -> CheckerConfig {
    let mut machine = CheckerConfig::new(protocol, nodes);
    machine.cache = cache;
    machine.fast_engine = fast_engine;
    machine
}

/// One set of `ways` ways.
fn one_set(ways: u32) -> CacheConfig {
    let bytes = u64::from(ways) * CHECK_BLOCK_SIZE.bytes();
    CacheConfig::Finite(CacheGeometry::new(bytes, CHECK_BLOCK_SIZE, ways).expect("one set"))
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
        sweep(machine(protocol, 3, CacheConfig::Infinite, false), 2, 5);
    }
}

#[test]
fn depth_five_through_a_one_line_cache() {
    for protocol in depth_five_points() {
        sweep(machine(protocol, 3, one_set(1), false), 2, 5);
    }
}

#[test]
fn depth_five_through_a_one_line_cache_on_the_fast_engine() {
    for protocol in depth_five_points() {
        sweep(machine(protocol, 3, one_set(1), true), 2, 5);
    }
}

#[test]
fn depth_five_through_a_two_way_set() {
    for protocol in depth_five_points() {
        sweep(machine(protocol, 2, one_set(2), false), 3, 5);
    }
}

#[test]
fn depth_five_through_a_two_way_set_on_the_fast_engine() {
    for protocol in depth_five_points() {
        sweep(machine(protocol, 2, one_set(2), true), 3, 5);
    }
}

// Depth six for the paper's four protocols, one test each so the
// harness runs them side by side.

fn depth_six(protocol: Protocol) {
    sweep(machine(protocol, 3, CacheConfig::Infinite, false), 2, 6);
}

#[test]
fn depth_six_conventional() {
    depth_six(Protocol::Conventional);
}

#[test]
fn depth_six_conservative() {
    depth_six(Protocol::Conservative);
}

#[test]
fn depth_six_basic() {
    depth_six(Protocol::Basic);
}

#[test]
fn depth_six_aggressive() {
    depth_six(Protocol::Aggressive);
}
