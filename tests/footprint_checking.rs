//! The lockstep checker checks each step over its footprint (the
//! referenced block, the blocks the step's events name, and a finite
//! cache's eviction candidates), and the whole machine only at steps
//! that are powers of two and at the end (DESIGN §11). These tests hold
//! it to the full mode, the same checker running `Checker::check_world`
//! after every step: on a correct engine both pass, and against the
//! planted-bug specification (demotion disabled) both report the same
//! first violation, at the same step, with the same detail.

use mcc::cache::{CacheConfig, CacheGeometry};
use mcc::trace::{Addr, MemOp, MemRef, NodeId};
use mcc_check::{
    protocol_points, protocol_slug, repr_points, CheckViolation, Checker, CheckerConfig,
    CHECK_BLOCK_SIZE,
};
use mcc_prng::SplitMix64;

const NODES: u16 = 4;
const BLOCKS: u64 = 6;
const TRACE_LEN: usize = 600;

fn reference(node: u16, block: u64, op: MemOp) -> MemRef {
    MemRef::new(
        NodeId::new(node),
        op,
        Addr::new(block * CHECK_BLOCK_SIZE.bytes()),
    )
}

/// Uniform traffic mixed with same-node read-then-write visits, which
/// drive blocks through the migratory detector.
fn random_trace(seed: u64) -> Vec<MemRef> {
    let mut rng = SplitMix64::new(seed);
    let mut refs = Vec::with_capacity(TRACE_LEN);
    while refs.len() < TRACE_LEN {
        let node = rng.gen_range(0..u64::from(NODES)) as u16;
        let block = rng.gen_range(0..BLOCKS);
        if rng.chance_ppm(400_000) {
            refs.push(reference(node, block, MemOp::Read));
            refs.push(reference(node, block, MemOp::Write));
        } else if rng.chance_ppm(500_000) {
            refs.push(reference(node, block, MemOp::Read));
        } else {
            refs.push(reference(node, block, MemOp::Write));
        }
    }
    refs.truncate(TRACE_LEN);
    refs
}

/// Steps `refs` through a checker for `config`, with the checks over
/// every block after each step when `full`; the first violation,
/// `finish`'s included.
fn first_violation(config: &CheckerConfig, refs: &[MemRef], full: bool) -> Option<CheckViolation> {
    let mut checker = Checker::new(config);
    for &r in refs {
        let mut checked = checker.check_step(r).map(drop);
        if full {
            checked = checked.and_then(|()| checker.check_world());
        }
        if let Err(v) = checked {
            return Some(v);
        }
    }
    checker.finish().err()
}

/// Every configuration the two modes are compared under: all nine
/// protocol points, both engines, the four directory representations,
/// and infinite caches, one two-line set, or two two-line sets, where a
/// miss's eviction candidates are only the blocks of its own set.
fn configs() -> Vec<CheckerConfig> {
    let two_ways = CacheGeometry::new(32, CHECK_BLOCK_SIZE, 2).expect("one set of two ways");
    let two_sets = CacheGeometry::new(64, CHECK_BLOCK_SIZE, 2).expect("two sets of two ways");
    let caches = [
        CacheConfig::Infinite,
        CacheConfig::Finite(two_ways),
        CacheConfig::Finite(two_sets),
    ];
    let mut configs = Vec::new();
    for protocol in protocol_points() {
        for fast_engine in [false, true] {
            for directory in repr_points() {
                for cache in caches {
                    let mut config = CheckerConfig::new(protocol, NODES);
                    config.fast_engine = fast_engine;
                    config.directory = directory;
                    config.cache = cache;
                    configs.push(config);
                }
            }
        }
    }
    configs
}

fn describe(config: &CheckerConfig) -> String {
    format!(
        "{} fast={} {} {:?} demotion={}",
        protocol_slug(config.protocol),
        config.fast_engine,
        config.directory,
        config.cache,
        config.spec_demotion_enabled
    )
}

#[test]
fn footprint_and_full_modes_agree_on_random_traces() {
    for (i, mut config) in configs().into_iter().enumerate() {
        let refs = random_trace(0x5eed ^ i as u64);
        for full in [false, true] {
            if let Some(v) = first_violation(&config, &refs, full) {
                panic!("{} (full mode {full}): {v}", describe(&config));
            }
        }
        config.spec_demotion_enabled = false;
        let footprint = first_violation(&config, &refs, false);
        let full = first_violation(&config, &refs, true);
        assert_eq!(footprint, full, "{}", describe(&config));
        // The planted bug shows wherever blocks can be demoted.
        let adaptive = config.protocol.policy().is_some();
        assert_eq!(footprint.is_some(), adaptive, "{}", describe(&config));
    }
}

/// Every trace up to `depth` more references over `alphabet`, each
/// prefix checked once in both modes: both must pass or report the
/// same violation, which ends the branch. Returns the states visited.
fn explore_both(
    footprint: &Checker,
    full: &Checker,
    alphabet: &[MemRef],
    depth: usize,
    config: &CheckerConfig,
) -> u64 {
    let mut states = 0;
    for &r in alphabet {
        states += 1;
        let (mut f, mut w) = (footprint.fork(), full.fork());
        let stepped = f.check_step(r).map(drop);
        let checked = w.check_step(r).and_then(|_| w.check_world());
        assert_eq!(stepped, checked, "{} after {r:?}", describe(config));
        if stepped.is_ok() && depth > 1 {
            states += explore_both(&f, &w, alphabet, depth - 1, config);
        }
    }
    states
}

#[test]
fn footprint_and_full_modes_agree_on_every_short_trace_over_two_blocks() {
    // 2 nodes x 2 blocks x read/write: a footprint of one block in a
    // machine of two, through every trace of length <= 5, with infinite
    // caches and through a one-set, one-way cache, where a node's
    // second block evicts its first. The full mode checks the whole
    // machine after every step.
    let mut alphabet = Vec::new();
    for node in 0..2 {
        for block in 0..2 {
            for op in [MemOp::Read, MemOp::Write] {
                alphabet.push(reference(node, block, op));
            }
        }
    }
    const STATES: u64 = 8 + 64 + 512 + 4096 + 32768;
    let one_line = CacheGeometry::new(16, CHECK_BLOCK_SIZE, 1).expect("one set of one way");
    let machines = [
        (CacheConfig::Infinite, false),
        (CacheConfig::Infinite, true),
        (CacheConfig::Finite(one_line), false),
        (CacheConfig::Finite(one_line), true),
    ];
    let mut cut_short = 0;
    for protocol in protocol_points() {
        for (cache, fast_engine) in machines {
            for demotion in [true, false] {
                let mut config = CheckerConfig::new(protocol, 2);
                config.cache = cache;
                config.fast_engine = fast_engine;
                config.spec_demotion_enabled = demotion;
                let root = Checker::new(&config);
                let states = explore_both(&root, &root.fork(), &alphabet, 5, &config);
                if demotion {
                    assert_eq!(states, STATES, "{}", describe(&config));
                } else if states < STATES {
                    cut_short += 1;
                }
            }
        }
    }
    // The planted bug ends some branches: the modes also agreed on
    // violations.
    assert!(cut_short > 0);
}
