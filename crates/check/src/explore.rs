//! Exhaustive bounded exploration.
//!
//! Over a small configuration — N nodes, B blocks, read/write — there
//! are `(2·N·B)^L` traces of length L. [`explore`] enumerates *all* of
//! them up to a length bound, depth first, forking the lockstep
//! [`Checker`] at every branch so each
//! prefix's work is done exactly once. Every reachable state within
//! the bound is therefore visited and checked against the full
//! invariant suite: each step over its footprint, and each trace's
//! last state, like the end of a replay, over every block. Every trace
//! runs on the machine [`ExploreConfig::checker`] names, so under a
//! finite cache the search also reaches every eviction.
//!
//! At the CI configuration (2 nodes, 1 block, L = 8) the alphabet has
//! 4 symbols and the tree has 4 + 4² + … + 4⁸ = 87 380 states per
//! protocol point — small enough to sweep the whole protocol family on
//! every push, large enough to contain every classification pattern
//! the paper's Figure 3 can exhibit (promotion needs at most 5
//! references; demotion 2 more).

use std::time::{Duration, Instant};

use mcc_core::Protocol;
use mcc_trace::{Addr, MemOp, MemRef, NodeId, Trace};

use crate::invariants::{CheckViolation, Checker, CheckerConfig, CHECK_BLOCK_SIZE};

/// A failing trace with the violation it provokes.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The machine the trace fails on; a [`Checker`] built from it
    /// replays the failure.
    pub config: CheckerConfig,
    /// The (minimal, if shrunk) failing trace.
    pub trace: Trace,
    /// The invariant the trace breaks.
    pub violation: CheckViolation,
}

/// Bounds for one exhaustive exploration.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// The machine every trace runs on: protocol, nodes, cache,
    /// directory, engine and spec. Its nodes are an alphabet factor.
    pub checker: CheckerConfig,
    /// Blocks in the configuration (alphabet factor).
    pub blocks: u64,
    /// Maximum trace length (tree depth).
    pub max_len: usize,
    /// Abort after visiting this many states (`complete` turns false).
    pub max_states: u64,
    /// Abort on a wall-clock budget (`complete` turns false).
    pub time_budget: Option<Duration>,
}

impl ExploreConfig {
    /// The CI configuration: 2 nodes with infinite caches, 1 block,
    /// traces up to length 8, no state or time cap.
    pub fn new(protocol: Protocol) -> ExploreConfig {
        ExploreConfig {
            checker: CheckerConfig::new(protocol, 2),
            blocks: 1,
            max_len: 8,
            max_states: u64::MAX,
            time_budget: None,
        }
    }
}

/// What an exploration covered.
#[derive(Clone, Debug)]
pub struct ExploreOutcome {
    /// States (trace prefixes) actually visited and checked.
    pub states: u64,
    /// Whether the whole bounded space was covered (false when a cap
    /// or a violation stopped the search early).
    pub complete: bool,
    /// The first violation encountered, if any.
    pub violation: Option<Counterexample>,
}

struct Search {
    alphabet: Vec<MemRef>,
    max_len: usize,
    max_states: u64,
    deadline: Option<Instant>,
    states: u64,
    truncated: bool,
}

/// Exhaustively explores every trace of length ≤ `config.max_len`.
pub fn explore(config: &ExploreConfig) -> ExploreOutcome {
    let mut alphabet = Vec::new();
    for node in 0..config.checker.nodes {
        for block in 0..config.blocks {
            for op in [MemOp::Read, MemOp::Write] {
                alphabet.push(MemRef::new(
                    NodeId::new(node),
                    op,
                    Addr::new(block * CHECK_BLOCK_SIZE.bytes()),
                ));
            }
        }
    }
    let mut search = Search {
        alphabet,
        max_len: config.max_len,
        max_states: config.max_states,
        deadline: config.time_budget.map(|b| Instant::now() + b),
        states: 0,
        truncated: false,
    };
    let root = Checker::new(&config.checker);
    let mut path = Vec::with_capacity(config.max_len);
    let violation = dfs(&root, &mut path, &mut search).map(|(trace, violation)| Counterexample {
        config: config.checker.clone(),
        trace,
        violation,
    });
    ExploreOutcome {
        states: search.states,
        complete: !search.truncated && violation.is_none(),
        violation,
    }
}

fn dfs(
    checker: &Checker,
    path: &mut Vec<MemRef>,
    search: &mut Search,
) -> Option<(Trace, CheckViolation)> {
    // Where a trace ends, at a leaf or where a cap cuts the search
    // short, its last steps get the checks over every block that a
    // replay's `finish` would run, unless the last step's own checks
    // covered every block already.
    let ended = |path: &[MemRef]| {
        if checker.world_verified() {
            return None;
        }
        let violation = checker.check_world().err()?;
        Some((Trace::from(path.to_vec()), violation))
    };
    if path.len() >= search.max_len {
        return ended(path);
    }
    for i in 0..search.alphabet.len() {
        if search.states >= search.max_states
            || search.deadline.is_some_and(|d| Instant::now() >= d)
        {
            search.truncated = true;
            return ended(path);
        }
        let r = search.alphabet[i];
        search.states += 1;
        path.push(r);
        let mut child = checker.fork();
        match child.check_step(r) {
            Err(violation) => {
                return Some((Trace::from(path.clone()), violation));
            }
            Ok(_) => {
                if let Some(found) = dfs(&child, path, search) {
                    return Some(found);
                }
            }
        }
        path.pop();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants::InvariantId;
    use mcc_core::Protocol;

    #[test]
    fn small_exhaustive_sweep_is_clean_and_counts_states() {
        // 2 nodes × 1 block × r/w = 4 symbols; depth 4 → 4+16+64+256.
        let mut config = ExploreConfig::new(Protocol::Basic);
        config.max_len = 4;
        let out = explore(&config);
        assert!(out.complete);
        assert_eq!(out.states, 4 + 16 + 64 + 256);
        assert!(out.violation.is_none());
    }

    #[test]
    fn state_cap_truncates_without_failing() {
        let mut config = ExploreConfig::new(Protocol::Conventional);
        config.max_len = 6;
        config.max_states = 100;
        let out = explore(&config);
        assert!(!out.complete);
        assert_eq!(out.states, 100);
        assert!(out.violation.is_none());
    }

    #[test]
    fn an_ended_trace_gets_the_checks_over_every_block() {
        let at = |node, block, op| {
            MemRef::new(
                NodeId::new(node),
                op,
                Addr::new(block * CHECK_BLOCK_SIZE.bytes()),
            )
        };
        // Node 0 writes block 1; block 0 then changes hands. After step
        // 4, the last step checked over every block, node 0's copy of
        // block 1 takes a version no write made. The alphabet names
        // block 0 alone, so no later step's footprint holds block 1.
        let mut root = Checker::new(&CheckerConfig::new(Protocol::Basic, 2));
        let prefix = [
            at(0, 1, MemOp::Write),
            at(1, 0, MemOp::Write),
            at(0, 0, MemOp::Read),
            at(1, 0, MemOp::Write),
        ];
        for r in prefix {
            root.check_step(r).unwrap();
        }
        let block = Addr::new(CHECK_BLOCK_SIZE.bytes()).block(CHECK_BLOCK_SIZE);
        assert!(root
            .engine_mut()
            .poison_line_version(NodeId::new(0), block, 7));
        // A leaf at depth 5, and a state cap that cuts the search short
        // at depth 5, both end a trace at a step that is no power of two.
        for (max_len, max_states) in [(5, u64::MAX), (8, 1)] {
            let mut search = Search {
                alphabet: (0..2)
                    .flat_map(|n| [at(n, 0, MemOp::Read), at(n, 0, MemOp::Write)])
                    .collect(),
                max_len,
                max_states,
                deadline: None,
                states: 0,
                truncated: false,
            };
            let (trace, violation) = dfs(&root, &mut prefix.to_vec(), &mut search).unwrap();
            assert_eq!(trace.len(), 5);
            assert_eq!(violation.step, 5, "{violation}");
            assert_eq!(violation.invariant, InvariantId::DataValue, "{violation}");
            assert_eq!(violation.block, Some(1), "{violation}");
        }
    }

    #[test]
    fn two_block_alphabet_spreads_homes_across_nodes() {
        let mut config = ExploreConfig::new(Protocol::Aggressive);
        config.blocks = 2;
        config.max_len = 3;
        let out = explore(&config);
        assert!(out.complete);
        // 8 symbols: 8 + 64 + 512.
        assert_eq!(out.states, 8 + 64 + 512);
    }
}
