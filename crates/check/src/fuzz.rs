//! The differential fuzzer.
//!
//! Each case draws a random trace from a seeded `mcc-prng` stream
//! (mixing uniform traffic with short same-node read-then-write runs,
//! the pattern the migratory classifier exists to catch) and subjects
//! it to:
//!
//! * the full lockstep [`Checker`] for
//!   every requested protocol point;
//! * a **directory-vs-snoop differential**: the conventional directory
//!   protocol and snooping MESI implement the same write-invalidate
//!   policy, so with capacity-free caches their per-class reference
//!   counts must agree exactly (hits, misses, upgrade transactions,
//!   copies invalidated);
//! * the **off-line oracle bound**: for an adaptive protocol on a
//!   fault-free, capacity-free run, each block's migrations are
//!   bounded by `hints + demotions + 1`, where `hints` counts the
//!   read-miss positions [`migrate_hints`]
//!   marks profitable. Every *unhinted* migration leaves behind a
//!   clean single copy whose next foreign access demotes the block
//!   before it can migrate again — so unhinted migrations are paid for
//!   by demotions, plus one for a final migration nothing follows.
//!   (The naive per-position inclusion "adaptive migrates ⊆ hinted
//!   positions" is *not* sound — hysteresis legitimately migrates at
//!   the last access of a run, where the hint is false — see
//!   DESIGN.md §11.)
//!
//! Any violation is [shrunk](fn@crate::shrink) to a minimal
//! counterexample. With `broken_demotion_spec` set, the checker's
//! specification is built with the planted demotion bug, turning the
//! fuzzer on itself: it must find and minimize the divergence.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use mcc_core::{migrate_hints, DirectorySim, DirectorySimConfig, PlacementPolicy, Protocol};
use mcc_snoop::{BusSim, BusSimConfig, SnoopProtocol};
use mcc_trace::{Addr, MemRef, NodeId, Trace};

use crate::explore::Counterexample;
use crate::invariants::{CheckViolation, Checker, CheckerConfig, InvariantId, CHECK_BLOCK_SIZE};
use crate::shrink::shrink;

/// Predicate-evaluation budget for shrinking one counterexample.
const SHRINK_ATTEMPTS: u64 = 20_000;

/// Configuration for a fuzzing run.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Protocol points to check each case against.
    pub protocols: Vec<Protocol>,
    /// Master seed; every derived stream is a deterministic function
    /// of it.
    pub seed: u64,
    /// Number of cases (traces) to generate.
    pub cases: u64,
    /// References per trace.
    pub trace_len: usize,
    /// Nodes per configuration.
    pub nodes: u16,
    /// Blocks the generator draws from.
    pub blocks: u64,
    /// Build every checker's specification with the planted
    /// missing-demotion bug (fixture mode: violations are expected).
    pub broken_demotion_spec: bool,
    /// Drive the fast hot-path engine instead of the reference
    /// `DirectoryEngine` under every checker.
    pub fast_engine: bool,
    /// Stop starting new cases after this wall-clock budget.
    pub time_budget: Option<Duration>,
    /// Directory sharer-set representation every checker runs under.
    pub directory: mcc_core::DirectoryRepr,
}

impl FuzzConfig {
    /// A small default campaign over the standard protocol points.
    pub fn new(seed: u64) -> FuzzConfig {
        FuzzConfig {
            protocols: crate::protocol_points(),
            seed,
            cases: 8,
            trace_len: 400,
            nodes: 4,
            blocks: 6,
            broken_demotion_spec: false,
            fast_engine: false,
            time_budget: None,
            directory: mcc_core::DirectoryRepr::FullMap,
        }
    }
}

/// What a fuzzing run covered and found.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Cases actually started.
    pub cases_run: u64,
    /// Total references pushed through checkers.
    pub refs_checked: u64,
    /// Minimized counterexamples, in discovery order.
    pub counterexamples: Vec<Counterexample>,
    /// False when the time budget cut the campaign short.
    pub complete: bool,
}

/// Runs a fuzzing campaign. Deterministic for a given config.
pub fn fuzz(config: &FuzzConfig) -> FuzzReport {
    let deadline = config.time_budget.map(|b| Instant::now() + b);
    let mut master = mcc_prng::SplitMix64::new(config.seed);
    let mut report = FuzzReport {
        cases_run: 0,
        refs_checked: 0,
        counterexamples: Vec::new(),
        complete: true,
    };
    for _ in 0..config.cases {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            report.complete = false;
            break;
        }
        let mut rng = master.fork();
        let trace = random_trace(&mut rng, config);
        report.cases_run += 1;
        for &protocol in &config.protocols {
            report.refs_checked += trace.len() as u64;
            if let Some(cx) = check_case(protocol, &trace, config) {
                report.counterexamples.push(cx);
            }
        }
        if let Some(v) = differential_violation(&trace, config.nodes) {
            report
                .counterexamples
                .push(minimize(Protocol::Conventional, &trace, v, &|t| {
                    differential_violation(t, config.nodes)
                }));
        }
    }
    report
}

/// A trace mixing uniform traffic with migratory-style same-node
/// read-then-write runs.
fn random_trace(rng: &mut mcc_prng::SplitMix64, config: &FuzzConfig) -> Trace {
    let mut refs = Vec::with_capacity(config.trace_len);
    while refs.len() < config.trace_len {
        let node = NodeId::new(rng.gen_range(0..u64::from(config.nodes)) as u16);
        let block = rng.gen_range(0..config.blocks);
        let addr = Addr::new(block * CHECK_BLOCK_SIZE.bytes());
        if rng.chance_ppm(400_000) {
            // A migratory-style visit: read then write.
            refs.push(MemRef::read(node, addr));
            refs.push(MemRef::write(node, addr));
        } else if rng.chance_ppm(500_000) {
            refs.push(MemRef::read(node, addr));
        } else {
            refs.push(MemRef::write(node, addr));
        }
    }
    refs.truncate(config.trace_len);
    Trace::from(refs)
}

/// Runs one (protocol, trace) pair through the lockstep checker plus
/// the oracle bound, minimizing any violation.
fn check_case(protocol: Protocol, trace: &Trace, config: &FuzzConfig) -> Option<Counterexample> {
    let predicate = move |t: &Trace| -> Option<CheckViolation> {
        let mut cc = CheckerConfig::new(protocol, config.nodes);
        cc.spec_demotion_enabled = !config.broken_demotion_spec;
        cc.fast_engine = config.fast_engine;
        cc.directory = config.directory;
        let mut checker = Checker::new(&cc);
        for r in t.iter() {
            if let Err(v) = checker.check_step(*r) {
                return Some(v);
            }
        }
        if let Err(v) = oracle_bound_violation(&checker, protocol, t) {
            return Some(v);
        }
        checker.finish().err()
    };
    let violation = predicate(trace)?;
    Some(minimize(protocol, trace, violation, &predicate))
}

fn minimize(
    protocol: Protocol,
    trace: &Trace,
    violation: CheckViolation,
    predicate: &dyn Fn(&Trace) -> Option<CheckViolation>,
) -> Counterexample {
    let shrunk = shrink(trace, violation, predicate, SHRINK_ATTEMPTS);
    Counterexample {
        protocol,
        trace: shrunk.trace,
        violation: shrunk.violation,
    }
}

/// The per-block oracle bound (see the module docs). Uses the
/// migration/demotion counts the checker already collected from the
/// event stream.
fn oracle_bound_violation(
    checker: &Checker,
    protocol: Protocol,
    trace: &Trace,
) -> Result<(), CheckViolation> {
    if protocol.policy().is_none() {
        // Pure-migratory has no classifier and migrates unboundedly by
        // design; conventional never migrates.
        return Ok(());
    }
    let hints = migrate_hints(trace, CHECK_BLOCK_SIZE);
    let mut hinted: HashMap<u64, u64> = HashMap::new();
    for (r, hint) in trace.iter().zip(&hints) {
        if *hint {
            *hinted
                .entry(r.addr.block(CHECK_BLOCK_SIZE).index())
                .or_insert(0) += 1;
        }
    }
    for (&block, &migrations) in checker.migrations_per_block() {
        let bound = hinted.get(&block).copied().unwrap_or(0)
            + checker
                .demotions_per_block()
                .get(&block)
                .copied()
                .unwrap_or(0)
            + 1;
        if migrations > bound {
            return Err(CheckViolation {
                invariant: InvariantId::OracleBound,
                step: checker.steps(),
                block: Some(block),
                detail: format!(
                    "{migrations} migrations exceed the oracle bound {bound} \
                     (hints + demotions + 1)"
                ),
            });
        }
    }
    Ok(())
}

/// Directory (conventional) vs. snoop (MESI) differential: both are
/// write-invalidate with replicate-on-read-miss, so with capacity-free
/// caches their per-class counts must agree exactly.
pub fn differential_violation(trace: &Trace, nodes: u16) -> Option<CheckViolation> {
    let dir_config = DirectorySimConfig {
        nodes,
        block_size: CHECK_BLOCK_SIZE,
        placement: PlacementPolicy::RoundRobin,
        ..DirectorySimConfig::default()
    };
    let dir = match DirectorySim::new(Protocol::Conventional, &dir_config).try_run(trace) {
        Ok(result) => result,
        Err(e) => {
            return Some(CheckViolation {
                invariant: InvariantId::EngineError,
                step: 0,
                block: e.block().map(|b| b.index()),
                detail: e.to_string(),
            })
        }
    };
    let bus_config = BusSimConfig {
        nodes,
        block_size: CHECK_BLOCK_SIZE,
        ..BusSimConfig::default()
    };
    let mesi = BusSim::new(SnoopProtocol::Mesi, &bus_config).run(trace);
    let d = dir.events;
    let pairs = [
        ("read hits", mesi.read_hits, d.read_hits),
        ("read misses", mesi.read_misses, d.read_misses),
        ("write misses", mesi.write_misses, d.write_misses),
        // A MESI write hit on E is silent; the directory charges an
        // exclusive upgrade for the same access.
        (
            "silent write hits",
            mesi.silent_write_hits,
            d.silent_write_hits + d.exclusive_upgrades,
        ),
        // Upgrade transactions for writes hitting Shared copies.
        (
            "invalidation transactions",
            mesi.invalidations,
            d.shared_upgrades,
        ),
        // Copies killed in other caches.
        (
            "copies invalidated",
            mesi.snoop_invalidated,
            d.invalidations,
        ),
    ];
    for (label, bus, dir_count) in pairs {
        if bus != dir_count {
            return Some(CheckViolation {
                invariant: InvariantId::Differential,
                step: 0,
                block: None,
                detail: format!("{label}: snoop MESI counts {bus}, directory counts {dir_count}"),
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_campaign_finds_nothing() {
        let mut config = FuzzConfig::new(0xfeed_beef);
        config.cases = 3;
        config.trace_len = 250;
        let report = fuzz(&config);
        assert!(report.complete);
        assert_eq!(report.cases_run, 3);
        assert!(
            report.counterexamples.is_empty(),
            "unexpected: {}",
            report.counterexamples[0].violation
        );
    }

    #[test]
    fn planted_bug_is_found_and_shrunk_small() {
        let mut config = FuzzConfig::new(42);
        config.cases = 2;
        config.trace_len = 300;
        config.protocols = vec![Protocol::Aggressive];
        config.broken_demotion_spec = true;
        let report = fuzz(&config);
        assert!(!report.counterexamples.is_empty(), "bug must be found");
        for cx in &report.counterexamples {
            assert!(
                cx.trace.len() <= 6,
                "shrunk to {} records, want <= 6",
                cx.trace.len()
            );
        }
    }

    #[test]
    fn differential_agrees_on_a_seeded_trace() {
        let mut config = FuzzConfig::new(99);
        config.trace_len = 500;
        let mut rng = mcc_prng::SplitMix64::new(99);
        let trace = random_trace(&mut rng, &config);
        assert!(differential_violation(&trace, 4).is_none());
    }

    #[test]
    fn campaigns_are_deterministic_per_seed() {
        let mut config = FuzzConfig::new(7);
        config.cases = 2;
        config.trace_len = 120;
        config.protocols = vec![Protocol::Basic];
        config.broken_demotion_spec = true;
        let a = fuzz(&config);
        let b = fuzz(&config);
        let key = |r: &FuzzReport| -> Vec<(String, Vec<MemRef>)> {
            r.counterexamples
                .iter()
                .map(|c| (c.violation.to_string(), c.trace.as_slice().to_vec()))
                .collect()
        };
        assert_eq!(key(&a), key(&b));
        assert_eq!(a.refs_checked, b.refs_checked);
    }
}
