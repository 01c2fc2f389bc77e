//! Non-panicking invariant monitoring.
//!
//! [`Engine::sweep`](crate::Engine::sweep) checks the global invariants
//! and returns a structured [`Violation`](crate::Violation) instead of
//! panicking; [`Monitor`] schedules those sweeps over a long run —
//! checking after every reference would make simulation quadratic, so
//! the monitor samples at a fixed period and the caller finishes with
//! one final full sweep.
//!
//! Each sweep is one pass over the engine's block rows. The sweep checks
//! each row's structural invariants, and the monitor supplies its line
//! check, a *data-value* check: every resident copy must hold the latest
//! written version of its block (a stale copy would let a future read
//! observe old data), and no block's latest version may fall below what
//! an earlier sweep saw (a lost write). The engine's own checker asserts
//! freshness only at the moment a copy is read or served; the monitor's
//! sweep catches a stale copy *while it sits in a cache*, before
//! anything touches it. The high-water table is keyed by block: the
//! block is the one key both engines' rows carry, since only the fast
//! engine has slots. A sweep looks up every resident line's block, so
//! the table hashes it with [`mix`], the hash the fast engine's block
//! index uses, rather than SipHash.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use mcc_prng::mix;
use mcc_trace::BlockAddr;

use crate::engine::{check_version, Engine};
use crate::error::Violation;

/// Periodically verifies an [`Engine`]'s global invariants (either the
/// reference [`DirectoryEngine`](crate::DirectoryEngine) or the fast
/// hot path, through the shared trait).
///
/// # Examples
///
/// ```
/// use mcc_core::{DirectoryEngine, DirectorySimConfig, Engine, Monitor, Protocol};
/// use mcc_placement::PagePlacement;
/// use mcc_trace::{Addr, MemRef, NodeId};
///
/// let config = DirectorySimConfig::default();
/// let mut engine = DirectoryEngine::new(
///     Protocol::Basic,
///     &config,
///     PagePlacement::round_robin(config.nodes),
/// );
/// let mut monitor = Monitor::new(2);
/// for i in 0..10u64 {
///     engine.try_step(MemRef::read(NodeId::new(0), Addr::new(i * 16))).unwrap();
///     monitor.after_step(&engine).unwrap();
/// }
/// assert_eq!(monitor.checks_run(), 5);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Monitor {
    every: u64,
    checks_run: u64,
    /// Highest latest-write version observed per block across sweeps;
    /// a later sweep seeing a lower value means a write was lost.
    high_water: HashMap<BlockAddr, u64, BuildHasherDefault<BlockHasher>>,
}

/// Hashes a [`BlockAddr`], which hashes as its index alone, by [`mix`]
/// of that index.
#[derive(Default)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, index: u64) {
        self.0 = mix(self.0 ^ index);
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }
}

impl Monitor {
    /// Default sampling period used by the batch runners.
    pub const DEFAULT_PERIOD: u64 = 4096;

    /// Most sweeps [`for_run_length`](Self::for_run_length) schedules
    /// over one run, so total monitoring cost stays proportional to the
    /// simulation itself (each sweep is linear in resident state).
    pub const MAX_SWEEPS_PER_RUN: u64 = 64;

    /// A monitor that sweeps every `every` steps (clamped to ≥ 1).
    pub fn new(every: u64) -> Self {
        Monitor {
            every: every.max(1),
            checks_run: 0,
            high_water: HashMap::default(),
        }
    }

    /// A monitor sized for a run of `len` references: sweeps every
    /// [`DEFAULT_PERIOD`](Self::DEFAULT_PERIOD) steps on short runs,
    /// stretching the period on long ones so no run pays for more than
    /// [`MAX_SWEEPS_PER_RUN`](Self::MAX_SWEEPS_PER_RUN) sweeps.
    pub fn for_run_length(len: u64) -> Self {
        Monitor::new(Monitor::DEFAULT_PERIOD.max(len / Monitor::MAX_SWEEPS_PER_RUN))
    }

    /// Sweeps the engine's invariants when its step counter crosses the
    /// sampling period; cheap no-op otherwise.
    pub fn after_step<E: Engine>(&mut self, engine: &E) -> Result<(), Violation> {
        match engine.steps().is_multiple_of(self.every) {
            true => self.verify(engine),
            false => Ok(()),
        }
    }

    /// One full sweep, on demand: the engine's structural invariants
    /// ([`Engine::verify`]) and the monitor's data-value checks, in one
    /// [`Engine::sweep`]. Every resident copy must carry the latest
    /// written version of its block, and no block's latest version may
    /// be lower than an earlier sweep observed.
    pub fn verify<E: Engine>(&mut self, engine: &E) -> Result<(), Violation> {
        self.checks_run += 1;
        let high_water = &mut self.high_water;
        engine.sweep(&mut |block, version, latest| {
            check_version(version, latest, "monitor data-value sweep")?;
            // A latest version below an earlier sweep's is a lost write.
            let seen = high_water.entry(block).or_insert(0);
            check_version(latest, latest.max(*seen), "monitor version regression")?;
            *seen = latest;
            Ok(())
        })
    }

    /// Number of full invariant sweeps performed so far.
    pub fn checks_run(&self) -> u64 {
        self.checks_run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ViolationKind;
    use crate::policy::Protocol;
    use crate::sim::{DirectoryEngine, DirectorySimConfig};
    use mcc_placement::PagePlacement;
    use mcc_trace::{Addr, MemRef, NodeId};

    fn engine(protocol: Protocol) -> DirectoryEngine {
        let config = DirectorySimConfig::default();
        DirectoryEngine::new(protocol, &config, PagePlacement::round_robin(config.nodes))
    }

    #[test]
    fn samples_at_the_configured_period() {
        let mut engine = engine(Protocol::Conventional);
        let mut monitor = Monitor::new(3);
        for i in 0..9u64 {
            engine
                .try_step(MemRef::read(NodeId::new(0), Addr::new(i * 16)))
                .unwrap();
            monitor.after_step(&engine).unwrap();
        }
        assert_eq!(monitor.checks_run(), 3);
    }

    #[test]
    fn run_length_sizing_caps_the_sweep_count() {
        assert_eq!(Monitor::for_run_length(0).every, Monitor::DEFAULT_PERIOD);
        assert_eq!(
            Monitor::for_run_length(100_000).every,
            Monitor::DEFAULT_PERIOD
        );
        let long = Monitor::for_run_length(2_000_000);
        assert_eq!(long.every, 2_000_000 / Monitor::MAX_SWEEPS_PER_RUN);
    }

    #[test]
    fn zero_period_is_clamped_to_every_step() {
        let mut engine = engine(Protocol::Conventional);
        let mut monitor = Monitor::new(0);
        engine
            .try_step(MemRef::read(NodeId::new(0), Addr::new(0)))
            .unwrap();
        monitor.after_step(&engine).unwrap();
        assert_eq!(monitor.checks_run(), 1);
    }

    /// Shares a block across two nodes so a poisoned copy can sit in a
    /// cache without the engine's own structural sweep noticing.
    fn shared_block_engine() -> DirectoryEngine {
        let mut e = engine(Protocol::Conventional);
        e.step(MemRef::write(NodeId::new(1), Addr::new(0)));
        e.step(MemRef::read(NodeId::new(2), Addr::new(0)));
        e
    }

    #[test]
    fn clean_run_passes_the_data_value_sweep() {
        let e = shared_block_engine();
        let mut monitor = Monitor::new(1);
        monitor.verify(&e).unwrap();
        assert_eq!(monitor.checks_run(), 1);
    }

    #[test]
    fn stale_resident_copy_is_flagged() {
        let mut e = shared_block_engine();
        let block = Addr::new(0).block(mcc_trace::BlockSize::B16);
        // Corrupt node 2's copy back to the pre-write version. The
        // engine's structural sweep cannot see this (copyset, dirty bit
        // and memory version all still agree); only the data-value
        // sweep can.
        assert!(e.poison_line_version(NodeId::new(2), block, 0));
        e.verify().expect("structural sweep is blind to stale data");
        let mut monitor = Monitor::new(1);
        let v = monitor.verify(&e).unwrap_err();
        assert_eq!(v.context, "monitor data-value sweep");
        assert_eq!(
            v.kind,
            ViolationKind::StaleRead {
                observed: 0,
                latest: 1
            }
        );
        assert_eq!(v.block, block);
    }

    #[test]
    fn version_regression_is_flagged_as_a_lost_write() {
        // A dirty single copy: the engine skips the memory-freshness
        // comparison while the entry is dirty, so after the rollback
        // below every per-sweep check still agrees and only the
        // cross-sweep high-water mark can notice the lost write.
        let mut e = engine(Protocol::Conventional);
        e.step(MemRef::write(NodeId::new(1), Addr::new(0)));
        let block = Addr::new(0).block(mcc_trace::BlockSize::B16);
        let mut monitor = Monitor::new(1);
        monitor.verify(&e).unwrap();
        // Roll the oracle's latest-write record backwards — as if the
        // write was lost — and roll the copy back with it.
        e.poison_latest_version(block, 0);
        e.poison_line_version(NodeId::new(1), block, 0);
        let v = monitor.verify(&e).unwrap_err();
        assert_eq!(v.context, "monitor version regression");
        assert_eq!(
            v.kind,
            ViolationKind::StaleRead {
                observed: 0,
                latest: 1
            }
        );
    }

    #[test]
    fn poisoned_engine_fails_through_after_step_sampling() {
        let mut e = shared_block_engine();
        let block = Addr::new(0).block(mcc_trace::BlockSize::B16);
        assert!(e.poison_line_version(NodeId::new(2), block, 0));
        let mut monitor = Monitor::new(1);
        // steps() is 2 after the setup, a multiple of every=1, so the
        // sampled path must run the sweep and surface the violation.
        let v = monitor.after_step(&e).unwrap_err();
        assert_eq!(v.context, "monitor data-value sweep");
    }
}
