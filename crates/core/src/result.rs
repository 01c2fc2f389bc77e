//! Simulation results: message tallies and event counts.

use core::fmt;
use core::ops::{Add, AddAssign};

use crate::msg::MessageCount;
use crate::policy::Protocol;

/// Messages grouped by the operation that caused them.
///
/// The paper's tables report two totals (messages with and without data);
/// the per-cause split here supports the ablation studies and debugging.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct MessageBreakdown {
    /// Messages caused by read misses (including migrations).
    pub read_miss: MessageCount,
    /// Messages caused by write misses.
    pub write_miss: MessageCount,
    /// Messages caused by write hits needing permission or invalidations.
    pub write_hit: MessageCount,
    /// Eviction traffic: clean-drop notifications and writebacks.
    pub eviction: MessageCount,
    /// NACK overhead under an unreliable interconnect: refused requests
    /// and the NACK replies themselves. Zero on a reliable fabric.
    pub nacks: MessageCount,
    /// Retry overhead under an unreliable interconnect: messages of
    /// failed delivery attempts plus discarded duplicates. Zero on a
    /// reliable fabric.
    pub retries: MessageCount,
}

impl MessageBreakdown {
    /// Protocol-level traffic: the messages a reliable interconnect
    /// would carry (Table 1 charges plus eviction traffic). This is the
    /// figure the paper's tables report, and it is identical between a
    /// fault-free run and a faulted run with eventual delivery.
    pub fn delivered(&self) -> MessageCount {
        self.read_miss + self.write_miss + self.write_hit + self.eviction
    }

    /// Traffic on operation critical paths: the delivered traffic less
    /// eviction traffic (delayed writebacks and drop notifications
    /// happen off the requesting processor's path).
    pub fn critical_path(&self) -> MessageCount {
        self.read_miss + self.write_miss + self.write_hit
    }

    /// Resilience overhead: wire traffic consumed by NACKs and retries.
    pub fn overhead(&self) -> MessageCount {
        self.nacks + self.retries
    }

    /// Sums all causes — delivered traffic and fault overhead — into
    /// one [`MessageCount`].
    pub fn combined(&self) -> MessageCount {
        self.delivered() + self.overhead()
    }

    /// Total messages of both classes across all causes.
    pub fn total(&self) -> u64 {
        self.combined().total()
    }
}

impl Add for MessageBreakdown {
    type Output = MessageBreakdown;

    fn add(self, rhs: MessageBreakdown) -> MessageBreakdown {
        MessageBreakdown {
            read_miss: self.read_miss + rhs.read_miss,
            write_miss: self.write_miss + rhs.write_miss,
            write_hit: self.write_hit + rhs.write_hit,
            eviction: self.eviction + rhs.eviction,
            nacks: self.nacks + rhs.nacks,
            retries: self.retries + rhs.retries,
        }
    }
}

impl AddAssign for MessageBreakdown {
    fn add_assign(&mut self, rhs: MessageBreakdown) {
        *self = *self + rhs;
    }
}

impl fmt::Display for MessageBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "read miss : {}", self.read_miss)?;
        writeln!(f, "write miss: {}", self.write_miss)?;
        writeln!(f, "write hit : {}", self.write_hit)?;
        writeln!(f, "eviction  : {}", self.eviction)?;
        if self.overhead() != MessageCount::ZERO {
            writeln!(f, "nacks     : {}", self.nacks)?;
            writeln!(f, "retries   : {}", self.retries)?;
        }
        write!(f, "total     : {}", self.combined())
    }
}

/// Counts of the protocol-visible events a simulation observed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct EventCounts {
    /// Reads that hit a valid local copy.
    pub read_hits: u64,
    /// Writes that hit a Dirty copy (no coherence activity).
    pub silent_write_hits: u64,
    /// First writes to a migratory-clean copy: the pre-granted write
    /// permission was used, costing zero messages — the adaptive win.
    pub write_grants_used: u64,
    /// Write hits to clean exclusively-held copies (permission fetched
    /// from the home).
    pub exclusive_upgrades: u64,
    /// Write hits to Shared copies (invalidations issued).
    pub shared_upgrades: u64,
    /// Read misses.
    pub read_misses: u64,
    /// Write misses.
    pub write_misses: u64,
    /// Read misses serviced by migrating the block with write permission.
    pub migrations: u64,
    /// Read misses serviced by replication.
    pub replications: u64,
    /// Individual cache copies invalidated by writes.
    pub invalidations: u64,
    /// Clean blocks dropped from caches (notification sent to the home).
    pub clean_drops: u64,
    /// Dirty blocks written back on replacement.
    pub writebacks: u64,
    /// Blocks (re)classified as migratory.
    pub became_migratory: u64,
    /// Blocks declassified from migratory.
    pub became_other: u64,
    /// Write invalidations that had to broadcast because a
    /// limited-pointer directory entry had overflowed.
    pub broadcast_invalidations: u64,
    /// Transactions NACKed by the home under an unreliable interconnect.
    pub nacks: u64,
    /// Delivery attempts that failed (dropped messages or NACKs) and
    /// were retried.
    pub retries: u64,
    /// Latency units of exponential backoff and injected delay
    /// accumulated by faulted transactions (charged as stall cycles by
    /// the execution-driven simulator).
    pub backoff_units: u64,
}

impl EventCounts {
    /// Total references processed.
    pub fn refs(&self) -> u64 {
        self.read_hits
            + self.silent_write_hits
            + self.write_grants_used
            + self.exclusive_upgrades
            + self.shared_upgrades
            + self.read_misses
            + self.write_misses
    }
}

impl Add for EventCounts {
    type Output = EventCounts;

    fn add(self, rhs: EventCounts) -> EventCounts {
        EventCounts {
            read_hits: self.read_hits + rhs.read_hits,
            silent_write_hits: self.silent_write_hits + rhs.silent_write_hits,
            write_grants_used: self.write_grants_used + rhs.write_grants_used,
            exclusive_upgrades: self.exclusive_upgrades + rhs.exclusive_upgrades,
            shared_upgrades: self.shared_upgrades + rhs.shared_upgrades,
            read_misses: self.read_misses + rhs.read_misses,
            write_misses: self.write_misses + rhs.write_misses,
            migrations: self.migrations + rhs.migrations,
            replications: self.replications + rhs.replications,
            invalidations: self.invalidations + rhs.invalidations,
            clean_drops: self.clean_drops + rhs.clean_drops,
            writebacks: self.writebacks + rhs.writebacks,
            became_migratory: self.became_migratory + rhs.became_migratory,
            became_other: self.became_other + rhs.became_other,
            broadcast_invalidations: self.broadcast_invalidations + rhs.broadcast_invalidations,
            nacks: self.nacks + rhs.nacks,
            retries: self.retries + rhs.retries,
            backoff_units: self.backoff_units + rhs.backoff_units,
        }
    }
}

impl AddAssign for EventCounts {
    fn add_assign(&mut self, rhs: EventCounts) {
        *self = *self + rhs;
    }
}

impl fmt::Display for EventCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} refs", self.refs())?;
        writeln!(
            f,
            "hits: {} read, {} silent write, {} granted write",
            self.read_hits, self.silent_write_hits, self.write_grants_used
        )?;
        writeln!(
            f,
            "upgrades: {} exclusive, {} shared",
            self.exclusive_upgrades, self.shared_upgrades
        )?;
        writeln!(
            f,
            "misses: {} read ({} migrated, {} replicated), {} write",
            self.read_misses, self.migrations, self.replications, self.write_misses
        )?;
        write!(
            f,
            "{} invalidations, {} clean drops, {} writebacks, {}+/{}− reclassifications",
            self.invalidations,
            self.clean_drops,
            self.writebacks,
            self.became_migratory,
            self.became_other
        )?;
        if self.nacks + self.retries + self.backoff_units > 0 {
            write!(
                f,
                "\nfaults: {} nacks, {} retries, {} backoff units",
                self.nacks, self.retries, self.backoff_units
            )?;
        }
        Ok(())
    }
}

/// The outcome of one trace-driven directory simulation.
///
/// `Hash` is derived so the determinism tests can fingerprint a whole
/// result in one value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SimResult {
    /// The protocol simulated.
    pub protocol: Protocol,
    /// Inter-node messages, by cause.
    pub messages: MessageBreakdown,
    /// Event counts.
    pub events: EventCounts,
}

impl SimResult {
    /// A result with every counter at zero — the identity of the
    /// sharded-run merge.
    pub fn empty(protocol: Protocol) -> SimResult {
        SimResult {
            protocol,
            messages: MessageBreakdown::default(),
            events: EventCounts::default(),
        }
    }

    /// Combined message count (both classes, all causes).
    pub fn message_count(&self) -> MessageCount {
        self.messages.combined()
    }

    /// Total number of inter-node messages.
    pub fn total_messages(&self) -> u64 {
        self.messages.total()
    }

    /// Checks the arithmetic identities that hold for every result a
    /// correct engine can produce, reporting the first broken one:
    ///
    /// * every read miss was serviced by exactly one of migration or
    ///   replication;
    /// * every NACK was followed by a retry, so retries ≥ NACKs;
    /// * the combined message count equals the sum over the per-cause
    ///   classes (guards [`MessageBreakdown::combined`] against a
    ///   future field being added to the struct but dropped from the
    ///   total).
    ///
    /// A violation means counters were corrupted — a bad checkpoint
    /// restore, a buggy shard merge, or memory unsafety elsewhere.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first broken identity.
    pub fn check_consistency(&self) -> Result<(), String> {
        let e = &self.events;
        if e.read_misses != e.migrations + e.replications {
            return Err(format!(
                "{} read misses but {} migrations + {} replications",
                e.read_misses, e.migrations, e.replications
            ));
        }
        if e.nacks > e.retries {
            return Err(format!(
                "{} nacks exceed {} retries (every NACK is retried)",
                e.nacks, e.retries
            ));
        }
        let m = &self.messages;
        let by_class = m.read_miss + m.write_miss + m.write_hit + m.eviction + m.nacks + m.retries;
        if m.combined() != by_class {
            return Err(format!(
                "combined messages {} disagree with the per-class sum {}",
                m.combined(),
                by_class
            ));
        }
        Ok(())
    }

    /// Debug-build sanity gate: panics on a broken
    /// [`check_consistency`](Self::check_consistency) identity. Compiles
    /// to nothing in release builds, so the engines call it on every
    /// finished and merged result for free.
    ///
    /// # Panics
    ///
    /// In debug builds, when the result is internally inconsistent.
    pub fn debug_assert_consistent(&self) {
        #[cfg(debug_assertions)]
        if let Err(why) = self.check_consistency() {
            panic!("inconsistent SimResult: {why}");
        }
    }

    /// Percentage reduction in total messages relative to `baseline`
    /// (positive = fewer messages than the baseline), as reported in the
    /// `%` columns of Tables 2 and 3.
    pub fn percent_reduction_vs(&self, baseline: &SimResult) -> f64 {
        let base = baseline.total_messages();
        if base == 0 {
            0.0
        } else {
            100.0 * (base as f64 - self.total_messages() as f64) / base as f64
        }
    }
}

impl Add for SimResult {
    type Output = SimResult;

    /// Merges two partial results of the same protocol — the shard fold
    /// of the parallel engine. Counter addition is associative and
    /// commutative, but the engine folds shards in index order anyway so
    /// any future non-commutative field cannot silently reorder.
    ///
    /// # Panics
    ///
    /// Panics if the protocols differ: summing results across protocols
    /// is always a bug.
    fn add(self, rhs: SimResult) -> SimResult {
        assert_eq!(
            self.protocol, rhs.protocol,
            "cannot merge results of different protocols"
        );
        SimResult {
            protocol: self.protocol,
            messages: self.messages + rhs.messages,
            events: self.events + rhs.events,
        }
    }
}

impl AddAssign for SimResult {
    fn add_assign(&mut self, rhs: SimResult) {
        *self = *self + rhs;
    }
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.message_count();
        writeln!(
            f,
            "{}: {} control + {} data messages ({} total)",
            self.protocol,
            c.control,
            c.data,
            c.total()
        )?;
        write!(f, "{}", self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimResult {
        SimResult {
            protocol: Protocol::Basic,
            messages: MessageBreakdown {
                read_miss: MessageCount::new(10, 10),
                write_miss: MessageCount::new(4, 2),
                write_hit: MessageCount::new(6, 0),
                eviction: MessageCount::new(1, 2),
                ..MessageBreakdown::default()
            },
            events: EventCounts {
                read_hits: 50,
                read_misses: 20,
                write_misses: 5,
                shared_upgrades: 3,
                ..EventCounts::default()
            },
        }
    }

    #[test]
    fn breakdown_combines() {
        let r = sample();
        assert_eq!(r.message_count(), MessageCount::new(21, 14));
        assert_eq!(r.total_messages(), 35);
    }

    #[test]
    fn breakdown_addition() {
        let a = sample().messages;
        let mut b = a;
        b += a;
        assert_eq!(b.total(), 2 * a.total());
        assert_eq!(b.read_miss, MessageCount::new(20, 20));
    }

    #[test]
    fn event_refs_totals_all_reference_outcomes() {
        let e = sample().events;
        assert_eq!(e.refs(), 50 + 20 + 5 + 3);
    }

    #[test]
    fn event_addition() {
        let e = sample().events;
        let sum = e + e;
        assert_eq!(sum.read_hits, 100);
        assert_eq!(sum.refs(), 2 * e.refs());
    }

    #[test]
    fn percent_reduction() {
        let base = sample();
        let mut better = sample();
        better.messages.write_hit = MessageCount::ZERO;
        // 35 -> 29: 6/35 ≈ 17.14%
        assert!((better.percent_reduction_vs(&base) - 100.0 * 6.0 / 35.0).abs() < 1e-9);
        assert_eq!(base.percent_reduction_vs(&base), 0.0);
    }

    #[test]
    fn percent_reduction_of_zero_baseline_is_zero() {
        let mut zero = sample();
        zero.messages = MessageBreakdown::default();
        assert_eq!(sample().percent_reduction_vs(&zero), 0.0);
    }

    #[test]
    fn delivered_excludes_fault_overhead() {
        let mut m = sample().messages;
        m.nacks = MessageCount::new(5, 0);
        m.retries = MessageCount::new(3, 1);
        assert_eq!(m.delivered(), MessageCount::new(21, 14));
        assert_eq!(m.overhead(), MessageCount::new(8, 1));
        assert_eq!(m.combined(), MessageCount::new(29, 15));
        assert!(m.to_string().contains("nacks"));
        // Fault-free breakdowns keep the legacy display.
        assert!(!sample().messages.to_string().contains("nacks"));
    }

    #[test]
    fn fault_events_do_not_count_as_references() {
        let mut e = sample().events;
        let refs = e.refs();
        e.nacks = 7;
        e.retries = 9;
        e.backoff_units = 100;
        assert_eq!(e.refs(), refs);
        assert!(e.to_string().contains("7 nacks"));
    }

    #[test]
    fn empty_result_is_the_merge_identity() {
        let r = sample();
        let zero = SimResult::empty(r.protocol);
        assert_eq!(zero.total_messages(), 0);
        assert_eq!(zero + r, r);
        assert_eq!(r + zero, r);
    }

    #[test]
    fn result_merge_sums_every_counter() {
        let r = sample();
        let mut sum = SimResult::empty(r.protocol);
        sum += r;
        sum += r;
        assert_eq!(sum.total_messages(), 2 * r.total_messages());
        assert_eq!(sum.events.refs(), 2 * r.events.refs());
        assert_eq!(sum.protocol, r.protocol);
    }

    #[test]
    #[should_panic(expected = "different protocols")]
    fn result_merge_rejects_mixed_protocols() {
        let mut a = sample();
        let mut b = sample();
        a.protocol = Protocol::Basic;
        b.protocol = Protocol::Conventional;
        let _ = a + b;
    }

    fn consistent() -> SimResult {
        let mut r = sample();
        r.events.migrations = 8;
        r.events.replications = 12;
        r
    }

    #[test]
    fn consistency_accepts_well_formed_results() {
        assert_eq!(consistent().check_consistency(), Ok(()));
        consistent().debug_assert_consistent();
        SimResult::empty(Protocol::Basic)
            .check_consistency()
            .expect("the zero result is consistent");
    }

    #[test]
    fn consistency_catches_corrupted_counters() {
        let mut r = consistent();
        r.events.migrations += 1;
        let why = r
            .check_consistency()
            .expect_err("corruption must be caught");
        assert!(why.contains("read misses"), "unexpected diagnosis: {why}");

        let mut r = consistent();
        r.events.nacks = 3;
        r.events.retries = 2;
        let why = r
            .check_consistency()
            .expect_err("corruption must be caught");
        assert!(why.contains("nacks"), "unexpected diagnosis: {why}");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "inconsistent SimResult"))]
    fn debug_assertion_trips_on_corruption() {
        let mut r = consistent();
        r.events.replications += 5;
        r.debug_assert_consistent();
        // Without debug assertions the gate is compiled out; make the
        // test meaningful either way.
        #[cfg(not(debug_assertions))]
        r.check_consistency()
            .expect_err("corruption must still be detectable");
    }

    #[test]
    fn displays_are_informative() {
        let r = sample();
        assert!(r.to_string().contains("basic"));
        assert!(r.messages.to_string().contains("total"));
        assert!(r.events.to_string().contains("misses"));
    }
}
