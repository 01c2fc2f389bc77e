//! Chaos-hardened channels: fault injection on real `mpsc` wires.
//!
//! A [`ChaosChannel`] wraps an [`std::sync::mpsc::Sender`] and applies
//! the same per-message fault vocabulary as `mcc-core`'s
//! [`FaultRates`] — drop, delay, duplicate — to
//! every message pushed through it. (NACKs are not a wire fault: the
//! shard's simulated directory controller draws them at receive time,
//! mirroring `MessageClass::Request` semantics in the trace-driven
//! injector.)
//!
//! *Delay* is modelled with a holdback queue: a delayed message is
//! parked and released after the next few sends on the same channel,
//! which also makes delayed messages arrive **out of order** relative
//! to later traffic — exactly the reordering hazard the sequence-number
//! dedup in [`wire`](crate::wire) exists to absorb.
//!
//! Each channel owns a private [`SplitMix64`] stream, so a run's fault
//! pattern is a pure function of the configured chaos seed and the
//! channel's identity, independent of thread scheduling.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use mcc_core::FaultRates;
use mcc_obs::Telemetry;
use mcc_prng::SplitMix64;

/// How many subsequent sends a delayed message is held back for, at
/// most. Small on purpose: the point is reordering, not starvation —
/// a parked message is guaranteed out after this many sends or one
/// [`ChaosChannel::flush`].
const MAX_HOLDBACK: u64 = 3;

/// Counters for what a chaos channel did to its traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Messages offered to the channel.
    pub sent: u64,
    /// Messages silently dropped.
    pub dropped: u64,
    /// Messages parked in the holdback queue (each is eventually
    /// delivered or counted in `dropped_in_holdback` at teardown).
    pub delayed: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
}

impl ChannelStats {
    /// Sums two stat blocks (used to aggregate across channels).
    pub fn absorb(&mut self, other: &ChannelStats) {
        self.sent += other.sent;
        self.dropped += other.dropped;
        self.delayed += other.delayed;
        self.duplicated += other.duplicated;
    }

    /// Whether any fault was injected at all.
    pub fn faulted(&self) -> bool {
        self.dropped > 0 || self.delayed > 0 || self.duplicated > 0
    }
}

/// Live twins of [`ChannelStats`]: atomic counters many channels bump
/// *as they act*, so the telemetry plane can snapshot wire behavior
/// mid-run instead of waiting for channel teardown.
///
/// Cloning shares the underlying counters; a run typically keeps one
/// bundle per wire direction and hands a clone to every channel on it.
#[derive(Clone, Debug)]
pub struct SharedChannelStats {
    /// Messages offered.
    pub sent: Arc<AtomicU64>,
    /// Messages silently dropped.
    pub dropped: Arc<AtomicU64>,
    /// Messages parked in a holdback queue.
    pub delayed: Arc<AtomicU64>,
    /// Extra copies injected.
    pub duplicated: Arc<AtomicU64>,
}

impl Default for SharedChannelStats {
    fn default() -> Self {
        SharedChannelStats::new()
    }
}

impl SharedChannelStats {
    /// Fresh, unregistered counters.
    pub fn new() -> SharedChannelStats {
        SharedChannelStats {
            sent: Arc::new(AtomicU64::new(0)),
            dropped: Arc::new(AtomicU64::new(0)),
            delayed: Arc::new(AtomicU64::new(0)),
            duplicated: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Counters registered on a [`Telemetry`] plane as
    /// `<prefix>.sent` / `.dropped` / `.delayed` / `.duplicated`.
    pub fn registered(plane: &Telemetry, prefix: &str) -> SharedChannelStats {
        SharedChannelStats {
            sent: plane.counter(&format!("{prefix}.sent")),
            dropped: plane.counter(&format!("{prefix}.dropped")),
            delayed: plane.counter(&format!("{prefix}.delayed")),
            duplicated: plane.counter(&format!("{prefix}.duplicated")),
        }
    }

    /// A point-in-time [`ChannelStats`] view.
    pub fn snapshot(&self) -> ChannelStats {
        ChannelStats {
            sent: self.sent.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
        }
    }
}

/// A fault-injecting wrapper around an `mpsc` sender.
pub struct ChaosChannel<T: Clone> {
    tx: Sender<T>,
    rates: FaultRates,
    rng: SplitMix64,
    /// Parked (message, remaining sends before release) pairs.
    holdback: VecDeque<(T, u64)>,
    /// What this channel has done so far.
    pub stats: ChannelStats,
    /// Optional live stats, bumped alongside `stats`.
    shared: Option<SharedChannelStats>,
    /// Optional receiver-queue depth gauge, incremented on every
    /// message actually handed to `tx` (the matching decrement is the
    /// receiver's job).
    depth: Option<Arc<AtomicI64>>,
}

impl<T: Clone> ChaosChannel<T> {
    /// Wraps `tx`, drawing faults at `rates` from a stream seeded with
    /// `seed`. With [`FaultRates::RELIABLE`] the channel is a plain
    /// pass-through and the RNG is never advanced.
    pub fn new(tx: Sender<T>, rates: FaultRates, seed: u64) -> ChaosChannel<T> {
        ChaosChannel {
            tx,
            rates,
            rng: SplitMix64::new(seed),
            holdback: VecDeque::new(),
            stats: ChannelStats::default(),
            shared: None,
            depth: None,
        }
    }

    /// Attaches live telemetry: shared stats bumped per action, and
    /// (optionally) a queue-depth gauge for the receiving side. The
    /// fault pattern is unaffected — the RNG draw order is identical
    /// with or without telemetry.
    pub fn with_telemetry(
        mut self,
        shared: SharedChannelStats,
        depth: Option<Arc<AtomicI64>>,
    ) -> ChaosChannel<T> {
        self.shared = Some(shared);
        self.depth = depth;
        self
    }

    /// Hands a message to the real sender, maintaining the depth gauge.
    fn deliver(&mut self, msg: T) -> bool {
        let ok = self.tx.send(msg).is_ok();
        if ok {
            if let Some(depth) = &self.depth {
                depth.fetch_add(1, Ordering::Relaxed);
            }
        }
        ok
    }

    fn bump(&self, field: impl Fn(&SharedChannelStats) -> &Arc<AtomicU64>) {
        if let Some(shared) = &self.shared {
            field(shared).fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Sends a message through the chaos layer.
    ///
    /// Returns `false` only when the receiving side has hung up;
    /// injected faults (a dropped or parked message) still return
    /// `true`, because from the sender's point of view the message
    /// left — finding out otherwise is the retry loop's job.
    pub fn send(&mut self, msg: T) -> bool {
        self.pump();
        self.stats.sent += 1;
        self.bump(|s| &s.sent);
        if self.rates == FaultRates::RELIABLE {
            return self.deliver(msg);
        }
        if self.rng.chance_ppm(self.rates.drop_ppm) {
            self.stats.dropped += 1;
            self.bump(|s| &s.dropped);
            return true;
        }
        if self.rng.chance_ppm(self.rates.delay_ppm) {
            let hold = 1 + self.rng.gen_range(0..MAX_HOLDBACK);
            self.holdback.push_back((msg, hold));
            self.stats.delayed += 1;
            self.bump(|s| &s.delayed);
            return true;
        }
        if self.rng.chance_ppm(self.rates.duplicate_ppm) {
            self.stats.duplicated += 1;
            self.bump(|s| &s.duplicated);
            let copy = msg.clone();
            let ok = self.deliver(msg);
            let _ = self.deliver(copy);
            ok
        } else {
            self.deliver(msg)
        }
    }

    /// Ages the holdback queue by one send and releases due messages.
    fn pump(&mut self) {
        if self.holdback.is_empty() {
            return;
        }
        for entry in self.holdback.iter_mut() {
            entry.1 = entry.1.saturating_sub(1);
        }
        while let Some((_, 0)) = self.holdback.front() {
            let (msg, _) = self.holdback.pop_front().expect("front checked");
            let _ = self.deliver(msg);
        }
    }

    /// Releases everything still parked, in order. Call before
    /// dropping the channel so a delayed message cannot be lost to
    /// teardown (delay must stay a *delay*, never a silent drop).
    pub fn flush(&mut self) {
        while let Some((msg, _)) = self.holdback.pop_front() {
            let _ = self.deliver(msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn reliable_channel_is_a_pass_through() {
        let (tx, rx) = mpsc::channel();
        let mut c = ChaosChannel::new(tx, FaultRates::RELIABLE, 7);
        for i in 0..100u32 {
            assert!(c.send(i));
        }
        let got: Vec<u32> = rx.try_iter().collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(c.stats.sent, 100);
        assert!(!c.stats.faulted());
    }

    #[test]
    fn drops_lose_messages_and_are_counted() {
        let (tx, rx) = mpsc::channel();
        let rates = FaultRates {
            drop_ppm: 500_000,
            ..FaultRates::RELIABLE
        };
        let mut c = ChaosChannel::new(tx, rates, 42);
        for i in 0..1000u32 {
            c.send(i);
        }
        c.flush();
        let got = rx.try_iter().count() as u64;
        assert_eq!(got + c.stats.dropped, 1000);
        assert!(c.stats.dropped > 300, "expected ~50% drops");
    }

    #[test]
    fn delays_reorder_but_never_lose() {
        let (tx, rx) = mpsc::channel();
        let rates = FaultRates {
            delay_ppm: 400_000,
            ..FaultRates::RELIABLE
        };
        let mut c = ChaosChannel::new(tx, rates, 3);
        for i in 0..500u32 {
            c.send(i);
        }
        c.flush();
        let mut got: Vec<u32> = rx.try_iter().collect();
        assert!(c.stats.delayed > 100, "expected ~40% delays");
        // Delivery was shuffled by the holdback queue but complete.
        let reordered = got.windows(2).any(|w| w[0] > w[1]);
        assert!(reordered, "delays should reorder the stream");
        got.sort_unstable();
        assert_eq!(got, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn duplicates_add_extra_copies() {
        let (tx, rx) = mpsc::channel();
        let rates = FaultRates {
            duplicate_ppm: 300_000,
            ..FaultRates::RELIABLE
        };
        let mut c = ChaosChannel::new(tx, rates, 11);
        for i in 0..500u32 {
            c.send(i);
        }
        let got = rx.try_iter().count() as u64;
        assert_eq!(got, 500 + c.stats.duplicated);
        assert!(c.stats.duplicated > 50, "expected ~30% duplicates");
    }

    #[test]
    fn shared_stats_track_local_stats_and_depth_counts_deliveries() {
        let (tx, rx) = mpsc::channel();
        let shared = SharedChannelStats::new();
        let depth = Arc::new(AtomicI64::new(0));
        let mut c = ChaosChannel::new(tx, FaultRates::uniform(200_000), 9)
            .with_telemetry(shared.clone(), Some(depth.clone()));
        for i in 0..800u32 {
            c.send(i);
        }
        c.flush();
        assert_eq!(shared.snapshot(), c.stats);
        // Every message the receiver can observe was counted exactly
        // once in the depth gauge.
        let received = rx.try_iter().count() as i64;
        assert_eq!(depth.load(Ordering::Relaxed), received);
    }

    #[test]
    fn telemetry_does_not_change_the_fault_pattern() {
        let run = |telemetry: bool| {
            let (tx, _rx) = mpsc::channel();
            let mut c = ChaosChannel::new(tx, FaultRates::uniform(250_000), 77);
            if telemetry {
                c = c.with_telemetry(SharedChannelStats::new(), None);
            }
            for i in 0..500u32 {
                c.send(i);
            }
            c.stats
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn fault_pattern_is_deterministic_in_the_seed() {
        let run = |seed: u64| {
            let (tx, _rx) = mpsc::channel();
            let mut c = ChaosChannel::new(tx, FaultRates::uniform(250_000), seed);
            for i in 0..300u32 {
                c.send(i);
            }
            c.stats
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
