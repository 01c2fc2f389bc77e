//! Deterministic interconnect fault injection.
//!
//! The paper's cost model assumes a reliable interconnect: every
//! coherence transaction delivers. This module relaxes that assumption
//! so the protocols can be studied under an *unreliable* fabric: each
//! demand transaction (miss service or write-hit upgrade — eviction
//! traffic is lazy and off the critical path, so it is not subjected to
//! faults) is passed through a [`FaultInjector`] that may drop a
//! message, duplicate it, delay it, or NACK the request, at
//! parts-per-million rates configured per *message class*
//! ([`MessageClass`]).
//!
//! Faults never corrupt protocol state: a failed attempt consumes
//! wire traffic (tallied into the `retries`/`nacks` counters of
//! [`MessageBreakdown`](crate::MessageBreakdown)) and is retried with
//! exponential backoff, and only the final, successful attempt performs
//! the state transition and the ordinary Table 1 charge. A run under
//! faults with eventual delivery therefore reaches exactly the same
//! final cache states, block versions, and migratory classifications as
//! the fault-free run — a property the test suite checks.
//!
//! Everything is seeded: a [`FaultPlan`] carries an explicit seed and
//! the injector draws from a private [`SplitMix64`] stream, so a run is
//! bit-reproducible (no global RNG, no entropy).
//!
//! Both directory engines reach the fabric through the same two
//! definitions here: [`TransactionShape::of`], the rule that says what a
//! reference will send, and [`FaultInjector::deliver`], the
//! retry/NACK/delay/backoff loop that charges a transaction's failed
//! attempts.

use mcc_obs::Event as ObsEvent;
use mcc_prng::SplitMix64;
use mcc_trace::{BlockAddr, MemOp, MemRef, NodeId};

use crate::directory::CopySet;
use crate::engine::obs_node;
use crate::error::SimError;
use crate::msg::{charge, MessageCount, OpKind};
use crate::repr::DirectoryRepr;
use crate::result::{EventCounts, MessageBreakdown};
use crate::sim::LineState;

/// The classes of coherence message an unreliable fabric distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MessageClass {
    /// Requests from a cache to the home (miss services, upgrades).
    Request,
    /// Replies carrying data or permissions back to the requester.
    Response,
    /// Invalidations (and their acknowledgements) sent to other caches.
    Invalidation,
}

/// A single injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fault {
    /// The message vanishes; the transaction times out and retries.
    Drop,
    /// The message arrives twice; the duplicate is detected and
    /// discarded, costing one wasted message.
    Duplicate,
    /// The message is delayed by this many latency units; the
    /// transaction still completes on this attempt.
    Delay(u32),
    /// The receiver refuses the request (buffer full); the requester
    /// backs off and retries.
    Nack,
}

/// Per-message-class fault rates, in parts per million.
///
/// Integer ppm keeps the type `Eq` and the draws exact — no
/// floating-point rounding can make two "identical" plans diverge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct FaultRates {
    /// Probability (ppm) that a message is dropped.
    pub drop_ppm: u32,
    /// Probability (ppm) that a request is NACKed. Only meaningful for
    /// [`MessageClass::Request`]; ignored for other classes.
    pub nack_ppm: u32,
    /// Probability (ppm) that a message is delayed.
    pub delay_ppm: u32,
    /// Probability (ppm) that a message is duplicated.
    pub duplicate_ppm: u32,
}

impl FaultRates {
    /// No faults at all.
    pub const RELIABLE: FaultRates = FaultRates {
        drop_ppm: 0,
        nack_ppm: 0,
        delay_ppm: 0,
        duplicate_ppm: 0,
    };

    /// The same rate for every fault type.
    pub const fn uniform(ppm: u32) -> FaultRates {
        FaultRates {
            drop_ppm: ppm,
            nack_ppm: ppm,
            delay_ppm: ppm,
            duplicate_ppm: ppm,
        }
    }

    /// Whether this class can never fault.
    pub const fn is_reliable(&self) -> bool {
        self.drop_ppm == 0 && self.nack_ppm == 0 && self.delay_ppm == 0 && self.duplicate_ppm == 0
    }
}

/// A complete, explicit description of an unreliable interconnect.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Seed of the injector's private PRNG stream.
    pub seed: u64,
    /// Fault rates for cache→home requests.
    pub request: FaultRates,
    /// Fault rates for data/permission replies.
    pub response: FaultRates,
    /// Fault rates for invalidations.
    pub invalidation: FaultRates,
    /// Maximum retries per transaction before
    /// [`SimError::RetryExhausted`](crate::SimError::RetryExhausted).
    pub max_retries: u32,
    /// Livelock watchdog: maximum cumulative backoff units one
    /// transaction may accumulate before
    /// [`SimError::Livelock`](crate::SimError::Livelock).
    pub max_total_backoff: u64,
}

impl FaultPlan {
    /// A fully reliable interconnect (useful as a control arm: the
    /// injector draws nothing, so results match a run without any plan).
    pub const fn reliable(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            request: FaultRates::RELIABLE,
            response: FaultRates::RELIABLE,
            invalidation: FaultRates::RELIABLE,
            max_retries: 16,
            max_total_backoff: 1 << 20,
        }
    }

    /// The same uniform rate (ppm) for every fault type of every class.
    pub const fn uniform(seed: u64, ppm: u32) -> FaultPlan {
        FaultPlan {
            seed,
            request: FaultRates::uniform(ppm),
            response: FaultRates::uniform(ppm),
            invalidation: FaultRates::uniform(ppm),
            max_retries: 16,
            max_total_backoff: 1 << 20,
        }
    }

    /// The rates configured for `class`.
    pub const fn rates(&self, class: MessageClass) -> FaultRates {
        match class {
            MessageClass::Request => self.request,
            MessageClass::Response => self.response,
            MessageClass::Invalidation => self.invalidation,
        }
    }

    /// Whether no class can ever fault.
    pub const fn is_reliable(&self) -> bool {
        self.request.is_reliable() && self.response.is_reliable() && self.invalidation.is_reliable()
    }

    /// The plan a single shard of a sharded run draws from: identical
    /// rates and limits, but a fresh seed derived deterministically from
    /// `(self.seed, shard_id)`.
    ///
    /// Each shard needs its own stream — replaying the sequential stream
    /// on every shard would correlate faults across shards, and handing
    /// shards slices of one stream would make a shard's draws depend on
    /// how many transactions *other* shards issued. Mixing the shard id
    /// through one SplitMix64 step gives independent, well-separated
    /// streams while keeping a K-shard run bit-reproducible run-to-run.
    /// Shard 0 of a 1-shard run intentionally does *not* reuse the base
    /// seed verbatim, so overhead counters are comparable across K for a
    /// fixed K only.
    pub fn for_shard(&self, shard_id: u32) -> FaultPlan {
        let stream = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(shard_id) + 1));
        FaultPlan {
            seed: SplitMix64::new(stream).next_u64(),
            ..*self
        }
    }
}

/// Exponential backoff schedule: attempt `k` (0-based retry index)
/// waits `2^min(k, 10)` units, capping the exponent so a pathological
/// plan cannot overflow.
pub const fn backoff_units(attempt: u32) -> u64 {
    1u64 << if attempt > 10 { 10 } else { attempt }
}

/// Deterministically jittered exponential backoff: the base
/// [`backoff_units`] schedule plus a jitter in `[0, base)` drawn by
/// hashing `(seed, salt, attempt)` through one throwaway
/// [`SplitMix64`] stream.
///
/// Jitter exists to break retry lockstep: two requesters that fail at
/// the same instant and back off by identical powers of two collide
/// again on every retry, forever. Salting the draw with a
/// caller-chosen discriminator (the trace-driven engine uses its step
/// counter; live-service clients mix their node id and request
/// sequence number) de-synchronizes them while keeping every run
/// bit-reproducible — the draw is a pure function of its inputs, so
/// it needs no RNG state in checkpoints and replays identically after
/// a resume.
pub fn jittered_backoff_units(seed: u64, salt: u64, attempt: u32) -> u64 {
    let base = backoff_units(attempt);
    let mut mix = SplitMix64::new(
        seed ^ salt.rotate_left(21) ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    base + mix.gen_range(0..base)
}

/// The wire shape of one demand transaction, from the injector's point
/// of view: one request, optionally a data-bearing reply, and some
/// number of invalidations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransactionShape {
    /// Whether the reply carries a data block (miss services) rather
    /// than being a pure permission grant (upgrades).
    pub has_data_response: bool,
    /// Invalidation messages the home must fan out.
    pub invalidations: u64,
}

impl TransactionShape {
    /// The transaction reference `r` sends, or `None` when it
    /// completes without touching the interconnect (a hit with enough
    /// permission, or work Table 1 charges nothing because the home is
    /// local).
    ///
    /// Charges exactly what the engines' `hit`/`miss` will, without
    /// mutating anything, so the injector rules on the transaction
    /// *before* the state transition. It reads the requester's resident
    /// line state (`None` on a miss) and the block's directory state as
    /// `(dirty, copyset, overflowed)` (`None` before the block's first
    /// reference); `rwitm` services a read miss with ownership.
    pub(crate) fn of(
        r: MemRef,
        home: NodeId,
        rwitm: bool,
        resident: Option<LineState>,
        entry: Option<(bool, &CopySet, bool)>,
        repr: DirectoryRepr,
        nodes: u16,
    ) -> Option<TransactionShape> {
        let (n, local) = (r.node, home == r.node);
        let charged =
            |copyset, overflowed| repr.charged_distant_copies(copyset, overflowed, n, home, nodes);
        let Some(state) = resident else {
            // A dirty block has a single, precisely known owner even
            // under limited pointers.
            let (dirty, dc) = match entry {
                Some((true, copyset, _)) => (true, copyset.distant_count(n, home)),
                Some((false, copyset, overflowed)) => (false, charged(copyset, overflowed)),
                None => (false, 0),
            };
            let write_like = r.op == MemOp::Write || rwitm;
            let kind = if write_like {
                OpKind::WriteMiss
            } else {
                OpKind::ReadMiss
            };
            let msgs = charge(kind, local, dirty, dc);
            return (msgs.total() > 0).then_some(TransactionShape {
                has_data_response: msgs.data > 0,
                invalidations: if write_like { dc } else { 0 },
            });
        };
        let dc = match (r.op, state) {
            (MemOp::Read, _) | (_, LineState::Dirty | LineState::MigratoryClean) => return None,
            (MemOp::Write, LineState::Exclusive) => 0,
            (MemOp::Write, LineState::Shared) => {
                let (_, copyset, overflowed) = entry?;
                charged(copyset, overflowed)
            }
        };
        (charge(OpKind::WriteHit, local, false, dc).total() > 0).then_some(TransactionShape {
            has_data_response: false,
            invalidations: dc,
        })
    }
}

/// How one delivery attempt ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// Every message of the transaction arrived.
    Delivered,
    /// Some message was dropped; the transaction must retry.
    Dropped,
    /// The home NACKed the request; the requester backs off and retries.
    Nacked,
    /// A message was delayed in flight: it is parked inside the
    /// injector and re-injected (subjected to drop/NACK draws again)
    /// on the next [`FaultInjector::attempt`] call for this
    /// transaction. The requester waits out
    /// [`AttemptReport::delay_units`] and polls again — no resend, so
    /// a delayed-then-delivered message is counted exactly once.
    Delayed,
}

/// The injector's verdict on one attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttemptReport {
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
    /// Wire traffic consumed that the Table 1 charge does not cover:
    /// every message of a failed attempt, plus discarded duplicates.
    /// (On success the real messages are charged by the ordinary path.)
    pub wasted: MessageCount,
    /// Latency units of injected delay on this attempt.
    pub delay_units: u64,
}

/// The position of one message within a transaction's wire order:
/// request first, then the invalidation fan-out, then the reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WirePhase {
    /// The cache→home request.
    Request,
    /// Invalidation number `i` of the fan-out (0-based).
    Invalidation(u64),
    /// The data/permission reply.
    Response,
}

/// A transaction paused mid-wire because one of its messages drew a
/// delay: the parked message and the live traffic sent so far.
#[derive(Clone, Debug)]
struct InFlight {
    /// The shape the paused transaction was injected with.
    shape: TransactionShape,
    /// The delayed message, re-injected on the next attempt.
    parked: WirePhase,
    /// Wire traffic sent for this transaction that is neither wasted
    /// nor charged yet. Consumed by the ordinary Table 1 charge if the
    /// transaction completes; becomes `wasted` if a later drop or NACK
    /// forces a full resend.
    sent_live: MessageCount,
}

/// Draws faults for a simulation from a seeded private stream.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SplitMix64,
    in_flight: Option<InFlight>,
}

impl FaultInjector {
    /// Creates an injector for `plan`, seeding its stream from the plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            rng: SplitMix64::new(plan.seed),
            in_flight: None,
        }
    }

    /// Recreates an injector mid-stream from a checkpointed
    /// [`FaultInjector::rng_state`]. The resumed injector draws exactly
    /// the verdicts the original would have drawn next.
    ///
    /// Checkpoints are taken at record boundaries, where no
    /// transaction is mid-wire, so the resumed injector correctly
    /// starts with nothing parked.
    pub fn resume(plan: FaultPlan, rng_state: u64) -> Self {
        FaultInjector {
            plan,
            rng: SplitMix64::new(rng_state),
            in_flight: None,
        }
    }

    /// The plan this injector draws from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The injector's current PRNG stream position, for checkpointing.
    /// Feed it back through [`FaultInjector::resume`].
    pub fn rng_state(&self) -> u64 {
        self.rng.state()
    }

    /// Subjects one delivery attempt of a transaction to the plan.
    ///
    /// Messages are drawn in wire order — request, invalidations,
    /// response — and the first drop or NACK fails the attempt. The
    /// messages transmitted up to the failure point (plus any discarded
    /// duplicates) are reported as `wasted`; a successful attempt
    /// wastes only its duplicates.
    ///
    /// A *delay* draw does not consume the message: it is parked
    /// inside the injector ([`AttemptOutcome::Delayed`]) and
    /// re-injected — subjected to fresh drop/NACK draws, but not to
    /// another delay or duplicate draw — on the next `attempt` call
    /// for the same shape. Messages delivered before the parked one
    /// stay delivered across the deferral, so a delayed-then-delivered
    /// message is sent (and charged) exactly once; only a subsequent
    /// drop or NACK invalidates the partial progress and turns it into
    /// wasted traffic for the resend.
    pub fn attempt(&mut self, shape: TransactionShape) -> AttemptReport {
        // Fast path: a reliable plan must not advance the RNG, so a
        // reliable injector is bit-identical to no injector at all.
        if self.plan.is_reliable() {
            return AttemptReport {
                outcome: AttemptOutcome::Delivered,
                wasted: MessageCount::ZERO,
                delay_units: 0,
            };
        }

        // Traffic from earlier deferred attempts of this transaction
        // that is still in play, and traffic from an abandoned
        // transaction (defensive: callers are expected to poll a
        // parked transaction to completion before starting another).
        let mut live_before = MessageCount::ZERO;
        let mut stale = MessageCount::ZERO;
        let mut resume_idx: Option<u64> = None;
        if let Some(fl) = self.in_flight.take() {
            if fl.shape == shape {
                live_before = fl.sent_live;
                resume_idx = Some(match fl.parked {
                    WirePhase::Request => 0,
                    WirePhase::Invalidation(i) => 1 + i,
                    WirePhase::Response => 1 + fl.shape.invalidations,
                });
            } else {
                stale = fl.sent_live;
            }
        }

        let mut sent = MessageCount::ZERO;
        let mut duplicates = MessageCount::ZERO;
        let total = 1 + shape.invalidations + u64::from(shape.has_data_response);
        let start = resume_idx.unwrap_or(0);
        for idx in start..total {
            let (class, msg) = if idx == 0 {
                (MessageClass::Request, MessageCount::new(1, 0))
            } else if idx <= shape.invalidations {
                (MessageClass::Invalidation, MessageCount::new(1, 0))
            } else {
                (MessageClass::Response, MessageCount::new(0, 1))
            };
            let rates = self.plan.rates(class);
            // The parked message was already sent and already drew its
            // duplicate/delay verdicts; re-injection only re-exposes it
            // to loss and refusal.
            let reinjecting = resume_idx == Some(idx);
            if !reinjecting {
                sent += msg;
                if self.rng.chance_ppm(rates.duplicate_ppm) {
                    duplicates += msg;
                }
                if self.rng.chance_ppm(rates.delay_ppm) {
                    let units = 1 + self.rng.gen_range(0..4);
                    let parked = if idx == 0 {
                        WirePhase::Request
                    } else if idx <= shape.invalidations {
                        WirePhase::Invalidation(idx - 1)
                    } else {
                        WirePhase::Response
                    };
                    self.in_flight = Some(InFlight {
                        shape,
                        parked,
                        sent_live: live_before + sent,
                    });
                    return AttemptReport {
                        outcome: AttemptOutcome::Delayed,
                        wasted: duplicates + stale,
                        delay_units: units,
                    };
                }
            }
            if self.rng.chance_ppm(rates.drop_ppm) {
                return AttemptReport {
                    outcome: AttemptOutcome::Dropped,
                    wasted: live_before + sent + duplicates + stale,
                    delay_units: 0,
                };
            }
            if class == MessageClass::Request && self.rng.chance_ppm(rates.nack_ppm) {
                // The NACK reply itself is a control message on the wire.
                return AttemptReport {
                    outcome: AttemptOutcome::Nacked,
                    wasted: live_before + sent + MessageCount::new(1, 0) + duplicates + stale,
                    delay_units: 0,
                };
            }
        }

        // Delivered: `live_before + sent` is exactly one copy of every
        // message, consumed by the caller's ordinary Table 1 charge.
        AttemptReport {
            outcome: AttemptOutcome::Delivered,
            wasted: duplicates + stale,
            delay_units: 0,
        }
    }

    /// Delivers one transaction of `shape`, sent by `node` for `block`
    /// at engine step `step`: replays [`attempt`](Self::attempt)s until
    /// one delivers or the plan's budgets run out, charging the wasted
    /// traffic to `messages`, tallying NACKs, retries and backoff in
    /// `events`, and narrating each failed attempt and the total wait
    /// through `emit`. Returns the backoff and delay units the
    /// reference waited.
    ///
    /// Faults never touch protocol state: the engine performs the state
    /// transition (and the ordinary Table 1 charge) only after this
    /// returns `Ok`.
    ///
    /// # Errors
    ///
    /// [`SimError::RetryExhausted`] when `max_retries + 1` attempts all
    /// fail, and [`SimError::Livelock`] once the cumulative wait passes
    /// `max_total_backoff`.
    pub(crate) fn deliver(
        &mut self,
        shape: TransactionShape,
        (step, block, node): (u64, BlockAddr, NodeId),
        messages: &mut MessageBreakdown,
        events: &mut EventCounts,
        mut emit: impl FnMut(&ObsEvent),
    ) -> Result<u64, SimError> {
        let plan = self.plan;
        let (ob, on) = (block.index(), obs_node(node));
        let livelock = |backoff_units| SimError::Livelock {
            block,
            node,
            backoff_units,
            step,
        };
        let mut attempt = 0u32;
        let mut backoff_total = 0u64;
        loop {
            let report = self.attempt(shape);
            backoff_total += report.delay_units;
            match report.outcome {
                AttemptOutcome::Delivered => {
                    messages.retries += report.wasted;
                    break;
                }
                AttemptOutcome::Delayed => {
                    // A message is parked in flight: wait out the delay
                    // (already added to `backoff_total`) and poll again.
                    // Not a resend, so it costs no retry and does not
                    // consume the retry budget — but the livelock
                    // watchdog still bounds the cumulative wait.
                    messages.retries += report.wasted;
                    if backoff_total > plan.max_total_backoff {
                        return Err(livelock(backoff_total));
                    }
                    continue;
                }
                AttemptOutcome::Dropped => {
                    messages.retries += report.wasted;
                    events.retries += 1;
                }
                AttemptOutcome::Nacked => {
                    messages.nacks += report.wasted;
                    events.nacks += 1;
                    events.retries += 1;
                    emit(&ObsEvent::Nack {
                        step,
                        block: ob,
                        node: on,
                        attempt: attempt + 1,
                    });
                }
            }
            emit(&ObsEvent::Retry {
                step,
                block: ob,
                node: on,
                attempt: attempt + 1,
            });
            if attempt >= plan.max_retries {
                return Err(SimError::RetryExhausted {
                    block,
                    node,
                    attempts: attempt + 1,
                    step,
                });
            }
            // Jittered exponential backoff (salted with the step
            // counter): deterministic and resume-safe, but two
            // transactions that fail in lockstep no longer retry in
            // lockstep.
            backoff_total += jittered_backoff_units(plan.seed, step, attempt);
            if backoff_total > plan.max_total_backoff {
                return Err(livelock(backoff_total));
            }
            attempt += 1;
        }
        if backoff_total > 0 {
            emit(&ObsEvent::Backoff {
                step,
                block: ob,
                node: on,
                units: backoff_total,
            });
        }
        events.backoff_units += backoff_total;
        Ok(backoff_total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: TransactionShape = TransactionShape {
        has_data_response: true,
        invalidations: 2,
    };

    #[test]
    fn reliable_plan_always_delivers_and_never_draws() {
        let mut inj = FaultInjector::new(FaultPlan::reliable(1));
        let twin = FaultInjector::new(FaultPlan::reliable(1));
        for _ in 0..1000 {
            let r = inj.attempt(SHAPE);
            assert_eq!(r.outcome, AttemptOutcome::Delivered);
            assert_eq!(r.wasted, MessageCount::ZERO);
            assert_eq!(r.delay_units, 0);
        }
        // Zero attempts on the twin: states must still match (no draws).
        assert_eq!(inj.rng, twin.rng);
    }

    #[test]
    fn certain_drop_always_fails_with_the_request_wasted() {
        let plan = FaultPlan {
            request: FaultRates {
                drop_ppm: 1_000_000,
                ..FaultRates::RELIABLE
            },
            ..FaultPlan::reliable(2)
        };
        let mut inj = FaultInjector::new(plan);
        let r = inj.attempt(SHAPE);
        assert_eq!(r.outcome, AttemptOutcome::Dropped);
        assert_eq!(r.wasted, MessageCount::new(1, 0));
    }

    #[test]
    fn certain_nack_wastes_request_plus_reply() {
        let plan = FaultPlan {
            request: FaultRates {
                nack_ppm: 1_000_000,
                ..FaultRates::RELIABLE
            },
            ..FaultPlan::reliable(3)
        };
        let mut inj = FaultInjector::new(plan);
        let r = inj.attempt(SHAPE);
        assert_eq!(r.outcome, AttemptOutcome::Nacked);
        assert_eq!(r.wasted, MessageCount::new(2, 0));
    }

    #[test]
    fn response_drop_wastes_the_whole_attempt() {
        let plan = FaultPlan {
            response: FaultRates {
                drop_ppm: 1_000_000,
                ..FaultRates::RELIABLE
            },
            ..FaultPlan::reliable(4)
        };
        let mut inj = FaultInjector::new(plan);
        let r = inj.attempt(SHAPE);
        assert_eq!(r.outcome, AttemptOutcome::Dropped);
        // Request + 2 invalidations + the lost data reply.
        assert_eq!(r.wasted, MessageCount::new(3, 1));
    }

    #[test]
    fn duplicates_do_not_fail_delivery() {
        let plan = FaultPlan {
            request: FaultRates {
                duplicate_ppm: 1_000_000,
                ..FaultRates::RELIABLE
            },
            ..FaultPlan::reliable(5)
        };
        let mut inj = FaultInjector::new(plan);
        let r = inj.attempt(SHAPE);
        assert_eq!(r.outcome, AttemptOutcome::Delivered);
        assert_eq!(r.wasted, MessageCount::new(1, 0));
    }

    #[test]
    fn delay_parks_the_message_then_delivers_it_exactly_once() {
        let plan = FaultPlan {
            request: FaultRates {
                delay_ppm: 1_000_000,
                ..FaultRates::RELIABLE
            },
            ..FaultPlan::reliable(6)
        };
        let mut inj = FaultInjector::new(plan);
        // First attempt: the request is parked in flight, not consumed.
        let first = inj.attempt(SHAPE);
        assert_eq!(first.outcome, AttemptOutcome::Delayed);
        assert_eq!(first.wasted, MessageCount::ZERO);
        assert!((1..=4).contains(&first.delay_units));
        // Second attempt re-injects the parked request (no re-send, no
        // second delay draw) and the transaction completes. Nothing is
        // wasted: the delayed message is counted exactly once, by the
        // ordinary Table 1 charge on delivery.
        let second = inj.attempt(SHAPE);
        assert_eq!(second.outcome, AttemptOutcome::Delivered);
        assert_eq!(second.wasted, MessageCount::ZERO);
        assert_eq!(second.delay_units, 0);
        // And the injector is quiescent again: the next transaction
        // parks afresh rather than resuming anything.
        assert_eq!(inj.attempt(SHAPE).outcome, AttemptOutcome::Delayed);
    }

    #[test]
    fn reinjected_delayed_message_can_still_be_dropped() {
        // Delay + drop both certain: the request parks on the first
        // attempt, then the re-injection loses it — the parked copy
        // becomes wasted traffic and the transaction must resend.
        let plan = FaultPlan {
            request: FaultRates {
                delay_ppm: 1_000_000,
                drop_ppm: 1_000_000,
                ..FaultRates::RELIABLE
            },
            ..FaultPlan::reliable(8)
        };
        let mut inj = FaultInjector::new(plan);
        let first = inj.attempt(SHAPE);
        assert_eq!(first.outcome, AttemptOutcome::Delayed);
        assert_eq!(first.wasted, MessageCount::ZERO);
        let second = inj.attempt(SHAPE);
        assert_eq!(second.outcome, AttemptOutcome::Dropped);
        assert_eq!(second.wasted, MessageCount::new(1, 0));
    }

    #[test]
    fn partial_progress_survives_deferrals_without_waste() {
        // Invalidations delay with certainty, so the request delivers,
        // invalidation 0 parks, re-injects, then invalidation 1 parks.
        let plan = FaultPlan {
            invalidation: FaultRates {
                delay_ppm: 1_000_000,
                ..FaultRates::RELIABLE
            },
            ..FaultPlan::reliable(9)
        };
        let mut inj = FaultInjector::new(plan);
        let a = inj.attempt(SHAPE);
        assert_eq!(a.outcome, AttemptOutcome::Delayed);
        let b = inj.attempt(SHAPE);
        assert_eq!(b.outcome, AttemptOutcome::Delayed);
        let c = inj.attempt(SHAPE);
        assert_eq!(c.outcome, AttemptOutcome::Delivered);
        // Across the whole transaction nothing was wasted: request and
        // both invalidations and the reply each crossed the wire once.
        assert_eq!(a.wasted + b.wasted + c.wasted, MessageCount::ZERO);
    }

    #[test]
    fn jittered_backoff_is_deterministic_and_bounded() {
        for attempt in 0..14u32 {
            let base = backoff_units(attempt);
            for salt in [0u64, 1, 7, 0xDEAD_BEEF] {
                let j = jittered_backoff_units(42, salt, attempt);
                assert_eq!(j, jittered_backoff_units(42, salt, attempt));
                assert!(
                    (base..2 * base).contains(&j),
                    "attempt {attempt} salt {salt}: {j} outside [{base}, {})",
                    2 * base
                );
            }
        }
        // Different salts must actually de-synchronize the schedule
        // somewhere (that is the whole point).
        let spread: std::collections::HashSet<u64> = (0..32u64)
            .map(|salt| jittered_backoff_units(42, salt, 6))
            .collect();
        assert!(spread.len() > 1, "jitter never varied across salts");
    }

    #[test]
    fn same_seed_same_verdicts() {
        let plan = FaultPlan::uniform(99, 200_000);
        let mut a = FaultInjector::new(plan);
        let mut b = FaultInjector::new(plan);
        for _ in 0..2000 {
            assert_eq!(a.attempt(SHAPE), b.attempt(SHAPE));
        }
    }

    #[test]
    fn moderate_rates_deliver_most_attempts() {
        let mut inj = FaultInjector::new(FaultPlan::uniform(7, 10_000)); // 1%
        let delivered = (0..10_000)
            .filter(|_| inj.attempt(SHAPE).outcome == AttemptOutcome::Delivered)
            .count();
        // 6 draws/attempt at 1% each: ~94% of transactions deliver,
        // and ~6% of attempts are deferrals (a delayed message waits
        // one extra poll). Allow generous slack.
        assert!(delivered > 8_500, "delivered {delivered}");
    }

    #[test]
    fn backoff_doubles_then_caps() {
        assert_eq!(backoff_units(0), 1);
        assert_eq!(backoff_units(1), 2);
        assert_eq!(backoff_units(4), 16);
        assert_eq!(backoff_units(10), 1024);
        assert_eq!(backoff_units(11), 1024);
        assert_eq!(backoff_units(u32::MAX), 1024);
    }

    #[test]
    fn shard_plans_are_deterministic_distinct_and_rate_preserving() {
        let base = FaultPlan::uniform(42, 10_000);
        let a = base.for_shard(0);
        assert_eq!(a, base.for_shard(0), "same (seed, shard) must re-derive");
        let seeds: Vec<u64> = (0..8).map(|i| base.for_shard(i).seed).collect();
        for (i, &s) in seeds.iter().enumerate() {
            assert_ne!(s, base.seed, "shard {i} must not reuse the base stream");
            for &t in &seeds[..i] {
                assert_ne!(s, t, "shard seeds must be pairwise distinct");
            }
        }
        // Only the seed changes: rates and limits carry over.
        assert_eq!(a.request, base.request);
        assert_eq!(a.invalidation, base.invalidation);
        assert_eq!(a.max_retries, base.max_retries);
        assert_eq!(a.max_total_backoff, base.max_total_backoff);
        // Different base seeds give different shard streams.
        assert_ne!(
            FaultPlan::uniform(1, 0).for_shard(3).seed,
            FaultPlan::uniform(2, 0).for_shard(3).seed
        );
    }

    #[test]
    fn resume_continues_the_fault_stream_exactly() {
        let plan = FaultPlan::uniform(13, 150_000);
        let mut a = FaultInjector::new(plan);
        for _ in 0..500 {
            a.attempt(SHAPE);
        }
        // Checkpoints happen at record boundaries, where no message is
        // parked in flight: poll the current transaction to a verdict
        // before capturing the stream position.
        while a.attempt(SHAPE).outcome == AttemptOutcome::Delayed {}
        let mut b = FaultInjector::resume(plan, a.rng_state());
        for _ in 0..500 {
            assert_eq!(a.attempt(SHAPE), b.attempt(SHAPE));
        }
    }

    /// The reference every delivery test makes: step 7, block 3,
    /// node 1.
    const AT: (u64, BlockAddr, NodeId) = (7, BlockAddr::new(3), NodeId::new(1));

    /// What one [`FaultInjector::deliver`] call charged and narrated.
    struct Delivery {
        result: Result<u64, SimError>,
        messages: MessageBreakdown,
        events: EventCounts,
        emitted: Vec<ObsEvent>,
    }

    fn deliver(plan: FaultPlan) -> Delivery {
        let mut messages = MessageBreakdown::default();
        let mut events = EventCounts::default();
        let mut emitted = Vec::new();
        let result = FaultInjector::new(plan).deliver(
            SHAPE,
            AT,
            &mut messages,
            &mut events,
            |e: &ObsEvent| emitted.push(*e),
        );
        Delivery {
            result,
            messages,
            events,
            emitted,
        }
    }

    fn certain_nack(max_retries: u32) -> FaultPlan {
        FaultPlan {
            request: FaultRates {
                nack_ppm: 1_000_000,
                ..FaultRates::RELIABLE
            },
            max_retries,
            ..FaultPlan::reliable(21)
        }
    }

    /// The backoff the loop waits after failed attempts `0..attempts`.
    fn backoff_sum(plan: &FaultPlan, attempts: u32) -> u64 {
        (0..attempts)
            .map(|a| jittered_backoff_units(plan.seed, AT.0, a))
            .sum()
    }

    #[test]
    fn certain_nack_exhausts_the_retry_budget() {
        let plan = certain_nack(4);
        let d = deliver(plan);
        let (step, block, node) = AT;
        assert_eq!(
            d.result,
            Err(SimError::RetryExhausted {
                block,
                node,
                attempts: plan.max_retries + 1,
                step,
            })
        );
        // Every attempt wastes the request and the NACK reply.
        let attempts = u64::from(plan.max_retries) + 1;
        assert_eq!(d.messages.nacks, MessageCount::new(2 * attempts, 0));
        assert_eq!(d.messages.retries, MessageCount::ZERO);
        assert_eq!(d.events.nacks, attempts);
        assert_eq!(d.events.retries, attempts);
        // A failed transaction charges no backoff and emits no Backoff.
        assert_eq!(d.events.backoff_units, 0);
        let (b, n) = (block.index(), obs_node(node));
        let expected: Vec<ObsEvent> = (1..=plan.max_retries + 1)
            .flat_map(|attempt| {
                [
                    ObsEvent::Nack {
                        step,
                        block: b,
                        node: n,
                        attempt,
                    },
                    ObsEvent::Retry {
                        step,
                        block: b,
                        node: n,
                        attempt,
                    },
                ]
            })
            .collect();
        assert_eq!(d.emitted, expected);
    }

    #[test]
    fn nack_backoff_is_the_sum_of_the_jittered_schedule() {
        // The same certain-NACK fabric with the watchdog set one unit
        // below the whole schedule: it fires on the last backoff and
        // reports exactly the sum the loop waited.
        let mut plan = certain_nack(4);
        let total = backoff_sum(&plan, plan.max_retries);
        plan.max_total_backoff = total - 1;
        let d = deliver(plan);
        let (step, block, node) = AT;
        assert_eq!(
            d.result,
            Err(SimError::Livelock {
                block,
                node,
                backoff_units: total,
                step,
            })
        );
        assert_eq!(d.events.nacks, u64::from(plan.max_retries));
        // With the watchdog one unit higher the budget is exhausted
        // instead: the sum is exact, not a bound.
        plan.max_total_backoff = total;
        assert!(matches!(
            deliver(plan).result,
            Err(SimError::RetryExhausted { .. })
        ));
    }

    #[test]
    fn certain_delay_trips_the_livelock_watchdog() {
        let mut plan = FaultPlan {
            request: FaultRates {
                delay_ppm: 1_000_000,
                ..FaultRates::RELIABLE
            },
            invalidation: FaultRates {
                delay_ppm: 1_000_000,
                ..FaultRates::RELIABLE
            },
            response: FaultRates {
                delay_ppm: 1_000_000,
                ..FaultRates::RELIABLE
            },
            ..FaultPlan::reliable(5)
        };
        plan.max_total_backoff = 3;
        // Every message of the shape parks once; the waits accumulate
        // until the first one that passes the watchdog.
        let mut twin = FaultInjector::new(plan);
        let mut waited = 0;
        while waited <= plan.max_total_backoff {
            let report = twin.attempt(SHAPE);
            assert_eq!(report.outcome, AttemptOutcome::Delayed);
            waited += report.delay_units;
        }
        let d = deliver(plan);
        let (step, block, node) = AT;
        assert_eq!(
            d.result,
            Err(SimError::Livelock {
                block,
                node,
                backoff_units: waited,
                step,
            })
        );
        // Waiting out a delay is not a resend.
        assert_eq!(d.events.retries, 0);
        assert_eq!(d.messages.overhead(), MessageCount::ZERO);
        assert!(d.emitted.is_empty());
    }

    #[test]
    fn delivery_after_drops_emits_one_backoff_with_the_summed_units() {
        let drops_before_delivery = |plan: FaultPlan| {
            let mut twin = FaultInjector::new(plan);
            (0..)
                .find(|_| twin.attempt(SHAPE).outcome == AttemptOutcome::Delivered)
                .expect("delivers eventually")
        };
        // A coin-flip request drop, on the first seed whose transaction
        // drops at least twice and then delivers within the budget.
        let plan = (0..)
            .map(|seed| FaultPlan {
                request: FaultRates {
                    drop_ppm: 500_000,
                    ..FaultRates::RELIABLE
                },
                ..FaultPlan::reliable(seed)
            })
            .find(|&plan| (2..=plan.max_retries).contains(&drops_before_delivery(plan)))
            .expect("some seed drops twice");
        let drops = drops_before_delivery(plan);
        let units = backoff_sum(&plan, drops);
        let d = deliver(plan);
        assert_eq!(d.result, Ok(units));
        // Each drop loses the request alone.
        assert_eq!(d.messages.retries, MessageCount::new(u64::from(drops), 0));
        assert_eq!(d.messages.nacks, MessageCount::ZERO);
        assert_eq!(d.events.retries, u64::from(drops));
        assert_eq!(d.events.backoff_units, units);
        let (step, block, node) = AT;
        let (b, n) = (block.index(), obs_node(node));
        let mut expected: Vec<ObsEvent> = (1..=drops)
            .map(|attempt| ObsEvent::Retry {
                step,
                block: b,
                node: n,
                attempt,
            })
            .collect();
        expected.push(ObsEvent::Backoff {
            step,
            block: b,
            node: n,
            units,
        });
        assert_eq!(d.emitted, expected);
    }

    #[test]
    fn shape_charges_what_the_transition_will() {
        let (n, other, home) = (NodeId::new(1), NodeId::new(2), NodeId::new(0));
        let copyset = |nodes: &[NodeId]| {
            let mut c = CopySet::new();
            for &m in nodes {
                c.insert(m);
            }
            c
        };
        let shape = |op, resident, entry| {
            let r = MemRef::new(n, op, mcc_trace::Addr::new(0));
            TransactionShape::of(r, home, false, resident, entry, DirectoryRepr::FullMap, 4)
        };
        let request_only = |invalidations| TransactionShape {
            has_data_response: false,
            invalidations,
        };
        // Hits with permission, and reads that hit, never reach the wire.
        for state in [LineState::Dirty, LineState::MigratoryClean] {
            assert_eq!(shape(MemOp::Write, Some(state), None), None);
        }
        assert_eq!(shape(MemOp::Read, Some(LineState::Shared), None), None);
        // An exclusive upgrade asks the remote home for permission.
        assert_eq!(
            shape(MemOp::Write, Some(LineState::Exclusive), None),
            Some(request_only(0))
        );
        // A shared upgrade invalidates the other distant holder.
        let both = copyset(&[n, other]);
        assert_eq!(
            shape(
                MemOp::Write,
                Some(LineState::Shared),
                Some((false, &both, false))
            ),
            Some(request_only(1))
        );
        // A read miss on a dirty remote block is served with data and
        // invalidates nothing; a write miss invalidates the owner.
        let owner = copyset(&[other]);
        let data_with = |invalidations| TransactionShape {
            has_data_response: true,
            invalidations,
        };
        assert_eq!(
            shape(MemOp::Read, None, Some((true, &owner, false))),
            Some(data_with(0))
        );
        assert_eq!(
            shape(MemOp::Write, None, Some((true, &owner, false))),
            Some(data_with(1))
        );
        // Before a block's first reference its directory state is clean
        // and empty.
        assert_eq!(shape(MemOp::Read, None, None), Some(data_with(0)));
    }

    #[test]
    fn plan_reliability_predicate() {
        assert!(FaultPlan::reliable(0).is_reliable());
        assert!(!FaultPlan::uniform(0, 1).is_reliable());
        let only_inv = FaultPlan {
            invalidation: FaultRates {
                drop_ppm: 5,
                ..FaultRates::RELIABLE
            },
            ..FaultPlan::reliable(0)
        };
        assert!(!only_inv.is_reliable());
    }
}
