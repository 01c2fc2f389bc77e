//! Differential replay verification of a live run.
//!
//! The live service's correctness argument is evidence-based: every
//! shard records the linearized stream of references it applied (its
//! journal), and this module replays those streams through
//! `mcc-check`'s lockstep checker — the engine *and* the §2 reference
//! specification stepping side by side, with the full invariant suite
//! between them. A [`JournalReplay`] is the one judge of a journal: the
//! in-run sampler, [`verify_run`] and `obs_report --live` all step
//! theirs through it, each entry once. A live run is accepted only if
//!
//! 1. every journal replays with **zero checker violations** (so the
//!    live engines obeyed the paper's detection/demotion rules and
//!    Table-1 message accounting, including across crash-restarts);
//! 2. the replayed outcome of each entry (`kind`, `messages`) equals
//!    what the live shard charged and acknowledged at the time;
//! 3. each surviving shard's final [`SimResult`] equals the replay's —
//!    the WAL really is the whole story;
//! 4. the journal's committed event stream (framing events aside)
//!    equals the events the checker's own engine emitted, proving
//!    restarts never dropped or duplicated an observation;
//! 5. the per-client sequence numbers in the journals form exactly the
//!    gap-free prefix `1..=k` that clients report acknowledged — the
//!    *no-lost-writes / exactly-once* oracle. Chaos may add latency
//!    and retries; it must never add or lose an acknowledged write.

use std::collections::HashMap;

use mcc_check::{Checker, CheckerConfig};
use mcc_core::{MessageCount, Protocol, SimResult, StepKind};
use mcc_obs::Event;
use mcc_trace::MemRef;

use crate::client::ClientReport;
use crate::service::ShardOutcome;

/// The outcome of a verification pass.
#[derive(Clone, Debug, Default)]
pub struct VerifyOutcome {
    /// Shards whose journals were replayed.
    pub shards_checked: usize,
    /// Total journal entries replayed through the checker.
    pub steps_replayed: u64,
    /// Human-readable violations; empty means the run verified.
    pub violations: Vec<String>,
}

impl VerifyOutcome {
    /// Whether the run verified cleanly.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    fn violation(&mut self, msg: String) {
        // Cap the list so a systemic failure stays readable.
        if self.violations.len() < 64 {
            self.violations.push(msg);
        }
    }
}

/// Is this event part of a shard's *protocol* narration (as opposed to
/// checkpoint/incarnation framing)?
fn is_protocol_event(e: &Event) -> bool {
    !matches!(
        e,
        Event::CheckpointSaved { .. }
            | Event::CheckpointLoaded { .. }
            | Event::ShardStarted { .. }
            | Event::ShardFinished { .. }
    )
}

/// One shard journal's replay through the lockstep checker, on the
/// machine every live shard runs. It can be stepped a little at a time
/// (the in-run sampler) and continued later (the verdict); it stops
/// stepping at the first checker violation.
pub struct JournalReplay {
    shard: u32,
    /// `None` once a checker violation ended the replay.
    checker: Option<Checker>,
    /// Journal entries consumed so far.
    cursor: usize,
}

impl JournalReplay {
    /// A replay of shard `shard`'s journal from its first entry.
    pub fn new(protocol: Protocol, nodes: u16, shard: u32) -> JournalReplay {
        JournalReplay {
            shard,
            checker: Some(Checker::new(&CheckerConfig::new(protocol, nodes))),
            cursor: 0,
        }
    }

    /// Journal entries consumed so far: where a continuation resumes.
    pub(crate) fn cursor(&self) -> usize {
        self.cursor
    }

    /// Steps the next journal entry through the checker and, when the
    /// journal recorded the outcome the live shard charged, checks that
    /// the replay charges the same.
    pub fn step(
        &mut self,
        mref: MemRef,
        recorded: Option<(StepKind, MessageCount)>,
        out: &mut VerifyOutcome,
    ) {
        let (shard, i) = (self.shard, self.cursor);
        self.cursor += 1;
        let Some(checker) = self.checker.as_mut() else {
            return;
        };
        match checker.check_step(mref) {
            Ok(info) => {
                out.steps_replayed += 1;
                if let Some((kind, messages)) = recorded {
                    if (kind, messages) != (info.kind, info.messages) {
                        out.violation(format!(
                            "shard {shard} entry {i}: live charged {kind:?}/{messages:?}, \
                             replay says {:?}/{:?}",
                            info.kind, info.messages
                        ));
                    }
                }
            }
            Err(v) => {
                out.violation(format!("shard {shard} entry {i}: checker violation: {v}"));
                self.checker = None;
            }
        }
    }

    /// Ends the replay: the checker's end-of-run totals must hold and
    /// equal the shard's `live` result (when it has one), and the
    /// protocol events among `committed` must be exactly the events the
    /// checker's engine emitted.
    pub fn finish(self, live: Option<&SimResult>, committed: &[Event], out: &mut VerifyOutcome) {
        let (shard, Some(checker)) = (self.shard, self.checker) else {
            return;
        };
        let tapped = checker.events();
        match checker.finish() {
            Ok(replayed) if live.is_some_and(|live| *live != replayed) => {
                out.violation(format!(
                    "shard {shard}: live result differs from journal replay"
                ));
            }
            Ok(_) => {}
            Err(v) => out.violation(format!("shard {shard}: checker finish: {v}")),
        }
        let committed = committed.iter().filter(|e| is_protocol_event(e));
        if !committed.clone().eq(&tapped) {
            out.violation(format!(
                "shard {shard}: committed event stream ({} events) differs from replay ({} events)",
                committed.count(),
                tapped.len()
            ));
        }
    }
}

/// Replays every shard journal through the lockstep checker and runs
/// the exactly-once sequence oracle against the client reports.
pub fn verify_run(
    protocol: Protocol,
    nodes: u16,
    shards: &[ShardOutcome],
    clients: &[ClientReport],
) -> VerifyOutcome {
    let replays = shards
        .iter()
        .map(|s| JournalReplay::new(protocol, nodes, s.shard))
        .collect();
    resume_run(replays, VerifyOutcome::default(), shards, clients)
}

/// [`verify_run`] continued from `replays` (one per shard, in order)
/// and the outcome `out` they have recorded so far: each replay steps
/// the rest of its shard's journal and finishes.
pub(crate) fn resume_run(
    replays: Vec<JournalReplay>,
    mut out: VerifyOutcome,
    shards: &[ShardOutcome],
    clients: &[ClientReport],
) -> VerifyOutcome {
    for (mut replay, shard) in replays.into_iter().zip(shards) {
        out.shards_checked += 1;
        for entry in shard.journal.get(replay.cursor()..).unwrap_or_default() {
            replay.step(entry.mref, Some((entry.kind, entry.messages)), &mut out);
        }
        replay.finish(shard.result.as_ref().ok(), &shard.events, &mut out);
    }
    sequence_oracle(&mut out, shards, clients);
    out
}

/// The exactly-once oracle: across all shards, each client's journal
/// entries must carry exactly the sequence numbers `1..=k`, each once,
/// with `k` at least the client's acknowledged count (an entry beyond
/// the acknowledged prefix is legal only when the reply was lost and
/// the client gave up — i.e. the client reported an error or the run
/// was degraded). Acknowledged write counts must match the journals
/// exactly when nothing failed.
fn sequence_oracle(out: &mut VerifyOutcome, shards: &[ShardOutcome], clients: &[ClientReport]) {
    let mut seqs: HashMap<u16, Vec<u64>> = HashMap::new();
    let mut journal_writes = 0u64;
    for shard in shards {
        for entry in &shard.journal {
            seqs.entry(entry.client).or_default().push(entry.seq);
            if entry.mref.op.is_write() {
                journal_writes += 1;
            }
        }
    }

    let clean =
        clients.iter().all(|c| c.error.is_none()) && shards.iter().all(|s| s.result.is_ok());

    for client in clients {
        let mut observed = seqs.remove(&client.node).unwrap_or_default();
        observed.sort_unstable();
        // Gap-free, duplicate-free prefix 1..=k.
        for (i, &s) in observed.iter().enumerate() {
            if s != i as u64 + 1 {
                out.violation(format!(
                    "client {}: journal sequence {} at position {} (want {}) — \
                     lost or duplicated apply",
                    client.node,
                    s,
                    i,
                    i + 1
                ));
                return;
            }
        }
        let k = observed.len() as u64;
        if k < client.ops {
            out.violation(format!(
                "client {}: acknowledged {} ops but journals hold only {} — lost writes",
                client.node, client.ops, k
            ));
        }
        // Beyond the acknowledged prefix only the single in-flight
        // reference at give-up time may appear, and only on failure.
        if client.error.is_none() && k != client.ops {
            out.violation(format!(
                "client {}: finished cleanly with {} acks but journals hold {}",
                client.node, client.ops, k
            ));
        }
        if k > client.ops + 1 {
            out.violation(format!(
                "client {}: journals hold {} entries, {} acknowledged — more than one \
                 unacknowledged apply is impossible under the blocking protocol",
                client.node, k, client.ops
            ));
        }
    }
    for (node, extra) in seqs {
        out.violation(format!(
            "journals contain entries for unknown client {node}: {} entries",
            extra.len()
        ));
    }

    if clean {
        let acked_writes: u64 = clients.iter().map(|c| c.acked_writes).sum();
        if acked_writes != journal_writes {
            out.violation(format!(
                "write-count oracle: clients acknowledge {acked_writes} writes, \
                 journals hold {journal_writes}"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;
    use crate::service::{run_live, LiveConfig, LiveReport};

    /// One clean two-shard run, shared by the tampering tests.
    fn clean_report() -> LiveReport {
        static REPORT: OnceLock<LiveReport> = OnceLock::new();
        REPORT
            .get_or_init(|| {
                let mut cfg = LiveConfig::new(Protocol::Basic, 4, 2);
                cfg.max_refs_per_client = 300;
                run_live(&cfg).expect("valid config")
            })
            .clone()
    }

    fn verify(report: &LiveReport) -> VerifyOutcome {
        verify_run(
            report.protocol,
            report.nodes,
            &report.shards,
            &report.clients,
        )
    }

    /// The shard (by position) and event index of a committed
    /// invalidation.
    fn an_invalidation(report: &LiveReport) -> (usize, usize) {
        report
            .shards
            .iter()
            .enumerate()
            .find_map(|(s, shard)| {
                let at = shard
                    .events
                    .iter()
                    .position(|e| matches!(e, Event::Invalidation { .. }));
                at.map(|i| (s, i))
            })
            .expect("a migratory workload invalidates")
    }

    #[test]
    fn the_untouched_report_verifies() {
        let report = clean_report();
        assert!(report.verify.ok(), "{:?}", report.verify.violations);
        let out = verify(&report);
        assert!(out.ok(), "{:?}", out.violations);
        assert_eq!(out.steps_replayed, report.applied());
        assert_eq!(out.shards_checked, 2);
    }

    #[test]
    fn a_changed_recorded_charge_is_one_violation_naming_its_entry() {
        let mut report = clean_report();
        let name = format!("shard {} entry 7: live charged", report.shards[1].shard);
        let entry = &mut report.shards[1].journal[7];
        entry.messages = MessageCount::new(entry.messages.control + 1, entry.messages.data);
        let out = verify(&report);
        assert_eq!(out.violations.len(), 1, "{:?}", out.violations);
        assert!(
            out.violations[0].starts_with(&name),
            "{}",
            out.violations[0]
        );
    }

    #[test]
    fn a_duplicated_or_dropped_invalidation_is_one_event_stream_violation() {
        let clean = clean_report();
        let (s, i) = an_invalidation(&clean);
        let name = format!("shard {}: committed event stream", clean.shards[s].shard);
        for duplicate in [true, false] {
            let mut report = clean.clone();
            let events = &mut report.shards[s].events;
            if duplicate {
                events.insert(i, events[i]);
            } else {
                events.remove(i);
            }
            let out = verify(&report);
            assert_eq!(out.violations.len(), 1, "{:?}", out.violations);
            assert!(
                out.violations[0].starts_with(&name),
                "{}",
                out.violations[0]
            );
        }
    }
}
