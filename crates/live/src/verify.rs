//! Differential replay verification of a live run.
//!
//! The live service's correctness argument is evidence-based: every
//! shard records the linearized stream of references it applied (its
//! journal), and this module replays those streams through
//! `mcc-check`'s lockstep checker — the engine *and* the §2 reference
//! specification stepping side by side, with the full invariant suite
//! between them. A live run is accepted only if
//!
//! 1. every journal replays with **zero checker violations** (so the
//!    live engines obeyed the paper's detection/demotion rules and
//!    Table-1 message accounting, including across crash-restarts);
//! 2. the replayed outcome of each entry (`kind`, `messages`) equals
//!    what the live shard charged and acknowledged at the time;
//! 3. each surviving shard's final [`SimResult`](mcc_core::SimResult)
//!    equals the replay's —
//!    the WAL really is the whole story;
//! 4. the re-generated event narration equals the journal's committed
//!    event stream (framing events aside), proving restarts never
//!    dropped or duplicated an observation;
//! 5. the per-client sequence numbers in the journals form exactly the
//!    gap-free prefix `1..=k` that clients report acknowledged — the
//!    *no-lost-writes / exactly-once* oracle. Chaos may add latency
//!    and retries; it must never add or lose an acknowledged write.

use std::collections::HashMap;

use mcc_check::{Checker, CheckerConfig};
use mcc_core::Protocol;
use mcc_obs::Event;

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

/// Replays every shard journal through the lockstep checker and runs
/// the exactly-once sequence oracle against the client reports.
pub fn verify_run(
    protocol: Protocol,
    nodes: u16,
    shards: &[ShardOutcome],
    clients: &[ClientReport],
) -> VerifyOutcome {
    let mut out = VerifyOutcome::default();

    for shard in shards {
        out.shards_checked += 1;
        let mut checker = Checker::new(&CheckerConfig::new(protocol, nodes));
        let mut dead = false;
        for (i, entry) in shard.journal.iter().enumerate() {
            match checker.check_step(entry.mref) {
                Ok(info) => {
                    out.steps_replayed += 1;
                    if info.kind != entry.kind || info.messages != entry.messages {
                        out.violation(format!(
                            "shard {} entry {i}: live charged {:?}/{:?}, replay says {:?}/{:?}",
                            shard.shard, entry.kind, entry.messages, info.kind, info.messages
                        ));
                    }
                }
                Err(v) => {
                    out.violation(format!(
                        "shard {} entry {i}: checker violation: {v}",
                        shard.shard
                    ));
                    dead = true;
                    break;
                }
            }
        }
        if dead {
            continue;
        }
        match checker.finish() {
            Ok(reference) => {
                if let Ok(live) = &shard.result {
                    if *live != reference {
                        out.violation(format!(
                            "shard {}: live result differs from journal replay",
                            shard.shard
                        ));
                    }
                }
            }
            Err(v) => out.violation(format!("shard {}: checker finish: {v}", shard.shard)),
        }

        // The committed event narration must equal a fresh replay's.
        let committed: Vec<Event> = shard
            .events
            .iter()
            .copied()
            .filter(is_protocol_event)
            .collect();
        let replayed = replay_events(protocol, nodes, shard);
        if committed != replayed {
            out.violation(format!(
                "shard {}: committed event stream ({} events) differs from replay ({} events)",
                shard.shard,
                committed.len(),
                replayed.len()
            ));
        }
    }

    sequence_oracle(&mut out, shards, clients);
    out
}

/// Regenerates a shard's event narration by replaying its journal
/// through a fresh engine with a buffer sink.
fn replay_events(protocol: Protocol, nodes: u16, shard: &ShardOutcome) -> Vec<Event> {
    use mcc_cache::CacheConfig;
    use mcc_check::CHECK_BLOCK_SIZE;
    use mcc_core::{DirectoryEngine, DirectoryRepr, DirectorySimConfig, Engine, PlacementPolicy};
    use mcc_obs::{lock_sink, shared, BufferSink};
    use mcc_placement::PagePlacement;

    let config = DirectorySimConfig {
        nodes,
        block_size: CHECK_BLOCK_SIZE,
        cache: CacheConfig::Infinite,
        placement: PlacementPolicy::RoundRobin,
        directory: DirectoryRepr::FullMap,
    };
    let (buffer, sink) = shared(BufferSink::new());
    let mut engine =
        DirectoryEngine::new(protocol, &config, PagePlacement::round_robin(nodes)).with_sink(sink);
    for entry in &shard.journal {
        if engine.try_step(entry.mref).is_err() {
            break;
        }
    }
    engine.set_sink(None);
    let events = lock_sink(&buffer).events().to_vec();
    events
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
