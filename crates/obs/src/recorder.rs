//! The flight recorder: a crash-dump view of the recent event stream.
//!
//! Attach a [`FlightRecorder`] and, when a run dies with a `Monitor`
//! violation or a `SimError`, call [`FlightRecorder::report`] with the
//! offending block to render the last-K event dump plus that block's
//! classification timeline — the "what was the protocol doing right
//! before it went wrong" context the aggregate counters cannot provide.

use crate::event::{Event, Rule};
use crate::sink::{EventSink, RingSink};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One classification flip in a block's history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimelineEntry {
    /// Engine step at which the flip happened.
    pub step: u64,
    /// `true` for a promotion to migratory, `false` for a demotion.
    pub promoted: bool,
    /// The detection rule that triggered the flip.
    pub rule: Rule,
    /// The node whose reference triggered the flip.
    pub node: u16,
}

/// Default number of events the ring retains.
pub const DEFAULT_RING: usize = 256;

/// Per-block cap on retained timeline entries (oldest dropped first).
const TIMELINE_CAP: usize = 64;

/// A bounded ring of recent events plus a per-block classification
/// timeline.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    ring: RingSink,
    timelines: BTreeMap<u64, Vec<TimelineEntry>>,
    /// Flips dropped from timelines that outgrew [`TIMELINE_CAP`].
    trimmed: u64,
}

impl FlightRecorder {
    /// A recorder retaining the last `ring_capacity` events.
    pub fn new(ring_capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: RingSink::new(ring_capacity),
            timelines: BTreeMap::new(),
            trimmed: 0,
        }
    }

    /// Builds a recorder by replaying an already-captured stream.
    pub fn replay<'a>(
        events: impl IntoIterator<Item = &'a Event>,
        ring_capacity: usize,
    ) -> FlightRecorder {
        let mut rec = FlightRecorder::new(ring_capacity);
        for ev in events {
            rec.emit(ev);
        }
        rec
    }

    /// The retained events, oldest first.
    pub fn last_events(&self) -> Vec<Event> {
        self.ring.to_vec()
    }

    /// Total events observed (including those the ring dropped).
    pub fn total_seen(&self) -> u64 {
        self.ring.total_seen()
    }

    /// The classification timeline recorded for `block`.
    pub fn timeline(&self, block: u64) -> &[TimelineEntry] {
        self.timelines.get(&block).map_or(&[], Vec::as_slice)
    }

    /// Renders the crash-dump report: the last-K event dump, then the
    /// classification timeline for `block` (when given).
    pub fn report(&self, block: Option<u64>) -> String {
        let mut out = String::new();
        let events = self.last_events();
        let _ = writeln!(
            out,
            "flight recorder: last {} of {} events",
            events.len(),
            self.total_seen()
        );
        if events.is_empty() {
            out.push_str("  (no events recorded)\n");
        }
        for ev in &events {
            let _ = writeln!(out, "  {ev}");
        }
        if let Some(block) = block {
            let _ = writeln!(out, "classification timeline for block {block}:");
            let timeline = self.timeline(block);
            if timeline.is_empty() {
                out.push_str("  (no classification flips recorded)\n");
            }
            for entry in timeline {
                let _ = writeln!(
                    out,
                    "  [{}] {} node={} rule={}",
                    entry.step,
                    if entry.promoted { "promote" } else { "demote" },
                    entry.node,
                    entry.rule.label()
                );
            }
            if self.trimmed > 0 {
                let _ = writeln!(
                    out,
                    "  ({} older flips trimmed across all blocks)",
                    self.trimmed
                );
            }
        }
        out
    }
}

impl EventSink for FlightRecorder {
    fn emit(&mut self, event: &Event) {
        self.ring.emit(event);
        let entry = match *event {
            Event::Promote {
                step,
                block,
                node,
                rule,
            } => Some((
                block,
                TimelineEntry {
                    step,
                    promoted: true,
                    rule,
                    node,
                },
            )),
            Event::Demote {
                step,
                block,
                node,
                rule,
            } => Some((
                block,
                TimelineEntry {
                    step,
                    promoted: false,
                    rule,
                    node,
                },
            )),
            _ => None,
        };
        if let Some((block, entry)) = entry {
            let timeline = self.timelines.entry(block).or_default();
            if timeline.len() == TIMELINE_CAP {
                timeline.remove(0);
                self.trimmed += 1;
            }
            timeline.push(entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StepKind;

    #[test]
    fn records_ring_and_timeline() {
        let mut rec = FlightRecorder::new(4);
        for i in 1..=10u64 {
            rec.emit(&Event::Step {
                step: i,
                block: 7,
                node: 0,
                kind: StepKind::ReadHit,
                control: 0,
                data: 0,
            });
        }
        rec.emit(&Event::Promote {
            step: 11,
            block: 7,
            node: 2,
            rule: Rule::WriteHitShared,
        });
        rec.emit(&Event::Demote {
            step: 12,
            block: 7,
            node: 3,
            rule: Rule::ReadMiss,
        });
        assert_eq!(rec.last_events().len(), 4);
        assert_eq!(rec.total_seen(), 12);
        let timeline = rec.timeline(7);
        assert_eq!(timeline.len(), 2);
        assert!(timeline[0].promoted);
        assert!(!timeline[1].promoted);
        assert!(rec.timeline(99).is_empty());

        let report = rec.report(Some(7));
        assert!(report.contains("flight recorder: last 4 of 12 events"));
        assert!(report.contains("classification timeline for block 7"));
        assert!(report.contains("promote"));
        assert!(report.contains("rule=read-miss"));
    }

    #[test]
    fn timeline_is_bounded() {
        let mut rec = FlightRecorder::new(2);
        for i in 0..200u64 {
            rec.emit(&Event::Promote {
                step: i,
                block: 1,
                node: 0,
                rule: Rule::WriteMiss,
            });
        }
        assert_eq!(rec.timeline(1).len(), TIMELINE_CAP);
        assert_eq!(rec.timeline(1).last().unwrap().step, 199);
        assert!(rec.report(Some(1)).contains("older flips trimmed"));
    }

    #[test]
    fn report_without_block_or_events() {
        let rec = FlightRecorder::new(8);
        let report = rec.report(None);
        assert!(report.contains("(no events recorded)"));
        assert!(!report.contains("classification timeline"));
    }

    #[test]
    fn replay_matches_live() {
        let events = vec![
            Event::Promote {
                step: 1,
                block: 3,
                node: 1,
                rule: Rule::WriteHitCleanExclusive,
            },
            Event::Invalidation {
                step: 2,
                block: 3,
                node: 0,
            },
        ];
        let rec = FlightRecorder::replay(events.iter(), 8);
        assert_eq!(rec.last_events(), events);
        assert_eq!(rec.timeline(3).len(), 1);
    }
}
