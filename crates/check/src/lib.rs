//! Exhaustive bounded model checking and differential fuzzing for the
//! coherence protocols.
//!
//! The simulator's other guarantees rest on golden counts and sampled
//! property tests; this crate closes the gap the way coherence
//! protocols are traditionally verified — by state exploration against
//! an independent specification:
//!
//! * [`spec`] — a [`ReferenceModel`]: a from-scratch transcription of
//!   the paper's Figure 3 classification machine plus the action
//!   semantics of §3, kept deliberately simple (one `BTreeMap` per
//!   block, no caches, no placement, no counters) so it can serve as
//!   the specification the production engine is judged against.
//! * [`invariants`] — a [`Checker`] that drives a real
//!   [`DirectoryEngine`](mcc_core::DirectoryEngine) and the reference
//!   model in lockstep, checking the full invariant suite on every
//!   step: single-writer/multiple-reader, directory/cache agreement,
//!   data values (a versioned write oracle), message accounting,
//!   classification soundness against the `mcc-obs` event stream, and
//!   the demotion rule.
//! * [`explore`](mod@explore) — exhaustive bounded exploration: every trace of
//!   length ≤ L over a small alphabet (nodes × blocks × read/write),
//!   checked step by step on one [`CheckerConfig`] machine, finite
//!   caches included.
//! * [`fuzz`](mod@fuzz) — long seeded random traces, a directory-vs-snoop
//!   differential on the counts both models must share, and the
//!   off-line oracle bound.
//! * [`shrink`](mod@shrink) — delta-debugging of failing traces (drop records,
//!   merge nodes, collapse blocks) down to a minimal counterexample
//!   that replays from a `.mcct` file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod fuzz;
pub mod invariants;
pub mod shrink;
pub mod spec;

pub use explore::{explore, Counterexample, ExploreConfig, ExploreOutcome};
pub use fuzz::{fuzz, FuzzConfig, FuzzReport};
pub use invariants::{CheckViolation, Checker, CheckerConfig, InvariantId, CHECK_BLOCK_SIZE};
pub use shrink::{shrink, ShrinkOutcome};
pub use spec::{ReferenceModel, SpecOutcome, SpecReclass};

use mcc_core::{AdaptivePolicy, DirectoryRepr, Protocol};

/// The protocol points the model checker sweeps by default: the
/// paper's four table protocols, the non-adaptive pure-migratory
/// baseline, and four `Custom` points chosen to cover the family's
/// axes (hysteresis depth × memory-while-uncached × initial
/// classification × write-miss demotion) beyond the corners the
/// presets occupy.
pub fn protocol_points() -> Vec<Protocol> {
    let mut points = Protocol::PAPER_SET.to_vec();
    points.push(Protocol::PureMigratory);
    points.extend([
        // Deep hysteresis with no memory across uncached intervals.
        Protocol::Custom(AdaptivePolicy {
            initial_migratory: false,
            events_required: 3,
            remember_when_uncached: false,
            demote_on_write_miss: false,
        }),
        // Optimistic start that forgets when uncached: the only point
        // where an eviction can legally *promote* a block.
        Protocol::Custom(AdaptivePolicy {
            initial_migratory: true,
            events_required: 2,
            remember_when_uncached: false,
            demote_on_write_miss: false,
        }),
        // The Stenström rule set (§5): demote on any write miss.
        Protocol::Custom(AdaptivePolicy::stenstrom()),
        // Aggressive start plus write-miss demotion.
        Protocol::Custom(AdaptivePolicy {
            initial_migratory: true,
            events_required: 1,
            remember_when_uncached: true,
            demote_on_write_miss: true,
        }),
    ]);
    points
}

/// A filesystem- and CLI-safe slug for a protocol (`Protocol`'s
/// `Display` form uses parentheses for custom points).
pub fn protocol_slug(protocol: Protocol) -> String {
    match protocol {
        Protocol::Custom(p) => format!(
            "custom-i{}-e{}-r{}-d{}",
            u8::from(p.initial_migratory),
            p.events_required,
            u8::from(p.remember_when_uncached),
            u8::from(p.demote_on_write_miss),
        ),
        named => named.to_string(),
    }
}

/// The directory representations the parity lattice sweeps: one point
/// per branch of the taxonomy (full map, limited pointer, coarse
/// vector, sparse), with parameters chosen so that small-N checking
/// configurations actually exercise overflow and region coarsening.
pub fn repr_points() -> Vec<DirectoryRepr> {
    vec![
        DirectoryRepr::FullMap,
        DirectoryRepr::LimitedPointer { pointers: 1 },
        DirectoryRepr::CoarseVector { region_size: 2 },
        DirectoryRepr::Sparse {
            pointers: 1,
            region_size: 2,
        },
    ]
}

/// Parses a directory-representation name as accepted by the
/// `modelcheck` binary and the `MCC_TEST_REPR` test toggle: the
/// case-insensitive `Display` slugs `full-map`, `dirNb` (limited
/// pointer), `cvR` (coarse vector), and `dirNcvR` (sparse).
pub fn parse_directory_repr(name: &str) -> Result<DirectoryRepr, String> {
    let lower = name.to_ascii_lowercase();
    if lower == "full-map" || lower == "fullmap" {
        return Ok(DirectoryRepr::FullMap);
    }
    let positive = |what: &str, raw: &str| -> Result<u64, String> {
        let v: u64 = raw
            .parse()
            .map_err(|_| format!("bad {what} {raw:?} in {name:?}"))?;
        if v == 0 {
            return Err(format!("{what} in {name:?} must be at least 1"));
        }
        Ok(v)
    };
    if let Some(rest) = lower.strip_prefix("dir") {
        if let Some((p, r)) = rest.split_once("cv") {
            return Ok(DirectoryRepr::Sparse {
                pointers: positive("pointer count", p)?
                    .try_into()
                    .map_err(|_| format!("pointer count in {name:?} exceeds 255"))?,
                region_size: positive("region size", r)?
                    .try_into()
                    .map_err(|_| format!("region size in {name:?} exceeds 65535"))?,
            });
        }
        if let Some(p) = rest.strip_suffix('b') {
            return Ok(DirectoryRepr::LimitedPointer {
                pointers: positive("pointer count", p)?
                    .try_into()
                    .map_err(|_| format!("pointer count in {name:?} exceeds 255"))?,
            });
        }
    }
    if let Some(r) = lower.strip_prefix("cv") {
        return Ok(DirectoryRepr::CoarseVector {
            region_size: positive("region size", r)?
                .try_into()
                .map_err(|_| format!("region size in {name:?} exceeds 65535"))?,
        });
    }
    Err(format!(
        "unknown directory representation {name:?} (want full-map, dirNb, cvR, or dirNcvR)"
    ))
}

/// Parses a protocol name as accepted by the `modelcheck` binary: the
/// named protocols (`conventional`, `conservative`, `basic`,
/// `aggressive`, `pure-migratory`) or a custom point written either as
/// the [`protocol_slug`] form (`custom-i0-e3-r1-d0`) or as
/// `custom=init,events,remember,demote` with `0`/`1` flags.
pub fn parse_protocol(name: &str) -> Result<Protocol, String> {
    match name {
        "conventional" => return Ok(Protocol::Conventional),
        "conservative" => return Ok(Protocol::Conservative),
        "basic" => return Ok(Protocol::Basic),
        "aggressive" => return Ok(Protocol::Aggressive),
        "pure-migratory" => return Ok(Protocol::PureMigratory),
        _ => {}
    }
    let fields: Vec<&str> = if let Some(rest) = name.strip_prefix("custom=") {
        rest.split(',').collect()
    } else if let Some(rest) = name.strip_prefix("custom-") {
        rest.split('-')
            .map(|f| f.get(1..).unwrap_or_default())
            .collect()
    } else {
        return Err(format!("unknown protocol {name:?}"));
    };
    let [init, events, remember, demote] = fields.as_slice() else {
        return Err(format!(
            "custom protocol {name:?} needs 4 fields: init,events,remember,demote"
        ));
    };
    let flag = |s: &str| match s {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("bad flag {other:?} in {name:?} (want 0 or 1)")),
    };
    Ok(Protocol::Custom(AdaptivePolicy {
        initial_migratory: flag(init)?,
        events_required: events
            .parse()
            .map_err(|e| format!("bad events count in {name:?}: {e}"))?,
        remember_when_uncached: flag(remember)?,
        demote_on_write_miss: flag(demote)?,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_points_cover_the_required_family() {
        let points = protocol_points();
        for p in Protocol::PAPER_SET {
            assert!(points.contains(&p));
        }
        assert!(points.contains(&Protocol::PureMigratory));
        let customs = points
            .iter()
            .filter(|p| matches!(p, Protocol::Custom(_)))
            .count();
        assert!(customs >= 4, "need at least 4 custom lattice points");
        // All distinct.
        for (i, a) in points.iter().enumerate() {
            assert!(!points[i + 1..].contains(a), "duplicate point {a}");
        }
    }

    #[test]
    fn slugs_round_trip_through_the_parser() {
        for p in protocol_points() {
            let slug = protocol_slug(p);
            assert_eq!(parse_protocol(&slug), Ok(p), "slug {slug}");
        }
        assert_eq!(
            parse_protocol("custom=1,2,0,1"),
            Ok(Protocol::Custom(AdaptivePolicy {
                initial_migratory: true,
                events_required: 2,
                remember_when_uncached: false,
                demote_on_write_miss: true,
            }))
        );
        assert!(parse_protocol("mosi").is_err());
        assert!(parse_protocol("custom=1,2").is_err());
        assert!(parse_protocol("custom=2,1,0,0").is_err());
    }

    #[test]
    fn repr_points_cover_the_whole_taxonomy() {
        let points = repr_points();
        assert!(points.contains(&DirectoryRepr::FullMap));
        assert!(points
            .iter()
            .any(|r| matches!(r, DirectoryRepr::LimitedPointer { .. })));
        assert!(points
            .iter()
            .any(|r| matches!(r, DirectoryRepr::CoarseVector { .. })));
        assert!(points
            .iter()
            .any(|r| matches!(r, DirectoryRepr::Sparse { .. })));
    }

    #[test]
    fn repr_slugs_round_trip_through_the_parser() {
        for r in repr_points() {
            let slug = r.to_string();
            assert_eq!(parse_directory_repr(&slug), Ok(r), "slug {slug}");
        }
        assert_eq!(
            parse_directory_repr("dir4cv8"),
            Ok(DirectoryRepr::Sparse {
                pointers: 4,
                region_size: 8,
            })
        );
        assert!(parse_directory_repr("dir0b").is_err());
        assert!(parse_directory_repr("cv0").is_err());
        assert!(parse_directory_repr("hashmap").is_err());
        assert!(parse_directory_repr("dir999b").is_err());
    }
}
