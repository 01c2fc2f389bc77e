//! The cross-representation parity lattice.
//!
//! The directory's sharer-set representation (full map, limited
//! pointer, coarse vector, sparse) is a *charging* concern: it decides
//! how many invalidation messages an overflowed or coarsened entry
//! costs, never which copies exist or how a block is classified. This
//! suite pins that contract along two axes:
//!
//! * **lockstep** — every representation drives the full mcc-check
//!   invariant suite (engine vs. independent specification, state,
//!   data values, message self-consistency, classification legality,
//!   demotion rule) clean at every one of the nine standard protocol
//!   points, on both engines, including the exhaustive L=8 bounded
//!   sweep;
//! * **parity** — on a shared workload, every representation produces
//!   bit-identical residency, classification, and event counts
//!   (`broadcast_invalidations` excepted, which exists to count
//!   overflow), identical *data* message counts, and control traffic
//!   no lower than the precise full map's.

use mcc::core::{
    DirectoryRepr, DirectorySim, DirectorySimConfig, EngineKind, EventCounts, Protocol, SimResult,
};
use mcc::trace::{Addr, MemRef, NodeId, Trace};
use mcc_check::{
    explore, protocol_points, protocol_slug, repr_points, Checker, CheckerConfig, ExploreConfig,
};

/// A workload that drives every representation into its interesting
/// regime: wide read-sharing (overflows 1-pointer entries, spans
/// 2-node regions), migratory hand-offs, and producer republishes.
fn lattice_trace(nodes: u16) -> Trace {
    let mut t = Trace::new();
    for round in 0..5u64 {
        // Migratory objects handed node to node.
        for obj in 0..4u64 {
            let n = NodeId::new(((round + obj) % u64::from(nodes)) as u16);
            t.push(MemRef::read(n, Addr::new(obj * 16)));
            t.push(MemRef::write(n, Addr::new(obj * 16)));
        }
        // Widely shared blocks: every node reads, then one writes —
        // the invalidation must fan out to the whole copy set.
        for obj in 4..6u64 {
            for n in 0..nodes {
                t.push(MemRef::read(NodeId::new(n), Addr::new(obj * 16)));
            }
            t.push(MemRef::write(
                NodeId::new((round % u64::from(nodes)) as u16),
                Addr::new(obj * 16),
            ));
        }
    }
    t
}

#[test]
fn lockstep_suite_passes_for_every_repr_at_every_protocol_point() {
    let trace = lattice_trace(4);
    for protocol in protocol_points() {
        for repr in repr_points() {
            let mut config = CheckerConfig::new(protocol, 4);
            config.directory = repr;
            let result = Checker::new(&config).run(&trace);
            assert!(
                result.is_ok(),
                "{} under {repr}: {}",
                protocol_slug(protocol),
                result.unwrap_err()
            );
        }
    }
}

#[test]
fn lockstep_suite_passes_for_every_repr_through_the_fast_engine() {
    let trace = lattice_trace(4);
    for protocol in protocol_points() {
        for repr in repr_points() {
            let mut config = CheckerConfig::new(protocol, 4);
            config.directory = repr;
            config.fast_engine = true;
            let result = Checker::new(&config).run(&trace);
            assert!(
                result.is_ok(),
                "{} under {repr} (fast): {}",
                protocol_slug(protocol),
                result.unwrap_err()
            );
        }
    }
}

#[test]
fn exhaustive_l8_sweep_is_clean_for_every_repr_at_every_protocol_point() {
    // The acceptance bar: the bounded-exhaustive space (every trace of
    // length <= 8 over 2 nodes x 1 block x read/write) is clean at all
    // nine protocol points under all four representations.
    for protocol in protocol_points() {
        for repr in repr_points() {
            let mut config = ExploreConfig::new(protocol);
            config.checker.directory = repr;
            let out = explore(&config);
            assert!(
                out.complete,
                "{} under {repr}: sweep truncated",
                protocol_slug(protocol)
            );
            assert_eq!(out.states, (1..=8u32).map(|l| 4u64.pow(l)).sum::<u64>());
            assert!(
                out.violation.is_none(),
                "{} under {repr}: {}",
                protocol_slug(protocol),
                out.violation.unwrap().violation
            );
        }
    }
}

/// Event counts with the overflow *diagnostic* cleared — everything
/// else must be representation-invariant.
fn invariant_events(r: &SimResult) -> EventCounts {
    let mut e = r.events;
    e.broadcast_invalidations = 0;
    e
}

#[test]
fn residency_and_classification_are_repr_invariant() {
    // 8 nodes so CoarseVector{2} has 4 regions and LimitedPointer{1}
    // overflows constantly under the wide-sharing phases.
    let trace = lattice_trace(8);
    for protocol in protocol_points() {
        let full_map = {
            let cfg = DirectorySimConfig {
                nodes: 8,
                ..DirectorySimConfig::default()
            };
            DirectorySim::new(protocol, &cfg)
                .try_run(&trace)
                .expect("full-map run")
        };
        for repr in repr_points() {
            let cfg = DirectorySimConfig {
                nodes: 8,
                directory: repr,
                ..DirectorySimConfig::default()
            };
            let run = DirectorySim::new(protocol, &cfg)
                .try_run(&trace)
                .expect("repr run");

            // Classification, residency churn, hit/miss structure:
            // bit-identical.
            assert_eq!(
                invariant_events(&run),
                invariant_events(&full_map),
                "{} under {repr}: events must be representation-invariant",
                protocol_slug(protocol)
            );

            // Charging: data transfers identical (a representation
            // never moves extra blocks), control no lower than the
            // precise full map (imprecision can only over-invalidate).
            for (label, a, b) in [
                (
                    "read-miss",
                    run.messages.read_miss,
                    full_map.messages.read_miss,
                ),
                (
                    "write-miss",
                    run.messages.write_miss,
                    full_map.messages.write_miss,
                ),
                (
                    "write-hit",
                    run.messages.write_hit,
                    full_map.messages.write_hit,
                ),
                (
                    "eviction",
                    run.messages.eviction,
                    full_map.messages.eviction,
                ),
            ] {
                assert_eq!(
                    a.data,
                    b.data,
                    "{} under {repr}: {label} data traffic changed",
                    protocol_slug(protocol)
                );
                assert!(
                    a.control >= b.control,
                    "{} under {repr}: {label} control {} below full map's {}",
                    protocol_slug(protocol),
                    a.control,
                    b.control
                );
            }
        }
    }
}

#[test]
fn imprecise_reprs_actually_overflow_and_charge_more() {
    // The parity suite would pass vacuously if the workload never
    // overflowed an entry; pin that the interesting regime is reached.
    let trace = lattice_trace(8);
    let run = |repr| {
        let cfg = DirectorySimConfig {
            nodes: 8,
            directory: repr,
            ..DirectorySimConfig::default()
        };
        DirectorySim::new(Protocol::Basic, &cfg)
            .try_run(&trace)
            .expect("run")
    };
    let full_map = run(DirectoryRepr::FullMap);
    let limited = run(DirectoryRepr::LimitedPointer { pointers: 1 });
    let coarse = run(DirectoryRepr::CoarseVector { region_size: 2 });
    assert_eq!(full_map.events.broadcast_invalidations, 0);
    assert!(
        limited.events.broadcast_invalidations > 0,
        "the 1-pointer entry never overflowed — the workload is too narrow"
    );
    assert!(
        limited.messages.write_hit.control > full_map.messages.write_hit.control,
        "overflowed invalidations must charge broadcast control traffic"
    );
    assert!(
        coarse.messages.write_hit.control > full_map.messages.write_hit.control,
        "region coarsening must charge covered non-sharers"
    );
}

#[test]
fn engines_agree_bit_exactly_under_every_repr() {
    let trace = lattice_trace(8);
    for protocol in Protocol::PAPER_SET {
        for repr in repr_points() {
            let cfg = DirectorySimConfig {
                nodes: 8,
                directory: repr,
                ..DirectorySimConfig::default()
            };
            let reference = DirectorySim::new(protocol, &cfg)
                .with_engine(EngineKind::Reference)
                .try_run(&trace)
                .expect("reference run");
            let fast = DirectorySim::new(protocol, &cfg)
                .with_engine(EngineKind::Fast)
                .try_run(&trace)
                .expect("fast run");
            assert_eq!(reference, fast, "{protocol} under {repr}");
        }
    }
}

#[test]
fn seeded_fuzz_is_clean_on_every_repr() {
    for repr in repr_points() {
        let mut config = mcc_check::FuzzConfig::new(0x5ca1e);
        config.cases = 1;
        config.trace_len = 300;
        config.checker.directory = repr;
        let report = mcc_check::fuzz(&config);
        assert!(report.complete);
        assert!(
            report.counterexamples.is_empty(),
            "{repr}: [{}] {}",
            report.counterexamples[0].violation.invariant.label(),
            report.counterexamples[0].violation
        );
    }
}
