//! Speedup-vs-shards study for the address-sharded parallel engine.
//!
//! Drives a Figure-2-style synthetic migratory workload — thousands of
//! lock-protected records handed from node to node — through the basic
//! adaptive protocol sequentially and at K ∈ {1, 2, 4, 8} shards,
//! reporting the median wall time and speedup of each configuration.
//! Every sharded run's totals are checked against the sequential result
//! before its timing is reported: a fast-but-wrong engine fails loudly.
//!
//! Wall-clock speedup depends on the host: with four or more free cores
//! the 4-shard run is expected to land at 2× or better over sequential;
//! on a saturated or single-core machine the ratios compress toward 1.
//! A sharded run pays one pass to split the trace into per-shard copies
//! and one thread per shard; the K=1 row pays neither, since a 1-shard
//! run replays the caller's trace on the calling thread.

use mcc_bench::timing::{measure, run_sharded};
use mcc_bench::Scenario;
use mcc_core::{DirectorySim, DirectorySimConfig, Protocol};
use mcc_stats::{speedup, BarChart, Table};
use mcc_trace::Trace;
use mcc_workloads::{interleave_streams, GenCtx, MigratoryObjects, Region};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SAMPLES: usize = 5;
/// The scenario flags this study reads.
const READS: &str = "--nodes --scale --seed --csv";

/// A pure migratory region, as in the paper's Figure 2 microbenchmark:
/// each record is read then written by one node at a time, with
/// ownership rotating on every visit.
fn figure2_trace(scenario: &Scenario) -> Trace {
    let region = MigratoryObjects {
        base: mcc_trace::Addr::new(0),
        objects: 2048,
        object_bytes: 64,
        visits_per_object: ((4000.0 * scenario.scale) as u64).max(1),
        reads_per_visit: 2,
        writes_per_visit: 1,
        burst: 3,
        rotate: false,
        stride: 1,
    };
    let mut ctx = GenCtx::new(scenario.nodes, scenario.seed);
    let streams = region.streams(&mut ctx);
    interleave_streams(streams, &mut ctx)
}

fn main() {
    let scenario = Scenario::from_env("scaling", "sharded-engine speedup study", READS);
    let trace = figure2_trace(&scenario);
    let sim = DirectorySim::new(Protocol::Basic, &DirectorySimConfig::default());

    eprintln!(
        "{} refs over {} nodes, {} samples per configuration",
        trace.len(),
        scenario.nodes,
        SAMPLES
    );

    let sequential = sim.run(&trace);
    let base_seconds = measure(SAMPLES, || sim.run(&trace));

    let mut table = Table::new(["shards", "seconds", "speedup"]);
    table.title("Sharded-engine wall time (basic protocol, Figure-2 workload)");
    table.row([
        "seq".to_string(),
        format!("{base_seconds:.4}"),
        "1.00".to_string(),
    ]);

    let mut chart = BarChart::new("speedup vs sequential", 40);
    chart.bar("seq", 1.0);
    for shards in SHARD_COUNTS {
        let result = run_sharded(&sim, &trace, shards);
        assert_eq!(
            result, sequential,
            "sharded result diverged at K={shards}: refusing to time a wrong engine"
        );
        let seconds = measure(SAMPLES, || run_sharded(&sim, &trace, shards));
        let s = speedup(base_seconds, seconds);
        table.row([
            shards.to_string(),
            format!("{seconds:.4}"),
            format!("{s:.2}"),
        ]);
        chart.bar(format!("K={shards}"), s);
    }

    if scenario.csv {
        print!("{}", table.to_csv());
        return;
    }
    println!("{table}");
    println!("{chart}");
}
