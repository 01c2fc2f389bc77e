//! Prints the golden regression numbers used by `tests/golden_counts.rs`
//! (exact message totals at a pinned configuration and seed). Run after
//! any intentional workload or protocol change and update the test.
//!
//! Usage: `golden_dump [--directory R]` — `R` is a representation slug
//! (`full-map`, `dirNb`, `cvR`, `dirNcvR`); the default sweeps every
//! representation the golden test pins.

use std::process::exit;

use mcc_bench::args::Flags;
use mcc_check::parse_directory_repr;
use mcc_core::{DirectoryRepr, DirectorySim, DirectorySimConfig, Protocol};
use mcc_workloads::{Workload, WorkloadParams};

fn main() {
    let mut flags = Flags::from_env("golden_dump");
    let mut reprs = vec![
        DirectoryRepr::FullMap,
        DirectoryRepr::LimitedPointer { pointers: 4 },
        DirectoryRepr::CoarseVector { region_size: 4 },
    ];
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--directory" => reprs = vec![flags.value_with(parse_directory_repr)],
            "--help" | "-h" => {
                println!("usage: golden_dump [--directory R]");
                exit(0);
            }
            _ => flags.unknown(),
        }
    }
    let params = WorkloadParams::new(16).scale(0.1).seed(42);
    for directory in reprs {
        println!("    // {directory}");
        let cfg = DirectorySimConfig {
            directory,
            ..DirectorySimConfig::default()
        };
        for app in Workload::ALL {
            let trace = app.generate(&params);
            print!("        (Workload::{:?}, {}", app, trace.len());
            for p in Protocol::PAPER_SET {
                let r = DirectorySim::new(p, &cfg).run(&trace);
                print!(", {}", r.total_messages());
            }
            println!("),");
        }
    }
}
