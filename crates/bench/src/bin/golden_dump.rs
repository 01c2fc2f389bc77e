//! Prints the golden regression numbers used by `tests/golden_counts.rs`
//! (exact message totals at a pinned configuration and seed). Run after
//! any intentional workload or protocol change and update the test.
//!
//! Usage: `golden_dump [--directory R]` — `R` is a representation slug
//! (`full-map`, `dirNb`, `cvR`, `dirNcvR`); the default sweeps every
//! representation the golden test pins, then the full map through the
//! paper's 4 KB caches, the table the finite-cache goldens pin.

use std::process::exit;

use mcc_bench::args::Flags;
use mcc_cache::{CacheConfig, CacheGeometry};
use mcc_check::parse_directory_repr;
use mcc_core::{DirectoryRepr, DirectorySim, DirectorySimConfig, Protocol};
use mcc_trace::BlockSize;
use mcc_workloads::{Workload, WorkloadParams};

fn main() {
    let mut flags = Flags::from_env("golden_dump");
    let mut reprs = vec![
        DirectoryRepr::FullMap,
        DirectoryRepr::LimitedPointer { pointers: 4 },
        DirectoryRepr::CoarseVector { region_size: 4 },
    ];
    let mut finite = true;
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--directory" => {
                reprs = vec![flags.value_with(parse_directory_repr)];
                finite = false;
            }
            "--help" | "-h" => {
                println!("usage: golden_dump [--directory R]");
                exit(0);
            }
            _ => flags.unknown(),
        }
    }
    let params = WorkloadParams::new(16).scale(0.1).seed(42);
    let mut tables: Vec<(String, DirectorySimConfig)> = reprs
        .into_iter()
        .map(|directory| {
            let cfg = DirectorySimConfig {
                directory,
                ..DirectorySimConfig::default()
            };
            (directory.to_string(), cfg)
        })
        .collect();
    if finite {
        let geometry = CacheGeometry::paper_default(4 * 1024, BlockSize::B16)
            .expect("the paper's 4 KB geometry is valid");
        let cfg = DirectorySimConfig {
            cache: CacheConfig::Finite(geometry),
            ..DirectorySimConfig::default()
        };
        tables.push(("full-map, 4 KB 4-way caches".to_string(), cfg));
    }
    for (label, cfg) in tables {
        println!("    // {label}");
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
