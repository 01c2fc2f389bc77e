//! Dumps a synthetic workload trace to a file in the MCCT binary format,
//! for use by external tools or for archiving an experiment's input.
//!
//! Usage: `tracegen <workload> <output.mcct> [--nodes N] [--scale X] [--seed N]`

use std::process::exit;

use mcc_bench::args::Flags;
use mcc_workloads::{Workload, WorkloadParams};

const USAGE: &str = "usage: tracegen <cholesky|locus|mp3d|pthor|water> <output.mcct> \
                     [--nodes N] [--scale X] [--seed N]";

fn main() {
    let mut flags = Flags::from_env("tracegen");
    let mut positional = Vec::new();
    let mut params = WorkloadParams::new(16);
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--nodes" => params.nodes = flags.value(),
            "--scale" => params = params.scale(flags.value()),
            "--seed" => params = params.seed(flags.value()),
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            arg if !arg.starts_with('-') => positional.push(flag),
            _ => flags.unknown(),
        }
    }
    let [workload, path] = positional.as_slice() else {
        flags.fail(USAGE);
    };
    let workload: Workload = workload
        .parse()
        .unwrap_or_else(|e| flags.fail(format_args!("{e}")));

    let trace = workload.generate(&params);
    let file = std::fs::File::create(path).unwrap_or_else(|e| {
        eprintln!("tracegen: cannot create {path}: {e}");
        exit(1);
    });
    let mut writer = std::io::BufWriter::new(file);
    trace.write_to(&mut writer).unwrap_or_else(|e| {
        eprintln!("tracegen: write failed: {e}");
        exit(1);
    });
    println!("{workload}: wrote {} references to {path}", trace.len());
    println!("{}", trace.stats());
}
