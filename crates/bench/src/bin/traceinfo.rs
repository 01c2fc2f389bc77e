//! Inspects an MCCT trace file: summary statistics plus per-protocol
//! message counts under the default directory configuration.
//!
//! Usage: `traceinfo <trace.mcct> [--simulate]`

use std::process::exit;

use mcc_bench::args::Flags;
use mcc_core::{DirectorySim, DirectorySimConfig, Protocol};
use mcc_trace::Trace;

const USAGE: &str = "usage: traceinfo <trace.mcct> [--simulate]";

fn main() {
    let mut flags = Flags::from_env("traceinfo");
    let mut positional = Vec::new();
    let mut simulate = false;
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--simulate" => simulate = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            arg if !arg.starts_with('-') => positional.push(flag),
            _ => flags.unknown(),
        }
    }
    let [path] = positional.as_slice() else {
        flags.fail(USAGE);
    };
    let file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("traceinfo: cannot open {path}: {e}");
        exit(1);
    });
    let trace = Trace::read_from(std::io::BufReader::new(file)).unwrap_or_else(|e| {
        eprintln!("traceinfo: {e}");
        exit(1);
    });
    println!("{path}:");
    println!("{}", trace.stats());
    if simulate {
        println!();
        // The directory spills wide copy sets to the heap, so any node
        // count a u16 config can express is simulable. Only a (possibly
        // corrupt) trace naming node id 65535 — which would need 65536
        // nodes — is out of range.
        let nodes = trace.stats().nodes.max(1);
        let Ok(nodes) = u16::try_from(nodes) else {
            eprintln!("traceinfo: trace names {nodes} nodes; the simulator supports at most 65535");
            exit(1);
        };
        let config = DirectorySimConfig {
            nodes,
            ..DirectorySimConfig::default()
        };
        // A trace file is untrusted input, so surface simulation
        // failures (e.g. out-of-range nodes) as errors, not panics.
        let simulate = |protocol| {
            DirectorySim::new(protocol, &config)
                .try_run(&trace)
                .unwrap_or_else(|e| {
                    eprintln!("traceinfo: {e}");
                    exit(1);
                })
        };
        let baseline = simulate(Protocol::Conventional);
        for protocol in Protocol::PAPER_SET {
            let result = simulate(protocol);
            println!(
                "{:<14} {:>9} messages ({:>5.1}% vs conventional)",
                protocol.to_string(),
                result.total_messages(),
                result.percent_reduction_vs(&baseline)
            );
        }
    }
}
