//! Regenerates the paper's tables, figures and studies from the
//! experiment table: `repro <experiment>...|all [flags] [--out DIR]`.
//!
//! Prints the selected experiments in table order, or writes each to
//! `DIR/<name>.txt`. Every text output starts with the command that
//! remakes it. A flag that none of the selected experiments reads is a
//! usage error.

use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use mcc_bench::args::Flags;
use mcc_bench::repro::{Experiment, EXPERIMENTS, SWEEPS};
use mcc_bench::Scenario;

const BIN: &str = "repro";

fn main() {
    let mut flags = Flags::from_env(BIN);
    let mut scenario = Scenario::default();
    let mut given = Vec::new();
    let mut names = Vec::new();
    let mut out: Option<PathBuf> = None;
    while let Some(arg) = flags.next_flag() {
        match arg.as_str() {
            "--out" => out = Some(flags.value()),
            "--help" | "-h" => {
                println!(
                    "{BIN} — regenerate the paper's tables, figures and studies\n\n\
                     Usage: {BIN} <experiment>...|all [flags] [--out DIR]\n\
                     \n  --out DIR             write each experiment to DIR/<name>.txt{}\n\
                     \nExperiments, and the flags each reads:",
                    Scenario::help(SWEEPS)
                );
                for e in EXPERIMENTS {
                    println!(
                        "  {:<26} {}\n  {:<26} reads {}",
                        e.name, e.about, "", e.reads
                    );
                }
                exit(0);
            }
            flag if scenario.apply(flag, &mut flags) => given.push(arg),
            name if !name.starts_with('-') => {
                if name != "all" && !EXPERIMENTS.iter().any(|e| e.name == name) {
                    flags.fail(format_args!("unknown experiment {name:?}"));
                }
                names.push(arg);
            }
            _ => flags.unknown(),
        }
    }
    if names.is_empty() {
        flags.fail("name an experiment, or all");
    }
    let selected: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|e| names.iter().any(|n| n == "all" || n == e.name))
        .collect();
    for flag in &given {
        if !selected.iter().any(|e| e.reads(flag)) {
            flags.fail(format_args!("no selected experiment reads {flag}"));
        }
    }
    for e in selected {
        let started = Instant::now();
        let text = e.run(&scenario);
        let Some(dir) = &out else {
            print!("{text}");
            continue;
        };
        let path = dir.join(format!("{}.txt", e.name));
        if let Err(err) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
            eprintln!("{BIN}: cannot write {}: {err}", path.display());
            exit(1);
        }
        eprintln!(
            "{BIN}: wrote {} in {:.1} s",
            path.display(),
            started.elapsed().as_secs_f64()
        );
    }
}
