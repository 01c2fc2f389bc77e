//! Command-line handling shared by the harness binaries: the one flag
//! reader every binary parses its arguments through, and the scenario
//! flags the experiments read.

use std::fmt::Display;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::exit;
use std::str::FromStr;

use mcc_core::CheckpointPolicy;
use mcc_trace::Trace;
use mcc_workloads::{Workload, WorkloadParams};

use crate::experiments::RunOptions;
use crate::obs::ObsOptions;

/// Reads a binary's arguments one at a time. Every usage error — a
/// flag missing its value, a value that does not parse, an unknown
/// argument — prints `<bin>: <problem> (try --help)` and exits 2.
pub struct Flags {
    bin: String,
    args: std::iter::Skip<std::env::Args>,
    current: String,
}

impl Flags {
    /// The process arguments after the program name, read on behalf of
    /// the binary `bin`.
    pub fn from_env(bin: &str) -> Flags {
        Flags {
            bin: bin.to_string(),
            args: std::env::args().skip(1),
            current: String::new(),
        }
    }

    /// The next argument, flag or positional; `None` at the end.
    pub fn next_flag(&mut self) -> Option<String> {
        let arg = self.args.next()?;
        self.current.clone_from(&arg);
        Some(arg)
    }

    /// The value of the flag just read, parsed as a `T`.
    pub fn value<T: FromStr>(&mut self) -> T
    where
        T::Err: Display,
    {
        self.value_with(str::parse)
    }

    /// The value of the flag just read, parsed by `parse`.
    pub fn value_with<T, E: Display>(&mut self, parse: impl FnOnce(&str) -> Result<T, E>) -> T {
        let Some(raw) = self.args.next() else {
            self.fail(format_args!("{} needs a value", self.current));
        };
        parse(&raw).unwrap_or_else(|e| {
            self.fail(format_args!(
                "invalid value {raw:?} for {}: {e}",
                self.current
            ))
        })
    }

    /// Rejects the argument just read.
    pub fn unknown(&self) -> ! {
        self.fail(format_args!("unknown argument {:?}", self.current))
    }

    /// Reports `problem` as a usage error and exits 2.
    pub fn fail(&self, problem: impl Display) -> ! {
        eprintln!("{}: {problem} (try --help)", self.bin);
        exit(2);
    }
}

/// One `--help` line per scenario flag.
const SCENARIO_HELP: &str = "
  --nodes N             simulated machine size (default 16)
  --scale X             workload work multiplier (default 0.1)
  --seed N              workload RNG seed (default 0)
  --csv                 emit CSV rows instead of aligned text
  --shards K            address shards for the parallel engine (default 1; bit-identical)
  --checkpoint-every N  snapshot a crash-safe run every N records
  --checkpoint PATH     snapshot file (default mcc-bench.ckpt when a cadence is set)
  --resume PATH         resume a killed run from its snapshot
  --events-out PATH     write the protocol event stream as JSON Lines
  --metrics-out PATH    write the metrics registry as JSON
  --events-ring K       keep the last K events to dump if the run fails";

/// A run scenario: machine size, work scale, and RNG seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Nodes in the simulated machine.
    pub nodes: u16,
    /// Work multiplier applied to the workload generators.
    pub scale: f64,
    /// Workload RNG seed.
    pub seed: u64,
    /// Emit CSV instead of aligned text.
    pub csv: bool,
    /// Address shards for the parallel trace-driven engine (1 =
    /// sequential).
    pub shards: usize,
    /// Snapshot cadence in records for crash-safe runs (0 = only a
    /// final snapshot when a checkpoint path is set).
    pub checkpoint_every: u64,
    /// File periodic snapshots are written to.
    pub checkpoint: Option<PathBuf>,
    /// Snapshot file to resume a killed run from.
    pub resume: Option<PathBuf>,
    /// File the merged protocol event stream is written to (JSONL).
    pub events_out: Option<PathBuf>,
    /// File the metrics registry is written to (JSON).
    pub metrics_out: Option<PathBuf>,
    /// Flight-recorder ring size (0 = not requested).
    pub events_ring: usize,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            nodes: 16,
            scale: crate::DEFAULT_SCALE,
            seed: 0,
            csv: false,
            shards: 1,
            checkpoint_every: 0,
            checkpoint: None,
            resume: None,
            events_out: None,
            metrics_out: None,
            events_ring: 0,
        }
    }
}

impl Scenario {
    /// Parses the process arguments of a binary whose only flags are
    /// the scenario flags in `reads`, a space-separated list; prints
    /// usage and exits on anything else.
    pub fn from_env(bin: &str, what: &str, reads: &str) -> Self {
        let mut s = Scenario::default();
        let mut flags = Flags::from_env(bin);
        while let Some(flag) = flags.next_flag() {
            if flag == "--help" || flag == "-h" {
                println!(
                    "{bin} — {what}\n\nUsage: {bin} [flags]\n{}",
                    Scenario::help(reads)
                );
                exit(0);
            }
            if !reads.split(' ').any(|r| r == flag) || !s.apply(&flag, &mut flags) {
                flags.unknown();
            }
        }
        s
    }

    /// Applies the scenario flag `flag`, reading its value from
    /// `flags`; returns `false` when `flag` is not a scenario flag.
    pub fn apply(&mut self, flag: &str, flags: &mut Flags) -> bool {
        match flag {
            "--nodes" => self.nodes = flags.value(),
            "--scale" => self.scale = flags.value(),
            "--seed" => self.seed = flags.value(),
            "--csv" => self.csv = true,
            "--shards" => self.shards = flags.value::<NonZeroUsize>().get(),
            "--checkpoint-every" => self.checkpoint_every = flags.value(),
            "--checkpoint" => self.checkpoint = Some(flags.value()),
            "--resume" => self.resume = Some(flags.value()),
            "--events-out" => self.events_out = Some(flags.value()),
            "--metrics-out" => self.metrics_out = Some(flags.value()),
            "--events-ring" => self.events_ring = flags.value::<NonZeroUsize>().get(),
            _ => return false,
        }
        true
    }

    /// `--help` lines for the scenario flags in `reads`, a
    /// space-separated list.
    pub fn help(reads: &str) -> String {
        SCENARIO_HELP
            .lines()
            .filter(|line| {
                let flag = line.split_whitespace().next();
                flag.is_some_and(|flag| reads.split(' ').any(|r| r == flag))
            })
            .map(|line| format!("\n{line}"))
            .collect()
    }

    /// The [`RunOptions`] this scenario's checkpoint flags describe:
    /// `--shards`, `--checkpoint`/`--checkpoint-every` (folded into a
    /// [`CheckpointPolicy`]; the path defaults to `mcc-bench.ckpt` when
    /// only a cadence was given), and `--resume`.
    pub fn run_options(&self) -> RunOptions {
        let checkpoint = match (self.checkpoint_every, &self.checkpoint) {
            (0, None) => None,
            (every, Some(path)) => Some(CheckpointPolicy::new(every, path)),
            (every, None) => Some(CheckpointPolicy::new(every, "mcc-bench.ckpt")),
        };
        RunOptions {
            shards: self.shards,
            checkpoint,
            resume: self.resume.clone(),
            faults: None,
            obs: ObsOptions {
                events_out: self.events_out.clone(),
                metrics_out: self.metrics_out.clone(),
                events_ring: self.events_ring,
            },
        }
    }

    /// The trace `app` generates under this scenario's node count,
    /// scale and seed.
    pub fn trace(&self, app: Workload) -> Trace {
        app.generate(
            &WorkloadParams::new(self.nodes)
                .scale(self.scale)
                .seed(self.seed),
        )
    }

    /// Each of the five applications with its trace, generated one at a
    /// time as the iterator is advanced.
    pub fn traces(&self) -> impl Iterator<Item = (Workload, Trace)> + '_ {
        Workload::ALL.into_iter().map(|app| (app, self.trace(app)))
    }
}

#[cfg(test)]
mod tests {
    use super::Scenario;

    #[test]
    fn help_lists_exactly_the_flags_read_with_their_defaults() {
        let help = Scenario::help("--scale --csv");
        assert_eq!(help.lines().filter(|l| !l.is_empty()).count(), 2);
        assert!(help.contains(&format!("(default {})", crate::DEFAULT_SCALE)));
        assert!(!help.contains("--nodes"));
    }
}
