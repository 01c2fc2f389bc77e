//! The repository benchmark: three workloads over fixed inputs, run
//! either untraced (the end-to-end metrics) or traced (the per-layer
//! metrics, from spans the benchmark records around each crate's public
//! entry points). `README.md` beside this crate gives the method and the
//! reasons behind it.
//!
//! Usage: `perfbench --workload <paper|wide-stream|live-wal> --seed N
//! --seconds S --trace <0|1> [--corrupt-pin]`
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod layers;
mod live_wal;
mod paper;
mod report;
mod spans;
mod wide_stream;

use std::path::PathBuf;
use std::process::ExitCode;

/// The seed whose results are pinned in the source. Every seed, this one
/// included, is also checked against an independent path.
const DEFAULT_SEED: u64 = 1;

/// The command line, checked.
pub struct Opts {
    /// The seed every input is made from.
    pub seed: u64,
    /// Nominal run length. It fixes how many passes over the fixed input
    /// a run makes; it is never a deadline.
    pub seconds: u64,
    /// The traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Self-test hook: perturbs the first pinned value, which the
    /// correctness check must then catch.
    pub corrupt_pin: bool,
    /// Scratch directory for WAL, checkpoint and span files, inside the
    /// checkout.
    pub work_dir: PathBuf,
}

/// How many passes (or rounds) a run of `seconds` makes when one takes
/// about `each` seconds on the reference host.
pub fn passes(seconds: u64, each: f64) -> usize {
    ((seconds as f64 / each).round() as usize).max(1)
}

/// Set-up repetitions whose median is `setup_s`: three in a full run,
/// one in a self-test-sized run.
pub fn setup_reps(seconds: u64) -> usize {
    if seconds >= 5 {
        3
    } else {
        1
    }
}

/// The pinned values when this run's seed has them; `--corrupt-pin`
/// perturbs the first.
pub fn pins<const N: usize>(opts: &Opts, pinned: [u64; N]) -> Option<[u64; N]> {
    (opts.seed == DEFAULT_SEED).then(|| {
        let mut pins = pinned;
        if opts.corrupt_pin {
            pins[0] += 1;
        }
        pins
    })
}

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        corrupt_pin: false,
        work_dir: PathBuf::from(".bench_work"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--corrupt-pin" {
            opts.corrupt_pin = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                opts.seed = value
                    .parse()
                    .map_err(|e| format!("bad --seed {value}: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .map_err(|e| format!("bad --seconds {value}: {e}"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper|wide-stream|live-wal> --seed N \
                 --seconds S --trace <0|1> [--corrupt-pin]"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("perfbench: {}: {e}", opts.work_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = match workload.as_str() {
        "paper" => paper::run(&opts),
        "wide-stream" => wide_stream::run(&opts),
        "live-wal" => live_wal::run(&opts),
        other => Err(format!("unknown workload {other}")),
    };
    match outcome {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
