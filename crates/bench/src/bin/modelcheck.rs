//! Model-checking and fuzzing driver for the protocol family.
//!
//! Runs the `mcc-check` exhaustive bounded explorer over every
//! standard protocol point, then a seeded differential fuzzing
//! campaign, and prints a machine-readable JSON summary on stdout
//! (validated by `obs_report --modelcheck`). Counterexamples are
//! minimized, written as replayable `.mcct` traces under
//! `--repro-dir`, and rendered with the flight recorder's
//! classification timeline on stderr.
//!
//! Exit status: 0 when every check passed, 1 on any violation (or, in
//! `--planted-bug` mode, when the planted bug was *not* found), 2 on
//! usage errors.

use std::num::NonZeroU16;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::{Duration, Instant};

use mcc_bench::args::Flags;
use mcc_check::{
    explore, fuzz, parse_directory_repr, parse_protocol, protocol_points, protocol_slug,
    CheckViolation, Checker, CheckerConfig, Counterexample, ExploreConfig, FuzzConfig,
};
use mcc_core::Protocol;
use mcc_obs::{Event, FlightRecorder, Json, DEFAULT_RING};
use mcc_trace::Trace;

const BIN: &str = "modelcheck";

struct Args {
    /// The checked machine, from `--nodes`, `--fast-engine`,
    /// `--directory` and `--planted-bug`; each protocol point checked
    /// replaces its protocol.
    checker: CheckerConfig,
    blocks: u64,
    max_len: usize,
    max_states: u64,
    seed: u64,
    fuzz_cases: u64,
    fuzz_len: usize,
    time_budget: Option<Duration>,
    repro_dir: Option<PathBuf>,
    replay: Option<PathBuf>,
    protocol: Option<Protocol>,
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.replay {
        exit(replay(path, &args));
    }

    let planted_bug = !args.checker.spec_demotion_enabled;
    let deadline = args.time_budget.map(|b| Instant::now() + b);
    let protocols: Vec<Protocol> = match args.protocol {
        Some(p) => vec![p],
        None => protocol_points(),
    };

    let mut counterexamples: Vec<Counterexample> = Vec::new();
    let mut exhaustive_rows = Vec::new();
    if args.max_len > 0 && !planted_bug {
        for &protocol in &protocols {
            let out = explore(&ExploreConfig {
                checker: CheckerConfig {
                    protocol,
                    ..args.checker.clone()
                },
                blocks: args.blocks,
                max_len: args.max_len,
                max_states: args.max_states,
                time_budget: deadline.map(remaining),
            });
            eprintln!(
                "{BIN}: exhaustive {} nodes={} blocks={} L={}: {} states, complete={}, \
                 violations={}",
                protocol_slug(protocol),
                args.checker.nodes,
                args.blocks,
                args.max_len,
                out.states,
                out.complete,
                u64::from(out.violation.is_some()),
            );
            exhaustive_rows.push(Json::Obj(vec![
                ("protocol".into(), Json::Str(protocol_slug(protocol))),
                ("states".into(), Json::u64(out.states)),
                ("complete".into(), Json::Bool(out.complete)),
                (
                    "violations".into(),
                    Json::u64(u64::from(out.violation.is_some())),
                ),
            ]));
            counterexamples.extend(out.violation);
        }
    }

    let mut fuzz_row = Json::Null;
    if args.fuzz_cases > 0 {
        let report = fuzz(&FuzzConfig {
            checker: args.checker.clone(),
            // The planted bug only shows against an adaptive spec.
            protocols: (protocols.iter().copied())
                .filter(|p| !planted_bug || p.policy().is_some())
                .collect(),
            seed: args.seed,
            cases: args.fuzz_cases,
            trace_len: args.fuzz_len,
            // Blocks are the generator's alphabet, not the machine.
            blocks: args.blocks.max(2),
            time_budget: deadline.map(remaining),
        });
        eprintln!(
            "{BIN}: fuzz seed={} cases={} refs={} complete={} violations={}",
            args.seed,
            report.cases_run,
            report.refs_checked,
            report.complete,
            report.counterexamples.len()
        );
        fuzz_row = Json::Obj(vec![
            ("seed".into(), Json::u64(args.seed)),
            ("cases".into(), Json::u64(report.cases_run)),
            ("refs".into(), Json::u64(report.refs_checked)),
            ("complete".into(), Json::Bool(report.complete)),
            (
                "violations".into(),
                Json::u64(report.counterexamples.len() as u64),
            ),
        ]);
        counterexamples.extend(report.counterexamples);
    }

    let mut cx_rows = Vec::new();
    for (index, cx) in counterexamples.iter().enumerate() {
        let repro = write_repro(index, cx, args.repro_dir.as_deref());
        render(cx, &check(&cx.config, &cx.trace).1);
        cx_rows.push(Json::Obj(vec![
            (
                "protocol".into(),
                Json::Str(protocol_slug(cx.config.protocol)),
            ),
            (
                "invariant".into(),
                Json::Str(cx.violation.invariant.label().into()),
            ),
            ("step".into(), Json::u64(cx.violation.step)),
            ("len".into(), Json::u64(cx.trace.len() as u64)),
            (
                "repro".into(),
                repro.map_or(Json::Null, |p| Json::Str(p.display().to_string())),
            ),
        ]));
    }

    let summary = Json::Obj(vec![
        ("tool".into(), Json::Str(BIN.into())),
        ("planted_bug".into(), Json::Bool(planted_bug)),
        ("fast_engine".into(), Json::Bool(args.checker.fast_engine)),
        (
            "directory".into(),
            Json::Str(args.checker.directory.to_string()),
        ),
        ("exhaustive".into(), Json::Arr(exhaustive_rows)),
        ("fuzz".into(), fuzz_row),
        ("counterexamples".into(), Json::Arr(cx_rows)),
    ]);
    println!("{summary}");

    // Fixture mode inverts success: the fuzzer must find the bug.
    exit(i32::from(counterexamples.is_empty() == planted_bug));
}

fn remaining(deadline: Instant) -> Duration {
    deadline.saturating_duration_since(Instant::now())
}

/// Re-checks a previously written `.mcct` counterexample on the machine
/// the flags name and renders the flight-recorder context. Exits 0 when
/// the trace still fails (the repro reproduces), 1 when it passes
/// cleanly.
fn replay(path: &Path, args: &Args) -> i32 {
    let protocol = args.protocol.unwrap_or_else(|| {
        eprintln!("{BIN}: --replay needs --protocol NAME");
        exit(2);
    });
    let file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("{BIN}: cannot open {}: {e}", path.display());
        exit(2);
    });
    let trace = Trace::read_from(std::io::BufReader::new(file)).unwrap_or_else(|e| {
        eprintln!("{BIN}: {}: not a valid trace: {e}", path.display());
        exit(2);
    });
    let config = CheckerConfig {
        protocol,
        ..args.checker.clone()
    };
    let (verdict, events) = check(&config, &trace);
    let Some(violation) = verdict else {
        eprintln!(
            "{BIN}: replay of {} passes — the counterexample no longer reproduces",
            path.display()
        );
        return 1;
    };
    eprintln!("{BIN}: replay of {} still fails:", path.display());
    let cx = Counterexample {
        config,
        trace,
        violation,
    };
    render(&cx, &events);
    0
}

/// Runs `trace` through a checker on `config` up to its first
/// violation, `finish`'s included: that violation, and every event the
/// engine emitted on the way.
fn check(config: &CheckerConfig, trace: &Trace) -> (Option<CheckViolation>, Vec<Event>) {
    let mut checker = Checker::new(config);
    let stepped = (trace.iter()).try_for_each(|r| checker.check_step(*r).map(drop));
    let events = checker.events();
    let verdict = stepped.and_then(|()| checker.finish().map(drop));
    (verdict.err(), events)
}

/// Writes the `index`th minimized counterexample trace under `dir`,
/// returning its path.
fn write_repro(index: usize, cx: &Counterexample, dir: Option<&Path>) -> Option<PathBuf> {
    let dir = dir?;
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("{BIN}: cannot create {}: {e}", dir.display());
        return None;
    }
    let block = (cx.violation.block).map_or(String::new(), |b| format!("-block{b}"));
    let path = dir.join(format!(
        "{index}-{}-{}{block}-step{}.mcct",
        protocol_slug(cx.config.protocol),
        cx.violation.invariant.label(),
        cx.violation.step
    ));
    let result =
        std::fs::File::create(&path).and_then(|f| cx.trace.write_to(std::io::BufWriter::new(f)));
    match result {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("{BIN}: writing {}: {e}", path.display());
            None
        }
    }
}

/// Renders a counterexample on stderr: the violation, the minimized
/// trace, and the flight recorder's last-events dump plus the offending
/// block's classification timeline, read from `events`, the event tap
/// of a checker that replayed the trace on `cx.config`.
fn render(cx: &Counterexample, events: &[Event]) {
    eprintln!(
        "{BIN}: counterexample [{}] {}",
        protocol_slug(cx.config.protocol),
        cx.violation
    );
    for (i, r) in cx.trace.iter().enumerate() {
        eprintln!("{BIN}:   [{i}] {r}");
    }
    let recorder = FlightRecorder::replay(events, DEFAULT_RING);
    eprint!("{}", recorder.report(cx.violation.block));
}

fn parse_args() -> Args {
    let mut args = Args {
        checker: CheckerConfig::new(Protocol::Conventional, 2),
        blocks: 1,
        max_len: 8,
        max_states: u64::MAX,
        seed: 0xc0c0_a75e,
        fuzz_cases: 8,
        fuzz_len: 400,
        time_budget: None,
        repro_dir: None,
        replay: None,
        protocol: None,
    };
    let mut flags = Flags::from_env(BIN);
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--nodes" => args.checker.nodes = flags.value::<NonZeroU16>().get(),
            "--blocks" => args.blocks = flags.value(),
            "--max-len" => args.max_len = flags.value(),
            "--max-states" => args.max_states = flags.value(),
            "--seed" => args.seed = flags.value(),
            "--fuzz-cases" => args.fuzz_cases = flags.value(),
            "--fuzz-len" => args.fuzz_len = flags.value(),
            "--time-budget" => args.time_budget = Some(Duration::from_secs(flags.value())),
            "--repro-dir" => args.repro_dir = Some(flags.value()),
            "--planted-bug" => args.checker.spec_demotion_enabled = false,
            "--fast-engine" => args.checker.fast_engine = true,
            "--directory" => args.checker.directory = flags.value_with(parse_directory_repr),
            "--replay" => args.replay = Some(flags.value()),
            "--protocol" => args.protocol = Some(flags.value_with(parse_protocol)),
            "--help" | "-h" => {
                println!(
                    "{BIN} — exhaustive protocol model checker + differential fuzzer\n\n\
                     Usage: {BIN} [options]\n\
                     \n  --nodes N         nodes in the checked configuration (default 2)\
                     \n  --blocks B        blocks in the checked configuration (default 1)\
                     \n  --max-len L       exhaustive trace-length bound (default 8; 0 skips)\
                     \n  --max-states S    cap on states per protocol point (default unlimited)\
                     \n  --seed S          fuzzer master seed (default 0xc0c0a75e)\
                     \n  --fuzz-cases N    fuzz traces to generate (default 8; 0 skips)\
                     \n  --fuzz-len L      references per fuzz trace (default 400)\
                     \n  --time-budget S   overall wall-clock budget in seconds\
                     \n  --repro-dir DIR   write minimized counterexamples as .mcct here\
                     \n  --planted-bug     fixture mode: check against the known-broken\
                     \n                    no-demotion spec; exits 0 iff the bug is FOUND\
                     \n  --fast-engine     check the fast hot-path engine instead of the\
                     \n                    reference DirectoryEngine\
                     \n  --directory R     directory representation to check (full-map,\
                     \n                    dirNb, cvR, dirNcvR; default full-map)\
                     \n  --replay FILE     re-check a .mcct counterexample (needs --protocol)\
                     \n  --protocol NAME   restrict to one protocol point (basic, adaptive,\
                     \n                    aggressive, conventional, pure-migratory,\
                     \n                    custom=i,e,r,d or a custom-i*-e*-r*-d* slug)\n\
                     \nPrints a JSON summary on stdout (validate with obs_report --modelcheck).\
                     \nExit status: 0 all checks passed, 1 violations found, 2 usage error."
                );
                exit(0);
            }
            _ => flags.unknown(),
        }
    }
    args
}
