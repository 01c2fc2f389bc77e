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

use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};

use mcc_bench::args::Flags;
use mcc_check::{
    explore, fuzz, parse_directory_repr, parse_protocol, protocol_points, protocol_slug, Checker,
    CheckerConfig, Counterexample, ExploreConfig, FuzzConfig,
};
use mcc_core::Protocol;
use mcc_obs::{lock_sink, shared, FlightRecorder, Json, DEFAULT_RING};
use mcc_trace::Trace;

const BIN: &str = "modelcheck";

struct Args {
    nodes: u16,
    blocks: u64,
    max_len: usize,
    max_states: u64,
    seed: u64,
    fuzz_cases: u64,
    fuzz_len: usize,
    time_budget: Option<Duration>,
    repro_dir: Option<PathBuf>,
    planted_bug: bool,
    replay: Option<PathBuf>,
    protocol: Option<Protocol>,
    fast_engine: bool,
    directory: mcc_core::DirectoryRepr,
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.replay {
        exit(replay(path, &args));
    }

    let deadline = args.time_budget.map(|b| Instant::now() + b);
    let protocols: Vec<Protocol> = match args.protocol {
        Some(p) => vec![p],
        None => protocol_points(),
    };

    let mut counterexamples: Vec<Counterexample> = Vec::new();
    let mut exhaustive_rows = Vec::new();
    if args.max_len > 0 && !args.planted_bug {
        for &protocol in &protocols {
            let mut config = ExploreConfig::new(protocol);
            config.nodes = args.nodes;
            config.blocks = args.blocks;
            config.max_len = args.max_len;
            config.max_states = args.max_states;
            config.time_budget = deadline.map(remaining);
            config.fast_engine = args.fast_engine;
            config.directory = args.directory;
            let out = explore(&config);
            eprintln!(
                "{BIN}: exhaustive {} nodes={} blocks={} L={}: {} states, complete={}, \
                 violations={}",
                protocol_slug(protocol),
                args.nodes,
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
        let mut config = FuzzConfig::new(args.seed);
        config.protocols = protocols.clone();
        config.cases = args.fuzz_cases;
        config.trace_len = args.fuzz_len;
        config.nodes = args.nodes.max(2);
        config.blocks = args.blocks.max(2);
        config.broken_demotion_spec = args.planted_bug;
        config.fast_engine = args.fast_engine;
        config.directory = args.directory;
        config.time_budget = deadline.map(remaining);
        if args.planted_bug {
            // The planted bug only shows against an adaptive spec.
            config.protocols.retain(|p| p.policy().is_some());
        }
        let report = fuzz(&config);
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
    for cx in &counterexamples {
        let repro = write_repro(cx, args.repro_dir.as_deref());
        render(cx, &args);
        cx_rows.push(Json::Obj(vec![
            ("protocol".into(), Json::Str(protocol_slug(cx.protocol))),
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
        ("planted_bug".into(), Json::Bool(args.planted_bug)),
        ("fast_engine".into(), Json::Bool(args.fast_engine)),
        ("directory".into(), Json::Str(args.directory.to_string())),
        ("exhaustive".into(), Json::Arr(exhaustive_rows)),
        ("fuzz".into(), fuzz_row),
        ("counterexamples".into(), Json::Arr(cx_rows)),
    ]);
    println!("{summary}");

    let failed = if args.planted_bug {
        // Fixture mode inverts success: the fuzzer must find the bug.
        counterexamples.is_empty()
    } else {
        !counterexamples.is_empty()
    };
    exit(i32::from(failed));
}

fn remaining(deadline: Instant) -> Duration {
    deadline.saturating_duration_since(Instant::now())
}

/// Re-checks a previously written `.mcct` counterexample and renders
/// the flight-recorder context. Exits 0 when the trace still fails
/// (the repro reproduces), 1 when it passes cleanly.
fn replay(path: &std::path::Path, args: &Args) -> i32 {
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
    let mut config = CheckerConfig::new(protocol, args.nodes);
    config.spec_demotion_enabled = !args.planted_bug;
    config.fast_engine = args.fast_engine;
    config.directory = args.directory;
    match Checker::new(&config).run(&trace) {
        Err(violation) => {
            let cx = Counterexample {
                protocol,
                trace,
                violation,
            };
            eprintln!("{BIN}: replay of {} still fails:", path.display());
            render(&cx, args);
            0
        }
        Ok(_) => {
            eprintln!(
                "{BIN}: replay of {} passes — the counterexample no longer reproduces",
                path.display()
            );
            1
        }
    }
}

/// Writes a minimized counterexample trace under `dir`, returning its
/// path.
fn write_repro(cx: &Counterexample, dir: Option<&std::path::Path>) -> Option<PathBuf> {
    let dir = dir?;
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("{BIN}: cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!(
        "{}-{}-step{}.mcct",
        protocol_slug(cx.protocol),
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
/// trace, and the flight recorder's last-events dump plus the
/// offending block's classification timeline (from re-running the
/// trace through a plain engine with a recorder sink).
fn render(cx: &Counterexample, args: &Args) {
    eprintln!(
        "{BIN}: counterexample [{}] {}",
        protocol_slug(cx.protocol),
        cx.violation
    );
    for (i, r) in cx.trace.iter().enumerate() {
        eprintln!("{BIN}:   [{i}] {r}");
    }
    let config = mcc_core::DirectorySimConfig {
        nodes: args.nodes,
        block_size: mcc_check::CHECK_BLOCK_SIZE,
        placement: mcc_core::PlacementPolicy::RoundRobin,
        ..mcc_core::DirectorySimConfig::default()
    };
    let (recorder, handle) = shared(FlightRecorder::new(DEFAULT_RING));
    let spec = mcc_core::RunSpec {
        sinks: Some(std::slice::from_ref(&handle)),
        monitor: true,
        ..mcc_core::RunSpec::default()
    };
    let outcome = mcc_core::DirectorySim::new(cx.protocol, &config)
        .execute(&cx.trace, &spec)
        .and_then(|report| report.merged());
    if let Err(e) = outcome {
        eprintln!("{BIN}: engine replay itself failed: {e}");
    }
    eprint!("{}", lock_sink(&recorder).report(cx.violation.block));
}

fn parse_args() -> Args {
    let mut args = Args {
        nodes: 2,
        blocks: 1,
        max_len: 8,
        max_states: u64::MAX,
        seed: 0xc0c0_a75e,
        fuzz_cases: 8,
        fuzz_len: 400,
        time_budget: None,
        repro_dir: None,
        planted_bug: false,
        replay: None,
        protocol: None,
        fast_engine: false,
        directory: mcc_core::DirectoryRepr::FullMap,
    };
    let mut flags = Flags::from_env(BIN);
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--nodes" => args.nodes = flags.value(),
            "--blocks" => args.blocks = flags.value(),
            "--max-len" => args.max_len = flags.value(),
            "--max-states" => args.max_states = flags.value(),
            "--seed" => args.seed = flags.value(),
            "--fuzz-cases" => args.fuzz_cases = flags.value(),
            "--fuzz-len" => args.fuzz_len = flags.value(),
            "--time-budget" => args.time_budget = Some(Duration::from_secs(flags.value())),
            "--repro-dir" => args.repro_dir = Some(flags.value()),
            "--planted-bug" => args.planted_bug = true,
            "--fast-engine" => args.fast_engine = true,
            "--directory" => args.directory = flags.value_with(parse_directory_repr),
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
