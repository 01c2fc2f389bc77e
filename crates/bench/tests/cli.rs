//! The harness binaries' command lines: every bad flag is a usage error
//! (exit 2, one message format) rather than a panic or a silently
//! ignored argument, and every binary accepts a well-formed command.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output};

use mcc_obs::Json;

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcc-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `bin` with `args` inside `dir`.
fn run_in(dir: &std::path::Path, bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

fn run(bin: &str, args: &[&str]) -> Output {
    run_in(&std::env::temp_dir(), bin, args)
}

/// Asserts a usage error that names `what`.
fn usage_error(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(what) && stderr.trim_end().ends_with("(try --help)"),
        "usage error should name {what}: {stderr}"
    );
}

/// Asserts a clean exit.
fn accepted(out: &Output) -> String {
    assert!(
        out.status.success(),
        "exit {:?}, stderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).unwrap()
}

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

#[test]
fn malformed_values_are_usage_errors_not_panics() {
    let dir = scratch("malformed");
    let tracegen = env!("CARGO_BIN_EXE_tracegen");
    usage_error(
        &run_in(&dir, tracegen, &["cholesky", "t.mcct", "--nodes", "abc"]),
        "--nodes",
    );
    usage_error(&run(REPRO, &["table3", "--scale", "banana"]), "--scale");
    usage_error(&run(REPRO, &["table3", "--nodes"]), "--nodes needs a value");
    usage_error(
        &run(env!("CARGO_BIN_EXE_modelcheck"), &["--protocol", "bogus"]),
        "--protocol",
    );
    // A machine needs a node.
    usage_error(
        &run(env!("CARGO_BIN_EXE_modelcheck"), &["--nodes", "0"]),
        "--nodes",
    );
    usage_error(
        &run(env!("CARGO_BIN_EXE_torture"), &["--scenario", "bogus"]),
        "--scenario",
    );
    assert!(!dir.join("t.mcct").exists());
}

#[test]
fn unknown_flags_are_rejected() {
    usage_error(
        &run(env!("CARGO_BIN_EXE_traceinfo"), &["t.mcct", "--simlate"]),
        "--simlate",
    );
    for bin in [
        env!("CARGO_BIN_EXE_bench"),
        env!("CARGO_BIN_EXE_golden_dump"),
        env!("CARGO_BIN_EXE_live"),
        env!("CARGO_BIN_EXE_mcc_top"),
        env!("CARGO_BIN_EXE_modelcheck"),
        env!("CARGO_BIN_EXE_obs_report"),
        env!("CARGO_BIN_EXE_scale"),
        env!("CARGO_BIN_EXE_scaling"),
        env!("CARGO_BIN_EXE_supervisor"),
        env!("CARGO_BIN_EXE_torture"),
        REPRO,
    ] {
        usage_error(&run(bin, &["--bogus"]), "unknown argument \"--bogus\"");
    }
    usage_error(&run(REPRO, &["tables"]), "unknown experiment");
    usage_error(&run(REPRO, &[]), "name an experiment");
}

#[test]
fn repro_rejects_flags_no_selected_experiment_reads() {
    // The fixed tables have no scenario.
    usage_error(&run(REPRO, &["table1", "--scale", "0.5"]), "--scale");
    usage_error(&run(REPRO, &["figure2", "--nodes", "8"]), "--nodes");
    // Only the sweeps pass the run flags to their cells, and
    // scaling_nodes sweeps the node count itself.
    usage_error(
        &run(REPRO, &["ablation_phases", "--checkpoint-every", "5"]),
        "--checkpoint-every",
    );
    usage_error(
        &run(REPRO, &["scaling_nodes", "--checkpoint-every", "5"]),
        "--checkpoint-every",
    );
    usage_error(&run(REPRO, &["scaling_nodes", "--nodes", "8"]), "--nodes");
    // Bar charts and free-form text have no CSV form.
    for name in ["figures", "calibrate", "ablation_phases"] {
        usage_error(&run(REPRO, &[name, "--csv"]), "--csv");
    }
    usage_error(&run(REPRO, &["table1", "--csv", "--seed", "1"]), "--seed");
}

#[test]
fn repro_heads_each_text_with_its_command() {
    let dir = scratch("repro");
    let text = accepted(&run(REPRO, &["storage_overhead", "table1"]));
    assert!(text.starts_with("repro table1\nTable 1 — "), "{text}");
    assert!(text.contains("\nrepro storage_overhead\nDirectory-entry storage"));

    accepted(&run_in(&dir, REPRO, &["figure2", "--out", "out"]));
    let written = std::fs::read_to_string(dir.join("out/figure2.txt")).unwrap();
    assert!(written.starts_with("repro figure2\nFigure 2 (top)"));

    // CSV output is the tables' rows alone.
    let csv = accepted(&run(REPRO, &["table1", "--csv"]));
    assert!(csv.starts_with("operation,home node,"), "{csv}");
    assert!(csv.lines().all(|l| l.contains(',')), "{csv}");
}

#[test]
fn every_bin_accepts_a_well_formed_command() {
    let dir = scratch("accepted");
    let bench_scale = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(dir.join("cells.manifest"), "basic water\n").unwrap();
    let cases: &[(&str, &[&str])] = &[
        // A real bench or golden dump runs for tens of seconds.
        (env!("CARGO_BIN_EXE_bench"), &["--help"]),
        (env!("CARGO_BIN_EXE_golden_dump"), &["--help"]),
        (env!("CARGO_BIN_EXE_mcc_top"), &["--help"]),
        (
            env!("CARGO_BIN_EXE_live"),
            &["--nodes", "2", "--shards", "1", "--max-refs", "200"],
        ),
        (
            env!("CARGO_BIN_EXE_modelcheck"),
            &["--max-len", "2", "--fuzz-cases", "0", "--protocol", "basic"],
        ),
        (env!("CARGO_BIN_EXE_obs_report"), &["--scale", bench_scale]),
        (
            env!("CARGO_BIN_EXE_scale"),
            &[
                "--refs",
                "2000",
                "--nodes",
                "4",
                "--shards",
                "1",
                "--prefix",
                "100",
                "--directory",
                "full-map",
                "--out",
                "scale.json",
            ],
        ),
        (
            env!("CARGO_BIN_EXE_scaling"),
            &["--scale", "0.001", "--nodes", "4", "--csv"],
        ),
        (
            env!("CARGO_BIN_EXE_supervisor"),
            &[
                "--manifest",
                "cells.manifest",
                "--state",
                "state",
                "--nodes",
                "2",
            ],
        ),
        (
            env!("CARGO_BIN_EXE_torture"),
            &[
                "--scenario",
                "sequential",
                "--max-kills",
                "1",
                "--stride",
                "1000",
                "--out",
                "torture.json",
            ],
        ),
    ];
    for (bin, args) in cases {
        accepted(&run_in(&dir, bin, args));
    }
    // tracegen writes the trace traceinfo then reads.
    accepted(&run_in(
        &dir,
        env!("CARGO_BIN_EXE_tracegen"),
        &[
            "water", "w.mcct", "--nodes", "2", "--scale", "0.1", "--seed", "3",
        ],
    ));
    let info = accepted(&run_in(&dir, env!("CARGO_BIN_EXE_traceinfo"), &["w.mcct"]));
    assert!(info.contains("2 nodes"), "{info}");
}

#[test]
fn a_finished_sweep_leaves_no_snapshot_behind() {
    let dir = scratch("sweep-snapshots");
    std::fs::write(
        dir.join("cells.manifest"),
        "basic water\ncustom=0,3,1,0 water\n",
    )
    .unwrap();
    // Snapshots every 2,000 records rotate each cell's previous
    // generation several times before the cell completes.
    let args = [
        "--manifest",
        "cells.manifest",
        "--state",
        "state",
        "--nodes",
        "4",
        "--scale",
        "0.1",
        "--checkpoint-every",
        "2000",
    ];
    let left = || {
        let mut names: Vec<String> = std::fs::read_dir(dir.join("state"))
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    let results = ["basic-water.result", "custom-i0-e3-r1-d0-water.result"];
    accepted(&run_in(&dir, env!("CARGO_BIN_EXE_supervisor"), &args));
    assert_eq!(left(), results);
    // Snapshot files beside a committed result, as a kill between the
    // commit and their removal leaves them, go when a restart skips the
    // cell.
    for suffix in ["ckpt", "ckpt.prev", "ckpt.tmp"] {
        std::fs::write(
            dir.join("state").join(format!("basic-water.{suffix}")),
            b"stale",
        )
        .unwrap();
    }
    let restart = accepted(&run_in(&dir, env!("CARGO_BIN_EXE_supervisor"), &args));
    assert!(
        restart.contains("basic-water: already complete"),
        "{restart}"
    );
    assert_eq!(left(), results);
}

#[test]
fn modelcheck_repros_are_distinct_and_replay_on_the_machine_that_found_them() {
    let dir = scratch("modelcheck-repros");
    let modelcheck = env!("CARGO_BIN_EXE_modelcheck");
    let machine = [
        "--protocol",
        "aggressive",
        "--nodes",
        "3",
        "--directory",
        "dir1b",
        "--planted-bug",
    ];
    let campaign = [
        "--seed",
        "1993",
        "--fuzz-cases",
        "4",
        "--repro-dir",
        "repros",
    ];
    let summary = accepted(&run_in(
        &dir,
        modelcheck,
        &[&machine[..], &campaign].concat(),
    ));
    let summary = Json::parse(&summary).unwrap();
    let rows = summary.get("counterexamples").and_then(Json::as_arr);
    let rows = rows.expect("a counterexamples array");
    // Several counterexamples share a protocol, invariant and step.
    assert!(rows.len() > 2, "{summary}");
    let mut repros = BTreeSet::new();
    for row in rows {
        let field = |key| row.get(key).unwrap_or_else(|| panic!("{key} in {row}"));
        let repro = field("repro").as_str().unwrap();
        assert!(repros.insert(repro), "{repro} named twice");
        assert!(dir.join(repro).is_file(), "{repro}");
        let out = run_in(
            &dir,
            modelcheck,
            &[&["--replay", repro], &machine[..]].concat(),
        );
        accepted(&out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let (invariant, step) = (field("invariant").as_str(), field("step").as_u64());
        let named = format!("[{}] step {}", invariant.unwrap(), step.unwrap());
        assert!(stderr.contains(&named), "{repro}: want {named}: {stderr}");
    }
}

#[test]
fn obs_report_live_rejects_a_duplicated_invalidation() {
    let dir = scratch("live-tamper");
    let obs_report = env!("CARGO_BIN_EXE_obs_report");
    accepted(&run_in(
        &dir,
        env!("CARGO_BIN_EXE_live"),
        &[
            "--nodes",
            "4",
            "--shards",
            "2",
            "--max-refs",
            "300",
            "--out",
            "run",
        ],
    ));
    accepted(&run_in(&dir, obs_report, &["--live", "run"]));

    // One more copy of the first invalidation a shard committed: every
    // line still parses and the step events still match the journal.
    let invalidation = |l: &&str| l.contains(r#""ev":"invalidation""#);
    let (shard, path, text) = (0..2)
        .find_map(|shard| {
            let path = dir.join(format!("run.shard-{shard}.events.jsonl"));
            let text = std::fs::read_to_string(&path).unwrap();
            text.lines()
                .any(|l| invalidation(&l))
                .then_some((shard, path, text))
        })
        .expect("a migratory workload invalidates");
    let mut lines: Vec<&str> = text.lines().collect();
    let at = lines.iter().position(invalidation).unwrap();
    lines.insert(at, lines[at]);
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();

    let out = run_in(&dir, obs_report, &["--live", "run"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(&format!("shard {shard}: ")), "{stderr}");
}
