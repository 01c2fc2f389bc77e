//! The committed `results/` directory matches the experiment table:
//! one file per experiment, no strays, and each file headed by the
//! command that remakes it. Reads files only; CI's `repro` job
//! regenerates the contents and diffs them.

use std::collections::BTreeSet;
use std::path::Path;

use mcc_bench::repro::EXPERIMENTS;
use mcc_bench::Scenario;

/// The scenario `results/` is generated under: `repro all --scale 0.25
/// --out results`.
fn results_scenario() -> Scenario {
    Scenario {
        scale: 0.25,
        ..Scenario::default()
    }
}

fn results_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/results"))
}

#[test]
fn every_experiment_has_exactly_one_results_file() {
    let files: BTreeSet<String> = std::fs::read_dir(results_dir())
        .expect("results/ is committed")
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let expected: BTreeSet<String> = EXPERIMENTS
        .iter()
        .map(|e| format!("{}.txt", e.name))
        .collect();
    let missing: Vec<_> = expected.difference(&files).collect();
    let strays: Vec<_> = files.difference(&expected).collect();
    assert!(
        missing.is_empty(),
        "experiments without a file: {missing:?}"
    );
    assert!(strays.is_empty(), "files no experiment writes: {strays:?}");
}

#[test]
fn every_results_file_starts_with_its_command() {
    let scenario = results_scenario();
    for e in EXPERIMENTS {
        let path = results_dir().join(format!("{}.txt", e.name));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|err| panic!("{}: {err}", path.display()));
        assert_eq!(
            text.lines().next(),
            Some(e.command(&scenario).as_str()),
            "{} is not headed by its command",
            path.display()
        );
    }
}
