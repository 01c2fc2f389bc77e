//! `paper`: the five SPLASH-analogue applications through the
//! materialized path, exactly as `table2` and `table3` run them:
//! `try_run_protocol` with sequential options, which runs
//! `DirectorySim::try_run` on the engine `DirectorySim::new` selects (the
//! reference engine), invariant monitor included.

use std::sync::Arc;
use std::time::Instant;

use mcc_bench::experiments::{try_run_protocol, RunOptions};
use mcc_cache::{CacheConfig, CacheGeometry};
use mcc_core::{
    AnyEngine, DirectorySim, DirectorySimConfig, Engine, EngineKind, Monitor, Protocol, SimResult,
};
use mcc_placement::PagePlacement;
use mcc_trace::{BlockSize, Trace, TraceStream};
use mcc_workloads::{Workload, WorkloadParams};

use crate::layers::{Layers, APPS};
use crate::report::{median, peak_rss_mb, ratio, run_passes, Report};
use crate::spans::Tracer;
use crate::{pins, Opts};

/// The paper's machine.
const NODES: u16 = 16;
/// The smallest scale the generators honour; smaller requests clamp to
/// it.
const SCALE: f64 = 0.1;
/// One pass over the cells, verdict included, takes about this long on the
/// reference host.
const PASS_SECONDS: f64 = 5.0;
/// Message totals of every cell at the default seed, in `CELLS` order.
const PINNED_TOTALS: [u64; 5] = [3_092_000, 484_519, 2_316_596, 2_687_353, 1_345_780];

/// One cell per application, sized so that a run makes several passes:
/// together they cover the conventional baseline and the paper's basic
/// adaptive protocol, on infinite and on finite caches.
const CELLS: [Cell; 5] = [
    Cell {
        app: 0,
        protocol: Protocol::Conventional,
        finite: false,
    },
    Cell {
        app: 1,
        protocol: Protocol::Basic,
        finite: true,
    },
    Cell {
        app: 2,
        protocol: Protocol::Basic,
        finite: false,
    },
    Cell {
        app: 3,
        protocol: Protocol::Conventional,
        finite: true,
    },
    Cell {
        app: 4,
        protocol: Protocol::Basic,
        finite: false,
    },
];

/// One simulation: an application under a protocol, on infinite caches
/// (Table 3's column) or on 64 KB 4-way caches (Table 2's).
#[derive(Clone, Copy)]
struct Cell {
    app: usize,
    protocol: Protocol,
    finite: bool,
}

impl Cell {
    fn config(self) -> DirectorySimConfig {
        let cache = if self.finite {
            CacheConfig::Finite(
                CacheGeometry::paper_default(64 * 1024, BlockSize::B16)
                    .expect("the paper's 64 KB geometry is valid"),
            )
        } else {
            CacheConfig::Infinite
        };
        DirectorySimConfig {
            nodes: NODES,
            cache,
            ..DirectorySimConfig::default()
        }
    }

    fn name(self) -> String {
        let cache = if self.finite { "64KB" } else { "infinite" };
        format!("{}/{}/{cache}", APPS[self.app], self.protocol)
    }
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    // Set-up: synthesis of the five traces, repeated; the median counts.
    let params = WorkloadParams::new(NODES).scale(SCALE).seed(opts.seed);
    let mut traces: Vec<Arc<Trace>> = Vec::new();
    let mut setup_s = Vec::new();
    let mut synth_s = vec![Vec::new(); Workload::ALL.len()];
    for _ in 0..crate::setup_reps(opts.seconds) {
        // One set of traces alive at a time, so set-up leaves the peak RSS
        // to the timed window.
        traces.clear();
        let started = Instant::now();
        for (app, secs) in Workload::ALL.iter().zip(&mut synth_s) {
            let t0 = Instant::now();
            traces.push(Arc::new(app.generate(&params)));
            secs.push(t0.elapsed().as_secs_f64());
        }
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let cells = CELLS;
    let refs: Vec<u64> = cells.iter().map(|c| traces[c.app].len() as u64).collect();

    // Timed window: the cells, pass after pass, each pass followed by its
    // verdict.
    let passes = if opts.trace {
        1
    } else {
        crate::passes(opts.seconds, PASS_SECONDS)
    };
    let pins = pins(opts, PINNED_TOTALS);
    let measured = run_passes(
        passes,
        cells.len(),
        |c| {
            let cell = cells[c];
            try_run_protocol(
                cell.protocol,
                &cell.config(),
                &traces[cell.app],
                &RunOptions::sequential(),
            )
            .map_err(|e| e.to_string())
        },
        |c| independent(cells[c], &traces[cells[c].app]),
        pins.as_ref().map(|p| &p[..]),
        |c| format!("paper: {}", cells[c].name()),
    );
    let peak_rss = peak_rss_mb();
    let attempted = (passes * cells.len()) as u64;

    if opts.trace {
        let mut tracer = Tracer::new();
        let (layers, probed, probe_failed) = traced(
            &mut tracer,
            &traces,
            &cells,
            &measured.first,
            measured.first_s(),
            &synth_s,
        );
        tracer.write(&opts.work_dir.join("paper.spans.jsonl"))?;
        let mut report = Report::new(attempted + probed, measured.failed + probe_failed);
        layers.emit(&mut report);
        return Ok(report);
    }
    let mut report = Report::new(attempted, measured.failed);
    report.end_to_end(&measured.end_to_end(&refs, median(&setup_s), peak_rss));
    Ok(report)
}

/// The streamed runner on the fast engine (finite caches fall back to the
/// reference engine, without the monitor): another placement resolver,
/// another runner and, on infinite caches, another engine than
/// `try_run_protocol` uses.
fn independent(cell: Cell, trace: &Arc<Trace>) -> Result<SimResult, String> {
    let shared = Arc::clone(trace);
    let stream =
        TraceStream::from_generator(trace.len() as u64, move |i| shared.as_slice()[i as usize]);
    DirectorySim::new(cell.protocol, &cell.config())
        .with_engine(EngineKind::Fast)
        .try_run_stream(&stream)
        .map_err(|e| e.to_string())
}

/// The traced run: the untraced pass again with each layer under its own
/// spans, every result checked equal to the untraced one, then the
/// infinite cells once more on the fast engine. Returns the layers and
/// the cells attempted and failed.
fn traced(
    tr: &mut Tracer,
    traces: &[Arc<Trace>],
    cells: &[Cell],
    untraced: &[Result<SimResult, String>],
    untraced_s: f64,
    synth_s: &[Vec<f64>],
) -> (Layers, u64, u64) {
    let results: Vec<Result<SimResult, String>> = tr.span("paper.pass", |tr| {
        cells
            .iter()
            .map(|c| tr.span("cell", |tr| decomposed(tr, *c, &traces[c.app])))
            .collect()
    });
    let mut attempted = cells.len() as u64;
    let mut failed = 0;
    for ((cell, got), want) in cells.iter().zip(&results).zip(untraced) {
        if got != want {
            eprintln!("paper: {}: traced pass gave {got:?}", cell.name());
            failed += 1;
        }
    }
    for (cell, want) in cells.iter().zip(untraced).filter(|(c, _)| !c.finite) {
        attempted += 1;
        let got = fast_steps(tr, *cell, &traces[cell.app]);
        if &got != want {
            eprintln!("paper: {}: fast engine gave {got:?}", cell.name());
            failed += 1;
        }
    }

    let mut layers = Layers::default();
    for (i, slug) in APPS.iter().enumerate() {
        let secs = median(&synth_s[i]);
        layers.set(&format!("workloads.synth_s.{slug}"), secs);
        layers.set(
            &format!("workloads.synth_refs_per_s.{slug}"),
            ratio(traces[i].len() as f64, secs),
        );
    }
    let placement = tr.self_time("placement.profile");
    let step = tr.self_time("core.step");
    let finite = tr.self_time("cache.finite_step");
    let monitor = tr.self_time("core.monitor");
    layers.set("placement.profile_s", placement);
    layers.set("core.step_s", step);
    layers.set("core.fast_step_s", tr.self_time("core.fast_step"));
    layers.set("core.monitor_s", monitor);
    layers.set("core.monitor_share", ratio(monitor, tr.total("cell")));
    layers.set("cache.finite_step_s", finite);
    layers.sim_counts(untraced.iter().filter_map(|r| r.as_ref().ok()));
    layers.coverage(
        tr.total("paper.pass"),
        &[
            ("placement.profile", placement),
            ("core.step", step),
            ("cache.finite_step", finite),
            ("core.monitor", monitor),
        ],
        untraced_s,
    );
    (layers, attempted, failed)
}

/// `DirectorySim::try_run` re-assembled from public entry points so each
/// layer gets its own spans: placement profiling, then engine steps in
/// chunks of the monitor's period with the monitor's sweep after each
/// full chunk, then the final sweep. `try_run` calls
/// `Monitor::after_step` after every step, but it sweeps only when the
/// step count reaches a multiple of the period, which is exactly at the
/// ends of the full chunks.
fn decomposed(tr: &mut Tracer, cell: Cell, trace: &Trace) -> Result<SimResult, String> {
    let config = cell.config();
    let step = if cell.finite {
        "cache.finite_step"
    } else {
        "core.step"
    };
    let placement = tr.span("placement.profile", |_| {
        PagePlacement::profiled(trace, config.nodes)
    });
    let mut engine = tr.span(step, |_| {
        AnyEngine::new(EngineKind::Reference, cell.protocol, &config, placement)
    });
    let len = trace.len() as u64;
    let mut monitor = Monitor::for_run_length(len);
    // `Monitor::for_run_length`'s period. The sweep count is checked
    // below, so a change there cannot skew the split unnoticed.
    let period = Monitor::DEFAULT_PERIOD.max(len / Monitor::MAX_SWEEPS_PER_RUN);
    for chunk in trace.as_slice().chunks(period as usize) {
        tr.span(step, |_| {
            chunk.iter().try_for_each(|r| engine.try_step(*r).map(drop))
        })
        .map_err(|e| e.to_string())?;
        if chunk.len() as u64 == period {
            tr.span("core.monitor", |_| monitor.after_step(&engine))
                .map_err(|e| e.to_string())?;
        }
    }
    tr.span("core.monitor", |_| monitor.verify(&engine))
        .map_err(|e| e.to_string())?;
    let sweeps = len / period + 1;
    if monitor.checks_run() != sweeps {
        return Err(format!(
            "the monitor swept {} times where try_run sweeps {sweeps}",
            monitor.checks_run()
        ));
    }
    Ok(tr.span(step, |_| engine.finish()))
}

/// An infinite-cache cell on the fast engine: the engine alone, with the
/// placement resolved beforehand.
fn fast_steps(tr: &mut Tracer, cell: Cell, trace: &Trace) -> Result<SimResult, String> {
    let config = cell.config();
    let placement = PagePlacement::profiled(trace, config.nodes);
    tr.span("core.fast_step", |_| {
        let mut engine = AnyEngine::new(EngineKind::Fast, cell.protocol, &config, placement);
        trace
            .iter()
            .try_for_each(|r| engine.try_step(*r).map(drop))
            .map_err(|e| e.to_string())?;
        Ok(engine.finish())
    })
}
