//! The experiment table behind the `repro` binary: every table, figure
//! and study of the reproduction as one row naming the experiment, the
//! flags it reads, and the renderer that prints it.

use std::fmt::Display;

use mcc_core::{
    charge, migrate_hints, AdaptivePolicy, DirEntryLayout, DirectoryEngine, DirectoryRepr,
    DirectorySim, DirectorySimConfig, Engine, FaultPlan, OpKind, PlacementPolicy, Protocol,
};
use mcc_placement::PagePlacement;
use mcc_snoop::{
    local_fill, local_write_hit, snoop_remote, BusCostModel, BusRequest, BusSim, BusSimConfig,
    SnoopProtocol, SnoopReply, SnoopState, UpdateBusSim,
};
use mcc_stats::{thousands, BarChart, Table};
use mcc_trace::{Addr, BlockSize, Classification, SharingPattern};
use mcc_workloads::{interleave_streams, GenCtx, PhasedObjects, Region, Workload};

use crate::experiments::{
    block_size_sweep, bus_sweep, cache_size_sweep, cost_ratio_table, exec_time_comparison,
    policy_ablation, render_message_rows, run_protocol, BLOCK_SIZES, CACHE_SIZES_KB,
};
use crate::Scenario;

/// One experiment: what `repro` calls it, what it shows, the flags it
/// reads, and how to render it.
pub struct Experiment {
    /// The name `repro` selects it by, and its `results/` file stem.
    pub name: &'static str,
    /// One line for `repro --help`.
    pub about: &'static str,
    /// The flags the renderer reads, space-separated; `repro` rejects
    /// any other.
    pub reads: &'static str,
    /// Renders the experiment under a scenario.
    pub render: fn(&Scenario, &mut Report),
}

impl Experiment {
    /// Whether the renderer reads `flag`.
    pub fn reads(&self, flag: &str) -> bool {
        self.reads.split(' ').any(|f| f == flag)
    }

    /// The command that remakes this experiment's text under
    /// `scenario`: `repro`, the name, and the values of the scenario
    /// flags the experiment reads.
    pub fn command(&self, scenario: &Scenario) -> String {
        let values: [(&str, &dyn Display); 3] = [
            ("--nodes", &scenario.nodes),
            ("--scale", &scenario.scale),
            ("--seed", &scenario.seed),
        ];
        let mut command = format!("repro {}", self.name);
        for (flag, value) in values.iter().filter(|(flag, _)| self.reads(flag)) {
            command.push_str(&format!(" {flag} {value}"));
        }
        command
    }

    /// The experiment's output under `scenario`: its command line and
    /// then its text, or only its CSV rows.
    pub fn run(&self, scenario: &Scenario) -> String {
        let csv = scenario.csv && self.reads("--csv");
        let mut report = Report {
            csv,
            out: String::new(),
        };
        if !csv {
            report.line(self.command(scenario));
        }
        (self.render)(scenario, &mut report);
        report.out
    }
}

/// Where a renderer writes: tables print as aligned text or as CSV
/// rows, and prose prints only as text.
pub struct Report {
    csv: bool,
    out: String,
}

impl Report {
    /// Appends `table` followed by a blank line, or its CSV rows.
    pub fn table(&mut self, table: &Table) {
        if self.csv {
            self.out.push_str(&table.to_csv());
        } else {
            self.line(table);
        }
    }

    /// Appends one line of prose, a chart, or a pre-formatted block;
    /// CSV output leaves it out.
    pub fn line(&mut self, line: impl Display) {
        if !self.csv {
            self.out.push_str(&format!("{line}\n"));
        }
    }
}

/// The fixed tables read no scenario.
const FIXED: &str = "--csv";
/// The scenario flags of a study over the five applications.
const APPS: &str = "--nodes --scale --seed --csv";
/// [`APPS`] for a study with no CSV form.
const APPS_TEXT: &str = "--nodes --scale --seed";
/// Every scenario flag: a study's flags plus the run flags each cell of
/// a checkpointed sweep honours.
pub const SWEEPS: &str = "--nodes --scale --seed --csv --shards --checkpoint-every \
                          --checkpoint --resume --events-out --metrics-out --events-ring";
/// [`SWEEPS`] without `--csv`: bar charts have no CSV form.
const CHARTS: &str = "--nodes --scale --seed --shards --checkpoint-every \
                      --checkpoint --resume --events-out --metrics-out --events-ring";

/// Every experiment, in the order `repro all` runs them.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "table1", reads: FIXED, render: table1, about: "Table 1: inter-node messages per cache operation" },
    Experiment { name: "table2", reads: SWEEPS, render: table2, about: "Table 2: message counts by cache size" },
    Experiment { name: "table3", reads: SWEEPS, render: table3, about: "Table 3: message counts by block size" },
    Experiment { name: "figure2", reads: FIXED, render: figure2, about: "Figure 2: the adaptive snooping transition tables" },
    Experiment { name: "figures", reads: CHARTS, render: figures, about: "Tables 2 and 3 as reduction-trend bar charts" },
    Experiment { name: "cost_ratios", reads: SWEEPS, render: cost_ratios, about: "§4.1: message cost-ratio study" },
    Experiment { name: "exec_time", reads: APPS, render: exec_time, about: "§4.2: execution-time comparison" },
    Experiment { name: "bus_protocol", reads: APPS, render: bus_protocol, about: "§4.3: bus-based protocol comparison" },
    Experiment { name: "storage_overhead", reads: FIXED, render: storage_overhead, about: "§2.2: directory-entry storage by machine size" },
    Experiment { name: "classify", reads: APPS, render: classify, about: "workload sharing-pattern census" },
    Experiment { name: "calibrate", reads: APPS_TEXT, render: calibrate, about: "per-app reference counts, footprints and write fractions" },
    Experiment { name: "scaling_nodes", reads: "--scale --seed --csv --shards", render: scaling_nodes, about: "node-count scalability study" },
    Experiment { name: "ablation_policy", reads: APPS, render: ablation_policy, about: "A1: policy-axis ablation" },
    Experiment { name: "ablation_pure_migrate", reads: APPS, render: ablation_pure_migrate, about: "A2: pure-migratory comparison" },
    Experiment { name: "ablation_stenstrom", reads: APPS, render: ablation_stenstrom, about: "§5: Stenström-rule comparison" },
    Experiment { name: "ablation_oracle", reads: APPS, render: ablation_oracle, about: "§5: off-line RWITM bound" },
    Experiment { name: "ablation_write_update", reads: APPS, render: ablation_write_update, about: "§1: write-update baseline" },
    // Its custom-policy labels hold commas, which CSV cells cannot.
    Experiment { name: "ablation_phases", reads: APPS_TEXT, render: ablation_phases, about: "phase-change reclassification stress" },
    Experiment { name: "ablation_limited_pointers", reads: APPS, render: ablation_limited_pointers, about: "Dir-i-B directory study" },
    Experiment { name: "ablation_faults", reads: APPS, render: ablation_faults, about: "unreliable-interconnect study" },
];

/// The default directory machine, at `nodes` nodes.
fn config(nodes: u16) -> DirectorySimConfig {
    DirectorySimConfig {
        nodes,
        ..DirectorySimConfig::default()
    }
}

/// Prints Table 1 of the paper — the inter-node message charges per
/// cache operation — directly from the implemented cost model, so the
/// code can be compared against the paper row by row.
fn table1(_: &Scenario, out: &mut Report) {
    let mut table = Table::new([
        "operation",
        "home node",
        "block status",
        "messages w/o data",
        "acks w/ data",
    ]);
    table.title("Table 1 — inter-node messages per operation (DC = ||DistantCopies||)");
    let rows: &[(OpKind, bool, bool)] = &[
        (OpKind::ReadMiss, true, false),
        (OpKind::ReadMiss, true, true),
        (OpKind::ReadMiss, false, false),
        (OpKind::ReadMiss, false, true),
        (OpKind::WriteMiss, true, false),
        (OpKind::WriteMiss, true, true),
        (OpKind::WriteMiss, false, false),
        (OpKind::WriteMiss, false, true),
        (OpKind::WriteHit, true, false),
        (OpKind::WriteHit, false, false),
    ];
    for &(op, local, dirty) in rows {
        // Express the charge symbolically by probing DC = 0 and DC = 1.
        let at0 = charge(op, local, dirty, 0);
        let at1 = charge(op, local, dirty, 1);
        let sym = |base: u64, slope: u64| match (base, slope) {
            (0, 0) => "0".to_string(),
            (b, 0) => b.to_string(),
            (0, 1) => "DC".to_string(),
            (0, s) => format!("{s} x DC"),
            (b, 1) => format!("{b} + DC"),
            (b, s) => format!("{b} + {s} x DC"),
        };
        table.row([
            op.to_string(),
            if local { "local" } else { "remote" }.to_string(),
            if dirty { "dirty" } else { "clean" }.to_string(),
            sym(at0.control, at1.control - at0.control),
            sym(at0.data, at1.data - at0.data),
        ]);
    }
    out.table(&table);
    out.line("Eviction traffic (§3.3): remote clean drop = 1 control message;");
    out.line("remote dirty replacement = 1 data message; free when the home is local.");
}

/// Regenerates Table 2 of the paper: message counts by per-node cache
/// size, application, and protocol, with 16-byte blocks, finite 4-way
/// LRU caches, and profiled static page placement.
fn table2(s: &Scenario, out: &mut Report) {
    out.line(format_args!(
        "Table 2 — message counts (thousands) by cache size; 16-byte blocks; \
         {} nodes, scale {}, seed {}\n",
        s.nodes, s.scale, s.seed
    ));
    for kb in CACHE_SIZES_KB {
        let rows = cache_size_sweep(kb, s);
        out.table(&render_message_rows(&format!("{kb} Kbyte caches"), &rows));
    }
}

/// Regenerates Table 3 of the paper: message counts by block size,
/// application, and protocol, with capacity-free caches.
fn table3(s: &Scenario, out: &mut Report) {
    out.line(format_args!(
        "Table 3 — message counts (thousands) by block size; infinite caches; \
         {} nodes, scale {}, seed {}\n",
        s.nodes, s.scale, s.seed
    ));
    for block in BLOCK_SIZES {
        let rows = block_size_sweep(block, s);
        out.table(&render_message_rows(&format!("{block} blocks"), &rows));
    }
}

/// Prints the realized adaptive snooping transition tables (Figure 2 of
/// the paper) directly from the implemented state machine.
fn figure2(_: &Scenario, out: &mut Report) {
    let p = SnoopProtocol::Adaptive;

    let mut local = Table::new(["state", "event", "request", "reply", "new state"]);
    local.title("Figure 2 (top) — transitions on local cache events");
    let none = SnoopReply::NONE;
    let s = SnoopReply {
        shared: true,
        ..none
    };
    let m = SnoopReply {
        migratory: true,
        ..none
    };
    for (reply, label) in [(none, "¬M ∧ ¬S"), (m, "M"), (s, "S")] {
        local.row([
            "I",
            "Crm",
            "Brmr",
            label,
            &local_fill(p, false, reply).to_string(),
        ]);
    }
    for (reply, label) in [(none, "¬M"), (m, "M")] {
        local.row([
            "I",
            "Cwm",
            "Bwmr",
            label,
            &local_fill(p, true, reply).to_string(),
        ]);
    }
    for state in SnoopState::ALL {
        for (reply, label) in [(none, "¬M"), (m, "M")] {
            let (request, next) = local_write_hit(state, reply);
            let req = request.map_or(String::from("—"), |r| r.to_string());
            if request.is_none() && label == "M" {
                continue; // silent transitions ignore the reply
            }
            local.row([
                state.to_string(),
                "Cwh".to_string(),
                req,
                (if request.is_none() { "—" } else { label }).to_string(),
                next.to_string(),
            ]);
        }
    }
    out.table(&local);

    let mut bus = Table::new(["state", "request", "new state", "assert", "data"]);
    bus.title("Figure 2 (bottom) — transitions on bus requests");
    for state in SnoopState::ALL {
        for request in [
            BusRequest::ReadMiss,
            BusRequest::WriteMiss,
            BusRequest::Invalidate,
        ] {
            // Bir cannot reach exclusive-state copies.
            if request == BusRequest::Invalidate
                && !matches!(state, SnoopState::Shared | SnoopState::Shared2)
            {
                continue;
            }
            let (next, reply) = snoop_remote(p, state, request);
            let mut asserts = Vec::new();
            if reply.shared {
                asserts.push("S");
            }
            if reply.migratory {
                asserts.push("M");
            }
            bus.row([
                state.to_string(),
                request.to_string(),
                next.map_or(String::from("I"), |n| n.to_string()),
                if asserts.is_empty() {
                    "—".into()
                } else {
                    asserts.join("+")
                },
                if reply.provide_data {
                    "provide".into()
                } else {
                    "—".into()
                },
            ]);
        }
    }
    out.table(&bus);
}

/// Trend "figures": the paper's Table 2/3 trends rendered as ASCII bar
/// charts — reduction versus cache size and versus block size, per
/// application.
fn figures(s: &Scenario, out: &mut Report) {
    out.line("Aggressive-protocol message reduction (%) by per-node cache size\n");
    let by_cache: Vec<_> = CACHE_SIZES_KB
        .iter()
        .map(|&kb| (format!("{kb} KB"), cache_size_sweep(kb, s)))
        .collect();
    trend_charts(&by_cache, out);

    out.line("Aggressive-protocol message reduction (%) by block size (capacity-free)\n");
    let by_block: Vec<_> = BLOCK_SIZES
        .iter()
        .map(|&bs| (bs.to_string(), block_size_sweep(bs, s)))
        .collect();
    trend_charts(&by_block, out);
}

/// One chart per application of its aggressive-protocol reduction at
/// each labelled sweep point.
fn trend_charts(points: &[(String, Vec<crate::MessageRow>)], out: &mut Report) {
    for (i, app) in Workload::ALL.iter().enumerate() {
        let mut chart = BarChart::new(app.name(), 40);
        for (label, rows) in points {
            chart.bar(label.as_str(), rows[i].pct(3));
        }
        out.line(chart);
    }
}

/// §4.1 cost-ratio study: how the aggressive protocol's advantage
/// shrinks as data-carrying messages are charged 2x, 4x, or by size.
fn cost_ratios(s: &Scenario, out: &mut Report) {
    out.table(&cost_ratio_table(s));
    out.line(
        "Paper: at 1 MB caches MP3D falls 48% → 38% → 27% and Locus Route\n\
         14% → 10% → 6.4% as the data:control ratio goes 1:1 → 2:1 → 4:1;\n\
         under the per-16-byte model 256-byte blocks save almost nothing.",
    );
}

/// §4.2: execution-driven timing comparison — how much execution time
/// the basic adaptive protocol saves over the conventional protocol on a
/// DASH-like CC-NUMA with round-robin page placement.
fn exec_time(s: &Scenario, out: &mut Report) {
    let mut table = Table::new([
        "app",
        "conventional cycles",
        "basic cycles",
        "time reduction %",
        "read-miss latency reduction %",
        "p95 read-miss latency (conv/basic)",
    ]);
    table.title(format!(
        "§4.2 — execution-driven simulation ({} nodes, scale {}, round-robin placement)",
        s.nodes, s.scale
    ));
    for cmp in exec_time_comparison(s) {
        table.row([
            cmp.app.name().to_string(),
            cmp.conventional.cycles.to_string(),
            cmp.basic.cycles.to_string(),
            format!("{:.1}", cmp.time_reduction()),
            format!("{:.1}", cmp.read_latency_reduction()),
            format!(
                "{}/{}",
                cmp.conventional.read_miss_latency.percentile(95.0),
                cmp.basic.read_miss_latency.percentile(95.0)
            ),
        ]);
    }
    out.table(&table);
    out.line(
        "Paper: Cholesky 19.3%, MP3D 10.4%, Water 3.5% parallel-section time reduction;\n\
         ~20% average read-miss latency reduction from eliminated invalidation contention.",
    );
}

/// §4.3: bus-based protocol evaluation — cost reduction of the adaptive
/// snooping protocol over MESI under the two §4.3 cost models.
fn bus_protocol(s: &Scenario, out: &mut Report) {
    for cache_kb in [Some(64), Some(1024), None] {
        let label = match cache_kb {
            Some(kb) => format!("{kb} Kbyte caches"),
            None => "infinite caches".to_string(),
        };
        let mut table = Table::new([
            "app",
            "MESI txns",
            "adaptive txns",
            "model 1 %",
            "model 2 %",
            "migrate-first txns",
        ]);
        table.title(format!("§4.3 — snooping bus, {label}"));
        for cmp in bus_sweep(cache_kb, s) {
            table.row([
                cmp.app.name().to_string(),
                cmp.mesi.transactions().to_string(),
                cmp.adaptive.transactions().to_string(),
                format!("{:.1}", cmp.reduction(BusCostModel::Unit)),
                format!("{:.1}", cmp.reduction(BusCostModel::ReplyWeighted)),
                cmp.migrate_first.transactions().to_string(),
            ]);
        }
        out.table(&table);
    }
    out.line(
        "Paper: Water/MP3D save >40% (model 1) and 25–30% (model 2) at 64 KB+;\n\
         Pthor saves 7–10% (model 1) and 3.9–5% (model 2).",
    );
}

/// §2.2 hardware-cost analysis: directory-entry bits for the
/// conventional protocol and the adaptive extensions, by machine size.
fn storage_overhead(_: &Scenario, out: &mut Report) {
    let mut table = Table::new([
        "nodes",
        "conventional bits",
        "basic bits",
        "conservative bits",
        "extra vs conventional",
        "overhead @16B block",
    ]);
    table.title("Directory-entry storage (full-map presence vector)");
    for nodes in [4u16, 8, 16, 32, 64] {
        let conv = DirEntryLayout::conventional(nodes);
        let basic = DirEntryLayout::adaptive(nodes, AdaptivePolicy::basic());
        let conservative = DirEntryLayout::adaptive(nodes, AdaptivePolicy::conservative());
        table.row([
            nodes.to_string(),
            conv.total_bits().to_string(),
            basic.total_bits().to_string(),
            conservative.total_bits().to_string(),
            format!("+{}", conservative.total_bits() - conv.total_bits()),
            format!("{:.1}%", conservative.overhead_fraction(16) * 100.0),
        ]);
    }
    out.table(&table);
    out.line("§2.2: the adaptive state is a few bits per entry — \"simple enough to");
    out.line("build into hardware cache controllers without a large cost increase\".\n");
    out.line("Per-entry field breakdown at 16 nodes:");
    out.line(format_args!(
        "  conventional: {}",
        DirEntryLayout::conventional(16)
    ));
    out.line(format_args!(
        "  basic:        {}",
        DirEntryLayout::adaptive(16, AdaptivePolicy::basic())
    ));
    out.line(format_args!(
        "  conservative: {}",
        DirEntryLayout::adaptive(16, AdaptivePolicy::conservative())
    ));
}

/// Classifies the sharing pattern of every block in each synthetic
/// workload (at 16-byte granularity) and reports the reference-weighted
/// distribution — the validation that the trace substitution preserves
/// the sharing structure the paper's protocols react to.
fn classify(s: &Scenario, out: &mut Report) {
    let mut table = Table::new([
        "app",
        "private %",
        "read-only %",
        "migratory %",
        "prod/cons %",
        "write-shared %",
        "blocks",
    ]);
    table.title("Reference-weighted sharing-pattern distribution (16B blocks)");
    for (app, trace) in s.traces() {
        let c = Classification::of(&trace, BlockSize::B16);
        let mut row = vec![app.name().to_string()];
        for pattern in SharingPattern::ALL {
            row.push(format!("{:.1}", c.ref_fraction(pattern) * 100.0));
        }
        row.push(c.len().to_string());
        table.row(row);
    }
    out.table(&table);
    out.line(
        "Expected structure (§3.1 + the sharing-pattern literature): MP3D, Water and\n\
         Cholesky dominated by migratory references; Locus Route by read-only grid\n\
         references; Pthor mixed.",
    );
}

/// Calibration snapshot for tuning the workload mixes: each
/// application's reference count, footprint and write fraction. (The
/// Table 3 sections tuning compares them against are `repro table3`.)
fn calibrate(s: &Scenario, out: &mut Report) {
    for (app, trace) in s.traces() {
        let stats = trace.stats();
        out.line(format_args!(
            "{:<12} {:>9} refs  {:>5} KB footprint  {:>4.1}% writes",
            app.name(),
            stats.refs,
            stats.footprint_bytes / 1024,
            stats.write_fraction() * 100.0
        ));
    }
}

/// Machine-size scalability study (an extension beyond the paper's
/// fixed sixteen-processor configuration): how the adaptive advantage
/// changes from 4 to 64 nodes.
///
/// More nodes mean more distinct consecutive invalidators (migratory
/// hand-offs stay detectable) but also wider read-sharing fan-out, so
/// the study answers whether the 16-node conclusions generalize.
fn scaling_nodes(s: &Scenario, out: &mut Report) {
    const NODES: [u16; 5] = [4, 8, 16, 32, 64];
    let mut table = Table::new(["app", "4", "8", "16", "32", "64"]);
    table.title("Aggressive reduction (%) by machine size (16B blocks, capacity-free)");
    let mut charts = Vec::new();
    for app in Workload::ALL {
        let mut row = vec![app.name().to_string()];
        let mut chart = BarChart::new(app.name(), 40);
        for nodes in NODES {
            let cfg = config(nodes);
            let trace = Scenario { nodes, ..s.clone() }.trace(app);
            let conv = run_protocol(Protocol::Conventional, &cfg, &trace, s.shards);
            let aggr = run_protocol(Protocol::Aggressive, &cfg, &trace, s.shards);
            let pct = aggr.percent_reduction_vs(&conv);
            row.push(format!("{pct:.1}"));
            chart.bar(format!("{nodes} nodes"), pct);
        }
        table.row(row);
        charts.push(chart);
    }
    out.table(&table);
    for chart in charts {
        out.line(chart);
    }
}

/// A1 ablation: sweep the three §2 protocol-family axes (initial
/// classification, hysteresis depth, memory across uncached intervals).
fn ablation_policy(s: &Scenario, out: &mut Report) {
    let results = policy_ablation(s);
    let labels: std::collections::BTreeSet<&str> =
        results.iter().map(|(l, _, _)| l.as_str()).collect();
    let mut headers = vec!["policy".to_string()];
    headers.extend(Workload::ALL.iter().map(|w| format!("{} %", w.name())));
    let mut table = Table::new(headers);
    table.title("Message reduction vs conventional, by policy (16B blocks, infinite caches)");
    for label in labels {
        let mut row = vec![label.to_string()];
        for app in Workload::ALL {
            let pct = results
                .iter()
                .find(|(l, a, _)| l.as_str() == label && *a == app)
                .map_or(f64::NAN, |(_, _, p)| *p);
            row.push(format!("{pct:.1}"));
        }
        table.row(row);
    }
    out.table(&table);
    out.line(
        "Paper (§6): with small blocks there is no advantage in being conservative —\n\
         classify immediately, start blocks as migratory, and remember classifications\n\
         across uncached intervals.",
    );
}

/// A2 ablation: the §5 comparison the paper calls for — the adaptive
/// protocols versus the non-adaptive migrate-on-read-miss policy of the
/// Sequent Symmetry (model B) and MIT Alewife.
fn ablation_pure_migrate(s: &Scenario, out: &mut Report) {
    let cfg = config(s.nodes);
    let mut table = Table::new([
        "app",
        "conventional",
        "pure-migratory",
        "aggressive",
        "pure extra read misses %",
    ]);
    table.title("Total messages (thousands): adaptive vs always-migrate (§5)");
    for (app, trace) in s.traces() {
        let conv = DirectorySim::new(Protocol::Conventional, &cfg).run(&trace);
        let pure = DirectorySim::new(Protocol::PureMigratory, &cfg).run(&trace);
        let aggr = DirectorySim::new(Protocol::Aggressive, &cfg).run(&trace);
        let extra = mcc_stats::percent_reduction(
            pure.events.read_misses as f64,
            conv.events.read_misses as f64,
        );
        table.row([
            app.name().to_string(),
            thousands(conv.total_messages()),
            thousands(pure.total_messages()),
            thousands(aggr.total_messages()),
            format!("{:.1}", -extra),
        ]);
    }
    out.table(&table);
    out.line(
        "Thakkar's observation (§5): always migrating modified blocks inflates read\n\
         misses on non-migratory data; the adaptive protocols avoid this.",
    );
}

/// §5 comparison: the Cox–Fowler write-miss rule versus the Stenström–
/// Brorsson–Sandberg rule (which also demotes migratory blocks on any
/// write miss). The paper predicts the two behave consistently because
/// the SPLASH programs show very little dynamic reclassification.
fn ablation_stenstrom(s: &Scenario, out: &mut Report) {
    let cfg = config(s.nodes);
    let mut table = Table::new([
        "app",
        "basic %",
        "stenström %",
        "basic demotions",
        "stenström demotions",
    ]);
    table.title("Reduction vs conventional: Cox-Fowler basic vs Stenström write-miss rule");
    for (app, trace) in s.traces() {
        let conv = DirectorySim::new(Protocol::Conventional, &cfg).run(&trace);
        let basic = DirectorySim::new(Protocol::Basic, &cfg).run(&trace);
        let sten =
            DirectorySim::new(Protocol::Custom(AdaptivePolicy::stenstrom()), &cfg).run(&trace);
        table.row([
            app.name().to_string(),
            format!("{:.1}", basic.percent_reduction_vs(&conv)),
            format!("{:.1}", sten.percent_reduction_vs(&conv)),
            basic.events.became_other.to_string(),
            sten.events.became_other.to_string(),
        ]);
    }
    out.table(&table);
    out.line(
        "The paper (§5): \"Since there is very little dynamic reclassification in the\n\
         SPLASH programs, our dixie simulations are consistent with their results.\"",
    );
}

/// §5 off-line bound: how close do the on-line adaptive protocols come
/// to an oracle that knows the future and issues read-with-ownership
/// ("load with intent to modify") on exactly the right read misses?
fn ablation_oracle(s: &Scenario, out: &mut Report) {
    let cfg = config(s.nodes);
    let mut table = Table::new([
        "app",
        "conventional",
        "aggressive %",
        "oracle %",
        "gap (pp)",
    ]);
    table.title("Messages (thousands) and reduction vs conventional: on-line vs off-line");
    for (app, trace) in s.traces() {
        let conv = DirectorySim::new(Protocol::Conventional, &cfg).run(&trace);
        let aggr = DirectorySim::new(Protocol::Aggressive, &cfg).run(&trace);

        // The oracle runs on the conventional substrate with perfect
        // per-read-miss hints, using the same profiled placement.
        let placement = PagePlacement::profiled(&trace, s.nodes);
        let oracle_cfg = DirectorySimConfig {
            placement: PlacementPolicy::Profiled,
            ..cfg
        };
        let mut engine = DirectoryEngine::new(Protocol::Conventional, &oracle_cfg, placement);
        let hints = migrate_hints(&trace, cfg.block_size);
        for (r, &hint) in trace.iter().zip(&hints) {
            engine.step_hinted(*r, hint);
        }
        let oracle_total = engine.messages().total();
        let aggr_pct = aggr.percent_reduction_vs(&conv);
        let oracle_pct =
            mcc_stats::percent_reduction(conv.total_messages() as f64, oracle_total as f64);
        table.row([
            app.name().to_string(),
            thousands(conv.total_messages()),
            format!("{aggr_pct:.1}"),
            format!("{oracle_pct:.1}"),
            format!("{:.1}", oracle_pct - aggr_pct),
        ]);
    }
    out.table(&table);
    out.line(
        "The gap column is what off-line knowledge (compiler analysis, programmer\n\
         annotations, prefetch-exclusive) could still buy over the paper's best\n\
         on-line protocol — the §5 discussion, quantified.",
    );
}

/// §1 baseline ablation: write-update vs write-invalidate vs the
/// adaptive protocol on a snooping bus. The paper starts from
/// write-invalidate because update-based protocols broadcast on every
/// write to shared data — fatal for migratory access.
fn ablation_write_update(s: &Scenario, out: &mut Report) {
    let cfg = BusSimConfig {
        nodes: s.nodes,
        ..BusSimConfig::default()
    };
    let mut table = Table::new([
        "app",
        "write-update txns",
        "MESI txns",
        "adaptive txns",
        "update:adaptive ratio",
    ]);
    table.title("Bus transactions (thousands) per strategy");
    for (app, trace) in s.traces() {
        let update = UpdateBusSim::new(&cfg).run(&trace);
        let mesi = BusSim::new(SnoopProtocol::Mesi, &cfg).run(&trace);
        let adaptive = BusSim::new(SnoopProtocol::Adaptive, &cfg).run(&trace);
        table.row([
            app.name().to_string(),
            thousands(update.transactions()),
            thousands(mesi.transactions()),
            thousands(adaptive.transactions()),
            format!(
                "{:.1}x",
                update.transactions() as f64 / adaptive.transactions() as f64
            ),
        ]);
    }
    out.table(&table);
    out.line(
        "§1: \"write-update entails interprocessor communication on every write\n\
         operation to shared data\" — hence the paper starts from write-invalidate.",
    );
}

/// Phase-change stress (extension): the paper notes the SPLASH programs
/// show "very little dynamic reclassification" (§5), so its data cannot
/// separate the protocols on *adaptation speed* — the first §2 family
/// axis. This workload alternates migratory and read-shared epochs on
/// the same objects, forcing reclassification at every flip.
fn ablation_phases(s: &Scenario, out: &mut Report) {
    let region = PhasedObjects {
        base: Addr::new(0),
        objects: 512,
        object_bytes: 64,
        phase_pairs: ((8.0 * s.scale.max(0.1) / 0.1).round() as u64).max(2),
        visits_per_migratory_phase: 8,
        reads_per_shared_phase: 12,
        reads_per_visit: 3,
        writes_per_visit: 2,
    };
    let mut ctx = GenCtx::new(s.nodes, s.seed);
    let trace = interleave_streams(region.streams(&mut ctx), &mut ctx);
    out.line(format_args!("phase-change trace: {}\n", trace.stats()));

    let cfg = config(s.nodes);
    let base = DirectorySim::new(Protocol::Conventional, &cfg).run(&trace);
    let mut table = Table::new([
        "protocol",
        "messages",
        "saved %",
        "migrations",
        "reclassifications (+/-)",
    ]);
    table.title("Alternating migratory / read-shared epochs");
    table.row([
        "conventional".to_string(),
        base.total_messages().to_string(),
        "0.0".to_string(),
        "0".to_string(),
        "-".to_string(),
    ]);
    let mut protocols = vec![
        Protocol::Conservative,
        Protocol::Basic,
        Protocol::Aggressive,
        Protocol::PureMigratory,
        Protocol::Custom(AdaptivePolicy::stenstrom()),
    ];
    for events in [3u8, 4] {
        protocols.push(Protocol::Custom(AdaptivePolicy {
            initial_migratory: false,
            events_required: events,
            remember_when_uncached: true,
            demote_on_write_miss: false,
        }));
    }
    for protocol in protocols {
        let r = DirectorySim::new(protocol, &cfg).run(&trace);
        table.row([
            protocol.to_string(),
            r.total_messages().to_string(),
            format!("{:.1}", r.percent_reduction_vs(&base)),
            r.events.migrations.to_string(),
            format!("{}+/{}-", r.events.became_migratory, r.events.became_other),
        ]);
    }
    out.table(&table);
    out.line(
        "Adaptation speed now matters: one-event protocols re-learn quickly at every\n\
         flip while deep hysteresis (3-4 events) forfeits much of the win. With\n\
         clean epoch boundaries the non-adaptive migrate-always policy has no\n\
         detection lag at all — its weakness needs readers returning to data they\n\
         recently wrote (see ablation_pure_migrate / the read_mostly example).",
    );
}

/// Limited-pointer directory study (extension): how a Dir-i-B directory
/// (i sharer pointers, broadcast on overflow) interacts with the
/// adaptive protocol. Migratory blocks never exceed two copies, so the
/// adaptive protocol keeps limited-pointer entries precise exactly
/// where a conventional protocol suffers broadcasts.
fn ablation_limited_pointers(s: &Scenario, out: &mut Report) {
    let mut table = Table::new([
        "app",
        "repr",
        "conv msgs",
        "aggr msgs",
        "aggr %",
        "conv broadcasts",
        "aggr broadcasts",
    ]);
    table.title("Limited-pointer directories: messages (thousands) and broadcast invalidations");
    for (app, trace) in s.traces() {
        for repr in [
            DirectoryRepr::FullMap,
            DirectoryRepr::LimitedPointer { pointers: 4 },
            DirectoryRepr::LimitedPointer { pointers: 2 },
        ] {
            let cfg = DirectorySimConfig {
                nodes: s.nodes,
                directory: repr,
                ..DirectorySimConfig::default()
            };
            let conv = DirectorySim::new(Protocol::Conventional, &cfg).run(&trace);
            let aggr = DirectorySim::new(Protocol::Aggressive, &cfg).run(&trace);
            table.row([
                app.name().to_string(),
                repr.to_string(),
                thousands(conv.total_messages()),
                thousands(aggr.total_messages()),
                format!("{:.1}", aggr.percent_reduction_vs(&conv)),
                conv.events.broadcast_invalidations.to_string(),
                aggr.events.broadcast_invalidations.to_string(),
            ]);
        }
    }
    out.table(&table);
    out.line(
        "Migratory blocks live with <= 2 copies, so the migratory applications are\n\
         insensitive to the pointer limit, and adaptivity cuts the broadcast\n\
         invalidations the remaining traffic provokes.",
    );
}

/// Fault-injection resilience study (extension): the paper's protocols
/// on an unreliable interconnect that drops, duplicates, delays, and
/// NACKs messages at a configurable rate.
///
/// Failed attempts are retried with exponential backoff; the wasted
/// wire traffic is tallied separately from the delivered protocol
/// traffic, so two claims are visible at once: (1) faults never change
/// what the protocol delivers — the delivered column is identical down
/// the fault-rate axis — and (2) the adaptive protocols' message
/// savings survive, and even compound, on a lossy fabric, because every
/// transaction a migration avoids is also a transaction that can no
/// longer fail.
///
/// Deterministic: the same `--seed` reproduces every fault bit-exactly.
fn ablation_faults(s: &Scenario, out: &mut Report) {
    /// Fault rates swept, in parts per million per message class.
    const RATES_PPM: [u32; 4] = [0, 1_000, 10_000, 50_000];
    let mut table = Table::new([
        "app",
        "fault ppm",
        "protocol",
        "delivered msgs",
        "overhead msgs",
        "nacks",
        "retries",
        "backoff units",
    ]);
    table.title("Unreliable interconnect: delivered traffic vs fault-recovery overhead");
    let cfg = config(s.nodes);
    for (app, trace) in s.traces() {
        for ppm in RATES_PPM {
            let mut conventional_delivered = None;
            for protocol in Protocol::PAPER_SET {
                let result = DirectorySim::new(protocol, &cfg)
                    .with_faults(FaultPlan::uniform(s.seed, ppm))
                    .try_run(&trace)
                    .unwrap_or_else(|e| panic!("{app} under {protocol} at {ppm} ppm failed: {e}"));
                let delivered = result.messages.delivered().total();
                let adaptive_beats_conventional =
                    *conventional_delivered.get_or_insert(delivered) >= delivered;
                assert!(
                    adaptive_beats_conventional,
                    "{app} at {ppm} ppm: {protocol} delivered more than conventional"
                );
                table.row([
                    app.name().to_string(),
                    ppm.to_string(),
                    protocol.to_string(),
                    thousands(delivered),
                    thousands(result.messages.overhead().total()),
                    result.events.nacks.to_string(),
                    result.events.retries.to_string(),
                    result.events.backoff_units.to_string(),
                ]);
            }
        }
    }
    out.table(&table);
    out.line(
        "Delivered traffic is invariant down the fault-rate axis: retries repeat\n\
         transactions verbatim, so faults only add overhead. The adaptive protocols\n\
         keep their full message reduction — fewer transactions also means fewer\n\
         opportunities for the fabric to fail one.",
    );
}
