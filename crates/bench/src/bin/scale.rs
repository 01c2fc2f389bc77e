//! Out-of-core scale sweep: drives a generator-backed stream — no
//! materialized trace, no trace file — through every directory
//! representation, reporting throughput and resident memory per cell
//! and gating on a hard RSS bound.
//!
//! The full configuration (`--full`) is the tentpole claim: one
//! billion references over 1024 nodes in bounded memory. The default
//! is the CI smoke shape (10 M references, 256 nodes) so the same
//! binary runs on every push under a `ulimit` harness.
//!
//! Before the sweep, two cheap gates run on a sampled prefix of the
//! same generator:
//!
//! * **parity** — the sequential stream run must equal the K-sharded
//!   one bit-exactly;
//! * **resume** — a checkpoint cut mid-prefix and resumed through a
//!   re-created stream must reach the same result.
//!
//! Usage: `scale [--full] [--refs N] [--nodes N] [--shards K]
//! [--protocol P] [--directory R]... [--prefix N] [--rss-limit-mb M]
//! [--out PATH]`

use std::process::exit;
use std::time::Instant;

use mcc_bench::args::Flags;
use mcc_bench::timing::resident_memory;
use mcc_check::{parse_directory_repr, parse_protocol};
use mcc_core::{
    DirectoryRepr, DirectorySim, DirectorySimConfig, EngineKind, PlacementPolicy, Protocol, RunSpec,
};
use mcc_obs::Json;
use mcc_trace::{Addr, MemRef, NodeId, TraceStream};

const BIN: &str = "scale";

/// The synthetic scale workload: a pure function of the record index,
/// so a billion-reference stream costs no memory and re-creating it
/// for a resume is free. Epochs of eight references mix the paper's
/// sharing patterns:
///
/// * a migratory object handed to a new owner every epoch (read then
///   write — the hand-off the adaptive protocols detect);
/// * a hot read-shared block whose reader rotates across the whole
///   machine, with a periodic write that fans invalidations out over
///   the accumulated copy set — the access that separates the
///   directory representations;
/// * private per-node traffic.
///
/// The address footprint is bounded (migratory ring + hot set +
/// per-node scratch), so resident memory is a function of nodes and
/// blocks, never of reference count — which is exactly the property
/// the RSS gate pins.
fn scale_record(i: u64, nodes: u64) -> MemRef {
    let epoch = i / 8;
    let node = |x: u64| NodeId::new((x % nodes) as u16);
    match i % 8 {
        // Migratory ring: 256 objects, each read+written by one node
        // per epoch and handed to the next.
        0 => MemRef::read(node(epoch), Addr::new((epoch % 256) * 16)),
        1 => MemRef::write(node(epoch), Addr::new((epoch % 256) * 16)),
        // Hot read-shared blocks: four blocks, rotating readers. Once
        // the copy set has had time to span the machine, a write
        // forces the full invalidation fan-out.
        2..=4 => {
            let hot = Addr::new((1 << 20) + (i % 4) * 16);
            MemRef::read(node(epoch.wrapping_mul(7) + i), hot)
        }
        5 => {
            let hot = Addr::new((1 << 20) + (epoch % 4) * 16);
            // Write every 31 epochs: enough reading for a wide copy
            // set, not enough to cover the machine — the partially
            // covered fan-out is where the representations' charges
            // genuinely differ (a fully covered one charges the same
            // under every representation).
            if epoch % 31 == 30 {
                MemRef::write(node(epoch), hot)
            } else {
                MemRef::read(node(epoch.wrapping_mul(11) + 3), hot)
            }
        }
        // Private scratch: each node reads and occasionally writes its
        // own page.
        _ => {
            let owner = (epoch + i) % nodes;
            let addr = Addr::new((1 << 24) + owner * 4096 + (i % 8) * 16);
            if i.is_multiple_of(3) {
                MemRef::write(node(owner), addr)
            } else {
                MemRef::read(node(owner), addr)
            }
        }
    }
}

struct Args {
    refs: u64,
    nodes: u16,
    shards: usize,
    protocol: Protocol,
    reprs: Vec<DirectoryRepr>,
    prefix: u64,
    rss_limit_mb: u64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        refs: 10_000_000,
        nodes: 256,
        shards: 4,
        protocol: Protocol::Aggressive,
        reprs: Vec::new(),
        prefix: 1_000_000,
        rss_limit_mb: 2048,
        out: "BENCH_scale.json".to_string(),
    };
    let mut flags = Flags::from_env(BIN);
    let mut explicit_reprs = Vec::new();
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--full" => {
                args.refs = 1_000_000_000;
                args.nodes = 1024;
            }
            "--refs" => args.refs = flags.value(),
            "--nodes" => args.nodes = flags.value(),
            "--shards" => args.shards = flags.value(),
            "--protocol" => args.protocol = flags.value_with(parse_protocol),
            "--directory" => explicit_reprs.push(flags.value_with(parse_directory_repr)),
            "--prefix" => args.prefix = flags.value(),
            "--rss-limit-mb" => args.rss_limit_mb = flags.value(),
            "--out" => args.out = flags.value(),
            "--help" | "-h" => {
                eprintln!(
                    "usage: {BIN} [--full] [--refs N] [--nodes N] [--shards K] \
                     [--protocol P] [--directory R]... [--prefix N] \
                     [--rss-limit-mb M] [--out PATH]\
                     \n  --full           the tentpole shape: 1e9 refs, 1024 nodes\
                     \n  --directory R    representation cell to run (repeatable; \
                     default full-map, Dir8B, CV32, Dir8CV32)"
                );
                exit(0);
            }
            _ => flags.unknown(),
        }
    }
    args.reprs = if explicit_reprs.is_empty() {
        vec![
            DirectoryRepr::FullMap,
            DirectoryRepr::LimitedPointer { pointers: 8 },
            DirectoryRepr::CoarseVector { region_size: 32 },
            DirectoryRepr::Sparse {
                pointers: 8,
                region_size: 32,
            },
        ]
    } else {
        explicit_reprs
    };
    if args.refs == 0 || args.nodes == 0 || args.shards == 0 {
        flags.fail("--refs, --nodes, and --shards must be positive");
    }
    args.prefix = args.prefix.min(args.refs);
    args
}

fn sim_config(nodes: u16, directory: DirectoryRepr) -> DirectorySimConfig {
    DirectorySimConfig {
        nodes,
        directory,
        // Round-robin placement keeps the sweep single-pass: profiled
        // placement would charge a second full scan of the stream per
        // cell for a property this workload does not test.
        placement: PlacementPolicy::RoundRobin,
        ..DirectorySimConfig::default()
    }
}

fn main() {
    let args = parse_args();
    let nodes = u64::from(args.nodes);
    let stream = TraceStream::from_generator(args.refs, move |i| scale_record(i, nodes));

    // --- Gate 1: sequential-vs-sharded parity on the sampled prefix. ---
    let prefix = TraceStream::from_generator(args.prefix, move |i| scale_record(i, nodes));
    let gate_sim = DirectorySim::new(
        args.protocol,
        &sim_config(args.nodes, DirectoryRepr::FullMap),
    )
    .with_engine(EngineKind::Fast);
    let sequential = gate_sim.try_run_stream(&prefix).unwrap_or_else(|e| {
        eprintln!("{BIN}: prefix run failed: {e}");
        exit(1);
    });
    let sharded = gate_sim
        .try_run_stream_sharded(&prefix, args.shards)
        .unwrap_or_else(|e| {
            eprintln!("{BIN}: sharded prefix run failed: {e}");
            exit(1);
        });
    if sequential != sharded {
        eprintln!(
            "{BIN}: PARITY GATE FAILED — sequential and K={} sharded prefix runs diverged",
            args.shards
        );
        exit(1);
    }
    eprintln!(
        "{BIN}: parity gate ok ({} refs, sequential == K={} sharded)",
        args.prefix, args.shards
    );

    // --- Gate 2: kill-and-resume through a re-created stream. ---
    let cut = args.prefix / 2;
    let ckpt = gate_sim
        .checkpoint_after(&prefix, args.shards, cut)
        .unwrap_or_else(|e| {
            eprintln!("{BIN}: checkpoint at {cut} failed: {e}");
            exit(1);
        });
    let reopened = TraceStream::from_generator(args.prefix, move |i| scale_record(i, nodes));
    let resume = RunSpec {
        shards: args.shards,
        resume: Some(&ckpt),
        ..RunSpec::default()
    };
    let resumed = gate_sim
        .execute(&reopened, &resume)
        .and_then(|report| report.merged())
        .unwrap_or_else(|e| {
            eprintln!("{BIN}: resume from {cut} failed: {e}");
            exit(1);
        });
    if resumed != sequential {
        eprintln!("{BIN}: RESUME GATE FAILED — resumed run diverged from the uninterrupted one");
        exit(1);
    }
    eprintln!("{BIN}: resume gate ok (cut at {cut}, re-created stream)");

    // --- The sweep: one cell per representation. ---
    let rss_limit = args.rss_limit_mb * 1024 * 1024;
    let mut cells = Vec::new();
    let mut gate_failed = false;
    for &repr in &args.reprs {
        let sim = DirectorySim::new(args.protocol, &sim_config(args.nodes, repr))
            .with_engine(EngineKind::Fast);
        let started = Instant::now();
        let result = sim
            .try_run_stream_sharded(&stream, args.shards)
            .unwrap_or_else(|e| {
                eprintln!("{BIN}: {repr} run failed: {e}");
                exit(1);
            });
        let secs = started.elapsed().as_secs_f64();
        let (rss, hwm) = resident_memory();
        let rps = if secs > 0.0 {
            (args.refs as f64 / secs) as u64
        } else {
            0
        };
        let bounded = hwm == 0 || hwm <= rss_limit;
        if !bounded {
            gate_failed = true;
        }
        eprintln!(
            "{BIN}: {repr:>10}  {rps:>12} refs/s  rss {:>6} MiB  hwm {:>6} MiB  {} messages{}",
            rss / (1024 * 1024),
            hwm / (1024 * 1024),
            result.total_messages(),
            if bounded { "" } else { "  [RSS OVER LIMIT]" },
        );
        cells.push(Json::Obj(vec![
            ("directory".into(), Json::Str(repr.to_string())),
            ("refs_per_sec".into(), Json::u64(rps)),
            ("seconds".into(), Json::Str(format!("{secs:.3}"))),
            ("vm_rss_bytes".into(), Json::u64(rss)),
            ("vm_hwm_bytes".into(), Json::u64(hwm)),
            ("total_messages".into(), Json::u64(result.total_messages())),
            (
                "broadcast_invalidations".into(),
                Json::u64(result.events.broadcast_invalidations),
            ),
            ("rss_bounded".into(), Json::Bool(bounded)),
        ]));
    }

    let summary = Json::Obj(vec![
        ("bench".into(), Json::Str("scale".into())),
        ("refs".into(), Json::u64(args.refs)),
        ("nodes".into(), Json::u64(u64::from(args.nodes))),
        ("shards".into(), Json::u64(args.shards as u64)),
        (
            "protocol".into(),
            Json::Str(mcc_check::protocol_slug(args.protocol)),
        ),
        ("parity_prefix".into(), Json::u64(args.prefix)),
        ("rss_limit_bytes".into(), Json::u64(rss_limit)),
        ("parity_gate".into(), Json::Str("ok".into())),
        ("resume_gate".into(), Json::Str("ok".into())),
        ("cells".into(), Json::Arr(cells)),
    ]);
    if let Err(e) = std::fs::write(&args.out, format!("{summary}\n")) {
        eprintln!("{BIN}: cannot write {}: {e}", args.out);
        exit(1);
    }
    eprintln!("{BIN}: wrote {}", args.out);
    if gate_failed {
        eprintln!(
            "{BIN}: MEMORY GATE FAILED — peak RSS exceeded {} MiB",
            args.rss_limit_mb
        );
        exit(1);
    }
}
