//! `wide-stream`: a seeded, generator-backed stream at 1024 nodes, 64
//! times the paper's machine, through `run_stream_resumable` on two
//! shards (one per core) with the fast engine, the aggressive protocol
//! and a few checkpoints per cell. Each pass runs one cell on the
//! full-map directory and one on a coarse vector of 32-node regions.

use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use mcc_core::{
    CheckpointPolicy, DirectoryRepr, DirectorySim, DirectorySimConfig, EngineKind, PlacementPolicy,
    Protocol, RealStorage, SimResult, Storage,
};
use mcc_prng::SplitMix64;
use mcc_trace::{Addr, BlockSize, MemRef, NodeId, TraceStream};

use crate::layers::Layers;
use crate::report::{median, peak_rss_mb, ratio, run_passes, Report};
use crate::spans::Tracer;
use crate::{pins, Opts};

const NODES: u16 = 1024;
/// One shard per core.
const SHARDS: usize = 2;
/// References per cell.
const REFS: u64 = 2_000_000;
/// Three periodic checkpoints per cell, then the final one.
const CHECKPOINT_EVERY: u64 = REFS / 4;
const REPRS: [DirectoryRepr; 2] = [
    DirectoryRepr::FullMap,
    DirectoryRepr::CoarseVector { region_size: 32 },
];
/// Seeded words the generator draws its node choices from, one per epoch
/// of eight references.
const DRAWS: usize = 1 << 18;
/// Set-up is well under a millisecond of work, so it is repeated and the
/// median kept.
const SETUP_REPS: usize = 101;
/// One pass over both cells, verdict included, takes about this long on
/// the reference host.
const PASS_SECONDS: f64 = 2.0;
/// Message totals of both cells at the default seed.
const PINNED_TOTALS: [u64; 2] = [4_736_780, 17_726_042];

/// Reference `i` of the wide stream, in epochs of eight in the style of
/// the `scale` bin's generator: a migratory object read and then written
/// by a new owner every epoch; three reads of hot blocks whose copy sets
/// spread across the machine; a fourth hot access that is a write every
/// 31st epoch, fanning invalidations out over a partly covered copy set,
/// where the directory representations charge differently; and two
/// private references. `draws` supplies the seeded node choices.
fn record(i: u64, draws: &[u64]) -> MemRef {
    let epoch = i / 8;
    let draw = draws[(epoch % draws.len() as u64) as usize];
    let node = |shift: u32| NodeId::new(((draw >> shift) % u64::from(NODES)) as u16);
    let migratory = Addr::new((epoch % 256) * 16);
    let hot = |k: u64| Addr::new((1 << 20) + (k % 4) * 16);
    match i % 8 {
        0 => MemRef::read(node(0), migratory),
        1 => MemRef::write(node(0), migratory),
        k @ 2..=4 => MemRef::read(node(10 * k as u32), hot(k)),
        5 if epoch % 31 == 30 => MemRef::write(node(50), hot(epoch)),
        5 => MemRef::read(node(50), hot(epoch)),
        _ => {
            let owner = (draw >> 54) % u64::from(NODES);
            let addr = Addr::new((1 << 24) + owner * 4096 + (i % 8) * 16);
            if i.is_multiple_of(3) {
                MemRef::write(NodeId::new(owner as u16), addr)
            } else {
                MemRef::read(NodeId::new(owner as u16), addr)
            }
        }
    }
}

fn stream(draws: &Arc<[u64]>) -> TraceStream {
    let draws = Arc::clone(draws);
    TraceStream::from_generator(REFS, move |i| record(i, &draws))
}

fn sim(directory: DirectoryRepr) -> DirectorySim {
    // Round-robin placement keeps each cell one pass over the stream, as
    // in the `scale` bin: profiling would rescan it for a property this
    // workload does not test.
    let config = DirectorySimConfig {
        nodes: NODES,
        directory,
        placement: PlacementPolicy::RoundRobin,
        ..DirectorySimConfig::default()
    };
    DirectorySim::new(Protocol::Aggressive, &config).with_engine(EngineKind::Fast)
}

fn policy(dir: &Path, cell: usize) -> CheckpointPolicy {
    CheckpointPolicy::new(CHECKPOINT_EVERY, dir.join(format!("cell{cell}.ckpt")))
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let dir = opts.work_dir.join("wide-stream");
    fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    // Set-up: the seeded draws, the stream over them, the simulators and
    // the placement each of them resolves. The draws' memory is allocated
    // once, before the repetitions, and each repetition fills it: a fresh
    // 2 MiB allocation costs either a page fault per page or none, as the
    // allocator's state happens to decide, and that doubled set-up time
    // in some runs and not in others.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut draws: Arc<[u64]> = vec![0; DRAWS].into();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        // The previous repetition's stream shares the draws.
        drop(built.take());
        let started = Instant::now();
        let mut rng = SplitMix64::new(opts.seed);
        Arc::get_mut(&mut draws)
            .expect("no stream outlives its repetition")
            .fill_with(|| rng.next_u64());
        let stream = stream(&draws);
        let sims = REPRS.map(sim);
        for sim in &sims {
            sim.resolve_placement_stream(&stream)
                .map_err(|e| e.to_string())?;
        }
        setup_s.push(started.elapsed().as_secs_f64());
        built = Some((stream, sims));
    }
    let (stream, sims) = built.expect("set-up runs at least once");

    // Timed window: both cells, pass after pass, each pass followed by its
    // verdict: each cell against a sequential run (one engine over the
    // unfiltered stream, no checkpoints) and, at the default seed, against
    // its pinned total.
    let passes = if opts.trace {
        1
    } else {
        crate::passes(opts.seconds, PASS_SECONDS)
    };
    let pins = pins(opts, PINNED_TOTALS);
    let measured = run_passes(
        passes,
        sims.len(),
        |c| {
            sims[c]
                .run_stream_resumable(&stream, SHARDS, &policy(&dir, c))
                .map_err(|e| e.to_string())
        },
        |c| sims[c].try_run_stream(&stream).map_err(|e| e.to_string()),
        pins.as_ref().map(|p| &p[..]),
        |c| format!("wide-stream: {}", REPRS[c]),
    );
    let peak_rss = peak_rss_mb();
    let mut failed = measured.failed;
    // Every pass equals the verdict's results, so the first pass speaks
    // for all of them.
    if let [Ok(full), Ok(coarse)] = measured.first.as_slice() {
        if let Err(why) = charging_contract(full, coarse) {
            eprintln!("wide-stream: {why}");
            failed += 1;
        }
    }
    let attempted = (passes * sims.len()) as u64;

    let report = if opts.trace {
        let mut tracer = Tracer::new();
        let (layers, mismatches) = traced(
            &mut tracer,
            &stream,
            &sims,
            &dir,
            &measured.first,
            measured.first_s(),
        )?;
        tracer.write(&opts.work_dir.join("wide-stream.spans.jsonl"))?;
        let mut report = Report::new(attempted + sims.len() as u64, failed + mismatches);
        layers.emit(&mut report);
        report
    } else {
        let mut report = Report::new(attempted, failed);
        report.end_to_end(&measured.end_to_end(&[REFS; 2], median(&setup_s), peak_rss));
        report
    };
    let _ = fs::remove_dir_all(&dir);
    Ok(report)
}

/// The directory representations' charging contract: a coarse vector may
/// charge more control messages than the full map, and nothing else may
/// differ but the count of broadcasts.
fn charging_contract(full: &SimResult, coarse: &SimResult) -> Result<(), String> {
    let (f, c) = (full.message_count(), coarse.message_count());
    let mut events = coarse.events;
    events.broadcast_invalidations = full.events.broadcast_invalidations;
    if f.data != c.data || c.control < f.control || events != full.events {
        return Err(format!(
            "CV32 ({c}) breaks the charging contract against full-map ({f})"
        ));
    }
    Ok(())
}

/// `RealStorage` that tallies what the checkpoint ledger does through it:
/// files written (one per checkpoint save), bytes, and the time the calls
/// take.
#[derive(Default)]
struct CountingStorage {
    files: AtomicU64,
    bytes: AtomicU64,
    nanos: AtomicU64,
}

impl CountingStorage {
    fn timed<T>(&self, op: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        let started = Instant::now();
        let out = op();
        self.nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl Storage for CountingStorage {
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.files.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.timed(|| RealStorage.write_file(path, bytes))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.timed(|| RealStorage.append(path, bytes))
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        self.timed(|| RealStorage.sync(path))
    }

    fn sync_parent(&self, path: &Path) -> io::Result<()> {
        self.timed(|| RealStorage.sync_parent(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed(|| RealStorage.rename(from, to))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.timed(|| RealStorage.remove(path))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.timed(|| RealStorage.read(path))
    }

    fn exists(&self, path: &Path) -> bool {
        RealStorage.exists(path)
    }
}

/// What the traced pass measured of one cell.
struct CellProbe {
    /// Each shard's filtered stream, drained with no engine behind it.
    drain_s: Vec<f64>,
    /// Each shard's `try_run_stream`, the shards running in parallel.
    run_s: Vec<f64>,
    /// Records the shard filters kept, over all shards.
    kept: u64,
    sharded_s: f64,
    resumable_s: f64,
}

impl CellProbe {
    /// The shard the cell waits for.
    fn critical(&self) -> usize {
        (0..self.run_s.len())
            .max_by(|&a, &b| self.run_s[a].total_cmp(&self.run_s[b]))
            .unwrap_or(0)
    }
}

/// One cell of the traced pass: generation and the shard filter alone,
/// each shard's engine run, the library's sharded run, and the end-to-end
/// call through `storage`. Returns the timings and the three results,
/// which must agree.
fn probe_cell(
    tr: &mut Tracer,
    stream: &TraceStream,
    sim: &DirectorySim,
    policy: &CheckpointPolicy,
    storage: &CountingStorage,
) -> Result<(CellProbe, [SimResult; 3]), String> {
    let shards: Vec<TraceStream> = (0..SHARDS)
        .map(|k| {
            stream
                .unfiltered()
                .with_shard_filter(BlockSize::B16, k, SHARDS)
        })
        .collect();
    let mut drain_s = Vec::with_capacity(SHARDS);
    let mut kept = 0;
    for shard in &shards {
        let started = Instant::now();
        for item in shard.records().map_err(|e| e.to_string())? {
            std::hint::black_box(item.map_err(|e| e.to_string())?);
            kept += 1;
        }
        let ended = Instant::now();
        tr.record("trace.stream_drain", started, ended);
        drain_s.push((ended - started).as_secs_f64());
    }
    let outcomes = thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| {
                scope.spawn(move || {
                    let started = Instant::now();
                    let result = sim.try_run_stream(shard);
                    (started, Instant::now(), result)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
    });
    let mut run_s = Vec::with_capacity(SHARDS);
    let mut merged = SimResult::empty(Protocol::Aggressive);
    for outcome in outcomes {
        let (started, ended, result) =
            outcome.map_err(|_| "a shard probe thread panicked".to_string())?;
        tr.record("core.shard_run", started, ended);
        run_s.push((ended - started).as_secs_f64());
        merged += result.map_err(|e| e.to_string())?;
    }
    let (sharded, sharded_s) = tr.timed("core.stream_sharded", |_| {
        sim.try_run_stream_sharded(stream, SHARDS)
    });
    let (resumable, resumable_s) = tr.timed("core.stream_resumable", |_| {
        sim.run_stream_resumable_on(stream, SHARDS, policy, storage)
    });
    let probe = CellProbe {
        drain_s,
        run_s,
        kept,
        sharded_s,
        resumable_s,
    };
    Ok((
        probe,
        [
            merged,
            sharded.map_err(|e| e.to_string())?,
            resumable.map_err(|e| e.to_string())?,
        ],
    ))
}

/// The traced pass: every cell probed layer by layer, each probe's result
/// checked against the untraced pass. Returns the layers and the number
/// of disagreeing results.
fn traced(
    tr: &mut Tracer,
    stream: &TraceStream,
    sims: &[DirectorySim],
    dir: &Path,
    untraced: &[Result<SimResult, String>],
    untraced_s: f64,
) -> Result<(Layers, u64), String> {
    let storage = CountingStorage::default();
    let mut probes = Vec::with_capacity(sims.len());
    let mut mismatches = 0;
    tr.span("wide.pass", |tr| -> Result<(), String> {
        for (c, sim) in sims.iter().enumerate() {
            let (probe, results) = tr.span("cell", |tr| {
                probe_cell(tr, stream, sim, &policy(dir, c), &storage)
            })?;
            let want = untraced[c].as_ref().ok();
            mismatches += results.iter().filter(|r| Some(*r) != want).count() as u64;
            probes.push(probe);
        }
        Ok(())
    })?;

    let critical: Vec<usize> = probes.iter().map(CellProbe::critical).collect();
    let drain: f64 = probes
        .iter()
        .zip(&critical)
        .map(|(p, &k)| p.drain_s[k])
        .sum();
    let run_max: f64 = probes.iter().zip(&critical).map(|(p, &k)| p.run_s[k]).sum();
    let run_mean: f64 = probes
        .iter()
        .map(|p| p.run_s.iter().sum::<f64>() / SHARDS as f64)
        .sum();
    let checkpoint: f64 = probes.iter().map(|p| p.resumable_s - p.sharded_s).sum();
    let generated = (SHARDS as u64 * REFS * probes.len() as u64) as f64;
    let kept: u64 = probes.iter().map(|p| p.kept).sum();

    let mut layers = Layers::default();
    layers.set("trace.stream_drain_s", drain);
    layers.set("trace.filter_keep_ratio", ratio(kept as f64, generated));
    layers.set("core.stream_step_s", run_max - drain);
    layers.set("core.shard_run_s.max", run_max);
    layers.set("core.shard_balance", ratio(run_max, run_mean));
    layers.set(
        "core.repr_cost_ratio",
        ratio(probes[1].resumable_s, probes[0].resumable_s),
    );
    layers.set("core.checkpoint_s", checkpoint);
    layers.set(
        "core.checkpoint_io_s",
        storage.nanos.load(Ordering::Relaxed) as f64 / 1e9,
    );
    layers.set(
        "core.checkpoints",
        storage.files.load(Ordering::Relaxed) as f64,
    );
    layers.set(
        "core.checkpoint_bytes",
        storage.bytes.load(Ordering::Relaxed) as f64,
    );
    layers.sim_counts(untraced.iter().filter_map(|r| r.as_ref().ok()));
    layers.coverage(
        probes.iter().map(|p| p.resumable_s).sum(),
        &[
            ("trace.stream_drain", drain),
            ("core.stream_step", run_max - drain),
            ("core.checkpoint", checkpoint),
        ],
        untraced_s,
    );
    Ok((layers, mismatches))
}
