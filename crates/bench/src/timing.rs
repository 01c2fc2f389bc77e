//! Minimal self-timing harness for the `benches/` targets, plus the
//! run and resident-memory helpers the benchmark binaries share.
//!
//! The workspace builds fully offline, so the benches use a plain
//! [`std::time::Instant`] loop instead of an external benchmarking
//! framework: a fixed warm-up, a fixed sample count, and a median-based
//! report. Absolute numbers are machine-dependent; the value of these
//! benches is catching order-of-magnitude regressions and providing a
//! reproducible `cargo bench` entry point.

use std::time::Instant;

use mcc_core::{DirectorySim, RunSpec, SimResult};
use mcc_trace::Trace;

/// Number of timed samples per benchmark.
const SAMPLES: usize = 10;

/// Runs `f` once as warm-up and `SAMPLES` timed times, then prints a
/// `name  median  min  [per-element]` line. `elements` scales the
/// per-iteration cost into a throughput figure when non-zero.
pub fn bench<T>(name: &str, elements: u64, mut f: impl FnMut() -> T) {
    let _warmup = f();
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            let _keep = f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let median = samples[samples.len() / 2];
    let min = samples[0];
    if elements > 0 {
        let throughput = elements as f64 / median;
        println!(
            "{name:<40} median {:>10} min {:>10}  {:>14.0} elem/s",
            format_secs(median),
            format_secs(min),
            throughput
        );
    } else {
        println!(
            "{name:<40} median {:>10} min {:>10}",
            format_secs(median),
            format_secs(min)
        );
    }
}

/// Runs `f` once as warm-up and `samples` timed times, returning the
/// median wall time in seconds. The programmatic sibling of [`bench()`]
/// for harness binaries that post-process timings (speedup tables)
/// instead of printing them directly.
///
/// # Panics
///
/// Panics if `samples` is zero.
pub fn measure<T>(samples: usize, f: impl FnMut() -> T) -> f64 {
    measure_detailed(samples, f).wall_median
}

/// The full result of a [`measure_detailed`] run.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Median wall time per iteration, in seconds — a typical
    /// iteration on this host, as a user would experience it.
    pub wall_median: f64,
    /// Minimum wall time per iteration, in seconds.
    pub wall_min: f64,
}

/// Like [`measure`], but reports both the median and the minimum wall
/// time per iteration.
///
/// # Panics
///
/// Panics if `samples` is zero.
pub fn measure_detailed<T>(samples: usize, mut f: impl FnMut() -> T) -> Timing {
    assert!(samples > 0, "sample count must be positive");
    let _warmup = f();
    let mut walls: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            let _keep = f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    walls.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    Timing {
        wall_median: walls[walls.len() / 2],
        wall_min: walls[0],
    }
}

/// Repeats `f` until the calling thread has accumulated at least
/// `min_cpu_secs` of on-CPU time, then returns the mean *CPU* seconds
/// per iteration. `None` where the platform doesn't expose thread CPU
/// time, or if the accounting doesn't advance.
///
/// CPU time is the robust basis for cross-run perf comparisons:
/// preemption, cgroup throttling, and noisy neighbors stretch wall
/// time by integer factors while barely moving on-CPU time. The
/// scheduler only refreshes the accounting at tick granularity
/// (typically 1–4 ms), hence the block structure — `min_cpu_secs`
/// should span dozens of ticks (≥ 0.1 s) for a ≲5% reading.
pub fn measure_cpu_block<T>(min_cpu_secs: f64, mut f: impl FnMut() -> T) -> Option<f64> {
    let _warmup = f();
    let start = thread_cpu_secs()?;
    let wall = Instant::now();
    let mut iters = 0u64;
    loop {
        let _keep = f();
        iters += 1;
        let delta = thread_cpu_secs()? - start;
        if delta >= min_cpu_secs && iters >= 2 {
            return Some(delta / iters as f64);
        }
        // Runaway guard: if CPU accounting stalls (or one iteration is
        // enormous), stop on wall time and salvage what advanced.
        if wall.elapsed().as_secs_f64() > 10.0 {
            return (delta > 0.0).then(|| delta / iters as f64);
        }
    }
}

/// Cumulative on-CPU time of the calling thread, in seconds, from the
/// Linux scheduler's nanosecond accounting (`schedstat` field 1).
/// `None` where `/proc` is absent or unreadable.
pub fn thread_cpu_secs() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")
        .or_else(|_| std::fs::read_to_string("/proc/self/schedstat"))
        .ok()?;
    let ns: u64 = text.split_whitespace().next()?.parse().ok()?;
    Some(ns as f64 / 1e9)
}

/// A `shards`-way run through the executor, panicking on failure like
/// [`DirectorySim::run`].
pub fn run_sharded(sim: &DirectorySim, trace: &Trace, shards: usize) -> SimResult {
    let spec = RunSpec {
        shards,
        ..RunSpec::default()
    };
    sim.execute(trace, &spec)
        .and_then(|report| report.merged())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Resident-set figures from `/proc/self/status`, in bytes:
/// `(current VmRSS, peak VmHWM)`. Zeros on platforms without procfs.
pub fn resident_memory() -> (u64, u64) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return (0, 0);
    };
    let field = |name: &str| -> u64 {
        status
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|kb| kb.parse::<u64>().ok())
            .map_or(0, |kb| kb * 1024)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

fn format_secs(s: f64) -> String {
    if s < 1e-6 {
        format!("{:.1}ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.3}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_closure_samples_plus_warmup() {
        let mut calls = 0u32;
        bench("counter", 0, || calls += 1);
        assert_eq!(calls, 1 + SAMPLES as u32);
    }

    #[test]
    fn measure_runs_closure_samples_plus_warmup() {
        let mut calls = 0u32;
        let median = measure(5, || calls += 1);
        assert_eq!(calls, 6);
        assert!(median >= 0.0);
    }

    #[test]
    #[should_panic(expected = "sample count must be positive")]
    fn measure_rejects_zero_samples() {
        let _ = measure(0, || ());
    }

    #[test]
    fn measure_detailed_orders_min_under_median() {
        let mut calls = 0u32;
        let t = measure_detailed(9, || calls += 1);
        assert_eq!(calls, 10);
        assert!(t.wall_min <= t.wall_median);
    }

    #[test]
    fn measure_cpu_block_reports_per_iteration_cpu() {
        let Some(_) = thread_cpu_secs() else {
            return; // platform without /proc: nothing to assert
        };
        let spin = || {
            let mut acc = 1u64;
            for _ in 0..100_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            std::hint::black_box(acc)
        };
        let per_iter = measure_cpu_block(0.02, spin).expect("cpu accounting advances");
        assert!(per_iter > 0.0);
        assert!(per_iter < 10.0);
    }

    #[test]
    fn thread_cpu_secs_advances_under_load() {
        let Some(before) = thread_cpu_secs() else {
            return; // platform without /proc: nothing to assert
        };
        // Burn a visible amount of CPU (spin, not sleep).
        let mut acc = 0u64;
        while thread_cpu_secs().is_some_and(|now| now - before < 0.01) {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            std::hint::black_box(acc);
        }
        let after = thread_cpu_secs().expect("was Some above");
        assert!(after > before);
    }

    #[test]
    fn format_covers_all_scales() {
        assert!(format_secs(5e-9).ends_with("ns"));
        assert!(format_secs(5e-6).ends_with("µs"));
        assert!(format_secs(5e-3).ends_with("ms"));
        assert!(format_secs(5.0).ends_with('s'));
    }
}
