//! The result line, and the statistics behind its numbers.

use std::fmt::Write as _;
use std::time::Instant;

use mcc_core::SimResult;
use mcc_obs::Log2Histogram;

/// One run's result: operation counts and named metrics, printed as the
/// last line of standard output.
pub struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

/// The end-to-end metrics every workload reports; `README.md` gives each
/// one's meaning per workload.
pub struct EndToEnd {
    pub refs_per_s: f64,
    pub ops_per_s: f64,
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
    pub latency_mean_us: f64,
    pub verdict_s: f64,
    pub msgs_per_kref: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
}

impl Report {
    /// A report of `attempted` operations, `failed` of which errored or
    /// failed a check; it is correct only when none failed.
    pub fn new(attempted: u64, failed: u64) -> Report {
        Report {
            correct: failed == 0,
            attempted,
            failed,
            metrics: Vec::new(),
        }
    }

    /// Adds one metric. JSON has no NaN or infinity, and a metric that
    /// cannot be computed means a broken run, so a non-finite value is
    /// written as 0 and marks the run incorrect.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() {
            value
        } else {
            eprintln!("perfbench: {name} is {value}; the run is marked incorrect");
            self.correct = false;
            0.0
        };
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn end_to_end(&mut self, e: &EndToEnd) {
        self.metric("refs_per_s", e.refs_per_s, "refs/s");
        self.metric("ops_per_s", e.ops_per_s, "ops/s");
        self.metric("latency_p50_us", e.latency_p50_us, "us");
        self.metric("latency_p99_us", e.latency_p99_us, "us");
        self.metric("latency_mean_us", e.latency_mean_us, "us");
        self.metric("verdict_s", e.verdict_s, "s");
        self.metric("msgs_per_kref", e.msgs_per_kref, "msgs/kref");
        self.metric("setup_s", e.setup_s, "s");
        self.metric("peak_rss_mb", e.peak_rss_mb, "MiB");
    }

    /// The result line; values keep every digit `f64` printing gives.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of a sample, interpolating linearly between the
/// order statistics around position `q·(n−1)`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
}

/// The `q`-quantile of a log2 histogram, whose bucket `i >= 1` holds the
/// values in `[2^(i-1), 2^i)` and bucket 0 the zeros. Half of a bucket's
/// samples are taken to lie below its geometric midpoint, `2^(i-1/2)`,
/// and the value of rank `q·n` is interpolated between the midpoints
/// around it, linearly in log2 of the value; below the first midpoint
/// and above the last, towards the outer edge of that bucket.
///
/// Interpolating inside the one bucket the rank falls in, as if its
/// samples were spread evenly across it, spreads a narrow peak of values
/// over the whole bucket, so when the peak straddles a power of two the
/// estimate swings across half a bucket as the peak's split between the
/// two buckets shifts. Between midpoints, each bucket's neighbour weighs
/// in as well. `Log2Histogram::quantile_upper_bound` returns a bucket's
/// upper edge, which can only be a power of two minus one.
pub fn hist_quantile(h: &Log2Histogram, q: f64) -> f64 {
    let buckets = h.buckets();
    let rank = q.clamp(0.0, 1.0) * h.count() as f64;
    let zeros = buckets.first().map_or(0.0, |&n| n as f64);
    let first = buckets.iter().skip(1).position(|&n| n > 0).map(|p| p + 1);
    let last = buckets.iter().rposition(|&n| n > 0);
    let (Some(first), Some(last)) = (first, last) else {
        return 0.0;
    };
    if rank <= zeros {
        return 0.0;
    }
    // Knots: (log2 of a value, the samples below it).
    let mut knots = vec![((first - 1) as f64, zeros)];
    let mut below = zeros;
    for (i, &n) in buckets.iter().enumerate().take(last + 1).skip(first) {
        let n = n as f64;
        knots.push((i as f64 - 0.5, below + n / 2.0));
        below += n;
    }
    knots.push((last as f64, below));
    knots
        .windows(2)
        .find(|pair| pair[1].1 >= rank)
        .map_or(0.0, |pair| {
            let ((x0, f0), (x1, f1)) = (pair[0], pair[1]);
            (x0 + (rank - f0) / (f1 - f0) * (x1 - x0)).exp2()
        })
}

/// The smallest of `xs`: the best of several timings of the same work.
/// Contention on the host only ever slows a reading, and it comes and
/// goes within seconds, so the best reading is the steadiest estimate of
/// the work's own cost.
pub fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// What the passes of a batch workload measured. The operations of a
/// batch workload are simulation cells; every pass runs the same cells.
pub struct Passes {
    /// `cell_s[c]`: cell `c`'s time in every pass.
    pub cell_s: Vec<Vec<f64>>,
    /// `verdict_s[c]`: the time of cell `c`'s verdict in every pass.
    pub verdict_s: Vec<Vec<f64>>,
    /// The first pass's results.
    pub first: Vec<Result<SimResult, String>>,
    /// Cell results that errored or failed a check, over all passes.
    pub failed: u64,
}

/// Runs `passes` passes over `cells` cells. Each pass times `run(c)` for
/// every cell; then, outside that timing, it times the verdict —
/// `verify(c)` for every cell, the independent path, each cell on its
/// own — and checks each result against it and, when `pins` has one,
/// against its pinned total.
pub fn run_passes(
    passes: usize,
    cells: usize,
    mut run: impl FnMut(usize) -> Result<SimResult, String>,
    mut verify: impl FnMut(usize) -> Result<SimResult, String>,
    pins: Option<&[u64]>,
    label: impl Fn(usize) -> String,
) -> Passes {
    let mut measured = Passes {
        cell_s: vec![Vec::with_capacity(passes); cells],
        verdict_s: vec![Vec::with_capacity(passes); cells],
        first: Vec::new(),
        failed: 0,
    };
    for _ in 0..passes {
        let mut results = Vec::with_capacity(cells);
        for (c, times) in measured.cell_s.iter_mut().enumerate() {
            let started = Instant::now();
            results.push(run(c));
            times.push(started.elapsed().as_secs_f64());
        }
        let mut expected = Vec::with_capacity(cells);
        for (c, times) in measured.verdict_s.iter_mut().enumerate() {
            let started = Instant::now();
            expected.push(verify(c));
            times.push(started.elapsed().as_secs_f64());
        }
        for (c, got) in results.iter().enumerate() {
            if let Err(why) = check_cell(got, &expected[c], pins.map(|p| p[c])) {
                eprintln!("{}: {why}", label(c));
                measured.failed += 1;
            }
        }
        if measured.first.is_empty() {
            measured.first = results;
        }
    }
    for (c, result) in measured.first.iter().enumerate() {
        if let Ok(r) = result {
            eprintln!(
                "{}: {} messages, best {:.4} s",
                label(c),
                r.total_messages(),
                best(&measured.cell_s[c])
            );
        }
    }
    measured
}

impl Passes {
    /// The results of the first pass that did not error.
    pub fn first_ok(&self) -> impl Iterator<Item = &SimResult> {
        self.first.iter().filter_map(|r| r.as_ref().ok())
    }

    /// The first pass's wall time over its cells.
    pub fn first_s(&self) -> f64 {
        self.cell_s.iter().map(|t| t[0]).sum()
    }

    /// The end-to-end metrics, from each cell's best pass and each cell's
    /// best verdict; `refs[c]` is cell `c`'s count of simulated references.
    /// A cell is short next to a pass, so its best reading is more likely
    /// to fall in a quiet stretch of the host than a whole pass's is.
    pub fn end_to_end(&self, refs: &[u64], setup_s: f64, peak_rss_mb: f64) -> EndToEnd {
        let cell_us: Vec<f64> = self.cell_s.iter().map(|t| best(t) * 1e6).collect();
        let busy_s = cell_us.iter().sum::<f64>() / 1e6;
        let refs: u64 = refs.iter().sum();
        let msgs: u64 = self.first_ok().map(SimResult::total_messages).sum();
        EndToEnd {
            refs_per_s: ratio(refs as f64, busy_s),
            ops_per_s: ratio(cell_us.len() as f64, busy_s),
            latency_p50_us: quantile(&cell_us, 0.5),
            latency_p99_us: quantile(&cell_us, 0.99),
            latency_mean_us: mean(&cell_us),
            verdict_s: self.verdict_s.iter().map(|t| best(t)).sum(),
            msgs_per_kref: ratio(1000.0 * msgs as f64, refs as f64),
            setup_s,
            peak_rss_mb,
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Checks one batch cell against the independent path's result and,
/// when the seed has one, against its pinned message total.
fn check_cell(
    got: &Result<SimResult, String>,
    expected: &Result<SimResult, String>,
    pin: Option<u64>,
) -> Result<(), String> {
    let got = got.as_ref().map_err(|e| format!("run failed: {e}"))?;
    let expected = expected
        .as_ref()
        .map_err(|e| format!("independent path failed: {e}"))?;
    if got != expected {
        return Err(format!(
            "{} messages, the independent path says {}",
            got.total_messages(),
            expected.total_messages()
        ));
    }
    match pin {
        Some(pin) if got.total_messages() != pin => {
            Err(format!("{} messages, pinned {pin}", got.total_messages()))
        }
        _ => Ok(()),
    }
}
