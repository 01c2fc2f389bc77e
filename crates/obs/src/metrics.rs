//! The metrics registry: named counters, gauges, and log2-bucket
//! histograms, with interval (per-N-records) snapshots.
//!
//! A [`Registry`] is a plain data structure — it does not observe
//! anything by itself. [`EventTally`] is the one fold from protocol
//! events to counts: its `add` is the only code that turns an
//! [`Event`] into numbers, and its walk names every metric it feeds
//! (the [`names`] constants plus one `step.<kind>`, `promote.<rule>`
//! and `demote.<rule>` counter per kind and rule).
//! [`MetricsRecorder`] is the [`EventSink`] that tallies a protocol
//! event stream and drains the tally into a registry, cutting a
//! cumulative snapshot of all counters every `interval` references so
//! sweeps can plot traffic and classification-flip rate over time;
//! the live plane's [`TelemetrySink`](crate::TelemetrySink) publishes
//! the same tally, so offline and live views share one vocabulary.
//!
//! Export formats: JSON (via the crate's own writer/parser, so the CI
//! round-trip check needs no external dependency) and CSV/text tables
//! via `mcc-stats`.

use crate::event::{Event, Rule, StepKind};
use crate::json::{Json, JsonError};
use crate::sink::EventSink;
use mcc_stats::Table;
use std::collections::BTreeMap;

/// A histogram with power-of-two buckets.
///
/// Bucket 0 counts the value `0`; bucket `i > 0` counts values in
/// `[2^(i-1), 2^i)`. 65 buckets cover the full `u64` range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u128,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
        }
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Log2Histogram {
        Log2Histogram::default()
    }

    /// The bucket index a value falls into.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Records one value. Counts saturate rather than wrap, so a
    /// histogram fed from long-lived atomic accumulators can never
    /// panic or go backwards.
    pub fn record(&mut self, value: u64) {
        let i = Log2Histogram::bucket_of(value);
        self.buckets[i] = self.buckets[i].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(u128::from(value));
    }

    /// Rebuilds a histogram from raw bucket counts and an exact sum —
    /// the shape a lock-free atomic accumulator snapshots into. The
    /// total count is recomputed from the buckets (saturating), so the
    /// `count == Σ buckets` invariant the quantile walk relies on holds
    /// even if the parts were sampled while concurrent recording was
    /// in flight.
    pub fn from_parts(buckets: [u64; 65], sum: u128) -> Log2Histogram {
        let count = buckets.iter().fold(0u64, |acc, &c| acc.saturating_add(c));
        Log2Histogram {
            buckets,
            count,
            sum,
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; 65] {
        &self.buckets
    }

    /// Human label for a bucket: `"0"`, `"1"`, `"[2,4)"`, …
    pub fn bucket_label(i: usize) -> String {
        match i {
            0 => "0".to_string(),
            1 => "1".to_string(),
            _ => format!("[{},{})", 1u128 << (i - 1), 1u128 << i),
        }
    }

    /// Index of the highest non-empty bucket, if any value was
    /// recorded.
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }

    /// Folds another histogram into this one, bucket by bucket —
    /// equivalent to having recorded both value streams into a single
    /// histogram (the bucketing is order-independent). Saturates at
    /// the numeric limits instead of overflowing.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// An upper bound on the `q`-quantile of the recorded values
    /// (`q` in `[0, 1]`): the exclusive upper edge of the first bucket
    /// whose cumulative count reaches `ceil(q * count)`. Resolution is
    /// the power-of-two bucket width; `None` on an empty histogram.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            // Saturating: bucket counts can individually saturate near
            // u64::MAX, and the running total must not overflow past
            // the (also saturated) rank.
            seen = seen.saturating_add(c);
            if seen >= rank {
                return Some(match i {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << i) - 1,
                });
            }
        }
        None
    }
}

/// A cumulative snapshot of all counters, cut at a record boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntervalSnapshot {
    /// References observed when the snapshot was cut (cumulative).
    pub records: u64,
    /// Cumulative counter values at that point.
    pub counters: BTreeMap<String, u64>,
}

/// Named counters, gauges, and histograms, plus interval snapshots.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Log2Histogram>,
    intervals: Vec<IntervalSnapshot>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `delta` to a counter, creating it at zero first.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Reads a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Adds `delta` (possibly negative) to a gauge.
    pub fn gauge_add(&mut self, name: &str, delta: i64) {
        *self.gauges.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets a gauge.
    pub fn gauge_set(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Reads a gauge (0 if never touched).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Folds a whole histogram into the named slot, creating it empty
    /// first. This is how a telemetry snapshot lands an
    /// [`crate::span::AtomicHistogram`] in a plain registry.
    pub fn histogram_merge(&mut self, name: &str, h: &Log2Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(h);
    }

    /// Looks up a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.histograms.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> &BTreeMap<String, i64> {
        &self.gauges
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> &BTreeMap<String, Log2Histogram> {
        &self.histograms
    }

    /// The interval snapshots, in cut order.
    pub fn intervals(&self) -> &[IntervalSnapshot] {
        &self.intervals
    }

    /// Cuts a cumulative snapshot of all counters at `records`
    /// references. Idempotent per boundary: a second cut at the same
    /// record count replaces the first.
    pub fn snapshot_interval(&mut self, records: u64) {
        if let Some(last) = self.intervals.last_mut() {
            if last.records == records {
                last.counters = self.counters.clone();
                return;
            }
        }
        self.intervals.push(IntervalSnapshot {
            records,
            counters: self.counters.clone(),
        });
    }

    /// Serializes the registry to JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// The registry as a [`Json`] value, for embedding inside larger
    /// documents (telemetry snapshot lines nest one of these under a
    /// timestamped envelope).
    pub fn to_json_value(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::u64(*v)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::i64(*v)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    let hi = h.max_bucket().map_or(0, |i| i + 1);
                    (
                        k.clone(),
                        Json::Arr(h.buckets[..hi].iter().map(|&c| Json::u64(c)).collect()),
                    )
                })
                .collect(),
        );
        let intervals = Json::Arr(
            self.intervals
                .iter()
                .map(|snap| {
                    Json::Obj(vec![
                        ("records".to_string(), Json::u64(snap.records)),
                        (
                            "counters".to_string(),
                            Json::Obj(
                                snap.counters
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Json::u64(*v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        Json::Obj(vec![
            ("counters".to_string(), counters),
            ("gauges".to_string(), gauges),
            ("histograms".to_string(), histograms),
            ("intervals".to_string(), intervals),
        ])
    }

    /// Parses a registry back from [`Registry::to_json`] output.
    ///
    /// Histogram `count`/`sum` are reconstructed from the buckets using
    /// each bucket's lower bound, so a parsed histogram's `sum` is a
    /// lower bound rather than exact; bucket counts round-trip exactly.
    pub fn from_json(text: &str) -> Result<Registry, String> {
        let v = Json::parse(text).map_err(|e: JsonError| e.to_string())?;
        Registry::from_json_value(&v)
    }

    /// [`Registry::from_json`] over an already-parsed [`Json`] value.
    pub fn from_json_value(v: &Json) -> Result<Registry, String> {
        if v.as_obj().is_none() {
            return Err("top-level value is not an object".to_string());
        }
        let mut reg = Registry::new();
        let obj_u64 = |v: &Json, what: &str| -> Result<BTreeMap<String, u64>, String> {
            v.as_obj()
                .ok_or_else(|| format!("{what} is not an object"))?
                .iter()
                .map(|(k, val)| {
                    val.as_u64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("{what}.{k} is not a u64"))
                })
                .collect()
        };
        if let Some(counters) = v.get("counters") {
            reg.counters = obj_u64(counters, "counters")?;
        }
        if let Some(gauges) = v.get("gauges") {
            for (k, val) in gauges
                .as_obj()
                .ok_or_else(|| "gauges is not an object".to_string())?
            {
                let n = val
                    .as_i64()
                    .ok_or_else(|| format!("gauges.{k} is not an i64"))?;
                reg.gauges.insert(k.clone(), n);
            }
        }
        if let Some(hists) = v.get("histograms") {
            for (k, val) in hists
                .as_obj()
                .ok_or_else(|| "histograms is not an object".to_string())?
            {
                let arr = val
                    .as_arr()
                    .ok_or_else(|| format!("histograms.{k} is not an array"))?;
                if arr.len() > 65 {
                    return Err(format!("histograms.{k} has too many buckets"));
                }
                let mut h = Log2Histogram::new();
                for (i, c) in arr.iter().enumerate() {
                    let c = c
                        .as_u64()
                        .ok_or_else(|| format!("histograms.{k}[{i}] is not a u64"))?;
                    h.buckets[i] = c;
                    h.count = h.count.saturating_add(c);
                    let lower = if i <= 1 { i as u128 } else { 1u128 << (i - 1) };
                    h.sum = h.sum.saturating_add(lower.saturating_mul(u128::from(c)));
                }
                reg.histograms.insert(k.clone(), h);
            }
        }
        if let Some(intervals) = v.get("intervals") {
            for (i, snap) in intervals
                .as_arr()
                .ok_or_else(|| "intervals is not an array".to_string())?
                .iter()
                .enumerate()
            {
                let records = snap
                    .get("records")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("intervals[{i}].records missing"))?;
                let counters = obj_u64(
                    snap.get("counters")
                        .ok_or_else(|| format!("intervals[{i}].counters missing"))?,
                    "interval counters",
                )?;
                reg.intervals.push(IntervalSnapshot { records, counters });
            }
        }
        Ok(reg)
    }

    /// A per-interval *delta* table over the given counter names: one
    /// row per snapshot, each cell the increase since the previous
    /// snapshot. Render it with `to_text`/`to_markdown`/`to_csv`.
    pub fn intervals_table(&self, columns: &[&str]) -> Table {
        let mut headers = vec!["records".to_string()];
        headers.extend(columns.iter().map(|c| c.to_string()));
        let mut table = Table::new(headers);
        let mut prev: BTreeMap<&str, u64> = BTreeMap::new();
        for snap in &self.intervals {
            let mut cells = vec![snap.records.to_string()];
            for &col in columns {
                let now = snap.counters.get(col).copied().unwrap_or(0);
                let before = prev.get(col).copied().unwrap_or(0);
                cells.push(now.saturating_sub(before).to_string());
                prev.insert(col, now);
            }
            table.row(cells);
        }
        table
    }

    /// A `name,value` table of all counters and gauges.
    pub fn totals_table(&self) -> Table {
        let mut table = Table::new(["metric", "value"]);
        for (name, value) in &self.counters {
            table.row([name.clone(), value.to_string()]);
        }
        for (name, value) in &self.gauges {
            table.row([format!("{name} (gauge)"), value.to_string()]);
        }
        table
    }
}

/// The names of the event metrics an [`EventTally`] feeds, besides
/// one `step.<kind>` counter per [`StepKind`] and one
/// `promote.<rule>` / `demote.<rule>` counter per [`Rule`].
pub mod names {
    /// References observed (one per `Step` event).
    pub const RECORDS: &str = "records";
    /// Control messages charged.
    pub const CONTROL: &str = "messages.control";
    /// Data messages charged.
    pub const DATA: &str = "messages.data";
    /// Promotions to migratory.
    pub const PROMOTES: &str = "classification.promotes";
    /// Demotions from migratory.
    pub const DEMOTES: &str = "classification.demotes";
    /// Remote copies invalidated.
    pub const INVALIDATIONS: &str = "invalidations";
    /// Fabric NACKs observed.
    pub const NACKS: &str = "faults.nacks";
    /// Transaction retries observed.
    pub const RETRIES: &str = "faults.retries";
    /// Backoff units charged.
    pub const BACKOFF_UNITS: &str = "faults.backoff_units";
    /// Checkpoints published.
    pub const CHECKPOINT_SAVES: &str = "checkpoint.saves";
    /// Checkpoint restores.
    pub const CHECKPOINT_LOADS: &str = "checkpoint.loads";
    /// Shards started.
    pub const SHARDS_STARTED: &str = "shards.started";
    /// Shards finished.
    pub const SHARDS_FINISHED: &str = "shards.finished";
    /// Gauge: promotions minus demotions (net migratory flips).
    pub const NET_MIGRATORY: &str = "classification.net_migratory";
    /// Histogram: messages charged per reference.
    pub const MESSAGES_PER_REF: &str = "messages_per_ref";
    /// Histogram: backoff units per backoff episode.
    pub const BACKOFF_HIST: &str = "backoff_units";
}

/// The value of one metric in an [`EventTally::visit`] walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricValue<'a> {
    /// A counter's increase.
    Counter(u64),
    /// A gauge's change.
    Gauge(i64),
    /// The values a histogram recorded.
    Histogram(&'a Log2Histogram),
}

/// Per-event-type counts and sums of a protocol event stream: the one
/// fold from [`Event`]s to metrics, behind both [`MetricsRecorder`]
/// and the live plane's [`TelemetrySink`](crate::TelemetrySink).
///
/// [`EventTally::add`] is a handful of plain adds (no string, no
/// allocation), so a consumer tallies every event and turns the tally
/// into named metrics only at its own cadence, through
/// [`EventTally::visit`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventTally {
    records: u64,
    control: u64,
    data: u64,
    steps: [u64; StepKind::ALL.len()],
    promotes: [u64; Rule::ALL.len()],
    demotes: [u64; Rule::ALL.len()],
    invalidations: u64,
    nacks: u64,
    retries: u64,
    backoff_units: u64,
    checkpoint_saves: u64,
    checkpoint_loads: u64,
    shards_started: u64,
    shards_finished: u64,
    msg_buckets: Buckets,
    backoff_buckets: Buckets,
}

/// Raw log2 bucket counts: the tally's hot path pays one increment
/// per value, and [`EventTally::visit`] rebuilds the histogram from
/// them and the sum the tally already keeps.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Buckets([u64; 65]);

impl Default for Buckets {
    fn default() -> Buckets {
        Buckets([0; 65])
    }
}

impl EventTally {
    /// Counts one event.
    pub fn add(&mut self, event: &Event) {
        // Step dominates the stream (one per simulated reference): it
        // is tested alone and first, and every other event is cold.
        if let Event::Step {
            kind,
            control,
            data,
            ..
        } = *event
        {
            self.records += 1;
            self.control += control;
            self.data += data;
            self.steps[kind as usize] += 1;
            self.msg_buckets.0[Log2Histogram::bucket_of(control + data)] += 1;
            return;
        }
        std::hint::cold_path();
        match *event {
            Event::Step { .. } => {} // counted above
            Event::Promote { rule, .. } => self.promotes[rule as usize] += 1,
            Event::Demote { rule, .. } => self.demotes[rule as usize] += 1,
            Event::Invalidation { .. } => self.invalidations += 1,
            Event::Nack { .. } => self.nacks += 1,
            Event::Retry { .. } => self.retries += 1,
            Event::Backoff { units, .. } => {
                self.backoff_units += units;
                self.backoff_buckets.0[Log2Histogram::bucket_of(units)] += 1;
            }
            Event::CheckpointSaved { .. } => self.checkpoint_saves += 1,
            Event::CheckpointLoaded { .. } => self.checkpoint_loads += 1,
            Event::ShardStarted { .. } => self.shards_started += 1,
            Event::ShardFinished { .. } => self.shards_finished += 1,
        }
    }

    /// References counted (one per `Step` event).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Visits every metric the tally feeds, always in the same order:
    /// its name, its value, and whether an event of its type was
    /// counted (a registry shows a metric exactly from then on, even
    /// at a zero value).
    pub fn visit(&self, mut visit: impl FnMut(&str, MetricValue<'_>, bool)) {
        use MetricValue::{Counter, Gauge, Histogram};
        let promotes: u64 = self.promotes.iter().sum();
        let demotes: u64 = self.demotes.iter().sum();
        let msgs = u128::from(self.control) + u128::from(self.data);
        let msgs = Log2Histogram::from_parts(self.msg_buckets.0, msgs);
        let backoff = Log2Histogram::from_parts(self.backoff_buckets.0, self.backoff_units.into());
        let backoffs = backoff.count();
        // (name, value, events of its type)
        let sums = [
            (names::RECORDS, self.records, self.records),
            (names::CONTROL, self.control, self.records),
            (names::DATA, self.data, self.records),
            (names::BACKOFF_UNITS, self.backoff_units, backoffs),
        ];
        let occurrences = [
            (names::PROMOTES, promotes),
            (names::DEMOTES, demotes),
            (names::INVALIDATIONS, self.invalidations),
            (names::NACKS, self.nacks),
            (names::RETRIES, self.retries),
            (names::CHECKPOINT_SAVES, self.checkpoint_saves),
            (names::CHECKPOINT_LOADS, self.checkpoint_loads),
            (names::SHARDS_STARTED, self.shards_started),
            (names::SHARDS_FINISHED, self.shards_finished),
        ];
        for (name, value, events) in sums.into_iter().chain(occurrences.map(|(m, n)| (m, n, n))) {
            visit(name, Counter(value), events > 0);
        }
        let kinds = StepKind::ALL.map(StepKind::label);
        let rules = Rule::ALL.map(Rule::label);
        let breakdowns: [(&str, &[&str], &[u64]); 3] = [
            ("step.", &kinds, &self.steps),
            ("promote.", &rules, &self.promotes),
            ("demote.", &rules, &self.demotes),
        ];
        let mut name = String::new();
        for (prefix, labels, counts) in breakdowns {
            for (label, &n) in labels.iter().zip(counts) {
                name.clear();
                name.push_str(prefix);
                name.push_str(label);
                visit(&name, Counter(n), n > 0);
            }
        }
        let net = promotes as i64 - demotes as i64;
        let rest = [
            (names::NET_MIGRATORY, Gauge(net), promotes + demotes),
            (names::MESSAGES_PER_REF, Histogram(&msgs), self.records),
            (names::BACKOFF_HIST, Histogram(&backoff), backoffs),
        ];
        for (name, value, events) in rest {
            visit(name, value, events > 0);
        }
    }
}

/// Default snapshot cadence: one cumulative snapshot every this many
/// references.
pub const DEFAULT_INTERVAL: u64 = 50_000;

/// An [`EventSink`] that aggregates the event stream into a
/// [`Registry`], cutting an interval snapshot every `interval`
/// references.
///
/// Events go into a pending [`EventTally`], which is drained into the
/// registry at each interval boundary and at [`MetricsRecorder::finish`],
/// so the per-event cost is the tally's plain adds.
///
/// Reference counting is local (one per observed `Step` event), so the
/// recorder works identically on a live engine stream and on a merged
/// multi-shard replay.
#[derive(Clone, Debug)]
pub struct MetricsRecorder {
    interval: u64,
    records_seen: u64,
    pending: EventTally,
    registry: Registry,
}

impl MetricsRecorder {
    /// A recorder cutting snapshots every `interval` references
    /// (minimum 1).
    pub fn new(interval: u64) -> MetricsRecorder {
        MetricsRecorder {
            interval: interval.max(1),
            records_seen: 0,
            pending: EventTally::default(),
            registry: Registry::new(),
        }
    }

    /// Replays a recorded event stream through a fresh recorder.
    pub fn replay<'a>(events: impl IntoIterator<Item = &'a Event>, interval: u64) -> Registry {
        let mut rec = MetricsRecorder::new(interval);
        for ev in events {
            rec.emit(ev);
        }
        rec.finish()
    }

    /// Finalizes the recorder: cuts a final snapshot at the last
    /// observed record count (if it is not already on a boundary) and
    /// returns the registry.
    pub fn finish(mut self) -> Registry {
        self.drain();
        if self.records_seen > 0 {
            self.registry.snapshot_interval(self.records_seen);
        }
        self.registry
    }

    /// Moves the pending tally into the registry.
    fn drain(&mut self) {
        let registry = &mut self.registry;
        std::mem::take(&mut self.pending).visit(|name, value, seen| match value {
            _ if !seen => {}
            MetricValue::Counter(v) => registry.counter_add(name, v),
            MetricValue::Gauge(v) => registry.gauge_add(name, v),
            MetricValue::Histogram(h) => registry.histogram_merge(name, h),
        });
    }
}

impl EventSink for MetricsRecorder {
    fn emit(&mut self, event: &Event) {
        self.pending.add(event);
        if let Event::Step { .. } = event {
            self.records_seen += 1;
            if self.records_seen.is_multiple_of(self.interval) {
                self.drain();
                self.registry.snapshot_interval(self.records_seen);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(step: u64, control: u64, data: u64) -> Event {
        Event::Step {
            step,
            block: 1,
            node: 0,
            kind: StepKind::WriteMiss,
            control,
            data,
        }
    }

    #[test]
    fn histogram_buckets() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
        let mut h = Log2Histogram::new();
        for v in [0, 1, 2, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        assert_eq!(h.max_bucket(), Some(10));
        assert_eq!(Log2Histogram::bucket_label(2), "[2,4)");
    }

    #[test]
    fn histogram_merge_equals_single_stream() {
        let (a_vals, b_vals) = ([0u64, 1, 7, 1000], [2u64, 3, 4, u64::MAX]);
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        let mut single = Log2Histogram::new();
        for v in a_vals {
            a.record(v);
            single.record(v);
        }
        for v in b_vals {
            b.record(v);
            single.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), single.count());
        assert_eq!(a.sum(), single.sum());
        assert_eq!(a.buckets(), single.buckets());
        assert_eq!(
            a.quantile_upper_bound(0.5),
            single.quantile_upper_bound(0.5)
        );

        // Merging an empty histogram is the identity.
        let before = single.clone();
        single.merge(&Log2Histogram::new());
        assert_eq!(single.buckets(), before.buckets());
        assert_eq!(single.count(), before.count());
    }

    #[test]
    fn histogram_quantile_upper_bounds() {
        assert_eq!(Log2Histogram::new().quantile_upper_bound(0.5), None);
        let mut h = Log2Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // Median of 1..=100 is 50, bucket [32,64) → upper bound 63.
        assert_eq!(h.quantile_upper_bound(0.5), Some(63));
        // p99 → 99, bucket [64,128) → 127; p100 → same top bucket.
        assert_eq!(h.quantile_upper_bound(0.99), Some(127));
        assert_eq!(h.quantile_upper_bound(1.0), Some(127));
        // q = 0 clamps to the first recorded value's bucket.
        assert_eq!(h.quantile_upper_bound(0.0), Some(1));
        let mut zeros = Log2Histogram::new();
        zeros.record(0);
        assert_eq!(zeros.quantile_upper_bound(0.5), Some(0));
        let mut top = Log2Histogram::new();
        top.record(u64::MAX);
        assert_eq!(top.quantile_upper_bound(0.5), Some(u64::MAX));
    }

    #[test]
    fn histogram_empty_edge_cases() {
        let empty = Log2Histogram::new();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.max_bucket(), None);
        for q in [0.0, 0.5, 1.0, -3.0, 7.0] {
            assert_eq!(empty.quantile_upper_bound(q), None);
        }
        // Merging empty into empty stays empty.
        let mut into = Log2Histogram::new();
        into.merge(&empty);
        assert_eq!(into, Log2Histogram::new());
    }

    #[test]
    fn histogram_single_bucket_quantiles() {
        // All mass in one bucket: every quantile resolves to that
        // bucket's exclusive upper edge, including clamped-out-of-range
        // q values.
        let mut h = Log2Histogram::new();
        for _ in 0..10 {
            h.record(5); // bucket [4,8)
        }
        for q in [0.0, 0.01, 0.5, 0.99, 1.0, -1.0, 2.0] {
            assert_eq!(h.quantile_upper_bound(q), Some(7), "q={q}");
        }
        assert_eq!(h.max_bucket(), Some(3));
    }

    #[test]
    fn histogram_saturating_counts_stay_finite() {
        // Two histograms whose bucket counts and sums sit at the
        // numeric limits: merge must saturate (not wrap), and the
        // quantile walk must still terminate even though the running
        // cumulative total would overflow u64.
        let mut buckets = [0u64; 65];
        buckets[2] = u64::MAX;
        buckets[10] = u64::MAX;
        let mut a = Log2Histogram::from_parts(buckets, u128::MAX);
        assert_eq!(a.count(), u64::MAX, "count saturates at construction");
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.buckets()[2], u64::MAX);
        assert_eq!(a.buckets()[10], u64::MAX);
        assert_eq!(a.count(), u64::MAX);
        assert_eq!(a.sum(), u128::MAX);
        assert_eq!(a.quantile_upper_bound(0.25), Some(3));
        assert_eq!(a.quantile_upper_bound(1.0), Some(3));
        // Recording on a saturated histogram keeps saturating.
        a.record(u64::MAX);
        assert_eq!(a.count(), u64::MAX);
        assert_eq!(a.sum(), u128::MAX);
    }

    #[test]
    fn recorder_counts_and_snapshots() {
        let mut rec = MetricsRecorder::new(2);
        rec.emit(&step(1, 2, 1));
        rec.emit(&Event::Promote {
            step: 1,
            block: 1,
            node: 0,
            rule: Rule::WriteHitShared,
        });
        rec.emit(&step(2, 1, 0));
        rec.emit(&step(3, 0, 0));
        let reg = rec.finish();
        assert_eq!(reg.counter(names::RECORDS), 3);
        assert_eq!(reg.counter(names::CONTROL), 3);
        assert_eq!(reg.counter(names::DATA), 1);
        assert_eq!(reg.counter(names::PROMOTES), 1);
        assert_eq!(reg.counter("promote.write-hit-shared"), 1);
        assert_eq!(reg.gauge(names::NET_MIGRATORY), 1);
        // One snapshot at the 2-record boundary, one final at 3.
        assert_eq!(reg.intervals().len(), 2);
        assert_eq!(reg.intervals()[0].records, 2);
        assert_eq!(reg.intervals()[1].records, 3);
        // The interval table shows deltas.
        let table = reg.intervals_table(&[names::CONTROL]);
        let csv = table.to_csv();
        assert!(csv.contains("2,3"), "csv was: {csv}");
        assert!(csv.contains("3,0"), "csv was: {csv}");
    }

    #[test]
    fn json_round_trip_preserves_everything_observable() {
        let mut rec = MetricsRecorder::new(2);
        for i in 1..=5 {
            rec.emit(&step(i, i, 1));
        }
        rec.emit(&Event::Backoff {
            step: 5,
            block: 1,
            node: 0,
            units: 12,
        });
        rec.emit(&Event::Demote {
            step: 5,
            block: 1,
            node: 0,
            rule: Rule::ReadMiss,
        });
        let reg = rec.finish();
        let text = reg.to_json();
        let back = Registry::from_json(&text).unwrap();
        assert_eq!(back.counters(), reg.counters());
        assert_eq!(back.gauges(), reg.gauges());
        assert_eq!(back.intervals(), reg.intervals());
        for (name, h) in reg.histograms() {
            assert_eq!(back.histogram(name).unwrap().buckets(), h.buckets());
        }
        // And the re-serialized form is byte-identical.
        assert_eq!(back.to_json(), text);
    }

    /// One stream holding every event variant, a zero-charge step and a
    /// zero-unit backoff (so the first interval holds zero-valued
    /// counters) and shard/checkpoint framing, cut every 3 records.
    fn every_variant() -> Vec<Event> {
        let at = |step, kind, control, data| Event::Step {
            step,
            block: step % 3,
            node: (step % 2) as u16,
            kind,
            control,
            data,
        };
        let (block, node) = (2, 1);
        vec![
            Event::ShardStarted {
                shard: 0,
                records: 7,
            },
            at(1, StepKind::ReadHit, 0, 0),
            Event::Backoff {
                step: 2,
                block,
                node,
                units: 0,
            },
            at(2, StepKind::WriteMiss, 2, 0),
            Event::Promote {
                step: 2,
                block,
                node,
                rule: Rule::WriteHitShared,
            },
            Event::Invalidation {
                step: 2,
                block,
                node: 0,
            },
            at(3, StepKind::ReadMissMigrate, 1, 0),
            Event::Nack {
                step: 4,
                block,
                node,
                attempt: 1,
            },
            Event::Retry {
                step: 4,
                block,
                node,
                attempt: 1,
            },
            Event::Backoff {
                step: 4,
                block,
                node,
                units: 6,
            },
            at(4, StepKind::WriteMiss, 3, 2),
            Event::CheckpointSaved {
                step: 4,
                records: 4,
            },
            Event::Demote {
                step: 5,
                block,
                node,
                rule: Rule::ReadMiss,
            },
            at(5, StepKind::ReadMissReplicate, 2, 1),
            Event::Promote {
                step: 6,
                block,
                node,
                rule: Rule::WriteMiss,
            },
            at(6, StepKind::BusWriteHitInvalidate, 1, 0),
            Event::CheckpointLoaded {
                step: 6,
                records: 6,
            },
            at(7, StepKind::SharedUpgrade, 1, 0),
            Event::ShardFinished {
                shard: 0,
                records: 7,
            },
        ]
    }

    #[test]
    fn recorder_json_is_pinned() {
        // The recorder's bytes for this stream, as `names` and the
        // `step.`/`promote.`/`demote.` spellings make them: a metric
        // appears once an event of its type occurred, zero-valued or
        // not.
        const PINNED: &str = concat!(
            r#"{"counters":{"checkpoint.loads":1,"checkpoint.saves":1,"#,
            r#""classification.demotes":1,"classification.promotes":2,"demote.read-miss":1,"#,
            r#""faults.backoff_units":6,"faults.nacks":1,"faults.retries":1,"#,
            r#""invalidations":1,"messages.control":10,"messages.data":3,"#,
            r#""promote.write-hit-shared":1,"promote.write-miss":1,"records":7,"#,
            r#""shards.finished":1,"shards.started":1,"step.bus-write-hit-invalidate":1,"#,
            r#""step.read-hit":1,"step.read-miss-migrate":1,"step.read-miss-replicate":1,"#,
            r#""step.shared-upgrade":1,"step.write-miss":2},"#,
            r#""gauges":{"classification.net_migratory":1},"histograms":{"backoff_units":[1,"#,
            r#"0,0,1],"messages_per_ref":[1,3,2,1]},"intervals":[{"records":3,"#,
            r#""counters":{"classification.promotes":1,"faults.backoff_units":0,"#,
            r#""invalidations":1,"messages.control":3,"messages.data":0,"#,
            r#""promote.write-hit-shared":1,"records":3,"shards.started":1,"step.read-hit":1,"#,
            r#""step.read-miss-migrate":1,"step.write-miss":1}},{"records":6,"#,
            r#""counters":{"checkpoint.saves":1,"classification.demotes":1,"#,
            r#""classification.promotes":2,"demote.read-miss":1,"faults.backoff_units":6,"#,
            r#""faults.nacks":1,"faults.retries":1,"invalidations":1,"messages.control":9,"#,
            r#""messages.data":3,"promote.write-hit-shared":1,"promote.write-miss":1,"#,
            r#""records":6,"shards.started":1,"step.bus-write-hit-invalidate":1,"#,
            r#""step.read-hit":1,"step.read-miss-migrate":1,"step.read-miss-replicate":1,"#,
            r#""step.write-miss":2}},{"records":7,"counters":{"checkpoint.loads":1,"#,
            r#""checkpoint.saves":1,"classification.demotes":1,"classification.promotes":2,"#,
            r#""demote.read-miss":1,"faults.backoff_units":6,"faults.nacks":1,"#,
            r#""faults.retries":1,"invalidations":1,"messages.control":10,"messages.data":3,"#,
            r#""promote.write-hit-shared":1,"promote.write-miss":1,"records":7,"#,
            r#""shards.finished":1,"shards.started":1,"step.bus-write-hit-invalidate":1,"#,
            r#""step.read-hit":1,"step.read-miss-migrate":1,"step.read-miss-replicate":1,"#,
            r#""step.shared-upgrade":1,"step.write-miss":2}}]}"#,
        );
        let json = MetricsRecorder::replay(&every_variant(), 3).to_json();
        assert_eq!(json, PINNED);
    }

    #[test]
    fn tally_indexes_kinds_and_rules_in_declaration_order() {
        for (i, kind) in StepKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{}", kind.label());
        }
        for (i, rule) in Rule::ALL.into_iter().enumerate() {
            assert_eq!(rule as usize, i, "{}", rule.label());
        }
    }

    #[test]
    fn from_json_rejects_garbage() {
        for bad in [
            "",
            "[1]",
            "{\"counters\":[1]}",
            "{\"counters\":{\"a\":-1}}",
            "{\"histograms\":{\"h\":[1,\"x\"]}}",
            "{\"intervals\":[{\"counters\":{}}]}",
        ] {
            assert!(Registry::from_json(bad).is_err(), "should reject {bad:?}");
        }
    }
}
