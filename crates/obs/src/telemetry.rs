//! The live telemetry plane: a concurrent metrics registry with an
//! embedded scrape endpoint and a periodic snapshot writer.
//!
//! [`Registry`] is a plain single-writer data structure; this module
//! is its concurrent counterpart for programs that are *running* —
//! the live service, the sweep supervisor, long soaks. A [`Telemetry`]
//! hands out `Arc` handles to named atomic counters, gauges, and
//! [`AtomicHistogram`]s; hot paths keep the handles and record with
//! relaxed atomics (no lock, no string lookup), while any number of
//! observers cut consistent-enough snapshots:
//!
//! * [`Telemetry::snapshot`] — a point-in-time [`Registry`];
//! * [`Telemetry::prometheus`] — Prometheus text exposition
//!   (version 0.0.4), histograms as cumulative `_bucket{le="..."}`
//!   series on the power-of-two edges;
//! * [`Telemetry::snapshot_line`] — one timestamped JSON line
//!   embedding the registry, the unit of `*.telemetry.jsonl` files;
//! * [`TelemetryServer`] — a hand-rolled HTTP/1.0 endpoint
//!   (`std::net::TcpListener`, zero deps) serving `/metrics`, `/json`,
//!   and `/healthz`;
//! * [`SnapshotWriter`] — a background thread appending snapshot
//!   lines to a file on a fixed cadence, with a final line at stop;
//! * [`TelemetrySink`] — an [`EventSink`] that folds the protocol
//!   event stream into telemetry counters, accumulating locally and
//!   publishing every `publish_every` records so the per-event cost
//!   stays a handful of register adds (the bench bin gates this at
//!   ≤3% over `NullSink` on the FastEngine loop).
//!
//! Everything here reads the wall clock; none of it is reachable from
//! the deterministic simulation path.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::event::Event;
use crate::json::Json;
use crate::metrics::{names, Log2Histogram, Registry};
use crate::sink::EventSink;
use crate::span::{AtomicHistogram, Stage};

fn read_map<K: Ord, V>(
    lock: &RwLock<BTreeMap<K, V>>,
) -> std::sync::RwLockReadGuard<'_, BTreeMap<K, V>> {
    match lock.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn write_map<K: Ord, V>(
    lock: &RwLock<BTreeMap<K, V>>,
) -> std::sync::RwLockWriteGuard<'_, BTreeMap<K, V>> {
    match lock.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A concurrent registry of named atomic metrics.
///
/// Registration (`counter`/`gauge`/`histogram`) takes a write lock
/// once per name; recording through the returned handles is lock-free.
pub struct Telemetry {
    started: Instant,
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: RwLock<BTreeMap<String, Arc<AtomicHistogram>>>,
    /// Snapshot sequence, shared by every observer so lines from the
    /// writer and the HTTP endpoint are totally ordered.
    snapshot_seq: AtomicU64,
    /// Last snapshot timestamp handed out, to keep `ts_ms` monotone
    /// even if the wall clock steps backwards mid-run.
    last_ts_ms: AtomicU64,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// An empty telemetry plane; uptime counts from here.
    pub fn new() -> Telemetry {
        Telemetry {
            started: Instant::now(),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
            snapshot_seq: AtomicU64::new(0),
            last_ts_ms: AtomicU64::new(0),
        }
    }

    /// Handle to the named counter, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        if let Some(c) = read_map(&self.counters).get(name) {
            return c.clone();
        }
        write_map(&self.counters)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Handle to the named gauge, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Arc<AtomicI64> {
        if let Some(g) = read_map(&self.gauges).get(name) {
            return g.clone();
        }
        write_map(&self.gauges)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Handle to the named histogram, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<AtomicHistogram> {
        if let Some(h) = read_map(&self.histograms).get(name) {
            return h.clone();
        }
        write_map(&self.histograms)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Handle to a pipeline stage's latency histogram (microseconds).
    pub fn stage(&self, stage: Stage) -> Arc<AtomicHistogram> {
        self.histogram(&stage.metric_name())
    }

    /// Milliseconds since the plane was created.
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Cuts a point-in-time [`Registry`] from the live atomics.
    ///
    /// Counters recorded *while* the cut is in progress may or may not
    /// be included, but every value is a real value some metric held;
    /// nothing tears below the level of one metric.
    pub fn snapshot(&self) -> Registry {
        let mut reg = Registry::new();
        for (name, c) in read_map(&self.counters).iter() {
            reg.counter_add(name, c.load(Ordering::Relaxed));
        }
        for (name, g) in read_map(&self.gauges).iter() {
            reg.gauge_set(name, g.load(Ordering::Relaxed));
        }
        for (name, h) in read_map(&self.histograms).iter() {
            reg.histogram_merge(name, &h.snapshot());
        }
        reg
    }

    /// One `*.telemetry.jsonl` line: a timestamped envelope around
    /// [`Telemetry::snapshot`]. `seq` is strictly increasing across
    /// all observers of this plane; `ts_ms` is monotone non-decreasing
    /// wall time (Unix epoch milliseconds). No trailing newline.
    pub fn snapshot_line(&self) -> String {
        let seq = self.snapshot_seq.fetch_add(1, Ordering::Relaxed);
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let ts = self.last_ts_ms.fetch_max(now, Ordering::Relaxed).max(now);
        Json::Obj(vec![
            ("ts_ms".to_string(), Json::u64(ts)),
            ("seq".to_string(), Json::u64(seq)),
            ("uptime_ms".to_string(), Json::u64(self.uptime_ms())),
            ("registry".to_string(), self.snapshot().to_json_value()),
        ])
        .to_string()
    }

    /// Prometheus text exposition (format version 0.0.4) of the
    /// current snapshot. Metric names are sanitized (`.` → `_`) and
    /// prefixed `mcc_`; histograms become cumulative `_bucket` series
    /// on the power-of-two upper edges plus `_sum`/`_count`.
    pub fn prometheus(&self) -> String {
        let reg = self.snapshot();
        let mut out = String::new();
        for (name, value) in reg.counters() {
            let n = prometheus_name(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {value}\n"));
        }
        for (name, value) in reg.gauges() {
            let n = prometheus_name(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {value}\n"));
        }
        {
            let n = prometheus_name("telemetry.uptime_ms");
            out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", self.uptime_ms()));
        }
        for (name, h) in reg.histograms() {
            let n = prometheus_name(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let hi = h.max_bucket().map_or(0, |i| i + 1);
            let mut cumulative = 0u64;
            for (i, &c) in h.buckets()[..hi].iter().enumerate() {
                cumulative = cumulative.saturating_add(c);
                let le = if i == 0 {
                    "0".to_string()
                } else {
                    ((1u128 << i) - 1).to_string()
                };
                out.push_str(&format!("{n}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!(
                "{n}_bucket{{le=\"+Inf\"}} {count}\n{n}_sum {sum}\n{n}_count {count}\n",
                count = h.count(),
                sum = h.sum(),
            ));
        }
        out
    }
}

/// `mcc_` + the metric name with every non-alphanumeric byte replaced
/// by `_`.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("mcc_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// The embedded scrape endpoint: a background accept loop over a
/// non-blocking [`TcpListener`], speaking just enough HTTP/1.0 for
/// `curl` and Prometheus.
///
/// Routes: `/metrics` (text exposition), `/json` (one snapshot line),
/// `/healthz`. Every response closes the connection. Dropping the
/// server stops the thread.
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9900"`; port 0 picks a free
    /// port — read it back from [`TelemetryServer::addr`]) and serves
    /// `telemetry` until dropped or [`TelemetryServer::shutdown`].
    pub fn serve(telemetry: Arc<Telemetry>, addr: &str) -> io::Result<TelemetryServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = thread::Builder::new()
            .name("mcc-telemetry-http".to_string())
            .spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            // A slow or broken scraper must never take
                            // the plane down; errors are per-connection.
                            let _ = serve_connection(stream, &telemetry);
                        }
                        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                            thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => thread::sleep(Duration::from_millis(10)),
                    }
                }
            })?;
        Ok(TelemetryServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve_connection(mut stream: TcpStream, telemetry: &Telemetry) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut req = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                req.extend_from_slice(&buf[..n]);
                if req.windows(4).any(|w| w == b"\r\n\r\n")
                    || req.windows(2).any(|w| w == b"\n\n")
                    || req.len() >= 8192
                {
                    break;
                }
            }
            Err(e) => return Err(e),
        }
    }
    let head = String::from_utf8_lossy(&req);
    let path = head
        .split_whitespace()
        .nth(1)
        .unwrap_or("/")
        .split('?')
        .next()
        .unwrap_or("/")
        .to_string();
    let (status, content_type, body) = match path.as_str() {
        "/" | "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            telemetry.prometheus(),
        ),
        "/json" | "/snapshot" => {
            let mut line = telemetry.snapshot_line();
            line.push('\n');
            ("200 OK", "application/json", line)
        }
        "/healthz" => ("200 OK", "text/plain", "ok\n".to_string()),
        _ => ("404 Not Found", "text/plain", format!("no route {path}\n")),
    };
    write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A matching zero-dep HTTP/1.0 GET for polling a [`TelemetryServer`]
/// (`mcc-top` and the tests use this). `addr` is `host:port`, with an
/// optional `http://` prefix; returns the response body.
pub fn http_get(addr: &str, path: &str) -> io::Result<String> {
    let addr = addr.trim_start_matches("http://").trim_end_matches('/');
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n")?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed HTTP response (no header/body split)",
        ));
    };
    let status = head.split_whitespace().nth(1).unwrap_or("");
    if status != "200" {
        return Err(io::Error::other(format!("HTTP status {status} for {path}")));
    }
    Ok(body.to_string())
}

/// A background thread appending [`Telemetry::snapshot_line`]s to a
/// file every `every`, plus one final line when stopped — so the file
/// always ends with the run's last observable state.
pub struct SnapshotWriter {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<io::Result<u64>>>,
}

impl SnapshotWriter {
    /// Creates (truncating) `path` and starts the writer.
    pub fn start(
        telemetry: Arc<Telemetry>,
        path: &Path,
        every: Duration,
    ) -> io::Result<SnapshotWriter> {
        let mut file = File::create(path)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let every = every.max(Duration::from_millis(10));
        let handle = thread::Builder::new()
            .name("mcc-telemetry-snap".to_string())
            .spawn(move || -> io::Result<u64> {
                let mut lines = 0u64;
                loop {
                    let stopping = stop_flag.load(Ordering::Relaxed);
                    let mut line = telemetry.snapshot_line();
                    line.push('\n');
                    file.write_all(line.as_bytes())?;
                    file.flush()?;
                    lines += 1;
                    if stopping {
                        return Ok(lines);
                    }
                    let mut slept = Duration::ZERO;
                    while slept < every && !stop_flag.load(Ordering::Relaxed) {
                        let nap = (every - slept).min(Duration::from_millis(20));
                        thread::sleep(nap);
                        slept += nap;
                    }
                }
            })?;
        Ok(SnapshotWriter {
            stop,
            handle: Some(handle),
        })
    }

    /// Stops the writer (after its final line) and returns the number
    /// of lines written.
    pub fn finish(mut self) -> io::Result<u64> {
        self.stop.store(true, Ordering::Relaxed);
        match self.handle.take() {
            Some(h) => h.join().unwrap_or(Ok(0)),
            None => Ok(0),
        }
    }
}

impl Drop for SnapshotWriter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// How many records a [`TelemetrySink`] accumulates locally before
/// publishing to the shared atomics.
pub const DEFAULT_PUBLISH_EVERY: u64 = 4096;

/// An [`EventSink`] that feeds a [`Telemetry`] plane from the protocol
/// event stream.
///
/// The counter names mirror the
/// [`MetricsRecorder`](crate::MetricsRecorder) aggregates ([`names`]),
/// so offline and live views agree; the per-kind/per-rule breakdown
/// counters are deliberately omitted — they would cost a string
/// format per event on the hot path. Everything is accumulated in
/// plain locals and published every [`DEFAULT_PUBLISH_EVERY`] records
/// (and on flush/drop/shard boundaries), so a mid-run scrape may lag
/// by at most one batch.
pub struct TelemetrySink {
    publish_every: u64,
    pending_rare: u64,
    local: LocalAgg,
    records: Arc<AtomicU64>,
    control: Arc<AtomicU64>,
    data: Arc<AtomicU64>,
    promotes: Arc<AtomicU64>,
    demotes: Arc<AtomicU64>,
    invalidations: Arc<AtomicU64>,
    nacks: Arc<AtomicU64>,
    retries: Arc<AtomicU64>,
    backoff_units: Arc<AtomicU64>,
    checkpoint_saves: Arc<AtomicU64>,
    checkpoint_loads: Arc<AtomicU64>,
    shards_started: Arc<AtomicU64>,
    shards_finished: Arc<AtomicU64>,
    net_migratory: Arc<AtomicI64>,
    messages_per_ref: Arc<AtomicHistogram>,
    backoff_hist: Arc<AtomicHistogram>,
}

struct LocalAgg {
    records: u64,
    control: u64,
    data: u64,
    promotes: u64,
    demotes: u64,
    invalidations: u64,
    nacks: u64,
    retries: u64,
    backoff_units: u64,
    checkpoint_saves: u64,
    checkpoint_loads: u64,
    shards_started: u64,
    shards_finished: u64,
    net_migratory: i64,
    // Raw bucket tallies, not full `Log2Histogram`s: the hot path only
    // pays one shift-class increment per event, and `publish` rebuilds
    // the histograms from these plus sums the sink already tracks
    // (Σ msgs = control + data, Σ backoff = backoff_units).
    msg_buckets: [u64; 65],
    backoff_buckets: [u64; 65],
}

impl Default for LocalAgg {
    fn default() -> LocalAgg {
        LocalAgg {
            records: 0,
            control: 0,
            data: 0,
            promotes: 0,
            demotes: 0,
            invalidations: 0,
            nacks: 0,
            retries: 0,
            backoff_units: 0,
            checkpoint_saves: 0,
            checkpoint_loads: 0,
            shards_started: 0,
            shards_finished: 0,
            net_migratory: 0,
            msg_buckets: [0; 65],
            backoff_buckets: [0; 65],
        }
    }
}

impl TelemetrySink {
    /// A sink publishing into `telemetry` every `publish_every`
    /// records (minimum 1).
    pub fn new(telemetry: &Telemetry, publish_every: u64) -> TelemetrySink {
        TelemetrySink {
            publish_every: publish_every.max(1),
            pending_rare: 0,
            local: LocalAgg::default(),
            records: telemetry.counter(names::RECORDS),
            control: telemetry.counter(names::CONTROL),
            data: telemetry.counter(names::DATA),
            promotes: telemetry.counter(names::PROMOTES),
            demotes: telemetry.counter(names::DEMOTES),
            invalidations: telemetry.counter(names::INVALIDATIONS),
            nacks: telemetry.counter(names::NACKS),
            retries: telemetry.counter(names::RETRIES),
            backoff_units: telemetry.counter(names::BACKOFF_UNITS),
            checkpoint_saves: telemetry.counter(names::CHECKPOINT_SAVES),
            checkpoint_loads: telemetry.counter(names::CHECKPOINT_LOADS),
            shards_started: telemetry.counter(names::SHARDS_STARTED),
            shards_finished: telemetry.counter(names::SHARDS_FINISHED),
            net_migratory: telemetry.gauge(names::NET_MIGRATORY),
            messages_per_ref: telemetry.histogram(names::MESSAGES_PER_REF),
            backoff_hist: telemetry.histogram(names::BACKOFF_HIST),
        }
    }

    /// Publishes all locally accumulated deltas to the shared atomics.
    pub fn publish(&mut self) {
        if self.pending_rare == 0 && self.local.records == 0 {
            return;
        }
        self.pending_rare = 0;
        let l = std::mem::take(&mut self.local);
        let pairs: [(&Arc<AtomicU64>, u64); 13] = [
            (&self.records, l.records),
            (&self.control, l.control),
            (&self.data, l.data),
            (&self.promotes, l.promotes),
            (&self.demotes, l.demotes),
            (&self.invalidations, l.invalidations),
            (&self.nacks, l.nacks),
            (&self.retries, l.retries),
            (&self.backoff_units, l.backoff_units),
            (&self.checkpoint_saves, l.checkpoint_saves),
            (&self.checkpoint_loads, l.checkpoint_loads),
            (&self.shards_started, l.shards_started),
            (&self.shards_finished, l.shards_finished),
        ];
        for (counter, delta) in pairs {
            if delta > 0 {
                counter.fetch_add(delta, Ordering::Relaxed);
            }
        }
        if l.net_migratory != 0 {
            self.net_migratory
                .fetch_add(l.net_migratory, Ordering::Relaxed);
        }
        // Rebuild the histograms from the raw tallies. The sums are
        // exact: every Step records `control + data` into `msgs`, and
        // every Backoff records `units` into `backoff`.
        let msgs =
            Log2Histogram::from_parts(l.msg_buckets, u128::from(l.control) + u128::from(l.data));
        let backoff = Log2Histogram::from_parts(l.backoff_buckets, u128::from(l.backoff_units));
        publish_histogram(&self.messages_per_ref, &msgs);
        publish_histogram(&self.backoff_hist, &backoff);
    }
}

/// Adds a local histogram's buckets into a shared atomic histogram.
fn publish_histogram(shared: &AtomicHistogram, local: &Log2Histogram) {
    if local.count() == 0 {
        return;
    }
    shared.add_buckets(local);
}

impl EventSink for TelemetrySink {
    fn emit(&mut self, event: &Event) {
        let l = &mut self.local;
        // Step dominates the stream (one per simulated reference), so
        // its arm is kept to four plain adds and one bucket increment;
        // everything else, including the dirty-tracking for rare
        // events, lives past the early return.
        if let Event::Step { control, data, .. } = *event {
            l.records += 1;
            l.control += control;
            l.data += data;
            l.msg_buckets[Log2Histogram::bucket_of(control + data)] += 1;
            if l.records >= self.publish_every {
                self.publish();
            }
            return;
        }
        self.pending_rare += 1;
        match *event {
            Event::Step { .. } => {} // handled above
            Event::Promote { .. } => {
                l.promotes += 1;
                l.net_migratory += 1;
            }
            Event::Demote { .. } => {
                l.demotes += 1;
                l.net_migratory -= 1;
            }
            Event::Invalidation { .. } => l.invalidations += 1,
            Event::Nack { .. } => l.nacks += 1,
            Event::Retry { .. } => l.retries += 1,
            Event::Backoff { units, .. } => {
                l.backoff_units += units;
                l.backoff_buckets[Log2Histogram::bucket_of(units)] += 1;
            }
            Event::CheckpointSaved { .. } => {
                l.checkpoint_saves += 1;
                self.publish();
            }
            Event::CheckpointLoaded { .. } => {
                l.checkpoint_loads += 1;
                self.publish();
            }
            Event::ShardStarted { .. } => {
                l.shards_started += 1;
                self.publish();
            }
            Event::ShardFinished { .. } => {
                l.shards_finished += 1;
                self.publish();
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.publish();
        Ok(())
    }
}

impl Drop for TelemetrySink {
    fn drop(&mut self) {
        self.publish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StepKind;
    use crate::metrics::MetricsRecorder;

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
    fn handles_are_shared_by_name() {
        let t = Telemetry::new();
        let a = t.counter("x");
        let b = t.counter("x");
        a.fetch_add(3, Ordering::Relaxed);
        assert_eq!(b.load(Ordering::Relaxed), 3);
        t.gauge("g").store(-5, Ordering::Relaxed);
        t.histogram("h").record(9);
        let reg = t.snapshot();
        assert_eq!(reg.counter("x"), 3);
        assert_eq!(reg.gauge("g"), -5);
        assert_eq!(reg.histogram("h").unwrap().count(), 1);
    }

    #[test]
    fn snapshot_line_is_monotone_and_parses() {
        let t = Telemetry::new();
        t.counter("c").fetch_add(1, Ordering::Relaxed);
        let a = Json::parse(&t.snapshot_line()).unwrap();
        let b = Json::parse(&t.snapshot_line()).unwrap();
        let seq = |v: &Json| v.get("seq").and_then(Json::as_u64).unwrap();
        let ts = |v: &Json| v.get("ts_ms").and_then(Json::as_u64).unwrap();
        assert!(seq(&b) > seq(&a));
        assert!(ts(&b) >= ts(&a));
        let reg = Registry::from_json_value(a.get("registry").unwrap()).unwrap();
        assert_eq!(reg.counter("c"), 1);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let t = Telemetry::new();
        t.counter("live.ops_acked").fetch_add(7, Ordering::Relaxed);
        t.gauge("shard.0.queue_depth").store(2, Ordering::Relaxed);
        let h = t.stage(Stage::EngineStep);
        h.record(0);
        h.record(1);
        h.record(5);
        let text = t.prometheus();
        assert!(text.contains("# TYPE mcc_live_ops_acked counter\nmcc_live_ops_acked 7\n"));
        assert!(text.contains("mcc_shard_0_queue_depth 2\n"));
        assert!(text.contains("mcc_stage_engine_step_us_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("mcc_stage_engine_step_us_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("mcc_stage_engine_step_us_bucket{le=\"7\"} 3\n"));
        assert!(text.contains("mcc_stage_engine_step_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("mcc_stage_engine_step_us_count 3\n"));
        assert!(text.contains("mcc_stage_engine_step_us_sum 6\n"));
        assert!(text.contains("mcc_telemetry_uptime_ms "));
    }

    #[test]
    fn sink_matches_metrics_recorder_aggregates() {
        let t = Telemetry::new();
        let mut sink = TelemetrySink::new(&t, 3); // force mid-stream publishes
        let mut rec = MetricsRecorder::new(1 << 30);
        let events = vec![
            Event::ShardStarted {
                shard: 0,
                records: 5,
            },
            step(1, 2, 1),
            Event::Promote {
                step: 1,
                block: 1,
                node: 0,
                rule: crate::event::Rule::WriteHitShared,
            },
            step(2, 0, 0),
            Event::Nack {
                step: 3,
                block: 1,
                node: 0,
                attempt: 1,
            },
            Event::Retry {
                step: 3,
                block: 1,
                node: 0,
                attempt: 1,
            },
            Event::Backoff {
                step: 3,
                block: 1,
                node: 0,
                units: 4,
            },
            step(3, 1, 1),
            Event::Demote {
                step: 3,
                block: 1,
                node: 0,
                rule: crate::event::Rule::ReadMiss,
            },
            step(4, 3, 0),
            Event::ShardFinished {
                shard: 0,
                records: 5,
            },
        ];
        for ev in &events {
            sink.emit(ev);
            rec.emit(ev);
        }
        EventSink::flush(&mut sink).unwrap();
        let live = t.snapshot();
        let offline = rec.finish();
        for name in [
            names::RECORDS,
            names::CONTROL,
            names::DATA,
            names::PROMOTES,
            names::DEMOTES,
            names::NACKS,
            names::RETRIES,
            names::BACKOFF_UNITS,
            names::SHARDS_STARTED,
            names::SHARDS_FINISHED,
        ] {
            assert_eq!(live.counter(name), offline.counter(name), "counter {name}");
        }
        assert_eq!(
            live.gauge(names::NET_MIGRATORY),
            offline.gauge(names::NET_MIGRATORY)
        );
        assert_eq!(
            live.histogram(names::MESSAGES_PER_REF).unwrap().buckets(),
            offline
                .histogram(names::MESSAGES_PER_REF)
                .unwrap()
                .buckets()
        );
        assert_eq!(
            live.histogram(names::BACKOFF_HIST).unwrap().buckets(),
            offline.histogram(names::BACKOFF_HIST).unwrap().buckets()
        );
    }

    #[test]
    fn server_serves_metrics_json_health_and_404() {
        let t = Arc::new(Telemetry::new());
        t.counter("live.ops_acked").fetch_add(11, Ordering::Relaxed);
        let server = TelemetryServer::serve(t.clone(), "127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();
        let metrics = http_get(&addr, "/metrics").unwrap();
        assert!(metrics.contains("mcc_live_ops_acked 11"));
        let json = http_get(&addr, "/json").unwrap();
        let v = Json::parse(json.trim()).unwrap();
        let reg = Registry::from_json_value(v.get("registry").unwrap()).unwrap();
        assert_eq!(reg.counter("live.ops_acked"), 11);
        assert_eq!(http_get(&addr, "/healthz").unwrap(), "ok\n");
        assert!(http_get(&addr, "/nope").is_err());
        server.shutdown();
    }

    #[test]
    fn snapshot_writer_appends_monotone_lines() {
        let dir = std::env::temp_dir().join(format!(
            "mcc-telemetry-test-{}-{}",
            std::process::id(),
            SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.telemetry.jsonl");
        let t = Arc::new(Telemetry::new());
        let writer = SnapshotWriter::start(t.clone(), &path, Duration::from_millis(20)).unwrap();
        t.counter("c").fetch_add(5, Ordering::Relaxed);
        thread::sleep(Duration::from_millis(60));
        let lines = writer.finish().unwrap();
        assert!(
            lines >= 2,
            "expected at least 2 snapshot lines, got {lines}"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let mut prev_seq = None;
        let mut count = 0u64;
        for line in text.lines() {
            let v = Json::parse(line).unwrap();
            let seq = v.get("seq").and_then(Json::as_u64).unwrap();
            if let Some(p) = prev_seq {
                assert!(seq > p);
            }
            prev_seq = Some(seq);
            count += 1;
        }
        assert_eq!(count, lines);
        // The final line carries the final counter value.
        let last = Json::parse(text.lines().last().unwrap()).unwrap();
        let reg = Registry::from_json_value(last.get("registry").unwrap()).unwrap();
        assert_eq!(reg.counter("c"), 5);
        std::fs::remove_dir_all(&dir).ok();
    }
}
