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
//! * [`TelemetrySink`] — an [`EventSink`] that counts the protocol
//!   event stream into the [`EventTally`] the offline
//!   [`MetricsRecorder`](crate::MetricsRecorder) drains and publishes
//!   it every [`DEFAULT_PUBLISH_EVERY`] records, so the per-event cost
//!   stays a handful of register adds (the bench bin gates this at
//!   ≤3% over `NullSink` on the FastEngine loop) and the plane carries
//!   every metric the recorder writes, under the same names.
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
use crate::metrics::{EventTally, MetricValue, Registry};
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

/// The named handle in `map`, created by `Default` on first use; the
/// write lock is taken only then.
fn handle<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(h) = read_map(map).get(name) {
        return h.clone();
    }
    write_map(map).entry(name.to_string()).or_default().clone()
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
        handle(&self.counters, name)
    }

    /// Handle to the named gauge, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Arc<AtomicI64> {
        handle(&self.gauges, name)
    }

    /// Handle to the named histogram, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<AtomicHistogram> {
        handle(&self.histograms, name)
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

/// How many records a [`TelemetrySink`] tallies locally before
/// publishing to the shared atomics.
pub const DEFAULT_PUBLISH_EVERY: u64 = 4096;

/// An [`EventSink`] that feeds a [`Telemetry`] plane from the protocol
/// event stream.
///
/// It counts each event into a local [`EventTally`] — the fold
/// [`MetricsRecorder`](crate::MetricsRecorder) drains into its
/// registry — and publishes the tally to plane handles resolved once,
/// by name, from the tally's own walk, so the plane carries every
/// metric the recorder writes under the same name. It publishes every
/// [`DEFAULT_PUBLISH_EVERY`] records, at each checkpoint and shard
/// framing event, and on flush and drop, so a mid-run scrape may lag
/// by at most one batch.
pub struct TelemetrySink {
    tally: EventTally,
    /// One handle per metric, in [`EventTally::visit`] order.
    handles: Vec<Handle>,
}

/// A plane handle for one tally metric.
enum Handle {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<AtomicHistogram>),
}

impl TelemetrySink {
    /// A sink publishing into `telemetry`.
    pub fn new(telemetry: &Telemetry) -> TelemetrySink {
        let mut handles = Vec::new();
        EventTally::default().visit(|name, value, _| {
            handles.push(match value {
                MetricValue::Counter(_) => Handle::Counter(telemetry.counter(name)),
                MetricValue::Gauge(_) => Handle::Gauge(telemetry.gauge(name)),
                MetricValue::Histogram(_) => Handle::Histogram(telemetry.histogram(name)),
            })
        });
        TelemetrySink {
            tally: EventTally::default(),
            handles,
        }
    }

    /// Publishes the local tally to the shared atomics.
    // Kept out of line: inlined into `emit`, it gave every event a
    // 1.3 KB stack frame to set up for the rare publish.
    #[inline(never)]
    pub fn publish(&mut self) {
        let mut handles = self.handles.iter();
        std::mem::take(&mut self.tally).visit(|_, value, seen| match (handles.next(), value) {
            _ if !seen => {}
            (Some(Handle::Counter(c)), MetricValue::Counter(v)) => {
                c.fetch_add(v, Ordering::Relaxed);
            }
            (Some(Handle::Gauge(g)), MetricValue::Gauge(v)) => {
                g.fetch_add(v, Ordering::Relaxed);
            }
            (Some(Handle::Histogram(h)), MetricValue::Histogram(v)) => h.add_buckets(v),
            _ => {}
        });
    }
}

impl EventSink for TelemetrySink {
    fn emit(&mut self, event: &Event) {
        self.tally.add(event);
        // Checkpoint and shard framing, the events that name no block,
        // publish at once.
        if self.tally.records() >= DEFAULT_PUBLISH_EVERY || event.block().is_none() {
            self.publish();
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
    use crate::event::{Rule, StepKind};
    use crate::metrics::MetricsRecorder;

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
        let mut sink = TelemetrySink::new(&t);
        let mut rec = MetricsRecorder::new(1 << 30);
        // Past one publish batch, every event type on both sides of it.
        let (block, node) = (1, 0);
        let mut events = vec![Event::ShardStarted {
            shard: 0,
            records: 5_000,
        }];
        for i in 0..5_000u64 {
            let step = i + 1;
            events.push(Event::Step {
                step,
                block,
                node,
                kind: StepKind::ALL[i as usize % StepKind::ALL.len()],
                control: i % 5,
                data: i % 2,
            });
            let rule = Rule::ALL[i as usize % Rule::ALL.len()];
            let attempt = 1;
            events.push(match i % 8 {
                0 => Event::Promote {
                    step,
                    block,
                    node,
                    rule,
                },
                1 => Event::Demote {
                    step,
                    block,
                    node,
                    rule,
                },
                2 => Event::Invalidation { step, block, node },
                3 => Event::Nack {
                    step,
                    block,
                    node,
                    attempt,
                },
                4 => Event::Retry {
                    step,
                    block,
                    node,
                    attempt,
                },
                5 => Event::Backoff {
                    step,
                    block,
                    node,
                    units: i % 9,
                },
                6 => Event::CheckpointSaved { step, records: i },
                _ => Event::CheckpointLoaded { step, records: i },
            });
        }
        events.push(Event::ShardFinished {
            shard: 0,
            records: 5_000,
        });
        for ev in &events {
            sink.emit(ev);
            rec.emit(ev);
        }
        EventSink::flush(&mut sink).unwrap();
        let live = t.snapshot();
        let offline = rec.finish();
        let breakdowns = ["step.", "promote.", "demote."];
        for prefix in breakdowns {
            assert!(offline.counters().keys().any(|n| n.starts_with(prefix)));
        }
        for (name, value) in offline.counters() {
            assert_eq!(live.counters().get(name), Some(value), "counter {name}");
        }
        for (name, value) in offline.gauges() {
            assert_eq!(live.gauges().get(name), Some(value), "gauge {name}");
        }
        for (name, h) in offline.histograms() {
            assert_eq!(live.histogram(name), Some(h), "histogram {name}");
        }
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
