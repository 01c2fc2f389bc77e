//! Observability for the coherence simulators: structured protocol
//! event tracing, a metrics registry, and a flight recorder.
//!
//! The simulators' aggregate counters answer *how much* traffic a
//! protocol generated; this crate answers *when and why*. Engines emit
//! a stream of compact [`Event`] values — reference steps with their
//! message charges, migratory promotions/demotions tagged with the
//! paper's detection rule, invalidations, fault NACK/retry/backoff,
//! checkpoint saves/loads, and shard framing — through a pluggable
//! [`EventSink`]:
//!
//! * [`NullSink`] — the default "not attached" behavior; engines hold
//!   `Option<SharedSink>` and the `None` path is a single branch, so
//!   un-instrumented runs stay bit-exact with the pre-observability
//!   code.
//! * [`RingSink`] — a bounded ring of the most recent events.
//! * [`BufferSink`] — the full stream, for post-run export/merging.
//! * [`MetricsRecorder`] — aggregates into a [`Registry`] of named
//!   counters, gauges, and log2 histograms with per-N-records interval
//!   snapshots, through an [`EventTally`]: the one fold from events
//!   to counts.
//! * [`FlightRecorder`] — ring + per-block classification timelines,
//!   rendered into error context when a run dies.
//! * [`TelemetrySink`] — the same [`EventTally`], batched locally and
//!   published into a shared, lock-free [`Telemetry`] plane that a
//!   hand-rolled HTTP endpoint ([`TelemetryServer`]) exposes as
//!   Prometheus text and JSON snapshots while a run is still in
//!   flight, alongside a periodic [`SnapshotWriter`] JSONL stream.
//!
//! The [`span`] module adds causal spans on top of the event stream:
//! per-request [`SpanId`]s minted at ingress and carried through wire,
//! shard, and WAL, with per-[`Stage`] latencies accumulated into
//! lock-free [`AtomicHistogram`]s. Wall-clock reads live strictly at
//! stage boundaries in the service layer — never inside deterministic
//! replay or simulation paths.
//!
//! Events are observations derived from state the engines already
//! compute; no decision in any engine reads a sink, so observability
//! can never perturb simulation results.
//!
//! The crate is dependency-light by design (only `mcc-stats`, itself
//! dependency-free) and carries its own minimal [`json`] module, since
//! the workspace builds fully offline with no external crates.

pub mod event;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod sink;
pub mod span;
pub mod telemetry;

pub use event::{Event, Rule, StepKind};
pub use json::{Json, JsonError};
pub use metrics::{
    EventTally, IntervalSnapshot, Log2Histogram, MetricValue, MetricsRecorder, Registry,
    DEFAULT_INTERVAL,
};
pub use recorder::{FlightRecorder, TimelineEntry, DEFAULT_RING};
pub use sink::{lock_sink, shared, BufferSink, EventSink, NullSink, RingSink, SharedSink};
pub use span::{AtomicHistogram, SpanId, Stage};
pub use telemetry::{
    http_get, prometheus_name, SnapshotWriter, Telemetry, TelemetryServer, TelemetrySink,
    DEFAULT_PUBLISH_EVERY,
};
