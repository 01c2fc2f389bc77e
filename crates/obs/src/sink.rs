//! Pluggable event sinks.
//!
//! Engines hold an `Option<SharedSink>`; the default `None` means the
//! emission sites reduce to one branch and the simulation is exactly
//! the un-instrumented program — the bit-exactness guarantees in the
//! golden tests rely on this. When a sink *is* attached, every emitted
//! [`Event`] is forwarded under a mutex. Sinks are deliberately simple
//! single-writer objects; sharded runs give each shard its own sink and
//! merge afterwards rather than contending on one.

use crate::event::Event;
use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::sync::{Arc, Mutex, MutexGuard};

/// A consumer of protocol events.
///
/// `Send` is a supertrait so sinks can ride into shard threads.
pub trait EventSink: Send {
    /// Consumes one event.
    fn emit(&mut self, event: &Event);

    /// Flushes any buffered output. The default is a no-op.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Discards everything. Attaching it is equivalent to attaching no
/// sink at all; it exists so call sites that *require* a sink have an
/// explicit "off" value.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&mut self, _event: &Event) {}
}

/// Keeps the last `capacity` events in a bounded ring buffer.
#[derive(Clone, Debug)]
pub struct RingSink {
    capacity: usize,
    buf: VecDeque<Event>,
    /// Total events ever emitted, including those the ring has dropped.
    seen: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> RingSink {
        let capacity = capacity.max(1);
        RingSink {
            capacity,
            buf: VecDeque::with_capacity(capacity.min(4096)),
            seen: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// The retained events as a vector, oldest first.
    pub fn to_vec(&self) -> Vec<Event> {
        self.buf.iter().copied().collect()
    }

    /// Total events emitted into the ring over its lifetime.
    pub fn total_seen(&self) -> u64 {
        self.seen
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl EventSink for RingSink {
    fn emit(&mut self, event: &Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(*event);
        self.seen += 1;
    }
}

/// Retains *every* event in order. Unbounded — intended for bounded
/// runs where the full stream is post-processed (JSONL export, metrics
/// replay, shard-order merging).
#[derive(Clone, Debug, Default)]
pub struct BufferSink {
    events: Vec<Event>,
}

impl BufferSink {
    /// An empty buffer.
    pub fn new() -> BufferSink {
        BufferSink::default()
    }

    /// The captured events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Consumes the sink, yielding the captured events.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl EventSink for BufferSink {
    fn emit(&mut self, event: &Event) {
        self.events.push(*event);
    }
}

/// A cloneable, thread-safe handle to a type-erased sink.
///
/// Engines store this. Construct one with [`SharedSink::new`] when the
/// concrete sink never needs to be read back, or build an
/// `Arc<Mutex<T>>` yourself, keep a typed clone, and hand the engine
/// [`SharedSink::from_arc`] — afterwards lock the typed `Arc` to drain
/// a ring or collect a buffer.
#[derive(Clone)]
pub struct SharedSink {
    inner: Arc<Mutex<dyn EventSink>>,
}

impl SharedSink {
    /// Wraps a concrete sink.
    pub fn new(sink: impl EventSink + 'static) -> SharedSink {
        SharedSink {
            inner: Arc::new(Mutex::new(sink)),
        }
    }

    /// Shares an existing `Arc<Mutex<T>>`, letting the caller keep the
    /// typed handle for later inspection.
    pub fn from_arc<T: EventSink + 'static>(arc: Arc<Mutex<T>>) -> SharedSink {
        SharedSink { inner: arc }
    }

    /// Emits one event. A poisoned mutex (a panicked shard mid-emit)
    /// is tolerated: observability must never turn a salvageable run
    /// into a panic.
    pub fn emit(&self, event: &Event) {
        match self.inner.lock() {
            Ok(mut sink) => sink.emit(event),
            Err(poisoned) => poisoned.into_inner().emit(event),
        }
    }

    /// Flushes the underlying sink.
    pub fn flush(&self) -> io::Result<()> {
        match self.inner.lock() {
            Ok(mut sink) => sink.flush(),
            Err(poisoned) => poisoned.into_inner().flush(),
        }
    }
}

impl fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SharedSink")
    }
}

/// Builds a `(typed handle, shared handle)` pair for a sink whose
/// contents are read back after the run.
pub fn shared<T: EventSink + 'static>(sink: T) -> (Arc<Mutex<T>>, SharedSink) {
    let arc = Arc::new(Mutex::new(sink));
    let handle = SharedSink::from_arc(arc.clone());
    (arc, handle)
}

/// Locks a typed sink handle, tolerating poisoning.
pub fn lock_sink<T: EventSink>(arc: &Arc<Mutex<T>>) -> MutexGuard<'_, T> {
    match arc.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StepKind;

    fn ev(step: u64) -> Event {
        Event::Step {
            step,
            block: step,
            node: 0,
            kind: StepKind::ReadHit,
            control: 0,
            data: 0,
        }
    }

    #[test]
    fn ring_drops_oldest() {
        let mut ring = RingSink::new(3);
        for i in 0..5 {
            ring.emit(&ev(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total_seen(), 5);
        let steps: Vec<u64> = ring.events().map(|e| e.step().unwrap()).collect();
        assert_eq!(steps, vec![2, 3, 4]);
    }

    #[test]
    fn ring_capacity_is_at_least_one() {
        let mut ring = RingSink::new(0);
        ring.emit(&ev(1));
        ring.emit(&ev(2));
        assert_eq!(ring.to_vec(), vec![ev(2)]);
    }

    #[test]
    fn buffer_keeps_order() {
        let mut buf = BufferSink::new();
        for i in 0..4 {
            buf.emit(&ev(i));
        }
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.events()[3], ev(3));
    }

    #[test]
    fn shared_sink_is_send_and_debug() {
        fn assert_send<T: Send>(_: &T) {}
        let sink = SharedSink::new(NullSink);
        assert_send(&sink);
        assert_eq!(format!("{sink:?}"), "SharedSink");
        sink.emit(&ev(1));
        sink.flush().unwrap();
    }
}
