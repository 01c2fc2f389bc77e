//! In-memory spans for the traced run. A span has a name, a start, an
//! end and the span that was open when it began. The benchmark records
//! them around its own calls into each crate, keeps them in memory, and
//! writes them out when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// The span recorder of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn offset(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64()
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start = self.offset(Instant::now());
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.offset(Instant::now());
        out
    }

    /// [`Tracer::span`], also returning the span's duration in seconds.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.spans.len();
        let out = self.span(name, f);
        (out, self.spans[id].end - self.spans[id].start)
    }

    /// Records a span timed elsewhere (on another thread) as a child of
    /// the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            name,
            start: self.offset(start),
            end: self.offset(end),
            parent: self.open.last().copied(),
        };
        self.spans.push(span);
    }

    /// Summed duration of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Summed self time of the spans named `name`: each one's duration
    /// minus the part of it its children cover. Children that ran in
    /// parallel overlap, so what they cover is the union of their
    /// intervals.
    pub fn self_time(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .map(|id| self.self_of(id))
            .sum()
    }

    fn self_of(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let mut children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start, s.end))
            .collect();
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (mut covered, mut reach) = (0.0, span.start);
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        span.end - span.start - covered
    }

    /// Writes every span to `path`, one JSON object per line.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}}}",
                s.name, s.start, s.end
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
        Ok(())
    }
}
