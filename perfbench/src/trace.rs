//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start, an end, a parent, and the id of the round
//! or job it belongs to. Spans stay in memory and are written out as one
//! tab-separated file when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    round: u64,
    parent: Option<usize>,
    /// Offset from the tracer's creation.
    start: Duration,
    took: Duration,
}

/// An in-memory span recorder; [`Tracer::off`] records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
#[must_use = "a span must be closed with Tracer::exit"]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer { on: true, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer { on: false, ..Tracer::on() }
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, round: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let start = self.origin.elapsed();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, round, parent, start, took: Duration::ZERO });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        if let SpanId(Some(i)) = id {
            assert_eq!(self.open.pop(), Some(i), "spans close innermost first");
            self.spans[i].took = self.origin.elapsed() - self.spans[i].start;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, round: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, round);
        let out = f();
        self.exit(id);
        out
    }

    /// Records a span of `took` that ended just now, as a child of the
    /// innermost open span — for work timed inside a callback that cannot
    /// borrow the tracer.
    pub fn record(&mut self, name: &'static str, round: u64, took: Duration) {
        if !self.on {
            return;
        }
        let start = self.origin.elapsed().saturating_sub(took);
        self.spans.push(Span { name, round, parent: self.open.last().copied(), start, took });
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.took).sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Writes every span as `id  parent  round  name  start_ns  end_ns`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tround\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.round,
                s.name,
                s.start.as_nanos(),
                (s.start + s.took).as_nanos()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum() {
        let mut t = Tracer::on();
        let outer = t.enter("round", 0);
        t.record("unit", 0, Duration::from_millis(1));
        t.record("unit", 0, Duration::from_millis(2));
        t.exit(outer);
        assert_eq!(t.total("unit"), Duration::from_millis(3));
        assert_eq!(t.count("unit"), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        let id = t.enter("x", 0);
        t.exit(id);
        assert_eq!(t.count("x"), 0);
    }
}
