//! The benchmark's own spans: one record around each call it makes into a crate's
//! public API, kept in memory while the run measures and written out at the end.
//!
//! Recording is off in untraced runs; `Tracer::span` then only calls the closure.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id, unique within the run (1-based; 0 means "no parent").
    pub id: u64,
    /// Enclosing span id, or 0.
    pub parent: u64,
    /// The API called, as `crate::function`.
    pub name: &'static str,
    /// Request (batch, round or query) id the call served.
    pub request: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// An in-memory span recorder shared by every thread of a run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves a span id for a parent span that is recorded later with
    /// [`Tracer::record`] (0 when disabled).
    pub fn open(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span with an id from [`Tracer::open`].
    pub fn record(&self, span: Span) {
        if self.enabled {
            self.spans.lock().expect("span log poisoned").push(span);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.open();
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.record(Span { id, parent, name, request, start_ns, end_ns });
        out
    }

    /// Every recorded span, in recording order.
    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Per-name `(name, count, total_ms, self_ms)`, sorted by name. A span's self
    /// time is its duration minus the time its child spans cover.
    pub fn totals(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for span in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(span.parent).or_default() += span.end_ns - span.start_ns;
        }
        let mut totals: std::collections::BTreeMap<&'static str, (usize, u64, u64)> =
            std::collections::BTreeMap::new();
        for span in spans.iter() {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += duration;
            entry.2 += duration.saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0));
        }
        totals
            .into_iter()
            .map(|(name, (count, ns, self_ns))| {
                (name, count, ns as f64 / 1.0e6, self_ns as f64 / 1.0e6)
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span log poisoned").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_disabled_records_nothing() {
        let tracer = Tracer::new(true);
        let parent = tracer.open();
        let start = tracer.now_ns();
        let value = tracer.span("p2h_engine::Engine::serve", parent, 7, || 41 + 1);
        tracer.record(Span {
            id: parent,
            parent: 0,
            name: "batch",
            request: 7,
            start_ns: start,
            end_ns: tracer.now_ns(),
        });
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, parent);
        assert_eq!(spans[0].request, 7);
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
        let totals = tracer.totals();
        assert_eq!(totals.len(), 2);
        let (name, count, total, own) = totals[0];
        assert_eq!((name, count), ("batch", 1));
        // The batch's self time excludes the serve call nested in it.
        let child = (spans[0].end_ns - spans[0].start_ns) as f64 / 1.0e6;
        assert!((total - own - child).abs() < 1e-9);

        let off = Tracer::new(false);
        assert_eq!(off.span("x", 0, 0, || 3), 3);
        assert!(off.spans().is_empty());
    }
}
