//! In-memory spans recorded around calls into the pipeline crates.
//!
//! A span has a name, a start, an end, and the span that caused it.
//! Spans are opened with
//! [`Tracer::begin`] and named when they close, so a span can be
//! classified by its own result (an I-frame versus an E-frame push). A
//! layer's self time is its span's duration minus the part its child
//! spans cover.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

/// A span recorder for one thread.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Summed span durations.
    pub total: Duration,
    /// Summed self times (duration minus direct children).
    pub self_time: Duration,
}

impl LayerTotals {
    /// Mean span duration in milliseconds (0 with no calls).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total.as_secs_f64() * 1e3 / self.calls as f64
        }
    }
}

impl Tracer {
    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self) -> SpanId {
        let now = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span {
            name: "",
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes the innermost open span, naming it.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not the innermost open span (a bug in the
    /// benchmark's own span nesting).
    pub fn end(&mut self, id: SpanId, name: &'static str) {
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id.0];
        span.end = Instant::now();
        span.name = name;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.begin();
        let out = f(self);
        self.end(id, name);
        out
    }

    /// Per-name totals with self time.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.end - span.start;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            let d = span.end - span.start;
            let entry = out.entry(span.name).or_default();
            entry.calls += 1;
            entry.total += d;
            entry.self_time += d.saturating_sub(children);
        }
        out
    }
}

/// Mean milliseconds per call of `name` (0 when never recorded).
pub fn mean_ms(layers: &BTreeMap<&'static str, LayerTotals>, name: &str) -> f64 {
    layers.get(name).map_or(0.0, LayerTotals::mean_ms)
}

/// Sum of every layer's self time: the traced time the spans explain.
pub fn covered(layers: &BTreeMap<&'static str, LayerTotals>) -> Duration {
    layers.values().map(|l| l.self_time).sum()
}
