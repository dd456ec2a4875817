//! Lightweight span tracing: `span!` guards record start/duration
//! pairs into per-worker ring buffers, exportable as a
//! chrome://tracing-compatible JSON trace.
//!
//! Rings are striped per worker shard (same shard assignment as the
//! metrics, see [`crate::metrics`]), so recording takes an
//! uncontended per-shard lock — no global serialization point. Each
//! ring keeps the most recent [`RING_CAPACITY`] spans and counts what
//! it dropped.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metrics::{shard_index, SHARDS};
use crate::snapshot::{json_f64, json_string};

/// Spans retained per worker ring; older spans are dropped (counted).
pub const RING_CAPACITY: usize = 4096;

/// One completed span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEvent {
    /// Static span name (the taxonomy is documented in the README).
    pub name: &'static str,
    /// Start time in microseconds since the tracer was created.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Worker shard that recorded the span (chrome trace `tid`).
    pub tid: usize,
}

#[derive(Default)]
struct SpanRing {
    events: VecDeque<SpanEvent>,
    dropped: u64,
}

struct TracerInner {
    epoch: Instant,
    rings: [Mutex<SpanRing>; SHARDS],
}

/// Handle for recording and exporting spans. Cheap to clone.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// A tracer with empty rings, handed out by
    /// [`crate::Registry::tracer`].
    pub(crate) fn new() -> Self {
        Tracer {
            inner: Arc::new(TracerInner {
                epoch: Instant::now(),
                rings: std::array::from_fn(|_| Mutex::new(SpanRing::default())),
            }),
        }
    }

    /// Start a span; it is recorded when the returned guard drops.
    /// Prefer the [`crate::span!`] macro at call sites.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            tracer: &self.inner,
            name,
            start: Instant::now(),
        }
    }

    /// All retained spans, in recording order per shard.
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut out = Vec::new();
        for ring in &self.inner.rings {
            out.extend(ring.lock().unwrap().events.iter().cloned());
        }
        out
    }

    /// Total spans evicted from full rings.
    pub fn dropped(&self) -> u64 {
        self.inner
            .rings
            .iter()
            .map(|r| r.lock().unwrap().dropped)
            .sum()
    }

    /// Discard all retained spans (keeps the drop counts).
    pub fn clear(&self) {
        for ring in &self.inner.rings {
            ring.lock().unwrap().events.clear();
        }
    }

    /// Export retained spans as a chrome://tracing JSON document
    /// (load via chrome://tracing or <https://ui.perfetto.dev>). Events
    /// are complete-phase (`"ph":"X"`) with microsecond timestamps,
    /// sorted by start time.
    pub fn chrome_trace_json(&self) -> String {
        let mut events = self.events();
        events.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":\"octopus\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{}}}",
                json_string(e.name),
                json_f64(e.start_us),
                json_f64(e.dur_us),
                e.tid
            ));
        }
        out.push_str("]}");
        out
    }
}

/// RAII guard produced by [`Tracer::span`]; records the span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a TracerInner,
    name: &'static str,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let inner = self.tracer;
        let event = SpanEvent {
            name: self.name,
            start_us: self
                .start
                .saturating_duration_since(inner.epoch)
                .as_secs_f64()
                * 1e6,
            dur_us: self.start.elapsed().as_secs_f64() * 1e6,
            tid: shard_index(),
        };
        let mut ring = inner.rings[event.tid].lock().unwrap();
        if ring.events.len() == RING_CAPACITY {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event);
    }
}

/// Open a span on a [`Tracer`]: `let _g = span!(tracer, "crawl");`.
/// The span ends (and is recorded) when the guard goes out of scope.
#[macro_export]
macro_rules! span {
    ($tracer:expr, $name:expr) => {
        $crate::Tracer::span(&$tracer, $name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_on_drop() {
        let t = Tracer::new();
        {
            let _g = crate::span!(t, "outer");
            let _h = crate::span!(t, "inner");
        }
        let names: Vec<_> = t.events().iter().map(|e| e.name).collect();
        assert!(names.contains(&"outer") && names.contains(&"inner"));
        for e in t.events() {
            assert!(e.dur_us >= 0.0 && e.start_us >= 0.0);
        }
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let t = Tracer::new();
        for _ in 0..RING_CAPACITY + 10 {
            drop(t.span("s"));
        }
        assert!(t.events().len() <= RING_CAPACITY * SHARDS);
        // All spans from this single thread went to one ring.
        assert_eq!(t.dropped(), 10);
        t.clear();
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 10);
    }

    #[test]
    fn chrome_trace_is_json_shaped() {
        let t = Tracer::new();
        drop(t.span("a\"b"));
        let json = t.chrome_trace_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\\\""), "names must be escaped");
    }
}
