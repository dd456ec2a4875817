//! The metric registry: named counters/gauges/histograms plus a
//! [`Tracer`], snapshotted as one [`TelemetrySnapshot`].
//!
//! # Ordering and consistency guarantees
//!
//! Recording uses `Relaxed` atomics throughout — metrics never
//! synchronize the threads that record into them, and recording a
//! metric is not a memory fence.
//!
//! - **Per-cell exactness.** No increment is ever lost: every `add`
//!   and `record` lands in exactly one shard cell via read-modify-write
//!   atomics.
//! - **Quiescent exactness.** A snapshot taken after recording threads
//!   have quiesced (joined, or synchronized with the reader through a
//!   lock, channel or `Acquire/Release` edge — as every pool in this
//!   workspace does at batch boundaries) observes exact totals:
//!   histogram `count == Σ buckets` and `sum`/`min`/`max` agree with a
//!   single-threaded reference recorder over the same multiset of
//!   values.
//! - **Concurrent snapshots are per-cell atomic only.** A snapshot
//!   racing with recorders may observe a histogram mid-record (e.g.
//!   the bucket incremented but `count` not yet), and is not a
//!   consistent cut **across** metrics. Totals are monotone: re-reading
//!   never goes backwards.
//!
//! Registration (`counter`/`gauge`/`histogram`) takes a mutex; it is
//! meant for startup, not hot paths. Handles returned from it record
//! without any lock.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::TelemetrySnapshot;
use crate::trace::Tracer;

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Inner {
    metrics: Mutex<BTreeMap<String, Metric>>,
    tracer: Tracer,
}

/// A cheaply cloneable handle to a metrics registry.
///
/// Construct with [`Registry::new`]. A component records only once a
/// registry is attached to it; without one it records nothing.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(Inner {
                metrics: Mutex::new(BTreeMap::new()),
                tracer: Tracer::new(),
            }),
        }
    }

    /// The registry's span tracer.
    pub fn tracer(&self) -> Tracer {
        self.inner.tracer.clone()
    }

    /// Get or register the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.metrics.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or register the gauge `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.metrics.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or register the histogram `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.inner.metrics.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Merge every metric's shards into a point-in-time
    /// [`TelemetrySnapshot`] (see the module docs for what
    /// "point-in-time" does and does not promise under concurrency).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let map = self.inner.metrics.lock().unwrap();
        let mut snap = TelemetrySnapshot::default();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.value());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.value());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        b.add(3);
        assert_eq!(r.snapshot().counter("x"), 5);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn snapshot_collects_all_kinds() {
        let r = Registry::new();
        r.counter("c").add(1);
        r.gauge("g").set(0.25);
        r.histogram("h").record(42);
        let s = r.snapshot();
        assert_eq!(s.counter("c"), 1);
        assert_eq!(s.gauge("g"), 0.25);
        assert_eq!(s.histogram("h").unwrap().count, 1);
        assert!(s.has_family("c") && s.has_family("h"));
        assert!(!s.has_family("nope"));
    }
}
