//! # octopus-telemetry
//!
//! Unified observability for the OCTOPUS serving stack: a lock-free
//! metrics [`Registry`] (sharded atomic counters, gauges, log2 latency
//! histograms — mergeable into a [`TelemetrySnapshot`]) and a span
//! [`Tracer`] whose per-worker rings export chrome://tracing JSON.
//!
//! The crate is dependency-free and layering-neutral: `octopus-core`
//! records executor phase timings into it, `octopus-service` records
//! engine/monitor/pool behaviour, and consumers (the `serve` example,
//! the service's tests) read one merged snapshot.
//!
//! ## Hot-path cost
//!
//! Every recording call is a handful of `Relaxed` atomic operations on
//! a cache-line-private shard — no locks, no allocation. A component
//! with no registry attached records nothing at all: there is no
//! disabled registry, only an absent one.
//!
//! ## Consistency
//!
//! See [`registry`] for the exact ordering/consistency contract
//! (per-cell exactness always; whole-snapshot exactness at quiescence;
//! no cross-metric cut under concurrency).

#![deny(missing_docs)]

pub mod metrics;
pub mod registry;
pub mod snapshot;
pub mod trace;

pub use metrics::{
    bucket_of, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, StaticCounter,
    BUCKETS, SHARDS,
};
pub use registry::Registry;
pub use snapshot::TelemetrySnapshot;
pub use trace::{SpanEvent, SpanGuard, Tracer, RING_CAPACITY};

/// Fraction `n / d`, or 0.0 when the denominator is zero — the shared
/// definition behind every hit-rate gauge in the workspace.
pub fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}
