//! Lock-free metric primitives: sharded counters, f64 gauges and
//! fixed-bucket log2 histograms.
//!
//! # Sharding
//!
//! Counters and histograms spread their hot atomic cells over
//! [`SHARDS`] cache-line-aligned shards. Each recording thread is
//! lazily assigned a shard (round-robin over a process-global
//! counter), so concurrent recorders on different cores never contend
//! on the same cache line as long as the worker count stays at or
//! below the shard count. Reading merges all shards; see the module
//! docs in [`crate::registry`] for the exact consistency contract.

use octopus_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use octopus_sync::Arc;
use std::time::Duration;

/// Number of per-metric shards. A power of two at least as large as
/// the worker pools this workspace spawns in practice. Shrunk under
/// `cfg(octopus_model)` so the interleaving explorer's schedule tree
/// (one switch point per shard access) stays tractable.
pub const SHARDS: usize = if cfg!(octopus_model) { 2 } else { 16 };

/// Number of log2 histogram buckets. Bucket `i > 0` counts values in
/// `[2^(i-1), 2^i)`; bucket 0 counts the value `0`; the last bucket
/// also absorbs everything at or above `2^(BUCKETS-1)`. Shrunk under
/// `cfg(octopus_model)` for the same reason as [`SHARDS`].
pub const BUCKETS: usize = if cfg!(octopus_model) { 8 } else { 64 };

/// The bucket index a value lands in: `0` for `0`, else
/// `floor(log2(v)) + 1`, clamped to the last bucket.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// One atomic cell padded to a cache line so neighbouring shards
/// never false-share.
#[repr(align(64))]
struct PadCell(AtomicU64);

impl PadCell {
    const fn new(v: u64) -> Self {
        PadCell(AtomicU64::new(v))
    }
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// The calling thread's shard index, assigned round-robin on first use.
#[inline]
pub(crate) fn shard_index() -> usize {
    SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            v
        } else {
            // relaxed: round-robin ticket for load spreading only; no
            // other memory is published through this counter.
            let v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1);
            s.set(v);
            v
        }
    })
}

struct CounterCore {
    shards: [PadCell; SHARDS],
}

/// A monotonically increasing, shard-striped counter.
///
/// Cloning is cheap (the clones share storage). Increments are single
/// `Relaxed` `fetch_add`s on the caller's shard; [`Counter::value`]
/// sums all shards.
#[derive(Clone)]
pub struct Counter {
    core: Arc<CounterCore>,
}

impl Counter {
    /// A fresh counter. Normally obtained from a
    /// [`crate::Registry`]; public so the model-check suites can
    /// construct one directly.
    pub fn new() -> Self {
        Counter {
            core: Arc::new(CounterCore {
                shards: std::array::from_fn(|_| PadCell::new(0)),
            }),
        }
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        // relaxed: each shard cell is an independent monotone total;
        // per-location coherence alone makes repeated reads of any one
        // shard non-decreasing, which is all `value` needs (see
        // model_metrics.rs).
        self.core.shards[shard_index()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across all shards. Monotone across calls from
    /// one thread; may lag concurrent increments.
    pub fn value(&self) -> u64 {
        self.core
            .shards
            .iter()
            // relaxed: see `add` — per-shard coherence keeps each
            // term (and hence the sum of monotone terms) monotone.
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// A process-global counter with `const` construction, for `static`
/// use where a [`crate::Registry`] is not in scope (e.g. the worker
/// pool's spawn counter). Single-cell: intended for rare events.
pub struct StaticCounter(AtomicU64);

impl StaticCounter {
    /// A zeroed counter, usable in `static` position.
    pub const fn new() -> Self {
        StaticCounter(AtomicU64::new(0))
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // relaxed: single monotone cell, read only for reporting.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        // relaxed: see `add`.
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for StaticCounter {
    fn default() -> Self {
        StaticCounter::new()
    }
}

/// A last-write-wins `f64` gauge (stored as bits in one atomic).
#[derive(Clone)]
pub struct Gauge {
    core: Arc<AtomicU64>,
}

impl Gauge {
    /// A fresh gauge, handed out by [`crate::Registry::gauge`].
    pub(crate) fn new() -> Self {
        Gauge {
            core: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        // relaxed: last-write-wins sample; readers want *a* recent
        // value, not ordering against other memory.
        self.core.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Set from an integer (exact up to 2^53).
    #[inline]
    pub fn set_u64(&self, v: u64) {
        self.set(v as f64);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        // relaxed: see `set`.
        f64::from_bits(self.core.load(Ordering::Relaxed))
    }
}

/// One histogram shard: cache-line aligned so concurrent recorders on
/// different shards never false-share the count/sum/min/max header.
#[repr(align(64))]
struct HistShard {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl HistShard {
    fn new() -> Self {
        HistShard {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

struct HistCore {
    shards: [HistShard; SHARDS],
}

/// A shard-striped log2 histogram over `u64` values (typically
/// nanoseconds or element counts). Tracks per-bucket counts plus
/// exact `count`, `sum`, `min` and `max`.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistCore>,
}

impl Histogram {
    /// A fresh histogram. Normally obtained from a
    /// [`crate::Registry`]; public so the model-check suites can
    /// construct one directly.
    pub fn new() -> Self {
        Histogram {
            core: Arc::new(HistCore {
                shards: std::array::from_fn(|_| HistShard::new()),
            }),
        }
    }

    /// Record one value. Five atomic ops on the caller's shard.
    ///
    /// Protocol: the bucket cell is bumped *before* `count`, and
    /// `count` is the only `Release` op. Paired with the `Acquire`
    /// load in [`Histogram::snapshot`], that keeps the snapshot
    /// invariant "bucket total >= count" in every interleaving.
    #[inline]
    pub fn record(&self, v: u64) {
        let s = &self.core.shards[shard_index()];
        // relaxed: ordered against readers by the Release on `count`
        // below, not by this op itself.
        s.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        // Release: publishes the bucket increment above. Regression
        // note: this was Relaxed until the PR-9 concurrency audit —
        // a Relaxed pair lets `snapshot` observe the new count but
        // miss the bucket increment, breaking quantile math;
        // crates/telemetry/tests/model_metrics.rs seeds exactly that
        // bug and the model checker catches it.
        s.count.fetch_add(1, Ordering::Release);
        // relaxed: sum/min/max are advisory point-in-time stats; each
        // cell is per-location coherent, and nothing downstream
        // derives cross-cell invariants from them.
        s.sum.fetch_add(v, Ordering::Relaxed);
        s.min.fetch_min(v, Ordering::Relaxed);
        s.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Merge all shards into a point-in-time [`HistogramSnapshot`].
    ///
    /// Guarantees `buckets` sum to at least `count` (see
    /// [`Histogram::record`]); values recorded concurrently with the
    /// scan may or may not be included.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::empty();
        for s in &self.core.shards {
            // Acquire: pairs with the Release fetch_add in `record`
            // so every bucket increment published by an observed
            // count is visible to the bucket loads below. Must stay
            // the first load of the shard.
            out.count += s.count.load(Ordering::Acquire);
            // relaxed: advisory stats, see `record`.
            out.sum = out.sum.wrapping_add(s.sum.load(Ordering::Relaxed));
            out.min = out.min.min(s.min.load(Ordering::Relaxed));
            out.max = out.max.max(s.max.load(Ordering::Relaxed));
            for (b, cell) in out.buckets.iter_mut().zip(s.buckets.iter()) {
                // relaxed: reads at least the increments published by
                // the Acquire on `count` above; later ones are a
                // harmless over-count of the in-flight tail.
                *b += cell.load(Ordering::Relaxed);
            }
        }
        out
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Merged, immutable view of a [`Histogram`] (or of several, via
/// [`HistogramSnapshot::merge`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`bucket_of`] for the bucket layout).
    pub buckets: [u64; BUCKETS],
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of recorded values (wrapping only past 2^64).
    pub sum: u64,
    /// Smallest recorded value; `u64::MAX` when empty.
    pub min: u64,
    /// Largest recorded value; `0` when empty.
    pub max: u64,
}

impl HistogramSnapshot {
    /// A snapshot with nothing recorded.
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Fold another snapshot into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Arithmetic mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ..= 1.0`). Returns 0 when empty. Exact to within one
    /// power of two, which is the histogram's resolution.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_tracks_exact_count_sum_min_max() {
        let h = Histogram::new();
        for v in [0u64, 1, 7, 1024, 1025] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 2057);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1025);
        assert_eq!(s.buckets[bucket_of(1024)], 2);
        assert!((s.mean() - 2057.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_is_bucket_resolution() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(1.0), 100);
        let p50 = s.quantile(0.5);
        assert!((32..=63).contains(&p50), "p50 bucket bound was {p50}");
    }
}
