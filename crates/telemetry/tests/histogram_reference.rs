//! Histogram correctness: merging per-worker shards must be
//! observationally identical to a single-threaded reference recorder
//! over the same multiset of values — counts, per-bucket sums, sum,
//! min and max — regardless of how the values are interleaved across
//! recording threads.

use octopus_telemetry::{bucket_of, HistogramSnapshot, Registry, BUCKETS};
use proptest::prelude::*;

/// Plain single-threaded model of the histogram.
struct Reference {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Reference {
    fn new() -> Self {
        Reference {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v); // fetch_add wraps too
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn assert_matches(&self, snap: &HistogramSnapshot) {
        assert_eq!(snap.count, self.count);
        assert_eq!(snap.sum, self.sum);
        assert_eq!(snap.min, self.min);
        assert_eq!(snap.max, self.max);
        assert_eq!(snap.buckets, self.buckets);
    }
}

fn values(seed: u64, n: usize) -> Vec<u64> {
    // Mix magnitudes so many distinct buckets are hit.
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let shift = (x >> 58) as u32 % 48;
            x >> shift
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single-threaded: the sharded histogram equals the reference.
    #[test]
    fn sharded_equals_reference_sequential(seed in 0u64..10_000, n in 1usize..2_000) {
        let reg = Registry::new();
        let h = reg.histogram("h");
        let mut model = Reference::new();
        for v in values(seed, n) {
            h.record(v);
            model.record(v);
        }
        model.assert_matches(&h.snapshot());
    }

    /// Concurrent: values split across threads land in different
    /// shards, but the merged snapshot still equals the reference
    /// built from the full multiset.
    #[test]
    fn sharded_equals_reference_concurrent(seed in 0u64..10_000, n in 1usize..4_000, threads in 2usize..8) {
        let reg = Registry::new();
        let h = reg.histogram("h");
        let vals = values(seed, n);
        let mut model = Reference::new();
        for &v in &vals {
            model.record(v);
        }
        std::thread::scope(|scope| {
            for chunk in vals.chunks(n.div_ceil(threads)) {
                let h = h.clone();
                scope.spawn(move || {
                    for &v in chunk {
                        h.record(v);
                    }
                });
            }
        });
        // Threads joined → quiescent snapshot must be exact.
        model.assert_matches(&h.snapshot());
    }

    /// Counters merge exactly too.
    #[test]
    fn counter_total_is_exact_concurrent(per_thread in 1u64..5_000, threads in 2usize..8) {
        let reg = Registry::new();
        let c = reg.counter("c");
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                });
            }
        });
        prop_assert_eq!(c.value(), per_thread * threads as u64);
    }
}
