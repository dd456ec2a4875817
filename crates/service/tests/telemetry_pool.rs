//! Telemetry under the worker pool: values recorded concurrently from
//! pool workers merge to exactly what a single-threaded reference
//! recorder reports — counts, bucket counts, sums (wrapping), min and
//! max. The interleavings here go through the crate's real
//! [`WorkerPool`] submission path (the telemetry crate's own property
//! suite covers bare `std::thread` interleavings).

use octopus_service::{Task, WorkerPool};
use octopus_telemetry::{bucket_of, Registry, BUCKETS};
use proptest::prelude::*;

/// Single-threaded reference recorder mirroring the histogram contract.
struct Reference {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Reference {
    fn new() -> Reference {
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
        // fetch_add wraps too.
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

/// Deterministic values mixing magnitudes from tiny to near `u64::MAX`.
fn values(seed: u64, len: usize) -> Vec<u64> {
    let mut x = seed | 1;
    (0..len as u64)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x >> ((i % 8) * 8)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Pool workers hammering one histogram + counter concurrently must
    /// merge to the reference recorder's exact totals.
    #[test]
    fn pool_recording_matches_reference(
        seed in 1u64..u64::MAX,
        len in 1usize..8_192,
        threads in 1usize..6,
    ) {
        let vals = values(seed, len);
        let mut reference = Reference::new();
        for &v in &vals {
            reference.record(v);
        }

        let registry = Registry::new();
        let hist = registry.histogram("test_pool_hist");
        let counter = registry.counter("test_pool_records_total");
        let pool = WorkerPool::new(threads);
        let chunk = len.div_ceil(threads);
        let tasks: Vec<Task<'_>> = vals
            .chunks(chunk)
            .map(|c| {
                let hist = hist.clone();
                let counter = counter.clone();
                Box::new(move || {
                    for &v in c {
                        hist.record(v);
                        counter.inc();
                    }
                }) as Task<'_>
            })
            .collect();
        pool.run(tasks);

        let snap = registry.snapshot();
        prop_assert_eq!(snap.counter("test_pool_records_total"), reference.count);
        let h = snap.histogram("test_pool_hist").expect("registered above");
        prop_assert_eq!(h.count, reference.count);
        prop_assert_eq!(h.sum, reference.sum);
        prop_assert_eq!(h.min, reference.min);
        prop_assert_eq!(h.max, reference.max);
        prop_assert_eq!(h.buckets, reference.buckets);
    }
}
