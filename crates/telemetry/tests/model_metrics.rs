//! Model-check suite for the telemetry shard-merge protocol.
//!
//! Compiled only under `RUSTFLAGS="--cfg octopus_model"` (the CI
//! `model-check` job); the sync primitives inside
//! `octopus-telemetry` then resolve to the vendored loom doubles and
//! `octopus_sync::model` exhaustively explores thread interleavings.
//!
//! Checked invariants:
//! * counter totals are monotone under a concurrent reader and exact
//!   after quiescence;
//! * a histogram snapshot never reports more `count` than bucket
//!   increments (the bucket-before-count / count-load-first protocol
//!   in `Histogram::record`/`snapshot`);
//! * a seeded double with the publication order inverted **fails**
//!   the same check — proof the explorer has teeth.
#![cfg(octopus_model)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use octopus_sync::atomic::{AtomicU64, Ordering};
use octopus_sync::{model, thread, Arc};
use octopus_telemetry::{Counter, Histogram};

/// Pins the main OS thread's lazy shard assignment before entering
/// `model`, so every explored execution sees an identical operation
/// sequence (the assignment ticket is process-global state that would
/// otherwise differ between the first and later executions).
fn warm_main_shard() {
    Counter::new().inc();
}

#[test]
fn counter_total_is_monotone_and_exact() {
    warm_main_shard();
    model(|| {
        let c = Counter::new();
        let (c1, c2) = (c.clone(), c.clone());
        let t1 = thread::spawn(move || c1.inc());
        let t2 = thread::spawn(move || c2.inc());
        let v1 = c.value();
        let v2 = c.value();
        assert!(v1 <= v2, "counter went backwards: {v1} then {v2}");
        t1.join().unwrap();
        t2.join().unwrap();
        assert_eq!(c.value(), 2, "increment lost in shard merge");
    });
}

#[test]
fn histogram_snapshot_count_never_exceeds_bucket_total() {
    warm_main_shard();
    model(|| {
        let h = Histogram::new();
        let (h1, h2) = (h.clone(), h.clone());
        let t1 = thread::spawn(move || h1.record(3));
        let t2 = thread::spawn(move || h2.record(700));
        let s = h.snapshot();
        let bucket_total: u64 = s.buckets.iter().sum();
        assert!(
            bucket_total >= s.count,
            "snapshot saw count={} but only {} bucket increments",
            s.count,
            bucket_total
        );
        t1.join().unwrap();
        t2.join().unwrap();
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.buckets.iter().sum::<u64>(), 2);
        assert_eq!(s.sum, 703);
        assert_eq!(s.min, 3);
        assert_eq!(s.max, 700);
    });
}

/// Seeded-bug double: a single-cell histogram that publishes `count`
/// *before* the bucket increment — the exact protocol inversion the
/// real `Histogram::record` guards against.
struct MisorderedHist {
    count: AtomicU64,
    bucket: AtomicU64,
}

impl MisorderedHist {
    fn record(&self) {
        // BUG (seeded): count becomes visible before the bucket cell,
        // so a concurrent snapshot can see count > bucket total.
        self.count.fetch_add(1, Ordering::SeqCst);
        self.bucket.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn misordered_histogram_double_fails_the_check() {
    warm_main_shard();
    let result = catch_unwind(AssertUnwindSafe(|| {
        model(|| {
            let h = Arc::new(MisorderedHist {
                count: AtomicU64::new(0),
                bucket: AtomicU64::new(0),
            });
            let h2 = Arc::clone(&h);
            let t = thread::spawn(move || h2.record());
            let count = h.count.load(Ordering::SeqCst);
            let bucket = h.bucket.load(Ordering::SeqCst);
            assert!(
                bucket >= count,
                "snapshot saw count={count} but only {bucket} bucket increments"
            );
            t.join().unwrap();
        });
    }));
    let msg = match result {
        Ok(()) => panic!("model checker missed the seeded count/bucket inversion"),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default(),
    };
    assert!(
        msg.contains("bucket increments"),
        "unexpected failure report: {msg}"
    );
}
