//! The acceptance assertion for the persistent pool: **steady-state
//! batch execution performs zero thread spawns and zero result-buffer
//! allocations after warm-up**, measured through the service layer's
//! spawn and free-list instrumentation.
//!
//! This file intentionally holds a single test: the spawn counter
//! (`threads_spawned_total`) is process-global, so it must be the only
//! code creating pools in its binary while the deltas are measured.

use octopus_core::Octopus;
use octopus_geom::{Aabb, Point3};
use octopus_service::{threads_spawned_total, ParallelExecutor};
use octopus_testkit::{box_mesh, sequential_reference, sorted};

#[test]
fn steady_state_spawns_no_threads_and_allocates_no_result_buffers() {
    let mesh = box_mesh(7);
    let octopus = Octopus::new(&mesh).unwrap();
    let queries: Vec<Aabb> = (1..=8)
        .map(|i| Aabb::cube(Point3::splat(0.5), 0.06 * i as f32))
        .collect();

    let mut pool = ParallelExecutor::new(4);
    // Ground truth once, sequentially.
    let expected = sequential_reference(&mesh, &queries);

    // Warm-up: first batch allocates buffers and (at construction time,
    // already counted) the pool spawned its workers.
    let first = pool.execute_batch(&octopus, &mesh, &queries);
    pool.recycle(first);

    let spawned_after_warmup = threads_spawned_total();
    let allocated_after_warmup = pool.recycle_stats().allocated;

    for round in 0..12 {
        let results = pool.execute_batch(&octopus, &mesh, &queries);
        for (i, (got, want)) in results.iter().zip(&expected).enumerate() {
            assert_eq!(
                &sorted(got.vertices.clone()),
                want,
                "round {round} query {i}"
            );
        }
        pool.recycle(results);
    }

    assert_eq!(
        threads_spawned_total(),
        spawned_after_warmup,
        "steady-state serving must spawn zero threads (pool workers are persistent)"
    );
    let stats = pool.recycle_stats();
    assert_eq!(
        stats.allocated, allocated_after_warmup,
        "steady-state batches must allocate zero result buffers (free-list reuse)"
    );
    assert_eq!(
        stats.reused,
        12 * queries.len(),
        "every steady-state lease must come from the free list"
    );
}
