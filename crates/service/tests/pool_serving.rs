//! Pool-based serving properties: equivalence on layout-permuted
//! meshes, panic recovery, and the result-buffer recycling.
//!
//! (The process-global spawn/allocation instrumentation assertions live
//! in `pool_steady_state.rs`, alone in their binary so concurrent tests
//! cannot move the counters mid-measurement.)

use octopus_core::layout::{hilbert_layout, morton_layout};
use octopus_core::Octopus;
use octopus_geom::rng::SplitMix64;
use octopus_geom::{Aabb, Point3, VertexId};
use octopus_service::ParallelExecutor;
use octopus_testkit::{box_mesh, scan, sequential_reference, sorted};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pool-based batch execution ≡ sequential executor on
    /// meshes whose vertices were scrambled and then re-laid-out along
    /// a space-filling curve — the serving configuration the layout
    /// policy produces.
    #[test]
    fn pool_matches_sequential_on_layout_permuted_meshes(
        n in 3usize..6,
        workers in 1usize..5,
        use_hilbert in proptest::bool::ANY,
        half in 0.1f32..0.5,
    ) {
        let base = box_mesh(n);
        let mut scramble: Vec<VertexId> = (0..base.num_vertices() as u32).collect();
        SplitMix64::new(7).shuffle(&mut scramble);
        let scrambled = base.permute_vertices(&scramble);
        let (mesh, perm) = if use_hilbert {
            hilbert_layout(&scrambled)
        } else {
            morton_layout(&scrambled)
        };
        let queries = vec![
            Aabb::cube(Point3::splat(0.5), half),
            Aabb::new(Point3::splat(-1.0), Point3::splat(2.0)),
            Aabb::new(Point3::splat(2.0), Point3::splat(3.0)),
        ];

        // Geometry survives the composed permutation: a brute-force
        // scan of the base mesh, translated orig → scrambled → curve
        // order, equals a scan of the laid-out mesh.
        for q in &queries {
            let translated = sorted(
                scan(&base, q)
                    .into_iter()
                    .map(|v| perm[scramble[v as usize] as usize])
                    .collect(),
            );
            prop_assert_eq!(translated, sorted(scan(&mesh, q)));
        }

        let expected = sequential_reference(&mesh, &queries);
        let octopus = Octopus::new(&mesh).unwrap();
        let mut pool = ParallelExecutor::new(workers);
        let results = pool.execute_batch(&octopus, &mesh, &queries);
        for (i, (got, want)) in results.iter().zip(&expected).enumerate() {
            prop_assert_eq!(
                &sorted(got.vertices.clone()),
                want,
                "batch query {} ({} workers, hilbert={})",
                i,
                workers,
                use_hilbert
            );
        }
    }
}

#[test]
fn pool_panic_does_not_poison_later_batches() {
    let mesh = box_mesh(4);
    let octopus = Octopus::new(&mesh).unwrap();
    let mut pool = ParallelExecutor::new(3);
    let queries = vec![Aabb::new(Point3::splat(0.1), Point3::splat(0.9))];
    let expected = sequential_reference(&mesh, &queries);

    let before = pool.execute_batch(&octopus, &mesh, &queries);
    assert_eq!(sorted(before[0].vertices.clone()), expected[0]);
    pool.recycle(before);

    // Detonate a task on the executor's own worker pool…
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.worker_pool().run(vec![
            Box::new(|| {}) as octopus_service::Task<'_>,
            Box::new(|| panic!("worker task boom")) as octopus_service::Task<'_>,
        ]);
    }));
    assert!(caught.is_err(), "the panic must propagate to the caller");

    // …and the same executor keeps serving correct batches after it.
    for round in 0..3 {
        let after = pool.execute_batch(&octopus, &mesh, &queries);
        assert_eq!(
            sorted(after[0].vertices.clone()),
            expected[0],
            "round {round} after the panic"
        );
        pool.recycle(after);
    }
}

#[test]
fn recycled_buffers_are_reused_not_reallocated() {
    let mesh = box_mesh(5);
    let octopus = Octopus::new(&mesh).unwrap();
    let mut pool = ParallelExecutor::new(2);
    let queries: Vec<Aabb> = (1..=6)
        .map(|i| Aabb::cube(Point3::splat(0.5), 0.1 * i as f32))
        .collect();

    // Warm-up: the first batch allocates its buffers, recycling parks
    // them on the free list.
    let first = pool.execute_batch(&octopus, &mesh, &queries);
    pool.recycle(first);
    let warm = pool.recycle_stats();
    assert_eq!(warm.allocated, queries.len());
    assert_eq!(warm.free, queries.len());

    for round in 0..5 {
        let results = pool.execute_batch(&octopus, &mesh, &queries);
        assert_eq!(results.len(), queries.len());
        pool.recycle(results);
        let s = pool.recycle_stats();
        assert_eq!(
            s.allocated, warm.allocated,
            "round {round}: steady state must allocate no result buffers"
        );
        assert_eq!(s.reused, (round + 1) * queries.len(), "round {round}");
    }
}

#[test]
fn executor_drop_terminates_cleanly_after_serving() {
    let mesh = box_mesh(4);
    let octopus = Octopus::new(&mesh).unwrap();
    let queries = vec![Aabb::new(Point3::splat(0.2), Point3::splat(0.8))];
    for threads in [1usize, 2, 4] {
        let mut pool = ParallelExecutor::new(threads);
        assert_eq!(pool.worker_pool().worker_threads(), threads - 1);
        let r = pool.execute_batch(&octopus, &mesh, &queries);
        assert!(!r[0].vertices.is_empty());
        drop(pool); // joins all workers — the test would hang otherwise
    }
}
