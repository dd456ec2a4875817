//! Property suite: parallel execution ≡ sequential execution.
//!
//! For random meshes and query boxes, the parallel batch executor must
//! return vertex sets identical to the sequential [`Octopus`] executor
//! (order-insensitive). This is the contract that makes the service
//! layer a drop-in scale-out of the paper's Algorithm 1.

use octopus_core::{Octopus, PhaseTimings};
use octopus_geom::{Aabb, Point3};
use octopus_mesh::Mesh;
use octopus_meshgen::{neuron, NeuroLevel};
use octopus_service::ParallelExecutor;
use octopus_testkit::{box_mesh, sequential_reference, sorted};
use proptest::prelude::*;

/// Asserts batch execution matches the sequential executor on `mesh`
/// for `queries`, for a given worker count.
fn assert_equivalent(mesh: &Mesh, workers: usize, queries: &[Aabb]) -> Result<(), TestCaseError> {
    let expected = sequential_reference(mesh, queries);
    let octopus = Octopus::new(mesh).unwrap();
    let mut pool = ParallelExecutor::new(workers);

    let batch = pool.execute_batch(&octopus, mesh, queries);
    prop_assert_eq!(batch.len(), queries.len());
    for (i, (got, want)) in batch.iter().zip(&expected).enumerate() {
        prop_assert_eq!(
            &sorted(got.vertices.clone()),
            want,
            "batch query {} ({} workers)",
            i,
            workers
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_matches_sequential_on_random_box_meshes(
        n in 2usize..7,
        workers in 1usize..5,
        cx in 0.0f32..1.0,
        cy in 0.0f32..1.0,
        cz in 0.0f32..1.0,
        half in 0.02f32..0.6,
    ) {
        let mesh = box_mesh(n);
        let queries = vec![
            Aabb::cube(Point3::new(cx, cy, cz), half),
            // Interior query (directed-walk path) and a miss.
            Aabb::new(Point3::splat(0.4), Point3::splat(0.6)),
            Aabb::new(Point3::splat(2.0), Point3::splat(3.0)),
            // Everything.
            Aabb::new(Point3::splat(-1.0), Point3::splat(2.0)),
        ];
        assert_equivalent(&mesh, workers, &queries)?;
    }

    #[test]
    fn parallel_matches_sequential_on_nonconvex_neuron(
        seedish in 0u64..1000,
        workers in 2usize..5,
        half in 0.05f32..0.4,
    ) {
        // Two disjoint components + concavities: exercises the
        // component-aware walk inside the seed phase.
        let mesh = neuron(NeuroLevel::L1, 0.4).unwrap();
        let bounds = mesh.bounding_box();
        let mut rng = octopus_geom::rng::SplitMix64::new(seedish);
        let c = Point3::new(
            rng.range_f32(bounds.min.x, bounds.max.x),
            rng.range_f32(bounds.min.y, bounds.max.y),
            rng.range_f32(bounds.min.z, bounds.max.z),
        );
        let queries = vec![
            Aabb::cube(c, half),
            Aabb::new(Point3::new(0.0, 0.3, 0.0), Point3::new(1.0, 0.7, 1.0)),
        ];
        assert_equivalent(&mesh, workers, &queries)?;
    }
}

#[test]
fn batch_results_arrive_in_input_order() {
    let mesh = box_mesh(5);
    let octopus = Octopus::new(&mesh).unwrap();
    let mut pool = ParallelExecutor::new(3);
    // Queries with strictly growing result sizes, so a mix-up of the
    // result order cannot go unnoticed.
    let queries: Vec<Aabb> = (1..=8)
        .map(|i| Aabb::cube(Point3::splat(0.5), 0.08 * i as f32))
        .collect();
    let results = pool.execute_batch(&octopus, &mesh, &queries);
    for pair in results.windows(2) {
        assert!(pair[0].vertices.len() <= pair[1].vertices.len());
    }
    assert!(results.last().unwrap().vertices.len() > results[0].vertices.len());
}

#[test]
fn pool_scratch_reuse_across_batches_and_meshes() {
    // The same pool must serve different meshes (vertex counts differ →
    // scratch arrays resize) and repeated batches (epoch reuse) without
    // cross-talk.
    let mut pool = ParallelExecutor::new(2);
    for n in [5usize, 3, 6] {
        let mesh = box_mesh(n);
        let octopus = Octopus::new(&mesh).unwrap();
        let queries = vec![
            Aabb::new(Point3::splat(0.1), Point3::splat(0.9)),
            Aabb::cube(Point3::splat(0.5), 0.2),
        ];
        for round in 0..3 {
            let expected = sequential_reference(&mesh, &queries);
            let got = pool.execute_batch(&octopus, &mesh, &queries);
            for (g, w) in got.iter().zip(&expected) {
                assert_eq!(&sorted(g.vertices.clone()), w, "mesh {n}, round {round}");
            }
        }
    }
}

#[test]
fn batch_timings_count_the_results_returned() {
    let mesh = box_mesh(4);
    let octopus = Octopus::new(&mesh).unwrap();
    let mut pool = ParallelExecutor::new(2);
    let queries = vec![
        Aabb::new(Point3::ORIGIN, Point3::splat(1.0)),
        Aabb::cube(Point3::splat(0.5), 0.25),
    ];
    let results = pool.execute_batch(&octopus, &mesh, &queries);
    assert_eq!(results.len(), 2);
    let mut phases = PhaseTimings::default();
    for r in &results {
        phases.accumulate(&r.timings);
    }
    assert_eq!(
        phases.results,
        results.iter().map(|r| r.vertices.len()).sum::<usize>()
    );
}
