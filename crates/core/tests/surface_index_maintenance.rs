//! Maintenance invariants of [`SurfaceIndex`] (§IV-E): the surface set
//! is a pure function of connectivity — unchanged by arbitrary
//! deformation, updated exactly by the deltas that connectivity
//! restructuring reports — and the index behaves like a set under any
//! insert/remove interleaving.

use octopus_core::{ExecutorMetrics, Octopus, SurfaceIndex};
use octopus_geom::rng::SplitMix64;
use octopus_geom::{Aabb, Point3, VertexId};
use octopus_sim::{Deformation, SmoothRandomField};
use octopus_telemetry::Registry;
use octopus_testkit::random_mesh;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn as_set(idx: &SurfaceIndex) -> BTreeSet<VertexId> {
    idx.ids().iter().copied().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The index is a faithful set under arbitrary insert/remove
    /// interleavings (checked against a BTreeSet model), including
    /// duplicate inserts and removes of absent ids.
    #[test]
    fn insert_remove_matches_set_model(seed in 0u64..10_000, ops in 1usize..400) {
        let mut rng = SplitMix64::new(seed);
        let mut idx = SurfaceIndex::default();
        let mut model = BTreeSet::new();
        for _ in 0..ops {
            let v = rng.below(64) as VertexId; // small id space forces collisions
            if rng.chance(0.45) {
                idx.remove(v);
                model.remove(&v);
            } else {
                idx.insert(v);
                model.insert(v);
            }
            prop_assert_eq!(idx.len(), model.len());
            prop_assert_eq!(idx.is_empty(), model.is_empty());
            prop_assert!(model.iter().all(|&m| idx.contains(m)));
        }
        prop_assert_eq!(as_set(&idx), model);
    }

    /// Pure deformation: rewriting every position leaves a freshly
    /// built surface index identical — zero maintenance is sound.
    #[test]
    fn deformation_leaves_surface_index_unchanged(
        seed in 0u64..5_000,
        amplitude in 0.001f32..0.1,
        steps in 1u32..5,
    ) {
        let mut mesh = random_mesh(4, 0.7, seed);
        prop_assume!(mesh.num_vertices() > 0);
        let before = as_set(&SurfaceIndex::build(&mesh).unwrap());
        let rest = mesh.positions().to_vec();
        let mut field = SmoothRandomField::new(amplitude, 3, seed ^ 0xD3F0);
        for step in 1..=steps {
            field.apply_step(step, &rest, mesh.positions_mut());
        }
        let after = as_set(&SurfaceIndex::build(&mesh).unwrap());
        prop_assert_eq!(before, after);
    }

    /// Restructuring: the delta stream from interleaved cell removals
    /// and refinements, applied incrementally, keeps the index equal to
    /// a from-scratch rebuild after every single operation.
    #[test]
    fn restructure_deltas_track_rebuild(seed in 0u64..5_000, ops in 1usize..20) {
        let mut mesh = random_mesh(3, 1.0, seed); // solid box
        mesh.enable_restructuring().unwrap();
        let mut idx = SurfaceIndex::build(&mesh).unwrap();
        let mut rng = SplitMix64::new(seed ^ 0xBEEF);
        for _ in 0..ops {
            if mesh.num_cells() <= 1 {
                break;
            }
            let cell = loop {
                let c = rng.index(mesh.cell_capacity()) as u32;
                if mesh.is_cell_alive(c) {
                    break c;
                }
            };
            let delta = if rng.chance(0.5) {
                mesh.remove_cell(cell).unwrap()
            } else {
                mesh.refine_tet(cell).unwrap().1
            };
            idx.apply_delta(&delta);
            prop_assert_eq!(
                as_set(&idx),
                as_set(&SurfaceIndex::build(&mesh).unwrap()),
                "index diverged from rebuild mid-sequence"
            );
        }
    }
}

/// Deterministic surface transition: refining an all-interior tet adds a
/// centroid that is *not* on the surface (the delta is vacuous for the
/// index), and removing one of the sub-tets then promotes that centroid
/// onto the surface — the delta stream reports both facts exactly.
#[test]
fn interior_refinement_then_removal_promotes_centroid() {
    let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
    let mut mesh = octopus_meshgen::tet::tetrahedralize(
        &octopus_meshgen::voxel::VoxelRegion::solid_box(&bounds, 3, 3, 3),
    )
    .unwrap();
    mesh.enable_restructuring().unwrap();
    let mut idx = SurfaceIndex::build(&mesh).unwrap();

    // The centre voxel's tets touch only interior vertices.
    let interior = (0..mesh.cell_capacity() as u32)
        .find(|&c| mesh.is_cell_alive(c) && mesh.cell(c).iter().all(|&v| !idx.contains(v)))
        .expect("a 3x3x3 solid box has an all-interior cell");

    let (centroid, delta) = mesh.refine_tet(interior).unwrap();
    idx.apply_delta(&delta);
    assert!(
        !idx.contains(centroid),
        "centroid of an interior tet must not join the surface"
    );
    assert_eq!(as_set(&idx), as_set(&SurfaceIndex::build(&mesh).unwrap()));

    // Removing one sub-tet leaves the centroid's other faces exposed.
    let sub = (0..mesh.cell_capacity() as u32)
        .find(|&c| mesh.is_cell_alive(c) && mesh.cell(c).contains(&centroid))
        .expect("refinement created sub-tets referencing the centroid");
    let delta = mesh.remove_cell(sub).unwrap();
    assert!(
        delta.added.contains(&centroid),
        "removal must report the promotion"
    );
    idx.apply_delta(&delta);
    assert!(
        idx.contains(centroid),
        "centroid must now be a surface vertex"
    );
    assert_eq!(as_set(&idx), as_set(&SurfaceIndex::build(&mesh).unwrap()));
}

/// Memory-gauge consistency: [`Octopus::publish_memory`] registers the
/// surface-index and crawler-scratch heap sizes as gauges whose sum
/// always equals [`Octopus::memory_bytes`], and the reading is monotone
/// non-decreasing under a growing query workload — scratch structures
/// only gain capacity, and the surface index does not change without a
/// restructure.
#[test]
fn memory_gauges_track_memory_bytes_monotonically() {
    let mut mesh = random_mesh(5, 1.0, 7);
    let mut octopus = Octopus::new(&mesh).unwrap();
    let registry = Registry::new();
    let metrics = ExecutorMetrics::register(&registry);
    octopus.attach_metrics(&metrics);

    let mut out = Vec::new();
    let mut last = 0usize;
    for i in 1..=4u32 {
        // Growing boxes touch ever more vertices, so the crawler's
        // visited/queue scratch can only gain capacity between queries.
        let q = Aabb::cube(Point3::splat(0.5), 0.1 + 0.15 * i as f32);
        octopus.query(&mesh, &q, &mut out);
        let published = octopus.publish_memory();
        assert_eq!(
            published,
            octopus.memory_bytes(),
            "publish_memory must return exactly what memory_bytes reports"
        );
        let snap = registry.snapshot();
        let gauge_total =
            snap.gauge("executor_surface_index_bytes") + snap.gauge("executor_scratch_bytes");
        assert_eq!(
            gauge_total, published as f64,
            "the two gauges must sum to the published total"
        );
        assert!(
            published >= last,
            "memory reading regressed under a growing workload: {published} < {last}"
        );
        last = published;
    }

    // A restructure-derived executor carries the metrics attachment
    // forward and keeps the gauges consistent with its own footprint.
    mesh.enable_restructuring().unwrap();
    let cell = (0..mesh.cell_capacity() as u32)
        .find(|&c| mesh.is_cell_alive(c))
        .expect("mesh has cells");
    let (_, delta) = mesh.refine_tet(cell).unwrap();
    let derived = octopus.restructured(&mesh, &delta);
    let published = derived.publish_memory();
    assert_eq!(published, derived.memory_bytes());
    let snap = registry.snapshot();
    assert_eq!(
        snap.gauge("executor_surface_index_bytes") + snap.gauge("executor_scratch_bytes"),
        published as f64
    );
}
