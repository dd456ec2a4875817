//! Properties of the layout engine (Hilbert relabelling): the
//! permutation is a true permutation, and relabelling is invisible to
//! query results on both random and neuron meshes.

use octopus_core::layout::{curve_permutation, hilbert_layout, CurveKind};
use octopus_core::Octopus;
use octopus_geom::rng::SplitMix64;
use octopus_geom::{Aabb, Point3, VertexId};
use octopus_mesh::Mesh;
use octopus_meshgen::{neuron, NeuroLevel};
use octopus_testkit::{random_mesh, scan_active, sorted};
use proptest::prelude::*;

/// Queries a mesh through the full executor and returns the sorted
/// result.
fn query(mesh: &Mesh, q: &Aabb) -> Vec<VertexId> {
    let mut octopus = Octopus::new(mesh).expect("surface");
    let mut out = Vec::new();
    octopus.query(mesh, q, &mut out);
    sorted(out)
}

/// A box around a random active vertex, sized to clip a non-trivial
/// neighbourhood out of the mesh.
fn probe_box(mesh: &Mesh, seed: u64, half: f32) -> Aabb {
    let mut rng = SplitMix64::new(seed);
    let v = rng.index(mesh.num_vertices());
    let c = mesh.position(v as VertexId);
    Aabb::new(
        Point3::new(c.x - half, c.y - half, c.z - half),
        Point3::new(c.x + half, c.y + half, c.z + half),
    )
}

/// Asserts that querying `laid_out` answers exactly what querying
/// `original` answers, modulo the relabelling `perm` (old id → new id).
fn assert_layout_invisible(original: &Mesh, laid_out: &Mesh, perm: &[VertexId], q: &Aabb) {
    let base = query(original, q);
    let relabelled = query(laid_out, q);
    let mapped = sorted(base.iter().map(|&v| perm[v as usize]).collect());
    assert_eq!(
        mapped, relabelled,
        "layout changed the answer set for {q:?}"
    );
    // And both agree with the active-vertex linear scan ground truth.
    assert_eq!(relabelled, sorted(scan_active(laid_out, q)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The Hilbert order is a bijection on vertex ids for arbitrary
    /// (often multi-component) random meshes.
    #[test]
    fn permutation_is_a_bijection(seed in 0u64..10_000, fill in 0.3f64..1.0) {
        let mesh = random_mesh(4, fill, seed);
        prop_assume!(mesh.num_vertices() > 0);
        let mut seen = curve_permutation(&mesh, CurveKind::Hilbert);
        seen.sort_unstable();
        let expect: Vec<VertexId> = (0..mesh.num_vertices() as u32).collect();
        prop_assert_eq!(seen, expect, "not a permutation");
    }

    /// Re-laying out a random mesh never changes what a query answers:
    /// the result set relabels exactly by the permutation, and agrees
    /// with the linear-scan ground truth.
    #[test]
    fn queries_are_layout_invariant_on_random_meshes(
        seed in 0u64..10_000,
        fill in 0.4f64..1.0,
        half in 0.08f32..0.35,
    ) {
        let mesh = random_mesh(4, fill, seed);
        prop_assume!(mesh.num_vertices() > 0);
        let (laid_out, perm) = hilbert_layout(&mesh);
        let q = probe_box(&mesh, seed ^ 0xA5A5, half);
        assert_layout_invisible(&mesh, &laid_out, &perm, &q);
    }
}

/// The neuron mesh (the bench's geometry): the Hilbert order is a
/// bijection and queries are layout invariant. One deterministic
/// case — the mesh is too expensive to regenerate per proptest case.
#[test]
fn neuron_queries_are_layout_invariant() {
    let mesh = neuron(NeuroLevel::L1, 0.5).expect("neuron");
    let perm = curve_permutation(&mesh, CurveKind::Hilbert);
    let mut seen = perm.clone();
    seen.sort_unstable();
    let expect: Vec<VertexId> = (0..mesh.num_vertices() as u32).collect();
    assert_eq!(seen, expect, "not a permutation");
    let (laid_out, perm) = hilbert_layout(&mesh);
    for (seed, half) in [(1u64, 0.1f32), (2, 0.2), (3, 0.3)] {
        let q = probe_box(&mesh, seed, half);
        assert_layout_invisible(&mesh, &laid_out, &perm, &q);
    }
}
