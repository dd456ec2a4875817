//! Surface invariance and incremental maintenance (§IV-E): the surface
//! is a pure function of connectivity. Deformation never changes it, and
//! the executor derived from each restructuring delta
//! ([`Octopus::restructured`]) holds exactly the surface a fresh
//! extraction finds — the executor's per-component lists are its only
//! copy of it. The executor stays exact (or, where Algorithm 1's
//! documented blind spot applies, never wrong) through restructuring.

use octopus::core::PhaseTimings;
use octopus::prelude::*;
use octopus_testkit::{random_mesh, sorted};
use proptest::prelude::*;

/// The executor's surface, ascending.
fn surface_of(octopus: &Octopus) -> Vec<VertexId> {
    sorted(octopus.surface().collect())
}

/// `octopus`'s answer to `q` on `mesh` under the full surface probe.
fn full_probe(octopus: &Octopus, mesh: &Mesh, q: &Aabb) -> (Vec<VertexId>, PhaseTimings) {
    let mut out = Vec::new();
    let mut scratch = octopus.make_scratch(mesh);
    let stats = octopus.query_with(&mut scratch, mesh, q, Probe::Surface, &mut out);
    (out, stats)
}

/// A live cell of `mesh`, drawn from `rng`.
fn live_cell(mesh: &Mesh, rng: &mut octopus::geom::rng::SplitMix64) -> u32 {
    loop {
        let c = rng.index(mesh.cell_capacity()) as u32;
        if mesh.is_cell_alive(c) {
            return c;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Deformation invariance: any in-place position rewrite leaves the
    /// extracted surface identical, and the executor built before it
    /// holds that surface with no maintenance call.
    #[test]
    fn deformation_never_changes_the_surface(
        seed in 0u64..5_000,
        scale_x in 0.1f32..5.0,
        offset in -10.0f32..10.0,
    ) {
        let mut mesh = random_mesh(4, 0.7, seed);
        prop_assume!(mesh.num_vertices() > 0);
        let octopus = Octopus::new(&mesh).unwrap();
        let before = mesh.surface().unwrap().vertices().to_vec();
        for p in mesh.positions_mut() {
            p.x = p.x * scale_x + offset;
            p.y = -p.y;
            p.z = p.z * 0.5 + p.x; // arbitrary deformation, even degenerate
        }
        let after = mesh.surface().unwrap();
        prop_assert_eq!(after.vertices(), &before[..]);
        prop_assert_eq!(surface_of(&octopus), before);
    }

    /// Incremental maintenance: after every operation of a random
    /// remove/refine sequence, the executor derived from the delta holds
    /// exactly the surface a rebuild extracts.
    #[test]
    fn deltas_equal_rebuild_after_random_restructuring(
        seed in 0u64..5_000,
        ops in 1usize..25,
    ) {
        let mut mesh = random_mesh(4, 0.85, seed);
        prop_assume!(mesh.num_cells() > ops);
        mesh.enable_restructuring().unwrap();
        let mut octopus = Octopus::new(&mesh).unwrap();
        let mut rng = octopus::geom::rng::SplitMix64::new(seed ^ 0x5EED);
        for op in 0..ops {
            if mesh.num_cells() <= 1 {
                break;
            }
            let cell = live_cell(&mesh, &mut rng);
            let delta = if rng.chance(0.5) {
                mesh.remove_cell(cell).unwrap()
            } else {
                mesh.refine_tet(cell).unwrap().1
            };
            octopus = octopus.restructured(&mesh, &delta);
            let rebuilt = mesh.surface().unwrap();
            prop_assert_eq!(
                surface_of(&octopus),
                rebuilt.vertices(),
                "op {}: the derived surface diverged from a rebuild",
                op
            );
        }
    }

    /// OCTOPUS remains exact after restructuring when fed the deltas.
    ///
    /// Workload regime note: queries are kept wider than ~3 lattice
    /// steps and refinement is excluded here. Sub-cell-sized queries can
    /// contain a vertex whose graph neighbours all lie outside the query
    /// — unreachable by the crawl whenever the same component also
    /// produced probe seeds. That blind spot is inherited from the
    /// paper's Algorithm 1 (see `inherited_algorithm1_gap_is_pinned`
    /// below); the paper's own workloads, like these, use queries that
    /// are large relative to the local cell size.
    #[test]
    fn octopus_exact_after_restructuring(
        seed in 0u64..3_000,
        ops in 1usize..12,
        half in 0.25f32..0.6,
    ) {
        let mut mesh = random_mesh(6, 0.85, seed);
        prop_assume!(mesh.num_cells() > 2 * ops);
        mesh.enable_restructuring().unwrap();
        let mut octopus = Octopus::new(&mesh).unwrap();
        let mut rng = octopus::geom::rng::SplitMix64::new(seed ^ 0xB0B);
        for _ in 0..ops {
            let cell = live_cell(&mesh, &mut rng);
            let delta = mesh.remove_cell(cell).unwrap();
            octopus = octopus.restructured(&mesh, &delta);
        }
        let q = Aabb::cube(Point3::splat(0.5), half);
        let out = sorted(full_probe(&octopus, &mesh, &q).0);
        // Ground truth over *active* vertices: cell removal may orphan
        // vertices, which leave the mesh (see Mesh::is_vertex_active).
        let expected: Vec<VertexId> = mesh
            .positions()
            .iter()
            .enumerate()
            .filter(|(i, p)| mesh.is_vertex_active(*i as VertexId) && q.contains(**p))
            .map(|(i, _)| i as VertexId)
            .collect();
        prop_assert_eq!(out, expected);
    }

    /// Results are always a **subset** of the ground truth, even in the
    /// regime where Algorithm 1's completeness argument breaks (mixed
    /// refine/remove, arbitrarily small queries): OCTOPUS never invents
    /// vertices.
    #[test]
    fn octopus_never_returns_false_positives_after_restructuring(
        seed in 0u64..3_000,
        ops in 1usize..12,
        half in 0.02f32..0.6,
    ) {
        let mut mesh = random_mesh(4, 0.85, seed);
        prop_assume!(mesh.num_cells() > 2 * ops);
        mesh.enable_restructuring().unwrap();
        let mut octopus = Octopus::new(&mesh).unwrap();
        let mut rng = octopus::geom::rng::SplitMix64::new(seed ^ 0xB0B);
        for _ in 0..ops {
            let cell = live_cell(&mesh, &mut rng);
            let delta = if rng.chance(0.6) {
                mesh.remove_cell(cell).unwrap()
            } else {
                mesh.refine_tet(cell).unwrap().1
            };
            octopus = octopus.restructured(&mesh, &delta);
        }
        let q = Aabb::cube(Point3::splat(0.5), half);
        let (out, _) = full_probe(&octopus, &mesh, &q);
        for &v in &out {
            prop_assert!(mesh.is_vertex_active(v));
            prop_assert!(q.contains(mesh.position(v)));
        }
    }

    /// Mesh validation holds after any restructuring sequence.
    #[test]
    fn mesh_stays_valid_after_restructuring(
        seed in 0u64..2_000,
        ops in 1usize..15,
    ) {
        let mut mesh = random_mesh(3, 0.9, seed);
        prop_assume!(mesh.num_cells() > ops);
        mesh.enable_restructuring().unwrap();
        let mut rng = octopus::geom::rng::SplitMix64::new(seed);
        for _ in 0..ops {
            if mesh.num_cells() <= 1 {
                break;
            }
            let cell = live_cell(&mesh, &mut rng);
            if rng.chance(0.5) {
                mesh.remove_cell(cell).unwrap();
            } else {
                mesh.refine_tet(cell).unwrap();
            }
        }
        octopus::mesh::validate::validate(&mesh).unwrap();
    }
}

/// **Reproduction finding, pinned.** The paper's §IV-C claims every
/// disjoint sub-mesh produced by intersecting a query with the mesh
/// contains a surface vertex inside the query, so Algorithm 1 only runs
/// the directed walk when *no* surface vertex seeds exist. The claim is
/// false at the vertex-graph level: after refining a tetrahedron, its
/// centroid can lie inside a sub-cell-sized query whose box excludes all
/// of the centroid's neighbours, while the *same component* provides
/// probe seeds elsewhere in the query — the crawl then provably cannot
/// reach the centroid. This test documents the minimal case found by the
/// property suite (and guards that the subset property still holds).
#[test]
fn inherited_algorithm1_gap_is_pinned() {
    let (seed, ops) = (404u64, 5usize);
    let half = 0.18941382f32;
    let mut mesh = random_mesh(4, 0.85, seed);
    mesh.enable_restructuring().unwrap();
    let mut octopus = Octopus::new(&mesh).unwrap();
    let mut rng = octopus::geom::rng::SplitMix64::new(seed ^ 0xB0B);
    for _ in 0..ops {
        let cell = live_cell(&mesh, &mut rng);
        let delta = if rng.chance(0.6) {
            mesh.remove_cell(cell).unwrap()
        } else {
            mesh.refine_tet(cell).unwrap().1
        };
        octopus = octopus.restructured(&mesh, &delta);
    }
    let q = Aabb::cube(Point3::splat(0.5), half);
    let out = sorted(full_probe(&octopus, &mesh, &q).0);
    let expected: Vec<VertexId> = mesh
        .positions()
        .iter()
        .enumerate()
        .filter(|(i, p)| mesh.is_vertex_active(*i as VertexId) && q.contains(**p))
        .map(|(i, _)| i as VertexId)
        .collect();
    // Subset always holds…
    assert!(out.iter().all(|v| expected.contains(v)));
    // …and the known gap manifests here: a refined centroid inside the
    // query with every neighbour outside it is unreachable. If mesh
    // generation ever changes and the gap closes, this assertion will
    // flag it so the documentation can be updated.
    let missing: Vec<VertexId> = expected
        .iter()
        .copied()
        .filter(|v| !out.contains(v))
        .collect();
    assert_eq!(
        missing.len(),
        1,
        "expected exactly the pinned miss, got {missing:?}"
    );
    let v = missing[0];
    assert!(
        mesh.neighbors(v)
            .iter()
            .all(|&w| !q.contains(mesh.position(w))),
        "the missed vertex must be crawl-unreachable (all neighbours outside the query)"
    );
}

/// The component-aware extension (the reproduction finding documented on
/// `ComponentMap` in `crates/core/src/executor.rs`): a query clipping component
/// A's surface while enclosing interior material of component B — with
/// B's intervening surface vertices deformed out of the query — must
/// still return B's interior vertices. Plain Algorithm 1 skips the walk
/// because A supplied seeds; the per-component directed walk finds them.
///
/// (On an undeformed lattice this situation cannot arise for box
/// queries: reaching B's interior always sweeps B's wall vertices too.
/// Deformation — the paper's core workload! — breaks that: the wall
/// bulges out of the box while the interior stays inside.)
#[test]
fn component_aware_walk_finds_interior_of_other_component() {
    // Two solid bars: A thin (1 voxel), B thick (5×5×5 voxels), apart in x.
    let bounds = Aabb::new(Point3::ORIGIN, Point3::new(12.0, 5.0, 5.0));
    let region = octopus::meshgen::voxel::VoxelRegion::from_fn(&bounds, 12, 5, 5, |p| {
        p.x < 1.0 || (p.x > 6.0 && p.x < 11.0)
    });
    let mut mesh = octopus::meshgen::tet::tetrahedralize(&region).unwrap();
    let (comp, n) = mesh.adjacency().connected_components();
    assert_eq!(n, 2, "two disjoint bars");
    let octopus = Octopus::new(&mesh).unwrap();
    let surface = mesh.surface().unwrap();

    // Deformation step: bulge ALL of B's surface vertices far out of the
    // upcoming query box (+10 in y). B's interior vertices stay put —
    // the in-box part of B is now entirely interior material.
    let b_component = comp[(mesh.num_vertices() - 1) as usize]; // last vertex is in B
    for v in 0..mesh.num_vertices() as u32 {
        if comp[v as usize] == b_component && surface.contains(v) {
            mesh.positions_mut()[v as usize].y += 10.0;
        }
    }

    // Query: covers bar A entirely (surface seeds) and B's (former)
    // interior region.
    let q = Aabb::new(Point3::new(-0.5, -0.5, -0.5), Point3::new(8.4, 5.5, 5.5));
    let (out, stats) = full_probe(&octopus, &mesh, &q);
    let out = sorted(out);
    let expected: Vec<VertexId> = mesh
        .positions()
        .iter()
        .enumerate()
        .filter(|(_, p)| q.contains(**p))
        .map(|(i, _)| i as VertexId)
        .collect();
    // Pre-conditions for the scenario to be the interesting one:
    let b_in_q = expected
        .iter()
        .filter(|&&v| comp[v as usize] == b_component)
        .count();
    assert!(b_in_q > 0, "B must contribute in-query vertices");
    assert!(
        expected
            .iter()
            .all(|&v| comp[v as usize] != b_component || !surface.contains(v)),
        "none of B's surface vertices may lie in the query"
    );
    assert_eq!(
        out, expected,
        "component-aware walk must recover B's interior"
    );
    assert!(
        stats.walk_visited > 0,
        "the walk must have run for component B"
    );
}

/// Deterministic surface transition: refining an all-interior tet adds a
/// centroid that is *not* on the surface (the delta leaves the surface
/// alone), and removing one of the sub-tets then promotes that centroid
/// onto the surface — the delta stream reports both facts exactly, and
/// the executor derived from each holds the rebuilt surface.
#[test]
fn interior_refinement_then_removal_promotes_centroid() {
    let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
    let mut mesh =
        octopus::meshgen::tet::tetrahedralize(&VoxelRegion::solid_box(&bounds, 3, 3, 3)).unwrap();
    mesh.enable_restructuring().unwrap();
    let mut octopus = Octopus::new(&mesh).unwrap();
    let rebuilt = |mesh: &Mesh| mesh.surface().unwrap().vertices().to_vec();

    // The centre voxel's tets touch only interior vertices.
    let surface = surface_of(&octopus);
    let interior = (0..mesh.cell_capacity() as u32)
        .find(|&c| {
            mesh.is_cell_alive(c)
                && mesh
                    .cell(c)
                    .iter()
                    .all(|v| surface.binary_search(v).is_err())
        })
        .expect("a 3x3x3 solid box has an all-interior cell");

    let (centroid, delta) = mesh.refine_tet(interior).unwrap();
    octopus = octopus.restructured(&mesh, &delta);
    assert!(
        !octopus.surface().any(|v| v == centroid),
        "centroid of an interior tet must not join the surface"
    );
    assert_eq!(surface_of(&octopus), rebuilt(&mesh));

    // Removing one sub-tet leaves the centroid's other faces exposed.
    let sub = (0..mesh.cell_capacity() as u32)
        .find(|&c| mesh.is_cell_alive(c) && mesh.cell(c).contains(&centroid))
        .expect("refinement created sub-tets referencing the centroid");
    let delta = mesh.remove_cell(sub).unwrap();
    assert!(
        delta.added.contains(&centroid),
        "removal must report the promotion"
    );
    octopus = octopus.restructured(&mesh, &delta);
    assert!(
        octopus.surface().any(|v| v == centroid),
        "centroid must now be a surface vertex"
    );
    assert_eq!(surface_of(&octopus), rebuilt(&mesh));
}
