//! Surface invariance and incremental maintenance:
//! deformation never changes the surface; restructuring deltas applied to
//! a [`SurfaceIndex`] always equal a from-scratch rebuild.

use octopus::prelude::*;
use octopus_testkit::random_mesh;
use proptest::prelude::*;

fn sorted_ids(idx: &SurfaceIndex) -> Vec<VertexId> {
    let mut v = idx.ids().to_vec();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Deformation invariance: any in-place position rewrite leaves the
    /// extracted surface identical.
    #[test]
    fn deformation_never_changes_the_surface(
        seed in 0u64..5_000,
        scale_x in 0.1f32..5.0,
        offset in -10.0f32..10.0,
    ) {
        let mut mesh = random_mesh(4, 0.7, seed);
        prop_assume!(mesh.num_vertices() > 0);
        let before = mesh.surface().unwrap().vertices().to_vec();
        for p in mesh.positions_mut() {
            p.x = p.x * scale_x + offset;
            p.y = -p.y;
            p.z = p.z * 0.5 + p.x; // arbitrary deformation, even degenerate
        }
        let after = mesh.surface().unwrap();
        prop_assert_eq!(after.vertices(), &before[..]);
    }

    /// Incremental maintenance: random remove/refine sequences keep the
    /// delta-maintained surface index equal to a rebuild.
    #[test]
    fn deltas_equal_rebuild_after_random_restructuring(
        seed in 0u64..5_000,
        ops in 1usize..25,
    ) {
        let mut mesh = random_mesh(4, 0.85, seed);
        prop_assume!(mesh.num_cells() > ops);
        mesh.enable_restructuring().unwrap();
        let mut idx = SurfaceIndex::build(&mesh).unwrap();
        let mut rng = octopus::geom::rng::SplitMix64::new(seed ^ 0x5EED);
        for _ in 0..ops {
            if mesh.num_cells() <= 1 {
                break;
            }
            // Pick a live cell.
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
        }
        let rebuilt = SurfaceIndex::build(&mesh).unwrap();
        prop_assert_eq!(sorted_ids(&idx), sorted_ids(&rebuilt));
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
            let cell = loop {
                let c = rng.index(mesh.cell_capacity()) as u32;
                if mesh.is_cell_alive(c) {
                    break c;
                }
            };
            let delta = mesh.remove_cell(cell).unwrap();
            octopus.on_restructure(&mesh, &delta);
        }
        let q = Aabb::cube(Point3::splat(0.5), half);
        let mut out = Vec::new();
        octopus.query(&mesh, &q, &mut out);
        out.sort_unstable();
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
            let cell = loop {
                let c = rng.index(mesh.cell_capacity()) as u32;
                if mesh.is_cell_alive(c) {
                    break c;
                }
            };
            let delta = if rng.chance(0.6) {
                mesh.remove_cell(cell).unwrap()
            } else {
                mesh.refine_tet(cell).unwrap().1
            };
            octopus.on_restructure(&mesh, &delta);
        }
        let q = Aabb::cube(Point3::splat(0.5), half);
        let mut out = Vec::new();
        octopus.query(&mesh, &q, &mut out);
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
            let cell = loop {
                let c = rng.index(mesh.cell_capacity()) as u32;
                if mesh.is_cell_alive(c) {
                    break c;
                }
            };
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
        let cell = loop {
            let c = rng.index(mesh.cell_capacity()) as u32;
            if mesh.is_cell_alive(c) {
                break c;
            }
        };
        let delta = if rng.chance(0.6) {
            mesh.remove_cell(cell).unwrap()
        } else {
            mesh.refine_tet(cell).unwrap().1
        };
        octopus.on_restructure(&mesh, &delta);
    }
    let q = Aabb::cube(Point3::splat(0.5), half);
    let mut out = Vec::new();
    octopus.query(&mesh, &q, &mut out);
    out.sort_unstable();
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
    let mut octopus = Octopus::new(&mesh).unwrap();
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
    let mut out = Vec::new();
    let stats = octopus.query(&mesh, &q, &mut out);
    out.sort_unstable();
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
