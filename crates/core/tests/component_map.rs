//! The executor's component map is patched from each restructuring
//! delta and mapped through each relabelling; it is searched afresh only
//! where a patch cannot vouch for itself. This suite holds it to the
//! search it replaced (`Csr::connected_components`) after every
//! operation of seeded `refine_tet` / `remove_cell` sequences on tet and
//! hex grids, and of a simulation's merged three-operation events on the
//! neuron mesh, for the chain of executors each derived from the last by
//! the operation's delta (`Octopus::restructured`):
//!
//! * the same partition of the vertices, up to renumbering, as many
//!   components, and the same surface vertices in each — together
//!   exactly the mesh's surface, the executor's only copy of it;
//! * a surface grid built on it bounds every component's surface
//!   anchors;
//! * every box query equals the scan, up to Algorithm 1's documented
//!   blind spot (ROADMAP item 1);
//! * the derived chain's surface grid, patched from each delta as the
//!   monitor patches it (`Octopus::patched_surface_grid`), holds exactly
//!   the executor's surface ids, each once, bounds every component's
//!   anchors under the new labels, and at its measured reach seeds what
//!   a freshly built grid and the full probe seed — and answers as the
//!   full probe does.
//!
//! And the named cases: a removal that splits a component (the search
//! runs and is counted), orphaned vertices, a delta that does not
//! account for every operation (the search, counted), a patch that
//! gives up halfway through its list edits (the search, counted, and
//! still the delta's surface), and a relabelled executor (equal to a
//! fresh build, ids included). CI runs the suite
//! under `--release` too, where the executor's own cross-check of every
//! patch — a `debug_assert` — is compiled out.

use octopus_core::{ExecutorMetrics, Octopus, Probe, SurfaceGrid};
use octopus_geom::rng::SplitMix64;
use octopus_geom::{Aabb, Point3, VertexId};
use octopus_mesh::{Mesh, SurfaceDelta};
use octopus_meshgen::hex::hexahedralize;
use octopus_meshgen::voxel::VoxelRegion;
use octopus_meshgen::{neuron, NeuroLevel};
use octopus_sim::{RestructureSchedule, Simulation, SmoothRandomField};
use octopus_telemetry::Registry;
use octopus_testkit::{box_mesh, random_mesh, scan_active, sorted};
use proptest::prelude::*;

/// An executor recording into its own registry, so a test can read how
/// its component map followed the mesh.
fn counted(mesh: &Mesh) -> (Octopus, Registry) {
    let registry = Registry::new();
    let octopus = Octopus::new(mesh).unwrap();
    octopus.attach_metrics(&ExecutorMetrics::register(&registry));
    (octopus, registry)
}

/// `(patches, searches)` recorded so far.
fn followed(registry: &Registry) -> (u64, u64) {
    let snap = registry.snapshot();
    (
        snap.counter("executor_component_patches_total"),
        snap.counter("executor_component_rebuilds_total"),
    )
}

/// The map is the search's over `mesh` up to the numbering: the same
/// partition, as many components, and each component's list is exactly
/// its surface vertices, ascending — all of them together the surface
/// `mesh` extracts.
fn assert_map_is_the_search(octopus: &Octopus, mesh: &Mesh, ctx: &str) {
    let (ours, lists) = octopus.component_map();
    let (theirs, count) = mesh.adjacency().connected_components();
    assert_eq!(lists.len(), count, "{ctx}: component count");
    assert_eq!(ours.len(), theirs.len(), "{ctx}: vertex count");
    let (mut to_theirs, mut to_ours) = (vec![None; count], vec![None; count]);
    for (v, (&a, &b)) in ours.iter().zip(&theirs).enumerate() {
        assert_eq!(
            *to_theirs[a as usize].get_or_insert(b),
            b,
            "{ctx}: vertex {v} is apart from a vertex it shares a component with"
        );
        assert_eq!(
            *to_ours[b as usize].get_or_insert(a),
            a,
            "{ctx}: vertex {v} shares a component with one it is apart from"
        );
    }
    let surface = sorted(octopus.surface().collect());
    assert_eq!(
        surface,
        mesh.surface().unwrap().vertices(),
        "{ctx}: the executor's surface is the mesh's"
    );
    for (k, ids) in lists.iter().enumerate() {
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ctx}: list {k}");
        for &v in ids {
            assert_eq!(ours[v as usize] as usize, k, "{ctx}: {v} listed apart");
            assert!(surface.binary_search(&v).is_ok(), "{ctx}: {v} listed");
        }
    }
    let listed: usize = lists.iter().map(Vec::len).sum();
    assert_eq!(listed, surface.len(), "{ctx}: every surface vertex listed");
}

/// A grid built on the map bounds every component's surface anchors.
fn assert_grid_bounds_the_anchors(octopus: &Octopus, mesh: &Mesh, ctx: &str) {
    let grid = octopus.surface_grid(mesh.positions(), 0.25);
    let (label, _) = octopus.component_map();
    for v in octopus.surface() {
        let p = mesh.position(v);
        assert!(
            grid.component_in_reach(label[v as usize] as usize, &Aabb::new(p, p), 0.0),
            "{ctx}: anchor {v} outside its component's bound"
        );
    }
}

/// Random boxes under both probes equal the scan, up to the blind spot:
/// a missing vertex is interior and none of its neighbours was reached.
fn assert_queries_exact(octopus: &Octopus, mesh: &Mesh, rng: &mut SplitMix64, ctx: &str) {
    let grid = octopus.surface_grid(mesh.positions(), 0.25);
    let bounds = mesh.bounding_box();
    let mut scratch = octopus.make_scratch(mesh);
    for i in 0..6 {
        let c = Point3::new(
            rng.range_f32(bounds.min.x, bounds.max.x),
            rng.range_f32(bounds.min.y, bounds.max.y),
            rng.range_f32(bounds.min.z, bounds.max.z),
        );
        let q = Aabb::cube(c, rng.range_f32(0.05, 0.35));
        let want = scan_active(mesh, &q);
        let grid_probe = Probe::Grid {
            grid: &grid,
            reach: 0.0,
        };
        for probe in [Probe::Surface, grid_probe] {
            let mut out = Vec::new();
            octopus.query_with(&mut scratch, mesh, &q, probe, &mut out);
            let got = sorted(out);
            assert!(
                got.iter().all(|v| want.binary_search(v).is_ok()),
                "{ctx}: query {i} answered a vertex outside the box"
            );
            for &v in want.iter().filter(|v| got.binary_search(v).is_err()) {
                let reachable = mesh
                    .neighbors(v)
                    .iter()
                    .any(|w| got.binary_search(w).is_ok());
                assert!(
                    !reachable && !octopus.surface().any(|s| s == v),
                    "{ctx}: query {i} lost vertex {v}, no blind spot"
                );
            }
        }
    }
}

/// What a probe through `grid` at `reach` seeds: the ids of the runs it
/// visits that pass the containment test, ascending. Panics on an id
/// visited twice.
fn grid_seeds(grid: &SurfaceGrid, mesh: &Mesh, q: &Aabb, reach: f32) -> Vec<VertexId> {
    let seeds = sorted(
        grid.runs(q, reach)
            .flatten()
            .copied()
            .filter(|&v| q.contains(mesh.position(v)))
            .collect(),
    );
    assert!(seeds.windows(2).all(|w| w[0] < w[1]), "an id visited twice");
    seeds
}

/// A grid patched along a chain of deltas is the executor's: its ids
/// are the surface, each once; each component's bound holds the
/// anchors the labels give it, and is exactly their box — it rules
/// components in and out as a grid built at those anchors under the
/// same labels does; and at the grid's reach, random boxes seed through
/// it what they seed through a fresh grid and the full probe, and get
/// the full probe's answer.
fn assert_patched_grid(
    octopus: &Octopus,
    grid: &SurfaceGrid,
    mesh: &Mesh,
    rng: &mut SplitMix64,
    ctx: &str,
) {
    let held = sorted(grid.ids().to_vec());
    assert!(
        held.windows(2).all(|w| w[0] < w[1]),
        "{ctx}: an id held twice"
    );
    assert_eq!(
        held,
        sorted(octopus.surface().collect()),
        "{ctx}: the patched grid holds other ids than the surface"
    );
    let (label, lists) = octopus.component_map();
    let mut at_anchors = mesh.positions().to_vec();
    for (&v, &a) in grid.ids().iter().zip(grid.anchors()) {
        assert!(
            grid.component_in_reach(label[v as usize] as usize, &Aabb::new(a, a), 0.0),
            "{ctx}: anchor of {v} outside its component's bound"
        );
        at_anchors[v as usize] = a;
    }
    let anchored = SurfaceGrid::build(grid.ids(), &at_anchors, label, lists.len(), grid.cell());
    let reach = grid.reach(mesh.positions());
    assert!(reach.is_finite(), "{ctx}: premise: finite positions");
    let fresh = octopus.surface_grid(mesh.positions(), grid.cell());
    let bounds = mesh.bounding_box();
    let extent = bounds.extent();
    let size = extent.x.max(extent.y).max(extent.z);
    let mut scratch = octopus.make_scratch(mesh);
    for i in 0..6 {
        let c = Point3::new(
            rng.range_f32(bounds.min.x, bounds.max.x),
            rng.range_f32(bounds.min.y, bounds.max.y),
            rng.range_f32(bounds.min.z, bounds.max.z),
        );
        let q = Aabb::cube(c, rng.range_f32(0.02, 0.35) * size);
        let probed: Vec<VertexId> = sorted(
            octopus
                .surface()
                .filter(|&v| q.contains(mesh.position(v)))
                .collect(),
        );
        for k in 0..lists.len() {
            assert_eq!(
                grid.component_in_reach(k, &q, reach),
                anchored.component_in_reach(k, &q, reach),
                "{ctx}: box {i}, the bound of component {k}"
            );
        }
        let seeds = grid_seeds(grid, mesh, &q, reach);
        assert_eq!(seeds, grid_seeds(&fresh, mesh, &q, 0.0), "{ctx}: box {i}");
        assert_eq!(seeds, probed, "{ctx}: box {i}");
        let mut answers = [Vec::new(), Vec::new()];
        let patched = Probe::Grid { grid, reach };
        for (probe, out) in [Probe::Surface, patched].into_iter().zip(&mut answers) {
            octopus.query_with(&mut scratch, mesh, &q, probe, out);
            out.sort_unstable();
        }
        assert_eq!(answers[0], answers[1], "{ctx}: box {i} answers");
    }
}

/// The grid cell the monitor uses: four typical edges.
fn grid_cell(mesh: &Mesh) -> f32 {
    4.0 * (mesh.bounding_box().volume() / mesh.num_vertices() as f64).cbrt() as f32
}

fn assert_follows(octopus: &Octopus, mesh: &Mesh, rng: &mut SplitMix64, ctx: &str) {
    assert_map_is_the_search(octopus, mesh, ctx);
    assert_grid_bounds_the_anchors(octopus, mesh, ctx);
    assert_queries_exact(octopus, mesh, rng, ctx);
}

fn hex_box(n: usize) -> Mesh {
    let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
    hexahedralize(&VoxelRegion::solid_box(&bounds, n, n, n)).unwrap()
}

/// Runs seeded operations on `mesh` (refinements only on tets), feeding
/// each delta to the chain of executors derived from the previous one
/// by a ring-style snapshot, whose grid is patched along, and holds
/// both to the search after each. Returns the chain's
/// `(patches, searches)`.
fn run_ops(mut mesh: Mesh, seed: u64, ops: usize) -> (u64, u64) {
    mesh.enable_restructuring().unwrap();
    let mut rng = SplitMix64::new(seed);
    let (mut derived, registry) = counted(&mesh);
    let mut grid = derived.surface_grid(mesh.positions(), grid_cell(&mesh));
    let refines = mesh.kind() == octopus_mesh::CellKind::Tet4;
    for op in 0..ops {
        if mesh.num_cells() <= 1 {
            break;
        }
        let c = loop {
            let c = rng.index(mesh.cell_capacity()) as u32;
            if mesh.is_cell_alive(c) {
                break c;
            }
        };
        let delta = if refines && rng.chance(0.4) {
            mesh.refine_tet(c).unwrap().1
        } else {
            mesh.remove_cell(c).unwrap()
        };
        derived = derived.restructured(&mesh.snapshot(), &delta);
        grid = derived.patched_surface_grid(&grid, mesh.positions(), &delta);
        let ctx = format!("seed {seed} op {op}");
        assert_follows(&derived, &mesh, &mut rng, &format!("{ctx}, derived"));
        assert_patched_grid(&derived, &grid, &mesh, &mut rng, &format!("{ctx}, patched"));
    }
    followed(&registry)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tet lattices, removed down to a few cells: splits and orphans
    /// on the way.
    #[test]
    fn tet_map_is_the_search_after_every_op(n in 1usize..5, seed in 0u64..10_000) {
        let (patches, searches) = run_ops(box_mesh(n), seed, 80);
        prop_assert!(patches + searches > 0);
    }

    /// Hex lattices (no refinement: removals only).
    #[test]
    fn hex_map_is_the_search_after_every_op(n in 2usize..4, seed in 0u64..10_000) {
        let (patches, searches) = run_ops(hex_box(n), seed, 40);
        prop_assert!(patches + searches > 0);
    }
}

/// A simulation's scheduled events — three operations merged into one
/// delta, deformation between them — on the two-arbor neuron mesh. The
/// search runs for a small share of the events at most. The derived
/// chain's grid is patched along, its kept anchors drifting from the
/// positions as the monitor's do.
#[test]
fn merged_events_on_the_neuron_mesh_follow_the_search() {
    let mesh = neuron(NeuroLevel::L1, 0.4).unwrap();
    let mut sim = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.01, 3, 9)))
        .with_restructuring(RestructureSchedule::new(1, 3, 21))
        .unwrap();
    let (mut derived, registry) = counted(sim.mesh());
    let mut grid = derived.surface_grid(sim.mesh().positions(), grid_cell(sim.mesh()));
    let mut rng = SplitMix64::new(4);
    let events = 40;
    for step in 0..events {
        let outcome = sim.step_outcome().unwrap();
        assert!(outcome.restructured && outcome.delta.ops == 3);
        derived = derived.restructured(&sim.mesh().snapshot(), &outcome.delta);
        grid = derived.patched_surface_grid(&grid, sim.mesh().positions(), &outcome.delta);
        assert_follows(&derived, sim.mesh(), &mut rng, &format!("step {step}"));
        let ctx = format!("step {step}, patched");
        assert_patched_grid(&derived, &grid, sim.mesh(), &mut rng, &ctx);
    }
    assert!(
        grid.reach(sim.mesh().positions()) > 0.0,
        "test premise: the kept anchors drifted"
    );
    let (patches, searches) = followed(&registry);
    assert_eq!(patches + searches, events);
    assert!(
        searches * 4 <= events,
        "{searches} of {events} events needed the search"
    );
}

/// Two lattice lobes joined by one tetrahedron with an edge in each:
/// removing it splits the one component in two. The patch cannot vouch
/// for that, the search runs — counted — and the map is its result.
#[test]
fn a_removal_that_splits_a_component_takes_the_counted_search() {
    let lobe = box_mesh(2);
    let n = lobe.num_vertices() as VertexId;
    let mut positions = lobe.positions().to_vec();
    positions.extend(
        lobe.positions()
            .iter()
            .map(|p| Point3::new(p.x + 3.0, p.y, p.z)),
    );
    let mut tets: Vec<[VertexId; 4]> = Vec::new();
    for shift in [0, n] {
        tets.extend(lobe.live_cells().map(|(_, c)| {
            let c: [VertexId; 4] = c.try_into().unwrap();
            c.map(|v| v + shift)
        }));
    }
    // An edge of the first lobe's cell 0 and of the second's.
    let (a, b) = (tets[0][0], tets[0][1]);
    let bridge = tets.len() as u32;
    tets.push([a, b, a + n, b + n]);
    let mut mesh = Mesh::from_tets(positions, tets).unwrap();
    mesh.enable_restructuring().unwrap();
    let (mut octopus, registry) = counted(&mesh);
    assert_eq!(octopus.component_map().1.len(), 1, "bridged: one component");
    let grid = octopus.surface_grid(mesh.positions(), grid_cell(&mesh));

    let delta = mesh.remove_cell(bridge).unwrap();
    octopus = octopus.restructured(&mesh, &delta);
    assert_eq!(followed(&registry), (0, 1), "the split took the search");
    assert_eq!(octopus.component_map().1.len(), 2, "split: two components");
    let mut rng = SplitMix64::new(1);
    assert_follows(&octopus, &mesh, &mut rng, "after the split");
    // The grid patched across the split bounds each lobe on its own.
    let patched = octopus.patched_surface_grid(&grid, mesh.positions(), &delta);
    assert_patched_grid(
        &octopus,
        &patched,
        &mesh,
        &mut rng,
        "patched across the split",
    );
    let lobe = |shift: f32| Aabb::cube(Point3::new(0.5 + shift, 0.5, 0.5), 0.25);
    let (label, _) = octopus.component_map();
    let (a, b) = (label[0] as usize, label[n as usize] as usize);
    assert_ne!(a, b);
    assert!(patched.component_in_reach(a, &lobe(0.0), 0.0));
    assert!(!patched.component_in_reach(a, &lobe(3.0), 0.0));
    assert!(!patched.component_in_reach(b, &lobe(0.0), 0.0));

    // A removal inside a lobe leaves it whole: patched.
    let delta = mesh.remove_cell(7).unwrap();
    octopus = octopus.restructured(&mesh, &delta);
    assert_eq!(followed(&registry), (1, 1));
    assert_map_is_the_search(&octopus, &mesh, "after an inner removal");
}

/// Removing every cell around a vertex orphans it — a component of its
/// own, with a fresh id — and removing a cell apart from everything
/// orphans all four of its vertices: the first keeps the cell's id, the
/// others get fresh ones. Both are patched, not searched — and so is
/// the grid, whose bounds follow the fresh ids (an orphan is no surface
/// vertex: its label bounds nothing).
#[test]
fn orphaned_vertices_are_patched_into_components_of_their_own() {
    let mut mesh = box_mesh(2);
    let lone = mesh.num_vertices() as VertexId;
    let mut positions = mesh.positions().to_vec();
    positions.extend([
        Point3::new(5.0, 0.0, 0.0),
        Point3::new(6.0, 0.0, 0.0),
        Point3::new(5.0, 1.0, 0.0),
        Point3::new(5.0, 0.0, 1.0),
    ]);
    let mut tets: Vec<[VertexId; 4]> = mesh
        .live_cells()
        .map(|(_, c)| c.try_into().unwrap())
        .collect();
    let lone_cell = tets.len() as u32;
    tets.push([lone, lone + 1, lone + 2, lone + 3]);
    mesh = Mesh::from_tets(positions, tets).unwrap();
    mesh.enable_restructuring().unwrap();
    let (mut octopus, registry) = counted(&mesh);
    let mut rng = SplitMix64::new(3);
    assert_eq!(octopus.component_map().1.len(), 2);
    let mut grid = octopus.surface_grid(mesh.positions(), grid_cell(&mesh));

    // Vertex 0 is a corner of the lattice: remove every cell at it.
    let around: Vec<u32> = mesh
        .live_cells()
        .filter(|(_, c)| c.contains(&0))
        .map(|(id, _)| id)
        .collect();
    for c in around {
        let delta = mesh.remove_cell(c).unwrap();
        octopus = octopus.restructured(&mesh, &delta);
        grid = octopus.patched_surface_grid(&grid, mesh.positions(), &delta);
        let ctx = format!("after removing {c}");
        assert_follows(&octopus, &mesh, &mut rng, &ctx);
        assert_patched_grid(&octopus, &grid, &mesh, &mut rng, &ctx);
    }
    assert!(!mesh.is_vertex_active(0));
    let orphaned = (0..mesh.num_vertices() as VertexId)
        .filter(|&v| !mesh.is_vertex_active(v))
        .count();
    assert_eq!(octopus.component_map().1.len(), 2 + orphaned);

    let delta = mesh.remove_cell(lone_cell).unwrap();
    octopus = octopus.restructured(&mesh, &delta);
    grid = octopus.patched_surface_grid(&grid, mesh.positions(), &delta);
    assert_follows(&octopus, &mesh, &mut rng, "after removing the lone cell");
    assert_patched_grid(&octopus, &grid, &mesh, &mut rng, "the lone cell's grid");
    let (label, lists) = octopus.component_map();
    assert_eq!(lists.len(), 2 + orphaned + 3, "four orphans, one kept id");
    assert_eq!(label[lone as usize], 1, "the first orphan keeps the id");
    assert_eq!(followed(&registry).1, 0, "nothing needed the search");
}

/// A delta must account for every operation since the map's mesh: one
/// that skips an operation — a refinement, whose surface delta is empty,
/// so the lists with the delta applied are still the surface — or
/// claims one too many gets the search, counted, never a stale map.
#[test]
fn a_delta_that_skips_an_operation_takes_the_counted_search() {
    let mut mesh = box_mesh(3);
    mesh.enable_restructuring().unwrap();
    let (mut octopus, registry) = counted(&mesh);
    let mut rng = SplitMix64::new(8);

    let (centroid, skipped) = mesh.refine_tet(4).unwrap();
    assert!(skipped.is_empty(), "a refinement keeps the surface");
    let delta = mesh.remove_cell(11).unwrap();
    octopus = octopus.restructured(&mesh, &delta);
    assert_eq!(followed(&registry), (0, 1), "one operation unaccounted for");
    assert_follows(&octopus, &mesh, &mut rng, "after the skipped refinement");
    assert_eq!(
        octopus.component_map().0.len(),
        centroid as usize + 1,
        "the search saw the centroid"
    );

    let delta = mesh.remove_cell(20).unwrap();
    let overclaimed = SurfaceDelta {
        ops: 2,
        ..delta.clone()
    };
    let derived = octopus.restructured(&mesh, &overclaimed);
    assert_eq!(followed(&registry), (0, 2), "one operation too many");
    assert_map_is_the_search(&derived, &mesh, "after an over-claiming delta");
    let _ = octopus.restructured(&mesh, &delta);
    assert_eq!(followed(&registry), (1, 2), "the true delta patches");
}

/// A patch that gives up halfway through its list edits — here at an
/// `added` id already on the surface, after the delta's true ids went
/// in — takes the counted search, and the search keeps the surface the
/// delta describes: the lists' ids − `removed` + `added`, neither the
/// half-edited lists nor a fresh extraction.
#[test]
fn a_patch_that_gives_up_midway_keeps_the_delta_surface() {
    let mut mesh = box_mesh(3);
    mesh.enable_restructuring().unwrap();
    let (mut octopus, registry) = counted(&mesh);
    let mut rng = SplitMix64::new(6);
    let delta = loop {
        let c = rng.index(mesh.cell_capacity()) as u32;
        if !mesh.is_cell_alive(c) {
            continue;
        }
        let delta = mesh.remove_cell(c).unwrap();
        if !delta.added.is_empty() {
            break delta;
        }
        octopus = octopus.restructured(&mesh, &delta);
    };
    let searched = followed(&registry).1;
    let mut midway = delta.clone();
    let kept = octopus
        .surface()
        .find(|v| !delta.removed.contains(v))
        .expect("the surface keeps a vertex");
    midway.added.push(kept);
    octopus = octopus.restructured(&mesh, &midway);
    assert_eq!(followed(&registry).1, searched + 1, "the patch gave up");
    assert_follows(&octopus, &mesh, &mut rng, "after the midway give-up");
}

/// A relabelled executor — after a sequence of patches, whose ids are
/// not the search's — equals a fresh build of the relabelled mesh, ids
/// included, and costs no search.
#[test]
fn a_relabelled_executor_equals_a_fresh_build() {
    // Sparse voxels: many components; mostly removals, which orphan.
    let mut mesh = random_mesh(8, 0.08, 5);
    mesh.enable_restructuring().unwrap();
    let (mut octopus, registry) = counted(&mesh);
    let mut rng = SplitMix64::new(12);
    for _ in 0..60 {
        let c = loop {
            let c = rng.index(mesh.cell_capacity()) as u32;
            if mesh.is_cell_alive(c) {
                break c;
            }
        };
        let delta = if rng.chance(0.2) {
            mesh.refine_tet(c).unwrap().1
        } else {
            mesh.remove_cell(c).unwrap()
        };
        octopus = octopus.restructured(&mesh, &delta);
    }
    let searched = Octopus::new(&mesh).unwrap();
    assert!(
        octopus.component_map().1.len() > 3
            && octopus.component_map().0 != searched.component_map().0,
        "test premise: many components, numbered unlike the search"
    );
    let mut perm: Vec<VertexId> = (0..mesh.num_vertices() as VertexId).collect();
    rng.shuffle(&mut perm);
    let relaid = mesh.permute_vertices(&perm);
    let before = followed(&registry);
    let relabelled = octopus.relabelled(&relaid, &perm);
    let fresh = Octopus::new(&relaid).unwrap();
    assert_eq!(relabelled.component_map(), fresh.component_map());
    assert_eq!(followed(&registry), (before.0 + 1, before.1));
    assert_follows(&relabelled, &relaid, &mut rng, "relabelled");
}
