//! The surface grid's contract: whatever the cell size, however far the
//! vertices have moved since the grid was anchored, a probe through the
//! grid at the snapshot's reach seeds exactly what the full surface
//! probe seeds — so results, seeds and crawl work are the full probe's
//! — and a snapshot no finite reach bounds says so. Its component bound
//! only ever removes walks that find nothing: every seedless component
//! is either walked as the full probe walks it or ruled out, on meshes
//! whose components lie apart (the bound prunes) and on nested ones
//! (it cannot, and the walk still runs).

use octopus_core::{Octopus, PhaseTimings, Probe, SurfaceGrid};
use octopus_geom::rng::SplitMix64;
use octopus_geom::{Aabb, Point3, VertexId};
use octopus_mesh::Mesh;
use octopus_meshgen::tet::tetrahedralize;
use octopus_meshgen::voxel::VoxelRegion;
use octopus_meshgen::{neuron, NeuroLevel};
use octopus_sim::{Simulation, SmoothRandomField};
use octopus_testkit::{box_mesh, random_mesh, scan_active, sorted};
use proptest::prelude::*;

/// The surface vertices inside `q` right now: what the full probe
/// seeds.
fn surface_seeds(octopus: &Octopus, mesh: &Mesh, q: &Aabb) -> Vec<VertexId> {
    sorted(
        octopus
            .surface()
            .filter(|&v| q.contains(mesh.position(v)))
            .collect(),
    )
}

/// What a probe through `grid` at `reach` seeds: the ids of the runs it
/// visits that pass the containment test. Panics on a duplicate — every
/// id sits in one cell.
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

fn query(
    octopus: &Octopus,
    mesh: &Mesh,
    q: &Aabb,
    probe: Probe<'_>,
) -> (Vec<VertexId>, PhaseTimings) {
    let mut scratch = octopus.make_scratch(mesh);
    let mut out = Vec::new();
    let t = octopus.query_with(&mut scratch, mesh, q, probe, &mut out);
    (sorted(out), t)
}

/// Runs `q` under both probes — the grid's at the mesh's reach — and
/// holds the grid's answer to the full probe's: equal seeds, and every
/// seedless component walked as the full probe walks it or ruled out,
/// always; equal results and crawl work (the walk steps may only
/// shrink) while the bound's `premise` holds. On a mesh with inverted
/// cells, where the premise — and Algorithm 1's — is void, the bound
/// can lose a walk that stumbled on a vertex outside its component's
/// surface box, so the grid's answer is held to a subset. Returns the
/// reach and the grid probe's answer.
fn compare_probes(
    octopus: &Octopus,
    grid: &SurfaceGrid,
    mesh: &Mesh,
    q: &Aabb,
    premise: bool,
    ctx: &str,
) -> (f32, Vec<VertexId>, PhaseTimings) {
    let reach = grid.reach(mesh.positions());
    assert_eq!(
        grid_seeds(grid, mesh, q, reach),
        surface_seeds(octopus, mesh, q),
        "{ctx}: seeds"
    );
    let (full, full_t) = query(octopus, mesh, q, Probe::Surface);
    let (got, t) = query(octopus, mesh, q, Probe::Grid { grid, reach });
    assert_eq!(
        (t.walks + t.walks_pruned, full_t.walks_pruned),
        (full_t.walks, 0),
        "{ctx}: every seedless component is walked or ruled out"
    );
    assert!(t.grid_candidates <= grid.len(), "{ctx}");
    if premise {
        assert_eq!(got, full, "{ctx}: results");
        assert_eq!(
            (t.start_vertices, t.crawl_visited, t.results),
            (full_t.start_vertices, full_t.crawl_visited, full_t.results),
            "{ctx}: work counters"
        );
        assert!(t.walk_visited <= full_t.walk_visited, "{ctx}: walk steps");
    } else {
        assert!(
            got.iter().all(|v| full.binary_search(v).is_ok()),
            "{ctx}: grid ⊆ surface"
        );
    }
    (reach, got, t)
}

/// [`compare_probes`] on a mesh without inverted cells, at finite
/// positions; returns the reach.
fn assert_grid_equals_surface(
    octopus: &Octopus,
    grid: &SurfaceGrid,
    mesh: &Mesh,
    q: &Aabb,
    ctx: &str,
) -> f32 {
    let (reach, ..) = compare_probes(octopus, grid, mesh, q, true, ctx);
    assert!(reach.is_finite(), "{ctx}: finite positions, finite reach");
    reach
}

/// The bound's premise at the mesh's current positions: every active
/// vertex lies inside the bounding box of its component's surface
/// vertices — true of any mesh without inverted cells (an axis-extremal
/// vertex of a component is a surface vertex).
fn premise_holds(octopus: &Octopus, mesh: &Mesh) -> bool {
    let (label, count) = mesh.adjacency().connected_components();
    let mut boxes = vec![Aabb::EMPTY; count];
    for v in octopus.surface() {
        boxes[label[v as usize] as usize].expand(mesh.position(v));
    }
    (0..mesh.num_vertices() as VertexId).all(|v| {
        mesh.neighbors(v).is_empty() || boxes[label[v as usize] as usize].contains(mesh.position(v))
    })
}

fn grid_of(octopus: &Octopus, mesh: &Mesh, cell: f32) -> SurfaceGrid {
    octopus.surface_grid(mesh.positions(), cell)
}

/// A grid over `ids` with every vertex in one component.
fn one_component_grid(ids: &[VertexId], positions: &[Point3], cell: f32) -> SurfaceGrid {
    SurfaceGrid::build(ids, positions, &vec![0; positions.len()], 1, cell)
}

/// A ball inside a hollow shell: two components, the shell's box
/// containing the ball's — the bound can rule the shell out for no box
/// inside it, and must not rule the ball out for a box inside the ball.
fn nested_mesh() -> Mesh {
    let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
    let centre = Point3::splat(0.5);
    let region = VoxelRegion::from_fn(&bounds, 16, 16, 16, |p| {
        let r = p.dist(centre);
        r <= 0.26 || r >= 0.38
    });
    tetrahedralize(&region).expect("voxel masks are manifold")
}

/// `got` — a result both probes agree on — against the scan: equal, up
/// to Algorithm 1's documented blind spot (ROADMAP item 1): an interior
/// vertex inside the box none of whose neighbours was reached, which no
/// crawl from any seed enters. The probe and the bound have no part in
/// it; anything else missing, or anything extra, fails.
fn assert_scan_up_to_the_blind_spot(
    octopus: &Octopus,
    mesh: &Mesh,
    q: &Aabb,
    got: &[VertexId],
    ctx: &str,
) {
    let want = scan_active(mesh, q);
    assert!(
        got.iter().all(|v| want.binary_search(v).is_ok()),
        "{ctx}: a result outside the box"
    );
    for &v in want.iter().filter(|v| got.binary_search(v).is_err()) {
        let reachable = mesh
            .neighbors(v)
            .iter()
            .any(|w| got.binary_search(w).is_ok());
        assert!(
            !reachable && !octopus.surface().any(|s| s == v),
            "{ctx}: vertex {v} is missing and no blind spot"
        );
    }
}

fn random_box(rng: &mut SplitMix64, within: &Aabb, half: (f32, f32)) -> Aabb {
    let c = Point3::new(
        rng.range_f32(within.min.x, within.max.x),
        rng.range_f32(within.min.y, within.max.y),
        rng.range_f32(within.min.z, within.max.z),
    );
    Aabb::cube(c, rng.range_f32(half.0, half.1))
}

fn jitter(mesh: &mut Mesh, rng: &mut SplitMix64, amplitude: f32) {
    for p in mesh.positions_mut() {
        p.x += rng.range_f32(-amplitude, amplitude);
        p.y += rng.range_f32(-amplitude, amplitude);
        p.z += rng.range_f32(-amplitude, amplitude);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random non-convex meshes under a smooth field, random boxes,
    /// random cell sizes: grid ≡ surface ≡ scan at every step, with the
    /// grid anchored once at step 0.
    #[test]
    fn grid_probe_equals_surface_probe_under_a_smooth_field(
        seed in 0u64..2_000,
        amplitude in 0.001f32..0.03,
        cell in 0.02f32..0.8,
        half in 0.05f32..0.5,
    ) {
        let mesh = random_mesh(4, 0.7, seed);
        prop_assume!(mesh.num_vertices() > 0);
        let octopus = Octopus::new(&mesh).unwrap();
        let grid = grid_of(&octopus, &mesh, cell);
        let mut sim = Simulation::new(
            mesh,
            Box::new(SmoothRandomField::new(amplitude, 3, seed ^ 0xF00D)),
        );
        let q = Aabb::cube(Point3::splat(0.5), half);
        for step in 0..5 {
            let ctx = format!("step {step}");
            assert_grid_equals_surface(&octopus, &grid, sim.mesh(), &q, &ctx);
            let (got, _) = query(&octopus, sim.mesh(), &q, Probe::Grid {
                grid: &grid,
                reach: grid.reach(sim.mesh().positions()),
            });
            prop_assert_eq!(got, scan_active(sim.mesh(), &q), "step {}", step);
            sim.run(1).unwrap();
        }
    }

    /// A random walk that is never undone: the reach grows step after
    /// step, past any cell size, and the probe stays exact at it — on
    /// the box mesh and on the two-component neuron mesh. Vertex-wise
    /// jitter this large inverts cells; from the step where it has
    /// pushed a vertex outside its component's surface box the bound's
    /// premise is void and the grid's answer is held to a subset.
    #[test]
    fn grid_probe_stays_exact_at_any_reach(
        seed in 0u64..1_000,
        step_size in 0.005f32..0.2,
        cell in 0.01f32..0.5,
        use_neuron in proptest::bool::ANY,
    ) {
        let mut mesh = if use_neuron {
            neuron(NeuroLevel::L1, 0.4).unwrap()
        } else {
            box_mesh(5)
        };
        let octopus = Octopus::new(&mesh).unwrap();
        let grid = grid_of(&octopus, &mesh, cell);
        let mut rng = SplitMix64::new(seed);
        let mut last = 0.0;
        for step in 0..6 {
            let b = mesh.bounding_box();
            let c = Point3::new(
                rng.range_f32(b.min.x, b.max.x),
                rng.range_f32(b.min.y, b.max.y),
                rng.range_f32(b.min.z, b.max.z),
            );
            let q = Aabb::cube(c, rng.range_f32(0.03, 0.4));
            let ctx = format!("step {step}");
            let premise = premise_holds(&octopus, &mesh);
            last = compare_probes(&octopus, &grid, &mesh, &q, premise, &ctx).0;
            jitter(&mut mesh, &mut rng, step_size);
        }
        prop_assert!(last > 0.0, "the walk must have moved the surface");
    }

    /// A group probes the cells of its union box once: results and the
    /// per-member counters equal the per-query baseline for k = 2…8
    /// members spread over many cells.
    #[test]
    fn group_probe_through_the_grid_equals_per_query_baseline(
        seed in 0u64..1_000,
        k in 2usize..9,
        drift in 0.0f32..0.05,
    ) {
        let mut mesh = box_mesh(6);
        let octopus = Octopus::new(&mesh).unwrap();
        let grid = grid_of(&octopus, &mesh, 0.1);
        let mut rng = SplitMix64::new(seed);
        jitter(&mut mesh, &mut rng, drift);
        let reach = grid.reach(mesh.positions());
        // A chain of overlapping boxes marching across the mesh.
        let queries: Vec<Aabb> = (0..k)
            .map(|i| {
                let c = 0.15 + 0.7 * i as f32 / k as f32;
                Aabb::cube(Point3::new(c, rng.range_f32(0.3, 0.7), 0.5), 0.2)
            })
            .collect();
        let mut scratch = octopus.make_scratch(&mesh);
        let mut results = vec![Vec::new(); k];
        let mut timings = vec![PhaseTimings::default(); k];
        octopus.query_group(
            &mut scratch,
            &mesh,
            &queries,
            Probe::Grid { grid: &grid, reach },
            &mut results,
            &mut timings,
        );
        prop_assert!(timings[0].grid_candidates > 0);
        for (j, q) in queries.iter().enumerate() {
            let (want, want_t) = query(&octopus, &mesh, q, Probe::Surface);
            prop_assert_eq!(sorted(results[j].clone()), want, "member {}", j);
            prop_assert_eq!(
                (timings[j].start_vertices, timings[j].walk_visited, timings[j].crawl_visited),
                (want_t.start_vertices, want_t.walk_visited, want_t.crawl_visited),
                "member {}: counters", j
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Components that lie apart — the two neuron arbors, confined to
    /// x < 0.46 and x > 0.54 — under a smooth field, the grid anchored
    /// at step 0: grid ≡ surface on results, seeds and crawl work, and
    /// ≡ scan up to the crawl's blind spot; every seedless component is walked or ruled out; and a box
    /// dropped on arbor A never walks a component of arbor B.
    #[test]
    fn the_bound_prunes_components_that_lie_apart(
        seed in 0u64..10_000,
        amplitude in 0.001f32..0.012,
        cell in 0.02f32..0.5,
    ) {
        let mesh = neuron(NeuroLevel::L1, 0.4).unwrap();
        let octopus = Octopus::new(&mesh).unwrap();
        let grid = grid_of(&octopus, &mesh, cell);
        let (label, count) = mesh.adjacency().connected_components();
        // The labels of arbor B, and the surface of arbor A to drop
        // boxes on.
        let mut on_b = vec![false; count];
        let mut surface_a = Vec::new();
        for v in octopus.surface() {
            if mesh.position(v).x > 0.5 {
                on_b[label[v as usize] as usize] = true;
            } else if mesh.position(v).x < 0.36 {
                surface_a.push(v);
            }
        }
        let arbor_b: Vec<usize> = (0..count).filter(|&c| on_b[c]).collect();
        prop_assert!(!arbor_b.is_empty() && !surface_a.is_empty(), "premise: two arbors");
        let mut sim = Simulation::new(
            mesh,
            Box::new(SmoothRandomField::new(amplitude, 3, seed ^ 0xA2B0)),
        );
        let mut rng = SplitMix64::new(seed);
        let mut pruned = 0;
        for step in 0..12 {
            let mesh = sim.mesh();
            let on_a = {
                let v = surface_a[rng.next_u64() as usize % surface_a.len()];
                Aabb::cube(mesh.position(v), rng.range_f32(0.08, 0.12))
            };
            let anywhere = random_box(&mut rng, &mesh.bounding_box(), (0.08, 0.4));
            for (kind, q) in [("on A", on_a), ("anywhere", anywhere)] {
                let ctx = format!("step {step}, {kind}");
                let (reach, got, t) = compare_probes(&octopus, &grid, mesh, &q, true, &ctx);
                assert_scan_up_to_the_blind_spot(&octopus, mesh, &q, &got, &ctx);
                pruned += t.walks_pruned;
                if kind == "on A" {
                    prop_assert!(q.max.x + reach < 0.53, "{}: premise", ctx);
                    prop_assert!(
                        arbor_b.iter().all(|&c| !grid.component_in_reach(c, &q, reach)),
                        "{}: arbor B is out of reach", ctx
                    );
                    prop_assert!(t.walks_pruned >= arbor_b.len(), "{}: {:?}", ctx, t);
                    prop_assert!(t.walks <= count - arbor_b.len(), "{}: {:?}", ctx, t);
                }
            }
            sim.run(1).unwrap();
        }
        prop_assert!(pruned >= 12 * arbor_b.len());
    }

    /// Nested components — a ball inside a hollow shell, the shell's box
    /// containing the ball's — under a smooth field: the bound cannot
    /// help and must not hurt. Random boxes, and boxes wholly interior
    /// to the ball, which hold no surface vertex: both bounds pass, both
    /// walks run, and the ball's finds the box.
    #[test]
    fn the_bound_passes_nested_components_and_the_walk_still_runs(
        seed in 0u64..10_000,
        amplitude in 0.001f32..0.015,
        cell in 0.02f32..0.5,
    ) {
        let mesh = nested_mesh();
        let octopus = Octopus::new(&mesh).unwrap();
        let grid = grid_of(&octopus, &mesh, cell);
        let (_, count) = mesh.adjacency().connected_components();
        prop_assert_eq!(count, 2, "premise: a ball and a shell");
        let core = (0..mesh.num_vertices() as VertexId)
            .find(|&v| mesh.position(v) == Point3::splat(0.5))
            .expect("the lattice point at the centre");
        let mut sim = Simulation::new(
            mesh,
            Box::new(SmoothRandomField::new(amplitude, 3, seed ^ 0xBA11)),
        );
        let mut rng = SplitMix64::new(seed);
        for step in 0..12 {
            let mesh = sim.mesh();
            let interior = Aabb::cube(mesh.position(core), rng.range_f32(0.07, 0.1));
            let anywhere = random_box(&mut rng, &mesh.bounding_box(), (0.08, 0.35));
            for (kind, q) in [("interior", interior), ("anywhere", anywhere)] {
                let ctx = format!("step {step}, {kind}");
                let (_, got, t) = compare_probes(&octopus, &grid, mesh, &q, true, &ctx);
                assert_scan_up_to_the_blind_spot(&octopus, mesh, &q, &got, &ctx);
                if kind == "interior" {
                    prop_assert!(surface_seeds(&octopus, mesh, &q).is_empty(), "{}: premise", ctx);
                    prop_assert_eq!(
                        (t.walks, t.walks_pruned, t.start_vertices),
                        (2, 0, 1),
                        "{}: both bounds pass, the ball's walk finds the box", ctx
                    );
                    prop_assert!(got.contains(&core), "{}", ctx);
                }
            }
            sim.run(1).unwrap();
        }
    }
}

/// Box faces exactly on vertex coordinates (closed boundaries) and on
/// cell boundaries, at reach zero: the ulp padding keeps the boundary
/// vertices' cells in.
#[test]
fn faces_on_vertex_coordinates_and_cell_boundaries() {
    let mesh = box_mesh(8); // lattice spacing 0.125
    let octopus = Octopus::new(&mesh).unwrap();
    for cell in [0.125, 0.25, 0.1, 0.3] {
        let grid = grid_of(&octopus, &mesh, cell);
        for (lo, hi) in [
            (0.0, 0.25),
            (0.25, 0.5),
            (0.125, 1.0),
            (0.5, 0.5),
            (1.0, 1.0),
        ] {
            // A slab between two lattice planes, down to the z = 0 face.
            let q = Aabb::new(Point3::new(lo, lo, 0.0), Point3::new(hi, hi, 0.25));
            let ctx = format!("cell {cell}, slab [{lo}, {hi}]");
            let reach = assert_grid_equals_surface(&octopus, &grid, &mesh, &q, &ctx);
            assert_eq!(reach, 0.0);
            assert!(
                !surface_seeds(&octopus, &mesh, &q).is_empty(),
                "{ctx}: premise"
            );
        }
    }
}

/// `q.min − reach` rounds at the scale of `q.min`: a vertex that moved
/// from 0.99999 to exactly 1000 has a reach that rounds *down* to 999,
/// and `1000 − 999 = 1` lies in the cell above its anchor's. The
/// dilation's ulp padding is what keeps that cell in.
#[test]
fn the_dilation_is_padded_for_f32_rounding() {
    let at = |x: f32| Point3::new(x, 0.0, 0.0);
    let anchors = [at(0.0), at(0.99999), at(3.0)];
    let grid = one_component_grid(&[0, 1, 2], &anchors, 1.0);
    let now = [at(0.0), at(1000.0), at(3.0)];
    let reach = grid.reach(&now);
    assert_eq!(reach, 999.0, "premise: the true distance is 999.00001");
    assert_eq!(1000.0 - reach, 1.0, "premise: one cell above the anchor");
    let q = Aabb::new(
        Point3::new(1000.0, -1.0, -1.0),
        Point3::new(1001.0, 1.0, 1.0),
    );
    let visited: Vec<VertexId> = grid.runs(&q, reach).flatten().copied().collect();
    assert!(
        visited.contains(&1),
        "the vertex on the box face: {visited:?}"
    );
}

/// Vertices displaced far outside the build-time bounding box, and a
/// reach of exactly one cell.
#[test]
fn displacement_outside_the_build_time_bounds() {
    let cell = 0.25;
    let mut mesh = box_mesh(4);
    let octopus = Octopus::new(&mesh).unwrap();
    let grid = grid_of(&octopus, &mesh, cell);
    // Exactly one cell along x.
    for p in mesh.positions_mut() {
        p.x += cell;
    }
    assert_eq!(grid.reach(mesh.positions()), cell);
    for q in [
        Aabb::new(Point3::new(1.0, 0.0, 0.0), Point3::new(1.25, 1.0, 1.0)),
        Aabb::cube(Point3::new(0.75, 0.5, 0.5), 0.3),
        Aabb::cube(Point3::splat(0.1), 0.2),
    ] {
        assert_grid_equals_surface(&octopus, &grid, &mesh, &q, "one cell along x");
    }
    // Then the whole mesh leaves the grid's frame.
    for p in mesh.positions_mut() {
        p.y -= 7.5;
        p.z += 3.0;
    }
    for q in [
        Aabb::cube(Point3::new(0.75, -7.0, 3.5), 0.3),
        Aabb::new(Point3::new(0.0, -8.0, 2.0), Point3::new(2.0, -6.0, 5.0)),
        // Where the mesh used to be: nothing there now.
        Aabb::cube(Point3::splat(0.5), 0.4),
    ] {
        assert_grid_equals_surface(&octopus, &grid, &mesh, &q, "outside the frame");
    }
    let (gone, _) = query(
        &octopus,
        &mesh,
        &Aabb::cube(Point3::splat(0.5), 0.4),
        Probe::Grid {
            grid: &grid,
            reach: grid.reach(mesh.positions()),
        },
    );
    assert!(gone.is_empty());
}

/// A box wholly outside the grid visits at most the clamped border
/// cells and seeds nothing; degenerate boxes likewise.
#[test]
fn boxes_outside_the_grid() {
    let mesh = box_mesh(4);
    let octopus = Octopus::new(&mesh).unwrap();
    let grid = grid_of(&octopus, &mesh, 0.25);
    for q in [
        Aabb::new(Point3::splat(5.0), Point3::splat(6.0)),
        Aabb::new(Point3::splat(-6.0), Point3::splat(-5.0)),
        Aabb::new(Point3::new(-9.0, 0.2, 0.2), Point3::new(-8.0, 0.4, 0.4)),
        Aabb::new(
            Point3::splat(f32::NEG_INFINITY),
            Point3::splat(f32::INFINITY),
        ),
        Aabb::EMPTY,
    ] {
        assert_grid_equals_surface(&octopus, &grid, &mesh, &q, &format!("{q:?}"));
    }
    let far = Aabb::new(Point3::splat(5.0), Point3::splat(6.0));
    assert!(grid_seeds(&grid, &mesh, &far, 0.0).is_empty());
    assert!(
        grid.runs(&far, 0.0).flatten().count() < grid.len(),
        "a far box visits a corner cell, not the surface"
    );
}

/// Empty surface, a single surface vertex, and every vertex in one
/// cell.
#[test]
fn degenerate_grids() {
    let positions = vec![Point3::splat(0.5), Point3::splat(0.75)];
    let everything = Aabb::new(Point3::splat(-1.0), Point3::splat(2.0));

    let empty = one_component_grid(&[], &positions, 0.1);
    assert!(empty.is_empty());
    assert_eq!(empty.reach(&positions), 0.0);
    assert_eq!(empty.runs(&everything, 1.0).count(), 0);

    let single = one_component_grid(&[1], &positions, 0.1);
    assert_eq!(single.len(), 1);
    let all: Vec<VertexId> = single.runs(&everything, 0.0).flatten().copied().collect();
    assert_eq!(all, [1]);
    let near = Aabb::cube(Point3::splat(0.75), 0.01);
    assert_eq!(single.runs(&near, 0.0).flatten().count(), 1);
    let moved = vec![Point3::splat(0.5), Point3::new(0.75, 0.25, 0.75)];
    assert_eq!(single.reach(&moved), 0.5);
    let there = Aabb::cube(moved[1], 0.01);
    assert_eq!(single.runs(&there, 0.5).flatten().count(), 1);

    // A cell larger than the mesh: one cell, every probe visits all of
    // the surface, and the answers do not change.
    let mesh = box_mesh(3);
    let octopus = Octopus::new(&mesh).unwrap();
    let one_cell = grid_of(&octopus, &mesh, 10.0);
    let q = Aabb::cube(Point3::splat(0.3), 0.2);
    assert_grid_equals_surface(&octopus, &one_cell, &mesh, &q, "one cell");
    let (_, t) = query(
        &octopus,
        &mesh,
        &q,
        Probe::Grid {
            grid: &one_cell,
            reach: 0.0,
        },
    );
    assert_eq!(t.grid_candidates, octopus.surface_len());
}

/// A NaN or infinite surface position — when the grid is built, or
/// afterwards — leaves no finite reach: the owner falls back to the
/// full probe. (A caller that probes through the grid regardless, at
/// the unbounded reach, still visits every id.)
#[test]
fn non_finite_positions_saturate_the_reach() {
    let clean = box_mesh(3);
    let octopus = Octopus::new(&clean).unwrap();
    let victim = octopus.surface().nth(3).unwrap();
    let q = Aabb::cube(Point3::splat(0.4), 0.3);
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut poisoned = clean.clone();
        poisoned.positions_mut()[victim as usize].z = bad;

        // After the build.
        let grid = grid_of(&octopus, &clean, 0.2);
        assert_eq!(grid.reach(poisoned.positions()), f32::INFINITY);
        assert_eq!(grid.reach(clean.positions()), 0.0);

        // At the build: the id is kept, and nothing bounds it — not
        // even once the vertex is finite again.
        let at_build = grid_of(&octopus, &poisoned, 0.2);
        assert_eq!(at_build.len(), octopus.surface_len());
        assert_eq!(at_build.reach(poisoned.positions()), f32::INFINITY);
        assert_eq!(at_build.reach(clean.positions()), f32::INFINITY);

        for (grid, mesh) in [
            (&grid, &poisoned),
            (&at_build, &poisoned),
            (&at_build, &clean),
        ] {
            assert_eq!(
                grid_seeds(grid, mesh, &q, f32::INFINITY),
                surface_seeds(&octopus, mesh, &q),
                "{bad}: the unbounded reach visits everything"
            );
            assert_eq!(
                grid.runs(&q, f32::INFINITY).flatten().count(),
                grid.len(),
                "{bad}"
            );
        }
    }
}
