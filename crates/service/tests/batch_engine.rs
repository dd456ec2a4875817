//! Property suite of the batch query engine: shared-frontier overlap
//! groups, under the full surface probe and
//! under the surface grid's, must return, per query, exactly what the
//! sequential `Octopus::query_with` returns — on random meshes and
//! workloads, across deformation and restructuring steps, mid-run
//! re-layouts, and snapshot-ring depths 1 and 3. Plus the deterministic
//! visited-vertex counter: on an overlapping batch, the shared crawl
//! performs strictly fewer traversal events than independent crawls.
//! And the surface grid's life cycle through the monitor: no rebuild
//! under a bounded displacement field, rebuilds under a monotone one,
//! none from a snapshot with a non-finite surface position, a fresh
//! grid — with component bounds for the new labelling — behind every
//! restructure, re-layout and drift rebuild.

use octopus_core::{
    AggregateKind, ExecutorMetrics, Octopus, PhaseTimings, Probe, QueryShape, ShapeResult,
    SurfaceGrid,
};
use octopus_geom::rng::SplitMix64;
use octopus_geom::{Aabb, ConvexRegion, Halfspace, Point3, Vec3, VertexId};
use octopus_mesh::Mesh;
use octopus_meshgen::{neuron, NeuroLevel};
use octopus_service::{
    BatchEngine, EngineMetrics, EngineReport, LayoutPolicy, MonitorLoop, ParallelExecutor,
    QueryResult, RelayoutTrigger, Snapshot,
};
use octopus_sim::{Deformation, RestructureSchedule, Simulation, SmoothRandomField};
use octopus_telemetry::Registry;
use octopus_testkit::{
    assert_scan_up_to_gap, box_mesh, knn_scan, mixed_workload, scan_active, scan_region,
    sequential_answers, sequential_reference, sorted,
};
use proptest::prelude::*;

/// `mesh` as the engine sees a retained step, under `probe`.
fn static_snapshot<'a>(exec: &'a Octopus, mesh: &'a Mesh, probe: Probe<'a>) -> Snapshot<'a> {
    Snapshot {
        step: 0,
        mesh,
        exec,
        probe,
    }
}

/// Runs `queries` through the engine against `mesh` — under the full
/// surface probe, or under `grid` at its reach for `mesh` — and checks
/// every answer against the sequential baseline. Returns the ids the
/// batch's grid probes visited.
fn assert_engine_equivalent(
    engine: &mut BatchEngine,
    pool: &mut ParallelExecutor,
    mesh: &Mesh,
    grid: Option<&SurfaceGrid>,
    queries: &[Aabb],
    ctx: &str,
) -> usize {
    let octopus = Octopus::new(mesh).unwrap();
    let probe = match grid {
        None => Probe::Surface,
        Some(grid) => Probe::Grid {
            grid,
            reach: grid.reach(mesh.positions()),
        },
    };
    let snap = static_snapshot(&octopus, mesh, probe);
    assert_engine_equivalent_at(engine, pool, &snap, queries, ctx)
}

fn assert_engine_equivalent_at(
    engine: &mut BatchEngine,
    pool: &mut ParallelExecutor,
    snap: &Snapshot<'_>,
    queries: &[Aabb],
    ctx: &str,
) -> usize {
    let expected = sequential_reference(snap.mesh, queries);
    let results = engine.execute(pool, snap, queries);
    assert_eq!(results.len(), queries.len(), "{ctx}");
    for (i, (got, want)) in results.iter().zip(&expected).enumerate() {
        assert_eq!(
            &sorted(got.vertices.clone()),
            want,
            "{ctx}: query {i} diverged from the sequential baseline"
        );
    }
    let grid_candidates = results.iter().map(|r| r.timings.grid_candidates).sum();
    pool.recycle(results);
    grid_candidates
}

/// The surface grid of a fresh executor for `mesh`, anchored where the
/// mesh is now, at a cell of `cell`.
fn grid_for(mesh: &Mesh, cell: f32) -> SurfaceGrid {
    Octopus::new(mesh)
        .unwrap()
        .surface_grid(mesh.positions(), cell)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Engine ≡ sequential on random meshes/workloads, grouping
    /// enabled, under both probes (static snapshot).
    #[test]
    fn engine_matches_sequential_on_random_workloads(
        n in 3usize..7,
        seed in 0u64..1000,
        workers in 1usize..4,
        clusters in 1usize..4,
        use_neuron in proptest::bool::ANY,
    ) {
        let mesh = if use_neuron {
            neuron(NeuroLevel::L1, 0.4).unwrap()
        } else {
            box_mesh(n)
        };
        let queries = mixed_workload(&mesh, seed, clusters, 4);
        let mut engine = BatchEngine::new(&mesh);
        let mut pool = ParallelExecutor::new(workers);
        let grid = grid_for(&mesh, 0.2);
        let full =
            assert_engine_equivalent(&mut engine, &mut pool, &mesh, None, &queries, "surface");
        let cells =
            assert_engine_equivalent(&mut engine, &mut pool, &mesh, Some(&grid), &queries, "grid");
        prop_assert_eq!(full, 0, "the full probe visits no grid cell");
        prop_assert!(cells > 0, "every query must have probed through the grid");
    }

    /// Engine ≡ sequential across deformation steps: a grid anchored at
    /// step 0 serves the drifting positions at each step's reach.
    #[test]
    fn engine_stays_exact_across_deformation_through_the_grid(
        seed in 0u64..500,
    ) {
        let mut mesh = box_mesh(6);
        let queries = mixed_workload(&mesh, seed, 2, 3);
        let mut engine = BatchEngine::new(&mesh);
        let mut pool = ParallelExecutor::new(2);
        let grid = grid_for(&mesh, 0.2);
        let mut rng = SplitMix64::new(seed ^ 0xD1F7);
        let mut probed = 0;
        for step in 0..5 {
            probed += assert_engine_equivalent(
                &mut engine, &mut pool, &mesh, Some(&grid), &queries,
                &format!("step {step}"),
            );
            prop_assert!(grid.reach(mesh.positions()) <= 0.004 * step as f32 + 1e-6);
            for p in mesh.positions_mut() {
                p.x += rng.range_f32(-0.004, 0.004);
                p.y += rng.range_f32(-0.004, 0.004);
                p.z += rng.range_f32(-0.004, 0.004);
            }
        }
        prop_assert!(probed > 0, "drifting repeats must probe through the grid");
    }

    /// The full monitor path — snapshot ring (K ∈ {1, 3}), restructuring
    /// steps, engine-planned batches — against a stop-the-world replay
    /// that crawls too: on restructure-carved meshes a linear scan can
    /// find concave-pocket vertices that Algorithm 1 itself misses (the
    /// gap `inherited_algorithm1_gap_is_pinned` pins), so the replay,
    /// not a scan, is the reference.
    #[test]
    fn monitor_engine_matches_stop_the_world_with_restructuring(
        depth_pick in proptest::bool::ANY,
        seed in 0u64..200,
    ) {
        let depth = if depth_pick { 3 } else { 1 };
        let steps = 8u32;
        let mut base = box_mesh(5);
        base.enable_restructuring().unwrap();
        let make_sim = |mesh: Mesh| {
            Simulation::new(mesh, Box::new(SmoothRandomField::new(0.006, 3, seed)))
                .with_restructuring(RestructureSchedule::new(3, 2, seed ^ 0xBEEF))
                .unwrap()
        };
        let queries = mixed_workload(&base, seed ^ 0x5EED, 2, 3);

        let mut monitor = MonitorLoop::with_config(
            make_sim(base.clone()),
            2,
            LayoutPolicy::Preserve,
            depth,
        ).unwrap();

        let mut sim = make_sim(base);
        let mut reference = Octopus::new(sim.mesh()).unwrap();

        monitor.fill_pipeline().unwrap();
        for step in 1..=steps {
            monitor.finish_step().unwrap();
            if step < steps {
                monitor.fill_pipeline().unwrap();
            }
            let results = monitor.query_batch(&queries);

            let outcome = sim.step_outcome().unwrap();
            prop_assert_eq!(outcome.step, step);
            if outcome.restructured {
                reference = reference.restructured(sim.mesh(), &outcome.delta);
            }
            let wants = sequential_answers(&reference, sim.mesh(), &queries);
            for (i, (r, want)) in results.iter().zip(&wants).enumerate() {
                prop_assert_eq!(
                    &sorted(r.vertices.clone()),
                    want,
                    "depth {} step {} query {}", depth, step, i
                );
            }
            monitor.recycle(results);

            // A batch of one must agree too.
            let single = monitor.query_batch(&queries[..1]);
            prop_assert_eq!(
                &sorted(single[0].vertices.clone()),
                &wants[0],
                "batch of one, step {}", step
            );
            monitor.recycle(single);
        }
        let stats = monitor.seed_cache_stats().unwrap();
        prop_assert!(stats.hits > 0, "every query probes through the grid: {stats:?}");
        prop_assert_eq!(stats.misses, 0, "nothing falls back: {:?}", stats);
        prop_assert!(
            stats.insertions > 1,
            "restructuring must have installed fresh grids: {stats:?}"
        );
    }
}

/// Broad boxes crawl like narrow ones: on a deformation-only workload
/// with two boxes covering most of the mesh, every answer is exact, no
/// query is routed to a scan, clustered queries share frontiers, and
/// every query of the batch is visible to the executor's telemetry.
#[test]
fn broad_and_clustered_batches_crawl_and_match_sequential() {
    let mesh = box_mesh(8);
    let mut queries = mixed_workload(&mesh, 0xA11C, 2, 4);
    queries.push(Aabb::new(Point3::splat(-0.1), Point3::splat(1.1)));
    queries.push(Aabb::new(Point3::splat(0.1), Point3::splat(0.95)));
    let registry = Registry::new();
    let octopus = Octopus::new(&mesh).unwrap();
    octopus.attach_metrics(&ExecutorMetrics::register(&registry));
    let mut engine = BatchEngine::new(&mesh);
    engine.attach_metrics(&EngineMetrics::register(&registry));
    let mut pool = ParallelExecutor::new(3);
    assert_engine_equivalent_at(
        &mut engine,
        &mut pool,
        &static_snapshot(&octopus, &mesh, Probe::Surface),
        &queries,
        "broad and clustered",
    );
    let telemetry = registry.snapshot();
    assert_eq!(
        telemetry.counter("executor_queries_total"),
        queries.len() as u64,
        "every query of the batch is an executed query"
    );
    let report = engine.report();
    assert_eq!(report.scan_queries, 0, "every box crawls: {report:?}");
    assert!(
        report.grouped_queries > 0,
        "clustered queries must share frontiers: {report:?}"
    );
}

/// The acceptance counter: batch of 64 with ≥ 30 % pairwise overlap
/// inside clusters — the shared-frontier path performs measurably fewer
/// traversal events than independent crawls (deterministic counters,
/// not wall clock), while per-query attribution reproduces the
/// sequential counters exactly.
#[test]
fn shared_frontier_visits_fewer_vertices_on_overlapping_batch() {
    let mesh = box_mesh(9);
    // 8 clusters × 8 queries; within a cluster the boxes slide by 10 %
    // of their side, so consecutive pairs overlap far above 30 %.
    let mut queries = Vec::new();
    let mut rng = SplitMix64::new(0x0713);
    for _ in 0..8 {
        let c = Point3::new(
            rng.range_f32(0.2, 0.8),
            rng.range_f32(0.2, 0.8),
            rng.range_f32(0.2, 0.8),
        );
        for k in 0..8 {
            let shift = 0.02 * k as f32;
            queries.push(Aabb::cube(Point3::new(c.x + shift, c.y, c.z), 0.1));
        }
    }
    assert_eq!(queries.len(), 64);

    // Independent baseline counters.
    let seq = Octopus::new(&mesh).unwrap();
    let mut scratch = seq.make_scratch(&mesh);
    let mut independent = 0usize;
    for q in &queries {
        let mut out = Vec::new();
        let t = seq.query_with(&mut scratch, &mesh, q, Probe::Surface, &mut out);
        independent += t.crawl_visited;
    }

    let mut engine = BatchEngine::new(&mesh);
    let mut pool = ParallelExecutor::new(2);
    assert_engine_equivalent(&mut engine, &mut pool, &mesh, None, &queries, "overlap-64");
    let report = *engine.report();
    assert!(
        report.grouped_queries >= 48,
        "the sweep must actually group the clusters: {report:?}"
    );
    // Per-query attribution inside the groups reproduces the sequential
    // counters (attributed covers grouped queries only, so it is bounded
    // by the independent total)...
    assert!(
        report.attributed_visited <= independent,
        "attribution cannot exceed the sequential work: {report:?} vs {independent}"
    );
    assert!(report.shared_visited > 0, "shared crawls must have run");
    // ...while the distinct-event counter shows the sharing win: the
    // engine's total traversal work (shared events + the singleton
    // queries' unchanged sequential work) strictly undercuts the
    // independent baseline.
    let singleton_work = independent - report.attributed_visited;
    assert!(
        report.shared_visited + singleton_work < independent,
        "shared events {} + singleton work {singleton_work} must undercut independent \
         {independent}",
        report.shared_visited
    );
}

/// Steps a monitor under a Hilbert policy that re-lays out after every
/// `relayout_after` restructuring events (`ops` operations every second
/// step), beside a stop-the-world twin whose executor is maintained in
/// place. After each step `queries` are answered as a batch and one by
/// one and compared with the twin's full-probe answers, translated into
/// the slot's id space; at the end every query must have probed through
/// a grid, and a fresh grid must stand behind set-up, every restructure
/// and every re-layout. Returns the timings of every answer.
fn assert_relayout_lifecycle(
    mut base: Mesh,
    ops: usize,
    relayout_after: u32,
    steps: u32,
    queries: &[Aabb],
) -> Vec<PhaseTimings> {
    base.enable_restructuring().unwrap();
    let make_sim = |mesh: Mesh| {
        Simulation::new(mesh, Box::new(SmoothRandomField::new(0.004, 3, 0x11)))
            .with_restructuring(RestructureSchedule::new(2, ops, 0x22))
            .unwrap()
    };
    let policy = LayoutPolicy::Hilbert {
        trigger: RelayoutTrigger::AfterRestructures(relayout_after),
    };
    let mut monitor = MonitorLoop::with_config(make_sim(base.clone()), 2, policy, 1).unwrap();

    let mut sim = make_sim(base);
    let mut reference = Octopus::new(sim.mesh()).unwrap();
    let mut restructures = 0u64;
    let mut timings = Vec::new();
    for step in 1..=steps {
        monitor.begin_step().unwrap();
        if monitor.step_in_flight() {
            monitor.finish_step().unwrap();
        }
        let outcome = sim.step_outcome().unwrap();
        assert_eq!(outcome.step, monitor.snapshot_step());
        if outcome.restructured {
            reference = reference.restructured(sim.mesh(), &outcome.delta);
            restructures += 1;
        }
        let batch = monitor.query_batch(queries);
        for (i, q) in queries.iter().enumerate() {
            let single = monitor.query_batch(std::slice::from_ref(q));
            timings.push(single[0].timings);
            timings.push(batch[i].timings);
            let want = sequential_answers(&reference, sim.mesh(), std::slice::from_ref(q));
            let want = sorted(
                want[0]
                    .iter()
                    .map(|&v| monitor.translate_vertex(v).unwrap())
                    .collect(),
            );
            for (path, got) in [("batch", &batch[i]), ("single", &single[0])] {
                assert_eq!(
                    sorted(got.vertices.clone()),
                    want,
                    "step {step} query {i}, {path} ({restructures} restructures, {} relayouts)",
                    monitor.relayouts()
                );
            }
            monitor.recycle(single);
        }
        monitor.recycle(batch);
    }
    assert!(
        restructures > 0 && monitor.relayouts() > 0,
        "the trigger must actually have re-laid out mid-run"
    );
    let stats = monitor.seed_cache_stats().unwrap();
    assert_eq!(
        (stats.hits, stats.misses),
        (timings.len() as u64, 0),
        "every query probes through its slot's grid: {stats:?}"
    );
    assert_eq!(
        stats.insertions,
        1 + restructures + u64::from(monitor.relayouts()),
        "one grid at set-up, one per restructure, one per re-layout: {stats:?}"
    );
    timings
}

/// A mid-run re-layout permutes the id space: the relabelled slot gets
/// a grid rebuilt from its relabelled executor, and every answer is
/// exact in the new id space — with a re-layout after every
/// restructuring event, maximal churn on the id space. Runs in release
/// in CI (service release test step).
#[test]
fn grid_is_rebuilt_by_a_mid_run_relayout() {
    let queries = [
        Aabb::cube(Point3::splat(0.4), 0.18),
        Aabb::cube(Point3::splat(0.65), 0.12),
    ];
    assert_relayout_lifecycle(box_mesh(5), 1, 1, 6, &queries);
}

/// `rest + step · velocity`: every vertex moves the same way for ever,
/// so the distance from any anchor grows without bound.
struct Translate(Point3);

impl Deformation for Translate {
    fn name(&self) -> &'static str {
        "translate"
    }

    fn apply_step(&mut self, step: u32, rest: &[Point3], positions: &mut [Point3]) {
        let s = step as f32;
        for (p, r) in positions.iter_mut().zip(rest) {
            *p = Point3::new(r.x + s * self.0.x, r.y + s * self.0.y, r.z + s * self.0.z);
        }
    }
}

/// Steps `monitor` `steps` times; after each step a batch of three
/// boxes — pairwise disjoint when `apart`, otherwise overlapping — is
/// answered and compared with a scan of the snapshot, and the newest
/// slot's reach (in cells, as the gauge publishes it) is handed to
/// `check`.
fn assert_grid_lifecycle(
    monitor: &mut MonitorLoop,
    steps: u32,
    apart: bool,
    check: impl Fn(u32, f64),
) {
    let registry = Registry::new();
    monitor.attach_telemetry(&registry);
    for step in 1..=steps {
        monitor.begin_step().unwrap();
        monitor.finish_step().unwrap();
        // Boxes that follow the mesh, wherever it has gone.
        let bounds = monitor.snapshot().bounding_box();
        let e = bounds.extent();
        let queries = if apart {
            [
                Aabb::cube(bounds.min, 0.2 * e.x),
                Aabb::cube(bounds.center(), 0.15 * e.x),
                Aabb::cube(bounds.max, 0.2 * e.x),
            ]
        } else {
            [
                Aabb::cube(bounds.center(), 0.25 * e.x),
                Aabb::new(bounds.min, bounds.center()),
                Aabb::cube(bounds.max, 0.3 * e.x),
            ]
        };
        let results = monitor.query_batch(&queries);
        for (i, (r, q)) in results.iter().zip(&queries).enumerate() {
            assert_eq!(
                sorted(r.vertices.clone()),
                scan_active(monitor.snapshot(), q),
                "step {step}, box {i}"
            );
        }
        monitor.recycle(results);
        let telemetry = monitor.telemetry_snapshot().unwrap();
        check(step, telemetry.gauge("surface_grid_reach"));
    }
}

/// (i) Under a bounded displacement field the grid built at set-up
/// serves every step: nothing is rebuilt, nothing falls back.
#[test]
fn grid_never_rebuilds_under_a_bounded_field() {
    for apart in [true, false] {
        let sim = Simulation::new(
            box_mesh(6),
            Box::new(SmoothRandomField::new(0.01, 3, 0x6121D)),
        );
        let mut monitor = MonitorLoop::new(sim, 2).unwrap();
        assert_grid_lifecycle(&mut monitor, 50, apart, |step, reach| {
            assert!(reach > 0.0 && reach <= 1.0, "step {step}: reach {reach}");
        });
        let stats = monitor.seed_cache_stats().unwrap();
        assert_eq!(stats.stale, 0, "no rebuild after set-up: {stats:?}");
        assert_eq!(stats.insertions, 1, "{stats:?}");
        assert_eq!((stats.hits, stats.misses), (150, 0), "{stats:?}");
        let telemetry = monitor.telemetry_snapshot().unwrap();
        assert_eq!(telemetry.counter("surface_grid_probes_total"), 150);
        assert_eq!(telemetry.counter("surface_grid_fallbacks_total"), 0);
        assert_eq!(telemetry.counter("surface_grid_rebuilds_total"), 0);
        assert!(telemetry.gauge("surface_grid_bytes") > 0.0);
        let candidates = telemetry.histogram("surface_grid_candidates").unwrap();
        // One record per grid probe, an overlap group each: a query
        // each when the boxes lie apart, at most two groups a batch
        // when the first two overlap.
        if apart {
            assert_eq!(candidates.count, 150);
        } else {
            assert!((50..=100).contains(&candidates.count), "{candidates:?}");
        }
    }
}

/// (ii) Under a monotone field the reach outgrows a cell every few
/// steps: the newest slot rebuilds, later slots inherit, and the reach
/// a query dilates by never exceeds one cell.
#[test]
fn grid_rebuilds_under_a_monotone_field() {
    let sim = Simulation::new(
        box_mesh(6),
        Box::new(Translate(Point3::new(0.11, -0.07, 0.05))),
    );
    let mut monitor = MonitorLoop::with_config(sim, 2, LayoutPolicy::Preserve, 2).unwrap();
    assert_grid_lifecycle(&mut monitor, 30, false, |step, reach| {
        assert!(reach <= 1.0, "step {step}: reach {reach} cells");
    });
    let stats = monitor.seed_cache_stats().unwrap();
    assert!(stats.stale >= 3, "the drift must force rebuilds: {stats:?}");
    assert_eq!(stats.insertions, 1 + stats.stale, "{stats:?}");
    assert_eq!((stats.hits, stats.misses), (90, 0), "{stats:?}");
    let telemetry = monitor.telemetry_snapshot().unwrap();
    assert_eq!(
        telemetry.counter("surface_grid_rebuilds_total"),
        stats.stale
    );
}

/// A bounded field under which one surface vertex — the lattice corner
/// at the origin — is NaN on the steps of `poisoned`.
struct PoisonedCorner {
    field: SmoothRandomField,
    corner: VertexId,
    poisoned: std::ops::RangeInclusive<u32>,
}

impl Deformation for PoisonedCorner {
    fn name(&self) -> &'static str {
        "poisoned-corner"
    }

    fn apply_step(&mut self, step: u32, rest: &[Point3], positions: &mut [Point3]) {
        self.field.apply_step(step, rest, positions);
        if self.poisoned.contains(&step) {
            positions[self.corner as usize] = Point3::splat(f32::NAN);
        }
    }
}

/// (iii) A snapshot with a non-finite surface position has no finite
/// reach: it is answered by the full probe and must not rebuild — the
/// new grid would be anchored at the NaN, leave the next snapshot
/// unbounded too, and cost the first finite one a rebuild to get rid
/// of. The old anchors stay and serve again the moment positions are
/// finite.
#[test]
fn a_poisoned_snapshot_never_reanchors_the_grid() {
    let mesh = box_mesh(5);
    let corner = (0..mesh.num_vertices() as VertexId)
        .find(|&v| mesh.position(v) == Point3::ORIGIN)
        .expect("the lattice has a vertex at the origin");
    let poisoned = 3..=6u32;
    let sim = Simulation::new(
        mesh,
        Box::new(PoisonedCorner {
            field: SmoothRandomField::new(0.01, 3, 0xBAD),
            corner,
            poisoned: poisoned.clone(),
        }),
    );
    let mut monitor = MonitorLoop::new(sim, 2).unwrap();
    let q = Aabb::new(Point3::splat(-0.1), Point3::splat(0.45));
    let (mut probes, mut fallbacks) = (0, 0);
    for step in 1..=10u32 {
        monitor.begin_step().unwrap();
        monitor.finish_step().unwrap();
        let got = monitor.query_batch(&[q]);
        let want = sequential_reference(monitor.snapshot(), &[q]).remove(0);
        assert_eq!(sorted(got[0].vertices.clone()), want, "step {step}");
        monitor.recycle(got);
        if poisoned.contains(&step) {
            fallbacks += 1;
        } else {
            probes += 1;
        }
        let stats = monitor.seed_cache_stats().unwrap();
        assert_eq!(
            (stats.stale, stats.insertions),
            (0, 1),
            "step {step}: the set-up grid serves the whole run: {stats:?}"
        );
        assert_eq!(
            (stats.hits, stats.misses),
            (probes, fallbacks),
            "step {step}: full probe while poisoned, grid before and after: {stats:?}"
        );
    }
    assert_eq!((probes, fallbacks), (6, 4));
}

/// A surface vertex of arbor A (x < 0.46) of `mesh` near the middle of
/// its half: where the boxes that must not walk arbor B are dropped.
fn arbor_a_anchor(mesh: &Mesh) -> Point3 {
    let target = Point3::new(0.25, 0.5, 0.5);
    Octopus::new(mesh)
        .unwrap()
        .surface()
        .map(|v| mesh.position(v))
        .min_by(|a, b| a.dist_sq(target).total_cmp(&b.dist_sq(target)))
        .expect("the neuron mesh has a surface")
}

/// Every answer went through a grid that ruled arbor B out.
fn assert_all_pruned<'a>(timings: impl IntoIterator<Item = &'a PhaseTimings>, ctx: &str) {
    for (i, t) in timings.into_iter().enumerate() {
        assert!(t.walks_pruned > 0, "{ctx}: query {i} pruned nothing: {t:?}");
    }
}

/// (iv) A restructure relabels the components and a re-layout the
/// vertices: the grid behind each carries bounds for the new labelling
/// — every answer equals the stop-the-world replay's (full probe, every
/// seedless component walked) and every query on arbor A, grouped or
/// alone, still skips arbor B.
#[test]
fn component_bounds_follow_restructures_and_relayouts() {
    let base = neuron(NeuroLevel::L1, 0.4).unwrap();
    let anchor = arbor_a_anchor(&base);
    // Two overlapping boxes (one group) and one apart (a singleton).
    let queries = [
        Aabb::cube(anchor, 0.1),
        Aabb::cube(
            Point3::new(anchor.x - 0.03, anchor.y, anchor.z + 0.02),
            0.08,
        ),
        Aabb::cube(Point3::new(0.2, 0.2, 0.2), 0.09),
    ];
    let timings = assert_relayout_lifecycle(base, 3, 2, 8, &queries);
    assert_all_pruned(&timings, "across restructures and re-layouts");
    assert!(
        timings.iter().any(|t| t.results > 0),
        "the boxes must hold neuron material"
    );
}

/// (v) A drift rebuild re-anchors the component boxes with the cells:
/// under a field that carries both arbors away for ever every answer
/// equals the full probe's on a fresh executor at whatever reach, and
/// on each step that rebuilt — the reach is zero again — boxes that
/// follow arbor A skip arbor B. (In between the bound is as loose as
/// the reach: a box dilated across the gap walks, and finds nothing.)
#[test]
fn component_bounds_follow_a_drift_rebuild() {
    let mesh = neuron(NeuroLevel::L1, 0.4).unwrap();
    let anchor = arbor_a_anchor(&mesh);
    let velocity = Point3::new(0.13, -0.06, 0.04);
    let sim = Simulation::new(mesh, Box::new(Translate(velocity)));
    let mut monitor = MonitorLoop::with_config(sim, 2, LayoutPolicy::Preserve, 2).unwrap();
    let (mut found, mut rebuilds) = (0, 0);
    for step in 1..=12u32 {
        monitor.begin_step().unwrap();
        monitor.finish_step().unwrap();
        let s = step as f32;
        let here = Point3::new(
            anchor.x + s * velocity.x,
            anchor.y + s * velocity.y,
            anchor.z + s * velocity.z,
        );
        let queries = [Aabb::cube(here, 0.1), Aabb::cube(here, 0.05)];
        let fresh = Octopus::new(monitor.snapshot()).unwrap();
        let mut scratch = fresh.make_scratch(monitor.snapshot());
        let results = monitor.query_batch(&queries);
        for (i, (r, q)) in results.iter().zip(&queries).enumerate() {
            let mut want = Vec::new();
            let full = fresh.query_with(
                &mut scratch,
                monitor.snapshot(),
                q,
                Probe::Surface,
                &mut want,
            );
            assert_eq!(
                sorted(r.vertices.clone()),
                sorted(want),
                "step {step}, query {i}"
            );
            let t = &r.timings;
            assert_eq!(
                t.walks + t.walks_pruned,
                full.walks,
                "step {step}, query {i}"
            );
            found += r.vertices.len();
        }
        let stale = monitor.seed_cache_stats().unwrap().stale;
        if stale > rebuilds {
            rebuilds = stale;
            assert_all_pruned(
                results.iter().map(|r| &r.timings),
                &format!("step {step}, rebuilt"),
            );
        }
        monitor.recycle(results);
    }
    assert!(found > 0, "the boxes must follow the neuron");
    assert!(rebuilds >= 2, "the drift must force rebuilds");
    let stats = monitor.seed_cache_stats().unwrap();
    assert_eq!((stats.hits, stats.misses), (24, 0), "{stats:?}");
}

/// The shapes that reduce to box queries inherit the bound: k-nearest
/// and aggregates on the two-neuron mesh, through the monitor's grid,
/// equal what the full probe answers on a fresh executor — and skipped
/// walks the full probe ran.
#[test]
fn shapes_on_the_two_neuron_mesh_equal_their_full_probe_answers() {
    let mesh = neuron(NeuroLevel::L1, 0.4).unwrap();
    let anchor = arbor_a_anchor(&mesh);
    let region = Aabb::cube(anchor, 0.12);
    let shapes = [
        QueryShape::KNearest {
            k: 12,
            point: anchor,
        },
        QueryShape::KNearest {
            k: 3,
            point: Point3::new(-0.5, 0.5, 0.5),
        },
        QueryShape::Aggregate {
            region,
            kind: AggregateKind::Count,
        },
        QueryShape::Aggregate {
            region,
            kind: AggregateKind::Centroid,
        },
    ];
    let sim = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.006, 3, 0x2E)));
    let mut monitor = MonitorLoop::new(sim, 2).unwrap();
    for step in 1..=3u32 {
        monitor.begin_step().unwrap();
        monitor.finish_step().unwrap();
        let answers = monitor.query_shapes(&shapes);
        let snapshot = monitor.snapshot();
        let fresh = Octopus::new(snapshot).unwrap();
        let mut scratch = fresh.make_scratch(snapshot);
        for (i, (shape, answer)) in shapes.iter().zip(&answers).enumerate() {
            let ctx = format!("step {step}, shape {i}");
            let (want, full) = fresh.query_shape(&mut scratch, snapshot, shape, Probe::Surface);
            match (&answer.result, &want) {
                (ShapeResult::Vertices(got), ShapeResult::Vertices(want)) => {
                    assert_eq!(got, want, "{ctx}");
                    assert!(!got.is_empty(), "{ctx}");
                }
                (ShapeResult::Aggregate(got), ShapeResult::Aggregate(want)) => {
                    assert_eq!(
                        (got.count, got.centroid),
                        (want.count, want.centroid),
                        "{ctx}"
                    );
                    assert!(got.count > 0, "{ctx}");
                }
                _ => panic!("{ctx}: the answer changed kind"),
            }
            let t = &answer.timings;
            assert_eq!(
                (t.walks + t.walks_pruned, full.walks_pruned),
                (full.walks, 0),
                "{ctx}"
            );
            assert!(t.walks_pruned > 0, "{ctx}: {t:?}");
        }
    }
    let stats = monitor.seed_cache_stats().unwrap();
    assert_eq!((stats.hits, stats.misses), (12, 0), "{stats:?}");
}

/// Ring-depth interplay: retained-step queries (`query_batch_at`) keep
/// answering exactly for *older* steps while the engine serves them,
/// each step at its own reach from the grid the slots share.
#[test]
fn engine_serves_retained_ring_steps_exactly() {
    let depth = 3usize;
    let steps = 6u32;
    let base = box_mesh(5);
    let make_sim =
        |mesh: Mesh| Simulation::new(mesh, Box::new(SmoothRandomField::new(0.01, 3, 0x77)));
    let mut monitor =
        MonitorLoop::with_config(make_sim(base.clone()), 2, LayoutPolicy::Preserve, depth).unwrap();
    let queries = [
        Aabb::cube(Point3::splat(0.5), 0.2),
        Aabb::cube(Point3::splat(0.3), 0.15),
    ];
    // Remember, per step, what the batch answered when the step was
    // latest; later re-ask through the ring.
    let mut answers: Vec<Vec<Vec<VertexId>>> = Vec::new();
    monitor.fill_pipeline().unwrap();
    for step in 1..=steps {
        monitor.finish_step().unwrap();
        if step < steps {
            monitor.fill_pipeline().unwrap();
        }
        let results = monitor.query_batch(&queries);
        answers.push(results.iter().map(|r| sorted(r.vertices.clone())).collect());
        monitor.recycle(results);

        let oldest = *monitor.retained_steps().start();
        if oldest >= 1 && oldest < step {
            let again = monitor.query_batch_at(oldest, &queries).unwrap();
            for (i, r) in again.iter().enumerate() {
                assert_eq!(
                    sorted(r.vertices.clone()),
                    answers[oldest as usize - 1][i],
                    "step {oldest} re-asked at latest {step}, query {i}"
                );
            }
            monitor.recycle(again);
        }
    }
}

/// Checks one engine-planned batch answered against `mesh`: every
/// answer is the crawl's, equal to a scan of the active vertices up to
/// Algorithm 1's blind spot. The engine's report must count the batch,
/// and no query routed to a scan.
fn assert_crawled_batch(
    mesh: &Mesh,
    queries: &[Aabb],
    results: &[QueryResult],
    report: EngineReport,
    ctx: &str,
) {
    assert_eq!(results.len(), queries.len(), "{ctx}");
    for (i, (q, r)) in queries.iter().zip(results).enumerate() {
        let got = sorted(r.vertices.clone());
        assert_scan_up_to_gap(mesh, q, &got, &format!("{ctx}: query {i}"));
    }
    assert_eq!(report.queries, queries.len(), "{ctx}: {report:?}");
    assert_eq!(report.scan_queries, 0, "{ctx}: {report:?}");
    assert!(report.grouped_queries <= queries.len(), "{ctx}: {report:?}");
    assert!(
        (1..=queries.len()).contains(&report.groups),
        "{ctx}: {report:?}"
    );
    if report.grouped_queries == 0 {
        assert_eq!(report.attributed_visited, 0, "{ctx}: {report:?}");
    }
}

/// The churn request shape: ring depth 2, restructuring every 3rd
/// step, one re-layout, and each round a latest-step batch plus a batch
/// pinned to the oldest retained step. Every batch is answered from the
/// slot it asks — after a restructure the two batches of a round see
/// different connectivity generations — and every answer is checked
/// against a scan of that slot.
#[test]
fn churn_rounds_answer_each_batch_from_its_own_snapshot() {
    let mut base = box_mesh(7);
    base.enable_restructuring().unwrap();
    let sim = Simulation::new(base, Box::new(SmoothRandomField::new(0.006, 3, 0xC0)))
        .with_restructuring(RestructureSchedule::new(3, 4, 0xC1))
        .unwrap();
    let policy = LayoutPolicy::Hilbert {
        trigger: RelayoutTrigger::AfterRestructures(2),
    };
    let mut monitor = MonitorLoop::with_config(sim, 2, policy, 2).unwrap();
    // Nested boxes, up to broad ones that share one frontier.
    let sweep: Vec<Aabb> = (0..24)
        .map(|i| Aabb::cube(Point3::splat(0.5), 0.08 + 0.0015 * i as f32))
        .collect();

    let mut split_rounds = 0;
    for step in 1..=10u32 {
        monitor.begin_step().unwrap();
        monitor.finish_step().unwrap();

        let mut fresh = mixed_workload(monitor.snapshot(), u64::from(step), 3, 3);
        fresh.extend_from_slice(&sweep);
        let results = monitor.query_batch(&fresh);
        let ctx = format!("step {step}, latest");
        let report = monitor.engine_report().unwrap();
        assert_crawled_batch(monitor.snapshot(), &fresh, &results, report, &ctx);
        monitor.recycle(results);
        let latest = monitor.snapshot().restructure_epoch();

        let oldest = *monitor.retained_steps().start();
        let mut old = mixed_workload(monitor.snapshot(), u64::from(step) ^ 0x01D, 2, 2);
        old.extend_from_slice(&sweep);
        monitor.pin_step(oldest).unwrap();
        let results = monitor.query_batch_at(oldest, &old).unwrap();
        let mesh = monitor.snapshot_at(oldest).unwrap();
        let ctx = format!("step {step}, pinned step {oldest}");
        let report = monitor.engine_report().unwrap();
        assert_crawled_batch(mesh, &old, &results, report, &ctx);
        if mesh.restructure_epoch() != latest {
            split_rounds += 1;
        }
        monitor.recycle(results);
        monitor.unpin_step(oldest).unwrap();
    }
    assert_eq!(monitor.relayouts(), 1, "the schedule re-lays out once");
    assert!(
        split_rounds >= 2,
        "restructure rounds must ask two generations"
    );
}

/// The shape entry point: `MonitorLoop::query_shapes` over every shape
/// kind equals brute force over the snapshot's active vertices, before
/// and after a restructuring step — on a pool that has run no plan yet
/// and with a box batch run before every shape batch (the shapes
/// borrow the scratch that batch's crawls used).
#[test]
fn query_shapes_match_brute_force_with_and_without_box_batches_between() {
    let centre = Point3::splat(0.45);
    let region = Aabb::cube(centre, 0.3);
    let clipped = ConvexRegion::new(
        region,
        vec![Halfspace::through(centre, Vec3::new(1.0, 0.5, 0.25))],
    );
    let shapes = [
        QueryShape::Box(region),
        QueryShape::Convex(clipped),
        QueryShape::KNearest {
            k: 9,
            point: centre,
        },
        QueryShape::KNearest {
            k: 5,
            point: Point3::splat(2.0),
        },
        QueryShape::Aggregate {
            region,
            kind: AggregateKind::Count,
        },
        QueryShape::Aggregate {
            region,
            kind: AggregateKind::Centroid,
        },
    ];
    for batches_between in [false, true] {
        let mut base = box_mesh(5);
        base.enable_restructuring().unwrap();
        let sim = Simulation::new(base, Box::new(SmoothRandomField::new(0.006, 3, 0x5A)))
            .with_restructuring(RestructureSchedule::new(2, 2, 0xC4))
            .unwrap();
        let mut monitor = MonitorLoop::new(sim, 2).unwrap();
        let ingest_epoch = monitor.snapshot().restructure_epoch();
        for step in 0..=2u32 {
            if step > 0 {
                monitor.begin_step().unwrap();
                monitor.finish_step().unwrap();
            }
            if batches_between {
                let boxes = [Aabb::cube(Point3::splat(0.3), 0.2), region];
                let results = monitor.query_batch(&boxes);
                monitor.recycle(results);
            }
            let answers = monitor.query_shapes(&shapes);
            let mesh = monitor.snapshot();
            for (i, (shape, answer)) in shapes.iter().zip(&answers).enumerate() {
                let ctx = format!("batches between {batches_between}, step {step}, shape {i}");
                let ids = || sorted(answer.result.vertices().expect("an id list").to_vec());
                match shape {
                    QueryShape::Box(q) => assert_eq!(ids(), scan_active(mesh, q), "{ctx}"),
                    QueryShape::Convex(r) => assert_eq!(ids(), scan_region(mesh, r), "{ctx}"),
                    QueryShape::KNearest { k, point } => assert_eq!(
                        answer.result.vertices().expect("an id list"),
                        knn_scan(mesh, *k, *point),
                        "{ctx}: ascending (distance, id)"
                    ),
                    QueryShape::Aggregate { region, kind } => {
                        let members = scan_active(mesh, region);
                        let ShapeResult::Aggregate(value) = &answer.result else {
                            panic!("{ctx}: aggregates materialise no ids");
                        };
                        assert_eq!(value.count, members.len(), "{ctx}");
                        assert_eq!(
                            value.centroid.is_some(),
                            *kind == AggregateKind::Centroid,
                            "{ctx}"
                        );
                        if let Some(c) = value.centroid {
                            let n = members.len() as f32;
                            let mean = members.iter().fold(Vec3::new(0.0, 0.0, 0.0), |acc, &v| {
                                acc + mesh.position(v).to_vec() * (1.0 / n)
                            });
                            assert!((c.to_vec() - mean).length() < 1e-4, "{ctx}");
                        }
                    }
                }
            }
        }
        assert_ne!(
            monitor.snapshot().restructure_epoch(),
            ingest_epoch,
            "the last step must have restructured"
        );
    }
}
