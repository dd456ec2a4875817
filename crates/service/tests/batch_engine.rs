//! Property suite of the batch query engine: shared-frontier overlap
//! groups + temporal seed cache + Eq.-6 planner routing must return,
//! per query, exactly what the sequential `Octopus::query` returns —
//! on random meshes and workloads, across deformation and restructuring
//! steps, mid-run re-layouts, and snapshot-ring depths 1 and 3. Plus the deterministic visited-vertex counter: on an
//! overlapping batch, the shared crawl performs strictly fewer traversal
//! events than independent crawls.

use octopus_core::{AggregateKind, ExecutorMetrics, Octopus, QueryShape, ShapeResult};
use octopus_geom::rng::SplitMix64;
use octopus_geom::{Aabb, ConvexRegion, Halfspace, Point3, Vec3, VertexId};
use octopus_mesh::Mesh;
use octopus_meshgen::{neuron, NeuroLevel};
use octopus_service::{
    BatchEngine, BatchEngineConfig, EngineMetrics, LayoutPolicy, MonitorLoop, ParallelExecutor,
    RelayoutTrigger, Snapshot,
};
use octopus_sim::{RestructureSchedule, Simulation, SmoothRandomField};
use octopus_telemetry::Registry;
use octopus_testkit::{box_mesh, knn_scan, mixed_workload, scan_active, scan_region, sorted};
use proptest::prelude::*;

fn sequential_reference(mesh: &Mesh, queries: &[Aabb]) -> Vec<Vec<VertexId>> {
    let mut octopus = Octopus::new(mesh).unwrap();
    queries
        .iter()
        .map(|q| {
            let mut out = Vec::new();
            octopus.query(mesh, q, &mut out);
            sorted(out)
        })
        .collect()
}

/// An engine for `mesh`, its planner reading S off a fresh executor's
/// surface index (as `MonitorLoop::set_batch_engine` does off the
/// latest slot's).
fn engine_for(cfg: BatchEngineConfig, mesh: &Mesh) -> BatchEngine {
    BatchEngine::new(cfg, &Octopus::new(mesh).unwrap(), mesh)
}

/// `mesh` as the engine sees a retained step, at meter reading
/// `cum_drift`.
fn static_snapshot<'a>(exec: &'a Octopus, mesh: &'a Mesh, cum_drift: f32) -> Snapshot<'a> {
    Snapshot {
        step: 0,
        mesh,
        exec,
        cum_drift,
    }
}

fn assert_engine_equivalent(
    engine: &mut BatchEngine,
    pool: &mut ParallelExecutor,
    mesh: &Mesh,
    queries: &[Aabb],
    cum_drift: f32,
    ctx: &str,
) {
    let octopus = Octopus::new(mesh).unwrap();
    let snap = static_snapshot(&octopus, mesh, cum_drift);
    assert_engine_equivalent_at(engine, pool, &snap, queries, ctx);
}

fn assert_engine_equivalent_at(
    engine: &mut BatchEngine,
    pool: &mut ParallelExecutor,
    snap: &Snapshot<'_>,
    queries: &[Aabb],
    ctx: &str,
) {
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
    pool.recycle(results);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Engine ≡ sequential on random meshes/workloads, planner + cache
    /// + grouping all enabled (static snapshot).
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
        let mut engine = engine_for(BatchEngineConfig::default(), &mesh);
        let mut pool = ParallelExecutor::new(workers);
        // Twice: the second batch runs warm (every query seeds from the
        // cache at zero drift) and must still be exact.
        assert_engine_equivalent(&mut engine, &mut pool, &mesh, &queries, 0.0, "cold");
        assert_engine_equivalent(&mut engine, &mut pool, &mesh, &queries, 0.0, "warm");
        prop_assert!(engine.cache_stats().hits > 0, "warm batch must hit the cache");
    }

    /// Engine ≡ sequential across deformation steps: the seed cache
    /// serves drifting positions under its accumulated-drift gate.
    #[test]
    fn engine_stays_exact_across_deformation_with_cache_hits(
        seed in 0u64..500,
    ) {
        let mut mesh = box_mesh(6);
        let queries = mixed_workload(&mesh, seed, 2, 3);
        let mut engine = engine_for(BatchEngineConfig::default(), &mesh);
        let mut pool = ParallelExecutor::new(2);
        let mut rng = SplitMix64::new(seed ^ 0xD1F7);
        let mut cum_drift = 0.0f32;
        for step in 0..5 {
            assert_engine_equivalent(
                &mut engine, &mut pool, &mesh, &queries, cum_drift,
                &format!("step {step}"),
            );
            // Deform; meter the true max displacement like the monitor.
            let mut max_sq = 0.0f32;
            for p in mesh.positions_mut() {
                let before = *p;
                p.x += rng.range_f32(-0.004, 0.004);
                p.y += rng.range_f32(-0.004, 0.004);
                p.z += rng.range_f32(-0.004, 0.004);
                max_sq = max_sq.max(before.dist_sq(*p));
            }
            cum_drift += max_sq.sqrt();
        }
        let stats = engine.cache_stats();
        prop_assert!(stats.hits > 0, "drifting repeats must hit: {stats:?}");
    }

    /// The full monitor path — snapshot ring (K ∈ {1, 3}), restructuring
    /// steps, engine-routed batches — against a stop-the-world replay.
    /// The planner is left off here: Eq.-6 scan routing is validated on
    /// deformation-only workloads below, because on restructure-carved
    /// meshes a linear scan can (correctly) find concave-pocket vertices
    /// that Algorithm 1 itself misses — the baseline's documented gap,
    /// not the engine's.
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
        monitor.set_batch_engine(BatchEngineConfig {
            use_planner: false,
            ..BatchEngineConfig::default()
        }).unwrap();

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
                reference.on_restructure(sim.mesh(), &outcome.delta);
            }
            for (i, (r, q)) in results.iter().zip(&queries).enumerate() {
                let mut want = Vec::new();
                reference.query(sim.mesh(), q, &mut want);
                prop_assert_eq!(
                    sorted(r.vertices.clone()),
                    sorted(want),
                    "depth {} step {} query {}", depth, step, i
                );
            }
            monitor.recycle(results);

            // The sequential cached path must agree too.
            let mut single = Vec::new();
            monitor.query(&queries[0], &mut single);
            let mut want = Vec::new();
            reference.query(sim.mesh(), &queries[0], &mut want);
            prop_assert_eq!(sorted(single), sorted(want), "sequential path, step {}", step);
        }
        let stats = monitor.seed_cache_stats().unwrap();
        prop_assert!(stats.hits > 0, "repeated workload must hit: {stats:?}");
        prop_assert!(
            stats.stale > 0,
            "restructuring must have invalidated entries: {stats:?}"
        );
    }
}

/// Planner routing (incl. the shared linear scan and the hoisted
/// `decide_batch`) on a deformation-only workload: big queries cross the
/// Eq.-6 crossover and route to the scan, small ones crawl — all exact,
/// and all of them — scan-routed included — visible to the executor's
/// telemetry.
#[test]
fn planner_routed_batches_match_sequential() {
    let mesh = box_mesh(8);
    let mut queries = mixed_workload(&mesh, 0xA11C, 2, 4);
    // Broad queries: high selectivity ⇒ LinearScan decisions.
    queries.push(Aabb::new(Point3::splat(-0.1), Point3::splat(1.1)));
    queries.push(Aabb::new(Point3::splat(0.1), Point3::splat(0.95)));
    let registry = Registry::new(true);
    let octopus = Octopus::new(&mesh).unwrap();
    octopus.attach_metrics(&ExecutorMetrics::register(&registry));
    let mut engine = BatchEngine::new(BatchEngineConfig::default(), &octopus, &mesh);
    engine.attach_metrics(&EngineMetrics::register(&registry));
    let mut pool = ParallelExecutor::new(3);
    assert_engine_equivalent_at(
        &mut engine,
        &mut pool,
        &static_snapshot(&octopus, &mesh, 0.0),
        &queries,
        "planner-routed",
    );
    let telemetry = registry.snapshot();
    assert_eq!(
        telemetry.counter("executor_queries_total"),
        queries.len() as u64,
        "every query of the batch is an executed query, whatever its route"
    );
    assert!(telemetry.counter("engine_scan_queries_total") >= 2);
    assert!(
        telemetry
            .histogram("executor_phase_ns_linear_scan")
            .unwrap()
            .count
            >= 1,
        "the shared scan pass must land in the linear-scan phase histogram"
    );
    let report = engine.report();
    assert!(
        report.scan_queries >= 2,
        "broad queries must route to the shared scan: {report:?}"
    );
    assert!(
        report.grouped_queries > 0,
        "clustered queries must share frontiers: {report:?}"
    );
}

/// A cache entry created on one pre-attach snapshot must never validate
/// against another: those slots predate the displacement meter, so the
/// monitor spaces their readings past the margin at attach time. The
/// positions of retained pre-attach steps genuinely differ, and serving
/// stale candidates across them would silently drop result vertices.
#[test]
fn pre_attach_ring_snapshots_never_share_cache_entries() {
    let depth = 3usize;
    let base = box_mesh(5);
    let make_sim =
        |mesh: Mesh| Simulation::new(mesh, Box::new(SmoothRandomField::new(0.02, 3, 0x99)));
    let mut monitor =
        MonitorLoop::with_config(make_sim(base), 2, LayoutPolicy::Preserve, depth).unwrap();
    // Deform for a few steps with NO engine attached: the retained
    // slots accumulate real displacement their meters know nothing
    // about.
    monitor.fill_pipeline().unwrap();
    for _ in 0..depth {
        monitor.finish_step().unwrap();
        monitor.fill_pipeline().unwrap();
    }
    let retained = monitor.retained_steps();
    assert!(retained.end() - retained.start() >= 2, "need ≥3 slots");
    // Planner off: a single query takes the same request path as a
    // batch, and Eq. 6 would send this broad box to the scan, which
    // never consults the cache under test.
    monitor
        .set_batch_engine(BatchEngineConfig {
            use_planner: false,
            ..BatchEngineConfig::default()
        })
        .unwrap();

    let q = Aabb::cube(Point3::splat(0.5), 0.25);
    let (a, b) = (*retained.start(), *retained.end());
    // Same-slot repeats may warm-start (positions identical), but the
    // cross-slot switch must force a miss + refill: the sentinel-spaced
    // meters invalidate A's entry for B (and vice versa), and every
    // answer must be exact for its own snapshot.
    for step in [a, a, b, b] {
        let mut got = Vec::new();
        monitor.query_at(step, &q, &mut got).unwrap();
        let snap = monitor.snapshot_at(step).unwrap();
        let want: Vec<VertexId> = snap
            .positions()
            .iter()
            .enumerate()
            .filter(|(_, p)| q.contains(**p))
            .map(|(i, _)| i as VertexId)
            .collect();
        assert_eq!(sorted(got), want, "step {step}");
    }
    let stats = monitor.seed_cache_stats().unwrap();
    assert_eq!(
        stats.hits, 2,
        "only the same-slot repeats may hit (A→A, B→B): {stats:?}"
    );
}

/// Seed-cache hit accounting must reflect actual warm starts: when one
/// member of an overlap group misses, the whole group runs the full
/// probe and *no* member counts as a hit.
#[test]
fn group_fallback_counts_no_phantom_hits() {
    let mesh = box_mesh(6);
    // Two overlapping boxes — one locality group.
    let q1 = Aabb::new(Point3::splat(0.2), Point3::splat(0.55));
    let q2 = Aabb::new(Point3::splat(0.35), Point3::splat(0.7));
    // A third, also overlapping, that the first batch never caches.
    let q3 = Aabb::new(Point3::splat(0.3), Point3::splat(0.65));
    let mut engine = engine_for(
        BatchEngineConfig {
            use_planner: false,
            ..BatchEngineConfig::default()
        },
        &mesh,
    );
    let mut pool = ParallelExecutor::new(2);
    let octopus = Octopus::new(&mesh).unwrap();
    let snap = static_snapshot(&octopus, &mesh, 0.0);

    let r = engine.execute(&mut pool, &snap, &[q1, q2]);
    pool.recycle(r);
    assert_eq!(engine.cache_stats().hits, 0, "cold batch");

    // q3 has no entry: the [q1, q3] group must fall back — q1's valid
    // entry is not used, so hits stay 0 and both queries count misses.
    let r = engine.execute(&mut pool, &snap, &[q1, q3]);
    pool.recycle(r);
    let stats = engine.cache_stats();
    assert_eq!(stats.hits, 0, "no member warm-started: {stats:?}");
    assert_eq!(engine.report().cache_seeded, 0);

    // Now everything is cached: the same batch hits for both members.
    let r = engine.execute(&mut pool, &snap, &[q1, q3]);
    pool.recycle(r);
    let stats = engine.cache_stats();
    assert_eq!(stats.hits, 2, "fully cached group warm-starts: {stats:?}");
    assert_eq!(engine.report().cache_seeded, 2);
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
    let mut seq = Octopus::new(&mesh).unwrap();
    let mut independent = 0usize;
    for q in &queries {
        let mut out = Vec::new();
        independent += seq.query(&mesh, q, &mut out).crawl_visited;
    }

    // Planner off isolates the shared-frontier counter (no scan
    // rerouting); cache off isolates it from warm starts.
    let mut engine = engine_for(
        BatchEngineConfig {
            use_planner: false,
            use_seed_cache: false,
        },
        &mesh,
    );
    let mut pool = ParallelExecutor::new(2);
    assert_engine_equivalent(&mut engine, &mut pool, &mesh, &queries, 0.0, "overlap-64");
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

/// Seed-cache invalidation regression: a mid-run re-layout permutes the
/// id space; cached candidate lists must be translated, not dropped —
/// and stay exact afterwards. Runs in release in CI (service release
/// test step).
#[test]
fn seed_cache_survives_mid_run_relayout_via_translation() {
    let steps = 6u32;
    let mut base = box_mesh(5);
    base.enable_restructuring().unwrap();
    let make_sim = |mesh: Mesh| {
        Simulation::new(mesh, Box::new(SmoothRandomField::new(0.004, 3, 0x11)))
            .with_restructuring(RestructureSchedule::new(2, 1, 0x22))
            .unwrap()
    };
    let policy = LayoutPolicy::Hilbert {
        // Re-layout after every restructuring event: maximal churn on
        // the id space.
        trigger: RelayoutTrigger::AfterRestructures(1),
    };
    let mut monitor = MonitorLoop::with_config(make_sim(base.clone()), 2, policy, 1).unwrap();
    monitor
        .set_batch_engine(BatchEngineConfig {
            use_planner: false,
            ..BatchEngineConfig::default()
        })
        .unwrap();

    let mut sim = make_sim(base);
    let mut reference = Octopus::new(sim.mesh()).unwrap();
    let queries = [
        Aabb::cube(Point3::splat(0.4), 0.18),
        Aabb::cube(Point3::splat(0.65), 0.12),
    ];
    for step in 1..=steps {
        monitor.begin_step().unwrap();
        if monitor.step_in_flight() {
            monitor.finish_step().unwrap();
        }
        let outcome = sim.step_outcome().unwrap();
        assert_eq!(outcome.step, monitor.snapshot_step());
        if outcome.restructured {
            reference.on_restructure(sim.mesh(), &outcome.delta);
        }
        let translation = monitor.vertex_translation().map(<[VertexId]>::to_vec);
        for (i, q) in queries.iter().enumerate() {
            let mut got = Vec::new();
            monitor.query(q, &mut got);
            let mut want = Vec::new();
            reference.query(sim.mesh(), q, &mut want);
            let want: Vec<VertexId> = match &translation {
                Some(t) => want.iter().map(|&v| t[v as usize]).collect(),
                None => want,
            };
            assert_eq!(
                sorted(got),
                sorted(want),
                "step {step} query {i} (relayouts so far: {})",
                monitor.relayouts()
            );
        }
    }
    assert!(
        monitor.relayouts() > 0,
        "the trigger must actually have re-laid out mid-run"
    );
    let stats = monitor.seed_cache_stats().unwrap();
    assert!(stats.hits > 0, "repeated queries must hit: {stats:?}");
}

/// Ring-depth interplay: retained-step queries (`query_batch_at`) keep
/// answering exactly for *older* steps while the engine serves them —
/// including the seed cache's epoch guard when generations differ.
#[test]
fn engine_serves_retained_ring_steps_exactly() {
    let depth = 3usize;
    let steps = 6u32;
    let base = box_mesh(5);
    let make_sim =
        |mesh: Mesh| Simulation::new(mesh, Box::new(SmoothRandomField::new(0.01, 3, 0x77)));
    let mut monitor =
        MonitorLoop::with_config(make_sim(base.clone()), 2, LayoutPolicy::Preserve, depth).unwrap();
    monitor
        .set_batch_engine(BatchEngineConfig::default())
        .unwrap();
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

/// The shape entry point: `MonitorLoop::query_shapes` over every shape
/// kind equals brute force over the snapshot's active vertices, with
/// and without a batch engine attached, before and after a
/// restructuring step.
#[test]
fn query_shapes_match_brute_force_with_and_without_an_engine() {
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
    for with_engine in [false, true] {
        let mut base = box_mesh(5);
        base.enable_restructuring().unwrap();
        let sim = Simulation::new(base, Box::new(SmoothRandomField::new(0.006, 3, 0x5A)))
            .with_restructuring(RestructureSchedule::new(2, 2, 0xC4))
            .unwrap();
        let mut monitor = MonitorLoop::new(sim, 2).unwrap();
        if with_engine {
            monitor
                .set_batch_engine(BatchEngineConfig::default())
                .unwrap();
        }
        let ingest_epoch = monitor.snapshot().restructure_epoch();
        for step in 0..=2u32 {
            if step > 0 {
                monitor.begin_step().unwrap();
                monitor.finish_step().unwrap();
            }
            let answers = monitor.query_shapes(&shapes);
            let mesh = monitor.snapshot();
            for (i, (shape, answer)) in shapes.iter().zip(&answers).enumerate() {
                let ctx = format!("engine {with_engine}, step {step}, shape {i}");
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
