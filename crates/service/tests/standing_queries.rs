//! Standing queries: the cumulative result of a subscription — its
//! initial set plus every polled delta — must equal the linear-scan
//! ground truth at every step, while the delta fast path (drift-bounded
//! boundary re-tests) serves every poll the drift bound allows without
//! a crawl. The equivalence must hold across restructuring steps (the
//! candidate list is patched), mid-run re-layouts (id translation) and
//! subscribe/unsubscribe churn; one seeded scenario at the end of the
//! file draws all of them at once.
//!
//! The referee is [`octopus_testkit::scan_active`], not a fresh
//! `MonitorLoop::query_batch`: the plain crawl inherits the paper's
//! documented corner-island gap (an in-box vertex all of whose
//! neighbours sit outside a small box can be unreachable), which the
//! subscription's band-dilated candidate crawl does not share at these
//! band widths — so the scan is the one answer both paths owe.

use octopus_geom::rng::SplitMix64;
use octopus_geom::{Aabb, Point3, Vec3, VertexId};
use octopus_service::{
    LayoutPolicy, MonitorLoop, RelayoutTrigger, ResultDelta, SubscriptionId, SubscriptionStats,
};
use octopus_sim::{Deformation, RestructureSchedule, Simulation, SmoothRandomField};
use octopus_telemetry::Registry;
use octopus_testkit::{box_mesh, scan_active, sequential_reference, sorted};
use proptest::prelude::*;

/// The standing boxes under test: one whose boundary threads straight
/// through grid shells (heavy enter/leave traffic), one clipping the
/// mesh boundary, one half off the mesh.
fn standing_boxes() -> Vec<Aabb> {
    vec![
        Aabb::cube(Point3::splat(0.5), 0.25),
        Aabb::cube(Point3::splat(0.15), 0.2),
        Aabb::new(Point3::new(0.6, -0.3, 0.1), Point3::new(1.3, 0.4, 0.8)),
    ]
}

/// A client-side mirror of one subscription: the initial snapshot plus
/// every delta applied in order. Checking the mirror (not just
/// `subscription_result`) proves the *deltas* are right, not only the
/// registry's internal set.
struct Mirror {
    id: SubscriptionId,
    query: Aabb,
    members: Vec<VertexId>,
}

impl Mirror {
    /// Subscribes `query` (at the default band, or `band`) and mirrors
    /// the initial result, which is already owed to the scan.
    fn subscribe(monitor: &mut MonitorLoop, query: Aabb, band: Option<f32>) -> Mirror {
        let id = match band {
            Some(band) => monitor.subscribe_with_band(&query, band),
            None => monitor.subscribe(&query),
        };
        let members = monitor.subscription_result(id).unwrap().to_vec();
        assert_eq!(members, scan_active(monitor.snapshot(), &query));
        Mirror { id, query, members }
    }

    fn apply(&mut self, entered: &[VertexId], left: &[VertexId]) {
        self.members.retain(|v| !left.contains(v));
        self.members.extend_from_slice(entered);
        self.members.sort_unstable();
    }

    /// Re-layout moved every id: `old_to_new` maps this mirror forward.
    fn translate(&mut self, old_to_new: &[VertexId]) {
        for v in &mut self.members {
            *v = old_to_new[*v as usize];
        }
        self.members.sort_unstable();
    }
}

/// The monitor's `ingest → id` map over the latest snapshot's vertices.
fn ingest_map(monitor: &MonitorLoop) -> Vec<VertexId> {
    (0..monitor.snapshot().num_vertices() as VertexId)
        .map(|v| monitor.translate_vertex(v).unwrap())
        .collect()
}

/// One step of every suite below: advances the ring to `step`, carries
/// the mirrors across a re-layout, polls, applies the deltas and holds
/// every mirror — and the registry's own result — to the linear scan of
/// the new snapshot. A live subscription nobody mirrors (a zero band
/// owes the plain crawl, not the scan) is polled along and left to the
/// caller. Returns the poll's deltas.
fn step_and_check(
    monitor: &mut MonitorLoop,
    mirrors: &mut [Mirror],
    step: u32,
    ctx: &str,
) -> Vec<(SubscriptionId, ResultDelta)> {
    let before = ingest_map(monitor);
    let relayouts_before = monitor.relayouts();
    monitor.fill_pipeline().unwrap();
    assert_eq!(monitor.finish_step().unwrap(), step);
    if monitor.relayouts() > relayouts_before {
        // The re-layout's `old id → new id` permutation. A restructure
        // in the same window appended ids, which the old map read as
        // themselves.
        let after = ingest_map(monitor);
        let mut map = vec![0 as VertexId; after.len()];
        for (i, &new) in after.iter().enumerate() {
            map[before.get(i).map_or(i, |&old| old as usize)] = new;
        }
        for m in mirrors.iter_mut() {
            m.translate(&map);
        }
    }
    let deltas = monitor.poll_subscriptions();
    assert_eq!(deltas.len(), monitor.subscriptions(), "{ctx} step {step}");
    for (id, delta) in &deltas {
        assert_eq!(delta.step, step, "deltas are stamped with the poll step");
        if let Some(m) = mirrors.iter_mut().find(|m| m.id == *id) {
            m.apply(&delta.entered, &delta.left);
        }
    }
    for m in mirrors.iter() {
        let truth = scan_active(monitor.snapshot(), &m.query);
        assert_eq!(
            m.members, truth,
            "{ctx} step {step}: delta-applied mirror diverged"
        );
        assert_eq!(
            monitor.subscription_result(m.id).unwrap(),
            truth,
            "{ctx} step {step}: registry result diverged"
        );
    }
    deltas
}

/// `box_mesh(n)` under `field`, restructuring `ops` random operations
/// every `period` steps when asked to.
fn simulation(
    n: usize,
    field: Box<dyn Deformation>,
    restructure: Option<(u32, usize, u64)>,
) -> Simulation {
    let sim = Simulation::new(box_mesh(n), field);
    match restructure {
        Some((period, ops, seed)) => sim
            .with_restructuring(RestructureSchedule::new(period, ops, seed))
            .unwrap(),
        None => sim,
    }
}

/// Drives `steps` steps at ring depth `depth` over the three standing
/// boxes, checking every step with [`step_and_check`].
fn run_equivalence(
    depth: usize,
    field_seed: u64,
    amplitude: f32,
    restructure: Option<(u32, usize, u64)>,
    policy: LayoutPolicy,
    steps: u32,
) -> (MonitorLoop, Vec<SubscriptionId>) {
    let sim = simulation(
        4,
        Box::new(SmoothRandomField::new(amplitude, 3, field_seed)),
        restructure,
    );
    let mut monitor = MonitorLoop::with_config(sim, 2, policy, depth).unwrap();
    let mut mirrors: Vec<Mirror> = standing_boxes()
        .into_iter()
        .map(|q| Mirror::subscribe(&mut monitor, q, None))
        .collect();
    assert_eq!(monitor.subscriptions(), mirrors.len());
    for step in 1..=steps {
        step_and_check(&mut monitor, &mut mirrors, step, &format!("depth {depth}"));
    }
    let ids = mirrors.iter().map(|m| m.id).collect();
    (monitor, ids)
}

#[test]
fn deltas_equal_fresh_queries_under_deformation() {
    for depth in [1, 3] {
        let (monitor, ids) = run_equivalence(depth, 77, 0.01, None, LayoutPolicy::Preserve, 20);
        // Pure deformation at this amplitude stays far inside the
        // default band: after the initial refresh every poll must ride
        // the delta fast path.
        for id in ids {
            let stats = monitor.subscription_stats(id).unwrap();
            assert_eq!(stats.polls, 20);
            assert!(
                stats.delta_polls > 0,
                "depth {depth}: delta path never used ({stats:?})"
            );
            assert!(
                stats.delta_hit_rate() > 0.5,
                "depth {depth}: delta path should dominate ({stats:?})"
            );
        }
    }
}

#[test]
fn deltas_stay_exact_across_restructuring() {
    for depth in [1, 3] {
        let (monitor, ids) = run_equivalence(
            depth,
            123,
            0.01,
            Some((3, 2, 0xD1CE)),
            LayoutPolicy::Preserve,
            12,
        );
        for id in ids {
            let stats = monitor.subscription_stats(id).unwrap();
            // A restructuring step patches the candidate list; nothing
            // crawls beyond the one refresh at subscribe.
            assert_eq!(
                stats.full_refreshes, 1,
                "depth {depth}: a restructure must not force a refresh ({stats:?})"
            );
        }
    }
}

#[test]
fn deltas_stay_exact_across_mid_run_relayouts() {
    for depth in [1, 3] {
        let (monitor, _) = run_equivalence(
            depth,
            123,
            0.01,
            Some((3, 2, 0xD1CE)),
            LayoutPolicy::Hilbert {
                trigger: RelayoutTrigger::AfterRestructures(2),
            },
            12,
        );
        assert!(
            monitor.relayouts() >= 1,
            "depth {depth}: the run must actually re-layout mid-stream"
        );
    }
}

#[test]
fn subscribe_and_unsubscribe_mid_stream() {
    let mesh = box_mesh(4);
    let sim = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.01, 3, 42)));
    let mut monitor = MonitorLoop::new(sim, 2).unwrap();
    let q_a = Aabb::cube(Point3::splat(0.5), 0.25);
    let q_b = Aabb::cube(Point3::splat(0.3), 0.2);

    let a = monitor.subscribe(&q_a);
    let mut b = None;
    for step in 1..=10 {
        monitor.begin_step().unwrap();
        monitor.finish_step().unwrap();
        if step == 4 {
            // A late subscriber starts from a fresh full answer at the
            // current step, not from stale history.
            let id = monitor.subscribe(&q_b);
            assert_eq!(
                monitor.subscription_result(id).unwrap(),
                scan_active(monitor.snapshot(), &q_b)
            );
            b = Some(id);
        }
        if step == 7 {
            assert!(monitor.unsubscribe(a));
            assert!(!monitor.unsubscribe(a), "double-unsubscribe is a no-op");
            assert!(monitor.subscription_result(a).is_none());
            assert!(monitor.subscription_stats(a).is_none());
        }
        let deltas = monitor.poll_subscriptions();
        if step >= 7 {
            assert!(
                deltas.iter().all(|(id, _)| *id != a),
                "cancelled subscriptions must not be polled"
            );
        }
        for (id, q) in [(Some(a), &q_a), (b, &q_b)] {
            let Some(id) = id else { continue };
            if step >= 7 && id == a {
                continue;
            }
            assert_eq!(
                monitor.subscription_result(id).unwrap(),
                scan_active(monitor.snapshot(), q),
                "step {step}"
            );
        }
    }
    assert_eq!(monitor.subscriptions(), 1);
}

#[test]
fn unsubscribing_keeps_the_polls_already_counted() {
    let sim = Simulation::new(box_mesh(4), Box::new(SmoothRandomField::new(0.01, 3, 42)));
    let mut monitor = MonitorLoop::new(sim, 2).unwrap();
    let registry = Registry::new();
    monitor.attach_telemetry(&registry);
    let a = monitor.subscribe(&Aabb::cube(Point3::splat(0.5), 0.25));
    monitor.subscribe(&Aabb::cube(Point3::splat(0.3), 0.2));
    for step in 1..=4 {
        monitor.begin_step().unwrap();
        monitor.finish_step().unwrap();
        if step == 3 {
            // Between a step's gauges and its poll: the poll's sync is
            // the first to see the registry without `a`.
            assert!(monitor.unsubscribe(a));
        }
        monitor.poll_subscriptions();
    }
    // Two polls of two subscriptions, then two of one.
    let telemetry = monitor.telemetry_snapshot().unwrap();
    assert_eq!(telemetry.counter("standing_polls_total"), 6);
}

#[test]
fn zero_band_subscription_is_exact_but_never_fast() {
    let mesh = box_mesh(4);
    let sim = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.01, 3, 7)));
    let mut monitor = MonitorLoop::new(sim, 2).unwrap();
    let q = Aabb::cube(Point3::splat(0.5), 0.25);
    let id = monitor.subscribe_with_band(&q, 0.0);
    for step in 1..=6 {
        monitor.begin_step().unwrap();
        monitor.finish_step().unwrap();
        monitor.poll_subscriptions();
        // A zero band degenerates to re-running the plain query every
        // poll: compare against exactly that. Both crawl, so Algorithm
        // 1's gap (`inherited_algorithm1_gap_is_pinned`) applies to
        // both equally; a scan would also return what it leaves out.
        let fresh = monitor.query_batch(&[q]);
        assert_eq!(
            monitor.subscription_result(id).unwrap(),
            sorted(fresh[0].vertices.clone()),
            "step {step}"
        );
        monitor.recycle(fresh);
    }
    let stats = monitor.subscription_stats(id).unwrap();
    assert_eq!(stats.delta_polls, 0, "a zero band can never validate");
    assert_eq!(stats.full_refreshes, 7, "subscribe + one per poll");
}

#[test]
fn deltas_report_entered_and_left_vertices() {
    // The box boundary sits exactly on grid shells, so deformation
    // pushes vertices across it in both directions.
    let mesh = box_mesh(4);
    let sim = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.01, 3, 42)));
    let mut monitor = MonitorLoop::new(sim, 2).unwrap();
    let id = monitor.subscribe(&Aabb::cube(Point3::splat(0.5), 0.25));
    let (mut entered, mut left) = (0usize, 0usize);
    for _ in 1..=25 {
        monitor.begin_step().unwrap();
        monitor.finish_step().unwrap();
        for (_, d) in monitor.poll_subscriptions() {
            entered += d.entered.len();
            left += d.left.len();
            assert_eq!(d.is_empty(), d.entered.is_empty() && d.left.is_empty());
        }
    }
    assert!(entered > 0, "no vertex ever entered the standing box");
    assert!(left > 0, "no vertex ever left the standing box");
    assert!(monitor.subscription_stats(id).unwrap().delta_polls > 0);
}

/// Attaching (or re-attaching) a batch engine mid-run changes how box
/// batches are planned and nothing else: standing queries keep their
/// reference readings and stay on the delta path. (The attach used to
/// rescale every slot's drift meter for the seed cache's sake and force
/// a full refresh of every subscription.)
#[test]
fn attaching_an_engine_keeps_subscriptions_on_the_delta_path() {
    let sim = Simulation::new(box_mesh(4), Box::new(SmoothRandomField::new(0.01, 3, 9)));
    let mut monitor = MonitorLoop::new(sim, 2).unwrap();
    let boxes = standing_boxes();
    let mut mirrors: Vec<Mirror> = boxes
        .iter()
        .map(|q| Mirror::subscribe(&mut monitor, *q, None))
        .collect();
    let step_and_poll = |monitor: &mut MonitorLoop, mirrors: &mut Vec<Mirror>| {
        monitor.begin_step().unwrap();
        monitor.finish_step().unwrap();
        for (id, delta) in monitor.poll_subscriptions() {
            let m = mirrors.iter_mut().find(|m| m.id == id).unwrap();
            m.apply(&delta.entered, &delta.left);
        }
        for (m, q) in mirrors.iter().zip(&boxes) {
            assert_eq!(m.members, scan_active(monitor.snapshot(), q));
        }
    };
    for attach in 0..3 {
        step_and_poll(&mut monitor, &mut mirrors);
        step_and_poll(&mut monitor, &mut mirrors);
        let before: Vec<_> = mirrors
            .iter()
            .map(|m| monitor.subscription_stats(m.id).unwrap())
            .collect();
        monitor.set_batch_engine(Default::default()).unwrap();
        step_and_poll(&mut monitor, &mut mirrors);
        for (m, before) in mirrors.iter().zip(&before) {
            let after = monitor.subscription_stats(m.id).unwrap();
            assert_eq!(
                after.full_refreshes, before.full_refreshes,
                "attach {attach}: no refresh beyond the one at subscribe"
            );
            assert_eq!(after.full_refreshes, 1);
            assert_eq!(after.delta_polls, before.delta_polls + 1, "attach {attach}");
        }
    }
}

/// The member of `cube(0.5, 0.25)` nearest its centre: deep inside, so
/// no δ-re-test near the boundary ever looks at it.
fn centre_vertex(mesh: &octopus_mesh::Mesh) -> VertexId {
    (0..mesh.num_vertices() as VertexId)
        .min_by(|&a, &b| {
            let d = |v| mesh.position(v).dist_sq(Point3::splat(0.5));
            d(a).total_cmp(&d(b))
        })
        .unwrap()
}

/// A smooth field that additionally sends one interior vertex to NaN at
/// exactly one step (it comes back with the next step's field) and,
/// when given one, a surface vertex to NaN from that step on.
struct PoisonAt {
    field: SmoothRandomField,
    step: u32,
    vertex: VertexId,
    surface_vertex: Option<VertexId>,
}

impl Deformation for PoisonAt {
    fn name(&self) -> &'static str {
        "poison-at"
    }

    fn apply_step(&mut self, step: u32, rest: &[Point3], positions: &mut [Point3]) {
        self.field.apply_step(step, rest, positions);
        if step == self.step {
            positions[self.vertex as usize] = Point3::splat(f32::NAN);
        }
        if let Some(v) = self.surface_vertex.filter(|_| step >= self.step) {
            positions[v as usize].y = f32::NAN;
        }
    }
}

#[test]
fn non_finite_displacement_forces_the_exact_refresh_path() {
    // A deep-interior member of the standing box goes NaN at step k.
    // The δ-re-test only looks near the boundary, so a drift meter that
    // ignores the non-finite displacement keeps reporting the vertex;
    // a saturated meter refreshes, and keeps refreshing while a NaN
    // lasts (every rebuild anchors at it). From the same step on a
    // surface vertex far from the box is NaN for good: no reach bounds
    // those snapshots, so their queries fall back to the full surface
    // probe, and no later poll rides the delta path.
    let k = 4;
    let mesh = box_mesh(4);
    let q = Aabb::cube(Point3::splat(0.5), 0.25);
    let centre = centre_vertex(&mesh);
    let corner = (0..mesh.num_vertices() as VertexId)
        .find(|&v| mesh.position(v) == Point3::ORIGIN)
        .expect("the lattice has a vertex at the origin");
    let sim = Simulation::new(
        mesh,
        Box::new(PoisonAt {
            field: SmoothRandomField::new(0.01, 3, 42),
            step: k,
            vertex: centre,
            surface_vertex: Some(corner),
        }),
    );
    let mut monitor = MonitorLoop::new(sim, 2).unwrap();
    let mut mirror = Mirror::subscribe(&mut monitor, q, None);
    let id = mirror.id;
    assert!(mirror.members.contains(&centre), "test premise");

    let mut before_poison = None;
    for step in 1..=k + 3 {
        monitor.begin_step().unwrap();
        monitor.finish_step().unwrap();
        for (_, delta) in monitor.poll_subscriptions() {
            mirror.apply(&delta.entered, &delta.left);
        }
        let truth = scan_active(monitor.snapshot(), &q);
        assert_eq!(truth.contains(&centre), step != k, "step {step}: premise");
        assert_eq!(mirror.members, truth, "step {step}: mirror diverged");
        // The same box as a query: through the grid while a reach
        // bounds the snapshot, on the full probe afterwards — and
        // either way what the paper's Algorithm 1 answers (not the
        // scan: the plain crawl's corner-island gap is not the probe's).
        let batch = monitor.query_batch(&[q]);
        let plain = sequential_reference(monitor.snapshot(), &[q]).remove(0);
        assert_eq!(sorted(batch[0].vertices.clone()), plain, "step {step}");
        monitor.recycle(batch);
        if step == k - 1 {
            let stats = monitor.seed_cache_stats().unwrap();
            assert_eq!((stats.hits, stats.misses), (u64::from(k) - 1, 0));
            before_poison = Some(stats);
        }
    }
    let stats = monitor.subscription_stats(id).unwrap();
    assert_eq!(
        stats.delta_polls,
        u64::from(k) - 1,
        "every poll from step {k} on must refresh ({stats:?})"
    );
    let before = before_poison.expect("the loop passed step k - 1");
    let after = monitor.seed_cache_stats().unwrap();
    assert_eq!(
        (after.hits, after.misses),
        (before.hits, 4),
        "no grid probe is exact for an unbounded snapshot: {after:?}"
    );
}

#[test]
fn a_transient_nan_costs_refreshes_only_while_it_lasts() {
    // The interior member is NaN at step k only. The poll at k crawls
    // (no bound holds) and anchors at the NaN, so the poll at k + 1
    // crawls as well and anchors at finite positions; from k + 2 on the
    // delta path is back. (A summed meter stays at ∞ for the life of
    // the ring.)
    let (k, steps) = (4u32, 10u32);
    let mesh = box_mesh(4);
    let centre = centre_vertex(&mesh);
    let sim = Simulation::new(
        mesh,
        Box::new(PoisonAt {
            field: SmoothRandomField::new(0.01, 3, 42),
            step: k,
            vertex: centre,
            surface_vertex: None,
        }),
    );
    let mut monitor = MonitorLoop::new(sim, 2).unwrap();
    let mut mirrors = [Mirror::subscribe(
        &mut monitor,
        Aabb::cube(Point3::splat(0.5), 0.25),
        None,
    )];
    assert!(mirrors[0].members.contains(&centre), "test premise");
    for step in 1..=steps {
        let deltas = step_and_check(&mut monitor, &mut mirrors, step, "transient NaN");
        assert_eq!(deltas[0].1.left.contains(&centre), step == k);
        assert_eq!(deltas[0].1.entered.contains(&centre), step == k + 1);
    }
    let stats = monitor.subscription_stats(mirrors[0].id).unwrap();
    assert_eq!(
        (stats.delta_polls, stats.full_refreshes),
        (u64::from(steps) - 2, 3),
        "only the polls at {k} and {} may crawl ({stats:?})",
        k + 1
    );
}

/// Pure translation, the same for every vertex, accumulated in place:
/// displacement grows without bound, so every finite band really is
/// used up — and every vertex moves exactly as far as the bound says,
/// the tightest case for its rounding.
struct Creep(Vec3);

impl Deformation for Creep {
    fn name(&self) -> &'static str {
        "creep"
    }

    fn apply_step(&mut self, _step: u32, _rest: &[Point3], positions: &mut [Point3]) {
        for p in positions {
            *p += self.0;
        }
    }
}

/// The meter this suite's bounds are stated against: per step, the
/// largest distance any vertex moved.
fn max_step_displacement(before: &[Point3], after: &[Point3]) -> f32 {
    before
        .iter()
        .zip(after)
        .map(|(a, b)| a.dist(*b))
        .fold(0.0, f32::max)
}

/// Most refreshes a band may need over steps whose maximum
/// displacements sum to `total`: the one at subscribe plus one per band
/// used up.
fn refresh_bound(total: f32, band: f32) -> u64 {
    1 + (total / band).ceil() as u64
}

#[test]
fn a_bounded_field_never_refreshes_after_subscribe() {
    // Named case (i): 200 steps displacing around the rest state by up
    // to 0.05. No vertex is ever farther than 0.1 from the anchor — a
    // sixteenth of the default band — while the per-step maxima sum to
    // several bands.
    let sim = simulation(4, Box::new(SmoothRandomField::new(0.05, 3, 5)), None);
    let mut monitor = MonitorLoop::new(sim, 2).unwrap();
    let registry = Registry::new();
    monitor.attach_telemetry(&registry);
    let mut mirrors: Vec<Mirror> = standing_boxes()
        .into_iter()
        .map(|q| Mirror::subscribe(&mut monitor, q, None))
        .collect();
    let band = 8.0 * (1.0f32 / 125.0).cbrt();
    let mut summed = 0.0;
    for step in 1..=200 {
        let before = monitor.snapshot().positions().to_vec();
        step_and_check(&mut monitor, &mut mirrors, step, "bounded field");
        summed += max_step_displacement(&before, monitor.snapshot().positions());
    }
    assert!(
        refresh_bound(summed, band) > 3,
        "premise: the summed meter refreshes ({summed} against a band of {band})"
    );
    let mut candidates = 0;
    for m in &mirrors {
        let stats = monitor.subscription_stats(m.id).unwrap();
        assert_eq!((stats.full_refreshes, stats.delta_polls), (1, 200));
        candidates += stats.candidates;
    }
    let telemetry = monitor.telemetry_snapshot().unwrap();
    assert_eq!(telemetry.counter("standing_reanchors_total"), 0);
    assert_eq!(telemetry.counter("standing_patched_events_total"), 0);
    assert_eq!(telemetry.gauge("standing_candidates"), candidates as f64);
    assert!((0.0..=0.1 + 1e-6).contains(&telemetry.gauge("drift_meter")));
}

#[test]
fn a_creeping_field_refreshes_no_more_often_than_the_summed_meter() {
    // Named cases (ii) and (iii): under steady translation the drift is
    // monotone, the bound through the anchor equals the sum, and bands
    // are used up at exactly the rate the sum predicts — with or
    // without a zero-band neighbour whose every poll moves the anchor.
    for with_zero_band in [false, true] {
        let sim = simulation(4, Box::new(Creep(Vec3::new(0.03, 0.02, 0.0))), None);
        let mut monitor = MonitorLoop::new(sim, 2).unwrap();
        let registry = Registry::new();
        monitor.attach_telemetry(&registry);
        let band = 0.5;
        let mut mirrors: Vec<Mirror> = standing_boxes()
            .into_iter()
            .map(|q| Mirror::subscribe(&mut monitor, q, Some(band)))
            .collect();
        // Not mirrored against the scan: a zero band is the plain
        // crawl, corner-island gap included.
        let tiny_q = Aabb::cube(Point3::splat(0.6), 0.3);
        let tiny = with_zero_band.then(|| monitor.subscribe_with_band(&tiny_q, 0.0));
        let (steps, mut summed) = (40u64, 0.0);
        for step in 1..=steps as u32 {
            let before = monitor.snapshot().positions().to_vec();
            step_and_check(&mut monitor, &mut mirrors, step, "creep");
            if let Some(id) = tiny {
                let fresh = monitor.query_batch(&[tiny_q]);
                assert_eq!(
                    monitor.subscription_result(id).unwrap(),
                    sorted(fresh[0].vertices.clone())
                );
                monitor.recycle(fresh);
            }
            summed += max_step_displacement(&before, monitor.snapshot().positions());
        }
        for m in &mirrors {
            let stats = monitor.subscription_stats(m.id).unwrap();
            assert!(
                (2..=refresh_bound(summed, band)).contains(&stats.full_refreshes),
                "zero band {with_zero_band}: {summed} of drift against a band of {band} \
                 ({stats:?})"
            );
        }
        let reanchors = monitor
            .telemetry_snapshot()
            .unwrap()
            .counter("standing_reanchors_total");
        if let Some(id) = tiny {
            let stats = monitor.subscription_stats(id).unwrap();
            assert_eq!((stats.delta_polls, stats.full_refreshes), (0, steps + 1));
            assert_eq!(reanchors, steps, "every poll of the zero band re-anchors");
        } else {
            assert!((1..steps).contains(&reanchors));
        }
    }
}

/// The rest state on even steps, translated by a fixed vector on odd
/// ones: an anchor taken on one parity is exactly as far from every
/// position of the other as the vector is long, and at exactly 0 from
/// its own — so a drift measured against the anchor before a move reads
/// 0 where the anchor after it reads the full shift.
struct Flicker(Vec3);

impl Deformation for Flicker {
    fn name(&self) -> &'static str {
        "flicker"
    }

    fn apply_step(&mut self, step: u32, rest: &[Point3], positions: &mut [Point3]) {
        let shift = if step % 2 == 1 { self.0 } else { Vec3::ZERO };
        for (p, r) in positions.iter_mut().zip(rest) {
            *p = *r + shift;
        }
    }
}

#[test]
fn a_drift_measured_against_a_moved_anchor_is_discarded() {
    // Ring depth 2: every poll runs with the next step already
    // commanded, carrying the anchor generation of before the poll. The
    // anchor then moves under it three ways — a subscribe that
    // re-anchors (step 3), the last unsubscribe and a resubscribe
    // (step 8), a refresh poll (from step 13 on) — each time onto the
    // other parity of `Flicker`, so the in-flight step's drift against
    // the old anchor is 0 while the true one is the full shift. Taking
    // it would leave the re-anchored subscription re-testing nothing
    // and its mirror behind the scan; in debug builds the monitor also
    // re-measures every drift it takes and asserts bit equality.
    let shift = Vec3::new(0.2, 0.15, 0.1);
    let sim = simulation(4, Box::new(Flicker(shift)), None);
    let mut monitor = MonitorLoop::with_config(sim, 2, LayoutPolicy::Preserve, 2).unwrap();
    let registry = Registry::new();
    monitor.attach_telemetry(&registry);
    let reanchors = |m: &mut MonitorLoop| {
        m.telemetry_snapshot()
            .unwrap()
            .counter("standing_reanchors_total")
    };
    // Wider than an edge (0.2), narrower than the shift: used up by
    // every step.
    let narrow = 0.25;
    let boxes = standing_boxes();
    let mut mirrors = vec![Mirror::subscribe(&mut monitor, boxes[0], None)];
    let mut refreshes_in_flight = 0;
    for step in 1..=20 {
        let before = reanchors(&mut monitor);
        step_and_check(&mut monitor, &mut mirrors, step, "moved anchor");
        assert_eq!(monitor.in_flight(), 1, "step {step}: premise");
        if reanchors(&mut monitor) > before {
            assert!(step >= 13, "step {step}: only the narrow band refreshes");
            refreshes_in_flight += 1;
        }
        match step {
            3 => {
                let before = reanchors(&mut monitor);
                mirrors.push(Mirror::subscribe(&mut monitor, boxes[1], None));
                assert_eq!(
                    reanchors(&mut monitor),
                    before + 1,
                    "premise: it re-anchors"
                );
            }
            8 => {
                for m in mirrors.drain(..) {
                    assert!(monitor.unsubscribe(m.id));
                }
                assert_eq!(monitor.subscriptions(), 0);
                mirrors.push(Mirror::subscribe(&mut monitor, boxes[2], None));
            }
            12 => mirrors.push(Mirror::subscribe(&mut monitor, boxes[0], Some(narrow))),
            _ => {}
        }
    }
    assert_eq!(
        refreshes_in_flight, 8,
        "every poll from step 13 on re-anchors"
    );
    let narrow_stats = monitor.subscription_stats(mirrors[1].id).unwrap();
    assert_eq!(narrow_stats.full_refreshes, 1 + 8, "{narrow_stats:?}");
}

#[test]
fn connectivity_events_patch_the_candidate_list() {
    // Named cases (iv) and (v). The box holds the whole mesh, so every
    // centroid a `refine_tet` appends is born inside it and every
    // vertex a `remove_cell` orphans was a member: the first must be
    // `entered`, the second `left`, at the poll after the event — and
    // nothing may crawl for it. Under the Hilbert policy every event
    // also triggers a re-layout that lands in the same `finish_step`
    // (ring depth 1), before the poll: the patch must have happened in
    // the old id space and what it owes must be relabelled with the
    // rest.
    for policy in [
        LayoutPolicy::Preserve,
        LayoutPolicy::Hilbert {
            trigger: RelayoutTrigger::AfterRestructures(1),
        },
    ] {
        // A mesh coarse enough that random removals do strand vertices.
        let sim = simulation(
            2,
            Box::new(SmoothRandomField::new(0.01, 3, 11)),
            Some((2, 12, 0xFACE)),
        );
        let mut monitor = MonitorLoop::with_config(sim, 2, policy, 1).unwrap();
        let registry = Registry::new();
        monitor.attach_telemetry(&registry);
        let mut mirrors = [Mirror::subscribe(
            &mut monitor,
            Aabb::cube(Point3::splat(0.5), 0.6),
            None,
        )];
        let active = |mesh: &octopus_mesh::Mesh| {
            (0..mesh.num_vertices() as VertexId)
                .filter(|&v| mesh.is_vertex_active(v))
                .count()
        };
        let (mut born, mut orphaned) = (0, 0);
        for step in 1..=12 {
            let before = monitor.snapshot().clone();
            let deltas = step_and_check(&mut monitor, &mut mirrors, step, "patch");
            let (_, delta) = &deltas[0];
            let after = monitor.snapshot();
            // Nothing crosses this box's boundary: the delta is the
            // event.
            assert_eq!(
                active(&before) + delta.entered.len() - delta.left.len(),
                active(after)
            );
            born += delta.entered.len();
            orphaned += delta.left.len();
            if policy == LayoutPolicy::Preserve {
                let appended = before.num_vertices() as VertexId..after.num_vertices() as VertexId;
                for v in appended {
                    assert_eq!(delta.entered.contains(&v), after.is_vertex_active(v));
                }
                for &v in &delta.left {
                    assert!(before.is_vertex_active(v) && !after.is_vertex_active(v));
                }
            }
        }
        assert!(
            born > 0 && orphaned > 0,
            "premise: {born} born, {orphaned} orphaned"
        );
        let relayouts = if policy == LayoutPolicy::Preserve {
            0
        } else {
            6
        };
        assert_eq!(monitor.relayouts(), relayouts, "one per restructuring step");
        let stats = monitor.subscription_stats(mirrors[0].id).unwrap();
        assert_eq!((stats.full_refreshes, stats.delta_polls), (1, 12));
        let telemetry = monitor.telemetry_snapshot().unwrap();
        assert_eq!(telemetry.counter("standing_patched_events_total"), 6);
        assert_eq!(
            telemetry.gauge("standing_candidates"),
            stats.candidates as f64
        );
    }
}

/// The whole mesh swaying along x around its rest state: the drift
/// returns to zero twice a period.
struct Sway {
    amplitude: f32,
    period: f32,
}

impl Deformation for Sway {
    fn name(&self) -> &'static str {
        "sway"
    }

    fn apply_step(&mut self, step: u32, rest: &[Point3], positions: &mut [Point3]) {
        let dx = self.amplitude * (std::f32::consts::TAU * step as f32 / self.period).sin();
        for (p, r) in positions.iter_mut().zip(rest) {
            *p = *r + Vec3::new(dx, 0.0, 0.0);
        }
    }
}

#[test]
fn the_retested_prefix_is_the_running_maximum_of_the_bound() {
    // The lattice planes x = 0.25 and x = 0.75 lie 0.05 inside the box:
    // their vertices leave at one peak of the sway, come back as it
    // passes through rest — where the bound is 0 again, far below their
    // boundary distance — and never reach the other boundary. A prefix
    // cut at the *current* bound would not look at them on the way
    // back.
    let sim = simulation(
        4,
        Box::new(Sway {
            amplitude: 0.1,
            period: 8.0,
        }),
        None,
    );
    let mut monitor = MonitorLoop::new(sim, 2).unwrap();
    let mut mirrors = [Mirror::subscribe(
        &mut monitor,
        Aabb::cube(Point3::splat(0.5), 0.3),
        None,
    )];
    let (mut entered, mut left) = (0, 0);
    for step in 1..=24 {
        let deltas = step_and_check(&mut monitor, &mut mirrors, step, "sway");
        entered += deltas[0].1.entered.len();
        left += deltas[0].1.left.len();
    }
    assert!(
        entered > 0 && left > 0,
        "premise: {entered} entered, {left} left"
    );
    let stats = monitor.subscription_stats(mirrors[0].id).unwrap();
    assert_eq!((stats.full_refreshes, stats.delta_polls), (1, 24));
}

/// What one case of the scenario below draws.
#[derive(Clone, Copy, Debug)]
struct Scenario {
    creeping: bool,
    restructuring: bool,
    relayout: bool,
    /// `box_mesh(2)` under heavy restructuring (removals strand
    /// vertices) instead of `box_mesh(4)` under light.
    coarse: bool,
    depth: usize,
    seed: u64,
}

/// One seeded run: a field, optionally restructuring and re-layouts, a
/// mesh, a ring depth and a random script of late subscribes (two band
/// widths) and unsubscribes — including *unsubscribe all → step → subscribe
/// again*, which must not meet a stale anchor. After every step every
/// live mirror ≡ `subscription_result` ≡ `scan_active`.
fn run_scenario(sc: Scenario) {
    const STEPS: u32 = 14;
    let mut rng = SplitMix64::new(sc.seed);
    let field: Box<dyn Deformation> = if sc.creeping {
        Box::new(Creep(Vec3::new(0.04, 0.01, -0.02)))
    } else {
        Box::new(SmoothRandomField::new(0.02, 3, sc.seed))
    };
    let (n, period, ops) = if sc.coarse { (2, 2, 10) } else { (4, 3, 4) };
    let sim = simulation(
        n,
        field,
        sc.restructuring.then_some((period, ops, sc.seed ^ 0xD1CE)),
    );
    // Wider than the longest edge, so that the band-dilated crawl does
    // not inherit the plain one's corner-island gap.
    let narrow_band = 2.4 / n as f32;
    let policy = if sc.relayout {
        LayoutPolicy::Hilbert {
            trigger: RelayoutTrigger::AfterRestructures(2),
        }
    } else {
        LayoutPolicy::Preserve
    };
    let mut monitor = MonitorLoop::with_config(sim, 2, policy, sc.depth).unwrap();
    let mut mirrors: Vec<Mirror> = Vec::new();
    let mut past: Vec<SubscriptionStats> = Vec::new();
    let vacate_at = 2 + rng.index(STEPS as usize - 2) as u32;
    for step in 1..=STEPS {
        if step == vacate_at {
            for m in mirrors.drain(..) {
                past.push(monitor.subscription_stats(m.id).unwrap());
                assert!(monitor.unsubscribe(m.id));
            }
            assert_eq!(monitor.subscriptions(), 0);
        } else {
            if !mirrors.is_empty() && rng.chance(0.2) {
                let m = mirrors.swap_remove(rng.index(mirrors.len()));
                past.push(monitor.subscription_stats(m.id).unwrap());
                assert!(monitor.unsubscribe(m.id));
            }
            if mirrors.is_empty() || rng.chance(0.4) {
                let centre = Point3::new(
                    rng.range_f32(0.1, 1.2),
                    rng.range_f32(0.1, 0.9),
                    rng.range_f32(0.0, 0.9),
                );
                let q = Aabb::cube(centre, rng.range_f32(0.15, 0.4));
                let band = rng.chance(0.5).then_some(narrow_band);
                mirrors.push(Mirror::subscribe(&mut monitor, q, band));
            }
        }
        step_and_check(&mut monitor, &mut mirrors, step, &format!("{sc:?}"));
    }
    past.extend(
        mirrors
            .iter()
            .map(|m| monitor.subscription_stats(m.id).unwrap()),
    );
    if !sc.creeping {
        // 0.04 of drift at most: nothing but the subscribe ever crawls.
        for stats in &past {
            assert_eq!(stats.full_refreshes, 1, "{sc:?}: {stats:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_scenario_keeps_every_mirror_exact(
        creeping in proptest::bool::ANY,
        restructuring in proptest::bool::ANY,
        relayout in proptest::bool::ANY,
        coarse in proptest::bool::ANY,
        deep in proptest::bool::ANY,
        seed in 0u64..10_000,
    ) {
        run_scenario(Scenario {
            creeping,
            restructuring,
            relayout,
            coarse,
            depth: if deep { 3 } else { 1 },
            seed,
        });
    }
}
