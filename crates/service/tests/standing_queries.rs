//! Standing queries: the cumulative result of a subscription — its
//! initial set plus every polled delta — must equal the linear-scan
//! ground truth at every step, while the delta fast path (drift-bounded
//! boundary re-tests) serves most polls without a crawl. The
//! equivalence must hold across restructuring steps (forced refresh),
//! mid-run re-layouts (id translation) and subscribe/unsubscribe churn.
//!
//! The referee is [`octopus_testkit::scan_active`], not a fresh
//! `MonitorLoop::query`: the plain crawl inherits the paper's
//! documented corner-island gap (an in-box vertex all of whose
//! neighbours sit outside a small box can be unreachable), which the
//! subscription's band-dilated candidate crawl does not share at these
//! band widths — so the scan is the one answer both paths owe.

use octopus_geom::{Aabb, Point3, VertexId};
use octopus_service::{LayoutPolicy, MonitorLoop, RelayoutTrigger, SubscriptionId};
use octopus_sim::{Deformation, RestructureSchedule, Simulation, SmoothRandomField};
use octopus_testkit::{box_mesh, scan_active, sorted};

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
    members: Vec<VertexId>,
}

impl Mirror {
    fn new(monitor: &MonitorLoop, id: SubscriptionId) -> Mirror {
        Mirror {
            id,
            members: monitor.subscription_result(id).unwrap().to_vec(),
        }
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

/// Composes the `ingest → id` maps from before and after a re-layout
/// into the `old id → new id` permutation the re-layout applied. A
/// restructure in the same window appends vertices (the monitor extends
/// its translation with identity entries), so `before` may be shorter —
/// pad it the same way.
fn relayout_map(before: &[VertexId], after: &[VertexId]) -> Vec<VertexId> {
    assert!(before.len() <= after.len(), "vertices are never removed");
    let mut map = vec![0 as VertexId; after.len()];
    for (i, &new) in after.iter().enumerate() {
        let old = if i < before.len() {
            before[i]
        } else {
            i as VertexId
        };
        map[old as usize] = new;
    }
    map
}

/// Drives `steps` steps at ring depth `depth`, polling after every
/// finish and asserting, for every subscription: delta-applied mirror ==
/// registry result == linear-scan ground truth at that step.
fn run_equivalence(
    depth: usize,
    field_seed: u64,
    amplitude: f32,
    restructure: Option<(u32, usize, u64)>,
    policy: LayoutPolicy,
    steps: u32,
) -> (MonitorLoop, Vec<SubscriptionId>) {
    let mesh = {
        let mut m = box_mesh(4);
        if restructure.is_some() {
            m.enable_restructuring().unwrap();
        }
        m
    };
    let mut sim = Simulation::new(
        mesh,
        Box::new(SmoothRandomField::new(amplitude, 3, field_seed)),
    );
    if let Some((period, ops, seed)) = restructure {
        sim = sim
            .with_restructuring(RestructureSchedule::new(period, ops, seed))
            .unwrap();
    }
    let mut monitor = MonitorLoop::with_config(sim, 2, policy, depth).unwrap();

    let ids: Vec<SubscriptionId> = standing_boxes()
        .iter()
        .map(|q| monitor.subscribe(q))
        .collect();
    assert_eq!(monitor.subscriptions(), ids.len());
    let boxes = standing_boxes();
    let mut mirrors: Vec<Mirror> = ids.iter().map(|&id| Mirror::new(&monitor, id)).collect();
    // The initial result is already the ground truth.
    for (id, q) in ids.iter().zip(&boxes) {
        assert_eq!(
            monitor.subscription_result(*id).unwrap(),
            scan_active(monitor.snapshot(), q)
        );
    }

    for step in 1..=steps {
        let translation_before = monitor.vertex_translation().map(<[VertexId]>::to_vec);
        let relayouts_before = monitor.relayouts();
        monitor.fill_pipeline().unwrap();
        assert_eq!(monitor.finish_step().unwrap(), step);
        if monitor.relayouts() > relayouts_before {
            let map = relayout_map(
                &translation_before.expect("re-layout requires a curve policy"),
                monitor.vertex_translation().unwrap(),
            );
            for m in &mut mirrors {
                m.translate(&map);
            }
        }
        let deltas = monitor.poll_subscriptions();
        for (id, delta) in &deltas {
            assert_eq!(delta.step, step, "deltas are stamped with the poll step");
            let m = mirrors.iter_mut().find(|m| m.id == *id).unwrap();
            m.apply(&delta.entered, &delta.left);
        }
        for (m, q) in mirrors.iter().zip(&boxes) {
            let truth = scan_active(monitor.snapshot(), q);
            assert_eq!(
                m.members, truth,
                "depth {depth} step {step}: delta-applied mirror diverged"
            );
            assert_eq!(
                monitor.subscription_result(m.id).unwrap(),
                truth,
                "depth {depth} step {step}: registry result diverged"
            );
        }
    }
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
            // Every restructuring step bumps the epoch and forces a full
            // refresh (beyond the one at subscribe).
            assert!(
                stats.full_refreshes > 1,
                "depth {depth}: restructures must force refreshes ({stats:?})"
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
        // poll: compare against exactly that (not the scan — the plain
        // crawl's documented corner-island gap applies to both equally).
        let mut fresh = Vec::new();
        monitor.query(&q, &mut fresh);
        assert_eq!(
            monitor.subscription_result(id).unwrap(),
            sorted(fresh),
            "step {step}"
        );
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
        .map(|q| {
            let id = monitor.subscribe(q);
            Mirror::new(&monitor, id)
        })
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

/// A smooth field that additionally sends one interior vertex to NaN at
/// exactly one step (it comes back with the next step's field) and one
/// surface vertex to NaN from that step on.
struct PoisonAt {
    field: SmoothRandomField,
    step: u32,
    vertex: VertexId,
    surface_vertex: VertexId,
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
        if step >= self.step {
            positions[self.surface_vertex as usize].y = f32::NAN;
        }
    }
}

#[test]
fn non_finite_displacement_forces_the_exact_refresh_path() {
    // A deep-interior member of the standing box goes NaN at step k.
    // The δ-re-test only looks near the boundary, so a drift meter that
    // ignores the non-finite displacement keeps reporting the vertex;
    // a saturated meter refreshes, and keeps refreshing (∞ − ∞ is NaN,
    // which validates nothing). From the same step on a surface vertex
    // far from the box is NaN as well: no reach bounds that snapshot,
    // so its queries fall back to the full surface probe.
    let k = 4;
    let mesh = box_mesh(4);
    let q = Aabb::cube(Point3::splat(0.5), 0.25);
    let centre = (0..mesh.num_vertices() as VertexId)
        .min_by(|&a, &b| {
            let d = |v| mesh.position(v).dist_sq(Point3::splat(0.5));
            d(a).total_cmp(&d(b))
        })
        .unwrap();
    let corner = (0..mesh.num_vertices() as VertexId)
        .find(|&v| mesh.position(v) == Point3::ORIGIN)
        .expect("the lattice has a vertex at the origin");
    let sim = Simulation::new(
        mesh,
        Box::new(PoisonAt {
            field: SmoothRandomField::new(0.01, 3, 42),
            step: k,
            vertex: centre,
            surface_vertex: corner,
        }),
    );
    let mut monitor = MonitorLoop::new(sim, 2).unwrap();
    // Planner off: on a mesh this small Eq. 6 would scan-route the box
    // past the probe under test.
    monitor
        .set_batch_engine(octopus_service::BatchEngineConfig { use_planner: false })
        .unwrap();
    let id = monitor.subscribe(&q);
    let mut mirror = Mirror::new(&monitor, id);
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
        let mut plain = Vec::new();
        octopus_core::Octopus::new(monitor.snapshot())
            .unwrap()
            .query(monitor.snapshot(), &q, &mut plain);
        assert_eq!(
            sorted(batch[0].vertices.clone()),
            sorted(plain),
            "step {step}"
        );
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
