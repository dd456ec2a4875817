//! The snapshot-ring monitor loop answers queries against any retained
//! step while up to K further steps compute ahead — and every answer
//! matches a stop-the-world reference run exactly, including across
//! restructuring steps (surface-delta-derived per-slot executors) and
//! mid-run re-layouts (pipeline drained first, ring truncated). The
//! position hand-off: buffers rotate, slots share connectivity by
//! pointer, and the simulation thread measures each step's grid reach
//! so that requests measure only the slots whose grid changed while
//! they were in flight.

use octopus_geom::{Aabb, Point3, Vec3, VertexId};
use octopus_service::{
    BatchEngineConfig, LayoutPolicy, MonitorLoop, Overload, RelayoutTrigger, ServiceError,
};
use octopus_sim::{Deformation, RestructureSchedule, Simulation, SmoothRandomField};
use octopus_telemetry::Registry;
use octopus_testkit::{box_mesh, reference_run, scan_active, sorted, step_queries, FailPoint};
use std::collections::VecDeque;
use std::sync::Arc;

/// The ring-depth property: a pipelined run at depth K, with queries
/// issued against **every retained step** at every iteration (the whole
/// batch and a batch of one), equals the
/// stop-the-world replay — translated through the per-step id map when
/// a layout policy is active.
fn ring_equivalence_run(
    depth: usize,
    field_seed: u64,
    restructure: Option<(u32, usize, u64)>,
    policy: LayoutPolicy,
    steps: u32,
) -> MonitorLoop {
    ring_equivalence_run_observed(depth, field_seed, restructure, policy, steps, |_| {})
}

/// [`ring_equivalence_run`], calling `published(&monitor)` right after
/// each step is published and before it is queried.
fn ring_equivalence_run_observed(
    depth: usize,
    field_seed: u64,
    restructure: Option<(u32, usize, u64)>,
    policy: LayoutPolicy,
    steps: u32,
    mut published: impl FnMut(&MonitorLoop),
) -> MonitorLoop {
    let mesh = {
        let mut m = box_mesh(4);
        if restructure.is_some() {
            m.enable_restructuring().unwrap();
        }
        m
    };
    let expected = reference_run(mesh.clone(), field_seed, restructure, steps);

    let mut sim = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.01, 3, field_seed)));
    if let Some((period, ops, seed)) = restructure {
        sim = sim
            .with_restructuring(RestructureSchedule::new(period, ops, seed))
            .unwrap();
    }
    let mut monitor = MonitorLoop::with_config(sim, 2, policy, depth).unwrap();

    monitor.fill_pipeline().unwrap();
    assert!(monitor.in_flight() <= depth);
    for step in 1..=steps {
        assert_eq!(
            monitor.finish_step().unwrap(),
            step,
            "depth {depth}: ring must advance one step per finish"
        );
        if step < steps {
            monitor.fill_pipeline().unwrap();
        }
        published(&monitor);
        let retained = monitor.retained_steps();
        assert!(retained.contains(&step), "latest step is retained");
        assert!(
            (retained.end() - retained.start()) < depth as u32 + 1,
            "window never exceeds K"
        );
        for s in retained {
            if s == 0 {
                continue; // ingest snapshot: no reference entry
            }
            let queries = step_queries(s);
            let translated: Vec<Vec<VertexId>> = expected[s as usize - 1]
                .iter()
                .map(|want| {
                    sorted(
                        want.iter()
                            .map(|&v| monitor.translate_vertex_at(s, v).unwrap())
                            .collect(),
                    )
                })
                .collect();
            let results = monitor.query_batch_at(s, &queries).unwrap();
            for (i, (got, want)) in results.iter().zip(&translated).enumerate() {
                assert_eq!(
                    &sorted(got.vertices.clone()),
                    want,
                    "depth {depth} step {step}: retained step {s}, query {i} (batch)"
                );
            }
            monitor.recycle(results);
            // A batch of one answers identically.
            let single = monitor.query_batch_at(s, &queries[..1]).unwrap();
            assert_eq!(
                sorted(single[0].vertices.clone()),
                translated[0],
                "depth {depth} step {step}: retained step {s} (batch of one)"
            );
            monitor.recycle(single);
        }
    }
    monitor
}

#[test]
fn ring_equivalence_without_restructuring() {
    for depth in [1, 2, 3] {
        let monitor = ring_equivalence_run(depth, 77, None, LayoutPolicy::Preserve, 10);
        let sim = monitor.shutdown().unwrap();
        // The pipeline may have computed ahead of the last finished step.
        assert!(sim.current_step() >= 10);
    }
}

/// A deformation publish makes the simulation's buffer the new slot's
/// position array and shares everything else with the slot before it:
/// every retained slot has the latest's connectivity by pointer, and
/// after warm-up the position arrays the ring serves from are a fixed
/// set that rotates — one per slot and one per step in flight, nothing
/// allocated per step, and (an address being one buffer) nothing copied
/// into a second one — while every retained step still equals the
/// reference.
#[test]
fn deformation_publish_rotates_a_fixed_set_of_position_buffers() {
    const STEPS: u32 = 24;
    for depth in [1usize, 3] {
        let mut seen: Vec<*const Point3> = Vec::new();
        let mut distinct_after = Vec::new();
        ring_equivalence_run_observed(depth, 77, None, LayoutPolicy::Preserve, STEPS, |monitor| {
            let latest = monitor.snapshot();
            let ptr = latest.positions().as_ptr();
            if !seen.contains(&ptr) {
                seen.push(ptr);
            }
            distinct_after.push(seen.len());
            for s in monitor.retained_steps() {
                let slot = monitor.snapshot_at(s).unwrap();
                assert!(
                    std::ptr::eq(slot.adjacency(), latest.adjacency())
                        && std::ptr::eq(slot.cell(0), latest.cell(0)),
                    "depth {depth}: the slot of step {s} holds a connectivity copy"
                );
            }
        });
        assert!(
            seen.len() <= 2 * depth,
            "depth {depth}: {} position buffers for slots and steps in flight: \
             {distinct_after:?}",
            seen.len()
        );
        assert!(
            seen.len() >= 2,
            "depth {depth}: consecutive steps cannot share one array"
        );
        let warm = distinct_after[STEPS as usize / 2 - 1];
        assert_eq!(
            distinct_after[STEPS as usize - 1],
            warm,
            "depth {depth}: a publish after warm-up allocated: {distinct_after:?}"
        );
    }
}

/// The rest state translated by `step` times a fixed vector: drift that
/// only grows, so the reach outgrows a grid cell every few steps.
struct Translate(Vec3);

impl Deformation for Translate {
    fn name(&self) -> &'static str {
        "translate"
    }

    fn apply_step(&mut self, step: u32, rest: &[Point3], positions: &mut [Point3]) {
        for (p, r) in positions.iter_mut().zip(rest) {
            *p = *r + self.0 * step as f32;
        }
    }
}

/// The producer measures what it hands off: the simulation thread
/// measures every deformation step's reach against the grid its command
/// carried, and a request measures a slot's reach only when that grid
/// was replaced between the step's `begin_step` and its `finish_step`
/// (here by a drift rebuild, at depth 3, while two steps were in
/// flight behind the rebuilt one), or for the ingest slot. Overlapped
/// loops at depths 1 and 3 and a lockstep loop, under a bounded field
/// and a monotone one: every retained step's answers equal the scan,
/// and `surface_grid_reach_lazy_total` counts exactly those slots.
#[test]
fn requests_measure_only_the_reaches_the_simulation_could_not() {
    const STEPS: u32 = 24;
    for monotone in [false, true] {
        for (depth, lockstep) in [(1usize, false), (3, false), (1, true)] {
            let ctx = format!("monotone {monotone}, depth {depth}, lockstep {lockstep}");
            let field: Box<dyn Deformation> = if monotone {
                Box::new(Translate(Vec3::new(0.11, -0.07, 0.05)))
            } else {
                Box::new(SmoothRandomField::new(0.01, 3, 0x6121D))
            };
            let sim = Simulation::new(box_mesh(6), field);
            let mut monitor =
                MonitorLoop::with_config(sim, 2, LayoutPolicy::Preserve, depth).unwrap();
            let registry = Registry::new();
            monitor.attach_telemetry(&registry);
            let installed = |m: &MonitorLoop| m.seed_cache_stats().unwrap().insertions;
            // Grids installed so far when each step in flight was
            // commanded, oldest first: a grid is replaced only by an
            // installation.
            let mut commanded: VecDeque<u64> = VecDeque::new();
            let begin = |m: &mut MonitorLoop, commanded: &mut VecDeque<u64>| {
                let started = if lockstep {
                    m.begin_step().unwrap();
                    1
                } else {
                    m.fill_pipeline().unwrap()
                };
                commanded.extend(std::iter::repeat_n(installed(m), started));
            };
            // The ingest slot comes without a reach: the first request
            // measures it.
            let ingest = monitor.query_batch(&step_queries(0));
            monitor.recycle(ingest);
            let mut lazy = 1;
            if !lockstep {
                begin(&mut monitor, &mut commanded);
            }
            for step in 1..=STEPS {
                if lockstep {
                    begin(&mut monitor, &mut commanded);
                }
                let at_begin = commanded.pop_front().expect("a step in flight");
                if installed(&monitor) != at_begin {
                    lazy += 1;
                }
                assert_eq!(monitor.finish_step().unwrap(), step, "{ctx}");
                if !lockstep && step < STEPS {
                    begin(&mut monitor, &mut commanded);
                }
                // Boxes that follow the mesh, asked of every retained
                // step, so that every slot is resolved once.
                let bounds = monitor.snapshot().bounding_box();
                let e = bounds.extent();
                let queries = [
                    Aabb::cube(bounds.center(), 0.25 * e.x),
                    Aabb::new(bounds.min, bounds.center()),
                    Aabb::cube(bounds.max, 0.3 * e.x),
                ];
                for s in monitor.retained_steps() {
                    let results = monitor.query_batch_at(s, &queries).unwrap();
                    let mesh = monitor.snapshot_at(s).unwrap();
                    for (i, (r, q)) in results.iter().zip(&queries).enumerate() {
                        assert_eq!(
                            sorted(r.vertices.clone()),
                            scan_active(mesh, q),
                            "{ctx}: step {step}, retained step {s}, box {i}"
                        );
                    }
                    monitor.recycle(results);
                }
                let telemetry = monitor.telemetry_snapshot().unwrap();
                assert_eq!(
                    telemetry.counter("surface_grid_reach_lazy_total"),
                    lazy,
                    "{ctx}: step {step}"
                );
                assert!(
                    telemetry.gauge("surface_grid_reach") <= 1.0,
                    "{ctx}: step {step}: the newest slot serves past its rebuild threshold"
                );
            }
            let stats = monitor.seed_cache_stats().unwrap();
            assert_eq!(stats.stale > 0, monotone, "{ctx}: premise: {stats:?}");
            // Only a rebuild with steps in flight behind it strands
            // them; at depth 1 nothing is ever in flight behind one.
            if depth == 1 || !monotone {
                assert_eq!(lazy, 1, "{ctx}: {stats:?}");
            } else {
                assert!(lazy > 1, "{ctx}: premise: {stats:?}");
            }
            let telemetry = monitor.telemetry_snapshot().unwrap();
            for name in ["sim_step_ns", "sim_handoff_ns"] {
                let h = telemetry.histogram(name).unwrap();
                assert!(h.count >= u64::from(STEPS), "{ctx}: {name} {h:?}");
            }
        }
    }
}

/// The rotation survives the steps that publish no deformation: a
/// restructuring step fills the recycled buffer like any other, and a
/// refused step sends its buffer back. Once every buffer has grown past
/// the first vertex-appending event, each published position array is
/// one the ring has held before — by address, and by capacity: a buffer
/// that was refilled past its length doubled, a freshly allocated one
/// (which the allocator may well place at a freed address) is exactly
/// as long as the mesh.
#[test]
fn restructuring_and_refused_steps_keep_the_buffers_rotating() {
    const STEPS: u32 = 40;
    const PERIOD: u32 = 4;
    for depth in [1usize, 2] {
        let mut mesh = box_mesh(4);
        mesh.enable_restructuring().unwrap();
        let ingest_vertices = mesh.num_vertices();
        let sim = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.01, 3, 7)))
            .with_restructuring(RestructureSchedule::new(PERIOD, 6, 0xD1CE))
            .unwrap();
        let mut monitor = MonitorLoop::with_config(sim, 2, LayoutPolicy::Preserve, depth).unwrap();
        let refusal = Arc::new(FailPoint::new().fail_sim_at(3 * PERIOD + 1));
        monitor.set_fault_hook(Arc::clone(&refusal) as Arc<_>);

        let mut held = vec![monitor.snapshot().positions().as_ptr()];
        let mut step = 0;
        while step < STEPS {
            monitor.fill_pipeline().unwrap();
            match monitor.finish_step() {
                Ok(published) => step = published,
                Err(ServiceError::Mesh(_)) => continue,
                Err(e) => panic!("depth {depth} after step {step}: {e}"),
            }
            let latest = monitor.snapshot();
            if step == PERIOD {
                assert!(
                    latest.num_vertices() > ingest_vertices,
                    "first event refines"
                );
            }
            let ptr = latest.positions().as_ptr();
            if step > 2 * PERIOD {
                assert!(
                    held.contains(&ptr),
                    "depth {depth} step {step}: published from storage the ring never held"
                );
                // A clone's position array is exactly as long as the
                // mesh and it shares the rest: the difference is this
                // array's spare capacity.
                assert!(
                    latest.memory_bytes() > latest.clone().memory_bytes(),
                    "depth {depth} step {step}: a freshly allocated position array"
                );
            } else if !held.contains(&ptr) {
                held.push(ptr);
            }
        }
        assert_eq!(refusal.sim_failures(), 1, "depth {depth}");
        assert!(
            held.len() <= 2 * (2 * depth),
            "depth {depth}: each of the 2 · depth buffers regrows once: {}",
            held.len()
        );
    }
}

/// No query path derives anything from the positions: the mesh of the
/// newest slot reaches exactly as many heap bytes after singleton
/// queries, a grouped engine batch and a planner-routed shared scan as
/// before them (`Mesh::memory_bytes` counts the blocked-SoA mirror's
/// capacity, so a path that still built it shows here; the shared
/// connectivity is in both readings, and every position array of this
/// restructure-free run is exactly as long as the mesh).
#[test]
fn no_query_path_builds_the_position_mirror() {
    let sim = Simulation::new(box_mesh(12), Box::new(SmoothRandomField::new(0.01, 3, 21)));
    let mut monitor = MonitorLoop::with_config(sim, 2, LayoutPolicy::Preserve, 2).unwrap();
    let untouched = monitor.snapshot().memory_bytes();
    // Two overlapping boxes (one shared-frontier group) and one box
    // wide enough for Eq. 6 to prefer the shared scan.
    let batch = [
        Aabb::cube(Point3::splat(0.4), 0.08),
        Aabb::cube(Point3::splat(0.45), 0.08),
        Aabb::new(Point3::splat(-0.5), Point3::splat(1.5)),
    ];
    for step in 1..=4 {
        monitor.begin_step().unwrap();
        monitor.finish_step().unwrap();
        if step == 3 {
            monitor
                .set_batch_engine(BatchEngineConfig::default())
                .unwrap();
        }
        let single = monitor.query_batch(&batch[..1]);
        assert!(!single[0].vertices.is_empty());
        monitor.recycle(single);
        let single = monitor.query_batch_at(step, &batch[1..2]).unwrap();
        monitor.recycle(single);
        let results = monitor.query_batch(&batch);
        assert_eq!(results[2].vertices.len(), monitor.snapshot().num_vertices());
        monitor.recycle(results);
        let report = monitor.engine_report().unwrap();
        assert_eq!(report.grouped_queries, 2, "{report:?}");
        assert_eq!(report.scan_queries, 1, "{report:?}");
        assert_eq!(
            monitor.snapshot().memory_bytes(),
            untouched,
            "step {step}: a query path grew the snapshot mesh"
        );
    }
}

#[test]
fn ring_equivalence_across_restructuring() {
    for depth in [1, 2, 3] {
        ring_equivalence_run(depth, 123, Some((3, 2, 0xD1CE)), LayoutPolicy::Preserve, 10);
    }
}

#[test]
fn ring_equivalence_with_mid_run_relayouts() {
    for depth in [1, 2, 3] {
        let monitor = ring_equivalence_run(
            depth,
            123,
            Some((3, 2, 0xD1CE)),
            LayoutPolicy::Hilbert {
                trigger: RelayoutTrigger::AfterRestructures(2),
            },
            12,
        );
        assert!(
            monitor.relayouts() >= 1,
            "depth {depth}: 4 restructuring events at threshold 2 must re-layout"
        );
    }
}

#[test]
fn depth_one_reproduces_the_double_buffer() {
    let mesh = box_mesh(4);
    let sim = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.01, 3, 5)));
    let mut monitor = MonitorLoop::new(sim, 2).unwrap();

    // At most one step in flight: the second begin is a no-op.
    monitor.begin_step().unwrap();
    assert_eq!(monitor.in_flight(), 1);
    monitor.begin_step().unwrap();
    assert_eq!(monitor.in_flight(), 1, "K=1 never runs two steps ahead");
    assert_eq!(monitor.fill_pipeline().unwrap(), 0);

    // Exactly one retained snapshot at any time.
    assert_eq!(monitor.finish_step().unwrap(), 1);
    assert_eq!(monitor.retained_steps(), 1..=1);
    let q = [Aabb::new(Point3::splat(0.1), Point3::splat(0.9))];
    let latest = monitor.query_batch(&q);
    let at = monitor.query_batch_at(1, &q).unwrap();
    assert_eq!(
        sorted(latest[0].vertices.clone()),
        sorted(at[0].vertices.clone())
    );
    monitor.recycle(latest);
    monitor.recycle(at);

    // The pre-advance snapshot is gone — exactly the double buffer.
    assert!(matches!(
        monitor.query_batch_at(0, &q),
        Err(ServiceError::StepNotRetained {
            step: 0,
            oldest: 1,
            latest: 1
        })
    ));
}

#[test]
fn pinning_backpressures_and_releases() {
    let mesh = box_mesh(4);
    let sim = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.01, 3, 9)));
    // A curve policy (re-layout only on request) so the end of the test
    // can re-lay out.
    let mut monitor = MonitorLoop::with_config(sim, 2, LayoutPolicy::hilbert(), 3).unwrap();

    // Fill the retained window: steps 1 to 3.
    for _ in 0..3 {
        monitor.begin_step().unwrap();
        monitor.finish_step().unwrap();
    }
    assert_eq!(monitor.retained_steps(), 1..=3);

    // A pin on a middle slot does not block a publish: step 4 evicts
    // the unpinned oldest step 1.
    monitor.pin_step(2).unwrap();
    monitor.begin_step().unwrap();
    assert_eq!(monitor.finish_step().unwrap(), 4);
    assert_eq!(monitor.retained_steps(), 2..=4);
    // The evicted step can no longer be pinned.
    assert!(matches!(
        monitor.pin_step(1),
        Err(ServiceError::StepNotRetained {
            step: 1,
            oldest: 2,
            latest: 4
        })
    ));

    // Record step 2's answer, pin it again, and let the pipeline race
    // ahead.
    let q = [Aabb::cube(Point3::splat(0.5), 0.25)];
    let pinned_answer = monitor.query_batch_at(2, &q).unwrap();
    monitor.pin_step(2).unwrap(); // pins nest

    monitor.fill_pipeline().unwrap();
    assert_eq!(monitor.in_flight(), 3);
    // Publishing step 5 would recycle the pinned oldest slot: refused,
    // deterministically, with the update left queued.
    match monitor.finish_step() {
        Err(ServiceError::RetryAfter {
            cause: Overload::RingPinned { pinned_step: 2 },
            ..
        }) => {}
        other => panic!("expected RetryAfter(RingPinned) for pinned step 2, got {other:?}"),
    }
    assert_eq!(monitor.snapshot_step(), 4, "nothing was absorbed");
    assert_eq!(monitor.retained_steps(), 2..=4);

    // The pinned snapshot still answers, bit-identically.
    let again = monitor.query_batch_at(2, &q).unwrap();
    assert_eq!(
        sorted(again[0].vertices.clone()),
        sorted(pinned_answer[0].vertices.clone())
    );
    monitor.recycle(again);
    monitor.recycle(pinned_answer);

    // One unpin is not enough (counted pins) …
    monitor.unpin_step(2).unwrap();
    assert!(matches!(
        monitor.finish_step(),
        Err(ServiceError::RetryAfter {
            cause: Overload::RingPinned { pinned_step: 2 },
            ..
        })
    ));
    // … the second releases the last pin — a third finds none …
    monitor.unpin_step(2).unwrap();
    assert!(matches!(
        monitor.unpin_step(2),
        Err(ServiceError::StepNotPinned { step: 2 })
    ));
    // … and the exact same updates are unblocked.
    assert_eq!(monitor.finish_step().unwrap(), 5);
    assert_eq!(monitor.finish_step().unwrap(), 6);
    assert_eq!(monitor.finish_step().unwrap(), 7);
    assert_eq!(monitor.retained_steps(), 5..=7);
    assert!(matches!(
        monitor.unpin_step(5),
        Err(ServiceError::StepNotPinned { step: 5 })
    ));

    // A re-layout releases the history in the old id space: the ring
    // keeps exactly the latest step.
    assert!(monitor.request_relayout().unwrap());
    assert_eq!(monitor.retained_steps(), 7..=7);
}

/// Regression test for the release-mode re-layout race: the old code
/// guarded "no step in flight" with a `debug_assert!` only, so a
/// release build could send the permutation while a step was running.
/// The runtime rule is: a requested re-layout *drains* the in-flight
/// pipeline first (or defers while snapshots are pinned), and answers
/// afterwards still match the stop-the-world reference. This suite runs
/// under `--release` in CI.
#[test]
fn relayout_drains_in_flight_steps_instead_of_racing() {
    let steps_before = 4u32;
    let total = 9u32;
    let mesh = {
        let mut m = box_mesh(4);
        m.enable_restructuring().unwrap();
        m
    };
    let expected = reference_run(mesh.clone(), 123, Some((3, 2, 0xD1CE)), total);

    let sim = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.01, 3, 123)))
        .with_restructuring(RestructureSchedule::new(3, 2, 0xD1CE))
        .unwrap();
    // Trigger::Never — re-layouts happen only on request, so the test
    // controls exactly when one lands in the middle of a full pipeline.
    let mut monitor = MonitorLoop::with_config(sim, 2, LayoutPolicy::hilbert(), 3).unwrap();

    for step in 1..=steps_before {
        monitor.fill_pipeline().unwrap();
        assert_eq!(monitor.finish_step().unwrap(), step);
    }
    monitor.fill_pipeline().unwrap();
    assert!(monitor.in_flight() > 0, "pipeline must be mid-flight");

    // The request must drain every in-flight step into the ring before
    // permuting — never racing the running step — and apply now.
    let applied = monitor.request_relayout().unwrap();
    assert!(applied);
    assert_eq!(monitor.relayouts(), 1);
    assert_eq!(monitor.in_flight(), 0, "drained, not raced");
    assert!(!monitor.relayout_pending());
    let drained_to = monitor.snapshot_step();
    assert!(drained_to > steps_before);
    // Re-layout redefines the id space: history is truncated to the
    // re-laid-out snapshot.
    assert_eq!(monitor.retained_steps(), drained_to..=drained_to);

    // Everything — including the steps that were in flight during the
    // request — still matches the reference through the translation.
    for step in drained_to..=total {
        if step > drained_to {
            monitor.begin_step().unwrap();
            assert_eq!(monitor.finish_step().unwrap(), step);
        }
        let results = monitor.query_batch(&step_queries(step));
        for (i, (got, want)) in results.iter().zip(&expected[step as usize - 1]).enumerate() {
            let want = sorted(
                want.iter()
                    .map(|&v| monitor.translate_vertex(v).unwrap())
                    .collect(),
            );
            assert_eq!(
                sorted(got.vertices.clone()),
                want,
                "step {step} query {i} after the drained re-layout"
            );
        }
        monitor.recycle(results);
    }
}

#[test]
fn relayout_defers_while_snapshots_are_pinned() {
    let mesh = box_mesh(4);
    let sim = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.01, 3, 31)));
    let mut monitor = MonitorLoop::with_config(sim, 2, LayoutPolicy::hilbert(), 2).unwrap();
    for _ in 0..2 {
        monitor.begin_step().unwrap();
        monitor.finish_step().unwrap();
    }
    monitor.pin_step(1).unwrap();

    // Pinned ⇒ the request parks as pending; nothing is permuted and
    // new steps stall so the pinned id space stays valid.
    assert!(!monitor.request_relayout().unwrap());
    assert!(monitor.relayout_pending());
    assert_eq!(monitor.relayouts(), 0);
    monitor.begin_step().unwrap();
    assert_eq!(monitor.in_flight(), 0, "pipeline stalls while pending");

    // Release the pin: the next step boundary applies the re-layout
    // and the pipeline resumes.
    monitor.unpin_step(1).unwrap();
    monitor.begin_step().unwrap();
    assert_eq!(monitor.relayouts(), 1);
    assert!(!monitor.relayout_pending());
    assert_eq!(monitor.in_flight(), 1, "pipeline resumed after applying");
    monitor.finish_step().unwrap();
}

#[test]
fn hilbert_layout_policy_matches_reference_through_translation() {
    // The Hilbert policy permutes the simulation's vertices at ingest
    // and — with `AfterRestructures(2)` and restructures every 3
    // steps — re-permutes twice mid-run. Every answer must still equal
    // the stop-the-world reference on the *unpermuted* mesh, mapped
    // through the monitor's id translation at that step.
    let steps = 12u32;
    let mesh = {
        let mut m = box_mesh(4);
        m.enable_restructuring().unwrap();
        m
    };
    let expected = reference_run(mesh.clone(), 123, Some((3, 2, 0xD1CE)), steps);

    let sim = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.01, 3, 123)))
        .with_restructuring(RestructureSchedule::new(3, 2, 0xD1CE))
        .unwrap();
    let mut monitor = MonitorLoop::with_config(
        sim,
        2,
        LayoutPolicy::Hilbert {
            trigger: RelayoutTrigger::AfterRestructures(2),
        },
        1,
    )
    .unwrap();

    for step in 1..=steps {
        monitor.begin_step().unwrap();
        assert_eq!(monitor.finish_step().unwrap(), step);
        let results = monitor.query_batch(&step_queries(step));
        for (i, (got, want)) in results.iter().zip(&expected[step as usize - 1]).enumerate() {
            let want_translated = sorted(
                want.iter()
                    .map(|&v| monitor.translate_vertex(v).unwrap())
                    .collect::<Vec<_>>(),
            );
            assert_eq!(
                sorted(got.vertices.clone()),
                want_translated,
                "step {step} query {i} (translation must track re-layouts)"
            );
        }
        monitor.recycle(results);
    }
    assert!(
        monitor.relayouts() >= 1,
        "4 restructuring events at threshold 2 must trigger a re-layout"
    );
    // The translation is a bijection over the final vertex set.
    let n = monitor.snapshot().num_vertices();
    let mut seen = vec![false; n];
    for v in 0..n as VertexId {
        let t = monitor.translate_vertex(v).unwrap();
        assert!(!seen[t as usize], "translation must stay bijective");
        seen[t as usize] = true;
    }
}

#[test]
fn overlapped_monitor_matches_stop_the_world_run() {
    let steps = 12u32;
    let mesh = box_mesh(5);
    let expected = reference_run(mesh.clone(), 77, None, steps);

    let sim = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.01, 3, 77)));
    let mut monitor = MonitorLoop::new(sim, 2).unwrap();
    // The reference crawls; Eq. 6 would scan the broad box, which also
    // finds what Algorithm 1's gap leaves out of the crawl.
    monitor
        .set_batch_engine(BatchEngineConfig { use_planner: false })
        .unwrap();
    // Pipelined loop: while step N+1 computes on the simulation thread,
    // step N's queries are answered against the snapshot.
    monitor.begin_step().unwrap();
    for step in 1..=steps {
        assert_eq!(monitor.finish_step().unwrap(), step);
        if step < steps {
            monitor.begin_step().unwrap();
            assert!(monitor.step_in_flight());
        }
        let results = monitor.query_batch(&step_queries(step));
        // These queries ran while the simulation thread was computing
        // step N+1 — the overlap the subsystem exists for.
        for (got, want) in results.iter().zip(&expected[step as usize - 1]) {
            assert_eq!(&sorted(got.vertices.clone()), want, "step {step}");
        }
    }
    let sim = monitor.shutdown().unwrap();
    assert_eq!(sim.current_step(), steps);
}

#[test]
fn monitor_handles_restructuring_steps() {
    let steps = 10u32;
    let mesh = {
        let mut m = box_mesh(4);
        m.enable_restructuring().unwrap();
        m
    };
    let restructure = Some((3u32, 2usize, 0xD1CEu64));
    let expected = reference_run(mesh.clone(), 123, restructure, steps);

    let sim = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.01, 3, 123)))
        .with_restructuring(RestructureSchedule::new(3, 2, 0xD1CE))
        .unwrap();
    let mut monitor = MonitorLoop::new(sim, 2).unwrap();
    for step in 1..=steps {
        monitor.begin_step().unwrap();
        assert_eq!(monitor.finish_step().unwrap(), step);
        let results = monitor.query_batch(&step_queries(step));
        for (i, (got, want)) in results.iter().zip(&expected[step as usize - 1]).enumerate() {
            assert_eq!(
                &sorted(got.vertices.clone()),
                want,
                "step {step} (restructures on multiples of 3), query {i}"
            );
        }
    }
}

#[test]
fn preserve_policy_is_the_identity_translation() {
    let mesh = box_mesh(3);
    let sim = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.01, 3, 2)));
    let mut monitor = MonitorLoop::new(sim, 1).unwrap();
    for v in 0..monitor.snapshot().num_vertices() as VertexId {
        assert_eq!(monitor.translate_vertex(v).unwrap(), v);
    }
    assert_eq!(monitor.relayouts(), 0);
    // Preserve has no curve: a re-layout request is meaningless.
    assert!(!monitor.request_relayout().unwrap());
}

#[test]
fn translate_vertex_rejects_out_of_range_ids_under_every_policy() {
    for policy in [LayoutPolicy::Preserve, LayoutPolicy::hilbert()] {
        let sim = Simulation::new(box_mesh(3), Box::new(SmoothRandomField::new(0.01, 3, 2)));
        let mut monitor = MonitorLoop::with_config(sim, 1, policy, 2).unwrap();
        monitor.begin_step().unwrap();
        let step = monitor.finish_step().unwrap();
        let n = monitor.snapshot().num_vertices() as VertexId;
        assert!(monitor.translate_vertex(n - 1).unwrap() < n, "{policy:?}");
        assert!(
            monitor.translate_vertex_at(0, n - 1).unwrap() < n,
            "{policy:?}"
        );
        for v in [n, n + 1, VertexId::MAX] {
            for got in [
                monitor.translate_vertex(v),
                monitor.translate_vertex_at(step, v),
                monitor.translate_vertex_at(0, v),
            ] {
                match got {
                    Err(ServiceError::VertexOutOfRange {
                        vertex,
                        num_vertices,
                    }) => assert_eq!((vertex, num_vertices), (v, n as usize), "{policy:?}"),
                    other => panic!("{policy:?}: id {v} of {n} gave {other:?}"),
                }
            }
        }
    }
}

#[test]
fn finish_without_begin_is_an_error() {
    let mesh = box_mesh(3);
    let sim = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.01, 3, 1)));
    let mut monitor = MonitorLoop::new(sim, 1).unwrap();
    assert!(matches!(
        monitor.finish_step(),
        Err(octopus_service::ServiceError::NoStepInFlight)
    ));
}
