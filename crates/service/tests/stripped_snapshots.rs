//! Ring snapshots carry positions and connectivity, nothing else: the
//! restructuring state (the vertex→cell incidence and boundary counts)
//! stays with the simulation, and the serving side's surface is each
//! slot executor's delta-maintained index. These tests hold the service
//! to that contract where it could leak: old generations kept alive by
//! a pin while newer ones restructure and a re-layout waits (each
//! probed through the surface grid of its own generation), a
//! simulation restarted from a snapshot without that state, and a
//! re-layout whose hand-over to the simulation fails.

use octopus_geom::{Aabb, Point3, VertexId};
use octopus_mesh::Mesh;
use octopus_service::{LayoutPolicy, MonitorLoop, RelayoutTrigger, ServiceError};
use octopus_sim::{RestructureSchedule, Simulation, SmoothRandomField};
use octopus_testkit::{box_mesh, scan_active, sorted, with_watchdog, FailPoint};
use std::sync::Arc;
use std::time::Duration;

const WATCHDOG: Duration = Duration::from_secs(60);

/// Boxes wide enough that every in-box vertex is crawl-reachable from a
/// surface seed even on a churned mesh, so the linear scan referees.
fn wide_boxes() -> Vec<Aabb> {
    vec![
        Aabb::new(Point3::splat(-0.1), Point3::new(0.55, 1.1, 1.1)),
        Aabb::new(Point3::new(0.3, 0.3, -0.1), Point3::splat(1.1)),
        Aabb::new(Point3::splat(0.05), Point3::splat(0.95)),
    ]
}

fn restructuring_sim(mesh: Mesh, period: u32, seed: u64) -> Simulation {
    Simulation::new(mesh, Box::new(SmoothRandomField::new(0.01, 3, seed)))
        .with_restructuring(RestructureSchedule::new(period, 2, seed))
        .unwrap()
}

fn assert_exact_at(monitor: &mut MonitorLoop, step: u32, ctx: &str) {
    let boxes = wide_boxes();
    let together = monitor.query_batch_at(step, &boxes).unwrap();
    for (i, q) in boxes.iter().enumerate() {
        let want = scan_active(monitor.snapshot_at(step).unwrap(), q);
        let alone = monitor
            .query_batch_at(step, std::slice::from_ref(q))
            .unwrap();
        for (path, got) in [("alone", &alone[0]), ("together", &together[i])] {
            assert_eq!(
                sorted(got.vertices.clone()),
                want,
                "{ctx}: step {step}, box {i} ({path})"
            );
        }
        monitor.recycle(alone);
    }
    monitor.recycle(together);
}

/// (a) A pinned old-generation slot keeps answering exactly — in its
/// own id space, from its own connectivity (the very arrays it was
/// published with), its own generation's executor and through the
/// surface grid it was published with — while two later steps
/// restructure past it and a requested re-layout waits for the pin;
/// once released, the re-layout relabels and the latest slot is exact
/// too. Every executor built on the way got its own grid, and no query
/// fell back to the full surface probe.
#[test]
fn pinned_old_generation_stays_exact_across_restructures_and_relayout() {
    with_watchdog("pinned_old_generation", WATCHDOG, || {
        let sim = restructuring_sim(box_mesh(5), 1, 0xA11CE);
        let policy = LayoutPolicy::Hilbert {
            trigger: RelayoutTrigger::Never,
        };
        let mut monitor = MonitorLoop::with_config(sim, 2, policy, 3).unwrap();
        assert!(
            !monitor.snapshot().restructuring_enabled(),
            "the ingest slot is already a stripped snapshot"
        );

        monitor.begin_step().unwrap();
        let pinned = monitor.finish_step().unwrap();
        monitor.pin_step(pinned).unwrap();
        let ids_at = |monitor: &MonitorLoop, step: u32| -> Vec<VertexId> {
            let n = monitor.snapshot_at(step).unwrap().num_vertices() as VertexId;
            (0..n)
                .map(|v| monitor.translate_vertex_at(step, v).unwrap())
                .collect()
        };
        let pinned_ids = ids_at(&monitor, pinned);
        assert_exact_at(&mut monitor, pinned, "freshly pinned");
        // What the pinned slot holds, by address: later restructures
        // publish new connectivity, they never write into this one.
        let held = monitor.snapshot_at(pinned).unwrap();
        let (pinned_adjacency, pinned_cells) =
            (std::ptr::from_ref(held.adjacency()), held.cell(0).as_ptr());

        // Two later restructuring steps fill the ring behind the pin.
        for later in 1..=2 {
            monitor.begin_step().unwrap();
            let latest = monitor.finish_step().unwrap();
            assert_eq!(latest, pinned + later);
            assert!(
                monitor.snapshot().restructure_epoch()
                    > monitor.snapshot_at(pinned).unwrap().restructure_epoch(),
                "every step of this schedule restructures"
            );
            assert!(!monitor.snapshot().restructuring_enabled());
            let held = monitor.snapshot_at(pinned).unwrap();
            assert!(
                std::ptr::eq(held.adjacency(), pinned_adjacency)
                    && held.cell(0).as_ptr() == pinned_cells,
                "the pinned slot's connectivity was replaced"
            );
            assert!(
                !std::ptr::eq(monitor.snapshot().adjacency(), pinned_adjacency)
                    && monitor.snapshot().cell(0).as_ptr() != pinned_cells,
                "a restructured slot shares the pinned slot's connectivity"
            );
            assert_exact_at(&mut monitor, pinned, "behind later restructures");
            assert_exact_at(&mut monitor, latest, "latest generation");
        }

        // The re-layout must wait for the pin; the pinned slot keeps
        // its id space and its answers.
        assert!(!monitor.request_relayout().unwrap());
        assert!(monitor.relayout_pending());
        assert_eq!(ids_at(&monitor, pinned), pinned_ids);
        assert_exact_at(&mut monitor, pinned, "re-layout pending");

        monitor.unpin_step(pinned).unwrap();
        monitor.begin_step().unwrap();
        assert_eq!(
            monitor.relayouts(),
            1,
            "applied at the first unpinned boundary"
        );
        assert!(!monitor.relayout_pending());
        let relabelled = monitor.snapshot_step();
        assert_eq!(*monitor.retained_steps().start(), relabelled);
        assert!(!monitor.snapshot().restructuring_enabled());
        assert_exact_at(&mut monitor, relabelled, "relabelled latest");
        let after = monitor.finish_step().unwrap();
        assert_exact_at(&mut monitor, after, "first step after the re-layout");
        let stats = monitor.seed_cache_stats().unwrap();
        // 8 `assert_exact_at` calls × 3 boxes × (alone + in the batch).
        assert_eq!(
            (stats.hits, stats.misses),
            (48, 0),
            "every slot probes its own grid: {stats:?}"
        );
        assert_eq!(
            stats.insertions,
            1 + 4 + 1,
            "set-up, four restructuring steps, one re-layout: {stats:?}"
        );
        assert_eq!(stats.stale, 0, "no drift rebuild in six steps: {stats:?}");
        monitor.shutdown().unwrap();
    });
}

/// (b) A simulation restarted from a ring snapshot (which has no face
/// table) re-enables restructuring through `with_restructuring`, and
/// its next restructuring step is served exactly.
#[test]
fn restart_from_a_stripped_snapshot_restructures_again() {
    with_watchdog("restart_from_stripped", WATCHDOG, || {
        let mut monitor = MonitorLoop::with_config(
            restructuring_sim(box_mesh(5), 2, 7),
            2,
            LayoutPolicy::Preserve,
            2,
        )
        .unwrap();
        for _ in 0..2 {
            monitor.begin_step().unwrap();
            monitor.finish_step().unwrap();
        }
        let fp = Arc::new(FailPoint::new().panic_sim_at(3));
        monitor.set_fault_hook(fp as Arc<_>);
        monitor.begin_step().unwrap();
        assert!(matches!(
            monitor.finish_step(),
            Err(ServiceError::SimulationFailed(_))
        ));
        monitor.clear_fault_hook();
        assert!(!monitor.snapshot().restructuring_enabled());

        // Every step of the replacement restructures.
        let resumed = monitor
            .restart_simulation(|snapshot| {
                assert!(!snapshot.restructuring_enabled());
                Simulation::new(
                    snapshot.clone(),
                    Box::new(SmoothRandomField::new(0.01, 3, 11)),
                )
                .with_restructuring(RestructureSchedule::new(1, 2, 11))
            })
            .unwrap();
        assert_eq!(resumed, 2);
        let epoch_before = monitor.snapshot().restructure_epoch();
        for step in 3..=5 {
            monitor.begin_step().unwrap();
            assert_eq!(monitor.finish_step().unwrap(), step);
            assert_exact_at(&mut monitor, step, "after the restart");
        }
        assert!(monitor.snapshot().restructure_epoch() >= epoch_before + 3);
        let sim = monitor.shutdown().unwrap();
        assert!(
            sim.mesh().restructuring_enabled(),
            "the incidence lives in the simulation's mesh"
        );
    });
}

/// A re-layout whose hand-over to the simulation fails (the thread is
/// gone) must leave the monitor in the simulation's id space: nothing
/// relabelled, the request still pending, and — after a restart from
/// the untouched snapshot — both sides agreeing vertex for vertex.
#[test]
fn failed_relayout_keeps_monitor_and_simulation_in_one_id_space() {
    with_watchdog("failed_relayout", WATCHDOG, || {
        let policy = LayoutPolicy::Hilbert {
            trigger: RelayoutTrigger::Never,
        };
        let mut monitor =
            MonitorLoop::with_config(restructuring_sim(box_mesh(4), 2, 23), 2, policy, 2).unwrap();
        for _ in 0..2 {
            monitor.begin_step().unwrap();
            monitor.finish_step().unwrap();
        }
        let fp = Arc::new(FailPoint::new().panic_sim_at(3));
        monitor.set_fault_hook(fp as Arc<_>);
        monitor.begin_step().unwrap();
        assert!(monitor.finish_step().is_err());
        monitor.clear_fault_hook();

        let ids = |monitor: &MonitorLoop| -> Vec<VertexId> {
            (0..monitor.snapshot().num_vertices() as VertexId)
                .map(|v| monitor.translate_vertex(v).unwrap())
                .collect()
        };
        let translation = ids(&monitor);
        let positions = monitor.snapshot().positions().to_vec();
        assert!(matches!(
            monitor.request_relayout(),
            Err(ServiceError::SimulationFailed(_))
        ));
        assert_eq!(monitor.relayouts(), 0);
        assert!(
            monitor.relayout_pending(),
            "the request survives the failure"
        );
        assert_eq!(ids(&monitor), translation);
        assert_eq!(monitor.snapshot().positions(), &positions[..]);

        // The restarted simulation takes the pending relabelling at its
        // first step boundary; from then on every published snapshot is
        // the simulation's own state, id for id.
        monitor
            .restart_simulation(|snapshot| Ok(restructuring_sim(snapshot.clone(), 2, 29)))
            .unwrap();
        monitor.begin_step().unwrap();
        assert_eq!(monitor.relayouts(), 1);
        let step = monitor.finish_step().unwrap();
        assert_exact_at(&mut monitor, step, "after the recovered re-layout");
        let snapshot_positions = monitor.snapshot().positions().to_vec();
        let snapshot_adjacency = monitor.snapshot().adjacency().clone();
        let sim = monitor.shutdown().unwrap();
        assert_eq!(sim.current_step(), step);
        assert_eq!(sim.mesh().positions(), &snapshot_positions[..]);
        assert!(sim.mesh().adjacency() == &snapshot_adjacency);
    });
}
