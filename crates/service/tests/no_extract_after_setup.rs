//! After set-up the serving side never extracts a surface from the
//! cells: restructures replay a delta, re-layouts relabel, the planner
//! reads S off the slot executor's index. `Surface::extract_calls` is a
//! process-wide counter, so this check owns its test binary (one test,
//! no concurrent set-ups to blame).

use octopus_geom::{Aabb, Point3};
use octopus_mesh::Surface;
use octopus_service::{BatchEngineConfig, LayoutPolicy, MonitorLoop, RelayoutTrigger};
use octopus_sim::{RestructureSchedule, Simulation, SmoothRandomField};
use octopus_telemetry::Registry;
use octopus_testkit::{box_mesh, scan_active, sorted};

#[test]
fn no_service_call_extracts_a_surface_after_setup() {
    let sim = Simulation::new(box_mesh(5), Box::new(SmoothRandomField::new(0.01, 3, 5)))
        .with_restructuring(RestructureSchedule::new(4, 2, 5))
        .unwrap();
    let policy = LayoutPolicy::Hilbert {
        trigger: RelayoutTrigger::AfterRestructures(2),
    };
    let registry = Registry::new();
    let mut monitor = MonitorLoop::with_config(sim, 2, policy, 2).unwrap();
    monitor.attach_telemetry(&registry);
    monitor
        .set_batch_engine(BatchEngineConfig::default())
        .unwrap();
    let boxes = [
        Aabb::new(Point3::splat(-0.1), Point3::new(0.55, 1.1, 1.1)),
        Aabb::cube(Point3::splat(0.5), 0.3),
    ];
    let sub = monitor.subscribe(&boxes[1]);

    // Set-up is over: from here on, not one extraction.
    let extractions = Surface::extract_calls();
    for step in 1..=10 {
        monitor.begin_step().unwrap();
        assert_eq!(monitor.finish_step().unwrap(), step);
        let oldest = *monitor.retained_steps().start();
        monitor.pin_step(oldest).unwrap();
        let old = monitor.query_batch_at(oldest, &boxes).unwrap();
        monitor.recycle(old);
        monitor.unpin_step(oldest).unwrap();
        let results = monitor.query_batch(&boxes);
        let got: Vec<_> = results.iter().map(|r| sorted(r.vertices.clone())).collect();
        monitor.recycle(results);
        monitor.poll_subscriptions();
        assert_eq!(
            Surface::extract_calls(),
            extractions,
            "step {step} reached Surface::extract"
        );
        // The referee runs after the counter check: `scan_active` never
        // extracts, but keep the accounting obviously clean.
        for (q, got) in boxes.iter().zip(&got) {
            assert_eq!(got, &scan_active(monitor.snapshot(), q), "step {step}");
        }
        assert_eq!(
            monitor.subscription_result(sub).unwrap(),
            scan_active(monitor.snapshot(), &boxes[1])
        );
    }
    // Steps 4 and 8 restructured; the second one triggered the re-layout.
    assert_eq!(monitor.snapshot().restructure_epoch(), 4);
    assert_eq!(monitor.relayouts(), 1);
    let snap = monitor.telemetry_snapshot().unwrap();
    assert_eq!(snap.histogram("ring_restructure_ns").unwrap().count, 2);
    assert_eq!(snap.histogram("ring_relayout_ns").unwrap().count, 1);
    assert_eq!(Surface::extract_calls(), extractions);
    monitor.shutdown().unwrap();
}
