//! Chaos suite: the service layer survives every injected fault class
//! — worker-task panics, sim-thread panics, delayed steps, forced
//! `RingFull` windows, failed restructures — with **exact** results
//! against a fault-free reference, bounded liveness (every test runs
//! under a watchdog; a deadlock fails fast instead of hanging CI), no
//! lost result buffers (the recycler's counters stay coherent), and
//! telemetry counters that reflect the injected counts.

use octopus_core::Octopus;
use octopus_geom::{Aabb, Point3, VertexId};
use octopus_mesh::{Mesh, MeshError};
use octopus_service::{
    AdmissionConfig, Backoff, LayoutPolicy, MonitorLoop, Overload, ParallelExecutor, ServiceError,
};
use octopus_sim::{RestructureSchedule, Simulation, SmoothRandomField};
use octopus_telemetry::Registry;
use octopus_testkit::{
    box_mesh, reference_run, scan, sorted, step_queries, with_watchdog, FailPoint,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Per-test liveness budget. Generous — the point is to fail fast on a
/// genuine deadlock, not to race healthy runs.
const WATCHDOG: Duration = Duration::from_secs(60);

fn make_sim(mesh: Mesh, field_seed: u64) -> Simulation {
    Simulation::new(mesh, Box::new(SmoothRandomField::new(0.01, 3, field_seed)))
}

/// Asserts the monitor's latest snapshot answers [`step_queries`]
/// exactly as the reference's entry for that step.
fn assert_step_exact(monitor: &mut MonitorLoop, expected: &[Vec<Vec<VertexId>>], step: u32) {
    let results = monitor.query_batch(&step_queries(step));
    for (i, (got, want)) in results.iter().zip(&expected[step as usize - 1]).enumerate() {
        assert_eq!(
            &sorted(got.vertices.clone()),
            want,
            "step {step}, query {i}: injected fault must not change results"
        );
    }
    monitor.recycle(results);
}

// ---------------------------------------------------------------------
// Fault class 1: worker-task panic.
// ---------------------------------------------------------------------

#[test]
fn worker_panic_batch_reissues_exactly_with_recycler_intact() {
    with_watchdog("worker_panic", WATCHDOG, || {
        let mesh = box_mesh(4);
        let mut octopus = Octopus::new(&mesh).unwrap();
        let queries = step_queries(3);
        let expected: Vec<Vec<VertexId>> = queries
            .iter()
            .map(|q| {
                let mut out = Vec::new();
                octopus.query(&mesh, q, &mut out);
                sorted(out)
            })
            .collect();

        let mut exec = ParallelExecutor::new(3);
        // Warm up once so the recycler has leased buffers in flight.
        let warm = exec.execute_batch(&octopus, &mesh, &queries);
        exec.recycle(warm);

        let fp = Arc::new(FailPoint::new().worker_panic_on_task(1));
        exec.arm_faults(Arc::clone(&fp) as Arc<_>);
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            exec.execute_batch(&octopus, &mesh, &queries)
        }));
        let payload = panicked.expect_err("injected worker panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("injected"), "payload preserved: {msg}");
        assert_eq!(fp.worker_panics(), 1);
        exec.disarm_faults();

        // The pool survived: reissuing the batch gives exact results,
        // repeatedly, and the free list keeps serving (counters
        // coherent — `leased` always equals `reused + allocated`, and
        // reuse resumes after the crash).
        for round in 0..3 {
            let results = exec.execute_batch(&octopus, &mesh, &queries);
            for (i, (got, want)) in results.iter().zip(&expected).enumerate() {
                assert_eq!(
                    &sorted(got.vertices.clone()),
                    want,
                    "round {round}, query {i}"
                );
            }
            exec.recycle(results);
            let s = exec.recycle_stats();
            assert_eq!(s.leased, s.reused + s.allocated, "round {round}");
            assert!(
                s.free <= s.leased,
                "round {round}: free list never grows past leases"
            );
        }
        let s = exec.recycle_stats();
        assert!(s.reused > 0, "recycling resumed after the panic: {s:?}");
    });
}

// ---------------------------------------------------------------------
// Fault class 2: sim-thread panic — degrade, then restart.
// ---------------------------------------------------------------------

#[test]
fn sim_panic_degrades_gracefully_and_restarts_from_snapshot() {
    with_watchdog("sim_panic_restart", WATCHDOG, || {
        let seed = 11;
        let mesh = box_mesh(4);
        let expected = reference_run(mesh.clone(), seed, None, 5);

        let registry = Registry::new();
        let mut monitor =
            MonitorLoop::with_config(make_sim(mesh, seed), 2, LayoutPolicy::Preserve, 3).unwrap();
        monitor.attach_telemetry(&registry);
        let standing = Aabb::cube(Point3::splat(0.5), 0.25);
        let sub = monitor.subscribe(&standing);

        // Publish steps 1..=5 one at a time (deterministic fault step).
        for step in 1..=5 {
            monitor.begin_step().unwrap();
            assert_eq!(monitor.finish_step().unwrap(), step);
            monitor.poll_subscriptions();
        }

        let fp = Arc::new(FailPoint::new().panic_sim_at(6));
        monitor.set_fault_hook(Arc::clone(&fp) as Arc<_>);
        monitor.begin_step().unwrap();
        let err = monitor.finish_step().expect_err("injected sim panic");
        let ServiceError::SimulationFailed(msg) = &err else {
            panic!("expected SimulationFailed, got {err:?}");
        };
        assert!(msg.contains("injected"), "payload carried: {msg}");
        assert_eq!(fp.sim_panics(), 1);
        monitor.clear_fault_hook();

        // Degraded mode: stepping refuses with the preserved payload...
        assert!(matches!(
            monitor.begin_step(),
            Err(ServiceError::SimulationFailed(_))
        ));
        assert!(monitor.sim_failure().unwrap().contains("injected"));
        // ...but every retained step stays queryable and exact...
        assert_eq!(monitor.snapshot_step(), 5);
        for s in monitor.retained_steps().collect::<Vec<_>>() {
            let queries = step_queries(s);
            let results = monitor.query_batch_at(s, &queries).unwrap();
            for (i, (got, want)) in results.iter().zip(&expected[s as usize - 1]).enumerate() {
                assert_eq!(
                    &sorted(got.vertices.clone()),
                    want,
                    "degraded mode, retained step {s}, query {i}"
                );
            }
            monitor.recycle(results);
        }
        // ...and standing queries keep polling the last good step: the
        // poll still answers (no panic, no stale error), and with no new
        // step the result set cannot have changed.
        for (_, delta) in monitor.poll_subscriptions() {
            assert_eq!(delta.step, 5, "polls target the last good step");
            assert!(
                delta.entered.is_empty() && delta.left.is_empty(),
                "no new step, no change"
            );
        }
        let held = monitor.subscription_result(sub).unwrap().to_vec();
        let mut want = Vec::new();
        Octopus::new(monitor.snapshot())
            .unwrap()
            .query(monitor.snapshot(), &standing, &mut want);
        assert_eq!(
            sorted(held),
            sorted(want),
            "subscription holds last-good result"
        );

        // Restart from the newest published snapshot and continue; the
        // continuation matches a reference replay seeded from that same
        // snapshot (the lost trajectory is gone by design — resuming
        // from a snapshot restarts the rest configuration there).
        let restart_seed = 29;
        let resumed = monitor
            .restart_simulation(|mesh| Ok(make_sim(mesh.clone(), restart_seed)))
            .unwrap();
        assert_eq!(resumed, 5, "resumes from the newest published step");

        let mut ref_sim = make_sim(monitor.snapshot().clone(), restart_seed);
        ref_sim.resume_from(resumed);
        let mut ref_octopus = Octopus::new(ref_sim.mesh()).unwrap();
        for step in 6..=9 {
            monitor.begin_step().unwrap();
            assert_eq!(monitor.finish_step().unwrap(), step);
            let outcome = ref_sim.step_outcome().unwrap();
            assert_eq!(outcome.step, step, "restart keeps the step numbering");
            for (i, q) in step_queries(step).iter().enumerate() {
                let mut want = Vec::new();
                ref_octopus.query(ref_sim.mesh(), q, &mut want);
                let results = monitor.query_batch(&[*q]);
                assert_eq!(
                    sorted(results[0].vertices.clone()),
                    sorted(want),
                    "post-restart step {step}, query {i}"
                );
                monitor.recycle(results);
            }
            monitor.poll_subscriptions();
        }

        // Telemetry reflects the injected counts exactly.
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sim_failures_total"), fp.sim_panics());
        assert_eq!(snap.counter("sim_restarts_total"), 1);

        monitor.shutdown().unwrap();
    });
}

// ---------------------------------------------------------------------
// Fault class 3: delayed step — slow, not wrong.
// ---------------------------------------------------------------------

#[test]
fn delayed_step_changes_nothing_but_time() {
    with_watchdog("delayed_step", WATCHDOG, || {
        let seed = 17;
        let mesh = box_mesh(4);
        let steps = 6;
        let expected = reference_run(mesh.clone(), seed, None, steps);

        let mut monitor =
            MonitorLoop::with_config(make_sim(mesh, seed), 2, LayoutPolicy::Preserve, 2).unwrap();
        let fp = Arc::new(FailPoint::new().delay_sim_step(3, 50));
        monitor.set_fault_hook(Arc::clone(&fp) as Arc<_>);
        for step in 1..=steps {
            monitor.begin_step().unwrap();
            assert_eq!(monitor.finish_step().unwrap(), step);
            assert_step_exact(&mut monitor, &expected, step);
        }
        assert_eq!(fp.sim_delays(), 1, "exactly one step was stalled");
        monitor.clear_fault_hook();
        monitor.shutdown().unwrap();
    });
}

// ---------------------------------------------------------------------
// Fault class 4: forced RingFull window → RetryAfter → backoff retry.
// ---------------------------------------------------------------------

#[test]
fn forced_ring_full_surfaces_retry_after_and_backoff_recovers() {
    with_watchdog("ring_full_window", WATCHDOG, || {
        let seed = 23;
        let mesh = box_mesh(4);
        let expected = reference_run(mesh.clone(), seed, None, 4);

        let registry = Registry::new();
        let mut monitor =
            MonitorLoop::with_config(make_sim(mesh, seed), 2, LayoutPolicy::Preserve, 2).unwrap();
        monitor.attach_telemetry(&registry);
        monitor.set_admission(AdmissionConfig {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            ..AdmissionConfig::default()
        });

        let denials = 2u64;
        let fp = Arc::new(FailPoint::new().deny_ring_publishes(denials));
        monitor.set_fault_hook(Arc::clone(&fp) as Arc<_>);
        monitor.begin_step().unwrap();

        // First attempt: structured back-pressure with a usable hint.
        let err = monitor.finish_step().expect_err("denied publish");
        let ServiceError::RetryAfter {
            suggested_backoff,
            cause: Overload::RingPinned { .. },
        } = &err
        else {
            panic!("admission converts RingFull to RetryAfter, got {err:?}");
        };
        assert!(*suggested_backoff > Duration::ZERO);
        assert_eq!(err.retry_hint(), Some(*suggested_backoff));

        // Caller-side recovery: bounded backoff retries through the
        // rest of the deny window (each retry consumes one denial).
        let mut backoff = Backoff::new(Duration::from_millis(1), Duration::from_millis(4));
        let step = backoff
            .run(4, || monitor.finish_step())
            .expect("window ends, publish succeeds");
        assert_eq!(step, 1);
        assert_eq!(fp.ring_denials(), denials);
        assert!(backoff.attempts() >= 1, "at least one retry was needed");
        monitor.clear_fault_hook();

        // The denied-then-published pipeline is exact thereafter.
        assert_step_exact(&mut monitor, &expected, 1);
        for step in 2..=4 {
            monitor.begin_step().unwrap();
            assert_eq!(monitor.finish_step().unwrap(), step);
            assert_step_exact(&mut monitor, &expected, step);
        }

        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("retry_after_total"),
            denials,
            "every surfaced RetryAfter is counted"
        );
        monitor.shutdown().unwrap();
    });
}

// ---------------------------------------------------------------------
// Fault class 5: failed restructure — refused without stepping, exact
// after retry.
// ---------------------------------------------------------------------

#[test]
fn failed_restructure_is_retryable_and_trajectory_exact() {
    with_watchdog("failed_restructure", WATCHDOG, || {
        let seed = 31;
        let (period, ops, rseed) = (4, 3, 7);
        let steps = 8;
        let mut mesh = box_mesh(4);
        mesh.enable_restructuring().unwrap();
        let expected = reference_run(mesh.clone(), seed, Some((period, ops, rseed)), steps);

        let sim = make_sim(mesh, seed)
            .with_restructuring(RestructureSchedule::new(period, ops, rseed))
            .unwrap();
        let mut monitor = MonitorLoop::with_config(sim, 2, LayoutPolicy::Preserve, 2).unwrap();

        let fp = Arc::new(FailPoint::new().fail_restructure_at(period));
        monitor.set_fault_hook(Arc::clone(&fp) as Arc<_>);
        for step in 1..=steps {
            monitor.begin_step().unwrap();
            if step == period {
                // The scheduled restructure is refused — as an error,
                // not a panic: the sim thread is alive and the sim
                // state untouched.
                let err = monitor
                    .finish_step()
                    .expect_err("injected restructure failure");
                let ServiceError::Mesh(MeshError::External(msg)) = &err else {
                    panic!("expected Mesh(External), got {err:?}");
                };
                assert!(msg.contains("restructure"), "{msg}");
                assert_eq!(fp.restructure_failures(), 1);
                assert!(monitor.sim_failure().is_none(), "sim thread still healthy");
                // Retry the same step: the one-shot fault is spent.
                monitor.begin_step().unwrap();
            }
            assert_eq!(monitor.finish_step().unwrap(), step);
            assert_step_exact(&mut monitor, &expected, step);
        }
        monitor.clear_fault_hook();
        monitor.shutdown().unwrap();
    });
}

#[test]
fn failed_plain_step_is_retryable_too() {
    with_watchdog("failed_step", WATCHDOG, || {
        let seed = 37;
        let mesh = box_mesh(4);
        let expected = reference_run(mesh.clone(), seed, None, 4);

        let mut monitor =
            MonitorLoop::with_config(make_sim(mesh, seed), 2, LayoutPolicy::Preserve, 2).unwrap();
        let fp = Arc::new(FailPoint::new().fail_sim_at(2));
        monitor.set_fault_hook(Arc::clone(&fp) as Arc<_>);
        for step in 1..=4 {
            monitor.begin_step().unwrap();
            if step == 2 {
                let err = monitor.finish_step().expect_err("injected step failure");
                assert!(matches!(err, ServiceError::Mesh(MeshError::External(_))));
                monitor.begin_step().unwrap();
            }
            assert_eq!(monitor.finish_step().unwrap(), step);
            assert_step_exact(&mut monitor, &expected, step);
        }
        assert_eq!(fp.sim_failures(), 1);
        monitor.shutdown().unwrap();
    });
}

// ---------------------------------------------------------------------
// Shutdown / drop-order edge cases (satellites a and c).
// ---------------------------------------------------------------------

#[test]
fn shutdown_surfaces_sim_panic_payload() {
    with_watchdog("shutdown_panic_payload", WATCHDOG, || {
        let mesh = box_mesh(3);
        let mut monitor =
            MonitorLoop::with_config(make_sim(mesh, 41), 2, LayoutPolicy::Preserve, 2).unwrap();
        let fp = Arc::new(FailPoint::new().panic_sim_at(1));
        monitor.set_fault_hook(Arc::clone(&fp) as Arc<_>);
        monitor.begin_step().unwrap();
        // Shut down *without* observing the failure through finish_step:
        // the panic payload must still come out of shutdown(), not be
        // swallowed by the join.
        let Err(err) = monitor.shutdown() else {
            panic!("panic payload must surface at shutdown");
        };
        let ServiceError::SimulationFailed(msg) = err else {
            panic!("expected SimulationFailed");
        };
        assert!(
            msg.contains("injected"),
            "original payload preserved: {msg}"
        );
    });
}

#[test]
fn drop_with_pins_queries_and_subscriptions_never_deadlocks() {
    with_watchdog("drop_order", WATCHDOG, || {
        let mesh = box_mesh(4);
        let mut monitor =
            MonitorLoop::with_config(make_sim(mesh, 43), 2, LayoutPolicy::Preserve, 3).unwrap();
        monitor.fill_pipeline().unwrap();
        monitor.finish_step().unwrap();
        monitor.finish_step().unwrap();

        // Pins held, results un-recycled, subscriptions registered, and
        // steps still in flight — dropping now must neither hang nor
        // corrupt anything (the watchdog bounds the whole closure).
        let oldest = *monitor.retained_steps().start();
        monitor.pin_step(oldest).unwrap();
        let _sub = monitor.subscribe(&Aabb::cube(Point3::splat(0.5), 0.2));
        let leaked_results = monitor.query_batch(&step_queries(1));
        assert!(!leaked_results.is_empty());
        monitor.fill_pipeline().unwrap();
        drop(monitor);
        drop(leaked_results); // buffers from a dropped monitor: plain frees
    });
}

#[test]
fn drop_mid_fault_window_is_clean() {
    with_watchdog("drop_mid_fault", WATCHDOG, || {
        let mesh = box_mesh(3);
        let mut monitor =
            MonitorLoop::with_config(make_sim(mesh, 47), 2, LayoutPolicy::Preserve, 2).unwrap();
        let fp = Arc::new(
            FailPoint::new()
                .delay_sim_step(1, 30)
                .deny_ring_publishes(1),
        );
        monitor.set_fault_hook(fp as Arc<_>);
        monitor.fill_pipeline().unwrap();
        // Drop with a delayed step in flight and a deny pending: Drop
        // must stop the sim thread and join without hanging.
        drop(monitor);
    });
}

#[test]
fn recycler_stays_coherent_across_sim_death_and_restart() {
    with_watchdog("recycler_across_restart", WATCHDOG, || {
        let mesh = box_mesh(4);
        let mut monitor =
            MonitorLoop::with_config(make_sim(mesh, 53), 2, LayoutPolicy::Preserve, 2).unwrap();
        monitor.begin_step().unwrap();
        monitor.finish_step().unwrap();
        let r1 = monitor.query_batch(&step_queries(1));
        monitor.recycle(r1);

        let fp = Arc::new(FailPoint::new().panic_sim_at(2));
        monitor.set_fault_hook(fp as Arc<_>);
        monitor.begin_step().unwrap();
        assert!(monitor.finish_step().is_err());
        monitor.clear_fault_hook();

        // Queries during degraded mode and after restart keep cycling
        // through the same free list — leases balance, reuse continues.
        let r2 = monitor.query_batch(&step_queries(1));
        monitor.recycle(r2);
        monitor
            .restart_simulation(|m| Ok(make_sim(m.clone(), 59)))
            .unwrap();
        monitor.begin_step().unwrap();
        monitor.finish_step().unwrap();
        let r3 = monitor.query_batch(&step_queries(2));
        monitor.recycle(r3);

        let s = monitor.recycle_stats();
        assert_eq!(s.leased, s.reused + s.allocated);
        assert!(
            s.reused > 0,
            "free list survived the death/restart cycle: {s:?}"
        );
        assert!(s.free <= s.leased);
        monitor.shutdown().unwrap();
    });
}

// ---------------------------------------------------------------------
// Worker-task panic under admission: the front outlives the unwind.
// ---------------------------------------------------------------------

#[test]
fn admission_front_survives_a_contained_worker_panic() {
    with_watchdog("admission_panic", WATCHDOG, || {
        let mut monitor =
            MonitorLoop::with_config(make_sim(box_mesh(4), 67), 2, LayoutPolicy::Preserve, 1)
                .unwrap();
        monitor.set_admission(AdmissionConfig::default());
        monitor.enqueue(0, step_queries(1), None).unwrap();
        monitor.enqueue(0, step_queries(2), None).unwrap();

        // The pool re-throws a worker-task panic on the caller by
        // design; a caller that contains it must find the front — and
        // the batch still queued in it — where it left them.
        let fp = Arc::new(FailPoint::new().worker_panic_on_task(1));
        monitor.set_fault_hook(Arc::clone(&fp) as Arc<_>);
        let drained = catch_unwind(AssertUnwindSafe(|| monitor.drain_admitted(1)));
        assert!(drained.is_err(), "the injected panic reaches the caller");
        assert_eq!(fp.worker_panics(), 1);
        monitor.clear_fault_hook();

        let stats = monitor
            .admission_stats()
            .expect("the admission front must survive the unwind");
        assert_eq!(stats.queue_depth, 1, "the second batch is still queued");
        monitor
            .enqueue(0, step_queries(3), None)
            .expect("and the front still admits");
        let out = monitor.drain_admitted(usize::MAX).unwrap();
        assert_eq!(out.batches.len(), 2);
        for (batch, step) in out.batches.iter().zip([2, 3]) {
            for (i, (got, q)) in batch.results.iter().zip(&step_queries(step)).enumerate() {
                assert_eq!(
                    sorted(got.vertices.clone()),
                    scan(monitor.snapshot(), q),
                    "surviving batch {step}, query {i}"
                );
            }
        }
        monitor.shutdown().unwrap();
    });
}

// ---------------------------------------------------------------------
// Admission + shedding counters under load (acceptance: injected counts
// show up in the metric families).
// ---------------------------------------------------------------------

#[test]
fn shed_and_queue_full_counts_are_exact() {
    with_watchdog("admission_counts", WATCHDOG, || {
        let mesh = box_mesh(4);
        let registry = Registry::new();
        let mut monitor =
            MonitorLoop::with_config(make_sim(mesh, 61), 2, LayoutPolicy::Preserve, 2).unwrap();
        monitor.attach_telemetry(&registry);
        monitor.set_admission(AdmissionConfig {
            queue_capacity: 2,
            ..AdmissionConfig::default()
        });

        // Two expired batches (shed at drain), one live, one refused.
        monitor
            .enqueue(0, step_queries(1), Some(Duration::ZERO))
            .unwrap();
        monitor
            .enqueue(1, step_queries(2), Some(Duration::ZERO))
            .unwrap();
        monitor.enqueue(0, step_queries(3), None).unwrap();
        monitor.enqueue(1, step_queries(4), None).unwrap();
        let refused = monitor.enqueue(1, step_queries(5), None);
        assert!(
            matches!(
                refused,
                Err(ServiceError::RetryAfter {
                    cause: Overload::QueueFull { tenant: 1, .. },
                    ..
                })
            ),
            "bounded queue refuses with structured back-pressure"
        );

        std::thread::sleep(Duration::from_millis(2)); // deadlines pass
        let out = monitor.drain_admitted(usize::MAX).unwrap();
        assert_eq!(out.batches.len(), 2, "live batches executed");
        assert_eq!(out.shed.len(), 2, "expired batches reported shed");
        for b in &out.batches {
            let step = monitor.snapshot_step();
            assert_eq!(b.step, step);
            monitor.recycle(b.results.clone());
        }

        let stats = monitor.admission_stats().unwrap();
        assert_eq!(stats.enqueued, 4);
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.shed_tickets, 2);
        assert_eq!(stats.deadline_misses, 6, "3 queries per shed batch");
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.queue_depth, 0);

        let snap = registry.snapshot();
        assert_eq!(snap.counter("admission_shed_total"), 2);
        assert_eq!(snap.counter("deadline_miss_total"), 6);
        assert_eq!(snap.counter("retry_after_total"), 1);
        assert_eq!(snap.counter("admission_enqueued_total"), 4);
        assert_eq!(snap.counter("admission_admitted_total"), 2);
        monitor.shutdown().unwrap();
    });
}

/// A deadline past the clock's range means the batch never expires:
/// neither an explicit one nor the configured default may overflow the
/// `Instant` it is added to.
#[test]
fn a_deadline_past_the_clocks_range_never_expires() {
    with_watchdog("far_deadline", WATCHDOG, || {
        let mut monitor =
            MonitorLoop::with_config(make_sim(box_mesh(4), 71), 2, LayoutPolicy::Preserve, 1)
                .unwrap();
        monitor.set_admission(AdmissionConfig {
            default_deadline: Some(Duration::MAX),
            ..AdmissionConfig::default()
        });
        for deadline in [Some(Duration::MAX), None] {
            let ticket = monitor.enqueue(0, step_queries(1), deadline).unwrap();
            let out = monitor.drain_admitted(1).unwrap();
            assert_eq!(
                out.batches.len(),
                1,
                "deadline {deadline:?}: batch answered"
            );
            assert_eq!(out.batches[0].ticket, ticket);
            assert!(out.shed.is_empty(), "deadline {deadline:?}: nothing shed");
            for b in out.batches {
                monitor.recycle(b.results);
            }
        }
        monitor.shutdown().unwrap();
    });
}
