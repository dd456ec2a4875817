//! The query-serving loop: SIMULATE ∥ MONITOR on a deforming neuron
//! mesh, on the persistent worker pool, with a cache-conscious layout.
//!
//! Drives the whole `octopus-service` stack end to end:
//!
//! 1. a [`Simulation`] (smooth random deformation + rare restructuring)
//!    runs on its own thread inside a [`MonitorLoop`]; with the
//!    (default) `hilbert` layout policy its vertices are Hilbert-sorted
//!    at ingest and re-sorted after every restructuring event (§IV-H1),
//!    and the run asserts that at least one re-layout happened mid-run;
//! 2. each iteration, the pipeline is filled up to the ring depth K
//!    and a batch of range queries is answered by the pool-backed
//!    parallel executor against the stable snapshot of the latest
//!    *completed* step — queries at step N overlap the computation of
//!    steps N+1…N+K — plus a spot-check query against the *oldest*
//!    retained step of the ring; every finished batch is recycled, so
//!    the steady-state loop spawns no threads and allocates no result
//!    buffers;
//! 3. one of the batch boxes is also registered as a *standing query*
//!    ([`MonitorLoop::subscribe`]): every step it is polled for an
//!    incremental [`octopus::service::ResultDelta`], a client-side
//!    mirror applies the deltas (translating ids across re-layouts),
//!    and the mirror is checked against a full scan of the snapshot —
//!    the run asserts that every poll rides the drift-bounded delta
//!    fast path: restructures are patched into the candidate list, so
//!    nothing after the subscribe re-crawls;
//! 4. the exact same schedule is then replayed stop-the-world
//!    (step, then query the live mesh) and every result set is checked
//!    for equality (translated through the layout permutation), so the
//!    pipelining and the re-layout provably change the timeline and
//!    the memory order, not the answers;
//! 5. the whole run is observed through one lock-free telemetry
//!    [`Registry`](octopus::telemetry::Registry): executor phase
//!    histograms, pool queue depth, engine counters, the
//!    surface grid's probe counters and reach, and the standing-query
//!    hit rate all land in a single
//!    [`TelemetrySnapshot`](octopus::telemetry::TelemetrySnapshot) —
//!    a per-step stats line and an end-of-run report are printed from
//!    it, the report assertions read the snapshot (not bespoke stats
//!    structs), and the span tracer's chrome://tracing export is
//!    round-tripped through `serde_json`.
//!
//! 6. every query batch is **admitted, not just executed**: the batches
//!    go through the bounded per-tenant admission queue
//!    ([`MonitorLoop::enqueue`] → [`MonitorLoop::drain_admitted`]), so
//!    the run exercises — and its telemetry gate asserts — the
//!    `admission_*` metric families alongside the serving ones;
//! 7. with `--inject-faults`, a deterministic
//!    [`FailPoint`](octopus_testkit::FailPoint) plan is armed: a
//!    worker-task panic (batch reissued), a delayed step, a refused
//!    step, a refused restructure (both retried), and a forced
//!    pinned-ring window — `RetryAfter` with cause `RingPinned` —
//!    (ridden out with [`octopus::service::Backoff`])
//!    — plus a supervisor drill where an injected sim-thread panic is
//!    surfaced and [`MonitorLoop::restart_simulation`] resumes from the
//!    newest snapshot. The run asserts full recovery: the equivalence
//!    check in 4. still holds bit-for-bit.
//!
//! ```bash
//! cargo run --release --example serve [-- <steps> [workers] [preserve|hilbert] [depth] [--inject-faults]]
//! ```

use octopus::mesh::MeshError;
use octopus::prelude::*;
use octopus::service::{Backoff, LayoutPolicy, RelayoutTrigger, ServiceError};
use octopus::sim::{RestructureSchedule, SmoothRandomField};
use octopus::telemetry::Registry;
use octopus_bench::workload::QueryGen;
use octopus_testkit::{box_mesh, scan_active, FailPoint};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FIELD_SEED: u64 = 0x0C70_9005;

/// The simulation restructures every this many steps.
const RESTRUCTURE_EVERY: u32 = 7;

/// Finishes the oldest in-flight step, riding out injected turbulence:
/// `RetryAfter` back-pressure is retried on the backoff
/// schedule, and an injected step refusal (`Mesh(External)`) re-begins
/// the refused step. Anything else propagates. Returns the published
/// step and counts each recovery.
fn finish_step_resilient(
    monitor: &mut MonitorLoop,
    recoveries: &mut u32,
) -> Result<u32, Box<dyn std::error::Error>> {
    let mut backoff = Backoff::new(Duration::from_millis(1), Duration::from_millis(20));
    loop {
        match monitor.finish_step() {
            Ok(step) => return Ok(step),
            Err(e) => {
                if let Some(hint) = e.retry_hint() {
                    *recoveries += 1;
                    std::thread::sleep(backoff.next_delay().max(hint));
                } else if matches!(e, ServiceError::Mesh(MeshError::External(_))) {
                    *recoveries += 1;
                    monitor.begin_step()?; // the sim did not advance: resend
                } else {
                    return Err(e.into());
                }
            }
        }
    }
}

/// The supervisor drill (`--inject-faults`): on a small side mesh, an
/// injected sim-thread panic is surfaced with its payload, retained
/// steps stay queryable, and `restart_simulation` resumes serving from
/// the newest snapshot — all reflected in `sim_failures_total` /
/// `sim_restarts_total`.
fn supervisor_drill() -> Result<(), Box<dyn std::error::Error>> {
    let registry = Registry::new();
    let sim = Simulation::new(
        box_mesh(3),
        Box::new(SmoothRandomField::new(0.01, 3, FIELD_SEED)),
    );
    let mut drill = MonitorLoop::with_config(sim, 2, LayoutPolicy::Preserve, 2)?;
    drill.attach_telemetry(&registry);
    let fp = Arc::new(FailPoint::new().panic_sim_at(2));
    drill.set_fault_hook(Arc::clone(&fp) as Arc<_>);
    drill.begin_step()?;
    drill.finish_step()?;
    drill.begin_step()?;
    let Err(ServiceError::SimulationFailed(msg)) = drill.finish_step() else {
        panic!("injected sim panic must surface as SimulationFailed");
    };
    assert!(msg.contains("injected"), "payload preserved: {msg}");
    drill.clear_fault_hook();
    // Degraded: the retained snapshot still answers.
    let held = drill.query_batch(&[Aabb::cube(Point3::splat(0.5), 0.3)]);
    assert_eq!(drill.snapshot_step(), 1);
    drill.recycle(held);
    // Restart from the newest snapshot and serve on.
    let resumed = drill.restart_simulation(|m| {
        Ok(Simulation::new(
            m.clone(),
            Box::new(SmoothRandomField::new(0.01, 3, FIELD_SEED + 1)),
        ))
    })?;
    assert_eq!(resumed, 1);
    drill.begin_step()?;
    assert_eq!(drill.finish_step()?, 2);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("sim_failures_total"), 1);
    assert_eq!(snap.counter("sim_restarts_total"), 1);
    let _ = drill.shutdown()?;
    println!(
        "  fault drill: sim panic surfaced ({} restart, payload intact), \
         retained step stayed queryable ✓",
        snap.counter("sim_restarts_total")
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let inject_faults = raw
        .iter()
        .position(|a| a == "--inject-faults")
        .map(|i| raw.remove(i))
        .is_some();
    let mut args = raw.into_iter();
    let steps: u32 = args.next().map_or(20, |s| s.parse().expect("steps"));
    let workers: usize = args
        .next()
        .map_or_else(octopus::service::default_workers, |s| {
            s.parse().expect("workers")
        });
    // §IV-H1 re-layout after every restructuring event. It waits for
    // the depth − 1 steps still in flight behind the restructure to
    // finish, so a run re-lays out mid-run once it lasts
    // `RESTRUCTURE_EVERY + depth − 1` steps (asserted below).
    let trigger = RelayoutTrigger::AfterRestructures(1);
    let policy = match args.next().as_deref() {
        None | Some("hilbert") => LayoutPolicy::Hilbert { trigger },
        Some("preserve") => LayoutPolicy::Preserve,
        Some(other) => panic!("unknown layout policy {other:?} (preserve|hilbert)"),
    };
    let depth: usize = args.next().map_or(1, |s| s.parse().expect("ring depth"));
    if inject_faults {
        assert!(
            steps >= 8,
            "--inject-faults plans faults up to step 7; run ≥ 8 steps"
        );
        supervisor_drill()?;
    }

    // A deforming, restructuring neuron arbor and a per-step query
    // schedule drawn once so both runs see identical workloads.
    let mesh = {
        let mut m = octopus::meshgen::neuron(octopus::meshgen::NeuroLevel::L2, 0.5)?;
        m.enable_restructuring()?;
        m
    };
    println!(
        "serve: {} vertices, {} cells, {steps} steps, {workers} workers, ring depth {depth}, {policy:?}",
        m_fmt(mesh.num_vertices()),
        m_fmt(mesh.num_cells())
    );
    // A *repeated* monitoring batch: the same 16 boxes are asked at
    // every step, the way a monitoring client asks. Each step's batch
    // is answered from that step's snapshot alone — grouped, probed
    // through the surface grid and crawled on shared frontiers — and
    // the stop-the-world replay below proves the answers identical.
    let mut gen = QueryGen::new(&mesh, 0xC0FFEE);
    let batch: Vec<Aabb> = gen.batch_with_selectivity(16, 0.002);
    let schedule: Vec<Vec<Aabb>> = (0..steps).map(|_| batch.clone()).collect();

    let make_sim = |mesh: Mesh| -> Result<Simulation, octopus::mesh::MeshError> {
        Simulation::new(mesh, Box::new(SmoothRandomField::new(0.008, 4, FIELD_SEED)))
            .with_restructuring(RestructureSchedule::new(RESTRUCTURE_EVERY, 3, 0xBEEF))
    };

    // ---- Overlapped (pipelined) run -------------------------------
    // Every box batch is planned by the monitor's batch engine:
    // overlap grouping + shared frontiers, every box crawled.
    let mut monitor = MonitorLoop::with_config(make_sim(mesh.clone())?, workers, policy, depth)?;
    // One lock-free registry observes every layer — executor phases,
    // pool scheduling, engine grouping, the snapshot
    // ring and the standing queries — and feeds the span tracer whose
    // chrome://tracing export is checked at the end of the run.
    let registry = Registry::new();
    monitor.attach_telemetry(&registry);
    // Admission front (the monitor's default one): every batch below is
    // enqueued for tenant 0 and drained in fair order rather than
    // executed directly, so the serving loop exercises the
    // bounded-queue path (and its metric families) even when nothing
    // sheds.
    // Standing query: the first monitoring box is also subscribed. A
    // client-side mirror applies every polled delta (translating ids
    // across re-layouts) and is checked against a full scan of each
    // snapshot, so the delta fast path is proven exact end to end.
    let sub_q = batch[0];
    let sub_id = monitor.subscribe(&sub_q);
    let mut sub_members: Vec<VertexId> = monitor
        .subscription_result(sub_id)
        .expect("live subscription")
        .to_vec();
    // The monitor's ingest → current id map over the latest snapshot
    // (the identity under `preserve`).
    let ingest_map = |monitor: &MonitorLoop| -> Vec<VertexId> {
        (0..monitor.snapshot().num_vertices() as VertexId)
            .map(|v| monitor.translate_vertex(v).expect("an id of the snapshot"))
            .collect()
    };
    let mut sub_translation = ingest_map(&monitor);
    let mut sub_relayouts = monitor.relayouts();
    let spawned_at_start = octopus::service::threads_spawned_total();
    let mut overlapped: Vec<Vec<Vec<VertexId>>> = Vec::new();
    // The id translation changes on re-layout; snapshot it per step so
    // the reference comparison uses the mapping that was in force.
    let mut translations: Vec<Vec<VertexId>> = Vec::new();
    let mut query_busy = Duration::ZERO;
    let mut ring_checks = 0usize;
    let mut recoveries = 0u32;

    // --inject-faults: first a worker-task panic on a direct batch (the
    // pool survives and the reissued batch is exact), then a standing
    // fault plan over the serving loop itself — a delayed step, a
    // refused step, a refused restructure (both retried; the sim never
    // advances on refusal, so the trajectory is unchanged) and a forced
    // two-deny pinned-ring window (`RetryAfter` with cause
    // `RingPinned`) ridden out by the backoff helper.
    let fail_point = if inject_faults {
        let wp = Arc::new(FailPoint::new().worker_panic_on_task(1));
        monitor.set_fault_hook(Arc::clone(&wp) as Arc<_>);
        let panicked =
            catch_unwind(AssertUnwindSafe(|| monitor.query_batch(&schedule[0]))).is_err();
        monitor.clear_fault_hook();
        assert!(panicked, "injected worker panic must propagate");
        assert_eq!(wp.worker_panics(), 1);
        let redo = monitor.query_batch(&schedule[0]);
        assert_eq!(redo.len(), schedule[0].len(), "pool survived the panic");
        monitor.recycle(redo);
        println!("  fault drill: worker-task panic contained, batch reissued on the same pool ✓");

        let fp = Arc::new(
            FailPoint::new()
                .delay_sim_step(2, 5)
                .fail_sim_at(3)
                .fail_restructure_at(7)
                .deny_ring_publishes(2),
        );
        monitor.set_fault_hook(Arc::clone(&fp) as Arc<_>);
        Some(fp)
    } else {
        None
    };

    let t0 = Instant::now();
    monitor.fill_pipeline()?;
    for step in 1..=steps {
        if inject_faults {
            finish_step_resilient(&mut monitor, &mut recoveries)?;
        } else {
            monitor.finish_step()?;
        }
        debug_assert_eq!(monitor.snapshot_step(), step);
        if step < steps {
            monitor.fill_pipeline()?; // steps N+1…N+K compute while we answer N
        }
        translations.push(ingest_map(&monitor));
        let tq = Instant::now();
        let ticket = monitor.enqueue(0, schedule[step as usize - 1].clone(), None)?;
        let mut drained = monitor.drain_admitted(1)?;
        assert!(drained.shed.is_empty(), "no deadlines set, nothing sheds");
        let admitted = drained.batches.pop().expect("one enqueued, one admitted");
        assert_eq!(admitted.ticket, ticket);
        assert_eq!(admitted.step, step);
        let results = admitted.results;
        query_busy += tq.elapsed();
        overlapped.push(
            results
                .iter()
                .map(|r| {
                    let mut v = r.vertices.clone();
                    v.sort_unstable();
                    v
                })
                .collect(),
        );
        // Feed the buffers back: the next batch leases instead of
        // allocating.
        monitor.recycle(results);

        // Standing-query poll. A re-layout since the last poll moved
        // every id: compose the old and new ingest translations into
        // the permutation and push the mirror through it first.
        // A restructure in the same window appended ids, which the old
        // map read as themselves.
        let after = translations.last().expect("pushed above");
        if monitor.relayouts() > sub_relayouts {
            let mut map = vec![0 as VertexId; after.len()];
            for (i, &new) in after.iter().enumerate() {
                map[sub_translation.get(i).map_or(i, |&old| old as usize)] = new;
            }
            for v in &mut sub_members {
                *v = map[*v as usize];
            }
            sub_relayouts = monitor.relayouts();
        }
        sub_translation.clone_from(after);
        for (id, delta) in monitor.poll_subscriptions() {
            assert_eq!(id, sub_id);
            sub_members.retain(|v| !delta.left.contains(v));
            sub_members.extend_from_slice(&delta.entered);
        }
        sub_members.sort_unstable();
        assert_eq!(
            sub_members,
            scan_active(monitor.snapshot(), &sub_q),
            "step {step}: standing-query mirror diverged from the snapshot scan"
        );

        // Ring spot-check: the oldest retained step must still answer
        // exactly what it answered when it was the latest (re-layouts
        // truncate the ring, so every retained step shares the current
        // id space).
        let oldest = *monitor.retained_steps().start();
        if oldest >= 1 && oldest < step {
            let first = &schedule[oldest as usize - 1][..1];
            let results = monitor.query_batch_at(oldest, first)?;
            let mut out = results[0].vertices.clone();
            out.sort_unstable();
            monitor.recycle(results);
            assert_eq!(
                out,
                overlapped[oldest as usize - 1][0],
                "ring slot for step {oldest} diverged from its original answer"
            );
            ring_checks += 1;
        }

        // Live stats line, read straight off the merged snapshot: the
        // same numbers a scrape of the Prometheus rendering would see.
        let live = monitor.telemetry_snapshot().expect("telemetry attached");
        println!(
            "  step {step:>3}: {} queries | grid reach {:.2} cells | delta path {:>3.0}% | \
             ring {}/{} | drift {:.3} | pool runs {}",
            live.counter("executor_queries_total"),
            live.gauge("surface_grid_reach"),
            100.0 * live.gauge("standing_delta_hit_rate"),
            live.gauge("ring_occupancy"),
            depth,
            live.gauge("drift_meter"),
            live.counter("pool_runs_total"),
        );
    }
    let overlapped_wall = t0.elapsed();
    if let Some(fp) = &fail_point {
        monitor.clear_fault_hook();
        assert_eq!(fp.sim_delays(), 1, "the delayed step fired");
        assert_eq!(fp.sim_failures(), 1, "the refused step fired");
        assert_eq!(
            fp.restructure_failures(),
            1,
            "the refused restructure fired"
        );
        assert_eq!(fp.ring_denials(), 2, "the pinned-ring window fired");
        assert!(
            recoveries >= 4,
            "every injected fault was recovered from ({recoveries} recoveries)"
        );
        println!(
            "  fault plan: 1 delayed step, 1 refused step, 1 refused restructure, \
             2 ring denials — {recoveries} recoveries, all exact ✓"
        );
    }
    let admission_stats = monitor.admission_stats().expect("always reported");
    let recycle_stats = monitor.recycle_stats();
    let relayouts = monitor.relayouts();
    let grid_stats = monitor.seed_cache_stats().expect("always reported");
    let engine_report = monitor.engine_report().expect("always reported");
    let sub_stats = monitor
        .subscription_stats(sub_id)
        .expect("live subscription");
    let spawned_during_run = octopus::service::threads_spawned_total() - spawned_at_start;
    // Final merged view + span export, taken while the monitor still
    // owns the registry attachments (shutdown consumes the loop).
    let telemetry = monitor
        .telemetry_snapshot()
        .expect("telemetry attached before the run");
    let trace_json = registry.tracer().chrome_trace_json();
    monitor.shutdown().ok();

    // ---- Stop-the-world reference ---------------------------------
    let mut sim = make_sim(mesh)?;
    let mut octopus = Octopus::new(sim.mesh())?;
    let mut scratch = octopus.make_scratch(sim.mesh());
    let mut reference: Vec<Vec<Vec<VertexId>>> = Vec::new();
    let mut sim_busy = Duration::ZERO;
    let t1 = Instant::now();
    for step in 1..=steps {
        let ts = Instant::now();
        let outcome = sim.step_outcome()?;
        sim_busy += ts.elapsed();
        if outcome.restructured {
            octopus = octopus.restructured(sim.mesh(), &outcome.delta);
        }
        let per_step = schedule[step as usize - 1]
            .iter()
            .map(|q| {
                let mut out = Vec::new();
                octopus.query_with(&mut scratch, sim.mesh(), q, Probe::Surface, &mut out);
                out.sort_unstable();
                out
            })
            .collect();
        reference.push(per_step);
    }
    let reference_wall = t1.elapsed();

    // ---- Equivalence + overlap report -----------------------------
    let mut total_results = 0usize;
    for (step, (a, b)) in overlapped.iter().zip(&reference).enumerate() {
        // Translate the reference ids through the layout permutation
        // that was in force at this step (identity under `preserve`).
        let b: Vec<Vec<VertexId>> = b
            .iter()
            .map(|q| {
                let t = &translations[step];
                let mut v: Vec<VertexId> = q.iter().map(|&x| t[x as usize]).collect();
                v.sort_unstable();
                v
            })
            .collect();
        assert_eq!(
            a,
            &b,
            "step {}: overlapped results diverge from stop-the-world",
            step + 1
        );
        total_results += a.iter().map(Vec::len).sum::<usize>();
    }
    let queries = steps as usize * 16;
    println!("  every result set matches the stop-the-world run ✓");
    println!(
        "  {queries} queries, {total_results} result vertices, snapshot lag ≤ {depth} step(s) \
         by design; {ring_checks} retained-step ring spot-checks passed"
    );
    println!(
        "  layout: {relayouts} restructure-triggered re-layout(s); pool: {spawned_during_run} \
         thread spawns during serving, {} of {} result buffers recycled",
        recycle_stats.reused, recycle_stats.leased
    );
    if policy != LayoutPolicy::Preserve && steps + 1 >= RESTRUCTURE_EVERY + depth as u32 {
        assert!(relayouts >= 1, "no re-layout ran mid-run");
    }
    assert_eq!(
        spawned_during_run, 0,
        "steady-state serving must not spawn threads"
    );
    // Every batch went through the admission front; with no deadlines
    // and one tenant, nothing sheds and nothing is refused.
    assert_eq!(admission_stats.enqueued, u64::from(steps));
    assert_eq!(admission_stats.admitted, u64::from(steps));
    assert_eq!(admission_stats.shed_tickets, 0);
    assert_eq!(admission_stats.rejected, 0);
    assert_eq!(admission_stats.queue_depth, 0);
    // Each denied publish came back as one `RetryAfter(RingPinned)`.
    let denials = fail_point.as_ref().map_or(0, |fp| fp.ring_denials());
    assert_eq!(admission_stats.ring_pinned, denials);
    println!(
        "  admission: {} batches enqueued → {} admitted in fair order, 0 shed, 0 refused{}",
        admission_stats.enqueued,
        admission_stats.admitted,
        if inject_faults {
            format!(
                "; {} RetryAfter back-pressure events",
                telemetry.counter("retry_after_total")
            )
        } else {
            String::new()
        }
    );
    let candidates = telemetry
        .histogram("surface_grid_candidates")
        .expect("the executor records what its grid probes visit");
    println!(
        "  surface grid: {} queries probed / {} fell back / {} rebuilds of {} installed; \
         {:.0} of {} surface ids visited per probe; \
         last batch: {} group(s), {} grouped",
        grid_stats.hits,
        grid_stats.misses,
        grid_stats.stale,
        grid_stats.insertions,
        candidates.sum as f64 / candidates.count.max(1) as f64,
        octopus.surface_len(),
        engine_report.groups,
        engine_report.grouped_queries
    );
    let (walks, walks_pruned) = (
        telemetry.counter("executor_walks_total"),
        telemetry.counter("executor_walks_pruned_total"),
    );
    println!(
        "  directed walks: {walks} ran, {walks_pruned} ruled out by the grid's component bounds"
    );
    println!(
        "  component map: {} restructures/re-layouts patched, {} searched the whole mesh",
        telemetry.counter("executor_component_patches_total"),
        telemetry.counter("executor_component_rebuilds_total")
    );
    assert!(
        walks_pruned > 0,
        "on the two-neuron mesh the grid must spare queries the walk into the other arbor"
    );
    // The registry is the source of truth: the grid gate reads the
    // snapshot, not the monitor's stats struct. Exactness of every
    // answer was asserted above, batch by batch.
    assert!(
        telemetry.counter("surface_grid_probes_total") > 0
            && telemetry.counter("surface_grid_fallbacks_total") == 0
            && candidates.count > 0,
        "every query must probe through the surface grid \
         (snapshot: {} probed, {} fell back, {} probes recorded)",
        telemetry.counter("surface_grid_probes_total"),
        telemetry.counter("surface_grid_fallbacks_total"),
        candidates.count
    );
    // The simulation thread measures each deformation step's reach
    // against the grid its command carried. A request measures it only
    // for a slot that came without one: the ingest slot, a restructure,
    // a re-layout, and a step whose grid was replaced while it was in
    // flight. A re-layout waits for a drained pipeline, so it strands
    // no step in flight; a restructure strands at most `depth − 1`, a
    // drift rebuild too. More lazy slots than that mean the hand-off
    // path stopped being taken.
    let restructures = telemetry
        .histogram("ring_restructure_ns")
        .map_or(0, |h| h.count);
    let (relayouts, rebuilds) = (
        telemetry.counter("ring_relayouts_total"),
        telemetry.counter("surface_grid_rebuilds_total"),
    );
    let reach_lazy = telemetry.counter("surface_grid_reach_lazy_total");
    let in_flight_behind = depth as u64 - 1;
    let lazy_bound =
        1 + relayouts + restructures * (1 + in_flight_behind) + rebuilds * in_flight_behind;
    println!(
        "  hand-off: {reach_lazy} slot reach(es) measured by a request, bound {lazy_bound} \
         (ingest, {restructures} restructure(s), {relayouts} re-layout(s), {rebuilds} drift \
         rebuild(s), {in_flight_behind} step(s) in flight behind each)"
    );
    assert!(
        reach_lazy <= lazy_bound,
        "requests measured {reach_lazy} slot reaches, more than the {lazy_bound} slots \
         that come without one"
    );
    let patched_events = telemetry.counter("standing_patched_events_total");
    println!(
        "  standing query: {} polls, {} on the delta path (hit rate {:.0}%), {} full \
         refresh(es), {} connectivity events patched in, {} boundary re-tests over {} tracked \
         candidates; mirror matched the snapshot scan every step ✓",
        sub_stats.polls,
        sub_stats.delta_polls,
        100.0 * sub_stats.delta_hit_rate(),
        sub_stats.full_refreshes,
        patched_events,
        sub_stats.retested,
        sub_stats.candidates
    );
    // The field displaces around its rest state, far inside the band,
    // and a restructure patches the candidate list: nothing but the
    // subscribe may have crawled, and the anchor never moved.
    assert_eq!(
        (
            sub_stats.full_refreshes,
            telemetry.counter("standing_reanchors_total")
        ),
        (1, 0),
        "the standing query re-crawled across {patched_events} restructures"
    );
    assert!(
        patched_events > 0,
        "the run's restructures never reached the subscription registry"
    );
    assert!(
        telemetry.counter("standing_delta_polls_total") > 0
            && telemetry.gauge("standing_delta_hit_rate") > 0.0,
        "the standing query never rode the delta fast path \
         (snapshot: {} delta polls of {}, rate {})",
        telemetry.counter("standing_delta_polls_total"),
        telemetry.counter("standing_polls_total"),
        telemetry.gauge("standing_delta_hit_rate")
    );
    println!(
        "  stop-the-world: {reference_wall:>8.1?} wall (sim busy {sim_busy:.1?} of it, serialized)"
    );
    println!(
        "  overlapped:     {overlapped_wall:>8.1?} wall (query threads busy {query_busy:.1?} while sim computed)"
    );
    let ideal = reference_wall.saturating_sub(sim_busy.min(query_busy));
    println!(
        "  perfect-overlap bound for this schedule ≈ {ideal:.1?} (needs ≥ 2 hardware threads)"
    );

    // ---- Telemetry report -----------------------------------------
    // Every subsystem must have published into the shared registry;
    // a missing family here is a wiring regression (this doubles as
    // the CI telemetry gate).
    for family in [
        "executor_phase_ns_",
        "executor_queries_total",
        "executor_walks_total",
        "executor_walks_pruned_total",
        "executor_component_patches_total",
        "executor_component_rebuilds_total",
        "pool_",
        "engine_",
        "surface_grid_probes_total",
        "surface_grid_fallbacks_total",
        "surface_grid_rebuilds_total",
        "surface_grid_reach_lazy_total",
        "surface_grid_reach",
        "surface_grid_bytes",
        "surface_grid_candidates",
        "ring_",
        "ring_restructure_ns",
        "ring_publish_ns",
        "standing_",
        "standing_reanchors_total",
        "standing_patched_events_total",
        "standing_candidates",
        "drift_meter",
        "monitor_steps_total",
        "admission_",
        "deadline_miss_total",
        "retry_after_total",
        "sim_restarts_total",
        "sim_step_ns",
        "sim_handoff_ns",
    ] {
        assert!(
            telemetry.has_family(family),
            "end-of-run snapshot is missing the {family:?} metric family"
        );
    }
    let phase_ns: u64 = [
        "executor_phase_ns_surface_probe",
        "executor_phase_ns_directed_walk",
        "executor_phase_ns_crawling",
    ]
    .iter()
    .filter_map(|n| telemetry.histogram(n))
    .map(|h| h.sum)
    .sum();
    assert!(
        phase_ns > 0,
        "executor phase histograms recorded no time at all"
    );
    let tasks = telemetry
        .histogram("pool_tasks_per_run")
        .expect("pool queue-depth stats must be in the snapshot");
    assert!(tasks.count > 0, "the pool never reported a batch run");
    println!(
        "  telemetry: {} series ({} counters, {} gauges, {} histograms) in one registry",
        telemetry.counters.len() + telemetry.gauges.len() + telemetry.histograms.len(),
        telemetry.counters.len(),
        telemetry.gauges.len(),
        telemetry.histograms.len()
    );
    let executor_bytes = telemetry.gauge("executor_memory_bytes");
    assert!(
        executor_bytes > 0.0,
        "the newest slot's executor publishes its footprint"
    );
    println!(
        "    executor: {} queries, {:.1}ms across phase histograms, {:.1}KiB executor footprint",
        telemetry.counter("executor_queries_total"),
        phase_ns as f64 / 1e6,
        executor_bytes / 1024.0
    );
    println!(
        "    pool: {} runs of ≤{} tasks, {} parks / {} unparks, {} steals beyond fair share",
        telemetry.counter("pool_runs_total"),
        tasks.max,
        telemetry.counter("pool_parks_total"),
        telemetry.counter("pool_unparks_total"),
        telemetry.counter("pool_steals_total")
    );
    println!(
        "    engine: {} batches, {} grouped queries, {} frontier probes saved",
        telemetry.counter("engine_batches_total"),
        telemetry.counter("engine_grouped_queries_total"),
        telemetry.counter("engine_frontier_savings_total")
    );
    let publish = telemetry
        .histogram("ring_publish_ns")
        .expect("publish cost must be in the snapshot");
    assert!(publish.count > 0, "no deformation step was published");
    let (sim_step, sim_handoff) = (
        telemetry
            .histogram("sim_step_ns")
            .expect("the simulation thread times its steps"),
        telemetry
            .histogram("sim_handoff_ns")
            .expect("the simulation thread times its hand-offs"),
    );
    assert!(
        sim_step.count > 0 && sim_handoff.count >= sim_step.count,
        "the simulation thread recorded {} steps and {} hand-offs",
        sim_step.count,
        sim_handoff.count
    );
    // Means: a step and its hand-off fall in the same power-of-two
    // bucket, where the quantiles would read the same.
    println!(
        "    sim thread: {} steps, mean {:.1}µs; {} hand-offs (step + copy + reach and drift), \
         mean {:.1}µs",
        sim_step.count,
        sim_step.sum as f64 / sim_step.count as f64 / 1e3,
        sim_handoff.count,
        sim_handoff.sum as f64 / sim_handoff.count as f64 / 1e3
    );
    println!(
        "    monitor: {} steps ({} deformation publishes, median {:.1}µs), {} re-layouts, \
         {} pin waits; grid {:.1} KiB at reach {:.2} cells, delta path {:.0}%",
        telemetry.counter("monitor_steps_total"),
        publish.count,
        publish.quantile(0.5) as f64 / 1e3,
        telemetry.counter("ring_relayouts_total"),
        telemetry.counter("ring_pin_wait_total"),
        telemetry.gauge("surface_grid_bytes") / 1024.0,
        telemetry.gauge("surface_grid_reach"),
        100.0 * telemetry.gauge("standing_delta_hit_rate")
    );

    // Both renderers must produce well-formed output: the JSON one is
    // parsed back with `serde_json` and spot-checked against the
    // snapshot's own accessors.
    let prom = telemetry.to_prometheus();
    assert!(
        prom.contains("# TYPE executor_queries_total counter")
            && prom.contains("# TYPE pool_tasks_per_run histogram"),
        "Prometheus rendering lost a metric family"
    );
    let parsed = serde_json::from_str(&telemetry.to_json()).expect("snapshot JSON must parse");
    assert_eq!(
        parsed
            .get("counters")
            .and_then(|c| c.get("executor_queries_total"))
            .and_then(serde_json::Value::as_u64),
        Some(telemetry.counter("executor_queries_total")),
        "snapshot JSON disagrees with the snapshot accessor"
    );

    // The span tracer's chrome://tracing document round-trips through
    // serde_json and retains the monitor's span taxonomy.
    let trace = serde_json::from_str(&trace_json).expect("chrome trace must be valid JSON");
    let events = trace
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .expect("chrome trace must carry a traceEvents array");
    assert!(!events.is_empty(), "the run produced no spans");
    let reparsed =
        serde_json::from_str(&serde_json::to_string(&trace)).expect("re-serialized trace parses");
    assert_eq!(reparsed, trace, "chrome trace JSON must round-trip");
    let span_names: std::collections::BTreeSet<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(serde_json::Value::as_str))
        .collect();
    for required in ["monitor.finish_step", "monitor.query_batch"] {
        assert!(
            span_names.contains(required),
            "span taxonomy is missing {required:?} (got {span_names:?})"
        );
    }
    println!(
        "    trace: {} spans across {:?}; chrome-trace JSON round-trips through serde_json ✓",
        events.len(),
        span_names
    );
    Ok(())
}

fn m_fmt(n: usize) -> String {
    if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}
