//! The per-layer half of the traced run: numbers read off the traced
//! leg's spans and counters, and the layers' public functions timed
//! directly (a twin simulation stepped on the main thread, the pool
//! without the service around it, the layout and the scan baseline).

use crate::adapter::{
    clone_mesh, extra_lines_per_vertex, hilbert_permutation, linear_scan, positions, sim_mesh,
    sim_snapshot_into, sim_step, simulation, soa_blocks, timings_total, touch_positions, Aabb,
    CallResult, Executor, Mesh, Pool, Service,
};
use crate::estimator::median;
use crate::querygen::QueryGen;
use crate::recorder::Recorder;
use crate::workloads::{main_batch, Spec, State};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

pub type Values = BTreeMap<&'static str, f64>;

/// Rounds far from any run's, for the batches the direct timings use.
const LAYER_ROUND: u64 = 1 << 48;

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, micros(t.elapsed()))
}

/// Median time of `f`, repeated until `budget` is spent (at least once,
/// at most `max` times).
fn median_us<T>(max: usize, budget: Duration, mut f: impl FnMut() -> T) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty() || (samples.len() < max && started.elapsed() < budget) {
        let (out, us) = time(&mut f);
        black_box(out);
        samples.push(us);
    }
    median(&samples)
}

const BUDGET: Duration = Duration::from_millis(400);

/// Threads of the pool timed directly: the gated loops use one query
/// thread, so this is where the 2-thread dispatch is measured.
const POOL_THREADS: usize = 2;

/// Everything read off the traced leg: spans, per-query timings, and the
/// service's own counters.
fn from_traced_leg(spec: &Spec, svc: &Service, state: &State, traced: &Recorder, v: &mut Values) {
    let span = |name: &str| median(&svc.tracer.durations_us(name));
    let span_in =
        |name: &str, rounds: &[u64]| median(&svc.tracer.durations_in_rounds_us(name, rounds));
    v.insert("monitor.begin_step_us", span("monitor.begin_step"));
    v.insert("monitor.finish_wait_us", span("monitor.finish_step"));
    v.insert("ring.pin_query_us", span("ring.pin_query"));
    v.insert("subscribe.poll_us", span("subscribe.poll"));
    v.insert("monitor.relayouts", f64::from(svc.relayouts()));

    let l = traced
        .layers
        .as_ref()
        .expect("the traced leg collects layer counts");
    let q = l.queries as f64;
    v.insert("core.surface_probe_us", ratio(micros(l.surface_probe), q));
    v.insert("core.cache_probe_us", ratio(micros(l.cache_probe), q));
    v.insert("core.directed_walk_us", ratio(micros(l.directed_walk), q));
    v.insert("core.crawl_us", ratio(micros(l.crawl), q));
    v.insert("core.linear_scan_us", ratio(micros(l.linear_scan), q));
    v.insert("core.start_vertices", ratio(l.start_vertices as f64, q));
    v.insert("core.walk_visited", ratio(l.walk_visited as f64, q));
    v.insert("core.crawl_visited", ratio(l.crawl_visited as f64, q));
    v.insert("core.results", ratio(l.results as f64, q));
    v.insert(
        "core.visited_per_result",
        ratio(l.crawl_visited as f64, l.results as f64),
    );
    if spec.engine {
        // The calls that hand a batch to the engine.
        let mut calls = svc.tracer.durations_us("admission.drain_admitted");
        calls.extend(svc.tracer.durations_us("monitor.query_batch_at"));
        v.insert("engine.execute_us", median(&calls));
    }
    let eq = l.engine_queries as f64;
    v.insert("engine.grouped_share", ratio(l.engine_grouped as f64, eq));
    v.insert("engine.scan_routed_share", ratio(l.engine_scan as f64, eq));
    v.insert(
        "engine.shared_visit_ratio",
        ratio(
            l.engine_shared_visited as f64,
            l.engine_attributed_visited as f64,
        ),
    );
    v.insert(
        "subscribe.refresh_poll_us",
        span_in("subscribe.poll", &l.refresh_rounds),
    );
    v.insert(
        "monitor.restructure_publish_us",
        span_in("monitor.finish_step", &l.restructure_rounds),
    );
    v.insert(
        "monitor.relayout_us",
        span_in("monitor.finish_step", &l.relayout_rounds),
    );

    if let Some(a) = svc.admission_stats() {
        v.insert("admission.rejected", a.rejected as f64);
        v.insert("admission.shed", a.shed_tickets as f64);
    }
    let r = svc.recycle_stats();
    v.insert(
        "recycle.reuse_rate",
        ratio(r.reused as f64, r.leased as f64),
    );
    if let Some(c) = svc.seed_cache_stats() {
        v.insert(
            "seed_cache.hit_rate",
            ratio(c.hits as f64, (c.hits + c.misses) as f64),
        );
        v.insert("seed_cache.stale", c.stale as f64);
    }
    let (mut polls, mut delta_polls, mut retested) = (0u64, 0u64, 0u64);
    for (id, _) in &state.subs {
        if let Some(s) = svc.subscription_stats(*id) {
            polls += s.polls;
            delta_polls += s.delta_polls;
            retested += s.retested;
        }
    }
    v.insert(
        "subscribe.delta_hit_rate",
        ratio(delta_polls as f64, polls as f64),
    );
    v.insert(
        "subscribe.retested_per_poll",
        ratio(retested as f64, polls as f64),
    );
}

/// `sim`: a twin `Simulation` of the same seed stepped on the main
/// thread; `core.restructured_us` rides along because only the twin
/// hands out a restructuring step's surface delta.
fn sim_layer(spec: &Spec, seed: u64, mesh: &Mesh, v: &mut Values) -> CallResult<()> {
    let mut twin = simulation(
        clone_mesh(mesh),
        spec.amplitude,
        1,
        seed,
        spec.restructuring,
    )?;
    let mut exec = match spec.restructuring {
        Some(_) => Some(Executor::build(sim_mesh(&twin))?),
        None => None,
    };
    let (mut deform, mut restructure, mut derive) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    for _ in 0..12 {
        let (step, us) = time(|| sim_step(&mut twin));
        let step = step?;
        if step.restructured {
            restructure.push(us);
            if let Some(e) = &exec {
                let (next, us) = time(|| e.restructured(sim_mesh(&twin), &step.delta));
                derive.push(us);
                exec = Some(next);
            }
        } else {
            deform.push(us);
        }
        if started.elapsed() > 2 * BUDGET && !deform.is_empty() {
            break;
        }
    }
    v.insert("sim.step_us", median(&deform));
    v.insert("sim.restructure_step_us", median(&restructure));
    v.insert("core.restructured_us", median(&derive));
    let mut buf = Vec::new();
    v.insert(
        "sim.snapshot_us",
        median_us(5, BUDGET, || sim_snapshot_into(&twin, &mut buf)),
    );
    Ok(())
}

/// `mesh`, `core` build, `core::layout` and `index`, on the service's
/// latest snapshot.
fn snapshot_layers(
    spec: &Spec,
    gen: &QueryGen,
    state: &State,
    svc: &Service,
    traced: &Recorder,
    v: &mut Values,
) -> CallResult<()> {
    let snapshot = svc.snapshot();
    v.insert(
        "mesh.clone_us",
        median_us(3, BUDGET, || clone_mesh(snapshot)),
    );
    let mut copy = clone_mesh(snapshot);
    let mut rebuilds = Vec::new();
    for _ in 0..5 {
        touch_positions(&mut copy);
        rebuilds.push(time(|| soa_blocks(&copy)).1);
    }
    v.insert("mesh.soa_rebuild_us", median(&rebuilds));

    let (exec, build_us) = time(|| Executor::build(snapshot));
    let exec = exec?;
    v.insert("core.build_us", build_us);
    v.insert(
        "core.index_mem_mb",
        exec.memory_bytes() as f64 / (1 << 20) as f64,
    );

    // The pool without the service around it, on two threads.
    let mut pool = Pool::new(POOL_THREADS);
    let (mut walls, mut overheads, mut efficiencies) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..12 {
        let boxes = main_batch(spec, gen, state, LAYER_ROUND + i, 0);
        let (results, wall) = time(|| pool.execute_batch(&exec, snapshot, &boxes));
        let cpu: Duration = results.iter().map(|r| timings_total(&r.timings)).sum();
        let workers = POOL_THREADS.min(boxes.len()).max(1) as f64;
        pool.recycle(results);
        // The first batch allocates the workers' scratch.
        if i > 0 {
            walls.push(wall);
            overheads.push(wall - micros(cpu) / workers);
            efficiencies.push(ratio(micros(cpu), workers * wall));
        }
    }
    v.insert("pool.execute_batch_us", median(&walls));
    v.insert("pool.dispatch_overhead_us", median(&overheads));
    v.insert("pool.parallel_efficiency", median(&efficiencies));

    v.insert(
        "layout.permutation_us",
        median_us(3, BUDGET, || hilbert_permutation(snapshot)),
    );
    v.insert(
        "layout.extra_lines_per_vertex",
        extra_lines_per_vertex(snapshot),
    );

    let boxes = main_batch(spec, gen, state, LAYER_ROUND + 100, 0);
    let mut out = Vec::new();
    let scans: Vec<f64> = boxes
        .iter()
        .take(12)
        .map(|q| {
            out.clear();
            time(|| linear_scan(q, positions(snapshot), &mut out)).1
        })
        .collect();
    let scan_us = median(&scans);
    v.insert("index.linear_scan_us", scan_us);
    let l = traced
        .layers
        .as_ref()
        .expect("the traced leg collects layer counts");
    let query_us = ratio(micros(l.query_time), l.queries as f64);
    v.insert("index.speedup_vs_scan", ratio(scan_us, query_us));
    Ok(())
}

/// `monitor.publish_us` and `admission.overhead_us`, on the live
/// service after its loop.
fn service_layers(svc: &mut Service, box_: Aabb, v: &mut Values) -> CallResult<()> {
    // Tracing stays on, but these calls belong to no round.
    svc.tracer.set_round(u64::MAX);
    if svc.step_in_flight() {
        svc.finish_step()?;
    }
    let mut trips = Vec::new();
    for _ in 0..12 {
        let (done, us) = time(|| {
            svc.begin_step()?;
            svc.finish_step()
        });
        done?;
        trips.push(us);
    }
    // Lockstep round trip minus the step itself: hand-off, copy, publish.
    v.insert("monitor.publish_us", median(&trips) - v["sim.step_us"]);

    // One fixed box on an unchanging snapshot costs the same on either
    // path (a seed-cache hit on both after the first), so the difference
    // is the admission front's own work.
    let batch = vec![box_];
    let (mut admitted, mut direct) = (Vec::new(), Vec::new());
    for i in 0..41 {
        let (outcome, us) = time(|| {
            svc.enqueue(batch.clone())?;
            svc.drain_admitted(1)
        });
        for b in outcome?.batches {
            svc.recycle(b.results);
        }
        let (results, direct_us) = time(|| svc.query_batch(&batch));
        svc.recycle(results);
        if i > 0 {
            admitted.push(us);
            direct.push(direct_us);
        }
    }
    v.insert("admission.overhead_us", median(&admitted) - median(&direct));
    Ok(())
}

pub fn measure(
    spec: &Spec,
    seed: u64,
    mesh: &Mesh,
    gen: &QueryGen,
    svc: &mut Service,
    state: &mut State,
    traced: &Recorder,
) -> CallResult<Values> {
    let mut v = Values::new();
    from_traced_leg(spec, svc, state, traced, &mut v);
    sim_layer(spec, seed, mesh, &mut v)?;
    snapshot_layers(spec, gen, state, svc, traced, &mut v)?;
    let one_box = main_batch(spec, gen, state, LAYER_ROUND + 200, 0)[0];
    service_layers(svc, one_box, &mut v)?;
    Ok(v)
}
