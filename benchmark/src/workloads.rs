//! The four workloads: how each service is set up and what one round of
//! its closed loop does. One client (the calling thread) issues the next
//! request when the previous one completes.

use crate::adapter::{
    simulation, Aabb, CallResult, Layout, Mesh, Service, SubscriptionId, VertexId,
};
use crate::querygen::QueryGen;
use crate::recorder::{Recorder, Verify};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    MonitorDeform,
    AnalysisBurst,
    StandingRepeat,
    RestructureChurn,
}

/// Everything that tells one workload from another.
#[derive(Clone, Debug)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// Neuron detail level and resolution scale of the input mesh.
    pub level: u8,
    pub scale: f32,
    /// Query threads of the service: 1 everywhere. On this 2-vCPU box
    /// two query threads busy at once make every timing bimodal
    /// (identical code and seed read 0.30 or 0.39 `queries_per_ref`
    /// from one process to the next, see README), so the 2-thread pool
    /// is measured by the traced run's per-layer metrics instead.
    pub threads: usize,
    pub layout: Layout,
    pub ring_depth: usize,
    pub engine: bool,
    /// `SmoothRandomField(amplitude, 1 mode)`.
    pub amplitude: f32,
    /// `RestructureSchedule::new(period, ops, seed)`.
    pub restructuring: Option<(u32, usize)>,
    pub subscriptions: usize,
    /// Rounds per estimator window.
    pub window_rounds: u64,
    /// How many times set-up is built and timed in the timed run.
    pub setups: usize,
    /// The timed run checks one query of every this-many requests
    /// against the scan (a scan of L4 costs about a fifth of a
    /// monitor-deform request, hence the rationing).
    pub verify_every: u64,
}

/// Selectivities (share of the vertices a box holds).
const DEFORM_SEL: (f64, f64) = (0.0011, 0.0016); // the paper's Fig. 5 A
const BURST_SEL: (f64, f64) = (0.003, 0.01);
const STANDING_SEL: f64 = 0.002;
const CHURN_SEL: (f64, f64) = (0.004, 0.008);

/// Round numbers outside any run, for set-up's fixed batches.
const STANDING_ROUND: u64 = u64::MAX;
const WARMUP_ROUND: u64 = u64::MAX - 1;

pub fn spec(name: &str, quick: bool) -> Option<Spec> {
    let mut s = match name {
        "monitor-deform" => Spec {
            kind: Kind::MonitorDeform,
            name: "monitor-deform",
            level: 4,
            scale: 1.0,
            threads: 1,
            layout: Layout::Preserve,
            ring_depth: 1,
            engine: false,
            amplitude: 0.006,
            restructuring: None,
            subscriptions: 0,
            window_rounds: 50,
            setups: 5,
            verify_every: 8,
        },
        "analysis-burst" => Spec {
            kind: Kind::AnalysisBurst,
            name: "analysis-burst",
            level: 5,
            scale: 1.0,
            threads: 1,
            layout: Layout::Hilbert,
            ring_depth: 1,
            engine: true,
            amplitude: 0.006,
            restructuring: None,
            subscriptions: 0,
            window_rounds: 4,
            setups: 3,
            verify_every: 1,
        },
        "standing-repeat" => Spec {
            kind: Kind::StandingRepeat,
            name: "standing-repeat",
            level: 4,
            scale: 1.0,
            threads: 1,
            layout: Layout::Preserve,
            ring_depth: 1,
            engine: true,
            // Tuned so that the drift band (8 typical edges) is used up
            // every 8–12 polls: the refresh is then safely above the
            // p95 cut.
            amplitude: 0.011,
            restructuring: None,
            subscriptions: 16,
            window_rounds: 50,
            setups: 5,
            verify_every: 8,
        },
        "restructure-churn" => Spec {
            kind: Kind::RestructureChurn,
            name: "restructure-churn",
            level: 3,
            scale: 0.8,
            threads: 1,
            layout: Layout::HilbertAfterRestructures(32),
            ring_depth: 2,
            engine: true,
            amplitude: 0.006,
            // Every 5th step, not every 4th: with period 4 exactly half
            // the requests are plain and p50 sits on the cliff between
            // two latency modes (31 % spread between identical runs).
            restructuring: Some((5, 3)),
            subscriptions: 4,
            window_rounds: 10,
            setups: 5,
            verify_every: 4,
        },
        _ => return None,
    };
    if quick {
        // The smoke test: same code paths, toy sizes.
        s.level = 1;
        s.scale = 0.6;
        s.window_rounds = s.window_rounds.min(4);
        s.setups = 2;
        if let Layout::HilbertAfterRestructures(_) = s.layout {
            s.layout = Layout::HilbertAfterRestructures(2);
        }
    }
    Some(s)
}

/// What a workload keeps between rounds, beside the service.
pub struct State {
    /// Standing queries and their boxes, in registration order.
    pub subs: Vec<(SubscriptionId, Aabb)>,
    /// The batch `standing-repeat` re-issues every round.
    pub repeated: Vec<Aabb>,
}

/// The boxes a run keeps for its whole length: a function of the seed,
/// made with the other inputs (their exact calibration counts every
/// vertex some twenty times per box, which must not be billed to set-up).
pub struct Standing {
    pub subscriptions: Vec<Aabb>,
    pub repeated: Vec<Aabb>,
}

pub fn standing(spec: &Spec, gen: &QueryGen) -> Standing {
    let exact = |stream: u64, n: usize| {
        let mut rng = gen.rng(STANDING_ROUND, stream);
        (0..n)
            .map(|_| gen.exact_cube(&mut rng, STANDING_SEL))
            .collect()
    };
    Standing {
        subscriptions: exact(0, spec.subscriptions),
        repeated: match spec.kind {
            Kind::StandingRepeat => exact(1, 16),
            _ => Vec::new(),
        },
    }
}

/// Set-up: generated mesh in memory → service ready. Everything here is
/// `setup_s`.
pub fn setup(
    spec: &Spec,
    mesh: Mesh,
    gen: &QueryGen,
    standing: &Standing,
    seed: u64,
) -> CallResult<(Service, State)> {
    let sim = simulation(mesh, spec.amplitude, 1, seed, spec.restructuring)?;
    let mut svc = Service::start(sim, spec.threads, spec.layout, spec.ring_depth)?;
    if spec.engine {
        svc.set_batch_engine()?;
    }
    svc.set_admission();
    let subs = standing
        .subscriptions
        .iter()
        .map(|q| (svc.subscribe(q), *q))
        .collect();
    let mut state = State {
        subs,
        repeated: standing.repeated.clone(),
    };
    // One warm-up round, so that lazy work (pool start, scratch
    // allocation, the first SoA rebuild) is paid here and not in the
    // first window.
    let mut warm = Recorder::new(Verify::Nothing, false);
    warm.open_window();
    round(spec, &mut svc, &mut state, gen, &mut warm, WARMUP_ROUND);
    match warm.first_failure {
        Some(f) => Err(format!("warm-up round failed: {f}")),
        None => Ok((svc, state)),
    }
}

/// The main batch of one request of the workload's loop.
pub fn main_batch(
    spec: &Spec,
    gen: &QueryGen,
    state: &State,
    round: u64,
    request: u64,
) -> Vec<Aabb> {
    match spec.kind {
        Kind::MonitorDeform => gen.fresh_batch(round, request, 16, DEFORM_SEL),
        Kind::AnalysisBurst => gen.burst(round, request, 32, 4, 0.1, BURST_SEL),
        Kind::StandingRepeat => state.repeated.clone(),
        Kind::RestructureChurn => gen.fresh_batch(round, request, 32, CHURN_SEL),
    }
}

/// One lockstep simulation step: started and awaited back to back.
fn lockstep(svc: &mut Service, rec: &mut Recorder) {
    rec.step_attempted();
    let span = svc.tracer.enter("round.step");
    let stepped = rec.timed(|| {
        svc.begin_step()?;
        svc.finish_step()
    });
    svc.tracer.exit(span);
    if let Err(e) = stepped {
        rec.fail("step", &e);
    }
}

/// One request: a calibration slice, then `body` on the request's
/// latency clock; `body` returns the queries it answered.
fn request(
    svc: &mut Service,
    rec: &mut Recorder,
    body: impl FnOnce(&mut Service, &mut Recorder) -> usize,
) {
    rec.open_request();
    let span = svc.tracer.enter("round.request");
    let answered = body(svc, rec);
    svc.tracer.exit(span);
    rec.close_request(answered);
}

/// One batch through the admission front: `enqueue` → `drain_admitted`
/// → (untimed: checksum, oracle) → `recycle`. Returns queries answered.
fn admitted_batch(
    svc: &mut Service,
    rec: &mut Recorder,
    round: u64,
    request: u64,
    boxes: Vec<Aabb>,
) -> usize {
    let check = boxes.clone();
    let drained = rec.timed(|| {
        svc.enqueue(boxes)?;
        svc.drain_admitted(1)
    });
    let outcome = match drained {
        Ok(o) => o,
        Err(e) => {
            rec.fail("admission", &e);
            return 0;
        }
    };
    for shed in &outcome.shed {
        rec.fail("shed", &format!("ticket of {} queries", shed.queries));
    }
    if outcome.batches.len() != 1 {
        rec.fail(
            "drain",
            &format!("{} batches for one ticket", outcome.batches.len()),
        );
    }
    let mut answered = 0;
    for batch in outcome.batches {
        rec.check_batch(round, request, svc.snapshot(), &check, &batch.results);
        note_engine(svc, rec);
        answered += batch.results.len();
        rec.timed(|| svc.recycle(batch.results));
    }
    answered
}

/// Traced leg only: what the engine did with the batch just executed.
fn note_engine(svc: &Service, rec: &mut Recorder) {
    let (Some(l), Some(r)) = (&mut rec.layers, svc.engine_report()) else {
        return;
    };
    l.engine_queries += r.queries as u64;
    l.engine_grouped += r.grouped_queries as u64;
    l.engine_scan += r.scan_queries as u64;
    l.engine_shared_visited += r.shared_visited as u64;
    l.engine_attributed_visited += r.attributed_visited as u64;
}

fn total_refreshes(svc: &Service, state: &State) -> u64 {
    state
        .subs
        .iter()
        .filter_map(|(id, _)| svc.subscription_stats(*id))
        .map(|s| s.full_refreshes)
        .sum()
}

/// `poll_subscriptions()` → (untimed: checksum, oracle). Returns
/// standing queries answered.
fn poll(svc: &mut Service, state: &State, rec: &mut Recorder, round: u64, request: u64) -> usize {
    // Traced leg only: a poll in which the counter moves is a refresh.
    let refreshes_before = rec.layers.is_some().then(|| total_refreshes(svc, state));
    let deltas = rec.timed(|| svc.poll_subscriptions());
    let sizes: Vec<(usize, usize)> = deltas
        .iter()
        .map(|(_, d)| (d.entered.len(), d.left.len()))
        .collect();
    let boxes: Vec<Aabb> = state.subs.iter().map(|(_, q)| *q).collect();
    let members: Vec<&[VertexId]> = state
        .subs
        .iter()
        .filter_map(|(id, _)| svc.subscription_result(*id))
        .collect();
    rec.check_poll(round, request, svc.snapshot(), &boxes, &sizes, &members);
    if let (Some(l), Some(before)) = (&mut rec.layers, refreshes_before) {
        if total_refreshes(svc, state) > before {
            l.refresh_rounds.push(round);
        }
    }
    deltas.len()
}

/// One round of the workload's loop.
pub fn round(
    spec: &Spec,
    svc: &mut Service,
    state: &mut State,
    gen: &QueryGen,
    rec: &mut Recorder,
    round: u64,
) {
    svc.tracer.set_round(round);
    match spec.kind {
        Kind::MonitorDeform => {
            // Overlapped: publish step N, start N+1, and answer the
            // request against N while N+1 computes.
            let boxes = main_batch(spec, gen, state, round, 0);
            rec.step_attempted();
            let span = svc.tracer.enter("round.step");
            let stepped = rec.timed(|| {
                if svc.step_in_flight() {
                    svc.finish_step()?;
                }
                svc.begin_step()
            });
            svc.tracer.exit(span);
            if let Err(e) = stepped {
                rec.fail("step", &e);
            }
            request(svc, rec, |svc, rec| {
                admitted_batch(svc, rec, round, 0, boxes)
            });
        }
        Kind::AnalysisBurst => {
            lockstep(svc, rec);
            for r in 0..4 {
                let boxes = main_batch(spec, gen, state, round, r);
                request(svc, rec, |svc, rec| {
                    admitted_batch(svc, rec, round, r, boxes)
                });
            }
        }
        Kind::StandingRepeat => {
            lockstep(svc, rec);
            let boxes = main_batch(spec, gen, state, round, 1);
            request(svc, rec, |svc, rec| {
                poll(svc, state, rec, round, 0) + admitted_batch(svc, rec, round, 1, boxes)
            });
        }
        Kind::RestructureChurn => {
            let relayouts_before = svc.relayouts();
            lockstep(svc, rec);
            if let Some(l) = &mut rec.layers {
                let (period, _) = spec.restructuring.expect("churn restructures");
                if svc.relayouts() > relayouts_before {
                    l.relayout_rounds.push(round);
                } else if svc.snapshot_step().is_multiple_of(period) {
                    l.restructure_rounds.push(round);
                }
            }
            let fresh = main_batch(spec, gen, state, round, 0);
            let old = gen.fresh_batch(round, 1, 8, CHURN_SEL);
            request(svc, rec, |svc, rec| {
                admitted_batch(svc, rec, round, 0, fresh)
                    + pinned_batch(svc, rec, round, 1, &old)
                    + poll(svc, state, rec, round, 2)
            });
        }
    }
}

/// `pin_step` / `query_batch_at(oldest retained)` / `unpin_step`: a
/// reader holding an old snapshot while the ring moves on.
fn pinned_batch(
    svc: &mut Service,
    rec: &mut Recorder,
    round: u64,
    request: u64,
    boxes: &[Aabb],
) -> usize {
    let step = svc.oldest_retained_step();
    let span = svc.tracer.enter("ring.pin_query");
    let queried = rec.timed(|| {
        svc.pin_step(step)?;
        let results = svc.query_batch_at(step, boxes);
        svc.unpin_step(step)?;
        results
    });
    svc.tracer.exit(span);
    match queried {
        Err(e) => {
            rec.fail("pinned query", &e);
            0
        }
        Ok(results) => {
            match svc.snapshot_at(step) {
                Ok(mesh) => rec.check_batch(round, request, mesh, boxes, &results),
                Err(e) => rec.fail("snapshot_at", &e),
            }
            note_engine(svc, rec);
            let answered = results.len();
            rec.timed(|| svc.recycle(results));
            answered
        }
    }
}
