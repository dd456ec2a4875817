//! The two kinds of run: the timed run (end-to-end metrics, tracing off)
//! and the traced run (a timed leg and a traced leg of the same rounds,
//! then the layers' public functions timed directly).

use crate::adapter::{
    clone_mesh, neuron_mesh, positions, surface_vertices, CallResult, Mesh, Service,
};
use crate::calib::Kernel;
use crate::estimator::{estimate, median, paired_overhead_pct, Estimate};
use crate::layers;
use crate::os;
use crate::querygen::QueryGen;
use crate::recorder::{Recorder, Verify};
use crate::table::{END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::workloads::{round, setup, standing, Spec, Standing, State};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// When a measured loop ends (checked at window boundaries, after the
/// discarded warm-up window).
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After this much wall time of the loop, calibration included.
    Wall(Duration),
    /// After this much time on the window clock.
    Busy(Duration),
    /// After exactly this many kept windows.
    Windows(usize),
}

/// The inputs of a run: a function of the workload and the seed only.
pub struct Inputs {
    pub mesh: Mesh,
    pub gen: QueryGen,
    pub standing: Standing,
}

pub fn inputs(spec: &Spec, seed: u64) -> CallResult<Inputs> {
    let mesh = neuron_mesh(spec.level, spec.scale)?;
    let gen = QueryGen::new(positions(&mesh), &surface_vertices(&mesh)?, seed);
    let standing = standing(spec, &gen);
    Ok(Inputs {
        mesh,
        gen,
        standing,
    })
}

/// Runs the workload's loop: one discarded warm-up window, then windows
/// of `spec.window_rounds` rounds until `stop`.
pub fn run_loop(
    spec: &Spec,
    svc: &mut Service,
    state: &mut State,
    gen: &QueryGen,
    stop: Stop,
    mut rec: Recorder,
) -> Recorder {
    let started = Instant::now();
    let mut next_round = 0u64;
    let mut warm = true;
    loop {
        rec.open_window();
        for _ in 0..spec.window_rounds {
            round(spec, svc, state, gen, &mut rec, next_round);
            next_round += 1;
        }
        rec.close_window(!warm);
        warm = false;
        let done = match stop {
            Stop::Wall(d) => started.elapsed() >= d,
            Stop::Busy(d) => {
                let busy: f64 = rec.windows.iter().map(|w| w.busy_ns).sum();
                busy >= d.as_nanos() as f64
            }
            Stop::Windows(n) => rec.windows.len() >= n,
        };
        // A dead service fails every operation at once: stop rather
        // than spin through the remaining time.
        if (done && !rec.windows.is_empty()) || rec.failed > 1000 {
            return rec;
        }
    }
}

/// What a run prints: human-readable lines first, then the contract's
/// JSON object as the last line.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit) of every metric of the run's kind, in table
    /// order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra readings for people and for `aa` (`info <key> <value>`).
    pub info: Vec<(String, String)>,
}

impl Report {
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.info {
            out += &format!("info {k} {v}\n");
        }
        for (name, value, unit) in &self.metrics {
            out += &format!("metric {name} {value} {unit}\n");
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        out += &format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        );
        out
    }
}

fn common_info(
    info: &mut Vec<(String, String)>,
    spec: &Spec,
    seed: u64,
    rec: &Recorder,
    e: &Estimate,
) {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    for (k, v) in [
        ("workload", spec.name.to_string()),
        ("seed", seed.to_string()),
        ("hardware_threads", threads.to_string()),
        ("windows", e.windows.to_string()),
        ("requests", e.requests.to_string()),
        ("queries", e.queries.to_string()),
        ("queries_verified", rec.queries_verified.to_string()),
        ("gap_vertices", rec.gap_vertices.to_string()),
        ("checksum", format!("{:016x}", rec.checksum)),
        ("calib.ref_us", e.ref_us.to_string()),
        ("calib.spread_pct", e.ref_spread_pct.to_string()),
        ("raw.qps", e.raw_qps.to_string()),
        ("raw.lat_p50_us", e.raw_lat_p50_us.to_string()),
        ("raw.lat_p95_us", e.raw_lat_p95_us.to_string()),
    ] {
        info.push((k.to_string(), v));
    }
    if let Some(f) = &rec.first_failure {
        info.push(("first_failure".to_string(), f.replace('\n', " ")));
    }
}

/// Slice time of the box this benchmark was written on when its host is
/// quiet. `setup_s` is reported in seconds *at that speed*: the time
/// measured, scaled by this over the slice time measured around the
/// set-up. Raw seconds follow the host's mood (0.6 to 1.0 of its best
/// rate for minutes on end), which no bound up to 0.25 survives.
const QUIET_REF_S: f64 = 25e-6;

/// Calibration slices before and after each set-up.
const SETUP_SLICES: usize = 16;

/// The timed run: set-up built `spec.setups` times (median reported),
/// then the measured loop for `seconds`, tracing off.
pub fn run_timed(spec: &Spec, seed: u64, seconds: f64) -> CallResult<Report> {
    let Inputs {
        mesh,
        gen,
        standing,
    } = inputs(spec, seed)?;
    // Peak RSS of the service: the mark is reset once the inputs exist,
    // and read after the first set-up and the measured loop. The other
    // set-ups are built afterwards, so that what the allocator keeps of
    // them cannot reach `mem_mb`.
    let hwm_reset = os::reset_peak_rss();
    let mut kernel = Kernel::new();
    let mut setup_raw_s = Vec::new();
    let mut timed_setup = || {
        let input = clone_mesh(&mesh);
        let mut slices = Vec::new();
        let mut calibrate = |slices: &mut Vec<f64>| {
            slices.extend((0..SETUP_SLICES).map(|_| kernel.slice().as_secs_f64()));
        };
        calibrate(&mut slices);
        let t = Instant::now();
        let built = setup(spec, input, &gen, &standing, seed)?;
        let took = t.elapsed().as_secs_f64();
        calibrate(&mut slices);
        setup_raw_s.push(took);
        Ok::<_, String>((built, took * QUIET_REF_S / median(&slices)))
    };
    let ((mut svc, mut state), first) = timed_setup()?;
    let mut setup_s = vec![first];
    let rec = Recorder::new(Verify::Sample(spec.verify_every), false);
    let rec = run_loop(
        spec,
        &mut svc,
        &mut state,
        &gen,
        Stop::Wall(Duration::from_secs_f64(seconds)),
        rec,
    );
    let e = estimate(&rec.windows, &rec.latencies);
    let (mem_mb, mem_source) = match os::peak_rss_mib() {
        Some(peak) if hwm_reset => (peak, "VmHWM after clear_refs"),
        _ => (rec.rss_max_mib, "max VmRSS at window boundaries"),
    };
    drop(svc);
    for _ in 1..spec.setups {
        setup_s.push(timed_setup()?.1);
    }
    let values: BTreeMap<&str, f64> = [
        ("queries_per_ref", e.queries_per_ref),
        ("lat_p50_refs", e.lat_p50_refs),
        ("lat_p95_refs", e.lat_p95_refs),
        ("cpu_refs_per_query", e.cpu_refs_per_query),
        ("mem_mb", mem_mb),
        ("setup_s", median(&setup_s)),
    ]
    .into_iter()
    .collect();
    let mut info = Vec::new();
    common_info(&mut info, spec, seed, &rec, &e);
    info.push(("mem_source".to_string(), mem_source.to_string()));
    let listed = |v: &[f64]| {
        let items: Vec<String> = v.iter().map(|s| format!("{s:.4}")).collect();
        items.join(",")
    };
    info.push(("setup_s_all".to_string(), listed(&setup_s)));
    info.push(("setup_raw_s_all".to_string(), listed(&setup_raw_s)));
    Ok(Report {
        correct: rec.failed == 0 && rec.queries_verified > 0,
        attempted: rec.attempted.max(1),
        failed: rec.failed,
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name, values[m.name], m.unit))
            .collect(),
        info,
    })
}

/// Share of `seconds` each leg of the traced run spends on the window
/// clock: 0.4 rather than the issue's ¼, because `trace.overhead_pct`
/// compares the two legs and a quarter left it ±6 % of noise on the
/// workload with the fewest windows.
const TRACED_LEG_SHARE: f64 = 0.4;

/// The traced run: a timed leg, then a traced leg of the same rounds on
/// a fresh service of the same seed — every query of both compared with
/// the scan, checksums compared with each other — then the layers'
/// public functions timed directly. Writes
/// `benchmark/out/trace-<workload>.json`.
pub fn run_traced(spec: &Spec, seed: u64, seconds: f64, out_dir: &str) -> CallResult<Report> {
    let Inputs {
        mesh,
        gen,
        standing,
    } = inputs(spec, seed)?;
    let leg = Duration::from_secs_f64(seconds * TRACED_LEG_SHARE);

    let (mut svc, mut state) = setup(spec, clone_mesh(&mesh), &gen, &standing, seed)?;
    let timed = run_loop(
        spec,
        &mut svc,
        &mut state,
        &gen,
        Stop::Busy(leg),
        Recorder::new(Verify::Every, false),
    );
    drop(svc);

    let (mut svc, mut state) = setup(spec, clone_mesh(&mesh), &gen, &standing, seed)?;
    svc.tracer = Tracer::new(true);
    let traced = run_loop(
        spec,
        &mut svc,
        &mut state,
        &gen,
        Stop::Windows(timed.windows.len()),
        Recorder::new(Verify::Every, true),
    );

    let e_timed = estimate(&timed.windows, &timed.latencies);
    let e_traced = estimate(&traced.windows, &traced.latencies);
    let checksum_equal = timed.checksum == traced.checksum;
    let mut values = layers::measure(spec, seed, &mesh, &gen, &mut svc, &mut state, &traced)?;
    values.extend([
        ("calib.ref_us", e_timed.ref_us),
        ("calib.spread_pct", e_timed.ref_spread_pct),
        ("raw.qps", e_timed.raw_qps),
        ("raw.lat_p50_us", e_timed.raw_lat_p50_us),
        ("raw.lat_p95_us", e_timed.raw_lat_p95_us),
        (
            "trace.overhead_pct",
            paired_overhead_pct(&e_timed, &e_traced),
        ),
        ("trace.spans", svc.tracer.spans().len() as f64),
        ("trace.requests", e_traced.requests as f64),
        ("trace.queries_verified", traced.queries_verified as f64),
        ("trace.gap_vertices", traced.gap_vertices as f64),
        ("trace.checksum_equal", f64::from(u8::from(checksum_equal))),
    ]);

    std::fs::create_dir_all(out_dir).map_err(|e| format!("{out_dir}: {e}"))?;
    let path = format!("{out_dir}/trace-{}.json", spec.name);
    std::fs::write(&path, svc.tracer.to_json(spec.name, seed))
        .map_err(|e| format!("{path}: {e}"))?;

    let mut info = Vec::new();
    common_info(&mut info, spec, seed, &timed, &e_timed);
    for (k, v) in [
        ("trace_file", path),
        ("traced_checksum", format!("{:016x}", traced.checksum)),
    ] {
        info.push((k.to_string(), v));
    }
    if let Some(f) = &traced.first_failure {
        info.push(("first_failure_traced".to_string(), f.replace('\n', " ")));
    }
    let failed = timed.failed + traced.failed + u64::from(!checksum_equal);
    Ok(Report {
        correct: failed == 0 && traced.queries_verified > 0,
        attempted: (timed.attempted + traced.attempted).max(1),
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect(),
        info,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::spec;

    /// A leg of `windows` windows on toy inputs, every query verified.
    fn leg(workload: &str, seed: u64, windows: usize) -> Recorder {
        let spec = spec(workload, true).unwrap();
        let Inputs {
            mesh,
            gen,
            standing,
        } = inputs(&spec, seed).unwrap();
        let (mut svc, mut state) = setup(&spec, mesh, &gen, &standing, seed).unwrap();
        run_loop(
            &spec,
            &mut svc,
            &mut state,
            &gen,
            Stop::Windows(windows),
            Recorder::new(Verify::Every, false),
        )
    }

    #[test]
    fn same_seed_same_checksum_whatever_the_timing() {
        for w in &crate::table::WORKLOADS {
            let (a, b) = (leg(w.name, 5, 3), leg(w.name, 5, 3));
            assert_eq!(a.failed, 0, "{}: {:?}", w.name, a.first_failure);
            assert!(a.queries_verified > 0);
            assert_eq!(a.checksum, b.checksum, "{}", w.name);
            assert_eq!(a.attempted, b.attempted);
            assert_ne!(a.checksum, leg(w.name, 6, 3).checksum, "{}", w.name);
            // A longer leg folds more rounds on top of the same prefix.
            assert_ne!(a.checksum, leg(w.name, 5, 4).checksum, "{}", w.name);
        }
    }

    #[test]
    fn wall_stop_keeps_at_least_one_window() {
        let spec = spec("monitor-deform", true).unwrap();
        let Inputs {
            mesh,
            gen,
            standing,
        } = inputs(&spec, 1).unwrap();
        let (mut svc, mut state) = setup(&spec, mesh, &gen, &standing, 1).unwrap();
        let rec = run_loop(
            &spec,
            &mut svc,
            &mut state,
            &gen,
            Stop::Wall(Duration::ZERO),
            Recorder::new(Verify::Sample(2), false),
        );
        assert_eq!(rec.windows.len(), 1);
        assert_eq!(rec.latencies.len() as u64, spec.window_rounds);
    }
}
