//! `fig_throughput`: query throughput (queries/sec) of the service
//! layer versus worker count, batch size, and execution mode.
//!
//! Not a paper figure — this measures the `octopus-service` subsystem.
//! The same monitoring batch is answered three ways:
//!
//! * `sequential` — the baseline: one `Octopus`, one thread;
//! * `spawn` — PR 2's `thread::scope`-per-batch executor
//!   ([`ParallelExecutor::execute_batch_spawning`]), kept as the
//!   ablation of the fixed spawn cost;
//! * `pool` — the persistent worker pool
//!   ([`ParallelExecutor::execute_batch`]) with result-buffer
//!   recycling, the serving hot path.
//!
//! A second section sweeps the **snapshot-ring depth** K ∈ {1, 2, 3}
//! of the full SIMULATE ∥ MONITOR loop (`ring` mode, one step + one
//! batch per iteration, deforming mesh) against a stop-the-world
//! replay of the same schedule (`ring_stw`) — the end-to-end number
//! the pipelining exists for. On a 1-hardware-thread container the
//! overlap cannot materialise; re-record on real cores.
//!
//! Two batch-engine sections follow: `shared`/`shared_off` run an
//! overlapping batch of 64 through the shared-frontier engine vs. the
//! independent pool executor (also reporting the deterministic
//! traversal-event counters), and `seedcache`/`seedcache_off` run a
//! repeated monitoring batch with and without the temporal seed cache
//! (reporting the surface-probe vs. cache-probe phase attribution and
//! the hit rate). The 1-hardware-thread caveat applies to every
//! parallel mode.
//!
//! A final section measures **standing queries**: the same 16 boxes
//! either re-queried from scratch every step (`standing_requery`) or
//! registered once as subscriptions and *polled* for incremental
//! deltas (`standing_poll`), reporting the fraction of polls served by
//! the drift-bounded delta fast path instead of a crawl.
//!
//! The **telemetry overhead** section re-runs the serving loop three
//! ways — no registry attached (`telemetry_none`), a *disabled*
//! registry attached (`telemetry_disabled`, the construction-time
//! toggle), and an enabled one (`telemetry_on`) — in strictly
//! alternating rounds so thermal/scheduler drift hits all three
//! equally. The recorded on-vs-none regression is the cost of full
//! instrumentation and must stay under a few percent.
//!
//! An **admission overhead** section follows the same alternating-round
//! protocol for PR 8's admission control: the identical serving loop
//! with batches answered directly (`admission_off`) vs. routed through
//! `enqueue` → `drain_admitted` (`admission_on`, bounded queue +
//! weighted-fair dequeue + deadline check, no faults injected). The
//! acceptance gate is < 3% qps regression.
//!
//! Run directly, or with `--json <path>` to record a machine-readable
//! baseline (the committed `BENCH_throughput.json`, which also carries
//! the PR 2 numbers under `baseline_pr2` for trajectory):
//!
//! ```bash
//! cargo bench -p octopus-bench --bench fig_throughput
//! cargo bench -p octopus-bench --bench fig_throughput -- --json BENCH_throughput.json
//! ```

use octopus_bench::workload::QueryGen;
use octopus_core::Octopus;
use octopus_geom::rng::SplitMix64;
use octopus_geom::{Aabb, Point3};
use octopus_mesh::Mesh;
use octopus_meshgen::{neuron, NeuroLevel};
use octopus_service::{
    AdmissionConfig, BatchEngine, BatchEngineConfig, BatchStats, LayoutPolicy, MonitorLoop,
    ParallelExecutor,
};
use octopus_sim::{Simulation, SmoothRandomField};
use octopus_telemetry::Registry;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const BATCH_SIZES: [usize; 3] = [16, 64, 256];
const SELECTIVITY: f64 = 0.001;
/// Measurement budget per configuration.
const BUDGET: Duration = Duration::from_millis(300);
/// Snapshot-ring depths swept in the SIMULATE ∥ MONITOR section.
const RING_DEPTHS: [usize; 3] = [1, 2, 3];
/// Batch size and workers of the ring sweep (the serving sweet spot).
const RING_BATCH: usize = 16;
const RING_WORKERS: usize = 2;
const RING_FIELD_SEED: u64 = 0x51A7_0ECA;

/// The PR 2 numbers (spawn-per-batch executor, 1-hardware-thread
/// container), embedded verbatim so the committed baseline keeps the
/// trajectory visible next to fresh runs.
const BASELINE_PR2: &str = r#"{
    "hardware_threads": 1,
    "note": "PR 2 spawn-per-batch executor; workers 0 = sequential",
    "entries": [
      {"workers": 0, "batch": 16, "qps": 71943, "speedup_vs_sequential": 1.000},
      {"workers": 1, "batch": 16, "qps": 67213, "speedup_vs_sequential": 0.934},
      {"workers": 2, "batch": 16, "qps": 52170, "speedup_vs_sequential": 0.725},
      {"workers": 4, "batch": 16, "qps": 47510, "speedup_vs_sequential": 0.660},
      {"workers": 8, "batch": 16, "qps": 38033, "speedup_vs_sequential": 0.529},
      {"workers": 0, "batch": 64, "qps": 50743, "speedup_vs_sequential": 1.000},
      {"workers": 1, "batch": 64, "qps": 47251, "speedup_vs_sequential": 0.931},
      {"workers": 2, "batch": 64, "qps": 44150, "speedup_vs_sequential": 0.870},
      {"workers": 4, "batch": 64, "qps": 42569, "speedup_vs_sequential": 0.839},
      {"workers": 8, "batch": 64, "qps": 34074, "speedup_vs_sequential": 0.671},
      {"workers": 0, "batch": 256, "qps": 49987, "speedup_vs_sequential": 1.000},
      {"workers": 1, "batch": 256, "qps": 48867, "speedup_vs_sequential": 0.978},
      {"workers": 2, "batch": 256, "qps": 46048, "speedup_vs_sequential": 0.921},
      {"workers": 4, "batch": 256, "qps": 47262, "speedup_vs_sequential": 0.945},
      {"workers": 8, "batch": 256, "qps": 48176, "speedup_vs_sequential": 0.964}
    ]
  }"#;

struct Entry {
    /// "sequential" | "spawn" | "pool" | "ring_stw" | "ring" |
    /// "shared_off" | "shared" | "seedcache_off" | "seedcache" |
    /// "standing_requery" | "standing_poll" | "telemetry_none" |
    /// "telemetry_disabled" | "telemetry_on" | "admission_off" |
    /// "admission_on"
    mode: &'static str,
    workers: usize, // 0 = sequential baseline
    batch: usize,
    /// Snapshot-ring depth K (`0` for the batch-executor modes and the
    /// stop-the-world ring baseline).
    depth: usize,
    qps: f64,
    speedup: f64,
}

/// Repeats `run` (one whole batch) until the budget is spent; returns
/// queries/sec.
fn measure(batch: usize, mut run: impl FnMut() -> usize) -> f64 {
    // Warm-up round, also sanity-checking that results materialise.
    assert!(run() > 0, "throughput workload returned no vertices");
    let t0 = Instant::now();
    let mut batches = 0u32;
    while t0.elapsed() < BUDGET || batches == 0 {
        std::hint::black_box(run());
        batches += 1;
    }
    f64::from(batches) * batch as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut json_path = None;
    while let Some(a) = args.next() {
        if a == "--json" {
            json_path = Some(args.next().expect("--json <path>"));
        }
    }

    let mesh: Mesh = neuron(NeuroLevel::L3, 0.6).expect("neuron");
    let octopus = Octopus::new(&mesh).expect("surface");
    let mut gen = QueryGen::new(&mesh, 0x7410_4242);
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "fig_throughput: {} vertices, selectivity {SELECTIVITY}, {hw} hardware thread(s)",
        mesh.num_vertices()
    );
    println!(
        "{:<34} {:>12} {:>9}",
        "configuration", "queries/s", "speedup"
    );

    let mut entries: Vec<Entry> = Vec::new();
    for &batch in &BATCH_SIZES {
        let queries: Vec<Aabb> = gen.batch_with_selectivity(batch, SELECTIVITY);

        // Sequential baseline: one scratch, one thread, same queries.
        let mut seq = Octopus::new(&mesh).expect("surface");
        let mut out = Vec::new();
        let seq_qps = measure(batch, || {
            let mut total = 0;
            for q in &queries {
                out.clear();
                seq.query(&mesh, q, &mut out);
                total += out.len();
            }
            total
        });
        println!(
            "{:<34} {:>12.0} {:>9}",
            format!("batch{batch}/sequential"),
            seq_qps,
            "1.00x"
        );
        entries.push(Entry {
            mode: "sequential",
            workers: 0,
            batch,
            depth: 0,
            qps: seq_qps,
            speedup: 1.0,
        });

        for &workers in &WORKER_COUNTS {
            // Spawn-per-batch ablation (PR 2 behaviour).
            let mut spawning = ParallelExecutor::new(workers);
            let spawn_qps = measure(batch, || {
                spawning
                    .execute_batch_spawning(&octopus, &mesh, &queries)
                    .iter()
                    .map(|r| r.vertices.len())
                    .sum()
            });
            println!(
                "{:<34} {:>12.0} {:>8.2}x",
                format!("batch{batch}/spawn/workers{workers}"),
                spawn_qps,
                spawn_qps / seq_qps
            );
            entries.push(Entry {
                mode: "spawn",
                workers,
                batch,
                depth: 0,
                qps: spawn_qps,
                speedup: spawn_qps / seq_qps,
            });

            // Persistent pool + buffer recycling (the serving hot path).
            let mut pool = ParallelExecutor::new(workers);
            let pool_qps = measure(batch, || {
                let results = pool.execute_batch(&octopus, &mesh, &queries);
                let total = results.iter().map(|r| r.vertices.len()).sum();
                pool.recycle(results);
                total
            });
            println!(
                "{:<34} {:>12.0} {:>8.2}x",
                format!("batch{batch}/pool/workers{workers}"),
                pool_qps,
                pool_qps / seq_qps
            );
            entries.push(Entry {
                mode: "pool",
                workers,
                batch,
                depth: 0,
                qps: pool_qps,
                speedup: pool_qps / seq_qps,
            });
        }
    }

    // ---- Snapshot-ring depth sweep: SIMULATE ∥ MONITOR end to end ----
    // One iteration = one simulation step + one batch of queries. The
    // stop-the-world baseline steps, then queries the live mesh; the
    // ring configurations overlap the batch with up to K in-flight
    // steps. Queries/sec here *includes* the simulation time — the
    // number a monitoring deployment actually sees.
    let ring_queries: Vec<Aabb> = gen.batch_with_selectivity(RING_BATCH, SELECTIVITY);
    let make_sim = |mesh: &Mesh| {
        Simulation::new(
            mesh.clone(),
            Box::new(SmoothRandomField::new(0.006, 3, RING_FIELD_SEED)),
        )
    };

    let stw_qps = {
        let mut sim = make_sim(&mesh);
        let mut stw = Octopus::new(sim.mesh()).expect("surface");
        let mut out = Vec::new();
        measure(RING_BATCH, || {
            sim.step().expect("deformation step");
            let mut total = 0;
            for q in &ring_queries {
                out.clear();
                stw.query(sim.mesh(), q, &mut out);
                total += out.len();
            }
            total
        })
    };
    println!(
        "{:<34} {:>12.0} {:>9}",
        format!("ring/stop-the-world/batch{RING_BATCH}"),
        stw_qps,
        "1.00x"
    );
    entries.push(Entry {
        mode: "ring_stw",
        workers: 0,
        batch: RING_BATCH,
        depth: 0,
        qps: stw_qps,
        speedup: 1.0,
    });

    for &depth in &RING_DEPTHS {
        let mut monitor =
            MonitorLoop::with_config(make_sim(&mesh), RING_WORKERS, LayoutPolicy::Preserve, depth)
                .expect("monitor");
        let ring_qps = measure(RING_BATCH, || {
            monitor.fill_pipeline().expect("begin steps");
            monitor.finish_step().expect("finish step");
            let results = monitor.query_batch(&ring_queries);
            let total = results.iter().map(|r| r.vertices.len()).sum();
            monitor.recycle(results);
            total
        });
        println!(
            "{:<34} {:>12.0} {:>8.2}x",
            format!("ring/depth{depth}/workers{RING_WORKERS}/batch{RING_BATCH}"),
            ring_qps,
            ring_qps / stw_qps
        );
        entries.push(Entry {
            mode: "ring",
            workers: RING_WORKERS,
            batch: RING_BATCH,
            depth,
            qps: ring_qps,
            speedup: ring_qps / stw_qps,
        });
    }

    // ---- Shared-frontier batch engine: overlapping batch of 64 -------
    // 16 cluster centres, 4 boxes per cluster shifted by ~10 % of their
    // side: heavy pairwise overlap inside each cluster. The same batch
    // runs through the plain pool executor (every query crawls its own
    // frontier) and through the batch engine (Hilbert sweep → overlap
    // groups → one shared frontier per group). Planner and seed cache
    // are off so the delta isolates frontier sharing.
    let shared_queries: Vec<Aabb> = {
        let base = gen.batch_with_selectivity(16, SELECTIVITY);
        let mut rng = SplitMix64::new(0x5AA3_ED01);
        base.iter()
            .flat_map(|q| {
                let side = q.extent().x;
                (0..4)
                    .map(|k| {
                        let shift = 0.1 * side * k as f32 + rng.range_f32(0.0, 0.02 * side);
                        Aabb::new(
                            Point3::new(q.min.x + shift, q.min.y, q.min.z),
                            Point3::new(q.max.x + shift, q.max.y, q.max.z),
                        )
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    const SHARED_WORKERS: usize = 2;
    let shared_off_qps = {
        let mut pool = ParallelExecutor::new(SHARED_WORKERS);
        measure(shared_queries.len(), || {
            let results = pool.execute_batch(&octopus, &mesh, &shared_queries);
            let total = results.iter().map(|r| r.vertices.len()).sum();
            pool.recycle(results);
            total
        })
    };
    println!(
        "{:<34} {:>12.0} {:>9}",
        format!("shared/independent/batch{}", shared_queries.len()),
        shared_off_qps,
        "1.00x"
    );
    entries.push(Entry {
        mode: "shared_off",
        workers: SHARED_WORKERS,
        batch: shared_queries.len(),
        depth: 0,
        qps: shared_off_qps,
        speedup: 1.0,
    });
    let (shared_qps, shared_report) = {
        let mut pool = ParallelExecutor::new(SHARED_WORKERS);
        let mut engine = BatchEngine::new(
            BatchEngineConfig {
                use_planner: false,
                use_seed_cache: false,
                ..BatchEngineConfig::default()
            },
            &octopus,
            &mesh,
        );
        let epoch = mesh.restructure_epoch();
        let qps = measure(shared_queries.len(), || {
            let results = engine.execute(&mut pool, &octopus, &mesh, &shared_queries, epoch, 0.0);
            let total = results.iter().map(|r| r.vertices.len()).sum();
            pool.recycle(results);
            total
        });
        (qps, *engine.report())
    };
    println!(
        "{:<34} {:>12.0} {:>8.2}x",
        format!("shared/engine/batch{}", shared_queries.len()),
        shared_qps,
        shared_qps / shared_off_qps
    );
    println!(
        "  shared-frontier work: {} distinct traversal events vs {} attributed \
         ({} of {} queries grouped)",
        shared_report.shared_visited,
        shared_report.attributed_visited,
        shared_report.grouped_queries,
        shared_report.queries
    );
    entries.push(Entry {
        mode: "shared",
        workers: SHARED_WORKERS,
        batch: shared_queries.len(),
        depth: 0,
        qps: shared_qps,
        speedup: shared_qps / shared_off_qps,
    });

    // ---- Temporal seed cache: repeated monitoring batch --------------
    // The same 16-query batch every step of a deforming simulation —
    // the monitoring workload the cache exists for. `seedcache_off`
    // re-probes the surface index each step; `seedcache` warm-starts
    // from the previous step's boundary-vertex sample.
    let cache_queries: Vec<Aabb> = gen.batch_with_selectivity(RING_BATCH, SELECTIVITY);
    let mut cache_qps = [0.0f64; 2];
    let mut cache_split: Option<(BatchStats, f64)> = None;
    for (slot, use_cache) in [(0usize, false), (1usize, true)] {
        let mut monitor =
            MonitorLoop::with_config(make_sim(&mesh), RING_WORKERS, LayoutPolicy::Preserve, 1)
                .expect("monitor");
        monitor
            .set_batch_engine(BatchEngineConfig {
                use_seed_cache: use_cache,
                use_planner: false,
                ..BatchEngineConfig::default()
            })
            .expect("engine");
        let mut agg = BatchStats::default();
        cache_qps[slot] = measure(RING_BATCH, || {
            monitor.fill_pipeline().expect("begin steps");
            monitor.finish_step().expect("finish step");
            let results = monitor.query_batch(&cache_queries);
            let total = results.iter().map(|r| r.vertices.len()).sum();
            let stats = BatchStats::aggregate(&results);
            agg.queries += stats.queries;
            agg.total_results += stats.total_results;
            agg.phases.accumulate(&stats.phases);
            monitor.recycle(results);
            total
        });
        if use_cache {
            let hit_rate = monitor.seed_cache_stats().map_or(0.0, |s| s.hit_rate());
            cache_split = Some((agg, hit_rate));
        }
    }
    println!(
        "{:<34} {:>12.0} {:>9}",
        format!("seedcache/off/batch{RING_BATCH}"),
        cache_qps[0],
        "1.00x"
    );
    entries.push(Entry {
        mode: "seedcache_off",
        workers: RING_WORKERS,
        batch: RING_BATCH,
        depth: 1,
        qps: cache_qps[0],
        speedup: 1.0,
    });
    println!(
        "{:<34} {:>12.0} {:>8.2}x",
        format!("seedcache/on/batch{RING_BATCH}"),
        cache_qps[1],
        cache_qps[1] / cache_qps[0]
    );
    if let Some((agg, hit_rate)) = cache_split {
        // The PhaseTimings split attributes seed-cache hits and
        // surface-index probes to distinct phases.
        println!(
            "  seed-phase attribution: {:?} surface probes ({} queries) vs {:?} cache probes \
             ({} cache-seeded), hit rate {:.1}%",
            agg.phases.surface_probe,
            agg.queries - agg.phases.cache_seeded,
            agg.phases.cache_probe,
            agg.phases.cache_seeded,
            100.0 * hit_rate
        );
    }
    entries.push(Entry {
        mode: "seedcache",
        workers: RING_WORKERS,
        batch: RING_BATCH,
        depth: 1,
        qps: cache_qps[1],
        speedup: cache_qps[1] / cache_qps[0],
    });

    // ---- Standing queries: poll deltas vs re-query every step --------
    // The same 16 boxes, every step of a deforming simulation. The
    // baseline answers them as a fresh batch each step; the standing
    // configuration subscribes them once and polls: while accumulated
    // drift stays inside the band, only vertices near a box boundary
    // are re-tested — no probe, no walk, no crawl.
    let standing_queries: Vec<Aabb> = gen.batch_with_selectivity(RING_BATCH, SELECTIVITY);
    let requery_qps = {
        let mut monitor =
            MonitorLoop::with_config(make_sim(&mesh), RING_WORKERS, LayoutPolicy::Preserve, 1)
                .expect("monitor");
        measure(RING_BATCH, || {
            monitor.fill_pipeline().expect("begin steps");
            monitor.finish_step().expect("finish step");
            let results = monitor.query_batch(&standing_queries);
            let total = results.iter().map(|r| r.vertices.len()).sum();
            monitor.recycle(results);
            total
        })
    };
    println!(
        "{:<34} {:>12.0} {:>9}",
        format!("standing/requery/batch{RING_BATCH}"),
        requery_qps,
        "1.00x"
    );
    entries.push(Entry {
        mode: "standing_requery",
        workers: RING_WORKERS,
        batch: RING_BATCH,
        depth: 1,
        qps: requery_qps,
        speedup: 1.0,
    });
    let (poll_qps, delta_hit_rate) = {
        let mut monitor =
            MonitorLoop::with_config(make_sim(&mesh), RING_WORKERS, LayoutPolicy::Preserve, 1)
                .expect("monitor");
        let ids: Vec<_> = standing_queries
            .iter()
            .map(|q| monitor.subscribe(q))
            .collect();
        let qps = measure(RING_BATCH, || {
            monitor.fill_pipeline().expect("begin steps");
            monitor.finish_step().expect("finish step");
            std::hint::black_box(monitor.poll_subscriptions());
            ids.iter()
                .map(|&id| monitor.subscription_result(id).map_or(0, <[_]>::len))
                .sum()
        });
        let (mut delta_polls, mut polls) = (0u64, 0u64);
        for &id in &ids {
            let s = monitor.subscription_stats(id).expect("live subscription");
            delta_polls += s.delta_polls;
            polls += s.polls;
        }
        (qps, delta_polls as f64 / polls.max(1) as f64)
    };
    println!(
        "{:<34} {:>12.0} {:>8.2}x",
        format!("standing/poll/batch{RING_BATCH}"),
        poll_qps,
        poll_qps / requery_qps
    );
    println!(
        "  standing delta-path hit rate: {:.1}% of polls",
        100.0 * delta_hit_rate
    );
    entries.push(Entry {
        mode: "standing_poll",
        workers: RING_WORKERS,
        batch: RING_BATCH,
        depth: 1,
        qps: poll_qps,
        speedup: poll_qps / requery_qps,
    });

    // ---- Telemetry overhead: instrumented vs bare serving loop -------
    // The full serving configuration (monitor + batch engine, so the
    // executor phase histograms, engine counters and seed cache all
    // record on every query) measured with no registry, a disabled
    // registry, and an enabled one. Rounds alternate 1:1:1 so ambient
    // drift cannot masquerade as instrumentation cost.
    let tele_queries: Vec<Aabb> = gen.batch_with_selectivity(RING_BATCH, SELECTIVITY);
    let disabled_registry = Registry::new(false);
    let enabled_registry = Registry::new(true);
    let mut tele_monitors: Vec<MonitorLoop> =
        [None, Some(&disabled_registry), Some(&enabled_registry)]
            .into_iter()
            .map(|registry| {
                let mut monitor = MonitorLoop::with_config(
                    make_sim(&mesh),
                    RING_WORKERS,
                    LayoutPolicy::Preserve,
                    1,
                )
                .expect("monitor");
                monitor
                    .set_batch_engine(BatchEngineConfig::default())
                    .expect("engine");
                if let Some(r) = registry {
                    monitor.attach_telemetry(r);
                }
                monitor
            })
            .collect();
    let run_serving = |monitor: &mut MonitorLoop| -> usize {
        monitor.fill_pipeline().expect("begin steps");
        monitor.finish_step().expect("finish step");
        let results = monitor.query_batch(&tele_queries);
        let total = results.iter().map(|r| r.vertices.len()).sum();
        monitor.recycle(results);
        total
    };
    for monitor in &mut tele_monitors {
        assert!(run_serving(monitor) > 0, "warm-up returned no vertices");
    }
    let mut tele_busy = [Duration::ZERO; 3];
    let mut tele_rounds = [0u32; 3];
    while tele_busy.iter().sum::<Duration>() < 3 * BUDGET || tele_rounds[0] == 0 {
        for (i, monitor) in tele_monitors.iter_mut().enumerate() {
            let t = Instant::now();
            std::hint::black_box(run_serving(monitor));
            tele_busy[i] += t.elapsed();
            tele_rounds[i] += 1;
        }
    }
    let tele_qps: Vec<f64> = (0..3)
        .map(|i| f64::from(tele_rounds[i]) * RING_BATCH as f64 / tele_busy[i].as_secs_f64())
        .collect();
    let tele_modes = ["telemetry_none", "telemetry_disabled", "telemetry_on"];
    for (i, &mode) in tele_modes.iter().enumerate() {
        println!(
            "{:<34} {:>12.0} {:>8.2}x",
            format!("{mode}/batch{RING_BATCH}"),
            tele_qps[i],
            tele_qps[i] / tele_qps[0]
        );
        entries.push(Entry {
            mode,
            workers: RING_WORKERS,
            batch: RING_BATCH,
            depth: 1,
            qps: tele_qps[i],
            speedup: tele_qps[i] / tele_qps[0],
        });
    }
    let telemetry_overhead_pct = 100.0 * (1.0 - tele_qps[2] / tele_qps[0]);
    println!(
        "  telemetry overhead: {telemetry_overhead_pct:.2}% qps regression with full \
         instrumentation ({:.2}% with the registry constructed disabled)",
        100.0 * (1.0 - tele_qps[1] / tele_qps[0])
    );

    // ---- Admission overhead: bounded-queue routing vs direct calls ---
    // Same serving loop as the telemetry section, but the batch is
    // either answered directly (`query_batch`) or routed through the
    // admission front (`enqueue` → weighted-fair `drain_admitted`) with
    // no faults injected — the steady-state cost of the bounded queue,
    // stride scheduler and deadline check. Rounds alternate 1:1.
    let adm_queries: Vec<Aabb> = gen.batch_with_selectivity(RING_BATCH, SELECTIVITY);
    let mut adm_monitors: Vec<MonitorLoop> = [false, true]
        .into_iter()
        .map(|admitted| {
            let mut monitor =
                MonitorLoop::with_config(make_sim(&mesh), RING_WORKERS, LayoutPolicy::Preserve, 1)
                    .expect("monitor");
            monitor
                .set_batch_engine(BatchEngineConfig::default())
                .expect("engine");
            if admitted {
                monitor.set_admission(AdmissionConfig::default());
            }
            monitor
        })
        .collect();
    let run_direct = |monitor: &mut MonitorLoop| -> usize {
        monitor.fill_pipeline().expect("begin steps");
        monitor.finish_step().expect("finish step");
        let results = monitor.query_batch(&adm_queries);
        let total = results.iter().map(|r| r.vertices.len()).sum();
        monitor.recycle(results);
        total
    };
    let run_admitted = |monitor: &mut MonitorLoop| -> usize {
        monitor.fill_pipeline().expect("begin steps");
        monitor.finish_step().expect("finish step");
        let ticket = monitor
            .enqueue(0, adm_queries.clone(), None)
            .expect("enqueue");
        let out = monitor.drain_admitted(1).expect("drain admitted");
        assert!(out.shed.is_empty(), "no shedding in the no-fault run");
        let batch = out.batches.into_iter().next().expect("one admitted batch");
        assert_eq!(batch.ticket, ticket);
        let total = batch.results.iter().map(|r| r.vertices.len()).sum();
        monitor.recycle(batch.results);
        total
    };
    for (i, monitor) in adm_monitors.iter_mut().enumerate() {
        let warm = if i == 0 {
            run_direct(monitor)
        } else {
            run_admitted(monitor)
        };
        assert!(warm > 0, "warm-up returned no vertices");
    }
    let mut adm_busy = [Duration::ZERO; 2];
    let mut adm_rounds = [0u32; 2];
    while adm_busy.iter().sum::<Duration>() < 2 * BUDGET || adm_rounds[0] == 0 {
        for (i, monitor) in adm_monitors.iter_mut().enumerate() {
            let t = Instant::now();
            if i == 0 {
                std::hint::black_box(run_direct(monitor));
            } else {
                std::hint::black_box(run_admitted(monitor));
            }
            adm_busy[i] += t.elapsed();
            adm_rounds[i] += 1;
        }
    }
    let adm_qps: Vec<f64> = (0..2)
        .map(|i| f64::from(adm_rounds[i]) * RING_BATCH as f64 / adm_busy[i].as_secs_f64())
        .collect();
    let adm_modes = ["admission_off", "admission_on"];
    for (i, &mode) in adm_modes.iter().enumerate() {
        println!(
            "{:<34} {:>12.0} {:>8.2}x",
            format!("{mode}/batch{RING_BATCH}"),
            adm_qps[i],
            adm_qps[i] / adm_qps[0]
        );
        entries.push(Entry {
            mode,
            workers: RING_WORKERS,
            batch: RING_BATCH,
            depth: 1,
            qps: adm_qps[i],
            speedup: adm_qps[i] / adm_qps[0],
        });
    }
    let admission_overhead_pct = 100.0 * (1.0 - adm_qps[1] / adm_qps[0]);
    println!(
        "  admission overhead: {admission_overhead_pct:.2}% qps regression with the \
         bounded-queue front enabled, no faults (acceptance gate: < 3%)"
    );

    if let Some(path) = json_path {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"bench\": \"fig_throughput\",");
        let _ = writeln!(json, "  \"hardware_threads\": {hw},");
        let _ = writeln!(json, "  \"mesh_vertices\": {},", mesh.num_vertices());
        let _ = writeln!(json, "  \"selectivity\": {SELECTIVITY},");
        let _ = writeln!(json, "  \"standing_delta_hit_rate\": {delta_hit_rate:.3},");
        let _ = writeln!(
            json,
            "  \"telemetry_overhead_pct\": {telemetry_overhead_pct:.2},"
        );
        let _ = writeln!(
            json,
            "  \"admission_overhead_pct\": {admission_overhead_pct:.2},"
        );
        let _ = writeln!(json, "  \"baseline_pr2\": {BASELINE_PR2},");
        let _ = writeln!(json, "  \"entries\": [");
        for (i, e) in entries.iter().enumerate() {
            let comma = if i + 1 == entries.len() { "" } else { "," };
            // Each mode family is normalised against its own baseline —
            // name the field accordingly so cross-mode tooling can't
            // read the wrong ratio.
            let speedup_key = if e.mode.starts_with("ring") {
                "speedup_vs_stop_the_world"
            } else if e.mode.starts_with("shared") {
                "speedup_vs_independent_pool"
            } else if e.mode.starts_with("seedcache") {
                "speedup_vs_uncached_engine"
            } else if e.mode.starts_with("standing") {
                "speedup_vs_requery"
            } else if e.mode.starts_with("telemetry") {
                "speedup_vs_uninstrumented"
            } else if e.mode.starts_with("admission") {
                "speedup_vs_unadmitted"
            } else {
                "speedup_vs_sequential"
            };
            let _ = writeln!(
                json,
                "    {{\"mode\": \"{}\", \"workers\": {}, \"batch\": {}, \"ring_depth\": {}, \"qps\": {:.0}, \"{speedup_key}\": {:.3}}}{comma}",
                e.mode, e.workers, e.batch, e.depth, e.qps, e.speedup
            );
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write json baseline");
        println!("baseline written to {path}");
    }
}
