//! Service-layer telemetry: the registry handle bundles every serving
//! subsystem records into, plus [`ServiceTelemetry`] — the one object
//! the monitor wires through pool, batch executor, engine and
//! subscription registry when telemetry is attached.
//!
//! The bundles deduplicate the previously hand-rolled stats plumbing:
//! the surface grid's counters ([`SeedCacheStats`]), the standing-query
//! [`crate::SubscriptionStats`] and the pool spawn counter all publish
//! through the same `octopus-telemetry` counter/gauge/histogram types,
//! so consumers read one [`octopus_telemetry::TelemetrySnapshot`]
//! instead of threading three bespoke structs.

use std::sync::Arc;

use octopus_core::ExecutorMetrics;
use octopus_telemetry::{ratio, Counter, Gauge, Histogram, Registry, Tracer};

use crate::admission::AdmissionStats;
use crate::pool::threads_spawned_total;
use crate::subscribe::{SubscriptionRegistry, SubscriptionStats};

/// The surface grid's counters, under the names the repository
/// benchmark's adapter reads them by — a shim kept until a benchmark
/// change renames it (the temporal seed cache these fields were named
/// for is gone; the grid answers the fresh boxes it never could).
#[derive(Clone, Copy, Debug, Default)]
pub struct SeedCacheStats {
    /// Box and shape queries probed through the surface grid.
    pub hits: u64,
    /// Box and shape queries that fell back to the full surface probe
    /// (no finite reach bounded their snapshot).
    pub misses: u64,
    /// Grid rebuilds: the newest snapshot's reach had outgrown one cell.
    pub stale: u64,
    /// Grids installed, whether built (set-up, re-layout, drift
    /// rebuild) or patched (a restructure).
    pub insertions: u64,
    /// Always zero: a grid is replaced, never trimmed.
    pub evictions: u64,
}

impl SeedCacheStats {
    /// Fraction of queries probed through the grid (0 when none ran).
    pub fn hit_rate(&self) -> f64 {
        hit_rate(self.hits, self.hits + self.misses)
    }
}

/// Worker-pool metrics: submission shape and worker lifecycle.
#[derive(Clone)]
pub struct PoolMetrics {
    /// `pool_runs_total` — task submissions ([`crate::WorkerPool::run`]
    /// calls with at least one task).
    pub(crate) runs: Counter,
    /// `pool_tasks_per_run` — tasks per submission.
    pub(crate) tasks_per_run: Histogram,
    /// `pool_queue_depth` — tasks dealt to worker queues by the latest
    /// submission (excludes the caller's inline task).
    pub(crate) queue_depth: Gauge,
    /// `pool_parks_total` — workers going idle (empty queue → blocking
    /// receive).
    pub(crate) parks: Counter,
    /// `pool_unparks_total` — workers woken by a new job.
    pub(crate) unparks: Counter,
    /// `pool_steals_total` — work items executed beyond a worker's fair
    /// share of its batch (the work-stealing cursor's imbalance
    /// absorption).
    pub(crate) steals: Counter,
    /// `pool_threads_spawned_total` mirror gauge (see
    /// [`crate::threads_spawned_total`]).
    pub(crate) threads_spawned: Gauge,
}

impl PoolMetrics {
    /// Register the pool metric family on `registry`.
    pub fn register(registry: &Registry) -> PoolMetrics {
        PoolMetrics {
            runs: registry.counter("pool_runs_total"),
            tasks_per_run: registry.histogram("pool_tasks_per_run"),
            queue_depth: registry.gauge("pool_queue_depth"),
            parks: registry.counter("pool_parks_total"),
            unparks: registry.counter("pool_unparks_total"),
            steals: registry.counter("pool_steals_total"),
            threads_spawned: registry.gauge("pool_threads_spawned_total"),
        }
    }

    /// Record the imbalance a work-stealing loop absorbed: `taken[w]`
    /// work items per worker against an equal-share baseline.
    pub(crate) fn record_steals(
        &self,
        taken: impl Iterator<Item = usize>,
        items: usize,
        workers: usize,
    ) {
        if items == 0 || workers == 0 {
            return;
        }
        let fair = items.div_ceil(workers);
        let stolen: usize = taken.map(|t| t.saturating_sub(fair)).sum();
        self.steals.add(stolen as u64);
    }
}

/// Batch-engine metrics: grouping, routing, shared-frontier savings
/// and planner mis-routes.
#[derive(Clone)]
pub struct EngineMetrics {
    /// `engine_batches_total`.
    pub(crate) batches: Counter,
    /// `engine_group_size` — members per overlap group.
    pub(crate) group_size: Histogram,
    /// `engine_grouped_queries_total` / `engine_scan_queries_total` —
    /// per-route query counts.
    pub(crate) grouped_queries: Counter,
    pub(crate) scan_queries: Counter,
    /// `engine_shared_visited_total` / `engine_attributed_visited_total`
    /// / `engine_frontier_savings_total` — shared-frontier accounting
    /// (savings = attributed − shared).
    pub(crate) shared_visited: Counter,
    pub(crate) attributed_visited: Counter,
    pub(crate) frontier_savings: Counter,
    /// `planner_decisions_octopus_total` / `planner_decisions_scan_total`
    /// — Eq.-6 routing decisions.
    pub(crate) planner_octopus: Counter,
    pub(crate) planner_scan: Counter,
    /// `planner_misroutes_total` — decisions whose *measured*
    /// selectivity fell on the other side of the crossover than the
    /// estimate (the decision-vs-actual-winner counter).
    pub(crate) planner_misroutes: Counter,
}

impl EngineMetrics {
    /// Register the engine metric family on `registry`.
    pub fn register(registry: &Registry) -> EngineMetrics {
        EngineMetrics {
            batches: registry.counter("engine_batches_total"),
            group_size: registry.histogram("engine_group_size"),
            grouped_queries: registry.counter("engine_grouped_queries_total"),
            scan_queries: registry.counter("engine_scan_queries_total"),
            shared_visited: registry.counter("engine_shared_visited_total"),
            attributed_visited: registry.counter("engine_attributed_visited_total"),
            frontier_savings: registry.counter("engine_frontier_savings_total"),
            planner_octopus: registry.counter("planner_decisions_octopus_total"),
            planner_scan: registry.counter("planner_decisions_scan_total"),
            planner_misroutes: registry.counter("planner_misroutes_total"),
        }
    }
}

/// Admission-layer metrics: queue pressure, fairness outcomes and
/// back-pressure conversions (see [`crate::MonitorLoop::set_admission`]),
/// mirrored from [`AdmissionStats`] — the front counts nothing twice.
#[derive(Clone)]
pub(crate) struct AdmissionMetrics {
    /// `admission_enqueued_total` — batches accepted into a queue.
    pub(crate) enqueued: Counter,
    /// `admission_admitted_total` — batches handed to the pool by the
    /// fair dequeue.
    pub(crate) admitted: Counter,
    /// `admission_shed_total` — batches dropped by deadline shedding
    /// before reaching the pool.
    pub(crate) shed: Counter,
    /// `deadline_miss_total` — individual queries inside shed batches.
    pub(crate) deadline_misses: Counter,
    /// `retry_after_total` — `RetryAfter` errors surfaced to callers
    /// (full queues and ring back-pressure conversions).
    pub(crate) retry_after: Counter,
    /// `admission_queue_depth` gauge — batches currently queued across
    /// all tenants.
    pub(crate) queue_depth: Gauge,
    /// Cumulative [`AdmissionStats`] already published.
    synced: AdmissionStats,
}

impl AdmissionMetrics {
    /// Register the admission metric family on `registry`.
    fn register(registry: &Registry) -> AdmissionMetrics {
        AdmissionMetrics {
            enqueued: registry.counter("admission_enqueued_total"),
            admitted: registry.counter("admission_admitted_total"),
            shed: registry.counter("admission_shed_total"),
            deadline_misses: registry.counter("deadline_miss_total"),
            retry_after: registry.counter("retry_after_total"),
            queue_depth: registry.gauge("admission_queue_depth"),
            synced: AdmissionStats::default(),
        }
    }

    /// Publish the admission front's cumulative counters (delta advance,
    /// like [`MonitorMetrics::sync_grid`]) and set its depth gauge.
    pub(crate) fn sync(&mut self, stats: &AdmissionStats) {
        let was = self.synced;
        self.enqueued.add(stats.enqueued - was.enqueued);
        self.admitted.add(stats.admitted - was.admitted);
        self.shed.add(stats.shed_tickets - was.shed_tickets);
        self.deadline_misses
            .add(stats.deadline_misses - was.deadline_misses);
        self.retry_after
            .add(stats.rejected - was.rejected + stats.ring_pinned - was.ring_pinned);
        self.queue_depth.set_u64(stats.queue_depth as u64);
        self.synced = *stats;
    }

    /// Restart the baseline for a replacement front, whose counters
    /// start from zero: the registry's keep rising.
    pub(crate) fn rebase(&mut self) {
        self.synced = AdmissionStats::default();
    }
}

/// Monitor-loop metrics: snapshot ring, re-layouts, surface grid, drift
/// gauges and the standing-query delta path.
#[derive(Clone)]
pub struct MonitorMetrics {
    /// `monitor_steps_total` — simulation steps absorbed.
    pub(crate) steps: Counter,
    /// `ring_occupancy` / `ring_in_flight` gauges — retained snapshot
    /// slots and monitor-visible (published, un-reclaimed) snapshots.
    pub(crate) ring_occupancy: Gauge,
    pub(crate) ring_in_flight: Gauge,
    /// `ring_pin_wait_total` — steps refused with `RetryAfter` for a
    /// pinned ring (pinned snapshots exerting back-pressure on the
    /// simulator).
    pub(crate) pin_waits: Counter,
    /// `ring_relayouts_total` + `ring_relayout_ns` — layout-policy
    /// re-permutations and their durations.
    pub(crate) relayouts: Counter,
    pub(crate) relayout_ns: Histogram,
    /// `ring_restructure_ns` — time to absorb a restructured update:
    /// derive the slot executor by delta replay and publish the slot
    /// (what a connectivity event costs the serving side).
    pub(crate) restructure_ns: Histogram,
    /// `ring_publish_ns` — time to absorb a deformation update, from
    /// update received to slot pushed: the buffer hand-over, plus a grid
    /// rebuild when the measured reach outgrew a cell, plus the
    /// standing queries' drift pass only when the simulation thread
    /// measured against an anchor that has moved since (what a step
    /// costs the serving side).
    pub(crate) publish_ns: Histogram,
    /// `surface_grid_{probes,fallbacks,rebuilds}_total` — queries probed
    /// through the surface grid, queries that fell back to the full
    /// surface probe, and drift-triggered grid rebuilds.
    pub(crate) grid_probes: Counter,
    pub(crate) grid_fallbacks: Counter,
    pub(crate) grid_rebuilds: Counter,
    /// `surface_grid_reach_lazy_total` — slots whose reach a request had
    /// to measure because none came with the slot: the ingest slot,
    /// restructures, re-layouts, and deformation steps whose grid was
    /// replaced while they were in flight.
    pub(crate) grid_reach_lazy: Counter,
    /// `surface_grid_reach` gauge — the newest snapshot's reach in cell
    /// edges (what the probes dilate by; a rebuild fires above 1), once
    /// known — and `surface_grid_bytes`, the newest grid's heap bytes.
    pub(crate) grid_reach: Gauge,
    pub(crate) grid_bytes: Gauge,
    /// `drift_meter` gauge — largest distance of any vertex from the
    /// standing-query anchor (0 without subscriptions).
    pub(crate) drift_meter: Gauge,
    /// `standing_subscriptions` gauge + `standing_*_total` counters —
    /// the standing-query registry's poll accounting.
    pub(crate) subscriptions: Gauge,
    pub(crate) polls: Counter,
    pub(crate) delta_polls: Counter,
    pub(crate) full_refreshes: Counter,
    pub(crate) retested: Counter,
    /// `standing_reanchors_total` — rebuilds that moved the anchor — and
    /// `standing_patched_events_total` — connectivity events patched
    /// into the candidate lists instead of re-crawled.
    pub(crate) reanchors: Counter,
    pub(crate) patched_events: Counter,
    /// `standing_candidates` gauge — candidates retained across all
    /// subscriptions (what the bands cost in memory: 12 B each).
    pub(crate) candidates: Gauge,
    /// `standing_delta_hit_rate` gauge — fraction of polls served by
    /// the delta fast path (the first-class gauge `serve` asserts on).
    pub(crate) delta_hit_rate: Gauge,
    /// `sim_failures_total` — simulation-thread deaths observed by the
    /// supervisor (panic payloads surfaced as
    /// [`crate::ServiceError::SimulationFailed`]).
    pub(crate) sim_failures: Counter,
    /// `sim_restarts_total` — successful
    /// [`crate::MonitorLoop::restart_simulation`] calls.
    pub(crate) sim_restarts: Counter,
    /// Cumulative [`SubscriptionStats`] already published.
    synced: SubscriptionStats,
    /// Registry-wide re-anchors and patched events already published.
    synced_reanchors: u64,
    synced_patched_events: u64,
    /// Cumulative grid counters already published.
    synced_grid: SeedCacheStats,
    synced_reach_lazy: u64,
}

impl MonitorMetrics {
    /// Register the monitor metric family on `registry`.
    pub fn register(registry: &Registry) -> MonitorMetrics {
        MonitorMetrics {
            steps: registry.counter("monitor_steps_total"),
            ring_occupancy: registry.gauge("ring_occupancy"),
            ring_in_flight: registry.gauge("ring_in_flight"),
            pin_waits: registry.counter("ring_pin_wait_total"),
            relayouts: registry.counter("ring_relayouts_total"),
            relayout_ns: registry.histogram("ring_relayout_ns"),
            restructure_ns: registry.histogram("ring_restructure_ns"),
            publish_ns: registry.histogram("ring_publish_ns"),
            grid_probes: registry.counter("surface_grid_probes_total"),
            grid_fallbacks: registry.counter("surface_grid_fallbacks_total"),
            grid_rebuilds: registry.counter("surface_grid_rebuilds_total"),
            grid_reach_lazy: registry.counter("surface_grid_reach_lazy_total"),
            grid_reach: registry.gauge("surface_grid_reach"),
            grid_bytes: registry.gauge("surface_grid_bytes"),
            drift_meter: registry.gauge("drift_meter"),
            subscriptions: registry.gauge("standing_subscriptions"),
            polls: registry.counter("standing_polls_total"),
            delta_polls: registry.counter("standing_delta_polls_total"),
            full_refreshes: registry.counter("standing_full_refreshes_total"),
            retested: registry.counter("standing_retested_total"),
            reanchors: registry.counter("standing_reanchors_total"),
            patched_events: registry.counter("standing_patched_events_total"),
            candidates: registry.gauge("standing_candidates"),
            delta_hit_rate: registry.gauge("standing_delta_hit_rate"),
            sim_failures: registry.counter("sim_failures_total"),
            sim_restarts: registry.counter("sim_restarts_total"),
            synced: SubscriptionStats::default(),
            synced_reanchors: 0,
            synced_patched_events: 0,
            synced_grid: SeedCacheStats::default(),
            synced_reach_lazy: 0,
        }
    }

    /// Publish the surface grid's cumulative counters and the count of
    /// lazily measured reaches: registry counters advance by the delta
    /// since the last sync.
    pub(crate) fn sync_grid(&mut self, stats: &SeedCacheStats, reach_lazy: u64) {
        self.grid_probes.add(stats.hits - self.synced_grid.hits);
        self.grid_fallbacks
            .add(stats.misses - self.synced_grid.misses);
        self.grid_rebuilds.add(stats.stale - self.synced_grid.stale);
        self.synced_grid = *stats;
        self.grid_reach_lazy
            .add(reach_lazy - self.synced_reach_lazy);
        self.synced_reach_lazy = reach_lazy;
    }

    /// Publish the subscription registry's cumulative counters (delta
    /// advance, like [`MonitorMetrics::sync_grid`]) and refresh its
    /// gauges.
    pub(crate) fn sync_subscriptions(&mut self, subs: &SubscriptionRegistry) {
        let stats = subs.total_stats();
        self.polls.add(stats.polls - self.synced.polls);
        self.delta_polls
            .add(stats.delta_polls - self.synced.delta_polls);
        self.full_refreshes
            .add(stats.full_refreshes - self.synced.full_refreshes);
        self.retested.add(stats.retested - self.synced.retested);
        self.synced = stats;
        self.reanchors.add(subs.reanchors() - self.synced_reanchors);
        self.synced_reanchors = subs.reanchors();
        self.patched_events
            .add(subs.patched_events() - self.synced_patched_events);
        self.synced_patched_events = subs.patched_events();
        self.subscriptions.set_u64(subs.len() as u64);
        self.candidates.set_u64(stats.candidates as u64);
        self.drift_meter.set(f64::from(subs.drift()));
        self.delta_hit_rate.set(stats.delta_hit_rate());
    }
}

/// Simulation-thread metrics, recorded on that thread (the monitor
/// shares them with it through a cell set at attach; see
/// [`crate::MonitorLoop::attach_telemetry`]).
#[derive(Clone)]
pub(crate) struct SimMetrics {
    /// `sim_step_ns` — the simulation's own step (`step_outcome`), as
    /// the simulation thread runs it beside the queries.
    pub(crate) step_ns: Histogram,
    /// `sim_handoff_ns` — from a step command received to its update
    /// sent: the step, the position copy and the hand-off measurements
    /// (grid reach, standing-query drift).
    pub(crate) handoff_ns: Histogram,
}

impl SimMetrics {
    fn register(registry: &Registry) -> SimMetrics {
        SimMetrics {
            step_ns: registry.histogram("sim_step_ns"),
            handoff_ns: registry.histogram("sim_handoff_ns"),
        }
    }
}

/// Everything the service layer records, bundled: built once from a
/// [`Registry`] and fanned out to the pool, the batch executor, the
/// engine and the monitor (see [`crate::MonitorLoop::attach_telemetry`]).
#[derive(Clone)]
pub struct ServiceTelemetry {
    registry: Registry,
    /// The executor-side bundle, shared by every ring generation.
    pub(crate) executor: Arc<ExecutorMetrics>,
    /// Pool submission/lifecycle metrics.
    pub(crate) pool: PoolMetrics,
    /// Engine grouping/routing metrics.
    pub(crate) engine: EngineMetrics,
    /// Ring/drift/standing-query metrics.
    pub(crate) monitor: MonitorMetrics,
    /// Admission queue/shedding/back-pressure metrics.
    pub(crate) admission: AdmissionMetrics,
    /// Step and hand-off timings of the simulation thread.
    pub(crate) sim: SimMetrics,
    /// The registry's span tracer.
    pub(crate) tracer: Tracer,
}

impl ServiceTelemetry {
    /// Register every service metric family on `registry`.
    pub fn register(registry: &Registry) -> ServiceTelemetry {
        ServiceTelemetry {
            registry: registry.clone(),
            executor: ExecutorMetrics::register(registry),
            pool: PoolMetrics::register(registry),
            engine: EngineMetrics::register(registry),
            monitor: MonitorMetrics::register(registry),
            admission: AdmissionMetrics::register(registry),
            sim: SimMetrics::register(registry),
            tracer: registry.tracer(),
        }
    }

    /// The registry this bundle records into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Refresh process-level mirror gauges (currently the spawn
    /// counter) and take a merged snapshot.
    pub fn snapshot(&self) -> octopus_telemetry::TelemetrySnapshot {
        self.pool
            .threads_spawned
            .set_u64(threads_spawned_total() as u64);
        self.registry.snapshot()
    }
}

/// Shared hit-rate definition for the stats structs (one formula
/// behind `SeedCacheStats::hit_rate` and
/// `SubscriptionStats::delta_hit_rate`).
pub(crate) fn hit_rate(hits: u64, total: u64) -> f64 {
    ratio(hits, total)
}

impl std::fmt::Debug for PoolMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolMetrics").finish_non_exhaustive()
    }
}

impl std::fmt::Debug for EngineMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineMetrics").finish_non_exhaustive()
    }
}

impl std::fmt::Debug for MonitorMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorMetrics").finish_non_exhaustive()
    }
}

impl std::fmt::Debug for ServiceTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceTelemetry").finish_non_exhaustive()
    }
}
