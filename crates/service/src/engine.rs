//! The batch query engine: locality-scheduled overlap groups, shared
//! frontiers, temporal seed caching, and per-group planner routing.
//!
//! The engine owns what only it knows — how to *plan* a batch and what
//! to *absorb* from its execution — around the one plan runner
//! ([`crate::ParallelExecutor`]'s fan-out, shared with the engine-less
//! path):
//!
//! 1. **Plan.** The batch is sorted by the Hilbert key of each query's
//!    centroid ([`octopus_geom::hilbert::hilbert_center_key`]) and swept
//!    once in key order: a query joins the current *overlap group*
//!    while it intersects the group's union box (and the group is under
//!    the [`octopus_core::MAX_GROUP`] mask width); otherwise it starts a
//!    new group. When enabled, a [`octopus_core::Planner`] (refreshed
//!    against the snapshot's restructure epoch) decides each query via
//!    Eq. 6, and `LinearScan` members are split off into a **shared
//!    scan** group — per-group routing instead of one global mode. The
//!    seed cache validates each crawl group's entries: all valid → the
//!    group probes its cached candidates, otherwise it probes the
//!    surface and collects refills (see [`crate::seed_cache`]).
//! 2. **Run.** Groups execute in parallel over the worker pool, stolen
//!    in curve order. A crawl group is one
//!    [`octopus_core::Octopus::query_group`] call: the sequential crawl
//!    for a singleton, for k ≥ 2 one surface probe over the union box
//!    and one BFS with a per-vertex membership bitmask, results
//!    demultiplexed per query — a vertex inside k overlapping queries is
//!    visited once, not k times. A scan group is one pass over the
//!    positions, testing every member.
//! 3. **Absorb.** Refills go into the seed cache, the batch's
//!    [`EngineReport`] is drawn up, and the attached telemetry records
//!    grouping, routing, sharing and planner mis-routes.
//!
//! Every path returns, per query, exactly what the sequential
//! [`octopus_core::Octopus::query`] returns — the batch-engine property
//! suite asserts this against random meshes, restructuring steps,
//! mid-run re-layouts and ring depths 1 and 3.

use crate::batch::{Group, ParallelExecutor, Plan, ProbePlan, QueryResult, Route};
use crate::seed_cache::{self, SeedCache, SeedCacheStats};
use crate::snapshot::Snapshot;
use crate::telemetry::EngineMetrics;
use octopus_core::{CostModel, Decision, Octopus, Planner, Strategy, MAX_GROUP};
use octopus_geom::hilbert::hilbert_center_key;
use octopus_geom::{Aabb, VertexId};
use octopus_mesh::Mesh;

/// Histogram resolution of the planner's selectivity estimator.
const PLANNER_HIST_RES: usize = 8;
/// Maximum retained seed-cache entries.
const CACHE_CAPACITY: usize = 4096;

/// Configuration of the [`BatchEngine`]: the two switches the engine
/// suites flip to make routing deterministic.
#[derive(Clone, Copy, Debug)]
pub struct BatchEngineConfig {
    /// Route groups through the Eq.-6 planner (shared linear scan for
    /// `LinearScan` decisions).
    pub use_planner: bool,
    /// Warm-start repeated/drifted queries from the temporal seed cache.
    pub use_seed_cache: bool,
}

impl Default for BatchEngineConfig {
    fn default() -> BatchEngineConfig {
        BatchEngineConfig {
            use_planner: true,
            use_seed_cache: true,
        }
    }
}

/// What the engine did with the last executed batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineReport {
    /// Queries in the batch.
    pub queries: usize,
    /// Overlap groups formed (including singletons).
    pub groups: usize,
    /// Queries that ran inside a shared-frontier group (group size ≥ 2).
    pub grouped_queries: usize,
    /// Queries routed to the shared linear scan by the planner.
    pub scan_queries: usize,
    /// Distinct traversal events of the shared crawls (each costing one
    /// neighbour-list scan or one boundary position load).
    pub shared_visited: usize,
    /// The same work as per-query attribution — what k independent
    /// crawls would have paid. `shared_visited < attributed_visited`
    /// is the measured saving.
    pub attributed_visited: usize,
    /// Queries seeded from the temporal seed cache this batch.
    pub cache_seeded: usize,
}

/// The batch query engine (see the module docs). One engine serves one
/// monitored dataset; [`crate::MonitorLoop::set_batch_engine`] wires it
/// into the monitor's request path, and it can be driven standalone
/// against any [`Snapshot`] via [`BatchEngine::execute`].
#[derive(Debug)]
pub struct BatchEngine {
    planner: Option<Planner>,
    cache: Option<SeedCache>,
    /// Hilbert quantisation frame for the scheduler's sort keys (the
    /// at-ingest bounds; only key consistency matters).
    key_bounds: Aabb,
    report: EngineReport,
    /// Registry handles, attached via [`BatchEngine::attach_metrics`].
    telemetry: Option<EngineMetrics>,
}

impl BatchEngine {
    /// Builds an engine for `mesh` and the executor `octopus` serving
    /// it (planner histogram + seed-cache margin are derived from the
    /// mesh's current state; the planner's S comes from the executor's
    /// maintained surface index, so attaching an engine extracts
    /// nothing).
    pub fn new(cfg: BatchEngineConfig, octopus: &Octopus, mesh: &Mesh) -> BatchEngine {
        let bounds = mesh.bounding_box();
        let planner = cfg.use_planner.then(|| {
            Planner::new(
                mesh,
                octopus.surface_index(),
                CostModel::paper_constants(),
                PLANNER_HIST_RES,
            )
        });
        let cache = cfg.use_seed_cache.then(|| {
            SeedCache::new(
                seed_cache::default_margin(mesh),
                bounds,
                CACHE_CAPACITY,
                mesh.restructure_epoch(),
            )
        });
        BatchEngine {
            planner,
            cache,
            key_bounds: bounds,
            report: EngineReport::default(),
            telemetry: None,
        }
    }

    /// Attaches registry handles: every executed batch records grouping,
    /// routing, shared-frontier savings, planner mis-routes and the
    /// seed-cache counters (including the `seed_cache_hit_rate` gauge).
    pub fn attach_metrics(&mut self, metrics: &EngineMetrics) {
        self.telemetry = Some(metrics.clone());
    }

    /// What the engine did with the last executed batch.
    pub fn report(&self) -> &EngineReport {
        &self.report
    }

    /// Seed-cache counters (zeroes when the cache is disabled).
    pub fn cache_stats(&self) -> SeedCacheStats {
        self.cache
            .as_ref()
            .map(SeedCache::stats)
            .unwrap_or_default()
    }

    /// Whether the temporal seed cache is active.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// The seed cache's dilation margin (0 when disabled).
    pub(crate) fn cache_margin(&self) -> f32 {
        self.cache.as_ref().map_or(0.0, SeedCache::margin)
    }

    /// Applies a re-layout permutation to the cached candidate ids (the
    /// monitor calls this when a layout policy re-permutes the mesh).
    pub(crate) fn translate_cache(&mut self, perm: &[VertexId]) {
        if let Some(c) = &mut self.cache {
            c.translate(perm);
        }
    }

    /// Executes `queries` against `snap` on `pool`, with grouping,
    /// routing and warm starts, returning per-query results in input
    /// order — identical (as sets) to running [`Octopus::query`] per
    /// query.
    pub fn execute(
        &mut self,
        pool: &mut ParallelExecutor,
        snap: &Snapshot<'_>,
        queries: &[Aabb],
    ) -> Vec<QueryResult> {
        // Plan. The planner refresh is a two-word comparison between
        // restructuring events; the cache drops its entries when the
        // snapshot belongs to another connectivity generation.
        if let Some(p) = &mut self.planner {
            p.refresh_if_restructured(snap.mesh, snap.exec.surface_index());
        }
        if let Some(c) = &mut self.cache {
            c.begin_epoch(snap.mesh.restructure_epoch());
        }
        let decisions = self.planner.as_ref().map(|p| p.decide_batch(queries));
        let plan = self.plan(queries, decisions.as_deref(), snap.cum_drift);

        // Run.
        let run = pool.run_plan(snap.exec, snap.mesh, queries, &plan);

        // Absorb.
        if let Some(c) = &mut self.cache {
            for (qi, candidates) in run.refills {
                c.insert(&queries[qi as usize], snap.cum_drift, candidates);
            }
        }
        self.report = EngineReport {
            queries: queries.len(),
            groups: plan.groups.len(),
            shared_visited: run.shared_visited,
            cache_seeded: run.results.iter().map(|r| r.timings.cache_seeded).sum(),
            ..EngineReport::default()
        };
        for g in &plan.groups {
            match g.route {
                Route::Scan => self.report.scan_queries += g.members.len(),
                Route::Crawl(_) if g.members.len() >= 2 => {
                    self.report.grouped_queries += g.members.len();
                    self.report.attributed_visited += g
                        .members
                        .iter()
                        .map(|&i| run.results[i as usize].timings.crawl_visited)
                        .sum::<usize>();
                }
                Route::Crawl(_) => {}
            }
        }
        let cache_stats = self.cache.as_ref().map(SeedCache::stats);
        if let Some(t) = &mut self.telemetry {
            t.batches.inc();
            for g in &plan.groups {
                t.group_size.record(g.members.len() as u64);
            }
            t.grouped_queries.add(self.report.grouped_queries as u64);
            t.scan_queries.add(self.report.scan_queries as u64);
            t.shared_visited.add(self.report.shared_visited as u64);
            t.attributed_visited
                .add(self.report.attributed_visited as u64);
            t.frontier_savings.add(
                self.report
                    .attributed_visited
                    .saturating_sub(self.report.shared_visited) as u64,
            );
            let n = snap.mesh.num_vertices().max(1) as f64;
            for (d, r) in decisions.iter().flatten().zip(&run.results) {
                match d.strategy {
                    Strategy::Octopus => t.planner_octopus.inc(),
                    Strategy::LinearScan => t.planner_scan.inc(),
                }
                // A mis-route: the measured selectivity lands on the
                // other side of the Eq.-6 crossover than the histogram
                // estimate the routing used.
                let actual = r.vertices.len() as f64 / n;
                let estimated_scan = d.estimated_selectivity > d.crossover_selectivity;
                let actual_scan = actual > d.crossover_selectivity;
                if estimated_scan != actual_scan {
                    t.planner_misroutes.inc();
                }
            }
            if let Some(stats) = cache_stats {
                t.sync_cache(&stats);
            }
        }
        run.results
    }

    /// Builds the batch's execution plan: Hilbert sweep → overlap groups
    /// → per-group routing → per-group probe source.
    fn plan(&mut self, queries: &[Aabb], decisions: Option<&[Decision]>, cum_drift: f32) -> Plan {
        let mut plan = Plan {
            groups: Vec::new(),
            margin: self.cache_margin(),
        };
        for members in sweep_groups(queries, &self.key_bounds) {
            // Split the locality group by planner decision: scan-routed
            // members share one pass over the positions, crawl-routed
            // members share one frontier.
            let (crawl, scan): (Vec<u32>, Vec<u32>) = match decisions {
                None => (members, Vec::new()),
                Some(d) => members
                    .into_iter()
                    .partition(|&i| d[i as usize].strategy == Strategy::Octopus),
            };
            if !scan.is_empty() {
                plan.groups.push(Group {
                    members: scan,
                    route: Route::Scan,
                });
            }
            if !crawl.is_empty() {
                let route = Route::Crawl(self.probe_plan(queries, &crawl, cum_drift));
                plan.groups.push(Group {
                    members: crawl,
                    route,
                });
            }
        }
        plan
    }

    /// Chooses a crawl group's probe source: cached candidates when
    /// every member has a provably valid entry, otherwise a full probe
    /// (collecting refills when the cache is enabled).
    ///
    /// Accounting matches what actually happens: a validation pass runs
    /// first (pruning stale entries without counting), and `hits` are
    /// only recorded when the group really takes the cached route — one
    /// member's miss makes the whole group a full probe, which counts a
    /// miss for *every* member (none of them warm-started, and all get
    /// refilled).
    fn probe_plan(&mut self, queries: &[Aabb], members: &[u32], cum_drift: f32) -> ProbePlan {
        let Some(cache) = &mut self.cache else {
            return ProbePlan::Surface { collect: false };
        };
        let all_valid = members
            .iter()
            .all(|&i| cache.validate(&queries[i as usize], cum_drift));
        if !all_valid {
            cache.count_misses(members.len() as u64);
            return ProbePlan::Surface { collect: true };
        }
        let mut concat: Vec<VertexId> = Vec::new();
        for &i in members {
            let candidates = cache
                .lookup(&queries[i as usize], cum_drift)
                .expect("validated just above, nothing pruned since");
            concat.extend_from_slice(candidates);
        }
        ProbePlan::Cached(concat)
    }
}

/// The locality sweep: sort by Hilbert centroid key, then grow a group
/// while the next query (in key order) intersects the group's union box
/// and the membership-mask width ([`MAX_GROUP`]) allows it.
fn sweep_groups(queries: &[Aabb], bounds: &Aabb) -> Vec<Vec<u32>> {
    let mut order: Vec<u32> = (0..queries.len() as u32).collect();
    let keys: Vec<u64> = queries
        .iter()
        .map(|q| hilbert_center_key(q, bounds, 16))
        .collect();
    order.sort_unstable_by_key(|&i| (keys[i as usize], i));

    let mut groups: Vec<Vec<u32>> = Vec::new();
    let mut union = Aabb::EMPTY;
    for i in order {
        let q = &queries[i as usize];
        match groups.last_mut() {
            Some(current) if current.len() < MAX_GROUP && union.intersects(q) => {
                union = union.union(q);
                current.push(i);
            }
            _ => {
                union = *q;
                groups.push(vec![i]);
            }
        }
    }
    groups
}
