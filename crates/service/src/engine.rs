//! The batch query engine: locality-scheduled overlap groups, shared
//! frontiers, temporal seed caching, and per-group planner routing.
//!
//! Three cooperating layers turn a query batch from N independent
//! executions into locality-ordered shared work:
//!
//! 1. **Locality scheduler.** The batch is sorted by the Hilbert key of
//!    each query's centroid ([`octopus_geom::hilbert::hilbert_center_key`])
//!    and swept once in key order: a query joins the current *overlap
//!    group* while it intersects the group's union box (and the group is
//!    under the [`octopus_core::MAX_GROUP`] mask width); otherwise it
//!    starts a new group. Groups execute in parallel over the worker
//!    pool, stolen in curve order.
//! 2. **Shared execution.** A group of k ≥ 2 queries runs as one
//!    shared-frontier crawl ([`octopus_core::Octopus::query_group`]):
//!    one surface probe over the union box, one BFS with a per-vertex
//!    membership bitmask, results demultiplexed per query — a vertex
//!    inside k overlapping queries is visited once, not k times.
//!    Singleton groups run the plain sequential path unchanged.
//! 3. **Routing and warm starts.** When enabled, a
//!    [`octopus_core::Planner`] (refreshed against the snapshot's
//!    restructure epoch) decides each query via Eq. 6: `LinearScan`
//!    members are split off into a **shared scan** group (one pass over
//!    the positions, testing every member) — per-group routing instead
//!    of one global mode.
//!    The [`SeedCache`] warm-starts repeated/drifted queries from the
//!    previous step's boundary-vertex sample, skipping the full surface
//!    probe while provably preserving exactness (see
//!    [`crate::seed_cache`]).
//!
//! Every path returns, per query, exactly what the sequential
//! [`octopus_core::Octopus::query`] returns — the batch-engine property
//! suite asserts this against random meshes, restructuring steps,
//! mid-run re-layouts and ring depths 1 and 3.

use crate::batch::{ParallelExecutor, QueryResult};
use crate::pool::Task;
use crate::seed_cache::{SeedCache, SeedCacheStats};
use crate::telemetry::EngineMetrics;
use octopus_core::{
    AggregateKind, AggregateValue, CostModel, Decision, GroupProbe, GroupScratch, Octopus,
    PhaseTimings, Planner, QueryScratch, QueryShape, ShapeResult, Strategy, MAX_GROUP,
};
use octopus_geom::hilbert::hilbert_center_key;
use octopus_geom::{Aabb, Point3, Region, VertexId};
use octopus_mesh::Mesh;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Configuration of the [`BatchEngine`].
#[derive(Clone, Copy, Debug)]
pub struct BatchEngineConfig {
    /// Maximum queries per overlap group (clamped to
    /// [`octopus_core::MAX_GROUP`], the membership-mask width; the
    /// sweep starts a new group past the cap, which is the per-query
    /// fallback for batches that would overflow the mask).
    pub max_group: usize,
    /// Route groups through the Eq.-6 planner (shared linear scan for
    /// `LinearScan` decisions).
    pub use_planner: bool,
    /// Histogram resolution of the planner's selectivity estimator.
    pub planner_hist_res: usize,
    /// Warm-start repeated/drifted queries from the temporal seed cache.
    pub use_seed_cache: bool,
    /// Seed-cache dilation margin, in multiples of the mesh's typical
    /// edge length (larger: entries survive more drift but candidate
    /// lists grow).
    pub seed_margin_edges: f32,
    /// Maximum retained seed-cache entries.
    pub cache_capacity: usize,
}

impl Default for BatchEngineConfig {
    fn default() -> BatchEngineConfig {
        BatchEngineConfig {
            max_group: MAX_GROUP,
            use_planner: true,
            planner_hist_res: 8,
            use_seed_cache: true,
            seed_margin_edges: 8.0,
            cache_capacity: 4096,
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

/// A shape query's answer plus its phase timings — the heterogeneous
/// counterpart of [`QueryResult`], returned by
/// [`BatchEngine::execute_shapes`] and
/// [`crate::MonitorLoop::query_shapes`].
#[derive(Clone, Debug)]
pub struct ShapeQueryResult {
    /// The shape's answer.
    pub result: ShapeResult,
    /// Phase timings of the execution that produced it.
    pub timings: PhaseTimings,
}

/// Per-group route decided by the scheduler + planner.
enum Route {
    /// Shared-frontier crawl (or the plain sequential path for
    /// singletons), with the chosen probe source.
    Crawl(ProbePlan),
    /// One shared pass over the positions, testing every member.
    Scan,
}

/// Probe source of a crawl-routed group.
enum ProbePlan {
    /// Full surface probe; optionally collect seed-cache refills.
    Surface { collect: bool },
    /// Warm start from cached candidates (every member hit).
    Cached(Vec<VertexId>),
}

struct GroupPlan {
    /// Query indices (into the batch), in Hilbert sweep order.
    members: Vec<u32>,
    route: Route,
}

/// The prepared execution plan of one batch.
struct EnginePlan {
    groups: Vec<GroupPlan>,
    margin: f32,
    /// The per-query planner decisions the plan was routed on, kept so
    /// telemetry can compare estimates against measured selectivities
    /// after execution (`planner_misroutes_total`).
    decisions: Option<Vec<Decision>>,
}

/// Per-worker staging of the plan executor.
#[derive(Debug, Default)]
pub(crate) struct PlanOut {
    staged: Vec<(u32, QueryResult)>,
    refills: Vec<(u32, Vec<VertexId>)>,
    shared_visited: usize,
    attributed_visited: usize,
}

/// The batch query engine (see the module docs). One engine serves one
/// monitored dataset; [`crate::MonitorLoop::set_batch_engine`] wires it
/// into the monitor's batch path, and it can be driven standalone
/// against any `(&Octopus, &Mesh)` pair via [`BatchEngine::execute`].
#[derive(Debug)]
pub struct BatchEngine {
    cfg: BatchEngineConfig,
    planner: Option<Planner>,
    cache: Option<SeedCache>,
    /// Hilbert quantisation frame for the scheduler's sort keys (the
    /// at-ingest bounds; only key consistency matters).
    key_bounds: Aabb,
    num_vertices: usize,
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
                cfg.planner_hist_res.max(1),
            )
        });
        let cache = cfg.use_seed_cache.then(|| {
            let typical_edge = (bounds.volume() / mesh.num_vertices().max(1) as f64)
                .cbrt()
                .max(f64::MIN_POSITIVE) as f32;
            SeedCache::new(
                cfg.seed_margin_edges.max(f32::MIN_POSITIVE) * typical_edge,
                bounds,
                cfg.cache_capacity,
                mesh.restructure_epoch(),
            )
        });
        BatchEngine {
            cfg,
            planner,
            cache,
            key_bounds: bounds,
            num_vertices: mesh.num_vertices(),
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

    /// Re-publishes the seed-cache counters and hit-rate gauge (the
    /// single-query paths advance the cache outside
    /// [`BatchEngine::execute`], so the monitor calls this per step).
    pub(crate) fn publish_cache_metrics(&mut self) {
        if let (Some(t), Some(c)) = (&mut self.telemetry, &self.cache) {
            t.sync_cache(&c.stats());
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &BatchEngineConfig {
        &self.cfg
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

    /// Executes `queries` against `(octopus, mesh)` on `pool`, with
    /// grouping, routing and warm starts, returning per-query results in
    /// input order — identical (as sets) to running
    /// [`Octopus::query`] per query.
    ///
    /// `epoch` is the snapshot's `Mesh::restructure_epoch`; `cum_drift`
    /// is the monitor's cumulative max-displacement meter for this
    /// snapshot (pass `0.0` when driving a static mesh — repeated calls
    /// at the same meter reading mean "no motion since").
    pub fn execute(
        &mut self,
        pool: &mut ParallelExecutor,
        octopus: &Octopus,
        mesh: &Mesh,
        queries: &[Aabb],
        epoch: u64,
        cum_drift: f32,
    ) -> Vec<QueryResult> {
        self.num_vertices = mesh.num_vertices();
        // Epoch-refresh the planner (a two-word comparison between
        // restructuring events).
        if let Some(p) = &mut self.planner {
            p.refresh_if_restructured(mesh, octopus.surface_index());
        }
        if let Some(c) = &mut self.cache {
            c.begin_epoch(epoch);
        }
        let plan = self.plan(queries, cum_drift);
        let (results, refills) = pool.execute_plan(octopus, mesh, queries, &plan, &mut self.report);
        if let Some(c) = &mut self.cache {
            for (qi, cands) in refills {
                c.insert(&queries[qi as usize], cum_drift, cands);
            }
        }
        self.report.queries = queries.len();
        self.report.groups = plan.groups.len();
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
            if let Some(decisions) = &plan.decisions {
                let n = self.num_vertices.max(1) as f64;
                for (d, r) in decisions.iter().zip(&results) {
                    match d.strategy {
                        Strategy::Octopus => t.planner_octopus.inc(),
                        Strategy::LinearScan => t.planner_scan.inc(),
                    }
                    // A mis-route: the measured selectivity lands on the
                    // other side of the Eq.-6 crossover than the
                    // histogram estimate the routing used.
                    let actual = r.vertices.len() as f64 / n;
                    let estimated_scan = d.estimated_selectivity > d.crossover_selectivity;
                    let actual_scan = actual > d.crossover_selectivity;
                    if estimated_scan != actual_scan {
                        t.planner_misroutes.inc();
                    }
                }
            }
            if let Some(stats) = cache_stats {
                t.sync_cache(&stats);
            }
        }
        results
    }

    /// Executes a heterogeneous [`QueryShape`] batch, returning answers
    /// in input order.
    ///
    /// Box shapes travel the full grouped path ([`BatchEngine::execute`]:
    /// Hilbert sweep, shared frontiers, seed cache, planner routing).
    /// The other shapes are routed individually through the per-shape
    /// Eq.-6 estimate ([`octopus_core::Planner::decide_shape`]): a
    /// `LinearScan` decision runs one pass over the positions, an
    /// `Octopus` decision runs [`octopus_core::Octopus::query_shape`]
    /// on the probe → walk → crawl machinery. Both routes return
    /// exactly what the sequential executor returns.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_shapes(
        &mut self,
        pool: &mut ParallelExecutor,
        octopus: &Octopus,
        mesh: &Mesh,
        shapes: &[QueryShape],
        epoch: u64,
        cum_drift: f32,
        scratch: &mut QueryScratch,
    ) -> Vec<ShapeQueryResult> {
        let mut out: Vec<Option<ShapeQueryResult>> = shapes.iter().map(|_| None).collect();
        let box_idx: Vec<usize> = shapes
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_box().then_some(i))
            .collect();
        if !box_idx.is_empty() {
            let boxes: Vec<Aabb> = box_idx.iter().map(|&i| shapes[i].bounds()).collect();
            let results = self.execute(pool, octopus, mesh, &boxes, epoch, cum_drift);
            for (&i, r) in box_idx.iter().zip(&results) {
                out[i] = Some(ShapeQueryResult {
                    result: ShapeResult::Vertices(r.vertices.clone()),
                    timings: r.timings,
                });
            }
            pool.recycle(results);
        } else if let Some(p) = &mut self.planner {
            // `execute` epoch-refreshes the planner; an all-non-box
            // batch has to do it here.
            p.refresh_if_restructured(mesh, octopus.surface_index());
        }
        for (i, shape) in shapes.iter().enumerate() {
            if out[i].is_some() {
                continue;
            }
            let scan = self.planner.as_ref().is_some_and(|p| {
                p.decide_shape(shape, mesh.num_vertices()).strategy == Strategy::LinearScan
            });
            let (result, timings) = if scan {
                run_shape_scan(mesh, shape)
            } else {
                octopus.query_shape(scratch, mesh, shape)
            };
            out[i] = Some(ShapeQueryResult { result, timings });
        }
        out.into_iter()
            .map(|r| r.expect("every shape answered"))
            .collect()
    }

    /// One warm-started sequential query (the monitor's `query_at`
    /// path): seed-cache hit → candidate probe, miss → full probe that
    /// refills the entry. Exact either way.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn query_cached(
        &mut self,
        octopus: &Octopus,
        mesh: &Mesh,
        q: &Aabb,
        scratch: &mut QueryScratch,
        epoch: u64,
        cum_drift: f32,
        out: &mut Vec<VertexId>,
    ) -> PhaseTimings {
        let Some(cache) = &mut self.cache else {
            return octopus.query_with(scratch, mesh, q, out);
        };
        cache.begin_epoch(epoch);
        if let Some(candidates) = cache.lookup(q, cum_drift) {
            return octopus.query_seeded(scratch, mesh, q, candidates, out);
        }
        let mut cands = Vec::new();
        let margin = cache.margin();
        let stats = octopus.query_collecting(scratch, mesh, q, margin, &mut cands, out);
        cache.insert(q, cum_drift, cands);
        stats
    }

    /// Builds the batch's execution plan: Hilbert sweep → overlap groups
    /// → per-group routing → per-group probe source.
    fn plan(&mut self, queries: &[Aabb], cum_drift: f32) -> EnginePlan {
        let margin = self.cache.as_ref().map_or(0.0, SeedCache::margin);
        let mut plan = EnginePlan {
            groups: Vec::new(),
            margin,
            decisions: None,
        };
        if queries.is_empty() {
            return plan;
        }
        let decisions = self.planner.as_ref().map(|p| p.decide_batch(queries));
        let sweep = sweep_groups(queries, &self.key_bounds, self.cfg.max_group);
        for members in sweep {
            // Split the locality group by planner decision: scan-routed
            // members share one pass over the positions, crawl-routed
            // members share one frontier.
            let (crawl, scan): (Vec<u32>, Vec<u32>) = match &decisions {
                None => (members, Vec::new()),
                Some(d) => members
                    .into_iter()
                    .partition(|&i| d[i as usize].strategy == Strategy::Octopus),
            };
            if !scan.is_empty() {
                plan.groups.push(GroupPlan {
                    members: scan,
                    route: Route::Scan,
                });
            }
            if crawl.is_empty() {
                continue;
            }
            let route = Route::Crawl(self.probe_plan(queries, &crawl, cum_drift));
            plan.groups.push(GroupPlan {
                members: crawl,
                route,
            });
        }
        plan.decisions = decisions;
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

/// Linear-scan evaluation of a [`QueryShape`] (the planner's
/// `LinearScan` route for non-box shapes): one pass over the positions,
/// skipping orphaned vertices to match the crawl's active-vertex
/// semantics exactly. K-nearest ranks by `(distance, id)` — the same
/// deterministic tie-break as the crawl-based path.
fn run_shape_scan(mesh: &Mesh, shape: &QueryShape) -> (ShapeResult, PhaseTimings) {
    let t0 = Instant::now();
    let positions = mesh.positions();
    let active = |i: usize| !mesh.neighbors(i as VertexId).is_empty();
    let result = match shape {
        QueryShape::Box(q) => ShapeResult::Vertices(
            positions
                .iter()
                .enumerate()
                .filter(|(i, p)| q.contains(**p) && active(*i))
                .map(|(i, _)| i as VertexId)
                .collect(),
        ),
        QueryShape::Convex(r) => ShapeResult::Vertices(
            positions
                .iter()
                .enumerate()
                .filter(|(i, p)| r.contains(**p) && active(*i))
                .map(|(i, _)| i as VertexId)
                .collect(),
        ),
        QueryShape::KNearest { k, point } => {
            let mut ranked: Vec<(f32, VertexId)> = positions
                .iter()
                .enumerate()
                .filter(|(i, _)| active(*i))
                .map(|(i, p)| (p.dist_sq(*point), i as VertexId))
                .collect();
            ranked.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            ranked.truncate(*k);
            ShapeResult::Vertices(ranked.into_iter().map(|(_, v)| v).collect())
        }
        QueryShape::Aggregate { region, kind } => {
            let mut count = 0usize;
            let (mut sx, mut sy, mut sz) = (0f64, 0f64, 0f64);
            for (i, p) in positions.iter().enumerate() {
                if region.contains(*p) && active(i) {
                    count += 1;
                    if *kind == AggregateKind::Centroid {
                        sx += f64::from(p.x);
                        sy += f64::from(p.y);
                        sz += f64::from(p.z);
                    }
                }
            }
            let centroid = (*kind == AggregateKind::Centroid && count > 0).then(|| {
                let n = count as f64;
                Point3::new((sx / n) as f32, (sy / n) as f32, (sz / n) as f32)
            });
            ShapeResult::Aggregate(AggregateValue { count, centroid })
        }
    };
    let timings = PhaseTimings {
        linear_scan: t0.elapsed(),
        results: result.len(),
        ..Default::default()
    };
    (result, timings)
}

/// The locality sweep: sort by Hilbert centroid key, then grow a group
/// while the next query (in key order) intersects the group's union box
/// and the mask width allows it.
fn sweep_groups(queries: &[Aabb], bounds: &Aabb, max_group: usize) -> Vec<Vec<u32>> {
    let cap = max_group.clamp(1, MAX_GROUP);
    let mut order: Vec<u32> = (0..queries.len() as u32).collect();
    let keys: Vec<u64> = queries
        .iter()
        .map(|q| hilbert_center_key(q, bounds, 16))
        .collect();
    order.sort_unstable_by_key(|&i| (keys[i as usize], i));

    let mut groups: Vec<Vec<u32>> = Vec::new();
    let mut current: Vec<u32> = Vec::new();
    let mut union = Aabb::EMPTY;
    for i in order {
        let q = &queries[i as usize];
        if current.is_empty() || (current.len() < cap && union.intersects(q)) {
            union = if current.is_empty() {
                *q
            } else {
                union.union(q)
            };
            current.push(i);
        } else {
            groups.push(std::mem::take(&mut current));
            union = *q;
            current.push(i);
        }
    }
    if !current.is_empty() {
        groups.push(current);
    }
    groups
}

impl ParallelExecutor {
    /// Executes a prepared [`EnginePlan`]: the groups fan out across
    /// the workers (stolen in curve order), and everything is
    /// reassembled in input order. Returns the results plus the
    /// seed-cache refills the workers collected.
    fn execute_plan(
        &mut self,
        octopus: &Octopus,
        mesh: &Mesh,
        queries: &[Aabb],
        plan: &EnginePlan,
        report: &mut EngineReport,
    ) -> (Vec<QueryResult>, Vec<(u32, Vec<VertexId>)>) {
        *report = EngineReport::default();

        let workers = self.threads.min(plan.groups.len()).max(1);
        self.ensure_scratches(octopus, mesh, workers);
        while self.group_scratches.len() < workers {
            self.group_scratches.push(GroupScratch::new());
        }
        while self.plan_outs.len() < workers {
            self.plan_outs.push(PlanOut::default());
        }

        let cursor = AtomicUsize::new(0);
        let recycler = &self.recycler;
        {
            let cursor = &cursor;
            let tasks: Vec<Task<'_>> = self
                .scratches
                .iter_mut()
                .zip(self.group_scratches.iter_mut())
                .zip(self.plan_outs.iter_mut())
                .take(workers)
                .map(|((scratch, group_scratch), out)| {
                    out.staged.clear();
                    out.refills.clear();
                    out.shared_visited = 0;
                    out.attributed_visited = 0;
                    Box::new(move || loop {
                        // relaxed: work-stealing cursor over plan
                        // groups — the RMW claims each group exactly
                        // once; the pool's channel orders the results.
                        let g = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(group) = plan.groups.get(g) else {
                            break;
                        };
                        match &group.route {
                            Route::Scan => {
                                run_scan_group(mesh, queries, &group.members, recycler, out);
                            }
                            Route::Crawl(probe) => run_crawl_group(
                                octopus,
                                mesh,
                                queries,
                                group,
                                probe,
                                plan.margin,
                                scratch,
                                group_scratch,
                                recycler,
                                out,
                            ),
                        }
                    }) as Task<'_>
                })
                .collect();
            self.pool.run(tasks);
        }

        // Reassemble in input order through the persistent slot buffer.
        self.slots.clear();
        self.slots.resize_with(queries.len(), || None);
        let mut refills = Vec::new();
        for out in self.plan_outs.iter_mut().take(workers) {
            report.shared_visited += out.shared_visited;
            report.attributed_visited += out.attributed_visited;
            for (i, r) in out.staged.drain(..) {
                report.cache_seeded += r.timings.cache_seeded;
                self.slots[i as usize] = Some(r);
            }
            refills.append(&mut out.refills);
        }
        for group in &plan.groups {
            if group.members.len() >= 2 && matches!(group.route, Route::Crawl(_)) {
                report.grouped_queries += group.members.len();
            }
            if matches!(group.route, Route::Scan) {
                report.scan_queries += group.members.len();
            }
        }
        let mut results = self.free_batches.pop().unwrap_or_default();
        results.extend(
            self.slots
                .drain(..)
                .map(|r| r.expect("the plan covers every query")),
        );
        (results, refills)
    }
}

/// One shared linear scan over the positions, demultiplexed into the
/// member queries. Matches crawl semantics on orphaned vertices: range
/// queries are defined over *active* vertices, so zero-degree position
/// slots left behind by restructuring are skipped.
fn run_scan_group(
    mesh: &Mesh,
    queries: &[Aabb],
    members: &[u32],
    recycler: &crate::recycle::ResultRecycler,
    out: &mut PlanOut,
) {
    let t0 = Instant::now();
    let union = members
        .iter()
        .map(|&i| queries[i as usize])
        .fold(
            Aabb::EMPTY,
            |acc, q| if acc.is_empty() { q } else { acc.union(&q) },
        );
    let mut bufs: Vec<(u32, Vec<VertexId>)> = members.iter().map(|_| recycler.lease()).collect();
    // Batched containment over the blocked SoA store: one
    // [`PositionBlock::region_mask`] answers 16 consecutive ids against
    // the union box in a handful of vectorisable compares, and a zero
    // mask skips the whole block — the common case for selective
    // queries. Per-member routing then runs only on the surviving
    // lanes. Tail padding lanes are NaN, so their mask bits are never
    // set and the id range needs no separate length check.
    let blocks = mesh.position_blocks();
    for (b, block) in blocks.blocks().iter().enumerate() {
        let mut mask = block.region_mask(&union);
        while mask != 0 {
            let l = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let v = (b * octopus_mesh::BLOCK_LANES + l) as VertexId;
            if mesh.neighbors(v).is_empty() {
                continue;
            }
            let p = block.lane(l);
            for (m, &i) in members.iter().enumerate() {
                if queries[i as usize].contains(p) {
                    bufs[m].1.push(v);
                }
            }
        }
    }
    let elapsed = t0.elapsed();
    for (b, &i) in members.iter().enumerate() {
        let (generation, vertices) = std::mem::take(&mut bufs[b]);
        let timings = PhaseTimings {
            // The shared pass is attributed once, to the group's first
            // member, so batch aggregation sums real wall time.
            linear_scan: if b == 0 { elapsed } else { Default::default() },
            results: vertices.len(),
            ..Default::default()
        };
        out.staged.push((
            i,
            QueryResult {
                vertices,
                timings,
                generation,
            },
        ));
    }
}

/// One crawl-routed group: plain sequential path for singletons, the
/// shared-frontier group crawl for k ≥ 2 — either warm-started from
/// cached candidates or on a full probe with optional refill collection.
#[allow(clippy::too_many_arguments)]
fn run_crawl_group(
    octopus: &Octopus,
    mesh: &Mesh,
    queries: &[Aabb],
    group: &GroupPlan,
    probe: &ProbePlan,
    margin: f32,
    scratch: &mut QueryScratch,
    group_scratch: &mut GroupScratch,
    recycler: &crate::recycle::ResultRecycler,
    out: &mut PlanOut,
) {
    let members = &group.members;
    if members.len() == 1 {
        let i = members[0];
        let q = &queries[i as usize];
        let (generation, mut vertices) = recycler.lease();
        let timings = match probe {
            ProbePlan::Surface { collect: false } => {
                octopus.query_with(scratch, mesh, q, &mut vertices)
            }
            ProbePlan::Surface { collect: true } => {
                let mut cands = Vec::new();
                let t =
                    octopus.query_collecting(scratch, mesh, q, margin, &mut cands, &mut vertices);
                out.refills.push((i, cands));
                t
            }
            ProbePlan::Cached(c) => octopus.query_seeded(scratch, mesh, q, c, &mut vertices),
        };
        out.staged.push((
            i,
            QueryResult {
                vertices,
                timings,
                generation,
            },
        ));
        return;
    }

    let sub_queries: Vec<Aabb> = members.iter().map(|&i| queries[i as usize]).collect();
    let mut gens: Vec<u32> = Vec::with_capacity(members.len());
    let mut results: Vec<Vec<VertexId>> = members
        .iter()
        .map(|_| {
            let (g, v) = recycler.lease();
            gens.push(g);
            v
        })
        .collect();
    let cached = matches!(probe, ProbePlan::Cached(_));
    let phase = match probe {
        ProbePlan::Surface { collect: false } => octopus.query_group(
            group_scratch,
            mesh,
            &sub_queries,
            GroupProbe::Surface,
            &mut results,
        ),
        ProbePlan::Surface { collect: true } => {
            let mut cands: Vec<Vec<VertexId>> = vec![Vec::new(); members.len()];
            let phase = octopus.query_group(
                group_scratch,
                mesh,
                &sub_queries,
                GroupProbe::Collect {
                    margin,
                    into: &mut cands,
                },
                &mut results,
            );
            for (b, &i) in members.iter().enumerate() {
                out.refills.push((i, std::mem::take(&mut cands[b])));
            }
            phase
        }
        ProbePlan::Cached(c) => octopus.query_group(
            group_scratch,
            mesh,
            &sub_queries,
            GroupProbe::Cached(c),
            &mut results,
        ),
    };
    out.shared_visited += group_scratch.shared_visited();
    for (b, (&i, vertices)) in members.iter().zip(results).enumerate() {
        out.attributed_visited += group_scratch.visited(b);
        let timings = PhaseTimings {
            // Shared-phase wall times are attributed once, to the first
            // member; per-query work counters follow the sequential
            // conventions exactly.
            surface_probe: if b == 0 {
                phase.surface_probe
            } else {
                Default::default()
            },
            cache_probe: if b == 0 {
                phase.cache_probe
            } else {
                Default::default()
            },
            directed_walk: if b == 0 {
                phase.directed_walk
            } else {
                Default::default()
            },
            crawling: if b == 0 {
                phase.crawling
            } else {
                Default::default()
            },
            start_vertices: group_scratch.seeds(b),
            walk_visited: group_scratch.walk_steps(b),
            crawl_visited: group_scratch.visited(b),
            cache_seeded: usize::from(cached),
            results: vertices.len(),
            ..Default::default()
        };
        out.staged.push((
            i,
            QueryResult {
                vertices,
                timings,
                generation: gens[b],
            },
        ));
    }
}
