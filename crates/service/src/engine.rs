//! The batch query engine: locality-scheduled overlap groups, shared
//! frontiers, and per-group planner routing.
//!
//! The engine owns what only it knows — how to *plan* a batch and what
//! to *absorb* from its execution — around the one plan runner
//! ([`crate::ParallelExecutor`]'s fan-out, which also runs the plan of
//! singletons behind [`crate::ParallelExecutor::execute_batch`]):
//!
//! 1. **Plan.** The batch is sorted by the Hilbert key of each query's
//!    centroid ([`octopus_geom::hilbert::hilbert_center_key`]) and swept
//!    once in key order: a query joins the current *overlap group*
//!    while it intersects the group's union box (and the group is under
//!    the [`octopus_core::MAX_GROUP`] mask width); otherwise it starts a
//!    new group. When enabled, a [`octopus_core::Planner`] decides each
//!    query via Eq. 6 under the S and M of the snapshot the batch runs
//!    against, and `LinearScan` members are split off into a **shared
//!    scan** group — per-group routing instead of one global mode.
//! 2. **Run.** Groups execute in parallel over the worker pool, stolen
//!    in curve order. A crawl group is one
//!    [`octopus_core::Octopus::query_group`] call under the snapshot's
//!    probe, a singleton being a group of one: one probe over the union
//!    box and one BFS with a per-vertex membership bitmask, results
//!    demultiplexed per query — a vertex inside k overlapping queries
//!    is visited once, not k times. A scan group is
//!    one pass over the positions, testing every member.
//! 3. **Absorb.** The batch's [`EngineReport`] is drawn up, and the
//!    attached telemetry records grouping, routing, sharing and planner
//!    mis-routes.
//!
//! Every path returns, per query, exactly what the sequential
//! [`octopus_core::Octopus::query_with`] returns — the batch-engine
//! property suite asserts this against random meshes, restructuring
//! steps, mid-run re-layouts and ring depths 1 and 3.

use crate::batch::{Group, ParallelExecutor, Plan, QueryResult, Route};
use crate::snapshot::Snapshot;
use crate::telemetry::EngineMetrics;
use octopus_core::{Characteristics, CostModel, Decision, Planner, Strategy, MAX_GROUP};
use octopus_geom::hilbert::hilbert_center_key;
use octopus_geom::Aabb;
use octopus_mesh::Mesh;

/// Histogram resolution of the planner's selectivity estimator.
const PLANNER_HIST_RES: usize = 8;

/// Configuration of the [`BatchEngine`]: the one switch the engine
/// suites flip to make routing deterministic.
#[derive(Clone, Copy, Debug)]
pub struct BatchEngineConfig {
    /// Route groups through the Eq.-6 planner (shared linear scan for
    /// `LinearScan` decisions).
    pub use_planner: bool,
}

impl Default for BatchEngineConfig {
    fn default() -> BatchEngineConfig {
        BatchEngineConfig { use_planner: true }
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
}

/// The batch query engine (see the module docs). One engine serves one
/// monitored dataset: the monitor builds one at set-up and plans every
/// box request with it ([`crate::MonitorLoop::set_batch_engine`]
/// replaces it), and it can be driven standalone
/// against any [`Snapshot`] via [`BatchEngine::execute`].
#[derive(Debug)]
pub struct BatchEngine {
    planner: Option<Planner>,
    /// Hilbert quantisation frame for the scheduler's sort keys (the
    /// at-ingest bounds; only key consistency matters).
    key_bounds: Aabb,
    report: EngineReport,
    /// Registry handles, attached via [`BatchEngine::attach_metrics`].
    telemetry: Option<EngineMetrics>,
}

impl BatchEngine {
    /// Builds an engine for `mesh`: the planner's histogram covers its
    /// current positions, once. S and M are read per batch off the
    /// snapshot the batch runs against, so attaching an engine extracts
    /// nothing.
    pub fn new(cfg: BatchEngineConfig, mesh: &Mesh) -> BatchEngine {
        let bounds = mesh.bounding_box();
        let planner = cfg
            .use_planner
            .then(|| Planner::new(mesh, CostModel::paper_constants(), PLANNER_HIST_RES));
        BatchEngine {
            planner,
            key_bounds: bounds,
            report: EngineReport::default(),
            telemetry: None,
        }
    }

    /// Attaches registry handles: every executed batch records grouping,
    /// routing, shared-frontier savings and planner mis-routes.
    pub fn attach_metrics(&mut self, metrics: &EngineMetrics) {
        self.telemetry = Some(metrics.clone());
    }

    /// What the engine did with the last executed batch.
    pub fn report(&self) -> &EngineReport {
        &self.report
    }

    /// Executes `queries` against `snap` on `pool`, with grouping and
    /// routing, returning per-query results in input order — identical
    /// (as sets) to running [`octopus_core::Octopus::query_with`] per query.
    pub fn execute(
        &mut self,
        pool: &mut ParallelExecutor,
        snap: &Snapshot<'_>,
        queries: &[Aabb],
    ) -> Vec<QueryResult> {
        // Plan, under the S and M of this snapshot's generation: two
        // divisions, whichever slot the batch asks.
        let decisions = self.planner.as_ref().map(|p| {
            p.decide_batch(
                Characteristics::of(snap.mesh, snap.exec.surface_len()),
                queries,
            )
        });
        let plan = self.plan(queries, decisions.as_deref());

        // Run.
        let run = pool.run_plan(snap, queries, &plan);

        // Absorb.
        self.report = EngineReport {
            queries: queries.len(),
            groups: plan.groups.len(),
            shared_visited: run.shared_visited,
            ..EngineReport::default()
        };
        for g in &plan.groups {
            match g.route {
                Route::Scan => self.report.scan_queries += g.members.len(),
                Route::Crawl if g.members.len() >= 2 => {
                    self.report.grouped_queries += g.members.len();
                    self.report.attributed_visited += g
                        .members
                        .iter()
                        .map(|&i| run.results[i as usize].timings.crawl_visited)
                        .sum::<usize>();
                }
                Route::Crawl => {}
            }
        }
        if let Some(t) = &self.telemetry {
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
        }
        run.results
    }

    /// Builds the batch's execution plan: Hilbert sweep → overlap groups
    /// → per-group routing.
    fn plan(&self, queries: &[Aabb], decisions: Option<&[Decision]>) -> Plan {
        let mut groups = Vec::new();
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
            for (members, route) in [(scan, Route::Scan), (crawl, Route::Crawl)] {
                if !members.is_empty() {
                    groups.push(Group { members, route });
                }
            }
        }
        Plan { groups }
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
