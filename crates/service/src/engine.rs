//! The batch query engine: locality-scheduled overlap groups on shared
//! frontiers.
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
//!    new group. Every group crawls: no query is routed to a linear
//!    scan, so each box has one answer, the crawl's.
//! 2. **Run.** Groups execute in parallel over the worker pool, stolen
//!    in curve order. A group is one
//!    [`octopus_core::Octopus::query_group`] call under the snapshot's
//!    probe, a singleton being a group of one: one probe over the union
//!    box and one BFS with a per-vertex membership bitmask, results
//!    demultiplexed per query — a vertex inside k overlapping queries
//!    is visited once, not k times.
//! 3. **Absorb.** The batch's [`EngineReport`] is drawn up, and the
//!    attached telemetry records grouping and sharing.
//!
//! Every batch returns, per query, exactly what the sequential
//! [`octopus_core::Octopus::query_with`] returns — the batch-engine
//! property suite asserts this against random meshes, restructuring
//! steps, mid-run re-layouts and ring depths 1 and 3.

use crate::batch::{ParallelExecutor, QueryResult};
use crate::snapshot::Snapshot;
use crate::telemetry::EngineMetrics;
use octopus_core::MAX_GROUP;
use octopus_geom::hilbert::hilbert_center_key;
use octopus_geom::Aabb;
use octopus_mesh::Mesh;

/// Configuration of the [`BatchEngine`]: it has nothing left to
/// configure. It stays, field-less, only because the repository
/// benchmark's adapter names it in
/// [`crate::MonitorLoop::set_batch_engine`]; it goes when a benchmark
/// change drops that call.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchEngineConfig {}

/// What the engine did with the last executed batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineReport {
    /// Queries in the batch.
    pub queries: usize,
    /// Overlap groups formed (including singletons).
    pub groups: usize,
    /// Queries that ran inside a shared-frontier group (group size ≥ 2).
    pub grouped_queries: usize,
    /// Always zero: no query is routed to a linear scan. The field stays
    /// because the repository benchmark's adapter reads it; it goes
    /// when a benchmark change drops it.
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
    /// Hilbert quantisation frame for the scheduler's sort keys (the
    /// at-ingest bounds; only key consistency matters).
    key_bounds: Aabb,
    report: EngineReport,
    /// Registry handles, attached via [`BatchEngine::attach_metrics`].
    telemetry: Option<EngineMetrics>,
}

impl BatchEngine {
    /// Builds an engine for `mesh`: one bounding-box pass, the frame of
    /// the scheduler's sort keys.
    pub fn new(mesh: &Mesh) -> BatchEngine {
        BatchEngine {
            key_bounds: mesh.bounding_box(),
            report: EngineReport::default(),
            telemetry: None,
        }
    }

    /// Attaches registry handles: every executed batch records grouping
    /// and shared-frontier savings.
    pub fn attach_metrics(&mut self, metrics: &EngineMetrics) {
        self.telemetry = Some(metrics.clone());
    }

    /// What the engine did with the last executed batch.
    pub fn report(&self) -> &EngineReport {
        &self.report
    }

    /// Executes `queries` against `snap` on `pool`, grouped by overlap,
    /// returning per-query results in input order — identical (as sets)
    /// to running [`octopus_core::Octopus::query_with`] per query.
    pub fn execute(
        &mut self,
        pool: &mut ParallelExecutor,
        snap: &Snapshot<'_>,
        queries: &[Aabb],
    ) -> Vec<QueryResult> {
        let groups = sweep_groups(queries, &self.key_bounds);
        let run = pool.run_plan(snap, queries, &groups);

        self.report = EngineReport {
            queries: queries.len(),
            groups: groups.len(),
            shared_visited: run.shared_visited,
            ..EngineReport::default()
        };
        for members in groups.iter().filter(|g| g.len() >= 2) {
            self.report.grouped_queries += members.len();
            self.report.attributed_visited += members
                .iter()
                .map(|&i| run.results[i as usize].timings.crawl_visited)
                .sum::<usize>();
        }
        if let Some(t) = &self.telemetry {
            t.batches.inc();
            for members in &groups {
                t.group_size.record(members.len() as u64);
            }
            t.grouped_queries.add(self.report.grouped_queries as u64);
            t.shared_visited.add(self.report.shared_visited as u64);
            t.attributed_visited
                .add(self.report.attributed_visited as u64);
            t.frontier_savings.add(
                self.report
                    .attributed_visited
                    .saturating_sub(self.report.shared_visited) as u64,
            );
        }
        run.results
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

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_testkit::box_mesh;

    #[test]
    fn the_engine_keys_its_sweep_by_its_mesh_bounds() {
        let mesh = box_mesh(6);
        let engine = BatchEngine::new(&mesh);
        // `Debug` prints every float round-trip exact: equal text is an
        // equal frame, bit for bit.
        assert_eq!(
            format!("{:?}", engine.key_bounds),
            format!("{:?}", mesh.bounding_box())
        );
    }
}
