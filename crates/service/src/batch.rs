//! The parallel plan runner: a persistent worker pool over a shared
//! `&Octopus`, allocation-free in steady state.
//!
//! Every box query the service answers is a [`Plan`] run here against
//! one [`Snapshot`]: groups of batch indices, each with a [`Route`],
//! claimed by the workers off one atomic cursor and reassembled in
//! input order ([`ParallelExecutor::run_plan`]); crawl-routed groups
//! seed from the snapshot's probe. The batch engine
//! ([`crate::BatchEngine`]) plans every request's overlap groups and
//! scan routes; [`ParallelExecutor::execute_batch`] runs the plan of
//! singletons on the full surface probe, for callers without a
//! snapshot or an engine.

use crate::pool::{Task, WorkerPool};
use crate::recycle::{RecycleStats, ResultRecycler};
use crate::snapshot::Snapshot;
use crate::telemetry::PoolMetrics;
use octopus_core::fault::FaultHook;
use octopus_core::{Octopus, PhaseTimings, Probe, QueryScratch};
use octopus_geom::{Aabb, VertexId};
use octopus_mesh::Mesh;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One query's answer: the matching vertex ids plus the per-phase
/// execution statistics.
#[derive(Clone, Debug, Default)]
pub struct QueryResult {
    /// Vertices of the mesh inside the query box.
    pub vertices: Vec<VertexId>,
    /// Per-phase timings and work counters.
    pub timings: PhaseTimings,
}

/// How one [`Group`] of a plan executes.
pub(crate) enum Route {
    /// One [`Octopus::query_group`] call under the snapshot's probe: a
    /// shared-frontier crawl, a singleton being a group of one.
    Crawl,
    /// One shared pass over the positions, testing every member.
    Scan,
}

/// Queries of one batch that execute together.
pub(crate) struct Group {
    /// Indices into the batch.
    pub(crate) members: Vec<u32>,
    pub(crate) route: Route,
}

/// The execution plan of one batch: its groups cover every batch index
/// exactly once, and the workers claim them in this order.
pub(crate) struct Plan {
    pub(crate) groups: Vec<Group>,
}

/// What running a [`Plan`] produced.
pub(crate) struct PlanRun {
    /// Per-query results, in input order.
    pub(crate) results: Vec<QueryResult>,
    /// Distinct traversal events of the shared crawls (groups of ≥ 2);
    /// their per-member attribution is the members' `crawl_visited`.
    pub(crate) shared_visited: usize,
}

/// One worker's state, kept across batches so steady state reuses every
/// capacity: the traversal scratch, what the worker staged for the
/// current batch, and the argument arrays of the group it is executing.
#[derive(Debug)]
struct Worker {
    scratch: QueryScratch,
    /// Groups this worker's cursor fetches won in the current batch.
    claimed: usize,
    /// (batch index, result) pairs produced in the current batch.
    staged: Vec<(u32, QueryResult)>,
    shared_visited: usize,
    /// The current group's member boxes, leased result buffers and
    /// per-member timings.
    boxes: Vec<Aabb>,
    bufs: Vec<Vec<VertexId>>,
    timings: Vec<PhaseTimings>,
}

impl Worker {
    fn new(scratch: QueryScratch) -> Worker {
        Worker {
            scratch,
            claimed: 0,
            staged: Vec::new(),
            shared_visited: 0,
            boxes: Vec::new(),
            bufs: Vec::new(),
            timings: Vec::new(),
        }
    }

    /// Executes one group and stages its members' results.
    fn run_group(
        &mut self,
        snap: &Snapshot<'_>,
        queries: &[Aabb],
        group: &Group,
        recycler: &ResultRecycler,
    ) {
        let members = &group.members;
        self.claimed += 1;
        self.boxes.clear();
        self.boxes
            .extend(members.iter().map(|&i| queries[i as usize]));
        self.bufs.clear();
        self.bufs.extend(members.iter().map(|_| recycler.lease()));
        self.timings.clear();
        self.timings.resize(members.len(), PhaseTimings::default());

        match &group.route {
            Route::Scan => {
                scan_group(snap.mesh, &self.boxes, &mut self.bufs, &mut self.timings);
                if let Some(m) = snap.exec.metrics() {
                    for t in &self.timings {
                        m.record_scan(t);
                    }
                }
            }
            Route::Crawl => {
                let shared = snap.exec.query_group(
                    &mut self.scratch,
                    snap.mesh,
                    &self.boxes,
                    snap.probe,
                    &mut self.bufs,
                    &mut self.timings,
                );
                if members.len() >= 2 {
                    self.shared_visited += shared;
                }
            }
        }

        let results = self.bufs.drain(..).zip(&self.timings);
        for (&i, (vertices, &timings)) in members.iter().zip(results) {
            self.staged.push((i, QueryResult { vertices, timings }));
        }
    }
}

/// One shared linear scan over the positions, demultiplexed into the
/// member `boxes`; the pass's wall time is attributed to the first
/// member, so batch aggregation sums real time. Matches crawl semantics
/// on orphaned vertices: range queries are defined over *active*
/// vertices, so zero-degree position slots left behind by restructuring
/// are skipped.
fn scan_group(
    mesh: &Mesh,
    boxes: &[Aabb],
    results: &mut [Vec<VertexId>],
    timings: &mut [PhaseTimings],
) {
    let t0 = Instant::now();
    let union = boxes.iter().fold(Aabb::EMPTY, |acc, q| acc.union(q));
    // One pass over the positions in place. The union box rejects most
    // vertices of a selective group in one branchless test; per-member
    // routing runs only on the survivors. A NaN coordinate fails every
    // closed comparison, so such a vertex is in no result.
    for (v, &p) in mesh.positions().iter().enumerate() {
        let v = v as VertexId;
        if !union.contains(p) || mesh.neighbors(v).is_empty() {
            continue;
        }
        for (q, out) in boxes.iter().zip(results.iter_mut()) {
            if q.contains(p) {
                out.push(v);
            }
        }
    }
    for (t, r) in timings.iter_mut().zip(results.iter()) {
        t.results = r.len();
    }
    if let Some(first) = timings.first_mut() {
        first.linear_scan = t0.elapsed();
    }
}

/// A reusable pool of worker threads + per-worker scratch state
/// executing query batches against a shared [`Octopus`] + [`Mesh`].
///
/// The executor owns a persistent [`WorkerPool`]: workers are spawned
/// once at construction and park between calls, so steady-state serving
/// performs **zero thread spawns** — `execute_batch` is a task
/// submission, not a `thread::scope` spawn. All per-worker scratch
/// (visited arrays, BFS queues) persists across calls, and result
/// buffers cycle through a free list ([`ParallelExecutor::recycle`]),
/// so a warmed-up executor also performs **zero result-buffer
/// allocations** per batch. Work is distributed by work stealing — an
/// atomic cursor over the plan's groups — so skewed batches (one huge
/// query among many small ones) still balance.
///
/// ```
/// use octopus_core::Octopus;
/// use octopus_geom::{Aabb, Point3};
/// use octopus_meshgen::{tet::tetrahedralize, VoxelRegion};
/// use octopus_service::ParallelExecutor;
///
/// let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
/// let mesh = tetrahedralize(&VoxelRegion::solid_box(&bounds, 5, 5, 5))?;
/// let octopus = Octopus::new(&mesh)?;
/// let mut pool = ParallelExecutor::new(4);
/// let queries = vec![
///     Aabb::cube(Point3::splat(0.3), 0.2),
///     Aabb::cube(Point3::splat(0.7), 0.2),
/// ];
/// let results = pool.execute_batch(&octopus, &mesh, &queries);
/// assert_eq!(results.len(), 2);
/// pool.recycle(results); // optional: feeds the next batch's buffers
/// # Ok::<(), octopus_mesh::MeshError>(())
/// ```
#[derive(Debug)]
pub struct ParallelExecutor {
    pool: WorkerPool,
    /// Per-worker state, grown lazily to the widest fan-out so far.
    workers: Vec<Worker>,
    /// Free list feeding result buffers back into the next plan's
    /// leases.
    recycler: ResultRecycler,
    /// Input-order reassembly buffer, kept across batches.
    slots: Vec<Option<QueryResult>>,
    /// Recycled outer result vectors (capacity ≥ recent batch sizes).
    free_batches: Vec<Vec<QueryResult>>,
    /// Pool metrics (steal accounting), attached by the telemetry layer.
    metrics: Option<PoolMetrics>,
}

impl ParallelExecutor {
    /// An executor answering queries on `threads` workers (min 1),
    /// backed by its own freshly spawned [`WorkerPool`].
    pub fn new(threads: usize) -> ParallelExecutor {
        ParallelExecutor {
            pool: WorkerPool::new(threads),
            workers: Vec::new(),
            recycler: ResultRecycler::default(),
            slots: Vec::new(),
            free_batches: Vec::new(),
            metrics: None,
        }
    }

    /// Attaches pool metrics: from here on, plan runs record how much
    /// imbalance the work-stealing cursor absorbed
    /// (`pool_steals_total`) on top of the pool's own submission
    /// counters.
    pub fn attach_metrics(&mut self, metrics: &PoolMetrics) {
        self.pool.attach_metrics(metrics);
        self.metrics = Some(metrics.clone());
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The underlying persistent worker pool.
    pub fn worker_pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Arms the underlying pool's fault-injection cell (testing only);
    /// see [`WorkerPool::arm_faults`].
    pub fn arm_faults(&self, hook: Arc<dyn FaultHook>) {
        self.pool.arm_faults(hook);
    }

    /// Disarms the underlying pool's fault-injection cell.
    pub fn disarm_faults(&self) {
        self.pool.disarm_faults();
    }

    /// Executes every query in `queries` and returns their results in
    /// input order: the plan of singletons, each on the full surface
    /// probe. Workers share `octopus` and `mesh` immutably; each owns
    /// one scratch, so results are identical to running
    /// [`Octopus::query_with`] sequentially per query (the equivalence
    /// property suite asserts this, order-insensitively).
    ///
    /// Steady state performs no thread spawns (tasks go to the parked
    /// pool) and no result-buffer allocations once the caller feeds
    /// finished batches back via [`ParallelExecutor::recycle`].
    pub fn execute_batch(
        &mut self,
        octopus: &Octopus,
        mesh: &Mesh,
        queries: &[Aabb],
    ) -> Vec<QueryResult> {
        let snap = Snapshot {
            step: 0,
            mesh,
            exec: octopus,
            probe: Probe::Surface,
        };
        let groups = (0..queries.len() as u32)
            .map(|i| Group {
                members: vec![i],
                route: Route::Crawl,
            })
            .collect();
        self.run_plan(&snap, queries, &Plan { groups }).results
    }

    /// The first worker's traversal scratch, for the monitor's
    /// sequential paths (standing-query crawls, shape batches). They
    /// run between plans, never beside one, so borrowing it spares the
    /// monitor a second per-vertex scratch.
    pub(crate) fn scratch(&mut self, exec: &Octopus, mesh: &Mesh) -> &mut QueryScratch {
        if self.workers.is_empty() {
            self.workers.push(Worker::new(exec.make_scratch(mesh)));
        }
        &mut self.workers[0].scratch
    }

    /// The fan-out: the plan's groups are claimed by the workers off an
    /// atomic cursor (stolen in plan order), each group executes per its
    /// route into leased result buffers, and everything is reassembled
    /// in input order.
    pub(crate) fn run_plan(
        &mut self,
        snap: &Snapshot<'_>,
        queries: &[Aabb],
        plan: &Plan,
    ) -> PlanRun {
        let fan_out = self.threads().min(plan.groups.len()).max(1);
        while self.workers.len() < fan_out {
            self.workers
                .push(Worker::new(snap.exec.make_scratch(snap.mesh)));
        }

        let cursor = AtomicUsize::new(0);
        let recycler = &self.recycler;
        {
            let cursor = &cursor;
            let tasks: Vec<Task<'_>> = self
                .workers
                .iter_mut()
                .take(fan_out)
                .map(|worker| {
                    worker.claimed = 0;
                    worker.staged.clear();
                    worker.shared_visited = 0;
                    Box::new(move || loop {
                        // relaxed: a work-stealing cursor — fetch_add
                        // alone guarantees each group is claimed once;
                        // results flow back through the pool's channel,
                        // which provides the ordering.
                        let g = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(group) = plan.groups.get(g) else {
                            break;
                        };
                        worker.run_group(snap, queries, group, recycler);
                    }) as Task<'_>
                })
                .collect();
            self.pool.run(tasks);
        }

        let workers = &mut self.workers[..fan_out];
        if let Some(m) = &self.metrics {
            // Anything a worker claimed above an equal share was stolen
            // from a slower worker's notional allotment.
            m.record_steals(
                workers.iter().map(|w| w.claimed),
                plan.groups.len(),
                fan_out,
            );
        }

        // Reassemble in input order through the persistent slot buffer.
        self.slots.clear();
        self.slots.resize_with(queries.len(), || None);
        let mut run = PlanRun {
            results: self.free_batches.pop().unwrap_or_default(),
            shared_visited: 0,
        };
        for worker in workers {
            run.shared_visited += worker.shared_visited;
            for (i, r) in worker.staged.drain(..) {
                self.slots[i as usize] = Some(r);
            }
        }
        run.results.extend(
            self.slots
                .drain(..)
                .map(|r| r.expect("the plan covers every query")),
        );
        run
    }

    /// Returns a finished batch's buffers to the executor's free lists:
    /// each result's vertex vector plus the outer vector itself. After
    /// one warm-up batch, a recycle-per-batch loop allocates nothing.
    pub fn recycle(&mut self, mut results: Vec<QueryResult>) {
        for r in results.drain(..) {
            self.recycler.give_back(r.vertices);
        }
        if self.free_batches.len() < 8 {
            self.free_batches.push(results);
        }
    }

    /// Counters of the result-buffer free list (lease/reuse/allocate),
    /// the hook behind the zero-allocation steady-state tests.
    pub fn recycle_stats(&self) -> RecycleStats {
        self.recycler.stats()
    }

    /// Heap bytes of all pooled scratch state.
    pub fn memory_bytes(&self) -> usize {
        self.workers
            .iter()
            .map(|w| w.scratch.memory_bytes())
            .sum::<usize>()
            + self.recycler.memory_bytes()
    }
}
