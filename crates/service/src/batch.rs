//! The parallel batch executor: a persistent worker pool over a shared
//! `&Octopus`, allocation-free in steady state.

use crate::pool::{Task, WorkerPool};
use crate::recycle::{RecycleStats, ResultRecycler};
use crate::telemetry::PoolMetrics;
use octopus_core::fault::FaultHook;
use octopus_core::{Octopus, PhaseTimings, QueryScratch};
use octopus_geom::{Aabb, VertexId};
use octopus_mesh::Mesh;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One query's answer: the matching vertex ids plus the per-phase
/// execution statistics.
#[derive(Debug, Default)]
pub struct QueryResult {
    /// Vertices of the mesh inside the query box.
    pub vertices: Vec<VertexId>,
    /// Per-phase timings and work counters.
    pub timings: PhaseTimings,
    /// Free-list generation `vertices` was leased under; checked when
    /// the result is handed back via [`ParallelExecutor::recycle`].
    pub(crate) generation: u32,
}

impl Clone for QueryResult {
    /// Clones the payload but **not** the lease: the clone carries
    /// generation 0, so recycling both the original and its copy can
    /// never park more buffers than were leased.
    fn clone(&self) -> QueryResult {
        QueryResult {
            vertices: self.vertices.clone(),
            timings: self.timings,
            generation: 0,
        }
    }
}

/// Aggregate statistics over one executed batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchStats {
    /// Number of queries in the batch.
    pub queries: usize,
    /// Total result vertices across the batch.
    pub total_results: usize,
    /// Accumulated per-phase work (CPU time across workers, not wall
    /// time: phases of different queries run concurrently).
    pub phases: PhaseTimings,
}

impl BatchStats {
    /// Sums a batch's per-query results into one record.
    pub fn aggregate(results: &[QueryResult]) -> BatchStats {
        let mut stats = BatchStats {
            queries: results.len(),
            ..BatchStats::default()
        };
        for r in results {
            stats.total_results += r.vertices.len();
            stats.phases.accumulate(&r.timings);
        }
        stats
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
/// buffers cycle
/// through a generation-checked free list ([`ParallelExecutor::recycle`]),
/// so a warmed-up executor also performs **zero result-buffer
/// allocations** per batch. Queries are distributed by work stealing —
/// an atomic cursor over the batch — so skewed batches (one huge query
/// among many small ones) still balance.
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
    pub(crate) threads: usize,
    pub(crate) pool: Arc<WorkerPool>,
    pub(crate) scratches: Vec<QueryScratch>,
    /// Generation-checked free list feeding result buffers back into
    /// `execute_batch` (shared with the batch engine's plan executor).
    pub(crate) recycler: ResultRecycler,
    /// Per-worker staging of (query index, result) pairs, kept across
    /// batches so steady state reuses their capacity.
    worker_outs: Vec<Vec<(usize, QueryResult)>>,
    /// Input-order reassembly buffer, kept across batches.
    pub(crate) slots: Vec<Option<QueryResult>>,
    /// Recycled outer result vectors (capacity ≥ recent batch sizes).
    pub(crate) free_batches: Vec<Vec<QueryResult>>,
    /// Per-worker shared-frontier scratch for the batch engine's
    /// overlap groups (sized lazily, reused across batches).
    pub(crate) group_scratches: Vec<octopus_core::GroupScratch>,
    /// Per-worker staging of the batch engine's plan executor.
    pub(crate) plan_outs: Vec<crate::engine::PlanOut>,
    /// Pool metrics (steal accounting), attached by the telemetry layer.
    pub(crate) metrics: Option<PoolMetrics>,
}

impl ParallelExecutor {
    /// An executor answering queries on `threads` workers (min 1),
    /// backed by its own freshly spawned [`WorkerPool`].
    pub fn new(threads: usize) -> ParallelExecutor {
        ParallelExecutor::with_pool(Arc::new(WorkerPool::new(threads)))
    }

    /// An executor sharing an existing [`WorkerPool`] (several executors
    /// — e.g. serving different meshes — can share one set of threads).
    pub fn with_pool(pool: Arc<WorkerPool>) -> ParallelExecutor {
        ParallelExecutor {
            threads: pool.threads(),
            pool,
            scratches: Vec::new(),
            recycler: ResultRecycler::default(),
            worker_outs: Vec::new(),
            slots: Vec::new(),
            free_batches: Vec::new(),
            group_scratches: Vec::new(),
            plan_outs: Vec::new(),
            metrics: None,
        }
    }

    /// Attaches pool metrics: from here on, batch executions record how
    /// much imbalance the work-stealing cursor absorbed
    /// (`pool_steals_total`) on top of the pool's own submission
    /// counters.
    pub fn attach_metrics(&mut self, metrics: &PoolMetrics) {
        self.pool.attach_metrics(metrics);
        self.metrics = Some(metrics.clone());
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The underlying persistent worker pool.
    pub fn worker_pool(&self) -> &Arc<WorkerPool> {
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

    pub(crate) fn ensure_scratches(&mut self, octopus: &Octopus, mesh: &Mesh, n: usize) {
        while self.scratches.len() < n {
            self.scratches.push(octopus.make_scratch(mesh));
        }
    }

    /// Executes every query in `queries` and returns their results in
    /// input order. Workers share `octopus` and `mesh` immutably; each
    /// owns one scratch, so results are identical to running
    /// [`Octopus::query`] sequentially per query (the equivalence
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
        let workers = self.threads.min(queries.len()).max(1);
        self.ensure_scratches(octopus, mesh, workers);
        while self.worker_outs.len() < workers {
            self.worker_outs.push(Vec::new());
        }

        let cursor = AtomicUsize::new(0);
        let recycler = &self.recycler;
        {
            let cursor = &cursor;
            let tasks: Vec<Task<'_>> = self
                .scratches
                .iter_mut()
                .zip(self.worker_outs.iter_mut())
                .take(workers)
                .map(|(scratch, mine)| {
                    mine.clear();
                    Box::new(move || loop {
                        // relaxed: a work-stealing cursor — fetch_add
                        // alone guarantees each index is claimed once;
                        // results flow back through the pool's channel,
                        // which provides the ordering.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(q) = queries.get(i) else { break };
                        let (generation, mut vertices) = recycler.lease();
                        let timings = octopus.query_with(scratch, mesh, q, &mut vertices);
                        mine.push((
                            i,
                            QueryResult {
                                vertices,
                                timings,
                                generation,
                            },
                        ));
                    }) as Task<'_>
                })
                .collect();
            self.pool.run(tasks);
        }

        if let Some(m) = &self.metrics {
            // Each worker's staged count is the number of queries its
            // cursor fetches won; anything above an equal share was
            // stolen from a slower worker's notional allotment.
            m.record_steals(
                self.worker_outs.iter().take(workers).map(Vec::len),
                queries.len(),
                workers,
            );
        }

        // Reassemble in input order through the persistent slot buffer.
        self.slots.clear();
        self.slots.resize_with(queries.len(), || None);
        for mine in self.worker_outs.iter_mut().take(workers) {
            for (i, r) in mine.drain(..) {
                self.slots[i] = Some(r);
            }
        }
        let mut results = self.free_batches.pop().unwrap_or_default();
        results.extend(
            self.slots
                .drain(..)
                .map(|r| r.expect("work stealing covers every query")),
        );
        results
    }

    /// Returns a finished batch's buffers to the executor's free lists:
    /// each result's vertex vector (generation-checked) plus the outer
    /// vector itself. After one warm-up batch, a recycle-per-batch loop
    /// allocates nothing.
    pub fn recycle(&mut self, mut results: Vec<QueryResult>) {
        for r in results.drain(..) {
            self.recycler.give_back(r.generation, r.vertices);
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
        self.scratches
            .iter()
            .map(QueryScratch::memory_bytes)
            .sum::<usize>()
            + self
                .group_scratches
                .iter()
                .map(octopus_core::GroupScratch::memory_bytes)
                .sum::<usize>()
            + self.recycler.memory_bytes()
    }
}
