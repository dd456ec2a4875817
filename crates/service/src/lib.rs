//! Concurrent query serving on dynamic meshes.
//!
//! The paper's monitor loop (Fig. 1e) is `SIMULATE → MONITOR → …`:
//! queries only run while the simulation is parked, and one query runs
//! at a time. This crate turns the `octopus-core` executor into a
//! query-*serving* engine along both axes the ROADMAP names:
//!
//! * [`WorkerPool`] — a **persistent pool** of parked worker threads
//!   (channel/condvar based) with scoped task submission: batches are
//!   submissions, not `thread::scope` spawns, so steady state performs
//!   zero thread spawns.
//! * [`ParallelExecutor`] — the **plan runner**: every box query the
//!   crate answers is a plan (groups of queries, each with a route)
//!   run against one [`Snapshot`], fanned out over the pool by one
//!   work-stealing cursor and reassembled in input order. The epoch-stamped scratch
//!   design makes per-worker state reuse free: workers share one
//!   immutable [`octopus_core::Octopus`] + `&Mesh`, each owns a
//!   [`octopus_core::QueryScratch`], and result buffers cycle through a
//!   capped free list ([`ParallelExecutor::recycle`]) — a warmed-up
//!   serving loop allocates no result buffers per batch.
//! * [`MonitorLoop`] — a **pipelined snapshot-ring monitor**: the
//!   simulation runs on its own thread and publishes per-step
//!   snapshots into a ring of configurable depth K (plus
//!   surface-delta-derived executors on the rare restructuring step),
//!   so queries may target *any* retained step `[N−K+1, N]` while up
//!   to K further steps compute ahead — SIMULATE ∥ MONITOR, K deep.
//!   Slots are recycled deterministically and only when no
//!   outstanding query pins them ([`MonitorLoop::pin_step`]); a
//!   pinned oldest slot back-pressures the pipeline. K = 1 is the
//!   classic double buffer. A [`LayoutPolicy`] optionally
//!   Hilbert-sorts the vertices at ingest (§IV-H1's cache-locality
//!   argument) and re-lays-out mid-run after a fixed number of
//!   restructuring events ([`RelayoutTrigger::AfterRestructures`]) —
//!   with id translation tracked per retained step, and the permutation
//!   never racing an in-flight step (pending re-layouts drain the
//!   pipeline first).
//!   Every slot also holds its executor's surface ids bucketed into an
//!   anchored grid ([`octopus_core::SurfaceGrid`]): the probe of every
//!   query the slot answers visits the cells around the query box,
//!   dilated by how far the slot's positions lie from the anchors,
//!   instead of all S surface vertices, and walks only into the
//!   connected components whose surface box that dilated box touches —
//!   exact at any drift, never maintained by deformation, rebuilt with
//!   the executor and when the newest slot has drifted past one cell.
//!
//! * [`BatchEngine`] — the **batch planner**: incoming batches are
//!   sorted by the Hilbert key of each query's centroid and swept into
//!   *overlap groups*; each group of ≥ 2 intersecting queries runs one
//!   **shared-frontier crawl** (one probe and one BFS over the union
//!   region with a per-vertex membership bitmask — a vertex inside k
//!   overlapping queries is visited once, not k times), and
//!   `Planner::decide_batch` routes each group (shared linear scan vs.
//!   crawl) per its Eq.-6 decision instead of one global mode. The
//!   engine only *plans* a batch and *absorbs* what its run produced
//!   (the [`EngineReport`], telemetry); the run itself is the plan
//!   runner's. Every monitor plans its box requests with one, built at
//!   set-up ([`MonitorLoop::set_batch_engine`] replaces it).
//!
//! **One request path.** A request is a batch — a single query is a
//! batch of one — and each kind has one entry: box batches through
//! [`MonitorLoop::query_batch`] / [`MonitorLoop::query_batch_at`] or
//! admitted through [`MonitorLoop::enqueue`] /
//! [`MonitorLoop::drain_admitted`]; each resolves a ring slot to a
//! [`Snapshot`] (measuring its grid reach on first use), plans the batch
//! (the engine's plan), runs it on the pool under the snapshot's probe
//! and hands the caller results to [`MonitorLoop::recycle`]. Every
//! back-pressure source answers with one error,
//! [`ServiceError::RetryAfter`], its [`Overload`] naming the cause. Two
//! more entries reach the executor, under the same probe and on the
//! pool's first worker scratch: [`MonitorLoop::query_shapes`], the
//! sequential shape dispatch below, and [`MonitorLoop::subscribe`] /
//! [`MonitorLoop::poll_subscriptions`], whose refreshes crawl.
//!
//! * **Standing queries** ([`MonitorLoop::subscribe`]) — a registered
//!   range query is answered per step with an incremental
//!   [`ResultDelta`] (entered/left vertices) computed off an exact
//!   drift bound — how far any vertex lies from a retained anchor copy
//!   of the positions: only candidates within that bound of the query
//!   boundary are re-tested, with a full re-crawl only when it exhausts
//!   the candidate band; a restructure patches the candidate set (see
//!   [`subscribe`]). Heterogeneous
//!   [`octopus_core::QueryShape`] batches (convex regions, exact k-NN,
//!   materialisation-free aggregates) run through
//!   [`MonitorLoop::query_shapes`]: the sequential
//!   [`octopus_core::Octopus::query_shape`] dispatch, shape by shape.
//!
//! All concurrency is `std` threads + channels; the one hand-off
//! threads race on, the pool's completion latch, takes its lock and
//! condvar from `octopus-sync` so it is model-checked under
//! `--cfg octopus_model`. The snapshot ring and the admission front are
//! plain state the monitor owns. Results are bit-identical to the
//! sequential executor (the crate's property suite verifies batch and
//! engine-routed execution against
//! [`octopus_core::Octopus::query_with`] on random and layout-permuted
//! meshes).

#![deny(missing_docs)]
// The workspace denies `unsafe_code`; the one opt-in in this crate
// (`WorkerPool::run`'s task-lifetime erasure) carries a narrow
// `#[allow]`, and any unsafe fn bodies must spell out their own
// unsafe blocks.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::all)]

mod admission;
mod batch;
mod engine;
mod latch;
mod monitor;
mod pool;
mod recycle;
mod snapshot;
pub mod subscribe;
pub mod telemetry;

pub use admission::{
    AdmissionConfig, AdmissionStats, AdmittedBatch, Backoff, DrainOutcome, ShedTicket, TicketId,
};
pub use batch::{ParallelExecutor, QueryResult};
pub use engine::{BatchEngine, BatchEngineConfig, EngineReport};
pub use monitor::{
    LayoutPolicy, MonitorLoop, Overload, RelayoutTrigger, ServiceError, ShapeQueryResult,
};
// Fault-injection primitives live in `octopus-core` (so every layer can
// fire them); re-exported here because the service layer is where test
// harnesses arm them ([`MonitorLoop::set_fault_hook`]).
pub use octopus_core::fault::{FaultAction, FaultCell, FaultHook, FaultSite};
pub use pool::{threads_spawned_total, Task, WorkerPool};
pub use recycle::RecycleStats;
pub use snapshot::Snapshot;
pub use subscribe::{ResultDelta, SubscriptionId, SubscriptionStats};
pub use telemetry::{EngineMetrics, MonitorMetrics, PoolMetrics, SeedCacheStats, ServiceTelemetry};

/// Default number of worker threads: the machine's available
/// parallelism, or 1 when it cannot be determined.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
