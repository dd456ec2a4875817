//! The pipelined snapshot-ring monitor loop: SIMULATE ∥ MONITOR.
//!
//! The paper's loop (Fig. 1e) is stop-the-world: the monitor queries
//! the live position array, so it can only run while the simulation is
//! parked between steps. [`MonitorLoop`] breaks that coupling with a
//! **snapshot ring of configurable depth K**:
//!
//! ```text
//!   sim thread    : … step N+1 ── step N+2 ── … ── step N+K   (≤ K ahead)
//!                       │ hand-off   │ hand-off
//!   ring (K slots): … [N-K+1] … [N-1] [N]                     (≤ K retained)
//!   monitor thread: queries may target ANY retained step
//! ```
//!
//! The simulation thread publishes one snapshot per completed step into
//! the ring; monitoring queries may target *any* retained step in
//! `[N−K+1, N]` ([`MonitorLoop::query_batch_at`], beside the
//! latest-step [`MonitorLoop::query_batch`]) while up to K further
//! steps compute ahead. With K = 1 the ring degenerates to
//! the classic double buffer: one retained snapshot, one step in
//! flight.
//!
//! **Hand-off.** After every step the simulation thread fills a
//! recycled `Vec<Point3>` with the new positions. On a deformation step
//! it sends that buffer over a channel and the new slot is the latest
//! slot's mesh with it as position array
//! ([`octopus_mesh::Mesh::with_positions`]). Positions move once per
//! step — the simulation thread's copy, overlapped with queries — and
//! the monitor thread copies and allocates nothing. The producer also
//! measures what it hands off, while the buffer is hot in its cache:
//! the command carries the latest slot's surface grid and the standing
//! queries' anchor, and the update carries back the buffer's reach
//! against that grid and its drift against that anchor, so no request
//! and no publish pays an O(S) or O(V) pass over a buffer the other
//! core has just written. On the rare
//! restructuring step (detected exactly via the mesh's
//! [`octopus_mesh::Mesh::restructure_epoch`]) it sends its own mesh's
//! connectivity handles around the same buffer, plus the step's surface
//! delta, and the monitor *derives* the slot's executor from the
//! previous one by replaying that delta
//! ([`octopus_core::Octopus::restructured`]) — older retained slots
//! keep their own connectivity and its executor, so queries against
//! pre-restructuring steps stay exact.
//!
//! **Who owns what.** A slot owns one thing, its position array. What
//! derives from connectivity it shares behind handles with the slots
//! published since the last restructure or re-layout: the cell arrays
//! and the CSR (inside its [`Mesh`] — shared with the [`Simulation`]'s
//! mesh too, whose next restructuring operation copies only the cell
//! blocks it writes and leaves the ring's untouched), the executor, the
//! surface grid and the id translation (which a restructure leaves as
//! it is: the ids it appends map to themselves). The restructuring
//! state (the vertex→cell incidence operations read face counts and
//! the cells around a vertex from, and the boundary counts) lives only
//! in the simulation's mesh; no ring slot carries it. The serving
//! side's knowledge of the surface and of the connected components is
//! each slot executor's component map, whose per-component surface
//! lists a restructure patches from the delta (the planner reads S off
//! them as well). After set-up nothing
//! on this side extracts a surface, rebuilds an adjacency or copies
//! one: a restructure costs the delta, a re-layout a relabelling.
//!
//! Position buffers rotate: simulation thread (fills one per step) →
//! the new slot → when the slot is retired, `spare_bufs` → back to the
//! simulation thread with the next `begin_step` (a step that fails
//! sends its buffer back unfilled). At most `2 · depth` exist — one per
//! slot, and `depth` between `spare_bufs` and the steps in flight: the
//! simulation thread allocates only when `spare_bufs` was empty, so
//! those two never hold more than `depth` together — each with exactly
//! one holder. A buffer shorter than the mesh (from before a
//! vertex-appending restructure) simply grows when the simulation
//! refills it; a re-layout drops the slots it truncates, buffers
//! included.
//!
//! **The surface grid.** Beside its executor every slot holds that
//! executor's surface ids bucketed by position, and the bounding box
//! of each connected component's surface
//! ([`octopus_core::SurfaceGrid`], built by
//! [`octopus_core::Octopus::surface_grid`]), which is the probe of
//! every query the slot answers and what spares it the directed walk
//! into components its box cannot touch. Ownership follows the
//! executor: deformation slots share the grid they inherited, set-up
//! and a re-layout build a fresh grid from the executor's ids, its
//! component labels and the slot's positions, and a restructuring step
//! patches the latest slot's grid from the delta
//! ([`octopus_core::Octopus::patched_surface_grid`]: the removed ids
//! dropped, the added ones filed at the slot's positions, the component
//! bounds taken again under the new labels; the other ids keep their
//! anchors).
//! Deformation does not maintain it: a slot's *reach* — how far its
//! positions lie from the grid's anchors, one O(S) pass — is measured
//! once and the probe dilates by it, which keeps every answer exact at
//! any drift. For a deformation step the simulation thread measures it
//! against the grid its command carried, and the monitor takes the
//! value when that grid (by pointer — the update holds it, so the
//! address cannot be reused) is still the one the new slot inherits.
//! Every other slot — the ingest slot, a restructure (its grid is
//! patched on this side), a re-layout, a step whose grid was rebuilt
//! while it was in flight — has its reach measured by the first
//! request that resolves it, counted in `surface_grid_reach_lazy_total`.
//! When the newest slot's reach has outgrown one grid cell — at
//! publish, or at that first request — the grid is rebuilt from that
//! slot and later slots inherit it; an older pinned slot keeps the grid
//! it was born with. A slot no finite reach bounds (a NaN/∞ surface
//! position) is answered by the full surface probe and never rebuilds:
//! its positions must not become anchors.
//!
//! **Reclamation and back-pressure.** Publishing into a full ring
//! recycles the *oldest* slot — deterministically, and only when no
//! outstanding query pins it ([`MonitorLoop::pin_step`] /
//! [`MonitorLoop::unpin_step`]). A pinned oldest slot back-pressures
//! the pipeline: [`MonitorLoop::finish_step`] returns
//! [`ServiceError::RetryAfter`] with cause [`Overload::RingPinned`]
//! until the pin is released, and [`MonitorLoop::begin_step`] refuses
//! to run more than K steps ahead.
//! Each slot counts its own pins. Only the monitor changes them, through
//! `&mut self`, so no pin can land between the check that the oldest
//! slot is unpinned and its eviction.
//!
//! **Re-layout.** A [`LayoutPolicy`] optionally applies the §IV-H1
//! curve order at ingest and re-applies it mid-run after a fixed number
//! of restructuring events ([`RelayoutTrigger::AfterRestructures`]).
//! Re-layout changes the id space wholesale, so it is *never* raced
//! against in-flight steps: the trigger only marks it pending, new
//! steps stall, and the permutation is applied at the first step
//! boundary where the pipeline has drained and no snapshot is pinned —
//! a runtime guarantee, not a `debug_assert`.
//!
//! Because each slot *is* the mesh state at the end of its step, every
//! query answered against it returns exactly what a stop-the-world
//! monitor would have returned at that step — the crate's tests (and
//! `examples/serve.rs`) verify result equality against a sequential
//! reference run for every retained step at every ring depth.
//!
//! **Supervision.** The simulation thread is supervised: a panic while
//! stepping is caught on the sim thread, its payload is carried back to
//! the monitor, and [`MonitorLoop::finish_step`] surfaces it as
//! [`ServiceError::SimulationFailed`] *without* tearing the service
//! down — every retained ring step stays queryable, standing queries
//! keep polling their last-good step, and
//! [`MonitorLoop::restart_simulation`] builds a replacement simulation
//! from the newest published snapshot (continuing the step numbering).
//! [`MonitorLoop::shutdown`] reports the join outcome instead of
//! discarding it. The admission front ([`MonitorLoop::enqueue`] /
//! [`MonitorLoop::drain_admitted`]) queues box batches in bounded,
//! fair, deadline-shedding queues; every back-pressure source — a full
//! queue, a pinned ring — answers with one structured
//! [`ServiceError::RetryAfter`].
//!
//! # Failure-mode catalogue
//!
//! Every [`ServiceError`] variant, its cause, and what a caller should
//! do about it:
//!
//! | Variant | Cause | Recommended caller action |
//! |---|---|---|
//! | [`ServiceError::Mesh`] | A mesh/simulation operation failed — a genuine restructure error, or a fault-injected [`octopus_mesh::MeshError::External`]. The sim thread is **alive** and its state untouched. | Retry the step (`begin_step`/`finish_step`); report the error upstream if it persists. |
//! | [`ServiceError::SimulationStopped`] | The sim thread exited cleanly (shutdown already ran, or the monitor half was torn down). | Terminal for this loop; build a new [`MonitorLoop`] or call [`MonitorLoop::restart_simulation`]. |
//! | [`ServiceError::SimulationFailed`] | The sim thread **panicked**; the message is the panic payload. Retained snapshots remain queryable; in-flight steps are lost. | Keep serving reads from retained steps; call [`MonitorLoop::restart_simulation`] to resume stepping from the newest snapshot, then re-fill the pipeline. |
//! | [`ServiceError::SimulationAlive`] | [`MonitorLoop::restart_simulation`] was called while the sim thread is healthy. | Don't restart a healthy simulation; use [`MonitorLoop::shutdown`] first if a swap is really intended. |
//! | [`ServiceError::NoStepInFlight`] | [`MonitorLoop::finish_step`] without a prior [`MonitorLoop::begin_step`]. | Fix the driving loop (begin before finish). |
//! | [`ServiceError::RetryAfter`] | Back-pressure, from every source: a tenant queue is full ([`Overload::QueueFull`], refused by [`MonitorLoop::enqueue`]), or publishing needs to recycle the oldest slot but a query pin holds it or a fault hook denied the publish ([`Overload::RingPinned`], refused by [`MonitorLoop::finish_step`]; the update stays queued). Each is counted in [`crate::AdmissionStats`]. | Wait `suggested_backoff` (or use [`crate::Backoff::run`]) and retry — after unpinning (or finishing with) the pinned step, for a pinned ring; shed load upstream if it keeps happening. |
//! | [`ServiceError::StepNotRetained`] | Query targeted a step outside the ring's retained window. | Re-issue against [`MonitorLoop::retained_steps`]; deepen the ring if the window is too short. |
//! | [`ServiceError::StepNotPinned`] | [`MonitorLoop::unpin_step`] on a step with no pins. | Fix pin/unpin pairing in the caller. |
//! | [`ServiceError::VertexOutOfRange`] | [`MonitorLoop::translate_vertex`] / [`MonitorLoop::translate_vertex_at`] got an id at or past the snapshot's vertex count, under any layout policy. | Fix the caller: pass an id below the [`Mesh::num_vertices`] of the step asked ([`MonitorLoop::snapshot_at`]). |
//!
//! `RetryAfter` semantics: the operation was *refused before doing any
//! work* — nothing was partially executed, so the retry is safe and
//! idempotent. `suggested_backoff` scales with queue pressure and is
//! capped by [`crate::AdmissionConfig::max_backoff`]; callers honouring
//! it (e.g. via [`crate::Backoff`]) converge instead of stampeding.

use crate::admission::{
    Admission, AdmissionConfig, AdmissionStats, AdmittedBatch, DrainOutcome, TicketId,
};
use crate::batch::{ParallelExecutor, QueryResult};
use crate::engine::{BatchEngine, BatchEngineConfig, EngineReport};
use crate::recycle::RecycleStats;
use crate::snapshot::Snapshot;
use crate::subscribe::{
    max_displacement, ResultDelta, SubscriptionId, SubscriptionRegistry, SubscriptionStats,
};
use crate::telemetry::{SeedCacheStats, ServiceTelemetry, SimMetrics};
use octopus_core::fault::{FaultAction, FaultCell, FaultHook, FaultSite};
use octopus_core::layout::{curve_permutation, CurveKind};
use octopus_core::{Octopus, PhaseTimings, Probe, QueryShape, ShapeResult, SurfaceGrid};
use octopus_geom::{Aabb, Point3, VertexId};
use octopus_mesh::{Mesh, MeshError, SurfaceDelta};
use octopus_sim::Simulation;
use octopus_telemetry::{Registry, TelemetrySnapshot};
use std::any::Any;
use std::collections::VecDeque;
use std::ops::RangeInclusive;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When (if ever) a curve [`LayoutPolicy`] re-applies its vertex order
/// after ingest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RelayoutTrigger {
    /// Only lay out at ingest.
    #[default]
    Never,
    /// Re-apply after this many restructuring events.
    AfterRestructures(u32),
}

/// Vertex-layout policy applied by the service setup (§IV-H1).
///
/// "By rearranging the vertices based on spatial proximity we can reduce
/// the number of random reads required on average and thereby improve
/// the L1 and L2 data cache hit rate" — the crawl walks mesh edges, so
/// neighbouring vertices should sit close in memory. A curve policy
/// permutes the simulation's vertices once at ingest (and, per its
/// [`RelayoutTrigger`], again after a set number of restructuring
/// events); all query results are then in the permuted id space, and
/// [`MonitorLoop::translate_vertex`] maps ingest-time ids forward.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LayoutPolicy {
    /// Keep the application's vertex order untouched.
    #[default]
    Preserve,
    /// Hilbert-sort the vertices at ingest (the paper's choice).
    Hilbert {
        /// When to re-apply the layout mid-run. Restructuring appends
        /// new vertices at the end of the id space, so churn slowly
        /// erodes the curve order on long-running simulations.
        trigger: RelayoutTrigger,
    },
}

impl LayoutPolicy {
    /// Hilbert at ingest, no mid-run re-layout.
    pub fn hilbert() -> LayoutPolicy {
        LayoutPolicy::Hilbert {
            trigger: RelayoutTrigger::Never,
        }
    }

    fn curve(self) -> Option<CurveKind> {
        match self {
            LayoutPolicy::Preserve => None,
            LayoutPolicy::Hilbert { .. } => Some(CurveKind::Hilbert),
        }
    }

    /// The policy's re-layout trigger ([`RelayoutTrigger::Never`] for
    /// [`LayoutPolicy::Preserve`]).
    pub fn trigger(self) -> RelayoutTrigger {
        match self {
            LayoutPolicy::Preserve => RelayoutTrigger::Never,
            LayoutPolicy::Hilbert { trigger } => trigger,
        }
    }
}

/// What kind of overload produced a [`ServiceError::RetryAfter`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Overload {
    /// A tenant's admission queue is at capacity.
    QueueFull {
        /// The tenant whose queue refused the batch.
        tenant: u32,
        /// Its queue depth at refusal time.
        depth: usize,
    },
    /// The snapshot ring cannot recycle its oldest slot (pinned).
    RingPinned {
        /// The pinned oldest step blocking reclamation.
        pinned_step: u32,
    },
}

impl std::fmt::Display for Overload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Overload::QueueFull { tenant, depth } => {
                write!(f, "tenant {tenant} queue full at depth {depth}")
            }
            Overload::RingPinned { pinned_step } => {
                write!(f, "snapshot ring pinned at step {pinned_step}")
            }
        }
    }
}

/// Errors surfaced by the service layer.
///
/// The failure-mode catalogue at the top of
/// `crates/service/src/monitor.rs` gives each variant's cause and the
/// recommended caller action.
#[derive(Debug)]
pub enum ServiceError {
    /// The underlying mesh/simulation operation failed.
    Mesh(MeshError),
    /// The simulation thread is gone (it exited cleanly or the monitor
    /// was shut down). For panics see
    /// [`ServiceError::SimulationFailed`].
    SimulationStopped,
    /// The simulation thread panicked; the string is the panic payload.
    /// Retained ring steps stay queryable; recover with
    /// [`MonitorLoop::restart_simulation`].
    SimulationFailed(String),
    /// [`MonitorLoop::restart_simulation`] was called while the
    /// simulation thread is still healthy.
    SimulationAlive,
    /// Back-pressure: the operation was refused *before doing any
    /// work*; retry after the suggested backoff (see
    /// [`crate::Backoff`]).
    RetryAfter {
        /// How long the caller should wait before retrying.
        suggested_backoff: Duration,
        /// What resource is saturated.
        cause: Overload,
    },
    /// `finish_step` was called with no step in flight.
    NoStepInFlight,
    /// The requested step is outside the ring's retained window.
    StepNotRetained {
        /// The step that was asked for.
        step: u32,
        /// Oldest step currently retained.
        oldest: u32,
        /// Latest (newest) step currently retained.
        latest: u32,
    },
    /// `unpin_step` was called on a step with no outstanding pins.
    StepNotPinned {
        /// The step in question.
        step: u32,
    },
    /// A vertex id at or past the snapshot's vertex count was asked to
    /// be translated.
    VertexOutOfRange {
        /// The offending (ingest-time) vertex id.
        vertex: VertexId,
        /// Number of vertices in the snapshot asked.
        num_vertices: usize,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Mesh(e) => write!(f, "simulation step failed: {e}"),
            ServiceError::SimulationStopped => write!(f, "simulation thread has stopped"),
            ServiceError::SimulationFailed(msg) => {
                write!(f, "simulation thread panicked: {msg}")
            }
            ServiceError::SimulationAlive => {
                write!(f, "restart refused: the simulation thread is still running")
            }
            ServiceError::RetryAfter {
                suggested_backoff,
                cause,
            } => write!(f, "overloaded ({cause}); retry after {suggested_backoff:?}"),
            ServiceError::NoStepInFlight => write!(f, "no simulation step in flight"),
            ServiceError::StepNotRetained {
                step,
                oldest,
                latest,
            } => write!(
                f,
                "step {step} is not retained (ring holds [{oldest}, {latest}])"
            ),
            ServiceError::StepNotPinned { step } => {
                write!(f, "step {step} has no outstanding pins")
            }
            ServiceError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} is out of range (the snapshot has {num_vertices} vertices)"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

impl ServiceError {
    /// For retryable back-pressure errors, the delay the caller should
    /// wait before retrying (`Duration::ZERO` when the server offered
    /// no estimate); `None` for non-retryable errors. The contract
    /// [`crate::Backoff::run`] keys on.
    pub fn retry_hint(&self) -> Option<Duration> {
        match self {
            ServiceError::RetryAfter {
                suggested_backoff, ..
            } => Some(*suggested_backoff),
            _ => None,
        }
    }
}

impl From<MeshError> for ServiceError {
    fn from(e: MeshError) -> ServiceError {
        ServiceError::Mesh(e)
    }
}

/// Renders a caught panic payload for
/// [`ServiceError::SimulationFailed`].
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

enum Cmd {
    /// Advance one step, recycling `reuse` as the outgoing positions
    /// buffer (it comes back unfilled if the step fails), and measure
    /// the filled buffer for the monitor: its reach against `grid` (the
    /// latest slot's when the command was sent) on a deformation step,
    /// and its drift against the standing queries' `anchor` (with the
    /// anchor's generation; `None` without subscriptions) on any step.
    Step {
        reuse: Option<Vec<Point3>>,
        grid: Arc<SurfaceGrid>,
        anchor: Option<(Arc<Vec<Point3>>, u64)>,
    },
    /// Relabel the simulation's vertices (layout policy re-application).
    /// Sent only while the pipeline is drained — the channel orders it
    /// before any subsequent `Step`.
    Relayout(Vec<VertexId>),
    Stop,
}

enum Update {
    /// Deformation only: positions changed, connectivity did not.
    /// `reach` is [`SurfaceGrid::reach`] of `positions` against `grid`,
    /// the command's grid, held here until the monitor has compared it
    /// with the grid the new slot inherits (so no other grid can have
    /// taken its address). `drift` is the standing queries' `D` with
    /// the generation of the anchor it was measured against.
    Deformed {
        step: u32,
        positions: Vec<Point3>,
        grid: Arc<SurfaceGrid>,
        reach: f32,
        drift: Option<(u64, f32)>,
    },
    /// Restructuring fired: the simulation's connectivity handles
    /// around the positions buffer ([`Mesh::with_positions`], without
    /// the simulation's restructuring state) + surface delta replay.
    /// `drift` as for a deformation, over the ids the anchor holds.
    Restructured {
        step: u32,
        mesh: Mesh,
        delta: SurfaceDelta,
        drift: Option<(u64, f32)>,
    },
    /// The step failed recoverably: the simulation thread is alive and
    /// its state untouched (e.g. an injected restructure failure).
    /// `reuse` is the step's buffer, coming back unfilled.
    Failed {
        error: MeshError,
        reuse: Option<Vec<Point3>>,
    },
    /// The simulation thread panicked while stepping; it sent this and
    /// exited. The string is the rendered panic payload.
    Panicked(String),
}

/// Supervisor's view of the simulation thread.
#[derive(Clone, Debug, PartialEq, Eq)]
enum SimState {
    /// Stepping normally.
    Running,
    /// The thread panicked (payload inside); retained snapshots remain
    /// queryable, [`MonitorLoop::restart_simulation`] recovers.
    Failed(String),
    /// The thread exited cleanly without a shutdown call.
    Stopped,
}

/// One retained snapshot: the mesh state at the end of `step` plus the
/// executor for its connectivity.
struct Slot {
    step: u32,
    /// Positions (this slot's own array) and connectivity (shared with
    /// the slots a deformation step derived from it or it was derived
    /// from) at `step` — never the restructuring state: the surface of
    /// this slot is `exec`'s index.
    mesh: Mesh,
    /// Shared exactly as far as the connectivity is (deformation steps
    /// change positions only; the executor is position-free).
    exec: Arc<Octopus>,
    /// `exec`'s surface ids bucketed by anchor position; shared by the
    /// slots that inherited it, replaced wherever `exec` is and when
    /// the newest slot's reach outgrows a cell.
    grid: Arc<SurfaceGrid>,
    /// [`SurfaceGrid::reach`] of `mesh` against `grid` (`∞` when
    /// nothing bounds it): measured by the simulation thread for a
    /// deformation step whose grid is still the one its command
    /// carried, otherwise by the first request that resolves the slot
    /// (`None` until then).
    reach: Option<f32>,
    /// Ingest-time id → this slot's id space (`None` under
    /// [`LayoutPolicy::Preserve`]); an id at or past its length maps to
    /// itself — restructuring appends ids at the end of both spaces —
    /// so every slot since the last re-layout shares one map.
    translation: Option<Arc<Vec<VertexId>>>,
    /// Outstanding query pins ([`MonitorLoop::pin_step`]): while
    /// non-zero the slot is neither evicted nor re-laid-out.
    pins: u32,
    /// [`typical_edge`] of `mesh`, measured the first time a grid build
    /// or a subscription asks ([`Slot::typical_edge`]).
    typical_edge: Option<f32>,
}

impl Slot {
    /// The borrowed view every query path runs against: the grid probe
    /// at the slot's measured reach, the full surface probe while no
    /// finite reach is known.
    fn view(&self) -> Snapshot<'_> {
        let probe = match self.reach {
            Some(reach) if reach.is_finite() => Probe::Grid {
                grid: &self.grid,
                reach,
            },
            _ => Probe::Surface,
        };
        Snapshot {
            step: self.step,
            mesh: &self.mesh,
            exec: &self.exec,
            probe,
        }
    }

    /// Takes `reach`, measured against `self.grid`. The newest slot
    /// whose finite reach has outgrown one cell rebuilds its grid from
    /// its own positions instead (anchors = now) for every later slot
    /// to inherit — under a bounded displacement field this never fires
    /// after set-up, under a monotone one every few steps at O(S). Only
    /// a *finite* reach rebuilds: a slot with a non-finite surface
    /// position would only anchor the new grid at it and leave every
    /// later slot unbounded too, so it keeps the old anchors, is
    /// answered by the full probe, and the grid is back the moment the
    /// positions are finite again.
    fn settle_reach(&mut self, reach: f32, newest: bool, stats: &mut SeedCacheStats) {
        if newest && reach.is_finite() && reach > self.grid.cell() {
            self.rebuild_grid();
            stats.stale += 1;
            stats.insertions += 1;
            // Every surface position is finite and is its own anchor.
            self.reach = Some(0.0);
        } else {
            self.reach = Some(reach);
        }
    }

    /// [`typical_edge`] of the slot's mesh: one bounding-box pass, the
    /// first time it is asked.
    fn typical_edge(&mut self) -> f32 {
        *self
            .typical_edge
            .get_or_insert_with(|| typical_edge(&self.mesh))
    }

    /// Replaces the grid with one anchored at the slot's own positions.
    fn rebuild_grid(&mut self) {
        let edge = self.typical_edge();
        self.grid = build_grid(&self.exec, &self.mesh, edge);
    }

    /// Maps ingest-time id `v` into this slot's id space.
    fn translate(&self, v: VertexId) -> Result<VertexId, ServiceError> {
        let num_vertices = self.mesh.num_vertices();
        if v as usize >= num_vertices {
            return Err(ServiceError::VertexOutOfRange {
                vertex: v,
                num_vertices,
            });
        }
        Ok(self
            .translation
            .as_ref()
            .and_then(|t| t.get(v as usize).copied())
            .unwrap_or(v))
    }
}

/// Typical edge length of `mesh`: the cube root of its bounding volume
/// per vertex. The scale both derived constants below are stated in.
fn typical_edge(mesh: &Mesh) -> f32 {
    (mesh.bounding_box().volume() / mesh.num_vertices().max(1) as f64)
        .cbrt()
        .max(f64::MIN_POSITIVE) as f32
}

/// Cell edge of a slot's surface grid, in typical edges (2 and 8
/// measured within 2× of this at every reach — nothing to tune). One
/// cell is also the reach above which the newest slot rebuilds.
const GRID_CELL_EDGES: f32 = 4.0;

/// How far vertices may lie from where a standing query last crawled
/// before its candidate band is used up, by default, in typical edges.
/// Larger, and subscriptions refresh less often but retain (and, as
/// drift grows, re-test) more candidates.
const DEFAULT_BAND_EDGES: f32 = 8.0;

/// The surface grid of `exec` anchored at `mesh`'s positions — surface
/// ids bucketed, components bounded — in cells of [`GRID_CELL_EDGES`]
/// times `edge`, `mesh`'s [`typical_edge`]. The single site behind
/// set-up, re-layout and drift rebuild; a restructure patches the grid
/// instead.
fn build_grid(exec: &Octopus, mesh: &Mesh, edge: f32) -> Arc<SurfaceGrid> {
    Arc::new(exec.surface_grid(mesh.positions(), GRID_CELL_EDGES * edge))
}

/// A shape query's answer plus its phase timings — the heterogeneous
/// counterpart of [`QueryResult`], returned by
/// [`MonitorLoop::query_shapes`].
#[derive(Clone, Debug)]
pub struct ShapeQueryResult {
    /// The shape's answer.
    pub result: ShapeResult,
    /// Phase timings of the execution that produced it.
    pub timings: PhaseTimings,
}

/// The overlapped monitor loop: owns a simulation (running on its own
/// thread), a ring of the last ≤ K completed steps' snapshots, and the
/// query machinery ([`Octopus`] + [`ParallelExecutor`]) answering
/// against any retained snapshot.
///
/// Driving pattern (depth 1 shown; deeper rings call
/// [`MonitorLoop::fill_pipeline`] instead of `begin_step`):
///
/// ```text
/// loop {
///     monitor.begin_step()?;                  // step N+1 starts computing
///     … monitor.query_batch(&qs) …            // answered against step N
///     … monitor.query_batch_at(older, &qs)? … // any retained step
///     monitor.finish_step()?;                 // ring advances to N+1
/// }
/// ```
///
/// Every result batch goes back through [`MonitorLoop::recycle`].
pub struct MonitorLoop {
    cmd_tx: Sender<Cmd>,
    upd_rx: Receiver<Update>,
    handle: Option<SimHandle>,
    /// Supervisor state: healthy, panicked (payload retained), or
    /// cleanly exited.
    sim_state: SimState,
    /// Shared fault-injection slot: the sim thread and the ring publish
    /// path consult it; disarmed it costs one relaxed load per site.
    fault: Arc<FaultCell>,
    /// Admission front (bounded fair queues + deadline shedding) and
    /// the count of every back-pressure refusal, ring pins included.
    admission: Admission,
    /// Ring depth K: max retained snapshots and max in-flight steps.
    depth: usize,
    /// Retained snapshots, oldest at the front; steps are contiguous.
    slots: VecDeque<Slot>,
    /// Steps commanded but not yet absorbed (≤ `depth`).
    in_flight: usize,
    /// The plan runner; its first worker's scratch also serves the
    /// sequential paths (standing queries, shapes).
    pool: ParallelExecutor,
    /// Recycled position buffers for the sim thread's hand-offs: the
    /// storage of retired slots.
    spare_bufs: Vec<Vec<Point3>>,
    policy: LayoutPolicy,
    restructures_since_layout: u32,
    relayouts: u32,
    /// A re-layout has been requested (by trigger or caller) but not
    /// yet applied: new steps stall until the pipeline drains and all
    /// pins release, then the permutation is applied at a step
    /// boundary.
    relayout_pending: bool,
    /// The batch query engine (overlap grouping + shared frontiers +
    /// planner routing) that plans every box request.
    engine: BatchEngine,
    /// What the surface grids did so far (see
    /// [`MonitorLoop::seed_cache_stats`]).
    grid_stats: SeedCacheStats,
    /// Slots whose reach a request had to measure (no measured reach
    /// came with them).
    reach_lazy: u64,
    /// Standing queries answered with incremental deltas, and the
    /// anchor their drift bound is measured from (see
    /// [`crate::subscribe`]).
    subs: SubscriptionRegistry,
    /// Registry handles wired through every layer by
    /// [`MonitorLoop::attach_telemetry`]; `None` records nothing.
    telemetry: Option<ServiceTelemetry>,
    /// The simulation thread's own histograms, shared with it (and
    /// with every replacement [`MonitorLoop::restart_simulation`]
    /// starts): set by the first attach, empty until then.
    sim_metrics: Arc<OnceLock<SimMetrics>>,
}

impl MonitorLoop {
    /// Wraps `sim`, snapshotting its current state (step 0 unless the
    /// caller pre-ran it) and answering queries on `threads` workers.
    /// The simulation thread starts immediately but idles until
    /// [`MonitorLoop::begin_step`]. Vertex order is preserved; ring
    /// depth is 1 (the classic double buffer). Use
    /// [`MonitorLoop::with_config`] for cache-conscious layouts and
    /// deeper pipelines.
    pub fn new(sim: Simulation, threads: usize) -> Result<MonitorLoop, MeshError> {
        MonitorLoop::with_config(sim, threads, LayoutPolicy::Preserve, 1)
    }

    /// Full configuration: `policy` optionally permutes the
    /// simulation's vertices into curve order *before* the simulation
    /// thread starts (results are then in the permuted id space —
    /// [`MonitorLoop::translate_vertex`] maps ingest-time ids forward),
    /// and `depth` sets the snapshot ring's K: up to `depth` retained
    /// steps queryable at once while up to `depth` further steps
    /// compute ahead. `depth` is clamped to ≥ 1; `depth == 1`
    /// reproduces the double-buffered behaviour exactly.
    pub fn with_config(
        mut sim: Simulation,
        threads: usize,
        policy: LayoutPolicy,
        depth: usize,
    ) -> Result<MonitorLoop, MeshError> {
        let depth = depth.max(1);
        let translation = policy.curve().map(|curve| {
            let perm = curve_permutation(sim.mesh(), curve);
            sim.permute_vertices(&perm);
            Arc::new(perm)
        });
        // The ingest executor is built from the simulation's own mesh,
        // which in restructuring mode answers `surface()` from its
        // maintained counts; the ring then keeps the stripped copy.
        let exec = Arc::new(Octopus::new(sim.mesh())?);
        let mesh = sim.mesh().snapshot();
        let edge = typical_edge(&mesh);
        let grid = build_grid(&exec, &mesh, edge);
        let step = sim.current_step();
        let engine = BatchEngine::new(BatchEngineConfig::default(), &mesh);
        let fault = Arc::new(FaultCell::new());
        let sim_metrics = Arc::new(OnceLock::new());
        let (cmd_tx, upd_rx, handle) = spawn_sim(sim, &fault, &sim_metrics);
        let mut slots = VecDeque::with_capacity(depth);
        slots.push_back(Slot {
            step,
            mesh,
            exec,
            grid,
            reach: None,
            translation,
            pins: 0,
            typical_edge: Some(edge),
        });
        Ok(MonitorLoop {
            cmd_tx,
            upd_rx,
            handle: Some(handle),
            sim_state: SimState::Running,
            fault,
            admission: Admission::new(AdmissionConfig::default()),
            depth,
            slots,
            in_flight: 0,
            pool: ParallelExecutor::new(threads),
            spare_bufs: Vec::new(),
            policy,
            restructures_since_layout: 0,
            relayouts: 0,
            relayout_pending: false,
            engine,
            grid_stats: SeedCacheStats {
                insertions: 1,
                ..SeedCacheStats::default()
            },
            reach_lazy: 0,
            subs: SubscriptionRegistry::default(),
            telemetry: None,
            sim_metrics,
        })
    }

    /// Builds the service telemetry bundle on `registry` and wires it
    /// through every layer: the executors of all retained snapshots
    /// (future ring generations inherit the handles through
    /// [`octopus_core::Octopus::restructured`]), the worker pool and
    /// batch executor, and the batch engine — the current one and any
    /// that [`MonitorLoop::set_batch_engine`] installs later — and the
    /// simulation thread, which times its own steps and hand-offs
    /// (`sim_step_ns`, `sim_handoff_ns`; like the pool's, its handles
    /// are set by the first attach and kept). From here on, queries,
    /// steps, re-layouts and subscription polls record into `registry`;
    /// read them back with [`MonitorLoop::telemetry_snapshot`].
    pub fn attach_telemetry(&mut self, registry: &Registry) -> &ServiceTelemetry {
        let t = ServiceTelemetry::register(registry);
        for slot in &self.slots {
            slot.exec.attach_metrics(&t.executor);
        }
        self.pool.attach_metrics(&t.pool);
        let _ = self.sim_metrics.set(t.sim.clone());
        self.engine.attach_metrics(&t.engine);
        self.telemetry = Some(t);
        self.publish_gauges();
        self.telemetry.as_ref().expect("just attached")
    }

    /// Refreshes every point-in-time gauge and returns a consistent
    /// merged snapshot of the registry (`None` until
    /// [`MonitorLoop::attach_telemetry`] is called).
    pub fn telemetry_snapshot(&mut self) -> Option<TelemetrySnapshot> {
        self.publish_gauges();
        self.telemetry.as_ref().map(ServiceTelemetry::snapshot)
    }

    /// Publishes the gauges that mirror monitor state: ring occupancy
    /// and in-flight depth, the surface grid's counters, reach and
    /// memory, the standing-query registry, executor memory and the
    /// admission front's counters.
    fn publish_gauges(&mut self) {
        let Some(t) = &mut self.telemetry else { return };
        t.monitor.ring_occupancy.set_u64(self.slots.len() as u64);
        t.monitor.ring_in_flight.set_u64(self.in_flight as u64);
        let latest = self.slots.back().expect("ring is never empty");
        t.monitor.sync_grid(&self.grid_stats, self.reach_lazy);
        if let Some(reach) = latest.reach {
            t.monitor
                .grid_reach
                .set(f64::from(reach / latest.grid.cell()));
        }
        t.monitor
            .grid_bytes
            .set_u64(latest.grid.memory_bytes() as u64);
        t.monitor.sync_subscriptions(&self.subs);
        t.admission.sync(&self.admission.stats());
        let _ = latest.exec.publish_memory();
    }

    /// Replaces the batch engine — built at set-up with
    /// [`BatchEngineConfig::default`] — with one of configuration `cfg`
    /// built for the latest snapshot. It plans every box query from
    /// then on — single, batch, pinned-step or admitted (overlap
    /// grouping, shared-frontier crawls, Eq.-6 planner routing when
    /// `cfg.use_planner`), returning exactly what the sequential
    /// executor returns. Nothing else changes hands: the probe is the
    /// snapshot's, and standing queries keep their delta path across
    /// the swap.
    ///
    /// Cannot fail: the planner builds its histogram here and reads S
    /// and M per batch off the slot asked, extracting nothing; the
    /// `Result` is what existing callers match on.
    pub fn set_batch_engine(&mut self, cfg: BatchEngineConfig) -> Result<(), ServiceError> {
        let latest = self.latest();
        let mut engine = BatchEngine::new(cfg, &latest.mesh);
        if let Some(t) = &self.telemetry {
            engine.attach_metrics(&t.engine);
        }
        self.engine = engine;
        Ok(())
    }

    /// What the engine did with the last batch (always `Some`; the
    /// `Option` is what existing callers match on).
    pub fn engine_report(&self) -> Option<EngineReport> {
        Some(*self.engine.report())
    }

    /// The surface grid's counters, under the name and in the struct
    /// the repository benchmark reads them by (always `Some`; a shim
    /// until a benchmark change renames it): `hits` are queries probed
    /// through the grid, `misses` queries that fell back to the full
    /// surface probe, `stale` drift-triggered rebuilds, `insertions`
    /// grids installed, built or patched, `evictions` zero.
    pub fn seed_cache_stats(&self) -> Option<SeedCacheStats> {
        Some(self.grid_stats)
    }

    /// Kicks off the next simulation step on the simulation thread and
    /// returns immediately; queries keep answering against the retained
    /// snapshots while it runs. The command carries the latest slot's
    /// grid and, while subscriptions exist, the standing queries'
    /// anchor: the simulation thread measures the step's reach and
    /// drift against them over the buffer it fills. No-op when the
    /// pipeline is already `depth` steps ahead, or while a re-layout is
    /// pending and cannot be applied yet (draining back-pressure).
    pub fn begin_step(&mut self) -> Result<(), ServiceError> {
        self.check_sim_alive()?;
        if self.relayout_pending && !self.try_apply_pending_relayout()? {
            return Ok(());
        }
        if self.in_flight >= self.depth {
            return Ok(());
        }
        let cmd = Cmd::Step {
            reuse: self.spare_bufs.pop(),
            grid: Arc::clone(&self.latest().grid),
            anchor: self.subs.anchor_for_step(),
        };
        self.cmd_tx
            .send(cmd)
            .map_err(|_| ServiceError::SimulationStopped)?;
        self.in_flight += 1;
        Ok(())
    }

    /// The supervisor's gate: stepping APIs refuse up front once the
    /// sim thread is known dead, with the panic payload preserved.
    fn check_sim_alive(&self) -> Result<(), ServiceError> {
        match &self.sim_state {
            SimState::Running => Ok(()),
            SimState::Failed(msg) => Err(ServiceError::SimulationFailed(msg.clone())),
            SimState::Stopped => Err(ServiceError::SimulationStopped),
        }
    }

    /// The sim thread's panic payload, if it failed
    /// (`None` while healthy or cleanly stopped).
    pub fn sim_failure(&self) -> Option<&str> {
        match &self.sim_state {
            SimState::Failed(msg) => Some(msg),
            _ => None,
        }
    }

    /// Starts steps until the pipeline is `depth` ahead (or stalled on
    /// a pending re-layout); returns how many steps were started.
    pub fn fill_pipeline(&mut self) -> Result<usize, ServiceError> {
        let mut started = 0;
        loop {
            let before = self.in_flight;
            self.begin_step()?;
            if self.in_flight == before {
                return Ok(started);
            }
            started += 1;
        }
    }

    /// Waits for the oldest in-flight step and publishes its state into
    /// the ring (on a deformation step the received position buffer
    /// becomes the new slot's position array — no copy, no allocation —
    /// with the reach the simulation thread measured, when its grid is
    /// still the one the slot inherits; on a restructuring step the
    /// received mesh + a surface-delta-derived executor). When the ring
    /// is at capacity the oldest retained slot is recycled —
    /// deterministically, and only if no query pin holds it
    /// ([`ServiceError::RetryAfter`] with cause [`Overload::RingPinned`]
    /// otherwise; the update stays queued and the call can be retried
    /// after unpinning). Returns the ring's new latest step number.
    pub fn finish_step(&mut self) -> Result<u32, ServiceError> {
        if self.in_flight == 0 {
            return Err(ServiceError::NoStepInFlight);
        }
        let tracer = self.telemetry.as_ref().map(|t| t.tracer.clone());
        let _span = tracer.as_ref().map(|tr| tr.span("monitor.finish_step"));
        // Fault site: a `Deny` here forces a pinned-ring back-pressure
        // window (the update stays queued, exactly like a real pinned
        // slot; a later retry publishes it).
        if self.fault.armed() {
            let site = FaultSite::RingPublish {
                latest_step: self.latest().step,
            };
            if matches!(self.fault.fire(site), FaultAction::Deny) {
                let pinned_step = self.slots.front().expect("ring is never empty").step;
                return Err(self.ring_pinned(pinned_step));
            }
        }
        self.absorb_one()?;
        self.try_apply_pending_relayout()?;
        self.publish_gauges();
        Ok(self.snapshot_step())
    }

    /// Ring back-pressure — the oldest slot of step `pinned_step` cannot
    /// be recycled — as the structured retry contract, counted.
    fn ring_pinned(&mut self, pinned_step: u32) -> ServiceError {
        if let Some(t) = &self.telemetry {
            t.monitor.pin_waits.inc();
        }
        self.admission.note_retry_after();
        ServiceError::RetryAfter {
            suggested_backoff: self.admission.suggested_backoff(0),
            cause: Overload::RingPinned { pinned_step },
        }
    }

    /// Receives one update and publishes it as the newest slot.
    fn absorb_one(&mut self) -> Result<(), ServiceError> {
        debug_assert!(self.in_flight > 0, "absorb requires an in-flight step");
        // A full ring evicts its oldest slot, which a pin forbids.
        let oldest = self.slots.front().expect("ring is never empty");
        if self.slots.len() == self.depth && oldest.pins > 0 {
            let pinned_step = oldest.step;
            return Err(self.ring_pinned(pinned_step));
        }
        let update = match self.upd_rx.recv() {
            Ok(u) => u,
            // The sim thread died without even sending `Panicked` (a
            // panic outside the step path, e.g. during a re-layout
            // permutation): harvest the join outcome for the payload.
            Err(_) => return Err(self.harvest_sim_exit()),
        };
        self.in_flight -= 1;
        let absorb_start = Instant::now();
        match update {
            Update::Deformed {
                step,
                positions,
                grid: measured_grid,
                reach,
                drift,
            } => {
                self.subs.deformed(&positions, drift);
                let latest = self.slots.back().expect("ring is never empty");
                // The hand-over: the buffer the simulation filled is the
                // new slot's position array; everything else it shares
                // with the latest slot. Nothing is copied.
                let mut slot = Slot {
                    step,
                    mesh: latest.mesh.with_positions(positions),
                    exec: Arc::clone(&latest.exec),
                    grid: Arc::clone(&latest.grid),
                    reach: None,
                    translation: latest.translation.clone(),
                    pins: 0,
                    typical_edge: None,
                };
                // The simulation measured the reach against the grid
                // this slot inherits, unless that grid was replaced
                // since the command left; then a request measures it.
                if Arc::ptr_eq(&measured_grid, &slot.grid) {
                    debug_assert_eq!(
                        reach.to_bits(),
                        slot.grid.reach(slot.mesh.positions()).to_bits(),
                        "the reach measured on the simulation thread is not this slot's"
                    );
                    slot.settle_reach(reach, true, &mut self.grid_stats);
                }
                self.push_slot(slot);
                if let Some(t) = &self.telemetry {
                    t.monitor.publish_ns.record_duration(absorb_start.elapsed());
                }
            }
            Update::Restructured {
                step,
                mesh,
                delta,
                drift,
            } => {
                let latest = self.slots.back().expect("ring is never empty");
                // Derive (not mutate): older retained slots keep their
                // connectivity's executor and its grid.
                let exec = Arc::new(latest.exec.restructured(&mesh, &delta));
                // Patched from the latest slot's grid: the new executor's
                // ids, the kept ones at their old anchors.
                let grid =
                    Arc::new(exec.patched_surface_grid(&latest.grid, mesh.positions(), &delta));
                debug_assert!(
                    {
                        let mut held = grid.ids().to_vec();
                        let mut want: Vec<VertexId> = exec.surface().collect();
                        held.sort_unstable();
                        want.sort_unstable();
                        held == want
                    },
                    "the patched grid holds other ids than the executor's surface"
                );
                self.grid_stats.insertions += 1;
                // Restructuring appends new vertices at the end of the
                // id space in both the original and the permuted run,
                // where the shared map reads them as themselves.
                let translation = latest.translation.clone();
                self.restructures_since_layout += 1;
                // Told while the appended ids are still the tail of the
                // id space: the re-layout this event may trigger
                // relabels them.
                self.subs.restructured(&mesh, drift);
                self.push_slot(Slot {
                    step,
                    mesh,
                    exec,
                    grid,
                    reach: None,
                    translation,
                    pins: 0,
                    typical_edge: None,
                });
                if let Some(t) = &self.telemetry {
                    t.monitor
                        .restructure_ns
                        .record_duration(absorb_start.elapsed());
                }
                self.update_relayout_pending();
            }
            Update::Failed { error, reuse } => {
                self.spare_bufs.extend(reuse);
                return Err(ServiceError::Mesh(error));
            }
            Update::Panicked(msg) => return Err(self.sim_died(msg)),
        }
        if let Some(t) = &self.telemetry {
            t.monitor.steps.inc();
        }
        Ok(())
    }

    /// Records a sim-thread death: queued commands are lost with the
    /// thread, so the in-flight count resets; retained snapshots are
    /// untouched and stay queryable.
    fn sim_died(&mut self, msg: String) -> ServiceError {
        self.sim_state = SimState::Failed(msg.clone());
        self.in_flight = 0;
        if let Some(t) = &self.telemetry {
            t.monitor.sim_failures.inc();
        }
        ServiceError::SimulationFailed(msg)
    }

    /// The update channel disconnected: join the thread to learn why
    /// and record the outcome.
    fn harvest_sim_exit(&mut self) -> ServiceError {
        let outcome = self.handle.take().map(join_sim);
        self.in_flight = 0;
        match outcome {
            Some(Err(msg)) => self.sim_died(msg),
            // Clean exit (or already harvested): not a panic.
            Some(Ok(_)) | None => {
                if self.sim_state == SimState::Running {
                    self.sim_state = SimState::Stopped;
                }
                self.check_sim_alive()
                    .err()
                    .unwrap_or(ServiceError::SimulationStopped)
            }
        }
    }

    /// Publishes `slot` as the newest, evicting the oldest at capacity
    /// (`absorb_one` has checked that it is unpinned).
    fn push_slot(&mut self, slot: Slot) {
        if self.slots.len() == self.depth {
            // The retired slot's position storage is the simulation's
            // next buffer.
            let old = self.slots.pop_front().expect("ring is never empty");
            self.spare_bufs.push(old.mesh.into_positions());
        }
        self.slots.push_back(slot);
    }

    /// Evaluates the policy's trigger after a restructuring step.
    fn update_relayout_pending(&mut self) {
        if self.policy.curve().is_none() {
            return;
        }
        let fire = match self.policy.trigger() {
            RelayoutTrigger::Never => false,
            RelayoutTrigger::AfterRestructures(k) => self.restructures_since_layout >= k,
        };
        if fire {
            self.relayout_pending = true;
        }
    }

    fn any_pins(&self) -> bool {
        self.slots.iter().any(|s| s.pins > 0)
    }

    /// Applies a pending re-layout if (and only if) the pipeline has
    /// drained and nothing is pinned. Returns whether it was applied.
    fn try_apply_pending_relayout(&mut self) -> Result<bool, ServiceError> {
        if !self.relayout_pending || self.in_flight > 0 || self.any_pins() {
            return Ok(false);
        }
        self.apply_relayout()?;
        Ok(true)
    }

    /// Re-applies the layout curve. Precondition (enforced by the
    /// callers — this is the runtime replacement for the old
    /// `debug_assert!(!in_flight)`): the pipeline is drained and no
    /// slot is pinned, so the permutation cannot race a running step
    /// and cannot invalidate a snapshot a query still holds.
    ///
    /// The id space changes wholesale, so retained history in the old
    /// space is released: after a re-layout the ring holds exactly the
    /// re-laid-out latest snapshot.
    fn apply_relayout(&mut self) -> Result<(), ServiceError> {
        debug_assert!(self.in_flight == 0 && !self.any_pins());
        let Some(curve) = self.policy.curve() else {
            self.relayout_pending = false;
            return Ok(());
        };
        // A known-dead simulation cannot take the permutation; the
        // request stays pending for its replacement.
        self.check_sim_alive()?;
        let relayout_start = Instant::now();
        let tracer = self.telemetry.as_ref().map(|t| t.tracer.clone());
        let _span = tracer.as_ref().map(|tr| tr.span("monitor.relayout"));
        let perm = curve_permutation(&self.latest().mesh, curve);
        // The only step that can fail, taken before any monitor state
        // changes: either both sides relabel or neither does (a refused
        // send, like the dead simulation above, leaves the request
        // pending). The channel orders the relabelling before any later
        // `Step`, so both sides stay in the same id space.
        self.cmd_tx
            .send(Cmd::Relayout(perm.clone()))
            .map_err(|_| ServiceError::SimulationStopped)?;
        self.relayout_pending = false;
        self.restructures_since_layout = 0;
        while self.slots.len() > 1 {
            self.slots.pop_front();
        }
        let latest = self.slots.back_mut().expect("ring is never empty");
        latest.mesh = latest.mesh.permute_vertices(&perm);
        // Ids changed wholesale, connectivity did not: the executor is
        // relabelled through the permutation, not rebuilt (the slot
        // mesh could only offer a from-scratch extraction).
        latest.exec = Arc::new(latest.exec.relabelled(&latest.mesh, &perm));
        // A relabelling keeps the bounding box and the vertex count, so
        // the slot's typical edge stands.
        latest.rebuild_grid();
        latest.reach = None;
        self.grid_stats.insertions += 1;
        // Composed over every current vertex, the ones appended since
        // the last re-layout (past the old map's end) included.
        if let Some(t) = &latest.translation {
            let old = |v: usize| t.get(v).map_or(v, |&w| w as usize);
            latest.translation = Some(Arc::new(
                (0..perm.len()).map(|v| perm[old(v)]).collect::<Vec<_>>(),
            ));
        }
        // Subscriptions survive a re-layout: their ids and the anchor
        // are translated through the permutation (geometry is untouched
        // by a relabelling).
        self.subs.translate(&perm);
        self.relayouts += 1;
        if let Some(t) = &self.telemetry {
            t.monitor.relayouts.inc();
            t.monitor
                .relayout_ns
                .record_duration(relayout_start.elapsed());
        }
        Ok(())
    }

    /// Requests an immediate re-layout (curve policies only; returns
    /// `Ok(false)` under [`LayoutPolicy::Preserve`]). If snapshots are
    /// pinned the request stays pending (deferred to the first
    /// unpinned step boundary) and `Ok(false)` is returned; otherwise
    /// any in-flight steps are drained into the ring first — the
    /// permutation is never raced against a running step — and the
    /// re-layout is applied now (`Ok(true)`).
    pub fn request_relayout(&mut self) -> Result<bool, ServiceError> {
        if self.policy.curve().is_none() {
            return Ok(false);
        }
        self.relayout_pending = true;
        if self.any_pins() {
            return Ok(false);
        }
        while self.in_flight > 0 {
            // Cannot be refused for a pinned ring: nothing is pinned.
            self.absorb_one()?;
        }
        self.apply_relayout()?;
        Ok(true)
    }

    /// True while a triggered or requested re-layout waits for the
    /// pipeline to drain / pins to release.
    pub fn relayout_pending(&self) -> bool {
        self.relayout_pending
    }

    fn latest(&self) -> &Slot {
        self.slots.back().expect("ring is never empty")
    }

    /// Ring index of the slot retaining `step`, or `StepNotRetained`.
    fn slot_index(&self, step: u32) -> Result<usize, ServiceError> {
        self.slots
            .iter()
            .position(|s| s.step == step)
            .ok_or(ServiceError::StepNotRetained {
                step,
                oldest: self.slots.front().expect("ring is never empty").step,
                latest: self.latest().step,
            })
    }

    fn slot_at(&self, step: u32) -> Result<&Slot, ServiceError> {
        Ok(&self.slots[self.slot_index(step)?])
    }

    /// Steps currently retained and queryable: `[N−r+1, N]` for the
    /// latest step N and `r ≤ K` retained slots.
    pub fn retained_steps(&self) -> RangeInclusive<u32> {
        self.slots.front().expect("ring is never empty").step..=self.latest().step
    }

    /// The latest retained snapshot (the one latest-step queries use).
    pub fn snapshot(&self) -> &Mesh {
        &self.latest().mesh
    }

    /// The time step of the latest retained snapshot.
    pub fn snapshot_step(&self) -> u32 {
        self.latest().step
    }

    /// The snapshot retained for `step`, if still in the ring.
    pub fn snapshot_at(&self, step: u32) -> Result<&Mesh, ServiceError> {
        Ok(&self.slot_at(step)?.mesh)
    }

    /// Maps an ingest-time vertex id to the latest snapshot's id space
    /// (identity under [`LayoutPolicy::Preserve`]). An id at or past the
    /// snapshot's vertex count is [`ServiceError::VertexOutOfRange`]
    /// under every policy.
    pub fn translate_vertex(&self, v: VertexId) -> Result<VertexId, ServiceError> {
        self.latest().translate(v)
    }

    /// [`MonitorLoop::translate_vertex`] against the id space of a
    /// retained `step` (re-layouts change the map mid-run, so an older
    /// slot may answer by an earlier one).
    pub fn translate_vertex_at(&self, step: u32, v: VertexId) -> Result<VertexId, ServiceError> {
        self.slot_at(step)?.translate(v)
    }

    /// How many times the layout policy has re-permuted the mesh after
    /// ingest (triggered or requested re-layouts).
    pub fn relayouts(&self) -> u32 {
        self.relayouts
    }

    /// Number of steps currently computing ahead on the simulation
    /// thread (0 ≤ `in_flight` ≤ K).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// True while at least one step is in flight — i.e. while SIMULATE
    /// and MONITOR actually overlap.
    pub fn step_in_flight(&self) -> bool {
        self.in_flight > 0
    }

    /// Pins the snapshot of `step`: the slot will not be recycled (the
    /// pipeline back-pressures with [`Overload::RingPinned`] instead)
    /// and no re-layout will invalidate its id space until every pin is
    /// released. Pins nest (a counter per slot).
    pub fn pin_step(&mut self, step: u32) -> Result<(), ServiceError> {
        let i = self.slot_index(step)?;
        self.slots[i].pins += 1;
        Ok(())
    }

    /// Releases one pin of `step`.
    pub fn unpin_step(&mut self, step: u32) -> Result<(), ServiceError> {
        let i = self.slot_index(step)?;
        let slot = &mut self.slots[i];
        if slot.pins == 0 {
            return Err(ServiceError::StepNotPinned { step });
        }
        slot.pins -= 1;
        Ok(())
    }

    /// Where a slot becomes a [`Snapshot`]. A slot that came without a
    /// measured reach — the ingest slot, a restructure, a re-layout, a
    /// deformation step whose grid was replaced while it was in flight
    /// — has it measured here, by the first request against it (counted
    /// in `reach_lazy`), and settled as at publish: the newest slot
    /// rebuilds its grid when the reach has outgrown a cell.
    ///
    /// Over the fields it touches, so that the snapshot borrows the
    /// ring alone and the caller keeps the engine and the pool.
    fn resolve<'a>(
        slots: &'a mut VecDeque<Slot>,
        stats: &mut SeedCacheStats,
        reach_lazy: &mut u64,
        slot: usize,
    ) -> Snapshot<'a> {
        let newest = slot + 1 == slots.len();
        let s = &mut slots[slot];
        if s.reach.is_none() {
            *reach_lazy += 1;
            let reach = s.grid.reach(s.mesh.positions());
            s.settle_reach(reach, newest, stats);
        }
        s.view()
    }

    /// Counts `queries` answered under `probe` towards the grid's
    /// probe / fallback counters.
    fn count_probed(stats: &mut SeedCacheStats, probe: Probe<'_>, queries: usize) {
        match probe {
            Probe::Grid { .. } => stats.hits += queries as u64,
            Probe::Surface => stats.misses += queries as u64,
        }
    }

    /// The one box-query path: resolve the slot's snapshot (and its
    /// reach), plan the batch with the engine, and run it on the pool
    /// under the snapshot's probe. The caller owns the results and
    /// recycles them.
    fn serve(&mut self, slot: usize, queries: &[Aabb]) -> Vec<QueryResult> {
        let tracer = self.telemetry.as_ref().map(|t| t.tracer.clone());
        let _span = tracer.as_ref().map(|tr| tr.span("monitor.query_batch"));
        let snap = Self::resolve(
            &mut self.slots,
            &mut self.grid_stats,
            &mut self.reach_lazy,
            slot,
        );
        let results = self.engine.execute(&mut self.pool, &snap, queries);
        // Scan-routed queries probe nothing.
        let probed = queries.len() - self.engine.report().scan_queries;
        Self::count_probed(&mut self.grid_stats, snap.probe, probed);
        results
    }

    /// Answers a batch against the latest snapshot on the worker pool,
    /// planned by the batch engine (overlap grouping, shared frontiers,
    /// planner routing).
    pub fn query_batch(&mut self, queries: &[Aabb]) -> Vec<QueryResult> {
        self.serve(self.slots.len() - 1, queries)
    }

    /// Answers a batch against the snapshot retained for `step` on the
    /// worker pool, planned by the batch engine.
    pub fn query_batch_at(
        &mut self,
        step: u32,
        queries: &[Aabb],
    ) -> Result<Vec<QueryResult>, ServiceError> {
        let slot = self.slot_index(step)?;
        Ok(self.serve(slot, queries))
    }

    /// Returns a finished batch's buffers to the executor's free lists
    /// (see [`ParallelExecutor::recycle`]); a serving loop that recycles
    /// every batch allocates nothing in steady state.
    pub fn recycle(&mut self, results: Vec<QueryResult>) {
        self.pool.recycle(results);
    }

    /// The executor's result-buffer free-list counters.
    pub fn recycle_stats(&self) -> RecycleStats {
        self.pool.recycle_stats()
    }

    /// Registers a standing query against the latest snapshot and
    /// returns its handle. The subscription's *band* — how far vertices
    /// may lie from where they were at its last crawl before it must
    /// crawl again — defaults to 8× the mesh's typical edge length. The
    /// initial result set is computed
    /// now ([`MonitorLoop::subscription_result`]); subsequent
    /// [`MonitorLoop::poll_subscriptions`] calls return only the
    /// entered/left deltas.
    pub fn subscribe(&mut self, q: &Aabb) -> SubscriptionId {
        let latest = self.slots.back_mut().expect("ring is never empty");
        let band = DEFAULT_BAND_EDGES * latest.typical_edge();
        self.subscribe_with_band(q, band)
    }

    /// [`MonitorLoop::subscribe`] with an explicit drift band (clamped
    /// to ≥ 0; a zero band degenerates to a full re-crawl per poll —
    /// still exact, never fast).
    pub fn subscribe_with_band(&mut self, q: &Aabb, band: f32) -> SubscriptionId {
        let latest = self.slots.len() - 1;
        let snap = Self::resolve(
            &mut self.slots,
            &mut self.grid_stats,
            &mut self.reach_lazy,
            latest,
        );
        let scratch = self.pool.scratch(snap.exec, snap.mesh);
        self.subs.subscribe(*q, band, &snap, scratch)
    }

    /// Cancels a standing query; returns whether it existed.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        self.subs.unsubscribe(id)
    }

    /// Number of live subscriptions.
    pub fn subscriptions(&self) -> usize {
        self.subs.len()
    }

    /// Polls every subscription against the latest snapshot: each
    /// standing query's result-set change since its previous poll,
    /// served from the delta fast path whenever the drift bound proves
    /// the candidate band still covers every possible boundary
    /// crossing (see [`crate::subscribe`]).
    pub fn poll_subscriptions(&mut self) -> Vec<(SubscriptionId, ResultDelta)> {
        let tracer = self.telemetry.as_ref().map(|t| t.tracer.clone());
        let _span = tracer
            .as_ref()
            .map(|tr| tr.span("monitor.poll_subscriptions"));
        let latest = self.slots.len() - 1;
        // Only a crawl probes: a poll of delta paths alone does not
        // measure a reach the slot came without.
        let snap = if self.subs.must_crawl() {
            Self::resolve(
                &mut self.slots,
                &mut self.grid_stats,
                &mut self.reach_lazy,
                latest,
            )
        } else {
            self.slots[latest].view()
        };
        let scratch = self.pool.scratch(snap.exec, snap.mesh);
        let deltas = self.subs.poll_all(&snap, scratch);
        if let Some(t) = &mut self.telemetry {
            t.monitor.sync_subscriptions(&self.subs);
        }
        deltas
    }

    /// A subscription's current full result set (sorted ids), as of its
    /// last poll (or subscribe). `None` for unknown ids.
    pub fn subscription_result(&self, id: SubscriptionId) -> Option<&[VertexId]> {
        self.subs.result(id)
    }

    /// A subscription's delta-path counters. `None` for unknown ids.
    pub fn subscription_stats(&self, id: SubscriptionId) -> Option<SubscriptionStats> {
        self.subs.stats(id)
    }

    /// Answers a heterogeneous shape batch against the latest snapshot,
    /// in input order: the slot is resolved once, and every shape runs
    /// the sequential [`octopus_core::Octopus::query_shape`] dispatch
    /// under its probe, each box it reduces to seeded by that probe (the
    /// engine plans box batches only). A single shape is a batch of one.
    pub fn query_shapes(&mut self, shapes: &[QueryShape]) -> Vec<ShapeQueryResult> {
        let latest = self.slots.len() - 1;
        let snap = Self::resolve(
            &mut self.slots,
            &mut self.grid_stats,
            &mut self.reach_lazy,
            latest,
        );
        let scratch = self.pool.scratch(snap.exec, snap.mesh);
        let answers = shapes
            .iter()
            .map(|shape| {
                let (result, timings) =
                    snap.exec.query_shape(scratch, snap.mesh, shape, snap.probe);
                ShapeQueryResult { result, timings }
            })
            .collect();
        Self::count_probed(&mut self.grid_stats, snap.probe, shapes.len());
        answers
    }

    /// Stops the simulation thread and returns the simulation in its
    /// final state (which may be up to K steps ahead of the latest
    /// retained snapshot if steps were in flight).
    ///
    /// If the sim thread panicked — now or earlier — the panic payload
    /// is surfaced as [`ServiceError::SimulationFailed`], never
    /// silently discarded.
    pub fn shutdown(mut self) -> Result<Simulation, ServiceError> {
        // Drain in-flight updates so the sim thread isn't blocked on a
        // full channel (unbounded today, but don't rely on it); they
        // are dropped, not published — the monitor is going away.
        while self.in_flight > 0 {
            match self.upd_rx.recv() {
                Ok(Update::Panicked(_)) | Err(_) => break,
                Ok(_) => self.in_flight -= 1,
            }
        }
        let _ = self.cmd_tx.send(Cmd::Stop);
        match self.handle.take() {
            None => self
                .check_sim_alive()
                .map(|()| unreachable!("no handle while running")),
            Some(handle) => join_sim(handle).map_err(ServiceError::SimulationFailed),
        }
    }

    /// Replaces a dead simulation thread ([`ServiceError::SimulationFailed`]
    /// / [`ServiceError::SimulationStopped`] state) with a fresh one
    /// built by `make` from the **newest published snapshot**, resuming
    /// the step numbering where the ring left off (so retained steps,
    /// pins, subscriptions and the restructure-schedule cadence all
    /// stay coherent). Returns the step the new simulation resumes
    /// from. Refuses with [`ServiceError::SimulationAlive`] while the
    /// thread is healthy.
    ///
    /// The factory sees the snapshot in the monitor's *current* id
    /// space (post-layout); its rest configuration restarts at the
    /// snapshot positions, which is inherent to resuming from a
    /// snapshot rather than replaying the lost trajectory. Ring
    /// snapshots carry no restructuring state, so a factory that
    /// restructures goes through [`Simulation::with_restructuring`] as
    /// at ingest, which rebuilds it for the new simulation's own mesh.
    pub fn restart_simulation<F>(&mut self, make: F) -> Result<u32, ServiceError>
    where
        F: FnOnce(&Mesh) -> Result<Simulation, MeshError>,
    {
        match self.sim_state {
            SimState::Running => return Err(ServiceError::SimulationAlive),
            SimState::Failed(_) | SimState::Stopped => {}
        }
        // Reap the dead thread; its outcome is already recorded in
        // `sim_state`.
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        let resume_step = self.latest().step;
        let mut sim = make(&self.latest().mesh)?;
        sim.resume_from(resume_step);
        let (cmd_tx, upd_rx, handle) = spawn_sim(sim, &self.fault, &self.sim_metrics);
        self.cmd_tx = cmd_tx;
        self.upd_rx = upd_rx;
        self.handle = Some(handle);
        self.in_flight = 0;
        self.sim_state = SimState::Running;
        if let Some(t) = &self.telemetry {
            t.monitor.sim_restarts.inc();
        }
        Ok(resume_step)
    }

    /// Arms `hook` on every fault site this service consults: the sim
    /// thread's step/restructure sites, the ring publish site, and the
    /// worker pool's per-task site. Testing facility — disarmed
    /// ([`MonitorLoop::clear_fault_hook`]) the sites cost one relaxed
    /// atomic load each.
    pub fn set_fault_hook(&mut self, hook: Arc<dyn FaultHook>) {
        self.fault.arm(Arc::clone(&hook));
        self.pool.arm_faults(hook);
    }

    /// Disarms the fault hook everywhere.
    pub fn clear_fault_hook(&mut self) {
        self.fault.disarm();
        self.pool.disarm_faults();
    }

    /// Replaces the admission front — built at set-up with
    /// [`AdmissionConfig::default`] — with a fresh one of configuration
    /// `cfg`: queued batches and counters go with the old front, whose
    /// mirroring telemetry counters keep rising across the swap.
    /// Queries are queued per tenant via [`MonitorLoop::enqueue`] and
    /// executed in fair (round-robin) order via
    /// [`MonitorLoop::drain_admitted`].
    pub fn set_admission(&mut self, cfg: AdmissionConfig) {
        self.publish_gauges();
        if let Some(t) = &mut self.telemetry {
            t.admission.rebase();
        }
        self.admission = Admission::new(cfg);
    }

    /// Admission counters (always `Some`; the `Option` is what existing
    /// callers match on).
    pub fn admission_stats(&self) -> Option<AdmissionStats> {
        Some(self.admission.stats())
    }

    /// Queues a query batch for `tenant` behind admission control.
    /// `deadline` is relative to now (default:
    /// [`crate::AdmissionConfig::default_deadline`]); batches whose
    /// deadline expires while queued are shed before reaching the pool.
    /// A full tenant queue refuses with [`ServiceError::RetryAfter`].
    pub fn enqueue(
        &mut self,
        tenant: u32,
        queries: Vec<Aabb>,
        deadline: Option<Duration>,
    ) -> Result<TicketId, ServiceError> {
        self.admission
            .enqueue(tenant, queries, deadline, Instant::now())
    }

    /// Dequeues up to `max_batches` batches in fair order,
    /// executes each against the latest snapshot (planned by the batch
    /// engine), and reports both the executed batches and
    /// everything deadline shedding dropped on the way. Recycle each
    /// batch's buffers via [`MonitorLoop::recycle`].
    pub fn drain_admitted(&mut self, max_batches: usize) -> Result<DrainOutcome, ServiceError> {
        // The front is only ever borrowed, one call at a time: a worker
        // panic re-thrown out of `serve` leaves it — and every batch
        // still queued in it — in place.
        let mut out = DrainOutcome::default();
        while out.batches.len() < max_batches {
            let Some(a) = self.admission.next_admitted(Instant::now()) else {
                break;
            };
            let results = self.serve(self.slots.len() - 1, &a.queries);
            out.batches.push(AdmittedBatch {
                ticket: a.ticket,
                tenant: a.tenant,
                step: self.snapshot_step(),
                results,
            });
        }
        out.shed = self.admission.take_shed();
        Ok(out)
    }
}

impl Drop for MonitorLoop {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = self.cmd_tx.send(Cmd::Stop);
            // Drop cannot return an error, but a sim-thread panic must
            // not vanish either: capture the payload and report it on
            // stderr unless it was already surfaced (`sim_state` left
            // `Running` means nobody saw it). Callers who care use
            // `shutdown()`, which returns the failure properly.
            if let Err(msg) = join_sim(handle) {
                if matches!(self.sim_state, SimState::Running) {
                    eprintln!("MonitorLoop dropped with unreported sim failure: {msg}");
                }
            }
        }
    }
}

/// The simulation thread's handle: joined, the simulation in its final
/// state, or the rendered payload of the panic that ended it.
type SimHandle = JoinHandle<Result<Simulation, String>>;

/// Starts `sim` on its own thread ([`sim_thread`], consulting `fault`
/// and recording into `metrics` once they are set) and returns the
/// command sender, the update receiver and the handle — at
/// construction and on every restart.
fn spawn_sim(
    sim: Simulation,
    fault: &Arc<FaultCell>,
    metrics: &Arc<OnceLock<SimMetrics>>,
) -> (Sender<Cmd>, Receiver<Update>, SimHandle) {
    let (cmd_tx, cmd_rx) = std::sync::mpsc::channel();
    let (upd_tx, upd_rx) = std::sync::mpsc::channel();
    let fault = Arc::clone(fault);
    let metrics = Arc::clone(metrics);
    let handle = std::thread::spawn(move || sim_thread(sim, &cmd_rx, &upd_tx, &fault, &metrics));
    (cmd_tx, upd_rx, handle)
}

/// Joins the simulation thread: `Ok(sim)` on a clean exit, otherwise
/// the panic message — whether the step path caught the panic and
/// returned it, or it escaped and the join carries the payload.
fn join_sim(handle: SimHandle) -> Result<Simulation, String> {
    handle
        .join()
        .unwrap_or_else(|payload| Err(panic_message(payload.as_ref())))
}

/// The simulation thread: steps on demand and hands snapshots back.
/// The restructure epoch decides the hand-off flavour exactly: a step
/// whose epoch did not advance left connectivity untouched (even when a
/// schedule "fired" zero ops), so the positions buffer alone suffices;
/// one that did sends the simulation mesh's connectivity handles around
/// the same buffer.
///
/// The producer measures what it hands off, over the buffer it has just
/// filled: a deformation step's reach against the command's grid, and
/// on any step the drift against the command's anchor (whose `Arc` is
/// dropped before the update is sent, so the registry can move the
/// anchor in place). The monitor takes each value only if it is still
/// of the grid or anchor generation it would measure against.
///
/// Supervised: the step computation runs under `catch_unwind`, so a
/// panic (genuine or injected) is reported to the monitor as
/// [`Update::Panicked`] and returned as `Err(payload)` instead of
/// silently killing the pipeline. Before each step the fault cell is
/// consulted — classified as [`FaultSite::Restructure`] when the
/// schedule fires at the upcoming step, [`FaultSite::SimStep`]
/// otherwise. An injected `Fail`/`Deny` refuses the step *without
/// stepping* (the simulation state is untouched, so a retry succeeds);
/// `DelayMs` stalls, `Panic` crashes through the supervisor path.
fn sim_thread(
    mut sim: Simulation,
    cmd_rx: &Receiver<Cmd>,
    upd_tx: &Sender<Update>,
    fault: &FaultCell,
    metrics: &OnceLock<SimMetrics>,
) -> Result<Simulation, String> {
    let mut last_epoch = sim.restructure_epoch();
    while let Ok(cmd) = cmd_rx.recv() {
        let received = Instant::now();
        let (reuse, grid, anchor) = match cmd {
            Cmd::Step {
                reuse,
                grid,
                anchor,
            } => (reuse, grid, anchor),
            Cmd::Relayout(perm) => {
                sim.permute_vertices(&perm);
                continue;
            }
            Cmd::Stop => break,
        };
        let mut injected_panic = None;
        let mut refused = None;
        if fault.armed() {
            let next = sim.current_step() + 1;
            let site = if sim.restructure_scheduled(next) {
                FaultSite::Restructure { step: next }
            } else {
                FaultSite::SimStep { step: next }
            };
            match fault.fire(site) {
                FaultAction::Proceed => {}
                FaultAction::DelayMs(ms) => std::thread::sleep(Duration::from_millis(ms)),
                FaultAction::Panic(msg) => injected_panic = Some(msg),
                FaultAction::Fail(msg) => refused = Some(msg),
                FaultAction::Deny => refused = Some(format!("step {next} refused by fault hook")),
            }
        }
        let stepped = match refused {
            Some(msg) => Ok(Err(MeshError::External(msg))),
            None => panic::catch_unwind(AssertUnwindSafe(|| {
                if let Some(msg) = injected_panic {
                    panic!("{msg}");
                }
                let step_start = Instant::now();
                let outcome = sim.step_outcome();
                if let Some(m) = metrics.get() {
                    m.step_ns.record_duration(step_start.elapsed());
                }
                outcome
            })),
        };
        let update = match stepped {
            Ok(Ok(outcome)) => {
                let mut positions = reuse.unwrap_or_default();
                sim.snapshot_positions_into(&mut positions);
                // Vertices are only ever appended, so the anchor's ids
                // are a prefix of the new positions.
                let drift = anchor.and_then(|(anchor, generation)| {
                    let held = positions.get(..anchor.len())?;
                    Some((generation, max_displacement(&anchor, held)))
                });
                if outcome.restructure_epoch != last_epoch {
                    last_epoch = outcome.restructure_epoch;
                    Update::Restructured {
                        step: outcome.step,
                        mesh: sim.mesh().with_positions(positions),
                        delta: outcome.delta,
                        drift,
                    }
                } else {
                    let reach = grid.reach(&positions);
                    Update::Deformed {
                        step: outcome.step,
                        positions,
                        grid,
                        reach,
                        drift,
                    }
                }
            }
            Ok(Err(error)) => Update::Failed { error, reuse },
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                // Best effort: the monitor may already be gone.
                let _ = upd_tx.send(Update::Panicked(msg.clone()));
                return Err(msg);
            }
        };
        if let Some(m) = metrics.get() {
            m.handoff_ns.record_duration(received.elapsed());
        }
        if upd_tx.send(update).is_err() {
            break; // Monitor dropped; stop quietly.
        }
    }
    Ok(sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_sim::SmoothRandomField;
    use octopus_testkit::box_mesh;

    #[test]
    fn subscriptions_on_one_slot_share_its_typical_edge_with_the_grid() {
        let sim = Simulation::new(box_mesh(5), Box::new(SmoothRandomField::new(0.01, 3, 42)));
        let mut monitor = MonitorLoop::new(sim, 1).unwrap();
        let edge = typical_edge(&monitor.latest().mesh);
        assert_eq!(monitor.latest().typical_edge, Some(edge));
        assert_eq!(
            monitor.latest().grid.cell().to_bits(),
            (GRID_CELL_EDGES * edge).to_bits()
        );
        let a = monitor.subscribe(&Aabb::cube(Point3::splat(0.3), 0.2));
        let b = monitor.subscribe(&Aabb::cube(Point3::splat(0.6), 0.1));
        let band = |monitor: &MonitorLoop, id| monitor.subs.band(id).unwrap().to_bits();
        assert_eq!(band(&monitor, a), band(&monitor, b));
        assert_eq!(band(&monitor, a), (DEFAULT_BAND_EDGES * edge).to_bits());
        // A slot a step published measures its own edge, once.
        monitor.begin_step().unwrap();
        monitor.finish_step().unwrap();
        let c = monitor.subscribe(&Aabb::cube(Point3::splat(0.5), 0.2));
        let d = monitor.subscribe(&Aabb::cube(Point3::splat(0.4), 0.3));
        let moved = typical_edge(&monitor.latest().mesh);
        assert_eq!(monitor.latest().typical_edge, Some(moved));
        assert_eq!(band(&monitor, c), band(&monitor, d));
        assert_eq!(band(&monitor, c), (DEFAULT_BAND_EDGES * moved).to_bits());
    }
}
