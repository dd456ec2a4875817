//! Every call the benchmark makes into the workspace goes through this
//! file, and no other file of the benchmark names a workspace crate (a
//! unit test in `main.rs` checks that). It is therefore the list of
//! public functions the benchmark depends on: an API refactor keeps a
//! thin wrapper for each until a benchmark issue moves the adapter.
//!
//! The data types re-exported below are used by value throughout (their
//! public fields, `Aabb::new` / `cube` / `contains` / `intersects`,
//! `Point3::new`); every function of a layer is wrapped here.
//!
//! [`Service`] wraps `octopus_service::MonitorLoop` and records one span
//! per call when its tracer is on; the free functions below time the
//! layers' public functions directly for the traced run.

use crate::trace::Tracer;
use std::time::Duration;

pub use octopus_core::PhaseTimings;
pub use octopus_geom::{Aabb, Point3, VertexId};
pub use octopus_mesh::{Mesh, SurfaceDelta};
pub use octopus_service::{
    AdmissionStats, DrainOutcome, EngineReport, QueryResult, RecycleStats, ResultDelta,
    SeedCacheStats, SubscriptionId, SubscriptionStats,
};
pub use octopus_sim::Simulation;

use octopus_core::layout::{cache_line_stats, curve_permutation, CurveKind};
use octopus_core::Octopus;
use octopus_index::{DynamicIndex, LinearScan};
use octopus_meshgen::NeuroLevel;
use octopus_service::{
    AdmissionConfig, BatchEngineConfig, LayoutPolicy, MonitorLoop, ParallelExecutor,
    RelayoutTrigger,
};
use octopus_sim::{RestructureSchedule, SmoothRandomField};

/// Error of any workspace call, rendered: the harness counts failures,
/// it does not branch on their kind.
pub type CallResult<T> = Result<T, String>;

fn rendered<T, E: std::fmt::Display>(r: Result<T, E>) -> CallResult<T> {
    r.map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// Inputs: meshgen, sim
// ---------------------------------------------------------------------

/// `octopus_meshgen::neuron` at detail level 1–5.
pub fn neuron_mesh(level: u8, scale: f32) -> CallResult<Mesh> {
    let level = match level {
        1 => NeuroLevel::L1,
        2 => NeuroLevel::L2,
        3 => NeuroLevel::L3,
        4 => NeuroLevel::L4,
        5 => NeuroLevel::L5,
        other => return Err(format!("no neuron level {other}")),
    };
    rendered(octopus_meshgen::neuron(level, scale))
}

/// `Simulation::new` under a `SmoothRandomField`, optionally
/// `with_restructuring` (which calls `Mesh::enable_restructuring`).
pub fn simulation(
    mesh: Mesh,
    amplitude: f32,
    modes: usize,
    seed: u64,
    restructuring: Option<(u32, usize)>,
) -> CallResult<Simulation> {
    let field = SmoothRandomField::new(amplitude, modes, seed);
    let sim = Simulation::new(mesh, Box::new(field));
    match restructuring {
        None => Ok(sim),
        Some((period, ops)) => {
            rendered(sim.with_restructuring(RestructureSchedule::new(period, ops, seed)))
        }
    }
}

/// What `Simulation::step_outcome` reported.
pub struct TwinStep {
    pub restructured: bool,
    pub delta: SurfaceDelta,
}

pub fn sim_step(sim: &mut Simulation) -> CallResult<TwinStep> {
    rendered(sim.step_outcome()).map(|o| TwinStep {
        restructured: o.restructured,
        delta: o.delta,
    })
}

pub fn sim_snapshot_into(sim: &Simulation, buf: &mut Vec<Point3>) {
    sim.snapshot_positions_into(buf);
}

pub fn sim_mesh(sim: &Simulation) -> &Mesh {
    sim.mesh()
}

// ---------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------

/// Vertex layout of the service, as the workloads need it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// `LayoutPolicy::Preserve`: vertex order untouched.
    Preserve,
    /// `LayoutPolicy::hilbert()`: Hilbert at ingest, never again.
    Hilbert,
    /// Hilbert at ingest and again after this many restructures.
    HilbertAfterRestructures(u32),
}

pub struct Service {
    inner: MonitorLoop,
    pub tracer: Tracer,
}

macro_rules! traced {
    ($self:ident, $name:literal, $call:expr) => {{
        let id = $self.tracer.enter($name);
        let out = $call;
        $self.tracer.exit(id);
        out
    }};
}

impl Service {
    /// `MonitorLoop::with_config` (`MonitorLoop::new(sim, threads)` is
    /// `with_config(sim, threads, LayoutPolicy::Preserve, 1)`).
    pub fn start(
        sim: Simulation,
        threads: usize,
        layout: Layout,
        depth: usize,
    ) -> CallResult<Service> {
        let policy = match layout {
            Layout::Preserve => LayoutPolicy::Preserve,
            Layout::Hilbert => LayoutPolicy::hilbert(),
            Layout::HilbertAfterRestructures(n) => LayoutPolicy::Hilbert {
                trigger: RelayoutTrigger::AfterRestructures(n),
            },
        };
        Ok(Service {
            inner: rendered(MonitorLoop::with_config(sim, threads, policy, depth))?,
            tracer: Tracer::new(false),
        })
    }

    /// `set_batch_engine(BatchEngineConfig::default())`.
    pub fn set_batch_engine(&mut self) -> CallResult<()> {
        rendered(self.inner.set_batch_engine(BatchEngineConfig::default()))
    }

    /// `set_admission(AdmissionConfig::default())`.
    pub fn set_admission(&mut self) {
        self.inner.set_admission(AdmissionConfig::default());
    }

    pub fn subscribe(&mut self, q: &Aabb) -> SubscriptionId {
        traced!(self, "subscribe.subscribe", self.inner.subscribe(q))
    }

    pub fn begin_step(&mut self) -> CallResult<()> {
        traced!(
            self,
            "monitor.begin_step",
            rendered(self.inner.begin_step())
        )
    }

    pub fn finish_step(&mut self) -> CallResult<u32> {
        traced!(
            self,
            "monitor.finish_step",
            rendered(self.inner.finish_step())
        )
    }

    pub fn step_in_flight(&self) -> bool {
        self.inner.step_in_flight()
    }

    pub fn snapshot(&self) -> &Mesh {
        self.inner.snapshot()
    }

    pub fn snapshot_at(&self, step: u32) -> CallResult<&Mesh> {
        rendered(self.inner.snapshot_at(step))
    }

    pub fn snapshot_step(&self) -> u32 {
        self.inner.snapshot_step()
    }

    /// Oldest step of `retained_steps()`.
    pub fn oldest_retained_step(&self) -> u32 {
        *self.inner.retained_steps().start()
    }

    pub fn relayouts(&self) -> u32 {
        self.inner.relayouts()
    }

    pub fn pin_step(&mut self, step: u32) -> CallResult<()> {
        traced!(self, "ring.pin_step", rendered(self.inner.pin_step(step)))
    }

    pub fn unpin_step(&mut self, step: u32) -> CallResult<()> {
        traced!(
            self,
            "ring.unpin_step",
            rendered(self.inner.unpin_step(step))
        )
    }

    pub fn query_batch(&mut self, queries: &[Aabb]) -> Vec<QueryResult> {
        traced!(self, "monitor.query_batch", self.inner.query_batch(queries))
    }

    pub fn query_batch_at(&mut self, step: u32, queries: &[Aabb]) -> CallResult<Vec<QueryResult>> {
        traced!(
            self,
            "monitor.query_batch_at",
            rendered(self.inner.query_batch_at(step, queries))
        )
    }

    pub fn recycle(&mut self, results: Vec<QueryResult>) {
        traced!(self, "recycle.recycle", self.inner.recycle(results));
    }

    /// `enqueue(tenant 0, queries, no deadline)`.
    pub fn enqueue(&mut self, queries: Vec<Aabb>) -> CallResult<()> {
        traced!(
            self,
            "admission.enqueue",
            rendered(self.inner.enqueue(0, queries, None)).map(|_ticket| ())
        )
    }

    pub fn drain_admitted(&mut self, max_batches: usize) -> CallResult<DrainOutcome> {
        traced!(
            self,
            "admission.drain_admitted",
            rendered(self.inner.drain_admitted(max_batches))
        )
    }

    pub fn poll_subscriptions(&mut self) -> Vec<(SubscriptionId, ResultDelta)> {
        traced!(self, "subscribe.poll", self.inner.poll_subscriptions())
    }

    pub fn subscription_result(&self, id: SubscriptionId) -> Option<&[VertexId]> {
        self.inner.subscription_result(id)
    }

    pub fn subscription_stats(&self, id: SubscriptionId) -> Option<SubscriptionStats> {
        self.inner.subscription_stats(id)
    }

    pub fn engine_report(&self) -> Option<EngineReport> {
        self.inner.engine_report()
    }

    pub fn seed_cache_stats(&self) -> Option<SeedCacheStats> {
        self.inner.seed_cache_stats()
    }

    pub fn recycle_stats(&self) -> RecycleStats {
        self.inner.recycle_stats()
    }

    pub fn admission_stats(&self) -> Option<AdmissionStats> {
        self.inner.admission_stats()
    }
}

// ---------------------------------------------------------------------
// Layers timed directly by the traced run
// ---------------------------------------------------------------------

/// `octopus_core::Octopus`, the executor behind every query.
pub struct Executor(Octopus);

impl Executor {
    /// `Octopus::new`.
    pub fn build(mesh: &Mesh) -> CallResult<Executor> {
        rendered(Octopus::new(mesh)).map(Executor)
    }

    /// `Octopus::restructured`.
    pub fn restructured(&self, mesh: &Mesh, delta: &SurfaceDelta) -> Executor {
        Executor(self.0.restructured(mesh, delta))
    }

    pub fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }
}

/// `octopus_service::ParallelExecutor`, the pool under the service.
pub struct Pool(ParallelExecutor);

impl Pool {
    pub fn new(threads: usize) -> Pool {
        Pool(ParallelExecutor::new(threads))
    }

    pub fn execute_batch(
        &mut self,
        exec: &Executor,
        mesh: &Mesh,
        queries: &[Aabb],
    ) -> Vec<QueryResult> {
        self.0.execute_batch(&exec.0, mesh, queries)
    }

    pub fn recycle(&mut self, results: Vec<QueryResult>) {
        self.0.recycle(results);
    }
}

/// `PhaseTimings::total`.
pub fn timings_total(t: &PhaseTimings) -> Duration {
    t.total()
}

/// `curve_permutation(mesh, Hilbert)`.
pub fn hilbert_permutation(mesh: &Mesh) -> Vec<VertexId> {
    curve_permutation(mesh, CurveKind::Hilbert)
}

/// `cache_line_stats(mesh).extra_lines_per_vertex`.
pub fn extra_lines_per_vertex(mesh: &Mesh) -> f64 {
    cache_line_stats(mesh).extra_lines_per_vertex
}

/// `LinearScan::query` over raw positions.
pub fn linear_scan(q: &Aabb, positions: &[Point3], out: &mut Vec<VertexId>) {
    LinearScan::new().query(q, positions, out);
}

/// `Mesh::positions`.
pub fn positions(mesh: &Mesh) -> &[Point3] {
    mesh.positions()
}

/// `Mesh::is_vertex_active`.
pub fn is_active(mesh: &Mesh, v: VertexId) -> bool {
    mesh.is_vertex_active(v)
}

/// `Mesh::surface().vertices()`: the ids of the surface vertices.
pub fn surface_vertices(mesh: &Mesh) -> CallResult<Vec<VertexId>> {
    rendered(mesh.surface()).map(|s| s.vertices().to_vec())
}

/// `Mesh::neighbors`.
pub fn neighbors(mesh: &Mesh, v: VertexId) -> &[VertexId] {
    mesh.neighbors(v)
}

/// `Mesh::clone`.
pub fn clone_mesh(mesh: &Mesh) -> Mesh {
    mesh.clone()
}

/// Marks the positions written (`Mesh::positions_mut`) so that the next
/// [`soa_blocks`] pays the lazy SoA rebuild.
pub fn touch_positions(mesh: &mut Mesh) {
    let _ = mesh.positions_mut();
}

/// `Mesh::position_blocks`; returns the number of blocks.
pub fn soa_blocks(mesh: &Mesh) -> usize {
    mesh.position_blocks().blocks().len()
}
