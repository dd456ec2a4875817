//! OCTOPUS: range-query execution on dynamic mesh datasets.
//!
//! The paper's contribution (§IV): execute 3-D range queries on a mesh
//! whose vertex positions are massively and unpredictably rewritten at
//! every simulation time step, *without* maintaining a spatial index over
//! the moving vertices. Only two position-invariant assets are used:
//!
//! * the **mesh surface** — extracted once, kept as one ascending id
//!   list per connected component (the lists the component-aware walk
//!   starts from), and changed only by (rare) connectivity
//!   restructuring, which derives the next executor from the delta, and
//! * the **mesh connectivity** — the adjacency list that the crawl
//!   traverses to collect the result.
//!
//! Query execution ([`Octopus::query_with`]) runs the three phases of
//! Algorithm 1: **surface probe** → **directed walk** (into each
//! connected component the probe left without a seed) → **crawling**
//! (bounded BFS).
//! Each phase is written once, for one query and for a group of them
//! alike: the probe is one prefetching gather
//! ([`octopus_geom::mem::gather`]) over the ids its [`Probe`] visits —
//! the whole surface (the paper's probe, [`Probe::Surface`]), or the
//! cells of a [`SurfaceGrid`] around the
//! query when the caller holds one for the snapshot
//! ([`Octopus::surface_grid`]) — the walk one per-component loop,
//! skipped for the components the grid's bounds put out of the
//! query's reach; the two differ only in where a seed is recorded.
//! The crawl is one kernel: a BFS on a shared frontier over a group of
//! queries ([`Octopus::query_group`]), a single query being a group of
//! one.
//!
//! Variants and tooling:
//!
//! * [`OctopusCon`] — the convex-mesh variant (§IV-F): no surface;
//!   a *stale* uniform grid seeds the directed walk near the query.
//! * [`ApproxOctopus`] — the surface-approximation optimisation (§IV-H2):
//!   probes a sample of the surface, trading accuracy for probe time.
//! * [`layout`] — the Hilbert data-layout optimisation (§IV-H1).
//! * [`CostModel`] — the analytical model (Eq. 1–6) with on-machine
//!   calibration of the `C_S`/`C_R` constants. Eq. 5/6 advise when
//!   OCTOPUS beats the linear scan (§IV-G); no query is routed by them,
//!   so every box is answered by the crawl.
//! * [`QueryShape`] — query shapes beyond the box: bounded convex
//!   regions, exact k-nearest-neighbour, and materialisation-free
//!   aggregates, all running on the same probe → walk → crawl
//!   machinery ([`Octopus::query_shape`]).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod approx;
pub mod con;
pub mod cost_model;
pub mod executor;
pub mod fault;
pub mod frontier;
pub mod layout;
pub mod metrics;
pub mod shape;
pub mod surface_grid;

pub use approx::ApproxOctopus;
pub use con::OctopusCon;
pub use cost_model::CostModel;
pub use executor::{Octopus, PhaseTimings, Probe, QueryScratch};
pub use fault::{FaultAction, FaultCell, FaultHook, FaultSite};
pub use frontier::MAX_GROUP;
pub use metrics::{ExecMode, ExecutorMetrics};
pub use shape::{AggregateKind, AggregateValue, QueryShape, ShapeResult};
pub use surface_grid::SurfaceGrid;
