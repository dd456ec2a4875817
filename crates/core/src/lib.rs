//! OCTOPUS: range-query execution on dynamic mesh datasets.
//!
//! The paper's contribution (§IV): execute 3-D range queries on a mesh
//! whose vertex positions are massively and unpredictably rewritten at
//! every simulation time step, *without* maintaining a spatial index over
//! the moving vertices. Only two position-invariant assets are used:
//!
//! * the **mesh surface** — maintained in a [`SurfaceIndex`] hash table
//!   that only changes on (rare) connectivity restructuring, and
//! * the **mesh connectivity** — the adjacency list that the crawl
//!   traverses to collect the result.
//!
//! Query execution ([`Octopus::query`]) runs the three phases of
//! Algorithm 1: **surface probe** → **directed walk** (into each
//! connected component the probe left without a seed) → **crawling**
//! (bounded BFS).
//! Each phase is written once, for one query and for a group of them
//! alike: the probe is one prefetching gather
//! ([`octopus_geom::mem::gather`]) over the ids its [`Probe`] visits —
//! the whole surface index (the paper's probe, and what the library
//! entry points use), or the cells of a [`SurfaceGrid`] around the
//! query when the caller holds one for the snapshot
//! ([`Octopus::surface_grid`]) — the walk one per-component loop,
//! skipped for the components the grid's bounds put out of the
//! query's reach; the two differ only in where a seed is recorded.
//! The crawl is picked from the number of queries run together
//! ([`Octopus::query_group`]: sequential BFS for one, shared frontier
//! for more).
//!
//! Variants and tooling:
//!
//! * [`OctopusCon`] — the convex-mesh variant (§IV-F): no surface index;
//!   a *stale* uniform grid seeds the directed walk near the query.
//! * [`ApproxOctopus`] — the surface-approximation optimisation (§IV-H2):
//!   probes a sample of the surface, trading accuracy for probe time.
//! * [`layout`] — the Hilbert data-layout optimisation (§IV-H1).
//! * [`CostModel`] — the analytical model (Eq. 1–6) with on-machine
//!   calibration of the `C_S`/`C_R` constants.
//! * [`Planner`] — the Eq.-6 decision rule (OCTOPUS vs. linear scan)
//!   driven by histogram selectivity estimates and the
//!   [`Characteristics`] (S, M) of the snapshot queried.
//! * [`QueryShape`] — query shapes beyond the box: bounded convex
//!   regions, exact k-nearest-neighbour, and materialisation-free
//!   aggregates, all running on the same probe → walk → crawl
//!   machinery ([`Octopus::query_shape`]).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod approx;
pub mod con;
pub mod cost_model;
mod crawler;
pub mod executor;
pub mod fault;
pub mod frontier;
pub mod layout;
pub mod metrics;
pub mod planner;
pub mod shape;
pub mod surface_grid;
pub mod surface_index;

pub use approx::ApproxOctopus;
pub use con::OctopusCon;
pub use cost_model::CostModel;
pub use executor::{Octopus, PhaseTimings, Probe, QueryScratch};
pub use fault::{FaultAction, FaultCell, FaultHook, FaultSite};
pub use frontier::MAX_GROUP;
pub use metrics::{ExecMode, ExecutorMetrics};
pub use planner::{Characteristics, Decision, Planner, Strategy};
pub use shape::{AggregateKind, AggregateValue, QueryShape, ShapeResult};
pub use surface_grid::SurfaceGrid;
pub use surface_index::SurfaceIndex;
