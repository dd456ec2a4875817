//! # OCTOPUS — efficient query execution on dynamic mesh datasets
//!
//! A Rust reproduction of *Tauheed, Heinis, Schürmann, Markram, Ailamaki:
//! "OCTOPUS: Efficient Query Execution on Dynamic Mesh Datasets", ICDE
//! 2014*: range queries on simulation meshes whose vertex positions are
//! massively and unpredictably rewritten at every time step, executed
//! without maintaining any positional index — only the (deformation-
//! invariant) mesh surface and connectivity are used.
//!
//! This crate is the facade re-exporting the workspace's public API:
//!
//! * [`geom`] — points, boxes, Hilbert/Morton curves;
//! * [`mesh`] — the dynamic polyhedral mesh (adjacency, surface
//!   extraction, restructuring);
//! * [`meshgen`] — synthetic dataset generators (neuron arbors, convex
//!   basins, animation bodies);
//! * [`sim`] — the black-box simulation driver and deformation fields;
//! * [`index`] — competitor indexes (linear scan, throwaway octree,
//!   R-tree, LUR-Tree, QU-Trade, stale uniform grid);
//! * [`core`] — OCTOPUS itself: [`prelude::Octopus`],
//!   [`prelude::OctopusCon`], [`prelude::ApproxOctopus`], the Hilbert
//!   layout, the cost model (Eq. 1–6), and the query shapes beyond
//!   boxes ([`prelude::QueryShape`]: convex regions, k-nearest-
//!   neighbour, aggregates);
//! * [`service`] — concurrent query serving: the persistent worker
//!   pool ([`prelude::WorkerPool`]), the parallel batch executor
//!   ([`prelude::ParallelExecutor`]), the pipelined snapshot-ring
//!   SIMULATE ∥ MONITOR loop ([`prelude::MonitorLoop`]) with its
//!   cache-conscious vertex-layout policy ([`prelude::LayoutPolicy`]),
//!   restructure-triggered re-layout
//!   ([`prelude::RelayoutTrigger`]), and standing queries that stream
//!   incremental result deltas
//!   ([`prelude::MonitorLoop::subscribe`] → [`prelude::ResultDelta`]).
//!
//! ## Quickstart
//!
//! ```
//! use octopus::prelude::*;
//!
//! // A small convex mesh (4×4×4 voxels → 384 tetrahedra).
//! let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
//! let mesh = octopus::meshgen::tet::tetrahedralize(
//!     &VoxelRegion::solid_box(&bounds, 4, 4, 4),
//! )?;
//!
//! // Build OCTOPUS once — no maintenance needed while the mesh deforms.
//! // Each query brings its own scratch (one per thread) and probe.
//! let engine = Octopus::new(&mesh)?;
//! let mut scratch = engine.make_scratch(&mesh);
//!
//! let query = Aabb::cube(Point3::splat(0.5), 0.3);
//! let mut result = Vec::new();
//! let stats = engine.query_with(&mut scratch, &mesh, &query, Probe::Surface, &mut result);
//! assert_eq!(result.len(), stats.results);
//! # Ok::<(), octopus::mesh::MeshError>(())
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub use octopus_core as core;
pub use octopus_geom as geom;
pub use octopus_index as index;
pub use octopus_mesh as mesh;
pub use octopus_meshgen as meshgen;
pub use octopus_service as service;
pub use octopus_sim as sim;
pub use octopus_telemetry as telemetry;

/// The most common imports in one place.
pub mod prelude {
    pub use octopus_core::{
        AggregateKind, AggregateValue, ApproxOctopus, CostModel, Octopus, OctopusCon, Probe,
        QueryScratch, QueryShape, ShapeResult,
    };
    pub use octopus_geom::{Aabb, ConvexRegion, Halfspace, Point3, Region, Vec3, VertexId};
    pub use octopus_index::{DynamicIndex, LinearScan};
    pub use octopus_mesh::{CellKind, Mesh, MeshStats};
    pub use octopus_meshgen::VoxelRegion;
    pub use octopus_service::{
        LayoutPolicy, MonitorLoop, ParallelExecutor, RelayoutTrigger, ResultDelta,
        ShapeQueryResult, SubscriptionId, SubscriptionStats, WorkerPool,
    };
    pub use octopus_sim::{Deformation, Simulation};
}
