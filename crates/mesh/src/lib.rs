//! Dynamic polyhedral mesh core for the OCTOPUS reproduction.
//!
//! A [`Mesh`] is the in-memory dataset a simulation mutates in place:
//!
//! * an array of vertex **positions** — rewritten (almost) entirely at
//!   every simulation time step;
//! * a list of **cells** (tetrahedra or hexahedra, [`CellKind`]);
//! * a CSR **vertex adjacency** (the paper's adjacency-list
//!   representation: "for each vertex the position as well as pointers to
//!   neighbouring vertices");
//! * the **global face list** machinery (§IV-E1): a face belongs to the
//!   mesh surface iff exactly one cell references it — matched in one
//!   extraction ([`Surface::extract`]), and in restructuring mode read
//!   off a maintained vertex→cell incidence ([`Mesh::vertex_cells`]).
//!
//! Deformation (position changes) never touches connectivity, so surface
//! and adjacency stay valid across time steps — the key property OCTOPUS
//! exploits. The rare *restructuring* transformation (§IV-E2) is
//! supported through [`Mesh::remove_cell`] / [`Mesh::refine_tet`], which
//! report exact [`SurfaceDelta`]s for incremental surface-index
//! maintenance.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod adjacency;
pub mod cell;
mod error;
mod mesh;
pub mod soa;
pub mod stats;
pub mod surface;
pub mod validate;

pub use adjacency::{Csr, VERTICES_PER_BLOCK};
pub use cell::{CellKind, FaceKey};
pub use error::MeshError;
pub use mesh::{Mesh, SurfaceDelta, CELLS_PER_BLOCK};
pub use octopus_geom::{CellId, VertexId};
pub use soa::PositionBlocks;
pub use stats::MeshStats;
pub use surface::Surface;
