//! Synthetic mesh dataset generators.
//!
//! The paper evaluates OCTOPUS on three families of datasets that we do
//! not have access to (Blue Brain neuron meshes, Archimedes earthquake
//! meshes, deformation-transfer animation sequences). This crate builds
//! their closest synthetic equivalents — the [`datasets`] catalog says
//! what stands in for each family.
//!
//! All volumetric meshes are produced the same way:
//!
//! 1. a *mask* ([`masks`]) decides which voxels of a uniform grid belong
//!    to the solid ([`voxel::VoxelRegion`]);
//! 2. the masked voxels are subdivided into tetrahedra with the
//!    **Freudenthal/Kuhn 6-tet decomposition** ([`tet::tetrahedralize`]),
//!    which is globally consistent (shared cube faces receive the same
//!    diagonal on both sides) and yields the ~14-neighbour vertex degree
//!    the paper reports for tetrahedral meshes (Fig. 4, \[16\]);
//!    hexahedral meshes take the voxels directly ([`hex::hexahedralize`]).
//! 3. the [`datasets`] catalog instantiates the paper's Figs. 4 / 8 / 14
//!    dataset tables at laptop scale.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod datasets;
pub mod hex;
pub mod masks;
pub mod tet;
pub mod voxel;

pub use datasets::{animation, basin, neuron, AnimationKind, BasinResolution, NeuroLevel};
pub use voxel::VoxelRegion;
