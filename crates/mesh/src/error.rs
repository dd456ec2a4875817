//! Mesh construction and mutation errors.

use crate::FaceKey;
use octopus_geom::{CellId, VertexId};

/// Errors raised while building or restructuring a [`crate::Mesh`].
#[derive(Clone, Debug, PartialEq)]
pub enum MeshError {
    /// A cell references a vertex id `>= num_vertices`.
    VertexOutOfRange {
        /// Offending cell index.
        cell: CellId,
        /// Offending vertex id.
        vertex: VertexId,
        /// Number of vertices in the mesh.
        num_vertices: usize,
    },
    /// A cell lists the same vertex twice.
    DegenerateCell {
        /// Offending cell index.
        cell: CellId,
        /// The repeated vertex id.
        vertex: VertexId,
    },
    /// The flat cell array length is not a multiple of the cell arity.
    RaggedCellArray {
        /// Length of the provided array.
        len: usize,
        /// Required arity.
        arity: usize,
    },
    /// A face is referenced by more than two cells (non-manifold mesh).
    NonManifoldFace {
        /// Canonical face key.
        face: FaceKey,
        /// Number of referencing cells.
        count: usize,
    },
    /// A vertex position is NaN or infinite.
    NonFinitePosition {
        /// Offending vertex id.
        vertex: VertexId,
    },
    /// Operation addressed a cell id that does not exist or was removed.
    NoSuchCell {
        /// Offending cell id.
        cell: CellId,
    },
    /// Operation requires restructuring mode (the vertex→cell incidence
    /// and boundary counts); call
    /// [`crate::Mesh::enable_restructuring`] first.
    RestructuringDisabled,
    /// Operation is only defined for a specific cell kind.
    WrongCellKind {
        /// What the operation needed.
        expected: crate::CellKind,
        /// What the mesh is made of.
        actual: crate::CellKind,
    },
    /// The mesh would exceed `u32` vertex ids.
    TooManyVertices,
    /// The face matching would file more cells than its `u32` bucket
    /// offsets reach (more than ≈ 2³¹ tetrahedra).
    TooManyCells,
    /// A failure originating outside the mesh layer, propagated through
    /// a mesh-returning path (e.g. a fault-injection hook refusing a
    /// scheduled restructure, or an I/O layer wrapping its own error).
    /// The mesh itself is left untouched; the operation may be retried.
    External(String),
}

impl std::fmt::Display for MeshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeshError::VertexOutOfRange {
                cell,
                vertex,
                num_vertices,
            } => write!(
                f,
                "cell {cell} references vertex {vertex} but the mesh has {num_vertices} vertices"
            ),
            MeshError::DegenerateCell { cell, vertex } => {
                write!(f, "cell {cell} lists vertex {vertex} more than once")
            }
            MeshError::RaggedCellArray { len, arity } => {
                write!(
                    f,
                    "flat cell array of length {len} is not a multiple of arity {arity}"
                )
            }
            MeshError::NonManifoldFace { face, count } => {
                write!(
                    f,
                    "face {face:?} is shared by {count} cells (at most 2 allowed)"
                )
            }
            MeshError::NonFinitePosition { vertex } => {
                write!(f, "vertex {vertex} has a NaN/inf position")
            }
            MeshError::NoSuchCell { cell } => {
                write!(f, "cell {cell} does not exist or was removed")
            }
            MeshError::RestructuringDisabled => {
                write!(
                    f,
                    "restructuring mode is disabled; call enable_restructuring() first"
                )
            }
            MeshError::WrongCellKind { expected, actual } => {
                write!(
                    f,
                    "operation requires {} cells, mesh has {}",
                    expected.name(),
                    actual.name()
                )
            }
            MeshError::TooManyVertices => write!(f, "mesh exceeds u32 vertex id space"),
            MeshError::TooManyCells => write!(f, "mesh has too many cells to match its faces"),
            MeshError::External(msg) => write!(f, "external failure: {msg}"),
        }
    }
}

impl std::error::Error for MeshError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = MeshError::VertexOutOfRange {
            cell: 3,
            vertex: 9,
            num_vertices: 5,
        };
        let s = e.to_string();
        assert!(s.contains("cell 3") && s.contains("vertex 9") && s.contains('5'));
        let e = MeshError::NonManifoldFace {
            face: FaceKey::tri(1, 2, 3),
            count: 3,
        };
        assert!(e.to_string().contains("3 cells"));
    }

    #[test]
    fn error_implements_std_error() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&MeshError::TooManyVertices);
    }
}
