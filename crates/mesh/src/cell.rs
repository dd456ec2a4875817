//! Cell (polyhedron) kinds and their face / edge topology.
//!
//! The paper (§III-A, Fig. 1a/b) categorises meshes by polyhedral
//! primitive; tetrahedra and hexahedra are the two primitives used by its
//! datasets. Both are supported: every algorithm downstream only consumes
//! the face and edge enumerations defined here.

use octopus_geom::VertexId;

/// The polyhedral primitive a mesh is built from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// 4-vertex tetrahedron (4 triangular faces, 6 edges).
    Tet4,
    /// 8-vertex hexahedron (6 quadrilateral faces, 12 edges), VTK vertex
    /// numbering: vertices 0–3 form the bottom quad, 4–7 the top quad.
    Hex8,
}

/// Local vertex indices of each tetrahedron face.
const TET_FACES: [[usize; 3]; 4] = [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]];

/// Local vertex indices of each tetrahedron edge.
const TET_EDGES: [[usize; 2]; 6] = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]];

/// Local vertex indices of each hexahedron face (VTK numbering).
const HEX_FACES: [[usize; 4]; 6] = [
    [0, 3, 2, 1], // bottom
    [4, 5, 6, 7], // top
    [0, 1, 5, 4],
    [1, 2, 6, 5],
    [2, 3, 7, 6],
    [3, 0, 4, 7],
];

/// Local vertex indices of each hexahedron edge.
const HEX_EDGES: [[usize; 2]; 12] = [
    [0, 1],
    [1, 2],
    [2, 3],
    [3, 0],
    [4, 5],
    [5, 6],
    [6, 7],
    [7, 4],
    [0, 4],
    [1, 5],
    [2, 6],
    [3, 7],
];

impl CellKind {
    /// Vertices per cell.
    #[inline]
    pub const fn arity(self) -> usize {
        match self {
            CellKind::Tet4 => 4,
            CellKind::Hex8 => 8,
        }
    }

    /// Faces per cell.
    #[inline]
    pub const fn faces_per_cell(self) -> usize {
        match self {
            CellKind::Tet4 => 4,
            CellKind::Hex8 => 6,
        }
    }

    /// Vertices per face (3 for tets, 4 for hexes).
    #[inline]
    pub const fn face_arity(self) -> usize {
        match self {
            CellKind::Tet4 => 3,
            CellKind::Hex8 => 4,
        }
    }

    /// Edges per cell.
    #[inline]
    pub const fn edges_per_cell(self) -> usize {
        match self {
            CellKind::Tet4 => 6,
            CellKind::Hex8 => 12,
        }
    }

    /// Human-readable name of the primitive.
    pub const fn name(self) -> &'static str {
        match self {
            CellKind::Tet4 => "tetrahedron",
            CellKind::Hex8 => "hexahedron",
        }
    }

    /// Writes the canonical [`FaceKey`] of face `face_idx` of the cell
    /// whose global vertex ids are `cell`.
    ///
    /// # Panics
    /// Panics when `cell.len() != self.arity()` or `face_idx` is out of
    /// range.
    #[inline]
    pub fn face_key(self, cell: &[VertexId], face_idx: usize) -> FaceKey {
        debug_assert_eq!(cell.len(), self.arity());
        match self {
            CellKind::Tet4 => {
                let f = TET_FACES[face_idx];
                FaceKey::tri(cell[f[0]], cell[f[1]], cell[f[2]])
            }
            CellKind::Hex8 => {
                let f = HEX_FACES[face_idx];
                FaceKey::quad(cell[f[0]], cell[f[1]], cell[f[2]], cell[f[3]])
            }
        }
    }

    /// Iterates the canonical keys of all faces of `cell`.
    #[inline]
    pub fn face_keys<'a>(self, cell: &'a [VertexId]) -> impl Iterator<Item = FaceKey> + 'a {
        (0..self.faces_per_cell()).map(move |i| self.face_key(cell, i))
    }

    /// Iterates the (unordered) vertex-id pairs forming the cell's edges.
    #[inline]
    pub fn edges<'a>(
        self,
        cell: &'a [VertexId],
    ) -> impl Iterator<Item = (VertexId, VertexId)> + 'a {
        let table: &'static [[usize; 2]] = match self {
            CellKind::Tet4 => &TET_EDGES,
            CellKind::Hex8 => &HEX_EDGES,
        };
        table.iter().map(move |e| (cell[e[0]], cell[e[1]]))
    }
}

/// Canonical (orientation-independent) identifier of a polyhedral face.
///
/// Triangular faces store their vertex ids sorted ascending with a
/// `u32::MAX` sentinel in the fourth slot; quadrilateral faces sort all
/// four ids. Two cells share a face iff they produce equal keys — the
/// property the global-face-list surface extraction (§IV-E1) relies on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FaceKey(pub [VertexId; 4]);

impl FaceKey {
    /// Sentinel marking the unused slot of a triangle key.
    pub const NONE: VertexId = VertexId::MAX;

    /// Canonical key for a triangle.
    #[inline]
    pub fn tri(a: VertexId, b: VertexId, c: VertexId) -> FaceKey {
        debug_assert!(a != b && b != c && a != c, "degenerate triangle face");
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let key = if c < lo {
            [c, lo, hi, Self::NONE]
        } else if c < hi {
            [lo, c, hi, Self::NONE]
        } else {
            [lo, hi, c, Self::NONE]
        };
        FaceKey(key)
    }

    /// Canonical key for a quadrilateral.
    #[inline]
    pub fn quad(a: VertexId, b: VertexId, c: VertexId, d: VertexId) -> FaceKey {
        let mut v = [a, b, c, d];
        v.sort_unstable();
        debug_assert!(
            v[0] != v[1] && v[1] != v[2] && v[2] != v[3],
            "degenerate quad face"
        );
        FaceKey(v)
    }

    /// The key of the same face after a vertex relabelling (vertex
    /// `old` becomes `perm[old]`).
    #[inline]
    pub fn permuted(&self, perm: &[VertexId]) -> FaceKey {
        let v = |i: usize| perm[self.0[i] as usize];
        if self.arity() == 3 {
            FaceKey::tri(v(0), v(1), v(2))
        } else {
            FaceKey::quad(v(0), v(1), v(2), v(3))
        }
    }

    /// Number of vertices on the face (3 or 4).
    #[inline]
    pub fn arity(&self) -> usize {
        if self.0[3] == Self::NONE {
            3
        } else {
            4
        }
    }

    /// The face's vertex ids (3 or 4 of them).
    #[inline]
    pub fn vertices(&self) -> &[VertexId] {
        &self.0[..self.arity()]
    }

    /// True when `v` lies on this face.
    #[inline]
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        self.vertices().contains(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tet_face_keys_are_orientation_independent() {
        assert_eq!(FaceKey::tri(3, 1, 2), FaceKey::tri(2, 3, 1));
        assert_eq!(FaceKey::tri(9, 5, 7).0, [5, 7, 9, FaceKey::NONE]);
    }

    #[test]
    fn quad_face_keys_sort_all_vertices() {
        assert_eq!(FaceKey::quad(8, 2, 6, 4).0, [2, 4, 6, 8]);
        assert_eq!(FaceKey::quad(1, 2, 3, 4), FaceKey::quad(4, 3, 2, 1));
    }

    #[test]
    fn face_key_arity_and_vertices() {
        let t = FaceKey::tri(1, 2, 3);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.vertices(), &[1, 2, 3]);
        let q = FaceKey::quad(1, 2, 3, 4);
        assert_eq!(q.arity(), 4);
        assert_eq!(q.vertices(), &[1, 2, 3, 4]);
        assert!(t.contains_vertex(2));
        assert!(!t.contains_vertex(4));
    }

    #[test]
    fn tet_has_four_distinct_faces_covering_all_triples() {
        let cell = [10, 11, 12, 13];
        let keys: Vec<FaceKey> = CellKind::Tet4.face_keys(&cell).collect();
        assert_eq!(keys.len(), 4);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "tet faces must be distinct");
        // Every 3-subset of the cell must appear exactly once.
        for omit in 0..4 {
            let tri: Vec<u32> = (0..4).filter(|&i| i != omit).map(|i| cell[i]).collect();
            let key = FaceKey::tri(tri[0], tri[1], tri[2]);
            assert!(keys.contains(&key), "missing face {key:?}");
        }
    }

    #[test]
    fn hex_has_six_distinct_faces_and_each_vertex_on_three() {
        let cell: Vec<u32> = (0..8).collect();
        let keys: Vec<FaceKey> = CellKind::Hex8.face_keys(&cell).collect();
        assert_eq!(keys.len(), 6);
        let mut sorted = keys.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
        for v in 0..8u32 {
            let on = keys.iter().filter(|k| k.contains_vertex(v)).count();
            assert_eq!(on, 3, "hex vertex {v} must lie on exactly 3 faces");
        }
    }

    #[test]
    fn tet_edges_cover_all_pairs() {
        let cell = [5, 6, 7, 8];
        let edges: Vec<(u32, u32)> = CellKind::Tet4.edges(&cell).collect();
        assert_eq!(edges.len(), 6);
        for i in 0..4 {
            for j in (i + 1)..4 {
                let found = edges
                    .iter()
                    .any(|&(a, b)| (a, b) == (cell[i], cell[j]) || (b, a) == (cell[i], cell[j]));
                assert!(found, "missing edge ({}, {})", cell[i], cell[j]);
            }
        }
    }

    #[test]
    fn hex_edges_have_each_vertex_with_degree_three() {
        let cell: Vec<u32> = (0..8).collect();
        let mut deg = [0usize; 8];
        for (a, b) in CellKind::Hex8.edges(&cell) {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        assert!(
            deg.iter().all(|&d| d == 3),
            "cube vertices have degree 3: {deg:?}"
        );
    }

    #[test]
    fn arity_tables() {
        assert_eq!(CellKind::Tet4.arity(), 4);
        assert_eq!(CellKind::Hex8.arity(), 8);
        assert_eq!(CellKind::Tet4.faces_per_cell(), 4);
        assert_eq!(CellKind::Hex8.faces_per_cell(), 6);
        assert_eq!(CellKind::Tet4.face_arity(), 3);
        assert_eq!(CellKind::Hex8.face_arity(), 4);
        assert_eq!(CellKind::Tet4.edges_per_cell(), 6);
        assert_eq!(CellKind::Hex8.edges_per_cell(), 12);
    }
}
