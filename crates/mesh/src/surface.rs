//! Surface extraction via the global face list (§IV-E1).
//!
//! "A face `F` belongs to the mesh surface if it occurs once in the
//! [global face] list, i.e. there exists no adjacent polyhedron that
//! shares face `F`." Surface extraction builds that list (as a hash map
//! of canonical [`FaceKey`]s) and marks every vertex lying on a
//! single-occurrence face.
//!
//! [`FaceTable`] is the persistent variant kept alive in *restructuring
//! mode*: it supports O(faces-per-cell) cell insertion/removal and answers
//! "is this face boundary" / "which cell is the twin" queries, from which
//! [`crate::Mesh`] derives exact surface deltas.

use crate::{CellKind, FaceKey, MeshError};
use octopus_geom::{CellId, VertexId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide count of [`Surface::extract`] runs.
static EXTRACT_CALLS: AtomicUsize = AtomicUsize::new(0);

/// The set of surface (boundary) vertices of a mesh.
#[derive(Clone, Debug, Default)]
pub struct Surface {
    is_surface: Vec<bool>,
    vertices: Vec<VertexId>,
    num_boundary_faces: usize,
}

impl Surface {
    /// Extracts the surface of the cell collection.
    ///
    /// `num_vertices` bounds vertex ids; `cells` yields each cell's global
    /// vertex ids. Returns [`MeshError::NonManifoldFace`] when a face is
    /// shared by more than two cells.
    pub fn extract<'a>(
        kind: CellKind,
        num_vertices: usize,
        cells: impl Iterator<Item = &'a [VertexId]>,
    ) -> Result<Surface, MeshError> {
        // relaxed: a statistic; it publishes no other data.
        EXTRACT_CALLS.fetch_add(1, Ordering::Relaxed);
        let mut counts: HashMap<FaceKey, u8> = HashMap::new();
        for cell in cells {
            for key in kind.face_keys(cell) {
                let c = counts.entry(key).or_insert(0);
                *c += 1;
                if *c > 2 {
                    return Err(MeshError::NonManifoldFace {
                        face: key,
                        count: *c as usize,
                    });
                }
            }
        }
        let mut is_surface = vec![false; num_vertices];
        let mut num_boundary_faces = 0;
        for (key, count) in &counts {
            if *count == 1 {
                num_boundary_faces += 1;
                for &v in key.vertices() {
                    is_surface[v as usize] = true;
                }
            }
        }
        let vertices: Vec<VertexId> = (0..num_vertices as u32)
            .filter(|&v| is_surface[v as usize])
            .collect();
        Ok(Surface {
            is_surface,
            vertices,
            num_boundary_faces,
        })
    }

    /// How many times [`Surface::extract`] has run in this process.
    /// Tests use the count to prove that a serving path stays on the
    /// delta-maintained structures and never falls back to the
    /// from-scratch O(cells) extraction.
    #[doc(hidden)]
    pub fn extract_calls() -> usize {
        // relaxed: a statistic; it publishes no other data.
        EXTRACT_CALLS.load(Ordering::Relaxed)
    }

    /// Builds a surface directly from a membership bitmap (used by
    /// restructuring deltas and tests). [`Surface::num_boundary_faces`]
    /// reports 0; use [`Surface::from_membership_with_faces`] when the
    /// face count is known.
    pub fn from_membership(is_surface: Vec<bool>) -> Surface {
        Surface::from_membership_with_faces(is_surface, 0)
    }

    /// [`Surface::from_membership`] with an explicit boundary-face count
    /// (as maintained by [`FaceTable`] in restructuring mode).
    pub fn from_membership_with_faces(is_surface: Vec<bool>, num_boundary_faces: usize) -> Surface {
        let vertices = (0..is_surface.len() as u32)
            .filter(|&v| is_surface[v as usize])
            .collect();
        Surface {
            is_surface,
            vertices,
            num_boundary_faces,
        }
    }

    /// True when `v` lies on the mesh surface.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.is_surface[v as usize]
    }

    /// Sorted surface vertex ids.
    #[inline]
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Number of surface vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True when the mesh has no boundary (or no vertices).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Number of boundary faces found during extraction.
    #[inline]
    pub fn num_boundary_faces(&self) -> usize {
        self.num_boundary_faces
    }

    /// Surface-to-volume ratio `S`: surface vertices ÷ total vertices
    /// (the paper's Fig. 4 / Fig. 8 "Surface : Volume" column).
    pub fn ratio(&self) -> f64 {
        if self.is_surface.is_empty() {
            0.0
        } else {
            self.vertices.len() as f64 / self.is_surface.len() as f64
        }
    }
}

/// Record of the 1–2 cells referencing a face.
#[derive(Clone, Copy, Debug)]
struct FaceRec {
    cells: [CellId; 2],
    count: u8,
}

/// Persistent global face list for restructuring mode (§IV-E2).
#[derive(Clone, Debug, Default)]
pub struct FaceTable {
    map: HashMap<FaceKey, FaceRec>,
}

impl FaceTable {
    /// Builds the table from all live cells.
    pub fn build<'a>(
        kind: CellKind,
        cells: impl Iterator<Item = (CellId, &'a [VertexId])>,
    ) -> Result<FaceTable, MeshError> {
        let mut table = FaceTable {
            map: HashMap::new(),
        };
        for (id, cell) in cells {
            table.insert_cell(kind, id, cell)?;
        }
        Ok(table)
    }

    /// The table of the same cells after a vertex relabelling (vertex
    /// `old` becomes `perm[old]`; cell ids are unchanged). The canonical
    /// keys change with the labels, so every entry is re-keyed — into a
    /// map presized to the known face count, with no twin matching or
    /// manifold check to redo.
    pub fn permuted(&self, perm: &[VertexId]) -> FaceTable {
        let mut map = HashMap::with_capacity(self.map.len());
        map.extend(self.map.iter().map(|(key, rec)| (key.permuted(perm), *rec)));
        FaceTable { map }
    }

    /// Registers all faces of a cell.
    pub fn insert_cell(
        &mut self,
        kind: CellKind,
        id: CellId,
        cell: &[VertexId],
    ) -> Result<(), MeshError> {
        for key in kind.face_keys(cell) {
            let rec = self.map.entry(key).or_insert(FaceRec {
                cells: [CellId::MAX; 2],
                count: 0,
            });
            if rec.count >= 2 {
                return Err(MeshError::NonManifoldFace {
                    face: key,
                    count: 3,
                });
            }
            rec.cells[rec.count as usize] = id;
            rec.count += 1;
        }
        Ok(())
    }

    /// Unregisters all faces of a cell. Faces dropping to zero
    /// occurrences are deleted.
    pub fn remove_cell(&mut self, kind: CellKind, id: CellId, cell: &[VertexId]) {
        for key in kind.face_keys(cell) {
            if let Some(rec) = self.map.get_mut(&key) {
                if rec.count == 2 {
                    // Keep the surviving twin in slot 0.
                    if rec.cells[0] == id {
                        rec.cells[0] = rec.cells[1];
                    }
                    rec.cells[1] = CellId::MAX;
                    rec.count = 1;
                } else {
                    self.map.remove(&key);
                }
            }
        }
    }

    /// Occurrence count of a face (0 when absent).
    #[inline]
    pub fn count(&self, key: &FaceKey) -> usize {
        self.map.get(key).map_or(0, |r| r.count as usize)
    }

    /// True when the face occurs exactly once (is on the surface).
    #[inline]
    pub fn is_boundary(&self, key: &FaceKey) -> bool {
        self.count(key) == 1
    }

    /// The cell on the other side of `key` from `cell`, if any.
    pub fn twin(&self, key: &FaceKey, cell: CellId) -> Option<CellId> {
        let rec = self.map.get(key)?;
        if rec.count < 2 {
            return None;
        }
        if rec.cells[0] == cell {
            Some(rec.cells[1])
        } else if rec.cells[1] == cell {
            Some(rec.cells[0])
        } else {
            None
        }
    }

    /// Number of distinct faces tracked.
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no faces are tracked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates boundary faces (count == 1).
    pub fn boundary_faces(&self) -> impl Iterator<Item = &FaceKey> {
        self.map
            .iter()
            .filter(|(_, r)| r.count == 1)
            .map(|(k, _)| k)
    }

    /// Approximate heap usage in bytes.
    pub fn memory_bytes(&self) -> usize {
        // HashMap stores (key, value) pairs plus ~1/8 control bytes per
        // bucket; capacity may exceed len.
        self.map.capacity() * (std::mem::size_of::<FaceKey>() + std::mem::size_of::<FaceRec>() + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tets glued on face (1,2,3): vertices 0..=4.
    fn two_tets() -> Vec<[u32; 4]> {
        vec![[0, 1, 2, 3], [4, 1, 2, 3]]
    }

    #[test]
    fn two_glued_tets_share_one_interior_face() {
        let cells = two_tets();
        let s = Surface::extract(CellKind::Tet4, 5, cells.iter().map(|c| &c[..])).unwrap();
        // 8 faces total, 1 interior (1,2,3) counted twice → 6 boundary.
        assert_eq!(s.num_boundary_faces(), 6);
        // Every vertex is on the boundary (1,2,3 are on outer faces too).
        assert_eq!(s.len(), 5);
        assert!((s.ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_tet_is_all_surface() {
        let cells = [[0u32, 1, 2, 3]];
        let s = Surface::extract(CellKind::Tet4, 4, cells.iter().map(|c| &c[..])).unwrap();
        assert_eq!(s.num_boundary_faces(), 4);
        assert_eq!(s.vertices(), &[0, 1, 2, 3]);
    }

    #[test]
    fn nonmanifold_face_is_rejected() {
        // Three tets all sharing face (1,2,3).
        let cells = [[0u32, 1, 2, 3], [4, 1, 2, 3], [5, 1, 2, 3]];
        let err = Surface::extract(CellKind::Tet4, 6, cells.iter().map(|c| &c[..])).unwrap_err();
        assert!(matches!(err, MeshError::NonManifoldFace { .. }));
    }

    #[test]
    fn unreferenced_vertices_are_not_surface() {
        let cells = [[0u32, 1, 2, 3]];
        let s = Surface::extract(CellKind::Tet4, 6, cells.iter().map(|c| &c[..])).unwrap();
        assert!(!s.contains(4));
        assert!(!s.contains(5));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn face_table_tracks_counts_and_twins() {
        let cells = two_tets();
        let t = FaceTable::build(
            CellKind::Tet4,
            cells.iter().enumerate().map(|(i, c)| (i as u32, &c[..])),
        )
        .unwrap();
        let shared = FaceKey::tri(1, 2, 3);
        assert_eq!(t.count(&shared), 2);
        assert!(!t.is_boundary(&shared));
        assert_eq!(t.twin(&shared, 0), Some(1));
        assert_eq!(t.twin(&shared, 1), Some(0));
        let outer = FaceKey::tri(0, 1, 2);
        assert!(t.is_boundary(&outer));
        assert_eq!(t.twin(&outer, 0), None);
        assert_eq!(t.len(), 7); // 8 face slots, 1 shared
        assert_eq!(t.boundary_faces().count(), 6);
    }

    #[test]
    fn face_table_removal_exposes_twin_face() {
        let cells = two_tets();
        let mut t = FaceTable::build(
            CellKind::Tet4,
            cells.iter().enumerate().map(|(i, c)| (i as u32, &c[..])),
        )
        .unwrap();
        let shared = FaceKey::tri(1, 2, 3);
        t.remove_cell(CellKind::Tet4, 0, &cells[0]);
        assert_eq!(t.count(&shared), 1, "shared face becomes boundary");
        assert!(t.is_boundary(&shared));
        assert_eq!(
            t.count(&FaceKey::tri(0, 1, 2)),
            0,
            "cell-0 outer face disappears"
        );
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn face_table_reinsert_restores_counts() {
        let cells = two_tets();
        let mut t = FaceTable::build(
            CellKind::Tet4,
            cells.iter().enumerate().map(|(i, c)| (i as u32, &c[..])),
        )
        .unwrap();
        t.remove_cell(CellKind::Tet4, 1, &cells[1]);
        t.insert_cell(CellKind::Tet4, 1, &cells[1]).unwrap();
        assert_eq!(t.count(&FaceKey::tri(1, 2, 3)), 2);
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn from_membership_lists_true_indices() {
        let s = Surface::from_membership(vec![true, false, true, false]);
        assert_eq!(s.vertices(), &[0, 2]);
        assert!(s.contains(0) && !s.contains(1));
        assert_eq!(s.ratio(), 0.5);
    }

    #[test]
    fn empty_surface() {
        let s = Surface::extract(CellKind::Tet4, 0, std::iter::empty()).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.ratio(), 0.0);
    }
}
