//! Surface extraction via the global face list (§IV-E1).
//!
//! "A face `F` belongs to the mesh surface if it occurs once in the
//! [global face] list, i.e. there exists no adjacent polyhedron that
//! shares face `F`." Two cells share a face iff they produce the same
//! canonical [`FaceKey`], and equal keys have equal smallest vertices —
//! so the list is never built as one global table: every face is
//! *filed under its smallest vertex* (`key.0[0]`) and matched only
//! against the faces filed there. The smallest vertex is the id a
//! canonical key already leads with, so filing is one array index, the
//! record need not store it (the bucket implies it), and a bucket
//! holds what the cells around one vertex contribute: on the L5
//! benchmark mesh (218 k vertices, 4.76 M face occurrences, 2.42 M
//! distinct faces) 22 occurrences on average.
//!
//! [`Surface::extract`] is a counting sort over that filing. One pass
//! over the cells counts occurrences per smallest vertex, a prefix sum
//! turns the counts into bucket offsets, a second pass scatters what is
//! left of each key into one transient array (8 B per triangle, 12 B
//! per quad: 38 MB on L5, freed on return), and each bucket is sorted
//! and read off in runs of equal keys. A run of 1 is a boundary face
//! (its vertices are surface vertices), a run of 2 an interior face, a
//! longer run a [`MeshError::NonManifoldFace`]. Nothing is hashed and
//! nothing grows; L5 takes ≈ 70 ms where the hash map it replaced took
//! ≈ 1.2 s and peaked 110 MiB higher. What the vertex *order* costs is
//! the in-bucket sort: a generator's ids give buckets that are evenly
//! sized and arrive sorted (L5: Σ size² 113 M, largest 38), a
//! space-filling-curve relabelling gives neither (155 M, largest 72)
//! and takes ≈ 1.3 × as long.
//!
//! The face list lives only as long as one extraction. Restructuring
//! mode keeps cells, not faces: [`crate::Mesh`] holds a vertex→cell
//! incidence (row `v` lists the live cells that contain `v`), and a
//! face's cell count is the number of cells in all its corners' rows
//! that have it among their faces. Its per-vertex boundary-face counts
//! start from this module's matching (`match_faces`).

use crate::{CellKind, FaceKey, MeshError};
use octopus_geom::{CellId, VertexId};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide count of [`Surface::extract`] runs.
static EXTRACT_CALLS: AtomicUsize = AtomicUsize::new(0);

/// What a face key keeps once it is filed under its smallest vertex:
/// `key.0[1..]` (a triangle's last slot is [`FaceKey::NONE`]).
type Tail = [VertexId; 3];

#[inline]
fn split(key: FaceKey) -> (usize, Tail) {
    let [v, a, b, c] = key.0;
    (v as usize, [a, b, c])
}

#[inline]
fn join(v: usize, tail: Tail) -> FaceKey {
    FaceKey([v as VertexId, tail[0], tail[1], tail[2]])
}

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
    /// vertex ids and is walked twice (count, then scatter — see the
    /// module docs). Returns [`MeshError::VertexOutOfRange`] for an id
    /// `>= num_vertices` (`cell` is the cell's position in `cells`), and
    /// [`MeshError::NonManifoldFace`] when a face is shared by more than
    /// two cells: of all such faces the smallest key, with the number
    /// of cells that share it — the same answer in any cell order.
    pub fn extract<'a>(
        kind: CellKind,
        num_vertices: usize,
        cells: impl Iterator<Item = &'a [VertexId]> + Clone,
    ) -> Result<Surface, MeshError> {
        // relaxed: a statistic; it publishes no other data.
        EXTRACT_CALLS.fetch_add(1, Ordering::Relaxed);
        let mut is_surface = vec![false; num_vertices];
        let num_boundary_faces = match_faces(kind, num_vertices, cells, |face| {
            for &u in face.vertices() {
                is_surface[u as usize] = true;
            }
        })?;
        Ok(Surface::from_membership_with_faces(
            is_surface,
            num_boundary_faces,
        ))
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

    /// Builds a surface directly from a membership bitmap and its
    /// boundary-face count (as [`crate::Mesh`] maintains them in
    /// restructuring mode).
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

/// [`Surface::extract`]'s face matching (module docs): hands every
/// boundary face to `boundary` and returns how many there are, or the
/// extraction's error. Restructuring mode starts its maintained
/// per-vertex counts from it.
pub(crate) fn match_faces<'a>(
    kind: CellKind,
    num_vertices: usize,
    cells: impl Iterator<Item = &'a [VertexId]> + Clone,
    boundary: impl FnMut(FaceKey),
) -> Result<usize, MeshError> {
    // A triangle's two remaining ids pack into one integer, which
    // sorts faster than an array (L5: 65 ms against 115) and files
    // in 8 B; a quad keeps its three as they are.
    match kind {
        CellKind::Tet4 => match_filed(
            kind,
            num_vertices,
            cells,
            |key| (key.0[1] as u64) << 32 | key.0[2] as u64,
            |v, t| join(v, [(t >> 32) as VertexId, t as VertexId, FaceKey::NONE]),
            boundary,
        ),
        CellKind::Hex8 => match_filed(
            kind,
            num_vertices,
            cells,
            |key| split(key).1,
            join,
            boundary,
        ),
    }
}

/// The counting sort (module docs): files what `pack` keeps of every
/// face under the face's smallest vertex, sorts each bucket and hands
/// the runs of one to `boundary`. `pack` drops a canonical key's first
/// id — keys equal in it must stay equal, and only those — and
/// `unpack` puts it back.
fn match_filed<'a, T: Copy + Default + Ord>(
    kind: CellKind,
    num_vertices: usize,
    cells: impl Iterator<Item = &'a [VertexId]> + Clone,
    pack: impl Fn(FaceKey) -> T,
    unpack: impl Fn(usize, T) -> FaceKey,
    mut boundary: impl FnMut(FaceKey),
) -> Result<usize, MeshError> {
    // Bucket `v` is `tails[ends[v]..ends[v + 1]]` once filled: counted
    // two slots up, so that the prefix sum leaves bucket `v`'s start in
    // `ends[v + 1]` and the scatter, advancing it, leaves its end there.
    let mut ends = vec![0usize; num_vertices + 2];
    for (ci, cell) in cells.clone().enumerate() {
        if let Some(&vertex) = cell.iter().find(|&&v| v as usize >= num_vertices) {
            return Err(MeshError::VertexOutOfRange {
                cell: ci as CellId,
                vertex,
                num_vertices,
            });
        }
        for key in kind.face_keys(cell) {
            ends[key.0[0] as usize + 2] += 1;
        }
    }
    for v in 2..ends.len() {
        ends[v] += ends[v - 1];
    }
    let mut tails = vec![T::default(); ends[num_vertices + 1]];
    for cell in cells {
        for key in kind.face_keys(cell) {
            let end = &mut ends[key.0[0] as usize + 1];
            tails[*end] = pack(key);
            *end += 1;
        }
    }
    let mut num_boundary_faces = 0;
    for v in 0..num_vertices {
        let bucket = &mut tails[ends[v]..ends[v + 1]];
        bucket.sort_unstable();
        // Ascending buckets, ascending runs: the first offending face
        // met is the smallest one.
        for run in bucket.chunk_by(|a, b| a == b) {
            let face = unpack(v, run[0]);
            match run.len() {
                1 => {
                    num_boundary_faces += 1;
                    boundary(face);
                }
                2 => {}
                count => return Err(MeshError::NonManifoldFace { face, count }),
            }
        }
    }
    Ok(num_boundary_faces)
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

    fn extract_tets(num_vertices: usize, cells: &[[u32; 4]]) -> Result<Surface, MeshError> {
        Surface::extract(CellKind::Tet4, num_vertices, cells.iter().map(|c| &c[..]))
    }

    #[test]
    fn nonmanifold_count_is_the_number_of_sharing_cells() {
        let shared = FaceKey::tri(1, 2, 3);
        for sharing in [3usize, 5] {
            let cells: Vec<[u32; 4]> = (0..sharing as u32).map(|i| [4 + i, 1, 2, 3]).collect();
            assert_eq!(
                extract_tets(4 + sharing, &cells).unwrap_err(),
                MeshError::NonManifoldFace {
                    face: shared,
                    count: sharing
                }
            );
        }
    }

    #[test]
    fn nonmanifold_report_names_the_smallest_face_in_any_cell_order() {
        // (1,2,3) is shared by three cells, (6,7,8) by four.
        let mut cells = vec![
            [0u32, 1, 2, 3],
            [4, 1, 2, 3],
            [5, 1, 2, 3],
            [9, 6, 7, 8],
            [10, 6, 7, 8],
            [11, 6, 7, 8],
            [12, 6, 7, 8],
        ];
        let expected = MeshError::NonManifoldFace {
            face: FaceKey::tri(1, 2, 3),
            count: 3,
        };
        assert_eq!(extract_tets(13, &cells).unwrap_err(), expected);
        cells.reverse();
        assert_eq!(extract_tets(13, &cells).unwrap_err(), expected);
    }

    #[test]
    fn out_of_range_vertex_is_an_error_on_interior_and_boundary_faces() {
        // A tet split around centroid 7: the centroid lies on interior
        // faces only, and the mesh claims 4 vertices.
        let split = [[0u32, 1, 2, 7], [0, 1, 3, 7], [0, 2, 3, 7], [1, 2, 3, 7]];
        assert_eq!(
            extract_tets(4, &split).unwrap_err(),
            MeshError::VertexOutOfRange {
                cell: 0,
                vertex: 7,
                num_vertices: 4
            }
        );
        assert_eq!(extract_tets(8, &split).unwrap().vertices(), &[0, 1, 2, 3]);
        // Only on boundary faces, in the second cell.
        let apart = [[0u32, 1, 2, 3], [4, 1, 2, 9]];
        assert_eq!(
            extract_tets(5, &apart).unwrap_err(),
            MeshError::VertexOutOfRange {
                cell: 1,
                vertex: 9,
                num_vertices: 5
            }
        );
        assert!(matches!(
            extract_tets(0, &apart),
            Err(MeshError::VertexOutOfRange { cell: 0, .. })
        ));
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
    fn from_membership_lists_true_indices() {
        let s = Surface::from_membership_with_faces(vec![true, false, true, false], 0);
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
