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
//! [`FaceTable`] is the persistent variant kept alive in *restructuring
//! mode*, with the same filing kept permanently: it supports
//! O(faces-per-cell) cell insertion/removal and answers "is this face
//! boundary" / "which cell is the twin" queries by scanning one short
//! bucket, from which [`crate::Mesh`] derives exact surface deltas, and
//! "which cells contain this vertex" by scanning the few buckets its
//! faces can be filed under ([`FaceTable::cells_around`]), from which it
//! patches the adjacency.

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
            ),
            CellKind::Hex8 => match_filed(kind, num_vertices, cells, |key| split(key).1, join),
        }
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
    /// boundary-face count (as maintained by [`FaceTable`] in
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

/// [`Surface::extract`]'s counting sort (module docs): files what
/// `pack` keeps of every face under the face's smallest vertex, sorts
/// each bucket and reads the surface off the run lengths. `pack` drops
/// a canonical key's first id — keys equal in it must stay equal, and
/// only those — and `unpack` puts it back.
fn match_filed<'a, T: Copy + Default + Ord>(
    kind: CellKind,
    num_vertices: usize,
    cells: impl Iterator<Item = &'a [VertexId]> + Clone,
    pack: impl Fn(FaceKey) -> T,
    unpack: impl Fn(usize, T) -> FaceKey,
) -> Result<Surface, MeshError> {
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
    let mut is_surface = vec![false; num_vertices];
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
                    for &u in face.vertices() {
                        is_surface[u as usize] = true;
                    }
                }
                2 => {}
                count => return Err(MeshError::NonManifoldFace { face, count }),
            }
        }
    }
    Ok(Surface::from_membership_with_faces(
        is_surface,
        num_boundary_faces,
    ))
}

/// One face of a [`FaceTable`] bucket: the key's ids after the smallest
/// (which the bucket implies) and the 1–2 cells referencing the face.
/// 24 B, so a bucket scan reads a few consecutive cache lines.
#[derive(Clone, Copy, Debug)]
struct FaceRec {
    tail: Tail,
    cells: [CellId; 2],
    count: u8,
}

/// Persistent global face list for restructuring mode (§IV-E2).
///
/// `buckets[v]` holds the faces whose smallest vertex is `v`, in no
/// particular order; every look-up is a linear scan of that one
/// contiguous bucket and no key is hashed. On the L5 benchmark mesh a
/// bucket holds 11 records on average and at most 21 in generator
/// order, 36 in Hilbert order (L3 × 0.8: 10, 21, 36). Buckets exist up
/// to the largest smallest-vertex seen — a vertex that is the smallest
/// of no face (a refinement's centroid, always the largest id) needs
/// none.
///
/// Vertex ids are not range-checked here: [`crate::Mesh`] validates a
/// cell before the table sees it, and the bucket list grows to whatever
/// smallest-vertex id it is given.
#[derive(Clone, Debug, Default)]
pub struct FaceTable {
    buckets: Vec<Vec<FaceRec>>,
    /// Distinct faces tracked.
    len: usize,
    /// Of which referenced by exactly one cell.
    boundary: usize,
}

impl FaceTable {
    /// Builds the table from all live cells: a counting pass sizes
    /// every bucket for the face occurrences filed under it (an
    /// interior face occurs twice and is stored once, so up to half a
    /// bucket's capacity stays spare — what later insertions use), so
    /// the insertions that follow never reallocate.
    pub fn build<'a>(
        kind: CellKind,
        cells: impl Iterator<Item = (CellId, &'a [VertexId])> + Clone,
    ) -> Result<FaceTable, MeshError> {
        let mut filed: Vec<usize> = Vec::new();
        for (_, cell) in cells.clone() {
            for key in kind.face_keys(cell) {
                let v = key.0[0] as usize;
                if v >= filed.len() {
                    filed.resize(v + 1, 0);
                }
                filed[v] += 1;
            }
        }
        let mut table = FaceTable {
            buckets: filed.into_iter().map(Vec::with_capacity).collect(),
            len: 0,
            boundary: 0,
        };
        for (id, cell) in cells {
            table.insert_cell(kind, id, cell)?;
        }
        Ok(table)
    }

    /// The table of the same cells after a vertex relabelling (vertex
    /// `old` becomes `perm[old]`; cell ids are unchanged). The canonical
    /// keys change with the labels, so every record is re-filed — into
    /// buckets presized by a counting pass, with no twin matching or
    /// manifold check to redo.
    pub fn permuted(&self, perm: &[VertexId]) -> FaceTable {
        let refile = |v: usize, rec: &FaceRec| split(join(v, rec.tail).permuted(perm));
        let mut filed = vec![0usize; perm.len()];
        for (v, bucket) in self.buckets.iter().enumerate() {
            for rec in bucket {
                filed[refile(v, rec).0] += 1;
            }
        }
        let mut buckets: Vec<Vec<FaceRec>> = filed.into_iter().map(Vec::with_capacity).collect();
        for (v, bucket) in self.buckets.iter().enumerate() {
            for rec in bucket {
                let (to, tail) = refile(v, rec);
                buckets[to].push(FaceRec { tail, ..*rec });
            }
        }
        FaceTable {
            buckets,
            len: self.len,
            boundary: self.boundary,
        }
    }

    #[inline]
    fn find(&self, key: &FaceKey) -> Option<&FaceRec> {
        let (v, tail) = split(*key);
        self.buckets.get(v)?.iter().find(|rec| rec.tail == tail)
    }

    /// Registers all faces of a cell. A face already referenced by two
    /// cells is rejected as [`MeshError::NonManifoldFace`] with
    /// `count: 3` — this is the third insertion, whatever further cells
    /// would follow; the faces registered before it stay registered.
    ///
    /// A smallest-vertex id beyond the bucket list grows the list, as
    /// the first face filed under any vertex does.
    pub fn insert_cell(
        &mut self,
        kind: CellKind,
        id: CellId,
        cell: &[VertexId],
    ) -> Result<(), MeshError> {
        for key in kind.face_keys(cell) {
            let (v, tail) = split(key);
            if v >= self.buckets.len() {
                self.buckets.resize_with(v + 1, Vec::new);
            }
            let bucket = &mut self.buckets[v];
            match bucket.iter_mut().find(|rec| rec.tail == tail) {
                Some(rec) if rec.count >= 2 => {
                    return Err(MeshError::NonManifoldFace {
                        face: key,
                        count: 3,
                    });
                }
                Some(rec) => {
                    rec.cells[1] = id;
                    rec.count = 2;
                    self.boundary -= 1;
                }
                None => {
                    bucket.push(FaceRec {
                        tail,
                        cells: [id, CellId::MAX],
                        count: 1,
                    });
                    self.len += 1;
                    self.boundary += 1;
                }
            }
        }
        Ok(())
    }

    /// Unregisters all faces of a cell. Faces dropping to zero
    /// occurrences are deleted.
    pub fn remove_cell(&mut self, kind: CellKind, id: CellId, cell: &[VertexId]) {
        for key in kind.face_keys(cell) {
            let (v, tail) = split(key);
            let Some(bucket) = self.buckets.get_mut(v) else {
                continue;
            };
            let Some(at) = bucket.iter().position(|rec| rec.tail == tail) else {
                continue;
            };
            let rec = &mut bucket[at];
            if rec.count == 2 {
                // Keep the surviving twin in slot 0.
                if rec.cells[0] == id {
                    rec.cells[0] = rec.cells[1];
                }
                rec.cells[1] = CellId::MAX;
                rec.count = 1;
                self.boundary += 1;
            } else {
                bucket.swap_remove(at);
                self.len -= 1;
                self.boundary -= 1;
            }
        }
    }

    /// Occurrence count of a face (0 when absent).
    #[inline]
    pub fn count(&self, key: &FaceKey) -> usize {
        self.find(key).map_or(0, |r| r.count as usize)
    }

    /// True when the face occurs exactly once (is on the surface).
    #[inline]
    pub fn is_boundary(&self, key: &FaceKey) -> bool {
        self.count(key) == 1
    }

    /// Appends to `out` the cells of every face containing `v` that is
    /// filed under `v` or under a vertex of `lower` — every live cell
    /// containing `v` when `lower` holds every smaller vertex a face
    /// containing `v` can be filed under (its smallest vertex). A cell
    /// comes once per such face, so `out` may repeat it. This is how a
    /// restructuring operation finds the cells around the vertices it
    /// touched ([`crate::Mesh`]'s adjacency patch): by scanning a few
    /// short buckets, without a per-vertex incidence list.
    pub fn cells_around(&self, v: VertexId, lower: &[VertexId], out: &mut Vec<CellId>) {
        for &u in std::iter::once(&v).chain(lower) {
            for rec in self.buckets.get(u as usize).into_iter().flatten() {
                if u == v || rec.tail.contains(&v) {
                    out.extend_from_slice(&rec.cells[..usize::from(rec.count)]);
                }
            }
        }
    }

    /// The cell on the other side of `key` from `cell`, if any.
    pub fn twin(&self, key: &FaceKey, cell: CellId) -> Option<CellId> {
        let rec = self.find(key)?;
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
        self.len
    }

    /// True when no faces are tracked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates boundary faces (count == 1), ascending by smallest
    /// vertex.
    pub fn boundary_faces(&self) -> impl Iterator<Item = FaceKey> + '_ {
        self.buckets.iter().enumerate().flat_map(|(v, bucket)| {
            bucket
                .iter()
                .filter(|rec| rec.count == 1)
                .map(move |rec| join(v, rec.tail))
        })
    }

    /// Number of boundary faces — `boundary_faces().count()`, kept as a
    /// counter by the two functions that change a face's count.
    #[inline]
    pub fn num_boundary_faces(&self) -> usize {
        self.boundary
    }

    /// Heap usage in bytes: one bucket header per vertex up to the
    /// largest smallest-vertex id, plus every bucket's capacity.
    pub fn memory_bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<Vec<FaceRec>>()
            + self
                .buckets
                .iter()
                .map(|bucket| bucket.capacity() * std::mem::size_of::<FaceRec>())
                .sum::<usize>()
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
            // The table rejects the third insertion, whatever follows.
            let err = FaceTable::build(
                CellKind::Tet4,
                cells.iter().enumerate().map(|(i, c)| (i as u32, &c[..])),
            )
            .unwrap_err();
            assert_eq!(
                err,
                MeshError::NonManifoldFace {
                    face: shared,
                    count: 3
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
    fn face_table_files_an_id_beyond_its_buckets() {
        let mut t = FaceTable::default();
        t.insert_cell(CellKind::Tet4, 0, &[40, 41, 42, 43]).unwrap();
        assert_eq!((t.len(), t.num_boundary_faces()), (4, 4));
        assert!(t.is_boundary(&FaceKey::tri(41, 42, 43)));
        assert_eq!(t.count(&FaceKey::tri(50, 51, 52)), 0);
        t.remove_cell(CellKind::Tet4, 0, &[40, 41, 42, 43]);
        assert!(t.is_empty());
        assert_eq!(t.num_boundary_faces(), 0);
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
