//! Surface extraction via the global face list (§IV-E1).
//!
//! "A face `F` belongs to the mesh surface if it occurs once in the
//! [global face] list, i.e. there exists no adjacent polyhedron that
//! shares face `F`." Two cells share a face iff they produce the same
//! canonical [`FaceKey`], and equal keys have equal smallest vertices —
//! so the list is never built, neither as one global table nor as one
//! array of faces: every face is matched only against the faces that
//! lead with the same smallest vertex, and what is filed under that
//! vertex is not the faces but the *cells* that have one there.
//!
//! [`Surface::extract`] is a counting sort of cell ids. A cell is filed
//! under each distinct smallest vertex of its faces — a tetrahedron
//! with corners `a < b < c < d` under `a` (three faces) and `b` (the
//! fourth), 8 B a tet where its filed faces took 32 B; a hexahedron under
//! two to four vertices. One pass over the cells counts the filings per
//! vertex, a prefix sum turns the counts into `u32` bucket offsets
//! (checked: [`MeshError::TooManyCells`]), and a second pass scatters
//! the cell ids. Then each bucket `v` in turn reads its cells back by
//! id, regenerates only the faces that lead with `v`, sorts them in a
//! scratch sized to the largest bucket and reads them off in runs of
//! equal keys. A run of 1 is a boundary face (its vertices are surface
//! vertices), a run of 2 an interior face, a longer run a
//! [`MeshError::NonManifoldFace`]. On the L5 benchmark mesh (1.19 M
//! tets, 218 k vertices) the transient is 9.5 MB of filed ids and
//! 0.9 MB of offsets, where the face array was 38 MB; nothing is
//! hashed and nothing grows. What the vertex *order* costs is the
//! bucket pass: a generator's ids keep a bucket's cells close together
//! in the cell array and its faces few, a space-filling-curve
//! relabelling scatters both (≈ 1.5 × the time on L5).
//!
//! The face list lives only as long as one extraction's bucket.
//! Restructuring mode keeps cells, not faces: [`crate::Mesh`] holds a
//! vertex→cell incidence (row `v` lists the live cells that contain
//! `v`), and a face's cell count is the number of cells in all its
//! corners' rows that have it among their faces. Its per-vertex
//! boundary-face counts start from this module's matching
//! (`match_faces`).

use crate::{CellKind, FaceKey, MeshError};
use octopus_geom::{CellId, VertexId};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide count of [`Surface::extract`] runs.
static EXTRACT_CALLS: AtomicUsize = AtomicUsize::new(0);

/// Faces a cell can have under one bucket: those around its smallest
/// corner, three in either cell kind.
const MAX_FACES_AT: usize = 3;

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
    /// `num_vertices` bounds vertex ids; `cells` yields each live cell's
    /// id and global vertex ids and is walked twice (count, then file —
    /// see the module docs), and `cell` reads a cell back by its id.
    /// A cell's corners must be distinct, as a [`crate::Mesh`]'s are.
    /// Returns [`MeshError::VertexOutOfRange`] for an id
    /// `>= num_vertices` (`cell` is the id `cells` gave), and
    /// [`MeshError::NonManifoldFace`] when a face is shared by more than
    /// two cells: of all such faces the smallest key, with the number
    /// of cells that share it — the same answer in any cell order.
    pub fn extract<'a>(
        kind: CellKind,
        num_vertices: usize,
        cells: impl Iterator<Item = (CellId, &'a [VertexId])> + Clone,
        cell: impl Fn(CellId) -> &'a [VertexId],
    ) -> Result<Surface, MeshError> {
        // relaxed: a statistic; it publishes no other data.
        EXTRACT_CALLS.fetch_add(1, Ordering::Relaxed);
        let mut is_surface = vec![false; num_vertices];
        let num_boundary_faces = match_faces(kind, num_vertices, cells, cell, |face| {
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
/// extraction's error. `cells` lists the live cells with their ids and
/// `cell` reads one back by id. Restructuring mode starts its
/// maintained per-vertex counts from it.
pub(crate) fn match_faces<'a>(
    kind: CellKind,
    num_vertices: usize,
    cells: impl Iterator<Item = (CellId, &'a [VertexId])> + Clone,
    cell: impl Fn(CellId) -> &'a [VertexId],
    boundary: impl FnMut(FaceKey),
) -> Result<usize, MeshError> {
    match kind {
        CellKind::Tet4 => match_filed::<Tets>(num_vertices, cells, cell, boundary),
        CellKind::Hex8 => match_filed::<Hexes>(num_vertices, cells, cell, boundary),
    }
}

/// The filing (module docs): files every cell's id under each bucket
/// `F` names for it, then, one bucket at a time, regenerates the faces
/// its cells have there, sorts them and hands the runs of one to
/// `boundary`.
fn match_filed<'a, F: Faces>(
    num_vertices: usize,
    cells: impl Iterator<Item = (CellId, &'a [VertexId])> + Clone,
    cell: impl Fn(CellId) -> &'a [VertexId],
    mut boundary: impl FnMut(FaceKey),
) -> Result<usize, MeshError> {
    // Bucket `v` is `filed[ends[v]..ends[v + 1]]` once filled: counted
    // two slots up, so that the prefix sum leaves bucket `v`'s start in
    // `ends[v + 1]` and the scatter, advancing it, leaves its end there.
    let mut ends = vec![0u32; num_vertices + 2];
    for (c, vertices) in cells.clone() {
        if let Some(&vertex) = vertices.iter().find(|&&v| v as usize >= num_vertices) {
            return Err(MeshError::VertexOutOfRange {
                cell: c,
                vertex,
                num_vertices,
            });
        }
        for v in F::buckets(vertices) {
            ends[v as usize + 2] += 1;
        }
    }
    let mut largest = 0;
    for v in 2..ends.len() {
        largest = largest.max(ends[v]);
        ends[v] = ends[v]
            .checked_add(ends[v - 1])
            .ok_or(MeshError::TooManyCells)?;
    }
    let mut filed: Vec<CellId> = vec![0; ends[num_vertices + 1] as usize];
    for (c, vertices) in cells {
        for v in F::buckets(vertices) {
            let end = &mut ends[v as usize + 1];
            filed[*end as usize] = c;
            *end += 1;
        }
    }
    // One bucket's faces at a time: sized by the largest bucket,
    // reused by every bucket.
    let mut scratch = vec![F::Tail::default(); MAX_FACES_AT * largest as usize];
    let mut num_boundary_faces = 0;
    for v in 0..num_vertices as VertexId {
        let bucket = ends[v as usize] as usize..ends[v as usize + 1] as usize;
        let mut len = 0;
        for &c in &filed[bucket] {
            len += F::faces_under(cell(c), v, &mut scratch[len..len + MAX_FACES_AT]);
        }
        let here = &mut scratch[..len];
        here.sort_unstable();
        // Ascending buckets, ascending runs: the first offending face
        // met is the smallest one.
        for run in here.chunk_by(|a, b| a == b) {
            let face = F::key(v, run[0]);
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

/// A cell kind's faces as the filing reads them: which buckets a cell
/// goes under, and which faces it has in each.
trait Faces {
    /// What a face's canonical key keeps once the bucket implies its
    /// smallest vertex: keys equal in it must stay equal, and only
    /// those.
    type Tail: Copy + Default + Ord;

    /// The distinct smallest vertices of `cell`'s faces. A cell filed
    /// twice under one vertex would count its faces there twice.
    fn buckets(cell: &[VertexId]) -> impl Iterator<Item = VertexId>;

    /// Writes what `Self::Tail` keeps of each of `cell`'s faces whose
    /// smallest vertex is `v` to the front of `out` and returns how many
    /// there are (at most [`MAX_FACES_AT`]: the faces around a corner).
    fn faces_under(cell: &[VertexId], v: VertexId, out: &mut [Self::Tail]) -> usize;

    /// The face with smallest vertex `v` and `tail`.
    fn key(v: VertexId, tail: Self::Tail) -> FaceKey;
}

/// Tetrahedra. With corners `a < b < c < d`, three faces lead with `a`
/// and the fourth, `(b, c, d)`, with `b`; a triangle's other two ids
/// pack into one integer, which sorts faster than an array.
struct Tets;

impl Tets {
    /// The corners ascending.
    #[inline]
    fn sorted(cell: &[VertexId]) -> [VertexId; 4] {
        let minmax = |x: VertexId, y: VertexId| (x.min(y), x.max(y));
        let (a, b) = minmax(cell[0], cell[1]);
        let (c, d) = minmax(cell[2], cell[3]);
        let (a, c) = minmax(a, c);
        let (b, d) = minmax(b, d);
        let (b, c) = minmax(b, c);
        [a, b, c, d]
    }

    #[inline]
    fn pack(b: VertexId, c: VertexId) -> u64 {
        (b as u64) << 32 | c as u64
    }
}

impl Faces for Tets {
    type Tail = u64;

    #[inline]
    fn buckets(cell: &[VertexId]) -> impl Iterator<Item = VertexId> {
        let [a, b, _, _] = Tets::sorted(cell);
        [a, b].into_iter()
    }

    #[inline]
    fn faces_under(cell: &[VertexId], v: VertexId, out: &mut [u64]) -> usize {
        // Written in full either way, so that which case it is costs
        // no branch: under `b`, only `(c, d)` counts.
        let [a, b, c, d] = Tets::sorted(cell);
        let under_a = v == a;
        out[0] = if under_a {
            Tets::pack(b, c)
        } else {
            Tets::pack(c, d)
        };
        out[1] = Tets::pack(b, d);
        out[2] = Tets::pack(c, d);
        if under_a {
            3
        } else {
            1
        }
    }

    #[inline]
    fn key(v: VertexId, tail: u64) -> FaceKey {
        FaceKey([v, (tail >> 32) as VertexId, tail as VertexId, FaceKey::NONE])
    }
}

/// Hexahedra, through [`CellKind::face_keys`]: the smallest corner
/// leads three faces, and each of the other three leads with its own
/// smallest corner, which they may share — a hex files under two to
/// four vertices.
struct Hexes;

impl Faces for Hexes {
    type Tail = [VertexId; 3];

    fn buckets(cell: &[VertexId]) -> impl Iterator<Item = VertexId> {
        let mut under = [0; 6];
        let mut len = 0;
        for key in CellKind::Hex8.face_keys(cell) {
            if !under[..len].contains(&key.0[0]) {
                under[len] = key.0[0];
                len += 1;
            }
        }
        under.into_iter().take(len)
    }

    fn faces_under(cell: &[VertexId], v: VertexId, out: &mut [[VertexId; 3]]) -> usize {
        let mut len = 0;
        for key in CellKind::Hex8.face_keys(cell).filter(|key| key.0[0] == v) {
            out[len] = [key.0[1], key.0[2], key.0[3]];
            len += 1;
        }
        len
    }

    fn key(v: VertexId, [a, b, c]: [VertexId; 3]) -> FaceKey {
        FaceKey([v, a, b, c])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tets glued on face (1,2,3): vertices 0..=4.
    fn two_tets() -> Vec<[u32; 4]> {
        vec![[0, 1, 2, 3], [4, 1, 2, 3]]
    }

    /// `cells` as [`Surface::extract`] takes them: cell `i` has id `i`.
    fn extract_tets(num_vertices: usize, cells: &[[u32; 4]]) -> Result<Surface, MeshError> {
        let listed = cells.iter().enumerate();
        Surface::extract(
            CellKind::Tet4,
            num_vertices,
            listed.map(|(c, cell)| (c as CellId, &cell[..])),
            |c| &cells[c as usize],
        )
    }

    #[test]
    fn two_glued_tets_share_one_interior_face() {
        let cells = two_tets();
        let s = extract_tets(5, &cells).unwrap();
        // 8 faces total, 1 interior (1,2,3) counted twice → 6 boundary.
        assert_eq!(s.num_boundary_faces(), 6);
        // Every vertex is on the boundary (1,2,3 are on outer faces too).
        assert_eq!(s.len(), 5);
        assert!((s.ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_tet_is_all_surface() {
        let cells = [[0u32, 1, 2, 3]];
        let s = extract_tets(4, &cells).unwrap();
        assert_eq!(s.num_boundary_faces(), 4);
        assert_eq!(s.vertices(), &[0, 1, 2, 3]);
    }

    #[test]
    fn nonmanifold_face_is_rejected() {
        // Three tets all sharing face (1,2,3).
        let cells = [[0u32, 1, 2, 3], [4, 1, 2, 3], [5, 1, 2, 3]];
        let err = extract_tets(6, &cells).unwrap_err();
        assert!(matches!(err, MeshError::NonManifoldFace { .. }));
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
        let s = extract_tets(6, &cells).unwrap();
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
        let s = extract_tets(0, &[]).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.ratio(), 0.0);
    }
}
