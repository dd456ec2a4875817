//! The in-memory dynamic mesh.

use crate::soa::PositionBlocks;
use crate::surface::FaceTable;
use crate::{CellKind, Csr, FaceKey, MeshError, Surface};
use octopus_geom::{Aabb, CellId, Point3, VertexId};
use std::sync::Arc;

/// What a restructuring operation changed: the surface vertex set, and
/// which vertices' neighbour lists it rewrote.
///
/// The paper (§IV-E2): "the surface index is updated with insert or
/// delete operations on the hash table used in the index" — `added` and
/// `removed` carry exactly those operations. `touched`, `cut` and `ops`
/// let a consumer patch what it derives from connectivity (the
/// executor's component map) instead of re-deriving it, and tell it
/// whether the delta covers every operation since the mesh it last saw.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SurfaceDelta {
    /// Vertices that joined the surface.
    pub added: Vec<VertexId>,
    /// Vertices that left the surface.
    pub removed: Vec<VertexId>,
    /// Every vertex of a removed or added cell, ascending and without
    /// repeats: the only vertices whose neighbour lists changed (an
    /// edge a cell creates or destroys has both ends in it).
    pub touched: Vec<VertexId>,
    /// The edges the operations deleted, smaller id first, ascending:
    /// the only places a component can have come apart. Most removals
    /// delete none — every edge of an interior cell is shared with its
    /// neighbours — and a refinement never does.
    pub cut: Vec<(VertexId, VertexId)>,
    /// Committed operations the delta covers — what it advanced the
    /// mesh's [`Mesh::restructure_epoch`] by.
    pub ops: u64,
}

impl SurfaceDelta {
    /// True when the operations did not change the surface (they may
    /// still have changed connectivity: see `touched`).
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// A polyhedral mesh: positions (mutated in place by simulations), cells,
/// and CSR vertex adjacency.
///
/// Two mutation regimes exist, mirroring §IV-E2:
///
/// * **Deformation** — [`Mesh::positions_mut`] rewrites coordinates;
///   connectivity, surface and adjacency stay untouched. This is the
///   per-time-step massive update.
/// * **Restructuring** — [`Mesh::remove_cell`] / [`Mesh::refine_tet`]
///   change connectivity. These require [`Mesh::enable_restructuring`]
///   (which builds the persistent global face list) and return a
///   [`SurfaceDelta`] for incremental surface-index maintenance. Each
///   operation patches the adjacency lists of the touched cell's own
///   vertices, finding the cells around them through the face table;
///   nothing is rebuilt from, or scanned in, the cell array.
///
/// **A mesh owns its positions and shares everything else.** The cell
/// arrays (in blocks of [`CELLS_PER_BLOCK`] cells, each behind its own
/// handle), the CSR (its neighbour lists in blocks of
/// [`VERTICES_PER_BLOCK`](crate::adjacency::VERTICES_PER_BLOCK)
/// vertices, likewise) and the restructuring state (the [`FaceTable`]'s
/// per-vertex buckets) sit behind shared handles, so [`Mesh::snapshot`],
/// [`Mesh::with_positions`] and `clone()` copy the position array and
/// nothing more — deformation never touches what they share. A
/// restructuring operation copies on write: where a handle is shared
/// it copies the cell blocks it writes (the tombstoned cell's, the
/// tail the new cells go to), the CSR's starts and block handles and
/// the face table once, and it rebuilds only the adjacency blocks that
/// hold a vertex it touched, so no holder sees another's edit. Sharing
/// shows only in pointer identity, cost and memory.
#[derive(Debug)]
pub struct Mesh {
    kind: CellKind,
    positions: Vec<Point3>,
    cells: Arc<Cells>,
    adjacency: Arc<Csr>,
    /// Restructuring mode state: global face list + per-vertex count of
    /// boundary faces (surface membership ⇔ count > 0).
    restructure: Option<Arc<RestructureState>>,
    /// Monotone count of committed restructuring operations — the
    /// connectivity generation. Deformation never advances it, so any
    /// consumer caching connectivity-derived state (planner crossover,
    /// surface statistics, snapshot executors) can compare epochs
    /// instead of diffing the mesh.
    restructure_epoch: u64,
}

/// Cells per block of a mesh's cell arrays: cell `c` is slot
/// `c % CELLS_PER_BLOCK` of block `c / CELLS_PER_BLOCK`. A restructuring
/// operation on a mesh that shares its cells copies the blocks it
/// writes — 16 KiB of tetrahedra, 32 KiB of hexahedra each — instead of
/// every cell.
pub const CELLS_PER_BLOCK: usize = 1 << BLOCK_SHIFT;
const BLOCK_SHIFT: u32 = 10;

/// The cell arrays, shared between a mesh and its snapshots: fixed-size
/// blocks, each behind its own handle, so copying the list copies
/// handles and writing a cell copies one block at most.
#[derive(Clone, Debug, Default)]
struct Cells {
    blocks: Vec<Arc<CellBlock>>,
    /// Cell slots, tombstones included.
    len: usize,
    num_live: usize,
}

/// Up to [`CELLS_PER_BLOCK`] consecutive cells. Removed cells stay as
/// tombstones so `CellId`s remain stable across restructuring.
#[derive(Clone, Debug)]
struct CellBlock {
    /// `kind.arity()` ids per cell.
    flat: Vec<VertexId>,
    alive: Vec<bool>,
}

impl CellBlock {
    fn with_capacity(arity: usize) -> CellBlock {
        CellBlock {
            flat: Vec::with_capacity(CELLS_PER_BLOCK * arity),
            alive: Vec::with_capacity(CELLS_PER_BLOCK),
        }
    }
}

impl Cells {
    /// All cells of a flat array (`arity` ids per cell) alive.
    fn from_flat(arity: usize, flat: &[VertexId]) -> Cells {
        let blocks = flat.chunks(CELLS_PER_BLOCK * arity).map(|ids| {
            let mut block = CellBlock::with_capacity(arity);
            block.flat.extend_from_slice(ids);
            block.alive.resize(ids.len() / arity, true);
            Arc::new(block)
        });
        let len = flat.len() / arity;
        Cells {
            blocks: blocks.collect(),
            len,
            num_live: len,
        }
    }

    #[inline]
    fn get(&self, arity: usize, c: CellId) -> &[VertexId] {
        let (block, slot) = (c as usize >> BLOCK_SHIFT, c as usize % CELLS_PER_BLOCK);
        &self.blocks[block].flat[slot * arity..(slot + 1) * arity]
    }

    #[inline]
    fn is_alive(&self, c: CellId) -> bool {
        (c as usize) < self.len
            && self.blocks[c as usize >> BLOCK_SHIFT].alive[c as usize % CELLS_PER_BLOCK]
    }

    /// `(id, vertices)` of every live cell, ascending.
    fn live(&self, arity: usize) -> LiveCells<'_> {
        LiveCells {
            rest: &self.blocks,
            arity,
            slots: [].chunks_exact(arity).zip([].iter()),
            next: 0,
        }
    }

    /// Tombstones live cell `c`, copying its block if it is shared.
    fn kill(&mut self, c: CellId) {
        let block = Arc::make_mut(&mut self.blocks[c as usize >> BLOCK_SHIFT]);
        block.alive[c as usize % CELLS_PER_BLOCK] = false;
        self.num_live -= 1;
    }

    /// Appends a live cell to the tail block (copied if it is shared) or
    /// to a new one.
    fn push(&mut self, arity: usize, cell: &[VertexId]) {
        if self.len.is_multiple_of(CELLS_PER_BLOCK) {
            self.blocks.push(Arc::new(CellBlock::with_capacity(arity)));
        }
        let tail = Arc::make_mut(
            self.blocks
                .last_mut()
                .expect("a tail block was just ensured"),
        );
        tail.flat.extend_from_slice(cell);
        tail.alive.push(true);
        self.len += 1;
        self.num_live += 1;
    }

    /// The same slots after a vertex relabelling (`old` becomes
    /// `perm[old]`).
    fn relabelled(&self, perm: &[VertexId]) -> Cells {
        let blocks = self.blocks.iter().map(|block| {
            Arc::new(CellBlock {
                flat: block.flat.iter().map(|&v| perm[v as usize]).collect(),
                alive: block.alive.clone(),
            })
        });
        Cells {
            blocks: blocks.collect(),
            ..*self
        }
    }

    fn memory_bytes(&self) -> usize {
        self.blocks.capacity() * std::mem::size_of::<Arc<CellBlock>>()
            + self
                .blocks
                .iter()
                .map(|b| b.flat.capacity() * std::mem::size_of::<VertexId>() + b.alive.capacity())
                .sum::<usize>()
    }
}

/// [`Cells::live`]: the slots of one block at a time, then the next
/// block. A `flat_map` over the blocks reads the same cells, but the
/// face matchers' loops over it ran ≈ 15 % slower on L4.
#[derive(Clone)]
struct LiveCells<'a> {
    /// The blocks after the current one.
    rest: &'a [Arc<CellBlock>],
    arity: usize,
    /// The current block's remaining slots.
    slots: std::iter::Zip<std::slice::ChunksExact<'a, VertexId>, std::slice::Iter<'a, bool>>,
    /// The id of the next slot.
    next: usize,
}

impl<'a> Iterator for LiveCells<'a> {
    type Item = (CellId, &'a [VertexId]);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.slots.next() {
                Some((cell, &alive)) => {
                    self.next += 1;
                    if alive {
                        return Some(((self.next - 1) as CellId, cell));
                    }
                }
                None => {
                    // Every block but the last is full, so ids run on.
                    let (block, rest) = self.rest.split_first()?;
                    self.rest = rest;
                    self.slots = block.flat.chunks_exact(self.arity).zip(block.alive.iter());
                }
            }
        }
    }
}

#[derive(Clone, Debug)]
struct RestructureState {
    faces: FaceTable,
    boundary_face_count: Vec<u32>,
}

/// A copy of the positions sharing everything else, the restructuring
/// state included — [`Mesh::snapshot`] plus the ability to restructure.
impl Clone for Mesh {
    fn clone(&self) -> Mesh {
        Mesh {
            restructure: self.restructure.clone(),
            ..self.snapshot()
        }
    }
}

impl Mesh {
    /// The mesh as a read-only consumer retains it: a copy of the
    /// positions, the connectivity shared, the restructuring state left
    /// behind. It answers every read ([`Mesh::neighbors`],
    /// [`Mesh::positions`], [`Mesh::is_vertex_active`],
    /// [`Mesh::restructure_epoch`] — carried over) but reports
    /// [`Mesh::restructuring_enabled`] `false`: its [`Mesh::surface`]
    /// is a from-scratch extraction, and restructuring it needs
    /// [`Mesh::enable_restructuring`] first, which files every face of
    /// every live cell again (≈ 13 ms on the 117 k-cell L3 × 0.8
    /// benchmark mesh). Holders that need the surface keep a
    /// delta-maintained index instead of asking the snapshot.
    pub fn snapshot(&self) -> Mesh {
        self.with_positions(self.positions.clone())
    }

    /// [`Mesh::snapshot`] with `positions` in place of a copy of this
    /// mesh's: the same connectivity (shared, nothing is copied) at
    /// another deformation state. This is how a snapshot ring publishes
    /// a deformation step — the buffer the simulation filled becomes
    /// the new slot's position array.
    ///
    /// # Panics
    /// Panics when `positions.len()` differs from
    /// [`Mesh::num_vertices`]: connectivity addresses positions by id,
    /// so a deformation cannot change their number.
    pub fn with_positions(&self, positions: Vec<Point3>) -> Mesh {
        assert_eq!(
            positions.len(),
            self.positions.len(),
            "with_positions: a deformation keeps the vertex count"
        );
        Mesh {
            kind: self.kind,
            positions,
            cells: Arc::clone(&self.cells),
            adjacency: Arc::clone(&self.adjacency),
            restructure: None,
            restructure_epoch: self.restructure_epoch,
        }
    }

    /// Gives up the mesh for the one array it does not share — a
    /// retired snapshot's buffer is the next one the simulation fills.
    pub fn into_positions(self) -> Vec<Point3> {
        self.positions
    }

    /// Builds a mesh from a flat cell array (`kind.arity()` vertex ids per
    /// cell). Validates id ranges and per-cell degeneracy and constructs
    /// the adjacency.
    pub fn from_flat(
        kind: CellKind,
        positions: Vec<Point3>,
        cells: Vec<VertexId>,
    ) -> Result<Mesh, MeshError> {
        let arity = kind.arity();
        if !cells.len().is_multiple_of(arity) {
            return Err(MeshError::RaggedCellArray {
                len: cells.len(),
                arity,
            });
        }
        if positions.len() >= VertexId::MAX as usize {
            return Err(MeshError::TooManyVertices);
        }
        let n = positions.len();
        for (ci, cell) in cells.chunks_exact(arity).enumerate() {
            for (li, &v) in cell.iter().enumerate() {
                if v as usize >= n {
                    return Err(MeshError::VertexOutOfRange {
                        cell: ci as CellId,
                        vertex: v,
                        num_vertices: n,
                    });
                }
                if cell[..li].contains(&v) {
                    return Err(MeshError::DegenerateCell {
                        cell: ci as CellId,
                        vertex: v,
                    });
                }
            }
        }
        let adjacency = build_adjacency(kind, n, cells.chunks_exact(arity));
        Ok(Mesh {
            kind,
            positions,
            cells: Arc::new(Cells::from_flat(arity, &cells)),
            adjacency: Arc::new(adjacency),
            restructure: None,
            restructure_epoch: 0,
        })
    }

    /// Convenience constructor for tetrahedral meshes.
    pub fn from_tets(positions: Vec<Point3>, tets: Vec<[VertexId; 4]>) -> Result<Mesh, MeshError> {
        let flat = tets.into_iter().flatten().collect();
        Mesh::from_flat(CellKind::Tet4, positions, flat)
    }

    /// Convenience constructor for hexahedral meshes.
    pub fn from_hexes(
        positions: Vec<Point3>,
        hexes: Vec<[VertexId; 8]>,
    ) -> Result<Mesh, MeshError> {
        let flat = hexes.into_iter().flatten().collect();
        Mesh::from_flat(CellKind::Hex8, positions, flat)
    }

    /// The polyhedral primitive this mesh is built from.
    #[inline]
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.positions.len()
    }

    /// Number of live (non-removed) cells.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.cells.num_live
    }

    /// Total cell slots including tombstones (exclusive upper bound on
    /// valid [`CellId`]s).
    #[inline]
    pub fn cell_capacity(&self) -> usize {
        self.cells.len
    }

    /// True when cell `c` exists and has not been removed.
    #[inline]
    pub fn is_cell_alive(&self, c: CellId) -> bool {
        self.cells.is_alive(c)
    }

    /// Vertex ids of cell `c`.
    ///
    /// # Panics
    /// Panics when `c` is out of range (use [`Mesh::is_cell_alive`] to
    /// check liveness; tombstoned cells still return their last vertices).
    #[inline]
    pub fn cell(&self, c: CellId) -> &[VertexId] {
        self.cells.get(self.kind.arity(), c)
    }

    /// Iterates `(id, vertices)` over live cells. `Clone`, for the
    /// consumers that walk the cells twice (the face matchers count,
    /// then file).
    pub fn live_cells(&self) -> impl Iterator<Item = (CellId, &[VertexId])> + Clone {
        self.cells.live(self.kind.arity())
    }

    /// Current vertex positions.
    #[inline]
    pub fn positions(&self) -> &[Point3] {
        &self.positions
    }

    /// Mutable vertex positions — the simulation's in-place update target.
    /// Writing here is the "mesh deformation" transformation: surface and
    /// adjacency remain valid by construction.
    #[inline]
    pub fn positions_mut(&mut self) -> &mut [Point3] {
        &mut self.positions
    }

    /// The positions in blocked structure-of-arrays form (see
    /// [`crate::soa`]), built from [`Mesh::positions`] on every call —
    /// an O(V) copy. No query path reads it; it exists for the
    /// repository benchmark's `mesh.soa_rebuild_us`.
    pub fn position_blocks(&self) -> PositionBlocks {
        PositionBlocks::from_points(&self.positions)
    }

    /// Position of vertex `v`.
    #[inline]
    pub fn position(&self, v: VertexId) -> Point3 {
        self.positions[v as usize]
    }

    /// Sorted neighbour ids of `v` (the adjacency-list pointers of §III-A).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.adjacency.neighbors(v)
    }

    /// The underlying CSR adjacency.
    #[inline]
    pub fn adjacency(&self) -> &Csr {
        &self.adjacency
    }

    /// Axis-aligned bounds of the current positions.
    pub fn bounding_box(&self) -> Aabb {
        Aabb::from_points(self.positions.iter().copied())
    }

    /// True when `v` belongs to at least one live cell.
    ///
    /// Restructuring can orphan vertices (a removed cell may have been
    /// the last one referencing a vertex); their position slots remain
    /// allocated but they are no longer part of the mesh. Range-query
    /// semantics are defined over *active* vertices — OCTOPUS naturally
    /// never returns orphans (they are unreachable and off the surface),
    /// and ground-truth scans must filter them explicitly.
    ///
    /// Every vertex of a live cell has at least `arity − 1 ≥ 3` adjacency
    /// edges, so zero degree is equivalent to "in no live cell".
    ///
    /// An orphan stays one: new cells are built from a live cell's
    /// vertices plus appended ids, and no operation moves another
    /// vertex's position. Standing queries rely on it — they drop
    /// orphaned candidates and adopt the appended ids instead of
    /// re-crawling (`tests/adjacency_patch.rs` holds every op sequence
    /// to it).
    #[inline]
    pub fn is_vertex_active(&self, v: VertexId) -> bool {
        self.adjacency.degree(v) > 0
    }

    /// Extracts the current surface.
    ///
    /// In restructuring mode this reads the maintained per-vertex boundary
    /// counts and the face table's boundary counter (O(V)); otherwise it
    /// runs the global-face-list extraction (§IV-E1, O(cells): two
    /// passes over the cells and a sort of short buckets, see
    /// [`crate::surface`]).
    pub fn surface(&self) -> Result<Surface, MeshError> {
        if let Some(rs) = &self.restructure {
            Ok(Surface::from_membership_with_faces(
                rs.boundary_face_count.iter().map(|&c| c > 0).collect(),
                rs.faces.num_boundary_faces(),
            ))
        } else {
            Surface::extract(
                self.kind,
                self.positions.len(),
                self.live_cells().map(|(_, c)| c),
            )
        }
    }

    /// Enables restructuring mode: builds the persistent global face list
    /// ([`FaceTable::build`]) and per-vertex boundary-face counts.
    /// Idempotent.
    pub fn enable_restructuring(&mut self) -> Result<(), MeshError> {
        if self.restructure.is_some() {
            return Ok(());
        }
        let faces = FaceTable::build(self.kind, self.live_cells())?;
        let mut boundary_face_count = vec![0u32; self.positions.len()];
        for key in faces.boundary_faces() {
            for &v in key.vertices() {
                boundary_face_count[v as usize] += 1;
            }
        }
        self.restructure = Some(Arc::new(RestructureState {
            faces,
            boundary_face_count,
        }));
        Ok(())
    }

    /// True when restructuring mode is active.
    pub fn restructuring_enabled(&self) -> bool {
        self.restructure.is_some()
    }

    /// The mesh's restructure epoch: the number of committed
    /// restructuring operations ([`Mesh::remove_cell`] /
    /// [`Mesh::refine_tet`]) since construction. Deformation
    /// ([`Mesh::positions_mut`]) never advances it, and vertex
    /// relabelling ([`Mesh::permute_vertices`]) carries it over
    /// unchanged — two meshes with equal epochs in the same lineage
    /// have identical connectivity up to the relabelling. Consumers
    /// that cache connectivity-derived state (the Eq.-6 planner
    /// crossover, surface statistics) compare epochs to detect
    /// staleness instead of re-deriving per call. Standing queries do
    /// not: the monitor tells them of each restructured step as it
    /// absorbs it (which it detects by this epoch), and they rely on
    /// what an operation can do to the vertex set
    /// ([`Mesh::is_vertex_active`]).
    #[inline]
    pub fn restructure_epoch(&self) -> u64 {
        self.restructure_epoch
    }

    /// Removes cell `c` (mesh restructuring: "merged" polyhedra reduce the
    /// cell count). Interior faces of the removed cell become boundary;
    /// its boundary faces disappear. Returns the exact surface delta.
    pub fn remove_cell(&mut self, c: CellId) -> Result<SurfaceDelta, MeshError> {
        if !self.is_cell_alive(c) {
            return Err(MeshError::NoSuchCell { cell: c });
        }
        self.apply_restructure(&[c], &[])
    }

    /// Splits tetrahedron `c` into four tetrahedra around its centroid
    /// (mesh restructuring: "split" polyhedra increase the cell count).
    /// Returns the new centroid vertex id and the surface delta (always
    /// empty for this refinement: the centroid is interior and the four
    /// outer faces survive).
    pub fn refine_tet(&mut self, c: CellId) -> Result<(VertexId, SurfaceDelta), MeshError> {
        if self.kind != CellKind::Tet4 {
            return Err(MeshError::WrongCellKind {
                expected: CellKind::Tet4,
                actual: self.kind,
            });
        }
        if !self.is_cell_alive(c) {
            return Err(MeshError::NoSuchCell { cell: c });
        }
        if self.restructure.is_none() {
            return Err(MeshError::RestructuringDisabled);
        }
        let cell: [VertexId; 4] = self.cell(c).try_into().expect("tet arity");
        let centroid = {
            let p: [Point3; 4] = cell.map(|v| self.position(v));
            Point3::new(
                0.25 * (p[0].x + p[1].x + p[2].x + p[3].x),
                0.25 * (p[0].y + p[1].y + p[2].y + p[3].y),
                0.25 * (p[0].z + p[1].z + p[2].z + p[3].z),
            )
        };
        if self.positions.len() + 1 >= VertexId::MAX as usize {
            return Err(MeshError::TooManyVertices);
        }
        let e = self.positions.len() as VertexId;
        self.positions.push(centroid);
        if let Some(rs) = &mut self.restructure {
            Arc::make_mut(rs).boundary_face_count.push(0);
        }
        let [a, b, cc, d] = cell;
        let new_cells = [[a, b, cc, e], [a, b, d, e], [a, cc, d, e], [b, cc, d, e]];
        let delta = self.apply_restructure(&[c], &new_cells.map(|t| t.to_vec()))?;
        Ok((e, delta))
    }

    /// Transactionally removes `remove` cells and appends `add` cells,
    /// maintaining the face table and boundary counts, and returning the
    /// net surface delta. The adjacency is patched, not rebuilt: every
    /// edge a removed or added cell can create or destroy has both
    /// endpoints among that cell's vertices, so only those vertices'
    /// lists are recomputed (see [`Mesh::patch_adjacency`]). Debug
    /// builds cross-check the patch against the full rebuild.
    fn apply_restructure(
        &mut self,
        remove: &[CellId],
        add: &[Vec<VertexId>],
    ) -> Result<SurfaceDelta, MeshError> {
        // Copy-on-write: a handle some snapshot or clone still shares is
        // copied here, once; an unshared one is edited in place.
        let rs = Arc::make_mut(
            self.restructure
                .as_mut()
                .ok_or(MeshError::RestructuringDisabled)?,
        );
        let cells = Arc::make_mut(&mut self.cells);
        let arity = self.kind.arity();

        // Validate additions before mutating anything.
        for cell in add {
            if cell.len() != arity {
                return Err(MeshError::RaggedCellArray {
                    len: cell.len(),
                    arity,
                });
            }
            for (li, &v) in cell.iter().enumerate() {
                if v as usize >= self.positions.len() {
                    return Err(MeshError::VertexOutOfRange {
                        cell: cells.len as CellId,
                        vertex: v,
                        num_vertices: self.positions.len(),
                    });
                }
                if cell[..li].contains(&v) {
                    return Err(MeshError::DegenerateCell {
                        cell: cells.len as CellId,
                        vertex: v,
                    });
                }
            }
        }

        // Record the boundary status of every affected face up front
        // (a few dozen at most: a linear look-up beats hashing them).
        let mut affected: Vec<(FaceKey, bool)> = Vec::new();
        let removed = remove.iter().map(|&c| cells.get(arity, c));
        for cell in removed.clone().chain(add.iter().map(Vec::as_slice)) {
            for key in self.kind.face_keys(cell) {
                if !affected.iter().any(|(k, _)| *k == key) {
                    affected.push((key, rs.faces.is_boundary(&key)));
                }
            }
        }

        // Apply to the face table.
        for (&c, cell) in remove.iter().zip(removed.clone()) {
            rs.faces.remove_cell(self.kind, c, cell);
        }
        let first_new_id = cells.len as CellId;
        for (i, cell) in add.iter().enumerate() {
            rs.faces
                .insert_cell(self.kind, first_new_id + i as CellId, cell)?;
        }

        // Diff boundary status → per-vertex counts → surface delta.
        let mut delta = SurfaceDelta {
            ops: 1,
            ..SurfaceDelta::default()
        };
        for (key, was_boundary) in &affected {
            let is_boundary = rs.faces.is_boundary(key);
            if *was_boundary == is_boundary {
                continue;
            }
            for &v in key.vertices() {
                let cnt = &mut rs.boundary_face_count[v as usize];
                if is_boundary {
                    if *cnt == 0 {
                        delta.added.push(v);
                    }
                    *cnt += 1;
                } else {
                    *cnt -= 1;
                    if *cnt == 0 {
                        delta.removed.push(v);
                    }
                }
            }
        }
        delta.added.sort_unstable();
        delta.added.dedup();
        delta.removed.sort_unstable();
        delta.removed.dedup();

        // Commit the cell array changes.
        delta.touched = removed.flatten().copied().collect();
        for &c in remove {
            cells.kill(c);
        }
        for cell in add {
            delta.touched.extend_from_slice(cell);
            cells.push(arity, cell);
        }
        delta.touched.sort_unstable();
        delta.touched.dedup();

        delta.cut = self.patch_adjacency(&delta.touched);
        debug_assert!(
            *self.adjacency
                == build_adjacency(
                    self.kind,
                    self.positions.len(),
                    self.live_cells().map(|(_, cell)| cell)
                ),
            "patched adjacency diverged from the rebuild"
        );
        self.restructure_epoch += 1;
        Ok(delta)
    }

    /// Recomputes the neighbour lists of the `touched` vertices (sorted,
    /// distinct) from the live cells that contain them and splices them
    /// into the CSR in place ([`Csr::splice`]): only the blocks of
    /// [`VERTICES_PER_BLOCK`](crate::adjacency::VERTICES_PER_BLOCK)
    /// vertices that hold a touched vertex are rebuilt. A CSR some
    /// snapshot still shares is copied first — its starts and block
    /// handles, not its blocks — so the first operation after a
    /// snapshot pays 4 bytes a vertex and the next ones nothing. The
    /// result is bit-identical to rebuilding from all live cells: a
    /// touched vertex whose last cell went away gets an empty list, a
    /// freshly appended vertex gets its first one.
    ///
    /// Returns the edges the patch deleted (smaller id first,
    /// ascending): the old lists' entries the new lists lack.
    ///
    /// The cells are found through the face table, in buckets around
    /// each touched vertex `v` ([`FaceTable::cells_around`]). A live
    /// cell containing `v` has a face containing `v`, filed under that
    /// face's smallest vertex `s`, and `s` is `v` itself, a vertex the
    /// operation touched (when the cell is new), or — the cell being
    /// old — reachable from `v` over edges of the adjacency before the
    /// operation: in one hop on a tetrahedron, whose vertices are
    /// pairwise joined, in at most two on a hexahedron, where `s` can be
    /// the far corner of a quad. No incidence structure is kept for it
    /// and no cell is visited that does not share a face with `v`.
    fn patch_adjacency(&mut self, touched: &[VertexId]) -> Vec<(VertexId, VertexId)> {
        let kind = self.kind;
        let old = &*self.adjacency;
        let faces = &self
            .restructure
            .as_ref()
            .expect("an operation runs in restructuring mode")
            .faces;
        let old_neighbors = |v: VertexId| {
            if (v as usize) < old.num_vertices() {
                old.neighbors(v)
            } else {
                &[]
            }
        };
        let (mut lower, mut around) = (Vec::new(), Vec::new());
        for &v in touched {
            lower.clear();
            lower.extend(touched.iter().take_while(|&&u| u < v));
            for &w in old_neighbors(v) {
                lower.push(w);
                if kind == CellKind::Hex8 {
                    lower.extend(old_neighbors(w).iter().filter(|&&u| u < v));
                }
            }
            lower.retain(|&u| u < v);
            lower.sort_unstable();
            lower.dedup();
            faces.cells_around(v, &lower, &mut around);
        }
        around.sort_unstable();
        around.dedup();
        // Every edge the splice can delete, kept below if it survives.
        let mut cut: Vec<(VertexId, VertexId)> = touched
            .iter()
            .flat_map(|&v| {
                old_neighbors(v)
                    .iter()
                    .filter(move |&&w| v < w)
                    .map(move |&w| (v, w))
            })
            .collect();
        let arity = kind.arity();
        let cells = &*self.cells;
        let directed = around
            .iter()
            .flat_map(|&c| kind.edges(cells.get(arity, c)))
            .flat_map(|(a, b)| [(a, b), (b, a)])
            .filter(|(src, _)| touched.binary_search(src).is_ok());
        let adjacency = Arc::make_mut(&mut self.adjacency);
        adjacency.splice(self.positions.len(), touched, directed);
        cut.retain(|&(v, w)| !adjacency.has_edge(v, w));
        cut
    }

    /// Returns a mesh with vertices relabelled by `perm`
    /// (vertex `old` becomes `perm[old]`): positions, cells, adjacency and
    /// restructuring state are all remapped. Used by the Hilbert layout
    /// optimisation (§IV-H1).
    ///
    /// # Panics
    /// Panics when `perm` is not a bijection over `0..num_vertices`.
    pub fn permute_vertices(&self, perm: &[VertexId]) -> Mesh {
        let n = self.positions.len();
        assert_eq!(perm.len(), n, "permutation length mismatch");
        let mut seen = vec![false; n];
        for &p in perm {
            assert!(
                (p as usize) < n && !seen[p as usize],
                "perm is not a bijection"
            );
            seen[p as usize] = true;
        }
        let mut positions = vec![Point3::ORIGIN; n];
        for (old, &new) in perm.iter().enumerate() {
            positions[new as usize] = self.positions[old];
        }
        // Relabelled, not rebuilt: the face table's canonical keys
        // change with the labels, so re-keying it is inherent; the
        // per-vertex counts just move with their vertices.
        let restructure = self.restructure.as_ref().map(|rs| {
            let mut boundary_face_count = vec![0u32; n];
            for (old, &new) in perm.iter().enumerate() {
                boundary_face_count[new as usize] = rs.boundary_face_count[old];
            }
            Arc::new(RestructureState {
                faces: rs.faces.permuted(perm),
                boundary_face_count,
            })
        });
        Mesh {
            kind: self.kind,
            positions,
            cells: Arc::new(self.cells.relabelled(perm)),
            adjacency: Arc::new(self.adjacency.permuted(perm)),
            restructure,
            restructure_epoch: self.restructure_epoch,
        }
    }

    /// Bytes of heap memory the mesh structure reaches (positions, cells,
    /// adjacency, tombstones and restructuring state). This is the
    /// "dataset size" denominator of the paper's memory-overhead
    /// comparisons: index footprints are reported *relative to* it.
    /// Shared arrays are counted in full by every holder: the sizes of
    /// a mesh and its snapshots add up to more than the process holds.
    pub fn memory_bytes(&self) -> usize {
        let mut total = self.positions.capacity() * std::mem::size_of::<Point3>()
            + self.cells.memory_bytes()
            + self.adjacency.memory_bytes();
        if let Some(rs) = &self.restructure {
            total += rs.faces.memory_bytes()
                + rs.boundary_face_count.capacity() * std::mem::size_of::<u32>();
        }
        total
    }
}

/// Builds CSR adjacency from `cells`: the global edge sort. Only the
/// constructor runs it; restructuring and relabelling derive the new CSR
/// from the old one, and debug builds use this as their oracle.
fn build_adjacency<'a>(
    kind: CellKind,
    n: usize,
    cells: impl Iterator<Item = &'a [VertexId]>,
) -> Csr {
    Csr::from_undirected_edges(n, cells.flat_map(|cell| kind.edges(cell)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f32, y: f32, z: f32) -> Point3 {
        Point3::new(x, y, z)
    }

    /// Two tets glued on face (1,2,3).
    fn two_tet_mesh() -> Mesh {
        let positions = vec![
            p(0.0, 0.0, 0.0),
            p(1.0, 0.0, 0.0),
            p(0.0, 1.0, 0.0),
            p(0.0, 0.0, 1.0),
            p(1.0, 1.0, 1.0),
        ];
        Mesh::from_tets(positions, vec![[0, 1, 2, 3], [4, 1, 2, 3]]).unwrap()
    }

    #[test]
    fn construction_validates_ids() {
        let err = Mesh::from_tets(vec![p(0.0, 0.0, 0.0)], vec![[0, 1, 2, 3]]).unwrap_err();
        assert!(matches!(err, MeshError::VertexOutOfRange { vertex: 1, .. }));
    }

    #[test]
    fn construction_rejects_degenerate_cells() {
        let positions = vec![p(0.0, 0.0, 0.0); 4];
        let err = Mesh::from_tets(positions, vec![[0, 1, 2, 2]]).unwrap_err();
        assert!(matches!(err, MeshError::DegenerateCell { vertex: 2, .. }));
    }

    #[test]
    fn construction_rejects_ragged_arrays() {
        let err =
            Mesh::from_flat(CellKind::Tet4, vec![p(0.0, 0.0, 0.0); 4], vec![0, 1, 2]).unwrap_err();
        assert!(matches!(
            err,
            MeshError::RaggedCellArray { len: 3, arity: 4 }
        ));
    }

    #[test]
    fn adjacency_reflects_shared_face() {
        let m = two_tet_mesh();
        // 0 and 4 are not connected; both connect to 1, 2, 3.
        assert_eq!(m.neighbors(0), &[1, 2, 3]);
        assert_eq!(m.neighbors(4), &[1, 2, 3]);
        assert_eq!(m.neighbors(1), &[0, 2, 3, 4]);
    }

    #[test]
    fn deformation_keeps_surface_and_adjacency() {
        let mut m = two_tet_mesh();
        let before = m.surface().unwrap().vertices().to_vec();
        for pos in m.positions_mut() {
            *pos += octopus_geom::Vec3::new(5.0, -2.0, 0.5);
        }
        assert_eq!(m.surface().unwrap().vertices(), &before[..]);
        assert_eq!(m.neighbors(1), &[0, 2, 3, 4]);
    }

    #[test]
    fn remove_cell_exposes_interior_face_no_surface_change_when_all_surface() {
        let mut m = two_tet_mesh();
        m.enable_restructuring().unwrap();
        // All 5 vertices are already on the surface, so deleting a tet
        // cannot *add* surface vertices; vertex 0 loses all its faces and
        // leaves the surface (it becomes disconnected from live cells).
        let delta = m.remove_cell(0).unwrap();
        assert!(delta.added.is_empty());
        assert_eq!(delta.removed, vec![0]);
        assert_eq!(m.num_cells(), 1);
        assert!(!m.is_cell_alive(0));
        // Adjacency rebuilt: vertex 0 now isolated.
        assert_eq!(m.neighbors(0), &[] as &[u32]);
    }

    #[test]
    fn remove_cell_requires_restructuring_mode() {
        let mut m = two_tet_mesh();
        assert!(matches!(
            m.remove_cell(0),
            Err(MeshError::RestructuringDisabled)
        ));
    }

    #[test]
    fn remove_dead_cell_errors() {
        let mut m = two_tet_mesh();
        m.enable_restructuring().unwrap();
        m.remove_cell(0).unwrap();
        assert!(matches!(
            m.remove_cell(0),
            Err(MeshError::NoSuchCell { cell: 0 })
        ));
        assert!(matches!(
            m.remove_cell(99),
            Err(MeshError::NoSuchCell { cell: 99 })
        ));
    }

    #[test]
    fn refine_tet_adds_interior_vertex_without_surface_change() {
        let mut m = two_tet_mesh();
        m.enable_restructuring().unwrap();
        let (e, delta) = m.refine_tet(0).unwrap();
        assert_eq!(e, 5);
        assert!(
            delta.is_empty(),
            "centroid refinement never changes the surface: {delta:?}"
        );
        assert_eq!(m.num_cells(), 5); // 2 - 1 + 4
        assert_eq!(m.num_vertices(), 6);
        // Centroid connects to all four corners of the refined tet.
        assert_eq!(m.neighbors(5), &[0, 1, 2, 3]);
        // Surface recomputed from scratch agrees: centroid interior.
        let s = m.surface().unwrap();
        assert!(!s.contains(5));
        // Delta-maintained membership matches a from-scratch extraction.
        let fresh = Surface::extract(CellKind::Tet4, 6, m.live_cells().map(|(_, c)| c)).unwrap();
        assert_eq!(s.vertices(), fresh.vertices());
    }

    #[test]
    fn refine_is_tet_only() {
        let positions = (0..8)
            .map(|i| p((i & 1) as f32, ((i >> 1) & 1) as f32, ((i >> 2) & 1) as f32))
            .collect();
        let mut m = Mesh::from_hexes(positions, vec![[0, 1, 3, 2, 4, 5, 7, 6]]).unwrap();
        m.enable_restructuring().unwrap();
        assert!(matches!(
            m.refine_tet(0),
            Err(MeshError::WrongCellKind { .. })
        ));
    }

    #[test]
    fn delta_matches_full_recomputation_over_op_sequence() {
        // Build a 3-tet strip, then remove/refine in sequence and compare
        // the maintained surface with a from-scratch extraction each time.
        let positions = vec![
            p(0.0, 0.0, 0.0),
            p(1.0, 0.0, 0.0),
            p(0.0, 1.0, 0.0),
            p(0.0, 0.0, 1.0),
            p(1.0, 1.0, 1.0),
            p(2.0, 1.0, 1.0),
        ];
        let mut m =
            Mesh::from_tets(positions, vec![[0, 1, 2, 3], [4, 1, 2, 3], [5, 4, 2, 3]]).unwrap();
        m.enable_restructuring().unwrap();
        type Op = Box<dyn Fn(&mut Mesh)>;
        let ops: Vec<Op> = vec![
            Box::new(|m: &mut Mesh| {
                m.refine_tet(1).unwrap();
            }),
            Box::new(|m: &mut Mesh| {
                m.remove_cell(0).unwrap();
            }),
            Box::new(|m: &mut Mesh| {
                m.remove_cell(2).unwrap();
            }),
        ];
        for op in ops {
            op(&mut m);
            let maintained = m.surface().unwrap();
            let fresh =
                Surface::extract(m.kind(), m.num_vertices(), m.live_cells().map(|(_, c)| c))
                    .unwrap();
            assert_eq!(maintained.vertices(), fresh.vertices());
        }
    }

    #[test]
    fn boundary_face_counter_follows_a_seeded_op_sequence() {
        // A fan of 12 tets around the edge (0, 1), then 40 seeded ops.
        let mut positions = vec![p(0.0, 0.0, -1.0), p(0.0, 0.0, 1.0)];
        for i in 0..12 {
            let a = i as f32 * std::f32::consts::TAU / 12.0;
            positions.push(p(a.cos(), a.sin(), 0.0));
        }
        let tets = (0..12).map(|i| [0, 1, 2 + i, 2 + (i + 1) % 12]).collect();
        let mut m = Mesh::from_tets(positions, tets).unwrap();
        m.enable_restructuring().unwrap();
        let mut rng = octopus_geom::rng::SplitMix64::new(24);
        for op in 0..40 {
            let live: Vec<CellId> = m.live_cells().map(|(c, _)| c).collect();
            if live.is_empty() {
                break;
            }
            let c = live[rng.index(live.len())];
            if rng.below(3) == 0 {
                m.remove_cell(c).unwrap();
            } else {
                m.refine_tet(c).unwrap();
            }
            let faces = &m.restructure.as_ref().unwrap().faces;
            let fresh =
                Surface::extract(m.kind(), m.num_vertices(), m.live_cells().map(|(_, c)| c))
                    .unwrap();
            assert_eq!(
                faces.num_boundary_faces(),
                faces.boundary_faces().count(),
                "op {op}"
            );
            let maintained = m.surface().unwrap();
            assert_eq!(
                maintained.num_boundary_faces(),
                fresh.num_boundary_faces(),
                "op {op}"
            );
            assert_eq!(maintained.vertices(), fresh.vertices(), "op {op}");
        }
    }

    #[test]
    fn permutation_relabels_consistently() {
        let m = two_tet_mesh();
        // Reverse the ids.
        let perm: Vec<u32> = (0..5).rev().collect();
        let q = m.permute_vertices(&perm);
        assert_eq!(q.position(4), m.position(0));
        assert_eq!(q.position(0), m.position(4));
        // Old edge (0,1) becomes (4,3).
        assert!(q.adjacency().has_edge(4, 3));
        // Surfaces match under relabelling.
        let s_old = m.surface().unwrap();
        let s_new = q.surface().unwrap();
        for v in 0..5u32 {
            assert_eq!(s_old.contains(v), s_new.contains(perm[v as usize]));
        }
    }

    #[test]
    #[should_panic(expected = "bijection")]
    fn permutation_must_be_bijective() {
        let m = two_tet_mesh();
        m.permute_vertices(&[0, 0, 1, 2, 3]);
    }

    #[test]
    fn live_cells_skips_tombstones() {
        let mut m = two_tet_mesh();
        m.enable_restructuring().unwrap();
        m.remove_cell(1).unwrap();
        let ids: Vec<CellId> = m.live_cells().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0]);
        assert_eq!(m.cell_capacity(), 2);
    }

    #[test]
    fn live_cells_run_across_blocks_and_skip_tombstones() {
        // 2.5 blocks of disjoint tets; tombstones at block edges.
        let n = 2 * CELLS_PER_BLOCK + CELLS_PER_BLOCK / 2;
        let positions = (0..4 * n)
            .map(|i| p(i as f32, (i % 4) as f32, 0.0))
            .collect();
        let tets = (0..n as u32).map(|c| [4 * c, 4 * c + 1, 4 * c + 2, 4 * c + 3]);
        let mut m = Mesh::from_tets(positions, tets.collect()).unwrap();
        m.enable_restructuring().unwrap();
        let last = n as CellId - 1;
        let edge = CELLS_PER_BLOCK as CellId;
        for c in [0, edge - 1, edge, 2 * edge, last] {
            m.remove_cell(c).unwrap();
        }
        let expected: Vec<(CellId, Vec<VertexId>)> = (0..m.cell_capacity() as CellId)
            .filter(|&c| m.is_cell_alive(c))
            .map(|c| (c, m.cell(c).to_vec()))
            .collect();
        let live: Vec<(CellId, Vec<VertexId>)> =
            m.live_cells().map(|(c, cell)| (c, cell.to_vec())).collect();
        assert_eq!(live, expected);
        assert_eq!(live.len(), n - 5);
        assert_eq!(
            m.cell(2 * edge + 1),
            &[
                4 * (2 * edge + 1),
                4 * (2 * edge + 1) + 1,
                4 * (2 * edge + 1) + 2,
                4 * (2 * edge + 1) + 3
            ]
        );
    }

    #[test]
    fn restructure_epoch_counts_ops_and_ignores_deformation() {
        let mut m = two_tet_mesh();
        assert_eq!(m.restructure_epoch(), 0);
        // Deformation: no epoch change.
        for pos in m.positions_mut() {
            *pos += octopus_geom::Vec3::new(0.1, 0.0, 0.0);
        }
        assert_eq!(m.restructure_epoch(), 0);
        m.enable_restructuring().unwrap();
        assert_eq!(m.restructure_epoch(), 0, "enabling the mode is not an op");
        m.refine_tet(0).unwrap();
        assert_eq!(m.restructure_epoch(), 1);
        m.remove_cell(1).unwrap();
        assert_eq!(m.restructure_epoch(), 2);
        // Failed ops leave the epoch untouched.
        assert!(m.remove_cell(1).is_err());
        assert_eq!(m.restructure_epoch(), 2);
        // Relabelling carries the epoch over (same connectivity lineage).
        let n = m.num_vertices() as u32;
        let perm: Vec<u32> = (0..n).rev().collect();
        assert_eq!(m.permute_vertices(&perm).restructure_epoch(), 2);
    }

    #[test]
    fn memory_accounting_grows_with_restructuring_mode() {
        let mut m = two_tet_mesh();
        let base = m.memory_bytes();
        m.enable_restructuring().unwrap();
        assert!(m.memory_bytes() > base);
    }

    #[test]
    fn bounding_box_tracks_positions() {
        let mut m = two_tet_mesh();
        let b0 = m.bounding_box();
        assert_eq!(b0.max, p(1.0, 1.0, 1.0));
        m.positions_mut()[4] = p(10.0, 0.0, 0.0);
        assert_eq!(m.bounding_box().max.x, 10.0);
    }

    #[test]
    fn position_blocks_round_trip_after_deformation_and_refine() {
        let round_trips = |m: &Mesh| {
            let blocks = m.position_blocks();
            assert_eq!(blocks.blocks().len(), m.num_vertices().div_ceil(16));
            for (v, pos) in m.positions().iter().enumerate() {
                assert_eq!(blocks.get(v), *pos, "vertex {v}");
            }
        };
        let mut m = two_tet_mesh();
        m.positions_mut()[4] = p(7.0, 8.0, 9.0);
        round_trips(&m);
        m.enable_restructuring().unwrap();
        m.refine_tet(0).unwrap();
        round_trips(&m);
    }

    /// Pointer identity of the two shared arrays: the CSR and the flat
    /// cell array (cell 0's slice starts it).
    fn shares_connectivity(a: &Mesh, b: &Mesh) -> bool {
        std::ptr::eq(a.adjacency(), b.adjacency()) && std::ptr::eq(a.cell(0), b.cell(0))
    }

    #[test]
    fn snapshot_clone_and_with_positions_share_connectivity() {
        let mut m = two_tet_mesh();
        m.enable_restructuring().unwrap();
        let moved: Vec<Point3> = m
            .positions()
            .iter()
            .map(|q| p(q.x + 1.0, q.y, q.z))
            .collect();
        let moved_ptr = moved.as_ptr();
        let (snap, copy, other) = (m.snapshot(), m.clone(), m.with_positions(moved));
        for (name, shared) in [
            ("snapshot", &snap),
            ("clone", &copy),
            ("with_positions", &other),
        ] {
            assert!(
                shares_connectivity(&m, shared),
                "{name} copied connectivity"
            );
            assert_ne!(
                shared.positions().as_ptr(),
                m.positions().as_ptr(),
                "{name}"
            );
            assert_eq!(shared.restructure_epoch(), m.restructure_epoch(), "{name}");
        }
        assert_eq!(snap.positions(), m.positions());
        assert!(copy.restructuring_enabled() && !snap.restructuring_enabled());
        // The vector handed in is the position array, and comes back out.
        assert_eq!(other.positions().as_ptr(), moved_ptr);
        assert_eq!(other.position(0), p(1.0, 0.0, 0.0));
        assert!(!other.restructuring_enabled());
        let back = other.into_positions();
        assert_eq!(back.as_ptr(), moved_ptr);
    }

    #[test]
    #[should_panic(expected = "keeps the vertex count")]
    fn with_positions_rejects_a_length_mismatch() {
        let m = two_tet_mesh();
        let mut short = m.positions().to_vec();
        short.pop();
        let _ = m.with_positions(short);
    }

    #[test]
    fn first_restructuring_op_on_a_shared_mesh_unshares() {
        let mut m = two_tet_mesh();
        m.enable_restructuring().unwrap();
        let snap = m.snapshot();
        let (adjacency, cells) = (snap.adjacency() as *const Csr, snap.cell(0).as_ptr());
        m.refine_tet(0).unwrap();
        assert!(!shares_connectivity(&m, &snap));
        // The snapshot kept its arrays, untouched.
        assert!(std::ptr::eq(snap.adjacency(), adjacency));
        assert_eq!(snap.cell(0).as_ptr(), cells);
        assert_eq!((snap.num_cells(), snap.num_vertices()), (2, 5));
        assert!(snap.is_cell_alive(0));
        assert_eq!(snap.neighbors(0), &[1, 2, 3]);
        assert_eq!((m.num_cells(), m.num_vertices()), (5, 6));
        // A clone's face table is its own from its first op on.
        let mut copy = m.clone();
        copy.remove_cell(1).unwrap();
        assert!(m.is_cell_alive(1) && !copy.is_cell_alive(1));
        m.remove_cell(1).unwrap();
        assert_eq!(
            m.surface().unwrap().vertices(),
            copy.surface().unwrap().vertices()
        );
    }

    #[test]
    fn unshared_mesh_restructures_in_place() {
        let mut m = two_tet_mesh();
        m.enable_restructuring().unwrap();
        let (cells, adjacency) = (m.cell(0).as_ptr(), m.adjacency() as *const Csr);
        m.remove_cell(0).unwrap();
        assert_eq!(m.cell(0).as_ptr(), cells, "nobody shares: no copy");
        assert!(std::ptr::eq(m.adjacency(), adjacency), "spliced in place");
        drop(m.snapshot());
        m.remove_cell(1).unwrap();
        assert_eq!(m.cell(0).as_ptr(), cells, "the sharer is gone: no copy");
        assert!(std::ptr::eq(m.adjacency(), adjacency));
    }
}
