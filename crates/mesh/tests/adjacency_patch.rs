//! Restructuring and relabelling derive the adjacency and the
//! vertex→cell incidence from the old ones (a local row patch, a
//! per-list relabel, a counting rebuild); this suite holds both to
//! rebuilds from the live cells after *every* operation: the adjacency
//! to `Csr::from_undirected_edges`, compared bit for bit (offsets and
//! targets), and every incidence row to the ascending list of the live
//! cells that contain its vertex. CI runs the crate's suites under
//! `--release` too, where the in-crate `debug_assertions` cross-checks
//! are compiled out.
//!
//! The patch reads the cells around each touched vertex off its
//! incidence row, so a cell whose faces at the vertex all lead with
//! another corner counts like any other
//! ([`hex_face_filed_under_the_far_corner`] is such a case, which a
//! look-up by the faces filed under nearby vertices would miss). The
//! op sequences run on lattices of both kinds and on the `meshgen`
//! neuron mesh.
//!
//! The same op sequences hold the vertex set to what standing queries
//! patch their candidate lists by ([`VertexLedger`]): restructuring
//! only ever orphans existing vertices and appends new ids. And they
//! hold the sharing contract ([`Held`]): a snapshot or clone taken
//! mid-sequence shares the connectivity it was taken from (a clone the
//! incidence too), no later operation on the source writes through to
//! it, and the source copies only the cell blocks, adjacency blocks and
//! incidence blocks its operations write — every other block stays
//! shared by pointer. On a mesh nobody shares, an operation splices the
//! adjacency and the incidence in place and copies no block it did not
//! write.

use octopus_geom::rng::SplitMix64;
use octopus_geom::{Point3, VertexId};
use octopus_mesh::{
    CellKind, Csr, Mesh, Surface, SurfaceDelta, CELLS_PER_BLOCK, VERTICES_PER_BLOCK,
};
use octopus_meshgen::{neuron, NeuroLevel};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn lattice_points(n: usize) -> Vec<Point3> {
    let mut points = Vec::new();
    for z in 0..=n {
        for y in 0..=n {
            for x in 0..=n {
                points.push(Point3::new(x as f32, y as f32, z as f32));
            }
        }
    }
    points
}

fn lattice_id(n: usize, x: usize, y: usize, z: usize) -> VertexId {
    (x + (n + 1) * (y + (n + 1) * z)) as VertexId
}

/// `n³` cubes, each split into the six Kuhn tetrahedra (conforming
/// across cube faces).
fn tet_grid(n: usize) -> Mesh {
    const AXIS_ORDERS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let mut tets = Vec::new();
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                for order in AXIS_ORDERS {
                    let mut at = [x, y, z];
                    let mut tet = [lattice_id(n, x, y, z); 4];
                    for (corner, axis) in order.into_iter().enumerate() {
                        at[axis] += 1;
                        tet[corner + 1] = lattice_id(n, at[0], at[1], at[2]);
                    }
                    tets.push(tet);
                }
            }
        }
    }
    Mesh::from_tets(lattice_points(n), tets).unwrap()
}

/// `n³` hexahedra in VTK vertex numbering.
fn hex_grid(n: usize) -> Mesh {
    let mut hexes = Vec::new();
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                let v = |dx, dy, dz| lattice_id(n, x + dx, y + dy, z + dz);
                hexes.push([
                    v(0, 0, 0),
                    v(1, 0, 0),
                    v(1, 1, 0),
                    v(0, 1, 0),
                    v(0, 0, 1),
                    v(1, 0, 1),
                    v(1, 1, 1),
                    v(0, 1, 1),
                ]);
            }
        }
    }
    Mesh::from_hexes(lattice_points(n), hexes).unwrap()
}

/// The oracle: the global sort over every live cell's edges.
fn rebuilt_adjacency(mesh: &Mesh) -> Csr {
    let kind = mesh.kind();
    Csr::from_undirected_edges(
        mesh.num_vertices(),
        mesh.live_cells().flat_map(|(_, cell)| kind.edges(cell)),
    )
}

/// The incidence oracle: every vertex's live cells, ascending.
fn rebuilt_vertex_cells(mesh: &Mesh) -> Vec<Vec<u32>> {
    let mut rows = vec![Vec::new(); mesh.num_vertices()];
    for (c, cell) in mesh.live_cells() {
        for &v in cell {
            rows[v as usize].push(c);
        }
    }
    rows
}

/// Every row of `mesh`'s incidence, copied out.
fn vertex_cell_rows(mesh: &Mesh) -> Vec<Vec<u32>> {
    let rows = mesh.vertex_cells().expect("restructuring mode");
    (0..rows.num_vertices() as VertexId)
        .map(|v| rows.neighbors(v).to_vec())
        .collect()
}

/// Adjacency and incidence ≡ rebuild, and the maintained surface ≡
/// extraction.
fn assert_matches_rebuild(mesh: &Mesh, ctx: &str) {
    assert!(
        mesh.adjacency() == &rebuilt_adjacency(mesh),
        "{ctx}: patched adjacency differs from the rebuild"
    );
    assert!(
        vertex_cell_rows(mesh) == rebuilt_vertex_cells(mesh),
        "{ctx}: patched incidence differs from the rebuild"
    );
    let extracted = Surface::extract(
        mesh.kind(),
        mesh.num_vertices(),
        mesh.live_cells().map(|(_, cell)| cell),
    )
    .unwrap();
    assert_eq!(
        mesh.surface().unwrap().vertices(),
        extracted.vertices(),
        "{ctx}: maintained surface differs from the extraction"
    );
}

/// What a restructuring operation may do to the vertex set, checked
/// after every one: an orphaned id never becomes active again, new ids
/// are exactly the tail of the id space, and no existing position
/// moves.
struct VertexLedger {
    active: Vec<bool>,
    positions: Vec<Point3>,
}

impl VertexLedger {
    fn new(mesh: &Mesh) -> VertexLedger {
        VertexLedger {
            active: (0..mesh.num_vertices() as VertexId)
                .map(|v| mesh.is_vertex_active(v))
                .collect(),
            positions: mesh.positions().to_vec(),
        }
    }

    fn observe(&mut self, mesh: &Mesh, ctx: &str) {
        let old_n = self.positions.len();
        assert!(mesh.num_vertices() >= old_n, "{ctx}: an id disappeared");
        assert_eq!(
            &mesh.positions()[..old_n],
            &self.positions[..],
            "{ctx}: an existing position changed"
        );
        for (v, was_active) in self.active.iter().enumerate() {
            assert!(
                *was_active || !mesh.is_vertex_active(v as VertexId),
                "{ctx}: orphaned vertex {v} became active again"
            );
        }
        *self = VertexLedger::new(mesh);
    }
}

/// A snapshot (or clone) taken mid-sequence, with a deep copy of what
/// it answered then: copy-on-write must leave it answering the same.
struct Held {
    mesh: Mesh,
    taken_at: String,
    positions: Vec<Point3>,
    cell_capacity: usize,
    /// `cell(c)` of every slot, tombstones included.
    cells: Vec<Vec<VertexId>>,
    live_cells: Vec<(u32, Vec<VertexId>)>,
    neighbors: Vec<Vec<VertexId>>,
    /// The incidence rows of a clone (a snapshot has none).
    vertex_cells: Option<Vec<Vec<u32>>>,
    epoch: u64,
    /// Blocks the source's operations wrote since — cell blocks and
    /// adjacency blocks (the incidence's are the same vertices'): the
    /// only ones it may have copied.
    written: Written,
}

/// Blocks operations wrote, by kind.
#[derive(Default)]
struct Written {
    cells: BTreeSet<usize>,
    adjacency: BTreeSet<usize>,
}

impl Written {
    fn extend(&mut self, other: &Written) {
        self.cells.extend(&other.cells);
        self.adjacency.extend(&other.adjacency);
    }
}

/// The address of block `b` of a CSR: its first vertex's list starts it.
fn block(csr: &Csr, b: usize) -> *const VertexId {
    csr.neighbors((b * VERTICES_PER_BLOCK) as VertexId).as_ptr()
}

/// The address of adjacency block `b`.
fn adjacency_block(mesh: &Mesh, b: usize) -> *const VertexId {
    block(mesh.adjacency(), b)
}

impl Held {
    /// Alternates between the two ways of sharing a mesh.
    fn take(source: &Mesh, nth: usize, ctx: &str) -> Held {
        let mesh = if nth.is_multiple_of(2) {
            source.snapshot()
        } else {
            source.clone()
        };
        assert!(
            std::ptr::eq(mesh.adjacency(), source.adjacency())
                && std::ptr::eq(mesh.cell(0), source.cell(0)),
            "{ctx}: taking a snapshot copied connectivity"
        );
        assert_eq!(
            mesh.vertex_cells().map(|rows| rows as *const Csr),
            (!nth.is_multiple_of(2)).then(|| source.vertex_cells().unwrap() as *const Csr),
            "{ctx}: a clone shares the incidence, a snapshot leaves it behind"
        );
        Held {
            taken_at: ctx.to_string(),
            positions: mesh.positions().to_vec(),
            cell_capacity: mesh.cell_capacity(),
            cells: (0..mesh.cell_capacity() as u32)
                .map(|c| mesh.cell(c).to_vec())
                .collect(),
            live_cells: mesh.live_cells().map(|(c, v)| (c, v.to_vec())).collect(),
            neighbors: (0..mesh.num_vertices() as VertexId)
                .map(|v| mesh.neighbors(v).to_vec())
                .collect(),
            vertex_cells: mesh
                .restructuring_enabled()
                .then(|| vertex_cell_rows(&mesh)),
            epoch: mesh.restructure_epoch(),
            mesh,
            written: Written::default(),
        }
    }

    fn assert_untouched(&self) {
        let (mesh, at) = (&self.mesh, &self.taken_at);
        assert_eq!(mesh.positions(), &self.positions[..], "taken {at}");
        assert_eq!(mesh.cell_capacity(), self.cell_capacity, "taken {at}");
        assert_eq!(mesh.num_cells(), self.live_cells.len(), "taken {at}");
        assert_eq!(mesh.restructure_epoch(), self.epoch, "taken {at}");
        for (c, cell) in self.cells.iter().enumerate() {
            assert_eq!(mesh.cell(c as u32), &cell[..], "taken {at}: cell {c}");
        }
        let live: Vec<_> = mesh.live_cells().map(|(c, v)| (c, v.to_vec())).collect();
        assert_eq!(live, self.live_cells, "taken {at}");
        for (v, list) in self.neighbors.iter().enumerate() {
            let v = v as VertexId;
            assert_eq!(mesh.neighbors(v), &list[..], "taken {at}: vertex {v}");
            assert_eq!(mesh.is_vertex_active(v), !list.is_empty(), "taken {at}");
        }
        if let Some(rows) = &self.vertex_cells {
            assert!(vertex_cell_rows(mesh) == *rows, "taken {at}: incidence");
        }
    }

    /// `source` — the mesh this one was taken from, since operated on —
    /// still shares every cell block, every adjacency block and (a
    /// clone) every incidence block no operation wrote, and none that
    /// one did.
    fn assert_shares_unwritten_blocks(&self, source: &Mesh) {
        let written = &self.written;
        for b in 0..self.cell_capacity.div_ceil(CELLS_PER_BLOCK) {
            let first = (b * CELLS_PER_BLOCK) as u32;
            let shared = std::ptr::eq(self.mesh.cell(first), source.cell(first));
            assert_eq!(
                shared,
                !written.cells.contains(&b),
                "taken {}: cell block {b} (written: {:?})",
                self.taken_at,
                written.cells
            );
        }
        for b in 0..self.neighbors.len().div_ceil(VERTICES_PER_BLOCK) {
            let shared = adjacency_block(&self.mesh, b) == adjacency_block(source, b);
            assert_eq!(
                shared,
                !written.adjacency.contains(&b),
                "taken {}: adjacency block {b} (written: {:?})",
                self.taken_at,
                written.adjacency
            );
            if let Some(rows) = self.mesh.vertex_cells() {
                let shared = block(rows, b) == block(source.vertex_cells().unwrap(), b);
                assert_eq!(
                    shared,
                    !written.adjacency.contains(&b),
                    "taken {}: incidence block {b} (written: {:?})",
                    self.taken_at,
                    written.adjacency
                );
            }
        }
    }
}

/// Takes a [`Held`] every [`HOLD_EVERY`] ops, runs `ops` random ops on
/// `mesh` (fewer once one cell is left), checks the patch against the
/// rebuild, the vertex ledger and every snapshot's shared blocks after
/// each, then holds every snapshot to what it answered.
fn run_sequence(mut mesh: Mesh, rng: &mut SplitMix64, ops: usize, ctx: &str) {
    let mut ledger = VertexLedger::new(&mesh);
    let mut held: Vec<Held> = Vec::new();
    for op in 0..ops {
        if mesh.num_cells() <= 1 {
            break;
        }
        if op % HOLD_EVERY == 0 {
            held.push(Held::take(&mesh, held.len(), &format!("{ctx} op {op}")));
        }
        let (what, written) = random_op(&mut mesh, rng);
        for h in &mut held {
            h.written.extend(&written);
        }
        let ctx = format!("{ctx} op {op} ({what})");
        assert_matches_rebuild(&mesh, &ctx);
        ledger.observe(&mesh, &ctx);
        for h in &held {
            h.assert_shares_unwritten_blocks(&mesh);
        }
    }
    for h in &held {
        h.assert_untouched();
    }
}

/// Ops between two [`Held`] snapshots of a sequence.
const HOLD_EVERY: usize = 5;

fn random_live_cell(mesh: &Mesh, rng: &mut SplitMix64) -> u32 {
    loop {
        let c = rng.index(mesh.cell_capacity()) as u32;
        if mesh.is_cell_alive(c) {
            return c;
        }
    }
}

/// One random operation (refine only where the kind allows it), and
/// the blocks it wrote: the cell blocks of the operated cell
/// (tombstoned) and of its new cells, and the adjacency blocks of the
/// vertices whose lists it replaced and, when it appended a vertex, of
/// the tail. Checks the delta's account of connectivity against the
/// adjacency before and after ([`assert_delta_accounts`]).
fn random_op(mesh: &mut Mesh, rng: &mut SplitMix64) -> (String, Written) {
    let c = random_live_cell(mesh, rng);
    let (cells_before, vertices_before) = (mesh.cell_capacity(), mesh.num_vertices());
    let old = mesh.adjacency().clone();
    let (what, delta) = if mesh.kind() == CellKind::Tet4 && rng.chance(0.4) {
        (format!("refine {c}"), mesh.refine_tet(c).unwrap().1)
    } else {
        (format!("remove {c}"), mesh.remove_cell(c).unwrap())
    };
    assert_delta_accounts(&old, mesh, &delta, &what);
    let cells = std::iter::once(c as usize)
        .chain(cells_before..mesh.cell_capacity())
        .map(|cell| cell / CELLS_PER_BLOCK)
        .collect();
    // Appending vertices rebuilds the old tail block and every new one.
    let grew = mesh.num_vertices() > vertices_before;
    let adjacency = delta
        .touched
        .iter()
        .map(|&v| v as usize)
        .chain(grew.then_some(vertices_before))
        .chain(vertices_before..mesh.num_vertices())
        .map(|v| v / VERTICES_PER_BLOCK)
        .collect();
    (what, Written { cells, adjacency })
}

/// One operation's delta names every vertex whose neighbour list
/// changed (new vertices included) in `touched`, exactly the deleted
/// edges in `cut`, and one operation in `ops`.
fn assert_delta_accounts(old: &Csr, mesh: &Mesh, delta: &SurfaceDelta, ctx: &str) {
    assert_eq!(delta.ops, 1, "{ctx}");
    assert!(delta.touched.windows(2).all(|w| w[0] < w[1]), "{ctx}");
    let new = mesh.adjacency();
    let mut cut = Vec::new();
    for v in 0..mesh.num_vertices() as VertexId {
        let was: &[VertexId] = if (v as usize) < old.num_vertices() {
            old.neighbors(v)
        } else {
            &[]
        };
        if was != new.neighbors(v) {
            assert!(delta.touched.binary_search(&v).is_ok(), "{ctx}: {v}");
        }
        cut.extend(
            was.iter()
                .filter(|&&w| v < w && !new.has_edge(v, w))
                .map(|&w| (v, w)),
        );
    }
    assert_eq!(delta.cut, cut, "{ctx}: cut edges");
}

/// Lattice sizes (cells a side) the op sequences draw from: up to
/// three, whose ≤ 64 vertices fit one adjacency and incidence block,
/// and seven, whose 512 vertices fill two — a third once a refinement
/// appends one — so that an op which rewrote every block would show in
/// [`Held`]'s sharing checks.
const LATTICES: [usize; 4] = [1, 2, 3, 7];

fn shuffled_identity(n: usize, rng: &mut SplitMix64) -> Vec<VertexId> {
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    rng.shuffle(&mut perm);
    perm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Seeded random `remove_cell` / `refine_tet` sequences on a tet
    /// grid, run until one cell is left.
    #[test]
    fn tet_patch_equals_rebuild_after_every_op(size in 0usize..4, seed in 0u64..10_000) {
        let n = LATTICES[size];
        let mut mesh = tet_grid(n);
        mesh.enable_restructuring().unwrap();
        let mut rng = SplitMix64::new(seed);
        run_sequence(mesh, &mut rng, 120, &format!("n {n} seed {seed}"));
    }

    /// `remove_cell` on a hex grid (12 edges a cell, not all vertex
    /// pairs: the patch must enumerate edges, not pairs), until one
    /// cell is left.
    #[test]
    fn hex_patch_equals_rebuild_after_every_op(size in 0usize..4, seed in 0u64..10_000) {
        let n = LATTICES[size];
        let mut mesh = hex_grid(n);
        mesh.enable_restructuring().unwrap();
        let mut rng = SplitMix64::new(seed);
        run_sequence(mesh, &mut rng, usize::MAX, &format!("n {n} seed {seed}"));
    }

    /// `permute_vertices` after a mixed sequence: the relabelled CSR
    /// equals the rebuild of the permuted cells, the relabelled
    /// restructuring state keeps later operations exact, and neither
    /// the relabelling nor those operations reach what was held before.
    #[test]
    fn permutation_after_mixed_ops_equals_rebuild(
        n in 2usize..4,
        seed in 0u64..10_000,
        hex in proptest::bool::ANY,
    ) {
        let mut mesh = if hex { hex_grid(n) } else { tet_grid(n) };
        mesh.enable_restructuring().unwrap();
        let mut rng = SplitMix64::new(seed);
        // Six ops leave at least two of the ≥ 8 cells.
        for _ in 0..6 {
            random_op(&mut mesh, &mut rng);
        }
        // The relabelled mesh owns new blocks: nothing to share there.
        let perm = shuffled_identity(mesh.num_vertices(), &mut rng);
        let mut held = vec![Held::take(&mesh, 0, "before the permutation")];
        let mut permuted = mesh.permute_vertices(&perm);
        assert_matches_rebuild(&permuted, "right after the permutation");
        prop_assert!(permuted.adjacency() == &mesh.adjacency().permuted(&perm));
        for v in 0..mesh.num_vertices() as VertexId {
            prop_assert_eq!(
                mesh.is_vertex_active(v),
                permuted.is_vertex_active(perm[v as usize])
            );
        }
        for op in 0..10 {
            if permuted.num_cells() <= 1 {
                break;
            }
            if op % HOLD_EVERY == 0 {
                held.push(Held::take(&permuted, held.len(), &format!("op {op} after the permutation")));
            }
            let (_, written) = random_op(&mut permuted, &mut rng);
            for h in &mut held[1..] {
                h.written.extend(&written);
            }
            assert_matches_rebuild(&permuted, &format!("op {op} after the permutation"));
        }
        held.iter().for_each(Held::assert_untouched);
        held[0].assert_shares_unwritten_blocks(&mesh);
        for h in &held[1..] {
            h.assert_shares_unwritten_blocks(&permuted);
        }
    }
}

/// The neuron mesh: two non-convex arbors over several cell blocks, so
/// an operation writes some blocks and shares the rest.
#[test]
fn neuron_patch_equals_rebuild_after_every_op() {
    let mut mesh = neuron(NeuroLevel::L1, 0.4).unwrap();
    mesh.enable_restructuring().unwrap();
    assert!(
        mesh.cell_capacity() > 4 * CELLS_PER_BLOCK,
        "test premise: several cell blocks"
    );
    assert!(
        mesh.num_vertices() > 4 * VERTICES_PER_BLOCK,
        "test premise: several adjacency blocks"
    );
    for seed in [1u64, 2] {
        let mut rng = SplitMix64::new(seed);
        run_sequence(mesh.clone(), &mut rng, 30, &format!("neuron seed {seed}"));
    }
}

/// On a mesh nobody shares, an operation edits the adjacency and the
/// incidence in place — the same handles — and every block of either it
/// did not write keeps its address: no block is copied.
#[test]
fn an_op_on_an_unshared_mesh_copies_no_block() {
    let mut mesh = neuron(NeuroLevel::L1, 0.4).unwrap();
    mesh.enable_restructuring().unwrap();
    let mut rng = SplitMix64::new(3);
    fn csrs(mesh: &Mesh) -> [&Csr; 2] {
        [mesh.adjacency(), mesh.vertex_cells().unwrap()]
    }
    for op in 0..30 {
        let handles = csrs(&mesh).map(|csr| csr as *const Csr);
        let blocks: Vec<_> = (0..mesh.num_vertices().div_ceil(VERTICES_PER_BLOCK))
            .map(|b| csrs(&mesh).map(|csr| block(csr, b)))
            .collect();
        let (what, written) = random_op(&mut mesh, &mut rng);
        assert_eq!(
            csrs(&mesh).map(|csr| csr as *const Csr),
            handles,
            "op {op} ({what})"
        );
        for (b, &before) in blocks.iter().enumerate() {
            if !written.adjacency.contains(&b) {
                assert_eq!(
                    csrs(&mesh).map(|csr| block(csr, b)),
                    before,
                    "op {op} ({what}): block {b}"
                );
            }
        }
        assert!(written.adjacency.len() < blocks.len(), "op {op}: premise");
        assert_matches_rebuild(&mesh, &format!("op {op} ({what})"));
    }
}

/// Two hexahedra sharing one vertex `v`, numbered so that each of the
/// three quads of the kept hexahedron at `v` has the corner diagonally
/// across from `v` as its smallest id: no face of it at `v` leads with
/// `v`, a neighbour of `v` or a vertex the removal of the other
/// hexahedron touched. A look-up by the faces filed under nearby
/// vertices would lose the kept cell's edges from `v`'s list; `v`'s
/// incidence row lists the cell whatever its faces lead with.
#[test]
fn hex_face_filed_under_the_far_corner() {
    let corner = |x: f32, y: f32, z: f32| p(x, y, z);
    // Kept hex in VTK order: v = 3, its edge neighbours 4, 5, 6, the
    // diagonals of its three quads 0, 1, 2, and the far corner 7.
    let kept = [3, 4, 0, 5, 6, 1, 7, 2];
    let mut positions = vec![Point3::ORIGIN; 15];
    for (&v, at) in kept.iter().zip([
        corner(0.0, 0.0, 0.0),
        corner(1.0, 0.0, 0.0),
        corner(1.0, 1.0, 0.0),
        corner(0.0, 1.0, 0.0),
        corner(0.0, 0.0, 1.0),
        corner(1.0, 0.0, 1.0),
        corner(1.0, 1.0, 1.0),
        corner(0.0, 1.0, 1.0),
    ]) {
        positions[v as usize] = at;
    }
    // The other hex touches the kept one at v only (its corner 6).
    let other = [8, 9, 10, 11, 12, 13, 3, 14];
    for (&v, at) in other.iter().zip([
        corner(-1.0, -1.0, -1.0),
        corner(0.0, -1.0, -1.0),
        corner(0.0, 0.0, -1.0),
        corner(-1.0, 0.0, -1.0),
        corner(-1.0, -1.0, 0.0),
        corner(0.0, -1.0, 0.0),
        corner(0.0, 0.0, 0.0),
        corner(-1.0, 0.0, 0.0),
    ]) {
        positions[v as usize] = at;
    }
    for removed in [1u32, 0] {
        let mut mesh = Mesh::from_hexes(positions.clone(), vec![kept, other]).unwrap();
        mesh.enable_restructuring().unwrap();
        let survivor = mesh.cell(1 - removed).to_vec();
        mesh.remove_cell(removed).unwrap();
        assert_matches_rebuild(&mesh, &format!("after removing hex {removed}"));
        // v keeps exactly its three edges in the survivor.
        assert_eq!(mesh.neighbors(3).len(), 3, "removed hex {removed}");
        assert!(mesh.neighbors(3).iter().all(|w| survivor.contains(w)));
    }
}

fn p(x: f32, y: f32, z: f32) -> Point3 {
    Point3::new(x, y, z)
}

/// Two tets that touch only along edge (0, 1): no face is shared, so a
/// face-twin lookup finds no neighbour — yet removing one tet must keep
/// the edge, because the other still has it.
#[test]
fn shared_edge_survives_removing_one_of_its_two_tets() {
    let positions = vec![
        p(0.0, 0.0, 0.0),
        p(0.0, 0.0, 1.0),
        p(1.0, 0.0, 0.0),
        p(1.0, 1.0, 0.0),
        p(-1.0, 0.0, 0.0),
        p(-1.0, -1.0, 0.0),
    ];
    let mut mesh = Mesh::from_tets(positions, vec![[0, 1, 2, 3], [0, 1, 4, 5]]).unwrap();
    mesh.enable_restructuring().unwrap();
    mesh.remove_cell(0).unwrap();
    assert_matches_rebuild(&mesh, "after removing tet 0");
    assert_eq!(mesh.neighbors(0), &[1, 4, 5]);
    assert_eq!(mesh.neighbors(1), &[0, 4, 5]);
    assert!(!mesh.is_vertex_active(2) && !mesh.is_vertex_active(3));
}

/// Removing the only cell that references a vertex orphans it: empty
/// list, `is_vertex_active` flips, every former neighbour forgets it.
#[test]
fn removal_that_orphans_a_vertex_empties_its_list() {
    let mut mesh = tet_grid(1);
    mesh.enable_restructuring().unwrap();
    // Vertex 1 = (1, 0, 0) belongs to only some of the six Kuhn tets
    // (what they all share is the 0–7 diagonal).
    let victim: VertexId = 1;
    assert!(mesh.is_vertex_active(victim));
    let cells: Vec<u32> = mesh
        .live_cells()
        .filter(|(_, cell)| cell.contains(&victim))
        .map(|(id, _)| id)
        .collect();
    assert!(!cells.is_empty() && cells.len() < mesh.num_cells());
    for c in cells {
        mesh.remove_cell(c).unwrap();
        assert_matches_rebuild(&mesh, &format!("after removing cell {c}"));
    }
    assert!(!mesh.is_vertex_active(victim), "last cell gone: orphaned");
    assert_eq!(mesh.neighbors(victim), &[] as &[VertexId]);
    for v in 0..mesh.num_vertices() as VertexId {
        assert!(!mesh.neighbors(v).contains(&victim));
    }
}

/// Refine, then remove one of the four children: the appended centroid
/// first gets its four corners, then loses exactly the corner only the
/// removed child connected it to.
#[test]
fn refine_then_remove_one_child() {
    let mut mesh = tet_grid(1);
    mesh.enable_restructuring().unwrap();
    let corners: Vec<VertexId> = mesh.cell(0).to_vec();
    let first_child = mesh.cell_capacity() as u32;
    let (centroid, _) = mesh.refine_tet(0).unwrap();
    assert_matches_rebuild(&mesh, "after the refine");
    let mut sorted = corners.clone();
    sorted.sort_unstable();
    assert_eq!(mesh.neighbors(centroid), &sorted[..]);

    // The first child is (a, b, c, centroid): d stays connected to the
    // centroid through the other three children.
    mesh.remove_cell(first_child).unwrap();
    assert_matches_rebuild(&mesh, "after removing the first child");
    assert_eq!(mesh.neighbors(centroid), &sorted[..]);
    // Remove the remaining children that contain corner `a`: the
    // centroid then keeps b, c, d only.
    for child in first_child + 1..first_child + 3 {
        assert!(mesh.cell(child).contains(&corners[0]));
        mesh.remove_cell(child).unwrap();
        assert_matches_rebuild(&mesh, &format!("after removing child {child}"));
    }
    assert!(!mesh.neighbors(centroid).contains(&corners[0]));
    assert_eq!(mesh.neighbors(centroid).len(), 3);
}

/// Removing down to one cell: the survivor's vertices keep exactly the
/// cell's own edges, everything else is orphaned.
#[test]
fn removing_down_to_one_cell() {
    for mut mesh in [tet_grid(2), hex_grid(2)] {
        mesh.enable_restructuring().unwrap();
        let survivor = 3u32;
        for c in 0..mesh.cell_capacity() as u32 {
            if c != survivor {
                mesh.remove_cell(c).unwrap();
                assert_matches_rebuild(&mesh, &format!("after removing cell {c}"));
            }
        }
        assert_eq!(mesh.num_cells(), 1);
        let cell = mesh.cell(survivor).to_vec();
        let active = (0..mesh.num_vertices() as VertexId)
            .filter(|&v| mesh.is_vertex_active(v))
            .count();
        assert_eq!(active, cell.len());
        assert_eq!(
            mesh.adjacency().num_directed_edges(),
            2 * mesh.kind().edges_per_cell()
        );
    }
}
