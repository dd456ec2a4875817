//! The anchored surface grid: Algorithm 1's probe in O(box) instead of
//! O(S).
//!
//! The paper's probe visits every surface vertex for every query. The
//! surface *set* only changes on restructuring, and between rebuilds
//! every vertex stays near where it was, so the surface ids are bucketed
//! **once** into a uniform grid by their positions at build time — the
//! *anchors*, stored beside the ids — and deformation never maintains
//! the structure. A query then visits only the cells overlapping its
//! box dilated by the **reach**: the largest per-axis distance any
//! bucketed vertex of the snapshot being queried lies from its anchor
//! ([`SurfaceGrid::reach`], one O(S) pass per snapshot — which the
//! service runs at hand-off, on the simulation thread that has just
//! written the snapshot's positions, so no query waits for it).
//!
//! **Exactness** is independent of any policy. A surface vertex inside
//! the box `q` at its current position `p` has its anchor `a` within
//! `reach` of `p` on every axis, hence inside `q` dilated by `reach`,
//! hence in an enumerated cell; every visited id is then tested against
//! `q` at its current position exactly as the full probe tests it. So
//! the seeds — and therefore the results — equal the full probe's as
//! sets, at any reach and for any cell size; both only decide how many
//! candidates are visited. Two details make the bound hold in `f32`:
//!
//! * the dilation is padded by a few ulps of the *coordinate* magnitude
//!   (`q.min − reach` rounds at the scale of `q.min`, not of `reach`,
//!   and the reach itself is a maximum of rounded differences), so the
//!   dilated corners computed in `f32` bracket every such anchor;
//! * anchors and dilated corners map to cells through the same monotone
//!   clamped expression, so `lo ≤ a ≤ hi` implies
//!   `cell(lo) ≤ cell(a) ≤ cell(hi)` on each axis — for corners outside
//!   the grid, vertices displaced outside the build-time bounds, and
//!   non-finite inputs alike.
//!
//! **The component bound.** Algorithm 1's phase 2 walks into every
//! connected component the probe left seedless (the executor's
//! component-aware extension), and on a multi-component mesh most of
//! those components are nowhere near the box. So the grid also keeps,
//! per component label, the bounding box of the anchors of that
//! component's surface vertices — 24 bytes per component, folded into
//! the min/max pass the build makes anyway — and answers the one
//! question phase 2 needs ([`SurfaceGrid::component_in_reach`]): can
//! component `c` hold a vertex inside these bounds? The argument is the
//! probe's plus one premise:
//!
//! * a vertex that is extremal along an axis within its component has
//!   all its incident cells on one side of it, so it lies on the
//!   boundary of the component: it is a surface vertex. Hence every
//!   vertex of a component — interior ones included — lies inside the
//!   bounding box of that component's *surface* vertices at the same
//!   positions;
//! * each of those surface vertices is within `reach` of its anchor on
//!   every axis, so that box lies inside the component's anchor box
//!   dilated by `reach`; a box `q` that holds a vertex of the component
//!   therefore intersects the dilated anchor box, i.e. `q` dilated by
//!   `reach` — under the same ulp padding as the probe's — intersects
//!   the anchor box. A component whose anchor box it misses holds
//!   nothing inside `q`, and the walk into it is skipped.
//!
//! The premise is that no cell is inverted: a mesh whose interior
//! vertices have been pushed through their own surface has no inside
//! for the first step to speak of. It is the premise §IV-C's "each
//! sub-mesh contains a surface vertex" — and with it Algorithm 1 —
//! already rests on; inverted cells void the bound as they void the
//! algorithm (the bound can then skip a walk that would have stumbled
//! on such a vertex: its answers are a subset of the full probe's,
//! never more). A component whose bound passes is walked exactly as
//! under the full probe; a label no surface id carries (an orphaned
//! vertex) has an empty box and is never in reach — the walk would have
//! had nowhere to start; a reach that is not a finite non-negative
//! number bounds nothing and every component is in reach.
//!
//! **Finite in, finite out.** Anchors and component boxes are copies
//! and comparisons of the positions handed to the build, so they are
//! finite whenever those positions were; the service rebuilds a grid
//! on drift only from a snapshot whose reach is finite, and a patch
//! files an added vertex whose position is not finite at the grid's
//! origin instead (any anchor keeps the probe exact: the reach is
//! measured against the anchor stored), so a non-finite position it is
//! handed never stays behind as an anchor.
//!
//! The grid holds ids, anchors and a box per component label, but no
//! connectivity: the executor that owns the surface and the component
//! labels builds it ([`crate::Octopus::surface_grid`];
//! [`SurfaceGrid::build`] is one gather and a counting sort over S).
//! When a restructure changes both, the grid of the executor it was
//! derived from is *patched* instead
//! ([`crate::Octopus::patched_surface_grid`], [`SurfaceGrid::patched`]):
//! the surface delta's removed ids leave their cells, its added ids are
//! filed at their positions then — beside ids whose anchors are older,
//! which is what every anchor already is after deformation — and the
//! component boxes are taken again over the anchors under the new
//! labels. The frame stays, so an added anchor outside it clamps into a
//! border cell: the monotone clamped cell expression above keeps that
//! exact, and the reach is measured against whichever anchors the grid
//! holds. Sequential copies of the ids and the cell offsets, with no
//! gather over the positions and no sort but the delta's.

use octopus_geom::mem::gather;
use octopus_geom::{Aabb, Point3, VertexId};

/// The surface ids bucketed into a uniform grid by their build-time
/// positions (see the module docs). 20 bytes per surface vertex plus 4
/// per cell and 24 per connected component.
#[derive(Debug)]
pub struct SurfaceGrid {
    /// Minimum corner of cell (0, 0, 0): the component-wise minimum of
    /// the anchors.
    origin: Point3,
    cell: f32,
    inv_cell: f32,
    /// Cells per axis (each ≥ 1).
    dims: [u32; 3],
    /// CSR offsets over the cells in x-minor order: cell `c` holds
    /// `cell_ids[starts[c]..starts[c + 1]]`, so a row of x-adjacent
    /// cells is one contiguous run.
    starts: Vec<u32>,
    cell_ids: Vec<VertexId>,
    /// The ids in the order they were given — ascending, the order
    /// that follows the memory layout — each with its
    /// build-time position. This is what [`SurfaceGrid::reach`] walks:
    /// in cell order the same pass jumps through the position array and
    /// costs five full probes instead of one.
    ids: Vec<VertexId>,
    anchors: Vec<Point3>,
    /// Per component label, the `[min, max]` corners of the bounding
    /// box of the anchors of that component's ids; NaN for a label no
    /// id carries, which no comparison finds in reach.
    component_bounds: Vec<[[f32; 3]; 2]>,
}

/// Grows the `[min, max]` corners of `bounds` to cover `[min, max]`.
/// Comparisons, not `f32::min`: they skip NaN just the same and cost a
/// third.
#[inline]
fn widen(bounds: &mut [[f32; 3]; 2], min: [f32; 3], max: [f32; 3]) {
    let [lo, hi] = bounds;
    for axis in 0..3 {
        if min[axis] < lo[axis] {
            lo[axis] = min[axis];
        }
        if max[axis] > hi[axis] {
            hi[axis] = max[axis];
        }
    }
}

/// Per label below `components`, the `[min, max]` corners of the anchors
/// of the ids `component_of` gives that label: one pass in id order.
/// A label no id (or none with a comparable anchor) carries is NaN,
/// which no comparison — not even with an unbounded box — finds in
/// reach.
fn bound_components(
    ids: &[VertexId],
    anchors: &[Point3],
    component_of: &[u32],
    components: usize,
) -> Vec<[[f32; 3]; 2]> {
    let mut bounds = vec![[[f32::INFINITY; 3], [f32::NEG_INFINITY; 3]]; components];
    for (&v, a) in ids.iter().zip(anchors) {
        let at = [a.x, a.y, a.z];
        widen(&mut bounds[component_of[v as usize] as usize], at, at);
    }
    for bound in &mut bounds {
        let [min, max] = *bound;
        if !(0..3).all(|axis| min[axis] <= max[axis]) {
            *bound = [[f32::NAN; 3]; 2];
        }
    }
    bounds
}

impl SurfaceGrid {
    /// Buckets `ids` by `positions[id]` into cells of edge `cell`, and
    /// bounds each of the `components` labels of `component_of` (one
    /// label per vertex of the mesh) by the anchors of its ids.
    ///
    /// The cell edge only steers cost (a non-positive or non-finite one
    /// is replaced by 1), and it is doubled until the grid has at most
    /// `4·|ids| + 64` cells, so degenerate geometry (a flat sheet, a
    /// vanishing typical edge) cannot allocate more offsets than ids. A
    /// vertex whose position is not finite is kept like any other —
    /// every id is in exactly one cell, wherever the clamped cell
    /// expression sends it — and [`SurfaceGrid::reach`] reports the
    /// snapshot as unbounded.
    ///
    /// # Panics
    /// When an id has no position or no label, or a label is not below
    /// `components`.
    pub fn build(
        ids: &[VertexId],
        positions: &[Point3],
        component_of: &[u32],
        components: usize,
        cell: f32,
    ) -> SurfaceGrid {
        let anchors: Vec<Point3> = ids.iter().map(|&v| positions[v as usize]).collect();
        // The frame is the union of the component boxes. An infinite
        // anchor makes an infinite frame, which the loop below folds
        // into one cell.
        let component_bounds = bound_components(ids, &anchors, component_of, components);
        let mut frame = [[f32::INFINITY; 3], [f32::NEG_INFINITY; 3]];
        for &[min, max] in &component_bounds {
            if (0..3).all(|axis| min[axis] <= max[axis]) {
                widen(&mut frame, min, max);
            }
        }
        let [lo, hi] = frame;
        let (origin, extent) = if (0..3).all(|axis| lo[axis] <= hi[axis]) {
            (
                Point3::new(lo[0], lo[1], lo[2]),
                [0, 1, 2].map(|k| hi[k] - lo[k]),
            )
        } else {
            (Point3::ORIGIN, [0.0; 3])
        };
        let mut cell = if cell > 0.0 && cell.is_finite() {
            cell
        } else {
            1.0
        };
        // Capped so that a cell index fits the `u32` offsets' type.
        let budget = (4 * ids.len() as u64 + 64).min(u64::from(u32::MAX));
        let dims = loop {
            // Saturating casts: an overflowing quotient is a huge
            // dimension, which the budget then refuses.
            let dims = extent.map(|e| ((e / cell) as u32).saturating_add(1));
            let cells = dims
                .iter()
                .try_fold(1u64, |acc, &d| acc.checked_mul(u64::from(d)));
            if cells.is_some_and(|c| c <= budget) {
                break dims;
            }
            cell *= 2.0;
        };
        let mut grid = SurfaceGrid {
            origin,
            cell,
            inv_cell: 1.0 / cell,
            dims,
            starts: vec![0; dims.iter().map(|&d| d as usize).product::<usize>() + 1],
            cell_ids: vec![0; ids.len()],
            ids: ids.to_vec(),
            anchors,
            component_bounds,
        };
        // Counting sort by cell: count, prefix-sum, scatter.
        let cells: Vec<u32> = grid.anchors.iter().map(|&a| grid.cell_index(a)).collect();
        for &c in &cells {
            grid.starts[c as usize + 1] += 1;
        }
        for c in 1..grid.starts.len() {
            grid.starts[c] += grid.starts[c - 1];
        }
        let mut cursor = grid.starts.clone();
        for (&v, &c) in grid.ids.iter().zip(&cells) {
            let slot = &mut cursor[c as usize];
            grid.cell_ids[*slot as usize] = v;
            *slot += 1;
        }
        grid
    }

    /// The grid of the surface after a restructure, derived from this
    /// one — the grid of the surface before it — instead of built: the
    /// `removed` ids are dropped, the `added` ones filed at their
    /// `positions`, and every component is bounded again over the
    /// anchors under `component_of` (`components` labels), because the
    /// labels a restructure leaves are not the ones this grid was
    /// bounded under. Every other id keeps its anchor; the frame, the
    /// cell and the dims stay, and an added anchor outside the frame
    /// clamps into a border cell, which the module docs show keeps
    /// every probe exact. The reach against the kept anchors grows with
    /// the drift since they were taken, as it would have on this grid.
    ///
    /// `removed` must be ids of this grid and `added` ids it lacks,
    /// each once (a [`octopus_mesh::SurfaceDelta`]'s net lists are),
    /// for the result to hold each surface id once (a removed id the
    /// grid lacks is passed over). The ids keep their order, the added
    /// ones last. Sequential copies of the ids, the anchors and the
    /// cell offsets, a search of the ids per removed one and a sort of
    /// the edits; no position but the added ones' is read.
    ///
    /// # Panics
    /// When an added id has no position, or an id has no label or a
    /// label is not below `components`.
    pub fn patched(
        &self,
        removed: &[VertexId],
        added: &[VertexId],
        positions: &[Point3],
        component_of: &[u32],
        components: usize,
    ) -> SurfaceGrid {
        // Each removed id's place in the id order, and its slot in its
        // anchor's cell: a delta removes a handful, so a search of the
        // ids each and one of a cell's run beats testing every id.
        let mut dropped: Vec<(usize, usize, usize, VertexId)> = Vec::new();
        for &v in removed {
            let Some(at) = self.ids.iter().position(|&u| u == v) else {
                continue;
            };
            let cell = self.cell_index(self.anchors[at]) as usize;
            let run = self.starts[cell] as usize..self.starts[cell + 1] as usize;
            let within = self.cell_ids[run.clone()].iter().position(|&u| u == v);
            let slot = run.start + within.expect("an id is filed in its anchor's cell");
            dropped.push((at, slot, cell, v));
        }
        dropped.sort_unstable();
        let len = self.ids.len() - dropped.len() + added.len();
        let (mut ids, mut anchors) = (Vec::with_capacity(len), Vec::with_capacity(len));
        let mut from = 0;
        for &(at, ..) in &dropped {
            ids.extend_from_slice(&self.ids[from..at]);
            anchors.extend_from_slice(&self.anchors[from..at]);
            from = at + 1;
        }
        ids.extend_from_slice(&self.ids[from..]);
        anchors.extend_from_slice(&self.anchors[from..]);
        // The edits in cell order, as `(slot, drop, cell, id)`: an
        // added id goes at the end of its cell's run (before a drop at
        // the same slot, which is the next cell's first id), a dropped
        // one at its own slot.
        let mut edits: Vec<(usize, bool, usize, VertexId)> = dropped
            .iter()
            .map(|&(_, slot, cell, v)| (slot, true, cell, v))
            .collect();
        for &v in added {
            // A non-finite position is no anchor: the origin stands in,
            // so that once the vertex is finite again the reach is too,
            // and the drift rule can rebuild the grid.
            let at = Some(positions[v as usize])
                .filter(Point3::is_finite)
                .unwrap_or(self.origin);
            ids.push(v);
            anchors.push(at);
            let cell = self.cell_index(at) as usize;
            edits.push((self.starts[cell + 1] as usize, false, cell, v));
        }
        edits.sort_unstable();
        // Copy the runs between the edits, and the starts shifted by
        // what the edits before them added and dropped (the edits' cells
        // ascend with their slots).
        let mut cell_ids = Vec::with_capacity(len);
        let mut starts = Vec::with_capacity(self.starts.len());
        let (mut from, mut next_cell, mut shift) = (0, 0, 0u32);
        let mut copy_starts = |starts: &mut Vec<u32>, upto: usize, shift: u32| {
            let run = &self.starts[next_cell..upto];
            starts.extend(run.iter().map(|&s| s.wrapping_add(shift)));
            next_cell = upto;
        };
        for (slot, drop, cell, v) in edits {
            // Every start up to the edited cell's own lies before it.
            copy_starts(&mut starts, cell + 1, shift);
            cell_ids.extend_from_slice(&self.cell_ids[from..slot]);
            if drop {
                from = slot + 1;
                shift = shift.wrapping_sub(1);
            } else {
                cell_ids.push(v);
                from = slot;
                shift = shift.wrapping_add(1);
            }
        }
        copy_starts(&mut starts, self.starts.len(), shift);
        cell_ids.extend_from_slice(&self.cell_ids[from..]);
        debug_assert_eq!(cell_ids.len(), ids.len(), "an edit was not an id's");
        SurfaceGrid {
            starts,
            cell_ids,
            component_bounds: bound_components(&ids, &anchors, component_of, components),
            ids,
            anchors,
            ..*self
        }
    }

    /// The bucketed ids, in the order the grid was given them (the
    /// added ones of each patch last).
    pub fn ids(&self) -> &[VertexId] {
        &self.ids
    }

    /// Each id's anchor — its position when it was filed — beside
    /// [`SurfaceGrid::ids`].
    pub fn anchors(&self) -> &[Point3] {
        &self.anchors
    }

    /// The cell coordinate of `x` on `axis`: monotone non-decreasing in
    /// `x` (the subtraction and the multiplication by a positive
    /// constant round monotonically; the cast truncates, saturates and
    /// sends NaN to 0) and clamped into the grid.
    #[inline]
    fn cell_of(&self, axis: usize, x: f32) -> u32 {
        let c = ((x - self.origin[axis]) * self.inv_cell) as u32;
        c.min(self.dims[axis] - 1)
    }

    /// Index of the cell holding `p`; below `u32::MAX` by the cell
    /// budget.
    #[inline]
    fn cell_index(&self, p: Point3) -> u32 {
        let [nx, ny, _] = self.dims;
        (self.cell_of(2, p.z) * ny + self.cell_of(1, p.y)) * nx + self.cell_of(0, p.x)
    }

    /// The cell edge in use (the requested one unless the cell budget
    /// enlarged it).
    pub fn cell(&self) -> f32 {
        self.cell
    }

    /// Number of bucketed surface vertices.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the grid holds no vertex.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The largest per-axis distance any bucketed vertex lies from its
    /// anchor at `positions` — the dilation under which
    /// [`SurfaceGrid::runs`] is exact for this snapshot. One
    /// O(S) gather. `∞` when a position or an anchor is not finite: no
    /// bound holds for that vertex, and the caller probes the full
    /// surface instead.
    pub fn reach(&self, positions: &[Point3]) -> f32 {
        // Sum of the per-axis distances when not finite, else their
        // maximum: `f32::max` skips NaN, a sum does not. Both fold into
        // one running maximum (∞ and NaN-free otherwise), one step on
        // the accumulator's dependency chain per id.
        let mut reach = 0.0f32;
        let mut finite = true;
        let mut anchors = self.anchors.iter();
        gather(&self.ids, positions, |_, p| {
            let Some(a) = anchors.next() else { return };
            let (dx, dy, dz) = ((p.x - a.x).abs(), (p.y - a.y).abs(), (p.z - a.z).abs());
            finite &= (dx + dy + dz) < f32::INFINITY;
            let d = if dx > dy { dx } else { dy };
            let d = if d > dz { d } else { dz };
            if d > reach {
                reach = d;
            }
        });
        if finite {
            reach
        } else {
            f32::INFINITY
        }
    }

    /// `[min, max]` on `axis` dilated by `reach` plus the ulp padding
    /// of the module docs: the interval every anchor of a vertex now
    /// inside `[min, max]` lies in. One expression for the probe and
    /// the component bound, so the two cannot disagree at a face.
    #[inline]
    fn dilate(min: f32, max: f32, reach: f32) -> (f32, f32) {
        let pad = reach + 4.0 * f32::EPSILON * (min.abs().max(max.abs()) + reach);
        (min - pad, max + pad)
    }

    /// The non-empty id runs of the cells overlapping `bounds` dilated
    /// by `reach` (padded as the module docs describe). The ids of all
    /// runs are a superset of the bucketed vertices inside `bounds` at
    /// any positions within `reach` of the anchors; the caller tests
    /// each against its region. A negative or NaN `reach` bounds
    /// nothing and visits every cell.
    pub fn runs(&self, bounds: &Aabb, reach: f32) -> impl Iterator<Item = &[VertexId]> + '_ {
        let reach = if reach >= 0.0 { reach } else { f32::INFINITY };
        let (mut lo, mut hi) = ([0usize; 3], [0usize; 3]);
        for axis in 0..3 {
            let (min, max) = Self::dilate(bounds.min[axis], bounds.max[axis], reach);
            lo[axis] = self.cell_of(axis, min) as usize;
            hi[axis] = self.cell_of(axis, max) as usize;
        }
        let [nx, ny, _] = self.dims.map(|d| d as usize);
        (lo[2]..=hi[2])
            .flat_map(move |z| (lo[1]..=hi[1]).map(move |y| (z * ny + y) * nx))
            .filter_map(move |row| {
                // An inverted box (lo > hi on x) is an empty range.
                let from = self.starts[row + lo[0]] as usize;
                let to = self.starts[row + hi[0] + 1] as usize;
                (from < to).then(|| &self.cell_ids[from..to])
            })
    }

    /// Whether component `label` can hold a vertex inside `bounds` at
    /// any positions within `reach` of the anchors: its anchor box
    /// intersects `bounds` dilated as [`SurfaceGrid::runs`] dilates it
    /// (the module docs give the argument and its premise). `false` is
    /// a proof — the walk into the component can be skipped — `true`
    /// promises nothing. A label no id carries is never in reach; a
    /// label the grid was not built with, and any `reach` that is not a
    /// finite non-negative number (which bounds nothing), always are.
    /// Bounds with a NaN corner, [`Aabb::EMPTY`] among them, contain no
    /// point and are in reach of nothing; a finite inverted box may
    /// pass, and the walk then finds what the box holds: nothing.
    #[inline]
    pub fn component_in_reach(&self, label: usize, bounds: &Aabb, reach: f32) -> bool {
        let Some([lo, hi]) = self.component_bounds.get(label) else {
            return true;
        };
        if !(0.0..f32::INFINITY).contains(&reach) {
            return true;
        }
        (0..3).all(|axis| {
            let (min, max) = Self::dilate(bounds.min[axis], bounds.max[axis], reach);
            lo[axis] <= max && hi[axis] >= min
        })
    }

    /// Heap bytes: both id orders, anchors, cell offsets and component
    /// boxes.
    pub fn memory_bytes(&self) -> usize {
        (self.ids.capacity() + self.cell_ids.capacity()) * std::mem::size_of::<VertexId>()
            + self.anchors.capacity() * std::mem::size_of::<Point3>()
            + self.starts.capacity() * std::mem::size_of::<u32>()
            + self.component_bounds.capacity() * std::mem::size_of::<[[f32; 3]; 2]>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lattice(n: usize) -> Vec<Point3> {
        let mut points = Vec::new();
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    points.push(Point3::new(x as f32, y as f32, z as f32));
                }
            }
        }
        points
    }

    /// A grid over `ids` with every vertex in component 0.
    fn one_component(ids: &[VertexId], points: &[Point3], cell: f32) -> SurfaceGrid {
        SurfaceGrid::build(ids, points, &vec![0; points.len()], 1, cell)
    }

    fn candidates(grid: &SurfaceGrid, q: &Aabb, reach: f32) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = grid.runs(q, reach).flatten().copied().collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn every_id_lands_in_exactly_one_cell_with_its_anchor() {
        let points = lattice(5);
        let ids: Vec<VertexId> = (0..points.len() as VertexId).rev().collect();
        let grid = one_component(&ids, &points, 1.5);
        assert_eq!(grid.len(), ids.len());
        assert_eq!(*grid.starts.last().unwrap() as usize, ids.len());
        for (&v, a) in grid.ids.iter().zip(&grid.anchors) {
            assert_eq!(*a, points[v as usize]);
        }
        for c in 0..grid.starts.len() - 1 {
            let run = &grid.cell_ids[grid.starts[c] as usize..grid.starts[c + 1] as usize];
            assert!(run
                .iter()
                .all(|&v| grid.cell_index(points[v as usize]) as usize == c));
        }
        let mut all = grid.cell_ids.clone();
        all.sort_unstable();
        assert_eq!(all, (0..points.len() as VertexId).collect::<Vec<_>>());
        assert_eq!(grid.reach(&points), 0.0);
    }

    #[test]
    fn runs_cover_the_dilated_box_and_little_else() {
        let points = lattice(8);
        let ids: Vec<VertexId> = (0..points.len() as VertexId).collect();
        let grid = one_component(&ids, &points, 2.0);
        let q = Aabb::new(Point3::splat(2.0), Point3::splat(3.0));
        let inside = |q: &Aabb| -> Vec<VertexId> {
            ids.iter()
                .copied()
                .filter(|&v| q.contains(points[v as usize]))
                .collect()
        };
        for reach in [0.0, 0.5, 2.0, 100.0] {
            let got = candidates(&grid, &q, reach);
            let must = inside(&q.dilated(reach));
            assert!(must.iter().all(|v| got.binary_search(v).is_ok()), "{reach}");
        }
        // A face exactly on a cell boundary takes the cell below too
        // (the ulp padding); a box strictly inside one cell takes one.
        assert_eq!(candidates(&grid, &q, 0.0).len(), 64);
        let inner = Aabb::new(Point3::splat(2.5), Point3::splat(3.5));
        assert_eq!(candidates(&grid, &inner, 0.0).len(), 8);
        assert_eq!(candidates(&grid, &q, f32::NAN).len(), ids.len());
        assert_eq!(candidates(&grid, &q, -1.0).len(), ids.len());
        assert!(candidates(&grid, &Aabb::EMPTY, 0.0).len() <= 8);
    }

    #[test]
    fn the_cell_budget_bounds_degenerate_geometry() {
        let points: Vec<Point3> = (0..100).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect();
        let ids: Vec<VertexId> = (0..100).collect();
        let grid = one_component(&ids, &points, f32::MIN_POSITIVE);
        assert!(grid.starts.len() <= 4 * 100 + 65);
        assert!(grid.cell() > f32::MIN_POSITIVE);
        let q = Aabb::new(Point3::new(9.5, -1.0, -1.0), Point3::new(20.5, 1.0, 1.0));
        let got = candidates(&grid, &q, 0.0);
        assert!((10..=20).all(|v| got.binary_search(&v).is_ok()));
        for bad in [0.0, -3.0, f32::NAN, f32::INFINITY] {
            assert_eq!(one_component(&ids, &points, bad).cell(), 1.0);
        }
        let empty = one_component(&[], &points, 1.0);
        assert!(empty.is_empty());
        assert_eq!(empty.reach(&points), 0.0);
        assert!(candidates(&empty, &q, 5.0).is_empty());
    }

    #[test]
    fn reach_is_the_largest_axis_displacement_and_saturates() {
        let mut points = lattice(3);
        let ids: Vec<VertexId> = (0..points.len() as VertexId).collect();
        let grid = one_component(&ids, &points, 1.0);
        points[4].y -= 0.25;
        points[20].z += 0.75;
        assert_eq!(grid.reach(&points), 0.75);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut poisoned = points.clone();
            poisoned[7].x = bad;
            assert_eq!(grid.reach(&poisoned), f32::INFINITY);
            // A non-finite anchor never bounds anything either.
            let at_build = one_component(&ids, &poisoned, 1.0);
            assert_eq!(at_build.len(), ids.len());
            assert_eq!(at_build.reach(&points), f32::INFINITY);
        }
    }

    /// The structure [`SurfaceGrid::build`] leaves: every id in exactly
    /// one cell, the one its anchor maps to, starts ascending to the
    /// id count.
    fn assert_well_filed(grid: &SurfaceGrid) {
        assert_eq!(grid.ids.len(), grid.anchors.len());
        assert_eq!(*grid.starts.last().unwrap() as usize, grid.ids.len());
        assert!(grid.starts.windows(2).all(|w| w[0] <= w[1]));
        let mut filed = Vec::new();
        for c in 0..grid.starts.len() - 1 {
            let run = &grid.cell_ids[grid.starts[c] as usize..grid.starts[c + 1] as usize];
            filed.extend(run.iter().map(|&v| (v, c as u32)));
        }
        filed.sort_unstable();
        let mut want: Vec<(VertexId, u32)> = grid
            .ids
            .iter()
            .zip(&grid.anchors)
            .map(|(&v, &a)| (v, grid.cell_index(a)))
            .collect();
        want.sort_unstable();
        assert_eq!(filed, want);
        assert!(
            want.windows(2).all(|w| w[0].0 < w[1].0),
            "an id filed twice"
        );
    }

    #[test]
    fn a_patch_files_like_a_build_and_keeps_the_frame() {
        let mut points = lattice(6);
        let ids: Vec<VertexId> = (0..100).rev().collect();
        let grid = one_component(&ids, &points, 1.5);
        // Drop the first id, the last, and every id of cell 0 (the
        // corner 2³ of the lattice); add ids inside the frame and three
        // outside it, one of them not finite.
        let removed = [99, 0, 1, 6, 7, 36, 37, 42, 43, 57, 58];
        points[150] = Point3::new(-7.0, 2.0, 40.0);
        points[151] = Point3::new(f32::NAN, 1.0, 1.0);
        let added = [150, 100, 151, 215, 101, 200];
        let labels = vec![0; points.len()];
        let patched = grid.patched(&removed, &added, &points, &labels, 1);
        assert_well_filed(&patched);
        assert_eq!(
            (patched.origin, patched.cell, patched.dims),
            (grid.origin, grid.cell, grid.dims)
        );
        let mut held = patched.ids.clone();
        held.sort_unstable();
        let mut want: Vec<VertexId> = ids
            .iter()
            .copied()
            .filter(|v| !removed.contains(v))
            .chain(added)
            .collect();
        want.sort_unstable();
        assert_eq!(held, want);
        assert_eq!(&patched.ids[patched.len() - added.len()..], &added);
        // Kept ids kept their anchors; an added one is anchored now, or
        // at the origin when it has no finite position: the reach is
        // unbounded while it lasts, and bounded once it is finite.
        for (&v, &a) in patched.ids.iter().zip(&patched.anchors) {
            let want = if v == 151 {
                grid.origin
            } else {
                points[v as usize]
            };
            assert_eq!(a, want, "{v}");
        }
        assert_eq!(patched.reach(&points), f32::INFINITY);
        points[151] = Point3::new(1.0, 1.0, 1.0);
        assert_eq!(patched.reach(&points), 1.0);
        // The frame did not grow, but the far anchor is a candidate of
        // a box around it, and the component bound covers it.
        let far = Aabb::cube(points[150], 0.5);
        assert!(candidates(&patched, &far, 0.0).contains(&150));
        assert!(patched.component_in_reach(0, &far, 0.0));
        assert!(!grid.component_in_reach(0, &far, 0.0));
        // Nothing in, nothing out: a patch with no edits is the grid.
        let same = grid.patched(&[], &[], &points, &labels, 1);
        assert_eq!(
            (&same.starts, &same.cell_ids),
            (&grid.starts, &grid.cell_ids)
        );
        // Relabelled bounds: the ids above 50 as a component of their
        // own.
        let split: Vec<u32> = (0..points.len() as u32)
            .map(|v| u32::from(v > 50))
            .collect();
        let relabelled = grid.patched(&[], &[], &points, &split, 3);
        assert_eq!(relabelled.component_bounds[0][1][2], 1.0);
        assert_eq!(relabelled.component_bounds[1][0][2], 1.0);
        assert!(relabelled.component_bounds[2][0][0].is_nan());
    }

    /// Two slabs of a lattice as components 0 and 2; label 1 is carried
    /// by no id (an orphaned vertex's label).
    fn two_slabs() -> (Vec<Point3>, Vec<u32>, SurfaceGrid) {
        let points = lattice(6);
        let labels: Vec<u32> = points
            .iter()
            .map(|p| if p.x < 3.0 { 0 } else { 2 })
            .collect();
        let ids: Vec<VertexId> = (0..points.len() as VertexId).rev().collect();
        let grid = SurfaceGrid::build(&ids, &points, &labels, 3, 1.5);
        (points, labels, grid)
    }

    #[test]
    fn each_label_is_bounded_by_exactly_its_anchors() {
        let (points, labels, grid) = two_slabs();
        for label in [0u32, 2] {
            let [lo, hi] = grid.component_bounds[label as usize];
            let want = Aabb::from_points(
                points
                    .iter()
                    .zip(&labels)
                    .filter(|(_, &l)| l == label)
                    .map(|(p, _)| *p),
            );
            assert_eq!(Point3::new(lo[0], lo[1], lo[2]), want.min, "label {label}");
            assert_eq!(Point3::new(hi[0], hi[1], hi[2]), want.max, "label {label}");
        }
        assert_eq!(grid.component_bounds[0][1][0], 2.0);
        assert_eq!(grid.component_bounds[2][0][0], 3.0);
        // The frame is still the box of all anchors.
        assert_eq!(grid.origin, Point3::ORIGIN);
        assert_eq!(grid.memory_bytes(), {
            let per_id = 2 * std::mem::size_of::<VertexId>() + std::mem::size_of::<Point3>();
            grid.len() * per_id + grid.starts.capacity() * 4 + 3 * 24
        });
    }

    #[test]
    fn the_bound_is_closed_at_the_dilated_face_and_open_one_pad_beyond() {
        let (_, _, grid) = two_slabs();
        let slab =
            |lo: f32, hi: f32| Aabb::new(Point3::new(lo, 1.0, 1.0), Point3::new(hi, 4.0, 4.0));
        // Component 0 ends at x = 2, component 2 starts at x = 3.
        for reach in [0.0f32, 0.5] {
            let on_the_face = slab(2.0 + reach, 2.25 + reach);
            assert!(grid.component_in_reach(0, &on_the_face, reach), "{reach}");
            let pad = 4.0 * f32::EPSILON * (2.25 + 2.0 * reach);
            let beyond = slab(2.0 + reach + 2.0 * pad, 2.25 + reach);
            assert!(beyond.min.x > on_the_face.min.x, "premise: a real step");
            assert!(!grid.component_in_reach(0, &beyond, reach), "{reach}");
            // And from the other side, against component 2's low face.
            let below = slab(2.5 - reach, 3.0 - reach);
            assert!(grid.component_in_reach(2, &below, reach), "{reach}");
            let short = slab(2.5 - reach, 3.0 - reach - 2.0 * pad);
            assert!(!grid.component_in_reach(2, &short, reach), "{reach}");
        }
        // A box in the gap reaches neither, one across it both; y and z
        // bound like x.
        for (q, reached) in [(slab(2.25, 2.75), false), (slab(1.5, 3.5), true)] {
            assert_eq!(grid.component_in_reach(0, &q, 0.0), reached);
            assert_eq!(grid.component_in_reach(2, &q, 0.0), reached);
        }
        let above = Aabb::new(Point3::new(0.0, 5.5, 0.0), Point3::new(5.0, 6.0, 5.0));
        assert!(!grid.component_in_reach(0, &above, 0.25));
        assert!(grid.component_in_reach(0, &above, 0.5));
    }

    /// `the_dilation_is_padded_for_f32_rounding` of the property suite,
    /// for the bound: the vertex moved from 0.99999 to exactly 1000 has
    /// a reach that rounds down to 999, and `1000 − 999 = 1` lies above
    /// its component's anchor box. The padding keeps the component in.
    #[test]
    fn the_bound_is_padded_for_f32_rounding() {
        let at = |x: f32| Point3::new(x, 0.0, 0.0);
        let anchors = [at(0.0), at(0.99999), at(3.0)];
        let grid = SurfaceGrid::build(&[0, 1, 2], &anchors, &[0, 1, 0], 2, 1.0);
        let reach = grid.reach(&[at(0.0), at(1000.0), at(3.0)]);
        assert_eq!(reach, 999.0, "premise: the true distance is 999.00001");
        let q = Aabb::new(
            Point3::new(1000.0, -1.0, -1.0),
            Point3::new(1001.0, 1.0, 1.0),
        );
        assert!(
            q.min.x - reach > anchors[1].x,
            "premise: unpadded, it is out"
        );
        assert!(grid.component_in_reach(1, &q, reach));
    }

    #[test]
    fn what_the_bound_does_not_know_it_does_not_prune() {
        let (_, _, grid) = two_slabs();
        let far = Aabb::cube(Point3::splat(40.0), 1.0);
        let universe = Aabb::new(
            Point3::splat(f32::NEG_INFINITY),
            Point3::splat(f32::INFINITY),
        );
        assert!(!grid.component_in_reach(0, &far, 0.0));
        assert!(!grid.component_in_reach(0, &far, 30.0));
        assert!(grid.component_in_reach(0, &far, 40.0));
        // A reach that is no bound prunes nothing, as in `runs`.
        for reach in [-1.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for label in 0..4 {
                assert!(
                    grid.component_in_reach(label, &far, reach),
                    "{label} at {reach}"
                );
            }
        }
        // A label no id carries is in reach of nothing, not even of
        // everything; a label the grid never heard of is not bounded.
        for q in [far, universe, Aabb::cube(Point3::splat(2.5), 9.0)] {
            assert!(!grid.component_in_reach(1, &q, 0.0), "{q:?}");
            assert!(!grid.component_in_reach(1, &q, 1.0e6), "{q:?}");
            assert!(grid.component_in_reach(3, &q, 0.0), "{q:?}");
        }
        assert!(grid.component_in_reach(0, &universe, 0.0));
        assert!(grid.component_in_reach(2, &universe, 0.5));
        // Boxes that contain no point: `EMPTY` (NaN once dilated) is in
        // reach of nothing, as it visits at most a corner cell in
        // `runs`; so is an inverted box away from the component (one
        // inside it may pass — whatever is walked for it finds
        // nothing).
        for label in 0..3 {
            assert!(!grid.component_in_reach(label, &Aabb::EMPTY, 0.0));
            assert!(!grid.component_in_reach(label, &Aabb::EMPTY, 7.0));
        }
        let inverted = Aabb {
            min: Point3::splat(40.0),
            max: Point3::splat(30.0),
        };
        assert!(!grid.component_in_reach(0, &inverted, 0.0));
        // An empty grid bounds every label it was given by nothing.
        let empty = SurfaceGrid::build(&[], &[], &[], 2, 1.0);
        assert!(!empty.component_in_reach(0, &universe, 0.0));
        assert!(!empty.component_in_reach(1, &universe, 0.0));
    }
}
