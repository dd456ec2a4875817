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
//! ([`SurfaceGrid::reach`], one O(S) pass per snapshot).
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
//! The grid holds ids and positions but no connectivity: whoever owns an
//! executor's [`crate::SurfaceIndex`] builds the grid from its ids and
//! rebuilds it when the ids change ([`SurfaceGrid::build`] is one
//! gather and two sequential passes over S; nothing is patched).

use octopus_geom::mem::gather;
use octopus_geom::{Aabb, Point3, VertexId};

/// The surface ids bucketed into a uniform grid by their build-time
/// positions (see the module docs). 20 bytes per surface vertex plus 4
/// per cell.
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
    /// The ids in the order they were given — the surface index's probe
    /// order, which follows the memory layout — each with its
    /// build-time position. This is what [`SurfaceGrid::reach`] walks:
    /// in cell order the same pass jumps through the position array and
    /// costs five full probes instead of one.
    ids: Vec<VertexId>,
    anchors: Vec<Point3>,
}

impl SurfaceGrid {
    /// Buckets `ids` by `positions[id]` into cells of edge `cell`.
    ///
    /// The cell edge only steers cost (a non-positive or non-finite one
    /// is replaced by 1), and it is doubled until the grid has at most
    /// `4·|ids| + 64` cells, so degenerate geometry (a flat sheet, a
    /// vanishing typical edge) cannot allocate more offsets than ids. A
    /// vertex whose position is not finite is kept like any other —
    /// every id is in exactly one cell, wherever the clamped cell
    /// expression sends it — and [`SurfaceGrid::reach`] reports the
    /// snapshot as unbounded.
    pub fn build(ids: &[VertexId], positions: &[Point3], cell: f32) -> SurfaceGrid {
        let anchors: Vec<Point3> = ids.iter().map(|&v| positions[v as usize]).collect();
        // Comparisons, not `f32::min`: they skip NaN just the same and
        // cost a third. An infinite anchor makes an infinite frame,
        // which the loop below folds into one cell.
        let (mut lo, mut hi) = ([f32::INFINITY; 3], [f32::NEG_INFINITY; 3]);
        for a in &anchors {
            for (axis, x) in [a.x, a.y, a.z].into_iter().enumerate() {
                if x < lo[axis] {
                    lo[axis] = x;
                }
                if x > hi[axis] {
                    hi[axis] = x;
                }
            }
        }
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
            let (min, max) = (bounds.min[axis], bounds.max[axis]);
            let pad = reach + 4.0 * f32::EPSILON * (min.abs().max(max.abs()) + reach);
            lo[axis] = self.cell_of(axis, min - pad) as usize;
            hi[axis] = self.cell_of(axis, max + pad) as usize;
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

    /// Heap bytes: both id orders, anchors and cell offsets.
    pub fn memory_bytes(&self) -> usize {
        (self.ids.capacity() + self.cell_ids.capacity()) * std::mem::size_of::<VertexId>()
            + self.anchors.capacity() * std::mem::size_of::<Point3>()
            + self.starts.capacity() * std::mem::size_of::<u32>()
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

    fn candidates(grid: &SurfaceGrid, q: &Aabb, reach: f32) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = grid.runs(q, reach).flatten().copied().collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn every_id_lands_in_exactly_one_cell_with_its_anchor() {
        let points = lattice(5);
        let ids: Vec<VertexId> = (0..points.len() as VertexId).rev().collect();
        let grid = SurfaceGrid::build(&ids, &points, 1.5);
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
        let grid = SurfaceGrid::build(&ids, &points, 2.0);
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
        let grid = SurfaceGrid::build(&ids, &points, f32::MIN_POSITIVE);
        assert!(grid.starts.len() <= 4 * 100 + 65);
        assert!(grid.cell() > f32::MIN_POSITIVE);
        let q = Aabb::new(Point3::new(9.5, -1.0, -1.0), Point3::new(20.5, 1.0, 1.0));
        let got = candidates(&grid, &q, 0.0);
        assert!((10..=20).all(|v| got.binary_search(&v).is_ok()));
        for bad in [0.0, -3.0, f32::NAN, f32::INFINITY] {
            assert_eq!(SurfaceGrid::build(&ids, &points, bad).cell(), 1.0);
        }
        let empty = SurfaceGrid::build(&[], &points, 1.0);
        assert!(empty.is_empty());
        assert_eq!(empty.reach(&points), 0.0);
        assert!(candidates(&empty, &q, 5.0).is_empty());
    }

    #[test]
    fn reach_is_the_largest_axis_displacement_and_saturates() {
        let mut points = lattice(3);
        let ids: Vec<VertexId> = (0..points.len() as VertexId).collect();
        let grid = SurfaceGrid::build(&ids, &points, 1.0);
        points[4].y -= 0.25;
        points[20].z += 0.75;
        assert_eq!(grid.reach(&points), 0.75);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut poisoned = points.clone();
            poisoned[7].x = bad;
            assert_eq!(grid.reach(&poisoned), f32::INFINITY);
            // A non-finite anchor never bounds anything either.
            let at_build = SurfaceGrid::build(&ids, &poisoned, 1.0);
            assert_eq!(at_build.len(), ids.len());
            assert_eq!(at_build.reach(&points), f32::INFINITY);
        }
    }
}
