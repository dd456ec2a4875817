//! LU-Grid: update-tolerant grid indexing (Xiong, Mokbel, Aref \[25\]).
//!
//! "The LU-Grid … reduce\[s\] the update cost by avoiding expensive index
//! maintenance if the change in location of the updated object is very
//! low" (§II-A). The disk-era design defers the expensive half of an
//! update: when an object moves to a new grid cell, it is inserted there
//! immediately (queries must see fresh data) but the *deletion* from the
//! old cell is lazy — the stale entry is left behind and invalidated on
//! the fly, using a per-object current-cell table as the source of
//! truth. Cells are compacted when their stale fraction grows.
//!
//! In-memory this saves the random write to the old cell's vector on the
//! update path at the cost of filtering stale entries during queries —
//! the same update/query trade the paper's grace-window discussion
//! covers.

use crate::DynamicIndex;
use octopus_geom::{Aabb, Point3, VertexId};

/// Fraction of stale entries that triggers a cell compaction.
const COMPACT_THRESHOLD: f32 = 0.5;

/// An update-tolerant uniform grid with lazy deletion.
#[derive(Clone, Debug)]
pub struct LuGrid {
    res: usize,
    bounds: Aabb,
    /// Per-cell entry lists; entries may be stale (see `current_cell`).
    cells: Vec<Vec<VertexId>>,
    /// Per-cell count of stale entries (compaction heuristic).
    stale: Vec<u32>,
    /// Source of truth: the cell each object currently belongs to
    /// (`u32::MAX` = not indexed yet).
    current_cell: Vec<u32>,
    /// Statistics.
    lazy_updates: u64,
    hard_updates: u64,
    compactions: u64,
    initialized: bool,
}

impl LuGrid {
    /// Creates an index with `res³` cells over `bounds`.
    pub fn new(bounds: &Aabb, res: usize) -> LuGrid {
        assert!(res >= 1, "grid resolution must be at least 1");
        LuGrid {
            res,
            bounds: *bounds,
            cells: vec![Vec::new(); res * res * res],
            stale: vec![0; res * res * res],
            current_cell: Vec::new(),
            lazy_updates: 0,
            hard_updates: 0,
            compactions: 0,
            initialized: false,
        }
    }

    fn cell_of(&self, p: &Point3) -> u32 {
        let r = self.res;
        let e = self.bounds.extent();
        let mut idx = [0usize; 3];
        for axis in 0..3 {
            let len = e[axis].max(f32::MIN_POSITIVE);
            let t = ((p[axis] - self.bounds.min[axis]) / len * r as f32).floor();
            idx[axis] = (t.max(0.0) as usize).min(r - 1);
        }
        (idx[0] + r * (idx[1] + r * idx[2])) as u32
    }

    /// Rebuilds from scratch (initial load or population change).
    pub fn build(&mut self, positions: &[Point3]) {
        for c in &mut self.cells {
            c.clear();
        }
        self.stale.fill(0);
        self.current_cell = vec![u32::MAX; positions.len()];
        for (i, p) in positions.iter().enumerate() {
            let c = self.cell_of(p);
            self.cells[c as usize].push(i as VertexId);
            self.current_cell[i] = c;
        }
        self.initialized = true;
    }

    /// Updates that stayed within their cell (no index work at all).
    pub fn lazy_update_count(&self) -> u64 {
        self.lazy_updates
    }

    /// Updates that inserted into a new cell (deletion deferred).
    pub fn hard_update_count(&self) -> u64 {
        self.hard_updates
    }

    /// Number of cell compactions performed.
    pub fn compaction_count(&self) -> u64 {
        self.compactions
    }

    /// Drops stale entries of cell `c` when they dominate.
    fn maybe_compact(&mut self, c: u32) {
        let len = self.cells[c as usize].len();
        if len >= 8 && self.stale[c as usize] as f32 >= COMPACT_THRESHOLD * len as f32 {
            let current = &self.current_cell;
            self.cells[c as usize].retain(|&id| current[id as usize] == c);
            self.stale[c as usize] = 0;
            self.compactions += 1;
        }
    }
}

impl DynamicIndex for LuGrid {
    fn name(&self) -> &'static str {
        "LU-Grid"
    }

    fn on_step(&mut self, positions: &[Point3]) {
        if !self.initialized || self.current_cell.len() != positions.len() {
            self.build(positions);
            return;
        }
        for (i, p) in positions.iter().enumerate() {
            let new_cell = self.cell_of(p);
            let old_cell = self.current_cell[i];
            if new_cell == old_cell {
                self.lazy_updates += 1;
                continue;
            }
            // Eager insert, lazy delete: the old cell keeps a stale entry
            // that queries invalidate against `current_cell`. Returning
            // to a cell that still holds this object's stale entry must
            // *revalidate* it instead of inserting a duplicate.
            self.hard_updates += 1;
            if self.cells[new_cell as usize].contains(&(i as VertexId)) {
                self.stale[new_cell as usize] = self.stale[new_cell as usize].saturating_sub(1);
            } else {
                self.cells[new_cell as usize].push(i as VertexId);
            }
            self.current_cell[i] = new_cell;
            self.stale[old_cell as usize] += 1;
            self.maybe_compact(old_cell);
        }
    }

    fn query(&self, q: &Aabb, positions: &[Point3], out: &mut Vec<VertexId>) {
        let r = self.res;
        let e = self.bounds.extent();
        let mut lo = [0usize; 3];
        let mut hi = [0usize; 3];
        for axis in 0..3 {
            let len = e[axis].max(f32::MIN_POSITIVE);
            let t0 = ((q.min[axis] - self.bounds.min[axis]) / len * r as f32).floor();
            let t1 = ((q.max[axis] - self.bounds.min[axis]) / len * r as f32).floor();
            lo[axis] = (t0.max(0.0) as usize).min(r - 1);
            hi[axis] = (t1.max(0.0) as usize).min(r - 1);
        }
        for z in lo[2]..=hi[2] {
            for y in lo[1]..=hi[1] {
                for x in lo[0]..=hi[0] {
                    let c = (x + r * (y + r * z)) as u32;
                    for &id in &self.cells[c as usize] {
                        // Stale-entry invalidation + containment test.
                        if self.current_cell[id as usize] == c && q.contains(positions[id as usize])
                        {
                            out.push(id);
                        }
                    }
                }
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        let mut total = self.cells.capacity() * std::mem::size_of::<Vec<VertexId>>()
            + self.stale.capacity() * std::mem::size_of::<u32>()
            + self.current_cell.capacity() * std::mem::size_of::<u32>();
        for c in &self.cells {
            total += c.capacity() * std::mem::size_of::<VertexId>();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::*;
    use octopus_geom::rng::SplitMix64;

    fn unit_bounds() -> Aabb {
        Aabb::new(Point3::ORIGIN, Point3::splat(1.0))
    }

    #[test]
    fn exact_after_motion_with_stale_entries() {
        let mut pts = random_points(1_200, 61);
        let mut g = LuGrid::new(&unit_bounds(), 8);
        g.on_step(&pts);
        let mut rng = SplitMix64::new(20);
        for step in 0..8 {
            jitter_all(&mut pts, 0.08, 800 + step);
            g.on_step(&pts);
            for qi in 0..8 {
                let q = random_query(&mut rng, 0.15);
                let mut out = Vec::new();
                g.query(&q, &pts, &mut out);
                assert_same_ids(out, &scan(&q, &pts), &format!("step {step} q{qi}"));
            }
        }
        assert!(g.hard_update_count() > 0, "motion must cross cells");
        assert!(g.lazy_update_count() > 0, "some updates stay in-cell");
    }

    #[test]
    fn small_motion_is_mostly_lazy() {
        let mut pts = random_points(500, 62);
        let mut g = LuGrid::new(&unit_bounds(), 4);
        g.on_step(&pts);
        jitter_all(&mut pts, 0.001, 7);
        g.on_step(&pts);
        assert!(g.lazy_update_count() > 10 * g.hard_update_count().max(1));
    }

    #[test]
    fn compaction_eventually_fires_and_preserves_results() {
        let mut pts = random_points(400, 63);
        let mut g = LuGrid::new(&unit_bounds(), 3);
        g.on_step(&pts);
        let mut rng = SplitMix64::new(21);
        for step in 0..30 {
            jitter_all(&mut pts, 0.25, 900 + step); // violent motion
            g.on_step(&pts);
        }
        assert!(
            g.compaction_count() > 0,
            "violent motion must trigger compactions"
        );
        let q = random_query(&mut rng, 0.3);
        let mut out = Vec::new();
        g.query(&q, &pts, &mut out);
        assert_same_ids(out, &scan(&q, &pts), "after compactions");
    }

    #[test]
    fn rebuilds_on_population_change() {
        let mut g = LuGrid::new(&unit_bounds(), 4);
        g.on_step(&random_points(50, 64));
        let more = random_points(80, 65);
        g.on_step(&more);
        let q = unit_bounds();
        let mut out = Vec::new();
        g.query(&q, &more, &mut out);
        assert_eq!(out.len(), 80);
    }

    #[test]
    fn memory_accounting_positive() {
        let mut g = LuGrid::new(&unit_bounds(), 6);
        g.on_step(&random_points(300, 66));
        assert!(g.memory_bytes() > 300 * 4);
    }
}
