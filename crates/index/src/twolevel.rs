//! Adaptive two-level hashing for moving objects (Kwon, Lee, Choi,
//! Lee \[12\]).
//!
//! "The adaptive two-level hashing approach classifies objects according
//! to their speed of movement. Slow moving objects are indexed with a
//! fine-grained grid whereas it uses a coarse-grained grid for fast
//! objects. The index only needs to be updated once the object moves out
//! of the grid cell. Queries retrieve all grid cells intersecting with
//! the query and filter the objects that intersect with the grid cell
//! but not the query" (§II-A).
//!
//! Speed classification is adaptive: an object that keeps escaping its
//! fine cell is promoted to the coarse level (fewer, cheaper updates,
//! more query filtering); a coarse object that stays put for long is
//! demoted back. Both levels share the lazy-deletion machinery of a
//! cell-anchored design: work only happens on cell escapes.

use crate::DynamicIndex;
use octopus_geom::{Aabb, Point3, VertexId};

/// Escapes within the observation window that promote an object to the
/// coarse level.
const PROMOTE_ESCAPES: u8 = 3;
/// Quiet steps that demote a coarse object back to the fine level.
const DEMOTE_QUIET_STEPS: u8 = 16;

/// One uniform grid level (cell-anchored, eager insert / eager delete —
/// in memory a swap-remove delete is cheap enough).
#[derive(Clone, Debug)]
struct Level {
    res: usize,
    cells: Vec<Vec<VertexId>>,
}

impl Level {
    fn new(res: usize) -> Level {
        Level {
            res,
            cells: vec![Vec::new(); res * res * res],
        }
    }

    fn cell_of(&self, p: &Point3, bounds: &Aabb) -> u32 {
        let r = self.res;
        let e = bounds.extent();
        let mut idx = [0usize; 3];
        for axis in 0..3 {
            let len = e[axis].max(f32::MIN_POSITIVE);
            let t = ((p[axis] - bounds.min[axis]) / len * r as f32).floor();
            idx[axis] = (t.max(0.0) as usize).min(r - 1);
        }
        (idx[0] + r * (idx[1] + r * idx[2])) as u32
    }

    fn insert(&mut self, cell: u32, id: VertexId) {
        self.cells[cell as usize].push(id);
    }

    fn remove(&mut self, cell: u32, id: VertexId) {
        let v = &mut self.cells[cell as usize];
        if let Some(pos) = v.iter().position(|&x| x == id) {
            v.swap_remove(pos);
        }
    }

    fn query_cells(&self, q: &Aabb, bounds: &Aabb) -> ([usize; 3], [usize; 3]) {
        let r = self.res;
        let e = bounds.extent();
        let mut lo = [0usize; 3];
        let mut hi = [0usize; 3];
        for axis in 0..3 {
            let len = e[axis].max(f32::MIN_POSITIVE);
            let t0 = ((q.min[axis] - bounds.min[axis]) / len * r as f32).floor();
            let t1 = ((q.max[axis] - bounds.min[axis]) / len * r as f32).floor();
            lo[axis] = (t0.max(0.0) as usize).min(r - 1);
            hi[axis] = (t1.max(0.0) as usize).min(r - 1);
        }
        (lo, hi)
    }

    fn memory_bytes(&self) -> usize {
        self.cells.capacity() * std::mem::size_of::<Vec<VertexId>>()
            + self.cells.iter().map(|c| c.capacity() * 4).sum::<usize>()
    }
}

/// Per-object bookkeeping.
#[derive(Clone, Copy, Debug)]
struct ObjectState {
    /// Current cell in the object's level.
    cell: u32,
    /// True when indexed in the coarse level.
    coarse: bool,
    /// Recent escape count (promotion signal).
    escapes: u8,
    /// Consecutive quiet steps (demotion signal).
    quiet: u8,
}

/// The adaptive two-level hash index.
#[derive(Clone, Debug)]
pub struct TwoLevelHash {
    bounds: Aabb,
    fine: Level,
    coarse: Level,
    objects: Vec<ObjectState>,
    promotions: u64,
    demotions: u64,
    initialized: bool,
}

impl TwoLevelHash {
    /// Creates the index over `bounds` with the given per-axis grid
    /// resolutions (`fine_res > coarse_res`).
    pub fn new(bounds: &Aabb, fine_res: usize, coarse_res: usize) -> TwoLevelHash {
        assert!(
            fine_res > coarse_res && coarse_res >= 1,
            "fine resolution must exceed coarse"
        );
        TwoLevelHash {
            bounds: *bounds,
            fine: Level::new(fine_res),
            coarse: Level::new(coarse_res),
            objects: Vec::new(),
            promotions: 0,
            demotions: 0,
            initialized: false,
        }
    }

    /// Loads all objects into the fine level (everything starts "slow").
    pub fn build(&mut self, positions: &[Point3]) {
        for c in &mut self.fine.cells {
            c.clear();
        }
        for c in &mut self.coarse.cells {
            c.clear();
        }
        self.objects = positions
            .iter()
            .map(|p| ObjectState {
                cell: self.fine.cell_of(p, &self.bounds),
                coarse: false,
                escapes: 0,
                quiet: 0,
            })
            .collect();
        for (i, o) in self.objects.iter().enumerate() {
            self.fine.cells[o.cell as usize].push(i as VertexId);
        }
        self.initialized = true;
    }

    /// Objects promoted to the coarse (fast) level so far.
    pub fn promotion_count(&self) -> u64 {
        self.promotions
    }

    /// Objects demoted back to the fine (slow) level so far.
    pub fn demotion_count(&self) -> u64 {
        self.demotions
    }

    /// Number of objects currently classified as fast.
    pub fn fast_object_count(&self) -> usize {
        self.objects.iter().filter(|o| o.coarse).count()
    }
}

impl DynamicIndex for TwoLevelHash {
    fn name(&self) -> &'static str {
        "TwoLevelHash"
    }

    fn on_step(&mut self, positions: &[Point3]) {
        if !self.initialized || self.objects.len() != positions.len() {
            self.build(positions);
            return;
        }
        for (i, p) in positions.iter().enumerate() {
            let id = i as VertexId;
            let o = self.objects[i];
            let level = if o.coarse { &self.coarse } else { &self.fine };
            let new_cell = level.cell_of(p, &self.bounds);
            if new_cell == o.cell {
                // In-cell: no index work. Track quiescence for demotion.
                let o = &mut self.objects[i];
                if o.coarse {
                    o.quiet = o.quiet.saturating_add(1);
                    if o.quiet >= DEMOTE_QUIET_STEPS {
                        // Demote: move into the fine level.
                        self.coarse.remove(o.cell, id);
                        let fine_cell = self.fine.cell_of(p, &self.bounds);
                        self.fine.insert(fine_cell, id);
                        *o = ObjectState {
                            cell: fine_cell,
                            coarse: false,
                            escapes: 0,
                            quiet: 0,
                        };
                        self.demotions += 1;
                    }
                } else {
                    o.escapes = o.escapes.saturating_sub(1).min(o.escapes); // decay
                }
                continue;
            }
            // Escape: relocate within the level, maybe promote.
            if o.coarse {
                self.coarse.remove(o.cell, id);
                self.coarse.insert(new_cell, id);
                let o = &mut self.objects[i];
                o.cell = new_cell;
                o.quiet = 0;
            } else {
                self.fine.remove(o.cell, id);
                let escapes = o.escapes + 1;
                if escapes >= PROMOTE_ESCAPES {
                    // Promote: this object is fast; coarse cells absorb
                    // its motion with far fewer relocations.
                    let coarse_cell = self.coarse.cell_of(p, &self.bounds);
                    self.coarse.insert(coarse_cell, id);
                    self.objects[i] = ObjectState {
                        cell: coarse_cell,
                        coarse: true,
                        escapes: 0,
                        quiet: 0,
                    };
                    self.promotions += 1;
                } else {
                    self.fine.insert(new_cell, id);
                    self.objects[i] = ObjectState {
                        cell: new_cell,
                        coarse: false,
                        escapes,
                        quiet: 0,
                    };
                }
            }
        }
    }

    fn query(&self, q: &Aabb, positions: &[Point3], out: &mut Vec<VertexId>) {
        for level in [&self.fine, &self.coarse] {
            let (lo, hi) = level.query_cells(q, &self.bounds);
            let r = level.res;
            for z in lo[2]..=hi[2] {
                for y in lo[1]..=hi[1] {
                    for x in lo[0]..=hi[0] {
                        for &id in &level.cells[x + r * (y + r * z)] {
                            if q.contains(positions[id as usize]) {
                                out.push(id);
                            }
                        }
                    }
                }
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        self.fine.memory_bytes()
            + self.coarse.memory_bytes()
            + self.objects.capacity() * std::mem::size_of::<ObjectState>()
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
    fn exact_across_mixed_speed_motion() {
        let mut pts = random_points(1_000, 71);
        let mut idx = TwoLevelHash::new(&unit_bounds(), 12, 3);
        idx.on_step(&pts);
        let mut rng = SplitMix64::new(30);
        for step in 0..20 {
            // Half the objects move fast, half slowly.
            for (i, p) in pts.iter_mut().enumerate() {
                let mag = if i % 2 == 0 { 0.12 } else { 0.002 };
                p.x += rng.range_f32(-mag, mag);
                p.y += rng.range_f32(-mag, mag);
                p.z += rng.range_f32(-mag, mag);
            }
            idx.on_step(&pts);
            let q = random_query(&mut rng, 0.2);
            let mut out = Vec::new();
            idx.query(&q, &pts, &mut out);
            assert_same_ids(out, &scan(&q, &pts), &format!("step {step}"));
        }
        assert!(idx.promotion_count() > 0, "fast objects must get promoted");
        assert!(idx.fast_object_count() > 0);
    }

    #[test]
    fn stationary_objects_eventually_demote() {
        let mut pts = random_points(300, 72);
        let mut idx = TwoLevelHash::new(&unit_bounds(), 10, 2);
        idx.on_step(&pts);
        let mut rng = SplitMix64::new(31);
        // Violent phase: promote lots of objects.
        for step in 0..6 {
            jitter_all(&mut pts, 0.2, 100 + step);
            idx.on_step(&pts);
        }
        let promoted = idx.fast_object_count();
        assert!(promoted > 0);
        // Quiet phase: everything freezes → demotions.
        for _ in 0..(DEMOTE_QUIET_STEPS as usize + 2) {
            idx.on_step(&pts);
        }
        assert!(idx.demotion_count() > 0, "quiet objects must demote");
        assert!(idx.fast_object_count() < promoted);
        let q = random_query(&mut rng, 0.25);
        let mut out = Vec::new();
        idx.query(&q, &pts, &mut out);
        assert_same_ids(out, &scan(&q, &pts), "after demotions");
    }

    #[test]
    fn slow_motion_needs_no_relocations() {
        let mut pts = random_points(400, 73);
        let mut idx = TwoLevelHash::new(&unit_bounds(), 8, 2);
        idx.on_step(&pts);
        jitter_all(&mut pts, 0.0005, 5);
        idx.on_step(&pts);
        assert_eq!(idx.promotion_count(), 0);
        let q = Aabb::cube(Point3::splat(0.5), 0.3);
        let mut out = Vec::new();
        idx.query(&q, &pts, &mut out);
        assert_same_ids(out, &scan(&q, &pts), "slow motion");
    }

    #[test]
    #[should_panic(expected = "fine resolution must exceed coarse")]
    fn resolution_ordering_enforced() {
        TwoLevelHash::new(&unit_bounds(), 2, 4);
    }

    #[test]
    fn memory_accounting_positive() {
        let mut idx = TwoLevelHash::new(&unit_bounds(), 8, 2);
        idx.on_step(&random_points(200, 74));
        assert!(idx.memory_bytes() > 0);
    }
}
