//! QU-Trade: workload-aware grace-window indexing (Tzoumas et al. \[24\]).
//!
//! "Instead of indexing the moving objects, QU-Trade indexes a grace
//! window within which the objects are expected to move. The bigger the
//! grace window is, the fewer updates need to be made but also the more
//! irrelevant objects are retrieved by a query. By growing and shrinking
//! the grace window this technique provides a good, tunable compromise
//! between update and query intensive workloads" (§II-A).
//!
//! Each vertex is indexed by a cube of half-extent `w` centred on its
//! position at insertion time. A per-step update touches the R-tree only
//! when the vertex exits its window. Queries fetch candidate windows and
//! filter by live positions. Following the paper's tuning (§V-A), the
//! controller adapts `w` so that "fewer than 1 % of the location updates
//! trigger the costly R-Tree maintenance process".

use crate::rtree::{LeafEntry, RTree};
use crate::DynamicIndex;
use octopus_geom::{Aabb, Point3, VertexId};

/// Target fraction of updates allowed to trigger structural maintenance
/// (the paper tunes for < 1 %).
pub const TARGET_HARD_UPDATE_RATE: f64 = 0.01;

/// QU-Trade: R-tree of adaptive grace windows + live-position filter.
#[derive(Clone, Debug)]
pub struct QuTrade {
    tree: RTree,
    /// Half-extent used for newly (re)inserted windows.
    window: f32,
    /// Centre of each object's current window (to detect escapes).
    anchors: Vec<Point3>,
    /// Half-extent of each object's *stored* window. The controller may
    /// change [`QuTrade::window`] between reinsertion epochs, so the
    /// escape test must use the size the window was actually built with —
    /// otherwise a grown `window` would mark escaped objects as inside
    /// and queries would miss them.
    anchor_half: Vec<f32>,
    lazy_updates: u64,
    hard_updates: u64,
    initialized: bool,
}

impl QuTrade {
    /// Creates a QU-Trade index with the paper's fanout and an initial
    /// window guess that the controller adapts.
    pub fn new(initial_window: f32) -> QuTrade {
        QuTrade::with_fanout(crate::rtree::DEFAULT_FANOUT, initial_window)
    }

    /// Custom fanout variant.
    pub fn with_fanout(fanout: usize, initial_window: f32) -> QuTrade {
        assert!(initial_window > 0.0, "window must be positive");
        QuTrade {
            tree: RTree::with_fanout(fanout),
            window: initial_window,
            anchors: Vec::new(),
            anchor_half: Vec::new(),
            lazy_updates: 0,
            hard_updates: 0,
            initialized: false,
        }
    }

    /// Bulk-builds windows around the given positions.
    pub fn build(&mut self, positions: &[Point3]) {
        self.anchors = positions.to_vec();
        self.anchor_half = vec![self.window; positions.len()];
        let w = self.window;
        let entries = positions
            .iter()
            .enumerate()
            .map(|(i, p)| LeafEntry {
                id: i as VertexId,
                key: Aabb::cube(*p, w),
            })
            .collect();
        self.tree.bulk_load(entries);
        self.initialized = true;
    }

    /// Current grace-window half-extent.
    pub fn window(&self) -> f32 {
        self.window
    }

    /// Updates that stayed within their window.
    pub fn lazy_update_count(&self) -> u64 {
        self.lazy_updates
    }

    /// Updates that escaped and paid delete + reinsert.
    pub fn hard_update_count(&self) -> u64 {
        self.hard_updates
    }

    /// The underlying R-tree (tests).
    pub fn tree(&self) -> &RTree {
        &self.tree
    }

    /// Grow/shrink controller: called once per step with that step's
    /// escape rate. Escaping more than the target grows the window
    /// aggressively (updates are the expensive side); escaping much less
    /// shrinks it gently to claw back query precision.
    fn adapt_window(&mut self, hard_rate: f64) {
        if hard_rate > TARGET_HARD_UPDATE_RATE {
            self.window *= 1.5;
        } else if hard_rate < TARGET_HARD_UPDATE_RATE / 4.0 {
            self.window *= 0.95;
        }
    }
}

impl DynamicIndex for QuTrade {
    fn name(&self) -> &'static str {
        "QU-Trade"
    }

    fn on_step(&mut self, positions: &[Point3]) {
        if !self.initialized || self.anchors.len() != positions.len() {
            self.build(positions);
            return;
        }
        let mut hard_this_step = 0u64;
        for (i, p) in positions.iter().enumerate() {
            let id = i as VertexId;
            let anchor = self.anchors[i];
            let stored_w = self.anchor_half[i];
            let inside = (p.x - anchor.x).abs() <= stored_w
                && (p.y - anchor.y).abs() <= stored_w
                && (p.z - anchor.z).abs() <= stored_w;
            if inside {
                self.lazy_updates += 1;
            } else {
                hard_this_step += 1;
                self.tree.remove(id);
                self.tree.insert(id, Aabb::cube(*p, self.window));
                self.anchors[i] = *p;
                self.anchor_half[i] = self.window;
            }
        }
        self.hard_updates += hard_this_step;
        let rate = hard_this_step as f64 / positions.len().max(1) as f64;
        self.adapt_window(rate);
    }

    /// Candidate windows intersecting `q`, filtered by live positions —
    /// the grace window guarantees any object inside `q` has a window
    /// overlapping `q`, so the filter is sound and complete.
    fn query(&self, q: &Aabb, positions: &[Point3], out: &mut Vec<VertexId>) {
        let before = out.len();
        self.tree.query_keys(q, out);
        let mut write = before;
        for read in before..out.len() {
            let id = out[read];
            if q.contains(positions[id as usize]) {
                out[write] = id;
                write += 1;
            }
        }
        out.truncate(write);
    }

    fn memory_bytes(&self) -> usize {
        self.tree.heap_bytes()
            + self.anchors.capacity() * std::mem::size_of::<Point3>()
            + self.anchor_half.capacity() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::*;
    use octopus_geom::rng::SplitMix64;

    #[test]
    fn exact_results_despite_stale_windows() {
        let mut pts = random_points(1_500, 41);
        let mut t = QuTrade::with_fanout(16, 0.02);
        t.on_step(&pts);
        let mut rng = SplitMix64::new(10);
        for step in 0..8 {
            jitter_all(&mut pts, 0.015, 500 + step);
            t.on_step(&pts);
            t.tree().check_invariants();
            for qi in 0..8 {
                let q = random_query(&mut rng, 0.1);
                let mut out = Vec::new();
                t.query(&q, &pts, &mut out);
                assert_same_ids(out, &scan(&q, &pts), &format!("step {step} q{qi}"));
            }
        }
    }

    #[test]
    fn window_grows_until_escape_rate_is_low() {
        let mut pts = random_points(1_000, 42);
        // Start with a window far smaller than the per-step motion.
        let mut t = QuTrade::with_fanout(16, 0.001);
        t.on_step(&pts);
        let w0 = t.window();
        for step in 0..25 {
            jitter_all(&mut pts, 0.02, 700 + step);
            t.on_step(&pts);
        }
        assert!(
            t.window() > w0,
            "controller must grow the window: {} -> {}",
            w0,
            t.window()
        );
        // After adaptation most updates must be lazy (the <1% tuning).
        let mut lazy_before = t.lazy_update_count();
        let mut hard_before = t.hard_update_count();
        let mut last_rates = Vec::new();
        for step in 0..5 {
            jitter_all(&mut pts, 0.02, 900 + step);
            t.on_step(&pts);
            let hard = t.hard_update_count() - hard_before;
            let lazy = t.lazy_update_count() - lazy_before;
            last_rates.push(hard as f64 / (hard + lazy).max(1) as f64);
            hard_before = t.hard_update_count();
            lazy_before = t.lazy_update_count();
        }
        let avg = last_rates.iter().sum::<f64>() / last_rates.len() as f64;
        assert!(
            avg < 0.15,
            "escape rate should be low after adaptation, got {avg}"
        );
    }

    #[test]
    fn query_filters_false_positives() {
        // A big window around a point outside the query must not leak in.
        let pts = vec![Point3::new(0.5, 0.5, 0.5), Point3::new(0.9, 0.9, 0.9)];
        let mut t = QuTrade::with_fanout(8, 0.5);
        t.on_step(&pts);
        let q = Aabb::cube(Point3::splat(0.5), 0.05);
        let mut out = Vec::new();
        t.query(&q, &pts, &mut out);
        assert_eq!(
            out,
            vec![0],
            "window of point 1 overlaps q but the point is outside"
        );
    }

    #[test]
    fn rebuilds_when_population_changes() {
        let pts = random_points(100, 43);
        let mut t = QuTrade::new(0.01);
        t.on_step(&pts);
        let bigger = random_points(150, 44);
        t.on_step(&bigger);
        assert_eq!(t.tree().len(), 150);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        QuTrade::new(0.0);
    }
}
