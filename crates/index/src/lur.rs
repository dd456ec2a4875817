//! The Lazy Update R-tree (LUR-Tree) of Kwon et al. \[13\].
//!
//! "The LUR-Tree … avoids costly R-Tree insertions if the object remains
//! inside the minimum bounding rectangle of the leaf node" (§II-A). At
//! every time step each vertex's new position is compared with the MBR
//! of the leaf currently holding it: if it stays inside, the entry is
//! patched in place (no structural maintenance); if it escapes, the
//! classic delete + reinsert pays the full structural cost.
//!
//! Because the paper's simulations move *every* vertex a little at every
//! step, the in-place path dominates, but the per-object probe itself is
//! already O(V) hash lookups per step — exactly the maintenance overhead
//! Fig. 6(a) charges to this approach (80 % of its response time).

use crate::rtree::{point_key, LeafEntry, RTree};
use crate::DynamicIndex;
use octopus_geom::{Aabb, Point3, VertexId};

/// LUR-Tree: an R-tree of point entries with lazy in-MBR updates.
#[derive(Clone, Debug)]
pub struct LurTree {
    tree: RTree,
    /// Statistics: updates applied in place vs structural re-insertions.
    lazy_updates: u64,
    hard_updates: u64,
    initialized: bool,
}

impl LurTree {
    /// Creates a LUR-Tree with the paper's fanout (110).
    pub fn new() -> LurTree {
        LurTree::with_fanout(crate::rtree::DEFAULT_FANOUT)
    }

    /// Creates a LUR-Tree with a custom R-tree fanout.
    pub fn with_fanout(fanout: usize) -> LurTree {
        LurTree {
            tree: RTree::with_fanout(fanout),
            lazy_updates: 0,
            hard_updates: 0,
            initialized: false,
        }
    }

    /// Bulk-builds the initial tree (the preprocessing step the paper
    /// reports separately from response time).
    pub fn build(&mut self, positions: &[Point3]) {
        let entries = positions
            .iter()
            .enumerate()
            .map(|(i, p)| LeafEntry {
                id: i as VertexId,
                key: point_key(*p),
            })
            .collect();
        self.tree.bulk_load(entries);
        self.initialized = true;
    }

    /// Number of updates that stayed inside their leaf MBR.
    pub fn lazy_update_count(&self) -> u64 {
        self.lazy_updates
    }

    /// Number of updates that required delete + reinsert.
    pub fn hard_update_count(&self) -> u64 {
        self.hard_updates
    }

    /// The underlying R-tree (tests).
    pub fn tree(&self) -> &RTree {
        &self.tree
    }
}

impl Default for LurTree {
    fn default() -> Self {
        LurTree::new()
    }
}

impl DynamicIndex for LurTree {
    fn name(&self) -> &'static str {
        "LUR-Tree"
    }

    fn on_step(&mut self, positions: &[Point3]) {
        if !self.initialized || self.tree.len() != positions.len() {
            self.build(positions);
            return;
        }
        for (i, p) in positions.iter().enumerate() {
            let id = i as VertexId;
            let key = point_key(*p);
            // Lazy path: patch the entry when the new position stays in
            // the holding leaf's MBR.
            if self.tree.update_in_place(id, key) {
                self.lazy_updates += 1;
            } else {
                self.hard_updates += 1;
                self.tree.remove(id);
                self.tree.insert(id, key);
            }
        }
    }

    fn query(&self, q: &Aabb, _positions: &[Point3], out: &mut Vec<VertexId>) {
        self.tree.query_keys(q, out);
    }

    fn memory_bytes(&self) -> usize {
        self.tree.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::*;
    use octopus_geom::rng::SplitMix64;

    #[test]
    fn stays_exact_across_small_motion() {
        let mut pts = random_points(2_000, 31);
        let mut t = LurTree::with_fanout(16);
        t.on_step(&pts); // initial build
        let mut rng = SplitMix64::new(8);
        for step in 0..6 {
            jitter_all(&mut pts, 0.01, 300 + step);
            t.on_step(&pts);
            t.tree().check_invariants();
            for qi in 0..8 {
                let q = random_query(&mut rng, 0.15);
                let mut out = Vec::new();
                t.query(&q, &pts, &mut out);
                assert_same_ids(out, &scan(&q, &pts), &format!("step {step} q{qi}"));
            }
        }
        // Tiny motion → mostly lazy updates.
        assert!(
            t.lazy_update_count() > t.hard_update_count(),
            "lazy {} vs hard {}",
            t.lazy_update_count(),
            t.hard_update_count()
        );
    }

    #[test]
    fn stays_exact_across_large_motion() {
        let mut pts = random_points(1_000, 32);
        let mut t = LurTree::with_fanout(8);
        t.on_step(&pts);
        let mut rng = SplitMix64::new(9);
        for step in 0..4 {
            jitter_all(&mut pts, 0.4, 900 + step); // violent motion
            t.on_step(&pts);
            t.tree().check_invariants();
            let q = random_query(&mut rng, 0.25);
            let mut out = Vec::new();
            t.query(&q, &pts, &mut out);
            assert_same_ids(out, &scan(&q, &pts), &format!("step {step}"));
        }
        assert!(
            t.hard_update_count() > 0,
            "large motion must trigger structural updates"
        );
    }

    #[test]
    fn first_step_builds_the_tree() {
        let pts = random_points(100, 33);
        let mut t = LurTree::new();
        t.on_step(&pts);
        assert_eq!(t.tree().len(), 100);
        assert_eq!(t.lazy_update_count() + t.hard_update_count(), 0);
    }

    #[test]
    fn memory_includes_tree_and_backpointers() {
        let pts = random_points(500, 34);
        let mut t = LurTree::new();
        t.on_step(&pts);
        assert!(t.memory_bytes() > 500 * std::mem::size_of::<LeafEntry>());
    }
}
