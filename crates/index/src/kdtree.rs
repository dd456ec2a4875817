//! Throwaway median-split k-d tree, rebuilt at every time step.
//!
//! The second lightweight rebuild-from-scratch option the paper cites
//! (Bentley \[4\], §II-A). Compared to the octree it adapts to skewed
//! point distributions (median splits) at a slightly higher build cost.

use crate::DynamicIndex;
use octopus_geom::{Aabb, Point3, VertexId};

/// Entries per leaf before splitting stops.
pub const DEFAULT_LEAF_CAPACITY: usize = 64;

#[derive(Clone, Debug)]
enum Node {
    Inner {
        axis: u8,
        split: f32,
        /// Children indices in the node arena.
        left: u32,
        right: u32,
    },
    Leaf {
        /// Payload range in `entries`.
        start: u32,
        len: u32,
    },
}

/// A bulk-built k-d tree over vertex positions.
#[derive(Clone, Debug)]
pub struct KdTree {
    leaf_capacity: usize,
    nodes: Vec<Node>,
    entries: Vec<(VertexId, Point3)>,
    rebuilds: usize,
}

impl KdTree {
    /// Creates an empty tree with the default leaf capacity.
    pub fn new() -> KdTree {
        KdTree::with_leaf_capacity(DEFAULT_LEAF_CAPACITY)
    }

    /// Creates an empty tree with a custom leaf capacity.
    pub fn with_leaf_capacity(leaf_capacity: usize) -> KdTree {
        assert!(leaf_capacity >= 1);
        KdTree {
            leaf_capacity,
            nodes: Vec::new(),
            entries: Vec::new(),
            rebuilds: 0,
        }
    }

    /// Number of from-scratch rebuilds so far.
    pub fn rebuild_count(&self) -> usize {
        self.rebuilds
    }

    /// Rebuilds the tree over the given positions.
    pub fn rebuild(&mut self, positions: &[Point3]) {
        self.rebuilds += 1;
        self.nodes.clear();
        self.entries = positions
            .iter()
            .enumerate()
            .map(|(i, p)| (i as VertexId, *p))
            .collect();
        if self.entries.is_empty() {
            return;
        }
        // Build over the whole slice; nodes reference ranges after the
        // recursive in-place partitioning.
        let n = self.entries.len();
        let mut entries = std::mem::take(&mut self.entries);
        self.build_range(&mut entries, 0, n, 0);
        self.entries = entries;
    }

    /// Builds a subtree for `entries[lo..hi]`, returns its node index.
    fn build_range(
        &mut self,
        entries: &mut [(VertexId, Point3)],
        lo: usize,
        hi: usize,
        depth: u32,
    ) -> u32 {
        let len = hi - lo;
        let my_index = self.nodes.len() as u32;
        if len <= self.leaf_capacity || depth >= 48 {
            self.nodes.push(Node::Leaf {
                start: lo as u32,
                len: len as u32,
            });
            return my_index;
        }
        // Split the widest axis at the median for balanced depth.
        let bbox = Aabb::from_points(entries[lo..hi].iter().map(|&(_, p)| p));
        let e = bbox.extent();
        let axis = if e.x >= e.y && e.x >= e.z {
            0u8
        } else if e.y >= e.z {
            1
        } else {
            2
        };
        let mid = lo + len / 2;
        entries[lo..hi].select_nth_unstable_by(len / 2, |a, b| {
            a.1[axis as usize].total_cmp(&b.1[axis as usize])
        });
        let split = entries[mid].1[axis as usize];
        self.nodes.push(Node::Leaf { start: 0, len: 0 }); // placeholder
        let left = self.build_range(entries, lo, mid, depth + 1);
        let right = self.build_range(entries, mid, hi, depth + 1);
        self.nodes[my_index as usize] = Node::Inner {
            axis,
            split,
            left,
            right,
        };
        my_index
    }

    fn query_into(&self, q: &Aabb, out: &mut Vec<VertexId>) {
        if self.nodes.is_empty() {
            return;
        }
        let mut stack = vec![0u32];
        while let Some(ni) = stack.pop() {
            match &self.nodes[ni as usize] {
                Node::Leaf { start, len } => {
                    let slice = &self.entries[*start as usize..(*start + *len) as usize];
                    out.extend(
                        slice
                            .iter()
                            .filter(|(_, p)| q.contains(*p))
                            .map(|&(id, _)| id),
                    );
                }
                Node::Inner {
                    axis,
                    split,
                    left,
                    right,
                } => {
                    let a = *axis as usize;
                    // Points with coordinate < split went left; the median
                    // itself went right, so use ≤ / ≥ guards.
                    if q.min[a] <= *split {
                        stack.push(*left);
                    }
                    if q.max[a] >= *split {
                        stack.push(*right);
                    }
                }
            }
        }
    }
}

impl Default for KdTree {
    fn default() -> Self {
        KdTree::new()
    }
}

impl DynamicIndex for KdTree {
    fn name(&self) -> &'static str {
        "KdTree(rebuild)"
    }

    fn on_step(&mut self, positions: &[Point3]) {
        self.rebuild(positions);
    }

    fn query(&self, q: &Aabb, _positions: &[Point3], out: &mut Vec<VertexId>) {
        self.query_into(q, out);
    }

    fn memory_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.entries.capacity() * std::mem::size_of::<(VertexId, Point3)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::*;
    use octopus_geom::rng::SplitMix64;

    #[test]
    fn query_matches_scan_across_steps_and_motion() {
        let mut pts = random_points(3_000, 11);
        let mut t = KdTree::with_leaf_capacity(16);
        let mut rng = SplitMix64::new(5);
        for step in 0..5 {
            jitter_all(&mut pts, 0.04, 2000 + step);
            t.on_step(&pts);
            for qi in 0..10 {
                let q = random_query(&mut rng, 0.12);
                let mut out = Vec::new();
                t.query(&q, &pts, &mut out);
                assert_same_ids(out, &scan(&q, &pts), &format!("step {step} query {qi}"));
            }
        }
        assert_eq!(t.rebuild_count(), 5);
    }

    #[test]
    fn boundary_points_on_split_plane_are_found() {
        // Many points sharing one coordinate stress the ≤ / ≥ descent.
        let pts: Vec<Point3> = (0..200)
            .map(|i| Point3::new(0.5, (i as f32) / 200.0, ((i * 7) % 200) as f32 / 200.0))
            .collect();
        let mut t = KdTree::with_leaf_capacity(8);
        t.on_step(&pts);
        let q = Aabb::new(Point3::new(0.5, 0.0, 0.0), Point3::new(0.5, 1.0, 1.0));
        let mut out = Vec::new();
        t.query(&q, &pts, &mut out);
        assert_eq!(out.len(), 200, "all points lie exactly on the query plane");
    }

    #[test]
    fn duplicates_do_not_break_build() {
        let pts = vec![Point3::splat(0.25); 1_000];
        let mut t = KdTree::with_leaf_capacity(16);
        t.on_step(&pts);
        let mut out = Vec::new();
        t.query(&Aabb::cube(Point3::splat(0.25), 0.01), &pts, &mut out);
        assert_eq!(out.len(), 1_000);
    }

    #[test]
    fn empty_input_is_fine() {
        let mut t = KdTree::new();
        t.on_step(&[]);
        let mut out = Vec::new();
        t.query(&Aabb::cube(Point3::splat(0.5), 0.5), &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn single_point() {
        let pts = vec![Point3::splat(0.7)];
        let mut t = KdTree::new();
        t.on_step(&pts);
        let mut out = Vec::new();
        t.query(&Aabb::cube(Point3::splat(0.7), 0.05), &pts, &mut out);
        assert_eq!(out, vec![0]);
        out.clear();
        t.query(&Aabb::cube(Point3::splat(0.2), 0.05), &pts, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn memory_accounting_nonzero() {
        let pts = random_points(512, 3);
        let mut t = KdTree::new();
        t.on_step(&pts);
        assert!(t.memory_bytes() > 0);
    }
}
