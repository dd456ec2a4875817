//! Throwaway bucket PR octree, rebuilt from scratch at every time step.
//!
//! This is the paper's "lightweight throw-away spatial index \[8\]"
//! competitor: since almost every vertex moves at every step, rebuilding
//! beats updating. "The Octree implementation uses a bucket strategy,
//! where a node is split into eight children if it contains more than
//! 10,000 vertices" (§V-A) — the same default is used here, and the
//! bench harness sweeps it like the paper's parameter sweep.

use crate::DynamicIndex;
use octopus_geom::{Aabb, Point3, VertexId};

/// Default bucket capacity (paper §V-A).
pub const DEFAULT_BUCKET_CAPACITY: usize = 10_000;

/// Safety cap: with heavily duplicated points a region may never shrink
/// below the bucket capacity; beyond this depth nodes stay leaves.
const MAX_DEPTH: u32 = 24;

#[derive(Clone, Debug)]
struct Node {
    bbox: Aabb,
    /// Index of the first of 8 contiguous children, or `u32::MAX` for a
    /// leaf.
    first_child: u32,
    /// Leaf payload range in `entries`.
    start: u32,
    len: u32,
}

/// A bucketed point-region octree.
#[derive(Clone, Debug)]
pub struct Octree {
    bucket_capacity: usize,
    nodes: Vec<Node>,
    /// Reordered `(id, position)` payload; leaves own contiguous slices.
    entries: Vec<(VertexId, Point3)>,
    /// Number of rebuilds performed (one per `on_step`).
    rebuilds: usize,
}

impl Octree {
    /// Creates an empty octree with the paper's bucket capacity.
    pub fn new() -> Octree {
        Octree::with_bucket_capacity(DEFAULT_BUCKET_CAPACITY)
    }

    /// Creates an empty octree with a custom bucket capacity (used by the
    /// tuning ablation).
    pub fn with_bucket_capacity(bucket_capacity: usize) -> Octree {
        assert!(bucket_capacity >= 1);
        Octree {
            bucket_capacity,
            nodes: Vec::new(),
            entries: Vec::new(),
            rebuilds: 0,
        }
    }

    /// Number of from-scratch rebuilds so far.
    pub fn rebuild_count(&self) -> usize {
        self.rebuilds
    }

    /// Number of tree nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Rebuilds the tree over the given positions.
    pub fn rebuild(&mut self, positions: &[Point3]) {
        self.rebuilds += 1;
        self.nodes.clear();
        self.entries.clear();
        self.entries.reserve(positions.len());
        if positions.is_empty() {
            return;
        }
        let bbox = Aabb::from_points(positions.iter().copied());
        let mut scratch: Vec<(VertexId, Point3)> = positions
            .iter()
            .enumerate()
            .map(|(i, p)| (i as VertexId, *p))
            .collect();
        self.nodes.push(Node {
            bbox,
            first_child: u32::MAX,
            start: 0,
            len: 0,
        });
        self.build_node(0, &mut scratch, 0);
    }

    /// Recursively builds node `node`; `pending` holds its points, which
    /// are either stored (leaf) or partitioned into eight octants.
    fn build_node(&mut self, node: usize, pending: &mut Vec<(VertexId, Point3)>, depth: u32) {
        if pending.len() <= self.bucket_capacity || depth >= MAX_DEPTH {
            let start = self.entries.len() as u32;
            self.entries.append(pending);
            let n = &mut self.nodes[node];
            n.start = start;
            n.len = self.entries.len() as u32 - start;
            return;
        }
        let bbox = self.nodes[node].bbox;
        let c = bbox.center();
        let mut parts: [Vec<(VertexId, Point3)>; 8] = Default::default();
        for &(id, p) in pending.iter() {
            let octant = usize::from(p.x > c.x)
                | (usize::from(p.y > c.y) << 1)
                | (usize::from(p.z > c.z) << 2);
            parts[octant].push((id, p));
        }
        pending.clear();
        pending.shrink_to_fit();
        let first_child = self.nodes.len() as u32;
        self.nodes[node].first_child = first_child;
        for octant in 0..8 {
            let child_box = octant_box(&bbox, c, octant);
            self.nodes.push(Node {
                bbox: child_box,
                first_child: u32::MAX,
                start: 0,
                len: 0,
            });
        }
        for (octant, part) in parts.iter_mut().enumerate() {
            self.build_node(first_child as usize + octant, part, depth + 1);
        }
    }

    fn query_into(&self, q: &Aabb, out: &mut Vec<VertexId>) {
        if self.nodes.is_empty() {
            return;
        }
        let mut stack = vec![0usize];
        while let Some(ni) = stack.pop() {
            let node = &self.nodes[ni];
            if !q.intersects(&node.bbox) {
                continue;
            }
            if node.first_child == u32::MAX {
                let slice = &self.entries[node.start as usize..(node.start + node.len) as usize];
                if q.contains_box(&node.bbox) {
                    // Node fully covered: no per-point test needed.
                    out.extend(slice.iter().map(|&(id, _)| id));
                } else {
                    out.extend(
                        slice
                            .iter()
                            .filter(|(_, p)| q.contains(*p))
                            .map(|&(id, _)| id),
                    );
                }
            } else {
                for c in 0..8usize {
                    stack.push(node.first_child as usize + c);
                }
            }
        }
    }
}

impl Default for Octree {
    fn default() -> Self {
        Octree::new()
    }
}

/// The `octant`-th child box of `bbox` split at `c`.
fn octant_box(bbox: &Aabb, c: Point3, octant: usize) -> Aabb {
    let min = Point3::new(
        if octant & 1 == 0 { bbox.min.x } else { c.x },
        if octant & 2 == 0 { bbox.min.y } else { c.y },
        if octant & 4 == 0 { bbox.min.z } else { c.z },
    );
    let max = Point3::new(
        if octant & 1 == 0 { c.x } else { bbox.max.x },
        if octant & 2 == 0 { c.y } else { bbox.max.y },
        if octant & 4 == 0 { c.z } else { bbox.max.z },
    );
    Aabb::new(min, max)
}

impl DynamicIndex for Octree {
    fn name(&self) -> &'static str {
        "Octree(rebuild)"
    }

    /// Throwaway strategy: discard and rebuild.
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
    fn small_set_stays_a_single_leaf() {
        let pts = random_points(100, 1);
        let mut t = Octree::new();
        t.on_step(&pts);
        assert_eq!(t.node_count(), 1, "100 ≤ bucket capacity 10000");
    }

    #[test]
    fn splitting_happens_beyond_bucket_capacity() {
        let pts = random_points(300, 2);
        let mut t = Octree::with_bucket_capacity(32);
        t.on_step(&pts);
        assert!(t.node_count() > 1);
    }

    #[test]
    fn query_matches_scan_across_steps_and_motion() {
        let mut pts = random_points(2_000, 3);
        let mut t = Octree::with_bucket_capacity(64);
        let mut rng = SplitMix64::new(99);
        for step in 0..5 {
            jitter_all(&mut pts, 0.05, 1000 + step);
            t.on_step(&pts);
            for qi in 0..10 {
                let q = random_query(&mut rng, 0.15);
                let mut out = Vec::new();
                t.query(&q, &pts, &mut out);
                assert_same_ids(out, &scan(&q, &pts), &format!("step {step} query {qi}"));
            }
        }
        assert_eq!(t.rebuild_count(), 5);
    }

    #[test]
    fn duplicate_points_do_not_recurse_forever() {
        let pts = vec![Point3::splat(0.5); 500];
        let mut t = Octree::with_bucket_capacity(8);
        t.on_step(&pts);
        let mut out = Vec::new();
        t.query(&Aabb::cube(Point3::splat(0.5), 0.01), &pts, &mut out);
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn empty_input_is_fine() {
        let mut t = Octree::new();
        t.on_step(&[]);
        let mut out = Vec::new();
        t.query(&Aabb::cube(Point3::splat(0.5), 1.0), &[], &mut out);
        assert!(out.is_empty());
        assert_eq!(t.memory_bytes(), 0);
    }

    #[test]
    fn covered_leaf_fast_path_agrees_with_filtering() {
        let pts = random_points(5_000, 7);
        let mut t = Octree::with_bucket_capacity(128);
        t.on_step(&pts);
        // Query covering everything exercises the contains_box fast path.
        let q = Aabb::new(Point3::splat(-1.0), Point3::splat(2.0));
        let mut out = Vec::new();
        t.query(&q, &pts, &mut out);
        assert_eq!(out.len(), 5_000);
    }

    #[test]
    fn memory_reported_after_build() {
        let pts = random_points(1_000, 8);
        let mut t = Octree::with_bucket_capacity(64);
        t.on_step(&pts);
        assert!(t.memory_bytes() >= 1_000 * std::mem::size_of::<(VertexId, Point3)>());
    }
}
