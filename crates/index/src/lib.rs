//! Competitor spatial indexes for dynamic mesh monitoring.
//!
//! These are the approaches the paper compares OCTOPUS against (§V-A),
//! re-implemented from their original descriptions:
//!
//! * [`LinearScan`] — the maintenance-free baseline; O(V) per query.
//! * [`Octree`] — a bucketed PR octree rebuilt from scratch at every time
//!   step (the "throwaway index" strategy of Dittrich et al. \[8\]); bucket
//!   capacity 10 000 as tuned in the paper.
//! * [`RTree`] — in-memory R-tree with fanout 110 (the paper's setting),
//!   STR bulk loading, quadratic split and condense-on-delete. Substrate
//!   for the two spatio-temporal competitors:
//! * [`LurTree`] — the Lazy Update R-tree of Kwon et al. \[13\]: a position
//!   update that stays inside its leaf MBR is applied in place; only
//!   escapes pay delete + reinsert.
//! * [`QuTrade`] — the workload-aware grace-window index of Tzoumas et
//!   al. \[24\]: vertices are indexed by an enlarged box; updates only
//!   touch the tree when a vertex exits its window, and the window size
//!   adapts so fewer than 1 % of updates do (the paper's tuning).
//! * [`UniformGrid`] — the stale grid OCTOPUS-CON uses to find a start
//!   vertex near the query (§IV-F); built once, never updated.
//! * [`SelectivityHistogram`] — equi-width spatial histogram for the cost
//!   model's selectivity input (\[2\], §IV-G).
//!
//! Everything implements [`DynamicIndex`], whose contract separates
//! `on_step` (per-time-step maintenance — what the paper bills as index
//! maintenance cost) from `query` (range execution). All results are
//! exact with respect to the positions passed to the latest `on_step`.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod grid;
pub mod histogram;
pub mod linear_scan;
pub mod lur;
pub mod octree;
pub mod qutrade;
pub mod rtree;
mod traits;

pub use grid::UniformGrid;
pub use histogram::SelectivityHistogram;
pub use linear_scan::LinearScan;
pub use lur::LurTree;
pub use octree::Octree;
pub use qutrade::QuTrade;
pub use rtree::RTree;
pub use traits::DynamicIndex;

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared helpers for index correctness tests.
    use octopus_geom::rng::SplitMix64;
    use octopus_geom::{Aabb, Point3, VertexId};

    /// Uniform random points in the unit cube.
    pub fn random_points(n: usize, seed: u64) -> Vec<Point3> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| Point3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()))
            .collect()
    }

    /// Moves every point by a small random displacement (the massive
    /// unpredictable per-step update).
    pub fn jitter_all(points: &mut [Point3], magnitude: f32, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        for p in points {
            p.x += rng.range_f32(-magnitude, magnitude);
            p.y += rng.range_f32(-magnitude, magnitude);
            p.z += rng.range_f32(-magnitude, magnitude);
        }
    }

    /// Ground-truth result by brute force.
    pub fn scan(q: &Aabb, positions: &[Point3]) -> Vec<VertexId> {
        positions
            .iter()
            .enumerate()
            .filter(|(_, p)| q.contains(**p))
            .map(|(i, _)| i as VertexId)
            .collect()
    }

    /// Random query box inside the unit cube.
    pub fn random_query(rng: &mut SplitMix64, half: f32) -> Aabb {
        let c = Point3::new(
            rng.range_f32(0.0, 1.0),
            rng.range_f32(0.0, 1.0),
            rng.range_f32(0.0, 1.0),
        );
        Aabb::cube(c, half)
    }

    /// Asserts `got` (any order) equals `expected` (sorted).
    pub fn assert_same_ids(mut got: Vec<VertexId>, expected: &[VertexId], ctx: &str) {
        got.sort_unstable();
        assert_eq!(got, expected, "{ctx}");
    }
}
