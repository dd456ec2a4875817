//! Blocked structure-of-arrays positions, built on demand by
//! [`crate::Mesh::position_blocks`] for the repository benchmark's
//! `mesh.soa_rebuild_us` (`benchmark/src/adapter.rs`'s `soa_blocks`)
//! and nothing else: no query path reads them, and no mesh keeps them.
//!
//! Why no query reads them: a deformation step rewrites every position,
//! so a kept copy had to be rebuilt in full after every step — for a
//! request that touches a few percent of the vertices — and even a warm
//! copy crawled *slower* than the array-of-structs `Vec<Point3>` on
//! every layout of fig. 13, where one vertex is one 12-byte read
//! instead of three lines of a 192-byte block. Crawl cost is set by the
//! vertex order (`octopus_core::layout`), not by a second copy of the
//! coordinates.
//!
//! The form: [`BLOCK_LANES`] = 16 consecutive vertex ids share one
//! 64-byte-aligned [`PositionBlock`] — an `x`, a `y` and a `z` lane of
//! 16 `f32`, one cache line each.

use octopus_geom::Point3;

/// Vertex ids per block: 16 `f32` lane entries fill one 64-byte line.
pub const BLOCK_LANES: usize = 16;

/// One block of [`BLOCK_LANES`] vertices in SoA form: three 64-byte
/// lanes (x, y, z), 192 bytes total, 64-byte aligned so each lane is
/// exactly one cache line. Lanes past the last vertex hold NaN.
#[derive(Clone, Copy, Debug)]
#[repr(C, align(64))]
pub struct PositionBlock {
    xs: [f32; BLOCK_LANES],
    ys: [f32; BLOCK_LANES],
    zs: [f32; BLOCK_LANES],
}

/// The blocked SoA positions: vertex `v` lives in block `v / 16`, lane
/// `v % 16`, so consecutive ids share blocks.
#[derive(Clone, Debug, Default)]
pub struct PositionBlocks {
    blocks: Vec<PositionBlock>,
}

impl PositionBlocks {
    /// Copies an AoS position slice into `ceil(len / 16)` blocks.
    pub fn from_points(points: &[Point3]) -> PositionBlocks {
        let blocks = points.chunks(BLOCK_LANES).map(|chunk| {
            let mut block = PositionBlock {
                xs: [f32::NAN; BLOCK_LANES],
                ys: [f32::NAN; BLOCK_LANES],
                zs: [f32::NAN; BLOCK_LANES],
            };
            for (l, p) in chunk.iter().enumerate() {
                (block.xs[l], block.ys[l], block.zs[l]) = (p.x, p.y, p.z);
            }
            block
        });
        PositionBlocks {
            blocks: blocks.collect(),
        }
    }

    /// The block array (length `ceil(len / 16)`).
    #[inline]
    pub fn blocks(&self) -> &[PositionBlock] {
        &self.blocks
    }

    /// The position stored for vertex `v`, reassembled from its lanes
    /// (NaN past the last vertex of the last block).
    ///
    /// # Panics
    /// Panics when `v` lies past the last block.
    pub fn get(&self, v: usize) -> Point3 {
        let (block, l) = (&self.blocks[v / BLOCK_LANES], v % BLOCK_LANES);
        Point3::new(block.xs[l], block.ys[l], block.zs[l])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_position() {
        for n in [0usize, 1, 15, 16, 17, 40, 64] {
            let pts: Vec<Point3> = (0..n)
                .map(|i| Point3::new(i as f32, 2.0 * i as f32, -(i as f32)))
                .collect();
            let store = PositionBlocks::from_points(&pts);
            assert_eq!(store.blocks().len(), n.div_ceil(BLOCK_LANES));
            for (v, p) in pts.iter().enumerate() {
                assert_eq!(store.get(v), *p, "vertex {v} of {n}");
            }
            if n % BLOCK_LANES != 0 {
                assert!(store.get(n).x.is_nan(), "tail lane of {n}");
            }
        }
    }
}
