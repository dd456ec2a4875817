//! Blocked structure-of-arrays position store — a derived mirror of
//! [`crate::Mesh::positions`] that **no query path reads since PR 21**.
//!
//! It is kept only because the repository benchmark times its rebuild
//! (`mesh.soa_rebuild_us`, through `benchmark/src/adapter.rs`'s
//! `soa_blocks` and `touch_positions`), and a crate change may not edit
//! `benchmark/`. Do not add callers: when a benchmark change drops
//! that metric, this module, `Mesh::position_blocks`, the
//! `deform_stamp` and `xtask lint`'s `soa-accessor` rule are deleted
//! together.
//!
//! Why it lost: a deformation step rewrites every position, so the
//! mirror was rebuilt in full (O(V), under a write lock) by the first
//! crawl after every step — for a request that touches a few percent of
//! the vertices — and even a warm mirror crawled *slower* than the
//! array-of-structs `Vec<Point3>` on every layout of fig. 13
//! (CHANGES.md, PR 21), where one vertex is one 12-byte read instead of
//! three lines of a 192-byte block. Crawl cost is set by the vertex order
//! (`octopus_core::layout`), not by a second copy of the coordinates.
//!
//! The form: [`BLOCK_LANES`] = 16 consecutive vertex ids share one
//! 64-byte-aligned [`PositionBlock`] — an `x`, a `y` and a `z` lane of
//! 16 `f32`, one cache line each. The mesh rebuilds the mirror lazily
//! (stamped, see `Mesh::position_blocks`) after any position write.
//! Lane data is never mutated directly — the `soa_xs`/`soa_ys`/`soa_zs`
//! fields are crate-private and the `soa-accessor` rule forbids naming
//! them outside `crates/mesh`, so every consumer goes through the read
//! accessors and cannot desync the mirror.

use octopus_geom::{Point3, Region};

/// Vertex ids per block: 16 `f32` lane entries fill one 64-byte line.
pub const BLOCK_LANES: usize = 16;

/// One block of [`BLOCK_LANES`] vertices in SoA form: three 64-byte
/// lanes (x, y, z), 192 bytes total, 64-byte aligned so each lane is
/// exactly one cache line.
#[derive(Clone, Copy, Debug)]
#[repr(C, align(64))]
pub struct PositionBlock {
    soa_xs: [f32; BLOCK_LANES],
    soa_ys: [f32; BLOCK_LANES],
    soa_zs: [f32; BLOCK_LANES],
}

/// Tail-lane filler: NaN fails every closed containment test, so a
/// probe of an unused lane can never produce a phantom vertex even if a
/// caller forgets the length check.
const EMPTY_LANE: f32 = f32::NAN;

impl PositionBlock {
    const EMPTY: PositionBlock = PositionBlock {
        soa_xs: [EMPTY_LANE; BLOCK_LANES],
        soa_ys: [EMPTY_LANE; BLOCK_LANES],
        soa_zs: [EMPTY_LANE; BLOCK_LANES],
    };

    /// The x lane (one cache line of 16 coordinates).
    #[inline(always)]
    pub fn xs(&self) -> &[f32; BLOCK_LANES] {
        &self.soa_xs
    }

    /// The y lane.
    #[inline(always)]
    pub fn ys(&self) -> &[f32; BLOCK_LANES] {
        &self.soa_ys
    }

    /// The z lane.
    #[inline(always)]
    pub fn zs(&self) -> &[f32; BLOCK_LANES] {
        &self.soa_zs
    }

    /// The position stored in lane `l`, reassembled as a [`Point3`].
    #[inline(always)]
    pub fn lane(&self, l: usize) -> Point3 {
        Point3::new(self.soa_xs[l], self.soa_ys[l], self.soa_zs[l])
    }

    /// Evaluates `q` on all [`BLOCK_LANES`] lanes at once, returning a
    /// lane bitmask. The trip count is fixed and each lane array is one
    /// sequentially-read cache line — the shape the compiler can turn
    /// into SIMD compares — so this is the batched form of a
    /// consecutive-id containment scan: callers test 16 ids per call
    /// and skip a whole block on a zero mask. Padding lanes hold NaN,
    /// which fails every closed containment test, so their mask bits
    /// are always zero.
    #[inline]
    pub fn region_mask<R: Region>(&self, q: &R) -> u32 {
        let mut mask = 0u32;
        for l in 0..BLOCK_LANES {
            mask |=
                u32::from(q.contains_coords(self.soa_xs[l], self.soa_ys[l], self.soa_zs[l])) << l;
        }
        mask
    }
}

/// The blocked SoA position store: `ceil(len / 16)` aligned blocks.
///
/// Vertex `v` lives in block `v / 16`, lane `v % 16` (see
/// [`block_lane`]), so consecutive ids share blocks.
#[derive(Clone, Debug, Default)]
pub struct PositionBlocks {
    blocks: Vec<PositionBlock>,
    len: usize,
}

/// Splits a vertex id into its `(block, lane)` coordinates.
#[inline(always)]
pub fn block_lane(v: usize) -> (usize, usize) {
    (v / BLOCK_LANES, v % BLOCK_LANES)
}

impl PositionBlocks {
    /// Builds the store from an AoS position slice.
    pub fn from_points(points: &[Point3]) -> PositionBlocks {
        let mut blocks = PositionBlocks::default();
        blocks.rebuild(points);
        blocks
    }

    /// Rebuilds the store in place (reusing the block allocation when
    /// the vertex count allows) — the post-deformation resync path.
    /// Every lane is reset to the NaN poison first, so tail lanes (and
    /// lanes freed by a shrink) can never leak stale coordinates.
    pub fn rebuild(&mut self, points: &[Point3]) {
        self.len = points.len();
        let num_blocks = points.len().div_ceil(BLOCK_LANES);
        self.blocks.clear();
        self.blocks.resize(num_blocks, PositionBlock::EMPTY);
        for (v, p) in points.iter().enumerate() {
            let (b, l) = block_lane(v);
            let block = &mut self.blocks[b];
            block.soa_xs[l] = p.x;
            block.soa_ys[l] = p.y;
            block.soa_zs[l] = p.z;
        }
    }

    /// Number of stored positions (not blocks).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no positions are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The block array (length `ceil(len / 16)`).
    #[inline(always)]
    pub fn blocks(&self) -> &[PositionBlock] {
        &self.blocks
    }

    /// The position of vertex `v`, reassembled from its lanes.
    ///
    /// # Panics
    /// Panics when `v ≥ len`.
    #[inline]
    pub fn get(&self, v: usize) -> Point3 {
        assert!(v < self.len, "vertex {v} out of range (len {})", self.len);
        let (b, l) = block_lane(v);
        self.blocks[b].lane(l)
    }

    /// Heap bytes of the block array, *including* the tail-block
    /// alignment padding (unused lanes cost real memory; `memory_bytes`
    /// consumers must see them).
    pub fn memory_bytes(&self) -> usize {
        self.blocks.capacity() * std::mem::size_of::<PositionBlock>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points(n: usize) -> Vec<Point3> {
        (0..n)
            .map(|i| Point3::new(i as f32, 2.0 * i as f32, -(i as f32)))
            .collect()
    }

    #[test]
    fn block_layout_is_64_byte_aligned_and_three_lines() {
        assert_eq!(std::mem::align_of::<PositionBlock>(), 64);
        assert_eq!(std::mem::size_of::<PositionBlock>(), 192);
        let store = PositionBlocks::from_points(&points(40));
        for b in store.blocks() {
            assert_eq!((b as *const PositionBlock as usize) % 64, 0);
        }
    }

    #[test]
    fn round_trips_every_position() {
        for n in [0usize, 1, 15, 16, 17, 40, 64] {
            let pts = points(n);
            let store = PositionBlocks::from_points(&pts);
            assert_eq!(store.len(), n);
            assert_eq!(store.blocks().len(), n.div_ceil(BLOCK_LANES));
            for (v, p) in pts.iter().enumerate() {
                assert_eq!(store.get(v), *p, "vertex {v} of {n}");
            }
        }
    }

    #[test]
    fn tail_lanes_are_poisoned() {
        let store = PositionBlocks::from_points(&points(17));
        let last = &store.blocks()[1];
        for l in 1..BLOCK_LANES {
            assert!(last.xs()[l].is_nan());
            assert!(last.ys()[l].is_nan());
            assert!(last.zs()[l].is_nan());
        }
    }

    #[test]
    fn rebuild_shrink_repoisons_tail() {
        let mut store = PositionBlocks::from_points(&points(32));
        store.rebuild(&points(18));
        assert_eq!(store.len(), 18);
        assert_eq!(store.blocks().len(), 2);
        assert_eq!(store.get(17), points(18)[17]);
        assert!(store.blocks()[1].xs()[5].is_nan(), "stale lane survived");
    }

    #[test]
    fn memory_accounting_counts_padding() {
        let store = PositionBlocks::from_points(&points(17));
        // Two blocks of 192 bytes each, even though only 17 of 32 lanes
        // hold data.
        assert!(store.memory_bytes() >= 2 * 192);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_checks_the_length_not_the_block_count() {
        let store = PositionBlocks::from_points(&points(17));
        store.get(17); // block 1 exists, lane 1 is padding
    }
}
