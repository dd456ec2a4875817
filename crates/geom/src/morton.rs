//! 3-D Morton (Z-order) codes.
//!
//! Used by the layout ablation (`octopus_core::layout::morton_layout`,
//! the `fig13_hilbert` bench) as the cheap alternative to the Hilbert
//! order: Morton has worse locality at octant boundaries
//! but is branch-free to compute.

use crate::{Aabb, Point3};

/// Maximum bits per axis for a `u64` Morton code.
pub const MAX_BITS: u32 = 21;

/// Spreads the low 21 bits of `v` so that they occupy every third bit.
#[inline]
fn split_by_3(v: u32) -> u64 {
    let mut x = u64::from(v) & 0x1f_ffff; // 21 bits
    x = (x | (x << 32)) & 0x1f00000000ffff;
    x = (x | (x << 16)) & 0x1f0000ff0000ff;
    x = (x | (x << 8)) & 0x100f00f00f00f00f;
    x = (x | (x << 4)) & 0x10c30c30c30c30c3;
    x = (x | (x << 2)) & 0x1249249249249249;
    x
}

/// Compacts every third bit back into the low 21 bits.
#[inline]
fn compact_by_3(v: u64) -> u32 {
    let mut x = v & 0x1249249249249249;
    x = (x | (x >> 2)) & 0x10c30c30c30c30c3;
    x = (x | (x >> 4)) & 0x100f00f00f00f00f;
    x = (x | (x >> 8)) & 0x1f0000ff0000ff;
    x = (x | (x >> 16)) & 0x1f00000000ffff;
    x = (x | (x >> 32)) & 0x1f_ffff;
    x as u32
}

/// Interleaves three 21-bit coordinates into a Morton code.
#[inline]
pub fn morton_encode(coords: [u32; 3]) -> u64 {
    split_by_3(coords[0]) | (split_by_3(coords[1]) << 1) | (split_by_3(coords[2]) << 2)
}

/// Inverse of [`morton_encode`].
#[inline]
pub fn morton_decode(code: u64) -> [u32; 3] {
    [
        compact_by_3(code),
        compact_by_3(code >> 1),
        compact_by_3(code >> 2),
    ]
}

/// Quantises `p` into `bounds` on a `2^bits` lattice and returns its
/// Morton code (mirror of [`crate::hilbert::hilbert_index_for_point`]).
pub fn morton_index_for_point(p: Point3, bounds: &Aabb, bits: u32) -> u64 {
    assert!((1..=MAX_BITS).contains(&bits));
    morton_encode(crate::hilbert::quantize(p, bounds, bits))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for c in [
            [0u32, 0, 0],
            [1, 2, 3],
            [0x1f_ffff, 0, 0x1f_ffff],
            [12345, 67890, 424242],
        ] {
            let clamped = [c[0] & 0x1f_ffff, c[1] & 0x1f_ffff, c[2] & 0x1f_ffff];
            assert_eq!(morton_decode(morton_encode(clamped)), clamped);
        }
    }

    #[test]
    fn low_bits_interleave_in_xyz_order() {
        assert_eq!(morton_encode([1, 0, 0]), 0b001);
        assert_eq!(morton_encode([0, 1, 0]), 0b010);
        assert_eq!(morton_encode([0, 0, 1]), 0b100);
        assert_eq!(morton_encode([1, 1, 1]), 0b111);
        assert_eq!(morton_encode([2, 0, 0]), 0b001_000);
    }

    #[test]
    fn codes_are_strictly_monotone_along_each_axis_at_origin() {
        let base = morton_encode([0, 0, 0]);
        for axis in 0..3 {
            let mut c = [0u32; 3];
            c[axis] = 1;
            assert!(morton_encode(c) > base);
        }
    }

    #[test]
    fn point_quantisation_matches_hilbert_quantiser() {
        let b = Aabb::new(Point3::ORIGIN, Point3::splat(2.0));
        let p = Point3::new(1.0, 0.5, 1.5);
        let m = morton_index_for_point(p, &b, 8);
        let q = crate::hilbert::quantize(p, &b, 8);
        assert_eq!(m, morton_encode(q));
    }
}
