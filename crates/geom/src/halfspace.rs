//! Half-spaces and bounded convex regions — the query shapes behind the
//! paper's "earthquake polytope" monitoring example.
//!
//! A [`ConvexRegion`] is the intersection of an [`Aabb`] with a set of
//! [`Halfspace`]s. Keeping an explicit bounding box (rather than deriving
//! one from the planes) gives every region a finite extent, which the
//! directed walk, the planner's selectivity histogram and the batch
//! engine's Hilbert sweep all rely on.

use crate::{Aabb, Point3, Vec3};

/// The region-shaped query predicate the crawl generalises over.
///
/// The executor's probe → directed walk → crawl pipeline only needs
/// three capabilities from a query region: point containment, a
/// walk-guidance distance, and a bounding box. [`Aabb`] implements the
/// trait with its exact distance; [`ConvexRegion`] with a lower bound
/// (see [`ConvexRegion::dist_sq`]) — the walk only *compares* distances,
/// so a consistent lower bound that is zero exactly on containment
/// preserves the walk's termination and the crawl's exactness.
pub trait Region {
    /// True when `p` lies inside the region (closed boundaries).
    fn contains(&self, p: Point3) -> bool;
    /// Squared guidance distance from `p` to the region: `0` iff
    /// [`Region::contains`] holds, positive and monotone-ish outside.
    fn dist_sq(&self, p: Point3) -> f32;
    /// A region containing every point within `margin` of `self`
    /// (conservative: may be larger).
    fn dilated(&self, margin: f32) -> Self
    where
        Self: Sized;
    /// A box containing the whole region.
    fn bounds(&self) -> Aabb;
    /// Containment on raw coordinates — must agree exactly with
    /// `self.contains(Point3::new(x, y, z))`, which is what the default
    /// does. The crawl's inner loop calls this. NaN coordinates must
    /// fail (every closed comparison does naturally): that is what keeps
    /// a vertex with a non-finite position out of every result.
    #[inline]
    fn contains_coords(&self, x: f32, y: f32, z: f32) -> bool {
        self.contains(Point3::new(x, y, z))
    }
}

impl Region for Aabb {
    #[inline]
    fn contains(&self, p: Point3) -> bool {
        Aabb::contains(self, p)
    }
    #[inline]
    fn dist_sq(&self, p: Point3) -> f32 {
        Aabb::dist_sq(self, p)
    }
    #[inline]
    fn dilated(&self, margin: f32) -> Aabb {
        Aabb::dilated(self, margin)
    }
    #[inline]
    fn bounds(&self) -> Aabb {
        *self
    }
}

/// The closed half-space `normal · p ≤ offset`.
///
/// The normal is unit length (normalised by the constructors), so
/// `normal · p − offset` is the signed Euclidean distance of `p` from
/// the boundary plane and dilation is a plain offset shift.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Halfspace {
    /// Outward unit normal (points *away* from the kept side).
    pub normal: Vec3,
    /// Plane offset along the normal.
    pub offset: f32,
}

impl Halfspace {
    /// Half-space `normal · p ≤ offset`; `normal` is normalised.
    ///
    /// # Panics
    /// On a (near-)zero normal, which defines no plane.
    #[inline]
    pub fn new(normal: Vec3, offset: f32) -> Halfspace {
        let len = normal.length();
        let n = normal
            .normalized()
            .expect("half-space normal must be non-zero");
        Halfspace {
            normal: n,
            offset: offset / len,
        }
    }

    /// Half-space whose boundary plane passes through `point` with the
    /// given outward `normal` (the kept side is opposite the normal).
    #[inline]
    pub fn through(point: Point3, normal: Vec3) -> Halfspace {
        let n = normal
            .normalized()
            .expect("half-space normal must be non-zero");
        Halfspace {
            normal: n,
            offset: n.dot(point.to_vec()),
        }
    }

    /// Closed containment: `normal · p ≤ offset`.
    #[inline]
    pub fn contains(&self, p: Point3) -> bool {
        self.normal.dot(p.to_vec()) <= self.offset
    }

    /// Euclidean distance from `p` to the half-space (`0` when inside).
    #[inline]
    pub fn excess(&self, p: Point3) -> f32 {
        (self.normal.dot(p.to_vec()) - self.offset).max(0.0)
    }

    /// The half-space grown by `margin` (boundary plane pushed outward).
    #[inline]
    pub fn dilated(&self, margin: f32) -> Halfspace {
        Halfspace {
            normal: self.normal,
            offset: self.offset + margin,
        }
    }
}

/// A bounded convex region: `bounds ∩ h₁ ∩ h₂ ∩ …`.
///
/// With an empty half-space list this degenerates to the box itself, so
/// every box query is expressible as a `ConvexRegion` (the differential
/// suite exploits that equivalence).
#[derive(Clone, Debug, PartialEq)]
pub struct ConvexRegion {
    /// Bounding box the half-spaces clip.
    pub bounds: Aabb,
    /// Clipping half-spaces (unit normals).
    pub halfspaces: Vec<Halfspace>,
}

impl ConvexRegion {
    /// The region `bounds ∩ halfspaces`.
    #[inline]
    pub fn new(bounds: Aabb, halfspaces: Vec<Halfspace>) -> ConvexRegion {
        ConvexRegion { bounds, halfspaces }
    }
}

impl Region for ConvexRegion {
    #[inline]
    fn contains(&self, p: Point3) -> bool {
        self.bounds.contains(p) && self.halfspaces.iter().all(|h| h.contains(p))
    }

    /// Squared *lower bound* on the distance from `p` to the region:
    /// the max of the box distance and every half-space excess. Zero
    /// exactly when `p` is contained (every constraint satisfied), which
    /// is all the directed walk's termination test needs; outside, it
    /// under-estimates the true distance to the intersection, which only
    /// makes the walk's near-miss retry more conservative. A point the
    /// formula puts at 0 that fails containment (a NaN excess is dropped
    /// by `f32::max`) reads `+∞`, as in [`Aabb::dist_sq`].
    #[inline]
    fn dist_sq(&self, p: Point3) -> f32 {
        let mut d = self.bounds.dist(p);
        for h in &self.halfspaces {
            d = d.max(h.excess(p));
        }
        let d_sq = d * d;
        if d_sq == 0.0 && !self.contains(p) {
            f32::INFINITY
        } else {
            d_sq
        }
    }

    #[inline]
    fn dilated(&self, margin: f32) -> ConvexRegion {
        ConvexRegion {
            bounds: self.bounds.dilated(margin),
            halfspaces: self.halfspaces.iter().map(|h| h.dilated(margin)).collect(),
        }
    }

    #[inline]
    fn bounds(&self) -> Aabb {
        self.bounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Aabb {
        Aabb::new(Point3::ORIGIN, Point3::splat(1.0))
    }

    #[test]
    fn halfspace_normalises_and_contains() {
        // 2x ≤ 1  ⇔  x ≤ 0.5.
        let h = Halfspace::new(Vec3::new(2.0, 0.0, 0.0), 1.0);
        assert!((h.normal.length() - 1.0).abs() < 1e-6);
        assert!(h.contains(Point3::new(0.5, 9.0, -3.0)));
        assert!(!h.contains(Point3::new(0.6, 0.0, 0.0)));
        assert!((h.excess(Point3::new(1.5, 0.0, 0.0)) - 1.0).abs() < 1e-6);
        assert_eq!(h.excess(Point3::ORIGIN), 0.0);
    }

    #[test]
    fn halfspace_through_point() {
        let h = Halfspace::through(Point3::splat(0.5), Vec3::new(0.0, 1.0, 0.0));
        assert!(h.contains(Point3::new(0.0, 0.5, 0.0)));
        assert!(h.contains(Point3::new(0.0, 0.2, 0.0)));
        assert!(!h.contains(Point3::new(0.0, 0.7, 0.0)));
    }

    #[test]
    fn convex_region_is_box_and_planes() {
        let h = Halfspace::through(Point3::splat(0.5), Vec3::new(1.0, 1.0, 0.0));
        let r = ConvexRegion::new(unit(), vec![h]);
        assert!(r.contains(Point3::new(0.2, 0.2, 0.9)));
        assert!(!r.contains(Point3::new(0.9, 0.9, 0.5))); // cut by the plane
        assert!(!r.contains(Point3::new(0.2, 0.2, 1.1))); // outside the box
    }

    #[test]
    fn convex_dist_sq_zero_iff_contained() {
        let h = Halfspace::through(Point3::splat(0.5), Vec3::new(1.0, 0.0, 0.0));
        let r = ConvexRegion::new(unit(), vec![h]);
        assert_eq!(Region::dist_sq(&r, Point3::new(0.3, 0.3, 0.3)), 0.0);
        // Outside the plane but inside the box: distance is the excess.
        let d = Region::dist_sq(&r, Point3::new(0.75, 0.3, 0.3));
        assert!((d - 0.0625).abs() < 1e-6);
        // Outside the box: at least the box distance.
        assert!(Region::dist_sq(&r, Point3::new(-1.0, 0.5, 0.5)) >= 1.0 - 1e-6);
        // A NaN coordinate fails containment, so it is not at distance 0.
        let poisoned = Point3::new(0.3, f32::NAN, 0.3);
        assert!(!r.contains(poisoned));
        assert_eq!(Region::dist_sq(&r, poisoned), f32::INFINITY);
    }

    #[test]
    fn convex_dilated_is_superset() {
        let h = Halfspace::through(Point3::splat(0.5), Vec3::new(1.0, 2.0, 3.0));
        let r = ConvexRegion::new(unit(), vec![h]);
        let d = Region::dilated(&r, 0.1);
        for p in [
            Point3::new(0.1, 0.1, 0.1),
            Point3::new(0.55, 0.0, 0.0),
            Point3::new(-0.05, 0.5, 0.5),
        ] {
            if r.contains(p) || Region::dist_sq(&r, p) <= 0.01 {
                assert!(d.contains(p), "{p:?} must be inside the dilation");
            }
        }
    }
}
