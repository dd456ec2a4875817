//! Axis-aligned bounding boxes, used both as range queries and as index
//! bounding volumes.

use crate::{Point3, Vec3};

/// An axis-aligned box `[min, max]` (inclusive on both ends).
///
/// Range queries in the paper are rectangular 3-D ranges; point
/// containment uses closed intervals, which makes the box symmetric for
/// the query and the index sides.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Point3,
    /// Maximum corner.
    pub max: Point3,
}

impl Aabb {
    /// An "empty" box with inverted bounds; the identity for [`Aabb::union`]
    /// and [`Aabb::expand`].
    pub const EMPTY: Aabb = Aabb {
        min: Point3 {
            x: f32::INFINITY,
            y: f32::INFINITY,
            z: f32::INFINITY,
        },
        max: Point3 {
            x: f32::NEG_INFINITY,
            y: f32::NEG_INFINITY,
            z: f32::NEG_INFINITY,
        },
    };

    /// Creates a box from its corners. `min` must be component-wise ≤ `max`.
    #[inline]
    pub fn new(min: Point3, max: Point3) -> Self {
        debug_assert!(
            min.x <= max.x && min.y <= max.y && min.z <= max.z,
            "inverted Aabb"
        );
        Aabb { min, max }
    }

    /// Creates a cube centred at `center` with the given half-extent.
    #[inline]
    pub fn cube(center: Point3, half: f32) -> Self {
        debug_assert!(half >= 0.0);
        let h = Vec3::new(half, half, half);
        Aabb {
            min: center - h,
            max: center + h,
        }
    }

    /// Smallest box containing all `points`; [`Aabb::EMPTY`] for an empty
    /// iterator.
    pub fn from_points<I: IntoIterator<Item = Point3>>(points: I) -> Self {
        let mut b = Aabb::EMPTY;
        for p in points {
            b.expand(p);
        }
        b
    }

    /// True when the box contains no points (inverted bounds).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    /// Centre point. Undefined for empty boxes.
    #[inline]
    pub fn center(&self) -> Point3 {
        Point3::new(
            0.5 * (self.min.x + self.max.x),
            0.5 * (self.min.y + self.max.y),
            0.5 * (self.min.z + self.max.z),
        )
    }

    /// Per-axis extents (`max - min`).
    #[inline]
    pub fn extent(&self) -> Vec3 {
        self.max - self.min
    }

    /// Volume; `0` for degenerate or empty boxes.
    #[inline]
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let e = self.extent();
        f64::from(e.x) * f64::from(e.y) * f64::from(e.z)
    }

    /// Surface area (used by R-tree split heuristics); `0` when empty.
    #[inline]
    pub fn surface_area(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let e = self.extent();
        let (x, y, z) = (f64::from(e.x), f64::from(e.y), f64::from(e.z));
        2.0 * (x * y + y * z + z * x)
    }

    /// Closed-interval point containment — the paper's
    /// "`v` enclosed inside `q`" predicate.
    ///
    /// Evaluated branchlessly (`&` on the six comparisons instead of
    /// short-circuiting `&&`): the surface probe and the crawl test
    /// millions of essentially random points per query, and the
    /// unpredictable branches of the short-circuit form cost ~2–3× in
    /// measured probe throughput.
    #[inline]
    pub fn contains(&self, p: Point3) -> bool {
        (p.x >= self.min.x)
            & (p.x <= self.max.x)
            & (p.y >= self.min.y)
            & (p.y <= self.max.y)
            & (p.z >= self.min.z)
            & (p.z <= self.max.z)
    }

    /// True when `other` lies fully inside `self`.
    #[inline]
    pub fn contains_box(&self, other: &Aabb) -> bool {
        !other.is_empty()
            && self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && self.min.z <= other.min.z
            && self.max.x >= other.max.x
            && self.max.y >= other.max.y
            && self.max.z >= other.max.z
    }

    /// Box/box intersection test (closed intervals).
    #[inline]
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
            && self.min.z <= other.max.z
            && self.max.z >= other.min.z
    }

    /// Grows the box to include `p`.
    #[inline]
    pub fn expand(&mut self, p: Point3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Smallest box containing both operands.
    #[inline]
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Intersection of both operands; may be an empty box.
    #[inline]
    pub fn intersection(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.max(other.min),
            max: self.max.min(other.max),
        }
    }

    /// Squared Euclidean distance from `p` to the box: `0` exactly when
    /// [`Aabb::contains`] holds.
    ///
    /// This is the `distance(v, q)` of the paper's directed walk
    /// (Algorithm 1): the walk minimises the distance from candidate
    /// vertices to the *query region*, not to its centre, and stops at
    /// the first vertex at distance 0. `f32::max` drops NaN, so a
    /// non-finite coordinate (of `p` or of a corner) would make the
    /// formula read 0 for a point that fails containment; such a point,
    /// like one whose distance underflows, reads `+∞` instead.
    #[inline]
    pub fn dist_sq(&self, p: Point3) -> f32 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        let dz = (self.min.z - p.z).max(0.0).max(p.z - self.max.z);
        let d = dx * dx + dy * dy + dz * dz;
        if d == 0.0 && !self.contains(p) {
            f32::INFINITY
        } else {
            d
        }
    }

    /// Euclidean distance from `p` to the box: `0` exactly when inside,
    /// `+∞` for a point [`Aabb::dist_sq`] puts there.
    #[inline]
    pub fn dist(&self, p: Point3) -> f32 {
        self.dist_sq(p).sqrt()
    }

    /// Euclidean distance from `p` to the box *boundary* (the six
    /// faces): positive both inside and outside, `0` only on a face.
    ///
    /// This is the standing-query band test — a vertex whose position
    /// was `boundary_dist` away from the box boundary cannot have
    /// changed membership after moving less than that distance, so
    /// subscriptions only re-test vertices inside the drift band.
    #[inline]
    pub fn boundary_dist(&self, p: Point3) -> f32 {
        let outside = self.dist(p);
        if outside > 0.0 {
            return outside;
        }
        // Inside: nearest face along any single axis.
        let dx = (p.x - self.min.x).min(self.max.x - p.x);
        let dy = (p.y - self.min.y).min(self.max.y - p.y);
        let dz = (p.z - self.min.z).min(self.max.z - p.z);
        dx.min(dy).min(dz)
    }

    /// Enlargement of `surface_area` needed to include `other`
    /// (R-tree choose-subtree heuristic).
    #[inline]
    pub fn enlargement(&self, other: &Aabb) -> f64 {
        self.union(other).surface_area() - self.surface_area()
    }

    /// The box dilated by `margin` on every side.
    #[inline]
    pub fn dilated(&self, margin: f32) -> Aabb {
        debug_assert!(margin >= 0.0);
        let m = Vec3::new(margin, margin, margin);
        Aabb {
            min: self.min - m,
            max: self.max + m,
        }
    }

    /// Fraction of `self`'s volume overlapped by `other` ∈ [0, 1].
    ///
    /// Used by the selectivity histogram for partial-bucket interpolation.
    pub fn overlap_fraction(&self, other: &Aabb) -> f64 {
        let v = self.volume();
        if v <= 0.0 {
            return if self.intersects(other) { 1.0 } else { 0.0 };
        }
        let inter = self.intersection(other);
        if inter.is_empty() {
            0.0
        } else {
            (inter.volume() / v).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Aabb {
        Aabb::new(Point3::ORIGIN, Point3::splat(1.0))
    }

    #[test]
    fn contains_is_inclusive_on_both_faces() {
        let b = unit();
        assert!(b.contains(Point3::ORIGIN));
        assert!(b.contains(Point3::splat(1.0)));
        assert!(b.contains(Point3::splat(0.5)));
        assert!(!b.contains(Point3::new(1.0001, 0.5, 0.5)));
        assert!(!b.contains(Point3::new(0.5, -0.0001, 0.5)));
    }

    #[test]
    fn empty_box_behaves_as_identity() {
        let e = Aabb::EMPTY;
        assert!(e.is_empty());
        assert_eq!(e.volume(), 0.0);
        let b = unit();
        assert_eq!(e.union(&b), b);
        assert!(!e.contains(Point3::ORIGIN));
    }

    #[test]
    fn volume_and_surface_area() {
        let b = Aabb::new(Point3::ORIGIN, Point3::new(2.0, 3.0, 4.0));
        assert_eq!(b.volume(), 24.0);
        assert_eq!(b.surface_area(), 2.0 * (6.0 + 12.0 + 8.0));
    }

    #[test]
    fn intersection_tests() {
        let a = unit();
        let b = Aabb::new(Point3::splat(0.5), Point3::splat(2.0));
        let c = Aabb::new(Point3::splat(1.5), Point3::splat(2.0));
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        // Touching faces count as intersecting (closed intervals).
        let d = Aabb::new(Point3::new(1.0, 0.0, 0.0), Point3::new(2.0, 1.0, 1.0));
        assert!(a.intersects(&d));
    }

    #[test]
    fn dist_sq_inside_is_zero_outside_positive() {
        let b = unit();
        assert_eq!(b.dist_sq(Point3::splat(0.5)), 0.0);
        assert_eq!(b.dist_sq(Point3::new(2.0, 0.5, 0.5)), 1.0);
        // Corner distance.
        let d = b.dist_sq(Point3::new(2.0, 2.0, 2.0));
        assert!((d - 3.0).abs() < 1e-6);
    }

    #[test]
    fn dist_sq_is_zero_exactly_when_contained_even_for_nan() {
        let b = unit();
        let nan_point = Point3::new(f32::NAN, 0.5, 0.5);
        let nan_corner = Aabb {
            min: Point3::new(f32::NAN, 0.1, 0.1),
            max: Point3::splat(0.7),
        };
        // `f32::max` drops NaN: before the containment guard each of
        // these read 0, which the directed walk takes for "found".
        assert!(!b.contains(nan_point));
        assert_eq!(b.dist_sq(nan_point), f32::INFINITY);
        assert_eq!(b.dist_sq(Point3::splat(f32::NAN)), f32::INFINITY);
        assert!(!nan_corner.contains(Point3::splat(0.5)));
        assert_eq!(nan_corner.dist_sq(Point3::splat(0.5)), f32::INFINITY);
        // A finite point outside a finite box stays at its true distance.
        assert_eq!(nan_corner.dist_sq(Point3::new(0.5, 0.5, 1.7)), 1.0);
        // Underflow: 1e-30 outside squares to 0, yet is not inside.
        let tiny = Aabb::new(Point3::ORIGIN, Point3::splat(1e-30));
        let hair = Point3::new(2e-30, 0.0, 0.0);
        assert!(!tiny.contains(hair));
        assert_eq!(tiny.dist_sq(hair), f32::INFINITY);
        // Inverted and zero-volume boxes obey the same contract.
        let inverted = Aabb {
            min: Point3::splat(0.7),
            max: Point3::splat(0.3),
        };
        assert!(inverted.dist_sq(Point3::splat(0.5)) > 0.0);
        let point_box = Aabb::new(Point3::splat(0.5), Point3::splat(0.5));
        assert_eq!(point_box.dist_sq(Point3::splat(0.5)), 0.0);
        assert!(point_box.dist_sq(Point3::new(0.5, 0.5, 0.6)) > 0.0);
    }

    #[test]
    fn boundary_dist_inside_and_out() {
        let b = unit();
        // Outside: equals the box distance.
        assert_eq!(b.boundary_dist(Point3::new(2.0, 0.5, 0.5)), 1.0);
        // On a face: zero.
        assert_eq!(b.boundary_dist(Point3::new(1.0, 0.5, 0.5)), 0.0);
        // Inside: distance to the nearest face.
        assert!((b.boundary_dist(Point3::new(0.9, 0.5, 0.5)) - 0.1).abs() < 1e-6);
        assert!((b.boundary_dist(Point3::splat(0.5)) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn union_contains_both() {
        let a = unit();
        let b = Aabb::new(Point3::splat(2.0), Point3::splat(3.0));
        let u = a.union(&b);
        assert!(u.contains_box(&a));
        assert!(u.contains_box(&b));
    }

    #[test]
    fn intersection_of_disjoint_is_empty() {
        let a = unit();
        let b = Aabb::new(Point3::splat(2.0), Point3::splat(3.0));
        assert!(a.intersection(&b).is_empty());
        let c = Aabb::new(Point3::splat(0.25), Point3::splat(0.75));
        assert_eq!(a.intersection(&c), c);
    }

    #[test]
    fn overlap_fraction_partial() {
        let a = unit();
        let half = Aabb::new(Point3::ORIGIN, Point3::new(0.5, 1.0, 1.0));
        assert!((a.overlap_fraction(&half) - 0.5).abs() < 1e-9);
        assert_eq!(
            a.overlap_fraction(&Aabb::new(Point3::splat(5.0), Point3::splat(6.0))),
            0.0
        );
        assert_eq!(a.overlap_fraction(&a), 1.0);
    }

    #[test]
    fn from_points_bounds_all() {
        let pts = [
            Point3::new(0.0, 5.0, -1.0),
            Point3::new(2.0, -3.0, 4.0),
            Point3::new(1.0, 1.0, 1.0),
        ];
        let b = Aabb::from_points(pts);
        for p in pts {
            assert!(b.contains(p));
        }
        assert_eq!(b.min, Point3::new(0.0, -3.0, -1.0));
        assert_eq!(b.max, Point3::new(2.0, 5.0, 4.0));
    }

    #[test]
    fn dilated_grows_every_side() {
        let b = unit().dilated(0.5);
        assert_eq!(b.min, Point3::splat(-0.5));
        assert_eq!(b.max, Point3::splat(1.5));
    }

    #[test]
    fn cube_constructor() {
        let b = Aabb::cube(Point3::splat(1.0), 0.25);
        assert_eq!(b.min, Point3::splat(0.75));
        assert_eq!(b.max, Point3::splat(1.25));
    }
}
