//! Equi-width spatial histogram for selectivity estimation.
//!
//! The analytical model (§IV-G) needs an estimate of query selectivity:
//! "we use the histogram based estimation technique proposed in \[2\]".
//! This is the baseline equi-width member of that family: bucket counts
//! over a uniform 3-D grid, with partial-overlap interpolation (a query
//! covering 30 % of a bucket's volume is charged 30 % of its count).

use octopus_geom::{Aabb, Point3};

/// Per-batch invariants of a histogram probe, hoisted once by
/// [`SelectivityHistogram::grid`]: clamped per-axis extents and bucket
/// sizes. Tied to the histogram it came from — feeding it to another
/// histogram gives garbage estimates (but no UB).
#[derive(Clone, Copy, Debug)]
pub struct HistogramGrid {
    /// Per-axis domain extent, clamped away from zero.
    len: [f32; 3],
    /// Per-axis bucket size.
    bucket: [f32; 3],
    /// Reciprocal bucket volume (buckets are equi-width, so one value
    /// serves every partial-overlap interpolation — the division the
    /// naive path re-pays per visited bucket). `0.0` flags a degenerate
    /// (flat) domain, which falls back to the exact overlap test.
    inv_bucket_vol: f64,
}

/// A 3-D equi-width histogram of vertex counts.
#[derive(Clone, Debug)]
pub struct SelectivityHistogram {
    res: usize,
    bounds: Aabb,
    counts: Vec<u32>,
    total: usize,
}

impl SelectivityHistogram {
    /// Builds a histogram with `res³` buckets over `bounds`.
    ///
    /// Positions outside `bounds` are clamped into border buckets, so the
    /// histogram always accounts for every vertex.
    pub fn build(positions: &[Point3], bounds: &Aabb, res: usize) -> SelectivityHistogram {
        assert!(res >= 1, "histogram resolution must be at least 1");
        let mut counts = vec![0u32; res * res * res];
        for p in positions {
            counts[Self::bucket_of(p, bounds, res)] += 1;
        }
        SelectivityHistogram {
            res,
            bounds: *bounds,
            counts,
            total: positions.len(),
        }
    }

    fn bucket_of(p: &Point3, bounds: &Aabb, res: usize) -> usize {
        let e = bounds.extent();
        let mut idx = [0usize; 3];
        for axis in 0..3 {
            let len = e[axis].max(f32::MIN_POSITIVE);
            let t = ((p[axis] - bounds.min[axis]) / len * res as f32).floor();
            idx[axis] = (t.max(0.0) as usize).min(res - 1);
        }
        idx[0] + res * (idx[1] + res * idx[2])
    }

    /// Precomputes the per-probe invariants — grid extents and bucket
    /// sizes, which [`SelectivityHistogram::estimate_selectivity`] would
    /// otherwise re-derive (including three divisions per visited
    /// bucket) on every call. Build one per *batch* and feed it to
    /// [`SelectivityHistogram::estimate_selectivity_with`]; the
    /// single-query path builds a throwaway one, so both paths compute
    /// bit-identical estimates.
    pub fn grid(&self) -> HistogramGrid {
        let e = self.bounds.extent();
        let r = self.res as f32;
        let bucket = [e.x / r, e.y / r, e.z / r];
        let vol = f64::from(bucket[0]) * f64::from(bucket[1]) * f64::from(bucket[2]);
        HistogramGrid {
            len: [
                e.x.max(f32::MIN_POSITIVE),
                e.y.max(f32::MIN_POSITIVE),
                e.z.max(f32::MIN_POSITIVE),
            ],
            bucket,
            inv_bucket_vol: if vol > 0.0 { 1.0 / vol } else { 0.0 },
        }
    }

    /// Bounds of bucket `(x, y, z)` under precomputed bucket sizes.
    #[inline]
    fn bucket_bounds(&self, g: &HistogramGrid, x: usize, y: usize, z: usize) -> Aabb {
        let [sx, sy, sz] = g.bucket;
        let min = Point3::new(
            self.bounds.min.x + x as f32 * sx,
            self.bounds.min.y + y as f32 * sy,
            self.bounds.min.z + z as f32 * sz,
        );
        Aabb::new(min, Point3::new(min.x + sx, min.y + sy, min.z + sz))
    }

    /// Estimated fraction of vertices inside `q` (the `Selectivity%`
    /// input of Eq. 2–6), in `[0, 1]`.
    pub fn estimate_selectivity(&self, q: &Aabb) -> f64 {
        self.estimate_selectivity_with(&self.grid(), q)
    }

    /// [`SelectivityHistogram::estimate_selectivity`] with the per-batch
    /// invariants hoisted into a caller-held [`HistogramGrid`] — the
    /// batch-probe entry point `Planner::decide_batch` uses (one `grid()`
    /// per batch instead of one per query).
    #[inline]
    pub fn estimate_selectivity_with(&self, g: &HistogramGrid, q: &Aabb) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let r = self.res;
        // Bucket index range overlapped by q.
        let mut lo = [0usize; 3];
        let mut hi = [0usize; 3];
        for axis in 0..3 {
            let len = g.len[axis];
            let t0 = ((q.min[axis] - self.bounds.min[axis]) / len * r as f32).floor();
            let t1 = ((q.max[axis] - self.bounds.min[axis]) / len * r as f32).floor();
            lo[axis] = (t0.max(0.0) as usize).min(r - 1);
            hi[axis] = (t1.max(0.0) as usize).min(r - 1);
        }
        let mut expected = 0.0f64;
        for z in lo[2]..=hi[2] {
            for y in lo[1]..=hi[1] {
                for x in lo[0]..=hi[0] {
                    let count = self.counts[x + r * (y + r * z)];
                    if count == 0 {
                        continue;
                    }
                    let b = self.bucket_bounds(g, x, y, z);
                    // Equi-width buckets: one precomputed reciprocal
                    // replaces the per-bucket volume division of
                    // `overlap_fraction` (degenerate domains fall back
                    // to the exact test).
                    let frac = if g.inv_bucket_vol > 0.0 {
                        let inter = b.intersection(q);
                        if inter.is_empty() {
                            0.0
                        } else {
                            (inter.volume() * g.inv_bucket_vol).clamp(0.0, 1.0)
                        }
                    } else {
                        b.overlap_fraction(q)
                    };
                    expected += f64::from(count) * frac;
                }
            }
        }
        (expected / self.total as f64).clamp(0.0, 1.0)
    }

    /// Estimated number of result vertices for `q`.
    pub fn estimate_count(&self, q: &Aabb) -> f64 {
        self.estimate_selectivity(q) * self.total as f64
    }

    /// Heap bytes used by the histogram.
    pub fn memory_bytes(&self) -> usize {
        self.counts.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::random_points;

    fn unit_bounds() -> Aabb {
        Aabb::new(Point3::ORIGIN, Point3::splat(1.0))
    }

    /// Reference estimator: grid geometry re-derived per query, bucket
    /// sizes re-divided per visited bucket and the exact
    /// `overlap_fraction` per bucket — no [`HistogramGrid`].
    fn estimate_selectivity_naive(h: &SelectivityHistogram, q: &Aabb) -> f64 {
        if h.total == 0 {
            return 0.0;
        }
        let r = h.res;
        let e = h.bounds.extent();
        let mut lo = [0usize; 3];
        let mut hi = [0usize; 3];
        for axis in 0..3 {
            let len = e[axis].max(f32::MIN_POSITIVE);
            let t0 = ((q.min[axis] - h.bounds.min[axis]) / len * r as f32).floor();
            let t1 = ((q.max[axis] - h.bounds.min[axis]) / len * r as f32).floor();
            lo[axis] = (t0.max(0.0) as usize).min(r - 1);
            hi[axis] = (t1.max(0.0) as usize).min(r - 1);
        }
        let mut expected = 0.0f64;
        for z in lo[2]..=hi[2] {
            for y in lo[1]..=hi[1] {
                for x in lo[0]..=hi[0] {
                    let count = h.counts[x + r * (y + r * z)];
                    if count == 0 {
                        continue;
                    }
                    let (sx, sy, sz) = (e.x / r as f32, e.y / r as f32, e.z / r as f32);
                    let min = Point3::new(
                        h.bounds.min.x + x as f32 * sx,
                        h.bounds.min.y + y as f32 * sy,
                        h.bounds.min.z + z as f32 * sz,
                    );
                    let b = Aabb::new(min, Point3::new(min.x + sx, min.y + sy, min.z + sz));
                    expected += f64::from(count) * b.overlap_fraction(q);
                }
            }
        }
        (expected / h.total as f64).clamp(0.0, 1.0)
    }

    #[test]
    fn hoisted_estimate_equals_the_naive_reference() {
        // The hoisted path multiplies by a precomputed reciprocal of the
        // exact bucket volume where the reference divides per bucket, so
        // the two agree at f32 precision, not bit for bit.
        let pts = random_points(20_000, 54);
        let h = SelectivityHistogram::build(&pts, &unit_bounds(), 8);
        for i in 1..=32 {
            let q = Aabb::cube(Point3::new(0.03 * i as f32, 0.5, 0.5), 0.012 * i as f32);
            let (hoisted, naive) = (
                h.estimate_selectivity(&q),
                estimate_selectivity_naive(&h, &q),
            );
            let rel = (hoisted - naive).abs() / naive.max(1e-300);
            assert!(rel < 1e-5, "query {i}: {hoisted} vs {naive}");
        }
    }

    #[test]
    fn whole_domain_has_selectivity_one() {
        let pts = random_points(1_000, 51);
        let h = SelectivityHistogram::build(&pts, &unit_bounds(), 8);
        let s = h.estimate_selectivity(&unit_bounds());
        assert!((s - 1.0).abs() < 1e-9, "{s}");
        assert!((h.estimate_count(&unit_bounds()) - 1_000.0).abs() < 1e-6);
    }

    #[test]
    fn disjoint_query_has_selectivity_zero() {
        let pts = random_points(100, 52);
        let h = SelectivityHistogram::build(&pts, &unit_bounds(), 4);
        let far = Aabb::new(Point3::splat(5.0), Point3::splat(6.0));
        // Query outside bounds still hits clamped border buckets but with
        // zero volume overlap.
        assert_eq!(h.estimate_selectivity(&far), 0.0);
    }

    #[test]
    fn uniform_data_estimates_match_volume_fraction() {
        let pts = random_points(50_000, 53);
        let h = SelectivityHistogram::build(&pts, &unit_bounds(), 10);
        let q = Aabb::new(Point3::new(0.2, 0.2, 0.2), Point3::new(0.7, 0.7, 0.7));
        let est = h.estimate_selectivity(&q);
        let volume_fraction = q.volume(); // unit domain
        assert!(
            (est - volume_fraction).abs() < 0.02,
            "estimate {est} vs volume {volume_fraction}"
        );
        // And both should be close to the true selectivity.
        let actual = pts.iter().filter(|p| q.contains(**p)).count() as f64 / pts.len() as f64;
        assert!(
            (est - actual).abs() < 0.02,
            "estimate {est} vs actual {actual}"
        );
    }

    #[test]
    fn partial_bucket_interpolation() {
        // One point per bucket along x on a res-2 histogram.
        let pts = vec![Point3::new(0.25, 0.5, 0.5), Point3::new(0.75, 0.5, 0.5)];
        let h = SelectivityHistogram::build(&pts, &unit_bounds(), 2);
        // A query covering exactly the left half charges the whole left
        // bucket and none of the right.
        let left = Aabb::new(Point3::ORIGIN, Point3::new(0.5, 1.0, 1.0));
        assert!((h.estimate_selectivity(&left) - 0.5).abs() < 1e-6);
        // A quarter-width slab covers half the left bucket's volume.
        let slab = Aabb::new(Point3::ORIGIN, Point3::new(0.25, 1.0, 1.0));
        assert!((h.estimate_selectivity(&slab) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn skewed_data_beats_volume_assumption() {
        // Everything clustered in one corner.
        let pts: Vec<Point3> = (0..1_000)
            .map(|i| Point3::new(0.05 + (i % 10) as f32 * 0.001, 0.05, 0.05))
            .collect();
        let h = SelectivityHistogram::build(&pts, &unit_bounds(), 8);
        let corner = Aabb::new(Point3::ORIGIN, Point3::splat(0.125));
        let est = h.estimate_selectivity(&corner);
        assert!(est > 0.9, "histogram must see the cluster: {est}");
        let empty_corner = Aabb::new(Point3::splat(0.875), Point3::splat(1.0));
        assert!(h.estimate_selectivity(&empty_corner) < 1e-9);
    }

    #[test]
    fn empty_histogram() {
        let h = SelectivityHistogram::build(&[], &unit_bounds(), 4);
        assert_eq!(h.estimate_selectivity(&unit_bounds()), 0.0);
        assert!(h.memory_bytes() > 0);
    }
}
