//! Masked uniform voxel grids — the shared substrate of all generators.

use octopus_geom::{Aabb, Point3, Vec3};

/// A uniform grid of `nx × ny × nz` voxels over a bounding box, with a
/// boolean mask selecting the voxels that belong to the solid.
#[derive(Clone, Debug)]
pub struct VoxelRegion {
    nx: usize,
    ny: usize,
    nz: usize,
    origin: Point3,
    cell: f32,
    mask: Vec<bool>,
}

impl VoxelRegion {
    /// Builds a region by sampling `inside` at every voxel centre.
    ///
    /// The grid covers `bounds` with `nx × ny × nz` voxels; the voxel edge
    /// length is `bounds.extent().x / nx` (callers should pass dimensions
    /// proportional to the extents for cubic voxels — the constructors in
    /// [`crate::datasets`] do).
    pub fn from_fn(
        bounds: &Aabb,
        nx: usize,
        ny: usize,
        nz: usize,
        mut inside: impl FnMut(Point3) -> bool,
    ) -> VoxelRegion {
        assert!(nx > 0 && ny > 0 && nz > 0, "voxel grid must be non-empty");
        let cell = bounds.extent().x / nx as f32;
        let origin = bounds.min;
        let mut mask = vec![false; nx * ny * nz];
        let mut idx = 0;
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let c = Point3::new(
                        origin.x + (i as f32 + 0.5) * cell,
                        origin.y + (j as f32 + 0.5) * cell,
                        origin.z + (k as f32 + 0.5) * cell,
                    );
                    mask[idx] = inside(c);
                    idx += 1;
                }
            }
        }
        VoxelRegion {
            nx,
            ny,
            nz,
            origin,
            cell,
            mask,
        }
    }

    /// A fully solid box (every voxel set) — the convex earthquake-basin
    /// shape.
    pub fn solid_box(bounds: &Aabb, nx: usize, ny: usize, nz: usize) -> VoxelRegion {
        VoxelRegion::from_fn(bounds, nx, ny, nz, |_| true)
    }

    /// Grid dimensions `(nx, ny, nz)`.
    #[inline]
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Grid origin (minimum corner of voxel `(0, 0, 0)`).
    #[inline]
    pub fn origin(&self) -> Point3 {
        self.origin
    }

    /// True when voxel `(i, j, k)` is part of the solid.
    #[inline]
    pub fn is_set(&self, i: usize, j: usize, k: usize) -> bool {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        self.mask[i + self.nx * (j + self.ny * k)]
    }

    /// Number of solid voxels.
    pub fn count_set(&self) -> usize {
        self.mask.iter().filter(|&&b| b).count()
    }

    /// Position of lattice point `(i, j, k)` (voxel corners; ranges up to
    /// and including `nx`, `ny`, `nz`).
    #[inline]
    pub fn lattice_point(&self, i: usize, j: usize, k: usize) -> Point3 {
        self.origin
            + Vec3::new(
                i as f32 * self.cell,
                j as f32 * self.cell,
                k as f32 * self.cell,
            )
    }

    /// Iterates the `(i, j, k)` coordinates of solid voxels.
    pub fn set_voxels(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let (nx, ny) = (self.nx, self.ny);
        self.mask
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(move |(idx, _)| {
                let i = idx % nx;
                let j = (idx / nx) % ny;
                let k = idx / (nx * ny);
                (i, j, k)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_bounds() -> Aabb {
        Aabb::new(Point3::ORIGIN, Point3::splat(1.0))
    }

    #[test]
    fn solid_box_sets_everything() {
        let r = VoxelRegion::solid_box(&unit_bounds(), 3, 4, 5);
        assert_eq!(r.count_set(), 60);
        assert_eq!(r.dims(), (3, 4, 5));
        assert!(r.is_set(2, 3, 4));
    }

    #[test]
    fn from_fn_samples_voxel_centres() {
        // Select only voxels whose centre is in the lower half along x.
        let r = VoxelRegion::from_fn(&unit_bounds(), 4, 1, 1, |p| p.x < 0.5);
        assert!(r.is_set(0, 0, 0));
        assert!(r.is_set(1, 0, 0));
        assert!(!r.is_set(2, 0, 0));
        assert!(!r.is_set(3, 0, 0));
        assert_eq!(r.count_set(), 2);
    }

    #[test]
    fn lattice_points_span_bounds() {
        let r = VoxelRegion::solid_box(&unit_bounds(), 4, 4, 4);
        assert_eq!(r.lattice_point(0, 0, 0), Point3::ORIGIN);
        let far = r.lattice_point(4, 4, 4);
        assert!((far.x - 1.0).abs() < 1e-6);
        assert!((far.y - 1.0).abs() < 1e-6);
        assert!((far.z - 1.0).abs() < 1e-6);
    }

    #[test]
    fn set_voxels_roundtrips_mask() {
        let r = VoxelRegion::from_fn(&unit_bounds(), 3, 3, 3, |p| p.x < 0.4 && p.y < 0.4);
        let listed: Vec<_> = r.set_voxels().collect();
        assert_eq!(listed.len(), r.count_set());
        for (i, j, k) in listed {
            assert!(r.is_set(i, j, k));
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_dimension_panics() {
        VoxelRegion::solid_box(&unit_bounds(), 0, 1, 1);
    }
}
