//! Freudenthal/Kuhn tetrahedralization of a masked voxel grid.
//!
//! Every solid voxel is split into six tetrahedra around its main
//! diagonal (the `(0,0,0) → (1,1,1)` corner pair). Because the rule is
//! translation-invariant, the triangle diagonals induced on shared cube
//! faces agree between neighbouring voxels, so the resulting tetrahedral
//! complex is conforming: two adjacent tets share a whole triangular
//! face. Interior vertices of a fully solid grid have degree 14, matching
//! the paper's tetrahedral mesh degree (Fig. 4, \[16\]).

use crate::voxel::VoxelRegion;
use octopus_geom::{Point3, VertexId};
use octopus_mesh::{Mesh, MeshError};

/// The six corner-index paths of the Kuhn decomposition.
///
/// Corners are numbered by bits `(dx, dy, dz) → dx + 2·dy + 4·dz`. Each
/// tet is `(0, first step, second step, 7)` where steps walk one axis at
/// a time from corner 0 to corner 7; the 6 axis orders give 6 tets.
const KUHN_TETS: [[u8; 4]; 6] = [
    [0, 1, 3, 7], // x, y, z
    [0, 1, 5, 7], // x, z, y
    [0, 2, 3, 7], // y, x, z
    [0, 2, 6, 7], // y, z, x
    [0, 4, 5, 7], // z, x, y
    [0, 4, 6, 7], // z, y, x
];

/// Tetrahedralizes the solid voxels of `region` into a conforming mesh.
///
/// Lattice points are shared between voxels (vertices are deduplicated),
/// so the output has `O(solid voxels)` vertices, not `8 × voxels`.
pub fn tetrahedralize(region: &VoxelRegion) -> Result<Mesh, MeshError> {
    let (nx, ny, nz) = region.dims();
    let (lx, ly) = (nx + 1, ny + 1);

    // Dense lattice → vertex-id map. u32::MAX marks "not used yet".
    let mut lattice_id = vec![VertexId::MAX; (nx + 1) * (ny + 1) * (nz + 1)];
    let mut positions: Vec<Point3> = Vec::new();
    let mut tets: Vec<[VertexId; 4]> = Vec::with_capacity(region.count_set() * 6);

    let lattice_index = |i: usize, j: usize, k: usize| i + lx * (j + ly * k);

    for (i, j, k) in region.set_voxels() {
        // Ids of the 8 cube corners, allocating new vertices on demand.
        let mut corner = [0 as VertexId; 8];
        for (bit, c) in corner.iter_mut().enumerate() {
            let (di, dj, dk) = (bit & 1, (bit >> 1) & 1, (bit >> 2) & 1);
            let li = lattice_index(i + di, j + dj, k + dk);
            let id = &mut lattice_id[li];
            if *id == VertexId::MAX {
                if positions.len() + 1 >= VertexId::MAX as usize {
                    return Err(MeshError::TooManyVertices);
                }
                *id = positions.len() as VertexId;
                positions.push(region.lattice_point(i + di, j + dj, k + dk));
            }
            *c = *id;
        }
        for t in &KUHN_TETS {
            tets.push([
                corner[t[0] as usize],
                corner[t[1] as usize],
                corner[t[2] as usize],
                corner[t[3] as usize],
            ]);
        }
    }
    Mesh::from_tets(positions, tets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_geom::Aabb;
    use octopus_mesh::MeshStats;

    fn solid(n: usize) -> Mesh {
        let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(n as f32));
        tetrahedralize(&VoxelRegion::solid_box(&bounds, n, n, n)).unwrap()
    }

    #[test]
    fn counts_for_solid_cube() {
        for n in [1usize, 2, 3, 4] {
            let m = solid(n);
            assert_eq!(m.num_cells(), 6 * n * n * n, "6 tets per voxel");
            assert_eq!(
                m.num_vertices(),
                (n + 1).pow(3),
                "lattice points deduplicated"
            );
        }
    }

    #[test]
    fn surface_of_solid_cube_is_exactly_the_shell() {
        for n in [2usize, 3, 5] {
            let m = solid(n);
            let s = m.surface().unwrap();
            let interior = (n - 1).pow(3);
            let expected_surface = (n + 1).pow(3) - interior;
            assert_eq!(s.len(), expected_surface, "n={n}");
            // Extraction succeeding also proves the decomposition is
            // conforming: a mismatched face diagonal would make interior
            // triangles occur once and inflate the surface.
        }
    }

    #[test]
    fn interior_vertex_degree_is_14() {
        let m = solid(4);
        let s = m.surface().unwrap();
        let interior: Vec<u32> = (0..m.num_vertices() as u32)
            .filter(|&v| !s.contains(v))
            .collect();
        assert!(!interior.is_empty());
        for &v in &interior {
            assert_eq!(m.neighbors(v).len(), 14, "Kuhn interior degree");
        }
    }

    #[test]
    fn mesh_is_valid_and_connected() {
        let m = solid(3);
        let r = octopus_mesh::validate::validate(&m).unwrap();
        assert_eq!(r.components, 1);
        assert_eq!(r.cells_checked, 6 * 27);
    }

    #[test]
    fn disjoint_voxels_give_disjoint_components() {
        let bounds = Aabb::new(Point3::ORIGIN, Point3::new(5.0, 1.0, 1.0));
        // Voxels 0 and 4 along x: gap of 3 empty voxels between them.
        let region = VoxelRegion::from_fn(&bounds, 5, 1, 1, |p| p.x < 1.0 || p.x > 4.0);
        let m = tetrahedralize(&region).unwrap();
        let stats = MeshStats::compute(&m).unwrap();
        assert_eq!(stats.components, 2);
        assert_eq!(m.num_cells(), 12);
        assert_eq!(stats.surface_ratio, 1.0, "isolated voxels are all surface");
    }

    #[test]
    fn mesh_degree_approaches_14_for_large_grids() {
        let m = solid(8);
        let stats = MeshStats::compute(&m).unwrap();
        assert!(
            stats.mesh_degree > 11.0 && stats.mesh_degree < 14.5,
            "degree {} should approach 14",
            stats.mesh_degree
        );
    }

    #[test]
    fn empty_region_yields_empty_mesh() {
        let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        let region = VoxelRegion::from_fn(&bounds, 2, 2, 2, |_| false);
        let m = tetrahedralize(&region).unwrap();
        assert_eq!(m.num_cells(), 0);
        assert_eq!(m.num_vertices(), 0);
    }

    #[test]
    fn positions_lie_on_lattice() {
        let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(2.0));
        let region = VoxelRegion::solid_box(&bounds, 2, 2, 2);
        let m = tetrahedralize(&region).unwrap();
        for p in m.positions() {
            for axis in 0..3 {
                let v = p[axis];
                assert!((v - v.round()).abs() < 1e-6, "lattice coordinate {v}");
                assert!((0.0..=2.0).contains(&v));
            }
        }
    }
}
