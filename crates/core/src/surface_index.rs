//! The mesh surface index (§IV-E).
//!
//! "The surface index is implemented using a hash table where the vertex
//! identifier serves as the hash-key and the hash-value represents a
//! pointer to the surface vertex in memory. During the surface probe, all
//! surface vertices are accessed via the pointers in the hash table in no
//! particular order."
//!
//! The index is built **once** before the simulation; deformation never
//! touches it, and restructuring applies O(delta) hash inserts/deletes
//! ([`SurfaceIndex::apply_delta`]). For cache-friendly probing the ids
//! are additionally kept in a dense vector (the hash map stores each id's
//! slot so deletion stays O(1) via swap-remove), so a probe streams a
//! contiguous array instead of iterating the hash map.

use octopus_geom::VertexId;
use octopus_mesh::{Mesh, MeshError, Surface, SurfaceDelta};
use std::collections::HashMap;

/// Hash-based index over the mesh's surface vertices.
///
/// ```
/// use octopus_core::SurfaceIndex;
/// use octopus_geom::{Aabb, Point3};
/// use octopus_meshgen::{tet::tetrahedralize, VoxelRegion};
///
/// let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
/// let mesh = tetrahedralize(&VoxelRegion::solid_box(&bounds, 4, 4, 4))?;
/// let index = SurfaceIndex::build(&mesh)?;
/// // A 4³ lattice has 5³ vertices of which 3³ are interior.
/// assert_eq!(index.len(), 125 - 27);
/// # Ok::<(), octopus_mesh::MeshError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct SurfaceIndex {
    /// id → slot in `dense` (the paper's hash table).
    slots: HashMap<VertexId, u32>,
    /// Dense id list for sequential probing.
    dense: Vec<VertexId>,
}

impl SurfaceIndex {
    /// Builds the index by extracting the mesh surface via the global
    /// face list (§IV-E1). One-time cost, reported separately from query
    /// time in the paper (62 s for the 33 GB dataset); here ≈ 70 ms for
    /// the 36 MB L5 benchmark mesh in generator order, ≈ 90 ms in
    /// Hilbert order (`octopus_mesh::surface`: faces matched under
    /// their smallest vertex).
    pub fn build(mesh: &Mesh) -> Result<SurfaceIndex, MeshError> {
        Ok(SurfaceIndex::from_surface(&mesh.surface()?))
    }

    /// Builds the index from an already extracted [`Surface`].
    pub fn from_surface(surface: &Surface) -> SurfaceIndex {
        SurfaceIndex::from_dense(surface.vertices().to_vec())
    }

    /// The index probing `dense` (distinct ids) in the given order.
    fn from_dense(dense: Vec<VertexId>) -> SurfaceIndex {
        let slots = dense
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        SurfaceIndex { slots, dense }
    }

    /// Number of surface vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.dense.len()
    }

    /// True when the mesh has no surface vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dense.is_empty()
    }

    /// True when `v` is a surface vertex.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.slots.contains_key(&v)
    }

    /// The surface vertex ids, in no particular order (the probe order).
    #[inline]
    pub fn ids(&self) -> &[VertexId] {
        &self.dense
    }

    /// Inserts a vertex (restructuring made it a surface vertex).
    /// Idempotent.
    pub fn insert(&mut self, v: VertexId) {
        if let std::collections::hash_map::Entry::Vacant(e) = self.slots.entry(v) {
            e.insert(self.dense.len() as u32);
            self.dense.push(v);
        }
    }

    /// Removes a vertex (restructuring took it off the surface). O(1)
    /// via swap-remove. Idempotent.
    pub fn remove(&mut self, v: VertexId) {
        if let Some(slot) = self.slots.remove(&v) {
            let last = self.dense.len() as u32 - 1;
            self.dense.swap_remove(slot as usize);
            if slot != last {
                let moved = self.dense[slot as usize];
                self.slots.insert(moved, slot);
            }
        }
    }

    /// Applies a restructuring delta: "the surface index is updated with
    /// insert or delete operations on the hash table" (§IV-E2).
    pub fn apply_delta(&mut self, delta: &SurfaceDelta) {
        for &v in &delta.removed {
            self.remove(v);
        }
        for &v in &delta.added {
            self.insert(v);
        }
    }

    /// The index of the same surface after a vertex relabelling (vertex
    /// `old` becomes `perm[old]`): every id is mapped through `perm` and
    /// the probe order re-sorted ascending, as a fresh build has it. A
    /// relabelling is a re-layout, and the probe reads positions in
    /// this order: delta maintenance (swap-remove, append) scrambles it
    /// over time, and this is where it follows the new layout again.
    /// O(S log S), no extraction.
    pub fn permuted(&self, perm: &[VertexId]) -> SurfaceIndex {
        let mut dense: Vec<VertexId> = self.dense.iter().map(|&v| perm[v as usize]).collect();
        dense.sort_unstable();
        SurfaceIndex::from_dense(dense)
    }

    /// Surface-to-volume ratio `S` over a mesh of `num_vertices`
    /// vertices (0 for the empty mesh) — the probe-cost factor of Eq. 1,
    /// read off the maintained index instead of a fresh extraction.
    pub fn ratio(&self, num_vertices: usize) -> f64 {
        if num_vertices == 0 {
            0.0
        } else {
            self.dense.len() as f64 / num_vertices as f64
        }
    }

    /// Heap bytes: hash table + dense vector (the "27 MB surface index"
    /// component of the paper's Fig. 10(b) accounting).
    pub fn memory_bytes(&self) -> usize {
        self.slots.capacity() * (std::mem::size_of::<(VertexId, u32)>() + 1)
            + self.dense.capacity() * std::mem::size_of::<VertexId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_geom::{Aabb, Point3};
    use octopus_meshgen::voxel::VoxelRegion;

    fn box_mesh(n: usize) -> Mesh {
        let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        octopus_meshgen::tet::tetrahedralize(&VoxelRegion::solid_box(&bounds, n, n, n)).unwrap()
    }

    #[test]
    fn build_matches_surface_extraction() {
        let mesh = box_mesh(3);
        let idx = SurfaceIndex::build(&mesh).unwrap();
        let surface = mesh.surface().unwrap();
        assert_eq!(idx.len(), surface.len());
        for &v in surface.vertices() {
            assert!(idx.contains(v));
        }
        let mut ids = idx.ids().to_vec();
        ids.sort_unstable();
        assert_eq!(ids, surface.vertices());
    }

    #[test]
    fn insert_and_remove_are_idempotent_and_consistent() {
        let mut idx = SurfaceIndex::default();
        idx.insert(5);
        idx.insert(9);
        idx.insert(5);
        assert_eq!(idx.len(), 2);
        idx.remove(5);
        idx.remove(5);
        assert_eq!(idx.len(), 1);
        assert!(!idx.contains(5));
        assert!(idx.contains(9));
        // Internal consistency: slot of every dense id maps back.
        for (i, &v) in idx.ids().iter().enumerate() {
            assert_eq!(idx.slots[&v], i as u32);
        }
    }

    #[test]
    fn swap_remove_fixes_moved_slot() {
        let mut idx = SurfaceIndex::default();
        for v in [10, 20, 30, 40] {
            idx.insert(v);
        }
        idx.remove(10); // 40 moves into slot 0
        assert!(idx.contains(40));
        idx.remove(40);
        assert_eq!(idx.len(), 2);
        let mut ids = idx.ids().to_vec();
        ids.sort_unstable();
        assert_eq!(ids, vec![20, 30]);
    }

    #[test]
    fn apply_delta_after_real_restructuring_matches_fresh_build() {
        let mut mesh = box_mesh(3);
        mesh.enable_restructuring().unwrap();
        let mut idx = SurfaceIndex::build(&mesh).unwrap();
        // Remove several cells; apply deltas incrementally.
        for c in [0u32, 7, 13, 22, 40] {
            let delta = mesh.remove_cell(c).unwrap();
            idx.apply_delta(&delta);
        }
        let fresh = SurfaceIndex::build(&mesh).unwrap();
        assert_eq!(idx.len(), fresh.len());
        let mut a = idx.ids().to_vec();
        let mut b = fresh.ids().to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "incremental maintenance must equal a rebuild");
    }

    #[test]
    fn deformation_requires_no_maintenance() {
        // The index is position-free: moving vertices cannot invalidate
        // it. (Type-level property — there is no position anywhere in the
        // struct — but assert behaviour too.)
        let mut mesh = box_mesh(2);
        let idx = SurfaceIndex::build(&mesh).unwrap();
        let before = idx.ids().to_vec();
        for p in mesh.positions_mut() {
            *p = Point3::new(p.x * 3.0 - 1.0, p.y + 10.0, -p.z);
        }
        let rebuilt = SurfaceIndex::build(&mesh).unwrap();
        let mut a = before;
        let mut b = rebuilt.ids().to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn memory_accounting() {
        let mesh = box_mesh(4);
        let idx = SurfaceIndex::build(&mesh).unwrap();
        assert!(idx.memory_bytes() >= idx.len() * 4);
    }
}
