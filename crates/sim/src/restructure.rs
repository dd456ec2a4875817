//! Scheduled restructuring events (§IV-E2).
//!
//! "Restructuring the mesh during simulation, on the other hand, can
//! change the surface vertices as polyhedra may be split, thus increasing
//! the number of vertices on the surface, or merged, hence reducing the
//! vertices on the surface." The paper notes this is rarely implemented;
//! we inject it deliberately to exercise the incremental insert/delete
//! maintenance of the executor's surface.

use octopus_geom::rng::SplitMix64;
use octopus_mesh::{CellKind, Mesh, MeshError, SurfaceDelta};

/// A single restructuring action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestructureEvent {
    /// Remove (merge away) one cell — may expose interior faces.
    RemoveCell,
    /// Split one tetrahedron into four around its centroid.
    RefineTet,
}

/// Fires a batch of random restructuring events every `period` steps.
#[derive(Debug)]
pub struct RestructureSchedule {
    period: u32,
    ops_per_event: usize,
    rng: SplitMix64,
    fired: usize,
}

impl RestructureSchedule {
    /// Fires `ops_per_event` random operations whenever
    /// `step % period == 0`.
    pub fn new(period: u32, ops_per_event: usize, seed: u64) -> RestructureSchedule {
        assert!(period >= 1 && ops_per_event >= 1);
        RestructureSchedule {
            period,
            ops_per_event,
            rng: SplitMix64::new(seed),
            fired: 0,
        }
    }

    /// Number of times the schedule has fired.
    pub fn events_fired(&self) -> usize {
        self.fired
    }

    /// Whether the schedule will fire at `step`. Pure predicate — the
    /// simulation supervisor uses it to classify the upcoming step as a
    /// restructuring step *before* computing it (fault-injection sites
    /// distinguish "failed restructure" from "failed deformation").
    pub fn fires_at(&self, step: u32) -> bool {
        step.is_multiple_of(self.period)
    }

    /// Fires if due; returns the merged surface delta of all operations.
    pub fn maybe_fire(&mut self, step: u32, mesh: &mut Mesh) -> Result<SurfaceDelta, MeshError> {
        if !step.is_multiple_of(self.period) {
            return Ok(SurfaceDelta::default());
        }
        self.fired += 1;
        let mut merged = SurfaceDelta::default();
        for _ in 0..self.ops_per_event {
            if mesh.num_cells() <= 1 {
                break;
            }
            let delta = self.fire_one(mesh)?;
            merge_delta(&mut merged, delta);
        }
        Ok(merged)
    }

    fn fire_one(&mut self, mesh: &mut Mesh) -> Result<SurfaceDelta, MeshError> {
        // Pick a random live cell (rejection sampling over stable ids).
        let cap = mesh.cell_capacity();
        let cell = loop {
            let c = self.rng.index(cap) as u32;
            if mesh.is_cell_alive(c) {
                break c;
            }
        };
        let refine_ok = mesh.kind() == CellKind::Tet4;
        let event = if refine_ok && self.rng.chance(0.5) {
            RestructureEvent::RefineTet
        } else {
            RestructureEvent::RemoveCell
        };
        match event {
            RestructureEvent::RemoveCell => mesh.remove_cell(cell),
            RestructureEvent::RefineTet => mesh.refine_tet(cell).map(|(_, d)| d),
        }
    }
}

/// Net effect of two deltas applied in sequence: a vertex added then
/// removed (or vice versa) cancels out; the touched vertices and the cut
/// edges unite, the operation counts add up.
fn merge_delta(acc: &mut SurfaceDelta, next: SurfaceDelta) {
    acc.ops += next.ops;
    acc.touched.extend(next.touched);
    acc.touched.sort_unstable();
    acc.touched.dedup();
    acc.cut.extend(next.cut);
    acc.cut.sort_unstable();
    acc.cut.dedup();
    for v in next.added {
        if let Some(pos) = acc.removed.iter().position(|&r| r == v) {
            acc.removed.swap_remove(pos);
        } else if !acc.added.contains(&v) {
            acc.added.push(v);
        }
    }
    for v in next.removed {
        if let Some(pos) = acc.added.iter().position(|&a| a == v) {
            acc.added.swap_remove(pos);
        } else if !acc.removed.contains(&v) {
            acc.removed.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_geom::{Aabb, Point3};
    use octopus_meshgen::voxel::VoxelRegion;

    fn small_mesh() -> Mesh {
        let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        let mut m = octopus_meshgen::tet::tetrahedralize(&VoxelRegion::solid_box(&bounds, 3, 3, 3))
            .unwrap();
        m.enable_restructuring().unwrap();
        m
    }

    #[test]
    fn schedule_only_fires_on_period() {
        let mut m = small_mesh();
        let mut s = RestructureSchedule::new(5, 2, 1);
        for step in 1..=4 {
            let d = s.maybe_fire(step, &mut m).unwrap();
            assert!(d.is_empty());
        }
        assert_eq!(s.events_fired(), 0);
        s.maybe_fire(5, &mut m).unwrap();
        assert_eq!(s.events_fired(), 1);
    }

    #[test]
    fn deltas_track_full_recomputation() {
        let mut m = small_mesh();
        let mut s = RestructureSchedule::new(1, 4, 123);
        // Maintain membership incrementally from deltas and compare with
        // the mesh's own (face-table-backed) surface each round.
        let mut membership: Vec<bool> = {
            let surf = m.surface().unwrap();
            (0..m.num_vertices() as u32)
                .map(|v| surf.contains(v))
                .collect()
        };
        for step in 1..=10 {
            let delta = s.maybe_fire(step, &mut m).unwrap();
            membership.resize(m.num_vertices(), false);
            for &v in &delta.added {
                assert!(!membership[v as usize], "step {step}: double add of {v}");
                membership[v as usize] = true;
            }
            for &v in &delta.removed {
                assert!(membership[v as usize], "step {step}: removing absent {v}");
                membership[v as usize] = false;
            }
            let surf = m.surface().unwrap();
            for v in 0..m.num_vertices() as u32 {
                assert_eq!(
                    membership[v as usize],
                    surf.contains(v),
                    "step {step}: drift at vertex {v}"
                );
            }
        }
    }

    #[test]
    fn merge_delta_cancels_opposites() {
        let mut acc = SurfaceDelta {
            added: vec![1, 2],
            removed: vec![3],
            touched: vec![1, 2, 3, 9],
            cut: vec![(2, 9)],
            ops: 1,
        };
        merge_delta(
            &mut acc,
            SurfaceDelta {
                added: vec![3, 4],
                removed: vec![1],
                touched: vec![1, 3, 4, 7],
                cut: vec![(1, 7), (2, 9)],
                ops: 2,
            },
        );
        acc.added.sort_unstable();
        acc.removed.sort_unstable();
        assert_eq!(acc.added, vec![2, 4]);
        assert!(acc.removed.is_empty());
        // Touched vertices and cut edges unite (sorted, distinct);
        // operations add up.
        assert_eq!(acc.touched, vec![1, 2, 3, 4, 7, 9]);
        assert_eq!(acc.cut, vec![(1, 7), (2, 9)]);
        assert_eq!(acc.ops, 3);
    }

    #[test]
    fn a_fired_event_accounts_for_every_epoch_it_advanced() {
        let mut m = small_mesh();
        let mut s = RestructureSchedule::new(1, 3, 5);
        for step in 1..=6 {
            let before = m.restructure_epoch();
            let delta = s.maybe_fire(step, &mut m).unwrap();
            assert_eq!(before + delta.ops, m.restructure_epoch(), "step {step}");
            assert_eq!(delta.ops, 3, "step {step}");
            assert!(delta.touched.windows(2).all(|w| w[0] < w[1]));
            assert!(
                delta.touched.len() >= 4,
                "step {step}: a cell's vertices at least"
            );
        }
    }

    #[test]
    fn schedule_survives_mesh_shrinking_to_one_cell() {
        let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        let mut m = octopus_meshgen::tet::tetrahedralize(&VoxelRegion::solid_box(&bounds, 1, 1, 1))
            .unwrap();
        m.enable_restructuring().unwrap();
        let mut s = RestructureSchedule::new(1, 50, 7);
        for step in 1..=3 {
            s.maybe_fire(step, &mut m).unwrap();
        }
        assert!(m.num_cells() >= 1, "never removes the last cell");
    }
}
