//! The simulation driver: the loop of Fig. 1(e).
//!
//! `SIMULATE → MONITOR → SIMULATE → MONITOR → …` — the simulation rewrites
//! every vertex position in place; between steps, monitoring tools query
//! the *latest* state. [`Simulation`] owns the mesh and applies a
//! [`Deformation`] per step; monitoring code borrows the mesh in between.

use crate::fields::Deformation;
use crate::restructure::RestructureSchedule;
use octopus_geom::{Point3, VertexId};
use octopus_mesh::{Mesh, MeshError, SurfaceDelta};

/// Everything a snapshot-based monitor needs to catch up after one
/// step: which step completed, the surface delta of any restructuring,
/// and whether connectivity may have changed at all. The last flag is
/// *not* implied by a non-empty delta — refining an interior
/// tetrahedron adds a vertex and new edges while leaving the surface
/// untouched — so snapshot holders must check it, not the delta, when
/// deciding whether a positions-only copy suffices.
#[derive(Clone, Debug, Default)]
pub struct StepOutcome {
    /// The time step that just completed.
    pub step: u32,
    /// Surface delta of any restructuring (empty when none fired or the
    /// surface was unaffected).
    pub delta: SurfaceDelta,
    /// True when a restructuring event fired this step, i.e. mesh
    /// connectivity (adjacency, cell list, vertex count) may differ
    /// from the previous step.
    pub restructured: bool,
    /// The mesh's connectivity generation after this step
    /// ([`octopus_mesh::Mesh::restructure_epoch`]). A multi-slot
    /// snapshot consumer compares consecutive outcomes' epochs to
    /// decide between a positions-only hand-off and a full
    /// connectivity resync — exact even when a schedule fires ops that
    /// individually report empty surface deltas.
    pub restructure_epoch: u64,
}

/// A running mesh simulation.
pub struct Simulation {
    mesh: Mesh,
    rest: Vec<Point3>,
    field: Box<dyn Deformation>,
    restructuring: Option<RestructureSchedule>,
    step: u32,
}

impl Simulation {
    /// Starts a simulation of `mesh` under `field` (time step 0 = rest
    /// state).
    pub fn new(mesh: Mesh, field: Box<dyn Deformation>) -> Simulation {
        let rest = mesh.positions().to_vec();
        Simulation {
            mesh,
            rest,
            field,
            restructuring: None,
            step: 0,
        }
    }

    /// Adds a restructuring schedule (rare connectivity events, §IV-E2).
    /// Enables the mesh's restructuring mode.
    pub fn with_restructuring(
        mut self,
        schedule: RestructureSchedule,
    ) -> Result<Simulation, MeshError> {
        self.mesh.enable_restructuring()?;
        self.restructuring = Some(schedule);
        Ok(self)
    }

    /// Advances one time step: overwrites all vertex positions in place
    /// (and, when scheduled, restructures the mesh). Returns the surface
    /// delta of any restructuring (empty when none fired) so callers can
    /// incrementally maintain their surface.
    pub fn step(&mut self) -> Result<SurfaceDelta, MeshError> {
        self.step += 1;
        self.field
            .apply_step(self.step, &self.rest, self.mesh.positions_mut());
        let mut delta = SurfaceDelta::default();
        if let Some(schedule) = &mut self.restructuring {
            delta = schedule.maybe_fire(self.step, &mut self.mesh)?;
            if !(delta.added.is_empty() && delta.removed.is_empty())
                || self.mesh.num_vertices() != self.rest.len()
            {
                // Restructuring may add vertices; extend rest state so the
                // field keeps a defined reference for them.
                let positions = self.mesh.positions();
                while self.rest.len() < positions.len() {
                    self.rest.push(positions[self.rest.len()]);
                }
            }
        }
        Ok(delta)
    }

    /// Advances one time step like [`Simulation::step`], additionally
    /// reporting whether mesh connectivity may have changed — the
    /// snapshot hand-off hook: a monitor double-buffering positions can
    /// do a cheap positions-only copy when `restructured` is false and
    /// must resynchronise connectivity when it is true.
    pub fn step_outcome(&mut self) -> Result<StepOutcome, MeshError> {
        let fired_before = self
            .restructuring
            .as_ref()
            .map_or(0, RestructureSchedule::events_fired);
        let delta = self.step()?;
        let restructured = self
            .restructuring
            .as_ref()
            .map_or(0, RestructureSchedule::events_fired)
            > fired_before;
        Ok(StepOutcome {
            step: self.step,
            delta,
            restructured,
            restructure_epoch: self.mesh.restructure_epoch(),
        })
    }

    /// The mesh's current connectivity generation (see
    /// [`octopus_mesh::Mesh::restructure_epoch`]) — the hand-off hook a
    /// pipelined snapshot ring records per published slot so retained
    /// snapshots of different connectivity never share executor state.
    pub fn restructure_epoch(&self) -> u64 {
        self.mesh.restructure_epoch()
    }

    /// Copies the current positions into `buf` (cleared first). This is
    /// the other half of the snapshot hand-off: the simulation thread
    /// fills a recycled buffer right after [`Simulation::step_outcome`]
    /// and sends it to the monitor — as it is on a deformation step, as
    /// the position array of a mesh sharing this one's connectivity
    /// ([`octopus_mesh::Mesh::with_positions`]) on a restructuring step
    /// — which publishes it without a second copy and sends the buffer
    /// of the slot it retires back for a later step. `buf` may be
    /// shorter than the mesh (left over from before a restructure); it
    /// grows.
    pub fn snapshot_positions_into(&self, buf: &mut Vec<Point3>) {
        buf.clear();
        buf.extend_from_slice(self.mesh.positions());
    }

    /// Relabels the simulation's vertices by `perm` (`perm[old] = new`),
    /// permuting the mesh *and* the rest configuration consistently.
    ///
    /// Deformation fields compute per-vertex displacements from the rest
    /// positions, and restructuring schedules address cells (whose order
    /// `Mesh::permute_vertices` preserves) — so a permuted simulation
    /// steps through exactly the same physics as the original, with
    /// every vertex id translated through `perm`. This is the hook the
    /// service layer's layout policy uses to apply the §IV-H1 Hilbert
    /// ordering at ingest (and to re-apply it after restructuring churn)
    /// without stopping the simulation semantics.
    ///
    /// # Panics
    /// If `perm` is not a bijection over the current vertex set.
    pub fn permute_vertices(&mut self, perm: &[VertexId]) {
        self.mesh = self.mesh.permute_vertices(perm);
        let mut rest = vec![Point3::ORIGIN; self.rest.len()];
        for (old, &new) in perm.iter().enumerate() {
            rest[new as usize] = self.rest[old];
        }
        self.rest = rest;
    }

    /// Runs `n` steps, discarding deltas (convenience for setups without
    /// restructuring).
    pub fn run(&mut self, n: u32) -> Result<(), MeshError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// Current time step (0 before the first [`Simulation::step`]).
    pub fn current_step(&self) -> u32 {
        self.step
    }

    /// Whether the restructuring schedule (if any) will fire at `step`.
    /// Supervisors use this to classify the *next* step before asking
    /// for it, so an injected failure at a restructuring step can be
    /// reported as a failed restructure rather than a failed
    /// deformation.
    pub fn restructure_scheduled(&self, step: u32) -> bool {
        self.restructuring
            .as_ref()
            .is_some_and(|s| s.fires_at(step))
    }

    /// Fast-forwards the step counter to `step` without simulating —
    /// the supervisor restart hook. A replacement simulation built from
    /// the newest published snapshot must continue the original step
    /// numbering: retained ring slots are keyed by step, and
    /// restructure schedules fire on absolute step numbers, so the
    /// restarted trajectory picks up the cadence where the failed one
    /// left off.
    pub fn resume_from(&mut self, step: u32) {
        self.step = step;
    }

    /// The monitored mesh (latest state).
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The rest (initial) configuration.
    pub fn rest_positions(&self) -> &[Point3] {
        &self.rest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::SmoothRandomField;
    use crate::restructure::RestructureSchedule;
    use octopus_geom::Aabb;
    use octopus_meshgen::voxel::VoxelRegion;

    fn small_mesh() -> Mesh {
        let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        octopus_meshgen::tet::tetrahedralize(&VoxelRegion::solid_box(&bounds, 4, 4, 4)).unwrap()
    }

    #[test]
    fn stepping_updates_all_positions_and_keeps_surface() {
        let mesh = small_mesh();
        let surface_before = mesh.surface().unwrap().vertices().to_vec();
        let mut sim = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.02, 4, 5)));
        let before = sim.mesh().positions().to_vec();
        sim.step().unwrap();
        let after = sim.mesh().positions();
        let moved = before.iter().zip(after).filter(|(a, b)| a != b).count();
        assert!(
            moved > before.len() * 9 / 10,
            "massive update moved {moved}"
        );
        assert_eq!(
            sim.mesh().surface().unwrap().vertices(),
            &surface_before[..]
        );
        assert_eq!(sim.current_step(), 1);
    }

    #[test]
    fn run_advances_many_steps() {
        let mut sim = Simulation::new(small_mesh(), Box::new(SmoothRandomField::new(0.01, 3, 6)));
        sim.run(10).unwrap();
        assert_eq!(sim.current_step(), 10);
    }

    #[test]
    fn restructuring_schedule_fires_and_reports_deltas() {
        let mesh = small_mesh();
        let mut sim = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.005, 3, 7)))
            .with_restructuring(RestructureSchedule::new(2, 3, 0xBEEF))
            .unwrap();
        let mut any_delta = false;
        let mut fired = 0;
        for _ in 0..6 {
            let delta = sim.step().unwrap();
            if sim.current_step().is_multiple_of(2) {
                fired += 1;
            }
            any_delta |= !delta.is_empty();
        }
        assert!(fired >= 3);
        assert!(
            any_delta,
            "cell removals must eventually change the surface"
        );
        // Mesh stays consistent.
        let fresh = octopus_mesh::validate::validate(sim.mesh()).unwrap();
        assert!(fresh.cells_checked > 0);
    }

    #[test]
    fn step_outcome_flags_restructuring_even_with_empty_delta() {
        let mesh = small_mesh();
        let mut sim = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.005, 3, 11)))
            .with_restructuring(RestructureSchedule::new(2, 2, 0xACE))
            .unwrap();
        let mut restructured_steps = 0;
        for _ in 0..8 {
            let outcome = sim.step_outcome().unwrap();
            assert_eq!(outcome.step, sim.current_step());
            if outcome.step.is_multiple_of(2) {
                assert!(outcome.restructured, "schedule fires on even steps");
                restructured_steps += 1;
            } else {
                assert!(!outcome.restructured);
                assert!(outcome.delta.is_empty());
            }
        }
        assert_eq!(restructured_steps, 4);
    }

    #[test]
    fn step_outcome_carries_the_restructure_epoch() {
        let mesh = small_mesh();
        let mut sim = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.005, 3, 11)))
            .with_restructuring(RestructureSchedule::new(2, 2, 0xACE))
            .unwrap();
        let mut last_epoch = sim.restructure_epoch();
        assert_eq!(last_epoch, 0);
        for _ in 0..6 {
            let outcome = sim.step_outcome().unwrap();
            assert_eq!(outcome.restructure_epoch, sim.restructure_epoch());
            if outcome.restructured {
                assert!(
                    outcome.restructure_epoch > last_epoch,
                    "a fired event must advance the epoch"
                );
            } else {
                assert_eq!(outcome.restructure_epoch, last_epoch);
            }
            last_epoch = outcome.restructure_epoch;
        }
    }

    #[test]
    fn snapshot_positions_reuse_and_match_live_state() {
        let mut sim = Simulation::new(small_mesh(), Box::new(SmoothRandomField::new(0.01, 3, 12)));
        let mut buf = Vec::new();
        for _ in 0..3 {
            sim.step().unwrap();
            sim.snapshot_positions_into(&mut buf);
            assert_eq!(&buf[..], sim.mesh().positions());
        }
    }

    #[test]
    fn permuted_simulation_steps_identically_under_relabelling() {
        let mesh = small_mesh();
        let n = mesh.num_vertices() as u32;
        let mut perm: Vec<VertexId> = (0..n).collect();
        octopus_geom::rng::SplitMix64::new(9).shuffle(&mut perm);

        let mut reference =
            Simulation::new(mesh.clone(), Box::new(SmoothRandomField::new(0.015, 3, 21)));
        let mut permuted = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.015, 3, 21)));
        permuted.permute_vertices(&perm);

        for _ in 0..4 {
            reference.step().unwrap();
            permuted.step().unwrap();
            for old in 0..n {
                assert_eq!(
                    reference.mesh().position(old),
                    permuted.mesh().position(perm[old as usize]),
                    "vertex {old} must move identically under relabelling"
                );
            }
        }
        // Rest state permuted consistently too.
        for old in 0..n {
            assert_eq!(
                reference.rest_positions()[old as usize],
                permuted.rest_positions()[perm[old as usize] as usize]
            );
        }
    }

    #[test]
    fn simulation_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Simulation>();
    }

    #[test]
    fn rest_positions_are_the_initial_state() {
        let mesh = small_mesh();
        let p0 = mesh.positions().to_vec();
        let mut sim = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.02, 3, 8)));
        sim.run(3).unwrap();
        assert_eq!(sim.rest_positions(), &p0[..]);
        assert_ne!(sim.mesh().positions(), &p0[..]);
    }
}
