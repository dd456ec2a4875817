//! What a query runs against.

use octopus_core::Octopus;
use octopus_mesh::Mesh;

/// One retained step, borrowed as a whole: the mesh state at the end of
/// `step`, the executor of its connectivity generation, and its
/// reading of the cumulative max-displacement meter. The monitor builds
/// one per request from the ring slot it resolved, so a slot's executor
/// can never meet another slot's mesh or meter; the restructure epoch a
/// consumer compares against is `mesh.restructure_epoch()`.
///
/// Public so [`crate::BatchEngine::execute`] can be driven standalone:
/// on a static mesh use `cum_drift: 0.0` (repeated calls at the same
/// meter reading mean "no motion since").
#[derive(Clone, Copy, Debug)]
pub struct Snapshot<'a> {
    /// The time step this state belongs to.
    pub step: u32,
    /// Positions and connectivity at `step`.
    pub mesh: &'a Mesh,
    /// The executor for `mesh`'s connectivity generation.
    pub exec: &'a Octopus,
    /// Per step, the largest distance any vertex moved, summed since
    /// ingest: two readings bound the displacement of *every* vertex
    /// between their steps — the validity gate of the seed cache and of
    /// the standing queries' delta path.
    pub cum_drift: f32,
}
