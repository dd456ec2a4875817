//! What a query runs against.

use octopus_core::{Octopus, Probe};
use octopus_mesh::Mesh;

/// One retained step, borrowed as a whole: the mesh state at the end of
/// `step`, the executor of its connectivity generation and the probe
/// that is exact for exactly this pair. The monitor builds one per
/// request from the ring slot it resolved, so a slot's executor can
/// never meet another slot's mesh or grid reach.
///
/// Public so [`crate::BatchEngine::execute`] can be driven standalone:
/// without a grid use `probe: Probe::Surface`.
#[derive(Clone, Copy, Debug)]
pub struct Snapshot<'a> {
    /// The time step this state belongs to.
    pub step: u32,
    /// Positions and connectivity at `step`.
    pub mesh: &'a Mesh,
    /// The executor for `mesh`'s connectivity generation.
    pub exec: &'a Octopus,
    /// The seeding of every query against this snapshot: the slot's
    /// surface grid (`exec`'s own, [`Octopus::surface_grid`]) at the
    /// reach of `mesh`'s positions — phase 1 visits the cells around the
    /// box, phase 2 walks only into components the box can touch — or
    /// the full surface probe when no finite reach bounds them.
    pub probe: Probe<'a>,
}
