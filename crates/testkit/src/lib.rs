//! Shared fixtures for the workspace's test and bench suites.
//!
//! Every differential suite in the workspace needs the same three
//! ingredients: a mesh to query (regular or adversarial), a workload of
//! queries, and a ground truth to compare against — a linear scan, the
//! sequential executor ([`sequential_reference`]) or a stop-the-world
//! simulation run ([`reference_run`]). They used to be copy-pasted per
//! test file; this crate is the single home. It is a **dev-dependency only** — nothing in the shipped
//! crates links it.
//!
//! Ground-truth semantics: OCTOPUS queries are defined over *active*
//! vertices (a restructuring can orphan a position slot; the crawl
//! never reaches it). [`scan`] ignores that distinction — correct for
//! freshly generated meshes, where every vertex is active — while
//! [`scan_active`], [`scan_region`] and [`knn_scan`] apply the
//! active-vertex filter and are the references to use on meshes that
//! have restructured.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod fault;
pub use fault::{with_watchdog, FailPoint};

use octopus_core::{Octopus, Probe};
use octopus_geom::rng::SplitMix64;
use octopus_geom::{Aabb, Point3, Region, VertexId};
use octopus_mesh::Mesh;
use octopus_meshgen::tet::tetrahedralize;
use octopus_meshgen::voxel::VoxelRegion;
use octopus_sim::{RestructureSchedule, Simulation, SmoothRandomField};

/// Tetrahedralized solid unit box on an `n³` voxel grid — the regular,
/// single-component fixture.
pub fn box_mesh(n: usize) -> Mesh {
    let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
    tetrahedralize(&VoxelRegion::solid_box(&bounds, n, n, n)).expect("solid boxes are manifold")
}

/// Random voxel-mask mesh over an `n³` grid: each voxel is solid with
/// probability `fill`. Highly irregular, non-convex, frequently
/// multi-component — the adversarial geometry for the surface-probe
/// argument of §IV-C. May be empty for hostile `(n, fill, seed)`
/// combinations; callers should `prop_assume!` a non-empty mesh.
pub fn random_mesh(n: usize, fill: f64, seed: u64) -> Mesh {
    let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
    let mut rng = SplitMix64::new(seed);
    let region = VoxelRegion::from_fn(&bounds, n, n, n, |_| rng.chance(fill));
    tetrahedralize(&region).expect("random masks are manifold")
}

/// Sorts a result in place and returns it — set comparison for crawl
/// results, whose discovery order is traversal dependent.
pub fn sorted(mut v: Vec<VertexId>) -> Vec<VertexId> {
    v.sort_unstable();
    v
}

/// Linear-scan ground truth over *all* position slots (no active-vertex
/// filter — use on freshly generated meshes only).
pub fn scan(mesh: &Mesh, q: &Aabb) -> Vec<VertexId> {
    mesh.positions()
        .iter()
        .enumerate()
        .filter(|(_, p)| q.contains(**p))
        .map(|(i, _)| i as VertexId)
        .collect()
}

/// Linear-scan ground truth over active vertices only — matches crawl
/// semantics on meshes whose restructuring has orphaned position slots.
pub fn scan_active(mesh: &Mesh, q: &Aabb) -> Vec<VertexId> {
    scan_region(mesh, q)
}

/// Linear-scan ground truth of any [`Region`] (box, convex polytope)
/// over active vertices, sorted ascending.
pub fn scan_region<R: Region>(mesh: &Mesh, region: &R) -> Vec<VertexId> {
    mesh.positions()
        .iter()
        .enumerate()
        .filter(|(i, p)| region.contains(**p) && !mesh.neighbors(*i as VertexId).is_empty())
        .map(|(i, _)| i as VertexId)
        .collect()
}

/// Brute-force k-nearest-neighbour ground truth over active vertices:
/// ascending by `(Euclidean distance, id)` — the executor's documented
/// deterministic tie-break.
pub fn knn_scan(mesh: &Mesh, k: usize, point: Point3) -> Vec<VertexId> {
    let mut ranked: Vec<(f32, VertexId)> = mesh
        .positions()
        .iter()
        .enumerate()
        .filter(|(i, _)| !mesh.neighbors(*i as VertexId).is_empty())
        .map(|(i, p)| (p.dist_sq(point), i as VertexId))
        .collect();
    ranked.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    ranked.truncate(k);
    ranked.into_iter().map(|(_, v)| v).collect()
}

/// The sequential executor's answer to each query on `mesh`, sorted —
/// what every parallel, pooled or engine-planned path must equal.
pub fn sequential_reference(mesh: &Mesh, queries: &[Aabb]) -> Vec<Vec<VertexId>> {
    let octopus = Octopus::new(mesh).expect("test meshes are manifold");
    sequential_answers(&octopus, mesh, queries)
}

/// `octopus`'s answer to each query on `mesh` under the full surface
/// probe (the paper's path), sorted.
pub fn sequential_answers(octopus: &Octopus, mesh: &Mesh, queries: &[Aabb]) -> Vec<Vec<VertexId>> {
    let mut scratch = octopus.make_scratch(mesh);
    queries
        .iter()
        .map(|q| {
            let mut out = Vec::new();
            octopus.query_with(&mut scratch, mesh, q, Probe::Surface, &mut out);
            sorted(out)
        })
        .collect()
}

/// The three boxes a monitor suite asks at `step` (one of them drifting
/// with the step number).
pub fn step_queries(step: u32) -> Vec<Aabb> {
    let t = f32::from(step as u16 % 8) * 0.05;
    vec![
        Aabb::cube(Point3::splat(0.3 + t), 0.2),
        Aabb::new(Point3::splat(0.1), Point3::splat(0.9)),
        Aabb::cube(Point3::splat(0.5), 0.15),
    ]
}

/// Stop-the-world reference, exactly the paper's Fig. 1(e) loop: step
/// `mesh` under `SmoothRandomField::new(0.01, 3, field_seed)` (and the
/// `(period, ops, seed)` restructuring schedule, if any), then answer
/// [`step_queries`] on the live mesh. One entry per step, sorted.
pub fn reference_run(
    mesh: Mesh,
    field_seed: u64,
    restructure: Option<(u32, usize, u64)>,
    steps: u32,
) -> Vec<Vec<Vec<VertexId>>> {
    let mut sim = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.01, 3, field_seed)));
    if let Some((period, ops, seed)) = restructure {
        sim = sim
            .with_restructuring(RestructureSchedule::new(period, ops, seed))
            .expect("test meshes are manifold");
    }
    let mut octopus = Octopus::new(sim.mesh()).expect("test meshes are manifold");
    let mut per_step = Vec::new();
    for _ in 0..steps {
        let outcome = sim.step_outcome().expect("reference runs inject no fault");
        if outcome.restructured {
            // Stop-the-world maintenance: the next executor is derived
            // from the delta, its surface lists patched from it.
            octopus = octopus.restructured(sim.mesh(), &outcome.delta);
        }
        let queries = step_queries(outcome.step);
        per_step.push(sequential_answers(&octopus, sim.mesh(), &queries));
    }
    per_step
}

/// A batch workload mixing clustered (overlapping), interior, miss and
/// broad queries — the batch engine's standard exercise.
pub fn mixed_workload(mesh: &Mesh, seed: u64, clusters: usize, per_cluster: usize) -> Vec<Aabb> {
    let bounds = mesh.bounding_box();
    let mut rng = SplitMix64::new(seed);
    let mut queries = Vec::new();
    for _ in 0..clusters {
        let c = Point3::new(
            rng.range_f32(bounds.min.x, bounds.max.x),
            rng.range_f32(bounds.min.y, bounds.max.y),
            rng.range_f32(bounds.min.z, bounds.max.z),
        );
        for _ in 0..per_cluster {
            let jitter = 0.03 * bounds.extent().length();
            let jc = Point3::new(
                c.x + rng.range_f32(-jitter, jitter),
                c.y + rng.range_f32(-jitter, jitter),
                c.z + rng.range_f32(-jitter, jitter),
            );
            queries.push(Aabb::cube(jc, rng.range_f32(0.03, 0.12)));
        }
    }
    queries.push(Aabb::new(Point3::splat(0.4), Point3::splat(0.6))); // interior
    queries.push(Aabb::new(Point3::splat(5.0), Point3::splat(6.0))); // miss
    queries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_produce_nonempty_meshes() {
        assert!(box_mesh(3).num_vertices() > 0);
        assert!(random_mesh(4, 0.9, 7).num_vertices() > 0);
    }

    #[test]
    fn knn_scan_orders_by_distance_then_id() {
        let mesh = box_mesh(3);
        let p = Point3::splat(0.5);
        let got = knn_scan(&mesh, 5, p);
        assert_eq!(got.len(), 5);
        let d: Vec<f32> = got
            .iter()
            .map(|&v| mesh.positions()[v as usize].dist_sq(p))
            .collect();
        for w in d.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn scan_region_matches_scan_on_fresh_meshes() {
        let mesh = box_mesh(4);
        let q = Aabb::cube(Point3::splat(0.5), 0.3);
        assert_eq!(scan_region(&mesh, &q), sorted(scan(&mesh, &q)));
    }
}
