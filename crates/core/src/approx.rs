//! Surface approximation (§IV-H2): probe a sample of the surface.
//!
//! "If a use case allows to sacrifice accuracy we can further improve
//! performance by taking a sample of … vertices on the surface rather
//! than considering the entire surface set, thereby reducing the time
//! required for the surface probe. This optimization works well because
//! groups of neighboring mesh elements move similarly throughout the
//! simulation." Visualization monitors tolerate the (usually tiny)
//! accuracy loss — Fig. 12 quantifies the trade-off.

use crate::executor::{closest_of, greedy_walk, PhaseTimings};
use crate::frontier::GroupScratch;
use octopus_geom::mem::gather;
use octopus_geom::rng::SplitMix64;
use octopus_geom::{Aabb, VertexId};
use octopus_mesh::{Mesh, MeshError};
use std::time::Instant;

/// OCTOPUS with a sampled surface probe.
#[derive(Debug)]
pub struct ApproxOctopus {
    /// Uniform-random sample of the surface vertex ids (fixed at build,
    /// like the paper's equidistant sampling).
    sample: Vec<VertexId>,
    /// Fraction of the surface retained.
    fraction: f64,
    full_surface_len: usize,
    /// The crawl's scratch; every query is a group of one.
    crawl: GroupScratch,
}

impl ApproxOctopus {
    /// Builds an executor probing only `fraction` ∈ (0, 1] of the surface
    /// vertices (e.g. `0.001` = 0.1 %, the paper's ≥ 90 %-accuracy
    /// setting). At least one vertex is kept when the surface is
    /// non-empty.
    pub fn new(mesh: &Mesh, fraction: f64, seed: u64) -> Result<ApproxOctopus, MeshError> {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]"
        );
        let mut ids = mesh.surface()?.vertices().to_vec();
        let full_surface_len = ids.len();
        let mut rng = SplitMix64::new(seed);
        rng.shuffle(&mut ids);
        let keep = ((ids.len() as f64 * fraction).round() as usize)
            .clamp(usize::from(!ids.is_empty()), ids.len());
        ids.truncate(keep);
        Ok(ApproxOctopus {
            sample: ids,
            fraction,
            full_surface_len,
            crawl: GroupScratch::default(),
        })
    }

    /// The configured sample fraction.
    pub fn fraction(&self) -> f64 {
        self.fraction
    }

    /// Number of sampled probe vertices (vs. the full surface size).
    pub fn sample_len(&self) -> usize {
        self.sample.len()
    }

    /// Size of the full surface the sample was drawn from.
    pub fn full_surface_len(&self) -> usize {
        self.full_surface_len
    }

    /// Executes a range query probing only the sample. Same three phases
    /// as [`crate::Octopus::query_with`], but the probe is `fraction` as long
    /// — and the result may be incomplete when a disjoint sub-mesh has no
    /// sampled surface vertex inside `q`.
    pub fn query(&mut self, mesh: &Mesh, q: &Aabb, out: &mut Vec<VertexId>) -> PhaseTimings {
        let mut stats = PhaseTimings::default();
        let positions = mesh.positions();
        let results = std::slice::from_mut(out);
        self.crawl.begin_group(mesh.num_vertices(), 0, 1);

        // Two-pass probe over the sample: the executor's gather first,
        // the closest-vertex search only when nothing seeded.
        let t0 = Instant::now();
        gather(&self.sample, positions, |v, p| {
            if q.contains(p) {
                self.crawl.seed(v, 1, results);
            }
        });
        stats.start_vertices = self.crawl.per_seeds[0];
        stats.surface_probe = t0.elapsed();

        if stats.start_vertices == 0 {
            let t1 = Instant::now();
            if let Some(sv) = closest_of(self.sample.iter(), positions, q) {
                let (found, steps, _) = greedy_walk(mesh, q, sv);
                stats.walk_visited = steps;
                if let Some(inside) = found {
                    self.crawl.seed(inside, 1, results);
                    stats.start_vertices = 1;
                }
            }
            stats.directed_walk = t1.elapsed();
        }

        let t2 = Instant::now();
        self.crawl.crawl(mesh, std::slice::from_ref(q), results);
        stats.crawling = t2.elapsed();
        stats.crawl_visited = self.crawl.per_visited[0];
        stats.results = out.len();
        stats
    }

    /// Heap bytes of sample + scratch.
    pub fn memory_bytes(&self) -> usize {
        self.sample.capacity() * std::mem::size_of::<VertexId>() + self.crawl.memory_bytes()
    }
}

/// Result accuracy of an approximate result vs. the exact one:
/// `|approx ∩ exact| / |exact|` ∈ [0, 1] (1.0 for an empty exact result).
/// This is Fig. 12(a)'s y-axis.
pub fn result_accuracy(approx: &[VertexId], exact: &[VertexId]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let exact_set: std::collections::HashSet<VertexId> = exact.iter().copied().collect();
    let hits = approx.iter().filter(|v| exact_set.contains(v)).count();
    hits as f64 / exact.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_geom::Point3;
    use octopus_meshgen::voxel::VoxelRegion;

    fn box_mesh(n: usize) -> Mesh {
        let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        octopus_meshgen::tet::tetrahedralize(&VoxelRegion::solid_box(&bounds, n, n, n)).unwrap()
    }

    /// The exact executor's answer to `q`.
    fn exact(mesh: &Mesh, q: &Aabb, out: &mut Vec<VertexId>) {
        let o = crate::Octopus::new(mesh).unwrap();
        o.query_with(
            &mut o.make_scratch(mesh),
            mesh,
            q,
            crate::Probe::Surface,
            out,
        );
    }

    #[test]
    fn full_fraction_equals_exact_octopus() {
        let mesh = box_mesh(6);
        let mut approx = ApproxOctopus::new(&mesh, 1.0, 1).unwrap();
        let q = Aabb::new(Point3::splat(0.1), Point3::splat(0.7));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        approx.query(&mesh, &q, &mut a);
        exact(&mesh, &q, &mut b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(approx.sample_len(), approx.full_surface_len());
    }

    #[test]
    fn results_are_always_a_subset_of_exact() {
        let mesh = box_mesh(6);
        for fraction in [0.01, 0.1, 0.5] {
            let mut approx = ApproxOctopus::new(&mesh, fraction, 7).unwrap();
            let q = Aabb::new(Point3::splat(0.2), Point3::splat(0.9));
            let (mut a, mut e) = (Vec::new(), Vec::new());
            approx.query(&mesh, &q, &mut a);
            exact(&mesh, &q, &mut e);
            let eset: std::collections::HashSet<u32> = e.iter().copied().collect();
            assert!(
                a.iter().all(|v| eset.contains(v)),
                "fraction {fraction}: subset property"
            );
            let acc = result_accuracy(&a, &e);
            assert!((0.0..=1.0).contains(&acc));
        }
    }

    #[test]
    fn sample_size_scales_with_fraction_but_never_zero() {
        let mesh = box_mesh(6);
        let half = ApproxOctopus::new(&mesh, 0.5, 3).unwrap();
        assert!((half.sample_len() as f64 / half.full_surface_len() as f64 - 0.5).abs() < 0.05);
        let tiny = ApproxOctopus::new(&mesh, 1e-9, 3).unwrap();
        assert_eq!(
            tiny.sample_len(),
            1,
            "non-empty surface keeps at least one probe vertex"
        );
    }

    #[test]
    fn connected_mesh_with_any_seed_recovers_full_result() {
        // On a connected convex mesh one good seed suffices — accuracy is
        // 100 % as long as a sampled surface vertex lands in the query.
        let mesh = box_mesh(8);
        let mut approx = ApproxOctopus::new(&mesh, 0.2, 5).unwrap();
        // A large query certainly contains sampled corner-region vertices.
        let q = Aabb::new(Point3::ORIGIN, Point3::splat(0.99));
        let (mut a, mut e) = (Vec::new(), Vec::new());
        approx.query(&mesh, &q, &mut a);
        exact(&mesh, &q, &mut e);
        assert_eq!(result_accuracy(&a, &e), 1.0);
    }

    #[test]
    fn accuracy_metric_edge_cases() {
        assert_eq!(result_accuracy(&[], &[]), 1.0);
        assert_eq!(result_accuracy(&[1, 2], &[]), 1.0);
        assert_eq!(result_accuracy(&[], &[1, 2]), 0.0);
        assert_eq!(result_accuracy(&[1], &[1, 2]), 0.5);
    }

    #[test]
    #[should_panic(expected = "fraction must be in (0, 1]")]
    fn zero_fraction_rejected() {
        let mesh = box_mesh(2);
        let _ = ApproxOctopus::new(&mesh, 0.0, 1);
    }

    #[test]
    fn deterministic_sampling() {
        let mesh = box_mesh(5);
        let a = ApproxOctopus::new(&mesh, 0.3, 42).unwrap();
        let b = ApproxOctopus::new(&mesh, 0.3, 42).unwrap();
        assert_eq!(a.sample, b.sample);
    }
}
