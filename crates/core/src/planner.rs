//! The Eq.-6 execution-strategy planner.
//!
//! "Equations 5 and 6 thus help us to decide when to use OCTOPUS given
//! that we know workload characteristics (M and S) and also the runtime
//! constants on the particular hardware used (C_S/C_R)" (§IV-G). The
//! planner packages that decision: per query it estimates selectivity
//! with the spatial histogram (the paper's reference \[2\]) and picks
//! OCTOPUS or the linear scan. S and M are not planner state: the
//! caller passes the [`Characteristics`] of the snapshot the queries run
//! against, read off its executor's surface size and its CSR, so one
//! planner serves every connectivity generation a snapshot ring holds.

use crate::cost_model::{CostModel, SpeedupTerms};
use octopus_geom::Aabb;
use octopus_index::HistogramGrid;
/// The histogram [`Planner::from_parts`] takes, for callers that build
/// it from bounds they already hold.
pub use octopus_index::SelectivityHistogram;
use octopus_mesh::Mesh;

/// The strategy chosen for a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Surface probe + crawl (low selectivity).
    Octopus,
    /// Full scan (selectivity beyond the Eq.-6 crossover).
    LinearScan,
}

/// A per-query decision with its inputs, for explainability.
#[derive(Clone, Copy, Debug)]
pub struct Decision {
    /// The chosen strategy.
    pub strategy: Strategy,
    /// Histogram-estimated selectivity of the query (fraction).
    pub estimated_selectivity: f64,
    /// The Eq.-6 crossover for this dataset.
    pub crossover_selectivity: f64,
    /// Eq.-5 predicted speedup at the estimated selectivity.
    pub predicted_speedup: f64,
}

/// The dataset characteristics Eq. 5 and 6 read (§IV-G).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Characteristics {
    /// Surface-to-volume ratio `S`.
    pub surface_ratio: f64,
    /// Mesh degree `M`.
    pub mesh_degree: f64,
}

impl Characteristics {
    /// S and M of `mesh`, which has `surface_len` surface vertices: S
    /// off that count (0 for the empty mesh), M off the adjacency — two
    /// divisions, no mesh pass. The count is an argument because
    /// whoever plans queries holds the executor
    /// ([`crate::Octopus::surface_len`]), and a ring snapshot
    /// ([`Mesh::snapshot`]) has no cheaper way to answer it.
    pub fn of(mesh: &Mesh, surface_len: usize) -> Characteristics {
        let n = mesh.num_vertices();
        Characteristics {
            surface_ratio: if n == 0 {
                0.0
            } else {
                surface_len as f64 / n as f64
            },
            mesh_degree: mesh.adjacency().average_degree(),
        }
    }
}

/// Chooses between OCTOPUS and the linear scan per query.
#[derive(Clone, Debug)]
pub struct Planner {
    model: CostModel,
    /// Built once, over the positions the planner was built from.
    /// Restructuring adds or orphans a handful of vertices while
    /// deformation moves every vertex every step, so a rebuild per
    /// connectivity generation would not keep it current either.
    histogram: SelectivityHistogram,
}

/// The per-batch invariants of [`Planner::decide_hoisted`].
struct Hoisted {
    grid: HistogramGrid,
    terms: SpeedupTerms,
    crossover: f64,
}

impl Planner {
    /// Builds a planner whose selectivity histogram (`resolution³`
    /// buckets) covers `mesh`'s current positions.
    pub fn new(mesh: &Mesh, model: CostModel, resolution: usize) -> Planner {
        let histogram =
            SelectivityHistogram::build(mesh.positions(), &mesh.bounding_box(), resolution);
        Planner::from_parts(model, histogram)
    }

    /// Builds from a caller-supplied histogram (no mesh pass).
    pub fn from_parts(model: CostModel, histogram: SelectivityHistogram) -> Planner {
        Planner { model, histogram }
    }

    /// Decides the strategy for query `q` on a dataset of `data` (Eq. 6).
    pub fn decide(&self, data: Characteristics, q: &Aabb) -> Decision {
        self.decide_hoisted(&self.hoist(data), q)
    }

    /// The histogram's grid geometry, Eq. 5's factors and Eq. 6's
    /// crossover for `data`: a few flops, paid once per batch.
    fn hoist(&self, data: Characteristics) -> Hoisted {
        let (s, m) = (data.surface_ratio, data.mesh_degree);
        Hoisted {
            grid: self.histogram.grid(),
            terms: self.model.speedup_terms(s, m),
            crossover: self.model.crossover_selectivity(s, m),
        }
    }

    /// One decision under caller-hoisted per-batch invariants. Both
    /// [`Planner::decide`] and [`Planner::decide_batch`] route through
    /// this, so their outputs are bit-identical.
    #[inline]
    fn decide_hoisted(&self, h: &Hoisted, q: &Aabb) -> Decision {
        let sel = self.histogram.estimate_selectivity_with(&h.grid, q);
        Decision {
            strategy: if sel < h.crossover {
                Strategy::Octopus
            } else {
                Strategy::LinearScan
            },
            estimated_selectivity: sel,
            crossover_selectivity: h.crossover,
            predicted_speedup: h.terms.eval(sel),
        }
    }

    /// Decides a whole batch on a dataset of `data` at once, one
    /// [`Decision`] per query in input order — the entry point the
    /// service layer's batch engine uses to route overlap groups
    /// between the crawl paths and the shared linear scan.
    ///
    /// All per-batch invariants are hoisted out of the loop: the
    /// histogram's grid geometry ([`SelectivityHistogram::grid`]), the
    /// Eq.-5 speedup factors ([`CostModel::speedup_terms`]) and the
    /// Eq.-6 crossover. Routing a mixed batch therefore costs one
    /// histogram probe per query and nothing else.
    pub fn decide_batch(&self, data: Characteristics, queries: &[Aabb]) -> Vec<Decision> {
        let h = self.hoist(data);
        queries.iter().map(|q| self.decide_hoisted(&h, q)).collect()
    }

    /// The underlying cost model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Octopus;
    use octopus_geom::Point3;
    use octopus_meshgen::voxel::VoxelRegion;

    fn box_mesh(n: usize) -> Mesh {
        let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        octopus_meshgen::tet::tetrahedralize(&VoxelRegion::solid_box(&bounds, n, n, n)).unwrap()
    }

    /// A paper-constant planner for `mesh` and the mesh's S and M.
    fn paper_planner(mesh: &Mesh, resolution: usize) -> (Planner, Characteristics) {
        let octopus = Octopus::new(mesh).unwrap();
        (
            Planner::new(mesh, CostModel::paper_constants(), resolution),
            Characteristics::of(mesh, octopus.surface_len()),
        )
    }

    /// Removes random cells of `mesh` until a fifth is left, deriving
    /// `octopus` from the deltas as a monitor does.
    fn coarsen(mesh: &mut Mesh, octopus: &mut Octopus) {
        let mut rng = octopus_geom::rng::SplitMix64::new(0xFEED);
        let target = mesh.num_cells() / 5;
        while mesh.num_cells() > target {
            let c = rng.index(mesh.cell_capacity()) as u32;
            if mesh.is_cell_alive(c) {
                let delta = mesh.remove_cell(c).unwrap();
                *octopus = octopus.restructured(mesh, &delta);
            }
        }
    }

    #[test]
    fn tiny_queries_choose_octopus_huge_choose_scan() {
        let mesh = box_mesh(10);
        let (planner, data) = paper_planner(&mesh, 8);
        let tiny = planner.decide(data, &Aabb::cube(Point3::splat(0.5), 0.01));
        assert_eq!(tiny.strategy, Strategy::Octopus);
        assert!(tiny.predicted_speedup > 1.0);
        let huge = planner.decide(data, &Aabb::new(Point3::ORIGIN, Point3::splat(1.0)));
        assert_eq!(huge.strategy, Strategy::LinearScan);
        assert!(huge.estimated_selectivity > huge.crossover_selectivity);
    }

    #[test]
    fn decision_is_consistent_with_the_model() {
        let mesh = box_mesh(8);
        let (planner, data) = paper_planner(&mesh, 6);
        let d = planner.decide(data, &Aabb::cube(Point3::splat(0.4), 0.1));
        let expected = planner
            .model()
            .crossover_selectivity(data.surface_ratio, data.mesh_degree);
        assert_eq!(d.crossover_selectivity, expected);
        assert_eq!(
            d.strategy,
            if d.estimated_selectivity < expected {
                Strategy::Octopus
            } else {
                Strategy::LinearScan
            }
        );
    }

    #[test]
    fn decide_batch_matches_per_query_decisions() {
        let mesh = box_mesh(8);
        let (planner, data) = paper_planner(&mesh, 8);
        let queries: Vec<Aabb> = (1..=10)
            .map(|i| Aabb::cube(Point3::splat(0.5), 0.05 * i as f32))
            .collect();
        let batch = planner.decide_batch(data, &queries);
        assert_eq!(batch.len(), queries.len());
        for (d, q) in batch.iter().zip(&queries) {
            let single = planner.decide(data, q);
            assert_eq!(d.strategy, single.strategy);
            assert_eq!(d.estimated_selectivity, single.estimated_selectivity);
            assert_eq!(d.crossover_selectivity, single.crossover_selectivity);
            assert_eq!(d.predicted_speedup, single.predicted_speedup);
        }
    }

    #[test]
    fn crossover_is_monotone_in_selectivity() {
        // Growing a query around a fixed centre is monotone in estimated
        // selectivity, and because the crossover is a per-dataset
        // constant the decision flips from OCTOPUS to LinearScan at most
        // once along the sweep.
        let mesh = box_mesh(10);
        let (planner, data) = paper_planner(&mesh, 8);
        let queries: Vec<Aabb> = (1..=40)
            .map(|i| Aabb::cube(Point3::splat(0.5), 0.02 * i as f32))
            .collect();
        let decisions = planner.decide_batch(data, &queries);
        let mut flipped = false;
        for pair in decisions.windows(2) {
            assert!(
                pair[1].estimated_selectivity >= pair[0].estimated_selectivity,
                "selectivity estimate must grow with the query"
            );
            assert_eq!(pair[1].crossover_selectivity, pair[0].crossover_selectivity);
            match (pair[0].strategy, pair[1].strategy) {
                (Strategy::LinearScan, Strategy::Octopus) => {
                    panic!("decision flipped back below the crossover")
                }
                (Strategy::Octopus, Strategy::LinearScan) => flipped = true,
                _ => {}
            }
        }
        assert!(flipped, "sweep must actually cross the Eq.-6 threshold");
        assert_eq!(decisions.first().unwrap().strategy, Strategy::Octopus);
        assert_eq!(decisions.last().unwrap().strategy, Strategy::LinearScan);
    }

    #[test]
    fn stale_crossover_flips_after_heavy_restructuring() {
        // A solid box, then an aggressive coarsening (raising the
        // surface-to-volume ratio, which shrinks the Eq.-6 crossover).
        // Verify that (a) the derived executor gives the S a fresh
        // extraction would, (b) one planner handed the pre- and then the
        // post-restructure snapshot's S and M returns the ingest-time
        // crossover and then the coarsened one, and (c) at least one
        // query's strategy decision flips between the two.
        let mut mesh = box_mesh(6);
        mesh.enable_restructuring().unwrap();
        let mut octopus = Octopus::new(&mesh).unwrap();
        let planner = Planner::new(&mesh, CostModel::paper_constants(), 8);
        let ingest = Characteristics::of(&mesh, octopus.surface_len());

        coarsen(&mut mesh, &mut octopus);

        let coarse = Characteristics::of(&mesh, octopus.surface_len());
        assert_eq!(coarse.surface_ratio, mesh.surface().unwrap().ratio());
        let model = planner.model();
        let q = Aabb::cube(Point3::splat(0.5), 0.2);
        let (before, after) = (planner.decide(ingest, &q), planner.decide(coarse, &q));
        assert_eq!(
            before.crossover_selectivity,
            model.crossover_selectivity(ingest.surface_ratio, ingest.mesh_degree)
        );
        assert_eq!(
            after.crossover_selectivity,
            model.crossover_selectivity(coarse.surface_ratio, coarse.mesh_degree)
        );
        assert!(
            after.crossover_selectivity < before.crossover_selectivity,
            "coarsening raises S, which must shrink the crossover: {} -> {}",
            before.crossover_selectivity,
            after.crossover_selectivity
        );

        // Somewhere along a size sweep, the ingest-time characteristics
        // still say OCTOPUS while the coarsened ones cross to LinearScan.
        let flipped = (1..=60).any(|i| {
            let q = Aabb::cube(Point3::splat(0.5), 0.015 * i as f32);
            planner.decide(ingest, &q).strategy == Strategy::Octopus
                && planner.decide(coarse, &q).strategy == Strategy::LinearScan
        });
        assert!(
            flipped,
            "a restructure-heavy run must flip at least one decision"
        );
    }

    #[test]
    fn alternating_generations_decide_as_a_planner_per_generation() {
        // A ring answers slots of different connectivity generations in
        // any order. One planner handed generations A, B, A decides bit
        // for bit as a planner per generation over the same histogram —
        // batched on one side, query by query on the other.
        let mut mesh = box_mesh(6);
        mesh.enable_restructuring().unwrap();
        let mut octopus = Octopus::new(&mesh).unwrap();
        let histogram = SelectivityHistogram::build(mesh.positions(), &mesh.bounding_box(), 8);
        let a = Characteristics::of(&mesh, octopus.surface_len());
        coarsen(&mut mesh, &mut octopus);
        let b = Characteristics::of(&mesh, octopus.surface_len());
        assert_ne!(a, b);

        let model = CostModel::paper_constants();
        let shared = Planner::from_parts(model, histogram.clone());
        let queries: Vec<Aabb> = (1..=30)
            .map(|i| Aabb::cube(Point3::new(0.3, 0.5, 0.6), 0.02 * i as f32))
            .collect();
        for data in [a, b, a] {
            let own = Planner::from_parts(model, histogram.clone());
            for (d, q) in shared.decide_batch(data, &queries).iter().zip(&queries) {
                let want = own.decide(data, q);
                assert_eq!(d.strategy, want.strategy);
                assert_eq!(
                    [
                        d.estimated_selectivity,
                        d.crossover_selectivity,
                        d.predicted_speedup
                    ]
                    .map(f64::to_bits),
                    [
                        want.estimated_selectivity,
                        want.crossover_selectivity,
                        want.predicted_speedup
                    ]
                    .map(f64::to_bits)
                );
            }
        }
    }

    #[test]
    fn a_restructure_leaves_the_estimate_unchanged() {
        // The histogram is built once: refining every tet around a box
        // adds vertices inside it, and the estimate for that box stays
        // what it was at ingest — where a planner built on the refined
        // mesh would count the new vertices.
        let mut mesh = box_mesh(6);
        mesh.enable_restructuring().unwrap();
        let (planner, ingest) = paper_planner(&mesh, 8);
        let q = Aabb::cube(Point3::splat(0.5), 0.25);
        let at_ingest = planner.decide(ingest, &q).estimated_selectivity;

        let inside: Vec<u32> = mesh
            .live_cells()
            .filter(|(_, vs)| vs.iter().all(|&v| q.contains(mesh.position(v))))
            .map(|(c, _)| c)
            .collect();
        assert!(!inside.is_empty(), "the box must hold whole tets");
        for c in inside {
            mesh.refine_tet(c).unwrap();
        }
        let refined = paper_planner(&mesh, 8);
        assert_ne!(
            refined.0.decide(refined.1, &q).estimated_selectivity,
            at_ingest,
            "refinement must change what a fresh histogram counts"
        );
        assert_eq!(
            planner.decide(refined.1, &q).estimated_selectivity,
            at_ingest
        );
    }

    #[test]
    fn from_parts_respects_given_characteristics() {
        let hist = SelectivityHistogram::build(
            &[Point3::splat(0.5)],
            &Aabb::new(Point3::ORIGIN, Point3::splat(1.0)),
            2,
        );
        // S = 1 → crossover = 0 → always scan.
        let p = Planner::from_parts(CostModel::paper_constants(), hist);
        let data = Characteristics {
            surface_ratio: 1.0,
            mesh_degree: 14.0,
        };
        let d = p.decide(data, &Aabb::cube(Point3::splat(0.1), 0.01));
        assert_eq!(d.strategy, Strategy::LinearScan);
    }
}
