//! The Eq.-6 execution-strategy planner.
//!
//! "Equations 5 and 6 thus help us to decide when to use OCTOPUS given
//! that we know workload characteristics (M and S) and also the runtime
//! constants on the particular hardware used (C_S/C_R)" (§IV-G). The
//! planner packages that decision: per query it estimates selectivity
//! with the spatial histogram (the paper's reference \[2\]) and picks
//! OCTOPUS or the linear scan.

use crate::cost_model::CostModel;
use crate::surface_index::SurfaceIndex;
use octopus_geom::Aabb;
use octopus_index::SelectivityHistogram;
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

/// Chooses between OCTOPUS and the linear scan per query.
#[derive(Clone, Debug)]
pub struct Planner {
    model: CostModel,
    histogram: SelectivityHistogram,
    surface_ratio: f64,
    mesh_degree: f64,
    /// Eq.-6 crossover, a function of (S, M, C_S, C_R) only — computed
    /// once per connectivity generation so per-query (and per-batch)
    /// decisions never recompute mesh statistics. Restructuring changes
    /// both S and M, so the cache is keyed on the mesh's restructure
    /// epoch and invalidated through
    /// [`Planner::refresh_if_restructured`].
    crossover: f64,
    /// The [`Mesh::restructure_epoch`] the cached (S, M, crossover,
    /// histogram) were derived at; `None` when built from explicit
    /// parts (no mesh provenance — the first refresh recomputes).
    epoch: Option<u64>,
    /// Histogram resolution to rebuild with on refresh (`None` when the
    /// histogram was supplied by the caller via
    /// [`Planner::from_parts`]).
    hist_res: Option<usize>,
}

impl Planner {
    /// Builds a planner for `mesh`, whose surface `surface` indexes:
    /// reads S off the index and M off the adjacency, and builds the
    /// selectivity histogram (resolution `hist_res³` buckets) over the
    /// current positions. The surface is an argument because whoever
    /// plans queries already holds the executor's delta-maintained
    /// index ([`crate::Octopus::surface_index`]); extracting it again
    /// from the cells is the single most expensive thing a planner
    /// could do, and a ring snapshot ([`Mesh::snapshot`]) has no cheaper
    /// way to answer it.
    pub fn new(mesh: &Mesh, surface: &SurfaceIndex, model: CostModel, hist_res: usize) -> Planner {
        let histogram =
            SelectivityHistogram::build(mesh.positions(), &mesh.bounding_box(), hist_res);
        let mut planner = Planner::from_parts(
            model,
            histogram,
            surface.ratio(mesh.num_vertices()),
            mesh.adjacency().average_degree(),
        );
        planner.epoch = Some(mesh.restructure_epoch());
        planner.hist_res = Some(hist_res);
        planner
    }

    /// Builds from explicit workload characteristics (no mesh pass).
    pub fn from_parts(
        model: CostModel,
        histogram: SelectivityHistogram,
        surface_ratio: f64,
        mesh_degree: f64,
    ) -> Planner {
        let crossover = model.crossover_selectivity(surface_ratio, mesh_degree);
        Planner {
            model,
            histogram,
            surface_ratio,
            mesh_degree,
            crossover,
            epoch: None,
            hist_res: None,
        }
    }

    /// Revalidates the cached dataset characteristics against `mesh`'s
    /// restructure epoch. When the epoch has advanced since the planner
    /// was built (or the planner has no recorded provenance), S, M, the
    /// Eq.-6 crossover — and, when the planner built its own histogram,
    /// the histogram — are recomputed from the current mesh and its
    /// `surface` index (see [`Planner::new`]); otherwise this is a
    /// two-word comparison. Returns whether a recompute happened.
    ///
    /// Long-running monitor sessions call this once per restructuring
    /// step (the epoch makes it free on every other step); skipping it
    /// leaves decisions on the ingest-time crossover, which a
    /// restructure-heavy run can push across the Eq.-6 boundary — see
    /// `stale_crossover_flips_after_heavy_restructuring`.
    pub fn refresh_if_restructured(&mut self, mesh: &Mesh, surface: &SurfaceIndex) -> bool {
        if self.epoch == Some(mesh.restructure_epoch()) {
            return false;
        }
        self.surface_ratio = surface.ratio(mesh.num_vertices());
        self.mesh_degree = mesh.adjacency().average_degree();
        self.crossover = self
            .model
            .crossover_selectivity(self.surface_ratio, self.mesh_degree);
        if let Some(res) = self.hist_res {
            self.histogram =
                SelectivityHistogram::build(mesh.positions(), &mesh.bounding_box(), res);
        }
        self.epoch = Some(mesh.restructure_epoch());
        true
    }

    /// Decides the strategy for query `q` (Eq. 6).
    pub fn decide(&self, q: &Aabb) -> Decision {
        self.decide_hoisted(&self.histogram.grid(), &self.speedup_terms(), q)
    }

    /// The hoisted Eq. 5 factors for this dataset's (S, M).
    fn speedup_terms(&self) -> crate::cost_model::SpeedupTerms {
        self.model
            .speedup_terms(self.surface_ratio, self.mesh_degree)
    }

    /// One decision under caller-hoisted per-batch invariants. Both
    /// [`Planner::decide`] and [`Planner::decide_batch`] route through
    /// this, so their outputs are bit-identical.
    #[inline]
    fn decide_hoisted(
        &self,
        grid: &octopus_index::HistogramGrid,
        terms: &crate::cost_model::SpeedupTerms,
        q: &Aabb,
    ) -> Decision {
        let sel = self.histogram.estimate_selectivity_with(grid, q);
        Decision {
            strategy: if sel < self.crossover {
                Strategy::Octopus
            } else {
                Strategy::LinearScan
            },
            estimated_selectivity: sel,
            crossover_selectivity: self.crossover,
            predicted_speedup: terms.eval(sel),
        }
    }

    /// Decides a whole batch at once, one [`Decision`] per query in
    /// input order — the entry point the service layer's batch engine
    /// uses to route overlap groups between the crawl paths and the
    /// shared linear scan.
    ///
    /// All per-batch invariants are hoisted out of the loop: the
    /// histogram's grid geometry ([`SelectivityHistogram::grid`] —
    /// previously re-derived per query, including three divisions per
    /// visited bucket), the Eq.-5 speedup factors
    /// ([`crate::CostModel::speedup_terms`]), and the cached Eq.-6
    /// crossover. Routing a mixed batch therefore costs one histogram
    /// probe per query and nothing else.
    ///
    /// [`SelectivityHistogram::grid`]: octopus_index::SelectivityHistogram::grid
    pub fn decide_batch(&self, queries: &[Aabb]) -> Vec<Decision> {
        let grid = self.histogram.grid();
        let terms = self.speedup_terms();
        queries
            .iter()
            .map(|q| self.decide_hoisted(&grid, &terms, q))
            .collect()
    }

    /// The dataset's surface-to-volume ratio `S`.
    pub fn surface_ratio(&self) -> f64 {
        self.surface_ratio
    }

    /// The dataset's mesh degree `M`.
    pub fn mesh_degree(&self) -> f64 {
        self.mesh_degree
    }

    /// The underlying cost model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_geom::Point3;
    use octopus_meshgen::voxel::VoxelRegion;

    fn box_mesh(n: usize) -> octopus_mesh::Mesh {
        let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        octopus_meshgen::tet::tetrahedralize(&VoxelRegion::solid_box(&bounds, n, n, n)).unwrap()
    }

    fn paper_planner(mesh: &octopus_mesh::Mesh, hist_res: usize) -> Planner {
        let surface = SurfaceIndex::build(mesh).unwrap();
        Planner::new(mesh, &surface, CostModel::paper_constants(), hist_res)
    }

    #[test]
    fn tiny_queries_choose_octopus_huge_choose_scan() {
        let mesh = box_mesh(10);
        let planner = paper_planner(&mesh, 8);
        let tiny = planner.decide(&Aabb::cube(Point3::splat(0.5), 0.01));
        assert_eq!(tiny.strategy, Strategy::Octopus);
        assert!(tiny.predicted_speedup > 1.0);
        let huge = planner.decide(&Aabb::new(Point3::ORIGIN, Point3::splat(1.0)));
        assert_eq!(huge.strategy, Strategy::LinearScan);
        assert!(huge.estimated_selectivity > huge.crossover_selectivity);
    }

    #[test]
    fn decision_is_consistent_with_the_model() {
        let mesh = box_mesh(8);
        let planner = paper_planner(&mesh, 6);
        let d = planner.decide(&Aabb::cube(Point3::splat(0.4), 0.1));
        let expected = planner
            .model()
            .crossover_selectivity(planner.surface_ratio(), planner.mesh_degree());
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
        let planner = paper_planner(&mesh, 8);
        let queries: Vec<Aabb> = (1..=10)
            .map(|i| Aabb::cube(Point3::splat(0.5), 0.05 * i as f32))
            .collect();
        let batch = planner.decide_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (d, q) in batch.iter().zip(&queries) {
            let single = planner.decide(q);
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
        let planner = paper_planner(&mesh, 8);
        let queries: Vec<Aabb> = (1..=40)
            .map(|i| Aabb::cube(Point3::splat(0.5), 0.02 * i as f32))
            .collect();
        let decisions = planner.decide_batch(&queries);
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
        // Ingest-time planner on a solid box; then coarsen aggressively
        // (raising the surface-to-volume ratio, which shrinks the Eq.-6
        // crossover) and verify (a) the cache really is stale until
        // refreshed, (b) the refresh is epoch-gated, and (c) at least
        // one query's strategy decision flips once refreshed.
        let mut mesh = box_mesh(6);
        mesh.enable_restructuring().unwrap();
        let mut surface = SurfaceIndex::build(&mesh).unwrap();
        let mut planner = Planner::new(&mesh, &surface, CostModel::paper_constants(), 8);
        let stale = planner.clone();

        // No restructuring yet: refresh is a no-op.
        assert!(!planner.refresh_if_restructured(&mesh, &surface));

        // Remove a large fraction of the cells, maintaining the surface
        // index by deltas as a monitor does.
        let mut rng = octopus_geom::rng::SplitMix64::new(0xFEED);
        let target = mesh.num_cells() / 5;
        while mesh.num_cells() > target {
            let c = rng.index(mesh.cell_capacity()) as u32;
            if mesh.is_cell_alive(c) {
                surface.apply_delta(&mesh.remove_cell(c).unwrap());
            }
        }

        // The cache is stale until told: same crossover as at ingest.
        let q = Aabb::cube(Point3::splat(0.5), 0.2);
        assert_eq!(
            planner.decide(&q).crossover_selectivity,
            stale.decide(&q).crossover_selectivity
        );

        assert!(planner.refresh_if_restructured(&mesh, &surface));
        assert!(
            !planner.refresh_if_restructured(&mesh, &surface),
            "second refresh at the same epoch must be a no-op"
        );
        // The delta-maintained index gives the refresh the S a fresh
        // extraction would.
        assert_eq!(planner.surface_ratio(), mesh.surface().unwrap().ratio());
        assert!(
            planner.decide(&q).crossover_selectivity < stale.decide(&q).crossover_selectivity,
            "coarsening raises S, which must shrink the crossover: {} -> {}",
            stale.decide(&q).crossover_selectivity,
            planner.decide(&q).crossover_selectivity
        );

        // Somewhere along a size sweep, the stale planner still says
        // OCTOPUS while the refreshed one has crossed to LinearScan.
        let flipped = (1..=60).any(|i| {
            let q = Aabb::cube(Point3::splat(0.5), 0.015 * i as f32);
            stale.decide(&q).strategy == Strategy::Octopus
                && planner.decide(&q).strategy == Strategy::LinearScan
        });
        assert!(
            flipped,
            "a restructure-heavy run must flip at least one decision"
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
        let p = Planner::from_parts(CostModel::paper_constants(), hist, 1.0, 14.0);
        let d = p.decide(&Aabb::cube(Point3::splat(0.1), 0.01));
        assert_eq!(d.strategy, Strategy::LinearScan);
    }
}
