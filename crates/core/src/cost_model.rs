//! The analytical cost model (§IV-G, Eq. 1–6).
//!
//! The paper's two machine constants:
//!
//! * `C_S` — cost of touching one vertex *sequentially* (the scan);
//! * `C_R` — cost of touching one vertex through the adjacency list
//!   (random access during the crawl).
//!
//! On the paper's hardware `C_S = 6.6 ns`, `C_R = 27 ns` (C_R ≈ 4 × C_S).
//!
//! **Refinement.** Eq. 1 charges the surface probe at `C_S`, i.e. treats
//! probing `S × V` scattered vertices as sequential access. On 2011-era
//! hardware with `S ≤ 0.07` the distinction was invisible; on modern
//! CPUs the linear scan auto-vectorises (~1 ns/vertex) while the probe
//! is gather-bound even with software prefetch (~3 ns/vertex), and
//! pretending they cost the same mispredicts OCTOPUS by ~3× at
//! laptop-scale surface ratios. This model therefore carries a third,
//! explicitly calibrated constant `C_P` (probe cost per surface vertex):
//! Eq. 1 becomes `C_P × S × V`. Setting `C_P = C_S` recovers the paper's
//! model exactly — [`CostModel::paper_constants`] does so.
//!
//! [`CostModel::calibrate`] measures all three constants on the current
//! machine the way the paper does: "averaging a long run of a linear
//! scan and graph traversal over the smallest dataset".

use octopus_geom::mem::gather;
use octopus_geom::Aabb;
use octopus_mesh::Mesh;
use std::time::Instant;

/// Calibrated machine constants + the paper's cost equations.
///
/// ```
/// use octopus_core::CostModel;
///
/// // The paper's hardware constants (§VI-B): C_S = 6.6 ns, C_R = 27 ns.
/// let model = CostModel::paper_constants();
/// // Their 1.32 G-tet dataset: S = 0.03, M = 14.51, selectivity 0.1 %.
/// let speedup = model.speedup(0.03, 14.51, 0.001);
/// assert!((speedup - 11.1).abs() < 0.3);
/// // Eq. 6: OCTOPUS wins below ~1.61 % selectivity on that dataset.
/// let crossover = model.crossover_selectivity(0.03, 14.51);
/// assert!((crossover * 100.0 - 1.61).abs() < 0.05);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Seconds per sequentially accessed vertex (`C_S`).
    pub cs: f64,
    /// Seconds per randomly accessed vertex (`C_R`).
    pub cr: f64,
    /// Seconds per probed surface vertex (`C_P`, gather access). The
    /// paper's Eq. 1 implicitly sets `C_P = C_S`.
    pub cp: f64,
}

/// The selectivity-independent factors of Eq. 5 for one dataset — see
/// [`CostModel::speedup_terms`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpeedupTerms {
    /// `(C_P/C_S) · S` — the probe term.
    pub probe: f64,
    /// `M · C_R/C_S` — the crawl term per unit selectivity.
    pub crawl_per_sel: f64,
}

impl SpeedupTerms {
    /// Eq. 5 at `selectivity`: `1 / (probe + crawl_per_sel · sel)`.
    #[inline]
    pub fn eval(&self, selectivity: f64) -> f64 {
        1.0 / (self.probe + self.crawl_per_sel * selectivity)
    }
}

impl CostModel {
    /// Builds the paper's two-constant model (`C_P = C_S`), e.g.
    /// `CostModel::new(6.6e-9, 2.7e-8)`.
    pub fn new(cs: f64, cr: f64) -> CostModel {
        Self::with_probe_constant(cs, cr, cs)
    }

    /// Builds the refined three-constant model.
    pub fn with_probe_constant(cs: f64, cr: f64, cp: f64) -> CostModel {
        assert!(
            cs > 0.0 && cr > 0.0 && cp > 0.0,
            "cost constants must be positive"
        );
        CostModel { cs, cr, cp }
    }

    /// The paper's measured constants (§VI-B), for reference comparisons.
    pub fn paper_constants() -> CostModel {
        CostModel::new(6.6e-9, 2.7e-8)
    }

    /// Measures `C_S`, `C_R` and `C_P` on this machine using `mesh` (use
    /// a small dataset; the paper calibrates on its smallest). `repeats`
    /// full passes are averaged — 3–10 gives stable values in release
    /// builds.
    pub fn calibrate(mesh: &Mesh, repeats: usize) -> CostModel {
        assert!(repeats >= 1);
        assert!(mesh.num_vertices() > 0, "cannot calibrate on an empty mesh");
        let positions = mesh.positions();

        // --- C_S: the linear scan's actual inner loop (containment test
        // + conditional id collection into a reused buffer), so the
        // constant matches what Eq. 4 is compared against.
        let probe = Aabb::new(
            octopus_geom::Point3::splat(0.25),
            octopus_geom::Point3::splat(0.5),
        );
        let mut out: Vec<u32> = Vec::new();
        // Scale the pass count so the window is long enough (≥ a few ms)
        // to be immune to timer resolution and turbo transients.
        let passes = repeats.max(2_000_000 / positions.len().max(1) + 1);
        let t0 = Instant::now();
        for _ in 0..passes {
            out.clear();
            for (i, p) in positions.iter().enumerate() {
                if probe.contains(*p) {
                    out.push(i as u32);
                }
            }
        }
        let cs = t0.elapsed().as_secs_f64() / (passes * positions.len()) as f64;
        std::hint::black_box(&out);

        // --- C_R: bounded breadth-first crawls from scattered starts —
        // the crawl is query-local (a few thousand vertices around the
        // result set), so whole-mesh sweeps would overstate its cache
        // misses. Each probe region is a box around the start vertex.
        let n = mesh.num_vertices();
        let mut visited = vec![0u32; n];
        let mut round = 0u32;
        let mut queue = std::collections::VecDeque::new();
        let mut edge_touches = 0u64;
        let starts = (16 * repeats).max(16);
        let t1 = Instant::now();
        for s_i in 0..starts {
            round += 1;
            let start = ((s_i * 2_654_435_761) % n) as u32;
            let region = Aabb::cube(positions[start as usize], 0.15);
            visited[start as usize] = round;
            queue.push_back(start);
            let mut local_touches = 0u64;
            while let Some(v) = queue.pop_front() {
                for &w in mesh.neighbors(v) {
                    local_touches += 1;
                    if visited[w as usize] != round {
                        visited[w as usize] = round;
                        if region.contains(positions[w as usize]) {
                            queue.push_back(w);
                        }
                    }
                }
                if local_touches > 50_000 {
                    queue.clear();
                    break;
                }
            }
            edge_touches += local_touches;
        }
        let cr = t1.elapsed().as_secs_f64() / edge_touches.max(1) as f64;
        std::hint::black_box(&visited);

        // --- C_P: the executor's probe itself — its prefetching gather
        // over the surface ids with the branchless containment test.
        let ids = mesh
            .surface()
            .map(|s| s.vertices().to_vec())
            .unwrap_or_default();
        let cp = if ids.is_empty() {
            // Degenerate mesh without a surface: charge the probe at C_S.
            cs
        } else {
            let mut hits = 0u64;
            let passes = repeats.max(2_000_000 / ids.len() + 1);
            let t2 = Instant::now();
            for _ in 0..passes {
                gather(&ids, positions, |_, p| hits += u64::from(probe.contains(p)));
            }
            std::hint::black_box(hits);
            t2.elapsed().as_secs_f64() / (passes * ids.len()) as f64
        };

        // Guard against degenerate timings on tiny meshes.
        CostModel {
            cs: cs.max(1e-12),
            cr: cr.max(1e-12),
            cp: cp.max(1e-12),
        }
    }

    /// Eq. 1 (refined) — surface probe cost (seconds): `C_P × (S × V)`.
    /// With `C_P = C_S` this is the paper's Eq. 1 verbatim.
    pub fn probe_seconds(&self, v: usize, s: f64) -> f64 {
        self.cp * s * v as f64
    }

    /// Eq. 2 — crawling cost (seconds): `C_R × M × (sel × V)`.
    /// `selectivity` is a fraction in [0, 1].
    pub fn crawl_seconds(&self, v: usize, m: f64, selectivity: f64) -> f64 {
        self.cr * m * selectivity * v as f64
    }

    /// Eq. 3 — total OCTOPUS cost (seconds).
    pub fn octopus_seconds(&self, v: usize, s: f64, m: f64, selectivity: f64) -> f64 {
        self.probe_seconds(v, s) + self.crawl_seconds(v, m, selectivity)
    }

    /// Eq. 4 — linear scan cost (seconds): `C_S × V`.
    pub fn scan_seconds(&self, v: usize) -> f64 {
        self.cs * v as f64
    }

    /// Eq. 5 (refined) — predicted speedup of OCTOPUS over the linear
    /// scan: `1 / ((C_P/C_S)·S + M × sel × C_R/C_S)`. Independent of `V`;
    /// reduces to the paper's Eq. 5 when `C_P = C_S`.
    pub fn speedup(&self, s: f64, m: f64, selectivity: f64) -> f64 {
        self.speedup_terms(s, m).eval(selectivity)
    }

    /// Hoists the selectivity-independent parts of Eq. 5 for a fixed
    /// dataset `(S, M)`: evaluating a whole batch of selectivities then
    /// costs one multiply-add and one division each, instead of
    /// re-deriving the `C` ratios per query. `speedup` routes through
    /// this, so batched and per-query evaluations are bit-identical.
    pub fn speedup_terms(&self, s: f64, m: f64) -> SpeedupTerms {
        SpeedupTerms {
            probe: (self.cp / self.cs) * s,
            crawl_per_sel: m * self.cr / self.cs,
        }
    }

    /// Eq. 6 (refined) — the selectivity below which OCTOPUS beats the
    /// scan: `sel* = (1 − (C_P/C_S)·S) × (C_S/C_R) / M` (clamped at 0
    /// when the probe alone already exceeds the scan). Reduces to the
    /// paper's Eq. 6 when `C_P = C_S`.
    pub fn crossover_selectivity(&self, s: f64, m: f64) -> f64 {
        ((1.0 - (self.cp / self.cs) * s) * (self.cs / self.cr) / m).max(0.0)
    }
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

    #[test]
    fn equations_compose() {
        let m = CostModel::paper_constants();
        let (v, s, deg, sel) = (1_000_000usize, 0.05, 14.5, 0.001);
        let total = m.octopus_seconds(v, s, deg, sel);
        assert!((total - (m.probe_seconds(v, s) + m.crawl_seconds(v, deg, sel))).abs() < 1e-15);
    }

    #[test]
    fn speedup_at_crossover_is_one() {
        let m = CostModel::paper_constants();
        for s in [0.03, 0.16, 0.5] {
            for deg in [6.0, 13.5, 14.5] {
                let sel = m.crossover_selectivity(s, deg);
                let speedup = m.speedup(s, deg, sel);
                assert!((speedup - 1.0).abs() < 1e-9, "S={s} M={deg}: {speedup}");
            }
        }
    }

    #[test]
    fn paper_crossover_example_reproduces() {
        // §VI-B: "For a dataset containing 1.32 billion tetrahedra
        // OCTOPUS performs better if the query selectivity is less than
        // 1.61%". Fig. 4: S = 0.03, M = 14.51; C_S/C_R ≈ 0.244.
        let m = CostModel::paper_constants();
        let sel = m.crossover_selectivity(0.03, 14.51);
        assert!(
            (sel * 100.0 - 1.61).abs() < 0.05,
            "crossover {}% should be ≈ 1.61%",
            sel * 100.0
        );
    }

    #[test]
    fn paper_speedup_example_reproduces() {
        // §VI-B claims "queries of 0.01% selectivity … expected speedup
        // is 11.1, matching Fig. 7(b)". Plugging 0.01% into Eq. 5 gives
        // 27.8×, not 11.1× — the text's selectivity is a typo: 11.1×
        // falls out of Eq. 5 at 0.1% (the selectivity Fig. 7's setup
        // actually uses, §V-C). We reproduce the consistent reading.
        let m = CostModel::paper_constants();
        let speedup = m.speedup(0.03, 14.51, 0.001);
        assert!(
            (speedup - 11.1).abs() < 0.3,
            "speedup {speedup} should be ≈ 11.1 at sel 0.1%"
        );
        let speedup_typo = m.speedup(0.03, 14.51, 0.0001);
        assert!(
            speedup_typo > 25.0,
            "the text's 0.01% reading gives {speedup_typo}, not 11.1"
        );
    }

    #[test]
    fn speedup_decreases_with_selectivity_and_surface_ratio() {
        let m = CostModel::paper_constants();
        assert!(m.speedup(0.03, 14.0, 0.0001) > m.speedup(0.03, 14.0, 0.002));
        assert!(m.speedup(0.03, 14.0, 0.001) > m.speedup(0.09, 14.0, 0.001));
        assert!(m.speedup(0.03, 6.0, 0.001) > m.speedup(0.03, 14.0, 0.001));
    }

    #[test]
    fn s_equals_one_degrades_to_scan() {
        // §VIII-B: "the worst case is when the mesh consists of only
        // surface vertices (S = 1): OCTOPUS … degrades to a linear scan."
        let m = CostModel::paper_constants();
        let v = 500_000;
        assert!(m.octopus_seconds(v, 1.0, 14.0, 0.0) >= m.scan_seconds(v) * 0.999);
        assert!(m.speedup(1.0, 14.0, 0.0) <= 1.0);
    }

    #[test]
    fn calibration_produces_positive_sane_constants() {
        let mesh = box_mesh(8);
        let m = CostModel::calibrate(&mesh, 2);
        assert!(m.cs > 0.0 && m.cr > 0.0 && m.cp > 0.0);
        // All are "nanoseconds per element" scale quantities, not wildly
        // off (loose sanity bounds: 0.01 ns – 10 µs).
        assert!(m.cs > 1e-11 && m.cs < 1e-5, "cs = {}", m.cs);
        assert!(m.cr > 1e-11 && m.cr < 1e-5, "cr = {}", m.cr);
        assert!(m.cp > 1e-11 && m.cp < 1e-5, "cp = {}", m.cp);
    }

    #[test]
    fn paper_model_sets_probe_constant_to_cs() {
        let m = CostModel::paper_constants();
        assert_eq!(m.cp, m.cs, "C_P = C_S recovers the paper's Eq. 1/5/6");
    }

    #[test]
    fn refined_crossover_clamps_at_zero() {
        // A probe 10× slower than the scan with S close to 1: OCTOPUS
        // can never win; the crossover must clamp rather than go
        // negative.
        let m = CostModel::with_probe_constant(1e-9, 4e-9, 1e-8);
        assert_eq!(m.crossover_selectivity(0.5, 14.0), 0.0);
        assert!(m.speedup(0.5, 14.0, 0.0001) < 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_constants_rejected() {
        CostModel::new(0.0, 1.0);
    }
}
