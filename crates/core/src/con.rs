//! OCTOPUS-CON: the convex-mesh variant (§IV-F).
//!
//! Convex meshes satisfy complete internal reachability, so the surface
//! probe is unnecessary: *any* start vertex reaches the query region by a
//! directed walk, and one crawl retrieves the exact result. To keep the
//! walk short, OCTOPUS-CON consults a **stale** uniform grid — built once
//! before the simulation and never updated — for a vertex that was near
//! the query centre at build time. Staleness is harmless: the grid only
//! chooses a starting point; correctness comes from the walk + crawl on
//! live data.

use crate::executor::{greedy_walk, PhaseTimings};
use crate::frontier::GroupScratch;
use octopus_geom::{Aabb, VertexId};
use octopus_index::{DynamicIndex, UniformGrid};
use octopus_mesh::Mesh;
use std::time::Instant;

/// Default grid resolution: 10 × 10 × 10 = the 1000-cell grid the paper
/// uses for its Fig. 9(a/b) measurements.
pub const DEFAULT_GRID_RESOLUTION: usize = 10;

/// The convex-mesh query executor.
#[derive(Debug)]
pub struct OctopusCon {
    grid: UniformGrid,
    /// The crawl's scratch; every query is a group of one.
    crawl: GroupScratch,
}

impl OctopusCon {
    /// Builds the stale grid (resolution `10³` cells) over the mesh's
    /// current bounds.
    pub fn new(mesh: &Mesh) -> OctopusCon {
        OctopusCon::with_resolution(mesh, DEFAULT_GRID_RESOLUTION)
    }

    /// Builds with an explicit per-axis grid resolution (Fig. 9(c/d)
    /// sweeps 2–18, i.e. 8–5832 cells).
    pub fn with_resolution(mesh: &Mesh, res: usize) -> OctopusCon {
        let bounds = mesh.bounding_box();
        OctopusCon {
            grid: UniformGrid::build(mesh.positions(), &bounds, res),
            crawl: GroupScratch::default(),
        }
    }

    /// The stale grid (inspection / Fig. 9(d) memory readings).
    pub fn grid(&self) -> &UniformGrid {
        &self.grid
    }

    /// Executes a range query on a convex mesh. Phases: stale-grid lookup
    /// (+ directed walk) → crawl. The surface-probe timing slot stays
    /// zero, which is exactly the saving Fig. 9(b) shows.
    ///
    /// # Accuracy
    /// Exact for meshes with complete internal reachability (convex
    /// geometry). On non-convex meshes use [`crate::Octopus`].
    pub fn query(&mut self, mesh: &Mesh, q: &Aabb, out: &mut Vec<VertexId>) -> PhaseTimings {
        let mut stats = PhaseTimings::default();
        let results = std::slice::from_mut(out);
        self.crawl.begin_group(mesh.num_vertices(), 0, 1);

        let t0 = Instant::now();
        if let Some(start) = self.grid.stale_start_vertex(q.center()) {
            let (found, steps, _) = greedy_walk(mesh, q, start);
            stats.walk_visited = steps;
            if let Some(inside) = found {
                self.crawl.seed(inside, 1, results);
                stats.start_vertices = 1;
            }
        }
        stats.directed_walk = t0.elapsed();

        let t1 = Instant::now();
        self.crawl.crawl(mesh, std::slice::from_ref(q), results);
        stats.crawling = t1.elapsed();
        stats.crawl_visited = self.crawl.per_visited[0];
        stats.results = out.len();
        stats
    }

    /// Heap bytes: grid + traversal scratch.
    pub fn memory_bytes(&self) -> usize {
        self.grid.memory_bytes() + self.crawl.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_geom::rng::SplitMix64;
    use octopus_geom::Point3;
    use octopus_meshgen::voxel::VoxelRegion;

    fn box_mesh(n: usize) -> Mesh {
        let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        octopus_meshgen::tet::tetrahedralize(&VoxelRegion::solid_box(&bounds, n, n, n)).unwrap()
    }

    fn scan(mesh: &Mesh, q: &Aabb) -> Vec<VertexId> {
        mesh.positions()
            .iter()
            .enumerate()
            .filter(|(_, p)| q.contains(**p))
            .map(|(i, _)| i as VertexId)
            .collect()
    }

    #[test]
    fn exact_on_convex_mesh_random_queries() {
        let mesh = box_mesh(8);
        let mut con = OctopusCon::new(&mesh);
        let mut rng = SplitMix64::new(21);
        for i in 0..30 {
            let c = Point3::new(rng.next_f32(), rng.next_f32(), rng.next_f32());
            let q = Aabb::cube(c, rng.range_f32(0.03, 0.3));
            let mut out = Vec::new();
            con.query(&mesh, &q, &mut out);
            out.sort_unstable();
            assert_eq!(out, scan(&mesh, &q), "query {i}");
        }
    }

    #[test]
    fn interior_queries_never_touch_a_surface_probe() {
        let mesh = box_mesh(8);
        let mut con = OctopusCon::new(&mesh);
        let q = Aabb::new(Point3::splat(0.45), Point3::splat(0.55));
        let mut out = Vec::new();
        let stats = con.query(&mesh, &q, &mut out);
        assert_eq!(stats.surface_probe, std::time::Duration::ZERO);
        assert!(stats.walk_visited >= 1);
        out.sort_unstable();
        assert_eq!(out, scan(&mesh, &q));
    }

    #[test]
    fn stays_exact_when_grid_goes_stale_affine_motion() {
        let mut mesh = box_mesh(8);
        let mut con = OctopusCon::new(&mesh);
        // Convexity-preserving motion: shear the whole box each step —
        // the stale grid now disagrees with live positions.
        for step in 1..=5 {
            let s = step as f32 * 0.05;
            for p in mesh.positions_mut() {
                let y = p.y;
                p.x += s * y; // shear
                p.z *= 1.0 + 0.02 * s;
            }
            let q = Aabb::cube(Point3::new(0.5 + s, 0.5, 0.5), 0.15);
            let mut out = Vec::new();
            con.query(&mesh, &q, &mut out);
            out.sort_unstable();
            assert_eq!(out, scan(&mesh, &q), "step {step}");
        }
    }

    #[test]
    fn empty_query_outside_mesh() {
        let mesh = box_mesh(5);
        let mut con = OctopusCon::new(&mesh);
        let q = Aabb::cube(Point3::splat(9.0), 0.5);
        let mut out = Vec::new();
        let stats = con.query(&mesh, &q, &mut out);
        assert!(out.is_empty());
        assert_eq!(stats.results, 0);
    }

    #[test]
    fn finer_grid_shortens_the_walk() {
        let mesh = box_mesh(12);
        let mut coarse = OctopusCon::with_resolution(&mesh, 2);
        let mut fine = OctopusCon::with_resolution(&mesh, 12);
        let mut rng = SplitMix64::new(31);
        let (mut walk_coarse, mut walk_fine) = (0usize, 0usize);
        for _ in 0..20 {
            let c = Point3::new(
                rng.range_f32(0.1, 0.9),
                rng.range_f32(0.1, 0.9),
                rng.range_f32(0.1, 0.9),
            );
            let q = Aabb::cube(c, 0.05);
            let mut out = Vec::new();
            walk_coarse += coarse.query(&mesh, &q, &mut out).walk_visited;
            out.clear();
            walk_fine += fine.query(&mesh, &q, &mut out).walk_visited;
        }
        assert!(
            walk_fine < walk_coarse,
            "Fig. 9(c) trend: fine {walk_fine} < coarse {walk_coarse}"
        );
        // Fig. 9(d) trend: finer grid costs more memory.
        assert!(fine.grid().memory_bytes() > coarse.grid().memory_bytes());
    }

    #[test]
    fn results_match_octopus_full_on_convex_mesh() {
        let mesh = box_mesh(6);
        let mut con = OctopusCon::new(&mesh);
        let full = crate::Octopus::new(&mesh).unwrap();
        let q = Aabb::new(Point3::splat(0.2), Point3::splat(0.8));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        con.query(&mesh, &q, &mut a);
        let probe = crate::Probe::Surface;
        full.query_with(&mut full.make_scratch(&mesh), &mesh, &q, probe, &mut b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn grid_memory_is_reported() {
        let mesh = box_mesh(4);
        let con = OctopusCon::with_resolution(&mesh, 6);
        assert!(con.memory_bytes() > 0);
        assert_eq!(con.grid().num_cells(), 216);
    }
}
