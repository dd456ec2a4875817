//! Quickstart: build a mesh, deform it, query it with OCTOPUS.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use octopus::prelude::*;
use octopus::sim::SmoothRandomField;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A volumetric tetrahedral mesh: a solid 12×12×12-voxel cube.
    let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
    let region = VoxelRegion::solid_box(&bounds, 12, 12, 12);
    let mesh = octopus::meshgen::tet::tetrahedralize(&region)?;
    println!("mesh: {}", MeshStats::compute(&mesh)?);

    // 2. Build OCTOPUS once. Its surface never needs maintenance while
    //    the simulation only moves vertices. Each query runs through a
    //    scratch of the caller's (one per thread).
    let engine = Octopus::new(&mesh)?;
    let mut scratch = engine.make_scratch(&mesh);
    println!(
        "surface: {} of {} vertices (executor {:.1} KiB)",
        engine.surface_len(),
        mesh.num_vertices(),
        engine.memory_bytes() as f64 / 1024.0
    );

    // 3. Run a simulation: every step rewrites *every* vertex position.
    let mut sim = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.01, 4, 42)));
    let scan = LinearScan::new();
    let query = Aabb::cube(Point3::splat(0.5), 0.18);

    for _ in 0..5 {
        sim.step()?;
        let mesh = sim.mesh();

        // OCTOPUS result…
        let mut octopus_result = Vec::new();
        let probe = Probe::Surface;
        let stats = engine.query_with(&mut scratch, mesh, &query, probe, &mut octopus_result);

        // …must equal the brute-force ground truth.
        let mut scan_result = Vec::new();
        scan.query(&query, mesh.positions(), &mut scan_result);
        octopus_result.sort_unstable();
        scan_result.sort_unstable();
        assert_eq!(octopus_result, scan_result);

        println!(
            "step {}: {} vertices in query | probe {:?} + walk {:?} + crawl {:?} \
             ({} seeds, {} crawled)",
            sim.current_step(),
            stats.results,
            stats.surface_probe,
            stats.directed_walk,
            stats.crawling,
            stats.start_vertices,
            stats.crawl_visited,
        );
    }

    println!("OCTOPUS matched the linear scan on every step — no index maintenance paid.");
    Ok(())
}
