//! Neuroscience monitoring (§III-B): the three Blue-Brain-style monitors
//! — structural validation, mesh quality, visualization — running against
//! a deforming two-neuron mesh, with a rare restructuring event thrown in
//! to exercise incremental surface-index maintenance.
//!
//! ```text
//! cargo run --release --example neuroscience_monitoring
//! ```

use octopus::geom::rng::SplitMix64;
use octopus::prelude::*;
use octopus::sim::{RestructureSchedule, SmoothRandomField};

/// Structural validation: vertex density inside a sampling box
/// (the paper's "computing the neuron density ... in a given area").
fn structural_validation(result: &[VertexId], query: &Aabb) -> f64 {
    result.len() as f64 / query.volume().max(1e-12)
}

/// Mesh quality: a cheap artifact proxy — pairs of result vertices from
/// *different* components that come closer than a tolerance (deformation
/// pushing separate branches into contact).
fn mesh_quality(mesh: &Mesh, comp: &[u32], result: &[VertexId], tol: f32) -> usize {
    let mut artifacts = 0;
    for (i, &a) in result.iter().enumerate() {
        for &b in result.iter().skip(i + 1) {
            if comp[a as usize] != comp[b as usize]
                && mesh.position(a).dist_sq(mesh.position(b)) < tol * tol
            {
                artifacts += 1;
            }
        }
    }
    artifacts
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mesh = octopus::meshgen::neuron(octopus::meshgen::NeuroLevel::L3, 0.7)?;
    let stats = MeshStats::compute(&mesh)?;
    println!("two-neuron mesh: {stats}");
    let (components, n_comp) = mesh.adjacency().connected_components();
    println!("components: {n_comp} (the two cells)");

    let mut engine = Octopus::new(&mesh)?;
    let mut scratch = engine.make_scratch(&mesh);
    let bounds = mesh.bounding_box();
    let mut rng = SplitMix64::new(2024);

    // Simulate neural plasticity: unpredictable smooth deformation plus a
    // rare restructuring event every 5 steps.
    let mut sim = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.004, 4, 7)))
        .with_restructuring(RestructureSchedule::new(5, 2, 99))?;

    for step in 1..=10 {
        let delta = sim.step()?;
        if !delta.is_empty() {
            println!(
                "step {step}: restructuring changed the surface (+{} / -{} vertices) — \
                 applying the delta, not rebuilding",
                delta.added.len(),
                delta.removed.len()
            );
        }
        if delta.ops > 0 {
            engine = engine.restructured(sim.mesh(), &delta);
        }
        let mesh = sim.mesh();
        let mut query = |q: &Aabb, out: &mut Vec<VertexId>| {
            engine.query_with(&mut scratch, mesh, q, Probe::Surface, out)
        };

        // Monitor 1: structural validation in a random region.
        let center = Point3::new(
            rng.range_f32(bounds.min.x, bounds.max.x),
            rng.range_f32(bounds.min.y, bounds.max.y),
            rng.range_f32(bounds.min.z, bounds.max.z),
        );
        let q1 = Aabb::cube(center, 0.08);
        let mut r1 = Vec::new();
        query(&q1, &mut r1);
        println!(
            "step {step}: density near ({:.2},{:.2},{:.2}) = {:.0} verts/unit³",
            center.x,
            center.y,
            center.z,
            structural_validation(&r1, &q1)
        );

        // Monitor 2: mesh quality in the dense inter-cell region.
        let q2 = Aabb::new(
            Point3::new(0.42, bounds.min.y, bounds.min.z),
            Point3::new(0.58, bounds.max.y, bounds.max.z),
        );
        let mut r2 = Vec::new();
        query(&q2, &mut r2);
        let artifacts = mesh_quality(mesh, &components, &r2[..r2.len().min(300)], 0.01);
        println!(
            "step {step}: {} vertices in the gap region, {artifacts} contact artifact(s)",
            r2.len()
        );

        // Monitor 3: visualization — retrieve a view volume.
        let q3 = Aabb::new(
            Point3::new(bounds.min.x, 0.3, 0.3),
            Point3::new(bounds.max.x, 0.7, 0.7),
        );
        let mut r3 = Vec::new();
        let s = query(&q3, &mut r3);
        println!(
            "step {step}: view frustum holds {} vertices (crawl visited {})",
            s.results, s.crawl_visited
        );
    }
    Ok(())
}
