//! The analytical cost model in practice (§IV-G, Eq. 1–6): calibrate
//! `C_S` / `C_R` / `C_P` on this machine, predict speedups and the
//! scan-vs-OCTOPUS crossover, and advise per query from a histogram
//! selectivity estimate (the paper's reference \[2\]).
//!
//! ```text
//! cargo run --release --example cost_model_advisor
//! ```

use octopus::geom::rng::SplitMix64;
use octopus::index::SelectivityHistogram;
use octopus::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mesh = octopus::meshgen::neuron(octopus::meshgen::NeuroLevel::L2, 1.0)?;
    let stats = MeshStats::compute(&mesh)?;
    println!("dataset: {stats}");

    // Calibrate like the paper: long runs over the (smallest) dataset.
    let model = CostModel::calibrate(&mesh, 5);
    println!(
        "calibrated: C_S = {:.2} ns, C_R = {:.2} ns, C_P = {:.2} ns (C_R/C_S = {:.1})",
        model.cs * 1e9,
        model.cr * 1e9,
        model.cp * 1e9,
        model.cr / model.cs
    );
    println!(
        "paper's machine: C_S = 6.6 ns, C_R = 27 ns (ratio 4.1); the paper's model \
         assumes C_P = C_S"
    );

    // Eq. 5: predicted speedups across selectivities.
    println!(
        "\nEq. 5 predicted speedup over the linear scan (S = {:.3}, M = {:.1}):",
        stats.surface_ratio, stats.mesh_degree
    );
    for sel in [0.0001f64, 0.001, 0.005, 0.01, 0.02] {
        println!(
            "  selectivity {:>6.2}% -> {:>6.2}x",
            sel * 100.0,
            model.speedup(stats.surface_ratio, stats.mesh_degree, sel)
        );
    }
    let crossover = model.crossover_selectivity(stats.surface_ratio, stats.mesh_degree);
    println!(
        "Eq. 6 crossover: OCTOPUS wins below {:.3}% selectivity",
        crossover * 100.0
    );

    // Eq. 6 per query, on a histogram selectivity estimate, with S read
    // off the executor's surface size (no second extraction); the
    // advised path answers the box.
    let engine = Octopus::new(&mesh)?;
    let mut scratch = engine.make_scratch(&mesh);
    let bounds = mesh.bounding_box();
    let histogram = SelectivityHistogram::build(mesh.positions(), &bounds, 12);
    let s = engine.surface_len() as f64 / mesh.num_vertices() as f64;
    let m = mesh.adjacency().average_degree();
    let crossover = model.crossover_selectivity(s, m);
    let scan = LinearScan::new();
    let mut rng = SplitMix64::new(5);

    println!("\nper-query decisions:");
    for _ in 0..6 {
        let c = Point3::new(
            rng.range_f32(bounds.min.x, bounds.max.x),
            rng.range_f32(bounds.min.y, bounds.max.y),
            rng.range_f32(bounds.min.z, bounds.max.z),
        );
        let q = Aabb::cube(c, rng.range_f32(0.02, 0.45));
        let sel = histogram.estimate_selectivity(&q);
        let octopus_wins = sel < crossover;
        let mut out = Vec::new();
        if octopus_wins {
            engine.query_with(&mut scratch, &mesh, &q, Probe::Surface, &mut out);
        } else {
            scan.query(&q, mesh.positions(), &mut out);
        }
        println!(
            "  est. sel {:>7.3}% -> {} (predicted speedup {:>5.2}x), {} results",
            sel * 100.0,
            if octopus_wins {
                "Octopus"
            } else {
                "LinearScan"
            },
            model.speedup(s, m, sel),
            out.len()
        );
    }
    Ok(())
}
