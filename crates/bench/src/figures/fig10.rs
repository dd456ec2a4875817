//! Fig. 10 — OCTOPUS overhead analysis.
//!
//! (a) per-phase execution-time breakdown across dataset sizes;
//! (b) memory footprint vs number of query results — fixed part (the
//! executor: 4 B/vertex component labels and the per-component surface
//! lists; plus the scratch's crawl masks, 16 B/vertex) and
//! result-proportional part (the crawl queue and touched list) — plus
//! the one-time build cost of the executor (§VI-A text).

use super::FigureOutput;
use crate::runner::{fixed_selectivity_supplier, run_scenario, Approach};
use crate::table::{ms, Table};
use crate::workload::QueryGen;
use crate::Config;
use octopus_core::{Octopus, Probe};
use octopus_meshgen::{neuron, NeuroLevel};
use octopus_sim::{Simulation, SmoothRandomField};
use std::time::Instant;

/// Runs both panels.
pub fn run(config: &Config) -> FigureOutput {
    let steps = config.steps(60);

    // ---- (a): phase breakdown vs dataset size.
    let mut phase_table = Table::new(
        format!("Fig. 10(a): performance breakdown [ms] ({steps} steps, fixed queries)"),
        &[
            "Level",
            "Surface probe",
            "Directed walk",
            "Crawling",
            "Build time [ms]",
        ],
    );
    for level in NeuroLevel::ALL {
        let mesh = neuron(level, config.scale).expect("neuron generation");
        let b0 = Instant::now();
        let octopus = Octopus::new(&mesh).expect("surface build");
        let build_ms = b0.elapsed().as_secs_f64() * 1e3;
        let gen = QueryGen::new(&mesh, config.seed ^ 10);
        let mut approaches = vec![Approach::octopus(octopus, &mesh)];
        let mut sim = Simulation::new(
            mesh,
            Box::new(SmoothRandomField::new(0.004, 4, config.seed ^ 0xA0)),
        );
        let mut supplier = fixed_selectivity_supplier(gen, 15, 0.001);
        let result =
            run_scenario(&mut sim, steps, &mut supplier, &mut approaches).expect("scenario");
        let p = result.get("OCTOPUS").unwrap().phases;
        phase_table.push_row(vec![
            level.label().into(),
            ms(p.surface_probe),
            ms(p.directed_walk),
            ms(p.crawling),
            format!("{build_ms:.2}"),
        ]);
    }

    // ---- (b): memory footprint vs result count.
    let mut mem_table = Table::new(
        "Fig. 10(b): memory footprint vs number of query results",
        &["Results", "Footprint [KiB]", "fixed [KiB]", "queues [KiB]"],
    );
    {
        let mesh = neuron(NeuroLevel::L5, config.scale).expect("neuron generation");
        let n = mesh.num_vertices() as f64;
        let mut gen = QueryGen::new(&mesh, config.seed ^ 0xAB);
        for fraction in [0.002f64, 0.01, 0.05, 0.15, 0.3] {
            // Fresh executor per point: footprint reflects this workload only.
            let octopus = Octopus::new(&mesh).expect("surface");
            let mut scratch = octopus.make_scratch(&mesh);
            let mut out = Vec::new();
            let mut results = 0usize;
            for _ in 0..15 {
                let q = gen.query_with_count(fraction * n);
                out.clear();
                octopus.query_with(&mut scratch, &mesh, &q, Probe::Surface, &mut out);
                results += out.len();
            }
            let total = octopus.memory_bytes() + scratch.memory_bytes();
            let fixed = octopus.memory_bytes() + scratch.mask_bytes();
            mem_table.push_row(vec![
                results.to_string(),
                format!("{:.1}", total as f64 / 1024.0),
                format!("{:.1}", fixed as f64 / 1024.0),
                format!("{:.1}", (total - fixed) as f64 / 1024.0),
            ]);
        }
    }

    FigureOutput {
        id: "fig10",
        title: "Overhead analysis: phase breakdown (a), memory footprint (b)".into(),
        tables: vec![phase_table, mem_table],
        notes: vec![
            "Paper: probe + crawl dominate; the directed walk barely contributes; probe \
             time grows sub-proportionally with size (S falls); crawl grows with the \
             result count. Surface-index build: one-time 62 s for the 33 GB mesh (the \
             build column here times `Octopus::new`: surface extraction plus the \
             component search)."
                .into(),
            "Paper Fig. 10(b): footprint ∝ results (1.9 MB traversal state + 27 MB \
             surface index for 480 k results on 208 M vertices). That fully result-\
             proportional footprint corresponds to a hash-set visited set we do not carry: \
             the crawl's two u64 member masks are a fixed 16 B/vertex, read from the \
             scratch, and only the crawl queue and its touched list grow. \
             Our fixed part has no hash table: the surface is kept as per-component \
             id lists beside a 4 B/vertex component label, which the paper's executor \
             does not have."
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_walk_is_negligible_and_memory_grows_with_results() {
        let out = run(&Config::quick());
        // (a): walk time does not dominate probe + crawl summed over
        // levels. (At full scale it is negligible — run the figure
        // without `--quick`; quick-config meshes are tiny, so allow
        // slack.)
        let (mut walk, mut rest) = (0.0f64, 0.0f64);
        for row in &out.tables[0].rows {
            walk += row[2].parse::<f64>().unwrap();
            rest += row[1].parse::<f64>().unwrap() + row[3].parse::<f64>().unwrap();
        }
        assert!(
            walk < 2.0 * rest,
            "directed walk must not dominate: {walk} vs {rest}"
        );
        // (b): footprint increases with result count.
        let rows = &out.tables[1].rows;
        let first: f64 = rows.first().unwrap()[1].parse().unwrap();
        let last: f64 = rows.last().unwrap()[1].parse().unwrap();
        assert!(
            last > first,
            "footprint must grow with results: {first} -> {last}"
        );
    }
}
