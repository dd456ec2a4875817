//! Fig. 6 — benchmark evaluation: response time (a) and memory (b).
//!
//! Benchmarks A–D (Fig. 5) on the most detailed neuroscience mesh,
//! 60 time steps, comparing OCTOPUS, LinearScan, Octree (throwaway),
//! LUR-Tree and QU-Trade. Response time includes index maintenance
//! (§V-A methodology).

use super::FigureOutput;
use crate::runner::{figure_rng, run_scenario, Approach};
use crate::table::{mib, ms, speedup, Table};
use crate::workload::{NeuroBenchmark, QueryGen};
use crate::Config;
use octopus_core::Octopus;
use octopus_index::{LinearScan, LurTree, Octree, QuTrade};
use octopus_meshgen::{neuron, NeuroLevel};
use octopus_sim::{Simulation, SmoothRandomField};

/// Per-step displacement amplitude for the neural-plasticity stand-in.
pub const NEURO_AMPLITUDE: f32 = 0.004;

/// Builds the Fig. 6 competitor roster for a given mesh.
pub fn competitors(mesh: &octopus_mesh::Mesh) -> Vec<Approach> {
    let mut lur = LurTree::new();
    lur.build(mesh.positions());
    let mut qut = QuTrade::new(2.0 * NEURO_AMPLITUDE);
    qut.build(mesh.positions());
    vec![
        Approach::octopus(Octopus::new(mesh).expect("surface extraction"), mesh),
        Approach::Index(Box::new(LinearScan::new())),
        Approach::Index(Box::new(Octree::new())),
        Approach::Index(Box::new(lur)),
        Approach::Index(Box::new(qut)),
    ]
}

/// Runs benchmarks A–D over all five approaches.
pub fn run(config: &Config) -> FigureOutput {
    let steps = config.steps(60);
    let mut time_table = Table::new(
        format!("Fig. 6(a): total query response time [ms] over {steps} steps"),
        &[
            "Benchmark",
            "OCTOPUS",
            "LinearScan",
            "Octree",
            "LUR-Tree",
            "QU-Trade",
            "speedup vs scan",
        ],
    );
    let mut mem_table = Table::new(
        "Fig. 6(b): memory footprint [MiB]",
        &[
            "Benchmark",
            "OCTOPUS",
            "LinearScan",
            "Octree",
            "LUR-Tree",
            "QU-Trade",
        ],
    );
    let mut share_table = Table::new(
        "Fig. 6 text: maintenance share of total response [%] (paper: Octree 99.5, LUR 80, QU 42)",
        &["Benchmark", "Octree", "LUR-Tree", "QU-Trade"],
    );

    for bench in NeuroBenchmark::ALL {
        let mesh = neuron(NeuroLevel::L5, config.scale).expect("neuron generation");
        let mut approaches = competitors(&mesh);
        let mut gen = QueryGen::new(&mesh, config.seed ^ 6);
        let mut rng = figure_rng(config, 6);
        let mut sim = Simulation::new(
            mesh,
            Box::new(SmoothRandomField::new(
                NEURO_AMPLITUDE,
                4,
                config.seed ^ 0x66,
            )),
        );
        let mut supplier =
            move |_step: u32, _mesh: &octopus_mesh::Mesh| bench.step_queries(&mut gen, &mut rng);
        let result =
            run_scenario(&mut sim, steps, &mut supplier, &mut approaches).expect("scenario");

        let t = |name: &str| result.get(name).unwrap().total_response();
        time_table.push_row(vec![
            bench.name.into(),
            ms(t("OCTOPUS")),
            ms(t("LinearScan")),
            ms(t("Octree(rebuild)")),
            ms(t("LUR-Tree")),
            ms(t("QU-Trade")),
            speedup(result.speedup_of("OCTOPUS", "LinearScan")),
        ]);
        let m = |name: &str| result.get(name).unwrap().memory_bytes;
        mem_table.push_row(vec![
            bench.name.into(),
            mib(m("OCTOPUS")),
            mib(m("LinearScan")),
            mib(m("Octree(rebuild)")),
            mib(m("LUR-Tree")),
            mib(m("QU-Trade")),
        ]);
        let share = |name: &str| {
            let a = result.get(name).unwrap();
            let total = a.total_response().as_secs_f64().max(1e-12);
            format!("{:.1}", a.maintenance.as_secs_f64() / total * 100.0)
        };
        share_table.push_row(vec![
            bench.name.into(),
            share("Octree(rebuild)"),
            share("LUR-Tree"),
            share("QU-Trade"),
        ]);
    }

    FigureOutput {
        id: "fig6",
        title: "Benchmark evaluation: performance (a) and memory overhead (b)".into(),
        tables: vec![time_table, mem_table, share_table],
        notes: vec![
            "Paper: OCTOPUS fastest on all four benchmarks (7.3–9.2× vs scan); linear scan \
             beats all index-based approaches; Octree beats LUR-Tree/QU-Trade; memory: \
             scan < OCTOPUS < Octree < QU-Trade/LUR-Tree."
                .into(),
            "Shape to check here: same per-benchmark ordering; our OCTOPUS speedup factor \
             is smaller because laptop-scale meshes have a larger surface ratio (Eq. 5; \
             Fig. 11 validates the model at this scale)."
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_ordering_holds_on_quick_config() {
        let out = run(&Config::quick());
        let t = &out.tables[0];
        assert_eq!(t.rows.len(), 4);
        for row in &t.rows {
            let octopus: f64 = row[1].parse().unwrap();
            let scan: f64 = row[2].parse().unwrap();
            let lur: f64 = row[4].parse().unwrap();
            assert!(octopus > 0.0 && scan > 0.0);
            // The paper's headline ordering (robust even at tiny scale):
            // OCTOPUS beats the R-tree-based spatio-temporal indexes.
            assert!(
                octopus < lur,
                "OCTOPUS {octopus} vs LUR {lur} (row {row:?})"
            );
        }
        // Memory: linear scan is zero, OCTOPUS is positive and smaller
        // than LUR-Tree.
        let m = &out.tables[1].rows[0];
        let scan_mem: f64 = m[2].parse().unwrap();
        let octo_mem: f64 = m[1].parse().unwrap();
        let lur_mem: f64 = m[4].parse().unwrap();
        assert_eq!(scan_mem, 0.0);
        assert!(octo_mem > 0.0 && octo_mem < lur_mem);
    }
}
