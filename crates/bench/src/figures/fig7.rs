//! Fig. 7 — sensitivity analysis (8 panels).
//!
//! (a/b) mesh detail with fixed query volume; (c/d) mesh detail with
//! fixed result count; (e/f) number of time steps; (g/h) query
//! selectivity. OCTOPUS vs LinearScan throughout (§V-C: 60 time steps,
//! 15 queries of 0.1 % selectivity per step unless varied).

use super::FigureOutput;
use crate::runner::{fixed_selectivity_supplier, run_scenario, Approach};
use crate::table::{speedup, Table};
use crate::workload::QueryGen;
use crate::Config;
use octopus_core::Octopus;
use octopus_index::LinearScan;
use octopus_mesh::Mesh;
use octopus_meshgen::{neuron, NeuroLevel};
use octopus_sim::{Simulation, SmoothRandomField};

const AMPLITUDE: f32 = 0.004;
const QUERIES_PER_STEP: usize = 15;
const STANDARD_SELECTIVITY: f64 = 0.001;

/// One OCTOPUS + LinearScan run; returns (octopus_ms, scan_ms, speedup).
fn duel(
    config: &Config,
    mesh: Mesh,
    steps: u32,
    mut supplier: impl FnMut(u32, &Mesh) -> Vec<octopus_geom::Aabb>,
) -> (f64, f64, f64) {
    let mut approaches = vec![
        Approach::octopus(Octopus::new(&mesh).expect("surface extraction"), &mesh),
        Approach::Index(Box::new(LinearScan::new())),
    ];
    let mut sim = Simulation::new(
        mesh,
        Box::new(SmoothRandomField::new(AMPLITUDE, 4, config.seed ^ 7)),
    );
    let result = run_scenario(&mut sim, steps, &mut supplier, &mut approaches).expect("scenario");
    let o = result
        .get("OCTOPUS")
        .unwrap()
        .total_response()
        .as_secs_f64()
        * 1e3;
    let s = result
        .get("LinearScan")
        .unwrap()
        .total_response()
        .as_secs_f64()
        * 1e3;
    (o, s, s / o.max(1e-12))
}

/// Runs all four sensitivity experiments.
pub fn run(config: &Config) -> FigureOutput {
    let steps = config.steps(60);
    let mut tables = Vec::new();

    // ---- (a/b): mesh detail, fixed query volume. The same query boxes
    // (calibrated on the coarsest mesh) are reused at every level, so
    // result counts grow with detail.
    {
        let mut t = Table::new(
            format!("Fig. 7(a/b): mesh detail, fixed query volume ({steps} steps)"),
            &["Level", "LinearScan [ms]", "OCTOPUS [ms]", "Speedup"],
        );
        let coarse = neuron(NeuroLevel::L1, config.scale).expect("neuron");
        let mut gen = QueryGen::new(&coarse, config.seed ^ 0x7A);
        // Pre-draw all queries once; reuse across levels and steps.
        let fixed: Vec<Vec<octopus_geom::Aabb>> = (0..steps)
            .map(|_| gen.batch_with_selectivity(QUERIES_PER_STEP, STANDARD_SELECTIVITY))
            .collect();
        for level in NeuroLevel::ALL {
            let mesh = neuron(level, config.scale).expect("neuron");
            let queries = fixed.clone();
            let (o, s, x) = duel(config, mesh, steps, move |step, _| {
                queries[(step - 1) as usize].clone()
            });
            t.push_row(vec![
                level.label().into(),
                format!("{s:.2}"),
                format!("{o:.2}"),
                speedup(x),
            ]);
        }
        tables.push(t);
    }

    // ---- (c/d): mesh detail, fixed result count (query volume shrinks
    // with detail).
    {
        let mut t = Table::new(
            format!("Fig. 7(c/d): mesh detail, fixed result count ({steps} steps)"),
            &["Level", "LinearScan [ms]", "OCTOPUS [ms]", "Speedup"],
        );
        let coarse = neuron(NeuroLevel::L1, config.scale).expect("neuron");
        let target_results = (coarse.num_vertices() as f64 * STANDARD_SELECTIVITY).max(4.0);
        for level in NeuroLevel::ALL {
            let mesh = neuron(level, config.scale).expect("neuron");
            let mut gen = QueryGen::new(&mesh, config.seed ^ 0x7C);
            let (o, s, x) = duel(config, mesh, steps, move |_, _| {
                (0..QUERIES_PER_STEP)
                    .map(|_| gen.query_with_count(target_results))
                    .collect()
            });
            t.push_row(vec![
                level.label().into(),
                format!("{s:.2}"),
                format!("{o:.2}"),
                speedup(x),
            ]);
        }
        tables.push(t);
    }

    // ---- (e/f): number of time steps (L3, standard queries).
    {
        let mut t = Table::new(
            "Fig. 7(e/f): time steps (level 0.26, selectivity 0.1%)",
            &["Steps", "LinearScan [ms]", "OCTOPUS [ms]", "Speedup"],
        );
        for nominal in [20u32, 40, 60, 80, 100] {
            let n = config.steps(nominal);
            let mesh = neuron(NeuroLevel::L3, config.scale).expect("neuron");
            let gen = QueryGen::new(&mesh, config.seed ^ 0x7E);
            let supplier = fixed_selectivity_supplier(gen, QUERIES_PER_STEP, STANDARD_SELECTIVITY);
            let (o, s, x) = duel(config, mesh, n, supplier);
            t.push_row(vec![
                nominal.to_string(),
                format!("{s:.2}"),
                format!("{o:.2}"),
                speedup(x),
            ]);
        }
        tables.push(t);
    }

    // ---- (g/h): query selectivity (L3, 60 steps). The paper sweeps
    // 0.01–0.2 %; we extend to 2 % because at laptop-scale surface
    // ratios the probe dominates until the crawl term (M·sel·C_R) grows
    // comparable to S·C_P — the fall-off the paper sees at 0.2 % appears
    // here an order of magnitude later, exactly as Eq. 5 predicts.
    {
        let mut t = Table::new(
            format!("Fig. 7(g/h): query selectivity (level 0.26, {steps} steps)"),
            &[
                "Selectivity [%]",
                "LinearScan [ms]",
                "OCTOPUS [ms]",
                "Speedup",
            ],
        );
        for sel in [0.0001f64, 0.001, 0.002, 0.005, 0.01, 0.02] {
            let mesh = neuron(NeuroLevel::L3, config.scale).expect("neuron");
            let gen = QueryGen::new(&mesh, config.seed ^ 0x7F);
            let supplier = fixed_selectivity_supplier(gen, QUERIES_PER_STEP, sel);
            let (o, s, x) = duel(config, mesh, steps, supplier);
            t.push_row(vec![
                format!("{:.2}", sel * 100.0),
                format!("{s:.2}"),
                format!("{o:.2}"),
                speedup(x),
            ]);
        }
        tables.push(t);
    }

    FigureOutput {
        id: "fig7",
        title: "Sensitivity analysis (mesh detail, time steps, selectivity)".into(),
        tables,
        notes: vec![
            "Paper trends: (a/b) scan grows ∝ size, OCTOPUS slower-than-linear, speedup \
             8 → 10×; (c/d) scan flat, OCTOPUS shrinks, speedup 8 → 23×; (e/f) both grow \
             linearly in steps, speedup constant ≈ 9.5×; (g/h) speedup falls 17 → 7× as \
             selectivity rises 0.01 → 0.2 %."
                .into(),
            "Check the same four shapes here; absolute factors are compressed by the \
             larger laptop-scale surface ratios (Eq. 5)."
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_trends_hold_on_quick_config() {
        let out = run(&Config::quick());
        assert_eq!(out.tables.len(), 4);
        // (a/b): scan time grows with level.
        let scans: Vec<f64> = out.tables[0]
            .rows
            .iter()
            .map(|r| r[1].parse().unwrap())
            .collect();
        assert!(
            scans.last().unwrap() > scans.first().unwrap(),
            "scan must grow with detail: {scans:?}"
        );
        // (e/f): total time grows with step count for both approaches.
        let steps_scan: Vec<f64> = out.tables[2]
            .rows
            .iter()
            .map(|r| r[1].parse().unwrap())
            .collect();
        assert!(
            steps_scan.last().unwrap() > steps_scan.first().unwrap(),
            "{steps_scan:?}"
        );
    }
}
