//! Fig. 12 — effect of surface approximation (§IV-H2 / §VII-A).
//!
//! Sweeps the probe-sample fraction from 0.001 % to 10 % and reports
//! (a) result accuracy and (b) speedup relative to exact OCTOPUS, at
//! selectivities 0.01 % and 0.1 %.

use super::FigureOutput;
use crate::table::Table;
use crate::workload::QueryGen;
use crate::Config;
use octopus_core::approx::result_accuracy;
use octopus_core::{ApproxOctopus, Octopus, Probe};
use octopus_meshgen::{neuron, NeuroLevel};
use octopus_sim::{Deformation, SmoothRandomField};
use std::time::{Duration, Instant};

const QUERIES_PER_POINT: usize = 30;

/// Runs the approximation sweep.
pub fn run(config: &Config) -> FigureOutput {
    let mut table = Table::new(
        "Fig. 12: surface approximation — accuracy (a) and speedup vs exact OCTOPUS (b)",
        &[
            "Approximation [%]",
            "Selectivity [%]",
            "Accuracy [%]",
            "Speedup [x]",
        ],
    );

    let mut mesh = neuron(NeuroLevel::L4, config.scale).expect("neuron generation");
    // One deformation step so positions are not the pristine lattice.
    let rest = mesh.positions().to_vec();
    SmoothRandomField::new(0.004, 4, config.seed ^ 12).apply_step(1, &rest, mesh.positions_mut());

    let exact = Octopus::new(&mesh).expect("surface");
    let mut scratch = exact.make_scratch(&mesh);

    for sel in [0.0001f64, 0.001] {
        let mut gen = QueryGen::new(&mesh, config.seed ^ 0xC0);
        let queries: Vec<_> = (0..QUERIES_PER_POINT)
            .map(|_| gen.query_with_selectivity(sel))
            .collect();

        // Exact baseline.
        let mut exact_results: Vec<Vec<u32>> = Vec::with_capacity(queries.len());
        let t0 = Instant::now();
        for q in &queries {
            let mut out = Vec::new();
            exact.query_with(&mut scratch, &mesh, q, Probe::Surface, &mut out);
            out.sort_unstable();
            exact_results.push(out);
        }
        let exact_time = t0.elapsed();

        for fraction in [0.00001f64, 0.0001, 0.001, 0.01, 0.1] {
            let mut approx =
                ApproxOctopus::new(&mesh, fraction, config.seed ^ 0xC1).expect("surface");
            let mut acc_sum = 0.0f64;
            let mut time = Duration::ZERO;
            for (q, exact_out) in queries.iter().zip(&exact_results) {
                let mut out = Vec::new();
                let t1 = Instant::now();
                approx.query(&mesh, q, &mut out);
                time += t1.elapsed();
                acc_sum += result_accuracy(&out, exact_out);
            }
            let accuracy = acc_sum / queries.len() as f64 * 100.0;
            let speedup = exact_time.as_secs_f64() / time.as_secs_f64().max(1e-12);
            table.push_row(vec![
                format!("{}", fraction * 100.0),
                format!("{:.2}", sel * 100.0),
                format!("{accuracy:.1}"),
                format!("{speedup:.2}"),
            ]);
        }
    }

    FigureOutput {
        id: "fig12",
        title: "Effect of surface approximation".into(),
        tables: vec![table],
        notes: vec![
            "Paper: ≥ 90 % accuracy while ignoring 99.9 % of the surface (0.1 % \
             approximation); accuracy exact above 0.1 %; accuracy collapses at 0.001 % — \
             where speedup spikes because incomplete results also crawl less."
                .into(),
            "Larger queries tolerate coarser approximation (more surface vertices fall \
             inside)."
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_accuracy_increases_with_fraction() {
        let out = run(&Config::quick());
        let t = &out.tables[0];
        assert_eq!(t.rows.len(), 10);
        // Within each selectivity block, accuracy at the largest fraction
        // must be ≥ accuracy at the smallest.
        for block in t.rows.chunks(5) {
            let lo: f64 = block.first().unwrap()[2].parse().unwrap();
            let hi: f64 = block.last().unwrap()[2].parse().unwrap();
            assert!(
                hi >= lo,
                "accuracy must not degrade with more probes: {lo} -> {hi}"
            );
            assert!(
                hi > 60.0,
                "10% sampling should be fairly accurate, got {hi}"
            );
        }
    }
}
