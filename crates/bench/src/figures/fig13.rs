//! Fig. 13 — effect of the Hilbert data layout (§IV-H1 / §VII-B).
//!
//! Runs the same workloads on the mesh in its generator order and in
//! Hilbert order, reporting phase times and the relative crawl speedup
//! per selectivity. The generator order is first scrambled (a random
//! permutation) so the baseline reflects an arbitrary in-memory layout —
//! voxel generators otherwise emit a nearly-sorted order that would hide
//! the effect the paper measures on real meshes.

use super::FigureOutput;
use crate::table::{ms, Table};
use crate::workload::QueryGen;
use crate::Config;
use octopus_core::layout::{cache_line_stats, hilbert_layout};
use octopus_core::{Octopus, PhaseTimings, Probe};
use octopus_geom::Aabb;
use octopus_mesh::Mesh;
use octopus_meshgen::{neuron, NeuroLevel};
use std::time::Instant;

const QUERIES_PER_POINT: usize = 60;

fn run_queries(mesh: &Mesh, octopus: &Octopus, queries: &[Aabb]) -> (PhaseTimings, f64) {
    let mut phases = PhaseTimings::default();
    let mut scratch = octopus.make_scratch(mesh);
    let mut out = Vec::new();
    let t0 = Instant::now();
    for q in queries {
        out.clear();
        let t = octopus.query_with(&mut scratch, mesh, q, Probe::Surface, &mut out);
        phases.accumulate(&t);
    }
    (phases, t0.elapsed().as_secs_f64())
}

/// Runs the layout comparison.
pub fn run(config: &Config) -> FigureOutput {
    let base = neuron(NeuroLevel::L5, config.scale).expect("neuron generation");
    // Scramble to simulate an arbitrary application layout.
    let mut scramble: Vec<u32> = (0..base.num_vertices() as u32).collect();
    octopus_geom::rng::SplitMix64::new(config.seed ^ 13).shuffle(&mut scramble);
    let unsorted = base.permute_vertices(&scramble);
    let (sorted, _) = hilbert_layout(&unsorted);
    let loc_before = cache_line_stats(&unsorted).extra_lines_per_vertex;
    let loc_after = cache_line_stats(&sorted).extra_lines_per_vertex;

    let mut table = Table::new(
        "Fig. 13: Hilbert layout — phase times [ms] and crawl speedup",
        &[
            "Selectivity [%]",
            "Probe (no layout)",
            "Crawl (no layout)",
            "Probe (Hilbert)",
            "Crawl (Hilbert)",
            "Crawl speedup [%]",
            "Surface probed",
            "Probe seeds",
        ],
    );

    let o_unsorted = Octopus::new(&unsorted).expect("surface");
    let o_sorted = Octopus::new(&sorted).expect("surface");

    for sel in [0.0001f64, 0.0005, 0.001, 0.0015, 0.002] {
        // Same geometric queries for both layouts.
        let mut gen = QueryGen::new(&unsorted, config.seed ^ 0xD0);
        let queries: Vec<Aabb> = (0..QUERIES_PER_POINT)
            .map(|_| gen.query_with_selectivity(sel))
            .collect();
        let (p_un, _) = run_queries(&unsorted, &o_unsorted, &queries);
        let (p_so, _) = run_queries(&sorted, &o_sorted, &queries);
        assert_eq!(p_un.results, p_so.results, "layouts must agree on results");
        // What "the layout leaves the probe unchanged" means exactly:
        // it examines the same surface and finds the same seeds.
        let probed = o_unsorted.surface_len();
        assert_eq!(probed, o_sorted.surface_len());
        assert_eq!(p_un.start_vertices, p_so.start_vertices);
        let crawl_speedup =
            (p_un.crawling.as_secs_f64() / p_so.crawling.as_secs_f64().max(1e-12) - 1.0) * 100.0;
        table.push_row(vec![
            format!("{:.2}", sel * 100.0),
            ms(p_un.surface_probe),
            ms(p_un.crawling),
            ms(p_so.surface_probe),
            ms(p_so.crawling),
            format!("{crawl_speedup:.1}"),
            probed.to_string(),
            p_un.start_vertices.to_string(),
        ]);
    }

    FigureOutput {
        id: "fig13",
        title: "Effect of Hilbert-based data layout".into(),
        tables: vec![table],
        notes: vec![
            format!(
                "Distinct foreign cache lines per neighbourhood: {loc_before:.2} (scrambled) → \
                 {loc_after:.2} (Hilbert) — the locality the crawl's cache behaviour depends on."
            ),
            "Paper: the layout speeds up crawling (up to ~50 % at 0.2 % selectivity, \
             growing with result size) and leaves the surface probe unchanged."
                .into(),
            "Two deviations worth noting: (1) our baseline is a *scrambled* layout (the \
             voxel generator's native order is already near-sorted and would hide the \
             effect the paper measures on real meshes), so crawl speedups exceed the \
             paper's 50 %; (2) the probe speeds up too — Hilbert order clusters the \
             surface vertices' ids, turning the probe's gather into near-sequential \
             runs. The paper's C++ probe did not show this; it is a bonus of the dense \
             ascending per-component surface lists."
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_produces_rows_and_probe_is_layout_insensitive() {
        let out = run(&Config::quick());
        let t = &out.tables[0];
        assert_eq!(t.rows.len(), 5);
        // `run` itself asserts that both layouts probe the same surface
        // and seed the crawl with as many vertices (the two last
        // columns); the probe *times* are printed, not compared — a
        // ratio of two sub-microsecond timings follows the box's load.
        for row in &t.rows {
            let probe_un: f64 = row[1].parse().unwrap();
            let probe_so: f64 = row[3].parse().unwrap();
            assert!(probe_un > 0.0 && probe_so > 0.0);
            assert!(row[6].parse::<usize>().unwrap() > 0, "row {row:?}");
            assert!(row[7].parse::<usize>().is_ok(), "row {row:?}");
        }
    }
}
