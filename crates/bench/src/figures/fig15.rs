//! Figs. 14 & 15 — applicability on deforming animation datasets (§VIII-A).
//!
//! Fig. 14 characterises the three animation bodies; Fig. 15 runs each
//! sequence (its own frame count and deformation style) and reports the
//! average query response time per time step plus the speedup over the
//! linear scan — 15 random queries of 0.1 % selectivity per frame.

use super::FigureOutput;
use crate::runner::{fixed_selectivity_supplier, run_scenario, Approach};
use crate::table::{speedup, Table};
use crate::workload::QueryGen;
use crate::Config;
use octopus_core::Octopus;
use octopus_index::LinearScan;
use octopus_mesh::MeshStats;
use octopus_meshgen::{animation, AnimationKind};
use octopus_sim::{AxialCompression, Deformation, LocalizedBumps, Simulation, TravelingWave};

/// The per-sequence deformation field (the paper's animation styles).
pub fn field_for(
    kind: AnimationKind,
    rest: &[octopus_geom::Point3],
    seed: u64,
) -> Box<dyn Deformation> {
    match kind {
        AnimationKind::HorseGallop => Box::new(TravelingWave::new(0.04, 0.8, 12.0)),
        AnimationKind::FacialExpression => {
            Box::new(LocalizedBumps::random(rest, 6, 0.12, 0.03, seed))
        }
        AnimationKind::CamelCompress => Box::new(AxialCompression::new(0.15, 16.0, 0)),
    }
}

/// Fig. 14: dataset characterisation table.
pub fn run_fig14(config: &Config) -> FigureOutput {
    let mut table = Table::new(
        "Fig. 14: deforming mesh datasets (ours | paper)",
        &[
            "Dataset",
            "Time steps",
            "Size [MiB]",
            "Vertices [k]",
            "S:V ratio",
            "paper S:V",
        ],
    );
    for kind in AnimationKind::ALL {
        let mesh = animation(kind, config.scale).expect("animation generation");
        let s = MeshStats::compute(&mesh).expect("stats");
        table.push_row(vec![
            kind.label().into(),
            kind.time_steps().to_string(),
            format!("{:.1}", s.memory_mib()),
            format!("{:.1}", s.num_vertices as f64 / 1e3),
            format!("{:.3}", s.surface_ratio),
            format!("{:.3}", kind.paper_surface_ratio()),
        ]);
    }
    FigureOutput {
        id: "fig14",
        title: "Deforming mesh datasets".into(),
        tables: vec![table],
        notes: vec![
            "Paper Fig. 14: Horse 20.0 M verts S:V 0.023 (48 frames); Facial 83.6 M \
             S:V 0.010 (9 frames); Camel 39.8 M S:V 0.019 (53 frames)."
                .into(),
            "Relative ordering preserved: facial is the largest and most compact.".into(),
        ],
    }
}

/// Fig. 15: per-time-step response time and speedups.
pub fn run(config: &Config) -> FigureOutput {
    let mut table = Table::new(
        "Fig. 15: query response time per time step [ms] and speedup",
        &[
            "Dataset",
            "Frames",
            "LinearScan /step",
            "OCTOPUS /step",
            "Speedup",
            "Scan visits /query",
            "OCTOPUS visits /query",
        ],
    );
    for kind in AnimationKind::ALL {
        let mesh = animation(kind, config.scale).expect("animation generation");
        let steps = config.steps(kind.time_steps() as u32);
        let field = field_for(kind, mesh.positions(), config.seed ^ 15);
        let octopus = Octopus::new(&mesh).expect("surface");
        // What the two times are proportional to, as counts per query:
        // the scan tests every vertex, OCTOPUS the surface plus what it
        // walks and crawls.
        let (scan_visits, probed) = (mesh.num_vertices(), octopus.surface_len());
        let mut approaches = vec![
            Approach::octopus(octopus, &mesh),
            Approach::Index(Box::new(LinearScan::new())),
        ];
        let gen = QueryGen::new(&mesh, config.seed ^ 0xF0);
        let mut sim = Simulation::new(mesh, field);
        let mut supplier = fixed_selectivity_supplier(gen, 15, 0.001);
        let result =
            run_scenario(&mut sim, steps, &mut supplier, &mut approaches).expect("scenario");
        let per_step = |name: &str| {
            result.get(name).unwrap().total_response().as_secs_f64() * 1e3 / f64::from(steps)
        };
        let o = result.get("OCTOPUS").expect("ran");
        table.push_row(vec![
            kind.label().into(),
            steps.to_string(),
            format!("{:.3}", per_step("LinearScan")),
            format!("{:.3}", per_step("OCTOPUS")),
            speedup(result.speedup_of("OCTOPUS", "LinearScan")),
            scan_visits.to_string(),
            (probed + (o.phases.walk_visited + o.phases.crawl_visited) / o.queries.max(1))
                .to_string(),
        ]);
    }
    FigureOutput {
        id: "fig15",
        title: "Query response time and speedups for deforming mesh datasets".into(),
        tables: vec![table],
        notes: vec![
            "Paper: OCTOPUS wins on all three; scan time ∝ dataset size; best speedup on \
             the facial dataset (lowest S:V, 0.010) — 15–19× overall."
                .into(),
            "Check: scan per-step time ordered by dataset size, and the facial dataset \
             showing the best OCTOPUS speedup."
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig14_and_fig15_shapes() {
        let f14 = run_fig14(&Config::quick());
        assert_eq!(f14.tables[0].rows.len(), 3);

        let f15 = run(&Config::quick());
        let rows = &f15.tables[0].rows;
        assert_eq!(rows.len(), 3);
        // Fig. 15(a)'s proportionality, on what it is proportional to:
        // a scan visits every vertex, so the biggest dataset (facial)
        // costs it most, and OCTOPUS visits fewer on all three. The
        // per-step times beside them are printed, not compared — they
        // follow the box's load.
        let visits = |row: usize, col: usize| rows[row][col].parse::<usize>().unwrap();
        assert!(
            visits(1, 5) > visits(0, 5),
            "facial must out-scan horse: {rows:?}"
        );
        for row in 0..3 {
            assert!(visits(row, 6) < visits(row, 5), "row {row}: {rows:?}");
            assert!(rows[row][2].parse::<f64>().unwrap() > 0.0);
        }
    }
}
