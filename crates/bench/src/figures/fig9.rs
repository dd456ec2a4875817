//! Fig. 9 — convex mesh simulations (OCTOPUS-CON).
//!
//! (a) response time of OCTOPUS-CON / OCTOPUS / LinearScan on SF2 and
//! SF1 under a convexity-preserving shear-wave deformation; (b) phase
//! breakdown of both OCTOPUS variants; (c) directed-walk length vs grid
//! resolution; (d) grid memory vs resolution.

use super::FigureOutput;
use crate::runner::{fixed_selectivity_supplier, run_scenario, Approach};
use crate::table::{ms, speedup, Table};
use crate::workload::QueryGen;
use crate::Config;
use octopus_core::{Octopus, OctopusCon};
use octopus_index::{DynamicIndex, LinearScan};
use octopus_meshgen::{basin, BasinResolution};
use octopus_sim::{ShearWave, Simulation};

const QUERIES_PER_STEP: usize = 15;
const SELECTIVITY: f64 = 0.001;

/// Runs all four panels.
pub fn run(config: &Config) -> FigureOutput {
    let steps = config.steps(60);
    let mut time_table = Table::new(
        format!("Fig. 9(a): convex datasets, total query response time [ms] ({steps} steps)"),
        &[
            "Dataset",
            "OCTOPUS-CON",
            "OCTOPUS",
            "LinearScan",
            "CON speedup",
            "OCTOPUS speedup",
        ],
    );
    let mut phase_table = Table::new(
        "Fig. 9(b): phase breakdown [ms]",
        &[
            "Dataset",
            "Approach",
            "Surface probe",
            "Directed walk",
            "Crawling",
        ],
    );

    for res in BasinResolution::ALL {
        let mesh = basin(res, config.scale).expect("basin generation");
        let mut approaches = vec![
            Approach::OctopusCon(OctopusCon::new(&mesh)),
            Approach::octopus(Octopus::new(&mesh).expect("surface extraction"), &mesh),
            Approach::Index(Box::new(LinearScan::new())),
        ];
        let gen = QueryGen::new(&mesh, config.seed ^ 9);
        let mut sim = Simulation::new(mesh, Box::new(ShearWave::new(0.02, 40.0)));
        let mut supplier = fixed_selectivity_supplier(gen, QUERIES_PER_STEP, SELECTIVITY);
        let result =
            run_scenario(&mut sim, steps, &mut supplier, &mut approaches).expect("scenario");

        let t = |name: &str| result.get(name).unwrap().total_response();
        time_table.push_row(vec![
            res.label().into(),
            ms(t("OCTOPUS-CON")),
            ms(t("OCTOPUS")),
            ms(t("LinearScan")),
            speedup(result.speedup_of("OCTOPUS-CON", "LinearScan")),
            speedup(result.speedup_of("OCTOPUS", "LinearScan")),
        ]);
        for name in ["OCTOPUS-CON", "OCTOPUS"] {
            let p = result.get(name).unwrap().phases;
            phase_table.push_row(vec![
                res.label().into(),
                name.into(),
                ms(p.surface_probe),
                ms(p.directed_walk),
                ms(p.crawling),
            ]);
        }
    }

    // ---- (c/d): grid resolution sweep on SF1.
    let sweep_steps = config.steps(10);
    let mut grid_table = Table::new(
        format!("Fig. 9(c/d): grid resolution sweep on SF1 ({sweep_steps} steps)"),
        &["Grid cells", "Walk vertices/query", "Grid memory [MiB]"],
    );
    {
        let mesh = basin(BasinResolution::Sf1, config.scale).expect("basin generation");
        for res in [2usize, 6, 10, 14, 18] {
            let con = OctopusCon::with_resolution(&mesh, res);
            let grid_mem = con.grid().memory_bytes();
            let cells = con.grid().num_cells();
            let mut approaches = vec![Approach::OctopusCon(con)];
            let gen = QueryGen::new(&mesh, config.seed ^ 0x9C);
            let mut sim = Simulation::new(mesh.clone(), Box::new(ShearWave::new(0.02, 40.0)));
            let mut supplier = fixed_selectivity_supplier(gen, QUERIES_PER_STEP, SELECTIVITY);
            let result = run_scenario(&mut sim, sweep_steps, &mut supplier, &mut approaches)
                .expect("scenario");
            let totals = result.get("OCTOPUS-CON").unwrap();
            let walk_per_query = totals.phases.walk_visited as f64 / totals.queries as f64;
            grid_table.push_row(vec![
                cells.to_string(),
                format!("{walk_per_query:.1}"),
                format!("{:.3}", grid_mem as f64 / (1024.0 * 1024.0)),
            ]);
        }
    }

    FigureOutput {
        id: "fig9",
        title: "Convex datasets: OCTOPUS-CON vs OCTOPUS vs LinearScan".into(),
        tables: vec![time_table, phase_table, grid_table],
        notes: vec![
            "Paper: OCTOPUS speedup 5.7× (SF2) rising to 6.7× (SF1, smaller S:V); \
             OCTOPUS-CON 15.5× on both — insensitive to S:V because it skips the probe. \
             Crawling time identical between variants."
                .into(),
            "Fig. 9(c): walk length falls as the grid gets finer; Fig. 9(d): grid memory \
             grows with resolution. Even an 8-cell grid cuts the walk substantially."
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_con_beats_octopus_and_walk_shrinks_with_grid() {
        let out = run(&Config::quick());
        // (a): OCTOPUS-CON ≤ OCTOPUS on both datasets (no probe).
        for row in &out.tables[0].rows {
            let con: f64 = row[1].parse().unwrap();
            let full: f64 = row[2].parse().unwrap();
            assert!(
                con <= full * 1.2,
                "CON {con} should not exceed OCTOPUS {full} (row {row:?})"
            );
        }
        // (b): CON's probe time is exactly zero.
        for row in &out.tables[1].rows {
            if row[1] == "OCTOPUS-CON" {
                let probe: f64 = row[2].parse().unwrap();
                assert_eq!(probe, 0.0);
            }
        }
        // (c/d): walk length decreases, memory increases with resolution.
        let rows = &out.tables[2].rows;
        let walk_first: f64 = rows.first().unwrap()[1].parse().unwrap();
        let walk_last: f64 = rows.last().unwrap()[1].parse().unwrap();
        assert!(walk_last < walk_first, "finer grid must shorten the walk");
        let mem_first: f64 = rows.first().unwrap()[2].parse().unwrap();
        let mem_last: f64 = rows.last().unwrap()[2].parse().unwrap();
        assert!(mem_last > mem_first, "finer grid must cost more memory");
    }
}
