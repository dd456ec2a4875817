//! Fig. 4 — neuroscience dataset characterisation table.

use super::FigureOutput;
use crate::table::Table;
use crate::Config;
use octopus_mesh::MeshStats;
use octopus_meshgen::{neuron, NeuroLevel};

/// Generates the five neuro detail levels and tabulates their
/// characteristics next to the paper's values.
pub fn run(config: &Config) -> FigureOutput {
    let mut table = Table::new(
        "Fig. 4: Neuroscience dataset characterization (ours | paper)",
        &[
            "Level",
            "Size [MiB]",
            "Cells [k]",
            "Vertices [k]",
            "Mesh degree",
            "S:V ratio",
            "paper tets [G]",
            "paper S:V",
            "Components",
        ],
    );
    for level in NeuroLevel::ALL {
        let mesh = neuron(level, config.scale).expect("neuron generation");
        let s = MeshStats::compute(&mesh).expect("stats");
        table.push_row(vec![
            level.label().into(),
            format!("{:.1}", s.memory_mib()),
            format!("{:.1}", s.num_cells as f64 / 1e3),
            format!("{:.1}", s.num_vertices as f64 / 1e3),
            format!("{:.2}", s.mesh_degree),
            format!("{:.3}", s.surface_ratio),
            format!("{:.2}", level.paper_tets_billions()),
            format!("{:.2}", level.paper_surface_ratio()),
            s.components.to_string(),
        ]);
    }
    FigureOutput {
        id: "fig4",
        title: "Neuroscience dataset characterization".into(),
        tables: vec![table],
        notes: vec![
            "Paper: 0.13–1.32 G tets, degree ≈ 14.5, S:V falling 0.07 → 0.03.".into(),
            "Ours: same ×10 relative size spread and falling S:V; absolute S is higher \
             because S ∝ V^(-1/3) and our V is ~10³ smaller (Eq. 5 prices it; Fig. 11 \
             validates the model at this scale)."
                .into(),
            "Two disjoint components = the paper's two neuron cells.".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_produces_five_rows_with_falling_surface_ratio() {
        let out = run(&Config::quick());
        assert_eq!(out.tables.len(), 1);
        let t = &out.tables[0];
        assert_eq!(t.rows.len(), 5);
        let ratios: Vec<f64> = t
            .rows
            .iter()
            .map(|r| r[5].parse::<f64>().unwrap())
            .collect();
        assert!(
            ratios.first().unwrap() > ratios.last().unwrap(),
            "S:V must fall: {ratios:?}"
        );
        let cells: Vec<f64> = t
            .rows
            .iter()
            .map(|r| r[2].parse::<f64>().unwrap())
            .collect();
        assert!(
            cells.windows(2).all(|w| w[0] < w[1]),
            "cells must grow: {cells:?}"
        );
    }
}
