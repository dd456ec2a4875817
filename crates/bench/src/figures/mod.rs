//! One module per table/figure of the paper's evaluation.
//!
//! Every module exposes `run(config) -> FigureOutput`; the `experiments`
//! binary dispatches on figure ids. Paper-expected values are embedded in
//! the output notes so the printed tables can be compared in place.

use crate::table::Table;
use crate::Config;

pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig15;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;

/// Output of one figure reproduction.
#[derive(Clone, Debug)]
pub struct FigureOutput {
    /// Figure id, e.g. `fig6`.
    pub id: &'static str,
    /// Human-readable description of what the paper figure shows.
    pub title: String,
    /// Reproduced tables/series.
    pub tables: Vec<Table>,
    /// Comparison notes (paper-reported values, caveats).
    pub notes: Vec<String>,
}

impl FigureOutput {
    /// Renders the whole figure output as text.
    pub fn render(&self) -> String {
        let mut s = format!("==== {} — {} ====\n", self.id, self.title);
        for t in &self.tables {
            s.push('\n');
            s.push_str(&t.render());
        }
        if !self.notes.is_empty() {
            s.push_str("\nNotes:\n");
            for n in &self.notes {
                s.push_str(&format!("  * {n}\n"));
            }
        }
        s
    }
}

/// All figure ids in paper order.
pub const ALL_FIGURES: &[&str] = &[
    "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
    "fig15",
];

/// Runs one figure by id (`fig14` is part of `fig15`'s module but is
/// addressable on its own).
pub fn run_figure(id: &str, config: &Config) -> Option<FigureOutput> {
    match id {
        "fig4" => Some(fig4::run(config)),
        "fig5" => Some(fig5::run(config)),
        "fig6" => Some(fig6::run(config)),
        "fig7" => Some(fig7::run(config)),
        "fig8" => Some(fig8::run(config)),
        "fig9" => Some(fig9::run(config)),
        "fig10" => Some(fig10::run(config)),
        "fig11" => Some(fig11::run(config)),
        "fig12" => Some(fig12::run(config)),
        "fig13" => Some(fig13::run(config)),
        "fig14" => Some(fig15::run_fig14(config)),
        "fig15" => Some(fig15::run(config)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_figure_is_none() {
        assert!(run_figure("fig99", &Config::quick()).is_none());
    }

    #[test]
    fn all_ids_resolve() {
        // Only checks dispatch wiring, not execution (figure smoke tests
        // live in their own modules / integration tests).
        for id in ALL_FIGURES {
            assert!(
                matches!(
                    *id,
                    "fig4"
                        | "fig5"
                        | "fig6"
                        | "fig7"
                        | "fig8"
                        | "fig9"
                        | "fig10"
                        | "fig11"
                        | "fig12"
                        | "fig13"
                        | "fig14"
                        | "fig15"
                ),
                "unknown id {id}"
            );
        }
    }
}
