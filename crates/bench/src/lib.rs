//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each `figures::figN` module reproduces one table/figure of the
//! evaluation (`experiments --help` lists them); the `experiments`
//! binary runs them and prints paper-style tables:
//!
//! ```text
//! cargo run -p octopus-bench --release --bin experiments            # all
//! cargo run -p octopus-bench --release --bin experiments -- fig7    # one
//! cargo run -p octopus-bench --release --bin experiments -- --scale 0.5 fig6
//! ```
//!
//! Shared infrastructure:
//!
//! * [`workload`] — query generation at target selectivity / result
//!   count, plus the Fig. 5 benchmark suite definitions;
//! * [`runner`] — the monitor loop driving every competitor over the
//!   same simulation and the same queries, with result-count
//!   cross-checking (every approach must agree on every query);
//! * [`table`] — plain-text table rendering for stdout and files.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod figures;
pub mod runner;
pub mod table;
pub mod workload;

/// Global experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Linear scale multiplier on dataset resolution (1.0 = defaults of
    /// `octopus-meshgen`; experiments stay laptop-sized).
    pub scale: f32,
    /// Multiplier on time-step counts (quick CI runs use < 1).
    pub steps_factor: f64,
    /// Base RNG seed so whole runs are reproducible.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            scale: 1.0,
            steps_factor: 1.0,
            seed: 0x0C70_9005,
        }
    }
}

impl Config {
    /// A reduced configuration for smoke tests (tiny meshes, few steps).
    pub fn quick() -> Config {
        Config {
            scale: 0.35,
            steps_factor: 0.1,
            seed: 0x0C70_9005,
        }
    }

    /// Scales a nominal step count (at least 1).
    pub fn steps(&self, nominal: u32) -> u32 {
        ((f64::from(nominal) * self.steps_factor).round() as u32).max(1)
    }
}
