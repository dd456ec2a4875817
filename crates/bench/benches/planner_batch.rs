//! `planner_batch`: the `Planner::decide_batch` hoisting ablation.
//!
//! `decide_batch` hoists the per-batch invariants out of the decision
//! loop — the histogram's grid geometry (`SelectivityHistogram::grid`:
//! clamped extents, bucket sizes, and the reciprocal bucket volume
//! that replaces the per-bucket overlap division), the Eq.-5 speedup
//! factors (`CostModel::speedup_terms`) and the cached Eq.-6
//! crossover. The naive baseline (`decide_batch_unhoisted`, the
//! pre-hoisting code kept verbatim) produces decisions identical up to
//! the histogram's inherent f32 precision — asserted in the planner's
//! unit suite — so this bench isolates pure loop cost. Recorded ~1.5×
//! on the dev container in both regimes (bucket-heavy queries
//! additionally avoid the per-bucket geometry re-derivation).
//!
//! Measurement is interleaved A/B (alternating single rounds): on a
//! shared 1-hardware-thread container, back-to-back windows drift by
//! more than the effect, interleaving cancels that.

use octopus_bench::workload::QueryGen;
use octopus_core::{CostModel, Planner, SurfaceIndex};
use octopus_meshgen::{neuron, NeuroLevel};
use std::time::{Duration, Instant};

const ROUNDS: u32 = 600;
const BATCH: usize = 256;

/// Interleaved A/B timing: alternating single-round measurements cancel
/// the slow clock-frequency / load drift that dominates back-to-back
/// windows on a shared 1-hardware-thread container.
fn time_pair(
    rounds: u32,
    mut a: impl FnMut() -> usize,
    mut b: impl FnMut() -> usize,
) -> (Duration, Duration) {
    for _ in 0..rounds / 4 {
        std::hint::black_box(a());
        std::hint::black_box(b());
    }
    let (mut ta, mut tb) = (Duration::ZERO, Duration::ZERO);
    for _ in 0..rounds {
        let t0 = Instant::now();
        std::hint::black_box(a());
        ta += t0.elapsed();
        let t1 = Instant::now();
        std::hint::black_box(b());
        tb += t1.elapsed();
    }
    (ta, tb)
}

fn main() {
    let mesh = neuron(NeuroLevel::L3, 0.6).expect("neuron");
    let surface = SurfaceIndex::build(&mesh).expect("surface");
    let mut gen = QueryGen::new(&mesh, 0x9A7C);
    println!(
        "planner_batch: {} vertices, batch {BATCH}, {ROUNDS} rounds",
        mesh.num_vertices()
    );
    for (label, res, sel) in [
        ("bucket-heavy (res 16, sel 1%)", 16usize, 0.01f64),
        ("sub-bucket   (res 16, sel 0.01%)", 16, 0.0001),
    ] {
        let planner = Planner::new(&mesh, &surface, CostModel::paper_constants(), res);
        let batch = gen.batch_with_selectivity(BATCH, sel);
        // Sanity: both paths agree (to the documented f32-precision
        // tolerance of the reciprocal-volume hoist) before we time
        // them.
        let a = planner.decide_batch(&batch);
        let b = planner.decide_batch_unhoisted(&batch);
        assert!(a.iter().zip(&b).all(|(x, y)| {
            x.strategy == y.strategy
                && (x.estimated_selectivity - y.estimated_selectivity).abs()
                    <= 1e-5 * y.estimated_selectivity.max(1e-300)
        }));

        let (hoisted, naive) = time_pair(
            ROUNDS,
            || planner.decide_batch(&batch).len(),
            || planner.decide_batch_unhoisted(&batch).len(),
        );
        println!(
            "  {label}: hoisted {:>9.1?}  naive {:>9.1?}  speedup {:.2}x",
            hoisted / ROUNDS,
            naive / ROUNDS,
            naive.as_secs_f64() / hoisted.as_secs_f64()
        );
    }
}
