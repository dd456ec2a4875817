//! Cross-validation of every competitor index: all
//! exact approaches must return scan-identical results after arbitrary
//! update patterns — the precondition for any of the paper's performance
//! comparisons to be meaningful.

use octopus::index::{DynamicIndex, LinearScan, LurTree, Octree, QuTrade, RTree, UniformGrid};
use octopus::prelude::*;
use proptest::prelude::*;

fn random_points(n: usize, seed: u64) -> Vec<Point3> {
    let mut rng = octopus::geom::rng::SplitMix64::new(seed);
    (0..n)
        .map(|_| Point3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()))
        .collect()
}

fn scan(q: &Aabb, positions: &[Point3]) -> Vec<VertexId> {
    positions
        .iter()
        .enumerate()
        .filter(|(_, p)| q.contains(**p))
        .map(|(i, _)| i as VertexId)
        .collect()
}

/// The exact competitor roster (no stale grid — it is a heuristic).
fn roster() -> Vec<Box<dyn DynamicIndex>> {
    vec![
        Box::new(LinearScan::new()),
        Box::new(Octree::with_bucket_capacity(128)),
        Box::new(RTree::with_fanout(16)),
        Box::new(LurTree::with_fanout(16)),
        Box::new(QuTrade::with_fanout(16, 0.02)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All indexes agree with the scan across multi-step random motion.
    #[test]
    fn all_indexes_agree_under_motion(
        seed in 0u64..10_000,
        n in 50usize..800,
        magnitude in 0.0f32..0.2,
        steps in 1u32..5,
        half in 0.02f32..0.5,
    ) {
        let mut positions = random_points(n, seed);
        let mut indexes = roster();
        let mut rng = octopus::geom::rng::SplitMix64::new(seed ^ 0xABCD);
        for _ in 0..steps {
            for p in &mut positions {
                p.x += rng.range_f32(-magnitude, magnitude);
                p.y += rng.range_f32(-magnitude, magnitude);
                p.z += rng.range_f32(-magnitude, magnitude);
            }
            for idx in &mut indexes {
                idx.on_step(&positions);
            }
        }
        let q = Aabb::cube(
            Point3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()),
            half,
        );
        let expected = scan(&q, &positions);
        for idx in &indexes {
            let mut out = Vec::new();
            idx.query(&q, &positions, &mut out);
            out.sort_unstable();
            prop_assert_eq!(&out, &expected, "index {} disagrees", idx.name());
        }
    }

    /// The stale grid's ring search always finds *some* start vertex and
    /// queries immediately after build are exact.
    #[test]
    fn stale_grid_contract(
        seed in 0u64..5_000,
        n in 1usize..500,
        res in 1usize..12,
        half in 0.05f32..0.5,
    ) {
        let positions = random_points(n, seed);
        let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        let grid = UniformGrid::build(&positions, &bounds, res);
        let target = Point3::new(0.1, 0.9, 0.4);
        prop_assert!(grid.stale_start_vertex(target).is_some());
        let q = Aabb::cube(Point3::splat(0.5), half);
        let mut out = Vec::new();
        grid.query(&q, &positions, &mut out);
        out.sort_unstable();
        prop_assert_eq!(out, scan(&q, &positions));
    }

    /// R-tree structural invariants hold through random edit sequences.
    #[test]
    fn rtree_invariants_under_random_edits(
        seed in 0u64..5_000,
        ops in 10usize..300,
    ) {
        let mut rng = octopus::geom::rng::SplitMix64::new(seed);
        let mut tree = RTree::with_fanout(8);
        let mut live: Vec<VertexId> = Vec::new();
        let mut next = 0u32;
        for _ in 0..ops {
            if live.is_empty() || rng.chance(0.65) {
                let p = Point3::new(rng.next_f32(), rng.next_f32(), rng.next_f32());
                tree.insert(next, octopus::index::rtree::point_key(p));
                live.push(next);
                next += 1;
            } else {
                let pick = rng.index(live.len());
                let id = live.swap_remove(pick);
                prop_assert!(tree.remove(id).is_some());
            }
        }
        tree.check_invariants();
        prop_assert_eq!(tree.len(), live.len());
    }

    /// The selectivity histogram is a true estimator: bounded by [0, 1]
    /// and exact for the whole domain.
    #[test]
    fn histogram_estimates_bounded(
        seed in 0u64..5_000,
        n in 1usize..2_000,
        res in 1usize..10,
        half in 0.01f32..1.0,
    ) {
        let positions = random_points(n, seed);
        let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        let hist = octopus::index::SelectivityHistogram::build(&positions, &bounds, res);
        let q = Aabb::cube(Point3::splat(0.5), half);
        let est = hist.estimate_selectivity(&q);
        prop_assert!((0.0..=1.0).contains(&est));
        // Bucket edges are f32-quantised, so buckets may not tile the
        // domain exactly; the whole-domain estimate is 1 within float
        // noise.
        let whole = hist.estimate_selectivity(&bounds);
        prop_assert!((whole - 1.0).abs() < 1e-4, "whole-domain estimate {}", whole);
    }
}

/// A full monitor loop over a real (mesh) simulation with the complete
/// roster, cross-checked per query by the scenario runner itself.
#[test]
fn end_to_end_monitor_loop_cross_checks() {
    use octopus_bench::runner::{fixed_selectivity_supplier, run_scenario, Approach};
    use octopus_bench::workload::QueryGen;

    let mesh = octopus::meshgen::neuron(octopus::meshgen::NeuroLevel::L1, 0.45).unwrap();
    let mut approaches = vec![
        Approach::octopus(Octopus::new(&mesh).unwrap(), &mesh),
        Approach::Index(Box::new(LinearScan::new())),
        Approach::Index(Box::new(Octree::with_bucket_capacity(512))),
        Approach::Index(Box::new(LurTree::with_fanout(32))),
        Approach::Index(Box::new(QuTrade::with_fanout(32, 0.01))),
    ];
    let gen = QueryGen::new(&mesh, 1);
    let mut sim = Simulation::new(
        mesh,
        Box::new(octopus::sim::SmoothRandomField::new(0.005, 4, 2)),
    );
    let mut supplier = fixed_selectivity_supplier(gen, 5, 0.005);
    // run_scenario panics if any approach disagrees on any query.
    let result = run_scenario(&mut sim, 6, &mut supplier, &mut approaches).unwrap();
    assert_eq!(result.total_queries, 30);
    let first = result.approaches[0].total_results;
    for a in &result.approaches {
        assert_eq!(a.total_results, first, "{}", a.name);
    }
}
