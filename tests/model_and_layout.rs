//! Cost-model identities, Hilbert-curve bijectivity and
//! layout-permutation equivalence, over randomised inputs.

use octopus::geom::{hilbert, morton};
use octopus::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hilbert encode/decode is a bijection at every bit width.
    #[test]
    fn hilbert_roundtrip(
        bits in 1u32..=21,
        x in 0u32..u32::MAX,
        y in 0u32..u32::MAX,
        z in 0u32..u32::MAX,
    ) {
        let mask = (1u64 << bits) - 1;
        let c = [(x as u64 & mask) as u32, (y as u64 & mask) as u32, (z as u64 & mask) as u32];
        let d = hilbert::hilbert_d(c, bits);
        prop_assert!(d < 1u64.checked_shl(3 * bits).unwrap_or(u64::MAX) || 3 * bits == 63);
        prop_assert_eq!(hilbert::hilbert_point(d, bits), c);
    }

    /// Morton encode/decode is a bijection on 21-bit coordinates.
    #[test]
    fn morton_roundtrip(x in 0u32..(1 << 21), y in 0u32..(1 << 21), z in 0u32..(1 << 21)) {
        prop_assert_eq!(morton::morton_decode(morton::morton_encode([x, y, z])), [x, y, z]);
    }

    /// Consecutive Hilbert indices are unit lattice steps (the locality
    /// property the layout optimisation relies on).
    #[test]
    fn hilbert_adjacent_indices_are_adjacent_cells(bits in 2u32..8, d in 0u64..4_000) {
        let max = 1u64 << (3 * bits);
        prop_assume!(d + 1 < max);
        let a = hilbert::hilbert_point(d, bits);
        let b = hilbert::hilbert_point(d + 1, bits);
        let manhattan: u32 = (0..3).map(|i| a[i].abs_diff(b[i])).sum();
        prop_assert_eq!(manhattan, 1);
    }

    /// Eq. 3 = Eq. 1 + Eq. 2, and Eq. 5/6 are mutually consistent:
    /// speedup(crossover) == 1 whenever the crossover is positive.
    #[test]
    fn cost_model_identities(
        cs in 1e-10f64..1e-7,
        cr_mult in 1.0f64..20.0,
        cp_mult in 0.5f64..8.0,
        s in 0.0f64..1.0,
        m in 1.0f64..30.0,
        sel in 0.0f64..0.05,
        v in 1usize..100_000_000,
    ) {
        let model = CostModel::with_probe_constant(cs, cs * cr_mult, cs * cp_mult);
        let total = model.octopus_seconds(v, s, m, sel);
        let parts = model.probe_seconds(v, s) + model.crawl_seconds(v, m, sel);
        prop_assert!((total - parts).abs() <= 1e-12 * total.max(1.0));

        let crossover = model.crossover_selectivity(s, m);
        if crossover > 0.0 {
            let at = model.speedup(s, m, crossover);
            prop_assert!((at - 1.0).abs() < 1e-6, "speedup at crossover = {}", at);
        }
        // Below the crossover OCTOPUS is predicted cheaper than the scan.
        if sel < crossover {
            prop_assert!(model.octopus_seconds(v, s, m, sel) <= model.scan_seconds(v) * 1.0001);
        }
        // Speedup is monotone decreasing in selectivity.
        prop_assert!(model.speedup(s, m, sel) >= model.speedup(s, m, sel + 0.01) - 1e-9);
    }

    /// Layout permutations preserve query semantics: scanning the
    /// permuted mesh returns the permuted ids.
    #[test]
    fn layout_permutation_preserves_queries(
        seed in 0u64..2_000,
        half in 0.05f32..0.6,
        use_morton in proptest::bool::ANY,
    ) {
        let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        let mut rng = octopus::geom::rng::SplitMix64::new(seed);
        let region = octopus::meshgen::voxel::VoxelRegion::from_fn(
            &bounds, 4, 4, 4, |_| rng.chance(0.7),
        );
        let mesh = octopus::meshgen::tet::tetrahedralize(&region).unwrap();
        prop_assume!(mesh.num_vertices() > 0);
        let (sorted, perm) = if use_morton {
            octopus::core::layout::morton_layout(&mesh)
        } else {
            octopus::core::layout::hilbert_layout(&mesh)
        };
        let q = Aabb::cube(Point3::splat(0.5), half);
        let mut expected: Vec<VertexId> = mesh
            .positions()
            .iter()
            .enumerate()
            .filter(|(_, p)| q.contains(**p))
            .map(|(i, _)| perm[i])
            .collect();
        expected.sort_unstable();
        let out = octopus_testkit::sequential_reference(&sorted, &[q]).remove(0);
        prop_assert_eq!(out, expected);
    }

    /// Planner decisions are always consistent with Eq. 6 and the
    /// histogram estimate.
    #[test]
    fn planner_consistency(seed in 0u64..1_000, half in 0.01f32..0.9) {
        let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        let region = octopus::meshgen::voxel::VoxelRegion::solid_box(&bounds, 5, 5, 5);
        let mesh = octopus::meshgen::tet::tetrahedralize(&region).unwrap();
        let surface = mesh.surface().unwrap();
        let planner = Planner::new(&mesh, CostModel::paper_constants(), 6);
        let data = Characteristics::of(&mesh, surface.len());
        let mut rng = octopus::geom::rng::SplitMix64::new(seed);
        let q = Aabb::cube(
            Point3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()),
            half,
        );
        let d = planner.decide(data, &q);
        let expect_octopus = d.estimated_selectivity < d.crossover_selectivity;
        prop_assert_eq!(
            matches!(d.strategy, octopus::prelude::Strategy::Octopus),
            expect_octopus
        );
    }
}
