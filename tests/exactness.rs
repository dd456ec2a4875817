//! THE core invariant of the reproduction:
//! `Octopus::query_with` returns exactly the linear-scan ground truth — on
//! arbitrary (random, non-convex, multi-component) meshes, under
//! arbitrary deformation, for arbitrary queries.

use octopus::core::AggregateKind;
use octopus::geom::{ConvexRegion, Halfspace, Vec3};
use octopus::prelude::*;
use octopus::sim::SmoothRandomField;
use octopus_testkit::{knn_scan, random_mesh, scan, scan_region};
use proptest::prelude::*;

/// The `k` nearest active vertices to `point`, through the shape
/// dispatch.
fn knn(
    octopus: &Octopus,
    scratch: &mut QueryScratch,
    mesh: &Mesh,
    k: usize,
    point: Point3,
) -> Vec<VertexId> {
    let shape = QueryShape::KNearest { k, point };
    let (result, _) = octopus.query_shape(scratch, mesh, &shape, Probe::Surface);
    result
        .vertices()
        .expect("k-NN materialises its ids")
        .to_vec()
}

/// The `kind` summary of `region`, through the shape dispatch.
fn aggregate(
    octopus: &Octopus,
    scratch: &mut QueryScratch,
    mesh: &Mesh,
    region: Aabb,
    kind: AggregateKind,
) -> AggregateValue {
    let shape = QueryShape::Aggregate { region, kind };
    match octopus.query_shape(scratch, mesh, &shape, Probe::Surface).0 {
        ShapeResult::Aggregate(value) => value,
        other => panic!("an aggregate shape answered {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// OCTOPUS == scan on random non-convex meshes and random queries.
    #[test]
    fn octopus_equals_scan_on_random_meshes(
        seed in 0u64..5_000,
        fill in 0.25f64..0.9,
        cx in 0.0f32..1.0,
        cy in 0.0f32..1.0,
        cz in 0.0f32..1.0,
        half in 0.02f32..0.6,
    ) {
        let mesh = random_mesh(5, fill, seed);
        prop_assume!(mesh.num_vertices() > 0);
        let octopus = Octopus::new(&mesh).unwrap();
        let mut scratch = octopus.make_scratch(&mesh);
        let q = Aabb::cube(Point3::new(cx, cy, cz), half);
        let mut out = Vec::new();
        octopus.query_with(&mut scratch, &mesh, &q, Probe::Surface, &mut out);
        out.sort_unstable();
        prop_assert_eq!(out, scan(&mesh, &q));
    }

    /// Exactness survives massive unpredictable deformation with zero
    /// index maintenance.
    #[test]
    fn octopus_stays_exact_across_deformation(
        seed in 0u64..2_000,
        amplitude in 0.001f32..0.03,
        steps in 1u32..6,
        half in 0.05f32..0.5,
    ) {
        let mesh = random_mesh(4, 0.7, seed);
        prop_assume!(mesh.num_vertices() > 0);
        let octopus = Octopus::new(&mesh).unwrap();
        let mut scratch = octopus.make_scratch(&mesh);
        let mut sim = Simulation::new(
            mesh,
            Box::new(SmoothRandomField::new(amplitude, 3, seed ^ 0xF00D)),
        );
        sim.run(steps).unwrap();
        let mesh = sim.mesh();
        let q = Aabb::cube(Point3::splat(0.5), half);
        let mut out = Vec::new();
        octopus.query_with(&mut scratch, mesh, &q, Probe::Surface, &mut out);
        out.sort_unstable();
        prop_assert_eq!(out, scan(mesh, &q));
    }

    /// The convex variant is exact on convex meshes under
    /// convexity-preserving motion.
    #[test]
    fn octopus_con_equals_scan_on_convex_meshes(
        n in 3usize..7,
        shear in 0.0f32..0.2,
        cx in 0.0f32..1.0,
        cy in 0.0f32..1.0,
        cz in 0.0f32..1.0,
        half in 0.03f32..0.5,
    ) {
        let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        let region = octopus::meshgen::voxel::VoxelRegion::solid_box(&bounds, n, n, n);
        let mut mesh = octopus::meshgen::tet::tetrahedralize(&region).unwrap();
        let mut con = octopus::core::OctopusCon::new(&mesh);
        // Affine shear (convexity preserving); the grid goes stale.
        for p in mesh.positions_mut() {
            p.x += shear * p.y;
        }
        let q = Aabb::cube(Point3::new(cx, cy, cz), half);
        let mut out = Vec::new();
        con.query(&mesh, &q, &mut out);
        out.sort_unstable();
        prop_assert_eq!(out, scan(&mesh, &q));
    }

    /// The approximate executor only ever under-reports: its result is a
    /// subset of the exact result (never false positives).
    #[test]
    fn approx_results_are_subsets(
        seed in 0u64..2_000,
        fraction in 0.001f64..1.0,
        half in 0.05f32..0.5,
    ) {
        let mesh = random_mesh(4, 0.75, seed);
        prop_assume!(mesh.num_vertices() > 0);
        let mut approx = ApproxOctopus::new(&mesh, fraction, seed).unwrap();
        let q = Aabb::cube(Point3::splat(0.5), half);
        let mut out = Vec::new();
        approx.query(&mesh, &q, &mut out);
        let exact: std::collections::HashSet<VertexId> =
            scan(&mesh, &q).into_iter().collect();
        prop_assert!(out.iter().all(|v| exact.contains(v)));
    }

    /// Convex region queries == the box scan filtered by every clipping
    /// half-space (the differential definition of the shape).
    #[test]
    fn convex_region_equals_halfspace_filter(
        seed in 0u64..3_000,
        fill in 0.3f64..0.9,
        nx in -1.0f32..=1.0,
        ny in -1.0f32..=1.0,
        nz in -1.0f32..=1.0,
        px in 0.2f32..0.8,
        py in 0.2f32..0.8,
        pz in 0.2f32..0.8,
        half in 0.1f32..0.6,
    ) {
        let normal = Vec3::new(nx, ny, nz);
        prop_assume!(normal.length() > 0.1);
        let mesh = random_mesh(5, fill, seed);
        prop_assume!(mesh.num_vertices() > 0);
        let bounds = Aabb::cube(Point3::splat(0.5), half);
        let region = ConvexRegion::new(
            bounds,
            vec![Halfspace::through(Point3::new(px, py, pz), normal)],
        );
        let octopus = Octopus::new(&mesh).unwrap();
        let mut scratch = octopus.make_scratch(&mesh);
        let mut out = Vec::new();
        octopus.query_with(&mut scratch, &mesh, &region, Probe::Surface, &mut out);
        out.sort_unstable();
        let expected: Vec<VertexId> = scan(&mesh, &bounds)
            .into_iter()
            .filter(|&v| region.halfspaces.iter().all(|h| h.contains(mesh.position(v))))
            .collect();
        prop_assert_eq!(&expected, &scan_region(&mesh, &region));
        prop_assert_eq!(out, expected);
    }

    /// k-NN == brute force over active vertices, in (distance, id) order,
    /// for query points inside and outside the mesh.
    #[test]
    fn knn_equals_brute_force(
        seed in 0u64..3_000,
        fill in 0.3f64..0.9,
        k in 1usize..30,
        px in -0.3f32..1.3,
        py in -0.3f32..1.3,
        pz in -0.3f32..1.3,
    ) {
        let mesh = random_mesh(5, fill, seed);
        prop_assume!(mesh.num_vertices() > 0);
        let octopus = Octopus::new(&mesh).unwrap();
        let mut scratch = octopus.make_scratch(&mesh);
        let p = Point3::new(px, py, pz);
        prop_assert_eq!(knn(&octopus, &mut scratch, &mesh, k, p), knn_scan(&mesh, k, p));
    }

    /// Aggregates == the count / f64-mean of the materialised box result.
    #[test]
    fn aggregates_match_materialised_results(
        seed in 0u64..3_000,
        fill in 0.3f64..0.9,
        cx in 0.0f32..1.0,
        cy in 0.0f32..1.0,
        cz in 0.0f32..1.0,
        half in 0.05f32..0.6,
    ) {
        let mesh = random_mesh(5, fill, seed);
        prop_assume!(mesh.num_vertices() > 0);
        let octopus = Octopus::new(&mesh).unwrap();
        let mut scratch = octopus.make_scratch(&mesh);
        let q = Aabb::cube(Point3::new(cx, cy, cz), half);
        let mut out = Vec::new();
        octopus.query_with(&mut scratch, &mesh, &q, Probe::Surface, &mut out);

        let count = aggregate(&octopus, &mut scratch, &mesh, q, AggregateKind::Count);
        prop_assert_eq!(count.count, out.len());
        prop_assert!(count.centroid.is_none(), "Count never materialises a centroid");

        let cen = aggregate(&octopus, &mut scratch, &mesh, q, AggregateKind::Centroid);
        prop_assert_eq!(cen.count, out.len());
        if out.is_empty() {
            prop_assert!(cen.centroid.is_none());
        } else {
            let c = cen.centroid.unwrap();
            let mut sum = [0f64; 3];
            for &v in &out {
                let p = mesh.position(v);
                sum[0] += f64::from(p.x);
                sum[1] += f64::from(p.y);
                sum[2] += f64::from(p.z);
            }
            let n = out.len() as f64;
            for (got, want) in [c.x, c.y, c.z].iter().zip(sum) {
                // Same vertex set, possibly different f64 summation order.
                prop_assert!(
                    (f64::from(*got) - want / n).abs() < 1e-4,
                    "centroid {:?} vs mean {:?}", c, [sum[0] / n, sum[1] / n, sum[2] / n]
                );
            }
        }
    }
}

/// Deterministic regression: a torus-like mesh where one query splits the
/// mesh into two disjoint sub-meshes (the paper's Fig. 3 situation).
#[test]
fn fig3_disjoint_submesh_case() {
    let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
    let torus = octopus::meshgen::masks::Torus {
        center: Point3::splat(0.5),
        major: 0.3,
        minor: 0.12,
    };
    let region =
        octopus::meshgen::voxel::VoxelRegion::from_fn(&bounds, 14, 14, 14, |p| torus.contains(p));
    let mesh = octopus::meshgen::tet::tetrahedralize(&region).unwrap();
    assert!(
        mesh.num_vertices() > 100,
        "torus must be meaningfully meshed"
    );
    let octopus = Octopus::new(&mesh).unwrap();
    let mut scratch = octopus.make_scratch(&mesh);
    // A slab through the hole cuts the ring into two disjoint arcs: a
    // crawl from a single start vertex would miss one of them.
    let q = Aabb::new(Point3::new(0.0, 0.45, 0.0), Point3::new(1.0, 0.55, 1.0));
    let mut out = Vec::new();
    let stats = octopus.query_with(&mut scratch, &mesh, &q, Probe::Surface, &mut out);
    out.sort_unstable();
    let expected = scan(&mesh, &q);
    assert_eq!(out, expected);
    assert!(
        stats.start_vertices >= 2,
        "both arcs need their own surface seeds"
    );
    // Make sure the test is non-trivial: both arcs contain results.
    let left = expected.iter().any(|&v| mesh.position(v).x < 0.4);
    let right = expected.iter().any(|&v| mesh.position(v).x > 0.6);
    assert!(left && right, "the slab must cut the torus into two arcs");
}

/// Deterministic k-NN ties: a query point at a grid-cell centre is
/// equidistant from all 8 cell corners, so any k < 8 must cut through
/// the tie class — by ascending id, reproducibly.
#[test]
fn knn_ties_break_by_ascending_id() {
    let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
    let region = octopus::meshgen::voxel::VoxelRegion::solid_box(&bounds, 4, 4, 4);
    let mesh = octopus::meshgen::tet::tetrahedralize(&region).unwrap();
    let octopus = Octopus::new(&mesh).unwrap();
    let mut scratch = octopus.make_scratch(&mesh);
    // Centre of the cell [0.25, 0.5]³ on the 0.25-spaced grid.
    let p = Point3::splat(0.375);
    let corners = knn_scan(&mesh, 8, p);
    let d0 = mesh.position(corners[0]).dist_sq(p);
    assert!(
        corners
            .iter()
            .all(|&v| (mesh.position(v).dist_sq(p) - d0).abs() < 1e-12),
        "all 8 cell corners must be equidistant from the cell centre"
    );
    for k in 1..=8 {
        let out = knn(&octopus, &mut scratch, &mesh, k, p);
        assert_eq!(out, corners[..k], "k = {k}: tie must cut by ascending id");
        let again = knn(&octopus, &mut scratch, &mesh, k, p);
        assert_eq!(out, again, "k = {k}: k-NN must be deterministic");
    }
}

/// Hexahedral meshes work identically (CellKind coverage).
#[test]
fn octopus_on_hex_meshes() {
    let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
    let region = octopus::meshgen::voxel::VoxelRegion::solid_box(&bounds, 6, 6, 6);
    let mesh = octopus::meshgen::hex::hexahedralize(&region).unwrap();
    let octopus = Octopus::new(&mesh).unwrap();
    let mut scratch = octopus.make_scratch(&mesh);
    for half in [0.1f32, 0.3, 0.7] {
        let q = Aabb::cube(Point3::splat(0.4), half);
        let mut out = Vec::new();
        octopus.query_with(&mut scratch, &mesh, &q, Probe::Surface, &mut out);
        out.sort_unstable();
        assert_eq!(out, scan(&mesh, &q), "half = {half}");
    }
}
