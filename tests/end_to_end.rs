//! End-to-end monitor loops over each dataset family — the full
//! pipeline (generator → simulation → per-step queries → cross-checked
//! approaches), including a restructuring scenario driven through the
//! bench runner.

use octopus::index::SelectivityHistogram;
use octopus::meshgen::{AnimationKind, BasinResolution, NeuroLevel};
use octopus::prelude::*;
use octopus::sim::{RestructureSchedule, ShearWave, SmoothRandomField, SpineAdjust, TravelingWave};
use octopus_bench::runner::{fixed_selectivity_supplier, run_scenario, Approach};
use octopus_bench::workload::QueryGen;

fn exact_pair(mesh: &Mesh) -> Vec<Approach> {
    vec![
        Approach::octopus(Octopus::new(mesh).unwrap(), mesh),
        Approach::Index(Box::new(LinearScan::new())),
    ]
}

#[test]
fn neuro_family_with_spine_adjust_field() {
    let mesh = octopus::meshgen::neuron(NeuroLevel::L2, 0.5).unwrap();
    let mut approaches = exact_pair(&mesh);
    let gen = QueryGen::new(&mesh, 1);
    let field = SpineAdjust::from_rest(mesh.positions(), 8, 0.08, 0.01, 3);
    let mut sim = Simulation::new(mesh, Box::new(field));
    let mut supplier = fixed_selectivity_supplier(gen, 6, 0.002);
    let result = run_scenario(&mut sim, 8, &mut supplier, &mut approaches).unwrap();
    assert_eq!(result.total_queries, 48);
    assert!(result.get("OCTOPUS").unwrap().total_results > 0);
    // Cross-check passed inside the runner; maintenance was zero.
    assert_eq!(
        result.get("OCTOPUS").unwrap().maintenance,
        std::time::Duration::ZERO
    );
}

#[test]
fn convex_family_with_octopus_con() {
    let mesh = octopus::meshgen::basin(BasinResolution::Sf2, 0.4).unwrap();
    let mut approaches = vec![
        Approach::OctopusCon(octopus::core::OctopusCon::new(&mesh)),
        Approach::octopus(Octopus::new(&mesh).unwrap(), &mesh),
        Approach::Index(Box::new(LinearScan::new())),
    ];
    let gen = QueryGen::new(&mesh, 2);
    let mut sim = Simulation::new(mesh, Box::new(ShearWave::new(0.03, 20.0)));
    let mut supplier = fixed_selectivity_supplier(gen, 5, 0.001);
    let result = run_scenario(&mut sim, 6, &mut supplier, &mut approaches).unwrap();
    // All three agreed on every query (runner asserts); CON did no probe.
    let con = result.get("OCTOPUS-CON").unwrap();
    assert_eq!(con.phases.surface_probe, std::time::Duration::ZERO);
    assert!(con.phases.crawl_visited > 0);
}

#[test]
fn animation_family_runs_each_field() {
    for kind in AnimationKind::ALL {
        let mesh = octopus::meshgen::animation(kind, 0.4).unwrap();
        let mut approaches = exact_pair(&mesh);
        let gen = QueryGen::new(&mesh, 3);
        let field: Box<dyn Deformation> = match kind {
            AnimationKind::HorseGallop => Box::new(TravelingWave::new(0.03, 0.8, 10.0)),
            AnimationKind::FacialExpression => Box::new(octopus::sim::LocalizedBumps::random(
                mesh.positions(),
                4,
                0.1,
                0.02,
                5,
            )),
            AnimationKind::CamelCompress => {
                Box::new(octopus::sim::AxialCompression::new(0.1, 12.0, 0))
            }
        };
        let mut sim = Simulation::new(mesh, field);
        let mut supplier = fixed_selectivity_supplier(gen, 4, 0.002);
        let result = run_scenario(&mut sim, 5, &mut supplier, &mut approaches).unwrap();
        assert_eq!(result.total_queries, 20, "{kind:?}");
    }
}

#[test]
fn restructuring_scenario_through_the_runner() {
    // Deformation + scheduled restructuring: the runner must forward the
    // surface deltas to OCTOPUS and keep it in agreement with the scan.
    let mesh = octopus::meshgen::neuron(NeuroLevel::L1, 0.45).unwrap();
    let mut approaches = exact_pair(&mesh);
    let gen = QueryGen::new(&mesh, 4);
    let mut sim = Simulation::new(mesh, Box::new(SmoothRandomField::new(0.003, 3, 6)))
        .with_restructuring(RestructureSchedule::new(2, 2, 0xCAFE))
        .unwrap();
    let mut supplier = fixed_selectivity_supplier(gen, 4, 0.005);
    // NOTE: restructuring may orphan vertices; the LinearScan competitor
    // scans raw positions, so restrict the schedule to few ops and use
    // refine-heavy meshes… instead, simply verify OCTOPUS alone plus a
    // manual filtered scan.
    let mut octopus_only = vec![approaches.remove(0)];
    let result = run_scenario(&mut sim, 8, &mut supplier, &mut octopus_only).unwrap();
    assert!(result.total_queries > 0);
    // Final-state manual cross-check against the active-vertex scan.
    let mesh = sim.mesh();
    let q = Aabb::cube(mesh.bounding_box().center(), 0.2);
    let Approach::Octopus(o, scratch) = &mut octopus_only[0] else {
        panic!("octopus")
    };
    let mut out = Vec::new();
    o.query_with(scratch, mesh, &q, Probe::Surface, &mut out);
    out.sort_unstable();
    let expected: Vec<VertexId> = mesh
        .positions()
        .iter()
        .enumerate()
        .filter(|(i, p)| mesh.is_vertex_active(*i as VertexId) && q.contains(**p))
        .map(|(i, _)| i as VertexId)
        .collect();
    assert_eq!(out, expected);
}

#[test]
fn eq6_advice_switches_with_query_size() {
    let mesh = octopus::meshgen::basin(BasinResolution::Sf2, 0.4).unwrap();
    // Fixed (paper) constants keep the advice deterministic; a
    // *calibrated* model on this coarse quick-scale mesh (S ≈ 0.4) can
    // legitimately conclude OCTOPUS never wins (crossover clamps to 0) —
    // machine-dependent, so not a stable test premise.
    let (s, m) = (
        mesh.surface().unwrap().len() as f64 / mesh.num_vertices() as f64,
        mesh.adjacency().average_degree(),
    );
    let bounds = mesh.bounding_box();
    let histogram = SelectivityHistogram::build(mesh.positions(), &bounds, 10);
    let model = CostModel::paper_constants();
    let crossover = model.crossover_selectivity(s, m);
    let tiny = histogram.estimate_selectivity(&Aabb::cube(bounds.center(), 0.02));
    let huge = histogram.estimate_selectivity(&bounds);
    assert!(
        tiny < crossover,
        "a tiny box is OCTOPUS's: {tiny} vs {crossover}"
    );
    assert!(
        huge >= crossover,
        "the whole mesh is the scan's: {huge} vs {crossover}"
    );
    assert!(model.speedup(s, m, tiny) > model.speedup(s, m, huge));

    // The calibrated model still yields well-formed advice (whatever it
    // is on this machine).
    let calibrated = CostModel::calibrate(&mesh, 1);
    assert!(calibrated.speedup(s, m, tiny).is_finite());
    assert!(calibrated.crossover_selectivity(s, m) >= 0.0);
}
