//! Ablation benches for two design choices:
//!
//! * `ablation_surface_layout` — the executor's probe
//!   (`octopus_geom::mem::gather` over the dense id vector) vs
//!   hash-map iteration, the paper's literal description;
//! * `ablation_tuning` — octree bucket capacity and R-tree fanout sweeps
//!   (the paper's §V-A parameter sweeps).

use criterion::{criterion_group, criterion_main, Criterion};
use octopus_bench::workload::QueryGen;
use octopus_geom::mem::gather;
use octopus_geom::{Aabb, VertexId};
use octopus_index::rtree::{point_key, LeafEntry};
use octopus_index::{DynamicIndex, Octree, RTree};
use octopus_meshgen::{neuron, NeuroLevel};
use std::collections::HashMap;

fn benches(c: &mut Criterion) {
    let mesh = neuron(NeuroLevel::L3, 0.6).expect("neuron");
    let mut gen = QueryGen::new(&mesh, 3);
    let queries = gen.batch_with_selectivity(10, 0.01);

    // --- Surface iteration layout: dense sorted id vector (the
    // SurfaceIndex design) vs iterating a HashMap directly (the paper's
    // literal description).
    {
        let surface = mesh.surface().expect("surface");
        let dense: Vec<VertexId> = surface.vertices().to_vec();
        let map: HashMap<VertexId, ()> = dense.iter().map(|&v| (v, ())).collect();
        let probe_q: Aabb = queries[0];
        let positions = mesh.positions();
        c.bench_function("ablation_surface_layout/dense_vec", |b| {
            b.iter(|| {
                let mut hits = 0u32;
                gather(&dense, positions, |_, p| {
                    hits += u32::from(probe_q.contains(p))
                });
                hits
            })
        });
        c.bench_function("ablation_surface_layout/hash_map", |b| {
            b.iter(|| {
                let mut hits = 0u32;
                for &v in map.keys() {
                    hits += u32::from(probe_q.contains(positions[v as usize]));
                }
                hits
            })
        });
    }

    // --- Octree bucket-capacity sweep (paper: 10 000 chosen by sweep).
    for bucket in [1_000usize, 10_000, 50_000] {
        c.bench_function(&format!("ablation_tuning/octree_bucket_{bucket}"), |b| {
            let mut tree = Octree::with_bucket_capacity(bucket);
            let mut out = Vec::new();
            b.iter(|| {
                tree.on_step(mesh.positions());
                for q in &queries {
                    out.clear();
                    tree.query(q, mesh.positions(), &mut out);
                }
                out.len()
            })
        });
    }

    // --- R-tree fanout sweep (paper: 110 chosen by sweep).
    for fanout in [16usize, 110, 256] {
        let entries: Vec<LeafEntry> = mesh
            .positions()
            .iter()
            .enumerate()
            .map(|(i, p)| LeafEntry {
                id: i as u32,
                key: point_key(*p),
            })
            .collect();
        c.bench_function(&format!("ablation_tuning/rtree_fanout_{fanout}"), |b| {
            let mut tree = RTree::with_fanout(fanout);
            let mut out = Vec::new();
            b.iter(|| {
                tree.bulk_load(entries.clone());
                for q in &queries {
                    out.clear();
                    tree.query_keys(q, &mut out);
                }
                out.len()
            })
        });
    }
}

criterion_group! {
    name = ablations;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = benches
}
criterion_main!(ablations);
