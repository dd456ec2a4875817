//! `fig13_hilbert`: crawl cost under four vertex layouts — identity
//! (generator order), scrambled (worst case, an arbitrary application
//! order), Morton, and Hilbert (the paper's §IV-H1 choice, the layout
//! the service applies).
//!
//! Fig. 13's claim is that sorting vertices along a space-filling curve
//! makes the crawl's pointer-chasing cache-friendly. Each layout is
//! benchmarked with the same geometry and the same queries; alongside
//! the timings the cache-line model (`cache_line_stats` +
//! `reuse_distance_histogram`) is reported per layout: line-crossing
//! ratio, mean distinct foreign 64-byte lines per neighbourhood, and
//! the fraction of simulated-crawl line touches with LRU stack distance
//! < 512 lines (a 32 KiB L1's worth).
//!
//! Run directly, or with `--json <path>` to record the committed
//! `BENCH_fig13.json` artifact:
//!
//! ```bash
//! cargo bench -p octopus-bench --bench fig13_hilbert
//! cargo bench -p octopus-bench --bench fig13_hilbert -- --json BENCH_fig13.json
//! ```

use octopus_bench::workload::QueryGen;
use octopus_core::layout::{
    cache_line_stats, hilbert_layout, morton_layout, reuse_distance_histogram,
};
use octopus_core::{Octopus, Probe, QueryScratch};
use octopus_geom::VertexId;
use octopus_mesh::Mesh;
use octopus_meshgen::{neuron, NeuroLevel};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Measurement budget per layout.
const BUDGET: Duration = Duration::from_millis(1500);
/// Queries per pass — large enough that the crawl dominates.
const QUERIES: usize = 10;
const SELECTIVITY: f64 = 0.01;
/// L1-sized LRU window for the reuse-distance summary (512 × 64 B =
/// 32 KiB).
const L1_LINES: u64 = 512;

struct Entry {
    layout: &'static str,
    crossing_ratio: f64,
    extra_lines: f64,
    reuse_within_l1: f64,
    crawl_us_per_query: f64,
    total_us_per_query: f64,
    speedup_vs_scrambled: f64,
    speedup_vs_identity: f64,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut json_path = None;
    while let Some(a) = args.next() {
        if a == "--json" {
            json_path = Some(args.next().expect("--json <path>"));
        }
    }

    let identity = neuron(NeuroLevel::L5, 1.2).expect("neuron");
    // Scramble to simulate an arbitrary application layout.
    let mut perm: Vec<VertexId> = (0..identity.num_vertices() as u32).collect();
    octopus_geom::rng::SplitMix64::new(13).shuffle(&mut perm);
    let scrambled = identity.permute_vertices(&perm);
    let (hilbert, _) = hilbert_layout(&scrambled);
    let (morton, _) = morton_layout(&scrambled);

    // Same geometry in every layout → identical query boxes apply.
    let mut gen = QueryGen::new(&scrambled, 5);
    let queries = gen.batch_with_selectivity(QUERIES, SELECTIVITY);

    println!(
        "fig13_hilbert: {} vertices, {} queries at selectivity {SELECTIVITY}",
        identity.num_vertices(),
        queries.len()
    );
    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>11} {:>11} {:>8} {:>8}",
        "layout", "crossing", "xlines", "reuse<L1", "crawl µs/q", "total µs/q", "vs scr", "vs id"
    );

    let layouts: [(&'static str, &Mesh); 4] = [
        ("scrambled", &scrambled),
        ("identity", &identity),
        ("morton", &morton),
        ("hilbert", &hilbert),
    ];
    // Passes are interleaved round-robin across layouts, not measured
    // one layout at a time: machine-level drift (frequency scaling,
    // noisy neighbours) over the bench's wall time then biases every
    // layout equally instead of whichever one ran during the slow
    // minute — the per-layout *ratios* are what fig. 13 is about.
    let mut octopi: Vec<(Octopus, QueryScratch)> = layouts
        .iter()
        .map(|(_, mesh)| {
            let octopus = Octopus::new(mesh).expect("surface");
            let scratch = octopus.make_scratch(mesh);
            (octopus, scratch)
        })
        .collect();
    let mut out = Vec::new();
    // Warm-up pass over every layout.
    for ((_, mesh), (octopus, scratch)) in layouts.iter().zip(octopi.iter_mut()) {
        for q in &queries {
            out.clear();
            octopus.query_with(scratch, mesh, q, Probe::Surface, &mut out);
        }
    }
    let mut crawl = [Duration::ZERO; 4];
    let mut total = [Duration::ZERO; 4];
    let t0 = Instant::now();
    let mut passes = 0u32;
    while t0.elapsed() < BUDGET.saturating_mul(layouts.len() as u32) || passes == 0 {
        for (k, ((_, mesh), (octopus, scratch))) in
            layouts.iter().zip(octopi.iter_mut()).enumerate()
        {
            for q in &queries {
                out.clear();
                let stats = octopus.query_with(scratch, mesh, q, Probe::Surface, &mut out);
                std::hint::black_box(out.len());
                crawl[k] += stats.crawling;
                total[k] += stats.total();
            }
        }
        passes += 1;
    }
    let n = f64::from(passes) * queries.len() as f64;
    let mut entries: Vec<Entry> = Vec::new();
    for (k, (name, mesh)) in layouts.iter().enumerate() {
        let line_stats = cache_line_stats(mesh);
        let hist = reuse_distance_histogram(mesh);
        entries.push(Entry {
            layout: name,
            crossing_ratio: line_stats.crossing_ratio,
            extra_lines: line_stats.extra_lines_per_vertex,
            reuse_within_l1: hist.fraction_within(L1_LINES),
            crawl_us_per_query: crawl[k].as_secs_f64() * 1e6 / n,
            total_us_per_query: total[k].as_secs_f64() * 1e6 / n,
            speedup_vs_scrambled: 1.0,
            speedup_vs_identity: 1.0,
        });
    }
    let scrambled_crawl = entries[0].crawl_us_per_query;
    let identity_crawl = entries[1].crawl_us_per_query;
    for e in &mut entries {
        e.speedup_vs_scrambled = scrambled_crawl / e.crawl_us_per_query;
        e.speedup_vs_identity = identity_crawl / e.crawl_us_per_query;
        println!(
            "{:<16} {:>9.3} {:>9.2} {:>9.3} {:>11.1} {:>11.1} {:>7.2}x {:>7.2}x",
            e.layout,
            e.crossing_ratio,
            e.extra_lines,
            e.reuse_within_l1,
            e.crawl_us_per_query,
            e.total_us_per_query,
            e.speedup_vs_scrambled,
            e.speedup_vs_identity
        );
    }

    // Why the crawl filters neighbours without a branch: a crawl that
    // branches per neighbour on "already visited" let identity tie or
    // win, and the confounder was never memory — it was that branch,
    // whose outcome under the generator order correlates with BFS wave
    // arrival (predictable) and under any locality-optimised order does
    // not (a coin flip per neighbour). The shared-frontier crawl writes
    // every neighbour into a buffer, bumps the count by 0 or 1 on its
    // mask, and handles only the new ones, loading no position for a
    // neighbour already seen. Then the clock follows the cache-line
    // metric: fewer extra lines per vertex means a faster crawl.
    let diagnosis = format!(
        "with the crawl's branch-free neighbour filter the clock follows the \
         cache-line metric: identity touches {:.2} extra lines/vertex, hilbert {:.2}, \
         and hilbert crawls {:.2}x faster than identity.",
        entries[1].extra_lines, entries[3].extra_lines, entries[3].speedup_vs_identity,
    );
    println!("diagnosis: {diagnosis}");

    if let Some(path) = json_path {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"bench\": \"fig13_hilbert\",");
        let _ = writeln!(json, "  \"mesh_vertices\": {},", identity.num_vertices());
        let _ = writeln!(json, "  \"queries\": {QUERIES},");
        let _ = writeln!(json, "  \"selectivity\": {SELECTIVITY},");
        let _ = writeln!(json, "  \"reuse_window_lines\": {L1_LINES},");
        let hardware_threads =
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let _ = writeln!(json, "  \"hardware_threads\": {hardware_threads},");
        let _ = writeln!(json, "  \"diagnosis\": \"{diagnosis}\",");
        let _ = writeln!(json, "  \"entries\": [");
        for (i, e) in entries.iter().enumerate() {
            let comma = if i + 1 == entries.len() { "" } else { "," };
            let _ = writeln!(
                json,
                "    {{\"layout\": \"{}\", \
                 \"line_crossing_ratio\": {:.4}, \"extra_lines_per_vertex\": {:.3}, \
                 \"reuse_within_l1\": {:.4}, \"crawl_us_per_query\": {:.2}, \
                 \"total_us_per_query\": {:.2}, \"crawl_speedup_vs_scrambled\": {:.3}, \
                 \"crawl_speedup_vs_identity\": {:.3}}}{comma}",
                e.layout,
                e.crossing_ratio,
                e.extra_lines,
                e.reuse_within_l1,
                e.crawl_us_per_query,
                e.total_us_per_query,
                e.speedup_vs_scrambled,
                e.speedup_vs_identity
            );
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write json artifact");
        println!("artifact written to {path}");
    }
}
