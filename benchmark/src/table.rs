//! The one table: every workload and every metric the benchmark knows.
//!
//! `BENCHMARK.json` at the repository root is rendered from this table
//! ([`manifest_json`], `--emit-manifest`) and a unit test fails when the
//! committed file differs, so the driver's contract, `--list`, the
//! printed metric lines and the `aa` report all read the same names,
//! units, directions and bounds.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload of the suite.
pub struct WorkloadRow {
    pub name: &'static str,
    /// One line: which layers do the work, and which are bypassed.
    pub why: &'static str,
}

/// One end-to-end metric (gated: `bound` is the share of the parent's
/// median by which it may get worse).
pub struct EndToEndRow {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// One per-layer metric (reported by the traced run, never gated).
pub struct LayerRow {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// Seconds one run measures (`run_seconds` of the manifest).
pub const RUN_SECONDS: u32 = 15;

pub const WORKLOADS: [WorkloadRow; 4] = [
    WorkloadRow {
        name: "monitor-deform",
        why: "the paper's overlapped SIMULATE/MONITOR loop on L4: per-round fixed costs (hand-off copy, SoA rebuild, surface probe) do the work; fresh boxes bypass every cache and delta path",
    },
    WorkloadRow {
        name: "analysis-burst",
        why: "lockstep bursts of 128 overlapping boxes on L5 (far beyond L2): crawl, Hilbert layout and overlap grouping do >90% of the work; step and publish are bypassed (<5%)",
    },
    WorkloadRow {
        name: "standing-repeat",
        why: "16 subscriptions plus the same 16-box batch every round on L4: delta path, seed cache and drift meter answer almost everything; surface probe and fresh crawl are bypassed; p95 is the refresh",
    },
    WorkloadRow {
        name: "restructure-churn",
        why: "writes beside reads on L3: restructuring every 5th step, ring depth 2 with pinned old-step queries, epoch-bump invalidation of caches and subscriptions, periodic re-layout",
    },
];

pub const END_TO_END: [EndToEndRow; 6] = [
    EndToEndRow {
        name: "queries_per_ref",
        unit: "1",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEndRow {
        name: "lat_p50_refs",
        unit: "ref",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEndRow {
        name: "lat_p95_refs",
        unit: "ref",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndRow {
        name: "cpu_refs_per_query",
        unit: "ref",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEndRow {
        name: "mem_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEndRow {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerRow {
    LayerRow { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [LayerRow; 57] = [
    // Machine-noise reading and un-normalised twins: never gated.
    layer("calib.ref_us", "us", Lower),
    layer("calib.spread_pct", "%", Lower),
    layer("raw.qps", "1/s", Higher),
    layer("raw.lat_p50_us", "us", Lower),
    layer("raw.lat_p95_us", "us", Lower),
    layer("trace.overhead_pct", "%", Lower),
    // sim: a twin Simulation, same seed, stepped on the main thread.
    layer("sim.step_us", "us", Lower),
    layer("sim.restructure_step_us", "us", Lower),
    layer("sim.snapshot_us", "us", Lower),
    // mesh
    layer("mesh.soa_rebuild_us", "us", Lower),
    layer("mesh.clone_us", "us", Lower),
    // service::monitor and the ring
    layer("monitor.begin_step_us", "us", Lower),
    layer("monitor.finish_wait_us", "us", Lower),
    layer("monitor.publish_us", "us", Lower),
    layer("monitor.restructure_publish_us", "us", Lower),
    layer("monitor.relayout_us", "us", Lower),
    layer("monitor.relayouts", "count", Lower),
    layer("ring.pin_query_us", "us", Lower),
    // service::admission
    layer("admission.overhead_us", "us", Lower),
    layer("admission.rejected", "count", Lower),
    layer("admission.shed", "count", Lower),
    // service::pool, batch, recycle
    layer("pool.execute_batch_us", "us", Lower),
    layer("pool.dispatch_overhead_us", "us", Lower),
    layer("pool.parallel_efficiency", "1", Higher),
    layer("recycle.reuse_rate", "1", Higher),
    // service::engine
    layer("engine.execute_us", "us", Lower),
    layer("engine.grouped_share", "1", Higher),
    layer("engine.shared_visit_ratio", "1", Lower),
    layer("engine.scan_routed_share", "1", Lower),
    // service::seed_cache
    layer("seed_cache.hit_rate", "1", Higher),
    layer("seed_cache.stale", "count", Lower),
    // service::subscribe
    layer("subscribe.poll_us", "us", Lower),
    layer("subscribe.refresh_poll_us", "us", Lower),
    layer("subscribe.delta_hit_rate", "1", Higher),
    layer("subscribe.retested_per_poll", "count", Lower),
    // core, from every QueryResult.timings (a public return value)
    layer("core.surface_probe_us", "us", Lower),
    layer("core.cache_probe_us", "us", Lower),
    layer("core.directed_walk_us", "us", Lower),
    layer("core.crawl_us", "us", Lower),
    layer("core.linear_scan_us", "us", Lower),
    layer("core.start_vertices", "count", Lower),
    layer("core.walk_visited", "count", Lower),
    layer("core.crawl_visited", "count", Lower),
    layer("core.results", "count", Higher),
    layer("core.visited_per_result", "1", Lower),
    layer("core.build_us", "us", Lower),
    layer("core.restructured_us", "us", Lower),
    layer("core.index_mem_mb", "MiB", Lower),
    // core::layout
    layer("layout.permutation_us", "us", Lower),
    layer("layout.extra_lines_per_vertex", "1", Lower),
    // index: the paper's Fig. 6 denominator, reported, not gated.
    layer("index.linear_scan_us", "us", Lower),
    layer("index.speedup_vs_scan", "1", Higher),
    // What the traced leg itself did.
    layer("trace.spans", "count", Lower),
    layer("trace.requests", "count", Higher),
    layer("trace.queries_verified", "count", Higher),
    layer("trace.gap_vertices", "count", Lower),
    layer("trace.checksum_equal", "1", Higher),
];

/// The driver's invocation, without the arguments it appends.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub const PATHS: [&str; 1] = ["benchmark"];

fn quoted_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

/// Renders `BENCHMARK.json` from the table.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s += &format!("  \"command\": {},\n", quoted_list(&COMMAND));
    s += &format!("  \"paths\": {},\n", quoted_list(&PATHS));
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    s += "  \"workloads\": [\n";
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ]\n}\n";
    s
}

/// `--list`: workload and metric names, one per line.
pub fn list() -> String {
    let mut s = String::new();
    for w in &WORKLOADS {
        s += &format!("workload {}\n", w.name);
    }
    for m in &END_TO_END {
        s += &format!(
            "end_to_end {} {} {} bound {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    for m in &PER_LAYER {
        s += &format!("per_layer {} {} {}\n", m.name, m.unit, m.better.as_str());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_limits_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name));
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name));
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let max = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, max, "setup_s carries the largest bound");
        assert!(manifest_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_manifest_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `cargo run --release -- --emit-manifest > ../BENCHMARK.json`"
        );
    }
}
