//! Executor-side telemetry: the bundle of registry handles the
//! executor records phase timings and work counters into.
//!
//! [`ExecutorMetrics`] is registered once against an
//! [`octopus_telemetry::Registry`] and attached to any number of
//! [`crate::Octopus`] executors (snapshot-ring generations share one
//! bundle — the handles are `Arc`-shared and lock-free). Every query
//! entry point then feeds its [`crate::PhaseTimings`] into log2
//! histograms — the measured side of the Eq.-6 coefficients.

use std::fmt;
use std::sync::Arc;

use octopus_telemetry::{Counter, Gauge, Histogram, Registry};

use crate::executor::PhaseTimings;

/// Which entry point executed a query — the key of the per-mode
/// `executor_query_ns_*` latency histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// One region, box or convex, under either [`crate::Probe`]
    /// ([`crate::Octopus::query_with`], or a group of one).
    Fresh,
    /// k-nearest-neighbour ([`crate::QueryShape::KNearest`] through
    /// [`crate::Octopus::query_shape`]).
    Knn,
    /// Materialisation-free aggregate ([`crate::QueryShape::Aggregate`]
    /// through [`crate::Octopus::query_shape`]).
    Aggregate,
    /// Shared-frontier overlap group of two or more
    /// ([`crate::Octopus::query_group`]).
    Group,
}

const MODES: [(ExecMode, &str); 4] = [
    (ExecMode::Fresh, "fresh"),
    (ExecMode::Knn, "knn"),
    (ExecMode::Aggregate, "aggregate"),
    (ExecMode::Group, "group"),
];

impl ExecMode {
    /// Stable lowercase name used in metric names.
    pub fn as_str(self) -> &'static str {
        MODES[self as usize].1
    }
}

/// Registry handles for everything the executor records. See the
/// metric catalogue in the workspace README ("Telemetry").
pub struct ExecutorMetrics {
    /// Per-phase wall-time histograms (ns): surface_probe,
    /// linear_scan, directed_walk, crawling. A phase is recorded only
    /// when it actually ran (non-zero duration).
    phase_surface_probe_ns: Histogram,
    phase_linear_scan_ns: Histogram,
    phase_directed_walk_ns: Histogram,
    phase_crawling_ns: Histogram,
    /// Whole-query latency keyed by [`ExecMode`].
    query_ns: [Histogram; MODES.len()],
    queries: Counter,
    results: Histogram,
    start_vertices: Histogram,
    walk_visited: Histogram,
    crawl_visited: Histogram,
    /// `executor_walks_total` / `executor_walks_pruned_total` —
    /// seedless components walked, and those the probe's component
    /// bound skipped.
    walks: Counter,
    walks_pruned: Counter,
    /// `surface_grid_candidates` — ids visited per grid probe; against
    /// the surface size it is what the grid saved.
    grid_candidates: Histogram,
    /// `executor_component_patches_total` /
    /// `executor_component_rebuilds_total` — restructures and
    /// relabellings the component map followed by a patch, and those
    /// that needed a search over the whole mesh instead.
    component_patches: Counter,
    component_rebuilds: Counter,
    /// `executor_memory_bytes` — [`crate::Octopus::memory_bytes`].
    memory_bytes: Gauge,
}

impl ExecutorMetrics {
    /// Register (or re-open) the executor metric family on `registry`.
    pub fn register(registry: &Registry) -> Arc<ExecutorMetrics> {
        Arc::new(ExecutorMetrics {
            phase_surface_probe_ns: registry.histogram("executor_phase_ns_surface_probe"),
            phase_linear_scan_ns: registry.histogram("executor_phase_ns_linear_scan"),
            phase_directed_walk_ns: registry.histogram("executor_phase_ns_directed_walk"),
            phase_crawling_ns: registry.histogram("executor_phase_ns_crawling"),
            query_ns: MODES
                .map(|(_, name)| registry.histogram(&format!("executor_query_ns_{name}"))),
            queries: registry.counter("executor_queries_total"),
            results: registry.histogram("executor_results"),
            start_vertices: registry.histogram("executor_start_vertices"),
            walk_visited: registry.histogram("executor_walk_visited"),
            crawl_visited: registry.histogram("executor_crawl_visited"),
            walks: registry.counter("executor_walks_total"),
            walks_pruned: registry.counter("executor_walks_pruned_total"),
            grid_candidates: registry.histogram("surface_grid_candidates"),
            component_patches: registry.counter("executor_component_patches_total"),
            component_rebuilds: registry.counter("executor_component_rebuilds_total"),
            memory_bytes: registry.gauge("executor_memory_bytes"),
        })
    }

    /// Record one executed query's timings under `mode`.
    pub fn record(&self, mode: ExecMode, t: &PhaseTimings) {
        self.queries.inc();
        self.record_walks(t);
        self.record_phases(t);
        self.query_ns[mode as usize].record_duration(t.total());
        self.results.record(t.results as u64);
        self.start_vertices.record(t.start_vertices as u64);
        if t.walk_visited > 0 {
            self.walk_visited.record(t.walk_visited as u64);
        }
        if t.crawl_visited > 0 {
            self.crawl_visited.record(t.crawl_visited as u64);
        }
    }

    /// Record one shared-frontier group execution, `members` holding
    /// one timings record per member query (at least one). A group of
    /// one is a fresh query and recorded as one ([`ExecMode::Fresh`]).
    /// Otherwise the first member's record carries the group's shared
    /// phases: they are paid once, so they land in the phase histograms
    /// once. Walks are counted per member.
    pub fn record_group(&self, members: &[PhaseTimings]) {
        if let [alone] = members {
            return self.record(ExecMode::Fresh, alone);
        }
        self.queries.add(members.len() as u64);
        for t in members {
            self.record_walks(t);
        }
        self.record_phases(&members[0]);
        self.query_ns[ExecMode::Group as usize].record_duration(members[0].total());
    }

    fn record_walks(&self, t: &PhaseTimings) {
        self.walks.add(t.walks as u64);
        self.walks_pruned.add(t.walks_pruned as u64);
    }

    /// Each phase that actually ran (non-zero duration), and what a
    /// grid probe visited.
    fn record_phases(&self, t: &PhaseTimings) {
        if t.grid_candidates > 0 {
            self.grid_candidates.record(t.grid_candidates as u64);
        }
        for (histogram, phase) in [
            (&self.phase_surface_probe_ns, t.surface_probe),
            (&self.phase_linear_scan_ns, t.linear_scan),
            (&self.phase_directed_walk_ns, t.directed_walk),
            (&self.phase_crawling_ns, t.crawling),
        ] {
            if !phase.is_zero() {
                histogram.record_duration(phase);
            }
        }
    }

    /// Record one member of a planner-routed shared linear scan, which
    /// bypassed the probe/walk/crawl machinery entirely (the pass's
    /// wall time sits on the scan group's first member).
    pub fn record_scan(&self, t: &PhaseTimings) {
        self.queries.inc();
        self.record_phases(t);
        self.results.record(t.results as u64);
    }

    /// Record how the component map followed one restructure or
    /// relabelling: patched, or searched afresh.
    pub fn record_component_map(&self, patched: bool) {
        if patched {
            self.component_patches.inc();
        } else {
            self.component_rebuilds.inc();
        }
    }

    /// Publish the executor's heap bytes.
    pub fn set_memory(&self, bytes: usize) {
        self.memory_bytes.set_u64(bytes as u64);
    }
}

impl fmt::Debug for ExecutorMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecutorMetrics").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn mode_names_line_up_with_discriminants() {
        for (i, (mode, name)) in MODES.iter().enumerate() {
            assert_eq!(*mode as usize, i);
            assert_eq!(mode.as_str(), *name);
        }
    }

    #[test]
    fn record_feeds_phase_and_mode_histograms() {
        let reg = Registry::new();
        let m = ExecutorMetrics::register(&reg);
        let t = PhaseTimings {
            surface_probe: Duration::from_nanos(100),
            crawling: Duration::from_nanos(50),
            start_vertices: 2,
            crawl_visited: 9,
            grid_candidates: 40,
            walks_pruned: 1,
            results: 5,
            ..Default::default()
        };
        m.record(ExecMode::Fresh, &t);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("executor_queries_total"), 1);
        assert_eq!(
            snap.histogram("executor_phase_ns_surface_probe")
                .unwrap()
                .count,
            1
        );
        assert!(snap
            .histogram("executor_phase_ns_linear_scan")
            .unwrap()
            .is_empty());
        assert_eq!(snap.histogram("surface_grid_candidates").unwrap().sum, 40);
        assert_eq!(snap.histogram("executor_query_ns_fresh").unwrap().count, 1);
        assert_eq!(snap.histogram("executor_results").unwrap().sum, 5);
        // No walk ran: counted as pruned, and the walk phase is silent.
        assert_eq!(snap.counter("executor_walks_total"), 0);
        assert_eq!(snap.counter("executor_walks_pruned_total"), 1);
        assert!(snap
            .histogram("executor_phase_ns_directed_walk")
            .unwrap()
            .is_empty());

        // A group counts every member's walks; the clock is the first's.
        let walked = PhaseTimings {
            directed_walk: Duration::from_nanos(70),
            walks: 2,
            walks_pruned: 3,
            ..t
        };
        m.record_group(&[walked, t, walked]);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("executor_queries_total"), 4);
        assert_eq!(snap.counter("executor_walks_total"), 4);
        assert_eq!(snap.counter("executor_walks_pruned_total"), 8);
        assert_eq!(
            snap.histogram("executor_phase_ns_directed_walk")
                .unwrap()
                .count,
            1
        );
    }
}
