//! What one measured loop records: windows of timed segments beside
//! their calibration slices, request latencies, failures, the result
//! checksum, and — in the traced leg — the per-layer counts.

use crate::adapter::{
    is_active, neighbors, positions, timings_total, Aabb, Mesh, QueryResult, VertexId,
};
use crate::calib::Kernel;
use crate::estimator::{Latency, Window};
use crate::os;
use crate::querygen::{judge, scan, Verdict};
use std::time::{Duration, Instant};

/// How much of the output is compared with the scan oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verify {
    /// Every answered query (the traced run).
    Every,
    /// One query of every `n`-th request (the timed run: a scan streams
    /// the whole position array through the caches, so it is rationed).
    Sample(u64),
    /// Nothing (the warm-up round inside set-up).
    Nothing,
}

/// Sums over every answered query and batch of the traced leg.
#[derive(Clone, Debug, Default)]
pub struct LayerCounts {
    pub queries: u64,
    pub surface_probe: Duration,
    pub cache_probe: Duration,
    pub directed_walk: Duration,
    pub crawl: Duration,
    pub linear_scan: Duration,
    pub start_vertices: u64,
    pub walk_visited: u64,
    pub crawl_visited: u64,
    pub results: u64,
    /// Σ `timings.total()` over every answered query.
    pub query_time: Duration,
    /// From `engine_report()` after each engine-routed batch.
    pub engine_queries: u64,
    pub engine_grouped: u64,
    pub engine_scan: u64,
    pub engine_shared_visited: u64,
    pub engine_attributed_visited: u64,
    /// Rounds (ascending) in which a subscription refreshed, a
    /// restructuring step was published, a re-layout was applied: the
    /// per-layer durations of those events are read off the spans of
    /// these rounds.
    pub refresh_rounds: Vec<u64>,
    pub restructure_rounds: Vec<u64>,
    pub relayout_rounds: Vec<u64>,
}

pub struct Recorder {
    kernel: Kernel,
    verify: Verify,
    current: Window,
    /// Main-thread CPU spent inside timed segments of the current window.
    main_cpu_timed: Duration,
    window_start_process_cpu: Duration,
    window_start_thread_cpu: Duration,
    request_ns: Option<f64>,
    requests_seen: u64,
    pub windows: Vec<Window>,
    pub latencies: Vec<Latency>,
    /// Operations attempted: requests and simulation steps.
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub checksum: u64,
    pub queries_verified: u64,
    /// Vertices the answers lacked because no crawl can reach them
    /// (see [`crate::querygen::judge`]).
    pub gap_vertices: u64,
    /// Largest `VmRSS` seen at a window boundary.
    pub rss_max_mib: f64,
    pub layers: Option<LayerCounts>,
    sort_scratch: Vec<VertexId>,
}

impl Recorder {
    pub fn new(verify: Verify, collect_layers: bool) -> Recorder {
        Recorder {
            kernel: Kernel::new(),
            verify,
            current: Window::default(),
            main_cpu_timed: Duration::ZERO,
            window_start_process_cpu: Duration::ZERO,
            window_start_thread_cpu: Duration::ZERO,
            request_ns: None,
            requests_seen: 0,
            windows: Vec::new(),
            latencies: Vec::new(),
            attempted: 0,
            failed: 0,
            first_failure: None,
            checksum: 0xCBF2_9CE4_8422_2325,
            queries_verified: 0,
            gap_vertices: 0,
            rss_max_mib: 0.0,
            layers: collect_layers.then(LayerCounts::default),
            sort_scratch: Vec::new(),
        }
    }

    pub fn open_window(&mut self) {
        self.current = Window::default();
        self.main_cpu_timed = Duration::ZERO;
        self.window_start_process_cpu = os::process_cpu();
        self.window_start_thread_cpu = os::thread_cpu();
    }

    /// Closes the window; `keep` is false for the warm-up window, whose
    /// samples are dropped (its checksum and failures are not).
    pub fn close_window(&mut self, keep: bool) {
        let process = os::process_cpu() - self.window_start_process_cpu;
        let main = os::thread_cpu() - self.window_start_thread_cpu;
        // Every other thread's CPU counts whole; the main thread's only
        // inside timed segments (slices, generation, checks excluded).
        let cpu = process.saturating_sub(main) + self.main_cpu_timed;
        self.current.cpu_ns = cpu.as_nanos() as f64;
        if let Some(rss) = os::rss_mib() {
            self.rss_max_mib = self.rss_max_mib.max(rss);
        }
        let window = std::mem::take(&mut self.current);
        if keep {
            self.windows.push(window);
        } else {
            self.latencies.clear();
        }
    }

    /// One calibration slice, outside the window clock.
    pub fn slice(&mut self) {
        let took = self.kernel.slice();
        self.current.slices_ns.push(took.as_nanos() as f64);
    }

    /// Runs `f` on the window clock (and the open request's, if any).
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let cpu0 = os::thread_cpu();
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as f64;
        self.main_cpu_timed += os::thread_cpu() - cpu0;
        self.current.busy_ns += ns;
        if let Some(req) = &mut self.request_ns {
            *req += ns;
        }
        out
    }

    /// Opens a request: one calibration slice, then its latency clock.
    pub fn open_request(&mut self) {
        self.slice();
        self.attempted += 1;
        self.requests_seen += 1;
        self.request_ns = Some(0.0);
    }

    pub fn close_request(&mut self, queries_answered: usize) {
        let ns = self
            .request_ns
            .take()
            .expect("close_request without open_request");
        self.current.queries += queries_answered as u64;
        self.latencies.push(Latency {
            ns,
            window: self.windows.len(),
        });
    }

    /// Counts a simulation step as an attempted operation.
    pub fn step_attempted(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: &str, detail: &str) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(format!("{what}: {detail}"));
        }
    }

    /// Folds one (round, request, query, result count) into the
    /// checksum (FNV-1a over the four words).
    pub fn fold(&mut self, round: u64, request: u64, query: u64, count: u64) {
        for word in [round, request, query, count] {
            for byte in word.to_le_bytes() {
                self.checksum ^= u64::from(byte);
                self.checksum = self.checksum.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }

    /// Which of `n` answers of the current request to compare with the
    /// oracle.
    fn to_verify(&self, n: usize) -> std::ops::Range<usize> {
        match self.verify {
            Verify::Every => 0..n,
            Verify::Nothing => 0..0,
            Verify::Sample(every) => {
                if n > 0 && self.requests_seen.is_multiple_of(every) {
                    let pick = ((self.requests_seen / every) % n as u64) as usize;
                    pick..pick + 1
                } else {
                    0..0
                }
            }
        }
    }

    /// Compares one answer (ids in the snapshot's id space, any order)
    /// with a scan over the snapshot's active vertices.
    fn verify_one(&mut self, what: &str, mesh: &Mesh, q: &Aabb, got: &[VertexId]) {
        let expected = scan(q, positions(mesh), |v| is_active(mesh, v));
        self.queries_verified += 1;
        let verdict = judge(got, &expected, &mut self.sort_scratch, |v| {
            neighbors(mesh, v)
                .iter()
                .copied()
                .filter(|&n| q.contains(positions(mesh)[n as usize]))
                .collect()
        });
        match verdict {
            Verdict::Exact => {}
            Verdict::Gap(vertices) => self.gap_vertices += vertices as u64,
            Verdict::Wrong(why) => self.fail(what, &why),
        }
    }

    /// Untimed bookkeeping of one answered batch: checksum, oracle
    /// comparison, per-layer sums.
    pub fn check_batch(
        &mut self,
        round: u64,
        request: u64,
        mesh: &Mesh,
        boxes: &[Aabb],
        results: &[QueryResult],
    ) {
        if results.len() != boxes.len() {
            self.fail(
                "batch",
                &format!("{} answers for {} queries", results.len(), boxes.len()),
            );
            return;
        }
        for (i, r) in results.iter().enumerate() {
            self.fold(round, request, i as u64, r.vertices.len() as u64);
        }
        for i in self.to_verify(boxes.len()) {
            self.verify_one("query", mesh, &boxes[i], &results[i].vertices);
        }
        if let Some(l) = &mut self.layers {
            for r in results {
                let t = &r.timings;
                l.queries += 1;
                l.surface_probe += t.surface_probe;
                l.cache_probe += t.cache_probe;
                l.directed_walk += t.directed_walk;
                l.crawl += t.crawling;
                l.linear_scan += t.linear_scan;
                l.start_vertices += t.start_vertices as u64;
                l.walk_visited += t.walk_visited as u64;
                l.crawl_visited += t.crawl_visited as u64;
                l.results += t.results as u64;
                l.query_time += timings_total(t);
            }
        }
    }

    /// Untimed bookkeeping of one subscription poll: `sizes` are the
    /// (entered, left) counts per subscription, `members` the standing
    /// result sets after the poll.
    pub fn check_poll(
        &mut self,
        round: u64,
        request: u64,
        mesh: &Mesh,
        boxes: &[Aabb],
        sizes: &[(usize, usize)],
        members: &[&[VertexId]],
    ) {
        if sizes.len() != boxes.len() || members.len() != boxes.len() {
            self.fail(
                "poll",
                &format!("{} deltas for {} subscriptions", sizes.len(), boxes.len()),
            );
            return;
        }
        for (i, (entered, left)) in sizes.iter().enumerate() {
            self.fold(
                round,
                request,
                i as u64,
                ((*entered as u64) << 32) | *left as u64,
            );
        }
        for i in self.to_verify(boxes.len()) {
            self.verify_one("subscription", mesh, &boxes[i], members[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_depends_on_every_word() {
        let base = {
            let mut r = Recorder::new(Verify::Nothing, false);
            r.fold(1, 2, 3, 4);
            r.checksum
        };
        for words in [(0, 2, 3, 4), (1, 0, 3, 4), (1, 2, 0, 4), (1, 2, 3, 0)] {
            let mut r = Recorder::new(Verify::Nothing, false);
            r.fold(words.0, words.1, words.2, words.3);
            assert_ne!(r.checksum, base);
        }
    }

    #[test]
    fn sampling_picks_one_query_of_every_nth_request() {
        let mut r = Recorder::new(Verify::Sample(3), false);
        r.open_window();
        let mut picked = Vec::new();
        for _ in 0..9 {
            r.open_request();
            picked.push(r.to_verify(4));
            r.close_request(4);
        }
        let hits: Vec<_> = picked.iter().filter(|p| !p.is_empty()).cloned().collect();
        assert_eq!(hits, vec![1..2, 2..3, 3..4]);
        assert_eq!(Recorder::new(Verify::Every, false).to_verify(5), 0..5);
    }

    #[test]
    fn warm_up_window_is_dropped_but_failures_stay() {
        let mut r = Recorder::new(Verify::Nothing, false);
        r.open_window();
        r.open_request();
        r.timed(|| std::hint::black_box(1 + 1));
        r.close_request(3);
        r.fail("x", "y");
        r.close_window(false);
        assert!(r.windows.is_empty() && r.latencies.is_empty());
        r.open_window();
        r.open_request();
        r.timed(|| std::hint::black_box(1 + 1));
        r.close_request(3);
        r.close_window(true);
        assert_eq!((r.windows.len(), r.latencies.len()), (1, 1));
        assert_eq!(r.latencies[0].window, 0);
        assert_eq!(r.windows[0].queries, 3);
        assert_eq!(r.windows[0].slices_ns.len(), 1);
        assert!(r.windows[0].busy_ns > 0.0);
        assert_eq!((r.attempted, r.failed), (2, 1));
    }
}
