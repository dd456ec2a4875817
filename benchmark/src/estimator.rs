//! The window estimator: turns raw window samples into metrics in
//! reference-kernel units.
//!
//! A run is cut into windows of a fixed number of rounds. `c_w` is the
//! median calibration-slice time of window *w*; everything timed in a
//! window is divided by that window's `c_w` — time-local, because the
//! interference on a shared machine lasts seconds, longer than a window
//! and shorter than a run.

/// What one window measured. Times are nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Duration of each calibration slice run inside the window.
    pub slices_ns: Vec<f64>,
    /// Wall time of the timed segments (slices, checksum folding and
    /// verification excluded).
    pub busy_ns: f64,
    /// CPU time of all threads, minus the main thread's untimed work.
    pub cpu_ns: f64,
    /// Queries answered.
    pub queries: u64,
}

/// One request's latency and the window it happened in.
#[derive(Clone, Copy, Debug)]
pub struct Latency {
    pub ns: f64,
    pub window: usize,
}

#[derive(Clone, Debug, Default)]
pub struct Estimate {
    pub queries_per_ref: f64,
    pub lat_p50_refs: f64,
    pub lat_p95_refs: f64,
    pub cpu_refs_per_query: f64,
    pub raw_qps: f64,
    pub raw_lat_p50_us: f64,
    pub raw_lat_p95_us: f64,
    /// Median of the windows' `c_w`, in microseconds.
    pub ref_us: f64,
    /// Interquartile range of `c_w` as a percentage of its median: the
    /// machine-noise reading of the run.
    pub ref_spread_pct: f64,
    pub windows: usize,
    pub requests: usize,
    pub queries: u64,
    /// `busy_w / c_w` per window: each window's timed work in refs. Two
    /// legs of the same rounds did the same work window by window, so the
    /// ratio of a pair is the cost of whatever differs between the legs.
    pub window_refs: Vec<f64>,
}

/// Linear-interpolated percentile (`p` in 0..=100) of an ascending
/// slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` gives them (exclusive method) — the rule the driver applies to
/// ten runs of a metric.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values.to_vec());
    let n = data.len();
    assert!(n >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

/// How much more timed work, in percent, leg `b` did than leg `a` of the
/// same rounds: the median over windows of the pairwise ratio, so that a
/// window disturbed in one leg does not decide it.
pub fn paired_overhead_pct(a: &Estimate, b: &Estimate) -> f64 {
    let ratios: Vec<f64> = a
        .window_refs
        .iter()
        .zip(&b.window_refs)
        .map(|(x, y)| y / x)
        .collect();
    100.0 * (median(&ratios) - 1.0)
}

pub fn estimate(windows: &[Window], latencies: &[Latency]) -> Estimate {
    let c: Vec<f64> = windows.iter().map(|w| median(&w.slices_ns)).collect();
    let per_window: Vec<f64> = windows
        .iter()
        .zip(&c)
        .filter(|(w, _)| w.busy_ns > 0.0)
        .map(|(w, c_w)| w.queries as f64 / (w.busy_ns / c_w))
        .collect();
    let normalised = sorted(latencies.iter().map(|l| l.ns / c[l.window]).collect());
    let raw = sorted(latencies.iter().map(|l| l.ns).collect());
    let queries: u64 = windows.iter().map(|w| w.queries).sum();
    let busy: f64 = windows.iter().map(|w| w.busy_ns).sum();
    let cpu: f64 = windows.iter().map(|w| w.cpu_ns).sum();
    let query_refs: f64 = windows
        .iter()
        .zip(&c)
        .map(|(w, c_w)| w.queries as f64 * c_w)
        .sum();
    let c_sorted = sorted(c.clone());
    let c_median = percentile(&c_sorted, 50.0);
    Estimate {
        queries_per_ref: median(&per_window),
        lat_p50_refs: percentile(&normalised, 50.0),
        lat_p95_refs: percentile(&normalised, 95.0),
        cpu_refs_per_query: cpu / query_refs.max(f64::MIN_POSITIVE),
        raw_qps: queries as f64 / (busy / 1e9).max(f64::MIN_POSITIVE),
        raw_lat_p50_us: percentile(&raw, 50.0) / 1e3,
        raw_lat_p95_us: percentile(&raw, 95.0) / 1e3,
        ref_us: c_median / 1e3,
        ref_spread_pct: 100.0 * (percentile(&c_sorted, 75.0) - percentile(&c_sorted, 25.0))
            / c_median.max(f64::MIN_POSITIVE),
        windows: windows.len(),
        requests: latencies.len(),
        queries,
        window_refs: windows
            .iter()
            .zip(&c)
            .map(|(w, c_w)| w.busy_ns / c_w)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 40 windows of 10 requests; `slow(w)` scales everything timed in
    /// window `w`, slices included, as machine interference does.
    fn synthetic(slow: impl Fn(usize) -> f64) -> (Vec<Window>, Vec<Latency>) {
        let mut windows = Vec::new();
        let mut latencies = Vec::new();
        for w in 0..40 {
            let f = slow(w);
            let mut busy = 0.0;
            for r in 0..10 {
                // A deterministic spread of request times, 400–940 µs.
                let ns = (400_000.0 + 60_000.0 * r as f64) * f;
                busy += ns;
                latencies.push(Latency { ns, window: w });
            }
            windows.push(Window {
                slices_ns: (0..10).map(|i| (90_000.0 + 100.0 * i as f64) * f).collect(),
                busy_ns: busy,
                cpu_ns: busy * 1.5,
                queries: 160,
            });
        }
        (windows, latencies)
    }

    #[test]
    fn a_slowdown_shared_by_work_and_slices_cancels() {
        let (w0, l0) = synthetic(|_| 1.0);
        let (w1, l1) = synthetic(|w| if w % 2 == 0 { 1.3 } else { 1.0 });
        let (a, b) = (estimate(&w0, &l0), estimate(&w1, &l1));
        for (x, y, name) in [
            (a.queries_per_ref, b.queries_per_ref, "queries_per_ref"),
            (a.lat_p50_refs, b.lat_p50_refs, "lat_p50_refs"),
            (a.lat_p95_refs, b.lat_p95_refs, "lat_p95_refs"),
            (
                a.cpu_refs_per_query,
                b.cpu_refs_per_query,
                "cpu_refs_per_query",
            ),
        ] {
            assert!(((x - y) / x).abs() < 0.01, "{name}: {x} vs {y}");
        }
        // The raw twins do see the slowdown.
        assert!(b.raw_qps < a.raw_qps * 0.9);
        assert!(b.ref_spread_pct > 10.0 && a.ref_spread_pct < 1.0);
    }

    #[test]
    fn estimate_matches_hand_computed_values() {
        let (w, l) = synthetic(|_| 1.0);
        let e = estimate(&w, &l);
        let c = 90_450.0; // median of 90 000 + 100·i, i in 0..10
        let busy = 10.0 * 400_000.0 + 60_000.0 * 45.0;
        assert!((e.queries_per_ref - 160.0 / (busy / c)).abs() < 1e-9);
        assert!((e.lat_p50_refs - 670_000.0 / c).abs() < 1e-9);
        assert!((e.cpu_refs_per_query - 1.5 * busy / (160.0 * c)).abs() < 1e-9);
        assert_eq!((e.windows, e.requests, e.queries), (40, 400, 6400));
    }

    #[test]
    fn paired_overhead_ignores_a_disturbed_window() {
        let (w, l) = synthetic(|_| 1.0);
        let a = estimate(&w, &l);
        let mut slower = w.clone();
        for x in &mut slower {
            x.busy_ns *= 1.02;
        }
        slower[7].busy_ns *= 3.0;
        let b = estimate(&slower, &l);
        assert!((paired_overhead_pct(&a, &b) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 95.0), 4.8);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5, 9], n=4) == [1.0, 3.5, 6.0]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0]), (1.0, 6.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
