//! `suite` and `aa`: the whole suite, one child process per workload run
//! (so that `mem_mb` is one service's peak), once or as an A/A study.
//!
//! `aa` runs the suite `2 × runs` times — set A, then set B, the same
//! seeds in both, as the driver does it — and writes a report with, per
//! (workload, metric), each set's median, the difference between the
//! medians, the spread (interquartile range over median, the driver's
//! rule) and the spread of the metric's un-normalised twin beside it.

use crate::estimator::{median, spread};
use crate::table::{Better, END_TO_END, RUN_SECONDS, WORKLOADS};
use std::collections::BTreeMap;
use std::process::Command;

/// `metric` and numeric `info` lines of one child run, by name.
type Readings = BTreeMap<String, f64>;

fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Readings, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let mut readings = Readings::new();
    for line in text.lines() {
        let mut words = line.split(' ');
        if let (Some("metric" | "info"), Some(name), Some(value)) =
            (words.next(), words.next(), words.next())
        {
            if let Ok(v) = value.parse::<f64>() {
                readings.insert(name.to_string(), v);
            }
        }
    }
    let last = text.lines().last().unwrap_or_default();
    if !last.starts_with("{\"correct\": true") {
        return Err(format!("{workload} seed {seed} is not correct: {last}"));
    }
    Ok((readings, text))
}

struct Options {
    runs: usize,
    seed: u64,
    seconds: f64,
    report: String,
}

fn options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        runs: 6,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        report: "benchmark/AA.md".to_string(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--runs" => o.runs = value.parse().map_err(|e| format!("--runs: {e}"))?,
            "--seed" => o.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--report" => o.report = value.clone(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.runs < 2 {
        return Err("--runs must be at least 2".to_string());
    }
    Ok(o)
}

/// Every workload once: the timed run, then the traced run.
pub fn suite(args: &[String]) -> Result<bool, String> {
    let o = options(args)?;
    for w in &WORKLOADS {
        for trace in [false, true] {
            println!("== {} --trace {}", w.name, u8::from(trace));
            print!("{}", child(w.name, o.seed, o.seconds, trace)?.1);
        }
    }
    Ok(true)
}

/// The un-normalised twin of a metric, if it has one.
fn raw_twin(metric: &str) -> Option<&'static str> {
    match metric {
        "queries_per_ref" => Some("raw.qps"),
        "lat_p50_refs" => Some("raw.lat_p50_us"),
        "lat_p95_refs" => Some("raw.lat_p95_us"),
        _ => None,
    }
}

fn column(runs: &[Readings], name: &str) -> Vec<f64> {
    runs.iter().filter_map(|r| r.get(name).copied()).collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn aa(args: &[String]) -> Result<bool, String> {
    let o = options(args)?;
    // sets[set][workload] = one Readings per run.
    let mut sets: Vec<BTreeMap<&str, Vec<Readings>>> = Vec::new();
    for set in ["A", "B"] {
        let mut by_workload: BTreeMap<&str, Vec<Readings>> = BTreeMap::new();
        for run in 0..o.runs {
            for w in &WORKLOADS {
                let seed = o.seed + run as u64;
                eprintln!("aa: set {set} run {} of {} {}", run + 1, o.runs, w.name);
                by_workload
                    .entry(w.name)
                    .or_default()
                    .push(child(w.name, seed, o.seconds, false)?.0);
            }
        }
        sets.push(by_workload);
    }

    let mut md = String::from("# A/A study\n\n");
    md += &format!(
        "Written by `octopus-benchmark aa --runs {} --seconds {}`: the suite run {} times as set A and {} \
         times as set B on the same code, seeds {}–{} in both, on {} hardware threads. *spread* is the \
         interquartile range over the median (`statistics.quantiles(values, n=4)`), the driver's rule; \
         *A/A* is how much worse B's median is than A's; *raw* is the spread of the metric's \
         un-normalised twin (`raw.qps`, `raw.lat_p50_us`, `raw.lat_p95_us`) in the same runs. *derived* \
         is max(5 %, 2.5 × the larger spread), the issue's rule for a bound; the bound in force is the \
         table's.\n\n",
        o.runs,
        o.seconds,
        o.runs,
        o.runs,
        o.seed,
        o.seed + o.runs as u64 - 1,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let mut all_within = true;
    for w in &WORKLOADS {
        md += &format!("## {}\n\n", w.name);
        md += &format!(
            "`calib.ref_us` (the slice, in µs; 24–25 when the host is quiet), median of the runs: A {:.1}, B {:.1}.\n\n",
            median(&column(&sets[0][w.name], "calib.ref_us")),
            median(&column(&sets[1][w.name], "calib.ref_us")),
        );
        md += "| metric | median A | median B | A/A % | bound % | spread A % | spread B % | raw spread A % | raw spread B % | derived % |\n";
        md += "|---|---|---|---|---|---|---|---|---|---|\n";
        for m in &END_TO_END {
            let (a, b) = (
                column(&sets[0][w.name], m.name),
                column(&sets[1][w.name], m.name),
            );
            let (ma, mb) = (median(&a), median(&b));
            let diff = worse_by(m.better, ma, mb);
            let (sa, sb) = (spread(&a), spread(&b));
            let raw = |set: usize| match raw_twin(m.name) {
                Some(twin) => format!("{:.2}", 100.0 * spread(&column(&sets[set][w.name], twin))),
                None => "—".to_string(),
            };
            let derived = (2.5 * sa.max(sb)).max(0.05);
            // setup_s is exempt from the spread rule (the driver's too).
            let spread_ok = m.name == "setup_s" || sa.max(sb) <= m.bound;
            let ok = diff <= m.bound / 2.0 && spread_ok;
            all_within &= ok;
            md += &format!(
                "| `{}` ({}) | {:.4} | {:.4} | {:+.2} | {:.0} | {:.2} | {:.2} | {} | {} | {:.1}{} |\n",
                m.name,
                m.unit,
                ma,
                mb,
                100.0 * diff,
                100.0 * m.bound,
                100.0 * sa,
                100.0 * sb,
                raw(0),
                raw(1),
                100.0 * derived,
                if ok { "" } else { " ✗" },
            );
        }
        md += "\n";
    }

    md += "## Traced run\n\nOne traced run per workload (seed of the first run).\n\n";
    md += "| workload | trace.overhead_pct | trace.checksum_equal | trace.queries_verified | trace.spans | failed |\n|---|---|---|---|---|---|\n";
    for w in &WORKLOADS {
        eprintln!("aa: traced {}", w.name);
        let (r, text) = child(w.name, o.seed, o.seconds, true)?;
        let failed = text
            .lines()
            .last()
            .and_then(|l| l.split("\"failed\": ").nth(1))
            .and_then(|s| s.split(',').next())
            .unwrap_or("?")
            .to_string();
        md += &format!(
            "| {} | {:.2} | {} | {} | {} | {} |\n",
            w.name,
            r["trace.overhead_pct"],
            r["trace.checksum_equal"],
            r["trace.queries_verified"],
            r["trace.spans"],
            failed
        );
    }
    md += &format!(
        "\n{}\n",
        if all_within {
            "Every A/A difference is at or below half its bound and every spread is within its bound."
        } else {
            "Rows marked ✗ exceed half their bound (A/A) or their bound (spread)."
        }
    );
    std::fs::write(&o.report, &md).map_err(|e| format!("{}: {e}", o.report))?;
    print!("{md}");
    Ok(all_within)
}
