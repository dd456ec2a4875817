//! The bench-artifact sanity gate (`cargo run -p xtask -- bench-gate`).
//!
//! The committed `BENCH_fig13.json` is the layout engine's acceptance
//! evidence: the Hilbert layout — the one the service and the
//! `analysis-burst` benchmark workload run — must actually crawl faster
//! than the generator (identity) order. CI runs this gate so the
//! artifact cannot silently rot — a re-recorded file that loses the
//! speedup fails the build, exactly like a failing test.
//!
//! Checks, in order:
//! 1. the artifact parses and is the fig13 bench;
//! 2. the layout roster covers `scrambled`, `identity` and `hilbert`
//!    (the two baselines and the subject);
//! 3. every entry's timings and speedups are finite and positive;
//! 4. `hilbert` beats `identity` on crawl time
//!    (`crawl_speedup_vs_identity > 1.0`);
//! 5. `scrambled` is not *faster* than `hilbert` (a scrambled win would
//!    mean the measurement itself is broken);
//! 6. `BENCHMARK.json` (read-only) parses, declares ≥ 2 workloads and
//!    gives every `end_to_end` metric a regression `bound` in (0, 1).

use std::path::Path;
use std::process::ExitCode;

use serde_json::Value;

/// The artifact the gate audits, workspace-root-relative.
const ARTIFACT: &str = "BENCH_fig13.json";

/// The repository benchmark's declaration, workspace-root-relative.
const BENCHMARK: &str = "BENCHMARK.json";

/// Runs the gate rooted at `root` and reports on stderr.
pub fn run_cli(root: &Path) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    for (file, check) in [
        (ARTIFACT, audit as fn(&Path) -> Result<String, String>),
        (BENCHMARK, audit_benchmark),
    ] {
        let path = root.join(file);
        match check(&path) {
            Ok(summary) => eprintln!("xtask bench-gate: {summary}"),
            Err(e) => {
                eprintln!("xtask bench-gate: {}: {e}", path.display());
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse failed: {e}"))
}

/// Audits the benchmark declaration; `Ok` carries a one-line summary.
pub fn audit_benchmark(path: &Path) -> Result<String, String> {
    let doc = load(path)?;
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or("missing `workloads` array")?;
    if workloads.len() < 2 {
        return Err(format!(
            "{} workload(s) — a benchmark needs one that exercises a mechanism and one that bypasses it",
            workloads.len()
        ));
    }
    let metrics = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("missing `end_to_end` array")?;
    for m in metrics {
        let name = m.get("name").and_then(Value::as_str).unwrap_or("?");
        let bound = m
            .get("bound")
            .and_then(Value::as_f64)
            .ok_or(format!("`{name}`: `bound` missing or not a number"))?;
        if !(bound > 0.0 && bound < 1.0) {
            return Err(format!("`{name}`: bound {bound} is not in (0, 1)"));
        }
    }
    Ok(format!(
        "{BENCHMARK} ok — {} workloads, {} bounded end-to-end metrics",
        workloads.len(),
        metrics.len()
    ))
}

/// Audits one artifact file; `Ok` carries a one-line summary.
pub fn audit(path: &Path) -> Result<String, String> {
    let doc = load(path)?;
    if doc.get("bench").and_then(Value::as_str) != Some("fig13_hilbert") {
        return Err("not a fig13_hilbert artifact".to_string());
    }
    let entries = doc
        .get("entries")
        .and_then(Value::as_array)
        .ok_or("missing `entries` array")?;
    let get = |layout: &str| -> Result<&Value, String> {
        entries
            .iter()
            .find(|e| e.get("layout").and_then(Value::as_str) == Some(layout))
            .ok_or(format!("layout `{layout}` missing from entries"))
    };
    let field = |e: &Value, key: &str| -> Result<f64, String> {
        let layout = e.get("layout").and_then(Value::as_str).unwrap_or("?");
        let v = e
            .get(key)
            .and_then(Value::as_f64)
            .ok_or(format!("`{layout}`: `{key}` missing or not a number"))?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!("`{layout}`: `{key}` = {v} is not finite-positive"));
        }
        Ok(v)
    };
    for e in entries {
        for key in [
            "crawl_us_per_query",
            "total_us_per_query",
            "crawl_speedup_vs_scrambled",
            "crawl_speedup_vs_identity",
        ] {
            field(e, key)?;
        }
    }
    get("scrambled")?;
    get("identity")?;
    let subject = get("hilbert")?;
    let speedup = field(subject, "crawl_speedup_vs_identity")?;
    if speedup <= 1.0 {
        return Err(format!(
            "hilbert crawl_speedup_vs_identity = {speedup:.3} — \
             the layout engine no longer beats the generator order"
        ));
    }
    let vs_scrambled = field(subject, "crawl_speedup_vs_scrambled")?;
    if vs_scrambled <= 1.0 {
        return Err(format!(
            "hilbert crawl_speedup_vs_scrambled = {vs_scrambled:.3} — \
             a scrambled mesh wins, the measurement is broken"
        ));
    }
    Ok(format!(
        "{ARTIFACT} ok — hilbert {speedup:.3}x vs identity, \
         {vs_scrambled:.3}x vs scrambled"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &Path, body: &str) -> std::path::PathBuf {
        let p = dir.join(ARTIFACT);
        std::fs::write(&p, body).expect("fixture write");
        p
    }

    fn entry(layout: &str, vs_identity: f64) -> String {
        format!(
            "{{\"layout\": \"{layout}\", \"crawl_us_per_query\": 10.0, \
             \"total_us_per_query\": 20.0, \"crawl_speedup_vs_scrambled\": 2.0, \
             \"crawl_speedup_vs_identity\": {vs_identity}}}"
        )
    }

    fn artifact(hilbert_vs_identity: f64) -> String {
        format!(
            "{{\"bench\": \"fig13_hilbert\", \"entries\": [{}, {}, {}]}}",
            entry("scrambled", 0.3),
            entry("identity", 1.0),
            entry("hilbert", hilbert_vs_identity)
        )
    }

    #[test]
    fn passing_artifact_is_accepted() {
        let dir = std::env::temp_dir().join("gate_pass");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let p = write(&dir, &artifact(1.29));
        let summary = audit(&p).expect("passes");
        assert!(summary.contains("1.290x"), "summary: {summary}");
    }

    #[test]
    fn lost_speedup_is_rejected() {
        let dir = std::env::temp_dir().join("gate_fail");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let p = write(&dir, &artifact(0.94));
        let err = audit(&p).expect_err("fails");
        assert!(err.contains("no longer beats"), "err: {err}");
    }

    #[test]
    fn missing_subject_layout_is_rejected() {
        let dir = std::env::temp_dir().join("gate_missing");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let body = format!(
            "{{\"bench\": \"fig13_hilbert\", \"entries\": [{}, {}]}}",
            entry("scrambled", 0.3),
            entry("identity", 1.0)
        );
        let p = write(&dir, &body);
        let err = audit(&p).expect_err("fails");
        assert!(err.contains("hilbert"), "err: {err}");
    }

    #[test]
    fn committed_artifact_passes_the_gate() {
        let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("xtask sits in the workspace root")
            .to_path_buf();
        audit(&root.join(ARTIFACT)).expect("committed BENCH_fig13.json passes its own gate");
        audit_benchmark(&root.join(BENCHMARK)).expect("committed BENCHMARK.json is well-formed");
    }

    #[test]
    fn benchmark_declaration_needs_two_workloads_and_unit_bounds() {
        let dir = std::env::temp_dir().join("gate_benchmark");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let p = dir.join(BENCHMARK);
        let decl = |workloads: &str, bound: &str| {
            format!(
                "{{\"workloads\": [{workloads}], \
                 \"end_to_end\": [{{\"name\": \"lat\", \"bound\": {bound}}}]}}"
            )
        };
        let two = "{\"name\": \"a\"}, {\"name\": \"b\"}";
        std::fs::write(&p, decl(two, "0.2")).expect("fixture write");
        audit_benchmark(&p).expect("passes");
        std::fs::write(&p, decl("{\"name\": \"a\"}", "0.2")).expect("fixture write");
        let err = audit_benchmark(&p).expect_err("one workload");
        assert!(err.contains("1 workload"), "err: {err}");
        for bad in ["0.0", "1.0", "\"tight\""] {
            std::fs::write(&p, decl(two, bad)).expect("fixture write");
            let err = audit_benchmark(&p).expect_err("bad bound");
            assert!(err.contains("`lat`"), "err: {err}");
        }
    }
}
