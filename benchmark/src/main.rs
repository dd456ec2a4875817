//! The repository's benchmark: four monitoring workloads driven through
//! the public API of `octopus-service`, measured in reference-kernel
//! units. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! octopus-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! octopus-benchmark suite [--seed n] [--seconds s]
//! octopus-benchmark aa [--runs n] [--seconds s] [--report path]
//! octopus-benchmark --list | --emit-manifest
//! ```

mod aa;
mod adapter;
mod calib;
mod estimator;
mod harness;
mod layers;
mod os;
mod querygen;
mod recorder;
mod table;
mod trace;
mod workloads;

use std::process::ExitCode;

/// Where the traced run writes `trace-<workload>.json`, relative to the
/// repository root the driver runs the command from.
const OUT_DIR: &str = "benchmark/out";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out_dir: String,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(table::RUN_SECONDS),
        trace: false,
        quick: false,
        out_dir: OUT_DIR.to_string(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => run.workload = value()?.clone(),
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => run.out_dir = value()?.clone(),
            "--quick" => run.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(run.seconds > 0.0 && run.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], not {}",
            run.seconds
        ));
    }
    Ok(run)
}

/// One run of one workload; returns everything it prints.
fn run(args: &RunArgs) -> Result<(String, bool), String> {
    let spec = workloads::spec(&args.workload, args.quick).ok_or_else(|| {
        let names: Vec<&str> = table::WORKLOADS.iter().map(|w| w.name).collect();
        format!("--workload must be one of {}", names.join(", "))
    })?;
    let report = if args.trace {
        harness::run_traced(&spec, args.seed, args.seconds, &args.out_dir)?
    } else {
        harness::run_timed(&spec, args.seed, args.seconds)?
    };
    Ok((report.render(), report.correct))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("--list") => {
            print!("{}", table::list());
            Ok(true)
        }
        Some("--emit-manifest") => {
            print!("{}", table::manifest_json());
            Ok(true)
        }
        Some("aa") => aa::aa(&args[1..]),
        Some("suite") => aa::suite(&args[1..]),
        _ => parse_run(&args)
            .and_then(|a| run(&a))
            .map(|(text, correct)| {
                print!("{text}");
                correct
            }),
    };
    match outcome {
        // An incorrect run still prints its result line (`correct:
        // false` with the failure count) and exits 0: the line is the
        // report. Only a run that could not be made exits non-zero.
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The adapter is the only file that names a workspace crate.
    #[test]
    fn only_the_adapter_names_workspace_crates() {
        let src = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
        for entry in std::fs::read_dir(src).unwrap() {
            let path = entry.unwrap().path();
            if path.file_name().unwrap() == "adapter.rs" {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            for (n, line) in text.lines().enumerate() {
                let code = line.split("//").next().unwrap();
                assert!(
                    !code.contains("octopus_") || code.contains("\"octopus_"),
                    "{}:{}: workspace call outside adapter.rs: {line}",
                    path.display(),
                    n + 1
                );
            }
        }
    }

    fn quick(workload: &str, trace: bool) -> String {
        let out_dir = std::env::temp_dir().join(format!("octopus-benchmark-test-{workload}"));
        let args = RunArgs {
            workload: workload.to_string(),
            seed: 3,
            seconds: 0.3,
            trace,
            quick: true,
            out_dir: out_dir.to_str().unwrap().to_string(),
        };
        let (text, correct) = run(&args).unwrap();
        assert!(correct, "{workload} trace={trace}:\n{text}");
        text
    }

    /// Every metric the manifest names is printed exactly once with its
    /// unit, and the last line is the contract's JSON object.
    fn assert_prints(text: &str, expected: &[(&str, &str)]) {
        let metric_lines: Vec<Vec<&str>> = text
            .lines()
            .filter(|l| l.starts_with("metric "))
            .map(|l| l.split(' ').collect())
            .collect();
        assert_eq!(metric_lines.len(), expected.len(), "{text}");
        for (name, unit) in expected {
            let hits: Vec<_> = metric_lines.iter().filter(|l| l[1] == *name).collect();
            assert_eq!(hits.len(), 1, "{name} printed {} times", hits.len());
            assert_eq!(hits[0][3], *unit, "{name}");
            let value: f64 = hits[0][2].parse().unwrap();
            assert!(value.is_finite(), "{name} = {value}");
            let json = format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                hits[0][2]
            );
            let last = text.lines().last().unwrap();
            assert!(last.contains(&json), "{json} not in {last}");
        }
        let last = text.lines().last().unwrap();
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    }

    #[test]
    fn quick_timed_runs_print_every_end_to_end_metric_once() {
        let expected: Vec<_> = table::END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
        for w in &table::WORKLOADS {
            let text = quick(w.name, false);
            assert_prints(&text, &expected);
            for m in &table::END_TO_END {
                let line = text
                    .lines()
                    .find(|l| l.starts_with(&format!("metric {} ", m.name)));
                let value: f64 = line.unwrap().split(' ').nth(2).unwrap().parse().unwrap();
                assert!(value > 0.0, "{} {} must never be 0", w.name, m.name);
            }
        }
    }

    #[test]
    fn quick_traced_runs_print_every_per_layer_metric_once() {
        let expected: Vec<_> = table::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        for w in &table::WORKLOADS {
            let text = quick(w.name, true);
            assert_prints(&text, &expected);
            assert!(text.contains("metric trace.checksum_equal 1 1"), "{text}");
        }
    }
}
