//! Seconds-long runs of every workload, timed and traced, through the
//! built binary: the correctness gate must pass, no operation may
//! fail, and the result line must carry exactly the metrics
//! `BENCHMARK.json` declares.

use std::process::Command;

use serde::json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde::json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn declared(section: &str) -> Vec<String> {
    benchmark_json()
        .get(section)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Runs one workload for a second and returns its result line.
fn run(workload: &str, trace: u8) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_carma-perfbench"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde::json::parse(last).expect("the last line is JSON")
}

fn check(workload: &str) {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let result = run(workload, trace);
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(true)),
            "{workload}"
        );
        let attempted = result
            .get("attempted")
            .and_then(Value::as_f64)
            .expect("attempted");
        assert!(attempted >= 1.0, "{workload}");
        // The workloads are chosen so that no operation fails.
        assert_eq!(
            result.get("failed").and_then(Value::as_f64),
            Some(0.0),
            "{workload} trace {trace}"
        );
        let metrics: Vec<String> = result
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics")
            .iter()
            .map(|(name, _)| name.clone())
            .collect();
        assert_eq!(metrics, declared(section), "{workload} trace {trace}");
    }
}

#[test]
fn cold_scenarios_smoke() {
    check("cold_scenarios");
}

#[test]
fn library_lint_smoke() {
    check("library_lint");
}

#[test]
fn serve_sweep_smoke() {
    check("serve_sweep");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "serve_sweep", "--seconds", "1"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_carma-perfbench"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}
