//! Smoke tests: the benchmark binaries must run to completion at
//! `CARMA_SCALE=quick` and print their banner.
//!
//! Each binary runs in its own scratch directory so the `BENCH_*.json`
//! files it writes never land in the repository.

use std::path::PathBuf;
use std::process::Command;

fn run_bin(exe: &str, name: &str, args: &[&str]) {
    let dir = scratch_dir(name);
    let output = Command::new(exe)
        .args(args)
        .current_dir(&dir)
        .env("CARMA_SCALE", "quick")
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
    assert!(
        output.status.success(),
        "{name} exited with {:?}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("CARMA experiment"),
        "{name} printed no experiment banner:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("carma_bin_smoke_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn bench_parallel_runs_to_completion() {
    // Also covers the binary's internal cross-width determinism
    // assertions; BENCH_parallel.json lands in the scratch dir.
    run_bin(env!("CARGO_BIN_EXE_bench_parallel"), "bench_parallel", &[]);
}

#[test]
fn bench_incremental_runs_to_completion() {
    // `--test` pins quick scale; the binary asserts the warm-overlap
    // speedup floor, memo hit counters, and byte-identical reports
    // internally. BENCH_incremental.json lands in the scratch dir.
    run_bin(
        env!("CARGO_BIN_EXE_bench_incremental"),
        "bench_incremental",
        &["--test"],
    );
}
