//! End-to-end tests of the `carma lint` subcommand: exit-code
//! contract, JSON well-formedness, and thread-count invariance.

use std::process::Command;

fn carma_lint() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_carma"));
    cmd.arg("lint").env("CARMA_SCALE", "quick");
    cmd
}

#[test]
fn built_in_libraries_lint_clean_with_exit_0() {
    // All three families at quick scale: the trusted profile must not
    // raise a single error-severity finding on our own generators.
    let out = carma_lint().output().expect("carma lint runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "expected exit 0, got {:?}\n{stderr}",
        out.status
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for family in ["ladder", "classic", "evolved"] {
        assert!(
            stdout.contains(family),
            "report misses `{family}`:\n{stdout}"
        );
    }
    assert!(
        stdout.contains("interval analysis is sound"),
        "soundness note missing:\n{stdout}"
    );
    assert!(!stdout.contains("UNSOUND"), "{stdout}");
}

#[test]
fn corrupted_fixture_fails_with_exit_1() {
    let out = carma_lint()
        .args(["--fixture", "corrupted"])
        .output()
        .expect("carma lint runs");
    assert_eq!(out.status.code(), Some(1), "fixture must fail the lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("dead-gate"), "{stdout}");
    assert!(stdout.contains("floating-input"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error-severity"), "{stderr}");
}

#[test]
fn json_output_is_parseable_and_thread_invariant() {
    let run = |threads: &str| {
        let out = carma_lint()
            .args(["--family", "ladder", "--out", "json"])
            .env("CARMA_THREADS", threads)
            .output()
            .expect("carma lint runs");
        assert!(out.status.success(), "{:?}", out.status);
        out.stdout
    };
    let narrow = run("1");
    let wide = run("8");
    assert_eq!(narrow, wide, "lint JSON must not depend on thread count");
    let parsed =
        serde::json::parse(&String::from_utf8(narrow).expect("utf8")).expect("lint JSON parses");
    let artifacts = parsed.get("artifacts").unwrap().as_array().unwrap();
    assert_eq!(artifacts.len(), 2, "lint + lint_finding artifacts");
    assert_eq!(artifacts[0].get("kind").unwrap().as_str().unwrap(), "lint");
    assert_eq!(
        artifacts[1].get("kind").unwrap().as_str().unwrap(),
        "lint_finding"
    );
}

#[test]
fn unknown_lint_flag_is_a_usage_error() {
    let out = carma_lint()
        .arg("--frobnicate")
        .output()
        .expect("carma lint runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown lint argument"), "{stderr}");
}

#[test]
fn trace_flag_profiles_the_evolved_search_and_keeps_the_report() {
    let run = |trace: bool| {
        let mut cmd = carma_lint();
        cmd.args(["--family", "evolved", "--scale", "quick"]);
        if trace {
            cmd.args(["--trace", "text"]);
        }
        let out = cmd.output().expect("carma lint runs");
        assert!(out.status.success(), "{:?}", out.status);
        out
    };
    let traced = run(true);
    let stderr = String::from_utf8_lossy(&traced.stderr);
    assert!(stderr.contains("nsga2.evals = 112"), "{stderr}");
    assert_eq!(
        traced.stdout,
        run(false).stdout,
        "--trace must not change the report"
    );
}
