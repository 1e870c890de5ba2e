//! The CLI's usage-error contract for every subcommand: an unknown
//! flag, a flag missing its value, a zero positive-integer flag or an
//! unsupported output format exits 2 with exactly one `error:` line
//! and a pointer to `carma help`, and prints nothing to stdout.

use std::process::Command;

/// `(arguments, message)`: each invocation must fail parsing with
/// `message`.
const USAGE_ERRORS: &[(&[&str], &str)] = &[
    (
        &["run", "fig2", "--frobnicate"],
        "unknown run argument `--frobnicate`",
    ),
    (&["run", "fig2", "--threads"], "`--threads` needs a value"),
    (
        &["run", "fig2", "--threads", "0"],
        "`--threads` needs a positive integer (got `0`)",
    ),
    (
        &["run", "fig2", "--out", "xml"],
        "unknown output format `xml` (expected text|json|csv)",
    ),
    (
        &["lint", "--frobnicate"],
        "unknown lint argument `--frobnicate`",
    ),
    (&["lint", "--trace"], "`--trace` needs a value"),
    (
        &["lint", "--threads", "0"],
        "`--threads` needs a positive integer (got `0`)",
    ),
    (
        &["lint", "--out", "csv"],
        "unknown output format `csv` (expected text|json)",
    ),
    (
        &["serve", "--frobnicate"],
        "unknown serve argument `--frobnicate`",
    ),
    (&["serve", "--memo-dir"], "`--memo-dir` needs a value"),
    (
        &["serve", "--workers", "0"],
        "`--workers` needs a positive integer (got `0`)",
    ),
    (
        &["serve", "--queue", "0"],
        "`--queue` needs a positive integer (got `0`)",
    ),
    (
        &["serve", "--max-conns", "0"],
        "`--max-conns` needs a positive integer (got `0`)",
    ),
];

#[test]
fn every_subcommand_rejects_bad_flags_with_exit_2_and_one_message() {
    for &(args, message) in USAGE_ERRORS {
        let out = Command::new(env!("CARGO_BIN_EXE_carma"))
            .args(args)
            .env("CARMA_SCALE", "quick")
            .output()
            .expect("carma runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(
            stderr,
            format!("error: {message}\n\nrun `carma help` for usage\n"),
            "{args:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    }
}
