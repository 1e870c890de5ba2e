//! The CARMA benchmark: one command, three workloads, each in its own
//! process, each a closed loop with one request in flight and the
//! `carma-exec` pool pinned to one thread.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_scenarios --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! seed's first items again with each layer's public calls timed and
//! prints the per-layer metrics. Human-readable detail goes to stdout
//! first; the last line is the JSON result. See README.md.

mod cold;
mod gen;
mod harness;
mod layers;
mod lint;
mod serve;
mod stats;

use harness::{Args, Outcome};
use layers::{Layers, COVERAGE_FLOOR_PCT};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["cold_scenarios", "library_lint", "serve_sweep"];

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) if WORKLOADS.contains(&args.workload.as_str()) => args,
        Ok(args) => fail(&format!(
            "unknown workload `{}` (known: {})",
            args.workload,
            WORKLOADS.join(", ")
        )),
        Err(e) => fail(&e),
    };
    // A panicking operation is counted as failed, not fatal (see
    // README.md); one line per panic keeps its cost independent of
    // RUST_BACKTRACE.
    std::panic::set_hook(Box::new(|info| eprintln!("panic: {info}")));
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let pinned = harness::pin_to_one_cpu();
    println!(
        "workload {} seed {} seconds {} trace {} (width 1, {available} CPUs available, {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pinned.map_or("unpinned".to_string(), |cpu| format!("pinned to CPU {cpu}"))
    );
    let outcome: Outcome = match (args.workload.as_str(), args.trace) {
        ("cold_scenarios", false) => cold::timed(&args),
        ("cold_scenarios", true) => cold::traced(&args),
        ("library_lint", false) => lint::timed(&args),
        ("library_lint", true) => lint::traced(&args),
        ("serve_sweep", false) => serve::timed(&args),
        _ => serve::traced(&args),
    };
    if outcome.metrics.is_empty() {
        fail("the run produced no metrics");
    }
    println!("{}", outcome.json());
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

/// Prints the per-layer metrics with their bases, and flags coverage
/// below the floor.
pub(crate) fn print_layers(layers: &Layers, items: usize) {
    for (name, value, unit) in layers.metrics() {
        let calls = layers.calls(name);
        let base = if calls > 0 {
            format!("median of {calls} calls")
        } else if layers.counted(name) > 0 {
            format!("total over {items} items")
        } else {
            String::new()
        };
        println!("layer {name}: {value:.6} {unit} {base}");
    }
    let coverage = layers.coverage_pct();
    if coverage < COVERAGE_FLOOR_PCT {
        println!("FLAG: timed layer calls cover {coverage:.1}% of item time (floor {COVERAGE_FLOOR_PCT}%)");
    }
}
