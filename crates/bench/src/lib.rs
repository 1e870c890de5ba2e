//! # carma-bench
//!
//! Benchmark binaries for the CARMA stack, each emitting a committed
//! `BENCH_*.json`:
//!
//! - `bench_parallel`: library characterization and one GA generation
//!   at 1, 2 and N threads;
//! - `bench_incremental`: stage-memo reuse across overlapping
//!   scenarios;
//! - `bench_serve`: `carma-serve` miss latency and hit throughput.
//!
//! The paper's figures, tables and ablations are registry experiments:
//! run them with `carma run <name>` (the README's experiment index
//! lists every name).
//!
//! ```text
//! cargo run --release -p carma-bench --bin bench_parallel
//! ```

use carma_core::scenario::Scale;

/// Prints a standard experiment banner.
pub fn banner(name: &str, scale: Scale) {
    print!("{}", carma_core::scenario::banner_text(name, scale));
}

/// Times `f` and returns `(seconds, result)` — the one wall-clock
/// helper every bench binary shares instead of hand-rolling
/// `Instant::now()` pairs. The measured section also runs under a
/// `carma-trace` span, so when a collector is installed (see
/// [`carma_trace::with_collector`]) each timed phase shows up in the
/// trace summary with the same name.
pub fn time_it<R>(name: &'static str, f: impl FnOnce() -> R) -> (f64, R) {
    let start = std::time::Instant::now();
    let result = {
        let _span = carma_trace::span!(name);
        f()
    };
    (start.elapsed().as_secs_f64(), result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_to_quick() {
        // The test environment does not set CARMA_SCALE.
        if std::env::var("CARMA_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Quick);
        }
    }

    #[test]
    fn quick_ga_is_smaller_than_full() {
        assert!(Scale::Quick.ga().population <= Scale::Full.ga().population);
        assert!(Scale::Quick.ga().generations <= Scale::Full.ga().generations);
    }
}
