//! Per-layer measurements of a traced run: per-call times of each
//! layer's public functions, work counts, and the coverage of item
//! time by those calls. No collector is installed; every number comes
//! from timing calls made by the benchmark itself.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::median;

/// Every per-layer metric, `(name, unit, better)`. `_ms` / `_us` /
/// `ns_per_` values are medians per call; counts are totals over the
/// traced items; ratios are hits ÷ lookups. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: [(&str, &str, &str); 29] = [
    ("import.admit_ms", "ms", "lower"),
    ("import.build_ms", "ms", "lower"),
    ("multiplier.library_ms", "ms", "lower"),
    ("multiplier.evolve_ms", "ms", "lower"),
    ("nsga2.evals", "count", "lower"),
    ("netlist.gate_evals", "count", "lower"),
    ("netlist.ns_per_gate_eval", "ns", "lower"),
    ("analyze.lint_ms", "ms", "lower"),
    ("dnn.reference_ms", "ms", "lower"),
    ("multiplier.lut_compile_ms", "ms", "lower"),
    ("dnn.accuracy_ms", "ms", "lower"),
    ("dnn.macs", "count", "lower"),
    ("dnn.ns_per_mac", "ns", "lower"),
    ("memo.context_misses", "count", "lower"),
    ("memo.context_redundant", "count", "lower"),
    ("memo.library.hit_ratio", "ratio", "higher"),
    ("memo.context.hit_ratio", "ratio", "higher"),
    ("memo.cell.hit_ratio", "ratio", "higher"),
    ("flow.runner_ms", "ms", "lower"),
    ("ga.evals", "count", "lower"),
    ("ga.us_per_eval", "us", "lower"),
    ("report.render_ms", "ms", "lower"),
    ("serve.hit_ms", "ms", "lower"),
    ("serve.imported_hit_ms", "ms", "lower"),
    ("serve.miss_ms", "ms", "lower"),
    ("serve.batch_ms", "ms", "lower"),
    ("serve.hit_ratio", "ratio", "higher"),
    ("serve.overhead_ms", "ms", "lower"),
    ("trace.coverage_pct", "%", "higher"),
];

/// Coverage below this share of item time flags a hidden layer.
pub const COVERAGE_FLOOR_PCT: f64 = 90.0;

/// Accumulates one traced run.
#[derive(Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, u64>,
    values: BTreeMap<&'static str, f64>,
    covered_ms: f64,
    item_ms: f64,
}

impl Layers {
    /// Runs `f`, records its wall time in ms as one call of `name`, and
    /// returns the result with the time.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let result = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.sample(name, ms);
        (result, ms)
    }

    /// Records one per-call value of `name`.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Adds `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Sets a whole-run value (a ratio) of `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Counts `name` so far (for printing its base).
    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Records one item: its end-to-end time and the part of it the
    /// timed layer calls account for.
    pub fn item(&mut self, item_ms: f64, covered_ms: f64) {
        self.item_ms += item_ms;
        self.covered_ms += covered_ms;
    }

    /// Share of item time covered by timed layer calls, percent.
    pub fn coverage_pct(&self) -> f64 {
        if self.item_ms > 0.0 {
            100.0 * self.covered_ms / self.item_ms
        } else {
            0.0
        }
    }

    /// Calls recorded under `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.samples.get(name).map_or(0, Vec::len)
    }

    /// Every per-layer metric in [`PER_LAYER`] order, 0 where the
    /// layer did no work.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let value = if name == "trace.coverage_pct" {
                    self.coverage_pct()
                } else if let Some(v) = self.values.get(name) {
                    *v
                } else if let Some(n) = self.counts.get(name) {
                    *n as f64
                } else {
                    median(self.samples.get(name).map_or(&[][..], Vec::as_slice))
                };
                (name, value, unit)
            })
            .collect()
    }
}

/// Hits ÷ lookups, 0 with no lookups.
pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_cover_every_layer_and_default_to_zero() {
        let mut layers = Layers::default();
        layers.sample("flow.runner_ms", 3.0);
        layers.sample("flow.runner_ms", 1.0);
        layers.sample("flow.runner_ms", 2.0);
        layers.count("dnn.macs", 5);
        layers.count("dnn.macs", 7);
        layers.set("serve.hit_ratio", 0.5);
        layers.item(10.0, 9.5);
        let metrics: BTreeMap<&str, f64> = layers
            .metrics()
            .into_iter()
            .map(|(name, value, _)| (name, value))
            .collect();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(metrics["flow.runner_ms"], 2.0);
        assert_eq!(metrics["dnn.macs"], 12.0);
        assert_eq!(metrics["serve.hit_ratio"], 0.5);
        assert_eq!(metrics["trace.coverage_pct"], 95.0);
        assert_eq!(metrics["dnn.reference_ms"], 0.0);
    }
}
