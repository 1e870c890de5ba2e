//! Trace-layer invariants: tracing must observe the pipeline without
//! perturbing it.
//!
//! - the *structure* of a traced run (span name-paths and their
//!   counts) is identical at every execution width — parallelism moves
//!   spans across threads, never adds or removes them;
//! - a traced run's report is byte-identical to an untraced one
//!   (tracing is pure observation; `provenance` is attached by the CLI,
//!   never by the registry, and is excluded from every report sink);
//! - the memo stages annotate their spans with hit/miss outcomes;
//! - a context miss explains its time: the accuracy reference pass and
//!   the library pass are child spans of `memo.context`, each compiled
//!   multiplier has one `accuracy.tabulate` span under them, and the
//!   `dnn.macs` counter records the work they did.
//! - the GA engines count their genome evaluations at the source:
//!   `nsga2.evals` and `ga.evals` equal what the run's budgets imply;
//! - the perf cache counts the summaries it stores (`perf.summaries`):
//!   the distinct designs a run priced, the same at every width.

use std::sync::Arc;

use carma_core::scenario::{ExperimentRegistry, RunEnv, Scale, ScenarioSpec};
use carma_dnn::QuantizedNetwork;
use carma_trace::Collector;

/// A small fig2 variant: same stages and span structure as the paper
/// run, a fraction of the cost.
fn small_fig2() -> ScenarioSpec {
    let mut spec = ScenarioSpec::named("fig2").with_scale(Scale::Quick);
    spec.library_depth = Some(2);
    spec.accuracy_samples = Some(32);
    spec
}

/// One cold traced run at the given width; returns the trace and the
/// rendered report.
fn traced_run(threads: usize) -> (carma_trace::Trace, String) {
    let collector = Arc::new(Collector::new());
    let env = RunEnv::standard();
    let report = carma_trace::with_collector(&collector, || {
        ExperimentRegistry::standard()
            .run_with_env(&small_fig2(), None, Some(threads), &env)
            .expect("scenario runs")
    });
    (collector.snapshot(), report.to_json())
}

#[test]
fn span_structure_is_thread_invariant() {
    let (serial, serial_report) = traced_run(1);
    let (wide, wide_report) = traced_run(8);
    assert_eq!(
        serial_report, wide_report,
        "thread width changed the report"
    );
    assert_eq!(
        serial.structure_signature(),
        wide.structure_signature(),
        "thread width changed the span structure"
    );
}

#[test]
fn tracing_never_changes_the_report() {
    let plain = ExperimentRegistry::standard()
        .run_with_env(&small_fig2(), None, Some(2), &RunEnv::standard())
        .expect("scenario runs");
    let (_, traced_report) = traced_run(2);
    assert_eq!(
        plain.to_json(),
        traced_report,
        "tracing changed the report bytes"
    );
}

#[test]
fn memo_spans_carry_hit_and_miss_annotations() {
    let collector = Arc::new(Collector::new());
    let env = RunEnv::standard();
    let registry = ExperimentRegistry::standard();
    carma_trace::with_collector(&collector, || {
        // Cold run: every memo stage misses. Repeat: everything hits.
        for _ in 0..2 {
            registry
                .run_with_env(&small_fig2(), None, Some(1), &env)
                .expect("scenario runs");
        }
    });
    let trace = collector.snapshot();
    for stage in ["memo.library", "memo.context", "memo.cell"] {
        assert!(
            trace.spans.iter().any(|s| s.name == stage),
            "no `{stage}` span recorded"
        );
    }
    let annotations: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.name.starts_with("memo."))
        .filter_map(|s| s.annotation)
        .collect();
    assert!(
        annotations.contains(&"miss"),
        "cold memo stages must record `miss`: {annotations:?}"
    );
    assert!(
        annotations.contains(&"hit"),
        "repeat memo stages must record `hit`: {annotations:?}"
    );
}

#[test]
fn context_miss_has_accuracy_child_spans_and_a_mac_counter() {
    let collector = Arc::new(Collector::new());
    let registry = ExperimentRegistry::standard();
    let spec = small_fig2();
    carma_trace::with_collector(&collector, || {
        registry
            .run_with_env(&spec, None, Some(1), &RunEnv::standard())
            .expect("scenario runs")
    });
    let trace = collector.snapshot();
    let misses: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.name == "memo.context" && s.annotation == Some("miss"))
        .collect();
    assert!(!misses.is_empty(), "a cold run misses the context stage");
    for miss in &misses {
        for child in ["accuracy.reference", "accuracy.library"] {
            let under = trace
                .spans
                .iter()
                .filter(|s| s.name == child && s.parent == miss.id)
                .count();
            assert_eq!(under, 1, "`{child}` spans under one `memo.context` miss");
        }
    }

    // macs_per_inference × samples × (approximate entries + 1), per miss.
    let resolved = spec.resolve(&registry, None, None).expect("resolves");
    let evaluator = resolved.evaluator();
    let per_inference =
        QuantizedNetwork::synthetic(evaluator.input_hw, evaluator.classes, evaluator.seed)
            .macs_per_inference();
    let approximate = resolved
        .library()
        .entries()
        .iter()
        .filter(|e| e.profile.error_rate != 0.0)
        .count() as u64;
    let expected =
        misses.len() as u64 * per_inference * evaluator.samples as u64 * (approximate + 1);
    assert_eq!(
        counted(&trace, "dnn.macs"),
        Some(expected),
        "dnn.macs counter"
    );
}

#[test]
fn each_compiled_multiplier_has_one_tabulate_span_at_any_width() {
    let resolved = small_fig2()
        .resolve(&ExperimentRegistry::standard(), None, None)
        .expect("resolves");
    let approximate = resolved
        .library()
        .entries()
        .iter()
        .filter(|e| e.profile.error_rate != 0.0)
        .count();
    for threads in [1, 8] {
        let (trace, _) = traced_run(threads);
        let misses = trace
            .spans
            .iter()
            .filter(|s| s.name == "memo.context" && s.annotation == Some("miss"))
            .count();
        assert!(misses > 0, "a cold run misses the context stage");
        let parent_name = |parent: u64| {
            trace
                .spans
                .iter()
                .find(|s| s.id == parent)
                .map_or("(none)", |s| s.name)
        };
        let under = |pass: &str| {
            trace
                .spans
                .iter()
                .filter(|s| s.name == "accuracy.tabulate" && parent_name(s.parent) == pass)
                .count()
        };
        let total = trace
            .spans
            .iter()
            .filter(|s| s.name == "accuracy.tabulate")
            .count();
        // The exact multiplier under the reference pass, and each
        // approximate entry under the library pass, once per miss.
        assert_eq!(under("accuracy.reference"), misses, "threads = {threads}");
        assert_eq!(
            under("accuracy.library"),
            misses * approximate,
            "threads = {threads}"
        );
        assert_eq!(total, misses * (approximate + 1), "threads = {threads}");
    }
}

/// The value of counter `name` in `trace` (`None` if never counted).
fn counted(trace: &carma_trace::Trace, name: &str) -> Option<u64> {
    trace
        .counters
        .iter()
        .find(|(counter, _)| *counter == name)
        .map(|&(_, v)| v)
}

/// One cold traced registry run of `spec` at width 1.
fn cold_trace(spec: &ScenarioSpec) -> carma_trace::Trace {
    let collector = Arc::new(Collector::new());
    carma_trace::with_collector(&collector, || {
        ExperimentRegistry::standard()
            .run_with_env(spec, None, Some(1), &RunEnv::standard())
            .expect("scenario runs")
    });
    collector.snapshot()
}

#[test]
fn evolved_lint_counts_every_nsga2_evaluation() {
    let spec = ScenarioSpec::named("lint")
        .with_scale(Scale::Quick)
        .with_family("evolved");
    let trace = cold_trace(&spec);
    // The initial population, then one offspring batch per generation.
    let (population, generations) = Scale::Quick.library_nsga_budget();
    let expected = (population * (generations + 1)) as u64;
    assert_eq!(expected, 112);
    assert_eq!(counted(&trace, "nsga2.evals"), Some(expected));
    assert_eq!(counted(&trace, "ga.evals"), None, "lint runs no GA-CDP");
}

#[test]
fn fig2_counts_every_ga_evaluation() {
    let spec = small_fig2();
    let trace = cold_trace(&spec);
    // One GA-CDP cell per FPS threshold: the initial population, then
    // every generation re-evaluates all but its elites.
    let resolved = spec
        .resolve(&ExperimentRegistry::standard(), None, None)
        .expect("resolves");
    let ga = resolved.ga;
    let per_run = ga.population + ga.generations * (ga.population - ga.elites.min(ga.population));
    let expected = (resolved.fps_thresholds.len() * per_run) as u64;
    assert_eq!(counted(&trace, "ga.evals"), Some(expected));
}

#[test]
fn perf_summaries_count_distinct_designs_at_any_width() {
    // One summary per distinct (accelerator, model) the GA-CDP cells
    // priced; concurrent misses on one key are stored and counted once.
    for threads in [1, 8] {
        let (trace, _) = traced_run(threads);
        assert_eq!(
            counted(&trace, "perf.summaries"),
            Some(163),
            "threads = {threads}"
        );
    }
    // A repeat in the same environment hits every cell and prices none.
    let env = RunEnv::standard();
    let registry = ExperimentRegistry::standard();
    registry
        .run_with_env(&small_fig2(), None, Some(1), &env)
        .expect("scenario runs");
    let collector = Arc::new(Collector::new());
    carma_trace::with_collector(&collector, || {
        registry
            .run_with_env(&small_fig2(), None, Some(1), &env)
            .expect("scenario runs")
    });
    assert_eq!(counted(&collector.snapshot(), "perf.summaries"), None);
}
