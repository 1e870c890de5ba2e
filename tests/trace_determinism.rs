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
//!   the library pass are child spans of `memo.context`, and the
//!   `dnn.macs` counter records the work they did.

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
    let counted = trace
        .counters
        .iter()
        .find(|(name, _)| *name == "dnn.macs")
        .map(|&(_, v)| v);
    assert_eq!(counted, Some(expected), "dnn.macs counter");
}
