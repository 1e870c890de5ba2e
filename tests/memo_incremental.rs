//! Integration suite for the stage-level memo: memoization must be
//! invisible in the results (bit-identical reports memo-on, memo-off,
//! warm or cold, with or without a disk tier), visible in the stats
//! (the right stages hit when scenarios overlap), and robust to a
//! poisoned disk tier (corrupt entries are recomputed, never served).
//!
//! Every test shrinks the spec (`library_depth` 2, `accuracy_samples`
//! 32) so cold runs stay fast; the keys under test are exactly the
//! ones the full-size experiments use.

use std::path::PathBuf;

use carma_core::scenario::{ExperimentRegistry, RunEnv, Scale, ScenarioSpec};
use carma_core::{MemoLayer, MemoStats, Report};

/// A small fig2 variant: same stages and key structure as the paper
/// run, a fraction of the cost.
fn small_fig2() -> ScenarioSpec {
    let mut spec = ScenarioSpec::named("fig2").with_scale(Scale::Quick);
    spec.library_depth = Some(2);
    spec.accuracy_samples = Some(32);
    spec
}

fn run(env: &RunEnv, spec: &ScenarioSpec) -> Report {
    ExperimentRegistry::standard()
        .run_with_env(spec, None, None, env)
        .expect("scenario runs")
}

/// Per-stage (hits, misses) deltas between two stats snapshots.
fn delta(before: MemoStats, after: MemoStats) -> [(u64, u64); 3] {
    [
        (
            after.library.hits - before.library.hits,
            after.library.misses - before.library.misses,
        ),
        (
            after.context.hits - before.context.hits,
            after.context.misses - before.context.misses,
        ),
        (
            after.cell.hits - before.cell.hits,
            after.cell.misses - before.cell.misses,
        ),
    ]
}

fn stats(env: &RunEnv) -> MemoStats {
    env.memo_stats().expect("memoized environment")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("carma-memo-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn reports_are_identical_memo_on_memo_off_and_warm() {
    let spec = small_fig2();
    let bare = run(&RunEnv::bare(), &spec);
    let env = RunEnv::standard();
    let cold = run(&env, &spec);
    let warm = run(&env, &spec);

    assert_eq!(bare.to_json(), cold.to_json(), "memo-on changed the report");
    assert_eq!(bare.to_csv(), cold.to_csv(), "memo-on changed the CSV");
    assert_eq!(
        cold.to_json(),
        warm.to_json(),
        "a warm rerun changed the report"
    );
    assert_eq!(cold.to_csv(), warm.to_csv(), "a warm rerun changed the CSV");

    // The warm rerun must have been served entirely from the memo.
    let s = stats(&env);
    assert!(
        s.library.hits >= 1 && s.context.hits >= 1 && s.cell.hits >= 1,
        "{s:?}"
    );
}

#[test]
fn disk_tier_survives_process_boundaries_bit_exactly() {
    let dir = scratch_dir("warm");
    let spec = small_fig2();

    // "Process one": cold run, everything computed and mirrored to disk.
    let cold_env = RunEnv::with_memo(MemoLayer::with_disk(dir.clone()).expect("open memo dir"));
    let cold = run(&cold_env, &spec);
    drop(cold_env);

    // "Process two": a fresh layer over the same directory must serve
    // every stage from disk and reproduce the report byte for byte.
    let warm_env = RunEnv::with_memo(MemoLayer::with_disk(dir.clone()).expect("reopen memo dir"));
    let warm = run(&warm_env, &spec);
    let s = stats(&warm_env);

    assert_eq!(
        cold.to_json(),
        warm.to_json(),
        "disk warm run changed the report"
    );
    assert_eq!(
        cold.to_csv(),
        warm.to_csv(),
        "disk warm run changed the CSV"
    );
    for (stage, c) in [
        ("library", s.library),
        ("context", s.context),
        ("cell", s.cell),
    ] {
        assert_eq!(c.misses, 0, "{stage} recomputed on a warm disk: {s:?}");
        assert!(c.hits >= 1, "{stage} never hit: {s:?}");
        assert!(
            c.disk_hits >= 1,
            "{stage} hits bypassed the disk tier: {s:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn threads_and_restated_defaults_do_not_move_keys() {
    let spec = small_fig2();
    let env = RunEnv::standard();
    run(&env, &spec); // warm every stage

    // Same spec at a different thread width: pure hits.
    let before = stats(&env);
    ExperimentRegistry::standard()
        .run_with_env(&spec, None, Some(2), &env)
        .expect("threaded run");
    let d = delta(before, stats(&env));
    for (stage, (hits, misses)) in ["library", "context", "cell"].iter().zip(d) {
        assert_eq!(misses, 0, "thread width moved the {stage} key");
        assert!(hits >= 1, "{stage} saw no reuse at width 2");
    }

    // Restating the experiment's own defaults explicitly (node, model)
    // must land on the same keys.
    let registry = ExperimentRegistry::standard();
    let resolved = spec.resolve(&registry, None, None).expect("spec resolves");
    let mut restated = small_fig2();
    restated.node = resolved.node.to_string();
    restated.model = resolved.single_model().name().to_string();
    let before = stats(&env);
    run(&env, &restated);
    let d = delta(before, stats(&env));
    for (stage, (_, misses)) in ["library", "context", "cell"].iter().zip(d) {
        assert_eq!(misses, 0, "restated defaults moved the {stage} key");
    }
}

#[test]
fn result_shaping_fields_move_exactly_their_stages() {
    let env = RunEnv::standard();
    run(&env, &small_fig2()); // warm base keys

    // A different model reuses library and context; only cells move.
    let before = stats(&env);
    run(&env, &small_fig2().with_model("resnet50"));
    let [(_, lib_miss), (_, ctx_miss), (_, cell_miss)] = delta(before, stats(&env));
    assert_eq!(lib_miss, 0, "model choice must not move the library key");
    assert_eq!(ctx_miss, 0, "model choice must not move the context key");
    assert!(cell_miss >= 1, "a new model must recompute its cells");

    // More calibration samples reuse the library; context and cells move.
    let mut more_samples = small_fig2();
    more_samples.accuracy_samples = Some(48);
    let before = stats(&env);
    run(&env, &more_samples);
    let [(_, lib_miss), (_, ctx_miss), _] = delta(before, stats(&env));
    assert_eq!(lib_miss, 0, "sample count must not move the library key");
    assert!(
        ctx_miss >= 1,
        "a new calibration must recompute the context"
    );

    // A deeper library moves every stage.
    let mut deeper = small_fig2();
    deeper.library_depth = Some(3);
    let before = stats(&env);
    run(&env, &deeper);
    let [(_, lib_miss), (_, ctx_miss), (_, cell_miss)] = delta(before, stats(&env));
    assert!(lib_miss >= 1, "a new depth must rebuild the library");
    assert!(
        ctx_miss >= 1,
        "a new library must recharacterize the context"
    );
    assert!(cell_miss >= 1, "a new library must recompute the cells");
}

#[test]
fn node_sweep_characterizes_accuracy_once() {
    // Accuracy drops do not depend on the node: table1's three node
    // contexts share one context entry (one miss, two hits), while
    // each node still computes its own cells.
    let mut spec = ScenarioSpec::named("table1").with_scale(Scale::Quick);
    spec.library_depth = Some(2);
    spec.accuracy_samples = Some(32);
    let env = RunEnv::standard();
    let report = run(&env, &spec);
    let s = stats(&env);
    assert_eq!((s.context.hits, s.context.misses), (2, 1), "{s:?}");
    assert_eq!(
        report.to_json(),
        run(&RunEnv::bare(), &spec).to_json(),
        "sharing the context changed the report"
    );
}

#[test]
fn poisoned_disk_entries_are_recomputed_never_served() {
    let dir = scratch_dir("poison");
    let spec = small_fig2();

    let cold_env = RunEnv::with_memo(MemoLayer::with_disk(dir.clone()).expect("open memo dir"));
    let baseline = run(&cold_env, &spec);
    drop(cold_env);

    // Corrupt every persisted entry: truncated JSON, garbage bytes,
    // and an empty file, round-robin.
    let mut poisoned = 0usize;
    for stage in ["library", "context", "cell"] {
        let entries = std::fs::read_dir(dir.join(stage)).expect("stage dir exists");
        for (i, entry) in entries.enumerate() {
            let path = entry.expect("dir entry").path();
            let garbage = match i % 3 {
                0 => r#"{"v":1,"drops":["#,
                1 => "\x00\x01not json at all",
                _ => "",
            };
            std::fs::write(&path, garbage).expect("poison entry");
            poisoned += 1;
        }
    }
    assert!(poisoned >= 3, "expected entries in every stage dir");

    let env = RunEnv::with_memo(MemoLayer::with_disk(dir.clone()).expect("reopen memo dir"));
    let report = run(&env, &spec);
    let s = stats(&env);

    assert_eq!(
        baseline.to_json(),
        report.to_json(),
        "a poisoned disk tier leaked into the report"
    );
    for (stage, c) in [
        ("library", s.library),
        ("context", s.context),
        ("cell", s.cell),
    ] {
        assert_eq!(c.disk_hits, 0, "{stage} served a poisoned entry: {s:?}");
        assert!(c.misses >= 1, "{stage} never recomputed: {s:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
