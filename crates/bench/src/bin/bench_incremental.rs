//! BENCH-incremental: wall-clock evidence that the stage-level memo
//! turns overlapping scenarios into incremental work, emitted as
//! machine-readable `BENCH_incremental.json` so the perf trajectory is
//! tracked across PRs.
//!
//! ```text
//! cargo run --release -p carma-bench --bin bench_incremental
//! # CI smoke (forces quick scale): bench_incremental --test
//! ```
//!
//! Three measurements of the `deployment` experiment:
//!
//! - **cold**: a fresh memo environment — pays library
//!   characterization, context calibration, and every sweep cell;
//! - **warm overlap**: a fresh environment warmed by running `fig2`
//!   first — `deployment` shares its node/model, so the library and
//!   context stages (and the exact sweep cell) are served from the
//!   memo and only deployment-specific cells compute;
//! - **repeat**: the same environment again — everything hits.
//!
//! Cold and warm runs alternate for [`REPS`] rounds, each in a fresh
//! environment, and each phase reports its fastest run, so a burst of
//! contention on a shared host cannot pass for lost reuse.
//!
//! The binary asserts the warm-overlap run is at least 5× faster than
//! cold, that the memo actually served the shared stages (hit
//! counters), and that the cold and warm reports are byte-identical.

use std::sync::Arc;

use carma_core::scenario::{ExperimentRegistry, RunEnv, Scale, ScenarioSpec};

/// The floor the warm-overlap run must clear; library + context
/// characterization dominate a cold `deployment`, so reuse buys far
/// more than this in practice.
const MIN_WARM_SPEEDUP: f64 = 5.0;

/// Rounds of one cold and one warm run; each phase reports its fastest.
const REPS: usize = 5;

/// The fastest timed run, with its result.
fn fastest<R>(runs: Vec<(f64, R)>) -> (f64, R) {
    runs.into_iter()
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one run")
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    // `--test` pins quick scale for CI smoke; otherwise CARMA_SCALE
    // governs, as with every other bench binary.
    let cli_scale = if test_mode { Some(Scale::Quick) } else { None };
    let scale = cli_scale.unwrap_or_else(Scale::from_env);
    carma_bench::banner(
        "BENCH-incremental: stage-memo reuse across overlapping scenarios",
        scale,
    );

    let registry = ExperimentRegistry::standard();
    let deployment = ScenarioSpec::named("deployment");
    let fig2 = ScenarioSpec::named("fig2");

    // Every measured run goes through the shared `time_it` helper
    // under one collector, so the per-phase breakdown lands in the
    // trace summary printed at the end.
    let collector = Arc::new(carma_trace::Collector::new());
    let run = |env: &RunEnv, spec: &ScenarioSpec| {
        carma_trace::with_collector(&collector, || {
            carma_bench::time_it("bench.run", || {
                registry
                    .run_with_env(spec, cli_scale, None, env)
                    .unwrap_or_else(|e| {
                        eprintln!("error: {e}");
                        std::process::exit(2);
                    })
            })
        })
    };

    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        // Cold: fresh environment, every stage computes.
        cold.push(run(&RunEnv::standard(), &deployment));
        // Warm overlap: fig2 fills the library/context/exact-sweep
        // cells that deployment shares; only deployment-specific cells
        // compute.
        let env = RunEnv::standard();
        run(&env, &fig2);
        let (s, report) = run(&env, &deployment);
        warm.push((s, (report, env)));
    }
    let (cold_s, cold_report) = fastest(cold);
    let (warm_s, (warm_report, warm_env)) = fastest(warm);

    // Repeat: everything is memoized now.
    let (repeat_s, repeat_report) = run(&warm_env, &deployment);

    // Reuse must be real, not a timing accident: the shared stages
    // were served from the memo, and memoization never changed a bit
    // of the output.
    let stats = warm_env.memo_stats().expect("standard env is memoized");
    assert!(
        stats.library.hits >= 1,
        "deployment never hit the library fig2 built: {stats:?}"
    );
    assert!(
        stats.context.hits >= 1,
        "deployment never hit the context fig2 characterized: {stats:?}"
    );
    assert!(
        stats.cell.hits >= 1,
        "deployment never hit a sweep/GA cell: {stats:?}"
    );
    assert_eq!(
        cold_report.to_json(),
        warm_report.to_json(),
        "memo reuse changed the deployment report"
    );
    assert_eq!(
        cold_report.to_json(),
        repeat_report.to_json(),
        "a fully-memoized rerun changed the deployment report"
    );

    let speedup_warm = cold_s / warm_s.max(1e-9);
    let speedup_repeat = cold_s / repeat_s.max(1e-9);
    assert!(
        speedup_warm >= MIN_WARM_SPEEDUP,
        "warm-overlap speedup {speedup_warm:.2}x is below the {MIN_WARM_SPEEDUP}x floor \
         (cold {cold_s:.3}s, warm {warm_s:.3}s)"
    );

    let host = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"host_threads\": {host},\n  \"scale\": \"{scale:?}\",\n  \
         \"cold_s\": {cold_s:.6},\n  \"warm_s\": {warm_s:.6},\n  \
         \"repeat_s\": {repeat_s:.6},\n  \"speedup_warm\": {speedup_warm:.3},\n  \
         \"speedup_repeat\": {speedup_repeat:.3},\n  \
         \"memo_hits\": {{\"library\": {}, \"context\": {}, \"cell\": {}}},\n  \
         \"note\": \"cold runs `deployment` in a fresh memo environment; warm reruns it \
         after `fig2` shared the same environment (library + context + exact sweep \
         reused); repeat reruns it a third time (every cell hits); cold and warm are \
         each the fastest of {REPS} alternating runs in fresh environments\"\n}}\n",
        stats.library.hits, stats.context.hits, stats.cell.hits,
    );
    match std::fs::write("BENCH_incremental.json", &json) {
        Ok(()) => println!("(written to BENCH_incremental.json)"),
        Err(e) => println!("(could not write BENCH_incremental.json: {e})"),
    }
    print!("{json}");
    println!(
        "\ncold {cold_s:.3}s -> warm {warm_s:.3}s ({speedup_warm:.1}x) -> \
         repeat {repeat_s:.3}s ({speedup_repeat:.1}x)"
    );
    eprint!("\n{}", collector.snapshot().text_profile());
}
