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
//! The times are reported, not gated: wall-clock ratios flake on a
//! shared host. The binary asserts deterministic counters instead:
//! the warm environment missed the library and context stages exactly
//! once each (fig2's misses), every warm `deployment` run did no DNN
//! work (`dnn.macs` = 0), every cold run did exactly one accuracy
//! characterization's worth, the repeat priced no design
//! (`perf.summaries` = 0), and the cold, warm and repeat reports are
//! byte-identical. Each phase's `dnn.macs` and `perf.summaries` are
//! recorded in the JSON: what a warm run still computes is the GA
//! cells' performance-model misses.

use std::sync::Arc;

use carma_core::scenario::{ExperimentRegistry, RunEnv, Scale, ScenarioSpec};
use carma_trace::Trace;

/// Rounds of one cold and one warm run; each phase reports its fastest.
const REPS: usize = 5;

/// The fastest timed run, with its result.
fn fastest<R>(runs: Vec<(f64, R)>) -> (f64, R) {
    runs.into_iter()
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one run")
}

/// Counter `name` of one run's trace (0 when nothing was counted).
fn counted(trace: &Trace, name: &str) -> u64 {
    trace
        .counters
        .iter()
        .find(|(counter, _)| *counter == name)
        .map_or(0, |&(_, value)| value)
}

/// The JSON object of one phase's work counters.
fn counters_json(trace: &Trace) -> String {
    format!(
        "{{\"dnn.macs\": {}, \"perf.summaries\": {}}}",
        counted(trace, "dnn.macs"),
        counted(trace, "perf.summaries")
    )
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

    // One context miss runs every sample through the network once for
    // the exact reference and once per approximate library entry.
    let resolved = deployment
        .resolve(&registry, cli_scale, None)
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
    let evaluator = resolved.evaluator();
    let approximate = resolved
        .library()
        .entries()
        .iter()
        .filter(|e| e.profile.error_rate != 0.0)
        .count() as u64;
    let cold_macs = evaluator.macs_per_inference() * evaluator.samples as u64 * (approximate + 1);

    // Every measured run goes through the shared `time_it` helper under
    // a collector of its own, so its counters describe that run alone.
    let run = |env: &RunEnv, spec: &ScenarioSpec| {
        let collector = Arc::new(carma_trace::Collector::new());
        let (s, report) = carma_trace::with_collector(&collector, || {
            carma_bench::time_it("bench.run", || {
                registry
                    .run_with_env(spec, cli_scale, None, env)
                    .unwrap_or_else(|e| {
                        eprintln!("error: {e}");
                        std::process::exit(2);
                    })
            })
        });
        (s, (report, collector.snapshot()))
    };

    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        // Cold: fresh environment, every stage computes.
        let (s, (report, trace)) = run(&RunEnv::standard(), &deployment);
        assert_eq!(
            counted(&trace, "dnn.macs"),
            cold_macs,
            "a cold deployment characterizes accuracy exactly once"
        );
        cold.push((s, (report, trace)));
        // Warm overlap: fig2 fills the library/context/exact-sweep
        // cells that deployment shares; only deployment-specific cells
        // compute.
        let env = RunEnv::standard();
        run(&env, &fig2);
        let (s, (report, trace)) = run(&env, &deployment);
        assert_eq!(
            counted(&trace, "dnn.macs"),
            0,
            "a warm deployment reran the accuracy pass fig2 already paid for"
        );
        warm.push((s, (report, trace, env)));
    }
    let (cold_s, (cold_report, cold_trace)) = fastest(cold);
    let (warm_s, (warm_report, warm_trace, warm_env)) = fastest(warm);

    // Repeat: everything is memoized now.
    let (repeat_s, (repeat_report, repeat_trace)) = run(&warm_env, &deployment);
    assert_eq!(
        counted(&repeat_trace, "perf.summaries"),
        0,
        "a fully-memoized rerun priced a design"
    );

    // Reuse must be real, not a timing accident: fig2's library and
    // context misses were the environment's only ones, and memoization
    // never changed a bit of the output.
    let stats = warm_env.memo_stats().expect("standard env is memoized");
    assert_eq!(
        (stats.library.misses, stats.context.misses),
        (1, 1),
        "deployment recomputed a library or context fig2 built: {stats:?}"
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

    let host = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"host_threads\": {host},\n  \"scale\": \"{scale:?}\",\n  \
         \"cold_s\": {cold_s:.6},\n  \"warm_s\": {warm_s:.6},\n  \
         \"repeat_s\": {repeat_s:.6},\n  \"speedup_warm\": {speedup_warm:.3},\n  \
         \"speedup_repeat\": {speedup_repeat:.3},\n  \
         \"memo_hits\": {{\"library\": {}, \"context\": {}, \"cell\": {}}},\n  \
         \"counters\": {{\"cold\": {}, \"warm\": {}, \"repeat\": {}}},\n  \
         \"note\": \"cold runs `deployment` in a fresh memo environment; warm reruns it \
         after `fig2` shared the same environment (library + context + exact sweep \
         reused); repeat reruns it a third time (every cell hits); cold and warm are \
         each the fastest of {REPS} alternating runs in fresh environments; counters are \
         each phase's MACs of accuracy work and (accelerator, model) summaries the \
         performance model stored\"\n}}\n",
        stats.library.hits,
        stats.context.hits,
        stats.cell.hits,
        counters_json(&cold_trace),
        counters_json(&warm_trace),
        counters_json(&repeat_trace),
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
    eprint!("\ncold run:\n{}", cold_trace.text_profile());
    eprint!("\nwarm run:\n{}", warm_trace.text_profile());
}
