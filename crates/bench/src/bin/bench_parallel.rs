//! BENCH-parallel: wall-clock of the pipeline's two embarrassingly
//! parallel stages — multiplier-library characterization and one
//! GA-generation batch evaluation — at 1, 2 and N threads, emitted as
//! machine-readable `BENCH_parallel.json` so the perf trajectory is
//! tracked across PRs.
//!
//! ```text
//! cargo run --release -p carma-bench --bin bench_parallel
//! ```
//!
//! The workload is the `fig2` scenario's defaults at the `CARMA_SCALE`
//! scale: its node, model, library depth and GA population. Each
//! measurement pins its width with `carma_exec::with_threads`, and
//! batch results are asserted bit-identical across widths. This is a
//! binary rather than a registry experiment because a timing is not a
//! function of its spec, so it must never reach a result cache.

use rand::rngs::StdRng;
use rand::SeedableRng;

use carma_bench::{banner, time_it};
use carma_core::scenario::{ExperimentRegistry, ScenarioSpec};
use carma_core::DesignPoint;
use carma_multiplier::MultiplierLibrary;

/// One measured series as `BENCH_parallel.json` spells it.
fn json_series(rows: &[(usize, f64)]) -> String {
    let cells: Vec<String> = rows
        .iter()
        .map(|&(threads, wall_s)| format!("{{\"threads\": {threads}, \"wall_s\": {wall_s:.6}}}"))
        .collect();
    format!("[{}]", cells.join(", "))
}

/// Speedup of the widest run over the single-thread run.
fn speedup(rows: &[(usize, f64)]) -> f64 {
    let serial = rows.first().expect("non-empty").1;
    let widest = rows.last().expect("non-empty").1;
    if widest > 0.0 {
        serial / widest
    } else {
        f64::INFINITY
    }
}

fn main() {
    if let Some(warning) = carma_core::scenario::scale_env_diagnostic() {
        carma_trace::diag(&warning);
    }
    let registry = ExperimentRegistry::standard();
    let r = ScenarioSpec::named("fig2")
        .resolve(&registry, None, None)
        .expect("the fig2 defaults resolve");
    banner(
        "Parallel-engine benchmark — library + GA-generation wall-clock",
        r.scale,
    );

    let host = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut widths = vec![1usize, 2, host];
    widths.sort_unstable();
    widths.dedup();

    // Stage 1: multiplier-library characterization (the dominant cost
    // of context construction).
    let mut library_rows: Vec<(usize, f64)> = Vec::new();
    let mut reference_len = None;
    for &threads in &widths {
        let (wall_s, lib) = carma_exec::with_threads(threads, || {
            time_it("bench.library", || {
                MultiplierLibrary::truncation_ladder(8, r.depth())
            })
        });
        let len = lib.len();
        assert_eq!(*reference_len.get_or_insert(len), len, "library forked");
        library_rows.push((threads, wall_s));
    }

    // Stage 2: one GA generation — a population-sized batch of design
    // evaluations. Each width gets its own freshly drawn point set so
    // every measurement pays the cold mapping-search cost (the GA's
    // steady state: offspring are new points); reusing one set would
    // let later widths ride the cache the first width filled and fake
    // the speedup.
    let ctx = r.context_for(r.node);
    let model = r.single_model();
    let population = r.ga.population.max(24);
    let point_set = |master: u64| -> Vec<DesignPoint> {
        let mut rng = StdRng::seed_from_u64(master);
        (0..population)
            .map(|_| DesignPoint::random(&mut rng, ctx.library().len()))
            .collect()
    };
    let mut ga_rows: Vec<(usize, f64)> = Vec::new();
    for (w, &threads) in widths.iter().enumerate() {
        let points = point_set(carma_exec::derive_seed(0xBE7C, w as u64));
        let (wall_s, _batch) = carma_exec::with_threads(threads, || {
            time_it("bench.ga_generation", || ctx.evaluate_batch(&points, model))
        });
        ga_rows.push((threads, wall_s));
    }
    // Determinism spot check across widths (near-free: the cache is
    // warm for these points now).
    let probe = point_set(carma_exec::derive_seed(0xBE7C, 0));
    let narrow = carma_exec::with_threads(1, || ctx.evaluate_batch(&probe, model));
    let wide = carma_exec::with_threads(host, || ctx.evaluate_batch(&probe, model));
    assert_eq!(narrow, wide, "batch evaluation forked across widths");

    println!("{:<24}  {:>7}  {:>8}", "stage", "threads", "wall [s]");
    for (stage, rows) in [
        ("library_characterization", &library_rows),
        ("ga_generation", &ga_rows),
    ] {
        for &(threads, wall_s) in rows {
            println!("{stage:<24}  {threads:>7}  {wall_s:>8.3}");
        }
    }
    println!();

    let note = if host == 1 {
        "host exposes a single core: wider widths just timeslice it, so speedups \
         are ~1.0 by construction, not an engine regression"
    } else {
        "speedups compare the widest width against 1 thread on this host"
    };
    let json = format!(
        "{{\n  \"host_threads\": {host},\n  \"scale\": \"{:?}\",\n  \
         \"library_characterization\": {},\n  \"ga_generation\": {},\n  \
         \"speedup_library\": {:.3},\n  \"speedup_ga\": {:.3},\n  \"note\": \"{note}\"\n}}\n",
        r.scale,
        json_series(&library_rows),
        json_series(&ga_rows),
        speedup(&library_rows),
        speedup(&ga_rows),
    );
    match std::fs::write("BENCH_parallel.json", &json) {
        Ok(()) => println!("(written to BENCH_parallel.json)"),
        Err(e) => println!("(could not write BENCH_parallel.json: {e})"),
    }
    print!("{json}");
    println!(
        "note: each GA-generation measurement evaluates a fresh cold point set \
         (the GA's steady state); speedups above are widest-vs-1-thread on this host"
    );
}
