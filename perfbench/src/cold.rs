//! `cold_scenarios`: each item is one registry run in a fresh
//! `RunEnv::standard()` at width 1 — the cost of a scenario nothing
//! has computed yet, dominated by the behavioural accuracy pass.

use std::collections::BTreeMap;
use std::time::Instant;

use carma_core::scenario::{ExperimentRegistry, ResolvedScenario, RunEnv, ScenarioSpec};
use carma_dnn::AccuracyEvaluator;
use carma_multiplier::LutMultiplier;

use crate::gen::{cold_spec, Deck, Item, Op};
use crate::harness::{
    closed_loop, guarded, ms_since, repeat_setup, sampled, within, Args, Digest, Outcome, Tally,
};
use crate::layers::{hit_ratio, Layers};

/// Set-ups per run (the reported `setup_s` is their median).
const SETUP_REPS: usize = 3;

/// About one timed item in this many is cross-checked against
/// `RunEnv::bare()`.
const CHECK_EVERY: u64 = 16;

/// Blocks (eight items each) the traced run covers.
const TRACED_BLOCKS: usize = 1;

/// Runs `spec` in a fresh standard environment at width 1 and renders
/// the report, as a cold CLI call would.
fn run_cold(registry: &ExperimentRegistry, spec: &ScenarioSpec) -> Result<String, String> {
    guarded(|| registry.run_with_env(spec, None, Some(1), &RunEnv::standard()))?
        .map(|report| report.to_json())
        .map_err(|e| e.to_string())
}

/// Compares `report` with the memo-off reference run of `spec`.
fn same_as_bare(
    registry: &ExperimentRegistry,
    spec: &ScenarioSpec,
    report: &str,
) -> Result<(), String> {
    let reference = guarded(|| registry.run_with_env(spec, None, Some(1), &RunEnv::bare()))?
        .map_err(|e| format!("RunEnv::bare() run failed: {e}"))?
        .to_json();
    if reference == report {
        Ok(())
    } else {
        Err("report differs from RunEnv::bare()".to_string())
    }
}

fn spec_of(item: &Item) -> &ScenarioSpec {
    match &item.op {
        Op::Run(spec) => spec,
        other => unreachable!("cold items are runs, not {other:?}"),
    }
}

/// A fixed single-node item run once per set-up, so lazy process
/// state is built before the first timed item (it shares no memo with
/// the timed items: each of those gets a fresh environment).
fn warm_up_spec() -> ScenarioSpec {
    let mut spec = cold_spec("fig2", "vgg16");
    spec.node = "7nm".to_string();
    spec.seed = Some(1);
    spec
}

struct Setup {
    registry: ExperimentRegistry,
    deck: Deck,
}

fn set_up(seed: u64) -> (f64, Setup) {
    repeat_setup(SETUP_REPS, || {
        let registry = ExperimentRegistry::standard();
        if let Err(e) = run_cold(&registry, &warm_up_spec()) {
            eprintln!("warm-up item failed: {e}");
        }
        Setup {
            registry,
            deck: Deck::cold(seed),
        }
    })
}

/// The timed run: whole blocks until `--seconds` has passed, then the
/// seeded sample is re-run under `RunEnv::bare()` and compared byte
/// for byte.
pub fn timed(args: &Args) -> Outcome {
    let (setup_s, Setup { registry, mut deck }) = set_up(args.seed);
    let mut tally = Tally::default();
    let mut digest = Digest::default();
    let mut to_check: Vec<(Item, String)> = Vec::new();
    tally.wall_s = closed_loop(&mut deck, args.duration(), |index, first_block, item| {
        let t = Instant::now();
        let result = run_cold(&registry, spec_of(&item));
        let ms = ms_since(t);
        match result {
            Ok(report) => {
                tally.ok(item.class, ms);
                if first_block {
                    digest.add(&report);
                }
                if sampled(args.seed, index, CHECK_EVERY) {
                    to_check.push((item, report));
                }
            }
            Err(e) => tally.fail(item.class, &e),
        }
    });
    let metrics = tally.end_to_end(setup_s);
    digest.print("first block");

    for (item, report) in &to_check {
        let problems: Vec<String> = same_as_bare(&registry, spec_of(item), report)
            .err()
            .into_iter()
            .collect();
        tally.check(item.class, &problems);
    }
    println!(
        "cross-checked {} sampled items against RunEnv::bare()",
        to_check.len()
    );
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        incorrect: tally.incorrect,
        metrics,
    }
}

/// The traced run: the first block again, item by item, with each
/// layer's public calls timed in turn and every report cross-checked.
pub fn traced(args: &Args) -> Outcome {
    let (_, Setup { registry, mut deck }) = set_up(args.seed);
    let mut layers = Layers::default();
    let mut tally = Tally::default();
    let mut digest = Digest::default();
    let mut redundant_by_class: BTreeMap<&str, u64> = BTreeMap::new();
    let (mut item_total_ms, mut dnn_total_ms) = (0.0, 0.0);
    for item in within(deck.take_blocks(TRACED_BLOCKS), args.duration()) {
        let spec = spec_of(&item);
        let t = Instant::now();
        let report = match run_cold(&registry, spec) {
            Ok(report) => report,
            Err(e) => {
                tally.fail(item.class, &e);
                continue;
            }
        };
        let item_ms = ms_since(t);
        tally.ok(item.class, item_ms);
        digest.add(&report);

        let split = carma_exec::with_threads(1, || {
            split_item(&registry, spec, &mut layers, &mut redundant_by_class)
        });
        let mut problems = Vec::new();
        match split {
            Ok(split) => {
                layers.item(item_ms, split.covered_ms);
                item_total_ms += item_ms;
                dnn_total_ms += split.dnn_ms;
                if split.report != report {
                    problems.push("report differs between fresh environments".to_string());
                }
            }
            Err(e) => problems.push(e),
        }
        problems.extend(same_as_bare(&registry, spec, &report).err());
        tally.check(item.class, &problems);
    }
    digest.print("traced items");
    println!(
        "dnn.reference_ms + dnn.accuracy_ms, once per context miss: {:.1}% of item time",
        100.0 * dnn_total_ms / item_total_ms.max(1e-9)
    );
    println!(
        "memo.context_redundant by class: {}",
        redundant_by_class
            .iter()
            .map(|(class, n)| format!("{class}={n}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    crate::print_layers(&layers, tally.attempted);
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        incorrect: tally.incorrect,
        metrics: layers.metrics(),
    }
}

/// One cold item split into layer calls.
struct Split {
    /// Item time the timed layer calls account for.
    covered_ms: f64,
    /// Reference pass plus accuracy calls, once per context miss.
    dnn_ms: f64,
    /// The runner's report.
    report: String,
}

/// Splits one cold item into its memo stages on a second fresh
/// environment — library miss, context misses, then the runner with
/// both warm — and re-runs the accuracy engine's calls directly for
/// each context miss.
fn split_item(
    registry: &ExperimentRegistry,
    spec: &ScenarioSpec,
    layers: &mut Layers,
    redundant_by_class: &mut BTreeMap<&str, u64>,
) -> Result<Split, String> {
    let env = RunEnv::standard();
    let (resolved, resolve_ms) = layers.time("resolve", || spec.resolve(registry, None, Some(1)));
    let r = resolved.map_err(|e| e.to_string())?;
    let source = r.library_source();
    let (library, library_ms) =
        layers.time("multiplier.library_ms", || env.library_from(&r, &source));
    for &node in &r.nodes {
        drop(env.context_for(&r, node));
    }
    let (report, runner_ms) = layers.time("flow.runner_ms", || {
        guarded(|| registry.run_with_env(spec, None, Some(1), &env))
    });
    let report = report?.map_err(|e| e.to_string())?;
    let (json, render_ms) = layers.time("report.render_ms", || report.to_json());

    let stats = env.memo_stats().expect("standard environments memoize");
    // One library and one evaluator per item: every context miss past
    // the first recomputes accuracy drops that do not depend on node.
    let misses = stats.context.misses;
    let redundant = misses.saturating_sub(1);
    layers.count("memo.context_misses", misses);
    layers.count("memo.context_redundant", redundant);
    *redundant_by_class.entry(class_of(&r)).or_default() += redundant;
    layers.sample(
        "memo.library.hit_ratio",
        hit_ratio(stats.library.hits, stats.library.misses),
    );
    layers.sample(
        "memo.context.hit_ratio",
        hit_ratio(stats.context.hits, stats.context.misses),
    );
    layers.sample(
        "memo.cell.hit_ratio",
        hit_ratio(stats.cell.hits, stats.cell.misses),
    );

    let (dnn_ms, compile_ms) = if misses > 0 {
        let (dnn_ms, compile_ms, macs) = accuracy_split(&r, &library, layers);
        layers.count("dnn.macs", misses * macs);
        (misses as f64 * dnn_ms, misses as f64 * compile_ms)
    } else {
        (0.0, 0.0)
    };
    // The context stage counts as covered only through the accuracy
    // calls that explain it, once per miss.
    Ok(Split {
        covered_ms: resolve_ms + library_ms + dnn_ms + compile_ms + runner_ms + render_ms,
        dnn_ms,
        report: json,
    })
}

fn class_of(r: &ResolvedScenario) -> &'static str {
    if r.nodes.len() > 1 {
        "three_node"
    } else {
        "single_node"
    }
}

/// Re-runs one context characterization through the accuracy engine's
/// public calls: `AccuracyEvaluator::new` (dataset + exact reference
/// pass), then `LutMultiplier::compile` and `accuracy_drop` per
/// approximate entry. Returns the reference + accuracy time, the LUT
/// compile time, and the MACs the engine ran.
fn accuracy_split(
    r: &ResolvedScenario,
    library: &carma_multiplier::MultiplierLibrary,
    layers: &mut Layers,
) -> (f64, f64, u64) {
    let config = r.evaluator();
    let (evaluator, reference_ms) =
        layers.time("dnn.reference_ms", || AccuracyEvaluator::new(config));
    let mut approximate = 0u64;
    let (mut accuracy_ms, mut compile_ms) = (0.0, 0.0);
    for entry in library.entries() {
        if entry.profile.error_rate == 0.0 {
            continue;
        }
        approximate += 1;
        let (lut, lut_ms) = layers.time("multiplier.lut_compile_ms", || {
            LutMultiplier::compile(&entry.circuit)
        });
        let (drop, ms) = layers.time("dnn.accuracy_ms", || evaluator.accuracy_drop(&lut));
        std::hint::black_box(drop);
        compile_ms += lut_ms;
        accuracy_ms += ms;
    }
    // The reference pass and each approximate entry run every sample
    // through the network once.
    let macs = evaluator.network().macs_per_inference() * config.samples as u64 * (approximate + 1);
    layers.sample(
        "dnn.ns_per_mac",
        (reference_ms + accuracy_ms) * 1e6 / macs as f64,
    );
    (reference_ms + accuracy_ms, compile_ms, macs)
}
