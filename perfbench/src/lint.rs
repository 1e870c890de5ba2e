//! `library_lint`: each item is a cold `lint` run of one library
//! source — what it costs to characterize, admit and lint a library.
//! LaneSim error profiles, NSGA-II, `carma-analyze` and the import
//! parsers do all the work; the accuracy engine does none.

use std::time::Instant;

use carma_core::scenario::{
    Artifact, ExperimentRegistry, Family, LibrarySource, Report, RunEnv, ScenarioError,
    ScenarioSpec,
};

use crate::gen::{Deck, Fixtures, Item, Op};
use crate::harness::{
    closed_loop, guarded, ms_since, repeat_setup, sampled, within, Args, Digest, Outcome, Tally,
};
use crate::layers::{hit_ratio, Layers};

/// Set-ups per run (the reported `setup_s` is their median).
const SETUP_REPS: usize = 5;

/// About one timed item in this many is cross-checked against
/// `RunEnv::bare()`.
const CHECK_EVERY: u64 = 24;

/// Blocks (40 items each) the traced run covers.
const TRACED_BLOCKS: usize = 1;

/// What one lint item produced.
enum Produced {
    /// A report (rendered).
    Report(String, Box<Report>),
    /// The expected resolve-time rejection.
    Rejected,
}

/// Runs one item in `env`: a report for a run, the rejection for a
/// reject item. Anything else is the item's failure.
fn run_item(registry: &ExperimentRegistry, item: &Item, env: &RunEnv) -> Result<Produced, String> {
    match &item.op {
        Op::Run(spec) => {
            let report = guarded(|| registry.run_with_env(spec, None, Some(1), env))?
                .map_err(|e| e.to_string())?;
            Ok(Produced::Report(report.to_json(), Box::new(report)))
        }
        Op::Reject(spec) => match guarded(|| registry.run_with_env(spec, None, Some(1), env))? {
            Err(ScenarioError::LibraryRejected { .. }) => Ok(Produced::Rejected),
            Err(e) => Err(format!("expected an admission rejection, got: {e}")),
            Ok(_) => Err("corrupted library was admitted".to_string()),
        },
        other => unreachable!("lint items are runs or rejects, not {other:?}"),
    }
}

/// Every lint row of a report must carry a sound static bound; the
/// problem, if one does not.
fn unsound(produced: &Produced) -> Option<String> {
    let Produced::Report(_, report) = produced else {
        return None;
    };
    let circuits: Vec<&str> = report
        .artifacts
        .iter()
        .filter_map(|artifact| match artifact {
            Artifact::Lint(rows) => Some(rows),
            _ => None,
        })
        .flatten()
        .filter(|row| !row.sound)
        .map(|row| row.circuit.as_str())
        .collect();
    (!circuits.is_empty()).then(|| format!("unsound rows: {circuits:?}"))
}

/// Checks an item's output against the memo-off reference run.
fn cross_check(
    registry: &ExperimentRegistry,
    item: &Item,
    produced: &Produced,
) -> Result<(), String> {
    match (produced, run_item(registry, item, &RunEnv::bare())?) {
        (Produced::Report(json, _), Produced::Report(reference, _)) if *json == reference => Ok(()),
        (Produced::Rejected, Produced::Rejected) => Ok(()),
        _ => Err("output differs from RunEnv::bare()".to_string()),
    }
}

struct Setup {
    registry: ExperimentRegistry,
    deck: Deck,
}

fn set_up(seed: u64) -> (f64, Setup) {
    repeat_setup(SETUP_REPS, || {
        let fixtures = Fixtures::bundled();
        if let Err(e) = fixtures.read_all() {
            eprintln!("cannot read fixtures: {e}");
        }
        let registry = ExperimentRegistry::standard();
        // One ladder lint builds lazy process state before the
        // first timed item; it shares no memo with them.
        let warm_up = ScenarioSpec::named("lint").with_family("ladder");
        if let Err(e) =
            guarded(|| registry.run_with_env(&warm_up, None, Some(1), &RunEnv::standard()))
        {
            eprintln!("warm-up lint failed: {e}");
        }
        Setup {
            registry,
            deck: Deck::lint(seed, fixtures),
        }
    })
}

/// The timed run: whole blocks until `--seconds` has passed; every
/// report's lint rows must be sound, and the seeded sample is re-run
/// under `RunEnv::bare()` and compared byte for byte.
pub fn timed(args: &Args) -> Outcome {
    let (setup_s, Setup { registry, mut deck }) = set_up(args.seed);
    let mut tally = Tally::default();
    let mut digest = Digest::default();
    let mut to_check: Vec<(Item, Produced)> = Vec::new();
    tally.wall_s = closed_loop(&mut deck, args.duration(), |index, first_block, item| {
        let t = Instant::now();
        let result = run_item(&registry, &item, &RunEnv::standard());
        let ms = ms_since(t);
        match result {
            Ok(produced) => {
                tally.ok(item.class, ms);
                if let (true, Produced::Report(json, _)) = (first_block, &produced) {
                    digest.add(json);
                }
                match unsound(&produced) {
                    Some(problem) => tally.check(item.class, &[problem]),
                    None if sampled(args.seed, index, CHECK_EVERY) => {
                        to_check.push((item, produced));
                    }
                    None => {}
                }
            }
            Err(e) => tally.fail(item.class, &e),
        }
    });
    let metrics = tally.end_to_end(setup_s);
    digest.print("first block");
    for (item, produced) in &to_check {
        let problems: Vec<String> = cross_check(&registry, item, produced)
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

/// The traced run: the first block again; each item is timed end to
/// end, then split on a second fresh environment into admission
/// (resolve), the library stage and the lint runner on a warm library.
pub fn traced(args: &Args) -> Outcome {
    let (_, Setup { registry, mut deck }) = set_up(args.seed);
    let mut layers = Layers::default();
    let mut tally = Tally::default();
    let mut digest = Digest::default();
    for item in within(deck.take_blocks(TRACED_BLOCKS), args.duration()) {
        let t = Instant::now();
        let produced = match run_item(&registry, &item, &RunEnv::standard()) {
            Ok(produced) => produced,
            Err(e) => {
                tally.fail(item.class, &e);
                continue;
            }
        };
        let item_ms = ms_since(t);
        tally.ok(item.class, item_ms);
        if let Produced::Report(json, _) = &produced {
            digest.add(json);
        }
        let mut problems: Vec<String> = unsound(&produced).into_iter().collect();
        match carma_exec::with_threads(1, || split_item(&registry, &item, &mut layers)) {
            Ok(covered_ms) => layers.item(item_ms, covered_ms),
            Err(e) => problems.push(e),
        }
        problems.extend(cross_check(&registry, &item, &produced).err());
        tally.check(item.class, &problems);
    }
    digest.print("traced items");
    println!(
        "netlist.gate_evals over {} non-evolved library stages; nsga2.evals over {} evolved",
        layers.calls("netlist.ns_per_gate_eval"),
        layers.calls("multiplier.evolve_ms")
    );
    crate::print_layers(&layers, tally.attempted);
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        incorrect: tally.incorrect,
        metrics: layers.metrics(),
    }
}

/// Splits one lint item on a fresh environment: resolve (for imported
/// files, the admission gate), the library stage, then the lint runner
/// with the library warm. Returns the covered time.
fn split_item(
    registry: &ExperimentRegistry,
    item: &Item,
    layers: &mut Layers,
) -> Result<f64, String> {
    let (spec, imported) = match &item.op {
        Op::Run(spec) | Op::Reject(spec) => (spec, spec.family == "imported"),
        other => unreachable!("lint items are runs or rejects, not {other:?}"),
    };
    let resolve_name = if imported {
        "import.admit_ms"
    } else {
        "resolve"
    };
    let (resolved, resolve_ms) =
        layers.time(resolve_name, || spec.resolve(registry, None, Some(1)));
    let r = match (resolved, &item.op) {
        (Ok(r), Op::Run(_)) => r,
        (Err(ScenarioError::LibraryRejected { .. }), Op::Reject(_)) => return Ok(resolve_ms),
        (Err(e), _) => return Err(e.to_string()),
        (Ok(_), _) => return Err("corrupted library was admitted".to_string()),
    };
    let env = RunEnv::standard();
    let source = r.library_source();
    let stage = match &source {
        LibrarySource::Imported(_) => "import.build_ms",
        LibrarySource::Builtin(Family::Evolved) => "multiplier.evolve_ms",
        LibrarySource::Builtin(_) => "multiplier.library_ms",
    };
    let (library, library_ms) = layers.time(stage, || env.library_from(&r, &source));
    if stage == "multiplier.evolve_ms" {
        let (population, generations) = r.scale.library_nsga_budget();
        layers.count("nsga2.evals", (population * (generations + 1)) as u64);
    } else {
        // The exact entry is not simulated (its profile is zero by
        // construction); every approximate entry is characterized over
        // all 2^(2 × width) input pairs.
        let gate_evals: u64 = library
            .entries()
            .iter()
            .filter(|entry| entry.profile.error_rate > 0.0)
            .map(|entry| {
                entry.circuit.netlist().gate_count() as u64 * (1u64 << (2 * entry.circuit.width()))
            })
            .sum();
        layers.count("netlist.gate_evals", gate_evals);
        layers.sample(
            "netlist.ns_per_gate_eval",
            library_ms * 1e6 / gate_evals as f64,
        );
    }
    let (report, lint_ms) = layers.time("analyze.lint_ms", || {
        guarded(|| registry.run_with_env(spec, None, Some(1), &env))
    });
    let report = report?.map_err(|e| e.to_string())?;
    let (_, render_ms) = layers.time("report.render_ms", || report.to_json());
    let stats = env.memo_stats().expect("standard environments memoize");
    layers.count("memo.context_misses", stats.context.misses);
    layers.sample(
        "memo.library.hit_ratio",
        hit_ratio(stats.library.hits, stats.library.misses),
    );
    // The lint run resolves the spec again, so the first resolve is
    // not counted twice.
    Ok(library_ms + lint_ms + render_ms)
}
