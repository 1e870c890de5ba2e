//! Cross-crate determinism suite for the `carma-exec` engine: every
//! parallelized evaluation layer — multiplier-library
//! characterization, NSGA-II library evolution, the accuracy
//! evaluator, and the full GA-CDP flow — must produce **bit-identical**
//! results at 1 thread and at 8 threads.
//!
//! Thread counts are pinned with `carma_exec::with_threads` (a scoped,
//! per-thread override of `CARMA_THREADS`), so these tests are
//! race-free under the parallel libtest harness and independent of the
//! environment they run in.

use carma_core::flow::{self, Constraints};
use carma_core::CarmaContext;
use carma_dnn::accuracy::{AccuracyEvaluator, EvaluatorConfig};
use carma_ga::{GaConfig, Nsga2Config};
use carma_multiplier::{
    ApproxGenome, ErrorProfile, LibraryConfig, MultiplierCircuit, MultiplierLibrary, ReductionKind,
};
use carma_netlist::TechNode;

/// An order-preserving, bit-exact fingerprint of a library: one tuple
/// per entry, floats captured as raw bits.
fn library_fingerprint(lib: &MultiplierLibrary) -> Vec<(String, u64, u64, u64)> {
    lib.entries()
        .iter()
        .map(|e| {
            (
                e.name.clone(),
                e.transistors(),
                e.profile.mred.to_bits(),
                e.profile.error_rate.to_bits(),
            )
        })
        .collect()
}

#[test]
fn library_characterization_is_thread_invariant() {
    let run = |depth| {
        (
            library_fingerprint(&MultiplierLibrary::truncation_ladder(8, depth)),
            library_fingerprint(&MultiplierLibrary::classic_families(8, depth)),
        )
    };
    let narrow = carma_exec::with_threads(1, || run(2));
    let wide = carma_exec::with_threads(8, || run(2));
    assert_eq!(narrow, wide);
}

#[test]
fn nsga2_library_evolution_is_thread_invariant() {
    let config = LibraryConfig {
        width: 4,
        max_truncation: 2,
        max_prunes: 6,
        nsga: Nsga2Config::default()
            .with_population(12)
            .with_generations(5)
            .with_seed(0xD17E),
        ..LibraryConfig::default()
    };
    let narrow = carma_exec::with_threads(1, || {
        library_fingerprint(&MultiplierLibrary::evolve(config))
    });
    let wide = carma_exec::with_threads(8, || {
        library_fingerprint(&MultiplierLibrary::evolve(config))
    });
    assert_eq!(narrow, wide);
}

#[test]
fn error_profile_sweeps_are_thread_invariant() {
    let base = MultiplierCircuit::generate(8, ReductionKind::Dadda);
    let approx = ApproxGenome::truncation(2, 2).apply(&base);
    let exhaustive_1 = carma_exec::with_threads(1, || ErrorProfile::exhaustive(&approx));
    let exhaustive_8 = carma_exec::with_threads(8, || ErrorProfile::exhaustive(&approx));
    assert_eq!(exhaustive_1, exhaustive_8);
}

#[test]
fn accuracy_evaluation_is_thread_invariant() {
    let drops = || {
        let eval = AccuracyEvaluator::new(EvaluatorConfig {
            samples: 32,
            ..EvaluatorConfig::default()
        });
        let lib = MultiplierLibrary::truncation_ladder(8, 2);
        eval.evaluate_library(&lib)
            .into_iter()
            .map(|(_, drop)| drop.to_bits())
            .collect::<Vec<u64>>()
    };
    let narrow = carma_exec::with_threads(1, drops);
    let wide = carma_exec::with_threads(8, drops);
    assert_eq!(narrow, wide);
}

/// The headline guarantee: the entire GA-CDP flow — context
/// construction (library characterization + accuracy buckets),
/// baseline sweeps and the constrained GA with its batch-parallel
/// fitness — reproduces bit-for-bit across thread counts.
#[test]
fn ga_cdp_flow_is_thread_invariant() {
    let run = || {
        let ctx = CarmaContext::reduced(TechNode::N7);
        let model = carma_dnn::DnnModel::resnet50();
        let exact: Vec<u64> = flow::exact_sweep(&ctx, &model)
            .into_iter()
            .map(|p| p.eval.cdp.to_bits())
            .collect();
        let best = flow::ga_cdp(
            &ctx,
            &model,
            Constraints::new(30.0, 0.05).unwrap(),
            GaConfig::default()
                .with_population(16)
                .with_generations(8)
                .with_seed(0x0DE7),
        );
        (
            exact,
            best.cdp.to_bits(),
            best.fps.to_bits(),
            best.embodied.as_grams().to_bits(),
            best.mult_idx,
            best.multiplier,
        )
    };
    let narrow = carma_exec::with_threads(1, run);
    let wide = carma_exec::with_threads(8, run);
    assert_eq!(narrow, wide);
}

/// The scenario API inherits the guarantee: a registry-driven run
/// (context construction from the resolved spec, the experiment
/// driver, artifact assembly) is bit-identical at 1 and 8 threads —
/// including when the spec itself pins `threads`, which must override
/// the ambient width without changing results.
#[test]
fn scenario_registry_run_is_thread_invariant() {
    use carma_core::scenario::{ExperimentRegistry, ScenarioSpec};

    let registry = ExperimentRegistry::standard();
    let spec = {
        let mut s = ScenarioSpec::named("table1").with_nodes(["7nm"]);
        s.library_depth = Some(2);
        s.accuracy_samples = Some(48);
        s
    };
    let run = || registry.run(&spec).expect("spec runs");
    let narrow = carma_exec::with_threads(1, run);
    let wide = carma_exec::with_threads(8, run);
    assert_eq!(narrow, wide);
    assert_eq!(narrow.to_json(), wide.to_json());

    let mut pinned = spec.clone();
    pinned.threads = Some(2);
    let via_spec = registry.run(&pinned).expect("pinned spec runs");
    assert_eq!(via_spec.artifacts, narrow.artifacts);
}

/// The deployment experiment (GA per grid × lifetime cell under the
/// total-carbon objective) inherits the guarantee too, down to the
/// bytes of its CSV sink — `carma run deployment --out csv` is
/// bit-identical at `CARMA_THREADS=1` and `8`.
#[test]
fn deployment_experiment_is_thread_invariant() {
    use carma_core::scenario::{DeploymentSpec, ExperimentRegistry, GaSpec, ScenarioSpec};

    let registry = ExperimentRegistry::standard();
    let spec = {
        let mut s = ScenarioSpec::named("deployment")
            .with_model("resnet50")
            .with_ga(GaSpec {
                population: Some(10),
                generations: Some(5),
                ..GaSpec::default()
            })
            .with_seed(0xCA4B)
            .with_deployment(DeploymentSpec {
                lifetime_hours: Some(26_280.0),
                ..DeploymentSpec::default()
            });
        s.library_depth = Some(2);
        s.accuracy_samples = Some(48);
        s
    };
    let run = || registry.run(&spec).expect("spec runs");
    let narrow = carma_exec::with_threads(1, run);
    let wide = carma_exec::with_threads(8, run);
    assert_eq!(narrow, wide);
    assert_eq!(
        narrow.to_csv(),
        wide.to_csv(),
        "CSV sink forked across widths"
    );
    assert_eq!(narrow.to_json(), wide.to_json());
}
