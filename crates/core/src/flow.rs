//! The three design flows compared in the paper's evaluation:
//!
//! * [`exact_sweep`] — the baseline: NVDLA presets (64–2048 MACs) with
//!   the exact multiplier;
//! * [`approx_only_sweep`] — the same architectures with the best
//!   approximate multiplier inside an accuracy budget (*"incorporating
//!   approximate units only, while keeping the architecture
//!   unchanged"*);
//! * [`ga_cdp`] — the proposed flow: a genetic algorithm over the full
//!   chromosome with CDP fitness under FPS and accuracy constraints.
//!
//! Every GA run minimizes one [`Objective`]: the paper's service-level
//! CDP by default, the lifecycle-carbon and classical metrics the
//! `deployment` scenario can select, and the metric ablation's arms.
//! [`ga_cdp_with_objective`] is the general entry point; [`ga_cdp`] is
//! its CDP case.

use carma_carbon::{Cep, DeploymentProfile, Edp};
use carma_dnn::DnnModel;
use carma_ga::{Evaluation, GaConfig, GeneticAlgorithm, Problem};
use carma_memo::Stage;
use rand::Rng;
use serde::json::to_string as js;

use crate::context::{CarmaContext, DesignEval};
use crate::space::DesignPoint;

/// The scalar a GA run minimizes.
///
/// The paper optimizes the Carbon Delay Product under a performance
/// threshold, arguing that edge accelerators are *overdesigned*:
/// throughput beyond the application's requirement has no value. The
/// default [`Cdp`](Objective::Cdp) therefore floors the delay factor at
/// the required frame time — once a design meets the threshold, further
/// speed does not pay down carbon, and the GA converges to the
/// low-carbon threshold-hugging designs of the paper's Figure 2.
/// [`TotalCarbon`](Objective::TotalCarbon) is the full lifecycle bill —
/// die + system embodied + operational over a [`DeploymentProfile`] —
/// that lets deployment scenarios trade manufacturing carbon against
/// use-phase emissions. Scenario specs select `cdp`, `total-carbon`,
/// `cep` or `edp`; [`RawCdp`](Objective::RawCdp) and
/// [`Carbon`](Objective::Carbon) exist for the `ablation_metric` bench,
/// which quantifies how the choice changes the outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// The paper's fitness: service-level Carbon Delay Product
    /// (embodied carbon × delay floored at the FPS constraint's frame
    /// time).
    #[default]
    Cdp,
    /// Unclamped CDP: embodied carbon × actual latency.
    RawCdp,
    /// Embodied carbon alone.
    Carbon,
    /// Total lifecycle carbon of the deployed module: die + system
    /// embodied + operational (the deployment profile decides how much
    /// the use phase weighs).
    TotalCarbon,
    /// Carbon Energy Product: embodied carbon × energy per inference.
    Cep,
    /// Energy Delay Product (carbon-blind classical metric).
    Edp,
}

impl Objective {
    /// The scalar objective value of `eval` under this objective
    /// (lower is better). The deployment `profile` only matters for
    /// [`TotalCarbon`](Objective::TotalCarbon).
    pub fn value(
        self,
        eval: &DesignEval,
        constraints: &Constraints,
        profile: &DeploymentProfile,
    ) -> f64 {
        match self {
            Objective::Cdp => {
                let service_delay = eval.latency_s.max(1.0 / constraints.min_fps);
                eval.embodied.as_grams() * service_delay
            }
            Objective::RawCdp => eval.cdp,
            Objective::Carbon => eval.embodied.as_grams(),
            Objective::TotalCarbon => eval.footprint(profile).total().as_grams(),
            Objective::Cep => Cep::new(eval.embodied, eval.energy_j).value(),
            Objective::Edp => Edp::new(eval.energy_j, eval.latency_s).value(),
        }
    }

    /// The spec/CLI spelling. `raw-cdp` and `carbon` only name the
    /// ablation arms: scenario specs reject them.
    pub fn as_str(self) -> &'static str {
        match self {
            Objective::Cdp => "cdp",
            Objective::RawCdp => "raw-cdp",
            Objective::Carbon => "carbon",
            Objective::TotalCarbon => "total-carbon",
            Objective::Cep => "cep",
            Objective::Edp => "edp",
        }
    }

    /// Canonical JSON of this objective in a GA cell key: the four
    /// metric-ablation arms as `metric`s (CDP as `service-cdp`), CEP and
    /// total carbon as `objective`s. The deployment profile is named
    /// only under `total-carbon`, the one objective that reads it, so
    /// profile sweeps reuse every other objective's cells.
    fn canon(self, profile: &DeploymentProfile) -> String {
        match self {
            Objective::Cdp => "{\"metric\":\"service-cdp\"}".to_string(),
            Objective::RawCdp | Objective::Carbon | Objective::Edp => {
                format!("{{\"metric\":\"{}\"}}", self.as_str())
            }
            Objective::TotalCarbon => format!(
                "{{\"objective\":\"total-carbon\",\"profile\":{}}}",
                crate::memo::profile_canon(profile)
            ),
            Objective::Cep => "{\"objective\":\"cep\"}".to_string(),
        }
    }
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a [`Constraints`] construction was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConstraintError {
    /// `min_fps` was zero, negative, or not finite.
    NonPositiveFps(f64),
    /// `max_accuracy_drop` was outside `[0, 1]`.
    DropOutOfRange(f64),
}

impl std::fmt::Display for ConstraintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConstraintError::NonPositiveFps(v) => {
                write!(f, "min_fps must be positive and finite (got {v})")
            }
            ConstraintError::DropOutOfRange(v) => {
                write!(f, "max_accuracy_drop must be in [0, 1] (got {v})")
            }
        }
    }
}

impl std::error::Error for ConstraintError {}

/// The GA-CDP constraint set: *"thresholds for accuracy drop and
/// performance, measured in inferences per second"*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraints {
    /// Minimum throughput, frames per second.
    pub min_fps: f64,
    /// Maximum tolerated accuracy drop, in `[0, 1]` (e.g. 0.02 for the
    /// paper's 2 % class).
    pub max_accuracy_drop: f64,
}

impl Constraints {
    /// Creates a constraint set, rejecting non-positive/non-finite FPS
    /// floors and accuracy budgets outside `[0, 1]` with a descriptive
    /// [`ConstraintError`] (surfaced by the `carma` CLI's scenario
    /// validation instead of a panic).
    pub fn new(min_fps: f64, max_accuracy_drop: f64) -> Result<Self, ConstraintError> {
        if !(min_fps > 0.0 && min_fps.is_finite()) {
            return Err(ConstraintError::NonPositiveFps(min_fps));
        }
        if !(0.0..=1.0).contains(&max_accuracy_drop) {
            return Err(ConstraintError::DropOutOfRange(max_accuracy_drop));
        }
        Ok(Constraints {
            min_fps,
            max_accuracy_drop,
        })
    }

    /// Whether `eval` satisfies both constraints.
    pub fn satisfied_by(&self, eval: &DesignEval) -> bool {
        eval.fps >= self.min_fps && eval.accuracy_drop <= self.max_accuracy_drop
    }
}

/// One point of a baseline sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// MAC count of the NVDLA preset.
    pub macs: u32,
    /// Full evaluation.
    pub eval: DesignEval,
}

/// A **cell**-stage lookup: on a memo-built context, read the result
/// through the store under the cell basis (context key plus carbon
/// model) joined with `tail`; on a plain context, just compute. The
/// compute closure must be a pure function of exactly the named
/// inputs — that contract is what makes a hit bit-identical to a
/// recompute.
fn memo_cell<T, E, D, C>(ctx: &CarmaContext, tail: &str, encode: E, decode: D, compute: C) -> T
where
    T: Clone + Send + Sync + 'static,
    E: FnOnce(&T) -> String,
    D: FnOnce(&str) -> Option<T>,
    C: FnOnce() -> T,
{
    match ctx.cell_memo() {
        Some((store, basis)) => {
            let canon = format!("{{\"stage\":\"cell\",\"v\":1,{basis},{tail}}}");
            (*store.get_or_compute(Stage::Cell, &canon, encode, decode, compute)).clone()
        }
        None => compute(),
    }
}

/// Evaluates the paper's exact baseline: every NVDLA preset from 64 to
/// 2048 MACs with the exact multiplier.
pub fn exact_sweep(ctx: &CarmaContext, model: &DnnModel) -> Vec<SweepPoint> {
    let tail = format!(
        "\"kind\":\"sweep\",\"model\":{},\"select\":\"exact\"",
        js(model.name())
    );
    memo_cell(
        ctx,
        &tail,
        |points| crate::memo::encode_sweep(points),
        crate::memo::decode_sweep,
        || sweep(ctx, model, DesignPoint::nvdla_like),
    )
}

/// Evaluates one design point per NVDLA preset in parallel over the
/// `carma-exec` pool (the common shape of both baseline sweeps).
fn sweep(
    ctx: &CarmaContext,
    model: &DnnModel,
    point_for: impl Fn(u32) -> DesignPoint,
) -> Vec<SweepPoint> {
    let points: Vec<DesignPoint> = carma_dataflow::NVDLA_MAC_SIZES
        .iter()
        .map(|&macs| point_for(macs))
        .collect();
    carma_dataflow::NVDLA_MAC_SIZES
        .iter()
        .zip(ctx.evaluate_batch(&points, model))
        .map(|(&macs, eval)| SweepPoint { macs, eval })
        .collect()
}

/// Evaluates the approximate-only variant: identical architectures,
/// with the smallest multiplier whose accuracy drop fits `max_drop`.
pub fn approx_only_sweep(ctx: &CarmaContext, model: &DnnModel, max_drop: f64) -> Vec<SweepPoint> {
    let tail = format!(
        "\"kind\":\"sweep\",\"model\":{},\"select\":\"within-drop\",\"max_drop\":\"{}\"",
        js(model.name()),
        carma_memo::f64_hex(max_drop)
    );
    memo_cell(
        ctx,
        &tail,
        |points| crate::memo::encode_sweep(points),
        crate::memo::decode_sweep,
        || {
            let mult_idx = ctx.best_mult_within_drop(max_drop) as u16;
            sweep(ctx, model, |macs| {
                let mut dp = DesignPoint::nvdla_like(macs);
                dp.mult_idx = mult_idx;
                dp
            })
        },
    )
}

/// The smallest exact NVDLA preset meeting `min_fps` (the paper's
/// Fig. 3 baseline: *"the exact baseline meeting a 30 FPS threshold"*).
/// Falls back to the largest preset if none qualifies.
pub fn smallest_exact_meeting(ctx: &CarmaContext, model: &DnnModel, min_fps: f64) -> SweepPoint {
    let sweep = exact_sweep(ctx, model);
    sweep
        .iter()
        .find(|p| p.eval.fps >= min_fps)
        .cloned()
        .unwrap_or_else(|| sweep.last().expect("sweep is non-empty").clone())
}

/// The best point of a baseline sweep under `objective`, restricted to
/// points satisfying `constraints` (ties go to the earlier — smaller —
/// preset). `None` when no point qualifies.
///
/// This is how the deployment experiment threads an [`Objective`]
/// through the [`exact_sweep`]/[`approx_only_sweep`] baselines: under
/// `Objective::Cdp` it picks the threshold-hugging preset
/// ([`smallest_exact_meeting`]'s choice), under
/// [`TotalCarbon`](Objective::TotalCarbon) the preset whose lifecycle
/// bill — including use-phase energy — is lowest for the profile.
pub fn best_in_sweep<'a>(
    sweep: &'a [SweepPoint],
    objective: Objective,
    constraints: &Constraints,
    profile: &DeploymentProfile,
) -> Option<&'a SweepPoint> {
    sweep
        .iter()
        .filter(|p| constraints.satisfied_by(&p.eval))
        .min_by(|a, b| {
            let va = objective.value(&a.eval, constraints, profile);
            let vb = objective.value(&b.eval, constraints, profile);
            va.partial_cmp(&vb).expect("objective values are finite")
        })
}

/// The GA-CDP problem wrapper: minimize the objective subject to the
/// constraints (violations normalized so FPS and accuracy shortfalls
/// are commensurable).
struct GaCdpProblem<'a> {
    ctx: &'a CarmaContext,
    model: &'a DnnModel,
    constraints: Constraints,
    objective: Objective,
    profile: &'a DeploymentProfile,
}

impl Problem for GaCdpProblem<'_> {
    type Genome = DesignPoint;

    fn random_genome(&self, rng: &mut dyn Rng) -> DesignPoint {
        DesignPoint::random(rng, self.ctx.library().len())
    }

    fn crossover(&self, a: &DesignPoint, b: &DesignPoint, rng: &mut dyn Rng) -> DesignPoint {
        a.crossover(b, rng)
    }

    fn mutate(&self, genome: &mut DesignPoint, rng: &mut dyn Rng) {
        genome.mutate(rng, self.ctx.library().len());
    }

    fn evaluate_batch(&self, genomes: &[DesignPoint]) -> Vec<Evaluation> {
        // Whole-generation fan-out over the carma-exec pool: the GA's
        // runtime is almost entirely fitness evaluation, and each
        // evaluation is pure given (context, model), so parallel
        // batches reproduce the serial path bit-for-bit.
        carma_ga::par_evaluate(self, genomes)
    }

    fn evaluate(&self, genome: &DesignPoint) -> Evaluation {
        let eval = self.ctx.evaluate(genome, self.model);
        let fps_violation =
            ((self.constraints.min_fps - eval.fps) / self.constraints.min_fps).max(0.0);
        let acc_violation = if self.constraints.max_accuracy_drop > 0.0 {
            ((eval.accuracy_drop - self.constraints.max_accuracy_drop)
                / self.constraints.max_accuracy_drop)
                .max(0.0)
        } else if eval.accuracy_drop > 0.0 {
            1.0 + eval.accuracy_drop
        } else {
            0.0
        };
        Evaluation::with_violation(
            self.objective.value(&eval, &self.constraints, self.profile),
            fps_violation + acc_violation,
        )
    }
}

/// Runs the paper's GA-CDP flow and returns the best feasible design:
/// [`ga_cdp_with_objective`] under [`Objective::Cdp`].
///
/// # Panics
///
/// Panics if the GA finds no feasible design — which signals
/// contradictory constraints (e.g. an FPS floor no configuration in the
/// space reaches).
pub fn ga_cdp(
    ctx: &CarmaContext,
    model: &DnnModel,
    constraints: Constraints,
    config: GaConfig,
) -> DesignEval {
    let profile = DeploymentProfile::edge_default();
    ga_cdp_with_objective(ctx, model, constraints, config, Objective::Cdp, &profile)
}

/// The seeded GA over the full design space, minimizing `objective`
/// evaluated against `profile` (read only by
/// [`TotalCarbon`](Objective::TotalCarbon)) under `constraints`. On a
/// memo-built context the result is a cell-stage entry.
///
/// # Panics
///
/// Panics if the GA finds no feasible design (contradictory
/// constraints).
pub fn ga_cdp_with_objective(
    ctx: &CarmaContext,
    model: &DnnModel,
    constraints: Constraints,
    config: GaConfig,
    objective: Objective,
    profile: &DeploymentProfile,
) -> DesignEval {
    let tail = format!(
        "\"kind\":\"ga\",\"model\":{},\"constraints\":{},\"ga\":{},\"fitness\":{}",
        js(model.name()),
        crate::memo::constraints_canon(&constraints),
        crate::memo::ga_canon(&config),
        objective.canon(profile)
    );
    memo_cell(
        ctx,
        &tail,
        crate::memo::encode_eval,
        crate::memo::decode_eval,
        || run_ga_uncached(ctx, model, constraints, config, objective, profile),
    )
}

fn run_ga_uncached(
    ctx: &CarmaContext,
    model: &DnnModel,
    constraints: Constraints,
    config: GaConfig,
    objective: Objective,
    profile: &DeploymentProfile,
) -> DesignEval {
    let problem = GaCdpProblem {
        ctx,
        model,
        constraints,
        objective,
        profile,
    };
    // Seed the population with the NVDLA presets, both exact and with
    // the best in-budget multiplier: the GA then never loses to the
    // paper's baselines and spends its budget improving on them.
    let best_mult = ctx.best_mult_within_drop(constraints.max_accuracy_drop) as u16;
    let mut seeds = Vec::new();
    for &macs in &carma_dataflow::NVDLA_MAC_SIZES {
        let exact_dp = DesignPoint::nvdla_like(macs);
        let mut approx_dp = exact_dp;
        approx_dp.mult_idx = best_mult;
        seeds.push(exact_dp);
        seeds.push(approx_dp);
    }
    // The GA keeps only the first `population` seeds, which drops the
    // largest presets; when none of the kept ones reaches the FPS
    // floor, the smallest preset that does and its approximate twin
    // take the last two kept slots.
    let kept = config.population.min(seeds.len());
    let meets_fps = |dp: &DesignPoint| ctx.evaluate(dp, model).fps >= constraints.min_fps;
    if kept < seeds.len() && !seeds[..kept].iter().any(meets_fps) {
        if let Some(exact) = (0..seeds.len()).step_by(2).find(|&i| meets_fps(&seeds[i])) {
            seeds.copy_within(exact..exact + 2, kept - 2);
        }
    }
    let best = GeneticAlgorithm::new(problem, config).run_seeded(&seeds);
    assert!(
        best.evaluation.is_feasible(),
        "GA-CDP found no feasible design for {} at ≥{} FPS / ≤{}% drop",
        model.name(),
        constraints.min_fps,
        constraints.max_accuracy_drop * 100.0
    );
    ctx.evaluate(&best.genome, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use carma_netlist::TechNode;
    use std::sync::OnceLock;

    fn ctx7() -> &'static CarmaContext {
        static CTX: OnceLock<CarmaContext> = OnceLock::new();
        CTX.get_or_init(|| CarmaContext::reduced(TechNode::N7))
    }

    fn fast_ga() -> GaConfig {
        GaConfig::default()
            .with_population(20)
            .with_generations(15)
            .with_seed(7)
    }

    #[test]
    fn exact_sweep_shows_carbon_fps_tradeoff() {
        let sweep = exact_sweep(ctx7(), &DnnModel::resnet50());
        assert_eq!(sweep.len(), 6);
        // FPS and carbon both grow with MACs.
        for w in sweep.windows(2) {
            assert!(w[1].eval.fps > w[0].eval.fps);
            assert!(w[1].eval.embodied > w[0].eval.embodied);
        }
    }

    #[test]
    fn approx_only_cuts_carbon_at_iso_architecture() {
        let ctx = ctx7();
        let model = DnnModel::resnet50();
        let exact = exact_sweep(ctx, &model);
        let approx = approx_only_sweep(ctx, &model, 0.05);
        for (e, a) in exact.iter().zip(&approx) {
            assert_eq!(e.macs, a.macs);
            assert_eq!(e.eval.fps, a.eval.fps, "iso-architecture, same FPS");
            assert!(
                a.eval.embodied <= e.eval.embodied,
                "approx must not increase carbon"
            );
        }
        // And at least one configuration strictly improves.
        assert!(exact
            .iter()
            .zip(&approx)
            .any(|(e, a)| a.eval.embodied < e.eval.embodied));
    }

    #[test]
    fn smallest_exact_meeting_respects_threshold() {
        let ctx = ctx7();
        let model = DnnModel::resnet50();
        let p = smallest_exact_meeting(ctx, &model, 30.0);
        assert!(p.eval.fps >= 30.0);
        // And it is minimal: the next smaller preset misses the bar.
        let sweep = exact_sweep(ctx, &model);
        if let Some(pos) = sweep.iter().position(|s| s.macs == p.macs) {
            if pos > 0 {
                assert!(sweep[pos - 1].eval.fps < 30.0);
            }
        }
    }

    #[test]
    fn ga_cdp_beats_smallest_exact_baseline() {
        let ctx = ctx7();
        let model = DnnModel::resnet50();
        let constraints = Constraints::new(30.0, 0.05).unwrap();
        let baseline = smallest_exact_meeting(ctx, &model, constraints.min_fps);
        let best = ga_cdp(ctx, &model, constraints, fast_ga());
        assert!(constraints.satisfied_by(&best), "{best}");
        assert!(
            best.embodied.as_grams() <= baseline.eval.embodied.as_grams(),
            "GA-CDP ({}) must not lose to the exact baseline ({})",
            best.embodied,
            baseline.eval.embodied
        );
    }

    #[test]
    fn tighter_fps_floor_costs_carbon() {
        let ctx = ctx7();
        let model = DnnModel::resnet50();
        let relaxed = ga_cdp(
            ctx,
            &model,
            Constraints::new(10.0, 0.05).unwrap(),
            fast_ga(),
        );
        let strict = ga_cdp(
            ctx,
            &model,
            Constraints::new(60.0, 0.05).unwrap(),
            fast_ga(),
        );
        assert!(strict.fps >= 60.0 && relaxed.fps >= 10.0);
        assert!(
            strict.embodied >= relaxed.embodied,
            "meeting 60 FPS cannot be cheaper than 10 FPS"
        );
    }

    #[test]
    fn zero_drop_budget_forces_exact_multiplier() {
        let ctx = ctx7();
        let best = ga_cdp(
            ctx,
            &DnnModel::resnet50(),
            Constraints::new(20.0, 0.0).unwrap(),
            fast_ga(),
        );
        assert_eq!(best.accuracy_drop, 0.0);
    }

    #[test]
    fn objective_cdp_reproduces_ga_cdp_bit_for_bit() {
        // The golden guarantee: routing the flow through the Objective
        // enum must not perturb the paper's GA-CDP results.
        let ctx = ctx7();
        let model = DnnModel::resnet50();
        let constraints = Constraints::new(30.0, 0.05).unwrap();
        let legacy = ga_cdp(ctx, &model, constraints, fast_ga());
        let via_objective = ga_cdp_with_objective(
            ctx,
            &model,
            constraints,
            fast_ga(),
            Objective::Cdp,
            &DeploymentProfile::edge_default(),
        );
        assert_eq!(legacy, via_objective);
    }

    #[test]
    fn total_carbon_objective_finds_feasible_design() {
        let ctx = ctx7();
        let model = DnnModel::resnet50();
        let constraints = Constraints::new(30.0, 0.05).unwrap();
        let profile = DeploymentProfile::edge_default();
        let best = ga_cdp_with_objective(
            ctx,
            &model,
            constraints,
            fast_ga(),
            Objective::TotalCarbon,
            &profile,
        );
        assert!(constraints.satisfied_by(&best), "{best}");
        // Its lifecycle bill must not lose to the exact
        // threshold-hugging baseline's under the same profile.
        let baseline = smallest_exact_meeting(ctx, &model, constraints.min_fps);
        assert!(
            best.footprint(&profile).total() <= baseline.eval.footprint(&profile).total(),
            "total-carbon GA lost to the exact baseline"
        );
    }

    #[test]
    fn objective_values_match_their_newtypes() {
        let ctx = ctx7();
        let eval = ctx.evaluate(&DesignPoint::nvdla_like(256), &DnnModel::resnet50());
        let constraints = Constraints::new(30.0, 0.05).unwrap();
        let profile = DeploymentProfile::edge_default();
        assert_eq!(
            Objective::Cdp.value(&eval, &constraints, &profile),
            eval.embodied.as_grams() * eval.latency_s.max(1.0 / constraints.min_fps)
        );
        assert_eq!(
            Objective::Cep.value(&eval, &constraints, &profile),
            eval.embodied.as_grams() * eval.energy_j
        );
        assert_eq!(
            Objective::Edp.value(&eval, &constraints, &profile),
            eval.energy_j * eval.latency_s
        );
        assert_eq!(
            Objective::TotalCarbon.value(&eval, &constraints, &profile),
            eval.footprint(&profile).total().as_grams()
        );
    }

    #[test]
    fn objective_cell_key_fragments_are_pinned() {
        // A changed fragment silently orphans every stored GA cell
        // under a `--memo-dir`; these are the spellings the store holds.
        let profile = DeploymentProfile::edge_default();
        let canon = |o: Objective| o.canon(&profile);
        assert_eq!(canon(Objective::Cdp), r#"{"metric":"service-cdp"}"#);
        assert_eq!(canon(Objective::RawCdp), r#"{"metric":"raw-cdp"}"#);
        assert_eq!(canon(Objective::Carbon), r#"{"metric":"carbon"}"#);
        assert_eq!(canon(Objective::Edp), r#"{"metric":"edp"}"#);
        assert_eq!(canon(Objective::Cep), r#"{"objective":"cep"}"#);
        assert_eq!(
            canon(Objective::TotalCarbon),
            concat!(
                r#"{"objective":"total-carbon","profile":{"grid_g_per_kwh":"407db00000000000","#,
                r#""lifetime_hours":"40d9aa0000000000","utilization":"3ff0000000000000","#,
                r#""package":"monolithic","dram_gb":"4000000000000000"}}"#
            )
        );
    }

    #[test]
    fn best_in_sweep_respects_constraints_and_objective() {
        let ctx = ctx7();
        let model = DnnModel::resnet50();
        let sweep = exact_sweep(ctx, &model);
        let constraints = Constraints::new(30.0, 0.05).unwrap();
        let profile = DeploymentProfile::edge_default();
        let best = best_in_sweep(&sweep, Objective::Cdp, &constraints, &profile)
            .expect("some preset meets 30 FPS");
        assert!(best.eval.fps >= 30.0);
        // Under service-CDP the winner is the smallest preset meeting
        // the floor (extra speed does not pay down carbon).
        assert_eq!(
            best.macs,
            smallest_exact_meeting(ctx, &model, 30.0).macs,
            "service-CDP must hug the threshold"
        );
        // An unmeetable floor yields no winner.
        let impossible = Constraints::new(1e9, 0.05).unwrap();
        assert!(best_in_sweep(&sweep, Objective::Cdp, &impossible, &profile).is_none());
    }

    #[test]
    fn bad_constraints_rejected() {
        assert_eq!(
            Constraints::new(0.0, 0.01),
            Err(ConstraintError::NonPositiveFps(0.0))
        );
        assert!(matches!(
            Constraints::new(f64::NAN, 0.01),
            Err(ConstraintError::NonPositiveFps(v)) if v.is_nan()
        ));
        assert_eq!(
            Constraints::new(30.0, 1.5),
            Err(ConstraintError::DropOutOfRange(1.5))
        );
        assert!(Constraints::new(30.0, 0.02).is_ok());
    }

    #[test]
    fn small_populations_keep_a_seed_that_meets_the_fps_floor() {
        // Only the 2,048-MAC preset reaches 50 FPS on vgg16, and a
        // population of 8 keeps the 8 smallest of the 12 preset seeds.
        let constraints = Constraints::new(50.0, 0.02).unwrap();
        for seed in 1..=6 {
            let best = ga_cdp(
                ctx7(),
                &DnnModel::vgg16(),
                constraints,
                GaConfig::default()
                    .with_population(8)
                    .with_generations(4)
                    .with_seed(seed),
            );
            assert!(constraints.satisfied_by(&best), "seed {seed}: {best:?}");
        }
    }

    #[test]
    #[should_panic(expected = "no feasible design")]
    fn impossible_fps_floor_panics() {
        let _ = ga_cdp(
            ctx7(),
            &DnnModel::vgg16(),
            Constraints::new(1e6, 0.02).unwrap(),
            GaConfig::default()
                .with_population(8)
                .with_generations(3)
                .with_seed(1),
        );
    }
}
