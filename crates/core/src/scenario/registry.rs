//! The experiment registry: stable names → runner functions. Each
//! runner turns a resolved [`ScenarioSpec`] into a [`Report`]: the
//! same bytes at a given seed and scale whatever the thread count, so
//! a report is a pure function of its resolved spec.

use rand::rngs::StdRng;
use rand::SeedableRng;

use carma_analyze::{lint, static_error_bound, LintOptions, LintProfile, LintReport, Severity};
use carma_carbon::{CarbonModel, GridMix, YieldModel};
use carma_multiplier::{MultiplierCircuit, MultiplierLibrary, ReductionKind};

use super::artifact::{
    Artifact, DeploymentRow, FamilyRow, GridRow, LintFindingRow, LintRow, MetricRow, Report,
    SearchRow, YieldRow,
};
use super::spec::{Family, LibrarySource, ResolvedScenario, ScenarioSpec};
use super::{Scale, ScenarioError};
use crate::context::{CarmaContext, DesignEval};
use crate::experiments::{fig2_scatter_with, fig3_with, reduction_table_with, Fig2Row};
use crate::flow::{
    best_in_sweep, exact_sweep, ga_cdp, ga_cdp_with_objective, smallest_exact_meeting, Objective,
};
use crate::memo::MemoLayer;
use crate::space::DesignPoint;
use carma_memo::MemoStats;
use carma_netlist::{Netlist, TechNode};

/// How an experiment's runner wants its evaluation context(s).
#[derive(Clone, Copy)]
pub enum Runner {
    /// Gets the primary-node context, built by the registry.
    Single(fn(&ResolvedScenario, &CarmaContext) -> Report),
    /// Gets one context per node of the sweep.
    PerNode(fn(&ResolvedScenario, &[CarmaContext]) -> Report),
    /// Builds its own contexts through the run environment (mutates
    /// carbon models, times construction, or compares libraries).
    Custom(fn(&ResolvedScenario, &RunEnv) -> Report),
}

/// The execution environment of one scenario run: where contexts come
/// from. The environment either reads construction through a
/// [`MemoLayer`] — so overlapping scenarios share library
/// characterization, context calibration and per-experiment cells — or
/// builds everything directly (`bare`, the memo-off reference).
///
/// Cloning is cheap and shares the underlying store, which is how the
/// CLI and `carma-serve` read hit/miss statistics after a run.
#[derive(Clone, Default)]
pub struct RunEnv {
    memo: Option<MemoLayer>,
}

impl RunEnv {
    /// The default environment: a fresh in-memory memo per
    /// construction. Even with no `--memo-dir`, one run's scenarios
    /// share stages (e.g. `table1`'s three node contexts share one
    /// library and one accuracy characterization).
    pub fn standard() -> Self {
        RunEnv {
            memo: Some(MemoLayer::in_memory()),
        }
    }

    /// Memoization off: every context built from scratch. The
    /// reference arm of the determinism suite.
    pub fn bare() -> Self {
        RunEnv { memo: None }
    }

    /// An environment over an explicit layer (e.g. one with a disk
    /// tier, or shared across a server's workers).
    pub fn with_memo(memo: MemoLayer) -> Self {
        RunEnv { memo: Some(memo) }
    }

    /// Hit/miss counters per stage; `None` when memoization is off.
    pub fn memo_stats(&self) -> Option<MemoStats> {
        self.memo.as_ref().map(MemoLayer::stats)
    }

    /// The scenario's context on `node`, read through the memo when
    /// one is configured.
    pub fn context_for(&self, r: &ResolvedScenario, node: TechNode) -> CarmaContext {
        match &self.memo {
            Some(layer) => layer.context(r, node),
            None => r.context_for(node),
        }
    }

    /// The context of an explicit library `source` on the scenario's
    /// primary node.
    pub fn context_from(&self, r: &ResolvedScenario, source: &LibrarySource) -> CarmaContext {
        match &self.memo {
            Some(layer) => layer.context_from(r, source, r.node),
            None => CarmaContext::with_parts(r.node, r.library_from(source), r.evaluator()),
        }
    }

    /// One context per node of the sweep, in `r.nodes` order.
    pub fn node_contexts(&self, r: &ResolvedScenario) -> Vec<CarmaContext> {
        match &self.memo {
            Some(layer) => carma_exec::par_map(&r.nodes, |&node| layer.context(r, node)),
            None => r.node_contexts(),
        }
    }

    /// The scenario's multiplier library of any `source` — builtin
    /// family or imported file — read through the memo's library stage
    /// when one is configured. Imported sources hit on the content
    /// hash of the file bytes, so a rename reuses the characterization.
    pub fn library_from(
        &self,
        r: &ResolvedScenario,
        source: &LibrarySource,
    ) -> std::sync::Arc<MultiplierLibrary> {
        match &self.memo {
            Some(layer) => layer.library_from(r, source),
            None => std::sync::Arc::new(r.library_from(source)),
        }
    }
}

/// One registered experiment.
#[derive(Clone, Copy)]
pub struct ExperimentInfo {
    /// Stable registry name (`carma run <name>`).
    pub name: &'static str,
    /// Banner title.
    pub title: &'static str,
    /// One-line name → figure/table mapping shown by `carma list`.
    pub index: &'static str,
    /// Whether the experiment sweeps all nodes by default.
    pub multi_node: bool,
    /// Whether a `zoo` model grid is accepted.
    pub multi_model: bool,
    /// Whether the model defaults to the paper zoo instead of VGG16.
    pub zoo_default: bool,
    /// Whether the runner honors a non-default `objective` and a
    /// `deployment` block. Specs setting either on an unaware
    /// experiment are rejected at resolve time rather than silently
    /// running under a different fitness.
    pub objective_aware: bool,
    /// The runner.
    pub runner: Runner,
}

/// Registry of every experiment reachable from `carma run` and
/// `carma serve`.
pub struct ExperimentRegistry {
    entries: Vec<ExperimentInfo>,
}

impl Default for ExperimentRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

impl ExperimentRegistry {
    /// The standard registry: the paper's figures, table and five
    /// ablations, the `deployment` total-carbon sweep, and the `lint`
    /// static analysis.
    pub fn standard() -> Self {
        let entries = vec![
            ExperimentInfo {
                name: "fig2",
                title: "Figure 2 — carbon vs FPS, VGG16 @ 7 nm",
                index: "Figure 2 (left): carbon-vs-performance scatter + GA-CDP points",
                multi_node: false,
                multi_model: false,
                zoo_default: false,
                objective_aware: false,
                runner: Runner::Single(run_fig2),
            },
            ExperimentInfo {
                name: "table1",
                title: "Figure 2 table — carbon reduction from approximation only",
                index: "Figure 2 (table): avg/peak reduction per node × accuracy class",
                multi_node: true,
                multi_model: false,
                zoo_default: false,
                objective_aware: false,
                runner: Runner::PerNode(run_table1),
            },
            ExperimentInfo {
                name: "fig3",
                title: "Figure 3 — normalized embodied carbon across DNNs and nodes",
                index: "Figure 3: exact / approx-only / GA-CDP bars, 4 DNNs × 3 nodes",
                multi_node: true,
                multi_model: true,
                zoo_default: true,
                objective_aware: false,
                runner: Runner::PerNode(run_fig3),
            },
            ExperimentInfo {
                name: "ablation_family",
                title: "Ablation — multiplier library family (VGG16 @ 7 nm, ≥30 FPS, ≤2%)",
                index: "Ablation: multiplier-library family (ladder/classic/evolved)",
                multi_node: false,
                multi_model: false,
                zoo_default: false,
                objective_aware: false,
                runner: Runner::Custom(run_ablation_family),
            },
            ExperimentInfo {
                name: "ablation_grid",
                title: "Ablation — fab grid mix vs embodied carbon (VGG16 @ 7 nm)",
                index: "Ablation: fab grid carbon intensity sensitivity",
                multi_node: false,
                multi_model: false,
                zoo_default: false,
                objective_aware: false,
                runner: Runner::Custom(run_ablation_grid),
            },
            ExperimentInfo {
                name: "ablation_metric",
                title: "Ablation — GA fitness metric (VGG16 @ 7 nm, ≥30 FPS, ≤2%)",
                index: "Ablation: GA fitness metric (service-CDP/raw-CDP/carbon/EDP)",
                multi_node: false,
                multi_model: false,
                zoo_default: false,
                objective_aware: false,
                runner: Runner::Single(run_ablation_metric),
            },
            ExperimentInfo {
                name: "ablation_search",
                title: "Ablation — GA vs random search (VGG16 @ 7 nm, ≥30 FPS, ≤2%)",
                index: "Ablation: GA vs uniform random search at equal budget",
                multi_node: false,
                multi_model: false,
                zoo_default: false,
                objective_aware: false,
                runner: Runner::Single(run_ablation_search),
            },
            ExperimentInfo {
                name: "ablation_yield",
                title: "Ablation — yield model vs GA-CDP savings (VGG16)",
                index: "Ablation: yield model (Poisson/Murphy/neg-binomial) robustness",
                multi_node: true,
                multi_model: false,
                zoo_default: false,
                objective_aware: false,
                runner: Runner::Custom(run_ablation_yield),
            },
            ExperimentInfo {
                name: "deployment",
                title: "Deployment scenarios — total carbon across grid mixes and lifetimes",
                index:
                    "Deployment: grid-mix × lifetime total-carbon sweep (embodied vs operational)",
                multi_node: false,
                multi_model: false,
                zoo_default: false,
                objective_aware: true,
                runner: Runner::Single(run_deployment),
            },
            ExperimentInfo {
                name: "lint",
                title: "Static analysis — structural lints and sound error bounds",
                index: "Static analysis: netlist lints + static-vs-measured error bound per family",
                multi_node: false,
                multi_model: false,
                zoo_default: false,
                objective_aware: false,
                runner: Runner::Custom(run_lint),
            },
        ];
        ExperimentRegistry { entries }
    }

    /// Every registered experiment, in listing order.
    pub fn entries(&self) -> &[ExperimentInfo] {
        &self.entries
    }

    /// The registered names, in listing order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries.iter().map(|e| e.name)
    }

    /// Looks an experiment up by name.
    pub fn get(&self, name: &str) -> Option<&ExperimentInfo> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Validates + resolves `spec` and runs its experiment (no CLI
    /// overrides).
    pub fn run(&self, spec: &ScenarioSpec) -> Result<Report, ScenarioError> {
        self.run_with(spec, None, None)
    }

    /// [`ExperimentRegistry::run`] with CLI-level scale/thread
    /// overrides (precedence: spec field > CLI flag > environment).
    /// The resolved thread count, if any, pins the `carma-exec` pool
    /// for the whole run — results are thread-count invariant either
    /// way.
    pub fn run_with(
        &self,
        spec: &ScenarioSpec,
        cli_scale: Option<Scale>,
        cli_threads: Option<usize>,
    ) -> Result<Report, ScenarioError> {
        self.run_with_env(spec, cli_scale, cli_threads, &RunEnv::standard())
    }

    /// [`ExperimentRegistry::run_with`] in an explicit [`RunEnv`] —
    /// the full entry point: the CLI passes a disk-backed environment
    /// under `--memo-dir`, `carma-serve` a process-wide one shared by
    /// its workers, and the determinism suite [`RunEnv::bare`].
    pub fn run_with_env(
        &self,
        spec: &ScenarioSpec,
        cli_scale: Option<Scale>,
        cli_threads: Option<usize>,
        env: &RunEnv,
    ) -> Result<Report, ScenarioError> {
        let _run_span = carma_trace::span!("run", "{}", spec.experiment);
        let resolved = {
            let _span = carma_trace::span!("resolve");
            spec.resolve(self, cli_scale, cli_threads)?
        };
        let info = self
            .get(&resolved.name)
            .expect("resolved from this registry");
        let runner = info.runner;
        let go = || match runner {
            Runner::Single(f) => {
                let ctx = {
                    let _span = carma_trace::span!("contexts");
                    env.context_for(&resolved, resolved.node)
                };
                let _span = carma_trace::span!("runner", "{}", resolved.name);
                f(&resolved, &ctx)
            }
            Runner::PerNode(f) => {
                let ctxs = {
                    let _span = carma_trace::span!("contexts");
                    env.node_contexts(&resolved)
                };
                let _span = carma_trace::span!("runner", "{}", resolved.name);
                f(&resolved, &ctxs)
            }
            Runner::Custom(f) => {
                let _span = carma_trace::span!("runner", "{}", resolved.name);
                f(&resolved, env)
            }
        };
        Ok(match resolved.threads {
            Some(n) => carma_exec::with_threads(n, go),
            None => go(),
        })
    }
}

fn report(r: &ResolvedScenario, artifacts: Vec<Artifact>, notes: Vec<String>) -> Report {
    Report {
        experiment: r.name.clone(),
        title: r.title.clone(),
        scale: r.scale,
        artifacts,
        notes,
        provenance: None,
    }
}

fn saving_pct(best: &DesignEval, baseline_g: f64) -> f64 {
    100.0 * (1.0 - best.embodied.as_grams() / baseline_g)
}

fn run_fig2(r: &ResolvedScenario, ctx: &CarmaContext) -> Report {
    let model = r.single_model();
    let rows = fig2_scatter_with(ctx, model, r.ga, &r.accuracy_classes, &r.fps_thresholds);

    // The paper's headline observations, restated from the data.
    let mut notes = Vec::new();
    let exact: Vec<&Fig2Row> = rows.iter().filter(|row| row.series == "exact").collect();
    let span = exact.last().expect("non-empty sweep").carbon_g
        / exact.first().expect("non-empty sweep").carbon_g;
    notes.push(format!(
        "carbon span across exact sweep: {span:.1}x (paper: \"exponential increase\")"
    ));
    for &fps in &r.fps_thresholds {
        let ga = rows
            .iter()
            .find(|row| row.series == format!("ga-cdp@{fps}"))
            .expect("ga row");
        let baseline = exact
            .iter()
            .find(|row| row.fps >= fps)
            .unwrap_or_else(|| exact.last().expect("non-empty"));
        notes.push(format!(
            "GA-CDP @ {fps} FPS: {:.3} g vs exact baseline {:.3} g → {:.1}% reduction",
            ga.carbon_g,
            baseline.carbon_g,
            100.0 * (1.0 - ga.carbon_g / baseline.carbon_g)
        ));
    }
    report(r, vec![Artifact::Fig2(rows)], notes)
}

fn run_table1(r: &ResolvedScenario, ctxs: &[CarmaContext]) -> Report {
    let model = r.single_model();
    let mut rows = Vec::new();
    for ctx in ctxs {
        rows.extend(reduction_table_with(ctx, model, &r.accuracy_classes));
    }
    report(
        r,
        vec![Artifact::Reduction(rows)],
        vec!["(paper peak maximum: 12.75% at 14 nm / 2.0%)".to_string()],
    )
}

fn run_fig3(r: &ResolvedScenario, ctxs: &[CarmaContext]) -> Report {
    let models = r.models();
    let rows = fig3_with(ctxs, r.ga, &models, r.constraints);
    let best = rows
        .iter()
        .min_by(|a, b| a.ga_cdp.partial_cmp(&b.ga_cdp).expect("finite"))
        .expect("non-empty");
    let notes = vec![format!(
        "largest GA-CDP saving: {:.1}% ({} @ {}); paper: up to 65% for VGG16, 30–70% overall",
        100.0 * (1.0 - best.ga_cdp),
        best.model,
        best.node
    )];
    report(r, vec![Artifact::Fig3(rows)], notes)
}

fn run_ablation_family(r: &ResolvedScenario, env: &RunEnv) -> Report {
    let model = r.single_model();

    let mut rows = Vec::new();
    // One arm per builtin family, built by the same construction a
    // `family = "…"` spec resolves to; a scenario that imported a
    // library gets a fourth arm so the external pool is compared
    // against all three builtins in one table.
    let mut arms = vec![
        LibrarySource::Builtin(Family::Ladder),
        LibrarySource::Builtin(Family::Classic),
        LibrarySource::Builtin(Family::Evolved),
    ];
    if let Some(imported @ LibrarySource::Imported(_)) = &r.source {
        arms.push(imported.clone());
    }
    for source in arms {
        let ctx = env.context_from(r, &source);
        let units = ctx.library().len();
        let baseline = smallest_exact_meeting(&ctx, model, r.constraints.min_fps);
        let best = ga_cdp(&ctx, model, r.constraints, r.ga);
        rows.push(FamilyRow {
            library: source.as_str().to_string(),
            units,
            multiplier: best.multiplier.clone(),
            fps: best.fps,
            carbon_g: best.embodied.as_grams(),
            saving_pct: saving_pct(&best, baseline.eval.embodied.as_grams()),
        });
    }
    let notes = vec![
        "expected: richer pools (classic, evolved) match or beat the ladder —\n\
         the Pareto front of available (area, accuracy) points can only widen"
            .to_string(),
    ];
    report(r, vec![Artifact::Family(rows)], notes)
}

fn run_ablation_grid(r: &ResolvedScenario, env: &RunEnv) -> Report {
    let model = r.single_model();
    // One context serves every arm: the library characterization,
    // accuracy reference run and perf cache are grid-independent, and
    // swapping the carbon model is deterministic — rows are identical
    // to what one fresh context per arm would give. (Each arm still
    // addresses its own memo cells: the cell-key prefix follows the
    // carbon model.)
    let mut ctx = env.context_for(r, r.node);
    let mut rows = Vec::new();
    for grid in [
        GridMix::Coal,
        GridMix::TaiwanGrid,
        GridMix::WorldAverage,
        GridMix::Renewable,
    ] {
        ctx.set_carbon_model(CarbonModel::for_node(r.node).with_grid(grid));
        let baseline = smallest_exact_meeting(&ctx, model, r.constraints.min_fps);
        let best = ga_cdp(&ctx, model, r.constraints, r.ga);
        rows.push(GridRow {
            grid: grid.to_string(),
            ci_g_per_kwh: grid.grams_per_kwh(),
            exact_g: baseline.eval.embodied.as_grams(),
            ga_cdp_g: best.embodied.as_grams(),
            saving_pct: saving_pct(&best, baseline.eval.embodied.as_grams()),
        });
    }
    let notes = vec![
        "expected: absolute carbon scales strongly with CI_fab; the *relative*\n\
         GA-CDP saving persists even on a renewable grid (area still shrinks)"
            .to_string(),
    ];
    report(r, vec![Artifact::Grid(rows)], notes)
}

fn run_ablation_metric(r: &ResolvedScenario, ctx: &CarmaContext) -> Report {
    let model = r.single_model();
    let baseline = smallest_exact_meeting(ctx, model, r.constraints.min_fps);

    let mut rows = Vec::new();
    for (name, objective) in [
        ("service-CDP", Objective::Cdp),
        ("raw CDP", Objective::RawCdp),
        ("carbon only", Objective::Carbon),
        ("EDP", Objective::Edp),
    ] {
        let best = ga_cdp_with_objective(ctx, model, r.constraints, r.ga, objective, &r.deployment);
        rows.push(MetricRow {
            fitness: name.to_string(),
            macs: best.accelerator.macs(),
            fps: best.fps,
            carbon_g: best.embodied.as_grams(),
            energy_mj: best.energy_j * 1000.0,
            saving_pct: saving_pct(&best, baseline.eval.embodied.as_grams()),
        });
    }
    let notes = vec![
        "expected: service-CDP ≈ carbon-only (threshold-hugging, max saving);\n\
         raw CDP and EDP buy speed/efficiency with embodied carbon"
            .to_string(),
    ];
    report(r, vec![Artifact::Metric(rows)], notes)
}

fn run_ablation_search(r: &ResolvedScenario, ctx: &CarmaContext) -> Report {
    let model = r.single_model();
    let baseline = smallest_exact_meeting(ctx, model, r.constraints.min_fps);
    let base_g = baseline.eval.embodied.as_grams();
    let budget = r.ga.population * (r.ga.generations + 1);

    let mut rows = Vec::new();

    // GA (seeded, as in the paper's flow).
    let best = ga_cdp(ctx, model, r.constraints, r.ga);
    rows.push(SearchRow {
        search: "ga-cdp".to_string(),
        evals: budget,
        fps: Some(best.fps),
        carbon_g: Some(best.embodied.as_grams()),
        saving_pct: Some(saving_pct(&best, base_g)),
    });

    // Random search at the same budget: sample design points uniformly
    // and keep the best feasible by embodied carbon.
    let mut rng = StdRng::seed_from_u64(0xABBA);
    let mut best_random: Option<DesignEval> = None;
    for _ in 0..budget {
        let dp = DesignPoint::random(&mut rng, ctx.library().len());
        let eval = ctx.evaluate(&dp, model);
        if r.constraints.satisfied_by(&eval)
            && best_random
                .as_ref()
                .is_none_or(|b| eval.embodied < b.embodied)
        {
            best_random = Some(eval);
        }
    }
    rows.push(match best_random {
        Some(eval) => SearchRow {
            search: "random".to_string(),
            evals: budget,
            fps: Some(eval.fps),
            carbon_g: Some(eval.embodied.as_grams()),
            saving_pct: Some(saving_pct(&eval, base_g)),
        },
        None => SearchRow {
            search: "random".to_string(),
            evals: budget,
            fps: None,
            carbon_g: None,
            saving_pct: None,
        },
    });

    let notes = vec!["expected: GA matches or beats random search at equal budget".to_string()];
    report(r, vec![Artifact::Search(rows)], notes)
}

fn run_ablation_yield(r: &ResolvedScenario, env: &RunEnv) -> Report {
    let model = r.single_model();
    // One context per node, built in parallel on the shared engine:
    // the library characterization, accuracy reference run and perf
    // cache are yield-model independent, so the three ablation arms
    // share them.
    let contexts = env.node_contexts(r);
    let mut rows = Vec::new();
    for (node, mut ctx) in r.nodes.iter().copied().zip(contexts) {
        for (name, ym) in [
            ("poisson", YieldModel::Poisson),
            ("murphy", YieldModel::Murphy),
            (
                "neg-binomial(3)",
                YieldModel::NegativeBinomial { alpha: 3.0 },
            ),
        ] {
            ctx.set_carbon_model(CarbonModel::for_node(node).with_yield_model(ym));
            let baseline = smallest_exact_meeting(&ctx, model, r.constraints.min_fps);
            let best = ga_cdp(&ctx, model, r.constraints, r.ga);
            rows.push(YieldRow {
                node,
                yield_model: name.to_string(),
                exact_g: baseline.eval.embodied.as_grams(),
                ga_cdp_g: best.embodied.as_grams(),
                saving_pct: saving_pct(&best, baseline.eval.embodied.as_grams()),
            });
        }
    }
    let notes =
        vec!["expected: savings stable within a few points across yield models".to_string()];
    report(r, vec![Artifact::Yield(rows)], notes)
}

fn run_deployment(r: &ResolvedScenario, ctx: &CarmaContext) -> Report {
    let model = r.single_model();
    // One exact sweep serves every cell as the baseline pool; which
    // preset wins is re-decided per cell, because the objective value
    // of a design changes with the deployment profile.
    let exact = exact_sweep(ctx, model);

    let mut rows = Vec::new();
    let mut op_dominated = 0usize;
    for (cell, (grid, lifetime_h)) in r
        .deployment_grids
        .iter()
        .flat_map(|&g| r.deployment_lifetimes_h.iter().map(move |&l| (g, l)))
        .enumerate()
    {
        let profile = r.deployment.with_grid(grid).with_lifetime_hours(lifetime_h);
        // Per-cell seed stream, as fig2 does per FPS threshold.
        let best = ga_cdp_with_objective(
            ctx,
            model,
            r.constraints,
            r.ga.with_seed(r.ga.seed.wrapping_add(cell as u64)),
            r.objective,
            &profile,
        );
        let fb = ctx.footprint(&best, &profile);
        let baseline = best_in_sweep(&exact, r.objective, &r.constraints, &profile)
            .unwrap_or_else(|| exact.last().expect("sweep is non-empty"));
        let baseline_total = ctx.footprint(&baseline.eval, &profile).total().as_grams();
        if !fb.embodied_dominates() {
            op_dominated += 1;
        }
        rows.push(DeploymentRow {
            grid: grid.to_string(),
            ci_g_per_kwh: grid.grams_per_kwh(),
            lifetime_h,
            macs: best.accelerator.macs(),
            multiplier: best.multiplier.clone(),
            fps: best.fps,
            die_g: fb.die.as_grams(),
            system_g: fb.system.as_grams(),
            operational_g: fb.operational.as_grams(),
            total_g: fb.total().as_grams(),
            operational_share_pct: fb.operational_share() * 100.0,
            total_saving_pct: 100.0 * (1.0 - fb.total().as_grams() / baseline_total),
            crossover_h: profile.crossover_hours(fb.embodied(), best.active_power_w()),
        });
    }

    let notes = vec![
        format!(
            "objective: {} | constraints: ≥{} FPS, ≤{}% drop | profile: {:.0}% duty, \
             {:?} package, {} GB DRAM",
            r.objective,
            r.constraints.min_fps,
            r.constraints.max_accuracy_drop * 100.0,
            r.deployment.utilization * 100.0,
            r.deployment.package,
            r.deployment.dram_gb
        ),
        format!(
            "operational exceeds embodied in {op_dominated}/{} scenarios; the crossover \
             column gives the lifetime where the chosen design's use phase overtakes \
             its embodied bill",
            rows.len()
        ),
        "expected: dirtier grids and longer lifetimes shift the optimum toward \
         energy-lean designs; on a renewable grid the embodied bill dominates \
         and the sweep reduces to the paper's CDP story"
            .to_string(),
    ];
    report(r, vec![Artifact::Deployment(rows)], notes)
}

/// Flattens one circuit's lint findings into report rows.
fn lint_finding_rows(family: &str, circuit: &str, lr: &LintReport) -> Vec<LintFindingRow> {
    lr.diagnostics
        .iter()
        .map(|d| LintFindingRow {
            family: family.to_string(),
            circuit: circuit.to_string(),
            severity: d.severity.label().to_string(),
            code: d.code.label().to_string(),
            node: d.node.map_or_else(|| "-".to_string(), |n| n.to_string()),
            port: d.port.clone().unwrap_or_else(|| "-".to_string()),
            message: d.message.clone(),
        })
        .collect()
}

/// One linted circuit's summary row: the netlist's structure and the
/// report's diagnostic counts, next to the static error bound and the
/// measured worst-case error it must dominate.
fn lint_row(
    family: &str,
    circuit: &str,
    nl: &Netlist,
    lr: &LintReport,
    static_bound: u64,
    measured_wce: u64,
) -> LintRow {
    LintRow {
        family: family.to_string(),
        circuit: circuit.to_string(),
        gates: nl.gate_count(),
        transistors: nl.transistor_count(),
        // Longest input→output path, in gate levels.
        depth: lr.output_stats.iter().map(|s| s.depth).max().unwrap_or(0),
        errors: lr.count(Severity::Error),
        warnings: lr.count(Severity::Warning),
        infos: lr.count(Severity::Info),
        static_bound,
        measured_wce,
        sound: static_bound >= measured_wce,
    }
}

fn run_lint(r: &ResolvedScenario, env: &RunEnv) -> Report {
    let sources = match &r.source {
        Some(s) => vec![s.clone()],
        None => vec![
            LibrarySource::Builtin(Family::Ladder),
            LibrarySource::Builtin(Family::Classic),
            LibrarySource::Builtin(Family::Evolved),
        ],
    };

    let mut rows = Vec::new();
    let mut findings = Vec::new();
    for source in sources {
        let lib = env.library_from(r, &source);
        // The exact Dadda reference every static bound is taken
        // against — the same base circuit the library generators start
        // from, at the library's own width (imported libraries are the
        // one source that can be narrower than 8 bits here).
        let exact = MultiplierCircuit::generate(lib.width(), ReductionKind::Dadda);
        let opts = LintOptions {
            profile: LintProfile::Trusted,
            multiplier_width: Some(lib.width()),
        };
        for entry in lib.entries() {
            let nl = entry.circuit.netlist();
            let lr = lint(nl, &opts);
            let bound = static_error_bound(nl, exact.netlist())
                .expect("library entries follow the multiplier port convention");
            rows.push(lint_row(
                source.as_str(),
                &entry.name,
                nl,
                &lr,
                bound.worst_abs,
                entry.profile.wce,
            ));
            findings.extend(lint_finding_rows(source.as_str(), &entry.name, &lr));
        }
    }

    let circuits = rows.len();
    let errors: usize = rows.iter().map(|row| row.errors).sum();
    let warnings: usize = rows.iter().map(|row| row.warnings).sum();
    let unsound: Vec<&str> = rows
        .iter()
        .filter(|row| !row.sound)
        .map(|row| row.circuit.as_str())
        .collect();
    let mut notes = vec![format!(
        "{circuits} circuits linted (trusted profile): {errors} errors, {warnings} warnings"
    )];
    if unsound.is_empty() {
        notes.push(
            "static bound ≥ measured WCE for every circuit (interval analysis is sound)"
                .to_string(),
        );
    } else {
        notes.push(format!(
            "UNSOUND static bound for: {} — interval analysis bug",
            unsound.join(", ")
        ));
    }
    report(
        r,
        vec![Artifact::Lint(rows), Artifact::LintFinding(findings)],
        notes,
    )
}

/// Lints the deliberately corrupted fixture netlist under the strict
/// profile — the `carma lint --fixture corrupted` path, which must
/// produce error-severity findings (and a non-zero CLI exit).
pub fn fixture_lint_report(scale: Scale) -> Report {
    let nl = carma_analyze::corrupted_fixture();
    let opts = LintOptions {
        profile: LintProfile::Strict,
        multiplier_width: None,
    };
    let lr = lint(&nl, &opts);
    // Not a multiplier: no error bound is defined for the fixture.
    let rows = vec![lint_row("fixture", "corrupted", &nl, &lr, 0, 0)];
    let findings = lint_finding_rows("fixture", "corrupted", &lr);
    Report {
        experiment: "lint".to_string(),
        title: "Static analysis — corrupted fixture (strict profile)".to_string(),
        scale,
        artifacts: vec![Artifact::Lint(rows), Artifact::LintFinding(findings)],
        notes: vec![
            "fixture plants a floating input, a dead cone, a duplicate gate and a \
             constant-foldable gate; the strict profile must flag errors"
                .to_string(),
        ],
        provenance: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_knows_all_ten_experiments() {
        let registry = ExperimentRegistry::standard();
        let names: Vec<&str> = registry.names().collect();
        assert_eq!(
            names,
            vec![
                "fig2",
                "table1",
                "fig3",
                "ablation_family",
                "ablation_grid",
                "ablation_metric",
                "ablation_search",
                "ablation_yield",
                "deployment",
                "lint",
            ]
        );
        assert!(registry.get("fig2").is_some());
        assert!(registry.get("deployment").is_some());
        assert!(registry.get("fig4").is_none());
    }

    #[test]
    fn unknown_experiment_is_reported_with_known_names() {
        let registry = ExperimentRegistry::standard();
        let err = registry.run(&ScenarioSpec::named("fig4")).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("fig4"), "{msg}");
        assert!(msg.contains("fig2"), "{msg}");
    }
}
