//! The serializable scenario spec and its resolved, typed form.

use serde::ser::SerializeStruct;
use serde::{Deserialize, Serialize, Serializer};

use carma_carbon::{DeploymentProfile, GridMix, Package};
use carma_dnn::DnnModel;
use carma_ga::GaConfig;
use carma_multiplier::{LibraryConfig, MultiplierLibrary};
use carma_netlist::TechNode;

use super::registry::ExperimentRegistry;
use super::{resolve_scale, resolve_threads, Scale, ScenarioError};
use crate::context::CarmaContext;
use crate::experiments::{ACCURACY_CLASSES, FPS_THRESHOLDS};
use crate::flow::{Constraints, Objective};

/// The deployment experiment's default grid-mix sweep, cleanest to
/// dirtiest.
pub const DEPLOYMENT_GRIDS: [GridMix; 3] =
    [GridMix::Renewable, GridMix::WorldAverage, GridMix::Coal];

/// The deployment experiment's default lifetime sweep: one, three and
/// five years of wall-clock hours.
pub const DEPLOYMENT_LIFETIMES_H: [f64; 3] = [8_760.0, 26_280.0, 43_800.0];

/// Upper bound on spec-supplied deployment magnitudes (lifetime hours,
/// custom g/kWh, DRAM GB). Each value is physically absurd at 1e9
/// already; bounding them keeps every downstream product (e.g.
/// lifetime × intensity × power in [`carma_carbon::OperationalCarbon`])
/// finite, so a spec validated here can never reach the
/// `CarbonMass::from_grams` overflow panic mid-run.
const DEPLOYMENT_MAGNITUDE_CAP: f64 = 1e9;

/// A declarative experiment description, JSON-round-trippable via
/// [`ScenarioSpec::to_json`] / [`ScenarioSpec::from_json`].
///
/// Every field except `experiment` is optional; an empty string /
/// empty list / `None` means "the experiment's paper default at the
/// resolved scale", so `{"experiment": "fig2"}` reproduces the `fig2`
/// binary exactly. Validation happens in [`ScenarioSpec::resolve`]
/// (what the `carma` CLI calls before running) and reports descriptive
/// [`ScenarioError`]s instead of panicking.
///
/// Precedence for `scale` and `threads` is spec field > CLI flag >
/// environment variable (`CARMA_SCALE` / `CARMA_THREADS`).
///
/// Serialization uses the explicit canonical field order
/// [`SPEC_FIELD_ORDER`] (a hand-written impl, not declaration order),
/// so `to_json` output is a stable contract: reordering the struct's
/// fields cannot silently change the bytes callers hash or diff.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct ScenarioSpec {
    /// Registry name of the experiment (`fig2`, `fig3`, `table1`,
    /// `ablation_family|grid|metric|search|yield`, `deployment`,
    /// `lint`).
    pub experiment: String,
    /// DNN model (`vgg16`, `resnet50`, …; `zoo` for the paper's four
    /// models where supported). Empty = experiment default.
    #[serde(default)]
    pub model: String,
    /// Primary technology node (`7nm`, `14nm`, `28nm`). Empty = 7 nm.
    /// When set (and `nodes` is not), it also narrows a multi-node
    /// experiment's sweep to this one node.
    #[serde(default)]
    pub node: String,
    /// Node sweep for multi-node experiments (`fig3`, `table1`,
    /// `ablation_yield`). Empty = all paper nodes for those (or the
    /// primary `node` if given), else the primary node.
    #[serde(default)]
    pub nodes: Vec<String>,
    /// Accuracy-drop classes, strictly ascending; the last is the
    /// binding GA budget. Empty = the paper's `[0.005, 0.010, 0.020]`.
    #[serde(default)]
    pub accuracy_classes: Vec<f64>,
    /// FPS thresholds; the first is the binding floor. Empty = the
    /// paper's `[30, 40, 50]`.
    #[serde(default)]
    pub fps_thresholds: Vec<f64>,
    /// Multiplier family for the context library (`ladder`, `classic`,
    /// `evolved`, or `imported` with a `library` path). Empty = the
    /// scale's default (truncation ladder).
    #[serde(default)]
    pub family: String,
    /// Path to an external library file (gate-level Verilog `.v` or
    /// EDIF `.edf`/`.edif`) — requires `family = "imported"`. The file
    /// is parsed and admitted through the `carma-analyze` gate at
    /// resolve time.
    #[serde(default)]
    pub library: String,
    /// Truncation depth of the library (1..=7). `None` = scale
    /// default (3 quick, 4 full).
    #[serde(default)]
    pub library_depth: Option<u8>,
    /// Behavioural accuracy-evaluation sample count. `None` = scale
    /// default (128 quick, 256 full).
    #[serde(default)]
    pub accuracy_samples: Option<u32>,
    /// GA hyper-parameter overrides, merged over the scale's budget.
    #[serde(default)]
    pub ga: Option<GaSpec>,
    /// GA seed override (shorthand for `ga.seed`).
    #[serde(default)]
    pub seed: Option<u64>,
    /// Experiment scale (`quick` / `full`). Empty = CLI flag, then
    /// `CARMA_SCALE`, then quick.
    #[serde(default)]
    pub scale: String,
    /// Execution-engine width. `None` = CLI flag, then
    /// `CARMA_THREADS`, then available parallelism.
    #[serde(default)]
    pub threads: Option<usize>,
    /// Optimization objective (`cdp`, `total-carbon`, `cep`, `edp`).
    /// Empty = the experiment default: `total-carbon` for
    /// `deployment`, `cdp` (the paper's fitness) everywhere else.
    #[serde(default)]
    pub objective: String,
    /// Deployment-profile block (grid mix, lifetime, utilization,
    /// package, DRAM). `None` = the edge default; for the `deployment`
    /// experiment an explicit `grid`/`lifetime_hours` also narrows the
    /// grid × lifetime sweep to that value.
    #[serde(default)]
    pub deployment: Option<DeploymentSpec>,
}

/// Partial [`DeploymentProfile`] override: unset fields keep the edge
/// default (world-average grid, 3-year always-on, monolithic package,
/// 2 GB DRAM). Serializes in [`DEPLOYMENT_FIELD_ORDER`].
#[derive(Debug, Clone, PartialEq, Default, Deserialize)]
pub struct DeploymentSpec {
    /// Deployment-site grid mix (`taiwan-grid`, `renewable`, `coal`,
    /// `world-average`, `custom`). Empty = world-average, or `custom`
    /// when `grid_g_per_kwh` is given.
    #[serde(default)]
    pub grid: String,
    /// Custom grid carbon intensity, g CO₂/kWh (pairs with
    /// `grid = "custom"`; giving only the number implies it).
    #[serde(default)]
    pub grid_g_per_kwh: Option<f64>,
    /// Deployed lifetime, wall-clock hours (≥ 0).
    #[serde(default)]
    pub lifetime_hours: Option<f64>,
    /// Active duty cycle in `[0, 1]`.
    #[serde(default)]
    pub utilization: Option<f64>,
    /// Package style (`monolithic`, `interposer`). Empty = monolithic.
    #[serde(default)]
    pub package: String,
    /// External DRAM capacity, GB (≥ 0).
    #[serde(default)]
    pub dram_gb: Option<f64>,
}

/// Partial [`GaConfig`] override: unset fields keep the scale budget.
/// Serializes in [`GA_FIELD_ORDER`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Deserialize)]
pub struct GaSpec {
    /// Population size (≥ 2).
    #[serde(default)]
    pub population: Option<usize>,
    /// Number of generations.
    #[serde(default)]
    pub generations: Option<usize>,
    /// Tournament size (≥ 1).
    #[serde(default)]
    pub tournament: Option<usize>,
    /// Crossover probability in `[0, 1]`.
    #[serde(default)]
    pub crossover_rate: Option<f64>,
    /// Mutation probability in `[0, 1]`.
    #[serde(default)]
    pub mutation_rate: Option<f64>,
    /// Elite count (< population).
    #[serde(default)]
    pub elites: Option<usize>,
    /// RNG seed.
    #[serde(default)]
    pub seed: Option<u64>,
}

/// The canonical JSON field order of a serialized [`ScenarioSpec`].
///
/// This is an explicit contract, enforced by a hand-written
/// [`Serialize`] impl and a byte-stability regression test: the
/// result-cache fingerprint and any consumer diffing spec JSON may
/// rely on it. Reordering the struct declaration does NOT change it;
/// adding a field means extending this list (and accepting that every
/// serialized spec changes shape, visibly, in review).
pub const SPEC_FIELD_ORDER: [&str; 16] = [
    "experiment",
    "model",
    "node",
    "nodes",
    "accuracy_classes",
    "fps_thresholds",
    "family",
    "library",
    "library_depth",
    "accuracy_samples",
    "ga",
    "seed",
    "scale",
    "threads",
    "objective",
    "deployment",
];

/// Canonical JSON field order of a serialized [`GaSpec`].
pub const GA_FIELD_ORDER: [&str; 7] = [
    "population",
    "generations",
    "tournament",
    "crossover_rate",
    "mutation_rate",
    "elites",
    "seed",
];

/// Canonical JSON field order of a serialized [`DeploymentSpec`].
pub const DEPLOYMENT_FIELD_ORDER: [&str; 6] = [
    "grid",
    "grid_g_per_kwh",
    "lifetime_hours",
    "utilization",
    "package",
    "dram_gb",
];

impl Serialize for ScenarioSpec {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Field order is the SPEC_FIELD_ORDER contract, spelled out
        // here by hand so the compiler ties every field to one slot.
        let mut st = serializer.serialize_struct("ScenarioSpec", SPEC_FIELD_ORDER.len())?;
        st.serialize_field("experiment", &self.experiment)?;
        st.serialize_field("model", &self.model)?;
        st.serialize_field("node", &self.node)?;
        st.serialize_field("nodes", &self.nodes)?;
        st.serialize_field("accuracy_classes", &self.accuracy_classes)?;
        st.serialize_field("fps_thresholds", &self.fps_thresholds)?;
        st.serialize_field("family", &self.family)?;
        st.serialize_field("library", &self.library)?;
        st.serialize_field("library_depth", &self.library_depth)?;
        st.serialize_field("accuracy_samples", &self.accuracy_samples)?;
        st.serialize_field("ga", &self.ga)?;
        st.serialize_field("seed", &self.seed)?;
        st.serialize_field("scale", &self.scale)?;
        st.serialize_field("threads", &self.threads)?;
        st.serialize_field("objective", &self.objective)?;
        st.serialize_field("deployment", &self.deployment)?;
        st.end()
    }
}

impl Serialize for GaSpec {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("GaSpec", GA_FIELD_ORDER.len())?;
        st.serialize_field("population", &self.population)?;
        st.serialize_field("generations", &self.generations)?;
        st.serialize_field("tournament", &self.tournament)?;
        st.serialize_field("crossover_rate", &self.crossover_rate)?;
        st.serialize_field("mutation_rate", &self.mutation_rate)?;
        st.serialize_field("elites", &self.elites)?;
        st.serialize_field("seed", &self.seed)?;
        st.end()
    }
}

impl Serialize for DeploymentSpec {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("DeploymentSpec", DEPLOYMENT_FIELD_ORDER.len())?;
        st.serialize_field("grid", &self.grid)?;
        st.serialize_field("grid_g_per_kwh", &self.grid_g_per_kwh)?;
        st.serialize_field("lifetime_hours", &self.lifetime_hours)?;
        st.serialize_field("utilization", &self.utilization)?;
        st.serialize_field("package", &self.package)?;
        st.serialize_field("dram_gb", &self.dram_gb)?;
        st.end()
    }
}

impl GaSpec {
    fn apply(&self, mut ga: GaConfig) -> GaConfig {
        if let Some(v) = self.population {
            ga.population = v;
        }
        if let Some(v) = self.generations {
            ga.generations = v;
        }
        if let Some(v) = self.tournament {
            ga.tournament = v;
        }
        if let Some(v) = self.crossover_rate {
            ga.crossover_rate = v;
        }
        if let Some(v) = self.mutation_rate {
            ga.mutation_rate = v;
        }
        if let Some(v) = self.elites {
            ga.elites = v;
        }
        if let Some(v) = self.seed {
            ga.seed = v;
        }
        ga
    }
}

impl DeploymentSpec {
    /// Resolves the block into a typed profile plus the grid and
    /// lifetime sweeps of the `deployment` experiment (an explicit
    /// `grid` / `lifetime_hours` narrows its sweep axis to that one
    /// value, like `node` narrows a node sweep).
    fn resolve(&self) -> Result<ResolvedDeployment, ScenarioError> {
        let invalid = ScenarioError::InvalidDeployment;
        let in_cap = |field: &str, v: f64| {
            if v <= DEPLOYMENT_MAGNITUDE_CAP {
                Ok(v)
            } else {
                Err(invalid(format!(
                    "{field} must be ≤ {DEPLOYMENT_MAGNITUDE_CAP:e} (got {v})"
                )))
            }
        };
        let grid = match (self.grid.as_str(), self.grid_g_per_kwh) {
            ("", None) => None,
            ("" | "custom", Some(v)) => {
                let g = GridMix::try_custom(v).map_err(invalid)?;
                in_cap("grid_g_per_kwh", v)?;
                Some(g)
            }
            ("custom", None) => {
                return Err(invalid(
                    "grid `custom` needs a `grid_g_per_kwh` intensity".to_string(),
                ))
            }
            (name, intensity) => {
                if intensity.is_some() {
                    return Err(invalid(format!(
                        "`grid_g_per_kwh` only pairs with grid `custom`, not `{name}`"
                    )));
                }
                Some(
                    name.parse::<GridMix>()
                        .map_err(|_| ScenarioError::UnknownGrid(name.to_string()))?,
                )
            }
        };
        if let Some(h) = self.lifetime_hours {
            if !(h.is_finite() && h >= 0.0) {
                return Err(invalid(format!(
                    "lifetime_hours must be a finite value ≥ 0 (got {h})"
                )));
            }
            in_cap("lifetime_hours", h)?;
        }
        let utilization = match self.utilization {
            None => 1.0,
            Some(u) if u.is_finite() && (0.0..=1.0).contains(&u) => u,
            Some(u) => {
                return Err(invalid(format!("utilization must be in [0, 1] (got {u})")));
            }
        };
        let package = match self.package.as_str() {
            "" | "monolithic" => Package::Monolithic,
            "interposer" | "interposer-2.5d" => Package::Interposer2_5d,
            other => return Err(ScenarioError::UnknownPackage(other.to_string())),
        };
        let dram_gb = match self.dram_gb {
            None => carma_carbon::deployment::DEFAULT_DRAM_GB,
            Some(d) if d.is_finite() && d >= 0.0 => in_cap("dram_gb", d)?,
            Some(d) => {
                return Err(invalid(format!(
                    "dram_gb must be a finite value ≥ 0 (got {d})"
                )));
            }
        };
        let profile = DeploymentProfile::new(
            grid.unwrap_or(GridMix::WorldAverage),
            self.lifetime_hours
                .unwrap_or(carma_carbon::deployment::DEFAULT_LIFETIME_HOURS),
            utilization,
            package,
            dram_gb,
        );
        Ok(ResolvedDeployment {
            profile,
            grids: match grid {
                Some(g) => vec![g],
                None => DEPLOYMENT_GRIDS.to_vec(),
            },
            lifetimes_h: match self.lifetime_hours {
                Some(h) => vec![h],
                None => DEPLOYMENT_LIFETIMES_H.to_vec(),
            },
        })
    }
}

/// The typed result of [`DeploymentSpec::resolve`].
struct ResolvedDeployment {
    profile: DeploymentProfile,
    grids: Vec<GridMix>,
    lifetimes_h: Vec<f64>,
}

impl ScenarioSpec {
    /// The default spec for a registry experiment: running it
    /// reproduces the matching `carma-bench` binary byte-for-byte at
    /// the same scale/threads.
    pub fn named(experiment: &str) -> Self {
        ScenarioSpec {
            experiment: experiment.to_string(),
            model: String::new(),
            node: String::new(),
            nodes: Vec::new(),
            accuracy_classes: Vec::new(),
            fps_thresholds: Vec::new(),
            family: String::new(),
            library: String::new(),
            library_depth: None,
            accuracy_samples: None,
            ga: None,
            seed: None,
            scale: String::new(),
            threads: None,
            objective: String::new(),
            deployment: None,
        }
    }

    /// Builder: sets the multiplier family.
    #[must_use]
    pub fn with_family(mut self, family: &str) -> Self {
        self.family = family.to_string();
        self
    }

    /// Builder: sets the imported-library path (pair with
    /// `with_family("imported")`).
    #[must_use]
    pub fn with_library(mut self, library: &str) -> Self {
        self.library = library.to_string();
        self
    }

    /// Builder: sets the model.
    #[must_use]
    pub fn with_model(mut self, model: &str) -> Self {
        self.model = model.to_string();
        self
    }

    /// Builder: sets the primary node.
    #[must_use]
    pub fn with_node(mut self, node: &str) -> Self {
        self.node = node.to_string();
        self
    }

    /// Builder: sets the node sweep.
    #[must_use]
    pub fn with_nodes<I: IntoIterator<Item = S>, S: Into<String>>(mut self, nodes: I) -> Self {
        self.nodes = nodes.into_iter().map(Into::into).collect();
        self
    }

    /// Builder: sets the scale.
    #[must_use]
    pub fn with_scale(mut self, scale: Scale) -> Self {
        self.scale = scale.as_str().to_string();
        self
    }

    /// Builder: sets the GA override.
    #[must_use]
    pub fn with_ga(mut self, ga: GaSpec) -> Self {
        self.ga = Some(ga);
        self
    }

    /// Builder: sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Builder: sets the objective.
    #[must_use]
    pub fn with_objective(mut self, objective: &str) -> Self {
        self.objective = objective.to_string();
        self
    }

    /// Builder: sets the deployment block.
    #[must_use]
    pub fn with_deployment(mut self, deployment: DeploymentSpec) -> Self {
        self.deployment = Some(deployment);
        self
    }

    /// Serializes the spec to compact JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }

    /// Parses a spec from JSON text, with descriptive errors for
    /// syntax problems, unknown fields and type mismatches.
    pub fn from_json(text: &str) -> Result<Self, ScenarioError> {
        serde::json::from_str(text).map_err(|e| ScenarioError::Parse(e.to_string()))
    }

    /// Validates the spec against `registry` and resolves every
    /// defaulted field into a typed [`ResolvedScenario`]. `cli_scale` /
    /// `cli_threads` sit between the spec fields and the environment
    /// in precedence.
    pub fn resolve(
        &self,
        registry: &ExperimentRegistry,
        cli_scale: Option<Scale>,
        cli_threads: Option<usize>,
    ) -> Result<ResolvedScenario, ScenarioError> {
        let info =
            registry
                .get(&self.experiment)
                .ok_or_else(|| ScenarioError::UnknownExperiment {
                    name: self.experiment.clone(),
                    known: registry.names().map(str::to_string).collect(),
                })?;

        let spec_scale = if self.scale.is_empty() {
            None
        } else {
            Some(self.scale.parse::<Scale>()?)
        };
        let scale = resolve_scale(spec_scale, cli_scale);

        let model = if self.model.is_empty() {
            if info.zoo_default {
                ModelSel::Zoo
            } else {
                ModelSel::One(DnnModel::vgg16())
            }
        } else if matches!(self.model.as_str(), "zoo" | "all") {
            if info.multi_model {
                ModelSel::Zoo
            } else {
                return Err(ScenarioError::ModelGridUnsupported(self.experiment.clone()));
            }
        } else {
            ModelSel::One(
                DnnModel::by_name(&self.model)
                    .ok_or_else(|| ScenarioError::UnknownModel(self.model.clone()))?,
            )
        };

        let parse_node = |s: &str| {
            s.parse::<TechNode>()
                .map_err(|_| ScenarioError::UnknownNode(s.to_string()))
        };
        let nodes: Vec<TechNode> = if self.nodes.is_empty() {
            if !self.node.is_empty() {
                // An explicit primary node narrows even a multi-node
                // experiment's sweep to that one node — it must never
                // be silently ignored.
                vec![parse_node(&self.node)?]
            } else if info.multi_node {
                TechNode::ALL.to_vec()
            } else {
                vec![TechNode::N7]
            }
        } else {
            if !info.multi_node && self.nodes.len() > 1 {
                return Err(ScenarioError::SingleNodeExperiment(self.experiment.clone()));
            }
            self.nodes
                .iter()
                .map(|n| parse_node(n))
                .collect::<Result<_, _>>()?
        };
        let node = if !self.node.is_empty() {
            parse_node(&self.node)?
        } else {
            nodes[0]
        };

        let accuracy_classes = if self.accuracy_classes.is_empty() {
            ACCURACY_CLASSES.to_vec()
        } else {
            for &c in &self.accuracy_classes {
                if !(0.0..=1.0).contains(&c) || !c.is_finite() {
                    return Err(ScenarioError::ClassOutOfRange(c));
                }
            }
            if self.accuracy_classes.windows(2).any(|w| w[0] >= w[1]) {
                return Err(ScenarioError::ClassesNotAscending(
                    self.accuracy_classes.clone(),
                ));
            }
            self.accuracy_classes.clone()
        };
        let fps_thresholds = if self.fps_thresholds.is_empty() {
            FPS_THRESHOLDS.to_vec()
        } else {
            self.fps_thresholds.clone()
        };
        // Every threshold must form valid constraints with the binding
        // class; checking them all up front means runners can assume
        // any (threshold, class) pair they combine is in range.
        let binding_class = *accuracy_classes.last().expect("non-empty after default");
        let mut constraints = None;
        for &fps in &fps_thresholds {
            let c = Constraints::new(fps, binding_class)?;
            constraints.get_or_insert(c);
        }
        let constraints = constraints.expect("non-empty after default");

        let builtin = |family: Family| -> Result<Option<LibrarySource>, ScenarioError> {
            if self.library.is_empty() {
                Ok(Some(LibrarySource::Builtin(family)))
            } else {
                Err(ScenarioError::LibraryNeedsImportedFamily(
                    self.family.clone(),
                ))
            }
        };
        let source = match self.family.as_str() {
            "" => {
                if self.library.is_empty() {
                    None
                } else {
                    return Err(ScenarioError::LibraryNeedsImportedFamily(
                        self.family.clone(),
                    ));
                }
            }
            "ladder" => builtin(Family::Ladder)?,
            "classic" => builtin(Family::Classic)?,
            "evolved" => builtin(Family::Evolved)?,
            "imported" => {
                if self.library.is_empty() {
                    return Err(ScenarioError::MissingLibraryPath);
                }
                let library = carma_import::load_library(std::path::Path::new(&self.library))
                    .map_err(ScenarioError::from)?;
                // The evaluation contexts are built over the paper's
                // 8-bit accuracy pipeline; only the library-level
                // `lint` experiment can take other widths.
                if library.width != 8 && info.name != "lint" {
                    return Err(ScenarioError::LibraryWidthUnsupported {
                        path: self.library.clone(),
                        width: library.width,
                        experiment: self.experiment.clone(),
                    });
                }
                Some(LibrarySource::Imported(ImportedSource {
                    path: self.library.clone(),
                    library,
                }))
            }
            other => return Err(ScenarioError::UnknownFamily(other.to_string())),
        };

        if let Some(d) = self.library_depth {
            if !(1..=7).contains(&d) {
                return Err(ScenarioError::InvalidDepth(d));
            }
        }
        if let Some(s) = self.accuracy_samples {
            if s == 0 {
                return Err(ScenarioError::InvalidSamples(s));
            }
        }

        let mut ga = self.ga.unwrap_or_default().apply(scale.ga());
        if let Some(seed) = self.seed {
            ga.seed = seed;
        }
        if ga.population < 2 {
            return Err(ScenarioError::InvalidGa(format!(
                "population must be ≥ 2 (got {})",
                ga.population
            )));
        }
        if ga.tournament < 1 {
            return Err(ScenarioError::InvalidGa("tournament must be ≥ 1".into()));
        }
        if !(0.0..=1.0).contains(&ga.crossover_rate) {
            return Err(ScenarioError::InvalidGa(format!(
                "crossover_rate must be in [0, 1] (got {})",
                ga.crossover_rate
            )));
        }
        if !(0.0..=1.0).contains(&ga.mutation_rate) {
            return Err(ScenarioError::InvalidGa(format!(
                "mutation_rate must be in [0, 1] (got {})",
                ga.mutation_rate
            )));
        }
        if ga.elites >= ga.population {
            return Err(ScenarioError::InvalidGa(format!(
                "elites ({}) must be < population ({})",
                ga.elites, ga.population
            )));
        }

        let threads = resolve_threads(self.threads, cli_threads);
        if let Some(0) = threads {
            return Err(ScenarioError::InvalidThreads(0));
        }

        let objective = match self.objective.as_str() {
            "" => {
                if info.objective_aware {
                    Objective::TotalCarbon
                } else {
                    Objective::Cdp
                }
            }
            "cdp" => Objective::Cdp,
            "total-carbon" | "total_carbon" => Objective::TotalCarbon,
            "cep" => Objective::Cep,
            "edp" => Objective::Edp,
            other => return Err(ScenarioError::UnknownObjective(other.to_string())),
        };
        // An unaware experiment would silently run under its own CDP
        // fitness — reject an explicit request it cannot honor instead
        // (an explicit `cdp` is what runs anyway, so it stays valid).
        if !info.objective_aware {
            if objective != Objective::Cdp {
                return Err(ScenarioError::ObjectiveUnsupported {
                    experiment: self.experiment.clone(),
                    objective: objective.as_str().to_string(),
                });
            }
            if self.deployment.is_some() {
                return Err(ScenarioError::DeploymentUnsupported(
                    self.experiment.clone(),
                ));
            }
        }
        let deployment = self.deployment.clone().unwrap_or_default().resolve()?;

        Ok(ResolvedScenario {
            name: info.name.to_string(),
            title: info.title.to_string(),
            model,
            node,
            nodes,
            accuracy_classes,
            fps_thresholds,
            constraints,
            source,
            library_depth: self.library_depth,
            accuracy_samples: self.accuracy_samples,
            ga,
            scale,
            threads,
            objective,
            deployment: deployment.profile,
            deployment_grids: deployment.grids,
            deployment_lifetimes_h: deployment.lifetimes_h,
        })
    }
}

/// The model selection of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSel {
    /// One named model.
    One(DnnModel),
    /// The paper's four-model zoo (`fig3`).
    Zoo,
}

/// Multiplier-library family of the scenario context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Truncation ladder (the scale default).
    Ladder,
    /// Mixed classic families (ladder + BAM + TCC).
    Classic,
    /// NSGA-II-evolved Pareto library.
    Evolved,
}

impl Family {
    /// The spec spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Family::Ladder => "ladder",
            Family::Classic => "classic",
            Family::Evolved => "evolved",
        }
    }
}

/// Where a scenario's multiplier library comes from: one of the three
/// built-in generated families, or an external file admitted through
/// the `carma-import` gate. This is the open axis that used to be the
/// closed [`Family`] enum — every layer downstream (library and
/// context construction, memo canon keys, `lint` loops, artifact
/// family columns) dispatches on it.
#[derive(Debug, Clone, PartialEq)]
pub enum LibrarySource {
    /// A generated family (`ladder` / `classic` / `evolved`).
    Builtin(Family),
    /// An imported library file, already parsed and admitted at
    /// resolve time.
    Imported(ImportedSource),
}

impl LibrarySource {
    /// The family column label (`ladder`, …, or `imported`).
    pub fn as_str(&self) -> &'static str {
        match self {
            LibrarySource::Builtin(f) => f.as_str(),
            LibrarySource::Imported(_) => "imported",
        }
    }

    /// The builtin family, if this source is one.
    pub fn builtin(&self) -> Option<Family> {
        match self {
            LibrarySource::Builtin(f) => Some(*f),
            LibrarySource::Imported(_) => None,
        }
    }
}

/// An imported library source: the spec path (display / provenance
/// only) plus the admitted file contents. Keeping the parsed modules
/// here — not just the path — means runners never re-read the file,
/// so a rename or edit between resolve and run cannot skew results;
/// identity downstream is the byte content hash, never the path.
#[derive(Debug, Clone, PartialEq)]
pub struct ImportedSource {
    /// The path as spelled in the spec.
    pub path: String,
    /// Parsed, admitted library (modules, width, content hash).
    pub library: carma_import::ImportedLibrary,
}

/// A fully validated scenario: every defaulted [`ScenarioSpec`] field
/// made concrete. Construct via [`ScenarioSpec::resolve`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedScenario {
    /// Registry name.
    pub name: String,
    /// Banner title (from the registry entry).
    pub title: String,
    /// Model selection.
    pub model: ModelSel,
    /// Primary node.
    pub node: TechNode,
    /// Node sweep (equals `[node]` for single-node experiments).
    pub nodes: Vec<TechNode>,
    /// Accuracy-drop classes (strictly ascending; last is binding).
    pub accuracy_classes: Vec<f64>,
    /// FPS thresholds (first is binding).
    pub fps_thresholds: Vec<f64>,
    /// The binding constraint pair: first threshold, last class.
    pub constraints: Constraints,
    /// Library source override (`None` = scale default ladder).
    pub source: Option<LibrarySource>,
    /// Library depth override.
    pub library_depth: Option<u8>,
    /// Accuracy-sample override.
    pub accuracy_samples: Option<u32>,
    /// The effective GA budget.
    pub ga: GaConfig,
    /// The effective scale.
    pub scale: Scale,
    /// The effective engine width (`None` = engine default).
    pub threads: Option<usize>,
    /// The optimization objective (`total-carbon` by default for the
    /// `deployment` experiment, `cdp` elsewhere).
    pub objective: Objective,
    /// The deployment profile (edge default unless a `deployment`
    /// block overrides it).
    pub deployment: DeploymentProfile,
    /// Grid mixes the `deployment` experiment sweeps (the profile's
    /// own grid when the spec pins one).
    pub deployment_grids: Vec<GridMix>,
    /// Lifetimes (hours) the `deployment` experiment sweeps (the
    /// profile's own lifetime when the spec pins one).
    pub deployment_lifetimes_h: Vec<f64>,
}

impl ResolvedScenario {
    /// The single model of this scenario.
    ///
    /// # Panics
    ///
    /// Panics on a `zoo` selection — `resolve` only admits `zoo` for
    /// multi-model experiments, whose runners call [`Self::models`].
    pub fn single_model(&self) -> &DnnModel {
        match &self.model {
            ModelSel::One(m) => m,
            ModelSel::Zoo => panic!("zoo selection on a single-model experiment"),
        }
    }

    /// The model list (the paper zoo, or the one selected model).
    pub fn models(&self) -> Vec<DnnModel> {
        match &self.model {
            ModelSel::One(m) => vec![m.clone()],
            ModelSel::Zoo => DnnModel::paper_zoo(),
        }
    }

    /// The effective library truncation depth.
    pub fn depth(&self) -> u8 {
        self.library_depth
            .unwrap_or_else(|| self.scale.library_depth())
    }

    /// The effective accuracy-evaluator configuration.
    pub fn evaluator(&self) -> carma_dnn::EvaluatorConfig {
        let mut cfg = self.scale.evaluator();
        if let Some(s) = self.accuracy_samples {
            cfg.samples = s as usize;
        }
        cfg
    }

    /// The effective library source (scale-default ladder when the
    /// spec named none).
    pub fn library_source(&self) -> LibrarySource {
        self.source
            .clone()
            .unwrap_or(LibrarySource::Builtin(Family::Ladder))
    }

    /// Builds the scenario's multiplier library (family × depth at
    /// this scale, or the characterized imported file).
    pub fn library(&self) -> MultiplierLibrary {
        self.library_from(&self.library_source())
    }

    /// Builds the library of an explicit `source` at this scenario's
    /// settings — builtin families via [`Self::library_for`], imported
    /// sources via `carma-import` characterization of the modules
    /// admitted at resolve time.
    pub fn library_from(&self, source: &LibrarySource) -> MultiplierLibrary {
        match source {
            LibrarySource::Builtin(family) => self.library_for(*family),
            LibrarySource::Imported(src) => carma_import::build_library(&src.library),
        }
    }

    /// Builds the library of an explicit `family` at this scenario's
    /// settings — the one construction shared by [`Self::library`] and
    /// the `ablation_family` runner, so the arms of that ablation are
    /// exactly what `family = "…"` specs produce.
    pub fn library_for(&self, family: Family) -> MultiplierLibrary {
        match family {
            Family::Ladder => MultiplierLibrary::truncation_ladder(8, self.depth()),
            Family::Classic => MultiplierLibrary::classic_families(8, self.depth()),
            Family::Evolved => {
                let (pop, gens) = self.scale.library_nsga_budget();
                let base = LibraryConfig::default();
                MultiplierLibrary::evolve(LibraryConfig {
                    // An explicit spec depth bounds the evolved
                    // search's truncation too; unset keeps the
                    // search's own default depth (the
                    // `ablation_family` arm at both scales).
                    max_truncation: self.library_depth.unwrap_or(base.max_truncation),
                    nsga: carma_ga::Nsga2Config::default()
                        .with_population(pop)
                        .with_generations(gens)
                        .with_seed(0xFA31),
                    ..base
                })
            }
        }
    }

    /// Builds the evaluation context for `node`. With no family /
    /// depth / sample overrides this is exactly [`Scale::context`].
    pub fn context_for(&self, node: TechNode) -> CarmaContext {
        CarmaContext::with_parts(node, self.library(), self.evaluator())
    }

    /// Builds one context per node of the sweep, in parallel on the
    /// `carma-exec` engine (construction is thread-invariant).
    pub fn node_contexts(&self) -> Vec<CarmaContext> {
        carma_exec::par_map(&self.nodes, |&node| self.context_for(node))
    }

    /// The canonical JSON of everything that determines this
    /// scenario's *results* — the preimage of [`Self::fingerprint`].
    ///
    /// Every field is an **effective** value (defaults already
    /// resolved), so two specs that spell the same experiment
    /// differently — `{"experiment":"fig2"}` vs an explicit
    /// `scale`/`model`/GA block restating the defaults — canonicalize
    /// to the same bytes. Deliberately excluded:
    ///
    /// * `threads` — the execution-engine width never changes results
    ///   (the carma-exec determinism contract), so a cache keyed on
    ///   this JSON serves `CARMA_THREADS=1` and `=8` from one entry;
    /// * the banner `title` — cosmetic.
    ///
    /// Grid mixes canonicalize to their g CO₂/kWh intensity, so a
    /// `custom` grid at 475 g/kWh and the `world-average` preset hash
    /// identically — they produce identical results.
    pub fn canonical_json(&self) -> String {
        use serde::json::to_string as js;

        let model_names: Vec<String> = self.models().iter().map(|m| m.name().to_string()).collect();
        let node_names: Vec<String> = self
            .nodes
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        let source = self.library_source();
        let family = source.as_str();
        // Imported sources append their content identity right after
        // the family value; builtin scenarios keep the exact canonical
        // bytes they had before the `library` field existed.
        let library = match &source {
            LibrarySource::Builtin(_) => String::new(),
            LibrarySource::Imported(src) => format!(
                ",\"library\":{{\"format\":{},\"content\":{}}}",
                js(src.library.format.as_str()),
                js(&src.library.content_hash),
            ),
        };
        let package = match self.deployment.package {
            Package::Monolithic => "monolithic",
            Package::Interposer2_5d => "interposer-2.5d",
        };
        let grid_intensities: Vec<f64> = self
            .deployment_grids
            .iter()
            .map(|g| g.grams_per_kwh())
            .collect();

        format!(
            "{{\"experiment\":{},\"scale\":{},\"models\":{},\"node\":{},\"nodes\":{},\
             \"accuracy_classes\":{},\"fps_thresholds\":{},\"family\":{}{},\
             \"library_depth\":{},\"accuracy_samples\":{},\
             \"ga\":{{\"population\":{},\"generations\":{},\"tournament\":{},\
             \"crossover_rate\":{},\"mutation_rate\":{},\"elites\":{},\"seed\":{}}},\
             \"objective\":{},\
             \"deployment\":{{\"grid_g_per_kwh\":{},\"lifetime_hours\":{},\
             \"utilization\":{},\"package\":{},\"dram_gb\":{}}},\
             \"deployment_grids\":{},\"deployment_lifetimes_h\":{}}}",
            js(&self.name),
            js(self.scale.as_str()),
            js(&model_names),
            js(&self.node.to_string()),
            js(&node_names),
            js(&self.accuracy_classes),
            js(&self.fps_thresholds),
            js(family),
            library,
            self.depth(),
            self.evaluator().samples,
            self.ga.population,
            self.ga.generations,
            self.ga.tournament,
            js(&self.ga.crossover_rate),
            js(&self.ga.mutation_rate),
            self.ga.elites,
            self.ga.seed,
            js(self.objective.as_str()),
            js(&self.deployment.grid.grams_per_kwh()),
            js(&self.deployment.lifetime_hours),
            js(&self.deployment.utilization),
            js(package),
            js(&self.deployment.dram_gb),
            js(&grid_intensities),
            js(&self.deployment_lifetimes_h),
        )
    }

    /// Content address of this scenario's results: the 128-bit
    /// [`carma_memo::fingerprint`] of [`Self::canonical_json`], as 32
    /// lowercase hex characters. Identical resolved scenarios —
    /// including the same spec at different thread counts — always
    /// collide (that is the point); distinct ones differ up to the
    /// hash's collision bound.
    pub fn fingerprint(&self) -> String {
        carma_memo::fingerprint(&self.canonical_json())
    }
}
