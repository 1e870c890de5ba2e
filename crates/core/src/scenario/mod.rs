//! The declarative experiment API: a serde-round-trippable
//! [`ScenarioSpec`] describing *what* to run (model, tech node,
//! constraint grid, multiplier family, GA budget, seed, threads,
//! scale), an [`ExperimentRegistry`] mapping stable names (`fig2`,
//! `table1`, `ablation_family`, …) to runner functions, and a typed
//! [`Report`]/[`Artifact`] result with text, JSON and CSV sinks.
//!
//! This is the programmatic surface behind the `carma` CLI
//! (`carma run`) and the `carma-serve` HTTP service (`POST /run`).
//!
//! ```no_run
//! use carma_core::scenario::{ExperimentRegistry, ScenarioSpec};
//!
//! let registry = ExperimentRegistry::standard();
//! let spec = ScenarioSpec::named("fig2");
//! let report = registry.run(&spec).expect("valid spec");
//! println!("{}", report.render_text());
//! println!("{}", report.to_json());
//! ```

mod artifact;
mod registry;
mod spec;

pub use artifact::{
    Artifact, DeploymentRow, FamilyRow, GridRow, LintFindingRow, LintRow, MetricRow, Provenance,
    Report, SearchRow, SpanTotal, YieldRow,
};
pub use registry::{fixture_lint_report, ExperimentInfo, ExperimentRegistry, RunEnv, Runner};
pub use spec::{
    DeploymentSpec, Family, GaSpec, ImportedSource, LibrarySource, ModelSel, ResolvedScenario,
    ScenarioSpec, DEPLOYMENT_FIELD_ORDER, DEPLOYMENT_GRIDS, DEPLOYMENT_LIFETIMES_H, GA_FIELD_ORDER,
    SPEC_FIELD_ORDER,
};

use carma_dnn::EvaluatorConfig;
use carma_ga::GaConfig;
use carma_multiplier::MultiplierLibrary;
use carma_netlist::TechNode;

use crate::context::CarmaContext;
use crate::flow::ConstraintError;

/// Experiment scale: the reduced "quick" configuration (minutes on a
/// laptop, same qualitative shapes) or the paper-scale "full" one.
///
/// Selected, in precedence order, by the spec's `scale` field, then a
/// CLI `--scale` flag, then the `CARMA_SCALE` environment variable
/// (see [`resolve_scale`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Reduced library and GA budget (default).
    #[default]
    Quick,
    /// Paper-scale configuration.
    Full,
}

impl Scale {
    /// Reads the scale from the environment alone — the thin
    /// backwards-compatible wrapper over [`resolve_scale`] (lenient:
    /// anything but `full` means quick).
    pub fn from_env() -> Self {
        resolve_scale(None, None)
    }

    /// Builds a context at this scale for `node`.
    pub fn context(self, node: TechNode) -> CarmaContext {
        match self {
            Scale::Quick => CarmaContext::with_parts(
                node,
                MultiplierLibrary::truncation_ladder(8, self.library_depth()),
                self.evaluator(),
            ),
            Scale::Full => CarmaContext::standard(node),
        }
    }

    /// The behavioural accuracy-evaluation budget at this scale.
    pub fn evaluator(self) -> EvaluatorConfig {
        match self {
            Scale::Quick => EvaluatorConfig {
                samples: 128,
                ..EvaluatorConfig::default()
            },
            Scale::Full => EvaluatorConfig::default(),
        }
    }

    /// Multiplier-library truncation depth at this scale.
    pub fn library_depth(self) -> u8 {
        match self {
            Scale::Quick => 3,
            Scale::Full => 4,
        }
    }

    /// The GA budget at this scale.
    pub fn ga(self) -> GaConfig {
        match self {
            Scale::Quick => GaConfig::default().with_population(24).with_generations(18),
            Scale::Full => GaConfig::default(),
        }
    }

    /// The NSGA-II budget for evolving a multiplier library at this
    /// scale (population, generations) — the `ablation_family` /
    /// `family = "evolved"` setting.
    pub fn library_nsga_budget(self) -> (usize, usize) {
        match self {
            Scale::Quick => (16, 6),
            Scale::Full => (24, 12),
        }
    }

    /// The lowercase spec/CLI spelling (`quick` / `full`).
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Scale {
    type Err = ScenarioError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "quick" => Ok(Scale::Quick),
            "full" => Ok(Scale::Full),
            other => Err(ScenarioError::UnknownScale(other.to_string())),
        }
    }
}

/// The one `CARMA_SCALE` resolver: spec field beats CLI flag beats
/// environment variable; unset (or unrecognized env text, for
/// backwards compatibility) means [`Scale::Quick`].
pub fn resolve_scale(spec: Option<Scale>, cli: Option<Scale>) -> Scale {
    spec.or(cli)
        .unwrap_or_else(|| match std::env::var("CARMA_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            _ => Scale::Quick,
        })
}

/// A warning for mistyped `CARMA_SCALE` text (e.g. `CARMA_SCALE=paper`
/// or `Full`), which [`resolve_scale`]'s lenient fallback would
/// otherwise silently treat as quick scale. Returns `None` when the
/// variable is unset, empty, or a recognized value; the `carma` CLI
/// prints the `Some` text to stderr.
pub fn scale_env_diagnostic() -> Option<String> {
    match std::env::var("CARMA_SCALE") {
        Ok(v) if !v.is_empty() && v != "quick" && v != "full" => Some(format!(
            "warning: unrecognized CARMA_SCALE value `{v}` — accepted values are \
             `quick` and `full`; treating it as quick where the environment \
             decides the scale"
        )),
        _ => None,
    }
}

/// The one `CARMA_THREADS` resolver: spec field beats CLI flag beats
/// environment variable. `None` leaves the width to the `carma-exec`
/// engine default (available parallelism). The parse mirrors the
/// engine's own: trimmed positive integer, anything else ignored —
/// entry points surface the ignored text via
/// [`threads_env_diagnostic`].
pub fn resolve_threads(spec: Option<usize>, cli: Option<usize>) -> Option<usize> {
    spec.or(cli).or_else(|| {
        std::env::var("CARMA_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
    })
}

/// A warning for mistyped `CARMA_THREADS` text (e.g. `CARMA_THREADS=
/// fast` or `=0`), which both [`resolve_threads`] and the `carma-exec`
/// engine would otherwise silently ignore. Mirrors
/// [`scale_env_diagnostic`]; re-exported from the engine so the two
/// lenient parsers share one diagnostic. `None` when the variable is
/// unset, empty, or a valid positive integer.
pub use carma_exec::threads_env_diagnostic;

/// The standard experiment banner (what every bench binary prints
/// before its table).
pub fn banner_text(title: &str, scale: Scale) -> String {
    format!(
        "=== CARMA experiment: {title} (scale: {scale:?}) ===\n\
         reproduces: Panteleaki et al., \"Leveraging Approximate Computing for \
         Carbon-Aware DNN Accelerators\", DATE 2025\n\n"
    )
}

/// Why a [`ScenarioSpec`] failed to validate or resolve.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The spec text was not valid JSON / did not match the spec shape.
    Parse(String),
    /// `experiment` names nothing in the registry.
    UnknownExperiment {
        /// The requested name.
        name: String,
        /// Every name the registry knows.
        known: Vec<String>,
    },
    /// `model` names no known DNN.
    UnknownModel(String),
    /// A model grid (`zoo`) was given to a single-model experiment.
    ModelGridUnsupported(String),
    /// A tech node failed to parse.
    UnknownNode(String),
    /// `family` is not `ladder` / `classic` / `evolved` / `imported`.
    UnknownFamily(String),
    /// `family = "imported"` without a `library` path.
    MissingLibraryPath,
    /// A `library` path given with a non-`imported` family.
    LibraryNeedsImportedFamily(String),
    /// The library file could not be read.
    LibraryUnreadable {
        /// The path as spelled in the spec.
        path: String,
        /// OS-level reason.
        reason: String,
    },
    /// The library path's extension maps to no supported format.
    LibraryUnknownFormat(String),
    /// The library file is not valid Verilog/EDIF in the supported
    /// subset.
    LibraryMalformed {
        /// The path as spelled in the spec.
        path: String,
        /// Parser diagnostic (with line number where known).
        reason: String,
    },
    /// A module in the library failed the `carma-analyze` admission
    /// gate (Strict lint, static error bound, equivalence run).
    LibraryRejected {
        /// The path as spelled in the spec.
        path: String,
        /// The offending module.
        module: String,
        /// The gate's diagnostics, verbatim.
        diagnostics: Vec<String>,
    },
    /// The library's operand width does not fit the experiment (the
    /// evaluation contexts are 8-bit; only `lint` takes other widths).
    LibraryWidthUnsupported {
        /// The path as spelled in the spec.
        path: String,
        /// The file's operand width.
        width: u32,
        /// The experiment that cannot take it.
        experiment: String,
    },
    /// `scale` is not `quick` / `full`.
    UnknownScale(String),
    /// More than one node given to a single-node experiment.
    SingleNodeExperiment(String),
    /// The FPS/accuracy grid is invalid (empty entries are allowed in
    /// the spec — they mean "paper defaults" — but provided values
    /// must be in range).
    Constraint(ConstraintError),
    /// An accuracy class outside `[0, 1]`.
    ClassOutOfRange(f64),
    /// Accuracy classes not strictly ascending (the last one is the
    /// GA's binding budget, and reports pivot on distinct classes).
    ClassesNotAscending(Vec<f64>),
    /// A GA hyper-parameter combination the engine would reject.
    InvalidGa(String),
    /// `library_depth` outside `1..=7` (the 8-bit ladder's range).
    InvalidDepth(u8),
    /// `accuracy_samples` must be positive.
    InvalidSamples(u32),
    /// `threads` must be ≥ 1.
    InvalidThreads(usize),
    /// `objective` is not `cdp` / `total-carbon` / `cep` / `edp`.
    UnknownObjective(String),
    /// `deployment.grid` names no preset.
    UnknownGrid(String),
    /// `deployment.package` is not `monolithic` / `interposer`.
    UnknownPackage(String),
    /// A deployment-block value is out of range (negative or
    /// non-finite intensity/lifetime/DRAM, utilization outside
    /// `[0, 1]`, a `custom` grid without its intensity).
    InvalidDeployment(String),
    /// A non-CDP `objective` given to an experiment whose runner only
    /// knows the paper's CDP fitness.
    ObjectiveUnsupported {
        /// The experiment.
        experiment: String,
        /// The requested objective.
        objective: String,
    },
    /// A `deployment` block given to an experiment that ignores it.
    DeploymentUnsupported(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Parse(msg) => write!(f, "invalid scenario spec: {msg}"),
            ScenarioError::UnknownExperiment { name, known } => write!(
                f,
                "unknown experiment `{name}` (known: {})",
                known.join(", ")
            ),
            ScenarioError::UnknownModel(m) => write!(
                f,
                "unknown model `{m}` (known: vgg16, vgg19, resnet50, resnet152, \
                 mobilenet_v1, alexnet, zoo)"
            ),
            ScenarioError::ModelGridUnsupported(e) => {
                write!(f, "experiment `{e}` takes a single model, not `zoo`")
            }
            ScenarioError::UnknownNode(n) => {
                write!(f, "unknown tech node `{n}` (known: 7nm, 14nm, 28nm)")
            }
            ScenarioError::UnknownFamily(fam) => write!(
                f,
                "unknown multiplier family `{fam}` \
                 (known: ladder, classic, evolved, imported)"
            ),
            ScenarioError::MissingLibraryPath => write!(
                f,
                "family `imported` requires a `library` path \
                 (a .v/.verilog or .edf/.edif file)"
            ),
            ScenarioError::LibraryNeedsImportedFamily(fam) => {
                if fam.is_empty() {
                    write!(f, "a `library` path requires `family = \"imported\"`")
                } else {
                    write!(
                        f,
                        "a `library` path requires `family = \"imported\"`, \
                         not `{fam}` (builtin families are generated)"
                    )
                }
            }
            ScenarioError::LibraryUnreadable { path, reason } => {
                write!(f, "cannot read library `{path}`: {reason}")
            }
            ScenarioError::LibraryUnknownFormat(path) => write!(
                f,
                "cannot infer library format of `{path}` \
                 (recognized extensions: .v, .verilog, .edf, .edif)"
            ),
            ScenarioError::LibraryMalformed { path, reason } => {
                write!(f, "malformed library `{path}`: {reason}")
            }
            ScenarioError::LibraryRejected {
                path,
                module,
                diagnostics,
            } => write!(
                f,
                "library `{path}` rejected: module `{module}` failed the \
                 admission gate (Strict lint + static bound + equivalence): {}",
                diagnostics.join("; ")
            ),
            ScenarioError::LibraryWidthUnsupported {
                path,
                width,
                experiment,
            } => write!(
                f,
                "library `{path}` is {width}-bit, but experiment `{experiment}` \
                 evaluates through the paper's 8-bit context (only `lint` \
                 accepts other widths)"
            ),
            ScenarioError::UnknownScale(s) => {
                write!(f, "unknown scale `{s}` (known: quick, full)")
            }
            ScenarioError::SingleNodeExperiment(e) => write!(
                f,
                "experiment `{e}` runs on a single node; give one `node`, not a `nodes` list"
            ),
            ScenarioError::Constraint(e) => write!(f, "invalid constraints: {e}"),
            ScenarioError::ClassOutOfRange(c) => {
                write!(f, "accuracy class {c} outside [0, 1]")
            }
            ScenarioError::ClassesNotAscending(classes) => {
                write!(f, "accuracy classes {classes:?} must be strictly ascending")
            }
            ScenarioError::InvalidGa(msg) => write!(f, "invalid GA config: {msg}"),
            ScenarioError::InvalidDepth(d) => {
                write!(f, "library_depth {d} outside 1..=7")
            }
            ScenarioError::InvalidSamples(s) => {
                write!(f, "accuracy_samples must be positive (got {s})")
            }
            ScenarioError::InvalidThreads(t) => {
                write!(f, "threads must be ≥ 1 (got {t})")
            }
            ScenarioError::UnknownObjective(o) => write!(
                f,
                "unknown objective `{o}` (known: cdp, total-carbon, cep, edp)"
            ),
            ScenarioError::UnknownGrid(g) => write!(
                f,
                "unknown deployment grid `{g}` (known: taiwan-grid, renewable, coal, \
                 world-average, custom — the last with `grid_g_per_kwh`)"
            ),
            ScenarioError::UnknownPackage(p) => {
                write!(f, "unknown package `{p}` (known: monolithic, interposer)")
            }
            ScenarioError::InvalidDeployment(msg) => {
                write!(f, "invalid deployment block: {msg}")
            }
            ScenarioError::ObjectiveUnsupported {
                experiment,
                objective,
            } => write!(
                f,
                "experiment `{experiment}` runs under the paper's CDP fitness; \
                 objective `{objective}` is only honored by `deployment`"
            ),
            ScenarioError::DeploymentUnsupported(e) => write!(
                f,
                "experiment `{e}` takes no `deployment` block (only `deployment` does)"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ConstraintError> for ScenarioError {
    fn from(e: ConstraintError) -> Self {
        ScenarioError::Constraint(e)
    }
}

impl From<carma_import::ImportFailure> for ScenarioError {
    fn from(e: carma_import::ImportFailure) -> Self {
        use carma_import::ImportFailure;
        match e {
            ImportFailure::Unreadable { path, reason } => {
                ScenarioError::LibraryUnreadable { path, reason }
            }
            ImportFailure::UnknownFormat { path } => ScenarioError::LibraryUnknownFormat(path),
            ImportFailure::Malformed { path, reason } => {
                ScenarioError::LibraryMalformed { path, reason }
            }
            ImportFailure::Rejected {
                path,
                module,
                diagnostics,
            } => ScenarioError::LibraryRejected {
                path,
                module,
                diagnostics,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_and_displays() {
        assert_eq!("quick".parse::<Scale>(), Ok(Scale::Quick));
        assert_eq!("FULL".parse::<Scale>(), Ok(Scale::Full));
        assert!(matches!(
            "fullish".parse::<Scale>(),
            Err(ScenarioError::UnknownScale(_))
        ));
        assert_eq!(Scale::Quick.to_string(), "quick");
    }

    #[test]
    fn resolver_precedence_spec_over_cli() {
        assert_eq!(
            resolve_scale(Some(Scale::Full), Some(Scale::Quick)),
            Scale::Full
        );
        assert_eq!(resolve_scale(None, Some(Scale::Full)), Scale::Full);
        assert_eq!(resolve_threads(Some(3), Some(9)), Some(3));
        assert_eq!(resolve_threads(None, Some(9)), Some(9));
    }

    #[test]
    fn quick_ga_is_smaller_than_full() {
        assert!(Scale::Quick.ga().population <= Scale::Full.ga().population);
        assert!(Scale::Quick.ga().generations <= Scale::Full.ga().generations);
    }

    #[test]
    fn banner_names_the_paper() {
        let b = banner_text("Figure 2", Scale::Quick);
        assert!(b.starts_with("=== CARMA experiment: Figure 2 (scale: Quick) ==="));
        assert!(b.contains("Panteleaki"));
    }
}
