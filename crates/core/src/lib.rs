//! # carma-core
//!
//! The paper's contribution: **carbon-aware DNN accelerator design via
//! approximate computing**, optimizing the Carbon Delay Product (CDP)
//! with a genetic algorithm under FPS and accuracy-drop constraints.
//!
//! The flow (paper Fig. 1):
//!
//! 1. `carma-multiplier` generates area-aware approximate multipliers
//!    (gate pruning + precision scaling, NSGA-II Pareto search);
//! 2. `carma-dnn` buckets them by DNN accuracy drop;
//! 3. this crate's GA searches the hardware space — PE width, PE
//!    height, local buffer size, global buffer size, multiplier choice
//!    — with CDP as the fitness, FPS/accuracy thresholds as
//!    constraints, `carma-dataflow` as the performance oracle and
//!    `carma-carbon` as the embodied-carbon oracle.
//!
//! ## Example
//!
//! ```no_run
//! use carma_core::{CarmaContext, Constraints, flow};
//! use carma_dnn::DnnModel;
//! use carma_ga::GaConfig;
//! use carma_netlist::TechNode;
//!
//! let ctx = CarmaContext::standard(TechNode::N7);
//! let best = flow::ga_cdp(
//!     &ctx,
//!     &DnnModel::vgg16(),
//!     Constraints::new(30.0, 0.02).expect("valid constraints"),
//!     GaConfig::default(),
//! );
//! println!("best design: {} at {:.1} FPS, {}", best.accelerator, best.fps, best.embodied);
//! ```
//!
//! For running whole paper experiments declaratively (by name or from
//! a JSON spec), see the [`scenario`] module and the `carma` CLI.

pub mod context;
pub mod experiments;
pub mod flow;
pub mod memo;
pub mod report;
pub mod scenario;
pub mod space;

pub use context::{CarmaContext, DesignEval};
pub use flow::{ConstraintError, Constraints, Objective, SweepPoint};
pub use memo::MemoLayer;
pub use scenario::{
    fixture_lint_report, ExperimentRegistry, Provenance, Report, RunEnv, Scale, ScenarioError,
    ScenarioSpec, SpanTotal,
};
pub use space::DesignPoint;

// Re-exported so downstream consumers (the CLI, `carma-serve`) can
// read memo statistics without depending on `carma-memo` directly.
pub use carma_memo::{MemoStats, Stage as MemoStage, StageCounts};
