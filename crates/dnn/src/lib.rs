//! # carma-dnn
//!
//! DNN workloads and behavioural accuracy evaluation for CARMA — the
//! ApproxTrain-substitute layer of the reproduction.
//!
//! The crate has two halves:
//!
//! * **Workload descriptions** ([`layer`], [`model`]): exact layer
//!   tables for the paper's four networks — VGG16, VGG19, ResNet50 and
//!   ResNet152 at 224×224 — with per-layer MAC and parameter counts.
//!   These drive the dataflow performance simulator.
//! * **Behavioural inference** ([`tensor`], [`engine`], [`accuracy`]):
//!   a quantized (8-bit, sign-magnitude) inference engine in which
//!   every product is served by a pluggable
//!   [`Multiplier`](carma_multiplier::Multiplier) — exact or
//!   LUT-approximate — plus the synthetic-ImageNet accuracy-drop
//!   evaluation described in DESIGN.md §4.
//!
//! ## Example
//!
//! ```
//! use carma_dnn::model::DnnModel;
//!
//! let vgg16 = DnnModel::vgg16();
//! // VGG16 at 224×224 is ≈ 15.47 GMACs.
//! let gmacs = vgg16.total_macs() as f64 / 1e9;
//! assert!((gmacs - 15.47).abs() < 0.1, "gmacs = {gmacs}");
//! ```

pub mod accuracy;
pub mod engine;
pub mod layer;
pub mod model;
pub mod tensor;

pub use accuracy::{AccuracyEvaluator, EvaluatorConfig};
pub use engine::QuantizedNetwork;
pub use layer::{Layer, LayerKind};
pub use model::DnnModel;
pub use tensor::Tensor;
