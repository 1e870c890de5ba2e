//! # carma-multiplier
//!
//! Generation of exact and **area-aware approximate multipliers** — the
//! first step of the paper's methodology:
//!
//! > *"we apply gate-level pruning and precision scaling approximation
//! > techniques to modify the netlist structure or the connections
//! > between its gates, effectively reducing the circuit area. These
//! > approximations are guided by a multi-objective optimization
//! > algorithm that explores the design space to identify
//! > near-Pareto-optimal solutions with minimal functional error."*
//!
//! The crate provides:
//!
//! * [`exact`] — unsigned n×n multiplier netlist generators (array,
//!   Wallace, Dadda reduction schedules);
//! * [`approx`] — the two approximation primitives (gate pruning,
//!   precision scaling) and the [`ApproxGenome`] that composes them;
//! * [`error`] — exhaustive error characterization
//!   ([`ErrorProfile`]: error rate, MED, NMED, MRED, WCE, bias,
//!   variance);
//! * [`lut`] — compilation of any multiplier netlist into a lookup
//!   table for fast behavioural DNN inference;
//! * [`library`] — the NSGA-II Pareto search producing an
//!   EvoApprox-style library of named approximate multipliers.
//!
//! ## Example
//!
//! ```
//! use carma_multiplier::exact::{MultiplierCircuit, ReductionKind};
//! use carma_multiplier::error::ErrorProfile;
//!
//! let exact = MultiplierCircuit::generate(8, ReductionKind::Dadda);
//! let profile = ErrorProfile::exhaustive(&exact);
//! assert_eq!(profile.error_rate, 0.0); // exact multiplier: no error
//! ```

pub mod approx;
pub mod error;
pub mod exact;
pub mod families;
pub mod library;
pub mod lut;

pub use approx::{ApproxGenome, Prune, PruneAction};
pub use error::ErrorProfile;
pub use exact::{MultiplierCircuit, ReductionKind};
pub use library::{
    prescreen_circuit, CircuitRecipe, LibraryConfig, MultiplierEntry, MultiplierLibrary,
};
pub use lut::{ExactMultiplier, LutMultiplier, Multiplier};
