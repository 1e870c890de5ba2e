//! # carma-ga
//!
//! Genetic-algorithm toolkit used twice by the CARMA flow:
//!
//! 1. **NSGA-II** ([`nsga2`]) drives the multi-objective search for
//!    near-Pareto-optimal approximate multipliers (area vs. error),
//!    mirroring the genetic netlist-approximation flow the paper cites.
//! 2. **Constrained single-objective GA** ([`ga`]) is the paper's
//!    "genetic algorithm with CDP metric as fitness function",
//!    constrained by minimum FPS and maximum accuracy drop.
//!
//! Both engines are generic over a user-supplied problem trait, fully
//! deterministic given a seed, and free of global state.
//!
//! ## Example
//!
//! Minimize a sphere function:
//!
//! ```
//! use carma_ga::{Evaluation, GaConfig, GeneticAlgorithm, Problem};
//! use rand::RngExt;
//!
//! struct Sphere;
//!
//! impl Problem for Sphere {
//!     type Genome = Vec<f64>;
//!
//!     fn random_genome(&self, rng: &mut dyn rand::Rng) -> Vec<f64> {
//!         (0..4).map(|_| rng.random_range(-5.0..5.0)).collect()
//!     }
//!     fn crossover(&self, a: &Vec<f64>, b: &Vec<f64>, rng: &mut dyn rand::Rng) -> Vec<f64> {
//!         a.iter().zip(b).map(|(&x, &y)| if rng.random_bool(0.5) { x } else { y }).collect()
//!     }
//!     fn mutate(&self, g: &mut Vec<f64>, rng: &mut dyn rand::Rng) {
//!         let i = rng.random_range(0..g.len());
//!         g[i] += rng.random_range(-0.5..0.5);
//!     }
//!     fn evaluate(&self, g: &Vec<f64>) -> Evaluation {
//!         Evaluation::feasible(g.iter().map(|x| x * x).sum())
//!     }
//! }
//!
//! let best = GeneticAlgorithm::new(Sphere, GaConfig::default().with_seed(7)).run();
//! assert!(best.evaluation.objective < 0.5);
//! ```

pub mod ga;
pub mod nsga2;

pub use ga::{par_evaluate, Evaluation, GaConfig, GaStats, GeneticAlgorithm, Individual, Problem};
pub use nsga2::{
    crowding_distance, fast_non_dominated_sort, par_evaluate_multi, MultiObjectiveProblem, Nsga2,
    Nsga2Config, ParetoIndividual,
};
