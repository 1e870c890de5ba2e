//! Constrained single-objective generational GA.
//!
//! This is the engine behind the paper's GA-CDP flow: tournament
//! selection under Deb's feasibility rule, uniform crossover via the
//! problem's own operator, per-offspring mutation, and elitism.
//!
//! Constraints are expressed through [`Evaluation::violation`]: a
//! feasible individual always beats an infeasible one; two infeasible
//! individuals compare by total violation. This matches how the paper
//! treats the minimum-FPS and maximum-accuracy-drop thresholds.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// The outcome of evaluating one genome: an objective to *minimize*
/// plus an aggregate constraint violation (0 when feasible).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Objective value; smaller is better.
    pub objective: f64,
    /// Total constraint violation; 0.0 means feasible.
    pub violation: f64,
}

impl Evaluation {
    /// A feasible evaluation with the given objective.
    pub fn feasible(objective: f64) -> Self {
        Evaluation {
            objective,
            violation: 0.0,
        }
    }

    /// An evaluation carrying constraint violation (clamped to ≥ 0).
    pub fn with_violation(objective: f64, violation: f64) -> Self {
        Evaluation {
            objective,
            violation: violation.max(0.0),
        }
    }

    /// Whether this evaluation satisfies all constraints.
    pub fn is_feasible(&self) -> bool {
        self.violation <= 0.0
    }

    /// Deb's feasibility-rule comparison: returns `true` if `self` is
    /// strictly better than `other`.
    pub fn better_than(&self, other: &Evaluation) -> bool {
        match (self.is_feasible(), other.is_feasible()) {
            (true, false) => true,
            (false, true) => false,
            (true, true) => self.objective < other.objective,
            (false, false) => self.violation < other.violation,
        }
    }
}

/// A problem definition for the single-objective GA.
///
/// Implementors supply genome sampling, variation operators and the
/// fitness function. The engine never inspects genomes directly, so any
/// `Clone` type works.
pub trait Problem {
    /// The genome representation.
    type Genome: Clone;

    /// Samples a random genome.
    fn random_genome(&self, rng: &mut dyn Rng) -> Self::Genome;

    /// Recombines two parents into one offspring.
    fn crossover(&self, a: &Self::Genome, b: &Self::Genome, rng: &mut dyn Rng) -> Self::Genome;

    /// Mutates a genome in place.
    fn mutate(&self, genome: &mut Self::Genome, rng: &mut dyn Rng);

    /// Evaluates a genome (objective is minimized).
    fn evaluate(&self, genome: &Self::Genome) -> Evaluation;

    /// Evaluates a whole batch of genomes (one generation's offspring
    /// or the initial population). The engine routes **all** fitness
    /// evaluation through this method, so overriding it is the single
    /// hook for parallel evaluation — e.g. via
    /// [`par_evaluate`], which fans the batch out
    /// over the `carma-exec` pool.
    ///
    /// The default implementation is the serial loop; overrides must
    /// return results in input order and be pure per genome, so that
    /// batch evaluation is bit-identical to the serial path.
    fn evaluate_batch(&self, genomes: &[Self::Genome]) -> Vec<Evaluation> {
        genomes.iter().map(|g| self.evaluate(g)).collect()
    }
}

/// Parallel [`Problem::evaluate_batch`] building block: evaluates the
/// batch on the `carma-exec` pool, preserving input order. Problems
/// whose `evaluate` is pure and `Sync` implement batch parallelism as
///
/// ```ignore
/// fn evaluate_batch(&self, genomes: &[Self::Genome]) -> Vec<Evaluation> {
///     carma_ga::par_evaluate(self, genomes)
/// }
/// ```
///
/// Results are bit-identical to the serial default at any
/// `CARMA_THREADS` setting (see the `carma-exec` determinism
/// contract).
pub fn par_evaluate<P>(problem: &P, genomes: &[P::Genome]) -> Vec<Evaluation>
where
    P: Problem + Sync + ?Sized,
    P::Genome: Sync,
{
    carma_exec::par_map(genomes, |g| problem.evaluate(g))
}

/// Hyper-parameters of the GA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaConfig {
    /// Population size (≥ 2).
    pub population: usize,
    /// Number of generations to evolve.
    pub generations: usize,
    /// Tournament size for parent selection (≥ 1).
    pub tournament: usize,
    /// Probability that an offspring is produced by crossover (else a
    /// clone of the first parent).
    pub crossover_rate: f64,
    /// Probability that an offspring is mutated.
    pub mutation_rate: f64,
    /// Number of best individuals copied unchanged each generation.
    pub elites: usize,
    /// RNG seed; identical seeds give identical runs.
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 48,
            generations: 60,
            tournament: 3,
            crossover_rate: 0.9,
            mutation_rate: 0.35,
            elites: 2,
            seed: 0xCA12_7A5E,
        }
    }
}

impl GaConfig {
    /// Returns the config with a new seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the config with a new population size.
    pub fn with_population(mut self, population: usize) -> Self {
        self.population = population;
        self
    }

    /// Returns the config with a new generation budget.
    pub fn with_generations(mut self, generations: usize) -> Self {
        self.generations = generations;
        self
    }

    fn validate(&self) {
        assert!(self.population >= 2, "population must be ≥ 2");
        assert!(self.tournament >= 1, "tournament must be ≥ 1");
        assert!(
            (0.0..=1.0).contains(&self.crossover_rate),
            "crossover_rate must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.mutation_rate),
            "mutation_rate must be in [0, 1]"
        );
        assert!(self.elites < self.population, "elites must be < population");
    }
}

/// A genome together with its evaluation.
#[derive(Debug, Clone)]
pub struct Individual<G> {
    /// The genome.
    pub genome: G,
    /// Its evaluation.
    pub evaluation: Evaluation,
}

/// Per-generation statistics, for convergence diagnostics and benches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaStats {
    /// Generation index (0-based).
    pub generation: usize,
    /// Best objective among feasible individuals (NaN if none).
    pub best_objective: f64,
    /// Fraction of the population that is feasible.
    pub feasible_fraction: f64,
}

/// The GA engine. Construct with [`GeneticAlgorithm::new`], then call
/// [`run`](GeneticAlgorithm::run), or
/// [`run_with_history`](GeneticAlgorithm::run_with_history) to also
/// collect per-generation statistics.
#[derive(Debug)]
pub struct GeneticAlgorithm<P: Problem> {
    problem: P,
    config: GaConfig,
}

impl<P: Problem> GeneticAlgorithm<P> {
    /// Creates an engine for `problem` with the given hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (population < 2,
    /// rates outside `[0, 1]`, elites ≥ population).
    pub fn new(problem: P, config: GaConfig) -> Self {
        config.validate();
        GeneticAlgorithm { problem, config }
    }

    /// The problem being optimized.
    pub fn problem(&self) -> &P {
        &self.problem
    }

    /// Evolves the population and returns the best individual found
    /// across all generations (by the feasibility rule).
    pub fn run(&self) -> Individual<P::Genome> {
        self.run_with_history().0
    }

    /// Like [`run`](Self::run), with the first individuals of the
    /// initial population taken from `seeds` (truncated to the
    /// population size). Seeding with known-good designs (e.g. the
    /// NVDLA presets) guarantees the GA never returns something worse
    /// than the best seed.
    pub fn run_seeded(&self, seeds: &[P::Genome]) -> Individual<P::Genome> {
        self.evolve(seeds).0
    }

    /// Like [`run`](Self::run) but also returns per-generation stats.
    pub fn run_with_history(&self) -> (Individual<P::Genome>, Vec<GaStats>) {
        self.evolve(&[])
    }

    /// Zips genomes with their batch evaluation into individuals.
    ///
    /// # Panics
    ///
    /// Panics if the problem's `evaluate_batch` override broke the
    /// one-result-per-genome contract.
    fn evaluate_all(&self, genomes: Vec<P::Genome>) -> Vec<Individual<P::Genome>> {
        let _span = carma_trace::span!("ga.eval_batch", "n={}", genomes.len());
        let evaluations = self.problem.evaluate_batch(&genomes);
        assert_eq!(
            evaluations.len(),
            genomes.len(),
            "evaluate_batch must return one Evaluation per genome"
        );
        genomes
            .into_iter()
            .zip(evaluations)
            .map(|(genome, evaluation)| Individual { genome, evaluation })
            .collect()
    }

    fn evolve(&self, seeds: &[P::Genome]) -> (Individual<P::Genome>, Vec<GaStats>) {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // Variation (RNG-sequential) is split from evaluation so each
        // generation goes through `evaluate_batch` as one unit — the
        // hook batch-parallel problems override. The RNG never feeds
        // evaluation, so this phase split is bit-identical to
        // evaluating each genome as it is produced.
        let genomes: Vec<P::Genome> = seeds
            .iter()
            .take(cfg.population)
            .cloned()
            .chain(std::iter::from_fn(|| {
                Some(self.problem.random_genome(&mut rng))
            }))
            .take(cfg.population)
            .collect();
        let mut pop = self.evaluate_all(genomes);

        let mut best = Self::best_of(&pop).clone();
        let mut history = Vec::with_capacity(cfg.generations);
        history.push(Self::stats(0, &pop));

        for generation in 1..=cfg.generations {
            let _span = carma_trace::span!("ga.generation", "gen={generation}");
            Self::sort_by_rule(&mut pop);
            let elites: Vec<Individual<P::Genome>> = pop.iter().take(cfg.elites).cloned().collect();
            let mut children = Vec::with_capacity(cfg.population - elites.len());
            while elites.len() + children.len() < cfg.population {
                let p1 = self.tournament(&pop, &mut rng);
                let p2 = self.tournament(&pop, &mut rng);
                let mut child = if rng.random_bool(cfg.crossover_rate) {
                    self.problem
                        .crossover(&pop[p1].genome, &pop[p2].genome, &mut rng)
                } else {
                    pop[p1].genome.clone()
                };
                if rng.random_bool(cfg.mutation_rate) {
                    self.problem.mutate(&mut child, &mut rng);
                }
                children.push(child);
            }
            let mut next = elites;
            next.extend(self.evaluate_all(children));
            pop = next;
            let gen_best = Self::best_of(&pop);
            if gen_best.evaluation.better_than(&best.evaluation) {
                best = gen_best.clone();
            }
            history.push(Self::stats(generation, &pop));
        }
        (best, history)
    }

    fn tournament(&self, pop: &[Individual<P::Genome>], rng: &mut StdRng) -> usize {
        let mut winner = rng.random_range(0..pop.len());
        for _ in 1..self.config.tournament {
            let challenger = rng.random_range(0..pop.len());
            if pop[challenger]
                .evaluation
                .better_than(&pop[winner].evaluation)
            {
                winner = challenger;
            }
        }
        winner
    }

    fn sort_by_rule(pop: &mut [Individual<P::Genome>]) {
        pop.sort_by(|a, b| {
            if a.evaluation.better_than(&b.evaluation) {
                std::cmp::Ordering::Less
            } else if b.evaluation.better_than(&a.evaluation) {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        });
    }

    fn best_of(pop: &[Individual<P::Genome>]) -> &Individual<P::Genome> {
        pop.iter()
            .reduce(|best, x| {
                if x.evaluation.better_than(&best.evaluation) {
                    x
                } else {
                    best
                }
            })
            .expect("population is non-empty")
    }

    fn stats(generation: usize, pop: &[Individual<P::Genome>]) -> GaStats {
        let feasible: Vec<_> = pop.iter().filter(|i| i.evaluation.is_feasible()).collect();
        GaStats {
            generation,
            best_objective: feasible
                .iter()
                .map(|i| i.evaluation.objective)
                .fold(f64::NAN, f64::min),
            feasible_fraction: feasible.len() as f64 / pop.len() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize sum of squares over a fixed-length real vector.
    struct Sphere {
        dims: usize,
    }

    impl Problem for Sphere {
        type Genome = Vec<f64>;

        fn random_genome(&self, rng: &mut dyn Rng) -> Vec<f64> {
            (0..self.dims)
                .map(|_| rng.random_range(-5.0..5.0))
                .collect()
        }

        fn crossover(&self, a: &Vec<f64>, b: &Vec<f64>, rng: &mut dyn Rng) -> Vec<f64> {
            a.iter()
                .zip(b)
                .map(|(&x, &y)| if rng.random_bool(0.5) { x } else { y })
                .collect()
        }

        fn mutate(&self, g: &mut Vec<f64>, rng: &mut dyn Rng) {
            let i = rng.random_range(0..g.len());
            g[i] += rng.random_range(-0.5..0.5);
        }

        fn evaluate(&self, g: &Vec<f64>) -> Evaluation {
            Evaluation::feasible(g.iter().map(|x| x * x).sum())
        }
    }

    /// Minimize x, subject to x ≥ 3 (optimum exactly at the boundary).
    struct BoundaryProblem;

    impl Problem for BoundaryProblem {
        type Genome = f64;

        fn random_genome(&self, rng: &mut dyn Rng) -> f64 {
            rng.random_range(-10.0..10.0)
        }

        fn crossover(&self, a: &f64, b: &f64, _rng: &mut dyn Rng) -> f64 {
            (a + b) / 2.0
        }

        fn mutate(&self, g: &mut f64, rng: &mut dyn Rng) {
            *g += rng.random_range(-1.0..1.0);
        }

        fn evaluate(&self, g: &f64) -> Evaluation {
            Evaluation::with_violation(*g, 3.0 - *g)
        }
    }

    #[test]
    fn feasibility_rule_ordering() {
        let feasible_good = Evaluation::feasible(1.0);
        let feasible_bad = Evaluation::feasible(2.0);
        let infeasible_small = Evaluation::with_violation(0.0, 0.1);
        let infeasible_large = Evaluation::with_violation(0.0, 5.0);

        assert!(feasible_good.better_than(&feasible_bad));
        assert!(feasible_bad.better_than(&infeasible_small));
        assert!(infeasible_small.better_than(&infeasible_large));
        assert!(!infeasible_large.better_than(&feasible_good));
    }

    #[test]
    fn violation_is_clamped() {
        let e = Evaluation::with_violation(1.0, -3.0);
        assert!(e.is_feasible());
    }

    #[test]
    fn sphere_converges() {
        let ga = GeneticAlgorithm::new(
            Sphere { dims: 4 },
            GaConfig::default().with_seed(42).with_generations(80),
        );
        let best = ga.run();
        assert!(
            best.evaluation.objective < 0.5,
            "GA failed to converge: {}",
            best.evaluation.objective
        );
    }

    #[test]
    fn constrained_optimum_sits_on_boundary() {
        let ga = GeneticAlgorithm::new(
            BoundaryProblem,
            GaConfig::default().with_seed(1).with_generations(100),
        );
        let best = ga.run();
        assert!(best.evaluation.is_feasible());
        assert!(
            (best.genome - 3.0).abs() < 0.2,
            "expected x ≈ 3, got {}",
            best.genome
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let run = |seed| {
            GeneticAlgorithm::new(Sphere { dims: 3 }, GaConfig::default().with_seed(seed))
                .run()
                .evaluation
                .objective
        };
        assert_eq!(run(9).to_bits(), run(9).to_bits());
        // Different seeds almost surely differ.
        assert_ne!(run(9).to_bits(), run(10).to_bits());
    }

    #[test]
    fn history_has_expected_length_and_improves() {
        let ga = GeneticAlgorithm::new(Sphere { dims: 4 }, GaConfig::default().with_seed(5));
        let (_, history) = ga.run_with_history();
        assert_eq!(history.len(), GaConfig::default().generations + 1);
        let first = history.first().unwrap().best_objective;
        let last = history.last().unwrap().best_objective;
        assert!(last <= first);
    }

    /// `Sphere` with `evaluate_batch` overridden to the parallel
    /// helper — the GA must produce bit-identical runs either way.
    struct ParSphere {
        dims: usize,
    }

    impl Problem for ParSphere {
        type Genome = Vec<f64>;

        fn random_genome(&self, rng: &mut dyn Rng) -> Vec<f64> {
            Sphere { dims: self.dims }.random_genome(rng)
        }

        fn crossover(&self, a: &Vec<f64>, b: &Vec<f64>, rng: &mut dyn Rng) -> Vec<f64> {
            Sphere { dims: self.dims }.crossover(a, b, rng)
        }

        fn mutate(&self, g: &mut Vec<f64>, rng: &mut dyn Rng) {
            Sphere { dims: self.dims }.mutate(g, rng);
        }

        fn evaluate(&self, g: &Vec<f64>) -> Evaluation {
            Sphere { dims: self.dims }.evaluate(g)
        }

        fn evaluate_batch(&self, genomes: &[Vec<f64>]) -> Vec<Evaluation> {
            crate::par_evaluate(self, genomes)
        }
    }

    #[test]
    fn default_evaluate_batch_matches_serial_loop() {
        let p = Sphere { dims: 3 };
        let genomes = vec![
            vec![1.0, 2.0, 3.0],
            vec![0.0, 0.0, 0.0],
            vec![-1.5, 0.5, 2.0],
        ];
        let batch = p.evaluate_batch(&genomes);
        for (g, e) in genomes.iter().zip(&batch) {
            assert_eq!(p.evaluate(g), *e);
        }
    }

    #[test]
    fn parallel_batch_override_is_bit_identical() {
        let serial = GeneticAlgorithm::new(
            Sphere { dims: 4 },
            GaConfig::default().with_seed(33).with_generations(12),
        )
        .run();
        for threads in [1, 4] {
            let parallel = carma_exec::with_threads(threads, || {
                GeneticAlgorithm::new(
                    ParSphere { dims: 4 },
                    GaConfig::default().with_seed(33).with_generations(12),
                )
                .run()
            });
            assert_eq!(
                serial.evaluation.objective.to_bits(),
                parallel.evaluation.objective.to_bits(),
                "threads = {threads}"
            );
            assert_eq!(serial.genome, parallel.genome, "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "one Evaluation per genome")]
    fn short_batch_result_rejected() {
        struct Broken;
        impl Problem for Broken {
            type Genome = f64;
            fn random_genome(&self, rng: &mut dyn Rng) -> f64 {
                rng.random_range(-1.0..1.0)
            }
            fn crossover(&self, a: &f64, _b: &f64, _rng: &mut dyn Rng) -> f64 {
                *a
            }
            fn mutate(&self, _g: &mut f64, _rng: &mut dyn Rng) {}
            fn evaluate(&self, g: &f64) -> Evaluation {
                Evaluation::feasible(*g)
            }
            fn evaluate_batch(&self, _genomes: &[f64]) -> Vec<Evaluation> {
                Vec::new() // violates the contract
            }
        }
        let _ = GeneticAlgorithm::new(Broken, GaConfig::default()).run();
    }

    #[test]
    #[should_panic(expected = "population must be ≥ 2")]
    fn tiny_population_rejected() {
        let cfg = GaConfig {
            population: 1,
            ..GaConfig::default()
        };
        let _ = GeneticAlgorithm::new(Sphere { dims: 2 }, cfg);
    }

    #[test]
    #[should_panic(expected = "elites must be < population")]
    fn too_many_elites_rejected() {
        let cfg = GaConfig {
            population: 4,
            elites: 4,
            ..GaConfig::default()
        };
        let _ = GeneticAlgorithm::new(Sphere { dims: 2 }, cfg);
    }
}
