//! NSGA-II multi-objective optimizer (Deb et al., 2002).
//!
//! Used by `carma-multiplier` to search the approximation design space
//! for near-Pareto-optimal (area, error) multipliers, as the paper's
//! step one prescribes: *"approximations are guided by a
//! multi-objective optimization algorithm that explores the design
//! space to identify near-Pareto-optimal solutions"*.
//!
//! All objectives are minimized.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// A problem definition for NSGA-II. All objectives are minimized.
pub trait MultiObjectiveProblem {
    /// The genome representation.
    type Genome: Clone;

    /// Number of objectives (must match `evaluate`'s output length).
    fn objectives(&self) -> usize;

    /// Samples a random genome.
    fn random_genome(&self, rng: &mut dyn Rng) -> Self::Genome;

    /// Recombines two parents into one offspring.
    fn crossover(&self, a: &Self::Genome, b: &Self::Genome, rng: &mut dyn Rng) -> Self::Genome;

    /// Mutates a genome in place.
    fn mutate(&self, genome: &mut Self::Genome, rng: &mut dyn Rng);

    /// Evaluates a genome into one value per objective (minimized).
    fn evaluate(&self, genome: &Self::Genome) -> Vec<f64>;

    /// Evaluates a whole batch of genomes. The engine routes all
    /// fitness evaluation through this method; override it (e.g. with
    /// [`carma_exec::par_map`]) to evaluate a generation in parallel.
    /// Overrides must return results in input order and be pure per
    /// genome, keeping batch evaluation bit-identical to the serial
    /// default.
    fn evaluate_batch(&self, genomes: &[Self::Genome]) -> Vec<Vec<f64>> {
        genomes.iter().map(|g| self.evaluate(g)).collect()
    }
}

/// A genome with its objective vector, as stored on the final front.
#[derive(Debug, Clone)]
pub struct ParetoIndividual<G> {
    /// The genome.
    pub genome: G,
    /// Objective values (minimized, same order as `evaluate`).
    pub objectives: Vec<f64>,
}

/// Hyper-parameters of the NSGA-II run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Nsga2Config {
    /// Population size (≥ 4, even).
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Probability of crossover per offspring.
    pub crossover_rate: f64,
    /// Probability of mutation per offspring.
    pub mutation_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Nsga2Config {
            population: 64,
            generations: 50,
            crossover_rate: 0.9,
            mutation_rate: 0.4,
            seed: 0x9A5A_2D0E,
        }
    }
}

impl Nsga2Config {
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
        assert!(self.population >= 4, "population must be ≥ 4");
        assert!(self.population.is_multiple_of(2), "population must be even");
        assert!(
            (0.0..=1.0).contains(&self.crossover_rate) && (0.0..=1.0).contains(&self.mutation_rate),
            "rates must be in [0, 1]"
        );
    }
}

/// Returns `true` if `a` Pareto-dominates `b` (no worse in every
/// objective, strictly better in at least one; minimization).
fn dominates(a: &[f64], b: &[f64]) -> bool {
    let mut strictly_better = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Fast non-dominated sort: partitions indices `0..objs.len()` into
/// fronts; front 0 is the non-dominated set.
pub fn fast_non_dominated_sort(objs: &[Vec<f64>]) -> Vec<Vec<usize>> {
    let n = objs.len();
    let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut domination_count = vec![0usize; n];
    let mut fronts: Vec<Vec<usize>> = vec![Vec::new()];

    for p in 0..n {
        for q in 0..n {
            if p == q {
                continue;
            }
            if dominates(&objs[p], &objs[q]) {
                dominated_by[p].push(q);
            } else if dominates(&objs[q], &objs[p]) {
                domination_count[p] += 1;
            }
        }
        if domination_count[p] == 0 {
            fronts[0].push(p);
        }
    }

    let mut i = 0;
    while !fronts[i].is_empty() {
        let mut next = Vec::new();
        for &p in &fronts[i] {
            for &q in &dominated_by[p] {
                domination_count[q] -= 1;
                if domination_count[q] == 0 {
                    next.push(q);
                }
            }
        }
        i += 1;
        fronts.push(next);
    }
    fronts.pop(); // the trailing empty front
    fronts
}

/// Crowding distance of each member of one front (indices into `objs`).
///
/// Boundary points get `f64::INFINITY`; interior points get the usual
/// normalized cuboid perimeter contribution.
pub fn crowding_distance(objs: &[Vec<f64>], front: &[usize]) -> Vec<f64> {
    let m = if front.is_empty() {
        return Vec::new();
    } else {
        objs[front[0]].len()
    };
    let mut distance = vec![0.0f64; front.len()];
    // `obj` selects the objective *column* inside doubly-indexed
    // lookups; an iterator over `objs` rows (clippy's suggestion) would
    // be wrong.
    #[allow(clippy::needless_range_loop)]
    for obj in 0..m {
        let mut order: Vec<usize> = (0..front.len()).collect();
        order.sort_by(|&a, &b| {
            objs[front[a]][obj]
                .partial_cmp(&objs[front[b]][obj])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let lo = objs[front[order[0]]][obj];
        let hi = objs[front[*order.last().unwrap()]][obj];
        distance[order[0]] = f64::INFINITY;
        distance[*order.last().unwrap()] = f64::INFINITY;
        let span = hi - lo;
        if span <= 0.0 {
            continue;
        }
        for w in 1..order.len().saturating_sub(1) {
            let prev = objs[front[order[w - 1]]][obj];
            let next = objs[front[order[w + 1]]][obj];
            distance[order[w]] += (next - prev) / span;
        }
    }
    distance
}

/// The NSGA-II engine.
#[derive(Debug)]
pub struct Nsga2<P: MultiObjectiveProblem> {
    problem: P,
    config: Nsga2Config,
}

struct Member<G> {
    genome: G,
    objectives: Vec<f64>,
    rank: usize,
    crowding: f64,
}

impl<P: MultiObjectiveProblem> Nsga2<P> {
    /// Creates an engine for `problem`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`Nsga2Config`]).
    pub fn new(problem: P, config: Nsga2Config) -> Self {
        config.validate();
        Nsga2 { problem, config }
    }

    /// The problem being optimized.
    pub fn problem(&self) -> &P {
        &self.problem
    }

    /// Batch-evaluates `genomes` into pool members (rank/crowding
    /// unset).
    ///
    /// # Panics
    ///
    /// Panics if the problem's `evaluate_batch` override broke the
    /// one-result-per-genome contract.
    fn evaluate_all(&self, genomes: Vec<P::Genome>) -> Vec<Member<P::Genome>> {
        let _span = carma_trace::span!("nsga2.eval_batch", "n={}", genomes.len());
        carma_trace::counter("nsga2.evals", genomes.len() as u64);
        let objectives = self.problem.evaluate_batch(&genomes);
        assert_eq!(
            objectives.len(),
            genomes.len(),
            "evaluate_batch must return one objective vector per genome"
        );
        genomes
            .into_iter()
            .zip(objectives)
            .map(|(genome, objectives)| {
                debug_assert_eq!(objectives.len(), self.problem.objectives());
                Member {
                    genome,
                    objectives,
                    rank: 0,
                    crowding: 0.0,
                }
            })
            .collect()
    }

    /// Runs the optimization and returns the final non-dominated front.
    pub fn run(&self) -> Vec<ParetoIndividual<P::Genome>> {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // As in the single-objective engine, variation (RNG-sequential)
        // is split from evaluation so every generation flows through
        // `evaluate_batch` — the batch-parallelism hook. Evaluation
        // never touches the RNG, so the split is bit-identical to the
        // interleaved formulation.
        let genomes: Vec<P::Genome> = (0..cfg.population)
            .map(|_| self.problem.random_genome(&mut rng))
            .collect();
        let mut pop = self.evaluate_all(genomes);
        Self::assign_rank_and_crowding(&mut pop);

        for generation in 0..cfg.generations {
            let _span = carma_trace::span!("nsga2.generation", "gen={generation}");
            // Produce offspring by binary tournament on (rank, crowding).
            let mut children: Vec<P::Genome> = Vec::with_capacity(cfg.population);
            while children.len() < cfg.population {
                let p1 = Self::binary_tournament(&pop, &mut rng);
                let p2 = Self::binary_tournament(&pop, &mut rng);
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
            let offspring = self.evaluate_all(children);

            // Environmental selection over parents ∪ offspring.
            pop.extend(offspring);
            let objs: Vec<Vec<f64>> = pop.iter().map(|m| m.objectives.clone()).collect();
            let fronts = fast_non_dominated_sort(&objs);
            let mut taken = vec![false; pop.len()];
            let mut count = 0usize;
            for front in &fronts {
                if count + front.len() <= cfg.population {
                    for &i in front {
                        taken[i] = true;
                    }
                    count += front.len();
                } else {
                    // Partial front: keep the most spread-out members.
                    let cd = crowding_distance(&objs, front);
                    let mut order: Vec<usize> = (0..front.len()).collect();
                    order.sort_by(|&a, &b| {
                        cd[b]
                            .partial_cmp(&cd[a])
                            .unwrap_or(std::cmp::Ordering::Equal)
                    });
                    for &w in order.iter().take(cfg.population - count) {
                        taken[front[w]] = true;
                    }
                    count = cfg.population;
                }
                if count == cfg.population {
                    break;
                }
            }
            let mut idx = 0;
            pop.retain(|_| {
                let keep = taken[idx];
                idx += 1;
                keep
            });
            Self::assign_rank_and_crowding(&mut pop);
        }

        // Return front 0.
        pop.into_iter()
            .filter(|m| m.rank == 0)
            .map(|m| ParetoIndividual {
                genome: m.genome,
                objectives: m.objectives,
            })
            .collect()
    }

    fn assign_rank_and_crowding(pop: &mut [Member<P::Genome>]) {
        let objs: Vec<Vec<f64>> = pop.iter().map(|m| m.objectives.clone()).collect();
        let fronts = fast_non_dominated_sort(&objs);
        for (rank, front) in fronts.iter().enumerate() {
            let cd = crowding_distance(&objs, front);
            for (w, &i) in front.iter().enumerate() {
                pop[i].rank = rank;
                pop[i].crowding = cd[w];
            }
        }
    }

    fn binary_tournament(pop: &[Member<P::Genome>], rng: &mut StdRng) -> usize {
        let a = rng.random_range(0..pop.len());
        let b = rng.random_range(0..pop.len());
        let better = |x: &Member<P::Genome>, y: &Member<P::Genome>| {
            x.rank < y.rank || (x.rank == y.rank && x.crowding > y.crowding)
        };
        if better(&pop[a], &pop[b]) {
            a
        } else {
            b
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_relation() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0])); // trade-off
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0])); // equal
    }

    #[test]
    fn sort_partitions_into_correct_fronts() {
        let objs = vec![
            vec![1.0, 4.0], // front 0
            vec![2.0, 3.0], // front 0
            vec![4.0, 1.0], // front 0
            vec![3.0, 4.0], // dominated by (1,4)? no: 1<3, 4==4 → dominated
            vec![5.0, 5.0], // dominated by everything
        ];
        let fronts = fast_non_dominated_sort(&objs);
        assert_eq!(fronts[0], vec![0, 1, 2]);
        assert!(fronts[1].contains(&3));
        assert!(fronts.last().unwrap().contains(&4));
    }

    #[test]
    fn crowding_rewards_boundary_points() {
        let objs = vec![vec![0.0, 10.0], vec![5.0, 5.0], vec![10.0, 0.0]];
        let front = vec![0, 1, 2];
        let cd = crowding_distance(&objs, &front);
        assert!(cd[0].is_infinite());
        assert!(cd[2].is_infinite());
        assert!(cd[1].is_finite() && cd[1] > 0.0);
    }

    #[test]
    fn crowding_handles_degenerate_front() {
        let objs = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        let cd = crowding_distance(&objs, &[0, 1]);
        assert_eq!(cd.len(), 2);
        assert!(cd.iter().all(|d| d.is_infinite()));
    }

    /// Schaffer's problem N.1: f1 = x², f2 = (x−2)²; the Pareto set is
    /// x ∈ [0, 2].
    struct Schaffer;

    impl MultiObjectiveProblem for Schaffer {
        type Genome = f64;

        fn objectives(&self) -> usize {
            2
        }

        fn random_genome(&self, rng: &mut dyn Rng) -> f64 {
            rng.random_range(-10.0..10.0)
        }

        fn crossover(&self, a: &f64, b: &f64, rng: &mut dyn Rng) -> f64 {
            let t: f64 = rng.random_range(0.0..1.0);
            a * t + b * (1.0 - t)
        }

        fn mutate(&self, g: &mut f64, rng: &mut dyn Rng) {
            *g += rng.random_range(-0.5..0.5);
        }

        fn evaluate(&self, g: &f64) -> Vec<f64> {
            vec![g * g, (g - 2.0) * (g - 2.0)]
        }
    }

    #[test]
    fn schaffer_front_is_found() {
        let nsga = Nsga2::new(Schaffer, Nsga2Config::default().with_seed(3));
        let front = nsga.run();
        assert!(front.len() >= 8, "front too small: {}", front.len());
        // All solutions near the true Pareto set x ∈ [0, 2].
        for p in &front {
            assert!(
                p.genome > -0.3 && p.genome < 2.3,
                "off-front solution x = {}",
                p.genome
            );
        }
        // Non-domination within the returned front.
        for a in &front {
            for b in &front {
                assert!(
                    !dominates(&a.objectives, &b.objectives) || a.objectives == b.objectives,
                    "front member {:?} dominates {:?}",
                    a.objectives,
                    b.objectives
                );
            }
        }
        let objs: Vec<Vec<f64>> = front.iter().map(|p| p.objectives.clone()).collect();
        let fronts = fast_non_dominated_sort(&objs);
        assert_eq!(fronts.len(), 1, "returned front must be non-dominated");
    }

    #[test]
    fn runs_are_deterministic() {
        let run = |seed| {
            let front = Nsga2::new(Schaffer, Nsga2Config::default().with_seed(seed)).run();
            front.iter().map(|p| p.genome).fold(0.0, f64::max)
        };
        assert_eq!(run(11).to_bits(), run(11).to_bits());
    }

    /// Schaffer with `evaluate_batch` overridden to run on the
    /// `carma-exec` pool.
    struct ParSchaffer;

    impl MultiObjectiveProblem for ParSchaffer {
        type Genome = f64;

        fn objectives(&self) -> usize {
            2
        }

        fn random_genome(&self, rng: &mut dyn Rng) -> f64 {
            Schaffer.random_genome(rng)
        }

        fn crossover(&self, a: &f64, b: &f64, rng: &mut dyn Rng) -> f64 {
            Schaffer.crossover(a, b, rng)
        }

        fn mutate(&self, g: &mut f64, rng: &mut dyn Rng) {
            Schaffer.mutate(g, rng);
        }

        fn evaluate(&self, g: &f64) -> Vec<f64> {
            Schaffer.evaluate(g)
        }

        fn evaluate_batch(&self, genomes: &[f64]) -> Vec<Vec<f64>> {
            carma_exec::par_map(genomes, |g| self.evaluate(g))
        }
    }

    #[test]
    fn parallel_batch_override_is_bit_identical() {
        let cfg = Nsga2Config::default().with_seed(29).with_generations(12);
        let serial = Nsga2::new(Schaffer, cfg).run();
        for threads in [1, 4] {
            let parallel = carma_exec::with_threads(threads, || Nsga2::new(ParSchaffer, cfg).run());
            assert_eq!(serial.len(), parallel.len(), "threads = {threads}");
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.genome.to_bits(), b.genome.to_bits());
                assert_eq!(a.objectives, b.objectives);
            }
        }
    }

    #[test]
    #[should_panic(expected = "population must be even")]
    fn odd_population_rejected() {
        let cfg = Nsga2Config {
            population: 5,
            ..Nsga2Config::default()
        };
        let _ = Nsga2::new(Schaffer, cfg);
    }
}
