//! Seeded workload generation. Every workload is a stream of blocks;
//! each block holds a fixed multiset of items (so class shares are
//! exact for every seed), and the seed draws the free parameters (GA
//! seeds, nodes, models, constraints, objectives, zipf ranks) and the
//! order inside the block. The program only ever sees the generated
//! specs.

use carma_core::scenario::{DeploymentSpec, GaSpec, ScenarioSpec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The library fixtures the imported classes read. They live beside
/// the benchmark so that its inputs stay fixed while the repository's
/// own examples evolve.
#[derive(Debug, Clone)]
pub struct Fixtures {
    /// Admissible 8-bit Verilog library (three modules).
    pub approx8: String,
    /// Admissible 4-bit EDIF library (lint only: not 8-bit).
    pub approx4: String,
    /// Strict-rejected Verilog library.
    pub corrupted: String,
}

impl Fixtures {
    /// The fixtures shipped in the benchmark's `fixtures/` directory.
    pub fn bundled() -> Self {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/");
        Fixtures {
            approx8: format!("{dir}approx8.v"),
            approx4: format!("{dir}approx4.edf"),
            corrupted: format!("{dir}corrupted.v"),
        }
    }

    /// Reads every fixture once (the set-up cost of "reading
    /// fixtures").
    pub fn read_all(&self) -> std::io::Result<()> {
        for path in [&self.approx8, &self.approx4, &self.corrupted] {
            std::fs::read(path)?;
        }
        Ok(())
    }
}

/// One generated item: a class label and what to send.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    /// Item class (cost class of the workload).
    pub class: &'static str,
    /// The operation.
    pub op: Op,
}

/// What an item asks the program to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Run this spec; it must succeed.
    Run(ScenarioSpec),
    /// Run this spec; it must be rejected at resolve time.
    Reject(ScenarioSpec),
    /// Serve: `POST /run` of a spec never sent before (must miss).
    Fresh(ScenarioSpec),
    /// Serve: `POST /run` of a spec already answered (must hit). The
    /// client maps `u` (uniform in `[0, 1)`) to a zipf rank over the
    /// specs of that source it holds results for, oldest first.
    Repeat {
        /// Whether to repeat an imported-library spec.
        imported: bool,
        /// The zipf draw.
        u: f64,
    },
    /// Serve: one `POST /run` with an array body.
    Batch(Vec<Op>),
}

/// Deterministic block stream of one workload.
pub struct Deck {
    rng: StdRng,
    kind: DeckKind,
    fixtures: Fixtures,
    serial: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeckKind {
    Cold,
    Lint,
    Serve,
}

const NODES: [&str; 3] = ["7nm", "14nm", "28nm"];
const MODELS: [&str; 2] = ["vgg16", "resnet50"];

/// The cold single-node experiments, each paired with both models in
/// every block.
const COLD_SINGLE: [&str; 3] = ["fig2", "deployment", "ablation_metric"];

/// Library-lint block: (class, source, depth, copies). Cold lint
/// costs fall into well-separated steps: `corrupted.v` and
/// `approx4.edf` under 1 ms, ladder depth 1 about 11 ms, then a 25–28 ms
/// step (`approx8.v`, ladder depth 2, classic depth 1) and dearer
/// builtin libraries up to about 110 ms, and the evolved search at
/// 0.4–0.7 s. Thirteen items sit below ladder depth 1, thirteen are
/// ladder depth 1 and fourteen sit above, so the median rank is the
/// middle of the ladder depth 1 class, six ranks from either
/// neighbour; the tail rank falls inside `evolved` (see README.md).
const LINT_BLOCK: [(&str, &str, Option<u8>, usize); 12] = [
    ("imported", "corrupted", None, 5),
    ("imported", "approx4", None, 8),
    ("builtin", "ladder", Some(1), 13),
    ("imported", "approx8", None, 2),
    ("builtin", "ladder", Some(2), 2),
    ("builtin", "classic", Some(1), 2),
    ("builtin", "ladder", Some(3), 1),
    ("builtin", "classic", Some(2), 1),
    ("builtin", "ladder", Some(4), 1),
    ("builtin", "classic", Some(3), 1),
    ("builtin", "classic", Some(4), 1),
    ("evolved", "evolved", None, 3),
];

/// Serve block composition: (class, copies).
const SERVE_BLOCK: [(&str, usize); 3] = [("repeat", 14), ("fresh", 25), ("batch", 1)];

/// Builtin repeats among the fourteen `repeat` items of a serve block
/// (the other four repeat imported-library specs).
const SERVE_BUILTIN_REPEATS: usize = 10;

/// The experiments fresh specs vary: fig2 (new constraints),
/// deployment (new objective and deployment profile) and
/// ablation_metric (four fitness metrics).
const SERVE_EXPERIMENTS: [&str; 3] = ["fig2", "deployment", "ablation_metric"];

/// GA budgets (population × generations) of the builtin fresh singles
/// that hold the median rank: every ladder and classic experiment at
/// each budget, 18 specs of 3–8 ms.
const SERVE_MEDIAN_BUDGETS: [(usize, usize); 3] = [(12, 8), (16, 12), (24, 18)];

/// The other fresh specs of one serve block, as (library, experiment,
/// GA budget): seven dearer singles (6–21 ms, ranked with the imported
/// repeats above the middle of the median class and below the batch),
/// then the three fresh specs of the batch body.
const SERVE_DEAR_FRESH: [(&str, &str, (usize, usize)); 10] = [
    ("ladder", "fig2", (32, 24)),
    ("classic", "ablation_metric", (32, 24)),
    ("ladder", "ablation_metric", (48, 30)),
    ("classic", "deployment", (48, 30)),
    ("imported", "fig2", (12, 8)),
    ("imported", "deployment", (16, 12)),
    ("imported", "ablation_metric", (24, 18)),
    // batch body
    ("ladder", "deployment", (16, 12)),
    ("classic", "fig2", (24, 18)),
    ("imported", "ablation_metric", (12, 8)),
];

/// Below this GA budget a resolvable spec can panic with "GA-CDP found
/// no feasible design" (about 60 % of fig2 specs on vgg16 at 8×4, 1
/// in 200 classic fig2 specs at 10×6; none in 1,000 per library and
/// model at 12×8), so no spec is generated under it: the benchmark's
/// operations must not fail. See README.md.
const MIN_BUDGET: (usize, usize) = (12, 8);

/// Fresh specs per batch body.
const BATCH_FRESH: usize = 3;

/// Elements in one serve batch body.
const BATCH_LEN: usize = 8;

/// Fresh specs one serve block sends: 25 singles and the batch's 3.
const SERVE_FRESH_PER_BLOCK: usize =
    2 * SERVE_EXPERIMENTS.len() * SERVE_MEDIAN_BUDGETS.len() + SERVE_DEAR_FRESH.len();

impl Deck {
    /// The `cold_scenarios` stream: blocks of six `single_node` items
    /// (fig2 / deployment / ablation_metric × vgg16 / resnet50, random
    /// node and GA seed) and two `three_node` table1 items.
    pub fn cold(seed: u64) -> Self {
        Self::new(seed, DeckKind::Cold, Fixtures::bundled())
    }

    /// The `library_lint` stream: blocks of 40 cold `lint` runs, one
    /// library source each (see `LINT_BLOCK`).
    pub fn lint(seed: u64, fixtures: Fixtures) -> Self {
        Self::new(seed, DeckKind::Lint, fixtures)
    }

    /// The `serve_sweep` stream: blocks of 40 requests — fourteen
    /// repeats, 25 fresh specs and one batch body.
    pub fn serve(seed: u64, fixtures: Fixtures) -> Self {
        Self::new(seed, DeckKind::Serve, fixtures)
    }

    fn new(seed: u64, kind: DeckKind, fixtures: Fixtures) -> Self {
        Deck {
            rng: StdRng::seed_from_u64(seed ^ 0xC0A1_BE4C),
            kind,
            fixtures,
            serial: 0,
        }
    }

    /// The next block, in send order.
    pub fn next_block(&mut self) -> Vec<Item> {
        let mut block = match self.kind {
            DeckKind::Cold => self.cold_block(),
            DeckKind::Lint => self.lint_block(),
            DeckKind::Serve => self.serve_block(),
        };
        shuffle(&mut self.rng, &mut block);
        block
    }

    /// The first `blocks` blocks, concatenated.
    pub fn take_blocks(&mut self, blocks: usize) -> Vec<Item> {
        (0..blocks).flat_map(|_| self.next_block()).collect()
    }

    fn pick<'a, T>(&mut self, options: &'a [T]) -> &'a T {
        &options[self.rng.random_range(0..options.len())]
    }

    fn cold_block(&mut self) -> Vec<Item> {
        let mut block = Vec::with_capacity(8);
        for experiment in COLD_SINGLE {
            for model in MODELS {
                let node = *self.pick(&NODES);
                let mut spec = cold_spec(experiment, model);
                spec.node = node.to_string();
                spec.seed = Some(self.rng.random::<u32>().into());
                block.push(Item {
                    class: "single_node",
                    op: Op::Run(spec),
                });
            }
        }
        for model in MODELS {
            let mut spec = cold_spec("table1", model);
            spec.seed = Some(self.rng.random::<u32>().into());
            block.push(Item {
                class: "three_node",
                op: Op::Run(spec),
            });
        }
        block
    }

    fn lint_block(&mut self) -> Vec<Item> {
        let mut block = Vec::new();
        for &(class, source, depth, copies) in &LINT_BLOCK {
            for _ in 0..copies {
                let spec = lint_spec(&self.fixtures, source, depth);
                block.push(Item {
                    class,
                    op: if source == "corrupted" {
                        Op::Reject(spec)
                    } else {
                        Op::Run(spec)
                    },
                });
            }
        }
        block
    }

    fn serve_block(&mut self) -> Vec<Item> {
        let mut templates = Vec::with_capacity(SERVE_FRESH_PER_BLOCK);
        for library in ["ladder", "classic"] {
            for experiment in SERVE_EXPERIMENTS {
                for budget in SERVE_MEDIAN_BUDGETS {
                    templates.push((library, experiment, budget));
                }
            }
        }
        templates.extend(SERVE_DEAR_FRESH);
        let mut fresh = templates
            .into_iter()
            .map(|(library, experiment, budget)| self.fresh_spec(library, experiment, budget))
            .collect::<Vec<_>>()
            .into_iter();
        let mut block = Vec::new();
        for &(class, copies) in &SERVE_BLOCK {
            for i in 0..copies {
                let op = match class {
                    "repeat" => Op::Repeat {
                        imported: i >= SERVE_BUILTIN_REPEATS,
                        u: self.rng.random::<f64>(),
                    },
                    "fresh" => Op::Fresh(fresh.next().expect("25 single fresh specs")),
                    _ => Op::Batch(self.batch(fresh.by_ref().take(BATCH_FRESH).collect())),
                };
                block.push(Item { class, op });
            }
        }
        block
    }

    /// A batch body: three fresh specs (the first sent twice), two
    /// builtin repeats (the first sent twice) and one imported repeat,
    /// in random order.
    fn batch(&mut self, fresh: Vec<ScenarioSpec>) -> Vec<Op> {
        let mut ops = Vec::with_capacity(BATCH_LEN);
        ops.extend(fresh.into_iter().map(Op::Fresh));
        ops.push(ops[0].clone());
        for imported in [false, false, true] {
            ops.push(Op::Repeat {
                imported,
                u: self.rng.random::<f64>(),
            });
        }
        ops.push(ops[4].clone());
        shuffle(&mut self.rng, &mut ops);
        ops
    }

    /// A spec no earlier item sent: a unique GA seed on one of the
    /// warm 7 nm contexts at the given budget, with the
    /// experiment's variation drawn (constraints for fig2, objective
    /// and deployment profile for deployment).
    pub fn fresh_spec(
        &mut self,
        library: &str,
        experiment: &str,
        (population, generations): (usize, usize),
    ) -> ScenarioSpec {
        assert!(
            population >= MIN_BUDGET.0 && generations >= MIN_BUDGET.1,
            "GA budget {population}×{generations} is below {MIN_BUDGET:?}"
        );
        self.serial += 1;
        let mut spec = serve_base(&self.fixtures, experiment, library);
        spec.model = self.pick(&SERVE_MODELS).to_string();
        spec.ga = Some(GaSpec {
            population: Some(population),
            generations: Some(generations),
            ..GaSpec::default()
        });
        // Unique per spec, so a fresh spec can never be a cache hit.
        spec.seed = Some((u64::from(self.rng.random::<u32>()) << 20) | self.serial);
        match experiment {
            "fig2" => {
                let fps = self.pick(&[[30.0, 40.0, 50.0], [25.0, 35.0, 45.0], [20.0, 30.0, 40.0]]);
                spec.fps_thresholds = fps.to_vec();
                let classes = self.pick(&[[0.005, 0.01, 0.02], [0.01, 0.02, 0.03]]);
                spec.accuracy_classes = classes.to_vec();
            }
            "deployment" => {
                spec.objective = self
                    .pick(&["cdp", "total-carbon", "cep", "edp"])
                    .to_string();
                spec.deployment = Some(DeploymentSpec {
                    grid: self
                        .pick(&["renewable", "coal", "world-average", "taiwan-grid"])
                        .to_string(),
                    lifetime_hours: Some(*self.pick(&[8_760.0, 26_280.0, 43_800.0])),
                    utilization: Some(*self.pick(&[0.25, 0.5, 1.0])),
                    ..DeploymentSpec::default()
                });
            }
            _ => {}
        }
        spec
    }
}

/// The shared cold-scenario settings: ladder library at depth 2, 32
/// accuracy samples, quick scale.
pub fn cold_spec(experiment: &str, model: &str) -> ScenarioSpec {
    let mut spec = ScenarioSpec::named(experiment)
        .with_model(model)
        .with_family("ladder");
    spec.library_depth = Some(2);
    spec.accuracy_samples = Some(32);
    spec.scale = "quick".to_string();
    spec
}

/// A `lint` spec of one library source.
fn lint_spec(fixtures: &Fixtures, source: &str, depth: Option<u8>) -> ScenarioSpec {
    let mut spec = ScenarioSpec::named("lint");
    spec.scale = "quick".to_string();
    spec.library_depth = depth;
    match source {
        "approx8" => spec.with_family("imported").with_library(&fixtures.approx8),
        "approx4" => spec.with_family("imported").with_library(&fixtures.approx4),
        "corrupted" => spec
            .with_family("imported")
            .with_library(&fixtures.corrupted),
        family => spec.with_family(family),
    }
}

/// The serve settings shared by every spec of one library: 32
/// accuracy samples, depth 2 for builtin families, the 7 nm node, and
/// width pinned to 1.
pub fn serve_base(fixtures: &Fixtures, experiment: &str, library: &str) -> ScenarioSpec {
    let mut spec = ScenarioSpec::named(experiment);
    spec.scale = "quick".to_string();
    spec.node = "7nm".to_string();
    spec.accuracy_samples = Some(32);
    spec.threads = Some(1);
    if library == "imported" {
        spec.with_family("imported").with_library(&fixtures.approx8)
    } else {
        spec.library_depth = Some(2);
        spec.with_family(library)
    }
}

/// The serve libraries: set-up characterizes each one's 7 nm context.
pub const SERVE_LIBRARIES: [&str; 3] = ["ladder", "classic", "imported"];

/// The models serve specs evaluate.
pub const SERVE_MODELS: [&str; 2] = MODELS;

/// Maps a uniform draw to a zipf rank (exponent 1) over `len` items,
/// rank 0 the most popular.
pub fn zipf_rank(u: f64, len: usize) -> usize {
    let harmonic: f64 = (1..=len).map(|k| 1.0 / k as f64).sum();
    let mut target = u * harmonic;
    for k in 1..=len {
        target -= 1.0 / k as f64;
        if target < 0.0 {
            return k - 1;
        }
    }
    len.saturating_sub(1)
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn decks(seed: u64) -> [Deck; 3] {
        [
            Deck::cold(seed),
            Deck::lint(seed, Fixtures::bundled()),
            Deck::serve(seed, Fixtures::bundled()),
        ]
    }

    fn shares(items: &[Item]) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for item in items {
            *counts.entry(item.class).or_default() += 1;
        }
        counts
    }

    #[test]
    fn same_seed_gives_an_identical_item_list() {
        for (mut a, mut b) in decks(7).into_iter().zip(decks(7)) {
            assert_eq!(a.take_blocks(3), b.take_blocks(3));
        }
    }

    #[test]
    fn new_seed_gives_a_different_list_with_the_same_shares() {
        for (mut a, mut b) in decks(7).into_iter().zip(decks(8)) {
            let (a, b) = (a.take_blocks(3), b.take_blocks(3));
            assert_ne!(a, b);
            assert_eq!(shares(&a), shares(&b));
        }
    }

    #[test]
    fn class_shares_are_exact_per_block() {
        let [mut cold, mut lint, mut serve] = decks(1);
        let cold = shares(&cold.next_block());
        assert_eq!((cold["single_node"], cold["three_node"]), (6, 2));
        let lint = shares(&lint.next_block());
        assert_eq!(
            (lint["builtin"], lint["imported"], lint["evolved"]),
            (22, 15, 3)
        );
        let block = serve.next_block();
        let mut budgets = Vec::new();
        for item in &block {
            let ops = match &item.op {
                Op::Batch(ops) => {
                    assert_eq!(ops.len(), BATCH_LEN);
                    ops.iter().collect()
                }
                op => vec![op],
            };
            for op in ops {
                if let Op::Fresh(spec) = op {
                    let ga = spec.ga.as_ref().expect("fresh specs carry a GA budget");
                    budgets.push((ga.population.unwrap(), ga.generations.unwrap()));
                }
            }
        }
        let serve = shares(&block);
        assert_eq!(
            (serve["repeat"], serve["fresh"], serve["batch"]),
            (14, 25, 1)
        );
        // 25 singles, plus the batch's three fresh specs, one sent twice.
        assert_eq!(budgets.len(), SERVE_FRESH_PER_BLOCK + 1);
        assert!(
            budgets
                .iter()
                .all(|&(p, g)| p >= MIN_BUDGET.0 && g >= MIN_BUDGET.1),
            "no fresh spec below the smallest budget that always finds a design: {budgets:?}"
        );
    }

    #[test]
    fn fresh_specs_never_repeat() {
        let mut deck = Deck::serve(3, Fixtures::bundled());
        let mut seen = std::collections::HashSet::new();
        for item in deck.take_blocks(20) {
            let fresh: Vec<ScenarioSpec> = match item.op {
                Op::Fresh(spec) => vec![spec],
                Op::Batch(ops) => ops
                    .into_iter()
                    .filter_map(|op| match op {
                        Op::Fresh(spec) => Some(spec),
                        _ => None,
                    })
                    .collect(),
                _ => Vec::new(),
            };
            let mut in_body = std::collections::HashSet::new();
            for spec in fresh {
                // A batch sends one fresh spec twice; across items,
                // every fresh spec is new.
                if in_body.insert(spec.to_json()) {
                    assert!(seen.insert(spec.to_json()), "{}", spec.to_json());
                }
            }
        }
    }

    #[test]
    fn zipf_ranks_favour_the_oldest() {
        assert_eq!(zipf_rank(0.0, 5), 0);
        assert_eq!(zipf_rank(0.999_999, 5), 4);
        assert_eq!(zipf_rank(0.5, 1), 0);
        let mut counts = [0usize; 4];
        for i in 0..1000 {
            counts[zipf_rank(f64::from(i) / 1000.0, 4)] += 1;
        }
        assert!(counts.windows(2).all(|w| w[0] > w[1]), "{counts:?}");
    }
}
