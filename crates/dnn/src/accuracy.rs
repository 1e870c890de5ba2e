//! Accuracy-drop evaluation of approximate multipliers — the
//! ApproxTrain substitute (DESIGN.md §4).
//!
//! The paper classifies its approximate units by the accuracy loss they
//! induce on ImageNet inference (*"approximate units that resulted in
//! accuracy losses of up to 0.5%, 1.0%, and 2.0%"*). Without the
//! dataset or pretrained weights, we measure the same quantity
//! *relatively*: the reference network runs the synthetic-ImageNet
//! workload once with exact multiplication (establishing its
//! predictions) and once per approximate unit; the **accuracy drop** is
//! the fraction of samples whose predicted class flips. This exercises
//! the identical code path (LUT products through conv/fc layers) and
//! yields the same monotone error→accuracy mapping used to bucket
//! multipliers.

use carma_multiplier::{ExactMultiplier, Multiplier, MultiplierEntry, MultiplierLibrary};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::engine::{ProductTable, QuantizedNetwork};
use crate::tensor::Tensor;

/// Configuration of the synthetic-ImageNet evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvaluatorConfig {
    /// Number of evaluation samples.
    pub samples: usize,
    /// Number of classes in the Gaussian-mixture dataset.
    pub classes: usize,
    /// Input spatial size (multiple of 4).
    pub input_hw: usize,
    /// Per-pixel noise amplitude of the Gaussian mixture (uniform-sum
    /// approximation, σ ≈ 0.87·amplitude/2). Larger values push samples
    /// toward decision boundaries, making the drop metric more
    /// sensitive to multiplier error.
    pub noise: i32,
    /// Master seed (network weights, dataset, calibration).
    pub seed: u64,
}

impl Default for EvaluatorConfig {
    fn default() -> Self {
        EvaluatorConfig {
            samples: 256,
            classes: 16,
            input_hw: 16,
            noise: 12,
            seed: 0x1AB_E15,
        }
    }
}

/// The result of evaluating one multiplier.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyReport {
    /// Name of the evaluated multiplier.
    pub multiplier: String,
    /// Fraction of samples whose prediction matches the exact run.
    pub agreement: f64,
    /// Accuracy drop = 1 − agreement, in `[0, 1]`.
    pub drop: f64,
    /// Number of samples evaluated.
    pub samples: usize,
}

/// Evaluates multipliers on a fixed synthetic workload.
///
/// Construction builds the seeded reference network, generates the
/// Gaussian-mixture dataset, and records the exact-multiplier
/// predictions; [`accuracy_drop`](AccuracyEvaluator::accuracy_drop)
/// then scores any 8-bit multiplier against them.
///
/// ```
/// use carma_dnn::accuracy::{AccuracyEvaluator, EvaluatorConfig};
/// use carma_multiplier::ExactMultiplier;
///
/// let config = EvaluatorConfig { samples: 16, ..EvaluatorConfig::default() };
/// let eval = AccuracyEvaluator::new(config);
/// let exact = ExactMultiplier::new(8);
/// assert_eq!(eval.accuracy_drop(&exact), 0.0); // exact agrees with exact
/// ```
#[derive(Debug)]
pub struct AccuracyEvaluator {
    config: EvaluatorConfig,
    network: QuantizedNetwork,
    inputs: Vec<Tensor<u8>>,
    exact_predictions: Vec<usize>,
}

impl AccuracyEvaluator {
    /// Builds the evaluator (network, dataset, exact reference run).
    ///
    /// # Panics
    ///
    /// Panics if `config.samples` is zero or `config.input_hw` is not a
    /// positive multiple of 4.
    pub fn new(config: EvaluatorConfig) -> Self {
        assert!(config.samples > 0, "need at least one sample");
        let network = QuantizedNetwork::synthetic(config.input_hw, config.classes, config.seed);
        let inputs = Self::gaussian_mixture(&config);
        let exact = ProductTable::new(&ExactMultiplier::new(8));
        // The reference run is one forward pass per sample — all
        // independent, so fan them out over the execution pool.
        let exact_predictions = carma_exec::par_map(&inputs, |x| network.predict_with(x, &exact));
        AccuracyEvaluator {
            config,
            network,
            inputs,
            exact_predictions,
        }
    }

    /// The evaluator's configuration.
    pub fn config(&self) -> &EvaluatorConfig {
        &self.config
    }

    /// The reference network.
    pub fn network(&self) -> &QuantizedNetwork {
        &self.network
    }

    /// Class-conditional Gaussian-mixture dataset: each class has a
    /// seeded random mean image; samples add per-pixel noise.
    fn gaussian_mixture(config: &EvaluatorConfig) -> Vec<Tensor<u8>> {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xDA7A5E7);
        let c = 3usize;
        let hw = config.input_hw;
        let n_px = c * hw * hw;
        // Class means arranged with a *spectrum* of separations around
        // a shared centre pattern: early classes sit close to the
        // centre (fine decision margins), later ones far (robust).
        // The margin spectrum is what makes the flip rate a smooth,
        // monotone function of multiplier error instead of a cliff —
        // mirroring how ImageNet's 1000 classes span a continuum of
        // confusability.
        let center: Vec<i32> = (0..n_px).map(|_| rng.random_range(64i32..192)).collect();
        let means: Vec<Vec<i32>> = (0..config.classes)
            .map(|k| {
                let spread = 4 + (72 * k / config.classes.max(2).saturating_sub(1)) as i32;
                center
                    .iter()
                    .map(|&m| (m + rng.random_range(-spread..=spread)).clamp(0, 255))
                    .collect()
            })
            .collect();
        (0..config.samples)
            .map(|i| {
                let class = i % config.classes;
                let data: Vec<u8> = means[class]
                    .iter()
                    .map(|&m| {
                        // Approximate Gaussian noise: sum of uniforms
                        // (Irwin–Hall).
                        let amp = config.noise.max(1);
                        let noise: i32 =
                            (0..3).map(|_| rng.random_range(-amp..=amp)).sum::<i32>() / 2;
                        (m + noise).clamp(0, 255) as u8
                    })
                    .collect();
                Tensor::from_vec(c, hw, hw, data)
            })
            .collect()
    }

    /// Scores `mult`: fraction of samples whose predicted class differs
    /// from the exact-multiplier prediction. `mult`'s products are
    /// tabulated once, then every sample runs on the table.
    ///
    /// # Panics
    ///
    /// Panics if `mult` is not 8 bits wide or returns a product wider
    /// than 16 bits.
    pub fn accuracy_drop(&self, mult: &dyn Multiplier) -> f64 {
        let table = ProductTable::new(mult);
        let flips = carma_exec::par_map_indexed(&self.inputs, |i, input| {
            usize::from(self.network.predict_with(input, &table) != self.exact_predictions[i])
        })
        .into_iter()
        .sum::<usize>();
        flips as f64 / self.inputs.len() as f64
    }

    /// Full report for `mult`.
    ///
    /// # Panics
    ///
    /// Panics if `mult` is not 8 bits wide.
    pub fn report(&self, mult: &dyn Multiplier) -> AccuracyReport {
        let drop = self.accuracy_drop(mult);
        AccuracyReport {
            multiplier: mult.name().to_string(),
            agreement: 1.0 - drop,
            drop,
            samples: self.inputs.len(),
        }
    }

    /// Evaluates every member of a [`MultiplierLibrary`], returning
    /// `(entry, accuracy drop)` pairs in library order.
    ///
    /// This is the bridge the GA-CDP flow uses to bucket the Pareto
    /// multipliers into the paper's 0.5 % / 1.0 % / 2.0 % classes.
    ///
    /// Library members are scored in parallel on the `carma-exec`
    /// pool (each member's LUT compilation + behavioural run is
    /// independent); results stay in library order.
    pub fn evaluate_library<'lib>(
        &self,
        library: &'lib MultiplierLibrary,
    ) -> Vec<(&'lib MultiplierEntry, f64)> {
        let entries = library.entries();
        carma_exec::par_gen(entries.len(), |i| {
            let entry = &entries[i];
            let drop = if entry.profile.error_rate == 0.0 {
                0.0
            } else {
                let lut = carma_multiplier::LutMultiplier::compile(&entry.circuit);
                self.accuracy_drop(&lut)
            };
            (entry, drop)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carma_multiplier::{ApproxGenome, LutMultiplier, MultiplierCircuit, ReductionKind};

    fn small_config() -> EvaluatorConfig {
        EvaluatorConfig {
            samples: 48,
            ..EvaluatorConfig::default()
        }
    }

    #[test]
    fn exact_has_zero_drop() {
        let eval = AccuracyEvaluator::new(small_config());
        let exact = ExactMultiplier::new(8);
        assert_eq!(eval.accuracy_drop(&exact), 0.0);
        let r = eval.report(&exact);
        assert_eq!(r.agreement, 1.0);
        assert_eq!(r.samples, 48);
    }

    #[test]
    fn mild_truncation_causes_small_drop() {
        let eval = AccuracyEvaluator::new(small_config());
        let base = MultiplierCircuit::generate(8, ReductionKind::Dadda);
        let mild = LutMultiplier::compile(&ApproxGenome::truncation(1, 1).apply(&base));
        let drop = eval.accuracy_drop(&mild);
        assert!(drop <= 0.10, "1-bit truncation drop too large: {drop}");
    }

    #[test]
    fn drop_grows_with_truncation_depth() {
        let eval = AccuracyEvaluator::new(EvaluatorConfig {
            samples: 64,
            ..EvaluatorConfig::default()
        });
        let base = MultiplierCircuit::generate(8, ReductionKind::Dadda);
        let drop_at = |t: u8| {
            let lut = LutMultiplier::compile(&ApproxGenome::truncation(t, t).apply(&base));
            eval.accuracy_drop(&lut)
        };
        let mild = drop_at(1);
        let severe = drop_at(7);
        assert!(
            severe > mild,
            "7-bit truncation ({severe}) must hurt more than 1-bit ({mild})"
        );
        assert!(severe > 0.2, "7-bit truncation should wreck accuracy");
    }

    #[test]
    fn evaluation_is_deterministic() {
        let eval = AccuracyEvaluator::new(small_config());
        let base = MultiplierCircuit::generate(8, ReductionKind::Dadda);
        let lut = LutMultiplier::compile(&ApproxGenome::truncation(3, 3).apply(&base));
        assert_eq!(eval.accuracy_drop(&lut), eval.accuracy_drop(&lut));
    }

    #[test]
    fn evaluate_library_orders_match() {
        let eval = AccuracyEvaluator::new(EvaluatorConfig {
            samples: 32,
            ..EvaluatorConfig::default()
        });
        let lib = MultiplierLibrary::truncation_ladder(8, 2);
        let results = eval.evaluate_library(&lib);
        assert_eq!(results.len(), lib.len());
        // Exact entry has zero drop.
        assert_eq!(results[0].1, 0.0);
        // Every drop is a valid probability.
        for (_, d) in &results {
            assert!((0.0..=1.0).contains(d));
        }
    }

    #[test]
    #[should_panic(expected = "need at least one sample")]
    fn zero_samples_rejected() {
        let _ = AccuracyEvaluator::new(EvaluatorConfig {
            samples: 0,
            ..EvaluatorConfig::default()
        });
    }
}
