//! Differential suite: the table-driven engine against the per-MAC
//! reference loop it replaced (`QuantizedNetwork::reference_forward`).
//!
//! Every case requires bit-identical calibration shifts, logits and
//! argmax at input sizes 8, 16 and 32, for the exact multiplier, every
//! entry of the depth-4 ladder and classic libraries, a small evolved
//! library, the admitted modules of `examples/libraries/approx8.v`, and
//! a unit that returns `0xFFFF` for every pair (the largest product the
//! table holds, so the i32 accumulator sits as close to its bound as
//! any multiplier can push it).

use std::sync::{Arc, OnceLock};

use carma_multiplier::{
    ExactMultiplier, LibraryConfig, LutMultiplier, Multiplier, MultiplierLibrary,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::{
    argmax, calibrated_shift, max_pool_2x2, ProductTable, QConv, QLayer, QLinear, QuantizedNetwork,
    CALIBRATION_SALT,
};
use crate::tensor::Tensor;

/// The engine before the product table: one `&dyn Multiplier` call per
/// MAC, padding checked in the innermost loop, i64 accumulators. It
/// survives only as the oracle the table-driven path is pinned to, bit
/// for bit.
impl QuantizedNetwork {
    /// Reference forward pass: raw class logits.
    fn reference_forward(&self, input: &Tensor<u8>, mult: &dyn Multiplier) -> Vec<i64> {
        assert_eq!(mult.width(), 8, "engine requires an 8-bit multiplier");
        let mut act = input.clone();
        let mut logits = Vec::new();
        for layer in &self.layers {
            match layer {
                QLayer::Conv(conv) => {
                    let (acc, out_hw) = conv.reference_accumulate(&act, mult);
                    act = conv.reference_requantize(&acc, conv.shift, out_hw);
                }
                QLayer::MaxPool => act = max_pool_2x2(&act),
                QLayer::Linear(lin) => logits = lin.reference_forward(&act, mult),
            }
        }
        logits
    }

    /// The requantization shifts the reference loop calibrates for this
    /// network's weights, given the seed it was built with.
    fn reference_shifts(&self, seed: u64) -> Vec<u32> {
        let exact = ExactMultiplier::new(8);
        let mut act = self.calibration_input(seed ^ CALIBRATION_SALT);
        let mut shifts = Vec::new();
        for layer in &self.layers {
            match layer {
                QLayer::Conv(conv) => {
                    let (acc, out_hw) = conv.reference_accumulate(&act, &exact);
                    let shift = calibrated_shift(acc.iter().copied().max().unwrap_or(0));
                    act = conv.reference_requantize(&acc, shift, out_hw);
                    shifts.push(shift);
                }
                QLayer::MaxPool => act = max_pool_2x2(&act),
                QLayer::Linear(_) => {}
            }
        }
        shifts
    }

    /// The calibrated requantization shifts, one per conv layer.
    fn shifts(&self) -> Vec<u32> {
        self.layers
            .iter()
            .filter_map(|layer| match layer {
                QLayer::Conv(conv) => Some(conv.shift),
                _ => None,
            })
            .collect()
    }
}

impl QConv {
    fn reference_accumulate(&self, input: &Tensor<u8>, mult: &dyn Multiplier) -> (Vec<i64>, usize) {
        let in_hw = input.height();
        let out_hw = self.out_hw(in_hw);
        let mut acc = vec![0i64; self.out_channels * out_hw * out_hw];
        for oc in 0..self.out_channels {
            for oy in 0..out_hw {
                for ox in 0..out_hw {
                    let mut sum = 0i64;
                    for ic in 0..self.in_channels {
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let iy = (oy + ky) as isize - self.padding as isize;
                                let ix = (ox + kx) as isize - self.padding as isize;
                                if iy < 0 || ix < 0 || iy >= in_hw as isize || ix >= in_hw as isize
                                {
                                    continue;
                                }
                                let a = *input.get(ic, iy as usize, ix as usize);
                                let w = self.weights[((oc * self.in_channels + ic) * self.kernel
                                    + ky)
                                    * self.kernel
                                    + kx];
                                if a == 0 || w == 0 {
                                    continue;
                                }
                                let p = mult.multiply(u32::from(a), w.unsigned_abs() as u32) as i64;
                                sum += if w < 0 { -p } else { p };
                            }
                        }
                    }
                    // ReLU.
                    acc[(oc * out_hw + oy) * out_hw + ox] = sum.max(0);
                }
            }
        }
        (acc, out_hw)
    }

    fn reference_requantize(&self, acc: &[i64], shift: u32, out_hw: usize) -> Tensor<u8> {
        let data = acc.iter().map(|&v| ((v >> shift).min(255)) as u8).collect();
        Tensor::from_vec(self.out_channels, out_hw, out_hw, data)
    }
}

impl QLinear {
    fn reference_forward(&self, input: &Tensor<u8>, mult: &dyn Multiplier) -> Vec<i64> {
        let flat = input.as_slice();
        let mut out = vec![0i64; self.out_features];
        for (o, out_val) in out.iter_mut().enumerate() {
            let mut sum = 0i64;
            for (i, &a) in flat.iter().enumerate() {
                let w = self.weights[o * self.in_features + i];
                if a == 0 || w == 0 {
                    continue;
                }
                let p = mult.multiply(u32::from(a), w.unsigned_abs() as u32) as i64;
                sum += if w < 0 { -p } else { p };
            }
            *out_val = sum;
        }
        out
    }
}

/// Input sizes every case runs at.
const INPUT_HWS: [usize; 3] = [8, 16, 32];

/// Returns `0xFFFF` for every operand pair, zero operands included.
#[derive(Debug)]
struct Saturating;

impl Multiplier for Saturating {
    fn width(&self) -> u32 {
        8
    }

    fn multiply(&self, _a: u32, _b: u32) -> u64 {
        0xFFFF
    }

    fn name(&self) -> &str {
        "saturating"
    }
}

/// Every multiplier the suite pins, built once per test binary.
fn roster() -> &'static [Arc<dyn Multiplier>] {
    static ROSTER: OnceLock<Vec<Arc<dyn Multiplier>>> = OnceLock::new();
    ROSTER.get_or_init(|| {
        let base = LibraryConfig::default();
        let evolved = MultiplierLibrary::evolve(LibraryConfig {
            max_truncation: 2,
            max_prunes: 6,
            nsga: base.nsga.with_population(12).with_generations(4),
            ..base
        });
        let approx8 = carma_import::load_library(
            &std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../examples/libraries/approx8.v"),
        )
        .expect("approx8.v is admitted");
        let libraries = [
            MultiplierLibrary::truncation_ladder(8, 4),
            MultiplierLibrary::classic_families(8, 4),
            evolved,
            carma_import::build_library(&approx8),
        ];
        let mut roster: Vec<Arc<dyn Multiplier>> =
            vec![Arc::new(ExactMultiplier::new(8)), Arc::new(Saturating)];
        for library in &libraries {
            assert!(library.len() > 1, "library has no approximate entry");
            roster.extend(
                library
                    .entries()
                    .iter()
                    .map(|e| Arc::new(LutMultiplier::compile(&e.circuit)) as Arc<dyn Multiplier>),
            );
        }
        roster
    })
}

fn random_input(seed: u64, hw: usize) -> Tensor<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_vec(
        3,
        hw,
        hw,
        (0..3 * hw * hw)
            .map(|_| rng.random_range(0u32..=255) as u8)
            .collect(),
    )
}

/// Runs `input` through both paths under every roster multiplier.
fn assert_paths_agree(net: &QuantizedNetwork, input: &Tensor<u8>) -> Result<(), String> {
    for mult in roster() {
        let table = ProductTable::new(mult.as_ref());
        let fast = net.forward_with(input, &table);
        let reference = net.reference_forward(input, mult.as_ref());
        prop_assert!(
            fast == reference,
            "logits under {}: {fast:?} != {reference:?}",
            mult.name()
        );
        prop_assert!(
            net.predict_with(input, &table) == argmax(&reference),
            "argmax under {}",
            mult.name()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn table_engine_is_bit_identical_to_reference(
        net_seed in 0u64..u64::MAX,
        input_seed in 0u64..u64::MAX,
    ) {
        for hw in INPUT_HWS {
            let net = QuantizedNetwork::synthetic(hw, 10, net_seed);
            let (shifts, reference) = (net.shifts(), net.reference_shifts(net_seed));
            prop_assert!(shifts == reference, "shifts at hw {hw}: {shifts:?} != {reference:?}");
            assert_paths_agree(&net, &random_input(input_seed, hw))?;
            // All-255 pixels: the largest activation in every product.
            assert_paths_agree(&net, &Tensor::from_vec(3, hw, hw, vec![255; 3 * hw * hw]))?;
        }
    }
}

#[test]
fn roster_covers_every_family() {
    // exact + saturating + ladder d4 (15) + classic d4 (20) + evolved
    // (≥ 2) + approx8.v (exact8 + 3 modules).
    assert!(roster().len() >= 2 + 15 + 20 + 2 + 4, "{}", roster().len());
}

#[test]
fn largest_network_within_the_i32_bound_builds() {
    let net = QuantizedNetwork::synthetic(180, 2, 3);
    let input = Tensor::from_vec(3, 180, 180, vec![255; 3 * 180 * 180]);
    assert_eq!(
        net.forward(&input, &Saturating),
        net.reference_forward(&input, &Saturating)
    );
}

#[test]
#[should_panic(expected = "overflow the i32 accumulator")]
fn network_beyond_the_i32_bound_rejected() {
    let _ = QuantizedNetwork::synthetic(184, 2, 3);
}

#[test]
#[should_panic(expected = "exceeds 16 bits")]
fn wide_product_rejected() {
    #[derive(Debug)]
    struct Wide;
    impl Multiplier for Wide {
        fn width(&self) -> u32 {
            8
        }
        fn multiply(&self, _a: u32, _b: u32) -> u64 {
            0x1_0000
        }
        fn name(&self) -> &str {
            "wide"
        }
    }
    let _ = ProductTable::new(&Wide);
}
