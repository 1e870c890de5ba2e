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
//!
//! A cheaper suite runs whole random networks on random product tables
//! at every input size from 4 to 32, and two narrower suites pin the
//! pieces the forward pass is built from: the fused conv stage's pooled
//! maxima against `reference_accumulate` → ReLU → 2×2 max pool on
//! random weights and random product tables at every even layer size up
//! to 32, and the half-sweep product table of every library entry
//! against the one tabulated from its full [`LutMultiplier`].

use std::sync::{Arc, OnceLock};

use carma_multiplier::{
    ExactMultiplier, LibraryConfig, LutMultiplier, Multiplier, MultiplierLibrary,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::{
    argmax, calibrated_shift, place, ConvTable, ProductTable, QConv, QLinear, QuantizedNetwork,
    CALIBRATION_SALT, KERNEL, LANES, MAX_WEIGHT, PADDING,
};
use crate::tensor::Tensor;

/// The engine before the product table: one `&dyn Multiplier` call per
/// MAC, padding checked in the innermost loop, i64 accumulators, and
/// each conv layer unfused (accumulate → ReLU → requantize → 2×2 max
/// pool). It survives only as the oracle the table-driven path is
/// pinned to, bit for bit.
impl QuantizedNetwork {
    /// Reference forward pass: raw class logits.
    fn reference_forward(&self, input: &Tensor<u8>, mult: &dyn Multiplier) -> Vec<i64> {
        assert_eq!(mult.width(), 8, "engine requires an 8-bit multiplier");
        let mut act = input.clone();
        for conv in &self.convs {
            let acc = conv.reference_accumulate(&act, mult);
            act = max_pool_2x2(&conv.reference_requantize(&acc, conv.shift));
        }
        self.classifier.reference_forward(&act, mult)
    }

    /// The requantization shifts the reference loop calibrates for this
    /// network's weights, given the seed it was built with.
    fn reference_shifts(&self, seed: u64) -> Vec<u32> {
        let exact = ExactMultiplier::new(8);
        let mut act = self.calibration_input(seed ^ CALIBRATION_SALT);
        let mut shifts = Vec::new();
        for conv in &self.convs {
            let acc = conv.reference_accumulate(&act, &exact);
            let shift = calibrated_shift(acc.as_slice().iter().copied().max().unwrap_or(0));
            act = max_pool_2x2(&conv.reference_requantize(&acc, shift));
            shifts.push(shift);
        }
        shifts
    }

    /// The calibrated requantization shifts, one per conv layer.
    fn shifts(&self) -> Vec<u32> {
        self.convs.iter().map(|conv| conv.shift).collect()
    }

    /// One forward pass on `mult`'s freshly compiled tables: raw class
    /// logits.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the network, or if the
    /// multiplier is not 8 bits wide or returns a product wider than
    /// 16 bits.
    pub(super) fn forward(&self, input: &Tensor<u8>, mult: &dyn Multiplier) -> Vec<i64> {
        self.forward_with(input, &self.tabulate(ProductTable::new(mult)))
    }
}

impl QConv {
    /// ReLU-ed accumulators, `[out_c][y][x]`, as large as the input.
    fn reference_accumulate(&self, input: &Tensor<u8>, mult: &dyn Multiplier) -> Tensor<i64> {
        let hw = input.height();
        let mut acc = Tensor::zeros(self.out_channels, hw, hw);
        for oc in 0..self.out_channels {
            for oy in 0..hw {
                for ox in 0..hw {
                    let mut sum = 0i64;
                    for ic in 0..self.in_channels {
                        for ky in 0..KERNEL {
                            for kx in 0..KERNEL {
                                let iy = (oy + ky) as isize - PADDING as isize;
                                let ix = (ox + kx) as isize - PADDING as isize;
                                if iy < 0 || ix < 0 || iy >= hw as isize || ix >= hw as isize {
                                    continue;
                                }
                                let a = *input.get(ic, iy as usize, ix as usize);
                                let w = self.weights
                                    [((oc * self.in_channels + ic) * KERNEL + ky) * KERNEL + kx];
                                if a == 0 || w == 0 {
                                    continue;
                                }
                                let p = mult.multiply(u32::from(a), w.unsigned_abs() as u32) as i64;
                                sum += if w < 0 { -p } else { p };
                            }
                        }
                    }
                    // ReLU.
                    *acc.get_mut(oc, oy, ox) = sum.max(0);
                }
            }
        }
        acc
    }

    fn reference_requantize(&self, acc: &Tensor<i64>, shift: u32) -> Tensor<u8> {
        let data = acc
            .as_slice()
            .iter()
            .map(|&v| ((v >> shift).min(255)) as u8)
            .collect();
        Tensor::from_vec(acc.channels(), acc.height(), acc.width(), data)
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

/// 2×2 stride-2 max pooling.
pub(super) fn max_pool_2x2<T: Copy + Default + Ord>(input: &Tensor<T>) -> Tensor<T> {
    let c = input.channels();
    let out_h = input.height() / 2;
    let out_w = input.width() / 2;
    let mut out = Tensor::zeros(c, out_h, out_w);
    for ch in 0..c {
        for y in 0..out_h {
            for x in 0..out_w {
                let m = *[
                    input.get(ch, 2 * y, 2 * x),
                    input.get(ch, 2 * y, 2 * x + 1),
                    input.get(ch, 2 * y + 1, 2 * x),
                    input.get(ch, 2 * y + 1, 2 * x + 1),
                ]
                .into_iter()
                .max()
                .expect("four elements");
                *out.get_mut(ch, y, x) = m;
            }
        }
    }
    out
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

/// Every library the suite pins, built once per test binary: ladder and
/// classic at depth 4, a small evolved library, and `approx8.v`.
fn libraries() -> &'static [MultiplierLibrary] {
    static LIBRARIES: OnceLock<Vec<MultiplierLibrary>> = OnceLock::new();
    LIBRARIES.get_or_init(|| {
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
        let libraries = vec![
            MultiplierLibrary::truncation_ladder(8, 4),
            MultiplierLibrary::classic_families(8, 4),
            evolved,
            carma_import::build_library(&approx8),
        ];
        for library in &libraries {
            assert!(library.len() > 1, "library has no approximate entry");
        }
        libraries
    })
}

/// Every multiplier the suite pins, built once per test binary.
fn roster() -> &'static [Arc<dyn Multiplier>] {
    static ROSTER: OnceLock<Vec<Arc<dyn Multiplier>>> = OnceLock::new();
    ROSTER.get_or_init(|| {
        let mut roster: Vec<Arc<dyn Multiplier>> =
            vec![Arc::new(ExactMultiplier::new(8)), Arc::new(Saturating)];
        roster.extend(libraries().iter().flat_map(|library| {
            library
                .entries()
                .iter()
                .map(|e| Arc::new(LutMultiplier::compile(&e.circuit)) as Arc<dyn Multiplier>)
        }));
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
        let tables = net.tabulate(ProductTable::new(mult.as_ref()));
        let fast = net.forward_with(input, &tables);
        let reference = net.reference_forward(input, mult.as_ref());
        prop_assert!(
            fast == reference,
            "logits under {}: {fast:?} != {reference:?}",
            mult.name()
        );
        prop_assert!(
            net.predict_with(input, &tables) == argmax(&reference),
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

/// Serves the products of a random table: `products[(b << 8) | a]`
/// for `b` up to [`MAX_WEIGHT`].
#[derive(Debug)]
struct Tabled(Vec<u16>);

impl Tabled {
    /// Uniform products, with 0 and `0xFFFF` each drawn one time in
    /// eight, zero-operand entries included.
    fn random(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let entries = (usize::from(MAX_WEIGHT) + 1) << 8;
        Tabled(
            (0..entries)
                .map(|_| match rng.random_range(0u32..8) {
                    0 => 0,
                    1 => 0xFFFF,
                    _ => rng.random_range(0u32..=0xFFFF) as u16,
                })
                .collect(),
        )
    }
}

impl Multiplier for Tabled {
    fn width(&self) -> u32 {
        8
    }

    fn multiply(&self, a: u32, b: u32) -> u64 {
        u64::from(self.0[(b as usize) << 8 | a as usize])
    }

    fn name(&self) -> &str {
        "tabled"
    }
}

/// The synthetic network's conv layer `in_channels → out_channels`,
/// with seeded random weights: 0, 127 and −127 each drawn one time in
/// eight.
fn random_conv(seed: u64, in_channels: usize, out_channels: usize) -> QConv {
    let mut rng = StdRng::seed_from_u64(seed);
    let max = i32::from(MAX_WEIGHT);
    QConv {
        in_channels,
        out_channels,
        weights: (0..out_channels * in_channels * KERNEL * KERNEL)
            .map(|_| match rng.random_range(0u32..8) {
                0 => 0,
                1 => MAX_WEIGHT as i8,
                2 => -(MAX_WEIGHT as i8),
                _ => rng.random_range(-max..=max) as i8,
            })
            .collect(),
        shift: 0,
    }
}

/// A seeded random layer input: 0 and 255 each drawn one time in
/// eight.
fn random_activations(seed: u64, channels: usize, hw: usize) -> Tensor<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_vec(
        channels,
        hw,
        hw,
        (0..channels * hw * hw)
            .map(|_| match rng.random_range(0u32..8) {
                0 => 0,
                1 => 255,
                _ => rng.random_range(0u32..=255) as u8,
            })
            .collect(),
    )
}

/// The fused stage's pooled maxima of `input` under `mult`, as a
/// tensor (`[out_c][hw/2][hw/2]`).
fn pooled_maxima(conv: &QConv, input: &Tensor<u8>, mult: &dyn Multiplier) -> Tensor<i64> {
    let (channels, hw) = (input.channels(), input.height());
    let table = ConvTable::new(conv, &ProductTable::new(mult));
    let mut padded = vec![0u8; channels * (hw + 2 * PADDING) * (hw + 2 * PADDING)];
    place(input.as_slice(), hw, PADDING, &mut padded, |a| a);
    let mut pooled = vec![0i32; conv.out_channels * (hw / 2) * (hw / 2)];
    conv.pool(&padded, hw, &table, &mut pooled);
    let pooled = pooled.into_iter().map(i64::from).collect();
    Tensor::from_vec(conv.out_channels, hw / 2, hw / 2, pooled)
}

/// `reference_accumulate` → ReLU → 2×2 max pool.
fn reference_pooled_maxima(conv: &QConv, input: &Tensor<u8>, mult: &dyn Multiplier) -> Tensor<i64> {
    max_pool_2x2(&conv.reference_accumulate(input, mult))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn conv_kernel_is_bit_identical_to_reference_accumulate(
        seed in 0u64..u64::MAX,
        wide in 0usize..2,
        half in 1usize..17,
    ) {
        // The network's two conv shapes, 3 → 8 and 8 → 16, at every even
        // layer size 2..=32.
        let (in_channels, out_channels) = [(3, 8), (8, 16)][wide];
        let hw = 2 * half;
        let mult = Tabled::random(seed);
        let conv = random_conv(seed ^ 1, in_channels, out_channels);
        let input = random_activations(seed ^ 2, in_channels, hw);
        let pooled = pooled_maxima(&conv, &input, &mult);
        let reference = reference_pooled_maxima(&conv, &input, &mult);
        prop_assert!(pooled == reference, "pooled maxima differ at input size {hw}");
    }

    #[test]
    fn forward_is_bit_identical_to_reference_on_random_products(
        seed in 0u64..u64::MAX,
        quarter in 1usize..9,
        classes in 1usize..17,
    ) {
        // Input sizes 4..=32 in steps of 4: every size the network takes
        // up to 32, each pass through its own freshly zeroed buffers.
        let hw = 4 * quarter;
        let net = QuantizedNetwork::synthetic(hw, classes, seed);
        let (shifts, reference) = (net.shifts(), net.reference_shifts(seed));
        prop_assert!(shifts == reference, "shifts at hw {hw}: {shifts:?} != {reference:?}");
        let mult = Tabled::random(seed ^ 1);
        let input = random_activations(seed ^ 2, 3, hw);
        let fast = net.forward_with(&input, &net.tabulate(ProductTable::new(&mult)));
        let reference = net.reference_forward(&input, &mult);
        prop_assert!(fast == reference, "logits at hw {hw}: {fast:?} != {reference:?}");
    }
}

#[test]
fn conv_kernel_starts_all_negative_chunks_at_their_lowest_bias() {
    // Every weight of the first chunk negative: each of its lanes starts
    // at −0xFFFF × taps. Under `Saturating` on an all-255 input, a
    // window that lies inside the input keeps every partial sum there,
    // at the far end of the i32 bound.
    for (in_channels, out_channels) in [(3, 8), (8, 16)] {
        let mut conv = random_conv(7, in_channels, out_channels);
        let chunk = LANES * conv.taps();
        for w in &mut conv.weights[..chunk] {
            *w = -(w.unsigned_abs().max(1) as i8);
        }
        for hw in [2, 6, 16] {
            let full = Tensor::from_vec(in_channels, hw, hw, vec![255; in_channels * hw * hw]);
            let mults: [&dyn Multiplier; 3] = [
                &Saturating,
                &Tabled::random(hw as u64),
                &ExactMultiplier::new(8),
            ];
            for mult in mults {
                for input in [&full, &random_activations(hw as u64, in_channels, hw)] {
                    assert_eq!(
                        pooled_maxima(&conv, input, mult),
                        reference_pooled_maxima(&conv, input, mult),
                        "{} at input size {hw}",
                        mult.name()
                    );
                }
            }
        }
    }
}

#[test]
fn half_sweep_tables_equal_full_lut_tables() {
    for entry in libraries().iter().flat_map(MultiplierLibrary::entries) {
        let half = ProductTable::of_circuit(&entry.circuit);
        let full = ProductTable::new(&LutMultiplier::compile(&entry.circuit));
        for (w, (h, f)) in half.rows.iter().zip(full.rows.iter()).enumerate() {
            assert_eq!(h, f, "{}: row |w| = {w}", entry.name);
        }
        assert_eq!(half.rows.len(), full.rows.len(), "{}", entry.name);
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
