//! The behavioural quantized inference engine.
//!
//! Every multiply in the network is served by a pluggable
//! [`Multiplier`] — the mechanism by which approximate units change
//! network behaviour, exactly as in ApproxTrain's LUT-based simulation.
//! Before a pass the multiplier's products are tabulated once into a
//! `ProductTable`; the kernels then read products from it and never
//! call the multiplier per MAC.
//!
//! Quantization scheme: unsigned 8-bit activations (ReLU networks are
//! non-negative), signed 8-bit weights handled in **sign-magnitude**
//! form, so each product is an *unsigned* 8×8 multiplication — the
//! datatype the paper's approximate multipliers implement — with the
//! weight sign applied to the accumulator afterwards. Accumulation is
//! exact 32-bit (the bound is asserted when the network is built);
//! each layer requantizes by a calibrated right shift.

use std::ops::Range;

use carma_multiplier::{ExactMultiplier, Multiplier};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::tensor::Tensor;

/// Largest weight magnitude: weights are drawn from `-127..=127`.
const MAX_WEIGHT: u8 = 127;

/// Salt separating the calibration input's RNG stream from the
/// weights' (both derive from the network seed).
const CALIBRATION_SALT: u64 = 0xCA11_B4A7;

/// Every product an 8-bit multiplier contributes to a forward pass,
/// tabulated once: `u16` products indexed by `(|w| << 8) | a`, one
/// 256-entry row per weight magnitude (128 × 256 × 2 B = 64 KiB, small
/// enough to stay in L1d).
///
/// Entries with a zero operand stay 0. The engine never multiplies a
/// zero operand (a zero activation or weight contributes nothing), and
/// some approximate units return a non-zero product for one.
pub(crate) struct ProductTable {
    rows: Box<[[u16; 256]]>,
}

impl ProductTable {
    /// Tabulates `mult` over `a` in `1..=255` and `|w|` in `1..=127`.
    ///
    /// # Panics
    ///
    /// Panics if `mult` is not 8 bits wide or returns a product that
    /// does not fit in 16 bits.
    pub(crate) fn new(mult: &dyn Multiplier) -> Self {
        assert_eq!(mult.width(), 8, "engine requires an 8-bit multiplier");
        let mut rows = vec![[0u16; 256]; usize::from(MAX_WEIGHT) + 1].into_boxed_slice();
        for (w, row) in rows.iter_mut().enumerate().skip(1) {
            for (a, product) in row.iter_mut().enumerate().skip(1) {
                let p = mult.multiply(a as u32, w as u32);
                *product = u16::try_from(p).unwrap_or_else(|_| {
                    panic!("{}: product {a}×{w} = {p} exceeds 16 bits", mult.name())
                });
            }
        }
        ProductTable { rows }
    }

    /// The products of weight magnitude `|w|` with every activation.
    #[inline]
    fn row(&self, w: i8) -> &[u16; 256] {
        &self.rows[usize::from(w.unsigned_abs())]
    }
}

/// A quantized stride-1 convolution layer (square kernel, symmetric
/// padding).
#[derive(Debug, Clone)]
pub struct QConv {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    padding: usize,
    /// Weights in `[out_c][in_c][k][k]` order.
    weights: Vec<i8>,
    /// Right-shift applied at requantization (calibrated).
    shift: u32,
}

/// A quantized fully connected layer.
#[derive(Debug, Clone)]
pub struct QLinear {
    in_features: usize,
    out_features: usize,
    /// Weights in `[out][in]` order.
    weights: Vec<i8>,
}

/// One layer of the behavioural network.
#[derive(Debug, Clone)]
pub enum QLayer {
    /// Convolution + ReLU + requantize.
    Conv(QConv),
    /// 2×2/2 max pooling.
    MaxPool,
    /// Final classifier (produces logits, no requantization).
    Linear(QLinear),
}

impl QLayer {
    /// Products summed into each output (0 for pooling).
    fn taps(&self) -> usize {
        match self {
            QLayer::Conv(c) => c.in_channels * c.kernel * c.kernel,
            QLayer::MaxPool => 0,
            QLayer::Linear(l) => l.in_features,
        }
    }
}

/// A small quantized CNN with pluggable multipliers.
///
/// Built via [`QuantizedNetwork::synthetic`], which creates the
/// fixed-seed reference network used for accuracy evaluation
/// (DESIGN.md §4: the ApproxTrain/ImageNet substitution).
#[derive(Debug, Clone)]
pub struct QuantizedNetwork {
    input_channels: usize,
    input_hw: usize,
    classes: usize,
    layers: Vec<QLayer>,
}

impl QuantizedNetwork {
    /// Builds the synthetic reference network: a VGG-style stack
    /// `conv3×3(3→8) → pool → conv3×3(8→16) → pool → fc(16·(hw/4)² →
    /// classes)` with seeded random weights, requantization shifts
    /// calibrated on seeded random inputs.
    ///
    /// # Panics
    ///
    /// Panics if `input_hw` is not a positive multiple of 4 or
    /// `classes` is zero, or if `input_hw` exceeds 180 (the classifier
    /// would sum more 16-bit products than an i32 accumulator holds).
    pub fn synthetic(input_hw: usize, classes: usize, seed: u64) -> Self {
        assert!(
            input_hw > 0 && input_hw.is_multiple_of(4),
            "input_hw must be a positive multiple of 4"
        );
        assert!(classes > 0, "classes must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut weights = |n: usize| -> Vec<i8> {
            (0..n)
                .map(|_| rng.random_range(-i32::from(MAX_WEIGHT)..=i32::from(MAX_WEIGHT)) as i8)
                .collect()
        };
        let c1 = QConv {
            in_channels: 3,
            out_channels: 8,
            kernel: 3,
            padding: 1,
            weights: weights(8 * 3 * 9),
            shift: 0,
        };
        let c2 = QConv {
            in_channels: 8,
            out_channels: 16,
            kernel: 3,
            padding: 1,
            weights: weights(16 * 8 * 9),
            shift: 0,
        };
        let feat_hw = input_hw / 4;
        let fc = QLinear {
            in_features: 16 * feat_hw * feat_hw,
            out_features: classes,
            weights: weights(classes * 16 * feat_hw * feat_hw),
        };
        let mut net = QuantizedNetwork {
            input_channels: 3,
            input_hw,
            classes,
            layers: vec![
                QLayer::Conv(c1),
                QLayer::MaxPool,
                QLayer::Conv(c2),
                QLayer::MaxPool,
                QLayer::Linear(fc),
            ],
        };
        for layer in &net.layers {
            let taps = layer.taps();
            assert!(
                taps as u64 * u64::from(u16::MAX) <= i32::MAX as u64,
                "{taps} taps of 16-bit products overflow the i32 accumulator"
            );
        }
        net.calibrate(seed ^ CALIBRATION_SALT);
        net
    }

    /// Input channel count.
    pub fn input_channels(&self) -> usize {
        self.input_channels
    }

    /// Input spatial size (height = width).
    pub fn input_hw(&self) -> usize {
        self.input_hw
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Total multiplier invocations per forward pass.
    pub fn macs_per_inference(&self) -> u64 {
        let mut hw = self.input_hw;
        let mut macs = 0u64;
        for layer in &self.layers {
            match layer {
                QLayer::Conv(c) => {
                    let out_hw = c.out_hw(hw);
                    macs += (c.out_channels * layer.taps() * out_hw * out_hw) as u64;
                    hw = out_hw;
                }
                QLayer::MaxPool => hw /= 2,
                QLayer::Linear(l) => macs += (l.in_features * l.out_features) as u64,
            }
        }
        macs
    }

    /// The seeded random input calibration runs on. One representative
    /// input is enough: the network is linear up to ReLU, so activation
    /// scale is input-scale driven.
    fn calibration_input(&self, seed: u64) -> Tensor<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_vec(
            self.input_channels,
            self.input_hw,
            self.input_hw,
            (0..self.input_channels * self.input_hw * self.input_hw)
                .map(|_| rng.random_range(0u32..=255) as u8)
                .collect(),
        )
    }

    /// Calibrates per-conv-layer requantization shifts so activations
    /// occupy the 8-bit range without saturating, using exact
    /// multiplication on a seeded random input. Forwards layer by
    /// layer, setting each shift from the observed maximum accumulator.
    fn calibrate(&mut self, seed: u64) {
        let exact = ProductTable::new(&ExactMultiplier::new(8));
        let mut act = self.calibration_input(seed);
        for layer in &mut self.layers {
            match layer {
                QLayer::Conv(conv) => {
                    let (acc, out_hw) = conv.accumulate(&act, &exact);
                    conv.shift = calibrated_shift(acc.iter().copied().max().map_or(0, i64::from));
                    act = conv.requantize(&acc, out_hw);
                }
                QLayer::MaxPool => act = max_pool_2x2(&act),
                QLayer::Linear(_) => {}
            }
        }
    }

    /// Runs one forward pass, returning the raw class logits.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the network, or if the
    /// multiplier is not 8 bits wide or returns a product wider than
    /// 16 bits.
    pub fn forward(&self, input: &Tensor<u8>, mult: &dyn Multiplier) -> Vec<i64> {
        self.forward_with(input, &ProductTable::new(mult))
    }

    /// [`Self::forward`] over an already tabulated multiplier.
    pub(crate) fn forward_with(&self, input: &Tensor<u8>, table: &ProductTable) -> Vec<i64> {
        assert_eq!(input.channels(), self.input_channels, "channel mismatch");
        assert_eq!(input.height(), self.input_hw, "height mismatch");
        assert_eq!(input.width(), self.input_hw, "width mismatch");
        let mut act = input.clone();
        let mut logits = Vec::new();
        for layer in &self.layers {
            match layer {
                QLayer::Conv(conv) => {
                    let (acc, out_hw) = conv.accumulate(&act, table);
                    act = conv.requantize(&acc, out_hw);
                }
                QLayer::MaxPool => act = max_pool_2x2(&act),
                QLayer::Linear(lin) => logits = lin.forward(&act, table),
            }
        }
        logits
    }

    /// Runs a forward pass and returns the predicted class (argmax of
    /// the logits; ties break to the lower index).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::forward`].
    pub fn predict(&self, input: &Tensor<u8>, mult: &dyn Multiplier) -> usize {
        argmax(&self.forward(input, mult))
    }

    /// [`Self::predict`] over an already tabulated multiplier.
    pub(crate) fn predict_with(&self, input: &Tensor<u8>, table: &ProductTable) -> usize {
        argmax(&self.forward_with(input, table))
    }
}

/// Smallest right shift that brings `max` (floored at 1) into `0..=255`.
fn calibrated_shift(max: i64) -> u32 {
    let max = max.max(1);
    let mut shift = 0u32;
    while (max >> shift) > 255 {
        shift += 1;
    }
    shift
}

impl QConv {
    /// Output spatial size for an `in_hw` input.
    fn out_hw(&self, in_hw: usize) -> usize {
        in_hw + 2 * self.padding - self.kernel + 1
    }

    /// The output rows whose input row under kernel row `ky` lies
    /// inside the image (the rest read padding, which is zero and
    /// contributes nothing).
    fn rows_inside(&self, ky: usize, in_hw: usize, out_hw: usize) -> Range<usize> {
        let lo = self.padding.saturating_sub(ky);
        let hi = (in_hw + self.padding).saturating_sub(ky).min(out_hw);
        lo..hi.max(lo)
    }

    /// Convolves `input`, returning raw ReLU-ed accumulators (flat
    /// `[out_c][y][x]`) and the output spatial size.
    ///
    /// Weight-stationary over a copy of the input whose rows carry
    /// `padding` zero columns on both sides. Each output channel
    /// accumulates into a plane with the same row pitch, so a tap
    /// `(ky, kx)` adds its products over one contiguous run spanning
    /// every output row it reaches: a row's end wraps into the pitch's
    /// spare columns, which are discarded. Neither padding nor row
    /// boundaries enter the inner loop, and the weight sign picks the
    /// loop rather than a per-MAC branch.
    fn accumulate(&self, input: &Tensor<u8>, table: &ProductTable) -> (Vec<i32>, usize) {
        let in_hw = input.height();
        let out_hw = self.out_hw(in_hw);
        let (k, pad) = (self.kernel, self.padding);
        let pitch = in_hw + 2 * pad;
        let mut padded = vec![0u8; self.in_channels * in_hw * pitch];
        for (dst, src) in padded
            .chunks_exact_mut(pitch)
            .zip(input.as_slice().chunks_exact(in_hw))
        {
            dst[pad..pad + in_hw].copy_from_slice(src);
        }
        let rows: Vec<Range<usize>> = (0..k)
            .map(|ky| self.rows_inside(ky, in_hw, out_hw))
            .collect();
        let mut plane = vec![0i32; out_hw * pitch];
        let mut acc = Vec::with_capacity(self.out_channels * out_hw * out_hw);
        for filter in self.weights.chunks_exact(self.in_channels * k * k) {
            plane.fill(0);
            let images = padded.chunks_exact(in_hw * pitch);
            for (image, taps) in images.zip(filter.chunks_exact(k * k)) {
                for (ky, (ys, taps)) in rows.iter().zip(taps.chunks_exact(k)).enumerate() {
                    if ys.is_empty() {
                        continue;
                    }
                    // From the first reached row's column 0 to the last
                    // reached row's last output column.
                    let len = (ys.len() - 1) * pitch + out_hw;
                    let dst = &mut plane[ys.start * pitch..][..len];
                    let first_input_row = ys.start + ky - pad;
                    for (kx, &w) in taps.iter().enumerate() {
                        if w == 0 {
                            continue;
                        }
                        let row = table.row(w);
                        let src = &image[first_input_row * pitch + kx..][..len];
                        if w > 0 {
                            for (d, &a) in dst.iter_mut().zip(src) {
                                *d += i32::from(row[usize::from(a)]);
                            }
                        } else {
                            for (d, &a) in dst.iter_mut().zip(src) {
                                *d -= i32::from(row[usize::from(a)]);
                            }
                        }
                    }
                }
            }
            // ReLU, dropping the spare columns.
            for r in plane.chunks_exact(pitch) {
                acc.extend(r[..out_hw].iter().map(|&v| v.max(0)));
            }
        }
        (acc, out_hw)
    }

    /// Requantizes ReLU-ed accumulators to u8 via the calibrated shift.
    fn requantize(&self, acc: &[i32], out_hw: usize) -> Tensor<u8> {
        let data = acc
            .iter()
            .map(|&v| ((v >> self.shift).min(255)) as u8)
            .collect();
        Tensor::from_vec(self.out_channels, out_hw, out_hw, data)
    }
}

impl QLinear {
    /// Dense forward returning raw logits.
    fn forward(&self, input: &Tensor<u8>, table: &ProductTable) -> Vec<i64> {
        let flat = input.as_slice();
        debug_assert_eq!(flat.len(), self.in_features, "fc input size mismatch");
        self.weights
            .chunks_exact(self.in_features)
            .map(|weights| {
                let sum: i32 = weights
                    .iter()
                    .zip(flat)
                    .map(|(&w, &a)| {
                        let p = i32::from(table.row(w)[usize::from(a)]);
                        if w < 0 {
                            -p
                        } else {
                            p
                        }
                    })
                    .sum();
                i64::from(sum)
            })
            .collect()
    }
}

/// 2×2 stride-2 max pooling.
fn max_pool_2x2(input: &Tensor<u8>) -> Tensor<u8> {
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

/// Index of the maximum element (ties break low).
fn argmax(values: &[i64]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use carma_multiplier::{ApproxGenome, LutMultiplier, MultiplierCircuit, ReductionKind};

    fn random_input(seed: u64, c: usize, hw: usize) -> Tensor<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_vec(
            c,
            hw,
            hw,
            (0..c * hw * hw)
                .map(|_| rng.random_range(0u32..=255) as u8)
                .collect(),
        )
    }

    #[test]
    fn synthetic_network_shape() {
        let net = QuantizedNetwork::synthetic(16, 10, 1);
        assert_eq!(net.classes(), 10);
        assert_eq!(net.input_hw(), 16);
        assert_eq!(net.input_channels(), 3);
        // conv1 55 296 + conv2 73 728 + fc 2 560 MACs.
        assert_eq!(net.macs_per_inference(), 55_296 + 73_728 + 2_560);
    }

    #[test]
    fn forward_is_deterministic() {
        let net = QuantizedNetwork::synthetic(16, 10, 2);
        let input = random_input(3, 3, 16);
        let exact = ExactMultiplier::new(8);
        let a = net.forward(&input, &exact);
        let b = net.forward(&input, &exact);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn lut_exact_matches_reference_exact() {
        let net = QuantizedNetwork::synthetic(16, 10, 3);
        let input = random_input(4, 3, 16);
        let exact = ExactMultiplier::new(8);
        let circuit = MultiplierCircuit::generate(8, ReductionKind::Dadda);
        let lut = LutMultiplier::compile(&circuit);
        assert_eq!(net.forward(&input, &exact), net.forward(&input, &lut));
    }

    #[test]
    fn approximate_multiplier_perturbs_logits() {
        let net = QuantizedNetwork::synthetic(16, 10, 4);
        let input = random_input(5, 3, 16);
        let exact = ExactMultiplier::new(8);
        let base = MultiplierCircuit::generate(8, ReductionKind::Dadda);
        let approx = LutMultiplier::compile(&ApproxGenome::truncation(4, 4).apply(&base));
        let l_exact = net.forward(&input, &exact);
        let l_approx = net.forward(&input, &approx);
        assert_ne!(l_exact, l_approx, "4-bit truncation must move logits");
        // But not unrecognizably: logits stay correlated (same sign of
        // ordering for the top class more often than not is checked at
        // the accuracy level; here just check scale).
        let max_exact = *l_exact.iter().max().unwrap() as f64;
        let max_approx = *l_approx.iter().max().unwrap() as f64;
        assert!((max_approx - max_exact).abs() / max_exact.abs().max(1.0) < 0.5);
    }

    #[test]
    fn predict_returns_class_index() {
        let net = QuantizedNetwork::synthetic(16, 7, 5);
        let input = random_input(6, 3, 16);
        let exact = ExactMultiplier::new(8);
        let c = net.predict(&input, &exact);
        assert!(c < 7);
    }

    #[test]
    fn calibration_avoids_saturation() {
        // After calibration, a random input must produce at least one
        // non-zero activation and logits that are not all equal
        // (saturation would flatten everything to 255 or 0).
        let net = QuantizedNetwork::synthetic(16, 10, 6);
        let input = random_input(7, 3, 16);
        let exact = ExactMultiplier::new(8);
        let logits = net.forward(&input, &exact);
        let all_same = logits.windows(2).all(|w| w[0] == w[1]);
        assert!(!all_same, "logits flat: {logits:?}");
    }

    #[test]
    fn argmax_breaks_ties_low() {
        assert_eq!(argmax(&[1, 3, 3]), 1);
        assert_eq!(argmax(&[5]), 0);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn max_pool_takes_window_maxima() {
        let t = Tensor::from_vec(1, 2, 2, vec![1u8, 9, 4, 2]);
        let p = max_pool_2x2(&t);
        assert_eq!(*p.get(0, 0, 0), 9);
    }

    #[test]
    #[should_panic(expected = "engine requires an 8-bit multiplier")]
    fn non_8bit_multiplier_rejected() {
        let net = QuantizedNetwork::synthetic(16, 10, 8);
        let input = random_input(9, 3, 16);
        let m4 = ExactMultiplier::new(4);
        let _ = net.forward(&input, &m4);
    }

    #[test]
    #[should_panic(expected = "input_hw must be a positive multiple of 4")]
    fn bad_input_size_rejected() {
        let _ = QuantizedNetwork::synthetic(10, 10, 0);
    }
}
