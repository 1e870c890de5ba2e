//! The behavioural quantized inference engine.
//!
//! Every multiply in the network is served by a pluggable
//! [`Multiplier`] — the mechanism by which approximate units change
//! network behaviour, exactly as in ApproxTrain's LUT-based simulation.
//! Before a pass the multiplier's products are tabulated once into a
//! `ProductTable`, and each conv layer's weights are folded into it as
//! a transposed `ConvTable`; the kernels then read products from these
//! and never call the multiplier per MAC. Each conv layer runs as one
//! fused stage (conv → ReLU → 2×2 max pool → requantize) that writes
//! its bytes straight into the next layer's input.
//!
//! Quantization scheme: unsigned 8-bit activations (ReLU networks are
//! non-negative), signed 8-bit weights handled in **sign-magnitude**
//! form, so each product is an *unsigned* 8×8 multiplication — the
//! datatype the paper's approximate multipliers implement — with the
//! weight sign applied to the product afterwards. Accumulation is
//! exact 32-bit (the bound is asserted when the network is built);
//! each conv stage requantizes by a calibrated right shift.

use carma_multiplier::{ExactMultiplier, LutMultiplier, Multiplier, MultiplierCircuit};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::tensor::Tensor;

/// Largest weight magnitude: weights are drawn from `-127..=127`.
const MAX_WEIGHT: u8 = 127;

/// Salt separating the calibration input's RNG stream from the
/// weights' (both derive from the network seed).
const CALIBRATION_SALT: u64 = 0xCA11_B4A7;

/// Output channels one [`ConvTable`] cell serves.
const LANES: usize = 8;

/// Side of every conv kernel.
const KERNEL: usize = 3;

/// Zero pixels on each side of a conv layer's input, so that the
/// stride-1 output is as large as the input.
const PADDING: usize = KERNEL / 2;

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
        Self::from_fn(mult.name(), |a, w| mult.multiply(a, w))
    }

    /// Tabulates `circuit` from one sweep of only the operand pairs the
    /// engine reads (`|w| < 128`): half those a [`LutMultiplier`] holds.
    ///
    /// # Panics
    ///
    /// As [`Self::new`].
    pub(crate) fn of_circuit(circuit: &MultiplierCircuit) -> Self {
        assert_eq!(circuit.width(), 8, "engine requires an 8-bit multiplier");
        let products = LutMultiplier::tabulate(circuit, usize::from(MAX_WEIGHT) + 1);
        Self::from_fn(circuit.netlist().name(), |a, w| {
            u64::from(products[(w as usize) << 8 | a as usize])
        })
    }

    fn from_fn(name: &str, product: impl Fn(u32, u32) -> u64) -> Self {
        let mut rows = vec![[0u16; 256]; usize::from(MAX_WEIGHT) + 1].into_boxed_slice();
        for (w, row) in rows.iter_mut().enumerate().skip(1) {
            for (a, entry) in row.iter_mut().enumerate().skip(1) {
                let p = product(a as u32, w as u32);
                *entry = u16::try_from(p)
                    .unwrap_or_else(|_| panic!("{name}: product {a}×{w} = {p} exceeds 16 bits"));
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

/// One conv layer's weights folded into one multiplier's products and
/// transposed, so that one 16-byte load per tap serves [`LANES`]
/// output channels.
///
/// A tap is `(ic, ky, kx)` and a chunk is [`LANES`] consecutive output
/// channels. Sizes depend on the layer, not on the input: 27 taps ×
/// 4 KiB = 108 KiB for `conv3×3(3→8)`, 2 chunks × 72 taps × 4 KiB =
/// 576 KiB for `conv3×3(8→16)`.
struct ConvTable {
    /// One row per `(chunk, tap)`, index `chunk · taps + tap`: cell `a`
    /// holds activation `a`'s products with the chunk's weights at the
    /// tap, stored as `p ^ 0xFFFF` (that is, `0xFFFF − p`) in the lanes
    /// whose weight is negative. A zero weight reads product-table row
    /// 0 and a zero activation cell 0; both are all zeros, so zero
    /// operands need no branch.
    rows: Vec<[[u16; LANES]; 256]>,
    /// Per chunk: each lane's starting sum, −0xFFFF for every negative
    /// weight among its taps, so that adding one cell per tap sums the
    /// signed products. Every partial sum stays within ±taps × 0xFFFF,
    /// the i32 bound the network asserts.
    bias: Vec<[i32; LANES]>,
}

impl ConvTable {
    fn new(conv: &QConv, products: &ProductTable) -> Self {
        assert!(
            conv.out_channels.is_multiple_of(LANES),
            "conv output channels must be a multiple of {LANES}"
        );
        let taps = conv.taps();
        let mut rows = Vec::with_capacity(conv.out_channels / LANES * taps);
        let mut bias = Vec::with_capacity(conv.out_channels / LANES);
        for filters in conv.weights.chunks_exact(LANES * taps) {
            let mut start = [0i32; LANES];
            for tap in 0..taps {
                let weights: [i8; LANES] = std::array::from_fn(|lane| filters[lane * taps + tap]);
                let flips = weights.map(|w| if w < 0 { u16::MAX } else { 0 });
                let lanes = weights.map(|w| products.row(w));
                rows.push(std::array::from_fn(|a| {
                    std::array::from_fn(|lane| lanes[lane][a] ^ flips[lane])
                }));
                for (start, flip) in start.iter_mut().zip(flips) {
                    *start -= i32::from(flip);
                }
            }
            bias.push(start);
        }
        ConvTable { rows, bias }
    }
}

/// Every table one multiplier's pass through the network reads,
/// compiled once per multiplier and dropped with its pass: the product
/// table (read by the classifier) and one [`ConvTable`] per conv layer,
/// in layer order.
pub(crate) struct NetworkTables {
    products: ProductTable,
    convs: Vec<ConvTable>,
}

/// A quantized 3×3 convolution (stride 1, one pixel of zero padding),
/// run as one fused stage: conv → ReLU → 2×2/2 max pool → requantize.
#[derive(Debug, Clone)]
pub struct QConv {
    in_channels: usize,
    out_channels: usize,
    /// Weights in `[out_c][in_c][ky][kx]` order.
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
    /// The conv stages in order; each halves the spatial size.
    convs: Vec<QConv>,
    /// Final classifier (produces logits, no requantization).
    classifier: QLinear,
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
        let mut net = Self::uncalibrated(input_hw, classes, seed);
        let exact = net.tabulate(ProductTable::new(&ExactMultiplier::new(8)));
        net.calibrate(seed, &exact);
        net
    }

    /// [`Self::synthetic`] before [`Self::calibrate`]: every shift is 0.
    pub(crate) fn uncalibrated(input_hw: usize, classes: usize, seed: u64) -> Self {
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
            weights: weights(8 * 3 * 9),
            shift: 0,
        };
        let c2 = QConv {
            in_channels: 8,
            out_channels: 16,
            weights: weights(16 * 8 * 9),
            shift: 0,
        };
        let feat_hw = input_hw / 4;
        let fc = QLinear {
            in_features: 16 * feat_hw * feat_hw,
            out_features: classes,
            weights: weights(classes * 16 * feat_hw * feat_hw),
        };
        let net = QuantizedNetwork {
            input_channels: 3,
            input_hw,
            classes,
            convs: vec![c1, c2],
            classifier: fc,
        };
        let taps = net.convs.iter().map(QConv::taps);
        for taps in taps.chain([net.classifier.in_features]) {
            assert!(
                taps as u64 * u64::from(u16::MAX) <= i32::MAX as u64,
                "{taps} taps of 16-bit products overflow the i32 accumulator"
            );
        }
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
        for conv in &self.convs {
            macs += (conv.out_channels * conv.taps() * hw * hw) as u64;
            hw /= 2;
        }
        let fc = &self.classifier;
        macs + (fc.in_features * fc.out_features) as u64
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
    /// multiplication (`exact`, compiled for this network) on an input
    /// seeded from the network `seed`. Runs the conv stages in order,
    /// setting each shift from the stage's largest pooled maximum: both
    /// conv outputs have an even side, so every accumulator lies in a
    /// pooling window and that maximum is the largest accumulator.
    pub(crate) fn calibrate(&mut self, seed: u64, exact: &NetworkTables) {
        let input = self.calibration_input(seed ^ CALIBRATION_SALT);
        let mut shifts = Vec::with_capacity(self.convs.len());
        self.stages(&input, exact, |_, pooled| {
            let shift = calibrated_shift(pooled.iter().copied().max().map_or(0, i64::from));
            shifts.push(shift);
            shift
        });
        for (conv, shift) in self.convs.iter_mut().zip(shifts) {
            conv.shift = shift;
        }
    }

    /// Compiles the tables one multiplier's pass reads from its
    /// product table: one transposed [`ConvTable`] per conv layer.
    pub(crate) fn tabulate(&self, products: ProductTable) -> NetworkTables {
        let convs = self
            .convs
            .iter()
            .map(|conv| ConvTable::new(conv, &products))
            .collect();
        NetworkTables { products, convs }
    }

    /// Runs one forward pass over a multiplier's compiled tables,
    /// returning the raw class logits.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the network.
    pub(crate) fn forward_with(&self, input: &Tensor<u8>, tables: &NetworkTables) -> Vec<i64> {
        let acts = self.stages(input, tables, |conv, _| conv.shift);
        let features = &acts[acts.len() - self.classifier.in_features..];
        self.classifier.forward(features, &tables.products)
    }

    /// Runs `input` through every conv stage on `tables`, requantizing
    /// each stage's pooled maxima by the shift `shift` picks for them.
    ///
    /// Returns the one buffer the pass writes, allocated zeroed per
    /// call: every layer's input back to back, each conv layer's inside
    /// a zero border of [`PADDING`] pixels, and last the classifier's,
    /// flat in `[c][y][x]` order. Each part is written once, so no
    /// border is ever dirtied.
    fn stages(
        &self,
        input: &Tensor<u8>,
        tables: &NetworkTables,
        mut shift: impl FnMut(&QConv, &[i32]) -> u32,
    ) -> Vec<u8> {
        assert_eq!(input.channels(), self.input_channels, "channel mismatch");
        assert_eq!(input.height(), self.input_hw, "height mismatch");
        assert_eq!(input.width(), self.input_hw, "width mismatch");
        let padded = |hw: usize| (hw + 2 * PADDING) * (hw + 2 * PADDING);
        let (mut bytes, mut pooled_len, mut hw) = (self.classifier.in_features, 0, self.input_hw);
        for conv in &self.convs {
            bytes += conv.in_channels * padded(hw);
            hw /= 2;
            pooled_len = pooled_len.max(conv.out_channels * hw * hw);
        }
        let mut acts = vec![0u8; bytes];
        let mut pooled = vec![0i32; pooled_len];
        place(input.as_slice(), self.input_hw, PADDING, &mut acts, |a| a);
        let (mut rest, mut hw) = (acts.as_mut_slice(), self.input_hw);
        for (i, (conv, table)) in self.convs.iter().zip(&tables.convs).enumerate() {
            let (src, dst) = std::mem::take(&mut rest).split_at_mut(conv.in_channels * padded(hw));
            let pooled = &mut pooled[..conv.out_channels * (hw / 2) * (hw / 2)];
            conv.pool(src, hw, table, pooled);
            let shift = shift(conv, pooled);
            let pad = if i + 1 < self.convs.len() { PADDING } else { 0 };
            place(pooled, hw / 2, pad, dst, |v| (v >> shift).min(255) as u8);
            (rest, hw) = (dst, hw / 2);
        }
        acts
    }

    /// Runs a forward pass over a multiplier's compiled tables and
    /// returns the predicted class (argmax of the logits; ties break to
    /// the lower index).
    pub(crate) fn predict_with(&self, input: &Tensor<u8>, tables: &NetworkTables) -> usize {
        argmax(&self.forward_with(input, tables))
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

/// Writes `src`, planes of `hw`² values in `[c][y][x]` order, through
/// `f` into `dst`, planes of `(hw + 2·pad)`² bytes, leaving a border
/// of `pad` pixels around each plane as it is.
fn place<T: Copy>(src: &[T], hw: usize, pad: usize, dst: &mut [u8], f: impl Fn(T) -> u8) {
    let pitch = hw + 2 * pad;
    for (dst, src) in dst
        .chunks_exact_mut(pitch * pitch)
        .zip(src.chunks_exact(hw * hw))
    {
        for (dst, src) in dst[pad * pitch..]
            .chunks_exact_mut(pitch)
            .zip(src.chunks_exact(hw))
        {
            for (dst, &src) in dst[pad..pad + hw].iter_mut().zip(src) {
                *dst = f(src);
            }
        }
    }
}

impl QConv {
    /// Products summed into each output: one per tap `(ic, ky, kx)`.
    fn taps(&self) -> usize {
        self.in_channels * KERNEL * KERNEL
    }

    /// The fused stage's kernel: convolves `input` (`in_channels`
    /// planes of `hw`² pixels, each inside a zero border of
    /// [`PADDING`] pixels) with the weights folded into `table`, and
    /// writes each output channel's 2×2/2 pooled maxima, floored at 0,
    /// to `pooled` (flat `[out_c][hw/2][hw/2]`).
    ///
    /// Floored maxima are ReLU then max pooling, and requantizing them
    /// gives the bytes that pooling requantized activations would:
    /// ReLU and the shift-and-clamp are monotone, so max commutes with
    /// both. A tap `(ic, ky, kx)` of output `(y, x)` is the byte at a
    /// fixed offset from the window's first pixel, so the inner loop
    /// knows nothing of padding. Per chunk of [`LANES`] output channels
    /// and pooling window, each of the window's four positions has
    /// `LANES` accumulators that start at the chunk's bias and add one
    /// table cell per tap; the four read each tap's row together, so
    /// their loads overlap.
    fn pool(&self, input: &[u8], hw: usize, table: &ConvTable, pooled: &mut [i32]) {
        let pitch = hw + 2 * PADDING;
        let plane = pitch * pitch;
        let half = hw / 2;
        let chunks = table.rows.chunks_exact(self.taps()).zip(&table.bias);
        for (out, (rows, bias)) in pooled.chunks_exact_mut(LANES * half * half).zip(chunks) {
            // One group of `KERNEL²` rows per input channel.
            let (rows, _) = rows.as_chunks::<{ KERNEL * KERNEL }>();
            for py in 0..half {
                for px in 0..half {
                    let window = &input[2 * (py * pitch + px)..];
                    let mut sums = [*bias; 4];
                    for (channel, rows) in window.chunks(plane).zip(rows) {
                        for (t, row) in rows.iter().enumerate() {
                            let tap = t / KERNEL * pitch + t % KERNEL;
                            for (sums, offset) in sums.iter_mut().zip([0, 1, pitch, pitch + 1]) {
                                let cell = &row[usize::from(channel[tap + offset])];
                                for (sum, &p) in sums.iter_mut().zip(cell) {
                                    *sum += i32::from(p);
                                }
                            }
                        }
                    }
                    // Starting from 0 is the ReLU.
                    let mut max = [0i32; LANES];
                    for sums in sums {
                        for (max, sum) in max.iter_mut().zip(sums) {
                            *max = (*max).max(sum);
                        }
                    }
                    for (lane, max) in max.into_iter().enumerate() {
                        out[(lane * half + py) * half + px] = max;
                    }
                }
            }
        }
    }
}

impl QLinear {
    /// Dense forward returning raw logits.
    fn forward(&self, input: &[u8], table: &ProductTable) -> Vec<i64> {
        debug_assert_eq!(input.len(), self.in_features, "fc input size mismatch");
        self.weights
            .chunks_exact(self.in_features)
            .map(|weights| {
                let sum: i32 = weights
                    .iter()
                    .zip(input)
                    .map(|(&w, &a)| {
                        // −1 for a negative weight, else 0: `(p ^ m) − m`
                        // is `−p` or `p` without a branch on random signs.
                        let m = -i32::from(w < 0);
                        (i32::from(table.row(w)[usize::from(a)]) ^ m) - m
                    })
                    .sum();
                i64::from(sum)
            })
            .collect()
    }
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
    use super::oracle::max_pool_2x2;
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
        let exact = net.tabulate(ProductTable::new(&ExactMultiplier::new(8)));
        let c = net.predict_with(&input, &exact);
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
