//! Error characterization of (approximate) multipliers.
//!
//! [`ErrorProfile`] captures the metrics the approximate-computing
//! literature uses to qualify a unit: error rate, mean error distance
//! (MED), normalized MED, mean relative error distance (MRED),
//! worst-case error (WCE), signed bias and error variance. The DNN
//! accuracy model in `carma-dnn` consumes the bias/variance pair; the
//! NSGA-II library search minimizes (area, MRED).
//!
//! Characterization is exhaustive over all 2^(2n) operand pairs of a
//! width-n multiplier (n ≤ 10). A pair's index is its lane-simulator
//! input assignment (the `a` bits, then the `b` bits), so
//! [`LaneSim::sweep`] enumerates the pairs 64 at a time.
//!
//! The sweep runs on the `carma-exec` pool: the operand space is cut
//! into fixed-size chunks (fixed regardless of thread count), each
//! chunk accumulates privately in pair order, and the partial
//! accumulators merge in chunk order. Results are therefore
//! bit-identical at every `CARMA_THREADS` setting.

use carma_netlist::sim::{unpack_lane, WORD_LANES};
use carma_netlist::LaneSim;

use crate::exact::MultiplierCircuit;

/// Operand pairs per parallel work chunk. Fixed (never derived from
/// the thread count) so the chunk boundaries — and with them the f64
/// accumulation order — are identical at any parallelism.
const CHUNK_PAIRS: u64 = 1 << 12;

/// Statistical error profile of a multiplier against exact
/// multiplication.
///
/// ```
/// use carma_multiplier::exact::{MultiplierCircuit, ReductionKind};
/// use carma_multiplier::approx::ApproxGenome;
/// use carma_multiplier::error::ErrorProfile;
///
/// let base = MultiplierCircuit::generate(8, ReductionKind::Dadda);
/// let approx = ApproxGenome::truncation(2, 2).apply(&base);
/// let p = ErrorProfile::exhaustive(&approx);
/// assert!(p.error_rate > 0.0 && p.nmed < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorProfile {
    /// Operand width of the characterized multiplier.
    pub width: u32,
    /// Fraction of operand pairs with a wrong product, in `[0, 1]`.
    pub error_rate: f64,
    /// Mean absolute error distance `E[|approx − exact|]`.
    pub med: f64,
    /// MED normalized by the maximum exact product, in `[0, 1]`.
    pub nmed: f64,
    /// Mean relative error distance `E[|e| / max(1, exact)]`.
    pub mred: f64,
    /// Worst-case absolute error.
    pub wce: u64,
    /// Signed mean error `E[approx − exact]` (negative = underestimates,
    /// the typical signature of truncation).
    pub bias: f64,
    /// Variance of the signed error.
    pub variance: f64,
}

impl ErrorProfile {
    /// A perfect profile (used for exact multipliers and as the unit of
    /// comparisons).
    pub fn zero(width: u32) -> Self {
        ErrorProfile {
            width,
            error_rate: 0.0,
            med: 0.0,
            nmed: 0.0,
            mred: 0.0,
            wce: 0,
            bias: 0.0,
            variance: 0.0,
        }
    }

    /// Characterizes `circuit` over all `2^(2n)` operand pairs.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than 10 bits.
    pub fn exhaustive(circuit: &MultiplierCircuit) -> Self {
        let n = circuit.width();
        assert!(
            n <= 10,
            "exhaustive characterization supports width ≤ 10, got {n}"
        );
        let total = 1u64 << (2 * n);
        let mask = (1u64 << n) - 1;
        let sim = LaneSim::new(circuit.netlist());
        let chunks = total.div_ceil(CHUNK_PAIRS) as usize;
        let partials = carma_exec::par_gen(chunks, |c| {
            let start = c as u64 * CHUNK_PAIRS;
            let end = (start + CHUNK_PAIRS).min(total);
            let mut acc = Accumulator::new(n);
            sim.sweep(start..end, |first, out| {
                for lane in 0..(end - first).min(WORD_LANES as u64) {
                    let pair = first + lane;
                    acc.record(pair & mask, pair >> n, unpack_lane(out, lane as usize));
                }
            });
            acc
        });
        Accumulator::merge_in_order(n, partials).finish()
    }
}

/// Streaming accumulator for the error statistics.
struct Accumulator {
    width: u32,
    count: u64,
    errors: u64,
    sum_abs: f64,
    sum_rel: f64,
    sum_signed: f64,
    sum_signed_sq: f64,
    wce: u64,
}

impl Accumulator {
    fn new(width: u32) -> Self {
        Accumulator {
            width,
            count: 0,
            errors: 0,
            sum_abs: 0.0,
            sum_rel: 0.0,
            sum_signed: 0.0,
            sum_signed_sq: 0.0,
            wce: 0,
        }
    }

    /// Folds `other` into `self` (field-wise sums, max of worst
    /// cases).
    fn absorb(&mut self, other: &Accumulator) {
        debug_assert_eq!(self.width, other.width);
        self.count += other.count;
        self.errors += other.errors;
        self.sum_abs += other.sum_abs;
        self.sum_rel += other.sum_rel;
        self.sum_signed += other.sum_signed;
        self.sum_signed_sq += other.sum_signed_sq;
        self.wce = self.wce.max(other.wce);
    }

    /// Merges per-chunk accumulators **in chunk order** — the fixed
    /// fold order that keeps the f64 sums identical at any thread
    /// count.
    fn merge_in_order(width: u32, partials: Vec<Accumulator>) -> Accumulator {
        let mut total = Accumulator::new(width);
        for p in partials {
            total.absorb(&p);
        }
        total
    }

    fn record(&mut self, a: u64, b: u64, approx: u64) {
        let exact = a * b;
        let signed = approx as f64 - exact as f64;
        let abs = signed.abs();
        self.count += 1;
        if approx != exact {
            self.errors += 1;
        }
        self.sum_abs += abs;
        self.sum_rel += abs / (exact.max(1) as f64);
        self.sum_signed += signed;
        self.sum_signed_sq += signed * signed;
        self.wce = self.wce.max(abs as u64);
    }

    fn finish(self) -> ErrorProfile {
        let count = self.count.max(1) as f64;
        let max_val = (1u64 << self.width) - 1;
        let max_product = (max_val * max_val) as f64;
        let bias = self.sum_signed / count;
        ErrorProfile {
            width: self.width,
            error_rate: self.errors as f64 / count,
            med: self.sum_abs / count,
            nmed: self.sum_abs / count / max_product.max(1.0),
            mred: self.sum_rel / count,
            wce: self.wce,
            bias,
            variance: (self.sum_signed_sq / count - bias * bias).max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::ApproxGenome;
    use crate::exact::ReductionKind;

    fn base8() -> MultiplierCircuit {
        MultiplierCircuit::generate(8, ReductionKind::Dadda)
    }

    #[test]
    fn exact_multiplier_has_zero_profile() {
        let p = ErrorProfile::exhaustive(&base8());
        assert_eq!(p.error_rate, 0.0);
        assert_eq!(p.med, 0.0);
        assert_eq!(p.wce, 0);
        assert_eq!(p.bias, 0.0);
        assert_eq!(p.variance, 0.0);
    }

    #[test]
    fn exact_4bit_all_kinds_zero_profile() {
        for kind in ReductionKind::ALL {
            let m = MultiplierCircuit::generate(4, kind);
            let p = ErrorProfile::exhaustive(&m);
            assert_eq!(p.error_rate, 0.0, "{kind}");
        }
    }

    #[test]
    fn truncation_error_matches_analytic_value_4bit() {
        // Truncating 1 LSB of a: approx = (a & !1) * b, so
        // error = (a & 1) * b. Over all 256 pairs of 4-bit operands:
        // MED = E[(a&1)·b] = 0.5 · 7.5 = 3.75.
        let base = MultiplierCircuit::generate(4, ReductionKind::Array);
        let approx = ApproxGenome::truncation(1, 0).apply(&base);
        let p = ErrorProfile::exhaustive(&approx);
        assert!((p.med - 3.75).abs() < 1e-9, "med = {}", p.med);
        // Bias is negative (truncation underestimates) with |bias| = MED.
        assert!((p.bias + 3.75).abs() < 1e-9, "bias = {}", p.bias);
        // Error occurs iff (a odd) and (b != 0): 8/16 · 15/16 = 0.46875.
        assert!((p.error_rate - 0.468_75).abs() < 1e-9);
        // WCE = 1 × 15 = 15.
        assert_eq!(p.wce, 15);
    }

    #[test]
    fn deeper_truncation_has_larger_error() {
        let base = base8();
        let mut last_mred = 0.0;
        for t in 1..=4u8 {
            let p = ErrorProfile::exhaustive(&ApproxGenome::truncation(t, t).apply(&base));
            assert!(p.mred > last_mred, "t={t}: {} !> {last_mred}", p.mred);
            last_mred = p.mred;
        }
    }

    #[test]
    fn nmed_is_normalized() {
        let base = base8();
        let p = ErrorProfile::exhaustive(&ApproxGenome::truncation(4, 4).apply(&base));
        assert!(p.nmed > 0.0 && p.nmed < 1.0);
        assert!((p.nmed - p.med / (255.0 * 255.0)).abs() < 1e-12);
    }

    #[test]
    fn characterization_is_thread_count_invariant() {
        let base = base8();
        let approx = ApproxGenome::truncation(2, 1).apply(&base);
        let exhaustive_1 = carma_exec::with_threads(1, || ErrorProfile::exhaustive(&approx));
        let exhaustive_8 = carma_exec::with_threads(8, || ErrorProfile::exhaustive(&approx));
        assert_eq!(exhaustive_1, exhaustive_8);
    }

    #[test]
    #[should_panic(expected = "supports width ≤ 10, got 11")]
    fn exhaustive_rejects_widths_above_10() {
        let _ = ErrorProfile::exhaustive(&MultiplierCircuit::generate(11, ReductionKind::Dadda));
    }

    #[test]
    fn zero_profile_constructor() {
        let p = ErrorProfile::zero(8);
        assert_eq!(p.width, 8);
        assert_eq!(p.mred, 0.0);
    }
}
