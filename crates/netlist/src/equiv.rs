//! Combinational equivalence checking.
//!
//! After an approximation transform (and especially after [`sweep`]),
//! one wants proof that a rewrite preserved — or a measure of how it
//! changed — the function. [`check_equivalence`] compares two netlists
//! with identical port interfaces exhaustively, over all 2^n input
//! assignments of up to 20 inputs (via the 64-lane simulator).
//!
//! [`sweep`]: crate::Netlist::sweep

use crate::netlist::Netlist;
use crate::sim::{pack_bit, LaneSim};

/// Input-count limit for exhaustive checking (2^20 ≈ 1M vectors).
const EXHAUSTIVE_INPUT_LIMIT: usize = 20;

/// The verdict of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equivalence {
    /// Every input assignment agrees: a proof of equivalence.
    Equivalent,
    /// A disagreement was found; the witness is the lowest offending
    /// input assignment (LSB-first, one bool per primary input).
    Mismatch {
        /// Counterexample input assignment.
        witness: Vec<bool>,
    },
}

/// Errors of [`check_equivalence`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivError {
    /// The two netlists have different input counts.
    InputMismatch {
        /// Inputs of the first netlist.
        left: usize,
        /// Inputs of the second netlist.
        right: usize,
    },
    /// The two netlists have different output counts.
    OutputMismatch {
        /// Outputs of the first netlist.
        left: usize,
        /// Outputs of the second netlist.
        right: usize,
    },
    /// The netlists have more inputs (over 20) than an exhaustive
    /// check covers.
    TooManyInputs {
        /// Inputs of each netlist.
        inputs: usize,
    },
}

impl std::fmt::Display for EquivError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EquivError::InputMismatch { left, right } => {
                write!(f, "input count mismatch: {left} vs {right}")
            }
            EquivError::OutputMismatch { left, right } => {
                write!(f, "output count mismatch: {left} vs {right}")
            }
            EquivError::TooManyInputs { inputs } => write!(
                f,
                "{inputs} inputs exceed the exhaustive limit of {EXHAUSTIVE_INPUT_LIMIT}"
            ),
        }
    }
}

impl std::error::Error for EquivError {}

/// Checks functional equivalence of two netlists with matching port
/// interfaces (same input and output counts, positional matching).
///
/// # Errors
///
/// Returns [`EquivError`] if the port interfaces differ or the
/// netlists have more than 20 inputs.
///
/// # Example
///
/// ```
/// use carma_netlist::{Netlist, BinOp};
/// use carma_netlist::equiv::{check_equivalence, Equivalence};
///
/// # fn main() -> Result<(), carma_netlist::equiv::EquivError> {
/// // a AND b  vs  NOT(NOT a OR NOT b): De Morgan equivalent.
/// let mut x = Netlist::new("and");
/// let a = x.input("a");
/// let b = x.input("b");
/// let g = x.binary(BinOp::And, a, b);
/// x.output("y", g);
///
/// let mut y = Netlist::new("demorgan");
/// let a = y.input("a");
/// let b = y.input("b");
/// let na = y.unary(carma_netlist::UnOp::Not, a);
/// let nb = y.unary(carma_netlist::UnOp::Not, b);
/// let o = y.binary(BinOp::Or, na, nb);
/// let g = y.unary(carma_netlist::UnOp::Not, o);
/// y.output("y", g);
///
/// assert_eq!(check_equivalence(&x, &y)?, Equivalence::Equivalent);
/// # Ok(())
/// # }
/// ```
pub fn check_equivalence(left: &Netlist, right: &Netlist) -> Result<Equivalence, EquivError> {
    if left.input_count() != right.input_count() {
        return Err(EquivError::InputMismatch {
            left: left.input_count(),
            right: right.input_count(),
        });
    }
    if left.output_count() != right.output_count() {
        return Err(EquivError::OutputMismatch {
            left: left.output_count(),
            right: right.output_count(),
        });
    }
    let n_inputs = left.input_count();
    if n_inputs > EXHAUSTIVE_INPUT_LIMIT {
        return Err(EquivError::TooManyInputs { inputs: n_inputs });
    }
    // Every assignment in index order, one bit (0/1) per input, so the
    // first mismatch found is the lowest.
    let vectors = (0..1u64 << n_inputs).map(|x| (0..n_inputs).map(|i| (x >> i) & 1).collect());
    Ok(check_vectors(left, right, vectors))
}

fn check_vectors(
    left: &Netlist,
    right: &Netlist,
    vectors: impl Iterator<Item = Vec<u64>>,
) -> Equivalence {
    let n_inputs = left.input_count();
    let lsim = LaneSim::new(left);
    let rsim = LaneSim::new(right);
    let mut lscratch = Vec::new();
    let mut rscratch = Vec::new();

    let mut batch: Vec<Vec<u64>> = Vec::with_capacity(64);
    let mut flush = |batch: &mut Vec<Vec<u64>>| -> Option<Vec<bool>> {
        if batch.is_empty() {
            return None;
        }
        // Pack per-input words across the batch lanes.
        let words: Vec<u64> = (0..n_inputs)
            .map(|i| {
                let bits: Vec<u64> = batch.iter().map(|v| v[i]).collect();
                pack_bit(&bits, 0)
            })
            .collect();
        let lo = lsim.eval_into(&words, &mut lscratch);
        let ro = rsim.eval_into(&words, &mut rscratch);
        for (lane, vector) in batch.iter().enumerate() {
            for (lw, rw) in lo.iter().zip(&ro) {
                if (lw >> lane) & 1 != (rw >> lane) & 1 {
                    let witness = vector.iter().map(|&b| b == 1).collect();
                    batch.clear();
                    return Some(witness);
                }
            }
        }
        batch.clear();
        None
    };

    for v in vectors {
        batch.push(v);
        if batch.len() == 64 {
            if let Some(witness) = flush(&mut batch) {
                return Equivalence::Mismatch { witness };
            }
        }
    }
    if let Some(witness) = flush(&mut batch) {
        return Equivalence::Mismatch { witness };
    }
    Equivalence::Equivalent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{BinOp, UnOp};

    fn and2() -> Netlist {
        let mut n = Netlist::new("and2");
        let a = n.input("a");
        let b = n.input("b");
        let g = n.binary(BinOp::And, a, b);
        n.output("y", g);
        n
    }

    fn nand_not() -> Netlist {
        let mut n = Netlist::new("nandnot");
        let a = n.input("a");
        let b = n.input("b");
        let g = n.binary(BinOp::Nand, a, b);
        let y = n.unary(UnOp::Not, g);
        n.output("y", y);
        n
    }

    #[test]
    fn equivalent_implementations_pass() {
        let v = check_equivalence(&and2(), &nand_not()).unwrap();
        assert_eq!(v, Equivalence::Equivalent);
    }

    #[test]
    fn sweep_preserves_equivalence() {
        let mut n = and2();
        let one = n.constant(true);
        let a = n.input_ids()[0];
        let g = n.binary(BinOp::And, a, one);
        n.output("z", g);
        let swept = n.sweep();
        assert_eq!(
            check_equivalence(&n, &swept).unwrap(),
            Equivalence::Equivalent
        );
    }

    #[test]
    fn mismatch_produces_valid_witness() {
        let mut or2 = Netlist::new("or2");
        let a = or2.input("a");
        let b = or2.input("b");
        let g = or2.binary(BinOp::Or, a, b);
        or2.output("y", g);
        let v = check_equivalence(&and2(), &or2).unwrap();
        match v {
            Equivalence::Mismatch { witness } => {
                assert_eq!(witness.len(), 2);
                // The witness must actually distinguish them.
                let l = and2().eval_bits(&witness);
                let r = or2.eval_bits(&witness);
                assert_ne!(l, r);
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn interface_mismatches_are_errors() {
        let mut one_in = Netlist::new("buf");
        let a = one_in.input("a");
        one_in.output("y", a);
        assert!(matches!(
            check_equivalence(&and2(), &one_in),
            Err(EquivError::InputMismatch { .. })
        ));

        let mut two_out = and2();
        let a = two_out.input_ids()[0];
        two_out.output("y2", a);
        assert!(matches!(
            check_equivalence(&and2(), &two_out),
            Err(EquivError::OutputMismatch { .. })
        ));
    }

    #[test]
    fn more_than_twenty_inputs_are_refused() {
        // 21 inputs: a parity chain, equivalent to itself, but past
        // the exhaustive limit.
        let build = || {
            let mut n = Netlist::new("parity21");
            let inputs: Vec<_> = (0..21).map(|i| n.input(format!("i{i}"))).collect();
            let mut acc = inputs[0];
            for &x in &inputs[1..] {
                acc = n.binary(BinOp::Xor, acc, x);
            }
            n.output("p", acc);
            n
        };
        let err = check_equivalence(&build(), &build()).unwrap_err();
        assert_eq!(err, EquivError::TooManyInputs { inputs: 21 });
        assert_eq!(
            err.to_string(),
            "21 inputs exceed the exhaustive limit of 20"
        );
    }
}
