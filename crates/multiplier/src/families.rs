//! Classic multiplier families from the approximate-computing
//! literature, built on the same partial-product/reduction framework
//! as [`crate::exact`]:
//!
//! * [`broken_array`] — the Broken-Array Multiplier (BAM): partial
//!   products below a vertical break line are omitted outright;
//! * [`truncated_with_correction`] — fixed-width truncation with a
//!   constant correction term that re-centres the error distribution
//!   (smaller bias than naive truncation at equal area).
//!
//! All constructors return ordinary [`MultiplierCircuit`]s, so the
//! whole downstream flow — error profiling, LUT compilation, library
//! membership, carbon accounting — applies unchanged.

use carma_netlist::{BinOp, Netlist, NodeId};

use crate::exact::{reduce_columns, ripple_final_adder, MultiplierCircuit, ReductionKind};

/// Generates a Broken-Array Multiplier: an unsigned multiplier whose
/// partial products in the `omit_columns` least-significant columns
/// are dropped entirely (the classic BAM vertical break line).
///
/// Larger `omit_columns` ⇒ smaller circuit, larger (always
/// underestimating) error. `omit_columns = 0` degenerates to the exact
/// multiplier.
///
/// # Panics
///
/// Panics if `width` is outside `1..=16` or
/// `omit_columns ≥ 2·width`.
pub fn broken_array(width: u32, omit_columns: u32, kind: ReductionKind) -> MultiplierCircuit {
    assert!(
        (1..=16).contains(&width),
        "width must be in 1..=16, got {width}"
    );
    assert!(
        omit_columns < 2 * width,
        "cannot omit all {} columns",
        2 * width
    );
    let n = width as usize;
    let mut nl = Netlist::new(format!("bam{width}_{omit_columns}_{kind}"));
    let a: Vec<NodeId> = (0..n).map(|i| nl.input(format!("a{i}"))).collect();
    let b: Vec<NodeId> = (0..n).map(|j| nl.input(format!("b{j}"))).collect();

    let mut columns: Vec<Vec<NodeId>> = vec![Vec::new(); 2 * n];
    for i in 0..n {
        for j in 0..n {
            if (i + j) < omit_columns as usize {
                continue; // below the vertical break line
            }
            let pp = nl.binary(BinOp::And, a[i], b[j]);
            columns[i + j].push(pp);
        }
    }
    reduce_columns(&mut nl, &mut columns, kind);
    let product = ripple_final_adder(&mut nl, &columns);
    for (k, bit) in product.into_iter().enumerate() {
        nl.output(format!("p{k}"), bit);
    }
    MultiplierCircuit::from_netlist(nl, width)
}

/// Generates a truncated multiplier with **constant correction**: the
/// `omit_columns` least-significant partial-product columns are
/// dropped (as in [`broken_array`]) and the expected value of the
/// dropped sum is re-injected as constant bits, halving the error bias
/// at negligible area cost.
///
/// # Panics
///
/// Same conditions as [`broken_array`].
pub fn truncated_with_correction(
    width: u32,
    omit_columns: u32,
    kind: ReductionKind,
) -> MultiplierCircuit {
    assert!(
        (1..=16).contains(&width),
        "width must be in 1..=16, got {width}"
    );
    assert!(
        omit_columns < 2 * width,
        "cannot omit all {} columns",
        2 * width
    );
    let n = width as usize;
    let mut nl = Netlist::new(format!("tcc{width}_{omit_columns}_{kind}"));
    let a: Vec<NodeId> = (0..n).map(|i| nl.input(format!("a{i}"))).collect();
    let b: Vec<NodeId> = (0..n).map(|j| nl.input(format!("b{j}"))).collect();

    let mut columns: Vec<Vec<NodeId>> = vec![Vec::new(); 2 * n];
    let mut dropped_expectation = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            if (i + j) < omit_columns as usize {
                // Each dropped AND has expectation 1/4 over uniform
                // operands.
                dropped_expectation += 0.25 * (1u64 << (i + j)) as f64;
                continue;
            }
            let pp = nl.binary(BinOp::And, a[i], b[j]);
            columns[i + j].push(pp);
        }
    }
    // Inject the rounded expected value as constant-1 bits.
    let correction = dropped_expectation.round() as u64;
    for (c, column) in columns.iter_mut().enumerate().take(2 * n) {
        if (correction >> c) & 1 == 1 {
            let one = nl.constant(true);
            column.push(one);
        }
    }

    reduce_columns(&mut nl, &mut columns, kind);
    let product = ripple_final_adder(&mut nl, &columns);
    for (k, bit) in product.into_iter().enumerate() {
        nl.output(format!("p{k}"), bit);
    }
    MultiplierCircuit::from_netlist(nl, width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorProfile;

    #[test]
    fn bam_zero_break_is_exact() {
        let m = broken_array(8, 0, ReductionKind::Dadda);
        let p = ErrorProfile::exhaustive(&m);
        assert_eq!(p.error_rate, 0.0);
    }

    #[test]
    fn bam_underestimates_and_shrinks() {
        let exact = broken_array(8, 0, ReductionKind::Dadda);
        let mut last_area = exact.transistor_count();
        let mut last_med = 0.0;
        for omit in [2u32, 4, 6] {
            let m = broken_array(8, omit, ReductionKind::Dadda);
            assert!(m.transistor_count() < last_area, "omit={omit}");
            let p = ErrorProfile::exhaustive(&m);
            assert!(p.bias <= 0.0, "BAM can only drop value: bias {}", p.bias);
            assert!(p.med > last_med, "omit={omit}");
            last_area = m.transistor_count();
            last_med = p.med;
        }
    }

    #[test]
    fn correction_reduces_bias_at_same_break() {
        let omit = 6;
        let bam = broken_array(8, omit, ReductionKind::Dadda);
        let tcc = truncated_with_correction(8, omit, ReductionKind::Dadda);
        let p_bam = ErrorProfile::exhaustive(&bam);
        let p_tcc = ErrorProfile::exhaustive(&tcc);
        assert!(
            p_tcc.bias.abs() < p_bam.bias.abs() / 2.0,
            "correction must re-centre the error: |{}| !< |{}|/2",
            p_tcc.bias,
            p_bam.bias
        );
        // Roughly the same area (correction is constants only).
        let ratio = tcc.transistor_count() as f64 / bam.transistor_count() as f64;
        assert!((0.9..1.2).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn bam_is_cheaper_than_truncation_at_matched_error() {
        // BAM removes reduction logic too, so at matched MED it should
        // not be larger than input truncation.
        use crate::approx::ApproxGenome;
        let base = MultiplierCircuit::generate(8, ReductionKind::Dadda);
        let trunc = ApproxGenome::truncation(2, 2).apply(&base);
        let p_trunc = ErrorProfile::exhaustive(&trunc);
        // Find the BAM with the closest (not larger) MED.
        let mut best: Option<(u32, f64, u64)> = None;
        for omit in 1..8 {
            let m = broken_array(8, omit, ReductionKind::Dadda);
            let p = ErrorProfile::exhaustive(&m);
            if p.med <= p_trunc.med {
                best = Some((omit, p.med, m.transistor_count()));
            }
        }
        let (_, _, bam_area) = best.expect("some BAM under the truncation MED");
        assert!(bam_area < base.transistor_count());
    }

    #[test]
    #[should_panic(expected = "cannot omit all")]
    fn bam_full_omission_rejected() {
        let _ = broken_array(4, 8, ReductionKind::Array);
    }
}
