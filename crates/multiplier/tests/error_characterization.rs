//! Characterization contract for [`carma_multiplier::ErrorProfile`]:
//! exact circuits have identically zero error, and truncated circuits
//! land inside analytically known NMED bounds.

use carma_multiplier::{ApproxGenome, ErrorProfile, MultiplierCircuit, ReductionKind};

fn exact8() -> MultiplierCircuit {
    MultiplierCircuit::generate(8, ReductionKind::Dadda)
}

#[test]
fn exact_multiplier_has_zero_error_exhaustively() {
    let p = ErrorProfile::exhaustive(&exact8());
    assert_eq!(p.error_rate, 0.0);
    assert_eq!(p.med, 0.0);
    assert_eq!(p.nmed, 0.0);
    assert_eq!(p.mred, 0.0);
    assert_eq!(p.wce, 0);
    assert_eq!(p.bias, 0.0);
    assert_eq!(p.variance, 0.0);
}

/// For truncating the `t` low bits of both operands of an 8×8
/// multiplier, the worst-case product error is bounded by
/// `a_low·b_high + b_low·a_high + a_low·b_low <
/// 2·(2^t−1)·255 + (2^t−1)²`, giving an analytic NMED ceiling of
/// `WCE / P_max`. The mean error is far below the ceiling.
#[test]
fn truncated_multiplier_nmed_within_analytic_bounds() {
    let p_max = 255.0f64 * 255.0;
    for t in [1u8, 2, 3, 4] {
        let circuit = ApproxGenome::truncation(t, t).apply(&exact8());
        let low = (1u64 << t) - 1;
        let wce_bound = (2 * low * 255 + low * low) as f64;

        let exhaustive = ErrorProfile::exhaustive(&circuit);
        assert!(
            exhaustive.error_rate > 0.0,
            "t={t}: truncation must commit errors"
        );
        assert!(exhaustive.nmed > 0.0, "t={t}: NMED must be nonzero");
        assert!(
            exhaustive.nmed <= wce_bound / p_max,
            "t={t}: exhaustive NMED {} above analytic ceiling {}",
            exhaustive.nmed,
            wce_bound / p_max
        );
        assert!(
            exhaustive.wce as f64 <= wce_bound,
            "t={t}: WCE {} above analytic bound {wce_bound}",
            exhaustive.wce
        );
    }
}

#[test]
fn deeper_truncation_strictly_increases_nmed() {
    let mut last = 0.0;
    for t in [1u8, 2, 3, 4, 5] {
        let p = ErrorProfile::exhaustive(&ApproxGenome::truncation(t, t).apply(&exact8()));
        assert!(
            p.nmed > last,
            "t={t}: NMED {} not above previous {last}",
            p.nmed
        );
        last = p.nmed;
    }
}
