//! # carma-analyze
//!
//! Static analysis over [`carma_netlist`]: a structural lint pass and
//! a sound worst-case error bound, both fully static — no simulation.
//!
//! This layer is the validation front door for netlists entering the
//! CARMA flow: it certifies recipe-derived multipliers before
//! characterization time is spent on them, and it is the gatekeeper
//! the upcoming EDIF/Verilog importer will route ingested designs
//! through (see ROADMAP).
//!
//! - [`lint()`] — typed diagnostics ([`Diagnostic`]) with
//!   profile-dependent severities: dead gates (agreeing exactly with
//!   [`Netlist::sweep`]'s removal set), floating inputs,
//!   constant-foldable cones, structural duplicates, port-convention
//!   violations, plus per-output depth/fanout statistics.
//! - [`static_error_bound`] — propagates known-bit masks and weighted
//!   arithmetic intervals through a shared canonical table to bound
//!   `max |approx − exact|` for every input vector, statically.
//!
//! ## Example
//!
//! ```
//! use carma_analyze::{lint, LintOptions, LintProfile};
//!
//! let fixture = carma_analyze::corrupted_fixture();
//! let report = lint(
//!     &fixture,
//!     &LintOptions { profile: LintProfile::Strict, multiplier_width: None },
//! );
//! assert!(report.has_errors());
//! ```
//!
//! [`Netlist::sweep`]: carma_netlist::Netlist::sweep

pub mod bound;
pub mod canon;
pub mod lint;

pub use bound::{static_error_bound, BoundError, StaticBound};
pub use canon::{CanonId, CanonTable};
pub use lint::{lint, Diagnostic, LintCode, LintOptions, LintProfile, LintReport, Severity};

use carma_netlist::{BinOp, Netlist, UnOp};

/// A deliberately corrupted netlist fixture exercising every
/// structural lint: a floating input, a dead (unreachable) cone, a
/// commuted duplicate gate, and a live constant-foldable cone.
///
/// Under [`LintProfile::Strict`] the floating input and dead cone are
/// error-severity, so `carma lint --fixture corrupted` exits non-zero;
/// CI pins that behaviour.
pub fn corrupted_fixture() -> Netlist {
    let mut n = Netlist::new("corrupted_fixture");
    let a = n.input("a");
    let b = n.input("b");
    // Floating: declared but feeding no output cone.
    let _floating = n.input("floating");
    let g1 = n.binary(BinOp::And, a, b);
    // Dead cone: three gates no output ever observes.
    let dead1 = n.binary(BinOp::Xor, a, b);
    let dead2 = n.unary(UnOp::Not, dead1);
    let _dead3 = n.binary(BinOp::Or, dead2, g1);
    // Commuted duplicate of g1 (CSE opportunity).
    let dup = n.binary(BinOp::And, b, a);
    // Live constant-foldable cone sweep keeps: x XOR x == 0.
    let fold = n.binary(BinOp::Xor, g1, g1);
    n.output("o0", g1);
    n.output("o1", dup);
    n.output("o2", fold);
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_fixture_trips_every_structural_lint() {
        let fixture = corrupted_fixture();
        fixture.validate().unwrap();
        let report = lint(
            &fixture,
            &LintOptions {
                profile: LintProfile::Strict,
                multiplier_width: None,
            },
        );
        let count = |code: LintCode| report.diagnostics.iter().filter(|d| d.code == code).count();
        assert_eq!(count(LintCode::DeadGate), 3, "{:?}", report.diagnostics);
        assert_eq!(count(LintCode::FloatingInput), 1);
        assert_eq!(count(LintCode::DuplicateGate), 1);
        assert_eq!(count(LintCode::ConstFold), 1);
        assert!(report.has_errors());
    }

    #[test]
    fn corrupted_fixture_warns_only_under_trusted_profile() {
        let report = lint(&corrupted_fixture(), &LintOptions::default());
        assert!(!report.has_errors());
        assert_eq!(report.worst(), Some(Severity::Warning));
    }
}
