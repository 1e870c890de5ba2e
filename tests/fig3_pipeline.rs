//! Integration test: the Figure 3 pipeline at reduced scale.
//!
//! The paper's Fig. 3 compares three designs — exact baseline at
//! 30 FPS, approximate-only, GA-CDP — across four DNNs and three
//! nodes, normalized to the exact baseline, and reports 30–70 %
//! savings for the proposed flow. The full grid runs as
//! `carma run fig3`; here two models × two nodes assert the shape.

use carma_core::experiments::{fig3_row_with, ACCURACY_CLASSES, FPS_THRESHOLDS};
use carma_core::{CarmaContext, Constraints};
use carma_dnn::DnnModel;
use carma_ga::GaConfig;
use carma_netlist::TechNode;
use std::sync::OnceLock;

fn ctx(node: TechNode) -> &'static CarmaContext {
    static N7: OnceLock<CarmaContext> = OnceLock::new();
    static N28: OnceLock<CarmaContext> = OnceLock::new();
    match node {
        TechNode::N7 => N7.get_or_init(|| CarmaContext::reduced(TechNode::N7)),
        TechNode::N28 => N28.get_or_init(|| CarmaContext::reduced(TechNode::N28)),
        TechNode::N14 => unreachable!("N14 not used in the reduced grid"),
    }
}

/// The paper's Figure 3 constraints: the first FPS threshold and the
/// loosest accuracy class.
fn paper_constraints() -> Constraints {
    Constraints::new(FPS_THRESHOLDS[0], ACCURACY_CLASSES[2]).expect("paper thresholds are valid")
}

fn fast_ga() -> GaConfig {
    GaConfig::default()
        .with_population(24)
        .with_generations(15)
        .with_seed(0xF163)
}

#[test]
fn fig3_bars_are_ordered_exact_approx_gacdp() {
    for node in [TechNode::N7, TechNode::N28] {
        for model in [DnnModel::vgg16(), DnnModel::resnet50()] {
            let row = fig3_row_with(ctx(node), &model, fast_ga(), paper_constraints());
            assert_eq!(row.exact, 1.0);
            // Approximation alone helps but is bounded (iso-arch).
            assert!(
                row.approx_only <= 1.0,
                "{} @ {node}: approx-only {} > 1",
                row.model,
                row.approx_only
            );
            assert!(
                row.approx_only > 0.6,
                "approx-only saving implausibly large"
            );
            // The proposed flow is at least as good as approx-only.
            assert!(
                row.ga_cdp <= row.approx_only + 1e-9,
                "{} @ {node}: ga-cdp {} worse than approx-only {}",
                row.model,
                row.ga_cdp,
                row.approx_only
            );
            assert!(row.exact_carbon_g > 0.0);
        }
    }
}

#[test]
fn fig3_ga_savings_reach_papers_band() {
    // Paper: "up to 65% savings for VGG16 and 30%–70% for others".
    // With the reduced library/GA budget we require at least 15 %
    // somewhere and sanity-bound everything.
    let mut best_saving: f64 = 0.0;
    for node in [TechNode::N7, TechNode::N28] {
        for model in [DnnModel::vgg16(), DnnModel::resnet50()] {
            let row = fig3_row_with(ctx(node), &model, fast_ga(), paper_constraints());
            let saving = 1.0 - row.ga_cdp;
            assert!(
                (0.0..0.95).contains(&saving),
                "{} @ {:?}: saving {saving} out of range",
                row.model,
                node
            );
            best_saving = best_saving.max(saving);
        }
    }
    assert!(
        best_saving > 0.15,
        "best GA-CDP saving only {:.1}%",
        best_saving * 100.0
    );
}
