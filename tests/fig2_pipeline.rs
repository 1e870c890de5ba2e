//! Integration test: the Figure 2 pipeline at reduced scale.
//!
//! Asserts the qualitative claims of the paper's Fig. 2 for VGG16 at
//! 7 nm: carbon grows monotonically (and substantially) along the
//! exact NVDLA sweep; iso-architecture approximation cuts carbon by a
//! few percent without touching FPS; GA-CDP designs meet their FPS
//! thresholds at (much) lower carbon than the exact baseline that
//! meets the same threshold.

use carma_core::experiments::{
    fig2_scatter_with, reduction_table_with, ACCURACY_CLASSES, FPS_THRESHOLDS,
};
use carma_core::flow::{approx_only_sweep, exact_sweep, smallest_exact_meeting};
use carma_core::CarmaContext;
use carma_dnn::DnnModel;
use carma_ga::GaConfig;
use carma_netlist::TechNode;
use std::sync::OnceLock;

fn ctx() -> &'static CarmaContext {
    static CTX: OnceLock<CarmaContext> = OnceLock::new();
    CTX.get_or_init(|| CarmaContext::reduced(TechNode::N7))
}

fn fast_ga() -> GaConfig {
    GaConfig::default()
        .with_population(24)
        .with_generations(18)
        .with_seed(0xF162)
}

#[test]
fn exact_sweep_carbon_grows_with_compute() {
    let sweep = exact_sweep(ctx(), &DnnModel::vgg16());
    assert_eq!(sweep.len(), 6);
    for w in sweep.windows(2) {
        assert!(
            w[1].eval.embodied > w[0].eval.embodied,
            "carbon must grow with PEs"
        );
        assert!(w[1].eval.fps > w[0].eval.fps, "fps must grow with PEs");
    }
    // Paper: "exponential carbon increase as the architecture becomes
    // more compute-intensive" — the carbon span across the sweep is
    // large (multiples, not percents).
    let first = sweep.first().unwrap().eval.embodied.as_grams();
    let last = sweep.last().unwrap().eval.embodied.as_grams();
    assert!(
        last / first > 3.0,
        "carbon span too small: {first} → {last}"
    );
}

#[test]
fn approx_only_gives_iso_architecture_savings() {
    let model = DnnModel::vgg16();
    let exact = exact_sweep(ctx(), &model);
    // The paper's loosest class (2 %) gave ≈ 5 % savings at 7 nm.
    let approx = approx_only_sweep(ctx(), &model, 0.02);
    let mut savings = Vec::new();
    for (e, a) in exact.iter().zip(&approx) {
        assert_eq!(e.eval.fps, a.eval.fps, "approximation must not change FPS");
        let s = 1.0 - a.eval.embodied.as_grams() / e.eval.embodied.as_grams();
        assert!(s >= 0.0, "approximation must never increase carbon");
        savings.push(s);
    }
    let avg = savings.iter().sum::<f64>() / savings.len() as f64;
    assert!(
        avg > 0.005 && avg < 0.25,
        "avg iso-architecture saving {avg} out of the paper's range"
    );
}

#[test]
fn reduction_table_is_monotone_in_accuracy_budget() {
    let rows = reduction_table_with(ctx(), &DnnModel::vgg16(), &ACCURACY_CLASSES);
    assert_eq!(rows.len(), ACCURACY_CLASSES.len());
    for w in rows.windows(2) {
        assert!(
            w[1].avg_pct >= w[0].avg_pct - 1e-9,
            "looser budget must not reduce savings: {w:?}"
        );
    }
    for r in &rows {
        assert!(r.peak_pct >= r.avg_pct);
        assert!(r.avg_pct >= 0.0 && r.peak_pct < 100.0);
    }
}

#[test]
fn fig2_ga_points_meet_thresholds_and_beat_exact_baselines() {
    let model = DnnModel::vgg16();
    let rows = fig2_scatter_with(ctx(), &model, fast_ga(), &ACCURACY_CLASSES, &FPS_THRESHOLDS);
    // 6 exact + 3×6 approx + 3 GA points.
    assert_eq!(rows.len(), 6 + 18 + 3);
    for &fps in &[30.0, 40.0, 50.0] {
        let ga_row = rows
            .iter()
            .find(|r| r.series == format!("ga-cdp@{fps}"))
            .expect("GA row present");
        assert!(
            ga_row.fps >= fps,
            "GA design misses its threshold: {} < {fps}",
            ga_row.fps
        );
        let baseline = smallest_exact_meeting(ctx(), &model, fps);
        assert!(
            ga_row.carbon_g <= baseline.eval.embodied.as_grams() * 1.001,
            "GA ({:.2} g) must not lose to the exact baseline ({:.2} g) at {fps} FPS",
            ga_row.carbon_g,
            baseline.eval.embodied.as_grams()
        );
    }
}

#[test]
fn ga_cdp_savings_are_substantial_at_30fps() {
    // Paper: "This approach significantly reduced the embodied carbon
    // footprint, achieving reductions of up to 50%."
    let model = DnnModel::vgg16();
    let baseline = smallest_exact_meeting(ctx(), &model, 30.0);
    let rows = fig2_scatter_with(ctx(), &model, fast_ga(), &ACCURACY_CLASSES, &FPS_THRESHOLDS);
    let ga_row = rows
        .iter()
        .find(|r| r.series == "ga-cdp@30")
        .expect("GA row present");
    let saving = 1.0 - ga_row.carbon_g / baseline.eval.embodied.as_grams();
    assert!(
        saving > 0.10,
        "GA-CDP saving at 30 FPS too small: {:.1}%",
        saving * 100.0
    );
}
