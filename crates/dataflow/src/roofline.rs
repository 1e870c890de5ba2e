//! Roofline and utilization analysis.
//!
//! The paper's overdesign argument ("accelerators often provide more
//! performance than necessary") is fundamentally a utilization
//! statement. This module quantifies it: for any (accelerator, DNN)
//! pair it reports where each layer sits relative to the machine's
//! compute roof and memory roof, and how much of the MAC array the
//! mapping actually keeps busy.

use carma_dnn::DnnModel;

use crate::arch::Accelerator;
use crate::perf::{PerfModel, PerfReport};

/// Whether a layer is limited by arithmetic or by DRAM bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Compute cycles dominate (the MAC array is the bottleneck).
    Compute,
    /// DRAM transfer cycles dominate.
    Memory,
}

/// Roofline placement of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRoofline {
    /// Display name of the layer.
    pub layer: String,
    /// Operational intensity: MACs per DRAM byte.
    pub intensity: f64,
    /// Achieved MACs/cycle.
    pub achieved: f64,
    /// Which roof the layer hits.
    pub bound: Bound,
    /// MAC-array utilization in `[0, 1]`: achieved MACs/cycle over the
    /// array's peak.
    pub utilization: f64,
}

/// Whole-network roofline report.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflineReport {
    /// Peak MACs/cycle of the machine (= number of PEs).
    pub peak_macs_per_cycle: f64,
    /// The machine's balance point (MACs/byte at which compute and
    /// memory roofs intersect).
    pub ridge_intensity: f64,
    /// Per-layer placements.
    pub layers: Vec<LayerRoofline>,
    /// MAC-weighted average array utilization in `[0, 1]`.
    pub average_utilization: f64,
}

impl RooflineReport {
    /// Builds the roofline report for `accel` running `model`.
    ///
    /// # Panics
    ///
    /// Panics if `accel` fails validation (see
    /// [`PerfModel::evaluate`]).
    pub fn analyze(accel: &Accelerator, model: &DnnModel) -> RooflineReport {
        let perf: PerfReport = PerfModel::new().evaluate(accel, model);
        Self::from_perf(accel, model, &perf)
    }

    /// Builds the report from an existing performance evaluation of
    /// `model` on `accel`.
    ///
    /// # Panics
    ///
    /// Panics if `perf` was produced for a different model (layer
    /// counts disagree).
    pub fn from_perf(accel: &Accelerator, model: &DnnModel, perf: &PerfReport) -> RooflineReport {
        let peak = f64::from(accel.macs());
        // DRAM delivers 16 B/cycle (see MappingSearch::dram_cycles):
        // the ridge sits where peak MACs/cycle = 16 · intensity.
        let bytes_per_cycle = 16.0;
        let ridge = peak / bytes_per_cycle;

        let compute_layers: Vec<_> = model.compute_layers().collect();
        assert_eq!(
            compute_layers.len(),
            perf.layers.len(),
            "perf report does not match the model"
        );

        let mut layers = Vec::with_capacity(perf.layers.len());
        let mut weighted_util = 0.0;
        let mut total_macs = 0.0;
        for (layer, lp) in compute_layers.iter().zip(&perf.layers) {
            // True useful work: the layer's MAC count. Utilization then
            // captures both idle slots from ceil effects and memory
            // stalls — the quantity the overdesign argument needs.
            let layer_macs = layer.macs() as f64;
            let intensity = layer_macs / lp.mapping.dram_bytes.max(1) as f64;
            let achieved = layer_macs / lp.cycles.max(1) as f64;
            let bound = if lp.mapping.compute_cycles >= lp.cycles {
                Bound::Compute
            } else {
                Bound::Memory
            };
            let utilization = (achieved / peak).min(1.0);
            weighted_util += utilization * layer_macs;
            total_macs += layer_macs;
            layers.push(LayerRoofline {
                layer: layer.to_string(),
                intensity,
                achieved,
                bound,
                utilization,
            });
        }
        RooflineReport {
            peak_macs_per_cycle: peak,
            ridge_intensity: ridge,
            layers,
            average_utilization: if total_macs > 0.0 {
                weighted_util / total_macs
            } else {
                0.0
            },
        }
    }

    /// Fraction of layers that are memory-bound.
    pub fn memory_bound_fraction(&self) -> f64 {
        if self.layers.is_empty() {
            return 0.0;
        }
        self.layers
            .iter()
            .filter(|l| l.bound == Bound::Memory)
            .count() as f64
            / self.layers.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carma_netlist::TechNode;

    #[test]
    fn vgg_conv_layers_are_compute_bound_fcs_memory_bound() {
        let accel = Accelerator::nvdla_preset(512, TechNode::N7);
        let r = RooflineReport::analyze(&accel, &DnnModel::vgg16());
        // The three FC layers (last three entries) are memory-bound at
        // batch 1.
        let n = r.layers.len();
        for l in &r.layers[n - 3..] {
            assert_eq!(l.bound, Bound::Memory, "{}", l.layer);
        }
        // The big mid-network convs are compute-bound.
        assert!(
            r.layers[..n - 3]
                .iter()
                .filter(|l| l.bound == Bound::Compute)
                .count()
                >= 8,
            "expected mostly compute-bound convs"
        );
    }

    #[test]
    fn utilization_is_a_fraction_and_weighted_mean_is_sane() {
        let accel = Accelerator::nvdla_preset(256, TechNode::N14);
        let r = RooflineReport::analyze(&accel, &DnnModel::resnet50());
        for l in &r.layers {
            assert!((0.0..=1.0).contains(&l.utilization), "{}", l.layer);
        }
        assert!(r.average_utilization > 0.05 && r.average_utilization <= 1.0);
    }

    #[test]
    fn bigger_arrays_are_harder_to_keep_busy() {
        let model = DnnModel::resnet50();
        let small = RooflineReport::analyze(&Accelerator::nvdla_preset(64, TechNode::N7), &model);
        let large = RooflineReport::analyze(&Accelerator::nvdla_preset(2048, TechNode::N7), &model);
        assert!(
            large.average_utilization < small.average_utilization,
            "{} !< {}",
            large.average_utilization,
            small.average_utilization
        );
    }

    #[test]
    fn ridge_scales_with_array_size() {
        let a = RooflineReport::analyze(
            &Accelerator::nvdla_preset(64, TechNode::N7),
            &DnnModel::resnet50(),
        );
        let b = RooflineReport::analyze(
            &Accelerator::nvdla_preset(256, TechNode::N7),
            &DnnModel::resnet50(),
        );
        assert!((b.ridge_intensity / a.ridge_intensity - 4.0).abs() < 1e-9);
    }

    #[test]
    fn memory_bound_fraction_counts() {
        let accel = Accelerator::nvdla_preset(2048, TechNode::N7);
        let r = RooflineReport::analyze(&accel, &DnnModel::vgg16());
        let f = r.memory_bound_fraction();
        assert!(f > 0.0 && f < 1.0, "f = {f}");
    }
}
