//! Per-inference energy model (extension beyond the paper's embodied
//! focus; powers the CEP/EDP ablations and the operational-carbon
//! comparison).

use carma_netlist::TechNode;

use crate::perf::PerfReport;

/// Fraction of a MAC's energy attributable to the multiplier (the rest
/// is the accumulator and operand movement); approximate multipliers
/// scale only this share.
const MULTIPLIER_ENERGY_SHARE: f64 = 0.6;

/// Energy of one inference at `node`, in joules: `macs` MACs whose
/// multiplier share of energy is scaled by `mult_energy_scale`, plus
/// `sram_bytes` of SRAM reads and `dram_bytes` of DRAM accesses.
///
/// [`EnergyModel::inference_energy_j`] and the flow's per-design
/// evaluation (which keeps the traffic numbers of a cached perf
/// report) both price energy here.
#[inline]
pub fn inference_energy_j(
    node: TechNode,
    mult_energy_scale: f64,
    macs: u64,
    sram_bytes: u64,
    dram_bytes: u64,
) -> f64 {
    let p = node.params();
    let mac_pj = p.mac_energy_pj
        * (1.0 - MULTIPLIER_ENERGY_SHARE + MULTIPLIER_ENERGY_SHARE * mult_energy_scale);
    let mac = macs as f64 * mac_pj;
    let sram = sram_bytes as f64 * p.sram_read_pj_per_byte;
    let dram = dram_bytes as f64 * p.dram_access_pj_per_byte;
    (mac + sram + dram) * 1e-12
}

/// Energy model: MAC, SRAM and DRAM energy per inference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    node: TechNode,
    /// Energy scale of the multiplier relative to the exact unit
    /// (≤ 1.0 for pruned circuits), applied to the multiplier share of
    /// MAC energy.
    mult_energy_scale: f64,
}

impl EnergyModel {
    /// Creates an energy model for `node` with an exact multiplier.
    pub fn exact(node: TechNode) -> Self {
        EnergyModel {
            node,
            mult_energy_scale: 1.0,
        }
    }

    /// Creates an energy model whose multiplier uses
    /// `mult_transistors / exact_transistors` of the exact unit's
    /// switching capacitance.
    ///
    /// # Panics
    ///
    /// Panics if either transistor count is zero.
    pub fn with_multiplier(node: TechNode, mult_transistors: u64, exact_transistors: u64) -> Self {
        assert!(
            mult_transistors > 0 && exact_transistors > 0,
            "transistor counts must be positive"
        );
        EnergyModel {
            node,
            mult_energy_scale: mult_transistors as f64 / exact_transistors as f64,
        }
    }

    /// Energy of one inference described by `perf`, in joules.
    pub fn inference_energy_j(&self, perf: &PerfReport) -> f64 {
        inference_energy_j(
            self.node,
            self.mult_energy_scale,
            perf.macs,
            perf.sram_bytes,
            perf.dram_bytes,
        )
    }

    /// Average power in watts for the inference described by `perf`.
    pub fn average_power_w(&self, perf: &PerfReport) -> f64 {
        self.inference_energy_j(perf) / perf.latency_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Accelerator;
    use crate::perf::PerfModel;
    use carma_dnn::DnnModel;

    fn perf(node: TechNode) -> PerfReport {
        PerfModel::new().evaluate(&Accelerator::nvdla_preset(512, node), &DnnModel::resnet50())
    }

    #[test]
    fn energy_is_positive_and_edge_scale() {
        let p = perf(TechNode::N7);
        let e = EnergyModel::exact(TechNode::N7).inference_energy_j(&p);
        // A ResNet50 inference on an edge NPU: mJ to tens of mJ.
        assert!(e > 1e-4 && e < 1.0, "energy = {e} J");
    }

    #[test]
    fn approximate_multiplier_saves_energy() {
        let p = perf(TechNode::N7);
        let exact = EnergyModel::exact(TechNode::N7).inference_energy_j(&p);
        let approx = EnergyModel::with_multiplier(TechNode::N7, 2100, 3000).inference_energy_j(&p);
        assert!(approx < exact);
        // Bounded by the multiplier share of MAC energy.
        assert!(approx > exact * 0.5);
    }

    #[test]
    fn older_node_burns_more_energy() {
        let e7 = EnergyModel::exact(TechNode::N7).inference_energy_j(&perf(TechNode::N7));
        let e28 = EnergyModel::exact(TechNode::N28).inference_energy_j(&perf(TechNode::N28));
        assert!(e28 > e7);
    }

    #[test]
    fn average_power_is_sane_for_edge() {
        let p = perf(TechNode::N7);
        let w = EnergyModel::exact(TechNode::N7).average_power_w(&p);
        assert!(w > 0.05 && w < 50.0, "power = {w} W");
    }

    #[test]
    #[should_panic(expected = "transistor counts must be positive")]
    fn zero_transistors_rejected() {
        let _ = EnergyModel::with_multiplier(TechNode::N7, 0, 100);
    }
}
