//! Network-level performance estimation: cycles, latency and FPS.

use carma_dnn::DnnModel;

use crate::arch::Accelerator;
use crate::mapping::{ConvDims, LayerMapping, MappingSearch};

/// Per-layer performance record, in the order of
/// [`DnnModel::compute_layers`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerPerf {
    /// The chosen mapping.
    pub mapping: LayerMapping,
    /// Layer latency in cycles: `max(compute, DRAM)` (double-buffered
    /// overlap of compute and memory).
    pub cycles: u64,
}

/// Whole-network performance report.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Per-layer breakdown, compute layers only.
    pub layers: Vec<LayerPerf>,
    /// Total inference cycles.
    pub total_cycles: u64,
    /// Inference latency in seconds at the node's clock.
    pub latency_s: f64,
    /// Throughput in frames per second.
    pub fps: f64,
    /// Total DRAM traffic per inference, bytes.
    pub dram_bytes: u64,
    /// Total on-chip SRAM traffic per inference, bytes.
    pub sram_bytes: u64,
    /// Total MACs per inference (from the model).
    pub macs: u64,
}

/// The performance model: maps every layer and aggregates latency.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfModel {
    search: MappingSearch,
}

impl PerfModel {
    /// Creates a performance model with the default mapper.
    pub fn new() -> Self {
        PerfModel::default()
    }

    /// Evaluates `model` on `accel`, mapping every compute layer.
    ///
    /// A mapping depends only on the layer's shape, and networks repeat
    /// shapes (ResNet50's 54 compute layers have 24), so each distinct
    /// shape is mapped once per call and its record reused.
    ///
    /// # Panics
    ///
    /// Panics if `accel` fails [`Accelerator::validate`].
    pub fn evaluate(&self, accel: &Accelerator, model: &DnnModel) -> PerfReport {
        if let Err(e) = accel.validate() {
            panic!("invalid accelerator: {e}");
        }
        let clock_hz = accel.node.params().clock_ghz * 1e9;
        // A few dozen shapes at most: a linear scan beats hashing.
        let mut mapped: Vec<(ConvDims, LayerPerf)> = Vec::new();
        let mut layers = Vec::new();
        let mut total_cycles = 0u64;
        let mut dram_bytes = 0u64;
        let mut sram_bytes = 0u64;
        for layer in model.compute_layers() {
            let dims = ConvDims::from_layer(layer).expect("compute layers always map");
            let perf = match mapped.iter().find(|(seen, _)| *seen == dims) {
                Some(&(_, perf)) => perf,
                None => {
                    let mapping = self.search.map_dims(accel, &dims);
                    let mem_cycles = self.search.dram_cycles(accel, mapping.dram_bytes);
                    let perf = LayerPerf {
                        mapping,
                        cycles: mapping.compute_cycles.max(mem_cycles),
                    };
                    mapped.push((dims, perf));
                    perf
                }
            };
            total_cycles += perf.cycles;
            dram_bytes += perf.mapping.dram_bytes;
            sram_bytes += perf.mapping.sram_bytes;
            layers.push(perf);
        }
        let latency_s = total_cycles as f64 / clock_hz;
        PerfReport {
            layers,
            total_cycles,
            latency_s,
            fps: 1.0 / latency_s,
            dram_bytes,
            sram_bytes,
            macs: model.total_macs(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carma_netlist::TechNode;

    #[test]
    fn vgg16_fps_is_physical() {
        let accel = Accelerator::nvdla_preset(1024, TechNode::N7);
        let r = PerfModel::new().evaluate(&accel, &DnnModel::vgg16());
        // 15.5 GMACs on 1024 MACs at 1 GHz: ideal ≈ 66 FPS; with
        // under-utilization and memory stalls, tens of FPS.
        assert!(r.fps > 5.0 && r.fps < 120.0, "fps = {}", r.fps);
        assert_eq!(r.layers.len(), 16);
        assert!(r.dram_bytes > 100_000_000); // ≥ weights (138 MB)… per-pass
    }

    #[test]
    fn fps_increases_with_macs() {
        let perf = PerfModel::new();
        let model = DnnModel::vgg16();
        let mut last_fps = 0.0;
        for macs in [64u32, 256, 1024] {
            let accel = Accelerator::nvdla_preset(macs, TechNode::N7);
            let fps = perf.evaluate(&accel, &model).fps;
            assert!(fps > last_fps, "{macs} MACs: {fps} !> {last_fps}");
            last_fps = fps;
        }
    }

    #[test]
    fn faster_node_gives_higher_fps() {
        let perf = PerfModel::new();
        let model = DnnModel::resnet50();
        let f7 = perf
            .evaluate(&Accelerator::nvdla_preset(512, TechNode::N7), &model)
            .fps;
        let f28 = perf
            .evaluate(&Accelerator::nvdla_preset(512, TechNode::N28), &model)
            .fps;
        assert!(f7 > f28);
    }

    #[test]
    fn lighter_model_runs_faster() {
        let perf = PerfModel::new();
        let accel = Accelerator::nvdla_preset(512, TechNode::N7);
        let vgg = perf.evaluate(&accel, &DnnModel::vgg16()).fps;
        let resnet = perf.evaluate(&accel, &DnnModel::resnet50()).fps;
        assert!(resnet > vgg, "resnet50 {resnet} !> vgg16 {vgg}");
    }

    #[test]
    fn report_is_internally_consistent() {
        let accel = Accelerator::nvdla_preset(256, TechNode::N14);
        let r = PerfModel::new().evaluate(&accel, &DnnModel::vgg16());
        let sum: u64 = r.layers.iter().map(|l| l.cycles).sum();
        assert_eq!(sum, r.total_cycles);
        assert!((r.fps * r.latency_s - 1.0).abs() < 1e-9);
        assert_eq!(r.macs, DnnModel::vgg16().total_macs());
    }

    #[test]
    #[should_panic(expected = "invalid accelerator")]
    fn invalid_accelerator_rejected() {
        let mut accel = Accelerator::nvdla_preset(64, TechNode::N7);
        accel.pe_height = 0;
        let _ = PerfModel::new().evaluate(&accel, &DnnModel::resnet50());
    }
}
