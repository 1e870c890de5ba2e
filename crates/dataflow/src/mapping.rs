//! Loop-tiling mapping search (the nn-dataflow substitute).
//!
//! For each convolution/FC layer the mapper chooses an output-channel
//! tile `tk` and an output-row tile `th` such that the working set fits
//! the global buffer and the per-PE weight slice fits the local
//! register file, then picks the legal tile minimizing latency. This is
//! the same objective nn-dataflow optimizes (loop blocking under buffer
//! capacity), reduced to the two loops that dominate NVDLA-style
//! weight-stationary dataflows.

use carma_dnn::{Layer, LayerKind};

use crate::arch::Accelerator;

/// The chosen tiling for one layer, with its derived statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerMapping {
    /// Output channels per tile.
    pub tile_k: u32,
    /// Output rows per tile.
    pub tile_h: u32,
    /// Compute cycles (MAC-array occupancy, including spatial
    /// under-utilization from ceil effects).
    pub compute_cycles: u64,
    /// Bytes moved between DRAM and the global buffer.
    pub dram_bytes: u64,
    /// Bytes read from the global buffer into the array.
    pub sram_bytes: u64,
}

/// The mapping search engine.
///
/// Construction is free; [`map_layer`](MappingSearch::map_layer) runs
/// the per-layer search.
#[derive(Debug, Clone, Copy, Default)]
pub struct MappingSearch;

/// Dimensions of one conv-like workload, normalized from a [`Layer`].
///
/// The search reads nothing of a layer beyond these five numbers, so
/// two layers with equal dimensions map identically; the performance
/// model relies on that to map each distinct shape once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConvDims {
    /// Input channels.
    c: u32,
    /// Output channels.
    k: u32,
    /// Kernel size (R = S).
    r: u32,
    /// Output spatial size (OH = OW).
    oh: u32,
    /// Input spatial size.
    ih: u32,
}

impl ConvDims {
    /// The dimensions of a compute layer; `None` for pooling.
    pub(crate) fn from_layer(layer: &Layer) -> Option<ConvDims> {
        match layer.kind {
            LayerKind::Conv2d {
                in_channels,
                out_channels,
                kernel,
                ..
            } => Some(ConvDims {
                c: in_channels,
                k: out_channels,
                r: kernel,
                oh: layer.output_hw(),
                ih: layer.input_hw,
            }),
            // Depthwise convolution: one input channel per output
            // channel (C = 1 from the mapper's point of view; the K
            // dimension carries the channels).
            LayerKind::DepthwiseConv2d {
                channels, kernel, ..
            } => Some(ConvDims {
                c: 1,
                k: channels,
                r: kernel,
                oh: layer.output_hw(),
                ih: layer.input_hw,
            }),
            // An FC layer is a 1×1 conv on a 1×1 feature map.
            LayerKind::Linear {
                in_features,
                out_features,
            } => Some(ConvDims {
                c: in_features,
                k: out_features,
                r: 1,
                oh: 1,
                ih: 1,
            }),
            LayerKind::MaxPool { .. } | LayerKind::GlobalAvgPool => None,
        }
    }

    fn weights_bytes(&self) -> u64 {
        u64::from(self.c) * u64::from(self.k) * u64::from(self.r) * u64::from(self.r)
    }

    fn macs(&self) -> u64 {
        self.weights_bytes() * u64::from(self.oh) * u64::from(self.oh)
    }

    /// Whether a `tile_k` × `tile_h` tile's working set fits the global
    /// buffer: weight tile + input rows needed for `tile_h` output rows
    /// + output tile.
    fn fits(&self, accel: &Accelerator, tile_k: u32, tile_h: u32) -> bool {
        let weight_tile =
            u64::from(tile_k) * u64::from(self.c) * u64::from(self.r) * u64::from(self.r);
        let in_rows = (tile_h + self.r - 1).min(self.ih);
        let input_tile = u64::from(self.c) * u64::from(in_rows) * u64::from(self.ih);
        let output_tile = u64::from(tile_k) * u64::from(tile_h) * u64::from(self.oh);
        weight_tile + input_tile + output_tile <= accel.global_buffer_bytes()
    }

    /// Bytes moved between DRAM and the global buffer: weights once per
    /// h-tile pass (weight-stationary inner loop, re-streamed per
    /// horizontal stripe), inputs once per k-tile pass, outputs once.
    fn dram_bytes(&self, tile_k: u32, tile_h: u32) -> u64 {
        let k_tiles = self.k.div_ceil(tile_k);
        let h_tiles = self.oh.div_ceil(tile_h);
        let weights = self.weights_bytes() * u64::from(h_tiles);
        let inputs =
            u64::from(self.c) * u64::from(self.ih) * u64::from(self.ih) * u64::from(k_tiles);
        let outputs = u64::from(self.k) * u64::from(self.oh) * u64::from(self.oh);
        weights + inputs + outputs
    }

    /// Compute cycles with ceil-induced spatial under-utilization: each
    /// (k-group, c-group) pass runs R·R·OH·OW cycles. No tile changes
    /// them.
    fn compute_cycles(&self, accel: &Accelerator) -> u64 {
        let k_groups = u64::from(self.k.div_ceil(accel.pe_width));
        let c_groups = u64::from(self.c.div_ceil(accel.pe_height));
        k_groups
            * c_groups
            * u64::from(self.r)
            * u64::from(self.r)
            * u64::from(self.oh)
            * u64::from(self.oh)
    }
}

impl MappingSearch {
    /// Creates a mapping search engine.
    pub fn new() -> Self {
        MappingSearch
    }

    /// Finds the latency-minimal legal tiling of `layer` on `accel`.
    ///
    /// Returns `None` for non-compute layers (pooling), which occupy
    /// neither the array nor the mapper.
    pub fn map_layer(&self, accel: &Accelerator, layer: &Layer) -> Option<LayerMapping> {
        ConvDims::from_layer(layer).map(|dims| self.map_dims(accel, &dims))
    }

    /// Finds the latency-minimal legal tiling of `dims` on `accel`: the
    /// first tile, in `tile_k`-then-`tile_h` order, whose
    /// `max(compute, DRAM)` cycles are strictly lowest.
    ///
    /// A candidate costs its capacity check and its DRAM bytes; only
    /// the winner gets full statistics. Compute cycles do not depend on
    /// the tile, so the search stops at the first tile whose cost
    /// equals them: no later tile can be strictly lower.
    pub(crate) fn map_dims(&self, accel: &Accelerator, dims: &ConvDims) -> LayerMapping {
        let floor = dims.compute_cycles(accel);
        let mut best: Option<(u64, u32, u32)> = None;
        'search: for tile_k in tile_sizes(dims.k) {
            for tile_h in tile_sizes(dims.oh) {
                if !dims.fits(accel, tile_k, tile_h) {
                    continue;
                }
                let cost = floor.max(self.dram_cycles(accel, dims.dram_bytes(tile_k, tile_h)));
                if best.is_none_or(|(best_cost, ..)| cost < best_cost) {
                    best = Some((cost, tile_k, tile_h));
                    if cost == floor {
                        break 'search;
                    }
                }
            }
        }
        match best {
            Some((_, tile_k, tile_h)) => self.tile_stats(accel, dims, tile_k, tile_h),
            // Fallback: the minimal tile is always "legal" in the sense
            // of streaming row by row, even when buffers are too small
            // for a full tile — model it with maximal refetch.
            None => self.tile_forced(accel, dims),
        }
    }

    /// Statistics of a tiling, assuming it is legal (or forced).
    fn tile_stats(
        &self,
        accel: &Accelerator,
        dims: &ConvDims,
        tile_k: u32,
        tile_h: u32,
    ) -> LayerMapping {
        let h_tiles = dims.oh.div_ceil(tile_h);

        // SRAM traffic: every MAC reads one activation (amortized by
        // R·R kernel-window reuse); weights stream from the global
        // buffer once per pass, refetched if the per-PE register file
        // cannot hold a full R·R kernel slice. Larger local RFs
        // therefore cut SRAM energy — the knob the GA sizes.
        let kernel_bytes = u64::from(dims.r) * u64::from(dims.r);
        let weight_refetch = kernel_bytes.div_ceil(u64::from(accel.local_rf_bytes).max(1));
        let activation_reads = dims.macs() / kernel_bytes.max(1);
        let weight_reads = dims.weights_bytes() * u64::from(h_tiles) * weight_refetch;
        let sram_bytes = activation_reads + weight_reads;

        LayerMapping {
            tile_k,
            tile_h,
            compute_cycles: dims.compute_cycles(accel),
            dram_bytes: dims.dram_bytes(tile_k, tile_h),
            sram_bytes,
        }
    }

    /// Minimal-tile fallback with full refetch (tiny-buffer regime).
    fn tile_forced(&self, accel: &Accelerator, dims: &ConvDims) -> LayerMapping {
        let mut m = self.tile_stats(accel, dims, 1, 1);
        // Penalize with an extra input refetch per output row.
        m.dram_bytes += u64::from(dims.c) * u64::from(dims.ih) * u64::from(dims.ih);
        m
    }

    /// Cycles to move `bytes` over the DRAM interface of `accel`.
    pub fn dram_cycles(&self, accel: &Accelerator, bytes: u64) -> u64 {
        // Fixed edge-class LPDDR4x interface: 16 bytes/cycle at the
        // accelerator clock.
        let _ = accel;
        bytes / 16
    }
}

/// Power-of-two tile-size candidates below `max`, then `max` itself.
fn tile_sizes(max: u32) -> impl Iterator<Item = u32> {
    (0..12)
        .map(|s| 1u32 << s)
        .take_while(move |&t| t < max)
        .chain(std::iter::once(max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{LayerPerf, PerfModel, PerfReport};
    use carma_dnn::DnnModel;
    use carma_netlist::TechNode;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Power-of-two tile-size candidates up to `max`, plus `max` itself.
    fn tile_candidates(max: u32) -> Vec<u32> {
        let mut v: Vec<u32> = (0..12)
            .map(|s| 1u32 << s)
            .take_while(|&t| t < max)
            .collect();
        v.push(max);
        v
    }

    /// The exhaustive search that [`MappingSearch::map_layer`] must
    /// reproduce bit for bit: every legal tile gets full statistics, the
    /// first strictly cheapest one wins, and a layer with no legal tile
    /// takes the forced 1×1 tile.
    fn oracle_map_layer(accel: &Accelerator, layer: &Layer) -> Option<LayerMapping> {
        let search = MappingSearch::new();
        let cost = |m: &LayerMapping| {
            m.compute_cycles
                .max(search.dram_cycles(accel, m.dram_bytes))
        };
        let dims = ConvDims::from_layer(layer)?;
        let mut best: Option<LayerMapping> = None;
        for tile_k in tile_candidates(dims.k) {
            for tile_h in tile_candidates(dims.oh) {
                let Some(m) = evaluate_tile(accel, &dims, tile_k, tile_h) else {
                    continue;
                };
                if best.as_ref().is_none_or(|b| cost(&m) < cost(b)) {
                    best = Some(m);
                }
            }
        }
        best.or_else(|| {
            let mut m = oracle_tile_stats(accel, &dims, 1, 1);
            m.dram_bytes += u64::from(dims.c) * u64::from(dims.ih) * u64::from(dims.ih);
            Some(m)
        })
    }

    /// One candidate tiling with full statistics; `None` if it violates
    /// capacity.
    fn evaluate_tile(
        accel: &Accelerator,
        dims: &ConvDims,
        tile_k: u32,
        tile_h: u32,
    ) -> Option<LayerMapping> {
        let weight_tile =
            u64::from(tile_k) * u64::from(dims.c) * u64::from(dims.r) * u64::from(dims.r);
        let in_rows = (tile_h + dims.r - 1).min(dims.ih);
        let input_tile = u64::from(dims.c) * u64::from(in_rows) * u64::from(dims.ih);
        let output_tile = u64::from(tile_k) * u64::from(tile_h) * u64::from(dims.oh);
        if weight_tile + input_tile + output_tile > accel.global_buffer_bytes() {
            return None;
        }
        Some(oracle_tile_stats(accel, dims, tile_k, tile_h))
    }

    /// The statistics of one tiling, each formula written out in full.
    fn oracle_tile_stats(
        accel: &Accelerator,
        dims: &ConvDims,
        tile_k: u32,
        tile_h: u32,
    ) -> LayerMapping {
        let k_tiles = dims.k.div_ceil(tile_k);
        let h_tiles = dims.oh.div_ceil(tile_h);
        let k_groups = u64::from(dims.k.div_ceil(accel.pe_width));
        let c_groups = u64::from(dims.c.div_ceil(accel.pe_height));
        let compute_cycles = k_groups
            * c_groups
            * u64::from(dims.r)
            * u64::from(dims.r)
            * u64::from(dims.oh)
            * u64::from(dims.oh);
        let weights = dims.weights_bytes() * u64::from(h_tiles);
        let inputs =
            u64::from(dims.c) * u64::from(dims.ih) * u64::from(dims.ih) * u64::from(k_tiles);
        let outputs = u64::from(dims.k) * u64::from(dims.oh) * u64::from(dims.oh);
        let kernel_bytes = u64::from(dims.r) * u64::from(dims.r);
        let weight_refetch = kernel_bytes.div_ceil(u64::from(accel.local_rf_bytes).max(1));
        let activation_reads = dims.macs() / kernel_bytes.max(1);
        let weight_reads = dims.weights_bytes() * u64::from(h_tiles) * weight_refetch;
        LayerMapping {
            tile_k,
            tile_h,
            compute_cycles,
            dram_bytes: weights + inputs + outputs,
            sram_bytes: activation_reads + weight_reads,
        }
    }

    /// [`PerfModel::evaluate`] rebuilt from the oracle: every compute
    /// layer mapped on its own, then summed.
    fn oracle_report(accel: &Accelerator, model: &DnnModel) -> PerfReport {
        let search = MappingSearch::new();
        let layers: Vec<LayerPerf> = model
            .compute_layers()
            .map(|layer| {
                let mapping = oracle_map_layer(accel, layer).expect("compute layers map");
                let mem_cycles = search.dram_cycles(accel, mapping.dram_bytes);
                LayerPerf {
                    mapping,
                    cycles: mapping.compute_cycles.max(mem_cycles),
                }
            })
            .collect();
        let total_cycles = layers.iter().map(|l| l.cycles).sum::<u64>();
        let latency_s = total_cycles as f64 / (accel.node.params().clock_ghz * 1e9);
        PerfReport {
            total_cycles,
            latency_s,
            fps: 1.0 / latency_s,
            dram_bytes: layers.iter().map(|l| l.mapping.dram_bytes).sum(),
            sram_bytes: layers.iter().map(|l| l.mapping.sram_bytes).sum(),
            macs: model.total_macs(),
            layers,
        }
    }

    /// Checks `model` on `accel` against the oracle: `map_layer` on
    /// every layer, and the whole [`PerfModel::evaluate`] report in
    /// every field, f64s by bits. `accel` must pass validation.
    fn check_against_oracle(accel: &Accelerator, model: &DnnModel) -> Result<(), String> {
        let oracle = oracle_report(accel, model);
        let search = MappingSearch::new();
        for (layer, expected) in model.compute_layers().zip(&oracle.layers) {
            let fast = search.map_layer(accel, layer);
            if fast != Some(expected.mapping) {
                return Err(format!("{layer}: {fast:?} != {:?}", expected.mapping));
            }
        }
        let fast = PerfModel::new().evaluate(accel, model);
        if let Some(i) =
            (0..oracle.layers.len()).find(|&i| fast.layers.get(i) != oracle.layers.get(i))
        {
            return Err(format!(
                "layer {i}: {:?} != {:?}",
                fast.layers.get(i),
                oracle.layers[i]
            ));
        }
        let fields = |r: &PerfReport| {
            (
                r.layers.len(),
                r.total_cycles,
                r.latency_s.to_bits(),
                r.fps.to_bits(),
                r.dram_bytes,
                r.sram_bytes,
                r.macs,
            )
        };
        if fields(&fast) != fields(&oracle) {
            return Err(format!("{:?} != {:?}", fields(&fast), fields(&oracle)));
        }
        Ok(())
    }

    fn vgg_conv() -> Layer {
        Layer::conv(56, 256, 256, 3, 1, 1)
    }

    #[test]
    fn mapper_finds_legal_tiling_for_vgg_layer() {
        let accel = Accelerator::nvdla_preset(256, TechNode::N7);
        let m = MappingSearch::new().map_layer(&accel, &vgg_conv()).unwrap();
        assert!(m.compute_cycles > 0);
        assert!(m.dram_bytes > 0);
        assert!(m.tile_k >= 1 && m.tile_h >= 1);
    }

    #[test]
    fn pooling_layers_are_unmapped() {
        let accel = Accelerator::nvdla_preset(64, TechNode::N7);
        let m = MappingSearch::new().map_layer(&accel, &Layer::max_pool(56, 2, 2));
        assert!(m.is_none());
    }

    #[test]
    fn more_pes_reduce_compute_cycles() {
        let search = MappingSearch::new();
        let small = Accelerator::nvdla_preset(64, TechNode::N7);
        let large = Accelerator::nvdla_preset(1024, TechNode::N7);
        let layer = vgg_conv();
        let ms = search.map_layer(&small, &layer).unwrap();
        let ml = search.map_layer(&large, &layer).unwrap();
        assert!(
            ml.compute_cycles < ms.compute_cycles,
            "{} !< {}",
            ml.compute_cycles,
            ms.compute_cycles
        );
    }

    #[test]
    fn bigger_buffer_reduces_dram_traffic() {
        let search = MappingSearch::new();
        let mut small = Accelerator::nvdla_preset(256, TechNode::N7);
        small.global_buffer_kib = 8;
        let mut large = Accelerator::nvdla_preset(256, TechNode::N7);
        large.global_buffer_kib = 1024;
        let layer = vgg_conv();
        let ms = search.map_layer(&small, &layer).unwrap();
        let ml = search.map_layer(&large, &layer).unwrap();
        assert!(
            ml.dram_bytes <= ms.dram_bytes,
            "{} !<= {}",
            ml.dram_bytes,
            ms.dram_bytes
        );
    }

    #[test]
    fn fc_layer_maps_as_1x1_conv() {
        let accel = Accelerator::nvdla_preset(256, TechNode::N7);
        let fc = Layer::linear(4096, 1000);
        let m = MappingSearch::new().map_layer(&accel, &fc).unwrap();
        // FC has no activation reuse: DRAM bytes at least the weights.
        assert!(m.dram_bytes >= 4_096_000);
    }

    #[test]
    fn compute_cycles_lower_bounded_by_macs_over_pes() {
        let accel = Accelerator::nvdla_preset(256, TechNode::N7);
        let layer = vgg_conv();
        let m = MappingSearch::new().map_layer(&accel, &layer).unwrap();
        let ideal = layer.macs() / u64::from(accel.macs());
        assert!(m.compute_cycles >= ideal);
        // And within 4× of ideal for a well-matched layer.
        assert!(
            m.compute_cycles <= ideal * 4,
            "{} vs {}",
            m.compute_cycles,
            ideal
        );
    }

    #[test]
    fn tile_candidates_cover_range() {
        assert_eq!(tile_candidates(1), vec![1]);
        assert_eq!(tile_candidates(8), vec![1, 2, 4, 8]);
        assert_eq!(tile_candidates(10), vec![1, 2, 4, 8, 10]);
        for max in 1..=5000 {
            assert_eq!(tile_sizes(max).collect::<Vec<_>>(), tile_candidates(max));
        }
    }

    #[test]
    fn tiny_rf_still_maps_via_fallback() {
        let mut accel = Accelerator::nvdla_preset(64, TechNode::N7);
        accel.local_rf_bytes = 8;
        // A huge layer whose minimal slice exceeds 8 B/PE.
        let layer = Layer::conv(14, 512, 512, 3, 1, 1);
        let m = MappingSearch::new().map_layer(&accel, &layer).unwrap();
        assert!(m.dram_bytes > 0);
    }

    /// Channel counts, spatial sizes and kernels drawn from small sets,
    /// so that random models repeat shapes and share channels and kernel
    /// across sizes.
    const CHANNELS: [u32; 13] = [1, 3, 5, 16, 64, 96, 100, 256, 512, 1000, 1024, 2048, 4096];
    const HW: [u32; 8] = [1, 3, 7, 14, 28, 56, 112, 224];
    const KERNELS: [u32; 5] = [1, 3, 5, 7, 11];

    /// `1 << log2` plus up to as much again, capped at `1 << max_log2`:
    /// log-uniform over `1..=1 << max_log2`.
    fn log_uniform(log2: u32, jitter: u32, max_log2: u32) -> u32 {
        ((1 << log2) + jitter % (1 << log2)).min(1 << max_log2)
    }

    prop_compose! {
        /// An accelerator with PE sides 1–64, a 1–256 B register file
        /// and a 1–4,096 KiB global buffer at any node. Buffers below
        /// the validation floor reach the forced fallback.
        fn arb_accelerator()(
            width_log2 in 0u32..=6,
            height_log2 in 0u32..=6,
            rf in (0u32..=8, 0u32..256),
            gb in (0u32..=12, 0u32..4096),
            node in 0usize..TechNode::ALL.len(),
        ) -> Accelerator {
            Accelerator {
                pe_width: 1 << width_log2,
                pe_height: 1 << height_log2,
                local_rf_bytes: log_uniform(rf.0, rf.1, 8),
                global_buffer_kib: log_uniform(gb.0, gb.1, 12),
                node: TechNode::ALL[node],
            }
        }
    }

    /// One layer of `kind` (conv, depthwise, linear or pooling) from
    /// indices into the value sets.
    fn template_layer(template: (u32, usize, usize, usize, u32, u32), hw: u32) -> Layer {
        let (kind, c, k, kernel, stride, pad) = template;
        let kernel = KERNELS[kernel];
        let hw = hw.max(kernel);
        let padding = pad * (kernel / 2);
        match kind {
            0..=2 => Layer::conv(hw, CHANNELS[c], CHANNELS[k], kernel, stride, padding),
            3 | 4 => Layer::depthwise(CHANNELS[c], hw, kernel, stride, padding),
            5 => Layer::linear(CHANNELS[c] * [1, 49][pad as usize], CHANNELS[k]),
            _ => Layer::max_pool(hw.max(2), 2, 2),
        }
    }

    prop_compose! {
        /// A model of up to 16 layers: one to four layer templates, each
        /// instantiated at one of two input sizes, in random order. Shapes
        /// recur, and one template at two sizes shares channels and
        /// kernel but usually not its mapping.
        fn arb_model()(
            templates in vec(
                (0u32..7, 0usize..CHANNELS.len(), 0usize..CHANNELS.len(), 0usize..KERNELS.len(), 1u32..=2, 0u32..2),
                1..5,
            ),
            sizes in (0usize..HW.len(), 0usize..HW.len()),
            picks in vec((0usize..4, 0u32..2), 1..17),
        ) -> DnnModel {
            let layers = picks
                .iter()
                .map(|&(t, second)| {
                    let hw = HW[if second == 1 { sizes.1 } else { sizes.0 }];
                    template_layer(templates[t % templates.len()], hw)
                })
                .collect();
            DnnModel::new("random", layers)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The early-stopping search equals the exhaustive oracle on
        /// every layer, and the shape-deduplicating performance model
        /// equals the oracle's per-layer sums in every field.
        #[test]
        fn mapping_matches_exhaustive_oracle(accel in arb_accelerator(), model in arb_model()) {
            let search = MappingSearch::new();
            for layer in model.layers() {
                prop_assert_eq!(search.map_layer(&accel, layer), oracle_map_layer(&accel, layer));
            }
            // `evaluate` validates: lift the buffers to their floors.
            let valid = Accelerator {
                local_rf_bytes: accel.local_rf_bytes.max(8),
                global_buffer_kib: accel.global_buffer_kib.max(8),
                ..accel
            };
            check_against_oracle(&valid, &model)?;
        }
    }

    /// The random cases reach every branch the oracle test must cover:
    /// the forced fallback, a winner at the compute floor, a
    /// memory-bound winner, a repeated shape, and one template at two
    /// sizes with different mappings.
    #[test]
    fn mapping_oracle_cases_reach_every_branch() {
        let mut rng = proptest::test_runner::TestRng::for_test("mapping_oracle_cases");
        let (accels, models) = (arb_accelerator(), arb_model());
        let search = MappingSearch::new();
        let (mut forced, mut at_floor, mut memory_bound, mut repeated, mut resized) =
            (0, 0, 0, 0, 0);
        for _ in 0..256 {
            let accel = accels.sample(&mut rng);
            let model = models.sample(&mut rng);
            let dims: Vec<ConvDims> = model
                .compute_layers()
                .filter_map(ConvDims::from_layer)
                .collect();
            for (i, d) in dims.iter().enumerate() {
                let m = search.map_dims(&accel, d);
                if !d.fits(&accel, 1, 1) {
                    forced += 1;
                } else if search.dram_cycles(&accel, m.dram_bytes) <= m.compute_cycles {
                    at_floor += 1;
                } else {
                    memory_bound += 1;
                }
                for e in &dims[..i] {
                    if e == d {
                        repeated += 1;
                    } else if (e.c, e.k, e.r) == (d.c, d.k, d.r) && search.map_dims(&accel, e) != m
                    {
                        resized += 1;
                    }
                }
            }
        }
        for (branch, hits) in [
            ("forced fallback", forced),
            ("compute floor", at_floor),
            ("memory bound", memory_bound),
            ("repeated shape", repeated),
            ("resized template", resized),
        ] {
            assert!(hits >= 10, "{branch}: {hits} hits");
        }
    }

    /// Every compute layer of the paper's four networks and MobileNetV1
    /// on all 700 points of the design space the GA searches (PE sides
    /// 4–64, four register files, seven global buffers), at one node.
    #[test]
    fn mapping_matches_oracle_on_the_design_grid() {
        let mut models = DnnModel::paper_zoo();
        models.push(DnnModel::mobilenet_v1());
        let mut points = 0;
        for width_log2 in 2..=6 {
            for height_log2 in 2..=6 {
                for rf in [16, 32, 64, 128] {
                    for gb in [32, 64, 128, 256, 512, 1024, 2048] {
                        let accel = Accelerator {
                            pe_width: 1 << width_log2,
                            pe_height: 1 << height_log2,
                            local_rf_bytes: rf,
                            global_buffer_kib: gb,
                            node: TechNode::N14,
                        };
                        for model in &models {
                            if let Err(e) = check_against_oracle(&accel, model) {
                                panic!("{} on {accel}: {e}", model.name());
                            }
                        }
                        points += 1;
                    }
                }
            }
        }
        assert_eq!(points, 700);
    }
}
