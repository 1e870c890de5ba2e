//! The accelerator architecture description (the paper's chromosome
//! hardware parameters: PE width/height, local buffer, global buffer).

use std::fmt;

use carma_netlist::TechNode;

/// The NVDLA-style MAC-array sizes swept in the paper's evaluation:
/// *"MAC arrays ranging from 64 to 2048 PEs in powers of 2"*.
pub const NVDLA_MAC_SIZES: [u32; 6] = [64, 128, 256, 512, 1024, 2048];

/// An NVDLA-paradigm DNN inference accelerator instance.
///
/// The 2-D MAC array unrolls input channels along `pe_height`
/// (NVDLA's Atomic-C) and output channels along `pe_width` (Atomic-K).
/// Each PE owns a small weight register file; a shared global buffer
/// (NVDLA's CONV buffer) staples tiles of weights/activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Accelerator {
    /// Output-channel (Atomic-K) unroll factor.
    pub pe_width: u32,
    /// Input-channel (Atomic-C) unroll factor.
    pub pe_height: u32,
    /// Per-PE weight register file, bytes.
    pub local_rf_bytes: u32,
    /// Shared global (CONV) buffer, KiB.
    pub global_buffer_kib: u32,
    /// Fabrication node.
    pub node: TechNode,
}

impl Accelerator {
    /// Total number of MAC units (PEs).
    pub fn macs(&self) -> u32 {
        self.pe_width * self.pe_height
    }

    /// Global buffer capacity in bytes.
    pub fn global_buffer_bytes(&self) -> u64 {
        u64::from(self.global_buffer_kib) * 1024
    }

    /// The NVDLA-proportioned preset for a given MAC count: square-ish
    /// array, 256 B of CONV buffer per MAC (the nv-full ratio:
    /// 2048 MACs ↔ 512 KiB), 32 B register file per PE.
    ///
    /// # Panics
    ///
    /// Panics if `macs` is not a power of two in `[16, 4096]`.
    pub fn nvdla_preset(macs: u32, node: TechNode) -> Self {
        assert!(
            macs.is_power_of_two() && (16..=4096).contains(&macs),
            "macs must be a power of two in [16, 4096], got {macs}"
        );
        let log2 = macs.trailing_zeros();
        let pe_height = 1u32 << log2.div_ceil(2);
        let pe_width = macs / pe_height;
        Accelerator {
            pe_width,
            pe_height,
            local_rf_bytes: 32,
            global_buffer_kib: (macs / 4).max(32), // 256 B per MAC
            node,
        }
    }

    /// Validates the physical plausibility of a (possibly GA-generated)
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint (zero dimensions, non-power-of-two array sides,
    /// undersized buffers).
    pub fn validate(&self) -> Result<(), String> {
        if self.pe_width == 0 || self.pe_height == 0 {
            return Err("PE array dimensions must be positive".to_string());
        }
        if !self.pe_width.is_power_of_two() || !self.pe_height.is_power_of_two() {
            return Err("PE array dimensions must be powers of two".to_string());
        }
        if self.local_rf_bytes < 8 {
            return Err("local register file must be ≥ 8 B".to_string());
        }
        if self.global_buffer_kib < 8 {
            return Err("global buffer must be ≥ 8 KiB".to_string());
        }
        Ok(())
    }
}

impl fmt::Display for Accelerator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} PEs ({} MACs), {} B RF/PE, {} KiB GB @ {}",
            self.pe_width,
            self.pe_height,
            self.macs(),
            self.local_rf_bytes,
            self.global_buffer_kib,
            self.node
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_square_ish_arrays() {
        let a = Accelerator::nvdla_preset(64, TechNode::N7);
        assert_eq!((a.pe_width, a.pe_height), (8, 8));
        let a = Accelerator::nvdla_preset(128, TechNode::N7);
        assert_eq!(a.macs(), 128);
        assert!(a.pe_height >= a.pe_width);
        let a = Accelerator::nvdla_preset(2048, TechNode::N7);
        assert_eq!(a.macs(), 2048);
    }

    #[test]
    fn preset_buffer_scales_with_macs() {
        // nv-full ratio: 2048 MACs ↔ 512 KiB.
        let full = Accelerator::nvdla_preset(2048, TechNode::N7);
        assert_eq!(full.global_buffer_kib, 512);
        let small = Accelerator::nvdla_preset(64, TechNode::N7);
        assert_eq!(small.global_buffer_kib, 32);
    }

    #[test]
    fn sweep_covers_paper_range() {
        assert_eq!(NVDLA_MAC_SIZES.len(), 6);
        assert_eq!(NVDLA_MAC_SIZES.first(), Some(&64));
        assert_eq!(NVDLA_MAC_SIZES.last(), Some(&2048));
        for &macs in &NVDLA_MAC_SIZES {
            assert_eq!(Accelerator::nvdla_preset(macs, TechNode::N14).macs(), macs);
        }
    }

    #[test]
    fn validate_accepts_presets_and_rejects_garbage() {
        for &macs in &NVDLA_MAC_SIZES {
            let a = Accelerator::nvdla_preset(macs, TechNode::N28);
            assert!(a.validate().is_ok(), "{a}");
        }
        let mut bad = Accelerator::nvdla_preset(64, TechNode::N7);
        bad.pe_width = 0;
        assert!(bad.validate().is_err());
        let mut bad = Accelerator::nvdla_preset(64, TechNode::N7);
        bad.pe_width = 3;
        assert!(bad.validate().is_err());
        let mut bad = Accelerator::nvdla_preset(64, TechNode::N7);
        bad.global_buffer_kib = 1;
        assert!(bad.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "macs must be a power of two")]
    fn non_power_of_two_preset_rejected() {
        let _ = Accelerator::nvdla_preset(100, TechNode::N7);
    }

    #[test]
    fn display_mentions_key_dimensions() {
        let a = Accelerator::nvdla_preset(256, TechNode::N7);
        let s = a.to_string();
        assert!(s.contains("256 MACs") && s.contains("7nm"), "{s}");
    }
}
