//! Technology-node library.
//!
//! The paper evaluates its designs at the 7 nm, 14 nm and 28 nm nodes.
//! [`TechNode`] enumerates them and [`TechParams`] carries the physical
//! constants the rest of CARMA needs:
//!
//! * logic density (NAND2-equivalent cell area) — drives the area of
//!   the MAC array and thus embodied carbon;
//! * SRAM bit-cell area — drives buffer area;
//! * nominal clock frequency — drives FPS in the dataflow simulator;
//! * access/compute energies — used by the (extension) energy model.
//!
//! Values are calibrated from public sources (foundry disclosures,
//! WikiChip density tables); absolute precision is not required for the
//! paper's conclusions — only cross-node ordering and the area ratios
//! between exact and pruned netlists matter, and those are preserved by
//! construction.

use std::fmt;
use std::str::FromStr;

/// A fabrication technology node evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TechNode {
    /// 7 nm-class FinFET node.
    N7,
    /// 14 nm-class FinFET node.
    N14,
    /// 28 nm-class planar node.
    N28,
}

impl TechNode {
    /// All nodes, in the order the paper reports them (7, 14, 28 nm).
    pub const ALL: [TechNode; 3] = [TechNode::N7, TechNode::N14, TechNode::N28];

    /// Feature size in nanometres (nominal marketing dimension).
    pub fn nanometers(self) -> u32 {
        match self {
            TechNode::N7 => 7,
            TechNode::N14 => 14,
            TechNode::N28 => 28,
        }
    }

    /// Physical constants for this node.
    pub fn params(self) -> TechParams {
        match self {
            // NAND2 areas: derived from published transistor densities
            // (~91 MTr/mm² @7nm, ~27 MTr/mm² @14nm, ~8.1 MTr/mm² @28nm)
            // at 4 transistors per NAND2.
            TechNode::N7 => TechParams {
                node: self,
                nand2_area_um2: 0.044,
                sram_bitcell_um2: 0.027,
                clock_ghz: 1.2,
                mac_energy_pj: 0.45,
                sram_read_pj_per_byte: 0.9,
                dram_access_pj_per_byte: 15.0,
            },
            TechNode::N14 => TechParams {
                node: self,
                nand2_area_um2: 0.148,
                sram_bitcell_um2: 0.064,
                clock_ghz: 1.0,
                mac_energy_pj: 1.1,
                sram_read_pj_per_byte: 1.7,
                dram_access_pj_per_byte: 18.0,
            },
            TechNode::N28 => TechParams {
                node: self,
                nand2_area_um2: 0.49,
                sram_bitcell_um2: 0.127,
                clock_ghz: 0.8,
                mac_energy_pj: 2.8,
                sram_read_pj_per_byte: 3.2,
                dram_access_pj_per_byte: 21.0,
            },
        }
    }
}

impl fmt::Display for TechNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}nm", self.nanometers())
    }
}

/// Error returned when parsing a [`TechNode`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTechNodeError {
    input: String,
}

impl fmt::Display for ParseTechNodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown technology node `{}` (expected 7nm, 14nm or 28nm)",
            self.input
        )
    }
}

impl std::error::Error for ParseTechNodeError {}

impl FromStr for TechNode {
    type Err = ParseTechNodeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "7" | "7nm" | "n7" => Ok(TechNode::N7),
            "14" | "14nm" | "n14" => Ok(TechNode::N14),
            "28" | "28nm" | "n28" => Ok(TechNode::N28),
            _ => Err(ParseTechNodeError {
                input: s.to_string(),
            }),
        }
    }
}

/// Physical constants of a [`TechNode`].
///
/// Obtain via [`TechNode::params`]:
///
/// ```
/// use carma_netlist::TechNode;
///
/// let p = TechNode::N7.params();
/// assert!(p.nand2_area_um2 < TechNode::N28.params().nand2_area_um2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechParams {
    /// The node these parameters describe.
    pub node: TechNode,
    /// Area of one NAND2-equivalent standard cell, µm².
    pub nand2_area_um2: f64,
    /// Area of one 6T SRAM bit cell, µm².
    pub sram_bitcell_um2: f64,
    /// Nominal clock frequency of the accelerator, GHz.
    pub clock_ghz: f64,
    /// Energy of one 8-bit MAC operation, pJ.
    pub mac_energy_pj: f64,
    /// On-chip SRAM read energy, pJ per byte.
    pub sram_read_pj_per_byte: f64,
    /// Off-chip DRAM access energy, pJ per byte.
    pub dram_access_pj_per_byte: f64,
}

impl TechParams {
    /// SRAM macro area for `bytes` of storage, in mm², including an
    /// array-efficiency factor for periphery (sense amps, decoders).
    pub fn sram_area_mm2(&self, bytes: u64) -> f64 {
        /// Fraction of an SRAM macro that is bit cells (the rest is
        /// periphery); a typical compiled-macro figure.
        const ARRAY_EFFICIENCY: f64 = 0.7;
        let bits = bytes as f64 * 8.0;
        bits * self.sram_bitcell_um2 / ARRAY_EFFICIENCY / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_order_by_density() {
        let a7 = TechNode::N7.params().nand2_area_um2;
        let a14 = TechNode::N14.params().nand2_area_um2;
        let a28 = TechNode::N28.params().nand2_area_um2;
        assert!(a7 < a14 && a14 < a28);
    }

    #[test]
    fn sram_cells_shrink_with_node() {
        let s7 = TechNode::N7.params().sram_bitcell_um2;
        let s28 = TechNode::N28.params().sram_bitcell_um2;
        assert!(s7 < s28);
    }

    #[test]
    fn newer_nodes_clock_faster_and_use_less_energy() {
        let p7 = TechNode::N7.params();
        let p28 = TechNode::N28.params();
        assert!(p7.clock_ghz > p28.clock_ghz);
        assert!(p7.mac_energy_pj < p28.mac_energy_pj);
        assert!(p7.sram_read_pj_per_byte < p28.sram_read_pj_per_byte);
    }

    #[test]
    fn parse_roundtrip() {
        for node in TechNode::ALL {
            let s = node.to_string();
            assert_eq!(s.parse::<TechNode>().unwrap(), node);
        }
        assert!("3nm".parse::<TechNode>().is_err());
        assert_eq!("N7".parse::<TechNode>().unwrap(), TechNode::N7);
    }

    #[test]
    fn sram_area_scales_linearly() {
        let p = TechNode::N7.params();
        let a1 = p.sram_area_mm2(1024);
        let a2 = p.sram_area_mm2(2048);
        assert!((a2 / a1 - 2.0).abs() < 1e-9);
        assert!(a1 > 0.0);
    }

    #[test]
    fn display_matches_marketing_name() {
        assert_eq!(TechNode::N7.to_string(), "7nm");
        assert_eq!(TechNode::N28.to_string(), "28nm");
    }
}
