//! The embodied-carbon model: Eq. 1 and Eq. 2 of the paper.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

use carma_netlist::{Area, TechNode};

use crate::params::{FabParams, GridMix, SILICON_CFPA_G_PER_CM2};
use crate::wafer::Wafer;
use crate::yield_model::YieldModel;

/// A mass of CO₂-equivalent emissions, stored in grams.
///
/// Newtype so carbon can never be confused with energy or area in the
/// CDP formula chains.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct CarbonMass(f64);

impl CarbonMass {
    /// Zero emissions.
    pub const ZERO: CarbonMass = CarbonMass(0.0);

    /// Creates a mass from grams of CO₂.
    ///
    /// # Panics
    ///
    /// Panics if `grams` is negative or not finite.
    pub fn from_grams(grams: f64) -> Self {
        assert!(
            grams.is_finite() && grams >= 0.0,
            "carbon mass must be ≥ 0, got {grams}"
        );
        CarbonMass(grams)
    }

    /// The mass in grams.
    pub fn as_grams(self) -> f64 {
        self.0
    }

    /// The mass in kilograms.
    pub fn as_kg(self) -> f64 {
        self.0 / 1000.0
    }
}

impl Add for CarbonMass {
    type Output = CarbonMass;

    fn add(self, rhs: CarbonMass) -> CarbonMass {
        CarbonMass(self.0 + rhs.0)
    }
}

impl AddAssign for CarbonMass {
    fn add_assign(&mut self, rhs: CarbonMass) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for CarbonMass {
    type Output = CarbonMass;

    fn mul(self, rhs: f64) -> CarbonMass {
        CarbonMass(self.0 * rhs)
    }
}

impl Sum for CarbonMass {
    fn sum<I: Iterator<Item = CarbonMass>>(iter: I) -> CarbonMass {
        iter.fold(CarbonMass::ZERO, Add::add)
    }
}

impl fmt::Display for CarbonMass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1000.0 {
            write!(f, "{:.3} kgCO₂", self.as_kg())
        } else {
            write!(f, "{:.2} gCO₂", self.0)
        }
    }
}

/// Itemized embodied-carbon result, exposing the intermediate terms of
/// Eq. 1/2 ([C-INTERMEDIATE]): useful for reports and for checking the
/// model against hand calculations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CarbonBreakdown {
    /// Fabrication yield used in CFPA.
    pub fab_yield: f64,
    /// CFPA of the die, g CO₂/cm² (Eq. 2).
    pub cfpa_g_per_cm2: f64,
    /// Die term of Eq. 1: CFPA × A_die.
    pub die_carbon: CarbonMass,
    /// Wasted-silicon term of Eq. 1: CFPA_Si × A_wasted.
    pub wasted_carbon: CarbonMass,
    /// Wasted wafer area attributed to this die.
    pub wasted_area: Area,
    /// Total embodied carbon (die + wasted terms).
    pub total: CarbonMass,
}

/// The complete embodied-carbon model of one fabrication setup.
///
/// Composes the fab parameters, grid mix, yield model and wafer
/// geometry. [`CarbonModel::for_node`] gives the paper's defaults
/// (Taiwan grid, Murphy yield, 300 mm wafer).
///
/// ```
/// use carma_carbon::CarbonModel;
/// use carma_netlist::{Area, TechNode};
///
/// let m = CarbonModel::for_node(TechNode::N7);
/// let small = m.embodied_carbon(Area::from_mm2(1.0));
/// let large = m.embodied_carbon(Area::from_mm2(10.0));
/// assert!(large.as_grams() > small.as_grams());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CarbonModel {
    /// Per-node fab parameters.
    pub fab: FabParams,
    /// Carbon intensity of the fab's electricity.
    pub grid: GridMix,
    /// Die-yield model.
    pub yield_model: YieldModel,
    /// Wafer geometry for wasted-area accounting.
    pub wafer: Wafer,
}

impl CarbonModel {
    /// The paper's default model for `node`: ACT fab parameters, Taiwan
    /// grid, Murphy yield, 300 mm wafer.
    pub fn for_node(node: TechNode) -> Self {
        CarbonModel {
            fab: FabParams::for_node(node),
            grid: GridMix::default(),
            yield_model: YieldModel::default(),
            wafer: Wafer::default(),
        }
    }

    /// Returns the model with a different grid mix (builder style).
    pub fn with_grid(mut self, grid: GridMix) -> Self {
        self.grid = grid;
        self
    }

    /// Returns the model with a different yield model (builder style).
    pub fn with_yield_model(mut self, yield_model: YieldModel) -> Self {
        self.yield_model = yield_model;
        self
    }

    /// The technology node of this model.
    pub fn node(&self) -> TechNode {
        self.fab.node
    }

    /// Fabrication yield for a die of `area`.
    pub fn fab_yield(&self, area: Area) -> f64 {
        self.yield_model
            .yield_for(area, self.fab.defect_density_per_cm2)
    }

    /// Carbon Footprint Per unit Area of the die, g CO₂/cm² — Eq. 2:
    /// `CFPA = (CI_fab × EPA + C_gas + C_material) / Y`.
    pub fn cfpa_g_per_cm2(&self, area: Area) -> f64 {
        let numerator = self.grid.grams_per_kwh() * self.fab.epa_kwh_per_cm2
            + self.fab.gpa_g_per_cm2
            + self.fab.mpa_g_per_cm2;
        numerator / self.fab_yield(area)
    }

    /// Embodied carbon of a die of `area` — Eq. 1, with full breakdown.
    ///
    /// # Panics
    ///
    /// Panics if the die has zero area or does not fit on the wafer.
    pub fn embodied_breakdown(&self, area: Area) -> CarbonBreakdown {
        let fab_yield = self.fab_yield(area);
        let cfpa = self.cfpa_g_per_cm2(area);
        let die_carbon = CarbonMass::from_grams(cfpa * area.as_cm2());
        let wasted_area = self.wafer.wasted_area_per_die(area);
        let wasted_carbon = CarbonMass::from_grams(SILICON_CFPA_G_PER_CM2 * wasted_area.as_cm2());
        CarbonBreakdown {
            fab_yield,
            cfpa_g_per_cm2: cfpa,
            die_carbon,
            wasted_carbon,
            wasted_area,
            total: die_carbon + wasted_carbon,
        }
    }

    /// Embodied carbon of a die of `area` — Eq. 1 (total only).
    ///
    /// # Panics
    ///
    /// Panics if the die has zero area or does not fit on the wafer.
    pub fn embodied_carbon(&self, area: Area) -> CarbonMass {
        self.embodied_breakdown(area).total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn eq2_matches_hand_calculation() {
        // 7 nm, Taiwan grid, tiny die so yield ≈ 1.
        let m = CarbonModel::for_node(TechNode::N7);
        let a = Area::from_mm2(0.01); // 1e-4 cm² → yield ≈ 1
        let cfpa = m.cfpa_g_per_cm2(a);
        let expect = 500.0 * 1.52 + 180.0 + 500.0; // = 1440 g/cm²
        assert!(
            (cfpa - expect).abs() / expect < 1e-3,
            "cfpa {cfpa} vs {expect}"
        );
    }

    #[test]
    fn yield_divisor_raises_cfpa_for_large_dies() {
        let m = CarbonModel::for_node(TechNode::N7);
        let small = m.cfpa_g_per_cm2(Area::from_mm2(1.0));
        let large = m.cfpa_g_per_cm2(Area::from_mm2(400.0));
        assert!(large > small);
    }

    #[test]
    fn breakdown_terms_sum_to_total() {
        let m = CarbonModel::for_node(TechNode::N14);
        let b = m.embodied_breakdown(Area::from_mm2(5.0));
        assert!(
            (b.die_carbon.as_grams() + b.wasted_carbon.as_grams() - b.total.as_grams()).abs()
                < 1e-9
        );
        assert!(b.fab_yield > 0.0 && b.fab_yield <= 1.0);
    }

    #[test]
    fn edge_die_scale_matches_paper_figure() {
        // The paper's Fig. 2 y-axis spans ~0–40 gCO₂ for NVDLA-class
        // edge dies at 7 nm. A few-mm² die must land in single-digit
        // to tens of grams.
        let m = CarbonModel::for_node(TechNode::N7);
        let c = m.embodied_carbon(Area::from_mm2(2.0));
        assert!(
            c.as_grams() > 0.1 && c.as_grams() < 100.0,
            "out of scale: {c}"
        );
    }

    #[test]
    fn renewable_grid_cuts_embodied_carbon() {
        let taiwan = CarbonModel::for_node(TechNode::N7);
        let green = taiwan.with_grid(GridMix::Renewable);
        let a = Area::from_mm2(4.0);
        assert!(green.embodied_carbon(a).as_grams() < taiwan.embodied_carbon(a).as_grams());
    }

    #[test]
    fn per_cm2_cost_higher_at_advanced_nodes() {
        let a = Area::from_mm2(1.0);
        let c7 = CarbonModel::for_node(TechNode::N7).cfpa_g_per_cm2(a);
        let c28 = CarbonModel::for_node(TechNode::N28).cfpa_g_per_cm2(a);
        assert!(c7 > c28);
    }

    #[test]
    fn carbon_mass_arithmetic() {
        let a = CarbonMass::from_grams(10.0);
        let b = CarbonMass::from_grams(5.0);
        assert!(((a + b).as_grams() - 15.0).abs() < 1e-12);
        let mut c = a;
        c += b;
        assert!((c.as_grams() - 15.0).abs() < 1e-12);
        assert!(((a * 2.0).as_grams() - 20.0).abs() < 1e-12);
        let s: CarbonMass = [a, b].into_iter().sum();
        assert!((s.as_grams() - 15.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "carbon mass must be ≥ 0")]
    fn negative_mass_rejected() {
        let _ = CarbonMass::from_grams(-1.0);
    }

    #[test]
    fn display_scales_units() {
        assert!(CarbonMass::from_grams(12.0).to_string().contains("gCO₂"));
        assert!(CarbonMass::from_grams(2000.0).to_string().contains("kgCO₂"));
    }

    proptest! {
        #[test]
        fn embodied_carbon_is_monotone_in_area(
            mm2 in 0.5f64..200.0,
            extra in 0.5f64..200.0,
        ) {
            let m = CarbonModel::for_node(TechNode::N7);
            let small = m.embodied_carbon(Area::from_mm2(mm2));
            let large = m.embodied_carbon(Area::from_mm2(mm2 + extra));
            prop_assert!(large > small);
        }

        #[test]
        fn embodied_carbon_is_superlinear_in_area(mm2 in 5.0f64..100.0) {
            // Doubling the die more than doubles the carbon (yield loss
            // + waste): the "exponential carbon increase" trend of the
            // paper's Fig. 2.
            let m = CarbonModel::for_node(TechNode::N7);
            let c1 = m.embodied_carbon(Area::from_mm2(mm2)).as_grams();
            let c2 = m.embodied_carbon(Area::from_mm2(mm2 * 2.0)).as_grams();
            prop_assert!(c2 > 2.0 * c1 * 0.999, "c2 {c2} vs 2·c1 {}", 2.0 * c1);
        }
    }
}
