//! Deployment scenarios and the total-carbon footprint.
//!
//! The paper optimizes embodied carbon because for edge ML it *"now
//! surpasses operational emissions"* — but whether that crossover
//! actually happens depends on where and how long the module is
//! deployed. A [`DeploymentProfile`] captures that context (grid mix
//! at the deployment site, lifetime, duty cycle, packaging, external
//! DRAM) and composes the existing [`SystemCarbon`](crate::SystemCarbon) and
//! [`OperationalCarbon`] models into one
//! [`FootprintBreakdown`]: die embodied + system embodied +
//! operational = total.
//!
//! ```
//! use carma_carbon::{CarbonModel, DeploymentProfile};
//! use carma_netlist::{Area, TechNode};
//!
//! let die_area = Area::from_mm2(2.0);
//! let die = CarbonModel::for_node(TechNode::N7).embodied_carbon(die_area);
//! let profile = DeploymentProfile::edge_default(); // 3 y, world grid
//! let fb = profile.footprint(die, die_area, 2.0 /* W when active */);
//! assert!((fb.total().as_grams()
//!     - (fb.die + fb.system + fb.operational).as_grams()).abs() < 1e-9);
//! ```

use std::fmt;

use carma_netlist::Area;

use crate::embodied::CarbonMass;
use crate::metrics::OperationalCarbon;
use crate::params::GridMix;
use crate::system::{Package, DRAM_CARBON_G_PER_GB};

/// Default deployed lifetime: three years of wall-clock hours.
pub const DEFAULT_LIFETIME_HOURS: f64 = 3.0 * 365.0 * 24.0;

/// Default external memory of an edge inference module, GB.
pub const DEFAULT_DRAM_GB: f64 = 2.0;

/// Where and how an accelerator module is deployed: everything the
/// total-carbon footprint needs beyond the die itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeploymentProfile {
    /// Carbon intensity of the deployment site's electricity (not the
    /// fab's — that one lives in [`CarbonModel`](crate::CarbonModel)).
    pub grid: GridMix,
    /// Deployed lifetime in wall-clock hours.
    pub lifetime_hours: f64,
    /// Active duty cycle in `[0, 1]`: the fraction of the lifetime the
    /// module spends inferring (1.0 = always-on camera, ~0.0007 =
    /// once-a-minute sensor wake-up).
    pub utilization: f64,
    /// Packaging style of the module.
    pub package: Package,
    /// External DRAM capacity, GB.
    pub dram_gb: f64,
}

impl DeploymentProfile {
    /// Creates a profile.
    ///
    /// # Panics
    ///
    /// Panics if `lifetime_hours` or `dram_gb` is negative or not
    /// finite, or `utilization` is outside `[0, 1]`. The scenario API
    /// validates spec input before reaching this constructor.
    pub fn new(
        grid: GridMix,
        lifetime_hours: f64,
        utilization: f64,
        package: Package,
        dram_gb: f64,
    ) -> Self {
        assert!(
            lifetime_hours.is_finite() && lifetime_hours >= 0.0,
            "lifetime_hours must be ≥ 0, got {lifetime_hours}"
        );
        assert!(
            utilization.is_finite() && (0.0..=1.0).contains(&utilization),
            "utilization must be in [0, 1], got {utilization}"
        );
        assert!(
            dram_gb.is_finite() && dram_gb >= 0.0,
            "dram_gb must be ≥ 0, got {dram_gb}"
        );
        DeploymentProfile {
            grid,
            lifetime_hours,
            utilization,
            package,
            dram_gb,
        }
    }

    /// The default edge deployment: always-on module on the
    /// world-average grid for three years, monolithic flip-chip
    /// package, 2 GB LPDDR.
    pub fn edge_default() -> Self {
        DeploymentProfile::new(
            GridMix::WorldAverage,
            DEFAULT_LIFETIME_HOURS,
            1.0,
            Package::Monolithic,
            DEFAULT_DRAM_GB,
        )
    }

    /// Returns the profile with a different deployment grid (builder
    /// style).
    #[must_use]
    pub fn with_grid(mut self, grid: GridMix) -> Self {
        self.grid = grid;
        self
    }

    /// Returns the profile with a different lifetime (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `hours` is negative or not finite.
    #[must_use]
    pub fn with_lifetime_hours(self, hours: f64) -> Self {
        DeploymentProfile::new(
            self.grid,
            hours,
            self.utilization,
            self.package,
            self.dram_gb,
        )
    }

    /// Returns the profile with a different duty cycle (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is outside `[0, 1]`.
    #[must_use]
    pub fn with_utilization(self, utilization: f64) -> Self {
        DeploymentProfile::new(
            self.grid,
            self.lifetime_hours,
            utilization,
            self.package,
            self.dram_gb,
        )
    }

    /// The full-lifecycle footprint of a module around one die whose
    /// embodied carbon (`die_embodied`, from Eq. 1 at the fab) and area
    /// are already known, drawing `active_power_w` watts while
    /// inferring.
    ///
    /// System embodied carbon (package + DRAM) comes from the
    /// [`SystemCarbon`](crate::SystemCarbon) model's pricing rules
    /// ([`Package::carbon`] and [`DRAM_CARBON_G_PER_GB`]), composed
    /// allocation-free because this sits on the GA's total-carbon
    /// fitness hot path; use-phase emissions from [`OperationalCarbon`]
    /// at the utilization-scaled average power.
    pub fn footprint(
        &self,
        die_embodied: CarbonMass,
        die_area: Area,
        active_power_w: f64,
    ) -> FootprintBreakdown {
        let system = self.package.carbon(1, die_area)
            + CarbonMass::from_grams(DRAM_CARBON_G_PER_GB * self.dram_gb);
        let operational = OperationalCarbon::new(
            self.grid,
            active_power_w * self.utilization,
            self.lifetime_hours,
        );
        FootprintBreakdown {
            die: die_embodied,
            system,
            operational: operational.total(),
        }
    }

    /// The deployed lifetime (hours) at which use-phase emissions
    /// overtake the embodied bill `embodied`, for a module drawing
    /// `active_power_w` when active at this profile's utilization and
    /// grid.
    ///
    /// `None` is the documented sentinel for "the use phase never
    /// catches up": operational emissions never accrue (zero or
    /// non-finite power, zero utilization, a zero-carbon grid), or the
    /// accrual rate is so close to zero that the crossover lifetime
    /// overflows `f64` — an embodied-dominated-forever deployment.
    /// The result, when present, is always finite and ≥ 0.
    pub fn crossover_hours(&self, embodied: CarbonMass, active_power_w: f64) -> Option<f64> {
        let g_per_hour = active_power_w * self.utilization / 1000.0 * self.grid.grams_per_kwh();
        if !g_per_hour.is_finite() || g_per_hour <= 0.0 {
            // Covers NaN and ±inf (non-finite power inputs) as well
            // as zero and negative rates — an infinite accrual rate
            // is a degenerate input, not an instant crossover.
            return None;
        }
        let hours = embodied.as_grams() / g_per_hour;
        // A subnormal rate under a macroscopic embodied bill divides
        // toward infinity; report "never" rather than a non-finite
        // lifetime no caller can render or compare.
        hours.is_finite().then_some(hours)
    }
}

impl Default for DeploymentProfile {
    fn default() -> Self {
        DeploymentProfile::edge_default()
    }
}

impl fmt::Display for DeploymentProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} grid, {:.0} h @ {:.0} % duty, {:?} package, {} GB DRAM",
            self.grid,
            self.lifetime_hours,
            self.utilization * 100.0,
            self.package,
            self.dram_gb
        )
    }
}

/// The total-carbon bill of one deployed module, itemized into the
/// three lifecycle buckets the paper's motivation compares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FootprintBreakdown {
    /// Embodied carbon of the accelerator die (Eq. 1 at the fab).
    pub die: CarbonMass,
    /// Embodied carbon of the rest of the module: packaging + DRAM.
    pub system: CarbonMass,
    /// Use-phase emissions over the deployed lifetime.
    pub operational: CarbonMass,
}

impl FootprintBreakdown {
    /// Total embodied carbon (die + system).
    pub fn embodied(&self) -> CarbonMass {
        self.die + self.system
    }

    /// Total lifecycle carbon: die + system + operational.
    pub fn total(&self) -> CarbonMass {
        self.die + self.system + self.operational
    }

    /// Operational share of the total, in `[0, 1]` (0 for an all-zero
    /// breakdown).
    pub fn operational_share(&self) -> f64 {
        let total = self.total().as_grams();
        if total > 0.0 {
            self.operational.as_grams() / total
        } else {
            0.0
        }
    }

    /// Whether embodied carbon exceeds use-phase emissions — the
    /// paper's motivating claim for edge ML.
    pub fn embodied_dominates(&self) -> bool {
        self.embodied() > self.operational
    }
}

impl fmt::Display for FootprintBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "die {} + system {} + operational {} = {}",
            self.die,
            self.system,
            self.operational,
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embodied::CarbonModel;
    use crate::system::DRAM_CARBON_G_PER_GB;
    use carma_netlist::TechNode;
    use proptest::prelude::*;

    fn die() -> (CarbonMass, Area) {
        let area = Area::from_mm2(2.0);
        (
            CarbonModel::for_node(TechNode::N7).embodied_carbon(area),
            area,
        )
    }

    #[test]
    fn total_is_sum_of_parts() {
        let (carbon, area) = die();
        let fb = DeploymentProfile::edge_default().footprint(carbon, area, 2.0);
        assert_eq!(fb.total(), fb.die + fb.system + fb.operational);
        assert_eq!(fb.embodied(), fb.die + fb.system);
        assert_eq!(fb.die, carbon, "die bucket is the priced die, untouched");
    }

    #[test]
    fn system_bucket_composes_package_and_dram() {
        let (carbon, area) = die();
        let profile = DeploymentProfile::edge_default();
        let fb = profile.footprint(carbon, area, 2.0);
        let expect = Package::Monolithic.carbon(1, area)
            + CarbonMass::from_grams(DRAM_CARBON_G_PER_GB * profile.dram_gb);
        assert_eq!(fb.system, expect);
    }

    #[test]
    fn operational_bucket_matches_operational_model() {
        let (carbon, area) = die();
        let profile = DeploymentProfile::edge_default().with_utilization(0.25);
        let fb = profile.footprint(carbon, area, 2.0);
        let expect =
            OperationalCarbon::new(profile.grid, 2.0 * 0.25, profile.lifetime_hours).total();
        assert_eq!(fb.operational, expect);
    }

    #[test]
    fn zero_utilization_zeroes_operational() {
        let (carbon, area) = die();
        let fb = DeploymentProfile::edge_default()
            .with_utilization(0.0)
            .footprint(carbon, area, 5.0);
        assert_eq!(fb.operational, CarbonMass::ZERO);
        assert!(fb.embodied_dominates());
        assert_eq!(fb.operational_share(), 0.0);
    }

    #[test]
    fn crossover_balances_embodied_and_operational() {
        let (carbon, area) = die();
        let profile = DeploymentProfile::edge_default();
        let fb0 = profile
            .with_lifetime_hours(0.0)
            .footprint(carbon, area, 2.0);
        let cross = profile
            .crossover_hours(fb0.embodied(), 2.0)
            .expect("positive power on a carbon-emitting grid");
        let at_cross = profile
            .with_lifetime_hours(cross)
            .footprint(carbon, area, 2.0);
        let (e, o) = (
            at_cross.embodied().as_grams(),
            at_cross.operational.as_grams(),
        );
        assert!((e - o).abs() / e < 1e-9, "embodied {e} vs operational {o}");
    }

    #[test]
    fn crossover_none_without_emissions() {
        let (carbon, _) = die();
        let p = DeploymentProfile::edge_default();
        assert_eq!(p.crossover_hours(carbon, 0.0), None);
        assert_eq!(p.with_utilization(0.0).crossover_hours(carbon, 2.0), None);
        assert_eq!(
            p.with_grid(GridMix::Custom(0.0))
                .crossover_hours(carbon, 2.0),
            None
        );
    }

    #[test]
    fn crossover_sentinel_for_near_zero_operational_intensity() {
        // A subnormal accrual rate (tiny power × tiny grid intensity)
        // under a macroscopic embodied bill would divide to +inf; the
        // documented sentinel for "embodied dominates forever" is None,
        // never a non-finite number.
        let p = DeploymentProfile::edge_default().with_grid(GridMix::Custom(1e-300));
        let big = CarbonMass::from_grams(1e12);
        assert_eq!(p.crossover_hours(big, 1e-12), None);
        // A merely-small (normal) rate still yields a finite, huge
        // crossover rather than the sentinel.
        let small_rate = DeploymentProfile::edge_default().with_grid(GridMix::Custom(1e-6));
        let h = small_rate
            .crossover_hours(CarbonMass::from_grams(1.0), 1.0)
            .expect("normal rate crosses eventually");
        assert!(h.is_finite() && h > 0.0);
    }

    #[test]
    fn crossover_sentinel_for_degenerate_power_inputs() {
        let (carbon, _) = die();
        let p = DeploymentProfile::edge_default();
        // Non-finite or negative draw can come from an unvalidated
        // caller; every degenerate case maps to the sentinel.
        assert_eq!(p.crossover_hours(carbon, f64::NAN), None);
        assert_eq!(p.crossover_hours(carbon, f64::INFINITY * 0.0), None);
        // An infinite draw at nonzero utilization gives an infinite
        // accrual rate — still the sentinel, not Some(0.0).
        assert_eq!(p.crossover_hours(carbon, f64::INFINITY), None);
        assert_eq!(p.crossover_hours(carbon, -2.0), None);
        // Utilization 0 composed with the degenerate inputs too.
        let idle = p.with_utilization(0.0);
        assert_eq!(idle.crossover_hours(carbon, f64::NAN), None);
        assert_eq!(idle.crossover_hours(carbon, f64::INFINITY), None);
    }

    #[test]
    fn crossover_zero_embodied_crosses_immediately() {
        // With no embodied bill the use phase leads from hour zero:
        // the crossover is 0, not the "never" sentinel.
        let p = DeploymentProfile::edge_default();
        assert_eq!(p.crossover_hours(CarbonMass::ZERO, 2.0), Some(0.0));
    }

    proptest! {
        #[test]
        fn crossover_is_finite_nonnegative_or_none(
            embodied_g in 0.0f64..1e15,
            // Exponent sampling spans kW draws down through subnormal
            // rates to exact underflow-to-zero — the full degenerate
            // surface the sentinel guards.
            power_exp in -340.0f64..3.0,
            util in 0.0f64..1.0,
            ci_exp in -340.0f64..4.0,
        ) {
            let power = 10f64.powf(power_exp);
            let ci = 10f64.powf(ci_exp);
            let p = DeploymentProfile::edge_default()
                .with_utilization(util)
                .with_grid(GridMix::Custom(ci));
            if let Some(h) = p.crossover_hours(CarbonMass::from_grams(embodied_g), power) {
                prop_assert!(h.is_finite() && h >= 0.0, "got {h}");
            }
        }
    }

    #[test]
    fn display_is_informative() {
        let p = DeploymentProfile::edge_default();
        assert!(p.to_string().contains("world-average"), "{p}");
        let (carbon, area) = die();
        let fb = p.footprint(carbon, area, 2.0);
        assert!(fb.to_string().contains("operational"), "{fb}");
    }

    #[test]
    #[should_panic(expected = "utilization must be in [0, 1]")]
    fn out_of_range_utilization_rejected() {
        let _ = DeploymentProfile::edge_default().with_utilization(1.5);
    }

    #[test]
    #[should_panic(expected = "lifetime_hours must be ≥ 0")]
    fn negative_lifetime_rejected() {
        let _ = DeploymentProfile::edge_default().with_lifetime_hours(-1.0);
    }

    proptest! {
        #[test]
        fn operational_scales_linearly_in_lifetime(
            hours in 1.0f64..100_000.0,
            k in 1.0f64..8.0,
            power in 0.1f64..20.0,
        ) {
            let (carbon, area) = die();
            let base = DeploymentProfile::edge_default();
            let one = base.with_lifetime_hours(hours).footprint(carbon, area, power);
            let scaled = base.with_lifetime_hours(hours * k).footprint(carbon, area, power);
            let expect = one.operational.as_grams() * k;
            let got = scaled.operational.as_grams();
            prop_assert!(
                (got - expect).abs() / expect < 1e-12,
                "operational not linear: {got} vs {expect}"
            );
            // Embodied buckets are lifetime-invariant.
            prop_assert_eq!(one.die, scaled.die);
            prop_assert_eq!(one.system, scaled.system);
        }

        #[test]
        fn total_never_below_any_part(
            hours in 0.0f64..100_000.0,
            util in 0.0f64..1.0,
            power in 0.0f64..20.0,
        ) {
            let (carbon, area) = die();
            let fb = DeploymentProfile::edge_default()
                .with_lifetime_hours(hours)
                .with_utilization(util)
                .footprint(carbon, area, power);
            let total = fb.total();
            prop_assert!(total >= fb.die && total >= fb.system && total >= fb.operational);
            prop_assert!((0.0..=1.0).contains(&fb.operational_share()));
        }
    }
}
