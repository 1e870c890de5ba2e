//! Lookup-table compilation of multiplier netlists.
//!
//! Behavioural DNN inference (the ApproxTrain substitute in
//! `carma-dnn`) performs billions of products; simulating the netlist
//! for each one would be hopeless. [`LutMultiplier`] evaluates the
//! netlist once for every operand pair and serves products from a flat
//! table — exactly the trick ApproxTrain uses on GPUs.

use std::fmt;
use std::sync::Arc;

use carma_netlist::LaneSim;

use crate::exact::MultiplierCircuit;

/// An unsigned integer multiplier of a fixed operand width.
///
/// The trait is object-safe so inference engines can hold
/// `Arc<dyn Multiplier>` and switch between exact and approximate
/// units at runtime (the paper's accuracy-evaluation loop).
pub trait Multiplier: fmt::Debug + Send + Sync {
    /// Operand width in bits.
    fn width(&self) -> u32;

    /// Multiplies two operands (each must fit in [`width`](Self::width)
    /// bits). Implementations may return an approximate product.
    fn multiply(&self, a: u32, b: u32) -> u64;

    /// A short human-readable identifier for reports.
    fn name(&self) -> &str;
}

/// The exact reference multiplier (plain integer multiplication).
#[derive(Debug, Clone)]
pub struct ExactMultiplier {
    width: u32,
}

impl ExactMultiplier {
    /// Creates an exact multiplier of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 16.
    pub fn new(width: u32) -> Self {
        assert!((1..=16).contains(&width), "width must be in 1..=16");
        ExactMultiplier { width }
    }
}

impl Multiplier for ExactMultiplier {
    fn width(&self) -> u32 {
        self.width
    }

    fn multiply(&self, a: u32, b: u32) -> u64 {
        debug_assert!(a < (1 << self.width) && b < (1 << self.width));
        u64::from(a) * u64::from(b)
    }

    fn name(&self) -> &str {
        "exact"
    }
}

/// A multiplier backed by a fully materialized lookup table.
///
/// The table is built by lane-simulating the circuit over all
/// `2^(2n)` operand pairs (for 8-bit units: 65 536 entries, one
/// [`LaneSim::sweep`] of 128 eight-word tape passes). The table is
/// shared via [`Arc`] so cloning is cheap.
///
/// ```
/// use carma_multiplier::exact::{MultiplierCircuit, ReductionKind};
/// use carma_multiplier::lut::{LutMultiplier, Multiplier};
///
/// let circuit = MultiplierCircuit::generate(8, ReductionKind::Wallace);
/// let lut = LutMultiplier::compile(&circuit);
/// assert_eq!(lut.multiply(250, 250), 62_500);
/// ```
#[derive(Clone)]
pub struct LutMultiplier {
    width: u32,
    name: String,
    table: Arc<Vec<u32>>,
}

impl LutMultiplier {
    /// Width (bits) up to which a full table is feasible (2^(2·12)
    /// entries = 16 Mi entries, 64 MiB as `u32`; beyond that,
    /// compile-time and memory explode).
    pub const MAX_WIDTH: u32 = 12;

    /// Compiles `circuit` into a lookup table.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than [`Self::MAX_WIDTH`].
    pub fn compile(circuit: &MultiplierCircuit) -> Self {
        let n = circuit.width();
        LutMultiplier {
            width: n,
            name: circuit.netlist().name().to_string(),
            table: Arc::new(Self::tabulate(circuit, 1 << n)),
        }
    }

    /// The first `rows` rows of `circuit`'s table: entry `(b << n) | a`
    /// is the product of `a` and `b`, for every `a` and every `b` below
    /// `rows`, from one [`LaneSim::sweep`] of just those pairs. A caller
    /// that never reads the higher rows sweeps less: the DNN engine's
    /// weight magnitudes stay below 128, half an 8-bit table.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than [`Self::MAX_WIDTH`] or `rows`
    /// exceeds `2^n`.
    pub fn tabulate(circuit: &MultiplierCircuit, rows: usize) -> Vec<u32> {
        let n = circuit.width();
        assert!(
            n <= Self::MAX_WIDTH,
            "LUT compilation supports width ≤ {}, got {n}",
            Self::MAX_WIDTH
        );
        assert!(rows <= 1 << n, "{rows} rows exceed a {n}-bit table");
        // Entry `(b << n) | a` is the pair's sweep assignment index;
        // the sweep hands the assignments over in index order, so the
        // table is written once, into its final allocation.
        let entries = rows << n;
        let mut table = Vec::with_capacity(entries);
        LaneSim::new(circuit.netlist()).sweep(0..entries as u64, |first, lanes| {
            debug_assert_eq!(first as usize, table.len());
            let live = lanes.len().min(entries - table.len());
            table.extend(lanes[..live].iter().map(|&product| product as u32));
        });
        table
    }
}

impl fmt::Debug for LutMultiplier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LutMultiplier")
            .field("width", &self.width)
            .field("name", &self.name)
            .field("entries", &self.table.len())
            .finish()
    }
}

impl Multiplier for LutMultiplier {
    fn width(&self) -> u32 {
        self.width
    }

    #[inline]
    fn multiply(&self, a: u32, b: u32) -> u64 {
        debug_assert!(a < (1 << self.width) && b < (1 << self.width));
        u64::from(self.table[((b as usize) << self.width) | a as usize])
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::ApproxGenome;
    use crate::exact::ReductionKind;

    #[test]
    fn lut_matches_netlist_for_exact_circuit() {
        let c = MultiplierCircuit::generate(8, ReductionKind::Dadda);
        let lut = LutMultiplier::compile(&c);
        for a in (0u32..256).step_by(7) {
            for b in (0u32..256).step_by(11) {
                assert_eq!(lut.multiply(a, b), u64::from(a * b), "{a}×{b}");
            }
        }
        assert_eq!(lut.table.len(), 65_536);
    }

    #[test]
    fn lut_matches_netlist_for_approximate_circuit() {
        let base = MultiplierCircuit::generate(8, ReductionKind::Dadda);
        let approx = ApproxGenome::truncation(2, 1).apply(&base);
        let lut = LutMultiplier::compile(&approx);
        for a in (0u32..256).step_by(13) {
            for b in (0u32..256).step_by(17) {
                assert_eq!(
                    lut.multiply(a, b),
                    approx.multiply_via_netlist(a, b),
                    "{a}×{b}"
                );
            }
        }
    }

    #[test]
    fn tabulated_rows_are_a_prefix_of_the_full_table() {
        let base = MultiplierCircuit::generate(8, ReductionKind::Dadda);
        let approx = ApproxGenome::truncation(3, 2).apply(&base);
        let lut = LutMultiplier::compile(&approx);
        let half = LutMultiplier::tabulate(&approx, 128);
        assert_eq!(half.len(), 128 << 8);
        assert_eq!(half[..], lut.table[..half.len()]);
    }

    #[test]
    #[should_panic(expected = "rows exceed")]
    fn rows_past_the_table_rejected() {
        let c = MultiplierCircuit::generate(4, ReductionKind::Array);
        let _ = LutMultiplier::tabulate(&c, 17);
    }

    #[test]
    fn exact_multiplier_trait_object() {
        let m: Box<dyn Multiplier> = Box::new(ExactMultiplier::new(8));
        assert_eq!(m.multiply(255, 255), 65_025);
        assert_eq!(m.width(), 8);
        assert_eq!(m.name(), "exact");
    }

    #[test]
    fn lut_clone_shares_table() {
        let c = MultiplierCircuit::generate(4, ReductionKind::Array);
        let lut = LutMultiplier::compile(&c);
        let clone = lut.clone();
        assert_eq!(Arc::as_ptr(&lut.table), Arc::as_ptr(&clone.table));
    }

    #[test]
    fn lut_name_comes_from_circuit() {
        let c = MultiplierCircuit::generate(4, ReductionKind::Wallace);
        let lut = LutMultiplier::compile(&c);
        assert!(lut.name().contains("wallace"));
    }

    #[test]
    #[should_panic(expected = "LUT compilation supports width")]
    fn oversized_lut_rejected() {
        let c = MultiplierCircuit::generate(16, ReductionKind::Dadda);
        let _ = LutMultiplier::compile(&c);
    }

    #[test]
    fn debug_is_nonempty() {
        let c = MultiplierCircuit::generate(4, ReductionKind::Array);
        let lut = LutMultiplier::compile(&c);
        assert!(format!("{lut:?}").contains("LutMultiplier"));
    }
}
