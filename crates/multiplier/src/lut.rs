//! Lookup-table compilation of multiplier netlists.
//!
//! Behavioural DNN inference (the ApproxTrain substitute in
//! `carma-dnn`) performs billions of products; simulating the netlist
//! for each one would be hopeless. [`LutMultiplier`] evaluates the
//! netlist once for every operand pair and serves products from a flat
//! table — exactly the trick ApproxTrain uses on GPUs.

use std::fmt;
use std::sync::Arc;

use carma_netlist::sim::{unpack_lane, WORD_LANES};
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
/// `2^(2n)` operand pairs (for 8-bit units: 65 536 entries, 1 024 lane
/// evaluations). The table is shared via [`Arc`] so cloning is cheap.
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
    table: Arc<[u32]>,
}

impl LutMultiplier {
    /// Width (bits) up to which a full table is feasible (2^(2·12)
    /// entries = 64 Mi entries; beyond that, compile-time and memory
    /// explode).
    pub const MAX_WIDTH: u32 = 12;

    /// Compiles `circuit` into a lookup table.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than [`Self::MAX_WIDTH`].
    pub fn compile(circuit: &MultiplierCircuit) -> Self {
        let n = circuit.width();
        assert!(
            n <= Self::MAX_WIDTH,
            "LUT compilation supports width ≤ {}, got {n}",
            Self::MAX_WIDTH
        );
        // Entry `(b << n) | a` is the pair's sweep assignment index.
        let mut table = vec![0u32; 1 << (2 * n)];
        LaneSim::new(circuit.netlist()).sweep(0..table.len() as u64, |first, out| {
            let word = table[first as usize..].iter_mut().take(WORD_LANES);
            for (lane, entry) in word.enumerate() {
                *entry = unpack_lane(out, lane) as u32;
            }
        });
        LutMultiplier {
            width: n,
            name: circuit.netlist().name().to_string(),
            table: table.into(),
        }
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

// ---------------------------------------------------------------------
// Binary (de)serialization
// ---------------------------------------------------------------------

/// Errors of [`LutMultiplier::from_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeLutError {
    /// The buffer does not start with the `CLUT` magic.
    BadMagic,
    /// The header declares an unsupported width.
    BadWidth(u32),
    /// The buffer is shorter than the header-declared table.
    Truncated {
        /// Bytes expected from the header.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
}

impl fmt::Display for DecodeLutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeLutError::BadMagic => write!(f, "missing CLUT magic"),
            DecodeLutError::BadWidth(w) => write!(f, "unsupported LUT width {w}"),
            DecodeLutError::Truncated { expected, actual } => {
                write!(f, "truncated LUT: expected {expected} bytes, got {actual}")
            }
        }
    }
}

impl std::error::Error for DecodeLutError {}

impl LutMultiplier {
    /// Magic bytes heading the serialized form.
    pub const MAGIC: [u8; 4] = *b"CLUT";

    /// Serializes the LUT into a self-describing binary blob
    /// (`CLUT` magic, width, name, little-endian table), so compiled
    /// approximate multipliers can be cached on disk or shipped to an
    /// inference runtime without re-simulating the netlist.
    pub fn to_bytes(&self) -> bytes::Bytes {
        use bytes::BufMut;
        let name = self.name.as_bytes();
        let mut buf = bytes::BytesMut::with_capacity(4 + 4 + 4 + name.len() + self.table.len() * 4);
        buf.put_slice(&Self::MAGIC);
        buf.put_u32_le(self.width);
        buf.put_u32_le(name.len() as u32);
        buf.put_slice(name);
        for &v in self.table.iter() {
            buf.put_u32_le(v);
        }
        buf.freeze()
    }

    /// Deserializes a LUT from [`Self::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeLutError`] on a malformed buffer (wrong magic,
    /// width outside `1..=MAX_WIDTH`, truncated table).
    pub fn from_bytes(mut data: bytes::Bytes) -> Result<Self, DecodeLutError> {
        use bytes::Buf;
        if data.remaining() < 12 || data[0..4] != Self::MAGIC {
            return Err(DecodeLutError::BadMagic);
        }
        data.advance(4);
        let width = data.get_u32_le();
        if width == 0 || width > Self::MAX_WIDTH {
            return Err(DecodeLutError::BadWidth(width));
        }
        let name_len = data.get_u32_le() as usize;
        let entries = 1usize << (2 * width);
        let expected = name_len + entries * 4;
        if data.remaining() < expected {
            return Err(DecodeLutError::Truncated {
                expected,
                actual: data.remaining(),
            });
        }
        let name = String::from_utf8_lossy(&data[..name_len]).into_owned();
        data.advance(name_len);
        let mut table = Vec::with_capacity(entries);
        for _ in 0..entries {
            table.push(data.get_u32_le());
        }
        Ok(LutMultiplier {
            width,
            name,
            table: table.into(),
        })
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;
    use crate::approx::ApproxGenome;
    use crate::exact::ReductionKind;

    #[test]
    fn roundtrip_preserves_function() {
        let base = MultiplierCircuit::generate(8, ReductionKind::Dadda);
        let approx = ApproxGenome::truncation(2, 1).apply(&base);
        let lut = LutMultiplier::compile(&approx);
        let restored = LutMultiplier::from_bytes(lut.to_bytes()).unwrap();
        assert_eq!(restored.name(), lut.name());
        assert_eq!(restored.width(), lut.width());
        for a in (0u32..256).step_by(19) {
            for b in (0u32..256).step_by(23) {
                assert_eq!(restored.multiply(a, b), lut.multiply(a, b));
            }
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let err = LutMultiplier::from_bytes(bytes::Bytes::from_static(b"NOPE12345678"));
        assert_eq!(err.unwrap_err(), DecodeLutError::BadMagic);
    }

    #[test]
    fn truncated_table_rejected() {
        let c = MultiplierCircuit::generate(4, ReductionKind::Array);
        let lut = LutMultiplier::compile(&c);
        let full = lut.to_bytes();
        let cut = full.slice(0..full.len() - 10);
        assert!(matches!(
            LutMultiplier::from_bytes(cut),
            Err(DecodeLutError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_width_rejected() {
        use bytes::BufMut;
        let mut buf = bytes::BytesMut::new();
        buf.put_slice(b"CLUT");
        buf.put_u32_le(99);
        buf.put_u32_le(0);
        assert_eq!(
            LutMultiplier::from_bytes(buf.freeze()).unwrap_err(),
            DecodeLutError::BadWidth(99)
        );
    }
}
