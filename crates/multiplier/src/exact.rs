//! Exact unsigned multiplier netlist generators.
//!
//! All generators share the same structure: an n×n AND-gate partial
//! product matrix, a column-wise reduction stage, and a ripple-carry
//! final adder. They differ in the *reduction schedule*
//! ([`ReductionKind`]), which changes gate placement and logic depth —
//! the classic array / Wallace / Dadda trade-off.

use std::fmt;

use carma_netlist::{Area, BinOp, Netlist, NodeId, TechNode};

/// The column-reduction schedule of the multiplier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReductionKind {
    /// Sequential (array-style) reduction: each column is compressed
    /// serially, low column to high column. Deepest, most regular.
    Array,
    /// Wallace-tree reduction: every stage compresses all columns in
    /// parallel with as many full/half adders as possible.
    Wallace,
    /// Dadda reduction: staged maximum column heights (…, 6, 4, 3, 2),
    /// using the minimum number of compressors.
    Dadda,
}

impl ReductionKind {
    /// All reduction kinds, in a stable order.
    pub const ALL: [ReductionKind; 3] = [
        ReductionKind::Array,
        ReductionKind::Wallace,
        ReductionKind::Dadda,
    ];
}

impl fmt::Display for ReductionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReductionKind::Array => "array",
            ReductionKind::Wallace => "wallace",
            ReductionKind::Dadda => "dadda",
        };
        f.write_str(s)
    }
}

/// A multiplier netlist together with its operand width.
///
/// Input ports are named `a0..a{n-1}`, `b0..b{n-1}` (LSB first) and
/// output ports `p0..p{2n-1}`.
///
/// ```
/// use carma_multiplier::exact::{MultiplierCircuit, ReductionKind};
///
/// let m = MultiplierCircuit::generate(4, ReductionKind::Wallace);
/// assert_eq!(m.width(), 4);
/// assert_eq!(m.multiply_via_netlist(7, 9), 63);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiplierCircuit {
    netlist: Netlist,
    width: u32,
}

impl MultiplierCircuit {
    /// Generates an exact unsigned `width`×`width` multiplier with the
    /// given reduction schedule.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 16 (exhaustive error
    /// analysis and LUT compilation assume ≤ 32 output bits; 16 covers
    /// every DNN datatype the paper uses).
    pub fn generate(width: u32, kind: ReductionKind) -> Self {
        assert!(
            (1..=16).contains(&width),
            "width must be in 1..=16, got {width}"
        );
        let n = width as usize;
        let mut nl = Netlist::new(format!("mul{width}x{width}_{kind}"));

        let a: Vec<NodeId> = (0..n).map(|i| nl.input(format!("a{i}"))).collect();
        let b: Vec<NodeId> = (0..n).map(|j| nl.input(format!("b{j}"))).collect();

        // Partial-product matrix: columns[k] holds all bits of weight k.
        let mut columns: Vec<Vec<NodeId>> = vec![Vec::new(); 2 * n];
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                let pp = nl.binary(BinOp::And, ai, bj);
                columns[i + j].push(pp);
            }
        }

        reduce_columns(&mut nl, &mut columns, kind);

        // Final ripple-carry adder over the ≤2-high columns.
        let product = ripple_final_adder(&mut nl, &columns);
        for (k, bit) in product.into_iter().enumerate() {
            nl.output(format!("p{k}"), bit);
        }

        debug_assert!(nl.validate().is_ok());
        MultiplierCircuit { netlist: nl, width }
    }

    /// Wraps an existing netlist as a multiplier of the given width.
    ///
    /// Used by the approximation flow, which transforms the netlist of
    /// an exact multiplier. The port convention must match
    /// [`MultiplierCircuit::generate`].
    ///
    /// # Panics
    ///
    /// Panics if the netlist's port counts don't match `width` (2·n
    /// inputs, 2·n outputs).
    pub fn from_netlist(netlist: Netlist, width: u32) -> Self {
        let n = width as usize;
        assert_eq!(netlist.input_count(), 2 * n, "expected {} inputs", 2 * n);
        assert_eq!(netlist.output_count(), 2 * n, "expected {} outputs", 2 * n);
        MultiplierCircuit { netlist, width }
    }

    /// Operand width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Mutable access to the underlying netlist (for pruning).
    pub fn netlist_mut(&mut self) -> &mut Netlist {
        &mut self.netlist
    }

    /// Transistor count of the circuit.
    pub fn transistor_count(&self) -> u64 {
        self.netlist.transistor_count()
    }

    /// Silicon area at `node`.
    pub fn area(&self, node: TechNode) -> Area {
        self.netlist.area(node)
    }

    /// Multiplies two operands by actually simulating the netlist.
    ///
    /// This is the ground-truth semantics of the circuit (exact or
    /// approximate); [`crate::LutMultiplier`] caches it. It runs the
    /// scalar [`Netlist::eval_bits`] reference, not the compiled
    /// simulator the table is built with.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in [`Self::width`] bits.
    pub fn multiply_via_netlist(&self, a: u32, b: u32) -> u64 {
        let n = self.width;
        assert!(a < (1 << n) && b < (1 << n), "operands must fit {n} bits");
        let operand_bits = |x: u32| (0..n).map(move |bit| (x >> bit) & 1 == 1);
        let inputs: Vec<bool> = operand_bits(a).chain(operand_bits(b)).collect();
        self.netlist
            .eval_bits(&inputs)
            .iter()
            .enumerate()
            .fold(0, |p, (k, &bit)| p | u64::from(bit) << k)
    }
}

impl fmt::Display for MultiplierCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.netlist)
    }
}

/// Adds a half adder; returns `(sum, carry)`.
fn half_adder(nl: &mut Netlist, x: NodeId, y: NodeId) -> (NodeId, NodeId) {
    let sum = nl.binary(BinOp::Xor, x, y);
    let carry = nl.binary(BinOp::And, x, y);
    (sum, carry)
}

/// Adds a full adder; returns `(sum, carry)`.
fn full_adder(nl: &mut Netlist, x: NodeId, y: NodeId, z: NodeId) -> (NodeId, NodeId) {
    let xy = nl.binary(BinOp::Xor, x, y);
    let sum = nl.binary(BinOp::Xor, xy, z);
    let t1 = nl.binary(BinOp::And, xy, z);
    let t2 = nl.binary(BinOp::And, x, y);
    let carry = nl.binary(BinOp::Or, t1, t2);
    (sum, carry)
}

/// Dispatches to the reduction schedule named by `kind` (shared by
/// [`MultiplierCircuit::generate`] and the classic-family generators in
/// [`crate::families`]).
pub(crate) fn reduce_columns(nl: &mut Netlist, columns: &mut [Vec<NodeId>], kind: ReductionKind) {
    match kind {
        ReductionKind::Array => reduce_sequential(nl, columns),
        ReductionKind::Wallace => reduce_wallace(nl, columns),
        ReductionKind::Dadda => reduce_dadda(nl, columns),
    }
}

/// Sequential (array-style) reduction: compress columns one at a time,
/// rippling carries upward immediately.
fn reduce_sequential(nl: &mut Netlist, columns: &mut [Vec<NodeId>]) {
    for k in 0..columns.len() {
        while columns[k].len() > 2 {
            if columns[k].len() >= 3 {
                let z = columns[k].remove(0);
                let y = columns[k].remove(0);
                let x = columns[k].remove(0);
                let (sum, carry) = full_adder(nl, x, y, z);
                columns[k].insert(0, sum);
                if k + 1 < columns.len() {
                    columns[k + 1].push(carry);
                }
            }
        }
    }
}

/// Wallace reduction: per stage, compress every column with as many
/// 3:2 (full adder) and 2:2 (half adder) compressors as possible.
fn reduce_wallace(nl: &mut Netlist, columns: &mut [Vec<NodeId>]) {
    loop {
        let max_height = columns.iter().map(Vec::len).max().unwrap_or(0);
        if max_height <= 2 {
            return;
        }
        let mut next: Vec<Vec<NodeId>> = vec![Vec::new(); columns.len()];
        for k in 0..columns.len() {
            let bits = std::mem::take(&mut columns[k]);
            let mut iter = bits.into_iter().peekable();
            while let Some(x) = iter.next() {
                match (iter.next(), iter.peek().copied()) {
                    (Some(y), Some(_)) => {
                        let z = iter.next().expect("peeked");
                        let (sum, carry) = full_adder(nl, x, y, z);
                        next[k].push(sum);
                        if k + 1 < next.len() {
                            next[k + 1].push(carry);
                        }
                    }
                    (Some(y), None) => {
                        let (sum, carry) = half_adder(nl, x, y);
                        next[k].push(sum);
                        if k + 1 < next.len() {
                            next[k + 1].push(carry);
                        }
                    }
                    (None, _) => {
                        next[k].push(x);
                    }
                }
            }
        }
        for (k, col) in next.into_iter().enumerate() {
            columns[k] = col;
        }
    }
}

/// Dadda reduction: stage heights d₁ = 2, dⱼ₊₁ = ⌊1.5·dⱼ⌋; at each
/// stage compress columns only as much as needed to reach the target
/// height, using the minimum number of adders.
fn reduce_dadda(nl: &mut Netlist, columns: &mut [Vec<NodeId>]) {
    // Build the descending sequence of target heights < current max.
    let max_height = columns.iter().map(Vec::len).max().unwrap_or(0);
    let mut heights = vec![2usize];
    while *heights.last().unwrap() < max_height {
        let next = heights.last().unwrap() * 3 / 2;
        heights.push(next);
    }
    heights.pop(); // the last one ≥ max_height is not a target
    for &target in heights.iter().rev() {
        for k in 0..columns.len() {
            // Account for carries already pushed into column k by the
            // compression of column k-1 in this same stage.
            while columns[k].len() > target {
                let over = columns[k].len() - target;
                if over >= 2 {
                    let x = columns[k].remove(0);
                    let y = columns[k].remove(0);
                    let z = columns[k].remove(0);
                    let (sum, carry) = full_adder(nl, x, y, z);
                    columns[k].push(sum);
                    if k + 1 < columns.len() {
                        columns[k + 1].push(carry);
                    }
                } else {
                    let x = columns[k].remove(0);
                    let y = columns[k].remove(0);
                    let (sum, carry) = half_adder(nl, x, y);
                    columns[k].push(sum);
                    if k + 1 < columns.len() {
                        columns[k + 1].push(carry);
                    }
                }
            }
        }
    }
}

/// Final ripple-carry addition over columns of height ≤ 2; returns one
/// product bit per column.
pub(crate) fn ripple_final_adder(nl: &mut Netlist, columns: &[Vec<NodeId>]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(columns.len());
    let mut carry: Option<NodeId> = None;
    for col in columns {
        debug_assert!(col.len() <= 2, "column too high for final adder");
        let mut bits: Vec<NodeId> = col.clone();
        if let Some(c) = carry.take() {
            bits.push(c);
        }
        match bits.len() {
            0 => out.push(nl.constant(false)),
            1 => out.push(bits[0]),
            2 => {
                let (sum, c) = half_adder(nl, bits[0], bits[1]);
                out.push(sum);
                carry = Some(c);
            }
            _ => {
                let (sum, c) = full_adder(nl, bits[0], bits[1], bits[2]);
                out.push(sum);
                carry = Some(c);
            }
        }
    }
    // A carry out of the top column is provably constant-0 for exact
    // multipliers (the product fits in 2n bits) and is deliberately
    // dropped for approximate ones (fixed output width).
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn all_kinds_are_exact_for_4_bits() {
        for kind in ReductionKind::ALL {
            let m = MultiplierCircuit::generate(4, kind);
            m.netlist().validate().unwrap();
            for a in 0u32..16 {
                for b in 0u32..16 {
                    assert_eq!(
                        m.multiply_via_netlist(a, b),
                        u64::from(a * b),
                        "{kind}: {a}×{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn dadda_uses_no_more_transistors_than_wallace() {
        let w = MultiplierCircuit::generate(8, ReductionKind::Wallace);
        let d = MultiplierCircuit::generate(8, ReductionKind::Dadda);
        assert!(
            d.transistor_count() <= w.transistor_count(),
            "dadda {} > wallace {}",
            d.transistor_count(),
            w.transistor_count()
        );
    }

    #[test]
    fn wallace_is_shallower_than_array() {
        let a = MultiplierCircuit::generate(8, ReductionKind::Array);
        let w = MultiplierCircuit::generate(8, ReductionKind::Wallace);
        assert!(
            w.netlist().stats().depth < a.netlist().stats().depth,
            "wallace depth {} !< array depth {}",
            w.netlist().stats().depth,
            a.netlist().stats().depth
        );
    }

    #[test]
    fn port_naming_convention() {
        let m = MultiplierCircuit::generate(4, ReductionKind::Dadda);
        let outs: Vec<&str> = m
            .netlist()
            .output_ports()
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(outs, vec!["p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"]);
        assert_eq!(m.netlist().input_count(), 8);
    }

    #[test]
    fn width_one_multiplier_is_an_and_gate() {
        let m = MultiplierCircuit::generate(1, ReductionKind::Array);
        assert_eq!(m.multiply_via_netlist(1, 1), 1);
        assert_eq!(m.multiply_via_netlist(1, 0), 0);
        // One AND for the partial product; output p1 is const 0.
        assert!(m.netlist().gate_count() <= 2);
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=16")]
    fn zero_width_rejected() {
        let _ = MultiplierCircuit::generate(0, ReductionKind::Array);
    }

    #[test]
    #[should_panic(expected = "operands must fit")]
    fn oversized_operand_rejected() {
        let m = MultiplierCircuit::generate(4, ReductionKind::Array);
        let _ = m.multiply_via_netlist(16, 1);
    }

    #[test]
    fn from_netlist_checks_ports() {
        let m = MultiplierCircuit::generate(4, ReductionKind::Dadda);
        let nl = m.netlist().clone();
        let back = MultiplierCircuit::from_netlist(nl, 4);
        assert_eq!(back.multiply_via_netlist(5, 5), 25);
    }

    #[test]
    fn display_mentions_kind() {
        let m = MultiplierCircuit::generate(8, ReductionKind::Dadda);
        assert!(m.to_string().contains("dadda"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn eight_bit_multipliers_are_exact(a in 0u32..256, b in 0u32..256) {
            for kind in ReductionKind::ALL {
                let m = mul8(kind);
                prop_assert_eq!(m.multiply_via_netlist(a, b), u64::from(a * b));
            }
        }

        #[test]
        fn twelve_bit_dadda_is_exact(a in 0u32..4096, b in 0u32..4096) {
            let m = mul12();
            prop_assert_eq!(m.multiply_via_netlist(a, b), u64::from(a) * u64::from(b));
        }
    }

    // Cache generated circuits across proptest cases.
    fn mul8(kind: ReductionKind) -> &'static MultiplierCircuit {
        use std::sync::OnceLock;
        static CACHE: OnceLock<Vec<MultiplierCircuit>> = OnceLock::new();
        let all = CACHE.get_or_init(|| {
            ReductionKind::ALL
                .iter()
                .map(|&k| MultiplierCircuit::generate(8, k))
                .collect()
        });
        let idx = ReductionKind::ALL.iter().position(|&k| k == kind).unwrap();
        &all[idx]
    }

    fn mul12() -> &'static MultiplierCircuit {
        use std::sync::OnceLock;
        static CACHE: OnceLock<MultiplierCircuit> = OnceLock::new();
        CACHE.get_or_init(|| MultiplierCircuit::generate(12, ReductionKind::Dadda))
    }
}
