//! Bit-parallel netlist simulation.
//!
//! [`LaneSim`] evaluates a combinational netlist on 64 independent
//! input vectors at once, one vector per bit lane of a `u64`.
//! [`LaneSim::sweep`] enumerates input assignments in index order, 64
//! per netlist pass: an exhaustive sweep of an 8×8 multiplier (65 536
//! vectors) costs 1 024 passes, which makes exact error metrics cheap
//! enough to sit inside a genetic-algorithm inner loop.

use std::ops::Range;

use crate::gate::Node;
use crate::netlist::Netlist;

/// Number of input vectors evaluated per [`LaneSim::eval`] call.
pub const WORD_LANES: usize = 64;

/// Input words of the six lowest assignment bits in a [`LaneSim::sweep`]
/// word: lane `k` of `LANE_MASKS[i]` is bit `i` of `k`.
const LANE_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A reusable lane simulator bound to one netlist.
///
/// The simulator borrows the netlist; [`eval_into`](Self::eval_into)
/// and [`sweep`](Self::sweep) reuse one scratch buffer across netlist
/// passes.
///
/// # Example
///
/// ```
/// use carma_netlist::{Netlist, BinOp, LaneSim};
///
/// let mut n = Netlist::new("and2");
/// let a = n.input("a");
/// let b = n.input("b");
/// let g = n.binary(BinOp::And, a, b);
/// n.output("o", g);
///
/// let sim = LaneSim::new(&n);
/// // Lane k of each word is an independent evaluation.
/// let out = sim.eval(&[0b1100, 0b1010]);
/// assert_eq!(out[0] & 0xF, 0b1000);
/// ```
#[derive(Debug)]
pub struct LaneSim<'a> {
    netlist: &'a Netlist,
}

impl<'a> LaneSim<'a> {
    /// Creates a simulator for `netlist`.
    pub fn new(netlist: &'a Netlist) -> Self {
        LaneSim { netlist }
    }

    /// The netlist this simulator evaluates.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Evaluates 64 input vectors at once.
    ///
    /// `inputs[i]` carries the value of primary input `i` across all 64
    /// lanes. Returns one word per primary output, in output
    /// declaration order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the netlist's input count.
    pub fn eval(&self, inputs: &[u64]) -> Vec<u64> {
        let mut scratch = vec![0u64; self.netlist.nodes().len()];
        self.eval_into(inputs, &mut scratch)
    }

    /// Like [`eval`](Self::eval) but reuses a caller-provided scratch
    /// buffer (resized as needed) to avoid per-call allocation.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the netlist's input count.
    pub fn eval_into(&self, inputs: &[u64], scratch: &mut Vec<u64>) -> Vec<u64> {
        let n = self.netlist;
        assert_eq!(
            inputs.len(),
            n.input_count(),
            "expected {} input words, got {}",
            n.input_count(),
            inputs.len()
        );
        scratch.clear();
        scratch.resize(n.nodes().len(), 0);
        let mut next_input = 0usize;
        for (idx, node) in n.nodes().iter().enumerate() {
            scratch[idx] = match node {
                Node::Input { .. } => {
                    let w = inputs[next_input];
                    next_input += 1;
                    w
                }
                Node::Const { value } => {
                    if *value {
                        u64::MAX
                    } else {
                        0
                    }
                }
                Node::Unary { op, a } => op.apply(scratch[a.index()]),
                Node::Binary { op, a, b } => op.apply(scratch[a.index()], scratch[b.index()]),
            };
        }
        n.output_ports()
            .iter()
            .map(|(_, id)| scratch[id.index()])
            .collect()
    }

    /// Evaluates the input assignments in `range` in index order, 64
    /// per word, where assignment `x` drives primary input `i` with
    /// bit `i` of `x`. Calls `f(first, outputs)` once per word: lane
    /// `k` of `outputs` is the netlist's response to assignment
    /// `first + k`. Lanes of a final partial word past `range.end`
    /// carry no meaning.
    ///
    /// The input words need no packing: the six lowest inputs are
    /// fixed lane masks, and every higher input is a broadcast of that
    /// bit of `first`.
    ///
    /// # Panics
    ///
    /// Panics if `range.start` is not a multiple of 64, or if
    /// `range.end` exceeds the `2^inputs` assignments.
    pub fn sweep(&self, range: Range<u64>, mut f: impl FnMut(u64, &[u64])) {
        let inputs = self.netlist.input_count();
        assert!(
            range.start.is_multiple_of(WORD_LANES as u64),
            "sweep start {} is not a multiple of {WORD_LANES}",
            range.start
        );
        assert!(
            1u64.checked_shl(inputs as u32)
                .is_none_or(|count| range.end <= count),
            "sweep end {} exceeds the 2^{inputs} input assignments",
            range.end
        );
        let mut words: Vec<u64> = (0..inputs)
            .map(|i| LANE_MASKS.get(i).copied().unwrap_or(0))
            .collect();
        let mut scratch = Vec::new();
        for first in range.step_by(WORD_LANES) {
            for (i, w) in words.iter_mut().enumerate().skip(LANE_MASKS.len()) {
                *w = 0u64.wrapping_sub(first.checked_shr(i as u32).unwrap_or(0) & 1);
            }
            f(first, &self.eval_into(&words, &mut scratch));
        }
    }
}

/// Packs `values[k]`'s bit `bit` into lane `k` of a word, for feeding
/// integer operands into a lane simulation.
///
/// # Example
///
/// ```
/// // Lane 0 gets value 3 (bit 0 = 1), lane 1 gets value 2 (bit 0 = 0).
/// let w = carma_netlist::sim::pack_bit(&[3, 2], 0);
/// assert_eq!(w & 0b11, 0b01);
/// ```
pub fn pack_bit(values: &[u64], bit: u32) -> u64 {
    debug_assert!(values.len() <= WORD_LANES);
    let mut w = 0u64;
    for (lane, &v) in values.iter().enumerate() {
        w |= ((v >> bit) & 1) << lane;
    }
    w
}

/// Extracts lane `lane` of each output word and reassembles them into
/// an integer, treating `words[i]` as bit `i`.
///
/// # Example
///
/// ```
/// // Output bits 0b10 in lane 3.
/// let words = [0b0000_0000, 0b0000_1000];
/// assert_eq!(carma_netlist::sim::unpack_lane(&words, 3), 2);
/// ```
pub fn unpack_lane(words: &[u64], lane: usize) -> u64 {
    debug_assert!(lane < WORD_LANES);
    let mut v = 0u64;
    for (bit, &w) in words.iter().enumerate() {
        v |= ((w >> lane) & 1) << bit;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::BinOp;

    fn xor_chain(depth: usize) -> Netlist {
        let mut n = Netlist::new("xorchain");
        let a = n.input("a");
        let b = n.input("b");
        let mut cur = n.binary(BinOp::Xor, a, b);
        for _ in 1..depth {
            cur = n.binary(BinOp::Xor, cur, b);
        }
        n.output("o", cur);
        n
    }

    #[test]
    fn lanes_are_independent() {
        let n = xor_chain(1);
        let sim = LaneSim::new(&n);
        // 64 random-ish lanes.
        let a = 0xDEAD_BEEF_CAFE_F00Du64;
        let b = 0x0123_4567_89AB_CDEFu64;
        let out = sim.eval(&[a, b]);
        assert_eq!(out[0], a ^ b);
    }

    #[test]
    fn const_nodes_broadcast() {
        let mut n = Netlist::new("c");
        let a = n.input("a");
        let one = n.constant(true);
        let g = n.binary(BinOp::And, a, one);
        n.output("o", g);
        let sim = LaneSim::new(&n);
        let out = sim.eval(&[0xFF00]);
        assert_eq!(out[0], 0xFF00);
    }

    #[test]
    fn eval_into_reuses_scratch() {
        let n = xor_chain(4);
        let sim = LaneSim::new(&n);
        let mut scratch = Vec::new();
        let o1 = sim.eval_into(&[1, 1], &mut scratch);
        let o2 = sim.eval_into(&[1, 0], &mut scratch);
        // depth 4: a ^ b ^ b ^ b ^ b = a.
        assert_eq!(o1[0] & 1, 1);
        assert_eq!(o2[0] & 1, 1);
    }

    #[test]
    #[should_panic(expected = "expected 2 input words")]
    fn wrong_input_count_panics() {
        let n = xor_chain(1);
        LaneSim::new(&n).eval(&[0]);
    }

    /// `inputs` primary inputs wired straight to as many outputs.
    fn identity(inputs: usize) -> Netlist {
        let mut n = Netlist::new("identity");
        for i in 0..inputs {
            let x = n.input(format!("x{i}"));
            n.output(format!("y{i}"), x);
        }
        n
    }

    #[test]
    fn sweep_lanes_read_back_their_assignment_index() {
        let n = identity(10);
        let mut firsts = Vec::new();
        LaneSim::new(&n).sweep(192..640, |first, out| {
            for k in 0..WORD_LANES {
                assert_eq!(unpack_lane(out, k), first + k as u64, "first {first}");
            }
            firsts.push(first);
        });
        assert_eq!(firsts, (192..640).step_by(WORD_LANES).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_of_two_inputs_is_one_partial_word() {
        let n = xor_chain(1);
        let mut words = Vec::new();
        LaneSim::new(&n).sweep(0..4, |first, out| words.push((first, out[0] & 0xF)));
        // Assignments 0..4 drive (a, b) = (0,0), (1,0), (0,1), (1,1).
        assert_eq!(words, vec![(0, 0b0110)]);
    }

    #[test]
    #[should_panic(expected = "is not a multiple of 64")]
    fn sweep_start_off_a_word_boundary_panics() {
        let n = identity(8);
        LaneSim::new(&n).sweep(32..256, |_, _| {});
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let values: Vec<u64> = (0..WORD_LANES as u64).map(|i| i * 37 % 256).collect();
        let words: Vec<u64> = (0..8).map(|bit| pack_bit(&values, bit)).collect();
        for (lane, &v) in values.iter().enumerate() {
            assert_eq!(unpack_lane(&words, lane), v & 0xFF);
        }
    }
}
