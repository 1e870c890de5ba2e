//! Compiled bit-parallel netlist simulation.
//!
//! [`LaneSim::new`] compiles a combinational netlist once into a flat
//! tape of gate ops over dense value slots. Each slot holds 64
//! independent input vectors, one per bit lane of a `u64`, and every
//! gate evaluates with the same branch-free expression, so running the
//! tape is a straight loop with no dispatch on node kind.
//!
//! [`LaneSim::sweep`] enumerates input assignments in index order and
//! runs the tape over a block of eight words (512 assignments) per
//! pass: an exhaustive sweep of an 8×8 multiplier (65 536 vectors)
//! costs 128 passes. It hands its callback each word's 64 lane values
//! with every output already in its bit position, so exact error
//! metrics and lookup tables read products, not output words.

use std::ops::Range;

use crate::gate::{BinOp, Node, UnOp};
use crate::netlist::Netlist;

/// Number of input vectors evaluated per [`LaneSim::eval`] call.
pub const WORD_LANES: usize = 64;

/// Words per tape pass in [`LaneSim::sweep`]. Eight words keep an
/// 8-bit multiplier's slots (about 350 × 64 bytes) inside the L1 data
/// cache while amortizing each op's decode over eight words.
const BLOCK_WORDS: usize = 8;

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

/// `[and, xor, inv]` masks per [`BinOp`], indexed by its discriminant.
/// Every tape op computes `(and & (a & b)) ^ (xor & (a ^ b)) ^ inv`:
/// OR is AND ^ XOR, and the inverted forms set `inv`.
const KIND_MASKS: [[u64; 3]; 6] = {
    const ON: u64 = u64::MAX;
    let mut masks = [[0; 3]; 6];
    masks[BinOp::And as usize] = [ON, 0, 0];
    masks[BinOp::Or as usize] = [ON, ON, 0];
    masks[BinOp::Xor as usize] = [0, ON, 0];
    masks[BinOp::Nand as usize] = [ON, 0, ON];
    masks[BinOp::Nor as usize] = [ON, ON, ON];
    masks[BinOp::Xnor as usize] = [0, ON, ON];
    masks
};

/// One compiled gate: its position on the tape is its output slot.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: BinOp,
    a: u32,
    b: u32,
}

/// A netlist compiled for 64-lane simulation.
///
/// Slots `0..n` hold the `n` primary inputs in declaration order, slot
/// `n` the constant 0 and slot `n + 1` the constant 1; tape op `i`
/// writes slot `n + 2 + i`. A buffer costs nothing (it aliases its
/// operand's slot) and an inverter compiles as `NAND(a, a)`.
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
#[derive(Debug, Clone)]
pub struct LaneSim {
    inputs: usize,
    tape: Vec<Op>,
    outputs: Vec<u32>,
}

impl LaneSim {
    /// Compiles `netlist` into a tape.
    pub fn new(netlist: &Netlist) -> Self {
        let inputs = netlist.input_count();
        let mut tape = Vec::new();
        let mut slots: Vec<u32> = Vec::with_capacity(netlist.nodes().len());
        let mut next_input = 0u32;
        for node in netlist.nodes() {
            let mut push = |kind, a: u32, b: u32| {
                tape.push(Op { kind, a, b });
                (inputs + 1 + tape.len()) as u32
            };
            let slot = match *node {
                Node::Input { .. } => {
                    next_input += 1;
                    next_input - 1
                }
                Node::Const { value } => (inputs + usize::from(value)) as u32,
                Node::Unary { op: UnOp::Buf, a } => slots[a.index()],
                Node::Unary { op: UnOp::Not, a } => {
                    push(BinOp::Nand, slots[a.index()], slots[a.index()])
                }
                Node::Binary { op, a, b } => push(op, slots[a.index()], slots[b.index()]),
            };
            slots.push(slot);
        }
        let outputs = netlist
            .output_ports()
            .iter()
            .map(|(_, id)| slots[id.index()])
            .collect();
        LaneSim {
            inputs,
            tape,
            outputs,
        }
    }

    /// Runs the tape over `W` words per slot, writing every gate slot.
    fn run<const W: usize>(&self, slots: &mut [[u64; W]]) {
        let base = self.inputs + 2;
        for (i, op) in self.tape.iter().enumerate() {
            let [and, xor, inv] = KIND_MASKS[op.kind as usize];
            let (a, b) = (slots[op.a as usize], slots[op.b as usize]);
            slots[base + i] =
                std::array::from_fn(|w| (and & (a[w] & b[w])) ^ (xor & (a[w] ^ b[w])) ^ inv);
        }
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
        self.eval_into(inputs, &mut Vec::new())
    }

    /// Like [`eval`](Self::eval) but reuses a caller-provided scratch
    /// buffer (resized as needed) to avoid per-call allocation.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the netlist's input count.
    pub fn eval_into(&self, inputs: &[u64], scratch: &mut Vec<u64>) -> Vec<u64> {
        assert_eq!(
            inputs.len(),
            self.inputs,
            "expected {} input words, got {}",
            self.inputs,
            inputs.len()
        );
        scratch.clear();
        scratch.extend_from_slice(inputs);
        scratch.extend([0, u64::MAX]);
        scratch.resize(self.inputs + 2 + self.tape.len(), 0);
        self.run::<1>(scratch.as_chunks_mut().0);
        self.outputs.iter().map(|&s| scratch[s as usize]).collect()
    }

    /// Evaluates the input assignments in `range` in index order, where
    /// assignment `x` drives primary input `i` with bit `i` of `x`.
    /// Calls `f(first, lanes)` once per 64-assignment word: `lanes[k]`
    /// is the netlist's response to assignment `first + k`, with output
    /// `i` in bit `i`. Lanes of a final partial word past `range.end`
    /// carry no meaning.
    ///
    /// The input words need no packing: the six lowest inputs are
    /// fixed lane masks, and every higher input is a broadcast of that
    /// bit of the word's first assignment.
    ///
    /// # Panics
    ///
    /// Panics if `range.start` is not a multiple of 64, if `range.end`
    /// exceeds the `2^inputs` assignments, or if the netlist has more
    /// than 64 outputs.
    pub fn sweep(&self, range: Range<u64>, mut f: impl FnMut(u64, &[u64; WORD_LANES])) {
        let inputs = self.inputs;
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
        assert!(
            self.outputs.len() <= WORD_LANES,
            "sweep reads at most {WORD_LANES} outputs per lane, got {}",
            self.outputs.len()
        );
        let mut slots = vec![[0; BLOCK_WORDS]; inputs + 2 + self.tape.len()];
        slots[inputs + 1] = [u64::MAX; BLOCK_WORDS];
        for (slot, &mask) in slots.iter_mut().zip(&LANE_MASKS).take(inputs) {
            *slot = [mask; BLOCK_WORDS];
        }
        let mut lanes = [0; WORD_LANES];
        for block in range.clone().step_by(BLOCK_WORDS * WORD_LANES) {
            let firsts: [u64; BLOCK_WORDS] =
                std::array::from_fn(|w| block.saturating_add((w * WORD_LANES) as u64));
            for (i, slot) in slots
                .iter_mut()
                .enumerate()
                .take(inputs)
                .skip(LANE_MASKS.len())
            {
                *slot = firsts
                    .map(|first| 0u64.wrapping_sub(first.checked_shr(i as u32).unwrap_or(0) & 1));
            }
            self.run(&mut slots);
            for (w, &first) in firsts.iter().enumerate() {
                if first >= range.end {
                    break;
                }
                self.read_lanes(&slots, w, &mut lanes);
                f(first, &lanes);
            }
        }
    }

    /// Transposes word `w` of the output slots into per-lane values,
    /// padding the outputs with zero rows to 16, 32 or 64 (a multiplier
    /// of width `n` has `2n` outputs).
    fn read_lanes<const W: usize>(
        &self,
        slots: &[[u64; W]],
        w: usize,
        lanes: &mut [u64; WORD_LANES],
    ) {
        let row = |i: usize| self.outputs.get(i).map_or(0, |&s| slots[s as usize][w]);
        match self.outputs.len() {
            0..=16 => transpose_lanes::<16>(std::array::from_fn(row), lanes),
            17..=32 => transpose_lanes::<32>(std::array::from_fn(row), lanes),
            _ => transpose_lanes::<64>(std::array::from_fn(row), lanes),
        }
    }
}

/// `SWAP_MASKS[l]` selects the low `2^l` bits of every `2^(l+1)`-bit
/// group of a word.
const SWAP_MASKS: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0F0F_0F0F_0F0F_0F0F,
    0x00FF_00FF_00FF_00FF,
    0x0000_FFFF_0000_FFFF,
    0x0000_0000_FFFF_FFFF,
];

/// Transposes `R` output words (`R` a power of two, at most 64) into
/// the 64 lane values: bit `i` of `lanes[k]` is bit `k` of `rows[i]`.
///
/// The 64 lanes split into `64 / R` chunks of `R` bit columns, and all
/// chunks transpose at once, in place, by the recursive block swap of
/// Hacker's Delight (`transpose32`): the level of width `s` swaps the
/// two off-diagonal `s × s` blocks of every `2s × 2s` block. Row `i`
/// then holds lane `R·c + i` in chunk `c`.
fn transpose_lanes<const R: usize>(mut rows: [u64; R], lanes: &mut [u64; WORD_LANES]) {
    for level in (0..R.trailing_zeros() as usize).rev() {
        let s = 1 << level;
        for i in (0..R).filter(|i| i & s == 0) {
            let t = ((rows[i] >> s) ^ rows[i + s]) & SWAP_MASKS[level];
            rows[i] ^= t << s;
            rows[i + s] ^= t;
        }
    }
    let keep = u64::MAX >> (WORD_LANES - R);
    for (k, lane) in lanes.iter_mut().enumerate() {
        *lane = (rows[k % R] >> (k - k % R)) & keep;
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

#[cfg(test)]
mod tests {
    use super::*;

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
        LaneSim::new(&n).sweep(192..640, |first, lanes| {
            for (k, &lane) in lanes.iter().enumerate() {
                assert_eq!(lane, first + k as u64, "first {first}");
            }
            firsts.push(first);
        });
        assert_eq!(firsts, (192..640).step_by(WORD_LANES).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_of_two_inputs_is_one_partial_word() {
        let n = xor_chain(1);
        let mut words = Vec::new();
        LaneSim::new(&n).sweep(0..4, |first, lanes| {
            words.push((first, lanes[..4].to_vec()));
        });
        // Assignments 0..4 drive (a, b) = (0,0), (1,0), (0,1), (1,1).
        assert_eq!(words, vec![(0, vec![0, 1, 1, 0])]);
    }

    #[test]
    #[should_panic(expected = "is not a multiple of 64")]
    fn sweep_start_off_a_word_boundary_panics() {
        let n = identity(8);
        LaneSim::new(&n).sweep(32..256, |_, _| {});
    }

    #[test]
    fn transpose_lanes_matches_a_bit_by_bit_readback() {
        fn check<const R: usize>(rows: &[u64; 64]) {
            let mut lanes = [0; WORD_LANES];
            transpose_lanes::<R>(std::array::from_fn(|i| rows[i]), &mut lanes);
            for (k, &lane) in lanes.iter().enumerate() {
                let expected = (0..R).fold(0, |v, i| v | ((rows[i] >> k) & 1) << i);
                assert_eq!(lane, expected, "{R} rows, lane {k}");
            }
        }
        let rows: [u64; 64] =
            std::array::from_fn(|i| (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        check::<16>(&rows);
        check::<32>(&rows);
        check::<64>(&rows);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let values: Vec<u64> = (0..WORD_LANES as u64).map(|i| i * 37 % 256).collect();
        let words: Vec<u64> = (0..8).map(|bit| pack_bit(&values, bit)).collect();
        for (lane, &v) in values.iter().enumerate() {
            let unpacked = (0..8).fold(0, |x, bit| x | ((words[bit] >> lane) & 1) << bit);
            assert_eq!(unpacked, v & 0xFF);
        }
    }
}
