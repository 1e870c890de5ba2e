//! Cross-crate property tests: randomized invariants spanning the
//! whole stack (netlist → multiplier → area → carbon → design
//! evaluation).
//!
//! The `lane_sim_*` tests are the differential suite of the compiled
//! simulator: `LaneSim`'s tape, block sweep and transposed readback
//! against the scalar `Netlist::eval_bits` reference, on random
//! netlists and on every builtin, evolved and imported multiplier. The
//! `equivalence_*` tests pin `check_equivalence` to the same reference
//! on random netlist pairs. CI runs both at full strength with
//! `PROPTEST_CASES=512 cargo test --release --test property_suite -- lane_sim equivalence`.

use carma_carbon::CarbonModel;
use carma_core::{CarmaContext, DesignPoint};
use carma_dataflow::{Accelerator, AreaModel, PerfModel};
use carma_dnn::DnnModel;
use carma_ga::Nsga2Config;
use carma_multiplier::{
    ApproxGenome, ErrorProfile, LibraryConfig, LutMultiplier, Multiplier, MultiplierCircuit,
    MultiplierLibrary, Prune, PruneAction, ReductionKind,
};
use carma_netlist::equiv::{check_equivalence, Equivalence};
use carma_netlist::{BinOp, LaneSim, Netlist, Node, SweepReason, TechNode, UnOp};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::BTreeSet;
use std::ops::Range;
use std::path::Path;
use std::sync::OnceLock;

fn base4() -> &'static MultiplierCircuit {
    static M: OnceLock<MultiplierCircuit> = OnceLock::new();
    M.get_or_init(|| MultiplierCircuit::generate(4, ReductionKind::Dadda))
}

fn base8() -> &'static MultiplierCircuit {
    static M: OnceLock<MultiplierCircuit> = OnceLock::new();
    M.get_or_init(|| MultiplierCircuit::generate(8, ReductionKind::Dadda))
}

fn ctx7() -> &'static CarmaContext {
    static CTX: OnceLock<CarmaContext> = OnceLock::new();
    CTX.get_or_init(|| CarmaContext::reduced(TechNode::N7))
}

prop_compose! {
    /// An arbitrary approximation genome over the 4-bit base circuit.
    fn arb_genome4()(
        ta in 0u8..3,
        tb in 0u8..3,
        prunes in proptest::collection::vec((0u32..96, 0usize..4), 0..5),
    ) -> ApproxGenome {
        ApproxGenome {
            truncate_a: ta,
            truncate_b: tb,
            prunes: prunes
                .into_iter()
                .map(|(gate, action)| Prune {
                    gate,
                    action: PruneAction::ALL[action],
                })
                .collect(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any genome applied to the base circuit yields a structurally
    /// valid netlist no larger than the base, whose LUT agrees with
    /// netlist simulation everywhere.
    #[test]
    fn genome_application_is_safe_and_consistent(genome in arb_genome4()) {
        let approx = genome.apply(base4());
        prop_assert!(approx.netlist().validate().is_ok());
        prop_assert!(approx.transistor_count() <= base4().transistor_count());
        let lut = LutMultiplier::compile(&approx);
        for a in 0u32..16 {
            for b in 0u32..16 {
                prop_assert_eq!(lut.multiply(a, b), approx.multiply_via_netlist(a, b));
            }
        }
    }

    /// The swept circuit is functionally equivalent to itself after a
    /// second sweep (sweeping is idempotent up to function).
    #[test]
    fn sweep_is_functionally_idempotent(genome in arb_genome4()) {
        let approx = genome.apply(base4());
        let once = approx.netlist().clone();
        let twice = once.sweep();
        let verdict = check_equivalence(&once, &twice).unwrap();
        prop_assert_eq!(verdict, Equivalence::Equivalent);
    }

    /// Zero error profile ⇔ the circuit multiplies exactly.
    #[test]
    fn error_profile_zero_iff_exact(genome in arb_genome4()) {
        let approx = genome.apply(base4());
        let profile = ErrorProfile::exhaustive(&approx);
        let mut any_wrong = false;
        for a in 0u32..16 {
            for b in 0u32..16 {
                if approx.multiply_via_netlist(a, b) != u64::from(a * b) {
                    any_wrong = true;
                }
            }
        }
        prop_assert_eq!(profile.error_rate > 0.0, any_wrong);
        if !any_wrong {
            prop_assert_eq!(profile.med, 0.0);
            prop_assert_eq!(profile.wce, 0);
        }
    }

    /// Truncation-induced error statistics obey their definitional
    /// relations: |bias| ≤ MED, MED ≤ WCE, NMED ∈ [0, 1].
    #[test]
    fn error_metric_relations(ta in 0u8..5, tb in 0u8..5) {
        let approx = ApproxGenome::truncation(ta, tb).apply(base8());
        let p = ErrorProfile::exhaustive(&approx);
        prop_assert!(p.bias.abs() <= p.med + 1e-9);
        prop_assert!(p.med <= p.wce as f64 + 1e-9);
        prop_assert!((0.0..=1.0).contains(&p.nmed));
        prop_assert!(p.variance >= 0.0);
    }

    /// Design-point evaluation is internally consistent for random
    /// points: CDP = carbon × latency, FPS = 1/latency, and the die
    /// area prices into positive carbon.
    #[test]
    fn design_evaluation_invariants(
        w in 2u8..=6, h in 2u8..=6, rf in 0u8..4, gb in 0u8..7, m in 0u16..6,
    ) {
        let dp = DesignPoint {
            pe_width_log2: w,
            pe_height_log2: h,
            rf_code: rf,
            gb_code: gb,
            mult_idx: m,
        };
        let model = DnnModel::resnet50();
        let eval = ctx7().evaluate(&dp, &model);
        prop_assert!(eval.fps > 0.0);
        prop_assert!((eval.fps * eval.latency_s - 1.0).abs() < 1e-9);
        prop_assert!((eval.cdp - eval.embodied.as_grams() * eval.latency_s).abs() < 1e-9);
        prop_assert!(eval.embodied.as_grams() > 0.0);
        prop_assert!(eval.energy_j > 0.0);
    }

    /// The area→carbon chain is monotone for random accelerators: a
    /// strictly larger multiplier never yields less embodied carbon.
    #[test]
    fn carbon_chain_monotone_in_multiplier(
        macs_log2 in 6u32..=11,
        t1 in 1500u64..3000,
        extra in 1u64..1500,
    ) {
        let accel = Accelerator::nvdla_preset(1 << macs_log2, TechNode::N14);
        let carbon = CarbonModel::for_node(TechNode::N14);
        let small = carbon.embodied_carbon(AreaModel::new(t1).die_area(&accel));
        let large = carbon.embodied_carbon(AreaModel::new(t1 + extra).die_area(&accel));
        prop_assert!(large > small);
    }

    /// FPS is invariant to the multiplier choice but monotone in clock:
    /// the same architecture at a faster node runs faster.
    #[test]
    fn perf_node_ordering(macs_log2 in 6u32..=11) {
        let model = DnnModel::resnet50();
        let perf = PerfModel::new();
        let f7 = perf
            .evaluate(&Accelerator::nvdla_preset(1 << macs_log2, TechNode::N7), &model)
            .fps;
        let f28 = perf
            .evaluate(&Accelerator::nvdla_preset(1 << macs_log2, TechNode::N28), &model)
            .fps;
        prop_assert!(f7 > f28);
    }
}

/// `netlist`'s response to assignment `x` (input `i` driven by bit `i`)
/// from the scalar reference, with output `i` in bit `i`.
fn reference(netlist: &Netlist, x: u64) -> u64 {
    let bits: Vec<bool> = (0..netlist.input_count())
        .map(|i| (x >> i) & 1 == 1)
        .collect();
    netlist
        .eval_bits(&bits)
        .iter()
        .enumerate()
        .fold(0, |v, (i, &bit)| v | u64::from(bit) << i)
}

/// Sweeps `range` and compares every lane inside it with the scalar
/// reference; the words must arrive in order, one per 64 assignments.
fn check_sweep(netlist: &Netlist, range: Range<u64>) -> Result<(), String> {
    let mut firsts = Vec::new();
    let mut mismatch = None;
    LaneSim::new(netlist).sweep(range.clone(), |first, lanes| {
        firsts.push(first);
        for (x, &lane) in (first..range.end).zip(lanes) {
            let expected = reference(netlist, x);
            if lane != expected && mismatch.is_none() {
                mismatch = Some(format!(
                    "assignment {x}: sweep {lane:#x}, reference {expected:#x}"
                ));
            }
        }
    });
    let expected_firsts: Vec<u64> = range.step_by(64).collect();
    if firsts != expected_firsts {
        return Err(format!("words {firsts:?}, expected {expected_firsts:?}"));
    }
    mismatch.map_or(Ok(()), Err)
}

/// A netlist built from a random recipe. Each `program` step appends
/// one node, its operands picked modulo the nodes so far: kinds 0–5
/// are the `BinOp`s, 6 `Not`, 7 `Buf`, 8 an input (while fewer than
/// `inputs` exist, else constant 0), 9 constant 0 and 10 constant 1.
/// Inputs the program did not declare follow it, and each `outputs`
/// entry picks any node, so outputs may be inputs, constants or
/// gates, and gates no output reads are dead.
fn random_netlist(inputs: usize, program: &[(u8, u32, u32)], outputs: &[u32]) -> Netlist {
    let mut n = Netlist::new("random");
    let mut nodes = vec![n.input("x0")];
    for &(kind, a, b) in program {
        let a = nodes[a as usize % nodes.len()];
        let b = nodes[b as usize % nodes.len()];
        let node = match kind {
            0..=5 => n.binary(BinOp::ALL[usize::from(kind)], a, b),
            6 => n.unary(UnOp::Not, a),
            7 => n.unary(UnOp::Buf, a),
            8 if n.input_count() < inputs => n.input(format!("x{}", n.input_count())),
            8 | 9 => n.constant(false),
            _ => n.constant(true),
        };
        nodes.push(node);
    }
    while n.input_count() < inputs {
        nodes.push(n.input(format!("x{}", n.input_count())));
    }
    for (i, &o) in outputs.iter().enumerate() {
        n.output(format!("y{i}"), nodes[o as usize % nodes.len()]);
    }
    n
}

prop_compose! {
    /// A random netlist of 1–10 inputs and 1–20 outputs.
    fn arb_netlist()(
        inputs in 1usize..=10,
        program in proptest::collection::vec((0u8..11, 0u32..1024, 0u32..1024), 0..48),
        outputs in proptest::collection::vec(0u32..1024, 1..=20),
    ) -> Netlist {
        random_netlist(inputs, &program, &outputs)
    }
}

prop_compose! {
    /// Two netlists sharing one interface: an [`arb_netlist`] recipe,
    /// and the same recipe with one program step (or, for an empty
    /// program, one output pick) replaced, so the pair is sometimes
    /// equivalent and sometimes not.
    fn arb_netlist_pair()(
        inputs in 1usize..=10,
        program in proptest::collection::vec((0u8..11, 0u32..1024, 0u32..1024), 0..48),
        outputs in proptest::collection::vec(0u32..1024, 1..=20),
        at in 0usize..1024,
        step in (0u8..11, 0u32..1024, 0u32..1024),
    ) -> (Netlist, Netlist) {
        let (mut changed_program, mut changed_outputs) = (program.clone(), outputs.clone());
        if program.is_empty() {
            changed_outputs[at % outputs.len()] = step.1;
        } else {
            changed_program[at % program.len()] = step;
        }
        (
            random_netlist(inputs, &program, &outputs),
            random_netlist(inputs, &changed_program, &changed_outputs),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The tape agrees with the scalar reference on every assignment:
    /// a full sweep, a sweep over a random sub-range (which may start
    /// past word 0 and ends in a partial word), and `eval` on random
    /// input words.
    #[test]
    fn lane_sim_matches_reference_on_random_netlists(
        netlist in arb_netlist(),
        start_word in 0u64..16,
        len in 1u64..=1024,
        words in proptest::collection::vec(0u64..=u64::MAX, 10),
    ) {
        let total = 1u64 << netlist.input_count();
        check_sweep(&netlist, 0..total)?;
        let start = 64 * (start_word % total.div_ceil(64));
        check_sweep(&netlist, start..(start + len).min(total))?;

        let inputs = &words[..netlist.input_count()];
        let out = LaneSim::new(&netlist).eval(inputs);
        prop_assert_eq!(out.len(), netlist.output_count());
        for k in 0..64 {
            let x = inputs.iter().enumerate().fold(0, |x, (i, w)| x | ((w >> k) & 1) << i);
            let lane = out.iter().enumerate().fold(0, |v, (i, w)| v | ((w >> k) & 1) << i);
            let expected = reference(&netlist, x);
            prop_assert!(lane == expected, "eval lane {k}: {lane:#x}, reference {expected:#x}");
        }
    }

    /// `check_equivalence` proves equivalence exactly when the scalar
    /// reference agrees on all 2^n assignments, and otherwise returns
    /// the lowest assignment where the two disagree.
    #[test]
    fn equivalence_matches_scalar_reference(pair in arb_netlist_pair()) {
        let (left, right) = &pair;
        let inputs = left.input_count();
        let first_difference = (0..1u64 << inputs).find(|&x| reference(left, x) != reference(right, x));
        let expected = match first_difference {
            None => Equivalence::Equivalent,
            Some(x) => Equivalence::Mismatch {
                witness: (0..inputs).map(|i| (x >> i) & 1 == 1).collect(),
            },
        };
        prop_assert_eq!(check_equivalence(left, right).unwrap(), expected);
    }
}

/// The pair recipe reaches both verdicts.
#[test]
fn equivalence_pairs_reach_both_verdicts() {
    let mut rng = TestRng::for_test("equivalence_pairs_reach_both_verdicts");
    let verdicts: BTreeSet<bool> = (0..64)
        .map(|_| {
            let (left, right) = arb_netlist_pair().sample(&mut rng);
            check_equivalence(&left, &right).unwrap() == Equivalence::Equivalent
        })
        .collect();
    assert_eq!(verdicts, BTreeSet::from([false, true]));
}

/// The random-netlist recipe reaches every node kind and wiring the
/// differential suite is meant to cover.
#[test]
fn lane_sim_random_netlists_cover_every_node_kind() {
    let mut rng = TestRng::for_test("lane_sim_random_netlists_cover_every_node_kind");
    let mut seen = BTreeSet::new();
    for _ in 0..512 {
        let n = arb_netlist().sample(&mut rng);
        for node in n.nodes() {
            seen.insert(match node {
                Node::Input { .. } => "input".to_string(),
                Node::Const { value } => format!("const {}", u8::from(*value)),
                Node::Unary { op, .. } => op.to_string(),
                Node::Binary { op, .. } => op.to_string(),
            });
        }
        for (_, id) in n.output_ports() {
            match n.node(*id) {
                Some(Node::Input { .. }) => seen.insert("output = input".to_string()),
                Some(Node::Const { .. }) => seen.insert("output = const".to_string()),
                _ => false,
            };
        }
        let analysis = n.sweep_analysis();
        if analysis
            .removed
            .iter()
            .any(|(_, r)| *r == SweepReason::Unreachable)
        {
            seen.insert("dead gate".to_string());
        }
    }
    let expected = [
        "and",
        "or",
        "xor",
        "nand",
        "nor",
        "xnor",
        "not",
        "buf",
        "input",
        "const 0",
        "const 1",
        "dead gate",
        "output = input",
        "output = const",
    ];
    assert_eq!(seen, expected.map(String::from).into(), "features reached");
}

/// Every builtin, evolved and imported 8-bit and 4-bit multiplier:
/// `sweep`'s lane values equal the scalar reference on every 61st
/// operand pair and on the whole first and last word.
#[test]
fn lane_sim_matches_reference_on_multiplier_circuits() {
    let evolved = MultiplierLibrary::evolve(LibraryConfig {
        nsga: Nsga2Config::default()
            .with_population(16)
            .with_generations(6)
            .with_seed(0xFA31),
        ..LibraryConfig::default()
    });
    let mut circuits: Vec<Netlist> = [
        MultiplierLibrary::truncation_ladder(8, 4),
        MultiplierLibrary::classic_families(8, 4),
        evolved,
    ]
    .iter()
    .flat_map(|lib| lib.entries().iter().map(|e| e.circuit.netlist().clone()))
    .collect();
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/libraries");
    for file in ["approx8.v", "approx4.edf"] {
        let lib = carma_import::load_library(&fixtures.join(file)).expect("fixture is admitted");
        circuits.extend(lib.modules.into_iter().map(|m| m.netlist));
    }
    for netlist in &circuits {
        let total = 1u64 << netlist.input_count();
        LaneSim::new(netlist).sweep(0..total, |first, lanes| {
            let whole_word = first == 0 || first + 64 == total;
            for (x, &lane) in (first..).zip(lanes) {
                if whole_word || x % 61 == 0 {
                    assert_eq!(lane, reference(netlist, x), "{} at {x}", netlist.name());
                }
            }
        });
    }
}
