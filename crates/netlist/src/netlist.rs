//! The [`Netlist`] container: construction, validation, rewrites and
//! structural statistics.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::area::Area;
use crate::gate::{BinOp, Node, NodeId, UnOp};
use crate::tech::TechNode;

/// Errors produced while validating or rewriting a [`Netlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A node references an operand with an id ≥ its own id (forward
    /// reference) or beyond the node table.
    ForwardReference {
        /// The offending node.
        node: NodeId,
        /// The referenced operand.
        operand: NodeId,
    },
    /// Two primary inputs share the same name.
    DuplicateInput {
        /// The duplicated port name.
        name: String,
    },
    /// Two primary outputs share the same name.
    DuplicateOutput {
        /// The duplicated port name.
        name: String,
    },
    /// An output refers to a node id beyond the node table.
    DanglingOutput {
        /// The output port name.
        name: String,
        /// The dangling node id.
        node: NodeId,
    },
    /// The netlist declares no outputs, so it computes nothing.
    NoOutputs,
    /// A rewrite targeted a node id that does not exist.
    UnknownNode {
        /// The missing node id.
        node: NodeId,
    },
    /// A rewrite attempted to change a primary input.
    CannotRewriteInput {
        /// The targeted input node.
        node: NodeId,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::ForwardReference { node, operand } => {
                write!(f, "node {node} references non-prior node {operand}")
            }
            NetlistError::DuplicateInput { name } => {
                write!(f, "duplicate input name `{name}`")
            }
            NetlistError::DuplicateOutput { name } => {
                write!(f, "duplicate output name `{name}`")
            }
            NetlistError::DanglingOutput { name, node } => {
                write!(f, "output `{name}` references missing node {node}")
            }
            NetlistError::NoOutputs => write!(f, "netlist declares no outputs"),
            NetlistError::UnknownNode { node } => {
                write!(f, "node {node} does not exist")
            }
            NetlistError::CannotRewriteInput { node } => {
                write!(f, "primary input {node} cannot be rewritten")
            }
        }
    }
}

impl Error for NetlistError {}

/// Structural statistics of a netlist, as reported by
/// [`Netlist::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetlistStats {
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of logic gates (unary + binary).
    pub gates: usize,
    /// Number of constant nodes.
    pub constants: usize,
    /// Total static-CMOS transistor count.
    pub transistors: u64,
    /// Longest input→output path measured in gate levels.
    pub depth: usize,
}

/// A combinational gate-level netlist.
///
/// Nodes are held in topological order by construction: every factory
/// method ([`input`], [`constant`], [`unary`], [`binary`]) appends a
/// node that may only reference earlier nodes, so evaluation is a
/// single forward pass.
///
/// The rewrite methods ([`rewrite_to_const`], [`rewrite_to_buf`])
/// implement the *gate pruning* primitive of the paper: a gate is
/// replaced in place (preserving ids for all other nodes) by a constant
/// or by a feed-through of one of its former operands. Combined with
/// [`sweep`], this reduces transistor count — and therefore area and
/// embodied carbon — at the cost of functional error.
///
/// [`input`]: Netlist::input
/// [`constant`]: Netlist::constant
/// [`unary`]: Netlist::unary
/// [`binary`]: Netlist::binary
/// [`rewrite_to_const`]: Netlist::rewrite_to_const
/// [`rewrite_to_buf`]: Netlist::rewrite_to_buf
/// [`sweep`]: Netlist::sweep
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<(String, NodeId)>,
}

impl Netlist {
    /// Creates an empty netlist with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The netlist name (used in reports and generated libraries).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the netlist.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Appends a primary input and returns its id.
    pub fn input(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.push(Node::Input { name: name.into() });
        self.inputs.push(id);
        id
    }

    /// Appends a constant node and returns its id.
    pub fn constant(&mut self, value: bool) -> NodeId {
        self.push(Node::Const { value })
    }

    /// Appends a unary gate and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not an id of an already-appended node; this is
    /// a construction-time programming error, not a data error.
    pub fn unary(&mut self, op: UnOp, a: NodeId) -> NodeId {
        assert!(
            a.index() < self.nodes.len(),
            "operand {a} must precede the new node"
        );
        self.push(Node::Unary { op, a })
    }

    /// Appends a binary gate and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is not an id of an already-appended node.
    pub fn binary(&mut self, op: BinOp, a: NodeId, b: NodeId) -> NodeId {
        assert!(
            a.index() < self.nodes.len() && b.index() < self.nodes.len(),
            "operands {a}, {b} must precede the new node"
        );
        self.push(Node::Binary { op, a, b })
    }

    /// Declares `node` as the primary output named `name`.
    pub fn output(&mut self, name: impl Into<String>, node: NodeId) {
        self.outputs.push((name.into(), node));
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Looks up a node by id.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index())
    }

    /// Ids of the primary inputs, in declaration order.
    pub fn input_ids(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary outputs as `(name, node)` pairs, in declaration order.
    pub fn output_ports(&self) -> &[(String, NodeId)] {
        &self.outputs
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Number of logic gates (excludes inputs and constants).
    pub fn gate_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_gate()).count()
    }

    /// Total static-CMOS transistor count.
    ///
    /// Each call walks every node, so a hot loop reads a count stored
    /// once instead of calling this per iteration.
    pub fn transistor_count(&self) -> u64 {
        self.nodes.iter().map(|n| u64::from(n.transistors())).sum()
    }

    /// Silicon area of the netlist at `node` (see [`Area`]).
    pub fn area(&self, node: TechNode) -> Area {
        Area::from_transistors(self.transistor_count(), node)
    }

    /// Checks the structural invariants of the netlist.
    ///
    /// # Errors
    ///
    /// Returns the first violation found: forward/dangling references,
    /// duplicate port names, or a missing output list. A netlist built
    /// exclusively through the factory methods can only fail on port
    /// naming or on a missing output declaration.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let mut seen_inputs: HashMap<&str, ()> = HashMap::new();
        for (idx, n) in self.nodes.iter().enumerate() {
            for op in n.operands() {
                if op.index() >= idx {
                    return Err(NetlistError::ForwardReference {
                        node: NodeId(idx as u32),
                        operand: op,
                    });
                }
            }
            if let Node::Input { name } = n {
                if seen_inputs.insert(name.as_str(), ()).is_some() {
                    return Err(NetlistError::DuplicateInput { name: name.clone() });
                }
            }
        }
        if self.outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }
        let mut seen_outputs: HashMap<&str, ()> = HashMap::new();
        for (name, node) in &self.outputs {
            if node.index() >= self.nodes.len() {
                return Err(NetlistError::DanglingOutput {
                    name: name.clone(),
                    node: *node,
                });
            }
            if seen_outputs.insert(name.as_str(), ()).is_some() {
                return Err(NetlistError::DuplicateOutput { name: name.clone() });
            }
        }
        Ok(())
    }

    /// Replaces the gate at `target` with a constant driver.
    ///
    /// This is the `const` flavour of the paper's gate-pruning
    /// transform. Ids of all other nodes are preserved so approximation
    /// genomes remain stable across rewrites.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNode`] if `target` is out of
    /// range and [`NetlistError::CannotRewriteInput`] if it names a
    /// primary input.
    pub fn rewrite_to_const(&mut self, target: NodeId, value: bool) -> Result<(), NetlistError> {
        match self.nodes.get(target.index()) {
            None => Err(NetlistError::UnknownNode { node: target }),
            Some(Node::Input { .. }) => Err(NetlistError::CannotRewriteInput { node: target }),
            Some(_) => {
                self.nodes[target.index()] = Node::Const { value };
                Ok(())
            }
        }
    }

    /// Replaces the gate at `target` with a buffer of its `which`-th
    /// operand (0 or 1) — the feed-through flavour of gate pruning.
    ///
    /// If the gate is unary, `which` is ignored. If the target is a
    /// constant it is left unchanged (a constant has no operands), which
    /// keeps genome application total.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNode`] if `target` is out of
    /// range and [`NetlistError::CannotRewriteInput`] if it names a
    /// primary input.
    pub fn rewrite_to_buf(&mut self, target: NodeId, which: usize) -> Result<(), NetlistError> {
        let node = self
            .nodes
            .get(target.index())
            .ok_or(NetlistError::UnknownNode { node: target })?;
        let replacement = match node {
            Node::Input { .. } => {
                return Err(NetlistError::CannotRewriteInput { node: target });
            }
            Node::Const { .. } => return Ok(()),
            Node::Unary { a, .. } => Node::Unary {
                op: UnOp::Buf,
                a: *a,
            },
            Node::Binary { a, b, .. } => {
                let src = if which.is_multiple_of(2) { *a } else { *b };
                Node::Unary {
                    op: UnOp::Buf,
                    a: src,
                }
            }
        };
        self.nodes[target.index()] = replacement;
        Ok(())
    }

    /// Dead-gate sweep: rebuilds the netlist keeping only the cone of
    /// logic reachable from the outputs, folding constants and
    /// collapsing buffers.
    ///
    /// Returns the swept netlist; `self` is left untouched so callers
    /// can diff transistor counts before/after. Primary inputs are
    /// always retained (even if dead) so the port interface — and thus
    /// LUT indexing — is stable.
    pub fn sweep(&self) -> Netlist {
        let vals = self.canonical_vals();
        let live = self.liveness(&vals);

        // Rebuild. Inputs always survive.
        let mut out = Netlist::new(self.name.clone());
        let mut remap: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut const_cache: HashMap<bool, NodeId> = HashMap::new();
        for (idx, n) in self.nodes.iter().enumerate() {
            let id = NodeId(idx as u32);
            if let Node::Input { name } = n {
                let new = out.input(name.clone());
                remap[idx] = Some(new);
                continue;
            }
            if !live[idx] {
                continue;
            }
            // Materialize through the canonical value of each operand.
            let mut resolve_operand = |src: NodeId, out: &mut Netlist| -> NodeId {
                match vals[src.index()] {
                    Val::Const(c) => *const_cache.entry(c).or_insert_with(|| out.constant(c)),
                    Val::Ref(r) => remap[r.index()].expect("live operand must be remapped"),
                }
            };
            let new = match n {
                Node::Input { .. } => unreachable!("inputs handled above"),
                Node::Const { .. } => continue, // consts materialized on demand
                Node::Unary { op, a } => {
                    let a = resolve_operand(*a, &mut out);
                    out.unary(*op, a)
                }
                Node::Binary { op, a, b } => {
                    let a = resolve_operand(*a, &mut out);
                    let b = resolve_operand(*b, &mut out);
                    out.binary(*op, a, b)
                }
            };
            remap[id.index()] = Some(new);
        }
        for (name, node) in &self.outputs {
            let target = match vals[node.index()] {
                Val::Const(c) => *const_cache.entry(c).or_insert_with(|| out.constant(c)),
                Val::Ref(r) => remap[r.index()].expect("live output must be remapped"),
            };
            out.output(name.clone(), target);
        }
        out
    }

    /// Forward pass shared by [`sweep`] and [`sweep_analysis`]: per
    /// node, either a known constant or a canonical live source
    /// (buffer chains and one-const identities collapse to the node
    /// they forward).
    ///
    /// [`sweep`]: Netlist::sweep
    /// [`sweep_analysis`]: Netlist::sweep_analysis
    fn canonical_vals(&self) -> Vec<Val> {
        let mut vals: Vec<Val> = Vec::with_capacity(self.nodes.len());
        for (idx, n) in self.nodes.iter().enumerate() {
            let v = match n {
                Node::Input { .. } => Val::Ref(NodeId(idx as u32)),
                Node::Const { value } => Val::Const(*value),
                Node::Unary { op, a } => match (op, vals[a.index()]) {
                    (UnOp::Buf, v) => v,
                    (UnOp::Not, Val::Const(c)) => Val::Const(!c),
                    (UnOp::Not, Val::Ref(_)) => Val::Ref(NodeId(idx as u32)),
                },
                Node::Binary { op, a, b } => {
                    let va = vals[a.index()];
                    let vb = vals[b.index()];
                    match (va, vb) {
                        (Val::Const(x), Val::Const(y)) => {
                            Val::Const(op.apply(x as u64, y as u64) & 1 == 1)
                        }
                        _ => match Self::fold_one_const(*op, va, vb) {
                            Some(v) => v,
                            None => Val::Ref(NodeId(idx as u32)),
                        },
                    }
                }
            };
            vals.push(v);
        }
        vals
    }

    /// Marks liveness from outputs through canonicalized refs. A node
    /// is live iff it survives [`sweep`] as the canonical driver of
    /// some output cone; forwarding/folded gates are never live.
    ///
    /// [`sweep`]: Netlist::sweep
    fn liveness(&self, vals: &[Val]) -> Vec<bool> {
        let resolve = |id: NodeId| -> Val { vals[id.index()] };
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = Vec::new();
        for (_, out) in &self.outputs {
            if let Val::Ref(r) = resolve(*out) {
                stack.push(r);
            }
        }
        while let Some(id) = stack.pop() {
            if live[id.index()] {
                continue;
            }
            live[id.index()] = true;
            for op in self.nodes[id.index()].operands() {
                if let Val::Ref(r) = resolve(op) {
                    stack.push(r);
                }
            }
        }
        live
    }

    /// Explains what [`sweep`] would remove, without rebuilding.
    ///
    /// Runs the same forward-canonicalization and liveness passes as
    /// [`sweep`] (the two share their implementation, so agreement is
    /// by construction) and reports, instead of a rebuilt netlist:
    ///
    /// - every gate `sweep` would drop, with a [`SweepReason`]
    ///   (`removed.len() == self.gate_count() - self.sweep().gate_count()`);
    /// - every primary input no output cone depends on (`sweep` keeps
    ///   such inputs to preserve the port interface, but they are
    ///   floating: no output ever observes them).
    ///
    /// A gate that is both constant-foldable and unreachable reports
    /// [`SweepReason::ConstantFold`]; reachability is only reported
    /// when no fold applies.
    ///
    /// [`sweep`]: Netlist::sweep
    pub fn sweep_analysis(&self) -> SweepAnalysis {
        let vals = self.canonical_vals();
        let live = self.liveness(&vals);
        let mut removed = Vec::new();
        let mut dead_inputs = Vec::new();
        for (idx, n) in self.nodes.iter().enumerate() {
            let id = NodeId(idx as u32);
            match n {
                Node::Input { .. } => {
                    if !live[idx] {
                        dead_inputs.push(id);
                    }
                }
                // Constants are not gates; sweep re-materializes the
                // ones still referenced on demand.
                Node::Const { .. } => {}
                Node::Unary { .. } | Node::Binary { .. } => {
                    if !live[idx] {
                        let reason = match vals[idx] {
                            Val::Const(c) => SweepReason::ConstantFold(c),
                            Val::Ref(r) if r != id => SweepReason::ForwardsTo(r),
                            Val::Ref(_) => SweepReason::Unreachable,
                        };
                        removed.push((id, reason));
                    }
                }
            }
        }
        SweepAnalysis {
            removed,
            dead_inputs,
        }
    }

    /// `x OP const` simplifications that keep the result either a
    /// constant or a direct reference. Inverting forms that would need
    /// a NOT gate are not simplified and fall back to keeping the gate.
    fn fold_one_const(op: BinOp, va: Val, vb: Val) -> Option<Val> {
        let (c, r) = match (va, vb) {
            (Val::Const(c), Val::Ref(r)) | (Val::Ref(r), Val::Const(c)) => (c, r),
            _ => return None,
        };
        match (op, c) {
            (BinOp::And, false) => Some(Val::Const(false)),
            (BinOp::And, true) => Some(Val::Ref(r)),
            (BinOp::Or, true) => Some(Val::Const(true)),
            (BinOp::Or, false) => Some(Val::Ref(r)),
            (BinOp::Xor, false) => Some(Val::Ref(r)),
            (BinOp::Nand, false) => Some(Val::Const(true)),
            (BinOp::Nor, true) => Some(Val::Const(false)),
            _ => None,
        }
    }

    /// Computes structural statistics (gate count, transistors, depth).
    pub fn stats(&self) -> NetlistStats {
        let mut depth = vec![0usize; self.nodes.len()];
        let mut max_depth = 0usize;
        for (idx, n) in self.nodes.iter().enumerate() {
            let d = n
                .operands()
                .map(|o| depth[o.index()])
                .max()
                .map_or(0, |m| m + usize::from(n.is_gate()));
            depth[idx] = d;
            max_depth = max_depth.max(d);
        }
        NetlistStats {
            inputs: self.inputs.len(),
            outputs: self.outputs.len(),
            gates: self.gate_count(),
            constants: self
                .nodes
                .iter()
                .filter(|n| matches!(n, Node::Const { .. }))
                .count(),
            transistors: self.transistor_count(),
            depth: max_depth,
        }
    }

    /// Ids of all prunable gates (unary + binary logic nodes), in
    /// topological order. This is the genome domain for the
    /// approximation search.
    pub fn gate_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_gate())
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Evaluates the netlist on a single boolean input assignment,
    /// returning output values in declaration order.
    ///
    /// A scalar interpreter that walks the node list one gate at a
    /// time, independent of the compiled [`crate::LaneSim`] tape: it is
    /// the reference the tape is tested against. For sweeps use
    /// [`crate::LaneSim`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`Self::input_count`].
    pub fn eval_bits(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(
            inputs.len(),
            self.inputs.len(),
            "expected {} inputs, got {}",
            self.inputs.len(),
            inputs.len()
        );
        let mut next_input = inputs.iter();
        let mut values: Vec<bool> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let value = match node {
                Node::Input { .. } => *next_input.next().expect("one value per input"),
                Node::Const { value } => *value,
                Node::Unary { op, a } => op.apply(u64::from(values[a.index()])) & 1 == 1,
                Node::Binary { op, a, b } => {
                    let (a, b) = (values[a.index()], values[b.index()]);
                    op.apply(u64::from(a), u64::from(b)) & 1 == 1
                }
            };
            values.push(value);
        }
        self.outputs
            .iter()
            .map(|(_, id)| values[id.index()])
            .collect()
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(
            f,
            "{}: {} inputs, {} outputs, {} gates, {} transistors, depth {}",
            self.name, s.inputs, s.outputs, s.gates, s.transistors, s.depth
        )
    }
}

/// Canonical value of a node during [`Netlist::sweep`]: either a known
/// constant or a reference to the live node that produces it.
#[derive(Debug, Clone, Copy)]
enum Val {
    Const(bool),
    Ref(NodeId),
}

/// Why [`Netlist::sweep`] removes a gate, as reported by
/// [`Netlist::sweep_analysis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepReason {
    /// The gate computes this compile-time constant on every input.
    ConstantFold(bool),
    /// The gate forwards the referenced node's value unchanged (buffer
    /// chain or a one-const identity such as `x AND 1`).
    ForwardsTo(NodeId),
    /// No primary-output cone depends on the gate.
    Unreachable,
}

impl fmt::Display for SweepReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepReason::ConstantFold(v) => write!(f, "folds to constant {}", u8::from(*v)),
            SweepReason::ForwardsTo(id) => write!(f, "forwards node {id}"),
            SweepReason::Unreachable => write!(f, "unreachable from outputs"),
        }
    }
}

/// Static description of what [`Netlist::sweep`] would remove, from
/// [`Netlist::sweep_analysis`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SweepAnalysis {
    /// Gates `sweep` would drop, in topological order, each with the
    /// reason it is removable.
    pub removed: Vec<(NodeId, SweepReason)>,
    /// Primary inputs no output cone depends on. `sweep` retains them
    /// (the port interface is stable) but they are functionally
    /// floating.
    pub dead_inputs: Vec<NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder() -> Netlist {
        let mut n = Netlist::new("fa");
        let a = n.input("a");
        let b = n.input("b");
        let cin = n.input("cin");
        let axb = n.binary(BinOp::Xor, a, b);
        let sum = n.binary(BinOp::Xor, axb, cin);
        let t1 = n.binary(BinOp::And, axb, cin);
        let t2 = n.binary(BinOp::And, a, b);
        let cout = n.binary(BinOp::Or, t1, t2);
        n.output("sum", sum);
        n.output("cout", cout);
        n
    }

    #[test]
    fn full_adder_truth_table() {
        let n = full_adder();
        n.validate().unwrap();
        for v in 0u8..8 {
            let a = v & 1 != 0;
            let b = v & 2 != 0;
            let c = v & 4 != 0;
            let out = n.eval_bits(&[a, b, c]);
            let expect = u8::from(a) + u8::from(b) + u8::from(c);
            assert_eq!(out[0], expect & 1 == 1, "sum for v={v}");
            assert_eq!(out[1], expect >= 2, "cout for v={v}");
        }
    }

    #[test]
    fn stats_of_full_adder() {
        let s = full_adder().stats();
        assert_eq!(s.inputs, 3);
        assert_eq!(s.outputs, 2);
        assert_eq!(s.gates, 5);
        // 2 XOR (10) + 2 AND (6) + 1 OR (6) = 38.
        assert_eq!(s.transistors, 38);
        assert_eq!(s.depth, 3);
    }

    #[test]
    fn validate_rejects_duplicate_inputs() {
        let mut n = Netlist::new("dup");
        n.input("a");
        let b = n.input("a");
        n.output("o", b);
        assert_eq!(
            n.validate(),
            Err(NetlistError::DuplicateInput {
                name: "a".to_string()
            })
        );
    }

    #[test]
    fn validate_rejects_duplicate_outputs() {
        let mut n = Netlist::new("dup");
        let a = n.input("a");
        n.output("o", a);
        n.output("o", a);
        assert_eq!(
            n.validate(),
            Err(NetlistError::DuplicateOutput {
                name: "o".to_string()
            })
        );
    }

    #[test]
    fn validate_rejects_missing_outputs() {
        let mut n = Netlist::new("empty");
        n.input("a");
        assert_eq!(n.validate(), Err(NetlistError::NoOutputs));
    }

    #[test]
    fn validate_rejects_dangling_output() {
        let mut n = Netlist::new("dangling");
        let a = n.input("a");
        n.output("ok", a);
        n.output("bad", NodeId::from_index(99));
        assert!(matches!(
            n.validate(),
            Err(NetlistError::DanglingOutput { .. })
        ));
    }

    #[test]
    fn rewrite_to_const_changes_function() {
        let mut n = full_adder();
        // Force cout to 0 by pruning the OR gate.
        let or_id = n.gate_ids().last().copied().unwrap();
        n.rewrite_to_const(or_id, false).unwrap();
        let out = n.eval_bits(&[true, true, false]);
        assert!(!out[1], "pruned cout must be 0");
        // Sum is unaffected.
        assert!(!out[0]);
    }

    #[test]
    fn rewrite_input_is_rejected() {
        let mut n = full_adder();
        let input = n.input_ids()[0];
        assert_eq!(
            n.rewrite_to_const(input, true),
            Err(NetlistError::CannotRewriteInput { node: input })
        );
        assert_eq!(
            n.rewrite_to_buf(input, 0),
            Err(NetlistError::CannotRewriteInput { node: input })
        );
    }

    #[test]
    fn rewrite_unknown_node_is_rejected() {
        let mut n = full_adder();
        let bogus = NodeId::from_index(1000);
        assert_eq!(
            n.rewrite_to_const(bogus, true),
            Err(NetlistError::UnknownNode { node: bogus })
        );
    }

    #[test]
    fn rewrite_to_buf_feeds_through_operand() {
        let mut n = Netlist::new("buf");
        let a = n.input("a");
        let b = n.input("b");
        let g = n.binary(BinOp::And, a, b);
        n.output("o", g);
        n.rewrite_to_buf(g, 0).unwrap();
        assert_eq!(n.eval_bits(&[true, false]), vec![true]); // follows a
        n.rewrite_to_buf(g, 1).unwrap(); // now a buf; stays buf of a
        assert_eq!(n.eval_bits(&[true, false]), vec![true]);
    }

    #[test]
    fn sweep_removes_pruned_logic() {
        let mut n = full_adder();
        let before = n.transistor_count();
        let or_id = n.gate_ids().last().copied().unwrap();
        n.rewrite_to_const(or_id, false).unwrap();
        let swept = n.sweep();
        swept.validate().unwrap();
        assert!(
            swept.transistor_count() < before,
            "sweep after pruning must shrink: {} !< {}",
            swept.transistor_count(),
            before
        );
        // Function of the swept netlist matches the pruned one.
        for v in 0u8..8 {
            let bits = [v & 1 != 0, v & 2 != 0, v & 4 != 0];
            assert_eq!(n.eval_bits(&bits), swept.eval_bits(&bits), "v={v}");
        }
    }

    #[test]
    fn sweep_keeps_dead_inputs() {
        let mut n = Netlist::new("deadin");
        let _a = n.input("a");
        let b = n.input("b");
        n.output("o", b);
        let swept = n.sweep();
        assert_eq!(swept.input_count(), 2, "port interface must be stable");
        assert_eq!(swept.eval_bits(&[false, true]), vec![true]);
    }

    #[test]
    fn sweep_folds_constants() {
        let mut n = Netlist::new("fold");
        let a = n.input("a");
        let c1 = n.constant(true);
        let g = n.binary(BinOp::And, a, c1); // a AND 1 == a
        let g2 = n.binary(BinOp::Xor, g, g); // x XOR x stays a gate here
        n.output("o", g2);
        let swept = n.sweep();
        // `a AND 1` folds to a ref; XOR gate remains.
        assert!(swept.gate_count() <= 1);
        for a_val in [false, true] {
            assert_eq!(swept.eval_bits(&[a_val]), n.eval_bits(&[a_val]));
        }
    }

    #[test]
    fn sweep_handles_constant_output() {
        let mut n = Netlist::new("constout");
        let a = n.input("a");
        let c0 = n.constant(false);
        let g = n.binary(BinOp::And, a, c0); // always 0
        n.output("o", g);
        let swept = n.sweep();
        swept.validate().unwrap();
        assert_eq!(swept.gate_count(), 0);
        assert_eq!(swept.eval_bits(&[true]), vec![false]);
    }

    #[test]
    fn display_formats_summary() {
        let n = full_adder();
        let s = n.to_string();
        assert!(s.contains("fa"), "{s}");
        assert!(s.contains("5 gates"), "{s}");
    }

    #[test]
    fn validate_and_sweep_zero_gate_netlist() {
        let mut n = Netlist::new("wires");
        let a = n.input("a");
        let b = n.input("b");
        n.output("x", b);
        n.output("y", a);
        n.validate().unwrap();
        assert_eq!(n.gate_count(), 0);
        let swept = n.sweep();
        swept.validate().unwrap();
        assert_eq!(swept.input_count(), 2);
        assert_eq!(swept.gate_count(), 0);
        assert_eq!(swept.eval_bits(&[true, false]), vec![false, true]);
        assert_eq!(n.sweep_analysis(), SweepAnalysis::default());
    }

    #[test]
    fn validate_and_sweep_constant_only_outputs() {
        let mut n = Netlist::new("consts");
        let c0 = n.constant(false);
        let c1 = n.constant(true);
        n.output("zero", c0);
        n.output("one", c1);
        n.validate().unwrap();
        let swept = n.sweep();
        swept.validate().unwrap();
        assert_eq!(swept.gate_count(), 0);
        assert_eq!(swept.eval_bits(&[]), vec![false, true]);
        // Nothing to remove: constants are not gates.
        assert_eq!(n.sweep_analysis(), SweepAnalysis::default());
    }

    #[test]
    fn rewrite_to_buf_out_of_range_operand_index_uses_parity() {
        // `which` beyond 1 is reduced by parity: even picks operand a,
        // odd picks operand b. The rewrite stays total.
        for (which, expect_follows_a) in [(2usize, true), (7, false), (usize::MAX, false)] {
            let mut n = Netlist::new("buf");
            let a = n.input("a");
            let b = n.input("b");
            let g = n.binary(BinOp::And, a, b);
            n.output("o", g);
            n.rewrite_to_buf(g, which).unwrap();
            n.validate().unwrap();
            assert_eq!(
                n.eval_bits(&[true, false]),
                vec![expect_follows_a],
                "which={which}"
            );
        }
    }

    #[test]
    fn rewrite_to_buf_unknown_target_is_rejected() {
        let mut n = full_adder();
        let bogus = NodeId::from_index(1000);
        assert_eq!(
            n.rewrite_to_buf(bogus, 0),
            Err(NetlistError::UnknownNode { node: bogus })
        );
    }

    #[test]
    fn sweep_analysis_matches_sweep_removal_set() {
        let mut n = full_adder();
        let or_id = n.gate_ids().last().copied().unwrap();
        n.rewrite_to_const(or_id, false).unwrap();
        let analysis = n.sweep_analysis();
        let swept = n.sweep();
        assert_eq!(
            n.gate_count() - analysis.removed.len(),
            swept.gate_count(),
            "removal set must account exactly for sweep's shrinkage"
        );
        // The swept netlist is a fixpoint: nothing left to remove.
        assert_eq!(swept.sweep_analysis().removed, Vec::new());
    }

    #[test]
    fn sweep_analysis_classifies_reasons() {
        let mut n = Netlist::new("reasons");
        let a = n.input("a");
        let b = n.input("b");
        let c1 = n.constant(true);
        let fold = n.binary(BinOp::And, a, c1); // forwards a
        let dead = n.binary(BinOp::Xor, a, b); // unreachable
        let konst = n.binary(BinOp::Or, c1, a); // folds to 1
        let live = n.binary(BinOp::And, fold, a);
        n.output("o", live);
        n.output("k", konst);
        let analysis = n.sweep_analysis();
        assert_eq!(
            analysis.removed,
            vec![
                (fold, SweepReason::ForwardsTo(a)),
                (dead, SweepReason::Unreachable),
                (konst, SweepReason::ConstantFold(true)),
            ]
        );
        assert_eq!(analysis.dead_inputs, vec![b]);
    }

    #[test]
    fn sweep_analysis_reports_dead_inputs() {
        let mut n = Netlist::new("deadin");
        let a = n.input("a");
        let _unused = n.input("u");
        n.output("o", a);
        let analysis = n.sweep_analysis();
        assert_eq!(analysis.dead_inputs, vec![NodeId::from_index(1)]);
        assert!(analysis.removed.is_empty());
    }
}
