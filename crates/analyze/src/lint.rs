//! Structural lint pass over a [`Netlist`].
//!
//! Produces typed, machine-readable [`Diagnostic`]s plus per-output
//! depth/fanout statistics. Severity is profile-dependent: the same
//! structural fact (a dead gate, a floating input) is routine in a
//! recipe-derived approximate multiplier — truncation *creates*
//! floating inputs by design — but a red flag in an imported design.

use std::collections::HashMap;
use std::fmt;

use carma_netlist::{Netlist, NodeId, SweepReason};

use crate::canon::CanonTable;

/// Diagnostic severity, ordered `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: an observation, never a defect.
    Info,
    /// Suspicious but tolerated; worth a look.
    Warning,
    /// A defect. `carma lint` exits non-zero when any is present.
    Error,
}

impl Severity {
    /// Lower-case label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Stable machine-readable lint codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintCode {
    /// `Netlist::validate` failed; structural analysis is meaningless.
    Invalid,
    /// A gate `Netlist::sweep` would remove (unreachable, forwarding,
    /// or constant-folded). Agrees exactly with `sweep`'s removal set.
    DeadGate,
    /// A declared primary input no output cone depends on.
    FloatingInput,
    /// A live gate whose cone canonicalizes to a constant — `sweep`
    /// keeps it (e.g. `x XOR x`), but it computes nothing.
    ConstFold,
    /// A live gate structurally equivalent to an earlier live gate — a
    /// common-subexpression-elimination opportunity.
    DuplicateGate,
    /// Port naming/width/ordering violates the multiplier convention
    /// (`a0..`, `b0..` inputs; `p0..p{2n-1}` outputs, LSB first).
    PortConvention,
}

impl LintCode {
    /// Stable kebab-case code string used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            LintCode::Invalid => "invalid",
            LintCode::DeadGate => "dead-gate",
            LintCode::FloatingInput => "floating-input",
            LintCode::ConstFold => "const-fold",
            LintCode::DuplicateGate => "duplicate-gate",
            LintCode::PortConvention => "port-convention",
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How much the linted netlist is trusted, which sets per-code
/// severities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintProfile {
    /// Recipe-derived circuits from our own generators: dead gates and
    /// floating inputs are expected by-products of truncation/pruning,
    /// so they warn instead of erroring.
    #[default]
    Trusted,
    /// Imported or otherwise unknown designs: anything structurally
    /// wasteful is treated as an error so it is triaged before any
    /// characterization time is spent.
    Strict,
}

impl LintProfile {
    /// The severity this profile assigns to a lint code.
    pub fn severity(self, code: LintCode) -> Severity {
        match (self, code) {
            (_, LintCode::Invalid | LintCode::PortConvention) => Severity::Error,
            (LintProfile::Trusted, LintCode::DeadGate | LintCode::FloatingInput) => {
                Severity::Warning
            }
            (LintProfile::Trusted, LintCode::ConstFold | LintCode::DuplicateGate) => Severity::Info,
            (LintProfile::Strict, LintCode::DeadGate | LintCode::FloatingInput) => Severity::Error,
            (LintProfile::Strict, LintCode::ConstFold | LintCode::DuplicateGate) => {
                Severity::Warning
            }
        }
    }
}

/// Options for [`lint`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LintOptions {
    /// Trust level of the design under analysis.
    pub profile: LintProfile,
    /// When set, enforce the n-bit multiplier port convention
    /// (`a0..a{n-1}`, `b0..b{n-1}` inputs; `p0..p{2n-1}` outputs in
    /// LSB-first declaration order).
    pub multiplier_width: Option<u32>,
}

/// One finding of the lint pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Machine-readable code.
    pub code: LintCode,
    /// Severity under the profile the lint ran with.
    pub severity: Severity,
    /// The node the finding anchors to, when it concerns one node.
    pub node: Option<NodeId>,
    /// The port the finding anchors to, when it concerns a port.
    pub port: Option<String>,
    /// Human-readable explanation.
    pub message: String,
}

/// Result of [`lint`]: diagnostics plus the logic depth.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings, in deterministic (pass, then node) order.
    pub diagnostics: Vec<Diagnostic>,
    /// Longest input→output path in gate levels (0 when validation
    /// failed).
    pub depth: usize,
}

impl LintReport {
    /// Number of diagnostics at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether any error-severity finding is present.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// The most severe finding, if any.
    pub fn worst(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }
}

/// Runs the structural lint pass.
///
/// The pass is fully static — no vector is ever simulated — and
/// deterministic: diagnostics come out in (pass, node-id) order
/// regardless of thread count or hash-map iteration order.
pub fn lint(nl: &Netlist, opts: &LintOptions) -> LintReport {
    let mut report = LintReport::default();

    if let Err(e) = nl.validate() {
        report.diagnostics.push(Diagnostic {
            code: LintCode::Invalid,
            severity: opts.profile.severity(LintCode::Invalid),
            node: None,
            port: None,
            message: format!("validate failed: {e}"),
        });
        // Structure is unsound; every later pass assumes validity.
        return report;
    }

    // Dead gates + floating inputs, straight from the sweep engine so
    // the lint agrees with `sweep()` by construction.
    let sweep = nl.sweep_analysis();
    let mut removed: HashMap<NodeId, SweepReason> = HashMap::new();
    for (id, reason) in &sweep.removed {
        removed.insert(*id, *reason);
        report.diagnostics.push(Diagnostic {
            code: LintCode::DeadGate,
            severity: opts.profile.severity(LintCode::DeadGate),
            node: Some(*id),
            port: None,
            message: format!("gate {id} is removable: {reason}"),
        });
    }
    for id in &sweep.dead_inputs {
        let name = match nl.node(*id) {
            Some(carma_netlist::Node::Input { name }) => name.clone(),
            _ => id.to_string(),
        };
        report.diagnostics.push(Diagnostic {
            code: LintCode::FloatingInput,
            severity: opts.profile.severity(LintCode::FloatingInput),
            node: Some(*id),
            port: Some(name.clone()),
            message: format!("input `{name}` is floating: no output cone depends on it"),
        });
    }

    // Canonical-table passes over the *live* gates only: dead gates
    // are already reported above, and double-reporting them as
    // const-foldable or duplicated would be noise.
    let mut table = CanonTable::new();
    let ids = table.add_netlist(nl);
    let mut first_seen: HashMap<crate::canon::CanonId, NodeId> = HashMap::new();
    for (idx, node) in nl.nodes().iter().enumerate() {
        let id = NodeId::from_index(idx);
        if !node.is_gate() || removed.contains_key(&id) {
            continue;
        }
        let canon = ids[idx];
        if let Some(value) = table.as_const(canon) {
            report.diagnostics.push(Diagnostic {
                code: LintCode::ConstFold,
                severity: opts.profile.severity(LintCode::ConstFold),
                node: Some(id),
                port: None,
                message: format!(
                    "gate {id} always computes {} (constant-foldable cone sweep keeps)",
                    u8::from(value)
                ),
            });
            continue;
        }
        match first_seen.get(&canon) {
            None => {
                first_seen.insert(canon, id);
            }
            Some(original) => {
                report.diagnostics.push(Diagnostic {
                    code: LintCode::DuplicateGate,
                    severity: opts.profile.severity(LintCode::DuplicateGate),
                    node: Some(id),
                    port: None,
                    message: format!("gate {id} duplicates gate {original} (CSE opportunity)"),
                });
            }
        }
    }

    if let Some(width) = opts.multiplier_width {
        check_multiplier_ports(nl, width, opts.profile, &mut report.diagnostics);
    }

    report.depth = logic_depth(nl);
    report
}

/// Enforces the multiplier port convention: `width` bits per operand,
/// inputs named `a0..a{w-1}` then `b0..b{w-1}`, outputs named
/// `p0..p{2w-1}` in LSB-first declaration order.
fn check_multiplier_ports(
    nl: &Netlist,
    width: u32,
    profile: LintProfile,
    out: &mut Vec<Diagnostic>,
) {
    let severity = profile.severity(LintCode::PortConvention);
    let mut push = |port: String, message: String| {
        out.push(Diagnostic {
            code: LintCode::PortConvention,
            severity,
            node: None,
            port: Some(port),
            message,
        });
    };

    let w = width as usize;
    let input_names: Vec<&str> = nl
        .input_ids()
        .iter()
        .filter_map(|id| match nl.node(*id) {
            Some(carma_netlist::Node::Input { name }) => Some(name.as_str()),
            _ => None,
        })
        .collect();
    if input_names.len() != 2 * w {
        push(
            String::new(),
            format!(
                "expected {} inputs for a {width}-bit multiplier, found {}",
                2 * w,
                input_names.len()
            ),
        );
    } else {
        for (k, name) in input_names.iter().enumerate() {
            let expect = if k < w {
                format!("a{k}")
            } else {
                format!("b{}", k - w)
            };
            if *name != expect {
                push(
                    (*name).to_string(),
                    format!("input {k} is named `{name}`, expected `{expect}`"),
                );
            }
        }
    }

    let outputs = nl.output_ports();
    if outputs.len() != 2 * w {
        push(
            String::new(),
            format!(
                "expected {} outputs for a {width}-bit multiplier, found {}",
                2 * w,
                outputs.len()
            ),
        );
    } else {
        for (k, (name, _)) in outputs.iter().enumerate() {
            let expect = format!("p{k}");
            if *name != expect {
                push(
                    name.clone(),
                    format!("output {k} is named `{name}`, expected `{expect}` (LSB first)"),
                );
            }
        }
    }
}

/// Longest input→output path in gate levels.
fn logic_depth(nl: &Netlist) -> usize {
    let nodes = nl.nodes();
    let mut depth = vec![0usize; nodes.len()];
    for (idx, n) in nodes.iter().enumerate() {
        depth[idx] = n
            .operands()
            .map(|o| depth[o.index()])
            .max()
            .map_or(0, |m| m + usize::from(n.is_gate()));
    }
    nl.output_ports()
        .iter()
        .map(|(_, root)| depth[root.index()])
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use carma_netlist::BinOp;

    fn clean_and() -> Netlist {
        let mut n = Netlist::new("clean");
        let a = n.input("a");
        let b = n.input("b");
        let g = n.binary(BinOp::And, a, b);
        n.output("o", g);
        n
    }

    fn codes(report: &LintReport) -> Vec<LintCode> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_netlist_has_no_diagnostics() {
        let report = lint(&clean_and(), &LintOptions::default());
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert_eq!(report.worst(), None);
        assert_eq!(report.depth, 1);
    }

    #[test]
    fn invalid_netlist_short_circuits() {
        let mut n = Netlist::new("invalid");
        n.input("a");
        let report = lint(&n, &LintOptions::default());
        assert_eq!(codes(&report), vec![LintCode::Invalid]);
        assert!(report.has_errors());
    }

    #[test]
    fn dead_gate_matches_sweep_removal_set() {
        let mut n = Netlist::new("dead");
        let a = n.input("a");
        let b = n.input("b");
        let live = n.binary(BinOp::And, a, b);
        let _dead = n.binary(BinOp::Xor, a, b);
        n.output("o", live);
        let report = lint(&n, &LintOptions::default());
        let dead: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == LintCode::DeadGate)
            .map(|d| d.node.unwrap())
            .collect();
        let removed: Vec<_> = n
            .sweep_analysis()
            .removed
            .iter()
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(dead, removed);
        assert_eq!(dead.len(), 1);
    }

    #[test]
    fn floating_input_reported_with_port_name() {
        let mut n = Netlist::new("float");
        let a = n.input("a");
        n.input("loose");
        n.output("o", a);
        let report = lint(&n, &LintOptions::default());
        let d = &report.diagnostics[0];
        assert_eq!(d.code, LintCode::FloatingInput);
        assert_eq!(d.port.as_deref(), Some("loose"));
        assert_eq!(d.severity, Severity::Warning);
    }

    #[test]
    fn const_fold_found_where_sweep_gives_up() {
        let mut n = Netlist::new("xx");
        let a = n.input("a");
        let g = n.binary(BinOp::Xor, a, a); // sweep keeps this gate
        n.output("o", g);
        assert_eq!(n.sweep().gate_count(), 1);
        let report = lint(&n, &LintOptions::default());
        assert_eq!(codes(&report), vec![LintCode::ConstFold]);
    }

    #[test]
    fn duplicate_gates_detected_across_op_spellings() {
        let mut n = Netlist::new("dup");
        let a = n.input("a");
        let b = n.input("b");
        let g1 = n.binary(BinOp::And, a, b);
        let g2 = n.binary(BinOp::And, b, a); // commuted duplicate
        let g3 = n.binary(BinOp::Or, g1, g2); // or(x, x): also collapses to g1
        n.output("o", g3);
        n.output("o2", g2);
        let report = lint(&n, &LintOptions::default());
        let dups: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == LintCode::DuplicateGate)
            .map(|d| d.node.unwrap())
            .collect();
        assert_eq!(dups, vec![g2, g3]);
    }

    #[test]
    fn strict_profile_promotes_dead_and_floating_to_errors() {
        let mut n = Netlist::new("strict");
        let a = n.input("a");
        n.input("loose");
        let live = n.unary(carma_netlist::UnOp::Not, a);
        let _dead = n.binary(BinOp::Or, a, a);
        n.output("o", live);
        let trusted = lint(&n, &LintOptions::default());
        assert_eq!(trusted.worst(), Some(Severity::Warning));
        let strict = lint(
            &n,
            &LintOptions {
                profile: LintProfile::Strict,
                multiplier_width: None,
            },
        );
        assert!(strict.has_errors());
        assert_eq!(strict.count(Severity::Error), 2);
    }

    #[test]
    fn port_convention_checks_names_and_counts() {
        let mut n = Netlist::new("mul1");
        let a0 = n.input("a0");
        let b0 = n.input("b0");
        let p0 = n.binary(BinOp::And, a0, b0);
        n.output("p0", p0);
        let c0 = n.constant(false);
        n.output("p1", c0);
        let ok = lint(
            &n,
            &LintOptions {
                profile: LintProfile::Trusted,
                multiplier_width: Some(1),
            },
        );
        assert!(
            !ok.diagnostics
                .iter()
                .any(|d| d.code == LintCode::PortConvention),
            "{:?}",
            ok.diagnostics
        );
        // Wrong width: 1-bit circuit checked as 2-bit.
        let bad = lint(
            &n,
            &LintOptions {
                profile: LintProfile::Trusted,
                multiplier_width: Some(2),
            },
        );
        assert!(bad.has_errors());
        assert!(bad
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::PortConvention));
    }

    #[test]
    fn output_stats_cover_every_port() {
        // The depth is the deepest cone over every output port, not the
        // first port's; a dead chain deeper than every cone adds nothing.
        let mut n = clean_and();
        let (a, b) = (n.input_ids()[0], n.input_ids()[1]);
        let or = n.binary(BinOp::Or, a, b);
        let xor = n.binary(BinOp::Xor, or, a);
        n.output("o2", xor);
        let mut dead = xor;
        for _ in 0..3 {
            dead = n.binary(BinOp::And, dead, b);
        }
        let report = lint(&n, &LintOptions::default());
        assert_eq!(report.depth, 2);
    }
}
