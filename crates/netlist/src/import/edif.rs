//! EDIF 2.0.0 netlist interchange: an s-expression parser for a
//! structural subset, and the matching [`to_edif`] emitter.
//!
//! The accepted subset mirrors what EvoApprox-style library dumps and
//! this crate's own emitter produce:
//!
//! ```text
//! (edif LIB
//!   (edifVersion 2 0 0)
//!   (library work
//!     (cell AND2 (cellType GENERIC)            ; primitive decl —
//!       (view net (viewType NETLIST)           ; no (contents), skipped
//!         (interface (port A (direction INPUT)) ...)))
//!     (cell mul4 (cellType GENERIC)            ; a module: has contents
//!       (view net (viewType NETLIST)
//!         (interface
//!           (port a0 (direction INPUT)) ... (port p7 (direction OUTPUT)))
//!         (contents
//!           (instance g9 (viewRef net (cellRef AND2)))
//!           (net a0 (joined (portRef a0) (portRef A (instanceRef g9))))
//!           (net n9 (joined (portRef Y (instanceRef g9)) (portRef p0)))
//!           ...)))))
//! ```
//!
//! Primitive cells (referenced via `cellRef`, case-insensitive):
//! `AND2 OR2 XOR2 NAND2 NOR2 XNOR2` (pins `A`,`B` → `Y`), `INV`/`NOT`
//! and `BUF` (`A` → `Y`), and the constant ties `TIE0`/`LOGIC0`/`GND`
//! and `TIE1`/`LOGIC1`/`VCC` (output `Y` only). Every net must join
//! exactly one driver (a top-level `INPUT` port or an instance `Y`
//! pin) with any number of sinks.

use std::fmt::Write as _;

use crate::gate::{BinOp, Node, UnOp};
use crate::netlist::Netlist;

use super::{Driver, ImportError, ModuleGraph};

// ---------------------------------------------------------------------------
// s-expression layer
// ---------------------------------------------------------------------------

/// An s-expression whose atoms borrow from the parsed text.
#[derive(Debug, Clone)]
enum Sexp<'a> {
    Atom(&'a str, usize),
    List(Box<[Sexp<'a>]>, usize),
}

impl<'a> Sexp<'a> {
    fn line(&self) -> usize {
        match self {
            Sexp::Atom(_, l) | Sexp::List(_, l) => *l,
        }
    }

    /// Whether this is a list headed by `keyword` (lower-case), in any
    /// case: `(portRef a0)` is a `portref`.
    fn is(&self, keyword: &str) -> bool {
        match self {
            Sexp::List(items, _) => {
                matches!(items.first(), Some(Sexp::Atom(s, _)) if s.eq_ignore_ascii_case(keyword))
            }
            Sexp::Atom(..) => false,
        }
    }

    fn atom(&self) -> Option<&'a str> {
        match self {
            Sexp::Atom(s, _) => Some(s),
            Sexp::List(..) => None,
        }
    }

    /// Children after the head keyword.
    fn rest(&self) -> &[Sexp<'a>] {
        match self {
            Sexp::List(items, _) if !items.is_empty() => &items[1..],
            _ => &[],
        }
    }

    /// First child list with the given head keyword.
    fn find(&self, keyword: &str) -> Option<&Sexp<'a>> {
        self.rest().iter().find(|s| s.is(keyword))
    }
}

fn lex_sexp(text: &str) -> Result<Vec<Sexp<'_>>, ImportError> {
    // Stack of open lists; the bottom collects top-level expressions.
    let mut stack: Vec<(Vec<Sexp>, usize)> = vec![(Vec::new(), 0)];
    let mut line = 1usize;
    let bytes = text.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            ';' => {
                // EDIF comment to end of line.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                stack.push((Vec::new(), line));
                i += 1;
            }
            ')' => {
                let (items, open_line) = stack.pop().expect("stack never empties below 1");
                if stack.is_empty() {
                    return Err(ImportError::at(line, "unbalanced `)`"));
                }
                // Boxed to its exact length: most lists hold two or
                // three items, so a `Vec`'s spare capacity would
                // dominate the tree.
                stack
                    .last_mut()
                    .expect("checked non-empty")
                    .0
                    .push(Sexp::List(items.into_boxed_slice(), open_line));
                i += 1;
            }
            '"' => {
                let start_line = line;
                i += 1;
                let begin = i;
                while i < bytes.len() && bytes[i] != b'"' {
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(ImportError::at(start_line, "unterminated string"));
                }
                stack
                    .last_mut()
                    .expect("non-empty")
                    .0
                    .push(Sexp::Atom(&text[begin..i], start_line));
                i += 1;
            }
            _ => {
                let begin = i;
                while i < bytes.len() {
                    let b = bytes[i] as char;
                    if b.is_ascii_whitespace() || b == '(' || b == ')' || b == ';' || b == '"' {
                        break;
                    }
                    i += 1;
                }
                stack
                    .last_mut()
                    .expect("non-empty")
                    .0
                    .push(Sexp::Atom(&text[begin..i], line));
            }
        }
    }
    if stack.len() > 1 {
        let unclosed = stack.len() - 1;
        let open_line = stack.last().expect("non-empty").1;
        return Err(ImportError::at(
            open_line,
            format!("unexpected end of input: {unclosed} unclosed `(`"),
        ));
    }
    Ok(stack.pop().expect("bottom frame").0)
}

// ---------------------------------------------------------------------------
// primitive table
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prim {
    Bin(BinOp),
    Un(UnOp),
    Tie(bool),
}

fn prim_of(cell: &str) -> Option<Prim> {
    match cell.to_ascii_uppercase().as_str() {
        "AND2" | "AND" => Some(Prim::Bin(BinOp::And)),
        "OR2" | "OR" => Some(Prim::Bin(BinOp::Or)),
        "XOR2" | "XOR" => Some(Prim::Bin(BinOp::Xor)),
        "NAND2" | "NAND" => Some(Prim::Bin(BinOp::Nand)),
        "NOR2" | "NOR" => Some(Prim::Bin(BinOp::Nor)),
        "XNOR2" | "XNOR" => Some(Prim::Bin(BinOp::Xnor)),
        "INV" | "NOT" => Some(Prim::Un(UnOp::Not)),
        "BUF" => Some(Prim::Un(UnOp::Buf)),
        "TIE0" | "LOGIC0" | "GND" => Some(Prim::Tie(false)),
        "TIE1" | "LOGIC1" | "VCC" => Some(Prim::Tie(true)),
        _ => None,
    }
}

fn prim_cell_name(prim: Prim) -> &'static str {
    match prim {
        Prim::Bin(BinOp::And) => "AND2",
        Prim::Bin(BinOp::Or) => "OR2",
        Prim::Bin(BinOp::Xor) => "XOR2",
        Prim::Bin(BinOp::Nand) => "NAND2",
        Prim::Bin(BinOp::Nor) => "NOR2",
        Prim::Bin(BinOp::Xnor) => "XNOR2",
        Prim::Un(UnOp::Not) => "INV",
        Prim::Un(UnOp::Buf) => "BUF",
        Prim::Tie(false) => "TIE0",
        Prim::Tie(true) => "TIE1",
    }
}

// ---------------------------------------------------------------------------
// parser
// ---------------------------------------------------------------------------

pub(crate) fn parse_modules(text: &str) -> Result<Vec<ModuleGraph>, ImportError> {
    let tops = lex_sexp(text)?;
    let edif = tops
        .iter()
        .find(|s| s.is("edif"))
        .ok_or_else(|| ImportError::at(0, "no (edif ...) form found"))?;
    let mut modules = Vec::new();
    for library in edif.rest() {
        if !library.is("library") {
            continue;
        }
        for cell in library.rest() {
            if !cell.is("cell") {
                continue;
            }
            if let Some(graph) = parse_cell(cell)? {
                modules.push(graph);
            }
        }
    }
    Ok(modules)
}

/// Parses one `(cell ...)`. Returns `None` for interface-only cells
/// (primitive declarations with no `(contents ...)` instances/nets).
fn parse_cell(cell: &Sexp) -> Result<Option<ModuleGraph>, ImportError> {
    use std::collections::HashMap;

    let line = cell.line();
    let name = cell
        .rest()
        .first()
        .and_then(Sexp::atom)
        .ok_or_else(|| ImportError::at(line, "cell without a name"))?
        .to_string();
    let Some(view) = cell.find("view") else {
        return Ok(None);
    };
    let contents = view.find("contents");
    let has_body =
        contents.is_some_and(|c| c.rest().iter().any(|s| s.is("instance") || s.is("net")));
    if !has_body {
        return Ok(None);
    }
    let contents = contents.expect("has_body implies contents");

    let interface = view
        .find("interface")
        .ok_or_else(|| ImportError::at(view.line(), format!("cell `{name}` has no interface")))?;
    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    let mut port_dir: HashMap<String, bool> = HashMap::new();
    for port in interface.rest() {
        if !port.is("port") {
            continue;
        }
        let pline = port.line();
        let pname = port
            .rest()
            .first()
            .and_then(Sexp::atom)
            .ok_or_else(|| ImportError::at(pline, "port without a name"))?
            .to_string();
        let dir = port
            .find("direction")
            .and_then(|d| d.rest().first())
            .and_then(Sexp::atom)
            .map(str::to_ascii_uppercase)
            .ok_or_else(|| ImportError::at(pline, format!("port `{pname}` has no direction")))?;
        let is_input = match dir.as_str() {
            "INPUT" => true,
            "OUTPUT" => false,
            other => {
                return Err(ImportError::at(
                    pline,
                    format!("port `{pname}` has unsupported direction `{other}`"),
                ))
            }
        };
        if port_dir.insert(pname.clone(), is_input).is_some() {
            return Err(ImportError::at(
                pline,
                format!("port `{pname}` declared twice"),
            ));
        }
        if is_input {
            inputs.push(pname);
        } else {
            outputs.push(pname);
        }
    }

    // instance name -> (primitive, line)
    let mut instances: HashMap<String, (Prim, usize)> = HashMap::new();
    for item in contents.rest() {
        if !item.is("instance") {
            continue;
        }
        let iline = item.line();
        let iname = item
            .rest()
            .first()
            .and_then(Sexp::atom)
            .ok_or_else(|| ImportError::at(iline, "instance without a name"))?
            .to_string();
        // (cellRef X ...) either directly or under (viewRef _ (cellRef X)).
        let cell_ref = item
            .find("cellref")
            .or_else(|| item.find("viewref").and_then(|v| v.find("cellref")))
            .and_then(|c| c.rest().first())
            .and_then(Sexp::atom)
            .ok_or_else(|| ImportError::at(iline, format!("instance `{iname}` has no cellRef")))?;
        let prim = prim_of(cell_ref).ok_or_else(|| {
            ImportError::at(
                iline,
                format!("instance `{iname}` references unknown cell `{cell_ref}`"),
            )
        })?;
        if instances.insert(iname.clone(), (prim, iline)).is_some() {
            return Err(ImportError::at(
                iline,
                format!("duplicate instance `{iname}`"),
            ));
        }
    }

    // Wire up nets: record, per instance, which net touches each pin,
    // and per net, its driver and top-level output sinks.
    // pin map: instance -> [A, B, Y] net names
    let mut pins: HashMap<&str, [Option<(String, usize)>; 3]> = instances
        .keys()
        .map(|k| (k.as_str(), [None, None, None]))
        .collect();
    // net -> (driving top input port or instance, line)
    let mut net_driver: HashMap<String, (NetDriver, usize)> = HashMap::new();
    // (output port, net, line) aliases
    let mut out_aliases: Vec<(String, String, usize)> = Vec::new();
    let mut net_names: Vec<(String, usize)> = Vec::new();

    for item in contents.rest() {
        if !item.is("net") {
            continue;
        }
        let nline = item.line();
        let nname = item
            .rest()
            .first()
            .and_then(Sexp::atom)
            .ok_or_else(|| ImportError::at(nline, "net without a name"))?
            .to_string();
        if net_names.iter().any(|(n, _)| n == &nname) {
            return Err(ImportError::at(
                nline,
                format!("net `{nname}` declared twice"),
            ));
        }
        net_names.push((nname.clone(), nline));
        let joined = item
            .find("joined")
            .ok_or_else(|| ImportError::at(nline, format!("net `{nname}` has no joined list")))?;
        for port_ref in joined.rest() {
            if !port_ref.is("portref") {
                return Err(ImportError::at(
                    port_ref.line(),
                    format!("net `{nname}`: expected (portRef ...)"),
                ));
            }
            let rline = port_ref.line();
            let pname = port_ref
                .rest()
                .first()
                .and_then(Sexp::atom)
                .ok_or_else(|| ImportError::at(rline, "portRef without a port name"))?;
            let instance_ref = port_ref
                .find("instanceref")
                .map(|r| {
                    r.rest()
                        .first()
                        .and_then(Sexp::atom)
                        .ok_or_else(|| ImportError::at(rline, "instanceRef without a name"))
                })
                .transpose()?;
            match instance_ref {
                None => {
                    // Top-level port of the cell itself.
                    match port_dir.get(pname) {
                        Some(true) => set_driver(
                            &mut net_driver,
                            &nname,
                            NetDriver::TopInput(pname.to_string()),
                            rline,
                        )?,
                        Some(false) => out_aliases.push((pname.to_string(), nname.clone(), rline)),
                        None => {
                            return Err(ImportError::at(
                                rline,
                                format!("portRef to undeclared port `{pname}`"),
                            ))
                        }
                    }
                }
                Some(iname) => {
                    let Some((prim, _)) = instances.get(iname) else {
                        return Err(ImportError::at(
                            rline,
                            format!("portRef to undeclared instance `{iname}`"),
                        ));
                    };
                    let slot = match pname.to_ascii_uppercase().as_str() {
                        "A" => 0,
                        "B" => 1,
                        "Y" | "O" | "Z" => 2,
                        other => {
                            return Err(ImportError::at(
                                rline,
                                format!("instance `{iname}` has no pin `{other}`"),
                            ))
                        }
                    };
                    let legal = match prim {
                        Prim::Bin(_) => slot <= 2,
                        Prim::Un(_) => slot == 0 || slot == 2,
                        Prim::Tie(_) => slot == 2,
                    };
                    if !legal {
                        return Err(ImportError::at(
                            rline,
                            format!("pin `{pname}` is not legal on instance `{iname}`"),
                        ));
                    }
                    let entry = pins.get_mut(iname).expect("instance checked above");
                    if entry[slot].is_some() {
                        return Err(ImportError::at(
                            rline,
                            format!("pin `{pname}` of instance `{iname}` joined twice"),
                        ));
                    }
                    entry[slot] = Some((nname.clone(), rline));
                    if slot == 2 {
                        set_driver(
                            &mut net_driver,
                            &nname,
                            NetDriver::Instance(iname.to_string()),
                            rline,
                        )?;
                    }
                }
            }
        }
    }

    // Lower to the shared ModuleGraph: one driver entry per
    // instance-driven or input-aliased net, plus output aliases.
    let mut drivers: Vec<(String, Driver, usize)> = Vec::new();
    for (nname, nline) in &net_names {
        let Some((driver, dline)) = net_driver.get(nname) else {
            return Err(ImportError::at(
                *nline,
                format!("net `{nname}` is undriven"),
            ));
        };
        match driver {
            NetDriver::TopInput(port) => {
                // A net named after the input port it carries needs no
                // alias; anything else forwards the input.
                if nname != port {
                    drivers.push((nname.clone(), Driver::Alias(port.clone()), *dline));
                }
            }
            NetDriver::Instance(iname) => {
                let (prim, iline) = &instances[iname];
                let pin = |slot: usize, label: &str| -> Result<String, ImportError> {
                    pins[iname.as_str()][slot]
                        .as_ref()
                        .map(|(net, _)| net.clone())
                        .ok_or_else(|| {
                            ImportError::at(
                                *iline,
                                format!("pin `{label}` of instance `{iname}` is unconnected"),
                            )
                        })
                };
                let driver = match prim {
                    Prim::Bin(op) => Driver::Binary(*op, pin(0, "A")?, pin(1, "B")?),
                    Prim::Un(op) => Driver::Unary(*op, pin(0, "A")?),
                    Prim::Tie(v) => Driver::Const(*v),
                };
                drivers.push((nname.clone(), driver, *dline));
            }
        }
    }
    for (iname, (_, iline)) in &instances {
        if pins[iname.as_str()][2].is_none() {
            return Err(ImportError::at(
                *iline,
                format!("output pin of instance `{iname}` is unconnected"),
            ));
        }
    }
    for (port, net, rline) in out_aliases {
        // Output ports alias their net unless the net already carries
        // the port's name (then the net's own driver entry serves).
        if port != net {
            drivers.push((port, Driver::Alias(net), rline));
        }
    }

    Ok(Some(ModuleGraph {
        name,
        line,
        inputs,
        outputs,
        drivers,
    }))
}

#[derive(Debug, Clone)]
enum NetDriver {
    TopInput(String),
    Instance(String),
}

fn set_driver(
    net_driver: &mut std::collections::HashMap<String, (NetDriver, usize)>,
    net: &str,
    driver: NetDriver,
    line: usize,
) -> Result<(), ImportError> {
    if net_driver.insert(net.to_string(), (driver, line)).is_some() {
        return Err(ImportError::at(
            line,
            format!("net `{net}` has multiple drivers"),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// emitter
// ---------------------------------------------------------------------------

/// Renders `netlist` as an EDIF 2.0.0 file in the subset
/// `parse_modules` accepts (and external EDIF tools read):
/// primitive cell declarations for every gate kind used, then one
/// design cell with `interface` ports and `contents`
/// instances/joined nets.
pub fn to_edif(netlist: &Netlist) -> String {
    let sanitize = |name: &str| -> String {
        let mut s: String = name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        if s.is_empty() || s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            s.insert(0, '_');
        }
        s
    };
    let module = sanitize(netlist.name());
    let nodes = netlist.nodes();

    let prim_for = |node: &Node| -> Option<Prim> {
        match node {
            Node::Input { .. } => None,
            Node::Const { value } => Some(Prim::Tie(*value)),
            Node::Unary { op, .. } => Some(Prim::Un(*op)),
            Node::Binary { op, .. } => Some(Prim::Bin(*op)),
        }
    };

    // Net name per node: inputs keep their port name, the rest n<idx>.
    let net = |idx: usize| -> String {
        match &nodes[idx] {
            Node::Input { name } => sanitize(name),
            _ => format!("n{idx}"),
        }
    };

    // Sinks per node: (instance index, pin name).
    let mut sinks: Vec<Vec<(usize, &'static str)>> = vec![Vec::new(); nodes.len()];
    for (idx, node) in nodes.iter().enumerate() {
        match node {
            Node::Input { .. } | Node::Const { .. } => {}
            Node::Unary { a, .. } => sinks[a.index()].push((idx, "A")),
            Node::Binary { a, b, .. } => {
                sinks[a.index()].push((idx, "A"));
                sinks[b.index()].push((idx, "B"));
            }
        }
    }
    // Output ports per node.
    let mut out_ports: Vec<Vec<String>> = vec![Vec::new(); nodes.len()];
    for (name, id) in netlist.output_ports() {
        out_ports[id.index()].push(sanitize(name));
    }

    let mut used: Vec<Prim> = Vec::new();
    for node in nodes {
        if let Some(p) = prim_for(node) {
            if !used.contains(&p) {
                used.push(p);
            }
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "; generated by carma-netlist");
    let _ = writeln!(out, "(edif {module}");
    let _ = writeln!(out, "  (edifVersion 2 0 0)");
    let _ = writeln!(out, "  (edifLevel 0)");
    let _ = writeln!(out, "  (library work");
    let _ = writeln!(out, "    (edifLevel 0)");
    for prim in used {
        let cell = prim_cell_name(prim);
        let ports = match prim {
            Prim::Bin(_) => {
                "(port A (direction INPUT)) (port B (direction INPUT)) (port Y (direction OUTPUT))"
            }
            Prim::Un(_) => "(port A (direction INPUT)) (port Y (direction OUTPUT))",
            Prim::Tie(_) => "(port Y (direction OUTPUT))",
        };
        let _ = writeln!(
            out,
            "    (cell {cell} (cellType GENERIC)\n      (view net (viewType NETLIST) (interface {ports})))"
        );
    }
    let _ = writeln!(out, "    (cell {module} (cellType GENERIC)");
    let _ = writeln!(out, "      (view net (viewType NETLIST)");
    let _ = writeln!(out, "        (interface");
    for &id in netlist.input_ids() {
        let _ = writeln!(
            out,
            "          (port {} (direction INPUT))",
            net(id.index())
        );
    }
    for (name, _) in netlist.output_ports() {
        let _ = writeln!(
            out,
            "          (port {} (direction OUTPUT))",
            sanitize(name)
        );
    }
    let _ = writeln!(out, "        )");
    let _ = writeln!(out, "        (contents");
    for (idx, node) in nodes.iter().enumerate() {
        if let Some(prim) = prim_for(node) {
            let _ = writeln!(
                out,
                "          (instance g{idx} (viewRef net (cellRef {})))",
                prim_cell_name(prim)
            );
        }
    }
    for (idx, node) in nodes.iter().enumerate() {
        let mut joins: Vec<String> = Vec::new();
        match node {
            Node::Input { .. } => joins.push(format!("(portRef {})", net(idx))),
            _ => joins.push(format!("(portRef Y (instanceRef g{idx}))")),
        }
        for (sink, pin) in &sinks[idx] {
            joins.push(format!("(portRef {pin} (instanceRef g{sink}))"));
        }
        for port in &out_ports[idx] {
            joins.push(format!("(portRef {port})"));
        }
        // Inputs that feed nothing need no net; everything else is
        // emitted even when unobserved so dead cones round-trip.
        let lonely_input = matches!(node, Node::Input { .. }) && joins.len() == 1;
        if !lonely_input {
            let _ = writeln!(
                out,
                "          (net {} (joined {}))",
                net(idx),
                joins.join(" ")
            );
        }
    }
    let _ = writeln!(out, "        )))");
    let _ = writeln!(out, "  )");
    let _ = writeln!(out, ")");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::import::{parse_netlists, ImportFormat};
    use crate::{check_equivalence, Equivalence};

    fn sample() -> Netlist {
        let mut n = Netlist::new("fa");
        let a = n.input("a");
        let b = n.input("b");
        let cin = n.input("cin");
        let axb = n.binary(BinOp::Xor, a, b);
        let sum = n.binary(BinOp::Xor, axb, cin);
        let t1 = n.binary(BinOp::And, axb, cin);
        let t2 = n.binary(BinOp::And, a, b);
        let cout = n.binary(BinOp::Or, t1, t2);
        let one = n.constant(true);
        let dbg = n.binary(BinOp::And, cout, one);
        n.output("sum", sum);
        n.output("cout", dbg);
        n
    }

    fn err_of(text: &str) -> String {
        parse_netlists(text, ImportFormat::Edif)
            .unwrap_err()
            .to_string()
    }

    #[test]
    fn edif_round_trip_is_equivalent() {
        let n = sample();
        let edif = to_edif(&n);
        let mut back = parse_netlists(&edif, ImportFormat::Edif).unwrap();
        assert_eq!(back.len(), 1);
        let back = back.pop().unwrap();
        assert_eq!(back.name(), "fa");
        assert_eq!(back.input_count(), n.input_count());
        assert_eq!(back.output_count(), n.output_count());
        assert!(matches!(
            check_equivalence(&n, &back).unwrap(),
            Equivalence::Equivalent
        ));
    }

    #[test]
    fn unbalanced_and_truncated_inputs_error() {
        assert!(err_of("(edif m (library w (cell c)))\n)").contains("unbalanced"));
        let full = to_edif(&sample());
        let truncated = &full[..full.len() / 2];
        let msg = err_of(truncated);
        assert!(
            msg.contains("unclosed") || msg.contains("unexpected end"),
            "{msg}"
        );
        assert!(err_of("").contains("no (edif"));
        assert!(err_of("(library w)").contains("no (edif"));
    }

    #[test]
    fn structural_edif_errors_do_not_panic() {
        let prelude = "(edif m (library w (cell m (cellType GENERIC) (view net (viewType NETLIST)\
                       (interface (port a (direction INPUT)) (port y (direction OUTPUT)))\
                       (contents ";
        let close = ")))))";
        let build = |contents: &str| format!("{prelude}{contents}{close}");

        // Undriven net feeding an instance.
        let msg = err_of(&build(
            "(instance g (viewRef net (cellRef INV)))\
             (net w1 (joined (portRef A (instanceRef g))))\
             (net y (joined (portRef Y (instanceRef g)) (portRef y)))",
        ));
        assert!(msg.contains("undriven"), "{msg}");

        // Unknown cell.
        let msg = err_of(&build(
            "(instance g (viewRef net (cellRef DFF)))\
             (net y (joined (portRef Y (instanceRef g)) (portRef y)))",
        ));
        assert!(msg.contains("unknown cell"), "{msg}");

        // Double-driven net.
        let msg = err_of(&build(
            "(instance g (viewRef net (cellRef INV)))\
             (net a (joined (portRef a) (portRef A (instanceRef g))))\
             (net y (joined (portRef Y (instanceRef g)) (portRef a) (portRef y)))",
        ));
        assert!(
            msg.contains("multiple drivers") || msg.contains("cannot be driven"),
            "{msg}"
        );

        // Unconnected pin.
        let msg = err_of(&build(
            "(instance g (viewRef net (cellRef AND2)))\
             (net a (joined (portRef a) (portRef A (instanceRef g))))\
             (net y (joined (portRef Y (instanceRef g)) (portRef y)))",
        ));
        assert!(msg.contains("unconnected"), "{msg}");

        // Undeclared instance / port references.
        let msg = err_of(&build(
            "(net y (joined (portRef Y (instanceRef nope)) (portRef y)))",
        ));
        assert!(msg.contains("undeclared instance"), "{msg}");
        let msg = err_of(&build("(net y (joined (portRef zz)))"));
        assert!(msg.contains("undeclared port"), "{msg}");
    }

    #[test]
    fn interface_only_cells_are_skipped() {
        let text = "(edif m (library w \
            (cell AND2 (cellType GENERIC) (view net (viewType NETLIST) \
              (interface (port A (direction INPUT)) (port B (direction INPUT)) (port Y (direction OUTPUT))))) \
            (cell top (cellType GENERIC) (view net (viewType NETLIST) \
              (interface (port a (direction INPUT)) (port b (direction INPUT)) (port y (direction OUTPUT))) \
              (contents (instance g (viewRef net (cellRef AND2))) \
                (net a (joined (portRef a) (portRef A (instanceRef g)))) \
                (net b (joined (portRef b) (portRef B (instanceRef g)))) \
                (net y (joined (portRef Y (instanceRef g)) (portRef y))))))))";
        let mods = parse_netlists(text, ImportFormat::Edif).unwrap();
        assert_eq!(mods.len(), 1);
        assert_eq!(mods[0].name(), "top");
        assert_eq!(mods[0].eval_bits(&[true, true]), vec![true]);
        assert_eq!(mods[0].eval_bits(&[true, false]), vec![false]);
    }
}
