//! Structural netlist ingestion: the inverse of [`crate::verilog`].
//!
//! Two front-ends parse external gate-level descriptions into the
//! shared `ModuleGraph` form — a flat signal/driver map — which a
//! single back-end lowers into validated [`Netlist`]s:
//!
//! - [`verilog`] — the structural Verilog-2001 subset `to_verilog`
//!   emits (primitive gate instantiations, `wire`/`assign`, one bit
//!   per net).
//! - [`edif`] — an EDIF 2.0.0 subset (s-expression cells with
//!   `interface`/`contents`, primitive `cellRef`s, `joined` nets),
//!   plus the matching [`edif::to_edif`] emitter.
//!
//! Malformed input of any shape — truncated files, unbalanced parens,
//! undriven nets, duplicate modules, combinational loops — surfaces as
//! an [`ImportError`]; parsing never panics. Semantic admission
//! (lint profile, error bounds, equivalence) is deliberately *not*
//! done here: that is `carma-import`'s job, so the parser stays
//! faithful to the file (dead cones and floating inputs are preserved
//! for the analyzer to report, not silently dropped).

use std::fmt;
use std::path::Path;

use crate::gate::{BinOp, UnOp};
use crate::netlist::Netlist;

pub mod edif;
pub mod verilog;

/// Supported interchange formats, usually inferred from the file
/// extension via [`ImportFormat::from_path`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImportFormat {
    /// Structural Verilog-2001 (`.v`, `.verilog`).
    Verilog,
    /// EDIF 2.0.0 s-expressions (`.edf`, `.edif`).
    Edif,
}

impl ImportFormat {
    /// Infers the format from a path's extension (case-insensitive);
    /// `None` for unrecognized extensions.
    pub fn from_path(path: &Path) -> Option<ImportFormat> {
        let ext = path.extension()?.to_str()?.to_ascii_lowercase();
        match ext.as_str() {
            "v" | "verilog" => Some(ImportFormat::Verilog),
            "edf" | "edif" => Some(ImportFormat::Edif),
            _ => None,
        }
    }

    /// Lower-case human-readable name (`"verilog"` / `"edif"`).
    pub fn as_str(self) -> &'static str {
        match self {
            ImportFormat::Verilog => "verilog",
            ImportFormat::Edif => "edif",
        }
    }
}

impl fmt::Display for ImportFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A parse or structural error in an imported netlist file.
///
/// `line` is 1-based; 0 means the error is not tied to a source line
/// (e.g. truncated input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImportError {
    /// 1-based source line, or 0 when no line applies.
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl ImportError {
    pub(crate) fn at(line: usize, message: impl Into<String>) -> ImportError {
        ImportError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            f.write_str(&self.message)
        }
    }
}

impl std::error::Error for ImportError {}

/// Parses `text` in the given `format` into one [`Netlist`] per module
/// (Verilog `module`, EDIF cell with contents), in file order.
///
/// Every returned netlist passes [`Netlist::validate`]. Files with no
/// modules at all are an error.
pub fn parse_netlists(text: &str, format: ImportFormat) -> Result<Vec<Netlist>, ImportError> {
    let graphs = match format {
        ImportFormat::Verilog => verilog::parse_modules(text)?,
        ImportFormat::Edif => edif::parse_modules(text)?,
    };
    if graphs.is_empty() {
        return Err(ImportError::at(
            0,
            format!("no modules found in {format} input"),
        ));
    }
    let mut seen = std::collections::HashSet::new();
    let mut netlists = Vec::with_capacity(graphs.len());
    for graph in graphs {
        if !seen.insert(graph.name.clone()) {
            return Err(ImportError::at(
                graph.line,
                format!("duplicate module `{}`", graph.name),
            ));
        }
        netlists.push(graph.into_netlist()?);
    }
    Ok(netlists)
}

/// What drives one named signal in a [`ModuleGraph`].
#[derive(Debug, Clone)]
pub(crate) enum Driver {
    /// Tied to a constant.
    Const(bool),
    /// Another signal's value, verbatim (`assign x = y`).
    Alias(String),
    /// A one-input primitive.
    Unary(UnOp, String),
    /// A two-input primitive.
    Binary(BinOp, String, String),
}

/// Flat, format-agnostic module form: named signals with at most one
/// driver each. Both parsers lower to this; [`ModuleGraph::into_netlist`]
/// does the shared topological construction and structural checks.
#[derive(Debug, Clone)]
pub(crate) struct ModuleGraph {
    pub name: String,
    /// Line the module/cell starts on (for duplicate-module errors).
    pub line: usize,
    /// Primary inputs in port-declaration order.
    pub inputs: Vec<String>,
    /// Primary outputs in port-declaration order.
    pub outputs: Vec<String>,
    /// `(signal, driver, line)` in declaration order. Dead cones stay:
    /// every listed driver is built even if no output observes it, so
    /// downstream lint sees the file as written.
    pub drivers: Vec<(String, Driver, usize)>,
}

impl ModuleGraph {
    /// Lowers the graph into a validated [`Netlist`], building every
    /// declared driver (reachable or not) in topological order.
    ///
    /// Errors: nets referenced but never driven, driven inputs,
    /// multiple drivers, combinational loops, undriven outputs.
    pub(crate) fn into_netlist(self) -> Result<Netlist, ImportError> {
        use std::collections::HashMap;

        let mut n = Netlist::new(&self.name);
        // name -> resolved node id
        let mut resolved: HashMap<&str, crate::gate::NodeId> = HashMap::new();
        for input in &self.inputs {
            resolved.insert(input, n.input(input));
        }
        // name -> index into self.drivers
        let mut driver_of: HashMap<&str, usize> = HashMap::new();
        for (idx, (signal, _, line)) in self.drivers.iter().enumerate() {
            if resolved.contains_key(signal.as_str()) {
                return Err(ImportError::at(
                    *line,
                    format!("input `{signal}` cannot be driven"),
                ));
            }
            if driver_of.insert(signal, idx).is_some() {
                return Err(ImportError::at(
                    *line,
                    format!("net `{signal}` has multiple drivers"),
                ));
            }
        }

        // Iterative DFS so pathological alias/gate chains from fuzzed
        // inputs cannot overflow the stack. `open` marks signals whose
        // operands are still being resolved (cycle detection).
        let mut open: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for (signal, _, _) in &self.drivers {
            if resolved.contains_key(signal.as_str()) {
                continue;
            }
            let mut stack: Vec<&str> = vec![signal];
            while let Some(&name) = stack.last() {
                if resolved.contains_key(name) {
                    stack.pop();
                    continue;
                }
                let Some(&didx) = driver_of.get(name) else {
                    // Point at the first statement that reads the
                    // missing net (error path only, O(n) is fine).
                    let line = self
                        .drivers
                        .iter()
                        .find(|(_, d, _)| match d {
                            Driver::Const(_) => false,
                            Driver::Alias(a) | Driver::Unary(_, a) => a == name,
                            Driver::Binary(_, a, b) => a == name || b == name,
                        })
                        .map_or(0, |(_, _, l)| *l);
                    return Err(ImportError::at(
                        line,
                        format!("net `{name}` is referenced but never driven"),
                    ));
                };
                let (_, driver, line) = &self.drivers[didx];
                let operands: Vec<&str> = match driver {
                    Driver::Const(_) => vec![],
                    Driver::Alias(a) | Driver::Unary(_, a) => vec![a.as_str()],
                    Driver::Binary(_, a, b) => vec![a.as_str(), b.as_str()],
                };
                let pending: Vec<&str> = operands
                    .iter()
                    .copied()
                    .filter(|op| !resolved.contains_key(op))
                    .collect();
                if pending.is_empty() {
                    let id = match driver {
                        Driver::Const(v) => n.constant(*v),
                        Driver::Alias(a) => resolved[a.as_str()],
                        Driver::Unary(op, a) => n.unary(*op, resolved[a.as_str()]),
                        Driver::Binary(op, a, b) => {
                            n.binary(*op, resolved[a.as_str()], resolved[b.as_str()])
                        }
                    };
                    resolved.insert(name, id);
                    open.remove(name);
                    stack.pop();
                } else {
                    if !open.insert(name) {
                        return Err(ImportError::at(
                            *line,
                            format!("combinational loop through net `{name}`"),
                        ));
                    }
                    stack.extend(pending);
                }
            }
        }

        for output in &self.outputs {
            let Some(&id) = resolved.get(output.as_str()) else {
                return Err(ImportError::at(
                    self.line,
                    format!("output `{output}` is never driven"),
                ));
            };
            n.output(output, id);
        }
        n.validate()
            .map_err(|e| ImportError::at(self.line, format!("invalid netlist: {e:?}")))?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(drivers: Vec<(&str, Driver, usize)>) -> ModuleGraph {
        ModuleGraph {
            name: "m".into(),
            line: 1,
            inputs: vec!["a".into(), "b".into()],
            outputs: vec!["y".into()],
            drivers: drivers
                .into_iter()
                .map(|(s, d, l)| (s.to_string(), d, l))
                .collect(),
        }
    }

    #[test]
    fn builds_out_of_order_declarations() {
        // y depends on t declared after it: builder must topo-sort.
        let g = graph(vec![
            ("y", Driver::Binary(BinOp::And, "t".into(), "b".into()), 2),
            ("t", Driver::Unary(UnOp::Not, "a".into()), 3),
        ]);
        let n = g.into_netlist().unwrap();
        assert_eq!(n.eval_bits(&[false, true]), vec![true]);
    }

    #[test]
    fn preserves_dead_cones() {
        let g = graph(vec![
            ("y", Driver::Alias("a".into()), 2),
            (
                "dead",
                Driver::Binary(BinOp::Xor, "a".into(), "b".into()),
                3,
            ),
        ]);
        let n = g.into_netlist().unwrap();
        assert_eq!(n.gate_count(), 1, "dead gate must survive import");
    }

    #[test]
    fn rejects_cycles_undriven_and_double_drive() {
        let cyc = graph(vec![("y", Driver::Unary(UnOp::Not, "y".into()), 2)]);
        assert!(cyc.into_netlist().unwrap_err().message.contains("loop"));

        let undriven = graph(vec![("y", Driver::Unary(UnOp::Not, "ghost".into()), 2)]);
        assert!(undriven
            .into_netlist()
            .unwrap_err()
            .message
            .contains("never driven"));

        let double = graph(vec![
            ("y", Driver::Alias("a".into()), 2),
            ("y", Driver::Alias("b".into()), 3),
        ]);
        assert!(double
            .into_netlist()
            .unwrap_err()
            .message
            .contains("multiple drivers"));

        let drives_input = graph(vec![
            ("a", Driver::Alias("b".into()), 2),
            ("y", Driver::Alias("a".into()), 3),
        ]);
        assert!(drives_input
            .into_netlist()
            .unwrap_err()
            .message
            .contains("cannot be driven"));
    }

    #[test]
    fn format_from_path() {
        assert_eq!(
            ImportFormat::from_path(Path::new("x/lib.V")),
            Some(ImportFormat::Verilog)
        );
        assert_eq!(
            ImportFormat::from_path(Path::new("lib.edif")),
            Some(ImportFormat::Edif)
        );
        assert_eq!(ImportFormat::from_path(Path::new("lib.json")), None);
        assert_eq!(ImportFormat::from_path(Path::new("lib")), None);
    }
}
