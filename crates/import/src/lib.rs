//! # carma-import
//!
//! External approximate-multiplier library ingestion: the layer that
//! turns a gate-level Verilog or EDIF file on disk into a
//! characterized [`MultiplierLibrary`] the CARMA flow can run.
//!
//! The pipeline is parse → admit → characterize:
//!
//! 1. **Parse** — [`carma_netlist::parse_netlists`] lowers the file
//!    into validated [`Netlist`]s (one per module); syntax and
//!    structural problems (truncated files, unbalanced parens,
//!    undriven nets, duplicate modules) surface as
//!    [`ImportFailure::Malformed`], never a panic.
//! 2. **Admit** — every module must pass the `carma-analyze` gate:
//!    [`LintProfile::Strict`] with the multiplier port convention at
//!    its inferred width, a computable sound static error bound, and
//!    a clean (positional) equivalence run against the exact Dadda
//!    reference of the same width. Rejections carry the lint
//!    diagnostics verbatim ([`ImportFailure::Rejected`]).
//! 3. **Characterize** — admitted modules are profiled exhaustively
//!    and assembled (together with a synthesized exact reference
//!    entry) into a [`MultiplierLibrary`] whose entries carry durable
//!    [`CircuitRecipe::Imported`] provenance, so the library
//!    round-trips through `from_parts` and the stage memo.
//!
//! The [`content_hash`] of the raw file bytes is the identity of an
//! imported library everywhere downstream (memo keys, scenario
//! fingerprints): renaming a file changes nothing, editing a byte
//! changes everything.

use std::fmt;
use std::path::Path;

use carma_analyze::{lint, static_error_bound, LintOptions, LintProfile};
use carma_multiplier::{
    ApproxGenome, CircuitRecipe, ErrorProfile, MultiplierCircuit, MultiplierEntry,
    MultiplierLibrary, ReductionKind,
};
use carma_netlist::{check_equivalence, to_verilog, Equivalence, Netlist};

pub use carma_netlist::{ImportError, ImportFormat};

/// Widest multiplier the characterization pipeline accepts (matches
/// the exhaustive-profile domain of `carma-multiplier`).
pub const MAX_IMPORT_WIDTH: u32 = 10;

/// One admitted module from an imported file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImportedModule {
    /// Module / cell name.
    pub name: String,
    /// The parsed, validated netlist (dead cones preserved — Strict
    /// admission means an admitted module has none).
    pub netlist: Netlist,
    /// Whether the module proved exhaustively equivalent to the exact
    /// reference (its profile is then zero by construction).
    pub exact: bool,
}

/// A fully admitted library file, ready to characterize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImportedLibrary {
    /// Format the file was parsed as.
    pub format: ImportFormat,
    /// 128-bit FNV-1a hash of the raw file bytes, 32 hex chars: the
    /// content identity used by memo keys and scenario fingerprints.
    pub content_hash: String,
    /// Operand width shared by every module in the file.
    pub width: u32,
    /// Admitted modules in file order.
    pub modules: Vec<ImportedModule>,
}

/// Why a library file could not be ingested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImportFailure {
    /// The file could not be read.
    Unreadable {
        /// Path as given.
        path: String,
        /// OS-level reason.
        reason: String,
    },
    /// The file extension maps to no supported format.
    UnknownFormat {
        /// Path as given.
        path: String,
    },
    /// The file is not valid Verilog/EDIF in the supported subset.
    Malformed {
        /// Path as given.
        path: String,
        /// Parser diagnostic (with line number where known).
        reason: String,
    },
    /// The file parsed, but a module failed the admission gate.
    Rejected {
        /// Path as given.
        path: String,
        /// The offending module.
        module: String,
        /// Lint/bound/equivalence diagnostics, one per finding.
        diagnostics: Vec<String>,
    },
}

impl fmt::Display for ImportFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportFailure::Unreadable { path, reason } => {
                write!(f, "cannot read library `{path}`: {reason}")
            }
            ImportFailure::UnknownFormat { path } => write!(
                f,
                "cannot infer library format of `{path}` \
                 (recognized extensions: .v, .verilog, .edf, .edif)"
            ),
            ImportFailure::Malformed { path, reason } => {
                write!(f, "malformed library `{path}`: {reason}")
            }
            ImportFailure::Rejected {
                path,
                module,
                diagnostics,
            } => write!(
                f,
                "library `{path}` rejected: module `{module}` failed the admission gate: {}",
                diagnostics.join("; ")
            ),
        }
    }
}

impl std::error::Error for ImportFailure {}

/// 128-bit FNV-1a content hash of `bytes` as 32 lower-case hex chars.
///
/// Two independent 64-bit FNV-1a streams over the same bytes (offset
/// bases differ): the construction of `carma_memo::fingerprint`, kept
/// as a copy so this crate does not depend on the memo store. A test
/// in `tests/scenario_api.rs` pins the two to the same output.
pub fn content_hash(bytes: &[u8]) -> String {
    let h1 = fnv1a64(bytes, 0xCBF2_9CE4_8422_2325);
    let h2 = fnv1a64(bytes, 0x9E37_79B9_7F4A_7C15);
    format!("{h1:016x}{h2:016x}")
}

fn fnv1a64(bytes: &[u8], basis: u64) -> u64 {
    let mut hash = basis;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Reads and admits a library file, inferring the format from its
/// extension. See [`parse_library`] for the admission semantics.
pub fn load_library(path: &Path) -> Result<ImportedLibrary, ImportFailure> {
    let display = path.display().to_string();
    let Some(format) = ImportFormat::from_path(path) else {
        return Err(ImportFailure::UnknownFormat { path: display });
    };
    let bytes = std::fs::read(path).map_err(|e| ImportFailure::Unreadable {
        path: display.clone(),
        reason: e.to_string(),
    })?;
    parse_library(&bytes, format, &display)
}

/// Parses and admits library `bytes` (already format-resolved);
/// `origin` labels errors — usually the path the bytes came from.
///
/// Every module must: be a `2w`-input/`2w`-output netlist following
/// the `a*/b*/p*` port convention at a uniform width `1..=10`
/// (`1..=8` effectively, via the Strict lint's width check at the
/// inferred width); pass [`LintProfile::Strict`] with zero
/// error-severity findings; yield a sound static error bound against
/// the exact Dadda reference; and survive an equivalence run against
/// that reference (approximate modules report a mismatch witness —
/// that is expected; only structural impossibility rejects).
pub fn parse_library(
    bytes: &[u8],
    format: ImportFormat,
    origin: &str,
) -> Result<ImportedLibrary, ImportFailure> {
    let malformed = |reason: String| ImportFailure::Malformed {
        path: origin.to_string(),
        reason,
    };
    let text =
        std::str::from_utf8(bytes).map_err(|e| malformed(format!("not valid UTF-8: {e}")))?;
    let netlists =
        carma_netlist::parse_netlists(text, format).map_err(|e| malformed(e.to_string()))?;

    // Uniform width across the file, inferred from port counts.
    let mut width: Option<u32> = None;
    for nl in &netlists {
        let w = infer_width(nl).map_err(|diag| ImportFailure::Rejected {
            path: origin.to_string(),
            module: nl.name().to_string(),
            diagnostics: vec![diag],
        })?;
        match width {
            None => width = Some(w),
            Some(prev) if prev != w => {
                return Err(ImportFailure::Rejected {
                    path: origin.to_string(),
                    module: nl.name().to_string(),
                    diagnostics: vec![format!(
                        "module is {w}-bit but `{}` is {prev}-bit; \
                         a library file must be width-uniform",
                        netlists[0].name()
                    )],
                })
            }
            Some(_) => {}
        }
    }
    let width = width.expect("parse_netlists guarantees at least one module");
    let exact = MultiplierCircuit::generate(width, ReductionKind::Dadda);

    let mut modules = Vec::with_capacity(netlists.len());
    for nl in netlists {
        let name = nl.name().to_string();
        if name == format!("exact{width}") {
            return Err(ImportFailure::Rejected {
                path: origin.to_string(),
                module: name.clone(),
                diagnostics: vec![format!(
                    "module name `{name}` is reserved for the synthesized exact entry"
                )],
            });
        }
        let span = carma_trace::span!("import.admission", "{name}");
        let is_exact =
            admit(&nl, width, exact.netlist()).map_err(|diagnostics| ImportFailure::Rejected {
                path: origin.to_string(),
                module: name.clone(),
                diagnostics,
            })?;
        span.annotate(if is_exact { "exact" } else { "approximate" });
        modules.push(ImportedModule {
            name,
            netlist: nl,
            exact: is_exact,
        });
    }

    Ok(ImportedLibrary {
        format,
        content_hash: content_hash(bytes),
        width,
        modules,
    })
}

fn infer_width(nl: &Netlist) -> Result<u32, String> {
    let ins = nl.input_count();
    let outs = nl.output_count();
    if ins == 0 || !ins.is_multiple_of(2) || ins != outs {
        return Err(format!(
            "not a multiplier shape: {ins} inputs / {outs} outputs \
             (expected 2*width of each)"
        ));
    }
    let w = (ins / 2) as u32;
    if w > MAX_IMPORT_WIDTH {
        return Err(format!(
            "{w}-bit operands exceed the supported maximum of {MAX_IMPORT_WIDTH}"
        ));
    }
    Ok(w)
}

/// The admission gate proper. `Ok(true)` means the module proved
/// exhaustively equivalent to the exact reference.
fn admit(nl: &Netlist, width: u32, exact: &Netlist) -> Result<bool, Vec<String>> {
    let report = lint(
        nl,
        &LintOptions {
            profile: LintProfile::Strict,
            multiplier_width: Some(width),
        },
    );
    let errors: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == carma_analyze::Severity::Error)
        .map(|d| format!("{:?}: {}", d.code, d.message))
        .collect();
    if !errors.is_empty() {
        return Err(errors);
    }
    if let Err(e) = static_error_bound(nl, exact) {
        return Err(vec![format!("static error bound unavailable: {e}")]);
    }
    match check_equivalence(nl, exact) {
        Ok(Equivalence::Equivalent { .. }) => Ok(true),
        Ok(Equivalence::Mismatch { .. }) => Ok(false),
        Err(e) => Err(vec![format!("equivalence check impossible: {e:?}")]),
    }
}

/// Characterizes an admitted library into a [`MultiplierLibrary`]:
/// each module becomes an entry with an exhaustively measured error
/// profile and durable [`CircuitRecipe::Imported`] provenance, plus a
/// synthesized exact Dadda entry (`exact<width>`) so downstream
/// consumers always find a zero-error reference.
pub fn build_library(lib: &ImportedLibrary) -> MultiplierLibrary {
    let base = MultiplierCircuit::generate(lib.width, ReductionKind::Dadda);
    let mut entries = vec![MultiplierEntry {
        name: format!("exact{}", lib.width),
        circuit: base.clone(),
        genome: ApproxGenome::exact(),
        recipe: CircuitRecipe::Exact,
        profile: ErrorProfile::zero(lib.width),
    }];
    entries.extend(carma_exec::par_map(&lib.modules, |m| {
        let circuit = MultiplierCircuit::from_netlist(m.netlist.clone(), lib.width);
        let profile = if m.exact {
            ErrorProfile::zero(lib.width)
        } else {
            ErrorProfile::exhaustive(&circuit)
        };
        MultiplierEntry {
            name: m.name.clone(),
            recipe: CircuitRecipe::Imported {
                verilog: to_verilog(circuit.netlist()),
            },
            genome: ApproxGenome::exact(),
            circuit,
            profile,
        }
    }));
    MultiplierLibrary::from_entries(lib.width, entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An 8-bit multiplier library text derived from the exact Dadda
    /// by rewriting gates — used across tests.
    fn exact_verilog(width: u32) -> String {
        let mut c = MultiplierCircuit::generate(width, ReductionKind::Dadda);
        c.netlist_mut().set_name(format!("mul{width}_test"));
        to_verilog(c.netlist())
    }

    #[test]
    fn exact_dump_is_admitted_and_marked_exact() {
        let text = exact_verilog(4);
        let lib = parse_library(text.as_bytes(), ImportFormat::Verilog, "mem").unwrap();
        assert_eq!(lib.width, 4);
        assert_eq!(lib.modules.len(), 1);
        assert!(lib.modules[0].exact);

        let built = build_library(&lib);
        assert_eq!(built.width(), 4);
        // The imported module is bit-identical to the synthesized
        // exact entry, so the (transistors, mred) dedupe collapses
        // the pair into one.
        assert_eq!(built.entries().len(), 1);
        assert_eq!(built.exact().profile.mred, 0.0);
    }

    #[test]
    fn truncated_multiplier_is_rejected_with_lint_diagnostics() {
        let base = MultiplierCircuit::generate(8, ReductionKind::Dadda);
        let mut trunc = ApproxGenome::truncation(2, 2).apply(&base);
        trunc.netlist_mut().set_name("trunc8");
        let text = to_verilog(trunc.netlist());
        let err = parse_library(text.as_bytes(), ImportFormat::Verilog, "mem").unwrap_err();
        let ImportFailure::Rejected { diagnostics, .. } = &err else {
            panic!("expected Rejected, got {err:?}");
        };
        assert!(
            diagnostics.iter().any(|d| d.contains("FloatingInput")),
            "{diagnostics:?}"
        );
    }

    #[test]
    fn non_multiplier_shapes_and_mixed_widths_are_rejected() {
        let odd = "module m (a, y);\n  input a;\n  output y;\n  assign y = a;\nendmodule\n";
        let err = parse_library(odd.as_bytes(), ImportFormat::Verilog, "mem").unwrap_err();
        assert!(err.to_string().contains("not a multiplier shape"), "{err}");

        let mixed = format!("{}{}", exact_verilog(4), exact_verilog(3));
        let err = parse_library(mixed.as_bytes(), ImportFormat::Verilog, "mem").unwrap_err();
        assert!(err.to_string().contains("width-uniform"), "{err}");
    }

    #[test]
    fn reserved_exact_name_is_rejected() {
        let mut c = MultiplierCircuit::generate(4, ReductionKind::Dadda);
        c.netlist_mut().set_name("exact4");
        let text = to_verilog(c.netlist());
        let err = parse_library(text.as_bytes(), ImportFormat::Verilog, "mem").unwrap_err();
        assert!(err.to_string().contains("reserved"), "{err}");
    }

    #[test]
    fn malformed_text_is_malformed_not_rejected() {
        let err = parse_library(b"module m (", ImportFormat::Verilog, "mem").unwrap_err();
        assert!(matches!(err, ImportFailure::Malformed { .. }), "{err}");
        let err = parse_library(&[0xFF, 0xFE], ImportFormat::Verilog, "mem").unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");
    }

    #[test]
    fn content_hash_tracks_bytes_not_names() {
        let a = content_hash(b"hello");
        assert_eq!(a.len(), 32);
        assert_eq!(a, content_hash(b"hello"));
        assert_ne!(a, content_hash(b"hello "));
    }
}
