//! The library import pipeline end to end: exporter↔importer
//! round-trips across every builtin family, admission-gate semantics
//! on the committed fixtures, resolve-time error surfacing, and the
//! content-hash identity that keys imported libraries in the memo and
//! the result cache.

use std::sync::OnceLock;

use carma_core::scenario::{ExperimentRegistry, LibrarySource, Scale, ScenarioError, ScenarioSpec};
use carma_import::ImportFailure;
use carma_multiplier::MultiplierLibrary;
use carma_netlist::{
    check_equivalence, parse_netlists, to_edif, to_verilog, Equivalence, ImportFormat,
};
use proptest::prelude::*;

fn registry() -> &'static ExperimentRegistry {
    static REGISTRY: OnceLock<ExperimentRegistry> = OnceLock::new();
    REGISTRY.get_or_init(ExperimentRegistry::standard)
}

fn imported_spec(experiment: &str, library: &str) -> ScenarioSpec {
    let mut spec = ScenarioSpec::named(experiment)
        .with_family("imported")
        .with_library(library)
        .with_scale(Scale::Quick);
    spec.accuracy_samples = Some(48);
    spec
}

// ─── exporter ↔ importer round-trips ────────────────────────────────

/// Every circuit of `lib`, exported and re-imported through `format`,
/// must stay exhaustively equivalent to the original.
fn assert_round_trip(lib: &MultiplierLibrary, format: ImportFormat, label: &str) {
    for entry in lib.entries() {
        let original = entry.circuit.netlist();
        let text = match format {
            ImportFormat::Verilog => to_verilog(original),
            ImportFormat::Edif => to_edif(original),
        };
        let mut modules = parse_netlists(&text, format)
            .unwrap_or_else(|e| panic!("{label}/{}: re-import failed: {e}", entry.name));
        assert_eq!(modules.len(), 1, "{label}/{}: one module out", entry.name);
        let reimported = modules.pop().expect("len checked");
        match check_equivalence(original, &reimported) {
            Ok(Equivalence::Equivalent) => {}
            other => panic!(
                "{label}/{}: round trip is not exhaustively equivalent: {other:?}",
                entry.name
            ),
        }
    }
}

#[test]
fn verilog_and_edif_round_trip_every_builtin_family_and_depth() {
    for depth in [1u8, 2] {
        let ladder = MultiplierLibrary::truncation_ladder(8, depth);
        assert_round_trip(&ladder, ImportFormat::Verilog, &format!("ladder@{depth}"));
        let classic = MultiplierLibrary::classic_families(8, depth);
        assert_round_trip(&classic, ImportFormat::Verilog, &format!("classic@{depth}"));
    }
    // EDIF at width 4 keeps the exhaustive pass cheap while still
    // covering every gate kind the generators emit.
    let ladder4 = MultiplierLibrary::truncation_ladder(4, 2);
    assert_round_trip(&ladder4, ImportFormat::Edif, "ladder4-edif");
}

#[test]
fn evolved_family_round_trips_through_verilog() {
    let spec = ScenarioSpec::named("lint")
        .with_family("evolved")
        .with_scale(Scale::Quick);
    let r = spec.resolve(registry(), None, None).expect("resolves");
    let evolved = r.library();
    assert_round_trip(&evolved, ImportFormat::Verilog, "evolved@quick");
}

// ─── malformed inputs return errors, never panic ────────────────────

#[test]
fn malformed_sources_error_without_panicking() {
    let cases: &[(&str, ImportFormat)] = &[
        // Truncated mid-statement.
        (
            "module m (a, y);\n  input a;\n  output y;\n  buf g0 (y",
            ImportFormat::Verilog,
        ),
        // Undriven net.
        (
            "module m (a, y);\n  input a;\n  output y;\n  wire n0;\n  assign y = n0;\nendmodule\n",
            ImportFormat::Verilog,
        ),
        // Duplicate modules.
        (
            "module m (a, y);\n input a;\n output y;\n assign y = a;\nendmodule\n\
             module m (a, y);\n input a;\n output y;\n assign y = a;\nendmodule\n",
            ImportFormat::Verilog,
        ),
        // Unbalanced parens.
        (
            "(edif e (edifVersion 2 0 0) (library work",
            ImportFormat::Edif,
        ),
        (")", ImportFormat::Edif),
        // Empty and non-module garbage.
        ("", ImportFormat::Verilog),
        ("garbage ^^ tokens", ImportFormat::Verilog),
        ("(edif e (edifVersion 2 0 0))", ImportFormat::Edif),
    ];
    for (text, format) in cases {
        assert!(
            parse_netlists(text, *format).is_err(),
            "must reject: {text:?}"
        );
    }
}

proptest! {
    // Arbitrary mutations of the committed fixtures — truncation,
    // line deletion, byte splices — parse to Ok or Err, never panic,
    // and whatever parses also flows through the admission gate's own
    // validation without panicking.
    #[test]
    fn fixture_mutations_never_panic(
        which in 0usize..3,
        cut in 0usize..4000,
        drop_line in 0usize..200,
        splice_bytes in proptest::collection::vec(32u8..127, 0..12),
        at in 0usize..4000,
    ) {
        let splice: String = splice_bytes.iter().map(|&b| b as char).collect();
        let (path, format) = [
            ("examples/libraries/approx8.v", ImportFormat::Verilog),
            ("examples/libraries/corrupted.v", ImportFormat::Verilog),
            ("examples/libraries/approx4.edf", ImportFormat::Edif),
        ][which];
        let text = std::fs::read_to_string(path).expect("fixture exists");

        let truncated: String = text.chars().take(cut).collect();
        let _ = parse_netlists(&truncated, format);

        let without_line: String = text
            .lines()
            .enumerate()
            .filter(|(i, _)| *i != drop_line)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let _ = parse_netlists(&without_line, format);

        let mut spliced: String = text.chars().take(at).collect();
        spliced.push_str(&splice);
        spliced.extend(text.chars().skip(at));
        if let Ok(mods) = parse_netlists(&spliced, format) {
            // Whatever still parses must also flow through admission
            // without panicking (verdict itself is free to differ).
            let _ = carma_import::parse_library(spliced.as_bytes(), format, "fuzz");
            prop_assert!(!mods.is_empty());
        }
    }
}

// ─── admission gate on the committed fixtures ───────────────────────

#[test]
fn committed_fixtures_admit_and_reject_as_documented() {
    let approx8 = std::fs::read("examples/libraries/approx8.v").expect("fixture");
    let lib = carma_import::parse_library(&approx8, ImportFormat::Verilog, "approx8.v")
        .expect("approx8.v is admissible");
    assert_eq!(lib.width, 8);
    assert_eq!(lib.modules.len(), 3);
    assert!(
        lib.modules.iter().all(|m| !m.exact),
        "fixtures are approximate"
    );

    let approx4 = std::fs::read("examples/libraries/approx4.edf").expect("fixture");
    let lib = carma_import::parse_library(&approx4, ImportFormat::Edif, "approx4.edf")
        .expect("approx4.edf is admissible");
    assert_eq!(lib.width, 4);

    let corrupted = std::fs::read("examples/libraries/corrupted.v").expect("fixture");
    match carma_import::parse_library(&corrupted, ImportFormat::Verilog, "corrupted.v") {
        Err(ImportFailure::Rejected {
            module,
            diagnostics,
            ..
        }) => {
            assert_eq!(module, "mul8_truncated");
            assert!(
                diagnostics.iter().any(|d| d.contains("FloatingInput")),
                "rejects carry the lint diagnostics: {diagnostics:?}"
            );
        }
        other => panic!("corrupted.v must be rejected: {other:?}"),
    }
}

// ─── resolve-time error surfacing ───────────────────────────────────

#[test]
fn resolve_surfaces_import_errors_descriptively() {
    let reg = registry();

    // `family: "imported"` without a library path: an error, not a panic.
    let no_path = ScenarioSpec::named("fig2").with_family("imported");
    assert!(matches!(
        no_path.resolve(reg, None, None),
        Err(ScenarioError::MissingLibraryPath)
    ));

    // The unknown-family message lists every accepted value.
    let unknown = ScenarioSpec::named("fig2").with_family("booth");
    let msg = unknown
        .resolve(reg, None, None)
        .expect_err("rejects")
        .to_string();
    for accepted in ["ladder", "classic", "evolved", "imported"] {
        assert!(msg.contains(accepted), "`{accepted}` missing from: {msg}");
    }

    // A library path under a builtin family is contradictory.
    let contradictory = ScenarioSpec::named("fig2")
        .with_family("classic")
        .with_library("examples/libraries/approx8.v");
    assert!(matches!(
        contradictory.resolve(reg, None, None),
        Err(ScenarioError::LibraryNeedsImportedFamily(_))
    ));

    let unreadable = imported_spec("fig2", "examples/libraries/no_such_file.v");
    assert!(matches!(
        unreadable.resolve(reg, None, None),
        Err(ScenarioError::LibraryUnreadable { .. })
    ));

    let unknown_ext = imported_spec("fig2", "README.md");
    assert!(matches!(
        unknown_ext.resolve(reg, None, None),
        Err(ScenarioError::LibraryUnknownFormat(_))
    ));

    let dir = std::env::temp_dir().join(format!("carma_import_api_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let garbled = dir.join("garbled.v");
    std::fs::write(&garbled, "module m (a&&&").expect("write");
    let malformed = imported_spec("fig2", garbled.to_str().expect("utf-8 path"));
    let err = malformed
        .resolve(reg, None, None)
        .expect_err("malformed rejects");
    assert!(matches!(err, ScenarioError::LibraryMalformed { .. }));
    assert!(err.to_string().contains("line"), "parser line info: {err}");

    // The admission-gate reject carries the lint diagnostics.
    let rejected = imported_spec("fig2", "examples/libraries/corrupted.v");
    match rejected.resolve(reg, None, None) {
        Err(ScenarioError::LibraryRejected {
            module,
            diagnostics,
            ..
        }) => {
            assert_eq!(module, "mul8_truncated");
            assert!(diagnostics.iter().any(|d| d.contains("FloatingInput")));
        }
        other => panic!("expected LibraryRejected, got {other:?}"),
    }

    // Non-8-bit imports only fit experiments that never build a
    // context (`lint`); everything else errors at resolve time.
    let narrow_run = imported_spec("fig2", "examples/libraries/approx4.edf");
    assert!(matches!(
        narrow_run.resolve(reg, None, None),
        Err(ScenarioError::LibraryWidthUnsupported { width: 4, .. })
    ));
    let narrow_lint = imported_spec("lint", "examples/libraries/approx4.edf");
    assert!(narrow_lint.resolve(reg, None, None).is_ok());

    let _ = std::fs::remove_dir_all(&dir);
}

// ─── content-hash identity ──────────────────────────────────────────

#[test]
fn imported_identity_is_content_not_path() {
    let reg = registry();
    let dir = std::env::temp_dir().join(format!("carma_import_hash_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let text = std::fs::read_to_string("examples/libraries/approx8.v").expect("fixture");
    let a = dir.join("a.v");
    let renamed = dir.join("renamed.v");
    let edited = dir.join("edited.v");
    std::fs::write(&a, &text).expect("write");
    std::fs::write(&renamed, &text).expect("write");
    std::fs::write(&edited, format!("{text}\n// tweak\n")).expect("write");

    let resolve = |path: &std::path::Path| {
        imported_spec("fig2", path.to_str().expect("utf-8 path"))
            .resolve(reg, None, None)
            .expect("resolves")
    };
    let (ra, rb, rc) = (resolve(&a), resolve(&renamed), resolve(&edited));

    // Renames keep the fingerprint (and thus every cache key); edits
    // move it — even a comment-only edit, because identity is the
    // file bytes, not the parsed structure.
    assert_eq!(ra.fingerprint(), rb.fingerprint());
    assert_ne!(ra.fingerprint(), rc.fingerprint());
    assert!(ra.canonical_json().contains("\"family\":\"imported\""));
    assert!(ra
        .canonical_json()
        .contains(&carma_import::content_hash(text.as_bytes())));

    // The resolved source snapshot carries the admitted modules: the
    // file is never re-read after resolve (no TOCTOU window).
    match ra.source.as_ref().expect("imported source") {
        LibrarySource::Imported(src) => {
            assert_eq!(src.library.modules.len(), 3);
            assert_eq!(src.path, a.to_str().expect("utf-8"));
        }
        other => panic!("expected imported source, got {other:?}"),
    }

    let _ = std::fs::remove_dir_all(&dir);
}

// ─── an imported library runs end to end ────────────────────────────

#[test]
fn imported_library_runs_fig2_end_to_end() {
    let reg = registry();
    let spec = ScenarioSpec::from_json(
        &std::fs::read_to_string("examples/scenarios/fig2_imported_quick.json").expect("spec"),
    )
    .expect("parses");
    let report = reg.run_with(&spec, None, Some(2)).expect("runs");
    assert_eq!(report.experiment, "fig2");
    assert!(!report.artifacts.is_empty());

    // The lint experiment covers imported sources too, tagging rows
    // with the `imported` family column.
    let lint = imported_spec("lint", "examples/libraries/approx8.v");
    let report = reg.run_with(&lint, None, Some(2)).expect("lints");
    let rows = report
        .artifacts
        .iter()
        .find_map(|a| match a {
            carma_core::scenario::Artifact::Lint(rows) => Some(rows),
            _ => None,
        })
        .expect("lint artifact");
    assert!(rows.iter().all(|row| row.family == "imported"));
    // The synthesized exact reference plus the three admitted modules.
    assert_eq!(rows.len(), 4);
    assert!(rows.iter().any(|row| row.circuit == "exact8"));
    assert!(rows.iter().all(|row| row.errors == 0));
    assert!(rows.iter().all(|row| row.sound));
}
