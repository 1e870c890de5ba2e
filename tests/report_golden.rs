//! Byte identity of every report `carma run` prints, pinned as one
//! FNV-1a 64 digest per output. The outputs are each registry
//! experiment at `--scale quick` and each `examples/scenarios` spec,
//! rendered to the stdout bytes of `--out json`, `--out csv`,
//! `--out text` and `--fingerprint`; all runs share one
//! `RunEnv::standard()`. An ignored test pins every registry
//! experiment at `--scale full` the same way; it takes seconds in
//! release and much longer in the test profile:
//!
//! ```text
//! cargo test --release --test report_golden -- --ignored
//! ```
//!
//! A change meant to keep output byte-identical leaves every digest in
//! place. On a mismatch the test names each (run, sink) that moved and
//! prints the whole table, to paste back once moving the output is the
//! intent.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use carma_core::scenario::{banner_text, ExperimentRegistry, Scale, ScenarioSpec};
use carma_core::RunEnv;

/// `(run, sink, digest)`; `run` is an experiment name or a spec file
/// name.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, u64)] = &[
    ("ablation_family", "csv", 0x15c11bd13f496f1f),
    ("ablation_family", "fingerprint", 0x828b425d3beee1f8),
    ("ablation_family", "json", 0x9bedd81d2289c085),
    ("ablation_family", "text", 0x3a9bf098e0c56ac5),
    ("ablation_grid", "csv", 0x38b1e4ab597ca8fb),
    ("ablation_grid", "fingerprint", 0x4e8dc11b6bc01ed6),
    ("ablation_grid", "json", 0xb5dbb06b5d84d019),
    ("ablation_grid", "text", 0x28a132a3a90c35ab),
    ("ablation_metric", "csv", 0xcca21eaa00b2ff88),
    ("ablation_metric", "fingerprint", 0xeffc1c0bf9f44a86),
    ("ablation_metric", "json", 0x2543d4fd0cb9797d),
    ("ablation_metric", "text", 0x102aadc30bb00651),
    ("ablation_metric_quick.json", "csv", 0x7b72fd2991726e68),
    ("ablation_metric_quick.json", "fingerprint", 0xf507934c5e589a41),
    ("ablation_metric_quick.json", "json", 0xa5b8ea4c7e9cf3bd),
    ("ablation_metric_quick.json", "text", 0x2e76fd7786bfc294),
    ("ablation_search", "csv", 0xeb3f39301fb7bc1e),
    ("ablation_search", "fingerprint", 0xd735a08aec3411d6),
    ("ablation_search", "json", 0xd331d66efee01114),
    ("ablation_search", "text", 0x585f362da98926de),
    ("ablation_yield", "csv", 0x96249eb11a79fcb1),
    ("ablation_yield", "fingerprint", 0x510735c97785f1ee),
    ("ablation_yield", "json", 0xb9312112dbde06df),
    ("ablation_yield", "text", 0xc74a130e2d3403c3),
    ("deployment", "csv", 0xe6c568fc39f50677),
    ("deployment", "fingerprint", 0xa024b00b56e23095),
    ("deployment", "json", 0xf061ca12cb82ca99),
    ("deployment", "text", 0x6894fc898317a489),
    ("deployment_quick.json", "csv", 0xc76951323bdd078d),
    ("deployment_quick.json", "fingerprint", 0xbb3c7d27d6bcd634),
    ("deployment_quick.json", "json", 0x0eea0edd663ff6b4),
    ("deployment_quick.json", "text", 0x32b3817f308b84c6),
    ("fig2", "csv", 0x3d85c2d8a4a430db),
    ("fig2", "fingerprint", 0x70905a7a02052792),
    ("fig2", "json", 0x90ecf2a218bcc78a),
    ("fig2", "text", 0xf277d85c9bf8bbef),
    ("fig2_imported_quick.json", "csv", 0x75f8caa7ae3d0a1c),
    ("fig2_imported_quick.json", "fingerprint", 0x4322b9ea749b5472),
    ("fig2_imported_quick.json", "json", 0x4700e06273cf3221),
    ("fig2_imported_quick.json", "text", 0xe18cfaff3f0f15b6),
    ("fig2_quick.json", "csv", 0x32369e979d1f7fb7),
    ("fig2_quick.json", "fingerprint", 0x11b6a58975e635dc),
    ("fig2_quick.json", "json", 0xf051cd7e74af483e),
    ("fig2_quick.json", "text", 0x490116efd3199935),
    ("fig3", "csv", 0xedcef8eefc2751a1),
    ("fig3", "fingerprint", 0x8a040d6f5e57c370),
    ("fig3", "json", 0x1612bdbbc13d0e8d),
    ("fig3", "text", 0x422f23ac75a28e26),
    ("lint", "csv", 0x6195b50206be77d4),
    ("lint", "fingerprint", 0x2742a3fc2ee112b3),
    ("lint", "json", 0x727469d64ced8510),
    ("lint", "text", 0xe8847a237c57a21e),
    ("table1", "csv", 0x2ddc6eee808ff59e),
    ("table1", "fingerprint", 0x5a4d31d07f25d720),
    ("table1", "json", 0x488f6a5b1669b8fd),
    ("table1", "text", 0x60f05b7c53dd906b),
    ("table1_quick.json", "csv", 0x169656bd2c51f5e0),
    ("table1_quick.json", "fingerprint", 0x8fa2a8a987942745),
    ("table1_quick.json", "json", 0x81b6ef31a2201555),
    ("table1_quick.json", "text", 0x152c19e8809c6cfa),
];

/// The same for every registry experiment at `--scale full`.
#[rustfmt::skip]
const GOLDEN_FULL: &[(&str, &str, u64)] = &[
    ("ablation_family", "csv", 0xf181b84d70b88fba),
    ("ablation_family", "fingerprint", 0xedea11bc1b853b49),
    ("ablation_family", "json", 0xa80a9d693c45a305),
    ("ablation_family", "text", 0x9f78230d48d74eda),
    ("ablation_grid", "csv", 0x1e7db01fac0508f2),
    ("ablation_grid", "fingerprint", 0xad4096ee8e83fe4a),
    ("ablation_grid", "json", 0x36b06dbb319f9b15),
    ("ablation_grid", "text", 0x991ca7d948e3b1ac),
    ("ablation_metric", "csv", 0x96635c5e8ddc807a),
    ("ablation_metric", "fingerprint", 0xd1db63ca26e5a484),
    ("ablation_metric", "json", 0xab07bfe617af2c2e),
    ("ablation_metric", "text", 0x9d5f4fb8f426a887),
    ("ablation_search", "csv", 0xfdd91a27ecde0658),
    ("ablation_search", "fingerprint", 0xc2f18ce4e662264c),
    ("ablation_search", "json", 0x5a091876929efd38),
    ("ablation_search", "text", 0xcb428c9ef3e71bca),
    ("ablation_yield", "csv", 0x7009715f8285d3c9),
    ("ablation_yield", "fingerprint", 0x0309bd224a8a1229),
    ("ablation_yield", "json", 0xfe68bdbcc0eeefde),
    ("ablation_yield", "text", 0x834e763a71dbff8f),
    ("deployment", "csv", 0x994bdbfaecce3387),
    ("deployment", "fingerprint", 0x8dfa824d6a3e0a26),
    ("deployment", "json", 0x4b387e9cf787dceb),
    ("deployment", "text", 0xe41ace843bdba89b),
    ("fig2", "csv", 0x7df5c62cfefd4e32),
    ("fig2", "fingerprint", 0x5c1fe8de294575f1),
    ("fig2", "json", 0xff5f6b5744d3ae43),
    ("fig2", "text", 0x23a7986d298f063e),
    ("fig3", "csv", 0x58b5bbfff7a4b9be),
    ("fig3", "fingerprint", 0xc09d539274ebd3c3),
    ("fig3", "json", 0xf1cfb9feb562157b),
    ("fig3", "text", 0x76e9b7143ccd9378),
    ("lint", "csv", 0x4137455cabe55d7f),
    ("lint", "fingerprint", 0x4d5c255929989131),
    ("lint", "json", 0x250d5660841b2b29),
    ("lint", "text", 0x823c678a49d2ab9f),
    ("table1", "csv", 0x9dd4d9ebc6d05019),
    ("table1", "fingerprint", 0xb4ebc5fe5821b209),
    ("table1", "json", 0x19d7669a326a0e03),
    ("table1", "text", 0xab4afdf90e5ebf22),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What `carma run` writes to stdout for each sink of `spec`.
fn sinks(
    registry: &ExperimentRegistry,
    env: &RunEnv,
    spec: &ScenarioSpec,
    cli_scale: Option<Scale>,
) -> [(&'static str, String); 4] {
    let resolved = spec
        .resolve(registry, cli_scale, None)
        .expect("spec resolves");
    let report = registry
        .run_with_env(spec, cli_scale, None, env)
        .expect("spec runs");
    [
        ("json", report.to_json() + "\n"),
        ("csv", report.to_csv()),
        (
            "text",
            banner_text(&resolved.title, resolved.scale)
                + &report.tables_text()
                + &report.notes_text(),
        ),
        ("fingerprint", resolved.fingerprint() + "\n"),
    ]
}

#[test]
fn every_report_matches_its_golden_digest() {
    let registry = ExperimentRegistry::standard();
    let mut runs: Vec<(String, ScenarioSpec, Option<Scale>)> = registry
        .names()
        .map(|name| {
            (
                name.to_string(),
                ScenarioSpec::named(name),
                Some(Scale::Quick),
            )
        })
        .collect();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("examples/scenarios is readable")
        .map(|entry| {
            entry
                .expect("directory entry")
                .file_name()
                .into_string()
                .expect("UTF-8 name")
        })
        .collect();
    files.sort();
    for file in files {
        let text = std::fs::read_to_string(dir.join(&file)).expect("spec is readable");
        let spec = ScenarioSpec::from_json(&text).expect("spec parses");
        runs.push((file, spec, None));
    }

    assert_digests(GOLDEN, &runs);
}

/// Full scale's larger GA budgets visit accelerators that quick scale
/// never prices.
#[test]
#[ignore = "full scale: run in release with `-- --ignored`"]
fn every_full_scale_report_matches_its_golden_digest() {
    let runs: Vec<(String, ScenarioSpec, Option<Scale>)> = ExperimentRegistry::standard()
        .names()
        .map(|name| {
            (
                name.to_string(),
                ScenarioSpec::named(name),
                Some(Scale::Full),
            )
        })
        .collect();
    assert_digests(GOLDEN_FULL, &runs);
}

/// Renders every sink of every run over one shared environment and
/// asserts each digest equals its `golden` entry, naming every
/// (run, sink) that moved and printing the new table.
fn assert_digests(golden: &[(&str, &str, u64)], runs: &[(String, ScenarioSpec, Option<Scale>)]) {
    let registry = ExperimentRegistry::standard();
    let env = RunEnv::standard();
    let mut actual = BTreeMap::new();
    for (run, spec, cli_scale) in runs {
        for (sink, bytes) in sinks(&registry, &env, spec, *cli_scale) {
            actual.insert((run.clone(), sink), fnv1a64(bytes.as_bytes()));
        }
    }
    let golden: BTreeMap<(String, &str), u64> = golden
        .iter()
        .map(|&(run, sink, digest)| ((run.to_string(), sink), digest))
        .collect();

    let moved: BTreeSet<String> = golden
        .keys()
        .chain(actual.keys())
        .filter(|key| golden.get(*key) != actual.get(*key))
        .map(|(run, sink)| format!("{run} {sink}"))
        .collect();
    let table: String = actual
        .iter()
        .map(|((run, sink), digest)| format!("    ({run:?}, {sink:?}, {digest:#018x}),\n"))
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} outputs moved: {}\nactual digests:\n{table}",
        moved.len(),
        actual.len(),
        Vec::from_iter(moved).join(", ")
    );
}
