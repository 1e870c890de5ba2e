//! The stage-level memo layer: canonical keys and durable payload
//! codecs binding the generic [`carma_memo::MemoStore`] to the CARMA
//! compute graph.
//!
//! Four stages are memoized (see the crate-level docs of
//! `carma-memo`): the characterized multiplier **library**, the
//! node-free **context** seed (accuracy-drop table), per-experiment
//! **cells** (one sweep or GA result), and whole **reports** (the
//! rendered JSON `carma serve` answers with). Each stage's canonical
//! JSON names exactly the inputs that determine its output — thread
//! count excluded — following the
//! [`ResolvedScenario::canonical_json`] discipline, and each durable
//! payload encodes every `f64`/`u64` as IEEE-754/integer hex bits so a
//! disk round trip is bit-identical to the in-memory value.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use carma_carbon::{CarbonMass, CarbonModel, DeploymentProfile, Package, YieldModel};
use carma_dataflow::Accelerator;
use carma_dnn::EvaluatorConfig;
use carma_ga::GaConfig;
use carma_memo::{f64_from_hex, f64_hex, u64_from_hex, u64_hex, MemoStats, MemoStore, Stage};
use carma_multiplier::{
    ApproxGenome, CircuitRecipe, LibraryConfig, MultiplierLibrary, Prune, PruneAction,
    ReductionKind,
};
use carma_netlist::{Area, ImportFormat, TechNode};
use serde::json::{to_string as js, Value};

use crate::context::{CarmaContext, ContextSeed, DesignEval, PerfCache};
use crate::flow::SweepPoint;
use crate::scenario::{Family, LibrarySource, ResolvedScenario};

/// The shared memo handle a run reads through: CLI, serve workers and
/// registry runners all hold clones of one layer, so overlapping
/// scenarios share library/context/cell work within and (with a disk
/// dir) across processes. The layer also owns the perf cache that
/// every context it builds evaluates through.
#[derive(Clone)]
pub struct MemoLayer {
    store: Arc<MemoStore>,
    perf: Arc<PerfCache>,
}

impl std::fmt::Debug for MemoLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoLayer")
            .field("disk", &self.store.has_disk())
            .finish()
    }
}

impl MemoLayer {
    /// A process-local layer (no disk tier).
    pub fn in_memory() -> Self {
        Self::over(MemoStore::in_memory())
    }

    /// A layer mirrored to `dir` (`carma run --memo-dir`,
    /// `carma serve --memo-dir`).
    pub fn with_disk(dir: PathBuf) -> io::Result<Self> {
        Ok(Self::over(MemoStore::with_disk(dir)?))
    }

    fn over(store: MemoStore) -> Self {
        MemoLayer {
            store: Arc::new(store),
            perf: Arc::new(PerfCache::new()),
        }
    }

    /// Hit/miss counters per stage.
    pub fn stats(&self) -> MemoStats {
        self.store.stats()
    }

    /// The characterized library of `(scenario, source)`, through the
    /// memo. Imported sources key on the content hash of the library
    /// file's bytes, so a rename hits and an edit misses.
    pub fn library_from(
        &self,
        r: &ResolvedScenario,
        source: &LibrarySource,
    ) -> Arc<MultiplierLibrary> {
        self.store.get_or_compute(
            Stage::Library,
            &library_source_canon(r, source),
            encode_library,
            decode_library,
            || r.library_from(source),
        )
    }

    /// The evaluation context of `(scenario, source, node)`, read
    /// through the memo: the library stage feeds the node-free context
    /// stage, and the returned context carries the store and context
    /// key that address its cell-stage lookups.
    pub fn context_from(
        &self,
        r: &ResolvedScenario,
        source: &LibrarySource,
        node: TechNode,
    ) -> CarmaContext {
        let lib_canon = library_source_canon(r, source);
        let library = self.store.get_or_compute(
            Stage::Library,
            &lib_canon,
            encode_library,
            decode_library,
            || r.library_from(source),
        );
        let ctx_canon = context_canon(&carma_memo::fingerprint(&lib_canon), &r.evaluator());
        let context_key = carma_memo::fingerprint(&ctx_canon);
        let seed = self.store.get_or_compute_keyed(
            Stage::Context,
            &context_key,
            ContextSeed::encode,
            |text| ContextSeed::decode(text, &library),
            || ContextSeed::characterize(&library, r.evaluator()),
        );
        CarmaContext::assemble(
            node,
            library,
            &seed,
            Arc::clone(&self.perf),
            Some((Arc::clone(&self.store), context_key)),
        )
    }

    /// [`Self::context_from`] at the scenario's resolved source.
    pub fn context(&self, r: &ResolvedScenario, node: TechNode) -> CarmaContext {
        self.context_from(r, &r.library_source(), node)
    }

    /// The stored report JSON of the scenario with `fingerprint`
    /// (`carma serve`'s result cache): memory first, then the disk
    /// tier. Counted in the report stage. A disk entry that is not a
    /// JSON object whose `experiment` member is `experiment` is a miss,
    /// never served.
    pub fn report(&self, fingerprint: &str, experiment: &str) -> Option<Arc<String>> {
        self.store.get(Stage::Report, fingerprint, |text| {
            decode_report(text, experiment)
        })
    }

    /// [`Self::report`] from memory only, uncounted: the recheck that
    /// follows a counted miss in the same request.
    pub fn peek_report(&self, fingerprint: &str) -> Option<Arc<String>> {
        self.store.peek(Stage::Report, fingerprint)
    }

    /// Stores `json` as the report of `fingerprint`, in memory and
    /// (with a disk tier) as `<dir>/report/<fingerprint>.json`.
    pub fn put_report(&self, fingerprint: &str, mut json: String) -> Arc<String> {
        // Reports stay in memory for the server's lifetime: drop the
        // renderer's spare capacity (up to half the allocation).
        json.shrink_to_fit();
        self.store
            .put(Stage::Report, fingerprint, json, ToString::to_string)
    }
}

// ---------------------------------------------------------------------
// Canonical stage keys
// ---------------------------------------------------------------------

/// Canonical JSON of the **library** stage key: family, width and the
/// exact knobs that shape that family's construction. The evolved
/// family additionally depends on the NSGA-II budget and seed; the
/// `v` field versions the key against semantic changes to the
/// constructors themselves.
pub fn library_canon(r: &ResolvedScenario, family: Family) -> String {
    match family {
        Family::Ladder | Family::Classic => format!(
            "{{\"stage\":\"library\",\"v\":1,\"family\":{},\"width\":8,\"depth\":{}}}",
            js(family.as_str()),
            r.depth()
        ),
        Family::Evolved => {
            let (pop, gens) = r.scale.library_nsga_budget();
            let base = LibraryConfig::default();
            format!(
                "{{\"stage\":\"library\",\"v\":1,\"family\":\"evolved\",\"width\":8,\
                 \"max_truncation\":{},\"max_prunes\":{},\"nsga_population\":{pop},\
                 \"nsga_generations\":{gens},\"nsga_seed\":{}}}",
                r.library_depth.unwrap_or(base.max_truncation),
                base.max_prunes,
                0xFA31u64,
            )
        }
    }
}

/// Canonical JSON of the **library** stage key for any source. For a
/// builtin family this is [`library_canon`]; for an imported source
/// the key names the format, the width, and a content hash of the
/// file bytes — never the path — so renaming the file keeps the memo
/// hit while editing the file invalidates it.
pub fn library_source_canon(r: &ResolvedScenario, source: &LibrarySource) -> String {
    match source {
        LibrarySource::Builtin(family) => library_canon(r, *family),
        LibrarySource::Imported(src) => format!(
            "{{\"stage\":\"library\",\"v\":1,\"family\":\"imported\",\"format\":{},\
             \"bytes\":{},\"width\":{}}}",
            js(src.library.format.as_str()),
            js(&src.library.content_hash),
            src.library.width,
        ),
    }
}

/// Canonical JSON of the **context** stage key: the library it wraps
/// (by fingerprint) and the full accuracy-evaluator calibration —
/// exactly what [`ContextSeed::characterize`] reads. Model- and
/// node-independent by construction: one context seed serves every
/// DNN on every node (the node shapes cells instead).
pub fn context_canon(library_key: &str, evaluator: &EvaluatorConfig) -> String {
    format!(
        "{{\"stage\":\"context\",\"v\":1,\"library\":{},\
         \"evaluator\":{{\"samples\":{},\"classes\":{},\"input_hw\":{},\
         \"noise\":{},\"seed\":{}}}}}",
        js(library_key),
        evaluator.samples,
        evaluator.classes,
        evaluator.input_hw,
        evaluator.noise,
        evaluator.seed,
    )
}

/// Canonical JSON of a carbon model — part of every **cell** key,
/// because the grid/yield ablations swap the model between cells on
/// one context. Floats are hex bits: the key must move iff the priced
/// results can.
pub fn carbon_canon(model: &CarbonModel) -> String {
    let yield_json = match model.yield_model {
        YieldModel::Poisson => "\"poisson\"".to_string(),
        YieldModel::Murphy => "\"murphy\"".to_string(),
        YieldModel::NegativeBinomial { alpha } => {
            format!("{{\"neg_binomial_alpha\":\"{}\"}}", f64_hex(alpha))
        }
    };
    format!(
        "{{\"node\":{},\"fab\":{{\"epa\":\"{}\",\"gpa\":\"{}\",\"mpa\":\"{}\",\"d0\":\"{}\"}},\
         \"grid_g_per_kwh\":\"{}\",\"yield\":{yield_json},\
         \"wafer\":{{\"diameter_mm\":\"{}\",\"edge_mm\":\"{}\"}}}}",
        js(&model.fab.node.to_string()),
        f64_hex(model.fab.epa_kwh_per_cm2),
        f64_hex(model.fab.gpa_g_per_cm2),
        f64_hex(model.fab.mpa_g_per_cm2),
        f64_hex(model.fab.defect_density_per_cm2),
        f64_hex(model.grid.grams_per_kwh()),
        f64_hex(model.wafer.diameter_mm),
        f64_hex(model.wafer.edge_exclusion_mm),
    )
}

/// Canonical JSON of a deployment profile — included in a cell key
/// only when the fitness actually reads it (the `total-carbon`
/// objective); Cdp/Cep/Edp ignore the profile, so leaving it out of
/// their keys maximizes cross-profile reuse while staying exact.
pub fn profile_canon(profile: &DeploymentProfile) -> String {
    let package = match profile.package {
        Package::Monolithic => "monolithic",
        Package::Interposer2_5d => "interposer-2.5d",
    };
    format!(
        "{{\"grid_g_per_kwh\":\"{}\",\"lifetime_hours\":\"{}\",\"utilization\":\"{}\",\
         \"package\":{},\"dram_gb\":\"{}\"}}",
        f64_hex(profile.grid.grams_per_kwh()),
        f64_hex(profile.lifetime_hours),
        f64_hex(profile.utilization),
        js(package),
        f64_hex(profile.dram_gb),
    )
}

/// Canonical JSON of a GA configuration (all seven knobs; the seed as
/// hex so every u64 survives).
pub fn ga_canon(ga: &GaConfig) -> String {
    format!(
        "{{\"population\":{},\"generations\":{},\"tournament\":{},\"crossover_rate\":\"{}\",\
         \"mutation_rate\":\"{}\",\"elites\":{},\"seed\":\"{}\"}}",
        ga.population,
        ga.generations,
        ga.tournament,
        f64_hex(ga.crossover_rate),
        f64_hex(ga.mutation_rate),
        ga.elites,
        u64_hex(ga.seed),
    )
}

/// Canonical JSON of a constraint pair (hex bits).
pub fn constraints_canon(c: &crate::flow::Constraints) -> String {
    format!(
        "{{\"min_fps\":\"{}\",\"max_accuracy_drop\":\"{}\"}}",
        f64_hex(c.min_fps),
        f64_hex(c.max_accuracy_drop),
    )
}

// ---------------------------------------------------------------------
// Durable payload codecs (hex-bits numbers; decode failure = miss)
// ---------------------------------------------------------------------

fn field_f64_bits(v: &Value, key: &str) -> Option<f64> {
    f64_from_hex(v.get(key)?.as_str()?)
}

fn field_u64_bits(v: &Value, key: &str) -> Option<u64> {
    u64_from_hex(v.get(key)?.as_str()?)
}

/// A plain (small) JSON integer: finite, non-negative, integral and
/// inside the f64-exact range.
fn field_uint(v: &Value, key: &str) -> Option<u64> {
    let f = v.get(key)?.as_f64()?;
    (f.is_finite() && (0.0..=9.007_199_254_740_992e15).contains(&f) && f.fract() == 0.0)
        .then_some(f as u64)
}

fn non_negative(v: f64) -> Option<f64> {
    (v.is_finite() && v >= 0.0).then_some(v)
}

fn recipe_json(recipe: &CircuitRecipe) -> String {
    match recipe {
        CircuitRecipe::Exact => "{\"t\":\"exact\"}".to_string(),
        CircuitRecipe::Truncation { a, b } => format!("{{\"t\":\"trunc\",\"a\":{a},\"b\":{b}}}"),
        CircuitRecipe::BrokenArray { omit } => format!("{{\"t\":\"bam\",\"omit\":{omit}}}"),
        CircuitRecipe::TruncCorrect { omit } => format!("{{\"t\":\"tcc\",\"omit\":{omit}}}"),
        CircuitRecipe::Genome(g) => {
            let prunes: Vec<String> = g
                .prunes
                .iter()
                .map(|p| {
                    let action = match p.action {
                        PruneAction::Const0 => "const0",
                        PruneAction::Const1 => "const1",
                        PruneAction::FeedA => "feed-a",
                        PruneAction::FeedB => "feed-b",
                    };
                    format!("[{},{}]", p.gate, js(action))
                })
                .collect();
            format!(
                "{{\"t\":\"genome\",\"ta\":{},\"tb\":{},\"prunes\":[{}]}}",
                g.truncate_a,
                g.truncate_b,
                prunes.join(",")
            )
        }
        CircuitRecipe::Imported { verilog } => {
            format!("{{\"t\":\"imported\",\"verilog\":{}}}", js(verilog))
        }
    }
}

/// `width` is the library width the decoded recipe must build at:
/// imported recipes re-parse their Verilog on `build()`, which panics
/// on a corrupt or wrong-width module, so the decoder validates the
/// payload here and turns any mismatch into a memo miss.
fn decode_recipe(v: &Value, width: u32) -> Option<CircuitRecipe> {
    match v.get("t")?.as_str()? {
        "exact" => Some(CircuitRecipe::Exact),
        "trunc" => Some(CircuitRecipe::Truncation {
            a: u8::try_from(field_uint(v, "a")?).ok()?,
            b: u8::try_from(field_uint(v, "b")?).ok()?,
        }),
        "bam" => Some(CircuitRecipe::BrokenArray {
            omit: u32::try_from(field_uint(v, "omit")?).ok()?,
        }),
        "tcc" => Some(CircuitRecipe::TruncCorrect {
            omit: u32::try_from(field_uint(v, "omit")?).ok()?,
        }),
        "genome" => {
            let mut prunes = Vec::new();
            for p in v.get("prunes")?.as_array()? {
                let pair = p.as_array()?;
                if pair.len() != 2 {
                    return None;
                }
                let gate = u32::try_from(pair[0].as_f64().and_then(|f| {
                    (f.is_finite() && f >= 0.0 && f.fract() == 0.0).then_some(f as u64)
                })?)
                .ok()?;
                let action = match pair[1].as_str()? {
                    "const0" => PruneAction::Const0,
                    "const1" => PruneAction::Const1,
                    "feed-a" => PruneAction::FeedA,
                    "feed-b" => PruneAction::FeedB,
                    _ => return None,
                };
                prunes.push(Prune { gate, action });
            }
            Some(CircuitRecipe::Genome(ApproxGenome {
                truncate_a: u8::try_from(field_uint(v, "ta")?).ok()?,
                truncate_b: u8::try_from(field_uint(v, "tb")?).ok()?,
                prunes,
            }))
        }
        "imported" => {
            let verilog = v.get("verilog")?.as_str()?;
            let mut modules = carma_netlist::parse_netlists(verilog, ImportFormat::Verilog).ok()?;
            if modules.len() != 1 {
                return None;
            }
            let netlist = modules.pop()?;
            let w = usize::try_from(width).ok()?;
            if netlist.input_count() != 2 * w || netlist.output_count() != 2 * w {
                return None;
            }
            Some(CircuitRecipe::Imported {
                verilog: verilog.to_string(),
            })
        }
        _ => None,
    }
}

fn profile_json(p: &carma_multiplier::ErrorProfile) -> String {
    format!(
        "{{\"width\":{},\"er\":\"{}\",\"med\":\"{}\",\"nmed\":\"{}\",\"mred\":\"{}\",\
         \"wce\":\"{}\",\"bias\":\"{}\",\"var\":\"{}\"}}",
        p.width,
        f64_hex(p.error_rate),
        f64_hex(p.med),
        f64_hex(p.nmed),
        f64_hex(p.mred),
        u64_hex(p.wce),
        f64_hex(p.bias),
        f64_hex(p.variance),
    )
}

fn decode_profile(v: &Value) -> Option<carma_multiplier::ErrorProfile> {
    Some(carma_multiplier::ErrorProfile {
        width: u32::try_from(field_uint(v, "width")?).ok()?,
        error_rate: field_f64_bits(v, "er")?,
        med: field_f64_bits(v, "med")?,
        nmed: field_f64_bits(v, "nmed")?,
        mred: field_f64_bits(v, "mred")?,
        wce: field_u64_bits(v, "wce")?,
        bias: field_f64_bits(v, "bias")?,
        variance: field_f64_bits(v, "var")?,
    })
}

/// Durable library payload: `(name, recipe, profile)` triples in
/// library order. Circuits are not stored — they rebuild
/// deterministically from their recipes (`MultiplierLibrary::from_parts`),
/// which is orders of magnitude cheaper than re-characterizing.
pub(crate) fn encode_library(lib: &MultiplierLibrary) -> String {
    let entries: Vec<String> = lib
        .entries()
        .iter()
        .map(|e| {
            format!(
                "[{},{},{}]",
                js(&e.name),
                recipe_json(&e.recipe),
                profile_json(&e.profile)
            )
        })
        .collect();
    format!(
        "{{\"v\":1,\"width\":{},\"kind\":\"dadda\",\"entries\":[{}]}}",
        lib.width(),
        entries.join(",")
    )
}

pub(crate) fn decode_library(text: &str) -> Option<MultiplierLibrary> {
    let v = serde::json::parse(text).ok()?;
    if v.get("v")?.as_f64()? != 1.0 || v.get("kind")?.as_str()? != "dadda" {
        return None;
    }
    let width = u32::try_from(field_uint(&v, "width")?).ok()?;
    if !(1..=10).contains(&width) {
        return None;
    }
    let mut parts = Vec::new();
    for entry in v.get("entries")?.as_array()? {
        let triple = entry.as_array()?;
        if triple.len() != 3 {
            return None;
        }
        parts.push((
            triple[0].as_str()?.to_string(),
            decode_recipe(&triple[1], width)?,
            decode_profile(&triple[2])?,
        ));
    }
    if parts.is_empty() {
        return None;
    }
    Some(MultiplierLibrary::from_parts(
        width,
        ReductionKind::Dadda,
        &parts,
    ))
}

fn accel_json(a: &Accelerator) -> String {
    format!(
        "{{\"pe_width\":{},\"pe_height\":{},\"local_rf_bytes\":{},\"global_buffer_kib\":{},\
         \"node\":{}}}",
        a.pe_width,
        a.pe_height,
        a.local_rf_bytes,
        a.global_buffer_kib,
        js(&a.node.to_string()),
    )
}

fn decode_accel(v: &Value) -> Option<Accelerator> {
    Some(Accelerator {
        pe_width: u32::try_from(field_uint(v, "pe_width")?).ok()?,
        pe_height: u32::try_from(field_uint(v, "pe_height")?).ok()?,
        local_rf_bytes: u32::try_from(field_uint(v, "local_rf_bytes")?).ok()?,
        global_buffer_kib: u32::try_from(field_uint(v, "global_buffer_kib")?).ok()?,
        node: v.get("node")?.as_str()?.parse::<TechNode>().ok()?,
    })
}

fn eval_json(e: &DesignEval) -> String {
    format!(
        "{{\"accel\":{},\"mult_idx\":{},\"multiplier\":{},\"fps\":\"{}\",\
         \"die_area_um2\":\"{}\",\"embodied_g\":\"{}\",\"cdp\":\"{}\",\"latency_s\":\"{}\",\
         \"energy_j\":\"{}\",\"accuracy_drop\":\"{}\"}}",
        accel_json(&e.accelerator),
        e.mult_idx,
        js(&e.multiplier),
        f64_hex(e.fps),
        f64_hex(e.die_area.as_um2()),
        f64_hex(e.embodied.as_grams()),
        f64_hex(e.cdp),
        f64_hex(e.latency_s),
        f64_hex(e.energy_j),
        f64_hex(e.accuracy_drop),
    )
}

fn decode_eval_value(v: &Value) -> Option<DesignEval> {
    Some(DesignEval {
        accelerator: decode_accel(v.get("accel")?)?,
        mult_idx: usize::try_from(field_uint(v, "mult_idx")?).ok()?,
        multiplier: v.get("multiplier")?.as_str()?.to_string(),
        fps: field_f64_bits(v, "fps")?,
        // Area/CarbonMass constructors assert finite ≥ 0; a poisoned
        // payload must decode to None, never panic mid-run.
        die_area: Area::from_um2(non_negative(field_f64_bits(v, "die_area_um2")?)?),
        embodied: CarbonMass::from_grams(non_negative(field_f64_bits(v, "embodied_g")?)?),
        cdp: field_f64_bits(v, "cdp")?,
        latency_s: field_f64_bits(v, "latency_s")?,
        energy_j: field_f64_bits(v, "energy_j")?,
        accuracy_drop: field_f64_bits(v, "accuracy_drop")?,
    })
}

/// Durable cell payload: one GA result.
pub(crate) fn encode_eval(e: &DesignEval) -> String {
    format!("{{\"v\":1,\"eval\":{}}}", eval_json(e))
}

pub(crate) fn decode_eval(text: &str) -> Option<DesignEval> {
    let v = serde::json::parse(text).ok()?;
    if v.get("v")?.as_f64()? != 1.0 {
        return None;
    }
    decode_eval_value(v.get("eval")?)
}

/// Durable cell payload: one baseline sweep.
pub(crate) fn encode_sweep(points: &[SweepPoint]) -> String {
    let cells: Vec<String> = points
        .iter()
        .map(|p| format!("{{\"macs\":{},\"eval\":{}}}", p.macs, eval_json(&p.eval)))
        .collect();
    format!("{{\"v\":1,\"points\":[{}]}}", cells.join(","))
}

pub(crate) fn decode_sweep(text: &str) -> Option<Vec<SweepPoint>> {
    let v = serde::json::parse(text).ok()?;
    if v.get("v")?.as_f64()? != 1.0 {
        return None;
    }
    let mut points = Vec::new();
    for p in v.get("points")?.as_array()? {
        points.push(SweepPoint {
            macs: u32::try_from(field_uint(p, "macs")?).ok()?,
            eval: decode_eval_value(p.get("eval")?)?,
        });
    }
    Some(points)
}

/// Decodes a stored report: the file text itself, accepted only when
/// it is a JSON object whose `experiment` member names `experiment`.
fn decode_report(text: &str, experiment: &str) -> Option<String> {
    let v = serde::json::parse(text).ok()?;
    (v.get("experiment")?.as_str()? == experiment).then(|| text.to_string())
}

// Context-seed codecs live in `crate::context`, next to the seed's
// private fields.

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ExperimentRegistry, ScenarioSpec};
    use crate::space::DesignPoint;
    use carma_carbon::GridMix;
    use carma_dataflow::NVDLA_MAC_SIZES;
    use carma_dnn::DnnModel;

    fn resolved(experiment: &str) -> ResolvedScenario {
        ScenarioSpec::named(experiment)
            .resolve(&ExperimentRegistry::standard(), None, None)
            .expect("valid spec")
    }

    #[test]
    fn library_canon_tracks_result_shaping_fields_only() {
        let r = resolved("fig2");
        let base = library_canon(&r, Family::Ladder);
        assert_eq!(base, library_canon(&r, Family::Ladder), "stable");

        // Result-changing: family, depth.
        assert_ne!(base, library_canon(&r, Family::Classic));
        let mut deeper = r.clone();
        deeper.library_depth = Some(5);
        assert_ne!(base, library_canon(&deeper, Family::Ladder));

        // Result-neutral: threads, model, GA seed.
        let mut threaded = r.clone();
        threaded.threads = Some(1);
        threaded.ga.seed = 999;
        assert_eq!(base, library_canon(&threaded, Family::Ladder));

        // The evolved key additionally carries the NSGA budget.
        let evolved = library_canon(&r, Family::Evolved);
        assert!(evolved.contains("nsga_population"), "{evolved}");
        let mut quick_vs_full = r.clone();
        quick_vs_full.scale = crate::scenario::Scale::Full;
        assert_ne!(evolved, library_canon(&quick_vs_full, Family::Evolved));
    }

    #[test]
    fn imported_library_canon_keys_on_content_not_path() {
        let r = resolved("fig2");
        // A tiny admissible library: the exact 2-bit multiplier.
        let base = carma_multiplier::MultiplierCircuit::generate(2, ReductionKind::Dadda);
        let mut nl = base.netlist().clone();
        nl.set_name("mul2_copy");
        let text = carma_netlist::to_verilog(&nl);
        let imported = |path: &str, bytes: &[u8]| crate::scenario::ImportedSource {
            path: path.to_string(),
            library: carma_import::parse_library(bytes, ImportFormat::Verilog, path)
                .expect("admissible"),
        };

        let a = LibrarySource::Imported(imported("a.v", text.as_bytes()));
        let canon = library_source_canon(&r, &a);
        assert!(canon.contains("\"family\":\"imported\""), "{canon}");
        assert!(
            canon.contains(&carma_import::content_hash(text.as_bytes())),
            "{canon}"
        );
        assert!(
            !canon.contains("a.v"),
            "path must not shape the key: {canon}"
        );

        // Same bytes under another name: same key (rename-stable).
        let renamed = LibrarySource::Imported(imported("b/renamed.v", text.as_bytes()));
        assert_eq!(canon, library_source_canon(&r, &renamed));

        // Edited bytes under the same name: different key.
        let edited_text = format!("{text}\n// tweak\n");
        let edited = LibrarySource::Imported(imported("a.v", edited_text.as_bytes()));
        assert_ne!(canon, library_source_canon(&r, &edited));

        // Builtin sources keep their legacy keys byte-for-byte.
        assert_eq!(
            library_source_canon(&r, &LibrarySource::Builtin(Family::Ladder)),
            library_canon(&r, Family::Ladder)
        );
    }

    #[test]
    fn imported_recipes_round_trip_and_poisoned_payloads_miss() {
        let base = carma_multiplier::MultiplierCircuit::generate(2, ReductionKind::Dadda);
        let verilog = carma_netlist::to_verilog(base.netlist());
        let recipe = CircuitRecipe::Imported {
            verilog: verilog.clone(),
        };
        let encoded = recipe_json(&recipe);
        assert_eq!(
            decode_recipe(&serde::json::parse(&encoded).expect("json"), 2).as_ref(),
            Some(&recipe)
        );
        // Wrong width, corrupt Verilog, missing field: all miss, never
        // panic (the durable payload is untrusted input).
        let parsed = serde::json::parse(&encoded).expect("json");
        assert_eq!(decode_recipe(&parsed, 4), None);
        for bad in [
            "{\"t\":\"imported\"}".to_string(),
            "{\"t\":\"imported\",\"verilog\":\"module m (\"}".to_string(),
            format!(
                "{{\"t\":\"imported\",\"verilog\":{}}}",
                js(&format!("{verilog}{verilog}"))
            ),
        ] {
            let v = serde::json::parse(&bad).expect("json");
            assert_eq!(decode_recipe(&v, 2), None, "payload: {bad}");
        }
    }

    #[test]
    fn context_canon_tracks_library_node_and_calibration() {
        let r = resolved("fig2");
        let base = context_canon("aa11", &r.evaluator());
        assert_ne!(base, context_canon("bb22", &r.evaluator()));
        let mut more_samples = r.evaluator();
        more_samples.samples += 1;
        assert_ne!(base, context_canon("aa11", &more_samples));
    }

    #[test]
    fn carbon_canon_tracks_grid_and_yield() {
        let base_model = CarbonModel::for_node(TechNode::N7);
        let base = carbon_canon(&base_model);
        assert_ne!(
            base,
            carbon_canon(&CarbonModel::for_node(TechNode::N7).with_grid(GridMix::Coal))
        );
        assert_ne!(
            base,
            carbon_canon(
                &CarbonModel::for_node(TechNode::N7).with_yield_model(YieldModel::Poisson)
            )
        );
        assert_ne!(base, carbon_canon(&CarbonModel::for_node(TechNode::N14)));
    }

    #[test]
    fn library_payload_round_trips_bit_exactly() {
        let r = resolved("fig2");
        let lib = r.library_for(Family::Classic);
        let decoded = decode_library(&encode_library(&lib)).expect("decodes");
        assert_eq!(decoded.len(), lib.len());
        for (a, b) in lib.entries().iter().zip(decoded.entries()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.transistors(), b.transistors());
            assert_eq!(a.profile, b.profile);
            assert_eq!(a.genome, b.genome);
        }
    }

    #[test]
    fn eval_and_sweep_payloads_round_trip_bit_exactly() {
        let ctx = CarmaContext::reduced(TechNode::N7);
        let model = DnnModel::vgg16();
        let points: Vec<SweepPoint> = NVDLA_MAC_SIZES
            .iter()
            .map(|&m| {
                let eval = ctx.evaluate(&DesignPoint::nvdla_like(m), &model);
                SweepPoint { macs: m, eval }
            })
            .collect();
        let eval = points[0].eval.clone();
        assert_eq!(decode_eval(&encode_eval(&eval)), Some(eval));
        assert_eq!(decode_sweep(&encode_sweep(&points)), Some(points));
    }

    #[test]
    fn corrupt_payloads_decode_to_none() {
        for text in [
            "",
            "{ not json",
            "{\"v\":2,\"eval\":{}}",
            "{\"v\":1,\"eval\":{\"mult_idx\":0}}",
            // Negative area bits: must be rejected, not panic.
            &format!(
                "{{\"v\":1,\"eval\":{{\"accel\":{{\"pe_width\":8,\"pe_height\":8,\
                 \"local_rf_bytes\":64,\"global_buffer_kib\":512,\"node\":\"7nm\"}},\
                 \"mult_idx\":0,\"multiplier\":\"x\",\"fps\":\"{h}\",\"die_area_um2\":\"{neg}\",\
                 \"embodied_g\":\"{h}\",\"cdp\":\"{h}\",\"latency_s\":\"{h}\",\
                 \"energy_j\":\"{h}\",\"accuracy_drop\":\"{h}\"}}}}",
                h = f64_hex(1.0),
                neg = f64_hex(-1.0),
            ),
        ] {
            assert_eq!(decode_eval(text), None, "payload: {text}");
            assert!(decode_library(text).is_none());
            assert_eq!(decode_sweep(text), None);
        }
    }
}
