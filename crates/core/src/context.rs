//! The evaluation context: multiplier library + accuracy buckets +
//! carbon model + performance oracle, bound to one technology node.

use std::fmt;
use std::sync::Arc;

use carma_carbon::{CarbonMass, CarbonModel, Cdp, DeploymentProfile, FootprintBreakdown};
use carma_dataflow::{Accelerator, AreaModel, PerfModel};
use carma_dnn::{AccuracyEvaluator, DnnModel, EvaluatorConfig};
use carma_memo::{f64_from_hex, f64_hex, MemoStore, ShardedMap};
use carma_multiplier::{MultiplierEntry, MultiplierLibrary};
use carma_netlist::{Area, TechNode};

use crate::space::DesignPoint;

/// The full evaluation of one design point on one DNN.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignEval {
    /// The materialized accelerator.
    pub accelerator: Accelerator,
    /// Index of the chosen multiplier in the context's library.
    pub mult_idx: usize,
    /// Name of the chosen multiplier.
    pub multiplier: String,
    /// Throughput on the evaluated DNN.
    pub fps: f64,
    /// Die area.
    pub die_area: Area,
    /// Embodied carbon of the die (Eq. 1).
    pub embodied: CarbonMass,
    /// Raw Carbon Delay Product in gCO₂·s (embodied carbon ×
    /// inference latency).
    pub cdp: f64,
    /// Inference latency in seconds.
    pub latency_s: f64,
    /// Energy of one inference in joules (multiplier-scaled).
    pub energy_j: f64,
    /// Accuracy drop induced by the multiplier, in `[0, 1]`.
    pub accuracy_drop: f64,
}

impl DesignEval {
    /// Average power draw while inferring, watts (energy per inference
    /// over inference latency) — the active term of the operational
    /// carbon model.
    pub fn active_power_w(&self) -> f64 {
        self.energy_j / self.latency_s
    }

    /// The total-carbon footprint of this design deployed under
    /// `profile`: die embodied (already priced by the evaluating
    /// context's carbon model) + system embodied (package, DRAM) +
    /// operational over the lifetime.
    pub fn footprint(&self, profile: &DeploymentProfile) -> FootprintBreakdown {
        profile.footprint(self.embodied, self.die_area, self.active_power_w())
    }
}

impl fmt::Display for DesignEval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} + {} → {:.1} FPS, {:.3} mm², {}, CDP {:.4}, Δacc {:.2}%",
            self.accelerator,
            self.multiplier,
            self.fps,
            self.die_area.as_mm2(),
            self.embodied,
            self.cdp,
            self.accuracy_drop * 100.0
        )
    }
}

/// Cached per-accelerator performance summary (the multiplier does not
/// change cycle counts, so FPS is shared across multiplier choices).
#[derive(Debug, Clone, Copy)]
struct PerfSummary {
    fps: f64,
    latency_s: f64,
    dram_bytes: u64,
    sram_bytes: u64,
    macs: u64,
}

/// Concurrent perf memo: accelerator → per-model summaries.
///
/// A summary is a pure function of the [`Accelerator`] (which carries
/// the node) and the DNN, so one cache is shared by every context a
/// [`MemoLayer`](crate::MemoLayer) builds, across nodes, libraries and
/// scenarios; it is bounded by the design grid (700 accelerators per
/// node) times the models evaluated. The multiplier choice never
/// affects cycle counts, so no multiplier state belongs in the key,
/// and hashing allocates nothing. The DNN *does* affect cycle counts,
/// so summaries for one accelerator are distinguished by model name in
/// a short inner vector — compared by `&str`, cloned only once per
/// (accelerator, model) on the insert path, never per lookup.
#[derive(Default)]
pub(crate) struct PerfCache(ShardedMap<Accelerator, Vec<(String, PerfSummary)>>);

impl PerfCache {
    fn get(&self, accel: &Accelerator, model_name: &str) -> Option<PerfSummary> {
        self.0.lock(accel).get(accel).and_then(|per_model| {
            per_model
                .iter()
                .find(|(name, _)| name == model_name)
                .map(|&(_, summary)| summary)
        })
    }

    /// Stores a new (accelerator, model) summary and counts it as
    /// `perf.summaries`, so the counter is the number of distinct keys
    /// a run priced, the same at any width. Two workers that miss on
    /// one key at once both compute it (the model is deterministic), but
    /// it is stored and counted once.
    fn insert(&self, accel: Accelerator, model_name: &str, summary: PerfSummary) {
        let stored = {
            let mut shard = self.0.lock(&accel);
            let per_model = shard.entry(accel).or_default();
            // A racing worker may have inserted the same summary
            // between our miss and this lock; keep the first.
            let new = !per_model.iter().any(|(name, _)| name == model_name);
            if new {
                per_model.push((model_name.to_string(), summary));
            }
            new
        };
        if stored {
            carma_trace::counter("perf.summaries", 1);
        }
    }
}

/// The memoizable product of context construction: the accuracy-drop
/// table of one library under one evaluator calibration (the
/// expensive behavioural characterization). Model- and
/// node-independent — one seed serves every DNN on every node — and
/// keyed by the **context** stage fingerprint (library key +
/// evaluator calibration). Immutable once stored.
pub(crate) struct ContextSeed {
    drops: Vec<f64>,
}

impl ContextSeed {
    /// Runs the behavioural accuracy characterization — the dominant
    /// cost of context construction and the compute behind a context
    /// stage miss.
    ///
    /// # Panics
    ///
    /// Panics if the library is not 8-bit (the behavioural engine's
    /// datatype).
    pub(crate) fn characterize(library: &MultiplierLibrary, evaluator: EvaluatorConfig) -> Self {
        assert_eq!(library.width(), 8, "context requires an 8-bit library");
        // One `accuracy.tabulate` span per compiled multiplier: the
        // exact one under the reference pass, each approximate entry
        // under the library pass.
        let tabulating = || carma_trace::span!("accuracy.tabulate");
        let accuracy = {
            let _span = carma_trace::span!("accuracy.reference");
            AccuracyEvaluator::observed(evaluator, &tabulating)
        };
        let drops = {
            let _span = carma_trace::span!("accuracy.library");
            accuracy
                .evaluate_library_observed(library, &tabulating)
                .into_iter()
                .map(|(_, drop)| drop)
                .collect()
        };
        // The reference pass and each approximate entry run every
        // sample through the network once.
        let approximate = library
            .entries()
            .iter()
            .filter(|e| e.profile.error_rate != 0.0)
            .count() as u64;
        carma_trace::counter(
            "dnn.macs",
            accuracy.network().macs_per_inference() * evaluator.samples as u64 * (approximate + 1),
        );
        ContextSeed { drops }
    }

    /// Durable payload: the drops as hex bits (see the codec notes in
    /// `crate::memo`).
    pub(crate) fn encode(&self) -> String {
        let drops: Vec<String> = self
            .drops
            .iter()
            .map(|&d| format!("\"{}\"", f64_hex(d)))
            .collect();
        format!("{{\"v\":1,\"drops\":[{}]}}", drops.join(","))
    }

    /// Inverse of [`Self::encode`] for a seed of `library`. A payload
    /// that parses but does not fit — wrong length, or a drop outside
    /// `[0, 1]` — decodes to `None`, so it is recomputed and
    /// overwritten, never served.
    pub(crate) fn decode(text: &str, library: &MultiplierLibrary) -> Option<Self> {
        let v = serde::json::parse(text).ok()?;
        if v.get("v")?.as_f64()? != 1.0 {
            return None;
        }
        let mut drops = Vec::new();
        for d in v.get("drops")?.as_array()? {
            drops.push(f64_from_hex(d.as_str()?)?);
        }
        let fits = drops.len() == library.len() && drops.iter().all(|d| (0.0..=1.0).contains(d));
        fits.then_some(ContextSeed { drops })
    }
}

/// The memo handle a memo-built context carries: the store, the
/// context-stage key, and the precomputed **cell** key prefix binding
/// `(context, node, carbon model)` — everything a cell lookup in
/// `flow` needs besides its own tail.
pub(crate) struct ContextMemo {
    store: Arc<MemoStore>,
    context_key: String,
    cell_basis: String,
}

/// The shared prefix of every cell-stage canon evaluated on one
/// context: the context key, the node, and the current carbon model.
/// The context key is node-free (accuracy drops do not depend on the
/// node) while cells do depend on it; the grid/yield ablations swap
/// carbon models between cells, so the model lives here too.
fn cell_basis(context_key: &str, node: TechNode, carbon: &CarbonModel) -> String {
    format!(
        "\"ctx\":\"{context_key}\",\"node\":{},\"carbon\":{}",
        serde::json::to_string(&node.to_string()),
        crate::memo::carbon_canon(carbon)
    )
}

/// The CARMA evaluation context for one technology node.
///
/// Holds the (pre-characterized) multiplier library with its DNN
/// accuracy buckets, the ACT carbon model and a memoizing performance
/// oracle. Construction is the expensive part (library
/// characterization + behavioural accuracy runs); evaluation of design
/// points is then cheap enough to sit inside the GA loop.
/// `CarmaContext` is fully [`Sync`]: design points evaluate through
/// `&self` with all shared mutability confined to the sharded perf
/// cache, so one context can serve a whole pool of GA workers
/// concurrently (see [`evaluate_batch`](CarmaContext::evaluate_batch)).
pub struct CarmaContext {
    node: TechNode,
    library: Arc<MultiplierLibrary>,
    accuracy_drops: Vec<f64>,
    /// Each entry's transistor count, indexed like the library. Every
    /// `transistors()` call walks the entry's whole netlist, so the
    /// counts are taken once here; the library is an immutable `Arc`,
    /// so they cannot go stale.
    transistors: Vec<u64>,
    /// Transistor count of `library.exact()`.
    exact_transistors: u64,
    carbon: CarbonModel,
    perf: PerfModel,
    perf_cache: Arc<PerfCache>,
    memo: Option<ContextMemo>,
}

// Compile-time guarantee: evaluation layers may share a context across
// pool workers. Losing Sync (e.g. via an un-sharded cache type) is a
// build error, not a runtime surprise.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CarmaContext>();
};

impl fmt::Debug for CarmaContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CarmaContext")
            .field("node", &self.node)
            .field("library_len", &self.library.len())
            .finish_non_exhaustive()
    }
}

impl CarmaContext {
    /// The standard context: truncation-ladder library of depth 4
    /// (15 units) with the default 256-sample behavioural accuracy
    /// evaluation. Takes seconds to build (release mode).
    pub fn standard(node: TechNode) -> Self {
        Self::with_parts(
            node,
            MultiplierLibrary::truncation_ladder(8, 4),
            EvaluatorConfig::default(),
        )
    }

    /// A reduced context for tests and quick demos: depth-2 ladder
    /// (6 units), 48 evaluation samples.
    pub fn reduced(node: TechNode) -> Self {
        Self::with_parts(
            node,
            MultiplierLibrary::truncation_ladder(8, 2),
            EvaluatorConfig {
                samples: 48,
                ..EvaluatorConfig::default()
            },
        )
    }

    /// Builds a context from an arbitrary multiplier library (e.g. an
    /// NSGA-II-evolved one) and evaluator configuration.
    ///
    /// # Panics
    ///
    /// Panics if the library is not 8-bit (the behavioural engine's
    /// datatype).
    pub fn with_parts(
        node: TechNode,
        library: MultiplierLibrary,
        evaluator: EvaluatorConfig,
    ) -> Self {
        let seed = ContextSeed::characterize(&library, evaluator);
        Self::assemble(
            node,
            Arc::new(library),
            &seed,
            Arc::new(PerfCache::default()),
            None,
        )
    }

    /// Assembles a context from an already-characterized seed — the
    /// cheap half of construction, shared by [`Self::with_parts`]
    /// (fresh seed and perf cache, no memo) and the memo layer (seed
    /// read through the context stage, the layer's shared perf cache;
    /// `memo` carries the store and context key that address cell
    /// lookups).
    pub(crate) fn assemble(
        node: TechNode,
        library: Arc<MultiplierLibrary>,
        seed: &ContextSeed,
        perf_cache: Arc<PerfCache>,
        memo: Option<(Arc<MemoStore>, String)>,
    ) -> Self {
        assert_eq!(library.width(), 8, "context requires an 8-bit library");
        let carbon = CarbonModel::for_node(node);
        let memo = memo.map(|(store, context_key)| ContextMemo {
            cell_basis: cell_basis(&context_key, node, &carbon),
            store,
            context_key,
        });
        let transistors = library
            .entries()
            .iter()
            .map(MultiplierEntry::transistors)
            .collect();
        let exact_transistors = library.exact().transistors();
        CarmaContext {
            node,
            library,
            accuracy_drops: seed.drops.clone(),
            transistors,
            exact_transistors,
            carbon,
            perf: PerfModel::new(),
            perf_cache,
            memo,
        }
    }

    /// The cell-stage lookup handle: the store plus this context's
    /// current cell-key prefix (context key + node + carbon model). `None`
    /// when the context was built outside the memo layer — callers
    /// fall through to direct computation.
    pub(crate) fn cell_memo(&self) -> Option<(&MemoStore, &str)> {
        self.memo
            .as_ref()
            .map(|m| (m.store.as_ref(), m.cell_basis.as_str()))
    }

    /// The technology node of this context.
    pub fn node(&self) -> TechNode {
        self.node
    }

    /// The multiplier library.
    pub fn library(&self) -> &MultiplierLibrary {
        &self.library
    }

    /// The carbon model in use.
    pub fn carbon_model(&self) -> &CarbonModel {
        &self.carbon
    }

    /// Replaces the carbon model (for yield/grid ablations). Cell
    /// keys derive from `(context, node, carbon model)`, so the
    /// cell-key prefix moves with the model — each ablation arm
    /// addresses its own cells.
    pub fn set_carbon_model(&mut self, model: CarbonModel) {
        self.carbon = model;
        if let Some(m) = &mut self.memo {
            m.cell_basis = cell_basis(&m.context_key, self.node, &self.carbon);
        }
    }

    /// Accuracy drop of library entry `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn accuracy_drop(&self, idx: usize) -> f64 {
        self.accuracy_drops[idx]
    }

    /// Indices of all library entries whose accuracy drop is within
    /// `max_drop`, sorted by increasing transistor count.
    pub fn entries_within_drop(&self, max_drop: f64) -> Vec<usize> {
        let mut v: Vec<usize> = (0..self.library.len())
            .filter(|&i| self.accuracy_drops[i] <= max_drop)
            .collect();
        v.sort_by_key(|&i| self.transistors[i]);
        v
    }

    /// Index of the smallest-area entry within `max_drop` (the
    /// "approximate only" selection rule); index 0 (exact) always
    /// qualifies.
    pub fn best_mult_within_drop(&self, max_drop: f64) -> usize {
        self.entries_within_drop(max_drop)
            .first()
            .copied()
            .unwrap_or(0)
    }

    /// Memoized FPS/latency of `accel` on `model`.
    fn perf_summary(&self, accel: &Accelerator, model: &DnnModel) -> PerfSummary {
        if let Some(s) = self.perf_cache.get(accel, model.name()) {
            return s;
        }
        let report = self.perf.evaluate(accel, model);
        let s = PerfSummary {
            fps: report.fps,
            latency_s: report.latency_s,
            dram_bytes: report.dram_bytes,
            sram_bytes: report.sram_bytes,
            macs: report.macs,
        };
        self.perf_cache.insert(*accel, model.name(), s);
        s
    }

    /// Evaluates a design point on `model`: performance, area, embodied
    /// carbon, CDP and accuracy drop.
    ///
    /// # Panics
    ///
    /// Panics if the design point's multiplier index is out of library
    /// range.
    pub fn evaluate(&self, point: &DesignPoint, model: &DnnModel) -> DesignEval {
        let mult_idx = usize::from(point.mult_idx);
        let entry = &self.library[mult_idx];
        let accel = point.to_accelerator(self.node);
        let perf = self.perf_summary(&accel, model);
        let transistors = self.transistors[mult_idx];
        let area_model = AreaModel::new(transistors);
        let die_area = area_model.die_area(&accel);
        let embodied = self.carbon.embodied_carbon(die_area);
        // Multiplier share of MAC energy scales with its transistor
        // count, priced from the cached traffic numbers so the mapper
        // does not run again.
        let energy_j = carma_dataflow::energy::inference_energy_j(
            self.node,
            transistors as f64 / self.exact_transistors as f64,
            perf.macs,
            perf.sram_bytes,
            perf.dram_bytes,
        );
        DesignEval {
            accelerator: accel,
            mult_idx,
            multiplier: entry.name.clone(),
            fps: perf.fps,
            die_area,
            embodied,
            cdp: Cdp::new(embodied, perf.latency_s).value(),
            latency_s: perf.latency_s,
            energy_j,
            accuracy_drop: self.accuracy_drops[mult_idx],
        }
    }

    /// Evaluates a batch of design points on `model` across the
    /// `carma-exec` pool, in input order. Each point's evaluation is a
    /// pure function of `(self, point, model)`, so the batch is
    /// bit-identical to mapping [`evaluate`](Self::evaluate) serially,
    /// at any `CARMA_THREADS` setting.
    pub fn evaluate_batch(&self, points: &[DesignPoint], model: &DnnModel) -> Vec<DesignEval> {
        carma_exec::par_map(points, |point| self.evaluate(point, model))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carma_multiplier::LibraryConfig;
    use std::sync::OnceLock;

    /// Shared reduced context: construction is the slow part, so tests
    /// share one.
    pub(crate) fn ctx7() -> &'static CarmaContext {
        static CTX: OnceLock<CarmaContext> = OnceLock::new();
        CTX.get_or_init(|| CarmaContext::reduced(TechNode::N7))
    }

    #[test]
    fn context_builds_and_buckets() {
        let ctx = ctx7();
        assert_eq!(ctx.node(), TechNode::N7);
        assert!(ctx.library().len() >= 4);
        // Exact entry has zero drop; it is entry 0 (sorted by MRED).
        assert_eq!(ctx.accuracy_drop(0), 0.0);
        // Drops are probabilities.
        for i in 0..ctx.library().len() {
            assert!((0.0..=1.0).contains(&ctx.accuracy_drop(i)));
        }
    }

    #[test]
    fn stored_transistor_counts_match_each_netlist_walk() {
        // `evaluate` and `entries_within_drop` read the counts taken at
        // assembly, so they must equal what `transistors()` walks out
        // of every family's netlists, the imported one included.
        let base = LibraryConfig::default();
        let evolved = MultiplierLibrary::evolve(LibraryConfig {
            max_truncation: 2,
            max_prunes: 6,
            nsga: base.nsga.with_population(12).with_generations(4),
            ..base
        });
        let approx8 = carma_import::load_library(
            &std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../examples/libraries/approx8.v"),
        )
        .expect("approx8.v is admitted");
        for library in [
            MultiplierLibrary::truncation_ladder(8, 2),
            MultiplierLibrary::classic_families(8, 2),
            evolved,
            carma_import::build_library(&approx8),
        ] {
            // Assembly never reads the drops' values, so no accuracy
            // pass is needed.
            let seed = ContextSeed {
                drops: vec![0.0; library.len()],
            };
            let ctx = CarmaContext::assemble(
                TechNode::N7,
                Arc::new(library),
                &seed,
                Arc::new(PerfCache::default()),
                None,
            );
            let library = ctx.library();
            assert_eq!(ctx.transistors.len(), library.len());
            for (entry, &count) in library.entries().iter().zip(&ctx.transistors) {
                assert_eq!(count, entry.transistors(), "{}", entry.name);
            }
            assert_eq!(ctx.exact_transistors, library.exact().transistors());
        }
    }

    #[test]
    fn entries_within_drop_shrink_with_threshold() {
        let ctx = ctx7();
        let strict = ctx.entries_within_drop(0.0);
        let loose = ctx.entries_within_drop(1.0);
        assert!(!strict.is_empty());
        assert_eq!(loose.len(), ctx.library().len());
        assert!(strict.len() <= loose.len());
    }

    #[test]
    fn best_mult_within_drop_saves_area() {
        let ctx = ctx7();
        let idx = ctx.best_mult_within_drop(1.0); // anything allowed
        let best = &ctx.library()[idx];
        let exact = ctx.library().exact();
        assert!(best.transistors() <= exact.transistors());
    }

    #[test]
    fn evaluate_produces_consistent_cdp() {
        let ctx = ctx7();
        let dp = DesignPoint::nvdla_like(256);
        let eval = ctx.evaluate(&dp, &DnnModel::resnet50());
        assert!(eval.fps > 0.0);
        assert!((eval.cdp - eval.embodied.as_grams() / eval.fps).abs() < 1e-9);
        assert_eq!(eval.accuracy_drop, 0.0); // exact multiplier
    }

    #[test]
    fn approximate_point_has_smaller_carbon_same_fps() {
        let ctx = ctx7();
        let exact_dp = DesignPoint::nvdla_like(256);
        let mut approx_dp = exact_dp;
        approx_dp.mult_idx = (ctx.library().len() - 1) as u16; // largest error, smallest area
        let model = DnnModel::resnet50();
        let e = ctx.evaluate(&exact_dp, &model);
        let a = ctx.evaluate(&approx_dp, &model);
        assert_eq!(e.fps, a.fps, "multiplier must not change cycles");
        assert!(a.embodied < e.embodied, "approx must cut carbon");
        assert!(a.cdp < e.cdp);
    }

    #[test]
    fn perf_cache_hits_are_consistent() {
        let ctx = ctx7();
        let dp = DesignPoint::nvdla_like(128);
        let model = DnnModel::resnet50();
        let a = ctx.evaluate(&dp, &model);
        let b = ctx.evaluate(&dp, &model);
        assert_eq!(a.fps, b.fps);
    }

    #[test]
    fn perf_cache_distinguishes_models_per_accelerator() {
        // One context serves several DNNs (fig3's protocol); the cache
        // keys on the accelerator but must never cross-serve models.
        let ctx = ctx7();
        let dp = DesignPoint::nvdla_like(256);
        let r50 = ctx.evaluate(&dp, &DnnModel::resnet50());
        let vgg = ctx.evaluate(&dp, &DnnModel::vgg16());
        assert_ne!(r50.fps, vgg.fps, "distinct models share one cache slot");
        // Warm-cache round trips still agree per model.
        assert_eq!(r50.fps, ctx.evaluate(&dp, &DnnModel::resnet50()).fps);
        assert_eq!(vgg.fps, ctx.evaluate(&dp, &DnnModel::vgg16()).fps);
    }

    #[test]
    fn evaluate_batch_matches_serial_and_is_thread_invariant() {
        let ctx = ctx7();
        let model = DnnModel::resnet50();
        let points: Vec<DesignPoint> = carma_dataflow::NVDLA_MAC_SIZES
            .iter()
            .map(|&m| DesignPoint::nvdla_like(m))
            .collect();
        let serial: Vec<DesignEval> = points.iter().map(|p| ctx.evaluate(p, &model)).collect();
        for threads in [1, 8] {
            let batch = carma_exec::with_threads(threads, || ctx.evaluate_batch(&points, &model));
            assert_eq!(serial, batch, "threads = {threads}");
        }
    }

    #[test]
    fn footprint_path_composes_lifecycle_buckets() {
        let ctx = ctx7();
        let eval = ctx.evaluate(&DesignPoint::nvdla_like(256), &DnnModel::resnet50());
        let profile = DeploymentProfile::edge_default();
        let fb = eval.footprint(&profile);
        assert_eq!(
            fb.die, eval.embodied,
            "die bucket is the context-priced die"
        );
        assert_eq!(fb.total(), fb.die + fb.system + fb.operational);
        // Active power is energy over latency; a 3-year always-on
        // deployment at edge-scale power must accrue operational carbon.
        assert!((eval.active_power_w() - eval.energy_j / eval.latency_s).abs() < 1e-15);
        assert!(fb.operational.as_grams() > 0.0);
        // The cdp field routes through the Cdp newtype.
        assert_eq!(eval.cdp, Cdp::new(eval.embodied, eval.latency_s).value());
    }

    #[test]
    fn cell_basis_separates_nodes_sharing_a_context_key() {
        // One node-free context key serves every node; the node must
        // still separate their cells, even under one carbon model.
        let carbon = CarbonModel::for_node(TechNode::N7);
        assert_ne!(
            cell_basis("aa11", TechNode::N7, &carbon),
            cell_basis("aa11", TechNode::N14, &carbon)
        );
    }

    #[test]
    fn display_is_informative() {
        let ctx = ctx7();
        let s = ctx
            .evaluate(&DesignPoint::nvdla_like(64), &DnnModel::resnet50())
            .to_string();
        assert!(s.contains("FPS") && s.contains("CDP"), "{s}");
    }
}
