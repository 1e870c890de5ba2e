//! The approximate-multiplier library: deterministic truncation
//! ladders and the NSGA-II Pareto search (the paper's step one).
//!
//! The search explores [`ApproxGenome`]s over a fixed exact base
//! circuit, minimizing `(area, MRED)` — producing an EvoApprox-style
//! family of named units from which the accelerator-level GA later
//! picks.

use std::fmt;

use carma_ga::{MultiObjectiveProblem, Nsga2, Nsga2Config};
use carma_netlist::ImportFormat;
use rand::{Rng, RngExt};

use crate::approx::{ApproxGenome, Prune, PruneAction};
use crate::error::ErrorProfile;
use crate::exact::{MultiplierCircuit, ReductionKind};

/// How a library entry's circuit was derived from the exact base —
/// enough provenance to rebuild the circuit deterministically without
/// re-running the search or sweep that found it. This is what makes a
/// characterized library durable: `(name, recipe, profile)` triples
/// round-trip through [`MultiplierLibrary::from_parts`] while the
/// circuits themselves are regenerated on load.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitRecipe {
    /// The exact base circuit, untouched.
    Exact,
    /// Operand truncation of depths `(a, b)`.
    Truncation {
        /// Truncation depth of operand A.
        a: u8,
        /// Truncation depth of operand B.
        b: u8,
    },
    /// Broken-array multiplier omitting the `omit` least-significant
    /// carry-save columns.
    BrokenArray {
        /// Number of omitted columns.
        omit: u32,
    },
    /// Truncated multiplier with constant error correction at break
    /// line `omit`.
    TruncCorrect {
        /// Break-line position.
        omit: u32,
    },
    /// An NSGA-II-evolved genome (truncation + gate prunes).
    Genome(ApproxGenome),
    /// An externally imported design, carried as the canonical
    /// structural-Verilog text of its netlist (the `to_verilog` form),
    /// so imported libraries stay durable through
    /// [`MultiplierLibrary::from_parts`] round trips. The text must
    /// parse back into a `2*width`-in / `2*width`-out netlist; memo
    /// decode pre-validates this before `build` is reached.
    Imported {
        /// Structural Verilog source of the circuit.
        verilog: String,
    },
}

impl CircuitRecipe {
    /// Rebuilds the circuit this recipe describes over `base` (the
    /// exact `width`-bit circuit of reduction `kind`).
    pub fn build(
        &self,
        base: &MultiplierCircuit,
        width: u32,
        kind: ReductionKind,
    ) -> MultiplierCircuit {
        match self {
            CircuitRecipe::Exact => base.clone(),
            CircuitRecipe::Truncation { a, b } => ApproxGenome::truncation(*a, *b).apply(base),
            CircuitRecipe::BrokenArray { omit } => {
                crate::families::broken_array(width, *omit, kind)
            }
            CircuitRecipe::TruncCorrect { omit } => {
                crate::families::truncated_with_correction(width, *omit, kind)
            }
            CircuitRecipe::Genome(g) => g.apply(base),
            CircuitRecipe::Imported { verilog } => {
                let netlist = carma_netlist::parse_netlists(verilog, ImportFormat::Verilog)
                    .ok()
                    .and_then(|mut mods| (mods.len() == 1).then(|| mods.pop().expect("len 1")))
                    .expect("imported recipe carries valid single-module Verilog");
                MultiplierCircuit::from_netlist(netlist, width)
            }
        }
    }
}

/// One library member: an approximate (or exact) multiplier circuit
/// with its characterized error profile.
#[derive(Debug, Clone)]
pub struct MultiplierEntry {
    /// Unique name within the library.
    pub name: String,
    /// The circuit (already swept).
    pub circuit: MultiplierCircuit,
    /// How the circuit derives from the exact base (durable
    /// provenance; see [`CircuitRecipe`]).
    pub recipe: CircuitRecipe,
    /// Characterized error statistics.
    pub profile: ErrorProfile,
}

impl MultiplierEntry {
    /// Transistor count of the circuit (the area proxy).
    pub fn transistors(&self) -> u64 {
        self.circuit.transistor_count()
    }

    /// Area saving relative to `exact`, in `[0, 1)`.
    pub fn area_saving_vs(&self, exact: &MultiplierEntry) -> f64 {
        1.0 - self.transistors() as f64 / exact.transistors() as f64
    }
}

impl fmt::Display for MultiplierEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} transistors, MRED {:.5}, ER {:.3}",
            self.name,
            self.transistors(),
            self.profile.mred,
            self.profile.error_rate
        )
    }
}

/// Configuration of the evolved library search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LibraryConfig {
    /// Operand width of the multipliers.
    pub width: u32,
    /// Reduction schedule of the exact base circuit.
    pub kind: ReductionKind,
    /// Maximum operand-truncation depth the search may apply.
    pub max_truncation: u8,
    /// Maximum number of simultaneous gate prunes per genome.
    pub max_prunes: usize,
    /// NSGA-II hyper-parameters.
    pub nsga: Nsga2Config,
    /// Statically pre-screen every Pareto-front circuit with
    /// [`prescreen_circuit`] before spending exhaustive
    /// characterization time on it. Rejections are structural defects
    /// (port-convention or validity violations) that no recipe-derived
    /// circuit should exhibit, so the flag changes results only when
    /// something is genuinely broken.
    pub prescreen: bool,
}

impl Default for LibraryConfig {
    fn default() -> Self {
        LibraryConfig {
            width: 8,
            kind: ReductionKind::Dadda,
            max_truncation: 4,
            max_prunes: 24,
            nsga: Nsga2Config::default(),
            prescreen: true,
        }
    }
}

/// Statically certifies a multiplier circuit before characterization:
/// runs the [`carma_analyze`] lint pass under the trusted profile with
/// the n-bit port convention enforced, and rejects on any
/// error-severity finding (invalid structure, or port names/width/
/// ordering that would silently corrupt LUT indexing downstream).
///
/// Dead gates, floating inputs and foldable cones are *not* rejected:
/// truncation and pruning produce those by design.
///
/// # Errors
///
/// Returns every error-severity diagnostic message, joined with `"; "`.
pub fn prescreen_circuit(circuit: &MultiplierCircuit) -> Result<(), String> {
    let report = carma_analyze::lint(
        circuit.netlist(),
        &carma_analyze::LintOptions {
            profile: carma_analyze::LintProfile::Trusted,
            multiplier_width: Some(circuit.width()),
        },
    );
    if !report.has_errors() {
        return Ok(());
    }
    let msgs: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == carma_analyze::Severity::Error)
        .map(|d| d.message.clone())
        .collect();
    Err(msgs.join("; "))
}

/// A family of approximate multipliers sharing one operand width,
/// sorted by increasing error (the exact unit first).
///
/// ```
/// use carma_multiplier::library::MultiplierLibrary;
///
/// let lib = MultiplierLibrary::truncation_ladder(8, 3);
/// assert_eq!(lib.exact().profile.mred, 0.0);
/// // Every entry trades area for error.
/// for e in lib.entries().iter().skip(1) {
///     assert!(e.transistors() < lib.exact().transistors());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct MultiplierLibrary {
    width: u32,
    entries: Vec<MultiplierEntry>,
}

impl MultiplierLibrary {
    /// Builds a deterministic library from pure precision scaling:
    /// all `(ta, tb)` with `ta + tb ≤ 2·max_depth`, `ta, tb ≤
    /// max_depth`, characterized exhaustively. Fast and reproducible —
    /// the seed library for tests and for the GA-CDP flow's default.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=10` (exhaustive
    /// characterization domain).
    pub fn truncation_ladder(width: u32, max_depth: u8) -> Self {
        assert!(
            (1..=10).contains(&width),
            "ladder library needs width in 1..=10"
        );
        let base = MultiplierCircuit::generate(width, ReductionKind::Dadda);
        let rungs: Vec<_> = (0..=max_depth)
            .flat_map(|ta| (ta..=max_depth).map(move |tb| truncation(width, ta, tb)))
            .collect();
        Self::from_entries(width, characterize(&base, width, &rungs))
    }

    /// Builds a mixed library of the classic approximate families:
    /// the truncation ladder (symmetric entries up to `max_depth`),
    /// Broken-Array multipliers, and truncated-with-correction units
    /// at matching break lines — a broader design space than
    /// truncation alone, at the same exhaustive characterization cost.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=10`.
    pub fn classic_families(width: u32, max_depth: u8) -> Self {
        assert!(
            (1..=10).contains(&width),
            "classic library needs width in 1..=10"
        );
        let mut candidates: Vec<_> = (1..=max_depth).map(|t| truncation(width, t, t)).collect();
        for omit in 1..=(2 * u32::from(max_depth)).min(2 * width - 1) {
            candidates.push((
                format!("bam{width}_{omit}"),
                CircuitRecipe::BrokenArray { omit },
            ));
            candidates.push((
                format!("tcc{width}_{omit}"),
                CircuitRecipe::TruncCorrect { omit },
            ));
        }
        let base = MultiplierCircuit::generate(width, ReductionKind::Dadda);
        let mut entries = vec![exact_entry(&base, width)];
        entries.extend(
            characterize(&base, width, &candidates)
                .into_iter()
                // Truncation rungs always err; BAM/TCC break lines can
                // rediscover the exact function — skip those.
                .filter(|e| {
                    matches!(e.recipe, CircuitRecipe::Truncation { .. })
                        || e.profile.error_rate > 0.0
                }),
        );
        Self::from_entries(width, entries)
    }

    /// Runs the NSGA-II search over gate pruning + precision scaling
    /// and returns the resulting Pareto library (exact unit included).
    ///
    /// # Panics
    ///
    /// Panics if `config.width` is outside `1..=10`.
    pub fn evolve(config: LibraryConfig) -> Self {
        assert!(
            (1..=10).contains(&config.width),
            "evolved library needs width in 1..=10"
        );
        let base = MultiplierCircuit::generate(config.width, config.kind);
        let problem = ApproxSearch {
            base: base.clone(),
            config,
        };
        let front = Nsga2::new(problem, config.nsga).run();

        // Static pre-screen: drop structurally defective candidates
        // (a cheap sweep + lint each) before spending exhaustive
        // characterization time on them.
        let front: Vec<_> = front
            .into_iter()
            .filter(|p| !config.prescreen || prescreen_circuit(&p.genome.apply(&base)).is_ok())
            .collect();

        // Re-characterize the whole front in parallel (the NSGA-II run
        // cached only objective values, not profiles).
        let characterized = carma_exec::par_map_indexed(&front, |i, p| {
            let circuit = p.genome.apply(&base);
            let profile = ErrorProfile::exhaustive(&circuit);
            MultiplierEntry {
                name: format!("carma{}_{i:03}", config.width),
                circuit,
                recipe: CircuitRecipe::Genome(p.genome.clone()),
                profile,
            }
        });
        let mut entries = vec![exact_entry(&base, config.width)];
        // Functionally exact (re)discoveries of the base are skipped;
        // the canonical exact entry is already present.
        entries.extend(characterized.into_iter().filter(|e| e.profile.mred > 0.0));
        Self::from_entries(config.width, entries)
    }

    /// Rebuilds a library from durable `(name, recipe, profile)`
    /// triples in stored order — the decode path of the stage-level
    /// memo. Circuits are regenerated from their recipes over the
    /// exact base (cheap: one netlist sweep each, no error
    /// characterization and no search); the stored order is preserved
    /// verbatim because the parts came from an already
    /// sorted/deduplicated library whose entry *indices* downstream
    /// accuracy tables key on.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or a rebuilt circuit's width
    /// disagrees with `width`.
    pub fn from_parts(
        width: u32,
        kind: ReductionKind,
        parts: &[(String, CircuitRecipe, ErrorProfile)],
    ) -> Self {
        assert!(!parts.is_empty(), "library cannot be empty");
        let base = MultiplierCircuit::generate(width, kind);
        let entries = carma_exec::par_map(parts, |(name, recipe, profile)| {
            let circuit = recipe.build(&base, width, kind);
            assert_eq!(circuit.width(), width, "width mismatch in `{name}`");
            debug_assert!(
                prescreen_circuit(&circuit).is_ok(),
                "rebuilt entry `{name}` failed static pre-screen: {:?}",
                prescreen_circuit(&circuit)
            );
            MultiplierEntry {
                name: name.clone(),
                circuit,
                recipe: recipe.clone(),
                profile: *profile,
            }
        });
        MultiplierLibrary { width, entries }
    }

    /// Builds a library from pre-characterized entries, deduplicating
    /// by `(transistors, MRED)` and sorting by increasing MRED.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or contains a width mismatch.
    pub fn from_entries(width: u32, mut entries: Vec<MultiplierEntry>) -> Self {
        assert!(!entries.is_empty(), "library cannot be empty");
        for e in &entries {
            assert_eq!(e.circuit.width(), width, "width mismatch in `{}`", e.name);
        }
        entries.sort_by(|a, b| {
            a.profile
                .mred
                .partial_cmp(&b.profile.mred)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.transistors().cmp(&b.transistors()))
        });
        entries.dedup_by(|a, b| {
            a.transistors() == b.transistors() && a.profile.mred == b.profile.mred
        });
        MultiplierLibrary { width, entries }
    }

    /// Operand width of every member.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// All entries, sorted by increasing MRED (exact first).
    pub fn entries(&self) -> &[MultiplierEntry] {
        &self.entries
    }

    /// The exact (zero-error) entry.
    ///
    /// # Panics
    ///
    /// Panics if the library was built without an exact member (the
    /// provided constructors always include one).
    pub fn exact(&self) -> &MultiplierEntry {
        self.entries
            .iter()
            .find(|e| e.profile.mred == 0.0 && e.profile.error_rate == 0.0)
            .expect("library must contain an exact entry")
    }

    /// The smallest-area entry whose MRED does not exceed `max_mred`.
    /// Falls back to the exact entry if nothing qualifies.
    pub fn best_within_mred(&self, max_mred: f64) -> &MultiplierEntry {
        self.entries
            .iter()
            .filter(|e| e.profile.mred <= max_mred)
            .min_by_key(|e| e.transistors())
            .unwrap_or_else(|| self.exact())
    }

    /// The (area, MRED)-non-dominated subset of the library.
    pub fn pareto(&self) -> Vec<&MultiplierEntry> {
        let mut front: Vec<&MultiplierEntry> = Vec::new();
        for e in &self.entries {
            let dominated = self.entries.iter().any(|o| {
                (o.transistors() <= e.transistors() && o.profile.mred < e.profile.mred)
                    || (o.transistors() < e.transistors() && o.profile.mred <= e.profile.mred)
            });
            if !dominated {
                front.push(e);
            }
        }
        front
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the library is empty (never true for the provided
    /// constructors).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl std::ops::Index<usize> for MultiplierLibrary {
    type Output = MultiplierEntry;

    fn index(&self, index: usize) -> &MultiplierEntry {
        &self.entries[index]
    }
}

fn exact_entry(base: &MultiplierCircuit, width: u32) -> MultiplierEntry {
    MultiplierEntry {
        name: format!("exact{width}"),
        circuit: base.clone(),
        recipe: CircuitRecipe::Exact,
        profile: ErrorProfile::zero(width),
    }
}

/// The `trunc<width>_<a>_<b>` ladder candidate.
fn truncation(width: u32, a: u8, b: u8) -> (String, CircuitRecipe) {
    (
        format!("trunc{width}_{a}_{b}"),
        CircuitRecipe::Truncation { a, b },
    )
}

/// Builds every `(name, recipe)` candidate over the exact Dadda
/// `base` and characterizes them in parallel (characterization is the
/// construction cost). The `(0, 0)` truncation rung is exact by
/// construction and is not swept.
fn characterize(
    base: &MultiplierCircuit,
    width: u32,
    candidates: &[(String, CircuitRecipe)],
) -> Vec<MultiplierEntry> {
    carma_exec::par_map(candidates, |(name, recipe)| {
        let circuit = recipe.build(base, width, ReductionKind::Dadda);
        debug_assert!(
            prescreen_circuit(&circuit).is_ok(),
            "candidate `{name}` failed static pre-screen: {:?}",
            prescreen_circuit(&circuit)
        );
        let profile = if *recipe == (CircuitRecipe::Truncation { a: 0, b: 0 }) {
            ErrorProfile::zero(width)
        } else {
            ErrorProfile::exhaustive(&circuit)
        };
        MultiplierEntry {
            name: name.clone(),
            circuit,
            recipe: recipe.clone(),
            profile,
        }
    })
}

/// The NSGA-II problem: minimize (transistors, MRED) over
/// [`ApproxGenome`]s.
#[derive(Debug)]
struct ApproxSearch {
    base: MultiplierCircuit,
    config: LibraryConfig,
}

impl ApproxSearch {
    fn gate_count(&self) -> u32 {
        self.base.netlist().gate_ids().len() as u32
    }

    fn random_prune(&self, rng: &mut dyn Rng) -> Prune {
        Prune {
            gate: rng.random_range(0..self.gate_count()),
            action: PruneAction::ALL[rng.random_range(0..PruneAction::ALL.len())],
        }
    }
}

impl MultiObjectiveProblem for ApproxSearch {
    type Genome = ApproxGenome;

    fn objectives(&self) -> usize {
        2
    }

    fn random_genome(&self, rng: &mut dyn Rng) -> ApproxGenome {
        let max_t = u32::from(self.config.max_truncation);
        let n_prunes = rng.random_range(0..=self.config.max_prunes.min(8));
        ApproxGenome {
            truncate_a: rng.random_range(0..=max_t) as u8,
            truncate_b: rng.random_range(0..=max_t) as u8,
            prunes: (0..n_prunes).map(|_| self.random_prune(rng)).collect(),
        }
    }

    fn crossover(&self, a: &ApproxGenome, b: &ApproxGenome, rng: &mut dyn Rng) -> ApproxGenome {
        let mut prunes: Vec<Prune> = Vec::new();
        for p in a.prunes.iter().chain(&b.prunes) {
            if rng.random_bool(0.5)
                && prunes.len() < self.config.max_prunes
                && !prunes.iter().any(|q| q.gate == p.gate)
            {
                prunes.push(*p);
            }
        }
        ApproxGenome {
            truncate_a: if rng.random_bool(0.5) {
                a.truncate_a
            } else {
                b.truncate_a
            },
            truncate_b: if rng.random_bool(0.5) {
                a.truncate_b
            } else {
                b.truncate_b
            },
            prunes,
        }
    }

    fn mutate(&self, g: &mut ApproxGenome, rng: &mut dyn Rng) {
        match rng.random_range(0..4u32) {
            0 => {
                // Nudge a truncation depth.
                let t = if rng.random_bool(0.5) {
                    &mut g.truncate_a
                } else {
                    &mut g.truncate_b
                };
                if rng.random_bool(0.5) {
                    *t = (*t + 1).min(self.config.max_truncation);
                } else {
                    *t = t.saturating_sub(1);
                }
            }
            1 => {
                // Add a prune.
                if g.prunes.len() < self.config.max_prunes {
                    g.prunes.push(self.random_prune(rng));
                }
            }
            2 => {
                // Remove a prune.
                if !g.prunes.is_empty() {
                    let i = rng.random_range(0..g.prunes.len());
                    g.prunes.remove(i);
                }
            }
            _ => {
                // Retarget a prune.
                if g.prunes.is_empty() {
                    g.prunes.push(self.random_prune(rng));
                } else {
                    let i = rng.random_range(0..g.prunes.len());
                    g.prunes[i] = self.random_prune(rng);
                }
            }
        }
    }

    fn evaluate(&self, g: &ApproxGenome) -> Vec<f64> {
        let circuit = g.apply(&self.base);
        let profile = ErrorProfile::exhaustive(&circuit);
        vec![circuit.transistor_count() as f64, profile.mred]
    }

    fn evaluate_batch(&self, genomes: &[ApproxGenome]) -> Vec<Vec<f64>> {
        // One genome's netlist sweep + error characterization is the
        // whole cost of the library search; fan the generation out.
        carma_ga::par_evaluate_multi(self, genomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_contains_exact_and_is_sorted() {
        let lib = MultiplierLibrary::truncation_ladder(8, 2);
        assert_eq!(lib.width(), 8);
        assert_eq!(lib.exact().profile.mred, 0.0);
        for w in lib.entries().windows(2) {
            assert!(w[0].profile.mred <= w[1].profile.mred);
        }
        // (ta, tb) with ta ≤ tb ≤ 2: 6 combinations.
        assert_eq!(lib.len(), 6);
    }

    #[test]
    fn best_within_mred_trades_area_for_error() {
        let lib = MultiplierLibrary::truncation_ladder(8, 3);
        let strict = lib.best_within_mred(0.0);
        let loose = lib.best_within_mred(0.05);
        assert_eq!(strict.name, lib.exact().name);
        assert!(loose.transistors() < strict.transistors());
        assert!(loose.profile.mred <= 0.05);
    }

    #[test]
    fn best_within_mred_falls_back_to_exact() {
        let lib = MultiplierLibrary::truncation_ladder(4, 1);
        // Impossible bound below any entry's error but above zero →
        // exact still qualifies (mred 0 ≤ bound).
        let e = lib.best_within_mred(1e-12);
        assert_eq!(e.profile.mred, 0.0);
    }

    #[test]
    fn pareto_front_is_non_dominated() {
        let lib = MultiplierLibrary::truncation_ladder(8, 3);
        let front = lib.pareto();
        assert!(!front.is_empty());
        for a in &front {
            for b in &front {
                let dominates =
                    b.transistors() < a.transistors() && b.profile.mred < a.profile.mred;
                assert!(!dominates, "{} dominated by {}", a.name, b.name);
            }
        }
    }

    #[test]
    fn classic_families_mix_ladder_bam_tcc() {
        let lib = MultiplierLibrary::classic_families(8, 2);
        let names: Vec<&str> = lib.entries().iter().map(|e| e.name.as_str()).collect();
        assert!(names.iter().any(|n| n.starts_with("trunc8")), "{names:?}");
        assert!(names.iter().any(|n| n.starts_with("bam8")), "{names:?}");
        assert!(names.iter().any(|n| n.starts_with("tcc8")), "{names:?}");
        assert_eq!(lib.exact().profile.mred, 0.0);
        // BAM offers points the ladder doesn't: the Pareto front of
        // the mixed library is at least as large as the ladder's.
        let ladder = MultiplierLibrary::truncation_ladder(8, 2);
        assert!(lib.pareto().len() >= ladder.pareto().len());
    }

    #[test]
    fn evolve_small_finds_cheaper_units() {
        let config = LibraryConfig {
            width: 4,
            max_truncation: 2,
            max_prunes: 6,
            nsga: Nsga2Config::default()
                .with_population(12)
                .with_generations(6)
                .with_seed(21),
            ..LibraryConfig::default()
        };
        let lib = MultiplierLibrary::evolve(config);
        assert!(lib.len() >= 2, "search found nothing: {}", lib.len());
        let exact = lib.exact();
        let cheaper = lib
            .entries()
            .iter()
            .any(|e| e.transistors() < exact.transistors());
        assert!(cheaper, "no entry cheaper than exact");
    }

    #[test]
    #[should_panic(expected = "evolved library needs width in 1..=10")]
    fn evolve_rejects_widths_above_10() {
        let _ = MultiplierLibrary::evolve(LibraryConfig {
            width: 11,
            ..LibraryConfig::default()
        });
    }

    #[test]
    fn area_saving_vs_exact() {
        let lib = MultiplierLibrary::truncation_ladder(8, 2);
        let exact = lib.exact();
        let worst = lib.entries().last().unwrap();
        let saving = worst.area_saving_vs(exact);
        assert!(saving > 0.0 && saving < 1.0, "saving = {saving}");
    }

    #[test]
    fn index_and_display() {
        let lib = MultiplierLibrary::truncation_ladder(4, 1);
        let s = lib[0].to_string();
        assert!(s.contains("transistors"), "{s}");
        assert!(!lib.is_empty());
    }

    #[test]
    #[should_panic(expected = "library cannot be empty")]
    fn empty_library_rejected() {
        let _ = MultiplierLibrary::from_entries(8, Vec::new());
    }

    #[test]
    fn prescreen_accepts_every_builtin_recipe() {
        let base = MultiplierCircuit::generate(8, ReductionKind::Dadda);
        prescreen_circuit(&base).unwrap();
        prescreen_circuit(&ApproxGenome::truncation(2, 3).apply(&base)).unwrap();
        prescreen_circuit(&crate::families::broken_array(8, 3, ReductionKind::Dadda)).unwrap();
        prescreen_circuit(&crate::families::truncated_with_correction(
            8,
            3,
            ReductionKind::Dadda,
        ))
        .unwrap();
    }

    #[test]
    fn prescreen_rejects_misnamed_ports() {
        let mut base = MultiplierCircuit::generate(4, ReductionKind::Dadda);
        base.netlist_mut().set_name("renamed");
        // Corrupt the port convention by appending a ninth output.
        let extra = base.netlist_mut().constant(false);
        base.netlist_mut().output("p_extra", extra);
        let err = prescreen_circuit(&base).unwrap_err();
        assert!(err.contains("outputs"), "{err}");
    }

    #[test]
    fn from_parts_round_trips_every_family() {
        // classic_families covers Exact, Truncation, BrokenArray and
        // TruncCorrect recipes in one library.
        let original = MultiplierLibrary::classic_families(8, 2);
        let parts: Vec<(String, CircuitRecipe, ErrorProfile)> = original
            .entries()
            .iter()
            .map(|e| (e.name.clone(), e.recipe.clone(), e.profile))
            .collect();
        let rebuilt = MultiplierLibrary::from_parts(8, ReductionKind::Dadda, &parts);
        assert_eq!(rebuilt.len(), original.len());
        for (a, b) in original.entries().iter().zip(rebuilt.entries()) {
            assert_eq!(a.name, b.name, "order must be preserved verbatim");
            assert_eq!(a.transistors(), b.transistors());
            assert_eq!(a.recipe, b.recipe);
            assert_eq!(a.profile, b.profile);
        }
    }

    #[test]
    fn genome_recipe_rebuilds_evolved_entries() {
        let config = LibraryConfig {
            width: 4,
            max_truncation: 2,
            max_prunes: 6,
            nsga: Nsga2Config::default()
                .with_population(12)
                .with_generations(6)
                .with_seed(21),
            ..LibraryConfig::default()
        };
        let original = MultiplierLibrary::evolve(config);
        let parts: Vec<(String, CircuitRecipe, ErrorProfile)> = original
            .entries()
            .iter()
            .map(|e| (e.name.clone(), e.recipe.clone(), e.profile))
            .collect();
        let rebuilt = MultiplierLibrary::from_parts(4, config.kind, &parts);
        for (a, b) in original.entries().iter().zip(rebuilt.entries()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.transistors(), b.transistors());
            // The rebuilt circuit is functionally identical: an
            // exhaustive re-characterization reproduces the stored
            // profile bit-for-bit.
            let recheck = if b.recipe == CircuitRecipe::Exact {
                ErrorProfile::zero(4)
            } else {
                ErrorProfile::exhaustive(&b.circuit)
            };
            assert_eq!(recheck, a.profile);
        }
    }
}
