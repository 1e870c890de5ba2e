//! Typed experiment results: the [`Artifact`] enum unifying every
//! row type behind one [`Report`] with text, JSON and CSV sinks.

use serde::Serialize;

use carma_netlist::TechNode;

use super::{banner_text, Scale};
use crate::experiments::{format_table, Fig2Row, Fig3Row, ReductionRow};
use crate::report::to_csv;

/// One arm of the `ablation_family` comparison.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FamilyRow {
    /// Library family name (`ladder`, `classic`, `evolved`).
    pub library: String,
    /// Number of multipliers in the library.
    pub units: usize,
    /// Name of the multiplier the GA chose.
    pub multiplier: String,
    /// Throughput of the chosen design, FPS.
    pub fps: f64,
    /// Embodied carbon of the chosen design, grams.
    pub carbon_g: f64,
    /// Saving vs the exact baseline, percent.
    pub saving_pct: f64,
}

/// One arm of the `ablation_grid` (fab carbon-intensity) sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GridRow {
    /// Grid-mix name.
    pub grid: String,
    /// Carbon intensity, gCO₂/kWh.
    pub ci_g_per_kwh: f64,
    /// Exact-baseline embodied carbon, grams.
    pub exact_g: f64,
    /// GA-CDP embodied carbon, grams.
    pub ga_cdp_g: f64,
    /// Saving, percent.
    pub saving_pct: f64,
}

/// One arm of the `ablation_metric` (GA fitness) comparison.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricRow {
    /// Fitness-metric name.
    pub fitness: String,
    /// MAC count of the chosen design.
    pub macs: u32,
    /// Throughput, FPS.
    pub fps: f64,
    /// Embodied carbon, grams.
    pub carbon_g: f64,
    /// Energy per inference, millijoules.
    pub energy_mj: f64,
    /// Saving vs the exact baseline, percent.
    pub saving_pct: f64,
}

/// One arm of the `ablation_search` (GA vs random) comparison.
/// `None` metrics mean the strategy found no feasible design.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SearchRow {
    /// Search-strategy name.
    pub search: String,
    /// Evaluation budget.
    pub evals: usize,
    /// Throughput of the best design, FPS.
    pub fps: Option<f64>,
    /// Embodied carbon of the best design, grams.
    pub carbon_g: Option<f64>,
    /// Saving vs the exact baseline, percent.
    pub saving_pct: Option<f64>,
}

/// One arm of the `ablation_yield` sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct YieldRow {
    /// Technology node.
    #[serde(serialize_with = "crate::experiments::serialize_node")]
    pub node: TechNode,
    /// Yield-model name.
    pub yield_model: String,
    /// Exact-baseline embodied carbon, grams.
    pub exact_g: f64,
    /// GA-CDP embodied carbon, grams.
    pub ga_cdp_g: f64,
    /// Saving, percent.
    pub saving_pct: f64,
}

/// One cell of the `deployment` grid-mix × lifetime sweep: the
/// objective-optimal design for that deployment scenario and its
/// lifecycle carbon bill.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DeploymentRow {
    /// Deployment-site grid-mix name.
    pub grid: String,
    /// Grid carbon intensity, gCO₂/kWh.
    pub ci_g_per_kwh: f64,
    /// Deployed lifetime, hours.
    pub lifetime_h: f64,
    /// MAC count of the chosen design.
    pub macs: u32,
    /// Name of the chosen multiplier.
    pub multiplier: String,
    /// Throughput, FPS.
    pub fps: f64,
    /// Die embodied carbon, grams.
    pub die_g: f64,
    /// System embodied carbon (package + DRAM), grams.
    pub system_g: f64,
    /// Operational carbon over the lifetime, grams.
    pub operational_g: f64,
    /// Total lifecycle carbon, grams.
    pub total_g: f64,
    /// Operational share of the total, percent.
    pub operational_share_pct: f64,
    /// Total-carbon saving vs the best exact NVDLA preset under the
    /// same objective and profile, percent.
    pub total_saving_pct: f64,
    /// Lifetime at which operational overtakes embodied for the chosen
    /// design, hours (`None` when use-phase emissions never accrue).
    pub crossover_h: Option<f64>,
}

/// One circuit's summary line of the `lint` experiment: structural
/// stats, diagnostic counts, and the static error bound next to the
/// dynamically measured worst-case error it must dominate.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LintRow {
    /// Library family the circuit belongs to.
    pub family: String,
    /// Circuit (library entry) name.
    pub circuit: String,
    /// Gate count.
    pub gates: usize,
    /// Transistor count (the area proxy).
    pub transistors: u64,
    /// Logic depth in gate levels.
    pub depth: usize,
    /// Error-severity diagnostics.
    pub errors: usize,
    /// Warning-severity diagnostics.
    pub warnings: usize,
    /// Info-severity diagnostics.
    pub infos: usize,
    /// Sound static bound on `max |approx − exact|`.
    pub static_bound: u64,
    /// Exhaustively measured worst-case absolute error.
    pub measured_wce: u64,
    /// Whether `static_bound >= measured_wce` (must always hold).
    pub sound: bool,
}

/// One diagnostic of the `lint` experiment, flattened for reporting.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LintFindingRow {
    /// Library family the circuit belongs to.
    pub family: String,
    /// Circuit (library entry) name.
    pub circuit: String,
    /// Severity label (`info`, `warning`, `error`).
    pub severity: String,
    /// Machine-readable lint code (`dead-gate`, `floating-input`, …).
    pub code: String,
    /// Node the finding anchors to (`n42`), or `-`.
    pub node: String,
    /// Port the finding anchors to, or `-`.
    pub port: String,
    /// Human-readable explanation.
    pub message: String,
}

/// A typed experiment result table — one variant per row family.
#[derive(Debug, Clone, PartialEq)]
pub enum Artifact {
    /// Figure 2 scatter points.
    Fig2(Vec<Fig2Row>),
    /// Figure 2 reduction-table rows (`table1`).
    Reduction(Vec<ReductionRow>),
    /// Figure 3 bar groups.
    Fig3(Vec<Fig3Row>),
    /// `ablation_family` arms.
    Family(Vec<FamilyRow>),
    /// `ablation_grid` arms.
    Grid(Vec<GridRow>),
    /// `ablation_metric` arms.
    Metric(Vec<MetricRow>),
    /// `ablation_search` arms.
    Search(Vec<SearchRow>),
    /// `ablation_yield` arms.
    Yield(Vec<YieldRow>),
    /// `deployment` sweep cells.
    Deployment(Vec<DeploymentRow>),
    /// `lint` per-circuit summaries.
    Lint(Vec<LintRow>),
    /// `lint` per-diagnostic findings.
    LintFinding(Vec<LintFindingRow>),
}

fn opt(v: Option<f64>, fmt: impl Fn(f64) -> String, none: &str) -> String {
    v.map(fmt).unwrap_or_else(|| none.to_string())
}

impl Artifact {
    /// Stable kind tag (used in the JSON sink).
    pub fn kind(&self) -> &'static str {
        match self {
            Artifact::Fig2(_) => "fig2",
            Artifact::Reduction(_) => "reduction",
            Artifact::Fig3(_) => "fig3",
            Artifact::Family(_) => "family",
            Artifact::Grid(_) => "grid",
            Artifact::Metric(_) => "metric",
            Artifact::Search(_) => "search",
            Artifact::Yield(_) => "yield",
            Artifact::Deployment(_) => "deployment",
            Artifact::Lint(_) => "lint",
            Artifact::LintFinding(_) => "lint_finding",
        }
    }

    /// Number of typed rows.
    pub fn len(&self) -> usize {
        match self {
            Artifact::Fig2(r) => r.len(),
            Artifact::Reduction(r) => r.len(),
            Artifact::Fig3(r) => r.len(),
            Artifact::Family(r) => r.len(),
            Artifact::Grid(r) => r.len(),
            Artifact::Metric(r) => r.len(),
            Artifact::Search(r) => r.len(),
            Artifact::Yield(r) => r.len(),
            Artifact::Deployment(r) => r.len(),
            Artifact::Lint(r) => r.len(),
            Artifact::LintFinding(r) => r.len(),
        }
    }

    /// Whether the artifact holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column header of the rendered text table.
    pub fn header(&self) -> Vec<String> {
        let own = |cols: &[&str]| cols.iter().map(std::string::ToString::to_string).collect();
        match self {
            Artifact::Fig2(_) => own(&["series", "MACs", "FPS", "carbon [gCO2]"]),
            Artifact::Reduction(rows) => {
                let mut cols = vec!["node".to_string(), "type".to_string()];
                for class in reduction_classes(rows) {
                    cols.push(format!("{:.1}%", class * 100.0));
                }
                cols
            }
            Artifact::Fig3(_) => own(&[
                "model",
                "node",
                "exact",
                "approx-only",
                "ga-cdp",
                "exact [gCO2]",
            ]),
            Artifact::Family(_) => own(&[
                "library",
                "units",
                "chosen mult",
                "FPS",
                "carbon [g]",
                "saving %",
            ]),
            Artifact::Grid(_) => {
                own(&["grid", "CI [g/kWh]", "exact [g]", "ga-cdp [g]", "saving %"])
            }
            Artifact::Metric(_) => own(&[
                "fitness",
                "MACs",
                "FPS",
                "carbon [g]",
                "energy [mJ]",
                "saving %",
            ]),
            Artifact::Search(_) => own(&["search", "evals", "FPS", "carbon [g]", "saving %"]),
            Artifact::Yield(_) => {
                own(&["node", "yield model", "exact [g]", "ga-cdp [g]", "saving %"])
            }
            Artifact::Deployment(_) => own(&[
                "grid",
                "CI [g/kWh]",
                "life [h]",
                "MACs",
                "mult",
                "FPS",
                "die [g]",
                "system [g]",
                "op [g]",
                "total [g]",
                "op %",
                "saving %",
                "crossover [h]",
            ]),
            Artifact::Lint(_) => own(&[
                "family",
                "circuit",
                "gates",
                "transistors",
                "depth",
                "err",
                "warn",
                "info",
                "static bound",
                "measured WCE",
                "sound",
            ]),
            Artifact::LintFinding(_) => own(&[
                "family", "circuit", "severity", "code", "node", "port", "message",
            ]),
        }
    }

    /// Machine-readable column names for the CSV sink (snake_case).
    pub fn csv_header(&self) -> Vec<String> {
        let own = |cols: &[&str]| cols.iter().map(std::string::ToString::to_string).collect();
        match self {
            Artifact::Fig2(_) => own(&["series", "macs", "fps", "carbon_g"]),
            Artifact::Reduction(rows) => {
                let mut cols = vec!["node".to_string(), "type".to_string()];
                for class in reduction_classes(rows) {
                    cols.push(format!("pct_at_{}", class));
                }
                cols
            }
            Artifact::Fig3(_) => own(&[
                "model",
                "node",
                "exact",
                "approx_only",
                "ga_cdp",
                "exact_carbon_g",
            ]),
            Artifact::Family(_) => own(&[
                "library",
                "units",
                "multiplier",
                "fps",
                "carbon_g",
                "saving_pct",
            ]),
            Artifact::Grid(_) => {
                own(&["grid", "ci_g_per_kwh", "exact_g", "ga_cdp_g", "saving_pct"])
            }
            Artifact::Metric(_) => own(&[
                "fitness",
                "macs",
                "fps",
                "carbon_g",
                "energy_mj",
                "saving_pct",
            ]),
            Artifact::Search(_) => own(&["search", "evals", "fps", "carbon_g", "saving_pct"]),
            Artifact::Yield(_) => {
                own(&["node", "yield_model", "exact_g", "ga_cdp_g", "saving_pct"])
            }
            Artifact::Deployment(_) => own(&[
                "grid",
                "ci_g_per_kwh",
                "lifetime_h",
                "macs",
                "multiplier",
                "fps",
                "die_g",
                "system_g",
                "operational_g",
                "total_g",
                "operational_share_pct",
                "total_saving_pct",
                "crossover_h",
            ]),
            Artifact::Lint(_) => own(&[
                "family",
                "circuit",
                "gates",
                "transistors",
                "depth",
                "errors",
                "warnings",
                "infos",
                "static_bound",
                "measured_wce",
                "sound",
            ]),
            Artifact::LintFinding(_) => own(&[
                "family", "circuit", "severity", "code", "node", "port", "message",
            ]),
        }
    }

    /// The rows as formatted display cells — the exact strings the
    /// text table and the CSV sink both emit.
    pub fn table_rows(&self) -> Vec<Vec<String>> {
        match self {
            Artifact::Fig2(rows) => rows
                .iter()
                .map(|r| {
                    vec![
                        r.series.clone(),
                        if r.macs > 0 {
                            r.macs.to_string()
                        } else {
                            "-".to_string()
                        },
                        format!("{:.2}", r.fps),
                        format!("{:.3}", r.carbon_g),
                    ]
                })
                .collect(),
            Artifact::Reduction(rows) => {
                // Pivot to the paper's layout: per node, one `avg` and
                // one `peak` line with the classes as columns.
                let classes = reduction_classes(rows);
                let mut out = Vec::new();
                for chunk in rows.chunks(classes.len().max(1)) {
                    let node = chunk[0].node.to_string();
                    let avg: Vec<String> =
                        chunk.iter().map(|r| format!("{:.2}", r.avg_pct)).collect();
                    let peak: Vec<String> =
                        chunk.iter().map(|r| format!("{:.2}", r.peak_pct)).collect();
                    let mut avg_row = vec![node, "avg".to_string()];
                    avg_row.extend(avg);
                    let mut peak_row = vec![String::new(), "peak".to_string()];
                    peak_row.extend(peak);
                    out.push(avg_row);
                    out.push(peak_row);
                }
                out
            }
            Artifact::Fig3(rows) => rows
                .iter()
                .map(|r| {
                    vec![
                        r.model.clone(),
                        r.node.to_string(),
                        format!("{:.3}", r.exact),
                        format!("{:.3}", r.approx_only),
                        format!("{:.3}", r.ga_cdp),
                        format!("{:.2}", r.exact_carbon_g),
                    ]
                })
                .collect(),
            Artifact::Family(rows) => rows
                .iter()
                .map(|r| {
                    vec![
                        r.library.clone(),
                        r.units.to_string(),
                        r.multiplier.clone(),
                        format!("{:.1}", r.fps),
                        format!("{:.3}", r.carbon_g),
                        format!("{:.1}", r.saving_pct),
                    ]
                })
                .collect(),
            Artifact::Grid(rows) => rows
                .iter()
                .map(|r| {
                    vec![
                        r.grid.clone(),
                        format!("{:.0}", r.ci_g_per_kwh),
                        format!("{:.3}", r.exact_g),
                        format!("{:.3}", r.ga_cdp_g),
                        format!("{:.1}", r.saving_pct),
                    ]
                })
                .collect(),
            Artifact::Metric(rows) => rows
                .iter()
                .map(|r| {
                    vec![
                        r.fitness.clone(),
                        r.macs.to_string(),
                        format!("{:.1}", r.fps),
                        format!("{:.3}", r.carbon_g),
                        format!("{:.2}", r.energy_mj),
                        format!("{:.1}", r.saving_pct),
                    ]
                })
                .collect(),
            Artifact::Search(rows) => rows
                .iter()
                .map(|r| {
                    vec![
                        r.search.clone(),
                        r.evals.to_string(),
                        opt(r.fps, |v| format!("{v:.1}"), "-"),
                        opt(
                            r.carbon_g,
                            |v| format!("{v:.3}"),
                            "(no feasible design found)",
                        ),
                        opt(r.saving_pct, |v| format!("{v:.1}"), "-"),
                    ]
                })
                .collect(),
            Artifact::Yield(rows) => rows
                .iter()
                .map(|r| {
                    vec![
                        r.node.to_string(),
                        r.yield_model.clone(),
                        format!("{:.4}", r.exact_g),
                        format!("{:.4}", r.ga_cdp_g),
                        format!("{:.1}", r.saving_pct),
                    ]
                })
                .collect(),
            Artifact::Deployment(rows) => rows
                .iter()
                .map(|r| {
                    vec![
                        r.grid.clone(),
                        format!("{:.0}", r.ci_g_per_kwh),
                        format!("{:.0}", r.lifetime_h),
                        r.macs.to_string(),
                        r.multiplier.clone(),
                        format!("{:.1}", r.fps),
                        format!("{:.3}", r.die_g),
                        format!("{:.3}", r.system_g),
                        format!("{:.3}", r.operational_g),
                        format!("{:.3}", r.total_g),
                        format!("{:.1}", r.operational_share_pct),
                        format!("{:.1}", r.total_saving_pct),
                        opt(r.crossover_h, |v| format!("{v:.0}"), "-"),
                    ]
                })
                .collect(),
            Artifact::Lint(rows) => rows
                .iter()
                .map(|r| {
                    vec![
                        r.family.clone(),
                        r.circuit.clone(),
                        r.gates.to_string(),
                        r.transistors.to_string(),
                        r.depth.to_string(),
                        r.errors.to_string(),
                        r.warnings.to_string(),
                        r.infos.to_string(),
                        r.static_bound.to_string(),
                        r.measured_wce.to_string(),
                        if r.sound { "yes" } else { "NO" }.to_string(),
                    ]
                })
                .collect(),
            Artifact::LintFinding(rows) => rows
                .iter()
                .map(|r| {
                    vec![
                        r.family.clone(),
                        r.circuit.clone(),
                        r.severity.clone(),
                        r.code.clone(),
                        r.node.clone(),
                        r.port.clone(),
                        r.message.clone(),
                    ]
                })
                .collect(),
        }
    }

    /// Renders the artifact as an aligned plain-text table.
    pub fn to_table(&self) -> String {
        let header = self.header();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        format_table(&header_refs, &self.table_rows())
    }

    /// Renders the artifact as CSV, via the shared
    /// [`to_csv`](crate::report::to_csv) writer: machine headers
    /// ([`Artifact::csv_header`]) over the display cells.
    pub fn to_csv(&self) -> String {
        let header = self.csv_header();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        to_csv(&header_refs, &self.table_rows())
    }

    fn rows_json(&self) -> String {
        match self {
            Artifact::Fig2(r) => serde::json::to_string(r),
            Artifact::Reduction(r) => serde::json::to_string(r),
            Artifact::Fig3(r) => serde::json::to_string(r),
            Artifact::Family(r) => serde::json::to_string(r),
            Artifact::Grid(r) => serde::json::to_string(r),
            Artifact::Metric(r) => serde::json::to_string(r),
            Artifact::Search(r) => serde::json::to_string(r),
            Artifact::Yield(r) => serde::json::to_string(r),
            Artifact::Deployment(r) => serde::json::to_string(r),
            Artifact::Lint(r) => serde::json::to_string(r),
            Artifact::LintFinding(r) => serde::json::to_string(r),
        }
    }
}

/// The distinct accuracy classes of a reduction table, in first-node
/// order (the table is class-major within each node).
fn reduction_classes(rows: &[ReductionRow]) -> Vec<f64> {
    let mut classes = Vec::new();
    for r in rows {
        if classes.contains(&r.accuracy_class) {
            break;
        }
        classes.push(r.accuracy_class);
    }
    classes
}

/// Aggregated time spent under one span name across a run — the
/// span table of a [`Provenance`] block.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTotal {
    /// Span name (`"memo.library"`, `"ga.generation"`, …).
    pub name: String,
    /// Number of spans recorded under the name.
    pub count: u64,
    /// Total seconds across them.
    pub total_s: f64,
}

/// Machine-readable run provenance, attached to a [`Report`] when a
/// trace collector was installed for the run. **Never** part of the
/// report's own sinks (`to_json`/`to_csv`/text): the result payload
/// stays byte-identical trace-on vs trace-off, which the serve cache
/// and the memo byte-identity suite rely on. Consumers read it via
/// [`Provenance::to_json`] (`carma run --trace json`).
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Wall-clock seconds of the whole run.
    pub wall_s: f64,
    /// Thread width the `carma-exec` pool resolved to.
    pub threads: usize,
    /// Build identity (`carma <version> (<git>)`).
    pub build: String,
    /// Memo hit/miss/disk-hit counters per stage, when the run's
    /// environment was memoized.
    pub memo: Option<carma_memo::MemoStats>,
    /// Per-span-name totals, sorted by name.
    pub spans: Vec<SpanTotal>,
}

impl Provenance {
    /// The provenance block as one JSON object.
    pub fn to_json(&self) -> String {
        let memo = match &self.memo {
            None => "null".to_string(),
            Some(stats) => {
                let stage = |c: carma_memo::StageCounts| {
                    format!(
                        "{{\"hits\":{},\"misses\":{},\"disk_hits\":{}}}",
                        c.hits, c.misses, c.disk_hits
                    )
                };
                format!(
                    "{{\"library\":{},\"context\":{},\"cell\":{}}}",
                    stage(stats.library),
                    stage(stats.context),
                    stage(stats.cell)
                )
            }
        };
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":{},\"count\":{},\"total_s\":{:.6}}}",
                    serde::json::to_string(&s.name),
                    s.count,
                    s.total_s
                )
            })
            .collect();
        format!(
            "{{\"wall_s\":{:.6},\"threads\":{},\"build\":{},\"memo\":{memo},\"spans\":[{}]}}",
            self.wall_s,
            self.threads,
            serde::json::to_string(&self.build),
            spans.join(",")
        )
    }
}

/// The complete result of one scenario run: metadata, typed artifacts
/// and the human-readable observation notes the binaries print under
/// their tables.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Registry name of the experiment.
    pub experiment: String,
    /// Banner title.
    pub title: String,
    /// The scale it ran at.
    pub scale: Scale,
    /// Typed result tables.
    pub artifacts: Vec<Artifact>,
    /// Headline observations (one string per printed line/paragraph).
    pub notes: Vec<String>,
    /// Run provenance, present only when tracing was installed.
    /// Deliberately excluded from `to_json`/`to_csv`/text so result
    /// payloads are byte-identical with tracing on or off.
    pub provenance: Option<Provenance>,
}

impl Report {
    /// The experiment banner.
    pub fn banner_text(&self) -> String {
        banner_text(&self.title, self.scale)
    }

    /// Every artifact rendered as an aligned text table (one blank
    /// line after each).
    pub fn tables_text(&self) -> String {
        let mut out = String::new();
        for artifact in &self.artifacts {
            out.push_str(&artifact.to_table());
            out.push('\n');
        }
        out
    }

    /// The observation notes, one line/paragraph each.
    pub fn notes_text(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        out
    }

    /// The full text rendering: banner, tables, notes — what
    /// `carma run` prints by default.
    pub fn render_text(&self) -> String {
        format!(
            "{}{}{}",
            self.banner_text(),
            self.tables_text(),
            self.notes_text()
        )
    }

    /// The whole report as one JSON object
    /// (`{"experiment": …, "artifacts": [{"kind": …, "rows": […]}], …}`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"experiment\":{},",
            serde::json::to_string(&self.experiment)
        ));
        out.push_str(&format!(
            "\"title\":{},",
            serde::json::to_string(&self.title)
        ));
        out.push_str(&format!(
            "\"scale\":{},",
            serde::json::to_string(self.scale.as_str())
        ));
        out.push_str("\"artifacts\":[");
        for (i, artifact) in self.artifacts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"kind\":{},\"rows\":{}}}",
                serde::json::to_string(artifact.kind()),
                artifact.rows_json()
            ));
        }
        out.push_str("],");
        out.push_str(&format!(
            "\"notes\":{}",
            serde::json::to_string(&self.notes)
        ));
        out.push('}');
        out
    }

    /// Every artifact rendered as CSV (blank line between artifacts).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for (i, artifact) in self.artifacts.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&artifact.to_csv());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        Report {
            experiment: "fig2".to_string(),
            title: "Figure 2 — test".to_string(),
            scale: Scale::Quick,
            artifacts: vec![Artifact::Fig2(vec![
                Fig2Row {
                    series: "exact".to_string(),
                    macs: 64,
                    fps: 12.5,
                    carbon_g: 1.25,
                },
                Fig2Row {
                    series: "ga-cdp@30".to_string(),
                    macs: 0,
                    fps: 31.0,
                    carbon_g: 0.75,
                },
            ])],
            notes: vec!["a note".to_string()],
            provenance: None,
        }
    }

    #[test]
    fn text_rendering_has_banner_table_and_notes() {
        let text = sample_report().render_text();
        assert!(text.starts_with("=== CARMA experiment: Figure 2 — test (scale: Quick) ==="));
        assert!(text.contains("series"), "{text}");
        assert!(text.contains("ga-cdp@30"));
        assert!(text.trim_end().ends_with("a note"));
    }

    #[test]
    fn ga_points_render_dash_for_macs() {
        let rows = sample_report().artifacts[0].table_rows();
        assert_eq!(rows[0][1], "64");
        assert_eq!(rows[1][1], "-");
    }

    #[test]
    fn json_sink_is_valid_json() {
        let json = sample_report().to_json();
        let v = serde::json::parse(&json).expect("valid JSON");
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("fig2"));
        assert_eq!(v.get("scale").unwrap().as_str(), Some("quick"));
        let artifacts = v.get("artifacts").unwrap().as_array().unwrap();
        assert_eq!(artifacts[0].get("kind").unwrap().as_str(), Some("fig2"));
        assert_eq!(
            artifacts[0].get("rows").unwrap().as_array().unwrap().len(),
            2
        );
        assert_eq!(v.get("notes").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn csv_sink_matches_table_cells() {
        let csv = sample_report().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "series,macs,fps,carbon_g");
        assert_eq!(lines[1], "exact,64,12.50,1.250");
    }

    #[test]
    fn search_rows_render_infeasible_markers() {
        let a = Artifact::Search(vec![SearchRow {
            search: "random".to_string(),
            evals: 10,
            fps: None,
            carbon_g: None,
            saving_pct: None,
        }]);
        let rows = a.table_rows();
        assert_eq!(rows[0][2], "-");
        assert_eq!(rows[0][3], "(no feasible design found)");
    }

    #[test]
    fn reduction_pivot_groups_by_node() {
        use carma_netlist::TechNode;
        let rows: Vec<ReductionRow> = [TechNode::N7, TechNode::N14]
            .iter()
            .flat_map(|&node| {
                [0.005, 0.02].iter().map(move |&class| ReductionRow {
                    node,
                    accuracy_class: class,
                    avg_pct: 1.0,
                    peak_pct: 2.0,
                })
            })
            .collect();
        let a = Artifact::Reduction(rows);
        assert_eq!(a.header(), vec!["node", "type", "0.5%", "2.0%"]);
        let table = a.table_rows();
        assert_eq!(table.len(), 4);
        assert_eq!(table[0][0], "7nm");
        assert_eq!(table[1][1], "peak");
        assert_eq!(table[2][0], "14nm");
    }
}
