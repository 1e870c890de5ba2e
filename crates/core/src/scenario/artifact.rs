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

/// One report column: its text-table header, its CSV header, and the
/// display cell both sinks print.
type Column<R> = (&'static str, &'static str, fn(&R) -> String);

/// An artifact rendered for the text and CSV sinks: two headers over
/// the same display cells.
struct Table {
    header: Vec<String>,
    csv_header: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// A row type's one report definition: the JSON sink's `kind` tag and
/// its ordered columns. The JSON sink serializes the typed rows
/// themselves, at full precision; the columns shape the text and CSV
/// sinks.
trait RowType: Serialize + Sized + 'static {
    /// Stable kind tag of the JSON sink.
    const KIND: &'static str;
    /// The columns, in print order.
    const COLUMNS: &'static [Column<Self>];

    /// The rendered table: one line per row, one cell per column.
    fn table(rows: &[Self]) -> Table {
        Table {
            header: Self::COLUMNS.iter().map(|c| c.0.to_string()).collect(),
            csv_header: Self::COLUMNS.iter().map(|c| c.1.to_string()).collect(),
            rows: rows
                .iter()
                .map(|r| Self::COLUMNS.iter().map(|c| (c.2)(r)).collect())
                .collect(),
        }
    }
}

/// One artifact's typed rows behind a type-erased view: what every
/// [`Artifact`] method reads through.
trait Rows {
    fn kind(&self) -> &'static str;
    fn len(&self) -> usize;
    fn table(&self) -> Table;
    fn json(&self) -> String;
}

impl<R: RowType> Rows for Vec<R> {
    fn kind(&self) -> &'static str {
        R::KIND
    }

    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn table(&self) -> Table {
        R::table(self)
    }

    fn json(&self) -> String {
        serde::json::to_string(self)
    }
}

/// `v` at `precision` decimals, or the `none` marker.
fn opt(v: Option<f64>, precision: usize, none: &str) -> String {
    v.map_or_else(|| none.to_string(), |v| format!("{v:.precision$}"))
}

impl RowType for Fig2Row {
    const KIND: &'static str = "fig2";
    const COLUMNS: &'static [Column<Self>] = &[
        ("series", "series", |r| r.series.clone()),
        // GA points need not be NVDLA presets: no MAC count.
        ("MACs", "macs", |r| match r.macs {
            0 => "-".to_string(),
            macs => macs.to_string(),
        }),
        ("FPS", "fps", |r| format!("{:.2}", r.fps)),
        ("carbon [gCO2]", "carbon_g", |r| {
            format!("{:.3}", r.carbon_g)
        }),
    ];
}

impl RowType for ReductionRow {
    const KIND: &'static str = "reduction";
    /// Printed transposed: each column is one line per node, named in
    /// the `type` column of both sinks.
    const COLUMNS: &'static [Column<Self>] = &[
        ("avg", "avg", |r| format!("{:.2}", r.avg_pct)),
        ("peak", "peak", |r| format!("{:.2}", r.peak_pct)),
    ];

    /// The paper's layout: per node, one line per column, with the
    /// accuracy classes as the table's columns.
    fn table(rows: &[Self]) -> Table {
        let classes = reduction_classes(rows);
        let mut header = vec!["node".to_string(), "type".to_string()];
        let mut csv_header = header.clone();
        for class in &classes {
            header.push(format!("{:.1}%", class * 100.0));
            csv_header.push(format!("pct_at_{class}"));
        }
        let mut lines = Vec::new();
        for chunk in rows.chunks(classes.len().max(1)) {
            for (i, (label, _, cell)) in Self::COLUMNS.iter().enumerate() {
                let node = if i == 0 {
                    chunk[0].node.to_string()
                } else {
                    String::new()
                };
                let mut line = vec![node, label.to_string()];
                line.extend(chunk.iter().map(cell));
                lines.push(line);
            }
        }
        Table {
            header,
            csv_header,
            rows: lines,
        }
    }
}

impl RowType for Fig3Row {
    const KIND: &'static str = "fig3";
    const COLUMNS: &'static [Column<Self>] = &[
        ("model", "model", |r| r.model.clone()),
        ("node", "node", |r| r.node.to_string()),
        ("exact", "exact", |r| format!("{:.3}", r.exact)),
        ("approx-only", "approx_only", |r| {
            format!("{:.3}", r.approx_only)
        }),
        ("ga-cdp", "ga_cdp", |r| format!("{:.3}", r.ga_cdp)),
        ("exact [gCO2]", "exact_carbon_g", |r| {
            format!("{:.2}", r.exact_carbon_g)
        }),
    ];
}

impl RowType for FamilyRow {
    const KIND: &'static str = "family";
    const COLUMNS: &'static [Column<Self>] = &[
        ("library", "library", |r| r.library.clone()),
        ("units", "units", |r| r.units.to_string()),
        ("chosen mult", "multiplier", |r| r.multiplier.clone()),
        ("FPS", "fps", |r| format!("{:.1}", r.fps)),
        ("carbon [g]", "carbon_g", |r| format!("{:.3}", r.carbon_g)),
        ("saving %", "saving_pct", |r| format!("{:.1}", r.saving_pct)),
    ];
}

impl RowType for GridRow {
    const KIND: &'static str = "grid";
    const COLUMNS: &'static [Column<Self>] = &[
        ("grid", "grid", |r| r.grid.clone()),
        ("CI [g/kWh]", "ci_g_per_kwh", |r| {
            format!("{:.0}", r.ci_g_per_kwh)
        }),
        ("exact [g]", "exact_g", |r| format!("{:.3}", r.exact_g)),
        ("ga-cdp [g]", "ga_cdp_g", |r| format!("{:.3}", r.ga_cdp_g)),
        ("saving %", "saving_pct", |r| format!("{:.1}", r.saving_pct)),
    ];
}

impl RowType for MetricRow {
    const KIND: &'static str = "metric";
    const COLUMNS: &'static [Column<Self>] = &[
        ("fitness", "fitness", |r| r.fitness.clone()),
        ("MACs", "macs", |r| r.macs.to_string()),
        ("FPS", "fps", |r| format!("{:.1}", r.fps)),
        ("carbon [g]", "carbon_g", |r| format!("{:.3}", r.carbon_g)),
        ("energy [mJ]", "energy_mj", |r| {
            format!("{:.2}", r.energy_mj)
        }),
        ("saving %", "saving_pct", |r| format!("{:.1}", r.saving_pct)),
    ];
}

impl RowType for SearchRow {
    const KIND: &'static str = "search";
    const COLUMNS: &'static [Column<Self>] = &[
        ("search", "search", |r| r.search.clone()),
        ("evals", "evals", |r| r.evals.to_string()),
        ("FPS", "fps", |r| opt(r.fps, 1, "-")),
        ("carbon [g]", "carbon_g", |r| {
            opt(r.carbon_g, 3, "(no feasible design found)")
        }),
        ("saving %", "saving_pct", |r| opt(r.saving_pct, 1, "-")),
    ];
}

impl RowType for YieldRow {
    const KIND: &'static str = "yield";
    const COLUMNS: &'static [Column<Self>] = &[
        ("node", "node", |r| r.node.to_string()),
        ("yield model", "yield_model", |r| r.yield_model.clone()),
        ("exact [g]", "exact_g", |r| format!("{:.4}", r.exact_g)),
        ("ga-cdp [g]", "ga_cdp_g", |r| format!("{:.4}", r.ga_cdp_g)),
        ("saving %", "saving_pct", |r| format!("{:.1}", r.saving_pct)),
    ];
}

impl RowType for DeploymentRow {
    const KIND: &'static str = "deployment";
    const COLUMNS: &'static [Column<Self>] = &[
        ("grid", "grid", |r| r.grid.clone()),
        ("CI [g/kWh]", "ci_g_per_kwh", |r| {
            format!("{:.0}", r.ci_g_per_kwh)
        }),
        ("life [h]", "lifetime_h", |r| format!("{:.0}", r.lifetime_h)),
        ("MACs", "macs", |r| r.macs.to_string()),
        ("mult", "multiplier", |r| r.multiplier.clone()),
        ("FPS", "fps", |r| format!("{:.1}", r.fps)),
        ("die [g]", "die_g", |r| format!("{:.3}", r.die_g)),
        ("system [g]", "system_g", |r| format!("{:.3}", r.system_g)),
        ("op [g]", "operational_g", |r| {
            format!("{:.3}", r.operational_g)
        }),
        ("total [g]", "total_g", |r| format!("{:.3}", r.total_g)),
        ("op %", "operational_share_pct", |r| {
            format!("{:.1}", r.operational_share_pct)
        }),
        ("saving %", "total_saving_pct", |r| {
            format!("{:.1}", r.total_saving_pct)
        }),
        ("crossover [h]", "crossover_h", |r| {
            opt(r.crossover_h, 0, "-")
        }),
    ];
}

impl RowType for LintRow {
    const KIND: &'static str = "lint";
    const COLUMNS: &'static [Column<Self>] = &[
        ("family", "family", |r| r.family.clone()),
        ("circuit", "circuit", |r| r.circuit.clone()),
        ("gates", "gates", |r| r.gates.to_string()),
        ("transistors", "transistors", |r| r.transistors.to_string()),
        ("depth", "depth", |r| r.depth.to_string()),
        ("err", "errors", |r| r.errors.to_string()),
        ("warn", "warnings", |r| r.warnings.to_string()),
        ("info", "infos", |r| r.infos.to_string()),
        ("static bound", "static_bound", |r| {
            r.static_bound.to_string()
        }),
        ("measured WCE", "measured_wce", |r| {
            r.measured_wce.to_string()
        }),
        ("sound", "sound", |r| {
            if r.sound { "yes" } else { "NO" }.to_string()
        }),
    ];
}

impl RowType for LintFindingRow {
    const KIND: &'static str = "lint_finding";
    const COLUMNS: &'static [Column<Self>] = &[
        ("family", "family", |r| r.family.clone()),
        ("circuit", "circuit", |r| r.circuit.clone()),
        ("severity", "severity", |r| r.severity.clone()),
        ("code", "code", |r| r.code.clone()),
        ("node", "node", |r| r.node.clone()),
        ("port", "port", |r| r.port.clone()),
        ("message", "message", |r| r.message.clone()),
    ];
}

impl Artifact {
    /// The typed rows behind every method below.
    fn rows(&self) -> &dyn Rows {
        match self {
            Artifact::Fig2(rows) => rows,
            Artifact::Reduction(rows) => rows,
            Artifact::Fig3(rows) => rows,
            Artifact::Family(rows) => rows,
            Artifact::Grid(rows) => rows,
            Artifact::Metric(rows) => rows,
            Artifact::Search(rows) => rows,
            Artifact::Yield(rows) => rows,
            Artifact::Deployment(rows) => rows,
            Artifact::Lint(rows) => rows,
            Artifact::LintFinding(rows) => rows,
        }
    }

    /// Stable kind tag (used in the JSON sink).
    pub fn kind(&self) -> &'static str {
        self.rows().kind()
    }

    /// Number of typed rows.
    pub fn len(&self) -> usize {
        self.rows().len()
    }

    /// Whether the artifact holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column header of the rendered text table.
    pub fn header(&self) -> Vec<String> {
        self.rows().table().header
    }

    /// Machine-readable column names for the CSV sink (snake_case).
    pub fn csv_header(&self) -> Vec<String> {
        self.rows().table().csv_header
    }

    /// The rows as formatted display cells — the exact strings the
    /// text table and the CSV sink both emit.
    pub fn table_rows(&self) -> Vec<Vec<String>> {
        self.rows().table().rows
    }

    /// Renders the artifact as an aligned plain-text table.
    pub fn to_table(&self) -> String {
        let table = self.rows().table();
        let header: Vec<&str> = table.header.iter().map(String::as_str).collect();
        format_table(&header, &table.rows)
    }

    /// Renders the artifact as CSV, via the shared
    /// [`to_csv`](crate::report::to_csv) writer: machine headers
    /// ([`Artifact::csv_header`]) over the display cells.
    pub fn to_csv(&self) -> String {
        let table = self.rows().table();
        let header: Vec<&str> = table.csv_header.iter().map(String::as_str).collect();
        to_csv(&header, &table.rows)
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
                artifact.rows().json()
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

    /// One artifact of every kind, with the edge cases the registry's
    /// default runs never produce: a GA point's `macs: 0`, an
    /// infeasible search arm, a deployment without a crossover, an
    /// unsound lint row and a finding message that needs CSV quoting.
    fn sample_report() -> Report {
        use carma_netlist::TechNode;
        let reduction = [TechNode::N7, TechNode::N14]
            .iter()
            .flat_map(|&node| {
                [0.005, 0.02].iter().map(move |&class| ReductionRow {
                    node,
                    accuracy_class: class,
                    avg_pct: class * 400.0 + 1.0 / 3.0,
                    peak_pct: class * 900.0 + 2.0 / 3.0,
                })
            })
            .collect();
        Report {
            experiment: "fig2".to_string(),
            title: "Figure 2 — test".to_string(),
            scale: Scale::Quick,
            artifacts: vec![
                Artifact::Fig2(vec![
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
                ]),
                Artifact::Reduction(reduction),
                Artifact::Fig3(vec![Fig3Row {
                    model: "vgg16".to_string(),
                    node: TechNode::N28,
                    exact: 1.0,
                    approx_only: 0.8765,
                    ga_cdp: 0.4321,
                    exact_carbon_g: 3.25678,
                }]),
                Artifact::Family(vec![FamilyRow {
                    library: "classic".to_string(),
                    units: 19,
                    multiplier: "tcc8_8".to_string(),
                    fps: 33.35,
                    carbon_g: 0.98765,
                    saving_pct: 41.25,
                }]),
                Artifact::Grid(vec![GridRow {
                    grid: "coal".to_string(),
                    ci_g_per_kwh: 820.5,
                    exact_g: 4.4444,
                    ga_cdp_g: 2.2222,
                    saving_pct: 50.0,
                }]),
                Artifact::Metric(vec![MetricRow {
                    fitness: "EDP".to_string(),
                    macs: 1024,
                    fps: 88.88,
                    carbon_g: 1.5,
                    energy_mj: 0.125,
                    saving_pct: -12.34,
                }]),
                Artifact::Search(vec![SearchRow {
                    search: "random".to_string(),
                    evals: 84,
                    fps: None,
                    carbon_g: None,
                    saving_pct: None,
                }]),
                Artifact::Yield(vec![YieldRow {
                    node: TechNode::N14,
                    yield_model: "neg-binomial(3)".to_string(),
                    exact_g: 1.23456,
                    ga_cdp_g: 0.65432,
                    saving_pct: 47.0,
                }]),
                Artifact::Deployment(vec![DeploymentRow {
                    grid: "renewable".to_string(),
                    ci_g_per_kwh: 563.0,
                    lifetime_h: 8760.0,
                    macs: 256,
                    multiplier: "trunc8_1_1".to_string(),
                    fps: 31.25,
                    die_g: 1.0 / 3.0,
                    system_g: 12.5,
                    operational_g: 40.125,
                    total_g: 52.958,
                    operational_share_pct: 75.77,
                    total_saving_pct: 9.95,
                    crossover_h: None,
                }]),
                Artifact::Lint(vec![LintRow {
                    family: "ladder".to_string(),
                    circuit: "trunc8_2_2".to_string(),
                    gates: 412,
                    transistors: 2_468,
                    depth: 23,
                    errors: 0,
                    warnings: 2,
                    infos: 1,
                    static_bound: 7,
                    measured_wce: 9,
                    sound: false,
                }]),
                Artifact::LintFinding(vec![LintFindingRow {
                    family: "fixture".to_string(),
                    circuit: "corrupted".to_string(),
                    severity: "error".to_string(),
                    code: "floating-input".to_string(),
                    node: "n42".to_string(),
                    port: "-".to_string(),
                    message: "input \"a9\" drives nothing, so the cone is dead".to_string(),
                }]),
            ],
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
    fn every_kind_renders_its_pinned_bytes() {
        // Every sink's exact bytes: a drifted header, cell format,
        // reduction pivot or JSON row fails here.
        let report = sample_report();
        assert_eq!(
            report.render_text(),
            r#"=== CARMA experiment: Figure 2 — test (scale: Quick) ===
reproduces: Panteleaki et al., "Leveraging Approximate Computing for Carbon-Aware DNN Accelerators", DATE 2025

   series  MACs    FPS  carbon [gCO2]
-------------------------------------
    exact    64  12.50          1.250
ga-cdp@30     -  31.00          0.750

node  type  0.5%   2.0%
-----------------------
 7nm   avg  2.33   8.33
      peak  5.17  18.67
14nm   avg  2.33   8.33
      peak  5.17  18.67

model  node  exact  approx-only  ga-cdp  exact [gCO2]
-----------------------------------------------------
vgg16  28nm  1.000        0.876   0.432          3.26

library  units  chosen mult   FPS  carbon [g]  saving %
-------------------------------------------------------
classic     19       tcc8_8  33.4       0.988      41.2

grid  CI [g/kWh]  exact [g]  ga-cdp [g]  saving %
-------------------------------------------------
coal         820      4.444       2.222      50.0

fitness  MACs   FPS  carbon [g]  energy [mJ]  saving %
------------------------------------------------------
    EDP  1024  88.9       1.500         0.12     -12.3

search  evals  FPS                  carbon [g]  saving %
--------------------------------------------------------
random     84    -  (no feasible design found)         -

node      yield model  exact [g]  ga-cdp [g]  saving %
------------------------------------------------------
14nm  neg-binomial(3)     1.2346      0.6543      47.0

     grid  CI [g/kWh]  life [h]  MACs        mult   FPS  die [g]  system [g]  op [g]  total [g]  op %  saving %  crossover [h]
------------------------------------------------------------------------------------------------------------------------------
renewable         563      8760   256  trunc8_1_1  31.2    0.333      12.500  40.125     52.958  75.8       9.9              -

family     circuit  gates  transistors  depth  err  warn  info  static bound  measured WCE  sound
-------------------------------------------------------------------------------------------------
ladder  trunc8_2_2    412         2468     23    0     2     1             7             9     NO

 family    circuit  severity            code  node  port                                         message
--------------------------------------------------------------------------------------------------------
fixture  corrupted     error  floating-input   n42     -  input "a9" drives nothing, so the cone is dead

a note
"#
        );
        assert_eq!(
            report.to_csv(),
            r#"series,macs,fps,carbon_g
exact,64,12.50,1.250
ga-cdp@30,-,31.00,0.750

node,type,pct_at_0.005,pct_at_0.02
7nm,avg,2.33,8.33
,peak,5.17,18.67
14nm,avg,2.33,8.33
,peak,5.17,18.67

model,node,exact,approx_only,ga_cdp,exact_carbon_g
vgg16,28nm,1.000,0.876,0.432,3.26

library,units,multiplier,fps,carbon_g,saving_pct
classic,19,tcc8_8,33.4,0.988,41.2

grid,ci_g_per_kwh,exact_g,ga_cdp_g,saving_pct
coal,820,4.444,2.222,50.0

fitness,macs,fps,carbon_g,energy_mj,saving_pct
EDP,1024,88.9,1.500,0.12,-12.3

search,evals,fps,carbon_g,saving_pct
random,84,-,(no feasible design found),-

node,yield_model,exact_g,ga_cdp_g,saving_pct
14nm,neg-binomial(3),1.2346,0.6543,47.0

grid,ci_g_per_kwh,lifetime_h,macs,multiplier,fps,die_g,system_g,operational_g,total_g,operational_share_pct,total_saving_pct,crossover_h
renewable,563,8760,256,trunc8_1_1,31.2,0.333,12.500,40.125,52.958,75.8,9.9,-

family,circuit,gates,transistors,depth,errors,warnings,infos,static_bound,measured_wce,sound
ladder,trunc8_2_2,412,2468,23,0,2,1,7,9,NO

family,circuit,severity,code,node,port,message
fixture,corrupted,error,floating-input,n42,-,"input ""a9"" drives nothing, so the cone is dead"
"#
        );
        assert_eq!(
            report.to_json(),
            concat!(
                r#"{"experiment":"fig2","title":"Figure 2 — test","scale":"quick""#,
                r#","artifacts":[{"kind":"fig2","rows":[{"series":"exact","macs":64,"fps":12.5"#,
                r#","carbon_g":1.25},{"series":"ga-cdp@30","macs":0,"fps":31,"carbon_g":0.75}]}"#,
                r#",{"kind":"reduction","rows":[{"node":"7nm","accuracy_class":0.005"#,
                r#","avg_pct":2.3333333333333335,"peak_pct":5.166666666666667},{"node":"7nm""#,
                r#","accuracy_class":0.02,"avg_pct":8.333333333333334"#,
                r#","peak_pct":18.666666666666668},{"node":"14nm","accuracy_class":0.005"#,
                r#","avg_pct":2.3333333333333335,"peak_pct":5.166666666666667},{"node":"14nm""#,
                r#","accuracy_class":0.02,"avg_pct":8.333333333333334"#,
                r#","peak_pct":18.666666666666668}]},{"kind":"fig3","rows":[{"model":"vgg16""#,
                r#","node":"28nm","exact":1,"approx_only":0.8765,"ga_cdp":0.4321"#,
                r#","exact_carbon_g":3.25678}]},{"kind":"family","rows":[{"library":"classic""#,
                r#","units":19,"multiplier":"tcc8_8","fps":33.35,"carbon_g":0.98765"#,
                r#","saving_pct":41.25}]},{"kind":"grid","rows":[{"grid":"coal""#,
                r#","ci_g_per_kwh":820.5,"exact_g":4.4444,"ga_cdp_g":2.2222,"saving_pct":50}]}"#,
                r#",{"kind":"metric","rows":[{"fitness":"EDP","macs":1024,"fps":88.88"#,
                r#","carbon_g":1.5,"energy_mj":0.125,"saving_pct":-12.34}]},{"kind":"search""#,
                r#","rows":[{"search":"random","evals":84,"fps":null,"carbon_g":null"#,
                r#","saving_pct":null}]},{"kind":"yield","rows":[{"node":"14nm""#,
                r#","yield_model":"neg-binomial(3)","exact_g":1.23456,"ga_cdp_g":0.65432"#,
                r#","saving_pct":47}]},{"kind":"deployment","rows":[{"grid":"renewable""#,
                r#","ci_g_per_kwh":563,"lifetime_h":8760,"macs":256,"multiplier":"trunc8_1_1""#,
                r#","fps":31.25,"die_g":0.3333333333333333,"system_g":12.5,"operational_g":40.125"#,
                r#","total_g":52.958,"operational_share_pct":75.77,"total_saving_pct":9.95"#,
                r#","crossover_h":null}]},{"kind":"lint","rows":[{"family":"ladder""#,
                r#","circuit":"trunc8_2_2","gates":412,"transistors":2468,"depth":23,"errors":0"#,
                r#","warnings":2,"infos":1,"static_bound":7,"measured_wce":9,"sound":false}]}"#,
                r#",{"kind":"lint_finding","rows":[{"family":"fixture","circuit":"corrupted""#,
                r#","severity":"error","code":"floating-input","node":"n42","port":"-""#,
                r#","message":"input \"a9\" drives nothing, so the cone is dead"}]}]"#,
                r#","notes":["a note"]}"#,
            )
        );
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
