//! The unified `carma` CLI: list and run every paper experiment
//! through the declarative scenario API, the one entry point for every
//! figure, table and ablation.
//!
//! ```text
//! carma list
//! carma run fig2
//! carma run table1 --scale full --threads 8 --out csv --output table1.csv
//! carma run --spec examples/scenarios/fig2_quick.json --out json
//! ```

use std::process::ExitCode;

use carma_core::scenario::{
    banner_text, Artifact, ExperimentRegistry, Report, Scale, ScenarioError, ScenarioSpec,
};

const USAGE: &str = "\
carma — carbon-aware DNN accelerator experiments (Panteleaki et al., DATE 2025)

USAGE:
  carma list                          show every experiment and what it reproduces
  carma run <name> [OPTIONS]          run a registered experiment
  carma run --spec <file> [OPTIONS]   run a JSON scenario spec
  carma lint [LINT OPTIONS]           statically analyze the multiplier libraries
  carma serve [SERVE OPTIONS]         serve experiments over HTTP, memoizing reports
  carma help                          show this message

LINT OPTIONS:
  --family <f>         ladder|classic|evolved|imported|all   (default: all)
  --library <path>     lint an imported .v/.edf library file (implies
                       --family imported; the file passes the admission gate
                       — strict lint + static bound + equivalence — first)
  --library-depth <N>  truncation depth 1..=7          (default: scale default)
  --scale quick|full   library scale                   (default: $CARMA_SCALE or quick)
  --out text|json      output format                   (default: text)
  --output <path>      write the report to <path> instead of stdout
  --fixture corrupted  lint the built-in corrupted fixture netlist instead
                       (strict profile; exercises the failure path)
  --trace <sink>       record a span trace of the lint (text|chrome|json, as
                       for `run`); the report itself is unchanged
  --trace-out <path>   write the trace sink to <path> instead of stderr
  Exits 1 when any error-severity finding is present, 2 on usage errors.

SERVE OPTIONS:
  --addr <host:port>   listen address                     (default: 127.0.0.1:8337)
  --workers <N>        job-queue worker threads           (default: 2)
  --queue <N>          bounded job-queue capacity         (default: 64)
  --memo-dir <dir>     persist the memo store to <dir> (shared by all workers):
                       reports under report/, reused stages under library/,
                       context/ and cell/                 (default: memory only)
  --max-conns <N>      open-connection limit; extras get a 503 + Retry-After
                       (default: 512)

OPTIONS:
  --spec <file>        load a ScenarioSpec from JSON (spec fields win over flags)
  --scale quick|full   experiment scale        (spec > flag > $CARMA_SCALE > quick)
  --threads <N>        execution-engine width  (spec > flag > $CARMA_THREADS > auto)
  --model <name>       DNN model (vgg16|vgg19|resnet50|resnet152|mobilenet_v1|alexnet|zoo)
  --node <node>        primary tech node (7nm|14nm|28nm)
  --nodes <a,b,..>     node sweep for multi-node experiments
  --library <path>     run against an imported multiplier library
                       (gate-level structural Verilog `.v` or EDIF 2.0.0
                       `.edf`; implies `family: \"imported\"`; every module
                       must pass the admission gate at resolve time)
  --seed <N>           GA seed override
  --out text|json|csv  output format (default: text)
  --output <path>      write the output to <path> instead of stdout
  --memo-dir <dir>     persist the stage memo (library / context / cell results)
                       to <dir>; overlapping later runs reuse the shared stages
  --memo-stats         print per-stage memo hit/miss counters to stderr after
                       the run
  --fingerprint        print the scenario's result-cache fingerprint and exit
                       (the content address `carma serve` memoizes under;
                       invariant to --threads / $CARMA_THREADS)
  --trace <sink>       record a hierarchical span trace of the run and emit it:
                       `text` (profile tree: count/total/self/p50/p99 per span),
                       `chrome` (Chrome trace_event JSON — load the file in
                       chrome://tracing or ui.perfetto.dev), or `json` (the
                       machine-readable provenance block: wall time, thread
                       width, memo counters, span totals, build info)
  --trace-out <path>   write the trace sink to <path> instead of stderr
  --verbose            print a stderr progress line as each pipeline stage
                       finishes (stdout stays machine-clean in json/csv modes)

Results are deterministic for a given spec and scale — the thread count
never changes them: every width reproduces the serial reference
bit-for-bit.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some("list") => {
            list();
            ExitCode::SUCCESS
        }
        Some("run") => run(&args[1..]),
        Some("lint") => lint(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some(other) => {
            eprintln!("error: unknown command `{other}`\n");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn list() {
    let registry = ExperimentRegistry::standard();
    println!("CARMA experiments (run with `carma run <name>`):\n");
    for info in registry.entries() {
        println!("  {:<16} {}", info.name, info.index);
    }
    println!("\nSpecs: `carma run --spec <file.json>` (see examples/scenarios/).");
}

/// Output format of a report (`--out`).
#[derive(Clone, Copy, PartialEq, Default)]
enum OutFormat {
    #[default]
    Text,
    Json,
    Csv,
}

/// Which `--trace` sink to emit after the run.
#[derive(Clone, Copy, PartialEq)]
enum TraceSink {
    Text,
    Chrome,
    Json,
}

/// `--trace <sink>` and `--trace-out <path>`, taken by both `carma run`
/// and `carma lint`.
#[derive(Default)]
struct TraceArgs {
    sink: Option<TraceSink>,
    out: Option<String>,
}

/// What one subcommand accepts: its flags, the `--out` formats it
/// renders, and whether it takes an experiment name.
struct Syntax {
    command: &'static str,
    flags: &'static str,
    outs: &'static str,
    takes_name: bool,
}

const RUN: Syntax = Syntax {
    command: "run",
    flags: "--spec --scale --threads --model --node --nodes --library --seed --out --output \
            --memo-dir --memo-stats --fingerprint --trace --trace-out --verbose",
    outs: "text|json|csv",
    takes_name: true,
};

const LINT: Syntax = Syntax {
    command: "lint",
    flags: "--family --library --library-depth --scale --threads --out --output --fixture \
            --trace --trace-out",
    outs: "text|json",
    takes_name: false,
};

const SERVE: Syntax = Syntax {
    command: "serve",
    flags: "--addr --workers --queue --memo-dir --max-conns",
    outs: "",
    takes_name: false,
};

/// Every flag of `run`, `lint` and `serve`; each subcommand reads the
/// fields of the flags its [`Syntax`] accepts.
#[derive(Default)]
struct Flags {
    name: Option<String>,
    spec_path: Option<String>,
    scale: Option<Scale>,
    threads: Option<usize>,
    model: Option<String>,
    node: Option<String>,
    nodes: Option<Vec<String>>,
    /// `None` is every family (`--family all`).
    family: Option<String>,
    library: Option<String>,
    library_depth: Option<u8>,
    seed: Option<u64>,
    out: OutFormat,
    output: Option<String>,
    memo_dir: Option<String>,
    memo_stats: bool,
    fingerprint: bool,
    fixture: bool,
    trace: TraceArgs,
    verbose: bool,
    addr: Option<String>,
    workers: Option<usize>,
    queue: Option<usize>,
    max_conns: Option<usize>,
}

fn parse_trace_sink(value: &str) -> Result<TraceSink, String> {
    match value {
        "text" => Ok(TraceSink::Text),
        "chrome" => Ok(TraceSink::Chrome),
        "json" => Ok(TraceSink::Json),
        other => Err(format!(
            "unknown trace sink `{other}` (expected text|chrome|json)"
        )),
    }
}

fn parse_out(value: &str, accepted: &str) -> Result<OutFormat, String> {
    let format = match value {
        "text" => Some(OutFormat::Text),
        "json" => Some(OutFormat::Json),
        "csv" => Some(OutFormat::Csv),
        _ => None,
    };
    format
        .filter(|_| accepted.split('|').any(|name| name == value))
        .ok_or_else(|| format!("unknown output format `{value}` (expected {accepted})"))
}

fn parse_positive(flag: &str, value: &str) -> Result<usize, String> {
    value
        .parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("`{flag}` needs a positive integer (got `{value}`)"))
}

fn parse_family(value: String) -> Result<Option<String>, String> {
    match value.as_str() {
        "ladder" | "classic" | "evolved" | "imported" => Ok(Some(value)),
        "all" => Ok(None),
        other => Err(format!(
            "unknown family `{other}` (expected ladder|classic|evolved|imported|all)"
        )),
    }
}

/// Walks `args` as the flags of `syntax`, each through its one parser.
fn parse_flags(syntax: &Syntax, args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        let unknown = || format!("unknown {} argument `{flag}`", syntax.command);
        if !syntax.flags.split_whitespace().any(|known| known == flag) {
            if !syntax.takes_name || flag.starts_with('-') {
                return Err(unknown());
            }
            if flags.name.replace(arg.clone()).is_some() {
                return Err(format!("unexpected extra argument `{flag}`"));
            }
            continue;
        }
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{flag}` needs a value"))
        };
        match flag {
            "--spec" => flags.spec_path = Some(value()?),
            "--scale" => {
                flags.scale = Some(value()?.parse::<Scale>().map_err(|e| e.to_string())?);
            }
            "--threads" => flags.threads = Some(parse_positive(flag, &value()?)?),
            "--model" => flags.model = Some(value()?),
            "--node" => flags.node = Some(value()?),
            "--nodes" => {
                flags.nodes = Some(value()?.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--family" => flags.family = parse_family(value()?)?,
            "--library" => flags.library = Some(value()?),
            "--library-depth" => {
                let v = value()?;
                let depth = v.parse::<u8>().ok().filter(|n| (1..=7).contains(n));
                flags.library_depth = Some(depth.ok_or_else(|| {
                    format!("`--library-depth` needs an integer in 1..=7 (got `{v}`)")
                })?);
            }
            "--seed" => {
                let v = value()?;
                let seed = v
                    .parse()
                    .map_err(|_| format!("`--seed` needs an integer (got `{v}`)"))?;
                flags.seed = Some(seed);
            }
            "--out" => flags.out = parse_out(&value()?, syntax.outs)?,
            "--output" => flags.output = Some(value()?),
            "--memo-dir" => flags.memo_dir = Some(value()?),
            "--memo-stats" => flags.memo_stats = true,
            "--fingerprint" => flags.fingerprint = true,
            "--fixture" => match value()?.as_str() {
                "corrupted" => flags.fixture = true,
                other => return Err(format!("unknown fixture `{other}` (expected corrupted)")),
            },
            "--trace" => flags.trace.sink = Some(parse_trace_sink(&value()?)?),
            "--trace-out" => flags.trace.out = Some(value()?),
            "--verbose" => flags.verbose = true,
            "--addr" => flags.addr = Some(value()?),
            "--workers" => flags.workers = Some(parse_positive(flag, &value()?)?),
            "--queue" => flags.queue = Some(parse_positive(flag, &value()?)?),
            "--max-conns" => flags.max_conns = Some(parse_positive(flag, &value()?)?),
            _ => return Err(unknown()),
        }
    }
    Ok(flags)
}

impl Flags {
    /// Fills each spec field a flag names and the spec leaves empty
    /// (spec > flag). A library path only takes effect under the
    /// imported family, so `--library foo.v` implies it.
    fn fill(&self, spec: &mut ScenarioSpec) {
        fn fill_empty(field: &mut String, flag: &Option<String>) {
            if let (true, Some(value)) = (field.is_empty(), flag) {
                field.clone_from(value);
            }
        }
        fill_empty(&mut spec.model, &self.model);
        fill_empty(&mut spec.node, &self.node);
        if let (true, Some(nodes)) = (spec.nodes.is_empty(), &self.nodes) {
            spec.nodes.clone_from(nodes);
        }
        fill_empty(&mut spec.family, &self.family);
        if self.library.is_some() {
            fill_empty(&mut spec.library, &self.library);
            if spec.family.is_empty() {
                spec.family = "imported".to_string();
            }
        }
        spec.library_depth = spec.library_depth.or(self.library_depth);
        spec.seed = spec.seed.or(self.seed);
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n");
    eprintln!("run `carma help` for usage");
    ExitCode::from(2)
}

/// The `carma lint` entry point: run the static-analysis experiment
/// over the multiplier libraries (or the corrupted fixture) and map
/// error-severity findings to a non-zero exit code.
fn lint(args: &[String]) -> ExitCode {
    let flags = match parse_flags(&LINT, args) {
        Ok(flags) => flags,
        Err(msg) => return usage_error(&msg),
    };

    print_env_diagnostics();

    let env = carma_core::RunEnv::standard();
    let go = || {
        if flags.fixture {
            return Ok(carma_core::fixture_lint_report(
                carma_core::scenario::resolve_scale(None, flags.scale),
            ));
        }
        let mut spec = ScenarioSpec::named("lint");
        flags.fill(&mut spec);
        ExperimentRegistry::standard().run_with_env(&spec, flags.scale, flags.threads, &env)
    };
    let report = match run_traced(&flags.trace, false, flags.threads, &env, go) {
        Ok(report) => report,
        Err(code) => return code,
    };

    if let Err(code) = emit(&report, flags.out, flags.output.as_deref()) {
        return code;
    }

    let errors: usize = report
        .artifacts
        .iter()
        .map(|a| match a {
            Artifact::Lint(rows) => rows.iter().map(|row| row.errors).sum(),
            _ => 0,
        })
        .sum();
    if errors > 0 {
        eprintln!("lint: {errors} error-severity finding(s)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The `carma serve` entry point: boot the embedded HTTP scenario
/// service and block until a `POST /shutdown` arrives.
fn serve(args: &[String]) -> ExitCode {
    let flags = match parse_flags(&SERVE, args) {
        Ok(flags) => flags,
        Err(msg) => return usage_error(&msg),
    };
    let addr = flags.addr.unwrap_or_else(|| "127.0.0.1:8337".to_string());
    let default = carma_serve::ServerConfig::default();
    let config = carma_serve::ServerConfig {
        workers: flags.workers.unwrap_or(default.workers),
        queue_capacity: flags.queue.unwrap_or(default.queue_capacity),
        max_conns: flags.max_conns.unwrap_or(default.max_conns),
        memo_dir: flags.memo_dir.map(Into::into),
    };

    print_env_diagnostics();
    let server = match carma_serve::Server::bind(&addr, config.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind `{addr}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        // The one stdout line is machine-harvestable: scripts (and the
        // CI smoke job) read the bound address from it when the OS
        // picked the port.
        Ok(bound) => println!("carma-serve listening on http://{bound}"),
        Err(_) => println!("carma-serve listening on http://{addr}"),
    }
    // Piped stdout is block-buffered; scripts wait on this line while
    // the process keeps running, so push it out before blocking.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    eprintln!(
        "workers: {}, queue capacity: {}, max connections: {}",
        config.workers, config.queue_capacity, config.max_conns,
    );
    eprintln!(
        "memo store (reports and stages): {}",
        config
            .memo_dir
            .as_deref()
            .map_or("memory only".to_string(), |d| d.display().to_string()),
    );
    eprintln!(
        "endpoints: GET /healthz, GET /experiments, GET /metrics, GET /trace?last=N, POST /run \
         (spec or batch array), GET /jobs/:id, POST /shutdown"
    );
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Mistyped `CARMA_SCALE` / `CARMA_THREADS` would otherwise be
/// silently swallowed by the lenient library fallbacks.
fn print_env_diagnostics() {
    if let Some(warning) = carma_core::scenario::scale_env_diagnostic() {
        carma_trace::diag(&warning);
    }
    if let Some(warning) = carma_core::scenario::threads_env_diagnostic() {
        carma_trace::diag(&warning);
    }
}

fn run(args: &[String]) -> ExitCode {
    let flags = match parse_flags(&RUN, args) {
        Ok(flags) => flags,
        Err(msg) => return usage_error(&msg),
    };
    if flags.name.is_none() && flags.spec_path.is_none() {
        return usage_error("give an experiment name or `--spec <file>`");
    }

    print_env_diagnostics();

    // Build the spec: from file, or the named default. Spec fields win
    // over flags (spec > CLI > env), so flags only fill defaulted
    // fields. Matching on both sources keeps every argument
    // combination on the usage-error path — no panic is reachable even
    // if the parser's invariants drift.
    let mut spec = match (&flags.spec_path, &flags.name) {
        (Some(path), _) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => return usage_error(&format!("cannot read `{path}`: {e}")),
            };
            match ScenarioSpec::from_json(&text) {
                Ok(spec) => spec,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        (None, Some(name)) => ScenarioSpec::named(name),
        (None, None) => return usage_error("give an experiment name or `--spec <file>`"),
    };
    if let (Some(name), Some(_)) = (&flags.name, &flags.spec_path) {
        if *name != spec.experiment {
            return usage_error(&format!(
                "both `{name}` and --spec (experiment `{}`) given — drop one",
                spec.experiment
            ));
        }
    }
    flags.fill(&mut spec);

    let registry = ExperimentRegistry::standard();

    // `--fingerprint` resolves without running: print the content
    // address `carma serve` would cache this scenario under.
    if flags.fingerprint {
        return match spec.resolve(&registry, flags.scale, flags.threads) {
            Ok(resolved) => {
                println!("{}", resolved.fingerprint());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }

    // In machine-readable modes keep stdout pure; the banner goes to
    // stderr as a progress line.
    let resolved_scale = if spec.scale.is_empty() {
        carma_core::scenario::resolve_scale(None, flags.scale)
    } else {
        match spec.scale.parse::<Scale>() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    };
    if let Some(info) = registry.get(&spec.experiment) {
        let banner = banner_text(info.title, resolved_scale);
        match flags.out {
            OutFormat::Text if flags.output.is_none() => print!("{banner}"),
            _ => eprint!("{banner}"),
        }
    }

    // The run environment: always memoized within the run; `--memo-dir`
    // adds the disk tier that carries stages across runs.
    let env = match &flags.memo_dir {
        Some(dir) => match carma_core::MemoLayer::with_disk(dir.into()) {
            Ok(layer) => carma_core::RunEnv::with_memo(layer),
            Err(e) => {
                eprintln!("error: cannot open memo dir `{dir}`: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => carma_core::RunEnv::standard(),
    };

    let go = || registry.run_with_env(&spec, flags.scale, flags.threads, &env);
    let report = match run_traced(&flags.trace, flags.verbose, flags.threads, &env, go) {
        Ok(report) => report,
        Err(code) => return code,
    };

    if flags.memo_stats {
        if let Some(stats) = env.memo_stats() {
            // `carma run` never reads the report stage (`carma serve`
            // does), so its always-zero line is left out.
            for stage in carma_core::MemoStage::ALL {
                if stage == carma_core::MemoStage::Report {
                    continue;
                }
                let c = stats.stage(stage);
                eprintln!(
                    "memo {}: hits={} misses={} disk_hits={}",
                    stage.as_str(),
                    c.hits,
                    c.misses,
                    c.disk_hits
                );
            }
        }
    }

    match emit(&report, flags.out, flags.output.as_deref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

/// Runs `go` under an ambient trace collector when `--trace` or
/// `verbose` asks for one; without, every span throughout the pipeline
/// stays a no-op. A traced report carries the run's provenance, and the
/// `--trace` sink goes to `--trace-out` or stderr. A scenario error is
/// printed and maps to exit 2.
fn run_traced(
    trace: &TraceArgs,
    verbose: bool,
    threads: Option<usize>,
    env: &carma_core::RunEnv,
    go: impl FnOnce() -> Result<Report, ScenarioError>,
) -> Result<Report, ExitCode> {
    let collector = (trace.sink.is_some() || verbose).then(|| {
        std::sync::Arc::new(if verbose {
            carma_trace::Collector::new_verbose()
        } else {
            carma_trace::Collector::new()
        })
    });
    let started = std::time::Instant::now();
    let result = match &collector {
        Some(collector) => carma_trace::with_collector(collector, go),
        None => go(),
    };
    let wall_s = started.elapsed().as_secs_f64();
    let mut report = result.map_err(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })?;
    let Some(collector) = collector else {
        return Ok(report);
    };
    let provenance = report.provenance.insert(carma_core::Provenance {
        wall_s,
        threads: threads.unwrap_or_else(carma_exec::current_threads),
        build: carma_trace::build_info(),
        memo: env.memo_stats(),
        spans: collector
            .aggregates()
            .into_iter()
            .map(|(name, count, total_ns)| carma_core::SpanTotal {
                name: name.to_string(),
                count,
                total_s: total_ns as f64 / 1e9,
            })
            .collect(),
    });
    if let Some(sink) = trace.sink {
        let payload = match sink {
            TraceSink::Text => collector.snapshot().text_profile(),
            TraceSink::Chrome => collector.snapshot().chrome_json(),
            TraceSink::Json => provenance.to_json() + "\n",
        };
        match &trace.out {
            Some(path) => {
                if let Err(e) = std::fs::write(path, payload) {
                    eprintln!("error: cannot write `{path}`: {e}");
                    return Err(ExitCode::FAILURE);
                }
                eprintln!("(trace written to {path})");
            }
            None => eprint!("{payload}"),
        }
    }
    Ok(report)
}

/// Prints `report` in `out` format (tables and notes; the banner is
/// the caller's) to stdout, or writes it to `output`.
fn emit(report: &Report, out: OutFormat, output: Option<&str>) -> Result<(), ExitCode> {
    let payload = match out {
        OutFormat::Text => format!("{}{}", report.tables_text(), report.notes_text()),
        OutFormat::Json => {
            let mut json = report.to_json();
            json.push('\n');
            json
        }
        OutFormat::Csv => report.to_csv(),
    };
    match output {
        Some(path) => {
            if let Err(e) = std::fs::write(path, payload) {
                eprintln!("error: cannot write `{path}`: {e}");
                return Err(ExitCode::FAILURE);
            }
            eprintln!("(written to {path})");
        }
        None => print!("{payload}"),
    }
    Ok(())
}
