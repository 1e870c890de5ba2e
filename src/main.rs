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
    banner_text, Artifact, ExperimentRegistry, Report, Scale, ScenarioSpec,
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

/// Output format of `carma run`.
#[derive(Clone, Copy, PartialEq)]
enum OutFormat {
    Text,
    Json,
    Csv,
}

struct RunArgs {
    name: Option<String>,
    spec_path: Option<String>,
    scale: Option<Scale>,
    threads: Option<usize>,
    model: Option<String>,
    node: Option<String>,
    nodes: Option<Vec<String>>,
    library: Option<String>,
    seed: Option<u64>,
    out: OutFormat,
    output: Option<String>,
    memo_dir: Option<String>,
    memo_stats: bool,
    fingerprint: bool,
    trace: Option<TraceSink>,
    trace_out: Option<String>,
    verbose: bool,
}

/// Which `--trace` sink to emit after the run.
#[derive(Clone, Copy, PartialEq)]
enum TraceSink {
    Text,
    Chrome,
    Json,
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n");
    eprintln!("run `carma help` for usage");
    ExitCode::from(2)
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        name: None,
        spec_path: None,
        scale: None,
        threads: None,
        model: None,
        node: None,
        nodes: None,
        library: None,
        seed: None,
        out: OutFormat::Text,
        output: None,
        memo_dir: None,
        memo_stats: false,
        fingerprint: false,
        trace: None,
        trace_out: None,
        verbose: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_for = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{flag}` needs a value"))
        };
        match arg.as_str() {
            "--spec" => parsed.spec_path = Some(value_for("--spec")?),
            "--scale" => {
                let v = value_for("--scale")?;
                parsed.scale = Some(v.parse::<Scale>().map_err(|e| e.to_string())?);
            }
            "--threads" => {
                let v = value_for("--threads")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("`--threads` needs a positive integer (got `{v}`)"))?;
                if n == 0 {
                    return Err("`--threads` must be ≥ 1".to_string());
                }
                parsed.threads = Some(n);
            }
            "--model" => parsed.model = Some(value_for("--model")?),
            "--node" => parsed.node = Some(value_for("--node")?),
            "--nodes" => {
                let v = value_for("--nodes")?;
                parsed.nodes = Some(v.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--library" => parsed.library = Some(value_for("--library")?),
            "--seed" => {
                let v = value_for("--seed")?;
                parsed.seed = Some(
                    v.parse()
                        .map_err(|_| format!("`--seed` needs an integer (got `{v}`)"))?,
                );
            }
            "--out" => {
                parsed.out = match value_for("--out")?.as_str() {
                    "text" => OutFormat::Text,
                    "json" => OutFormat::Json,
                    "csv" => OutFormat::Csv,
                    other => return Err(format!("unknown output format `{other}`")),
                };
            }
            "--output" => parsed.output = Some(value_for("--output")?),
            "--memo-dir" => parsed.memo_dir = Some(value_for("--memo-dir")?),
            "--memo-stats" => parsed.memo_stats = true,
            "--fingerprint" => parsed.fingerprint = true,
            "--trace" => {
                parsed.trace = Some(match value_for("--trace")?.as_str() {
                    "text" => TraceSink::Text,
                    "chrome" => TraceSink::Chrome,
                    "json" => TraceSink::Json,
                    other => {
                        return Err(format!(
                            "unknown trace sink `{other}` (expected text|chrome|json)"
                        ))
                    }
                });
            }
            "--trace-out" => parsed.trace_out = Some(value_for("--trace-out")?),
            "--verbose" => parsed.verbose = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name => {
                if parsed.name.replace(name.to_string()).is_some() {
                    return Err(format!("unexpected extra argument `{name}`"));
                }
            }
        }
    }
    if parsed.name.is_none() && parsed.spec_path.is_none() {
        return Err("give an experiment name or `--spec <file>`".to_string());
    }
    Ok(parsed)
}

/// The `carma lint` entry point: run the static-analysis experiment
/// over the multiplier libraries (or the corrupted fixture) and map
/// error-severity findings to a non-zero exit code.
fn lint(args: &[String]) -> ExitCode {
    let mut family: Option<String> = None;
    let mut library: Option<String> = None;
    let mut library_depth: Option<u8> = None;
    let mut scale: Option<Scale> = None;
    let mut threads: Option<usize> = None;
    let mut out = OutFormat::Text;
    let mut output: Option<String> = None;
    let mut fixture = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_for = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{flag}` needs a value"))
        };
        let parsed = match arg.as_str() {
            "--family" => value_for("--family").and_then(|v| match v.as_str() {
                "ladder" | "classic" | "evolved" | "imported" => {
                    family = Some(v);
                    Ok(())
                }
                "all" => {
                    family = None;
                    Ok(())
                }
                other => Err(format!(
                    "unknown family `{other}` (expected ladder|classic|evolved|imported|all)"
                )),
            }),
            "--library" => value_for("--library").map(|v| library = Some(v)),
            "--library-depth" => value_for("--library-depth").and_then(|v| {
                v.parse::<u8>()
                    .ok()
                    .filter(|&n| (1..=7).contains(&n))
                    .map(|n| library_depth = Some(n))
                    .ok_or_else(|| {
                        format!("`--library-depth` needs an integer in 1..=7 (got `{v}`)")
                    })
            }),
            "--scale" => value_for("--scale").and_then(|v| {
                v.parse::<Scale>()
                    .map(|s| scale = Some(s))
                    .map_err(|e| e.to_string())
            }),
            "--threads" => value_for("--threads").and_then(|v| {
                v.parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .map(|n| threads = Some(n))
                    .ok_or_else(|| format!("`--threads` needs a positive integer (got `{v}`)"))
            }),
            "--out" => value_for("--out").and_then(|v| match v.as_str() {
                "text" => {
                    out = OutFormat::Text;
                    Ok(())
                }
                "json" => {
                    out = OutFormat::Json;
                    Ok(())
                }
                other => Err(format!(
                    "unknown output format `{other}` (expected text|json)"
                )),
            }),
            "--output" => value_for("--output").map(|v| output = Some(v)),
            "--fixture" => value_for("--fixture").and_then(|v| match v.as_str() {
                "corrupted" => {
                    fixture = true;
                    Ok(())
                }
                other => Err(format!("unknown fixture `{other}` (expected corrupted)")),
            }),
            other => Err(format!("unknown lint argument `{other}`")),
        };
        if let Err(msg) = parsed {
            return usage_error(&msg);
        }
    }

    print_env_diagnostics();

    let report = if fixture {
        carma_core::fixture_lint_report(carma_core::scenario::resolve_scale(None, scale))
    } else {
        let mut spec = ScenarioSpec::named("lint");
        if let Some(f) = family {
            spec.family = f;
        }
        if let Some(path) = library {
            spec.library = path;
            if spec.family.is_empty() {
                spec.family = "imported".to_string();
            }
        }
        spec.library_depth = library_depth;
        let registry = ExperimentRegistry::standard();
        match registry.run_with_env(&spec, scale, threads, &carma_core::RunEnv::standard()) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    };

    if let Err(code) = emit(&report, out, output.as_deref()) {
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
    let mut addr = "127.0.0.1:8337".to_string();
    let mut config = carma_serve::ServerConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_for = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{flag}` needs a value"))
        };
        let parsed = match arg.as_str() {
            "--addr" => value_for("--addr").map(|v| addr = v),
            "--workers" => value_for("--workers").and_then(|v| {
                v.parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .map(|n| config.workers = n)
                    .ok_or_else(|| format!("`--workers` needs a positive integer (got `{v}`)"))
            }),
            "--queue" => value_for("--queue").and_then(|v| {
                v.parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .map(|n| config.queue_capacity = n)
                    .ok_or_else(|| format!("`--queue` needs a positive integer (got `{v}`)"))
            }),
            "--memo-dir" => value_for("--memo-dir").map(|v| config.memo_dir = Some(v.into())),
            "--max-conns" => value_for("--max-conns").and_then(|v| {
                v.parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .map(|n| config.max_conns = n)
                    .ok_or_else(|| format!("`--max-conns` needs a positive integer (got `{v}`)"))
            }),
            other => Err(format!("unknown serve argument `{other}`")),
        };
        if let Err(msg) = parsed {
            return usage_error(&msg);
        }
    }

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
    let parsed = match parse_run_args(args) {
        Ok(p) => p,
        Err(msg) => return usage_error(&msg),
    };

    print_env_diagnostics();

    // Build the spec: from file, or the named default. Spec fields win
    // over flags (spec > CLI > env), so flags only fill defaulted
    // fields. Matching on both sources keeps every argument
    // combination on the usage-error path — no panic is reachable even
    // if the parser's invariants drift.
    let mut spec = match (&parsed.spec_path, &parsed.name) {
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
    if let (Some(name), Some(_)) = (&parsed.name, &parsed.spec_path) {
        if *name != spec.experiment {
            return usage_error(&format!(
                "both `{name}` and --spec (experiment `{}`) given — drop one",
                spec.experiment
            ));
        }
    }
    if let Some(model) = parsed.model {
        if spec.model.is_empty() {
            spec.model = model;
        }
    }
    if let Some(node) = parsed.node {
        if spec.node.is_empty() {
            spec.node = node;
        }
    }
    if let Some(nodes) = parsed.nodes {
        if spec.nodes.is_empty() {
            spec.nodes = nodes;
        }
    }
    if let Some(library) = parsed.library {
        if spec.library.is_empty() {
            spec.library = library;
        }
        // A library path only takes effect under the imported family;
        // filling it in keeps `--library foo.v` self-contained.
        if spec.family.is_empty() {
            spec.family = "imported".to_string();
        }
    }
    if let Some(seed) = parsed.seed {
        spec.seed.get_or_insert(seed);
    }

    let registry = ExperimentRegistry::standard();

    // `--fingerprint` resolves without running: print the content
    // address `carma serve` would cache this scenario under.
    if parsed.fingerprint {
        return match spec.resolve(&registry, parsed.scale, parsed.threads) {
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
        carma_core::scenario::resolve_scale(None, parsed.scale)
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
        match parsed.out {
            OutFormat::Text if parsed.output.is_none() => print!("{banner}"),
            _ => eprint!("{banner}"),
        }
    }

    // The run environment: always memoized within the run; `--memo-dir`
    // adds the disk tier that carries stages across runs.
    let env = match &parsed.memo_dir {
        Some(dir) => match carma_core::MemoLayer::with_disk(dir.into()) {
            Ok(layer) => carma_core::RunEnv::with_memo(layer),
            Err(e) => {
                eprintln!("error: cannot open memo dir `{dir}`: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => carma_core::RunEnv::standard(),
    };

    // `--trace` / `--verbose` install an ambient collector for the
    // duration of the run; with neither flag every span throughout the
    // pipeline stays a no-op.
    let collector = (parsed.trace.is_some() || parsed.verbose).then(|| {
        std::sync::Arc::new(if parsed.verbose {
            carma_trace::Collector::new_verbose()
        } else {
            carma_trace::Collector::new()
        })
    });
    let started = std::time::Instant::now();
    let go = || registry.run_with_env(&spec, parsed.scale, parsed.threads, &env);
    let result = match &collector {
        Some(collector) => carma_trace::with_collector(collector, go),
        None => go(),
    };
    let wall_s = started.elapsed().as_secs_f64();
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(collector) = &collector {
        let trace = collector.snapshot();
        report.provenance = Some(carma_core::Provenance {
            wall_s,
            threads: parsed.threads.unwrap_or_else(carma_exec::current_threads),
            build: carma_trace::build_info(),
            memo: env.memo_stats(),
            spans: trace
                .span_totals()
                .into_iter()
                .map(|(name, count, total_ns)| carma_core::SpanTotal {
                    name: name.to_string(),
                    count,
                    total_s: total_ns as f64 / 1e9,
                })
                .collect(),
        });
        if let Some(sink) = parsed.trace {
            let payload = match sink {
                TraceSink::Text => trace.text_profile(),
                TraceSink::Chrome => trace.chrome_json(),
                TraceSink::Json => {
                    let mut json = report
                        .provenance
                        .as_ref()
                        .expect("provenance attached above")
                        .to_json();
                    json.push('\n');
                    json
                }
            };
            match &parsed.trace_out {
                Some(path) => {
                    if let Err(e) = std::fs::write(path, payload) {
                        eprintln!("error: cannot write `{path}`: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("(trace written to {path})");
                }
                None => eprint!("{payload}"),
            }
        }
    }

    if parsed.memo_stats {
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

    match emit(&report, parsed.out, parsed.output.as_deref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
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
