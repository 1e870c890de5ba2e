//! `serve_sweep`: a long-lived `carma-serve` answering a design sweep
//! over one keep-alive loopback connection, one request in flight, one
//! worker, and `"threads": 1` in every spec. Repeats are result-cache
//! hits, fresh specs miss in the memo's cell stage on warm contexts,
//! and batch bodies mix both; the accuracy engine does no work.

use std::collections::BTreeMap;
use std::time::Instant;

use carma_core::flow::ga_cdp;
use carma_core::scenario::{ExperimentRegistry, GaSpec, RunEnv, ScenarioSpec};
use carma_serve::http::{HttpClient, HttpResponse};
use carma_serve::{Server, ServerConfig, ServerHandle};

use crate::gen::{serve_base, Deck, Fixtures, Op, SERVE_LIBRARIES, SERVE_MODELS};
use crate::harness::{
    closed_loop, guarded, ms_since, repeat_setup, sampled, within, Args, Digest, Outcome, Tally,
};
use crate::layers::{hit_ratio, Layers};

/// Set-ups per timed run (the reported `setup_s` is their median).
const SETUP_REPS: usize = 3;

/// About one timed request in this many is cross-checked in process.
const CHECK_EVERY: u64 = 300;

/// Blocks (40 requests each) the traced run covers.
const TRACED_BLOCKS: usize = 5;

/// Salt for the traced run's direct `ga_cdp` seed: the item's budget
/// on a seed the runner did not use, so the call misses the cell memo.
const GA_SEED_SALT: u64 = 0x6A5E_ED00;

/// Salt for the deck that draws the two set-up specs seeding the
/// repeat pools (so they never collide with the timed fresh specs).
const POOL_SEED_SALT: u64 = 0x0009_01ED;

/// A bound server with its one client connection and the specs it
/// holds results for (the repeat pools, oldest first).
struct Service {
    handle: Option<ServerHandle>,
    client: HttpClient,
    builtin: Vec<String>,
    imported: Vec<String>,
}

impl Service {
    /// Binds a one-worker server, connects, characterizes and warms
    /// every context the traffic uses (see [`warm_specs`]) and answers
    /// one fresh spec per source, so both repeat pools start
    /// non-empty.
    fn start(seed: u64, fixtures: &Fixtures) -> Result<Service, String> {
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
        let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
        let client = HttpClient::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
        let mut service = Service {
            handle: Some(handle),
            client,
            builtin: Vec::new(),
            imported: Vec::new(),
        };
        for spec in warm_specs(fixtures) {
            service.expect_ok(&spec.to_json())?;
        }
        let mut deck = Deck::serve(seed ^ POOL_SEED_SALT, fixtures.clone());
        for library in ["ladder", "imported"] {
            // At the quick-scale budget every fresh spec finds a design.
            let json = deck.fresh_spec(library, "fig2", (24, 18)).to_json();
            service.expect_ok(&json)?;
            service.remember(&json);
        }
        Ok(service)
    }

    fn expect_ok(&mut self, body: &str) -> Result<HttpResponse, String> {
        let response = self.post(body)?;
        if response.status == 200 {
            Ok(response)
        } else {
            Err(format!(
                "set-up request answered {}: {}",
                response.status, response.body
            ))
        }
    }

    fn post(&mut self, body: &str) -> Result<HttpResponse, String> {
        self.client
            .request("POST", "/run", Some(body))
            .map_err(|e| format!("POST /run: {e}"))
    }

    fn get(&mut self, path: &str) -> Result<HttpResponse, String> {
        self.client
            .request("GET", path, None)
            .map_err(|e| format!("GET {path}: {e}"))
    }

    /// Adds an answered spec to its repeat pool.
    fn remember(&mut self, spec_json: &str) {
        if spec_json.contains("\"family\":\"imported\"") {
            self.imported.push(spec_json.to_string());
        } else {
            self.builtin.push(spec_json.to_string());
        }
    }

    /// The spec a repeat draw names: a zipf rank over the pool.
    fn repeat(&self, imported: bool, u: f64) -> String {
        let pool = if imported {
            &self.imported
        } else {
            &self.builtin
        };
        pool[crate::gen::zipf_rank(u, pool.len())].clone()
    }
}

impl Drop for Service {
    /// Stops the server and joins its threads, on every path out of a
    /// run.
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

/// The set-up requests: per serve library and model, one
/// `ablation_search` at a 48×60 budget. The first per library
/// characterizes its context; each one's 2,928 uniform random design
/// points plus the GA fill the context's performance cache for that
/// model (the space holds 700 accelerators), so the timed traffic
/// meets the steady state of a long-lived service rather than a
/// cache that is still growing.
fn warm_specs(fixtures: &Fixtures) -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for library in SERVE_LIBRARIES {
        for model in SERVE_MODELS {
            let mut spec = serve_base(fixtures, "ablation_search", library).with_model(model);
            spec.ga = Some(GaSpec {
                population: Some(48),
                generations: Some(60),
                ..GaSpec::default()
            });
            specs.push(spec);
        }
    }
    specs
}

/// The cache state a spec element must be answered with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// A spec answered before: a result-cache hit.
    Hit,
    /// A spec never sent before: a miss.
    Miss,
    /// A second copy of a fresh spec in one batch body: it coalesces
    /// onto the first copy's job, or hits if that job has already
    /// retired when the server reaches it.
    Either,
}

/// One request as sent: the body, and per spec element what it must
/// answer and its spec JSON.
struct Sent {
    body: String,
    elements: Vec<(Expect, String)>,
    batch: bool,
}

fn compose(service: &Service, op: &Op) -> Sent {
    let element = |op: &Op| match op {
        Op::Fresh(spec) => (Expect::Miss, spec.to_json()),
        Op::Repeat { imported, u } => (Expect::Hit, service.repeat(*imported, *u)),
        other => unreachable!("batch elements are fresh or repeat specs, not {other:?}"),
    };
    match op {
        Op::Batch(ops) => {
            let mut elements: Vec<(Expect, String)> = Vec::with_capacity(ops.len());
            for op in ops {
                let (mut expect, json) = element(op);
                if expect == Expect::Miss && elements.iter().any(|(_, sent)| *sent == json) {
                    expect = Expect::Either;
                }
                elements.push((expect, json));
            }
            let specs: Vec<&str> = elements.iter().map(|(_, json)| json.as_str()).collect();
            Sent {
                body: format!("[{}]", specs.join(",")),
                elements,
                batch: true,
            }
        }
        single => {
            let (expect, json) = element(single);
            Sent {
                body: json.clone(),
                elements: vec![(expect, json)],
                batch: false,
            }
        }
    }
}

/// One answered element: cache state and report bytes, or its error.
type Answer = Result<(String, String), String>;

/// Splits a response into per-element answers (a single-spec body is
/// one element).
fn answers(sent: &Sent, response: &HttpResponse) -> Result<Vec<Answer>, String> {
    if response.status != 200 {
        return Err(format!(
            "status {}: {}",
            response.status,
            response.body.lines().next().unwrap_or_default()
        ));
    }
    let fragments = if sent.batch {
        let inner = response
            .body
            .strip_prefix("{\"results\":[")
            .and_then(|rest| rest.strip_suffix("]}"))
            .ok_or("batch body is not {\"results\":[…]}")?;
        split_values(inner).ok_or("unbalanced batch body")?
    } else {
        vec![response.body.as_str()]
    };
    if fragments.len() != sent.elements.len() {
        return Err(format!(
            "{} results for {} specs",
            fragments.len(),
            sent.elements.len()
        ));
    }
    Ok(fragments.into_iter().map(fragment_answer).collect())
}

/// `{"cache":…,"fingerprint":…,"report":R}` → (cache, R bytes);
/// `{…"error":…}` → the error.
fn fragment_answer(fragment: &str) -> Answer {
    let cache = ["hit", "miss"]
        .into_iter()
        .find(|state| fragment.starts_with(&format!("{{\"cache\":\"{state}\"")));
    let report_at = fragment.find("\"report\":");
    match (cache, report_at) {
        (Some(cache), Some(at)) => Ok((
            cache.to_string(),
            fragment[at + "\"report\":".len()..fragment.len() - 1].to_string(),
        )),
        _ => Err(fragment.chars().take(200).collect()),
    }
}

/// Splits comma-separated JSON values (objects here) at top level.
fn split_values(text: &str) -> Option<Vec<&str>> {
    let mut values = Vec::new();
    let (mut depth, mut in_string, mut escaped, mut begin) = (0usize, false, false, 0usize);
    for (i, byte) in text.bytes().enumerate() {
        if in_string {
            match byte {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match byte {
            b'"' => in_string = true,
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth = depth.checked_sub(1)?,
            b',' if depth == 0 => {
                values.push(&text[begin..i]);
                begin = i + 1;
            }
            _ => {}
        }
    }
    (depth == 0 && !in_string).then(|| {
        values.push(&text[begin..]);
        values
    })
}

/// A checked response: each element's report when it was answered
/// as expected, and the request's fault, if any (`true` marks a
/// behavioural fault — a hit where a miss was due or the reverse —
/// rather than a failure).
struct Checked {
    reports: Vec<Option<String>>,
    fault: Option<(bool, String)>,
}

/// Checks one response against what was sent: every element must be
/// answered, repeats as hits and first-time fresh specs as misses.
fn verify(sent: &Sent, response: Result<HttpResponse, String>) -> Checked {
    let answers = match response.and_then(|r| answers(sent, &r)) {
        Ok(answers) => answers,
        Err(e) => {
            return Checked {
                reports: vec![None; sent.elements.len()],
                fault: Some((false, e)),
            }
        }
    };
    let mut fault = None;
    let mut reports = Vec::with_capacity(answers.len());
    for ((expect, _), answer) in sent.elements.iter().zip(answers) {
        reports.push(match answer {
            Ok((cache, report))
                if *expect == Expect::Either || (cache == "hit") == (*expect == Expect::Hit) =>
            {
                Some(report)
            }
            Ok((cache, _)) => {
                fault = Some((true, format!("expected a cache {expect:?}, got {cache}")));
                None
            }
            Err(e) => {
                fault.get_or_insert((false, e));
                None
            }
        });
    }
    Checked { reports, fault }
}

/// Fresh specs the server answered join the repeat pools, once each
/// (a batch sends one fresh spec twice).
fn remember_fresh(service: &mut Service, sent: &Sent, checked: &Checked) {
    let mut seen = std::collections::HashSet::new();
    for ((expect, json), report) in sent.elements.iter().zip(&checked.reports) {
        if *expect != Expect::Hit && report.is_some() && seen.insert(json.as_str()) {
            service.remember(json);
        }
    }
}

/// The timed run: whole blocks of requests until `--seconds` has
/// passed; the seeded sample's reports are then compared byte for
/// byte with in-process `run_with_env` runs of their specs.
pub fn timed(args: &Args) -> Outcome {
    let fixtures = Fixtures::bundled();
    let (setup_s, started) = repeat_setup(SETUP_REPS, || {
        fixtures
            .read_all()
            .map_err(|e| format!("cannot read fixtures: {e}"))
            .and_then(|_| Service::start(args.seed, &fixtures))
    });
    let mut service = match started {
        Ok(service) => service,
        Err(e) => return set_up_failed(&e),
    };
    let mut deck = Deck::serve(args.seed, fixtures);
    let mut tally = Tally::default();
    let mut digest = Digest::default();
    let mut to_check: Vec<(&'static str, Sent, Vec<String>)> = Vec::new();
    tally.wall_s = closed_loop(&mut deck, args.duration(), |index, first_block, item| {
        let sent = compose(&service, &item.op);
        let t = Instant::now();
        let response = service.post(&sent.body);
        let ms = ms_since(t);
        let checked = verify(&sent, response);
        remember_fresh(&mut service, &sent, &checked);
        match checked.fault {
            None => {
                tally.ok(item.class, ms);
                let reports: Vec<String> = checked.reports.into_iter().flatten().collect();
                if first_block {
                    reports.iter().for_each(|report| digest.add(report));
                }
                if sampled(args.seed, index, CHECK_EVERY) {
                    to_check.push((item.class, sent, reports));
                }
            }
            Some((wrong, why)) => {
                tally.fail(item.class, &why);
                tally.incorrect += usize::from(wrong);
            }
        }
    });
    let metrics = tally.end_to_end(setup_s);
    digest.print("first block");
    drop(service);

    let registry = ExperimentRegistry::standard();
    let env = RunEnv::standard();
    for (class, sent, reports) in &to_check {
        let problems: Vec<String> = sent
            .elements
            .iter()
            .zip(reports)
            .filter_map(|((_, spec_json), report)| {
                same_in_process(&registry, &env, spec_json, report).err()
            })
            .collect();
        tally.check(class, &problems);
    }
    println!(
        "cross-checked {} sampled requests in process",
        to_check.len()
    );
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        incorrect: tally.incorrect,
        metrics,
    }
}

fn set_up_failed(why: &str) -> Outcome {
    eprintln!("serve set-up failed: {why}");
    Outcome {
        attempted: 1,
        failed: 1,
        incorrect: 1,
        metrics: Vec::new(),
    }
}

/// Runs `spec_json` in process and compares the report bytes.
fn same_in_process(
    registry: &ExperimentRegistry,
    env: &RunEnv,
    spec_json: &str,
    report: &str,
) -> Result<(), String> {
    let spec = ScenarioSpec::from_json(spec_json).map_err(|e| e.to_string())?;
    let reference = guarded(|| registry.run_with_env(&spec, None, Some(1), env))?
        .map_err(|e| e.to_string())?
        .to_json();
    if reference == report {
        Ok(())
    } else {
        Err("served report differs from in-process run_with_env".to_string())
    }
}

/// Memo counters from `/metrics`: `(stage, "hits"|"misses") → count`.
fn memo_counters(service: &mut Service) -> BTreeMap<(String, String), u64> {
    let mut counters = BTreeMap::new();
    let Ok(response) = service.get("/metrics") else {
        return counters;
    };
    for line in response.body.lines() {
        for kind in ["hits", "misses"] {
            let prefix = format!("carma_memo_{kind}_total{{stage=\"");
            if let Some(rest) = line.strip_prefix(&prefix) {
                if let Some((stage, value)) = rest.split_once("\"} ") {
                    if let Ok(n) = value.trim().parse() {
                        counters.insert((stage.to_string(), kind.to_string()), n);
                    }
                }
            }
        }
    }
    counters
}

/// The traced run: the first blocks again over one set-up server; the
/// client splits latency by class and cache state, and each fresh spec
/// is re-run in a warm in-process environment to time the runner and a
/// direct `ga_cdp`, and to check every report.
pub fn traced(args: &Args) -> Outcome {
    let fixtures = Fixtures::bundled();
    let mut service = match Service::start(args.seed, &fixtures) {
        Ok(service) => service,
        Err(e) => return set_up_failed(&e),
    };
    let registry = ExperimentRegistry::standard();
    let env = RunEnv::standard();
    for spec in warm_specs(&fixtures) {
        if let Err(e) = guarded(|| registry.run_with_env(&spec, None, Some(1), &env)) {
            return set_up_failed(&e);
        }
    }
    let before = memo_counters(&mut service);
    let mut deck = Deck::serve(args.seed, fixtures);
    let mut layers = Layers::default();
    let mut tally = Tally::default();
    let mut digest = Digest::default();
    let (mut single_hits, mut singles) = (0u64, 0u64);
    for item in within(deck.take_blocks(TRACED_BLOCKS), args.duration()) {
        let sent = compose(&service, &item.op);
        let t = Instant::now();
        let response = service.post(&sent.body);
        let item_ms = ms_since(t);
        let checked = verify(&sent, response);
        remember_fresh(&mut service, &sent, &checked);
        if let Some((wrong, why)) = checked.fault {
            tally.fail(item.class, &why);
            tally.incorrect += usize::from(wrong);
            continue;
        }
        let reports: Vec<String> = checked.reports.into_iter().flatten().collect();
        tally.ok(item.class, item_ms);
        reports.iter().for_each(|report| digest.add(report));
        if !sent.batch {
            singles += 1;
            let (expect, spec_json) = &sent.elements[0];
            let hit = *expect == Expect::Hit;
            single_hits += u64::from(hit);
            let name = match (hit, spec_json.contains("\"family\":\"imported\"")) {
                (true, false) => "serve.hit_ms",
                (true, true) => "serve.imported_hit_ms",
                (false, _) => "serve.miss_ms",
            };
            layers.sample(name, item_ms);
        } else {
            layers.sample("serve.batch_ms", item_ms);
        }
        let split = carma_exec::with_threads(1, || {
            split_request(&registry, &env, &sent, &reports, item_ms, &mut layers)
        });
        match split {
            Ok(covered_ms) => layers.item(item_ms, covered_ms),
            Err(e) => tally.check(item.class, &[e]),
        }
    }
    let after = memo_counters(&mut service);
    drop(service);
    let delta = |stage: &str, kind: &str| {
        let key = (stage.to_string(), kind.to_string());
        after.get(&key).copied().unwrap_or(0) - before.get(&key).copied().unwrap_or(0)
    };
    for (stage, name) in [
        ("library", "memo.library.hit_ratio"),
        ("context", "memo.context.hit_ratio"),
        ("cell", "memo.cell.hit_ratio"),
    ] {
        layers.set(
            name,
            hit_ratio(delta(stage, "hits"), delta(stage, "misses")),
        );
    }
    layers.count("memo.context_misses", delta("context", "misses"));
    layers.set(
        "serve.hit_ratio",
        hit_ratio(single_hits, singles - single_hits),
    );
    digest.print("traced requests");
    println!(
        "server memo during traffic: context misses {}, cell hits {} / misses {}",
        delta("context", "misses"),
        delta("cell", "hits"),
        delta("cell", "misses")
    );
    let medians: BTreeMap<&str, f64> = layers
        .metrics()
        .into_iter()
        .map(|(n, v, _)| (n, v))
        .collect();
    println!(
        "flow.runner_ms is {:.1}% of serve.miss_ms (medians)",
        100.0 * medians["flow.runner_ms"] / medians["serve.miss_ms"].max(1e-9)
    );
    crate::print_layers(&layers, tally.attempted);
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        incorrect: tally.incorrect,
        metrics: layers.metrics(),
    }
}

/// Re-runs every element of one answered request in the warm
/// in-process environment: the resolve the server's submit path does
/// (the admission gate for imported specs), then `run_with_env`
/// (timed as the runner for first-time fresh specs), checking each
/// report against the served bytes; a fresh single spec also gets a
/// direct `ga_cdp` at its budget. Returns the covered time.
fn split_request(
    registry: &ExperimentRegistry,
    env: &RunEnv,
    sent: &Sent,
    reports: &[String],
    item_ms: f64,
    layers: &mut Layers,
) -> Result<f64, String> {
    let mut covered = 0.0;
    let mut runs_seen = std::collections::HashSet::new();
    for ((expect, spec_json), report) in sent.elements.iter().zip(reports) {
        let hit = *expect == Expect::Hit;
        let spec = ScenarioSpec::from_json(spec_json).map_err(|e| e.to_string())?;
        let resolve_name = if spec.family == "imported" {
            "import.admit_ms"
        } else {
            "resolve"
        };
        let (resolved, resolve_ms) =
            layers.time(resolve_name, || spec.resolve(registry, None, None));
        let r = resolved.map_err(|e| e.to_string())?;
        covered += resolve_ms;
        // A batch answers a duplicated element from one computation.
        if !runs_seen.insert(spec_json.as_str()) {
            continue;
        }
        let runner = if hit { "check" } else { "flow.runner_ms" };
        let (ran, runner_ms) = layers.time(runner, || {
            guarded(|| registry.run_with_env(&spec, None, Some(1), env))
        });
        let ran = ran?.map_err(|e| e.to_string())?;
        let (json, render_ms) = layers.time("report.render_ms", || ran.to_json());
        if json != *report {
            return Err("served report differs from in-process run_with_env".to_string());
        }
        if hit {
            continue;
        }
        covered += runner_ms + render_ms;
        if !sent.batch {
            layers.sample("serve.overhead_ms", item_ms - runner_ms);
            let ctx = env.context_for(&r, r.node);
            let ga = r.ga.with_seed(r.ga.seed ^ GA_SEED_SALT);
            let (best, ga_ms) = layers.time("ga", || {
                guarded(|| ga_cdp(&ctx, r.single_model(), r.constraints, ga))
            });
            if best.is_ok() {
                let evals = (ga.population * (ga.generations + 1)) as u64;
                layers.count("ga.evals", evals);
                layers.sample("ga.us_per_eval", ga_ms * 1e3 / evals as f64);
            }
        }
    }
    Ok(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_values_respects_nesting_and_strings() {
        let text = r#"{"a":[1,2],"b":"x,}"},{"c":"\"]"},{"d":{}}"#;
        assert_eq!(
            split_values(text),
            Some(vec![
                r#"{"a":[1,2],"b":"x,}"}"#,
                r#"{"c":"\"]"}"#,
                r#"{"d":{}}"#
            ])
        );
        assert_eq!(split_values("{\"a\":["), None);
    }

    #[test]
    fn fragments_yield_cache_state_and_report_bytes() {
        let hit = r#"{"cache":"hit","fingerprint":"ab","report":{"x":[1]}}"#;
        assert_eq!(
            fragment_answer(hit),
            Ok(("hit".into(), r#"{"x":[1]}"#.into()))
        );
        let error = r#"{"fingerprint":"ab","error":"runner panicked"}"#;
        assert!(fragment_answer(error).is_err());
    }
}
