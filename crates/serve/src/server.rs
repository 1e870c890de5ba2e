//! The HTTP server: routing, the request→queue→cache flow, and
//! lifecycle (spawn / clean shutdown).
//!
//! Connections are served by the event-driven loop of the `event`
//! module: a single poll-based thread multiplexing every connection
//! with HTTP/1.1 keep-alive and pipelining, suspending `POST /run`
//! misses while the worker pool computes and re-arming the response
//! when the job retires. Long-running work always lives on the
//! [`JobQueue`] worker pool; the loop never computes a scenario
//! inline.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::{io, thread};

use carma_core::scenario::{ExperimentRegistry, RunEnv, ScenarioSpec};
use carma_core::MemoLayer;

use crate::event;
use crate::http::{Request, RequestError, Response};
use crate::jobs::{JobQueue, JobSnapshot, JobStatus, RunnerFn, Submit, SubmitOutcome};
use crate::metrics::{self, Metrics};

/// Most specs accepted in one batch `POST /run` body.
pub const MAX_BATCH: usize = 64;

/// Spans kept in the server's bounded trace ring (recent request and
/// stage spans for `GET /trace?last=N`).
const TRACE_RING_SPANS: usize = 4096;

/// `GET /trace` without `?last=N` returns this many recent roots.
const TRACE_DEFAULT_LAST: usize = 32;

/// Server tuning knobs; the defaults suit an interactive laptop
/// session.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Bounded queue capacity; past it, `POST /run` answers 503.
    pub queue_capacity: usize,
    /// Maximum concurrently open client connections; past it, new
    /// connections are answered 503 + `Retry-After` and closed.
    pub max_conns: usize,
    /// Optional directory mirroring the memo store shared by all
    /// workers (`None` = memory only): rendered reports under
    /// `<dir>/report/`, which answer identical specs across restarts,
    /// and the intermediate stages (multiplier libraries, characterized
    /// contexts, sweep/GA cells) under `library/`, `context/` and
    /// `cell/`, which let scenarios that merely *overlap* reuse work.
    pub memo_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            max_conns: 512,
            memo_dir: None,
        }
    }
}

pub(crate) struct ServeState {
    pub(crate) registry: Arc<ExperimentRegistry>,
    pub(crate) queue: Arc<JobQueue>,
    pub(crate) config: ServerConfig,
    pub(crate) metrics: Metrics,
    /// The memo store every worker runs through and whose report stage
    /// is the result cache; `/metrics` and `/healthz` read its
    /// counters.
    pub(crate) memo: MemoLayer,
    /// Always-on trace collector: workers run scenarios under it, the
    /// event loop stamps per-request spans into it.
    /// The span ring is bounded (feeding `GET /trace?last=N`); the
    /// per-name aggregates behind `carma_stage_seconds_total` are
    /// cumulative and unaffected by ring eviction.
    pub(crate) trace: Arc<carma_trace::Collector>,
    pub(crate) shutdown: AtomicBool,
}

/// A bound, not-yet-running scenario service.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    workers: Vec<JoinHandle<()>>,
    /// Event-loop wake channel: job completions and shutdown write to
    /// `waker`; the loop polls `wake_rx`.
    waker: event::Waker,
    wake_rx: TcpStream,
}

impl Server {
    /// Binds to `addr` (`127.0.0.1:0` picks an ephemeral port) and
    /// starts the worker pool; call [`Server::run`] or
    /// [`Server::spawn`] to begin accepting requests.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let queue = JobQueue::new(config.queue_capacity);
        let registry = Arc::new(ExperimentRegistry::standard());

        // One memo store shared by every worker: overlapping scenarios
        // reuse each other's libraries, characterized contexts, and
        // sweep/GA cells, and identical ones their reports, across the
        // whole server lifetime (and across restarts when `memo_dir`
        // is set).
        let memo = match &config.memo_dir {
            Some(dir) => MemoLayer::with_disk(dir.clone())?,
            None => MemoLayer::in_memory(),
        };

        // Always-on bounded trace ring: recent spans feed
        // `GET /trace?last=N`, cumulative aggregates feed the
        // `carma_stage_seconds_total` metrics series.
        let trace = Arc::new(carma_trace::Collector::bounded(TRACE_RING_SPANS));

        // The worker runner: execute through the registry (under the
        // server's trace collector, so stage spans land in
        // `/metrics` and `/trace`), render the report, store it in the
        // memo's report stage. A `Done` job therefore always implies a
        // warm cache entry.
        let runner: RunnerFn = {
            let memo = memo.clone();
            let registry = Arc::clone(&registry);
            let env = RunEnv::with_memo(memo.clone());
            let trace = Arc::clone(&trace);
            Arc::new(move |fingerprint: &str, spec: &ScenarioSpec| {
                let report = carma_trace::with_collector(&trace, || {
                    registry.run_with_env(spec, None, None, &env)
                })
                .map_err(|e| e.to_string())?;
                Ok(memo.put_report(fingerprint, report.to_json()))
            })
        };
        let workers = queue.start_workers(config.workers.max(1), &runner);

        let (waker, wake_rx) = event::wake_pair()?;
        // Job completions must interrupt the poll wait so suspended
        // responses are re-armed promptly.
        let notify = waker.clone();
        queue.set_notify(Arc::new(move || notify.wake()));

        Ok(Server {
            listener,
            state: Arc::new(ServeState {
                registry,
                queue,
                config,
                metrics: Metrics::new(),
                memo,
                trace,
                shutdown: AtomicBool::new(false),
            }),
            workers,
            waker,
            wake_rx,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the connection loop on the calling thread until a shutdown
    /// request arrives, then joins the worker pool.
    pub fn run(self) -> io::Result<()> {
        event::event_loop(self.listener, self.wake_rx, &self.state);
        self.state.queue.shutdown();
        for handle in self.workers {
            let _ = handle.join();
        }
        Ok(())
    }

    /// Moves the connection loop onto a background thread and returns
    /// a handle for tests and embedders.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let state = Arc::clone(&self.state);
        let accept = {
            let state = Arc::clone(&self.state);
            let listener = self.listener;
            let wake_rx = self.wake_rx;
            thread::Builder::new()
                .name("carma-serve-loop".to_string())
                .spawn(move || event::event_loop(listener, wake_rx, &state))?
        };
        Ok(ServerHandle {
            addr,
            state,
            accept,
            workers: self.workers,
            waker: self.waker,
        })
    }
}

/// A running scenario service (see [`Server::spawn`]); shut down via
/// [`ServerHandle::shutdown`] or `POST /shutdown`.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServeState>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    waker: event::Waker,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, wakes the queue, and joins every thread.
    pub fn shutdown(self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // The event loop blocks in poll(); the wake byte makes it
        // observe the flag.
        self.waker.wake();
        let _ = self.accept.join();
        self.state.queue.shutdown();
        for handle in self.workers {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// One batch element: either already answerable, or waiting on a job.
pub(crate) enum BatchItem {
    /// The rendered `{"…"}` JSON fragment for this element.
    Ready(String),
    /// The element coalesced onto / enqueued job `id`.
    Pending { id: u64, fingerprint: String },
}

/// Where a routed request goes next.
pub(crate) enum Routed {
    /// Answer now.
    Ready(Response),
    /// A sync `POST /run` miss: answer when job `id` retires.
    WaitJob { id: u64, fingerprint: String },
    /// A batch `POST /run` with at least one pending element.
    WaitBatch { items: Vec<BatchItem> },
    /// `POST /shutdown`: send the response, then stop the server.
    Shutdown(Response),
}

/// Routes one parsed request. Never blocks: cache hits, metadata and
/// errors answer immediately; misses come back as `WaitJob` /
/// `WaitBatch` for the event loop to suspend the connection on.
pub(crate) fn route(request: &Request, state: &ServeState) -> Routed {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Routed::Ready(handle_healthz(state)),
        ("GET", "/metrics") => Routed::Ready(handle_metrics(state)),
        ("GET", "/trace") => Routed::Ready(handle_trace(state, request)),
        ("GET", "/experiments") => Routed::Ready(handle_experiments(state)),
        ("POST", "/run") => handle_run(state, request),
        ("GET", path) if path.starts_with("/jobs/") => {
            Routed::Ready(handle_job(state, &path["/jobs/".len()..]))
        }
        ("POST", "/shutdown") => {
            Routed::Shutdown(Response::json(200, "{\"status\":\"shutting down\"}"))
        }
        ("GET" | "POST", _) => Routed::Ready(Response::error(404, "no such endpoint")),
        _ => Routed::Ready(Response::error(405, "method not allowed")),
    }
}

fn handle_healthz(state: &ServeState) -> Response {
    let queue = state.queue.stats();
    let cache = state.memo.stats().report;
    Response::json(
        200,
        format!(
            "{{\"status\":\"ok\",\"experiments\":{},\"workers\":{},\"queue_capacity\":{},\
             \"jobs_queued\":{},\"jobs_running\":{},\"jobs_completed\":{},\"jobs_failed\":{},\
             \"cache_entries\":{},\"cache_hits\":{},\"cache_misses\":{},\
             \"connections\":{},\"requests\":{}}}",
            state.registry.entries().len(),
            state.config.workers.max(1),
            state.config.queue_capacity,
            queue.queued,
            queue.running,
            queue.completed,
            queue.failed,
            cache.entries,
            cache.hits,
            cache.misses,
            state.metrics.connections_open(),
            state.metrics.requests.load(Ordering::Relaxed),
        ),
    )
}

fn handle_metrics(state: &ServeState) -> Response {
    let queue = state.queue.stats();
    Response::text(
        200,
        metrics::render(
            &state.metrics,
            (queue.queued, queue.running, queue.completed, queue.failed),
            state.memo.stats(),
        ) + &metrics::render_spans(&state.trace.aggregates(), state.trace.span_count()),
    )
}

/// `GET /trace?last=N`: the `N` most recent root spans (requests and
/// scenario runs) plus their descendants, as Chrome `trace_event`
/// JSON — load the body in `chrome://tracing` or ui.perfetto.dev.
fn handle_trace(state: &ServeState, request: &Request) -> Response {
    let last = match request.query_param("last") {
        Some(value) => match value.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return Response::error(400, "`last` must be a non-negative integer"),
        },
        None => TRACE_DEFAULT_LAST,
    };
    Response::json(200, state.trace.snapshot().chrome_json_recent(last))
}

fn handle_experiments(state: &ServeState) -> Response {
    let entries: Vec<String> = state
        .registry
        .entries()
        .iter()
        .map(|info| {
            format!(
                "{{\"name\":{},\"title\":{},\"index\":{},\"multi_node\":{},\
                 \"multi_model\":{},\"objective_aware\":{}}}",
                serde::json::to_string(info.name),
                serde::json::to_string(info.title),
                serde::json::to_string(info.index),
                info.multi_node,
                info.multi_model,
                info.objective_aware,
            )
        })
        .collect();
    Response::json(200, format!("{{\"experiments\":[{}]}}", entries.join(",")))
}

fn handle_job(state: &ServeState, id_text: &str) -> Response {
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::error(400, "job ids are integers");
    };
    let Some(snapshot) = state.queue.status(id) else {
        return Response::error(404, "no such job");
    };
    let JobSnapshot {
        id,
        fingerprint,
        experiment,
        status,
    } = snapshot;
    let body = match status {
        JobStatus::Done(payload) => format!(
            "{{\"job\":{id},\"status\":\"done\",\"fingerprint\":\"{fingerprint}\",\
             \"experiment\":{},\"report\":{payload}}}",
            serde::json::to_string(&experiment)
        ),
        JobStatus::Failed(msg) => format!(
            "{{\"job\":{id},\"status\":\"failed\",\"fingerprint\":\"{fingerprint}\",\
             \"experiment\":{},\"error\":{}}}",
            serde::json::to_string(&experiment),
            serde::json::to_string(&msg)
        ),
        other => format!(
            "{{\"job\":{id},\"status\":\"{}\",\"fingerprint\":\"{fingerprint}\",\
             \"experiment\":{}}}",
            other.as_str(),
            serde::json::to_string(&experiment)
        ),
    };
    Response::json(200, body)
}

/// Body of a successful `POST /run`. The `report` member is spliced
/// verbatim: the report stage stores exactly the bytes
/// `Report::to_json` produced, so clients stripping the wrapper recover
/// a byte-identical `carma run … --out json` document.
fn run_response(cache: &str, fingerprint: &str, report_json: &str) -> Response {
    Response::json(
        200,
        format!(
            "{{\"cache\":\"{cache}\",\"fingerprint\":\"{fingerprint}\",\"report\":{report_json}}}"
        ),
    )
    .with_header("X-Carma-Cache", cache)
}

fn queue_full_response(state: &ServeState) -> Response {
    state.metrics.queue_shed.fetch_add(1, Ordering::Relaxed);
    Response::json(
        503,
        format!(
            "{{\"error\":\"job queue full ({} pending)\",\"retry_after_s\":1}}",
            state.config.queue_capacity
        ),
    )
    .with_header("Retry-After", "1")
}

/// The `POST /run` flow: parse → resolve → fingerprint → cache →
/// queue. A JSON array body is a batch (see [`handle_run_batch`]).
fn handle_run(state: &ServeState, request: &Request) -> Routed {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return Routed::Ready(Response::error(400, "body is not UTF-8"));
    };
    if text.trim_start().starts_with('[') {
        return handle_run_batch(state, text, request.wants_async());
    }
    let spec = match ScenarioSpec::from_json(text) {
        Ok(spec) => spec,
        Err(e) => return Routed::Ready(Response::error(400, &e.to_string())),
    };
    match submit_spec(state, &spec) {
        SpecOutcome::Invalid(msg) => Routed::Ready(Response::error(422, &msg)),
        SpecOutcome::Hit {
            fingerprint,
            payload,
        } => Routed::Ready(run_response("hit", &fingerprint, &payload)),
        SpecOutcome::QueueFull => Routed::Ready(queue_full_response(state)),
        SpecOutcome::InFlight { id, fingerprint } if request.wants_async() => {
            let status = state
                .queue
                .status(id)
                .map_or("queued", |s| s.status.as_str());
            Routed::Ready(
                Response::json(
                    202,
                    format!(
                        "{{\"job\":{id},\"status\":{},\"fingerprint\":\"{fingerprint}\"}}",
                        serde::json::to_string(status)
                    ),
                )
                .with_header("Location", &format!("/jobs/{id}")),
            )
        }
        SpecOutcome::InFlight { id, fingerprint } => Routed::WaitJob { id, fingerprint },
    }
}

/// What became of one spec pushed through cache + queue.
enum SpecOutcome {
    /// Resolve failed (the message is the scenario error).
    Invalid(String),
    /// Served from the cache.
    Hit {
        fingerprint: String,
        payload: Arc<String>,
    },
    /// Enqueued or coalesced onto an in-flight job.
    InFlight { id: u64, fingerprint: String },
    /// The bounded queue is at capacity.
    QueueFull,
}

/// Resolve → fingerprint → cache lookup → submit, deduplicating
/// against both the cache and in-flight jobs in one pass (the
/// under-the-lock recheck in [`JobQueue::submit_or_lookup`]).
fn submit_spec(state: &ServeState, spec: &ScenarioSpec) -> SpecOutcome {
    // Resolve with no CLI-level overrides: the spec (and the server's
    // environment) fully determine the scenario, exactly as
    // `carma run --spec` does.
    let resolved = match spec.resolve(state.registry.as_ref(), None, None) {
        Ok(resolved) => resolved,
        Err(e) => return SpecOutcome::Invalid(e.to_string()),
    };
    let fingerprint = resolved.fingerprint();

    // Fast path: a warm entry answers without touching the queue.
    if let Some(payload) = state.memo.report(&fingerprint, &resolved.name) {
        return SpecOutcome::Hit {
            fingerprint,
            payload,
        };
    }

    // Slow path: look up and submit atomically under the queue lock,
    // so a job retiring between the check above and here is observed
    // as the cache hit it just became rather than re-enqueued. The
    // recheck peeks (memory-only, uncounted): the counted get above
    // already covered disk, and a result materializing in between
    // lands in memory first — stats stay at one count per request.
    let submitted = state
        .queue
        .submit_or_lookup(&fingerprint, &resolved.name, spec, || {
            state.memo.peek_report(&fingerprint)
        });
    match submitted {
        SubmitOutcome::Cached(payload) => SpecOutcome::Hit {
            fingerprint,
            payload,
        },
        SubmitOutcome::Submitted(Submit::QueueFull) => SpecOutcome::QueueFull,
        SubmitOutcome::Submitted(Submit::Enqueued(id) | Submit::Coalesced(id)) => {
            SpecOutcome::InFlight { id, fingerprint }
        }
    }
}

/// Batch `POST /run`: an array of specs, each fingerprinted and
/// deduplicated against the cache and in-flight jobs in one pass —
/// identical elements (and elements identical to running jobs)
/// coalesce onto a single computation. Per-element outcomes come back
/// as `{"results":[…]}` in order; one bad element never fails the
/// batch.
fn handle_run_batch(state: &ServeState, text: &str, wants_async: bool) -> Routed {
    let parsed = match serde::json::parse(text) {
        Ok(value) => value,
        Err(e) => return Routed::Ready(Response::error(400, &e.to_string())),
    };
    let Some(elements) = parsed.as_array() else {
        return Routed::Ready(Response::error(400, "batch body must be a JSON array"));
    };
    if elements.is_empty() {
        return Routed::Ready(Response::error(400, "batch body is an empty array"));
    }
    if elements.len() > MAX_BATCH {
        return Routed::Ready(Response::error(
            400,
            &format!(
                "batch of {} specs exceeds the {MAX_BATCH} cap",
                elements.len()
            ),
        ));
    }

    let mut items: Vec<BatchItem> = Vec::with_capacity(elements.len());
    for element in elements {
        let spec = match <ScenarioSpec as serde::de::Deserialize>::deserialize(element) {
            Ok(spec) => spec,
            Err(e) => {
                items.push(BatchItem::Ready(error_fragment(&e.to_string(), None)));
                continue;
            }
        };
        items.push(match submit_spec(state, &spec) {
            SpecOutcome::Invalid(msg) => BatchItem::Ready(error_fragment(&msg, None)),
            SpecOutcome::Hit {
                fingerprint,
                payload,
            } => BatchItem::Ready(format!(
                "{{\"cache\":\"hit\",\"fingerprint\":\"{fingerprint}\",\"report\":{payload}}}"
            )),
            SpecOutcome::QueueFull => {
                BatchItem::Ready("{\"error\":\"job queue full\",\"retry_after_s\":1}".to_string())
            }
            SpecOutcome::InFlight { id, fingerprint } if wants_async => BatchItem::Ready(format!(
                "{{\"job\":{id},\"status\":\"queued\",\"fingerprint\":\"{fingerprint}\"}}"
            )),
            SpecOutcome::InFlight { id, fingerprint } => BatchItem::Pending { id, fingerprint },
        });
    }

    if items.iter().all(|item| matches!(item, BatchItem::Ready(_))) {
        Routed::Ready(batch_response(&items))
    } else {
        Routed::WaitBatch { items }
    }
}

fn error_fragment(message: &str, fingerprint: Option<&str>) -> String {
    match fingerprint {
        Some(fp) => format!(
            "{{\"fingerprint\":\"{fp}\",\"error\":{}}}",
            serde::json::to_string(message)
        ),
        None => format!("{{\"error\":{}}}", serde::json::to_string(message)),
    }
}

/// Composes the final batch response; every item must be `Ready`.
pub(crate) fn batch_response(items: &[BatchItem]) -> Response {
    let fragments: Vec<&str> = items
        .iter()
        .map(|item| match item {
            BatchItem::Ready(json) => json.as_str(),
            BatchItem::Pending { .. } => "{\"error\":\"job did not complete\"}",
        })
        .collect();
    Response::json(200, format!("{{\"results\":[{}]}}", fragments.join(",")))
}

/// The final response for a sync-waited job, or `None` while it is
/// still queued/running.
pub(crate) fn job_outcome_response(
    state: &ServeState,
    id: u64,
    fingerprint: &str,
) -> Option<Response> {
    let Some(snapshot) = state.queue.status(id) else {
        // Evicted from the finished history before we observed it —
        // only possible after hundreds of other jobs retired in
        // between.
        return Some(Response::error(500, "job vanished"));
    };
    match snapshot.status {
        JobStatus::Done(payload) => Some(run_response("miss", fingerprint, &payload)),
        JobStatus::Failed(msg) => Some(Response::error(500, &msg)),
        JobStatus::Queued | JobStatus::Running => None,
    }
}

/// The final JSON fragment for one batch element's job, or `None`
/// while it is still in flight.
pub(crate) fn batch_item_outcome(state: &ServeState, id: u64, fingerprint: &str) -> Option<String> {
    let Some(snapshot) = state.queue.status(id) else {
        return Some(error_fragment("job vanished", Some(fingerprint)));
    };
    match snapshot.status {
        JobStatus::Done(payload) => Some(format!(
            "{{\"cache\":\"miss\",\"fingerprint\":\"{fingerprint}\",\"report\":{payload}}}"
        )),
        JobStatus::Failed(msg) => Some(error_fragment(&msg, Some(fingerprint))),
        JobStatus::Queued | JobStatus::Running => None,
    }
}

/// The 4xx response for an unparseable request (after which the
/// connection closes — the parse position is unrecoverable).
pub(crate) fn request_error_response(error: &RequestError) -> Response {
    match error {
        RequestError::HeadTooLarge => Response::error(400, "request head too large"),
        RequestError::BodyTooLarge => Response::error(413, "request body too large"),
        RequestError::Malformed(msg) => Response::error(400, msg),
    }
}
