//! The `carma-serve` HTTP scenario service end to end: boot on an
//! ephemeral port, prove byte-identical artifacts vs the registry
//! (what `carma run … --out json` prints), cache-hit semantics
//! in-process and across a restart with the memo's disk tier (corrupt
//! report files never served), fingerprint invariance to thread count,
//! async job flow, concurrent-request determinism with single-flight
//! coalescing, and the error paths.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use carma_core::scenario::{ExperimentRegistry, ScenarioSpec};
use carma_serve::http::{http_request, HttpClient, HttpResponse};
use carma_serve::{Server, ServerConfig, ServerHandle};

fn registry() -> &'static ExperimentRegistry {
    static REGISTRY: OnceLock<ExperimentRegistry> = OnceLock::new();
    REGISTRY.get_or_init(ExperimentRegistry::standard)
}

/// A cheap fig2 spec (depth-2 ladder, 48 samples, 10×6 GA), with a
/// caller-chosen seed so each test owns distinct cache entries.
fn small_spec_json(seed: u64) -> String {
    format!(
        r#"{{"experiment": "fig2", "model": "resnet50", "library_depth": 2,
            "accuracy_samples": 48, "ga": {{"population": 10, "generations": 6}},
            "seed": {seed}, "scale": "quick"}}"#
    )
}

fn boot(config: ServerConfig) -> ServerHandle {
    Server::bind("127.0.0.1:0", config)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server")
}

fn post_run(addr: SocketAddr, body: &str) -> HttpResponse {
    http_request(addr, "POST", "/run", Some(body)).expect("POST /run")
}

/// Strips the `{"cache":…,"fingerprint":…,"report":…}` wrapper,
/// returning the verbatim report bytes.
fn extract_report(body: &str) -> &str {
    let idx = body
        .find("\"report\":")
        .expect("wrapper has a report member");
    &body[idx + "\"report\":".len()..body.len() - 1]
}

fn cache_marker(response: &HttpResponse) -> &str {
    response
        .header("x-carma-cache")
        .expect("cache marker header")
}

#[test]
fn healthz_and_experiments_describe_the_service() {
    let handle = boot(ServerConfig::default());
    let health = http_request(handle.addr(), "GET", "/healthz", None).expect("GET /healthz");
    assert_eq!(health.status, 200);
    let v = serde::json::parse(&health.body).expect("healthz is JSON");
    assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(
        v.get("experiments").unwrap().as_f64(),
        Some(registry().entries().len() as f64)
    );

    let list = http_request(handle.addr(), "GET", "/experiments", None).expect("GET /experiments");
    assert_eq!(list.status, 200);
    let v = serde::json::parse(&list.body).expect("experiments is JSON");
    let entries = v.get("experiments").unwrap().as_array().unwrap();
    assert_eq!(entries.len(), registry().entries().len());
    for name in registry().names() {
        assert!(
            entries
                .iter()
                .any(|e| e.get("name").and_then(|n| n.as_str()) == Some(name)),
            "experiments listing misses `{name}`"
        );
    }
    handle.shutdown();
}

#[test]
fn repeat_submission_hits_the_cache_with_bytes_identical_to_carma_run() {
    let handle = boot(ServerConfig::default());
    let spec_json = small_spec_json(42);

    let first = post_run(handle.addr(), &spec_json);
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(cache_marker(&first), "miss");
    assert!(first
        .body
        .starts_with("{\"cache\":\"miss\",\"fingerprint\":\""));

    let second = post_run(handle.addr(), &spec_json);
    assert_eq!(second.status, 200);
    assert_eq!(cache_marker(&second), "hit");

    // The two artifact payloads are byte-identical.
    let report_a = extract_report(&first.body);
    let report_b = extract_report(&second.body);
    assert_eq!(report_a, report_b, "hit payload diverged from the miss");

    // … and byte-identical to what `carma run --spec … --out json`
    // prints (the CLI emits Report::to_json plus a trailing newline).
    let spec = ScenarioSpec::from_json(&spec_json).expect("spec parses");
    let direct = registry().run(&spec).expect("spec runs").to_json();
    assert_eq!(report_a, direct, "serve artifact diverged from carma run");

    handle.shutdown();
}

#[test]
fn fingerprint_serves_across_thread_counts_from_one_entry() {
    let handle = boot(ServerConfig::default());
    // Same scenario, spec-pinned widths 1 and 8: the second request
    // must be served from the first one's cache entry — the engine
    // width is not part of the content address.
    let narrow = small_spec_json(77).replace("\"scale\"", "\"threads\": 1, \"scale\"");
    let wide = small_spec_json(77).replace("\"scale\"", "\"threads\": 8, \"scale\"");
    let first = post_run(handle.addr(), &narrow);
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(cache_marker(&first), "miss");
    let second = post_run(handle.addr(), &wide);
    assert_eq!(second.status, 200);
    assert_eq!(
        cache_marker(&second),
        "hit",
        "widths 1 and 8 must share one cache entry"
    );
    assert_eq!(extract_report(&first.body), extract_report(&second.body));
    handle.shutdown();
}

#[test]
fn async_submission_returns_a_pollable_job() {
    let handle = boot(ServerConfig::default());
    let spec_json = small_spec_json(101);

    let accepted = http_request(handle.addr(), "POST", "/run?async=true", Some(&spec_json))
        .expect("POST /run?async=true");
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let v = serde::json::parse(&accepted.body).expect("202 body is JSON");
    let job_id = v.get("job").unwrap().as_f64().expect("job id") as u64;
    let location = accepted.header("location").expect("Location header");
    assert_eq!(location, format!("/jobs/{job_id}"));

    // Poll until done (the tiny spec takes well under a minute).
    let deadline = Instant::now() + Duration::from_secs(120);
    let done = loop {
        let status = http_request(handle.addr(), "GET", &format!("/jobs/{job_id}"), None)
            .expect("GET /jobs/:id");
        assert_eq!(status.status, 200, "{}", status.body);
        let v = serde::json::parse(&status.body).expect("job body is JSON");
        match v.get("status").unwrap().as_str().unwrap() {
            "done" => break status,
            "failed" => panic!("job failed: {}", status.body),
            _ if Instant::now() > deadline => panic!("job never finished"),
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    };

    // The finished job carries the report, and a sync resubmission is
    // now a cache hit with the same bytes.
    let job_report = extract_report(&done.body);
    let sync = post_run(handle.addr(), &spec_json);
    assert_eq!(cache_marker(&sync), "hit");
    assert_eq!(extract_report(&sync.body), job_report);
    handle.shutdown();
}

#[test]
fn disk_cache_survives_a_server_restart() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("carma-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        memo_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let spec_json = small_spec_json(202);

    let first_server = boot(config.clone());
    let miss = post_run(first_server.addr(), &spec_json);
    assert_eq!(miss.status, 200, "{}", miss.body);
    assert_eq!(cache_marker(&miss), "miss");
    first_server.shutdown();

    // A fresh process stands in for a restart: new server, same dir.
    let second_server = boot(config);
    let hit = post_run(second_server.addr(), &spec_json);
    assert_eq!(hit.status, 200);
    assert_eq!(
        cache_marker(&hit),
        "hit",
        "restart lost the disk store: {}",
        hit.body
    );
    assert_eq!(extract_report(&miss.body), extract_report(&hit.body));
    second_server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_report_files_are_recomputed_never_served() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("carma-serve-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        memo_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let spec_json = small_spec_json(404);
    let fingerprint = ScenarioSpec::from_json(&spec_json)
        .expect("spec parses")
        .resolve(registry(), None, None)
        .expect("spec resolves")
        .fingerprint();
    let path = dir.join("report").join(format!("{fingerprint}.json"));

    let first_server = boot(config.clone());
    let first = post_run(first_server.addr(), &spec_json);
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(cache_marker(&first), "miss");
    first_server.shutdown();
    let report = extract_report(&first.body).to_string();
    assert_eq!(
        std::fs::read_to_string(&path).expect("report stored"),
        report
    );

    // Garbage, then a well-formed object naming another experiment:
    // each is a miss for the next server, which recomputes the same
    // bytes and repairs the file.
    for poison in ["\x00not json at all", r#"{"experiment":"table1"}"#] {
        std::fs::write(&path, poison).expect("poison the report file");
        let server = boot(config.clone());
        let again = post_run(server.addr(), &spec_json);
        assert_eq!(again.status, 200, "{}", again.body);
        assert_eq!(cache_marker(&again), "miss", "served {poison:?}");
        assert_eq!(extract_report(&again.body), report);
        server.shutdown();
        assert_eq!(std::fs::read_to_string(&path).expect("rewritten"), report);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_identical_requests_coalesce_and_agree() {
    let handle = boot(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let spec_json = small_spec_json(303);

    // Six clients race the same scenario; single-flight means the GA
    // runs once and every response carries the same bytes.
    let clients: Vec<_> = (0..6)
        .map(|_| {
            let spec_json = spec_json.clone();
            std::thread::spawn(move || post_run(addr, &spec_json))
        })
        .collect();
    let responses: Vec<HttpResponse> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();

    let reference = extract_report(&responses[0].body).to_string();
    for response in &responses {
        assert_eq!(response.status, 200, "{}", response.body);
        assert_eq!(
            extract_report(&response.body),
            reference,
            "concurrent responses diverged"
        );
    }
    // The queue completed exactly one job for the six requests.
    let health = http_request(addr, "GET", "/healthz", None).expect("GET /healthz");
    let v = serde::json::parse(&health.body).expect("healthz is JSON");
    assert_eq!(
        v.get("jobs_completed").unwrap().as_f64(),
        Some(1.0),
        "coalescing failed: {}",
        health.body
    );
    handle.shutdown();
}

#[test]
fn error_paths_return_typed_statuses() {
    let handle = boot(ServerConfig::default());
    let addr = handle.addr();

    // Not JSON at all.
    let r = post_run(addr, "not json");
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("error"));
    // Valid JSON, invalid scenario.
    let r = post_run(addr, r#"{"experiment": "fig9"}"#);
    assert_eq!(r.status, 422, "{}", r.body);
    assert!(r.body.contains("unknown experiment"), "{}", r.body);
    // A resolve-stage validation error, not just an unknown name.
    let r = post_run(addr, r#"{"experiment": "fig2", "fps_thresholds": [0.0]}"#);
    assert_eq!(r.status, 422, "{}", r.body);
    // Unknown route and unknown job.
    let r = http_request(addr, "GET", "/nope", None).expect("request");
    assert_eq!(r.status, 404);
    let r = http_request(addr, "GET", "/jobs/999999", None).expect("request");
    assert_eq!(r.status, 404);
    let r = http_request(addr, "GET", "/jobs/abc", None).expect("request");
    assert_eq!(r.status, 400);
    handle.shutdown();
}

#[test]
fn bench_parallel_is_not_a_servable_experiment() {
    // Wall-clock timings are not a function of the spec, so they must
    // never enter the content-addressed cache: the engine benchmark is
    // a `carma-bench` binary, not a registry experiment.
    let handle = boot(ServerConfig::default());
    let r = post_run(
        handle.addr(),
        r#"{"experiment": "bench_parallel", "scale": "quick"}"#,
    );
    assert_eq!(r.status, 422, "{}", r.body);
    assert!(r.body.contains("unknown experiment"), "{}", r.body);
    handle.shutdown();
}

#[test]
fn imported_library_specs_cache_by_content_not_path() {
    let handle = boot(ServerConfig::default());
    let addr = handle.addr();
    let dir = std::env::temp_dir().join(format!("carma_serve_import_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let text = std::fs::read_to_string("examples/libraries/approx8.v").expect("fixture");
    let a = dir.join("a.v");
    let renamed = dir.join("renamed.v");
    let edited = dir.join("edited.v");
    std::fs::write(&a, &text).expect("write");
    std::fs::write(&renamed, &text).expect("write");
    std::fs::write(&edited, format!("{text}\n// tweak\n")).expect("write");

    let spec = |path: &std::path::Path| {
        format!(
            r#"{{"experiment": "fig2", "model": "resnet50", "family": "imported",
                "library": "{}", "accuracy_samples": 48,
                "ga": {{"population": 10, "generations": 6}},
                "seed": 77, "scale": "quick"}}"#,
            path.display()
        )
    };

    let first = post_run(addr, &spec(&a));
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(cache_marker(&first), "miss");

    // Same bytes under another path: the content-hash fingerprint is
    // unchanged, so the result is served from the first entry.
    let second = post_run(addr, &spec(&renamed));
    assert_eq!(second.status, 200, "{}", second.body);
    assert_eq!(cache_marker(&second), "hit", "rename must hit the cache");
    assert_eq!(extract_report(&first.body), extract_report(&second.body));

    // Edited bytes: a different scenario, recomputed.
    let third = post_run(addr, &spec(&edited));
    assert_eq!(third.status, 200, "{}", third.body);
    assert_eq!(cache_marker(&third), "miss", "edit must invalidate");

    // A library failing the admission gate is a 422 resolve error
    // carrying the lint diagnostics.
    let rejected = post_run(
        addr,
        &spec(std::path::Path::new("examples/libraries/corrupted.v")),
    );
    assert_eq!(rejected.status, 422, "{}", rejected.body);
    assert!(rejected.body.contains("FloatingInput"), "{}", rejected.body);

    let _ = std::fs::remove_dir_all(&dir);
    handle.shutdown();
}

/// Writes raw bytes on a fresh connection and returns everything the
/// server sends back before closing (for wire-level parser checks).
fn raw_roundtrip(addr: SocketAddr, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream.write_all(bytes).expect("write request bytes");
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

/// The value of one Prometheus series in `/metrics` text.
fn metric_value(text: &str, name: &str) -> f64 {
    let prefix = format!("{name} ");
    text.lines()
        .find(|line| line.starts_with(&prefix))
        .unwrap_or_else(|| panic!("series `{name}` missing from:\n{text}"))
        .split_whitespace()
        .nth(1)
        .expect("series has a value")
        .parse()
        .expect("series value is numeric")
}

#[test]
fn keepalive_connection_reuses_across_hit_miss_and_error() {
    let handle = boot(ServerConfig::default());
    let spec_json = small_spec_json(501);

    // One connection: miss → hit → route error → parse error-free
    // request again — all five exchanges ride the same TCP stream.
    let mut client = HttpClient::connect(handle.addr()).expect("connect");
    let miss = client
        .request("POST", "/run", Some(&spec_json))
        .expect("miss over keep-alive");
    assert_eq!(miss.status, 200, "{}", miss.body);
    assert_eq!(cache_marker(&miss), "miss");

    let hit = client
        .request("POST", "/run", Some(&spec_json))
        .expect("hit over keep-alive");
    assert_eq!(hit.status, 200);
    assert_eq!(cache_marker(&hit), "hit");
    assert_eq!(extract_report(&miss.body), extract_report(&hit.body));

    // A 400 (bad body) and a 404 (bad route) must not drop the
    // connection: they are application errors, not parse errors.
    let bad = client
        .request("POST", "/run", Some("not json"))
        .expect("400 over keep-alive");
    assert_eq!(bad.status, 400);
    let lost = client
        .request("GET", "/nope", None)
        .expect("404 over keep-alive");
    assert_eq!(lost.status, 404);

    let again = client
        .request("POST", "/run", Some(&spec_json))
        .expect("hit after errors on the same connection");
    assert_eq!(again.status, 200);
    assert_eq!(cache_marker(&again), "hit");
    handle.shutdown();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let handle = boot(ServerConfig::default());
    let mut client = HttpClient::connect(handle.addr()).expect("connect");

    // Three different requests written back-to-back with no
    // intervening reads; HTTP/1.1 requires the responses in order.
    client.send("GET", "/healthz", None).expect("send 1");
    client.send("GET", "/nope", None).expect("send 2");
    client.send("GET", "/experiments", None).expect("send 3");
    let first = client.recv().expect("recv 1");
    let second = client.recv().expect("recv 2");
    let third = client.recv().expect("recv 3");
    assert_eq!(first.status, 200);
    assert!(first.body.contains("\"status\":\"ok\""), "{}", first.body);
    assert_eq!(second.status, 404);
    assert_eq!(third.status, 200);
    assert!(third.body.contains("\"experiments\""), "{}", third.body);

    // An identical-request burst drains completely too.
    client
        .send_burst("GET", "/healthz", None, 64)
        .expect("burst");
    for _ in 0..64 {
        assert_eq!(client.recv().expect("burst response").status, 200);
    }
    handle.shutdown();
}

#[test]
fn metrics_expose_cache_queue_and_latency_series() {
    let handle = boot(ServerConfig::default());
    let spec_json = small_spec_json(601);
    let mut client = HttpClient::connect(handle.addr()).expect("connect");

    let miss = client
        .request("POST", "/run", Some(&spec_json))
        .expect("miss");
    assert_eq!(cache_marker(&miss), "miss");
    let hit = client
        .request("POST", "/run", Some(&spec_json))
        .expect("hit");
    assert_eq!(cache_marker(&hit), "hit");

    let metrics = client.request("GET", "/metrics", None).expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics
        .header("content-type")
        .is_some_and(|t| t.starts_with("text/plain")));
    let text = &metrics.body;
    assert!(
        metric_value(text, "carma_cache_hits_total") >= 1.0,
        "{text}"
    );
    assert!(metric_value(text, "carma_cache_misses_total") >= 1.0);
    let ratio = metric_value(text, "carma_cache_hit_ratio");
    assert!(ratio > 0.0 && ratio < 1.0, "hit ratio {ratio}");
    assert_eq!(metric_value(text, "carma_queue_depth"), 0.0);
    assert!(metric_value(text, "carma_jobs_completed_total") >= 1.0);
    assert!(metric_value(text, "carma_requests_total") >= 3.0);
    assert!(metric_value(text, "carma_connections_open") >= 1.0);
    // The latency summary carries both quantiles and a count covering
    // every *finished* request (the in-flight /metrics request itself
    // records only after rendering).
    assert!(text.contains("carma_request_latency_seconds{quantile=\"0.5\"}"));
    assert!(text.contains("carma_request_latency_seconds{quantile=\"0.99\"}"));
    assert!(metric_value(text, "carma_request_latency_seconds_count") >= 2.0);
    handle.shutdown();
}

#[test]
fn batch_run_deduplicates_and_reports_per_element() {
    let handle = boot(ServerConfig::default());
    let spec_a = small_spec_json(404);
    let spec_b = small_spec_json(405);
    // A twice (must coalesce to one computation), one invalid element
    // (must not fail the batch), and B once.
    let batch = format!("[{spec_a}, {spec_a}, {{\"experiment\": \"fig9\"}}, {spec_b}]");

    let response = post_run(handle.addr(), &batch);
    assert_eq!(response.status, 200, "{}", response.body);
    let v = serde::json::parse(&response.body).expect("batch body is JSON");
    let results = v.get("results").unwrap().as_array().expect("results array");
    assert_eq!(results.len(), 4, "one result per element");

    let fp = |i: usize| {
        results[i]
            .get("fingerprint")
            .and_then(|f| f.as_str())
            .unwrap_or_else(|| panic!("element {i} has no fingerprint: {}", response.body))
            .to_string()
    };
    assert_eq!(fp(0), fp(1), "identical elements share a fingerprint");
    assert_ne!(fp(0), fp(3));
    assert!(
        results[2].get("error").is_some(),
        "invalid element must carry an error: {}",
        response.body
    );
    assert!(results[0].get("report").is_some());
    assert!(results[3].get("report").is_some());

    // Deduplication is observable: four elements, two computations.
    let health = http_request(handle.addr(), "GET", "/healthz", None).expect("GET /healthz");
    let v = serde::json::parse(&health.body).expect("healthz is JSON");
    assert_eq!(
        v.get("jobs_completed").unwrap().as_f64(),
        Some(2.0),
        "batch dedupe failed: {}",
        health.body
    );

    // Resubmitting the whole batch is now pure cache hits.
    let again = post_run(handle.addr(), &batch);
    assert_eq!(again.status, 200);
    assert_eq!(again.body.matches("\"cache\":\"hit\"").count(), 3);
    handle.shutdown();
}

#[test]
fn smuggling_shaped_content_length_is_rejected_on_the_wire() {
    let handle = boot(ServerConfig::default());
    let addr = handle.addr();

    // Duplicate Content-Length (even agreeing values).
    let reply = raw_roundtrip(
        addr,
        b"POST /run HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
    );
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    // A sign prefix is not a DIGIT sequence.
    let reply = raw_roundtrip(
        addr,
        b"POST /run HTTP/1.1\r\nHost: t\r\nContent-Length: +2\r\n\r\n{}",
    );
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    // Transfer-Encoding is unsupported, never silently ignored.
    let reply = raw_roundtrip(
        addr,
        b"POST /run HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
    );
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    // A clean request still works after the rejects.
    let health = http_request(addr, "GET", "/healthz", None).expect("GET /healthz");
    assert_eq!(health.status, 200);
    handle.shutdown();
}

#[test]
fn connections_over_the_limit_are_shed_with_retry_after() {
    let handle = boot(ServerConfig {
        max_conns: 2,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // Two clients occupy the table (a completed request proves each
    // was accepted, not just SYN-queued).
    let mut first = HttpClient::connect(addr).expect("first");
    assert_eq!(
        first.request("GET", "/healthz", None).expect("1").status,
        200
    );
    let mut second = HttpClient::connect(addr).expect("second");
    assert_eq!(
        second.request("GET", "/healthz", None).expect("2").status,
        200
    );

    // The third is answered 503 + Retry-After at accept time.
    let mut shed = TcpStream::connect(addr).expect("third connect");
    shed.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reply = Vec::new();
    let _ = shed.read_to_end(&mut reply);
    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.starts_with("HTTP/1.1 503"), "{reply}");
    assert!(
        reply.to_ascii_lowercase().contains("retry-after: 1"),
        "{reply}"
    );

    // Dropping one occupant frees a slot for a newcomer.
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut next = HttpClient::connect(addr).expect("retry connect");
        match next.request("GET", "/healthz", None) {
            Ok(r) if r.status == 200 => break,
            _ if Instant::now() > deadline => panic!("slot never freed after close"),
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    handle.shutdown();
}

#[test]
fn shutdown_endpoint_stops_the_listener() {
    let handle = boot(ServerConfig::default());
    let addr = handle.addr();
    let bye = http_request(addr, "POST", "/shutdown", None).expect("POST /shutdown");
    assert_eq!(bye.status, 200);
    assert!(bye.body.contains("shutting down"));
    // The accept loop drains; connects start failing once the
    // listener drops (give it a beat on slow machines).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
            Err(_) => break,
            Ok(_) if Instant::now() > deadline => {
                panic!("listener still accepting 10 s after /shutdown")
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    // Idempotent from the handle side.
    handle.shutdown();
}
