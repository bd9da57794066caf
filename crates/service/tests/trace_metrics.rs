//! Observability integration tests: the `GET /metrics` Prometheus
//! exposition, the `x-an5d-trace` → `GET /trace?id=` span-tree round
//! trip for a `/tune` request, the trace-ring eviction order, and the
//! client↔server latency-percentile cross-check at dispatch level.

use an5d::SerialBackend;
use an5d_service::{
    client, dispatch, parse_json, Json, Request, Server, ServerConfig, ServiceState,
};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;

struct TempDb(PathBuf);

impl TempDb {
    fn new(label: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "an5d-service-trace-{label}-{}.db",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        Self(path)
    }
}

impl Drop for TempDb {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(self.0.with_extension("tmp"));
    }
}

fn start_server(tune_db: Option<&std::path::Path>) -> Server {
    Server::start_with_backend(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            cache_capacity: 64,
            tune_db: tune_db.map(|p| p.to_string_lossy().into_owned()),
            ..ServerConfig::default()
        },
        Arc::new(SerialBackend),
    )
    .expect("bind ephemeral port")
}

fn shutdown(addr: SocketAddr, server: Server) {
    let (status, _) = client::post(addr, "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    server.wait();
}

const TUNE_BODY: &str = r#"{"benchmark":"j2d5pt","interior":[512,512],"steps":50,
    "device":"v100","precision":"single","space":"quick"}"#;

#[test]
fn metrics_endpoint_serves_prometheus_histograms() {
    let server = start_server(None);
    let addr = server.addr();

    // Generate some traffic so the histograms have samples.
    let body = r#"{"benchmark":"star2d1r","interior":[64,64],"steps":8,
                   "config":{"bt":2,"bs":[32],"precision":"double"}}"#;
    for _ in 0..3 {
        let (status, _) = client::post(addr, "/plan", body).unwrap();
        assert_eq!(status, 200);
    }

    let (status, text) = client::get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    // Histogram series for the endpoint we hit, with the canonical
    // bucket/sum/count triplet and the +Inf terminal bucket.
    assert!(
        text.contains("# TYPE an5d_request_latency_us histogram"),
        "{text}"
    );
    assert!(
        text.contains("an5d_request_latency_us_bucket{endpoint=\"/plan\",le=\"+Inf\"} 3"),
        "{text}"
    );
    assert!(
        text.contains("an5d_request_latency_us_count{endpoint=\"/plan\"} 3"),
        "{text}"
    );
    assert!(
        text.contains("an5d_request_latency_us_quantile{endpoint=\"/plan\",quantile=\"0.99\"}"),
        "{text}"
    );
    assert!(
        text.contains("an5d_requests_total{endpoint=\"/plan\"} 3"),
        "{text}"
    );
    // Fleet, cache, pool and ring gauges ride along.
    assert!(text.contains("\nan5d_plan_cache_hits_total "), "{text}");
    assert!(text.contains("an5d_shard_requests_total{device="), "{text}");
    assert!(text.contains("an5d_pool_workers "), "{text}");
    assert!(text.contains("an5d_pool_batch_wall_us_bucket"), "{text}");
    assert!(text.contains("an5d_trace_ring_size "), "{text}");

    // The cumulative bucket counts are monotone non-decreasing.
    let counts: Vec<u64> = text
        .lines()
        .filter_map(|line| {
            line.strip_prefix("an5d_request_latency_us_bucket{endpoint=\"/plan\",le=")
                .and_then(|rest| rest.split_once("} "))
                .and_then(|(_, value)| value.trim().parse().ok())
        })
        .collect();
    assert!(!counts.is_empty());
    assert!(
        counts.windows(2).all(|w| w[0] <= w[1]),
        "cumulative buckets must be monotone: {counts:?}"
    );

    shutdown(addr, server);
}

#[test]
fn tune_trace_shows_nested_pipeline_spans() {
    let db = TempDb::new("tune-spans");
    let server = start_server(Some(&db.0));
    let addr = server.addr();

    let (status, _, trace_id) = client::post_traced(addr, "/tune", TUNE_BODY).unwrap();
    assert_eq!(status, 200);
    let trace_id = trace_id.expect("every /tune response carries x-an5d-trace");

    let (status, body) = client::get(addr, &format!("/trace?id={trace_id}")).unwrap();
    assert_eq!(status, 200, "{body}");
    let trace = parse_json(&body).unwrap();
    assert_eq!(
        trace.get("id").and_then(Json::as_str),
        Some(trace_id.as_str())
    );
    let total_us = trace.get("total_us").and_then(Json::as_usize).unwrap() as u64;
    let spans = trace.get("spans").unwrap().as_array().unwrap();

    let names: Vec<&str> = spans
        .iter()
        .map(|span| span.get("name").and_then(Json::as_str).unwrap())
        .collect();
    // The acceptance span set for a cold /tune: fingerprint (tune.key),
    // DB lookup (tunedb.get), search-space sweep (tuner.rank_sweep),
    // plan build (plan.build) and the simulated backend execution of
    // shortlisted candidates (tuner.measure).
    for required in [
        "/tune",
        "tune.key",
        "tunedb.get",
        "tuner.rank_sweep",
        "plan.build",
        "tuner.measure",
    ] {
        assert!(
            names.contains(&required),
            "trace must contain span {required:?}: {names:?}"
        );
    }

    // Span 0 is the handler root; every other span has a parent and
    // nests inside the root's duration. The root's *direct* children
    // run sequentially on the handler thread, so their durations sum to
    // at most the root's.
    let root = &spans[0];
    assert_eq!(root.get("name").and_then(Json::as_str), Some("/tune"));
    assert_eq!(root.get("parent"), Some(&Json::Null));
    let root_dur = root.get("dur_us").and_then(Json::as_usize).unwrap() as u64;
    assert!(root_dur <= total_us);
    let mut child_sum = 0u64;
    for span in &spans[1..] {
        let parent = span.get("parent").and_then(Json::as_usize);
        assert!(parent.is_some(), "non-root spans have parents: {span:?}");
        if parent == Some(0) {
            child_sum += span.get("dur_us").and_then(Json::as_usize).unwrap() as u64;
        }
    }
    assert!(child_sum > 0, "the root span must have timed children");
    assert!(
        child_sum <= root_dur,
        "sequential children ({child_sum}us) must fit inside the root ({root_dur}us)"
    );

    // An unknown (but well-formed) id is a 404; a malformed id a 400.
    let (status, _) = client::get(addr, "/trace?id=0000000000000000").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client::get(addr, "/trace?id=not-hex").unwrap();
    assert_eq!(status, 400);

    shutdown(addr, server);
}

#[test]
fn trace_ring_lists_requests_and_evicts_oldest_first() {
    let state = ServiceState::new(Arc::new(SerialBackend), 64).with_trace_capacity(3);
    let body = r#"{"benchmark":"star2d1r","interior":[32,32],"steps":4,
                   "config":{"bt":1,"bs":[16],"precision":"double"}}"#;
    let mut ids = Vec::new();
    for _ in 0..5 {
        let response = dispatch(&state, &Request::new("POST", "/plan", body.as_bytes()));
        assert_eq!(response.status, 200);
        ids.push(response.trace.clone().expect("traced response"));
    }

    let listing = dispatch(&state, &Request::new("GET", "/trace", b""));
    assert_eq!(listing.status, 200);
    let parsed = parse_json(&listing.body).unwrap();
    assert_eq!(parsed.get("capacity").and_then(Json::as_usize), Some(3));
    let listed: Vec<String> = parsed
        .get("traces")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|t| t.get("id").and_then(Json::as_str).unwrap().to_string())
        .collect();
    // Only the newest 3 of the 5 requests survive, oldest first.
    assert_eq!(listed, ids[2..].to_vec());

    // Evicted ids are gone; retained ids resolve.
    let gone = dispatch(
        &state,
        &Request::new("GET", &format!("/trace?id={}", ids[0]), b""),
    );
    assert_eq!(gone.status, 404);
    let kept = dispatch(
        &state,
        &Request::new("GET", &format!("/trace?id={}", ids[4]), b""),
    );
    assert_eq!(kept.status, 200);

    // /trace and /metrics requests themselves never enter the ring.
    let listing = dispatch(&state, &Request::new("GET", "/trace", b""));
    let parsed = parse_json(&listing.body).unwrap();
    assert_eq!(parsed.get("count").and_then(Json::as_usize), Some(3));
}

#[test]
fn server_histogram_percentiles_match_dispatched_latencies() {
    // Dispatch-level cross-check (no sockets, so client == server
    // timing): the /metrics histogram quantiles must agree with
    // nearest-rank percentiles computed from the same dispatch calls,
    // within the histogram's 1/32 bucket resolution.
    let state = ServiceState::new(Arc::new(SerialBackend), 64);
    let body = r#"{"benchmark":"star2d1r","interior":[48,48],"steps":4,
                   "config":{"bt":1,"bs":[16],"precision":"double"}}"#;
    let mut observed: Vec<u64> = Vec::new();
    for _ in 0..40 {
        let started = std::time::Instant::now();
        let response = dispatch(&state, &Request::new("POST", "/plan", body.as_bytes()));
        let elapsed = started.elapsed();
        assert_eq!(response.status, 200);
        observed.push(u64::try_from(elapsed.as_micros()).unwrap());
    }
    observed.sort_unstable();

    let histogram = state.metrics().histogram("/plan").expect("recorded");
    assert_eq!(histogram.count(), 40);
    for (q, pct) in [(0.5, 50usize), (0.95, 95), (0.99, 99)] {
        let rank = (pct * observed.len())
            .div_ceil(100)
            .clamp(1, observed.len());
        let client_q = observed[rank - 1];
        let server_q = histogram.quantile(q);
        // The dispatch wall time strictly contains the handler time the
        // server recorded, so the server quantile sits at or below the
        // observed one — and at most one bucket width above the true
        // handler value.
        let upper = client_q + client_q / 32 + 64;
        assert!(
            server_q <= upper,
            "p{pct}: server {server_q}us vs observed {client_q}us"
        );
        // Two-sided: the server quantile cannot sit implausibly far
        // below the observed percentile either — dispatch adds only
        // metrics/trace bookkeeping around the handler.
        assert!(
            server_q + server_q / 2 + 1_000 >= client_q,
            "p{pct}: server {server_q}us implausibly below observed {client_q}us"
        );
    }

    let elapsed_sum: u64 = observed.iter().sum();
    assert!(
        histogram.sum() <= elapsed_sum,
        "handler time must fit inside dispatch wall time"
    );
}
