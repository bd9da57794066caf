//! Observability integration tests: the `GET /metrics` Prometheus
//! exposition, the `x-an5d-trace` → `GET /trace?id=` span-tree round
//! trip for a `/tune` request, the trace-ring eviction order, the
//! client↔server latency-percentile cross-check at dispatch level, the
//! parent-generated list of `/metrics` families and series
//! (`metrics_families.txt`), and the rule that makes the list cheap to
//! keep: a series registered once is visible in both views.

mod common;

use an5d::SerialBackend;
use an5d_service::{
    client, dispatch, parse_json, Json, Request, Server, ServerConfig, ServiceState,
};
use common::{metric, shutdown, stat, TempDb};
use std::sync::Arc;

fn start_server(tune_db: Option<&TempDb>) -> Server {
    common::server(ServerConfig {
        workers: 2,
        queue_depth: 16,
        cache_capacity: 64,
        tune_db: tune_db.and_then(TempDb::config),
        ..ServerConfig::default()
    })
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
    assert!(text.contains("an5d_pool_items_executed_total "), "{text}");
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

    shutdown(server);
}

#[test]
fn tune_trace_shows_nested_pipeline_spans() {
    let db = TempDb::new("tune-spans");
    let server = start_server(Some(&db));
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

    shutdown(server);
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

    let histogram = state.metrics().endpoint("/plan").latency.snapshot();
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

/// `GET` one of the two metrics views at dispatch level.
fn view(state: &ServiceState, path: &str) -> String {
    let response = dispatch(state, &Request::new("GET", path, b""));
    assert_eq!(response.status, 200);
    response.body
}

#[test]
fn metrics_families_and_series_match_the_parent_generated_list() {
    // The script `metrics_families.txt` was generated from, at the
    // parent of the commit that introduced the registry: /plan, /predict
    // and /tune on two devices, one /execute, one /codegen, one 400, a
    // tune DB attached.
    let db = TempDb::new("families");
    let tune_db = Arc::new(an5d::TuneDb::open(&db.0).unwrap());
    let state = ServiceState::new(Arc::new(SerialBackend), 64).with_tune_db(tune_db);
    let post = |target: &str, body: &str| {
        dispatch(&state, &Request::new("POST", target, body.as_bytes())).status
    };
    for device in ["v100", "p100"] {
        let planned = format!(
            r#"{{"benchmark":"j2d5pt","interior":[64,64],"steps":8,"device":"{device}",
                 "config":{{"bt":2,"bs":[32],"precision":"double"}}}}"#
        );
        assert_eq!(post("/plan", &planned), 200);
        assert_eq!(post("/predict", &planned), 200);
        let tune = format!(
            r#"{{"benchmark":"j2d5pt","interior":[512,512],"steps":50,"device":"{device}",
                 "precision":"single","space":"quick"}}"#
        );
        assert_eq!(post("/tune", &tune), 200);
    }
    let small = r#"{"benchmark":"j2d5pt","interior":[24,24],"steps":5,
                    "config":{"bt":2,"bs":[12],"precision":"double"}}"#;
    assert_eq!(post("/execute", small), 200);
    assert_eq!(post("/codegen", small), 200);
    assert_eq!(post("/plan", "{}"), 400);

    // `# HELP` / `# TYPE` lines whole; sample lines without their value,
    // those of one series that differ only in the view's own label folded
    // into one (`…_bucket{…,le="50|100|…|+Inf"}`); the one run-dependent
    // label value (the DB path) masked; sorted.
    let text = view(&state, "/metrics").replace(&db.0.display().to_string(), "<tune-db>");
    let mut lines: Vec<String> = Vec::new();
    for line in text.lines() {
        let series = match line.rsplit_once(' ') {
            Some((series, _)) if !line.starts_with('#') => series,
            _ => line,
        };
        let (head, value) = series.split_at(series.rfind("=\"").map_or(0, |at| at + 2));
        let folds = ["{le=\"", ",le=\"", "quantile=\""]
            .iter()
            .any(|label| head.ends_with(label));
        match lines
            .last_mut()
            .filter(|last| folds && last.starts_with(head))
        {
            Some(last) => {
                last.insert_str(last.len() - 2, &format!("|{}", &value[..value.len() - 2]))
            }
            None => lines.push(series.to_string()),
        }
    }
    lines.sort_unstable();
    let golden: Vec<&str> = include_str!("metrics_families.txt").lines().collect();
    let missing: Vec<&&str> = golden
        .iter()
        .filter(|l| !lines.contains(&(**l).to_string()))
        .collect();
    let added: Vec<&String> = lines
        .iter()
        .filter(|l| !golden.contains(&l.as_str()))
        .collect();
    assert!(
        missing.is_empty() && added.is_empty(),
        "/metrics drifted from metrics_families.txt\nmissing: {missing:#?}\nadded: {added:#?}"
    );
    assert_eq!(lines, golden, "same lines, same order");
}

#[test]
fn a_series_registered_once_is_visible_in_both_views() {
    let state = ServiceState::new(Arc::new(SerialBackend), 64);
    let plan = r#"{"benchmark":"star2d1r","interior":[32,32],"steps":4,
                   "config":{"bt":1,"bs":[16],"precision":"double"}}"#;
    assert_eq!(
        dispatch(&state, &Request::new("POST", "/plan", plan.as_bytes())).status,
        200
    );

    // Throw-away series of each kind, registered by "someone else".
    let registry = state.registry();
    let jobs = registry.counter("test_jobs_total", "Jobs.", &[("queue", "q1")]);
    jobs.add(7);
    registry.gauge("test_depth", "Depth.", &[]).set(3);
    let wall = registry.histogram("test_wall_us", "Wall.", &[("queue", "q1")]);
    wall.record(30);
    wall.record(20);

    let text = view(&state, "/metrics");
    let stats = parse_json(&view(&state, "/stats")).unwrap();
    let q1 = [("queue", "q1")];
    assert_eq!(metric(&text, "test_jobs_total", &q1), Some(7));
    assert_eq!(stat(&stats, "test_jobs_total", &q1), Some(7));
    assert_eq!(metric(&text, "test_depth", &[]), Some(3));
    assert_eq!(stat(&stats, "test_depth", &[]), Some(3));
    assert_eq!(metric(&text, "test_wall_us_count", &q1), Some(2));
    assert_eq!(metric(&text, "test_wall_us_sum", &q1), Some(50));
    assert_eq!(stat(&stats, "test_wall_us", &q1), Some(2));
    let wall_value = stats
        .get("test_wall_us")
        .and_then(|f| f.get("series"))
        .unwrap();
    assert_eq!(
        wall_value.as_array().unwrap()[0]
            .get("value")
            .unwrap()
            .render(),
        r#"{"count":2,"sum":50,"max":30,"p50":20,"p95":30,"p99":30,"p999":30}"#
    );

    // The two views list the same families, with the same types: a
    // family one of them skipped would show up here.
    let typed: Vec<(String, String)> = text
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .map(|rest| {
            let (name, kind) = rest.split_once(' ').unwrap();
            (name.to_string(), kind.to_string())
        })
        .collect();
    let Json::Obj(families) = &stats else {
        panic!("/stats is an object of families")
    };
    let listed: Vec<(String, String)> = families
        .iter()
        .map(|(name, family)| {
            let kind = family.get("type").and_then(Json::as_str).unwrap();
            (name.clone(), kind.to_string())
        })
        .collect();
    let only_in = |these: &[(String, String)], those: &[(String, String)]| -> Vec<String> {
        let missing = these.iter().filter(|family| !those.contains(family));
        missing
            .map(|(name, kind)| format!("{name} ({kind})"))
            .collect()
    };
    assert_eq!(
        (only_in(&typed, &listed), only_in(&listed, &typed)),
        (vec![], vec![]),
        "families only on /metrics, only on /stats"
    );
    assert_eq!(typed, listed, "same order too");
    assert!(typed.len() > 30, "the service's own families are there too");
    for (name, _) in &typed {
        let help = format!("# HELP {name} ");
        let in_text = text.lines().find_map(|line| line.strip_prefix(&help));
        let in_json = stats.get(name).and_then(|f| f.get("help"));
        assert_eq!(in_text, in_json.and_then(Json::as_str), "{name}");
    }
}
