//! End-to-end request-deadline contract:
//!
//! * a request whose `x-an5d-deadline-ms` budget has already expired at
//!   dispatch is shed with `503` + `Retry-After` **without occupying a
//!   worker**;
//! * a `/tune` whose budget is smaller than the sweep cost aborts
//!   mid-sweep and is answered `504` with a structured partial-progress
//!   body;
//! * a malformed deadline header is rejected with `400` (never silently
//!   ignored).
//!
//! The mid-sweep test installs a **process-global** fault plan (a
//! deterministic per-candidate delay stretches the sweep past the
//! budget), so these tests live in their own binary and serialize on a
//! local mutex.

mod common;

use an5d_service::{client, Server, ServerConfig};
use common::metric;
use std::sync::Mutex;

/// Serializes the tests that install (or must observe the absence of)
/// the process-global fault plan.
static GLOBAL_PLAN: Mutex<()> = Mutex::new(());

fn start_server() -> Server {
    common::server(ServerConfig {
        workers: 2,
        queue_depth: 16,
        cache_capacity: 16,
        ..ServerConfig::default()
    })
}

const PLAN_BODY: &str = r#"{"benchmark":"star2d1r","interior":[96,96],"steps":8,
                            "config":{"bt":2,"bs":[32],"precision":"double"}}"#;

#[test]
fn expired_at_admission_is_shed_with_503_and_retry_after_without_occupying_a_worker() {
    let _lock = GLOBAL_PLAN.lock().unwrap_or_else(|e| e.into_inner());
    an5d_fault::uninstall();
    let server = start_server();
    let addr = server.addr();

    // A 0 ms budget is stamped at header-parse time, so it is expired
    // with certainty by the time the reactor considers dispatching.
    let response =
        client::post_with_deadline(addr, "/plan", PLAN_BODY, 0).expect("shed response arrives");
    assert_eq!(response.status, 503, "{}", response.body);
    assert!(
        response.retry_after.is_some(),
        "deadline shed must carry Retry-After"
    );
    assert!(
        response.body.contains("deadline expired"),
        "{}",
        response.body
    );

    let metrics = server.state().metrics();
    assert_eq!(metrics.deadline_shed.get(), 1, "shed must be counted");
    // Never dispatched: the /plan handler saw zero requests, so no
    // worker time was spent on a request the client had abandoned.
    assert_eq!(
        metrics.endpoint("/plan").latency.count(),
        0,
        "an expired request must not reach a worker"
    );

    // The same request with a generous budget sails through — proving
    // the shed above was the deadline, not the request.
    let response =
        client::post_with_deadline(addr, "/plan", PLAN_BODY, 30_000).expect("healthy response");
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(metrics.endpoint("/plan").latency.count(), 1);

    // The shed is visible on /metrics for chaos harnesses to reconcile.
    let (status, metrics_text) = client::get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        metric(&metrics_text, "an5d_deadline_shed_total", &[]),
        Some(1),
        "/metrics must expose the shed counter"
    );

    server.stop();
}

#[test]
fn tune_with_a_short_deadline_returns_504_with_partial_progress() {
    let _lock = GLOBAL_PLAN.lock().unwrap_or_else(|e| e.into_inner());
    // Stretch the first two tuner candidates by 150 ms each: with a
    // 40 ms budget the request clears admission comfortably (an idle
    // server dispatches in well under 40 ms) but can never finish the
    // sweep — deterministic 504 regardless of host speed. The `#2`
    // fire limit keeps the already-expired tail of the sweep from
    // sleeping too (the checkpoint skips those candidates instantly).
    an5d_fault::install(
        an5d_fault::FaultPlan::parse("seed=1;tuner.candidate=delay:150#2").expect("valid plan"),
    );
    let server = start_server();
    let addr = server.addr();

    let body = r#"{"benchmark":"j2d5pt","interior":[256,256],"steps":50,
                   "device":"v100","precision":"single","space":"quick"}"#;
    let response =
        client::post_with_deadline(addr, "/tune", body, 40).expect("504 response arrives");
    an5d_fault::uninstall();

    assert_eq!(response.status, 504, "{}", response.body);
    // Structured partial-progress body: the uniform error field plus
    // how far the sweep got before the budget ran out.
    assert!(
        response.body.contains("\"deadline_exceeded\":true"),
        "{}",
        response.body
    );
    assert!(
        response.body.contains("\"completed\":"),
        "{}",
        response.body
    );
    assert!(response.body.contains("\"total\":"), "{}", response.body);
    assert!(
        response.body.contains("tuning deadline exceeded"),
        "{}",
        response.body
    );

    let metrics = server.state().metrics();
    assert!(
        metrics.deadline_expired.get() >= 1,
        "mid-processing expiry must be counted"
    );
    // This was a dispatched request that timed out, not an admission
    // shed.
    assert_eq!(metrics.deadline_shed.get(), 0);
    assert_eq!(metrics.endpoint("/tune").latency.count(), 1);
    assert_eq!(
        metrics.endpoint("/tune").errors.get(),
        1,
        "a 504 is an error on the endpoint's books"
    );

    server.stop();
}

#[test]
fn malformed_deadline_header_is_rejected_with_400() {
    let _lock = GLOBAL_PLAN.lock().unwrap_or_else(|e| e.into_inner());
    an5d_fault::uninstall();
    let server = start_server();
    let addr = server.addr();

    let request = format!(
        "POST /plan HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nx-an5d-deadline-ms: soon\r\nConnection: close\r\n\r\n{PLAN_BODY}",
        PLAN_BODY.len()
    );
    let (status, body) = client::raw(addr, &request).expect("400 response arrives");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("invalid x-an5d-deadline-ms"), "{body}");

    server.stop();
}
