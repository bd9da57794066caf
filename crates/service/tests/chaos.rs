//! Chaos soak: the server under a seeded fault plan — connection kills
//! on read, short writes, tune-DB append failures, stretched tuner
//! candidates — while 200 connections sit parked and retry-enabled
//! clients replay a mixed workload, a deterministic ~1-in-8 of the
//! requests carrying a random `x-an5d-deadline-ms` budget.
//!
//! The robustness contract: every `200` is byte-identical to the
//! fault-free answer, every request terminates as `200`/`503`/`504`
//! within the client's retry budget, every `504` body is structured,
//! and the injected-fault ledger reconciles with `/metrics`.
//!
//! The fault plan is process-wide, so this test has a binary to itself.

mod common;

use an5d::SerialBackend;
use an5d_service::{client, dispatch, Json, Request, ServerConfig, ServiceState};
use common::{metric, server, shutdown, TempDb};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 42;
const SOAK: Duration = Duration::from_secs(3);
const PARKED: usize = 200;
const CLIENTS: usize = 4;
const DEVICES: [&str; 4] = ["a100", "p100", "small", "v100"];

/// One kind of request plus the exact bytes a `200` must carry.
struct Template {
    path: &'static str,
    body: String,
    expected: String,
}

/// The mixed workload: every pipeline endpoint, 2D and 3D, the
/// device-specific ones once per device. Expected bodies come from
/// dispatching on a fresh state *before* the server installs the fault
/// plan (`dispatch` ≡ facade is what `service_integration` and the
/// `serve` workload of `benchmark/` assert).
fn templates() -> Vec<Template> {
    let source = an5d::An5d::benchmark("star2d1r").unwrap().c_source();
    let parse = Json::obj(vec![
        ("source", Json::str(&source)),
        ("name", Json::str("star2d1r")),
    ]);
    let mut requests = vec![("/parse", parse.render())];
    let flat = r#""benchmark":"star2d1r","interior":[256,256],"steps":32,
                  "config":{"bt":4,"bs":[64],"hsn":64,"precision":"single"}"#;
    let cube = r#""benchmark":"star3d1r","interior":[64,64,64],"steps":8,
                  "config":{"bt":2,"bs":[16,16],"precision":"double"}"#;
    requests.push(("/plan", format!("{{{flat}}}")));
    requests.push(("/codegen", format!("{{{flat}}}")));
    requests.push(("/plan", format!("{{{cube}}}")));
    for device in DEVICES {
        requests.push((
            "/tune",
            format!(
                r#"{{"benchmark":"j2d5pt","interior":[512,512],"steps":50,
                     "device":"{device}","precision":"single","space":"quick"}}"#
            ),
        ));
        requests.push(("/predict", format!(r#"{{"device":"{device}",{flat}}}"#)));
        requests.push(("/predict", format!(r#"{{"device":"{device}",{cube}}}"#)));
    }
    for (benchmark, extent, steps, bt, bs) in [("j2d5pt", 24, 5, 2, 12), ("box2d1r", 20, 4, 1, 10)]
    {
        requests.push((
            "/execute",
            format!(
                r#"{{"benchmark":"{benchmark}","interior":[{extent},{extent}],"steps":{steps},
                     "config":{{"bt":{bt},"bs":[{bs}],"precision":"double"}}}}"#
            ),
        ));
    }

    let oracle = ServiceState::new(Arc::new(SerialBackend), 64);
    requests
        .into_iter()
        .map(|(path, body)| {
            let response = dispatch(&oracle, &Request::new("POST", path, body.as_bytes()));
            assert_eq!(response.status, 200, "{path}: {}", response.body);
            Template {
                path,
                expected: response.body,
                body,
            }
        })
        .collect()
}

/// What the clients saw, summed over all of them. Every request must
/// land in exactly one terminal bucket — `unterminated` is a contract
/// breach.
#[derive(Default)]
struct Tally {
    ok_200: AtomicU64,
    shed_503: AtomicU64,
    expired_504: AtomicU64,
    byte_mismatches: AtomicU64,
    unterminated: AtomicU64,
}

/// SplitMix64 — the scrambler the fault plan uses, so the deadline
/// rolls are reproducible from the seed.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn policy(token: u64) -> client::RetryPolicy {
    client::RetryPolicy {
        budget: 8,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(100),
        seed: SEED ^ token,
        retry_on_503: false,
    }
}

#[test]
fn seeded_faults_never_corrupt_a_response_and_reconcile_with_the_metrics() {
    let templates = templates();
    // One rule per point (the plan consults the first match): kill
    // roughly one read in 400 (connection aborts), truncate one write
    // in 23 to 512 bytes (exercising the reactor's resumable-write
    // path), fail one tune-DB append in 3, and stretch one tuner
    // candidate in 7 by 15 ms — enough to push short-budget `/tune`
    // requests into mid-sweep deadline expiry (504).
    let spec = format!(
        "seed={SEED};reactor.read=error@1/401;reactor.write=short:512@1/23;\
         tunedb.append=error@1/3;tuner.candidate=delay:15@1/7"
    );
    let db = TempDb::new("chaos");
    let server = server(ServerConfig {
        workers: 4,
        queue_depth: 256,
        cache_capacity: 256,
        keep_alive_timeout: SOAK + Duration::from_secs(60),
        max_requests_per_connection: 1_000_000,
        tune_db: db.config(),
        faults: Some(spec),
        ..ServerConfig::default()
    });
    let addr = server.addr();

    // Ramp: parked connections ride out the whole soak; each completes
    // one (retried if necessary) request on the way in.
    let parse = &templates[0];
    let parked: Vec<client::KeepAliveClient> = (0..PARKED as u64)
        .map(|index| {
            let mut conn = client::KeepAliveClient::new(addr).with_retry(policy(0x5EED ^ index));
            let (status, body) = conn
                .post(parse.path, &parse.body)
                .unwrap_or_else(|e| panic!("ramp connection {index}: {e}"));
            assert_eq!(status, 200, "ramp connection {index}: {body}");
            assert_eq!(body, parse.expected, "ramp connection {index}");
            conn
        })
        .collect();

    // Soak: every client hammers the template mix until the deadline,
    // reconnecting (bounded) when the plan kills its connection
    // mid-response.
    let soak_deadline = Instant::now() + SOAK;
    let tally = Tally::default();
    std::thread::scope(|scope| {
        for client_id in 0..CLIENTS as u64 {
            let (templates, tally) = (&templates, &tally);
            scope.spawn(move || {
                let mut reconnects = 0u64;
                let mut conn = client::KeepAliveClient::new(addr).with_retry(policy(client_id));
                let mut index: u64 = 0;
                while Instant::now() < soak_deadline {
                    let template = &templates[usize::try_from(index).unwrap() % templates.len()];
                    // Deterministic deadline roll: ~1 in 8 requests gets
                    // a budget from {0, 15, 60, 5000} ms. 0 ms is a
                    // guaranteed admission shed (503); the short budgets
                    // probe mid-processing expiry (504) on the heavy
                    // endpoints.
                    let roll = splitmix64(SEED ^ (client_id << 40) ^ index);
                    let request_deadline = roll
                        .is_multiple_of(8)
                        .then(|| [0u64, 15, 60, 5_000][usize::try_from(roll >> 8).unwrap() % 4]);
                    conn.set_deadline_ms(request_deadline);

                    // A mid-response connection kill surfaces as an error
                    // the retry policy correctly refuses to retry (the
                    // request may have executed); the harness reconnects
                    // and re-sends — templates are idempotent by
                    // construction — with a small bound so a wedged
                    // server cannot hang the soak.
                    let mut outcome = None;
                    for _ in 0..5 {
                        match conn.post(template.path, &template.body) {
                            Ok(reply) => {
                                outcome = Some(reply);
                                break;
                            }
                            Err(_) => {
                                reconnects += 1;
                                conn = client::KeepAliveClient::new(addr)
                                    .with_retry(policy(client_id ^ reconnects << 8));
                                conn.set_deadline_ms(request_deadline);
                            }
                        }
                    }
                    let path = template.path;
                    let bucket = match outcome {
                        Some((200, body)) if body == template.expected => &tally.ok_200,
                        Some((200, _)) => &tally.byte_mismatches,
                        Some((503, _)) => &tally.shed_503,
                        Some((504, body)) => {
                            assert!(
                                body.contains("\"deadline_exceeded\":true"),
                                "client {client_id} {path}: 504 without a structured body: {body}"
                            );
                            &tally.expired_504
                        }
                        Some((status, body)) => {
                            panic!("client {client_id} {path}: unexpected status {status}: {body}")
                        }
                        None => &tally.unterminated,
                    };
                    bucket.fetch_add(1, Relaxed);
                    index += 1;
                }
            });
        }
    });
    let (ok_200, shed_503) = (tally.ok_200.into_inner(), tally.shed_503.into_inner());
    let expired_504 = tally.expired_504.into_inner();

    // Read the injected-fault ledger BEFORE uninstalling (the free
    // functions read through the installed plan), then uninstall so the
    // final scrape and shutdown run fault-free.
    let read_kills = an5d_fault::fired("reactor.read");
    let short_writes = an5d_fault::fired("reactor.write");
    let append_failures = an5d_fault::fired("tunedb.append");
    an5d_fault::uninstall();
    println!(
        "chaos: {ok_200} ok, {shed_503} shed, {expired_504} expired; injected {read_kills} \
         connection kills, {short_writes} short writes, {append_failures} tune-DB append failures"
    );

    assert!(ok_200 > 0, "the soak completed no request");
    assert_eq!(
        tally.byte_mismatches.into_inner(),
        0,
        "200-responses diverged from the fault-free bytes ({ok_200} did not)"
    );
    assert_eq!(
        tally.unterminated.into_inner(),
        0,
        "requests that never reached a terminal 200/503/504 within the retry budget"
    );
    assert!(
        read_kills + short_writes + append_failures > 0,
        "the plan never fired — the soak was vacuous"
    );

    // Reconcile with the server's books: every injected kill must be an
    // accounted abort, every injected append failure a counted one.
    let (status, text) = client::get(addr, "/metrics").expect("/metrics after chaos");
    assert_eq!(status, 200);
    let counted = |family: &str| metric(&text, family, &[]).unwrap_or_else(|| panic!("{family}"));
    let aborted = counted("an5d_connections_aborted");
    assert!(
        aborted >= read_kills,
        "an5d_connections_aborted {aborted} < {read_kills} injected connection kills"
    );
    let append_counted = counted("an5d_tunedb_append_failures_total");
    assert!(
        append_counted >= append_failures,
        "an5d_tunedb_append_failures_total {append_counted} < {append_failures} injected"
    );
    let shed = counted("an5d_deadline_shed_total");
    assert!(
        shed >= shed_503.min(1),
        "clients saw {} 503 sheds but an5d_deadline_shed_total is {shed}",
        shed_503
    );

    shutdown(server);
    drop(parked);
}
