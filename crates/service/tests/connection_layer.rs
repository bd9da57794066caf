//! The connection layer under a mass of idle keep-alive connections.
//!
//! * Shutdown regression: a `/shutdown` arriving while hundreds of
//!   keep-alive connections sit parked and several requests are in
//!   flight must (a) answer every in-flight request, (b) close every
//!   parked connection with a clean EOF — never counted as aborted — and
//!   (c) let `Server::wait()` return within a bounded time.
//! * Parked mass is free: with 400 connections parked in the reactor,
//!   the `/parse` latency of a few active clients stays within a bound
//!   of the low-connection baseline, and the gauges show the reactor —
//!   not the worker pool — holding the idle mass. 2 × 400 sockets (both
//!   ends live in this process) fit the default 1,024-descriptor limit.

mod common;

use an5d_service::{api, client, Json, ServerConfig};
use common::{metric, park, post_request, server, shutdown};
use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

const PARKED: usize = 200;
const IN_FLIGHT: usize = 6;

/// One test at a time: together the two would hold 2 × 600 sockets —
/// past the default descriptor limit — and the shutdown test's queued
/// `/execute`s would sit in the soak's latency tail.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

#[test]
fn shutdown_answers_in_flight_requests_and_cleanly_closes_parked_connections() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let server = server(ServerConfig {
        workers: 2,
        queue_depth: 64,
        cache_capacity: 64,
        // Long enough that no parked connection is reaped by the
        // idle timer mid-test: only shutdown may close them.
        keep_alive_timeout: Duration::from_secs(120),
        ..ServerConfig::default()
    });
    let addr = server.addr();

    // Park a few hundred idle keep-alive connections.
    let parked: Vec<TcpStream> = (0..PARKED)
        .map(|_| park(addr, "GET /devices HTTP/1.1\r\n\r\n").0)
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = server.state().metrics().connections.snapshot();
        if snap.parked >= PARKED as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {} of {PARKED} connections parked",
            snap.parked
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Launch in-flight work, then shut down while it is executing: with
    // 2 workers most of these sit in the dispatch queue, which shutdown
    // must drain, not drop.
    let body = r#"{"benchmark":"j2d5pt","interior":[128,128],"steps":12,
                   "config":{"bt":2,"bs":[48],"precision":"double"}}"#;
    let barrier = Arc::new(Barrier::new(IN_FLIGHT + 1));
    let in_flight: Vec<_> = (0..IN_FLIGHT)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                client::post(addr, "/execute", body)
            })
        })
        .collect();
    barrier.wait();
    std::thread::sleep(Duration::from_millis(30));

    let shutdown_at = Instant::now();
    let (status, _) = client::post(addr, "/shutdown", "").expect("shutdown request");
    assert_eq!(status, 200);

    // Every in-flight request is answered in full.
    for (index, thread) in in_flight.into_iter().enumerate() {
        let (status, body) = thread
            .join()
            .unwrap()
            .unwrap_or_else(|e| panic!("in-flight request {index} dropped: {e}"));
        assert_eq!(status, 200, "in-flight request {index}: {body}");
        assert!(body.contains("\"checksum\""), "in-flight request {index}");
    }

    // The reactor sweeps the parked set: open connections reach zero
    // and none of the closes count as aborted (the streams were idle
    // between requests — clean closes by definition).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = server.state().metrics().connections.snapshot();
        if snap.open == 0 {
            assert_eq!(snap.parked, 0, "parked gauge must drain with open");
            assert_eq!(
                snap.aborted, 0,
                "shutdown closes are orderly, never aborted"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "shutdown left {} connections open ({} parked)",
            snap.open,
            snap.parked
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // wait() must join reactor + workers within a bounded time.
    let done = Arc::new(AtomicBool::new(false));
    let waiter = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            server.wait();
            done.store(true, Ordering::SeqCst);
        })
    };
    let join_deadline = Instant::now() + Duration::from_secs(10);
    while !done.load(Ordering::SeqCst) {
        assert!(
            Instant::now() < join_deadline,
            "Server::wait() did not return within 10s of shutdown"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    waiter.join().unwrap();
    assert!(
        shutdown_at.elapsed() < Duration::from_secs(25),
        "shutdown took {:?}",
        shutdown_at.elapsed()
    );

    // Every parked socket sees EOF, not an error and not a hang.
    for (index, mut stream) in parked.into_iter().enumerate() {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut sink = [0u8; 16];
        match stream.read(&mut sink) {
            Ok(0) => {}
            Ok(n) => panic!("parked connection {index}: unexpected {n} bytes after shutdown"),
            Err(e) => panic!("parked connection {index}: expected clean EOF, got {e}"),
        }
    }
}

/// Nearest-rank 99th percentile, microseconds.
fn p99(series: &mut [u64]) -> u64 {
    assert!(!series.is_empty());
    series.sort_unstable();
    series[(99 * series.len()).div_ceil(100) - 1]
}

#[test]
fn four_hundred_parked_connections_do_not_slow_the_active_ones() {
    const CONNECTIONS: usize = 400;
    const WORKERS: usize = 4;
    const CLIENTS: usize = 4;
    const SOAK: Duration = Duration::from_secs(2);
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());

    let server = server(ServerConfig {
        workers: WORKERS,
        queue_depth: 1024,
        cache_capacity: 64,
        // Parked connections must survive the whole soak: only the
        // final shutdown may close them.
        keep_alive_timeout: Duration::from_secs(120),
        max_requests_per_connection: 1_000_000,
        ..ServerConfig::default()
    });
    let addr = server.addr();

    // /parse is cheap and pure, so per-connection overhead is a visible
    // share of its latency; the facade computes the bytes it must return.
    let source = an5d::An5d::benchmark("star2d1r").unwrap().c_source();
    let expected = {
        let detected = an5d::parse_stencil(&source, "star2d1r").unwrap();
        api::parse_response(&detected).render()
    };
    let body = Json::obj(vec![
        ("source", Json::str(&source)),
        ("name", Json::str("star2d1r")),
    ])
    .render();
    let timed_parse = |conn: &mut client::KeepAliveClient| {
        let sent = Instant::now();
        let (status, got) = conn.post("/parse", &body).expect("/parse round trip");
        let micros = u64::try_from(sent.elapsed().as_micros()).unwrap();
        assert_eq!(status, 200, "{got}");
        assert_eq!(got, expected, "/parse bytes diverged from the facade");
        micros
    };

    // Baseline: round-trip latency with almost no connections open.
    let mut baseline: Vec<u64> = {
        let mut conn = client::KeepAliveClient::new(addr);
        (0..200).map(|_| timed_parse(&mut conn)).collect()
    };
    let p99_base = p99(&mut baseline);

    // Ramp: every connection completes one byte-checked request, then
    // sits idle — the reactor must park it for the duration.
    let request = post_request("/parse", &body, false);
    let parked: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|index| {
            let (stream, got) = park(addr, &request);
            assert_eq!(got, expected, "ramp connection {index}");
            stream
        })
        .collect();

    // Soak: active clients hammer /parse while the main thread reads the
    // connection gauges mid-soak.
    let deadline = Instant::now() + SOAK;
    let soak: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut conn = client::KeepAliveClient::new(addr);
                let mut series = Vec::new();
                while Instant::now() < deadline {
                    series.push(timed_parse(&mut conn));
                }
                soak.lock().unwrap().append(&mut series);
            });
        }
        std::thread::sleep(SOAK / 2);
        let (status, text) = client::get(addr, "/metrics").expect("/metrics mid-soak");
        assert_eq!(status, 200);
        let gauge = |name: &str| metric(&text, name, &[]).unwrap_or_else(|| panic!("{name}"));
        let (open, idle) = (
            gauge("an5d_connections_open"),
            gauge("an5d_connections_parked"),
        );
        assert!(open >= CONNECTIONS as u64, "mid-soak only {open} open");
        assert!(
            idle >= (CONNECTIONS - WORKERS) as u64,
            "mid-soak only {idle} parked: the reactor, not the worker pool, must hold the \
             idle mass"
        );
        assert_eq!(gauge("an5d_connections_active"), open - idle);
    });

    // Idle parked connections must be nearly free: generous headroom for
    // scheduler noise, but a reactor that scans or wakes per connection
    // blows straight through this bound.
    let mut soak = soak.into_inner().unwrap();
    let p99_soak = p99(&mut soak);
    let bound = (10 * p99_base).max(p99_base + 25_000);
    assert!(
        p99_soak <= bound,
        "soak p99 {p99_soak}us exceeds {bound}us (baseline p99 {p99_base}us) over {} requests: \
         {CONNECTIONS} parked connections are not free",
        soak.len()
    );

    shutdown(server);
    drop(parked);
}
