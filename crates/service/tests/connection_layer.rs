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
//! * One body path: every response — the largest `/codegen` included,
//!   also when every socket write is cut short — is one
//!   `Content-Length` buffer on a connection that stays usable, and N
//!   jobs are N `/execute`s pipelined on one connection, each answered
//!   as soon as it finishes.
//! * A kill on a response's first write — the worker's — aborts that
//!   connection alone, counted once, and the next connection is served
//!   as if nothing happened.

mod common;

use an5d::{
    An5d, BatchDriver, BatchJob, BlockConfig, GpuDevice, GridInit, Precision, SearchSpace,
    SerialBackend,
};
use an5d_fault::{FaultAction, FaultPlan, Trigger};
use an5d_service::{api, client, Json, ServerConfig};
use common::{metric, park, post_request, read_head, read_response, send_raw, server, shutdown};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

const PARKED: usize = 200;
const IN_FLIGHT: usize = 6;

/// One test at a time: the two parked-mass tests together would hold
/// 2 × 600 sockets — past the default descriptor limit — and the
/// shutdown test's queued `/execute`s would sit in the soak's latency
/// tail; the others install process-wide fault plans.
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

/// Install a seed-1 plan whose one rule acts at `point`.
fn install_rule(point: &str, action: FaultAction, limit: Option<u64>) {
    an5d_fault::install(FaultPlan::new(1).rule(point, action, Trigger::Always, limit));
}

fn small_server() -> an5d_service::Server {
    server(ServerConfig {
        workers: 2,
        queue_depth: 64,
        cache_capacity: 64,
        ..ServerConfig::default()
    })
}

const CODEGEN_BODY: &str = r#"{"benchmark":"star2d1r","interior":[128,128],"steps":16,
    "config":{"bt":4,"bs":[64],"hsn":64,"precision":"single"}}"#;

const EXECUTE_BODY: &str = r#"{"benchmark":"j2d5pt","interior":[24,24],"steps":5,
    "config":{"bt":2,"bs":[12],"precision":"double"}}"#;

const TUNE_BODY: &str = r#"{"benchmark":"j2d5pt","interior":[512,512],"steps":50,
    "device":"v100","precision":"single","space":"quick"}"#;

/// The largest body the service can produce: 257,603 bytes of CUDA —
/// many socket-buffer fills.
const LARGEST_CODEGEN_BODY: &str = r#"{"benchmark":"box2d4r","interior":[2048,2048],"steps":16,
    "config":{"bt":16,"bs":[256],"hsn":256,"precision":"double"}}"#;

fn raw_post(addr: SocketAddr, path: &str, body: &str) -> TcpStream {
    send_raw(addr, &post_request(path, body, true))
}

fn assert_sent_whole(head: &str) {
    let lower = head.to_ascii_lowercase();
    assert!(lower.starts_with("http/1.1 200"), "{head}");
    assert!(lower.contains("content-length: "), "{head}");
    assert!(!lower.contains("transfer-encoding"), "{head}");
}

#[test]
fn the_largest_body_arrives_whole_on_a_connection_that_stays_usable() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    an5d_fault::uninstall();
    let server = small_server();
    let addr = server.addr();

    let pipeline = An5d::benchmark("box2d4r").unwrap();
    let problem = pipeline.problem(&[2048, 2048], 16).unwrap();
    let config = BlockConfig::new(16, &[256], Some(256), Precision::Double).unwrap();
    let code = pipeline.generate_cuda(&problem, &config).unwrap();
    let expected = api::codegen_response(&code).render();
    assert!(expected.len() > 250_000, "{} bytes", expected.len());
    let (_, small) = client::post(addr, "/execute", EXECUTE_BODY).expect("/execute");

    // Once plainly, once with every socket write capped at 4 KiB: the
    // response then drains through the resumable `POLLOUT` path in ~63
    // pieces.
    for capped in [false, true] {
        if capped {
            install_rule("reactor.write", FaultAction::Short(4096), None);
        }
        let mut stream = send_raw(addr, &post_request("/codegen", LARGEST_CODEGEN_BODY, false));
        let (head, body) = read_response(&mut stream);
        assert_sent_whole(&head);
        assert!(body == expected, "capped {capped}: /codegen bytes differ");

        // The kept-alive connection serves a second request.
        let reused_before = server.reused_requests();
        stream
            .write_all(post_request("/execute", EXECUTE_BODY, true).as_bytes())
            .expect("second request");
        let (head, body) = read_response(&mut stream);
        assert_sent_whole(&head);
        assert_eq!(body, small, "capped {capped}");
        assert_eq!(
            server.reused_requests(),
            reused_before + 1,
            "capped {capped}"
        );

        if capped {
            let short_writes = an5d_fault::fired("reactor.write");
            assert!(short_writes >= 60, "only {short_writes} short writes");
            an5d_fault::uninstall();
        }
    }

    shutdown(server);
}

#[test]
fn a_kill_on_the_first_write_aborts_one_connection_and_no_more() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    an5d_fault::uninstall();
    let server = small_server();
    let addr = server.addr();
    let aborted = || {
        let (status, text) = client::get(addr, "/metrics").expect("/metrics");
        assert_eq!(status, 200);
        metric(&text, "an5d_connections_aborted", &[]).expect("aborted counter")
    };
    let (status, expected) = client::post(addr, "/codegen", CODEGEN_BODY).expect("/codegen");
    assert_eq!(status, 200, "{expected}");
    let aborted_before = aborted();

    // The first write of the next response is the worker's; kill it.
    install_rule("reactor.write", FaultAction::Error, Some(1));
    let mut stream = raw_post(addr, "/codegen", CODEGEN_BODY);
    let mut got = Vec::new();
    stream.read_to_end(&mut got).expect("EOF, not a reset");
    assert_eq!(an5d_fault::fired("reactor.write"), 1);
    an5d_fault::uninstall();
    assert!(
        got.is_empty(),
        "a killed write sent {} bytes: {:?}",
        got.len(),
        String::from_utf8_lossy(&got[..got.len().min(80)])
    );
    assert_eq!(aborted(), aborted_before + 1, "one kill, one abort");

    // A new connection is served byte for byte.
    let mut stream = raw_post(addr, "/codegen", CODEGEN_BODY);
    let (head, body) = read_response(&mut stream);
    assert_sent_whole(&head);
    assert_eq!(body, expected);
    assert_eq!(aborted(), aborted_before + 1, "no further abort");

    shutdown(server);
}

#[test]
fn a_leftover_stream_parameter_changes_nothing() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    an5d_fault::uninstall();
    let server = small_server();
    let addr = server.addr();

    // The spellings that used to select the other body path.
    for (path, body) in [("/codegen", CODEGEN_BODY), ("/execute", EXECUTE_BODY)] {
        let (status, plain) = client::post(addr, path, body).expect("plain request");
        assert_eq!(status, 200, "{path}: {plain}");
        let mut stream = raw_post(addr, &format!("{path}?stream=true"), body);
        let (head, flagged) = read_response(&mut stream);
        assert_sent_whole(&head);
        assert_eq!(flagged, plain, "{path}");
    }
    // The endpoint that streamed is gone.
    let jobs = format!(r#"{{"jobs":[{EXECUTE_BODY}]}}"#);
    let head = read_head(&mut raw_post(addr, "/batch", &jobs));
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    assert!(
        !head.to_ascii_lowercase().contains("transfer-encoding"),
        "{head}"
    );

    shutdown(server);
}

#[test]
fn a_pipelined_job_is_answered_before_the_next_one_finishes() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    an5d_fault::uninstall();
    // Both bodies from direct facade calls, before the fault plan that
    // would slow the facade's own tuner is installed.
    let execute = {
        let def = an5d::suite::by_name("j2d5pt").unwrap();
        let config = BlockConfig::new(2, &[12], None, Precision::Double).unwrap();
        let job =
            BatchJob::new(def, &[24, 24], 5, config).with_init(GridInit::Hash { seed: 0x5EED });
        let outcome = BatchDriver::new(Arc::new(SerialBackend))
            .run_job(&job)
            .unwrap();
        api::execute_response(&outcome).render()
    };
    let tune = {
        let pipeline = An5d::benchmark("j2d5pt").unwrap();
        let problem = pipeline.problem(&[512, 512], 50).unwrap();
        let space = SearchSpace::quick(2, Precision::Single);
        let result = pipeline
            .tune(&problem, &GpuDevice::tesla_v100(), &space)
            .unwrap();
        api::tune_response(&result).render()
    };
    let server = small_server();
    let addr = server.addr();

    // The `/tune` behind the `/execute` stalls 600 ms on its first
    // candidate. Had the server held the first answer back until the
    // second was ready, it could not arrive 300 ms before the second.
    install_rule(
        "tuner.candidate",
        FaultAction::Delay(Duration::from_millis(600)),
        Some(1),
    );
    let pipelined =
        post_request("/execute", EXECUTE_BODY, false) + &post_request("/tune", TUNE_BODY, true);
    let mut stream = send_raw(addr, &pipelined);
    let (head, first) = read_response(&mut stream);
    let first_at = Instant::now();
    assert_sent_whole(&head);
    let (head, second) = read_response(&mut stream);
    let gap = first_at.elapsed();
    assert_sent_whole(&head);
    an5d_fault::uninstall();

    assert_eq!(first, execute, "/execute bytes diverged from the facade");
    assert_eq!(second, tune, "/tune bytes diverged from the facade");
    assert!(
        gap >= Duration::from_millis(300),
        "/execute arrived only {gap:?} before /tune ended"
    );

    shutdown(server);
}
