//! `load_gen`: hammer an in-process `an5d-serve` with mixed
//! tune/plan/predict/codegen/execute traffic from concurrent clients and
//! assert every response is **bit-identical** to a direct `An5d` facade
//! call.
//!
//! ```text
//! load_gen [--requests N] [--clients N] [--server-workers N]
//!          [--backend SPEC] [--device NAME]
//!          [--keep-alive | --no-keep-alive]
//!          [--tune-db PATH] [--json PATH]
//!          [--connections N [--soak SECS]]
//!          [--chaos [--fault-seed N]]
//!          [--batch]
//! ```
//!
//! `--backend SPEC` (`serial`, `vector[:threads]`)
//! selects the execution backend the in-process server runs `/execute`
//! on; an unknown spec is a startup error. Backends are semantically
//! transparent, so the byte-identity assertions are unchanged — the
//! expected bytes still come from direct serial facade calls, and every
//! `200` must match them no matter which backend served it.
//!
//! `--chaos` replaces the byte-identity phases with a **chaos soak**: the
//! in-process server starts with a seeded fault plan (random connection
//! kills, short writes, tune-DB append failures) while retry-enabled
//! clients replay the full template mix, a deterministic ~1-in-8 of the
//! requests carrying a random `x-an5d-deadline-ms` budget. The soak then
//! asserts the robustness contract: zero byte mismatches on every `200`,
//! every request terminates as `200`/`503`/`504` within the client's
//! retry budget, every injected connection kill is accounted for in
//! `an5d_connections_aborted`, and every injected append failure in
//! `an5d_tunedb_append_failures_total`. Quality-gate violations are
//! collected (not panicked) so the run still writes its `--json`
//! artifact — and then **exits non-zero**.
//!
//! `--batch` runs the **streaming smoke** instead of the byte-identity
//! phases: against a server whose fault plan delays every chunk pull by
//! a fixed amount (making production time dominate and measurable), a
//! large `/codegen?stream=1` body must reassemble byte-identical to the
//! buffered response with a time-to-first-byte far below the total
//! response time — proof the first chunk hit the wire before the body
//! existed — and a streamed `/batch` NDJSON body must match its
//! `?stream=0` twin line for line. The run then greps `/metrics` for
//! the `an5d_stream_{chunks,bytes}_total` counters and the
//! `an5d_stream_ttfb_us` histogram. Violations are collected via
//! [`soft_assert`] and turn the exit code non-zero.
//!
//! `--connections N` adds an **open-connection soak** after the mixed
//! workload: against a fresh server, a low-connection baseline of
//! `/parse` round-trips is measured, then N keep-alive connections are
//! opened and parked idle (each completes one request) while a small
//! active subset keeps hammering `/parse` for `--soak SECS`. Mid-soak
//! the run greps `/metrics` for the `an5d_connections_{open,parked,
//! active}` gauges and asserts parked ≥ connections − workers — the
//! reactor, not the worker pool, is holding the idle mass — and that the
//! active p99 stays within a bound of the baseline p99 (idle parked
//! connections must be nearly free). The `--json` report grows a
//! `"soak"` object with both percentile sets and the observed gauges.
//!
//! `--json PATH` writes a machine-readable run report (per-endpoint
//! client-side p50/p95/p99 latency, request rate, server-side error
//! counts) and cross-checks the client-observed percentiles against the
//! server's `/metrics` latency histograms: the server-side quantile
//! (which excludes network and queueing time) must not exceed the
//! client-side one by more than the histogram's bucket resolution.
//!
//! With `--tune-db` the in-process server persists tuning results to
//! `PATH`: a first run against a fresh file seeds it (and asserts
//! records were written); a rerun against the same file asserts a
//! **warm start** — nonzero per-device warm counts, `/tune` answered
//! from the DB, and zero tuner invocations on warmed devices — while
//! the byte-identity assertion against direct facade calls keeps
//! holding for every DB-served response.
//!
//! Device-parameterized traffic (`/tune`, `/predict`) exercises the
//! service's device fleet: with `--device` every such request
//! targets one registered profile; without it the workload round-robins
//! across the whole fleet (one template per registered device), and the
//! report breaks latency out per device (p50/p95/p99).
//!
//! Defaults (120 requests across 4 clients, keep-alive on) satisfy the
//! acceptance bar of ≥ 100 mixed requests over ≥ 4 concurrent clients.
//! Exits non-zero (panics) on any status or byte mismatch.

use an5d::{
    create_backend, generate_cuda_for_plan, predict, standard_registry, An5d, BatchDriver,
    BatchJob, BlockConfig, ExecutionBackend, GpuDevice, GridInit, Precision, SearchSpace,
    SerialBackend,
};
use an5d_service::{api, client, parse_json, Server, ServerConfig};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One kind of request plus the exact bytes the server must answer.
struct Template {
    path: &'static str,
    /// Canonical device id for device-parameterized requests (`/tune`,
    /// `/predict`); `None` for device-agnostic traffic.
    device: Option<String>,
    body: String,
    expected: String,
}

impl Template {
    fn label(&self) -> String {
        match &self.device {
            Some(device) => format!("{}@{device}", self.path),
            None => self.path.to_string(),
        }
    }
}

/// The mixed workload: every endpoint, several stencils and configs,
/// and — for the device-parameterized endpoints — one template per
/// target device, so stepping through the list round-robins the fleet.
/// Expected bodies come from direct facade calls with fresh (uncached)
/// state — the server must reproduce them byte-for-byte through its
/// plan cache and worker pool.
fn templates(targets: &[(String, GpuDevice)]) -> Vec<Template> {
    let mut out = Vec::new();

    // /parse — the cheap, pure-frontend endpoint. Deterministic (the
    // response depends only on the source text), and light enough that
    // per-connection overhead is a visible fraction of its latency —
    // which is exactly what the keep-alive comparison needs.
    {
        let pipeline = An5d::benchmark("star2d1r").unwrap();
        let source = pipeline.c_source();
        let detected = an5d::parse_stencil(&source, "star2d1r").unwrap();
        let body = an5d_service::Json::obj(vec![
            ("source", an5d_service::Json::str(&source)),
            ("name", an5d_service::Json::str("star2d1r")),
        ])
        .render();
        out.push(Template {
            path: "/parse",
            device: None,
            body,
            expected: api::parse_response(&detected).render(),
        });
    }

    // /tune — the expensive, device-specific query the fleet and its
    // tune DB exist for: one template per target device.
    {
        let pipeline = An5d::benchmark("j2d5pt").unwrap();
        let problem = pipeline.problem(&[512, 512], 50).unwrap();
        let space = SearchSpace::quick(2, Precision::Single);
        for (id, device) in targets {
            let result = pipeline.tune(&problem, device, &space).unwrap();
            out.push(Template {
                path: "/tune",
                device: Some(id.clone()),
                body: format!(
                    r#"{{"benchmark":"j2d5pt","interior":[512,512],"steps":50,
                         "device":"{id}","precision":"single","space":"quick"}}"#
                ),
                expected: api::tune_response(&result).render(),
            });
        }
    }

    // /plan + /codegen (device-agnostic) and /predict per target device
    // for one 2D configuration — all six share one plan key…
    {
        let pipeline = An5d::benchmark("star2d1r").unwrap();
        let problem = pipeline.problem(&[256, 256], 32).unwrap();
        let config = BlockConfig::new(4, &[64], Some(64), Precision::Single).unwrap();
        let plan = pipeline.plan(&problem, &config).unwrap();
        let request = r#"{"benchmark":"star2d1r","interior":[256,256],"steps":32,
                          "config":{"bt":4,"bs":[64],"hsn":64,"precision":"single"}}"#;
        out.push(Template {
            path: "/plan",
            device: None,
            body: request.to_string(),
            expected: api::plan_response(&plan).render(),
        });
        out.push(Template {
            path: "/codegen",
            device: None,
            body: request.to_string(),
            expected: api::codegen_response(&generate_cuda_for_plan(&plan)).render(),
        });
        for (id, device) in targets {
            out.push(Template {
                path: "/predict",
                device: Some(id.clone()),
                body: format!(
                    r#"{{"benchmark":"star2d1r","interior":[256,256],"steps":32,"device":"{id}",
                         "config":{{"bt":4,"bs":[64],"hsn":64,"precision":"single"}}}}"#
                ),
                expected: api::predict_response(&predict(&plan, &problem, device)).render(),
            });
        }
    }

    // …and a device-agnostic 3D /plan plus 3D /predict per target
    // device, so the fleet path is exercised for ndim=3 too.
    {
        let pipeline = An5d::benchmark("star3d1r").unwrap();
        let problem = pipeline.problem(&[64, 64, 64], 8).unwrap();
        let config = BlockConfig::new(2, &[16, 16], None, Precision::Double).unwrap();
        let plan = pipeline.plan(&problem, &config).unwrap();
        out.push(Template {
            path: "/plan",
            device: None,
            body: r#"{"benchmark":"star3d1r","interior":[64,64,64],"steps":8,
                      "config":{"bt":2,"bs":[16,16],"precision":"double"}}"#
                .to_string(),
            expected: api::plan_response(&plan).render(),
        });
        for (id, device) in targets {
            out.push(Template {
                path: "/predict",
                device: Some(id.clone()),
                body: format!(
                    r#"{{"benchmark":"star3d1r","interior":[64,64,64],"steps":8,"device":"{id}",
                         "config":{{"bt":2,"bs":[16,16],"precision":"double"}}}}"#
                ),
                expected: api::predict_response(&predict(&plan, &problem, device)).render(),
            });
        }
    }

    // /execute — functional runs with real grids (kept small).
    for (benchmark, interior, steps, bt, bs) in [
        ("j2d5pt", vec![24, 24], 5, 2, vec![12]),
        ("box2d1r", vec![20, 20], 4, 1, vec![10]),
    ] {
        let def = an5d::suite::by_name(benchmark).unwrap();
        let config = BlockConfig::new(bt, &bs, None, Precision::Double).unwrap();
        let job =
            BatchJob::new(def, &interior, steps, config).with_init(GridInit::Hash { seed: 0x5EED });
        let driver = BatchDriver::new(Arc::new(SerialBackend));
        let outcome = driver.run(&[job]).pop().unwrap().unwrap();
        let interior_json = format!(
            "[{}]",
            interior
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        );
        let bs_json = format!(
            "[{}]",
            bs.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        );
        out.push(Template {
            path: "/execute",
            device: None,
            body: format!(
                r#"{{"benchmark":"{benchmark}","interior":{interior_json},"steps":{steps},
                    "config":{{"bt":{bt},"bs":{bs_json},"precision":"double"}}}}"#
            ),
            expected: api::execute_response(&outcome).render(),
        });
    }

    out
}

struct Args {
    requests: usize,
    clients: usize,
    server_workers: usize,
    keep_alive: bool,
    /// The execution backend every in-process server (mixed workload,
    /// soak, chaos) runs on. Transparent by contract, so the
    /// byte-identity assertions hold for any registered spec.
    backend: Arc<dyn ExecutionBackend>,
    device: Option<String>,
    tune_db: Option<String>,
    json: Option<String>,
    /// Open-connection soak: how many keep-alive connections to hold
    /// open concurrently (0 disables the soak phase).
    connections: usize,
    /// Soak duration in seconds.
    soak: u64,
    /// Chaos mode: run ONLY the fault-injected soak (the fault plan
    /// would contaminate the byte-identity phases).
    chaos: bool,
    /// Seed for the chaos fault plan, request-deadline rolls and client
    /// retry jitter — same seed, same injected fault sequence.
    fault_seed: u64,
    /// Streaming smoke: run ONLY the `/codegen?stream=1` TTFB + `/batch`
    /// NDJSON checks (the per-chunk delay plan would contaminate the
    /// byte-identity phases' latency numbers).
    batch: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: load_gen [--requests N] [--clients N] [--server-workers N] \
         [--backend SPEC] [--device NAME] [--keep-alive | --no-keep-alive] \
         [--tune-db PATH] [--json PATH] [--connections N [--soak SECS]] \
         [--chaos [--fault-seed N]] [--batch]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        requests: 120,
        clients: 4,
        server_workers: 4,
        keep_alive: true,
        backend: Arc::new(SerialBackend),
        device: None,
        tune_db: None,
        json: None,
        connections: 0,
        soak: 10,
        chaos: false,
        fault_seed: 42,
        batch: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--keep-alive" => args.keep_alive = true,
            "--no-keep-alive" => args.keep_alive = false,
            "--chaos" => args.chaos = true,
            "--batch" => args.batch = true,
            "--fault-seed" => {
                let Some(value) = iter.next().and_then(|v| v.parse::<u64>().ok()) else {
                    usage();
                };
                args.fault_seed = value;
            }
            "--backend" => {
                let Some(value) = iter.next() else { usage() };
                let Some(backend) = create_backend(&value) else {
                    eprintln!(
                        "load_gen: unknown --backend {value:?}; registered: {}",
                        an5d::available_backends().join(", ")
                    );
                    std::process::exit(2);
                };
                args.backend = backend;
            }
            "--device" => {
                let Some(value) = iter.next() else { usage() };
                args.device = Some(value);
            }
            "--tune-db" => {
                let Some(value) = iter.next() else { usage() };
                args.tune_db = Some(value);
            }
            "--json" => {
                let Some(value) = iter.next() else { usage() };
                args.json = Some(value);
            }
            "--requests" | "--clients" | "--server-workers" | "--connections" | "--soak" => {
                let Some(value) = iter.next().and_then(|v| v.parse::<usize>().ok()) else {
                    usage();
                };
                match flag.as_str() {
                    "--requests" => args.requests = value.max(1),
                    "--clients" => args.clients = value.max(1),
                    "--server-workers" => args.server_workers = value.max(1),
                    "--connections" => args.connections = value,
                    _ => args.soak = (value as u64).max(1),
                }
            }
            _ => {
                eprintln!("load_gen: unknown flag {flag}");
                usage();
            }
        }
    }
    args
}

/// Soak/chaos quality-gate violations recorded by [`soft_assert`]: the
/// run keeps going (and still writes its `--json` artifact) but
/// [`finish`] turns any entry into a non-zero exit.
static FAILURES: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Record a quality-gate violation instead of panicking mid-run.
fn soft_assert(ok: bool, message: impl FnOnce() -> String) {
    if !ok {
        let message = message();
        eprintln!("load_gen: FAILED: {message}");
        FAILURES
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(message);
    }
}

/// Flush recorded quality-gate violations and exit accordingly.
fn finish() -> ! {
    let failures = FAILURES.lock().unwrap_or_else(|e| e.into_inner());
    if failures.is_empty() {
        std::process::exit(0);
    }
    eprintln!("load_gen: {} quality-gate failure(s):", failures.len());
    for failure in failures.iter() {
        eprintln!("  - {failure}");
    }
    std::process::exit(1);
}

/// SplitMix64 — the same deterministic scrambler the fault plan uses,
/// so the chaos soak's deadline rolls are reproducible from the seed.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank percentile of an ascending-sorted series.
fn percentile(sorted: &[Duration], pct: usize) -> Duration {
    assert!(!sorted.is_empty());
    let rank = (pct * sorted.len()).div_ceil(100).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nearest-rank percentile of an ascending-sorted microsecond series —
/// the same rule the server's histogram quantile uses, so the two sides
/// are comparable.
fn percentile_us(sorted: &[u64], pct: usize) -> u64 {
    assert!(!sorted.is_empty());
    let rank = (pct * sorted.len()).div_ceil(100).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The value of one Prometheus sample line, `name{labels} value`.
fn metric_value(text: &str, name: &str, labels: &str) -> Option<u64> {
    let needle = format!("{name}{{{labels}}} ");
    text.lines()
        .find_map(|line| line.strip_prefix(&needle))
        .and_then(|value| value.trim().parse().ok())
}

fn print_percentile_row(label: &str, series: &mut [Duration]) {
    series.sort_unstable();
    println!(
        "  {:>14} {:>6} {:>10.1?} {:>10.1?} {:>10.1?} {:>10.1?}",
        label,
        series.len(),
        percentile(series, 50),
        percentile(series, 95),
        percentile(series, 99),
        series.last().unwrap(),
    );
}

/// The value of one unlabelled Prometheus sample line, `name value`.
fn gauge_value(text: &str, name: &str) -> Option<u64> {
    let needle = format!("{name} ");
    text.lines()
        .find_map(|line| line.strip_prefix(&needle))
        .and_then(|value| value.trim().parse().ok())
}

fn us(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
}

/// Percentile summary of an ascending-sorted microsecond series as a
/// JSON object for the `--json` report.
fn percentile_report(sorted: &[u64]) -> an5d_service::Json {
    an5d_service::Json::obj(vec![
        (
            "p50_us",
            an5d_service::Json::Int(i128::from(percentile_us(sorted, 50))),
        ),
        (
            "p95_us",
            an5d_service::Json::Int(i128::from(percentile_us(sorted, 95))),
        ),
        (
            "p99_us",
            an5d_service::Json::Int(i128::from(percentile_us(sorted, 99))),
        ),
    ])
}

/// The open-connection soak: hold `--connections` keep-alive connections
/// parked idle in the reactor while a small active subset keeps issuing
/// `/parse` requests, and prove the idle mass is (nearly) free — the
/// active p99 must stay within a bound of a low-connection baseline, and
/// `/metrics` must show the reactor (not the worker pool) holding it.
fn run_soak(args: &Args, template: &Template) -> an5d_service::Json {
    println!(
        "load_gen: soak — {} keep-alive connections, {} active clients, {}s",
        args.connections, args.clients, args.soak
    );
    let server = Server::start_with_backend(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: args.server_workers,
            queue_depth: 1024,
            cache_capacity: 64,
            // Parked connections must survive the whole soak: only the
            // final shutdown may close them.
            keep_alive_timeout: Duration::from_secs(args.soak + 60),
            max_requests_per_connection: 1_000_000,
            ..ServerConfig::default()
        },
        Arc::clone(&args.backend),
    )
    .expect("bind soak server");
    let addr = server.addr();

    // Baseline: /parse round-trip percentiles with almost no
    // connections open.
    let mut baseline: Vec<u64> = Vec::with_capacity(200);
    {
        let mut conn = client::KeepAliveClient::new(addr);
        for _ in 0..200 {
            let sent = Instant::now();
            let (status, body) = conn
                .post(template.path, &template.body)
                .expect("baseline request");
            assert_eq!(status, 200);
            assert_eq!(body, template.expected, "baseline response diverged");
            baseline.push(us(sent.elapsed()));
        }
    }
    baseline.sort_unstable();
    println!(
        "load_gen: baseline /parse p50 {}us p95 {}us p99 {}us",
        percentile_us(&baseline, 50),
        percentile_us(&baseline, 95),
        percentile_us(&baseline, 99),
    );

    // Ramp: every connection completes one request (byte-identical) and
    // then sits idle — the reactor must park it for the duration.
    let mut parked: Vec<client::KeepAliveClient> = Vec::with_capacity(args.connections);
    let ramp_started = Instant::now();
    for index in 0..args.connections {
        let mut conn = client::KeepAliveClient::new(addr);
        let (status, body) = conn
            .post(template.path, &template.body)
            .unwrap_or_else(|e| panic!("ramp connection {index}: {e}"));
        assert_eq!(status, 200, "ramp connection {index}");
        assert_eq!(body, template.expected, "ramp connection {index}");
        parked.push(conn);
    }
    println!(
        "load_gen: {} connections opened and parked in {:.2}s",
        parked.len(),
        ramp_started.elapsed().as_secs_f64()
    );

    // Soak: active clients hammer /parse until the deadline while the
    // main thread samples /metrics mid-soak.
    let deadline = Instant::now() + Duration::from_secs(args.soak);
    let soak_latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let mut observed = (0u64, 0u64, 0u64); // open, parked, active
    std::thread::scope(|scope| {
        for client_id in 0..args.clients {
            let soak_latencies = &soak_latencies;
            scope.spawn(move || {
                let mut conn = client::KeepAliveClient::new(addr);
                let mut series = Vec::new();
                while Instant::now() < deadline {
                    let sent = Instant::now();
                    let (status, body) = conn
                        .post(template.path, &template.body)
                        .unwrap_or_else(|e| panic!("soak client {client_id}: {e}"));
                    assert_eq!(status, 200, "soak client {client_id}");
                    assert_eq!(
                        body, template.expected,
                        "soak client {client_id}: response diverged under {} open connections",
                        args.connections
                    );
                    series.push(us(sent.elapsed()));
                }
                soak_latencies.lock().unwrap().append(&mut series);
            });
        }

        // Mid-soak: the connection gauges must show the idle mass parked
        // in the reactor, not occupying workers.
        std::thread::sleep(Duration::from_secs((args.soak / 2).max(1)));
        let (status, metrics_text) = client::get(addr, "/metrics").expect("/metrics mid-soak");
        assert_eq!(status, 200);
        for line in metrics_text
            .lines()
            .filter(|l| l.starts_with("an5d_connections_") && !l.starts_with('#'))
        {
            println!("load_gen:   {line}");
        }
        let open = gauge_value(&metrics_text, "an5d_connections_open").expect("open gauge");
        let parked_now =
            gauge_value(&metrics_text, "an5d_connections_parked").expect("parked gauge");
        let active = gauge_value(&metrics_text, "an5d_connections_active").expect("active gauge");
        soft_assert(open >= args.connections as u64, || {
            format!(
                "mid-soak only {open} connections open, expected at least {}",
                args.connections
            )
        });
        soft_assert(
            parked_now >= (args.connections as u64).saturating_sub(args.server_workers as u64),
            || {
                format!(
                    "mid-soak only {parked_now} connections parked: the reactor, not the worker \
                     pool, must hold the idle mass (connections {}, workers {})",
                    args.connections, args.server_workers
                )
            },
        );
        observed = (open, parked_now, active);
    });

    let mut soak_series = soak_latencies.into_inner().unwrap();
    assert!(!soak_series.is_empty(), "soak produced no requests");
    soak_series.sort_unstable();
    let (p99_base, p99_soak) = (
        percentile_us(&baseline, 99),
        percentile_us(&soak_series, 99),
    );
    println!(
        "load_gen: soak /parse p50 {}us p95 {}us p99 {}us over {} requests",
        percentile_us(&soak_series, 50),
        percentile_us(&soak_series, 95),
        p99_soak,
        soak_series.len(),
    );
    // Idle parked connections must be nearly free: generous headroom for
    // scheduler noise, but a reactor that scans or wakes per-connection
    // blows straight through this bound.
    let p99_bound = (10 * p99_base).max(p99_base + 25_000);
    soft_assert(p99_soak <= p99_bound, || {
        format!(
            "soak p99 {p99_soak}us exceeds bound {p99_bound}us (baseline p99 {p99_base}us): \
             {} parked connections are not free",
            args.connections
        )
    });
    println!("load_gen: soak p99 {p99_soak}us vs bound {p99_bound}us (baseline p99 {p99_base}us)");

    let (status, _) = client::post(addr, "/shutdown", "").expect("soak shutdown");
    assert_eq!(status, 200);
    server.wait();
    drop(parked);

    an5d_service::Json::obj(vec![
        (
            "connections",
            an5d_service::Json::Int(args.connections as i128),
        ),
        (
            "soak_seconds",
            an5d_service::Json::Int(i128::from(args.soak)),
        ),
        (
            "requests",
            an5d_service::Json::Int(soak_series.len() as i128),
        ),
        (
            "open_observed",
            an5d_service::Json::Int(i128::from(observed.0)),
        ),
        (
            "parked_observed",
            an5d_service::Json::Int(i128::from(observed.1)),
        ),
        (
            "active_observed",
            an5d_service::Json::Int(i128::from(observed.2)),
        ),
        ("baseline", percentile_report(&baseline)),
        ("soak", percentile_report(&soak_series)),
    ])
}

/// Per-client accounting of the chaos soak. Every request must land in
/// exactly one terminal bucket — `unterminated` is a contract breach.
#[derive(Default)]
struct ChaosTally {
    requests: u64,
    ok_200: u64,
    shed_503: u64,
    expired_504: u64,
    other_status: u64,
    byte_mismatches: u64,
    unterminated: u64,
    retries: u64,
    reconnects: u64,
}

/// The chaos soak: start the in-process server under a seeded fault
/// plan (connection kills on read, short writes, tune-DB append
/// failures), park `--connections` idle keep-alive connections, then
/// have `--clients` retry-enabled clients replay the full template mix
/// for `--soak` seconds with a deterministic ~1-in-8 of requests
/// carrying a random deadline. Asserts (softly — see [`soft_assert`])
/// that every `200` is byte-identical to the facade, every request
/// terminates as `200`/`503`/`504` within the retry budget, and the
/// injected faults reconcile with the server's `/metrics` counters.
fn run_chaos(args: &Args, templates: &[Template]) -> an5d_service::Json {
    let seed = args.fault_seed;
    // One rule per point (the plan consults the first match): kill
    // roughly one read in 400 (connection aborts), truncate one write
    // in 23 to 512 bytes (exercising the reactor's resumable-write
    // path), fail one tune-DB append in 3, and stretch one tuner
    // candidate in 7 by 15 ms — enough to push short-budget `/tune`
    // requests into mid-sweep deadline expiry (504).
    let spec = format!(
        "seed={seed};reactor.read=error@1/401;reactor.write=short:512@1/23;\
         tunedb.append=error@1/3;tuner.candidate=delay:15@1/7"
    );
    let db_path = std::env::temp_dir().join(format!("an5d_chaos_{}.tunedb", std::process::id()));
    let _ = std::fs::remove_file(&db_path);
    println!(
        "load_gen: chaos soak — plan \"{spec}\", {} clients + {} parked connections, {}s",
        args.clients, args.connections, args.soak
    );

    let server = Server::start_with_backend(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: args.server_workers,
            queue_depth: 256,
            cache_capacity: 256,
            keep_alive_timeout: Duration::from_secs(args.soak + 60),
            max_requests_per_connection: 1_000_000,
            tune_db: Some(db_path.display().to_string()),
            faults: Some(spec.clone()),
            ..ServerConfig::default()
        },
        Arc::clone(&args.backend),
    )
    .expect("bind chaos server");
    let addr = server.addr();

    let policy = |token: u64| client::RetryPolicy {
        budget: 8,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(100),
        seed: seed ^ token,
        retry_on_503: false,
    };

    // Ramp: parked connections ride out the whole soak; each completes
    // one (retried if necessary) request on the way in.
    let parse = templates
        .iter()
        .find(|t| t.path == "/parse")
        .expect("/parse template present");
    let mut parked: Vec<client::KeepAliveClient> = Vec::with_capacity(args.connections);
    for index in 0..args.connections {
        let mut conn = client::KeepAliveClient::new(addr).with_retry(policy(0x5EED ^ index as u64));
        match conn.post(parse.path, &parse.body) {
            Ok((200, body)) => soft_assert(body == parse.expected, || {
                format!("chaos ramp connection {index}: /parse bytes diverged")
            }),
            Ok((status, body)) => {
                soft_assert(false, || {
                    format!("chaos ramp connection {index}: status {status}: {body}")
                });
            }
            Err(e) => soft_assert(false, || format!("chaos ramp connection {index}: {e}")),
        }
        parked.push(conn);
    }

    // Soak: every client hammers the full template mix until the
    // deadline, reconnecting (bounded) when the plan kills its
    // connection mid-response.
    let soak_deadline = Instant::now() + Duration::from_secs(args.soak);
    let tallies: Mutex<Vec<ChaosTally>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for client_id in 0..args.clients {
            let tallies = &tallies;
            scope.spawn(move || {
                let mut tally = ChaosTally::default();
                let mut conn =
                    client::KeepAliveClient::new(addr).with_retry(policy(client_id as u64));
                let mut index: u64 = 0;
                while Instant::now() < soak_deadline {
                    let template = &templates[usize::try_from(index).unwrap() % templates.len()];
                    // Deterministic deadline roll: ~1 in 8 requests gets
                    // a budget from {0, 15, 60, 5000} ms. 0 ms is a
                    // guaranteed admission shed (503); the short budgets
                    // probe mid-processing expiry (504) on the heavy
                    // endpoints.
                    let roll = splitmix64(seed ^ ((client_id as u64) << 40) ^ index);
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
                                tally.retries += conn.retries();
                                tally.reconnects += 1;
                                conn = client::KeepAliveClient::new(addr)
                                    .with_retry(policy(client_id as u64 ^ tally.reconnects << 8));
                                conn.set_deadline_ms(request_deadline);
                            }
                        }
                    }
                    tally.requests += 1;
                    match outcome {
                        Some((200, body)) => {
                            tally.ok_200 += 1;
                            if body != template.expected {
                                tally.byte_mismatches += 1;
                                if tally.byte_mismatches == 1 {
                                    eprintln!(
                                        "load_gen: chaos client {client_id}: first byte \
                                         mismatch on {}",
                                        template.label()
                                    );
                                }
                            }
                        }
                        Some((503, _)) => tally.shed_503 += 1,
                        Some((504, body)) => {
                            tally.expired_504 += 1;
                            soft_assert(body.contains("\"deadline_exceeded\":true"), || {
                                format!(
                                    "chaos client {client_id} {}: 504 without a structured \
                                     deadline body: {body}",
                                    template.label()
                                )
                            });
                        }
                        Some((status, body)) => {
                            tally.other_status += 1;
                            soft_assert(false, || {
                                format!(
                                    "chaos client {client_id} {}: unexpected status \
                                     {status}: {body}",
                                    template.label()
                                )
                            });
                        }
                        None => tally.unterminated += 1,
                    }
                    index += 1;
                }
                tally.retries += conn.retries();
                tallies
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(tally);
            });
        }
    });

    let total = tallies
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .fold(ChaosTally::default(), |mut acc, t| {
            acc.requests += t.requests;
            acc.ok_200 += t.ok_200;
            acc.shed_503 += t.shed_503;
            acc.expired_504 += t.expired_504;
            acc.other_status += t.other_status;
            acc.byte_mismatches += t.byte_mismatches;
            acc.unterminated += t.unterminated;
            acc.retries += t.retries;
            acc.reconnects += t.reconnects;
            acc
        });

    // Snapshot the injected-fault ledger BEFORE uninstalling (the free
    // functions read through the installed plan), then uninstall so the
    // final scrape and shutdown run fault-free.
    let read_kills = an5d_fault::fired("reactor.read");
    let short_writes = an5d_fault::fired("reactor.write");
    let append_failures = an5d_fault::fired("tunedb.append");
    let journal_len = an5d_fault::journal().len();
    an5d_fault::uninstall();

    println!(
        "load_gen: chaos — {} requests: {} ok, {} shed (503), {} expired (504); \
         {} client retries, {} reconnects",
        total.requests,
        total.ok_200,
        total.shed_503,
        total.expired_504,
        total.retries,
        total.reconnects
    );
    println!(
        "load_gen: chaos — injected: {read_kills} connection kills, {short_writes} short \
         writes, {append_failures} tune-DB append failures ({journal_len} journaled)"
    );

    // The robustness contract.
    soft_assert(total.byte_mismatches == 0, || {
        format!(
            "{} of {} 200-responses diverged from the facade bytes under chaos",
            total.byte_mismatches, total.requests
        )
    });
    soft_assert(total.unterminated == 0, || {
        format!(
            "{} requests never reached a terminal 200/503/504 within the retry budget",
            total.unterminated
        )
    });
    soft_assert(total.requests > 0, || {
        "chaos soak sent no requests".to_string()
    });
    soft_assert(read_kills + short_writes + append_failures > 0, || {
        "chaos plan never fired — the soak was vacuous".to_string()
    });

    // Reconcile with the server's books: every injected kill must be an
    // accounted abort, every injected append failure a counted one.
    let (status, metrics_text) = client::get(addr, "/metrics").expect("/metrics after chaos");
    assert_eq!(status, 200);
    let aborted = gauge_value(&metrics_text, "an5d_connections_aborted").unwrap_or(0);
    let counted_append_failures =
        gauge_value(&metrics_text, "an5d_tunedb_append_failures_total").unwrap_or(0);
    let shed_counted = gauge_value(&metrics_text, "an5d_deadline_shed_total").unwrap_or(0);
    let expired_counted = gauge_value(&metrics_text, "an5d_deadline_expired_total").unwrap_or(0);
    soft_assert(aborted >= read_kills, || {
        format!("an5d_connections_aborted {aborted} < {read_kills} injected connection kills")
    });
    soft_assert(counted_append_failures >= append_failures, || {
        format!(
            "an5d_tunedb_append_failures_total {counted_append_failures} < {append_failures} \
             injected append failures"
        )
    });
    soft_assert(shed_counted >= total.shed_503.min(1), || {
        format!(
            "clients saw {} 503 sheds but an5d_deadline_shed_total is {shed_counted}",
            total.shed_503
        )
    });

    let (status, _) = client::post(addr, "/shutdown", "").expect("chaos shutdown");
    assert_eq!(status, 200);
    server.wait();
    drop(parked);
    let _ = std::fs::remove_file(&db_path);

    an5d_service::Json::obj(vec![
        ("seed", an5d_service::Json::Int(i128::from(seed))),
        (
            "soak_seconds",
            an5d_service::Json::Int(i128::from(args.soak)),
        ),
        (
            "connections",
            an5d_service::Json::Int(args.connections as i128),
        ),
        ("clients", an5d_service::Json::Int(args.clients as i128)),
        (
            "requests",
            an5d_service::Json::Int(i128::from(total.requests)),
        ),
        ("ok_200", an5d_service::Json::Int(i128::from(total.ok_200))),
        (
            "shed_503",
            an5d_service::Json::Int(i128::from(total.shed_503)),
        ),
        (
            "expired_504",
            an5d_service::Json::Int(i128::from(total.expired_504)),
        ),
        (
            "byte_mismatches",
            an5d_service::Json::Int(i128::from(total.byte_mismatches)),
        ),
        (
            "unterminated",
            an5d_service::Json::Int(i128::from(total.unterminated)),
        ),
        (
            "client_retries",
            an5d_service::Json::Int(i128::from(total.retries)),
        ),
        (
            "reconnects",
            an5d_service::Json::Int(i128::from(total.reconnects)),
        ),
        (
            "injected",
            an5d_service::Json::obj(vec![
                (
                    "connection_kills",
                    an5d_service::Json::Int(i128::from(read_kills)),
                ),
                (
                    "short_writes",
                    an5d_service::Json::Int(i128::from(short_writes)),
                ),
                (
                    "tunedb_append_failures",
                    an5d_service::Json::Int(i128::from(append_failures)),
                ),
            ]),
        ),
        (
            "connections_aborted",
            an5d_service::Json::Int(i128::from(aborted)),
        ),
        (
            "deadline_shed",
            an5d_service::Json::Int(i128::from(shed_counted)),
        ),
        (
            "deadline_expired",
            an5d_service::Json::Int(i128::from(expired_counted)),
        ),
    ])
}

/// Raw-socket streamed POST: returns the reassembled body, the
/// time-to-first-body-byte and the total response time, asserting the
/// response is chunk-framed on the wire.
fn measure_stream(
    addr: std::net::SocketAddr,
    path: &str,
    body: &str,
) -> (String, Duration, Duration) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: an5d\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send request");
    let started = Instant::now();

    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("head read");
        assert!(n > 0, "connection closed mid-head");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head)
        .expect("ASCII head")
        .to_ascii_lowercase();
    soft_assert(head.contains("transfer-encoding: chunked"), || {
        format!("{path}: streamed response not chunk-framed: {head}")
    });

    let mut decoder = an5d_service::ChunkDecoder::new();
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    let mut first_byte_at = None;
    while !decoder.is_done() {
        let n = stream.read(&mut buf).expect("body read");
        assert!(n > 0, "connection closed before the chunk terminator");
        let mut offset = 0;
        while offset < n {
            let consumed = decoder
                .decode(&buf[offset..n], &mut out)
                .expect("well-formed chunked body");
            if consumed == 0 {
                break;
            }
            offset += consumed;
        }
        if first_byte_at.is_none() && !out.is_empty() {
            first_byte_at = Some(started.elapsed());
        }
    }
    let total = started.elapsed();
    let ttfb = first_byte_at.expect("streamed body was empty");
    (String::from_utf8(out).expect("UTF-8 body"), ttfb, total)
}

/// The streaming smoke (`--batch`): a per-chunk delay plan makes body
/// production the dominant, measurable cost, so time-to-first-byte far
/// below the total response time proves the first chunk hit the wire
/// before the body existed. Streamed bytes must still reassemble
/// identical to the buffered twin, and `/metrics` must carry the
/// stream series.
fn run_batch(args: &Args) -> an5d_service::Json {
    // Every chunk pull sleeps this long on the producer; a ~78 KiB
    // /codegen body spans several 16 KiB chunks, so total ≈ pulls ×
    // delay while TTFB ≈ one delay.
    const CHUNK_DELAY_MS: u64 = 60;
    let spec = format!(
        "seed={};stream.chunk=delay:{CHUNK_DELAY_MS}",
        args.fault_seed
    );
    println!("load_gen: streaming smoke — plan \"{spec}\"");

    let server = Server::start_with_backend(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: args.server_workers,
            queue_depth: 256,
            cache_capacity: 256,
            faults: Some(spec),
            ..ServerConfig::default()
        },
        Arc::clone(&args.backend),
    )
    .expect("bind streaming-smoke server");
    let addr = server.addr();

    // Big enough for several chunks at the default 16 KiB chunk size.
    let codegen_body = r#"{"benchmark":"j2d9pt","interior":[512,512],"steps":16,
        "config":{"bt":16,"bs":[256],"hsn":256,"precision":"double"}}"#;
    let (status, buffered) = client::post(addr, "/codegen", codegen_body).expect("/codegen");
    soft_assert(status == 200, || {
        format!("/codegen buffered: {status}: {buffered}")
    });
    let (streamed, ttfb, total) = measure_stream(addr, "/codegen?stream=1", codegen_body);
    soft_assert(streamed == buffered, || {
        "/codegen?stream=1 bytes diverged from the buffered response".to_string()
    });
    // "Well below": at least three chunk pulls happened after the first
    // byte was already on the wire.
    soft_assert(ttfb * 3 <= total, || {
        format!("/codegen TTFB {ttfb:?} not well below total {total:?}")
    });
    println!(
        "load_gen: /codegen?stream=1 — {} bytes, TTFB {ttfb:?}, total {total:?}",
        streamed.len()
    );

    let batch_body = r#"{"jobs":[
        {"benchmark":"j2d5pt","interior":[24,24],"steps":5,
         "config":{"bt":2,"bs":[12],"precision":"double"}},
        {"benchmark":"star2d1r","interior":[64,64],"steps":8,
         "config":{"bt":4,"bs":[32],"precision":"single"}},
        {"benchmark":"j2d5pt","interior":[16,16],"steps":3,
         "config":{"bt":2,"bs":[8],"precision":"double"},"seed":7},
        {"benchmark":"star2d1r","interior":[32,32],"steps":4,
         "config":{"bt":2,"bs":[16],"precision":"single"}}
    ]}"#;
    let (status, batch_buffered) =
        client::post(addr, "/batch?stream=0", batch_body).expect("/batch?stream=0");
    soft_assert(status == 200, || {
        format!("/batch buffered: {status}: {batch_buffered}")
    });
    let (batch_streamed, batch_ttfb, batch_total) = measure_stream(addr, "/batch", batch_body);
    soft_assert(batch_streamed == batch_buffered, || {
        "/batch streamed NDJSON diverged from the ?stream=0 response".to_string()
    });
    let lines = batch_streamed.lines().count();
    soft_assert(lines == 4, || {
        format!("/batch answered {lines} lines, wanted 4")
    });
    println!("load_gen: /batch — {lines} NDJSON lines, TTFB {batch_ttfb:?}, total {batch_total:?}");

    let (status, metrics_text) = client::get(addr, "/metrics").expect("/metrics");
    soft_assert(status == 200, || format!("/metrics: {status}"));
    for series in [
        "an5d_streams_total{endpoint=\"/codegen\"}",
        "an5d_stream_chunks_total{endpoint=\"/codegen\"}",
        "an5d_stream_bytes_total{endpoint=\"/batch\"}",
        "an5d_stream_ttfb_us_count{endpoint=\"/codegen\"}",
    ] {
        soft_assert(metrics_text.contains(series), || {
            format!("/metrics missing {series}")
        });
    }

    let (status, _) = client::post(addr, "/shutdown", "").expect("shutdown");
    soft_assert(status == 200, || "shutdown refused".to_string());
    server.wait();

    an5d_service::Json::obj(vec![
        (
            "chunk_delay_ms",
            an5d_service::Json::Int(i128::from(CHUNK_DELAY_MS)),
        ),
        (
            "codegen_bytes",
            an5d_service::Json::Int(streamed.len() as i128),
        ),
        (
            "codegen_ttfb_us",
            an5d_service::Json::Int(ttfb.as_micros() as i128),
        ),
        (
            "codegen_total_us",
            an5d_service::Json::Int(total.as_micros() as i128),
        ),
        ("batch_lines", an5d_service::Json::Int(lines as i128)),
        (
            "batch_ttfb_us",
            an5d_service::Json::Int(batch_ttfb.as_micros() as i128),
        ),
        (
            "batch_total_us",
            an5d_service::Json::Int(batch_total.as_micros() as i128),
        ),
    ])
}

fn main() {
    let args = parse_args();

    // The streaming smoke needs no facade ground truth — the buffered
    // response from the same server is the streamed body's oracle.
    if args.batch {
        let report = run_batch(&args);
        if let Some(path) = &args.json {
            let wrapped = an5d_service::Json::obj(vec![("batch", report)]);
            std::fs::write(path, wrapped.render() + "\n")
                .unwrap_or_else(|e| panic!("load_gen: cannot write --json {path}: {e}"));
            println!("load_gen: wrote JSON report to {path}");
        }
        finish();
    }

    // Target devices: the named one, or the whole registered fleet
    // (round-robin through the template list).
    let registry = standard_registry();
    let targets: Vec<(String, GpuDevice)> = match &args.device {
        Some(name) => match registry.resolve(name) {
            Some((id, device)) => vec![(id.to_string(), device.clone())],
            None => {
                eprintln!(
                    "load_gen: unknown --device {name:?}; registered: {}",
                    registry.accepted_names()
                );
                std::process::exit(2);
            }
        },
        None => registry
            .devices()
            .map(|(id, device)| (id.to_string(), device.clone()))
            .collect(),
    };
    println!(
        "load_gen: {} mixed requests across {} clients ({} server workers, keep-alive {}, devices: {})",
        args.requests,
        args.clients,
        args.server_workers,
        if args.keep_alive { "on" } else { "off" },
        targets
            .iter()
            .map(|(id, _)| id.as_str())
            .collect::<Vec<_>>()
            .join(","),
    );

    println!("load_gen: computing expected responses via direct facade calls…");
    let templates = Arc::new(templates(&targets));

    // Chaos mode replaces the byte-identity phases entirely — the fault
    // plan would contaminate them. The expected bytes above were
    // computed before the server (and its plan) existed, so they remain
    // the chaos soak's ground truth.
    if args.chaos {
        let report = run_chaos(&args, &templates);
        if let Some(path) = &args.json {
            let wrapped = an5d_service::Json::obj(vec![("chaos", report)]);
            std::fs::write(path, wrapped.render() + "\n")
                .unwrap_or_else(|e| panic!("load_gen: cannot write --json {path}: {e}"));
            println!("load_gen: wrote JSON report to {path}");
        }
        finish();
    }

    // A pre-existing DB means this is the warm (second) run of a
    // round-trip: the server must warm-start from it.
    let warm_start = args.tune_db.as_deref().is_some_and(|path| {
        std::fs::metadata(path)
            .map(|m| m.len() > 0)
            .unwrap_or(false)
    });
    if let Some(path) = &args.tune_db {
        println!(
            "load_gen: tune DB at {path} ({})",
            if warm_start {
                "warm start"
            } else {
                "cold, seeding"
            }
        );
    }

    let server = Server::start_with_backend(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: args.server_workers,
            queue_depth: 256,
            cache_capacity: 256,
            tune_db: args.tune_db.clone(),
            ..ServerConfig::default()
        },
        Arc::clone(&args.backend),
    )
    .expect("bind ephemeral port");
    let addr = server.addr();
    println!("load_gen: an5d-serve listening on http://{addr}");

    // The fleet is exposed: every target device must be listed.
    let (status, devices_body) = client::get(addr, "/devices").expect("/devices reachable");
    assert_eq!(status, 200);
    for (id, _) in &targets {
        assert!(
            devices_body.contains(&format!("\"{id}\"")),
            "/devices must list {id}: {devices_body}"
        );
    }

    let latencies: Mutex<Vec<(usize, Duration)>> = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client_id in 0..args.clients {
            let templates = Arc::clone(&templates);
            let latencies = &latencies;
            let keep_alive = args.keep_alive;
            scope.spawn(move || {
                // One persistent connection per client in keep-alive
                // mode; a fresh connection per request otherwise.
                let mut persistent = keep_alive.then(|| client::KeepAliveClient::new(addr));
                // Client k takes requests k, k+C, k+2C, … — deterministic
                // coverage of the template mix with no coordination.
                let mut sent_count: u64 = 0;
                for index in (client_id..args.requests).step_by(args.clients) {
                    let template = &templates[index % templates.len()];
                    let sent = Instant::now();
                    let result = match &mut persistent {
                        Some(conn) => conn.post(template.path, &template.body),
                        None => client::post(addr, template.path, &template.body),
                    };
                    let (status, body) = result.unwrap_or_else(|e| {
                        panic!("client {client_id} request {index} {}: {e}", template.path)
                    });
                    let elapsed = sent.elapsed();
                    sent_count += 1;
                    assert_eq!(
                        status,
                        200,
                        "client {client_id} request {index} {}: {body}",
                        template.label()
                    );
                    assert_eq!(
                        body,
                        template.expected,
                        "client {client_id} request {index} {}: response differs from the \
                         direct facade call",
                        template.label()
                    );
                    latencies
                        .lock()
                        .unwrap()
                        .push((index % templates.len(), elapsed));
                }
                if let Some(conn) = &persistent {
                    assert!(
                        sent_count <= 1 || conn.reused() > 0,
                        "client {client_id}: keep-alive mode must reuse its connection"
                    );
                }
            });
        }
    });
    let wall = started.elapsed();

    let latencies = latencies.into_inner().unwrap();
    assert_eq!(latencies.len(), args.requests);
    let requests_per_sec = args.requests as f64 / wall.as_secs_f64();
    println!(
        "load_gen: {} requests in {:.3}s ({requests_per_sec:.0} req/s), \
         all bit-identical to the facade",
        args.requests,
        wall.as_secs_f64(),
    );
    if args.keep_alive {
        println!(
            "load_gen: {} requests served over reused connections",
            server.reused_requests()
        );
    }
    println!(
        "  {:>14} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "endpoint", "n", "p50", "p95", "p99", "max"
    );
    for (template_index, template) in templates.iter().enumerate() {
        let mut series: Vec<Duration> = latencies
            .iter()
            .filter(|(t, _)| *t == template_index)
            .map(|&(_, d)| d)
            .collect();
        if series.is_empty() {
            continue;
        }
        print_percentile_row(&template.label(), &mut series);
    }

    // Per-device latency rollup across the device-parameterized
    // endpoints: the fleet report.
    println!(
        "  {:>14} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "device", "n", "p50", "p95", "p99", "max"
    );
    for (id, _) in &targets {
        let mut series: Vec<Duration> = latencies
            .iter()
            .filter(|(t, _)| templates[*t].device.as_deref() == Some(id.as_str()))
            .map(|&(_, d)| d)
            .collect();
        if series.is_empty() {
            continue;
        }
        print_percentile_row(id, &mut series);
    }

    let (status, stats_body) = client::get(addr, "/stats").expect("stats reachable");
    assert_eq!(status, 200);
    let stats = parse_json(&stats_body).expect("stats is valid JSON");
    let hit_rate = stats
        .get("cache")
        .and_then(|c| c.get("hit_rate"))
        .and_then(an5d_service::Json::as_f64)
        .expect("cache hit rate present");
    println!("load_gen: plan-cache hit rate {hit_rate:.3}");
    // Hits require repeats: only meaningful once the schedule has
    // cycled the template mix at least twice.
    if args.requests >= 2 * templates.len() {
        assert!(
            hit_rate > 0.5,
            "repeated mixed traffic should mostly hit the plan cache"
        );
    }
    // Per-device shards saw the traffic that named their devices. A run
    // shorter than the template cycle never reaches some devices'
    // templates — only assert for devices the request schedule covered.
    let exercised: std::collections::BTreeSet<&str> = (0..args.requests)
        .map(|index| index % templates.len())
        .filter_map(|t| templates[t].device.as_deref())
        .collect();
    let device_stats = stats.get("devices").expect("per-device stats present");
    for (id, _) in &targets {
        let requests = device_stats
            .get(id)
            .and_then(|d| d.get("requests"))
            .and_then(an5d_service::Json::as_usize)
            .unwrap_or(0);
        println!("load_gen: device {id}: {requests} requests on its shard");
        if exercised.contains(id.as_str()) {
            assert!(requests > 0, "device {id} saw no routed traffic");
        }
    }

    // Tune-DB round-trip accounting: on a cold run the traffic must have
    // seeded records; on a warm run every device whose `/tune` template
    // ran must have been answered from the DB without a tuner search.
    if args.tune_db.is_some() {
        let top = stats.get("tunedb").expect("top-level tunedb stats");
        assert_eq!(
            top.get("enabled").and_then(an5d_service::Json::as_bool),
            Some(true)
        );
        let records = top
            .get("records")
            .and_then(an5d_service::Json::as_usize)
            .unwrap_or(0);
        println!("load_gen: tune DB holds {records} records");

        let tuned_devices: std::collections::BTreeSet<&str> = (0..args.requests)
            .map(|index| index % templates.len())
            .filter(|&t| templates[t].path == "/tune")
            .filter_map(|t| templates[t].device.as_deref())
            .collect();
        assert!(
            tuned_devices.is_empty() || records > 0,
            "tuned traffic must leave persisted records"
        );
        let mut total_warmed = 0usize;
        for device in &tuned_devices {
            let tunedb = device_stats
                .get(device)
                .and_then(|d| d.get("tunedb"))
                .expect("per-device tunedb stats");
            let get = |key: &str| {
                tunedb
                    .get(key)
                    .and_then(an5d_service::Json::as_usize)
                    .unwrap()
            };
            let (warmed, hits, runs) = (get("warmed"), get("hits"), get("tuner_runs"));
            println!(
                "load_gen: device {device}: warmed {warmed}, DB hits {hits}, tuner runs {runs}"
            );
            total_warmed += warmed;
            if warm_start {
                assert!(warmed > 0, "device {device} must warm-start from the DB");
                assert!(hits > 0, "device {device} must answer /tune from the DB");
                assert_eq!(
                    runs, 0,
                    "device {device} must not re-run the tuner for a stored key"
                );
            }
        }
        if warm_start {
            assert!(total_warmed > 0, "warm run must report nonzero warm counts");
            println!("load_gen: warm start verified — zero tuner invocations");
        }
    }

    // Server-side histograms: fetch /metrics, cross-check the
    // client-observed percentiles against the server's, and optionally
    // emit the machine-readable JSON report.
    let (status, metrics_text) = client::get(addr, "/metrics").expect("/metrics reachable");
    assert_eq!(status, 200);
    assert!(
        metrics_text.contains("# TYPE an5d_request_latency_us histogram"),
        "/metrics must expose latency histograms"
    );

    // Client-side latency in microseconds, grouped by endpoint path
    // (matching the server's per-endpoint histograms).
    let mut per_path: std::collections::BTreeMap<&str, Vec<u64>> =
        std::collections::BTreeMap::new();
    for &(template_index, elapsed) in &latencies {
        per_path
            .entry(templates[template_index].path)
            .or_default()
            .push(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
    }
    for series in per_path.values_mut() {
        series.sort_unstable();
    }

    let mut endpoint_reports: Vec<(String, an5d_service::Json)> = Vec::new();
    let mut total_errors = 0u64;
    for (path, series) in &per_path {
        let label = format!("endpoint=\"{path}\"");
        let server_count = metric_value(&metrics_text, "an5d_requests_total", &label)
            .unwrap_or_else(|| panic!("/metrics has no request counter for {path}"));
        assert_eq!(
            server_count as usize,
            series.len(),
            "{path}: server-side request count must match the client's"
        );
        let errors = metric_value(&metrics_text, "an5d_request_errors_total", &label).unwrap_or(0);
        total_errors += errors;
        // The server-side quantile excludes network and connection
        // queueing, so it can only sit *below* the client-observed one —
        // up to the histogram's bucket resolution (1/32) plus timing
        // noise on the boundary.
        for (quantile, pct) in [("0.5", 50), ("0.95", 95), ("0.99", 99)] {
            let server_q = metric_value(
                &metrics_text,
                "an5d_request_latency_us_quantile",
                &format!("endpoint=\"{path}\",quantile=\"{quantile}\""),
            )
            .unwrap_or_else(|| panic!("/metrics has no q{quantile} for {path}"));
            let client_q = percentile_us(series, pct);
            let bound = client_q + client_q / 32 + 128;
            assert!(
                server_q <= bound,
                "{path} p{pct}: server {server_q}us exceeds client {client_q}us \
                 beyond bucket resolution"
            );
        }
        endpoint_reports.push((
            (*path).to_string(),
            an5d_service::Json::obj(vec![
                ("count", an5d_service::Json::Int(i128::from(server_count))),
                ("errors", an5d_service::Json::Int(i128::from(errors))),
                (
                    "p50_us",
                    an5d_service::Json::Int(i128::from(percentile_us(series, 50))),
                ),
                (
                    "p95_us",
                    an5d_service::Json::Int(i128::from(percentile_us(series, 95))),
                ),
                (
                    "p99_us",
                    an5d_service::Json::Int(i128::from(percentile_us(series, 99))),
                ),
                (
                    "max_us",
                    an5d_service::Json::Int(i128::from(*series.last().unwrap())),
                ),
            ]),
        ));
    }
    println!(
        "load_gen: client percentiles agree with the server's /metrics histograms \
         ({} endpoints cross-checked)",
        per_path.len()
    );

    // Optional open-connection soak against a fresh server: prove the
    // reactor holds `--connections` parked keep-alive connections while
    // the active subset's latency stays near the baseline.
    let soak_report = (args.connections > 0).then(|| {
        let template = templates
            .iter()
            .find(|t| t.path == "/parse")
            .expect("/parse template present");
        run_soak(&args, template)
    });

    if let Some(path) = &args.json {
        let mut fields = vec![
            ("requests", an5d_service::Json::Int(args.requests as i128)),
            ("clients", an5d_service::Json::Int(args.clients as i128)),
            ("keep_alive", an5d_service::Json::Bool(args.keep_alive)),
            ("wall_seconds", an5d_service::Json::Num(wall.as_secs_f64())),
            (
                "requests_per_sec",
                an5d_service::Json::Num(requests_per_sec),
            ),
            ("errors", an5d_service::Json::Int(i128::from(total_errors))),
            (
                "rejected",
                an5d_service::Json::Int(i128::from(
                    metrics_text
                        .lines()
                        .find_map(|line| {
                            line.strip_prefix("an5d_rejected_connections_total ")
                                .and_then(|v| v.trim().parse::<u64>().ok())
                        })
                        .unwrap_or(0),
                )),
            ),
            ("endpoints", an5d_service::Json::Obj(endpoint_reports)),
        ];
        if let Some(soak) = soak_report {
            fields.push(("soak", soak));
        }
        let report = an5d_service::Json::obj(fields);
        std::fs::write(path, report.render() + "\n")
            .unwrap_or_else(|e| panic!("load_gen: cannot write --json {path}: {e}"));
        println!("load_gen: wrote JSON report to {path}");
    }

    let (status, _) = client::post(addr, "/shutdown", "").expect("shutdown reachable");
    assert_eq!(status, 200);
    server.wait();
    println!("load_gen: clean shutdown");
    finish();
}
