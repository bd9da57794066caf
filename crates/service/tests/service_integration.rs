//! End-to-end test: start `an5d-serve` on an ephemeral port, hammer it
//! with concurrent tune/codegen/execute traffic from multiple client
//! threads, and assert that every response is byte-identical to a
//! direct `An5d` facade call — on the serial backend and with tiles
//! fanned out over the pool — and that the `/stats` cache hit rate rises
//! as the shared plan cache warms up.

mod common;

use an5d::{
    generate_cuda_for_plan, An5d, BatchDriver, BlockConfig, GpuDevice, GridInit, Precision,
    SearchSpace, SerialBackend,
};
use an5d_service::{api, client, ServerConfig};
use common::{server, shutdown, stat, stats};
use std::sync::Arc;

/// The mixed request set every client thread replays.
fn workload() -> Vec<(&'static str, String)> {
    vec![
        (
            "/tune",
            r#"{"benchmark":"j2d5pt","interior":[512,512],"steps":50,
                "device":"v100","precision":"single","space":"quick"}"#
                .to_string(),
        ),
        (
            "/codegen",
            r#"{"benchmark":"star2d1r","interior":[128,128],"steps":16,
                "config":{"bt":4,"bs":[64],"hsn":64,"precision":"single"}}"#
                .to_string(),
        ),
        (
            "/execute",
            r#"{"benchmark":"j2d5pt","interior":[24,24],"steps":5,
                "config":{"bt":2,"bs":[12],"precision":"double"}}"#
                .to_string(),
        ),
    ]
}

/// Compute the exact bytes the server must return for each workload
/// entry via direct facade calls (no server, fresh uncached state).
fn expected_bodies() -> Vec<String> {
    // /tune via the plain facade tuner.
    let tune = {
        let pipeline = An5d::benchmark("j2d5pt").unwrap();
        let problem = pipeline.problem(&[512, 512], 50).unwrap();
        let space = SearchSpace::quick(2, Precision::Single);
        let result = pipeline
            .tune(&problem, &GpuDevice::tesla_v100(), &space)
            .unwrap();
        api::tune_response(&result).render()
    };
    let codegen = {
        let pipeline = An5d::benchmark("star2d1r").unwrap();
        let problem = pipeline.problem(&[128, 128], 16).unwrap();
        let config = BlockConfig::new(4, &[64], Some(64), Precision::Single).unwrap();
        let plan = pipeline.plan(&problem, &config).unwrap();
        api::codegen_response(&generate_cuda_for_plan(&plan)).render()
    };
    let execute = {
        // A fresh driver (not the server's): the checksum and counters
        // must match regardless of whose backend executed.
        let driver = BatchDriver::new(Arc::new(SerialBackend));
        let def = an5d::suite::by_name("j2d5pt").unwrap();
        let config = BlockConfig::new(2, &[12], None, Precision::Double).unwrap();
        let job = an5d::BatchJob::new(def, &[24, 24], 5, config)
            .with_init(GridInit::Hash { seed: 0x5EED });
        let outcome = driver.run_job(&job).unwrap();
        api::execute_response(&outcome).render()
    };
    vec![tune, codegen, execute]
}

/// Plan-cache hits over lookups, from the two `/stats` counters.
fn hit_rate(addr: std::net::SocketAddr) -> f64 {
    let seen = stats(addr);
    let count = |family| stat(&seen, family, &[]).expect("stats carries the cache counters");
    let (hits, misses) = (
        count("an5d_plan_cache_hits_total"),
        count("an5d_plan_cache_misses_total"),
    );
    hits as f64 / (hits + misses) as f64
}

#[test]
fn concurrent_clients_get_facade_identical_responses_and_a_warming_cache() {
    // The backend is semantically transparent: the expected bytes come
    // from direct serial facade calls whichever spec serves them.
    let expected = expected_bodies();
    for (spec, name) in [("serial", "serial"), ("vector:2", "vector")] {
        concurrent_clients_on(spec, name, &expected);
    }
}

fn concurrent_clients_on(spec: &str, backend: &str, expected: &[String]) {
    let server = server(ServerConfig {
        workers: 4,
        queue_depth: 64,
        cache_capacity: 256,
        backend: Some(spec.to_string()),
        ..ServerConfig::default()
    });
    let addr = server.addr();

    let workload = workload();

    // Round 1: 4 concurrent client threads × the full workload, each
    // over ONE persistent keep-alive connection. Every response must be
    // byte-identical to the direct facade rendering.
    const CLIENTS: usize = 4;
    const ROUNDS_PER_CLIENT: usize = 3;
    std::thread::scope(|scope| {
        for client_id in 0..CLIENTS {
            let workload = &workload;
            scope.spawn(move || {
                let mut client = client::KeepAliveClient::new(addr);
                for round in 0..ROUNDS_PER_CLIENT {
                    for ((path, body), want) in workload.iter().zip(expected) {
                        let (status, got) = client
                            .post(path, body)
                            .unwrap_or_else(|e| panic!("client {client_id} {path}: {e}"));
                        assert_eq!(status, 200, "client {client_id} {path}: {got}");
                        assert_eq!(
                            &got, want,
                            "client {client_id} round {round} {path}: response must be \
                             byte-identical to the direct facade call"
                        );
                    }
                }
                let requests = (ROUNDS_PER_CLIENT * workload.len()) as u64;
                assert_eq!(
                    client.reused(),
                    requests - 1,
                    "client {client_id}: all but the first request must reuse the connection"
                );
            });
        }
    });
    assert_eq!(
        server.reused_requests(),
        (CLIENTS * (ROUNDS_PER_CLIENT * workload.len() - 1)) as u64,
        "server must have served every follow-up request on a kept-alive connection"
    );

    let warm_rate = hit_rate(addr);
    assert!(
        warm_rate > 0.0,
        "repeated identical requests must produce cache hits (rate {warm_rate})"
    );

    // Another identical round can only hit (every plan is cached now):
    // the overall hit rate must rise.
    for (path, body) in &workload {
        let (status, _) = client::post(addr, path, body).unwrap();
        assert_eq!(status, 200);
    }
    let warmer_rate = hit_rate(addr);
    assert!(
        warmer_rate > warm_rate,
        "hit rate must keep rising on repeated traffic ({warm_rate} → {warmer_rate})"
    );

    // /stats reflects the traffic the endpoints saw, and the backend
    // every /execute ran on.
    let seen = stats(addr);
    let requests = (CLIENTS * ROUNDS_PER_CLIENT + 1) as u64;
    assert_eq!(
        stat(&seen, "an5d_requests_total", &[("endpoint", "/tune")]),
        Some(requests)
    );
    assert_eq!(
        stat(
            &seen,
            "an5d_backend_executes_total",
            &[("backend", backend)]
        ),
        Some(requests),
        "{spec}"
    );

    // Graceful shutdown over HTTP; wait() must return promptly.
    shutdown(server);
}

#[test]
fn admission_control_sheds_load_with_503s_instead_of_queueing_unboundedly() {
    // 1 worker and a 1-deep dispatch queue. Under the reactor, admission
    // control guards *worker time*, not connections: an idle or
    // half-sent connection parks in the reactor for nearly nothing and
    // is never rejected, but complete parsed requests beyond the queue
    // depth are shed with immediate per-request 503s.
    let server = server(ServerConfig {
        workers: 1,
        queue_depth: 1,
        cache_capacity: 16,
        ..ServerConfig::default()
    });
    let addr = server.addr();

    // Saturate the single worker with concurrent complete requests: at
    // any moment one executes, one sits queued, and the rest must be
    // turned away.
    let body = r#"{"benchmark":"star2d1r","interior":[96,96],"steps":8,
                   "config":{"bt":2,"bs":[32],"precision":"double"}}"#;
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut clients = Vec::new();
    for _ in 0..8 {
        let stop = Arc::clone(&stop);
        clients.push(std::thread::spawn(move || {
            let mut saw_503 = false;
            for _ in 0..200 {
                if stop.load(std::sync::atomic::Ordering::Relaxed) {
                    break;
                }
                if let Ok(response) = client::post_response(addr, "/execute", body) {
                    if response.status == 503 {
                        // Every overload shed must tell well-behaved
                        // clients when to come back.
                        assert_eq!(
                            response.retry_after,
                            Some(1),
                            "503 shed must carry a Retry-After hint"
                        );
                        saw_503 = true;
                        stop.store(true, std::sync::atomic::Ordering::Relaxed);
                        break;
                    }
                }
            }
            saw_503
        }));
    }
    // Join every thread (no short-circuit) before checking the verdict.
    let verdicts: Vec<bool> = clients
        .into_iter()
        .map(|thread| thread.join().unwrap())
        .collect();
    assert!(
        verdicts.contains(&true),
        "admission control never shed a request"
    );
    assert!(server.state().metrics().rejected.get() > 0);

    // Meanwhile a half-sent request cannot pin the worker: it parks in
    // the reactor and fresh complete requests keep being answered.
    use std::io::Write;
    let mut parked = std::net::TcpStream::connect(addr).unwrap();
    parked
        .write_all(b"POST /stats HTTP/1.1\r\nContent-Length: 4\r\n\r\n")
        .unwrap();
    parked.flush().unwrap();
    let (status, _) = client::get(addr, "/stats").unwrap();
    assert_eq!(status, 200, "half-sent request must not block the worker");
    drop(parked);
    server.stop();
}
