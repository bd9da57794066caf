//! The `an5d-serve` server: a nonblocking reactor owning every
//! connection, a bounded dispatch queue with admission control, a fixed
//! worker pool for CPU-bound request handling, persistent (keep-alive)
//! connections and graceful shutdown.
//!
//! Concurrency model (all std, no external runtime):
//!
//! * the **reactor thread** (see [`crate::reactor`]) owns the
//!   `TcpListener` and every connection as nonblocking sockets in a
//!   `poll(2)`-backed readiness loop. Idle keep-alive connections park
//!   there for the cost of one `pollfd` entry — connection count is
//!   unbounded-but-gauged (`/metrics`: `an5d_connections_*`), and
//!   [`ServerConfig::workers`] bounds CPU-bound concurrency, not
//!   clients;
//! * **worker threads** pop *complete parsed requests* from a bounded
//!   dispatch queue, run [`crate::handlers::dispatch`], render the
//!   response bytes and write them to the connection's socket
//!   themselves (one nonblocking write, shared with the reactor as an
//!   `Arc<TcpStream>`), then hand the connection back to the reactor,
//!   which resumes the write under `POLLOUT` only when the socket could
//!   not take it all. When the queue is at
//!   [`ServerConfig::queue_depth`] the reactor answers `503`
//!   immediately (admission control sheds requests instead of growing
//!   an unbounded backlog);
//! * **keep-alive policy** is enforced by the reactor's one deadline per
//!   connection ([`ServerConfig::keep_alive_timeout`] between requests,
//!   a fixed I/O budget within one) and by the workers
//!   ([`ServerConfig::max_requests_per_connection`], `Connection:
//!   close`);
//! * **graceful shutdown** — `POST /shutdown` (or [`Server::stop`]) sets
//!   the shutdown flag and wakes both halves: workers drain the
//!   dispatch queue before exiting, the reactor closes parked
//!   connections immediately and keeps in-flight responses draining, so
//!   every admitted request is answered.

use crate::handlers::{dispatch, ServiceState};
use crate::http::{write_response, Request, Response};
use crate::json::Json;
use crate::reactor::{write_out, Flush, Reactor};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// I/O budget for one read or write step of a request/response cycle:
/// the deadline the reactor arms while a request is arriving, a
/// response is draining, or a fresh connection has yet to speak.
pub(crate) const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (use port 0 for an ephemeral port).
    pub addr: String,
    /// CPU-bound dispatch worker threads. Bounds concurrent request
    /// *handling*; open connections are bounded only by file
    /// descriptors (the reactor parks idle ones for free).
    pub workers: usize,
    /// Bounded dispatch-queue depth; parsed requests beyond it are
    /// answered 503.
    pub queue_depth: usize,
    /// Capacity of the service's one plan cache (behind `/plan`,
    /// `/predict` and `/codegen`).
    pub cache_capacity: usize,
    /// How long a persistent connection may sit idle between requests
    /// before the server closes it.
    pub keep_alive_timeout: Duration,
    /// Maximum requests served on one connection before the server
    /// closes it (bounds how long a single client can hold one
    /// connection's server-side state).
    pub max_requests_per_connection: usize,
    /// Path of the persisted tuning database: `/tune` reads through it,
    /// fresh results are appended, and every device shard counts the
    /// entries it starts from. `None` (the default) disables
    /// persistence. The `an5d-serve` binary resolves the `AN5D_TUNE_DB`
    /// environment variable into this field; the library default stays
    /// `None` so embedders and tests never pick up a DB implicitly.
    /// Appends are `fsync`ed per record: an acknowledged `/tune` result
    /// must survive a crash, and tuning cost dwarfs the fsync.
    pub tune_db: Option<String>,
    /// Execution backend spec (`serial`, `vector[:N]` —
    /// see [`an5d::create_backend`]). `None` (the default) is `serial`;
    /// the `an5d-serve` binary resolves `--backend` / the `AN5D_BACKEND`
    /// environment variable into this field. An invalid spec is a hard
    /// startup error.
    pub backend: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7845".to_string(),
            workers: 4,
            queue_depth: 64,
            cache_capacity: 256,
            keep_alive_timeout: Duration::from_secs(5),
            max_requests_per_connection: 1000,
            tune_db: None,
            backend: None,
        }
    }
}

/// One complete parsed request travelling reactor → worker.
pub(crate) struct DispatchItem {
    /// The reactor's token for the owning connection.
    pub(crate) token: usize,
    /// The connection's socket, shared with the reactor so the worker
    /// can write the response itself. The `Arc` keeps the descriptor
    /// open (and so never reused) while the worker holds it.
    pub(crate) stream: Arc<TcpStream>,
    pub(crate) request: Request,
    /// Requests served on that connection including this one — the
    /// worker folds it into the keep-alive decision.
    pub(crate) served: usize,
}

/// A response the worker has rendered and started writing, travelling
/// worker → reactor.
pub(crate) struct Completion {
    pub(crate) token: usize,
    /// Whether the rendered `Connection:` header promised keep-alive;
    /// the reactor closes after the write when it did not.
    pub(crate) keep_alive: bool,
    /// The whole response, head and body.
    pub(crate) out: Vec<u8>,
    /// Bytes of `out` the worker's write put on the wire.
    pub(crate) out_pos: usize,
    /// What the worker's write reported: the reactor closes on
    /// `Failed`, finishes on `Done` and resumes under `POLLOUT` on
    /// `Blocked`.
    pub(crate) flush: Flush,
}

/// State shared between the reactor thread and the dispatch workers.
pub(crate) struct Shared {
    pub(crate) state: ServiceState,
    /// Bounded dispatch queue (reactor pushes, workers pop).
    pub(crate) queue: Mutex<VecDeque<DispatchItem>>,
    pub(crate) available: Condvar,
    /// Responses the workers have written, or started to (workers
    /// push, reactor drains after a wake).
    pub(crate) completions: Mutex<Vec<Completion>>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) queue_depth: usize,
    pub(crate) keep_alive_timeout: Duration,
    pub(crate) max_requests_per_connection: usize,
    /// Requests served on a connection that had already served at least
    /// one (i.e. saved TCP connection setups).
    pub(crate) reused_requests: AtomicU64,
    pub(crate) addr: SocketAddr,
    /// Nudges the reactor out of `poll` (completions, shutdown).
    pub(crate) waker: an5d_net::Waker,
}

impl Shared {
    /// Pop the next request; `None` once shut down and drained.
    fn pop(&self) -> Option<DispatchItem> {
        let mut queue = self.queue.lock().expect("dispatch queue poisoned");
        loop {
            if let Some(item) = queue.pop_front() {
                return Some(item);
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            queue = self.available.wait(queue).expect("dispatch queue poisoned");
        }
    }

    /// Flip the shutdown flag and wake the reactor and all workers.
    pub(crate) fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return; // already shutting down
        }
        // Notify while holding the queue mutex: a worker that has just
        // read `shutdown == false` under the lock is then either still
        // holding it (we wait; it parks; our notify wakes it) or already
        // parked in `wait` — without the lock the notification could
        // slip into the gap and be lost, leaving that worker (and
        // `Server::stop`) asleep forever.
        let guard = self.queue.lock().expect("dispatch queue poisoned");
        self.available.notify_all();
        drop(guard);
        // Wake the reactor out of `poll`; it notices the flag, stops
        // accepting and starts draining.
        self.waker.wake();
    }
}

/// Render a response to owned bytes exactly as it would hit the wire.
pub(crate) fn render_response(response: &Response, keep_alive: bool) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_response(&mut bytes, response, keep_alive).expect("writing to a Vec cannot fail");
    bytes
}

/// A running `an5d-serve` instance.
///
/// Dropping a `Server` without calling [`Server::stop`] or
/// [`Server::wait`] detaches the threads (the process keeps serving
/// until exit); tests and the binary always join explicitly.
pub struct Server {
    shared: Arc<Shared>,
    reactor_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.shared.addr)
            .field("workers", &self.worker_handles.len())
            .finish()
    }
}

impl Server {
    /// Bind and start serving on the backend [`ServerConfig::backend`]
    /// names (`serial` when it is `None`).
    ///
    /// # Errors
    ///
    /// Propagates bind failures; rejects an invalid
    /// [`ServerConfig::backend`] spec (an explicitly requested backend
    /// must not silently degrade to serial) and a
    /// [`ServerConfig::tune_db`] that names a file that exists but is not
    /// a tune DB — starting *without* the operator's requested
    /// persistence (silently re-tuning everything) would be worse than
    /// not starting.
    pub fn start(config: &ServerConfig) -> io::Result<Server> {
        let spec = config.backend.as_deref().unwrap_or("serial");
        let backend = an5d::create_backend(spec).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "unknown backend spec {spec:?} (expected one of {:?}, \
                     or vector:<threads>)",
                    an5d::available_backends()
                ),
            )
        })?;
        let mut state = ServiceState::new(backend, config.cache_capacity.max(1));
        if let Some(path) = &config.tune_db {
            state = state.with_tune_db(Arc::new(an5d::TuneDb::open(path)?.sync_on_append(true)));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let (waker, receiver) = an5d_net::wake()?;
        let shared = Arc::new(Shared {
            state,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            queue_depth: config.queue_depth.max(1),
            keep_alive_timeout: config.keep_alive_timeout.max(Duration::from_millis(1)),
            max_requests_per_connection: config.max_requests_per_connection.max(1),
            reused_requests: AtomicU64::new(0),
            addr,
            waker,
        });

        let reactor = Reactor::new(listener, Arc::clone(&shared), receiver)?;
        let reactor_handle = std::thread::Builder::new()
            .name("an5d-serve-reactor".to_string())
            .spawn(move || reactor.run())?;

        let workers = config.workers.max(1);
        let mut worker_handles = Vec::with_capacity(workers);
        for index in 0..workers {
            let worker_shared = Arc::clone(&shared);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("an5d-serve-worker-{index}"))
                    .spawn(move || worker_loop(&worker_shared))?,
            );
        }
        Ok(Server {
            shared,
            reactor_handle: Some(reactor_handle),
            worker_handles,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The shared service state (fleet, metrics registry, traces).
    #[must_use]
    pub fn state(&self) -> &ServiceState {
        &self.shared.state
    }

    /// Requests served over an already-used (kept-alive) connection —
    /// each one is a TCP connection setup the client did not pay.
    #[must_use]
    pub fn reused_requests(&self) -> u64 {
        self.shared.reused_requests.load(Ordering::Relaxed)
    }

    /// Request graceful shutdown and join every thread. Queued requests
    /// are answered before workers exit.
    ///
    /// # Panics
    ///
    /// Panics if a server thread panicked.
    pub fn stop(mut self) {
        self.shared.begin_shutdown();
        self.join();
    }

    /// Block until the server shuts down (via `POST /shutdown` or another
    /// thread calling [`Server::stop`]) and join every thread.
    ///
    /// # Panics
    ///
    /// Panics if a server thread panicked.
    pub fn wait(mut self) {
        self.join();
    }

    fn join(&mut self) {
        if let Some(handle) = self.reactor_handle.take() {
            handle.join().expect("reactor thread panicked");
        }
        for handle in self.worker_handles.drain(..) {
            handle.join().expect("worker thread panicked");
        }
    }
}

/// The dispatch-worker body: pop a parsed request, handle it, render
/// the response and write as much of it as the socket takes at once,
/// then hand the rest (usually nothing) back to the reactor.
fn worker_loop(shared: &Shared) {
    while let Some(item) = shared.pop() {
        let response = dispatch(&shared.state, &item.request);
        let shutting_down = item.request.method == "POST"
            && item.request.path == "/shutdown"
            && response.status == 200;
        let keep_alive = item.request.keep_alive
            && !shutting_down
            && item.served < shared.max_requests_per_connection
            && !shared.shutdown.load(Ordering::Acquire);
        let out = render_response(&response, keep_alive);
        let mut out_pos = 0;
        let flush = write_out(&*item.stream, &out, &mut out_pos);
        // The reactor owns the socket again from the push on.
        drop(item.stream);
        let completion = Completion {
            token: item.token,
            keep_alive,
            out,
            out_pos,
            flush,
        };
        shared
            .completions
            .lock()
            .expect("completion queue poisoned")
            .push(completion);
        if shutting_down {
            shared.begin_shutdown();
        }
        shared.waker.wake();
    }
}

/// Render the one-line startup banner used by the binary (and asserted
/// by the CI smoke test).
#[must_use]
pub fn banner(
    addr: SocketAddr,
    backend: &str,
    workers: usize,
    queue_depth: usize,
    devices: usize,
    tune_db: Option<&str>,
) -> String {
    Json::obj(vec![
        ("listening", Json::Str(format!("http://{addr}"))),
        ("backend", Json::str(backend)),
        ("workers", Json::Int(workers as i128)),
        ("queue_depth", Json::Int(queue_depth as i128)),
        ("devices", Json::Int(devices as i128)),
        ("tune_db", tune_db.map_or(Json::Null, Json::str)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    fn test_server_with(config: ServerConfig) -> Server {
        Server::start(&config).expect("bind ephemeral port")
    }

    fn test_server(workers: usize, queue_depth: usize) -> Server {
        test_server_with(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            queue_depth,
            cache_capacity: 64,
            ..ServerConfig::default()
        })
    }

    #[test]
    fn serves_metrics_and_shuts_down_cleanly() {
        let server = test_server(2, 16);
        let addr = server.addr();
        let (status, body) = client::get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\nan5d_plan_cache_capacity 64\n"), "{body}");
        let (status, body) = client::post(addr, "/shutdown", "").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, r#"{"ok":true}"#);
        server.wait();
    }

    #[test]
    fn config_backend_spec_selects_the_backend_and_rejects_typos() {
        let server = Server::start(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 4,
            cache_capacity: 16,
            backend: Some("vector:2".to_string()),
            ..ServerConfig::default()
        })
        .expect("valid spec starts");
        assert!(
            server.state().backend().describe().contains("vector"),
            "{}",
            server.state().backend().describe()
        );
        server.stop();

        let err = Server::start(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            backend: Some("vectr".to_string()),
            ..ServerConfig::default()
        });
        assert!(err.is_err(), "a typo'd backend must fail startup");
    }

    #[test]
    fn stop_joins_without_outside_help() {
        let server = test_server(1, 4);
        let addr = server.addr();
        let (status, _) = client::get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        server.stop();
    }

    #[test]
    fn bad_requests_get_error_responses_not_hangs() {
        let server = test_server(2, 16);
        let addr = server.addr();
        // Malformed request line.
        let (status, body) = client::raw(addr, "BOGUS\r\n\r\n").unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("error"));
        // Unknown endpoint.
        let (status, _) = client::post(addr, "/nope", "{}").unwrap();
        assert_eq!(status, 404);
        server.stop();
    }

    #[test]
    fn one_connection_serves_many_requests() {
        let server = test_server(2, 16);
        let addr = server.addr();
        let mut client = client::KeepAliveClient::new(addr);
        for round in 0..10 {
            let (status, body) = client.get("/metrics").unwrap();
            assert_eq!(status, 200, "round {round}: {body}");
            assert!(body.contains("\nan5d_plan_cache_capacity 64\n"));
        }
        assert_eq!(
            client.reused(),
            9,
            "9 of 10 requests must reuse the connection"
        );
        assert_eq!(server.reused_requests(), 9);
        server.stop();
    }

    #[test]
    fn pipelined_requests_on_one_connection_are_all_answered() {
        use std::io::{Read, Write};
        let server = test_server(1, 8);
        let addr = server.addr();
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Two back-to-back requests in one write; the second closes.
        stream
            .write_all(
                b"GET /metrics HTTP/1.1\r\n\r\n\
                  GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
            )
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert_eq!(
            raw.matches("HTTP/1.1 200 OK").count(),
            2,
            "both pipelined requests must be answered: {raw}"
        );
        assert!(raw.contains("Connection: keep-alive"));
        assert!(raw.contains("Connection: close"));
        server.stop();
    }

    #[test]
    fn request_bound_closes_the_connection_and_the_client_reconnects() {
        let server = test_server_with(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            cache_capacity: 64,
            max_requests_per_connection: 3,
            ..ServerConfig::default()
        });
        let addr = server.addr();
        let mut client = client::KeepAliveClient::new(addr);
        for round in 0..10 {
            let (status, _) = client.get("/metrics").unwrap();
            assert_eq!(status, 200, "round {round}");
        }
        // Connections are recycled every 3 requests, so fewer than 9
        // reuses — but the client kept going transparently.
        assert!(client.reused() < 9, "reused {}", client.reused());
        assert!(client.reused() >= 6, "reused {}", client.reused());
        server.stop();
    }

    #[test]
    fn idle_keep_alive_connections_are_reaped_quickly() {
        let server = test_server_with(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 8,
            cache_capacity: 64,
            keep_alive_timeout: Duration::from_millis(50),
            ..ServerConfig::default()
        });
        let addr = server.addr();
        let mut client = client::KeepAliveClient::new(addr);
        let (status, _) = client.get("/metrics").unwrap();
        assert_eq!(status, 200);
        // Sit idle past the server's keep-alive timeout; the reactor
        // reaps the parked connection (a clean close, not an abort)...
        std::thread::sleep(Duration::from_millis(200));
        let snap = server.state().metrics().connections.snapshot();
        assert_eq!(snap.open, 0, "idle connection must be reaped: {snap:?}");
        assert_eq!(snap.aborted, 0, "idle reap is clean: {snap:?}");
        let (status, _) = client::get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        // ...and the idle client reconnects transparently.
        let (status, _) = client.get("/metrics").unwrap();
        assert_eq!(status, 200);
        server.stop();
    }

    #[test]
    fn a_request_may_outlast_the_keep_alive_it_was_parked_under() {
        let server = test_server_with(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 8,
            cache_capacity: 64,
            keep_alive_timeout: Duration::from_millis(50),
            ..ServerConfig::default()
        });
        let addr = server.addr();
        let mut client = client::KeepAliveClient::new(addr);
        let (status, _) = client.get("/metrics").unwrap();
        assert_eq!(status, 200);
        // The connection is parked under the 50 ms keep-alive; a request
        // whose handling outlasts it must not be reaped by that deadline.
        // The debug build's scalar executor is ~60× slower than release.
        let steps = if cfg!(debug_assertions) { 8 } else { 256 };
        let body = format!(
            r#"{{"benchmark":"j2d5pt","interior":[512,512],"steps":{steps},
                 "config":{{"bt":4,"bs":[128],"precision":"double"}}}}"#
        );
        let sent = std::time::Instant::now();
        let (status, body) = client.post("/execute", &body).unwrap();
        let took = sent.elapsed();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"checksum\""), "{body}");
        assert_eq!(client.reused(), 1, "both requests on one connection");
        assert!(
            took > Duration::from_millis(50),
            "/execute took only {took:?}: the test needs one slower than the keep-alive"
        );
        let snap = server.state().metrics().connections.snapshot();
        assert_eq!(snap.aborted, 0, "{snap:?}");
        server.stop();
    }

    #[test]
    fn shutdown_is_not_delayed_by_idle_keep_alive_connections() {
        // A parked idle connection must not delay shutdown: the reactor
        // closes parked connections as soon as the flag is set.
        let server = test_server_with(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 8,
            cache_capacity: 64,
            keep_alive_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        });
        let addr = server.addr();
        let mut idle = client::KeepAliveClient::new(addr);
        let (status, _) = idle.get("/metrics").unwrap();
        assert_eq!(status, 200);
        // The connection now sits parked in the reactor.
        let started = std::time::Instant::now();
        server.stop();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "stop() took {:?} with an idle keep-alive connection",
            started.elapsed()
        );
    }

    #[test]
    fn keep_alive_connections_do_not_starve_queued_clients() {
        // More persistent clients than workers: with one worker, idle
        // connections park in the reactor instead of pinning the worker,
        // so a second keep-alive client is served promptly.
        let server = test_server_with(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 8,
            cache_capacity: 64,
            keep_alive_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        });
        let addr = server.addr();
        let mut first = client::KeepAliveClient::new(addr);
        let (status, _) = first.get("/metrics").unwrap();
        assert_eq!(status, 200);
        // The first connection is now idle (parked).
        let mut second = client::KeepAliveClient::new(addr);
        let started = std::time::Instant::now();
        let (status, _) = second.get("/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "second client waited {:?} behind an idle keep-alive connection",
            started.elapsed()
        );
        // Both clients keep interleaving on the single worker.
        for _ in 0..5 {
            assert_eq!(first.get("/metrics").unwrap().0, 200);
            assert_eq!(second.get("/metrics").unwrap().0, 200);
        }
        server.stop();
    }

    #[test]
    fn explicit_connection_close_is_honoured() {
        let server = test_server(1, 8);
        let addr = server.addr();
        let (status, body) =
            client::raw(addr, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\nan5d_plan_cache_capacity 64\n"));
        assert_eq!(server.reused_requests(), 0);
        server.stop();
    }

    #[test]
    fn connection_gauges_reflect_parked_connections() {
        let server = test_server(2, 16);
        let addr = server.addr();
        let mut clients: Vec<client::KeepAliveClient> =
            (0..5).map(|_| client::KeepAliveClient::new(addr)).collect();
        for client in &mut clients {
            let (status, _) = client.get("/metrics").unwrap();
            assert_eq!(status, 200);
        }
        // All five connections are now idle between requests: parked.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let snap = server.state().metrics().connections.snapshot();
            if snap.parked == 5 && snap.open == 5 {
                assert_eq!(snap.accepted, 5);
                assert_eq!(snap.active(), 0);
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "gauges never settled: {snap:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // /metrics exposes the same numbers.
        let (status, text) = client::get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(
            text.contains("an5d_connections_parked 5"),
            "parked gauge missing: {}",
            text.lines()
                .filter(|l| l.contains("an5d_connections"))
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(text.contains("an5d_connections_aborted 0"), "no aborts");
        drop(clients);
        server.stop();
    }

    #[test]
    fn truncated_request_counts_as_aborted() {
        use std::io::Write;
        let server = test_server(1, 8);
        let addr = server.addr();
        // Die mid-request: headers cut off without the blank line.
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /parse HTTP/1.1\r\nContent-Le")
            .unwrap();
        drop(stream); // FIN mid-request
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let snap = server.state().metrics().connections.snapshot();
            if snap.aborted == 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "abort never counted: {snap:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // A clean EOF between requests is NOT an abort.
        let mut client = client::KeepAliveClient::new(addr);
        let (status, _) = client.get("/metrics").unwrap();
        assert_eq!(status, 200);
        drop(client); // clean keep-alive teardown
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let snap = server.state().metrics().connections.snapshot();
            if snap.open == 0 {
                assert_eq!(snap.aborted, 1, "clean EOF must not count: {snap:?}");
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "close never observed: {snap:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        server.stop();
    }
}
