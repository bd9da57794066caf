//! `an5d-serve`: a concurrent HTTP service in front of the AN5D
//! tune → plan → codegen → execute pipeline.
//!
//! The ROADMAP's north star is a production-scale system serving heavy
//! traffic; this crate is that serving layer. Instead of every consumer
//! linking the crates and driving the [`an5d::An5d`] facade in-process,
//! a long-running `an5d-serve` process exposes the Section 6.3 flow as
//! JSON-over-HTTP endpoints in front of a **device fleet**
//! ([`fleet::Fleet`]): every GPU profile in the
//! [`an5d::DeviceRegistry`] gets a shard holding what is per device —
//! its profile and its `device`-labelled metric series — and a
//! request naming a `"device"` is answered for, and counted on, that
//! device. Plans do not depend on the device, so the fleet keeps one
//! plan cache and one [`an5d::BatchDriver`] for all of them. Tuning
//! results *are* device-specific; repeated per-device tuning queries are
//! what the persisted tune DB absorbs.
//!
//! Everything is std-only: the build environment has no crates.io
//! access, so the crate carries its own minimal [`json`] codec and
//! [`http`] framing, and the connection layer is a hand-rolled reactor
//! over the `poll(2)` shim in `an5d-net` (the one crate in the
//! workspace allowed `unsafe`; this one keeps `forbid(unsafe_code)`).
//!
//! # Endpoints
//!
//! | Endpoint | Method | Purpose |
//! |---|---|---|
//! | `/parse` | POST | DSL C source → detected stencil summary |
//! | `/plan` | POST | blocking config → geometry/resource summary |
//! | `/predict` | POST | Section 5 model prediction on a device |
//! | `/tune` | POST | Section 6.3 tuner over a search space |
//! | `/codegen` | POST | CUDA kernel + host source |
//! | `/execute` | POST | blocked run: checksum + traffic counters |
//! | `/devices` | GET | registered GPU profiles + routing default |
//! | `/metrics` | GET | every family of the metrics registry, as Prometheus text |
//! | `/trace` | GET | recently completed request traces; `?id=` for one span tree |
//! | `/shutdown` | POST | graceful shutdown (drains the queue) |
//!
//! Every pipeline response carries an `x-an5d-trace` header whose id can
//! be fed back to `GET /trace?id=` to inspect the per-stage span tree
//! (parse → plan → tune sweep → codegen → execute) recorded while the
//! request ran.
//!
//! Responses are deterministic byte-for-byte: the same request always
//! produces the same body, bit-identical to a direct facade call
//! (`tests/service_integration.rs` and the `serve` workload of
//! `benchmark/` assert this under concurrent mixed traffic). Overload
//! is shed at admission: when the bounded
//! dispatch queue is full, the offending *request* gets an immediate
//! `503` (idle connections are nearly free and are never shed).
//!
//! There is one body path: every response is rendered once on the
//! worker and written as one `Content-Length` buffer. A list of jobs is
//! a list of `/execute` requests pipelined on one keep-alive connection:
//! they are answered in order, each by its worker as soon as its job
//! finishes, and each gets its own status, trace and deadline.
//!
//! Requests may carry an `x-an5d-deadline-ms` budget ([`DEADLINE_HEADER`]):
//! one that has already expired at dispatch is shed with `503` +
//! `Retry-After` without ever occupying a worker, and one that expires
//! mid-processing (the tuner checkpoints between candidates) is
//! answered `504` with a structured partial-progress body. All `503`
//! sheds carry `Retry-After`; [`client::RetryPolicy`] honors it with
//! capped, seeded-jitter exponential backoff on idempotent requests. A
//! deterministic fault-injection plan, installed in process with
//! `an5d_fault::install`, drives the `tests/chaos.rs` soak against
//! exactly this machinery.
//!
//! Connections are **persistent** (HTTP/1.1 keep-alive) and owned by a
//! single reactor thread: an idle connection parks in the reactor's
//! `poll(2)` set, costing no worker at all, until the client sends
//! `Connection: close`, the keep-alive idle timeout expires, or the
//! per-connection request bound is reached (both configurable through
//! [`ServerConfig`]). Only connections with a *complete parsed request*
//! (see [`RequestParser`]) occupy a dispatch worker, which is what lets
//! `workers = 4` hold a mass of open keep-alive connections for free
//! (`tests/connection_layer.rs` parks 400 and bounds what they cost
//! the active ones; `/metrics` gauges
//! `an5d_connections_{open,parked,active}` watch it live). The
//! [`client::KeepAliveClient`] reuses one connection across requests;
//! the one-request [`client::get`]/[`client::post`] helpers go through
//! the same exchange with `Connection: close`.
//!
//! Every counter, gauge and histogram the process keeps lives in one
//! typed [`an5d_obs::Registry`] ([`ServiceState::registry`]): a series
//! is registered once, where it is recorded ([`metrics`], [`fleet`],
//! [`handlers`]), and `/metrics` is the one view of its snapshot
//! ([`telemetry`]).
//!
//! # Example
//!
//! ```
//! use an5d_service::{client, Server, ServerConfig};
//!
//! let server = Server::start(&ServerConfig {
//!     addr: "127.0.0.1:0".to_string(), // ephemeral port
//!     ..ServerConfig::default()
//! })?;
//! let addr = server.addr();
//!
//! let (status, body) = client::post(
//!     addr,
//!     "/plan",
//!     r#"{"benchmark":"j2d5pt","interior":[64,64],"steps":8,
//!         "config":{"bt":2,"bs":[32],"precision":"double"}}"#,
//! )?;
//! assert_eq!(status, 200);
//! assert!(body.contains("\"nthr\""));
//!
//! let (status, _) = client::post(addr, "/shutdown", "")?;
//! assert_eq!(status, 200);
//! server.wait();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod fleet;
pub mod handlers;
pub mod http;
pub mod metrics;
mod reactor;
mod server;
pub mod telemetry;

/// The deterministic JSON layer — owned by `an5d-tunedb` (the lowest
/// crate that persists JSON) and re-exported here for the HTTP API.
pub use an5d_tunedb::json;
pub use an5d_tunedb::TUNE_DB_ENV;

pub use client::{HttpResponse, KeepAliveClient, RetryPolicy};
pub use fleet::{Fleet, FleetShard, ShardTuneDbStats};
pub use handlers::{
    dispatch, ServiceState, DEFAULT_SLOW_THRESHOLD, DEFAULT_TRACE_CAPACITY, ENDPOINTS,
};
pub use http::{Parse, Request, RequestParser, Response, DEADLINE_HEADER, MAX_DEADLINE_MS};
pub use json::{parse as parse_json, Json, JsonError};
pub use metrics::{ConnectionSnapshot, ConnectionStats, EndpointSeries, MeteredBackend, Metrics};
pub use server::{banner, Server, ServerConfig};
