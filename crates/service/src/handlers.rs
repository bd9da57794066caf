//! Endpoint handlers: JSON request → `An5d` facade → JSON response.
//!
//! Every handler goes through the server's [`Fleet`]: the request's
//! `"device"` (resolved through the [`an5d::DeviceRegistry`]) picks the
//! profile `/predict` and `/tune` answer for and the shard the request
//! is counted on; `/plan`, `/predict` and `/codegen` plan through the
//! fleet's one plan cache. Latency is recorded per endpoint in the
//! shared [`Metrics`] and per named device in its shard — both handles
//! into the state's one metrics [`Registry`], which `/metrics` renders.
//! Handlers are plain functions over [`ServiceState`] — the integration
//! tests and `benchmark/` call [`dispatch`] directly to compute the
//! exact bytes the server must produce.

use crate::api::{self, ApiError};
use crate::fleet::{Fleet, FleetShard};
use crate::http::{Request, Response};
use crate::json::{self, Json};
use crate::metrics::{MeteredBackend, Metrics};
use crate::telemetry;
use an5d::{
    generate_cuda_for_plan, parse_stencil, predict, DeviceRegistry, ExecutionBackend,
    FrameworkScheme,
};
use an5d_obs::{ActiveTrace, Registry, Span, TraceId, TraceRing};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Completed traces retained for `GET /trace`.
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

/// Latency above which a request is logged as slow.
pub(crate) const DEFAULT_SLOW_THRESHOLD: Duration = Duration::from_secs(1);

/// The endpoints served, with the method each accepts.
pub(crate) const ENDPOINTS: &[(&str, &str)] = &[
    ("GET", "/devices"),
    ("GET", "/metrics"),
    ("GET", "/trace"),
    ("POST", "/parse"),
    ("POST", "/plan"),
    ("POST", "/predict"),
    ("POST", "/tune"),
    ("POST", "/codegen"),
    ("POST", "/execute"),
    ("POST", "/shutdown"),
];

/// Shared, thread-safe service state: one per server, referenced by every
/// connection worker.
pub struct ServiceState {
    backend: Arc<dyn ExecutionBackend>,
    fleet: Fleet,
    registry: Arc<Registry>,
    metrics: Metrics,
    traces: Arc<TraceRing>,
}

impl std::fmt::Debug for ServiceState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceState")
            .field("backend", &self.backend.describe())
            .field("fleet", &self.fleet)
            .finish()
    }
}

impl ServiceState {
    /// State executing on `backend`, serving the standard device fleet
    /// (V100, P100, A100, small) with one plan cache of `cache_capacity`.
    #[must_use]
    pub fn new(backend: Arc<dyn ExecutionBackend>, cache_capacity: usize) -> Self {
        let metrics_registry = Arc::new(Registry::new());
        let metrics = Metrics::new(&metrics_registry, ENDPOINTS.iter().map(|(_, path)| *path));
        metrics_registry
            .gauge(
                "an5d_backend_info",
                "Constant 1; the label describes the execution backend.",
                &[("backend", &backend.describe())],
            )
            .set(1);
        // Meter every backend.execute so /metrics can report execute
        // latency per backend name; the wrapper delegates verbatim, so
        // results are unchanged.
        let backend: Arc<dyn ExecutionBackend> =
            Arc::new(MeteredBackend::new(backend, &metrics_registry));
        let fleet = Fleet::new(
            &backend,
            DeviceRegistry::standard(),
            cache_capacity,
            &metrics_registry,
        );
        register_pool_series(&metrics_registry);
        let traces = Arc::new(TraceRing::new(DEFAULT_TRACE_CAPACITY));
        let ring = Arc::clone(&traces);
        metrics_registry.sampled_gauge(
            "an5d_trace_ring_size",
            "Completed traces currently retained.",
            &[],
            move || ring.len() as u64,
        );
        Self {
            backend,
            fleet,
            traces,
            registry: metrics_registry,
            metrics,
        }
    }

    /// Attach a persisted tuning database (see [`Fleet::with_tune_db`]):
    /// `/tune` reads through it and appends fresh results, and the
    /// database-wide record and log counts join the metrics registry.
    #[must_use]
    pub fn with_tune_db(mut self, db: Arc<an5d::TuneDb>) -> Self {
        self.fleet = self.fleet.with_tune_db(db);
        self
    }

    /// The device fleet (registry, per-device shards, plan cache).
    #[must_use]
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The metrics registry `/metrics` renders. A series registered
    /// here — by this crate or by an embedder — appears there.
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Handles to the series the service itself records.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The execution backend blocked runs go through.
    #[must_use]
    pub fn backend(&self) -> &Arc<dyn ExecutionBackend> {
        &self.backend
    }

    /// The ring of recently completed request traces.
    #[must_use]
    pub fn traces(&self) -> &TraceRing {
        &self.traces
    }
}

/// The process-wide pool keeps its own counts and histogram; expose them
/// as series sampled at scrape.
fn register_pool_series(registry: &Registry) {
    let pool = an5d::global_pool();
    registry.sampled_counter(
        "an5d_pool_items_executed_total",
        "Items executed by completed batches.",
        &[],
        || pool.stats().items_executed,
    );
    registry.sampled_counter(
        "an5d_pool_batches_executed_total",
        "Batches fully completed.",
        &[],
        || pool.stats().batches_executed,
    );
    registry.sampled_histogram(
        "an5d_pool_batch_wall_us",
        "Completed-batch wall time, microseconds.",
        &[],
        || pool.batch_wall_snapshot(),
    );
}

fn ok(body: Json) -> Response {
    Response::new(200, body.render())
}

fn bad_request(message: &str) -> Response {
    Response::new(400, api::error_body(message))
}

/// Dispatch one parsed request to its handler, recording metrics.
///
/// `/shutdown` is *answered* here (so its body is uniform) but the
/// actual shutdown signal is the server loop's job — it watches for this
/// path before writing the response.
pub fn dispatch(state: &ServiceState, request: &Request) -> Response {
    let known = ENDPOINTS.iter().find(|(_, path)| *path == request.path);
    let Some(&(method, path)) = known else {
        return Response::new(
            404,
            api::error_body(&format!("no such endpoint {}", request.path)),
        );
    };
    if request.method != method {
        return Response::new(
            405,
            api::error_body(&format!("{path} expects {method}, got {}", request.method)),
        );
    }
    // Trace every pipeline request; the observability reads themselves
    // (`/metrics`, `/trace`) are exempt so scrapes don't churn the ring.
    let traced = !matches!(path, "/metrics" | "/trace");
    let trace = traced.then(ActiveTrace::begin);
    // Make the request's deadline ambient for this thread: the tuner
    // checkpoints read it through `an5d_fault::current_deadline()`, and
    // pool batches capture it the way they capture the trace context.
    let _deadline_guard = request.deadline.map(an5d_fault::Deadline::install);
    let started = Instant::now();
    let response = if request.deadline.is_some_and(|d| d.expired()) {
        // Expired between reactor admission and worker pickup: answer
        // without doing work the client has already given up on.
        state.metrics.deadline_expired.inc();
        Response::new(
            504,
            api::deadline_error_body("deadline expired before processing began", 0, 0),
        )
    } else {
        let _span = Span::enter(path);
        handle(state, path, request)
    };
    let elapsed = started.elapsed();
    state
        .metrics
        .endpoint(path)
        .record(elapsed, response.status < 300);
    match trace {
        Some(trace) => {
            let id = trace.id();
            state.traces.push(trace.finish());
            if elapsed >= DEFAULT_SLOW_THRESHOLD {
                eprintln!(
                    "[an5d-serve] slow request: {method} {path} took {}us \
                     (threshold {}us) trace={id}",
                    elapsed.as_micros(),
                    DEFAULT_SLOW_THRESHOLD.as_micros(),
                );
            }
            response.with_trace(id.to_string())
        }
        None => response,
    }
}

fn handle(state: &ServiceState, path: &str, request: &Request) -> Response {
    match path {
        "/metrics" => Response::text(
            200,
            telemetry::render_prometheus(&state.registry.snapshot()),
        ),
        "/trace" => trace_endpoint(state, request),
        "/devices" => ok(api::devices_response(state.fleet.registry())),
        "/shutdown" => ok(Json::obj(vec![("ok", Json::Bool(true))])),
        _ => {
            let parsed = match parse_body(&request.body) {
                Ok(parsed) => parsed,
                Err(response) => return response,
            };
            let result = match path {
                "/parse" => parse_endpoint(&parsed),
                "/plan" => plan_endpoint(state, &parsed),
                "/predict" => predict_endpoint(state, &parsed),
                "/tune" => tune_endpoint(state, &parsed, request.query_flag("refresh")),
                "/codegen" => codegen_endpoint(state, &parsed),
                "/execute" => execute_endpoint(state, &parsed),
                _ => unreachable!("ENDPOINTS and handle() cover the same paths"),
            };
            match result {
                Ok(body) => ok(body),
                Err(e) => match e.deadline {
                    Some((completed, total)) => {
                        state.metrics.deadline_expired.inc();
                        Response::new(504, api::deadline_error_body(&e.message, completed, total))
                    }
                    None => bad_request(&e.message),
                },
            }
        }
    }
}

fn parse_body(body: &[u8]) -> Result<Json, Response> {
    let text =
        std::str::from_utf8(body).map_err(|_| bad_request("request body is not valid UTF-8"))?;
    if text.trim().is_empty() {
        return Err(bad_request("request body must be a JSON object"));
    }
    json::parse(text).map_err(|e| bad_request(&e.to_string()))
}

/// `GET /trace` lists the retained traces; `GET /trace?id=<hex>` (the
/// value echoed in the `x-an5d-trace` response header) returns that
/// trace's full span tree.
fn trace_endpoint(state: &ServiceState, request: &Request) -> Response {
    match request.query_param("id") {
        None => ok(telemetry::traces_summary(state)),
        Some(raw) => {
            let Some(id) = TraceId::parse(raw) else {
                return bad_request(&format!("malformed trace id {raw:?}"));
            };
            match state.traces.get(id) {
                Some(trace) => ok(telemetry::trace_detail(&trace)),
                None => Response::new(
                    404,
                    api::error_body(&format!("no retained trace with id {id}")),
                ),
            }
        }
    }
}

fn parse_endpoint(body: &Json) -> Result<Json, ApiError> {
    let source = body
        .get("source")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::new("missing required field \"source\""))?;
    let name = body
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::new("missing required field \"name\""))?;
    let detected = parse_stencil(source, name).map_err(|e| ApiError::new(e.to_string()))?;
    Ok(api::parse_response(&detected))
}

/// The shard of the device the request names; `None` when it names
/// none.
///
/// # Errors
///
/// An unknown `"device"` is rejected on every endpoint, also on those
/// whose response does not depend on it.
fn named_shard<'a>(
    state: &'a ServiceState,
    body: &Json,
) -> Result<Option<&'a FleetShard>, ApiError> {
    let id = api::device_from(body, state.fleet.registry())?;
    Ok(id.map(|id| {
        state
            .fleet
            .shard(&id)
            .expect("the fleet has a shard for every registry id")
    }))
}

/// The shard `/predict` and `/tune` answer for: the named device, or the
/// registry's default so their responses stay deterministic.
fn named_or_default_shard<'a>(
    state: &'a ServiceState,
    body: &Json,
) -> Result<&'a FleetShard, ApiError> {
    Ok(named_shard(state, body)?.unwrap_or_else(|| state.fleet.default_shard()))
}

/// Run a handler whose response does not depend on the device, counted
/// on a shard only when the request named one.
fn observed<T>(
    state: &ServiceState,
    body: &Json,
    f: impl FnOnce() -> Result<T, ApiError>,
) -> Result<T, ApiError> {
    match named_shard(state, body)? {
        Some(shard) => shard.observe(f),
        None => f(),
    }
}

/// The shared front half of `/plan`, `/predict` and `/codegen`: extract
/// stencil + problem + config + scheme and plan through the fleet's
/// cache.
fn planned(
    state: &ServiceState,
    body: &Json,
) -> Result<(an5d::StencilProblem, Arc<an5d::KernelPlan>), ApiError> {
    let pipeline = api::pipeline_from(body)?;
    let problem = api::problem_from(body, &pipeline)?;
    let config = api::config_from(body)?;
    let plan = state
        .fleet
        .plan(pipeline.def(), &problem, &config, pipeline.scheme())
        .map_err(|e| ApiError::new(e.to_string()))?;
    Ok((problem, plan))
}

fn plan_endpoint(state: &ServiceState, body: &Json) -> Result<Json, ApiError> {
    observed(state, body, || {
        let (_, plan) = planned(state, body)?;
        Ok(api::plan_response(&plan))
    })
}

fn predict_endpoint(state: &ServiceState, body: &Json) -> Result<Json, ApiError> {
    let shard = named_or_default_shard(state, body)?;
    shard.observe(|| {
        let (problem, plan) = planned(state, body)?;
        Ok(api::predict_response(&predict(
            &plan,
            &problem,
            shard.device(),
        )))
    })
}

/// Preserve deadline-expiry structure when a tuner error crosses into
/// the API layer, so the dispatcher can answer `504` with progress.
fn tune_error(e: an5d::An5dError) -> ApiError {
    match e.deadline_progress() {
        Some((completed, total)) => ApiError::deadline_exceeded(e.to_string(), completed, total),
        None => ApiError::new(e.to_string()),
    }
}

/// `/tune`: read-through the persisted tuning DB when one is attached —
/// a stored result for the exact key is answered without invoking the
/// tuner (and byte-identically, since tuning is deterministic and the
/// record codec round-trips every `f64`); a miss tunes and appends.
/// `?refresh=true` bypasses the stored record and overwrites it.
fn tune_endpoint(state: &ServiceState, body: &Json, refresh: bool) -> Result<Json, ApiError> {
    let shard = named_or_default_shard(state, body)?;
    shard.observe(|| {
        let pipeline = api::pipeline_from(body)?;
        let problem = api::problem_from(body, &pipeline)?;
        let precision = api::precision_from(body)?;
        let space = api::space_from(body, pipeline.def().ndim(), precision)?;
        let result = match state.fleet.tune_db() {
            Some(db) => {
                let outcome = pipeline
                    .tune_with_db(&problem, shard.id(), shard.device(), &space, db, refresh)
                    .map_err(tune_error)?;
                shard.record_tune(outcome.from_db, refresh);
                if let Some(err) = &outcome.persist_error {
                    // Durability degraded, not correctness: the answer is
                    // still served; the failure is counted and logged.
                    state.metrics.tunedb_append_failures.inc();
                    eprintln!("[an5d-serve] tunedb append failed (result still served): {err}");
                }
                outcome.result
            }
            None => {
                shard.record_dbless_tune();
                pipeline
                    .tune(&problem, shard.device(), &space)
                    .map_err(tune_error)?
            }
        };
        Ok(api::tune_response(&result))
    })
}

/// `/codegen`: the code generator prints AN5D's kernel (fixed registers,
/// two shared buffers) only, so a plan under another scheme is refused
/// rather than printed as a kernel that scheme would not run.
fn codegen_endpoint(state: &ServiceState, body: &Json) -> Result<Json, ApiError> {
    observed(state, body, || {
        let (_, plan) = planned(state, body)?;
        let scheme = plan.scheme();
        if scheme.name() != FrameworkScheme::an5d().name() {
            return Err(ApiError::new(format!(
                "the code generator prints AN5D's kernel only, not the \"{}\" scheme's",
                scheme.canonical_name()
            )));
        }
        Ok(api::codegen_response(&generate_cuda_for_plan(&plan)))
    })
}

fn execute_endpoint(state: &ServiceState, body: &Json) -> Result<Json, ApiError> {
    observed(state, body, || {
        let job = api::batch_job_from(body)?;
        let outcome = state
            .fleet
            .driver()
            .run_job(&job)
            .map_err(|e| match e.error {
                an5d::BatchFailure::DeadlineExceeded => {
                    // The batch checkpoint refused the job: 0 of 1 items
                    // ran within the request's budget.
                    ApiError::deadline_exceeded(e.to_string(), 0, 1)
                }
                _ => ApiError::new(e.to_string()),
            })?;
        Ok(api::execute_response(&outcome))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d::SerialBackend;

    fn state() -> ServiceState {
        ServiceState::new(Arc::new(SerialBackend), 64)
    }

    fn post(state: &ServiceState, path: &str, body: &str) -> Response {
        dispatch(state, &Request::new("POST", path, body.as_bytes()))
    }

    /// The value of the sample line `series` (`name{labels}`, as
    /// printed) in a fresh `GET /metrics`; `None` when it is absent.
    fn sample(state: &ServiceState, series: &str) -> Option<u64> {
        let response = dispatch(state, &Request::new("GET", "/metrics", b""));
        assert_eq!(response.status, 200);
        let prefix = format!("{series} ");
        let mut lines = response.body.lines();
        lines.find_map(|line| line.strip_prefix(&prefix)?.parse().ok())
    }

    /// Requests counted on one device's shard, read from `/metrics`.
    fn shard_requests(state: &ServiceState, device: &str) -> usize {
        let series = format!("an5d_shard_requests_total{{device=\"{device}\"}}");
        sample(state, &series).expect("every device") as usize
    }

    #[test]
    fn unknown_path_and_wrong_method_are_rejected() {
        let state = state();
        assert_eq!(post(&state, "/nope", "{}").status, 404);
        let get_tune = Request::new("GET", "/tune", b"");
        assert_eq!(dispatch(&state, &get_tune).status, 405);
    }

    #[test]
    fn malformed_bodies_get_400s() {
        let state = state();
        assert_eq!(post(&state, "/plan", "").status, 400);
        assert_eq!(post(&state, "/plan", "{not json").status, 400);
        assert_eq!(post(&state, "/plan", "{}").status, 400);
        assert_eq!(
            post(&state, "/execute", r#"{"benchmark":"nope"}"#).status,
            400
        );
        // An unknown (or display-cased) scheme, on every pipeline endpoint.
        for scheme in ["nope", "AN5D"] {
            let spec = format!(
                r#"{{"benchmark":"j2d5pt","interior":[24,24],"steps":5,"scheme":"{scheme}",
                    "precision":"double","config":{{"bt":2,"bs":[12],"precision":"double"}}}}"#
            );
            for path in ["/plan", "/predict", "/codegen", "/tune", "/execute"] {
                let response = post(&state, path, &spec);
                assert_eq!(response.status, 400, "{path}: {}", response.body);
                assert!(response.body.contains("scheme"), "{path}");
            }
        }
    }

    #[test]
    fn three_blocked_extents_get_a_400() {
        let state = state();
        for (name, interior) in [("j2d5pt", "[64,64]"), ("star3d1r", "[64,64,64]")] {
            let body = format!(
                r#"{{"benchmark":"{name}","interior":{interior},"steps":4,
                    "config":{{"bt":1,"bs":[64,64,64],"precision":"single"}}}}"#
            );
            let response = post(&state, "/plan", &body);
            assert_eq!(response.status, 400, "{name}: {}", response.body);
            assert!(response.body.contains("at most 2"), "{}", response.body);
        }
    }

    #[test]
    fn codegen_prints_the_an5d_schemes_only() {
        let state = state();
        let body = |scheme: &str| {
            format!(
                r#"{{"benchmark":"j2d5pt","interior":[256,256],"steps":8,"scheme":"{scheme}",
                     "precision":"double","space":"quick",
                     "config":{{"bt":2,"bs":[32],"precision":"double"}}}}"#
            )
        };
        for scheme in ["an5d", "an5d_no_associative"] {
            let response = post(&state, "/codegen", &body(scheme));
            assert_eq!(response.status, 200, "{scheme}: {}", response.body);
            assert!(response.body.contains("__global__"), "{scheme}");
        }
        let response = post(&state, "/codegen", &body("stencilgen"));
        assert_eq!(response.status, 400, "{}", response.body);
        assert!(
            response.body.contains("AN5D's kernel only"),
            "{}",
            response.body
        );
        // The scheme itself is valid: the other endpoints still plan it.
        for path in ["/plan", "/predict", "/tune"] {
            let response = post(&state, path, &body("stencilgen"));
            assert_eq!(response.status, 200, "{path}: {}", response.body);
        }
    }

    #[test]
    fn plan_and_codegen_share_the_cache() {
        let state = state();
        let body = r#"{"benchmark":"j2d5pt","interior":[64,64],"steps":8,
                       "config":{"bt":2,"bs":[32],"precision":"double"}}"#;
        assert_eq!(post(&state, "/plan", body).status, 200);
        let misses = state.fleet().aggregate_cache_stats().misses;
        assert_eq!(misses, 1);
        // Same key through a different endpoint: served from the cache.
        let response = post(&state, "/codegen", body);
        assert_eq!(response.status, 200);
        assert!(response.body.contains("__global__"));
        let stats = state.fleet().aggregate_cache_stats();
        assert_eq!(stats.misses, misses);
        assert!(stats.hits >= 1);
    }

    #[test]
    fn named_devices_route_to_their_own_shard() {
        let state = state();
        let request = |device: &str| {
            format!(
                r#"{{"benchmark":"j2d5pt","interior":[64,64],"steps":8,"device":"{device}",
                     "config":{{"bt":2,"bs":[32],"precision":"double"}}}}"#
            )
        };
        let v = post(&state, "/predict", &request("v100"));
        let p = post(&state, "/predict", &request("p100"));
        assert_eq!((v.status, p.status), (200, 200));
        // A plan has no device in it: the one built for v100 answers p100.
        let cache = state.fleet().aggregate_cache_stats();
        assert_eq!((cache.misses, cache.hits, cache.entries), (1, 1, 1));
        assert_eq!(shard_requests(&state, "v100"), 1);
        assert_eq!(shard_requests(&state, "p100"), 1);
        assert_eq!(shard_requests(&state, "a100"), 0);
        // Predictions differ across devices: the shard's profile was used.
        assert_ne!(v.body, p.body, "device-specific predictions");
    }

    #[test]
    fn only_named_devices_are_counted_and_unknown_ones_are_rejected_everywhere() {
        let state = state();
        let body = |device: &str| {
            format!(
                r#"{{"benchmark":"j2d5pt","interior":[24,24],"steps":5,{device}
                     "precision":"single","space":"quick",
                     "config":{{"bt":2,"bs":[12],"precision":"double"}}}}"#
            )
        };
        let counted = || -> Vec<usize> {
            let shards = state.fleet().shards();
            shards
                .map(|shard| shard_requests(&state, shard.id().as_str()))
                .collect()
        };
        // Shards in id order: a100, p100, small, v100.
        for path in ["/plan", "/codegen", "/execute"] {
            assert_eq!(post(&state, path, &body("")).status, 200, "{path}");
        }
        assert_eq!(counted(), [0, 0, 0, 0], "device-agnostic requests");
        for path in ["/predict", "/tune"] {
            assert_eq!(post(&state, path, &body("")).status, 200, "{path}");
        }
        assert_eq!(counted(), [0, 0, 0, 2], "the default device answers");
        let paths = ["/plan", "/predict", "/tune", "/codegen", "/execute"];
        for path in paths {
            let named = body(r#""device":"P100","#);
            assert_eq!(post(&state, path, &named).status, 200, "{path}");
        }
        assert_eq!(
            counted(),
            [0, 5, 0, 2],
            "named requests count on their device"
        );
        for path in paths {
            let unknown = post(&state, path, &body(r#""device":"h100","#));
            assert_eq!(unknown.status, 400, "{path}");
            assert!(unknown.body.contains("a100"), "{}", unknown.body);
        }
        assert_eq!(counted(), [0, 5, 0, 2], "a rejected device counts nowhere");
    }

    #[test]
    fn unknown_devices_are_rejected_with_the_registry_set() {
        let state = state();
        let response = post(
            &state,
            "/predict",
            r#"{"benchmark":"j2d5pt","interior":[64,64],"steps":8,"device":"h100",
                "config":{"bt":2,"bs":[32],"precision":"double"}}"#,
        );
        assert_eq!(response.status, 400);
        for id in ["a100", "p100", "small", "v100"] {
            assert!(response.body.contains(id), "{}", response.body);
        }
    }

    #[test]
    fn devices_endpoint_lists_the_fleet() {
        let state = state();
        let response = dispatch(&state, &Request::new("GET", "/devices", b""));
        assert_eq!(response.status, 200);
        let parsed = json::parse(&response.body).unwrap();
        assert_eq!(parsed.get("default").unwrap().as_str(), Some("v100"));
        let devices = parsed.get("devices").unwrap().as_array().unwrap();
        assert!(devices.len() >= 4, "fleet of {}", devices.len());
        let first = &devices[0];
        assert_eq!(first.get("id").unwrap().as_str(), Some("a100"));
        assert!(first.get("sm_count").unwrap().as_usize().unwrap() > 0);
        // POST is the wrong method.
        let post_devices = Request::new("POST", "/devices", b"{}");
        assert_eq!(dispatch(&state, &post_devices).status, 405);
    }

    #[test]
    fn execute_is_deterministic_and_excludes_per_call_metadata() {
        let state = state();
        let body = r#"{"benchmark":"j2d5pt","interior":[24,24],"steps":5,
                       "config":{"bt":2,"bs":[12],"precision":"double"}}"#;
        let first = post(&state, "/execute", body);
        let second = post(&state, "/execute", body);
        assert_eq!(first.status, 200);
        assert_eq!(
            first.body, second.body,
            "cold and warm responses must be bit-identical"
        );
        assert!(first.body.contains("\"checksum\""));
        assert!(!first.body.contains("cache"), "{}", first.body);
    }

    #[test]
    fn execute_plans_under_the_requested_scheme() {
        let state = state();
        let spec = r#"{"benchmark":"box2d1r","interior":[24,24],"steps":4,
                       "scheme":"an5d_no_associative",
                       "config":{"bt":2,"bs":[16],"precision":"double"}}"#;
        let config = an5d::BlockConfig::new(2, &[16], None, an5d::Precision::Double).unwrap();
        let job = an5d::BatchJob::new(an5d::suite::box2d(1), &[24, 24], 4, config);
        let associative = state.fleet.driver().run_job(&job).unwrap();
        let job = job.with_scheme(an5d::FrameworkScheme::an5d_no_associative());
        let outcome = state.fleet.driver().run_job(&job).unwrap();
        // Without the associative optimisation a cell update stores all
        // 2·rad + 1 = 3 partial rows instead of one; the grid is the same.
        assert_eq!(
            outcome.counters.sm_writes,
            3 * outcome.counters.cell_updates
        );
        assert_eq!(
            associative.counters.sm_writes,
            associative.counters.cell_updates
        );
        assert_eq!(outcome.checksum, associative.checksum);

        let executed = post(&state, "/execute", spec);
        assert_eq!(executed.status, 200, "{}", executed.body);
        assert_eq!(executed.body, api::execute_response(&outcome).render());
    }

    #[test]
    fn execute_refuses_its_job_once_the_deadline_has_passed() {
        let state = state();
        let request = Request::new(
            "POST",
            "/execute",
            br#"{"benchmark":"j2d5pt","interior":[24,24],"steps":5,
                 "config":{"bt":2,"bs":[12],"precision":"double"}}"#,
        );
        // Installed the way `dispatch` installs a request's deadline; the
        // handler is called directly because `dispatch` itself answers an
        // already-expired request before any handler runs.
        let _deadline = an5d_fault::Deadline::in_ms(0).install();
        let response = handle(&state, "/execute", &request);
        assert_eq!(response.status, 504, "{}", response.body);
        let body = json::parse(&response.body).unwrap();
        assert_eq!(body.get("deadline_exceeded"), Some(&Json::Bool(true)));
        assert_eq!(body.get("completed").and_then(Json::as_usize), Some(0));
        assert_eq!(body.get("total").and_then(Json::as_usize), Some(1));
        assert_eq!(state.metrics.deadline_expired.get(), 1);
    }

    #[test]
    fn stats_reports_endpoint_latencies_and_cache() {
        let state = state();
        let body = r#"{"benchmark":"star2d1r","interior":[32,32],"steps":4,
                       "config":{"bt":1,"bs":[16],"precision":"double"}}"#;
        post(&state, "/plan", body);
        post(&state, "/plan", body);
        let count = |series: &str| sample(&state, series).unwrap_or_else(|| panic!("{series}"));
        let plan = r#"endpoint="/plan""#;
        assert_eq!(
            count(&format!("an5d_request_latency_us_count{{{plan}}}")),
            2
        );
        count(&format!("an5d_request_latency_us_sum{{{plan}}}"));
        for q in ["0.5", "0.95", "0.99", "0.999"] {
            count(&format!(
                "an5d_request_latency_us_quantile{{{plan},quantile=\"{q}\"}}"
            ));
        }
        assert_eq!(
            count(&format!("an5d_requests_total{{{plan}}}")),
            2,
            "the request counter is the histogram's count"
        );
        let (hits, misses) = (
            count("an5d_plan_cache_hits_total"),
            count("an5d_plan_cache_misses_total"),
        );
        assert_eq!((hits, misses), (1, 1), "hit rate 0.5");
        assert_eq!(count("an5d_plan_cache_capacity"), 64);
        assert_eq!(count(r#"an5d_backend_info{backend="serial"}"#), 1);
        // The fleet breakdown and pool observability ride along; plans
        // are not per device, so no device carries a cache of its own.
        for shard in state.fleet().shards() {
            let device = format!("{{device=\"{}\"}}", shard.id().as_str());
            assert_eq!(count(&format!("an5d_shard_requests_total{device}")), 0);
            assert_eq!(count(&format!("an5d_tunedb_warmed{device}")), 0);
            let entries = format!("an5d_plan_cache_entries{device}");
            assert!(sample(&state, &entries).is_none());
        }
        count("an5d_pool_batches_executed_total");
    }

    #[test]
    fn metrics_report_backend_execute_latency() {
        let state = state();
        let body = r#"{"benchmark":"j2d5pt","interior":[24,24],"steps":5,
                       "config":{"bt":2,"bs":[12],"precision":"double"}}"#;
        assert_eq!(post(&state, "/execute", body).status, 200);

        let serial = sample(&state, r#"an5d_backend_execute_us_count{backend="serial"}"#)
            .expect("backend.execute latency recorded under the backend name");
        assert!(serial >= 1);
        let p99 = r#"an5d_backend_execute_us_quantile{backend="serial",quantile="0.99"}"#;
        assert!(sample(&state, p99).is_some());

        let metrics = dispatch(&state, &Request::new("GET", "/metrics", b""));
        assert!(
            metrics
                .body
                .contains("an5d_backend_executes_total{backend=\"serial\"}"),
            "per-backend execute counter missing"
        );
        assert!(metrics
            .body
            .contains("an5d_backend_execute_us_bucket{backend=\"serial\""));
    }

    #[test]
    fn parse_endpoint_detects_a_stencil_from_source() {
        let state = state();
        let source = an5d::An5d::benchmark("j2d5pt").unwrap().c_source();
        let body = Json::obj(vec![
            ("source", Json::str(&source)),
            ("name", Json::str("mine")),
        ]);
        let response = post(&state, "/parse", &body.render());
        assert_eq!(response.status, 200);
        let parsed = json::parse(&response.body).unwrap();
        assert_eq!(parsed.get("name").unwrap().as_str(), Some("mine"));
        assert_eq!(parsed.get("radius").unwrap().as_usize(), Some(1));
    }

    #[test]
    fn tune_endpoint_returns_a_ranked_result() {
        let state = state();
        let body = r#"{"benchmark":"j2d5pt","interior":[512,512],"steps":50,
                       "device":"v100","precision":"single","space":"quick"}"#;
        let response = post(&state, "/tune", body);
        assert_eq!(response.status, 200, "{}", response.body);
        let parsed = json::parse(&response.body).unwrap();
        assert!(parsed.get("best").is_some());
        let v100 = state.fleet().shard(&an5d::DeviceId::new("v100")).unwrap();
        assert_eq!(v100.tunedb_stats().tuner_runs, 1);
        assert_eq!(shard_requests(&state, "v100"), 1);
    }
}
