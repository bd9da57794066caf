//! The series the service records itself: per-endpoint latency and
//! errors, admission and deadline counters, the connection layer and
//! `backend.execute` latency.
//!
//! Everything here is a handle into the state's [`Registry`]: a series
//! is registered in this file, next to the code that records it, and
//! `/stats` and `/metrics` find it by iterating the registry (see
//! [`crate::telemetry`]). Per-endpoint handles are resolved the first
//! time an endpoint records — [`OnceLock`] slots sized from the static
//! endpoint list — so the hot path is a lock-free slot read plus
//! wait-free atomics, and an endpoint nobody called has no series.

use an5d::{BlockedRun, ExecutionBackend, Grid, KernelPlan, StencilProblem};
use an5d_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One endpoint's request series. `an5d_requests_total` is the
/// histogram's own count, sampled at scrape.
#[derive(Debug, Clone)]
pub struct EndpointSeries {
    /// Handler latency, microseconds.
    pub latency: Arc<Histogram>,
    /// Requests answered with a non-2xx status.
    pub errors: Counter,
}

impl EndpointSeries {
    /// Record one handled request.
    pub fn record(&self, latency: Duration, ok: bool) {
        self.latency.record_duration(latency);
        if !ok {
            self.errors.inc();
        }
    }
}

/// A point-in-time copy of the connection-layer gauges and counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectionSnapshot {
    /// Connections accepted since startup.
    pub accepted: u64,
    /// Connections closed since startup (any reason).
    pub closed: u64,
    /// Connections that died mid-request (peer EOF or transport error
    /// while a request head or body was partially buffered).
    pub aborted: u64,
    /// Connections currently open.
    pub open: u64,
    /// Open connections idle between requests (no buffered bytes, no
    /// request in flight) — the cheap majority under C10K load.
    pub parked: u64,
}

impl ConnectionSnapshot {
    /// Open connections actively reading, executing, or writing.
    #[must_use]
    pub fn active(&self) -> u64 {
        self.open.saturating_sub(self.parked)
    }
}

/// Connection-layer series maintained by the reactor thread.
///
/// Only the reactor mutates these (single-threaded), but `/metrics` and
/// `/stats` read them from worker threads, so they are registry cells
/// rather than plain fields.
#[derive(Debug)]
pub struct ConnectionStats {
    accepted: Counter,
    closed: Counter,
    aborted: Counter,
    open: Gauge,
    parked: Gauge,
    /// Busy time of one reactor loop iteration (poll-return to
    /// poll-entry). A growing tail here means the reactor itself — not
    /// the workers — is the bottleneck.
    loop_busy: Arc<Histogram>,
}

impl ConnectionStats {
    fn new(registry: &Registry) -> Self {
        let stats = Self {
            accepted: registry.counter(
                "an5d_connections_accepted_total",
                "Connections accepted since startup.",
                &[],
            ),
            closed: registry.counter(
                "an5d_connections_closed_total",
                "Connections closed since startup.",
                &[],
            ),
            aborted: registry.counter(
                "an5d_connections_aborted",
                "Connections that died mid-request or mid-response (truncated \
                 head or body, or a response that failed while draining).",
                &[],
            ),
            open: registry.gauge(
                "an5d_connections_open",
                "Currently open client connections.",
                &[],
            ),
            parked: registry.gauge(
                "an5d_connections_parked",
                "Open connections idle between requests (parked in the reactor).",
                &[],
            ),
            loop_busy: registry.histogram(
                "an5d_reactor_loop_us",
                "Reactor loop busy time per iteration, microseconds.",
                &[],
            ),
        };
        let (open, parked) = (stats.open.clone(), stats.parked.clone());
        registry.sampled_gauge(
            "an5d_connections_active",
            "Open connections reading, executing, or writing a request.",
            &[],
            move || open.get().saturating_sub(parked.get()),
        );
        stats
    }

    /// One connection accepted (opens it).
    pub fn on_accepted(&self) {
        self.accepted.inc();
        self.open.inc();
    }

    /// One connection closed; `aborted` marks a mid-request death.
    pub fn on_closed(&self, aborted: bool) {
        self.closed.inc();
        self.open.dec();
        if aborted {
            self.aborted.inc();
        }
    }

    /// A connection entered the parked (idle keep-alive) state.
    pub fn on_parked(&self) {
        self.parked.inc();
    }

    /// A parked connection became active again (or closed).
    pub fn on_unparked(&self) {
        self.parked.dec();
    }

    /// Record the busy time of one reactor loop iteration.
    pub fn record_loop(&self, busy: Duration) {
        self.loop_busy.record_duration(busy);
    }

    /// Copy of the counters and gauges.
    #[must_use]
    pub fn snapshot(&self) -> ConnectionSnapshot {
        ConnectionSnapshot {
            accepted: self.accepted.get(),
            closed: self.closed.get(),
            aborted: self.aborted.get(),
            open: self.open.get(),
            parked: self.parked.get(),
        }
    }
}

/// The slots of one endpoint, resolved on first use.
#[derive(Debug)]
struct EndpointSlot {
    path: &'static str,
    requests: OnceLock<EndpointSeries>,
}

/// The service's own series, shared by the reactor and every dispatch
/// worker.
#[derive(Debug)]
pub struct Metrics {
    registry: Arc<Registry>,
    endpoints: Vec<EndpointSlot>,
    /// Requests turned away by admission control with a 503.
    pub rejected: Counter,
    /// Requests shed with a 503 because their deadline was already
    /// expired at dispatch admission (never reached a worker).
    pub deadline_shed: Counter,
    /// Requests answered 504 because their deadline expired while a
    /// worker was processing them.
    pub deadline_expired: Counter,
    /// Tune results that could not be appended to the persisted DB
    /// (the response still carried the result — durability degraded).
    pub tunedb_append_failures: Counter,
    /// Connection-layer series, fed by the reactor.
    pub connections: ConnectionStats,
}

impl Metrics {
    /// Register the service's series in `registry`, with one lazily
    /// resolved slot per path of `endpoints`.
    #[must_use]
    pub fn new(
        registry: &Arc<Registry>,
        endpoints: impl IntoIterator<Item = &'static str>,
    ) -> Self {
        Self {
            registry: Arc::clone(registry),
            endpoints: endpoints
                .into_iter()
                .map(|path| EndpointSlot {
                    path,
                    requests: OnceLock::new(),
                })
                .collect(),
            rejected: registry.counter(
                "an5d_rejected_connections_total",
                "Requests shed by admission control.",
                &[],
            ),
            deadline_shed: registry.counter(
                "an5d_deadline_shed_total",
                "Requests shed with 503 at admission for an already-expired deadline.",
                &[],
            ),
            deadline_expired: registry.counter(
                "an5d_deadline_expired_total",
                "Requests answered 504 after their deadline expired mid-processing.",
                &[],
            ),
            tunedb_append_failures: registry.counter(
                "an5d_tunedb_append_failures_total",
                "Tune results served but not persisted (append to the tune DB failed).",
                &[],
            ),
            connections: ConnectionStats::new(registry),
        }
    }

    fn slot(&self, path: &str) -> &EndpointSlot {
        self.endpoints
            .iter()
            .find(|slot| slot.path == path)
            .unwrap_or_else(|| panic!("{path} is not a served endpoint"))
    }

    /// The request series of a served endpoint.
    ///
    /// # Panics
    ///
    /// Panics on a path the metrics were not built for.
    pub fn endpoint(&self, path: &str) -> &EndpointSeries {
        self.slot(path).requests.get_or_init(|| {
            let labels = [("endpoint", path)];
            let latency = self.registry.histogram(
                "an5d_request_latency_us",
                "Handler latency by endpoint, microseconds.",
                &labels,
            );
            let count = Arc::clone(&latency);
            self.registry.sampled_counter(
                "an5d_requests_total",
                "Requests dispatched, by endpoint.",
                &labels,
                move || count.count(),
            );
            EndpointSeries {
                latency,
                errors: self.registry.counter(
                    "an5d_request_errors_total",
                    "Non-2xx responses, by endpoint.",
                    &labels,
                ),
            }
        })
    }
}

/// An [`ExecutionBackend`] decorator that records the wall-clock latency
/// of every `backend.execute` call under the inner backend's name.
///
/// Transparent by construction: it delegates `name`/`describe` and the
/// execute methods verbatim, so wrapping never changes results — only
/// observability.
pub struct MeteredBackend {
    inner: Arc<dyn ExecutionBackend>,
    registry: Arc<Registry>,
    /// Resolved by the first execute, so a backend that never ran has
    /// no series.
    latency: OnceLock<Arc<Histogram>>,
}

impl MeteredBackend {
    /// Wrap `inner`, recording its execute latency into `registry`.
    #[must_use]
    pub fn new(inner: Arc<dyn ExecutionBackend>, registry: &Arc<Registry>) -> Self {
        Self {
            inner,
            registry: Arc::clone(registry),
            latency: OnceLock::new(),
        }
    }

    fn record(&self, latency: Duration) {
        self.latency
            .get_or_init(|| {
                let labels = [("backend", self.inner.name())];
                let histogram = self.registry.histogram(
                    "an5d_backend_execute_us",
                    "backend.execute latency by backend, microseconds.",
                    &labels,
                );
                let count = Arc::clone(&histogram);
                self.registry.sampled_counter(
                    "an5d_backend_executes_total",
                    "backend.execute calls, by backend.",
                    &labels,
                    move || count.count(),
                );
                histogram
            })
            .record_duration(latency);
    }
}

impl std::fmt::Debug for MeteredBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeteredBackend")
            .field("inner", &self.inner.describe())
            .finish()
    }
}

impl ExecutionBackend for MeteredBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn execute_f32(
        &self,
        plan: &KernelPlan,
        problem: &StencilProblem,
        initial: Grid<f32>,
    ) -> BlockedRun<f32> {
        let started = Instant::now();
        let run = self.inner.execute_f32(plan, problem, initial);
        self.record(started.elapsed());
        run
    }

    fn execute_f64(
        &self,
        plan: &KernelPlan,
        problem: &StencilProblem,
        initial: Grid<f64>,
    ) -> BlockedRun<f64> {
        let started = Instant::now();
        let run = self.inner.execute_f64(plan, problem, initial);
        self.record(started.elapsed());
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d_obs::Sample;

    fn metrics() -> (Arc<Registry>, Metrics) {
        let registry = Arc::new(Registry::new());
        let metrics = Metrics::new(&registry, ["/plan", "/stats", "/tune"]);
        (registry, metrics)
    }

    /// Every `(labels, sample)` of one family.
    fn series(registry: &Registry, family: &str) -> Vec<(an5d_obs::Labels, Sample)> {
        let families = registry.snapshot();
        let family = families.iter().find(|f| f.name == family);
        family.map_or_else(Vec::new, |f| {
            let series = f.series.iter();
            series
                .map(|s| (s.labels.clone(), s.sample.clone()))
                .collect()
        })
    }

    #[test]
    fn records_counts_errors_and_latency() {
        let (registry, metrics) = metrics();
        metrics
            .endpoint("/tune")
            .record(Duration::from_micros(100), true);
        metrics
            .endpoint("/tune")
            .record(Duration::from_micros(300), false);
        metrics
            .endpoint("/stats")
            .record(Duration::from_micros(5), true);

        let tune = metrics.endpoint("/tune");
        assert_eq!(tune.latency.count(), 2);
        assert_eq!(tune.errors.get(), 1);
        assert_eq!(tune.latency.snapshot().mean(), 200);
        assert_eq!(tune.latency.max(), 300);

        metrics.rejected.inc();
        assert_eq!(metrics.rejected.get(), 1);

        // One series per endpoint that recorded, sorted by path; the
        // request counter is the histogram's count.
        let endpoint = |path: &str| vec![("endpoint".to_string(), path.to_string())];
        assert_eq!(
            series(&registry, "an5d_requests_total"),
            [
                (endpoint("/stats"), Sample::Value(1)),
                (endpoint("/tune"), Sample::Value(2)),
            ],
            "/plan never recorded, so it has no series"
        );
    }

    #[test]
    fn recording_through_a_resolved_endpoint_never_takes_the_registry_lock() {
        // A sampled closure runs under the registry lock; recording from
        // inside one would deadlock if the hot path locked the registry
        // (as the per-request `String` + map lookup it replaces did).
        let (registry, metrics) = metrics();
        let metrics = Arc::new(metrics);
        metrics
            .endpoint("/plan")
            .record(Duration::from_micros(1), true);
        let recorder = Arc::clone(&metrics);
        registry.sampled_gauge("under_the_lock", "Records while sampled.", &[], move || {
            let plan = recorder.endpoint("/plan");
            plan.record(Duration::from_micros(2), false);
            plan.latency.count()
        });
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || done.send(series(&registry, "under_the_lock")));
        let sampled = finished
            .recv_timeout(Duration::from_secs(10))
            .expect("snapshot deadlocked: recording took the registry lock");
        assert_eq!(sampled[0].1, Sample::Value(2));
        assert_eq!(metrics.endpoint("/plan").errors.get(), 1);
    }

    #[test]
    fn endpoint_histograms_answer_percentiles() {
        let (registry, metrics) = metrics();
        for i in 1..=100u64 {
            metrics
                .endpoint("/plan")
                .record(Duration::from_micros(i * 10), true);
        }
        let histogram = metrics.endpoint("/plan").latency.snapshot();
        assert_eq!(histogram.count(), 100);
        assert_eq!(histogram.max(), 1_000);
        let p50 = histogram.quantile(0.5);
        let p99 = histogram.quantile(0.99);
        assert!((500..=520).contains(&p50), "p50 {p50}");
        assert!((990..=1_000).contains(&p99), "p99 {p99}");
        let registered = series(&registry, "an5d_request_latency_us");
        assert_eq!(registered.len(), 1);
        assert_eq!(registered[0].1, Sample::Histogram(histogram));
    }

    #[test]
    fn connection_gauges_track_the_lifecycle() {
        let (registry, metrics) = metrics();
        let conns = &metrics.connections;
        for _ in 0..3 {
            conns.on_accepted();
            conns.on_parked();
        }
        conns.on_unparked(); // one connection goes active
        let snap = conns.snapshot();
        assert_eq!(snap.accepted, 3);
        assert_eq!(snap.open, 3);
        assert_eq!(snap.parked, 2);
        assert_eq!(snap.active(), 1);
        let value = |family: &str| series(&registry, family)[0].1.clone();
        assert_eq!(value("an5d_connections_active"), Sample::Value(1));

        conns.on_closed(true); // the active one dies mid-request
        conns.on_unparked();
        conns.on_closed(false);
        let snap = conns.snapshot();
        assert_eq!(snap.closed, 2);
        assert_eq!(snap.aborted, 1);
        assert_eq!(snap.open, 1);
        assert_eq!(snap.parked, 1);
        assert_eq!(snap.active(), 0);

        conns.record_loop(Duration::from_micros(120));
        assert_eq!(conns.loop_busy.count(), 1);
        assert_eq!(value("an5d_connections_aborted"), Sample::Value(1));
        assert_eq!(value("an5d_connections_parked"), Sample::Value(1));
    }

    #[test]
    fn metered_backend_is_transparent_and_records_per_backend_latency() {
        use an5d::{An5d, BlockConfig, Precision, SerialBackend};

        let registry = Arc::new(Registry::new());
        let backend: Arc<dyn ExecutionBackend> =
            Arc::new(MeteredBackend::new(Arc::new(SerialBackend), &registry));
        assert_eq!(backend.name(), "serial");
        assert_eq!(backend.describe(), "serial");
        assert!(registry.snapshot().is_empty(), "no execute, no series");

        let an5d = An5d::benchmark("j2d5pt")
            .unwrap()
            .with_backend(Arc::clone(&backend));
        let problem = an5d.problem(&[24, 24], 4).unwrap();
        let config = BlockConfig::new(2, &[12], None, Precision::Double).unwrap();
        let report = an5d.verify(&problem, &config).unwrap();
        assert!(report.matches_reference, "metering must not change results");

        let serial = vec![("backend".to_string(), "serial".to_string())];
        assert_eq!(
            series(&registry, "an5d_backend_executes_total"),
            [(serial, Sample::Value(1))],
            "one execute, one sample"
        );
        assert_eq!(series(&registry, "an5d_backend_execute_us").len(), 1);
    }

    #[test]
    fn poisoned_registry_keeps_serving() {
        // Regression: a handler thread panicking while holding the
        // registry lock used to poison it and 500 every later /stats.
        let (registry, metrics) = metrics();
        metrics
            .endpoint("/plan")
            .record(Duration::from_micros(70), true);
        let poisoner = Arc::clone(&registry);
        let refused = std::thread::spawn(move || {
            // Refused under the lock: the name is a counter family.
            poisoner.gauge("an5d_requests_total", "poison the registry lock", &[]);
        })
        .join();
        assert!(refused.is_err(), "the conflicting registration panics");

        // Recording, first-time registration and both reads still work.
        metrics
            .endpoint("/plan")
            .record(Duration::from_micros(30), false);
        metrics
            .endpoint("/tune")
            .record(Duration::from_micros(9), true);
        let plan = metrics.endpoint("/plan");
        assert_eq!(plan.latency.count(), 2);
        assert_eq!(plan.errors.get(), 1);
        assert_eq!(plan.latency.max(), 70);
        assert_eq!(series(&registry, "an5d_requests_total").len(), 2);
    }
}
