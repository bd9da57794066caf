//! The device-fleet routing layer: one cache/driver shard per
//! registered GPU profile, plus the router that dispatches requests to
//! shards.
//!
//! One `an5d-serve` deployment fronts a heterogeneous cluster: tuning
//! and prediction results are device-specific, and tuned
//! temporal-blocking configurations shift materially across GPU
//! generations, so per-device state is correctness-relevant. The fleet
//! gives every device in the [`DeviceRegistry`] its own
//! [`PlanCache`] shard (backed by one [`ShardedPlanCache`], so a burst
//! of traffic for one device can never evict another device's working
//! set), its own [`BatchDriver`], and its own latency/load counters.
//!
//! Routing:
//!
//! * a request naming a `"device"` is dispatched to that device's shard
//!   (names resolve through the registry — canonical ids and aliases,
//!   case-insensitive);
//! * a device-*agnostic* request (no `"device"` on `/plan`, `/codegen`,
//!   `/execute`, whose responses do not depend on the device) goes to
//!   the **least-loaded** shard by in-flight request count, ties broken
//!   by id order so sequential traffic reuses one shard's cache;
//! * `/predict` and `/tune` *results* depend on the device, so with no
//!   `"device"` they go to the registry's **default** device (V100 in
//!   the standard fleet) — keeping responses deterministic byte-for-byte.

use crate::api::{unknown_device_error, ApiError};
use crate::json::Json;
use an5d::{
    stencil_fingerprint, suite, BatchDriver, CacheStats, DeviceId, DeviceRegistry,
    ExecutionBackend, FrameworkScheme, GpuDevice, PlanCache, ShardedPlanCache, StencilProblem,
    TuneDb, WarmRequest,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How to pick a shard when the request named no device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Any shard computes identical bytes: go to the least-loaded one
    /// (`/plan`, `/codegen`, `/execute`).
    LeastLoaded,
    /// The response depends on the device: go to the registry default so
    /// the bytes stay deterministic (`/predict`, `/tune`).
    DefaultDevice,
}

/// Point-in-time load/latency snapshot of one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Requests dispatched to this shard (including failed ones).
    pub requests: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Requests currently executing on this shard.
    pub in_flight: u64,
    /// Total handler latency in microseconds.
    pub total_micros: u64,
    /// Worst handler latency in microseconds.
    pub max_micros: u64,
}

impl ShardStats {
    /// Mean handler latency in microseconds (0 with no requests).
    #[must_use]
    pub fn mean_micros(&self) -> u64 {
        self.total_micros.checked_div(self.requests).unwrap_or(0)
    }
}

/// Point-in-time tune-DB counters of one shard.
///
/// `hits`/`misses` observe the read-through path of `/tune`; `warmed`
/// counts the DB entries this shard warmed from at startup;
/// `refreshes` counts `/tune?refresh=true` overwrites; `tuner_runs`
/// counts actual Section 6.3 search invocations — the number the warm
/// start exists to drive to zero for repeated queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardTuneDbStats {
    /// `/tune` queries answered from the persisted DB.
    pub hits: u64,
    /// `/tune` queries that missed the DB (and ran the tuner).
    pub misses: u64,
    /// `/tune?refresh=true` queries that bypassed and overwrote the DB.
    pub refreshes: u64,
    /// DB entries this shard warm-started from.
    pub warmed: u64,
    /// Plans pre-built into the shard's cache from warmed entries.
    pub warmed_plans: u64,
    /// Tuner search invocations (misses + refreshes + DB-less tunes).
    pub tuner_runs: u64,
}

/// One device's slice of the fleet: its profile, its plan/tuning cache
/// shard, its batch driver and its load counters.
pub struct FleetShard {
    id: DeviceId,
    device: GpuDevice,
    cache: Arc<PlanCache>,
    driver: BatchDriver,
    in_flight: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    total_micros: AtomicU64,
    max_micros: AtomicU64,
    db_hits: AtomicU64,
    db_misses: AtomicU64,
    db_refreshes: AtomicU64,
    db_warmed: AtomicU64,
    db_warmed_plans: AtomicU64,
    tuner_runs: AtomicU64,
}

impl std::fmt::Debug for FleetShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetShard")
            .field("id", &self.id)
            .field("device", &self.device.name)
            .field("cache", &self.cache)
            .finish()
    }
}

impl FleetShard {
    /// The shard's canonical device id.
    #[must_use]
    pub fn id(&self) -> &DeviceId {
        &self.id
    }

    /// The GPU profile this shard serves.
    #[must_use]
    pub fn device(&self) -> &GpuDevice {
        &self.device
    }

    /// The shard's plan/tuning cache (isolated from every other shard).
    #[must_use]
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// The shard's batch driver (planning through the shard cache).
    #[must_use]
    pub fn driver(&self) -> &BatchDriver {
        &self.driver
    }

    /// The execution backend this shard runs `/execute` jobs on.
    #[must_use]
    pub fn backend(&self) -> &Arc<dyn ExecutionBackend> {
        self.driver.backend()
    }

    /// Run one request on this shard, tracking in-flight load (what the
    /// least-loaded router balances on) and latency.
    ///
    /// The in-flight gauge is restored by a drop guard, so a panicking
    /// handler cannot leak a phantom in-flight request and permanently
    /// bias the least-loaded router away from this shard.
    pub fn observe<T>(&self, f: impl FnOnce() -> Result<T, ApiError>) -> Result<T, ApiError> {
        struct InFlightGuard<'a>(&'a AtomicU64);
        impl Drop for InFlightGuard<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let _guard = InFlightGuard(&self.in_flight);
        let started = Instant::now();
        let result = f();
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.requests.fetch_add(1, Ordering::Relaxed);
        if result.is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
        result
    }

    /// Current load/latency counters.
    #[must_use]
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::SeqCst),
            total_micros: self.total_micros.load(Ordering::Relaxed),
            max_micros: self.max_micros.load(Ordering::Relaxed),
        }
    }

    /// Current tune-DB counters.
    #[must_use]
    pub fn tunedb_stats(&self) -> ShardTuneDbStats {
        ShardTuneDbStats {
            hits: self.db_hits.load(Ordering::Relaxed),
            misses: self.db_misses.load(Ordering::Relaxed),
            refreshes: self.db_refreshes.load(Ordering::Relaxed),
            warmed: self.db_warmed.load(Ordering::Relaxed),
            warmed_plans: self.db_warmed_plans.load(Ordering::Relaxed),
            tuner_runs: self.tuner_runs.load(Ordering::Relaxed),
        }
    }

    /// Record the outcome of one `/tune` query on this shard.
    pub(crate) fn record_tune(&self, from_db: bool, refresh: bool) {
        if refresh {
            self.db_refreshes.fetch_add(1, Ordering::Relaxed);
        } else if from_db {
            self.db_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.db_misses.fetch_add(1, Ordering::Relaxed);
        }
        if !from_db {
            self.tuner_runs.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a `/tune` served without a configured DB (always a tuner
    /// invocation).
    pub(crate) fn record_dbless_tune(&self) {
        self.tuner_runs.fetch_add(1, Ordering::Relaxed);
    }
}

/// The fleet: a [`DeviceRegistry`] with one [`FleetShard`] per profile
/// and the routing described in the module docs.
pub struct Fleet {
    registry: DeviceRegistry,
    cache: Arc<ShardedPlanCache>,
    shards: BTreeMap<DeviceId, FleetShard>,
    tune_db: Option<Arc<TuneDb>>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("devices", &self.shards.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Fleet {
    /// A fleet with one shard per registry profile, each with its own
    /// plan cache of `shard_capacity` and a single-worker batch driver
    /// on `backend` (request-level parallelism comes from the server's
    /// connection workers).
    ///
    /// # Panics
    ///
    /// Panics on an empty registry — a fleet needs at least one device.
    #[must_use]
    pub fn new(
        backend: &Arc<dyn ExecutionBackend>,
        registry: DeviceRegistry,
        shard_capacity: usize,
    ) -> Self {
        assert!(!registry.is_empty(), "a fleet needs at least one device");
        let cache = Arc::new(ShardedPlanCache::new(shard_capacity));
        let shards = registry
            .devices()
            .map(|(id, device)| {
                let shard_cache = cache.shard(id);
                let driver = BatchDriver::new(Arc::clone(backend))
                    .with_cache(Arc::clone(&shard_cache))
                    .with_workers(1);
                (
                    id.clone(),
                    FleetShard {
                        id: id.clone(),
                        device: device.clone(),
                        cache: shard_cache,
                        driver,
                        in_flight: AtomicU64::new(0),
                        requests: AtomicU64::new(0),
                        errors: AtomicU64::new(0),
                        total_micros: AtomicU64::new(0),
                        max_micros: AtomicU64::new(0),
                        db_hits: AtomicU64::new(0),
                        db_misses: AtomicU64::new(0),
                        db_refreshes: AtomicU64::new(0),
                        db_warmed: AtomicU64::new(0),
                        db_warmed_plans: AtomicU64::new(0),
                        tuner_runs: AtomicU64::new(0),
                    },
                )
            })
            .collect();
        Self {
            registry,
            cache,
            shards,
            tune_db: None,
        }
    }

    /// Attach a persisted tuning database and warm every device shard
    /// from it: each shard counts its stored entries (served from memory
    /// by the read-through path from the first request on) and
    /// pre-builds the plans of every stored winner into its plan-cache
    /// shard, so the first `/tune`, `/plan` or `/codegen` for a
    /// previously-tuned key pays neither a tuner search nor a first
    /// plan build.
    ///
    /// Warming is keyed strictly: a record's benchmark-name *hint* is
    /// only trusted when the named suite stencil's canonical fingerprint
    /// matches the stored key (a renamed or re-defined benchmark skips
    /// plan warming rather than warming wrong plans), and entries are
    /// deduplicated by the plan cache's warm path, so a winner appearing
    /// as both `best` and in `measured` is built once.
    #[must_use]
    pub fn with_tune_db(self, db: Arc<TuneDb>) -> Self {
        for shard in self.shards.values() {
            let entries = db.entries_for_device(&shard.id);
            shard
                .db_warmed
                .store(entries.len() as u64, Ordering::Relaxed);
            let mut requests: Vec<WarmRequest> = Vec::new();
            for entry in &entries {
                let Some(def) = entry.hint.as_deref().and_then(suite::by_name) else {
                    continue;
                };
                if stencil_fingerprint(&def) != entry.key.stencil {
                    continue; // the hint no longer names this stencil
                }
                let Some(scheme) = FrameworkScheme::by_name(&entry.key.scheme) else {
                    continue;
                };
                let Ok(problem) =
                    StencilProblem::new(def.clone(), &entry.key.interior, entry.key.time_steps)
                else {
                    continue;
                };
                requests.extend(
                    std::iter::once(&entry.result.best)
                        .chain(entry.result.measured.iter())
                        .map(|candidate| {
                            WarmRequest::new(
                                def.clone(),
                                problem.clone(),
                                candidate.config.clone(),
                                scheme,
                            )
                        }),
                );
            }
            let warm_stats = shard.cache.warm(&requests);
            shard
                .db_warmed_plans
                .store(warm_stats.built as u64, Ordering::Relaxed);
        }
        Self {
            tune_db: Some(db),
            ..self
        }
    }

    /// The attached tuning database, if any.
    #[must_use]
    pub fn tune_db(&self) -> Option<&Arc<TuneDb>> {
        self.tune_db.as_ref()
    }

    /// The registry the fleet was built from (name resolution, default
    /// device, accepted-name error messages).
    #[must_use]
    pub fn registry(&self) -> &DeviceRegistry {
        &self.registry
    }

    /// The underlying device-sharded plan cache.
    #[must_use]
    pub fn cache(&self) -> &Arc<ShardedPlanCache> {
        &self.cache
    }

    /// Number of shards (= registered devices).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// `true` is impossible for a constructed fleet, but the method
    /// completes the `len` pair.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// All shards, in device-id order.
    pub fn shards(&self) -> impl Iterator<Item = &FleetShard> {
        self.shards.values()
    }

    /// The shard for an exact device id.
    #[must_use]
    pub fn shard(&self, id: &DeviceId) -> Option<&FleetShard> {
        self.shards.get(id)
    }

    /// Dispatch: the requested device's shard, or — for device-agnostic
    /// requests — the shard the policy selects.
    ///
    /// # Errors
    ///
    /// Rejects ids without a shard (cannot happen for ids resolved
    /// through [`Fleet::registry`], but the router guards anyway).
    pub fn route(
        &self,
        requested: Option<&DeviceId>,
        policy: RoutePolicy,
    ) -> Result<&FleetShard, ApiError> {
        match requested {
            Some(id) => self
                .shards
                .get(id)
                .ok_or_else(|| unknown_device_error(&self.registry)),
            None => Ok(match policy {
                RoutePolicy::DefaultDevice => self
                    .shards
                    .get(self.registry.default_id())
                    .expect("the default device is registered"),
                RoutePolicy::LeastLoaded => self.least_loaded(),
            }),
        }
    }

    /// The shard with the fewest in-flight requests; ties break in id
    /// order, so idle-fleet traffic reuses one shard's cache instead of
    /// spraying identical plans across shards.
    #[must_use]
    pub fn least_loaded(&self) -> &FleetShard {
        self.shards
            .values()
            .min_by_key(|shard| shard.in_flight.load(Ordering::SeqCst))
            .expect("a fleet has at least one shard")
    }

    /// Fleet-wide plan-cache totals (what the legacy top-level `"cache"`
    /// object of `/stats` reports).
    #[must_use]
    pub fn aggregate_cache_stats(&self) -> CacheStats {
        self.cache.aggregate_stats()
    }

    /// The `"devices"` object of `/stats`: per-device cache stats plus
    /// shard load/latency, in id order.
    #[must_use]
    pub fn stats_json(&self) -> Json {
        Json::Obj(
            self.shards
                .iter()
                .map(|(id, shard)| {
                    let stats = shard.stats();
                    (
                        id.to_string(),
                        Json::obj(vec![
                            ("profile", Json::str(&shard.device.name)),
                            ("backend", Json::Str(shard.backend().describe())),
                            ("cache", crate::api::cache_stats_json(&shard.cache.stats())),
                            (
                                "tunedb",
                                crate::api::shard_tunedb_json(&shard.tunedb_stats()),
                            ),
                            ("requests", Json::Int(i128::from(stats.requests))),
                            ("errors", Json::Int(i128::from(stats.errors))),
                            ("in_flight", Json::Int(i128::from(stats.in_flight))),
                            ("mean_us", Json::Int(i128::from(stats.mean_micros()))),
                            ("max_us", Json::Int(i128::from(stats.max_micros))),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The top-level `"tunedb"` object of `/stats`: whether persistence
    /// is on, and the database-wide record/log counters.
    #[must_use]
    pub fn tunedb_json(&self) -> Json {
        match &self.tune_db {
            None => Json::obj(vec![("enabled", Json::Bool(false))]),
            Some(db) => {
                let stats = db.stats();
                Json::obj(vec![
                    ("enabled", Json::Bool(true)),
                    ("path", Json::Str(db.path().display().to_string())),
                    ("records", Json::Int(stats.live as i128)),
                    ("stale", Json::Int(stats.stale as i128)),
                    ("appends", Json::Int(i128::from(stats.appends))),
                    ("compactions", Json::Int(i128::from(stats.compactions))),
                    ("recovered", Json::Int(stats.recovered as i128)),
                    ("skipped_corrupt", Json::Int(stats.skipped_corrupt as i128)),
                    ("truncated_bytes", Json::Int(stats.truncated_bytes as i128)),
                ])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d::SerialBackend;

    fn fleet() -> Fleet {
        Fleet::new(
            &(Arc::new(SerialBackend) as Arc<dyn ExecutionBackend>),
            DeviceRegistry::standard(),
            16,
        )
    }

    #[test]
    fn fleet_builds_one_shard_per_registered_device() {
        let fleet = fleet();
        assert_eq!(fleet.len(), 4);
        let ids: Vec<&str> = fleet.shards().map(|s| s.id().as_str()).collect();
        assert_eq!(ids, ["a100", "p100", "small", "v100"], "id order");
        for shard in fleet.shards() {
            assert_eq!(
                shard.device().short_name().to_ascii_lowercase(),
                shard.id().as_str()
            );
        }
    }

    #[test]
    fn named_routing_hits_the_named_shard() {
        let fleet = fleet();
        let p100 = DeviceId::new("p100");
        let shard = fleet.route(Some(&p100), RoutePolicy::LeastLoaded).unwrap();
        assert_eq!(shard.id(), &p100);
        assert!(fleet
            .route(Some(&DeviceId::new("h100")), RoutePolicy::LeastLoaded)
            .is_err());
    }

    #[test]
    fn default_policy_goes_to_the_registry_default() {
        let fleet = fleet();
        let shard = fleet.route(None, RoutePolicy::DefaultDevice).unwrap();
        assert_eq!(shard.id().as_str(), "v100");
    }

    #[test]
    fn least_loaded_prefers_idle_shards_and_breaks_ties_by_id() {
        let fleet = fleet();
        // Idle fleet: first id wins, deterministically.
        assert_eq!(fleet.least_loaded().id().as_str(), "a100");
        // Load the a100 shard: traffic must shift off it.
        let a100 = fleet.shard(&DeviceId::new("a100")).unwrap();
        a100.in_flight.fetch_add(2, Ordering::SeqCst);
        assert_eq!(fleet.least_loaded().id().as_str(), "p100");
        a100.in_flight.fetch_sub(2, Ordering::SeqCst);
    }

    #[test]
    fn observe_tracks_latency_errors_and_in_flight() {
        let fleet = fleet();
        let shard = fleet.shard(&DeviceId::new("v100")).unwrap();
        let ok: Result<u32, ApiError> = shard.observe(|| {
            assert_eq!(shard.stats().in_flight, 1, "counted while running");
            Ok(7)
        });
        assert_eq!(ok.unwrap(), 7);
        let err: Result<(), ApiError> = shard.observe(|| Err(ApiError::new("boom")));
        assert!(err.is_err());
        let stats = shard.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.in_flight, 0);
        assert!(stats.max_micros >= stats.mean_micros());
    }

    #[test]
    fn panicking_handlers_do_not_leak_the_in_flight_gauge() {
        let fleet = fleet();
        let shard = fleet.shard(&DeviceId::new("v100")).unwrap();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Result<(), ApiError> = shard.observe(|| panic!("handler blew up"));
        }));
        assert!(unwound.is_err());
        assert_eq!(
            shard.stats().in_flight,
            0,
            "a panic must not bias the least-loaded router forever"
        );
        assert_eq!(fleet.least_loaded().id().as_str(), "a100", "routing intact");
    }

    #[test]
    fn attaching_a_tune_db_warms_each_shard_from_its_own_entries() {
        use an5d::{An5d, PlanCache, Precision, SearchSpace, TuneDb};

        let path = std::env::temp_dir().join(format!("an5d-fleet-warm-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let db = TuneDb::open(&path).unwrap();

        // Tune for two devices directly and persist the results.
        let an5d = An5d::benchmark("j2d5pt").unwrap();
        let problem = an5d.problem(&[512, 512], 50).unwrap();
        let space = SearchSpace::quick(2, Precision::Single);
        let registry = DeviceRegistry::standard();
        for name in ["v100", "p100"] {
            let (id, device) = registry.resolve(name).unwrap();
            an5d.tune_with_db(
                &problem,
                &id,
                device,
                &space,
                Arc::new(PlanCache::new(64)),
                &db,
                false,
            )
            .unwrap();
        }
        drop(db);

        // A fresh fleet warm-starts from the reopened DB.
        let db = Arc::new(TuneDb::open(&path).unwrap());
        let fleet = Fleet::new(
            &(Arc::new(SerialBackend) as Arc<dyn ExecutionBackend>),
            DeviceRegistry::standard(),
            64,
        )
        .with_tune_db(Arc::clone(&db));

        for (name, expect) in [("v100", 1), ("p100", 1), ("a100", 0), ("small", 0)] {
            let shard = fleet.shard(&DeviceId::new(name)).unwrap();
            let stats = shard.tunedb_stats();
            assert_eq!(stats.warmed, expect, "{name} warm count");
            if expect > 0 {
                assert!(
                    stats.warmed_plans > 0,
                    "{name} must pre-build its stored winners' plans"
                );
                assert!(shard.cache().stats().entries > 0);
            } else {
                assert_eq!(shard.cache().stats().entries, 0, "{name} stays cold");
            }
        }
        assert!(fleet.tune_db().is_some());
        let rendered = fleet.tunedb_json().render();
        assert!(rendered.contains("\"enabled\":true"), "{rendered}");
        assert!(rendered.contains("\"records\":2"), "{rendered}");

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_fleet_without_a_db_reports_persistence_disabled() {
        let fleet = fleet();
        assert!(fleet.tune_db().is_none());
        assert_eq!(fleet.tunedb_json().render(), r#"{"enabled":false}"#);
        let shard = fleet.shard(&DeviceId::new("v100")).unwrap();
        assert_eq!(shard.tunedb_stats(), ShardTuneDbStats::default());
    }

    #[test]
    fn shard_caches_are_isolated() {
        let fleet = fleet();
        let v100 = fleet.shard(&DeviceId::new("v100")).unwrap();
        let p100 = fleet.shard(&DeviceId::new("p100")).unwrap();
        assert!(!Arc::ptr_eq(v100.cache(), p100.cache()));
        assert!(Arc::ptr_eq(v100.cache(), v100.driver().cache()));
    }
}
