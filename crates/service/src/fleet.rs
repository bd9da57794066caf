//! The device fleet: what the service keeps per registered GPU profile,
//! and what it keeps once.
//!
//! One `an5d-serve` deployment fronts a heterogeneous cluster. Tuning
//! and prediction results are device-specific — tuned temporal-blocking
//! configurations shift materially across GPU generations — so every
//! device in the [`DeviceRegistry`] gets a [`FleetShard`]: its profile,
//! its request/error/latency counters and its tune-DB counters. A
//! [`KernelPlan`] is *not* device-specific (no device enters its key),
//! so the fleet holds one [`PlanCache`] and one [`BatchDriver`] for
//! every request.
//!
//! Which shard a request is counted on:
//!
//! * a request naming a `"device"` is counted on that device's shard
//!   (names resolve through the registry — canonical ids and aliases,
//!   case-insensitive);
//! * `/predict` and `/tune` *results* depend on the device, so with no
//!   `"device"` they use the registry's **default** device (V100 in the
//!   standard fleet) — keeping responses deterministic byte-for-byte;
//! * a device-*agnostic* `/plan`, `/codegen`, `/execute` or `/batch`
//!   (whose responses do not depend on the device) touches no shard.

use crate::api::ApiError;
use crate::json::Json;
use an5d::{
    BatchDriver, BlockConfig, CacheStats, DeviceId, DeviceRegistry, ExecutionBackend,
    FrameworkScheme, GpuDevice, KernelPlan, PlanCache, PlanError, StencilDef, StencilProblem,
    TuneDb,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Point-in-time request/latency snapshot of one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Requests counted on this shard (including failed ones).
    pub requests: u64,
    /// Requests answered with an error.
    pub errors: u64,
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
    /// Tuner search invocations (misses + refreshes + DB-less tunes).
    pub tuner_runs: u64,
}

/// One device's slice of the fleet: its profile and its counters.
pub struct FleetShard {
    id: DeviceId,
    device: GpuDevice,
    requests: AtomicU64,
    errors: AtomicU64,
    total_micros: AtomicU64,
    max_micros: AtomicU64,
    db_hits: AtomicU64,
    db_misses: AtomicU64,
    db_refreshes: AtomicU64,
    db_warmed: AtomicU64,
    tuner_runs: AtomicU64,
}

impl std::fmt::Debug for FleetShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetShard")
            .field("id", &self.id)
            .field("device", &self.device.name)
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

    /// Run one request, counting it and its latency on this shard.
    pub fn observe<T>(&self, f: impl FnOnce() -> Result<T, ApiError>) -> Result<T, ApiError> {
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

    /// Current request/latency counters.
    #[must_use]
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
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

/// The fleet: a [`DeviceRegistry`] with one [`FleetShard`] per profile,
/// plus the plan cache and batch driver every request shares.
pub struct Fleet {
    registry: DeviceRegistry,
    cache: PlanCache,
    driver: BatchDriver,
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
    /// A fleet with one shard per registry profile, one plan cache of
    /// `cache_capacity` and a single-worker batch driver on `backend`
    /// (request-level parallelism comes from the server's dispatch
    /// workers).
    ///
    /// # Panics
    ///
    /// Panics on an empty registry — a fleet needs at least one device.
    #[must_use]
    pub fn new(
        backend: &Arc<dyn ExecutionBackend>,
        registry: DeviceRegistry,
        cache_capacity: usize,
    ) -> Self {
        assert!(!registry.is_empty(), "a fleet needs at least one device");
        let shards = registry
            .devices()
            .map(|(id, device)| {
                (
                    id.clone(),
                    FleetShard {
                        id: id.clone(),
                        device: device.clone(),
                        requests: AtomicU64::new(0),
                        errors: AtomicU64::new(0),
                        total_micros: AtomicU64::new(0),
                        max_micros: AtomicU64::new(0),
                        db_hits: AtomicU64::new(0),
                        db_misses: AtomicU64::new(0),
                        db_refreshes: AtomicU64::new(0),
                        db_warmed: AtomicU64::new(0),
                        tuner_runs: AtomicU64::new(0),
                    },
                )
            })
            .collect();
        Self {
            registry,
            cache: PlanCache::new(cache_capacity),
            driver: BatchDriver::new(Arc::clone(backend)).with_workers(1),
            shards,
            tune_db: None,
        }
    }

    /// Attach a persisted tuning database: `/tune` reads through it, and
    /// every device shard counts the stored entries it starts from
    /// (served from the DB's in-memory index from the first request on,
    /// so a previously-tuned key never pays a tuner search again).
    #[must_use]
    pub fn with_tune_db(self, db: Arc<TuneDb>) -> Self {
        for shard in self.shards.values() {
            let entries = db.entries_for_device(&shard.id).len();
            shard.db_warmed.store(entries as u64, Ordering::Relaxed);
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

    /// The shard of the registry's default device, which answers
    /// `/predict` and `/tune` requests that name none.
    #[must_use]
    pub fn default_shard(&self) -> &FleetShard {
        self.shards
            .get(self.registry.default_id())
            .expect("the default device is registered")
    }

    /// The plan for a configuration, through the fleet's one cache.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from [`KernelPlan::build`].
    pub fn plan(
        &self,
        def: &StencilDef,
        problem: &StencilProblem,
        config: &BlockConfig,
        scheme: FrameworkScheme,
    ) -> Result<Arc<KernelPlan>, PlanError> {
        self.cache.get_or_build(def, problem, config, scheme)
    }

    /// The batch driver `/execute` and `/batch` jobs run through.
    #[must_use]
    pub fn driver(&self) -> &BatchDriver {
        &self.driver
    }

    /// Statistics of the plan cache (the top-level `"cache"` object of
    /// `/stats`). `benchmark/` reads `backend.plan_cache_hit_rate`
    /// through this name.
    #[must_use]
    pub fn aggregate_cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The `"devices"` object of `/stats`: per-device profile, tune-DB
    /// counters and request latency, in id order.
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
                            (
                                "tunedb",
                                crate::api::shard_tunedb_json(&shard.tunedb_stats()),
                            ),
                            ("requests", Json::Int(i128::from(stats.requests))),
                            ("errors", Json::Int(i128::from(stats.errors))),
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
        assert_eq!(fleet.shard(&p100).unwrap().id(), &p100);
        assert!(fleet.shard(&DeviceId::new("h100")).is_none());
    }

    #[test]
    fn default_policy_goes_to_the_registry_default() {
        assert_eq!(fleet().default_shard().id().as_str(), "v100");
    }

    #[test]
    fn observe_tracks_latency_and_errors() {
        let fleet = fleet();
        let shard = fleet.shard(&DeviceId::new("v100")).unwrap();
        let ok: Result<u32, ApiError> = shard.observe(|| Ok(7));
        assert_eq!(ok.unwrap(), 7);
        let err: Result<(), ApiError> = shard.observe(|| Err(ApiError::new("boom")));
        assert!(err.is_err());
        let stats = shard.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.errors, 1);
        assert!(stats.max_micros >= stats.mean_micros());
        let p100 = fleet.shard(&DeviceId::new("p100")).unwrap();
        assert_eq!(
            p100.stats(),
            ShardStats::default(),
            "other shards untouched"
        );
    }

    #[test]
    fn attaching_a_tune_db_warms_each_shard_from_its_own_entries() {
        use an5d::{An5d, Precision, SearchSpace, TuneDb};

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
            an5d.tune_with_db(&problem, &id, device, &space, &db, false)
                .unwrap();
        }
        drop(db);

        // A fresh fleet warm-starts from the reopened DB.
        let db = Arc::new(TuneDb::open(&path).unwrap());
        let fleet = fleet().with_tune_db(Arc::clone(&db));

        for (name, expect) in [("v100", 1), ("p100", 1), ("a100", 0), ("small", 0)] {
            let shard = fleet.shard(&DeviceId::new(name)).unwrap();
            assert_eq!(shard.tunedb_stats().warmed, expect, "{name} warm count");
        }
        assert_eq!(
            fleet.aggregate_cache_stats().entries,
            0,
            "stored winners are not planned ahead of a request"
        );
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
}
