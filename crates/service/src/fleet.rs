//! The device fleet: what the service keeps per registered GPU profile,
//! and what it keeps once.
//!
//! One `an5d-serve` deployment fronts a heterogeneous cluster. Tuning
//! and prediction results are device-specific — tuned temporal-blocking
//! configurations shift materially across GPU generations — so every
//! device in the [`DeviceRegistry`] gets a [`FleetShard`]: its profile
//! plus handles to its `device`-labelled series in the metrics
//! [`Registry`] (request latency, errors, tune-DB counters). A
//! [`KernelPlan`] is *not* device-specific (no device enters its key),
//! so the fleet holds one [`PlanCache`] and one [`BatchDriver`] for
//! every request. The cache and the attached tune DB keep their own
//! counts; the fleet registers those as series sampled at scrape.
//!
//! Which shard a request is counted on:
//!
//! * a request naming a `"device"` is counted on that device's shard
//!   (names resolve through the registry — canonical ids and aliases,
//!   case-insensitive);
//! * `/predict` and `/tune` *results* depend on the device, so with no
//!   `"device"` they use the registry's **default** device (V100 in the
//!   standard fleet) — keeping responses deterministic byte-for-byte;
//! * a device-*agnostic* `/plan`, `/codegen` or `/execute`
//!   (whose responses do not depend on the device) touches no shard.

use crate::api::ApiError;
use an5d::{
    BatchDriver, BlockConfig, CacheStats, DeviceId, DeviceRegistry, ExecutionBackend,
    FrameworkScheme, GpuDevice, KernelPlan, PlanCache, PlanError, StencilDef, StencilProblem,
    TuneDb, TuneDbStats,
};
use an5d_obs::{Counter, Gauge, Histogram, Registry};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

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

/// One device's slice of the fleet: its profile and its series.
/// `an5d_shard_requests_total` is the latency histogram's own count.
pub struct FleetShard {
    id: DeviceId,
    device: GpuDevice,
    latency: Arc<Histogram>,
    errors: Counter,
    db_hits: Counter,
    db_misses: Counter,
    db_refreshes: Counter,
    db_warmed: Gauge,
    tuner_runs: Counter,
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
    fn new(id: &DeviceId, device: &GpuDevice, registry: &Registry) -> Self {
        let labels = [("device", id.as_str())];
        let latency = registry.histogram(
            "an5d_shard_latency_us",
            "Handler latency of requests counted on each device shard, microseconds.",
            &labels,
        );
        let count = Arc::clone(&latency);
        registry.sampled_counter(
            "an5d_shard_requests_total",
            "Requests counted on each device shard.",
            &labels,
            move || count.count(),
        );
        let counter = |name, help| registry.counter(name, help, &labels);
        Self {
            id: id.clone(),
            device: device.clone(),
            latency,
            errors: counter(
                "an5d_shard_errors_total",
                "Failed requests per device shard.",
            ),
            db_hits: counter(
                "an5d_tunedb_hits_total",
                "/tune queries answered from the persisted DB.",
            ),
            db_misses: counter(
                "an5d_tunedb_misses_total",
                "/tune queries that missed the DB and ran the tuner.",
            ),
            db_refreshes: counter(
                "an5d_tunedb_refreshes_total",
                "/tune?refresh=true overwrites.",
            ),
            db_warmed: registry.gauge(
                "an5d_tunedb_warmed",
                "DB entries each shard warm-started from.",
                &labels,
            ),
            tuner_runs: counter(
                "an5d_tuner_runs_total",
                "Tuner search invocations per shard.",
            ),
        }
    }

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
    pub(crate) fn observe<T>(
        &self,
        f: impl FnOnce() -> Result<T, ApiError>,
    ) -> Result<T, ApiError> {
        let started = Instant::now();
        let result = f();
        self.latency.record_duration(started.elapsed());
        if result.is_err() {
            self.errors.inc();
        }
        result
    }

    /// Current tune-DB counters.
    #[must_use]
    pub fn tunedb_stats(&self) -> ShardTuneDbStats {
        ShardTuneDbStats {
            hits: self.db_hits.get(),
            misses: self.db_misses.get(),
            refreshes: self.db_refreshes.get(),
            warmed: self.db_warmed.get(),
            tuner_runs: self.tuner_runs.get(),
        }
    }

    /// Record the outcome of one `/tune` query on this shard.
    pub(crate) fn record_tune(&self, from_db: bool, refresh: bool) {
        if refresh {
            self.db_refreshes.inc();
        } else if from_db {
            self.db_hits.inc();
        } else {
            self.db_misses.inc();
        }
        if !from_db {
            self.tuner_runs.inc();
        }
    }

    /// Record a `/tune` served without a configured DB (always a tuner
    /// invocation).
    pub(crate) fn record_dbless_tune(&self) {
        self.tuner_runs.inc();
    }
}

/// The fleet: a [`DeviceRegistry`] with one [`FleetShard`] per profile,
/// plus the plan cache and batch driver every request shares.
pub struct Fleet {
    registry: DeviceRegistry,
    metrics: Arc<Registry>,
    cache: Arc<PlanCache>,
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
    /// `cache_capacity` and a batch driver on `backend` (request-level
    /// parallelism comes from the server's dispatch workers). Every
    /// shard's series and the cache's are registered in `metrics`.
    ///
    /// # Panics
    ///
    /// Panics on an empty registry — a fleet needs at least one device.
    #[must_use]
    pub fn new(
        backend: &Arc<dyn ExecutionBackend>,
        registry: DeviceRegistry,
        cache_capacity: usize,
        metrics: &Arc<Registry>,
    ) -> Self {
        assert!(!registry.is_empty(), "a fleet needs at least one device");
        let shards = registry
            .devices()
            .map(|(id, device)| (id.clone(), FleetShard::new(id, device, metrics)))
            .collect();
        let cache = Arc::new(PlanCache::new(cache_capacity));
        let sampled = |read: fn(CacheStats) -> u64| {
            let cache = Arc::clone(&cache);
            move || read(cache.stats())
        };
        metrics.sampled_counter(
            "an5d_plan_cache_hits_total",
            "Plan-cache lookups answered without building.",
            &[],
            sampled(|stats| stats.hits),
        );
        metrics.sampled_counter(
            "an5d_plan_cache_misses_total",
            "Plan-cache lookups that built a plan.",
            &[],
            sampled(|stats| stats.misses),
        );
        metrics.sampled_gauge(
            "an5d_plan_cache_entries",
            "Plans currently cached.",
            &[],
            sampled(|stats| stats.entries as u64),
        );
        metrics.sampled_gauge(
            "an5d_plan_cache_capacity",
            "Most plans the cache holds.",
            &[],
            sampled(|stats| stats.capacity as u64),
        );
        Self {
            registry,
            metrics: Arc::clone(metrics),
            cache,
            driver: BatchDriver::new(Arc::clone(backend)),
            shards,
            tune_db: None,
        }
    }

    /// Attach a persisted tuning database: `/tune` reads through it, and
    /// every device shard counts the stored entries it starts from
    /// (served from the DB's in-memory index from the first request on,
    /// so a previously-tuned key never pays a tuner search again). The
    /// database's own counts become series sampled at scrape, its path
    /// the label of `an5d_tunedb_info`.
    #[must_use]
    pub fn with_tune_db(self, db: Arc<TuneDb>) -> Self {
        for shard in self.shards.values() {
            let entries = db.entries_for_device(&shard.id).len();
            shard.db_warmed.set(entries as u64);
        }
        let sampled = |read: fn(TuneDbStats) -> u64| {
            let db = Arc::clone(&db);
            move || read(db.stats())
        };
        let gauge = |name, help, read| self.metrics.sampled_gauge(name, help, &[], sampled(read));
        gauge(
            "an5d_tunedb_live_records",
            "Distinct keys stored in the tune DB.",
            |stats| stats.live as u64,
        );
        gauge(
            "an5d_tunedb_stale_records",
            "Superseded records awaiting compaction.",
            |stats| stats.stale as u64,
        );
        gauge(
            "an5d_tunedb_recovered_records",
            "Live records recovered when the tune DB was opened.",
            |stats| stats.recovered as u64,
        );
        gauge(
            "an5d_tunedb_skipped_corrupt_records",
            "Records dropped at open for checksum or decode failures.",
            |stats| stats.skipped_corrupt as u64,
        );
        gauge(
            "an5d_tunedb_truncated_bytes",
            "Torn tail bytes discarded when the tune DB was opened.",
            |stats| stats.truncated_bytes as u64,
        );
        let counter =
            |name, help, read| self.metrics.sampled_counter(name, help, &[], sampled(read));
        counter(
            "an5d_tunedb_appends_total",
            "Records appended through this handle.",
            |stats| stats.appends,
        );
        counter(
            "an5d_tunedb_compactions_total",
            "Log rewrites performed.",
            |stats| stats.compactions,
        );
        self.metrics
            .gauge(
                "an5d_tunedb_info",
                "Constant 1; the label is the path of the attached tune DB.",
                &[("path", &db.path().display().to_string())],
            )
            .set(1);
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
    pub(crate) fn default_shard(&self) -> &FleetShard {
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

    /// The batch driver `/execute` jobs run through.
    #[must_use]
    pub fn driver(&self) -> &BatchDriver {
        &self.driver
    }

    /// Statistics of the plan cache. `benchmark/` reads
    /// `backend.plan_cache_hit_rate` through this name.
    #[must_use]
    pub fn aggregate_cache_stats(&self) -> CacheStats {
        self.cache.stats()
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
            &Arc::new(Registry::new()),
        )
    }

    /// The value of an unlabelled counter or gauge the fleet registered.
    fn registered(fleet: &Fleet, family: &str) -> Option<u64> {
        let families = fleet.metrics.snapshot();
        let family = families.iter().find(|f| f.name == family)?;
        match family.series[0].sample {
            an5d_obs::Sample::Value(value) => Some(value),
            an5d_obs::Sample::Histogram(_) => None,
        }
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
        let latency = shard.latency.snapshot();
        assert_eq!(latency.count(), 2);
        assert_eq!(shard.errors.get(), 1);
        assert!(latency.max() >= latency.mean());
        let p100 = fleet.shard(&DeviceId::new("p100")).unwrap();
        assert_eq!(
            (p100.latency.count(), p100.errors.get()),
            (0, 0),
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
        assert_eq!(registered(&fleet, "an5d_tunedb_live_records"), Some(2));
        assert_eq!(registered(&fleet, "an5d_tunedb_recovered_records"), Some(2));
        assert_eq!(registered(&fleet, "an5d_tunedb_info"), Some(1));

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_fleet_without_a_db_reports_persistence_disabled() {
        let fleet = fleet();
        assert!(fleet.tune_db().is_none());
        assert_eq!(registered(&fleet, "an5d_tunedb_live_records"), None);
        assert_eq!(registered(&fleet, "an5d_tunedb_info"), None);
        assert_eq!(registered(&fleet, "an5d_plan_cache_capacity"), Some(16));
        let shard = fleet.shard(&DeviceId::new("v100")).unwrap();
        assert_eq!(shard.tunedb_stats(), ShardTuneDbStats::default());
    }
}
