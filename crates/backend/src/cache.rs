//! An LRU plan cache keyed by (stencil name, problem, config, scheme).
//!
//! Planning is pure — the same `(StencilDef, StencilProblem, BlockConfig,
//! FrameworkScheme)` inputs always derive the same [`KernelPlan`] — and
//! cheap (microseconds), so the library layers call [`KernelPlan::build`]
//! directly. The one user is `an5d-serve`, whose `/plan`, `/predict` and
//! `/codegen` handlers share a single instance behind a `Mutex`.
//!
//! The build runs outside the lock, so threads that miss on the same key
//! at once each build the plan; the copies are equal and the last insert
//! wins. Recency is tracked in a tick-ordered `BTreeMap` index, so an
//! insert evicts the least-recently-used entry in `O(log n)`.

use an5d_plan::{BlockConfig, FrameworkScheme, KernelPlan, PlanError};
use an5d_stencil::{StencilDef, StencilProblem};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// The lookup key. It names the stencil rather than hashing its update
/// expression, so a hit additionally compares the cached plan's full
/// definition with the requested one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    def_name: String,
    interior: Vec<usize>,
    time_steps: usize,
    config: BlockConfig,
    scheme: FrameworkScheme,
}

struct Entry {
    plan: Arc<KernelPlan>,
    last_used: u64,
}

struct Inner {
    map: HashMap<PlanKey, Entry>,
    /// Recency index: `last_used` tick → key. Ticks are unique (every
    /// lookup takes a fresh one under the lock), so this is an exact
    /// mirror of `map` ordered oldest-first.
    lru: BTreeMap<u64, PlanKey>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Inner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered without building.
    pub hits: u64,
    /// Lookups that had to build a plan.
    pub misses: u64,
    /// Plans currently cached.
    pub entries: usize,
    /// Maximum number of cached plans.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when nothing was looked up).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// A bounded, thread-safe LRU cache of built [`KernelPlan`]s.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                lru: BTreeMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// Return the cached plan for the key, building (and caching) it on a
    /// miss.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from [`KernelPlan::build`]; failed builds
    /// are not cached.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned by a panicking thread.
    pub fn get_or_build(
        &self,
        def: &StencilDef,
        problem: &StencilProblem,
        config: &BlockConfig,
        scheme: FrameworkScheme,
    ) -> Result<Arc<KernelPlan>, PlanError> {
        let key = PlanKey {
            def_name: def.name().to_string(),
            interior: problem.interior().to_vec(),
            time_steps: problem.time_steps(),
            config: config.clone(),
            scheme,
        };
        {
            let mut guard = self.inner.lock().expect("plan cache poisoned");
            let inner = &mut *guard;
            let tick = inner.next_tick();
            match inner.map.get_mut(&key) {
                // Same name, different update expression (two C sources
                // sharing a name): not this entry — rebuild and replace.
                Some(entry) if entry.plan.def() == def => {
                    inner.lru.remove(&entry.last_used);
                    inner.lru.insert(tick, key);
                    entry.last_used = tick;
                    inner.hits += 1;
                    return Ok(Arc::clone(&entry.plan));
                }
                _ => inner.misses += 1,
            }
        }

        // Build outside the lock: holding it would serialise every other
        // key behind this build.
        let plan = {
            let _span = an5d_obs::Span::enter("plan.build");
            Arc::new(KernelPlan::build(def, problem, config, scheme)?)
        };
        let mut guard = self.inner.lock().expect("plan cache poisoned");
        let inner = &mut *guard;
        let tick = inner.next_tick();
        let entry = Entry {
            plan: Arc::clone(&plan),
            last_used: tick,
        };
        if let Some(old) = inner.map.insert(key.clone(), entry) {
            inner.lru.remove(&old.last_used);
        }
        inner.lru.insert(tick, key);
        while inner.map.len() > self.capacity {
            let (_, oldest) = inner
                .lru
                .pop_first()
                .expect("lru mirrors the non-empty map");
            inner.map.remove(&oldest);
        }
        Ok(plan)
    }

    /// Current hit/miss/occupancy statistics.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("plan cache poisoned");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d_grid::Precision;
    use an5d_stencil::suite;

    fn problem(def: &StencilDef) -> StencilProblem {
        StencilProblem::new(def.clone(), &[32, 32], 8).unwrap()
    }

    #[test]
    fn repeated_keys_hit_and_return_the_identical_plan() {
        let cache = PlanCache::new(8);
        let def = suite::j2d5pt();
        let problem = problem(&def);
        let config = BlockConfig::new(2, &[16], None, Precision::Double).unwrap();

        let first = cache
            .get_or_build(&def, &problem, &config, FrameworkScheme::an5d())
            .unwrap();
        let second = cache
            .get_or_build(&def, &problem, &config, FrameworkScheme::an5d())
            .unwrap();

        assert!(
            Arc::ptr_eq(&first, &second),
            "hit must return the cached Arc"
        );
        assert_eq!(*first, *second);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn different_configs_schemes_and_problems_miss() {
        let cache = PlanCache::new(8);
        let def = suite::j2d5pt();
        let p1 = problem(&def);
        let p2 = StencilProblem::new(def.clone(), &[48, 48], 8).unwrap();
        let c1 = BlockConfig::new(2, &[16], None, Precision::Double).unwrap();
        let c2 = BlockConfig::new(4, &[16], None, Precision::Double).unwrap();

        cache
            .get_or_build(&def, &p1, &c1, FrameworkScheme::an5d())
            .unwrap();
        cache
            .get_or_build(&def, &p1, &c2, FrameworkScheme::an5d())
            .unwrap();
        cache
            .get_or_build(&def, &p2, &c1, FrameworkScheme::an5d())
            .unwrap();
        cache
            .get_or_build(&def, &p1, &c1, FrameworkScheme::stencilgen())
            .unwrap();

        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.entries, 4);
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let cache = PlanCache::new(2);
        let def = suite::j2d5pt();
        let problem = problem(&def);
        for bt in [1usize, 2, 3] {
            let config = BlockConfig::new(bt, &[16], None, Precision::Double).unwrap();
            cache
                .get_or_build(&def, &problem, &config, FrameworkScheme::an5d())
                .unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2, "capacity bound holds");

        // bt=1 was evicted (least recently used); re-requesting it misses.
        let config = BlockConfig::new(1, &[16], None, Precision::Double).unwrap();
        cache
            .get_or_build(&def, &problem, &config, FrameworkScheme::an5d())
            .unwrap();
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn failed_builds_propagate_and_are_not_cached() {
        let cache = PlanCache::new(4);
        let def = suite::j2d9pt();
        let problem = problem(&def);
        // Block far too small for bT = 16: plan validation fails.
        let config = BlockConfig::new(16, &[32], None, Precision::Double).unwrap();
        assert!(cache
            .get_or_build(&def, &problem, &config, FrameworkScheme::an5d())
            .is_err());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn distinct_defs_with_same_name_are_distinguished() {
        // Two sources submitted under one name share a key; a lookup
        // must never be answered with the other definition's plan.
        let cache = PlanCache::new(4);
        let a = StencilDef::new("mine", suite::star2d(1).expr().clone()).unwrap();
        let b = StencilDef::new("mine", suite::box2d(1).expr().clone()).unwrap();
        let config = BlockConfig::new(2, &[16], None, Precision::Double).unwrap();
        for def in [&a, &b, &a] {
            let plan = cache
                .get_or_build(def, &problem(def), &config, FrameworkScheme::an5d())
                .unwrap();
            assert_eq!(plan.def(), def);
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 3, 1));
    }

    #[test]
    fn concurrent_misses_on_one_key_end_with_one_entry_and_equal_plans() {
        let cache = PlanCache::new(8);
        let def = suite::j2d5pt();
        let problem = problem(&def);
        let config = BlockConfig::new(2, &[16], None, Precision::Double).unwrap();

        const THREADS: usize = 8;
        let barrier = std::sync::Barrier::new(THREADS);
        let plans: Vec<Arc<KernelPlan>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        cache
                            .get_or_build(&def, &problem, &config, FrameworkScheme::an5d())
                            .unwrap()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("lookup thread panicked"))
                .collect()
        });

        // Racing misses may each build, but the copies are equal and the
        // cache keeps exactly one.
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, THREADS as u64);
        assert!(stats.misses >= 1);
        assert_eq!(stats.entries, 1);
        for plan in &plans[1..] {
            assert_eq!(**plan, *plans[0]);
        }
    }

    #[test]
    fn eviction_order_tracks_recency_touches() {
        let cache = PlanCache::new(2);
        let def = suite::j2d5pt();
        let problem = problem(&def);
        let config = |bt: usize| BlockConfig::new(bt, &[16], None, Precision::Double).unwrap();

        cache
            .get_or_build(&def, &problem, &config(1), FrameworkScheme::an5d())
            .unwrap();
        cache
            .get_or_build(&def, &problem, &config(2), FrameworkScheme::an5d())
            .unwrap();
        // Touch bt=1 so bt=2 becomes the LRU entry...
        cache
            .get_or_build(&def, &problem, &config(1), FrameworkScheme::an5d())
            .unwrap();
        // ...then insert a third plan, which must evict bt=2, not bt=1.
        cache
            .get_or_build(&def, &problem, &config(3), FrameworkScheme::an5d())
            .unwrap();

        let misses_before = cache.stats().misses;
        cache
            .get_or_build(&def, &problem, &config(1), FrameworkScheme::an5d())
            .unwrap();
        assert_eq!(
            cache.stats().misses,
            misses_before,
            "recently-touched bt=1 must have survived eviction"
        );
        cache
            .get_or_build(&def, &problem, &config(2), FrameworkScheme::an5d())
            .unwrap();
        assert_eq!(
            cache.stats().misses,
            misses_before + 1,
            "least-recently-used bt=2 must have been evicted"
        );
    }
}
