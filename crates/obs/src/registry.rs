//! A typed metrics registry: every series is declared once, where it is
//! recorded, and every exposition format is a view over
//! [`Registry::snapshot`].
//!
//! A *family* is a name, a help string and a [`Kind`]; a *series* is one
//! label set inside a family, backed by a [`Counter`] or [`Gauge`] cell,
//! a shared [`Histogram`], or a closure sampled at snapshot time for
//! state that lives elsewhere (a pool, a cache, a database). Handles
//! are plain `Arc`s: recording through one never touches the registry
//! again, so only registration and snapshots take its lock. That lock
//! recovers from poisoning with [`PoisonError::into_inner`] — the map is
//! only ever inserted into, so a poisoned guard still holds a valid map
//! and a panicking thread cannot take the metrics endpoints down.

use crate::histogram::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// What a family measures; decides how a view renders its series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone count of events.
    Counter,
    /// A level that can go up and down.
    Gauge,
    /// A distribution of recorded values.
    Histogram,
}

impl Kind {
    /// The Prometheus spelling: `counter`, `gauge` or `histogram`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// Handle to a counter series: a shared monotone `u64`.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Count one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Count `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Events counted so far.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Handle to a gauge series: a shared `u64` level.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Raise the level by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Lower the level by one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Set the level.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// The current level.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A series' label set, sorted by label name.
pub type Labels = Vec<(String, String)>;

/// The value of one series at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sample {
    /// A counter or gauge reading.
    Value(u64),
    /// A histogram's buckets, count, sum and maximum.
    Histogram(HistogramSnapshot),
}

/// One series of a [`FamilySnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// The label set identifying the series within its family.
    pub labels: Labels,
    /// Its value when the snapshot was taken.
    pub sample: Sample,
}

/// One family of a [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilySnapshot {
    /// Metric name.
    pub name: String,
    /// One-line description.
    pub help: String,
    /// How to read the samples.
    pub kind: Kind,
    /// The family's series, sorted by label set.
    pub series: Vec<SeriesSnapshot>,
}

/// Where a series' value comes from.
enum Source {
    Cell(Arc<AtomicU64>),
    Histogram(Arc<Histogram>),
    Sampled(Box<dyn Fn() -> Sample + Send + Sync>),
}

struct Family {
    help: String,
    kind: Kind,
    series: BTreeMap<Labels, Source>,
}

/// The registry: families by name, series by label set.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("families", &self.lock().keys().collect::<Vec<_>>())
            .finish()
    }
}

fn sorted(labels: &[(&str, &str)]) -> Labels {
    let mut labels: Labels = labels
        .iter()
        .map(|(name, value)| ((*name).to_string(), (*value).to_string()))
        .collect();
    labels.sort();
    labels
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Family>> {
        self.families.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run `on_series` on the family's series map, creating the family
    /// on first use.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered with another kind or
    /// help string: one name has one meaning.
    fn with_family<T>(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        on_series: impl FnOnce(&mut BTreeMap<Labels, Source>) -> T,
    ) -> T {
        let mut families = self.lock();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind && family.help == help,
            "metric {name} is already registered as a {} ({:?}), not a {} ({help:?})",
            family.kind.as_str(),
            family.help,
            kind.as_str(),
        );
        on_series(&mut family.series)
    }

    fn cell(&self, name: &str, help: &str, kind: Kind, labels: &[(&str, &str)]) -> Arc<AtomicU64> {
        self.with_family(name, help, kind, |series| {
            match series
                .entry(sorted(labels))
                .or_insert_with(|| Source::Cell(Arc::default()))
            {
                Source::Cell(cell) => Arc::clone(cell),
                _ => panic!("series {name}{labels:?} is sampled and has no handle"),
            }
        })
    }

    /// The counter series `name{labels}`, created on first use; equal
    /// label sets (in any order) share one series.
    ///
    /// # Panics
    ///
    /// Panics when `name` is registered with another kind or help, or
    /// when the series is a sampled one.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        Counter(self.cell(name, help, Kind::Counter, labels))
    }

    /// The gauge series `name{labels}`, created on first use.
    ///
    /// # Panics
    ///
    /// As [`Registry::counter`].
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge(self.cell(name, help, Kind::Gauge, labels))
    }

    /// The histogram series `name{labels}`, created on first use.
    ///
    /// # Panics
    ///
    /// As [`Registry::counter`].
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.with_family(name, help, Kind::Histogram, |series| {
            match series
                .entry(sorted(labels))
                .or_insert_with(|| Source::Histogram(Arc::default()))
            {
                Source::Histogram(histogram) => Arc::clone(histogram),
                _ => panic!("series {name}{labels:?} is sampled and has no handle"),
            }
        })
    }

    fn sampled(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        read: impl Fn() -> Sample + Send + Sync + 'static,
    ) {
        self.with_family(name, help, kind, |series| {
            series.insert(sorted(labels), Source::Sampled(Box::new(read)));
        });
    }

    /// Register a counter series whose value `read` reports at snapshot
    /// time — for a count kept by someone else. `read` runs under the
    /// registry lock, so it must not call back into the registry.
    /// Registering the same label set again replaces the closure (the
    /// latest owner of the state wins).
    ///
    /// # Panics
    ///
    /// Panics when `name` is registered with another kind or help.
    pub fn sampled_counter(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        read: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.sampled(name, help, Kind::Counter, labels, move || {
            Sample::Value(read())
        });
    }

    /// Register a sampled gauge series; see [`Registry::sampled_counter`].
    ///
    /// # Panics
    ///
    /// As [`Registry::sampled_counter`].
    pub fn sampled_gauge(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        read: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.sampled(name, help, Kind::Gauge, labels, move || {
            Sample::Value(read())
        });
    }

    /// Register a sampled histogram series; see
    /// [`Registry::sampled_counter`].
    ///
    /// # Panics
    ///
    /// As [`Registry::sampled_counter`].
    pub fn sampled_histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        read: impl Fn() -> HistogramSnapshot + Send + Sync + 'static,
    ) {
        self.sampled(name, help, Kind::Histogram, labels, move || {
            Sample::Histogram(read())
        });
    }

    /// Every family with every series' current value, sorted by name and
    /// then by label set — the one input of every exposition format.
    #[must_use]
    pub fn snapshot(&self) -> Vec<FamilySnapshot> {
        self.lock()
            .iter()
            .map(|(name, family)| FamilySnapshot {
                name: name.clone(),
                help: family.help.clone(),
                kind: family.kind,
                series: family
                    .series
                    .iter()
                    .map(|(labels, source)| SeriesSnapshot {
                        labels: labels.clone(),
                        sample: match source {
                            Source::Cell(cell) => Sample::Value(cell.load(Ordering::Relaxed)),
                            Source::Histogram(histogram) => Sample::Histogram(histogram.snapshot()),
                            Source::Sampled(read) => read(),
                        },
                    })
                    .collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn equal_label_sets_share_one_series_in_any_order() {
        let registry = Registry::new();
        let a = registry.counter("hits_total", "Hits.", &[("device", "v100"), ("path", "/a")]);
        let b = registry.counter("hits_total", "Hits.", &[("path", "/a"), ("device", "v100")]);
        let other = registry.counter("hits_total", "Hits.", &[("path", "/b"), ("device", "v100")]);
        a.inc();
        b.add(2);
        assert_eq!((a.get(), b.get(), other.get()), (3, 3, 0));

        let level = registry.gauge("open", "Open.", &[]);
        level.set(5);
        level.inc();
        level.dec();
        assert_eq!(registry.gauge("open", "Open.", &[]).get(), 5);

        let first = registry.histogram("latency_us", "Latency.", &[("path", "/a")]);
        first.record(7);
        let again = registry.histogram("latency_us", "Latency.", &[("path", "/a")]);
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(again.count(), 1);
    }

    #[test]
    fn a_name_keeps_one_kind_and_one_help_and_a_refusal_leaves_the_registry_serving() {
        let registry = Arc::new(Registry::new());
        registry.counter("events_total", "Events.", &[]).inc();
        let refused = |attempt: fn(&Registry)| {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || attempt(&registry))
                .join()
                .is_err()
        };
        assert!(refused(|r| drop(r.gauge("events_total", "Events.", &[]))));
        assert!(refused(|r| drop(r.counter("events_total", "Other.", &[]))));
        assert!(refused(|r| r.sampled_gauge(
            "events_total",
            "Events.",
            &[],
            || 1
        )));
        registry.sampled_counter("reads_total", "Reads.", &[], || 4);
        assert!(refused(|r| drop(r.counter("reads_total", "Reads.", &[]))));

        // The refusals panicked under the lock: it is poisoned, and every
        // path recovers.
        assert!(registry.families.lock().is_err(), "lock must be poisoned");
        registry.counter("events_total", "Events.", &[]).inc();
        registry.gauge("fresh", "Fresh.", &[]).set(9);
        let names: Vec<String> = registry.snapshot().into_iter().map(|f| f.name).collect();
        assert_eq!(names, ["events_total", "fresh", "reads_total"]);
        assert_eq!(
            registry.snapshot()[0].series[0].sample,
            Sample::Value(2),
            "refused registrations changed nothing"
        );
    }

    #[test]
    fn snapshot_is_sorted_by_name_then_labels() {
        let registry = Registry::new();
        for (name, device) in [
            ("b_total", "v100"),
            ("a_total", "p100"),
            ("b_total", "a100"),
        ] {
            registry.counter(name, "Help.", &[("device", device)]).inc();
        }
        registry.histogram("a_latency_us", "Help.", &[]).record(3);
        let listed = || -> Vec<(String, Labels)> {
            let families = registry.snapshot().into_iter();
            families
                .flat_map(|f| {
                    f.series
                        .into_iter()
                        .map(move |s| (f.name.clone(), s.labels))
                })
                .collect()
        };
        let device = |id: &str| vec![("device".to_string(), id.to_string())];
        assert_eq!(
            listed(),
            [
                ("a_latency_us".to_string(), vec![]),
                ("a_total".to_string(), device("p100")),
                ("b_total".to_string(), device("a100")),
                ("b_total".to_string(), device("v100")),
            ]
        );
        assert_eq!(listed(), listed(), "deterministic");
        let families = registry.snapshot();
        assert_eq!(families[0].kind, Kind::Histogram);
        assert!(matches!(&families[0].series[0].sample, Sample::Histogram(h) if h.max() == 3));
    }

    #[test]
    fn sampled_series_are_read_at_snapshot_time_only() {
        let registry = Registry::new();
        let reads = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&reads);
        registry.sampled_gauge("depth", "Depth.", &[], move || {
            seen.fetch_add(1, Ordering::Relaxed) as u64 + 10
        });
        let source = Arc::new(Histogram::new());
        let read = Arc::clone(&source);
        registry.sampled_histogram("wall_us", "Wall.", &[], move || read.snapshot());
        assert_eq!(
            reads.load(Ordering::Relaxed),
            0,
            "registration reads nothing"
        );
        source.record(40);

        let first = registry.snapshot();
        assert_eq!(first[0].series[0].sample, Sample::Value(10));
        assert_eq!(first[1].kind, Kind::Histogram);
        assert!(matches!(&first[1].series[0].sample, Sample::Histogram(h) if h.count() == 1));
        assert_eq!(registry.snapshot()[0].series[0].sample, Sample::Value(11));
        assert_eq!(reads.load(Ordering::Relaxed), 2, "one read per snapshot");

        // The latest owner of the state wins.
        registry.sampled_gauge("depth", "Depth.", &[], || 99);
        assert_eq!(registry.snapshot()[0].series[0].sample, Sample::Value(99));
        assert_eq!(reads.load(Ordering::Relaxed), 2);
    }
}
