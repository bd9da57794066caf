//! Lock-free log-linear latency histogram.
//!
//! Values (microseconds by convention) are sorted into buckets whose
//! width grows with magnitude: the low 32 values get exact unit buckets,
//! and every further power-of-two octave is split into 32 linear
//! sub-buckets. A bucket therefore never spans more than 1/32 (~3.1%) of
//! its lower edge, which bounds the relative error of every quantile
//! reported from a snapshot. This is the same layout HDR histograms use,
//! sized here for the full `u64` range in a fixed 1920-slot table so
//! recording is one relaxed `fetch_add` with no allocation and no locks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-bucket precision: each octave splits into `2^PRECISION` buckets.
const PRECISION: u32 = 5;
/// Sub-buckets per octave (32).
const SUB: usize = 1 << PRECISION;
/// Total bucket count covering the whole `u64` range.
const BUCKETS: usize = ((64 - PRECISION + 1) as usize) << PRECISION;

/// Bucket index for a recorded value.
fn bucket_index(value: u64) -> usize {
    if value < SUB as u64 {
        value as usize
    } else {
        let msb = 63 - value.leading_zeros();
        let shift = msb - PRECISION;
        (((msb - PRECISION + 1) as usize) << PRECISION) + ((value >> shift) as usize - SUB)
    }
}

/// Largest value that falls into bucket `index`.
fn bucket_upper(index: usize) -> u64 {
    if index < SUB {
        index as u64
    } else {
        let shift = (index >> PRECISION) as u32 - 1;
        let sub = (index & (SUB - 1)) as u64;
        ((SUB as u64 + sub) << shift) + ((1u64 << shift) - 1)
    }
}

/// A concurrent latency histogram.
///
/// [`Histogram::record`] is wait-free (three relaxed atomic ops); readers
/// take a [`HistogramSnapshot`] and query that. Counts are monotone, so a
/// snapshot taken concurrently with writers is a consistent lower bound.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value (microseconds by convention).
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a duration as saturated whole microseconds.
    pub fn record_duration(&self, latency: Duration) {
        self.record(u64::try_from(latency.as_micros()).unwrap_or(u64::MAX));
    }

    /// Number of recorded values so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values so far.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value so far (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Copy the current bucket counts into an immutable snapshot.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
        }
    }
}

/// An immutable copy of a [`Histogram`], mergeable and queryable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no recorded values.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Number of values in the snapshot.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of values in the snapshot.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest value in the snapshot (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean value, rounded down (0 when empty).
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`.
    ///
    /// Returns the upper edge of the bucket holding the ranked value
    /// (clamped to the exact recorded maximum), so the result is `>=` the
    /// true quantile and overshoots by less than 1/32 of it. Returns 0
    /// for an empty snapshot.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(index).min(self.max);
            }
        }
        self.max
    }

    /// Number of recorded values `<=` the bucket containing `value`.
    ///
    /// This is the cumulative count used for Prometheus `le` buckets: it
    /// includes the whole bucket `value` falls into, so it can overcount
    /// by at most one bucket width (exact whenever `value` is a bucket
    /// upper edge).
    #[must_use]
    pub fn count_le(&self, value: u64) -> u64 {
        self.counts[..=bucket_index(value)].iter().sum()
    }

    /// Fold another snapshot into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quantiles overshoot the true value by at most
    /// `value / RELATIVE_ERROR_DENOM + 1`.
    const RELATIVE_ERROR_DENOM: u64 = SUB as u64;
    use std::sync::Arc;

    #[test]
    fn bucket_layout_is_contiguous_and_ordered() {
        // Every value maps to a bucket whose upper edge is >= the value,
        // and bucket upper edges are strictly increasing.
        let mut previous_upper = None;
        for index in 0..BUCKETS {
            let upper = bucket_upper(index);
            assert_eq!(bucket_index(upper), index, "upper edge of bucket {index}");
            if let Some(prev) = previous_upper {
                assert!(upper > prev, "bucket {index} not ordered");
                assert_eq!(bucket_index(prev + 1), index, "gap before bucket {index}");
            }
            previous_upper = Some(upper);
        }
        assert_eq!(previous_upper, Some(u64::MAX));
    }

    #[test]
    fn small_values_are_exact_and_large_values_bounded() {
        for v in 0..SUB as u64 {
            assert_eq!(bucket_upper(bucket_index(v)), v);
        }
        // Deterministic pseudo-random sweep across magnitudes.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..4000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = x >> (x % 50);
            let upper = bucket_upper(bucket_index(v));
            assert!(upper >= v);
            assert!(
                upper - v <= v / RELATIVE_ERROR_DENOM + 1,
                "value {v} upper {upper}"
            );
        }
    }

    #[test]
    fn quantiles_match_nearest_rank_within_resolution() {
        let hist = Histogram::new();
        let mut values: Vec<u64> = (1..=1000u64).map(|i| i * 37).collect();
        for &v in &values {
            hist.record(v);
        }
        values.sort_unstable();
        let snapshot = hist.snapshot();
        assert_eq!(snapshot.count(), 1000);
        assert_eq!(snapshot.sum(), values.iter().sum::<u64>());
        for &(q, pct) in &[(0.5f64, 50usize), (0.95, 95), (0.99, 99), (0.999, 999)] {
            let rank = (pct * values.len()).div_ceil(if pct > 100 { 1000 } else { 100 });
            let exact = values[rank.clamp(1, values.len()) - 1];
            let got = snapshot.quantile(q);
            assert!(got >= exact, "q{pct}: {got} < exact {exact}");
            assert!(got - exact <= exact / RELATIVE_ERROR_DENOM + 1, "q{pct}");
        }
        assert_eq!(snapshot.quantile(1.0), *values.last().unwrap());
    }

    #[test]
    fn concurrent_recording_preserves_totals_and_monotone_quantiles() {
        // Satellite: multi-thread hammer — 8 threads x 10k records each.
        let hist = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let hist = Arc::clone(&hist);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        hist.record(t * 10_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snapshot = hist.snapshot();
        assert_eq!(snapshot.count(), 80_000);
        assert_eq!(snapshot.sum(), (0..80_000u64).sum::<u64>());
        assert_eq!(snapshot.max(), 79_999);
        let quantiles: Vec<u64> = [0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999, 1.0]
            .iter()
            .map(|&q| snapshot.quantile(q))
            .collect();
        for pair in quantiles.windows(2) {
            assert!(pair[0] <= pair[1], "quantiles not monotone: {quantiles:?}");
        }
        assert_eq!(snapshot.quantile(1.0), 79_999);
    }

    #[test]
    fn merged_snapshots_agree_with_a_single_histogram() {
        let left = Histogram::new();
        let right = Histogram::new();
        let combined = Histogram::new();
        for v in 0..5_000u64 {
            if v % 2 == 0 {
                left.record(v * 11);
            } else {
                right.record(v * 11);
            }
            combined.record(v * 11);
        }
        let mut merged = left.snapshot();
        merged.merge(&right.snapshot());
        assert_eq!(merged, combined.snapshot());
        for &q in &[0.5, 0.95, 0.99, 0.999] {
            assert_eq!(merged.quantile(q), combined.snapshot().quantile(q));
        }
    }

    #[test]
    fn count_le_is_cumulative_and_exact_on_bucket_edges() {
        let hist = Histogram::new();
        for v in [10u64, 100, 1_000, 10_000, 100_000] {
            hist.record(v);
        }
        let snapshot = hist.snapshot();
        assert_eq!(snapshot.count_le(9), 0);
        assert_eq!(snapshot.count_le(10), 1);
        let mut previous = 0;
        for bound in [50u64, 500, 5_000, 50_000, 500_000] {
            let n = snapshot.count_le(bound);
            assert!(n >= previous);
            previous = n;
        }
        assert_eq!(snapshot.count_le(u64::MAX), 5);
    }
}
