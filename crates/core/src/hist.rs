//! Log-bucketed latency histogram.
//!
//! Values (nanoseconds) are sorted into 256 fixed buckets: exact
//! buckets for 0–15, then four sub-buckets per power of two up to
//! `u64::MAX`. The worst-case relative error of a reported quantile is
//! one sub-bucket width, 12.5% — ample for p50/p95/p99 latency
//! reporting — while recording stays a handful of atomic adds with no
//! allocation, so the host's record sink can fold every request in.

use std::sync::atomic::{AtomicU64, Ordering};

const EXACT: usize = 16; // values 0..=15 get their own bucket
const SUBBITS: u32 = 2; // 4 sub-buckets per octave
pub(crate) const BUCKETS: usize = EXACT + ((64 - EXACT.trailing_zeros() as usize) * (1 << SUBBITS));

/// Concurrent histogram; all methods take `&self`.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Summarizes the current contents.
    pub fn summarize(&self) -> HistogramSummary {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return HistogramSummary::default();
        }
        summarize_counts(
            &self.bucket_counts(),
            self.sum.load(Ordering::Relaxed),
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }

    /// Raw per-bucket counts (length `BUCKETS`), for snapshot
    /// differencing — see [`HistogramSummary::window`].
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// Point-in-time digest of a [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Observation count.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

impl HistogramSummary {
    /// Summarizes a window of bucket counts (an element-wise difference
    /// of two [`Histogram::bucket_counts`] vectors) with its known
    /// `sum`. The exact extremes of only-the-window are not
    /// recoverable, so `min`/`max` are the first/last non-empty
    /// bucket's midpoint.
    #[must_use]
    pub fn window(counts: &[u64], sum: u64) -> HistogramSummary {
        let first = counts.iter().position(|&c| c > 0);
        let last = counts.iter().rposition(|&c| c > 0);
        summarize_counts(
            counts,
            sum,
            first.map_or(0, bucket_mid),
            last.map_or(0, bucket_mid),
        )
    }
}

/// Summarizes a bucket-count vector (as returned by
/// [`Histogram::bucket_counts`], or a window of two such vectors)
/// together with its known `sum`/`min`/`max`. Shared by
/// [`Histogram::summarize`] and [`HistogramSummary::window`].
pub(crate) fn summarize_counts(counts: &[u64], sum: u64, min: u64, max: u64) -> HistogramSummary {
    let count: u64 = counts.iter().sum();
    if count == 0 {
        return HistogramSummary::default();
    }
    let quantile = |q: f64| -> u64 {
        // Rank of the q-quantile among `count` sorted samples.
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (idx, &c) in counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_mid(idx).clamp(min, max);
            }
        }
        max
    };
    HistogramSummary {
        count,
        sum,
        min,
        max,
        p50: quantile(0.50),
        p95: quantile(0.95),
        p99: quantile(0.99),
    }
}

fn bucket_index(value: u64) -> usize {
    if value < EXACT as u64 {
        return value as usize;
    }
    let bits = 63 - value.leading_zeros() as usize; // >= 4
    let sub = ((value >> (bits - SUBBITS as usize)) & ((1 << SUBBITS) - 1)) as usize;
    EXACT + (bits - EXACT.trailing_zeros() as usize) * (1 << SUBBITS) + sub
}

/// Midpoint of the bucket's value range, the reported representative.
pub(crate) fn bucket_mid(idx: usize) -> u64 {
    if idx < EXACT {
        return idx as u64;
    }
    let rel = idx - EXACT;
    let bits = EXACT.trailing_zeros() as usize + rel / (1 << SUBBITS);
    let sub = (rel % (1 << SUBBITS)) as u64;
    let lower = (1u64 << bits) | (sub << (bits - SUBBITS as usize));
    let width = 1u64 << (bits - SUBBITS as usize);
    lower + width / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_summarizes_to_zero() {
        let h = Histogram::new();
        assert_eq!(h.summarize(), HistogramSummary::default());
    }

    #[test]
    fn single_sample_pins_every_quantile() {
        let h = Histogram::new();
        h.record(1234);
        let s = h.summarize();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 1234);
        assert_eq!((s.min, s.max), (1234, 1234));
        // min/max clamping makes the single sample exact.
        assert_eq!((s.p50, s.p95, s.p99), (1234, 1234, 1234));
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        let s = h.summarize();
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 15);
        // Rank ceil(0.5 * 16) = 8 of the sorted samples 0..=15 is 7.
        assert_eq!(s.p50, 7);
    }

    #[test]
    fn bucket_index_is_monotonic_and_in_range() {
        let mut probes: Vec<u64> = Vec::new();
        for shift in 0u32..64 {
            for off in [0u64, 1, 3] {
                probes.push((1u64 << shift).saturating_add(off << shift.saturating_sub(3)));
            }
        }
        probes.push(u64::MAX);
        probes.sort_unstable();
        let mut last = 0usize;
        for v in probes {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "v={v} idx={idx}");
            assert!(idx >= last, "index must not decrease at v={v}");
            last = idx;
        }
    }

    #[test]
    fn bucket_mid_lies_inside_its_bucket() {
        for v in [16u64, 100, 1_000, 123_456, u32::MAX as u64, 1 << 50] {
            let idx = bucket_index(v);
            let mid = bucket_mid(idx);
            assert_eq!(bucket_index(mid), idx, "mid {mid} escaped bucket of {v}");
        }
    }

    #[test]
    fn quantiles_track_uniform_distribution() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 1_000); // 1us .. 10ms uniform
        }
        let s = h.summarize();
        let rel = |est: u64, truth: u64| (est as f64 - truth as f64).abs() / truth as f64;
        assert!(rel(s.p50, 5_000_000) < 0.15, "p50={}", s.p50);
        assert!(rel(s.p95, 9_500_000) < 0.15, "p95={}", s.p95);
        assert!(rel(s.p99, 9_900_000) < 0.15, "p99={}", s.p99);
        assert_eq!(s.count, 10_000);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + i % 997);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.summarize().count, 80_000);
    }
}
