//! Log-bucketed lock-free latency/size histograms.
//!
//! The bucketing is logarithmic with 4 linear sub-buckets per power of
//! two: values 0–15 get exact buckets, every later octave is split in
//! four, for [`BUCKETS`] = 256 buckets covering all of `u64`. The widest
//! bucket spans ×1.25 of its lower bound, so any quantile read from the
//! histogram is within ~19 % of the exact order statistic — plenty for
//! p50/p99/p99.9 latency reporting, at the cost of one relaxed
//! `fetch_add` per recording.

use std::sync::atomic::Ordering;

/// Number of buckets in every [`Histogram`].
pub const BUCKETS: usize = 256;

/// The bucket index for `v`: exact below 16, then 4 sub-buckets per
/// octave keyed by the two bits under the most significant bit.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < 16 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize; // >= 4
        let sub = ((v >> (msb - 2)) & 3) as usize;
        16 + (msb - 4) * 4 + sub
    }
}

/// The inclusive upper bound of bucket `i` (monotone in `i`; the last
/// bucket ends at `u64::MAX`).
pub fn bucket_bound(i: usize) -> u64 {
    if i < 16 {
        i as u64
    } else {
        let j = i - 16;
        let msb = 4 + j / 4;
        let sub = (j % 4) as u128;
        // Lowest value of the NEXT sub-bucket, minus one; saturates at
        // the top of the u64 range for the final bucket.
        let next = (1u128 << msb) + ((sub + 1) << (msb - 2));
        u64::try_from(next - 1).unwrap_or(u64::MAX)
    }
}

/// A fixed-size log-bucketed histogram; see [`bucket_index`] for the
/// buckets.
#[derive(Debug)]
#[expect(clippy::disallowed_types, reason = "atomic buckets")]
pub struct Histogram {
    buckets: [std::sync::atomic::AtomicU64; BUCKETS],
    sum: std::sync::atomic::AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    #[expect(clippy::disallowed_types, reason = "atomic buckets")]
    pub const fn new() -> Histogram {
        Histogram {
            // `AtomicU64::new(0)` is const but not Copy; splat via the
            // inline-const array repetition.
            buckets: [const { std::sync::atomic::AtomicU64::new(0) }; BUCKETS],
            sum: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Records one observation: a single relaxed `fetch_add` into the
    /// value's bucket (plus one into the running sum).
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        // Wrapping by design: a u64 of summed nanoseconds wraps after
        // ~584 years of accumulated latency.
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts. Concurrent recordings
    /// may be torn *across* buckets (each bucket is individually
    /// coherent) — fine for exposition and quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKETS];
        for (c, b) in counts.iter_mut().zip(self.buckets.iter()) {
            *c = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable copy of a [`Histogram`]'s state.
///
/// Snapshots support cross-instance [`merge`](Self::merge) (e.g. summing
/// per-lane histograms) and [`since`](Self::since) diffs (e.g. isolating
/// one benchmark ablation's window from process-lifetime totals).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: [u64; BUCKETS],
    sum: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            counts: [0; BUCKETS],
            sum: 0,
        }
    }

    /// Per-bucket counts, index-aligned with [`bucket_bound`].
    pub fn counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all recorded values (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean recorded value, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum as f64 / n as f64)
    }

    /// Adds `other` into `self` bucket-wise: merging snapshots of two
    /// histograms equals one histogram fed both recording streams.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// The observations recorded since `earlier` was taken (bucket-wise
    /// saturating subtraction): isolates a measurement window from
    /// process-lifetime totals.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKETS];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        HistogramSnapshot {
            counts,
            sum: self.sum.wrapping_sub(earlier.sum),
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket holding the order statistic of rank `ceil(q · count)`
    /// (rank 1 minimum — matching a sorted-array index of
    /// `ceil(q·n) - 1`). Within one bucket width (≤ ~19 %) of the exact
    /// value; `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(bucket_bound(i));
            }
        }
        Some(bucket_bound(BUCKETS - 1))
    }

    /// Median (p50); `None` when empty.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 99th percentile; `None` when empty.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// 99.9th percentile; `None` when empty.
    pub fn p999(&self) -> Option<u64> {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bound(v as usize), v);
        }
    }

    #[test]
    fn bounds_are_monotone_and_cover_u64() {
        for i in 1..BUCKETS {
            assert!(
                bucket_bound(i) > bucket_bound(i - 1),
                "bound({i}) must exceed bound({})",
                i - 1
            );
        }
        assert_eq!(bucket_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn every_value_lands_within_its_bucket_bounds() {
        for v in [
            0,
            1,
            15,
            16,
            17,
            100,
            1_000,
            123_456_789,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(v <= bucket_bound(i), "v={v} above bound of bucket {i}");
            if i > 0 {
                assert!(v > bucket_bound(i - 1), "v={v} not above bucket {}", i - 1);
            }
        }
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 1000);
        assert_eq!(snap.sum(), 500_500);
        // p50 of 1..=1000 is 500; the histogram answer is the upper bound
        // of 500's bucket.
        assert_eq!(snap.p50(), Some(bucket_bound(bucket_index(500))));
        assert_eq!(snap.p99(), Some(bucket_bound(bucket_index(990))));
        assert_eq!(snap.quantile(0.0), Some(bucket_bound(bucket_index(1))));
        assert_eq!(snap.quantile(1.0), Some(bucket_bound(bucket_index(1000))));
    }

    #[test]
    fn since_isolates_a_window() {
        let h = Histogram::new();
        h.record(10);
        let before = h.snapshot();
        h.record(1000);
        h.record(1000);
        let window = h.snapshot().since(&before);
        assert_eq!(window.count(), 2);
        assert_eq!(window.sum(), 2000);
        assert_eq!(window.counts()[bucket_index(10)], 0);
    }
}
