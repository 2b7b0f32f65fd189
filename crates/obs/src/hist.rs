//! Lock-free log₂ latency histograms and atomic `f64` accumulators.
//!
//! [`LatencyHistogram`] is the recording side: workers `record` into
//! atomics with no locks on the hot path. [`HistogramSnapshot`] is the
//! reading side: a plain-integer copy whose `count` is *derived from the
//! bucket sums*, so every snapshot is internally consistent even while
//! other threads keep recording. Snapshots subtract ([`HistogramSnapshot::delta`])
//! to turn cumulative histograms into windowed ones, which is what lets
//! the series store compute rates between two ticks.

use std::sync::atomic::{AtomicU64, Ordering};

/// Power-of-two bucket count of the latency histogram: bucket `i` holds
/// samples in `[2^i, 2^{i+1})` nanoseconds, which covers ~584 years in
/// the last bucket — nothing saturates.
pub const BUCKETS: usize = 64;

/// The latency at quantile `q` over a plain bucket array, interpolated
/// linearly within its log₂ bucket.
///
/// `total` is the rank base — under concurrent recording a caller's
/// separately-read `count` can exceed the bucket sums it reads a moment
/// later, so a rank that walks off the end of the recorded samples is
/// clamped to the top of the highest non-empty bucket instead of
/// reporting the table's `2^64` ns (≈584 yr) upper edge.
fn quantile_over(buckets: &[u64; BUCKETS], total: u64, q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile in [0, 1], got {q}");
    if total == 0 {
        return 0.0;
    }
    let rank = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    let mut highest_nonempty = None;
    for (i, &here) in buckets.iter().enumerate() {
        if here == 0 {
            continue;
        }
        highest_nonempty = Some(i);
        seen += here;
        if seen >= rank {
            let lower = 2f64.powi(i as i32);
            let upper = 2f64.powi(i as i32 + 1);
            let position = (rank - (seen - here)) as f64 / here as f64;
            return (lower + (upper - lower) * position) / 1e9;
        }
    }
    match highest_nonempty {
        Some(i) => 2f64.powi(i as i32 + 1) / 1e9,
        None => 0.0,
    }
}

/// A log₂-bucketed latency histogram over nanoseconds.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one sample.
    pub fn record(&self, nanos: u64) {
        let bucket = (63 - nanos.max(1).leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in seconds (0 when empty).
    #[must_use]
    pub fn mean_s(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum_ns.load(Ordering::Relaxed) as f64 / n as f64 / 1e9
    }

    /// The latency at quantile `q ∈ [0, 1]`, in seconds, interpolated
    /// linearly within its log₂ bucket (0 when empty).
    ///
    /// Bucket `i` spans `[2^i, 2^{i+1})` ns; the rank's position among
    /// the bucket's samples places the estimate between those edges, so
    /// quantiles no longer snap to powers of two (a bucket holding the
    /// single top-ranked sample still reports its upper edge, matching
    /// the pre-interpolation behaviour). When concurrent recording makes
    /// the separately-read `count` exceed the bucket sums (the rank then
    /// outruns every recorded sample), the result clamps to the top of
    /// the highest non-empty bucket instead of the `2^64` ns table edge.
    ///
    /// # Panics
    ///
    /// Panics if `q` leaves `[0, 1]`.
    #[must_use]
    pub fn quantile_s(&self, q: f64) -> f64 {
        let buckets = self.load_buckets();
        quantile_over(&buckets, self.count(), q)
    }

    /// Adds every sample of `other` into `self` (bucket-wise). Merging
    /// then taking quantiles is equivalent to having recorded both
    /// streams into one histogram.
    pub fn merge(&self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum_ns
            .fetch_add(other.sum_ns.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A consistent plain-integer copy of the histogram. The snapshot's
    /// `count` is the sum of the bucket counts it actually read, so
    /// `count == Σ buckets` holds in every snapshot even while other
    /// threads keep recording.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.load_buckets(),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }

    /// The samples recorded since `earlier` was snapshotted — the
    /// windowed view needed to report rates and per-window quantiles
    /// from a cumulative histogram.
    #[must_use]
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        self.snapshot().delta(earlier)
    }

    fn load_buckets(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }
}

/// A point-in-time plain copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (bucket `i` spans `[2^i, 2^{i+1})` ns).
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded nanoseconds.
    pub sum_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            sum_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Samples in the snapshot — by construction the sum of the bucket
    /// counts.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Whether the snapshot holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&b| b == 0)
    }

    /// Mean latency in seconds (0 when empty).
    #[must_use]
    pub fn mean_s(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum_ns as f64 / n as f64 / 1e9
    }

    /// The latency at quantile `q ∈ [0, 1]`, in seconds (see
    /// [`LatencyHistogram::quantile_s`]).
    ///
    /// # Panics
    ///
    /// Panics if `q` leaves `[0, 1]`.
    #[must_use]
    pub fn quantile_s(&self, q: f64) -> f64 {
        quantile_over(&self.buckets, self.count(), q)
    }

    /// The top of the highest non-empty bucket — the tightest upper
    /// bound on the largest recorded sample the log₂ buckets can give.
    #[must_use]
    pub fn max_s(&self) -> f64 {
        self.quantile_s(1.0)
    }

    /// Adds every sample of `other` into `self` (bucket-wise) — the
    /// snapshot-side counterpart of [`LatencyHistogram::merge`], used
    /// when rolling per-node frames up into one cluster frame.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.sum_ns += other.sum_ns;
    }

    /// The samples recorded between `earlier` and `self` (bucket-wise
    /// saturating subtraction, so a mismatched pair degrades to zeros
    /// instead of wrapping).
    #[must_use]
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (d, (now, was)) in buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(&earlier.buckets))
        {
            *d = now.saturating_sub(*was);
        }
        HistogramSnapshot {
            buckets,
            sum_ns: self.sum_ns.saturating_sub(earlier.sum_ns),
        }
    }
}

/// An `f64` accumulator built on atomic compare-and-swap of the bit
/// pattern (std has no `AtomicF64`).
#[derive(Debug, Default)]
pub struct AtomicF64 {
    bits: AtomicU64,
}

impl AtomicF64 {
    /// A zeroed accumulator.
    #[must_use]
    pub fn new() -> AtomicF64 {
        AtomicF64::default()
    }

    /// Adds `v` atomically.
    pub fn add(&self, v: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + v).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// Overwrites the value (for gauges).
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The accumulated value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(1_000); // ~1 µs
        }
        h.record(1_000_000_000); // 1 s outlier
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_s(0.5);
        assert!(p50 < 3e-6, "p50 {p50} should sit at the µs cluster");
        let p99 = h.quantile_s(0.99);
        assert!(p99 < 3e-6, "p99 {p99} still inside the cluster of 99");
        let p100 = h.quantile_s(1.0);
        assert!(p100 >= 1.0, "max must see the outlier, got {p100}");
        assert!(h.mean_s() > 0.009 && h.mean_s() < 0.011);
    }

    #[test]
    fn quantiles_interpolate_within_their_bucket() {
        // 100 identical 1000 ns samples all land in bucket 9
        // ([512, 1024) ns): rank r interpolates to 512 + 512·(r/100).
        let h = LatencyHistogram::default();
        for _ in 0..100 {
            h.record(1_000);
        }
        assert!((h.quantile_s(0.5) - 768e-9).abs() < 1e-15, "mid-bucket p50");
        assert!(
            (h.quantile_s(0.25) - 640e-9).abs() < 1e-15,
            "quarter-bucket p25"
        );
        assert!((h.quantile_s(1.0) - 1024e-9).abs() < 1e-15, "full bucket");
        // A single top-ranked sample still resolves to its bucket's
        // upper edge (the pre-interpolation convention).
        let h = LatencyHistogram::default();
        h.record(1_000);
        h.record(1_000_000_000); // bucket 29: [2^29, 2^30) ns
        let p100 = h.quantile_s(1.0);
        assert!((p100 - 2f64.powi(30) / 1e9).abs() < 1e-12);
        // And the two-sample median sits at bucket 9's upper edge, not
        // snapped to a whole power of two of seconds.
        assert!((h.quantile_s(0.5) - 1024e-9).abs() < 1e-15);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_s(0.99), 0.0);
        assert_eq!(h.mean_s(), 0.0);
        assert!(h.snapshot().is_empty());
        assert_eq!(h.snapshot().max_s(), 0.0);
    }

    #[test]
    fn overrun_rank_clamps_to_the_highest_nonempty_bucket() {
        // Regression: a snapshot racing `record` can observe `count`
        // ahead of the bucket increments; the rank then exceeds every
        // recorded sample and the old walk returned the table's 2^64 ns
        // (≈584 yr) upper edge. Simulate the race by bumping `count`
        // without touching a bucket.
        let h = LatencyHistogram::default();
        h.record(1_000); // bucket 9, upper edge 1024 ns
        h.count.fetch_add(1, Ordering::Relaxed); // racing increment
        let p100 = h.quantile_s(1.0);
        assert!(
            (p100 - 1024e-9).abs() < 1e-15,
            "overrun rank must clamp to the 1024 ns bucket top, got {p100}"
        );
        // With no recorded samples at all, even a non-zero count yields 0.
        let h = LatencyHistogram::default();
        h.count.fetch_add(3, Ordering::Relaxed);
        assert_eq!(h.quantile_s(0.5), 0.0);
    }

    #[test]
    fn single_sample_quantiles_all_report_its_bucket_edge() {
        let h = LatencyHistogram::default();
        h.record(1_000); // bucket 9: [512, 1024) ns
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            let v = h.quantile_s(q);
            assert!(
                (v - 1024e-9).abs() < 1e-15,
                "q={q}: a lone sample is always the ranked one, got {v}"
            );
        }
        assert!((h.mean_s() - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn max_bucket_survives_merge_without_overflow() {
        // u64::MAX ns lands in the top bucket (63). Merging two
        // top-bucket histograms must keep counts exact and quantiles
        // finite (the bucket's upper edge is 2^64 ns ≈ 584 yr).
        let a = LatencyHistogram::default();
        let b = LatencyHistogram::default();
        for _ in 0..3 {
            a.record(u64::MAX);
            b.record(u64::MAX);
        }
        a.merge(&b);
        assert_eq!(a.count(), 6);
        let s = a.snapshot();
        assert_eq!(s.buckets[BUCKETS - 1], 6);
        let max = s.max_s();
        assert!(max.is_finite());
        assert!(max >= 2f64.powi(63) / 1e9, "top-bucket edge, got {max}");
        // sum_ns wraps modulo 2^64 under extreme inputs; the mean must
        // still be finite (garbage-tolerant, never NaN/Inf).
        assert!(s.mean_s().is_finite());
    }

    #[test]
    fn delta_against_a_wrapped_counter_saturates_to_empty() {
        // If the "earlier" snapshot is actually *ahead* (counter wrap,
        // restart, or mismatched pair), delta must saturate to zero
        // everywhere instead of wrapping to ~2^64 phantom samples.
        let mut earlier = HistogramSnapshot::default();
        earlier.buckets[9] = u64::MAX;
        earlier.sum_ns = u64::MAX;
        let mut later = HistogramSnapshot::default();
        later.buckets[9] = 5;
        later.sum_ns = 5_000;
        let d = later.delta(&earlier);
        assert!(d.is_empty(), "wrapped counter must not produce samples");
        assert_eq!(d.sum_ns, 0);
        assert_eq!(d.quantile_s(0.99), 0.0);
        // And a partially-wrapped pair only zeroes the wrapped bucket.
        let mut mixed = later.clone();
        mixed.buckets[10] = 7;
        let d = mixed.delta(&earlier);
        assert_eq!(d.buckets[9], 0);
        assert_eq!(d.buckets[10], 7);
    }

    #[test]
    fn merge_then_quantile_matches_record_then_quantile() {
        // Two shards record disjoint streams; merging them must yield
        // exactly the histogram a single recorder would have built.
        let a = LatencyHistogram::default();
        let b = LatencyHistogram::default();
        let whole = LatencyHistogram::default();
        for i in 0..500u64 {
            let ns = 100 + i * 37;
            if i % 3 == 0 {
                a.record(ns);
            } else {
                b.record(ns);
            }
            whole.record(ns);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.snapshot(), whole.snapshot());
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert!(
                (a.quantile_s(q) - whole.quantile_s(q)).abs() < 1e-15,
                "q={q}: merged {} vs whole {}",
                a.quantile_s(q),
                whole.quantile_s(q)
            );
        }
        assert!((a.mean_s() - whole.mean_s()).abs() < 1e-15);
    }

    #[test]
    fn snapshot_merge_matches_histogram_merge() {
        let a = LatencyHistogram::default();
        let b = LatencyHistogram::default();
        for i in 0..300u64 {
            if i % 2 == 0 {
                a.record(50 + i * 11);
            } else {
                b.record(50 + i * 11);
            }
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        a.merge(&b);
        assert_eq!(merged, a.snapshot());
        assert_eq!(merged.count(), 300);
    }

    #[test]
    fn delta_isolates_the_window() {
        let h = LatencyHistogram::default();
        for _ in 0..10 {
            h.record(1_000);
        }
        let earlier = h.snapshot();
        for _ in 0..5 {
            h.record(1 << 20); // ~1 ms, bucket 20
        }
        let window = h.delta(&earlier);
        assert_eq!(window.count(), 5, "only the post-snapshot samples");
        assert_eq!(window.buckets[9], 0, "older bucket excluded");
        assert_eq!(window.buckets[20], 5);
        // The window's quantiles describe the window alone.
        assert!(window.quantile_s(0.5) > 1e-4);
        // A self-delta is empty; a reversed delta saturates to zero.
        assert!(h.delta(&h.snapshot()).is_empty());
        assert!(earlier.delta(&h.snapshot()).is_empty());
    }

    #[test]
    fn snapshot_count_equals_bucket_sum_under_concurrent_recording() {
        let h = Arc::new(LatencyHistogram::default());
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..20_000u64 {
                        h.record(1 + (i << (w % 8)));
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            let s = h.snapshot();
            assert_eq!(
                s.count(),
                s.buckets.iter().sum::<u64>(),
                "snapshot count is derived, so this must hold by construction"
            );
            // Quantiles on a mid-flight snapshot stay inside the table.
            assert!(s.quantile_s(1.0) < 2f64.powi(BUCKETS as i32) / 1e9);
        }
        for t in writers {
            t.join().expect("writer finishes");
        }
        assert_eq!(h.count(), 80_000);
    }

    #[test]
    fn atomic_f64_accumulates_across_threads() {
        let acc = Arc::new(AtomicF64::default());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let acc = Arc::clone(&acc);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        acc.add(0.5);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("thread finishes");
        }
        assert!((acc.get() - 4000.0).abs() < 1e-9);
        acc.set(1.25);
        assert!((acc.get() - 1.25).abs() < 1e-15);
    }
}
