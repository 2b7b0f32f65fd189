//! Order statistics used by every report: latency percentiles with their
//! support, and the quartiles that decide run-to-run spread.

/// The percentiles a latency report may name, highest first, each with
/// the share of samples beyond it in parts per thousand (exact integers,
/// so 1000 samples support p99 without rounding doubt).
const CANDIDATES: [(f64, usize); 6] = [
    (99.9, 1),
    (99.0, 10),
    (95.0, 50),
    (90.0, 100),
    (75.0, 250),
    (50.0, 500),
];

/// Samples a percentile needs beyond it before it is reported.
const TAIL_SUPPORT: usize = 10;

/// The value at percentile `p` (0–100) of ascending `sorted`, by nearest
/// rank. `None` when there are no samples.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    // The tolerance keeps decimal percentiles such as 99.9 from rounding
    // up past an exact rank.
    let rank = (p * sorted.len() as f64 / 100.0 - 1e-6).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The highest candidate percentile with at least ten samples beyond it.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// How many samples it was taken over.
    pub samples: usize,
}

impl Tail {
    /// Whether p99 itself has ten samples beyond it.
    #[must_use]
    pub fn supports_p99(&self) -> bool {
        self.percentile >= 99.0
    }
}

/// The highest of p99.9, p99, p95, p90, p75 and p50 that has at least ten
/// samples beyond it; `None` when not even the median has.
#[must_use]
pub fn supported_tail(sorted: &[f64]) -> Option<Tail> {
    CANDIDATES
        .iter()
        .find(|&&(_, beyond)| sorted.len() * beyond / 1000 >= TAIL_SUPPORT)
        .map(|&(p, _)| Tail {
            percentile: p,
            value: percentile(sorted, p).expect("support implies samples"),
            samples: sorted.len(),
        })
}

/// The median, as Python's `statistics.median` computes it.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, with the quartiles taken as
/// Python's `statistics.quantiles(values, n=4)` (the exclusive method)
/// takes them, so spreads read the same here and in any tool that repeats
/// the runs.
///
/// # Panics
///
/// Panics with fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), median(&data), cut(3))
}

/// The distance between the quartiles as a share of the median; 0 for a
/// single value.
#[must_use]
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        return 0.0;
    }
    (q3 - q1) / med.abs()
}

/// An ascending copy (NaN-free input assumed; NaN sorts last).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_names_the_highest_percentile_with_ten_samples_beyond_it() {
        let t = supported_tail(&ramp(1000)).expect("supported");
        assert_eq!(
            t.percentile, 99.0,
            "1000 samples leave exactly 10 beyond p99"
        );
        assert_eq!(t.value, 990.0);
        assert!(t.supports_p99());
        let t = supported_tail(&ramp(10_000)).expect("supported");
        assert_eq!(t.percentile, 99.9);
        assert_eq!(t.value, 9990.0);
    }

    #[test]
    fn tail_says_so_when_p99_is_unsupported() {
        let t = supported_tail(&ramp(999)).expect("supported");
        assert!(!t.supports_p99(), "999 samples leave under 10 beyond p99");
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.samples, 999);
        let t = supported_tail(&ramp(40)).expect("median is supported");
        assert_eq!(t.percentile, 75.0);
        assert_eq!(supported_tail(&ramp(19)), None, "not even the median");
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        // A failed request is an infinite latency and lands in the tail.
        let mut with_failure = ramp(99);
        with_failure.push(f64::INFINITY);
        assert_eq!(percentile(&with_failure, 100.0), Some(f64::INFINITY));
        assert_eq!(percentile(&with_failure, 99.0), Some(99.0));
    }

    #[test]
    fn quartiles_match_the_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // Five runs: [10, 11, 12, 13, 30] -> [10.5, 12.0, 21.5]
        assert_eq!(
            quartiles(&[30.0, 10.0, 12.0, 11.0, 13.0]),
            (10.5, 12.0, 21.5)
        );
    }

    #[test]
    fn iqr_share_is_the_quartile_distance_over_the_median() {
        let share = iqr_share(&ramp(10));
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[4.0; 7]), 0.0, "identical runs have no spread");
        assert_eq!(iqr_share(&[4.0]), 0.0);
        assert_eq!(median(&[1.0, 4.0, 2.0, 3.0]), 2.5);
    }
}
