//! Reading the stack's `/metrics` exposition from outside: scalar series
//! and log₂ histograms, and the windowed difference of two scrapes.

use pic_obs::{HistogramSnapshot, BUCKETS};
use std::collections::BTreeMap;

/// The metric-name prefix the front-end serves under.
pub const PREFIX: &str = "pic_";

/// One parsed exposition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    /// Counters and gauges by name (prefix stripped, labels kept).
    pub values: BTreeMap<String, f64>,
    /// Histograms by family name (prefix and `_seconds` stripped).
    pub hists: BTreeMap<String, HistogramSnapshot>,
}

impl Scrape {
    /// Parses Prometheus text as `pic-obs` renders it.
    #[must_use]
    pub fn parse(text: &str) -> Scrape {
        let mut scrape = Scrape::default();
        // Histogram buckets arrive cumulative; remember the previous
        // cumulative count per family to recover per-bucket counts.
        let mut cumulative: BTreeMap<String, u64> = BTreeMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let Some((name, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let name = name.strip_prefix(PREFIX).unwrap_or(name);
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            if let Some((family, le)) = name.split_once("_seconds_bucket{le=\"") {
                let le = le.trim_end_matches("\"}");
                if le == "+Inf" {
                    continue;
                }
                let Ok(upper_s) = le.parse::<f64>() else {
                    continue;
                };
                // Bucket i spans [2^i, 2^(i+1)) ns; `le` is its top edge.
                let index = ((upper_s * 1e9).log2().round() as usize).saturating_sub(1);
                let seen = cumulative.entry(family.to_owned()).or_insert(0);
                let count = (value as u64).saturating_sub(*seen);
                *seen = value as u64;
                let hist = scrape.hists.entry(family.to_owned()).or_default();
                if index < BUCKETS {
                    hist.buckets[index] += count;
                }
            } else if let Some(family) = name.strip_suffix("_seconds_sum") {
                scrape.hists.entry(family.to_owned()).or_default().sum_ns = (value * 1e9) as u64;
            } else if name.ends_with("_seconds_count") {
                continue;
            } else {
                scrape.values.insert(name.to_owned(), value);
            }
        }
        scrape
    }

    /// A scalar series; 0 when absent.
    #[must_use]
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of every series whose name matches `pred`.
    #[must_use]
    pub fn sum_where(&self, pred: impl Fn(&str) -> bool) -> f64 {
        self.values
            .iter()
            .filter(|(name, _)| pred(name))
            .map(|(_, v)| v)
            .sum()
    }

    /// A histogram; empty when absent.
    #[must_use]
    pub fn hist(&self, family: &str) -> HistogramSnapshot {
        self.hists.get(family).cloned().unwrap_or_default()
    }

    /// What happened between `earlier` and `self`: values and histogram
    /// buckets subtract. Gauges subtract too; read instantaneous gauges
    /// from a scrape directly.
    #[must_use]
    pub fn since(&self, earlier: &Scrape) -> Scrape {
        Scrape {
            values: self
                .values
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.value(k)))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(k, h)| (k.clone(), h.delta(&earlier.hist(k))))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_obs::{Frame, LatencyHistogram};

    #[test]
    fn round_trips_a_rendered_frame() {
        let latency = LatencyHistogram::new();
        for ns in [1_500, 1_700, 40_000, 41_000, 900_000] {
            latency.record(ns);
        }
        let frame = Frame {
            counters: vec![("requests_completed", 42), ("tile_writes", 7)],
            gauges: vec![
                ("worker_busy_fraction".to_owned(), 0.5),
                ("net_model_requests{model=\"m1\"}".to_owned(), 3.0),
            ],
            hists: vec![("latency", latency.snapshot())],
            ..Frame::default()
        };
        let scrape = Scrape::parse(&frame.to_prometheus("pic"));
        assert_eq!(scrape.value("requests_completed"), 42.0);
        assert_eq!(scrape.value("worker_busy_fraction"), 0.5);
        assert_eq!(scrape.value("net_model_requests{model=\"m1\"}"), 3.0);
        assert_eq!(scrape.value("absent"), 0.0);
        let hist = scrape.hist("latency");
        assert_eq!(
            hist.buckets,
            latency.snapshot().buckets,
            "per-bucket counts recovered"
        );
        assert_eq!(
            hist.quantile_s(0.5),
            latency.snapshot().quantile_s(0.5),
            "quantiles read the same from outside"
        );
        assert!((hist.sum_ns as f64 - 984_200.0).abs() < 1.0);
    }

    #[test]
    fn since_subtracts_counters_and_buckets() {
        let h = LatencyHistogram::new();
        h.record(1_000);
        let early = Frame {
            counters: vec![("tile_writes", 7)],
            hists: vec![("latency", h.snapshot())],
            ..Frame::default()
        };
        h.record(3_000);
        h.record(3_100);
        let late = Frame {
            counters: vec![("tile_writes", 10)],
            hists: vec![("latency", h.snapshot())],
            ..Frame::default()
        };
        let d = Scrape::parse(&late.to_prometheus("pic"))
            .since(&Scrape::parse(&early.to_prometheus("pic")));
        assert_eq!(d.value("tile_writes"), 3.0);
        assert_eq!(d.hist("latency").count(), 2);
    }
}
