//! Windowed metrics time series: a fixed ring of per-tick [`Frame`]
//! deltas, powering `GET /metrics/history` and SLO burn-rate gauges.
//!
//! A ticker thread pushes one cumulative [`Frame`] per second;
//! [`SeriesStore::push`] subtracts the previous frame so each stored
//! point holds only that tick's activity. Windows are then just sums
//! of recent points: counters add, histograms merge bucket-wise, and
//! gauges keep the newest instantaneous value.
//!
//! *Burn rate* compares a window's behaviour against an SLO: a p99
//! burn of 1.0 means the window's p99 latency sits exactly at the
//! objective, 2.0 means it is twice the objective; an error burn of
//! 1.0 means the window consumed error budget exactly as fast as the
//! budget allows. Alerting on short-window burn > threshold is the
//! standard multi-window burn-rate pattern.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::expose::Frame;

/// One stored tick: the frame *delta* covering `(previous tick, at_s]`.
#[derive(Debug, Clone)]
pub struct SeriesPoint {
    /// Timestamp of the tick, seconds since the producer's origin.
    pub at_s: f64,
    /// Activity within the tick (counters/histograms are per-tick
    /// deltas; gauges are instantaneous at the tick).
    pub delta: Frame,
}

#[derive(Debug, Default)]
struct SeriesInner {
    last: Option<Frame>,
    ring: VecDeque<SeriesPoint>,
}

/// SLO burn-rate gauges over one window (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnGauges {
    /// Window p99 latency divided by the p99 objective.
    pub p99_burn: f64,
    /// Window error rate divided by the error budget.
    pub error_burn: f64,
    /// Seconds the window actually covers.
    pub window_s: f64,
}

/// Bounded ring of per-tick frame deltas.
#[derive(Debug)]
pub struct SeriesStore {
    capacity: usize,
    inner: Mutex<SeriesInner>,
}

impl SeriesStore {
    /// A store keeping the last `capacity` ticks (rounded up to 1).
    #[must_use]
    pub fn new(capacity: usize) -> SeriesStore {
        SeriesStore {
            capacity: capacity.max(1),
            inner: Mutex::new(SeriesInner::default()),
        }
    }

    /// Ring capacity in ticks.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Ticks currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().ring.len()
    }

    /// Whether no ticks are held yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ingests one cumulative frame: stores its delta against the
    /// previous push (the first push is stored as-is, covering
    /// "since start").
    pub fn push(&self, frame: Frame) {
        let mut inner = self.inner.lock().unwrap();
        let delta = match &inner.last {
            Some(last) => frame.delta(last),
            None => frame.clone(),
        };
        let at_s = frame.at_s;
        inner.last = Some(frame);
        inner.ring.push_back(SeriesPoint { at_s, delta });
        while inner.ring.len() > self.capacity {
            inner.ring.pop_front();
        }
    }

    /// The most recent `n` ticks, oldest first.
    #[must_use]
    pub fn recent(&self, n: usize) -> Vec<SeriesPoint> {
        let inner = self.inner.lock().unwrap();
        let skip = inner.ring.len().saturating_sub(n);
        inner.ring.iter().skip(skip).cloned().collect()
    }

    /// One frame summing the most recent `n` ticks: counters add,
    /// stage energy adds, histograms merge bucket-wise, gauges keep
    /// the newest tick's values. `None` when the series is empty.
    #[must_use]
    pub fn window(&self, n: usize) -> Option<Frame> {
        let points = self.recent(n);
        let (first, rest) = points.split_first()?;
        let mut acc = first.delta.clone();
        for point in rest {
            accumulate(&mut acc, &point.delta);
        }
        acc.at_s = points.last().map_or(acc.at_s, |p| p.at_s);
        Some(acc)
    }

    /// Burn-rate gauges over the most recent `n` ticks. The window's
    /// p99 is read from the named histogram; its error rate from
    /// `err_counter / (ok_counter + err_counter)`. A window with no
    /// replies burns nothing. `None` when the series is empty, the
    /// objective is non-positive, or the budget is non-positive.
    #[must_use]
    pub fn burn(
        &self,
        n: usize,
        latency_hist: &str,
        ok_counter: &str,
        err_counter: &str,
        p99_target_s: f64,
        error_budget: f64,
    ) -> Option<BurnGauges> {
        if p99_target_s <= 0.0 || error_budget <= 0.0 {
            return None;
        }
        let points = self.recent(n);
        let window = self.window(n)?;
        let counter = |name: &str| -> u64 {
            window
                .counters
                .iter()
                .find(|(c, _)| *c == name)
                .map_or(0, |&(_, v)| v)
        };
        let p99 = window
            .hists
            .iter()
            .find(|(c, _)| *c == latency_hist)
            .map_or(0.0, |(_, h)| h.quantile_s(0.99));
        let ok = counter(ok_counter);
        let err = counter(err_counter);
        let total = ok + err;
        let error_rate = if total == 0 {
            0.0
        } else {
            err as f64 / total as f64
        };
        let window_s = match (points.first(), points.last()) {
            (Some(a), Some(b)) if b.at_s > a.at_s => b.at_s - a.at_s + 1.0,
            _ => points.len() as f64,
        };
        Some(BurnGauges {
            p99_burn: p99 / p99_target_s,
            error_burn: error_rate / error_budget,
            window_s,
        })
    }

    /// JSON document for `GET /metrics/history`: the most recent `n`
    /// ticks, oldest first, each a full frame object.
    #[must_use]
    pub fn history_json(&self, n: usize) -> String {
        let points = self.recent(n);
        let mut out = String::with_capacity(256 + points.len() * 512);
        out.push_str("{\"points\":[");
        for (i, point) in points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&point.delta.to_json());
        }
        out.push_str(&format!(
            "],\"len\":{},\"capacity\":{}}}",
            points.len(),
            self.capacity
        ));
        out
    }
}

/// Adds `d` into `acc`: counters/energy sum, histograms merge, gauges
/// take `d`'s (newer) values, names missing from `acc` are appended.
fn accumulate(acc: &mut Frame, d: &Frame) {
    for &(name, v) in &d.counters {
        match acc.counters.iter_mut().find(|(n, _)| *n == name) {
            Some(entry) => entry.1 += v,
            None => acc.counters.push((name, v)),
        }
    }
    for (name, v) in &d.gauges {
        match acc.gauges.iter_mut().find(|(n, _)| n == name) {
            Some(entry) => entry.1 = *v,
            None => acc.gauges.push((name.clone(), *v)),
        }
    }
    for stage in &d.stages {
        match acc.stages.iter_mut().find(|s| s.stage == stage.stage) {
            Some(entry) => {
                entry.hist.merge(&stage.hist);
                entry.energy_j += stage.energy_j;
            }
            None => acc.stages.push(stage.clone()),
        }
    }
    for (name, hist) in &d.hists {
        match acc.hists.iter_mut().find(|(n, _)| n == name) {
            Some(entry) => entry.1.merge(hist),
            None => acc.hists.push((*name, hist.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LatencyHistogram;

    fn frame(at_s: f64, ok: u64, err: u64, latency_ns: &[u64]) -> Frame {
        let h = LatencyHistogram::new();
        for &ns in latency_ns {
            h.record(ns);
        }
        Frame {
            at_s,
            counters: vec![("replies_ok", ok), ("replies_error", err)],
            gauges: vec![("inflight".to_owned(), ok as f64)],
            stages: Vec::new(),
            hists: vec![("latency", h.snapshot())],
        }
    }

    #[test]
    fn push_stores_per_tick_deltas() {
        let store = SeriesStore::new(8);
        store.push(frame(1.0, 10, 0, &[1_000]));
        store.push(frame(2.0, 25, 1, &[1_000, 2_000]));
        assert_eq!(store.len(), 2);
        let points = store.recent(8);
        assert_eq!(points[0].delta.counters[0], ("replies_ok", 10));
        assert_eq!(points[1].delta.counters[0], ("replies_ok", 15));
        assert_eq!(points[1].delta.counters[1], ("replies_error", 1));
        assert_eq!(points[1].delta.hists[0].1.count(), 1);
    }

    #[test]
    fn ring_caps_and_window_sums() {
        let store = SeriesStore::new(3);
        for t in 1..=5u64 {
            // Cumulative inputs: tick t has seen t samples in total.
            let samples = vec![1_000u64; t as usize];
            store.push(frame(t as f64, t * 10, t, &samples));
        }
        assert_eq!(store.len(), 3);
        // Window over the last 2 ticks: deltas are (+10 ok, +1 err) each.
        let w = store.window(2).expect("non-empty window");
        assert_eq!(w.counters[0], ("replies_ok", 20));
        assert_eq!(w.counters[1], ("replies_error", 2));
        assert_eq!(w.at_s, 5.0);
        // Gauges keep the newest tick's value.
        assert_eq!(w.gauges[0].1, 50.0);
        // Histograms merge: one fresh sample per tick after the first.
        assert_eq!(w.hists[0].1.count(), 2);
    }

    #[test]
    fn burn_rates_scale_with_the_slo() {
        let store = SeriesStore::new(8);
        store.push(frame(1.0, 0, 0, &[]));
        // Tick 2: 90 ok + 10 err, latencies ~1 ms.
        let samples: Vec<u64> = (0..100).map(|_| 1_000_000).collect();
        store.push(frame(2.0, 90, 10, &samples));
        let burn = store
            .burn(8, "latency", "replies_ok", "replies_error", 2e-3, 0.05)
            .expect("non-empty series");
        // p99 ≈ 1-2 ms against a 2 ms objective: burn in (0, ~1].
        assert!(burn.p99_burn > 0.25 && burn.p99_burn <= 1.01, "{burn:?}");
        // 10% errors against a 5% budget: burn = 2.
        assert!((burn.error_burn - 2.0).abs() < 1e-9, "{burn:?}");
        assert!((burn.window_s - 2.0).abs() < 1e-9, "{burn:?}");
        // Degenerate SLOs refuse rather than divide by zero.
        assert!(store
            .burn(8, "latency", "replies_ok", "replies_error", 0.0, 0.05)
            .is_none());
        assert!(store
            .burn(8, "latency", "replies_ok", "replies_error", 1.0, 0.0)
            .is_none());
        // An idle window burns nothing.
        let idle = SeriesStore::new(4);
        idle.push(frame(1.0, 0, 0, &[]));
        let b = idle
            .burn(4, "latency", "replies_ok", "replies_error", 1e-3, 0.01)
            .unwrap();
        assert_eq!(b.p99_burn, 0.0);
        assert_eq!(b.error_burn, 0.0);
    }

    #[test]
    fn history_json_is_balanced_and_labelled() {
        let store = SeriesStore::new(4);
        store.push(frame(1.0, 1, 0, &[500]));
        store.push(frame(2.0, 3, 0, &[700]));
        let json = store.history_json(4);
        assert!(json.starts_with("{\"points\":["));
        assert!(json.contains("\"len\":2"));
        assert!(json.contains("\"capacity\":4"));
        assert!(json.contains("\"replies_ok\":2"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_series_reads_are_calm() {
        let store = SeriesStore::new(4);
        assert!(store.window(4).is_none());
        assert!(store
            .burn(4, "latency", "replies_ok", "replies_error", 1.0, 0.1)
            .is_none());
        assert_eq!(
            store.history_json(4),
            "{\"points\":[],\"len\":0,\"capacity\":4}"
        );
    }
}
