//! Lock-free serving metrics: counters, latency histograms, per-stage
//! statistics and energy.
//!
//! Workers record into atomics (no locks on the hot path), and
//! [`MetricsRegistry::frame`] builds the one [`pic_obs::Frame`] every
//! reader uses: the Prometheus/JSON exposition layer, `pic-net`'s
//! series ticker and the benchmark's scrape.
//!
//! The histogram and float-accumulator primitives live in `pic-obs`
//! (re-exported here for compatibility); this module owns the
//! registry that wires them to the runtime's request lifecycle.

pub use pic_obs::{AtomicF64, LatencyHistogram};

use pic_obs::{Frame, Stage, StageFrame, StageStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The runtime's metrics registry; one per [`Runtime`](crate::Runtime).
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Requests accepted into the pending queue.
    pub submitted: AtomicU64,
    /// Requests completed with a response.
    pub completed: AtomicU64,
    /// Requests rejected because their deadline expired pre-execution.
    pub rejected_deadline: AtomicU64,
    /// Requests rejected because the pending queue was full.
    pub rejected_queue_full: AtomicU64,
    /// Requests rejected by validation.
    pub rejected_invalid: AtomicU64,
    /// Batches workers took from the pending queue.
    pub batches_dispatched: AtomicU64,
    /// Requests that shared a batch with at least one other request.
    pub requests_batched: AtomicU64,
    /// Batches the admission policy dispatched out of strict arrival
    /// order (0 under FIFO).
    pub admission_reorders: AtomicU64,
    /// Tiles streamed through the optical write path.
    pub tile_writes: AtomicU64,
    /// Tile loads avoided by residency.
    pub tile_hits: AtomicU64,
    /// End-to-end request latency (submit → response).
    pub latency: LatencyHistogram,
    /// Modeled hardware energy charged to completed requests, J.
    pub energy_j: AtomicF64,
    /// The pSRAM tile-write share of [`MetricsRegistry::energy_j`] — the
    /// component residency-aware admission exists to cut.
    pub write_energy_j: AtomicF64,
    /// Modeled hardware time charged to completed requests, s.
    pub device_time_s: AtomicF64,
    /// Per-stage wall-clock histograms and modeled energy attribution
    /// (shared with worker threads as their ambient span collector).
    pub stages: Arc<StageStats>,
    /// Live gauge: accepted requests no worker has taken yet (at most
    /// the runtime's `queue_depth`).
    pub pending_depth: AtomicU64,
    /// Live gauge: workers currently executing a batch.
    pub workers_busy: AtomicU64,
    /// Cumulative wall-clock nanoseconds workers spent executing
    /// batches (windowed against elapsed time it yields busy fraction).
    pub worker_busy_ns: AtomicU64,
    /// Worker/device count, set at runtime start (0 outside a runtime).
    pub devices: AtomicU64,
    /// Registry creation time — the origin of [`Frame::at_s`].
    started: Instant,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected_deadline: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_invalid: AtomicU64::new(0),
            batches_dispatched: AtomicU64::new(0),
            requests_batched: AtomicU64::new(0),
            admission_reorders: AtomicU64::new(0),
            tile_writes: AtomicU64::new(0),
            tile_hits: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            energy_j: AtomicF64::new(),
            write_energy_j: AtomicF64::new(),
            device_time_s: AtomicF64::new(),
            stages: Arc::new(StageStats::new()),
            pending_depth: AtomicU64::new(0),
            workers_busy: AtomicU64::new(0),
            worker_busy_ns: AtomicU64::new(0),
            devices: AtomicU64::new(0),
            started: Instant::now(),
        }
    }
}

impl MetricsRegistry {
    /// Builds the unified exposition [`Frame`]: every counter, the live
    /// gauges, the per-stage latency/energy rows, and the end-to-end
    /// latency histogram. Pool-level gauges (idle devices, residency)
    /// are appended by [`Runtime::frame`](crate::Runtime::frame).
    #[must_use]
    pub fn frame(&self) -> Frame {
        let devices = self.devices.load(Ordering::Relaxed);
        let busy = self.workers_busy.load(Ordering::Relaxed);
        let tile_writes = self.tile_writes.load(Ordering::Relaxed);
        let tile_hits = self.tile_hits.load(Ordering::Relaxed);
        let mut gauges = vec![
            (
                "pending_depth".to_owned(),
                self.pending_depth.load(Ordering::Relaxed) as f64,
            ),
            ("workers_busy".to_owned(), busy as f64),
            ("devices".to_owned(), devices as f64),
            ("energy_j".to_owned(), self.energy_j.get()),
            ("write_energy_j".to_owned(), self.write_energy_j.get()),
            ("device_time_s".to_owned(), self.device_time_s.get()),
        ];
        // Derived rates are only meaningful with a non-zero denominator;
        // omitting them distinguishes "no traffic / no devices" from a
        // genuine zero.
        if devices > 0 {
            gauges.push((
                "worker_busy_fraction".to_owned(),
                busy as f64 / devices as f64,
            ));
        }
        if tile_hits + tile_writes > 0 {
            gauges.push((
                "tile_hit_rate".to_owned(),
                tile_hits as f64 / (tile_hits + tile_writes) as f64,
            ));
        }
        Frame {
            at_s: self.started.elapsed().as_secs_f64(),
            counters: vec![
                ("requests_submitted", self.submitted.load(Ordering::Relaxed)),
                ("requests_completed", self.completed.load(Ordering::Relaxed)),
                (
                    "rejected_deadline",
                    self.rejected_deadline.load(Ordering::Relaxed),
                ),
                (
                    "rejected_queue_full",
                    self.rejected_queue_full.load(Ordering::Relaxed),
                ),
                (
                    "rejected_invalid",
                    self.rejected_invalid.load(Ordering::Relaxed),
                ),
                (
                    "batches_dispatched",
                    self.batches_dispatched.load(Ordering::Relaxed),
                ),
                (
                    "requests_batched",
                    self.requests_batched.load(Ordering::Relaxed),
                ),
                (
                    "admission_reorders",
                    self.admission_reorders.load(Ordering::Relaxed),
                ),
                ("tile_writes", self.tile_writes.load(Ordering::Relaxed)),
                ("tile_hits", self.tile_hits.load(Ordering::Relaxed)),
                (
                    "worker_busy_ns",
                    self.worker_busy_ns.load(Ordering::Relaxed),
                ),
            ],
            gauges,
            stages: self
                .stages
                .snapshot()
                .into_iter()
                .map(StageFrame::from)
                .collect(),
            hists: vec![("latency", self.latency.snapshot())],
        }
    }

    /// Total modeled energy attributed across stages, J. Reconciles
    /// with the [`MetricsRegistry::energy_j`] counter (same batch-level
    /// sources, so they agree to floating-point accumulation order).
    #[must_use]
    pub fn stage_energy_total_j(&self) -> f64 {
        self.stages.total_energy_j()
    }

    /// The write stage's attributed energy, J (reconciles with
    /// [`MetricsRegistry::write_energy_j`]).
    #[must_use]
    pub fn stage_write_energy_j(&self) -> f64 {
        self.stages.energy_j(Stage::Write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_gauges_are_omitted_when_undefined() {
        let m = MetricsRegistry::default();
        let gauge = |f: &Frame, n: &str| f.gauges.iter().find(|(name, _)| name == n).map(|g| g.1);
        // No devices registered, no tile traffic: the ratios are absent
        // rather than a fabricated 0.0.
        let f = m.frame();
        assert_eq!(gauge(&f, "worker_busy_fraction"), None);
        assert_eq!(gauge(&f, "tile_hit_rate"), None, "no traffic is not 0.0");
        assert_eq!(gauge(&f, "devices"), Some(0.0));
        // An all-miss workload IS a defined 0.0.
        m.tile_writes.fetch_add(3, Ordering::Relaxed);
        assert_eq!(gauge(&m.frame(), "tile_hit_rate"), Some(0.0));
        m.devices.store(4, Ordering::Relaxed);
        m.workers_busy.fetch_add(1, Ordering::Relaxed);
        m.tile_hits.fetch_add(9, Ordering::Relaxed);
        let f = m.frame();
        assert_eq!(gauge(&f, "worker_busy_fraction"), Some(0.25));
        assert_eq!(gauge(&f, "tile_hit_rate"), Some(0.75));
        assert_eq!(gauge(&f, "devices"), Some(4.0));
        // Every exposed gauge is finite — nothing leaks a NaN into the
        // Prometheus rendering.
        assert!(f.gauges.iter().all(|(_, v)| v.is_finite()));
    }

    #[test]
    fn frame_carries_counters_gauges_stages_and_latency() {
        let m = MetricsRegistry::default();
        m.completed.fetch_add(2, Ordering::Relaxed);
        m.pending_depth.store(4, Ordering::Relaxed);
        m.devices.store(2, Ordering::Relaxed);
        m.workers_busy.fetch_add(1, Ordering::Relaxed);
        m.latency.record(5_000);
        m.stages.record_ns(pic_obs::Stage::Compute, 1_000);
        m.stages.add_energy_j(pic_obs::Stage::Compute, 1e-12);
        let f = m.frame();
        assert!(f.at_s >= 0.0);
        let counter = |n: &str| {
            f.counters
                .iter()
                .find(|(name, _)| *name == n)
                .map(|&(_, v)| v)
        };
        assert_eq!(counter("requests_completed"), Some(2));
        let gauge = |n: &str| f.gauges.iter().find(|(name, _)| name == n).map(|g| g.1);
        assert_eq!(gauge("pending_depth"), Some(4.0));
        assert_eq!(gauge("worker_busy_fraction"), Some(0.5));
        assert_eq!(f.stages.len(), pic_obs::STAGE_COUNT);
        assert_eq!(f.hists[0].0, "latency");
        assert_eq!(f.hists[0].1.count(), 1);
        let compute = &f.stages[pic_obs::Stage::Compute as usize];
        assert_eq!(compute.hist.count(), 1);
        assert!((compute.energy_j - 1e-12).abs() < 1e-24);
        assert!((m.stage_energy_total_j() - 1e-12).abs() < 1e-24);
        // Renderers accept the frame end to end.
        assert!(f.to_prometheus("pic").contains("pic_requests_completed 2"));
        assert!(f.to_json().contains("\"requests_completed\":2"));
    }

    /// 8 writer threads hammer one registry while a reader builds
    /// frames concurrently. Every observed frame must have monotone
    /// counters, and every latency histogram's derived count must equal
    /// the sum of its bucket counts (the relaxed-race bug class the
    /// quantile clamp fix addresses).
    #[test]
    fn concurrent_snapshots_stay_monotone_and_self_consistent() {
        let m = Arc::new(MetricsRegistry::default());
        const WRITERS: usize = 8;
        const PER: u64 = 10_000;
        let counters = |f: &Frame| {
            let read = |n: &str| {
                f.counters
                    .iter()
                    .find(|(name, _)| *name == n)
                    .map(|&(_, v)| v)
                    .expect("counter present")
            };
            (
                read("requests_submitted"),
                read("requests_completed"),
                read("tile_writes"),
            )
        };
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let m = Arc::clone(&m);
                scope.spawn(move || {
                    for i in 0..PER {
                        m.submitted.fetch_add(1, Ordering::Relaxed);
                        m.completed.fetch_add(1, Ordering::Relaxed);
                        m.tile_writes.fetch_add(1, Ordering::Relaxed);
                        m.latency.record(1 + (w as u64 * PER + i) % 100_000);
                        m.energy_j.add(1e-12);
                        m.stages.record_ns(pic_obs::Stage::Compute, 500);
                    }
                });
            }
            let m = Arc::clone(&m);
            scope.spawn(move || {
                let mut last = counters(&m.frame());
                for _ in 0..500 {
                    let frame = m.frame();
                    let now = counters(&frame);
                    assert!(now.0 >= last.0, "monotone submitted");
                    assert!(now.1 >= last.1, "monotone completed");
                    assert!(now.2 >= last.2, "monotone writes");
                    // count == Σ bucket counts holds by construction in
                    // the histogram snapshot; quantiles must stay inside
                    // the recorded range even mid-race (the clamp fix).
                    let hist = &frame.hists[0].1;
                    assert_eq!(
                        hist.count(),
                        hist.buckets.iter().sum::<u64>(),
                        "derived count equals bucket sum"
                    );
                    for q in [0.5, 0.99, 0.999, 1.0] {
                        let v = hist.quantile_s(q);
                        assert!(
                            v <= 262_144e-9 + 1e-12,
                            "q{q} = {v}s escaped the recorded range"
                        );
                    }
                    last = now;
                }
            });
        });
        let end = m.frame();
        assert_eq!(counters(&end).0, (WRITERS as u64) * PER);
        assert_eq!(end.hists[0].1.count(), (WRITERS as u64) * PER);
    }
}
