//! Stage taxonomy, per-stage statistics, and the span/timer API.
//!
//! The request lifecycle is fixed and small, so stages are an enum, not
//! strings: `submit → queue → admission → write → compute → digitize →
//! merge → respond`. Each stage owns a [`LatencyHistogram`] plus a
//! modeled-energy accumulator in a [`StageStats`] table.
//!
//! Two recording APIs:
//!
//! * [`StageTimer`] — explicit: the caller holds a `&StageStats` and the
//!   timer records its wall-clock lifetime into it on drop. Used where
//!   the registry is in hand (scheduler, submit path).
//! * [`Span`] — ambient: records into the thread's *installed collector*
//!   ([`install_collector`]), so deep library code (the tensor kernels)
//!   can be instrumented without threading a registry through every
//!   signature. Spans keep a thread-local stack and record **self
//!   time** (own elapsed minus enclosed child spans), so nested spans
//!   never double-count a nanosecond. On a thread with no collector a
//!   span is a no-op.

use crate::hist::{AtomicF64, HistogramSnapshot, LatencyHistogram};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// One stage of the request lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Request validation + pending-queue push (caller thread).
    Submit = 0,
    /// Pending-queue wait: accepted → taken into a batch by a worker.
    Queue = 1,
    /// Admission: policy selection + batch formation (the pulling
    /// worker, under the queue lock).
    Admission = 2,
    /// Optical tile write: streaming weights through the pSRAM path.
    Write = 3,
    /// Analog compute: the photonic matvec over the cached gain matrix.
    Compute = 4,
    /// Digitisation: per-row eoADC threshold-table conversion.
    Digitize = 5,
    /// Digital merge: partial-sum accumulation + output assembly.
    Merge = 6,
    /// Response fan-out back to the waiting handles.
    Respond = 7,
}

/// Number of stages in [`Stage`].
pub const STAGE_COUNT: usize = 8;

impl Stage {
    /// Every stage, lifecycle order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Submit,
        Stage::Queue,
        Stage::Admission,
        Stage::Write,
        Stage::Compute,
        Stage::Digitize,
        Stage::Merge,
        Stage::Respond,
    ];

    /// Stable lower-case label (metric/JSON key).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Stage::Submit => "submit",
            Stage::Queue => "queue",
            Stage::Admission => "admission",
            Stage::Write => "write",
            Stage::Compute => "compute",
            Stage::Digitize => "digitize",
            Stage::Merge => "merge",
            Stage::Respond => "respond",
        }
    }
}

/// One stage's cell: wall-clock histogram + modeled energy.
#[derive(Debug, Default)]
struct StageCell {
    hist: LatencyHistogram,
    energy_j: AtomicF64,
}

/// Per-stage latency histograms and modeled-energy accumulators.
#[derive(Debug, Default)]
pub struct StageStats {
    cells: [StageCell; STAGE_COUNT],
}

/// A plain copy of one stage's statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSnapshot {
    /// The stage.
    pub stage: Stage,
    /// Wall-clock samples of the stage.
    pub hist: HistogramSnapshot,
    /// Modeled energy attributed to the stage, J.
    pub energy_j: f64,
}

impl StageStats {
    /// A fresh all-zero table.
    #[must_use]
    pub fn new() -> Self {
        StageStats::default()
    }

    /// Records `nanos` of wall-clock time against `stage`.
    #[inline]
    pub fn record_ns(&self, stage: Stage, nanos: u64) {
        self.cells[stage as usize].hist.record(nanos);
    }

    /// Attributes `joules` of modeled energy to `stage`.
    #[inline]
    pub fn add_energy_j(&self, stage: Stage, joules: f64) {
        self.cells[stage as usize].energy_j.add(joules);
    }

    /// The stage's wall-clock histogram.
    #[must_use]
    pub fn hist(&self, stage: Stage) -> &LatencyHistogram {
        &self.cells[stage as usize].hist
    }

    /// The stage's accumulated modeled energy, J.
    #[must_use]
    pub fn energy_j(&self, stage: Stage) -> f64 {
        self.cells[stage as usize].energy_j.get()
    }

    /// Total modeled energy across all stages, J.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        Stage::ALL.iter().map(|&s| self.energy_j(s)).sum()
    }

    /// Plain copies of every stage, lifecycle order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<StageSnapshot> {
        Stage::ALL
            .iter()
            .map(|&stage| StageSnapshot {
                stage,
                hist: self.hist(stage).snapshot(),
                energy_j: self.energy_j(stage),
            })
            .collect()
    }
}

/// One open span on the thread's stack.
struct Open {
    stage: Stage,
    started: Instant,
    child_ns: u64,
}

thread_local! {
    static COLLECTOR: RefCell<Option<Arc<StageStats>>> = const { RefCell::new(None) };
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
}

/// Installs (or clears) this thread's ambient collector.
pub fn install_collector(stats: Option<Arc<StageStats>>) {
    COLLECTOR.with(|c| *c.borrow_mut() = stats);
}

/// Whether this thread currently has a collector installed.
#[must_use]
pub fn collector_installed() -> bool {
    COLLECTOR.with(|c| c.borrow().is_some())
}

/// Credits `ns` of self time for `stage` directly to this thread's
/// collector — the lightweight alternative to a [`Span`] pair for
/// straight-line phases the caller already timed with its own clock
/// reads. The time also counts as child time of the innermost open
/// span (if any), so enclosing spans' self-time attribution stays
/// exact. A no-op on threads with no collector installed.
pub fn record_stage_ns(stage: Stage, ns: u64) {
    COLLECTOR.with(|c| {
        if let Some(stats) = c.borrow().as_ref() {
            stats.record_ns(stage, ns);
        }
    });
    STACK.with(|s| {
        if let Some(parent) = s.borrow_mut().last_mut() {
            parent.child_ns += ns;
        }
    });
}

/// An RAII span recording self time into the thread's collector.
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to _ drops it immediately"]
pub struct Span {
    active: bool,
}

impl Span {
    /// Opens a span for `stage`; a no-op on threads with no
    /// installed collector.
    #[inline]
    pub fn enter(stage: Stage) -> Span {
        if !collector_installed() {
            return Span { active: false };
        }
        STACK.with(|s| {
            s.borrow_mut().push(Open {
                stage,
                started: Instant::now(),
                child_ns: 0,
            })
        });
        Span { active: true }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let open = stack.pop().expect("span stack underflow");
            let total = open.started.elapsed().as_nanos() as u64;
            let self_ns = total.saturating_sub(open.child_ns);
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += total;
            }
            drop(stack);
            COLLECTOR.with(|c| {
                if let Some(stats) = c.borrow().as_ref() {
                    stats.record_ns(open.stage, self_ns);
                }
            });
        });
    }
}

/// An explicit RAII stage timer: records its wall-clock lifetime into
/// the given [`StageStats`] on drop. Unlike [`Span`] it needs no
/// thread-local installation and does not participate in the span
/// stack (no self-time subtraction) — use it where the stats table is
/// already in hand and stages do not nest.
#[derive(Debug)]
#[must_use = "a timer records on drop; binding it to _ drops it immediately"]
pub struct StageTimer<'a> {
    stats: &'a StageStats,
    stage: Stage,
    started: Instant,
}

impl<'a> StageTimer<'a> {
    /// Starts timing `stage` against `stats`.
    #[inline]
    pub fn start(stats: &'a StageStats, stage: Stage) -> StageTimer<'a> {
        StageTimer {
            stats,
            stage,
            started: Instant::now(),
        }
    }
}

impl Drop for StageTimer<'_> {
    fn drop(&mut self) {
        self.stats
            .record_ns(self.stage, self.started.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_labels_are_stable_and_distinct() {
        let labels: Vec<_> = Stage::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), STAGE_COUNT);
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), STAGE_COUNT, "labels must be distinct");
        assert_eq!(Stage::Write.label(), "write");
    }

    #[test]
    fn stage_stats_accumulate_time_and_energy() {
        let stats = StageStats::new();
        stats.record_ns(Stage::Write, 1_000);
        stats.record_ns(Stage::Write, 2_000);
        stats.add_energy_j(Stage::Write, 1e-12);
        stats.add_energy_j(Stage::Compute, 2e-12);
        assert_eq!(stats.hist(Stage::Write).count(), 2);
        assert!((stats.energy_j(Stage::Write) - 1e-12).abs() < 1e-24);
        assert!((stats.total_energy_j() - 3e-12).abs() < 1e-24);
        let snap = stats.snapshot();
        assert_eq!(snap.len(), STAGE_COUNT);
        assert_eq!(snap[Stage::Write as usize].hist.count(), 2);
    }

    #[test]
    fn stage_timer_records_on_drop() {
        let stats = StageStats::new();
        {
            let _t = StageTimer::start(&stats, Stage::Admission);
            std::hint::black_box(());
        }
        assert_eq!(stats.hist(Stage::Admission).count(), 1);
    }

    #[test]
    fn spans_need_an_installed_collector() {
        // No collector: spans are inert.
        install_collector(None);
        {
            let _span = Span::enter(Stage::Compute);
        }
        let stats = Arc::new(StageStats::new());
        install_collector(Some(Arc::clone(&stats)));
        {
            let _span = Span::enter(Stage::Compute);
        }
        install_collector(None);
        assert_eq!(stats.hist(Stage::Compute).count(), 1);
    }

    #[test]
    fn nested_spans_record_self_time_not_total() {
        let stats = Arc::new(StageStats::new());
        install_collector(Some(Arc::clone(&stats)));
        {
            let _outer = Span::enter(Stage::Merge);
            {
                let _inner = Span::enter(Stage::Digitize);
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            // Outer tail does almost nothing.
        }
        install_collector(None);
        let digitize = stats.hist(Stage::Digitize).mean_s();
        let merge = stats.hist(Stage::Merge).mean_s();
        assert!(digitize >= 0.015, "inner span sees the sleep: {digitize}");
        assert!(
            merge < digitize / 2.0,
            "outer span must subtract the child's {digitize}s, recorded {merge}s"
        );
    }

    #[test]
    fn collector_is_per_thread() {
        let stats = Arc::new(StageStats::new());
        install_collector(Some(Arc::clone(&stats)));
        let handle = std::thread::spawn(|| {
            // Fresh thread: no collector installed here.
            assert!(!collector_installed());
            let _span = Span::enter(Stage::Compute);
        });
        handle.join().expect("thread finishes");
        install_collector(None);
        assert_eq!(stats.hist(Stage::Compute).count(), 0);
    }
}
