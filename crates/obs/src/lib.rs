//! # pic-obs — dependency-free observability for the photonic serving stack
//!
//! The runtime and tensor crates need to explain where time and energy
//! go without paying for it on the hot path. This crate provides the
//! pieces, with **zero external dependencies** (consistent with the
//! workspace's vendored-offline policy):
//!
//! * [`hist`] — lock-free log₂-bucketed [`LatencyHistogram`] with
//!   `merge`/`delta`/snapshot, and [`AtomicF64`] accumulators.
//! * [`span`] — the [`Stage`] taxonomy of the request lifecycle,
//!   per-stage stats tables ([`StageStats`]), ambient RAII [`Span`]s
//!   recording self time through a thread-local collector, and
//!   explicit [`StageTimer`]s.
//! * [`expose`] — a unified [`Frame`] snapshot rendered as Prometheus
//!   text or JSON, with [`Frame::delta`] for windowed views.
//! * [`trace`] — request-scoped distributed tracing: deterministic
//!   [`TraceId`]s, span-tree [`TraceCollector`]s threaded through the
//!   request, head + slow-outlier sampling ([`Tracer`]), and a bounded
//!   [`TraceStore`] ring served as JSON.
//! * [`series`] — a windowed metrics time series ([`SeriesStore`]):
//!   a ring of per-tick [`Frame`] deltas powering `/metrics/history`
//!   and SLO burn-rate gauges ([`BurnGauges`]).
//!
//! ## Cost model
//!
//! Recording is wait-free on the writer side: a histogram record is
//! two relaxed `fetch_add`s, a span is two `Instant::now()` calls plus
//! a TLS push/pop. What instrumentation costs is switched at run time
//! and measured that way: ambient spans record only on threads with an
//! installed collector, and traces only for sampled requests.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod expose;
pub mod hist;
pub mod series;
pub mod span;
pub mod trace;

pub use expose::{prom_label_value, Frame, StageFrame};
pub use hist::{AtomicF64, HistogramSnapshot, LatencyHistogram, BUCKETS};
pub use series::{BurnGauges, SeriesPoint, SeriesStore};
pub use span::{
    collector_installed, install_collector, record_stage_ns, Span, Stage, StageSnapshot,
    StageStats, StageTimer, STAGE_COUNT,
};
pub use trace::{
    SpanRecord, TraceCollector, TraceContext, TraceId, TraceRecord, TraceStore, Tracer,
};
