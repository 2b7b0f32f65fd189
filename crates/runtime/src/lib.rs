//! `pic-runtime` — a concurrent serving runtime for the photonic tensor
//! core.
//!
//! The hardware crates model one 16×16 mixed-signal photonic core
//! (pSRAM weights, WDM vector macros, per-row electro-optic ADCs). This
//! crate turns that single device into a *service*:
//!
//! * [`TiledMatrix`] decomposes arbitrary `out × in` weight matrices
//!   into core-sized tiles;
//! * [`TileExecutor`] streams tiles through the optical write path,
//!   digitises per-tile partial products, and accumulates the ADC codes
//!   digitally — charging modeled time/energy for every step;
//! * [`DevicePool`] shares N calibrated devices with residency-affine
//!   checkout, so hot matrices keep landing on arrays that already hold
//!   their weights;
//! * [`Runtime`] adds a bounded pending queue that one worker per
//!   device pulls same-matrix batches from, per-request deadlines,
//!   typed rejections, and graceful shutdown — all on std threads, one
//!   mutex and one condvar;
//! * [`MetricsRegistry`] counts everything in atomics — with per-stage
//!   latency/energy attribution (`pic-obs` spans through
//!   submit → queue → admission → write → compute → digitize → merge →
//!   respond) and one Prometheus/JSON exposition
//!   [`Frame`](pic_obs::Frame) via [`Runtime::frame`] that every reader
//!   uses.
//!
//! ## Data path
//!
//! ```text
//! submit() ──▶ pending queue ◀── worker (one per device): when free, runs
//!              (one Mutex +       the admission policy and takes up to
//!               Condvar; ≤        max_batch same-matrix requests
//!               queue_depth)              │
//!                                         ▼
//!                               DevicePool::acquire_for
//!                               (residency-affine checkout)
//!                                         │
//!                                         ▼
//!                               TileExecutor::execute ──▶ ResponseHandle
//! ```
//!
//! Everything is std threads, one mutex and one condvar — no async
//! runtime, no external dependencies. A request crosses two threads:
//! its submitter and the worker that serves it. Every accepted request
//! no worker has taken counts against `queue_depth`, so overload
//! surfaces as a typed [`RuntimeError::QueueFull`] at the edge instead
//! of unbounded memory growth; deadlines are enforced at submit, at
//! batch formation and again before the device pass with
//! [`RuntimeError::DeadlineExpired`]; dropping the [`Runtime`] drains
//! accepted work and joins every thread.
//!
//! Residency steers the pull: the admission policy reads which matrices
//! idle devices hold from the pool's index, and a free worker leaves a
//! short group (at most `2 · max_batch` requests) to the worker already
//! running its matrix, which takes it next without a tile rewrite.
//!
//! ```
//! use pic_runtime::{MatmulRequest, Runtime, RuntimeConfig, TileShape, TiledMatrix};
//! use pic_tensor::TensorCoreConfig;
//! use std::sync::Arc;
//!
//! let mut config = RuntimeConfig::paper();
//! config.core = TensorCoreConfig::small_demo();
//! config.devices = 2;
//! let rt = Runtime::start(config);
//!
//! // A 10×7 matrix tiles onto the 4×4 demo core as a 3×2 grid.
//! let weights = vec![vec![0.5; 7]; 10];
//! let matrix = Arc::new(TiledMatrix::from_weights(&weights, 3, TileShape::new(4, 4)));
//! let handle = rt
//!     .submit(MatmulRequest::new(matrix, vec![vec![0.25; 7]]))
//!     .expect("accepted");
//! let response = handle.wait().expect("served");
//! assert_eq!(response.outputs[0].len(), 10);
//! ```

#![warn(missing_docs)]

pub mod admission;
mod executor;
mod metrics;
mod pool;
mod request;
mod scheduler;
mod tile;

pub use admission::{
    AdmissionPolicy, AdmissionPolicyKind, DispatchContext, EarliestDeadlineFirst, Fifo, GroupView,
    PendingItem, PendingQueues, ResidencyAware,
};
pub use executor::TileExecutor;
pub use metrics::{AtomicF64, LatencyHistogram, MetricsRegistry};
pub use pool::{DeviceGuard, DevicePool};
pub use request::{MatmulRequest, OutputElement, RequestCost, Response, RuntimeError};
pub use scheduler::{CompletionWaker, ResponseHandle, Runtime, RuntimeConfig};
pub use tile::{Tile, TileKey, TileShape, TiledMatrix};
