//! `pic-net` — the network front-end of the serving runtime.
//!
//! Exposes a [`Runtime`](pic_runtime::Runtime) over loopback/LAN with
//! an HTTP/1.1 subset spoken entirely through `std::net` plus a raw
//! epoll shim (no external dependencies), and JSON request/reply
//! bodies whose `f64`s round-trip bit-identically (shortest-form
//! printing), so a networked result equals the in-process result
//! exactly.
//!
//! ## Transport engine
//!
//! Every connection is served by the **epoll reactor**: a fixed pool
//! of event-loop threads (≈ cores) multiplexes every connection —
//! thousands of keep-alive sockets cost fds, not threads. Requests
//! are framed by an incremental parser ([`http::RequestParser`]) and
//! submitted to the [`ServeBackend`] without blocking; the backend's
//! wake lands on an eventfd-woken queue, from which the reactor polls
//! the request on. Responses stream out under `EPOLLOUT` backpressure.
//! Mid-request stalls are reclaimed by a timer wheel; idle keep-alive
//! connections cost zero timer work. The crate builds on Linux only.
//!
//! ## Endpoints
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /v1/matmul` | Submit a [`MatmulWire`] request; answered once it is served |
//! | `GET /metrics` | Prometheus exposition of the runtime + front-end frame |
//! | `GET /metrics/history` | JSON ring of ~1 s frame deltas (the windowed time-series) |
//! | `GET /v1/traces` | Summaries of recently sampled request traces |
//! | `GET /v1/traces/<id>` | One trace's full span tree (stages, wall/self ns, energy, nodes) |
//! | `GET /healthz` | `200 ok` serving, `503 draining` during drain |
//!
//! ## Request-scoped tracing
//!
//! One in [`NetConfig::trace_sample`] matmuls (plus every request
//! slower than [`NetConfig::slow_request`]) records a span tree:
//! `request` → `admit` → the runtime's `queue`/`service` (with modeled
//! `write`/`compute`/`digitize` children), and under a cluster backend
//! `coordinator` → per-shard `shard` spans carrying node ids and
//! retry/failover annotations. Trace ids are minted deterministically
//! from [`NetConfig::trace_seed`] and a request counter. `/metrics`
//! additionally exposes SLO burn-rate gauges (`slo_p99_burn`,
//! `slo_error_burn` over 10 s / 60 s windows) computed from the same
//! series that backs `GET /metrics/history`, which a ticker thread
//! fills with one frame delta about once a second.
//!
//! ## Typed errors on the wire
//!
//! Runtime errors map to contractual statuses ([`error_status`]):
//! `DeadlineExpired` → `504`, `QueueFull` → `429` + `Retry-After`,
//! `ShuttingDown` → `503`, `InvalidRequest` → `400`, `WorkerLost` →
//! `500`. Fair-admission sheds are also `429` + `Retry-After`, with
//! `kind` distinguishing global overload from per-client over-share.
//!
//! ## Fairness and overload
//!
//! Admission is weighted-fair per client ([`FairAdmission`]): a global
//! in-flight budget, shares proportional to weight over the *active*
//! clients, work-conserving for a lone client. Connections beyond
//! `max_connections` are refused with `503` at accept.
//!
//! ## Graceful drain
//!
//! [`NetServer::shutdown`] loses zero accepted requests, by ordering:
//!
//! 1. the stop flag raises (reactors are woken through their
//!    eventfds) — accepting stops, idle connections close;
//! 2. connections that already *read* (or partially read) a request
//!    finish receiving and serving it — the backend still accepts
//!    submissions — and then close;
//! 3. every reactor thread joins (a reactor exits once its last
//!    connection closes), then the series ticker;
//! 4. only now does the backend drain and join, flushing everything it
//!    accepted.

#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("pic-net serves through epoll and eventfd: it builds on Linux only");

pub mod backend;
mod client;
pub mod fair;
pub mod http;
mod reactor;
mod server;
pub mod sys;
pub mod wheel;
pub mod wire;

pub use backend::{ServeBackend, ServeError, ServeOutcome, Submitted};
pub use client::{NetClient, NetError, RetryPolicy};
pub use fair::{ClientStanding, FairAdmission, FairnessConfig, Shed};
pub use server::{NetConfig, NetServer, NetStats};
pub use sys::raise_nofile_limit;
pub use wire::{error_status, ErrorReply, MatmulReply, MatmulWire};
