//! The network front-end: request routing and weighted-fair admission,
//! driven by the epoll reactor (a fixed pool of event-loop threads
//! multiplexing every connection, see [`crate::reactor`]).
//!
//! ## Lifecycle
//!
//! [`NetServer::start`] binds, sets the listener non-blocking, and
//! spawns the reactor pool, whose reactor 0 owns the listener; only
//! then does it spawn the metrics series ticker, so a start that fails
//! leaves no thread behind and drops the backend.
//!
//! ## Graceful drain
//!
//! [`NetServer::shutdown`] follows the crate docs' four-step order:
//! stop flag, in-flight requests finish, reactors and the series
//! ticker join, and only then the backend drains.

use crate::backend::ServeBackend;
use crate::fair::{ClientStanding, FairAdmission, FairnessConfig, Shed};
use crate::http::{HttpRequest, HttpResponse};
use crate::wire::{ErrorReply, MatmulReply, MatmulWire};
use pic_runtime::{AtomicF64, LatencyHistogram, MatmulRequest, Runtime, TiledMatrix};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most distinct per-model / per-client label values `/metrics` emits
/// before the remainder folds into an `"other"` bucket — caps scrape
/// cardinality under adversarial id churn.
const LABEL_CARDINALITY: usize = 12;

/// Sizing and policy of the front-end.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`NetServer::local_addr`]).
    pub addr: String,
    /// Most simultaneous connections; beyond it new connections get an
    /// immediate `503` (counted in `net_conns_refused`).
    pub max_connections: usize,
    /// Weighted fair admission sizing (see [`FairnessConfig`]).
    pub fairness: FairnessConfig,
    /// Mid-request stall budget: how long a connection may sit on a
    /// *partially received* request before it is reclaimed. Idle
    /// keep-alive connections (no request bytes pending) are never
    /// timed out.
    pub read_timeout: Duration,
    /// Prometheus metric-name prefix served by `GET /metrics`.
    pub prefix: String,
    /// Reactor threads multiplexing the connections; `0` picks the
    /// available parallelism (≈ cores).
    pub reactors: usize,
    /// Slow-outlier trace capture: every request slower than this end
    /// to end keeps its span tree even when not head-sampled.
    pub slow_request: Option<Duration>,
    /// Head-sample one in this many matmuls into the trace ring
    /// (`0` disables head sampling; slow-outlier capture stays armed
    /// whenever [`NetConfig::slow_request`] is set).
    pub trace_sample: u64,
    /// Trace-ring capacity: how many recent traces `GET /v1/traces`
    /// can page through.
    pub trace_capacity: usize,
    /// Seed of the deterministic trace-id sequence (ids are minted
    /// from `seed` + a per-server request counter — no RNG).
    pub trace_seed: u64,
    /// Time-series ring capacity in ~1 s ticks backing
    /// `GET /metrics/history` and the SLO burn-rate gauges.
    pub history_capacity: usize,
    /// SLO target for the p99 end-to-end latency; the
    /// `slo_p99_burn{window=...}` gauge reports observed p99 ÷ this.
    pub slo_p99: Duration,
    /// SLO error budget as a fraction of requests; the
    /// `slo_error_burn{window=...}` gauge reports observed error rate
    /// ÷ this.
    pub slo_error_budget: f64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_connections: 64,
            fairness: FairnessConfig::default(),
            read_timeout: Duration::from_millis(25),
            prefix: "pic".to_owned(),
            reactors: 0,
            slow_request: None,
            trace_sample: 64,
            trace_capacity: 256,
            trace_seed: 0,
            history_capacity: 120,
            slo_p99: Duration::from_millis(250),
            slo_error_budget: 0.01,
        }
    }
}

impl NetConfig {
    /// The reactor-thread count [`NetConfig::reactors`] resolves to.
    #[must_use]
    pub fn effective_reactors(&self) -> usize {
        if self.reactors > 0 {
            return self.reactors;
        }
        std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get)
    }
}

/// Front-end counters, exposed through `GET /metrics` next to the
/// runtime's registry.
#[derive(Debug, Default)]
pub struct NetStats {
    /// HTTP requests parsed off the wire.
    pub http_requests: AtomicU64,
    /// Responses with a 2xx status.
    pub replies_ok: AtomicU64,
    /// Responses with a 4xx/5xx status (typed errors included).
    pub replies_error: AtomicU64,
    /// Requests shed by weighted fair admission.
    pub shed: AtomicU64,
    /// Connections accepted.
    pub conns_accepted: AtomicU64,
    /// Connections refused at the cap.
    pub conns_refused: AtomicU64,
    /// Live connection gauge.
    pub conns_active: AtomicU64,
    /// High-water mark of simultaneous live connections.
    pub conns_peak: AtomicU64,
}

impl NetStats {
    /// Charges one accepted connection and updates the peak.
    pub(crate) fn connection_opened(&self) {
        self.conns_accepted.fetch_add(1, Ordering::Relaxed);
        let live = self.conns_active.fetch_add(1, Ordering::Relaxed) + 1;
        self.conns_peak.fetch_max(live, Ordering::Relaxed);
    }

    /// Returns one live-connection slot.
    pub(crate) fn connection_closed(&self) {
        self.conns_active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Per-model serving statistics (per-matrix-id stage breakdowns for
/// `/metrics`).
#[derive(Debug)]
pub(crate) struct ModelStat {
    pub(crate) matrix_id: u64,
    /// Matmuls finished against this model (typed errors included).
    pub(crate) requests: AtomicU64,
    /// The typed-error share of `requests`.
    pub(crate) errors: AtomicU64,
    /// End-to-end front-end latency (request parsed → reply built).
    pub(crate) latency: LatencyHistogram,
    /// Cumulative admission-stage time (parse + fair admission), ns.
    pub(crate) admit_ns: AtomicU64,
    /// Cumulative backend-stage time (submit → outcome), ns.
    pub(crate) serve_ns: AtomicU64,
    /// Modeled hardware energy charged to this model's requests, J.
    pub(crate) energy_j: AtomicF64,
}

impl ModelStat {
    fn new(matrix_id: u64) -> ModelStat {
        ModelStat {
            matrix_id,
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            admit_ns: AtomicU64::new(0),
            serve_ns: AtomicU64::new(0),
            energy_j: AtomicF64::new(),
        }
    }
}

/// State shared by the reactors, the router, and the handle.
pub(crate) struct Shared<B> {
    pub(crate) backend: B,
    pub(crate) models: HashMap<String, Arc<TiledMatrix>>,
    pub(crate) fair: FairAdmission,
    pub(crate) stats: NetStats,
    pub(crate) stop: AtomicBool,
    pub(crate) prefix: String,
    pub(crate) slow_request: Option<Duration>,
    /// Request-scoped tracer: sampling policy + the bounded trace ring
    /// behind `GET /v1/traces`.
    pub(crate) tracer: pic_obs::Tracer,
    /// Windowed time-series of ~1 s frame deltas behind
    /// `GET /metrics/history` and the SLO burn-rate gauges.
    pub(crate) series: pic_obs::SeriesStore,
    slo_p99: Duration,
    slo_error_budget: f64,
    /// Keyed by model name; built once at start, lock-free afterwards.
    model_stats: HashMap<String, ModelStat>,
}

impl<B: ServeBackend> Shared<B> {
    pub(crate) fn draining(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// The running front-end, generic over what executes the matmuls: a
/// single [`Runtime`] node (the default) or any other [`ServeBackend`]
/// such as `pic-cluster`'s coordinator. Dropping it performs the same
/// graceful drain as [`NetServer::shutdown`] (minus handing the
/// backend back).
pub struct NetServer<B: ServeBackend = Runtime> {
    shared: Option<Arc<Shared<B>>>,
    reactor: Option<crate::reactor::ReactorHandle>,
    series: Option<std::thread::JoinHandle<()>>,
    addr: SocketAddr,
}

impl<B: ServeBackend> std::fmt::Debug for NetServer<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("reactor", &self.reactor.is_some())
            .finish()
    }
}

impl<B: ServeBackend> NetServer<B> {
    /// Binds and starts serving `models` over `backend`, multiplexed
    /// on the epoll reactor pool.
    ///
    /// # Errors
    ///
    /// Propagates bind/configure failures from the listener and the
    /// reactor's epoll/eventfd setup; the backend is dropped.
    pub fn start(
        config: NetConfig,
        backend: B,
        models: HashMap<String, Arc<TiledMatrix>>,
    ) -> std::io::Result<NetServer<B>> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let model_stats = models
            .iter()
            .map(|(name, matrix)| (name.clone(), ModelStat::new(matrix.id())))
            .collect();
        let shared = Arc::new(Shared {
            backend,
            models,
            fair: FairAdmission::new(&config.fairness),
            stats: NetStats::default(),
            stop: AtomicBool::new(false),
            prefix: config.prefix.clone(),
            slow_request: config.slow_request,
            tracer: pic_obs::Tracer::new(
                config.trace_seed,
                config.trace_sample,
                config.trace_capacity,
                config.slow_request.is_some(),
            ),
            series: pic_obs::SeriesStore::new(config.history_capacity),
            slo_p99: config.slo_p99,
            slo_error_budget: config.slo_error_budget,
            model_stats,
        });
        let reactor = crate::reactor::spawn(&config, listener, Arc::clone(&shared))?;
        // The series ticker folds a metrics frame into the windowed
        // store about once a second. It starts after the reactors: had
        // they failed, it would hold the backend.
        let series = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pic-net-series".to_owned())
                .spawn(move || series_loop(&shared))
                .expect("spawn series ticker")
        };
        Ok(NetServer {
            shared: Some(shared),
            reactor: Some(reactor),
            series: Some(series),
            addr,
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Every known client's fairness standing.
    #[must_use]
    pub fn standings(&self) -> Vec<ClientStanding> {
        self.shared
            .as_ref()
            .map(|s| s.fair.standings())
            .unwrap_or_default()
    }

    /// A reference to the front-end counters.
    #[must_use]
    pub fn stats(&self) -> Option<&NetStats> {
        self.shared.as_deref().map(|s| &s.stats)
    }

    /// Gracefully drains (see the [crate docs](crate#graceful-drain))
    /// and hands the drained backend back for post-run metrics
    /// inspection.
    ///
    /// # Panics
    ///
    /// Panics if a reactor thread leaked a reference past its join —
    /// a bug, not an operational condition.
    #[must_use]
    pub fn shutdown(mut self) -> B {
        self.shutdown_inner().expect("shutdown runs once")
    }

    fn shutdown_inner(&mut self) -> Option<B> {
        let shared = self.shared.take()?;
        shared.stop.store(true, Ordering::SeqCst);
        if let Some(reactor) = self.reactor.take() {
            reactor.shutdown();
        }
        if let Some(series) = self.series.take() {
            series.join().expect("series ticker exits cleanly");
        }
        // Every thread holding a reference has joined, so this Arc is
        // the last one and the backend comes back out.
        let mut shared = Arc::try_unwrap(shared)
            .ok()
            .expect("all reactor threads joined at shutdown");
        shared.backend.shutdown();
        Some(shared.backend)
    }
}

impl<B: ServeBackend> Drop for NetServer<B> {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

/// The ~1 s ticker feeding [`Shared::series`]: each tick folds one
/// scrape frame into the windowed store. Sleeps in short steps so the
/// drain is never held hostage by the tick period, and pushes one
/// final frame at drain so even sub-second runs land a point.
fn series_loop<B: ServeBackend>(shared: &Arc<Shared<B>>) {
    const STEP: Duration = Duration::from_millis(20);
    let tick = Duration::from_secs(1);
    let mut last = Instant::now();
    while !shared.stop.load(Ordering::Acquire) {
        std::thread::sleep(STEP);
        if last.elapsed() >= tick {
            shared.series.push(metrics_frame(shared));
            last = Instant::now();
        }
    }
    shared.series.push(metrics_frame(shared));
}

/// Writes the typed `503 connection_limit` refusal onto a just-accepted
/// socket.
pub(crate) fn refuse_connection<B: ServeBackend>(
    shared: &Shared<B>,
    stream: &mut TcpStream,
    max_connections: usize,
) {
    shared.stats.conns_refused.fetch_add(1, Ordering::Relaxed);
    let body = serde_json::to_string(&ErrorReply {
        kind: "connection_limit".to_owned(),
        error: format!("server is at its {max_connections}-connection cap"),
    })
    .unwrap_or_default();
    let _ = HttpResponse::json(503, body)
        .with_header("connection", "close")
        .write_to(stream);
}

/// The `400` a framing failure answers with before the close.
pub(crate) fn malformed_reply(why: String) -> HttpResponse {
    let body = serde_json::to_string(&ErrorReply {
        kind: "bad_request".to_owned(),
        error: why,
    })
    .unwrap_or_default();
    HttpResponse::json(400, body).with_header("connection", "close")
}

/// Everything [`finish_matmul`] needs once the request itself has been
/// handed to the backend.
pub(crate) struct JobMeta {
    pub(crate) client: String,
    pub(crate) model: String,
    /// When the request was parsed off the wire.
    pub(crate) received: Instant,
    /// When fair admission accepted it (end of the admit stage).
    pub(crate) admitted: Instant,
    /// The sampled request's trace collector (`None` for the unsampled
    /// common case), sealed by [`finish_matmul`].
    pub(crate) trace: Option<Arc<pic_obs::TraceCollector>>,
}

/// An admitted matmul ready for the backend.
pub(crate) struct MatmulJob {
    pub(crate) meta: JobMeta,
    pub(crate) request: MatmulRequest,
}

/// The front half of request handling: routing, parsing, fair
/// admission. Everything except the backend call resolves here
/// synchronously; an admitted matmul comes back as a job for the
/// reactor to submit to the backend.
pub(crate) enum Routed {
    Done(HttpResponse),
    Matmul(MatmulJob),
}

pub(crate) fn route_begin<B: ServeBackend>(shared: &Shared<B>, req: &HttpRequest) -> Routed {
    let path = req.path.split('?').next().unwrap_or("");
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => {
            if shared.draining() || !shared.backend.is_accepting() {
                Routed::Done(HttpResponse::new(503, "text/plain", "draining"))
            } else {
                Routed::Done(HttpResponse::new(200, "text/plain", "ok"))
            }
        }
        ("GET", "/metrics") => {
            let frame = metrics_frame(shared);
            Routed::Done(HttpResponse::new(
                200,
                "text/plain; version=0.0.4",
                frame.to_prometheus(&shared.prefix),
            ))
        }
        ("GET", "/metrics/history") => Routed::Done(HttpResponse::json(
            200,
            shared.series.history_json(shared.series.capacity()),
        )),
        ("GET", "/v1/traces") => Routed::Done(HttpResponse::json(
            200,
            shared
                .tracer
                .store()
                .summaries_json(shared.tracer.store().capacity()),
        )),
        ("GET", p) if p.starts_with("/v1/traces/") => Routed::Done(trace_reply(shared, p)),
        ("POST", "/v1/matmul") => matmul_begin(shared, req),
        (_, "/healthz" | "/metrics" | "/metrics/history" | "/v1/matmul" | "/v1/traces") => {
            Routed::Done(error_reply(
                405,
                "method_not_allowed",
                format!("{} is not valid for {path}", req.method),
                None,
            ))
        }
        (_, p) if p.starts_with("/v1/traces/") => Routed::Done(error_reply(
            405,
            "method_not_allowed",
            format!("{} is not valid for {path}", req.method),
            None,
        )),
        _ => Routed::Done(error_reply(
            404,
            "not_found",
            format!("no route for {path}"),
            None,
        )),
    }
}

/// `GET /v1/traces/<id>`: the full span-tree JSON of one stored trace.
fn trace_reply<B: ServeBackend>(shared: &Shared<B>, path: &str) -> HttpResponse {
    let hex = path.trim_start_matches("/v1/traces/");
    let Some(id) = pic_obs::TraceId::parse_hex(hex) else {
        return error_reply(
            400,
            "bad_request",
            format!("{hex:?} is not a hex trace id"),
            None,
        );
    };
    match shared.tracer.store().get(id) {
        Some(record) => HttpResponse::json(200, record.to_json()),
        None => error_reply(
            404,
            "unknown_trace",
            format!("no stored trace with id {hex}"),
            None,
        ),
    }
}

fn matmul_begin<B: ServeBackend>(shared: &Shared<B>, req: &HttpRequest) -> Routed {
    let received = Instant::now();
    // Minted before parsing so the trace's root span covers the whole
    // front-end lifetime, admit stage included. Unsampled requests get
    // `None` back for the cost of one atomic increment.
    let trace = shared.tracer.mint();
    let client = req.header("x-client").unwrap_or("anon").to_owned();
    let wire = match MatmulWire::parse(&req.body) {
        Ok(wire) => wire,
        Err(why) => return Routed::Done(error_reply(400, "bad_request", why, None)),
    };
    let Some(matrix) = shared.models.get(&wire.model) else {
        return Routed::Done(error_reply(
            404,
            "unknown_model",
            format!("no model named {:?}", wire.model),
            None,
        ));
    };
    if let Err((shed, _)) = shared.fair.try_admit(&client) {
        shared.stats.shed.fetch_add(1, Ordering::Relaxed);
        let kind = match shed {
            Shed::Overloaded => "shed_overloaded",
            Shed::OverShare => "shed_over_share",
        };
        return Routed::Done(error_reply(
            429,
            kind,
            format!("client {client:?} shed by weighted fair admission"),
            Some(1),
        ));
    }
    let mut request = MatmulRequest::new(Arc::clone(matrix), wire.inputs);
    if let Some(ms) = wire.deadline_ms {
        match wire_deadline(ms) {
            Ok(deadline) => request = request.with_deadline(deadline),
            Err(why) => {
                shared.fair.release(&client);
                return Routed::Done(error_reply(400, "bad_request", why, None));
            }
        }
    }
    let admitted = Instant::now();
    if let Some(collector) = &trace {
        collector.span_between("admit", None, received, admitted);
        let note = format!("model {:?}, client {:?}", wire.model, client);
        collector.annotate(Some(0), &note);
        request = request.with_trace(pic_obs::TraceContext::new(Arc::clone(collector)));
    }
    Routed::Matmul(MatmulJob {
        meta: JobMeta {
            client,
            model: wire.model,
            received,
            admitted,
            trace,
        },
        request,
    })
}

/// The back half: releases fair admission, rolls the outcome into the
/// per-model stage breakdowns, seals the request's trace, and builds
/// the wire reply. Called exactly once per [`MatmulJob`].
pub(crate) fn finish_matmul<B: ServeBackend>(
    shared: &Shared<B>,
    meta: &JobMeta,
    result: Result<crate::backend::ServeOutcome, crate::backend::ServeError>,
) -> HttpResponse {
    shared.fair.release(&meta.client);
    let now = Instant::now();
    let latency = now.duration_since(meta.received);
    if let Some(stat) = shared.model_stats.get(&meta.model) {
        stat.requests.fetch_add(1, Ordering::Relaxed);
        stat.latency.record(latency.as_nanos() as u64);
        stat.admit_ns.fetch_add(
            meta.admitted.duration_since(meta.received).as_nanos() as u64,
            Ordering::Relaxed,
        );
        stat.serve_ns.fetch_add(
            now.duration_since(meta.admitted).as_nanos() as u64,
            Ordering::Relaxed,
        );
        if let Ok(outcome) = &result {
            stat.energy_j.add(outcome.energy_j);
        } else {
            stat.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
    if let Some(collector) = &meta.trace {
        if let Err(e) = &result {
            collector.annotate(Some(0), &format!("error: {}", e.kind));
        }
        // Kept when head-sampled or over the slow threshold; dropped
        // (and never stored) otherwise.
        shared
            .tracer
            .finish(collector, latency, shared.slow_request);
    }
    match result {
        Ok(outcome) => {
            let reply = MatmulReply {
                outputs: outcome.outputs,
                device: outcome.device,
                batched_with: outcome.batched_with,
                tiles_written: outcome.tiles_written,
                tiles_resident: outcome.tiles_resident,
                energy_j: outcome.energy_j,
            };
            match serde_json::to_string(&reply) {
                Ok(body) => HttpResponse::json(200, body),
                Err(e) => error_reply(500, "serialize", e.to_string(), None),
            }
        }
        Err(e) => error_reply(e.status, e.kind, e.message, e.retry_after_s),
    }
}

/// Resolves a relative wire deadline (milliseconds from receipt; zero
/// or negative means already expired) to an absolute instant.
fn wire_deadline(ms: f64) -> Result<Instant, String> {
    if !ms.is_finite() {
        return Err(format!("`deadline_ms` must be finite, got {ms}"));
    }
    let now = Instant::now();
    let offset = Duration::try_from_secs_f64(ms.abs() / 1e3)
        .map_err(|_| format!("`deadline_ms` {ms} overflows"))?;
    if ms >= 0.0 {
        now.checked_add(offset)
            .ok_or_else(|| format!("`deadline_ms` {ms} overflows"))
    } else {
        // An already-expired deadline: the DOA gate rejects it with the
        // typed 504 without it ever occupying the runtime's queue.
        Ok(now.checked_sub(offset).unwrap_or(now))
    }
}

fn error_reply(status: u16, kind: &str, error: String, retry_after_s: Option<u64>) -> HttpResponse {
    let body = serde_json::to_string(&ErrorReply {
        kind: kind.to_owned(),
        error,
    })
    .unwrap_or_default();
    let response = HttpResponse::json(status, body);
    match retry_after_s {
        Some(s) => response.with_header("retry-after", s),
        None => response,
    }
}

/// The scrape frame: the backend's unified frame plus front-end
/// counters, per-client fairness gauges, and per-model stage
/// breakdowns.
pub(crate) fn metrics_frame<B: ServeBackend>(shared: &Shared<B>) -> pic_obs::Frame {
    let mut frame = shared.backend.frame();
    let stats = &shared.stats;
    frame.counters.extend([
        (
            "net_http_requests",
            stats.http_requests.load(Ordering::Relaxed),
        ),
        ("net_replies_ok", stats.replies_ok.load(Ordering::Relaxed)),
        (
            "net_replies_error",
            stats.replies_error.load(Ordering::Relaxed),
        ),
        ("net_shed", stats.shed.load(Ordering::Relaxed)),
        (
            "net_conns_accepted",
            stats.conns_accepted.load(Ordering::Relaxed),
        ),
        (
            "net_conns_refused",
            stats.conns_refused.load(Ordering::Relaxed),
        ),
    ]);
    frame.gauges.push((
        "net_conns_active".to_owned(),
        stats.conns_active.load(Ordering::Relaxed) as f64,
    ));
    frame.gauges.push((
        "net_conns_peak".to_owned(),
        stats.conns_peak.load(Ordering::Relaxed) as f64,
    ));
    frame.gauges.push((
        "net_inflight".to_owned(),
        shared.fair.total_inflight() as f64,
    ));
    frame.gauges.push((
        "net_inflight_peak".to_owned(),
        shared.fair.peak_inflight() as f64,
    ));
    frame.gauges.push((
        "net_draining".to_owned(),
        f64::from(u8::from(shared.stop.load(Ordering::Acquire))),
    ));
    // Per-client fairness gauges, keyed by a Prometheus *label value*
    // (escaped verbatim, not mangled into the metric name). The top
    // clients by admitted traffic keep their own label; the tail folds
    // into client="other" so adversarial id churn cannot explode the
    // scrape's cardinality.
    let mut standings = shared.fair.standings();
    standings.sort_by(|a, b| b.admitted.cmp(&a.admitted).then(a.client.cmp(&b.client)));
    let (mut o_inflight, mut o_admitted, mut o_shed) = (0.0f64, 0.0f64, 0.0f64);
    let mut folded_clients = false;
    for (i, s) in standings.iter().enumerate() {
        if i < LABEL_CARDINALITY {
            let label = pic_obs::prom_label_value(&s.client);
            frame.gauges.push((
                format!("net_client_inflight{{client=\"{label}\"}}"),
                s.inflight as f64,
            ));
            frame.gauges.push((
                format!("net_client_admitted{{client=\"{label}\"}}"),
                s.admitted as f64,
            ));
            frame.gauges.push((
                format!("net_client_shed{{client=\"{label}\"}}"),
                s.shed as f64,
            ));
        } else {
            folded_clients = true;
            o_inflight += s.inflight as f64;
            o_admitted += s.admitted as f64;
            o_shed += s.shed as f64;
        }
    }
    if folded_clients {
        frame.gauges.push((
            "net_client_inflight{client=\"other\"}".to_owned(),
            o_inflight,
        ));
        frame.gauges.push((
            "net_client_admitted{client=\"other\"}".to_owned(),
            o_admitted,
        ));
        frame
            .gauges
            .push(("net_client_shed{client=\"other\"}".to_owned(), o_shed));
    }
    // Per-model stage breakdowns, same labeling scheme. Models with no
    // finished traffic are omitted — "never requested" must not read
    // as "zero latency".
    let mut models: Vec<(&String, &ModelStat, u64)> = shared
        .model_stats
        .iter()
        .map(|(name, stat)| (name, stat, stat.requests.load(Ordering::Relaxed)))
        .filter(|&(_, _, requests)| requests > 0)
        .collect();
    models.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
    let mut emit_model = |label: &str,
                          stat: Option<&ModelStat>,
                          requests: u64,
                          hist: &pic_obs::HistogramSnapshot,
                          errors: u64,
                          admit_ns: u64,
                          serve_ns: u64,
                          energy_j: f64| {
        let label = pic_obs::prom_label_value(label);
        let mut gauge = |name: &str, v: f64| {
            frame
                .gauges
                .push((format!("net_model_{name}{{model=\"{label}\"}}"), v));
        };
        if let Some(stat) = stat {
            gauge("matrix_id", stat.matrix_id as f64);
        }
        gauge("requests", requests as f64);
        gauge("errors", errors as f64);
        gauge("latency_p50_s", hist.quantile_s(0.5));
        gauge("latency_p99_s", hist.quantile_s(0.99));
        gauge("latency_max_s", hist.max_s());
        let mean_s = |total_ns: u64| total_ns as f64 / requests as f64 / 1e9;
        gauge("admit_mean_s", mean_s(admit_ns));
        gauge("serve_mean_s", mean_s(serve_ns));
        gauge("energy_j", energy_j);
    };
    let mut other: Option<(u64, pic_obs::HistogramSnapshot, u64, u64, u64, f64)> = None;
    for (i, &(name, stat, requests)) in models.iter().enumerate() {
        let hist = stat.latency.snapshot();
        let errors = stat.errors.load(Ordering::Relaxed);
        let admit_ns = stat.admit_ns.load(Ordering::Relaxed);
        let serve_ns = stat.serve_ns.load(Ordering::Relaxed);
        let energy_j = stat.energy_j.get();
        if i < LABEL_CARDINALITY {
            emit_model(
                name,
                Some(stat),
                requests,
                &hist,
                errors,
                admit_ns,
                serve_ns,
                energy_j,
            );
        } else {
            let acc = other
                .get_or_insert_with(|| (0, pic_obs::HistogramSnapshot::default(), 0, 0, 0, 0.0));
            acc.0 += requests;
            acc.1.merge(&hist);
            acc.2 += errors;
            acc.3 += admit_ns;
            acc.4 += serve_ns;
            acc.5 += energy_j;
        }
    }
    if let Some((requests, hist, errors, admit_ns, serve_ns, energy_j)) = other {
        emit_model(
            "other", None, requests, &hist, errors, admit_ns, serve_ns, energy_j,
        );
    }
    // SLO burn-rate gauges over trailing windows of the ~1 s series:
    // observed p99 ÷ target and observed error rate ÷ budget. 1.0 =
    // burning budget exactly as provisioned; > 1.0 = out of SLO.
    for (window, ticks) in [("10s", 10usize), ("60s", 60)] {
        if let Some(b) = shared.series.burn(
            ticks,
            "latency",
            "net_replies_ok",
            "net_replies_error",
            shared.slo_p99.as_secs_f64(),
            shared.slo_error_budget,
        ) {
            frame
                .gauges
                .push((format!("slo_p99_burn{{window=\"{window}\"}}"), b.p99_burn));
            frame.gauges.push((
                format!("slo_error_burn{{window=\"{window}\"}}"),
                b.error_burn,
            ));
        }
    }
    frame
        .gauges
        .push(("net_series_ticks".to_owned(), shared.series.len() as f64));
    frame.counters.extend([
        ("net_trace_requests", shared.tracer.minted()),
        ("net_traces_stored", shared.tracer.store().stored()),
    ]);
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_deadlines_resolve_past_and_future() {
        let future = wire_deadline(50.0).expect("valid");
        assert!(future > Instant::now());
        let past = wire_deadline(-50.0).expect("valid");
        assert!(past <= Instant::now());
        assert!(wire_deadline(f64::NAN).is_err());
        assert!(wire_deadline(f64::INFINITY).is_err());
        // Past `Duration`'s range: a typed error, not a panic.
        for ms in [1e300, -1e300, f64::MAX] {
            assert!(wire_deadline(ms).is_err(), "{ms} must be rejected");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        #[test]
        fn any_wire_deadline_resolves_or_rejects_without_panicking(
            bits in proptest::prelude::any::<u64>(),
        ) {
            let ms = f64::from_bits(bits);
            if wire_deadline(ms).is_ok() {
                assert!(ms.is_finite(), "{ms} resolved to a deadline");
            }
        }
    }

    #[test]
    fn reactor_count_resolves_to_parallelism_or_override() {
        let auto = NetConfig::default();
        assert!(auto.effective_reactors() >= 1);
        let pinned = NetConfig {
            reactors: 3,
            ..NetConfig::default()
        };
        assert_eq!(pinned.effective_reactors(), 3);
    }
}
