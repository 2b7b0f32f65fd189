//! The concurrent serving runtime: one bounded pending queue that the
//! worker threads pull their own batches from, over a shared device
//! pool. The crate docs draw the data path.

use crate::admission::{
    AdmissionPolicy, AdmissionPolicyKind, DispatchContext, GroupView, PendingItem, PendingQueues,
};
use crate::metrics::MetricsRegistry;
use crate::pool::DevicePool;
use crate::request::{MatmulRequest, RequestCost, Response, RuntimeError};
use pic_obs::{Frame, Stage, StageTimer};
use pic_tensor::performance::PerformanceModel;
use pic_tensor::TensorCoreConfig;
use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Sizing of a [`Runtime`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// The device architecture every pool member is built from.
    pub core: TensorCoreConfig,
    /// Devices in the pool (= worker threads).
    pub devices: usize,
    /// Bound of the pending queue — every accepted request no worker
    /// has taken yet; beyond it [`Runtime::submit`] returns
    /// [`RuntimeError::QueueFull`].
    pub queue_depth: usize,
    /// Most requests merged into one device pass (same matrix only).
    pub max_batch: usize,
    /// Which admission policy orders pending groups at batch formation.
    pub policy: AdmissionPolicyKind,
    /// The [`ResidencyAware`](crate::admission::ResidencyAware) policy's
    /// starvation bound: no pending group is delayed more than this past
    /// its strict-FIFO turn, and deadlines within this horizon are never
    /// reordered behind warm traffic. Ignored by the other policies.
    pub max_delay: Duration,
}

impl RuntimeConfig {
    /// The evaluation setup: four paper-scale cores, a 1024-deep pending
    /// queue, batches of up to 8 same-matrix requests, residency-aware
    /// admission bounded at 400 ms of reordering slack.
    #[must_use]
    pub fn paper() -> Self {
        RuntimeConfig {
            core: TensorCoreConfig::paper(),
            devices: 4,
            queue_depth: 1024,
            max_batch: 8,
            policy: AdmissionPolicyKind::ResidencyAware,
            max_delay: Duration::from_millis(400),
        }
    }

    /// The same sizing with a different admission policy.
    #[must_use]
    pub fn with_policy(mut self, policy: AdmissionPolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Validates the sizing.
    ///
    /// # Panics
    ///
    /// Panics if any bound is zero or the core configuration is invalid.
    pub fn validate(&self) {
        self.core.validate();
        assert!(self.devices > 0, "runtime needs at least one device");
        assert!(self.queue_depth > 0, "the pending queue must have capacity");
        assert!(self.max_batch > 0, "batches hold at least one request");
        assert!(
            self.max_delay > Duration::ZERO,
            "a zero starvation bound degenerates to FIFO; configure Fifo instead"
        );
    }
}

/// Notified when a waker-tagged submission reaches a terminal state.
///
/// Non-blocking submitters (the `pic-net` epoll reactor) register one
/// of these with [`Runtime::submit_with_waker`] instead of parking a
/// thread on [`ResponseHandle::wait`]: when the runtime finishes with
/// the request — response sent, rejection sent, or the submission
/// dropped without either (a [`Runtime::kill`]) — `wake(token)` fires
/// exactly once, after which [`ResponseHandle::try_wait`] on the
/// paired handle is guaranteed to return `Some`.
pub trait CompletionWaker: Send + Sync + 'static {
    /// Called once per woken submission, from whichever runtime thread
    /// finished it. Must not block.
    fn wake(&self, token: u64);
}

/// Fires its waker on drop. Declared as the *last* field of
/// [`Submission`], after `respond`: Rust drops fields in declaration
/// order, so by the time the wake fires the response channel has
/// already delivered (sender kept alive while the buffered value was
/// stored) or disconnected — either way the paired handle's
/// `try_wait` observes a terminal state, never `None`.
struct WakeGuard {
    waker: Option<Arc<dyn CompletionWaker>>,
    token: u64,
}

impl WakeGuard {
    /// Disarms the guard for synchronous-rejection paths (queue full,
    /// shutdown race) where the submitter already holds the error and
    /// a wake would be a stale token.
    fn defuse(mut self) {
        self.waker = None;
    }
}

impl Drop for WakeGuard {
    fn drop(&mut self) {
        if let Some(waker) = self.waker.take() {
            waker.wake(self.token);
        }
    }
}

impl std::fmt::Debug for WakeGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WakeGuard")
            .field("token", &self.token)
            .finish()
    }
}

/// One accepted request travelling through the runtime.
struct Submission {
    request: MatmulRequest,
    respond: SyncSender<Result<Response, RuntimeError>>,
    submitted_at: Instant,
    /// Open "queue" span of a traced request (closed at batch
    /// formation).
    trace_queue: Option<u32>,
    /// Keep last: must drop after `respond` (see [`WakeGuard`]).
    wake: Option<WakeGuard>,
}

impl PendingItem for Submission {
    fn matrix_id(&self) -> u64 {
        self.request.matrix.id()
    }

    fn deadline(&self) -> Option<Instant> {
        self.request.deadline
    }

    fn submitted_at(&self) -> Instant {
        self.submitted_at
    }
}

/// Waits for one request's response.
///
/// ## Terminal semantics
///
/// A handle is *terminal* once it has yielded its single response (or
/// reported the runtime gone). Terminal handles are deterministic:
/// every further [`ResponseHandle::try_wait`] /
/// [`ResponseHandle::wait_timeout`] call returns
/// `Some(Err(WorkerLost))` immediately — it never blocks on a channel
/// that can no longer produce anything, and never panics. This holds
/// both after the response was consumed and after the runtime dropped
/// the request (the two cases are indistinguishable to the caller, and
/// both mean "nothing more will ever arrive here").
#[derive(Debug)]
pub struct ResponseHandle {
    rx: std::sync::mpsc::Receiver<Result<Response, RuntimeError>>,
    /// Set once the single response has been consumed (or the channel
    /// reported disconnected): the handle is terminal from then on.
    terminal: Cell<bool>,
}

impl ResponseHandle {
    fn new(rx: std::sync::mpsc::Receiver<Result<Response, RuntimeError>>) -> Self {
        ResponseHandle {
            rx,
            terminal: Cell::new(false),
        }
    }

    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// The request's typed rejection, or [`RuntimeError::WorkerLost`] if
    /// the runtime dropped the request without responding.
    pub fn wait(self) -> Result<Response, RuntimeError> {
        if self.terminal.get() {
            return Err(RuntimeError::WorkerLost);
        }
        self.rx.recv().map_err(|_| RuntimeError::WorkerLost)?
    }

    /// Returns the response if it already arrived, `None` otherwise.
    /// On a terminal handle (see the type docs) this returns
    /// `Some(Err(WorkerLost))` immediately.
    ///
    /// # Errors
    ///
    /// Like [`ResponseHandle::wait`] once the response is in.
    pub fn try_wait(&self) -> Option<Result<Response, RuntimeError>> {
        if self.terminal.get() {
            return Some(Err(RuntimeError::WorkerLost));
        }
        match self.rx.try_recv() {
            Ok(result) => {
                self.terminal.set(true);
                Some(result)
            }
            Err(std::sync::mpsc::TryRecvError::Empty) => None,
            Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                self.terminal.set(true);
                Some(Err(RuntimeError::WorkerLost))
            }
        }
    }

    /// Blocks up to `timeout` for the response; `None` if it has not
    /// arrived by then (the handle stays usable — no busy-spinning
    /// [`ResponseHandle::try_wait`] loops needed). On a terminal handle
    /// (see the type docs) this returns `Some(Err(WorkerLost))`
    /// immediately instead of blocking for the full timeout again.
    ///
    /// # Errors
    ///
    /// Like [`ResponseHandle::wait`] once the response is in.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Response, RuntimeError>> {
        if self.terminal.get() {
            return Some(Err(RuntimeError::WorkerLost));
        }
        match self.rx.recv_timeout(timeout) {
            Ok(result) => {
                self.terminal.set(true);
                Some(result)
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => None,
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                self.terminal.set(true);
                Some(Err(RuntimeError::WorkerLost))
            }
        }
    }
}

/// The pending queue's state: everything submitters and workers share,
/// behind one lock.
struct QueueState {
    /// Accepted requests no worker has taken yet, indexed by matrix.
    pending: PendingQueues<Submission>,
    /// Orders the pending groups; one instance shared by every worker.
    policy: Box<dyn AdmissionPolicy>,
    /// Whether intake accepts new work ([`Runtime::drain`] and
    /// [`Runtime::kill`] clear it for good).
    open: bool,
    /// The matrix each worker has in a device pass, by worker index.
    in_pass: Vec<Option<u64>>,
}

impl std::fmt::Debug for QueueState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueueState")
            .field("pending", &self.pending.len())
            .field("policy", &self.policy.name())
            .field("open", &self.open)
            .field("in_pass", &self.in_pass)
            .finish()
    }
}

/// The pending queue and the one condvar its waiters park on.
///
/// Idle workers wait for visible work, and [`Runtime::submit_blocking`]
/// callers wait for room. A submitter only waits on a full queue, the
/// queue stays full until a worker takes from it, and such a take wakes
/// every waiter; so a `notify_one` after a push, or after a take from a
/// queue that was not full, always reaches a worker.
#[derive(Debug)]
struct Queue {
    state: Mutex<QueueState>,
    wake: Condvar,
}

impl Queue {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().expect("queue lock")
    }
}

/// The serving runtime. See the [crate docs](crate#data-path) for the
/// data path.
#[derive(Debug)]
pub struct Runtime {
    queue: Arc<Queue>,
    workers: Vec<std::thread::JoinHandle<()>>,
    metrics: Arc<MetricsRegistry>,
    pool: Arc<DevicePool>,
    config: RuntimeConfig,
}

impl Runtime {
    /// Builds the device pool, opens the pending queue and spawns one
    /// worker per device.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or threads cannot spawn.
    #[must_use]
    pub fn start(config: RuntimeConfig) -> Self {
        config.validate();
        let metrics = Arc::new(MetricsRegistry::default());
        metrics
            .devices
            .store(config.devices as u64, Ordering::Relaxed);
        let pool = Arc::new(DevicePool::new(config.core, config.devices));
        let queue = Arc::new(Queue {
            state: Mutex::new(QueueState {
                pending: PendingQueues::new(),
                policy: config.policy.build(config.max_delay),
                open: true,
                in_pass: vec![None; config.devices],
            }),
            wake: Condvar::new(),
        });
        // Digitisation's share of modeled compute energy, from the paper's
        // power breakdown — splits each batch's compute energy between the
        // analog-compute and digitise stages.
        let adc_fraction = {
            let breakdown = PerformanceModel::new(config.core).power_breakdown();
            breakdown.adc_w / breakdown.total_w()
        };
        let workers = (0..config.devices)
            .map(|w| {
                let queue = Arc::clone(&queue);
                let pool = Arc::clone(&pool);
                let metrics = Arc::clone(&metrics);
                std::thread::Builder::new()
                    .name(format!("pic-worker-{w}"))
                    .spawn(move || worker_loop(w, &config, &queue, &pool, &metrics, adc_fraction))
                    .expect("spawn worker")
            })
            .collect();
        Runtime {
            queue,
            workers,
            metrics,
            pool,
            config,
        }
    }

    /// The unified exposition frame: the registry's counters, gauges
    /// and stages plus pool-level gauges — idle device count, how many
    /// idle devices hold a live resident tile, and a 0/1 residency gauge
    /// per idle device. Render it with [`Frame::to_prometheus`] or
    /// [`Frame::to_json`].
    #[must_use]
    pub fn frame(&self) -> Frame {
        let mut frame = self.metrics.frame();
        let residency = self.pool.idle_residency();
        frame
            .gauges
            .push(("devices_idle".to_owned(), residency.len() as f64));
        frame.gauges.push((
            "devices_resident".to_owned(),
            residency.iter().filter(|(_, m)| m.is_some()).count() as f64,
        ));
        for (id, resident) in residency {
            frame.gauges.push((
                format!("device{id}_resident"),
                if resident.is_some() { 1.0 } else { 0.0 },
            ));
        }
        frame
    }

    /// The runtime's sizing.
    #[must_use]
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The shared metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The shared device pool (for introspection).
    #[must_use]
    pub fn pool(&self) -> &DevicePool {
        &self.pool
    }

    /// Submits a request without blocking.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidRequest`] on validation failure,
    /// [`RuntimeError::DeadlineExpired`] when the deadline already
    /// passed (dead-on-arrival requests never occupy the pending queue,
    /// the admission index, or a batch slot),
    /// [`RuntimeError::QueueFull`] once `queue_depth` requests are
    /// pending, [`RuntimeError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, request: MatmulRequest) -> Result<ResponseHandle, RuntimeError> {
        self.submit_inner(request, None, false)
    }

    /// Submits a request without blocking, tagging it with a
    /// [`CompletionWaker`] that fires `wake(token)` exactly once when
    /// the request reaches a terminal state — response ready, typed
    /// rejection sent, or the request abandoned ([`Runtime::kill`]).
    /// After the wake, [`ResponseHandle::try_wait`] on the returned
    /// handle is guaranteed to return `Some`.
    ///
    /// On `Err` the waker will *not* fire: a synchronous rejection is
    /// already in the caller's hands and a wake would be a stale token.
    ///
    /// # Errors
    ///
    /// Like [`Runtime::submit`].
    pub fn submit_with_waker(
        &self,
        request: MatmulRequest,
        token: u64,
        waker: Arc<dyn CompletionWaker>,
    ) -> Result<ResponseHandle, RuntimeError> {
        self.submit_inner(
            request,
            Some(WakeGuard {
                waker: Some(waker),
                token,
            }),
            false,
        )
    }

    /// Submits a request, blocking while the pending queue is full.
    ///
    /// # Errors
    ///
    /// Like [`Runtime::submit`], except backpressure blocks instead of
    /// returning [`RuntimeError::QueueFull`].
    pub fn submit_blocking(&self, request: MatmulRequest) -> Result<ResponseHandle, RuntimeError> {
        self.submit_inner(request, None, true)
    }

    fn submit_inner(
        &self,
        request: MatmulRequest,
        wake: Option<WakeGuard>,
        block: bool,
    ) -> Result<ResponseHandle, RuntimeError> {
        let _timer = StageTimer::start(&self.metrics.stages, Stage::Submit);
        let (mut submission, handle) = match self.admit(request) {
            Ok(pair) => pair,
            Err(e) => {
                // Admission rejections are synchronous; never wake.
                if let Some(guard) = wake {
                    guard.defuse();
                }
                return Err(e);
            }
        };
        submission.wake = wake;
        self.enqueue(submission, block)?;
        Ok(handle)
    }

    /// Pushes an admitted submission onto the pending queue, waiting for
    /// room first when `block` is set, and wakes a worker that may take
    /// it. A rejected submission is dropped here without a wake: the
    /// caller holds the typed error.
    fn enqueue(&self, mut submission: Submission, block: bool) -> Result<(), RuntimeError> {
        let matrix_id = submission.request.matrix.id();
        let mut state = self.queue.lock();
        while block && state.open && state.pending.len() >= self.config.queue_depth {
            state = self.queue.wake.wait(state).expect("queue lock");
        }
        if !state.open || state.pending.len() >= self.config.queue_depth {
            let open = state.open;
            drop(state);
            if let Some(guard) = submission.wake.take() {
                guard.defuse();
            }
            if !open {
                return Err(RuntimeError::ShuttingDown);
            }
            self.metrics
                .rejected_queue_full
                .fetch_add(1, Ordering::Relaxed);
            return Err(RuntimeError::QueueFull);
        }
        state.pending.push(submission);
        self.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .pending_depth
            .store(state.pending.len() as u64, Ordering::Relaxed);
        let visible = state.visible(
            matrix_id,
            state.pending.group_len(matrix_id),
            self.config.max_batch,
        );
        drop(state);
        if visible {
            self.queue.wake.notify_one();
        }
        Ok(())
    }

    /// Whether the runtime still accepts new work (`false` once
    /// [`Runtime::drain`], [`Runtime::kill`] or [`Runtime::shutdown`]
    /// has run).
    #[must_use]
    pub fn is_accepting(&self) -> bool {
        self.queue.lock().open
    }

    /// Validates a request and pairs it with its response channel. A
    /// request whose deadline has already passed is rejected here —
    /// before it can occupy the pending queue, the admission index, or a
    /// batch slot — so dead-on-arrival work is never charged any
    /// admission effort.
    fn admit(&self, request: MatmulRequest) -> Result<(Submission, ResponseHandle), RuntimeError> {
        if request.deadline.is_some_and(|d| d <= Instant::now()) {
            self.metrics
                .rejected_deadline
                .fetch_add(1, Ordering::Relaxed);
            return Err(RuntimeError::DeadlineExpired);
        }
        if let Err(e) = request.validate() {
            self.metrics
                .rejected_invalid
                .fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        // A traced request opens its "queue" span here, tagged with
        // the backlog it joins; the worker that takes it into a batch
        // closes it.
        let trace_queue = request.trace.as_ref().and_then(|t| {
            let idx = t.collector.begin("queue", t.parent);
            t.collector
                .set_queue_depth(idx, self.metrics.pending_depth.load(Ordering::Relaxed));
            idx
        });
        Ok((
            Submission {
                request,
                respond: tx,
                submitted_at: Instant::now(),
                trace_queue,
                wake: None,
            },
            ResponseHandle::new(rx),
        ))
    }

    /// Stops intake through `&self` without joining any thread: further
    /// submits fail with [`RuntimeError::ShuttingDown`] while the
    /// workers keep draining everything already accepted in the
    /// background. The network front-end uses this as its drain hook —
    /// stop the wire first, let in-flight work flush, then join via
    /// [`Runtime::shutdown`]. Idempotent.
    pub fn drain(&self) {
        self.queue.lock().open = false;
        self.queue.wake.notify_all();
    }

    /// Simulates an abrupt node crash: intake closes *and* everything
    /// accepted but not yet taken by a worker is abandoned — those
    /// requests' waiters surface [`RuntimeError::WorkerLost`], exactly
    /// what a caller of a real remote node would observe when it dies
    /// mid-flight. (Batches a worker already took still complete; a
    /// real crash has the same race.) Threads still join via
    /// [`Runtime::shutdown`]. Idempotent.
    pub fn kill(&self) {
        let abandoned = {
            let mut state = self.queue.lock();
            state.open = false;
            self.metrics.pending_depth.store(0, Ordering::Relaxed);
            std::mem::take(&mut state.pending)
        };
        self.queue.wake.notify_all();
        // Dropped unlocked: each responder disconnects, then its wake
        // guard fires, and a waker may call back into this runtime.
        drop(abandoned);
    }

    /// Stops intake, drains every queued request, and joins all threads.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.drain();
        for worker in self.workers.drain(..) {
            worker.join().expect("worker exits cleanly");
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl QueueState {
    /// Whether a free worker may take a `len`-request group of
    /// `matrix_id`: not while another worker has that matrix in a pass
    /// and the group is short enough for that worker to take next
    /// without a tile rewrite (at most `2 · max_batch`).
    fn visible(&self, matrix_id: u64, len: usize, max_batch: usize) -> bool {
        len > 2 * max_batch || !self.in_pass.contains(&Some(matrix_id))
    }
}

/// One worker: whenever it is free it takes the next batch under the
/// queue lock, then runs the deadline gate and the device pass
/// unlocked. It exits once intake is closed and nothing is pending.
fn worker_loop(
    w: usize,
    config: &RuntimeConfig,
    queue: &Queue,
    pool: &DevicePool,
    metrics: &Arc<MetricsRegistry>,
    adc_fraction: f64,
) {
    // Spans opened anywhere below this worker (executor merge, tensor
    // compute/digitise kernels) record into the registry's stage table.
    pic_obs::install_collector(Some(Arc::clone(&metrics.stages)));
    let mut last: Option<u64> = None;
    let mut state = queue.lock();
    'serve: loop {
        let (group, matrix_id, reordered) = loop {
            if let Some(batch) = next_batch(&mut state, w, last, config, queue, pool, metrics) {
                drop(state);
                break batch;
            }
            if !state.open && state.pending.is_empty() {
                break 'serve;
            }
            state = queue.wake.wait(state).expect("queue lock");
        };
        let formed_at = Instant::now();
        let group = reject_expired(group, formed_at, metrics);
        if !group.is_empty() {
            if reordered {
                metrics.admission_reorders.fetch_add(1, Ordering::Relaxed);
            }
            for sub in &group {
                metrics.stages.record_ns(
                    Stage::Queue,
                    formed_at.duration_since(sub.submitted_at).as_nanos() as u64,
                );
                if let Some(trace) = &sub.request.trace {
                    trace.collector.end(sub.trace_queue);
                }
            }
            last = Some(matrix_id);
            metrics.batches_dispatched.fetch_add(1, Ordering::Relaxed);
            if group.len() > 1 {
                metrics
                    .requests_batched
                    .fetch_add(group.len() as u64, Ordering::Relaxed);
            }
            metrics.workers_busy.fetch_add(1, Ordering::Relaxed);
            let busy_from = Instant::now();
            process_batch(group, pool, metrics, adc_fraction);
            metrics
                .worker_busy_ns
                .fetch_add(busy_from.elapsed().as_nanos() as u64, Ordering::Relaxed);
            metrics.workers_busy.fetch_sub(1, Ordering::Relaxed);
        }
        state = queue.lock();
        state.in_pass[w] = None;
    }
    drop(state);
    // The other idle workers re-check the exit condition.
    queue.wake.notify_all();
    pic_obs::install_collector(None);
}

/// Runs the admission policy over the groups a free worker may take and
/// takes up to `max_batch` requests of the chosen one, marking its
/// matrix in a pass on worker `w` and waking whoever may now proceed.
/// Returns the batch, its matrix and whether the policy passed over an
/// older visible group; `None` when nothing is visible.
fn next_batch(
    state: &mut QueueState,
    w: usize,
    last: Option<u64>,
    config: &RuntimeConfig,
    queue: &Queue,
    pool: &DevicePool,
    metrics: &MetricsRegistry,
) -> Option<(Vec<Submission>, u64, bool)> {
    let views: Vec<GroupView> = state
        .pending
        .views()
        .into_iter()
        .filter(|v| state.visible(v.matrix_id, v.len, config.max_batch))
        .collect();
    if views.is_empty() {
        return None;
    }
    let admission_timer = StageTimer::start(&metrics.stages, Stage::Admission);
    let resident = pool.resident_matrices();
    let ctx = DispatchContext {
        resident: &resident,
        last_dispatched: last,
    };
    let picked = state
        .policy
        .select(&views, &ctx, Instant::now())
        .min(views.len() - 1);
    let view = views[picked];
    let was_full = state.pending.len() >= config.queue_depth;
    let group = state.pending.take(view.matrix_id, config.max_batch);
    debug_assert!(!group.is_empty(), "selected group has pending work");
    drop(admission_timer);
    state.in_pass[w] = Some(view.matrix_id);
    metrics
        .pending_depth
        .store(state.pending.len() as u64, Ordering::Relaxed);
    // A take from a full queue may unblock submitters: wake everyone.
    // Otherwise every other visible group stays visible, and this
    // group's rest is visible only past the spill length now that `w`
    // runs its matrix.
    if was_full {
        queue.wake.notify_all();
    } else if views.len() > 1 || view.len - group.len() > 2 * config.max_batch {
        queue.wake.notify_one();
    }
    Some((group, view.matrix_id, picked != 0))
}

/// The batch-formation deadline gate: requests that expired while
/// queued are rejected with a typed error here — before they can occupy
/// a batch slot or a device pass — and the still live remainder is
/// returned. (The first gate is `Runtime::admit` for
/// dead-on-arrival requests; the last is `process_batch`, covering the
/// window between formation and execution.)
fn reject_expired(
    group: Vec<Submission>,
    formed_at: Instant,
    metrics: &MetricsRegistry,
) -> Vec<Submission> {
    let (live, dead): (Vec<Submission>, Vec<Submission>) = group
        .into_iter()
        .partition(|sub| sub.request.deadline.is_none_or(|d| d > formed_at));
    for sub in dead {
        metrics.rejected_deadline.fetch_add(1, Ordering::Relaxed);
        if let Some(trace) = &sub.request.trace {
            trace.collector.end(sub.trace_queue);
            trace
                .collector
                .annotate(sub.trace_queue, "deadline expired while queued");
        }
        let _ = sub.respond.send(Err(RuntimeError::DeadlineExpired));
    }
    live
}

/// Executes one same-matrix batch on a residency-affine device and fans
/// the outputs back out to the individual requests. `adc_fraction` is
/// digitisation's share of modeled compute energy (from the power
/// breakdown), used for per-stage energy attribution.
fn process_batch(
    group: Vec<Submission>,
    pool: &DevicePool,
    metrics: &MetricsRegistry,
    adc_fraction: f64,
) {
    let now = Instant::now();
    let mut live = Vec::with_capacity(group.len());
    for sub in group {
        if sub.request.deadline.is_some_and(|d| d <= now) {
            metrics.rejected_deadline.fetch_add(1, Ordering::Relaxed);
            let _ = sub.respond.send(Err(RuntimeError::DeadlineExpired));
        } else {
            live.push(sub);
        }
    }
    if live.is_empty() {
        return;
    }

    let matrix = Arc::clone(&live[0].request.matrix);
    // Merge the sharers' batches as borrowed slices — the executor splits
    // them straight into its own scratch, so no sample data is copied.
    let merged: Vec<&[f64]> = live
        .iter()
        .flat_map(|sub| sub.request.inputs.iter().map(Vec::as_slice))
        .collect();
    let total_samples = merged.len();

    let exec_start = Instant::now();
    let mut device = pool.acquire_for(matrix.id());
    let executed = device.execute_slices(&matrix, &merged);
    let device_id = device.device_id();
    drop(device);
    let exec_end = Instant::now();

    match executed {
        Ok((mut outputs, cost)) => {
            metrics
                .tile_writes
                .fetch_add(cost.tiles_written as u64, Ordering::Relaxed);
            metrics
                .tile_hits
                .fetch_add(cost.tiles_resident as u64, Ordering::Relaxed);
            metrics.energy_j.add(cost.total_energy_j());
            metrics.write_energy_j.add(cost.write_energy_j);
            metrics.device_time_s.add(cost.total_time_s());
            // Stage-level energy attribution: the write stage carries the
            // batch's tile-write energy exactly; compute energy splits
            // between analog compute and digitisation by the power
            // breakdown. Summing the three reconciles with `energy_j`.
            let digitize_energy = cost.compute_energy_j * adc_fraction;
            metrics
                .stages
                .add_energy_j(Stage::Write, cost.write_energy_j);
            metrics
                .stages
                .add_energy_j(Stage::Compute, cost.compute_energy_j - digitize_energy);
            metrics
                .stages
                .add_energy_j(Stage::Digitize, digitize_energy);
            let _respond_timer = StageTimer::start(&metrics.stages, Stage::Respond);
            let batched_with = live.len();
            let finished = Instant::now();
            for sub in live {
                let samples = sub.request.inputs.len();
                let rest = outputs.split_off(samples);
                let mine = std::mem::replace(&mut outputs, rest);
                let share = samples as f64 / total_samples as f64;
                let cost = RequestCost {
                    // Write effort is a property of the batch's single
                    // matrix pass; split it evenly across the sharers.
                    write_time_s: cost.write_time_s / batched_with as f64,
                    write_energy_j: cost.write_energy_j / batched_with as f64,
                    // Compute scales with this request's samples.
                    compute_time_s: cost.compute_time_s * share,
                    compute_energy_j: cost.compute_energy_j * share,
                    ..cost
                };
                metrics.completed.fetch_add(1, Ordering::Relaxed);
                metrics
                    .latency
                    .record(finished.duration_since(sub.submitted_at).as_nanos() as u64);
                if let Some(trace) = &sub.request.trace {
                    record_service_span(
                        trace,
                        &cost,
                        exec_start,
                        exec_end,
                        device_id,
                        batched_with,
                        adc_fraction,
                    );
                }
                let _ = sub.respond.send(Ok(Response {
                    outputs: mine,
                    cost,
                    device: device_id,
                    batched_with,
                }));
            }
        }
        Err(e) => {
            // Per-request validation happens at submit, so this is a
            // configuration-level mismatch; every sharer gets the error.
            for sub in live {
                metrics.rejected_invalid.fetch_add(1, Ordering::Relaxed);
                let _ = sub.respond.send(Err(e.clone()));
            }
        }
    }
}

/// Records a traced request's "service" span over the measured device
/// pass, with modeled `write`/`compute`/`digitize` child spans
/// partitioning the pass proportionally to the hardware model. Each
/// child carries its stage's energy share, matching the registry's
/// stage-level attribution (so a trace reconciles with `/metrics`).
fn record_service_span(
    trace: &pic_obs::TraceContext,
    cost: &RequestCost,
    exec_start: Instant,
    exec_end: Instant,
    device_id: usize,
    batched_with: usize,
    adc_fraction: f64,
) {
    let c = &trace.collector;
    let Some(service) = c.span_between("service", trace.parent, exec_start, exec_end) else {
        return;
    };
    c.annotate(
        Some(service),
        &format!("device {device_id}, batched with {batched_with}"),
    );
    let base = c.offset_ns(exec_start);
    let span_ns = c.offset_ns(exec_end).saturating_sub(base);
    let model_s = cost.total_time_s();
    if span_ns == 0 || model_s <= 0.0 {
        c.add_energy_j(Some(service), cost.total_energy_j());
        return;
    }
    let digitize_s = cost.compute_time_s * adc_fraction;
    let mut edge = base;
    for (label, share_s, energy_j) in [
        ("write", cost.write_time_s, cost.write_energy_j),
        (
            "compute",
            cost.compute_time_s - digitize_s,
            cost.compute_energy_j * (1.0 - adc_fraction),
        ),
        ("digitize", digitize_s, cost.compute_energy_j * adc_fraction),
    ] {
        let width = (span_ns as f64 * (share_s / model_s)) as u64;
        let child = c.span_offsets(label, Some(service), edge, edge + width);
        c.add_energy_j(child, energy_j);
        edge += width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::{TileShape, TiledMatrix};
    use std::time::Duration;

    fn small_config(devices: usize) -> RuntimeConfig {
        RuntimeConfig {
            core: TensorCoreConfig::small_demo(),
            devices,
            queue_depth: 64,
            max_batch: 4,
            policy: AdmissionPolicyKind::ResidencyAware,
            max_delay: Duration::from_millis(100),
        }
    }

    fn small_runtime(devices: usize) -> Runtime {
        Runtime::start(small_config(devices))
    }

    fn matrix(out: usize, inp: usize) -> Arc<TiledMatrix> {
        let codes: Vec<Vec<u32>> = (0..out)
            .map(|r| (0..inp).map(|c| ((r + 2 * c) % 8) as u32).collect())
            .collect();
        Arc::new(TiledMatrix::from_codes(&codes, 3, TileShape::new(4, 4)))
    }

    #[test]
    fn starts_and_shuts_down_cleanly_without_work() {
        let mut rt = small_runtime(2);
        rt.shutdown();
        rt.shutdown(); // idempotent
    }

    /// Collects wake tokens, for the waker-contract tests.
    #[derive(Default)]
    struct RecordingWaker {
        tokens: std::sync::Mutex<Vec<u64>>,
        signal: std::sync::Condvar,
    }

    impl RecordingWaker {
        fn wait_for(&self, n: usize, timeout: Duration) -> Vec<u64> {
            let tokens = self.tokens.lock().expect("waker lock");
            let (tokens, _) = self
                .signal
                .wait_timeout_while(tokens, timeout, |t| t.len() < n)
                .expect("waker lock");
            tokens.clone()
        }
    }

    impl CompletionWaker for RecordingWaker {
        fn wake(&self, token: u64) {
            self.tokens.lock().expect("waker lock").push(token);
            self.signal.notify_all();
        }
    }

    #[test]
    fn waker_fires_once_after_the_handle_is_terminal() {
        let mut rt = small_runtime(2);
        let waker = Arc::new(RecordingWaker::default());
        let m = matrix(4, 4);
        let handles: Vec<(u64, ResponseHandle)> = (0..8u64)
            .map(|token| {
                let request = MatmulRequest::new(Arc::clone(&m), vec![vec![0.5; m.in_dim()]]);
                let handle = rt
                    .submit_with_waker(request, token, Arc::clone(&waker) as _)
                    .expect("accepted");
                (token, handle)
            })
            .collect();
        let mut woken = waker.wait_for(8, Duration::from_secs(10));
        woken.sort_unstable();
        assert_eq!(woken, (0..8).collect::<Vec<u64>>(), "every token, once");
        for (token, handle) in handles {
            let resp = handle.try_wait();
            assert!(
                matches!(resp, Some(Ok(_))),
                "token {token}: wake implies try_wait observes the response"
            );
        }
        rt.shutdown();
        assert_eq!(
            waker.tokens.lock().expect("waker lock").len(),
            8,
            "no spurious wakes at shutdown"
        );
    }

    #[test]
    fn synchronous_rejections_never_wake() {
        let mut rt = small_runtime(1);
        let waker = Arc::new(RecordingWaker::default());
        let m = matrix(4, 4);
        // Dead-on-arrival: rejected at admission, synchronously.
        let doa = MatmulRequest::new(Arc::clone(&m), vec![vec![0.5; m.in_dim()]])
            .with_deadline(Instant::now() - Duration::from_millis(5));
        assert!(matches!(
            rt.submit_with_waker(doa, 1, Arc::clone(&waker) as _),
            Err(RuntimeError::DeadlineExpired)
        ));
        // Invalid shape: rejected at admission, synchronously.
        let bad = MatmulRequest::new(Arc::clone(&m), vec![vec![0.5; m.in_dim() + 1]]);
        assert!(matches!(
            rt.submit_with_waker(bad, 2, Arc::clone(&waker) as _),
            Err(RuntimeError::InvalidRequest(_))
        ));
        // After drain: rejected with ShuttingDown, synchronously.
        rt.drain();
        let late = MatmulRequest::new(Arc::clone(&m), vec![vec![0.5; m.in_dim()]]);
        assert!(matches!(
            rt.submit_with_waker(late, 3, Arc::clone(&waker) as _),
            Err(RuntimeError::ShuttingDown)
        ));
        rt.shutdown();
        assert!(
            waker.tokens.lock().expect("waker lock").is_empty(),
            "an Err submit must never fire the waker"
        );
    }

    #[test]
    fn serves_mixed_matrices_with_no_lost_responses() {
        let rt = small_runtime(2);
        let (a, b) = (matrix(4, 4), matrix(10, 7));
        let handles: Vec<ResponseHandle> = (0..40)
            .map(|i| {
                let m = if i % 2 == 0 { &a } else { &b };
                let x = vec![vec![0.5; m.in_dim()]; 1 + i % 3];
                rt.submit_blocking(MatmulRequest::new(Arc::clone(m), x))
                    .expect("accepted")
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let resp = h.wait().expect("completed");
            let m = if i % 2 == 0 { &a } else { &b };
            assert_eq!(resp.outputs.len(), 1 + i % 3, "request {i} batch size");
            assert_eq!(resp.outputs[0].len(), m.out_dim(), "request {i} rows");
            assert!(resp.cost.total_energy_j() > 0.0);
        }
        let m = rt.metrics();
        assert_eq!(m.submitted.load(Ordering::Relaxed), 40);
        assert_eq!(m.completed.load(Ordering::Relaxed), 40);
        assert_eq!(
            m.rejected_deadline.load(Ordering::Relaxed)
                + m.rejected_invalid.load(Ordering::Relaxed)
                + m.rejected_queue_full.load(Ordering::Relaxed),
            0
        );
    }

    #[test]
    fn batched_responses_match_solo_execution() {
        // Force batching deterministically: one worker, and the first
        // (multi-tile, slow) request occupies it while the rest queue up.
        let rt = small_runtime(1);
        let m = matrix(8, 8);
        let inputs: Vec<Vec<Vec<f64>>> = (0..6)
            .map(|i| {
                vec![(0..8)
                    .map(|c| f64::from((i + c) as u32 % 9) / 9.0)
                    .collect()]
            })
            .collect();
        let handles: Vec<ResponseHandle> = inputs
            .iter()
            .map(|x| {
                rt.submit_blocking(MatmulRequest::new(Arc::clone(&m), x.clone()))
                    .expect("accepted")
            })
            .collect();
        let mut solo = crate::executor::TileExecutor::new(TensorCoreConfig::small_demo(), 99);
        for (x, h) in inputs.iter().zip(handles) {
            let resp = h.wait().expect("completed");
            let (want, _) = solo.execute(&m, x).expect("reference");
            assert_eq!(resp.outputs, want, "batched result must equal solo");
        }
    }

    #[test]
    fn expired_deadlines_reject_at_submit_with_no_admission_work() {
        let rt = small_runtime(1);
        let m = matrix(4, 4);
        let expired = MatmulRequest::new(Arc::clone(&m), vec![vec![0.5; 4]])
            .with_deadline(Instant::now() - Duration::from_millis(1));
        // Dead on arrival: the typed error comes back synchronously —
        // the request never reaches the pending queue.
        assert!(matches!(
            rt.submit(expired),
            Err(RuntimeError::DeadlineExpired)
        ));
        let s = rt.metrics();
        assert_eq!(
            s.rejected_deadline.load(Ordering::Relaxed),
            1,
            "typed rejection counted"
        );
        assert_eq!(
            (
                s.submitted.load(Ordering::Relaxed),
                s.batches_dispatched.load(Ordering::Relaxed),
                s.admission_reorders.load(Ordering::Relaxed)
            ),
            (0, 0, 0),
            "a DOA request is charged no queue or admission work"
        );
        let generous = MatmulRequest::new(m, vec![vec![0.5; 4]])
            .with_deadline(Instant::now() + Duration::from_secs(60));
        let h = rt.submit(generous).expect("accepted");
        assert!(h.wait().is_ok(), "future deadline must not reject");
        assert_eq!(
            (
                s.rejected_deadline.load(Ordering::Relaxed),
                s.completed.load(Ordering::Relaxed)
            ),
            (1, 1)
        );
    }

    #[test]
    fn batch_formation_gate_rejects_requests_that_expired_while_queued() {
        // Deterministic unit drive of the second gate: two submissions
        // whose deadlines straddle the formation instant. The expired one
        // gets its typed error without ever occupying a batch slot; the
        // live one passes through untouched.
        let metrics = MetricsRegistry::default();
        let m = matrix(4, 4);
        let submitted_at = Instant::now();
        let formed_at = submitted_at + Duration::from_millis(10);
        let mut channels = Vec::new();
        let group: Vec<Submission> = [Duration::from_millis(5), Duration::from_secs(60)]
            .into_iter()
            .map(|ttl| {
                let (tx, rx) = std::sync::mpsc::sync_channel(1);
                channels.push(rx);
                Submission {
                    request: MatmulRequest::new(Arc::clone(&m), vec![vec![0.5; 4]])
                        .with_deadline(submitted_at + ttl),
                    respond: tx,
                    submitted_at,
                    trace_queue: None,
                    wake: None,
                }
            })
            .collect();
        let live = reject_expired(group, formed_at, &metrics);
        assert_eq!(live.len(), 1, "only the live deadline survives");
        assert_eq!(
            live[0].request.deadline,
            Some(submitted_at + Duration::from_secs(60))
        );
        assert!(matches!(
            channels[0].try_recv(),
            Ok(Err(RuntimeError::DeadlineExpired))
        ));
        assert!(
            channels[1].try_recv().is_err(),
            "the live request got no response yet"
        );
        assert_eq!(metrics.rejected_deadline.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn traced_request_collects_queue_and_service_spans() {
        let rt = small_runtime(1);
        let m = matrix(4, 4);
        let collector = pic_obs::TraceCollector::start(pic_obs::TraceId::mint(1, 0), true);
        let ctx = pic_obs::TraceContext::new(Arc::clone(&collector));
        let req = MatmulRequest::new(m, vec![vec![0.5; 4]]).with_trace(ctx);
        let h = rt.submit(req).expect("accepted");
        let resp = h.wait().expect("completed");
        let record = collector.finish(collector.offset_ns(Instant::now()));
        let labels: Vec<&str> = record.spans.iter().map(|s| s.label).collect();
        for expected in ["queue", "service", "write", "compute", "digitize"] {
            assert!(labels.contains(&expected), "missing {expected}: {labels:?}");
        }
        let queue = record
            .spans
            .iter()
            .find(|s| s.label == "queue")
            .expect("queue span");
        assert!(queue.queue_depth.is_some(), "queue depth tagged at entry");
        let service_idx = record
            .spans
            .iter()
            .position(|s| s.label == "service")
            .expect("service span");
        let service = &record.spans[service_idx];
        assert!(
            service
                .annotation
                .as_deref()
                .unwrap_or("")
                .contains("device"),
            "service span names its device: {service:?}"
        );
        // The modeled children partition the service span and carry
        // the request's energy split exactly.
        let child_energy: f64 = record
            .spans
            .iter()
            .filter(|s| s.parent == Some(service_idx as u32))
            .map(|s| s.energy_j)
            .sum();
        let total = resp.cost.total_energy_j();
        assert!(
            (child_energy - total).abs() <= 1e-12 * total.max(1.0),
            "span energy {child_energy} != request energy {total}"
        );
        assert!(record
            .spans
            .iter()
            .filter(|s| s.parent == Some(service_idx as u32))
            .all(|s| s.start_ns >= service.start_ns && s.end_ns <= service.end_ns));
    }

    #[test]
    fn traced_queue_depths_stay_within_the_bound_under_concurrent_submitters() {
        const SUBMITTERS: u64 = 4;
        const PER: u64 = 48;
        let rt = Runtime::start(RuntimeConfig {
            queue_depth: 16,
            ..small_config(2)
        });
        let m = matrix(10, 7);
        // Every submitter starts at once, so the queue fills past its
        // bound and submits race the workers' takes.
        let start = std::sync::Barrier::new(SUBMITTERS as usize);
        let collectors: Vec<Arc<pic_obs::TraceCollector>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..SUBMITTERS)
                .map(|t| {
                    let (rt, m, start) = (&rt, &m, &start);
                    scope.spawn(move || {
                        start.wait();
                        let mut accepted = Vec::new();
                        for i in 0..PER {
                            let id = pic_obs::TraceId::mint(t, i);
                            let collector = pic_obs::TraceCollector::start(id, true);
                            let ctx = pic_obs::TraceContext::new(Arc::clone(&collector));
                            let req = MatmulRequest::new(Arc::clone(m), vec![vec![0.5; 7]])
                                .with_trace(ctx);
                            match rt.submit(req) {
                                Ok(handle) => accepted.push((collector, handle)),
                                Err(RuntimeError::QueueFull) => {}
                                Err(e) => panic!("submitter {t} request {i}: {e}"),
                            }
                        }
                        accepted
                            .into_iter()
                            .map(|(collector, handle)| {
                                handle.wait().expect("served");
                                collector
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("submitter"))
                .collect()
        });
        assert!(!collectors.is_empty(), "some requests were accepted");
        for collector in collectors {
            let record = collector.finish(collector.offset_ns(Instant::now()));
            let queue = record
                .spans
                .iter()
                .find(|s| s.label == "queue")
                .expect("queue span");
            let depth = queue.queue_depth.expect("queue depth tagged at entry");
            assert!(
                depth <= rt.config().queue_depth as u64,
                "a queue span joined a backlog of {depth}, past the bound"
            );
        }
    }

    #[test]
    fn invalid_requests_bounce_at_the_front_door() {
        let rt = small_runtime(1);
        let m = matrix(4, 4);
        let bad = MatmulRequest::new(m, vec![vec![1.5; 4]]);
        assert!(matches!(
            rt.submit(bad),
            Err(RuntimeError::InvalidRequest(_))
        ));
        assert_eq!(rt.metrics().rejected_invalid.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn wait_timeout_times_out_then_delivers() {
        // A handle wired to a raw channel: nothing arrives within the
        // timeout, then the response does.
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let handle = ResponseHandle::new(rx);
        assert!(
            handle.wait_timeout(Duration::from_millis(10)).is_none(),
            "timeout before anything is sent"
        );
        tx.send(Err(RuntimeError::QueueFull)).expect("send");
        match handle.wait_timeout(Duration::from_millis(10)) {
            Some(Err(RuntimeError::QueueFull)) => {}
            other => panic!("expected the queued response, got {other:?}"),
        }
        // The handle is terminal now: further waits return WorkerLost
        // immediately (no blocking, no panic) — even though the sender
        // is still alive and the channel open.
        let waited = Instant::now();
        assert!(matches!(
            handle.wait_timeout(Duration::from_secs(30)),
            Some(Err(RuntimeError::WorkerLost))
        ));
        assert!(
            waited.elapsed() < Duration::from_secs(1),
            "a terminal handle must not block for the timeout"
        );
        assert!(matches!(
            handle.try_wait(),
            Some(Err(RuntimeError::WorkerLost))
        ));
        drop(tx);
        assert!(matches!(handle.wait(), Err(RuntimeError::WorkerLost)));
        // And against a live runtime: a served request arrives within a
        // generous timeout.
        let rt = small_runtime(1);
        let m = matrix(4, 4);
        let h = rt
            .submit_blocking(MatmulRequest::new(m, vec![vec![0.5; 4]]))
            .expect("accepted");
        let resp = h
            .wait_timeout(Duration::from_secs(30))
            .expect("served within timeout")
            .expect("request succeeds");
        assert_eq!(resp.outputs.len(), 1);
    }

    #[test]
    fn handle_after_runtime_drop_surfaces_worker_lost_without_blocking() {
        // The runtime drains on drop, so an accepted request still gets
        // its response; here the handle's channel dies unresolved — a
        // raw channel whose sender dropped without sending, as after a
        // worker loss. Every wait flavour must surface WorkerLost
        // immediately and keep doing so (no hang, no panic on repeat).
        let (tx, rx) = std::sync::mpsc::sync_channel::<Result<Response, RuntimeError>>(1);
        let handle = ResponseHandle::new(rx);
        drop(tx);
        let waited = Instant::now();
        assert!(matches!(
            handle.wait_timeout(Duration::from_secs(30)),
            Some(Err(RuntimeError::WorkerLost))
        ));
        assert!(
            waited.elapsed() < Duration::from_secs(1),
            "disconnect must resolve immediately, not after the timeout"
        );
        // Repeated calls on the now-terminal handle stay deterministic.
        for _ in 0..3 {
            assert!(matches!(
                handle.wait_timeout(Duration::from_millis(1)),
                Some(Err(RuntimeError::WorkerLost))
            ));
            assert!(matches!(
                handle.try_wait(),
                Some(Err(RuntimeError::WorkerLost))
            ));
        }
        assert!(matches!(handle.wait(), Err(RuntimeError::WorkerLost)));
    }

    #[test]
    fn submit_after_shutdown_is_a_typed_error() {
        let mut rt = small_runtime(1);
        rt.shutdown();
        let m = matrix(4, 4);
        assert!(matches!(
            rt.submit(MatmulRequest::new(m, vec![vec![0.5; 4]])),
            Err(RuntimeError::ShuttingDown)
        ));
    }

    #[test]
    fn kill_abandons_pending_work_with_worker_lost() {
        let rt = Runtime::start(RuntimeConfig {
            core: TensorCoreConfig::small_demo(),
            devices: 1,
            queue_depth: 256,
            max_batch: 1,
            policy: AdmissionPolicyKind::Fifo,
            max_delay: Duration::from_millis(100),
        });
        // Distinct matrices force a fresh tile write per batch, keeping
        // the lone worker busy while the backlog sits undispatched.
        let handles: Vec<ResponseHandle> = (0..128)
            .map(|_| {
                rt.submit(MatmulRequest::new(matrix(4, 4), vec![vec![0.5; 4]]))
                    .expect("accepted")
            })
            .collect();
        rt.kill();
        assert!(
            matches!(
                rt.submit(MatmulRequest::new(matrix(4, 4), vec![vec![0.5; 4]])),
                Err(RuntimeError::ShuttingDown)
            ),
            "a killed node stops accepting"
        );
        let (mut ok, mut lost) = (0usize, 0usize);
        for h in handles {
            match h.wait() {
                Ok(_) => ok += 1,
                Err(RuntimeError::WorkerLost) => lost += 1,
                Err(e) => panic!("kill surfaces WorkerLost, not {e:?}"),
            }
        }
        assert_eq!(ok + lost, 128);
        assert!(
            lost >= 1,
            "the abandoned backlog must surface typed errors (ok={ok})"
        );
    }

    #[test]
    fn drop_drains_accepted_work() {
        let m = matrix(8, 8);
        let handles: Vec<ResponseHandle> = {
            let rt = small_runtime(2);
            (0..10)
                .map(|_| {
                    rt.submit_blocking(MatmulRequest::new(Arc::clone(&m), vec![vec![0.25; 8]]))
                        .expect("accepted")
                })
                .collect()
            // rt drops here: shutdown must drain, not discard.
        };
        for h in handles {
            assert!(h.wait().is_ok(), "accepted work survives shutdown");
        }
    }
}
