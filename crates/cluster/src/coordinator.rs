//! The cluster coordinator: fan-out, the partial-sum reduce layer,
//! and failure-aware re-sharding over a fleet of [`Runtime`] nodes.
//!
//! ## Why the reduce is bit-identical
//!
//! Accumulation in this stack is digital, post-ADC: the executor sums
//! per-tile `u8` codes into `u32` code sums and only then dequantises
//! with one multiply. Integer addition is associative and exact, so
//! summing each shard's code sums gives *the same integer* a single
//! node would have accumulated, and the coordinator dequantises with
//! the identical expression (`cols / parent_in_dim / (levels − 1)`)
//! the executor uses — same operations in the same order, hence
//! bit-identical `f64` values. The shards' own dequantised values
//! (computed against their shard-local `in_dim`) are discarded.
//!
//! ## Failure model
//!
//! A node is *lost* when it stops accepting work ([`Runtime`] reports
//! `ShuttingDown`/`WorkerLost`) or when [`Coordinator::mark_lost`] is
//! called. Loss is permanent: the node's replicas are removed from
//! every placement and shards left with no live replica are re-placed
//! on the least-loaded survivors (which stream the weight tiles in on
//! first use — residency tracking makes the re-warm incremental). An
//! in-flight shard call on a lost node surfaces a typed error and is
//! retried exactly once against the new placement; a second loss on
//! the retry surfaces [`ClusterError::NodeLost`] to the caller.
//!
//! ## Completion
//!
//! Every shard call goes out through [`Runtime::submit_with_waker`]
//! under one per-request fan-in waker, which forwards a single
//! `wake(token)` to the request's own waker once the last outstanding
//! shard call settles. One step then collects the shard responses,
//! resubmits each shard stranded by a node loss under the re-armed
//! fan-in, or runs the reduce in shard order. The network front-end
//! runs that step from [`ServeBackend::poll`] on its reactor thread;
//! [`ClusterHandle::wait`] parks until woken and runs the same step.
//! Neither ever waits on a shard.

use crate::plan::{self, ShardSpec};
use pic_net::{ServeBackend, ServeError, ServeOutcome, Submitted};
use pic_obs::{Frame, HistogramSnapshot, StageFrame};
use pic_runtime::{
    CompletionWaker, MatmulRequest, OutputElement, RequestCost, Response, ResponseHandle, Runtime,
    RuntimeConfig, RuntimeError, TiledMatrix,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Instant;

/// Load floor for placement weights, so matrices registered without a
/// load hint still spread across nodes instead of tying at zero.
const MIN_MATRIX_LOAD: f64 = 0.01;

/// Sizing of a cluster: how many nodes, and what each node runs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Node count (≥ 1).
    pub nodes: usize,
    /// Per-node runtime configuration. Every node is identical — the
    /// dequantisation contract requires one shared core geometry.
    pub node: RuntimeConfig,
}

impl ClusterConfig {
    /// A cluster of `nodes` paper-configured runtimes.
    #[must_use]
    pub fn paper(nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            node: RuntimeConfig::paper(),
        }
    }
}

/// A typed cluster serving failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A node rejected the request for a non-loss reason (deadline,
    /// queue full, invalid, coordinator shutting down) — propagated
    /// unchanged so the wire contract matches single-node serving.
    Rejected(RuntimeError),
    /// A shard call failed on a lost node and its one retry against
    /// the new placement also landed on a node that died.
    NodeLost {
        /// The node the retry failed on.
        node: usize,
    },
    /// Every node is lost; there is no placement to retry against.
    NoSurvivors,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Rejected(e) => write!(f, "{e}"),
            ClusterError::NodeLost { node } => {
                write!(f, "node {node} was lost and the retry failed")
            }
            ClusterError::NoSurvivors => write!(f, "all cluster nodes are lost"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<ClusterError> for ServeError {
    fn from(e: ClusterError) -> ServeError {
        match e {
            ClusterError::Rejected(e) => ServeError::from(e),
            ClusterError::NodeLost { .. } => ServeError {
                status: 500,
                kind: "node_lost",
                message: e.to_string(),
                retry_after_s: None,
            },
            ClusterError::NoSurvivors => ServeError {
                status: 503,
                kind: "no_survivors",
                message: e.to_string(),
                retry_after_s: None,
            },
        }
    }
}

/// The merged result of one cluster request.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterResponse {
    /// Per input sample, per parent output row — bit-identical to the
    /// single-node [`Response::outputs`](pic_runtime::Response).
    pub outputs: Vec<Vec<OutputElement>>,
    /// Costs summed over every shard call that served the request.
    pub cost: RequestCost,
    /// The node that carried the largest shard (by tile count).
    pub node: usize,
    /// Largest dispatch batch any shard call rode in.
    pub batched_with: usize,
    /// Shard calls the request fanned out to.
    pub shards: usize,
    /// Shard calls that were retried after a node loss.
    pub retried: usize,
}

/// One placed shard of a registered matrix.
#[derive(Debug)]
struct PlannedShard {
    spec: ShardSpec,
    matrix: Arc<TiledMatrix>,
    replicas: Vec<usize>,
    /// Planned-load charge per replica (subtracted when a replica is
    /// removed, added when a survivor picks the shard up).
    replica_weight: f64,
}

/// A resolved shard call: which live node serves which shard clone.
struct ShardTarget {
    node: usize,
    matrix: Arc<TiledMatrix>,
    in_range: std::ops::Range<usize>,
}

impl ShardTarget {
    fn new(node: usize, shard: &PlannedShard) -> ShardTarget {
        ShardTarget {
            node,
            matrix: Arc::clone(&shard.matrix),
            in_range: shard.spec.in_range.clone(),
        }
    }
}

/// A registered matrix's full placement.
#[derive(Debug)]
struct MatrixPlan {
    shards: Vec<PlannedShard>,
    /// The exact single-node dequantisation factor for this matrix.
    scale: f64,
}

#[derive(Debug)]
struct Node {
    runtime: Runtime,
    alive: AtomicBool,
    /// Shard calls in flight on this node; each [`ShardCall`] holds
    /// one and gives it back when dropped.
    inflight: Arc<AtomicU64>,
}

#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    retried_shards: AtomicU64,
    reshards: AtomicU64,
    node_losses: AtomicU64,
    samples: AtomicU64,
}

/// A point-in-time copy of the coordinator's own counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterCounters {
    /// Requests accepted by [`Coordinator::submit`].
    pub submitted: u64,
    /// Requests whose reduce completed.
    pub completed: u64,
    /// Requests that surfaced a typed error.
    pub rejected: u64,
    /// Shard calls retried after a node loss.
    pub retried_shards: u64,
    /// Shards re-placed onto a survivor.
    pub reshards: u64,
    /// Nodes marked lost.
    pub node_losses: u64,
    /// Input samples served (reduce-completed requests).
    pub samples: u64,
}

/// The multi-node serving coordinator.
pub struct Coordinator {
    nodes: Vec<Node>,
    plans: RwLock<HashMap<u64, MatrixPlan>>,
    planned_load: Mutex<Vec<f64>>,
    counters: Counters,
    accepting: AtomicBool,
    started: Instant,
    config: ClusterConfig,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("nodes", &self.nodes.len())
            .field("alive", &self.alive_nodes())
            .finish()
    }
}

impl Coordinator {
    /// Starts `config.nodes` runtimes and the coordinator over them.
    ///
    /// # Panics
    ///
    /// Panics if `config.nodes` is zero or the node config is invalid.
    #[must_use]
    pub fn start(config: ClusterConfig) -> Coordinator {
        assert!(config.nodes > 0, "a cluster needs at least one node");
        let nodes = (0..config.nodes)
            .map(|_| Node {
                runtime: Runtime::start(config.node),
                alive: AtomicBool::new(true),
                inflight: Arc::new(AtomicU64::new(0)),
            })
            .collect::<Vec<_>>();
        Coordinator {
            planned_load: Mutex::new(vec![0.0; nodes.len()]),
            nodes,
            plans: RwLock::new(HashMap::new()),
            counters: Counters::default(),
            accepting: AtomicBool::new(true),
            started: Instant::now(),
            config,
        }
    }

    /// Total nodes (lost ones included).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Nodes still alive.
    #[must_use]
    pub fn alive_nodes(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.alive.load(Ordering::Acquire))
            .count()
    }

    /// The cluster's sizing.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Direct access to node `i`'s runtime (metrics inspection and
    /// failure injection in tests).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn node(&self, i: usize) -> &Runtime {
        &self.nodes[i].runtime
    }

    /// A copy of the coordinator's own counters.
    #[must_use]
    pub fn counters(&self) -> ClusterCounters {
        let c = &self.counters;
        ClusterCounters {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            retried_shards: c.retried_shards.load(Ordering::Relaxed),
            reshards: c.reshards.load(Ordering::Relaxed),
            node_losses: c.node_losses.load(Ordering::Relaxed),
            samples: c.samples.load(Ordering::Relaxed),
        }
    }

    /// The replica placement of `matrix_id`'s shards (shard order),
    /// empty if the matrix is unregistered. Test/ops introspection.
    #[must_use]
    pub fn placement(&self, matrix_id: u64) -> Vec<Vec<usize>> {
        self.plans
            .read()
            .expect("plans lock")
            .get(&matrix_id)
            .map(|p| p.shards.iter().map(|s| s.replicas.clone()).collect())
            .unwrap_or_default()
    }

    /// Per-node planned load tallies.
    #[must_use]
    pub fn planned_load(&self) -> Vec<f64> {
        self.planned_load.lock().expect("load lock").clone()
    }

    /// The exact dequantisation factor the executor applies for a
    /// matrix of `in_dim` inputs on this core geometry.
    fn dequant_scale(config: &RuntimeConfig, in_dim: usize) -> f64 {
        let levels = config.core.adc.channel_count() as f64;
        config.core.cols as f64 / in_dim as f64 / (levels - 1.0)
    }

    /// Registers `matrix` with a traffic-share hint `load ∈ [0, 1]`
    /// (fraction of cluster traffic expected to hit this matrix).
    /// Shards are planned and placed immediately; hot matrices get
    /// replicas. Registering an already-registered matrix is a no-op.
    pub fn register(&self, matrix: &Arc<TiledMatrix>, load: f64) {
        let mut plans = self.plans.write().expect("plans lock");
        if plans.contains_key(&matrix.id()) {
            return;
        }
        let alive: Vec<bool> = self
            .nodes
            .iter()
            .map(|n| n.alive.load(Ordering::Acquire))
            .collect();
        let alive_count = alive.iter().filter(|&&a| a).count();
        let replicas = plan::replica_count(load, alive_count);
        let specs = plan::shard_specs(matrix, self.nodes.len());
        let parent_tiles = matrix.tile_count() as f64;
        let mut planned = self.planned_load.lock().expect("load lock");
        let shards = specs
            .into_iter()
            .map(|spec| {
                let shard = matrix.shard(spec.block_rows.clone(), spec.block_cols.clone());
                let weight = (load.clamp(0.0, 1.0).max(MIN_MATRIX_LOAD) / replicas as f64)
                    * (shard.tile_count() as f64 / parent_tiles);
                let chosen = plan::place_replicas(replicas, weight, &mut planned, &alive);
                PlannedShard {
                    spec,
                    matrix: Arc::new(shard),
                    replicas: chosen,
                    replica_weight: weight,
                }
            })
            .collect();
        plans.insert(
            matrix.id(),
            MatrixPlan {
                shards,
                scale: Self::dequant_scale(&self.config.node, matrix.in_dim()),
            },
        );
    }

    /// Marks a node permanently lost: drains it, strips it from every
    /// placement, and re-places shards it was the last live replica
    /// of onto the least-loaded survivors. Returns how many shards
    /// were re-placed. Idempotent.
    pub fn mark_lost(&self, node: usize) -> usize {
        assert!(node < self.nodes.len(), "node {node} out of range");
        if !self.nodes[node].alive.swap(false, Ordering::AcqRel) {
            return 0;
        }
        self.counters.node_losses.fetch_add(1, Ordering::Relaxed);
        // Drain, don't join: in-flight work the node already accepted
        // still completes (those responses stay valid); new submits
        // get `ShuttingDown`. Threads join at coordinator shutdown.
        self.nodes[node].runtime.drain();

        let alive: Vec<bool> = self
            .nodes
            .iter()
            .map(|n| n.alive.load(Ordering::Acquire))
            .collect();
        let mut plans = self.plans.write().expect("plans lock");
        let mut planned = self.planned_load.lock().expect("load lock");
        let mut replaced = 0usize;
        for plan in plans.values_mut() {
            for shard in &mut plan.shards {
                let Some(at) = shard.replicas.iter().position(|&n| n == node) else {
                    continue;
                };
                shard.replicas.remove(at);
                planned[node] -= shard.replica_weight;
                if shard.replicas.is_empty() {
                    let chosen =
                        plan::place_replicas(1, shard.replica_weight, &mut planned, &alive);
                    if let Some(&survivor) = chosen.first() {
                        shard.replicas.push(survivor);
                        replaced += 1;
                        self.counters.reshards.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        planned[node] = 0.0;
        replaced
    }

    /// Whether the coordinator (and at least one node) accepts work.
    #[must_use]
    pub fn is_accepting(&self) -> bool {
        self.accepting.load(Ordering::Acquire)
            && self
                .nodes
                .iter()
                .any(|n| n.alive.load(Ordering::Acquire) && n.runtime.is_accepting())
    }

    /// Stops accepting new requests and drains every node (accepted
    /// work still completes; threads join at [`Coordinator::shutdown`]).
    pub fn drain(&self) {
        self.accepting.store(false, Ordering::Release);
        for node in &self.nodes {
            node.runtime.drain();
        }
    }

    /// Drains and joins every node.
    pub fn shutdown(&mut self) {
        self.accepting.store(false, Ordering::Release);
        for node in &mut self.nodes {
            node.runtime.shutdown();
        }
    }

    /// Submits a request against the parent matrix, fanning one shard
    /// call out per planned shard. Unregistered matrices are
    /// registered on first use with a neutral load hint.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Rejected`] when a node rejects a shard for a
    /// non-loss reason (propagating the typed [`RuntimeError`]),
    /// [`ClusterError::NoSurvivors`] when every node is lost.
    pub fn submit(&self, request: MatmulRequest) -> Result<ClusterHandle<'_>, ClusterError> {
        let parker = Arc::new(Parker::default());
        let flight = self.launch(request, 0, Arc::clone(&parker) as _)?;
        Ok(ClusterHandle {
            coordinator: self,
            flight,
            parker,
        })
    }

    /// Validates the request and fans it out, every shard call waking
    /// through one fan-in that forwards `wake(token)` to `waker` once
    /// the last one settles. On `Err` the waker never fires: the
    /// fan-in still counts the shards that were never submitted.
    fn launch(
        &self,
        request: MatmulRequest,
        token: u64,
        waker: Arc<dyn CompletionWaker>,
    ) -> Result<ClusterPending, ClusterError> {
        if !self.accepting.load(Ordering::Acquire) {
            return Err(self.reject(ClusterError::Rejected(RuntimeError::ShuttingDown)));
        }
        request
            .validate()
            .map_err(|e| self.reject(ClusterError::Rejected(e)))?;
        if !self
            .plans
            .read()
            .expect("plans lock")
            .contains_key(&request.matrix.id())
        {
            self.register(&request.matrix, 0.0);
        }
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);

        let shard_count = self.plans.read().expect("plans lock")[&request.matrix.id()]
            .shards
            .len();
        // A traced request gets a "coordinator" span covering the whole
        // fan-out + reduce; every shard call nests under it.
        let coord_span = request.trace.as_ref().and_then(|t| {
            let idx = t.collector.begin("coordinator", t.parent);
            t.collector
                .annotate(idx, &format!("fan-out over {shard_count} shards"));
            idx
        });
        let fan_in = Arc::new(FanIn {
            outstanding: AtomicUsize::new(shard_count),
            token,
            waker,
        });
        let mut shards = Vec::with_capacity(shard_count);
        for shard_idx in 0..shard_count {
            match self.submit_shard(&request, shard_idx, None, coord_span, &fan_in) {
                Ok(call) => shards.push(Shard::Calling(call)),
                Err(e) => return Err(self.reject(e)),
            }
        }
        Ok(ClusterPending {
            request,
            fan_in,
            shards,
            retried: 0,
            coord_span,
        })
    }

    /// Submits and waits — the blocking one-call form.
    ///
    /// # Errors
    ///
    /// As [`Coordinator::submit`] and [`ClusterHandle::wait`].
    pub fn submit_blocking(&self, request: MatmulRequest) -> Result<ClusterResponse, ClusterError> {
        self.submit(request)?.wait()
    }

    fn reject(&self, e: ClusterError) -> ClusterError {
        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
        e
    }

    /// Submits shard `shard_idx` of the request to the best live
    /// replica under the request's fan-in, failing over (and marking
    /// nodes lost) until it lands or no survivors remain.
    fn submit_shard(
        &self,
        request: &MatmulRequest,
        shard_idx: usize,
        exclude: Option<usize>,
        coord_span: Option<u32>,
        fan_in: &Arc<FanIn>,
    ) -> Result<ShardCall, ClusterError> {
        // Bounded by the fleet size: each failed attempt kills a node.
        for _ in 0..=self.nodes.len() {
            let ShardTarget {
                node,
                matrix: shard_matrix,
                in_range,
            } = self.pick_replica(request.matrix.id(), shard_idx, exclude)?;
            let inputs: Vec<Vec<f64>> = request
                .inputs
                .iter()
                .map(|row| row[in_range.clone()].to_vec())
                .collect();
            let mut shard_request = MatmulRequest::new(shard_matrix, inputs);
            if let Some(deadline) = request.deadline {
                shard_request = shard_request.with_deadline(deadline);
            }
            // Each submission attempt gets its own "shard" span under
            // the coordinator span (a failed-over attempt leaves its
            // annotated span behind, so the trace shows the failover).
            let mut span = None;
            if let Some(t) = request.trace.as_ref() {
                span = t.collector.begin("shard", coord_span.or(t.parent));
                t.collector.set_node(span, node as u64);
                t.collector.annotate(span, &format!("shard {shard_idx}"));
                if let Some(idx) = span {
                    shard_request = shard_request.with_trace(t.child(idx));
                }
            }
            let waker = Arc::clone(fan_in) as Arc<dyn CompletionWaker>;
            match self.nodes[node]
                .runtime
                .submit_with_waker(shard_request, shard_idx as u64, waker)
            {
                Ok(handle) => {
                    let inflight = Arc::clone(&self.nodes[node].inflight);
                    inflight.fetch_add(1, Ordering::Relaxed);
                    return Ok(ShardCall {
                        node,
                        span,
                        retry: false,
                        handle,
                        inflight,
                    });
                }
                // The node stopped accepting or died under us: mark it
                // lost (re-placing its shards) and try the next
                // placement.
                Err(RuntimeError::ShuttingDown | RuntimeError::WorkerLost) => {
                    if let Some(t) = request.trace.as_ref() {
                        t.collector
                            .annotate(span, &format!("node {node} lost at submit, failing over"));
                        t.collector.end(span);
                    }
                    self.mark_lost(node);
                }
                Err(e) => return Err(ClusterError::Rejected(e)),
            }
        }
        Err(ClusterError::NoSurvivors)
    }

    /// The live replica of a shard with the least in-flight work,
    /// repairing the placement first if every listed replica is dead.
    fn pick_replica(
        &self,
        matrix_id: u64,
        shard_idx: usize,
        exclude: Option<usize>,
    ) -> Result<ShardTarget, ClusterError> {
        let live = |n: usize| self.nodes[n].alive.load(Ordering::Acquire) && Some(n) != exclude;
        {
            let plans = self.plans.read().expect("plans lock");
            let shard = &plans[&matrix_id].shards[shard_idx];
            if let Some(&node) = shard
                .replicas
                .iter()
                .filter(|&&n| live(n))
                .min_by_key(|&&n| self.nodes[n].inflight.load(Ordering::Relaxed))
            {
                return Ok(ShardTarget::new(node, shard));
            }
        }
        // Every listed replica is dead (or excluded): repair under the
        // write lock, then retry the read path once.
        let alive: Vec<bool> = self
            .nodes
            .iter()
            .map(|n| n.alive.load(Ordering::Acquire))
            .collect();
        if !alive.iter().any(|&a| a) {
            return Err(ClusterError::NoSurvivors);
        }
        {
            let mut plans = self.plans.write().expect("plans lock");
            let mut planned = self.planned_load.lock().expect("load lock");
            let plan = plans.get_mut(&matrix_id).expect("registered matrix");
            let shard = &mut plan.shards[shard_idx];
            shard.replicas.retain(|&n| alive[n]);
            if shard.replicas.is_empty() {
                let chosen = plan::place_replicas(1, shard.replica_weight, &mut planned, &alive);
                if let Some(&survivor) = chosen.first() {
                    shard.replicas.push(survivor);
                    self.counters.reshards.fetch_add(1, Ordering::Relaxed);
                }
            }
            let shard = &plan.shards[shard_idx];
            match shard.replicas.iter().find(|&&n| alive[n]) {
                Some(&node) => Ok(ShardTarget::new(node, shard)),
                None => Err(ClusterError::NoSurvivors),
            }
        }
    }

    /// The one step of a request whose fan-in fired (every call of the
    /// last arm settled): collects the shard responses, retries each
    /// shard a node loss stranded exactly once under the re-armed
    /// fan-in, and otherwise reduces. `None` means re-armed: the
    /// request's waker fires once more. Never waits on a shard.
    fn step(&self, flight: &mut ClusterPending) -> Option<Result<ClusterResponse, ClusterError>> {
        let trace = flight.request.trace.as_ref();
        let mut stranded = Vec::new();
        for (shard_idx, shard) in flight.shards.iter_mut().enumerate() {
            let Shard::Calling(call) = shard else {
                continue;
            };
            let node = call.node;
            // Settled, so an empty handle is a lost worker.
            let result = call.handle.try_wait();
            match result.unwrap_or(Err(RuntimeError::WorkerLost)) {
                Ok(response) => {
                    if let Some(t) = trace {
                        t.collector.end(call.span);
                    }
                    *shard = Shard::Served { response, node };
                }
                // The node died under this in-flight call: retry
                // exactly once against the new placement.
                Err(RuntimeError::ShuttingDown | RuntimeError::WorkerLost) => {
                    self.mark_lost(node);
                    if call.retry {
                        return Some(Err(self.reject(ClusterError::NodeLost { node })));
                    }
                    if let Some(t) = trace {
                        t.collector
                            .annotate(call.span, &format!("node {node} lost in flight, retrying"));
                        t.collector.end(call.span);
                    }
                    stranded.push((shard_idx, node));
                }
                Err(e) => return Some(Err(self.reject(ClusterError::Rejected(e)))),
            }
        }
        if stranded.is_empty() {
            return Some(Ok(self.reduce(flight)));
        }
        // Every call of the last arm settled, so nothing else counts
        // the fan-in down while it re-arms for exactly the retries.
        flight
            .fan_in
            .outstanding
            .store(stranded.len(), Ordering::Release);
        for (shard_idx, lost) in stranded {
            self.counters.retried_shards.fetch_add(1, Ordering::Relaxed);
            flight.retried += 1;
            let mut retry = match self.submit_shard(
                &flight.request,
                shard_idx,
                Some(lost),
                flight.coord_span,
                &flight.fan_in,
            ) {
                Ok(call) => call,
                Err(e) => return Some(Err(self.reject(e))),
            };
            retry.retry = true;
            if let Some(t) = trace {
                t.collector.annotate(
                    retry.span,
                    &format!(
                        "retry after node {lost} loss, re-placed on node {}",
                        retry.node
                    ),
                );
            }
            flight.shards[shard_idx] = Shard::Calling(retry);
        }
        None
    }

    /// Reduces a fully served request's partial code sums, in shard
    /// order, into the parent-shaped outputs.
    fn reduce(&self, flight: &ClusterPending) -> ClusterResponse {
        let request = &flight.request;
        let samples = request.inputs.len();
        let out_dim = request.matrix.out_dim();
        let mut code_sums = vec![0u32; samples * out_dim];
        let mut cost = RequestCost::default();
        let mut batched_with = 1usize;
        let mut widest: (usize, usize) = (0, 0); // (tiles, node)
        let plans = self.plans.read().expect("plans lock");
        let plan = &plans[&request.matrix.id()];
        for (shard, planned) in flight.shards.iter().zip(&plan.shards) {
            let Shard::Served {
                response: resp,
                node,
            } = shard
            else {
                unreachable!("the reduce runs only once every shard is served");
            };
            // Reduce: digital post-ADC accumulation — exact u32 sums.
            let shard_out = resp.outputs.first().map_or(0, Vec::len);
            for (s, sample) in resp.outputs.iter().enumerate() {
                let base = s * out_dim + planned.spec.out_offset;
                for (acc, elem) in code_sums[base..base + shard_out].iter_mut().zip(sample) {
                    *acc += elem.code_sum;
                }
            }
            cost.tiles += resp.cost.tiles;
            cost.tiles_written += resp.cost.tiles_written;
            cost.tiles_resident += resp.cost.tiles_resident;
            cost.write_time_s += resp.cost.write_time_s;
            cost.compute_time_s += resp.cost.compute_time_s;
            cost.write_energy_j += resp.cost.write_energy_j;
            cost.compute_energy_j += resp.cost.compute_energy_j;
            batched_with = batched_with.max(resp.batched_with);
            let tiles = planned.matrix.tile_count();
            if tiles >= widest.0 {
                widest = (tiles, *node);
            }
        }

        // Dequantise with the parent-matrix scale — the exact
        // expression (and operation order) the single-node executor
        // applies, so merged values are bit-identical to its output.
        let scale = plan.scale;
        drop(plans);
        let outputs: Vec<Vec<OutputElement>> = (0..samples)
            .map(|s| {
                code_sums[s * out_dim..(s + 1) * out_dim]
                    .iter()
                    .map(|&code_sum| OutputElement {
                        code_sum,
                        value: f64::from(code_sum) * scale,
                    })
                    .collect()
            })
            .collect();

        if let Some(t) = request.trace.as_ref() {
            if flight.retried > 0 {
                t.collector.annotate(
                    flight.coord_span,
                    &format!("{} shard call(s) retried after node loss", flight.retried),
                );
            }
            t.collector.end(flight.coord_span);
        }
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        self.counters
            .samples
            .fetch_add(samples as u64, Ordering::Relaxed);
        ClusterResponse {
            outputs,
            cost,
            node: widest.1,
            batched_with,
            shards: flight.shards.len(),
            retried: flight.retried,
        }
    }

    /// Rolls every node's frame plus the coordinator's own state into
    /// one cluster frame: node counters/stages/histograms merge
    /// (integer sums / bucket-wise histogram merges), node gauges are
    /// re-emitted under a `node{i}_` prefix, and cluster-level
    /// utilization/roofline gauges are appended — per-node busy
    /// fraction, achieved vs. peak samples/s, and shard balance.
    #[must_use]
    pub fn frame(&self) -> Frame {
        let mut frame = Frame::default();
        let planned = self.planned_load();
        let mut busy_sum = 0.0;
        let mut busy_nodes = 0usize;
        for (i, node) in self.nodes.iter().enumerate() {
            let nf = node.runtime.frame();
            frame.at_s = frame.at_s.max(nf.at_s);
            for &(name, v) in &nf.counters {
                merge_counter(&mut frame.counters, name, v);
            }
            for s in &nf.stages {
                merge_stage(&mut frame.stages, s);
            }
            for (name, h) in &nf.hists {
                merge_hist(&mut frame.hists, name, h);
            }
            let alive = node.alive.load(Ordering::Acquire);
            if alive {
                if let Some(&(_, busy)) = nf
                    .gauges
                    .iter()
                    .find(|(n, _)| n == "worker_busy_fraction")
                    .as_ref()
                {
                    busy_sum += busy;
                    busy_nodes += 1;
                }
            }
            frame
                .gauges
                .push((format!("node{i}_alive"), f64::from(u8::from(alive))));
            frame.gauges.push((
                format!("node{i}_inflight"),
                node.inflight.load(Ordering::Relaxed) as f64,
            ));
            frame
                .gauges
                .push((format!("node{i}_planned_load"), planned[i]));
            for (name, v) in nf.gauges {
                frame.gauges.push((format!("node{i}_{name}"), v));
            }
        }

        let c = self.counters();
        frame.counters.extend([
            ("cluster_submitted", c.submitted),
            ("cluster_completed", c.completed),
            ("cluster_rejected", c.rejected),
            ("cluster_retried_shards", c.retried_shards),
            ("cluster_reshards", c.reshards),
            ("cluster_node_losses", c.node_losses),
            ("cluster_samples", c.samples),
        ]);

        let alive = self.alive_nodes();
        frame
            .gauges
            .push(("nodes".to_owned(), self.nodes.len() as f64));
        frame.gauges.push(("nodes_alive".to_owned(), alive as f64));
        // 2602.00892-style utilization/roofline gauges. Peak is the
        // modeled ADC-limited rate: one sample column per conversion
        // cycle per device, summed over live devices.
        if busy_nodes > 0 {
            frame
                .gauges
                .push(("utilization".to_owned(), busy_sum / busy_nodes as f64));
        }
        let peak = alive as f64
            * self.config.node.devices as f64
            * self.config.node.core.adc.sample_rate.as_hertz();
        frame.gauges.push(("peak_samples_per_s".to_owned(), peak));
        let elapsed = self.started.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            frame.gauges.push((
                "achieved_samples_per_s".to_owned(),
                c.samples as f64 / elapsed,
            ));
        }
        // Shard balance: max/mean planned load over live nodes (1.0 =
        // perfectly even; grows as placement skews).
        let live_loads: Vec<f64> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive.load(Ordering::Acquire))
            .map(|(i, _)| planned[i])
            .collect();
        if !live_loads.is_empty() {
            let mean = live_loads.iter().sum::<f64>() / live_loads.len() as f64;
            let max = live_loads.iter().fold(0.0f64, |a, &b| a.max(b));
            let balance = if mean > 0.0 { max / mean } else { 1.0 };
            frame.gauges.push(("shard_balance".to_owned(), balance));
        }
        frame
    }
}

fn merge_counter(counters: &mut Vec<(&'static str, u64)>, name: &'static str, v: u64) {
    match counters.iter_mut().find(|(n, _)| *n == name) {
        Some((_, total)) => *total += v,
        None => counters.push((name, v)),
    }
}

fn merge_stage(stages: &mut Vec<StageFrame>, s: &StageFrame) {
    match stages.iter_mut().find(|mine| mine.stage == s.stage) {
        Some(mine) => {
            mine.hist.merge(&s.hist);
            mine.energy_j += s.energy_j;
        }
        None => stages.push(s.clone()),
    }
}

fn merge_hist(
    hists: &mut Vec<(&'static str, HistogramSnapshot)>,
    name: &'static str,
    h: &HistogramSnapshot,
) {
    match hists.iter_mut().find(|(n, _)| *n == name) {
        Some((_, mine)) => mine.merge(h),
        None => hists.push((name, h.clone())),
    }
}

/// One in-flight shard call.
#[derive(Debug)]
struct ShardCall {
    node: usize,
    /// This attempt's "shard" trace span (traced requests only).
    span: Option<u32>,
    /// Whether this call is its shard's one retry after a node loss.
    retry: bool,
    handle: ResponseHandle,
    /// The node's in-flight gauge, given back on drop.
    inflight: Arc<AtomicU64>,
}

impl Drop for ShardCall {
    fn drop(&mut self) {
        // Collected, abandoned by an early error, or dropped with its
        // request: the slot comes back either way; the work itself
        // drains inside the node runtime.
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One planned shard of an in-flight request.
#[derive(Debug)]
enum Shard {
    /// Its current call, not yet collected.
    Calling(ShardCall),
    /// Its collected response and the node that served it.
    Served { response: Response, node: usize },
}

/// Counts a request's outstanding shard calls down and forwards one
/// `wake(token)` to the request's waker when the last one settles.
struct FanIn {
    outstanding: AtomicUsize,
    token: u64,
    waker: Arc<dyn CompletionWaker>,
}

impl CompletionWaker for FanIn {
    fn wake(&self, _shard: u64) {
        // AcqRel: the last decrement acquires every earlier shard's
        // release (and the re-arm's store), so the step that follows
        // the forwarded wake sees every call of the arm settled.
        if self.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.waker.wake(self.token);
        }
    }
}

impl std::fmt::Debug for FanIn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanIn")
            .field("outstanding", &self.outstanding.load(Ordering::Relaxed))
            .field("token", &self.token)
            .finish()
    }
}

/// The waker behind [`ClusterHandle::wait`]: parks the waiting thread
/// until the request's fan-in fires.
#[derive(Debug, Default)]
struct Parker {
    woken: Mutex<bool>,
    wake: Condvar,
}

impl Parker {
    fn park(&self) {
        let mut woken = self.woken.lock().expect("parker lock");
        while !*woken {
            woken = self.wake.wait(woken).expect("parker lock");
        }
        *woken = false;
    }
}

impl CompletionWaker for Parker {
    fn wake(&self, _token: u64) {
        *self.woken.lock().expect("parker lock") = true;
        self.wake.notify_one();
    }
}

/// The in-flight state of one cluster request between wakes of its
/// fan-in: the [`ServeBackend::Pending`] of a [`Coordinator`].
#[derive(Debug)]
pub struct ClusterPending {
    request: MatmulRequest,
    fan_in: Arc<FanIn>,
    /// One entry per planned shard, in shard order.
    shards: Vec<Shard>,
    retried: usize,
    /// The "coordinator" span covering fan-out + reduce (traced only).
    coord_span: Option<u32>,
}

/// The in-flight handle of one cluster request: one shard call per
/// planned shard. [`ClusterHandle::wait`] performs the reduce.
#[derive(Debug)]
pub struct ClusterHandle<'a> {
    coordinator: &'a Coordinator,
    flight: ClusterPending,
    parker: Arc<Parker>,
}

impl ClusterHandle<'_> {
    /// Blocks until every shard call settles and reduces the partial
    /// code sums into the parent-shaped outputs. A shard call that dies
    /// with its node is retried exactly once against the post-loss
    /// placement.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Rejected`] for propagated typed rejections,
    /// [`ClusterError::NodeLost`] when a retry also lands on a dying
    /// node, [`ClusterError::NoSurvivors`] when no placement remains.
    pub fn wait(mut self) -> Result<ClusterResponse, ClusterError> {
        loop {
            self.parker.park();
            if let Some(result) = self.coordinator.step(&mut self.flight) {
                return result;
            }
        }
    }
}

impl From<ClusterResponse> for ServeOutcome {
    fn from(resp: ClusterResponse) -> ServeOutcome {
        ServeOutcome {
            outputs: resp.outputs,
            device: resp.node as u64,
            batched_with: resp.batched_with as u64,
            tiles_written: resp.cost.tiles_written as u64,
            tiles_resident: resp.cost.tiles_resident as u64,
            energy_j: resp.cost.total_energy_j(),
        }
    }
}

impl ServeBackend for Coordinator {
    type Pending = ClusterPending;

    fn submit(
        &self,
        request: MatmulRequest,
        token: u64,
        waker: Arc<dyn CompletionWaker>,
    ) -> Submitted<ClusterPending> {
        match self.launch(request, token, waker) {
            Ok(flight) => Submitted::Pending(flight),
            Err(e) => Submitted::Ready(Err(e.into())),
        }
    }

    fn poll(&self, mut flight: ClusterPending) -> Submitted<ClusterPending> {
        match self.step(&mut flight) {
            Some(result) => {
                Submitted::Ready(result.map(ServeOutcome::from).map_err(ServeError::from))
            }
            None => Submitted::Pending(flight),
        }
    }

    fn is_accepting(&self) -> bool {
        Coordinator::is_accepting(self)
    }

    fn frame(&self) -> Frame {
        Coordinator::frame(self)
    }

    fn shutdown(&mut self) {
        Coordinator::shutdown(self);
    }
}
