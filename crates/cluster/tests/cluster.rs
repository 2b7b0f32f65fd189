//! Cluster end-to-end guarantees: the reduce layer is bit-identical to
//! single-node serving (including under an induced node failure with
//! retry), failure re-sharding re-places work on survivors, the
//! roll-up frame reports the fleet, modeled throughput scales with the
//! node count, and the coordinator serves through the `pic-net`
//! reactor — over the wire, and through the `ServeBackend`
//! submit/poll path the reactor drives.

#[path = "../../runtime/tests/support/mod.rs"]
mod support;

use pic_cluster::{ClusterConfig, ClusterError, ClusterPending, Coordinator};
use pic_net::{MatmulWire, NetClient, NetConfig, NetError, NetServer, ServeBackend, Submitted};
use pic_runtime::{
    AdmissionPolicyKind, CompletionWaker, MatmulRequest, OutputElement, Runtime, RuntimeConfig,
    RuntimeError, TileExecutor, TileShape, TiledMatrix,
};
use pic_tensor::TensorCoreConfig;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn node_config(devices: usize) -> RuntimeConfig {
    RuntimeConfig {
        core: TensorCoreConfig::small_demo(),
        devices,
        queue_depth: 256,
        max_batch: 4,
        policy: AdmissionPolicyKind::ResidencyAware,
        max_delay: Duration::from_millis(100),
    }
}

fn cluster(nodes: usize) -> Coordinator {
    Coordinator::start(ClusterConfig {
        nodes,
        node: node_config(1),
    })
}

fn single_node() -> Runtime {
    Runtime::start(node_config(1))
}

/// A deterministic pseudo-random code matrix (shape 4×4 tiles).
fn matrix(out: usize, inp: usize, seed: u64) -> Arc<TiledMatrix> {
    let mut state = seed
        .wrapping_mul(2_862_933_555_777_941_757)
        .wrapping_add(3037);
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as u32
    };
    let codes: Vec<Vec<u32>> = (0..out)
        .map(|_| (0..inp).map(|_| next() % 8).collect())
        .collect();
    Arc::new(TiledMatrix::from_codes(&codes, 3, TileShape::new(4, 4)))
}

fn inputs(samples: usize, inp: usize, seed: u64) -> Vec<Vec<f64>> {
    (0..samples)
        .map(|s| {
            (0..inp)
                .map(|i| {
                    let v = (s * 31 + i * 7 + seed as usize * 13) % 97;
                    v as f64 / 96.0
                })
                .collect()
        })
        .collect()
}

/// A request sent straight to a victim node to wedge its only worker
/// (see `support::WedgedWorker`), so the shard calls sent after it
/// queue and a kill strands them.
fn holder() -> MatmulRequest {
    MatmulRequest::new(matrix(4, 4, 999), inputs(1, 4, 0))
}

/// Runs the same request stream through a cluster and a single node
/// and asserts the outputs are exactly equal — code sums AND `f64`
/// value bits.
fn assert_bit_identical(coordinator: &Coordinator, requests: &[(Arc<TiledMatrix>, Vec<Vec<f64>>)]) {
    let solo = single_node();
    for (matrix, ins) in requests {
        let clustered = coordinator
            .submit_blocking(MatmulRequest::new(Arc::clone(matrix), ins.clone()))
            .expect("cluster serves");
        let solo_resp = solo
            .submit(MatmulRequest::new(Arc::clone(matrix), ins.clone()))
            .and_then(pic_runtime::ResponseHandle::wait)
            .expect("single node serves");
        assert_eq!(
            clustered.outputs.len(),
            solo_resp.outputs.len(),
            "sample count"
        );
        for (s, (c_row, s_row)) in clustered.outputs.iter().zip(&solo_resp.outputs).enumerate() {
            assert_eq!(c_row.len(), s_row.len(), "sample {s} output width");
            for (r, (c, single)) in c_row.iter().zip(s_row).enumerate() {
                assert_eq!(
                    c.code_sum, single.code_sum,
                    "sample {s} row {r}: integer partial sums must merge exactly"
                );
                assert_eq!(
                    c.value.to_bits(),
                    single.value.to_bits(),
                    "sample {s} row {r}: dequantised values must be bit-identical \
                     ({} vs {})",
                    c.value,
                    single.value
                );
            }
        }
    }
}

#[test]
fn pinned_multi_shard_case_is_bit_identical_on_four_nodes() {
    // 12×10 on a 4×4 core → a 3×3 tile grid; 4 nodes plan 3 row shards.
    let coordinator = cluster(4);
    let m = matrix(12, 10, 7);
    coordinator.register(&m, 0.4);
    assert_eq!(coordinator.placement(m.id()).len(), 3, "three row shards");
    let requests: Vec<_> = (0..6)
        .map(|i| (Arc::clone(&m), inputs(1 + i % 3, 10, i as u64)))
        .collect();
    assert_bit_identical(&coordinator, &requests);
}

#[test]
fn column_sharding_reduces_partial_sums_exactly() {
    // 4×20 → a 1×5 tile grid; 4 nodes plan 4 column shards, so the
    // reduce must *add* u32 partial sums, not just concatenate rows.
    let coordinator = cluster(4);
    let m = matrix(4, 20, 11);
    coordinator.register(&m, 0.5);
    let placement = coordinator.placement(m.id());
    assert_eq!(placement.len(), 4, "four column shards");
    let requests: Vec<_> = (0..4)
        .map(|i| (Arc::clone(&m), inputs(2, 20, 40 + i)))
        .collect();
    assert_bit_identical(&coordinator, &requests);
}

#[test]
fn one_node_cluster_matches_single_runtime_trivially() {
    let coordinator = cluster(1);
    let requests: Vec<_> = (0..3)
        .map(|i| (matrix(9, 6, 50 + i), inputs(2, 6, i)))
        .collect();
    assert_bit_identical(&coordinator, &requests);
}

#[test]
fn hot_matrices_get_replicas_and_placement_spreads_load() {
    let coordinator = cluster(4);
    let hot = matrix(8, 8, 1);
    let cold = matrix(8, 8, 2);
    coordinator.register(&hot, 0.9);
    coordinator.register(&cold, 0.05);
    let hot_placement = coordinator.placement(hot.id());
    assert!(
        hot_placement.iter().all(|replicas| replicas.len() == 4),
        "a 0.9-load matrix replicates to every node: {hot_placement:?}"
    );
    let cold_placement = coordinator.placement(cold.id());
    assert!(
        cold_placement.iter().all(|replicas| replicas.len() == 1),
        "a cold matrix gets one replica: {cold_placement:?}"
    );
    let load = coordinator.planned_load();
    let max = load.iter().fold(0.0f64, |a, &b| a.max(b));
    let min = load.iter().fold(f64::MAX, |a, &b| a.min(b));
    assert!(
        max - min < 0.5,
        "planned load spreads across nodes: {load:?}"
    );
}

#[test]
fn node_loss_mid_batch_retries_exactly_once_against_new_placement() {
    let coordinator = cluster(3);
    // Single-tile matrix → one shard, one replica on one node.
    let m = matrix(4, 4, 21);
    coordinator.register(&m, 0.0);
    let placement = coordinator.placement(m.id());
    assert_eq!(placement.len(), 1);
    assert_eq!(placement[0].len(), 1);
    let victim = placement[0][0];

    // Wedge the victim's only worker, queue a backlog behind it, then
    // crash the node: the undispatched tail surfaces WorkerLost and
    // must retry — exactly once each — against the re-placed shard.
    let wedged = support::WedgedWorker::hold(coordinator.node(victim), holder());
    let handles: Vec<_> = (0..64)
        .map(|i| {
            coordinator
                .submit(MatmulRequest::new(Arc::clone(&m), inputs(1, 4, i)))
                .expect("accepted")
        })
        .collect();
    coordinator.node(victim).kill();
    drop(wedged);

    let mut retried_total = 0usize;
    let solo = single_node();
    for (i, h) in handles.into_iter().enumerate() {
        let resp = h.wait().expect("every request survives the node loss");
        assert!(
            resp.retried <= 1,
            "request {i} retried {} times — must be exactly once per lost shard",
            resp.retried
        );
        retried_total += resp.retried;
        // Retried or not, the answer is still bit-identical.
        let solo_resp = solo
            .submit(MatmulRequest::new(Arc::clone(&m), inputs(1, 4, i as u64)))
            .and_then(pic_runtime::ResponseHandle::wait)
            .expect("single node serves");
        for (c, s) in resp.outputs[0].iter().zip(&solo_resp.outputs[0]) {
            assert_eq!(c.code_sum, s.code_sum);
            assert_eq!(c.value.to_bits(), s.value.to_bits());
        }
    }
    assert!(
        retried_total >= 1,
        "the crash must strand at least one in-flight shard call"
    );

    let counters = coordinator.counters();
    assert_eq!(counters.node_losses, 1, "one node was lost");
    assert_eq!(
        counters.retried_shards as usize, retried_total,
        "coordinator counts each retry once"
    );
    let after = coordinator.placement(m.id());
    assert_eq!(after.len(), 1);
    assert_ne!(
        after[0][0], victim,
        "the shard re-placed onto a survivor, not the dead node"
    );
    assert_eq!(coordinator.alive_nodes(), 2);

    // New work routes around the dead node without further losses.
    let resp = coordinator
        .submit_blocking(MatmulRequest::new(Arc::clone(&m), inputs(2, 4, 99)))
        .expect("survivors serve");
    assert_eq!(resp.retried, 0);
    assert_eq!(coordinator.counters().node_losses, 1);
}

#[test]
fn bit_identity_holds_under_an_induced_failure_on_a_sharded_matrix() {
    // 4-node cluster, 12×8 matrix → 3 row shards across the fleet.
    let coordinator = cluster(4);
    let m = matrix(12, 8, 33);
    coordinator.register(&m, 0.3);
    // Warm the placement, then kill whichever node owns shard 0.
    let warm = coordinator
        .submit_blocking(MatmulRequest::new(Arc::clone(&m), inputs(1, 8, 0)))
        .expect("warm pass");
    assert_eq!(warm.shards, 3);
    let victim = coordinator.placement(m.id())[0][0];
    let wedged = support::WedgedWorker::hold(coordinator.node(victim), holder());
    let handles: Vec<_> = (0..48)
        .map(|i| {
            coordinator
                .submit(MatmulRequest::new(Arc::clone(&m), inputs(1, 8, i)))
                .expect("accepted")
        })
        .collect();
    coordinator.node(victim).kill();
    drop(wedged);

    let solo = single_node();
    let mut retried_total = 0usize;
    for (i, h) in handles.into_iter().enumerate() {
        let resp = h.wait().expect("requests survive the loss");
        retried_total += resp.retried;
        let solo_resp = solo
            .submit(MatmulRequest::new(Arc::clone(&m), inputs(1, 8, i as u64)))
            .and_then(pic_runtime::ResponseHandle::wait)
            .expect("single node serves");
        for (c, s) in resp.outputs[0].iter().zip(&solo_resp.outputs[0]) {
            assert_eq!(c.value.to_bits(), s.value.to_bits(), "request {i}");
        }
    }
    assert!(retried_total >= 1, "the kill must strand in-flight shards");
    assert_eq!(coordinator.counters().node_losses, 1);
}

#[test]
fn all_nodes_lost_surfaces_no_survivors() {
    let coordinator = cluster(2);
    let m = matrix(4, 4, 60);
    coordinator.register(&m, 0.0);
    coordinator.mark_lost(0);
    coordinator.mark_lost(1);
    assert_eq!(coordinator.alive_nodes(), 0);
    assert!(!coordinator.is_accepting());
    let err = coordinator
        .submit_blocking(MatmulRequest::new(m, inputs(1, 4, 0)))
        .expect_err("no survivors");
    assert_eq!(err, ClusterError::NoSurvivors);
}

#[test]
fn coordinator_propagates_typed_rejections_unchanged() {
    let coordinator = cluster(2);
    let m = matrix(4, 4, 61);
    // Invalid: ragged inputs.
    let err = coordinator
        .submit_blocking(MatmulRequest::new(
            Arc::clone(&m),
            vec![vec![0.5; 4], vec![0.5; 3]],
        ))
        .expect_err("invalid request");
    assert!(matches!(
        err,
        ClusterError::Rejected(RuntimeError::InvalidRequest(_))
    ));
    // Dead-on-arrival deadline.
    let doa = MatmulRequest::new(m, inputs(1, 4, 0))
        .with_deadline(std::time::Instant::now() - Duration::from_millis(5));
    let err = coordinator.submit_blocking(doa).expect_err("expired");
    assert_eq!(err, ClusterError::Rejected(RuntimeError::DeadlineExpired));
}

#[test]
fn cluster_frame_rolls_up_nodes_and_reports_roofline_gauges() {
    let coordinator = cluster(2);
    let m = matrix(8, 8, 70);
    coordinator.register(&m, 0.6);
    for i in 0..8 {
        let _ = coordinator
            .submit_blocking(MatmulRequest::new(Arc::clone(&m), inputs(2, 8, i)))
            .expect("serves");
    }
    let frame = coordinator.frame();
    let counter = |name: &str| {
        frame
            .counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    };
    let gauge = |name: &str| {
        frame
            .gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    };
    // Node counters merged: 8 requests × 2 row shards = 16 node-side
    // completions summed across the fleet.
    assert_eq!(
        counter("requests_completed"),
        Some(16),
        "node shard completions sum"
    );
    assert_eq!(counter("cluster_completed"), Some(8));
    assert_eq!(counter("cluster_samples"), Some(16));
    assert_eq!(gauge("nodes"), Some(2.0));
    assert_eq!(gauge("nodes_alive"), Some(2.0));
    assert!(gauge("peak_samples_per_s").expect("roofline peak") > 0.0);
    assert!(gauge("achieved_samples_per_s").expect("achieved rate") > 0.0);
    assert!(gauge("shard_balance").expect("balance") >= 1.0);
    // Per-node gauges are re-emitted under a node prefix.
    assert!(gauge("node0_alive").is_some());
    assert!(gauge("node1_devices").is_some());
    // The roll-up merges stage histograms rather than dropping them.
    assert!(!frame.stages.is_empty(), "stage rows survive the roll-up");

    // After a loss the alive gauges track.
    coordinator.mark_lost(1);
    let frame = coordinator.frame();
    let gauge = |name: &str| {
        frame
            .gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    };
    assert_eq!(gauge("nodes_alive"), Some(1.0));
    assert_eq!(gauge("node1_alive"), Some(0.0));
}

#[test]
fn drained_coordinator_rejects_with_shutting_down() {
    let coordinator = cluster(2);
    let m = matrix(4, 4, 80);
    coordinator.drain();
    assert!(!coordinator.is_accepting());
    let err = coordinator
        .submit_blocking(MatmulRequest::new(m, inputs(1, 4, 0)))
        .expect_err("draining");
    assert_eq!(err, ClusterError::Rejected(RuntimeError::ShuttingDown));
}

#[test]
fn traced_cluster_request_nests_shard_spans_with_node_ids() {
    let coordinator = cluster(4);
    let m = matrix(12, 10, 7);
    coordinator.register(&m, 0.4);
    assert_eq!(coordinator.placement(m.id()).len(), 3, "three row shards");

    let collector = pic_obs::TraceCollector::start(pic_obs::TraceId::mint(1, 1), true);
    let ctx = pic_obs::TraceContext::new(std::sync::Arc::clone(&collector));
    coordinator
        .submit_blocking(MatmulRequest::new(Arc::clone(&m), inputs(2, 10, 3)).with_trace(ctx))
        .expect("cluster serves");
    let record = collector.finish(1_000_000);

    let coord = record
        .spans
        .iter()
        .position(|s| s.label == "coordinator")
        .expect("a coordinator span covers the fan-out");
    assert_eq!(
        record.spans[coord].parent,
        Some(0),
        "the coordinator span hangs off the root request span"
    );
    let shard_spans: Vec<_> = record.spans.iter().filter(|s| s.label == "shard").collect();
    assert_eq!(shard_spans.len(), 3, "one shard span per planned shard");
    for s in &shard_spans {
        assert_eq!(
            s.parent,
            Some(coord as u32),
            "shards nest under the coordinator"
        );
        let node = s.node.expect("every shard span carries its node id");
        assert!((node as usize) < coordinator.node_count());
        assert!(s.end_ns >= s.start_ns, "shard spans are closed");
    }
    // The runtime's own queue/service spans nest beneath shard spans,
    // so one trace tree covers coordinator → shard → node stages.
    let shard_indices: Vec<u32> = record
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.label == "shard")
        .map(|(i, _)| i as u32)
        .collect();
    for label in ["queue", "service"] {
        let nested = record
            .spans
            .iter()
            .filter(|s| s.label == label && s.parent.is_some_and(|p| shard_indices.contains(&p)))
            .count();
        assert_eq!(
            nested, 3,
            "each shard call records a {label} span under its shard span"
        );
    }
}

/// Exact equality with the solo executor: code sums and `f64` bits.
fn assert_outputs_identical(got: &[Vec<OutputElement>], want: &[Vec<OutputElement>], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: sample count");
    for (s, (g_row, w_row)) in got.iter().zip(want).enumerate() {
        assert_eq!(g_row.len(), w_row.len(), "{what}: sample {s} width");
        for (r, (g, w)) in g_row.iter().zip(w_row).enumerate() {
            assert_eq!(
                g.code_sum, w.code_sum,
                "{what}: sample {s} row {r} code sum"
            );
            assert_eq!(
                g.value.to_bits(),
                w.value.to_bits(),
                "{what}: sample {s} row {r} value"
            );
        }
    }
}

/// Names of this process's live threads, as the kernel truncates them
/// (15 bytes).
fn live_thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_owned())
        .collect()
}

/// Over the wire, after one request from a probe: the reply is
/// bit-identical, `/metrics` parses with every sample finite and the
/// cluster roll-up gauges beside the front-end counters, and the
/// request's stored trace carries the coordinator fan-out with
/// per-shard spans naming nodes of the fleet. Run before any other
/// request: the front-end head-samples its first request, and stores
/// the trace before it writes the reply.
fn assert_scrape_and_trace_show_the_fleet(
    addr: std::net::SocketAddr,
    model: &Arc<TiledMatrix>,
    nodes: usize,
) {
    let mut probe = NetClient::connect(addr, "probe").expect("probe connects");
    let ins = inputs(1, model.in_dim(), 5);
    let reply = probe
        .matmul(&MatmulWire {
            model: "model-0".to_owned(),
            inputs: ins.clone(),
            deadline_ms: None,
        })
        .expect("the probe's request serves");
    let (want, _) = TileExecutor::new(TensorCoreConfig::small_demo(), 900)
        .execute(model, &ins)
        .expect("replay");
    assert_outputs_identical(&reply.outputs, &want, "the probe's request");
    let scrape = probe.get("/metrics").expect("metrics answers");
    assert_eq!(scrape.status, 200, "metrics serve");
    let text = scrape.text();
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (_, value) = line.rsplit_once(' ').expect("prometheus `series value`");
        let value: f64 = value.parse().expect("numeric sample");
        assert!(value.is_finite(), "non-finite sample in {line:?}");
    }
    for series in [
        "shard_balance",
        "nodes_alive",
        "peak_samples_per_s",
        "cluster_completed",
        "node1_alive",
        "net_http_requests",
    ] {
        assert!(text.contains(series), "the cluster scrape carries {series}");
    }
    let list: serde_json::Value =
        serde_json::from_str(&probe.get("/v1/traces").expect("traces answer").text())
            .expect("trace summaries parse");
    let id = list["traces"]
        .as_array()
        .and_then(|t| t.first())
        .and_then(|t| t["id"].as_str())
        .expect("the probe's request left a trace");
    let reply = probe
        .get(&format!("/v1/traces/{id}"))
        .expect("trace answers");
    assert_eq!(reply.status, 200, "stored trace {id} is retrievable");
    let tree: serde_json::Value = serde_json::from_str(&reply.text()).expect("trace tree parses");
    let spans = tree["spans"].as_array().expect("spans array");
    assert!(
        spans
            .iter()
            .any(|s| s["stage"].as_str() == Some("coordinator")),
        "the trace carries a coordinator span: {tree:?}"
    );
    let shard_nodes: Vec<f64> = spans
        .iter()
        .filter(|s| s["stage"].as_str() == Some("shard"))
        .map(|s| s["node"].as_f64().expect("shard spans carry node ids"))
        .collect();
    assert!(
        !shard_nodes.is_empty(),
        "the trace carries shard spans: {tree:?}"
    );
    assert!(
        shard_nodes.iter().all(|&n| n < nodes as f64),
        "shard node ids name the {nodes}-node fleet: {shard_nodes:?}"
    );
}

#[test]
fn networked_cluster_is_bit_identical_and_drains_without_loss() {
    const CLIENTS: usize = 6;
    let coordinator = cluster(3);
    // On 4×4 tiles a 12×10 matrix plans three row shards and an 8×8
    // one two, so every request fans in more than one shard call.
    let models = [matrix(12, 10, 7), matrix(8, 8, 21)];
    for m in &models {
        coordinator.register(m, 0.5);
    }
    let registry: HashMap<String, Arc<TiledMatrix>> = models
        .iter()
        .enumerate()
        .map(|(i, m)| (format!("model-{i}"), Arc::clone(m)))
        .collect();
    let server =
        NetServer::start(NetConfig::default(), coordinator, registry).expect("binds loopback");
    let addr = server.local_addr();
    assert_scrape_and_trace_show_the_fleet(addr, &models[0], 3);
    // The probe's request is one the coordinator accepted and answered.
    let oks = AtomicU64::new(1);
    let severed = AtomicU64::new(0);
    let drained = std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (oks, severed, models) = (&oks, &severed, &models);
            scope.spawn(move || {
                let mut client =
                    NetClient::connect(addr, &format!("client-{c}")).expect("connects");
                let mut solo = TileExecutor::new(TensorCoreConfig::small_demo(), 900);
                // Until the drain closes the connection.
                for i in 0usize.. {
                    let which = (c + i) % models.len();
                    let ins = inputs(1 + i % 2, models[which].in_dim(), (c * 7919 + i) as u64);
                    match client.matmul(&MatmulWire {
                        model: format!("model-{which}"),
                        inputs: ins.clone(),
                        deadline_ms: None,
                    }) {
                        Ok(reply) => {
                            let (want, _) = solo.execute(&models[which], &ins).expect("replay");
                            assert_outputs_identical(
                                &reply.outputs,
                                &want,
                                &format!("client {c} request {i}"),
                            );
                            oks.fetch_add(1, Ordering::Relaxed);
                        }
                        // The drain closed the connection before this
                        // request was read: never accepted, not lost.
                        Err(NetError::Transport(_)) => {
                            severed.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                        Err(other) => panic!("client {c} request {i}: {other}"),
                    }
                }
            });
        }
        let serving = Instant::now();
        while oks.load(Ordering::Relaxed) < 50 {
            assert!(
                serving.elapsed() < Duration::from_secs(60),
                "the fleet served nothing"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let names = live_thread_names();
        assert!(
            names.iter().any(|n| n.starts_with("pic-net-reactor")),
            "the thread listing sees the reactors: {names:?}"
        );
        let offload: Vec<&String> = names
            .iter()
            .filter(|n| n.starts_with("pic-net-offload"))
            .collect();
        assert!(
            offload.is_empty(),
            "cluster requests complete through the reactor's waker, on no offload thread: \
             {offload:?}"
        );
        // Shut down mid-burst, from outside the client fleet.
        server.shutdown()
    });
    let ok = oks.load(Ordering::Relaxed);
    assert_eq!(
        severed.load(Ordering::Relaxed),
        CLIENTS as u64,
        "the drain ended every client"
    );
    let counters = drained.counters();
    assert_eq!(
        counters.submitted, counters.completed,
        "the drain flushed every accepted request"
    );
    assert_eq!(
        counters.completed, ok,
        "every request the coordinator accepted came back as a 200"
    );
    assert_eq!(counters.rejected, 0);
}

/// Records every wake, in order, and lets the test wait for the next.
#[derive(Default)]
struct RecordingWaker {
    woken: Mutex<Vec<u64>>,
    signal: Condvar,
}

impl CompletionWaker for RecordingWaker {
    fn wake(&self, token: u64) {
        self.woken.lock().expect("wake log").push(token);
        self.signal.notify_all();
    }
}

impl RecordingWaker {
    /// Blocks until more than `seen` wakes are logged; returns the new
    /// ones.
    fn wait_past(&self, seen: usize) -> Vec<u64> {
        let log = self.woken.lock().expect("wake log");
        let (log, wait) = self
            .signal
            .wait_timeout_while(log, Duration::from_secs(60), |log| log.len() <= seen)
            .expect("wake log");
        assert!(!wait.timed_out(), "no wake in 60 s: a request is stranded");
        log[seen..].to_vec()
    }
}

/// Kills the only replica of a single-shard matrix under a backlog of
/// requests driven through `ServeBackend::submit`/`poll`: the victim's
/// only worker is wedged while the backlog queues behind it, so the
/// kill strands shard calls by construction, and each must re-arm its
/// waker and retry exactly once.
#[test]
fn node_kill_under_submit_and_poll_retries_through_the_rearmed_waker() {
    const REQUESTS: usize = 64;
    let mut coordinator = cluster(3);
    // One 4×4 tile: one shard with one replica, so each stranded
    // request retries exactly one shard call.
    let m = matrix(4, 4, 21);
    coordinator.register(&m, 0.0);
    let victim = coordinator.placement(m.id())[0][0];
    let wedged = support::WedgedWorker::hold(coordinator.node(victim), holder());
    let waker = Arc::new(RecordingWaker::default());
    let mut pending: Vec<Option<ClusterPending>> = (0..REQUESTS)
        .map(|t| {
            let request = MatmulRequest::new(Arc::clone(&m), inputs(1, 4, t as u64));
            let waker = Arc::clone(&waker) as Arc<dyn CompletionWaker>;
            match ServeBackend::submit(&coordinator, request, t as u64, waker) {
                Submitted::Pending(flight) => Some(flight),
                Submitted::Ready(result) => panic!("request {t} settled at submit: {result:?}"),
            }
        })
        .collect();
    coordinator.node(victim).kill();
    drop(wedged);

    let mut solo = TileExecutor::new(TensorCoreConfig::small_demo(), 900);
    let mut arms = vec![1usize; REQUESTS];
    let (mut seen, mut open) = (0, REQUESTS);
    while open > 0 {
        for token in waker.wait_past(seen) {
            seen += 1;
            let t = token as usize;
            let flight = pending[t]
                .take()
                .unwrap_or_else(|| panic!("token {t} woke while not armed"));
            match ServeBackend::poll(&coordinator, flight) {
                Submitted::Pending(flight) => {
                    arms[t] += 1;
                    pending[t] = Some(flight);
                }
                Submitted::Ready(result) => {
                    let outcome = result.unwrap_or_else(|e| panic!("request {t} failed: {e}"));
                    let (want, _) = solo.execute(&m, &inputs(1, 4, t as u64)).expect("replay");
                    assert_outputs_identical(&outcome.outputs, &want, &format!("request {t}"));
                    open -= 1;
                }
            }
        }
    }
    // Joins every node thread, so no wake is still on its way.
    coordinator.shutdown();
    let woken = waker.woken.lock().expect("wake log").clone();
    for (t, &armed) in arms.iter().enumerate() {
        assert!(armed <= 2, "request {t} re-armed {} times", armed - 1);
        let wakes = woken.iter().filter(|&&w| w == t as u64).count();
        assert_eq!(wakes, armed, "token {t} wakes exactly once per arm");
    }
    let re_arms = arms.iter().map(|a| a - 1).sum::<usize>();
    assert!(re_arms >= 1, "the kill must strand at least one shard call");
    let counters = coordinator.counters();
    assert_eq!(counters.retried_shards as usize, re_arms);
    assert_eq!(counters.node_losses, u64::from(re_arms > 0));
    assert_eq!(
        (counters.submitted, counters.completed),
        (REQUESTS as u64, REQUESTS as u64)
    );
}

/// The seeded twelve-model Zipf stream through `nodes` paper nodes,
/// one request at a time, so batch formation and replica choice do not
/// depend on how fast the host drains concurrent work. Checks that
/// every request completes or is rejected as pre-expired and that
/// every reply is bit-identical to a solo executor. Returns the
/// modeled device-limited throughput: completed requests over the
/// busiest node's device-seconds per device.
fn modeled_throughput(
    nodes: usize,
    models: &[Arc<TiledMatrix>],
    stream: &[support::StreamItem],
) -> f64 {
    // The serving configuration: paper nodes with a 10 ms reordering
    // bound (with one request in flight there is nothing to reorder).
    let mut node = RuntimeConfig::paper();
    node.max_delay = Duration::from_millis(10);
    let mut coordinator = Coordinator::start(ClusterConfig { nodes, node });
    for (m, share) in models.iter().zip(support::zipf_shares()) {
        coordinator.register(m, share);
    }
    let mut solo = TileExecutor::new(node.core, 900);
    let mut completed = 0u64;
    for (i, (which, ins, expired)) in stream.iter().enumerate() {
        let mut request = MatmulRequest::new(Arc::clone(&models[*which]), ins.clone());
        if *expired {
            request = request.with_deadline(Instant::now() - Duration::from_millis(1));
        }
        match coordinator.submit_blocking(request) {
            Ok(resp) => {
                assert!(!expired, "request {i} was served past its deadline");
                let (want, _) = solo.execute(&models[*which], ins).expect("replay");
                assert_outputs_identical(
                    &resp.outputs,
                    &want,
                    &format!("request {i} on {nodes} nodes"),
                );
                completed += 1;
            }
            Err(ClusterError::Rejected(RuntimeError::DeadlineExpired)) if *expired => {}
            Err(e) => panic!("request {i} on {nodes} nodes: {e}"),
        }
    }
    let makespan = (0..nodes)
        .map(|n| coordinator.node(n).metrics().device_time_s.get() / node.devices as f64)
        .fold(0.0, f64::max);
    coordinator.shutdown();
    completed as f64 / makespan
}

#[test]
fn modeled_throughput_scales_from_one_to_two_nodes_on_the_zipf_stream() {
    let (models, stream) = support::workload(TensorCoreConfig::paper(), 400);
    let [one, two, four] = [1, 2, 4].map(|nodes| modeled_throughput(nodes, &models, &stream));
    assert!(
        two >= 1.7 * one,
        "1 → 2 nodes scaled modeled throughput {:.2}x, under 1.7x (1 → 4: {:.2}x)",
        two / one,
        four / one
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance-criteria property: a 1-, 2- or 4-node cluster's
    /// outputs equal the single-`Runtime` outputs bit-for-bit on
    /// arbitrary matrix shapes and inputs.
    #[test]
    fn cluster_reduce_is_bit_identical_to_single_node(
        out in 1usize..14,
        inp in 1usize..14,
        samples in 1usize..4,
        seed in 0u64..1000,
        nodes_log2 in 0u32..3,
    ) {
        let coordinator = cluster(1 << nodes_log2);
        let m = matrix(out, inp, seed);
        coordinator.register(&m, (seed % 10) as f64 / 10.0);
        let solo = single_node();
        let ins = inputs(samples, inp, seed);
        let clustered = coordinator
            .submit_blocking(MatmulRequest::new(Arc::clone(&m), ins.clone()))
            .expect("cluster serves");
        let solo_resp = solo
            .submit(MatmulRequest::new(Arc::clone(&m), ins))
            .and_then(pic_runtime::ResponseHandle::wait)
            .expect("single node serves");
        for (c_row, s_row) in clustered.outputs.iter().zip(&solo_resp.outputs) {
            for (c, s) in c_row.iter().zip(s_row) {
                prop_assert_eq!(c.code_sum, s.code_sum);
                prop_assert_eq!(c.value.to_bits(), s.value.to_bits());
            }
        }
    }

    /// Bit-identity survives one induced node failure with retry.
    #[test]
    fn bit_identity_survives_a_node_loss(
        out in 4usize..12,
        seed in 0u64..200,
    ) {
        let coordinator = cluster(4);
        let m = matrix(out, 8, seed);
        coordinator.register(&m, 0.2);
        let handles: Vec<_> = (0..8)
            .map(|i| coordinator
                .submit(MatmulRequest::new(Arc::clone(&m), inputs(1, 8, i)))
                .expect("accepted"))
            .collect();
        let victim = coordinator.placement(m.id())[0][0];
        coordinator.node(victim).kill();
        let solo = single_node();
        for (i, h) in handles.into_iter().enumerate() {
            let resp = h.wait().expect("requests survive the loss");
            prop_assert!(resp.retried <= resp.shards, "at most one retry per shard");
            let solo_resp = solo
                .submit(MatmulRequest::new(Arc::clone(&m), inputs(1, 8, i as u64)))
                .and_then(pic_runtime::ResponseHandle::wait)
                .expect("single node serves");
            for (c, s) in resp.outputs[0].iter().zip(&solo_resp.outputs[0]) {
                prop_assert_eq!(c.value.to_bits(), s.value.to_bits());
            }
        }
        // The kill may land after every in-flight call already
        // completed; a fresh request deterministically discovers the
        // dead node (submit-time failover) if the waits didn't.
        let resp = coordinator
            .submit_blocking(MatmulRequest::new(Arc::clone(&m), inputs(1, 8, 777)))
            .expect("survivors serve after the loss");
        prop_assert_eq!(resp.retried, 0);
        prop_assert_eq!(coordinator.counters().node_losses, 1);
        prop_assert_eq!(coordinator.alive_nodes(), 3);
    }
}
