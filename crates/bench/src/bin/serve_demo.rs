//! BENCH_runtime — admission-policy comparison on a Zipf-skewed serving
//! workload.
//!
//! Generates one synthetic request stream — matrix popularity drawn
//! from a Zipf distribution over a mixed single/multi-tile model set,
//! plus a slice of pre-expired deadlines that must come back as typed
//! rejections — and replays it through a fresh four-device runtime once
//! per admission policy (`fifo` baseline, `residency`, `edf`). The
//! driver is open-loop by default (a driver thread submits as fast as
//! intake backpressure allows while the main thread reaps responses),
//! so measured throughput is the runtime's, not the driver's;
//! `--window N` switches to a closed-loop driver with `N` requests in
//! flight and deadlines tight enough to be meaningful.
//!
//! Per policy the run verifies conservation (every request answered
//! exactly once, expired deadlines rejected with the typed error) and
//! spot-checks results bit-for-bit against a fresh single-device
//! executor; across policies it asserts bit-identical served outputs —
//! admission order must never change what a request computes. The
//! side-by-side report — residency hit rate, tile writes, throughput,
//! p50/p99 latency, energy per request — lands in `BENCH_runtime.json`.
//!
//! Flags: `--smoke` (CI-sized stream), `--requests N` (per policy),
//! `--policies a,b,c`, `--models M`, `--zipf S`, `--window N`,
//! `--max-delay-ms D`. `--check <baseline.json>` compares each
//! policy's throughput against the committed baseline (read before this
//! run overwrites it) and exits non-zero when one falls more than
//! `--tolerance` (default 0.30) below it; a baseline recorded under a
//! different workload shape is skipped with a note, never compared.
//!
//! `--trace <path>` writes an observability trace next to the bench
//! report: per policy, the per-stage latency/energy breakdown (submit →
//! queue → admission → write → compute → digitize → merge → respond)
//! plus the flight-recorder dump; each policy's run also streams
//! periodic exporter frames to `<stem>.<policy>.frames.jsonl`. Stage
//! energy is asserted to reconcile with the `energy_j` /
//! `write_energy_j` counters on every run (trace or not).
//!
//! `--serve` switches to the networked driver: the same workload is
//! replayed through the `pic-net` HTTP front-end over loopback by
//! `--clients N` (default 8) closed-loop clients (fairness budget
//! `--budget`, default 64), each on its own keep-alive connection.
//! Wire replies are spot-checked bit-for-bit against a solo executor,
//! a `GET /metrics` scrape is validated mid-burst, and the report —
//! the same `BenchReport` schema nested under per-client fairness
//! stats — lands in `BENCH_net[_smoke].json` with `--check` gating the
//! nested throughput numbers. SIGTERM/SIGINT drain the run gracefully:
//! the clients stop submitting and the front-end goes through
//! `NetServer::shutdown` (typed 503s for late arrivals, accepted work
//! completes) instead of dying mid-request.
//!
//! `--nodes N` switches to the cluster driver: the same Zipf stream is
//! replayed through a `pic-cluster` coordinator at 1, 2, … N nodes
//! (shard planning, Zipf-load replication hints, partial-sum reduce).
//! Every served output is spot-checked bit-for-bit against a solo
//! executor — sharding must not move a single bit. The headline
//! throughput is the *modeled device-limited* aggregate (completed
//! requests over the busiest node's device-seconds): this harness runs
//! a hardware simulator, so host wall-clock measures the simulator's
//! CPU, while the modeled number measures what the photonic fleet
//! would sustain — placement imbalance (the `shard_balance` gauge) is
//! exactly what keeps it below ideal `N×`. Host wall-clock throughput
//! is reported alongside. A 2-node coordinator is also put behind the
//! `pic-net` front-end and `/metrics` is asserted to carry the cluster
//! roll-up gauges. The report lands in `BENCH_cluster[_smoke].json`
//! with `--check` gating the modeled per-node-count throughput.

use pic_obs::JsonLinesSink;
use pic_runtime::{
    AdmissionPolicyKind, MatmulRequest, Response, ResponseHandle, Runtime, RuntimeConfig,
    TileExecutor, TileShape, TiledMatrix,
};
use pic_tensor::TensorCoreConfig;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ranked model shapes: hot ranks are single-tile (they fit the 16×16
/// array), with a ragged-edge single-tile model and cold multi-tile
/// models (2×2, 3×2, 3×1 grids) mixed through the tail — the shape mix
/// a shared serving fleet actually sees.
const SHAPE_MIX: &[(usize, usize)] = &[
    (16, 16),
    (16, 16),
    (16, 16),
    (16, 12),
    (32, 32),
    (16, 16),
    (40, 24),
    (16, 16),
    (48, 16),
    (16, 16),
    (16, 16),
    (32, 32),
];

/// A Zipf sampler over ranks `0..n`: rank `k` carries weight
/// `1/(k+1)^s`, sampled by inverse CDF lookup.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        assert!(n > 0 && s >= 0.0, "Zipf needs ranks and skew >= 0");
        let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u = rng.gen_range(0.0..=1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn model_set(cfg: TensorCoreConfig, models: usize, rng: &mut StdRng) -> Vec<Arc<TiledMatrix>> {
    let shape = TileShape::new(cfg.rows, cfg.cols);
    let max_code = (1u32 << cfg.weight_bits) - 1;
    (0..models)
        .map(|rank| {
            let (out, inp) = SHAPE_MIX[rank % SHAPE_MIX.len()];
            let codes: Vec<Vec<u32>> = (0..out)
                .map(|_| (0..inp).map(|_| rng.gen_range(0..=max_code)).collect())
                .collect();
            Arc::new(TiledMatrix::from_codes(&codes, cfg.weight_bits, shape))
        })
        .collect()
}

/// One pre-generated request: (model rank, input batch, pre-expired?).
type StreamItem = (usize, Vec<Vec<f64>>, bool);

fn build_stream(
    models: &[Arc<TiledMatrix>],
    requests: usize,
    zipf_s: f64,
    rng: &mut StdRng,
) -> Vec<StreamItem> {
    let zipf = Zipf::new(models.len(), zipf_s);
    (0..requests)
        .map(|i| {
            let which = zipf.sample(rng);
            let samples = rng.gen_range(1..=2);
            let inputs: Vec<Vec<f64>> = (0..samples)
                .map(|_| {
                    (0..models[which].in_dim())
                        .map(|_| rng.gen_range(0.0..=1.0))
                        .collect()
                })
                .collect();
            // Every 50th request carries an already-expired deadline: the
            // runtime must reject it with a typed error, not serve it.
            (which, inputs, i % 50 == 17)
        })
        .collect()
}

#[derive(serde::Serialize, serde::Deserialize)]
struct PolicyReport {
    policy: String,
    completed: u64,
    rejected_deadline: u64,
    /// Deadline rejections beyond the stream's pre-expired slice — a
    /// policy-induced miss. Must not regress vs the fifo baseline.
    deadline_misses: u64,
    lost: u64,
    wall_time_s: f64,
    throughput_req_per_s: f64,
    latency_mean_s: f64,
    latency_p50_s: f64,
    latency_p99_s: f64,
    energy_per_request_j: f64,
    write_energy_per_request_j: f64,
    device_time_per_request_s: f64,
    tile_writes: u64,
    tile_hits: u64,
    residency_hit_rate: f64,
    tile_writes_per_request: f64,
    batches_dispatched: u64,
    requests_batched: u64,
    admission_reorders: u64,
    spot_checks: usize,
    spot_check_mismatches: usize,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct BenchReport {
    id: String,
    title: String,
    smoke: bool,
    devices: usize,
    queue_depth: usize,
    max_batch: usize,
    max_delay_ms: u64,
    requests_per_policy: usize,
    models: usize,
    zipf_s: f64,
    open_loop: bool,
    window: usize,
    policies: Vec<PolicyReport>,
    /// `residency_hit_rate(residency) / residency_hit_rate(fifo)`.
    hit_rate_gain_residency_over_fifo: f64,
    /// `write_energy_per_request(fifo) / write_energy_per_request(residency)`.
    write_energy_cut_residency_over_fifo: f64,
    cross_policy_outputs_identical: bool,
}

/// One loopback client's ledger from a `--serve` run: the client-side
/// tallies merged with the server's fairness standing.
#[derive(serde::Serialize, serde::Deserialize)]
struct ClientReport {
    client: String,
    weight: u32,
    requests: u64,
    completed: u64,
    rejected_deadline: u64,
    /// 429 sheds this client retried through (each request still ends
    /// in exactly one terminal outcome).
    shed_retries: u64,
    /// Admissions counted by the server's fair-admission controller.
    admitted: u64,
}

/// The `--serve` report: the same `BenchReport` schema as the
/// in-process run (nested, so `--check` gates the same numbers) plus
/// per-client fairness stats from the networked closed loop and the
/// open-loop front-end headline. Pre-reactor baselines lack the
/// open-loop fields and fail `--check` parsing loudly — they measured
/// a different front-end and must be regenerated, not silently
/// compared.
#[derive(serde::Serialize, serde::Deserialize)]
struct NetBenchReport {
    id: String,
    title: String,
    smoke: bool,
    clients: usize,
    fairness_budget: usize,
    /// Open-loop phase sizing: pipelining connections × requests each.
    open_conns: usize,
    open_per_conn: usize,
    /// Front-end request-response cycles per second with every request
    /// already on the wire (no client think time): parse + route +
    /// admission + serialise, counting typed `429` sheds as served
    /// cycles — the compute-completed rate is the closed-loop number.
    open_loop_rps: f64,
    /// Open-loop cycles that completed a matmul (`200`).
    open_loop_ok: u64,
    /// Open-loop cycles shed by fair admission (`429`).
    open_loop_shed: u64,
    /// Most simultaneously-open connections the server ever saw.
    peak_conns: u64,
    client_stats: Vec<ClientReport>,
    bench: BenchReport,
}

/// One stage row of the `--trace` report: latency distribution plus the
/// modeled energy attributed to this stage.
#[derive(serde::Serialize, serde::Deserialize)]
struct StageTrace {
    stage: String,
    count: u64,
    mean_s: f64,
    p50_s: f64,
    p99_s: f64,
    p999_s: f64,
    max_s: f64,
    energy_j: f64,
}

/// One flight-recorder event, with the kind rendered as its label.
#[derive(serde::Serialize, serde::Deserialize)]
struct EventTrace {
    seq: u64,
    t_ns: u64,
    kind: String,
    a: u64,
    b: u64,
}

/// Per-policy observability trace: the stage breakdown, the energy
/// reconciliation inputs, and the flight-recorder dump.
#[derive(serde::Serialize, serde::Deserialize)]
struct PolicyTrace {
    policy: String,
    stages: Vec<StageTrace>,
    stage_energy_total_j: f64,
    energy_j: f64,
    write_energy_j: f64,
    events: Vec<EventTrace>,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct TraceReport {
    id: String,
    title: String,
    /// `false` under the `obs-off` feature — stages and events are then
    /// structurally present but empty.
    obs_enabled: bool,
    policies: Vec<PolicyTrace>,
}

/// The `--serve --trace` report: the flight-recorder window of the
/// run (batching, stall, and overload events) beside the slowest
/// request trace the front-end kept — head-sampled, or over the
/// slow-request threshold.
#[derive(serde::Serialize, serde::Deserialize)]
struct NetTraceReport {
    id: String,
    title: String,
    obs_enabled: bool,
    slow_threshold_ms: f64,
    window: Vec<EventTrace>,
    /// Request-scoped traces stored by the front-end's sampler over
    /// the closed-loop phase.
    sampled_traces: u64,
    /// The slowest sampled trace's full span tree, verbatim from
    /// `GET /v1/traces/<id>`.
    slowest_trace: Option<serde_json::Value>,
}

/// Renders a stored trace's span tree (as fetched from
/// `GET /v1/traces/<id>`), children indented under their parents.
fn print_span_tree(tree: &serde_json::Value) {
    fn walk(spans: &[serde_json::Value], parent: Option<f64>, depth: usize) {
        for span in spans {
            if span["parent"].as_f64() != parent {
                continue;
            }
            let mut extras = String::new();
            if let Some(d) = span["queue_depth"].as_f64() {
                extras.push_str(&format!(" queue={}", d as u64));
            }
            if let Some(n) = span["node"].as_f64() {
                extras.push_str(&format!(" node={}", n as u64));
            }
            if let Some(note) = span["note"].as_str() {
                extras.push_str(&format!(" — {note}"));
            }
            println!(
                "  {:indent$}{:<12} {:>9.3} ms (self {:>8.3} ms){extras}",
                "",
                span["stage"].as_str().unwrap_or("?"),
                span["wall_ns"].as_f64().unwrap_or(0.0) / 1e6,
                span["self_ns"].as_f64().unwrap_or(0.0) / 1e6,
                indent = 4 + 2 * depth,
            );
            if let Some(i) = span["i"].as_f64() {
                walk(spans, Some(i), depth + 1);
            }
        }
    }
    if let Some(spans) = tree["spans"].as_array() {
        walk(spans, None, 0);
    }
}

struct RunOutcome {
    report: PolicyReport,
    trace: PolicyTrace,
    served: Vec<Option<Response>>,
}

fn run_policy(
    config: RuntimeConfig,
    models: &[Arc<TiledMatrix>],
    stream: &[StreamItem],
    window: usize,
    deadline_horizon: Duration,
    frames_path: Option<&Path>,
) -> RunOutcome {
    let mut rt = Runtime::start(config);
    if let Some(path) = frames_path {
        let sink = JsonLinesSink::create(path)
            .unwrap_or_else(|e| panic!("--trace frames {}: {e}", path.display()));
        rt.spawn_exporter(Duration::from_millis(25), Arc::new(sink));
    }
    let requests = stream.len();
    let mut completed_ok = 0u64;
    let mut typed_deadline = 0u64;
    let mut lost = 0u64;
    let mut served: Vec<Option<Response>> = (0..requests).map(|_| None).collect();

    // Pre-expired requests reject synchronously at submit now (the DOA
    // gate), so the driver hands the reaper a Result: an Err is the
    // request's final answer, an Ok still has a response in flight.
    let submit = |i: usize, rt: &Runtime| -> Result<ResponseHandle, pic_runtime::RuntimeError> {
        let (which, inputs, expired) = &stream[i];
        let req = MatmulRequest::new(Arc::clone(&models[*which]), inputs.clone());
        let req = if *expired {
            req.with_deadline(Instant::now() - Duration::from_millis(1))
        } else {
            req.with_deadline(Instant::now() + deadline_horizon)
        };
        rt.submit_blocking(req)
    };
    let mut reap = |i: usize,
                    submitted: Result<ResponseHandle, pic_runtime::RuntimeError>,
                    served: &mut Vec<Option<Response>>| {
        let expired = stream[i].2;
        match submitted.and_then(ResponseHandle::wait) {
            Ok(resp) => {
                assert!(!expired, "pre-expired request must not be served");
                completed_ok += 1;
                served[i] = Some(resp);
            }
            Err(pic_runtime::RuntimeError::DeadlineExpired) => {
                typed_deadline += 1;
            }
            Err(other) => {
                println!("  [lost] {other}");
                lost += 1;
            }
        }
    };

    let started = Instant::now();
    if window == 0 {
        // Open loop: the driver thread submits flat out (throttled only
        // by intake backpressure); the main thread reaps in submission
        // order. Throughput is whatever the runtime sustains, not what
        // the driver paces.
        std::thread::scope(|scope| {
            type Submitted = Result<ResponseHandle, pic_runtime::RuntimeError>;
            let (htx, hrx) = std::sync::mpsc::sync_channel::<(usize, Submitted)>(requests);
            let rt = &rt;
            scope.spawn(move || {
                for i in 0..requests {
                    let h = submit(i, rt);
                    htx.send((i, h)).expect("reaper outlives the driver");
                }
            });
            for (i, h) in hrx {
                reap(i, h, &mut served);
            }
        });
    } else {
        // Closed loop: a bounded in-flight window, so latency measures
        // service + bounded queueing rather than backlog drain.
        type Submitted = Result<ResponseHandle, pic_runtime::RuntimeError>;
        let mut inflight: std::collections::VecDeque<(usize, Submitted)> =
            std::collections::VecDeque::new();
        for i in 0..requests {
            inflight.push_back((i, submit(i, &rt)));
            if inflight.len() >= window {
                let (j, h) = inflight.pop_front().expect("non-empty window");
                reap(j, h, &mut served);
            }
        }
        for (j, h) in inflight {
            reap(j, h, &mut served);
        }
    }
    let wall = started.elapsed().as_secs_f64();

    // Conservation: every request answered exactly once (handles are
    // single-shot channels, so duplicates are structurally impossible;
    // loss would show up here). Deadline rejections beyond the
    // pre-expired slice are policy-induced misses — tracked, not lost.
    let expired_count = stream.iter().filter(|(_, _, e)| *e).count() as u64;
    assert_eq!(lost, 0, "no request may go unanswered");
    assert!(
        typed_deadline >= expired_count,
        "every pre-expired deadline rejects"
    );
    assert_eq!(
        completed_ok + typed_deadline,
        requests as u64,
        "every request completes or rejects, never vanishes"
    );

    // Spot-check served results bit-for-bit against a fresh single
    // executor replaying the same (matrix, inputs).
    let mut solo = TileExecutor::new(config.core, 900);
    let mut checked = 0usize;
    let mut mismatches = 0usize;
    let stride = (requests / 32).max(1);
    for (i, ((which, inputs, _), resp)) in stream.iter().zip(&served).enumerate() {
        if i % stride != 0 {
            continue;
        }
        let Some(resp) = resp else { continue };
        let (want, _) = solo
            .execute(&models[*which], inputs)
            .expect("replay is valid");
        checked += 1;
        if resp.outputs != want {
            mismatches += 1;
            println!("  [mismatch] request {i} differs from solo replay");
        }
    }
    assert!(checked > 0, "spot checks must sample something");
    assert_eq!(mismatches, 0, "served results must match solo execution");

    // Join every runtime thread before reading stage histograms: a
    // worker records its Respond span just after the last response
    // lands, so reading earlier would race the final timer drop.
    rt.shutdown();
    let metrics = rt.metrics();
    let s = metrics.snapshot();
    if pic_obs::enabled() {
        // The stage-attributed energy must recompose the counters it
        // was split from: Write is the write total exactly; Write +
        // Compute + Digitize recompose `energy_j`. Tolerances cover
        // f64 accumulation-order differences only.
        let staged = metrics.stage_energy_total_j();
        assert!(
            (staged - s.energy_j).abs() <= 1e-6 * s.energy_j.max(1e-30),
            "stage energy sum {staged} J must reconcile with energy_j {} J",
            s.energy_j
        );
        let write = metrics.stage_write_energy_j();
        assert!(
            (write - s.write_energy_j).abs() <= 1e-6 * s.write_energy_j.max(1e-30),
            "write-stage energy {write} J must reconcile with write_energy_j {} J",
            s.write_energy_j
        );
    }
    let trace = PolicyTrace {
        policy: config.policy.label().to_owned(),
        stages: metrics
            .stages
            .snapshot()
            .into_iter()
            .map(|st| StageTrace {
                stage: st.stage.label().to_owned(),
                count: st.hist.count(),
                mean_s: st.hist.mean_s(),
                p50_s: st.hist.quantile_s(0.50),
                p99_s: st.hist.quantile_s(0.99),
                p999_s: st.hist.quantile_s(0.999),
                max_s: st.hist.max_s(),
                energy_j: st.energy_j,
            })
            .collect(),
        stage_energy_total_j: metrics.stage_energy_total_j(),
        energy_j: s.energy_j,
        write_energy_j: s.write_energy_j,
        events: metrics
            .recorder
            .dump()
            .into_iter()
            .map(|e| EventTrace {
                seq: e.seq,
                t_ns: e.t_ns,
                kind: e.kind.label().to_owned(),
                a: e.a,
                b: e.b,
            })
            .collect(),
    };
    let report = policy_report(
        config.policy.label(),
        &s,
        wall,
        typed_deadline,
        expired_count,
        lost,
        checked,
        mismatches,
    );
    RunOutcome {
        report,
        trace,
        served,
    }
}

/// Renders one runtime's post-run snapshot into the side-by-side
/// report row — shared between the in-process drivers and the
/// networked (`--serve`) driver so both emit the same schema.
#[allow(clippy::too_many_arguments)]
fn policy_report(
    policy: &str,
    s: &pic_runtime::MetricsSnapshot,
    wall: f64,
    typed_deadline: u64,
    expired_count: u64,
    lost: u64,
    spot_checks: usize,
    spot_check_mismatches: usize,
) -> PolicyReport {
    PolicyReport {
        policy: policy.to_owned(),
        completed: s.completed,
        rejected_deadline: s.rejected_deadline,
        deadline_misses: typed_deadline - expired_count,
        lost,
        wall_time_s: wall,
        throughput_req_per_s: s.completed as f64 / wall,
        latency_mean_s: s.latency_mean_s,
        latency_p50_s: s.latency_p50_s,
        latency_p99_s: s.latency_p99_s,
        energy_per_request_j: s.energy_j / s.completed.max(1) as f64,
        write_energy_per_request_j: s.write_energy_j / s.completed.max(1) as f64,
        device_time_per_request_s: s.device_time_s / s.completed.max(1) as f64,
        tile_writes: s.tile_writes,
        tile_hits: s.tile_hits,
        residency_hit_rate: s.tile_hit_rate.unwrap_or(0.0),
        tile_writes_per_request: s.tile_writes as f64 / s.completed.max(1) as f64,
        batches_dispatched: s.batches_dispatched,
        requests_batched: s.requests_batched,
        admission_reorders: s.admission_reorders,
        spot_checks,
        spot_check_mismatches,
    }
}

fn arg_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T>
where
    T::Err: std::fmt::Debug,
{
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().unwrap_or_else(|e| panic!("{flag}: {e:?}")))
}

/// Whether a baseline report measured the same workload shape as this
/// run — only then are its throughput numbers comparable.
fn same_workload(base: &BenchReport, now: &BenchReport) -> bool {
    base.requests_per_policy == now.requests_per_policy
        && base.models == now.models
        && (base.zipf_s - now.zipf_s).abs() < f64::EPSILON
        && base.open_loop == now.open_loop
        && base.window == now.window
}

/// Per-policy throughputs that fell more than `tolerance` below the
/// baseline, one line each. Policies absent from either report are
/// skipped — a policy not rerun is an ordering difference, not a
/// regression.
fn regressions(base: &BenchReport, now: &BenchReport, tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for b in &base.policies {
        let Some(n) = now.policies.iter().find(|p| p.policy == b.policy) else {
            continue;
        };
        if n.throughput_req_per_s < b.throughput_req_per_s * (1.0 - tolerance) {
            failures.push(format!(
                "{}: {:.0} req/s is {:.0}% below the {:.0} req/s baseline (tolerance {:.0}%)",
                b.policy,
                n.throughput_req_per_s,
                (1.0 - n.throughput_req_per_s / b.throughput_req_per_s) * 100.0,
                b.throughput_req_per_s,
                tolerance * 100.0,
            ));
        }
    }
    failures
}

/// Graceful-shutdown latch for the `--serve` driver: SIGTERM/SIGINT
/// set a flag the client loops poll, so the run stops submitting and
/// the front-end drains through `NetServer::shutdown` (accepted work
/// completes, late arrivals get typed 503s) instead of dying
/// mid-request. Std-only: the handler registers straight through
/// libc's `signal(2)`, which the Rust runtime already links.
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    /// Async-signal-safe by construction: one relaxed-free atomic store.
    extern "C" fn latch(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    /// Routes SIGTERM and SIGINT to the latch. No-op off Unix.
    pub fn install() {
        #[cfg(unix)]
        {
            extern "C" {
                fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
            }
            // SIGINT = 2, SIGTERM = 15 on every Unix this builds for.
            unsafe {
                signal(2, latch);
                signal(15, latch);
            }
        }
    }

    /// Whether a shutdown signal has arrived.
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

/// One node-count run of the `--nodes` cluster driver.
#[derive(serde::Serialize, serde::Deserialize)]
struct ClusterRunReport {
    nodes: usize,
    completed: u64,
    rejected_deadline: u64,
    /// Shard calls retried after a node loss (0 in a healthy run).
    retried_shards: u64,
    node_losses: u64,
    wall_time_s: f64,
    /// Host wall-clock request rate — measures the simulator's CPU,
    /// not the modeled hardware; reported for context only.
    host_req_per_s: f64,
    /// Busiest node's modeled device-seconds ÷ its device count: the
    /// fleet's makespan if every node ran its devices in parallel.
    modeled_makespan_s: f64,
    /// `completed / modeled_makespan_s` — the device-limited aggregate
    /// request rate of the modeled fleet. This is the scaling headline.
    throughput_req_per_s: f64,
    /// Mean worker busy fraction over alive nodes (cluster frame).
    utilization: f64,
    /// Max/mean planned shard load over alive nodes (1.0 = perfect).
    shard_balance: f64,
    /// Max/mean *realized* modeled device time over nodes.
    device_balance: f64,
    peak_samples_per_s: f64,
    achieved_samples_per_s: f64,
    spot_checks: usize,
    spot_check_mismatches: usize,
}

/// The `--nodes` report: per-node-count rows plus the scaling ratios
/// the acceptance gate reads.
#[derive(serde::Serialize, serde::Deserialize)]
struct ClusterBenchReport {
    id: String,
    title: String,
    smoke: bool,
    requests: usize,
    models: usize,
    zipf_s: f64,
    node_counts: Vec<usize>,
    devices_per_node: usize,
    max_delay_ms: u64,
    runs: Vec<ClusterRunReport>,
    /// Modeled aggregate throughput ratio going 1 → 2 nodes.
    scaling_1_to_2: f64,
    /// Modeled aggregate throughput ratio going 1 → max nodes.
    scaling_1_to_max: f64,
    /// The 2-node `/metrics` scrape carried the cluster roll-up.
    metrics_scrape_ok: bool,
}

/// Whether a cluster baseline measured the same workload shape.
fn same_cluster_workload(base: &ClusterBenchReport, now: &ClusterBenchReport) -> bool {
    base.requests == now.requests
        && base.models == now.models
        && (base.zipf_s - now.zipf_s).abs() < f64::EPSILON
        && base.node_counts == now.node_counts
        && base.devices_per_node == now.devices_per_node
}

/// Replays `stream` through a fresh `nodes`-node coordinator and
/// measures it. Open-loop like `run_policy`: a driver thread submits
/// flat out (intake backpressure on any node throttles the driver, not
/// into a loss) while the main thread reaps in submission order. Every
/// served output is spot-checked bit-for-bit against a solo executor.
#[allow(clippy::too_many_lines)]
fn run_cluster(
    nodes: usize,
    node_config: RuntimeConfig,
    models: &[Arc<TiledMatrix>],
    loads: &[f64],
    stream: &[StreamItem],
) -> ClusterRunReport {
    use pic_cluster::{ClusterConfig, ClusterError, ClusterHandle, ClusterResponse, Coordinator};
    use pic_runtime::RuntimeError;

    let mut coordinator = Coordinator::start(ClusterConfig {
        nodes,
        node: node_config,
    });
    // The planner sees each model's Zipf traffic share up front, so the
    // head of the popularity distribution replicates across nodes.
    for (m, &load) in models.iter().zip(loads) {
        coordinator.register(m, load);
    }

    let requests = stream.len();
    let mut served: Vec<Option<ClusterResponse>> = (0..requests).map(|_| None).collect();
    let mut completed = 0u64;
    let mut typed_deadline = 0u64;
    let mut retried = 0u64;
    let started = Instant::now();
    std::thread::scope(|scope| {
        type Submitted<'a> = Result<ClusterHandle<'a>, ClusterError>;
        let (htx, hrx) = std::sync::mpsc::sync_channel::<(usize, Submitted<'_>)>(requests);
        let coordinator = &coordinator;
        scope.spawn(move || {
            for (i, (which, inputs, expired)) in stream.iter().enumerate() {
                loop {
                    let req = MatmulRequest::new(Arc::clone(&models[*which]), inputs.clone());
                    let req = if *expired {
                        req.with_deadline(Instant::now() - Duration::from_millis(1))
                    } else {
                        req.with_deadline(Instant::now() + Duration::from_secs(600))
                    };
                    match coordinator.submit(req) {
                        Err(ClusterError::Rejected(RuntimeError::QueueFull)) => {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        other => {
                            htx.send((i, other)).expect("reaper outlives the driver");
                            break;
                        }
                    }
                }
            }
        });
        for (i, submitted) in hrx {
            match submitted.and_then(ClusterHandle::wait) {
                Ok(resp) => {
                    assert!(!stream[i].2, "pre-expired request must not be served");
                    completed += 1;
                    retried += resp.retried as u64;
                    served[i] = Some(resp);
                }
                Err(ClusterError::Rejected(RuntimeError::DeadlineExpired)) => {
                    typed_deadline += 1;
                }
                Err(other) => panic!("request {i} lost: {other}"),
            }
        }
    });
    let wall = started.elapsed().as_secs_f64();

    // Conservation: every request completes or rejects with the typed
    // deadline error, never vanishes — through sharded fan-out too.
    let expired_count = stream.iter().filter(|(_, _, e)| *e).count() as u64;
    assert!(
        typed_deadline >= expired_count,
        "every pre-expired deadline rejects"
    );
    assert_eq!(
        completed + typed_deadline,
        requests as u64,
        "every clustered request completes or rejects, never vanishes"
    );

    // Frame + per-node accounting while the fleet is still up.
    let frame = coordinator.frame();
    let gauge = |name: &str| {
        frame
            .gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |&(_, v)| v)
    };
    let devices = node_config.devices as f64;
    let device_times: Vec<f64> = (0..nodes)
        .map(|i| coordinator.node(i).metrics().snapshot().device_time_s)
        .collect();
    let makespan = device_times.iter().fold(0.0f64, |a, &t| a.max(t / devices));
    let mean_device_time = device_times.iter().sum::<f64>() / device_times.len() as f64;
    let device_balance = if mean_device_time > 0.0 {
        device_times.iter().fold(0.0f64, |a, &t| a.max(t)) / mean_device_time
    } else {
        1.0
    };
    let counters = coordinator.counters();

    // Spot-check served results bit-for-bit against a fresh solo
    // executor: the reduce layer must not move a single bit.
    let mut solo = TileExecutor::new(node_config.core, 900);
    let mut checked = 0usize;
    let mut mismatches = 0usize;
    let stride = (requests / 32).max(1);
    for (i, ((which, inputs, _), resp)) in stream.iter().zip(&served).enumerate() {
        if i % stride != 0 {
            continue;
        }
        let Some(resp) = resp else { continue };
        let (want, _) = solo
            .execute(&models[*which], inputs)
            .expect("replay is valid");
        checked += 1;
        if resp.outputs != want {
            mismatches += 1;
            println!("  [mismatch] request {i} differs from solo replay at {nodes} nodes");
        }
    }
    assert!(checked > 0, "spot checks must sample something");
    assert_eq!(
        mismatches, 0,
        "clustered results must match solo execution bit-for-bit"
    );

    coordinator.shutdown();
    ClusterRunReport {
        nodes,
        completed,
        rejected_deadline: typed_deadline,
        retried_shards: retried,
        node_losses: counters.node_losses,
        wall_time_s: wall,
        host_req_per_s: completed as f64 / wall,
        modeled_makespan_s: makespan,
        throughput_req_per_s: completed as f64 / makespan.max(f64::MIN_POSITIVE),
        utilization: gauge("utilization"),
        shard_balance: gauge("shard_balance"),
        device_balance,
        peak_samples_per_s: gauge("peak_samples_per_s"),
        achieved_samples_per_s: gauge("achieved_samples_per_s"),
        spot_checks: checked,
        spot_check_mismatches: mismatches,
    }
}

/// Puts a 2-node coordinator behind the real `pic-net` front-end,
/// serves a few requests over loopback, and asserts the `/metrics`
/// scrape carries the cluster roll-up gauges next to the front-end
/// counters — and that a sampled request's trace tree is retrievable
/// with the coordinator fan-out plus per-shard spans naming their
/// nodes. Returns `true` (it asserts on failure) so the report
/// records that the path was exercised.
fn scrape_cluster_metrics(
    node_config: RuntimeConfig,
    models: &[Arc<TiledMatrix>],
    loads: &[f64],
) -> bool {
    use pic_cluster::{ClusterConfig, Coordinator};
    use pic_net::{MatmulWire, NetClient, NetConfig, NetServer};
    use std::collections::HashMap;

    let coordinator = Coordinator::start(ClusterConfig {
        nodes: 2,
        node: node_config,
    });
    for (m, &load) in models.iter().zip(loads) {
        coordinator.register(m, load);
    }
    let registry: HashMap<String, Arc<TiledMatrix>> = models
        .iter()
        .enumerate()
        .map(|(rank, m)| (format!("model-{rank}"), Arc::clone(m)))
        .collect();
    let server = NetServer::start(
        NetConfig {
            // Head-sample every request so the trace assertions below
            // are deterministic.
            trace_sample: 1,
            ..NetConfig::default()
        },
        coordinator,
        registry,
    )
    .expect("bind loopback");
    let mut client = NetClient::connect(server.local_addr(), "probe").expect("connect loopback");
    for _ in 0..4 {
        let wire = MatmulWire {
            model: "model-0".to_owned(),
            inputs: vec![vec![0.5; models[0].in_dim()]],
            deadline_ms: Some(600_000.0),
        };
        client.matmul(&wire).expect("cluster serves over the wire");
    }
    let scrape = client.get("/metrics").expect("metrics answers");
    assert_eq!(scrape.status, 200, "metrics must serve");
    let text = scrape.text();
    let mut samples = 0usize;
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (_, value) = line.rsplit_once(' ').expect("prometheus `series value`");
        let value: f64 = value.parse().expect("numeric sample");
        assert!(value.is_finite(), "non-finite sample in {line:?}");
        samples += 1;
    }
    for series in [
        "shard_balance",
        "nodes_alive",
        "peak_samples_per_s",
        "cluster_completed",
        "node1_alive",
        "net_http_requests",
    ] {
        assert!(
            text.contains(series),
            "cluster scrape must carry {series}: {samples} samples total"
        );
    }
    println!(
        "  [metrics] 2-node cluster scrape parseable through pic-net: {samples} samples, \
         roll-up gauges present"
    );
    // One trace tree must come back over the wire with the coordinator
    // fan-out and per-shard child spans carrying node ids — the
    // distributed-trace acceptance path.
    if pic_obs::enabled() {
        let list: serde_json::Value =
            serde_json::from_str(&client.get("/v1/traces").expect("traces answer").text())
                .expect("trace summaries parse");
        let id = list["traces"]
            .as_array()
            .and_then(|t| t.first())
            .and_then(|t| t["id"].as_str())
            .expect("a stored cluster trace")
            .to_owned();
        let tree: serde_json::Value = serde_json::from_str(
            &client
                .get(&format!("/v1/traces/{id}"))
                .expect("trace answers")
                .text(),
        )
        .expect("trace tree parses");
        let spans = tree["spans"].as_array().expect("spans array");
        assert!(
            spans
                .iter()
                .any(|s| s["stage"].as_str() == Some("coordinator")),
            "cluster trace must carry a coordinator span: {tree:?}"
        );
        let shard_nodes: Vec<u64> = spans
            .iter()
            .filter(|s| s["stage"].as_str() == Some("shard"))
            .map(|s| s["node"].as_f64().expect("shard spans carry node ids") as u64)
            .collect();
        assert!(
            !shard_nodes.is_empty(),
            "cluster trace must carry shard spans: {tree:?}"
        );
        assert!(
            shard_nodes.iter().all(|&n| n < 2),
            "shard node ids must name the 2-node fleet: {shard_nodes:?}"
        );
        println!(
            "  [trace] cluster trace {id} retrievable: coordinator + {} shard span(s) \
             with node ids",
            shard_nodes.len()
        );
    }
    let _coordinator = server.shutdown();
    true
}

/// The `--nodes N` driver: the Zipf workload replayed through a
/// `pic-cluster` coordinator at 1, 2, … N nodes, with bit-identity
/// spot checks at every node count, modeled device-limited scaling
/// ratios, and a `/metrics` scrape of the cluster roll-up. Writes
/// `BENCH_cluster[_smoke].json`; `--check` gates the modeled
/// throughput per node count against a committed baseline.
#[allow(clippy::too_many_lines)]
fn cluster_main(args: &[String]) {
    let smoke = args.iter().any(|a| a == "--smoke");
    let requests: usize = arg_value(args, "--requests").unwrap_or(if smoke { 400 } else { 4_000 });
    let models_n: usize = arg_value(args, "--models").unwrap_or(12);
    let zipf_s: f64 = arg_value(args, "--zipf").unwrap_or(1.1);
    let max_nodes: usize = arg_value(args, "--nodes").unwrap_or(4);
    assert!(max_nodes >= 1, "--nodes must be positive");
    let check: Option<String> = arg_value(args, "--check");
    let tolerance: f64 = arg_value(args, "--tolerance").unwrap_or(0.30);
    let baseline: Option<ClusterBenchReport> = check.as_ref().map(|path| {
        let json = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("--check {path}: cannot read baseline: {e}"));
        serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("--check {path}: baseline does not parse: {e:?}"))
    });

    let mut node_config = RuntimeConfig::paper();
    // Shard fan-out leaves per-node queues shallower than the
    // single-runtime drivers; the paper config's 400 ms formation
    // window would stall the tail, so default to a serving window.
    node_config.max_delay = Duration::from_millis(10);
    if let Some(ms) = arg_value::<u64>(args, "--max-delay-ms") {
        node_config.max_delay = Duration::from_millis(ms);
    }
    let mut node_counts: Vec<usize> = [1, 2, max_nodes]
        .into_iter()
        .filter(|&n| n <= max_nodes)
        .collect();
    node_counts.dedup();

    println!(
        "BENCH_cluster — {requests} requests over {models_n} Zipf(s={zipf_s}) models at \
         {node_counts:?} nodes, {} devices/node (batch ≤ {}), policy {}",
        node_config.devices,
        node_config.max_batch,
        node_config.policy.label(),
    );

    let mut rng = StdRng::seed_from_u64(42);
    let models = model_set(node_config.core, models_n, &mut rng);
    let stream = build_stream(&models, requests, zipf_s, &mut rng);
    // The planner's load hints: rank k's share of Zipf traffic.
    let weights: Vec<f64> = (0..models_n)
        .map(|k| 1.0 / ((k + 1) as f64).powf(zipf_s))
        .collect();
    let total: f64 = weights.iter().sum();
    let loads: Vec<f64> = weights.iter().map(|w| w / total).collect();

    let mut runs: Vec<ClusterRunReport> = Vec::new();
    for &nodes in &node_counts {
        let row = run_cluster(nodes, node_config, &models, &loads, &stream);
        println!(
            "  {:>2} nodes: {:>9.2e} req/s modeled ({:>6.0} req/s host wall) | \
             makespan {:>8.1} µs | balance planned {:.2}, realized {:.2} | \
             {} retried shards, {} losses",
            row.nodes,
            row.throughput_req_per_s,
            row.host_req_per_s,
            row.modeled_makespan_s * 1e6,
            row.shard_balance,
            row.device_balance,
            row.retried_shards,
            row.node_losses,
        );
        runs.push(row);
    }

    let tput = |n: usize| {
        runs.iter()
            .find(|r| r.nodes == n)
            .map(|r| r.throughput_req_per_s)
    };
    let base_tput = tput(1).expect("the 1-node run always exists");
    let scaling_1_to_2 = tput(2).map_or(f64::NAN, |t| t / base_tput);
    let scaling_1_to_max = tput(max_nodes).map_or(f64::NAN, |t| t / base_tput);
    if node_counts.contains(&2) {
        println!(
            "  aggregate modeled scaling: 1→2 nodes {scaling_1_to_2:.2}x, \
             1→{max_nodes} nodes {scaling_1_to_max:.2}x"
        );
        assert!(
            scaling_1_to_2 >= 1.7,
            "acceptance: 1→2 node aggregate throughput must scale >= 1.7x on the Zipf \
             workload, got {scaling_1_to_2:.2}x"
        );
    }
    println!("  [check] conservation and cluster bit-identity spot checks ok");

    let metrics_scrape_ok = scrape_cluster_metrics(node_config, &models, &loads);

    let report = ClusterBenchReport {
        id: "bench_cluster".to_owned(),
        title: "Multi-node sharded serving through the pic-cluster coordinator".to_owned(),
        smoke,
        requests,
        models: models_n,
        zipf_s,
        node_counts,
        devices_per_node: node_config.devices,
        max_delay_ms: u64::try_from(node_config.max_delay.as_millis()).unwrap_or(u64::MAX),
        runs,
        scaling_1_to_2,
        scaling_1_to_max,
        metrics_scrape_ok,
    };
    let file = if smoke {
        "BENCH_cluster_smoke.json"
    } else {
        "BENCH_cluster.json"
    };
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let path = root
        .parent()
        .and_then(std::path::Path::parent)
        .map(|r| r.join(file))
        .unwrap_or_else(|| PathBuf::from(file));
    let json = serde_json::to_string_pretty(&report).expect("serialise report");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {file}: {e}"));
    println!("  [written {}]", path.display());

    if let Some(baseline) = baseline {
        if !same_cluster_workload(&baseline, &report) {
            println!(
                "  [check] baseline measured a different workload shape — throughput not compared"
            );
        } else {
            let mut failures = Vec::new();
            for b in &baseline.runs {
                let Some(n) = report.runs.iter().find(|r| r.nodes == b.nodes) else {
                    continue;
                };
                let delta = n.throughput_req_per_s / b.throughput_req_per_s - 1.0;
                println!(
                    "  [check] {:>2} nodes: {:>9.2e} req/s vs baseline {:>9.2e} req/s ({:+.1}%)",
                    b.nodes,
                    n.throughput_req_per_s,
                    b.throughput_req_per_s,
                    delta * 100.0,
                );
                if n.throughput_req_per_s < b.throughput_req_per_s * (1.0 - tolerance) {
                    failures.push(format!(
                        "{} nodes: {:.2e} req/s is {:.0}% below the {:.2e} req/s baseline",
                        b.nodes,
                        n.throughput_req_per_s,
                        (1.0 - n.throughput_req_per_s / b.throughput_req_per_s) * 100.0,
                        b.throughput_req_per_s,
                    ));
                }
            }
            if failures.is_empty() {
                println!(
                    "  [check] per-node-count modeled throughput within {:.0}% of the baseline ok",
                    tolerance * 100.0
                );
            } else {
                for f in &failures {
                    println!("  [REGRESSION] {f}");
                }
                std::process::exit(1);
            }
        }
    }
}

/// The `--serve` driver: the same workload replayed through the
/// `pic-net` front-end over loopback by `--clients N` closed-loop
/// clients, with wire outputs spot-checked bit-for-bit against a solo
/// executor and a `/metrics` scrape validated mid-burst. Writes
/// `BENCH_net[_smoke].json`; `--check` gates the nested bench numbers
/// against a committed baseline of the same shape.
#[allow(clippy::too_many_lines)]
fn net_main(args: &[String]) {
    use pic_net::{
        FairnessConfig, MatmulReply, MatmulWire, NetClient, NetConfig, NetError, NetServer,
        RetryPolicy,
    };
    use std::collections::HashMap;

    let smoke = args.iter().any(|a| a == "--smoke");
    let requests: usize = arg_value(args, "--requests").unwrap_or(if smoke { 400 } else { 4_000 });
    let models_n: usize = arg_value(args, "--models").unwrap_or(12);
    let zipf_s: f64 = arg_value(args, "--zipf").unwrap_or(1.1);
    let clients_n: usize = arg_value(args, "--clients").unwrap_or(8);
    let budget: usize = arg_value(args, "--budget").unwrap_or(64);
    let reactors: usize = arg_value(args, "--reactors").unwrap_or(0);
    let open_conns: usize =
        arg_value(args, "--open-conns").unwrap_or(if smoke { 128 } else { 512 });
    let open_per_conn: usize = arg_value(args, "--open-per-conn").unwrap_or(16);
    let trace: Option<PathBuf> = arg_value::<String>(args, "--trace").map(PathBuf::from);
    // With `--trace`, every request slower than this end to end keeps
    // its trace even when not head-sampled.
    let slow_ms: f64 = arg_value(args, "--slow-ms").unwrap_or(2.0);
    let check: Option<String> = arg_value(args, "--check");
    let tolerance: f64 = arg_value(args, "--tolerance").unwrap_or(0.30);
    let baseline: Option<NetBenchReport> = check.as_ref().map(|path| {
        let json = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("--check {path}: cannot read baseline: {e}"));
        serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("--check {path}: baseline does not parse: {e:?}"))
    });
    assert!(clients_n > 0, "--clients must be positive");
    // SIGTERM/SIGINT end the run through a graceful front-end drain.
    sig::install();

    let mut config = RuntimeConfig::paper();
    // The paper config's 400 ms batch-formation delay suits an open
    // loop draining a deep backlog; a closed loop with `clients_n`
    // requests in flight would mostly measure that timer. Default to a
    // serving-appropriate window instead (still `--max-delay-ms`
    // overridable).
    config.max_delay = Duration::from_millis(10);
    if let Some(ms) = arg_value::<u64>(args, "--max-delay-ms") {
        config.max_delay = Duration::from_millis(ms);
    }
    println!(
        "BENCH_net — {requests} requests over {models_n} Zipf(s={zipf_s}) models through the \
         network front-end, {clients_n} loopback clients (fairness budget {budget}), {} devices \
         (batch ≤ {}), policy {}",
        config.devices,
        config.max_batch,
        config.policy.label(),
    );
    // The open-loop phase holds `open_conns` extra sockets plus the
    // server-side halves — all in this one process.
    let _ = pic_net::raise_nofile_limit((4 * open_conns + 512) as u64);

    let mut rng = StdRng::seed_from_u64(42);
    let models = model_set(config.core, models_n, &mut rng);
    let stream = build_stream(&models, requests, zipf_s, &mut rng);
    let registry: HashMap<String, Arc<TiledMatrix>> = models
        .iter()
        .enumerate()
        .map(|(rank, m)| (format!("model-{rank}"), Arc::clone(m)))
        .collect();

    let server = NetServer::start(
        NetConfig {
            fairness: FairnessConfig {
                budget,
                default_weight: 1,
                weights: Vec::new(),
            },
            max_connections: open_conns + clients_n + 16,
            // A 1-core host time-slices bench clients against the
            // workers, so a client can stall >25 ms between its
            // header and body writes; the default mid-request read
            // timeout would reclaim that live connection. These runs
            // measure multiplexing, not stall reclamation.
            read_timeout: Duration::from_secs(2),
            reactors,
            slow_request: trace
                .is_some()
                .then(|| Duration::from_secs_f64(slow_ms / 1e3)),
            ..NetConfig::default()
        },
        Runtime::start(config),
        registry,
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // Per-client ledgers; each client walks its round-robin slice of
    // the stream over one keep-alive connection, retrying 429 sheds
    // (with the advertised backoff scaled down for loopback) so every
    // request still reaches exactly one terminal outcome.
    struct ClientLedger {
        name: String,
        requests: u64,
        completed: u64,
        rejected_deadline: u64,
        shed_retries: u64,
        replies: Vec<(usize, MatmulReply)>,
    }
    let started = Instant::now();
    let mut ledgers: Vec<ClientLedger> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients_n)
            .map(|c| {
                let stream = &stream;
                scope.spawn(move || {
                    let name = format!("client-{c}");
                    let mut client = NetClient::connect(addr, &name).expect("connect loopback");
                    let mut ledger = ClientLedger {
                        name,
                        requests: 0,
                        completed: 0,
                        rejected_deadline: 0,
                        shed_retries: 0,
                        replies: Vec::new(),
                    };
                    for i in (c..stream.len()).step_by(clients_n) {
                        if sig::requested() {
                            break;
                        }
                        let (which, inputs, expired) = &stream[i];
                        let wire = MatmulWire {
                            model: format!("model-{which}"),
                            inputs: inputs.clone(),
                            deadline_ms: Some(if *expired { -1.0 } else { 600_000.0 }),
                        };
                        ledger.requests += 1;
                        // Sheds retry through the client's jittered
                        // exponential backoff (`Retry-After` honoured,
                        // cap scaled down for loopback); a request
                        // still shed after a full policy round loops
                        // unless a shutdown signal arrived.
                        let retry = RetryPolicy {
                            base: Duration::from_micros(200),
                            cap: Duration::from_millis(2),
                            max_retries: 64,
                        };
                        loop {
                            match client.matmul_with_retry(&wire, &retry) {
                                Ok((reply, retries)) => {
                                    assert!(!expired, "pre-expired request must not serve");
                                    ledger.shed_retries += u64::from(retries);
                                    ledger.completed += 1;
                                    ledger.replies.push((i, reply));
                                    break;
                                }
                                Err(NetError::Rejected { status: 504, .. }) => {
                                    ledger.rejected_deadline += 1;
                                    break;
                                }
                                Err(NetError::Rejected { status: 429, .. }) => {
                                    ledger.shed_retries += u64::from(retry.max_retries);
                                    if sig::requested() {
                                        break;
                                    }
                                    assert!(ledger.shed_retries < 1_000_000, "shed retry runaway");
                                }
                                Err(other) => panic!("request {i} lost: {other}"),
                            }
                        }
                    }
                    ledger
                })
            })
            .collect();
        // Scrape /metrics mid-burst from its own connection: the
        // exposition must stay parseable under live traffic.
        std::thread::sleep(Duration::from_millis(10));
        let mut probe = NetClient::connect(addr, "probe").expect("probe connects");
        let scrape = probe.get("/metrics").expect("metrics answers mid-load");
        assert_eq!(scrape.status, 200, "metrics must serve under load");
        let text = scrape.text();
        let mut samples = 0usize;
        for line in text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let (_, value) = line.rsplit_once(' ').expect("prometheus `series value`");
            let value: f64 = value.parse().expect("numeric sample");
            assert!(value.is_finite(), "non-finite sample in {line:?}");
            samples += 1;
        }
        assert!(
            samples > 10 && text.contains("pic_net_http_requests"),
            "mid-load scrape must carry the runtime + front-end frame"
        );
        println!("  [metrics] mid-load scrape parseable: {samples} samples");
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();

    // A shutdown signal ends the run through the graceful path: the
    // clients have stopped submitting, the front-end drains through
    // `NetServer::shutdown` (acceptor joined, accepted work completed,
    // runtime joined), and no partial report is written — the ledgers
    // cannot satisfy conservation for requests never submitted.
    if sig::requested() {
        println!("  [signal] SIGTERM/SIGINT received — draining the front-end");
        let _runtime = server.shutdown();
        println!("  [signal] front-end drained cleanly; no report written");
        return;
    }

    // Sampled request traces, fetched while the server is still up:
    // every stored trace's span self-times must reconcile with the
    // recorded wall latency (the tree is sequential, so self times
    // telescope to the root wall), and the slowest trace is kept for
    // the --trace report.
    let mut sampled_traces = 0u64;
    let mut slowest_trace: Option<serde_json::Value> = None;
    if pic_obs::enabled() {
        let mut probe = NetClient::connect(addr, "trace-probe").expect("trace probe connects");
        let reply = probe.get("/v1/traces").expect("GET /v1/traces");
        assert_eq!(reply.status, 200, "trace summaries respond 200");
        let list: serde_json::Value =
            serde_json::from_str(&reply.text()).expect("trace summaries parse");
        let summaries = list["traces"].as_array().expect("traces array");
        assert!(
            !summaries.is_empty(),
            "a loaded run with sampling on stores at least one trace"
        );
        sampled_traces = summaries.len() as u64;
        let mut slowest_wall = 0.0f64;
        for summary in summaries {
            let id = summary["id"].as_str().expect("trace id");
            let reply = probe
                .get(&format!("/v1/traces/{id}"))
                .expect("GET /v1/traces/<id>");
            assert_eq!(reply.status, 200, "stored trace {id} is retrievable");
            let tree: serde_json::Value =
                serde_json::from_str(&reply.text()).expect("trace tree parses");
            let wall_ns = tree["wall_ns"].as_f64().expect("trace wall_ns");
            let self_sum = tree["self_time_sum_ns"].as_f64().expect("self_time_sum_ns");
            assert!(
                (wall_ns - self_sum).abs() <= wall_ns * 0.05,
                "trace {id}: span self-times ({self_sum} ns) reconcile with wall \
                 ({wall_ns} ns) within 5%"
            );
            if wall_ns >= slowest_wall {
                slowest_wall = wall_ns;
                slowest_trace = Some(tree);
            }
        }
        println!(
            "  [trace] {sampled_traces} sampled trace(s); span self-times reconcile \
             with wall latency within 5%"
        );
    }

    // Fairness standings before shutdown consumes the server.
    let standings = server.standings();
    let rt = server.shutdown();
    let s = rt.metrics().snapshot();

    // Conservation: every request reached exactly one terminal outcome,
    // the client-side ledgers reconcile with the runtime's accounting,
    // and pre-expired deadlines came back as typed 504s.
    let completed: u64 = ledgers.iter().map(|l| l.completed).sum();
    let typed_deadline: u64 = ledgers.iter().map(|l| l.rejected_deadline).sum();
    let shed_retries: u64 = ledgers.iter().map(|l| l.shed_retries).sum();
    let expired_count = stream.iter().filter(|(_, _, e)| *e).count() as u64;
    assert_eq!(
        completed + typed_deadline,
        requests as u64,
        "every networked request completes or rejects, never vanishes"
    );
    assert!(
        typed_deadline >= expired_count,
        "pre-expired deadlines reject"
    );
    assert_eq!(
        s.completed, completed,
        "runtime accounting matches the client-observed completions"
    );

    // Spot-check wire replies bit-for-bit against a fresh solo
    // executor: network transport must not perturb a single bit.
    let mut solo = TileExecutor::new(config.core, 900);
    let mut checked = 0usize;
    let mut mismatches = 0usize;
    let stride = (requests / 32).max(1);
    for ledger in &mut ledgers {
        ledger.replies.sort_by_key(|(i, _)| *i);
        for (i, reply) in &ledger.replies {
            if i % stride != 0 {
                continue;
            }
            let (which, inputs, _) = &stream[*i];
            let (want, _) = solo.execute(&models[*which], inputs).expect("replay");
            checked += 1;
            if reply.outputs != want {
                mismatches += 1;
                println!("  [mismatch] request {i} differs over the wire");
            }
        }
    }
    assert!(checked > 0, "spot checks must sample something");
    assert_eq!(
        mismatches, 0,
        "wire results must match solo execution bit-for-bit"
    );

    let client_stats: Vec<ClientReport> = ledgers
        .iter()
        .map(|l| {
            let standing = standings.iter().find(|st| st.client == l.name);
            ClientReport {
                client: l.name.clone(),
                weight: standing.map_or(1, |st| st.weight),
                requests: l.requests,
                completed: l.completed,
                rejected_deadline: l.rejected_deadline,
                shed_retries: l.shed_retries,
                admitted: standing.map_or(0, |st| st.admitted),
            }
        })
        .collect();
    for cs in &client_stats {
        println!(
            "  {:>9}: {:>5} requests | {:>5} ok, {} deadline, {} shed retries | {} admitted",
            cs.client,
            cs.requests,
            cs.completed,
            cs.rejected_deadline,
            cs.shed_retries,
            cs.admitted,
        );
    }
    let row = policy_report(
        config.policy.label(),
        &s,
        wall,
        typed_deadline,
        expired_count,
        0,
        checked,
        mismatches,
    );
    println!(
        "  {:>9}: {:>6.0} req/s | hit rate {:>5.1}% | p50 {:>7.1} ms, p99 {:>8.1} ms | \
         {} shed retries across {} clients",
        row.policy,
        row.throughput_req_per_s,
        row.residency_hit_rate * 100.0,
        row.latency_p50_s * 1e3,
        row.latency_p99_s * 1e3,
        shed_retries,
        clients_n,
    );
    println!("  [check] conservation, wire bit-identity, and mid-load scrape ok");

    // -- open-loop phase ----------------------------------------------
    //
    // Every request goes on the wire before any reply is read: the
    // main thread opens `open_conns` keep-alive connections (all held
    // simultaneously — the peak the reactor exists to absorb), writes
    // `open_per_conn` pipelined matmuls down each, then reads the
    // replies back in order. Measured wall time covers first write to
    // last reply, so the rate is the front-end's, not a closed loop's
    // think time. The phase runs on its own server + runtime so the
    // closed-loop accounting and latency row above stay untouched.
    // Typed `429` sheds count as served cycles (the front-end did
    // everything but compute); `200`s are additionally spot-checked
    // bit-for-bit against the solo executor.
    use std::io::Write as _;
    let mut open_ok = 0u64;
    let mut open_shed = 0u64;
    let open_wall;
    let peak_conns;
    {
        let open_registry: HashMap<String, Arc<TiledMatrix>> = models
            .iter()
            .enumerate()
            .map(|(rank, m)| (format!("model-{rank}"), Arc::clone(m)))
            .collect();
        let open_server = NetServer::start(
            NetConfig {
                fairness: FairnessConfig {
                    budget,
                    default_weight: 1,
                    weights: Vec::new(),
                },
                max_connections: open_conns + 16,
                read_timeout: Duration::from_secs(2),
                reactors,
                ..NetConfig::default()
            },
            Runtime::start(config),
            open_registry,
        )
        .expect("bind open-loop loopback");
        let open_addr = open_server.local_addr();
        // Eight shared client ids, so weighted-fair admission keeps a
        // real per-client share instead of slicing the budget into
        // sub-1 slivers across hundreds of ids.
        let open_item = |c: usize, k: usize| &stream[(c * open_per_conn + k) % stream.len()];
        let open_started = Instant::now();
        let mut socks: Vec<std::net::TcpStream> = (0..open_conns)
            .map(|c| {
                let s = std::net::TcpStream::connect(open_addr)
                    .unwrap_or_else(|e| panic!("open-loop conn {c}: {e}"));
                s.set_nodelay(true).expect("nodelay");
                s.set_read_timeout(Some(Duration::from_secs(60)))
                    .expect("timeout");
                s
            })
            .collect();
        for (c, sock) in socks.iter_mut().enumerate() {
            let mut frames = Vec::new();
            for k in 0..open_per_conn {
                let (which, inputs, _) = open_item(c, k);
                let body = serde_json::to_string(&MatmulWire {
                    model: format!("model-{which}"),
                    inputs: inputs.clone(),
                    deadline_ms: Some(600_000.0),
                })
                .expect("serialise");
                write!(
                    frames,
                    "POST /v1/matmul HTTP/1.1\r\nx-client: open-{}\r\n\
                     content-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
                    c % 8,
                    body.len()
                )
                .expect("vec write");
            }
            sock.write_all(&frames)
                .unwrap_or_else(|e| panic!("open-loop conn {c} write: {e}"));
        }
        let mut open_checked = 0usize;
        for (c, sock) in socks.into_iter().enumerate() {
            let mut reader = std::io::BufReader::new(sock);
            for k in 0..open_per_conn {
                let resp = pic_net::http::read_response(&mut reader)
                    .unwrap_or_else(|e| panic!("open-loop conn {c} reply {k}: {e}"));
                match resp.status {
                    200 => {
                        open_ok += 1;
                        // Spot-check a slice: full replay of every
                        // pipelined reply would dominate the phase.
                        if (c * open_per_conn + k).is_multiple_of(64) {
                            let (which, inputs, _) = open_item(c, k);
                            let reply: MatmulReply =
                                serde_json::from_str(&resp.text()).expect("open-loop reply parses");
                            let (want, _) = solo.execute(&models[*which], inputs).expect("replay");
                            assert_eq!(
                                reply.outputs, want,
                                "open-loop reply differs from in-process execution"
                            );
                            open_checked += 1;
                        }
                    }
                    429 => open_shed += 1,
                    other => panic!("open-loop conn {c} reply {k}: unexpected status {other}"),
                }
            }
        }
        open_wall = open_started.elapsed().as_secs_f64();
        assert_eq!(
            open_ok + open_shed,
            (open_conns * open_per_conn) as u64,
            "every pipelined request got exactly one terminal reply"
        );
        assert!(open_ok > 0, "admission served some open-loop work");
        assert!(open_checked > 0, "open-loop spot checks sampled something");

        // Peak concurrency from the server's own accounting, scraped
        // over the wire like any operator would.
        peak_conns = {
            let mut probe = NetClient::connect(open_addr, "peak-probe").expect("probe connects");
            let text = probe.get("/metrics").expect("metrics answers").text();
            text.lines()
                .find_map(|l| l.strip_prefix("pic_net_conns_peak "))
                .and_then(|v| v.trim().parse::<f64>().ok())
                .expect("scrape carries pic_net_conns_peak") as u64
        };
        assert!(
            peak_conns >= open_conns as u64,
            "peak {peak_conns} must cover the {open_conns} simultaneous open-loop connections"
        );

        // The open server drains through the same graceful path, and
        // its runtime's accounting must reconcile with the wire: every
        // 200 the clients read corresponds to one completed matmul.
        let open_rt = open_server.shutdown();
        let open_s = open_rt.metrics().snapshot();
        assert_eq!(
            open_s.completed, open_ok,
            "open-loop runtime accounting matches the wire replies"
        );
    }
    let open_rps = (open_conns * open_per_conn) as f64 / open_wall;
    println!(
        "  [open-loop] {open_rps:>8.0} req/s over {open_conns} pipelined connections \
         ({open_ok} ok, {open_shed} shed) | peak {peak_conns} concurrent conns"
    );

    let report = NetBenchReport {
        id: "bench_net".to_owned(),
        title: "Networked closed-loop serving through the pic-net front-end".to_owned(),
        smoke,
        clients: clients_n,
        fairness_budget: budget,
        open_conns,
        open_per_conn,
        open_loop_rps: open_rps,
        open_loop_ok: open_ok,
        open_loop_shed: open_shed,
        peak_conns,
        client_stats,
        bench: BenchReport {
            id: "bench_runtime".to_owned(),
            title: "Single-policy networked replay of the serving workload".to_owned(),
            smoke,
            devices: config.devices,
            queue_depth: config.queue_depth,
            max_batch: config.max_batch,
            max_delay_ms: u64::try_from(config.max_delay.as_millis()).unwrap_or(u64::MAX),
            requests_per_policy: requests,
            models: models_n,
            zipf_s,
            open_loop: false,
            window: clients_n,
            policies: vec![row],
            // Ratio fields are vacuous for a single-policy networked
            // run; 1.0 keeps the schema numeric (NaN would not
            // round-trip through JSON).
            hit_rate_gain_residency_over_fifo: 1.0,
            write_energy_cut_residency_over_fifo: 1.0,
            cross_policy_outputs_identical: true,
        },
    };
    let file = if smoke {
        "BENCH_net_smoke.json"
    } else {
        "BENCH_net.json"
    };
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let path = root
        .parent()
        .and_then(std::path::Path::parent)
        .map(|r| r.join(file))
        .unwrap_or_else(|| PathBuf::from(file));
    let json = serde_json::to_string_pretty(&report).expect("serialise report");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {file}: {e}"));
    println!("  [written {}]", path.display());

    if let Some(trace_path) = &trace {
        let window: Vec<EventTrace> = rt
            .metrics()
            .recorder
            .dump()
            .into_iter()
            .map(|e| EventTrace {
                seq: e.seq,
                t_ns: e.t_ns,
                kind: e.kind.label().to_owned(),
                a: e.a,
                b: e.b,
            })
            .collect();
        println!("  [trace] {}-event recorder window", window.len());
        if let Some(tree) = &slowest_trace {
            println!(
                "  [trace] slowest sampled trace {} ({:.3} ms wall):",
                tree["id"].as_str().unwrap_or("?"),
                tree["wall_ns"].as_f64().unwrap_or(0.0) / 1e6,
            );
            print_span_tree(tree);
        }
        let trace_report = NetTraceReport {
            id: "trace_net".to_owned(),
            title: "Flight-recorder window and the slowest kept request trace".to_owned(),
            obs_enabled: pic_obs::enabled(),
            slow_threshold_ms: slow_ms,
            window,
            sampled_traces,
            slowest_trace,
        };
        let json = serde_json::to_string_pretty(&trace_report).expect("serialise trace");
        std::fs::write(trace_path, json)
            .unwrap_or_else(|e| panic!("write {}: {e}", trace_path.display()));
        println!("  [trace written {}]", trace_path.display());
    }

    if let Some(baseline) = baseline {
        if !same_workload(&baseline.bench, &report.bench) {
            println!(
                "  [check] baseline measured a different workload shape — throughput not compared"
            );
        } else {
            let mut failures = regressions(&baseline.bench, &report.bench, tolerance);
            // Gate the open-loop headline too, when the baseline has
            // one of the same shape (pre-reactor baselines don't).
            if baseline.open_conns == report.open_conns
                && baseline.open_per_conn == report.open_per_conn
                && baseline.open_loop_rps > 0.0
            {
                let delta = report.open_loop_rps / baseline.open_loop_rps - 1.0;
                println!(
                    "  [check] open-loop: {:>8.0} req/s vs baseline {:>8.0} req/s ({:+.1}%)",
                    report.open_loop_rps,
                    baseline.open_loop_rps,
                    delta * 100.0,
                );
                if report.open_loop_rps < baseline.open_loop_rps * (1.0 - tolerance) {
                    failures.push(format!(
                        "open-loop: {:.0} req/s is {:.0}% below the {:.0} req/s baseline",
                        report.open_loop_rps,
                        -delta * 100.0,
                        baseline.open_loop_rps,
                    ));
                }
            }
            if failures.is_empty() {
                println!(
                    "  [check] networked throughput within {:.0}% of the baseline ok",
                    tolerance * 100.0
                );
            } else {
                for f in &failures {
                    println!("  [REGRESSION] {f}");
                }
                std::process::exit(1);
            }
        }
    }
}

/// Linux thread count of this process, from `/proc/self/status`.
fn count_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .expect("/proc/self/status carries a Threads: line on Linux")
}

/// The `--c10k` smoke: proof the reactor multiplexes four-digit
/// connection counts on a fixed thread pool. Opens `--conns` (default
/// 1024) keep-alive connections — each proving liveness with one
/// `/healthz` round-trip, then staying open — while `--loaded`
/// (default 32) clients drive matmuls whose replies are checked
/// bit-for-bit against a solo executor. Asserts the process thread
/// count never grows with connections and stays within the fixed pool
/// budget (`reactors + workers + 2`, plus the metrics-series ticker
/// when observability is compiled in). Writes `C10K_smoke.json`.
#[allow(clippy::too_many_lines)]
fn c10k_main(args: &[String]) {
    use pic_net::{MatmulWire, NetClient, NetConfig, NetServer};
    use std::collections::HashMap;
    use std::io::{BufReader, Write};

    let conns: usize = arg_value(args, "--conns").unwrap_or(1024);
    let loaded_n: usize = arg_value(args, "--loaded").unwrap_or(32);
    let per_loaded: usize = arg_value(args, "--requests").unwrap_or(16);
    let reactors: usize = arg_value(args, "--reactors").unwrap_or(4);
    // Both socket halves live in this one process.
    pic_net::raise_nofile_limit((4 * conns + 512) as u64).expect("raise RLIMIT_NOFILE");

    let mut config = RuntimeConfig::paper();
    config.max_delay = Duration::from_millis(10);
    let mut rng = StdRng::seed_from_u64(42);
    let models = model_set(config.core, 4, &mut rng);
    let registry: HashMap<String, Arc<TiledMatrix>> = models
        .iter()
        .enumerate()
        .map(|(rank, m)| (format!("model-{rank}"), Arc::clone(m)))
        .collect();
    let server = NetServer::start(
        NetConfig {
            max_connections: conns + loaded_n + 16,
            read_timeout: Duration::from_secs(2),
            reactors,
            ..NetConfig::default()
        },
        Runtime::start(config),
        registry,
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    // Warm the stack before baselining: the dispatcher spawns its
    // workers from inside its own thread, so a count taken straight
    // after `start` races those spawns. One round-tripped matmul
    // proves every lazily-created thread exists, then the count must
    // hold still across consecutive reads.
    {
        let mut warm = NetClient::connect(addr, "warmup").expect("warmup connects");
        let inputs: Vec<Vec<f64>> =
            vec![(0..models[0].in_dim()).map(|j| j as f64 / 17.0).collect()];
        let reply = warm
            .matmul(&MatmulWire {
                model: "model-0".to_owned(),
                inputs,
                deadline_ms: None,
            })
            .expect("warmup matmul");
        assert!(!reply.outputs.is_empty(), "warmup produced output");
    }
    let threads_baseline = {
        let mut last = count_threads();
        let mut stable = 0;
        let settle = Instant::now();
        while stable < 3 && settle.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(20));
            let now = count_threads();
            if now == last {
                stable += 1;
            } else {
                stable = 0;
                last = now;
            }
        }
        last
    };
    // The pool is reactors + device workers + (dispatcher, main); the
    // front-end adds one metrics-series ticker unless obs-off.
    let thread_budget = reactors + config.devices + 2 + usize::from(pic_obs::enabled());
    println!(
        "C10K_smoke — {conns} keep-alive connections on {reactors} reactors \
         ({loaded_n} loaded clients × {per_loaded} checked requests); \
         {threads_baseline} threads after start (budget {thread_budget})"
    );
    assert!(
        threads_baseline <= thread_budget,
        "serving stack must fit the fixed pool: {threads_baseline} threads > \
         {reactors} reactors + {} workers + 2",
        config.devices
    );

    let started = Instant::now();
    let idle: Vec<BufReader<std::net::TcpStream>> = (0..conns)
        .map(|c| {
            let mut sock =
                std::net::TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle conn {c}: {e}"));
            sock.set_nodelay(true).expect("nodelay");
            sock.set_read_timeout(Some(Duration::from_secs(60)))
                .expect("timeout");
            write!(
                sock,
                "GET /healthz HTTP/1.1\r\nx-client: idle-{}\r\n\r\n",
                c % 16
            )
            .unwrap_or_else(|e| panic!("idle conn {c} write: {e}"));
            let mut reader = BufReader::new(sock);
            let resp = pic_net::http::read_response(&mut reader)
                .unwrap_or_else(|e| panic!("idle conn {c} reply: {e}"));
            assert_eq!(resp.status, 200, "idle conn {c} must be served");
            reader
        })
        .collect();
    let threads_with_fleet = count_threads();
    assert_eq!(
        threads_with_fleet, threads_baseline,
        "{conns} connections must not spawn a single thread"
    );
    println!(
        "  [fleet] {conns} connections alive in {:.2} s — still {threads_with_fleet} threads",
        started.elapsed().as_secs_f64()
    );

    // Drive load through the held-open fleet: every reply must be
    // bit-identical to in-process execution, with a thousand idle
    // sockets multiplexed alongside.
    let checked: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..loaded_n)
            .map(|c| {
                let models = &models;
                scope.spawn(move || {
                    let mut client =
                        NetClient::connect(addr, &format!("load-{c}")).expect("loaded connects");
                    let mut solo = TileExecutor::new(config.core, 900);
                    for k in 0..per_loaded {
                        let which = (c + k) % models.len();
                        let inputs: Vec<Vec<f64>> = vec![(0..models[which].in_dim())
                            .map(|j| ((c * 31 + k * 7 + j * 3) % 13) as f64 / 13.0)
                            .collect()];
                        let reply = client
                            .matmul(&MatmulWire {
                                model: format!("model-{which}"),
                                inputs: inputs.clone(),
                                deadline_ms: Some(600_000.0),
                            })
                            .expect("loaded request serves");
                        let (want, _) = solo.execute(&models[which], &inputs).expect("replay");
                        assert_eq!(
                            reply.outputs, want,
                            "c10k reply differs from in-process execution"
                        );
                    }
                    per_loaded
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loaded client"))
            .sum()
    });
    // Loaded-client threads were ours and have joined; the server side
    // still runs on the same fixed pool.
    let threads_after_load = count_threads();
    assert_eq!(
        threads_after_load, threads_baseline,
        "serving {checked} requests must not grow the pool"
    );

    let peak_conns = {
        let mut probe = NetClient::connect(addr, "peak-probe").expect("probe connects");
        let text = probe.get("/metrics").expect("metrics answers").text();
        text.lines()
            .find_map(|l| l.strip_prefix("pic_net_conns_peak "))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .expect("scrape carries pic_net_conns_peak") as u64
    };
    assert!(
        peak_conns >= conns as u64,
        "peak {peak_conns} must cover the {conns} held-open connections"
    );
    let wall = started.elapsed().as_secs_f64();
    println!(
        "  [c10k] {checked} bit-checked requests through {peak_conns} peak connections \
         in {wall:.2} s on {threads_after_load} threads"
    );

    drop(idle);
    drop(server.shutdown());

    #[derive(serde::Serialize)]
    struct C10kReport {
        id: String,
        title: String,
        conns: usize,
        reactors: usize,
        loaded_clients: usize,
        requests_checked: usize,
        bit_identical: bool,
        threads_baseline: usize,
        threads_with_fleet: usize,
        threads_after_load: usize,
        thread_budget: usize,
        peak_conns: u64,
        wall_time_s: f64,
    }
    let report = C10kReport {
        id: "c10k_smoke".to_owned(),
        title: "Thousand-connection keep-alive smoke on the epoll reactor".to_owned(),
        conns,
        reactors,
        loaded_clients: loaded_n,
        requests_checked: checked,
        bit_identical: true,
        threads_baseline,
        threads_with_fleet,
        threads_after_load,
        thread_budget,
        peak_conns,
        wall_time_s: wall,
    };
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let path = root
        .parent()
        .and_then(std::path::Path::parent)
        .map(|r| r.join("C10K_smoke.json"))
        .unwrap_or_else(|| PathBuf::from("C10K_smoke.json"));
    let json = serde_json::to_string_pretty(&report).expect("serialise report");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write C10K_smoke.json: {e}"));
    println!("  [written {}]", path.display());
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--c10k") {
        return c10k_main(&args);
    }
    if args.iter().any(|a| a == "--nodes") {
        return cluster_main(&args);
    }
    if args.iter().any(|a| a == "--serve") {
        return net_main(&args);
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let requests: usize = arg_value(&args, "--requests").unwrap_or(if smoke { 400 } else { 4_000 });
    let models_n: usize = arg_value(&args, "--models").unwrap_or(12);
    let zipf_s: f64 = arg_value(&args, "--zipf").unwrap_or(1.1);
    // 0 = open loop (default); N = closed loop with N requests in flight.
    let window: usize = arg_value(&args, "--window").unwrap_or(0);
    let policies: Vec<AdmissionPolicyKind> = arg_value::<String>(&args, "--policies")
        .map(|csv| {
            csv.split(',')
                .map(|p| {
                    AdmissionPolicyKind::parse(p.trim())
                        .unwrap_or_else(|| panic!("unknown policy {p:?}"))
                })
                .collect()
        })
        .unwrap_or_else(|| AdmissionPolicyKind::ALL.to_vec());
    let check: Option<String> = arg_value(&args, "--check");
    let tolerance: f64 = arg_value(&args, "--tolerance").unwrap_or(0.30);
    let trace: Option<PathBuf> = arg_value::<String>(&args, "--trace").map(PathBuf::from);
    // Read the baseline up front: `--check` may point at the very file
    // this run is about to overwrite.
    let baseline: Option<BenchReport> = check.as_ref().map(|path| {
        let json = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("--check {path}: cannot read baseline: {e}"));
        serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("--check {path}: baseline does not parse: {e:?}"))
    });

    let mut config = RuntimeConfig::paper();
    if let Some(ms) = arg_value::<u64>(&args, "--max-delay-ms") {
        config.max_delay = Duration::from_millis(ms);
    }
    // Open loop drains a deep backlog, so live requests get a horizon
    // far past the full run; closed loop keeps queueing bounded, so
    // deadlines can be tight enough to mean something.
    let deadline_horizon = if window == 0 {
        Duration::from_secs(600)
    } else {
        Duration::from_millis(2_500)
    };

    println!(
        "BENCH_runtime — {requests} requests/policy over {models_n} Zipf(s={zipf_s}) models, \
         {} devices (batch ≤ {}), {} driver, policies: {}",
        config.devices,
        config.max_batch,
        if window == 0 {
            "open-loop".to_owned()
        } else {
            format!("closed-loop({window})")
        },
        policies
            .iter()
            .map(|p| p.label())
            .collect::<Vec<_>>()
            .join(","),
    );

    let mut rng = StdRng::seed_from_u64(42);
    let models = model_set(config.core, models_n, &mut rng);
    let stream = build_stream(&models, requests, zipf_s, &mut rng);

    let mut reports: Vec<PolicyReport> = Vec::new();
    let mut traces: Vec<PolicyTrace> = Vec::new();
    let mut baseline_outputs: Option<Vec<Option<Response>>> = None;
    let mut cross_identical = true;
    for &kind in &policies {
        // Each policy's periodic exporter frames land in a sibling of
        // the trace file, one JSON-lines stream per runtime.
        let frames_path = trace.as_ref().map(|p| {
            let stem = p
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("TRACE_runtime");
            p.with_file_name(format!("{stem}.{}.frames.jsonl", kind.label()))
        });
        let outcome = run_policy(
            config.with_policy(kind),
            &models,
            &stream,
            window,
            deadline_horizon,
            frames_path.as_deref(),
        );
        let r = &outcome.report;
        println!(
            "  {:>9}: {:>6.0} req/s | hit rate {:>5.1}% ({} writes, {} hits) | \
             p50 {:>7.1} ms, p99 {:>8.1} ms | {:.2} nJ/req ({:.3} nJ writes) | \
             {} reorders, {} misses",
            r.policy,
            r.throughput_req_per_s,
            r.residency_hit_rate * 100.0,
            r.tile_writes,
            r.tile_hits,
            r.latency_p50_s * 1e3,
            r.latency_p99_s * 1e3,
            r.energy_per_request_j * 1e9,
            r.write_energy_per_request_j * 1e9,
            r.admission_reorders,
            r.deadline_misses,
        );
        // The per-stage breakdown: where a request's wall time and the
        // run's modeled energy actually went.
        if pic_obs::enabled() {
            for st in &outcome.trace.stages {
                if st.count == 0 {
                    continue;
                }
                println!(
                    "            [{:>9}] {:>7} × mean {:>9.1} µs, p99 {:>10.1} µs | {:>10.2} nJ",
                    st.stage,
                    st.count,
                    st.mean_s * 1e6,
                    st.p99_s * 1e6,
                    st.energy_j * 1e9,
                );
            }
        }
        // Admission order must never change what a request computes:
        // every policy's served outputs are bit-identical to the
        // first's (only pairs served under both are comparable — a miss
        // under one policy is an ordering difference, not a compute
        // difference).
        match &baseline_outputs {
            None => baseline_outputs = Some(outcome.served),
            Some(base) => {
                let same = base.iter().zip(&outcome.served).all(|(a, b)| match (a, b) {
                    (Some(x), Some(y)) => x.outputs == y.outputs,
                    _ => true,
                });
                cross_identical &= same;
            }
        }
        reports.push(outcome.report);
        traces.push(outcome.trace);
    }
    assert!(
        cross_identical,
        "policies disagreed on served outputs — accumulation must be order-independent"
    );

    let fifo = reports.iter().find(|r| r.policy == "fifo");
    let residency = reports.iter().find(|r| r.policy == "residency");
    let (hit_gain, write_cut) = match (fifo, residency) {
        (Some(f), Some(r)) => (
            r.residency_hit_rate / f.residency_hit_rate.max(f64::MIN_POSITIVE),
            f.write_energy_per_request_j / r.write_energy_per_request_j.max(f64::MIN_POSITIVE),
        ),
        _ => (f64::NAN, f64::NAN),
    };
    if let (Some(f), Some(r)) = (fifo, residency) {
        println!(
            "  residency vs fifo: {hit_gain:.2}x hit rate, {write_cut:.2}x lower write energy, \
             misses {} vs {}",
            r.deadline_misses, f.deadline_misses
        );
        assert!(
            r.deadline_misses <= f.deadline_misses,
            "residency-aware admission must not add deadline misses \
             ({} vs fifo's {})",
            r.deadline_misses,
            f.deadline_misses
        );
        if !smoke {
            assert!(
                hit_gain >= 1.5,
                "acceptance: residency hit rate must be >= 1.5x fifo, got {hit_gain:.2}x"
            );
        }
    }
    println!("  [check] conservation, spot checks, and cross-policy bit-identity ok");

    let report = BenchReport {
        id: "bench_runtime".to_owned(),
        title: "Admission-policy comparison on a Zipf-skewed photonic serving pool".to_owned(),
        smoke,
        devices: config.devices,
        queue_depth: config.queue_depth,
        max_batch: config.max_batch,
        max_delay_ms: u64::try_from(config.max_delay.as_millis()).unwrap_or(u64::MAX),
        requests_per_policy: requests,
        models: models_n,
        zipf_s,
        open_loop: window == 0,
        window,
        policies: reports,
        hit_rate_gain_residency_over_fifo: hit_gain,
        write_energy_cut_residency_over_fifo: write_cut,
        cross_policy_outputs_identical: cross_identical,
    };

    // CARGO_MANIFEST_DIR = crates/bench → workspace root is two up.
    // Smoke runs land in their own file so a quick CI-sized run never
    // clobbers the committed full-size baseline.
    let file = if smoke {
        "BENCH_runtime_smoke.json"
    } else {
        "BENCH_runtime.json"
    };
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let path = root
        .parent()
        .and_then(std::path::Path::parent)
        .map(|r| r.join(file))
        .unwrap_or_else(|| PathBuf::from(file));
    let json = serde_json::to_string_pretty(&report).expect("serialise report");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {file}: {e}"));
    println!("  [written {}]", path.display());

    if let Some(trace_path) = &trace {
        let trace_report = TraceReport {
            id: "trace_runtime".to_owned(),
            title: "Per-stage latency/energy breakdown and flight-recorder dump".to_owned(),
            obs_enabled: pic_obs::enabled(),
            policies: traces,
        };
        let json = serde_json::to_string_pretty(&trace_report).expect("serialise trace");
        std::fs::write(trace_path, json)
            .unwrap_or_else(|e| panic!("write {}: {e}", trace_path.display()));
        println!("  [trace written {}]", trace_path.display());
    }

    if let Some(baseline) = baseline {
        if !same_workload(&baseline, &report) {
            println!(
                "  [check] baseline measured a different workload shape — throughput not compared"
            );
        } else {
            // Show every policy's delta vs the baseline, not just the
            // failures — this is how the tracing-overhead claim is
            // checked against a baseline recorded without it.
            for b in &baseline.policies {
                if let Some(n) = report.policies.iter().find(|p| p.policy == b.policy) {
                    let delta = n.throughput_req_per_s / b.throughput_req_per_s - 1.0;
                    println!(
                        "  [check] {:>9}: {:>6.0} req/s vs baseline {:>6.0} req/s ({:+.1}%)",
                        b.policy,
                        n.throughput_req_per_s,
                        b.throughput_req_per_s,
                        delta * 100.0,
                    );
                }
            }
            let failures = regressions(&baseline, &report, tolerance);
            if failures.is_empty() {
                println!(
                    "  [check] per-policy throughput within {:.0}% of the baseline ok",
                    tolerance * 100.0
                );
            } else {
                for f in &failures {
                    println!("  [REGRESSION] {f}");
                }
                std::process::exit(1);
            }
        }
    }
}
