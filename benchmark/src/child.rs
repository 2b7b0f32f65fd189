//! One workload from start to finish, inside its own process: build the
//! stack, reach the first OK reply, run the phases, check the outputs,
//! and print the numbers as one JSON line.
//!
//! The process boundary matters: `WriteTransientCache::shared` and the
//! allocator's arenas are process-global, so a workload sharing a
//! process with another would inherit warm state into its `setup_s` and
//! `peak_rss_mb`.

use crate::calib;
use crate::check::{self, Tally};
use crate::client::{
    drive, runtime_request, Drive, InProc, NetConn, Offer, ReplayItem, Sample, ThreadLog, Totals,
    Transport,
};
use crate::replay::{self, cluster_config, runtime_config, Budget, Costs};
use crate::report::{num, obj, peak_rss_mb, text, write_out};
use crate::scrape::Scrape;
use crate::spec::WorkloadSpec;
use crate::stats::{median, percentile, sorted, supported_tail};
use crate::trace::SpanRing;
use crate::workload::{one_per_model, GenRequest, Kind, ModelSet, RequestStream};
use pic_cluster::Coordinator;
use pic_net::{NetConfig, NetServer};
use pic_runtime::{ResponseHandle, Runtime};
use serde::Value;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A deliberately broken result, to prove the gate rejects it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Flip one bit of one checked reply.
    FlipBit,
    /// Lose one reply's record.
    DropReply,
}

impl Fault {
    /// Parses `flip-bit` / `drop-reply`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Fault> {
        match s {
            "flip-bit" => Some(Fault::FlipBit),
            "drop-reply" => Some(Fault::DropReply),
            _ => None,
        }
    }

    /// The flag spelling.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Fault::FlipBit => "flip-bit",
            Fault::DropReply => "drop-reply",
        }
    }
}

/// What the child runs.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload.
    pub spec: &'static WorkloadSpec,
    /// Its kind.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Traced pass (per-layer numbers) instead of the end-to-end one.
    pub trace: bool,
    /// 0.5 s phases.
    pub smoke: bool,
    /// Gate self-test.
    pub fault: Option<Fault>,
    /// Stop after the first OK reply.
    pub setup_only: bool,
}

/// Phase lengths, and the slice length each measured phase is cut into.
#[derive(Debug, Clone, Copy)]
struct Plan {
    warmup: Duration,
    low: Duration,
    high: Duration,
    saturate: Duration,
    paced_slice: Duration,
    closed_slice: Duration,
}

impl Plan {
    /// The measured plan, 2 + 6 + 6 + 8 s, or the smoke plan of 0.5 s
    /// phases. Both commits of a comparison run the same lengths.
    fn of(smoke: bool) -> Plan {
        if smoke {
            let half = Duration::from_millis(500);
            return Plan {
                warmup: half,
                low: half,
                high: half,
                saturate: half,
                paced_slice: half,
                closed_slice: Duration::from_millis(250),
            };
        }
        let ms = Duration::from_millis;
        Plan {
            warmup: ms(2000),
            low: ms(6000),
            high: ms(6000),
            saturate: ms(8000),
            paced_slice: ms(250),
            closed_slice: ms(500),
        }
    }

    /// Seconds of load, warm-up included.
    fn seconds(&self) -> f64 {
        (self.warmup + self.low + self.high + self.saturate).as_secs_f64()
    }
}

/// Seconds of load in a measured run: what `--seconds` must say.
#[must_use]
pub fn plan_seconds() -> f64 {
    Plan::of(false).seconds()
}

/// Stream lanes, so every slice of every phase and every client draws
/// its own seeded stream.
const LANE_PRIME: u64 = 1;
const LANE_WARMUP: u64 = 100;
const LANE_LOW: u64 = 200;
const LANE_HIGH: u64 = 300;
const LANE_SATURATE: u64 = 400;
const LANE_SECOND_SERVER: u64 = 500;
/// Reference-workload units per second over [`CLIENTS`] threads that
/// every host-time number is scaled to: about the speed of a two-core
/// Xeon VM on a quiet minute, so scaled numbers read close to unscaled
/// ones there.
const REFERENCE_SPEED: f64 = 1_200_000.0;
/// How long each reading of the host's speed runs (smoke runs: a
/// quarter of it).
const CALIBRATION: Duration = Duration::from_millis(40);
/// Client threads (and connections) offering load.
const CLIENTS: usize = 2;
/// Span-ring capacity of the traced run.
const SPAN_CAPACITY: usize = 1 << 18;

/// The stack under test.
enum Stack {
    Node(NetServer<Runtime>),
    Cluster(NetServer<Coordinator>),
    InProc(Box<Runtime>),
}

impl Stack {
    fn start(kind: Kind, models: &ModelSet, trace_sample: u64) -> Result<Stack, String> {
        let net = NetConfig {
            trace_sample,
            ..NetConfig::default()
        };
        let started = match kind {
            Kind::BatchResident => {
                return Ok(Stack::InProc(Box::new(Runtime::start(runtime_config()))))
            }
            Kind::ClusterShard => {
                let coordinator = Coordinator::start(cluster_config());
                for (matrix, share) in models.matrices.iter().zip(models.shares()) {
                    coordinator.register(matrix, share);
                }
                NetServer::start(net, coordinator, models.table()).map(Stack::Cluster)
            }
            Kind::ServeHot | Kind::ServeCold => {
                NetServer::start(net, Runtime::start(runtime_config()), models.table())
                    .map(Stack::Node)
            }
        };
        started.map_err(|e| format!("front-end failed to start: {e}"))
    }

    fn addr(&self) -> Option<std::net::SocketAddr> {
        match self {
            Stack::Node(s) => Some(s.local_addr()),
            Stack::Cluster(s) => Some(s.local_addr()),
            Stack::InProc(_) => None,
        }
    }

    fn shutdown(self) {
        match self {
            Stack::Node(s) => drop(s.shutdown()),
            Stack::Cluster(s) => drop(s.shutdown()),
            Stack::InProc(rt) => drop(rt),
        }
    }
}

/// What set-up and the between-phase probes need from a connection,
/// beyond offering load.
trait Control: Transport + Send {
    /// One request, blocking: its status and error kind.
    fn call(&mut self, req: &GenRequest) -> Result<(u16, String), String>;
    /// The stack's metrics exposition.
    fn scrape(&mut self) -> Result<Scrape, String>;
    /// Exact runtime latencies (first queue entry to last service exit),
    /// ns, of the requests the front-end traced after its `since`-th
    /// stored trace; `None` when the stack keeps no request traces.
    fn traced_runtime_ns(&mut self, since: u64) -> Result<Option<Vec<f64>>, String>;
}

impl Control for InProc<'_> {
    fn call(&mut self, req: &GenRequest) -> Result<(u16, String), String> {
        match self
            .runtime
            .submit(runtime_request(self.models, req))
            .and_then(ResponseHandle::wait)
        {
            Ok(_) => Ok((200, String::new())),
            Err(e) => {
                let (status, kind, _) = pic_net::error_status(&e);
                Ok((status, kind.to_owned()))
            }
        }
    }

    fn scrape(&mut self) -> Result<Scrape, String> {
        Ok(Scrape::parse(&self.runtime.frame().to_prometheus("pic")))
    }

    fn traced_runtime_ns(&mut self, _since: u64) -> Result<Option<Vec<f64>>, String> {
        Ok(None)
    }
}

impl Control for NetConn<'_> {
    fn call(&mut self, req: &GenRequest) -> Result<(u16, String), String> {
        self.matmul(req).map_err(|e| format!("set-up request: {e}"))
    }

    fn scrape(&mut self) -> Result<Scrape, String> {
        match self.get("/metrics") {
            Ok((200, body)) => Ok(Scrape::parse(&body)),
            Ok((status, _)) => Err(format!("/metrics answered {status}")),
            Err(e) => Err(format!("/metrics: {e}")),
        }
    }

    fn traced_runtime_ns(&mut self, since: u64) -> Result<Option<Vec<f64>>, String> {
        let mut json = |path: &str| -> Result<Value, String> {
            match self.get(path) {
                Ok((200, body)) => serde_json::from_str(&body).map_err(|e| format!("{path}: {e}")),
                Ok((status, _)) => Err(format!("{path} answered {status}")),
                Err(e) => Err(format!("{path}: {e}")),
            }
        };
        let listing = json("/v1/traces")?;
        let stored = listing["stored"].as_f64().unwrap_or(0.0) as u64;
        let ids: Vec<String> = listing["traces"]
            .as_array()
            .into_iter()
            .flatten()
            .take(stored.saturating_sub(since) as usize)
            .filter_map(|t| t["id"].as_str().map(str::to_owned))
            .collect();
        let mut out = Vec::new();
        for id in ids {
            let trace = json(&format!("/v1/traces/{id}"))?;
            let spans = trace["spans"].as_array().cloned().unwrap_or_default();
            let edge = |stage: &str, end: bool| {
                spans
                    .iter()
                    .filter(|s| s["stage"].as_str() == Some(stage))
                    .map(|s| {
                        let start = s["start_ns"].as_f64().unwrap_or(0.0);
                        start
                            + if end {
                                s["wall_ns"].as_f64().unwrap_or(0.0)
                            } else {
                                0.0
                            }
                    })
                    .fold(None, |acc: Option<f64>, v| {
                        Some(acc.map_or(v, |a| if end { a.max(v) } else { a.min(v) }))
                    })
            };
            // Requests rejected before the runtime ran them have no
            // service span and are not runtime latency samples.
            if let (Some(entered), Some(left)) = (edge("queue", false), edge("service", true)) {
                out.push(left - entered);
            }
        }
        Ok(Some(out))
    }
}

/// Inputs every phase shares.
struct Env<'a> {
    models: &'a ModelSet,
    seed: u64,
    spans: Option<&'a Mutex<SpanRing>>,
    /// A smoke run: shorter host-speed readings.
    smoke: bool,
}

/// How a phase offers load.
#[derive(Debug, Clone, Copy)]
enum Load {
    Paced(f64),
    Closed,
}

/// One phase on every connection at once, one client thread each.
#[allow(clippy::too_many_arguments)]
fn phase<T: Transport + Send>(
    conns: &mut [T],
    env: &Env<'_>,
    lane: u64,
    load: Load,
    duration: Duration,
    replay_cap: usize,
    traced: bool,
    flip: bool,
) -> Result<Vec<ThreadLog>, String> {
    let threads = conns.len();
    let t0 = match load {
        Load::Paced(_) => Instant::now() + Duration::from_millis(2),
        Load::Closed => Instant::now(),
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(thread, conn)| {
                scope.spawn(move || {
                    let lane = lane + thread as u64;
                    let mut stream = RequestStream::new(env.models, env.seed, lane);
                    let offer = match load {
                        Load::Paced(rate) => Offer::Paced {
                            rate,
                            t0,
                            threads,
                            thread,
                        },
                        Load::Closed => Offer::Closed { t0 },
                    };
                    drive(
                        conn,
                        &mut stream,
                        Drive {
                            lane,
                            duration,
                            offer,
                            replay_cap,
                            spans: env.spans.filter(|_| traced),
                            flip_first_check: flip && thread == 0,
                        },
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a client thread panicked".to_owned())?
                    .map_err(|e| format!("client event loop failed: {e}"))
            })
            .collect()
    })
}

/// One measured slice of a phase and what it saw.
struct Slice {
    duration: Duration,
    traced: bool,
    /// The host's speed over the slice as a share of
    /// [`REFERENCE_SPEED`]: the mean of the readings before and after.
    speed: f64,
    /// The share of the machine's CPU time the hypervisor stole during
    /// the slice.
    stolen: f64,
    logs: Vec<ThreadLog>,
}

/// The slices stolen from least, at least half of them: those whose
/// stolen share is at most the median share.
///
/// Scaling by the reference speed corrects a core that runs slower, not
/// one that is taken away. While the hypervisor steals a fifth of the
/// time, a request that arrives when its vCPU is descheduled waits for
/// it, and the stack's p50 grows several times over while the reference
/// barely moves. Such slices do not measure the stack; with no steal at
/// all, every slice is kept.
fn least_stolen<'a>(slices: impl IntoIterator<Item = &'a Slice>) -> Vec<&'a Slice> {
    let slices: Vec<&Slice> = slices.into_iter().collect();
    if slices.is_empty() {
        return slices;
    }
    let shares: Vec<f64> = slices.iter().map(|s| s.stolen).collect();
    let cut = median(&shares);
    slices.into_iter().filter(|s| s.stolen <= cut).collect()
}

/// The host's speed now, as a share of [`REFERENCE_SPEED`].
fn host_speed(smoke: bool) -> f64 {
    let window = if smoke { CALIBRATION / 4 } else { CALIBRATION };
    calib::host_speed(CLIENTS, window) / REFERENCE_SPEED
}

/// Which slices of a phase carry the benchmark's spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Spans {
    None,
    All,
    /// Every second slice, so traced and untraced goodput are measured
    /// under one load.
    Alternate,
}

/// Runs a phase as slices of about `slice` each, reading the host's
/// speed before the first and after every slice. A paced slice offers
/// `rate` scaled by the speed read just before it, so the stack meets the
/// same load relative to the host's speed whatever that speed is.
#[allow(clippy::too_many_arguments)]
fn sliced<T: Transport + Send>(
    conns: &mut [T],
    env: &Env<'_>,
    lanes: u64,
    load: Load,
    total: Duration,
    slice: Duration,
    replay_cap: usize,
    spans: Spans,
) -> Result<Vec<Slice>, String> {
    let n = (total.as_secs_f64() / slice.as_secs_f64()).round().max(1.0) as u32;
    let duration = total / n;
    let mut before = host_speed(env.smoke);
    let mut out = Vec::new();
    for i in 0..n {
        let offered = match load {
            Load::Paced(rate) => Load::Paced(rate * before),
            Load::Closed => Load::Closed,
        };
        let traced = match spans {
            Spans::None => false,
            Spans::All => true,
            Spans::Alternate => i % 2 == 1,
        };
        let lane = lanes + u64::from(i) * CLIENTS as u64;
        let cap = replay_cap.div_ceil(n as usize);
        let ticks = calib::cpu_ticks();
        let logs = phase(conns, env, lane, offered, duration, cap, traced, false)?;
        let stolen = calib::stolen_share(ticks, calib::cpu_ticks());
        let after = host_speed(env.smoke);
        out.push(Slice {
            duration,
            traced,
            speed: (before + after) / 2.0,
            stolen,
            logs,
        });
        before = after;
    }
    Ok(out)
}

/// Everything one stack's load produced.
struct Run {
    /// Priming requests sent after set-up, all answered OK.
    primed: u64,
    warmup: Vec<ThreadLog>,
    low: Vec<Slice>,
    high: Vec<Slice>,
    saturate: Vec<Slice>,
    /// Scrapes before warm-up and after each phase.
    scrapes: [Scrape; 5],
    /// Exact runtime latencies of the `low` phase's traced requests, ns
    /// (traced networked runs only).
    low_runtime_ns: Option<Vec<f64>>,
}

impl Run {
    fn untraced(&self) -> impl Iterator<Item = &Slice> {
        self.saturate.iter().filter(|s| !s.traced)
    }

    fn slices(&self) -> impl Iterator<Item = &Slice> {
        self.low.iter().chain(&self.high).chain(&self.saturate)
    }

    fn logs(&self) -> impl Iterator<Item = &ThreadLog> {
        self.warmup
            .iter()
            .chain(self.slices().flat_map(|s| &s.logs))
    }
}

fn expect_ok<T: Control>(conn: &mut T, req: &GenRequest, what: &str) -> Result<(), String> {
    match conn.call(req)? {
        (200, _) => Ok(()),
        (status, kind) => Err(format!("{what} request answered {status} {kind}")),
    }
}

/// Runs set-up and every phase against one stack.
///
/// Set-up ends with the first OK reply, to a request for the most popular
/// model. Then one request for each other model goes out, one at a time
/// in popularity-rank order. The runtime routes a model to the worker its
/// first batch went to, and with nothing in flight that is the idle worker
/// serving the fewest models. So every run places the models on the
/// workers in the same way, whatever the seed and the host's timing.
/// Without this, the seed's first requests decided the placement, and on
/// `serve-hot` the placement decided the tile hit rate for the whole run.
fn load<T: Control>(
    conns: &mut [T],
    env: &Env<'_>,
    args: &Args,
    started: Instant,
) -> Result<(f64, Option<Run>), String> {
    let priming = one_per_model(env.models, env.seed, LANE_PRIME);
    expect_ok(&mut conns[0], &priming[0], "set-up")?;
    let setup_s = started.elapsed().as_secs_f64();
    if args.setup_only {
        return Ok((setup_s, None));
    }
    for req in &priming[1..] {
        expect_ok(&mut conns[0], req, "priming")?;
    }
    let primed = priming.len() as u64 - 1;
    let plan = Plan::of(args.smoke);
    let flip = args.fault == Some(Fault::FlipBit);
    let s0 = conns[0].scrape()?;
    let warmup = phase(
        conns,
        env,
        LANE_WARMUP,
        Load::Closed,
        plan.warmup,
        0,
        false,
        flip,
    )?;
    let s1 = conns[0].scrape()?;
    let (low_rate, high_rate) = (f64::from(args.spec.low_rps), f64::from(args.spec.high_rps));
    let (cap, spans) = if args.trace {
        (
            Budget::of(args.smoke).requests.div_ceil(CLIENTS),
            Spans::All,
        )
    } else {
        (0, Spans::None)
    };
    let (paced_slice, closed_slice) = (plan.paced_slice, plan.closed_slice);
    let low = sliced(
        conns,
        env,
        LANE_LOW,
        Load::Paced(low_rate),
        plan.low,
        paced_slice,
        cap,
        spans,
    )?;
    let low_runtime_ns = if args.trace {
        conns[0].traced_runtime_ns(s1.value("net_traces_stored") as u64)?
    } else {
        None
    };
    let s2 = conns[0].scrape()?;
    let high = sliced(
        conns,
        env,
        LANE_HIGH,
        Load::Paced(high_rate),
        plan.high,
        paced_slice,
        0,
        spans,
    )?;
    let s3 = conns[0].scrape()?;
    let spans = if args.trace {
        Spans::Alternate
    } else {
        Spans::None
    };
    let saturate = sliced(
        conns,
        env,
        LANE_SATURATE,
        Load::Closed,
        plan.saturate,
        closed_slice,
        0,
        spans,
    )?;
    let s4 = conns[0].scrape()?;
    Ok((
        setup_s,
        Some(Run {
            primed,
            warmup,
            low,
            high,
            saturate,
            scrapes: [s0, s1, s2, s3, s4],
            low_runtime_ns,
        }),
    ))
}

/// Runs set-up and the phases on a fresh stack of `args.kind`.
fn run_stack(
    args: &Args,
    models: &ModelSet,
    env: &Env<'_>,
    started: Instant,
) -> Result<(f64, Option<Run>), String> {
    let stack = Stack::start(args.kind, models, NetConfig::default().trace_sample)?;
    let result = match (&stack, stack.addr()) {
        (Stack::InProc(rt), _) => {
            in_proc_conns(rt, models).and_then(|mut conns| load(&mut conns, env, args, started))
        }
        (_, Some(addr)) => {
            net_conns(addr, models).and_then(|mut conns| load(&mut conns, env, args, started))
        }
        (_, None) => unreachable!("networked stacks have an address"),
    };
    stack.shutdown();
    result
}

fn in_proc_conns<'a>(rt: &'a Runtime, models: &'a ModelSet) -> Result<Vec<InProc<'a>>, String> {
    (0..CLIENTS)
        .map(|_| InProc::new(rt, models))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("eventfd: {e}"))
}

fn net_conns(addr: std::net::SocketAddr, models: &ModelSet) -> Result<Vec<NetConn<'_>>, String> {
    (0..CLIENTS)
        .map(|i| NetConn::connect(addr, &format!("bench-{i}"), models))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))
}

/// Host goodput totals of the given slices: OK replies that finished
/// inside their window, and the seconds the windows lasted.
fn goodput<'a>(slices: impl Iterator<Item = &'a Slice>) -> (Totals, f64) {
    let mut totals = Totals::default();
    let mut secs = 0.0;
    for slice in slices {
        secs += slice.duration.as_secs_f64();
        for log in &slice.logs {
            totals += log.in_window;
        }
    }
    (totals, secs)
}

/// Due-time latencies of paced slices in ms, ascending; failed requests
/// count as infinitely late. Pre-expired requests are not latency
/// samples.
fn latencies_ms<'a>(slices: impl IntoIterator<Item = &'a Slice>) -> Vec<f64> {
    let v: Vec<f64> = slices
        .into_iter()
        .flat_map(|s| &s.logs)
        .flat_map(|l| &l.samples)
        .map(|&Sample { latency_ns: ns, .. }| {
            if ns == u64::MAX {
                f64::INFINITY
            } else {
                ns as f64 / 1e6
            }
        })
        .collect();
    sorted(&v)
}

/// Percentile `p` of each least-stolen paced slice's due-time latency,
/// scaled to the reference host, ms.
fn slice_latencies(slices: &[Slice], p: f64) -> Vec<f64> {
    least_stolen(slices)
        .into_iter()
        .filter_map(|s| percentile(&latencies_ms([s]), p).map(|ms| finite(ms) * s.speed))
        .collect()
}

/// A quantity of each least-stolen slice's in-window OK replies, per
/// second at the reference host's speed.
fn slice_rates<'a>(
    slices: impl IntoIterator<Item = &'a Slice>,
    pick: fn(&Totals) -> f64,
) -> Vec<f64> {
    least_stolen(slices)
        .into_iter()
        .map(|s| {
            let mut t = Totals::default();
            for log in &s.logs {
                t += log.in_window;
            }
            pick(&t) / s.duration.as_secs_f64() / s.speed
        })
        .collect()
}

/// A latency as a finite number of ms (a failure reads as one hour).
fn finite(ms: f64) -> f64 {
    ms.min(3.6e6)
}

/// A latency percentile as a finite number of ms; 0 with no samples.
fn finite_ms(v: Option<f64>) -> f64 {
    v.map_or(0.0, finite)
}

/// The median of per-slice values; 0 with none.
fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Counts every outcome; a failure of any check ends the child with no
/// numbers.
fn gate(
    run: &Run,
    models: &ModelSet,
    seed: u64,
    fault: Option<Fault>,
) -> Result<(Tally, Value), String> {
    if let Some(e) = run.logs().find_map(|l| l.transport_error.as_deref()) {
        return Err(format!("a client connection failed: {e}"));
    }
    let mut tally = Tally::default();
    // The set-up request and the priming requests, all answered OK.
    for _ in 0..1 + run.primed {
        tally.add(200, "", false);
    }
    for log in run.logs() {
        tally.merge(&log.tally);
    }
    if fault == Some(Fault::DropReply) {
        // One OK reply goes missing from the books.
        tally.attempted -= 1;
        tally.ok -= 1;
    }
    let sent = 1 + run.primed + run.logs().map(|l| l.sent).sum::<u64>();
    let completed = run.scrapes[4].value(if models.kind == Kind::ClusterShard {
        "cluster_completed"
    } else {
        "requests_completed"
    });
    check::conservation(&tally, sent, Some(completed as u64))
        .map_err(|e| format!("conservation: {e}"))?;
    check::pre_expired(&tally).map_err(|e| format!("pre-expired deadlines: {e}"))?;
    let checks: Vec<_> = run.logs().flat_map(|l| l.checks.iter().cloned()).collect();
    let checked =
        check::bit_identity(models, seed, &checks).map_err(|e| format!("bit-identity: {e}"))?;
    let summary = obj([
        ("attempted", num(tally.attempted as f64)),
        ("ok", num(tally.ok as f64)),
        ("typed_errors", num(tally.typed_errors() as f64)),
        ("pre_expired", num(tally.pre_expired_sent as f64)),
        ("bit_identical_replies", num(checked as f64)),
    ]);
    Ok((tally, summary))
}

/// Runs one workload and returns its result line.
///
/// # Errors
///
/// A failed correctness check or a broken harness: the caller exits
/// non-zero without printing numbers.
pub fn run(args: &Args) -> Result<Value, String> {
    let setup_speed = host_speed(args.smoke);
    let started = Instant::now();
    let models = ModelSet::generate(args.kind, args.seed);
    let ring = Mutex::new(SpanRing::new(started, SPAN_CAPACITY));
    let env = Env {
        models: &models,
        seed: args.seed,
        spans: args.trace.then_some(&ring),
        smoke: args.smoke,
    };
    let (setup_host_s, run) = run_stack(args, &models, &env, started)?;
    let setup_s = setup_host_s * setup_speed;
    let Some(run) = run else {
        return Ok(obj([("setup_s", num(setup_s))]));
    };
    let (tally, checks) = gate(&run, &models, args.seed, args.fault)?;
    let rss = peak_rss_mb();

    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    let low = latencies_ms(&run.low);
    let high = latencies_ms(&run.high);
    for (phase, lat) in [("low", &low), ("high", &high)] {
        let tail = supported_tail(lat);
        counts.insert(format!("lat_samples.{phase}"), lat.len() as f64);
        counts.insert(
            format!("lat_tail_pct.{phase}"),
            tail.map_or(0.0, |t| t.percentile),
        );
        counts.insert(
            format!("lat_p99_supported.{phase}"),
            f64::from(u8::from(tail.is_some_and(|t| t.supports_p99()))),
        );
    }
    let (untraced, untraced_secs) = goodput(run.untraced());
    let untraced_rps = median_or_zero(&slice_rates(run.untraced(), |t| t.ok));
    let speeds: Vec<f64> = run.slices().map(|s| s.speed).collect();
    let host_speed = median_or_zero(&speeds);
    // The unscaled host numbers, kept beside the scaled metrics.
    counts.insert("host_speed".into(), host_speed);
    counts.insert("host_goodput_rps".into(), untraced.ok / untraced_secs);
    counts.insert("host_setup_s".into(), setup_host_s);
    let stolen: Vec<f64> = run.slices().map(|s| s.stolen).collect();
    counts.insert("stolen_share".into(), median_or_zero(&stolen));
    // The tail over the whole phase, so its sample count is the phase's.
    let pooled_p99 = |slices: &[Slice], lat: &[f64]| {
        let speeds: Vec<f64> = slices.iter().map(|s| s.speed).collect();
        finite_ms(percentile(lat, 99.0)) * median_or_zero(&speeds)
    };
    let (p99_low, p99_high) = (pooled_p99(&run.low, &low), pooled_p99(&run.high, &high));
    counts.insert("lat_p99_ms.low".into(), p99_low);
    counts.insert("lat_p99_ms.high".into(), p99_high);

    if !args.trace {
        metrics.insert("setup_s", setup_s);
        metrics.insert("goodput_rps", untraced_rps);
        metrics.insert(
            "sim_gops",
            median_or_zero(&slice_rates(run.untraced(), |t| t.ops)) / 1e9,
        );
        metrics.insert(
            "lat_p50_ms.low",
            median_or_zero(&slice_latencies(&run.low, 50.0)),
        );
        metrics.insert(
            "lat_p50_ms.high",
            median_or_zero(&slice_latencies(&run.high, 50.0)),
        );
        metrics.insert(
            "ok_frac",
            1.0 - tally.failed() as f64 / tally.attempted as f64,
        );
        metrics.insert(
            "modeled_nj_per_req",
            untraced.energy_j / untraced.ok.max(1.0) * 1e9,
        );
        metrics.insert("peak_rss_mb", rss);
        return Ok(result_line(args, &tally, checks, &metrics, &counts, None));
    }
    metrics.insert("bench.host_speed", host_speed);
    metrics.insert("bench.lat_p99_ms.low", p99_low);
    metrics.insert("bench.lat_p99_ms.high", p99_high);

    // Traced run: per-layer numbers.
    let sampling_off_rps = if args.kind == Kind::ServeHot {
        Some(sampling_off_goodput(args, &models)?)
    } else {
        None
    };
    let low_items: Vec<ReplayItem> = run
        .low
        .iter()
        .flat_map(|s| &s.logs)
        .flat_map(|l| l.replay.iter().cloned())
        .collect();
    let costs = replay::run(&models, &low_items, Budget::of(args.smoke), &ring);
    metrics.extend(per_layer(
        &run,
        &models,
        &costs,
        &low,
        &tally,
        untraced_rps,
        sampling_off_rps,
    ));
    let rows = waterfall(&run, &models, &costs, &low);
    let ring = ring.into_inner().expect("span ring lock");
    counts.insert("spans".to_owned(), ring.spans().count() as f64);
    let trace_path = write_out(
        &format!("trace-{}.json", args.spec.name),
        &obj([
            ("workload", text(args.spec.name)),
            ("seed", num(args.seed as f64)),
            ("spans", ring.to_json()),
        ]),
    )
    .map_err(|e| format!("writing the trace: {e}"))?;
    let mut line = result_line(args, &tally, checks, &metrics, &counts, Some(&rows));
    if let Value::Object(map) = &mut line {
        map.insert("trace_file".into(), text(trace_path.display().to_string()));
    }
    Ok(line)
}

/// Goodput of a second, identical stack started with head sampling off
/// (`trace_sample = 0`), for the sampling-cost ratio.
fn sampling_off_goodput(args: &Args, models: &ModelSet) -> Result<f64, String> {
    let stack = Stack::start(args.kind, models, 0)?;
    let addr = stack.addr().expect("serve-hot is networked");
    let plan = Plan::of(args.smoke);
    let env = Env {
        models,
        seed: args.seed,
        spans: None,
        smoke: args.smoke,
    };
    let lane = LANE_SECOND_SERVER;
    let result = net_conns(addr, models).and_then(|mut conns| {
        let warm = phase(
            &mut conns,
            &env,
            lane,
            Load::Closed,
            plan.warmup / 2,
            0,
            false,
            false,
        )?;
        let slices = sliced(
            &mut conns,
            &env,
            lane + CLIENTS as u64,
            Load::Closed,
            plan.saturate / 2,
            plan.closed_slice,
            0,
            Spans::None,
        )?;
        let mut tally = Tally::default();
        for log in warm.iter().chain(slices.iter().flat_map(|s| &s.logs)) {
            tally.merge(&log.tally);
        }
        if tally.failed() > 0 {
            return Err(format!(
                "{} requests failed on the sampling-off server",
                tally.failed()
            ));
        }
        Ok(median_or_zero(&slice_rates(&slices, |t| t.ok)))
    });
    stack.shutdown();
    result
}

/// The per-layer numbers of a traced run.
#[allow(clippy::too_many_lines)]
fn per_layer(
    run: &Run,
    models: &ModelSet,
    costs: &Costs,
    low: &[f64],
    tally: &Tally,
    untraced_rps: f64,
    sampling_off_rps: Option<f64>,
) -> Vec<(&'static str, f64)> {
    let [s0, s1, s2, s3, s4] = &run.scrapes;
    let (d_low, d_high, d_sat, d_all) = (s2.since(s1), s3.since(s2), s4.since(s3), s4.since(s0));
    let cluster = models.kind == Kind::ClusterShard;
    let devices = if cluster {
        cluster_config().nodes * runtime_config().devices
    } else {
        runtime_config().devices
    } as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut sat_all = Totals::default();
    for log in run.saturate.iter().flat_map(|s| &s.logs) {
        sat_all += log.all_ok;
    }
    let traced_rps = median_or_zero(&slice_rates(
        run.saturate.iter().filter(|s| s.traced),
        |t| t.ok,
    ));
    let sat_secs: f64 = run.saturate.iter().map(|s| s.duration.as_secs_f64()).sum();
    let lag_ms = sorted(
        &run.low
            .iter()
            .chain(&run.high)
            .flat_map(|s| &s.logs)
            .flat_map(|l| &l.lags_ns)
            .map(|&ns| ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let client_us: Vec<f64> = run
        .low
        .iter()
        .flat_map(|s| &s.logs)
        .flat_map(|l| &l.client_ns)
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    let shards_per_req = ratio(
        d_sat.value("requests_completed"),
        d_sat.value("cluster_completed"),
    );
    let stage_energy =
        |d: &Scrape| d.sum_where(|n| n.starts_with("stage_") && n.ends_with("_energy_joules"));
    let device_time =
        |d: &Scrape| d.sum_where(|n| n == "device_time_s" || n.ends_with("_device_time_s"));
    let runtime_p50_us = d_low.hist("latency").quantile_s(0.5) * 1e6;
    let p50_us = finite_ms(percentile(low, 50.0)) * 1e3;
    let exec_us = costs.execute.us;

    vec![
        ("bench.gen_lag_ms.p99", finite_ms(percentile(&lag_ms, 99.0))),
        ("bench.client_us", median_or_zero(&client_us)),
        ("bench.lat_samples.low", low.len() as f64),
        (
            "bench.lat_samples.high",
            latencies_ms(&run.high).len() as f64,
        ),
        ("net.http_parse_us", costs.http_parse_us),
        ("net.wire_parse_us", costs.wire_parse_us),
        ("net.reply_encode_us", costs.reply_encode_us),
        ("net.fair_ns", costs.fair_ns),
        ("net.front_us.p50", p50_us - runtime_p50_us),
        ("net.shed", d_all.value("net_shed")),
        ("net.replies_error", d_all.value("net_replies_error")),
        ("runtime.latency_ms.p50", runtime_p50_us / 1e3),
        (
            "runtime.queue_ms.p99",
            d_high.hist("stage_queue").quantile_s(0.99) * 1e3,
        ),
        (
            "runtime.worker_busy_frac",
            d_sat.value("worker_busy_ns") / 1e9 / (devices * sat_secs),
        ),
        (
            "runtime.batch_size",
            ratio(
                d_sat.value("requests_completed"),
                d_sat.value("batches_dispatched"),
            ),
        ),
        (
            "runtime.tile_hit_rate",
            ratio(
                d_sat.value("tile_hits"),
                d_sat.value("tile_hits") + d_sat.value("tile_writes"),
            ),
        ),
        (
            "runtime.tile_writes_per_req",
            ratio(d_sat.value("tile_writes"), sat_all.ok),
        ),
        (
            "runtime.deadline_misses",
            d_all.value("rejected_deadline") - tally.pre_expired_sent as f64,
        ),
        ("runtime.execute_us", exec_us),
        ("runtime.sched_us", runtime_p50_us - exec_us),
        ("cluster.coord_us", costs.coord_us),
        ("cluster.shards_per_req", shards_per_req),
        (
            "cluster.retried_shards",
            d_all.value("cluster_retried_shards"),
        ),
        ("cluster.shard_balance", s4.value("shard_balance")),
        ("tensor.matmul_ns_per_sample", costs.matmul_ns_per_sample),
        (
            "tensor.samples_per_call",
            ratio(
                sat_all.samples * shards_per_req.max(1.0),
                d_sat.value("batches_dispatched"),
            ),
        ),
        (
            "tensor.modeled_tops",
            ratio(sat_all.ops, device_time(&d_sat)) / 1e12,
        ),
        (
            "tensor.modeled_tops_per_w",
            ratio(sat_all.ops, stage_energy(&d_sat)) / 1e12,
        ),
        ("psram.write_us_per_tile", costs.write_us_per_tile),
        ("psram.modeled_pj_per_tile", costs.write_pj_per_tile),
        ("eoadc.digitize_ns_per_code", costs.digitize_ns_per_code),
        (
            "eoadc.modeled_energy_frac",
            ratio(
                d_sat.value("stage_digitize_energy_joules"),
                stage_energy(&d_sat),
            ),
        ),
        (
            "obs.bench_trace_overhead_frac",
            1.0 - ratio(traced_rps, untraced_rps),
        ),
        (
            "obs.head_sample_cost_frac",
            sampling_off_rps.map_or(0.0, |off| 1.0 - ratio(untraced_rps, off)),
        ),
    ]
}

/// The rows of the waterfall, outermost first, as `(key, label)`.
pub const WATERFALL_ROWS: [(&str, &str); 8] = [
    ("client_us", "client"),
    ("net_replay_us", "net replay (parse + fair + encode)"),
    ("net_unattributed_us", "net unattributed"),
    ("runtime_queue_sched_us", "runtime queue + sched"),
    ("psram_write_us", "execute: psram write"),
    ("tensor_matmul_us", "execute: tensor matmul"),
    ("eoadc_digitize_us", "execute: eoadc digitise"),
    ("execute_other_us", "execute: other"),
];

/// The low-rate p50 broken into layers, outside in, as `p50_us` and the
/// [`WATERFALL_ROWS`] keys; the rows sum to `p50_us`.
///
/// The client row is what the client adds to the requests around the
/// median (its 45th to 55th percentiles): send lag, the send and the
/// decode, i.e. latency minus the send-to-reply wait. The rest of the p50
/// is that wait. Over the network the wait holds the replayed front-end
/// calls, the runtime's own latency (the exact median of the front-end's
/// traced requests, finer than `/metrics`' log₂ buckets) and what neither
/// explains; in process it is the runtime's latency. The runtime splits
/// into the replayed execute time and the queueing and scheduling around
/// it, and execute into psram writes, tensor matmul and eoADC digitise
/// by count × replayed unit cost.
fn waterfall(run: &Run, models: &ModelSet, costs: &Costs, low: &[f64]) -> Vec<(&'static str, f64)> {
    let p50_us = finite_ms(percentile(low, 50.0)) * 1e3;
    let mut ok: Vec<Sample> = run
        .low
        .iter()
        .flat_map(|s| &s.logs)
        .flat_map(|l| &l.samples)
        .copied()
        .filter(|s| s.latency_ns != u64::MAX)
        .collect();
    ok.sort_by_key(|s| s.latency_ns);
    let (lo, hi) = (ok.len() * 45 / 100, ok.len() * 55 / 100);
    let band = &ok[lo..hi.max(lo + 1).min(ok.len())];
    let client_us = if band.is_empty() {
        0.0
    } else {
        band.iter()
            .map(|s| (s.latency_ns - s.wait_ns) as f64 / 1e3)
            .sum::<f64>()
            / band.len() as f64
    };
    let wait_us = p50_us - client_us;
    let (net_replay_us, runtime_us) = match &run.low_runtime_ns {
        Some(ns) if models.kind.networked() => (
            costs.http_parse_us + costs.wire_parse_us + costs.fair_ns / 1e3 + costs.reply_encode_us,
            median_or_zero(ns) / 1e3,
        ),
        _ => (0.0, wait_us),
    };
    let exec = costs.execute;
    let execute_us = exec.us.min(runtime_us);
    let rows = pic_tensor::TensorCoreConfig::paper().rows as f64;
    let psram_us = exec.tiles_written * costs.write_us_per_tile;
    let eoadc_us = exec.samples * exec.tile_passes * rows * costs.digitize_ns_per_code / 1e3;
    let tensor_us =
        (exec.samples * exec.tile_passes * costs.matmul_ns_per_sample / 1e3 - eoadc_us).max(0.0);
    let parts = psram_us + tensor_us + eoadc_us;
    let fit = if parts > execute_us {
        execute_us / parts
    } else {
        1.0
    };
    vec![
        ("p50_us", p50_us),
        ("client_us", client_us),
        ("net_replay_us", net_replay_us),
        ("net_unattributed_us", wait_us - net_replay_us - runtime_us),
        ("runtime_queue_sched_us", runtime_us - execute_us),
        ("psram_write_us", psram_us * fit),
        ("tensor_matmul_us", tensor_us * fit),
        ("eoadc_digitize_us", eoadc_us * fit),
        ("execute_other_us", execute_us - parts * fit),
    ]
}

/// The child's one JSON line.
fn result_line(
    args: &Args,
    tally: &Tally,
    checks: Value,
    metrics: &BTreeMap<&'static str, f64>,
    counts: &BTreeMap<String, f64>,
    waterfall: Option<&[(&'static str, f64)]>,
) -> Value {
    let mut line = obj([
        ("workload", text(args.spec.name)),
        ("seed", num(args.seed as f64)),
        ("trace", Value::Bool(args.trace)),
        ("attempted", num(tally.attempted as f64)),
        ("failed", num(tally.failed() as f64)),
        ("checks", checks),
        (
            "metrics",
            obj(metrics.iter().map(|(k, v)| (k.to_string(), num(*v)))),
        ),
        (
            "counts",
            obj(counts.iter().map(|(k, v)| (k.clone(), num(*v)))),
        ),
    ]);
    if let (Value::Object(map), Some(rows)) = (&mut line, waterfall) {
        map.insert(
            "waterfall".into(),
            obj(rows.iter().map(|&(k, v)| (k, num(v)))),
        );
    }
    line
}
