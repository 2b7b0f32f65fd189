//! Property tests on admission policies: the starvation bound, deadline
//! safety within slack, FIFO degeneration, and cross-policy
//! bit-identity of served results (order-independence of the digital
//! post-ADC accumulation). Plus the residency gain itself: on a queued
//! Zipf burst, residency-aware admission lifts the tile-hit rate over
//! FIFO's. And admission into the queue: `queue_depth` bounds every
//! request no worker has taken.

mod support;

use pic_runtime::{
    AdmissionPolicy, AdmissionPolicyKind, DispatchContext, GroupView, MatmulRequest,
    ResidencyAware, Runtime, RuntimeConfig, RuntimeError, TileExecutor, TileShape, TiledMatrix,
};
use pic_tensor::TensorCoreConfig;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MAX_DELAY: Duration = Duration::from_millis(200);

/// A synthetic pending-group population at a fixed observation instant.
/// `deadline_ms[i]`: 0 = no deadline, else deadline at `t0 + that - 250 ms`
/// (so some groups are urgent, some comfortable).
fn build_views(t0: Instant, deadline_ms: &[u32]) -> Vec<GroupView> {
    deadline_ms
        .iter()
        .enumerate()
        .map(|(i, &d)| GroupView {
            matrix_id: 100 + i as u64,
            head_seq: i as u64,
            len: 1 + i % 3,
            oldest_submitted_at: t0,
            earliest_deadline: (d > 0)
                .then(|| t0 + Duration::from_millis(u64::from(d)) - Duration::from_millis(250)),
        })
        .collect()
}

fn context(resident: &[u64], last: Option<u64>) -> DispatchContext<'_> {
    DispatchContext {
        resident,
        last_dispatched: last,
    }
}

/// The matrices of the views whose `warm_mask` entry is 1: the tiles
/// idle devices hold.
fn resident(views: &[GroupView], warm_mask: &[u32]) -> Vec<u64> {
    views
        .iter()
        .zip(warm_mask)
        .filter(|(_, &w)| w == 1)
        .map(|(v, _)| v.matrix_id)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Starvation bound: once the arrival-order front group has been the
    /// front for `max_delay`, ResidencyAware serves it — no matter how
    /// warm or urgent the rest of the population looks.
    #[test]
    fn residency_never_starves_the_front_past_max_delay(
        deadlines in proptest::collection::vec(0u32..800, 2..7),
        warm_mask in proptest::collection::vec(0u32..2, 2..7),
    ) {
        let t0 = Instant::now();
        let views = build_views(t0, &deadlines);
        let resident = resident(&views, &warm_mask);
        let last = views.last().map(|v| v.matrix_id);
        let ctx = context(&resident, last);
        let mut policy = ResidencyAware::new(MAX_DELAY);
        // First observation arms the starvation clock for the front…
        let _ = policy.select(&views, &ctx, t0);
        // …and past max_delay the front must win unconditionally.
        let late = t0 + MAX_DELAY + Duration::from_millis(1);
        prop_assert_eq!(policy.select(&views, &ctx, late), 0);
    }

    /// Deadline safety: while nothing is starving, any group due within
    /// the reorder horizon is served most-urgent-first — a group with
    /// slack is never dispatched ahead of one without.
    #[test]
    fn residency_serves_the_most_urgent_group_within_slack(
        deadlines in proptest::collection::vec(0u32..800, 2..7),
        warm_mask in proptest::collection::vec(0u32..2, 2..7),
    ) {
        let t0 = Instant::now();
        let views = build_views(t0, &deadlines);
        let resident = resident(&views, &warm_mask);
        let ctx = context(&resident, views.last().map(|v| v.matrix_id));
        let mut policy = ResidencyAware::new(MAX_DELAY);
        let picked = policy.select(&views, &ctx, t0);
        let horizon = t0 + MAX_DELAY;
        let urgent: Vec<&GroupView> = views
            .iter()
            .filter(|v| v.earliest_deadline.is_some_and(|d| d <= horizon))
            .collect();
        if let Some(most_urgent) = urgent
            .iter()
            .min_by_key(|v| (v.earliest_deadline, v.head_seq))
        {
            prop_assert_eq!(
                views[picked].matrix_id,
                most_urgent.matrix_id,
                "urgent deadlines dispatch most-urgent-first"
            );
        }
    }

    /// With no deadlines and no warm workers, ResidencyAware degenerates
    /// to strict FIFO (and Fifo itself is FIFO by construction).
    #[test]
    fn residency_without_context_is_fifo(
        group_count in 1usize..7,
    ) {
        let t0 = Instant::now();
        let views = build_views(t0, &vec![0u32; group_count]);
        let ctx = context(&[], None);
        let mut policy = ResidencyAware::new(MAX_DELAY);
        prop_assert_eq!(policy.select(&views, &ctx, t0), 0);
        let mut fifo = AdmissionPolicyKind::Fifo.build(MAX_DELAY);
        prop_assert_eq!(fifo.select(&views, &ctx, t0), 0);
    }

    /// EDF picks the globally tightest deadline; deadline-free groups
    /// rank behind every deadlined one.
    #[test]
    fn edf_picks_the_tightest_deadline(
        deadlines in proptest::collection::vec(0u32..800, 1..7),
    ) {
        let t0 = Instant::now();
        let views = build_views(t0, &deadlines);
        let ctx = context(&[], None);
        let mut edf = AdmissionPolicyKind::EarliestDeadlineFirst.build(MAX_DELAY);
        let picked = &views[edf.select(&views, &ctx, t0)];
        match views
            .iter()
            .filter(|v| v.earliest_deadline.is_some())
            .min_by_key(|v| (v.earliest_deadline, v.head_seq))
        {
            Some(want) => prop_assert_eq!(picked.matrix_id, want.matrix_id),
            None => prop_assert_eq!(picked.head_seq, 0, "all deadline-free: FIFO"),
        }
    }
}

/// A request against one of the shared matrices: (matrix index, inputs).
type WorkItem = (usize, Vec<Vec<f64>>);

/// A small mixed workload: a few shared matrices, Zipf-flavoured skew.
fn workload(seed: u64) -> (Vec<Arc<TiledMatrix>>, Vec<WorkItem>) {
    let cfg = TensorCoreConfig::small_demo();
    let mut rng = StdRng::seed_from_u64(seed);
    let shapes = [(4, 4), (4, 4), (10, 7), (8, 8)];
    let matrices: Vec<Arc<TiledMatrix>> = shapes
        .iter()
        .map(|&(out, inp)| {
            let codes: Vec<Vec<u32>> = (0..out)
                .map(|_| (0..inp).map(|_| rng.gen_range(0..=7u32)).collect())
                .collect();
            Arc::new(TiledMatrix::from_codes(
                &codes,
                cfg.weight_bits,
                TileShape::new(cfg.rows, cfg.cols),
            ))
        })
        .collect();
    let requests = (0..36)
        .map(|_| {
            // Skew toward the first two matrices, like real serving.
            let which = if rng.gen_range(0..10) < 7 {
                rng.gen_range(0..2)
            } else {
                rng.gen_range(2..matrices.len())
            };
            let inputs = (0..rng.gen_range(1..=2))
                .map(|_| {
                    (0..matrices[which].in_dim())
                        .map(|_| rng.gen_range(0.0..=1.0))
                        .collect()
                })
                .collect();
            (which, inputs)
        })
        .collect();
    (matrices, requests)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// End-to-end: every policy serves the same workload with
    /// bit-identical per-request outputs (the digital accumulation is
    /// order-independent), and ResidencyAware never expires a request
    /// whose deadline had comfortable slack at admission.
    #[test]
    fn policies_are_bit_identical_and_deadline_safe(seed in 0u64..1000) {
        let (matrices, requests) = workload(seed);
        let mut per_policy: Vec<Vec<Vec<Vec<pic_runtime::OutputElement>>>> = Vec::new();
        for kind in AdmissionPolicyKind::ALL {
            let rt = Runtime::start(RuntimeConfig {
                core: TensorCoreConfig::small_demo(),
                devices: 2,
                queue_depth: 64,
                max_batch: 4,
                policy: kind,
                max_delay: Duration::from_millis(50),
            });
            let handles: Vec<_> = requests
                .iter()
                .map(|(which, inputs)| {
                    // Slack far beyond the drain time of 36 tiny requests:
                    // reordering must never turn it into a miss.
                    let req = MatmulRequest::new(Arc::clone(&matrices[*which]), inputs.clone())
                        .with_deadline(Instant::now() + Duration::from_secs(120));
                    rt.submit_blocking(req).expect("accepted")
                })
                .collect();
            let outputs: Vec<_> = handles
                .into_iter()
                .map(|h| {
                    h.wait()
                        .unwrap_or_else(|e| panic!("{} lost a slack-rich request: {e}", kind.label()))
                        .outputs
                })
                .collect();
            let m = rt.metrics();
            prop_assert_eq!(
                m.rejected_deadline.load(Ordering::Relaxed),
                0,
                "no deadline miss under {}",
                kind.label()
            );
            prop_assert_eq!(m.completed.load(Ordering::Relaxed), requests.len() as u64);
            per_policy.push(outputs);
        }
        prop_assert_eq!(&per_policy[0], &per_policy[1], "fifo vs residency");
        prop_assert_eq!(&per_policy[0], &per_policy[2], "fifo vs edf");
    }
}

/// A queued burst's served outputs and the tile-hit rate of its device
/// passes.
struct BurstOutcome {
    outputs: Vec<Option<Vec<Vec<pic_runtime::OutputElement>>>>,
    hit_rate: f64,
}

/// Serves the whole `stream` on one paper device under `policy`, with
/// the burst queued before the worker picks its first batch: the only
/// worker is wedged on a holder request while the burst is submitted.
/// The hit rate counts the burst's device passes only; each request
/// reports its whole batch's tile counts, so a request counts
/// `1 / batched_with` of them.
///
/// The run is exact: one worker takes every batch, each pick sees the
/// whole remaining burst and the one device's tile from the previous
/// pass, and the live requests carry no deadline and the starvation
/// bound outlasts the test, so no choice depends on the clock. Every
/// pick then follows from the queued burst alone.
fn serve_queued_burst(
    policy: AdmissionPolicyKind,
    models: &[Arc<TiledMatrix>],
    stream: &[support::StreamItem],
) -> BurstOutcome {
    let config = RuntimeConfig {
        devices: 1,
        max_delay: Duration::from_secs(60),
        ..RuntimeConfig::paper().with_policy(policy)
    };
    let rt = Runtime::start(config);
    let holder = {
        let codes = vec![vec![1u32; config.core.cols]; config.core.rows];
        let shape = TileShape::new(config.core.rows, config.core.cols);
        let matrix = TiledMatrix::from_codes(&codes, config.core.weight_bits, shape);
        MatmulRequest::new(Arc::new(matrix), vec![vec![0.5; config.core.cols]])
    };
    let wedged = support::WedgedWorker::hold(&rt, holder);
    let handles: Vec<_> = stream
        .iter()
        .map(|(which, inputs, expired)| {
            let request = MatmulRequest::new(Arc::clone(&models[*which]), inputs.clone());
            rt.submit(if *expired {
                request.with_deadline(Instant::now() - Duration::from_millis(1))
            } else {
                request
            })
        })
        .collect();
    drop(wedged);
    let (mut hits, mut passes) = (0.0, 0.0);
    let outputs = handles
        .into_iter()
        .zip(stream)
        .enumerate()
        .map(|(i, (handle, (_, _, expired)))| {
            match handle.and_then(pic_runtime::ResponseHandle::wait) {
                Ok(resp) => {
                    assert!(!expired, "request {i} was served past its deadline");
                    let share = 1.0 / resp.batched_with as f64;
                    hits += resp.cost.tiles_resident as f64 * share;
                    passes += (resp.cost.tiles_resident + resp.cost.tiles_written) as f64 * share;
                    Some(resp.outputs)
                }
                Err(RuntimeError::DeadlineExpired) if *expired => None,
                Err(e) => panic!("{}: request {i} failed: {e}", policy.label()),
            }
        })
        .collect();
    BurstOutcome {
        outputs,
        hit_rate: hits / passes,
    }
}

/// Residency-aware admission reaches at least 1.5× FIFO's tile-hit rate
/// on the seeded twelve-model Zipf burst (it reads 0.430 against
/// 0.023), with outputs bit-identical across the policies and to a
/// solo executor.
#[test]
fn residency_aware_admission_lifts_the_hit_rate_of_a_queued_zipf_burst() {
    let (models, stream) = support::workload(TensorCoreConfig::paper(), 400);
    let fifo = serve_queued_burst(AdmissionPolicyKind::Fifo, &models, &stream);
    let residency = serve_queued_burst(AdmissionPolicyKind::ResidencyAware, &models, &stream);
    assert!(
        fifo.outputs == residency.outputs,
        "admission order changed what a request computes"
    );
    let mut solo = TileExecutor::new(TensorCoreConfig::paper(), 900);
    for (i, ((which, inputs, _), served)) in stream.iter().zip(&fifo.outputs).enumerate() {
        if let Some(outputs) = served {
            let (want, _) = solo.execute(&models[*which], inputs).expect("replay");
            assert!(*outputs == want, "request {i} differs from a solo executor");
        }
    }
    assert!(
        residency.hit_rate >= 1.5 * fifo.hit_rate,
        "residency hit rate {:.3} is under 1.5x fifo's {:.3}",
        residency.hit_rate,
        fifo.hit_rate
    );
}

/// `queue_depth` bounds every accepted request no worker has taken:
/// with the only worker wedged, exactly `queue_depth` submits are
/// accepted and the next is `QueueFull`; once the worker is released,
/// every accepted request is served.
#[test]
fn queue_depth_bounds_the_work_no_worker_has_taken() {
    let config = RuntimeConfig {
        core: TensorCoreConfig::small_demo(),
        devices: 1,
        queue_depth: 12,
        max_batch: 4,
        policy: AdmissionPolicyKind::Fifo,
        max_delay: Duration::from_millis(100),
    };
    let (matrices, requests) = workload(5);
    let rt = Runtime::start(config);
    let request = |i: usize| {
        let (which, inputs) = &requests[i];
        MatmulRequest::new(Arc::clone(&matrices[*which]), inputs.clone())
    };
    let wedged = support::WedgedWorker::hold(&rt, request(0));
    let accepted: Vec<_> = (1..=config.queue_depth)
        .map(|i| {
            rt.submit(request(i))
                .unwrap_or_else(|e| panic!("submit {i} is within the bound: {e}"))
        })
        .collect();
    assert!(
        matches!(
            rt.submit(request(config.queue_depth + 1)),
            Err(RuntimeError::QueueFull)
        ),
        "submit {} is past the bound",
        config.queue_depth + 1
    );
    assert_eq!(rt.metrics().rejected_queue_full.load(Ordering::Relaxed), 1);
    drop(wedged);
    for (i, handle) in accepted.into_iter().enumerate() {
        handle
            .wait()
            .unwrap_or_else(|e| panic!("accepted request {} was not served: {e}", i + 1));
    }
    assert_eq!(
        rt.metrics().completed.load(Ordering::Relaxed),
        1 + config.queue_depth as u64
    );
}
