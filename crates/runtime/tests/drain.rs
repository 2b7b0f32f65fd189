//! Concurrent submit-during-drain: clients race `Runtime` shutdown and
//! every in-flight request must resolve to exactly one terminal state —
//! `Ok`, or a typed `QueueFull` / `ShuttingDown` / `WorkerLost` — with
//! no hangs and no double sends, under both `fifo` and `residency`
//! admission.

use pic_runtime::{
    AdmissionPolicyKind, MatmulRequest, Runtime, RuntimeConfig, RuntimeError, TileShape,
    TiledMatrix,
};
use pic_tensor::TensorCoreConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn runtime(policy: AdmissionPolicyKind) -> Runtime {
    Runtime::start(RuntimeConfig {
        core: TensorCoreConfig::small_demo(),
        devices: 2,
        queue_depth: 32,
        max_batch: 4,
        policy,
        max_delay: Duration::from_millis(100),
    })
}

fn matrix(out: usize, inp: usize, seed: usize) -> Arc<TiledMatrix> {
    let codes: Vec<Vec<u32>> = (0..out)
        .map(|r| (0..inp).map(|c| ((seed + r + 2 * c) % 8) as u32).collect())
        .collect();
    Arc::new(TiledMatrix::from_codes(&codes, 3, TileShape::new(4, 4)))
}

/// Per-outcome tallies from one racing client fleet.
#[derive(Default)]
struct Outcomes {
    ok: AtomicU64,
    queue_full: AtomicU64,
    shutting_down: AtomicU64,
    worker_lost: AtomicU64,
}

fn race_drain(policy: AdmissionPolicyKind) {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 60;
    let mut rt = runtime(policy);
    let models: Vec<Arc<TiledMatrix>> = (0..4).map(|s| matrix(8, 8, s)).collect();
    let outcomes = Outcomes::default();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let rt = &rt;
            let models = &models;
            let outcomes = &outcomes;
            scope.spawn(move || {
                for i in 0..PER_CLIENT {
                    let m = &models[(c + i) % models.len()];
                    let req = MatmulRequest::new(Arc::clone(m), vec![vec![0.5; m.in_dim()]]);
                    // Every submission resolves exactly once: either the
                    // submit call returns the typed error, or the handle
                    // yields the single response. A hang here fails the
                    // test by timeout; a double send is structurally
                    // impossible (the handle consumes a one-shot slot)
                    // and would trip the exact-count accounting below.
                    let outcome = rt.submit(req).and_then(|h| {
                        h.wait_timeout(Duration::from_secs(30))
                            .unwrap_or(Err(RuntimeError::WorkerLost))
                    });
                    let cell = match outcome {
                        Ok(resp) => {
                            assert_eq!(resp.outputs.len(), 1);
                            &outcomes.ok
                        }
                        Err(RuntimeError::QueueFull) => &outcomes.queue_full,
                        Err(RuntimeError::ShuttingDown) => &outcomes.shutting_down,
                        Err(RuntimeError::WorkerLost) => &outcomes.worker_lost,
                        Err(other) => panic!("unexpected terminal state: {other}"),
                    };
                    cell.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Let the fleet get traffic in flight, then drain through &self
        // mid-burst: submits race the intake closing.
        std::thread::sleep(Duration::from_millis(2));
        rt.drain();
        assert!(!rt.is_accepting(), "drain closes intake");
    });
    rt.shutdown();

    let ok = outcomes.ok.load(Ordering::Relaxed);
    let queue_full = outcomes.queue_full.load(Ordering::Relaxed);
    let shutting_down = outcomes.shutting_down.load(Ordering::Relaxed);
    let worker_lost = outcomes.worker_lost.load(Ordering::Relaxed);
    assert_eq!(
        ok + queue_full + shutting_down + worker_lost,
        (CLIENTS * PER_CLIENT) as u64,
        "every request resolves to exactly one terminal state"
    );
    // Everything the runtime accepted was served: accepted-but-dropped
    // work would surface as WorkerLost on a handle whose submit
    // succeeded, and the drain contract forbids that.
    assert_eq!(
        worker_lost, 0,
        "drain must flush accepted work, not abandon it"
    );
    let m = rt.metrics();
    assert_eq!(
        m.completed.load(Ordering::Relaxed),
        ok,
        "runtime accounting matches the clients'"
    );
    assert_eq!(
        m.submitted.load(Ordering::Relaxed),
        ok,
        "accepted == served under drain"
    );
}

#[test]
fn submits_racing_drain_resolve_exactly_once_under_fifo() {
    race_drain(AdmissionPolicyKind::Fifo);
}

#[test]
fn submits_racing_drain_resolve_exactly_once_under_residency() {
    race_drain(AdmissionPolicyKind::ResidencyAware);
}

#[test]
fn drain_is_idempotent_and_permanent() {
    let rt = runtime(AdmissionPolicyKind::Fifo);
    assert!(rt.is_accepting());
    let m = matrix(4, 4, 0);
    let h = rt
        .submit(MatmulRequest::new(Arc::clone(&m), vec![vec![0.5; 4]]))
        .expect("accepted before drain");
    rt.drain();
    rt.drain(); // idempotent
    assert!(!rt.is_accepting());
    assert!(matches!(
        rt.submit(MatmulRequest::new(Arc::clone(&m), vec![vec![0.5; 4]])),
        Err(RuntimeError::ShuttingDown)
    ));
    assert!(matches!(
        rt.submit_blocking(MatmulRequest::new(m, vec![vec![0.5; 4]])),
        Err(RuntimeError::ShuttingDown)
    ));
    // Work accepted before the drain still completes.
    assert!(h.wait().is_ok(), "pre-drain work flushes");
}
