//! Regression pin for the closed-loop tail stall (EXPERIMENTS.md
//! §SERVING-NET).
//!
//! Root cause: every pSRAM tile write re-ran the full per-bitcell
//! write-transient co-simulation (~100 ms of ODE integration per
//! tile), so any request that missed residency stalled the worker —
//! a window-1 closed loop showed p50 ≈ 0 ms but p99 > 100 ms. The fix
//! replays cached flip transients (`pic_psram::WriteTransientCache`),
//! bit-identical to the full simulation, making writes microsecond-
//! scale. This test drives the same window-1 closed loop that exposed
//! the stall and pins the tail well below the failure signature.

use pic_runtime::{
    AdmissionPolicyKind, MatmulRequest, ResponseHandle, Runtime, RuntimeConfig, TileShape,
    TiledMatrix,
};
use pic_tensor::TensorCoreConfig;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pre-fix, a window-1 closed loop over residency-missing requests had
/// p99 > 100 ms (one full write-transient simulation per missed tile).
/// Post-fix it sits near 2 ms in release builds; 50 ms leaves room for
/// debug builds and loaded CI hosts while staying far below the
/// failure signature.
const TAIL_BOUND: Duration = Duration::from_millis(50);

#[test]
fn window_one_closed_loop_tail_stays_below_the_stall_signature() {
    let config = RuntimeConfig {
        core: TensorCoreConfig::paper(),
        devices: 2,
        queue_depth: 64,
        max_batch: 4,
        policy: AdmissionPolicyKind::ResidencyAware,
        max_delay: Duration::from_millis(10),
    };
    let shape = TileShape::new(config.core.rows, config.core.cols);
    // More distinct single-tile models than comfortably stay hot, so a
    // steady share of requests misses residency and pays a tile write
    // on the critical path — exactly the pre-fix stall trigger.
    let models: Vec<Arc<TiledMatrix>> = (0..8)
        .map(|m| {
            let codes: Vec<Vec<u32>> = (0..config.core.rows)
                .map(|r| {
                    (0..config.core.cols)
                        .map(|c| ((m + r + c) % 8) as u32)
                        .collect()
                })
                .collect();
            Arc::new(TiledMatrix::from_codes(&codes, 3, shape))
        })
        .collect();

    let rt = Runtime::start(config);
    let inputs = vec![vec![0.5; config.core.cols]];
    let mut slowest = Duration::ZERO;
    for i in 0..120 {
        let started = Instant::now();
        let resp = rt
            .submit_blocking(MatmulRequest::new(
                Arc::clone(&models[(i * 3) % models.len()]),
                inputs.clone(),
            ))
            .and_then(ResponseHandle::wait)
            .expect("window-1 request serves");
        assert_eq!(resp.outputs.len(), 1);
        slowest = slowest.max(started.elapsed());
    }
    let writes = rt.metrics().tile_writes.load(Ordering::Relaxed);
    assert!(
        writes >= 8,
        "the loop must actually exercise the write path, got {writes} tile writes"
    );
    assert!(
        slowest < TAIL_BOUND,
        "window-1 tail regressed: slowest request took {slowest:?} \
         (bound {TAIL_BOUND:?}; the pre-fix write-transient stall was >100 ms)"
    );
}
