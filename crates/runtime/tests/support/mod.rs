//! Test support shared by the runtime and cluster suites (the cluster
//! suite includes this file by path): the seeded twelve-model Zipf
//! serving workload, and a wedge that holds one worker busy on demand.

use pic_runtime::{CompletionWaker, MatmulRequest, Runtime, TileShape, TiledMatrix};
use pic_tensor::TensorCoreConfig;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Ranked model shapes, the same mix as the benchmark's `serve-hot`
/// workload: the hot ranks are single-tile on the 16×16 paper core,
/// with a ragged single-tile model and multi-tile models (2×2, 3×2 and
/// 3×1 tile grids) through the tail.
const SHAPE_MIX: [(usize, usize); 12] = [
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

/// Zipf skew of model popularity.
const ZIPF_S: f64 = 1.1;

/// One request of the stream: (model rank, inputs, pre-expired?).
pub type StreamItem = (usize, Vec<Vec<f64>>, bool);

/// Rank `k`'s share of the traffic, `1/(k+1)^s` normalised.
pub fn zipf_shares() -> Vec<f64> {
    let weights: Vec<f64> = (1..=SHAPE_MIX.len())
        .map(|k| 1.0 / (k as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    weights.iter().map(|w| w / total).collect()
}

/// The serving workload at seed 42: one model per shape of the mix,
/// and `requests` requests of 1–2 samples over them with Zipf
/// popularity. Every 50th request is marked as already expired.
pub fn workload(
    core: TensorCoreConfig,
    requests: usize,
) -> (Vec<Arc<TiledMatrix>>, Vec<StreamItem>) {
    let mut rng = StdRng::seed_from_u64(42);
    let max_code = (1u32 << core.weight_bits) - 1;
    let models: Vec<Arc<TiledMatrix>> = SHAPE_MIX
        .iter()
        .map(|&(out, inp)| {
            let codes: Vec<Vec<u32>> = (0..out)
                .map(|_| (0..inp).map(|_| rng.gen_range(0..=max_code)).collect())
                .collect();
            Arc::new(TiledMatrix::from_codes(
                &codes,
                core.weight_bits,
                TileShape::new(core.rows, core.cols),
            ))
        })
        .collect();
    let cdf: Vec<f64> = zipf_shares()
        .iter()
        .scan(0.0, |acc, share| {
            *acc += share;
            Some(*acc)
        })
        .collect();
    let stream = (0..requests)
        .map(|i| {
            let u = rng.gen_range(0.0..=1.0);
            let which = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
            let samples = rng.gen_range(1..=2);
            let inputs = (0..samples)
                .map(|_| {
                    (0..models[which].in_dim())
                        .map(|_| rng.gen_range(0.0..=1.0))
                        .collect()
                })
                .collect();
            (which, inputs, i % 50 == 17)
        })
        .collect();
    (models, stream)
}

/// A completion waker that parks the runtime thread firing it until
/// released: a wedged device.
///
/// This breaks [`CompletionWaker`]'s "must not block" contract on
/// purpose. A worker fires a request's waker after the device pass,
/// so a wedged request keeps its worker busy, and the work behind it
/// stays in the runtime's pending queue, where it counts against
/// `queue_depth` and a kill abandons it.
#[derive(Default)]
struct Wedge {
    /// (a thread is parked in `wake`, the test released it)
    state: Mutex<(bool, bool)>,
    signal: Condvar,
}

impl CompletionWaker for Wedge {
    fn wake(&self, _token: u64) {
        let mut state = self.state.lock().expect("wedge lock");
        state.0 = true;
        self.signal.notify_all();
        drop(self.signal.wait_while(state, |s| !s.1).expect("wedge lock"));
    }
}

/// One worker of a runtime, held busy until this is dropped.
pub struct WedgedWorker(Arc<Wedge>);

impl WedgedWorker {
    /// Submits `holder` to `runtime` under a wedge and blocks until a
    /// worker has served it and parked in its waker.
    pub fn hold(runtime: &Runtime, holder: MatmulRequest) -> Self {
        let wedge = Arc::new(Wedge::default());
        let waker = Arc::clone(&wedge) as Arc<dyn CompletionWaker>;
        drop(
            runtime
                .submit_with_waker(holder, 0, waker)
                .expect("the holder request is accepted"),
        );
        let state = wedge.state.lock().expect("wedge lock");
        let (state, wait) = wedge
            .signal
            .wait_timeout_while(state, Duration::from_secs(60), |s| !s.0)
            .expect("wedge lock");
        assert!(!wait.timed_out(), "no worker served the holder in 60 s");
        drop(state);
        WedgedWorker(wedge)
    }
}

impl Drop for WedgedWorker {
    fn drop(&mut self) {
        // Release even after a panic elsewhere poisoned the lock: a
        // worker left parked would hang the runtime's shutdown.
        let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.1 = true;
        self.0.signal.notify_all();
    }
}
