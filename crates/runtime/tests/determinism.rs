//! Pool-size determinism: serving through four devices is bit-identical
//! to serving through one, regardless of scheduling interleavings.

use pic_runtime::{
    MatmulRequest, OutputElement, Runtime, RuntimeConfig, TileExecutor, TileShape, TiledMatrix,
};
use pic_tensor::TensorCoreConfig;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A request against one of the shared matrices: (matrix index, input batch).
type WorkItem = (usize, Vec<Vec<f64>>);

fn mixed_workload(seed: u64) -> (Vec<Arc<TiledMatrix>>, Vec<WorkItem>) {
    let cfg = TensorCoreConfig::small_demo();
    let mut rng = StdRng::seed_from_u64(seed);
    let shapes = [(4, 4), (10, 7), (8, 12), (16, 16)];
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
    let requests = (0..48)
        .map(|_| {
            let which = rng.gen_range(0..matrices.len());
            let samples = rng.gen_range(1..=3);
            let inputs = (0..samples)
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

fn serve(
    devices: usize,
    matrices: &[Arc<TiledMatrix>],
    requests: &[WorkItem],
) -> Vec<Vec<Vec<OutputElement>>> {
    let rt = Runtime::start(RuntimeConfig {
        core: TensorCoreConfig::small_demo(),
        devices,
        queue_depth: 128,
        max_batch: 8,
        policy: pic_runtime::AdmissionPolicyKind::ResidencyAware,
        max_delay: std::time::Duration::from_millis(100),
    });
    let handles: Vec<_> = requests
        .iter()
        .map(|(which, inputs)| {
            rt.submit_blocking(MatmulRequest::new(
                Arc::clone(&matrices[*which]),
                inputs.clone(),
            ))
            .expect("accepted")
        })
        .collect();
    let outputs: Vec<_> = handles
        .into_iter()
        .map(|h| h.wait().expect("completed").outputs)
        .collect();
    assert_eq!(
        rt.metrics().completed.load(Ordering::Relaxed),
        requests.len() as u64,
        "no lost responses"
    );
    outputs
}

#[test]
fn pool_of_four_is_bit_identical_to_pool_of_one() {
    let (matrices, requests) = mixed_workload(7);
    let quad = serve(4, &matrices, &requests);
    let solo = serve(1, &matrices, &requests);
    assert_eq!(quad.len(), solo.len());
    for (i, (q, s)) in quad.iter().zip(&solo).enumerate() {
        assert_eq!(q, s, "request {i} differs between pool sizes");
    }
}

#[test]
fn runtime_matches_direct_executor_results() {
    let (matrices, requests) = mixed_workload(11);
    let served = serve(4, &matrices, &requests);
    let mut exec = TileExecutor::new(TensorCoreConfig::small_demo(), 0);
    for (i, ((which, inputs), got)) in requests.iter().zip(&served).enumerate() {
        let (want, _) = exec.execute(&matrices[*which], inputs).expect("reference");
        assert_eq!(got, &want, "request {i} differs from direct execution");
    }
}
