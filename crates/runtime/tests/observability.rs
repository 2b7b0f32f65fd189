//! End-to-end observability: stage attribution, energy reconciliation
//! and the exposition frame against a live runtime.

use pic_obs::{Frame, Stage};
use pic_runtime::{MatmulRequest, Runtime, RuntimeConfig, TileShape, TiledMatrix};
use pic_tensor::TensorCoreConfig;
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn runtime(devices: usize) -> Runtime {
    let mut config = RuntimeConfig::paper();
    config.core = TensorCoreConfig::small_demo();
    config.devices = devices;
    Runtime::start(config)
}

fn matrix(out: usize, inp: usize, seed: usize) -> Arc<TiledMatrix> {
    let codes: Vec<Vec<u32>> = (0..out)
        .map(|r| (0..inp).map(|c| ((seed + r + 2 * c) % 8) as u32).collect())
        .collect();
    Arc::new(TiledMatrix::from_codes(&codes, 3, TileShape::new(4, 4)))
}

fn serve(rt: &Runtime, m: &Arc<TiledMatrix>, requests: usize) {
    let handles: Vec<_> = (0..requests)
        .map(|i| {
            let x = vec![vec![((i % 5) as f64) / 5.0; m.in_dim()]];
            rt.submit_blocking(MatmulRequest::new(Arc::clone(m), x))
                .expect("accepted")
        })
        .collect();
    for h in handles {
        h.wait().expect("served");
    }
}

#[test]
fn stages_cover_the_request_lifecycle() {
    let mut rt = runtime(2);
    let m = matrix(10, 7, 0);
    serve(&rt, &m, 30);
    // Join every thread first: a worker records its Respond span just
    // after the last response lands, so reading earlier would race.
    rt.shutdown();
    let stages = &rt.metrics().stages;
    // Every served request passes submit and queue once.
    assert_eq!(stages.hist(Stage::Submit).count(), 30);
    assert_eq!(stages.hist(Stage::Queue).count(), 30);
    // Dispatch-side stages fire once per batch; batching makes the
    // batch count ≤ the request count, but never zero.
    let batches = stages.hist(Stage::Admission).count();
    assert!((1..=30).contains(&batches), "batches {batches}");
    assert_eq!(stages.hist(Stage::Respond).count(), batches);
    // The compute stages fire per tile pass on the worker threads (the
    // traced two-phase kernel), write only on residency misses.
    assert!(stages.hist(Stage::Compute).count() >= batches);
    assert_eq!(
        stages.hist(Stage::Compute).count(),
        stages.hist(Stage::Digitize).count(),
        "compute and digitize phases are paired"
    );
    assert!(stages.hist(Stage::Merge).count() > 0);
    let writes = stages.hist(Stage::Write).count();
    assert!(writes >= 1, "cold start must stream tiles");
    assert_eq!(writes, rt.metrics().tile_writes.load(Ordering::Relaxed));
}

#[test]
fn stage_energy_reconciles_with_the_totals() {
    let mut rt = runtime(2);
    for seed in 0..3 {
        let m = matrix(8, 8, seed);
        serve(&rt, &m, 10);
    }
    rt.shutdown();
    let metrics = rt.metrics();
    let (energy_j, write_energy_j) = (metrics.energy_j.get(), metrics.write_energy_j.get());
    assert!(energy_j > 0.0);
    // Write-stage energy is the write total exactly; compute + digitize
    // recompose the compute share; the three together recompose
    // `energy_j`. Tolerances cover f64 accumulation-order differences.
    let write = metrics.stages.energy_j(Stage::Write);
    assert!(
        (write - write_energy_j).abs() <= 1e-9 * write_energy_j.max(1e-30),
        "write stage {write} J vs counter {write_energy_j} J"
    );
    let staged = metrics.stage_energy_total_j();
    assert!(
        (staged - energy_j).abs() <= 1e-9 * energy_j,
        "stage sum {staged} J vs total {energy_j} J"
    );
    // Digitisation carries a real share of compute energy (the paper's
    // eoADC is a first-class power term), and the analog compute stage
    // keeps the rest.
    assert!(metrics.stages.energy_j(Stage::Digitize) > 0.0);
    assert!(metrics.stages.energy_j(Stage::Compute) > 0.0);
    // Stages that model no hardware energy stay at zero attribution.
    assert_eq!(metrics.stages.energy_j(Stage::Queue), 0.0);
    assert_eq!(metrics.stages.energy_j(Stage::Admission), 0.0);
}

#[test]
fn final_frame_reports_the_drained_state_and_deltas() {
    let mut rt = runtime(1);
    let m = matrix(4, 4, 1);
    serve(&rt, &m, 10);
    let mid = rt.frame();
    serve(&rt, &m, 10);
    rt.shutdown();
    // The frame after shutdown reports the drained state: cumulative
    // totals intact, queues empty, and the delta against the mid-run
    // frame covering exactly the second half of the traffic.
    let frame = rt.frame();
    let delta = frame.delta(&mid);
    let counter = |f: &Frame, n: &str| {
        f.counters
            .iter()
            .find(|(name, _)| *name == n)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    assert_eq!(counter(&mid, "requests_completed"), 10);
    assert_eq!(counter(&frame, "requests_completed"), 20);
    assert_eq!(counter(&delta, "requests_completed"), 10);
    let gauge = |f: &Frame, n: &str| {
        f.gauges
            .iter()
            .find(|(name, _)| name == n)
            .map(|g| g.1)
            .expect("gauge present")
    };
    assert_eq!(gauge(&frame, "pending_depth"), 0.0);
    assert_eq!(gauge(&frame, "devices_idle"), 1.0);
    assert_eq!(gauge(&frame, "devices_resident"), 1.0);
    // Both renderers accept a live runtime frame.
    assert!(frame
        .to_prometheus("pic")
        .contains("pic_requests_completed 20"));
    assert!(frame.to_json().contains("\"requests_completed\":20"));
}

#[test]
fn a_large_batch_records_its_kernel_stages_on_the_worker() {
    // One 128-sample request on one paper-core tile: 128 × 16 × 16 MACs
    // in a single kernel pass, which runs on the worker thread and so
    // records into the worker's span collector.
    let mut config = RuntimeConfig::paper();
    config.devices = 1;
    let mut rt = Runtime::start(config);
    let codes: Vec<Vec<u32>> = (0..16)
        .map(|r| (0..16).map(|c| ((r + 3 * c) % 8) as u32).collect())
        .collect();
    let m = Arc::new(TiledMatrix::from_codes(&codes, 3, TileShape::new(16, 16)));
    let inputs: Vec<Vec<f64>> = (0..128)
        .map(|s| (0..16).map(|c| ((s + c) % 16) as f64 / 15.0).collect())
        .collect();
    rt.submit(MatmulRequest::new(m, inputs))
        .expect("accepted")
        .wait()
        .expect("served");
    rt.shutdown();
    let stages = &rt.metrics().stages;
    assert_eq!(stages.hist(Stage::Compute).count(), 1, "one compute pass");
    assert_eq!(stages.hist(Stage::Digitize).count(), 1, "one digitise pass");
}

#[test]
fn instrumented_serving_results_match_solo_execution() {
    // The traced two-phase kernel must be bit-identical to the untraced
    // interleaved kernel a solo executor runs.
    let rt = runtime(2);
    let m = matrix(10, 9, 4);
    let inputs: Vec<Vec<Vec<f64>>> = (0..8)
        .map(|i| {
            vec![(0..9)
                .map(|c| f64::from(((i + c) % 10) as u32) / 10.0)
                .collect()]
        })
        .collect();
    let handles: Vec<_> = inputs
        .iter()
        .map(|x| {
            rt.submit_blocking(MatmulRequest::new(Arc::clone(&m), x.clone()))
                .expect("accepted")
        })
        .collect();
    let mut solo = pic_runtime::TileExecutor::new(TensorCoreConfig::small_demo(), 99);
    for (x, h) in inputs.iter().zip(handles) {
        let resp = h.wait().expect("served");
        let (want, _) = solo.execute(&m, x).expect("reference");
        assert_eq!(resp.outputs, want, "traced kernel must stay bit-identical");
    }
}
