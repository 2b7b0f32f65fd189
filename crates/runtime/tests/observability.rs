//! End-to-end observability: stage attribution, energy reconciliation,
//! the periodic exporter, and the flight recorder against a live
//! runtime.
//!
//! Every test also compiles (and trivially passes) under `obs-off`,
//! proving the no-op instrumentation path serves identically.

use pic_obs::{EventKind, MemorySink, Stage};
use pic_runtime::{MatmulRequest, Runtime, RuntimeConfig, TileShape, TiledMatrix};
use pic_tensor::TensorCoreConfig;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    if !pic_obs::enabled() {
        return;
    }
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
    if !pic_obs::enabled() {
        return;
    }
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
fn exporter_delivers_frames_and_deltas() {
    let mut rt = runtime(1);
    let sink = Arc::new(MemorySink::new());
    rt.spawn_exporter(Duration::from_millis(5), Arc::clone(&sink) as _);
    let m = matrix(4, 4, 1);
    serve(&rt, &m, 20);
    // Wait for at least one post-traffic export.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some((frame, _)) = sink.latest() {
            let completed = frame
                .counters
                .iter()
                .find(|(n, _)| *n == "requests_completed")
                .map(|&(_, v)| v);
            if completed == Some(20) {
                break;
            }
        }
        assert!(Instant::now() < deadline, "exporter never saw the traffic");
        std::thread::sleep(Duration::from_millis(2));
    }
    rt.shutdown();
    // The final frame (emitted on shutdown) reports the drained state:
    // cumulative totals intact, queues empty, and the delta consistent.
    let (frame, delta) = sink.latest().expect("final frame");
    let counter = |f: &pic_obs::Frame, n: &str| {
        f.counters
            .iter()
            .find(|(name, _)| *name == n)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    assert_eq!(counter(&frame, "requests_completed"), 20);
    assert!(counter(&delta, "requests_completed") <= 20);
    let gauge = |f: &pic_obs::Frame, n: &str| {
        f.gauges
            .iter()
            .find(|(name, _)| name == n)
            .map(|g| g.1)
            .expect("gauge present")
    };
    assert_eq!(gauge(&frame, "pending_depth"), 0.0);
    assert_eq!(gauge(&frame, "devices_idle"), 1.0);
    if pic_obs::enabled() {
        assert_eq!(gauge(&frame, "devices_resident"), 1.0);
    }
    // Both renderers accept a live runtime frame.
    assert!(frame
        .to_prometheus("pic")
        .contains("pic_requests_completed 20"));
    assert!(frame.to_json().contains("\"requests_completed\":20"));
}

#[test]
fn first_deadline_miss_dumps_the_flight_recorder() {
    let mut rt = runtime(1);
    let sink = Arc::new(MemorySink::new());
    rt.spawn_exporter(Duration::from_millis(5), Arc::clone(&sink) as _);
    let m = matrix(4, 4, 2);
    serve(&rt, &m, 5);
    let expired = MatmulRequest::new(Arc::clone(&m), vec![vec![0.5; 4]])
        .with_deadline(Instant::now() - Duration::from_millis(1));
    // Dead on arrival rejects synchronously at submit — and still trips
    // the incident latch so the exporter dumps the ring.
    assert!(rt.submit(expired).is_err(), "expired deadline rejects");
    rt.shutdown();
    if !pic_obs::enabled() {
        return;
    }
    let events = sink.incidents();
    assert!(
        events.iter().any(|e| e.kind == EventKind::DeadlineExpired),
        "incident dump must contain the deadline miss: {events:?}"
    );
    // The ring captured the lead-up: the residency traffic before the
    // miss is in the same dump.
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::ResidencyHit | EventKind::ResidencyMiss)));
}

#[test]
fn flight_recorder_sees_residency_and_stall_traffic() {
    let mut rt = runtime(1);
    let m = matrix(4, 4, 3);
    serve(&rt, &m, 10);
    rt.shutdown();
    if !pic_obs::enabled() {
        return;
    }
    let events = rt.metrics().recorder.dump();
    assert!(
        events.iter().any(|e| e.kind == EventKind::ResidencyMiss),
        "cold start must log a miss"
    );
    assert!(
        events.iter().any(|e| e.kind == EventKind::ResidencyHit),
        "repeat traffic must log hits"
    );
    assert!(events.iter().all(|e| match e.kind {
        EventKind::ResidencyHit | EventKind::ResidencyMiss => e.a == m.id(),
        _ => true,
    }));
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
