//! End-to-end tensor core throughput: weight loads, matvec, matmul at the
//! paper's 16×16 scale, the flat serving kernel (plain and traced) at
//! 4×4 and 16×16, and the eoADC digitise pass on its own.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use pic_tensor::{FlatBatch, FlatCodes, TensorCore, TensorCoreConfig};
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn paper_core() -> TensorCore {
    let mut core = TensorCore::new(TensorCoreConfig::paper());
    let w: Vec<Vec<u32>> = (0..16)
        .map(|r| (0..16).map(|c| ((r * 3 + c) % 8) as u32).collect())
        .collect();
    core.load_weight_codes(&w);
    core
}

fn bench_tensor_core(c: &mut Criterion) {
    let small = {
        let mut core = TensorCore::new(TensorCoreConfig::small_demo());
        core.load_weight_codes(&[
            vec![7, 0, 0, 0],
            vec![0, 7, 0, 0],
            vec![0, 0, 7, 0],
            vec![0, 0, 0, 7],
        ]);
        core
    };
    let x4 = [0.2, 0.4, 0.6, 0.8];
    c.bench_function("tensor/matvec_4x4", |b| {
        b.iter(|| small.matvec(black_box(&x4)))
    });

    let core = paper_core();
    let x16: Vec<f64> = (0..16).map(|i| i as f64 / 15.0).collect();
    c.bench_function("tensor/matvec_16x16", |b| {
        b.iter(|| core.matvec(black_box(&x16)))
    });

    c.bench_function("tensor/matvec_analog_16x16", |b| {
        b.iter(|| core.matvec_analog(black_box(&x16)))
    });

    // The uncached per-call optical walk: the baseline the cached engine's
    // ≥3× speed-up target is measured against.
    c.bench_function("tensor/matvec_analog_uncached_16x16", |b| {
        b.iter(|| core.matvec_analog_uncached(black_box(&x16)))
    });

    let batch: Vec<Vec<f64>> = (0..16)
        .map(|k| (0..16).map(|i| ((i + k) % 16) as f64 / 15.0).collect())
        .collect();
    c.bench_function("tensor/matmul_16x16_batch16", |b| {
        b.iter(|| core.matmul(black_box(&batch)))
    });

    // The allocation-free serving kernel over a reused flat batch, then
    // the same call with a span collector installed: the two-phase
    // traced kernel that instrumented serving threads run.
    for (label, engine) in [("4x4", &small), ("16x16", &core)] {
        let n = engine.config().cols;
        let rows: Vec<Vec<f64>> = (0..32)
            .map(|k| (0..n).map(|i| ((i + k) % n) as f64 / n as f64).collect())
            .collect();
        let mut inputs = FlatBatch::new();
        inputs.fill_from_rows(&rows, n);
        let mut out = FlatCodes::new();
        c.bench_function(&format!("tensor/matmul_into_{label}_batch32"), |b| {
            b.iter(|| engine.matmul_into(black_box(inputs.view()), &mut out))
        });
        pic_obs::install_collector(Some(Arc::new(pic_obs::StageStats::new())));
        c.bench_function(&format!("tensor/matmul_into_traced_{label}_batch32"), |b| {
            b.iter(|| engine.matmul_into(black_box(inputs.view()), &mut out))
        });
        pic_obs::install_collector(None);
    }

    // Digitise only: a sweep of read-outs past full scale (so the gain
    // clamp runs) through the eoADC's LUT walk, no analog phase.
    let ys: Vec<f64> = (0..4096).map(|i| f64::from(i) / 4096.0 * 1.2).collect();
    let mut codes = vec![0u16; ys.len()];
    c.bench_function("tensor/digitize_slice_4096", |b| {
        b.iter(|| core.digitize_slice(black_box(&ys), &mut codes))
    });

    let w: Vec<Vec<u32>> = (0..16)
        .map(|r| (0..16).map(|c| ((r + c) % 8) as u32).collect())
        .collect();
    c.bench_function("tensor/load_weight_codes_16x16", |b| {
        b.iter_batched(
            || TensorCore::new(TensorCoreConfig::paper()),
            |mut core| core.load_weight_codes(black_box(&w)),
            BatchSize::LargeInput,
        )
    });

    // A streamed tile write: the array replays the flips, then the weight
    // cache is rebuilt. Seeded random tiles in turn, so every write flips
    // about half the cells; rewriting one tile would replay no flips.
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let tiles: Vec<Vec<Vec<u32>>> = (0..64)
        .map(|_| {
            (0..16)
                .map(|_| (0..16).map(|_| rng.gen_range(0..8)).collect())
                .collect()
        })
        .collect();
    c.bench_function("tensor/write_weights_transient_16x16", |b| {
        let mut core = TensorCore::new(TensorCoreConfig::paper());
        let mut next = tiles.iter().cycle();
        b.iter(|| core.write_weights_transient(black_box(next.next().expect("cycle never ends"))))
    });
}

criterion_group!(benches, bench_tensor_core);
criterion_main!(benches);
