//! End-to-end tensor core throughput: weight loads, matvec, matmul at the
//! paper's 16×16 scale.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use pic_tensor::{TensorCore, TensorCoreConfig};
use rand::{Rng, SeedableRng};

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

    let mut serial = paper_core();
    serial.set_parallel(false);
    c.bench_function("tensor/matmul_16x16_batch16_serial", |b| {
        b.iter(|| serial.matmul(black_box(&batch)))
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
