//! pSRAM bitcell co-simulation throughput: hold steps, full write
//! transients, word/array operations, the paper-tile array write.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pic_psram::{PsramArray, PsramBitcell, PsramConfig, PsramWord};
use pic_units::{OpticalPower, Seconds};
use rand::{Rng, SeedableRng};

fn bench_psram(c: &mut Criterion) {
    let config = PsramConfig::paper();

    c.bench_function("psram/hold_step", |b| {
        let mut cell = PsramBitcell::new(config);
        b.iter(|| {
            cell.step(
                black_box(OpticalPower::ZERO),
                black_box(OpticalPower::ZERO),
                Seconds::from_picoseconds(0.25),
            )
        })
    });

    c.bench_function("psram/write_transient", |b| {
        b.iter(|| {
            let mut cell = PsramBitcell::new(config);
            cell.write(black_box(true))
        })
    });

    c.bench_function("psram/word_store_3bit", |b| {
        b.iter(|| {
            let mut word = PsramWord::new(config, 3);
            word.store(black_box(5))
        })
    });

    c.bench_function("psram/word_preset_3bit", |b| {
        b.iter(|| PsramWord::preset(config, 3, black_box(5)))
    });

    // Seeded random paper tiles in turn, so every write flips about half
    // the cells; rewriting one tile would replay no flips at all.
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let tiles: Vec<Vec<Vec<u32>>> = (0..64)
        .map(|_| {
            (0..16)
                .map(|_| (0..16).map(|_| rng.gen_range(0..8)).collect())
                .collect()
        })
        .collect();
    c.bench_function("psram/array_store_matrix_16x16", |b| {
        let mut array = PsramArray::new(config, 16, 16, 3);
        let mut next = tiles.iter().cycle();
        b.iter(|| array.store_matrix(black_box(next.next().expect("cycle never ends"))))
    });

    c.bench_function("psram/snm_analysis", |b| {
        b.iter(|| pic_psram::stability::static_noise_margin(black_box(&config)))
    });
}

criterion_group!(benches, bench_psram);
criterion_main!(benches);
