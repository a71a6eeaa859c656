//! Training-throughput benchmarks of the deterministic mini-batch trainers.
//!
//! The headline comparison is one BRITS training epoch (plus its fixed
//! sequence-prep/inference tail, identical across cases) at:
//!
//! * `batch1_t1` — the default configuration: single-sequence batches on the
//!   live graph, i.e. the classic serial SGD trajectory. This is the
//!   baseline the batched path's overhead is measured against.
//! * `batch4_t1` — fixed 4-sequence batches forced onto one thread: measures
//!   the pure snapshot/rebuild/reduction overhead of the batched path (the
//!   PR 5 acceptance bar is ≤ ~5% over `batch1_t1`; note the trajectories
//!   differ — this compares *cost*, not output).
//! * `batch4_t2` / `batch4_t4` — the same batched work fanned out over the
//!   persistent pool. On a multicore box the epoch wall-clock should scale
//!   with the thread count; on a single-CPU container these rows bound the
//!   dispatch overhead instead.
//!
//! The `train_ssgan` and `train_bisim` groups time the same default
//! `batch1_t1` shape — the serial trajectory, where the column-vector
//! products, the backward pass and the Adam step set the cost — plus one
//! batched, two-thread row each: SSGAN's two-phase
//! (discriminator/generator) batching and BiSIM's attention-model rebuild.

use criterion::{criterion_group, criterion_main, Criterion};
use rm_bisim::{Bisim, BisimConfig};
use rm_differentiator::{Differentiator, MnarOnly};
use rm_imputers::{Brits, BritsConfig, Imputer, Ssgan, SsganConfig};
use rm_radiomap::{MaskMatrix, RadioMap};
use rm_venue_sim::{DatasetSpec, VenuePreset};

fn training_fixture() -> (RadioMap, MaskMatrix) {
    let dataset = DatasetSpec::new(VenuePreset::KaideLike, 9)
        .with_scale(0.05)
        .build();
    let map = dataset.radio_map.clone();
    let mask = MnarOnly.differentiate(&map);
    (map, mask)
}

fn brits_config(batch_size: usize, threads: usize) -> BritsConfig {
    BritsConfig {
        epochs: 1,
        hidden_size: 16,
        batch_size,
        threads,
        ..BritsConfig::default()
    }
}

fn bench_brits_batched_training(c: &mut Criterion) {
    let (map, mask) = training_fixture();
    let mut group = c.benchmark_group("train_brits");
    group.sample_size(10);
    for (name, batch_size, threads) in [
        ("brits_epoch_batch1_t1", 1, 1),
        ("brits_epoch_batch4_t1", 4, 1),
        ("brits_epoch_batch4_t2", 4, 2),
        ("brits_epoch_batch4_t4", 4, 4),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                std::hint::black_box(
                    Brits::new(brits_config(batch_size, threads)).impute(&map, &mask),
                )
            })
        });
    }
    group.finish();
}

fn bench_ssgan_batched_training(c: &mut Criterion) {
    let (map, mask) = training_fixture();
    let mut group = c.benchmark_group("train_ssgan");
    group.sample_size(10);
    for (name, batch_size, threads) in [
        ("ssgan_epoch_batch1_t1", 1, 1),
        ("ssgan_epoch_batch4_t2", 4, 2),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let ssgan = Ssgan::new(SsganConfig {
                    epochs: 1,
                    hidden_size: 16,
                    discriminator_hidden: 16,
                    batch_size,
                    threads,
                    ..SsganConfig::default()
                });
                std::hint::black_box(ssgan.impute(&map, &mask))
            })
        });
    }
    group.finish();
}

fn bench_bisim_batched_training(c: &mut Criterion) {
    let (map, mask) = training_fixture();
    let mut group = c.benchmark_group("train_bisim");
    group.sample_size(10);
    for (name, batch_size, threads) in [
        ("bisim_epoch_batch1_t1", 1, 1),
        ("bisim_epoch_batch4_t2", 4, 2),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let bisim = Bisim::new(BisimConfig {
                    epochs: 1,
                    hidden_size: 16,
                    batch_size,
                    threads,
                    ..BisimConfig::default()
                });
                std::hint::black_box(bisim.impute(&map, &mask))
            })
        });
    }
    group.finish();
}

criterion_group!(
    training,
    bench_brits_batched_training,
    bench_ssgan_batched_training,
    bench_bisim_batched_training
);
criterion_main!(training);
