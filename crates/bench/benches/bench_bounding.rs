//! Phase-2 CPU benchmarks (the paper's Fig. 13(d) angle): per-cluster
//! bounding time for the four algorithms, plus the increment optimizers in
//! isolation (closed form / numeric / exact DP — quantifying why the paper
//! prefers the approximation of Equation 5 on mobile CPUs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nela::bounding::baselines::{optimal_bound, ExponentialPolicy, LinearPolicy};
use nela::bounding::cost::AreaCost;
use nela::bounding::distribution::Uniform;
use nela::bounding::nbound::{
    exact_dp_increment, n_bounding_increment, n_bounding_uniform_area_closed_form, IncrementTable,
    SecurePolicy,
};
use nela::bounding::protocol::progressive_upper_bound;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

/// Synthetic cluster coordinates: k values near an anchor with a realistic
/// multi-radio-range spread.
fn cluster_values(k: usize, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..k).map(|_| rng.gen::<f64>() * 0.01).collect()
}

fn bench_protocols(c: &mut Criterion) {
    let mut group = c.benchmark_group("bounding_run");
    for k in [10usize, 50] {
        let values = cluster_values(k, 7);
        let span = k as f64 / 20_000.0;
        let cr = 1000.0 * 20_000.0;
        // A fresh table per run: the cost one host pays solving its own
        // increments.
        group.bench_with_input(BenchmarkId::new("secure", k), &k, |b, _| {
            b.iter(|| {
                let table = IncrementTable::new(AreaCost { cr }, 1.0);
                let mut p = SecurePolicy::new(&table, Uniform::new(span));
                black_box(progressive_upper_bound(&values, 0.0, 0.0, &mut p))
            })
        });
        group.bench_with_input(BenchmarkId::new("linear", k), &k, |b, _| {
            b.iter(|| {
                let mut p = LinearPolicy::new(span / 4.0);
                black_box(progressive_upper_bound(&values, 0.0, 0.0, &mut p))
            })
        });
        group.bench_with_input(BenchmarkId::new("exponential", k), &k, |b, _| {
            b.iter(|| {
                let mut p = ExponentialPolicy::new(span);
                black_box(progressive_upper_bound(&values, 0.0, 0.0, &mut p))
            })
        });
        group.bench_with_input(BenchmarkId::new("optimal", k), &k, |b, _| {
            b.iter(|| black_box(optimal_bound(&values)))
        });
    }
    group.finish();
}

fn bench_optimizers(c: &mut Criterion) {
    let dist = Uniform::new(5e-4);
    let cost = AreaCost { cr: 2.0e7 };
    let mut group = c.benchmark_group("increment_optimizer");
    group.bench_function("closed_form_n10", |b| {
        b.iter(|| black_box(n_bounding_uniform_area_closed_form(10, 1.0, 2.0e7, 5e-4)))
    });
    group.bench_function("numeric_eq4_n10", |b| {
        b.iter(|| black_box(n_bounding_increment(10, &dist, &cost, 1.0)))
    });
    group.sample_size(10);
    group.bench_function("exact_dp_n10", |b| {
        b.iter(|| black_box(exact_dp_increment(10, &dist, &cost, 1.0)))
    });
    group.bench_function("exact_dp_n50", |b| {
        b.iter(|| black_box(exact_dp_increment(50, &dist, &cost, 1.0)))
    });
    group.finish();
}

criterion_group!(benches, bench_protocols, bench_optimizers);
criterion_main!(benches);
