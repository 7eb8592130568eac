//! Criterion macro-benchmarks: one group per paper table/figure (at
//! statistically-benchmarkable sizes) plus the DESIGN.md ablations.
//!
//! These complement the `src/bin` harnesses: the binaries print
//! paper-shaped tables, while these benches give Criterion-grade
//! timing distributions for regression tracking.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qns_circuit::generators::{qaoa_grid_random, qaoa_ring, QaoaRound};
use qns_core::approx::{approximate_expectation, ApproxOptions};
use qns_noise::{channels, NoisyCircuit};
use qns_sim::trajectory::{self, SamplingStrategy};
use qns_tnet::builder::ProductState;
use qns_tnet::network::OrderStrategy;
use std::hint::black_box;

fn fixture(n_noises: usize) -> NoisyCircuit {
    let c = qaoa_grid_random(3, 3, 1, 5);
    NoisyCircuit::inject_random(
        c,
        &channels::thermal_relaxation(30.0, 40.0, 25.0),
        n_noises,
        7,
    )
}

/// Table II core comparison: accurate engines on one noisy circuit.
fn bench_table2_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_engines");
    group.sample_size(10);
    let noisy = fixture(4);
    let n = noisy.n_qubits();

    group.bench_function("mm_density", |b| {
        let psi = qns_sim::statevector::zero_state(n);
        let v = qns_sim::statevector::basis_state(n, 0);
        b.iter(|| qns_sim::density::expectation(black_box(&noisy), &psi, &v))
    });
    group.bench_function("tdd", |b| {
        let psi = qns_tdd::simulator::zeros(n);
        let v = qns_tdd::simulator::basis(n, 0);
        b.iter(|| qns_tdd::expectation(black_box(&noisy), &psi, &v))
    });
    group.bench_function("tn_exact", |b| {
        let psi = ProductState::all_zeros(n);
        let v = ProductState::basis(n, 0);
        b.iter(|| {
            qns_tnet::simulator::expectation(black_box(&noisy), &psi, &v, OrderStrategy::Greedy)
        })
    });
    group.bench_function("ours_level1", |b| {
        let psi = ProductState::all_zeros(n);
        let v = ProductState::basis(n, 0);
        b.iter(|| {
            approximate_expectation(
                black_box(&noisy),
                &psi,
                &v,
                &ApproxOptions::default().with_level(1),
            )
        })
    });
    group.finish();
}

/// Fig. 4 scaling: ours at growing noise counts (linear cost).
fn bench_fig4_noise_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_ours_vs_noise_count");
    group.sample_size(10);
    for noises in [2usize, 8, 16] {
        let noisy = fixture(noises);
        let n = noisy.n_qubits();
        let psi = ProductState::all_zeros(n);
        let v = ProductState::basis(n, 0);
        group.bench_with_input(BenchmarkId::from_parameter(noises), &noisy, |b, noisy| {
            b.iter(|| {
                approximate_expectation(
                    black_box(noisy),
                    &psi,
                    &v,
                    &ApproxOptions::default().with_level(1),
                )
            })
        });
    }
    group.finish();
}

/// Table III: one trajectory batch vs one level-1 run.
fn bench_table3_trajectories(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3_trajectories");
    group.sample_size(10);
    let noisy = NoisyCircuit::inject_random(
        qaoa_ring(
            6,
            &[QaoaRound {
                gamma: 0.4,
                beta: 0.3,
            }],
        ),
        &channels::depolarizing(1e-3),
        8,
        3,
    );
    let psi = qns_sim::statevector::zero_state(6);
    let v = qns_sim::statevector::basis_state(6, 0);
    group.bench_function("trajectories_500", |b| {
        b.iter(|| {
            trajectory::estimate(
                black_box(&noisy),
                &psi,
                &v,
                500,
                SamplingStrategy::MixedUnitaryFastPath,
                1,
            )
        })
    });
    let pp = ProductState::all_zeros(6);
    let vv = ProductState::basis(6, 0);
    group.bench_function("ours_level1", |b| {
        b.iter(|| {
            approximate_expectation(
                black_box(&noisy),
                &pp,
                &vv,
                &ApproxOptions::default().with_level(1),
            )
        })
    });
    group.finish();
}

/// Table IV: cost per level.
fn bench_table4_levels(c: &mut Criterion) {
    let mut group = c.benchmark_group("table4_levels");
    group.sample_size(10);
    let noisy = fixture(5);
    let n = noisy.n_qubits();
    let psi = ProductState::all_zeros(n);
    let v = ProductState::basis(n, 0);
    for level in 0..=2usize {
        group.bench_with_input(BenchmarkId::from_parameter(level), &level, |b, &level| {
            b.iter(|| {
                approximate_expectation(
                    black_box(&noisy),
                    &psi,
                    &v,
                    &ApproxOptions::default().with_level(level),
                )
            })
        });
    }
    group.finish();
}

/// Ablation: greedy vs sequential contraction ordering on the exact
/// double network.
fn bench_ablation_ordering(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_ordering");
    group.sample_size(10);
    let noisy = fixture(6);
    let n = noisy.n_qubits();
    let psi = ProductState::all_zeros(n);
    let v = ProductState::basis(n, 0);
    for (name, strat) in [
        ("greedy", OrderStrategy::Greedy),
        ("sequential", OrderStrategy::Sequential),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| qns_tnet::simulator::expectation(black_box(&noisy), &psi, &v, strat))
        });
    }
    group.finish();
}

/// Ablation: mixed-unitary fast path vs general norm sampling.
fn bench_ablation_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_sampling");
    group.sample_size(10);
    let noisy = NoisyCircuit::inject_random(
        qaoa_ring(
            6,
            &[QaoaRound {
                gamma: 0.4,
                beta: 0.3,
            }],
        ),
        &channels::depolarizing(0.01),
        10,
        9,
    );
    let psi = qns_sim::statevector::zero_state(6);
    let v = qns_sim::statevector::basis_state(6, 0);
    for (name, strat) in [
        ("fast_path", SamplingStrategy::MixedUnitaryFastPath),
        ("general", SamplingStrategy::General),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| trajectory::estimate(black_box(&noisy), &psi, &v, 200, strat, 5))
        });
    }
    group.finish();
}

criterion_group!(
    experiments,
    bench_table2_engines,
    bench_fig4_noise_scaling,
    bench_table3_trajectories,
    bench_table4_levels,
    bench_ablation_ordering,
    bench_ablation_sampling
);
criterion_main!(experiments);
