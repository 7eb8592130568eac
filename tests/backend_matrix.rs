//! The backend-matrix agreement suite: `registry::default_set()` ×
//! every `Backend` implementation, through the unified trait.
//!
//! One generic check evaluates the same `ExpectationJob` on every
//! engine and asserts agreement with the dense density-matrix result
//! within per-backend tolerances. Engines have per-backend feasibility
//! caps, mirroring the paper's MO (memory-out) rows: the registry is
//! deliberately sized so dense simulation is feasible on its smaller
//! entries and infeasible on the larger ones, where the scalable
//! engines are cross-checked against the exact full-level SVD
//! expansion instead.

use qns::core::bounds;
use qns::noise::{channels, NoisyCircuit, QnsError};
use qns::prelude::{
    run_batch, ApproxBackend, Backend, DensityBackend, Estimate, ExpectationJob, Simulation,
    TddBackend, TnetBackend, TrajectoryBackend,
};
use qns_bench::registry;

/// A backend plus the qubit range it is expected to be exact and
/// test-time feasible on (its "MO" limit at debug-build scale).
struct Probe {
    backend: Box<dyn Backend>,
    max_qubits: usize,
}

/// Every engine in the workspace, configured to be exact where
/// feasible. `n_noises` sizes the approximation's exact level.
fn probes(noisy: &NoisyCircuit) -> Vec<Probe> {
    vec![
        Probe {
            // Diagrams of unstructured circuits approach 4^n nodes.
            backend: Box::new(TddBackend::new()),
            max_qubits: 8,
        },
        Probe {
            // Exact double-network contraction.
            backend: Box::new(TnetBackend::new()),
            max_qubits: 10,
        },
        Probe {
            // Full level = exact at any size (2·4^N cheap contractions).
            backend: Box::new(ApproxBackend::exact_for(noisy)),
            max_qubits: usize::MAX,
        },
        Probe {
            backend: Box::new(TrajectoryBackend::samples(1200).with_seed(5)),
            max_qubits: 9,
        },
    ]
}

const N_NOISES: usize = 2;

fn noisy_version(bench: &registry::BenchCircuit, seed: u64) -> NoisyCircuit {
    let channel = channels::thermal_relaxation(30.0, 40.0, 25.0);
    NoisyCircuit::inject_random(bench.circuit.clone(), &channel, N_NOISES, seed)
}

#[test]
fn registry_matrix_agrees_with_dense_reference() {
    // Dense reference capped where debug-build runtime stays sane; the
    // backend itself reports Unsupported beyond its limit.
    let dense = DensityBackend::new().with_max_qubits(9);

    for (i, bench) in registry::default_set().iter().enumerate() {
        let n = bench.circuit.n_qubits();
        let noisy = noisy_version(bench, 0xA11CE + i as u64);
        let job = Simulation::new(&noisy).build().expect("valid job");

        let (reference, reference_is_dense): (Estimate, bool) = match dense.expectation(&job) {
            Ok(est) => (est, true),
            Err(QnsError::Unsupported { .. }) => {
                // Beyond dense reach the exact full-level expansion is
                // the reference (Theorem 1: level = N is exact).
                let est = ApproxBackend::exact_for(&noisy)
                    .expectation(&job)
                    .expect("full-level approximation scales past MM");
                (est, false)
            }
            Err(e) => panic!("{}: dense reference failed: {e}", bench.name),
        };

        for probe in probes(&noisy) {
            if n > probe.max_qubits {
                continue; // this engine's MO row
            }
            if !reference_is_dense && probe.backend.name() == "approx" {
                continue; // the reference itself; re-running it proves nothing
            }
            let est = probe
                .backend
                .expectation(&job)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", bench.name, probe.backend.name()));
            // Bound-aware agreement: the std-error/truncation slack
            // lives in `agrees_with`. Sampling backends get a small
            // base tolerance (their slack is the 5σ term — using the
            // backend's loose default would mask systematic bias);
            // deterministic backends use their declared tolerance.
            let base_tol = if est.std_error.is_some() {
                1e-3
            } else {
                probe.backend.tolerance()
            };
            assert!(
                est.agrees_with(&reference, base_tol),
                "{}/{}: {} vs reference {} (tol {:.2e}, σ {:?})",
                bench.name,
                est.backend,
                est.value,
                reference.value,
                base_tol,
                est.std_error
            );
        }
    }
}

#[test]
fn level_one_respects_theorem_bound_across_registry() {
    // On every registry entry — including the ones beyond every dense
    // engine — the level-1 run through the facade stays within the
    // Theorem-1 bound of the exact full-level value.
    for (i, bench) in registry::default_set().iter().enumerate() {
        let noisy = noisy_version(bench, 0xBEE + i as u64);
        let p = noisy.max_noise_rate();
        let job = Simulation::new(&noisy).build().expect("valid job");

        let exact = ApproxBackend::exact_for(&noisy)
            .expectation(&job)
            .unwrap()
            .value;
        let l1 = ApproxBackend::level(1).expectation(&job).unwrap().value;
        let bound = bounds::error_bound(N_NOISES, p, 1);
        assert!(
            (l1 - exact).abs() <= bound + 1e-12,
            "{}: level-1 error {} exceeds bound {bound}",
            bench.name,
            (l1 - exact).abs()
        );
    }
}

#[test]
fn run_batch_serves_the_whole_registry() {
    // The batching entry point the bench harnesses use: one backend,
    // one job per registry circuit, a single call.
    let set = registry::default_set();
    let noisies: Vec<NoisyCircuit> = set
        .iter()
        .enumerate()
        .map(|(i, b)| noisy_version(b, 0xCAB + i as u64))
        .collect();
    let jobs: Vec<ExpectationJob<'_>> = noisies
        .iter()
        .map(|noisy| Simulation::new(noisy).build().expect("valid job"))
        .collect();

    let backend = ApproxBackend::level(1);
    let results = run_batch(&backend, &jobs);
    assert_eq!(results.len(), set.len());
    for (bench, res) in set.iter().zip(results) {
        let est = res.unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert!(est.value.is_finite(), "{}: non-finite value", bench.name);
        assert_eq!(est.backend, "approx");
    }
}
