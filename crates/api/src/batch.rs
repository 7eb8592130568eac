//! Batch entry points: many jobs on one backend, one job on many
//! backends.

use crate::backends::Backend;
use crate::job::{Estimate, ExpectationJob};
use qns_noise::QnsError;

/// Evaluates many jobs on one backend in one call — the entry point
/// the bench registry and future sharding/batching layers build on.
///
/// Each job gets its own `Result`, so one infeasible job does not sink
/// the batch. The output is index-aligned with `jobs`.
pub fn run_batch(
    backend: &dyn Backend,
    jobs: &[ExpectationJob<'_>],
) -> Vec<Result<Estimate, QnsError>> {
    jobs.iter().map(|job| backend.expectation(job)).collect()
}

/// Evaluates one job on many backends — the cross-engine comparison
/// the paper's tables are made of, index-aligned with `backends`.
pub fn compare_backends(
    backends: &[&dyn Backend],
    job: &ExpectationJob<'_>,
) -> Vec<Result<Estimate, QnsError>> {
    backends.iter().map(|b| b.expectation(job)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::{
        ApproxBackend, DensityBackend, TddBackend, TnetBackend, TrajectoryBackend,
    };
    use crate::job::{InitialState, Observable, Simulation};
    use qns_circuit::generators::ghz;
    use qns_noise::{channels, NoisyCircuit};

    fn noisy_ghz(n: usize, noises: usize) -> NoisyCircuit {
        NoisyCircuit::inject_random(ghz(n), &channels::amplitude_damping(0.05), noises, 13)
    }

    #[test]
    fn all_backends_agree_on_one_job() {
        let noisy = noisy_ghz(3, 2);
        let job = Simulation::new(&noisy)
            .observable_basis(0b111)
            .build()
            .unwrap();

        let reference = DensityBackend::new().expectation(&job).unwrap();

        let deterministic: Vec<Box<dyn Backend>> = vec![
            Box::new(TddBackend::new()),
            Box::new(TnetBackend::new()),
            Box::new(ApproxBackend::exact_for(&noisy)),
        ];
        for b in &deterministic {
            let est = b.expectation(&job).unwrap();
            assert!(
                (est.value - reference.value).abs() < b.tolerance(),
                "{}: {} vs {}",
                b.name(),
                est.value,
                reference.value
            );
            assert!(est.is_deterministic());
        }

        let traj = TrajectoryBackend::samples(3000).expectation(&job).unwrap();
        let se = traj
            .std_error
            .expect("sampling backend reports an error bar");
        assert!(
            (traj.value - reference.value).abs() < 5.0 * se.max(2e-3),
            "trajectory {} vs {}",
            traj.value,
            reference.value
        );
    }

    #[test]
    fn run_batch_is_index_aligned_and_error_isolated() {
        let noisy = noisy_ghz(3, 1);
        let small = Simulation::new(&noisy).build().unwrap();
        let jobs = vec![small.clone(), small.clone(), small];

        // A backend that declines everything above 2 qubits: only the
        // per-job results fail, not the batch.
        let tiny = DensityBackend::new().with_max_qubits(2);
        let out = run_batch(&tiny, &jobs);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|r| matches!(
            r,
            Err(QnsError::Unsupported {
                backend: "density",
                ..
            })
        )));

        let ok = run_batch(&DensityBackend::new(), &jobs);
        assert!(ok.iter().all(|r| r.is_ok()));
        let v0 = ok[0].as_ref().unwrap().value;
        assert!(ok.iter().all(|r| r.as_ref().unwrap().value == v0));
    }

    #[test]
    fn compare_backends_reports_every_engine() {
        let noisy = noisy_ghz(3, 2);
        let job = Simulation::new(&noisy).build().unwrap();
        let density = DensityBackend::new();
        let tnet = TnetBackend::new();
        let approx = ApproxBackend::exact_for(&noisy);
        let backends: Vec<&dyn Backend> = vec![&density, &tnet, &approx];
        let out = compare_backends(&backends, &job);
        let names: Vec<_> = out.iter().map(|r| r.as_ref().unwrap().backend).collect();
        assert_eq!(names, vec!["density", "tnet", "approx"]);
    }

    #[test]
    fn job_validation_catches_size_mismatch() {
        let noisy = noisy_ghz(3, 1);
        let err = Simulation::new(&noisy)
            .initial(InitialState::zeros(4))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            QnsError::SizeMismatch {
                what: "input state",
                expected: 3,
                actual: 4
            }
        ));

        let err = Simulation::new(&noisy)
            .observable(Observable::zeros(2))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            QnsError::SizeMismatch {
                what: "observable",
                ..
            }
        ));
    }

    #[test]
    fn approx_budget_guard_surfaces_as_error_not_panic() {
        let noisy = noisy_ghz(3, 8);
        let backend = ApproxBackend::with_options(
            crate::ApproxOptions::default()
                .with_level(8)
                .with_max_terms(10),
        );
        let err = Simulation::new(&noisy).run_on(&backend).unwrap_err();
        assert!(matches!(err, QnsError::TermBudgetExceeded { .. }));
    }

    #[test]
    fn builder_defaults_are_all_zeros() {
        let noisy = noisy_ghz(4, 0);
        let job = Simulation::new(&noisy).build().unwrap();
        assert_eq!(job.initial().product(), &crate::ProductState::all_zeros(4));
        assert_eq!(
            job.observable().product(),
            &crate::ProductState::all_zeros(4)
        );
        // Noiseless GHZ: ⟨0…0|ρ|0…0⟩ = 1/2.
        let est = TnetBackend::new().expectation(&job).unwrap();
        assert!((est.value - 0.5).abs() < 1e-12);
    }

    #[test]
    fn initial_state_conversions_are_consistent() {
        let s = InitialState::basis(3, 0b101);
        assert_eq!(s.n_qubits(), 3);
        assert_eq!(s.factors().len(), 3);
        let sv = s.statevector();
        assert_eq!(sv.len(), 8);
        assert!((sv[0b101].re - 1.0).abs() < 1e-15);
        assert_eq!(s.product().to_statevector(), sv);
    }
}
