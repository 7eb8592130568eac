//! End-to-end workflow tests: the tasks a downstream user actually
//! performs, composed across crates and phrased through the unified
//! `qns::api` facade where the job is a product-state expectation.

use qns::circuit::generators::{qaoa_grid, qaoa_ring, QaoaRound};
use qns::core::approx::{append_ideal_inverse, approximate_expectation, ApproxOptions};
use qns::core::bounds;
use qns::noise::{channels, NoisyCircuit};
use qns::prelude::{ApproxBackend, Backend, DensityBackend, Simulation, TrajectoryBackend};
use qns::sim::{density, statevector, trajectory};
use qns::tnet::builder::ProductState;

fn round() -> [QaoaRound; 1] {
    [QaoaRound {
        gamma: 0.4,
        beta: 0.3,
    }]
}

#[test]
fn fidelity_study_workflow() {
    // The Table IV workflow: fidelity of the noisy circuit against its
    // ideal output, estimated at increasing levels through the facade.
    let c = qaoa_ring(4, &round());
    let noisy = NoisyCircuit::inject_random(
        c.clone(),
        &channels::thermal_relaxation(30.0, 40.0, 80.0),
        4,
        7,
    );

    let ideal = statevector::run(&c, &statevector::zero_state(4));
    let exact = density::expectation(&noisy, &statevector::zero_state(4), &ideal);

    // |v⟩ = U|0…0⟩ is not a product state: rewrite via the
    // ideal-inverse trick, then everything is facade-shaped.
    let extended = append_ideal_inverse(&noisy);

    let mut last_err = f64::INFINITY;
    for level in 0..=3 {
        let est = Simulation::new(&extended)
            .run_on(&ApproxBackend::level(level))
            .expect("product job on the approximation backend");
        let err = (est.value - exact).abs();
        assert!(
            err <= last_err * 2.0 + 1e-12,
            "error should trend down with level: {err} after {last_err}"
        );
        last_err = err.max(1e-16);
    }
    assert!(last_err < 1e-8, "level-3 error too large: {last_err}");
}

#[test]
fn noise_rate_sweep_workflow() {
    // The Fig. 6 workflow: fixed fault pattern, swept channel strength,
    // exact reference and approximation both through the Backend trait.
    let c = qaoa_ring(4, &round());
    let pattern = NoisyCircuit::inject_random(c, &channels::depolarizing(1e-3), 4, 11);

    let mut errors = Vec::new();
    for p in [1e-4, 1e-3, 5e-3, 1e-2] {
        let noisy = pattern.with_channel(&channels::depolarizing(p));
        let job = Simulation::new(&noisy).build().expect("valid job");
        let exact = DensityBackend::new().expectation(&job).unwrap().value;
        let approx = ApproxBackend::level(1).expectation(&job).unwrap().value;
        errors.push((approx - exact).abs());
    }
    // Error grows with the noise rate (Fig. 6's monotone trend).
    for w in errors.windows(2) {
        assert!(
            w[1] >= w[0] - 1e-14,
            "error should grow with noise rate: {errors:?}"
        );
    }
}

#[test]
fn sample_budget_planning_workflow() {
    // The Fig. 5 workflow: decide between ours and trajectories from
    // the analytics before running anything.
    let n_noises = 12;
    let p = 1e-4;
    let ours = bounds::our_samples(n_noises, 1);
    let traj =
        bounds::trajectories_samples_scaling_model(n_noises, p, bounds::FIG5_TRAJECTORY_CONSTANT);
    assert!(ours < traj, "at p=1e-4 the approximation should win");

    // And the chosen method actually achieves its promised accuracy.
    let c = qaoa_ring(4, &round());
    let noisy = NoisyCircuit::inject_random(c, &channels::depolarizing(p), n_noises, 5);
    let job = Simulation::new(&noisy).build().expect("valid job");
    let exact = DensityBackend::new().expectation(&job).unwrap().value;
    let est = ApproxBackend::level(1).expectation(&job).unwrap();
    let bound = bounds::error_bound(n_noises, noisy.max_noise_rate(), 1);
    assert!((est.value - exact).abs() <= bound + 1e-12);
}

#[test]
fn trajectory_budgeting_matches_planner() {
    // Plan samples for a 1e-2 target, run through the facade, verify.
    let noisy =
        NoisyCircuit::inject_random(qaoa_ring(4, &round()), &channels::depolarizing(0.05), 3, 23);
    let job = Simulation::new(&noisy).build().expect("valid job");
    let exact = DensityBackend::new().expectation(&job).unwrap().value;

    let target = 1e-2;
    let samples = trajectory::required_samples(target, 0.99);
    let est = TrajectoryBackend::samples(samples.min(30_000))
        .with_seed(3)
        .expectation(&job)
        .unwrap();
    assert!(
        (est.value - exact).abs() < target,
        "planned budget missed target: {} vs {exact}",
        est.value
    );
    assert!(
        est.std_error.is_some(),
        "sampling backends carry error bars"
    );
}

#[test]
fn grid_qaoa_scales_in_qubits_without_density_matrix() {
    // Beyond density-matrix reach (here artificially low), the
    // approximation still runs: 12-qubit grid QAOA, level 1. The dense
    // backend itself reports the infeasibility as a structured error.
    let c = qaoa_grid(3, 4, &round());
    let n = c.n_qubits();
    let noisy =
        NoisyCircuit::inject_random(c, &channels::thermal_relaxation(30.0, 40.0, 25.0), 6, 2);
    let extended = append_ideal_inverse(&noisy);
    let job = Simulation::new(&extended).build().expect("valid job");

    let declined = DensityBackend::new().with_max_qubits(8).expectation(&job);
    assert!(matches!(
        declined,
        Err(qns::prelude::QnsError::Unsupported {
            backend: "density",
            ..
        })
    ));

    let est = ApproxBackend::level(1).expectation(&job).unwrap();
    assert!(est.value.is_finite());
    assert!(
        est.value > 0.9 && est.value <= 1.0 + 1e-6,
        "value {} on {n} qubits",
        est.value
    );

    // The facade does not hide the cost model: the raw result still
    // reports the contractions that ran — one per pattern. Thermal
    // relaxation has Kraus rank 3, so level 1 runs 1+2N patterns, below
    // the paper's 1+3N patterns of two contractions each.
    let res = approximate_expectation(
        &extended,
        &ProductState::all_zeros(n),
        &ProductState::all_zeros(n),
        &ApproxOptions::default().with_level(1),
    );
    assert_eq!(res.contractions, 1 + 2 * 6);
    assert_eq!(
        res.contractions as u128,
        qns::core::bounds::planned_patterns_for_ranks(&qns::core::site_ranks(&extended), 1)
    );
    assert!(2 * (res.contractions as u128) < qns::core::bounds::contraction_count(6, 1));
    assert_eq!(res.value, est.value);
}

#[test]
fn per_level_decomposition_is_consistent() {
    let noisy = NoisyCircuit::inject_random(
        qaoa_ring(4, &round()),
        &channels::amplitude_damping(0.05),
        3,
        31,
    );
    let psi = ProductState::all_zeros(4);
    let v = ProductState::basis(4, 0);
    let l2 = approximate_expectation(&noisy, &psi, &v, &ApproxOptions::default().with_level(2));
    let l1 = approximate_expectation(&noisy, &psi, &v, &ApproxOptions::default().with_level(1));
    // A(2) = A(1) + T_2 and the shared prefixes agree exactly.
    assert!((l2.per_level[0] - l1.per_level[0]).abs() < 1e-14);
    assert!((l2.per_level[1] - l1.per_level[1]).abs() < 1e-14);
    assert!((l2.value - (l1.value + l2.per_level[2])).abs() < 1e-12);
}
