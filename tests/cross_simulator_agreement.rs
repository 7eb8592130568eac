//! Cross-simulator agreement: every engine in the workspace must
//! produce the same `⟨v|E_N(|ψ⟩⟨ψ|)|v⟩` on the same noisy circuit.
//!
//! This is the load-bearing integration test, now phrased entirely
//! through the unified `Backend` trait: one `ExpectationJob` per
//! configuration, evaluated by MM-based density matrices, decision
//! diagrams, tensor-network contraction, the full-level (exact) SVD
//! approximation, and quantum trajectories — all agreeing within their
//! respective tolerances.

use qns::circuit::generators::{ghz, hf_vqe, inst_grid, qaoa_ring, qft, QaoaRound};
use qns::circuit::Circuit;
use qns::noise::{channels, Kraus, NoisyCircuit};
use qns::prelude::{
    compare_backends, ApproxBackend, Backend, DensityBackend, Simulation, TddBackend, TnetBackend,
    TrajectoryBackend,
};
use qns::sim::{density, statevector};
use qns::tnet::builder::ProductState;
use qns::tnet::simulator as tn;

/// All deterministic engines on one configuration through the single
/// `Backend` trait; asserts agreement with the dense density-matrix
/// result within each backend's declared tolerance.
fn check_all_engines(noisy: &NoisyCircuit, v_bits: usize, label: &str) {
    let job = Simulation::new(noisy)
        .observable_basis(v_bits)
        .build()
        .expect("valid job");

    let reference = DensityBackend::new()
        .expectation(&job)
        .expect("dense reference feasible at test sizes");

    let tdd = TddBackend::new();
    let tnet = TnetBackend::new();
    let approx = ApproxBackend::exact_for(noisy); // full level = exact
    let backends: Vec<&dyn Backend> = vec![&tdd, &tnet, &approx];
    for (backend, result) in backends.iter().zip(compare_backends(&backends, &job)) {
        let est = result.unwrap_or_else(|e| panic!("{label}/{}: {e}", backend.name()));
        // Bound-aware agreement.
        assert!(
            est.agrees_with(&reference, backend.tolerance()),
            "{label}: MM {} vs {} {}",
            reference.value,
            est.backend,
            est.value
        );
    }
}

fn channel_zoo() -> Vec<(&'static str, Kraus)> {
    vec![
        ("depolarizing", channels::depolarizing(0.02)),
        ("bit_flip", channels::bit_flip(0.05)),
        ("amplitude_damping", channels::amplitude_damping(0.08)),
        ("phase_damping", channels::phase_damping(0.06)),
        ("thermal", channels::thermal_relaxation(30.0, 45.0, 100.0)),
        ("pauli", channels::pauli_channel(0.01, 0.02, 0.015)),
    ]
}

#[test]
fn agreement_on_ghz_across_channels() {
    for (name, ch) in channel_zoo() {
        let noisy = NoisyCircuit::inject_random(ghz(4), &ch, 3, 17);
        check_all_engines(&noisy, 0b1111, &format!("ghz/{name}"));
    }
}

#[test]
fn agreement_on_qaoa() {
    let rounds = [QaoaRound {
        gamma: 0.45,
        beta: 0.31,
    }];
    let c = qaoa_ring(5, &rounds);
    for (name, ch) in channel_zoo().into_iter().take(3) {
        let noisy = NoisyCircuit::inject_random(c.clone(), &ch, 3, 23);
        check_all_engines(&noisy, 0, &format!("qaoa/{name}"));
    }
}

#[test]
fn agreement_on_hf_vqe() {
    let c = hf_vqe(5, 2, 99);
    let noisy =
        NoisyCircuit::inject_random(c, &channels::thermal_relaxation(30.0, 40.0, 50.0), 4, 31);
    // HF circuits preserve particle number; test a weight-2 output.
    check_all_engines(&noisy, 0b11000, "hf_vqe");
}

#[test]
fn agreement_on_supremacy() {
    let c = inst_grid(2, 3, 6, 7);
    let noisy = NoisyCircuit::inject_random(c, &channels::depolarizing(0.01), 4, 41);
    check_all_engines(&noisy, 0b010101, "inst_2x3_6");
}

#[test]
fn agreement_on_qft() {
    let c = qft(4);
    let noisy = NoisyCircuit::inject_random(c, &channels::phase_flip(0.03), 3, 53);
    check_all_engines(&noisy, 0b1010, "qft");
}

#[test]
fn agreement_with_multiple_channel_kinds_in_one_circuit() {
    // Mix channels at explicit positions.
    let mut c = Circuit::new(3);
    c.h(0).cx(0, 1).cx(1, 2).t(2).cz(0, 2);
    let events = vec![
        qns::noise::NoiseEvent {
            after_gate: 1,
            qubit: 1,
            kraus: channels::amplitude_damping(0.1),
        },
        qns::noise::NoiseEvent {
            after_gate: 3,
            qubit: 2,
            kraus: channels::depolarizing(0.05),
        },
        qns::noise::NoiseEvent {
            after_gate: 4,
            qubit: 0,
            kraus: channels::phase_damping(0.07),
        },
    ];
    let noisy = NoisyCircuit::new(c, events);
    check_all_engines(&noisy, 0b110, "mixed-channels");
}

#[test]
fn trajectories_agree_within_statistics() {
    let noisy = NoisyCircuit::inject_random(ghz(4), &channels::depolarizing(0.1), 4, 3);

    // The trajectory engine through the facade, on a product observable.
    let job = Simulation::new(&noisy).build().expect("valid job");
    let exact = DensityBackend::new().expectation(&job).unwrap();
    let exact0 = exact.value;
    for strategy in [
        qns::sim::trajectory::SamplingStrategy::General,
        qns::sim::trajectory::SamplingStrategy::MixedUnitaryFastPath,
    ] {
        let est = TrajectoryBackend::samples(6000)
            .with_strategy(strategy)
            .with_seed(9)
            .expectation(&job)
            .unwrap();
        assert!(
            est.std_error.is_some(),
            "sampling backend reports an error bar"
        );
        // `agrees_with` supplies the 5σ statistical slack itself.
        assert!(
            est.agrees_with(&exact, 1e-3),
            "{strategy:?}: {} vs exact {exact0}",
            est.value
        );
    }

    // A non-product GHZ observable still works against the raw engine
    // (the facade is deliberately product-only).
    let psi = statevector::zero_state(4);
    let v = statevector::ghz_state(4);
    let exact = density::expectation(&noisy, &psi, &v);
    let est = qns::sim::trajectory::estimate(
        &noisy,
        &psi,
        &v,
        6000,
        qns::sim::trajectory::SamplingStrategy::General,
        9,
    );
    assert!(
        (est.mean - exact).abs() < 5.0 * est.std_error.max(1e-3),
        "ghz observable: {} vs exact {exact}",
        est.mean
    );

    // TN trajectories too.
    let p = ProductState::all_zeros(4);
    let vtn = ProductState::basis(4, 0);
    let est = tn::trajectory_estimate(&noisy, &p, &vtn, 3000, 11);
    assert!(
        (est.mean - exact0).abs() < 5.0 * est.std_error.max(2e-3),
        "TN traj {} vs exact {exact0}",
        est.mean
    );
}

#[test]
fn initial_noise_handled_by_all_engines() {
    let mut noisy = NoisyCircuit::noiseless(ghz(3));
    noisy.push_initial(0, channels::bit_flip(0.2));
    check_all_engines(&noisy, 0b111, "initial-noise");
}
