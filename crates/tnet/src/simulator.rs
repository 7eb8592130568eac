//! TN-based simulators: the exact accurate method and a
//! tensor-network quantum-trajectories variant.

use crate::builder::{
    amplitude_network, amplitude_network_with, double_network, Insertion, ProductState,
};
use crate::network::ContractionStats;
use qns_circuit::Circuit;
use qns_linalg::Complex64;
use qns_noise::NoisyCircuit;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;

/// The noiseless amplitude `⟨v|C|ψ⟩` by network contraction.
pub fn amplitude(circuit: &Circuit, psi: &ProductState, v: &ProductState) -> Complex64 {
    let (t, _) = amplitude_network(circuit, psi, v).contract_all();
    t.scalar_value()
}

/// The TN-based exact noisy expectation `⟨v|E_N(|ψ⟩⟨ψ|)|v⟩`:
/// contraction of the paper's double-size network.
pub fn expectation(noisy: &NoisyCircuit, psi: &ProductState, v: &ProductState) -> f64 {
    expectation_with_stats(noisy, psi, v).0
}

/// As [`expectation`], also returning contraction statistics (the
/// memory/effort proxy reported in the Fig. 4 reproduction).
pub fn expectation_with_stats(
    noisy: &NoisyCircuit,
    psi: &ProductState,
    v: &ProductState,
) -> (f64, ContractionStats) {
    let net = double_network(noisy, psi, v, &BTreeMap::new());
    let (t, stats) = net.contract_all();
    (t.scalar_value().re, stats)
}

/// Result of a TN trajectory estimation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TnTrajectoryEstimate {
    /// Mean of the (importance-weighted) estimator.
    pub mean: f64,
    /// Sample standard deviation of the estimator.
    pub std_dev: f64,
    /// Standard error of the mean.
    pub std_error: f64,
    /// Number of trajectories.
    pub samples: usize,
}

/// TN-based quantum trajectories: every trajectory samples one Kraus
/// operator per noise event with the state-independent weights
/// `w_k = tr(E_k†E_k)/2` and contracts the single-size network with
/// the sampled operators spliced in; the estimator
/// `|⟨v|·|²/∏w` is unbiased for the noisy expectation.
///
/// # Panics
///
/// Panics if sizes mismatch or `samples == 0`.
pub fn trajectory_estimate(
    noisy: &NoisyCircuit,
    psi: &ProductState,
    v: &ProductState,
    samples: usize,
    seed: u64,
) -> TnTrajectoryEstimate {
    assert!(samples > 0, "need at least one sample");
    let mut rng = StdRng::seed_from_u64(seed);
    let events: Vec<_> = noisy
        .initial_events()
        .iter()
        .map(|e| (usize::MAX, e))
        .chain(noisy.events().iter().map(|e| (e.after_gate, e)))
        .collect();
    // Pre-compute sampling weights per event.
    let weights: Vec<Vec<f64>> = events
        .iter()
        .map(|(_, e)| e.kraus.average_weights())
        .collect();

    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for _ in 0..samples {
        let mut prob_product = 1.0;
        let mut insertions = Vec::with_capacity(events.len());
        for ((after, e), w) in events.iter().zip(&weights) {
            let total: f64 = w.iter().sum();
            let mut u = rng.random_range(0.0..1.0) * total;
            let mut chosen = w.len() - 1;
            for (k, &wk) in w.iter().enumerate() {
                u -= wk;
                if u <= 0.0 {
                    chosen = k;
                    break;
                }
            }
            prob_product *= w[chosen] / total;
            insertions.push(Insertion {
                after_gate: *after,
                qubit: e.qubit,
                matrix: e.kraus.operators()[chosen].clone(),
            });
        }
        let amp = amplitude_network_with(noisy.circuit(), psi, v, &insertions, false)
            .contract_all()
            .0
            .scalar_value();
        let x = amp.norm_sqr() / prob_product.max(f64::MIN_POSITIVE);
        sum += x;
        sum_sq += x * x;
    }
    let mean = sum / samples as f64;
    let var = (sum_sq / samples as f64 - mean * mean).max(0.0);
    let std_dev = var.sqrt();
    TnTrajectoryEstimate {
        mean,
        std_dev,
        std_error: std_dev / (samples as f64).sqrt(),
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_circuit::generators::{ghz, inst_grid, qaoa_ring, QaoaRound};
    use qns_noise::channels;

    #[test]
    fn amplitude_matches_known_ghz_value() {
        let amp = amplitude(
            &ghz(4),
            &ProductState::all_zeros(4),
            &ProductState::basis(4, 0b1111),
        );
        assert!((amp.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn exact_expectation_equals_mm_reference() {
        // Cross-check the TN exact method against dense density
        // evolution on a noisy QAOA circuit.
        let rounds = [QaoaRound {
            gamma: 0.35,
            beta: 0.25,
        }];
        let c = qaoa_ring(4, &rounds);
        let noisy =
            NoisyCircuit::inject_random(c, &channels::thermal_relaxation(30.0, 40.0, 50.0), 4, 3);
        let psi = ProductState::all_zeros(4);
        let v = ProductState::all_zeros(4);
        let tn = expectation(&noisy, &psi, &v);
        let mm = dense_reference(&noisy, &psi, &v);
        assert!((tn - mm).abs() < 1e-9, "tn {tn} vs mm {mm}");
    }

    #[test]
    fn exact_expectation_on_supremacy_circuit() {
        let c = inst_grid(2, 2, 8, 1);
        let noisy = NoisyCircuit::inject_random(c, &channels::depolarizing(0.01), 3, 9);
        let psi = ProductState::all_zeros(4);
        let v = ProductState::basis(4, 0b0110);
        let tn = expectation(&noisy, &psi, &v);
        let mm = dense_reference(&noisy, &psi, &v);
        assert!((tn - mm).abs() < 1e-9, "tn {tn} vs mm {mm}");
    }

    #[test]
    fn sequential_and_greedy_agree() {
        let noisy = NoisyCircuit::inject_random(ghz(4), &channels::bit_flip(0.05), 2, 2);
        let psi = ProductState::all_zeros(4);
        let v = ProductState::basis(4, 0);
        let g = expectation(&noisy, &psi, &v);
        // The double network contracted in node order: ((0·1)·2)·…
        let net = double_network(&noisy, &psi, &v, &BTreeMap::new());
        let n = net.node_count();
        let sequential: Vec<(usize, usize)> = (1..n)
            .map(|i| (if i == 1 { 0 } else { n + i - 2 }, i))
            .collect();
        let s = net
            .plan_order(&sequential)
            .execute_network(&net)
            .0
            .scalar_value()
            .re;
        assert!((g - s).abs() < 1e-10);
    }

    #[test]
    fn tn_trajectories_unbiased_for_mixed_unitary() {
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(0.15), 3, 7);
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0b111);
        let exact = expectation(&noisy, &psi, &v);
        let est = trajectory_estimate(&noisy, &psi, &v, 3000, 5);
        assert!(
            (est.mean - exact).abs() < 5.0 * est.std_error.max(1e-3),
            "est {} vs exact {}",
            est.mean,
            exact
        );
    }

    #[test]
    fn tn_trajectories_unbiased_for_general_channel() {
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::amplitude_damping(0.2), 2, 11);
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0b000);
        let exact = expectation(&noisy, &psi, &v);
        let est = trajectory_estimate(&noisy, &psi, &v, 4000, 13);
        assert!(
            (est.mean - exact).abs() < 5.0 * est.std_error.max(2e-3),
            "est {} vs exact {}",
            est.mean,
            exact
        );
    }

    #[test]
    fn stats_reflect_more_noise_tensors() {
        let psi = ProductState::all_zeros(4);
        let v = ProductState::basis(4, 0);
        let few = NoisyCircuit::inject_random(ghz(4), &channels::depolarizing(0.01), 1, 1);
        let many = NoisyCircuit::inject_random(ghz(4), &channels::depolarizing(0.01), 8, 1);
        let (_, s_few) = expectation_with_stats(&few, &psi, &v);
        let (_, s_many) = expectation_with_stats(&many, &psi, &v);
        assert!(s_many.contractions > s_few.contractions);
    }

    /// Dense density-matrix reference built from full matrices (slow,
    /// test-only).
    fn dense_reference(noisy: &NoisyCircuit, psi: &ProductState, v: &ProductState) -> f64 {
        use qns_linalg::Matrix;
        let n = noisy.n_qubits();
        let dim = 1usize << n;
        let psi_v = psi.to_statevector();
        let mut rho = Matrix::zeros(dim, dim);
        for r in 0..dim {
            for c in 0..dim {
                rho[(r, c)] = psi_v[r] * psi_v[c].conj();
            }
        }
        for el in noisy.elements() {
            match el {
                qns_noise::Element::Gate(op) => {
                    let mut single = Circuit::new(n);
                    single.push(op.clone());
                    let g = single.unitary();
                    rho = g.matmul(&rho).matmul(&g.adjoint());
                }
                qns_noise::Element::Noise(e) => {
                    let mut acc = Matrix::zeros(dim, dim);
                    for k in e.kraus.operators() {
                        let mut full = Matrix::identity(1);
                        for i in 0..n {
                            let f = if i == e.qubit {
                                k.clone()
                            } else {
                                Matrix::identity(2)
                            };
                            full = full.kron(&f);
                        }
                        acc = &acc + &full.matmul(&rho).matmul(&full.adjoint());
                    }
                    rho = acc;
                }
            }
        }
        let vv = v.to_statevector();
        let mut out = Complex64::ZERO;
        for r in 0..dim {
            for c in 0..dim {
                out += vv[r].conj() * rho[(r, c)] * vv[c];
            }
        }
        out.re
    }
}
