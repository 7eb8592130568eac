//! The quantum trajectories (Monte-Carlo) method.
//!
//! Each trajectory runs the circuit on a statevector; at every noise
//! event one Kraus operator is sampled — with state-dependent
//! probabilities `q_k = ‖E_k|φ⟩‖²` in the general case, or with fixed
//! probabilities when the channel is mixed-unitary (the qsim fast
//! path). The estimator `|⟨v|φ⟩|²` is unbiased for
//! `⟨v|E_N(|ψ⟩⟨ψ|)|v⟩`, converging as `O(1/√r)` in the number of
//! samples `r` — the scaling the paper compares against.

use crate::kernels;
use crate::statevector::apply_operation;
use qns_linalg::{Complex64, Matrix};
use qns_noise::{Element, Kraus, NoisyCircuit};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Aggregated result of a trajectory estimation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrajectoryEstimate {
    /// Sample mean of `|⟨v|φ⟩|²`.
    pub mean: f64,
    /// Sample standard deviation of the per-trajectory estimator.
    pub std_dev: f64,
    /// Standard error of the mean (`std_dev / √samples`).
    pub std_error: f64,
    /// Number of trajectories run.
    pub samples: usize,
}

/// How Kraus operators are sampled at noise events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SamplingStrategy {
    /// State-dependent norm sampling (general channels).
    #[default]
    General,
    /// Fixed-probability sampling when the channel is mixed-unitary;
    /// falls back to [`SamplingStrategy::General`] otherwise.
    MixedUnitaryFastPath,
}

/// Decomposes a channel as a mixture of unitaries `Σ p_k U_k ρ U_k†`
/// if every Kraus operator satisfies `E_k†E_k = p_k·I`.
///
/// Returns `(p_k, U_k)` pairs with `Σ p_k = 1`, or `None`.
pub fn mixed_unitary_decomposition(channel: &Kraus) -> Option<Vec<(f64, Matrix)>> {
    let dim = channel.dim();
    let id = Matrix::identity(dim);
    let mut out = Vec::with_capacity(channel.len());
    for e in channel.operators() {
        let g = e.adjoint().matmul(e);
        let p = g.trace().re / dim as f64;
        if p < 0.0 || (&g - &id.scale(qns_linalg::cr(p))).max_abs() > 1e-12 {
            return None;
        }
        if p <= 1e-300 {
            continue;
        }
        out.push((p, e.scale(qns_linalg::cr(1.0 / p.sqrt()))));
    }
    Some(out)
}

/// Runs one trajectory and returns the estimator `|⟨v|φ⟩|²`.
///
/// # Panics
///
/// Panics if state lengths mismatch the circuit.
pub fn run_single(
    noisy: &NoisyCircuit,
    psi: &[Complex64],
    v: &[Complex64],
    strategy: SamplingStrategy,
    rng: &mut StdRng,
) -> f64 {
    let n = noisy.n_qubits();
    assert_eq!(psi.len(), 1usize << n, "input state length mismatch");
    assert_eq!(v.len(), 1usize << n, "test state length mismatch");
    let mut state = psi.to_vec();
    for el in noisy.elements() {
        match el {
            Element::Gate(op) => apply_operation(&mut state, n, op),
            Element::Noise(e) => sample_noise(&mut state, n, e.qubit, &e.kraus, strategy, rng),
        }
    }
    qns_linalg::inner_product(v, &state).norm_sqr()
}

/// Applies one noise event by sampling a Kraus operator.
fn sample_noise(
    state: &mut Vec<Complex64>,
    n: usize,
    qubit: usize,
    channel: &Kraus,
    strategy: SamplingStrategy,
    rng: &mut StdRng,
) {
    if strategy == SamplingStrategy::MixedUnitaryFastPath {
        if let Some(mix) = mixed_unitary_decomposition(channel) {
            let mut u = rng.random_range(0.0..1.0);
            for (p, unitary) in &mix {
                u -= p;
                if u <= 0.0 {
                    kernels::apply_single(state, n, qubit, unitary);
                    return;
                }
            }
            #[expect(
                clippy::expect_used,
                reason = "a mixed-unitary decomposition has at least one term"
            )]
            let last = &mix.last().expect("non-empty mixture").1;
            kernels::apply_single(state, n, qubit, last);
            return;
        }
    }
    // General norm sampling.
    let mut branches: Vec<(f64, Vec<Complex64>)> = Vec::with_capacity(channel.len());
    let mut total = 0.0;
    for e in channel.operators() {
        let mut branch = state.clone();
        kernels::apply_single(&mut branch, n, qubit, e);
        let w = kernels::norm_sqr(&branch);
        total += w;
        branches.push((w, branch));
    }
    debug_assert!(
        (total - kernels::norm_sqr(state)).abs() < 1e-9,
        "CPTP channel should preserve total branch weight"
    );
    let mut u = rng.random_range(0.0..1.0) * total;
    for (w, branch) in branches.iter() {
        u -= w;
        if u <= 0.0 {
            let inv = 1.0 / w.sqrt();
            *state = branch.iter().map(|&z| z * inv).collect();
            return;
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "a Kraus channel has at least one operator"
    )]
    let (w, branch) = branches.last().expect("non-empty channel");
    let inv = 1.0 / w.sqrt();
    *state = branch.iter().map(|&z| z * inv).collect();
}

/// Runs `samples` trajectories and aggregates the estimator.
///
/// With [`SamplingStrategy::MixedUnitaryFastPath`] the mixed-unitary
/// decompositions are computed **once per noise event** up front and
/// reused by every trajectory (they are state-independent), so the
/// fast path's per-sample cost is a single kernel application per
/// noise.
pub fn estimate(
    noisy: &NoisyCircuit,
    psi: &[Complex64],
    v: &[Complex64],
    samples: usize,
    strategy: SamplingStrategy,
    seed: u64,
) -> TrajectoryEstimate {
    assert!(samples > 0, "need at least one sample");
    let n = noisy.n_qubits();
    assert_eq!(psi.len(), 1usize << n, "input state length mismatch");
    assert_eq!(v.len(), 1usize << n, "test state length mismatch");
    let mut rng = StdRng::seed_from_u64(seed);

    // Precompute per-event mixtures for the fast path, aligned with
    // the order noise events appear in `elements()`.
    let mixtures: Vec<Option<Vec<(f64, Matrix)>>> = noisy
        .elements()
        .iter()
        .filter_map(|el| match el {
            qns_noise::Element::Noise(e) => Some(e),
            qns_noise::Element::Gate(_) => None,
        })
        .map(|e| {
            if strategy == SamplingStrategy::MixedUnitaryFastPath {
                mixed_unitary_decomposition(&e.kraus)
            } else {
                None
            }
        })
        .collect();

    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for _ in 0..samples {
        let mut state = psi.to_vec();
        let mut event_idx = 0usize;
        for el in noisy.elements() {
            match el {
                Element::Gate(op) => apply_operation(&mut state, n, op),
                Element::Noise(e) => {
                    match &mixtures[event_idx] {
                        Some(mix) => sample_from_mixture(&mut state, n, e.qubit, mix, &mut rng),
                        None => sample_noise(
                            &mut state,
                            n,
                            e.qubit,
                            &e.kraus,
                            SamplingStrategy::General,
                            &mut rng,
                        ),
                    }
                    event_idx += 1;
                }
            }
        }
        let x = qns_linalg::inner_product(v, &state).norm_sqr();
        sum += x;
        sum_sq += x * x;
    }
    let mean = sum / samples as f64;
    let var = (sum_sq / samples as f64 - mean * mean).max(0.0);
    let std_dev = var.sqrt();
    TrajectoryEstimate {
        mean,
        std_dev,
        std_error: std_dev / (samples as f64).sqrt(),
        samples,
    }
}

/// Samples one branch of a precomputed unitary mixture and applies it.
fn sample_from_mixture(
    state: &mut [Complex64],
    n: usize,
    qubit: usize,
    mix: &[(f64, Matrix)],
    rng: &mut StdRng,
) {
    let mut u = rng.random_range(0.0..1.0);
    for (p, unitary) in mix {
        u -= p;
        if u <= 0.0 {
            kernels::apply_single(state, n, qubit, unitary);
            return;
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "a mixed-unitary decomposition has at least one term"
    )]
    let last = &mix.last().expect("non-empty mixture").1;
    kernels::apply_single(state, n, qubit, last);
}

/// Number of samples needed so that the mean of a `[0,1]`-bounded
/// estimator is within `target_error` of its expectation with
/// probability at least `confidence` (Hoeffding bound):
/// `r = ln(2/(1−confidence)) / (2·ε²)`.
///
/// This is the planner used when matching the trajectories method to a
/// requested accuracy (paper, Fig. 5 and Table III).
///
/// # Panics
///
/// Panics unless `0 < target_error` and `0 < confidence < 1`.
pub fn required_samples(target_error: f64, confidence: f64) -> usize {
    assert!(target_error > 0.0, "target error must be positive");
    assert!(
        (0.0..1.0).contains(&confidence) && confidence > 0.0,
        "confidence must be in (0,1)"
    );
    let delta = 1.0 - confidence;
    ((2.0 / delta).ln() / (2.0 * target_error * target_error)).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density;
    use crate::statevector::{ghz_state, zero_state};
    use qns_circuit::generators::ghz;
    use qns_noise::channels;

    #[test]
    fn noiseless_trajectory_is_deterministic() {
        let noisy = NoisyCircuit::noiseless(ghz(3));
        let psi = zero_state(3);
        let v = ghz_state(3);
        let mut rng = StdRng::seed_from_u64(0);
        let x = run_single(&noisy, &psi, &v, SamplingStrategy::General, &mut rng);
        assert!((x - 1.0).abs() < 1e-12);
    }

    #[test]
    fn estimator_is_unbiased_vs_density() {
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(0.1), 3, 2);
        let psi = zero_state(3);
        let v = ghz_state(3);
        let exact = density::expectation(&noisy, &psi, &v);
        let est = estimate(&noisy, &psi, &v, 4000, SamplingStrategy::General, 1);
        assert!(
            (est.mean - exact).abs() < 5.0 * est.std_error.max(1e-3),
            "mean {} vs exact {} (σ̂ {})",
            est.mean,
            exact,
            est.std_error
        );
    }

    #[test]
    fn fast_path_matches_general_for_mixed_unitary() {
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(0.2), 4, 5);
        let psi = zero_state(3);
        let v = ghz_state(3);
        let exact = density::expectation(&noisy, &psi, &v);
        let fast = estimate(
            &noisy,
            &psi,
            &v,
            4000,
            SamplingStrategy::MixedUnitaryFastPath,
            7,
        );
        assert!(
            (fast.mean - exact).abs() < 5.0 * fast.std_error.max(1e-3),
            "fast-path mean {} vs exact {}",
            fast.mean,
            exact
        );
    }

    #[test]
    fn mixed_unitary_detection() {
        assert!(mixed_unitary_decomposition(&channels::depolarizing(0.1)).is_some());
        assert!(mixed_unitary_decomposition(&channels::bit_flip(0.3)).is_some());
        // Amplitude damping is not mixed-unitary.
        assert!(mixed_unitary_decomposition(&channels::amplitude_damping(0.3)).is_none());
    }

    #[test]
    fn mixed_unitary_probabilities_sum_to_one() {
        let mix = mixed_unitary_decomposition(&channels::depolarizing(0.25)).unwrap();
        let total: f64 = mix.iter().map(|(p, _)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        for (_, u) in &mix {
            assert!(u.is_unitary(1e-10));
        }
    }

    #[test]
    fn general_sampling_handles_amplitude_damping() {
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::amplitude_damping(0.15), 3, 9);
        let psi = zero_state(3);
        let v = ghz_state(3);
        let exact = density::expectation(&noisy, &psi, &v);
        let est = estimate(&noisy, &psi, &v, 4000, SamplingStrategy::General, 3);
        assert!(
            (est.mean - exact).abs() < 5.0 * est.std_error.max(1e-3),
            "mean {} vs exact {}",
            est.mean,
            exact
        );
    }

    #[test]
    fn error_shrinks_with_sample_count() {
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(0.3), 5, 4);
        let psi = zero_state(3);
        let v = ghz_state(3);
        let small = estimate(&noisy, &psi, &v, 100, SamplingStrategy::General, 11);
        let large = estimate(&noisy, &psi, &v, 10_000, SamplingStrategy::General, 11);
        assert!(large.std_error < small.std_error);
    }

    #[test]
    fn required_samples_scales_inverse_square() {
        let r1 = required_samples(1e-2, 0.99);
        let r2 = required_samples(1e-3, 0.99);
        let ratio = r2 as f64 / r1 as f64;
        assert!((ratio - 100.0).abs() / 100.0 < 0.01, "ratio {ratio}");
    }

    #[test]
    fn required_samples_reasonable_magnitude() {
        // ln(200)/2 ≈ 2.65 ⇒ about 2.65/ε².
        let r = required_samples(0.01, 0.99);
        assert!(r > 20_000 && r < 30_000, "r = {r}");
    }

    #[test]
    #[should_panic(expected = "target error must be positive")]
    fn zero_error_panics() {
        let _ = required_samples(0.0, 0.99);
    }
}
