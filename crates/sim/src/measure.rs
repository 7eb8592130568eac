//! Measurement utilities: basis-outcome probabilities, shot sampling,
//! and partial traces — what a user does after simulating.

use crate::density::DensityMatrix;
use qns_linalg::{Complex64, Matrix};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

/// Computational-basis outcome probabilities of a statevector.
pub fn probabilities(state: &[Complex64]) -> Vec<f64> {
    state.iter().map(|z| z.norm_sqr()).collect()
}

/// Samples `shots` computational-basis outcomes from a statevector,
/// returning outcome → count.
///
/// # Panics
///
/// Panics if the state has non-unit norm beyond `1e-6`.
pub fn sample_counts(state: &[Complex64], shots: usize, seed: u64) -> HashMap<usize, usize> {
    let probs = probabilities(state);
    let total: f64 = probs.iter().sum();
    assert!((total - 1.0).abs() < 1e-6, "state is not normalized");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = HashMap::new();
    for _ in 0..shots {
        let mut u = rng.random_range(0.0..1.0) * total;
        let mut outcome = probs.len() - 1;
        for (i, p) in probs.iter().enumerate() {
            u -= p;
            if u <= 0.0 {
                outcome = i;
                break;
            }
        }
        *counts.entry(outcome).or_insert(0) += 1;
    }
    counts
}

/// Marginal probability of measuring `1` on each qubit of a
/// statevector (qubit 0 is the most significant bit).
pub fn one_probabilities(state: &[Complex64], n: usize) -> Vec<f64> {
    assert_eq!(state.len(), 1usize << n, "state length mismatch");
    let mut out = vec![0.0; n];
    for (idx, z) in state.iter().enumerate() {
        let p = z.norm_sqr();
        if p == 0.0 {
            continue;
        }
        for (q, slot) in out.iter_mut().enumerate() {
            if (idx >> (n - 1 - q)) & 1 == 1 {
                *slot += p;
            }
        }
    }
    out
}

/// Partial trace of a density matrix, keeping the qubits in `keep`
/// (ascending order of the original indices; the result's qubit `k`
/// corresponds to `keep[k]`).
///
/// # Panics
///
/// Panics if `keep` is empty, unsorted, repeats, or is out of range.
pub fn partial_trace(rho: &DensityMatrix, keep: &[usize]) -> Matrix {
    let n = rho.n_qubits();
    assert!(!keep.is_empty(), "must keep at least one qubit");
    for w in keep.windows(2) {
        assert!(w[0] < w[1], "keep list must be strictly ascending");
    }
    assert!(
        keep.last().is_some_and(|&q| q < n),
        "kept qubit out of range"
    );

    let full = rho.to_matrix();
    let k = keep.len();
    let kept_dim = 1usize << k;
    let traced: Vec<usize> = (0..n).filter(|q| !keep.contains(q)).collect();
    let traced_dim = 1usize << traced.len();

    // Compose a full index from kept bits and traced bits.
    let build = |kept_bits: usize, traced_bits: usize| -> usize {
        let mut idx = 0usize;
        for (pos, &q) in keep.iter().enumerate() {
            let bit = (kept_bits >> (k - 1 - pos)) & 1;
            idx |= bit << (n - 1 - q);
        }
        for (pos, &q) in traced.iter().enumerate() {
            let bit = (traced_bits >> (traced.len() - 1 - pos)) & 1;
            idx |= bit << (n - 1 - q);
        }
        idx
    };

    let mut out = Matrix::zeros(kept_dim, kept_dim);
    for r in 0..kept_dim {
        for c in 0..kept_dim {
            let mut acc = Complex64::ZERO;
            for t in 0..traced_dim {
                acc += full[(build(r, t), build(c, t))];
            }
            out[(r, c)] = acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density;
    use crate::statevector::{ghz_state, run, zero_state};
    use qns_circuit::generators::ghz;
    use qns_linalg::cr;
    use qns_noise::NoisyCircuit;

    #[test]
    fn probabilities_sum_to_one() {
        let s = ghz_state(4);
        let total: f64 = probabilities(&s).iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_distribution() {
        let s = ghz_state(3);
        let counts = sample_counts(&s, 20_000, 7);
        let p0 = *counts.get(&0).unwrap_or(&0) as f64 / 20_000.0;
        let p7 = *counts.get(&7).unwrap_or(&0) as f64 / 20_000.0;
        assert!((p0 - 0.5).abs() < 0.02, "p0 = {p0}");
        assert!((p7 - 0.5).abs() < 0.02, "p7 = {p7}");
        assert_eq!(counts.keys().filter(|&&k| k != 0 && k != 7).count(), 0);
    }

    #[test]
    fn sampling_is_deterministic_in_seed() {
        let s = run(&ghz(3), &zero_state(3));
        assert_eq!(sample_counts(&s, 100, 5), sample_counts(&s, 100, 5));
    }

    #[test]
    fn one_probabilities_of_ghz() {
        let s = ghz_state(4);
        for p in one_probabilities(&s, 4) {
            assert!((p - 0.5).abs() < 1e-12);
        }
        let z = zero_state(3);
        for p in one_probabilities(&z, 3) {
            assert!(p.abs() < 1e-12);
        }
    }

    #[test]
    fn partial_trace_of_product_state() {
        // |01⟩ traced over qubit 1 leaves |0⟩⟨0|.
        let mut state = vec![Complex64::ZERO; 4];
        state[1] = Complex64::ONE; // |01⟩
        let rho = density::DensityMatrix::from_pure(&state);
        let reduced = partial_trace(&rho, &[0]);
        assert!(reduced[(0, 0)].approx_eq(cr(1.0), 1e-12));
        assert!(reduced[(1, 1)].approx_eq(cr(0.0), 1e-12));
    }

    #[test]
    fn partial_trace_of_ghz_is_maximally_mixed() {
        let rho = density::DensityMatrix::from_pure(&ghz_state(3));
        let reduced = partial_trace(&rho, &[1]);
        assert!(reduced.approx_eq(&Matrix::identity(2).scale(cr(0.5)), 1e-12));
        // reduced state of two qubits: diagonal (0.5, 0, 0, 0.5).
        let pair = partial_trace(&rho, &[0, 2]);
        assert!(pair[(0, 0)].approx_eq(cr(0.5), 1e-12));
        assert!(pair[(3, 3)].approx_eq(cr(0.5), 1e-12));
        assert!(pair[(0, 3)].abs() < 1e-12, "coherence must be traced away");
    }

    #[test]
    fn partial_trace_preserves_trace() {
        let noisy = NoisyCircuit::inject_random(
            ghz(4),
            &qns_noise::channels::amplitude_damping(0.2),
            3,
            13,
        );
        let rho = density::run(&noisy, &zero_state(4));
        let reduced = partial_trace(&rho, &[0, 2]);
        assert!((reduced.trace().re - 1.0).abs() < 1e-10);
        assert!(reduced.is_hermitian(1e-10));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_keep_panics() {
        let rho = density::DensityMatrix::from_pure(&zero_state(3));
        let _ = partial_trace(&rho, &[2, 0]);
    }
}
