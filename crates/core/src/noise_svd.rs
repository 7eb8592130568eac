//! SVD decomposition of noise superoperators into Kronecker terms.
//!
//! For a single-qubit channel `E` with Kraus operators `K_k`, the
//! superoperator `M_E = Σ_k K_k ⊗ K_k*` is a `4×4` matrix. Its tensor
//! permutation `M̃_E = Σ_k vec(K_k)·vec(K_k)†` is the channel's Choi
//! matrix: Hermitian and positive semi-definite. Its SVD is therefore
//! an eigendecomposition `M̃_E = Σ_i λ_i·e_i·e_i†` with `λ_i ≥ 0`, and
//! un-permuting each rank-1 piece yields the exact expansion
//!
//! ```text
//! M_E = U_0 ⊗ V_0 + U_1 ⊗ V_1 + U_2 ⊗ V_2 + U_3 ⊗ V_3,
//! U_i = √λ_i · reshape(e_i),   V_i = conj(U_i)
//! ```
//!
//! with `U_0 ⊗ V_0` (largest eigenvalue) the dominant term — a
//! `4p`-accurate approximation when the noise rate is below `p`
//! (paper, Lemma 2). This module is Fig. 3 of the paper in code.
//!
//! `V_i = conj(U_i)` holds **exactly** — it is how `V_i` is built — so
//! each term `U_i ⊗ conj(U_i)` is itself the superoperator of the
//! single (unnormalised) Kraus operator `U_i`. That is what lets
//! [`crate::approx`] evaluate an expectation pattern as `|amp|²` of one
//! network instead of the product of two.

use crate::permutation::tensor_permute;
use qns_linalg::{cr, Matrix};
use qns_noise::Kraus;

/// The Kronecker expansion `M_E = Σ_i U_i ⊗ V_i` of a single-qubit
/// noise superoperator, ordered by descending weight, with
/// `V_i = conj(U_i)` exactly.
///
/// ```
/// use qns_core::NoiseSvd;
/// use qns_noise::channels;
///
/// let svd = NoiseSvd::decompose(&channels::depolarizing(1e-3));
/// // The dominant term carries almost all the weight.
/// assert!(svd.singular_values()[0] > 1.9);
/// assert!(svd.singular_values()[1] < 1e-2);
/// // The lower factor is the conjugate of the upper one, bit for bit.
/// let (u, v) = svd.term(1);
/// assert_eq!(*v, u.conj());
/// ```
#[derive(Clone, Debug)]
pub struct NoiseSvd {
    terms: Vec<(Matrix, Matrix)>,
    singular_values: Vec<f64>,
}

impl NoiseSvd {
    /// Decomposes a single-qubit channel through the Hermitian
    /// eigendecomposition of its permuted superoperator (its Choi
    /// matrix). Eigenvalues that rounding pushes below zero are
    /// clamped to `0`.
    ///
    /// # Panics
    ///
    /// Panics if the channel is not single-qubit.
    pub fn decompose(channel: &Kraus) -> Self {
        assert_eq!(channel.dim(), 2, "decomposition expects a 1-qubit channel");
        let eig = qns_linalg::eigh(&tensor_permute(&channel.superoperator()));
        let singular_values: Vec<f64> = eig.eigenvalues.iter().map(|&l| l.max(0.0)).collect();
        let terms = singular_values
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                // U_i[a,b] = √λ_i·e_i[a·2+b]; then
                // M[(i1,i2),(j1,j2)] = Σ_i U_i[i1,j1]·conj(U_i[i2,j2]).
                let w = cr(l.sqrt());
                let mut u = Matrix::zeros(2, 2);
                for a in 0..2 {
                    for b in 0..2 {
                        u[(a, b)] = eig.eigenvectors[(a * 2 + b, i)] * w;
                    }
                }
                let v = u.conj();
                (u, v)
            })
            .collect();
        NoiseSvd {
            terms,
            singular_values,
        }
    }

    /// The four Kronecker terms `(U_i, V_i)`, descending by weight.
    pub fn terms(&self) -> &[(Matrix, Matrix)] {
        &self.terms
    }

    /// Term `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ 4`.
    pub fn term(&self, i: usize) -> (&Matrix, &Matrix) {
        let (u, v) = &self.terms[i];
        (u, v)
    }

    /// The dominant term `(U_0, V_0)`.
    pub fn dominant(&self) -> (&Matrix, &Matrix) {
        self.term(0)
    }

    /// Singular values of `M̃_E`, descending — its eigenvalues, as
    /// `M̃_E` is positive semi-definite.
    pub fn singular_values(&self) -> &[f64] {
        &self.singular_values
    }

    /// The channel's Kraus rank: the number of eigenvalues that are
    /// not exactly `0.0`. The eigenvalues descend, so terms
    /// `0..rank()` are the nonzero ones and every later `U_i` is the
    /// zero matrix, whose patterns add exactly `+0.0`. Only exact
    /// zeros count; a tiny positive eigenvalue keeps its term.
    ///
    /// ```
    /// use qns_core::NoiseSvd;
    /// use qns_noise::channels;
    ///
    /// assert_eq!(NoiseSvd::decompose(&channels::depolarizing(1e-3)).rank(), 4);
    /// assert_eq!(NoiseSvd::decompose(&channels::amplitude_damping(1e-3)).rank(), 2);
    /// ```
    pub fn rank(&self) -> usize {
        self.singular_values.iter().filter(|&&l| l > 0.0).count()
    }

    /// Reconstructs `Σ_i U_i ⊗ V_i` (exactly `M_E` up to numerics).
    pub fn reconstruct(&self) -> Matrix {
        let mut m = Matrix::zeros(4, 4);
        for (u, v) in &self.terms {
            m = &m + &u.kron(v);
        }
        m
    }

    /// Spectral-norm error of the rank-1 (level-0) substitution:
    /// `‖M_E − U_0 ⊗ V_0‖₂`.
    pub fn dominant_error(&self) -> f64 {
        let (u, v) = self.dominant();
        (&self.reconstruct() - &u.kron(v)).spectral_norm()
    }

    /// Norm of the residual `M̄ = Σ_{i≥1} U_i ⊗ V_i` (the paper's
    /// `‖M̄_E‖ < 4p` quantity in Theorem 1's proof).
    pub fn residual_norm(&self) -> f64 {
        let (u, v) = self.dominant();
        let residual = &self.reconstruct() - &u.kron(v);
        residual.spectral_norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_noise::channels;
    use qns_noise::Kraus;

    fn channels_under_test() -> Vec<(&'static str, Kraus)> {
        let mut v = channels::catalogue(1e-3);
        v.push(("thermal", channels::thermal_relaxation(30.0, 40.0, 25.0)));
        v
    }

    #[test]
    fn reconstruction_is_exact() {
        for (name, ch) in channels_under_test() {
            let svd = NoiseSvd::decompose(&ch);
            assert!(
                svd.reconstruct().approx_eq(&ch.superoperator(), 1e-10),
                "{name}: Σ U_i⊗V_i ≠ M_E"
            );
        }
    }

    #[test]
    fn lower_factor_is_bitwise_conjugate_of_upper() {
        for (name, ch) in channels_under_test() {
            let svd = NoiseSvd::decompose(&ch);
            for i in 0..4 {
                let (u, v) = svd.term(i);
                for a in 0..2 {
                    for b in 0..2 {
                        let (x, y) = (u[(a, b)].conj(), v[(a, b)]);
                        assert_eq!(
                            (x.re.to_bits(), x.im.to_bits()),
                            (y.re.to_bits(), y.im.to_bits()),
                            "{name}: V_{i}[{a},{b}] ≠ conj(U_{i}[{a},{b}])"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn eigenvalues_match_singular_values_of_permuted_superoperator() {
        // M̃_E is PSD, so its eigenvalues are its singular values.
        for (name, ch) in channels_under_test() {
            let svd = NoiseSvd::decompose(&ch);
            let reference = qns_linalg::svd(&tensor_permute(&ch.superoperator()));
            for (i, (&l, &s)) in svd
                .singular_values()
                .iter()
                .zip(&reference.singular_values)
                .enumerate()
            {
                assert!(l >= 0.0, "{name}: λ_{i} = {l} < 0");
                assert!((l - s).abs() < 1e-12, "{name}: λ_{i} = {l} vs σ_{i} = {s}");
            }
        }
    }

    #[test]
    fn identity_channel_is_pure_rank_one() {
        let svd = NoiseSvd::decompose(&Kraus::identity(2));
        assert!(svd.singular_values()[0] > 1.9);
        for &s in &svd.singular_values()[1..] {
            assert!(s < 1e-12);
        }
        let (u, v) = svd.dominant();
        let dom = u.kron(v);
        assert!(dom.approx_eq(&Matrix::identity(4), 1e-10));
    }

    #[test]
    fn lemma_2_dominant_error_bound() {
        // ‖M_E − U_0⊗V_0‖ < 4·‖M_E − I‖ for every small channel.
        for (name, ch) in channels_under_test() {
            let rate = ch.noise_rate();
            let err = NoiseSvd::decompose(&ch).dominant_error();
            assert!(
                err <= 4.0 * rate + 1e-10,
                "{name}: Lemma 2 violated ({err} > 4·{rate})"
            );
        }
    }

    #[test]
    fn dominant_error_shrinks_with_noise_rate() {
        let strong = NoiseSvd::decompose(&channels::depolarizing(1e-2)).dominant_error();
        let weak = NoiseSvd::decompose(&channels::depolarizing(1e-4)).dominant_error();
        assert!(weak < strong / 10.0);
    }

    #[test]
    fn unitary_superoperator_is_exactly_rank_one() {
        // U ⊗ U* permutes to a rank-1 matrix, so a unitary "channel"
        // has zero dominant error.
        let ch = Kraus::from_unitary(qns_circuit::Gate::T.matrix());
        let svd = NoiseSvd::decompose(&ch);
        assert!(svd.dominant_error() < 1e-10);
        // and the dominant Kronecker factors are U, U* up to phase.
        let (u, v) = svd.dominant();
        let t = qns_circuit::Gate::T.matrix();
        // u ∝ t: check u·t⁻¹ ∝ I.
        let ratio = u.matmul(&t.adjoint());
        assert!(ratio[(0, 1)].abs() < 1e-10 && ratio[(1, 0)].abs() < 1e-10);
        let _ = v;
    }

    #[test]
    fn singular_values_descend() {
        for (_, ch) in channels_under_test() {
            let svd = NoiseSvd::decompose(&ch);
            for w in svd.singular_values().windows(2) {
                assert!(w[0] >= w[1] - 1e-12);
            }
        }
    }

    #[test]
    fn depolarizing_symmetry_of_terms() {
        // Depolarizing is Pauli-diagonal: M̃ is (real) symmetric, so the
        // sub-dominant singular values are all equal (X, Y, Z symmetric).
        let svd = NoiseSvd::decompose(&channels::depolarizing(1e-3));
        let s = svd.singular_values();
        assert!((s[1] - s[2]).abs() < 1e-10);
        assert!((s[2] - s[3]).abs() < 1e-10);
    }

    #[test]
    fn residual_equals_sum_of_subdominant_terms() {
        let svd = NoiseSvd::decompose(&channels::amplitude_damping(0.05));
        let mut resid = Matrix::zeros(4, 4);
        for i in 1..4 {
            let (u, v) = svd.term(i);
            resid = &resid + &u.kron(v);
        }
        assert!((resid.spectral_norm() - svd.residual_norm()).abs() < 1e-10);
    }

    #[test]
    fn rank_counts_the_nonzero_terms_and_the_rest_are_zero_matrices() {
        // Depolarizing needs all four Paulis, thermal relaxation three
        // Kraus operators; the flips and dampings need two.
        let expect = |name: &str| match name {
            "depolarizing" => 4,
            "thermal" => 3,
            _ => 2,
        };
        for (name, ch) in channels_under_test() {
            let svd = NoiseSvd::decompose(&ch);
            let r = svd.rank();
            assert_eq!(r, expect(name), "{name}");
            for i in 0..4 {
                let (u, _) = svd.term(i);
                let zero = (0..2).all(|a| (0..2).all(|b| u[(a, b)].abs() == 0.0));
                assert_eq!(zero, i >= r, "{name}: U_{i} zero iff i ≥ rank {r}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "1-qubit channel")]
    fn two_qubit_channel_panics() {
        let two = Kraus::identity(4);
        let _ = NoiseSvd::decompose(&two);
    }
}
