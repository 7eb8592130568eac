//! Quantum channels in Kraus form.

use qns_linalg::{Complex64, Matrix};
use std::fmt;

/// A quantum channel `E(ρ) = Σ_k E_k ρ E_k†` given by its Kraus
/// operators.
///
/// All operators must be square and share one dimension. The type does
/// not force trace preservation at construction time (some algorithms
/// work with sub-normalized pieces); use [`Kraus::is_cptp`] to check.
///
/// ```
/// use qns_noise::Kraus;
/// use qns_circuit::Gate;
///
/// let unitary = Kraus::from_unitary(Gate::H.matrix());
/// assert!(unitary.is_cptp(1e-12));
/// ```
#[derive(Clone, PartialEq)]
pub struct Kraus {
    ops: Vec<Matrix>,
    dim: usize,
}

impl Kraus {
    /// Creates a channel from its Kraus operators.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty or the operators are not square
    /// matrices of one common dimension.
    pub fn new(ops: Vec<Matrix>) -> Self {
        assert!(!ops.is_empty(), "channel needs at least one Kraus operator");
        let dim = ops[0].rows();
        for op in &ops {
            assert!(op.is_square(), "Kraus operators must be square");
            assert_eq!(op.rows(), dim, "Kraus operators must share a dimension");
        }
        Kraus { ops, dim }
    }

    /// Wraps a unitary as the channel `ρ ↦ UρU†`.
    pub fn from_unitary(u: Matrix) -> Self {
        Kraus::new(vec![u])
    }

    /// The identity channel on a `dim`-dimensional system.
    pub fn identity(dim: usize) -> Self {
        Kraus::from_unitary(Matrix::identity(dim))
    }

    /// The Kraus operators.
    #[inline]
    pub fn operators(&self) -> &[Matrix] {
        &self.ops
    }

    /// Whether `other` has the same operators as `self`, bit for bit
    /// (`-0.0` and `0.0` differ; so do NaNs with different payloads):
    /// the equality under which every derived quantity — the
    /// superoperator, the noise rate, a decomposition — is the same.
    pub fn same_bits(&self, other: &Kraus) -> bool {
        fn bits(m: &Matrix) -> impl Iterator<Item = (u64, u64)> + '_ {
            m.as_slice()
                .iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
        }
        self.ops.len() == other.ops.len()
            && self
                .ops
                .iter()
                .zip(&other.ops)
                .all(|(x, y)| (x.rows(), x.cols()) == (y.rows(), y.cols()) && bits(x).eq(bits(y)))
    }

    /// Hilbert space dimension the channel acts on.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of Kraus operators.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Always `false` (construction requires at least one operator);
    /// provided for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Checks complete positivity and trace preservation:
    /// `‖Σ E_k†E_k − I‖_max ≤ tol`.
    pub fn is_cptp(&self, tol: f64) -> bool {
        let mut sum = Matrix::zeros(self.dim, self.dim);
        for e in &self.ops {
            sum = &sum + &e.adjoint().matmul(e);
        }
        (&sum - &Matrix::identity(self.dim)).max_abs() <= tol
    }

    /// Applies the channel to a density matrix: `Σ E_k ρ E_k†`.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is not `dim × dim`.
    pub fn apply(&self, rho: &Matrix) -> Matrix {
        assert_eq!(
            (rho.rows(), rho.cols()),
            (self.dim, self.dim),
            "density matrix dimension mismatch"
        );
        let mut out = Matrix::zeros(self.dim, self.dim);
        for e in &self.ops {
            out = &out + &e.matmul(rho).matmul(&e.adjoint());
        }
        out
    }

    /// The superoperator (matrix) representation
    /// `M_E = Σ_k E_k ⊗ E_k*` acting on vectorized density matrices
    /// (paper, Section III).
    pub fn superoperator(&self) -> Matrix {
        let d = self.dim;
        let mut m = Matrix::zeros(d * d, d * d);
        // Accumulates each `E ⊗ E*` in place, entry by entry: the sum
        // `Matrix::kron` and `+` would build, with the zero entries of
        // `E` contributing exactly `0` as `kron` writes them.
        for e in &self.ops {
            for i in 0..d {
                for j in 0..d {
                    let a = e[(i, j)];
                    for k in 0..d {
                        for l in 0..d {
                            let term = if a == Complex64::ZERO {
                                Complex64::ZERO
                            } else {
                                a * e[(k, l)].conj()
                            };
                            let at = (i * d + k, j * d + l);
                            m[at] += term;
                        }
                    }
                }
            }
        }
        m
    }

    /// The paper's noise rate: `‖M_E − I‖₂` (largest singular value of
    /// the deviation of the superoperator from the identity).
    pub fn noise_rate(&self) -> f64 {
        let m = self.superoperator();
        let id = Matrix::identity(m.rows());
        (&m - &id).spectral_norm()
    }

    /// Sequential composition: `(other ∘ self)(ρ) = other(self(ρ))`.
    ///
    /// The Kraus set of the composition is all products `F_j · E_k`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions disagree.
    pub fn then(&self, other: &Kraus) -> Kraus {
        assert_eq!(self.dim, other.dim, "composition dimension mismatch");
        let mut ops = Vec::with_capacity(self.ops.len() * other.ops.len());
        for f in &other.ops {
            for e in &self.ops {
                ops.push(f.matmul(e));
            }
        }
        Kraus::new(ops)
    }

    /// Tensor product channel `self ⊗ other` acting on the joint system.
    pub fn tensor(&self, other: &Kraus) -> Kraus {
        let mut ops = Vec::with_capacity(self.ops.len() * other.ops.len());
        for e in &self.ops {
            for f in &other.ops {
                ops.push(e.kron(f));
            }
        }
        Kraus::new(ops)
    }

    /// Drops Kraus operators with negligible weight (`‖E‖_F ≤ tol`),
    /// keeping at least one.
    pub fn prune(&self, tol: f64) -> Kraus {
        let kept: Vec<Matrix> = self
            .ops
            .iter()
            .filter(|e| e.frobenius_norm() > tol)
            .cloned()
            .collect();
        if kept.is_empty() {
            Kraus::new(vec![self.ops[0].clone()])
        } else {
            Kraus::new(kept)
        }
    }

    /// Probability weights `tr(E_k† E_k)/dim` — sampling weights for a
    /// maximally mixed input; these sum to 1 for a CPTP channel.
    pub fn average_weights(&self) -> Vec<f64> {
        self.ops
            .iter()
            .map(|e| e.adjoint().matmul(e).trace().re / self.dim as f64)
            .collect()
    }
}

impl fmt::Debug for Kraus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Kraus(dim={}, {} operators, rate={:.3e})",
            self.dim,
            self.ops.len(),
            self.noise_rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels;
    use qns_circuit::Gate;
    use qns_linalg::{cr, Complex64};

    fn density_zero() -> Matrix {
        let mut rho = Matrix::zeros(2, 2);
        rho[(0, 0)] = cr(1.0);
        rho
    }

    #[test]
    fn unitary_channel_is_cptp() {
        for g in [Gate::H, Gate::T, Gate::SqrtW] {
            assert!(Kraus::from_unitary(g.matrix()).is_cptp(1e-12));
        }
    }

    #[test]
    fn identity_channel_fixes_states() {
        let id = Kraus::identity(2);
        let rho = density_zero();
        assert!(id.apply(&rho).approx_eq(&rho, 1e-14));
        assert!(id.noise_rate() < 1e-12);
    }

    #[test]
    fn apply_preserves_trace_for_cptp() {
        let ch = channels::depolarizing(0.2);
        let rho = density_zero();
        let out = ch.apply(&rho);
        assert!((out.trace().re - 1.0).abs() < 1e-12);
        assert!(out.is_hermitian(1e-12));
    }

    #[test]
    fn superoperator_reproduces_apply() {
        // vec(E(ρ)) = M_E · vec(ρ) with row-major vectorization
        // vec(|i⟩⟨j|) at index i*d+j, matching E ⊗ E*.
        let ch = channels::amplitude_damping(0.3);
        let mut rho = Matrix::zeros(2, 2);
        rho[(0, 0)] = cr(0.25);
        rho[(0, 1)] = qns_linalg::c64(0.1, 0.2);
        rho[(1, 0)] = qns_linalg::c64(0.1, -0.2);
        rho[(1, 1)] = cr(0.75);
        let m = ch.superoperator();
        let vec_rho: Vec<Complex64> = rho.as_slice().to_vec();
        let vec_out = m.matvec(&vec_rho);
        let direct = ch.apply(&rho);
        for i in 0..2 {
            for j in 0..2 {
                assert!(
                    vec_out[i * 2 + j].approx_eq(direct[(i, j)], 1e-12),
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn unitary_superoperator_is_unitary() {
        let ch = Kraus::from_unitary(Gate::H.matrix());
        assert!(ch.superoperator().is_unitary(1e-12));
    }

    #[test]
    fn composition_matches_sequential_application() {
        let a = channels::bit_flip(0.1);
        let b = channels::phase_flip(0.2);
        let rho = density_zero();
        let seq = b.apply(&a.apply(&rho));
        let comp = a.then(&b).apply(&rho);
        assert!(seq.approx_eq(&comp, 1e-12));
    }

    #[test]
    fn composition_superoperator_is_product() {
        let a = channels::bit_flip(0.1);
        let b = channels::amplitude_damping(0.2);
        let lhs = a.then(&b).superoperator();
        let rhs = b.superoperator().matmul(&a.superoperator());
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn tensor_channel_dimension() {
        let a = channels::depolarizing(0.1);
        let t = a.tensor(&Kraus::identity(2));
        assert_eq!(t.dim(), 4);
        assert!(t.is_cptp(1e-12));
    }

    #[test]
    fn average_weights_sum_to_one() {
        let ch = channels::depolarizing(0.25);
        let s: f64 = ch.average_weights().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prune_drops_zero_operators() {
        let ch = Kraus::new(vec![Matrix::identity(2), Matrix::zeros(2, 2)]);
        assert_eq!(ch.prune(1e-12).len(), 1);
    }

    #[test]
    #[should_panic(expected = "share a dimension")]
    fn mixed_dimensions_panic() {
        let _ = Kraus::new(vec![Matrix::identity(2), Matrix::identity(4)]);
    }
}
