//! Jacobi eigensolver for Hermitian matrices.
//!
//! Used to validate density matrices (positive semi-definiteness),
//! check channel fixed points, and compute exact spectral quantities in
//! tests. The implementation performs cyclic two-sided Jacobi rotations
//! with a diagonal phase transformation that reduces each complex
//! off-diagonal entry to the real case.

use crate::{Complex64, Matrix};

/// Result of a Hermitian eigendecomposition `A = Q·diag(λ)·Q†`.
///
/// Eigenvalues are real and sorted in descending order; eigenvectors
/// are the corresponding columns of `Q` (orthonormal).
///
/// ```
/// use qns_linalg::{eigh, Matrix, cr};
/// let z = Matrix::from_rows(&[vec![cr(1.0), cr(0.0)], vec![cr(0.0), cr(-1.0)]]);
/// let e = eigh(&z);
/// assert!((e.eigenvalues[0] - 1.0).abs() < 1e-12);
/// assert!((e.eigenvalues[1] + 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct HermitianEig {
    /// Real eigenvalues, descending.
    pub eigenvalues: Vec<f64>,
    /// Orthonormal eigenvectors as the columns of `Q`.
    pub eigenvectors: Matrix,
}

impl HermitianEig {
    /// Reconstructs `Q·diag(λ)·Q†` (for testing / verification).
    pub fn reconstruct(&self) -> Matrix {
        let n = self.eigenvalues.len();
        let mut qd = self.eigenvectors.clone();
        for j in 0..n {
            for i in 0..n {
                qd[(i, j)] = qd[(i, j)] * self.eigenvalues[j];
            }
        }
        qd.matmul(&self.eigenvectors.adjoint())
    }

    /// Smallest eigenvalue (useful for PSD checks).
    pub fn min_eigenvalue(&self) -> f64 {
        self.eigenvalues.last().copied().unwrap_or(0.0)
    }
}

const MAX_SWEEPS: usize = 100;
const CONV_TOL: f64 = 1e-14;

/// Computes the eigendecomposition of a Hermitian matrix.
///
/// The input is symmetrized internally (`(A + A†)/2`) so that tiny
/// numerical asymmetries do not derail convergence.
///
/// # Panics
///
/// Panics if the matrix is not square or is empty.
pub fn eigh(a: &Matrix) -> HermitianEig {
    assert!(a.is_square(), "eigh requires a square matrix");
    let n = a.rows();
    assert!(n > 0, "eigh of empty matrix");
    // Symmetrize to guard against numerical asymmetry in the input.
    let mut m = a.adjoint();
    m = (&m + a).scale(Complex64::new(0.5, 0.0));
    let mut q = Matrix::identity(n);

    for _sweep in 0..MAX_SWEEPS {
        let mut off = 0.0f64;
        for p in 0..n {
            for q_idx in (p + 1)..n {
                let apq = m[(p, q_idx)];
                let g = apq.abs();
                let scale = (m[(p, p)].re.abs() + m[(q_idx, q_idx)].re.abs()).max(1e-300);
                if g <= CONV_TOL * scale {
                    continue;
                }
                off = off.max(g / scale);
                // Phase transformation making the off-diagonal real:
                // with D = diag(1, w), (D† M D) has entry |apq| at (p,q).
                let w = apq / g;
                // Real Jacobi rotation zeroing |apq| against the diagonal.
                let app = m[(p, p)].re;
                let aqq = m[(q_idx, q_idx)].re;
                let zeta = (aqq - app) / (2.0 * g);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                // Combined unitary acting on columns (p, q):
                //   J = [[c, s·w], [-s·conj(w)·... ]]
                // Implemented as column updates followed by the matching
                // row updates (conjugated), i.e. M ← J† M J, Q ← Q J.
                // Column update with J = [[c, s], [-s, c]] in the phased
                // basis: col_q is first de-phased by conj(w).
                let wc = w.conj();
                // M ← M·J (columns).
                for i in 0..n {
                    let mp = m[(i, p)];
                    let mq = m[(i, q_idx)] * wc;
                    m[(i, p)] = mp * c - mq * s;
                    m[(i, q_idx)] = mp * s + mq * c;
                }
                // M ← J†·M (rows; conjugate of the column op).
                for jcol in 0..n {
                    let mp = m[(p, jcol)];
                    let mq = m[(q_idx, jcol)] * w;
                    m[(p, jcol)] = mp * c - mq * s;
                    m[(q_idx, jcol)] = mp * s + mq * c;
                }
                // Q ← Q·J.
                for i in 0..n {
                    let qp = q[(i, p)];
                    let qq = q[(i, q_idx)] * wc;
                    q[(i, p)] = qp * c - qq * s;
                    q[(i, q_idx)] = qp * s + qq * c;
                }
            }
        }
        if off <= CONV_TOL {
            break;
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| m[(i, i)].re).collect();
    #[expect(
        clippy::expect_used,
        reason = "Jacobi sweeps on a finite Hermitian matrix keep the diagonal finite"
    )]
    order.sort_by(|&x, &y| diag[y].partial_cmp(&diag[x]).expect("NaN eigenvalue"));

    let mut eigenvalues = Vec::with_capacity(n);
    let mut vectors = Matrix::zeros(n, n);
    for (dst, &src) in order.iter().enumerate() {
        eigenvalues.push(diag[src]);
        for i in 0..n {
            vectors[(i, dst)] = q[(i, src)];
        }
    }
    HermitianEig {
        eigenvalues,
        eigenvectors: vectors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{c64, cr};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_hermitian(rng: &mut StdRng, n: usize) -> Matrix {
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = cr(rng.random_range(-1.0..1.0));
            for j in (i + 1)..n {
                let z = c64(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0));
                a[(i, j)] = z;
                a[(j, i)] = z.conj();
            }
        }
        a
    }

    #[test]
    fn pauli_y_spectrum() {
        let y = Matrix::from_rows(&[vec![cr(0.0), c64(0.0, -1.0)], vec![c64(0.0, 1.0), cr(0.0)]]);
        let e = eigh(&y);
        assert!((e.eigenvalues[0] - 1.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_random() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [2usize, 3, 5, 8] {
            let a = random_hermitian(&mut rng, n);
            let e = eigh(&a);
            assert!(e.reconstruct().approx_eq(&a, 1e-9), "failed at n={n}");
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = random_hermitian(&mut rng, 6);
        let e = eigh(&a);
        let g = e.eigenvectors.adjoint().matmul(&e.eigenvectors);
        assert!(g.approx_eq(&Matrix::identity(6), 1e-10));
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = random_hermitian(&mut rng, 5);
        let e = eigh(&a);
        let sum: f64 = e.eigenvalues.iter().sum();
        assert!((a.trace().re - sum).abs() < 1e-10);
    }

    #[test]
    fn psd_matrix_has_nonnegative_spectrum() {
        let mut rng = StdRng::seed_from_u64(21);
        // B†B is always PSD.
        let b = {
            let data = (0..16)
                .map(|_| c64(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
                .collect();
            Matrix::from_vec(4, 4, data)
        };
        let psd = b.adjoint().matmul(&b);
        let e = eigh(&psd);
        assert!(e.min_eigenvalue() > -1e-10);
    }

    #[test]
    fn eigenvalues_match_svd_for_psd() {
        let mut rng = StdRng::seed_from_u64(31);
        let b = random_hermitian(&mut rng, 4);
        let psd = b.matmul(&b); // Hermitian squared = PSD
        let e = eigh(&psd);
        let s = crate::svd(&psd);
        for (l, sv) in e.eigenvalues.iter().zip(&s.singular_values) {
            assert!((l - sv).abs() < 1e-8, "eig {l} vs svd {sv}");
        }
    }

    #[test]
    #[should_panic(expected = "eigh requires a square matrix")]
    fn non_square_panics() {
        let _ = eigh(&Matrix::zeros(2, 3));
    }
}
