//! Singular value decomposition via one-sided Jacobi rotations.
//!
//! The paper's approximation hinges on the SVD of the tensor-permuted
//! superoperator matrix `M̃_E` (a 4×4 complex matrix for single-qubit
//! noise). One-sided Jacobi is a natural fit: it is simple, numerically
//! robust, and converges very quickly on the small matrices that appear
//! here, while still handling the larger matrices the tensor-network
//! code occasionally feeds it.
//!
//! The algorithm right-multiplies `B ← B·J` by unitary plane rotations
//! `J` chosen to orthogonalize pairs of columns, accumulating the same
//! rotations into `V`. On convergence `B = U·Σ`, so `A = U·Σ·V†`.

use crate::{Complex64, Matrix};

/// Result of a singular value decomposition `A = U·diag(σ)·V†`.
///
/// `U` is `m × k` and `V` is `n × k` with `k = min(m, n)`; both have
/// orthonormal columns. Singular values are sorted in descending order.
///
/// ```
/// use qns_linalg::{svd, Matrix, cr};
/// let a = Matrix::from_rows(&[vec![cr(3.0), cr(0.0)], vec![cr(0.0), cr(4.0)]]);
/// let d = svd(&a);
/// assert!((d.singular_values[0] - 4.0).abs() < 1e-12);
/// assert!((d.singular_values[1] - 3.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct Svd {
    /// Left singular vectors (columns), `m × k`.
    pub u: Matrix,
    /// Singular values in descending order, length `k`.
    pub singular_values: Vec<f64>,
    /// Right singular vectors (columns), `n × k`.
    pub v: Matrix,
}

impl Svd {
    /// Reconstructs `U·diag(σ)·V†` (for testing / verification).
    pub fn reconstruct(&self) -> Matrix {
        let k = self.singular_values.len();
        let mut us = self.u.clone();
        for j in 0..k {
            for i in 0..us.rows() {
                us[(i, j)] = us[(i, j)] * self.singular_values[j];
            }
        }
        us.matmul(&self.v.adjoint())
    }

    /// The rank-1 component `σ_i · u_i · v_i†` for singular triple `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn rank_one_term(&self, i: usize) -> Matrix {
        assert!(
            i < self.singular_values.len(),
            "singular index out of range"
        );
        let m = self.u.rows();
        let n = self.v.rows();
        let mut out = Matrix::zeros(m, n);
        let s = self.singular_values[i];
        for r in 0..m {
            let ur = self.u[(r, i)] * s;
            for c in 0..n {
                out[(r, c)] = ur * self.v[(c, i)].conj();
            }
        }
        out
    }

    /// Numerical rank: the number of singular values above `tol`.
    pub fn rank(&self, tol: f64) -> usize {
        self.singular_values.iter().filter(|&&s| s > tol).count()
    }
}

/// Maximum number of Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 100;

/// Relative off-diagonal tolerance for convergence.
const CONV_TOL: f64 = 1e-14;

/// Computes the singular value decomposition of `a`.
///
/// Works for any shape; when `a` has more columns than rows the
/// decomposition of the adjoint is computed and the factors swapped.
///
/// # Panics
///
/// Panics if the matrix has a zero dimension.
pub fn svd(a: &Matrix) -> Svd {
    assert!(a.rows() > 0 && a.cols() > 0, "svd of empty matrix");
    if a.cols() > a.rows() {
        // A† = U'·Σ·V'† ⇒ A = V'·Σ·U'†.
        let t = svd(&a.adjoint());
        return Svd {
            u: t.v,
            singular_values: t.singular_values,
            v: t.u,
        };
    }
    let m = a.rows();
    let n = a.cols();
    let mut b = a.clone();
    let mut v = Matrix::identity(n);

    for _sweep in 0..MAX_SWEEPS {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                // Gram entries for the column pair (p, q).
                let mut alpha = 0.0;
                let mut beta = 0.0;
                let mut gamma = Complex64::ZERO;
                for i in 0..m {
                    let bp = b[(i, p)];
                    let bq = b[(i, q)];
                    alpha += bp.norm_sqr();
                    beta += bq.norm_sqr();
                    gamma += bp.conj() * bq;
                }
                let g = gamma.abs();
                let denom = (alpha * beta).sqrt();
                if denom <= f64::MIN_POSITIVE || g <= CONV_TOL * denom {
                    continue;
                }
                off = off.max(g / denom);
                // Phase that makes the inner product real non-negative:
                // w = e^{i·arg(gamma)}.
                let w = gamma / g;
                // Classic Jacobi angle zeroing the off-diagonal of
                // [[alpha, g], [g, beta]].
                let zeta = (beta - alpha) / (2.0 * g);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                // Right-multiply B and V by the unitary
                //   J = [[c, s], [-s·conj(w), c·conj(w)]]
                // acting on columns (p, q).
                let wc = w.conj();
                for i in 0..m {
                    let bp = b[(i, p)];
                    let bq = b[(i, q)] * wc;
                    b[(i, p)] = bp * c - bq * s;
                    b[(i, q)] = bp * s + bq * c;
                }
                for i in 0..n {
                    let vp = v[(i, p)];
                    let vq = v[(i, q)] * wc;
                    v[(i, p)] = vp * c - vq * s;
                    v[(i, q)] = vp * s + vq * c;
                }
            }
        }
        if off <= CONV_TOL {
            break;
        }
    }

    // Column norms are the singular values; normalize to get U.
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f64> = (0..n)
        .map(|j| (0..m).map(|i| b[(i, j)].norm_sqr()).sum::<f64>().sqrt())
        .collect();
    #[expect(
        clippy::expect_used,
        reason = "column norms of a finite matrix are finite and non-negative"
    )]
    order.sort_by(|&x, &y| norms[y].partial_cmp(&norms[x]).expect("NaN singular value"));

    let mut u = Matrix::zeros(m, n);
    let mut vv = Matrix::zeros(n, n);
    let mut sigma = Vec::with_capacity(n);
    for (dst, &src) in order.iter().enumerate() {
        let s = norms[src];
        sigma.push(s);
        if s > 0.0 {
            for i in 0..m {
                u[(i, dst)] = b[(i, src)] / s;
            }
        }
        for i in 0..n {
            vv[(i, dst)] = v[(i, src)];
        }
    }
    Svd {
        u,
        singular_values: sigma,
        v: vv,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{c64, cr};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_matrix(rng: &mut StdRng, m: usize, n: usize) -> Matrix {
        let data = (0..m * n)
            .map(|_| c64(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
            .collect();
        Matrix::from_vec(m, n, data)
    }

    fn assert_orthonormal_columns(a: &Matrix, tol: f64) {
        let g = a.adjoint().matmul(a);
        assert!(
            g.approx_eq(&Matrix::identity(a.cols()), tol),
            "columns not orthonormal: {g:?}"
        );
    }

    #[test]
    fn diagonal_matrix_svd() {
        let a = Matrix::from_diag(&[cr(1.0), cr(-5.0), cr(2.0)]);
        let d = svd(&a);
        assert!((d.singular_values[0] - 5.0).abs() < 1e-12);
        assert!((d.singular_values[1] - 2.0).abs() < 1e-12);
        assert!((d.singular_values[2] - 1.0).abs() < 1e-12);
        assert!(d.reconstruct().approx_eq(&a, 1e-12));
    }

    #[test]
    fn reconstruction_square_random() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [2usize, 3, 4, 6, 8] {
            let a = random_matrix(&mut rng, n, n);
            let d = svd(&a);
            assert!(d.reconstruct().approx_eq(&a, 1e-10), "failed at n={n}");
            assert_orthonormal_columns(&d.v, 1e-10);
        }
    }

    #[test]
    fn reconstruction_tall_and_wide() {
        let mut rng = StdRng::seed_from_u64(11);
        let tall = random_matrix(&mut rng, 6, 3);
        let d = svd(&tall);
        assert_eq!(d.u.rows(), 6);
        assert_eq!(d.u.cols(), 3);
        assert!(d.reconstruct().approx_eq(&tall, 1e-10));

        let wide = random_matrix(&mut rng, 3, 6);
        let d = svd(&wide);
        assert_eq!(d.v.rows(), 6);
        assert!(d.reconstruct().approx_eq(&wide, 1e-10));
    }

    #[test]
    fn singular_values_descending_and_nonnegative() {
        let mut rng = StdRng::seed_from_u64(13);
        let a = random_matrix(&mut rng, 5, 5);
        let d = svd(&a);
        for w in d.singular_values.windows(2) {
            assert!(w[0] >= w[1] - 1e-14);
        }
        assert!(d.singular_values.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn unitary_has_unit_singular_values() {
        // Hadamard ⊗ Hadamard is unitary.
        let inv = std::f64::consts::FRAC_1_SQRT_2;
        let h = Matrix::from_rows(&[vec![cr(inv), cr(inv)], vec![cr(inv), cr(-inv)]]);
        let hh = h.kron(&h);
        let d = svd(&hh);
        for s in &d.singular_values {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rank_one_terms_sum_to_matrix() {
        let mut rng = StdRng::seed_from_u64(17);
        let a = random_matrix(&mut rng, 4, 4);
        let d = svd(&a);
        let mut sum = Matrix::zeros(4, 4);
        for i in 0..4 {
            sum = &sum + &d.rank_one_term(i);
        }
        assert!(sum.approx_eq(&a, 1e-10));
    }

    #[test]
    fn eckart_young_rank_one_error() {
        // Best rank-1 approximation error equals the second singular value.
        let mut rng = StdRng::seed_from_u64(23);
        let a = random_matrix(&mut rng, 4, 4);
        let d = svd(&a);
        let r1 = d.rank_one_term(0);
        let err = (&a - &r1).spectral_norm();
        assert!(
            (err - d.singular_values[1]).abs() < 1e-8,
            "Eckart–Young violated: err={err}, σ₂={}",
            d.singular_values[1]
        );
    }

    #[test]
    fn rank_detection() {
        let a = Matrix::from_rows(&[
            vec![cr(1.0), cr(2.0)],
            vec![cr(2.0), cr(4.0)], // linearly dependent row
        ]);
        let d = svd(&a);
        assert_eq!(d.rank(1e-10), 1);
    }

    #[test]
    fn zero_matrix_svd() {
        let a = Matrix::zeros(3, 3);
        let d = svd(&a);
        assert!(d.singular_values.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn spectral_norm_of_scaled_identity() {
        let a = Matrix::identity(4).scale(cr(2.5));
        assert!((a.spectral_norm() - 2.5).abs() < 1e-12);
    }
}
