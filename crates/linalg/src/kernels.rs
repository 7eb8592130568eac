//! Allocation-free complex matmul micro-kernels.
//!
//! These are the arithmetic core of the contraction engine's hot path
//! (`qns-tnet`'s compiled plans): row-major complex matrix products
//! that write into **borrowed** output slices, so a caller replaying
//! the same shapes millions of times (the pattern sum) performs zero
//! heap allocations per call.
//!
//! Two flavors:
//!
//! * [`matmul_into`] — both operands contiguous row-major.
//! * [`matmul_gather_lhs_into`] — the left operand is read through
//!   precomputed row/column offset tables, fusing an axis permutation
//!   into the product without materializing the permuted copy. This
//!   works because a contraction's operand permutation always splits
//!   the axes into two groups (free → rows, contracted → columns), so
//!   the permuted flat index factorizes as `row_off[i] + col_off[j]`.
//!
//! # Accumulation order
//!
//! Every kernel accumulates `out[i][j] += a[i][k] · b[k][j]` with `k`
//! strictly ascending per output element and skips `a[i][k] == 0`
//! exactly like [`Matrix::matmul`](crate::Matrix::matmul). This makes
//! the results **bit-identical** to the allocating reference path — a
//! property the contraction engine's tests rely on. Keep it when
//! touching the loops: blocking that reorders the `k` sum would break
//! replay-vs-reference equality.

use crate::Complex64;

/// Column-panel width (elements) for the cache-blocked loops: panels of
/// `b` rows and the `out` row stay resident while `k` streams. 512
/// complexes = 8 KiB, comfortably inside L1 alongside the operands.
const PANEL: usize = 512;

/// `out = a · b` for row-major `a` (`m×k`), `b` (`k×n`), writing the
/// row-major `m×n` product into `out` (fully overwritten).
///
/// Bit-identical to [`Matrix::matmul`](crate::Matrix::matmul) (same
/// accumulation order, same zero-skip), but allocation-free.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn matmul_into(
    a: &[Complex64],
    b: &[Complex64],
    out: &mut [Complex64],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "lhs buffer length mismatch");
    assert_eq!(b.len(), k * n, "rhs buffer length mismatch");
    assert_eq!(out.len(), m * n, "output buffer length mismatch");
    out.fill(Complex64::ZERO);
    for j0 in (0..n).step_by(PANEL) {
        let j1 = (j0 + PANEL).min(n);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n + j0..i * n + j1];
            for (kk, &aik) in a_row.iter().enumerate() {
                if aik == Complex64::ZERO {
                    continue;
                }
                let b_row = &b[kk * n + j0..kk * n + j1];
                for (o, &bkj) in out_row.iter_mut().zip(b_row) {
                    *o += aik * bkj;
                }
            }
        }
    }
}

/// `out = A · b` where `A`'s elements are gathered from `a` as
/// `a[row_off[i] + col_off[kk]]` — the fused-permutation variant of
/// [`matmul_into`]. `m = row_off.len()`, `k = col_off.len()`; `b` is
/// contiguous row-major `k×n` and `out` row-major `m×n` (fully
/// overwritten).
///
/// Same accumulation order and zero-skip as [`matmul_into`], so the
/// result is bit-identical to first materializing the permuted copy of
/// the left operand and multiplying.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions or an offset
/// pair indexes out of `a`.
pub fn matmul_gather_lhs_into(
    a: &[Complex64],
    row_off: &[usize],
    col_off: &[usize],
    b: &[Complex64],
    out: &mut [Complex64],
    n: usize,
) {
    let (m, k) = (row_off.len(), col_off.len());
    assert_eq!(b.len(), k * n, "rhs buffer length mismatch");
    assert_eq!(out.len(), m * n, "output buffer length mismatch");
    out.fill(Complex64::ZERO);
    for j0 in (0..n).step_by(PANEL) {
        let j1 = (j0 + PANEL).min(n);
        for (i, &ro) in row_off.iter().enumerate() {
            let out_row = &mut out[i * n + j0..i * n + j1];
            for (kk, &co) in col_off.iter().enumerate() {
                let aik = a[ro + co];
                if aik == Complex64::ZERO {
                    continue;
                }
                let b_row = &b[kk * n + j0..kk * n + j1];
                for (o, &bkj) in out_row.iter_mut().zip(b_row) {
                    *o += aik * bkj;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{c64, Matrix};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn rand_buf(rng: &mut StdRng, len: usize) -> Vec<Complex64> {
        (0..len)
            .map(|_| c64(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
            .collect()
    }

    #[test]
    fn matmul_into_bit_identical_to_matmul() {
        let mut rng = StdRng::seed_from_u64(1);
        for &(m, k, n) in &[(1, 1, 1), (2, 2, 2), (3, 5, 4), (7, 1, 9), (4, 600, 3)] {
            let a = rand_buf(&mut rng, m * k);
            let b = rand_buf(&mut rng, k * n);
            let reference = Matrix::from_vec(m, k, a.clone())
                .matmul(&Matrix::from_vec(k, n, b.clone()))
                .into_vec();
            let mut out = vec![c64(9.0, 9.0); m * n]; // dirty output
            matmul_into(&a, &b, &mut out, m, k, n);
            assert_eq!(out, reference, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_into_skips_zeros_like_reference() {
        let mut rng = StdRng::seed_from_u64(2);
        let (m, k, n) = (3, 4, 3);
        let mut a = rand_buf(&mut rng, m * k);
        for z in a.iter_mut().step_by(3) {
            *z = Complex64::ZERO;
        }
        let b = rand_buf(&mut rng, k * n);
        let reference = Matrix::from_vec(m, k, a.clone())
            .matmul(&Matrix::from_vec(k, n, b.clone()))
            .into_vec();
        let mut out = vec![Complex64::ZERO; m * n];
        matmul_into(&a, &b, &mut out, m, k, n);
        assert_eq!(out, reference);
    }

    #[test]
    fn gather_matches_materialized_permutation() {
        // a is a 3×4 matrix stored transposed (4×3); gathering with
        // stride tables must equal transposing first, bit for bit.
        let mut rng = StdRng::seed_from_u64(3);
        let (m, k, n) = (3usize, 4usize, 5usize);
        let a_t = rand_buf(&mut rng, k * m); // [k][m] layout
        let b = rand_buf(&mut rng, k * n);
        // a[i][kk] = a_t[kk*m + i] → row_off[i] = i, col_off[kk] = kk*m.
        let row_off: Vec<usize> = (0..m).collect();
        let col_off: Vec<usize> = (0..k).map(|kk| kk * m).collect();
        let mut fused = vec![Complex64::ZERO; m * n];
        matmul_gather_lhs_into(&a_t, &row_off, &col_off, &b, &mut fused, n);

        let a = Matrix::from_vec(k, m, a_t).transpose();
        let mut materialized = vec![Complex64::ZERO; m * n];
        matmul_into(a.as_slice(), &b, &mut materialized, m, k, n);
        assert_eq!(fused, materialized);
    }

    #[test]
    fn outer_product_shape() {
        // k = 1 degenerates to an outer product.
        let a = rand_buf(&mut StdRng::seed_from_u64(4), 3);
        let b = rand_buf(&mut StdRng::seed_from_u64(5), 2);
        let mut out = vec![Complex64::ZERO; 6];
        matmul_into(&a, &b, &mut out, 3, 1, 2);
        for i in 0..3 {
            for j in 0..2 {
                assert_eq!(out[i * 2 + j], a[i] * b[j]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "output buffer length mismatch")]
    fn wrong_output_length_panics() {
        let a = [Complex64::ONE; 4];
        let b = [Complex64::ONE; 4];
        let mut out = [Complex64::ZERO; 3];
        matmul_into(&a, &b, &mut out, 2, 2, 2);
    }
}
