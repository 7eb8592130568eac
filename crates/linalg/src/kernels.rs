//! Allocation-free complex matmul micro-kernels.
//!
//! These are the arithmetic core of the contraction engine's hot path
//! (`qns-tnet`'s compiled plans): row-major complex matrix products
//! that write into **borrowed** output slices, so a caller replaying
//! the same shapes millions of times (the pattern sum) performs zero
//! heap allocations per call.
//!
//! Three flavors:
//!
//! * [`matmul_into`] — both operands contiguous row-major.
//! * [`matmul_gather_lhs_into`] — the left operand is read through
//!   precomputed row/column offset tables, fusing an axis permutation
//!   into the product without materializing the permuted copy. This
//!   works because a contraction's operand permutation always splits
//!   the axes into two groups (free → rows, contracted → columns), so
//!   the permuted flat index factorizes as `row_off[i] + col_off[j]`.
//! * [`matmul_transposed_lhs_into`] — the left operand is a contiguous
//!   row-major matrix read transposed: the reverse (environment) step
//!   `aᵀ · b` of a contraction whose lhs needed no permutation.
//!
//! Next to them, [`dot`] takes `Σ_t
//! x[t]·y[t]` of two contiguous rows: the reverse step of a contraction
//! whose operands' environments are narrow, one dot product per entry.
//! [`gather_blocked`] and [`scatter_blocked`] move the elements of an
//! axis permutation in blocks, for the engine's permuted copies.
//!
//! # Loop nests and row updates
//!
//! All three flavors run the same loop nests, chosen per call by the
//! number of columns `n`:
//!
//! * `n == 1`, the **one-column path**: each output is one running sum
//!   in a register, with no row-update call per element.
//! * `n` of 2, 3, 4, 8 or 16, the **fixed-width loops**: one output row
//!   is held in registers while `k` streams, then stored once.
//! * any other `n`, the cache-blocked **panel loops** over column
//!   panels of `b`.
//!
//! The innermost step of the last two is a *row update*,
//! `out[i][j0..j1] += a[i][k] · b[k][j0..j1]`. On x86-64 CPUs with
//! AVX2 (checked once per call) the row update takes two output
//! elements per 256-bit register: with `y = [re, im, re, im]` loaded
//! from `b` and `x = a[i][k]` broadcast, it adds `addsub(x.re·y,
//! x.im·swap(y))` to `out`, and an odd last element takes the scalar
//! expression. The vector [`dot`] forms the same product from two
//! elements of each row per register (`x.re` and `x.im` duplicated in
//! place) and keeps its four partial sums in two registers. Elsewhere
//! the scalar loop runs. The vector code is the workspace's only
//! `unsafe` and lives in a private module; [`scalar`] exposes the
//! portable panel loops, which are also the oracle the other paths are
//! tested against.
//!
//! # Accumulation order
//!
//! Every kernel accumulates `out[i][j] += a[i][k] · b[k][j]` with `k`
//! strictly ascending per output element and skips `a[i][k] == 0`
//! exactly like [`Matrix::matmul`](crate::Matrix::matmul). The vector
//! row update performs, per element, the IEEE operations of the scalar
//! `re = x.re·y.re − x.im·y.im`, `im = x.re·y.im + x.im·y.re`, then the
//! add into `out`: no fused multiply-add (Rust never contracts `a*b +
//! c`, and the `fma` feature is not enabled). So both paths are
//! **bit-identical** to each other and to the allocating reference
//! path — a property the contraction engine's tests rely on (where a
//! NaN arises, both give a NaN, but its sign bit may differ). Keep it
//! when touching the loops: blocking that reorders the `k` sum, or an
//! FMA, would break replay-vs-reference equality. The one-column and
//! fixed-width loops keep the same order with the sums held in
//! registers.
//!
//! [`dot`] has its own fixed order, the same on both paths: four
//! partial sums, term `t` added into sum `t mod 4` (`t` ascending), the
//! last `len mod 4` terms into the first sums, then `(s0 + s1) + (s2 +
//! s3)`. It skips no zero.

use crate::Complex64;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2;

/// Column-panel width (elements) for the cache-blocked loops: panels of
/// `b` rows and the `out` row stay resident while `k` streams. 512
/// complexes = 8 KiB, comfortably inside L1 alongside the operands.
const PANEL: usize = 512;

/// `out = a · b` for row-major `a` (`m×k`), `b` (`k×n`), writing the
/// row-major `m×n` product into `out` (fully overwritten).
///
/// Bit-identical to [`Matrix::matmul`](crate::Matrix::matmul) (same
/// accumulation order, same zero-skip), but allocation-free. Runs the
/// AVX2 row update where the CPU has it.
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
    check_dense(a, b, out, m, k, n);
    dispatch(m, k, n, |i, kk| a[i * k + kk], b, out);
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
    let (m, k) = check_gather(row_off, col_off, b, out, n);
    dispatch(m, k, n, |i, kk| a[row_off[i] + col_off[kk]], b, out);
}

/// `out = aᵀ · b` for row-major `a` (`k×m`, read transposed), `b`
/// (`k×n`), writing the row-major `m×n` product into `out` (fully
/// overwritten): the lhs-transposed variant of [`matmul_into`], with
/// the same accumulation order and zero-skip.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn matmul_transposed_lhs_into(
    a: &[Complex64],
    b: &[Complex64],
    out: &mut [Complex64],
    m: usize,
    k: usize,
    n: usize,
) {
    check_dense(a, b, out, m, k, n);
    dispatch(m, k, n, |i, kk| a[kk * m + i], b, out);
}

/// The one-column path: `out[i] = Σ_kk A[i][kk]·b[kk]`, one running sum
/// per output, `kk` ascending, zero entries of `A` skipped.
#[inline(always)]
fn column_loops(lhs: impl Fn(usize, usize) -> Complex64, b: &[Complex64], out: &mut [Complex64]) {
    for (i, o) in out.iter_mut().enumerate() {
        let mut acc = Complex64::ZERO;
        for (kk, &y) in b.iter().enumerate() {
            let x = lhs(i, kk);
            if x != Complex64::ZERO {
                acc += x * y;
            }
        }
        *o = acc;
    }
}

/// `out = A · b` for `N`-column `b` and `out`: per output row, the
/// running row `acc` starts at zero, takes `update(A[i][kk], b[kk],
/// acc)` for each nonzero `A[i][kk]`, `kk` ascending, and is stored
/// once. Always inlined, like [`panel_loops`].
#[inline(always)]
fn fixed_loops<const N: usize>(
    lhs: impl Fn(usize, usize) -> Complex64,
    b: &[Complex64],
    out: &mut [Complex64],
    update: impl Fn(Complex64, &[Complex64], &mut [Complex64]),
) {
    let (b_rows, _) = b.as_chunks::<N>();
    let (out_rows, _) = out.as_chunks_mut::<N>();
    for (i, out_row) in out_rows.iter_mut().enumerate() {
        let mut acc = [Complex64::ZERO; N];
        for (kk, b_row) in b_rows.iter().enumerate() {
            let x = lhs(i, kk);
            if x != Complex64::ZERO {
                update(x, b_row, &mut acc);
            }
        }
        *out_row = acc;
    }
}

/// `dst[dst_row[r] + c] = src[src_row[r] + src_col[c]]` for every row
/// `r` and every column `c < src_col.len()`: the **blocked
/// permutation**, one copy of an axis permutation walked row by row.
///
/// A caller blocks it by how it orders the tables: the columns are the
/// destination-contiguous axis group (trailing in `dst`, so each row is
/// written as one contiguous piece), and the rows vary fastest along
/// the source-contiguous group. So a few consecutive rows read the
/// same few source cache lines, and a block of rows and columns moves
/// within the L1 cache whatever the permutation.
///
/// # Panics
///
/// Panics if the row tables' lengths differ or an offset indexes out of
/// `src` or `dst`.
pub fn gather_blocked(
    src: &[Complex64],
    src_row: &[usize],
    src_col: &[usize],
    dst: &mut [Complex64],
    dst_row: &[usize],
) {
    assert_eq!(src_row.len(), dst_row.len(), "row table length mismatch");
    let cols = src_col.len();
    for (&s, &d) in src_row.iter().zip(dst_row) {
        for (o, &c) in dst[d..d + cols].iter_mut().zip(src_col) {
            *o = src[s + c];
        }
    }
}

/// `dst[dst_row[r] + dst_col[c]] = src[src_row[r] + c]`: the inverse of
/// [`gather_blocked`], which moves the elements back along the same
/// blocks.
///
/// # Panics
///
/// Panics if the row tables' lengths differ or an offset indexes out of
/// `src` or `dst`.
pub fn scatter_blocked(
    src: &[Complex64],
    src_row: &[usize],
    dst: &mut [Complex64],
    dst_row: &[usize],
    dst_col: &[usize],
) {
    assert_eq!(src_row.len(), dst_row.len(), "row table length mismatch");
    let cols = dst_col.len();
    for (&s, &d) in src_row.iter().zip(dst_row) {
        for (&x, &c) in src[s..s + cols].iter().zip(dst_col) {
            dst[d + c] = x;
        }
    }
}

/// `Σ_t x[t]·y[t]` over two equal-length rows, in four interleaved
/// partial sums (`t mod 4`) added pairwise at the end, so the adds do
/// not wait on one another (module docs, *Accumulation order*). Runs
/// two terms per AVX2 register where the CPU has it; rows of fewer than
/// four terms, which have no vector step, take the scalar loop inline.
/// Bit-identical to [`scalar::dot`] either way.
///
/// # Panics
///
/// Panics if the rows' lengths differ.
#[inline(always)]
pub fn dot(x: &[Complex64], y: &[Complex64]) -> Complex64 {
    assert_eq!(x.len(), y.len(), "dot operand length mismatch");
    #[cfg(target_arch = "x86_64")]
    if x.len() >= 4 {
        if let Some(cpu) = avx2::Avx2::detect() {
            return cpu.dot(x, y);
        }
    }
    scalar_dot(x, y)
}

/// The portable scalar kernels, the panel loops whatever the column
/// count: the oracle every other path must match bit for bit. Same
/// signatures and contracts as the dispatched [`matmul_into`],
/// [`matmul_gather_lhs_into`] and [`dot`].
pub mod scalar {
    use super::{check_dense, check_gather, panel_loops, scalar_dot, scalar_row_update};
    use crate::Complex64;

    /// [`dot`](crate::kernels::dot) on the scalar loop.
    ///
    /// # Panics
    ///
    /// As [`dot`](crate::kernels::dot).
    pub fn dot(x: &[Complex64], y: &[Complex64]) -> Complex64 {
        assert_eq!(x.len(), y.len(), "dot operand length mismatch");
        scalar_dot(x, y)
    }

    /// [`matmul_into`](crate::kernels::matmul_into) on the scalar row update.
    ///
    /// # Panics
    ///
    /// As [`matmul_into`](crate::kernels::matmul_into).
    pub fn matmul_into(
        a: &[Complex64],
        b: &[Complex64],
        out: &mut [Complex64],
        m: usize,
        k: usize,
        n: usize,
    ) {
        check_dense(a, b, out, m, k, n);
        panel_loops(m, k, n, |i, kk| a[i * k + kk], b, out, scalar_row_update);
    }

    /// [`matmul_gather_lhs_into`](crate::kernels::matmul_gather_lhs_into) on the
    /// scalar row update.
    ///
    /// # Panics
    ///
    /// As [`matmul_gather_lhs_into`](crate::kernels::matmul_gather_lhs_into).
    pub fn matmul_gather_lhs_into(
        a: &[Complex64],
        row_off: &[usize],
        col_off: &[usize],
        b: &[Complex64],
        out: &mut [Complex64],
        n: usize,
    ) {
        let (m, k) = check_gather(row_off, col_off, b, out, n);
        let lhs = |i: usize, kk: usize| a[row_off[i] + col_off[kk]];
        panel_loops(m, k, n, lhs, b, out, scalar_row_update);
    }
}

fn check_dense(a: &[Complex64], b: &[Complex64], out: &[Complex64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs buffer length mismatch");
    assert_eq!(b.len(), k * n, "rhs buffer length mismatch");
    assert_eq!(out.len(), m * n, "output buffer length mismatch");
}

/// Checks a gather call's buffers; returns its `(m, k)`.
fn check_gather(
    row_off: &[usize],
    col_off: &[usize],
    b: &[Complex64],
    out: &[Complex64],
    n: usize,
) -> (usize, usize) {
    let (m, k) = (row_off.len(), col_off.len());
    assert_eq!(b.len(), k * n, "rhs buffer length mismatch");
    assert_eq!(out.len(), m * n, "output buffer length mismatch");
    (m, k)
}

/// Runs the loop nest of `n` columns ([`loops`]) with the AVX2 row
/// update when this CPU has AVX2, else with the scalar one. Chosen once
/// per call, not per row.
#[inline(always)]
fn dispatch(
    m: usize,
    k: usize,
    n: usize,
    lhs: impl Fn(usize, usize) -> Complex64,
    b: &[Complex64],
    out: &mut [Complex64],
) {
    #[cfg(target_arch = "x86_64")]
    if let Some(cpu) = avx2::Avx2::detect() {
        return cpu.loops(m, k, n, lhs, b, out);
    }
    loops(m, k, n, lhs, b, out, scalar_row_update);
}

/// `out = A · b` with `A[i][kk] = lhs(i, kk)` on the loop nest of `n`
/// columns (module docs): the one-column path, the fixed-width loops of
/// `n`, or the panel loops. Always inlined, like [`panel_loops`].
#[inline(always)]
fn loops(
    m: usize,
    k: usize,
    n: usize,
    lhs: impl Fn(usize, usize) -> Complex64,
    b: &[Complex64],
    out: &mut [Complex64],
    update: impl Fn(Complex64, &[Complex64], &mut [Complex64]),
) {
    match n {
        1 => column_loops(lhs, b, out),
        2 => fixed_loops::<2>(lhs, b, out, update),
        3 => fixed_loops::<3>(lhs, b, out, update),
        4 => fixed_loops::<4>(lhs, b, out, update),
        8 => fixed_loops::<8>(lhs, b, out, update),
        16 => fixed_loops::<16>(lhs, b, out, update),
        _ => panel_loops(m, k, n, lhs, b, out, update),
    }
}

/// The loop nest every kernel runs: `out = A · b` with `A[i][kk] =
/// lhs(i, kk)`, over column panels of [`PANEL`] elements, `k`
/// ascending per output element, zero entries of `A` skipped.
/// `update(x, b_row, out_row)` adds `x · b_row` to `out_row` (equal
/// lengths). Always inlined, so the AVX2 caller compiles the whole
/// nest, row update included, with the vector feature enabled.
#[inline(always)]
fn panel_loops(
    m: usize,
    k: usize,
    n: usize,
    lhs: impl Fn(usize, usize) -> Complex64,
    b: &[Complex64],
    out: &mut [Complex64],
    update: impl Fn(Complex64, &[Complex64], &mut [Complex64]),
) {
    out.fill(Complex64::ZERO);
    for j0 in (0..n).step_by(PANEL) {
        let j1 = (j0 + PANEL).min(n);
        for i in 0..m {
            let out_row = &mut out[i * n + j0..i * n + j1];
            for kk in 0..k {
                let aik = lhs(i, kk);
                if aik == Complex64::ZERO {
                    continue;
                }
                update(aik, &b[kk * n + j0..kk * n + j1], out_row);
            }
        }
    }
}

/// The scalar [`dot`] of two rows of equal length: the order the
/// vector body keeps.
#[inline(always)]
fn scalar_dot(x: &[Complex64], y: &[Complex64]) -> Complex64 {
    let mut acc = [Complex64::ZERO; 4];
    let (xs, ys) = (x.chunks_exact(4), y.chunks_exact(4));
    let (x_tail, y_tail) = (xs.remainder(), ys.remainder());
    for (xq, yq) in xs.zip(ys) {
        for ((a, &u), &v) in acc.iter_mut().zip(xq).zip(yq) {
            *a += u * v;
        }
    }
    finish_dot(acc, x_tail, y_tail)
}

/// Adds the last `len mod 4` terms into the first partial sums, then
/// the sums pairwise: the end every [`dot`] shares. The sums stay in
/// named locals (an indexed array would be spilled and reloaded).
#[inline(always)]
fn finish_dot(acc: [Complex64; 4], x_tail: &[Complex64], y_tail: &[Complex64]) -> Complex64 {
    let [mut s0, mut s1, mut s2, s3] = acc;
    let mut terms = x_tail.iter().zip(y_tail).map(|(&u, &v)| u * v);
    for s in [&mut s0, &mut s1, &mut s2] {
        if let Some(t) = terms.next() {
            *s += t;
        }
    }
    (s0 + s1) + (s2 + s3)
}

/// `out_row += x · b_row`, one element at a time.
#[inline(always)]
fn scalar_row_update(x: Complex64, b_row: &[Complex64], out_row: &mut [Complex64]) {
    for (o, &y) in out_row.iter_mut().zip(b_row) {
        *o += x * y;
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
    fn transposed_lhs_matches_materialized_transpose() {
        let mut rng = StdRng::seed_from_u64(6);
        for &(m, k, n) in &[(1, 1, 1), (3, 4, 5), (8, 2, 1), (2, 7, 600)] {
            let a_t = rand_buf(&mut rng, k * m); // [k][m] layout
            let b = rand_buf(&mut rng, k * n);
            let mut fused = vec![c64(9.0, 9.0); m * n];
            matmul_transposed_lhs_into(&a_t, &b, &mut fused, m, k, n);
            let a = Matrix::from_vec(k, m, a_t).transpose();
            let mut materialized = vec![Complex64::ZERO; m * n];
            matmul_into(a.as_slice(), &b, &mut materialized, m, k, n);
            assert_eq!(fused, materialized, "{m}x{k}x{n}");
        }
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
