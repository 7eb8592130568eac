//! The AVX2 row update of the matmul kernels and the AVX2 dot product —
//! the workspace's only `unsafe` code.
//!
//! Policy: every `unsafe` block carries a `// SAFETY:` comment
//! (`clippy::undocumented_unsafe_blocks` is denied here), and unsafe
//! operations inside an `unsafe fn` still need their own block. The
//! blocks are of two kinds: calling an AVX2-compiled function (the loop
//! nest or the dot product), which needs the [`Avx2`] token that only a
//! positive run-time check creates, and unaligned 256-bit loads and
//! stores of two adjacent `Complex64`s, which `#[repr(C)]` lays out as
//! four contiguous `f64`.

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

use super::{finish_dot, loops};
use crate::Complex64;
use std::arch::x86_64::{
    __m256d, _mm256_add_pd, _mm256_addsub_pd, _mm256_loadu_pd, _mm256_movedup_pd, _mm256_mul_pd,
    _mm256_permute_pd, _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd,
};

/// Proof that the running CPU supports AVX2: only [`Avx2::detect`]
/// makes one.
#[derive(Clone, Copy, Debug)]
pub(super) struct Avx2(());

impl Avx2 {
    /// `Some` when this CPU supports AVX2 (the check is cached by the
    /// standard library after its first run).
    pub(super) fn detect() -> Option<Avx2> {
        is_x86_feature_detected!("avx2").then_some(Avx2(()))
    }

    /// [`loops`] compiled with AVX2 enabled, on the vector row update.
    #[inline(always)]
    pub(super) fn loops(
        self,
        m: usize,
        k: usize,
        n: usize,
        lhs: impl Fn(usize, usize) -> Complex64,
        b: &[Complex64],
        out: &mut [Complex64],
    ) {
        // SAFETY: an `Avx2` exists only after `detect` found AVX2 on
        // this CPU, which is all `loops_avx2` requires.
        unsafe { loops_avx2(m, k, n, lhs, b, out) }
    }

    /// [`super::dot`] on the vector body. The rows have equal lengths.
    #[inline(always)]
    pub(super) fn dot(self, x: &[Complex64], y: &[Complex64]) -> Complex64 {
        // SAFETY: an `Avx2` exists only after `detect` found AVX2 on
        // this CPU, which is all `dot_avx2` requires.
        unsafe { dot_avx2(x, y) }
    }
}

/// `Σ_t x[t]·y[t]` with partial sums 0 and 1 in one register and 2 and
/// 3 in another: per term the scalar `a + u·v` to the bit (the product
/// as in [`row_update`], no fused multiply-add), then the scalar tail
/// and pairwise sum of [`finish_dot`].
#[target_feature(enable = "avx2")]
fn dot_avx2(x: &[Complex64], y: &[Complex64]) -> Complex64 {
    let (mut acc01, mut acc23) = (_mm256_setzero_pd(), _mm256_setzero_pd());
    let (xs, ys) = (x.chunks_exact(4), y.chunks_exact(4));
    let (x_tail, y_tail) = (xs.remainder(), ys.remainder());
    for (xq, yq) in xs.zip(ys) {
        let (x01, x23) = xq.split_at(2);
        let (y01, y23) = yq.split_at(2);
        acc01 = _mm256_add_pd(acc01, products(x01, y01));
        acc23 = _mm256_add_pd(acc23, products(x23, y23));
    }
    let mut acc = [Complex64::ZERO; 4];
    let (sums01, sums23) = acc.split_at_mut(2);
    // SAFETY: `sums01` and `sums23` are two `Complex64`s each, four
    // contiguous, in-bounds `f64` (`#[repr(C)]`), written unaligned.
    unsafe {
        _mm256_storeu_pd(sums01.as_mut_ptr().cast::<f64>(), acc01);
        _mm256_storeu_pd(sums23.as_mut_ptr().cast::<f64>(), acc23);
    }
    finish_dot(acc, x_tail, y_tail)
}

/// `[u0·v0, u1·v1]` for two-element `u` and `v`: lane 0 of `addsub`
/// is `u.re·v.re − u.im·v.im`, lane 1 `u.re·v.im + u.im·v.re`.
#[target_feature(enable = "avx2")]
#[inline]
fn products(u: &[Complex64], v: &[Complex64]) -> __m256d {
    assert!(u.len() == 2 && v.len() == 2);
    // SAFETY: `u` and `v` hold exactly two `Complex64`s each (asserted
    // above), four contiguous, in-bounds `f64`, read unaligned.
    let (uv, vv) = unsafe {
        (
            _mm256_loadu_pd(u.as_ptr().cast::<f64>()),
            _mm256_loadu_pd(v.as_ptr().cast::<f64>()),
        )
    };
    let re = _mm256_movedup_pd(uv);
    let im = _mm256_permute_pd::<0b1111>(uv);
    let swapped = _mm256_permute_pd::<0b0101>(vv);
    _mm256_addsub_pd(_mm256_mul_pd(re, vv), _mm256_mul_pd(im, swapped))
}

/// The loop nests with the vector row update inlined into them.
#[target_feature(enable = "avx2")]
fn loops_avx2(
    m: usize,
    k: usize,
    n: usize,
    lhs: impl Fn(usize, usize) -> Complex64,
    b: &[Complex64],
    out: &mut [Complex64],
) {
    loops(m, k, n, lhs, b, out, |x, b_row, out_row| {
        row_update(x, b_row, out_row)
    });
}

/// `out_row += x · b_row`, two elements per register. Per element this
/// is the scalar `o + x·y` to the bit: lane 0 of `addsub` computes
/// `x.re·y.re − x.im·y.im`, lane 1 `x.re·y.im + x.im·y.re`, with no
/// fused multiply-add. An odd last element takes the scalar expression.
#[target_feature(enable = "avx2")]
#[inline]
fn row_update(x: Complex64, b_row: &[Complex64], out_row: &mut [Complex64]) {
    debug_assert_eq!(b_row.len(), out_row.len());
    let xr = _mm256_set1_pd(x.re);
    let xi = _mm256_set1_pd(x.im);
    let mut outs = out_row.chunks_exact_mut(2);
    let mut ys = b_row.chunks_exact(2);
    for (o, y) in (&mut outs).zip(&mut ys) {
        // SAFETY: `y` and `o` are chunks of exactly two `Complex64`s,
        // each a `#[repr(C)]` pair of `f64`: four contiguous, in-bounds
        // `f64`, read and written with unaligned loads and stores.
        unsafe {
            let yv = _mm256_loadu_pd(y.as_ptr().cast::<f64>());
            let ov = _mm256_loadu_pd(o.as_ptr().cast::<f64>());
            let swapped = _mm256_permute_pd::<0b0101>(yv);
            let prod = _mm256_addsub_pd(_mm256_mul_pd(xr, yv), _mm256_mul_pd(xi, swapped));
            _mm256_storeu_pd(o.as_mut_ptr().cast::<f64>(), _mm256_add_pd(ov, prod));
        }
    }
    for (o, &y) in outs.into_remainder().iter_mut().zip(ys.remainder()) {
        *o += x * y;
    }
}
