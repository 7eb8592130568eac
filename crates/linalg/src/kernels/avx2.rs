//! The AVX2 row update of the matmul kernels — the workspace's only
//! `unsafe` code.
//!
//! Policy: every `unsafe` block carries a `// SAFETY:` comment
//! (`clippy::undocumented_unsafe_blocks` is denied here), and unsafe
//! operations inside an `unsafe fn` still need their own block. The
//! blocks are of two kinds: calling the AVX2-compiled loop nest, which
//! needs the [`Avx2`] token that only a positive run-time check
//! creates, and unaligned 256-bit loads and stores of two adjacent
//! `Complex64`s, which `#[repr(C)]` lays out as four contiguous `f64`.

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

use super::panel_loops;
use crate::Complex64;
use std::arch::x86_64::{
    _mm256_add_pd, _mm256_addsub_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_permute_pd,
    _mm256_set1_pd, _mm256_storeu_pd,
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

    /// [`panel_loops`] compiled with AVX2 enabled, on the vector row
    /// update.
    #[inline(always)]
    pub(super) fn panel_loops(
        self,
        m: usize,
        k: usize,
        n: usize,
        lhs: impl Fn(usize, usize) -> Complex64,
        b: &[Complex64],
        out: &mut [Complex64],
    ) {
        // SAFETY: an `Avx2` exists only after `detect` found AVX2 on
        // this CPU, which is all `panel_loops_avx2` requires.
        unsafe { panel_loops_avx2(m, k, n, lhs, b, out) }
    }
}

/// The shared loop nest with the vector row update inlined into it.
#[target_feature(enable = "avx2")]
fn panel_loops_avx2(
    m: usize,
    k: usize,
    n: usize,
    lhs: impl Fn(usize, usize) -> Complex64,
    b: &[Complex64],
    out: &mut [Complex64],
) {
    panel_loops(m, k, n, lhs, b, out, |x, b_row, out_row| {
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
