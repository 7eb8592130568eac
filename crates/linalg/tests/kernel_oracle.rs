//! The dispatched kernels equal the scalar oracle bit for bit.
//!
//! `Matrix::matmul` and `Tensor::contract` call the dispatched kernels
//! themselves, so the "compiled == reference" suites elsewhere compare
//! the vector path with itself. Here the subject is
//! [`kernels::matmul_into`] / [`kernels::matmul_gather_lhs_into`]
//! (the AVX2 row update on CPUs that have it) and [`kernels::dot`]
//! (the AVX2 dot product), and the oracle is [`kernels::scalar`], on
//! shapes that cross the 512-wide column panel and leave an odd last
//! element (dots of every length modulo 4), and on values that probe
//! the arithmetic: exact `±0.0` entries of `a` (the zero-skip),
//! subnormals, and `-0.0` in `b`.

use proptest::prelude::*;
use qns_linalg::{c64, kernels, Complex64};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One component: mostly uniform in `[-1, 1)`, sometimes a signed
/// zero or a subnormal.
fn component(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..10u32) {
        0 => 0.0,
        1 => -0.0,
        2 => rng.random_range(-1.0..1.0) * f64::MIN_POSITIVE,
        _ => rng.random_range(-1.0..1.0),
    }
}

/// `len` entries of `a`: a quarter are exact zeros of either sign,
/// which the kernels skip.
fn lhs_values(rng: &mut StdRng, len: usize) -> Vec<Complex64> {
    let signed_zero = |rng: &mut StdRng| {
        if rng.random_range(0..2u32) == 1 {
            -0.0
        } else {
            0.0
        }
    };
    (0..len)
        .map(|_| match rng.random_range(0..4u32) {
            0 => c64(signed_zero(rng), signed_zero(rng)),
            _ => c64(component(rng), component(rng)),
        })
        .collect()
}

fn rhs_values(rng: &mut StdRng, len: usize) -> Vec<Complex64> {
    (0..len)
        .map(|_| c64(component(rng), component(rng)))
        .collect()
}

fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
    v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

/// Output widths: 1, 2, small odd and even, and both sides of the
/// 512-element panel.
fn widths() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(2usize),
        (1usize..40).prop_map(|h| 2 * h + 1),
        3usize..64,
        Just(511usize),
        Just(512usize),
        Just(513usize),
        Just(1030usize),
    ]
}

/// Flat offsets of every row-major index combination over `axes` of a
/// row-major tensor of `shape`.
fn offsets(shape: &[usize], axes: &[usize]) -> Vec<usize> {
    let stride = |a: usize| shape[a + 1..].iter().product::<usize>();
    let mut table = vec![0usize];
    for &a in axes {
        table = table
            .iter()
            .flat_map(|&base| (0..shape[a]).map(move |c| base + c * stride(a)))
            .collect();
    }
    table
}

/// Dot lengths: every tail length on short rows, and long rows on both
/// sides of a multiple of four.
const DOT_LENGTHS: [usize; 14] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 511, 512, 513, 1030];

#[test]
fn dot_matches_scalar_oracle() {
    for (seed, &len) in (0u64..).zip(DOT_LENGTHS.iter().cycle().take(4 * DOT_LENGTHS.len())) {
        let mut rng = StdRng::seed_from_u64(0xd07 + seed);
        // Either side may carry the exact zeros.
        let (x, y) = match seed % 2 {
            0 => (lhs_values(&mut rng, len), rhs_values(&mut rng, len)),
            _ => (rhs_values(&mut rng, len), lhs_values(&mut rng, len)),
        };
        let (got, want) = (kernels::dot(&x, &y), kernels::scalar::dot(&x, &y));
        assert_eq!(bits(&[got]), bits(&[want]), "len {len}, seed {seed}");
    }
}

#[test]
fn dot_keeps_the_sign_of_exact_zeros() {
    // Every product's real part is `-0.0 · 1 − 0.0 · 0.0 = -0.0`; each
    // partial sum starts at `+0.0`, so the result is `+0.0` on both
    // paths, whatever the length.
    let z = c64(-0.0, 0.0);
    for &len in &DOT_LENGTHS {
        let (x, y) = (vec![z; len], vec![c64(1.0, 0.0); len]);
        let got = kernels::dot(&x, &y);
        assert_eq!(
            bits(&[got]),
            bits(&[kernels::scalar::dot(&x, &y)]),
            "len {len}"
        );
        assert_eq!(bits(&[got]), bits(&[Complex64::ZERO]), "len {len}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dense_kernel_matches_scalar_oracle(
        m in 1usize..7,
        k in 0usize..10,
        n in widths(),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = lhs_values(&mut rng, m * k);
        let b = rhs_values(&mut rng, k * n);
        let mut got = vec![c64(7.0, -7.0); m * n];
        let mut want = vec![c64(-7.0, 7.0); m * n];
        kernels::matmul_into(&a, &b, &mut got, m, k, n);
        kernels::scalar::matmul_into(&a, &b, &mut want, m, k, n);
        prop_assert!(bits(&got) == bits(&want), "{m}x{k}x{n}, seed {seed:#x}");
    }

    #[test]
    fn gather_kernel_matches_scalar_oracle(
        rank in 1usize..5,
        split in 0usize..5,
        n in widths(),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape: Vec<usize> = (0..rank).map(|_| rng.random_range(1..5usize)).collect();
        // A random axis permutation, split into row and column axes.
        let mut perm: Vec<usize> = (0..rank).collect();
        for t in (1..rank).rev() {
            perm.swap(t, rng.random_range(0..t + 1));
        }
        let (rows, cols) = perm.split_at(split.min(rank));
        let (row_off, col_off) = (offsets(&shape, rows), offsets(&shape, cols));
        let (m, k) = (row_off.len(), col_off.len());
        let a = lhs_values(&mut rng, shape.iter().product());
        let b = rhs_values(&mut rng, k * n);
        let mut got = vec![c64(7.0, -7.0); m * n];
        let mut want = vec![c64(-7.0, 7.0); m * n];
        kernels::matmul_gather_lhs_into(&a, &row_off, &col_off, &b, &mut got, n);
        kernels::scalar::matmul_gather_lhs_into(&a, &row_off, &col_off, &b, &mut want, n);
        prop_assert!(
            bits(&got) == bits(&want),
            "shape {shape:?}, rows {rows:?}, cols {cols:?}, n {n}, seed {seed:#x}"
        );
    }
}
