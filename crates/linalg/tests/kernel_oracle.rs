//! The dispatched kernels equal the scalar oracle bit for bit.
//!
//! `Matrix::matmul` and `Tensor::contract` call the dispatched kernels
//! themselves, so the "compiled == reference" suites elsewhere compare
//! the vector path with itself. Here the subject is
//! [`kernels::matmul_into`] / [`kernels::matmul_gather_lhs_into`]
//! (the AVX2 row update on CPUs that have it, and for 1, 2, 3, 4, 8 or
//! 16 columns the one-column path and the fixed-width loops, on every
//! way of reading the left factor) and [`kernels::dot`] (the AVX2 dot
//! product), and the oracle is [`kernels::scalar`], on shapes that
//! cross the 512-wide column panel and leave an odd last element (dots
//! of every length modulo 4), and on values that probe the arithmetic:
//! exact `±0.0` entries of `a` (the zero-skip), subnormals, `-0.0` in
//! `b`, and for the small shapes NaN and `±∞` on both sides, which a
//! skipped zero must never meet.

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

/// One component for the small shapes' operands: an exact zero of
/// either sign, NaN, `±∞`, or an ordinary value.
fn special(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..12u32) {
        0 | 1 => 0.0,
        2 => -0.0,
        3 => f64::NAN,
        4 => f64::INFINITY,
        5 => f64::NEG_INFINITY,
        _ => rng.random_range(-1.0..1.0),
    }
}

/// `len` operand entries of [`special`] components; a third are exact
/// complex zeros, which the kernels skip on the left.
fn special_values(rng: &mut StdRng, len: usize) -> Vec<Complex64> {
    (0..len)
        .map(|_| match rng.random_range(0..3u32) {
            0 => c64(
                if rng.random_range(0..2u32) == 1 {
                    -0.0
                } else {
                    0.0
                },
                0.0,
            ),
            _ => c64(special(rng), special(rng)),
        })
        .collect()
}

/// Bits of each component, every NaN as one value: the vector and
/// scalar paths must agree on where a NaN arises, and to the bit
/// everywhere else.
fn bits_nan_as_one(v: &[Complex64]) -> Vec<(u64, u64)> {
    let one = |x: f64| {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    };
    v.iter().map(|z| (one(z.re), one(z.im))).collect()
}

/// Checks the three kernels at `m × k × n` against the scalar oracle
/// on the materialized left factor, reading `A` row-major
/// ([`kernels::matmul_into`]), transposed
/// ([`kernels::matmul_transposed_lhs_into`]) and through gather tables
/// ([`kernels::matmul_gather_lhs_into`]), on ordinary operands and on
/// operands full of zeros, NaN and `±∞`.
fn check_small(m: usize, k: usize, n: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for special_operands in [false, true] {
        let (a, b) = if special_operands {
            (
                special_values(&mut rng, m * k),
                special_values(&mut rng, k * n),
            )
        } else {
            (lhs_values(&mut rng, m * k), rhs_values(&mut rng, k * n))
        };
        let mut want = vec![c64(-7.0, 7.0); m * n];
        kernels::scalar::matmul_into(&a, &b, &mut want, m, k, n);
        // `A` stored transposed (`k × m`): read transposed, and read
        // through the tables of a column-major gather.
        let a_t: Vec<Complex64> = (0..k * m).map(|t| a[(t % m) * k + t / m]).collect();
        let (row, col): (Vec<usize>, Vec<usize>) =
            ((0..m).collect(), (0..k).map(|kk| kk * m).collect());
        for how in ["row-major", "transposed", "gathered"] {
            let mut got = vec![c64(7.0, -7.0); m * n];
            match how {
                "row-major" => kernels::matmul_into(&a, &b, &mut got, m, k, n),
                "transposed" => kernels::matmul_transposed_lhs_into(&a_t, &b, &mut got, m, k, n),
                _ => kernels::matmul_gather_lhs_into(&a_t, &row, &col, &b, &mut got, n),
            }
            assert_eq!(
                bits_nan_as_one(&got),
                bits_nan_as_one(&want),
                "{m}x{k}x{n} {how}, special {special_operands}, seed {seed:#x}"
            );
        }
    }
}

#[test]
fn narrow_kernels_match_scalar_oracle() {
    let mut seed = 0x4e41;
    // Every shape up to 4 × 4 × 4, the wider fixed widths on small
    // factors, the column counts either side of them (panel loops), and
    // the `deep_sum` shapes: fixed-width products, the one-column root
    // dot products.
    let small = (1..=4).flat_map(|m| (1..=4).flat_map(move |k| (1..=4).map(move |n| (m, k, n))));
    let wide = [5, 7, 8, 9, 15, 16, 17]
        .into_iter()
        .flat_map(|n| [(1, 1, n), (2, 3, n), (4, 4, n)]);
    let deep_sum = [(8, 2, 4), (1, 32, 1), (1, 4096, 1), (8, 2, 1), (4, 8, 8)];
    for (m, k, n) in small.chain(wide).chain(deep_sum) {
        for _ in 0..4 {
            seed += 1;
            check_small(m, k, n, seed);
        }
    }
}

#[test]
fn narrow_kernels_propagate_nan_and_skip_zeros() {
    // A zero entry of `a` meets an infinite row of `b`: skipped, so no
    // `0·∞` NaN; a NaN entry of `a` is not zero, so it propagates.
    let inf = c64(f64::INFINITY, 0.0);
    let b = [inf, inf, c64(1.0, 0.0), c64(2.0, 0.0)];
    let mut out = [Complex64::ZERO; 2];
    let a = [c64(0.0, -0.0), c64(1.0, 0.0)];
    kernels::matmul_into(&a, &b, &mut out, 1, 2, 2);
    assert_eq!(bits(&out), bits(&[c64(1.0, 0.0), c64(2.0, 0.0)]));
    let a = [c64(f64::NAN, 0.0), c64(1.0, 0.0)];
    kernels::matmul_into(&a, &b, &mut out, 1, 2, 2);
    assert!(out.iter().all(|z| z.re.is_nan()), "{out:?}");
    // The one-column path likewise.
    let mut one = [Complex64::ZERO];
    kernels::matmul_into(
        &[Complex64::ZERO, c64(3.0, 0.0)],
        &[inf, c64(1.0, 1.0)],
        &mut one,
        1,
        2,
        1,
    );
    assert_eq!(bits(&one), bits(&[c64(3.0, 3.0)]));
}

#[test]
fn blocked_permutation_round_trips() {
    // A 16 × 8 × 4 tensor gathered as its axes (2, 0, 1): columns are
    // the innermost gathered axis, rows walk the others in source
    // order (axis 1's stride below axis 0's, so axis 1 runs fastest).
    let shape = [16usize, 8, 4];
    let strides = [32usize, 4, 1];
    let src: Vec<Complex64> = (0..512).map(|i| c64(i as f64, -(i as f64))).collect();
    let src_col: Vec<usize> = (0..8).map(|c| c * strides[1]).collect();
    let (mut src_row, mut dst_row) = (Vec::new(), Vec::new());
    for a2 in 0..shape[2] {
        for a0 in 0..shape[0] {
            src_row.push(a2 * strides[2] + a0 * strides[0]);
            dst_row.push(a2 * 128 + a0 * 8);
        }
    }
    let mut gathered = vec![Complex64::ZERO; 512];
    kernels::gather_blocked(&src, &src_row, &src_col, &mut gathered, &dst_row);
    for (a2, a0, a1) in
        (0..4).flat_map(|a2| (0..16).flat_map(move |a0| (0..8).map(move |a1| (a2, a0, a1))))
    {
        let at = a2 * strides[2] + a0 * strides[0] + a1 * strides[1];
        assert_eq!(gathered[a2 * 128 + a0 * 8 + a1], src[at]);
    }
    let mut back = vec![Complex64::ZERO; 512];
    kernels::scatter_blocked(&gathered, &dst_row, &mut back, &src_row, &src_col);
    assert_eq!(back, src);
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
