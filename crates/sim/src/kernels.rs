//! Gate kernels on flat complex buffers, walked block by block.
//!
//! A state over `n_bits` qubits is a buffer of length `2^n_bits`; bit
//! position 0 is the **most significant** bit of the index, matching
//! [`qns_circuit::Circuit::unitary`]. A bit of stride `s` splits the
//! buffer into blocks of `2s` entries whose halves differ only in that
//! bit, so a kernel walks the halves of each block side by side and
//! visits only the entries it updates, with the matrix entries held in
//! locals.
//!
//! [`apply_single`] and [`apply_double`] do the same complex
//! operations, in the same order per entry, as a loop over every index
//! that skips the ones with the bit set; their results are **bitwise**
//! those of that loop (kept as the tests' oracle), so statevector and
//! trajectory results do not move. The density-matrix simulator builds
//! its row passes from the same pieces, and its general column passes
//! from the same per-entry arithmetic (see [`crate::density`]).

use qns_linalg::{Complex64, Matrix};

/// Applies a 2×2 matrix to bit `bit` of an `n_bits`-qubit buffer,
/// in place.
///
/// # Panics
///
/// Panics if `m` is not 2×2, `bit ≥ n_bits`, or the buffer length is
/// not `2^n_bits`.
pub fn apply_single(state: &mut [Complex64], n_bits: usize, bit: usize, m: &Matrix) {
    assert_eq!((m.rows(), m.cols()), (2, 2), "kernel expects a 2×2 matrix");
    assert!(bit < n_bits, "bit out of range");
    assert_eq!(state.len(), 1usize << n_bits, "buffer length mismatch");
    let m = [m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]];
    for_pairs(state, 1usize << (n_bits - 1 - bit), |a0, a1| {
        zip2(a0, a1, |x0, x1| mul2(m, x0, x1));
    });
}

/// Applies a 4×4 matrix to bits `(bit0, bit1)` of an `n_bits`-qubit
/// buffer, in place. `bit0` indexes the more significant bit of the
/// 4×4 matrix's basis, matching [`qns_circuit::Gate::matrix`].
///
/// # Panics
///
/// Panics if `m` is not 4×4, the bits coincide or exceed `n_bits`, or
/// the buffer length is not `2^n_bits`.
pub fn apply_double(state: &mut [Complex64], n_bits: usize, bit0: usize, bit1: usize, m: &Matrix) {
    assert_eq!((m.rows(), m.cols()), (4, 4), "kernel expects a 4×4 matrix");
    assert!(bit0 < n_bits && bit1 < n_bits, "bit out of range");
    assert_ne!(bit0, bit1, "bits must differ");
    assert_eq!(state.len(), 1usize << n_bits, "buffer length mismatch");
    let m: [Complex64; 16] = std::array::from_fn(|i| m[(i / 4, i % 4)]);
    let (s0, s1) = (1usize << (n_bits - 1 - bit0), 1usize << (n_bits - 1 - bit1));
    for_quads(state, s0, s1, |q| zip4(q, |v| mul4(&m, v)));
}

/// Calls `f` with the two halves of every `2·stride`-entry block of
/// `v`: the entries with the stride's bit clear, then those with it
/// set.
///
/// # Panics
///
/// Panics if `stride` is 0.
#[inline]
pub(crate) fn for_pairs(
    v: &mut [Complex64],
    stride: usize,
    mut f: impl FnMut(&mut [Complex64], &mut [Complex64]),
) {
    for block in v.chunks_exact_mut(2 * stride) {
        let (a0, a1) = block.split_at_mut(stride);
        f(a0, a1);
    }
}

/// Calls `f` with the four quarters of every block over two bits of
/// strides `s0` and `s1`, in the order `|00⟩, |01⟩, |10⟩, |11⟩` of a
/// 4×4 basis whose more significant bit is the one of stride `s0`.
///
/// # Panics
///
/// Panics if a stride is 0 or the strides coincide.
#[inline]
pub(crate) fn for_quads(
    v: &mut [Complex64],
    s0: usize,
    s1: usize,
    mut f: impl FnMut([&mut [Complex64]; 4]),
) {
    assert_ne!(s0, s1, "bits must differ");
    let (hi, lo) = (s0.max(s1), s0.min(s1));
    for_pairs(v, hi, |h0, h1| {
        for (b0, b1) in h0.chunks_exact_mut(2 * lo).zip(h1.chunks_exact_mut(2 * lo)) {
            // `aXY`: X is the bit of stride `hi`, Y the one of `lo`.
            let (a00, a01) = b0.split_at_mut(lo);
            let (a10, a11) = b1.split_at_mut(lo);
            f(if s0 > s1 {
                [a00, a01, a10, a11]
            } else {
                [a00, a10, a01, a11]
            });
        }
    });
}

/// `m·(v0, v1)` with `m = [m00, m01, m10, m11]` row-major.
#[inline(always)]
pub(crate) fn mul2(m: [Complex64; 4], v0: Complex64, v1: Complex64) -> (Complex64, Complex64) {
    let [m00, m01, m10, m11] = m;
    (m00 * v0 + m01 * v1, m10 * v0 + m11 * v1)
}

/// `m·v` with `m` row-major; each output is summed from `0` in column
/// order.
#[inline(always)]
pub(crate) fn mul4(m: &[Complex64; 16], v: [Complex64; 4]) -> [Complex64; 4] {
    std::array::from_fn(|r| {
        let mut acc = Complex64::ZERO;
        for (c, &a) in v.iter().enumerate() {
            acc += m[4 * r + c] * a;
        }
        acc
    })
}

/// `(x0, x1) ← f(x0, x1)` entry by entry over two slices.
#[inline(always)]
pub(crate) fn zip2(
    a0: &mut [Complex64],
    a1: &mut [Complex64],
    f: impl Fn(Complex64, Complex64) -> (Complex64, Complex64),
) {
    for (x0, x1) in a0.iter_mut().zip(a1) {
        (*x0, *x1) = f(*x0, *x1);
    }
}

/// `(x0, x1, x2, x3) ← f(x0, x1, x2, x3)` entry by entry over four
/// slices.
#[inline(always)]
pub(crate) fn zip4(q: [&mut [Complex64]; 4], f: impl Fn([Complex64; 4]) -> [Complex64; 4]) {
    let [q0, q1, q2, q3] = q;
    let quads = q0
        .iter_mut()
        .zip(q1.iter_mut())
        .zip(q2.iter_mut())
        .zip(q3.iter_mut());
    for (((x0, x1), x2), x3) in quads {
        [*x0, *x1, *x2, *x3] = f([*x0, *x1, *x2, *x3]);
    }
}

/// Squared norm of a buffer.
pub fn norm_sqr(state: &[Complex64]) -> f64 {
    state.iter().map(|z| z.norm_sqr()).sum()
}

/// The loops the kernels above replaced: every index is visited and
/// the ones with a target bit set are skipped. The tests hold the new
/// kernels to them bitwise, and the density-matrix tests build the old
/// two-pass gate and Kraus-by-Kraus channel paths from them.
#[cfg(test)]
pub(crate) mod oracle {
    use qns_circuit::Gate;
    use qns_linalg::{c64, Complex64, Matrix};

    pub(crate) fn apply_single(state: &mut [Complex64], n_bits: usize, bit: usize, m: &Matrix) {
        let mask = 1usize << (n_bits - 1 - bit);
        let (m00, m01, m10, m11) = (m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]);
        for base in 0..state.len() {
            if base & mask != 0 {
                continue;
            }
            let (i0, i1) = (base, base | mask);
            let (a0, a1) = (state[i0], state[i1]);
            state[i0] = m00 * a0 + m01 * a1;
            state[i1] = m10 * a0 + m11 * a1;
        }
    }

    pub(crate) fn apply_double(
        state: &mut [Complex64],
        n_bits: usize,
        bit0: usize,
        bit1: usize,
        m: &Matrix,
    ) {
        let m0 = 1usize << (n_bits - 1 - bit0);
        let m1 = 1usize << (n_bits - 1 - bit1);
        for base in 0..state.len() {
            if base & m0 != 0 || base & m1 != 0 {
                continue;
            }
            let idx = [base, base | m1, base | m0, base | m0 | m1];
            let amps = [state[idx[0]], state[idx[1]], state[idx[2]], state[idx[3]]];
            for (r, &out_i) in idx.iter().enumerate() {
                let mut acc = Complex64::ZERO;
                for (c, &a) in amps.iter().enumerate() {
                    acc += m[(r, c)] * a;
                }
                state[out_i] = acc;
            }
        }
    }

    /// One instance of every [`Gate`] variant, parametrised ones at a
    /// generic angle and the custom ones with dense entries.
    pub(crate) fn every_gate() -> Vec<Gate> {
        let dense = |d: usize| {
            let entries = (0..d * d)
                .map(|i| c64(0.3 + 0.1 * i as f64, 0.7 - 0.05 * i as f64))
                .collect();
            Box::new(Matrix::from_vec(d, d, entries))
        };
        use Gate::*;
        vec![
            H,
            X,
            Y,
            Z,
            S,
            Sdg,
            T,
            Tdg,
            SqrtX,
            SqrtY,
            SqrtW,
            Rx(0.37),
            Ry(-1.1),
            Rz(0.81),
            Phase(2.2),
            Custom1(dense(2)),
            CZ,
            CX,
            CPhase(0.6),
            CU(dense(2)),
            ISwap,
            FSim(0.4, 1.3),
            Givens(0.9),
            ZZ(-0.45),
            Custom2(dense(4)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_circuit::{Circuit, Gate};
    use qns_linalg::cr;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_state(rng: &mut StdRng, n: usize) -> Vec<Complex64> {
        let v: Vec<Complex64> = (0..1usize << n)
            .map(|_| qns_linalg::c64(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
            .collect();
        qns_linalg::normalize(&v)
    }

    fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    #[test]
    fn block_kernels_match_the_index_loops_bitwise() {
        let mut rng = StdRng::seed_from_u64(41);
        let c64 = |rng: &mut StdRng| {
            qns_linalg::c64(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0))
        };
        let dense = |rng: &mut StdRng, d: usize| {
            Matrix::from_vec(d, d, (0..d * d).map(|_| c64(rng)).collect())
        };
        let gates = oracle::every_gate();
        for n in 1..=5 {
            let state: Vec<Complex64> = (0..1usize << n).map(|_| c64(&mut rng)).collect();
            for bit in 0..n {
                let mut ms: Vec<Matrix> = vec![dense(&mut rng, 2)];
                ms.extend(gates.iter().filter(|g| g.arity() == 1).map(Gate::matrix));
                for m in &ms {
                    let (mut got, mut want) = (state.clone(), state.clone());
                    apply_single(&mut got, n, bit, m);
                    oracle::apply_single(&mut want, n, bit, m);
                    assert_eq!(bits(&got), bits(&want), "n {n}, bit {bit}");
                }
            }
            for b0 in 0..n {
                for b1 in (0..n).filter(|&b1| b1 != b0) {
                    let mut ms: Vec<Matrix> = vec![dense(&mut rng, 4)];
                    ms.extend(gates.iter().filter(|g| g.arity() == 2).map(Gate::matrix));
                    for m in &ms {
                        let (mut got, mut want) = (state.clone(), state.clone());
                        apply_double(&mut got, n, b0, b1, m);
                        oracle::apply_double(&mut want, n, b0, b1, m);
                        assert_eq!(bits(&got), bits(&want), "n {n}, bits ({b0},{b1})");
                    }
                }
            }
        }
    }

    #[test]
    fn single_kernel_matches_full_matrix() {
        let mut rng = StdRng::seed_from_u64(2);
        for bit in 0..3 {
            let state = random_state(&mut rng, 3);
            let mut fast = state.clone();
            apply_single(&mut fast, 3, bit, &Gate::H.matrix());
            let mut c = Circuit::new(3);
            c.h(bit);
            let slow = c.unitary().matvec(&state);
            for (a, b) in fast.iter().zip(&slow) {
                assert!(a.approx_eq(*b, 1e-12), "bit {bit}");
            }
        }
    }

    #[test]
    fn double_kernel_matches_full_matrix() {
        let mut rng = StdRng::seed_from_u64(3);
        for (b0, b1) in [(0, 1), (1, 0), (0, 2), (2, 1)] {
            let state = random_state(&mut rng, 3);
            let mut fast = state.clone();
            apply_double(&mut fast, 3, b0, b1, &Gate::CX.matrix());
            let mut c = Circuit::new(3);
            c.cx(b0, b1);
            let slow = c.unitary().matvec(&state);
            for (a, b) in fast.iter().zip(&slow) {
                assert!(a.approx_eq(*b, 1e-12), "bits ({b0},{b1})");
            }
        }
    }

    #[test]
    fn kernels_preserve_norm_for_unitaries() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut state = random_state(&mut rng, 4);
        apply_single(&mut state, 4, 2, &Gate::SqrtW.matrix());
        apply_double(&mut state, 4, 1, 3, &Gate::FSim(0.3, 0.2).matrix());
        assert!((norm_sqr(&state) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn non_unitary_kernel_shrinks_norm() {
        // Amplitude-damping Kraus E1 has operator norm < 1.
        let e1 = Matrix::from_rows(&[vec![cr(0.0), cr(0.5)], vec![cr(0.0), cr(0.0)]]);
        let mut state = vec![cr(0.0), cr(1.0)]; // |1⟩
        apply_single(&mut state, 1, 0, &e1);
        assert!((norm_sqr(&state) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn x_kernel_flips_expected_bit() {
        let mut state = vec![Complex64::ZERO; 8];
        state[0] = cr(1.0); // |000⟩
        apply_single(&mut state, 3, 1, &Gate::X.matrix());
        // bit 1 is the middle bit → index 0b010 = 2
        assert!(state[2].approx_eq(cr(1.0), 1e-14));
    }
}
