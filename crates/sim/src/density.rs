//! The MM-based (matrix-multiplication) exact noisy simulator.
//!
//! A density matrix on `n` qubits is stored as a flat row-major buffer
//! of length `4^n`, viewed as a `2n`-bit register: the first `n` bits
//! index the row, the last `n` bits the column. A qubit `q` is then a
//! row bit of stride `2^(n−1−q)` rows and a column bit of stride
//! `2^(n−1−q)` entries (the QuEST layout: Jones, Brown, Bush &
//! Benjamin, Sci. Rep. 9, 10736 (2019)). `O(4^n)` memory is the
//! scaling that limits this baseline to small circuits in the paper's
//! Table II; [`MAX_QUBITS`] is the engine's hard limit.
//!
//! Each element is **one pass** over ρ:
//!
//! * a gate `ρ ← UρU†` walks the groups of 2 (4) rows that differ only
//!   in the gate's row bits. It applies `U` across those rows, which are
//!   long contiguous runs, then `conj(U)` on the column bits inside each
//!   row while the rows are in cache — the order of the former row pass
//!   then column pass. Inside a row, column blocks whose entries lie in
//!   runs of at least 4 are walked as slices; shorter strides go
//!   through one table of block starts shared by every row, so they
//!   cost no loop per block. What the pass does is picked from the
//!   gate's matrix, classified once by its exact zeros and ones:
//!   - **general**: both 2×2 (4×4) products, the same operations as two
//!     whole-buffer passes of [`crate::kernels::apply_single`]
//!     ([`crate::kernels::apply_double`]), so the result is **bitwise**
//!     theirs;
//!   - **unit permutation** (`X`, `CX`, the identity): swaps of rows and
//!     of column blocks, no arithmetic;
//!   - **two-level** (unit rows and columns at `|00⟩` and `|11⟩`:
//!     `Givens`, `iSWAP`): a 2×2 on the `|01⟩` and `|10⟩` rows, then on
//!     those two column blocks of every row;
//!   - **diagonal** (`RZ`, `Z`, `S`, `T`, `CZ`, `ZZ`, …): entry `(r, c)`
//!     times `d_r·conj(d_c)`, one precomputed factor row per value of
//!     the row bits, so every inner loop runs over a whole row.
//!
//!   Permutation and two-level passes drop products and sums with
//!   exact zeros, so they can differ from the general pass only in the
//!   sign of a zero; the diagonal pass multiplies by `d_r·conj(d_c)`
//!   at once, which rounds differently (within `4ε` of the products'
//!   magnitudes).
//! * a single-qubit channel `ρ ← Σ_k E_k ρ E_k†` applies its 4×4
//!   superoperator `S = Σ_k E_k ⊗ conj(E_k)` over (row bit, column
//!   bit) to each 4-entry block, computed once per channel
//!   ([`Kraus::superoperator`]) and walked like a gate's column blocks.
//!   When `S` keeps the parity of the two bits — every Pauli, damping
//!   and thermal channel — it is two 2×2 products, on `{00, 11}` and on
//!   `{01, 10}`. Summing `S` first rounds differently from adding the
//!   Kraus terms one by one (within `8ε` of the terms' magnitudes).

use crate::kernels::{for_pairs, for_quads, mul2, mul4, zip2, zip4};
use qns_circuit::Operation;
use qns_linalg::{Complex64, Matrix};
use qns_noise::{Element, Kraus, NoisyCircuit};

/// The largest qubit count a [`DensityMatrix`] may have: `4^13`
/// entries are 1 GiB.
pub const MAX_QUBITS: usize = 13;

/// A dense density matrix on `n` qubits.
///
/// ```
/// use qns_sim::density::DensityMatrix;
/// use qns_sim::statevector::ghz_state;
///
/// let rho = DensityMatrix::from_pure(&ghz_state(2));
/// assert!((rho.trace() - 1.0).abs() < 1e-12);
/// assert!((rho.purity() - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct DensityMatrix {
    n: usize,
    data: Vec<Complex64>,
}

/// Panics unless `n` qubits fit the engine's hard limit; called before
/// anything of size `4^n` is allocated.
fn assert_fits(n: usize) {
    assert!(n <= MAX_QUBITS, "density matrix too large");
}

impl DensityMatrix {
    /// The pure state `|ψ⟩⟨ψ|`.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two or exceeds
    /// `2^MAX_QUBITS`.
    pub fn from_pure(psi: &[Complex64]) -> Self {
        let dim = psi.len();
        assert!(dim.is_power_of_two(), "state length must be a power of two");
        let n = dim.trailing_zeros() as usize;
        assert_fits(n);
        let mut data = Vec::with_capacity(dim * dim);
        for &a in psi {
            for &b in psi {
                data.push(a * b.conj());
            }
        }
        DensityMatrix { n, data }
    }

    /// The maximally mixed state `I/2^n`.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_QUBITS`.
    pub fn maximally_mixed(n: usize) -> Self {
        assert_fits(n);
        let dim = 1usize << n;
        let mut data = vec![Complex64::ZERO; dim * dim];
        for i in 0..dim {
            data[i * dim + i] = Complex64::ONE / dim as f64;
        }
        DensityMatrix { n, data }
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// Hilbert space dimension `2^n`.
    #[inline]
    pub fn dim(&self) -> usize {
        1usize << self.n
    }

    /// Converts to a [`Matrix`].
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_vec(self.dim(), self.dim(), self.data.clone())
    }

    /// The trace (should be 1 for a normalized state).
    pub fn trace(&self) -> f64 {
        let dim = self.dim();
        (0..dim).map(|i| self.data[i * dim + i].re).sum()
    }

    /// The purity `tr(ρ²)`.
    pub fn purity(&self) -> f64 {
        // tr(ρ²) = Σ_{rc} ρ_rc · ρ_cr = Σ |ρ_rc|² for Hermitian ρ.
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// The stride of qubit `q` as a column bit; as a row bit it is this
    /// many rows.
    fn stride(&self, q: usize) -> usize {
        assert!(q < self.n, "qubit out of range");
        1usize << (self.n - 1 - q)
    }

    /// Applies a unitary gate `ρ ← UρU†` in one pass (see the module
    /// docs for the passes by structure).
    ///
    /// # Panics
    ///
    /// Panics if qubits are out of range or coincide.
    pub fn apply_operation(&mut self, op: &Operation) {
        let dim = self.dim();
        let cols: Vec<usize> = op.qubits.iter().map(|&q| self.stride(q)).collect();
        let k = 1usize << cols.len();
        let mut m = Square {
            k,
            e: [Complex64::ZERO; 16],
        };
        op.gate.write_matrix(&mut m.e[..k * k]);
        let blocks = Blocks::new(dim, &cols);
        let data = &mut self.data;
        match Structure::of(&m) {
            Structure::General => {
                let conj = m.conj();
                let c2 = [conj.e[0], conj.e[1], conj.e[2], conj.e[3]];
                for_row_groups(data, dim, &cols, |rows| {
                    m.mix(rows);
                    for row in rows.iter_mut() {
                        if k == 2 {
                            blocks.map2(row, 0, 1, |x, y| mul2(c2, x, y));
                        } else {
                            blocks.map4(row, |v| mul4(&conj.e, v));
                        }
                    }
                });
            }
            Structure::Permutation(swaps) => for_row_groups(data, dim, &cols, |rows| {
                for &(i, j) in &swaps {
                    let (lo, hi) = rows.split_at_mut(j);
                    lo[i].swap_with_slice(hi[0]);
                    for row in rows.iter_mut() {
                        blocks.map2(row, i, j, |x, y| (y, x));
                    }
                }
            }),
            Structure::TwoLevel => {
                let g = [m.at(1, 1), m.at(1, 2), m.at(2, 1), m.at(2, 2)];
                let g_conj = g.map(|z| z.conj());
                for_row_groups(data, dim, &cols, |rows| {
                    if let [_, r01, r10, _] = rows {
                        zip2(r01, r10, |x, y| mul2(g, x, y));
                    }
                    for row in rows.iter_mut() {
                        blocks.map2(row, 1, 2, |x, y| mul2(g_conj, x, y));
                    }
                });
            }
            Structure::Diagonal => {
                // Factor row `a`: `d_a·conj(d_b)` at every column, with `b`
                // the column's value of the gate's bits.
                let col_value =
                    |c: usize| cols.iter().fold(0, |v, &s| 2 * v + usize::from(c & s != 0));
                let factors: Vec<Complex64> = (0..k * dim)
                    .map(|i| {
                        let (a, b) = (i / dim, col_value(i % dim));
                        m.at(a, a) * m.at(b, b).conj()
                    })
                    .collect();
                for_row_groups(data, dim, &cols, |rows| {
                    for (row, f) in rows.iter_mut().zip(factors.chunks_exact(dim)) {
                        for (x, &f) in row.iter_mut().zip(f) {
                            *x = f * *x;
                        }
                    }
                });
            }
        }
    }

    /// Applies a single-qubit channel on `qubit`: `ρ ← Σ E_k ρ E_k†`,
    /// as one pass of its superoperator (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if the channel is not single-qubit or the qubit is out of
    /// range.
    pub fn apply_channel(&mut self, qubit: usize, channel: &Kraus) {
        assert_eq!(channel.dim(), 2, "expected a single-qubit channel");
        let dim = self.dim();
        let c = self.stride(qubit);
        // Row bit, column bit: 00, 01, 10, 11.
        let sup = Superop::of(channel);
        let apply = |x: [Complex64; 4]| match &sup {
            Superop::Parity { even, odd } => {
                let (y00, y11) = mul2(*even, x[0], x[3]);
                let (y01, y10) = mul2(*odd, x[1], x[2]);
                [y00, y01, y10, y11]
            }
            Superop::General(s) => mul4(s, x),
        };
        let blocks = Blocks::new(dim, &[c]);
        if blocks.bases.is_empty() {
            for_quads(&mut self.data, c * dim, c, |q| zip4(q, apply));
        } else {
            for_row_groups(&mut self.data, dim, &[c], |rows| {
                if let [r0, r1] = rows {
                    for &b in &blocks.bases {
                        let y = apply([r0[b], r0[b + c], r1[b], r1[b + c]]);
                        [r0[b], r0[b + c], r1[b], r1[b + c]] = y;
                    }
                }
            });
        }
    }

    /// The expectation `⟨v|ρ|v⟩` (real for Hermitian ρ).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != 2^n`.
    pub fn expectation(&self, v: &[Complex64]) -> f64 {
        let dim = self.dim();
        assert_eq!(v.len(), dim, "test state length mismatch");
        let mut acc = Complex64::ZERO;
        for r in 0..dim {
            let vr = v[r].conj();
            if vr == Complex64::ZERO {
                continue;
            }
            for c in 0..dim {
                acc += vr * self.data[r * dim + c] * v[c];
            }
        }
        acc.re
    }

    /// A matrix element `⟨x|ρ|y⟩` for arbitrary bra/ket vectors.
    pub fn matrix_element(&self, x: &[Complex64], y: &[Complex64]) -> Complex64 {
        let dim = self.dim();
        assert_eq!(x.len(), dim, "bra length mismatch");
        assert_eq!(y.len(), dim, "ket length mismatch");
        let mut acc = Complex64::ZERO;
        for r in 0..dim {
            let xr = x[r].conj();
            if xr == Complex64::ZERO {
                continue;
            }
            for c in 0..dim {
                acc += xr * self.data[r * dim + c] * y[c];
            }
        }
        acc
    }

    /// Validates Hermiticity, unit trace and positive semi-definiteness
    /// (eigenvalues ≥ −tol).
    pub fn is_valid_state(&self, tol: f64) -> bool {
        let m = self.to_matrix();
        if !m.is_hermitian(tol) || (self.trace() - 1.0).abs() > tol {
            return false;
        }
        qns_linalg::eigh(&m).min_eigenvalue() >= -tol
    }
}

/// A gate's 2×2 or 4×4 matrix, row-major in `e[..k·k]`.
#[derive(Clone, Copy, Debug)]
struct Square {
    k: usize,
    e: [Complex64; 16],
}

impl Square {
    fn at(&self, r: usize, c: usize) -> Complex64 {
        self.e[r * self.k + c]
    }

    fn conj(&self) -> Square {
        Square {
            k: self.k,
            e: self.e.map(|z| z.conj()),
        }
    }

    /// `rows ← self·rows`, entry by entry.
    #[inline(always)]
    fn mix(&self, rows: &mut [&mut [Complex64]]) {
        let e = &self.e;
        match rows {
            [a0, a1] => zip2(a0, a1, |x, y| mul2([e[0], e[1], e[2], e[3]], x, y)),
            [a0, a1, a2, a3] => zip4([&mut **a0, &mut **a1, &mut **a2, &mut **a3], |v| mul4(e, v)),
            _ => unreachable!("gates are 1- or 2-qubit"),
        }
    }
}

/// How a gate pass treats a matrix; see the module docs.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Structure {
    /// Every entry is 0 or 1, one 1 per row and column: `(U·x)_r =
    /// x_{src(r)}` with `src(r)` the column of row `r`'s 1. Swapping
    /// basis slots `(i, j)` in this order leaves in each slot `r` what
    /// slot `src(r)` held (none for the identity).
    Permutation(Vec<(usize, usize)>),
    /// Zero off the diagonal.
    Diagonal,
    /// 4×4 with unit rows and columns at `|00⟩` and `|11⟩`: a 2×2 on
    /// `|01⟩, |10⟩`.
    TwoLevel,
    /// Anything else.
    General,
}

impl Structure {
    /// Classifies `m` by its exact zeros and ones.
    fn of(m: &Square) -> Structure {
        let k = m.k;
        let zero = |r: usize, c: usize| m.at(r, c) == Complex64::ZERO;
        let one = |r: usize, c: usize| m.at(r, c) == Complex64::ONE;
        // The one nonzero column of each row, when it is a 1.
        let src: Vec<Option<usize>> = (0..k)
            .map(|r| {
                let mut nonzero = (0..k).filter(|&c| !zero(r, c));
                match (nonzero.next(), nonzero.next()) {
                    (Some(c), None) if one(r, c) => Some(c),
                    _ => None,
                }
            })
            .collect();
        let distinct = (0..k).all(|c| src.iter().filter(|&&s| s == Some(c)).count() == 1);
        if distinct {
            let src: Vec<usize> = src.into_iter().flatten().collect();
            let mut swaps = Vec::new();
            for i in 0..k {
                let mut j = src[i];
                while j < i {
                    j = src[j];
                }
                if j != i {
                    swaps.push((i, j));
                }
            }
            return Structure::Permutation(swaps);
        }
        if (0..k * k).all(|i| i / k == i % k || zero(i / k, i % k)) {
            return Structure::Diagonal;
        }
        let unit = |p: usize| {
            (0..k).all(|q| {
                if q == p {
                    one(p, p)
                } else {
                    zero(p, q) && zero(q, p)
                }
            })
        };
        if k == 4 && unit(0) && unit(3) {
            return Structure::TwoLevel;
        }
        Structure::General
    }
}

/// A single-qubit channel's superoperator `Σ_k E_k ⊗ conj(E_k)`, over
/// the 4-entry block indexed `2a + b` by (row bit `a`, column bit `b`)
/// as [`Kraus::superoperator`] orders it.
#[derive(Clone, Debug, PartialEq)]
enum Superop {
    /// Zero between blocks of different parity `a ⊕ b`: the 2×2 on
    /// `(00, 11)` and the 2×2 on `(01, 10)`, row-major.
    Parity {
        even: [Complex64; 4],
        odd: [Complex64; 4],
    },
    /// The full 4×4, row-major.
    General([Complex64; 16]),
}

impl Superop {
    fn of(channel: &Kraus) -> Superop {
        let sup = channel.superoperator();
        let s: [Complex64; 16] = std::array::from_fn(|i| sup[(i / 4, i % 4)]);
        let parity = |i: usize| (i ^ (i >> 1)) & 1;
        if (0..16).all(|i| parity(i / 4) == parity(i % 4) || s[i] == Complex64::ZERO) {
            Superop::Parity {
                even: [s[0], s[3], s[12], s[15]],
                odd: [s[5], s[6], s[9], s[10]],
            }
        } else {
            Superop::General(s)
        }
    }
}

/// Calls `f` with each group of `2` (`4`) rows of `data` that differ
/// only in the row bits of the column strides `cols` — the whole rows,
/// in basis order — walking `data` once.
fn for_row_groups(
    data: &mut [Complex64],
    dim: usize,
    cols: &[usize],
    mut f: impl FnMut(&mut [&mut [Complex64]]),
) {
    match *cols {
        [c] => for_pairs(data, c * dim, |h0, h1| {
            for (r0, r1) in h0.chunks_exact_mut(dim).zip(h1.chunks_exact_mut(dim)) {
                f(&mut [r0, r1]);
            }
        }),
        [c0, c1] => for_quads(data, c0 * dim, c1 * dim, |[q0, q1, q2, q3]| {
            let rows = q0.chunks_exact_mut(dim).zip(q1.chunks_exact_mut(dim));
            let rows = rows.zip(q2.chunks_exact_mut(dim).zip(q3.chunks_exact_mut(dim)));
            for ((r0, r1), (r2, r3)) in rows {
                f(&mut [r0, r1, r2, r3]);
            }
        }),
        _ => unreachable!("gates are 1- or 2-qubit"),
    }
}

/// The shortest column stride whose blocks are walked as slices: runs
/// of at least this many entries. Shorter strides go through a table of
/// block starts, so they cost no loop per block.
const RUN: usize = 4;

/// The column blocks of one row for a gate's column bits of strides
/// `cols`: the offsets of a block's entries in basis order and, when
/// the shortest stride is below [`RUN`], every column with those bits
/// clear (the same table serves every row).
struct Blocks {
    offsets: [usize; 4],
    /// Block starts; empty when the blocks are walked as slices.
    bases: Vec<usize>,
}

impl Blocks {
    fn new(dim: usize, cols: &[usize]) -> Blocks {
        let offsets = match *cols {
            [c] => [0, c, 0, 0],
            [c0, c1] => [0, c1, c0, c0 + c1],
            _ => unreachable!("gates are 1- or 2-qubit"),
        };
        let mask: usize = cols.iter().sum();
        let bases = if cols.iter().any(|&c| c < RUN) {
            (0..dim).filter(|&c| c & mask == 0).collect()
        } else {
            Vec::new()
        };
        Blocks { offsets, bases }
    }

    /// `(x_i, x_j) ← f(x_i, x_j)` on entries `i < j` of every block.
    #[inline(always)]
    fn map2(
        &self,
        row: &mut [Complex64],
        i: usize,
        j: usize,
        f: impl Fn(Complex64, Complex64) -> (Complex64, Complex64),
    ) {
        let [_, o1, o2, _] = self.offsets;
        if !self.bases.is_empty() {
            let (oi, oj) = (self.offsets[i], self.offsets[j]);
            for &b in &self.bases {
                (row[b + oi], row[b + oj]) = f(row[b + oi], row[b + oj]);
            }
        } else if o2 == 0 {
            // One column bit: the offsets are `[0, c, 0, 0]`.
            for_pairs(row, o1, |a0, a1| zip2(a0, a1, &f));
        } else {
            for_quads(row, o2, o1, |mut q| {
                let (lo, hi) = q.split_at_mut(j);
                zip2(lo[i], hi[0], &f);
            });
        }
    }

    /// `x ← f(x)` on the four entries of every block (two column bits).
    #[inline(always)]
    fn map4(&self, row: &mut [Complex64], f: impl Fn([Complex64; 4]) -> [Complex64; 4]) {
        let [_, o1, o2, o3] = self.offsets;
        if !self.bases.is_empty() {
            for &b in &self.bases {
                let y = f([row[b], row[b + o1], row[b + o2], row[b + o3]]);
                [row[b], row[b + o1], row[b + o2], row[b + o3]] = y;
            }
        } else {
            for_quads(row, o2, o1, |[q0, q1, q2, q3]| {
                let quads = q0
                    .iter_mut()
                    .zip(q1.iter_mut())
                    .zip(q2.iter_mut())
                    .zip(q3.iter_mut());
                for (((x0, x1), x2), x3) in quads {
                    [*x0, *x1, *x2, *x3] = f([*x0, *x1, *x2, *x3]);
                }
            });
        }
    }
}

/// Runs a noisy circuit on `|ψ⟩⟨ψ|` and returns the final density
/// matrix — the MM-based exact method.
///
/// # Panics
///
/// Panics if `psi.len() != 2^n`.
pub fn run(noisy: &NoisyCircuit, psi: &[Complex64]) -> DensityMatrix {
    let mut rho = DensityMatrix::from_pure(psi);
    assert_eq!(
        rho.n_qubits(),
        noisy.n_qubits(),
        "state/circuit size mismatch"
    );
    for el in noisy.elements() {
        match el {
            Element::Gate(op) => rho.apply_operation(op),
            Element::Noise(e) => rho.apply_channel(e.qubit, &e.kraus),
        }
    }
    rho
}

/// The paper's Problem 1 via exact density-matrix evolution:
/// `⟨v| E_N(|ψ⟩⟨ψ|) |v⟩`.
pub fn expectation(noisy: &NoisyCircuit, psi: &[Complex64], v: &[Complex64]) -> f64 {
    run(noisy, psi).expectation(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::oracle;
    use crate::statevector::{basis_state, ghz_state, run as sv_run, zero_state};
    use qns_circuit::generators::{ghz, inst_grid, qaoa_ring, QaoaRound};
    use qns_circuit::{Circuit, Gate};
    use qns_noise::channels;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn noiseless_density_matches_statevector() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(2).cz(1, 2).ry(0, 0.3);
        let psi = zero_state(3);
        let rho = run(&NoisyCircuit::noiseless(c.clone()), &psi);
        let out = sv_run(&c, &psi);
        let pure = DensityMatrix::from_pure(&out);
        assert!(rho.to_matrix().approx_eq(&pure.to_matrix(), 1e-12));
    }

    #[test]
    fn trace_preserved_under_noise() {
        let noisy = NoisyCircuit::inject_random(ghz(4), &channels::amplitude_damping(0.1), 5, 3);
        let rho = run(&noisy, &zero_state(4));
        assert!((rho.trace() - 1.0).abs() < 1e-10);
        assert!(rho.is_valid_state(1e-9));
    }

    #[test]
    fn purity_decreases_with_noise() {
        let clean = run(&NoisyCircuit::noiseless(ghz(3)), &zero_state(3));
        let noisy = run(
            &NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(0.05), 3, 1),
            &zero_state(3),
        );
        assert!((clean.purity() - 1.0).abs() < 1e-12);
        assert!(noisy.purity() < clean.purity());
    }

    #[test]
    fn expectation_on_ghz_drops_with_noise() {
        let v = ghz_state(4);
        let clean = expectation(&NoisyCircuit::noiseless(ghz(4)), &zero_state(4), &v);
        assert!((clean - 1.0).abs() < 1e-12);
        let noisy = NoisyCircuit::inject_random(ghz(4), &channels::depolarizing(0.02), 4, 5);
        let f = expectation(&noisy, &zero_state(4), &v);
        assert!(f < 1.0 && f > 0.8);
    }

    #[test]
    fn depolarizing_everything_gives_mixed_state() {
        // Full-strength depolarizing on one qubit of |0⟩: ρ = I/2 mix
        // on that qubit.
        let mut c = Circuit::new(1);
        c.x(0).x(0); // identity-ish circuit so noise dominates
        let noisy = NoisyCircuit::new(
            c,
            vec![qns_noise::NoiseEvent {
                after_gate: 1,
                qubit: 0,
                kraus: channels::depolarizing(0.75), // fully depolarizing
            }],
        );
        let rho = run(&noisy, &zero_state(1));
        // (1−p)ρ + p/3·(...) at p=0.75 sends |0⟩⟨0| to I/2.
        assert!((rho.expectation(&basis_state(1, 0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn matrix_element_hermitian_symmetry() {
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::phase_damping(0.2), 2, 7);
        let rho = run(&noisy, &zero_state(3));
        let x = basis_state(3, 2);
        let y = basis_state(3, 5);
        let xy = rho.matrix_element(&x, &y);
        let yx = rho.matrix_element(&y, &x);
        assert!(xy.approx_eq(yx.conj(), 1e-12));
    }

    #[test]
    fn qaoa_noisy_fidelity_sane() {
        let rounds = [QaoaRound {
            gamma: 0.35,
            beta: 0.2,
        }];
        let c = qaoa_ring(4, &rounds);
        let ideal = sv_run(&c, &zero_state(4));
        let noisy =
            NoisyCircuit::inject_random(c, &channels::thermal_relaxation(30.0, 40.0, 25.0), 3, 11);
        let f = expectation(&noisy, &zero_state(4), &ideal);
        assert!(f > 0.99 && f <= 1.0 + 1e-9, "fidelity {f}");
    }

    #[test]
    fn supremacy_circuit_probabilities_sum_to_one() {
        let c = inst_grid(2, 2, 6, 2);
        let noisy = NoisyCircuit::inject_random(c, &channels::depolarizing(0.01), 2, 4);
        let rho = run(&noisy, &zero_state(4));
        let total: f64 = (0..16).map(|i| rho.expectation(&basis_state(4, i))).sum();
        assert!((total - 1.0).abs() < 1e-10);
    }

    /// A random, non-Hermitian, unnormalised ρ buffer: any mix-up of
    /// rows and columns or of a conjugate shows.
    fn random_rho(rng: &mut StdRng, n: usize) -> DensityMatrix {
        let data = (0..1usize << (2 * n))
            .map(|_| qns_linalg::c64(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
            .collect();
        DensityMatrix { n, data }
    }

    /// Entry magnitudes as real complex numbers: run through the oracle
    /// passes, `|U|` on `|ρ|` sums the magnitudes of the products that
    /// make up each entry.
    fn abs(v: &[Complex64]) -> Vec<Complex64> {
        v.iter().map(|z| qns_linalg::cr(z.abs())).collect()
    }

    fn abs_matrix(m: &Matrix) -> Matrix {
        Matrix::from_vec(m.rows(), m.cols(), abs(m.as_slice()))
    }

    fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// The former gate path: `U` on the row bits over the whole buffer,
    /// then `conj(U)` on the column bits.
    fn two_passes(data: &mut [Complex64], n: usize, qubits: &[usize], u: &Matrix) {
        let conj = u.conj();
        match *qubits {
            [q] => {
                oracle::apply_single(data, 2 * n, q, u);
                oracle::apply_single(data, 2 * n, n + q, &conj);
            }
            [q0, q1] => {
                oracle::apply_double(data, 2 * n, q0, q1, u);
                oracle::apply_double(data, 2 * n, n + q0, n + q1, &conj);
            }
            _ => unreachable!("gates are 1- or 2-qubit"),
        }
    }

    /// The pass each gate takes; no wildcard, so a new variant must be
    /// placed here.
    fn expected_structure(gate: &Gate) -> Structure {
        use Gate::*;
        match gate {
            X => Structure::Permutation(vec![(0, 1)]),
            CX => Structure::Permutation(vec![(2, 3)]),
            Z | S | Sdg | T | Tdg | Rz(_) | Phase(_) | CZ | CPhase(_) | ZZ(_) => {
                Structure::Diagonal
            }
            Givens(_) | ISwap => Structure::TwoLevel,
            H | Y | CU(_) | SqrtX | SqrtY | SqrtW | Rx(_) | Ry(_) | Custom1(_) | FSim(..)
            | Custom2(_) => Structure::General,
        }
    }

    #[test]
    fn fused_gate_pass_matches_two_kernel_passes() {
        let mut rng = StdRng::seed_from_u64(29);
        let eps = f64::EPSILON;
        for n in 3..=4 {
            let rho = random_rho(&mut rng, n);
            let rho_abs = abs(&rho.data);
            for gate in oracle::every_gate() {
                let mut m = Square {
                    k: 1 << gate.arity(),
                    e: [Complex64::ZERO; 16],
                };
                gate.write_matrix(&mut m.e[..m.k * m.k]);
                let structure = Structure::of(&m);
                assert_eq!(structure, expected_structure(&gate), "{}", gate.name());
                let u = gate.matrix();
                let placements: Vec<Vec<usize>> = if gate.arity() == 1 {
                    (0..n).map(|q| vec![q]).collect()
                } else {
                    let pairs = (0..n).flat_map(|q0| (0..n).map(move |q1| vec![q0, q1]));
                    pairs.filter(|p| p[0] != p[1]).collect()
                };
                for qubits in placements {
                    let mut got = rho.clone();
                    got.apply_operation(&Operation::new(gate.clone(), qubits.clone()));
                    let mut want = rho.data.clone();
                    two_passes(&mut want, n, &qubits, &u);
                    let what = format!("{} on {qubits:?}, n {n}", gate.name());
                    if structure == Structure::General {
                        assert_eq!(bits(&got.data), bits(&want), "{what}");
                        continue;
                    }
                    let mut magnitude = rho_abs.clone();
                    two_passes(&mut magnitude, n, &qubits, &abs_matrix(&u));
                    for ((g, w), bound) in got.data.iter().zip(&want).zip(&magnitude) {
                        assert!(
                            (*g - *w).abs() <= 4.0 * eps * bound.re,
                            "{what}: {g:?} vs {w:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn superoperator_channel_matches_copy_per_operator_sum() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut c64 = || qns_linalg::c64(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0));
        // Dense complex operators: no structural zero to skip.
        let dense = Kraus::new(
            (0..3)
                .map(|_| Matrix::from_rows(&[vec![c64(), c64()], vec![c64(), c64()]]))
                .collect(),
        );
        let mut cases = vec![
            ("dense", dense),
            ("thermal", channels::thermal_relaxation(30.0, 40.0, 25.0)),
            ("depolarizing", channels::depolarizing(0.2)),
        ];
        cases.extend(channels::catalogue(0.2));
        let mut rng = StdRng::seed_from_u64(10);
        let rho = random_rho(&mut rng, 4);
        let rho_abs = abs(&rho.data);
        let eps = f64::EPSILON;
        for (name, kraus) in cases {
            let parity = matches!(Superop::of(&kraus), Superop::Parity { .. });
            assert_eq!(
                parity,
                name != "dense",
                "{name} takes the parity path iff it has its zeros"
            );
            for qubit in 0..4 {
                let mut got = rho.clone();
                got.apply_channel(qubit, &kraus);
                // Reference: a full copy of ρ per Kraus operator, and the
                // same sum over the magnitudes of each term.
                let mut want = vec![Complex64::ZERO; rho.data.len()];
                let mut magnitude = vec![Complex64::ZERO; rho.data.len()];
                for e in kraus.operators() {
                    let mut term = rho.data.clone();
                    two_passes(&mut term, rho.n, &[qubit], e);
                    let mut term_abs = rho_abs.clone();
                    two_passes(&mut term_abs, rho.n, &[qubit], &abs_matrix(e));
                    for ((a, t), (b, u)) in want
                        .iter_mut()
                        .zip(&term)
                        .zip(magnitude.iter_mut().zip(&term_abs))
                    {
                        *a += *t;
                        *b += *u;
                    }
                }
                for ((g, w), bound) in got.data.iter().zip(&want).zip(&magnitude) {
                    assert!(
                        (*g - *w).abs() <= 8.0 * eps * bound.re,
                        "{name} on qubit {qubit}: {g:?} vs {w:?}"
                    );
                }
            }
        }
    }

    /// Each guard is the first statement of its constructor, so its
    /// message shows that nothing of the guarded size was allocated: at
    /// 14 qubits that would be 4 GiB, and from 32 qubits on `4^n`
    /// overflows.
    #[test]
    fn size_guards_fire_before_allocating() {
        let message = |f: &dyn Fn()| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                .err()
                .and_then(|e| e.downcast_ref::<&str>().map(|s| s.to_string()))
        };
        for n in [14, 63, 64, 65, 225] {
            let got = message(&|| {
                DensityMatrix::maximally_mixed(n);
            });
            assert_eq!(got.as_deref(), Some("density matrix too large"), "n {n}");
            if n > 30 {
                let got = message(&|| {
                    basis_state(n, 0);
                });
                assert_eq!(got.as_deref(), Some("statevector too large"), "n {n}");
            }
        }
        // A 14-qubit state is small; its density matrix is not.
        let psi = basis_state(MAX_QUBITS + 1, 0);
        let got = message(&|| {
            DensityMatrix::from_pure(&psi);
        });
        assert_eq!(got.as_deref(), Some("density matrix too large"));
        assert_eq!(DensityMatrix::maximally_mixed(MAX_QUBITS - 11).dim(), 4);
    }

    #[test]
    fn maximally_mixed_is_noise_fixed_point() {
        let mut rho = DensityMatrix::maximally_mixed(2);
        rho.apply_channel(0, &channels::depolarizing(0.3));
        rho.apply_channel(1, &channels::phase_flip(0.4));
        let expect = DensityMatrix::maximally_mixed(2);
        assert!(rho.to_matrix().approx_eq(&expect.to_matrix(), 1e-12));
    }
}
