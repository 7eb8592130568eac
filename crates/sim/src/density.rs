//! The MM-based (matrix-multiplication) exact noisy simulator.
//!
//! A density matrix on `n` qubits is stored as a flat buffer of length
//! `4^n` viewed as a `2n`-bit register: the first `n` bits index the
//! row, the last `n` bits the column. Gates then act as single/double
//! kernels on the row bits together with their conjugates on the
//! column bits, and channels as Kraus sums — `O(4^n)` memory, the
//! scaling that limits this baseline to small circuits in the paper's
//! Table II.

use crate::kernels;
use qns_circuit::Operation;
use qns_linalg::{Complex64, Matrix};
use qns_noise::{Element, Kraus, NoisyCircuit};

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

impl DensityMatrix {
    /// The pure state `|ψ⟩⟨ψ|`.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two or exceeds 2^13.
    pub fn from_pure(psi: &[Complex64]) -> Self {
        let dim = psi.len();
        assert!(dim.is_power_of_two(), "state length must be a power of two");
        let n = dim.trailing_zeros() as usize;
        assert!(n <= 13, "density matrix too large");
        let mut data = Vec::with_capacity(dim * dim);
        for &a in psi {
            for &b in psi {
                data.push(a * b.conj());
            }
        }
        DensityMatrix { n, data }
    }

    /// The maximally mixed state `I/2^n`.
    pub fn maximally_mixed(n: usize) -> Self {
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

    /// Applies a unitary gate.
    ///
    /// # Panics
    ///
    /// Panics if qubits are out of range.
    pub fn apply_operation(&mut self, op: &Operation) {
        let bits = 2 * self.n;
        match op.qubits.len() {
            1 => {
                let q = op.qubits[0];
                let m = op.gate.matrix();
                kernels::apply_single(&mut self.data, bits, q, &m);
                kernels::apply_single(&mut self.data, bits, self.n + q, &m.conj());
            }
            2 => {
                let (q0, q1) = (op.qubits[0], op.qubits[1]);
                let m = op.gate.matrix();
                kernels::apply_double(&mut self.data, bits, q0, q1, &m);
                kernels::apply_double(&mut self.data, bits, self.n + q0, self.n + q1, &m.conj());
            }
            _ => unreachable!("gates are 1- or 2-qubit"),
        }
    }

    /// Applies a single-qubit channel on `qubit`: `ρ ← Σ E_k ρ E_k†`.
    ///
    /// # Panics
    ///
    /// Panics if the channel is not single-qubit or the qubit is out of
    /// range.
    pub fn apply_channel(&mut self, qubit: usize, channel: &Kraus) {
        assert_eq!(channel.dim(), 2, "expected a single-qubit channel");
        assert!(qubit < self.n, "qubit out of range");
        // `E_k ρ E_k†` mixes only the four entries that differ in the
        // row and column bit of `qubit`, so the sum is taken block by
        // block in place: no copy of ρ per Kraus operator. Each term is
        // `E_k` on the row bit, then `conj(E_k)` on the column bit, and
        // the terms add up in Kraus order, with the arithmetic of
        // `kernels::apply_single`.
        let entries = |m: &Matrix| [m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]];
        let ops: Vec<([Complex64; 4], [Complex64; 4])> = channel
            .operators()
            .iter()
            .map(|e| (entries(e), entries(&e.conj())))
            .collect();
        let row = 1usize << (2 * self.n - 1 - qubit);
        let col = 1usize << (self.n - 1 - qubit);
        for base in 0..self.data.len() {
            if base & (row | col) != 0 {
                continue;
            }
            // Row bit, column bit: 00, 01, 10, 11.
            let idx = [base, base | col, base | row, base | row | col];
            let x = idx.map(|i| self.data[i]);
            let mut acc = [Complex64::ZERO; 4];
            for (e, f) in &ops {
                let y00 = e[0] * x[0] + e[1] * x[2];
                let y10 = e[2] * x[0] + e[3] * x[2];
                let y01 = e[0] * x[1] + e[1] * x[3];
                let y11 = e[2] * x[1] + e[3] * x[3];
                let term = [
                    f[0] * y00 + f[1] * y01,
                    f[2] * y00 + f[3] * y01,
                    f[0] * y10 + f[1] * y11,
                    f[2] * y10 + f[3] * y11,
                ];
                for (a, t) in acc.iter_mut().zip(term) {
                    *a += t;
                }
            }
            for (i, a) in idx.into_iter().zip(acc) {
                self.data[i] = a;
            }
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
    use crate::statevector::{basis_state, ghz_state, run as sv_run, zero_state};
    use qns_circuit::generators::{ghz, inst_grid, qaoa_ring, QaoaRound};
    use qns_circuit::Circuit;
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

    #[test]
    fn in_place_channel_equals_copy_per_operator_sum_bitwise() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut c64 = || qns_linalg::c64(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0));
        let psi: Vec<Complex64> = (0..16).map(|_| c64()).collect();
        let rho = DensityMatrix::from_pure(&qns_linalg::normalize(&psi));
        // Dense complex operators, so that any reordering of the
        // arithmetic shows up in the low bits.
        let dense = Kraus::new(
            (0..3)
                .map(|_| Matrix::from_rows(&[vec![c64(), c64()], vec![c64(), c64()]]))
                .collect(),
        );
        for kraus in [
            dense,
            channels::thermal_relaxation(30.0, 40.0, 25.0),
            channels::depolarizing(0.2),
        ] {
            for qubit in 0..4 {
                let mut fast = rho.clone();
                fast.apply_channel(qubit, &kraus);
                // Reference: a full copy of ρ per Kraus operator.
                let bits = 2 * rho.n;
                let mut want = vec![Complex64::ZERO; rho.data.len()];
                for e in kraus.operators() {
                    let mut term = rho.data.clone();
                    kernels::apply_single(&mut term, bits, qubit, e);
                    kernels::apply_single(&mut term, bits, rho.n + qubit, &e.conj());
                    for (a, t) in want.iter_mut().zip(&term) {
                        *a += *t;
                    }
                }
                for (a, b) in fast.data.iter().zip(&want) {
                    assert_eq!(
                        (a.re.to_bits(), a.im.to_bits()),
                        (b.re.to_bits(), b.im.to_bits()),
                        "qubit {qubit}"
                    );
                }
            }
        }
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
