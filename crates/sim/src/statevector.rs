//! Dense noiseless statevector simulation.

use crate::kernels;
use qns_circuit::{Circuit, Operation};
use qns_linalg::{cr, Complex64};

/// The largest qubit count a dense statevector may have: `2^30`
/// amplitudes are 16 GiB.
pub const MAX_QUBITS: usize = 30;

/// Returns the computational basis state `|index⟩` on `n` qubits.
///
/// # Panics
///
/// Panics if `index ≥ 2^n` or `n` exceeds [`MAX_QUBITS`].
pub fn basis_state(n: usize, index: usize) -> Vec<Complex64> {
    assert!(n <= MAX_QUBITS, "statevector too large");
    let dim = 1usize << n;
    assert!(index < dim, "basis index out of range");
    let mut v = vec![Complex64::ZERO; dim];
    v[index] = Complex64::ONE;
    v
}

/// The all-zeros state `|0…0⟩`.
pub fn zero_state(n: usize) -> Vec<Complex64> {
    basis_state(n, 0)
}

/// The GHZ state `(|0…0⟩ + |1…1⟩)/√2`.
pub fn ghz_state(n: usize) -> Vec<Complex64> {
    let mut v = zero_state(n);
    let inv = std::f64::consts::FRAC_1_SQRT_2;
    v[0] = cr(inv);
    let last = v.len() - 1;
    v[last] = cr(inv);
    v
}

/// Applies one operation to a statevector in place.
///
/// # Panics
///
/// Panics if the buffer length does not match the implied qubit count
/// or qubits are out of range.
pub fn apply_operation(state: &mut [Complex64], n: usize, op: &Operation) {
    match op.qubits.len() {
        1 => kernels::apply_single(state, n, op.qubits[0], &op.gate.matrix()),
        2 => kernels::apply_double(state, n, op.qubits[0], op.qubits[1], &op.gate.matrix()),
        _ => unreachable!("gates are 1- or 2-qubit"),
    }
}

/// Runs a noiseless circuit on an initial state and returns the final
/// statevector.
///
/// # Panics
///
/// Panics if `initial.len() != 2^circuit.n_qubits()`.
pub fn run(circuit: &Circuit, initial: &[Complex64]) -> Vec<Complex64> {
    let n = circuit.n_qubits();
    assert_eq!(initial.len(), 1usize << n, "initial state length mismatch");
    let mut state = initial.to_vec();
    for op in circuit.operations() {
        apply_operation(&mut state, n, op);
    }
    state
}

/// The amplitude `⟨v|C|ψ⟩` of a noiseless circuit.
pub fn amplitude(circuit: &Circuit, psi: &[Complex64], v: &[Complex64]) -> Complex64 {
    let out = run(circuit, psi);
    qns_linalg::inner_product(v, &out)
}

/// The output-state overlap `|⟨v|C|ψ⟩|²` of a noiseless circuit.
pub fn overlap_probability(circuit: &Circuit, psi: &[Complex64], v: &[Complex64]) -> f64 {
    amplitude(circuit, psi, v).norm_sqr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_circuit::generators::{ghz, qft};
    use qns_circuit::Circuit;

    #[test]
    fn run_matches_unitary_matvec() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).rz(2, 0.4).cz(1, 2).ry(0, 0.9);
        let psi = basis_state(3, 5);
        let fast = run(&c, &psi);
        let slow = c.unitary().matvec(&psi);
        for (a, b) in fast.iter().zip(&slow) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn ghz_circuit_prepares_ghz_state() {
        let out = run(&ghz(4), &zero_state(4));
        let expect = ghz_state(4);
        for (a, b) in out.iter().zip(&expect) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn amplitude_of_identity_is_overlap() {
        let c = Circuit::new(2); // empty circuit... needs ≥1 gate? none needed
        let psi = basis_state(2, 1);
        let amp = amplitude(&c, &psi, &psi);
        assert!(amp.approx_eq(Complex64::ONE, 1e-14));
    }

    #[test]
    fn qft_amplitudes_uniform() {
        let p = overlap_probability(&qft(4), &zero_state(4), &basis_state(4, 7));
        assert!((p - 1.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn norm_preserved_through_long_circuit() {
        let c = qns_circuit::generators::inst_grid(2, 3, 12, 3);
        let out = run(&c, &zero_state(6));
        assert!((crate::kernels::norm_sqr(&out) - 1.0).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_initial_length_panics() {
        let c = Circuit::new(2);
        let _ = run(&c, &basis_state(3, 0));
    }
}
