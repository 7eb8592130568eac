//! The circuit intermediate representation.

use crate::Gate;
use qns_linalg::{Complex64, Matrix};
use std::fmt;

/// One gate applied to specific qubits.
#[derive(Clone, Debug, PartialEq)]
pub struct Operation {
    /// The gate.
    pub gate: Gate,
    /// Target qubits (length equals `gate.arity()`; for controlled
    /// gates the first entry is the control).
    pub qubits: Vec<usize>,
}

impl Operation {
    /// Creates an operation, validating arity.
    ///
    /// # Panics
    ///
    /// Panics if `qubits.len() != gate.arity()` or the qubits repeat.
    pub fn new(gate: Gate, qubits: Vec<usize>) -> Self {
        assert_eq!(
            qubits.len(),
            gate.arity(),
            "gate {} expects {} qubits, got {}",
            gate.name(),
            gate.arity(),
            qubits.len()
        );
        if qubits.len() == 2 {
            assert_ne!(qubits[0], qubits[1], "two-qubit gate on identical qubits");
        }
        Operation { gate, qubits }
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:?}", self.gate.name(), self.qubits)
    }
}

/// An ordered sequence of gate applications on `n_qubits` qubits.
///
/// The builder methods return `&mut Self` so constructions chain:
///
/// ```
/// use qns_circuit::Circuit;
/// let mut c = Circuit::new(3);
/// c.h(0).cx(0, 1).cx(1, 2);
/// assert_eq!(c.depth(), 3);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Circuit {
    n_qubits: usize,
    ops: Vec<Operation>,
}

impl Circuit {
    /// Creates an empty circuit on `n_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits == 0`.
    pub fn new(n_qubits: usize) -> Self {
        assert!(n_qubits > 0, "circuit needs at least one qubit");
        Circuit {
            n_qubits,
            ops: Vec::new(),
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The operations in program order.
    #[inline]
    pub fn operations(&self) -> &[Operation] {
        &self.ops
    }

    /// Total gate count.
    #[inline]
    pub fn gate_count(&self) -> usize {
        self.ops.len()
    }

    /// Appends an operation.
    ///
    /// # Panics
    ///
    /// Panics if any target qubit is out of range.
    pub fn push(&mut self, op: Operation) -> &mut Self {
        for &q in &op.qubits {
            assert!(
                q < self.n_qubits,
                "qubit {q} out of range for {}-qubit circuit",
                self.n_qubits
            );
        }
        self.ops.push(op);
        self
    }

    /// Appends `gate` on `qubits`.
    pub fn apply(&mut self, gate: Gate, qubits: &[usize]) -> &mut Self {
        self.push(Operation::new(gate, qubits.to_vec()))
    }

    /// Hadamard on `q`.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::H, &[q])
    }

    /// Pauli X on `q`.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::X, &[q])
    }

    /// Pauli Y on `q`.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Y, &[q])
    }

    /// Pauli Z on `q`.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Z, &[q])
    }

    /// T gate on `q`.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::T, &[q])
    }

    /// X-rotation by `theta` on `q`.
    pub fn rx(&mut self, q: usize, theta: f64) -> &mut Self {
        self.apply(Gate::Rx(theta), &[q])
    }

    /// Y-rotation by `theta` on `q`.
    pub fn ry(&mut self, q: usize, theta: f64) -> &mut Self {
        self.apply(Gate::Ry(theta), &[q])
    }

    /// Z-rotation by `theta` on `q`.
    pub fn rz(&mut self, q: usize, theta: f64) -> &mut Self {
        self.apply(Gate::Rz(theta), &[q])
    }

    /// CNOT with control `c` and target `t`.
    pub fn cx(&mut self, c: usize, t: usize) -> &mut Self {
        self.apply(Gate::CX, &[c, t])
    }

    /// CZ between `a` and `b`.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.apply(Gate::CZ, &[a, b])
    }

    /// ZZ-interaction `exp(-iθ Z⊗Z/2)` between `a` and `b`.
    pub fn zz(&mut self, a: usize, b: usize, theta: f64) -> &mut Self {
        self.apply(Gate::ZZ(theta), &[a, b])
    }

    /// Givens rotation between `a` and `b`.
    pub fn givens(&mut self, a: usize, b: usize, theta: f64) -> &mut Self {
        self.apply(Gate::Givens(theta), &[a, b])
    }

    /// Appends all operations of `other` (must address ≤ our qubits).
    pub fn extend(&mut self, other: &Circuit) -> &mut Self {
        for op in &other.ops {
            self.push(op.clone());
        }
        self
    }

    /// The adjoint circuit: gates reversed and conjugate-transposed.
    pub fn dagger(&self) -> Circuit {
        let mut c = Circuit::new(self.n_qubits);
        for op in self.ops.iter().rev() {
            c.push(Operation::new(op.gate.dagger(), op.qubits.clone()));
        }
        c
    }

    /// Circuit depth under ASAP (as-soon-as-possible) layering: the
    /// number of layers when every gate starts as early as its qubits
    /// allow.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.n_qubits];
        let mut depth = 0;
        for op in &self.ops {
            let start = op.qubits.iter().map(|&q| level[q]).max().unwrap_or(0);
            let end = start + 1;
            for &q in &op.qubits {
                level[q] = end;
            }
            depth = depth.max(end);
        }
        depth
    }

    /// Builds the full `2^n × 2^n` unitary of the circuit.
    ///
    /// Intended for small `n` (verification); memory is `O(4^n)`.
    ///
    /// Qubit 0 is the most significant bit of the basis index, matching
    /// the convention of [`Gate::matrix`] for two-qubit gates.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits > 12` (guard against accidental explosion).
    pub fn unitary(&self) -> Matrix {
        assert!(
            self.n_qubits <= 12,
            "unitary() is for small circuits (≤12 qubits)"
        );
        let dim = 1usize << self.n_qubits;
        let mut u = Matrix::identity(dim);
        for op in &self.ops {
            let g = self.expand_gate(op);
            u = g.matmul(&u);
        }
        u
    }

    /// Expands one operation to the full `2^n` dimensional matrix.
    pub(crate) fn expand_gate(&self, op: &Operation) -> Matrix {
        let n = self.n_qubits;
        let dim = 1usize << n;
        let gm = op.gate.matrix();
        let mut full = Matrix::zeros(dim, dim);
        match op.qubits.len() {
            1 => {
                let q = op.qubits[0];
                let shift = n - 1 - q; // qubit 0 = most significant bit
                for col in 0..dim {
                    let b = (col >> shift) & 1;
                    for row_bit in 0..2 {
                        let amp = gm[(row_bit, b)];
                        if amp == Complex64::ZERO {
                            continue;
                        }
                        let row = (col & !(1 << shift)) | (row_bit << shift);
                        full[(row, col)] += amp;
                    }
                }
            }
            2 => {
                let (q0, q1) = (op.qubits[0], op.qubits[1]);
                let s0 = n - 1 - q0;
                let s1 = n - 1 - q1;
                for col in 0..dim {
                    let b0 = (col >> s0) & 1;
                    let b1 = (col >> s1) & 1;
                    let in_idx = b0 * 2 + b1;
                    for out_idx in 0..4 {
                        let amp = gm[(out_idx, in_idx)];
                        if amp == Complex64::ZERO {
                            continue;
                        }
                        let o0 = out_idx >> 1;
                        let o1 = out_idx & 1;
                        let row = (col & !(1 << s0) & !(1 << s1)) | (o0 << s0) | (o1 << s1);
                        full[(row, col)] += amp;
                    }
                }
            }
            _ => unreachable!("gates are 1- or 2-qubit"),
        }
        full
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Circuit({} qubits, {} gates, depth {})",
            self.n_qubits,
            self.gate_count(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_linalg::cr;

    #[test]
    fn depth_of_parallel_gates() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3); // all in one layer
        assert_eq!(c.depth(), 1);
        c.cx(0, 1).cx(2, 3); // second layer
        assert_eq!(c.depth(), 2);
        c.cx(1, 2); // third layer (waits for both)
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn bell_circuit_unitary() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let u = c.unitary();
        // First column is the Bell state (|00⟩+|11⟩)/√2.
        let inv = std::f64::consts::FRAC_1_SQRT_2;
        assert!(u[(0, 0)].approx_eq(cr(inv), 1e-12));
        assert!(u[(3, 0)].approx_eq(cr(inv), 1e-12));
        assert!(u[(1, 0)].approx_eq(cr(0.0), 1e-12));
        assert!(u.is_unitary(1e-12));
    }

    #[test]
    fn single_qubit_expansion_respects_bit_order() {
        // X on qubit 0 of 2 qubits flips the most significant bit.
        let mut c = Circuit::new(2);
        c.x(0);
        let u = c.unitary();
        // |00⟩ → |10⟩ (index 0 → 2)
        assert!(u[(2, 0)].approx_eq(cr(1.0), 1e-14));
    }

    #[test]
    fn cx_control_order_matters() {
        let mut c01 = Circuit::new(2);
        c01.cx(0, 1);
        let mut c10 = Circuit::new(2);
        c10.cx(1, 0);
        assert!(!c01.unitary().approx_eq(&c10.unitary(), 1e-12));
        // CX(0,1): |10⟩ → |11⟩ (index 2 → 3)
        assert!(c01.unitary()[(3, 2)].approx_eq(cr(1.0), 1e-14));
        // CX(1,0): |01⟩ → |11⟩ (index 1 → 3)
        assert!(c10.unitary()[(3, 1)].approx_eq(cr(1.0), 1e-14));
    }

    #[test]
    fn dagger_gives_inverse_unitary() {
        let mut c = Circuit::new(3);
        c.h(0).t(1).cx(0, 2).rz(2, 0.7).cz(1, 2).ry(0, -0.3);
        let u = c.unitary();
        let ud = c.dagger().unitary();
        let dim = 1 << 3;
        assert!(u.matmul(&ud).approx_eq(&Matrix::identity(dim), 1e-12));
    }

    #[test]
    fn unitary_matches_gate_order() {
        // X then Z on one qubit: total = Z·X.
        let mut c = Circuit::new(1);
        c.x(0).z(0);
        let expect = Gate::Z.matrix().matmul(&Gate::X.matrix());
        assert!(c.unitary().approx_eq(&expect, 1e-14));
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cx(0, 1);
        a.extend(&b);
        assert_eq!(a.gate_count(), 2);
        assert_eq!(a.operations()[1].gate, Gate::CX);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_panics() {
        let mut c = Circuit::new(2);
        c.h(5);
    }

    #[test]
    #[should_panic(expected = "identical qubits")]
    fn duplicate_qubits_panic() {
        let _ = Operation::new(Gate::CZ, vec![1, 1]);
    }

    #[test]
    fn zz_commutes_with_cz_layers() {
        // Diagonal gates commute; check via unitaries on 2 qubits.
        let mut ab = Circuit::new(2);
        ab.zz(0, 1, 0.4).cz(0, 1);
        let mut ba = Circuit::new(2);
        ba.cz(0, 1).zz(0, 1, 0.4);
        assert!(ab.unitary().approx_eq(&ba.unitary(), 1e-12));
    }
}
