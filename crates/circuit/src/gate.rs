//! The gate library.
//!
//! Matrices follow the conventions of the paper's Table I; rotation
//! gates use the physics convention `R_a(θ) = exp(-iθ·σ_a/2)`.

use qns_linalg::{c64, cr, Complex64, Matrix};
use std::f64::consts::{FRAC_1_SQRT_2, FRAC_PI_4, PI};
use std::fmt;

/// A quantum logic gate acting on one or two qubits.
///
/// Use [`Gate::matrix`] for the unitary (2×2 or 4×4) and
/// [`Gate::arity`] for the number of qubits it addresses.
///
/// ```
/// use qns_circuit::Gate;
/// assert_eq!(Gate::CZ.arity(), 2);
/// assert!(Gate::H.matrix().is_unitary(1e-12));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum Gate {
    /// Hadamard.
    H,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Phase gate `S = diag(1, i)`.
    S,
    /// Inverse phase gate `S† = diag(1, -i)`.
    Sdg,
    /// `T = diag(1, e^{iπ/4})`.
    T,
    /// `T† = diag(1, e^{-iπ/4})`.
    Tdg,
    /// `√X` (used by Google supremacy circuits).
    SqrtX,
    /// `√Y` (used by Google supremacy circuits).
    SqrtY,
    /// `√W` with `W = (X+Y)/√2` (used by Google supremacy circuits).
    SqrtW,
    /// Rotation about X: `exp(-iθX/2)`.
    Rx(f64),
    /// Rotation about Y: `exp(-iθY/2)`.
    Ry(f64),
    /// Rotation about Z: `exp(-iθZ/2)`.
    Rz(f64),
    /// Phase rotation `diag(1, e^{iθ})`.
    Phase(f64),
    /// Arbitrary single-qubit unitary (validated on use).
    Custom1(Box<Matrix>),
    /// Controlled-Z.
    CZ,
    /// Controlled-X (CNOT); first qubit is the control.
    CX,
    /// Controlled-phase `diag(1,1,1,e^{iθ})`.
    CPhase(f64),
    /// Controlled arbitrary single-qubit unitary; first qubit controls.
    CU(Box<Matrix>),
    /// iSWAP.
    ISwap,
    /// Google `fSim(θ, φ)` gate.
    FSim(f64, f64),
    /// Givens rotation `exp(-iθ(XY - YX)/2)`-style planar rotation in the
    /// `{|01⟩, |10⟩}` subspace (the Hartree–Fock VQE primitive).
    Givens(f64),
    /// ZZ interaction `exp(-iθ Z⊗Z / 2)` (the QAOA cost primitive).
    ZZ(f64),
    /// Arbitrary two-qubit unitary (validated on use).
    Custom2(Box<Matrix>),
}

impl Gate {
    /// Number of qubits the gate acts on (1 or 2).
    pub fn arity(&self) -> usize {
        use Gate::*;
        match self {
            H | X | Y | Z | S | Sdg | T | Tdg | SqrtX | SqrtY | SqrtW | Rx(_) | Ry(_) | Rz(_)
            | Phase(_) | Custom1(_) => 1,
            CZ | CX | CPhase(_) | CU(_) | ISwap | FSim(_, _) | Givens(_) | ZZ(_) | Custom2(_) => 2,
        }
    }

    /// The gate's unitary matrix (2×2 for 1-qubit, 4×4 for 2-qubit).
    ///
    /// For two-qubit gates the first qubit indexes the more significant
    /// bit: basis order `|q0 q1⟩ ∈ {|00⟩, |01⟩, |10⟩, |11⟩}`.
    ///
    /// # Panics
    ///
    /// Panics if a `Custom1`/`Custom2`/`CU` payload has the wrong shape.
    pub fn matrix(&self) -> Matrix {
        let dim = 1 << self.arity();
        let mut data = vec![Complex64::ZERO; dim * dim];
        self.write_matrix(&mut data);
        Matrix::from_vec(dim, dim, data)
    }

    /// Writes the entries of [`Gate::matrix`], row-major, into `out`
    /// without building a [`Matrix`]: the tensor-network builders fill
    /// a node's buffer in place with it.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not hold exactly the matrix's `4` (1-qubit)
    /// or `16` (2-qubit) entries, or if a `Custom1`/`Custom2`/`CU`
    /// payload has the wrong shape.
    pub fn write_matrix(&self, out: &mut [Complex64]) {
        use Gate::*;
        let dim = 1usize << self.arity();
        assert_eq!(out.len(), dim * dim, "gate matrix buffer length");
        let inv = FRAC_1_SQRT_2;
        let (zero, one) = (Complex64::ZERO, Complex64::ONE);
        // Diagonal gates: zeros off the diagonal.
        let mut diag = |d: &[Complex64]| {
            out.fill(zero);
            for (i, &z) in d.iter().enumerate() {
                out[i * dim + i] = z;
            }
        };
        match self {
            H => out.copy_from_slice(&[cr(inv), cr(inv), cr(inv), cr(-inv)]),
            X => out.copy_from_slice(&[cr(0.0), cr(1.0), cr(1.0), cr(0.0)]),
            Y => out.copy_from_slice(&[cr(0.0), c64(0.0, -1.0), c64(0.0, 1.0), cr(0.0)]),
            Z => out.copy_from_slice(&[cr(1.0), cr(0.0), cr(0.0), cr(-1.0)]),
            S => diag(&[cr(1.0), Complex64::I]),
            Sdg => diag(&[cr(1.0), -Complex64::I]),
            T => diag(&[cr(1.0), Complex64::from_polar(1.0, FRAC_PI_4)]),
            Tdg => diag(&[cr(1.0), Complex64::from_polar(1.0, -FRAC_PI_4)]),
            SqrtX => {
                out.copy_from_slice(&[c64(0.5, 0.5), c64(0.5, -0.5), c64(0.5, -0.5), c64(0.5, 0.5)])
            }
            SqrtY => {
                out.copy_from_slice(&[c64(0.5, 0.5), c64(-0.5, -0.5), c64(0.5, 0.5), c64(0.5, 0.5)])
            }
            SqrtW => {
                // √W where W = (X+Y)/√2 is Hermitian and unitary: see
                // `sqrt_hermitian_unitary`.
                let w = [cr(0.0), c64(inv, -inv), c64(inv, inv), cr(0.0)];
                let id = [one, zero, zero, one];
                for ((o, &e), &x) in out.iter_mut().zip(&id).zip(&w) {
                    *o = sqrt_hermitian_unitary_entry(e, x);
                }
            }
            Rx(theta) => {
                let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
                out.copy_from_slice(&[cr(c), c64(0.0, -s), c64(0.0, -s), cr(c)]);
            }
            Ry(theta) => {
                let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
                out.copy_from_slice(&[cr(c), cr(-s), cr(s), cr(c)]);
            }
            Rz(theta) => diag(&[
                Complex64::from_polar(1.0, -theta / 2.0),
                Complex64::from_polar(1.0, theta / 2.0),
            ]),
            Phase(theta) => diag(&[cr(1.0), Complex64::from_polar(1.0, *theta)]),
            Custom1(m) => {
                assert_eq!((m.rows(), m.cols()), (2, 2), "Custom1 must be 2×2");
                out.copy_from_slice(m.as_slice());
            }
            CZ => diag(&[cr(1.0), cr(1.0), cr(1.0), cr(-1.0)]),
            CX => out.copy_from_slice(&[
                cr(1.0),
                cr(0.0),
                cr(0.0),
                cr(0.0),
                cr(0.0),
                cr(1.0),
                cr(0.0),
                cr(0.0),
                cr(0.0),
                cr(0.0),
                cr(0.0),
                cr(1.0),
                cr(0.0),
                cr(0.0),
                cr(1.0),
                cr(0.0),
            ]),
            CPhase(theta) => diag(&[
                cr(1.0),
                cr(1.0),
                cr(1.0),
                Complex64::from_polar(1.0, *theta),
            ]),
            CU(u) => {
                assert_eq!((u.rows(), u.cols()), (2, 2), "CU payload must be 2×2");
                diag(&[one; 4]);
                for i in 0..2 {
                    for j in 0..2 {
                        out[(2 + i) * 4 + 2 + j] = u[(i, j)];
                    }
                }
            }
            ISwap => {
                out.fill(cr(0.0));
                out[0] = cr(1.0);
                out[6] = Complex64::I;
                out[9] = Complex64::I;
                out[15] = cr(1.0);
            }
            FSim(theta, phi) => {
                let (c, s) = (theta.cos(), theta.sin());
                out.fill(cr(0.0));
                out[0] = cr(1.0);
                out[5] = cr(c);
                out[6] = c64(0.0, -s);
                out[9] = c64(0.0, -s);
                out[10] = cr(c);
                out[15] = Complex64::from_polar(1.0, -phi);
            }
            Givens(theta) => {
                let (c, s) = (theta.cos(), theta.sin());
                out.fill(cr(0.0));
                out[0] = cr(1.0);
                out[5] = cr(c);
                out[6] = cr(-s);
                out[9] = cr(s);
                out[10] = cr(c);
                out[15] = cr(1.0);
            }
            ZZ(theta) => {
                let p = Complex64::from_polar(1.0, -theta / 2.0);
                let m = Complex64::from_polar(1.0, theta / 2.0);
                diag(&[p, m, m, p]);
            }
            Custom2(m) => {
                assert_eq!((m.rows(), m.cols()), (4, 4), "Custom2 must be 4×4");
                out.copy_from_slice(m.as_slice());
            }
        }
    }

    /// Short display name (e.g. `"H"`, `"Rz(1.571)"`).
    pub fn name(&self) -> String {
        use Gate::*;
        match self {
            H => "H".into(),
            X => "X".into(),
            Y => "Y".into(),
            Z => "Z".into(),
            S => "S".into(),
            Sdg => "S†".into(),
            T => "T".into(),
            Tdg => "T†".into(),
            SqrtX => "√X".into(),
            SqrtY => "√Y".into(),
            SqrtW => "√W".into(),
            Rx(t) => format!("Rx({t:.3})"),
            Ry(t) => format!("Ry({t:.3})"),
            Rz(t) => format!("Rz({t:.3})"),
            Phase(t) => format!("P({t:.3})"),
            Custom1(_) => "U1".into(),
            CZ => "CZ".into(),
            CX => "CX".into(),
            CPhase(t) => format!("CP({t:.3})"),
            CU(_) => "CU".into(),
            ISwap => "iSWAP".into(),
            FSim(t, p) => format!("fSim({t:.3},{p:.3})"),
            Givens(t) => format!("G({t:.3})"),
            ZZ(t) => format!("ZZ({t:.3})"),
            Custom2(_) => "U2".into(),
        }
    }

    /// The adjoint (inverse) gate.
    pub fn dagger(&self) -> Gate {
        use Gate::*;
        match self {
            H | X | Y | Z | CZ | CX => self.clone(),
            S => Sdg,
            Sdg => S,
            T => Tdg,
            Tdg => T,
            Rx(t) => Rx(-t),
            Ry(t) => Ry(-t),
            Rz(t) => Rz(-t),
            Phase(t) => Phase(-t),
            CPhase(t) => CPhase(-t),
            Givens(t) => Givens(-t),
            ZZ(t) => ZZ(-t),
            FSim(t, p) => Custom2(Box::new(FSim(*t, *p).matrix().adjoint())),
            SqrtX | SqrtY | SqrtW | ISwap => match self {
                SqrtX => Custom1(Box::new(SqrtX.matrix().adjoint())),
                SqrtY => Custom1(Box::new(SqrtY.matrix().adjoint())),
                SqrtW => Custom1(Box::new(SqrtW.matrix().adjoint())),
                _ => Custom2(Box::new(ISwap.matrix().adjoint())),
            },
            Custom1(m) => Custom1(Box::new(m.adjoint())),
            CU(u) => CU(Box::new(u.adjoint())),
            Custom2(m) => Custom2(Box::new(m.adjoint())),
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One entry of the principal square root of a Hermitian unitary `W`
/// (eigenvalues ±1), from the same entries `e` of `I` and `w` of `W`:
/// `√W = P₊ + i·P₋` with the projectors `P₊ = (I+W)/2` onto eigenvalue
/// `+1` and `P₋ = (I−W)/2` onto `−1`, so the root picks `e^{i·0} = 1`
/// on the `+1` branch and `e^{iπ/2} = i` on the `−1` branch. Used for
/// `√W`; also correct for `√X`, `√Y`.
fn sqrt_hermitian_unitary_entry(e: Complex64, w: Complex64) -> Complex64 {
    (e + w) * cr(0.5) + ((e - w) * cr(0.5)) * Complex64::I
}

/// Returns `true` when `g` is diagonal in the computational basis.
pub fn is_diagonal_gate(g: &Gate) -> bool {
    use Gate::*;
    matches!(
        g,
        Z | S | Sdg | T | Tdg | Rz(_) | Phase(_) | CZ | CPhase(_) | ZZ(_)
    )
}

/// All parameter-free single-qubit gates (useful for randomized tests).
pub fn fixed_single_qubit_gates() -> Vec<Gate> {
    vec![
        Gate::H,
        Gate::X,
        Gate::Y,
        Gate::Z,
        Gate::S,
        Gate::Sdg,
        Gate::T,
        Gate::Tdg,
        Gate::SqrtX,
        Gate::SqrtY,
        Gate::SqrtW,
    ]
}

#[allow(unused_imports)]
use std::f64::consts as _consts;
const _: f64 = PI; // keep PI import used in all feature configurations

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_fixed_gates_are_unitary() {
        for g in fixed_single_qubit_gates() {
            assert!(g.matrix().is_unitary(1e-12), "{g} not unitary");
        }
        for g in [
            Gate::CZ,
            Gate::CX,
            Gate::ISwap,
            Gate::FSim(0.3, 0.7),
            Gate::Givens(0.4),
            Gate::ZZ(1.1),
            Gate::CPhase(0.9),
        ] {
            assert!(g.matrix().is_unitary(1e-12), "{g} not unitary");
        }
    }

    #[test]
    fn rotations_are_unitary_for_many_angles() {
        for k in 0..12 {
            let t = k as f64 * PI / 6.0;
            for g in [Gate::Rx(t), Gate::Ry(t), Gate::Rz(t), Gate::Phase(t)] {
                assert!(g.matrix().is_unitary(1e-12), "{g} not unitary");
            }
        }
    }

    #[test]
    fn sqrt_gates_square_to_base() {
        let x = Gate::X.matrix();
        let sx = Gate::SqrtX.matrix();
        assert!(sx.matmul(&sx).approx_eq(&x, 1e-12));

        let y = Gate::Y.matrix();
        let sy = Gate::SqrtY.matrix();
        assert!(sy.matmul(&sy).approx_eq(&y, 1e-12));

        let inv = FRAC_1_SQRT_2;
        let w = Matrix::from_rows(&[vec![cr(0.0), c64(inv, -inv)], vec![c64(inv, inv), cr(0.0)]]);
        let sw = Gate::SqrtW.matrix();
        assert!(sw.matmul(&sw).approx_eq(&w, 1e-12));
    }

    #[test]
    fn rotation_decomposition_h_equals_phase_ry() {
        // H = e^{iπ/2}·Rz(π)·? — simpler known identity: H = X·Ry(π/2)·(global phase)
        // Check: Ry(π/2) then X equals H up to global phase.
        let lhs = Gate::X.matrix().matmul(&Gate::Ry(PI / 2.0).matrix());
        let h = Gate::H.matrix();
        // Compare up to global phase via |⟨lhs, h⟩| = 2.
        let mut overlap = Complex64::ZERO;
        for i in 0..2 {
            for j in 0..2 {
                overlap += lhs[(i, j)].conj() * h[(i, j)];
            }
        }
        assert!((overlap.abs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cz_is_symmetric_under_qubit_swap() {
        let cz = Gate::CZ.matrix();
        // SWAP·CZ·SWAP = CZ
        let swap = Matrix::from_rows(&[
            vec![cr(1.0), cr(0.0), cr(0.0), cr(0.0)],
            vec![cr(0.0), cr(0.0), cr(1.0), cr(0.0)],
            vec![cr(0.0), cr(1.0), cr(0.0), cr(0.0)],
            vec![cr(0.0), cr(0.0), cr(0.0), cr(1.0)],
        ]);
        assert!(swap.matmul(&cz).matmul(&swap).approx_eq(&cz, 1e-14));
    }

    #[test]
    fn cu_with_x_payload_is_cnot() {
        let cu = Gate::CU(Box::new(Gate::X.matrix()));
        assert!(cu.matrix().approx_eq(&Gate::CX.matrix(), 1e-14));
    }

    #[test]
    fn cphase_pi_is_cz() {
        assert!(Gate::CPhase(PI)
            .matrix()
            .approx_eq(&Gate::CZ.matrix(), 1e-12));
    }

    #[test]
    fn dagger_inverts() {
        for g in [
            Gate::H,
            Gate::T,
            Gate::SqrtX,
            Gate::SqrtW,
            Gate::Rx(0.7),
            Gate::FSim(0.3, 0.9),
            Gate::ISwap,
            Gate::Givens(0.5),
            Gate::ZZ(0.8),
        ] {
            let m = g.matrix();
            let d = g.dagger().matrix();
            let n = m.rows();
            assert!(
                m.matmul(&d).approx_eq(&Matrix::identity(n), 1e-12),
                "{g}·{g}† ≠ I"
            );
        }
    }

    #[test]
    fn zz_phases_match_definition() {
        // exp(-iθ/2 Z⊗Z): |00⟩,|11⟩ get e^{-iθ/2}; |01⟩,|10⟩ get e^{+iθ/2}.
        let t = 0.6;
        let m = Gate::ZZ(t).matrix();
        assert!(m[(0, 0)].approx_eq(Complex64::from_polar(1.0, -t / 2.0), 1e-14));
        assert!(m[(1, 1)].approx_eq(Complex64::from_polar(1.0, t / 2.0), 1e-14));
        assert!(m[(3, 3)].approx_eq(Complex64::from_polar(1.0, -t / 2.0), 1e-14));
    }

    #[test]
    fn givens_mixes_only_middle_block() {
        let g = Gate::Givens(0.3).matrix();
        assert!(g[(0, 0)].approx_eq(cr(1.0), 1e-14));
        assert!(g[(3, 3)].approx_eq(cr(1.0), 1e-14));
        assert!(g[(1, 2)].approx_eq(cr(-(0.3f64).sin()), 1e-14));
    }

    #[test]
    fn diagonal_detection() {
        assert!(is_diagonal_gate(&Gate::CZ));
        assert!(is_diagonal_gate(&Gate::Rz(0.2)));
        assert!(!is_diagonal_gate(&Gate::H));
        assert!(!is_diagonal_gate(&Gate::CX));
    }
}
