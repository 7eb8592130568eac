//! The TDD-based noisy simulator: density-matrix evolution on
//! decision diagrams.
//!
//! The density matrix `ρ` lives in the diagram; gates apply as
//! `G·ρ·G†` (two diagram multiplications) and channels as Kraus sums
//! `Σ_k E_k·ρ·E_k†`. The result `⟨v|ρ|v⟩` collapses through bra/ket
//! products. This is the paper's third accurate baseline — efficient
//! exactly when the diagrams stay structured.

use crate::manager::{DdManager, Edge};
use qns_linalg::Complex64;
use qns_noise::{Element, NoisyCircuit};

/// Runs a noisy circuit on the product input `psi` and returns the
/// density-matrix diagram together with its manager.
///
/// # Panics
///
/// Panics if `psi.len()` differs from the circuit's qubit count.
pub fn run(noisy: &NoisyCircuit, psi: &[[Complex64; 2]]) -> (DdManager, Edge) {
    let n = noisy.n_qubits();
    assert_eq!(psi.len(), n, "one input factor per qubit");
    let mut man = DdManager::new(n);
    let ket = man.product_vector(psi);
    let bra = man.product_covector(psi);
    let mut rho = man.mul(ket, bra);

    for el in noisy.elements() {
        match el {
            Element::Gate(op) => {
                let g = man.gate(op);
                let gd = {
                    let m = op.gate.matrix().adjoint();
                    match op.qubits.len() {
                        1 => man.single_qubit_matrix(op.qubits[0], &m),
                        _ => man.two_qubit_matrix(op.qubits[0], op.qubits[1], &m),
                    }
                };
                let t = man.mul(g, rho);
                rho = man.mul(t, gd);
            }
            Element::Noise(e) => {
                let mut acc = Edge::zero();
                for k in e.kraus.operators() {
                    let kd = man.single_qubit_matrix(e.qubit, k);
                    let kdd = man.single_qubit_matrix(e.qubit, &k.adjoint());
                    let t = man.mul(kd, rho);
                    let term = man.mul(t, kdd);
                    acc = man.add(acc, term);
                }
                rho = acc;
            }
        }
    }
    (man, rho)
}

/// The paper's Problem 1 on decision diagrams:
/// `⟨v| E_N(|ψ⟩⟨ψ|) |v⟩` for product `psi` and `v`.
///
/// # Panics
///
/// Panics if the factor counts differ from the circuit's qubit count.
pub fn expectation(noisy: &NoisyCircuit, psi: &[[Complex64; 2]], v: &[[Complex64; 2]]) -> f64 {
    let n = noisy.n_qubits();
    assert_eq!(v.len(), n, "one test factor per qubit");
    let (mut man, rho) = run(noisy, psi);
    let ket_v = man.product_vector(v);
    let bra_v = man.product_covector(v);
    let rv = man.mul(rho, ket_v);
    let scalar = man.mul(bra_v, rv);
    man.scalar_value(scalar).re
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_circuit::generators::{ghz, inst_grid, qaoa_ring, QaoaRound};
    use qns_noise::channels;

    /// Computational basis factors for `bits` on the small widths used
    /// here (qubit 0 is the most significant bit).
    fn basis(n: usize, bits: usize) -> Vec<[Complex64; 2]> {
        (0..n)
            .map(|q| {
                if (bits >> (n - 1 - q)) & 1 == 1 {
                    [Complex64::ZERO, Complex64::ONE]
                } else {
                    [Complex64::ONE, Complex64::ZERO]
                }
            })
            .collect()
    }

    #[test]
    fn noiseless_ghz_probabilities() {
        let noisy = NoisyCircuit::noiseless(ghz(4));
        let psi = basis(4, 0);
        let p000 = expectation(&noisy, &psi, &basis(4, 0));
        let p111 = expectation(&noisy, &psi, &basis(4, 0b1111));
        let p_mid = expectation(&noisy, &psi, &basis(4, 0b0101));
        assert!((p000 - 0.5).abs() < 1e-12);
        assert!((p111 - 0.5).abs() < 1e-12);
        assert!(p_mid.abs() < 1e-12);
    }

    #[test]
    fn matches_dense_density_simulation() {
        for (name, ch) in [
            ("depolarizing", channels::depolarizing(0.05)),
            ("amplitude_damping", channels::amplitude_damping(0.1)),
            ("thermal", channels::thermal_relaxation(30.0, 40.0, 200.0)),
        ] {
            let noisy = NoisyCircuit::inject_random(ghz(3), &ch, 3, 13);
            let psi_dd = basis(3, 0);
            let v_dd = basis(3, 0b111);
            let dd = expectation(&noisy, &psi_dd, &v_dd);

            let psi = qns_sim::statevector::zero_state(3);
            let v = qns_sim::statevector::basis_state(3, 0b111);
            let mm = qns_sim::density::expectation(&noisy, &psi, &v);
            assert!((dd - mm).abs() < 1e-9, "{name}: dd {dd} vs mm {mm}");
        }
    }

    #[test]
    fn matches_dense_on_qaoa() {
        let rounds = [QaoaRound {
            gamma: 0.4,
            beta: 0.25,
        }];
        let c = qaoa_ring(4, &rounds);
        let noisy = NoisyCircuit::inject_random(c, &channels::depolarizing(0.01), 4, 21);
        let dd = expectation(&noisy, &basis(4, 0), &basis(4, 0));
        let mm = qns_sim::density::expectation(
            &noisy,
            &qns_sim::statevector::zero_state(4),
            &qns_sim::statevector::basis_state(4, 0),
        );
        assert!((dd - mm).abs() < 1e-9, "dd {dd} vs mm {mm}");
    }

    #[test]
    fn matches_dense_on_supremacy() {
        let c = inst_grid(2, 2, 6, 8);
        let noisy = NoisyCircuit::inject_random(c, &channels::phase_damping(0.05), 2, 3);
        let dd = expectation(&noisy, &basis(4, 0), &basis(4, 0b1001));
        let mm = qns_sim::density::expectation(
            &noisy,
            &qns_sim::statevector::zero_state(4),
            &qns_sim::statevector::basis_state(4, 0b1001),
        );
        assert!((dd - mm).abs() < 1e-9, "dd {dd} vs mm {mm}");
    }

    #[test]
    fn trace_preserved_on_diagram() {
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(0.2), 4, 5);
        let (man, rho) = run(&noisy, &basis(3, 0));
        let m = man.to_matrix(rho);
        assert!((m.trace().re - 1.0).abs() < 1e-10);
        assert!(m.is_hermitian(1e-10));
    }

    #[test]
    fn ghz_density_diagram_is_compact() {
        // Structured circuit + single noise: the diagram stays small
        // (the DD success regime the paper's Table II reflects for hf).
        let n = 8;
        let noisy = NoisyCircuit::inject_random(ghz(n), &channels::phase_flip(0.01), 1, 2);
        let (man, rho) = run(&noisy, &basis(n, 0));
        assert!(
            man.node_count(rho) < 8 * n,
            "GHZ density DD too large: {}",
            man.node_count(rho)
        );
    }
}
