//! Circuit-to-network translation.
//!
//! Two builders:
//!
//! * [`amplitude_network`] — the single-size network for the noiseless
//!   amplitude `⟨v|C|ψ⟩` (optionally with arbitrary single-qubit
//!   matrix insertions). The approximation algorithm's pattern terms
//!   are `|⟨v|K_p ψ⟩|²` of one such network with the Kraus-form noise
//!   terms inserted; [`AmplitudeSkeleton`] keeps it built once and
//!   swaps the insertions per pattern.
//! * [`double_network`] — the paper's Fig. 2 diagram: a `2n`-rail
//!   network carrying the circuit on the upper half, its conjugate on
//!   the lower half, and each noise channel as the rank-4 tensor of its
//!   superoperator `M_E = Σ E_k ⊗ E_k*` bridging the halves. It is the
//!   network the exact `tnet` engine contracts.

use crate::network::{LegId, NodeId, OrderStrategy, TensorNetwork};
use crate::plan::ContractionPlan;
use qns_circuit::Circuit;
use qns_linalg::{Complex64, Matrix};
use qns_noise::NoisyCircuit;
use qns_tensor::Tensor;
use std::collections::BTreeMap;

/// A product state `⊗_q (a_q|0⟩ + b_q|1⟩)` — the input/test states of
/// the paper's experiments (computational basis states and local
/// rotations thereof).
#[derive(Clone, Debug, PartialEq)]
pub struct ProductState {
    factors: Vec<[Complex64; 2]>,
}

impl ProductState {
    /// `|0…0⟩` on `n` qubits.
    pub fn all_zeros(n: usize) -> Self {
        ProductState {
            factors: vec![[Complex64::ONE, Complex64::ZERO]; n],
        }
    }

    /// The computational basis state with bit pattern `bits` (qubit 0
    /// is the most significant bit, matching the rest of the
    /// workspace).
    ///
    /// # Panics
    ///
    /// Panics if `bits ≥ 2^n`.
    pub fn basis(n: usize, bits: usize) -> Self {
        assert!(bits < (1usize << n), "bit pattern out of range");
        let factors = (0..n)
            .map(|q| {
                if (bits >> (n - 1 - q)) & 1 == 1 {
                    [Complex64::ZERO, Complex64::ONE]
                } else {
                    [Complex64::ONE, Complex64::ZERO]
                }
            })
            .collect();
        ProductState { factors }
    }

    /// Builds from explicit per-qubit factors.
    ///
    /// # Panics
    ///
    /// Panics if `factors` is empty.
    pub fn from_factors(factors: Vec<[Complex64; 2]>) -> Self {
        assert!(
            !factors.is_empty(),
            "product state needs at least one qubit"
        );
        ProductState { factors }
    }

    /// The uniform superposition `|+⟩^{⊗n}`.
    pub fn all_plus(n: usize) -> Self {
        let inv = qns_linalg::cr(std::f64::consts::FRAC_1_SQRT_2);
        ProductState {
            factors: vec![[inv, inv]; n],
        }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.factors.len()
    }

    /// The factor of qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn factor(&self, q: usize) -> [Complex64; 2] {
        self.factors[q]
    }

    /// Expands to a full statevector of length `2^n`.
    pub fn to_statevector(&self) -> Vec<Complex64> {
        let mut v = vec![Complex64::ONE];
        for f in &self.factors {
            v = qns_linalg::kron_vec(&v, f);
        }
        v
    }
}

/// A single-qubit matrix insertion after a gate (used for Kraus
/// sampling and for the approximation algorithm's noise substitutions).
#[derive(Clone, Debug)]
pub struct Insertion {
    /// Insert after the gate with this index (`usize::MAX` ⇒ before
    /// the first gate).
    pub after_gate: usize,
    /// The qubit the matrix acts on.
    pub qubit: usize,
    /// The (not necessarily unitary) 2×2 matrix.
    pub matrix: Matrix,
}

/// Builds the single-size amplitude network for `⟨v|C|ψ⟩` with
/// arbitrary single-qubit `insertions` spliced in after the given
/// gates. If `conjugate` is set, every gate/insertion matrix and state
/// factor is entry-wise conjugated — producing the lower half of the
/// paper's split networks, `⟨v*|C*|ψ*⟩`.
///
/// # Panics
///
/// Panics if state sizes disagree with the circuit or insertions are
/// out of range.
pub fn amplitude_network_with(
    circuit: &Circuit,
    psi: &ProductState,
    v: &ProductState,
    insertions: &[Insertion],
    conjugate: bool,
) -> TensorNetwork {
    amplitude_network_impl(circuit, psi, v, insertions, conjugate).0
}

/// As [`amplitude_network_with`], also returning the node id of each
/// insertion (index-aligned with `insertions`) so callers can swap the
/// spliced matrices without rebuilding the network.
fn amplitude_network_impl(
    circuit: &Circuit,
    psi: &ProductState,
    v: &ProductState,
    insertions: &[Insertion],
    conjugate: bool,
) -> (TensorNetwork, Vec<NodeId>) {
    let n = circuit.n_qubits();
    assert_eq!(psi.n_qubits(), n, "input state size mismatch");
    assert_eq!(v.n_qubits(), n, "test state size mismatch");
    for ins in insertions {
        assert!(
            ins.after_gate == usize::MAX || ins.after_gate < circuit.gate_count(),
            "insertion after_gate out of range"
        );
        assert!(ins.qubit < n, "insertion qubit out of range");
    }
    // Every node is built in place: its entries written straight into
    // the buffer it keeps, one shape and one leg list beside it.
    let gate_legs: usize = circuit.operations().iter().map(|op| op.qubits.len()).sum();
    let mut net = TensorNetwork::with_capacity(
        2 * n + circuit.gate_count() + insertions.len(),
        n + gate_legs + insertions.len(),
    );
    let mut cur: Vec<LegId> = (0..n).map(|_| net.fresh_leg()).collect();
    let maybe_conj = |z: Complex64| if conjugate { z.conj() } else { z };

    // Input caps |ψ⟩.
    for q in 0..n {
        let f = psi.factor(q);
        let t = Tensor::from_vec(vec![maybe_conj(f[0]), maybe_conj(f[1])], vec![2]);
        net.add(t, vec![cur[q]]);
    }

    let mut insertion_nodes: Vec<Option<NodeId>> = vec![None; insertions.len()];
    let splice = |net: &mut TensorNetwork, cur: &mut Vec<LegId>, ins: &Insertion| -> NodeId {
        let new = net.fresh_leg();
        let m = &ins.matrix;
        let data = m.as_slice().iter().map(|&z| maybe_conj(z)).collect();
        let t = Tensor::from_vec(data, vec![m.rows(), m.cols()]);
        let id = net.add(t, vec![new, cur[ins.qubit]]);
        cur[ins.qubit] = new;
        id
    };

    // Pre-circuit insertions.
    for (i, ins) in insertions
        .iter()
        .enumerate()
        .filter(|(_, i)| i.after_gate == usize::MAX)
    {
        insertion_nodes[i] = Some(splice(&mut net, &mut cur, ins));
    }

    for (g, op) in circuit.operations().iter().enumerate() {
        // A k-qubit gate is a 2^k × 2^k matrix [r, c] with
        // r = o0·2+o1, c = i0·2+i1: row-major, its entries are the
        // tensor with axes [o0, o1, i0, i1] (or [o, i] for one qubit).
        let arity = op.qubits.len();
        let mut data = vec![Complex64::ZERO; 1 << (2 * arity)];
        op.gate.write_matrix(&mut data);
        if conjugate {
            data.iter_mut().for_each(|z| *z = z.conj());
        }
        match arity {
            1 => {
                let q = op.qubits[0];
                let new = net.fresh_leg();
                net.add(Tensor::from_vec(data, vec![2, 2]), vec![new, cur[q]]);
                cur[q] = new;
            }
            2 => {
                let (q0, q1) = (op.qubits[0], op.qubits[1]);
                let n0 = net.fresh_leg();
                let n1 = net.fresh_leg();
                let t = Tensor::from_vec(data, vec![2, 2, 2, 2]);
                net.add(t, vec![n0, n1, cur[q0], cur[q1]]);
                cur[q0] = n0;
                cur[q1] = n1;
            }
            _ => unreachable!("gates are 1- or 2-qubit"),
        }
        for (i, ins) in insertions
            .iter()
            .enumerate()
            .filter(|(_, i)| i.after_gate == g)
        {
            insertion_nodes[i] = Some(splice(&mut net, &mut cur, ins));
        }
    }

    // Output caps ⟨v| = conj(v) per qubit (conjugated again when the
    // whole network is the conjugate half).
    for q in 0..n {
        let f = v.factor(q);
        let data = vec![maybe_conj(f[0].conj()), maybe_conj(f[1].conj())];
        net.add(Tensor::from_vec(data, vec![2]), vec![cur[q]]);
    }
    #[expect(
        clippy::expect_used,
        reason = "validation guarantees every insertion point is on the circuit's path"
    )]
    let insertion_nodes = insertion_nodes
        .into_iter()
        .map(|id| id.expect("every validated insertion is spliced"))
        .collect();
    (net, insertion_nodes)
}

/// The noiseless amplitude network `⟨v|C|ψ⟩`.
pub fn amplitude_network(circuit: &Circuit, psi: &ProductState, v: &ProductState) -> TensorNetwork {
    amplitude_network_with(circuit, psi, v, &[], false)
}

/// A pre-built amplitude network whose single-qubit insertions are
/// *substitution slots*: the network topology (and therefore any
/// [`ContractionPlan`] computed from it) is fixed at construction,
/// while the 2×2 matrices spliced at the insertion points can be
/// swapped between executions with [`AmplitudeSkeleton::set_insertion`].
///
/// This is the plan-once/execute-many building block of the
/// approximation algorithm: every substitution pattern shares one
/// skeleton, so the order search runs once per run instead of once per
/// pattern.
#[derive(Clone, Debug)]
pub struct AmplitudeSkeleton {
    net: TensorNetwork,
    insertion_nodes: Vec<NodeId>,
    conjugate: bool,
}

impl AmplitudeSkeleton {
    /// Builds the skeleton of `⟨v|C|ψ⟩` with the given insertions
    /// (their matrices serve as initial payloads; identity is the
    /// conventional placeholder). `conjugate` has the same meaning as
    /// in [`amplitude_network_with`] and also applies to matrices
    /// passed to [`AmplitudeSkeleton::set_insertion`] later.
    ///
    /// # Panics
    ///
    /// As [`amplitude_network_with`].
    pub fn new(
        circuit: &Circuit,
        psi: &ProductState,
        v: &ProductState,
        insertions: &[Insertion],
        conjugate: bool,
    ) -> Self {
        let (net, insertion_nodes) = amplitude_network_impl(circuit, psi, v, insertions, conjugate);
        AmplitudeSkeleton {
            net,
            insertion_nodes,
            conjugate,
        }
    }

    /// Replaces the matrix of insertion slot `i` (index into the
    /// `insertions` slice the skeleton was built with). The matrix is
    /// entry-wise conjugated first when the skeleton is the conjugate
    /// half, exactly as [`amplitude_network_with`] would.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `m` is not 2×2.
    pub fn set_insertion(&mut self, i: usize, m: &Matrix) {
        let m = if self.conjugate { m.conj() } else { m.clone() };
        self.set_insertion_tensor(i, Tensor::from_matrix(&m));
    }

    /// Replaces the payload of insertion slot `i` with a pre-built
    /// tensor, installed **verbatim** — unlike
    /// [`AmplitudeSkeleton::set_insertion`], no conjugation is applied
    /// even on the conjugate half. The hot-loop entry point for
    /// callers that resolve their payload tensors (including any
    /// conjugation) once and swap them per execution.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the tensor is not 2×2.
    pub fn set_insertion_tensor(&mut self, i: usize, t: Tensor) {
        self.net.set_tensor(self.insertion_nodes[i], t);
    }

    /// As [`AmplitudeSkeleton::set_insertion_tensor`], but copies the
    /// payload into the existing node buffer instead of replacing it —
    /// **zero heap allocations**, the per-pattern swap the pattern
    /// sum's hot loop uses. The tensor is installed verbatim (no
    /// conjugation, as with `set_insertion_tensor`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the shape is not the slot's.
    pub fn set_insertion_payload(&mut self, i: usize, t: &Tensor) {
        self.net.copy_tensor_from(self.insertion_nodes[i], t);
    }

    /// Number of substitution slots.
    pub fn insertion_count(&self) -> usize {
        self.insertion_nodes.len()
    }

    /// The network node index (= plan input-slot index) holding
    /// substitution slot `i` — what delta execution wants as the dirty
    /// leaf after a [`AmplitudeSkeleton::set_insertion_payload`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn insertion_slot(&self, i: usize) -> usize {
        self.insertion_nodes[i].0
    }

    /// The underlying network (current payloads included) — pass to
    /// [`ContractionPlan::execute_network`].
    pub fn network(&self) -> &TensorNetwork {
        &self.net
    }

    /// Plans the skeleton's contraction once; the plan stays valid for
    /// every later [`AmplitudeSkeleton::set_insertion`].
    pub fn plan(&self, strategy: OrderStrategy) -> ContractionPlan {
        self.net.plan(strategy)
    }
}

/// Builds the paper's double-size noisy network (Fig. 2) for
/// `⟨v|E_N(|ψ⟩⟨ψ|)|v⟩ = (⟨v|⊗⟨v*|)·M_{E_d}···M_{E_1}·(|ψ⟩⊗|ψ*⟩)`.
///
/// `replacements` maps a noise-event index (into
/// `noisy.events()`; initial events are keyed after them, at
/// `noisy.events().len() + offset`) to a Kronecker substitute
/// `(A, B)`: the event's `M_E` tensor is replaced by `A` on the upper
/// rail and `B` on the lower rail. With an empty map this is the exact
/// diagram contracted by the TN-based accurate method.
///
/// # Panics
///
/// Panics on state-size mismatches or replacement matrices that are
/// not 2×2.
pub fn double_network(
    noisy: &NoisyCircuit,
    psi: &ProductState,
    v: &ProductState,
    replacements: &BTreeMap<usize, (Matrix, Matrix)>,
) -> TensorNetwork {
    let circuit = noisy.circuit();
    let n = circuit.n_qubits();
    assert_eq!(psi.n_qubits(), n, "input state size mismatch");
    assert_eq!(v.n_qubits(), n, "test state size mismatch");
    for (a, b) in replacements.values() {
        assert_eq!((a.rows(), a.cols()), (2, 2), "replacement A must be 2×2");
        assert_eq!((b.rows(), b.cols()), (2, 2), "replacement B must be 2×2");
    }

    let mut net = TensorNetwork::new();
    let mut upper: Vec<LegId> = (0..n).map(|_| net.fresh_leg()).collect();
    let mut lower: Vec<LegId> = (0..n).map(|_| net.fresh_leg()).collect();

    // Input caps: |ψ⟩ on the upper half, |ψ*⟩ on the lower half.
    for q in 0..n {
        let f = psi.factor(q);
        net.add(Tensor::from_vec(vec![f[0], f[1]], vec![2]), vec![upper[q]]);
        net.add(
            Tensor::from_vec(vec![f[0].conj(), f[1].conj()], vec![2]),
            vec![lower[q]],
        );
    }

    // Initial noise events (before any gate).
    for (idx_off, e) in noisy.initial_events().iter().enumerate() {
        let key = noisy.events().len() + idx_off;
        add_noise_tensor(
            &mut net,
            &mut upper,
            &mut lower,
            e.qubit,
            &e.kraus,
            replacements.get(&key),
        );
    }

    let events = noisy.events();
    let mut ev_iter = events.iter().enumerate().peekable();
    for (g, op) in circuit.operations().iter().enumerate() {
        let m = op.gate.matrix();
        match op.qubits.len() {
            1 => {
                let q = op.qubits[0];
                let nu = net.fresh_leg();
                net.add(Tensor::from_matrix(&m), vec![nu, upper[q]]);
                upper[q] = nu;
                let nl = net.fresh_leg();
                net.add(Tensor::from_matrix(&m.conj()), vec![nl, lower[q]]);
                lower[q] = nl;
            }
            2 => {
                let (q0, q1) = (op.qubits[0], op.qubits[1]);
                let (u0, u1) = (net.fresh_leg(), net.fresh_leg());
                net.add(
                    Tensor::from_matrix(&m).into_reshaped(vec![2, 2, 2, 2]),
                    vec![u0, u1, upper[q0], upper[q1]],
                );
                upper[q0] = u0;
                upper[q1] = u1;
                let (l0, l1) = (net.fresh_leg(), net.fresh_leg());
                net.add(
                    Tensor::from_matrix(&m.conj()).into_reshaped(vec![2, 2, 2, 2]),
                    vec![l0, l1, lower[q0], lower[q1]],
                );
                lower[q0] = l0;
                lower[q1] = l1;
            }
            _ => unreachable!("gates are 1- or 2-qubit"),
        }
        while let Some((idx, e)) = ev_iter.peek() {
            if e.after_gate != g {
                break;
            }
            add_noise_tensor(
                &mut net,
                &mut upper,
                &mut lower,
                e.qubit,
                &e.kraus,
                replacements.get(idx),
            );
            ev_iter.next();
        }
    }

    // Output caps: ⟨v| upper, ⟨v*| lower.
    for q in 0..n {
        let f = v.factor(q);
        net.add(
            Tensor::from_vec(vec![f[0].conj(), f[1].conj()], vec![2]),
            vec![upper[q]],
        );
        net.add(Tensor::from_vec(vec![f[0], f[1]], vec![2]), vec![lower[q]]);
    }
    net
}

/// Adds a noise superoperator tensor (or its Kronecker replacement)
/// bridging the upper and lower rails of qubit `q`.
fn add_noise_tensor(
    net: &mut TensorNetwork,
    upper: &mut [LegId],
    lower: &mut [LegId],
    q: usize,
    kraus: &qns_noise::Kraus,
    replacement: Option<&(Matrix, Matrix)>,
) {
    match replacement {
        Some((a, b)) => {
            let nu = net.fresh_leg();
            net.add(Tensor::from_matrix(a), vec![nu, upper[q]]);
            upper[q] = nu;
            let nl = net.fresh_leg();
            net.add(Tensor::from_matrix(b), vec![nl, lower[q]]);
            lower[q] = nl;
        }
        None => {
            // M_E is 4×4 with row (i1,i2), col (j1,j2): reshape to
            // [i1, i2, j1, j2] = [upper out, lower out, upper in, lower in].
            let m = kraus.superoperator();
            let t = Tensor::from_matrix(&m).into_reshaped(vec![2, 2, 2, 2]);
            let nu = net.fresh_leg();
            let nl = net.fresh_leg();
            net.add(t, vec![nu, nl, upper[q], lower[q]]);
            upper[q] = nu;
            lower[q] = nl;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::OrderStrategy;
    use qns_circuit::generators::ghz;
    use qns_circuit::Circuit;
    use qns_linalg::cr;

    #[test]
    fn product_state_expansion() {
        let s = ProductState::basis(3, 0b101);
        let v = s.to_statevector();
        assert_eq!(v.len(), 8);
        assert_eq!(v[0b101], Complex64::ONE);
        assert_eq!(v.iter().filter(|z| **z != Complex64::ZERO).count(), 1);
    }

    #[test]
    fn all_plus_has_uniform_amplitudes() {
        let v = ProductState::all_plus(2).to_statevector();
        for z in v {
            assert!((z.re - 0.5).abs() < 1e-12 && z.im.abs() < 1e-14);
        }
    }

    #[test]
    fn amplitude_network_matches_statevector() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(2).cz(1, 2).ry(0, 0.4);
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0b011);
        let net = amplitude_network(&c, &psi, &v);
        let (t, _) = net.contract_all(OrderStrategy::Greedy);
        let amp = t.scalar_value();

        let sv = c.unitary().matvec(&psi.to_statevector());
        let expect = qns_linalg::inner_product(&v.to_statevector(), &sv);
        assert!(amp.approx_eq(expect, 1e-12), "{amp} vs {expect}");
    }

    #[test]
    fn conjugated_network_gives_conjugate_amplitude() {
        let mut c = Circuit::new(2);
        c.h(0).t(0).cx(0, 1).rz(1, 0.3);
        let psi = ProductState::all_zeros(2);
        let v = ProductState::basis(2, 0b10);
        let plain = amplitude_network_with(&c, &psi, &v, &[], false)
            .contract_all(OrderStrategy::Greedy)
            .0
            .scalar_value();
        let conj = amplitude_network_with(&c, &psi, &v, &[], true)
            .contract_all(OrderStrategy::Greedy)
            .0
            .scalar_value();
        assert!(conj.approx_eq(plain.conj(), 1e-12));
    }

    #[test]
    fn insertion_changes_amplitude_like_gate() {
        // Inserting X after gate 0 equals adding an X gate there.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let psi = ProductState::all_zeros(2);
        let v = ProductState::basis(2, 0b01);
        let ins = Insertion {
            after_gate: 0,
            qubit: 0,
            matrix: qns_circuit::Gate::X.matrix(),
        };
        let with_ins = amplitude_network_with(&c, &psi, &v, &[ins], false)
            .contract_all(OrderStrategy::Greedy)
            .0
            .scalar_value();

        let mut c2 = Circuit::new(2);
        c2.h(0).x(0).cx(0, 1);
        let direct = amplitude_network(&c2, &psi, &v)
            .contract_all(OrderStrategy::Greedy)
            .0
            .scalar_value();
        assert!(with_ins.approx_eq(direct, 1e-12));
    }

    #[test]
    fn amplitude_skeleton_matches_rebuilt_networks() {
        // Swapping insertion payloads into one skeleton must reproduce
        // a freshly built network per payload, on both halves.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).t(1);
        let psi = ProductState::all_zeros(2);
        let v = ProductState::basis(2, 0b01);
        let points = [
            Insertion {
                after_gate: usize::MAX,
                qubit: 1,
                matrix: Matrix::identity(2),
            },
            Insertion {
                after_gate: 1,
                qubit: 0,
                matrix: Matrix::identity(2),
            },
        ];
        for conjugate in [false, true] {
            let mut skel = AmplitudeSkeleton::new(&c, &psi, &v, &points, conjugate);
            assert_eq!(skel.insertion_count(), 2);
            let plan = skel.plan(OrderStrategy::Greedy);
            for (m0, m1) in [
                (qns_circuit::Gate::X.matrix(), qns_circuit::Gate::T.matrix()),
                (qns_circuit::Gate::H.matrix(), qns_circuit::Gate::S.matrix()),
            ] {
                skel.set_insertion(0, &m0);
                skel.set_insertion(1, &m1);
                let replayed = plan.execute_network(skel.network()).0.scalar_value();
                let mut fresh_ins = points.to_vec();
                fresh_ins[0].matrix = m0.clone();
                fresh_ins[1].matrix = m1.clone();
                let fresh = amplitude_network_with(&c, &psi, &v, &fresh_ins, conjugate)
                    .contract_all(OrderStrategy::Greedy)
                    .0
                    .scalar_value();
                assert!(
                    replayed.approx_eq(fresh, 1e-12),
                    "conjugate={conjugate}: {replayed} vs {fresh}"
                );
            }
        }
    }

    #[test]
    fn double_network_noiseless_equals_probability() {
        let c = ghz(3);
        let noisy = NoisyCircuit::noiseless(c.clone());
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0b111);
        let net = double_network(&noisy, &psi, &v, &BTreeMap::new());
        let (t, _) = net.contract_all(OrderStrategy::Greedy);
        let val = t.scalar_value();
        // |⟨111|GHZ⟩|² = 1/2; the double network gives the probability.
        assert!(val.approx_eq(cr(0.5), 1e-12), "{val}");
    }

    #[test]
    fn double_network_matches_density_sim_with_noise() {
        use qns_noise::channels;
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::amplitude_damping(0.2), 3, 5);
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0b111);
        let net = double_network(&noisy, &psi, &v, &BTreeMap::new());
        let (t, _) = net.contract_all(OrderStrategy::Greedy);
        let tn_val = t.scalar_value().re;

        let exact = qns_sim_density_expectation(&noisy, &psi, &v);
        assert!((tn_val - exact).abs() < 1e-10, "{tn_val} vs {exact}");
    }

    #[test]
    fn replacement_with_identity_pair_matches_noiseless() {
        use qns_noise::channels;
        // Replace the only noise by I⊗I: the result must equal the
        // noiseless probability.
        let c = ghz(3);
        let noisy = NoisyCircuit::new(
            c.clone(),
            vec![qns_noise::NoiseEvent {
                after_gate: 1,
                qubit: 1,
                kraus: channels::depolarizing(0.3),
            }],
        );
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0b000);
        let mut repl = BTreeMap::new();
        repl.insert(0usize, (Matrix::identity(2), Matrix::identity(2)));
        let val = double_network(&noisy, &psi, &v, &repl)
            .contract_all(OrderStrategy::Greedy)
            .0
            .scalar_value()
            .re;
        let clean = double_network(&NoisyCircuit::noiseless(c), &psi, &v, &BTreeMap::new())
            .contract_all(OrderStrategy::Greedy)
            .0
            .scalar_value()
            .re;
        assert!((val - clean).abs() < 1e-12);
    }

    /// Dense density-matrix reference, local to these tests (avoids a
    /// dev-dependency cycle with `qns-sim`).
    fn qns_sim_density_expectation(
        noisy: &NoisyCircuit,
        psi: &ProductState,
        v: &ProductState,
    ) -> f64 {
        let n = noisy.n_qubits();
        let psi_v = psi.to_statevector();
        let dim = 1usize << n;
        let mut rho = Matrix::zeros(dim, dim);
        for r in 0..dim {
            for c2 in 0..dim {
                rho[(r, c2)] = psi_v[r] * psi_v[c2].conj();
            }
        }
        for el in noisy.elements() {
            match el {
                qns_noise::Element::Gate(op) => {
                    let g = expand(noisy.circuit(), op);
                    rho = g.matmul(&rho).matmul(&g.adjoint());
                }
                qns_noise::Element::Noise(e) => {
                    let mut acc = Matrix::zeros(dim, dim);
                    for k in e.kraus.operators() {
                        let full = expand_single(n, e.qubit, k);
                        acc = &acc + &full.matmul(&rho).matmul(&full.adjoint());
                    }
                    rho = acc;
                }
            }
        }
        let vv = v.to_statevector();
        let mut out = Complex64::ZERO;
        for r in 0..dim {
            for c2 in 0..dim {
                out += vv[r].conj() * rho[(r, c2)] * vv[c2];
            }
        }
        out.re
    }

    fn expand(circuit: &Circuit, op: &qns_circuit::Operation) -> Matrix {
        let mut c = Circuit::new(circuit.n_qubits());
        c.push(op.clone());
        c.unitary()
    }

    fn expand_single(n: usize, q: usize, m: &Matrix) -> Matrix {
        let mut full = Matrix::identity(1);
        for i in 0..n {
            let f = if i == q {
                m.clone()
            } else {
                Matrix::identity(2)
            };
            full = full.kron(&f);
        }
        full
    }
}
