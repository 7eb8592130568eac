//! The decision-diagram manager: hash-consed nodes, normalized edges,
//! memoized addition and multiplication.
//!
//! Every diagram is rooted at variable 0 (qubit 0) and descends one
//! level per qubit with **no level skipping**, so two edges combined by
//! an operation always sit at the same variable. A node's four child
//! edges are indexed `r·2 + c` by the row bit `r` and column bit `c`
//! of its qubit; column vectors use only `c = 0`, row vectors only
//! `r = 0`.
//!
//! Canonicity: a node's children are divided by the first child weight
//! of maximum magnitude, which becomes the incoming edge weight; nodes
//! are deduplicated in a unique table keyed on rounded weights.

use qns_circuit::Operation;
use qns_linalg::{Complex64, Matrix};
use std::collections::HashMap;

/// Reference to a node in the manager's arena; `TERMINAL` is the
/// weight-1 scalar leaf.
type NodeRef = u32;
const TERMINAL: NodeRef = u32::MAX;

/// Weights below this magnitude are treated as exact zeros.
const ZERO_TOL: f64 = 1e-14;

/// Rounding grid for hashing edge weights (identity-level fineness).
const HASH_GRID: f64 = 1e10;

/// A weighted edge into the diagram.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    /// Multiplicative weight carried by the edge.
    pub w: Complex64,
    node: NodeRef,
}

impl Edge {
    /// The canonical zero edge.
    pub fn zero() -> Edge {
        Edge {
            w: Complex64::ZERO,
            node: TERMINAL,
        }
    }

    /// `true` when this edge denotes the zero function.
    pub fn is_zero(&self) -> bool {
        self.w.abs() <= ZERO_TOL
    }

    fn is_terminal(&self) -> bool {
        self.node == TERMINAL
    }

    fn scaled(self, s: Complex64) -> Edge {
        let w = self.w * s;
        if w.abs() <= ZERO_TOL {
            Edge::zero()
        } else {
            Edge { w, node: self.node }
        }
    }
}

#[derive(Clone, Debug)]
struct Node {
    var: u16,
    children: [Edge; 4],
}

type NodeKey = (u16, [(i64, i64, NodeRef); 4]);

fn weight_key(w: Complex64) -> (i64, i64) {
    (
        (w.re * HASH_GRID).round() as i64,
        (w.im * HASH_GRID).round() as i64,
    )
}

fn edge_key(e: &Edge) -> (i64, i64, NodeRef) {
    let (re, im) = weight_key(e.w);
    (re, im, e.node)
}

/// The decision-diagram manager for a fixed qubit count.
///
/// All diagrams produced by one manager share its arena, unique table
/// and operation caches. See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct DdManager {
    n: usize,
    nodes: Vec<Node>,
    unique: HashMap<NodeKey, NodeRef>,
    add_cache: HashMap<(NodeRef, NodeRef, (i64, i64)), Edge>,
    mul_cache: HashMap<(NodeRef, NodeRef), Edge>,
    identity_cache: Vec<Option<Edge>>,
}

impl DdManager {
    /// Creates a manager for `n_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is 0 or above `u16::MAX` levels.
    pub fn new(n_qubits: usize) -> Self {
        assert!(n_qubits > 0, "need at least one qubit");
        assert!(n_qubits < u16::MAX as usize, "too many qubits");
        DdManager {
            n: n_qubits,
            nodes: Vec::new(),
            unique: HashMap::new(),
            add_cache: HashMap::new(),
            mul_cache: HashMap::new(),
            identity_cache: vec![None; n_qubits + 1],
        }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// Number of distinct nodes reachable from `e`.
    pub fn node_count(&self, e: Edge) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![e.node];
        while let Some(r) = stack.pop() {
            if r == TERMINAL || !seen.insert(r) {
                continue;
            }
            for c in &self.nodes[r as usize].children {
                stack.push(c.node);
            }
        }
        seen.len()
    }

    /// Creates (or reuses) a node with the given children, returning a
    /// normalized edge.
    fn make_node(&mut self, var: u16, children: [Edge; 4]) -> Edge {
        // Canonical zero.
        if children.iter().all(Edge::is_zero) {
            return Edge::zero();
        }
        // Normalize by the first child of maximal magnitude.
        let mut top = 0usize;
        let mut best = -1.0f64;
        for (i, c) in children.iter().enumerate() {
            let a = c.w.abs();
            if a > best + ZERO_TOL {
                best = a;
                top = i;
            }
        }
        let scale = children[top].w;
        let inv = scale.recip();
        let mut norm = [Edge::zero(); 4];
        for (i, c) in children.iter().enumerate() {
            if !c.is_zero() {
                norm[i] = Edge {
                    w: c.w * inv,
                    node: c.node,
                };
            }
        }
        let key: NodeKey = (
            var,
            [
                edge_key(&norm[0]),
                edge_key(&norm[1]),
                edge_key(&norm[2]),
                edge_key(&norm[3]),
            ],
        );
        let node = match self.unique.get(&key) {
            Some(&r) => r,
            None => {
                let r = self.nodes.len() as NodeRef;
                self.nodes.push(Node {
                    var,
                    children: norm,
                });
                self.unique.insert(key, r);
                r
            }
        };
        Edge { w: scale, node }
    }

    /// The identity diagram from level `var` down.
    fn identity_from(&mut self, var: usize) -> Edge {
        if let Some(e) = self.identity_cache[var] {
            return e;
        }
        let e = if var == self.n {
            Edge {
                w: Complex64::ONE,
                node: TERMINAL,
            }
        } else {
            let below = self.identity_from(var + 1);
            self.make_node(var as u16, [below, Edge::zero(), Edge::zero(), below])
        };
        self.identity_cache[var] = Some(e);
        e
    }

    /// The identity matrix diagram on all qubits.
    pub fn identity(&mut self) -> Edge {
        self.identity_from(0)
    }

    /// Diagram of a single-qubit matrix `m` acting on `qubit`
    /// (identity elsewhere). Works for non-unitary matrices (Kraus
    /// operators).
    ///
    /// # Panics
    ///
    /// Panics if `m` is not 2×2 or the qubit is out of range.
    pub fn single_qubit_matrix(&mut self, qubit: usize, m: &Matrix) -> Edge {
        assert_eq!((m.rows(), m.cols()), (2, 2), "expected a 2×2 matrix");
        assert!(qubit < self.n, "qubit out of range");
        self.build_single(0, qubit, m)
    }

    fn build_single(&mut self, var: usize, qubit: usize, m: &Matrix) -> Edge {
        if var == qubit {
            let below = self.identity_from(var + 1);
            let ch = [
                below.scaled(m[(0, 0)]),
                below.scaled(m[(0, 1)]),
                below.scaled(m[(1, 0)]),
                below.scaled(m[(1, 1)]),
            ];
            return self.make_node(var as u16, ch);
        }
        let sub = self.build_single(var + 1, qubit, m);
        self.make_node(var as u16, [sub, Edge::zero(), Edge::zero(), sub])
    }

    /// Diagram of a two-qubit matrix on `(q0, q1)` (`q0` is the more
    /// significant bit of `m`'s basis).
    ///
    /// # Panics
    ///
    /// Panics if `m` is not 4×4, qubits coincide or are out of range.
    pub fn two_qubit_matrix(&mut self, q0: usize, q1: usize, m: &Matrix) -> Edge {
        assert_eq!((m.rows(), m.cols()), (4, 4), "expected a 4×4 matrix");
        assert!(q0 < self.n && q1 < self.n && q0 != q1, "bad qubits");
        // Decompose m into four 2×2 blocks indexed by the (row, col)
        // bits of the *earlier* qubit level, taking bit order into
        // account.
        let (first, second, first_is_q0) = if q0 < q1 {
            (q0, q1, true)
        } else {
            (q1, q0, false)
        };
        let mut blocks: Vec<Matrix> = Vec::with_capacity(16);
        // blocks[(rf*2+cf)] = 2×2 matrix over the second qubit.
        for rf in 0..2 {
            for cf in 0..2 {
                let mut b = Matrix::zeros(2, 2);
                for rs in 0..2 {
                    for cs in 0..2 {
                        let (r, c) = if first_is_q0 {
                            (rf * 2 + rs, cf * 2 + cs)
                        } else {
                            (rs * 2 + rf, cs * 2 + cf)
                        };
                        b[(rs, cs)] = m[(r, c)];
                    }
                }
                blocks.push(b);
            }
        }
        self.build_double(0, first, second, &blocks)
    }

    fn build_double(&mut self, var: usize, first: usize, second: usize, blocks: &[Matrix]) -> Edge {
        if var == first {
            let mut ch = [Edge::zero(); 4];
            for (i, item) in ch.iter_mut().enumerate() {
                *item = self.build_double_tail(var + 1, second, &blocks[i]);
            }
            return self.make_node(var as u16, ch);
        }
        let sub = self.build_double(var + 1, first, second, blocks);
        self.make_node(var as u16, [sub, Edge::zero(), Edge::zero(), sub])
    }

    fn build_double_tail(&mut self, var: usize, second: usize, block: &Matrix) -> Edge {
        if block.max_abs() <= ZERO_TOL {
            return Edge::zero();
        }
        if var == second {
            let below = self.identity_from(var + 1);
            let ch = [
                below.scaled(block[(0, 0)]),
                below.scaled(block[(0, 1)]),
                below.scaled(block[(1, 0)]),
                below.scaled(block[(1, 1)]),
            ];
            return self.make_node(var as u16, ch);
        }
        let sub = self.build_double_tail(var + 1, second, block);
        self.make_node(var as u16, [sub, Edge::zero(), Edge::zero(), sub])
    }

    /// Diagram of a circuit operation.
    pub fn gate(&mut self, op: &Operation) -> Edge {
        let m = op.gate.matrix();
        match op.qubits.len() {
            1 => self.single_qubit_matrix(op.qubits[0], &m),
            2 => self.two_qubit_matrix(op.qubits[0], op.qubits[1], &m),
            _ => unreachable!("gates are 1- or 2-qubit"),
        }
    }

    /// Column-vector diagram of the basis state `|bits⟩` (qubit 0 is
    /// the most significant bit; qubits beyond the word size read 0).
    ///
    /// # Panics
    ///
    /// Panics if `bits ≥ 2^n`.
    pub fn basis_vector(&mut self, bits: usize) -> Edge {
        assert!(shr(bits, self.n) == 0, "bit pattern out of range");
        let factors: Vec<[Complex64; 2]> = (0..self.n)
            .map(|q| {
                if shr(bits, self.n - 1 - q) & 1 == 1 {
                    [Complex64::ZERO, Complex64::ONE]
                } else {
                    [Complex64::ONE, Complex64::ZERO]
                }
            })
            .collect();
        self.product_vector(&factors)
    }

    /// Column-vector diagram of a product state.
    ///
    /// # Panics
    ///
    /// Panics if `factors.len() != n`.
    pub fn product_vector(&mut self, factors: &[[Complex64; 2]]) -> Edge {
        assert_eq!(factors.len(), self.n, "one factor per qubit");
        let mut e = Edge {
            w: Complex64::ONE,
            node: TERMINAL,
        };
        for (var, f) in factors.iter().enumerate().rev() {
            let ch = [e.scaled(f[0]), Edge::zero(), e.scaled(f[1]), Edge::zero()];
            e = self.make_node(var as u16, ch);
        }
        e
    }

    /// Row-vector (bra) diagram: the conjugate transpose of a product
    /// column vector.
    ///
    /// # Panics
    ///
    /// Panics if `factors.len() != n`.
    pub fn product_covector(&mut self, factors: &[[Complex64; 2]]) -> Edge {
        assert_eq!(factors.len(), self.n, "one factor per qubit");
        let mut e = Edge {
            w: Complex64::ONE,
            node: TERMINAL,
        };
        for (var, f) in factors.iter().enumerate().rev() {
            let ch = [
                e.scaled(f[0].conj()),
                e.scaled(f[1].conj()),
                Edge::zero(),
                Edge::zero(),
            ];
            e = self.make_node(var as u16, ch);
        }
        e
    }

    /// Diagram addition `a + b`.
    ///
    /// # Panics
    ///
    /// Panics if the operands are rooted at different levels.
    pub fn add(&mut self, a: Edge, b: Edge) -> Edge {
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        if a.node == b.node {
            let w = a.w + b.w;
            return if w.abs() <= ZERO_TOL {
                Edge::zero()
            } else {
                Edge { w, node: a.node }
            };
        }
        if a.is_terminal() && b.is_terminal() {
            let w = a.w + b.w;
            return if w.abs() <= ZERO_TOL {
                Edge::zero()
            } else {
                Edge { w, node: TERMINAL }
            };
        }
        assert!(
            !a.is_terminal() && !b.is_terminal(),
            "add operands at different levels"
        );
        // Order operands canonically and factor out a.w:
        // a + b = a.w · (A + (b.w/a.w)·B).
        let (a, b) = if (a.node, edge_key(&a).0) <= (b.node, edge_key(&b).0) {
            (a, b)
        } else {
            (b, a)
        };
        let ratio = b.w / a.w;
        let key = (a.node, b.node, weight_key(ratio));
        if let Some(&hit) = self.add_cache.get(&key) {
            return hit.scaled(a.w);
        }
        let na = self.nodes[a.node as usize].clone();
        let nb = self.nodes[b.node as usize].clone();
        assert_eq!(na.var, nb.var, "add operands at different levels");
        let mut ch = [Edge::zero(); 4];
        for i in 0..4 {
            let ai = na.children[i];
            let bi = nb.children[i].scaled(ratio);
            ch[i] = self.add(ai, bi);
        }
        let norm = self.make_node(na.var, ch);
        self.add_cache.insert(key, norm);
        norm.scaled(a.w)
    }

    /// Diagram multiplication `a · b` (matrix product; matrix–vector
    /// when `b` is a column vector, scalar when the shapes collapse).
    ///
    /// # Panics
    ///
    /// Panics if the operands are rooted at different levels.
    pub fn mul(&mut self, a: Edge, b: Edge) -> Edge {
        if a.is_zero() || b.is_zero() {
            return Edge::zero();
        }
        let scale = a.w * b.w;
        let m = self.mul_norm(a.node, b.node);
        m.scaled(scale)
    }

    /// Multiplication of weight-1 node functions (cacheable on node
    /// ids alone).
    fn mul_norm(&mut self, an: NodeRef, bn: NodeRef) -> Edge {
        if an == TERMINAL && bn == TERMINAL {
            return Edge {
                w: Complex64::ONE,
                node: TERMINAL,
            };
        }
        assert!(
            an != TERMINAL && bn != TERMINAL,
            "mul operands at different levels"
        );
        if let Some(&hit) = self.mul_cache.get(&(an, bn)) {
            return hit;
        }
        let na = self.nodes[an as usize].clone();
        let nb = self.nodes[bn as usize].clone();
        assert_eq!(na.var, nb.var, "mul operands at different levels");
        let mut ch = [Edge::zero(); 4];
        for r in 0..2 {
            for c in 0..2 {
                let mut acc = Edge::zero();
                for k in 0..2 {
                    let ae = na.children[r * 2 + k];
                    let be = nb.children[k * 2 + c];
                    if ae.is_zero() || be.is_zero() {
                        continue;
                    }
                    let prod = self.mul(ae, be);
                    acc = self.add(acc, prod);
                }
                ch[r * 2 + c] = acc;
            }
        }
        let result = self.make_node(na.var, ch);
        self.mul_cache.insert((an, bn), result);
        result
    }

    /// Amplitude `⟨bits|ψ⟩` of a column-vector diagram (qubit 0 is the
    /// most significant bit; qubits beyond the word size read 0).
    ///
    /// # Panics
    ///
    /// Panics if `bits ≥ 2^n`.
    pub fn vector_amplitude(&self, e: Edge, bits: usize) -> Complex64 {
        assert!(shr(bits, self.n) == 0, "bit pattern out of range");
        let mut amp = e.w;
        let mut node = e.node;
        let mut var = 0usize;
        while node != TERMINAL {
            let b = shr(bits, self.n - 1 - var) & 1;
            let child = self.nodes[node as usize].children[b * 2];
            amp *= child.w;
            if amp.abs() <= ZERO_TOL {
                return Complex64::ZERO;
            }
            node = child.node;
            var += 1;
        }
        amp
    }

    /// Collapses a fully-scalar diagram (1×1 at every level) to its
    /// value — the result of `bra · matrix · ket` products.
    pub fn scalar_value(&self, e: Edge) -> Complex64 {
        let mut acc = e.w;
        let mut node = e.node;
        while node != TERMINAL {
            let child = self.nodes[node as usize].children[0];
            acc *= child.w;
            if acc.abs() <= ZERO_TOL {
                return Complex64::ZERO;
            }
            node = child.node;
        }
        acc
    }

    /// Dense expansion (testing; `O(4^n)`).
    ///
    /// # Panics
    ///
    /// Panics if `n > 10`.
    pub fn to_matrix(&self, e: Edge) -> Matrix {
        assert!(self.n <= 10, "dense expansion too large");
        let dim = 1usize << self.n;
        let mut out = Matrix::zeros(dim, dim);
        self.expand(e, 0, 0, 0, &mut out);
        out
    }

    fn expand(&self, e: Edge, var: usize, row: usize, col: usize, out: &mut Matrix) {
        if e.is_zero() {
            return;
        }
        if var == self.n {
            out[(row, col)] += e.w;
            return;
        }
        let node = &self.nodes[e.node as usize];
        for r in 0..2 {
            for c in 0..2 {
                let child = node.children[r * 2 + c];
                if child.is_zero() {
                    continue;
                }
                self.expand(
                    Edge {
                        w: e.w * child.w,
                        node: child.node,
                    },
                    var + 1,
                    row | (r << (self.n - 1 - var)),
                    col | (c << (self.n - 1 - var)),
                    out,
                );
            }
        }
    }
}

/// `bits >> shift` for any shift: a bit beyond `usize::BITS` is 0, so
/// basis patterns address the last `usize::BITS` qubits of any width.
fn shr(bits: usize, shift: usize) -> usize {
    u32::try_from(shift)
        .ok()
        .and_then(|s| bits.checked_shr(s))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_circuit::{Circuit, Gate, Operation};
    use qns_linalg::cr;

    #[test]
    fn basis_vectors_read_bits_from_the_last_qubit_for_any_width() {
        let (zero, one) = (
            [Complex64::ONE, Complex64::ZERO],
            [Complex64::ZERO, Complex64::ONE],
        );
        for n in [63usize, 64, 65, 225] {
            let patterns = [0, 1, 0b10_0001, (1 << 62) | (1 << 5) | 1, 1 << 62];
            let patterns: Vec<usize> = patterns
                .into_iter()
                .chain((n >= 64).then_some(usize::MAX))
                .collect();
            let mut man = DdManager::new(n);
            for &bits in &patterns {
                // Qubit n − 1 − k carries bit k; qubits below n − 64 none.
                let factors: Vec<[Complex64; 2]> = (0..n)
                    .map(|q| {
                        let k = n - 1 - q;
                        if k < 64 && (bits >> k) & 1 == 1 {
                            one
                        } else {
                            zero
                        }
                    })
                    .collect();
                let dd = man.basis_vector(bits);
                assert_eq!(dd, man.product_vector(&factors), "n {n}, bits {bits:#x}");
                for &read in &patterns {
                    let amp = man.vector_amplitude(dd, read);
                    let want = if read == bits {
                        Complex64::ONE
                    } else {
                        Complex64::ZERO
                    };
                    assert_eq!(amp, want, "n {n}, bits {bits:#x}, read {read:#x}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bit pattern out of range")]
    fn basis_vector_rejects_bits_beyond_the_width() {
        let _ = DdManager::new(63).basis_vector(1 << 63);
    }

    #[test]
    fn identity_diagram_is_identity_matrix() {
        let mut man = DdManager::new(3);
        let id = man.identity();
        assert!(man.to_matrix(id).approx_eq(&Matrix::identity(8), 1e-12));
        // Identity shares one node per level.
        assert_eq!(man.node_count(id), 3);
    }

    #[test]
    fn gate_diagram_matches_expanded_unitary() {
        let ops = [
            Operation::new(Gate::H, vec![1]),
            Operation::new(Gate::T, vec![0]),
            Operation::new(Gate::CX, vec![0, 2]),
            Operation::new(Gate::CX, vec![2, 0]),
            Operation::new(Gate::CZ, vec![1, 2]),
            Operation::new(Gate::FSim(0.3, 0.4), vec![2, 1]),
        ];
        for op in ops {
            let mut man = DdManager::new(3);
            let dd = man.gate(&op);
            let mut c = Circuit::new(3);
            c.push(op.clone());
            assert!(
                man.to_matrix(dd).approx_eq(&c.unitary(), 1e-12),
                "mismatch for {op}"
            );
        }
    }

    #[test]
    fn mul_equals_matrix_product() {
        let mut man = DdManager::new(2);
        let h = man.gate(&Operation::new(Gate::H, vec![0]));
        let cx = man.gate(&Operation::new(Gate::CX, vec![0, 1]));
        let prod = man.mul(cx, h);
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        assert!(man.to_matrix(prod).approx_eq(&c.unitary(), 1e-12));
    }

    #[test]
    fn add_equals_matrix_sum() {
        let mut man = DdManager::new(2);
        let x = man.gate(&Operation::new(Gate::X, vec![0]));
        let z = man.gate(&Operation::new(Gate::Z, vec![1]));
        let sum = man.add(x, z);
        let mut cx_m = Circuit::new(2);
        cx_m.x(0);
        let mut cz_m = Circuit::new(2);
        cz_m.z(1);
        let expect = &cx_m.unitary() + &cz_m.unitary();
        assert!(man.to_matrix(sum).approx_eq(&expect, 1e-12));
    }

    #[test]
    fn add_is_commutative_and_cancels() {
        let mut man = DdManager::new(2);
        let x = man.gate(&Operation::new(Gate::X, vec![0]));
        let z = man.gate(&Operation::new(Gate::Z, vec![1]));
        let ab = man.add(x, z);
        let ba = man.add(z, x);
        assert!(man.to_matrix(ab).approx_eq(&man.to_matrix(ba), 1e-12));
        // x + (−1)·x = 0
        let neg = x.scaled(cr(-1.0));
        let zero = man.add(x, neg);
        assert!(zero.is_zero());
    }

    #[test]
    fn ghz_state_amplitudes() {
        let mut man = DdManager::new(3);
        let mut state = man.basis_vector(0);
        for op in qns_circuit::generators::ghz(3).operations() {
            let g = man.gate(op);
            state = man.mul(g, state);
        }
        let inv = std::f64::consts::FRAC_1_SQRT_2;
        assert!((man.vector_amplitude(state, 0b000).abs() - inv).abs() < 1e-12);
        assert!((man.vector_amplitude(state, 0b111).abs() - inv).abs() < 1e-12);
        assert!(man.vector_amplitude(state, 0b010).abs() < 1e-12);
    }

    #[test]
    fn ghz_diagram_stays_small() {
        // The GHZ diagram is the classic DD success story: linear size.
        let n = 10;
        let mut man = DdManager::new(n);
        let mut state = man.basis_vector(0);
        for op in qns_circuit::generators::ghz(n).operations() {
            let g = man.gate(op);
            state = man.mul(g, state);
        }
        assert!(
            man.node_count(state) <= 2 * n,
            "GHZ DD should be linear, got {} nodes",
            man.node_count(state)
        );
    }

    #[test]
    fn unique_table_shares_nodes() {
        let mut man = DdManager::new(4);
        let a = man.gate(&Operation::new(Gate::H, vec![2]));
        let b = man.gate(&Operation::new(Gate::H, vec![2]));
        assert_eq!(a, b, "identical diagrams must be the same edge");
    }

    #[test]
    fn product_vector_matches_kron() {
        let mut man = DdManager::new(2);
        let f = [[cr(0.6), cr(0.8)], [Complex64::I * 0.5, cr(-0.5)]];
        let dd = man.product_vector(&f);
        let dense = qns_linalg::kron_vec(&f[0], &f[1]);
        for (bits, expect) in dense.iter().enumerate() {
            assert!(man.vector_amplitude(dd, bits).approx_eq(*expect, 1e-12));
        }
    }

    #[test]
    fn bra_ket_gives_inner_product() {
        let mut man = DdManager::new(2);
        let zero = [[Complex64::ONE, Complex64::ZERO]; 2];
        let plus = {
            let inv = cr(std::f64::consts::FRAC_1_SQRT_2);
            [[inv, inv], [inv, inv]]
        };
        let ket = man.product_vector(&plus);
        let bra = man.product_covector(&zero);
        let scalar = man.mul(bra, ket);
        // ⟨00|++⟩ = 1/2
        assert!(man.scalar_value(scalar).approx_eq(cr(0.5), 1e-12));
    }

    #[test]
    fn outer_product_is_density_matrix() {
        let mut man = DdManager::new(2);
        let f = [[cr(1.0), Complex64::ZERO], [cr(0.6), cr(0.8)]];
        let ket = man.product_vector(&f);
        let bra = man.product_covector(&f);
        let rho = man.mul(ket, bra);
        let m = man.to_matrix(rho);
        assert!((m.trace().re - 1.0).abs() < 1e-12);
        assert!(m.is_hermitian(1e-12));
        // rank-1 projector: ρ² = ρ.
        assert!(m.matmul(&m).approx_eq(&m, 1e-12));
    }

    #[test]
    fn non_unitary_kraus_diagram() {
        let mut man = DdManager::new(2);
        let e1 = Matrix::from_rows(&[vec![cr(0.0), cr(0.5)], vec![cr(0.0), cr(0.0)]]);
        let dd = man.single_qubit_matrix(1, &e1);
        let expect = Matrix::identity(2).kron(&e1);
        assert!(man.to_matrix(dd).approx_eq(&expect, 1e-12));
    }

    #[test]
    fn scaled_edge_scales_matrix() {
        let mut man = DdManager::new(2);
        let x = man.gate(&Operation::new(Gate::X, vec![0]));
        let sx = x.scaled(Complex64::I);
        let expect = man.to_matrix(x).scale(Complex64::I);
        assert!(man.to_matrix(sx).approx_eq(&expect, 1e-12));
    }
}
