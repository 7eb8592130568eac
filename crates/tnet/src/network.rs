//! Tensor network graphs and contraction.
//!
//! Nodes hold dense [`Tensor`]s whose axes carry *leg identifiers*. A
//! leg shared by exactly two nodes is a contracted bond; a leg owned by
//! one node is an open output. [`TensorNetwork::contract_all`] reduces
//! the network to a single tensor using either a greedy pairwise
//! ordering (minimize the size of the produced intermediate) or the
//! naive sequential order — the ablation pair called out in DESIGN.md.
//!
//! The order search depends only on the network's *skeleton* (shapes
//! and legs), so it can be captured once as a
//! [`crate::plan::ContractionPlan`] via [`TensorNetwork::plan`] and
//! replayed against fresh payloads ([`TensorNetwork::set_tensor`]) —
//! the plan-once/execute-many path the approximation algorithm's
//! pattern sum runs on. `contract_all` itself is plan-then-execute.

use crate::plan::{ContractionPlan, SkeletonNode};
use qns_tensor::Tensor;

/// Identifier of a network leg (bond or open index).
pub type LegId = usize;

/// Identifier of a node within a [`TensorNetwork`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

/// Contraction-order strategy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OrderStrategy {
    /// Repeatedly contract the connected pair whose result is smallest.
    #[default]
    Greedy,
    /// Contract nodes in insertion order (baseline for ablation).
    Sequential,
}

/// Statistics from a contraction run (for benchmarking and tests).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ContractionStats {
    /// Number of pairwise contractions performed.
    pub contractions: usize,
    /// Largest intermediate tensor size (elements).
    pub max_intermediate: usize,
    /// Total scalar multiply-adds proxy: Σ (m·k·n) over contractions.
    pub flops_proxy: u128,
    /// Number of contraction-order searches performed (1 for a fresh
    /// [`TensorNetwork::contract_all`] or [`TensorNetwork::plan`], 0
    /// when replaying a cached [`ContractionPlan`]).
    pub order_searches: usize,
    /// Number of times a precomputed [`ContractionPlan`] was replayed
    /// instead of searched.
    pub plan_reuses: usize,
}

impl ContractionStats {
    /// Accumulates `other` into `self` (summing counters, taking the
    /// max of `max_intermediate`) — for aggregating the per-term stats
    /// of a pattern sum into one run-level report.
    pub fn absorb(&mut self, other: &ContractionStats) {
        self.contractions += other.contractions;
        self.max_intermediate = self.max_intermediate.max(other.max_intermediate);
        self.flops_proxy += other.flops_proxy;
        self.order_searches += other.order_searches;
        self.plan_reuses += other.plan_reuses;
    }
}

/// A network of dense tensors connected by shared legs.
///
/// ```
/// use qns_tnet::network::TensorNetwork;
/// use qns_tensor::Tensor;
/// use qns_linalg::cr;
///
/// let mut net = TensorNetwork::new();
/// let bond = net.fresh_leg();
/// // ⟨a|b⟩ with a = (1,2), b = (3,4): expect 11.
/// net.add(Tensor::from_vec(vec![cr(1.0), cr(2.0)], vec![2]), vec![bond]);
/// net.add(Tensor::from_vec(vec![cr(3.0), cr(4.0)], vec![2]), vec![bond]);
/// let (t, _) = net.contract_all(Default::default());
/// assert_eq!(t.scalar_value(), cr(11.0));
/// ```
#[derive(Clone, Debug, Default)]
pub struct TensorNetwork {
    nodes: Vec<(Tensor, Vec<LegId>)>,
    /// How many nodes use each leg (≤ 2), kept incrementally so
    /// [`TensorNetwork::add`] is `O(legs)` instead of rescanning every
    /// live node per leg (quadratic in gate count when building
    /// circuit networks).
    #[expect(
        clippy::disallowed_types,
        reason = "lookup-only: the map is never iterated, so its order cannot leak"
    )]
    leg_uses: std::collections::HashMap<LegId, u8>,
    next_leg: LegId,
}

impl TensorNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        TensorNetwork::default()
    }

    /// An empty network with room for `nodes` nodes carrying `legs`
    /// distinct legs, so building it does not regrow its tables.
    pub(crate) fn with_capacity(nodes: usize, legs: usize) -> Self {
        let mut net = TensorNetwork::new();
        net.nodes.reserve_exact(nodes);
        net.leg_uses.reserve(legs);
        net
    }

    /// Allocates a fresh leg identifier.
    pub fn fresh_leg(&mut self) -> LegId {
        let l = self.next_leg;
        self.next_leg += 1;
        l
    }

    /// Adds a tensor whose axes carry `legs` (one per axis, in order).
    ///
    /// # Panics
    ///
    /// Panics if `legs.len() != tensor.rank()`, a leg repeats within
    /// the node, or a leg is already used by two other nodes.
    pub fn add(&mut self, tensor: Tensor, legs: Vec<LegId>) -> NodeId {
        assert_eq!(legs.len(), tensor.rank(), "one leg per tensor axis");
        for (i, l) in legs.iter().enumerate() {
            assert!(
                !legs[..i].contains(l),
                "leg {l} repeated within one node (traces unsupported)"
            );
        }
        for l in &legs {
            let uses = self.leg_uses.entry(*l).or_insert(0);
            assert!(*uses < 2, "leg {l} already connects two nodes");
            *uses += 1;
            self.next_leg = self.next_leg.max(l + 1);
        }
        let id = self.nodes.len();
        self.nodes.push((tensor, legs));
        NodeId(id)
    }

    /// Replaces the payload of node `id`, keeping its legs. The new
    /// tensor must have the original's shape, so every
    /// [`ContractionPlan`] computed from this network stays valid.
    ///
    /// # Panics
    ///
    /// Panics if the shape differs from the current tensor's.
    pub fn set_tensor(&mut self, id: NodeId, tensor: Tensor) {
        let slot = &mut self.nodes[id.0].0;
        assert_eq!(
            slot.shape(),
            tensor.shape(),
            "replacement tensor must keep the node's shape"
        );
        *slot = tensor;
    }

    /// The id of the `i`-th added node.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ node_count()`.
    pub fn node_id(&self, i: usize) -> NodeId {
        assert!(i < self.nodes.len(), "node index out of range");
        NodeId(i)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node tensors in insertion order (the payload vector a
    /// [`ContractionPlan`] executes against).
    pub fn node_tensors(&self) -> impl Iterator<Item = &Tensor> {
        self.nodes.iter().map(|(t, _)| t)
    }

    /// The tensor of the `i`-th added node.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ node_count()`.
    pub fn node_tensor(&self, i: usize) -> &Tensor {
        &self.nodes[i].0
    }

    /// Overwrites the payload buffer of node `id` in place from `src`
    /// (same shape required) without reallocating — the
    /// zero-allocation counterpart of [`TensorNetwork::set_tensor`]
    /// used by the pattern sum's per-pattern payload swap.
    ///
    /// # Panics
    ///
    /// Panics if the shape differs from the current tensor's.
    pub fn copy_tensor_from(&mut self, id: NodeId, src: &Tensor) {
        self.nodes[id.0].0.copy_from(src);
    }

    /// Legs appearing on exactly one node (the network's outputs).
    pub fn open_legs(&self) -> Vec<LegId> {
        let mut open: Vec<LegId> = self
            .leg_uses
            .iter()
            .filter_map(|(&l, &c)| (c == 1).then_some(l))
            .collect();
        open.sort_unstable();
        open
    }

    /// The legs of the `i`-th added node, one per tensor axis.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ node_count()`.
    pub fn node_legs(&self, i: usize) -> &[LegId] {
        &self.nodes[i].1
    }

    /// Runs the order search once and captures the result as a
    /// reusable [`ContractionPlan`] (see [`crate::plan`]).
    pub fn plan(&self, strategy: OrderStrategy) -> ContractionPlan {
        ContractionPlan::from_skeleton(self.skeleton(), strategy)
    }

    /// The delta-aware order search of a pattern sum that replays this
    /// network with only the `varying` nodes' payloads changing, about
    /// `replays` leaf paths per run (see [`crate::plan::ReplayCost`]).
    /// Returns the plan and the stats of planning it: `order_searches`
    /// counts every search that ran (1 when the greedy plan is kept
    /// without trying candidates). With no varying node the plan is
    /// exactly `plan(OrderStrategy::Greedy)`.
    ///
    /// # Panics
    ///
    /// Panics if a varying index is not a node index.
    pub fn plan_for_replay(
        &self,
        varying: &[usize],
        replays: u128,
    ) -> (ContractionPlan, ContractionStats) {
        let (plan, searches) =
            ContractionPlan::from_skeleton_for_replay(self.skeleton(), varying, replays);
        let stats = ContractionStats {
            order_searches: searches,
            ..Default::default()
        };
        (plan, stats)
    }

    /// Captures an explicit pair-contraction sequence as a
    /// [`ContractionPlan`], bypassing the order search. Slots are
    /// numbered as in [`crate::plan::PlanStep`]: nodes `0..n`, then
    /// pair `i`'s result as slot `n + i`. Two plans recording the same
    /// sequence are equal, whichever search (or caller) chose it.
    ///
    /// # Panics
    ///
    /// Panics if a pair names a slot that does not exist or was
    /// already consumed (or one slot twice), or if the sequence leaves
    /// more than one slot unconsumed.
    pub fn plan_order(&self, order: &[(usize, usize)]) -> ContractionPlan {
        ContractionPlan::from_order(self.skeleton(), order)
    }

    /// The shape/leg pairs of the nodes, in node order, borrowed: the
    /// order searches read them in place.
    fn skeleton(&self) -> impl ExactSizeIterator<Item = SkeletonNode<'_>> + Clone {
        self.nodes
            .iter()
            .map(|(t, legs)| (t.shape(), legs.as_slice()))
    }

    /// Contracts the whole network to a single tensor.
    ///
    /// Returns the final tensor (axes ordered by ascending open-leg id)
    /// and contraction statistics. An empty network yields the scalar 1.
    ///
    /// Implemented as [`TensorNetwork::plan`] followed by one
    /// [`ContractionPlan::execute_network`], so the executed order *is*
    /// the searched order; callers contracting one topology repeatedly
    /// should hold the plan themselves and replay it.
    pub fn contract_all(self, strategy: OrderStrategy) -> (Tensor, ContractionStats) {
        let plan = self.plan(strategy);
        let (tensor, mut stats) = plan.execute_network(&self);
        stats.order_searches = 1;
        stats.plan_reuses = 0;
        (tensor, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_linalg::{cr, Complex64, Matrix};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn rand_tensor(rng: &mut StdRng, shape: Vec<usize>) -> Tensor {
        let len = shape.iter().product();
        let data = (0..len)
            .map(|_| qns_linalg::c64(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
            .collect();
        Tensor::from_vec(data, shape)
    }

    #[test]
    fn empty_network_is_one() {
        let net = TensorNetwork::new();
        let (t, _) = net.contract_all(OrderStrategy::Greedy);
        assert_eq!(t.scalar_value(), Complex64::ONE);
    }

    #[test]
    fn single_node_returned_as_is() {
        let mut net = TensorNetwork::new();
        let l = net.fresh_leg();
        net.add(Tensor::from_vec(vec![cr(1.0), cr(2.0)], vec![2]), vec![l]);
        let (t, stats) = net.contract_all(OrderStrategy::Greedy);
        assert_eq!(t.shape(), &[2]);
        assert_eq!(stats.contractions, 0);
    }

    #[test]
    fn matrix_chain_contraction() {
        // A·B·C as a chain network equals the matrix product.
        let mut rng = StdRng::seed_from_u64(1);
        let a = rand_tensor(&mut rng, vec![2, 3]);
        let b = rand_tensor(&mut rng, vec![3, 4]);
        let c = rand_tensor(&mut rng, vec![4, 2]);
        let expect = a.to_matrix().matmul(&b.to_matrix()).matmul(&c.to_matrix());

        for strategy in [OrderStrategy::Greedy, OrderStrategy::Sequential] {
            let mut net = TensorNetwork::new();
            let (l0, l1, l2, l3) = (
                net.fresh_leg(),
                net.fresh_leg(),
                net.fresh_leg(),
                net.fresh_leg(),
            );
            net.add(a.clone(), vec![l0, l1]);
            net.add(b.clone(), vec![l1, l2]);
            net.add(c.clone(), vec![l2, l3]);
            let (t, stats) = net.contract_all(strategy);
            assert_eq!(t.shape(), &[2, 2]);
            assert!(t.to_matrix().approx_eq(&expect, 1e-10), "{strategy:?}");
            assert_eq!(stats.contractions, 2);
            assert_eq!(stats.order_searches, 1);
            assert_eq!(stats.plan_reuses, 0);
        }
    }

    #[test]
    fn open_legs_sorted_and_correct() {
        let mut net = TensorNetwork::new();
        let bond = net.fresh_leg();
        let o1 = net.fresh_leg();
        let o2 = net.fresh_leg();
        net.add(Tensor::zeros(vec![2, 3]), vec![o2, bond]);
        net.add(Tensor::zeros(vec![3, 4]), vec![bond, o1]);
        assert_eq!(net.open_legs(), vec![o1, o2]);
    }

    #[test]
    fn result_axes_follow_leg_order() {
        // Output axes must be sorted by leg id regardless of
        // contraction order.
        let mut rng = StdRng::seed_from_u64(2);
        let a = rand_tensor(&mut rng, vec![2, 3]);
        let b = rand_tensor(&mut rng, vec![3, 5]);
        let mut net = TensorNetwork::new();
        let out_b = net.fresh_leg(); // smaller id ends up first
        let bond = net.fresh_leg();
        let out_a = net.fresh_leg();
        net.add(a.clone(), vec![out_a, bond]);
        net.add(b.clone(), vec![bond, out_b]);
        let (t, _) = net.contract_all(OrderStrategy::Greedy);
        // axes: [out_b (5), out_a (2)]
        assert_eq!(t.shape(), &[5, 2]);
        let direct = a.contract(&b, &[1], &[0]); // [2,5]
        assert!(t.approx_eq(&direct.permute(&[1, 0]), 1e-12));
    }

    #[test]
    fn disconnected_components_outer_product() {
        let mut net = TensorNetwork::new();
        let l1 = net.fresh_leg();
        let l2 = net.fresh_leg();
        net.add(Tensor::from_vec(vec![cr(2.0)], vec![1]), vec![l1]);
        net.add(Tensor::from_vec(vec![cr(3.0)], vec![1]), vec![l2]);
        let (t, _) = net.contract_all(OrderStrategy::Greedy);
        assert_eq!(t.shape(), &[1, 1]);
        assert_eq!(t.as_slice()[0], cr(6.0));
    }

    #[test]
    fn greedy_beats_or_matches_sequential_on_a_chain() {
        // A long product chain with a fat middle tensor: greedy should
        // not exceed sequential in max intermediate size.
        let mut rng = StdRng::seed_from_u64(3);
        let mk = |rng: &mut StdRng, s: Vec<usize>| rand_tensor(rng, s);
        let build = |rng: &mut StdRng| {
            let mut net = TensorNetwork::new();
            let legs: Vec<LegId> = (0..5).map(|_| net.fresh_leg()).collect();
            net.add(mk(rng, vec![2, 2]), vec![legs[0], legs[1]]);
            net.add(mk(rng, vec![2, 8]), vec![legs[1], legs[2]]);
            net.add(mk(rng, vec![8, 2]), vec![legs[2], legs[3]]);
            net.add(mk(rng, vec![2, 2]), vec![legs[3], legs[4]]);
            net
        };
        let (_, g) = build(&mut rng).contract_all(OrderStrategy::Greedy);
        let mut rng2 = StdRng::seed_from_u64(3);
        let (_, s) = build(&mut rng2).contract_all(OrderStrategy::Sequential);
        assert!(g.max_intermediate <= s.max_intermediate);
    }

    #[test]
    fn identity_ladder_contracts_to_identity() {
        let mut net = TensorNetwork::new();
        let id = Tensor::from_matrix(&Matrix::identity(2));
        let a = net.fresh_leg();
        let b = net.fresh_leg();
        let c = net.fresh_leg();
        net.add(id.clone(), vec![a, b]);
        net.add(id, vec![b, c]);
        let (t, _) = net.contract_all(OrderStrategy::Greedy);
        assert!(t.to_matrix().approx_eq(&Matrix::identity(2), 1e-12));
    }

    #[test]
    fn set_tensor_swaps_payload_in_place() {
        let mut net = TensorNetwork::new();
        let bond = net.fresh_leg();
        let a = net.add(
            Tensor::from_vec(vec![cr(1.0), cr(2.0)], vec![2]),
            vec![bond],
        );
        net.add(
            Tensor::from_vec(vec![cr(3.0), cr(4.0)], vec![2]),
            vec![bond],
        );
        net.set_tensor(a, Tensor::from_vec(vec![cr(5.0), cr(6.0)], vec![2]));
        let (t, _) = net.contract_all(OrderStrategy::Greedy);
        assert_eq!(t.scalar_value(), cr(39.0));
    }

    #[test]
    #[should_panic(expected = "must keep the node's shape")]
    fn set_tensor_rejects_shape_change() {
        let mut net = TensorNetwork::new();
        let l = net.fresh_leg();
        let id = net.add(Tensor::zeros(vec![2]), vec![l]);
        net.set_tensor(id, Tensor::zeros(vec![3]));
    }

    #[test]
    #[should_panic(expected = "already connects two nodes")]
    fn triple_leg_use_panics() {
        let mut net = TensorNetwork::new();
        let l = net.fresh_leg();
        net.add(Tensor::zeros(vec![2]), vec![l]);
        net.add(Tensor::zeros(vec![2]), vec![l]);
        net.add(Tensor::zeros(vec![2]), vec![l]);
    }

    #[test]
    #[should_panic(expected = "one leg per tensor axis")]
    fn leg_count_mismatch_panics() {
        let mut net = TensorNetwork::new();
        let l = net.fresh_leg();
        net.add(Tensor::zeros(vec![2, 2]), vec![l]);
    }
}
