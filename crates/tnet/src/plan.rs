//! Plan-once/execute-many contraction.
//!
//! The approximation algorithm's pattern sum contracts the *same*
//! network topology millions of times — only the 2×2 noise-substitution
//! payloads differ between patterns. A [`ContractionPlan`] captures
//! everything that depends on the skeleton alone (leg topology + tensor
//! shapes): the pair-contraction sequence chosen by the order search,
//! the contracted axes of every step, and the final output-axis
//! permutation. [`ContractionPlan::execute`] then replays that sequence
//! against fresh tensor payloads without re-running the search or
//! re-validating the network.
//!
//! Plans are produced by [`TensorNetwork::plan`];
//! [`TensorNetwork::contract_all`] is itself implemented as
//! plan-then-execute, so the replayed order is the searched order by
//! construction. A pattern sum, which replays only the paths from its
//! changing leaves to the root, plans with
//! [`TensorNetwork::plan_for_replay`] instead: it prices those paths
//! ([`ReplayCost`]) rather than one full contraction.
//!
//! A plan is a handful of flat buffers: the steps, one pool of every
//! step's contracted axes and one pool of every slot's shape. The
//! order search reads shapes and legs from the network in place and
//! keeps its slots in flat pools indexed by ranges, so one search
//! allocates a fixed number of buffers whatever the network's size;
//! the delta-aware candidates rewind one prepared search instead of
//! rebuilding it.
//!
//! ```
//! use qns_tnet::network::TensorNetwork;
//! use qns_tensor::Tensor;
//! use qns_linalg::cr;
//!
//! let mut net = TensorNetwork::new();
//! let bond = net.fresh_leg();
//! let a = net.add(Tensor::from_vec(vec![cr(1.0), cr(2.0)], vec![2]), vec![bond]);
//! net.add(Tensor::from_vec(vec![cr(3.0), cr(4.0)], vec![2]), vec![bond]);
//!
//! // Plan once, execute for two different payloads of node `a`.
//! let plan = net.plan(Default::default());
//! assert_eq!(plan.execute_network(&net).0.scalar_value(), cr(11.0));
//! net.set_tensor(a, Tensor::from_vec(vec![cr(5.0), cr(6.0)], vec![2]));
//! assert_eq!(plan.execute_network(&net).0.scalar_value(), cr(39.0));
//! ```

use crate::exec::{ExecutablePlan, Workspace};
use crate::network::{ContractionStats, LegId, OrderStrategy, TensorNetwork};
use qns_linalg::Complex64;
use qns_tensor::Tensor;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One pair contraction in a [`ContractionPlan`] — an internal node of
/// the contraction **tree**.
///
/// Slots `0..n_inputs` hold the input tensors (in node order, the
/// tree's leaves); step `i` consumes two earlier slots (its children)
/// and produces slot `n_inputs + i`. Because every slot is consumed
/// exactly once, the step list is a binary tree in topological order:
/// the slot indices on any leaf-to-root path are strictly increasing.
/// The contracted axes live in the plan's axis pool
/// ([`ContractionPlan::step_axes`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanStep {
    /// Slot index of the left operand.
    pub lhs: usize,
    /// Slot index of the right operand.
    pub rhs: usize,
    /// Start of this step's axes in the plan's axis pool: `n_axes`
    /// lhs axes, then the `n_axes` rhs axes they contract with.
    axes: usize,
    n_axes: usize,
}

impl PlanStep {
    /// The two child slots this tree node contracts (`lhs`, `rhs`).
    /// Slots below the plan's `n_inputs` are leaves (input tensors);
    /// slot `n_inputs + i` is the output of step `i`.
    pub fn children(&self) -> (usize, usize) {
        (self.lhs, self.rhs)
    }
}

/// A precomputed contraction schedule for one network skeleton.
///
/// Computed once by [`TensorNetwork::plan`] (running the configured
/// order search on shapes and legs only), then replayed any number of
/// times via [`ContractionPlan::execute`] /
/// [`ContractionPlan::execute_network`] against tensors with the same
/// shapes. Replay performs no order search and no topology validation,
/// which is what makes the pattern sum's per-term cost pure arithmetic.
///
/// A plan is a handful of flat buffers, whatever its size: the steps,
/// one pool of every step's contracted axes, and one pool of every
/// slot's shape.
#[derive(Clone, Debug, PartialEq)]
pub struct ContractionPlan {
    n_inputs: usize,
    steps: Vec<PlanStep>,
    /// Every step's contracted axes, packed in step order (see
    /// [`PlanStep`]).
    axes: Vec<usize>,
    /// Every slot's shape (inputs, then one per step), packed: slot
    /// `s` is `dims[dim_start[s]..dim_start[s + 1]]`.
    dims: Vec<usize>,
    dim_start: Vec<usize>,
    /// Explicit tree structure: `slot_parent[s]` is the index of the
    /// step consuming slot `s` (`None` for the root slot). Leaves are
    /// slots `0..n_inputs`; step `i` produces slot `n_inputs + i`.
    slot_parent: Vec<Option<usize>>,
    /// Permutation bringing the final tensor's axes into ascending
    /// open-leg order (`None` when already sorted).
    output_perm: Option<Vec<usize>>,
    /// Shape-derived statistics of one replay (contractions,
    /// max intermediate, flops proxy) — constant across executions.
    replay_stats: ContractionStats,
    /// `m·k·n` of every step, in step order (their sum is
    /// `replay_stats.flops_proxy`).
    step_flops: Vec<u128>,
}

/// Multiply-add units (`m·k·n`) charged per replayed pair contraction
/// on top of its arithmetic by [`ReplayCost::modelled`]: the fixed cost
/// of dispatching one step (operand lookup, gather set-up, kernel
/// entry), about 50 ns next to ~0.8 ns per multiply-add on a 2-vCPU VM.
pub const STEP_OVERHEAD: u128 = 64;

/// Cold-merge caps of the delta-aware candidates
/// ([`TensorNetwork::plan_for_replay`]), as multiples of the greedy
/// plan's largest intermediate.
const COLD_CAPS: [usize; 4] = [1, 2, 4, 8];

/// Modelled multiply-add units of one greedy order search per input
/// node (about 2 µs per node on a 2-vCPU VM), the price of a candidate
/// search in [`candidates_can_pay`].
const SEARCH_UNITS_PER_NODE: u128 = 2_500;

/// Whether a plan of `n_inputs` nodes whose [`ReplayCost::modelled`]
/// cost with `n_varying` varying leaves is `cost` could repay the
/// [`COLD_CAPS`] candidate searches: their own modelled price must
/// stay under the plan's. A pure function of the job, so every run of
/// one job plans alike.
fn candidates_can_pay(cost: u128, n_varying: usize, n_inputs: usize) -> bool {
    let search = SEARCH_UNITS_PER_NODE
        .saturating_mul(n_inputs as u128)
        .saturating_mul(COLD_CAPS.len() as u128)
        .saturating_mul(n_varying.max(1) as u128);
    cost > search
}

/// What a plan costs a pattern sum whose `varying` leaves change
/// between replays: every field is in multiply-add units (`m·k·n`) or
/// steps. A step is **cold** when no varying leaf lies below it: it
/// runs once per run. The other steps are **hot**: a worker runs them
/// all once to warm up, and delta replay reruns the hot steps on the
/// path of each changed leaf.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayCost {
    /// `m·k·n` summed over the cold steps.
    pub cold_flops: u128,
    /// Number of cold steps.
    pub cold_steps: usize,
    /// `m·k·n` summed over the hot steps (one full warm-up replay).
    pub hot_flops: u128,
    /// Number of hot steps.
    pub hot_steps: usize,
    /// `Σ_hot m·k·n·h(step)`, with `h` the number of varying leaves
    /// below the step: the multiply-adds of replaying every varying
    /// leaf's path once.
    pub path_flops: u128,
    /// `Σ_hot h(step)`: the steps of replaying every varying leaf's
    /// path once.
    pub path_steps: usize,
}

impl ReplayCost {
    /// The modelled cost of a run with `n_varying` varying leaves and
    /// `replays` leaf-path replays, times `n_varying` (so it stays an
    /// integer): the cold part once, one warm-up of the hot part, and
    /// `replays` times the mean leaf path, each step charged
    /// [`STEP_OVERHEAD`] on top of its `m·k·n`.
    pub fn modelled(&self, n_varying: usize, replays: u128) -> u128 {
        let once = |flops: u128, steps: usize| {
            flops.saturating_add(STEP_OVERHEAD.saturating_mul(steps as u128))
        };
        once(self.cold_flops, self.cold_steps)
            .saturating_add(once(self.hot_flops, self.hot_steps))
            .saturating_mul(n_varying.max(1) as u128)
            .saturating_add(replays.saturating_mul(once(self.path_flops, self.path_steps)))
    }

    /// Mean multiply-adds of replaying one varying leaf's path.
    pub fn flops_per_leaf(&self, n_varying: usize) -> f64 {
        self.path_flops as f64 / n_varying.max(1) as f64
    }
}

/// Skeleton view of a node during planning: its shape and legs,
/// borrowed, no payload.
pub(crate) type SkeletonNode<'a> = (&'a [usize], &'a [LegId]);

/// Fills `below` with how many of the `varying` input slots lie below
/// each slot of a plan with `n_inputs` leaves and these `steps`
/// (leaves first, then one entry per step): `0` marks a cold slot.
///
/// # Panics
///
/// Panics if a varying slot is not an input slot.
fn fill_varying_below(
    n_inputs: usize,
    steps: &[PlanStep],
    varying: &[usize],
    below: &mut Vec<usize>,
) {
    below.clear();
    below.resize(n_inputs + steps.len(), 0);
    for &v in varying {
        assert!(v < n_inputs, "varying slot {v} is not an input slot");
        below[v] = 1;
    }
    for (i, step) in steps.iter().enumerate() {
        below[n_inputs + i] = below[step.lhs] + below[step.rhs];
    }
}

/// The [`ReplayCost`] of steps whose `m·k·n` are `step_flops`, given
/// how many varying leaves lie below each slot (`below`, from
/// [`fill_varying_below`]).
fn replay_cost_of(n_inputs: usize, step_flops: &[u128], below: &[usize]) -> ReplayCost {
    let mut cost = ReplayCost::default();
    for (i, &flops) in step_flops.iter().enumerate() {
        let h = below[n_inputs + i];
        if h == 0 {
            cost.cold_flops = cost.cold_flops.saturating_add(flops);
            cost.cold_steps += 1;
        } else {
            cost.hot_flops = cost.hot_flops.saturating_add(flops);
            cost.hot_steps += 1;
            cost.path_flops = cost
                .path_flops
                .saturating_add(flops.saturating_mul(h as u128));
            cost.path_steps += h;
        }
    }
    cost
}

impl ContractionPlan {
    /// Runs the `strategy` order search over a skeleton (the
    /// shape/leg pairs of a network's nodes, in node order) and records
    /// the chosen pair-contraction sequence.
    ///
    /// [`OrderStrategy::Greedy`] contracts, at every step, the
    /// connected live pair with the smallest result, ties broken by the
    /// lowest `(lhs slot, rhs slot)`. A pair's result size cannot
    /// change while both of its slots are live, so the search keeps a
    /// lazy-deletion min-heap of `(cost, lhs, rhs)` over connected
    /// pairs and, after each contraction, pushes only the new slot's
    /// pairs with its neighbours: `O(E log E)` for `E` leg adjacencies,
    /// instead of rescanning all live pairs per step. The pair it pops
    /// is exactly the one such a rescan in ascending `(lhs, rhs)` order
    /// would keep as its first strict minimum, so both searches record
    /// identical plans. [`OrderStrategy::Sequential`] contracts the
    /// first live slot with the first live slot it shares a leg with.
    /// When the search finds no connected pair (greedy: none at all;
    /// sequential: none for the first live slot), it outer-products
    /// the two lowest live slots.
    pub(crate) fn from_skeleton<'a, S>(skeleton: S, strategy: OrderStrategy) -> Self
    where
        S: ExactSizeIterator<Item = SkeletonNode<'a>> + Clone,
    {
        let mut planner = Planner::new(skeleton);
        match strategy {
            OrderStrategy::Greedy => planner.search_greedy(),
            OrderStrategy::Sequential => planner.search_sequential(),
        }
        planner.into_plan()
    }

    /// The delta-aware order search of a pattern sum over a skeleton:
    /// the plan that minimises [`ReplayCost::modelled`] for the
    /// `varying` input slots (the leaves whose payloads change between
    /// replays) and `replays` leaf-path replays, plus the number of
    /// order searches it ran.
    ///
    /// The candidates are the greedy plan and, for every cap in
    /// [`COLD_CAPS`], a plan that first merges only *cold* slots (no
    /// varying leaf below) greedily while the result stays within the
    /// cap times the greedy plan's largest intermediate, and then
    /// finishes with the plain greedy search. Ties keep the earlier
    /// candidate, so greedy wins unless a cold-first plan is strictly
    /// cheaper. With no varying leaf, or when the greedy plan's
    /// modelled cost is too small for the extra searches to pay off
    /// ([`candidates_can_pay`]), only the greedy search runs and the
    /// result is exactly [`OrderStrategy::Greedy`]'s plan.
    ///
    /// Every search runs on one prepared planner, rewound to its
    /// inputs between candidates: its buffers are reused, and only a
    /// candidate that beats the best so far is copied out as a plan.
    ///
    /// # Panics
    ///
    /// Panics if a varying slot is not an input slot.
    pub(crate) fn from_skeleton_for_replay<'a, S>(
        skeleton: S,
        varying: &[usize],
        replays: u128,
    ) -> (Self, usize)
    where
        S: ExactSizeIterator<Item = SkeletonNode<'a>> + Clone,
    {
        let mut planner = Planner::new(skeleton);
        let n = planner.n_inputs;
        planner.search_greedy();
        let mut is_varying = vec![false; n];
        for &v in varying {
            assert!(v < n, "varying slot {v} is not an input slot");
            is_varying[v] = true;
        }
        let n_varying = is_varying.iter().filter(|&&v| v).count();
        if n_varying == 0 {
            return (planner.into_plan(), 1);
        }
        let mut best_cost = planner.replay_cost(varying).modelled(n_varying, replays);
        if !candidates_can_pay(best_cost, n_varying, n) {
            return (planner.into_plan(), 1);
        }
        let base = planner.replay_stats.max_intermediate.max(1);
        let mut best = planner.to_plan();
        for cap in COLD_CAPS {
            planner.rewind();
            planner.search_cold(&is_varying, base.saturating_mul(cap));
            planner.search_greedy();
            let cost = planner.replay_cost(varying).modelled(n_varying, replays);
            if cost < best_cost {
                best_cost = cost;
                best = planner.to_plan();
            }
        }
        (best, 1 + COLD_CAPS.len())
    }

    /// Records the caller-given pair sequence over a skeleton: pair
    /// `i` contracts two live slots into slot `n_inputs + i`.
    ///
    /// # Panics
    ///
    /// Panics if a pair names a slot that is not live (or one slot
    /// twice), or if the sequence leaves more than one live slot.
    pub(crate) fn from_order<'a, S>(skeleton: S, order: &[(usize, usize)]) -> Self
    where
        S: ExactSizeIterator<Item = SkeletonNode<'a>> + Clone,
    {
        let mut planner = Planner::new(skeleton);
        for &(a, b) in order {
            assert!(
                a != b && planner.is_live(a) && planner.is_live(b),
                "pair ({a}, {b}) does not name two live slots"
            );
            planner.contract(a, b);
        }
        assert!(
            planner.n_live <= 1,
            "order leaves {} live slots",
            planner.n_live
        );
        planner.into_plan()
    }

    /// Number of input tensors the plan expects.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// The shape of slot `slot`: an input's planned shape, or the
    /// result shape of step `slot - n_inputs()`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= slot_count()`.
    pub(crate) fn slot_shape(&self, slot: usize) -> &[usize] {
        &self.dims[self.dim_start[slot]..self.dim_start[slot + 1]]
    }

    /// The axes step `step` contracts: `(lhs axes, rhs axes)`, aligned
    /// pairwise.
    ///
    /// # Panics
    ///
    /// Panics if `step >= steps().len()`.
    pub fn step_axes(&self, step: usize) -> (&[usize], &[usize]) {
        let PlanStep { axes, n_axes, .. } = self.steps[step];
        self.axes[axes..axes + 2 * n_axes].split_at(n_axes)
    }

    /// The final output-axis permutation (`None` when already in
    /// ascending open-leg order).
    pub(crate) fn output_perm(&self) -> Option<&[usize]> {
        self.output_perm.as_deref()
    }

    /// The shape-derived statistics of one replay (`plan_reuses` and
    /// `order_searches` both zero; callers set them).
    pub(crate) fn replay_stats(&self) -> ContractionStats {
        self.replay_stats
    }

    /// Lowers the plan into an [`ExecutablePlan`]: precomputed matmul
    /// dimensions, identity-elided/fused operand permutations with
    /// gather tables, and an exact workspace layout, so replay through
    /// a warmed [`Workspace`] performs **zero heap allocations per
    /// execution**. Compile once per skeleton, right after planning.
    ///
    /// Every leaf counts as varying, so every step stays hot and one
    /// execution reruns the whole plan; see
    /// [`ContractionPlan::compile_for_replay`] for a plan whose
    /// noise-free part is contracted once.
    pub fn compile(&self) -> ExecutablePlan {
        ExecutablePlan::lower(self, None)
    }

    /// Lowers the plan for a pattern sum in which only the `varying`
    /// input slots change between executions. The cold steps (no
    /// varying leaf below) run once, here, on `net`'s current payloads;
    /// the cold nodes the remaining hot steps read are kept in a cold
    /// cache that every clone of the returned plan shares, and
    /// executions run only the hot steps. Results are bit-identical to
    /// [`ContractionPlan::compile`]'s for the same payloads: the same
    /// kernels see the same operands.
    ///
    /// # Panics
    ///
    /// Panics if `net`'s node count or a payload length differs from
    /// the plan's, or a varying slot is not an input slot.
    pub fn compile_for_replay(&self, net: &TensorNetwork, varying: &[usize]) -> ExecutablePlan {
        assert_eq!(
            net.node_count(),
            self.n_inputs,
            "plan expects {} input tensors, got {}",
            self.n_inputs,
            net.node_count()
        );
        let input = |i: usize| net.node_tensor(i).as_slice();
        ExecutablePlan::lower(self, Some((varying, &input)))
    }

    /// How many of the `varying` input slots lie below each slot
    /// (leaves first, then one entry per step): `0` marks a cold slot.
    ///
    /// # Panics
    ///
    /// Panics if a varying slot is not an input slot.
    pub(crate) fn varying_below(&self, varying: &[usize]) -> Vec<usize> {
        let mut below = Vec::new();
        fill_varying_below(self.n_inputs, &self.steps, varying, &mut below);
        below
    }

    /// The plan's [`ReplayCost`] for the `varying` input slots.
    ///
    /// # Panics
    ///
    /// Panics if a varying slot is not an input slot.
    pub fn replay_cost(&self, varying: &[usize]) -> ReplayCost {
        replay_cost_of(
            self.n_inputs,
            &self.step_flops,
            &self.varying_below(varying),
        )
    }

    /// The statistics of creating this plan: exactly one order search,
    /// no contractions. Absorb this into a run's aggregate stats at
    /// plan-creation time so search counts are derived from the plan
    /// objects actually built rather than asserted by the caller.
    pub fn planning_stats(&self) -> ContractionStats {
        ContractionStats {
            order_searches: 1,
            ..Default::default()
        }
    }

    /// The recorded pair-contraction sequence — the contraction tree's
    /// internal nodes in topological (bottom-up) order.
    pub fn steps(&self) -> &[PlanStep] {
        &self.steps
    }

    /// Total slot count: `n_inputs` leaves plus one slot per step.
    pub fn slot_count(&self) -> usize {
        self.n_inputs + self.steps.len()
    }

    /// The step consuming slot `slot`, or `None` for the root slot
    /// (and for every slot of a stepless plan).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= slot_count()`.
    pub fn slot_parent(&self, slot: usize) -> Option<usize> {
        self.slot_parent[slot]
    }

    /// The step indices on the path from leaf slot `leaf` to the root,
    /// in ascending (execution) order. Empty for a stepless plan.
    ///
    /// # Panics
    ///
    /// Panics if `leaf >= n_inputs()`.
    pub fn leaf_path(&self, leaf: usize) -> Vec<usize> {
        assert!(leaf < self.n_inputs, "leaf slot {leaf} out of range");
        let mut path = Vec::new();
        let mut slot = leaf;
        while let Some(step) = self.slot_parent[slot] {
            path.push(step);
            slot = self.n_inputs + step;
        }
        path
    }

    /// Height of the contraction tree: the largest number of steps on
    /// any leaf-to-root path (0 for plans with at most one input).
    /// Delta execution recomputes at most `tree_depth` steps per dirty
    /// leaf.
    pub fn tree_depth(&self) -> usize {
        (0..self.n_inputs)
            .map(|l| self.leaf_path(l).len())
            .max()
            .unwrap_or(0)
    }

    /// Replays the plan against `inputs` (one tensor per original node,
    /// in node order, with the planned shapes).
    ///
    /// A thin allocating wrapper: compiles the plan, executes it
    /// through a throwaway [`Workspace`] and copies the result out.
    /// Callers replaying one plan many times should hold the
    /// [`ExecutablePlan`] (and a reusable workspace) themselves —
    /// that path is allocation-free per execution.
    ///
    /// The returned [`ContractionStats`] carry `plan_reuses = 1` and
    /// `order_searches = 0`: no search happens here.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the planned node count.
    /// Shape agreement is only asserted on buffer lengths — replay is
    /// the hot path and [`TensorNetwork::set_tensor`] already enforces
    /// shapes.
    pub fn execute(&self, inputs: &[Tensor]) -> (Tensor, ContractionStats) {
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let exec = self.compile();
        let mut ws = Workspace::for_plan(&exec);
        let out = exec.execute_into(&refs, &mut ws).to_vec();
        (
            Tensor::from_vec(out, exec.output_shape().to_vec()),
            exec.replay_stats(),
        )
    }

    /// Replays the plan against the tensors currently held by `net`
    /// (which must have the same node count and shapes it was planned
    /// from). A thin allocating wrapper like [`ContractionPlan::execute`].
    ///
    /// # Panics
    ///
    /// Panics if `net`'s node count differs from the planned count.
    pub fn execute_network(&self, net: &TensorNetwork) -> (Tensor, ContractionStats) {
        let exec = self.compile();
        let mut ws = Workspace::for_plan(&exec);
        let out = exec.execute_network_into(net, &mut ws).to_vec();
        (
            Tensor::from_vec(out, exec.output_shape().to_vec()),
            exec.replay_stats(),
        )
    }

    /// The pre-kernel reference replay: chains [`Tensor::contract`] /
    /// [`Tensor::permute`] per recorded step, allocating freely. Kept
    /// as the oracle the compiled path is tested (and benchmarked)
    /// against — [`ContractionPlan::execute`] must stay bit-identical
    /// to it.
    ///
    /// # Panics
    ///
    /// As [`ContractionPlan::execute`].
    pub fn execute_reference(&self, inputs: &[Tensor]) -> (Tensor, ContractionStats) {
        self.execute_impl(inputs.iter().map(Cow::Borrowed).collect())
    }

    /// [`ContractionPlan::execute_reference`] against the tensors
    /// currently held by `net`.
    ///
    /// # Panics
    ///
    /// As [`ContractionPlan::execute_network`].
    pub fn execute_network_reference(&self, net: &TensorNetwork) -> (Tensor, ContractionStats) {
        self.execute_impl(net.node_tensors().map(Cow::Borrowed).collect())
    }

    fn execute_impl(&self, inputs: Vec<Cow<'_, Tensor>>) -> (Tensor, ContractionStats) {
        assert_eq!(
            inputs.len(),
            self.n_inputs,
            "plan expects {} input tensors, got {}",
            self.n_inputs,
            inputs.len()
        );
        debug_assert!(
            inputs
                .iter()
                .enumerate()
                .all(|(i, t)| t.shape() == self.slot_shape(i)),
            "input tensor shapes differ from the planned skeleton"
        );
        let mut stats = self.replay_stats;
        stats.plan_reuses = 1;
        if self.n_inputs == 0 {
            return (Tensor::scalar(Complex64::ONE), stats);
        }
        let mut slots: Vec<Option<Cow<'_, Tensor>>> = inputs.into_iter().map(Some).collect();
        for (i, step) in self.steps.iter().enumerate() {
            #[expect(clippy::expect_used, reason = "the planner consumes each slot once")]
            let ta = slots[step.lhs].take().expect("plan slot consumed once");
            #[expect(clippy::expect_used, reason = "the planner consumes each slot once")]
            let tb = slots[step.rhs].take().expect("plan slot consumed once");
            let (axes_lhs, axes_rhs) = self.step_axes(i);
            let t = ta.contract(&tb, axes_lhs, axes_rhs);
            slots.push(Some(Cow::Owned(t)));
        }
        #[expect(
            clippy::expect_used,
            reason = "a plan over at least one input leaves one tensor"
        )]
        let tensor = slots
            .into_iter()
            .rev()
            .find_map(|s| s)
            .expect("one tensor remains")
            .into_owned();
        let tensor = match &self.output_perm {
            Some(perm) => tensor.permute(perm),
            None => tensor,
        };
        (tensor, stats)
    }
}

/// Product of a shape's dimensions, saturating at `usize::MAX` so
/// adversarial shapes cannot panic planning in debug builds.
fn saturating_product(shape: &[usize]) -> usize {
    shape.iter().fold(1usize, |acc, &d| acc.saturating_mul(d))
}

/// A connected pair `(cost, lhs, rhs)` as one integer that orders like
/// the tuple: the cost in the high 64 bits, then the two slots in 32
/// bits each (a network of 2³¹ nodes would need far more memory than
/// any machine has). Half the size of the tuple, so the greedy
/// search's heap, its dominant cost, moves less memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct PairKey(u128);

impl PairKey {
    fn pack(cost: usize, lhs: usize, rhs: usize) -> PairKey {
        debug_assert!(lhs <= u32::MAX as usize && rhs <= u32::MAX as usize);
        PairKey((cost as u128) << 64 | (lhs as u128) << 32 | rhs as u128)
    }

    fn unpack(self) -> (usize, usize, usize) {
        let low = |x: u128| (x & 0xffff_ffff) as usize;
        ((self.0 >> 64) as usize, low(self.0 >> 32), low(self.0))
    }
}

/// The state of one order search, in flat buffers: every slot's shape
/// and legs (inputs, then one per recorded step) packed into two pools,
/// which slots are live, and the plan recorded so far. Legs are
/// renumbered to dense ranks `0..n_legs` in ascending id order, so
/// per-leg tables are plain vectors and the output permutation's leg
/// order is kept. A consumed slot keeps its pool entries; the searches
/// only read live slots.
///
/// [`Planner::rewind`] drops every recorded step and leaves the inputs,
/// so one planner serves several searches over the same skeleton with
/// no new buffers; the search scratch (`owners`, `heap`, `neighbours`,
/// `below`) is reused the same way.
struct Planner {
    n_inputs: usize,
    n_legs: usize,
    /// Every slot's dimensions, packed; slot `s` is
    /// `dims[start[s]..start[s + 1]]`.
    dims: Vec<usize>,
    /// Every slot's dense leg ranks, aligned with `dims`.
    legs: Vec<usize>,
    start: Vec<usize>,
    live: Vec<bool>,
    n_live: usize,
    steps: Vec<PlanStep>,
    axes: Vec<usize>,
    slot_parent: Vec<Option<usize>>,
    replay_stats: ContractionStats,
    step_flops: Vec<u128>,
    /// `owners[l]`: the live slots carrying leg `l` (see
    /// [`Planner::search_greedy`]).
    owners: Vec<[Option<usize>; 2]>,
    /// Connected pairs `(cost, lhs, rhs)`, packed by [`PairKey`].
    heap: BinaryHeap<Reverse<PairKey>>,
    neighbours: Vec<usize>,
    below: Vec<usize>,
    /// Per-leg tokens of [`Planner::pair_cost`]; `token` is the last
    /// one handed out.
    marks: Vec<usize>,
    token: usize,
}

impl Planner {
    fn new<'a, S>(skeleton: S) -> Self
    where
        S: ExactSizeIterator<Item = SkeletonNode<'a>> + Clone,
    {
        let n_inputs = skeleton.len();
        let total: usize = skeleton.clone().map(|(_, legs)| legs.len()).sum();
        let mut ids: Vec<LegId> = Vec::with_capacity(total);
        for (_, legs) in skeleton.clone() {
            ids.extend_from_slice(legs);
        }
        ids.sort_unstable();
        ids.dedup();
        // A plan over n inputs has n - 1 steps, so 2n - 1 slots; the
        // pools start at twice the inputs' total rank and grow if the
        // intermediates need more.
        let slots = (2 * n_inputs).saturating_sub(1);
        let mut dims = Vec::with_capacity(2 * total);
        let mut legs = Vec::with_capacity(2 * total);
        let mut start = Vec::with_capacity(slots + 1);
        start.push(0);
        for (shape, node_legs) in skeleton {
            dims.extend_from_slice(shape);
            legs.extend(
                node_legs
                    .iter()
                    .map(|l| ids.binary_search(l).unwrap_or_else(|i| i)),
            );
            start.push(dims.len());
        }
        let mut live = Vec::with_capacity(slots);
        live.resize(n_inputs, true);
        let mut slot_parent = Vec::with_capacity(slots);
        slot_parent.resize(n_inputs, None);
        let n_steps = n_inputs.saturating_sub(1);
        Planner {
            n_inputs,
            n_legs: ids.len(),
            dims,
            legs,
            start,
            live,
            n_live: n_inputs,
            steps: Vec::with_capacity(n_steps),
            // Every leg is contracted at most once, on both sides.
            axes: Vec::with_capacity(2 * ids.len()),
            slot_parent,
            replay_stats: ContractionStats::default(),
            step_flops: Vec::with_capacity(n_steps),
            owners: Vec::with_capacity(ids.len()),
            heap: BinaryHeap::with_capacity(2 * ids.len()),
            neighbours: Vec::new(),
            below: Vec::new(),
            marks: vec![0; ids.len()],
            token: 0,
        }
    }

    /// Drops every recorded step: the planner is back at its inputs,
    /// all live, with its buffers kept.
    fn rewind(&mut self) {
        let n = self.n_inputs;
        let end = self.start[n];
        self.dims.truncate(end);
        self.legs.truncate(end);
        self.start.truncate(n + 1);
        self.live.truncate(n);
        self.live.fill(true);
        self.n_live = n;
        self.steps.clear();
        self.axes.clear();
        self.slot_parent.truncate(n);
        self.slot_parent.fill(None);
        self.replay_stats = ContractionStats::default();
        self.step_flops.clear();
    }

    /// Number of slots so far: inputs plus recorded steps.
    fn slot_count(&self) -> usize {
        self.live.len()
    }

    fn is_live(&self, slot: usize) -> bool {
        self.live.get(slot).copied().unwrap_or(false)
    }

    /// The dense leg ranks of slot `s`.
    fn legs_of(&self, s: usize) -> &[usize] {
        &self.legs[self.start[s]..self.start[s + 1]]
    }

    /// Whether slots `a` and `b` share a leg.
    fn connected(&self, a: usize, b: usize) -> bool {
        let lb = self.legs_of(b);
        self.legs_of(a).iter().any(|l| lb.contains(l))
    }

    /// The two lowest live slots — the outer-product fallback when a
    /// search finds no connected pair.
    fn lowest_pair(&self) -> Option<(usize, usize)> {
        let mut it = (0..self.slot_count()).filter(|&s| self.live[s]);
        Some((it.next()?, it.next()?))
    }

    /// Result size (elements) of contracting slots `a` and `b` — the
    /// greedy search's cost function: the product of `a`'s free
    /// dimensions, then `b`'s, in axis order. Shared legs are found
    /// through `marks` in `O(rank)`: `b`'s legs get one token, the
    /// legs of `a` carrying it (the shared ones) the next.
    fn pair_cost(&mut self, a: usize, b: usize) -> usize {
        let (in_b, shared) = (self.token + 1, self.token + 2);
        self.token = shared;
        for i in self.start[b]..self.start[b + 1] {
            self.marks[self.legs[i]] = in_b;
        }
        let mut size = 1usize;
        for i in self.start[a]..self.start[a + 1] {
            let mark = &mut self.marks[self.legs[i]];
            if *mark == in_b {
                *mark = shared;
            } else {
                size = size.saturating_mul(self.dims[i]);
            }
        }
        for i in self.start[b]..self.start[b + 1] {
            if self.marks[self.legs[i]] != shared {
                size = size.saturating_mul(self.dims[i]);
            }
        }
        size
    }

    /// The greedy search (see [`ContractionPlan::from_skeleton`]).
    /// `owners[l]` holds the live slots carrying leg `l`: at most two,
    /// since a network leg joins at most two nodes and a contraction
    /// only moves its free legs onto the new slot.
    fn search_greedy(&mut self) {
        self.reset_search();
        for slot in 0..self.slot_count() {
            if self.live[slot] {
                self.push_pairs(slot);
            }
        }
        while self.n_live > 1 {
            let mut best = None;
            while let Some(Reverse(key)) = self.heap.pop() {
                let (_, a, b) = key.unpack();
                if self.live[a] && self.live[b] {
                    best = Some((a, b));
                    break;
                }
            }
            let Some((a, b)) = best.or_else(|| self.lowest_pair()) else {
                break;
            };
            self.merge(a, b);
        }
    }

    /// The cold phase of a delta-aware candidate: greedily contracts
    /// connected pairs of slots with no `varying` input below them,
    /// smallest result first (ties as in the greedy search), while the
    /// result has at most `cap` elements. Varying slots and the slots
    /// they reach are left for the greedy search that follows.
    fn search_cold(&mut self, varying: &[bool], cap: usize) {
        self.reset_search();
        for slot in 0..self.slot_count() {
            if self.live[slot] && !varying[slot] {
                self.push_pairs(slot);
            }
        }
        while let Some(Reverse(key)) = self.heap.pop() {
            let (cost, a, b) = key.unpack();
            if cost > cap {
                break;
            }
            if self.live[a] && self.live[b] {
                self.merge(a, b);
            }
        }
    }

    /// Empties the owner table (one entry per leg) and the pair heap
    /// for a new search.
    fn reset_search(&mut self) {
        self.owners.clear();
        self.owners.resize(self.n_legs, [None; 2]);
        self.heap.clear();
    }

    /// Contracts live slots `a` and `b` inside a heap-driven search:
    /// drops both from the owner table, records the step and pushes
    /// the new slot's pairs.
    fn merge(&mut self, a: usize, b: usize) {
        for slot in [a, b] {
            for i in self.start[slot]..self.start[slot + 1] {
                for owner in &mut self.owners[self.legs[i]] {
                    if *owner == Some(slot) {
                        *owner = None;
                    }
                }
            }
        }
        let c = self.contract(a, b);
        self.push_pairs(c);
    }

    /// Registers `slot` as an owner of its legs and pushes its pair
    /// with every live slot it shares a leg with. Those neighbours are
    /// all older than `slot`, so each pair enters as `(cost, lhs, rhs)`
    /// with `lhs < rhs`.
    fn push_pairs(&mut self, slot: usize) {
        let mut neighbours = std::mem::take(&mut self.neighbours);
        neighbours.clear();
        for i in self.start[slot]..self.start[slot + 1] {
            let pair = &mut self.owners[self.legs[i]];
            neighbours.extend(pair.iter().flatten().copied());
            if let Some(free) = pair.iter_mut().find(|o| o.is_none()) {
                *free = Some(slot);
            }
        }
        // Pairs sharing several legs are pushed once.
        neighbours.sort_unstable();
        neighbours.dedup();
        for &n in &neighbours {
            let cost = self.pair_cost(n, slot);
            self.heap.push(Reverse(PairKey::pack(cost, n, slot)));
        }
        self.neighbours = neighbours;
    }

    /// The sequential search: the first live slot with the first live
    /// slot it shares a leg with.
    fn search_sequential(&mut self) {
        while let Some(a) = (0..self.slot_count()).find(|&s| self.live[s]) {
            let connected =
                (a + 1..self.slot_count()).find(|&b| self.live[b] && self.connected(a, b));
            let Some((a, b)) = connected.map(|b| (a, b)).or_else(|| self.lowest_pair()) else {
                break;
            };
            self.contract(a, b);
        }
    }

    /// Records the contraction of live slots `a` (lhs) and `b` (rhs)
    /// and returns the new slot holding its result.
    fn contract(&mut self, a: usize, b: usize) -> usize {
        self.live[a] = false;
        self.live[b] = false;
        let (a0, a1) = (self.start[a], self.start[a + 1]);
        let (b0, b1) = (self.start[b], self.start[b + 1]);

        // Contracted axes: the lhs axes whose leg `b` shares, then the
        // rhs axes holding those legs, in the same order.
        let axes = self.axes.len();
        for i in a0..a1 {
            if self.legs[b0..b1].contains(&self.legs[i]) {
                self.axes.push(i - a0);
            }
        }
        let n_axes = self.axes.len() - axes;
        for i in a0..a1 {
            if let Some(j) = self.legs[b0..b1].iter().position(|&l| l == self.legs[i]) {
                self.axes.push(j);
            }
        }
        // Result shape: free axes of `a` then free axes of `b`,
        // matching `Tensor::contract`'s output layout.
        for i in a0..a1 {
            if !self.legs[b0..b1].contains(&self.legs[i]) {
                self.dims.push(self.dims[i]);
                self.legs.push(self.legs[i]);
            }
        }
        for j in b0..b1 {
            if !self.legs[a0..a1].contains(&self.legs[j]) {
                self.dims.push(self.dims[j]);
                self.legs.push(self.legs[j]);
            }
        }
        let c0 = self.start[self.start.len() - 1];
        self.start.push(self.dims.len());

        // Stats are advisory sizing, so saturate like `pair_cost`
        // does — adversarial shapes must not be able to panic the
        // planner (debug overflow checks).
        self.replay_stats.contractions += 1;
        let result_len = saturating_product(&self.dims[c0..]);
        self.replay_stats.max_intermediate = self.replay_stats.max_intermediate.max(result_len);
        let k = self.axes[axes..axes + n_axes]
            .iter()
            .fold(1usize, |acc, &i| acc.saturating_mul(self.dims[a0 + i]));
        let m = saturating_product(&self.dims[a0..a1]) / k.max(1);
        let n = saturating_product(&self.dims[b0..b1]) / k.max(1);
        let flops = (m as u128)
            .saturating_mul(k.max(1) as u128)
            .saturating_mul(n as u128);
        self.replay_stats.flops_proxy = self.replay_stats.flops_proxy.saturating_add(flops);
        self.step_flops.push(flops);

        let step_idx = self.steps.len();
        self.slot_parent[a] = Some(step_idx);
        self.slot_parent[b] = Some(step_idx);
        self.slot_parent.push(None);
        self.steps.push(PlanStep {
            lhs: a,
            rhs: b,
            axes,
            n_axes,
        });
        self.live.push(true);
        self.n_live -= 1;
        self.slot_count() - 1
    }

    /// The [`ReplayCost`] of the plan recorded so far.
    fn replay_cost(&mut self, varying: &[usize]) -> ReplayCost {
        let mut below = std::mem::take(&mut self.below);
        fill_varying_below(self.n_inputs, &self.steps, varying, &mut below);
        let cost = replay_cost_of(self.n_inputs, &self.step_flops, &below);
        self.below = below;
        cost
    }

    /// The permutation bringing the root's axes into ascending leg
    /// order, `None` when they already are (or there is no root).
    fn output_perm(&self) -> Option<Vec<usize>> {
        let root = (0..self.slot_count()).find(|&s| self.live[s])?;
        let legs = self.legs_of(root);
        let mut order: Vec<usize> = (0..legs.len()).collect();
        order.sort_by_key(|&i| legs[i]);
        (!order.windows(2).all(|w| w[0] < w[1])).then_some(order)
    }

    /// A copy of the plan recorded so far, in exactly sized buffers;
    /// the planner keeps its own for the next search.
    fn to_plan(&self) -> ContractionPlan {
        ContractionPlan {
            n_inputs: self.n_inputs,
            steps: self.steps.clone(),
            axes: self.axes.clone(),
            dims: self.dims.clone(),
            dim_start: self.start.clone(),
            slot_parent: self.slot_parent.clone(),
            output_perm: self.output_perm(),
            replay_stats: self.replay_stats,
            step_flops: self.step_flops.clone(),
        }
    }

    /// The recorded plan, its output axes normalised to ascending leg
    /// order.
    fn into_plan(self) -> ContractionPlan {
        ContractionPlan {
            output_perm: self.output_perm(),
            n_inputs: self.n_inputs,
            steps: self.steps,
            axes: self.axes,
            dims: self.dims,
            dim_start: self.start,
            slot_parent: self.slot_parent,
            replay_stats: self.replay_stats,
            step_flops: self.step_flops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_linalg::{cr, Matrix};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn rand_tensor(rng: &mut StdRng, shape: Vec<usize>) -> Tensor {
        let len = shape.iter().product();
        let data = (0..len)
            .map(|_| qns_linalg::c64(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
            .collect();
        Tensor::from_vec(data, shape)
    }

    fn chain_network(rng: &mut StdRng) -> (TensorNetwork, Matrix) {
        let a = rand_tensor(rng, vec![2, 3]);
        let b = rand_tensor(rng, vec![3, 4]);
        let c = rand_tensor(rng, vec![4, 2]);
        let expect = a.to_matrix().matmul(&b.to_matrix()).matmul(&c.to_matrix());
        let mut net = TensorNetwork::new();
        let (l0, l1, l2, l3) = (
            net.fresh_leg(),
            net.fresh_leg(),
            net.fresh_leg(),
            net.fresh_leg(),
        );
        net.add(a, vec![l0, l1]);
        net.add(b, vec![l1, l2]);
        net.add(c, vec![l2, l3]);
        (net, expect)
    }

    #[test]
    fn plan_execute_matches_contract_all() {
        for strategy in [OrderStrategy::Greedy, OrderStrategy::Sequential] {
            let mut rng = StdRng::seed_from_u64(11);
            let (net, expect) = chain_network(&mut rng);
            let plan = net.plan(strategy);
            let (planned, stats) = plan.execute_network(&net);
            assert!(planned.to_matrix().approx_eq(&expect, 1e-12));
            assert_eq!(stats.plan_reuses, 1);
            assert_eq!(stats.order_searches, 0);

            let (fresh, fresh_stats) = net.contract_all(strategy);
            assert_eq!(planned, fresh, "replay must be bit-identical");
            assert_eq!(stats.contractions, fresh_stats.contractions);
            assert_eq!(stats.max_intermediate, fresh_stats.max_intermediate);
            assert_eq!(stats.flops_proxy, fresh_stats.flops_proxy);
        }
    }

    #[test]
    fn execute_many_with_swapped_payloads() {
        let mut rng = StdRng::seed_from_u64(13);
        let (mut net, _) = chain_network(&mut rng);
        let plan = net.plan(OrderStrategy::Greedy);
        for round in 0..5 {
            let a = rand_tensor(&mut rng, vec![2, 3]);
            let b = rand_tensor(&mut rng, vec![3, 4]);
            let c = rand_tensor(&mut rng, vec![4, 2]);
            let expect = a.to_matrix().matmul(&b.to_matrix()).matmul(&c.to_matrix());
            for (i, t) in [a, b, c].into_iter().enumerate() {
                net.set_tensor(net.node_id(i), t);
            }
            let (out, stats) = plan.execute_network(&net);
            assert!(out.to_matrix().approx_eq(&expect, 1e-12), "round {round}");
            assert_eq!(stats.order_searches, 0);
        }
    }

    #[test]
    fn empty_plan_yields_scalar_one() {
        let net = TensorNetwork::new();
        let plan = net.plan(OrderStrategy::Greedy);
        let (t, stats) = plan.execute(&[]);
        assert_eq!(t.scalar_value(), Complex64::ONE);
        assert_eq!(stats.contractions, 0);
        assert_eq!(stats.plan_reuses, 1);
    }

    #[test]
    fn single_node_plan_permutes_to_leg_order() {
        let mut net = TensorNetwork::new();
        let l_hi = net.fresh_leg();
        let l_lo = net.fresh_leg();
        // Axes given as [l_lo-larger-id? no: legs are (fresh0, fresh1)];
        // register the tensor with descending leg ids so the output
        // must be permuted.
        let t = Tensor::from_vec(vec![cr(1.0), cr(2.0), cr(3.0), cr(4.0)], vec![2, 2]);
        net.add(t.clone(), vec![l_lo, l_hi]);
        let plan = net.plan(OrderStrategy::Greedy);
        let (out, _) = plan.execute_network(&net);
        // Ascending leg order is [l_hi, l_lo] since l_hi was allocated
        // first: output axes are swapped relative to the input.
        assert_eq!(out, t.permute(&[1, 0]));
    }

    #[test]
    fn disconnected_plan_outer_products() {
        let mut net = TensorNetwork::new();
        let l1 = net.fresh_leg();
        let l2 = net.fresh_leg();
        net.add(Tensor::from_vec(vec![cr(2.0)], vec![1]), vec![l1]);
        net.add(Tensor::from_vec(vec![cr(3.0)], vec![1]), vec![l2]);
        let plan = net.plan(OrderStrategy::Greedy);
        let (t, _) = plan.execute_network(&net);
        assert_eq!(t.as_slice()[0], cr(6.0));
    }

    #[test]
    fn tree_structure_is_consistent() {
        let mut rng = StdRng::seed_from_u64(19);
        let (net, _) = chain_network(&mut rng);
        for strategy in [OrderStrategy::Greedy, OrderStrategy::Sequential] {
            let plan = net.plan(strategy);
            assert_eq!(plan.slot_count(), plan.n_inputs() + plan.steps().len());
            // Exactly one root; every other slot has exactly one parent
            // that lists it as a child.
            let mut roots = 0;
            for slot in 0..plan.slot_count() {
                match plan.slot_parent(slot) {
                    None => roots += 1,
                    Some(step) => {
                        let (l, r) = plan.steps()[step].children();
                        assert!(l == slot || r == slot, "{strategy:?}: slot {slot}");
                        assert!(plan.n_inputs() + step > slot, "topological order");
                    }
                }
            }
            assert_eq!(roots, 1, "{strategy:?}");
            // Leaf paths are ascending step sequences ending at the root.
            for leaf in 0..plan.n_inputs() {
                let path = plan.leaf_path(leaf);
                assert!(path.windows(2).all(|w| w[0] < w[1]), "{strategy:?}");
                let last = *path.last().expect("chain has steps");
                assert_eq!(plan.slot_parent(plan.n_inputs() + last), None);
            }
            assert!(plan.tree_depth() >= 1 && plan.tree_depth() <= plan.steps().len());
        }
    }

    #[test]
    fn planning_saturates_on_adversarial_shapes() {
        // Two rank-4 nodes of dimension 2^16 per axis: intermediates
        // overflow usize on 64-bit when multiplied out. Planning (which
        // only does shape arithmetic) must saturate, not panic.
        let dim = 1usize << 16;
        let skeleton: Vec<(Vec<usize>, Vec<LegId>)> = vec![
            (vec![dim; 4], vec![0, 1, 2, 3]),
            (vec![dim; 4], vec![3, 4, 5, 6]),
        ];
        let nodes = skeleton.iter().map(|(s, l)| (s.as_slice(), l.as_slice()));
        let plan = ContractionPlan::from_skeleton(nodes, OrderStrategy::Greedy);
        let stats = plan.replay_stats();
        assert_eq!(stats.contractions, 1);
        assert_eq!(stats.max_intermediate, usize::MAX);
        assert!(stats.flops_proxy > 0);
    }

    #[test]
    fn plan_order_replays_a_searched_sequence() {
        let mut rng = StdRng::seed_from_u64(23);
        let (net, _) = chain_network(&mut rng);
        for strategy in [OrderStrategy::Greedy, OrderStrategy::Sequential] {
            let plan = net.plan(strategy);
            let order: Vec<(usize, usize)> = plan.steps().iter().map(PlanStep::children).collect();
            assert_eq!(net.plan_order(&order), plan, "{strategy:?}");
        }
    }

    #[test]
    #[should_panic(expected = "does not name two live slots")]
    fn plan_order_rejects_a_consumed_slot() {
        let mut rng = StdRng::seed_from_u64(29);
        let (net, _) = chain_network(&mut rng);
        let _ = net.plan_order(&[(0, 1), (0, 2)]);
    }

    #[test]
    #[should_panic(expected = "order leaves 2 live slots")]
    fn plan_order_rejects_an_incomplete_sequence() {
        let mut rng = StdRng::seed_from_u64(31);
        let (net, _) = chain_network(&mut rng);
        let _ = net.plan_order(&[(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "plan expects 3 input tensors")]
    fn arity_mismatch_panics() {
        let mut rng = StdRng::seed_from_u64(17);
        let (net, _) = chain_network(&mut rng);
        let plan = net.plan(OrderStrategy::Greedy);
        let _ = plan.execute(&[Tensor::zeros(vec![2, 3])]);
    }
}
