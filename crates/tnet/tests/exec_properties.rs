//! Property tests of the compiled execution engine: an
//! [`ExecutablePlan`] replayed through a [`Workspace`] must be
//! **bit-identical** to the allocating reference path
//! (`ContractionPlan::execute_network_reference`, which chains
//! `Tensor::contract`) on randomly shaped networks with random axis
//! orders and random contraction orders — including when one dirty workspace is reused across
//! different payload sets back-to-back.

use proptest::prelude::*;
use qns_linalg::{c64, Complex64};
use qns_tensor::Tensor;
use qns_tnet::exec::Workspace;
use qns_tnet::network::{LegId, OrderStrategy, TensorNetwork};
use qns_tnet::plan::ContractionPlan;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn rand_tensor(rng: &mut StdRng, shape: Vec<usize>) -> Tensor {
    let len = shape.iter().product();
    let data = (0..len)
        .map(|_| c64(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
        .collect();
    Tensor::from_vec(data, shape)
}

/// Builds a random network: a spanning tree over `k` nodes with random
/// bond dimensions, extra open legs, and per-node axis orders shuffled
/// so operand permutations are genuinely exercised (not all elided).
/// Returns the network and the per-node shapes (for payload swaps).
fn random_network(rng: &mut StdRng, k: usize) -> (TensorNetwork, Vec<Vec<usize>>) {
    let mut net = TensorNetwork::new();
    // node → (legs, dims), assembled before tensors are added.
    let mut node_legs: Vec<Vec<(usize, usize)>> = vec![Vec::new(); k];
    for i in 1..k {
        let j = rng.random_range(0..i);
        let bond = net.fresh_leg();
        let dim = rng.random_range(1..4usize);
        node_legs[i].push((bond, dim));
        node_legs[j].push((bond, dim));
    }
    for legs in node_legs.iter_mut() {
        for _ in 0..rng.random_range(0..3usize) {
            let open = net.fresh_leg();
            legs.push((open, rng.random_range(1..3usize)));
        }
        if legs.is_empty() {
            // Rank-0 nodes are unsupported by `TensorNetwork::add`'s
            // callers here; give isolated nodes one open leg.
            let open = net.fresh_leg();
            legs.push((open, rng.random_range(1..3usize)));
        }
        // Fisher–Yates shuffle of the axis order.
        for t in (1..legs.len()).rev() {
            let s = rng.random_range(0..t + 1);
            legs.swap(t, s);
        }
    }
    let mut shapes = Vec::with_capacity(k);
    for legs in &node_legs {
        let shape: Vec<usize> = legs.iter().map(|&(_, d)| d).collect();
        let ids: Vec<usize> = legs.iter().map(|&(l, _)| l).collect();
        net.add(rand_tensor(rng, shape.clone()), ids);
        shapes.push(shape);
    }
    (net, shapes)
}

/// A random valid plan of `net`, the order compared against greedy's:
/// each pair joins a random live slot with a random live slot sharing a
/// leg with it (any other live slot when none does), either side first.
fn random_plan(rng: &mut StdRng, net: &TensorNetwork) -> ContractionPlan {
    let mut slots: Vec<Option<Vec<LegId>>> = (0..net.node_count())
        .map(|i| Some(net.node_legs(i).to_vec()))
        .collect();
    let mut order = Vec::new();
    loop {
        let live: Vec<usize> = (0..slots.len()).filter(|&s| slots[s].is_some()).collect();
        if live.len() < 2 {
            return net.plan_order(&order);
        }
        let a = live[rng.random_range(0..live.len())];
        let legs_a = slots[a].as_ref().unwrap();
        let others: Vec<usize> = live.iter().copied().filter(|&b| b != a).collect();
        let linked: Vec<usize> = others
            .iter()
            .copied()
            .filter(|&b| {
                slots[b]
                    .as_ref()
                    .unwrap()
                    .iter()
                    .any(|l| legs_a.contains(l))
            })
            .collect();
        let pick = if linked.is_empty() { &others } else { &linked };
        let b = pick[rng.random_range(0..pick.len())];
        let (legs_a, legs_b) = (slots[a].take().unwrap(), slots[b].take().unwrap());
        let merged = legs_a
            .iter()
            .filter(|l| !legs_b.contains(l))
            .chain(legs_b.iter().filter(|l| !legs_a.contains(l)))
            .copied()
            .collect();
        slots.push(Some(merged));
        order.push(if rng.random_range(0..2u32) == 0 {
            (a, b)
        } else {
            (b, a)
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compiled execution is bit-identical to the reference
    /// `Tensor::contract` replay on random skeletons, for the greedy
    /// plan and a random one — and so is the allocating replay.
    #[test]
    fn compiled_matches_reference_bitwise(seed in 0u64..5000, k in 2usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (net, _) = random_network(&mut rng, k);
        let random = random_plan(&mut StdRng::seed_from_u64(seed ^ 0x0DE7), &net);
        for plan in [net.plan(OrderStrategy::Greedy), random] {
            let (reference, _) = plan.execute_network_reference(&net);

            let exec = plan.compile();
            let mut ws = Workspace::new();
            let out = exec.execute_network_into(&net, &mut ws);
            prop_assert_eq!(exec.output_shape(), reference.shape(), "{:?}", plan.steps());
            prop_assert_eq!(out, reference.as_slice(), "{:?}", plan.steps());

            let (wrapped, _) = plan.execute_network(&net);
            prop_assert_eq!(&wrapped, &reference, "{:?}", plan.steps());
        }
    }

    /// One dirty workspace reused across two different payload sets
    /// back-to-back reproduces each set's reference result bit for
    /// bit, and stops allocating after the first execution.
    #[test]
    fn dirty_workspace_reuse_is_exact(seed in 0u64..5000, k in 2usize..6) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1137);
        let (mut net, shapes) = random_network(&mut rng, k);
        let plan = net.plan(OrderStrategy::Greedy);
        let exec = plan.compile();
        let mut ws = Workspace::new();

        // First payload set warms (and dirties) the workspace.
        let first = exec.execute_network_into(&net, &mut ws).to_vec();
        let (ref_first, _) = plan.execute_network_reference(&net);
        prop_assert_eq!(first, ref_first.as_slice().to_vec());
        let warm = ws.allocation_events();

        // Swap every payload and replay through the same workspace.
        for (i, shape) in shapes.iter().enumerate() {
            net.set_tensor(net.node_id(i), rand_tensor(&mut rng, shape.clone()));
        }
        let second = exec.execute_network_into(&net, &mut ws).to_vec();
        let (ref_second, _) = plan.execute_network_reference(&net);
        prop_assert_eq!(second, ref_second.as_slice().to_vec());

        // Steady state: the second execution allocated nothing.
        prop_assert_eq!(ws.allocation_events(), warm);
    }

    /// Delta replay after mutating an arbitrary subset of leaves is
    /// bit-identical to the reference contraction of the mutated
    /// network, never executes more steps than a full replay, and
    /// stops allocating once warm — across repeated rounds (including
    /// empty dirty sets) on one workspace.
    #[test]
    fn delta_matches_reference_bitwise(seed in 0u64..5000, k in 2usize..6) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDE17A);
        let (mut net, shapes) = random_network(&mut rng, k);
        let plan = net.plan(OrderStrategy::Greedy);
        let exec = plan.compile();
        let mut ws = Workspace::new();
        exec.execute_network_into(&net, &mut ws); // warm the node cache
        // An all-leaves delta sizes the dirty-step merge buffer to its
        // maximum; every later delta must then be allocation-free.
        let all: Vec<usize> = (0..k).collect();
        exec.execute_network_delta_into(&net, &all, &mut ws);
        let warm = ws.allocation_events();
        for _round in 0..4 {
            let dirty: Vec<usize> = (0..k).filter(|_| rng.random_range(0..2u32) == 0).collect();
            for &i in &dirty {
                net.set_tensor(net.node_id(i), rand_tensor(&mut rng, shapes[i].clone()));
            }
            let (out, stats) = exec.execute_network_delta_into(&net, &dirty, &mut ws);
            let out = out.to_vec();
            let (reference, _) = plan.execute_network_reference(&net);
            prop_assert_eq!(out, reference.as_slice().to_vec());
            prop_assert!(stats.contractions <= exec.replay_stats().contractions);
            prop_assert_eq!(ws.allocation_events(), warm);
        }
    }

    /// Interleaving a foreign plan between a full run and a delta
    /// cools the workspace: the delta must detect the evicted node
    /// cache, fall back to a full replay, and still be bit-identical
    /// to the reference.
    #[test]
    fn delta_after_foreign_plan_is_exact(seed in 0u64..5000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF0E16);
        let (mut net_a, shapes_a) = random_network(&mut rng, 4);
        let (net_b, _) = random_network(&mut rng, 3);
        let plan_a = net_a.plan(OrderStrategy::Greedy);
        let exec_a = plan_a.compile();
        let exec_b = net_b.plan(OrderStrategy::Greedy).compile();
        let mut ws = Workspace::new();
        exec_a.execute_network_into(&net_a, &mut ws);
        exec_b.execute_network_into(&net_b, &mut ws); // evicts a's cache
        net_a.set_tensor(net_a.node_id(0), rand_tensor(&mut rng, shapes_a[0].clone()));
        let (out, stats) = exec_a.execute_network_delta_into(&net_a, &[0], &mut ws);
        let out = out.to_vec();
        let (reference, _) = plan_a.execute_network_reference(&net_a);
        prop_assert_eq!(out, reference.as_slice().to_vec());
        // The fallback executed the whole plan, not just node 0's path.
        prop_assert_eq!(stats.contractions, exec_a.replay_stats().contractions);
    }

    /// A workspace serves the plans of *different* skeletons (as the
    /// split evaluator's up/lo pair does) without cross-talk.
    #[test]
    fn one_workspace_across_two_plans(seed in 0u64..5000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCDE);
        let (net_a, _) = random_network(&mut rng, 3);
        let (net_b, _) = random_network(&mut rng, 4);
        let exec_a = net_a.plan(OrderStrategy::Greedy).compile();
        let exec_b = net_b.plan(OrderStrategy::Greedy).compile();
        let mut ws = Workspace::new();
        for _ in 0..3 {
            let out_a = exec_a.execute_network_into(&net_a, &mut ws).to_vec();
            let out_b = exec_b.execute_network_into(&net_b, &mut ws).to_vec();
            let (ref_a, _) = net_a.plan(OrderStrategy::Greedy).execute_network_reference(&net_a);
            let (ref_b, _) = net_b.plan(OrderStrategy::Greedy).execute_network_reference(&net_b);
            prop_assert_eq!(out_a, ref_a.as_slice().to_vec());
            prop_assert_eq!(out_b, ref_b.as_slice().to_vec());
        }
    }
}

/// A random subset of `0..k` (each node with probability ½).
fn random_subset(rng: &mut StdRng, k: usize) -> Vec<usize> {
    (0..k).filter(|_| rng.random_range(0..2u32) == 0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A plan compiled with a random varying set runs its cold part
    /// once and only hot steps afterwards: full and delta replays over
    /// random dirty sequences of varying leaves are bit-identical to
    /// the reference contraction of the mutated network, for the
    /// greedy plan and for the delta-aware search (a huge replay count
    /// makes it try every candidate).
    #[test]
    fn hot_cold_replay_matches_reference_bitwise(seed in 0u64..5000, k in 2usize..8) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC01D);
        let (mut net, shapes) = random_network(&mut rng, k);
        let varying = random_subset(&mut rng, k);
        let (searched, _) = net.plan_for_replay(&varying, 1 << 40);
        for plan in [net.plan(OrderStrategy::Greedy), searched] {
            let exec = plan.compile_for_replay(&net, &varying);
            let cost = plan.replay_cost(&varying);
            prop_assert_eq!(exec.replay_stats().contractions, cost.hot_steps);
            for leaf in 0..k {
                prop_assert_eq!(exec.is_varying(leaf), varying.contains(&leaf));
            }
            let mut ws = Workspace::new();
            let out = exec.execute_network_into(&net, &mut ws).to_vec();
            let (reference, _) = plan.execute_network_reference(&net);
            prop_assert_eq!(out, reference.as_slice().to_vec());
            for _round in 0..4 {
                let dirty: Vec<usize> = varying
                    .iter()
                    .copied()
                    .filter(|_| rng.random_range(0..2u32) == 0)
                    .collect();
                for &i in &dirty {
                    net.set_tensor(net.node_id(i), rand_tensor(&mut rng, shapes[i].clone()));
                }
                let (out, stats) = exec.execute_network_delta_into(&net, &dirty, &mut ws);
                let out = out.to_vec();
                let (reference, _) = plan.execute_network_reference(&net);
                prop_assert_eq!(out, reference.as_slice().to_vec());
                prop_assert!(stats.contractions <= cost.hot_steps);
            }
            // A full replay through a fresh workspace agrees as well.
            let mut fresh = Workspace::new();
            let full = exec.execute_network_into(&net, &mut fresh).to_vec();
            let (reference, _) = plan.execute_network_reference(&net);
            prop_assert_eq!(full, reference.as_slice().to_vec());
        }
    }
}

/// A random tiny network: a spanning tree over `k` nodes plus up to two
/// extra bonds, every bond of dimension 1 or 2, per-node axis orders
/// shuffled, and open legs of dimension 1 or 2 only when `open` (else
/// the network contracts to a scalar, which a sweep needs). Its steps
/// are the small ones the fixed-width kernels, the one-column path and
/// the entry-wise reverse steps take, in every mix of gathered and
/// row-major operands.
fn tiny_network(rng: &mut StdRng, k: usize, open: bool) -> (TensorNetwork, Vec<Vec<usize>>) {
    let mut net = TensorNetwork::new();
    let mut node_legs: Vec<Vec<(usize, usize)>> = vec![Vec::new(); k];
    let mut edges: Vec<(usize, usize)> = (1..k).map(|i| (i, rng.random_range(0..i))).collect();
    for _ in 0..rng.random_range(0..3usize) {
        edges.push((rng.random_range(0..k), rng.random_range(0..k)));
    }
    for (i, j) in edges.into_iter().filter(|(i, j)| i != j) {
        let (leg, dim) = (net.fresh_leg(), rng.random_range(1..3usize));
        node_legs[i].push((leg, dim));
        node_legs[j].push((leg, dim));
    }
    for legs in node_legs.iter_mut() {
        if open {
            for _ in 0..rng.random_range(0..2usize) {
                let leg = net.fresh_leg();
                legs.push((leg, rng.random_range(1..3usize)));
            }
        }
        for t in (1..legs.len()).rev() {
            let s = rng.random_range(0..t + 1);
            legs.swap(t, s);
        }
    }
    let mut shapes = Vec::with_capacity(k);
    for legs in &node_legs {
        let shape: Vec<usize> = legs.iter().map(|&(_, d)| d).collect();
        let ids: Vec<usize> = legs.iter().map(|&(l, _)| l).collect();
        net.add(rand_tensor(rng, shape.clone()), ids);
        shapes.push(shape);
    }
    (net, shapes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On tiny networks, for the greedy plan, a random one and the
    /// delta-aware search, lowered with every leaf varying and with a
    /// random varying set: full replays and delta replays over random
    /// dirty sets are bit-identical to the reference replay, and, when
    /// the network contracts to a scalar, a sweep's leaf environments
    /// price the single-leaf substitutions: `Σ E·U` is the replayed
    /// scalar with the leaf's payload `U`, for its own payload and
    /// another.
    #[test]
    fn tiny_networks_replay_and_sweep_exactly(seed in 0u64..5000, k in 2usize..9) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7117);
        let open = seed % 3 == 0;
        let (mut net, shapes) = tiny_network(&mut rng, k, open);
        let varying = random_subset(&mut rng, k);
        let (searched, _) = net.plan_for_replay(&varying, 1 << 40);
        let plans = [
            net.plan(OrderStrategy::Greedy),
            random_plan(&mut StdRng::seed_from_u64(seed ^ 0x0DE7), &net),
            searched,
        ];
        for plan in plans {
            for every_leaf in [true, false] {
                // Lowered against the payloads of the moment: the
                // varying set's plan folds the others into its cold
                // cache.
                let exec = match every_leaf {
                    true => plan.compile(),
                    false => plan.compile_for_replay(&net, &varying),
                };
                let leaves: Vec<usize> = (0..k).filter(|&l| exec.is_varying(l)).collect();
                let mut ws = Workspace::new();
                let out = exec.execute_network_into(&net, &mut ws).to_vec();
                let (reference, _) = plan.execute_network_reference(&net);
                prop_assert_eq!(out, reference.as_slice().to_vec());
                for _round in 0..3 {
                    let dirty: Vec<usize> = leaves
                        .iter()
                        .copied()
                        .filter(|_| rng.random_range(0..2u32) == 0)
                        .collect();
                    for &i in &dirty {
                        net.set_tensor(net.node_id(i), rand_tensor(&mut rng, shapes[i].clone()));
                    }
                    let (out, _) = exec.execute_network_delta_into(&net, &dirty, &mut ws);
                    let out = out.to_vec();
                    let (reference, _) = plan.execute_network_reference(&net);
                    prop_assert_eq!(out, reference.as_slice().to_vec());
                }
                if open {
                    continue;
                }
                let scalar = exec.execute_network_scalar(&net, &mut ws);
                let mut envs = Vec::new();
                exec.sweep_network_envs(&net, &leaves, &mut ws, |leaf, env| {
                    envs.push((leaf, env.to_vec()));
                });
                prop_assert_eq!(envs.len(), leaves.len());
                let close = |got: Complex64, want: Complex64| {
                    (got - want).abs() <= 1e-12 * want.abs().max(1.0)
                };
                for (leaf, env) in &envs {
                    let dot = |t: &Tensor| {
                        env.iter()
                            .zip(t.as_slice())
                            .fold(Complex64::ZERO, |acc, (&e, &u)| acc + e * u)
                    };
                    prop_assert!(close(dot(net.node_tensor(*leaf)), scalar), "leaf {}", leaf);
                    let saved = net.node_tensor(*leaf).clone();
                    let other = rand_tensor(&mut rng, shapes[*leaf].clone());
                    net.set_tensor(net.node_id(*leaf), other.clone());
                    let replayed = exec.execute_network_scalar(&net, &mut Workspace::new());
                    prop_assert!(close(dot(&other), replayed), "leaf {} substituted", leaf);
                    net.set_tensor(net.node_id(*leaf), saved);
                }
            }
        }
    }
}

/// Naming a leaf outside the varying set as dirty panics: its payload
/// was folded into the cold cache when the plan was compiled.
#[test]
#[should_panic(expected = "is not a varying leaf")]
fn delta_on_a_cold_leaf_panics() {
    let mut rng = StdRng::seed_from_u64(0xC0FE);
    let (net, _) = random_network(&mut rng, 4);
    let exec = net
        .plan(OrderStrategy::Greedy)
        .compile_for_replay(&net, &[0, 1]);
    let mut ws = Workspace::new();
    exec.execute_network_into(&net, &mut ws);
    let _ = exec.execute_network_delta_into(&net, &[2], &mut ws);
}

/// A closed ring of three 2 × 2 matrices, with node 1 replaced by a
/// 2 × 3 one when `longer`: the same node count, but not the shapes a
/// plan of the ring was made for.
fn ring(longer: bool) -> TensorNetwork {
    let mut rng = StdRng::seed_from_u64(0x51A9);
    let mut net = TensorNetwork::new();
    let legs = [net.fresh_leg(), net.fresh_leg(), net.fresh_leg()];
    for i in 0..3 {
        let shape = if longer && i == 1 {
            vec![2, 3]
        } else {
            vec![2, 2]
        };
        net.add(
            rand_tensor(&mut rng, shape),
            vec![legs[i], legs[(i + 1) % 3]],
        );
    }
    net
}

/// A sweep through a warm workspace reads the network it is given, not
/// the one that warmed it: an input of the wrong length panics wherever
/// it is read (node 1 is the factor of its sibling's environment).
#[test]
#[should_panic(expected = "input tensor 1 length")]
fn sweep_of_a_mismatched_network_panics() {
    let net = ring(false);
    let exec = net
        .plan(OrderStrategy::Greedy)
        .compile_for_replay(&net, &[0, 1, 2]);
    let mut ws = Workspace::new();
    exec.execute_network_into(&net, &mut ws);
    let _ = exec.sweep_network_envs(&ring(true), &[0, 1, 2], &mut ws, |_, _| {});
}

/// Likewise a delta replay whose dirty leaves are not the mismatched
/// one: a step on their paths reads node 1.
#[test]
#[should_panic(expected = "input tensor 1 length")]
fn delta_of_a_mismatched_network_panics() {
    let net = ring(false);
    let exec = net
        .plan(OrderStrategy::Greedy)
        .compile_for_replay(&net, &[0, 1, 2]);
    let mut ws = Workspace::new();
    exec.execute_network_into(&net, &mut ws);
    let _ = exec.execute_network_delta_into(&ring(true), &[0, 2], &mut ws);
}

/// With no varying leaf every step is cold: the whole contraction ran
/// at compile time and an execution only copies the result out.
#[test]
fn plan_without_varying_leaves_runs_no_step() {
    let mut rng = StdRng::seed_from_u64(0xC0FF);
    let (net, _) = random_network(&mut rng, 5);
    let plan = net.plan(OrderStrategy::Greedy);
    let exec = plan.compile_for_replay(&net, &[]);
    assert_eq!(exec.replay_stats().contractions, 0);
    let mut ws = Workspace::new();
    let (out, stats) = exec.execute_network_delta_into(&net, &[], &mut ws);
    assert_eq!(stats.contractions, 0);
    let (reference, _) = plan.execute_network_reference(&net);
    assert_eq!(out, reference.as_slice());
}

/// Deterministic edge cases the random generator may not hit.
#[test]
fn edge_cases_match_reference() {
    // Disconnected network: pure outer products.
    let mut net = TensorNetwork::new();
    let (l1, l2) = (net.fresh_leg(), net.fresh_leg());
    let mut rng = StdRng::seed_from_u64(99);
    net.add(rand_tensor(&mut rng, vec![3]), vec![l1]);
    net.add(rand_tensor(&mut rng, vec![2]), vec![l2]);
    let plan = net.plan(OrderStrategy::Greedy);
    let exec = plan.compile();
    let mut ws = Workspace::new();
    let out = exec.execute_network_into(&net, &mut ws);
    let (reference, _) = plan.execute_network_reference(&net);
    assert_eq!(out, reference.as_slice());
    assert_eq!(exec.output_shape(), reference.shape());

    // Single node whose axes must be permuted into leg order.
    let mut net = TensorNetwork::new();
    let hi = net.fresh_leg();
    let lo = net.fresh_leg();
    net.add(rand_tensor(&mut rng, vec![2, 3]), vec![lo, hi]);
    let plan = net.plan(OrderStrategy::Greedy);
    let (reference, _) = plan.execute_network_reference(&net);
    let exec = plan.compile();
    let out = exec.execute_network_into(&net, &mut ws);
    assert_eq!(out, reference.as_slice());
}
