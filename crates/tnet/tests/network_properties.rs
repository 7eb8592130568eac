//! Property-based tests of the tensor-network engine: contraction
//! results must be independent of the contraction order (greedy's, or
//! node order through `plan_order`) and match direct tensor algebra on
//! randomly shaped chains, and the incremental greedy order search must
//! record exactly the plan of the all-pairs rescan it replaced.

use proptest::prelude::*;
use qns_circuit::generators::{hf_vqe, inst_grid, qaoa_grid_random};
use qns_circuit::Circuit;
use qns_linalg::{c64, Matrix};
use qns_noise::{channels, NoisyCircuit};
use qns_tensor::Tensor;
use qns_tnet::builder::{double_network, AmplitudeSkeleton, Insertion, ProductState};
use qns_tnet::network::{LegId, OrderStrategy, TensorNetwork};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;

fn tensor_strategy(shape: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let len: usize = shape.iter().product();
    proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), len).prop_map(move |vals| {
        Tensor::from_vec(
            vals.into_iter().map(|(re, im)| c64(re, im)).collect(),
            shape.clone(),
        )
    })
}

/// The pairs contracting `net`'s nodes in insertion order: `0·1`, then
/// that result with node 2, and so on — the order compared against
/// greedy's.
fn sequential_order(net: &TensorNetwork) -> Vec<(usize, usize)> {
    let n = net.node_count();
    (1..n)
        .map(|i| (if i == 1 { 0 } else { n + i - 2 }, i))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A chain A·B·C of random bond sizes contracts to the matrix
    /// product in greedy and in node order.
    #[test]
    fn chain_matches_matrix_product(
        d0 in 1usize..4,
        d1 in 1usize..4,
        d2 in 1usize..4,
        d3 in 1usize..4,
        seed_a in tensor_strategy(vec![3, 3]),
    ) {
        // seed_a only forces proptest to vary; real tensors below.
        let _ = seed_a;
        let mk = |shape: Vec<usize>, salt: usize| {
            let len: usize = shape.iter().product();
            let data = (0..len)
                .map(|i| c64(((i * 7 + salt * 13) % 11) as f64 / 11.0 - 0.5,
                             ((i * 5 + salt * 3) % 7) as f64 / 7.0 - 0.5))
                .collect();
            Tensor::from_vec(data, shape)
        };
        let a = mk(vec![d0, d1], 1);
        let b = mk(vec![d1, d2], 2);
        let c = mk(vec![d2, d3], 3);
        let expect = a.to_matrix().matmul(&b.to_matrix()).matmul(&c.to_matrix());

        let mut net = TensorNetwork::new();
        let l0 = net.fresh_leg();
        let l1 = net.fresh_leg();
        let l2 = net.fresh_leg();
        let l3 = net.fresh_leg();
        net.add(a, vec![l0, l1]);
        net.add(b, vec![l1, l2]);
        net.add(c, vec![l2, l3]);
        let (t, _) = net.plan_order(&sequential_order(&net)).execute_network(&net);
        prop_assert!(t.to_matrix().approx_eq(&expect, 1e-9), "sequential");
        let (t, _) = net.contract_all();
        prop_assert!(t.to_matrix().approx_eq(&expect, 1e-9), "greedy");
    }

    /// A closed ring (trace of a matrix product) contracts to a scalar
    /// equal to the trace.
    #[test]
    fn ring_contracts_to_trace(
        d0 in 1usize..4,
        d1 in 1usize..4,
        salt in 0usize..50,
    ) {
        let mk = |shape: Vec<usize>, s: usize| {
            let len: usize = shape.iter().product();
            let data = (0..len)
                .map(|i| c64(((i * 3 + s) % 13) as f64 / 13.0 - 0.5,
                             ((i + s * 7) % 5) as f64 / 5.0 - 0.5))
                .collect();
            Tensor::from_vec(data, shape)
        };
        let a = mk(vec![d0, d1], salt);
        let b = mk(vec![d1, d0], salt + 1);
        let expect = a.to_matrix().matmul(&b.to_matrix()).trace();

        let mut net = TensorNetwork::new();
        let l0 = net.fresh_leg();
        let l1 = net.fresh_leg();
        net.add(a, vec![l0, l1]);
        net.add(b, vec![l1, l0]);
        let (t, _) = net.contract_all();
        prop_assert!(t.scalar_value().approx_eq(expect, 1e-9));
    }

    /// A plan computed from a random chain skeleton replays to the
    /// same result as a fresh contraction — including when the
    /// payloads are swapped after planning.
    #[test]
    fn plan_replay_matches_fresh_contraction_on_chains(
        d0 in 1usize..4,
        d1 in 1usize..4,
        d2 in 1usize..4,
        d3 in 1usize..4,
        salt in 0usize..50,
    ) {
        let mk = |shape: Vec<usize>, s: usize| {
            let len: usize = shape.iter().product();
            let data = (0..len)
                .map(|i| c64(((i * 7 + s * 13) % 11) as f64 / 11.0 - 0.5,
                             ((i * 5 + s * 3) % 7) as f64 / 7.0 - 0.5))
                .collect();
            Tensor::from_vec(data, shape)
        };
        for sequential in [false, true] {
            let mut net = TensorNetwork::new();
            let l0 = net.fresh_leg();
            let l1 = net.fresh_leg();
            let l2 = net.fresh_leg();
            let l3 = net.fresh_leg();
            net.add(mk(vec![d0, d1], salt), vec![l0, l1]);
            net.add(mk(vec![d1, d2], salt + 1), vec![l1, l2]);
            let last = net.add(mk(vec![d2, d3], salt + 2), vec![l2, l3]);

            // A fresh contraction: a new search, or the node order.
            let fresh = |net: &TensorNetwork| match sequential {
                true => net.plan_order(&sequential_order(net)).execute_network(net).0,
                false => net.clone().contract_all().0,
            };
            let plan = match sequential {
                true => net.plan_order(&sequential_order(&net)),
                false => net.plan(OrderStrategy::Greedy),
            };
            let (planned, stats) = plan.execute_network(&net);
            prop_assert_eq!(stats.order_searches, 0);
            prop_assert_eq!(stats.plan_reuses, 1);

            // Swap one payload and replay: must equal a fresh
            // contraction of the updated network.
            net.set_tensor(last, mk(vec![d2, d3], salt + 9));
            let (replayed, _) = plan.execute_network(&net);
            let swapped = fresh(&net);
            prop_assert_eq!(replayed.shape(), swapped.shape());
            for (a, b) in replayed.as_slice().iter().zip(swapped.as_slice()) {
                prop_assert!(a.approx_eq(*b, 1e-12), "sequential {}: {} vs {}", sequential, a, b);
            }

            // And the original (pre-swap) result matches its own fresh
            // contraction too.
            net.set_tensor(last, mk(vec![d2, d3], salt + 2));
            let orig = fresh(&net);
            for (a, b) in planned.as_slice().iter().zip(orig.as_slice()) {
                prop_assert!(a.approx_eq(*b, 1e-12));
            }
        }
    }

    /// Greedy and node order agree on star-shaped networks (hub with
    /// spokes).
    #[test]
    fn strategies_agree_on_stars(spokes in 2usize..5, salt in 0usize..20) {
        let mk = |shape: Vec<usize>, s: usize| {
            let len: usize = shape.iter().product();
            let data = (0..len)
                .map(|i| c64(((i * 11 + s) % 9) as f64 / 9.0 - 0.5, 0.0))
                .collect();
            Tensor::from_vec(data, shape)
        };
        let run = |sequential: bool| {
            let mut net = TensorNetwork::new();
            let legs: Vec<_> = (0..spokes).map(|_| net.fresh_leg()).collect();
            net.add(mk(vec![2; spokes], salt), legs.clone());
            for (k, &l) in legs.iter().enumerate() {
                net.add(mk(vec![2], salt + k + 1), vec![l]);
            }
            match sequential {
                true => net.plan_order(&sequential_order(&net)).execute_network(&net).0,
                false => net.contract_all().0,
            }
            .scalar_value()
        };
        let g = run(false);
        let s = run(true);
        prop_assert!(g.approx_eq(s, 1e-9), "{g} vs {s}");
    }
}

/// The all-pairs rescan the incremental greedy search replaced, kept
/// as its oracle. Every step rescans the live slots' pairs in
/// ascending `(lhs, rhs)` order and keeps the first strict minimum of
/// the result size among pairs sharing a leg; with no connected pair
/// left it outer-products the two lowest live slots. Returns the
/// chosen pair sequence (`O(n³)`: keep oracle networks small).
fn rescan_order(net: &TensorNetwork) -> Vec<(usize, usize)> {
    let mut slots: Vec<Option<(Vec<usize>, Vec<LegId>)>> = (0..net.node_count())
        .map(|i| {
            Some((
                net.node_tensor(i).shape().to_vec(),
                net.node_legs(i).to_vec(),
            ))
        })
        .collect();
    let mut order = Vec::new();
    loop {
        let live: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].is_some()).collect();
        if live.len() < 2 {
            return order;
        }
        let mut best: Option<(usize, usize, usize)> = None;
        for (ii, &a) in live.iter().enumerate() {
            let (sa, la) = slots[a].as_ref().unwrap();
            for &b in &live[ii + 1..] {
                let (sb, lb) = slots[b].as_ref().unwrap();
                if !la.iter().any(|l| lb.contains(l)) {
                    continue;
                }
                let free = |s: &[usize], l: &[LegId], other: &[LegId]| {
                    l.iter()
                        .zip(s)
                        .filter(|(leg, _)| !other.contains(leg))
                        .fold(1usize, |acc, (_, &d)| acc.saturating_mul(d))
                };
                let cost = free(sa, la, lb).saturating_mul(free(sb, lb, la));
                if best.is_none_or(|(_, _, c)| cost < c) {
                    best = Some((a, b, cost));
                }
            }
        }
        let (a, b) = best.map_or((live[0], live[1]), |(a, b, _)| (a, b));
        let (sa, la) = slots[a].take().unwrap();
        let (sb, lb) = slots[b].take().unwrap();
        let mut merged = (Vec::new(), Vec::new());
        for (s, l, other) in [(&sa, &la, &lb), (&sb, &lb, &la)] {
            for (&d, &leg) in s.iter().zip(l) {
                if !other.contains(&leg) {
                    merged.0.push(d);
                    merged.1.push(leg);
                }
            }
        }
        slots.push(Some(merged));
        order.push((a, b));
    }
}

/// Asserts the greedy search's plan equals the plan of the rescan's
/// pair sequence — steps, axes, tree, output permutation and replay
/// statistics.
fn assert_greedy_matches_rescan(net: &TensorNetwork, what: &str) {
    let heap_plan = net.plan(OrderStrategy::Greedy);
    let rescan_plan = net.plan_order(&rescan_order(net));
    assert_eq!(heap_plan, rescan_plan, "{what}");
}

/// Largest node rank in [`random_network`] (keeps payloads ≤ 3⁶).
const MAX_RANK: usize = 6;

/// A random network of `n` nodes in `components` disjoint groups
/// (node `i` is in group `i % components`). Bonds join random node
/// pairs within a group, a third of them doubled into a second
/// parallel leg; `open` open legs hang off random nodes. Bond
/// dimensions are all 2 when `uniform` (every tie in the greedy cost
/// is exercised), else drawn from `1..=3`. Leg ids are sparse and
/// allocated in shuffled order, and each node's legs are shuffled, so
/// the planner's leg renumbering and output permutation are exercised.
fn random_network(
    rng: &mut StdRng,
    n: usize,
    bonds: usize,
    open: usize,
    components: usize,
    uniform: bool,
) -> TensorNetwork {
    let mut legs: Vec<Vec<(LegId, usize)>> = vec![Vec::new(); n];
    let mut ids: Vec<LegId> = (0..2 * bonds + open).map(|k| 5 + 3 * k).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.random_range(0..i + 1));
    }
    let mut next_id = ids.into_iter();
    let dim = |rng: &mut StdRng| {
        if uniform {
            2
        } else {
            rng.random_range(1..4usize)
        }
    };
    for _ in 0..bonds {
        let group = rng.random_range(0..components);
        let members: Vec<usize> = (group..n).step_by(components).collect();
        if members.len() < 2 {
            continue;
        }
        let a = members[rng.random_range(0..members.len())];
        let b = members[rng.random_range(0..members.len())];
        let parallel = if rng.random_range(0..3usize) == 0 {
            2
        } else {
            1
        };
        if a == b || legs[a].len() + parallel > MAX_RANK || legs[b].len() + parallel > MAX_RANK {
            continue;
        }
        for _ in 0..parallel {
            let (id, d) = (next_id.next().unwrap(), dim(rng));
            legs[a].push((id, d));
            legs[b].push((id, d));
        }
    }
    for _ in 0..open {
        let a = rng.random_range(0..n);
        if legs[a].len() < MAX_RANK {
            legs[a].push((next_id.next().unwrap(), dim(rng)));
        }
    }
    let mut net = TensorNetwork::new();
    for mut node in legs {
        for i in (1..node.len()).rev() {
            node.swap(i, rng.random_range(0..i + 1));
        }
        let shape: Vec<usize> = node.iter().map(|&(_, d)| d).collect();
        net.add(Tensor::zeros(shape), node.iter().map(|&(l, _)| l).collect());
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With no varying leaf the delta-aware search is the greedy
    /// search, step for step, and runs exactly one search.
    #[test]
    fn replay_search_without_varying_leaves_is_greedy(
        seed in 0u64..1_000_000,
        n in 1usize..48,
        density in 0usize..4,
        components in 1usize..4,
        replays in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_network(&mut rng, n, n * density / 2 + n, 2, components, false);
        let (plan, stats) = net.plan_for_replay(&[], replays as u128);
        prop_assert_eq!(&plan, &net.plan(OrderStrategy::Greedy));
        prop_assert_eq!(stats.order_searches, 1);
    }

    /// With varying leaves the search never picks a plan whose
    /// modelled cost is above the greedy plan's.
    #[test]
    fn replay_search_never_models_worse_than_greedy(
        seed in 0u64..1_000_000,
        n in 2usize..40,
        density in 0usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_network(&mut rng, n, n * density / 2 + n, 2, 1, false);
        let varying: Vec<usize> = (0..n).filter(|_| rng.random_range(0..3u32) == 0).collect();
        let replays = 1u128 << 30;
        let (plan, stats) = net.plan_for_replay(&varying, replays);
        let greedy = net.plan(OrderStrategy::Greedy);
        let k = varying.len();
        prop_assert!(
            plan.replay_cost(&varying).modelled(k, replays)
                <= greedy.replay_cost(&varying).modelled(k, replays)
        );
        prop_assert!(stats.order_searches >= 1);
    }

    /// The greedy search records the rescan's plan on random networks:
    /// tie-heavy or mixed bond dimensions, parallel legs, open legs and
    /// disconnected components (including isolated nodes).
    #[test]
    fn greedy_plan_matches_rescan_on_random_networks(
        seed in 0u64..1_000_000,
        n in 1usize..48,
        density in 0usize..4,
        open in 0usize..6,
        components in 1usize..4,
        uniform in 0usize..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_network(&mut rng, n, n * density / 2 + n, open, components, uniform == 1);
        assert_greedy_matches_rescan(&net, &format!("seed {seed}, n {n}"));
    }
}

/// The same on a few networks near the oracle's size limit.
#[test]
fn greedy_plan_matches_rescan_on_large_random_networks() {
    for (seed, n, components, uniform) in
        [(1u64, 200, 1, true), (2, 160, 3, false), (3, 240, 1, false)]
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_network(&mut rng, n, 2 * n, n / 10, components, uniform);
        assert_greedy_matches_rescan(&net, &format!("seed {seed}, n {n}"));
    }
}

/// Asserts the greedy search records the rescan's plan on the
/// evaluator's amplitude network and the exact engine's double network
/// of a paper-family circuit, with the noise placement of the
/// benchmark's level-3 job on it.
fn assert_paper_skeletons_match_rescan(name: &str, circuit: Circuit, noises: usize, seed: u64) {
    let channel = channels::thermal_relaxation(30.0, 40.0, 25.0);
    let noisy = NoisyCircuit::inject_random(circuit, &channel, noises, seed);
    let psi = ProductState::all_zeros(noisy.n_qubits());
    let v = ProductState::basis(noisy.n_qubits(), 0);
    let placeholders: Vec<Insertion> = noisy
        .events()
        .iter()
        .map(|e| Insertion {
            after_gate: e.after_gate,
            qubit: e.qubit,
            matrix: Matrix::identity(2),
        })
        .collect();
    let amplitude = AmplitudeSkeleton::new(noisy.circuit(), &psi, &v, &placeholders, false);
    let double = double_network(&noisy, &psi, &v, &BTreeMap::new());
    for (kind, net) in [("amplitude", amplitude.network()), ("double", &double)] {
        assert_greedy_matches_rescan(net, &format!("{name} {kind}"));
    }
}

/// On the `deep_sum` placements of `inst_4x4_16` and `hf_12` the
/// delta-aware search runs its candidates and picks a plan other than
/// greedy whose modelled replay cost per varying leaf is lower; on
/// `qaoa_16` it keeps the greedy plan.
#[test]
fn replay_search_beats_greedy_on_the_deep_paper_jobs() {
    let channel = channels::thermal_relaxation(30.0, 40.0, 25.0);
    for (name, circuit, noises, seed, improves) in [
        ("inst_4x4_16", inst_grid(4, 4, 16, 34), 9, 0xD5F0, true),
        ("hf_12", hf_vqe(12, 6, 13), 12, 0xD5EE, true),
        ("qaoa_16", qaoa_grid_random(4, 4, 2, 22), 12, 0xD5EE, false),
    ] {
        let noisy = NoisyCircuit::inject_random(circuit, &channel, noises, seed);
        let n = noisy.n_qubits();
        let placeholders: Vec<Insertion> = noisy
            .events()
            .iter()
            .map(|e| Insertion {
                after_gate: e.after_gate,
                qubit: e.qubit,
                matrix: Matrix::identity(2),
            })
            .collect();
        let skel = AmplitudeSkeleton::new(
            noisy.circuit(),
            &ProductState::all_zeros(n),
            &ProductState::basis(n, 0),
            &placeholders,
            false,
        );
        let varying: Vec<usize> = (0..noises).map(|i| skel.insertion_slot(i)).collect();
        // The rank-aware level-1 count of rank-3 thermal noise.
        let replays = 1 + 2 * noises as u128;
        let greedy = skel.plan(OrderStrategy::Greedy);
        let (plan, stats) = skel.network().plan_for_replay(&varying, replays);
        let (g, p) = (greedy.replay_cost(&varying), plan.replay_cost(&varying));
        if improves {
            assert!(stats.order_searches > 1, "{name}: candidates ran");
            assert_ne!(plan, greedy, "{name}");
            assert!(p.path_flops < g.path_flops, "{name}: {p:?} vs {g:?}");
            assert!(
                p.modelled(noises, replays) < g.modelled(noises, replays),
                "{name}"
            );
        } else {
            assert_eq!(plan, greedy, "{name}");
        }
    }
}

#[test]
fn greedy_plan_matches_rescan_on_qaoa_16() {
    assert_paper_skeletons_match_rescan("qaoa_16", qaoa_grid_random(4, 4, 2, 22), 12, 0xD5EE);
}

#[test]
fn greedy_plan_matches_rescan_on_inst_4x4_16() {
    assert_paper_skeletons_match_rescan("inst_4x4_16", inst_grid(4, 4, 16, 34), 9, 0xD5F0);
}

#[test]
fn greedy_plan_matches_rescan_on_hf_12() {
    assert_paper_skeletons_match_rescan("hf_12", hf_vqe(12, 6, 13), 12, 0xD5EE);
}
