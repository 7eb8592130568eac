//! Property-based tests (proptest) on randomly generated circuits,
//! channels and states.

use proptest::prelude::*;
use qns::circuit::{Circuit, Gate};
use qns::core::approx::{approximate_expectation, ApproxOptions};
use qns::core::bounds::level_patterns_for_ranks;
use qns::core::{GrayPatternStream, NoiseSvd};
use qns::linalg::Matrix;
use qns::noise::{channels, Kraus, NoiseEvent, NoisyCircuit};
use qns::sim::{density, statevector};
use qns::tnet::builder::ProductState;
use qns::tnet::network::OrderStrategy;

/// Strategy: a random circuit on `n` qubits with `g` gates.
fn random_circuit(n: usize, g: usize) -> impl Strategy<Value = Circuit> {
    let gate = prop_oneof![
        Just(GateSpec::H),
        Just(GateSpec::X),
        Just(GateSpec::T),
        (-3.0f64..3.0).prop_map(GateSpec::Rx),
        (-3.0f64..3.0).prop_map(GateSpec::Ry),
        (-3.0f64..3.0).prop_map(GateSpec::Rz),
        Just(GateSpec::Cx),
        Just(GateSpec::Cz),
        (-3.0f64..3.0).prop_map(GateSpec::Zz),
    ];
    proptest::collection::vec((gate, 0..n, 1..n), g).prop_map(move |specs| {
        let mut c = Circuit::new(n);
        for (spec, a, delta) in specs {
            let b = (a + delta) % n;
            match spec {
                GateSpec::H => c.h(a),
                GateSpec::X => c.x(a),
                GateSpec::T => c.t(a),
                GateSpec::Rx(t) => c.rx(a, t),
                GateSpec::Ry(t) => c.ry(a, t),
                GateSpec::Rz(t) => c.rz(a, t),
                GateSpec::Cx => c.cx(a, b),
                GateSpec::Cz => c.cz(a, b),
                GateSpec::Zz(t) => c.zz(a, b, t),
            };
        }
        c
    })
}

#[derive(Clone, Debug)]
enum GateSpec {
    H,
    X,
    T,
    Rx(f64),
    Ry(f64),
    Rz(f64),
    Cx,
    Cz,
    Zz(f64),
}

/// Strategy: a random CPTP single-qubit channel.
fn random_channel() -> impl Strategy<Value = Kraus> {
    prop_oneof![
        (0.0f64..0.3).prop_map(channels::depolarizing),
        (0.0f64..0.3).prop_map(channels::bit_flip),
        (0.0f64..0.3).prop_map(channels::phase_flip),
        (0.0f64..0.3).prop_map(channels::amplitude_damping),
        (0.0f64..0.3).prop_map(channels::phase_damping),
        (10.0f64..60.0, 0.2f64..1.8, 20.0f64..300.0).prop_map(|(t1, ratio, tg)| {
            channels::thermal_relaxation(t1, t1 * ratio.min(2.0), tg)
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn statevector_norm_is_preserved(c in random_circuit(4, 12)) {
        let out = statevector::run(&c, &statevector::zero_state(4));
        let norm: f64 = out.iter().map(|z| z.norm_sqr()).sum();
        prop_assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn random_channels_are_cptp(ch in random_channel()) {
        prop_assert!(ch.is_cptp(1e-9));
    }

    #[test]
    fn svd_expansion_reconstructs_any_channel(ch in random_channel()) {
        let svd = NoiseSvd::decompose(&ch);
        prop_assert!(svd.reconstruct().approx_eq(&ch.superoperator(), 1e-9));
    }

    #[test]
    fn lemma_2_holds_for_random_channels(ch in random_channel()) {
        let svd = NoiseSvd::decompose(&ch);
        prop_assert!(svd.dominant_error() <= 4.0 * ch.noise_rate() + 1e-9);
    }

    #[test]
    fn density_evolution_stays_physical(
        c in random_circuit(3, 8),
        ch in random_channel(),
        seed in 0u64..1000,
    ) {
        let noisy = NoisyCircuit::inject_random(c, &ch, 2, seed);
        let rho = density::run(&noisy, &statevector::zero_state(3));
        prop_assert!((rho.trace() - 1.0).abs() < 1e-9);
        prop_assert!(rho.is_valid_state(1e-8));
    }

    #[test]
    fn plan_execution_matches_fresh_contraction(
        c in random_circuit(3, 10),
        ch in random_channel(),
        seed in 0u64..1000,
        v_bits in 0usize..8,
    ) {
        // Plan-once/execute-many must agree with the search-as-you-go
        // contraction to 1e-12 on random networks — both the single
        // amplitude network and the double noisy network, under both
        // order strategies.
        use std::collections::BTreeMap;
        let noisy = NoisyCircuit::inject_random(c, &ch, 2, seed);
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, v_bits);
        for strategy in [OrderStrategy::Greedy, OrderStrategy::Sequential] {
            let amp_net = qns::tnet::builder::amplitude_network(noisy.circuit(), &psi, &v);
            let plan = amp_net.plan(strategy);
            let (planned, stats) = plan.execute_network(&amp_net);
            let (fresh, fresh_stats) = amp_net.contract_all(strategy);
            prop_assert!(
                planned.scalar_value().approx_eq(fresh.scalar_value(), 1e-12),
                "{strategy:?} amplitude: {} vs {}", planned.scalar_value(), fresh.scalar_value()
            );
            prop_assert_eq!(stats.contractions, fresh_stats.contractions);
            prop_assert_eq!(stats.order_searches, 0);
            prop_assert_eq!(fresh_stats.order_searches, 1);

            let dbl_net = qns::tnet::builder::double_network(&noisy, &psi, &v, &BTreeMap::new());
            let plan = dbl_net.plan(strategy);
            let planned = plan.execute_network(&dbl_net).0.scalar_value();
            let fresh = dbl_net.contract_all(strategy).0.scalar_value();
            prop_assert!(
                planned.approx_eq(fresh, 1e-12),
                "{strategy:?} double: {planned} vs {fresh}"
            );
        }
    }

    #[test]
    fn tn_matches_density_on_random_configs(
        c in random_circuit(3, 10),
        ch in random_channel(),
        seed in 0u64..1000,
        v_bits in 0usize..8,
    ) {
        let noisy = NoisyCircuit::inject_random(c, &ch, 2, seed);
        let mm = density::expectation(
            &noisy,
            &statevector::zero_state(3),
            &statevector::basis_state(3, v_bits),
        );
        let tn = qns::tnet::simulator::expectation(
            &noisy,
            &ProductState::all_zeros(3),
            &ProductState::basis(3, v_bits),
            OrderStrategy::Greedy,
        );
        prop_assert!((mm - tn).abs() < 1e-8, "mm {} vs tn {}", mm, tn);
    }

    #[test]
    fn tdd_matches_density_on_random_configs(
        c in random_circuit(3, 10),
        ch in random_channel(),
        seed in 0u64..1000,
        v_bits in 0usize..8,
    ) {
        let noisy = NoisyCircuit::inject_random(c, &ch, 2, seed);
        let mm = density::expectation(
            &noisy,
            &statevector::zero_state(3),
            &statevector::basis_state(3, v_bits),
        );
        let dd = qns::tdd::expectation(
            &noisy,
            &qns::tdd::simulator::zeros(3),
            &qns::tdd::simulator::basis(3, v_bits),
        );
        prop_assert!((mm - dd).abs() < 1e-8, "mm {} vs dd {}", mm, dd);
    }

    #[test]
    fn full_level_approximation_is_exact_on_random_configs(
        c in random_circuit(3, 8),
        ch in random_channel(),
        seed in 0u64..1000,
    ) {
        let noisy = NoisyCircuit::inject_random(c, &ch, 2, seed);
        let mm = density::expectation(
            &noisy,
            &statevector::zero_state(3),
            &statevector::basis_state(3, 0),
        );
        let res = approximate_expectation(
            &noisy,
            &ProductState::all_zeros(3),
            &ProductState::basis(3, 0),
            &ApproxOptions::default().with_level(2), // 2 noises ⇒ exact
        );
        prop_assert!((mm - res.value).abs() < 1e-8, "mm {} vs A(N) {}", mm, res.value);
    }

    #[test]
    fn approximation_error_within_theorem_bound(
        c in random_circuit(3, 8),
        p in 1e-4f64..1e-2,
        seed in 0u64..1000,
    ) {
        let noisy = NoisyCircuit::inject_random(c, &channels::depolarizing(p), 3, seed);
        let rate = noisy.max_noise_rate();
        let mm = density::expectation(
            &noisy,
            &statevector::zero_state(3),
            &statevector::basis_state(3, 0),
        );
        for level in 0..=2usize {
            let res = approximate_expectation(
                &noisy,
                &ProductState::all_zeros(3),
                &ProductState::basis(3, 0),
                &ApproxOptions::default().with_level(level),
            );
            let bound = qns::core::bounds::error_bound(3, rate, level);
            prop_assert!(
                (res.value - mm).abs() <= bound + 1e-10,
                "level {}: err {} > bound {}", level, (res.value - mm).abs(), bound
            );
        }
    }

    #[test]
    fn circuit_unitary_is_unitary(c in random_circuit(3, 10)) {
        prop_assert!(c.unitary().is_unitary(1e-9));
    }

    #[test]
    fn dagger_composition_is_identity(c in random_circuit(3, 8)) {
        let u = c.unitary();
        let ud = c.dagger().unitary();
        prop_assert!(u.matmul(&ud).approx_eq(&Matrix::identity(8), 1e-9));
    }

    #[test]
    fn gate_matrices_are_unitary(theta in -6.3f64..6.3) {
        for g in [
            Gate::Rx(theta), Gate::Ry(theta), Gate::Rz(theta),
            Gate::Phase(theta), Gate::ZZ(theta), Gate::Givens(theta),
            Gate::CPhase(theta), Gate::FSim(theta, theta / 2.0),
        ] {
            prop_assert!(g.matrix().is_unitary(1e-10), "{} not unitary", g.name());
        }
    }

    #[test]
    fn noise_event_positions_respected(
        c in random_circuit(4, 10),
        after in 0usize..10,
        qubit in 0usize..4,
        p in 0.0f64..0.3,
    ) {
        let ev = NoiseEvent {
            after_gate: after.min(9),
            qubit,
            kraus: channels::depolarizing(p),
        };
        let noisy = NoisyCircuit::new(c, vec![ev]);
        // Interleaving yields gates+noise in order.
        let els = noisy.elements();
        prop_assert_eq!(els.len(), noisy.circuit().gate_count() + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The rank-aware pattern stream is the full Gray walk with the
    /// patterns that use a zero term left out: the same patterns in
    /// the same relative order, as many as the ranked count, each
    /// reporting its exact diff against the previous emitted pattern.
    #[test]
    fn ranked_stream_is_the_filtered_full_walk(
        n in 0usize..8,
        u_pick in 0usize..8,
        all_ranks in proptest::collection::vec(1usize..5, 7),
    ) {
        let u = u_pick % (n + 1);
        let ranks = &all_ranks[..n];
        let mut full = GrayPatternStream::new(n, u);
        let mut ranked = GrayPatternStream::with_ranks(ranks, u);
        let mut pat = vec![0usize; n];
        let mut expected = Vec::new();
        while full.next_into(&mut pat) {
            if pat.iter().zip(ranks).all(|(&t, &r)| t < r) {
                expected.push(pat.clone());
            }
        }
        let mut prev = vec![0usize; n]; // the all-dominant pattern
        let mut emitted = 0usize;
        while ranked.next_into(&mut pat) {
            prop_assert!(emitted < expected.len(), "extra pattern {:?}", pat);
            prop_assert_eq!(&pat, &expected[emitted]);
            let diff: Vec<usize> = (0..n).filter(|&i| pat[i] != prev[i]).collect();
            let mut reported = ranked.changed_sites().to_vec();
            reported.sort_unstable();
            prop_assert_eq!(reported, diff, "changed_sites of pattern {}", emitted);
            prev.copy_from_slice(&pat);
            emitted += 1;
        }
        prop_assert_eq!(emitted, expected.len());
        prop_assert_eq!(emitted as u128, level_patterns_for_ranks(ranks, u));
        prop_assert!(ranked.changed_sites().is_empty());
    }
}
