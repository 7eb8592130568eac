//! Property tests for the anytime refinement subsystem: for random
//! circuits, channels and noise placements, the level-streamed partial
//! sums must be *bitwise* identical to direct one-shot runs at the
//! same level (sequential and parallel), resuming from cached
//! per-level contributions must not change a single bit, and the
//! streamed Theorem-1 bounds must tighten monotonically to zero.

use proptest::prelude::*;
use qns::api::{ApproxBackend, Backend, Simulation};
use qns::circuit::Circuit;
use qns::core::bounds;
use qns::noise::{channels, Kraus, NoisyCircuit};

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
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn streamed_levels_match_direct_runs_bitwise(
        c in random_circuit(3, 8),
        ch in random_channel(),
        seed in 0u64..1000,
        v_bits in 0usize..8,
        threads in 1usize..5,
    ) {
        let noisy = NoisyCircuit::inject_random(c, &ch, 3, seed);
        let n = noisy.noise_count();
        let job = Simulation::new(&noisy).observable_basis(v_bits).build().unwrap();

        let backend = ApproxBackend::level(n).with_threads(threads);
        let mut refinement = backend.refinement(&job).unwrap();
        let ranks = qns::core::site_ranks(&noisy);
        let mut last_bound = f64::INFINITY;
        for level in 0..=n {
            let partial = refinement.advance().unwrap();
            prop_assert_eq!(partial.level, level);
            prop_assert_eq!(
                partial.patterns_done as u128,
                bounds::planned_patterns_for_ranks(&ranks, level)
            );

            // Bitwise identity against a fresh one-shot run at this
            // level under the same options.
            let direct = ApproxBackend::level(level)
                .with_threads(threads)
                .expectation(&job)
                .unwrap();
            prop_assert_eq!(
                partial.value.to_bits(),
                direct.value.to_bits(),
                "level {} (threads {})", level, threads
            );

            // Theorem-1 bounds tighten monotonically…
            prop_assert!(partial.theorem1_bound <= last_bound);
            prop_assert!(partial.theorem1_bound >= 0.0);
            last_bound = partial.theorem1_bound;
        }
        // …and vanish (up to fp residue of the bound's difference of
        // near-equal products) once every level is in.
        prop_assert!(last_bound <= 1e-9);
        prop_assert!(refinement.is_complete());
    }

    #[test]
    fn resuming_from_recorded_levels_changes_no_bits(
        c in random_circuit(3, 8),
        ch in random_channel(),
        seed in 0u64..1000,
        split in 0usize..4,
    ) {
        let noisy = NoisyCircuit::inject_random(c, &ch, 3, seed);
        let n = noisy.noise_count();
        let job = Simulation::new(&noisy).observable_basis(0).build().unwrap();
        let backend = ApproxBackend::level(n);

        // Reference stream, all levels computed.
        let mut fresh = backend.refinement(&job).unwrap();
        let reference: Vec<_> = (0..=n).map(|_| fresh.advance().unwrap()).collect();

        // Resumed stream: the first `split` levels install the
        // recorded contributions, the rest compute.
        let split = split.min(n);
        let mut resumed = backend.refinement(&job).unwrap();
        for p in reference.iter().take(split) {
            resumed.install_level(p.level_contribution, p.level_patterns).unwrap();
        }
        for (level, expected) in reference.iter().enumerate().skip(split) {
            let got = resumed.advance().unwrap();
            prop_assert_eq!(
                got.value.to_bits(),
                expected.value.to_bits(),
                "level {} after resuming {} cached levels", level, split
            );
            prop_assert_eq!(got.theorem1_bound.to_bits(), expected.theorem1_bound.to_bits());
        }
    }
}
