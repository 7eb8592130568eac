//! Level sums pinned to the bit.
//!
//! Every level contribution `T_0, T_1, T_2` of three paper-family
//! fixtures as raw `f64` bits: a kernel, layout or schedule change
//! that alters any bit of a level sum fails here, whatever the
//! tolerance-based suites say. Every level is summed in the same chunk
//! order whatever the thread count, so one, two and three threads must
//! all give them.
//!
//! The baseline moved once, when the levels above 0 moved from one
//! delta replay per pattern to one environment sweep per parent
//! pattern, with Neumaier-compensated chunk and level sums: a child's
//! amplitude is now a dot product of its site's environment with the
//! Kraus term, not a replay, so its last bits differ. `T_0` (one
//! replay, as before) kept its bits; `T_1` moved 3 ulp on `hf_vqe`
//! and 1 ulp on `inst_grid`, and every `T_2` 1 ulp (at most 5e-16
//! relative). The bits before were recorded with the scalar kernels
//! and the reader-side rhs copies, and held through the AVX2 row
//! update and the reader-layout storage of hot nodes.
//!
//! Each fixture's evaluator plan stores at least one hot node in its
//! reader's layout, so the pinned bits cover that path too.

use qns_circuit::generators::{hf_vqe, inst_grid, qaoa_ring, QaoaRound};
use qns_circuit::Circuit;
use qns_core::{approximate_expectation, planned_patterns_for_ranks, site_ranks, ApproxOptions};
use qns_linalg::Matrix;
use qns_noise::{channels, NoisyCircuit};
use qns_tnet::builder::{AmplitudeSkeleton, Insertion, ProductState};

/// One fixture: the circuit, its thermal noise placement and the basis
/// observable, with the pinned `to_bits` of `T_0..=T_2`.
struct Fixture {
    name: &'static str,
    circuit: fn() -> Circuit,
    noises: usize,
    seed: u64,
    observable: usize,
    bits: [u64; 3],
}

fn qaoa_16() -> Circuit {
    let rounds = [
        QaoaRound {
            gamma: 0.4,
            beta: 0.7,
        },
        QaoaRound {
            gamma: 0.9,
            beta: 0.3,
        },
    ];
    qaoa_ring(16, &rounds)
}

const FIXTURES: [Fixture; 3] = [
    Fixture {
        name: "hf_vqe(12, 6, 13)",
        circuit: || hf_vqe(12, 6, 13),
        noises: 12,
        seed: 0xD5EE,
        observable: 0b1111_1100_0000,
        bits: [
            0x3fc1_d866_9273_0dc2,
            0x3f25_68a5_c4c4_281b,
            0x3e77_749d_fd68_d207,
        ],
    },
    Fixture {
        name: "inst_grid(4, 4, 16, 34)",
        circuit: || inst_grid(4, 4, 16, 34),
        noises: 9,
        seed: 0xD5F0,
        observable: 0b1011_0010_0110_1001,
        bits: [
            0x3ef4_342a_3446_5252,
            0x3e75_3860_76cf_e9a1,
            0x3de5_39af_6f23_d1e8,
        ],
    },
    Fixture {
        name: "qaoa_ring(16)",
        circuit: qaoa_16,
        noises: 12,
        seed: 0xD5EE,
        observable: 0b0101_0101_0101_0101,
        bits: [
            0x3e92_8fbc_cdef_c3ec,
            0x3e15_f9ba_058c_c0fc,
            0x3d93_fdcf_d4da_b112,
        ],
    },
];

fn noisy(f: &Fixture) -> NoisyCircuit {
    let channel = channels::thermal_relaxation(30.0, 40.0, 25.0);
    NoisyCircuit::inject_random((f.circuit)(), &channel, f.noises, f.seed)
}

/// Hot nodes stored in their reader's layout in the plan the evaluator
/// compiles for `noisy`'s amplitude network: the delta-aware order
/// for the rank-aware level-1 pattern count, the noise sites varying.
fn pre_permuted_hot_nodes(noisy: &NoisyCircuit, observable: usize) -> usize {
    let n = noisy.n_qubits();
    let placeholders: Vec<Insertion> = noisy
        .initial_events()
        .iter()
        .map(|e| (usize::MAX, e.qubit))
        .chain(noisy.events().iter().map(|e| (e.after_gate, e.qubit)))
        .map(|(after_gate, qubit)| Insertion {
            after_gate,
            qubit,
            matrix: Matrix::identity(2),
        })
        .collect();
    let skel = AmplitudeSkeleton::new(
        noisy.circuit(),
        &ProductState::all_zeros(n),
        &ProductState::basis(n, observable),
        &placeholders,
        false,
    );
    let varying: Vec<usize> = (0..placeholders.len())
        .map(|i| skel.insertion_slot(i))
        .collect();
    let replays = planned_patterns_for_ranks(&site_ranks(noisy), 1);
    let (plan, _) = skel.network().plan_for_replay(&varying, replays);
    plan.compile_for_replay(skel.network(), &varying)
        .pre_permuted_hot_nodes()
}

#[test]
fn level_sums_keep_their_pinned_bits() {
    for f in &FIXTURES {
        let noisy = noisy(f);
        assert!(
            pre_permuted_hot_nodes(&noisy, f.observable) > 0,
            "{}: no hot node is stored in its reader's layout",
            f.name
        );
        let n = noisy.n_qubits();
        for threads in 1..=3 {
            let res = approximate_expectation(
                &noisy,
                &ProductState::all_zeros(n),
                &ProductState::basis(n, f.observable),
                &ApproxOptions::default().with_level(2).with_threads(threads),
            );
            let got: Vec<u64> = res.per_level.iter().map(|x| x.to_bits()).collect();
            assert_eq!(
                got, f.bits,
                "{} at {threads} thread(s): level sums {:?} moved",
                f.name, res.per_level
            );
        }
    }
}
