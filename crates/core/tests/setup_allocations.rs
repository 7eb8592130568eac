//! What an evaluator's set-up builds, pinned: its allocation count and
//! its plans.
//!
//! A counting `#[global_allocator]` tallies allocations per thread, so
//! the harness's other test threads cannot pollute the count.
//!
//! * **Allocation ceilings.** `LevelEvaluator::new` makes at most
//!   [`SETUP_PER_NODE`] allocations per network node, and the order
//!   search plus the lowering (with its cold run) at most
//!   [`SEARCH_LOWER_PER_NODE`] together, on paper-family circuits of at
//!   least 80 nodes with 4 and 12 thermal sites. Set-up is built from a
//!   fixed number of flat buffers per job; a per-node `Vec` anywhere in
//!   the search or the lowering breaks the second ceiling.
//! * **Plan identity.** For every `smoke_set()` circuit, and two deep
//!   circuits whose delta-aware search tries its cold-first candidates,
//!   with 4 and 12 thermal sites: a digest of the steps of the
//!   delta-aware, the greedy and the sequential plan, the compiled
//!   plan's replay statistics, its pre-permuted hot nodes and its
//!   workspace size. The values were recorded before the set-up moved
//!   to flat buffers; a change to the order search, the lowering or the
//!   workspace layout that alters any plan fails here.

use qns_circuit::generators::{hf_vqe, inst_grid, qaoa_grid_random};
use qns_circuit::Circuit;
use qns_core::{planned_patterns_for_ranks, site_ranks, ApproxOptions, LevelEvaluator};
use qns_linalg::Matrix;
use qns_noise::{channels, NoisyCircuit};
use qns_tnet::builder::{AmplitudeSkeleton, Insertion, ProductState};
use qns_tnet::exec::Workspace;
use qns_tnet::network::OrderStrategy;
use qns_tnet::plan::ContractionPlan;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocation calls per thread.
struct CountingAlloc;

fn count() {
    // `try_with`: the slot is gone while a thread tears down its TLS.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the counter never touches the allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `f`'s result and the allocations this thread made while running it.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let t = f();
    (t, ALLOCATIONS.with(Cell::get) - before)
}

/// Allocations per network node `LevelEvaluator::new` may make.
const SETUP_PER_NODE: u64 = 5;

/// Allocations per network node the order search and the lowering may
/// make together.
const SEARCH_LOWER_PER_NODE: u64 = 1;

/// The jobs' noise: thermal relaxation (T1 = 30 µs, T2 = 40 µs, 25 ns
/// gates) on `noises` random sites of `circuit`.
fn thermal(circuit: Circuit, noises: usize) -> NoisyCircuit {
    let channel = channels::thermal_relaxation(30.0, 40.0, 25.0);
    NoisyCircuit::inject_random(circuit, &channel, noises, 0x5E7 + noises as u64)
}

/// The evaluator's amplitude skeleton of `⟨0…0|·|0…0⟩` with an identity
/// placeholder at every noise site.
fn skeleton(noisy: &NoisyCircuit) -> AmplitudeSkeleton {
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
    AmplitudeSkeleton::new(
        noisy.circuit(),
        &ProductState::all_zeros(n),
        &ProductState::basis(n, 0),
        &placeholders,
        false,
    )
}

/// The network nodes of a skeleton's noise sites.
fn varying(skel: &AmplitudeSkeleton) -> Vec<usize> {
    (0..skel.insertion_count())
        .map(|i| skel.insertion_slot(i))
        .collect()
}

#[test]
fn evaluator_setup_allocates_a_bounded_number_of_times_per_node() {
    let fixtures = [
        ("hf_vqe(8, 4, 11)", hf_vqe(8, 4, 11)),
        (
            "qaoa_grid_random(3, 4, 2, 21)",
            qaoa_grid_random(3, 4, 2, 21),
        ),
        ("inst_grid(3, 3, 8, 31)", inst_grid(3, 3, 8, 31)),
        ("hf_vqe(12, 6, 13)", hf_vqe(12, 6, 13)),
    ];
    for (name, circuit) in fixtures {
        for noises in [4usize, 12] {
            let noisy = thermal(circuit.clone(), noises);
            let n = noisy.n_qubits();
            let (psi, v) = (ProductState::all_zeros(n), ProductState::basis(n, 0));
            let opts = ApproxOptions::default();
            let (_, setup) =
                allocations_in(|| LevelEvaluator::new(&noisy, &psi, &v, &opts).unwrap());

            let skel = skeleton(&noisy);
            let nodes = skel.network().node_count() as u64;
            assert!(nodes >= 80, "{name}: {nodes} nodes");
            let varying = varying(&skel);
            let replays = planned_patterns_for_ranks(&site_ranks(&noisy), 1);
            let ((plan, _), search) =
                allocations_in(|| skel.network().plan_for_replay(&varying, replays));
            let (_, lower) = allocations_in(|| plan.compile_for_replay(skel.network(), &varying));

            assert!(
                setup <= SETUP_PER_NODE * nodes,
                "{name}, {noises} sites: LevelEvaluator::new made {setup} allocations \
                 for {nodes} nodes"
            );
            assert!(
                search + lower <= SEARCH_LOWER_PER_NODE * nodes,
                "{name}, {noises} sites: search ({search}) and lowering ({lower}) \
                 allocated more than once per node ({nodes})"
            );
        }
    }
}

/// FNV-1a over every step's slots and contracted axes.
fn steps_digest(plan: &ContractionPlan) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: usize| {
        for b in (x as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (i, step) in plan.steps().iter().enumerate() {
        let (axes_lhs, axes_rhs) = plan.step_axes(i);
        eat(step.lhs);
        eat(step.rhs);
        eat(axes_lhs.len());
        axes_lhs.iter().chain(axes_rhs).for_each(|&a| eat(a));
    }
    h
}

/// What one job's set-up built, as recorded before the flat-buffer
/// set-up.
struct Pin {
    circuit: &'static str,
    noises: usize,
    /// Step digests of the delta-aware, greedy and sequential plans.
    replay: u64,
    greedy: u64,
    sequential: u64,
    /// Order searches the delta-aware planner ran.
    searches: usize,
    /// The compiled plan's `replay_stats()`: contractions, flops proxy,
    /// largest intermediate.
    stats: (usize, u128, usize),
    pre_permuted: usize,
    workspace: usize,
}

const PINS: [Pin; 10] = [
    Pin {
        circuit: "hf_6",
        noises: 4,
        replay: 0x8319_62d0_78a8_d582,
        greedy: 0x8319_62d0_78a8_d582,
        sequential: 0x07f5_b459_c106_4807,
        searches: 1,
        stats: (19, 888, 32),
        pre_permuted: 6,
        workspace: 238,
    },
    Pin {
        circuit: "hf_6",
        noises: 12,
        replay: 0x0e32_4b46_a414_fc65,
        greedy: 0x0e32_4b46_a414_fc65,
        sequential: 0x76d6_9798_c2c6_0184,
        searches: 1,
        stats: (38, 1176, 32),
        pre_permuted: 15,
        workspace: 382,
    },
    Pin {
        circuit: "qaoa_9",
        noises: 4,
        replay: 0xe937_cf38_7034_22aa,
        greedy: 0xe937_cf38_7034_22aa,
        sequential: 0xff59_f18c_2912_85a5,
        searches: 1,
        stats: (19, 2712, 64),
        pre_permuted: 13,
        workspace: 474,
    },
    Pin {
        circuit: "qaoa_9",
        noises: 12,
        replay: 0xa156_b0d7_edec_5d19,
        greedy: 0xa156_b0d7_edec_5d19,
        sequential: 0xa12f_ecca_c219_01b0,
        searches: 1,
        stats: (57, 3748, 64),
        pre_permuted: 27,
        workspace: 870,
    },
    Pin {
        circuit: "inst_2x3_8",
        noises: 4,
        replay: 0xf7e4_1256_a7fa_3b47,
        greedy: 0xf7e4_1256_a7fa_3b47,
        sequential: 0x670e_99f6_d94e_0f87,
        searches: 1,
        stats: (22, 192, 8),
        pre_permuted: 6,
        workspace: 68,
    },
    Pin {
        circuit: "inst_2x3_8",
        noises: 12,
        replay: 0x1ff0_97e7_dbd8_91c7,
        greedy: 0x1ff0_97e7_dbd8_91c7,
        sequential: 0xc78f_96c4_b6aa_4bc5,
        searches: 1,
        stats: (41, 316, 8),
        pre_permuted: 8,
        workspace: 132,
    },
    Pin {
        circuit: "hf_12",
        noises: 4,
        replay: 0xcfb6_55b7_9d2e_7de4,
        greedy: 0xcfb6_55b7_9d2e_7de4,
        sequential: 0xc26a_4918_7a44_0b6c,
        searches: 1,
        stats: (30, 346_368, 4096),
        pre_permuted: 15,
        workspace: 19_090,
    },
    Pin {
        circuit: "hf_12",
        noises: 12,
        replay: 0x58eb_9d4f_91b9_2a16,
        greedy: 0x58eb_9d4f_91b9_2a16,
        sequential: 0xf616_6c88_f32b_dcb4,
        searches: 5,
        stats: (61, 356_092, 8192),
        pre_permuted: 26,
        workspace: 26_970,
    },
    Pin {
        circuit: "inst_4x4_16",
        noises: 4,
        replay: 0xebbd_044a_afe9_8086,
        greedy: 0x9d19_052d_9c8b_3034,
        sequential: 0x93cb_d30a_14e6_be29,
        searches: 5,
        stats: (8, 335_872, 4096),
        pre_permuted: 5,
        workspace: 16_642,
    },
    Pin {
        circuit: "inst_4x4_16",
        noises: 12,
        replay: 0xeded_1989_0fda_e4c3,
        greedy: 0xdfe5_aa47_958f_035a,
        sequential: 0x369e_60f9_b698_c335,
        searches: 5,
        stats: (19, 195_612, 16_384),
        pre_permuted: 11,
        workspace: 25_104,
    },
];

/// The pinned circuits: `smoke_set()` (`hf_6`, `qaoa_9`, `inst_2x3_8`)
/// and two `full_set()` circuits.
fn circuit(name: &str) -> Circuit {
    match name {
        "hf_6" => hf_vqe(6, 3, 10),
        "qaoa_9" => qaoa_grid_random(3, 3, 2, 20),
        "inst_2x3_8" => inst_grid(2, 3, 8, 30),
        "hf_12" => hf_vqe(12, 6, 13),
        "inst_4x4_16" => inst_grid(4, 4, 16, 34),
        _ => unreachable!("no pinned circuit {name}"),
    }
}

#[test]
fn setup_builds_the_pinned_plans() {
    for pin in &PINS {
        let label = format!("{} with {} sites", pin.circuit, pin.noises);
        let noisy = thermal(circuit(pin.circuit), pin.noises);
        let skel = skeleton(&noisy);
        let varying = varying(&skel);
        let replays = planned_patterns_for_ranks(&site_ranks(&noisy), 1);
        let (plan, searched) = skel.network().plan_for_replay(&varying, replays);
        let exec = plan.compile_for_replay(skel.network(), &varying);
        let stats = exec.replay_stats();

        assert_eq!(steps_digest(&plan), pin.replay, "{label}: delta-aware plan");
        let greedy = skel.plan(OrderStrategy::Greedy);
        assert_eq!(steps_digest(&greedy), pin.greedy, "{label}: greedy plan");
        let sequential = skel.plan(OrderStrategy::Sequential);
        assert_eq!(
            steps_digest(&sequential),
            pin.sequential,
            "{label}: sequential plan"
        );
        assert_eq!(searched.order_searches, pin.searches, "{label}: searches");
        assert_eq!(
            (
                stats.contractions,
                stats.flops_proxy,
                stats.max_intermediate
            ),
            pin.stats,
            "{label}: replay stats"
        );
        assert_eq!(exec.pre_permuted_hot_nodes(), pin.pre_permuted, "{label}");
        assert_eq!(
            Workspace::for_plan(&exec).capacity(),
            pin.workspace,
            "{label}: workspace"
        );
    }
}
