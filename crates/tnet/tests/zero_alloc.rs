//! Warmed pattern-sum replays allocate nothing.
//!
//! A counting `#[global_allocator]` tallies allocations per thread, so
//! the harness's other test threads cannot pollute the count. Each
//! case compiles a delta-aware replay plan with the noise sites
//! varying — the plan the approximate evaluator runs — then replays
//! every level-0–2 assignment of the sites' Kraus operators twice:
//! once to warm the workspace, once counted. The counted pass runs a
//! full replay, and per pattern one delta replay and one environment
//! sweep of the sites above the pattern's highest active site (the
//! sweep a parent pattern gets), which drives the `qns-linalg` matmul
//! kernels, the executor's step loop and its reverse steps; it must
//! perform zero heap allocations. The HF-VQE plan stores hot nodes in
//! their reader's layout, so the staged, permuted writes of those
//! nodes and their reverse scatters are counted too.

use qns_circuit::generators::{hf_vqe, inst_grid};
use qns_circuit::Circuit;
use qns_linalg::Matrix;
use qns_noise::{channels, NoisyCircuit};
use qns_tensor::Tensor;
use qns_tnet::builder::{AmplitudeSkeleton, Insertion, ProductState};
use qns_tnet::exec::Workspace;
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

/// Allocations this thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Every term assignment of levels 0–2 (at most two sites off their
/// dominant term 0), each site ranging over its Kraus operators.
fn patterns(ranks: &[usize]) -> Vec<Vec<usize>> {
    let n = ranks.len();
    let mut out = vec![vec![0; n]];
    for i in 0..n {
        for ti in 1..ranks[i] {
            let mut p = vec![0; n];
            p[i] = ti;
            out.push(p.clone());
            for j in i + 1..n {
                for tj in 1..ranks[j] {
                    p[j] = tj;
                    out.push(p.clone());
                }
                p[j] = 0;
            }
        }
    }
    out
}

/// Allocation counts of [`replay_allocations`].
struct Replays {
    warm_up: u64,
    counted: u64,
    /// The plan's hot nodes stored in their reader's layout.
    pre_permuted: usize,
}

/// Warms, then counts, full and delta replays and sweeps of `circuit` with
/// `noises` thermal sites at placement `seed`.
fn replay_allocations(circuit: Circuit, noises: usize, seed: u64) -> Replays {
    let channel = channels::thermal_relaxation(30.0, 40.0, 25.0);
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
    let mut skel = AmplitudeSkeleton::new(
        noisy.circuit(),
        &ProductState::all_zeros(n),
        &ProductState::basis(n, 0),
        &placeholders,
        false,
    );
    let payloads: Vec<Vec<Tensor>> = noisy
        .events()
        .iter()
        .map(|e| {
            e.kraus
                .operators()
                .iter()
                .map(Tensor::from_matrix)
                .collect()
        })
        .collect();
    let ranks: Vec<usize> = payloads.iter().map(Vec::len).collect();
    let varying: Vec<usize> = (0..noises).map(|i| skel.insertion_slot(i)).collect();
    let pats = patterns(&ranks);
    let (plan, _) = skel.network().plan_for_replay(&varying, pats.len() as u128);
    let exec = plan.compile_for_replay(skel.network(), &varying);

    let mut ws = Workspace::new();
    let mut current = vec![usize::MAX; noises];
    let mut dirty = Vec::with_capacity(noises);
    let mut pass = |skel: &mut AmplitudeSkeleton| {
        let mut acc = exec.execute_network_scalar(skel.network(), &mut ws);
        for p in &pats {
            dirty.clear();
            for (i, &t) in p.iter().enumerate() {
                if current[i] != t {
                    current[i] = t;
                    skel.set_insertion_payload(i, &payloads[i][t]);
                    dirty.push(varying[i]);
                }
            }
            let (amp, _) = exec.execute_network_delta_scalar(skel.network(), &dirty, &mut ws);
            acc += amp * amp.conj();
            // Sweep the installed pattern for the sites above its top
            // one, as a parent of the next level.
            let above = p.iter().rposition(|&t| t != 0).map_or(0, |top| top + 1);
            let _ =
                exec.sweep_network_envs(skel.network(), &varying[above..], &mut ws, |_, env| {
                    acc += env[0];
                });
        }
        assert!(acc.re.is_finite());
    };
    let warm_up = allocations_in(|| pass(&mut skel));
    let counted = allocations_in(|| pass(&mut skel));
    Replays {
        warm_up,
        counted,
        pre_permuted: exec.pre_permuted_hot_nodes(),
    }
}

#[test]
fn warmed_hf_vqe_replays_do_not_allocate() {
    let r = replay_allocations(hf_vqe(12, 6, 13), 12, 0xD5EE);
    assert!(r.pre_permuted > 0, "no hot node in its reader's layout");
    assert!(r.warm_up > 0, "the warm-up sizes the workspace arena");
    assert_eq!(
        r.counted, 0,
        "warmed full + delta replays and sweeps allocated"
    );
}

#[test]
fn warmed_inst_grid_replays_do_not_allocate() {
    let r = replay_allocations(inst_grid(4, 4, 16, 34), 9, 0xD5F0);
    assert!(r.warm_up > 0, "the warm-up sizes the workspace arena");
    assert_eq!(
        r.counted, 0,
        "warmed full + delta replays and sweeps allocated"
    );
}
