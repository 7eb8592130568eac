//! Per-pattern contraction-kernel benchmark: replays the pattern sum's
//! payload-swap-and-contract loop on the QAOA and supremacy registry
//! workloads through both execution paths —
//!
//! * the **allocating reference** (the pre-compilation path:
//!   `ContractionPlan::execute_network_reference`, which chains
//!   `Tensor::contract` with fresh buffers and permuted copies every
//!   step), and
//! * the **compiled** path (`ExecutablePlan` + one reusable
//!   `Workspace`: precomputed kernels, zero steady-state allocations),
//!
//! and reports per-pattern latency and speedup into
//! `BENCH_contract.json` (CI uploads it as an artifact).
//!
//! Usage:
//!   cargo run -p qns-bench --release --bin contract_bench -- \
//!       [--smoke] [--patterns P] [--noises N] [--out PATH]
//!
//! The first two sections replay what the approximation evaluator
//! replays: one amplitude network `⟨v|K_p ψ⟩` with the Kraus `U` terms
//! of its thermal noise sites inserted, summed as `Σ amp·conj(amp)`
//! over rank-aware patterns (no pattern uses an exactly-zero Kraus
//! term). Each reports the median of repeated timed passes.
//!
//! The second section replays a **minimal-change (Gray-ordered) level-2
//! pattern sequence** — the pattern sum's real access pattern — through
//! the full compiled path and through **delta replay**
//! (`ExecutablePlan::execute_network_delta_scalar`: only the
//! contraction-tree paths fed by changed payloads re-execute, every
//! other intermediate is reused from the persistent workspace arena),
//! and reports the per-pattern speedup under `"incremental"` in the
//! JSON.
//!
//! A third section times the **order search** itself
//! (`TensorNetwork::plan`, the once-per-run planning layer) on each
//! workload's amplitude network and on the double network the exact
//! `tnet` engine contracts, as the median of repeated runs, and reports
//! it under `"planning"` as `plan_us`.
//!
//! A fourth section compares the **delta-aware plan**
//! (`TensorNetwork::plan_for_replay`, the evaluator's order search)
//! with the plain greedy plan on every registry circuit, both compiled
//! with the noise sites varying (`ContractionPlan::compile_for_replay`,
//! so the noise-free part is contracted once): the modelled `m·k·n`
//! and the measured µs of replaying one varying leaf's path, on the
//! same amplitude network and its rank-aware level-1 Gray sequence. It
//! is reported under `"delta_aware"`.
//!
//! A fifth section times the **kernel layer** alone: one matmul step
//! (`qns_linalg::kernels::matmul_into`) per shape that dominates the
//! `deep_sum` level sums, through the scalar oracle
//! (`kernels::scalar::matmul_into`) and through the dispatched kernel
//! (the AVX2 row update where the CPU has it), as ns per step and
//! complex G MAC/s. It is reported under `"kernels"`.
//!
//! A sixth section times the **set-up layer**: what a level-1
//! evaluator does before its first pattern, phase by phase as
//! `LevelEvaluator::new` runs it — the sites' Kraus decompositions
//! (`site_ranks`), the amplitude skeleton, the delta-aware order search
//! with its candidates, and the lowering with its cold run
//! (`compile_for_replay`) — then `LevelEvaluator::new` whole, on the
//! registry circuits (and, outside `--smoke`, the `deep_sum` jobs). It
//! reports each phase's median µs and its exact allocation count per
//! network node, counted by this binary's per-thread counting
//! allocator, under `"setup"`. Allocation counts repeat exactly from
//! run to run and process to process, unlike the µs, so they carry the
//! gate.
//!
//! Ten invariants are *asserted* on every run (and gate CI via
//! `--smoke`); 1–4 on every timed pass:
//!
//! 1. reference and compiled paths produce **bit-identical** pattern
//!    sums,
//! 2. the compiled workspace's allocation counter reads **0 after the
//!    first pattern**,
//! 3. delta replay's pattern sum is **bit-identical** to the full
//!    compiled replay of the same Gray sequence, and
//! 4. the delta path's warmed timing passes perform **zero
//!    allocations**, and
//! 5. repeated order searches on one network record **equal plans**,
//! 6. the delta-aware plan's modelled cost is **at most the greedy
//!    plan's**,
//! 7. its delta replay is **bit-identical** to its full replay, and
//! 8. its warmed hot-arena replays perform **zero allocations**, and
//! 9. the dispatched kernel's output is **bit-identical** to the scalar
//!    oracle's on every kernel shape, and
//! 10. set-up allocates a **bounded number of times per network
//!     node**: the order search and the lowering together at most once
//!     per node on every workload, and `LevelEvaluator::new` at most 5
//!     times per node on networks of at least 80 nodes. The counts
//!     must also repeat exactly across the section's repeats.

use qns_bench::registry::{full_set, smoke_set, BenchCircuit, Family};
use qns_bench::timing::time_it;
use qns_bench::{arg_flag, arg_usize, print_row};
use qns_core::patterns::GrayPatternStream;
use qns_core::{ApproxOptions, LevelEvaluator, NoiseSvd};
use qns_linalg::{kernels, Complex64, Matrix};
use qns_noise::{channels, NoisyCircuit};
use qns_tensor::Tensor;
use qns_tnet::builder::{double_network, AmplitudeSkeleton, Insertion, ProductState};
use qns_tnet::exec::{ExecutablePlan, Workspace};
use qns_tnet::network::OrderStrategy;
use qns_tnet::plan::ContractionPlan;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocation calls per thread, so the
/// set-up section can report exact allocation counts per phase.
struct CountingAlloc;

fn count_allocation() {
    // `try_with`: the slot is gone while a thread tears down its TLS.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the counter never touches the allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result, its wall time in µs and the
/// allocations this thread made meanwhile.
fn measured<T>(f: impl FnOnce() -> T) -> (T, f64, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let (t, seconds) = time_it(f);
    (t, seconds * 1e6, ALLOCATIONS.with(Cell::get) - before)
}

/// The evaluator's amplitude skeleton, its compiled greedy plan and the
/// pre-resolved Kraus-term payloads of one workload — the once-per-run
/// setup of the pattern sum.
struct Workload {
    name: String,
    noisy: NoisyCircuit,
    skel: AmplitudeSkeleton,
    plan: ContractionPlan,
    exec: ExecutablePlan,
    /// `payloads[site][term]` = the Kraus `U` term of the site.
    payloads: Vec<[Tensor; 4]>,
    /// Nonzero Kraus terms per site ([`NoiseSvd::rank`]).
    ranks: Vec<usize>,
}

fn build_workload(bench: &BenchCircuit, noises: usize, seed: u64) -> Workload {
    let channel = channels::thermal_relaxation(30.0, 40.0, 25.0);
    let noisy = NoisyCircuit::inject_random(bench.circuit.clone(), &channel, noises, seed);
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
    let svds: Vec<NoiseSvd> = noisy
        .events()
        .iter()
        .map(|e| NoiseSvd::decompose(&e.kraus))
        .collect();
    let plan = skel.plan(OrderStrategy::Greedy);
    Workload {
        name: bench.name.clone(),
        exec: plan.compile(),
        plan,
        skel,
        ranks: svds.iter().map(NoiseSvd::rank).collect(),
        payloads: svds
            .iter()
            .map(|s| std::array::from_fn(|t| Tensor::from_matrix(s.term(t).0)))
            .collect(),
        noisy,
    }
}

/// Random rank-aware substitution patterns, fixed per workload so both
/// paths replay the identical sequence.
fn random_patterns(ranks: &[usize], count: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| ranks.iter().map(|&r| rng.random_range(0..r)).collect())
        .collect()
}

/// Timed passes per path in the first two sections, after one untimed
/// pass; the median is reported.
const REPLAY_PASSES: usize = 7;

/// The median of `values`.
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

struct PathResult {
    sum: Complex64,
    seconds: f64,
}

/// The allocating path: payload swap by tensor replacement, reference
/// replay chaining `Tensor::contract`.
fn run_reference(w: &mut Workload, patterns: &[Vec<usize>]) -> PathResult {
    let (sum, seconds) = time_it(|| {
        let mut acc = Complex64::ZERO;
        for pat in patterns {
            for (i, &term) in pat.iter().enumerate() {
                w.skel.set_insertion_tensor(i, w.payloads[i][term].clone());
            }
            let a = w
                .plan
                .execute_network_reference(w.skel.network())
                .0
                .scalar_value();
            acc += a * a.conj();
        }
        acc
    });
    PathResult { sum, seconds }
}

/// The compiled path: in-place payload memcpy, kernel replay through
/// one reusable workspace. Also returns the workspace allocation
/// events observed *after* the first pattern (the zero-allocation
/// steady-state counter; must be zero).
fn run_compiled(w: &mut Workload, patterns: &[Vec<usize>]) -> (PathResult, u64) {
    let mut ws = Workspace::new();
    let mut warm = 0u64;
    let (sum, seconds) = time_it(|| {
        let mut acc = Complex64::ZERO;
        for (p, pat) in patterns.iter().enumerate() {
            for (i, &term) in pat.iter().enumerate() {
                w.skel.set_insertion_payload(i, &w.payloads[i][term]);
            }
            let a = w.exec.execute_network_scalar(w.skel.network(), &mut ws);
            acc += a * a.conj();
            if p == 0 {
                warm = ws.allocation_events();
            }
        }
        acc
    });
    let steady_allocs = ws.allocation_events() - warm;
    (PathResult { sum, seconds }, steady_allocs)
}

/// The minimal-change pattern sequence of one approximation run:
/// levels `0..=level` enumerated in rank-aware Gray order, so
/// consecutive patterns differ in at most two sites (three across a
/// level boundary, since the per-level streams chain).
fn gray_patterns(ranks: &[usize], level: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut pat = vec![0usize; ranks.len()];
    for u in 0..=level.min(ranks.len()) {
        let mut stream = GrayPatternStream::with_ranks(ranks, u);
        while stream.next_into(&mut pat) {
            out.push(pat.clone());
        }
    }
    out
}

/// Mutable state of the delta path: the installed assignment plus one
/// warm workspace holding the cached intermediates of the plan.
struct DeltaState {
    ws: Workspace,
    current: Vec<usize>,
    dirty: Vec<usize>,
}

impl DeltaState {
    fn new(w: &Workload) -> Self {
        DeltaState {
            ws: Workspace::for_plan(&w.exec),
            current: vec![usize::MAX; w.payloads.len()],
            dirty: Vec::new(),
        }
    }
}

/// One pass of the delta path over a pattern sequence: diff each
/// pattern against the installed assignment, swap only the changed
/// payloads, delta-replay only the dirty leaf-to-root tree paths.
/// Returns the timed result and the number of contraction steps
/// actually executed.
fn run_delta_pass(
    w: &mut Workload,
    st: &mut DeltaState,
    patterns: &[Vec<usize>],
) -> (PathResult, u64) {
    let ((sum, steps), seconds) = time_it(|| {
        let mut acc = Complex64::ZERO;
        let mut steps = 0u64;
        for pat in patterns {
            st.dirty.clear();
            for (i, &term) in pat.iter().enumerate() {
                if st.current[i] == term {
                    continue;
                }
                w.skel.set_insertion_payload(i, &w.payloads[i][term]);
                st.dirty.push(w.skel.insertion_slot(i));
                st.current[i] = term;
            }
            let (a, stats) =
                w.exec
                    .execute_network_delta_scalar(w.skel.network(), &st.dirty, &mut st.ws);
            steps += stats.contractions as u64;
            acc += a * a.conj();
        }
        (acc, steps)
    });
    (PathResult { sum, seconds }, steps)
}

/// Order searches per skeleton in the planning section; the median is
/// reported.
const PLAN_REPEATS: usize = 15;

/// Median wall time (µs) of `PLAN_REPEATS` runs of `search`, after one
/// untimed warm-up run. Every run must record the warm-up's plan.
fn median_plan_us<P: PartialEq + std::fmt::Debug>(name: &str, search: impl Fn() -> P) -> f64 {
    let first = search();
    median(
        (0..PLAN_REPEATS)
            .map(|_| {
                let (plan, seconds) = time_it(&search);
                assert_eq!(plan, first, "{name}: order search is not deterministic");
                seconds * 1e6
            })
            .collect(),
    )
}

/// One plan's replay cost in the delta-aware section.
struct PlanReplay {
    /// Measured µs per varying leaf replayed (pattern time divided by
    /// the leaves each pattern changed).
    us_per_leaf: f64,
    /// Modelled `m·k·n` of one varying leaf's path, averaged over the
    /// varying leaves.
    flops_per_leaf: f64,
    /// `ReplayCost::modelled` at the run's replay count.
    modelled: u128,
    hot_steps: usize,
    cold_steps: usize,
}

/// A registry circuit's delta-aware-vs-greedy comparison.
struct DeltaAwareRow {
    name: String,
    /// Order searches the delta-aware planner ran.
    searches: usize,
    same_plan: bool,
    greedy: PlanReplay,
    delta: PlanReplay,
}

/// Timed passes per plan in the delta-aware section; the fastest is
/// reported.
const DELTA_PASSES: usize = 5;

/// Patterns per timed pass in the delta-aware section, at least: the
/// level-1 sequence is replayed as often as it takes.
const DELTA_PASS_PATTERNS: usize = 512;

/// Replays the rank-aware level-1 Gray sequence of `bench` with
/// `noises` thermal sites through the greedy and the delta-aware plan
/// of its amplitude network, both compiled with the sites varying.
/// Asserts the delta-aware plan models no worse than greedy, that its
/// delta replay is bitwise its full replay, and that warmed passes
/// allocate nothing.
fn delta_aware_row(bench: &BenchCircuit, noises: usize, seed: u64) -> DeltaAwareRow {
    let Workload {
        name,
        mut skel,
        plan: greedy_plan,
        payloads,
        ranks,
        ..
    } = build_workload(bench, noises, seed);
    let varying: Vec<usize> = (0..noises).map(|i| skel.insertion_slot(i)).collect();
    let replays = qns_core::planned_patterns_for_ranks(&ranks, 1);
    let pats = gray_patterns(&ranks, 1);

    let (delta_plan, searched) = skel.network().plan_for_replay(&varying, replays);
    let greedy_cost = greedy_plan.replay_cost(&varying).modelled(noises, replays);
    let delta_cost = delta_plan.replay_cost(&varying).modelled(noises, replays);
    assert!(
        delta_cost <= greedy_cost,
        "{name}: delta-aware plan models {delta_cost} > greedy {greedy_cost}"
    );
    let mut measure = |plan: &ContractionPlan| -> PlanReplay {
        let exec = plan.compile_for_replay(skel.network(), &varying);
        let cost = plan.replay_cost(&varying);
        // Reference: every pattern fully replayed.
        let reps = DELTA_PASS_PATTERNS.div_ceil(pats.len());
        let mut full_ws = Workspace::new();
        let mut full_sum = Complex64::ZERO;
        for p in pats.iter().cycle().take(reps * pats.len()) {
            for (i, &t) in p.iter().enumerate() {
                skel.set_insertion_payload(i, &payloads[i][t]);
            }
            let a = exec.execute_network_scalar(skel.network(), &mut full_ws);
            full_sum += a * a.conj();
        }
        // Delta passes: the first warms the hot arena, the later ones
        // are timed and must not allocate.
        let mut ws = Workspace::new();
        let mut current = vec![usize::MAX; noises];
        let mut dirty = Vec::with_capacity(noises);
        let mut leaves = 0usize;
        let mut best = f64::INFINITY;
        let mut warm = 0;
        for pass in 0..=DELTA_PASSES {
            let (sum, seconds) = time_it(|| {
                let mut acc = Complex64::ZERO;
                for p in pats.iter().cycle().take(reps * pats.len()) {
                    dirty.clear();
                    for (i, &t) in p.iter().enumerate() {
                        if current[i] != t {
                            skel.set_insertion_payload(i, &payloads[i][t]);
                            dirty.push(skel.insertion_slot(i));
                            current[i] = t;
                        }
                    }
                    if pass == 1 {
                        leaves += dirty.len();
                    }
                    let (a, _) = exec.execute_network_delta_scalar(skel.network(), &dirty, &mut ws);
                    acc += a * a.conj();
                }
                acc
            });
            if pass == 0 {
                warm = ws.allocation_events();
            } else {
                best = best.min(seconds);
                assert_eq!(
                    sum, full_sum,
                    "{name}: delta replay must be bitwise the full replay"
                );
            }
        }
        assert_eq!(
            ws.allocation_events(),
            warm,
            "{name}: warmed hot-arena replays allocated"
        );
        PlanReplay {
            us_per_leaf: best * 1e6 / leaves.max(1) as f64,
            flops_per_leaf: cost.flops_per_leaf(noises),
            modelled: cost.modelled(noises, replays),
            hot_steps: cost.hot_steps,
            cold_steps: cost.cold_steps,
        }
    };
    let greedy = measure(&greedy_plan);
    let delta = measure(&delta_plan);
    DeltaAwareRow {
        name,
        searches: searched.order_searches,
        same_plan: delta_plan == greedy_plan,
        greedy,
        delta,
    }
}

/// The `m×k×n` matmul steps that dominate the `deep_sum` level sums.
const KERNEL_SHAPES: [(usize, usize, usize); 6] = [
    (2, 2, 2048),
    (1, 4, 1024),
    (16, 16, 256),
    (64, 64, 64),
    (16, 16, 16),
    (4, 8, 8),
];

/// Timed trials per kernel shape and path; the median is reported.
const KERNEL_TRIALS: usize = 7;

/// One kernel shape's scalar-vs-dispatched timing.
struct KernelRow {
    shape: (usize, usize, usize),
    scalar_ns: f64,
    dispatched_ns: f64,
}

impl KernelRow {
    /// Complex multiply-adds per second, in units of 10⁹.
    fn gmacs(&self, ns: f64) -> f64 {
        let (m, k, n) = self.shape;
        (m * k * n) as f64 / ns
    }
}

/// Median ns per call of `step`, over [`KERNEL_TRIALS`] trials of
/// `reps` calls each, after one untimed trial.
fn median_step_ns(reps: usize, mut step: impl FnMut()) -> f64 {
    let mut trial = || {
        time_it(|| {
            for _ in 0..reps {
                step();
            }
        })
        .1
    };
    trial();
    median(
        (0..KERNEL_TRIALS)
            .map(|_| trial() * 1e9 / reps as f64)
            .collect(),
    )
}

/// Times one dense matmul step of `shape` through the scalar oracle and
/// the dispatched kernel, asserting their outputs are bitwise equal.
/// Each trial runs about `macs_per_trial` complex multiply-adds.
fn kernel_row(shape: (usize, usize, usize), macs_per_trial: usize, seed: u64) -> KernelRow {
    let (m, k, n) = shape;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut values = |len: usize| -> Vec<Complex64> {
        (0..len)
            .map(|_| qns_linalg::c64(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
            .collect()
    };
    let (a, b) = (values(m * k), values(k * n));
    let mut scalar_out = vec![Complex64::ZERO; m * n];
    let mut dispatched_out = vec![Complex64::ZERO; m * n];
    let reps = (macs_per_trial / (m * k * n)).max(1);
    let scalar_ns = median_step_ns(reps, || {
        kernels::scalar::matmul_into(black_box(&a), &b, &mut scalar_out, m, k, n);
    });
    let dispatched_ns = median_step_ns(reps, || {
        kernels::matmul_into(black_box(&a), &b, &mut dispatched_out, m, k, n);
    });
    let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    };
    assert!(
        bits(&dispatched_out) == bits(&scalar_out),
        "{m}x{k}x{n}: dispatched kernel must be bitwise the scalar oracle"
    );
    KernelRow {
        shape,
        scalar_ns,
        dispatched_ns,
    }
}

/// The row update the dispatched kernels run on this CPU.
fn dispatched_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "scalar"
}

/// The `deep_sum` jobs' `(circuit, noise sites, placement seed)`: the
/// set-up section reports them next to the registry circuits.
const DEEP_SUM_SETUPS: [(&str, usize, u64); 5] = [
    ("qaoa_16", 12, 0xD5EE),
    ("inst_4x4_16", 9, 0xD5F0),
    ("hf_12", 12, 0xD5EE),
    ("qaoa_25", 12, 0xD5EB),
    ("inst_3x4_8", 32, 0xD5E9),
];

/// The phases of an evaluator's set-up, in the order it runs them.
const SETUP_PHASES: [&str; 4] = ["sites", "skeleton", "search", "compile"];

/// Timed repeats per set-up phase; the median is reported.
const SETUP_REPEATS: usize = 9;

/// Allocations per network node that `LevelEvaluator::new` may make
/// on a network of at least [`SETUP_CEILING_NODES`] nodes (invariant
/// 10).
const SETUP_ALLOCS_PER_NODE: u64 = 5;

/// The smallest network the evaluator's per-node ceiling applies to:
/// below it, a job's fixed set-up allocations (the channel
/// decomposition and noise rate, the payload table, the workspace)
/// outweigh the per-node ones.
const SETUP_CEILING_NODES: usize = 80;

/// Allocations per network node that the order search and the lowering
/// (with its cold run) may make together (invariant 10).
const SEARCH_COMPILE_ALLOCS_PER_NODE: u64 = 1;

/// One workload's set-up cost, phase by phase.
struct SetupRow {
    name: String,
    nodes: usize,
    /// Order searches the delta-aware planner ran.
    searches: usize,
    /// Median µs and allocations of each of [`SETUP_PHASES`].
    phases: [(f64, u64); 4],
    /// Median µs and allocations of the whole `LevelEvaluator::new`.
    evaluator: (f64, u64),
}

impl SetupRow {
    fn per_node(&self, allocs: u64) -> f64 {
        allocs as f64 / self.nodes.max(1) as f64
    }
}

/// Times and counts the allocations of every set-up phase of a
/// level-1 evaluator over `circuit` with `noises` thermal sites: the
/// sites' Kraus decompositions (`site_ranks`), the amplitude skeleton,
/// the delta-aware order search and the lowering with its cold run,
/// each as the evaluator runs it, then `LevelEvaluator::new` whole.
/// Allocation counts must repeat exactly across the repeats.
fn setup_row(name: String, circuit: &qns_circuit::Circuit, noises: usize, seed: u64) -> SetupRow {
    let channel = channels::thermal_relaxation(30.0, 40.0, 25.0);
    let noisy = NoisyCircuit::inject_random(circuit.clone(), &channel, noises, seed);
    let n = noisy.n_qubits();
    let (psi, v) = (ProductState::all_zeros(n), ProductState::basis(n, 0));
    let placeholders: Vec<Insertion> = noisy
        .events()
        .iter()
        .map(|e| Insertion {
            after_gate: e.after_gate,
            qubit: e.qubit,
            matrix: Matrix::identity(2),
        })
        .collect();
    let opts = ApproxOptions::default();
    let mut samples: Vec<[(f64, u64); 5]> = Vec::new();
    let mut shape = (0, 0);
    for _ in 0..=SETUP_REPEATS {
        let (ranks, sites_us, sites_allocs) = measured(|| qns_core::site_ranks(&noisy));
        let (skel, skel_us, skel_allocs) =
            measured(|| AmplitudeSkeleton::new(noisy.circuit(), &psi, &v, &placeholders, false));
        let varying: Vec<usize> = (0..skel.insertion_count())
            .map(|i| skel.insertion_slot(i))
            .collect();
        let replays = qns_core::planned_patterns_for_ranks(&ranks, 1);
        let ((plan, searched), search_us, search_allocs) =
            measured(|| skel.network().plan_for_replay(&varying, replays));
        let (exec, compile_us, compile_allocs) =
            measured(|| plan.compile_for_replay(skel.network(), &varying));
        black_box(exec);
        let (eval, eval_us, eval_allocs) =
            measured(|| LevelEvaluator::new(&noisy, &psi, &v, &opts).expect("valid job"));
        black_box(eval);
        shape = (skel.network().node_count(), searched.order_searches);
        samples.push([
            (sites_us, sites_allocs),
            (skel_us, skel_allocs),
            (search_us, search_allocs),
            (compile_us, compile_allocs),
            (eval_us, eval_allocs),
        ]);
    }
    // The first repeat warms caches and is not timed.
    let timed = &samples[1..];
    let phase = |p: usize| -> (f64, u64) {
        let allocs = timed[0][p].1;
        assert!(
            timed.iter().all(|s| s[p].1 == allocs),
            "{name}: set-up allocation counts must repeat exactly"
        );
        (median(timed.iter().map(|s| s[p].0).collect()), allocs)
    };
    SetupRow {
        nodes: shape.0,
        searches: shape.1,
        phases: std::array::from_fn(phase),
        evaluator: phase(4),
        name,
    }
}

fn main() {
    let smoke = arg_flag("--smoke");
    let patterns_per = arg_usize("--patterns", if smoke { 64 } else { 256 });
    let noises = arg_usize("--noises", 6);
    let out = std::env::args()
        .collect::<Vec<_>>()
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone())
        .unwrap_or_else(|| "BENCH_contract.json".to_string());

    let registry: Vec<BenchCircuit> = if smoke {
        smoke_set()
    } else {
        qns_bench::registry::default_set()
    };
    let set: Vec<BenchCircuit> = registry
        .iter()
        .filter(|b| matches!(b.family, Family::Qaoa | Family::Supremacy))
        .cloned()
        .collect();

    println!(
        "contract_bench — {} workloads × {patterns_per} patterns, {noises} noise sites, \
         allocating reference vs compiled kernels, median of {REPLAY_PASSES} passes\n",
        set.len()
    );
    let widths = [14usize, 10, 14, 14, 9, 13];
    print_row(
        &[
            "workload".into(),
            "patterns".into(),
            "ref µs/pat".into(),
            "exec µs/pat".into(),
            "speedup".into(),
            "steady allocs".into(),
        ],
        &widths,
    );

    let mut rows = Vec::new();
    for (i, bench) in set.iter().enumerate() {
        let mut w = build_workload(bench, noises, 0xC047 + i as u64);
        let pats = random_patterns(&w.ranks, patterns_per, 0xFEED + i as u64);

        // Pass 0 warms both paths (cold caches, lazy page faults) and is
        // not timed; every pass is checked.
        let (mut ref_s, mut exec_s) = (Vec::new(), Vec::new());
        for pass in 0..=REPLAY_PASSES {
            let reference = run_reference(&mut w, &pats);
            let (compiled, steady_allocs) = run_compiled(&mut w, &pats);
            assert_eq!(
                compiled.sum, reference.sum,
                "{}: compiled pattern sum must be bit-identical to the reference",
                w.name
            );
            assert_eq!(
                steady_allocs, 0,
                "{}: workspace allocated after the first pattern",
                w.name
            );
            if pass > 0 {
                ref_s.push(reference.seconds);
                exec_s.push(compiled.seconds);
            }
        }

        let (ref_s, exec_s) = (median(ref_s), median(exec_s));
        let ref_us = ref_s * 1e6 / patterns_per as f64;
        let exec_us = exec_s * 1e6 / patterns_per as f64;
        let speedup = ref_s / exec_s.max(1e-12);
        print_row(
            &[
                w.name.clone(),
                patterns_per.to_string(),
                format!("{ref_us:.1}"),
                format!("{exec_us:.1}"),
                format!("{speedup:.2}x"),
                "0".into(),
            ],
            &widths,
        );
        rows.push((w.name.clone(), ref_us, exec_us, speedup));
    }

    let geomean = rows
        .iter()
        .map(|(_, _, _, s)| s.ln())
        .sum::<f64>()
        .exp()
        .powf(1.0 / rows.len().max(1) as f64);
    println!("\ngeometric-mean speedup: {geomean:.2}x");

    // ── Incremental (delta) vs full compiled replay ──
    // The pattern sum's real access pattern: the rank-aware Gray-ordered
    // level-2 sequence, where consecutive patterns differ in at most
    // two sites. The full path re-executes every plan step per
    // pattern; the delta path re-executes only the dirty leaf-to-root
    // paths of the contraction tree and reuses every other cached
    // intermediate.
    let level = 2usize;
    println!(
        "\nincremental (Gray order, level {level}) vs full compiled replay, \
         median of {REPLAY_PASSES} passes\n"
    );
    let inc_widths = [14usize, 10, 14, 14, 9, 11, 11];
    print_row(
        &[
            "workload".into(),
            "patterns".into(),
            "full µs/pat".into(),
            "delta µs/pat".into(),
            "speedup".into(),
            "full steps".into(),
            "delta steps".into(),
        ],
        &inc_widths,
    );
    let mut inc_rows = Vec::new();
    for (i, bench) in set.iter().enumerate() {
        let mut w = build_workload(bench, noises, 0xC047 + i as u64);
        let pats = gray_patterns(&w.ranks, level);
        let full_steps_per = w.exec.replay_stats().contractions as f64;

        // Pass 0 warms the full path, and the delta path's node caches
        // and dirty-step merge buffers; every later delta pass must be
        // allocation-free. Both paths end each pass on the sequence's
        // last pattern, so the delta path's installed assignment stays
        // the skeleton's.
        let mut st = DeltaState::new(&w);
        let (mut full_s, mut delta_s) = (Vec::new(), Vec::new());
        let mut delta_steps = 0;
        for pass in 0..=REPLAY_PASSES {
            let (full, _) = run_compiled(&mut w, &pats);
            let warm = st.ws.allocation_events();
            let (delta, steps) = run_delta_pass(&mut w, &mut st, &pats);
            assert_eq!(
                delta.sum, full.sum,
                "{}: delta pattern sum must be bit-identical to full compiled replay",
                w.name
            );
            if pass > 0 {
                assert_eq!(
                    st.ws.allocation_events(),
                    warm,
                    "{}: delta path allocated during a warmed timing pass",
                    w.name
                );
                full_s.push(full.seconds);
                delta_s.push(delta.seconds);
                delta_steps = steps;
            }
        }

        let (full_s, delta_s) = (median(full_s), median(delta_s));
        let n_pats = pats.len() as f64;
        let full_us = full_s * 1e6 / n_pats;
        let delta_us = delta_s * 1e6 / n_pats;
        let speedup = full_s / delta_s.max(1e-12);
        let delta_steps_per = delta_steps as f64 / n_pats;
        print_row(
            &[
                w.name.clone(),
                pats.len().to_string(),
                format!("{full_us:.1}"),
                format!("{delta_us:.1}"),
                format!("{speedup:.2}x"),
                format!("{full_steps_per:.0}"),
                format!("{delta_steps_per:.1}"),
            ],
            &inc_widths,
        );
        inc_rows.push((
            w.name.clone(),
            full_us,
            delta_us,
            speedup,
            full_steps_per,
            delta_steps_per,
        ));
    }
    let inc_geomean = inc_rows
        .iter()
        .map(|(_, _, _, s, _, _)| s.ln())
        .sum::<f64>()
        .exp()
        .powf(1.0 / inc_rows.len().max(1) as f64);
    println!("\ngeometric-mean incremental speedup: {inc_geomean:.2}x");

    // ── Planning: the once-per-run order search ──
    println!("\nplanning (greedy order search, median of {PLAN_REPEATS})\n");
    let plan_widths = [14usize, 14, 16];
    print_row(
        &["workload".into(), "amplitude µs".into(), "double µs".into()],
        &plan_widths,
    );
    let mut plan_rows = Vec::new();
    for (i, bench) in set.iter().enumerate() {
        let w = build_workload(bench, noises, 0xC047 + i as u64);
        let n = w.noisy.n_qubits();
        let double = double_network(
            &w.noisy,
            &ProductState::all_zeros(n),
            &ProductState::basis(n, 0),
            &BTreeMap::new(),
        );
        let amplitude = median_plan_us(&w.name, || w.skel.plan(OrderStrategy::Greedy));
        let double = median_plan_us(&w.name, || double.plan(OrderStrategy::Greedy));
        print_row(
            &[
                w.name.clone(),
                format!("{amplitude:.1}"),
                format!("{double:.1}"),
            ],
            &plan_widths,
        );
        plan_rows.push((w.name.clone(), amplitude, double));
    }

    // ── Delta-aware vs greedy plans ──
    let delta_set: Vec<BenchCircuit> = if smoke { registry.clone() } else { full_set() };
    println!(
        "\ndelta-aware vs greedy plan (one amplitude network, rank-aware level-1 \
         Gray sequence, per varying leaf replayed)\n"
    );
    let da_widths = [14usize, 9, 13, 13, 14, 14, 9];
    print_row(
        &[
            "workload".into(),
            "searches".into(),
            "greedy µs".into(),
            "delta µs".into(),
            "greedy m·k·n".into(),
            "delta m·k·n".into(),
            "same".into(),
        ],
        &da_widths,
    );
    let mut da_rows = Vec::new();
    for (i, bench) in delta_set.iter().enumerate() {
        let row = delta_aware_row(bench, noises, 0xC047 + i as u64);
        print_row(
            &[
                row.name.clone(),
                row.searches.to_string(),
                format!("{:.2}", row.greedy.us_per_leaf),
                format!("{:.2}", row.delta.us_per_leaf),
                format!("{:.0}", row.greedy.flops_per_leaf),
                format!("{:.0}", row.delta.flops_per_leaf),
                row.same_plan.to_string(),
            ],
            &da_widths,
        );
        da_rows.push(row);
    }
    let da_per = da_rows
        .iter()
        .map(|r| {
            let side = |p: &PlanReplay| {
                format!(
                    "{{\"us_per_leaf\":{:.3},\"flops_per_leaf\":{:.1},\"modelled\":{},\
                     \"hot_steps\":{},\"cold_steps\":{}}}",
                    p.us_per_leaf, p.flops_per_leaf, p.modelled, p.hot_steps, p.cold_steps
                )
            };
            format!(
                "{{\"workload\":\"{}\",\"searches\":{},\"same_plan\":{},\
                 \"greedy\":{},\"delta_aware\":{}}}",
                r.name,
                r.searches,
                r.same_plan,
                side(&r.greedy),
                side(&r.delta)
            )
        })
        .collect::<Vec<_>>()
        .join(",");

    // ── Kernel layer: one matmul step, scalar oracle vs dispatched ──
    let path = dispatched_path();
    println!(
        "\nkernel layer (one matmul step, median of {KERNEL_TRIALS} trials; \
         dispatched = {path})\n"
    );
    let k_widths = [12usize, 13, 13, 12, 12, 9];
    print_row(
        &[
            "m×k×n".into(),
            "scalar ns".into(),
            "disp. ns".into(),
            "scalar GMAC/s".into(),
            "disp. GMAC/s".into(),
            "speedup".into(),
        ],
        &k_widths,
    );
    let macs_per_trial = if smoke { 1 << 18 } else { 1 << 22 };
    let kernel_rows: Vec<KernelRow> = KERNEL_SHAPES
        .iter()
        .enumerate()
        .map(|(i, &shape)| kernel_row(shape, macs_per_trial, 0x4B45 + i as u64))
        .collect();
    for r in &kernel_rows {
        let (m, k, n) = r.shape;
        print_row(
            &[
                format!("{m}×{k}×{n}"),
                format!("{:.0}", r.scalar_ns),
                format!("{:.0}", r.dispatched_ns),
                format!("{:.2}", r.gmacs(r.scalar_ns)),
                format!("{:.2}", r.gmacs(r.dispatched_ns)),
                format!("{:.2}x", r.scalar_ns / r.dispatched_ns),
            ],
            &k_widths,
        );
    }
    let kernel_per = kernel_rows
        .iter()
        .map(|r| {
            let (m, k, n) = r.shape;
            format!(
                "{{\"shape\":\"{m}x{k}x{n}\",\"scalar_ns\":{:.1},\"dispatched_ns\":{:.1},\
                 \"scalar_gmacs\":{:.3},\"dispatched_gmacs\":{:.3},\"speedup\":{:.3}}}",
                r.scalar_ns,
                r.dispatched_ns,
                r.gmacs(r.scalar_ns),
                r.gmacs(r.dispatched_ns),
                r.scalar_ns / r.dispatched_ns
            )
        })
        .collect::<Vec<_>>()
        .join(",");

    // ── Set-up layer: what a level-1 evaluator spends before its sum ──
    println!(
        "\nset-up layer (level-1 evaluator, median of {SETUP_REPEATS}; allocations per \
         network node)\n"
    );
    let setup_widths = [18usize, 6, 9, 12, 12, 12, 12, 13];
    print_row(
        &[
            "workload".into(),
            "nodes".into(),
            "searches".into(),
            "sites µs/a".into(),
            "skel µs/a".into(),
            "search µs/a".into(),
            "compile µs/a".into(),
            "evaluator µs/a".into(),
        ],
        &setup_widths,
    );
    let mut setup_cases: Vec<(String, qns_circuit::Circuit, usize, u64)> = registry
        .iter()
        .enumerate()
        .map(|(i, b)| {
            (
                format!("{}/{noises}", b.name),
                b.circuit.clone(),
                noises,
                0x5E7 + i as u64,
            )
        })
        .collect();
    if !smoke {
        let full = full_set();
        for (name, sites, seed) in DEEP_SUM_SETUPS {
            let bench = full
                .iter()
                .find(|b| b.name == name)
                .expect("registry circuit");
            setup_cases.push((
                format!("{name}/{sites}"),
                bench.circuit.clone(),
                sites,
                seed,
            ));
        }
    }
    let mut setup_rows = Vec::new();
    for (name, circuit, sites, seed) in &setup_cases {
        let row = setup_row(name.clone(), circuit, *sites, *seed);
        let cell = |(us, allocs): (f64, u64)| format!("{us:.0}/{:.1}", row.per_node(allocs));
        let mut cells = vec![
            row.name.clone(),
            row.nodes.to_string(),
            row.searches.to_string(),
        ];
        cells.extend(row.phases.iter().map(|&p| cell(p)));
        cells.push(cell(row.evaluator));
        print_row(&cells, &setup_widths);
        // Invariant 10: set-up allocates a bounded number of times per
        // network node.
        let nodes = row.nodes as u64;
        let (search, compile) = (row.phases[2].1, row.phases[3].1);
        assert!(
            row.nodes < SETUP_CEILING_NODES || row.evaluator.1 <= SETUP_ALLOCS_PER_NODE * nodes,
            "{}: LevelEvaluator::new made {} allocations for {nodes} nodes",
            row.name,
            row.evaluator.1
        );
        assert!(
            search + compile <= SEARCH_COMPILE_ALLOCS_PER_NODE * nodes,
            "{}: search and lowering made {} allocations for {nodes} nodes",
            row.name,
            search + compile
        );
        setup_rows.push(row);
    }
    let setup_per = setup_rows
        .iter()
        .map(|r| {
            let phase = |(us, allocs): (f64, u64)| {
                format!(
                    "{{\"us\":{us:.1},\"allocations\":{allocs},\"per_node\":{:.2}}}",
                    r.per_node(allocs)
                )
            };
            let phases = SETUP_PHASES
                .iter()
                .zip(&r.phases)
                .map(|(name, &p)| format!("\"{name}\":{}", phase(p)))
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "{{\"workload\":\"{}\",\"nodes\":{},\"searches\":{},{phases},\
                 \"evaluator\":{}}}",
                r.name,
                r.nodes,
                r.searches,
                phase(r.evaluator)
            )
        })
        .collect::<Vec<_>>()
        .join(",");

    let mut per = String::new();
    for (i, (name, r, e, s)) in rows.iter().enumerate() {
        if i > 0 {
            per.push(',');
        }
        per.push_str(&format!(
            "{{\"workload\":\"{name}\",\"ref_us_per_pattern\":{r:.2},\
             \"exec_us_per_pattern\":{e:.2},\"speedup\":{s:.3}}}"
        ));
    }
    let mut inc_per = String::new();
    for (i, (name, f, d, s, fsteps, dsteps)) in inc_rows.iter().enumerate() {
        if i > 0 {
            inc_per.push(',');
        }
        inc_per.push_str(&format!(
            "{{\"workload\":\"{name}\",\"full_us_per_pattern\":{f:.2},\
             \"delta_us_per_pattern\":{d:.2},\"speedup\":{s:.3},\
             \"full_steps_per_pattern\":{fsteps:.0},\
             \"delta_steps_per_pattern\":{dsteps:.2}}}"
        ));
    }
    let plan_per = plan_rows
        .iter()
        .map(|(name, amplitude, double)| {
            format!(
                "{{\"workload\":\"{name}\",\"plan_us\":{{\"amplitude\":{amplitude:.2},\
                 \"double\":{double:.2}}}}}"
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let json = format!(
        "{{\"mode\":\"{}\",\"patterns_per_workload\":{patterns_per},\
         \"noises\":{noises},\"passes\":{REPLAY_PASSES},\"steady_state_allocations\":0,\
         \"geomean_speedup\":{geomean:.3},\"workloads\":[{per}],\
         \"incremental\":{{\"level\":{level},\"order\":\"gray\",\
         \"geomean_speedup\":{inc_geomean:.3},\"workloads\":[{inc_per}]}},\
         \"planning\":{{\"strategy\":\"greedy\",\"repeats\":{PLAN_REPEATS},\
         \"workloads\":[{plan_per}]}},\
         \"delta_aware\":{{\"level\":1,\"order\":\"gray\",\"ranks\":\"rank-aware\",\
         \"workloads\":[{da_per}]}},\
         \"kernels\":{{\"trials\":{KERNEL_TRIALS},\"dispatched\":\"{path}\",\
         \"bitwise_equal\":true,\"shapes\":[{kernel_per}]}},\
         \"setup\":{{\"level\":1,\"repeats\":{SETUP_REPEATS},\
         \"allocs_per_node_max\":{SETUP_ALLOCS_PER_NODE},\
         \"ceiling_min_nodes\":{SETUP_CEILING_NODES},\
         \"search_compile_allocs_per_node_max\":{SEARCH_COMPILE_ALLOCS_PER_NODE},\
         \"workloads\":[{setup_per}]}}}}\n",
        if smoke { "smoke" } else { "default" },
    );
    let mut f = std::fs::File::create(&out).expect("create bench report");
    f.write_all(json.as_bytes()).expect("write bench report");
    println!("report written to {out}");
}
