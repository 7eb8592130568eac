//! Table II reproduction: our algorithm vs the accurate methods
//! (MM-based, TDD-based, TN-based) on the three benchmark families
//! with 2 and 20 injected noises.
//!
//! Usage:
//!   cargo run -p qns-bench --release --bin table2 \
//!       [--full] [--smoke] [--level L] [--threads T]
//!
//! `--smoke` runs a reduced one-circuit-per-family mode intended for
//! CI: it times our approximation on the smoke set and *asserts* the
//! plan-once/execute-many invariants (O(1) order searches per run, one
//! plan replay and one environment sweep per parent pattern), that the
//! run skips the patterns that use
//! the thermal channel's zero Kraus term, and that its value and level
//! sums are bitwise a 1-thread run's, so contraction-plan, enumeration
//! and summation-order regressions in the bench path fail the pipeline
//! instead of silently slowing it down or moving bits.
//!
//! Differences from the paper (see EXPERIMENTS.md): circuits are
//! laptop-scale versions of the same families; the memory-out (MO)
//! limit reflects this machine rather than 2048 GB. The comparison
//! shape — MM dies first, TDD handles structured circuits only, TN
//! wins at 2 noises, ours wins as noises grow — is the reproduced
//! result.

use qns_api::{
    ApproxBackend, ApproxOptions, Backend, DensityBackend, Simulation, TddBackend, TnetBackend,
};
use qns_bench::registry::{default_set, full_set, smoke_set, Family, MM_QUBIT_LIMIT};
use qns_bench::{arg_flag, arg_usize, fmt_time, print_row};
use qns_core::timing::time_it;
use qns_noise::{channels, Kraus, NoisyCircuit};
use qns_tnet::builder::ProductState;

/// TDD density evolution is only competitive on structured circuits;
/// beyond these limits we report MO like the paper does for its
/// larger rows.
fn tdd_feasible(family: Family, n: usize, _noises: usize) -> bool {
    match family {
        // HF circuits keep diagrams structured; QAOA/supremacy density
        // diagrams approach 4^n nodes and OOM well before MM does.
        Family::HfVqe => n <= 12,
        Family::Qaoa | Family::Supremacy => n <= 9,
    }
}

fn mm_feasible(n: usize) -> bool {
    n <= MM_QUBIT_LIMIT
}

/// The reduced CI mode behind `--smoke`: our approximation only, on
/// the smoke set with a noise count high enough that plan reuse is the
/// dominant cost factor. Asserts the plan-subsystem invariants so a
/// regression exits nonzero.
fn run_smoke(level: usize, threads: usize, channel: &Kraus) {
    const SMOKE_NOISES: usize = 12;
    println!(
        "Table II smoke mode — level-{level} approximation, {SMOKE_NOISES} noises, \
         {threads} thread(s)\n"
    );
    let widths = [10usize, 12, 6, 8, 9, 9, 12, 9];
    print_row(
        &[
            "Type".into(),
            "Circuit".into(),
            "Qubits".into(),
            "Terms".into(),
            "Searches".into(),
            "Reuses".into(),
            "Value".into(),
            "Ours".into(),
        ],
        &widths,
    );
    for bench in smoke_set() {
        let n = bench.circuit.n_qubits();
        let noisy =
            NoisyCircuit::inject_random(bench.circuit.clone(), channel, SMOKE_NOISES, 0xF00D);
        let opts = ApproxOptions::default()
            .with_level(level)
            .with_threads(threads);
        let psi = ProductState::all_zeros(n);
        let v = ProductState::all_zeros(n);
        let (res, t) = time_it(|| qns_core::try_approximate_expectation(&noisy, &psi, &v, &opts));
        let res = res.expect("smoke job within budget");

        // The contraction-plan regression tripwires.
        assert_eq!(
            res.stats.order_searches, 1,
            "{}: an expectation must search the order of its one network \
             once, not per pattern",
            bench.name
        );
        // Level 0 replays the cached plan, level 1 sweeps it, and
        // every deeper level replays and sweeps it once per parent
        // pattern: fewer plan uses than patterns above level 0.
        let ranks = qns_core::site_ranks(&noisy);
        assert_eq!(
            res.stats.plan_reuses as u128,
            qns_core::plan_uses_for_ranks(&ranks, level),
            "{}: one replay and one sweep of the cached plan per parent pattern",
            bench.name
        );
        assert!(
            level == 0 || res.stats.plan_reuses < res.terms_evaluated,
            "{}: the sweeps must price several patterns each",
            bench.name
        );
        // Thermal relaxation has Kraus rank 3: the run contracts only
        // the patterns whose terms are all nonzero, strictly fewer than
        // the paper's C(N,u)·3^u count at any level above 0.
        let ran = res.terms_evaluated as u128;
        assert_eq!(
            ran,
            qns_core::planned_patterns_for_ranks(&ranks, level),
            "{}: the run must contract exactly the patterns with nonzero terms",
            bench.name
        );
        assert!(
            level == 0 || ran < qns_core::planned_patterns(SMOKE_NOISES, level),
            "{}: the run must skip the patterns that use a zero Kraus term",
            bench.name
        );
        // Every level is summed in one chunk order, so the thread count
        // changes no bit.
        let one = qns_core::try_approximate_expectation(&noisy, &psi, &v, &opts.with_threads(1))
            .expect("smoke job within budget");
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(
            res.value.to_bits() == one.value.to_bits()
                && bits(&res.per_level) == bits(&one.per_level),
            "{}: {threads} thread(s) gave level sums {:?}, 1 thread {:?}",
            bench.name,
            res.per_level,
            one.per_level
        );

        print_row(
            &[
                bench.family.label().to_string(),
                bench.name.clone(),
                n.to_string(),
                res.terms_evaluated.to_string(),
                res.stats.order_searches.to_string(),
                res.stats.plan_reuses.to_string(),
                format!("{:.4e}", res.value),
                fmt_time(Some(t), "MO"),
            ],
            &widths,
        );
    }
    println!(
        "\nplan invariants hold: order searches O(1), one replay and one sweep per \
         parent pattern, zero Kraus terms skipped, level sums bitwise a 1-thread run's"
    );
}

fn main() {
    let threads = qns_bench::arg_usize("--threads", 1);
    let level = arg_usize("--level", 1);
    let channel = channels::thermal_relaxation(30.0, 40.0, 25.0);
    if arg_flag("--smoke") {
        run_smoke(level, threads, &channel);
        return;
    }
    let set = if arg_flag("--full") {
        full_set()
    } else {
        default_set()
    };

    println!("Table II reproduction — accurate methods vs our level-{level} approximation");
    println!(
        "channel: thermal relaxation (T1=30us, T2=40us, t=25ns), rate = {:.2e}\n",
        channel.noise_rate()
    );

    let widths = [10usize, 12, 6, 6, 6, 9, 9, 9, 9, 9, 9];
    print_row(
        &[
            "Type".into(),
            "Circuit".into(),
            "Qubits".into(),
            "Gates".into(),
            "Depth".into(),
            "MM(2)".into(),
            "TDD(2)".into(),
            "TN(2)".into(),
            "Ours(2)".into(),
            "TN(20)".into(),
            "Ours(20)".into(),
        ],
        &widths,
    );

    for bench in set {
        let n = bench.circuit.n_qubits();
        let mut cells = vec![
            bench.family.label().to_string(),
            bench.name.clone(),
            n.to_string(),
            bench.circuit.gate_count().to_string(),
            bench.circuit.depth().to_string(),
        ];

        // One engine-agnostic timing closure: every column is the same
        // `ExpectationJob` on a different `Backend`.
        let time_backend = |noisy: &NoisyCircuit, backend: &dyn Backend| {
            let job = Simulation::new(noisy).build().expect("registry job");
            let (res, t) = time_it(|| backend.expectation(&job));
            res.expect("feasibility is pre-gated");
            t
        };

        for &noises in &[2usize, 20] {
            let noisy = NoisyCircuit::inject_random(
                bench.circuit.clone(),
                &channel,
                noises,
                0xF00D + noises as u64,
            );

            if noises == 2 {
                // MM-based.
                let mm_t = mm_feasible(n).then(|| {
                    time_backend(
                        &noisy,
                        &DensityBackend::new().with_max_qubits(MM_QUBIT_LIMIT),
                    )
                });
                cells.push(fmt_time(mm_t, "MO"));

                // TDD-based.
                let dd_t = tdd_feasible(bench.family, n, noises)
                    .then(|| time_backend(&noisy, &TddBackend::new()));
                cells.push(fmt_time(dd_t, "MO"));
            }

            // TN-based exact.
            let tn_t = time_backend(&noisy, &TnetBackend::new());
            cells.push(fmt_time(Some(tn_t), "MO"));

            // Ours.
            let ours = ApproxBackend::with_options(
                ApproxOptions::default()
                    .with_level(level)
                    .with_threads(threads),
            );
            let ours_t = time_backend(&noisy, &ours);
            cells.push(fmt_time(Some(ours_t), "MO"));
        }
        print_row(&cells, &widths);
    }

    println!(
        "\nMO = infeasible at this machine's scale (dense 4^n state or \
         unstructured diagram), mirroring the paper's 2048 GB cap."
    );
}
