//! Table III reproduction: our algorithm vs the quantum trajectories
//! method (MM-based and TN-based implementations) at comparable
//! precision.
//!
//! Depolarizing noise, 20 noises, rate p = 0.001, on a series of QAOA
//! circuits. The trajectories sample number is matched to the
//! precision the level-1 approximation achieves (as in the paper).
//!
//! Usage:
//!   cargo run -p qns-bench --release --bin table3
//!     [--noises 20] [--p 0.001] [--max-samples 20000]

use qns_api::{
    ApproxBackend, ApproxOptions, Backend, DensityBackend, SamplingStrategy, Simulation,
    TnetBackend, TrajectoryBackend,
};
use qns_bench::registry::MM_QUBIT_LIMIT;
use qns_bench::{arg_f64, arg_usize, print_row};
use qns_circuit::generators::qaoa_grid_random;
use qns_core::timing::time_it;
use qns_noise::channels;
use qns_noise::NoisyCircuit;
use qns_sim::trajectory;
use qns_tnet::builder::ProductState;

fn main() {
    let threads = qns_bench::arg_usize("--threads", 1);
    let n_noises = arg_usize("--noises", 20);
    let p = arg_f64("--p", 1e-3);
    let max_samples = arg_usize("--max-samples", 5_000);
    let channel = channels::depolarizing(p);

    println!(
        "Table III reproduction — ours vs quantum trajectories \
         (depolarizing p = {p:e}, {n_noises} noises)\n"
    );
    let widths = [10usize, 13, 13, 13, 10, 11, 12, 12];
    print_row(
        &[
            "Circuit".into(),
            "ours prec".into(),
            "trajMM prec".into(),
            "trajTN prec".into(),
            "samples".into(),
            "ours time".into(),
            "trajMM time".into(),
            "trajTN time".into(),
        ],
        &widths,
    );

    for (rows, cols) in [(2usize, 3usize), (3, 3), (3, 4)] {
        let circuit = qaoa_grid_random(rows, cols, 2, 20 + rows as u64);
        let n = circuit.n_qubits();
        let noisy = NoisyCircuit::inject_random(circuit, &channel, n_noises, 0xBEEF);
        let job = Simulation::new(&noisy).build().expect("valid job");
        let psi = ProductState::all_zeros(n);
        let v = ProductState::all_zeros(n);

        // Reference: dense density matrix when feasible, else the exact
        // tensor-network contraction of the double network.
        let reference = DensityBackend::new()
            .with_max_qubits(MM_QUBIT_LIMIT)
            .expectation(&job)
            .or_else(|_| TnetBackend::new().expectation(&job))
            .expect("TN reference always runs")
            .value;

        // Ours, level 1.
        let ours_backend = ApproxBackend::with_options(
            ApproxOptions::default().with_level(1).with_threads(threads),
        );
        let (ours, ours_t) = time_it(|| ours_backend.expectation(&job).expect("level-1 run"));
        let ours_prec = (ours.value - reference).abs();

        // Trajectories matched to our precision (Hoeffding plan, capped).
        let samples = trajectory::required_samples(ours_prec.max(1e-7), 0.99).min(max_samples);

        let traj_backend = TrajectoryBackend::samples(samples)
            .with_strategy(SamplingStrategy::MixedUnitaryFastPath)
            .with_seed(11);
        let (mm_est, mm_t) = time_it(|| traj_backend.expectation(&job).expect("trajectory run"));
        let mm_prec = (mm_est.value - reference).abs();

        let (tn_est, tn_t) = time_it(|| {
            qns_tnet::simulator::trajectory_estimate(
                &noisy,
                &psi,
                &v,
                samples.min(2_000), // TN trajectories are per-sample heavier
                13,
            )
        });
        let tn_prec = (tn_est.mean - reference).abs();

        print_row(
            &[
                format!("qaoa_{n}"),
                format!("{ours_prec:.2e}"),
                format!("{mm_prec:.2e}"),
                format!("{tn_prec:.2e}"),
                samples.to_string(),
                format!("{ours_t:.3}s"),
                format!("{mm_t:.3}s"),
                format!("{tn_t:.3}s"),
            ],
            &widths,
        );
    }

    println!(
        "\nShape check vs the paper: at comparable precision our \
         deterministic method needs far fewer contractions than the \
         trajectories implementations need samples; the TN trajectory \
         variant pays a large per-sample cost."
    );
}
