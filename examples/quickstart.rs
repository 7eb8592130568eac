//! Quickstart: simulate a noisy GHZ circuit on all five engines through
//! the unified `Backend` trait.
//!
//! Demonstrates the workspace end to end: build a circuit, inject
//! realistic superconducting noise, phrase the fidelity
//! `⟨v|E(|0…0⟩⟨0…0|)|v⟩` as one `ExpectationJob`, and run the *same*
//! job on
//!
//! 1. exact density-matrix simulation (MM-based baseline),
//! 2. the decision-diagram baseline,
//! 3. exact tensor-network contraction,
//! 4. quantum trajectories (sampling baseline),
//! 5. the paper's SVD approximation at levels 0, 1, 2.
//!
//! Run with: `cargo run --release --example quickstart`

// Examples narrate to stdout by design (workspace lints deny
// print_stdout for library code only).
#![allow(clippy::print_stdout)]

use qns::circuit::generators::ghz;
use qns::core::approx::append_ideal_inverse;
use qns::core::bounds;
use qns::prelude::*;

fn main() {
    let n = 5;
    let n_noises = 4;

    // A 25 ns gate on a T1 = 30 µs / T2 = 40 µs transmon.
    let channel = channels::thermal_relaxation(30.0, 40.0, 25.0);
    println!(
        "noise channel rate ‖M_E − I‖₂ = {:.3e}",
        channel.noise_rate()
    );

    let noisy = NoisyCircuit::inject_random(ghz(n), &channel, n_noises, 42);
    println!("{noisy}");

    // The GHZ target |v⟩ is entangled, so rewrite via the ideal-inverse
    // trick: append C† and test against |0…0⟩. One product-shaped job
    // then serves every engine.
    let extended = append_ideal_inverse(&noisy);
    let job = Simulation::new(&extended)
        .initial(InitialState::zeros(n))
        .observable(Observable::zeros(n))
        .build()
        .expect("valid job");

    // 1–3: the deterministic engines, one trait call each.
    let density = DensityBackend::new();
    let tdd = TddBackend::new();
    let tnet = TnetBackend::new();
    let backends: Vec<&dyn Backend> = vec![&density, &tdd, &tnet];
    let mut exact = f64::NAN;
    for result in compare_backends(&backends, &job) {
        let est = result.expect("engines feasible at this size");
        println!("{:<12}: {:.9}", est.backend, est.value);
        if est.backend == "density" {
            exact = est.value;
        }
    }

    // 4: quantum trajectories — same job, statistical answer.
    let est = TrajectoryBackend::samples(2000)
        .with_seed(7)
        .expectation(&job)
        .expect("trajectory run");
    println!(
        "{:<12}: {:.9} ± {:.1e} (2000 samples)",
        est.backend,
        est.value,
        est.std_error
            .expect("sampling backends report an error bar")
    );

    // 5: the paper's approximation, level by level.
    let p = noisy.max_noise_rate();
    for level in 0..=2 {
        let est = ApproxBackend::level(level)
            .expectation(&job)
            .expect("approximation run");
        println!(
            "approx l={level}   : {:.9}  (error {:.2e}, bound {:.2e}, {} contractions)",
            est.value,
            (est.value - exact).abs(),
            bounds::error_bound(n_noises, p, level),
            bounds::contraction_count(n_noises, level),
        );
    }
}
