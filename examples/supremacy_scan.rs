//! Supremacy-circuit scan: TN-exact contraction vs the approximation
//! as the noise count grows (the paper's Fig. 4 story).
//!
//! On `inst_RxC_D` random circuits the double-size network's
//! contraction cost grows quickly with the number of noise bridges,
//! while the level-1 approximation's cost is linear in the noise
//! count. Both engines are driven through the unified `Backend` trait
//! on the same `ExpectationJob`; this example prints both costs side
//! by side.
//!
//! Run with: `cargo run --release --example supremacy_scan`

// Examples narrate to stdout by design (workspace lints deny
// print_stdout for library code only).
#![allow(clippy::print_stdout)]

use qns::circuit::generators::inst_grid;
use qns::prelude::*;
use std::time::Instant;

fn main() {
    let (rows, cols, depth) = (2, 3, 8);
    let circuit = inst_grid(rows, cols, depth, 11);
    let n = circuit.n_qubits();
    println!(
        "inst_{rows}x{cols}_{depth}: {} qubits, {} gates, depth {}",
        n,
        circuit.gate_count(),
        circuit.depth()
    );
    let channel = channels::thermal_relaxation(30.0, 40.0, 25.0);

    println!(
        "\n{:>7} {:>12} {:>13} {:>12} {:>13} {:>11}",
        "#noise", "TN exact", "TN time", "ours (l=1)", "ours time", "|diff|"
    );
    for n_noises in [0usize, 2, 4, 8, 12, 16] {
        let noisy = if n_noises == 0 {
            NoisyCircuit::noiseless(circuit.clone())
        } else {
            NoisyCircuit::inject_random(circuit.clone(), &channel, n_noises, 500 + n_noises as u64)
        };
        let job = Simulation::new(&noisy).build().expect("valid job");

        let t0 = Instant::now();
        let tn = TnetBackend::new().expectation(&job).expect("TN run");
        let tn_time = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let ours = ApproxBackend::level(1)
            .expectation(&job)
            .expect("level-1 run");
        let ours_time = t1.elapsed().as_secs_f64();

        println!(
            "{:>7} {:>12.6e} {:>12.3}s {:>12.6e} {:>12.3}s {:>11.2e}",
            n_noises,
            tn.value,
            tn_time,
            ours.value,
            ours_time,
            (tn.value - ours.value).abs(),
        );
    }

    println!(
        "\nThe approximation's cost column grows linearly with the noise \
         count (1+3N contractions),\nwhile the exact double-network \
         contraction degrades as noise tensors bridge the two halves."
    );
}
