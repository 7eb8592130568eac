//! Fault detection (ATPG flavour): the application the paper's
//! conclusion motivates — using fast noisy simulation inside automatic
//! test pattern generation for quantum circuits.
//!
//! Scenario: a manufactured circuit may carry a decoherence defect
//! after a specific gate. For every candidate defect location we use
//! the level-1 approximation to compute how much the defect shifts the
//! output statistics for each candidate test input, and report the
//! best (input, measurement) test pattern per location. The pattern
//! pool is evaluated through `run_batch` — the facade's many-jobs
//! entry point, which is exactly the shape an ATPG service would call.
//!
//! Run with: `cargo run --release --example fault_detection`

// Examples narrate to stdout by design (workspace lints deny
// print_stdout for library code only).
#![allow(clippy::print_stdout)]

use qns::circuit::generators::{qaoa_ring, QaoaRound};
use qns::noise::NoiseEvent;
use qns::prelude::*;

/// One job per test pattern: prepare `|bits⟩`, measure `|bits⟩⟨bits|`.
fn jobs_for<'a>(noisy: &'a NoisyCircuit, patterns: &[usize]) -> Vec<ExpectationJob<'a>> {
    patterns
        .iter()
        .map(|&bits| {
            Simulation::new(noisy)
                .initial_basis(bits)
                .observable_basis(bits)
                .build()
                .expect("valid job")
        })
        .collect()
}

fn main() {
    let rounds = [QaoaRound {
        gamma: 0.5,
        beta: 0.35,
    }];
    let circuit = qaoa_ring(5, &rounds);
    let n = circuit.n_qubits();
    println!(
        "Device under test: ring QAOA, {} qubits, {} gates",
        n,
        circuit.gate_count()
    );

    // Fault model: a strong thermal-relaxation defect (slow gate) that
    // may appear after any of a few suspect gates.
    let defect = channels::thermal_relaxation(5.0, 7.0, 400.0);
    println!("defect channel rate = {:.3e}\n", defect.noise_rate());

    let suspects: Vec<usize> = (0..circuit.gate_count()).step_by(7).collect();
    let backend = ApproxBackend::level(1);
    let patterns: Vec<usize> = (0..(1usize << n.min(5))).collect();

    // The defect-free reference statistics are location-independent:
    // one batch, evaluated before the location scan.
    let clean = NoisyCircuit::noiseless(circuit.clone());
    let c_runs = run_batch(&backend, &jobs_for(&clean, &patterns));

    println!(
        "{:>12} {:>10} {:>12} {:>14}",
        "defect@gate", "qubit", "best input", "detect prob"
    );
    for &g in &suspects {
        let qubit = circuit.operations()[g].qubits[0];
        let faulty = NoisyCircuit::new(
            circuit.clone(),
            vec![NoiseEvent {
                after_gate: g,
                qubit,
                kraus: defect.clone(),
            }],
        );

        // Scan a pool of candidate test patterns: basis inputs, with the
        // measurement fixed to the same basis state (a simple
        // pass/fail test: "does the device return the input pattern's
        // ideal statistics?"). One batch per suspect location.
        let f_runs = run_batch(&backend, &jobs_for(&faulty, &patterns));

        let mut best = (0usize, 0.0f64);
        for ((&bits, f), c) in patterns.iter().zip(&f_runs).zip(&c_runs) {
            let f_fault = f.as_ref().expect("batch entry").value;
            let f_clean = c.as_ref().expect("batch entry").value;
            let separation = (f_fault - f_clean).abs();
            if separation > best.1 {
                best = (bits, separation);
            }
        }
        println!(
            "{:>12} {:>10} {:>12} {:>14.3e}",
            g,
            qubit,
            format!("|{:0width$b}⟩", best.0, width = n),
            best.1
        );
    }

    println!(
        "\nEach row is a generated test: prepare the input pattern, run the \
         device, measure in the computational basis, and compare the \
         return-probability against the ideal value; the separation column \
         is the signal available to the tester. The approximation keeps \
         each candidate evaluation at 1+3N cheap contractions at most, which is \
         what makes scanning locations × patterns feasible — the ATPG \
         integration the paper's conclusion anticipates."
    );
}
