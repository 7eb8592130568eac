#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]
//! Reference simulators for noisy quantum circuits.
//!
//! Three of the paper's baselines live here:
//!
//! * [`statevector`] — dense noiseless statevector simulation with
//!   bit-twiddled gate kernels (the building block for everything
//!   else).
//! * [`density`] — the **MM-based method**: exact density-matrix
//!   evolution, `O(4^n)` memory.
//! * [`trajectory`] — the **quantum trajectories method** [Isakov et
//!   al.]: Monte-Carlo sampling of Kraus operators on statevectors,
//!   with a sample-count planner.
//!
//! The common task solved by all of them is the paper's Problem 1:
//! estimate `⟨v| E_N(|ψ⟩⟨ψ|) |v⟩`.
//!
//! # Example
//!
//! ```
//! use qns_circuit::generators::ghz;
//! use qns_noise::{channels, NoisyCircuit};
//! use qns_sim::statevector::basis_state;
//!
//! let noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(1e-3), 2, 7);
//! let psi = basis_state(3, 0);
//! let v = qns_sim::statevector::ghz_state(3);
//! let fidelity = qns_sim::density::expectation(&noisy, &psi, &v);
//! assert!(fidelity > 0.9 && fidelity <= 1.0 + 1e-9);
//! ```

pub mod density;
pub mod kernels;
pub mod statevector;
pub mod trajectory;
