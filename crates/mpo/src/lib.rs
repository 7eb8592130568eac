#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]
//! Matrix product operator (MPO) noisy-circuit simulation.
//!
//! The paper's related work (Section I) lists MPS/MPO/MPDO methods as
//! the other SVD-based approximation family for noisy simulation; this
//! crate implements that baseline so the two approximation styles can
//! be compared head-to-head.
//!
//! The density matrix of an `n`-qubit chain is stored as a train of
//! rank-4 site tensors `A_q[l, i, j, r]` (left bond, physical row,
//! physical column, right bond):
//!
//! ```text
//! ρ[i_1 j_1, …, i_n j_n] = Σ_bonds  A_1[1,i_1,j_1,b_1] · A_2[b_1,…] ⋯
//! ```
//!
//! Gates and channels act locally as superoperators on the physical
//! pair; two-qubit operations on adjacent sites merge–apply–split with
//! an SVD whose bond dimension is capped at `χ` (truncation error is
//! tracked). Non-adjacent pairs are routed with SWAPs.
//!
//! # Example
//!
//! ```
//! use qns_mpo::MpoState;
//! use qns_circuit::generators::ghz;
//! use qns_noise::{channels, NoisyCircuit};
//!
//! let noisy = NoisyCircuit::inject_random(ghz(6), &channels::depolarizing(1e-3), 2, 5);
//! let mut rho = MpoState::all_zeros(6, 32);
//! rho.run(&noisy);
//! let p = rho.probability_of_basis(0b111111);
//! assert!((p - 0.5).abs() < 0.01);
//! ```

pub mod state;

pub use state::MpoState;
