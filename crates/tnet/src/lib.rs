#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]
//! Tensor networks for (noisy) quantum circuit simulation.
//!
//! This crate is the workspace's replacement for the Google
//! TensorNetwork library the paper builds on:
//!
//! * [`network`] — a [`network::TensorNetwork`] of dense tensors
//!   connected by shared legs, contracted in greedy pairwise order.
//! * [`plan`] — plan-once/execute-many contraction: a
//!   [`plan::ContractionPlan`] captures the order search's result for
//!   one network skeleton and replays it against fresh payloads, so a
//!   topology contracted millions of times (the approximation
//!   algorithm's pattern sum) searches exactly once.
//! * [`exec`] — compiled plan execution: an [`exec::ExecutablePlan`]
//!   lowers every planned step to precomputed kernels (matmul dims,
//!   identity-elided/fused permutations, exact buffer layout) and
//!   replays through a per-thread [`exec::Workspace`] with **zero
//!   heap allocations per execution**; a reverse sweep gives every
//!   varying leaf's environment at once.
//! * [`builder`] — circuit-to-network translation: the single-side
//!   amplitude network `⟨v|C|ψ⟩` and the paper's **double-size noisy
//!   network** (Fig. 2) in which each noise channel appears as its
//!   superoperator tensor `M_E = Σ E_k ⊗ E_k*` bridging the two halves,
//!   plus the reusable [`builder::AmplitudeSkeleton`] whose insertion
//!   payloads can be swapped between plan executions.
//! * [`simulator`] — the **TN-based exact method** (contract the double
//!   network) and a TN-based quantum-trajectories variant.
//! * [`profile`] — opt-in replay profiling: [`profile::install`] routes
//!   per-replay timing and step counts (full, delta or sweep) into a
//!   [`qns_obs::Registry`]; while uninstalled the hooks cost one atomic
//!   load, and `exec` itself never touches the wall clock.
//!
//! # Example
//!
//! ```
//! use qns_circuit::generators::ghz;
//! use qns_tnet::builder::ProductState;
//! use qns_tnet::simulator;
//! use qns_noise::NoisyCircuit;
//!
//! let noisy = NoisyCircuit::noiseless(ghz(3));
//! let f = simulator::expectation(
//!     &noisy,
//!     &ProductState::all_zeros(3),
//!     &ProductState::basis(3, 0b000),
//! );
//! assert!((f - 0.5).abs() < 1e-10); // |⟨000|GHZ⟩|² = 1/2
//! ```

pub mod builder;
pub mod exec;
pub mod network;
pub mod plan;
pub mod profile;
pub mod simulator;
