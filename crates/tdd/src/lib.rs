#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]
//! Decision-diagram (QMDD-style) quantum simulation substrate.
//!
//! The paper's third accurate baseline is the TDD-based method — a
//! decision-diagram representation of quantum states, gates and
//! noises. This crate implements the canonical multiplicative
//! decision diagram for matrices: hash-consed nodes with four child
//! edges (one per row/column bit pair of the top qubit), normalized
//! complex edge weights, and memoized addition and multiplication.
//!
//! States are represented as `2^n × 1` matrices (column vectors) in
//! the same diagram, so a single node type covers vectors, gates,
//! Kraus operators and density matrices. Noisy simulation evolves the
//! density matrix `ρ` as a diagram, applying channels as Kraus sums —
//! compact whenever the diagrams stay structured, exactly the regime
//! the paper's Table II probes.
//!
//! # Example
//!
//! ```
//! use qns_tdd::manager::DdManager;
//! use qns_circuit::generators::ghz;
//!
//! let mut man = DdManager::new(2);
//! let mut state = man.basis_vector(0);
//! for op in ghz(2).operations() {
//!     let g = man.gate(op);
//!     state = man.mul(g, state);
//! }
//! // ⟨11|GHZ⟩ = 1/√2
//! let amp = man.vector_amplitude(state, 0b11);
//! assert!((amp.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
//! ```

pub mod manager;
pub mod simulator;

pub use manager::{DdManager, Edge};
pub use simulator::expectation;
