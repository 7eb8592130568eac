#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]
//! Quantum circuit intermediate representation and benchmark generators.
//!
//! * [`Gate`] — the gate library: every single-qubit gate of the paper's
//!   Table I plus the two-qubit gates used by superconducting hardware
//!   (CZ, CX, controlled-U, iSWAP, fSim, Givens, ZZ-interaction).
//! * [`Circuit`] — an ordered list of gate applications with builder
//!   methods, depth computation and exact unitary construction for
//!   small qubit counts.
//! * [`generators`] — the benchmark families of the paper's evaluation:
//!   QAOA circuits (ring / hardware-style), Hartree–Fock VQE
//!   basis-rotation (Givens ladder) circuits, and `inst_RxC_D`
//!   supremacy-style random circuits on a grid.
//!
//! # Example
//!
//! ```
//! use qns_circuit::{Circuit, Gate};
//!
//! let mut c = Circuit::new(2);
//! c.h(0).cx(0, 1); // Bell pair preparation
//! assert_eq!(c.gate_count(), 2);
//! assert_eq!(c.depth(), 2);
//! ```

pub mod circuit;
pub mod gate;
pub mod generators;
pub mod text;

pub use circuit::{Circuit, Operation};
pub use gate::Gate;
pub use text::{from_text, to_text, CircuitTextError};
