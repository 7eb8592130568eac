#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]
//! Quantum noise channels and noisy-circuit construction.
//!
//! * [`Kraus`] — a quantum channel in Kraus form, with CPTP validation,
//!   density-matrix application, the superoperator matrix
//!   `M_E = Σ_k E_k ⊗ E_k*` of the paper's Section III, and the noise
//!   rate `‖M_E − I‖₂` of Section IV.
//! * [`channels`] — the standard channel zoo (depolarizing, flips,
//!   damping) plus [`channels::thermal_relaxation`], the realistic
//!   superconducting decoherence model used as the paper's fault model.
//! * [`NoisyCircuit`] — a [`qns_circuit::Circuit`] plus noise events
//!   appended after randomly chosen gates, exactly the fault-injection
//!   procedure of the paper's evaluation.
//!
//! # Example
//!
//! ```
//! use qns_noise::channels;
//!
//! let dep = channels::depolarizing(0.001);
//! assert!(dep.is_cptp(1e-12));
//! // Small depolarizing noise is close to the identity channel.
//! assert!(dep.noise_rate() < 0.01);
//! ```

pub mod channels;
pub mod error;
pub mod kraus;
pub mod noisy;

pub use error::QnsError;
pub use kraus::Kraus;
pub use noisy::{Element, NoiseEvent, NoisyCircuit};
