#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]
//! The unified simulation API for the `qns` workspace.
//!
//! The paper's central claim (Theorem 1) is a *comparison*: the
//! level-`l` SVD expansion matches the density-matrix, trajectory,
//! decision-diagram and tensor-network baselines at a fraction of
//! their cost. This crate makes that comparison a one-liner by putting
//! all five engines behind one [`Backend`] trait with a single
//! request/response protocol:
//!
//! * [`ExpectationJob`] — the paper's Problem 1, `⟨v|E_N(|ψ⟩⟨ψ|)|v⟩`,
//!   as a validated request: a noisy circuit, an [`InitialState`] `|ψ⟩`
//!   and an [`Observable`] projector `|v⟩⟨v|`. The state types own the
//!   conversions between the engines' three representations
//!   (`&[Complex64]` statevectors, [`ProductState`]s,
//!   `[[Complex64; 2]]` factor lists), replacing the hand-rolled glue
//!   at every call site.
//! * [`Backend`] — `fn expectation(&self, job) -> Result<Estimate, QnsError>`,
//!   implemented by [`ApproxBackend`], [`DensityBackend`],
//!   [`TrajectoryBackend`], [`TddBackend`] and [`TnetBackend`].
//! * [`Simulation`] — a fluent builder:
//!   `Simulation::new(&noisy).initial(..).observable(..).run_on(&backend)`.
//! * [`run_batch`] / [`compare_backends`] — many jobs on one backend,
//!   or one job across many backends, in one call.
//!
//! # Example
//!
//! ```
//! use qns_api::{ApproxBackend, Backend, DensityBackend, Simulation};
//! use qns_circuit::generators::ghz;
//! use qns_noise::{channels, NoisyCircuit};
//!
//! let noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(1e-3), 2, 7);
//! let job = Simulation::new(&noisy).observable_basis(0b111).build()?;
//!
//! let exact = DensityBackend::new().expectation(&job)?;
//! let approx = ApproxBackend::level(2).expectation(&job)?; // 2 noises ⇒ exact
//! assert!((exact.value - approx.value).abs() < 1e-9);
//! # Ok::<(), qns_api::QnsError>(())
//! ```

mod backends;
mod batch;
pub mod fingerprint;
mod job;
pub mod refine;

pub use backends::{
    ApproxBackend, Backend, DensityBackend, TddBackend, TnetBackend, TrajectoryBackend,
};
pub use batch::{compare_backends, run_batch};
pub use fingerprint::{Fingerprint, Fingerprinter};
pub use job::{Estimate, ExpectationJob, InitialState, Observable, Simulation};
pub use refine::{partial_sum_key, PartialEstimate, Refinement};

// Re-exported so downstream code can name every type in a facade
// signature from this one crate.
pub use qns_core::ApproxOptions;
pub use qns_noise::QnsError;
pub use qns_sim::trajectory::SamplingStrategy;
pub use qns_tnet::builder::ProductState;
