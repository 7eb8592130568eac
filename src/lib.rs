#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]
//! Umbrella crate re-exporting the entire `qns` workspace.
//!
//! `qns` reproduces "Approximation Algorithm for Noisy Quantum Circuit
//! Simulation" (DATE 2024). See the individual crates for details; this
//! crate exists so that examples, integration tests and downstream users
//! can depend on a single package.
//!
//! The recommended entry point is the unified [`api`] facade: build an
//! [`api::ExpectationJob`] once and run it on any of the five engines
//! through the [`api::Backend`] trait. For many jobs, use the [`serve`]
//! layer: a [`serve::Service`] routes each job to the cheapest feasible
//! engine, caches results by canonical fingerprint, and deduplicates
//! concurrent identical submissions.
//!
//! # Example
//!
//! ```
//! use qns::prelude::*;
//!
//! let channel = channels::thermal_relaxation(30.0, 40.0, 25.0);
//! let noisy = NoisyCircuit::inject_random(generators::ghz(4), &channel, 2, 7);
//! let est = Simulation::new(&noisy)
//!     .initial(InitialState::zeros(4))
//!     .observable(Observable::zeros(4))
//!     .run_on(&ApproxBackend::level(2))?; // level = noise count ⇒ exact
//! assert!((est.value - 0.5).abs() < 0.01);
//! # Ok::<(), QnsError>(())
//! ```

pub use qns_api as api;
pub use qns_circuit as circuit;
pub use qns_core as core;
pub use qns_linalg as linalg;
pub use qns_noise as noise;
pub use qns_serve as serve;
pub use qns_sim as sim;
pub use qns_tdd as tdd;
pub use qns_tensor as tensor;
pub use qns_tnet as tnet;

/// The items most programs need, in one import.
pub mod prelude {
    pub use qns_api::{
        compare_backends, run_batch, ApproxBackend, Backend, DensityBackend, Estimate,
        ExpectationJob, Fingerprint, InitialState, Observable, QnsError, Simulation, TddBackend,
        TnetBackend, TrajectoryBackend,
    };
    pub use qns_circuit::{generators, Circuit, Gate, Operation};
    pub use qns_core::{
        approximate_expectation, error_bound, try_approximate_expectation, ApproxOptions, NoiseSvd,
    };
    pub use qns_linalg::{Complex64, Matrix};
    pub use qns_noise::{channels, Kraus, NoisyCircuit};
    pub use qns_serve::{JobHandle, JobSpec, Route, Service, ServiceBuilder, ServiceStats};
    pub use qns_tnet::builder::ProductState;
}
