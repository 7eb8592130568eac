#![warn(missing_docs)]
//! The paper's contribution: an SVD-based approximation algorithm for
//! noisy quantum circuit simulation.
//!
//! Pipeline (Sections III–IV of the paper):
//!
//! 1. Every noise channel `E` enters the double-size tensor network as
//!    its superoperator matrix `M_E = Σ_k E_k ⊗ E_k*`.
//! 2. The [`permutation::tensor_permute`] operator reshuffles `M_E`
//!    into `M̃_E`, the channel's Hermitian positive semi-definite Choi
//!    matrix; its SVD — an eigendecomposition — then yields the
//!    **exact** Kronecker expansion `M_E = Σ_{i=0..3} U_i ⊗ V_i` with
//!    `V_i = conj(U_i)` ([`noise_svd::NoiseSvd`]).
//! 3. When the noise rate `‖M_E − I‖ < p` is small, `U_0 ⊗ V_0` is a
//!    `4p`-accurate rank-1 stand-in (Lemma 2, via Eckart–Young).
//!    Substituting Kronecker products for every noise **splits the
//!    double network into two independent single-size networks** whose
//!    scalar contractions multiply.
//! 4. The *l-level approximation* [`approx::approximate_expectation`]
//!    sums every substitution pattern with at most `l` noises taking a
//!    sub-dominant term, at the paper's cost of `2·Σ_{i≤l} C(N,i)·3^i`
//!    contractions with the Theorem-1 error bound
//!    ([`bounds::error_bound`]). Because `V_i = conj(U_i)`, the lower
//!    network of an expectation is the conjugate of the upper one, so
//!    each pattern costs one contraction here: `|amp|²`. Patterns that
//!    use a term with an exactly-zero eigenvalue add exactly `0` and
//!    are skipped ([`site_ranks`], [`bounds::planned_patterns_for_ranks`]).
//!
//! # Example
//!
//! ```
//! use qns_circuit::generators::ghz;
//! use qns_noise::{channels, NoisyCircuit};
//! use qns_tnet::builder::ProductState;
//! use qns_core::approx::{approximate_expectation, ApproxOptions};
//!
//! let noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(1e-3), 2, 7);
//! let res = approximate_expectation(
//!     &noisy,
//!     &ProductState::all_zeros(3),
//!     &ProductState::basis(3, 0b111),
//!     &ApproxOptions::default().with_level(1),
//! );
//! // GHZ fidelity stays near 1/2 under tiny noise.
//! assert!((res.value - 0.5).abs() < 0.01);
//! ```

pub mod approx;
pub mod bounds;
pub mod noise_svd;
pub mod patterns;
pub mod permutation;
pub mod refine;
pub mod timing;

pub use approx::{
    append_ideal_inverse, approximate_expectation, approximate_matrix_element, reconstruct_density,
    simulate_auto, site_ranks, try_approximate_expectation, try_approximate_matrix_element,
    try_reconstruct_density, ApproxOptions, ApproxResult, AutoReport,
};
pub use bounds::{
    contraction_count, error_bound, level_patterns, level_patterns_for_ranks, level_recommendation,
    planned_patterns, planned_patterns_for_ranks,
};
pub use noise_svd::NoiseSvd;
pub use patterns::{GrayPatternStream, PatternStream};
pub use permutation::tensor_permute;
pub use qns_noise::QnsError;
pub use refine::{LevelEvaluator, PartialEstimate};
