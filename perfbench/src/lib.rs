//! The qns benchmark: three seeded workloads run against the public
//! APIs of `qns-api`, `qns-core`, `qns-tnet` and `qns-serve`, with
//! every answer checked, end-to-end metrics from untraced runs and
//! per-layer metrics from traced runs.
//!
//! * `deep_sum` — the pattern sum dominates: delta replay, kernels,
//!   Gray order and the parallel evaluator.
//! * `serve_mixed` — per-job set-up and the serving path dominate:
//!   submit, queue, router, result cache and single-flight.
//! * `refine_stream` — level-by-level refinement with cached partial
//!   sums, the service's second pipeline.
//!
//! Run `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! (see `main.rs`); metric names are in [`metrics`].

pub mod alloc;
pub mod deep_sum;
pub mod gen;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod serve;
pub mod stats;
pub mod trace;
