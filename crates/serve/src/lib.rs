#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]
//! `qns-serve` — the serving layer over the unified [`qns_api`]
//! facade.
//!
//! The paper's pitch (Theorem 1) is that level-`l` truncation makes
//! noisy expectation values cheap enough to answer *many* queries.
//! This crate is the layer that actually serves them: a [`Service`]
//! accepts [`JobSpec`]s through a bounded queue, routes each to the
//! cheapest feasible engine, and hands back [`JobHandle`] futures —
//! while making sure identical work is never done twice:
//!
//! * **Fingerprinting** — jobs are keyed by their canonical
//!   [`qns_api::Fingerprint`], so structurally identical jobs compare
//!   equal however they were built.
//! * **Cost-based routing** — [`Route::Auto`] scores every registered
//!   engine with [`qns_api::Backend::cost_hint`] and skips engines
//!   whose [`qns_api::Backend::supports`] declines (the dense engine
//!   is never handed a job it would reject). [`Route::Fixed`] pins an
//!   engine by name.
//! * **Result caching** — completed estimates live in an
//!   [`cache::LruCache`] with hit/miss/eviction counters.
//! * **Single-flight dedup** — N concurrent submissions of one
//!   fingerprint trigger exactly one backend execution; the other
//!   N−1 handles join the in-flight computation.
//!
//! * **Anytime refinement** — [`Service::submit_refine`] answers
//!   within a caller's latency budget at the deepest affordable
//!   truncation level (with its Theorem-1 error bar), then keeps
//!   tightening the estimate level by level in the background,
//!   streaming every refinement through a [`RefinementHandle`].
//!   Per-level partial sums are cached so a resubmission resumes
//!   instead of restarting; dropping the handle cancels the
//!   escalation. See [`refine`] for the model.
//!
//! Every counter lives in a [`qns_obs::Registry`] the service owns:
//! [`ServiceStats`] is a typed view over it, [`Service::metrics_snapshot`]
//! exports the whole catalog (Prometheus text or JSON via
//! [`qns_obs::export`]), and [`Service::drain_events`] returns the
//! bounded journal of per-job lifecycle timelines (submit → route →
//! queue → execute/refine → resolve). See `docs/OBSERVABILITY.md` for
//! the metric catalog and determinism rules.
//!
//! # Example
//!
//! ```
//! use qns_serve::{JobSpec, Route, ServiceBuilder};
//! use qns_circuit::generators::ghz;
//! use qns_noise::{channels, NoisyCircuit};
//!
//! let service = ServiceBuilder::new().workers(2).cache_capacity(64).build();
//!
//! let noisy = NoisyCircuit::inject_random(ghz(4), &channels::depolarizing(1e-3), 2, 7);
//! let spec = JobSpec::zeros(noisy);
//!
//! // Submit the same job twice: one execution, two satisfied handles.
//! let a = service.submit(&spec)?;
//! let b = service.submit_routed(&spec, Route::Auto)?;
//! assert_eq!(a.wait()?.value.to_bits(), b.wait()?.value.to_bits());
//! let stats = service.stats();
//! assert_eq!(stats.executed, 1);
//! assert_eq!(stats.saved_executions(), 1);
//! # Ok::<(), qns_serve::QnsError>(())
//! ```

pub mod breaker;
pub mod cache;
pub mod faults;
mod obs;
pub mod refine;
pub mod router;
mod service;
pub mod sync;

pub use breaker::{BreakerPolicy, BreakerState, CircuitBreaker};
pub use cache::{CacheCounters, LruCache};
pub use faults::{ChaosBackend, Failpoint, FaultAction, FaultPlan};
pub use refine::{LevelSum, RefineRequest, RefinementHandle, RefinementUpdate};
pub use router::{route_job, route_job_masked, Route, SharedBackend};
pub use service::{
    default_engines, AdmissionPolicy, BackendStats, JobHandle, JobSpec, RetryPolicy, Service,
    ServiceBuilder, ServiceStats, TimeoutPolicy,
};
pub use sync::{LockRank, OrderedCondvar, OrderedMutex, OrderedMutexGuard};

// Re-exported so service code can be written against one crate.
pub use qns_api::{Estimate, Fingerprint, PartialEstimate, QnsError};
// Observability vocabulary callers of `Service::metrics_snapshot` /
// `Service::drain_events` consume (see `docs/OBSERVABILITY.md`).
pub use qns_obs::{DrainedEvents, Event, EventKind, MetricsSnapshot};
