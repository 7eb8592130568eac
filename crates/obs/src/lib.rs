#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]
//! `qns-obs` — dependency-free observability substrate for the `qns`
//! workspace.
//!
//! Three pieces, all hand-rolled on `std` (no crates.io dependencies):
//!
//! 1. **Metrics registry** ([`Registry`]): atomic [`Counter`]s,
//!    [`Gauge`]s with high-water marks, and fixed-bucket log₂
//!    [`Histogram`]s with preallocated buckets. Every metric family is
//!    a `pub const` [`MetricDef`] in the committed [`catalog`], and the
//!    record-side accessors take `&'static MetricDef`, so a family
//!    outside the catalog does not compile. The record path is a few
//!    relaxed atomic ops and performs zero heap allocations in steady
//!    state (`tests/zero_alloc.rs` counts them with a global
//!    allocator; [`Registry::allocation_events`] counts registrations).
//! 2. **Event journal** ([`Journal`]): a bounded preallocated ring of
//!    structured per-job lifecycle [`Event`]s (submit → route → queue
//!    wait → execute/cache/join → per-level refine progress →
//!    resolve). Overflow overwrites the oldest event and is counted,
//!    never silent. [`DrainedEvents::timelines`] reconstructs per-job
//!    timelines.
//! 3. **Exporters** ([`export`]): Prometheus text exposition and
//!    deterministic JSON, both pure functions of a
//!    [`MetricsSnapshot`] — same recorded values, same bytes. A
//!    minimal [`json`] reader closes the loop for round-trip tests
//!    and CI coverage checks.
//!
//! See `docs/OBSERVABILITY.md` for the metric catalog, bucket scheme,
//! event schema, and the determinism rules governing wall-clock reads.

pub mod catalog;
pub mod export;
pub mod journal;
pub mod json;
pub mod registry;

pub use catalog::{MetricDef, MetricKind, CATALOG};
pub use journal::{DrainedEvents, Event, EventKind, Journal};
pub use registry::{
    bucket_index, bucket_le, ChildSnapshot, Counter, Gauge, GaugeSnapshot, Histogram,
    HistogramSnapshot, MetricSnapshot, MetricsSnapshot, Registry, ValueSnapshot, BUCKET_COUNT,
};
