//! The committed metric catalog.
//!
//! Every metric family the workspace records is declared once in the
//! table below, which emits both a `pub const` [`MetricDef`] per family
//! and the [`CATALOG`] slice of all of them. The registry's record-side
//! accessors ([`crate::Registry::counter`] and friends) take a
//! `&'static MetricDef`, and [`MetricDef`] is `#[non_exhaustive]`, so
//! no other crate can build one: a call site can only name a family
//! declared here, and a misspelt constant fails to compile. The read
//! side ([`crate::MetricsSnapshot`] lookups and the exporters) stays
//! keyed by the name strings, which are what dashboards see.
//!
//! ```
//! let registry = qns_obs::Registry::new();
//! registry.counter(&qns_obs::catalog::SERVE_JOBS_SUBMITTED_TOTAL).inc();
//! ```
//!
//! A family outside the catalog does not compile:
//!
//! ```compile_fail,E0425
//! let registry = qns_obs::Registry::new();
//! registry.counter(&qns_obs::catalog::SERVE_JOBS_SUBMITED_TOTAL).inc();
//! ```
//!
//! Nor does a definition built outside this crate:
//!
//! ```compile_fail,E0639
//! use qns_obs::{MetricDef, MetricKind};
//! let rogue = MetricDef { name: "qns_rogue_total", kind: MetricKind::Counter, label: None, help: "" };
//! ```
//!
//! Naming follows Prometheus conventions: `qns_<crate>_<what>_total`
//! for counters, plain `qns_<crate>_<what>` for gauges, and
//! `qns_<crate>_<what>_micros` (or another explicit unit) for
//! histograms. Each constant is the family name without its `qns_`
//! prefix, upper-cased.

/// The kind of a metric family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing `u64`.
    Counter,
    /// Signed instantaneous value with a retained high-water mark.
    Gauge,
    /// Fixed-bucket log₂ histogram of `u64` samples.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One catalog entry: the static description of a metric family.
/// Only this module builds them (see the module docs).
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct MetricDef {
    /// Unique metric family name (Prometheus-style snake case).
    pub name: &'static str,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// Label key when the family is partitioned (e.g. `backend`);
    /// `None` for plain single-series metrics.
    pub label: Option<&'static str>,
    /// One-line human description, emitted as the `# HELP` text.
    pub help: &'static str,
}

/// Declares each family once: `IDENT: Kind, "name", label, help;`
/// becomes `pub const IDENT: MetricDef` plus its [`CATALOG`] entry.
macro_rules! catalog {
    ($($ident:ident: $kind:ident, $name:literal, $label:expr, $help:literal;)*) => {
        $(
            #[doc = $help]
            pub const $ident: MetricDef = MetricDef {
                name: $name,
                kind: MetricKind::$kind,
                label: $label,
                help: $help,
            };
        )*

        /// Every metric family the workspace may record, in declaration
        /// order. [`crate::Registry::new`] pre-registers all of them.
        pub const CATALOG: &[MetricDef] = &[$($ident),*];
    };
}

catalog! {
    // --- qns-serve: job intake and resolution -------------------------
    SERVE_JOBS_SUBMITTED_TOTAL: Counter, "qns_serve_jobs_submitted_total", None,
        "Accepted submissions (expect + refine), including dedup joins and cache hits";
    SERVE_JOBS_EXECUTED_TOTAL: Counter, "qns_serve_jobs_executed_total", None,
        "Expectation jobs actually executed on a backend";
    SERVE_DEDUP_JOINS_TOTAL: Counter, "qns_serve_dedup_joins_total", None,
        "Submissions that joined an in-flight identical job";
    SERVE_CACHE_HITS_TOTAL: Counter, "qns_serve_cache_hits_total", None,
        "Result-cache lookups answered from the LRU";
    SERVE_CACHE_MISSES_TOTAL: Counter, "qns_serve_cache_misses_total", None,
        "Result-cache lookups that missed";
    SERVE_CACHE_EVICTIONS_TOTAL: Counter, "qns_serve_cache_evictions_total", None,
        "Result-cache entries evicted to make room";
    SERVE_PARTIAL_CACHE_HITS_TOTAL: Counter, "qns_serve_partial_cache_hits_total", None,
        "Partial-sum cache probes that found a usable level prefix";
    SERVE_PARTIAL_CACHE_MISSES_TOTAL: Counter, "qns_serve_partial_cache_misses_total", None,
        "Partial-sum cache probes that found nothing";
    SERVE_PARTIAL_CACHE_EVICTIONS_TOTAL: Counter, "qns_serve_partial_cache_evictions_total", None,
        "Partial-sum cache entries evicted to make room";
    SERVE_QUEUE_DEPTH: Gauge, "qns_serve_queue_depth", None,
        "Work items currently queued (high-water mark = peak depth)";
    SERVE_QUEUE_WAIT_MICROS: Histogram, "qns_serve_queue_wait_micros", None,
        "Microseconds a work item waited in the queue before a worker picked it up";
    SERVE_E2E_LATENCY_MICROS: Histogram, "qns_serve_e2e_latency_micros", None,
        "Microseconds from submission to resolution for executed jobs and refinements";
    SERVE_BACKEND_JOBS_TOTAL: Counter, "qns_serve_backend_jobs_total", Some("backend"),
        "Jobs completed per backend (refinements under backend=\"refine\")";
    SERVE_BACKEND_MICROS_TOTAL: Counter, "qns_serve_backend_micros_total", Some("backend"),
        "Total execution microseconds per backend";
    // --- qns-serve: anytime refinement --------------------------------
    SERVE_REFINEMENTS_TOTAL: Counter, "qns_serve_refinements_total", None,
        "Accepted refinement submissions";
    SERVE_REFINE_LEVELS_COMPLETED_TOTAL: Counter, "qns_serve_refine_levels_completed_total", Some("level"),
        "Refinement levels freshly computed, by level index";
    SERVE_REFINE_LEVELS_FROM_CACHE_TOTAL: Counter, "qns_serve_refine_levels_from_cache_total", None,
        "Refinement levels replayed from the partial-sum cache";
    SERVE_REFINE_ACTIVE: Gauge, "qns_serve_refine_active", None,
        "Refinements in flight (high-water mark = peak concurrency)";
    SERVE_REFINE_CANCELLED_TOTAL: Counter, "qns_serve_refine_cancelled_total", None,
        "Refinements observed cancelled before reaching their final level";
    SERVE_REFINE_LEVEL_MICROS: Histogram, "qns_serve_refine_level_micros", None,
        "Microseconds to freshly compute one refinement level";
    // --- qns-serve: fault tolerance ------------------------------------
    SERVE_RETRIES_TOTAL: Counter, "qns_serve_retries_total", None,
        "Execution attempts beyond the first (retry policy re-submissions)";
    SERVE_FAILOVERS_TOTAL: Counter, "qns_serve_failovers_total", None,
        "Retries that re-routed to a different engine than the failed attempt";
    SERVE_TIMEOUTS_TOTAL: Counter, "qns_serve_timeouts_total", None,
        "Jobs resolved with QnsError::Timeout by the deadline watchdog";
    SERVE_SHED_TOTAL: Counter, "qns_serve_shed_total", None,
        "Submissions rejected with QnsError::Overloaded by admission control";
    SERVE_DEGRADED_TOTAL: Counter, "qns_serve_degraded_total", None,
        "Refinements admitted at a shallower Theorem-1 first level under overload";
    SERVE_BREAKER_STATE: Gauge, "qns_serve_breaker_state", Some("backend"),
        "Circuit-breaker state per engine (0 = closed, 1 = half-open, 2 = open)";
    SERVE_BREAKER_OPENS_TOTAL: Counter, "qns_serve_breaker_opens_total", Some("backend"),
        "Closed/half-open to open transitions per engine circuit breaker";
    // --- qns-serve: event journal and measurement window ---------------
    SERVE_EVENTS_DROPPED_TOTAL: Counter, "qns_serve_events_dropped_total", None,
        "Journal events overwritten before being drained (ring overflow)";
    SERVE_WINDOW_FIRST_SUBMIT_MICROS: Gauge, "qns_serve_window_first_submit_micros", None,
        "Service-clock micros of the first accepted submission (0 = none yet)";
    SERVE_WINDOW_LAST_RESOLVE_MICROS: Gauge, "qns_serve_window_last_resolve_micros", None,
        "Service-clock micros of the most recent resolution (0 = none yet)";
    // --- qns-tnet: compiled-plan replay profiling ----------------------
    TNET_REPLAYS_TOTAL: Counter, "qns_tnet_replays_total", Some("mode"),
        "Compiled-plan replays and environment sweeps, by mode (full, delta or sweep)";
    TNET_REPLAY_MICROS: Histogram, "qns_tnet_replay_micros", Some("mode"),
        "Microseconds per compiled-plan replay or sweep, by mode";
    TNET_REPLAY_STEPS: Histogram, "qns_tnet_replay_steps", Some("mode"),
        "Contraction steps executed per replay (delta = dirty steps only, sweep = reverse steps)";
}

/// Looks up a catalog entry by name.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    CATALOG.iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, def) in CATALOG.iter().enumerate() {
            assert!(
                def.name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{} has non-snake-case characters",
                def.name
            );
            assert!(
                def.name.starts_with("qns_"),
                "{} lacks qns_ prefix",
                def.name
            );
            assert!(!def.help.is_empty());
            for other in &CATALOG[..i] {
                assert_ne!(def.name, other.name, "duplicate catalog entry");
            }
        }
    }

    #[test]
    fn counters_end_in_total() {
        for def in CATALOG {
            if def.kind == MetricKind::Counter {
                assert!(def.name.ends_with("_total"), "{} is a counter", def.name);
            } else {
                assert!(
                    !def.name.ends_with("_total"),
                    "{} is not a counter",
                    def.name
                );
            }
        }
    }

    #[test]
    fn find_round_trips() {
        for def in CATALOG {
            assert_eq!(find(def.name).map(|d| d.name), Some(def.name));
        }
        assert!(find("qns_serve_bogus").is_none());
    }
}
