//! The service's observability spine: one [`qns_obs::Registry`] plus a
//! bounded event journal, with every handle the hot paths need fetched
//! once at construction so steady-state recording is allocation-free.
//!
//! Lifecycle events are recorded into the journal behind the
//! `serve.journal` [`OrderedMutex`] — the innermost
//! [`crate::sync::LockRank`], so recording is legal from any point,
//! including while `serve.state` is held (which the submit paths rely
//! on to keep each job's events in pipeline order).

use crate::sync::{LockRank, OrderedMutex};
use qns_core::timing::Stopwatch;
use qns_obs::{catalog, Counter, DrainedEvents, EventKind, Gauge, Histogram, Journal, Registry};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-backend counter handles (jobs + cumulative busy time).
pub(crate) struct BackendHandles {
    pub(crate) jobs: Counter,
    pub(crate) micros: Counter,
}

/// All observability state of one [`crate::Service`].
pub(crate) struct Obs {
    pub(crate) registry: Arc<Registry>,
    journal: OrderedMutex<Journal>,
    /// Monotone clock all event/window timestamps are read from, so
    /// they share one origin (service construction).
    clock: Stopwatch,
    next_job_id: AtomicU64,
    pub(crate) submitted: Counter,
    pub(crate) executed: Counter,
    pub(crate) dedup_joins: Counter,
    pub(crate) queue_depth: Gauge,
    pub(crate) queue_wait: Histogram,
    pub(crate) e2e: Histogram,
    pub(crate) refinements: Counter,
    pub(crate) refine_from_cache: Counter,
    pub(crate) refine_cancelled: Counter,
    pub(crate) refine_active: Gauge,
    pub(crate) refine_level_micros: Histogram,
    pub(crate) retries: Counter,
    pub(crate) failovers: Counter,
    pub(crate) timeouts: Counter,
    pub(crate) shed: Counter,
    pub(crate) degraded: Counter,
    window_first_submit: Gauge,
    window_last_resolve: Gauge,
    /// One handle pair per engine name, plus the synthetic `refine`
    /// backend. Engine names are fixed at build time, so this map is
    /// complete and never mutated afterwards.
    pub(crate) backends: BTreeMap<&'static str, BackendHandles>,
}

impl Obs {
    pub(crate) fn new<'a>(
        engine_names: impl IntoIterator<Item = &'a &'static str>,
        journal_capacity: usize,
    ) -> Obs {
        let registry = Arc::new(Registry::new());
        let journal = Journal::with_capacity(journal_capacity)
            .with_drop_counter(registry.counter(&catalog::SERVE_EVENTS_DROPPED_TOTAL));
        let mut backends = BTreeMap::new();
        for &name in engine_names.into_iter().chain(&["refine"]) {
            backends.insert(
                name,
                BackendHandles {
                    jobs: registry.counter_labeled(&catalog::SERVE_BACKEND_JOBS_TOTAL, name),
                    micros: registry.counter_labeled(&catalog::SERVE_BACKEND_MICROS_TOTAL, name),
                },
            );
        }
        Obs {
            submitted: registry.counter(&catalog::SERVE_JOBS_SUBMITTED_TOTAL),
            executed: registry.counter(&catalog::SERVE_JOBS_EXECUTED_TOTAL),
            dedup_joins: registry.counter(&catalog::SERVE_DEDUP_JOINS_TOTAL),
            queue_depth: registry.gauge(&catalog::SERVE_QUEUE_DEPTH),
            queue_wait: registry.histogram(&catalog::SERVE_QUEUE_WAIT_MICROS),
            e2e: registry.histogram(&catalog::SERVE_E2E_LATENCY_MICROS),
            refinements: registry.counter(&catalog::SERVE_REFINEMENTS_TOTAL),
            refine_from_cache: registry.counter(&catalog::SERVE_REFINE_LEVELS_FROM_CACHE_TOTAL),
            refine_cancelled: registry.counter(&catalog::SERVE_REFINE_CANCELLED_TOTAL),
            refine_active: registry.gauge(&catalog::SERVE_REFINE_ACTIVE),
            refine_level_micros: registry.histogram(&catalog::SERVE_REFINE_LEVEL_MICROS),
            retries: registry.counter(&catalog::SERVE_RETRIES_TOTAL),
            failovers: registry.counter(&catalog::SERVE_FAILOVERS_TOTAL),
            timeouts: registry.counter(&catalog::SERVE_TIMEOUTS_TOTAL),
            shed: registry.counter(&catalog::SERVE_SHED_TOTAL),
            degraded: registry.counter(&catalog::SERVE_DEGRADED_TOTAL),
            window_first_submit: registry.gauge(&catalog::SERVE_WINDOW_FIRST_SUBMIT_MICROS),
            window_last_resolve: registry.gauge(&catalog::SERVE_WINDOW_LAST_RESOLVE_MICROS),
            backends,
            journal: OrderedMutex::new(LockRank::Journal, journal),
            registry,
            clock: Stopwatch::start(),
            next_job_id: AtomicU64::new(0),
        }
    }

    /// Result-cache counter handles, in (hits, misses, evictions) order.
    pub(crate) fn cache_counters(&self) -> (Counter, Counter, Counter) {
        (
            self.registry.counter(&catalog::SERVE_CACHE_HITS_TOTAL),
            self.registry.counter(&catalog::SERVE_CACHE_MISSES_TOTAL),
            self.registry.counter(&catalog::SERVE_CACHE_EVICTIONS_TOTAL),
        )
    }

    /// Partial-sum-cache counter handles, in (hits, misses, evictions)
    /// order.
    pub(crate) fn partial_cache_counters(&self) -> (Counter, Counter, Counter) {
        (
            self.registry
                .counter(&catalog::SERVE_PARTIAL_CACHE_HITS_TOTAL),
            self.registry
                .counter(&catalog::SERVE_PARTIAL_CACHE_MISSES_TOTAL),
            self.registry
                .counter(&catalog::SERVE_PARTIAL_CACHE_EVICTIONS_TOTAL),
        )
    }

    /// Circuit-breaker metric handles for engine `name`, in
    /// (state gauge, opens counter) order. Called once per engine at
    /// service build, so the labeled children exist before any
    /// export — and the breaker transition paths never allocate.
    pub(crate) fn breaker_handles(&self, name: &'static str) -> (Gauge, Counter) {
        (
            self.registry
                .gauge_labeled(&catalog::SERVE_BREAKER_STATE, name),
            self.registry
                .counter_labeled(&catalog::SERVE_BREAKER_OPENS_TOTAL, name),
        )
    }

    /// The per-level completion counter for `level` (labels are the
    /// decimal level, so [`crate::ServiceStats`] can parse them back).
    pub(crate) fn refine_level_counter(&self, level: usize) -> Counter {
        let mut buf = [0u8; 20];
        self.registry.counter_labeled(
            &catalog::SERVE_REFINE_LEVELS_COMPLETED_TOTAL,
            fmt_usize(level, &mut buf),
        )
    }

    /// Fresh per-submission job id (dense, starting at 0).
    pub(crate) fn job_id(&self) -> u64 {
        self.next_job_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Microseconds since service construction.
    pub(crate) fn now_micros(&self) -> u64 {
        self.clock.elapsed_micros()
    }

    /// Appends one event to the journal (bounded; overflow is counted
    /// into `qns_serve_events_dropped_total`, never silent).
    pub(crate) fn record(&self, job: u64, kind: EventKind) {
        self.journal.lock_or_recover().record(job, kind);
    }

    /// Drains the journal (see [`crate::Service::drain_events`]).
    pub(crate) fn drain_events(&self) -> DrainedEvents {
        self.journal.lock_or_recover().drain()
    }

    /// Latches the submission-window start (first submission wins).
    pub(crate) fn mark_submit(&self, now_micros: u64) {
        self.window_first_submit
            .set_if_unset(i64::try_from(now_micros).unwrap_or(i64::MAX));
    }

    /// Advances the submission-window end to this resolution.
    pub(crate) fn mark_resolve(&self, now_micros: u64) {
        self.window_last_resolve
            .set_max(i64::try_from(now_micros).unwrap_or(i64::MAX));
    }
}

/// Formats `v` into `buf` without allocating (the label for a level
/// counter; levels are tiny, but the buffer covers full `u64` range).
#[expect(clippy::expect_used, reason = "the buffer holds only ASCII digits")]
fn fmt_usize(mut v: usize, buf: &mut [u8; 20]) -> &str {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_usize_matches_display() {
        let mut buf = [0u8; 20];
        for v in [0usize, 1, 9, 10, 42, 12_345, usize::MAX] {
            assert_eq!(fmt_usize(v, &mut buf), v.to_string());
        }
    }

    #[test]
    fn job_ids_are_dense_and_events_ordered() {
        let obs = Obs::new(&["approx", "dense"], 16);
        assert_eq!(obs.job_id(), 0);
        assert_eq!(obs.job_id(), 1);
        obs.record(0, EventKind::Submitted);
        obs.record(0, EventKind::Resolved { ok: true });
        let drained = obs.drain_events();
        assert_eq!(drained.events.len(), 2);
        assert_eq!(drained.events[0].kind, EventKind::Submitted);
        assert!(obs.backends.contains_key("refine"));
    }
}
