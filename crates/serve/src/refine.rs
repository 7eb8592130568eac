//! Anytime refinement serving: deadline-aware level selection,
//! streaming refinement handles, and the per-level partial-sum cache.
//!
//! [`crate::Service::submit_refine`] accepts a [`RefineRequest`]
//! (a latency budget expressed as a deadline or a pattern budget),
//! picks the highest level whose *uncached* Theorem-1 pattern cost
//! ([`qns_core::bounds::planned_patterns`]) fits that budget, answers
//! at that level, and keeps escalating the remaining levels on the
//! worker pool — publishing every tightened estimate through the
//! returned [`RefinementHandle`]. Per-level contributions are cached
//! under [`qns_api::partial_sum_key`]-derived keys, so resubmitting
//! the same job resumes from the cached prefix instead of restarting,
//! and already-cached levels are free when the deadline level is
//! chosen.
//!
//! Dropping every user-held handle clone cancels the refinement at the
//! next level boundary (the service stops paying for answers nobody
//! will read); [`RefinementHandle::cancel`] does the same explicitly.

use crate::cache::{CacheCounters, LruCache};
use crate::sync::{LockRank, OrderedCondvar, OrderedMutex};
use qns_api::{Estimate, PartialEstimate, QnsError};
use qns_obs::Counter;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Default patterns-per-second throughput assumed for deadline →
/// pattern-budget conversion before the service has measured a level
/// (the EWMA of observed per-level throughput replaces it after the
/// first fresh level completes). Deliberately conservative: a too-low
/// estimate degrades to a cheaper (faster) first answer, never to a
/// missed deadline.
pub(crate) const DEFAULT_REFINE_RATE_PPS: f64 = 50_000.0;

/// The latency/accuracy contract of one
/// [`submit_refine`](crate::Service::submit_refine) call.
///
/// The first (deadline) answer is served at the highest level whose
/// uncached pattern cost fits the resolved budget; levels beyond it up
/// to `max_level` escalate in the background. With neither a deadline
/// nor a pattern budget the first answer is already the final level.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RefineRequest {
    /// Wall-clock budget for the first answer, in seconds. Converted
    /// to a pattern budget via the service's measured throughput.
    /// Zero or negative degrades to the cheapest feasible level; `NaN`
    /// is rejected at submission.
    pub deadline_secs: Option<f64>,
    /// Direct pattern budget for the first answer (the deterministic
    /// form of `deadline_secs`; when both are set the tighter wins).
    pub pattern_budget: Option<u128>,
    /// Cap on the final level (clamped to the job's noise count).
    pub max_level: Option<usize>,
}

impl RefineRequest {
    /// A request with no deadline: the first answer is the final level.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a copy with the wall-clock deadline set.
    pub fn with_deadline_secs(mut self, secs: f64) -> Self {
        self.deadline_secs = Some(secs);
        self
    }

    /// Returns a copy with the pattern budget set.
    pub fn with_pattern_budget(mut self, patterns: u128) -> Self {
        self.pattern_budget = Some(patterns);
        self
    }

    /// Returns a copy with the final-level cap set.
    pub fn with_max_level(mut self, level: usize) -> Self {
        self.max_level = Some(level);
        self
    }

    /// Rejects malformed budgets (a `NaN` deadline has no cheapest
    /// consistent reading, so it is an error rather than a guess).
    pub(crate) fn validate(&self) -> Result<(), QnsError> {
        if self.deadline_secs.is_some_and(f64::is_nan) {
            return Err(QnsError::InvalidJob {
                reason: "refine deadline must not be NaN".into(),
            });
        }
        Ok(())
    }

    /// Resolves the request into a single pattern budget for the first
    /// answer. Negative deadlines clamp to zero (cheapest feasible
    /// level); infinite or absent budgets resolve to "no limit".
    pub(crate) fn resolved_budget(&self, rate_pps: f64) -> u128 {
        let mut budget = self.pattern_budget.unwrap_or(u128::MAX);
        if let Some(deadline) = self.deadline_secs {
            let rate = if rate_pps > 0.0 {
                rate_pps
            } else {
                DEFAULT_REFINE_RATE_PPS
            };
            // `as u128` saturates on overflow/infinity and the NaN case
            // was rejected at validation.
            budget = budget.min((deadline.max(0.0) * rate) as u128);
        }
        budget
    }
}

/// Picks the deadline (first-answer) level: the highest `l ≤
/// final_level` whose cumulative *uncached* pattern cost fits
/// `budget`. Levels `< cached_levels` are free (their contributions
/// resume from the partial-sum cache). Level 0 is the floor — an
/// absurdly small budget degrades to the cheapest feasible answer, it
/// never fails.
pub(crate) fn deadline_level(
    n_sites: usize,
    final_level: usize,
    cached_levels: usize,
    budget: u128,
) -> usize {
    let mut best = 0usize;
    let mut uncached = 0u128;
    for level in 0..=final_level {
        if level >= cached_levels {
            uncached = uncached.saturating_add(qns_core::bounds::level_patterns(n_sites, level));
        }
        if uncached <= budget {
            best = level;
        } else {
            break;
        }
    }
    best
}

/// One cached per-level contribution of a job's pattern sum.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LevelSum {
    /// The level's contribution `T_u` (bitwise well-defined for a
    /// given job under any options; see [`qns_api::partial_sum_key`]).
    pub contribution: f64,
    /// The level's pattern count, revalidated on resume.
    pub patterns: usize,
}

/// LRU cache of per-level partial sums, keyed by
/// [`qns_api::partial_sum_key`]-derived 128-bit keys. Each entry is a
/// contiguous level prefix `T_0 … T_k`; resuming installs the prefix
/// and computes only the new levels. Recency, eviction and counters
/// are the [`LruCache`]'s; this type adds only the prefix rule.
#[derive(Debug)]
pub(crate) struct PartialSumCache(LruCache<Vec<LevelSum>>);

impl PartialSumCache {
    /// A cache whose hit/miss/eviction counts feed the given (usually
    /// registry-attached) counter handles.
    pub(crate) fn with_counters(
        capacity: usize,
        hits: Counter,
        misses: Counter,
        evictions: Counter,
    ) -> Self {
        PartialSumCache(LruCache::with_counters(capacity, hits, misses, evictions))
    }

    /// Length of the cached level prefix without touching recency or
    /// counters (used at submission to price the deadline level).
    pub(crate) fn peek_len(&self, key: u128) -> usize {
        self.0.peek(key).map_or(0, Vec::len)
    }

    /// The cached prefix for `key`, counting a hit when at least one
    /// level resumes and a miss otherwise; refreshes recency.
    pub(crate) fn probe(&mut self, key: u128) -> Vec<LevelSum> {
        self.0.get(key).unwrap_or_default()
    }

    /// Appends `sum` as level `level` of `key`'s prefix. Out-of-order
    /// records (another worker already extended the prefix, or the
    /// entry was evicted mid-run) are dropped — the cache only ever
    /// holds contiguous prefixes.
    pub(crate) fn record(&mut self, key: u128, level: usize, sum: LevelSum) {
        match self.0.touch(key) {
            Some(levels) if levels.len() == level => levels.push(sum),
            Some(_) => {}
            None if level == 0 => self.0.insert(key, vec![sum]),
            None => {}
        }
    }

    pub(crate) fn counters(&self) -> CacheCounters {
        self.0.counters()
    }
}

/// One published refinement step: the raw [`PartialEstimate`] plus its
/// [`Estimate`] form (Theorem-1 bound attached while truncated, exact
/// at the full level) and whether the level resumed from the
/// partial-sum cache.
#[derive(Clone, Debug)]
pub struct RefinementUpdate {
    /// The level-completion snapshot from the evaluator.
    pub partial: PartialEstimate,
    /// The same snapshot as a backend-style estimate.
    pub estimate: Estimate,
    /// `true` when this level was installed from the partial-sum cache
    /// instead of computed.
    pub from_cache: bool,
}

/// Progress state shared between the executing worker and every
/// [`RefinementHandle`] clone.
#[derive(Debug, Default)]
struct RefineProgress {
    /// One update per completed level, in level order (`updates[l]` is
    /// level `l`).
    updates: Vec<RefinementUpdate>,
    /// Set when the refinement stops (final level, cancel, shutdown or
    /// error); no further updates will arrive.
    done: bool,
    /// Terminal error, if the refinement failed outright.
    error: Option<QnsError>,
    /// Whether the stop was a cancellation.
    cancelled: bool,
}

/// The worker/handle rendezvous for one refinement.
#[derive(Debug)]
pub(crate) struct RefineShared {
    progress: OrderedMutex<RefineProgress>,
    advanced: OrderedCondvar,
}

impl Default for RefineShared {
    fn default() -> Self {
        RefineShared {
            progress: OrderedMutex::new(LockRank::RefineProgress, RefineProgress::default()),
            advanced: OrderedCondvar::new(),
        }
    }
}

impl RefineShared {
    /// Publishes one completed level and wakes every waiter.
    pub(crate) fn publish(&self, update: RefinementUpdate) {
        let mut progress = self.progress.lock_or_recover();
        debug_assert_eq!(
            progress.updates.len(),
            update.partial.level,
            "levels publish in order"
        );
        progress.updates.push(update);
        self.advanced.notify_all();
    }

    /// Marks the refinement finished, wakes every waiter, and returns
    /// whether *this* call performed the transition.
    ///
    /// **First finish wins**: the watchdog and the executing worker
    /// may both try to terminate the same refinement (deadline fires
    /// while the worker is mid-level); whichever gets here first sets
    /// the terminal state and later calls are no-ops, so a refinement
    /// finishes exactly once and a timeout verdict is never
    /// overwritten by the worker's eventual "stopped" bookkeeping.
    /// `bookkeeping` runs under the progress lock, after winning but
    /// *before* waiters can observe completion: anyone unblocked by
    /// this finish is guaranteed to also see the winner's counters and
    /// journal events (the journal lock is innermost, so recording
    /// here is legal). Losers never run it.
    pub(crate) fn finish_with(
        &self,
        error: Option<QnsError>,
        cancelled: bool,
        bookkeeping: impl FnOnce(),
    ) -> bool {
        let mut progress = self.progress.lock_or_recover();
        if progress.done {
            return false;
        }
        bookkeeping();
        progress.done = true;
        progress.error = error;
        progress.cancelled = cancelled;
        self.advanced.notify_all();
        true
    }
}

/// Sets the cancel flag when the last user-held handle clone drops, so
/// an abandoned refinement stops consuming workers at the next level
/// boundary. The executing worker holds the flag but not this guard.
#[derive(Debug)]
struct CancelOnDrop {
    cancel: Arc<AtomicBool>,
}

impl Drop for CancelOnDrop {
    fn drop(&mut self) {
        self.cancel.store(true, Ordering::Relaxed);
    }
}

/// A handle to one anytime refinement: a stream of monotonically
/// tightening estimates, one per completed level.
///
/// Clones share the stream; the refinement is cancelled when every
/// clone is dropped (or [`cancel`](Self::cancel) is called).
#[derive(Clone, Debug)]
pub struct RefinementHandle {
    shared: Arc<RefineShared>,
    cancel: Arc<AtomicBool>,
    first_level: usize,
    final_level: usize,
    _guard: Arc<CancelOnDrop>,
}

impl RefinementHandle {
    pub(crate) fn new(
        shared: Arc<RefineShared>,
        cancel: Arc<AtomicBool>,
        first_level: usize,
        final_level: usize,
    ) -> Self {
        let guard = Arc::new(CancelOnDrop {
            cancel: Arc::clone(&cancel),
        });
        RefinementHandle {
            shared,
            cancel,
            first_level,
            final_level,
            _guard: guard,
        }
    }

    /// The deadline level: the level of the first answer
    /// ([`wait_first`](Self::wait_first)), chosen at submission so its
    /// uncached pattern cost fits the request's budget.
    pub fn first_level(&self) -> usize {
        self.first_level
    }

    /// The level at which the refinement stops escalating.
    pub fn final_level(&self) -> usize {
        self.final_level
    }

    /// Blocks until the deadline-level estimate is available — the
    /// "answer within budget" of the request.
    ///
    /// # Errors
    ///
    /// As [`wait_level`](Self::wait_level).
    pub fn wait_first(&self) -> Result<RefinementUpdate, QnsError> {
        self.wait_level(self.first_level)
    }

    /// Blocks until level `level` has completed and returns its update.
    ///
    /// # Errors
    ///
    /// The refinement's terminal error, or [`QnsError::InvalidJob`] if
    /// it stopped (cancelled / shut down / finished) before reaching
    /// `level`.
    pub fn wait_level(&self, level: usize) -> Result<RefinementUpdate, QnsError> {
        let mut progress = self.shared.progress.lock_or_recover();
        loop {
            if let Some(update) = progress.updates.get(level) {
                return Ok(update.clone());
            }
            if progress.done {
                return Err(Self::stop_error(&progress, level));
            }
            progress = self.shared.advanced.wait(progress);
        }
    }

    /// Blocks until the refinement stops and returns the last (most
    /// refined) update — anytime semantics: a cancelled or
    /// shutdown-stopped refinement still returns what it computed, as
    /// long as at least one level completed.
    ///
    /// # Errors
    ///
    /// The terminal error if the refinement failed before completing
    /// any level.
    pub fn wait_final(&self) -> Result<RefinementUpdate, QnsError> {
        let mut progress = self.shared.progress.lock_or_recover();
        while !progress.done {
            progress = self.shared.advanced.wait(progress);
        }
        match progress.updates.last() {
            Some(update) => Ok(update.clone()),
            None => Err(Self::stop_error(&progress, 0)),
        }
    }

    fn stop_error(progress: &RefineProgress, level: usize) -> QnsError {
        if let Some(e) = &progress.error {
            return e.clone();
        }
        QnsError::InvalidJob {
            reason: if progress.cancelled {
                format!("refinement cancelled before level {level}")
            } else {
                format!("refinement stopped before level {level}")
            },
        }
    }

    /// The latest available update without blocking.
    pub fn latest(&self) -> Option<RefinementUpdate> {
        self.shared
            .progress
            .lock_or_recover()
            .updates
            .last()
            .cloned()
    }

    /// Snapshot of every update published so far, in level order.
    pub fn updates(&self) -> Vec<RefinementUpdate> {
        self.shared.progress.lock_or_recover().updates.clone()
    }

    /// `true` once the refinement has stopped (no further updates).
    pub fn is_done(&self) -> bool {
        self.shared.progress.lock_or_recover().done
    }

    /// Requests cancellation: the worker stops escalating at the next
    /// level boundary. Already-published updates stay readable.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deadline_level_degrades_to_zero_and_respects_cached_prefixes() {
        // 4 sites: levels cost 1, 12, 54, 108, 81 patterns.
        assert_eq!(deadline_level(4, 4, 0, 0), 0, "tiny budget → floor");
        assert_eq!(deadline_level(4, 4, 0, 1), 0, "level 1 needs 13");
        assert_eq!(deadline_level(4, 4, 0, 13), 1);
        assert_eq!(deadline_level(4, 4, 0, u128::MAX), 4);
        // Cached levels are free: with T_0..T_1 cached, level 1 costs 0
        // and level 2 only its own 54 patterns.
        assert_eq!(deadline_level(4, 4, 2, 0), 1);
        assert_eq!(deadline_level(4, 4, 2, 54), 2);
        // The final-level cap wins over the budget.
        assert_eq!(deadline_level(4, 2, 0, u128::MAX), 2);
    }

    #[test]
    fn resolved_budget_clamps_and_combines() {
        let rate = 100.0;
        // Negative and zero deadlines clamp to a zero budget.
        assert_eq!(
            RefineRequest::new()
                .with_deadline_secs(-3.0)
                .resolved_budget(rate),
            0
        );
        assert_eq!(
            RefineRequest::new()
                .with_deadline_secs(0.0)
                .resolved_budget(rate),
            0
        );
        // A deadline converts at the given rate.
        assert_eq!(
            RefineRequest::new()
                .with_deadline_secs(2.0)
                .resolved_budget(rate),
            200
        );
        // Infinity saturates instead of panicking.
        assert_eq!(
            RefineRequest::new()
                .with_deadline_secs(f64::INFINITY)
                .resolved_budget(rate),
            u128::MAX
        );
        // Both set: the tighter budget wins.
        let both = RefineRequest::new()
            .with_deadline_secs(2.0)
            .with_pattern_budget(50);
        assert_eq!(both.resolved_budget(rate), 50);
        // No budget at all: unlimited (first answer = final level).
        assert_eq!(RefineRequest::new().resolved_budget(rate), u128::MAX);
        // An uncalibrated (zero) rate falls back to the default.
        assert_eq!(
            RefineRequest::new()
                .with_deadline_secs(1.0)
                .resolved_budget(0.0),
            DEFAULT_REFINE_RATE_PPS as u128
        );
    }

    #[test]
    fn nan_deadlines_are_rejected() {
        let err = RefineRequest::new()
            .with_deadline_secs(f64::NAN)
            .validate()
            .unwrap_err();
        assert!(matches!(err, QnsError::InvalidJob { .. }));
        assert!(RefineRequest::new()
            .with_deadline_secs(0.0)
            .validate()
            .is_ok());
    }

    /// Adversarial deadlines, budgets, level caps and measured rates.
    fn adversarial_request() -> impl Strategy<Value = (RefineRequest, f64)> {
        let deadline = prop_oneof![
            Just(None),
            prop_oneof![
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(-1.0),
                Just(0.0),
                Just(-0.0),
                Just(1e-300),
                Just(1e300),
                Just(f64::MIN_POSITIVE),
                -10.0f64..10.0,
            ]
            .prop_map(Some),
        ];
        let budget = prop_oneof![
            Just(None),
            prop_oneof![
                Just(0u128),
                Just(1),
                Just(u128::MAX),
                (0u64..100_000).prop_map(u128::from)
            ]
            .prop_map(Some),
        ];
        let max_level = prop_oneof![
            Just(None),
            prop_oneof![Just(0usize), Just(usize::MAX), 0usize..40].prop_map(Some),
        ];
        let rate = prop_oneof![
            Just(0.0),
            Just(-5.0),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(1e-300),
            Just(DEFAULT_REFINE_RATE_PPS),
            1.0f64..1e7,
        ];
        (deadline, budget, max_level, rate).prop_map(|(deadline, budget, max_level, rate)| {
            let req = RefineRequest {
                deadline_secs: deadline,
                pattern_budget: budget,
                max_level,
            };
            (req, rate)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The submission path (`validate`, then `resolved_budget` and
        /// `deadline_level` over the clamped final level) either
        /// rejects the request as `InvalidJob` or picks a level in
        /// `0..=final_level`; it never panics.
        #[test]
        fn adversarial_requests_resolve_to_a_level_or_invalid_job(
            request in adversarial_request(),
            n in 0usize..48,
            cached in 0usize..50,
        ) {
            let (req, rate) = request;
            let nan_deadline = req.deadline_secs.is_some_and(f64::is_nan);
            match req.validate() {
                Err(e) => {
                    prop_assert!(matches!(e, QnsError::InvalidJob { .. }), "{e:?}");
                    prop_assert!(nan_deadline);
                }
                Ok(()) => {
                    prop_assert!(!nan_deadline, "NaN deadline accepted");
                    let final_level = req.max_level.unwrap_or(n).min(n);
                    let budget = req.resolved_budget(rate);
                    let level = deadline_level(n, final_level, cached, budget);
                    prop_assert!(level <= final_level, "level {level} > final {final_level}");
                    if budget == u128::MAX {
                        prop_assert_eq!(level, final_level);
                    }
                }
            }
        }
    }

    #[test]
    fn partial_sum_cache_keeps_contiguous_prefixes() {
        let mut cache = PartialSumCache(LruCache::new(2));
        let sum = |v: f64| LevelSum {
            contribution: v,
            patterns: 1,
        };
        assert_eq!(cache.probe(1), Vec::new());
        cache.record(1, 0, sum(0.5));
        cache.record(1, 1, sum(0.1));
        // A gap is dropped, not stored.
        cache.record(1, 3, sum(9.9));
        assert_eq!(cache.peek_len(1), 2);
        let got = cache.probe(1);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].contribution, 0.5);
        // A fresh key must start at level 0.
        cache.record(2, 1, sum(7.0));
        assert_eq!(cache.peek_len(2), 0);
        // LRU eviction on the third distinct key.
        cache.record(2, 0, sum(2.0));
        cache.probe(1); // keep 1 fresh
        cache.record(3, 0, sum(3.0));
        assert_eq!(cache.peek_len(2), 0, "LRU entry evicted");
        assert_eq!(cache.peek_len(1), 2);
        assert_eq!(cache.counters().evictions, 1);
        assert!(cache.counters().hits >= 2);
        assert!(cache.counters().misses >= 1);
    }

    #[test]
    fn dropping_every_handle_clone_cancels() {
        let shared = Arc::new(RefineShared::default());
        let cancel = Arc::new(AtomicBool::new(false));
        let handle = RefinementHandle::new(Arc::clone(&shared), Arc::clone(&cancel), 0, 2);
        let clone = handle.clone();
        drop(handle);
        assert!(
            !cancel.load(Ordering::Relaxed),
            "a live clone holds the guard"
        );
        drop(clone);
        assert!(cancel.load(Ordering::Relaxed), "last drop cancels");
    }
}
