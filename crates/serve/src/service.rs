//! The concurrent expectation-value service.
//!
//! A [`Service`] owns a pool of worker threads, a bounded submission
//! queue, an LRU result cache and a single-flight table. Submissions
//! go through [`Service::submit`] and come back as [`JobHandle`]s —
//! lightweight futures resolved by whichever worker runs (or whichever
//! cache entry already answers) the job.
//!
//! Concurrency protocol, in submission order under one state lock:
//!
//! 1. **Single-flight join** — an identical (fingerprint + route) job
//!    already queued or running hands back a handle to the *same*
//!    flight: N concurrent submissions of one job cost exactly one
//!    backend execution. Joins happen before (and without) a cache
//!    probe, so they never count against the cache hit rate.
//! 2. **Cache probe** — a completed identical job answers immediately
//!    from the LRU cache.
//! 3. **Enqueue** — otherwise the job registers as the flight owner
//!    and joins the bounded queue (submission blocks while the queue
//!    is at capacity — backpressure, not unbounded memory).
//!
//! A key is never in the single-flight table and the cache at once:
//! workers insert the result and retire the flight under one lock, and
//! a flight only registers after a cache miss.
//!
//! Anytime refinements ([`Service::submit_refine`]) share the same
//! bounded queue and worker pool but deliberately **not** the result
//! cache or single-flight table: a refinement's product is a *stream*
//! of per-level estimates, cached level-by-level in the partial-sum
//! cache under [`qns_api::partial_sum_key`]-derived keys (disjoint
//! from the `route/…` result-cache keys), never as a single
//! [`Estimate`]. See [`crate::refine`] for the deadline/level model.

use crate::breaker::{BreakerPolicy, CircuitBreaker};
use crate::cache::LruCache;
use crate::faults::{self, FaultAction};
use crate::obs::Obs;
use crate::refine::{
    deadline_level, LevelSum, PartialSumCache, RefineRequest, RefineShared, RefinementHandle,
    RefinementUpdate,
};
use crate::router::{route_job_masked, Route, SharedBackend};
use crate::sync::{OrderedCondvar, OrderedMutex, OrderedMutexGuard};
use qns_api::{
    partial_sum_key, ApproxBackend, ApproxOptions, DensityBackend, Estimate, ExpectationJob,
    Fingerprint, InitialState, MpoBackend, Observable, QnsError, Refinement, TddBackend,
    TnetBackend, TrajectoryBackend,
};
use qns_core::timing::time_it;
use qns_noise::NoisyCircuit;
use qns_obs::{DrainedEvents, EventKind, MetricsSnapshot, Registry};
use rand::SplitMix64;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Retry/failover policy for expectation jobs (see
/// [`ServiceBuilder::retry_policy`]). With no policy installed a job
/// gets exactly one attempt — the pre-fault-tolerance behavior.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per job, including the first (clamped to ≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, in microseconds; doubles per
    /// further retry. `0` retries immediately (no backoff at all).
    pub base_backoff_micros: u64,
    /// Upper bound on the (pre-jitter) backoff.
    pub max_backoff_micros: u64,
    /// Seed for the deterministic backoff jitter: the slept backoff is
    /// a pure function of `(seed, job id, attempt)`, so a chaos
    /// schedule replays timing-for-timing.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// Three attempts, 1 ms → 8 ms exponential backoff.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_micros: 1_000,
            max_backoff_micros: 8_000,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff before attempt `attempt + 1` of job `job_id`:
    /// exponential in the attempt, capped, with deterministic seeded
    /// jitter in the upper half of the cap (a full-jitter scheme would
    /// allow zero sleeps, which defeats the point of backing off).
    fn backoff_micros(&self, attempt: u32, job_id: u64) -> u64 {
        if self.base_backoff_micros == 0 {
            return 0;
        }
        let exp = self
            .base_backoff_micros
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(20));
        let capped = exp.min(self.max_backoff_micros.max(self.base_backoff_micros));
        let mut mix = SplitMix64::new(
            self.seed ^ job_id.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(attempt),
        );
        capped / 2 + mix.next_u64() % (capped / 2 + 1)
    }
}

/// Deadline policy for submitted work (see
/// [`ServiceBuilder::timeout_policy`]). Deadlines scale with the job's
/// routed cost estimate, so a big job is not condemned by a budget
/// tuned for small ones; the watchdog resolves overdue handles with
/// [`QnsError::Timeout`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimeoutPolicy {
    /// Deadline floor in microseconds, measured from acceptance
    /// (queue wait counts against the deadline).
    pub base_micros: u64,
    /// Extra deadline microseconds granted per 1000 cost-hint units of
    /// the cheapest feasible engine (pattern units for refinements).
    pub micros_per_kilocost: u64,
    /// How often the watchdog re-scans when no deadline is imminent.
    pub check_interval_micros: u64,
}

impl Default for TimeoutPolicy {
    /// 100 ms floor + 1 µs per 1000 cost units, 5 ms scan interval.
    fn default() -> TimeoutPolicy {
        TimeoutPolicy {
            base_micros: 100_000,
            micros_per_kilocost: 1,
            check_interval_micros: 5_000,
        }
    }
}

impl TimeoutPolicy {
    /// The deadline budget for a job whose cost estimate is `cost`.
    fn budget_micros(&self, cost: u128) -> u64 {
        let scaled = cost.saturating_mul(u128::from(self.micros_per_kilocost)) / 1000;
        self.base_micros
            .saturating_add(u64::try_from(scaled).unwrap_or(u64::MAX))
    }
}

/// Admission-control policy (see
/// [`ServiceBuilder::admission_policy`]). Pressure is
/// `(queue depth + 1) × estimated cost` — a deep queue of cheap jobs
/// and a shallow queue of huge ones rate the same. Refinements degrade
/// (shallower Theorem-1-bounded first level) in the band between the
/// two thresholds and are shed above it; expectation jobs have no
/// level lever, so they are only ever shed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Pressure at which refinements start being admitted at a
    /// shallower first level than their budget asked for.
    pub degrade_pressure: u128,
    /// Pressure at which submissions are rejected with
    /// [`QnsError::Overloaded`].
    pub shed_pressure: u128,
}

/// An owned, validated, fingerprinted expectation job — the queueable
/// counterpart of the borrowing [`ExpectationJob`]. The circuit lives
/// behind an [`Arc`], so cloning a spec (the queue does, per
/// submission) is cheap regardless of circuit size.
#[derive(Clone, Debug)]
pub struct JobSpec {
    noisy: Arc<NoisyCircuit>,
    initial: InitialState,
    observable: Observable,
    fingerprint: Fingerprint,
}

impl JobSpec {
    /// Builds and validates a spec; the fingerprint is computed once
    /// here and reused for every submission.
    ///
    /// # Errors
    ///
    /// [`QnsError::SizeMismatch`] exactly as [`ExpectationJob::new`].
    pub fn new(
        noisy: impl Into<Arc<NoisyCircuit>>,
        initial: impl Into<InitialState>,
        observable: impl Into<Observable>,
    ) -> Result<Self, QnsError> {
        let noisy = noisy.into();
        let initial = initial.into();
        let observable = observable.into();
        let fingerprint =
            ExpectationJob::new(&noisy, initial.clone(), observable.clone())?.fingerprint();
        Ok(JobSpec {
            noisy,
            initial,
            observable,
            fingerprint,
        })
    }

    /// The default job on `noisy`: `|0…0⟩` in, `|0…0⟩⟨0…0|` measured.
    pub fn zeros(noisy: impl Into<Arc<NoisyCircuit>>) -> Self {
        let noisy = noisy.into();
        let n = noisy.n_qubits();
        JobSpec::new(noisy, InitialState::zeros(n), Observable::zeros(n))
            .expect("matching qubit counts by construction")
    }

    /// The borrowing [`ExpectationJob`] view backends consume.
    pub fn job(&self) -> ExpectationJob<'_> {
        ExpectationJob::new(&self.noisy, self.initial.clone(), self.observable.clone())
            .expect("spec was validated at construction")
    }

    /// The spec's canonical fingerprint (see
    /// [`ExpectationJob::fingerprint`]).
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// The noisy circuit the spec runs.
    pub fn noisy(&self) -> &NoisyCircuit {
        &self.noisy
    }
}

/// One in-flight (or resolved) execution shared by every handle that
/// joined it.
#[derive(Debug)]
struct Flight {
    slot: OrderedMutex<Option<Result<Estimate, QnsError>>>,
    done: OrderedCondvar,
}

impl Flight {
    fn pending() -> Arc<Flight> {
        Arc::new(Flight {
            slot: OrderedMutex::new("flight.slot", None),
            done: OrderedCondvar::new(),
        })
    }

    fn resolved(result: Result<Estimate, QnsError>) -> Arc<Flight> {
        Arc::new(Flight {
            slot: OrderedMutex::new("flight.slot", Some(result)),
            done: OrderedCondvar::new(),
        })
    }

    /// Publishes the result unless the flight is already resolved —
    /// **first writer wins**. The executing worker and the deadline
    /// watchdog may race to resolve the same flight (the deadline
    /// fires while the backend is mid-execution); the loser's result
    /// is dropped, so every handle observes exactly one result.
    /// Returns whether this call was the resolving one.
    fn try_fill(&self, result: Result<Estimate, QnsError>) -> bool {
        self.try_fill_with(result, || {})
    }

    /// [`Flight::try_fill`] that runs `bookkeeping` under the slot
    /// lock, after winning but *before* the result becomes observable:
    /// a waiter that sees the resolution is guaranteed to also see the
    /// winner's counters and journal events (the journal lock is
    /// innermost, so recording here is legal). Losers never run it.
    fn try_fill_with(
        &self,
        result: Result<Estimate, QnsError>,
        bookkeeping: impl FnOnce(),
    ) -> bool {
        let mut slot = self.slot.lock_or_recover();
        if slot.is_some() {
            return false;
        }
        bookkeeping();
        *slot = Some(result);
        self.done.notify_all();
        true
    }

    /// [`Flight::try_fill`] for paths with a single possible writer
    /// (submission-side rejections), where losing the race would be a
    /// protocol bug.
    fn fill(&self, result: Result<Estimate, QnsError>) {
        let filled = self.try_fill(result);
        debug_assert!(filled, "a flight resolves exactly once");
    }

    fn wait(&self) -> Result<Estimate, QnsError> {
        let mut slot = self.slot.lock_or_recover();
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.done.wait(slot);
        }
    }

    fn try_get(&self) -> Option<Result<Estimate, QnsError>> {
        self.slot.lock_or_recover().clone()
    }
}

/// A handle to one submission's eventual [`Estimate`]. Handles are
/// cheap to clone; every clone (and every deduplicated co-submission)
/// observes the same result.
#[derive(Clone, Debug)]
pub struct JobHandle {
    flight: Arc<Flight>,
}

impl JobHandle {
    /// Blocks until the job completes and returns its result. Multiple
    /// waits return the same (cloned) result.
    ///
    /// # Errors
    ///
    /// Whatever the routed backend (or the router) reported.
    pub fn wait(&self) -> Result<Estimate, QnsError> {
        self.flight.wait()
    }

    /// Non-blocking probe: `None` while the job is still queued or
    /// running.
    pub fn try_get(&self) -> Option<Result<Estimate, QnsError>> {
        self.flight.try_get()
    }
}

/// Per-backend accounting inside [`ServiceStats`].
#[non_exhaustive]
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BackendStats {
    /// Jobs this backend executed.
    pub jobs: u64,
    /// Total wall-clock seconds spent in this backend's
    /// `expectation` calls (summed across workers).
    pub seconds: f64,
}

/// A point-in-time snapshot of a [`Service`]'s counters.
#[non_exhaustive]
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Total submissions accepted (including cache hits and joins).
    pub submitted: u64,
    /// Jobs actually executed on a backend — with caching and
    /// single-flight dedup this is the number of *unique* jobs seen.
    pub executed: u64,
    /// Submissions answered straight from the result cache.
    pub cache_hits: u64,
    /// Cache probes that found nothing. Submissions that join an
    /// in-flight execution never probe the cache, so dedup joins do
    /// not deflate [`ServiceStats::cache_hit_rate`].
    pub cache_misses: u64,
    /// Cache entries displaced by newer results.
    pub cache_evictions: u64,
    /// Submissions that joined an already-in-flight identical job
    /// (the single-flight wins that never reached the queue).
    pub dedup_joins: u64,
    /// Deepest the bounded queue ever got.
    pub queue_high_water: usize,
    /// Per-backend job counts and cumulative latencies, keyed by
    /// [`qns_api::Backend::name`] (refinements aggregate under
    /// `"refine"`, with `seconds` counting fresh level computation
    /// only).
    pub per_backend: BTreeMap<&'static str, BackendStats>,
    /// Anytime refinements accepted by [`Service::submit_refine`].
    pub refinements: u64,
    /// Freshly *computed* level completions across all refinements,
    /// keyed by level (cache-installed levels count in
    /// [`ServiceStats::refine_levels_from_cache`] instead).
    pub refine_levels_completed: BTreeMap<usize, u64>,
    /// Levels installed from the partial-sum cache instead of
    /// computed.
    pub refine_levels_from_cache: u64,
    /// Refinements currently queued or escalating — the escalation
    /// queue depth at snapshot time.
    pub refine_active: usize,
    /// Deepest [`ServiceStats::refine_active`] ever got.
    pub refine_high_water: usize,
    /// Refinements stopped by explicit cancel or handle drop.
    pub refine_cancelled: u64,
    /// Partial-sum cache counters: a hit is a refinement that resumed
    /// at least one cached level.
    pub partial_cache: crate::cache::CacheCounters,
    /// Execution attempts beyond the first (retry-policy
    /// re-submissions).
    pub retries: u64,
    /// Retries that re-routed to a different engine than the failed
    /// attempt.
    pub failovers: u64,
    /// Jobs resolved with [`QnsError::Timeout`] by the deadline
    /// watchdog.
    pub timeouts: u64,
    /// Submissions rejected with [`QnsError::Overloaded`] by admission
    /// control.
    pub shed: u64,
    /// Refinements admitted at a shallower first level under overload.
    pub degraded: u64,
    /// Total circuit-breaker open transitions across all engines.
    pub breaker_opens: u64,
    /// Keys currently in the single-flight table (queued or executing
    /// unique expectation jobs).
    pub inflight: usize,
    /// The deadline-conversion EWMA of observed refinement throughput
    /// in Theorem-1 patterns/second (`0.0` until the first clean fresh level;
    /// levels that failed or carried injected faults never feed it).
    pub refine_rate_pps: f64,
}

impl ServiceStats {
    /// Cache hits over cache probes; `0.0` before the first probe.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Submissions that did **not** trigger a backend execution
    /// (cache hits plus single-flight joins).
    pub fn saved_executions(&self) -> u64 {
        self.cache_hits + self.dedup_joins
    }

    /// Partial-sum cache hits over probes; `0.0` before the first
    /// refinement probes it.
    pub fn partial_cache_hit_rate(&self) -> f64 {
        self.partial_cache.hit_rate()
    }
}

/// One queued unit of work: a one-shot expectation job or an anytime
/// refinement.
enum Work {
    Expect(Task),
    Refine(RefineTask),
}

/// One queued expectation job.
struct Task {
    key: u128,
    route: Route,
    spec: JobSpec,
    flight: Arc<Flight>,
    /// Set by the deadline watchdog when it resolves the flight with
    /// [`QnsError::Timeout`]: workers skip execution of a job that
    /// timed out while queued and stop retrying one that timed out
    /// mid-backoff.
    timed_out: Arc<AtomicBool>,
    /// Per-submission id tying the job's journal events together.
    job_id: u64,
    /// Service-clock timestamp of acceptance; queue wait and
    /// end-to-end latency both measure from here (acceptance and
    /// enqueue happen under one lock hold).
    submitted_micros: u64,
}

/// One queued anytime refinement (see [`crate::refine`]).
struct RefineTask {
    /// Partial-sum cache key ([`partial_sum_key`] of the spec's
    /// fingerprint under the service's refine options).
    key: u128,
    spec: JobSpec,
    /// The deadline level promised to the caller; escalation past it
    /// is best-effort (it stops early on cancel or shutdown).
    first_level: usize,
    final_level: usize,
    shared: Arc<RefineShared>,
    cancel: Arc<AtomicBool>,
    /// See [`Task::job_id`].
    job_id: u64,
    /// See [`Task::submitted_micros`].
    submitted_micros: u64,
}

/// Everything behind the service's single state lock. Workers hold the
/// lock only for queue/cache/table operations — never while a backend
/// runs. Counters live in the metrics registry ([`crate::obs::Obs`]),
/// not here: [`ServiceStats`] is a view over that registry.
struct State {
    queue: VecDeque<Work>,
    cache: LruCache,
    inflight: HashMap<u128, Arc<Flight>>,
    partial: PartialSumCache,
    /// EWMA of observed refinement throughput (Theorem-1
    /// patterns/second, the unit levels are priced in), used to
    /// convert deadlines into pattern budgets. `0.0` until the
    /// first fresh level completes (the default rate applies then).
    refine_rate_pps: f64,
    shutdown: bool,
}

impl State {
    /// Folds one fresh level's throughput into the deadline-conversion
    /// EWMA (α = 0.3; the first sample seeds it).
    fn observe_refine_rate(&mut self, patterns: usize, seconds: f64) {
        if patterns == 0 {
            return;
        }
        let sample = patterns as f64 / seconds.max(1e-9);
        self.refine_rate_pps = if self.refine_rate_pps > 0.0 {
            0.7 * self.refine_rate_pps + 0.3 * sample
        } else {
            sample
        };
    }
}

/// What the deadline watchdog resolves when an entry expires.
enum WatchdogTarget {
    /// One expectation flight: resolve with [`QnsError::Timeout`]
    /// (first writer wins against the executing worker) and retire the
    /// single-flight entry so later submissions re-execute.
    Expect {
        key: u128,
        flight: Arc<Flight>,
        timed_out: Arc<AtomicBool>,
    },
    /// One refinement: request cooperative cancellation at the next
    /// level boundary and finish the progress stream with
    /// [`QnsError::Timeout`] — already-published levels stay readable
    /// (anytime semantics: a timed-out refinement still answers at the
    /// deepest level it reached, bound attached).
    Refine {
        shared: Arc<RefineShared>,
        cancel: Arc<AtomicBool>,
    },
}

/// One armed deadline.
struct WatchdogEntry {
    /// Service-clock expiry.
    deadline_micros: u64,
    /// The budget the job was given (for the error/journal).
    budget_micros: u64,
    job_id: u64,
    target: WatchdogTarget,
}

struct Shared {
    state: OrderedMutex<State>,
    /// Workers wait here for queued tasks.
    work: OrderedCondvar,
    /// Submitters wait here for queue space (backpressure).
    space: OrderedCondvar,
    queue_capacity: usize,
    engines: Vec<SharedBackend>,
    /// One circuit breaker per engine (same indexing as `engines`),
    /// consulted by Auto routing and fed by execution outcomes.
    breakers: Vec<CircuitBreaker>,
    retry: Option<RetryPolicy>,
    timeout: Option<TimeoutPolicy>,
    admission: Option<AdmissionPolicy>,
    /// Armed deadlines, scanned by the watchdog thread. Outermost lock
    /// in the declared order (`"serve.watchdog"`): registration sites
    /// hold nothing else, and the watchdog releases it before firing.
    watchdog: OrderedMutex<Vec<WatchdogEntry>>,
    /// Wakes the watchdog early (a new, possibly-nearer deadline was
    /// registered, or shutdown).
    watchdog_wake: OrderedCondvar,
    /// Lock-free shutdown mirror of `State::shutdown` for paths that
    /// must not take the state lock (retry backoff, the watchdog scan
    /// loop).
    stopping: AtomicBool,
    /// Options every refinement runs under (strategy/threads are part
    /// of the partial-sum cache key; see [`partial_sum_key`]).
    refine_opts: ApproxOptions,
    /// Metrics registry + event journal (lock-free counters; the
    /// journal has its own innermost lock, see `crate::obs`).
    obs: Obs,
}

impl Shared {
    fn lock(&self) -> OrderedMutexGuard<'_, State> {
        self.state.lock_or_recover()
    }

    /// Arms a deadline. Called with **no** other lock held (the
    /// watchdog lock is outermost in the declared order).
    fn arm_deadline(&self, entry: WatchdogEntry) {
        self.watchdog.lock_or_recover().push(entry);
        self.watchdog_wake.notify_all();
    }

    /// The routed cost estimate deadlines and admission pressure scale
    /// with: the pinned engine's cost hint for fixed routes, the
    /// cheapest feasible hint for Auto. `0` when no engine offers a
    /// model — the policy then degrades to its flat base behavior.
    fn cost_estimate(&self, job: &ExpectationJob<'_>, route: Route) -> u128 {
        match route {
            Route::Fixed(name) => self
                .engines
                .iter()
                .find(|e| e.name() == name)
                .and_then(|e| e.cost_hint(job))
                .unwrap_or(0),
            Route::Auto => self
                .engines
                .iter()
                .filter(|e| e.supports(job).is_ok())
                .filter_map(|e| e.cost_hint(job))
                .min()
                .unwrap_or(0),
        }
    }
}

/// Configures and spawns a [`Service`].
///
/// Defaults: 2 workers, a 256-entry cache, a 1024-deep queue,
/// [`Route::Auto`], and one default-configured instance of every
/// engine in the workspace. Replace the engine set (to pick
/// approximation levels, bond caps, sample counts or seeds) with
/// [`ServiceBuilder::engines`] / [`ServiceBuilder::with_engine`].
#[derive(Clone)]
pub struct ServiceBuilder {
    workers: usize,
    cache_capacity: usize,
    queue_capacity: usize,
    partial_cache_capacity: usize,
    journal_capacity: usize,
    route: Route,
    engines: Vec<SharedBackend>,
    refine_opts: ApproxOptions,
    retry: Option<RetryPolicy>,
    timeout: Option<TimeoutPolicy>,
    admission: Option<AdmissionPolicy>,
    breaker: BreakerPolicy,
}

/// One default-configured instance of every engine in the workspace —
/// the engine set a [`ServiceBuilder`] starts from.
pub fn default_engines() -> Vec<SharedBackend> {
    vec![
        Arc::new(ApproxBackend::level(1)),
        Arc::new(DensityBackend::new()),
        Arc::new(TnetBackend::new()),
        Arc::new(TddBackend::new()),
        Arc::new(MpoBackend::default()),
        Arc::new(TrajectoryBackend::default()),
    ]
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        ServiceBuilder {
            workers: 2,
            cache_capacity: 256,
            queue_capacity: 1024,
            partial_cache_capacity: 128,
            journal_capacity: 4096,
            route: Route::Auto,
            engines: default_engines(),
            refine_opts: ApproxOptions::default(),
            retry: None,
            timeout: None,
            admission: None,
            breaker: BreakerPolicy::default(),
        }
    }
}

impl ServiceBuilder {
    /// A builder with the defaults described on the type.
    pub fn new() -> Self {
        Self::default()
    }

    /// Worker-thread count (clamped to ≥ 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Result-cache capacity in entries; `0` disables caching (every
    /// submission past the single-flight window re-executes).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Bounded-queue depth (clamped to ≥ 1). Submissions block while
    /// the queue is full.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// The routing policy [`Service::submit`] uses
    /// ([`Service::submit_routed`] overrides it per job).
    pub fn route(mut self, route: Route) -> Self {
        self.route = route;
        self
    }

    /// Replaces the engine set.
    pub fn engines(mut self, engines: Vec<SharedBackend>) -> Self {
        self.engines = engines;
        self
    }

    /// Appends one engine to the set.
    pub fn with_engine(mut self, engine: SharedBackend) -> Self {
        self.engines.push(engine);
        self
    }

    /// Partial-sum cache capacity in *jobs* (each entry holds one
    /// job's per-level prefix); `0` disables resume-from-cache.
    pub fn partial_cache_capacity(mut self, capacity: usize) -> Self {
        self.partial_cache_capacity = capacity;
        self
    }

    /// Event-journal capacity in events (default 4096). The journal is
    /// a bounded ring: once full, the oldest events are overwritten and
    /// counted into `qns_serve_events_dropped_total`. `0` disables
    /// journaling (every event is counted as dropped).
    pub fn journal_capacity(mut self, capacity: usize) -> Self {
        self.journal_capacity = capacity;
        self
    }

    /// The [`ApproxOptions`] every [`Service::submit_refine`]
    /// refinement runs under. The `level` field is ignored (the
    /// request's budget and `max_level` choose levels); `max_terms`
    /// caps the deepest level the service will ever escalate to, and
    /// `strategy`/`threads` select the (bit-affecting) contraction
    /// configuration the partial-sum cache is keyed by.
    pub fn refine_options(mut self, opts: ApproxOptions) -> Self {
        self.refine_opts = opts;
        self
    }

    /// Enables retry/failover: failed attempts whose error is
    /// retryable ([`QnsError::is_retryable`]) re-route — excluding
    /// already-failed engines under [`Route::Auto`] — after a bounded,
    /// deterministically-jittered exponential backoff. Without a
    /// policy every job gets exactly one attempt.
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Enables per-job deadlines: a watchdog thread resolves handles
    /// whose cost-scaled budget elapses with [`QnsError::Timeout`]
    /// (refinements are cancelled cooperatively at the next level
    /// boundary and keep their published levels). Without a policy no
    /// watchdog thread is even spawned.
    pub fn timeout_policy(mut self, policy: TimeoutPolicy) -> Self {
        self.timeout = Some(policy);
        self
    }

    /// Enables admission control: overload degrades refinements to
    /// shallower (still Theorem-1-bounded) first levels, and extreme
    /// overload sheds submissions with [`QnsError::Overloaded`] before
    /// they consume queue space. Without a policy the only submission
    /// pushback is the bounded queue's backpressure.
    pub fn admission_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = Some(policy);
        self
    }

    /// Tunes the per-engine circuit breakers (always present; the
    /// default [`BreakerPolicy`] only changes routing after an engine
    /// exhibits repeated failures).
    pub fn breaker_policy(mut self, policy: BreakerPolicy) -> Self {
        self.breaker = policy;
        self
    }

    /// Spawns the worker pool and returns the running service.
    pub fn build(self) -> Service {
        let engine_names: Vec<&'static str> = self.engines.iter().map(|e| e.name()).collect();
        let obs = Obs::new(&engine_names, self.journal_capacity);
        let (cache_hits, cache_misses, cache_evictions) = obs.cache_counters();
        let (partial_hits, partial_misses, partial_evictions) = obs.partial_cache_counters();
        // Breaker metric children are registered eagerly here, one per
        // engine, so breaker transitions on the execution path never
        // allocate and every labeled series exists before first export.
        let breakers = engine_names
            .iter()
            .map(|&name| {
                let (state_gauge, opens) = obs.breaker_handles(name);
                CircuitBreaker::new(self.breaker).with_metrics(state_gauge, opens)
            })
            .collect();
        let shared = Arc::new(Shared {
            state: OrderedMutex::new(
                "serve.state",
                State {
                    queue: VecDeque::new(),
                    cache: LruCache::with_counters(
                        self.cache_capacity,
                        cache_hits,
                        cache_misses,
                        cache_evictions,
                    ),
                    inflight: HashMap::new(),
                    partial: PartialSumCache::with_counters(
                        self.partial_cache_capacity,
                        partial_hits,
                        partial_misses,
                        partial_evictions,
                    ),
                    refine_rate_pps: 0.0,
                    shutdown: false,
                },
            ),
            work: OrderedCondvar::new(),
            space: OrderedCondvar::new(),
            queue_capacity: self.queue_capacity,
            engines: self.engines,
            breakers,
            retry: self.retry,
            timeout: self.timeout,
            admission: self.admission,
            watchdog: OrderedMutex::new("serve.watchdog", Vec::new()),
            watchdog_wake: OrderedCondvar::new(),
            stopping: AtomicBool::new(false),
            refine_opts: self.refine_opts,
            obs,
        });
        let workers = (0..self.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qns-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        // The watchdog thread only exists when deadlines do.
        let watchdog = self.timeout.map(|policy| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("qns-serve-watchdog".into())
                .spawn(move || watchdog_loop(&shared, policy))
                .expect("spawn service watchdog") // qns-lint: allow(panic)
        });
        Service {
            shared,
            workers,
            watchdog,
            default_route: self.route,
        }
    }
}

/// The running service: worker pool + queue + cache + single-flight
/// table. The crate-level docs describe the submission protocol.
/// Dropping the service shuts it down: no new submissions, queued
/// work drains, workers join.
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
    default_route: Route,
}

impl Service {
    /// Submits under the builder's default routing policy.
    ///
    /// # Errors
    ///
    /// [`QnsError::InvalidJob`] after [`Service::shutdown`]. Routing
    /// and execution errors arrive on the handle, not here.
    pub fn submit(&self, spec: &JobSpec) -> Result<JobHandle, QnsError> {
        self.submit_routed(spec, self.default_route)
    }

    /// Submits under an explicit routing policy.
    ///
    /// # Errors
    ///
    /// As [`Service::submit`].
    pub fn submit_routed(&self, spec: &JobSpec, route: Route) -> Result<JobHandle, QnsError> {
        let key = route.cache_key(spec.fingerprint);
        let obs = &self.shared.obs;
        let mut state = self.shared.lock();
        if state.shutdown {
            return Err(QnsError::InvalidJob {
                reason: "service has shut down".into(),
            });
        }
        // `submitted` counts *accepted* submissions only, so each of
        // the three accept paths below bumps it — never a rejection
        // (including the post-backpressure shutdown rejection).
        // Submit-path events are recorded while the state lock is held
        // (the journal lock is innermost), so a racing worker's
        // `Dequeued` can never precede this submission's `Enqueued` in
        // the journal.

        // 1. Already queued or running: join that flight. No cache
        //    probe — a join is not a cache miss.
        if let Some(flight) = state.inflight.get(&key).map(Arc::clone) {
            let job_id = obs.job_id();
            obs.submitted.inc();
            obs.dedup_joins.inc();
            obs.mark_submit(obs.now_micros());
            obs.record(job_id, EventKind::Submitted);
            obs.record(job_id, EventKind::DedupJoined);
            return Ok(JobHandle { flight });
        }
        // 2. Completed before: answer from the cache. The chaos hook
        //    models a slow cache path (a `cache.probe` Sleep rule
        //    stalls the submitter under the state lock — deliberately,
        //    that is what a slow cache does); Trip is meaningless for a
        //    probe and ignored. No plan installed ⇒ one relaxed load.
        faults::apply_delay(faults::failpoint("cache.probe"));
        if let Some(est) = state.cache.get(key) {
            let job_id = obs.job_id();
            obs.submitted.inc();
            let now = obs.now_micros();
            obs.mark_submit(now);
            obs.mark_resolve(now);
            obs.record(job_id, EventKind::Submitted);
            obs.record(job_id, EventKind::CacheHit);
            obs.record(job_id, EventKind::Resolved { ok: true });
            return Ok(JobHandle {
                flight: Flight::resolved(Ok(est)),
            });
        }
        // 3. Admission control (only for work that would actually
        //    consume a worker: joins and cache hits above are free and
        //    must never shed). Expectation jobs have no level lever,
        //    so the only admission verdict here is shed-or-accept.
        let cost = self.shared.admission.map(|adm| {
            let c = self.shared.cost_estimate(&spec.job(), route);
            (adm, c)
        });
        if let Some((adm, cost)) = cost {
            let pressure = (state.queue.len() as u128 + 1).saturating_mul(cost.max(1));
            if pressure >= adm.shed_pressure {
                let queue_depth = state.queue.len();
                let job_id = obs.job_id();
                obs.shed.inc();
                obs.record(
                    job_id,
                    EventKind::Shed {
                        queue_depth: u32::try_from(queue_depth).unwrap_or(u32::MAX),
                    },
                );
                return Err(QnsError::Overloaded { queue_depth });
            }
        }
        // 4. First submission: own the flight, enter the bounded queue.
        let flight = Flight::pending();
        state.inflight.insert(key, Arc::clone(&flight));
        while state.queue.len() >= self.shared.queue_capacity && !state.shutdown {
            state = self.shared.space.wait(state);
        }
        // The shutdown check must come AFTER the wait loop, not only
        // inside it: workers may drain the queue and exit (observing
        // `shutdown && queue empty`) between our wake-up and
        // reacquiring the lock, in which case the queue has space but a
        // pushed task would never run. Other submissions may have
        // dedup-joined this flight while we waited — resolve it with
        // the shutdown error before abandoning it, or their handles
        // would hang forever.
        if state.shutdown {
            let err = QnsError::InvalidJob {
                reason: "service shut down while awaiting queue space".into(),
            };
            flight.fill(Err(err.clone()));
            state.inflight.remove(&key);
            return Err(err);
        }
        let job_id = obs.job_id();
        obs.submitted.inc();
        let now = obs.now_micros();
        obs.mark_submit(now);
        let timed_out = Arc::new(AtomicBool::new(false));
        state.queue.push_back(Work::Expect(Task {
            key,
            route,
            spec: spec.clone(),
            flight: Arc::clone(&flight),
            timed_out: Arc::clone(&timed_out),
            job_id,
            submitted_micros: now,
        }));
        let depth = state.queue.len();
        obs.queue_depth.set(depth as i64);
        obs.record(job_id, EventKind::Submitted);
        obs.record(
            job_id,
            EventKind::Enqueued {
                queue_depth: u32::try_from(depth).unwrap_or(u32::MAX),
            },
        );
        drop(state);
        self.shared.work.notify_one();
        // Deadline armed AFTER the state lock is released: the
        // watchdog table is outermost in the lock order, so it is
        // never acquired while `serve.state` is held.
        if let Some(tp) = &self.shared.timeout {
            let budget = tp.budget_micros(self.shared.cost_estimate(&spec.job(), route));
            self.shared.arm_deadline(WatchdogEntry {
                deadline_micros: now.saturating_add(budget),
                budget_micros: budget,
                job_id,
                target: WatchdogTarget::Expect {
                    key,
                    flight: Arc::clone(&flight),
                    timed_out,
                },
            });
        }
        Ok(JobHandle { flight })
    }

    /// Submits an anytime refinement: the job's pattern sum is
    /// computed level by level under the builder's
    /// [`refine options`](ServiceBuilder::refine_options), answering
    /// first at the deepest level whose *uncached* cost fits the
    /// request's budget and escalating the remaining levels in the
    /// background. Every completed level streams through the returned
    /// [`RefinementHandle`]; cached per-level partial sums make a
    /// resubmission resume where the last run stopped.
    ///
    /// # Errors
    ///
    /// [`QnsError::InvalidJob`] after shutdown or for a `NaN`
    /// deadline; [`QnsError::TermBudgetExceeded`] when even level 0
    /// exceeds the refine options' `max_terms` guard. Execution errors
    /// arrive on the handle.
    pub fn submit_refine(
        &self,
        spec: &JobSpec,
        req: &RefineRequest,
    ) -> Result<RefinementHandle, QnsError> {
        req.validate()?;
        let opts = self.shared.refine_opts;
        let n = spec.noisy().noise_count();
        // Deepest level the options' term budget allows at all.
        let mut feasible = None;
        for level in 0..=n {
            if qns_core::bounds::planned_patterns(n, level) <= opts.max_terms {
                feasible = Some(level);
            } else {
                break;
            }
        }
        let Some(feasible_cap) = feasible else {
            return Err(QnsError::TermBudgetExceeded {
                level: 0,
                planned: 1,
                max_terms: opts.max_terms,
            });
        };
        let final_level = req.max_level.unwrap_or(n).min(n).min(feasible_cap);
        let key = partial_sum_key(spec.fingerprint(), &opts).as_u128();
        let cancel = Arc::new(AtomicBool::new(false));
        let progress = Arc::new(RefineShared::default());

        let mut state = self.shared.lock();
        if state.shutdown {
            return Err(QnsError::InvalidJob {
                reason: "service has shut down".into(),
            });
        }
        // Deadline level: cached levels are free, so pricing happens
        // against the cache as it stands at submission time.
        let cached_levels = state.partial.peek_len(key);
        let budget = req.resolved_budget(state.refine_rate_pps);
        let requested_level = deadline_level(n, final_level, cached_levels, budget);
        let mut first_level = requested_level;
        // Admission control: between the two pressure thresholds the
        // refinement is admitted at a shallower first level — the
        // Theorem-1 bound still holds at the served level, so the
        // degraded answer is worse only in tightness, never in
        // validity. Above the shed threshold it is rejected outright.
        if let Some(adm) = &self.shared.admission {
            let cost = qns_core::bounds::planned_patterns(n, final_level);
            let pressure = (state.queue.len() as u128 + 1).saturating_mul(cost.max(1));
            if pressure >= adm.shed_pressure {
                let queue_depth = state.queue.len();
                let obs = &self.shared.obs;
                let job_id = obs.job_id();
                obs.shed.inc();
                obs.record(
                    job_id,
                    EventKind::Shed {
                        queue_depth: u32::try_from(queue_depth).unwrap_or(u32::MAX),
                    },
                );
                return Err(QnsError::Overloaded { queue_depth });
            }
            if pressure >= adm.degrade_pressure {
                // Overload factor ≥ 2: the budget shrinks in
                // proportion to how far past the threshold we are.
                // Unlimited budgets clamp to the full plan cost first —
                // any budget beyond it buys the same levels, and an
                // unbounded request must still degrade under pressure.
                let factor = (pressure / adm.degrade_pressure.max(1)).saturating_add(1);
                let scaled = budget.min(cost) / factor;
                first_level = deadline_level(n, final_level, cached_levels, scaled);
            }
        }
        while state.queue.len() >= self.shared.queue_capacity && !state.shutdown {
            state = self.shared.space.wait(state);
        }
        // Same post-backpressure re-check as submit_routed: workers may
        // have drained and exited while we waited for space.
        if state.shutdown {
            let err = QnsError::InvalidJob {
                reason: "service shut down while awaiting queue space".into(),
            };
            progress.finish(Some(err.clone()), false);
            return Err(err);
        }
        let obs = &self.shared.obs;
        let job_id = obs.job_id();
        obs.submitted.inc();
        obs.refinements.inc();
        obs.refine_active.inc();
        if first_level < requested_level {
            obs.degraded.inc();
            obs.record(
                job_id,
                EventKind::Degraded {
                    requested_level: u32::try_from(requested_level).unwrap_or(u32::MAX),
                    served_level: u32::try_from(first_level).unwrap_or(u32::MAX),
                },
            );
        }
        let now = obs.now_micros();
        obs.mark_submit(now);
        state.queue.push_back(Work::Refine(RefineTask {
            key,
            spec: spec.clone(),
            first_level,
            final_level,
            shared: Arc::clone(&progress),
            cancel: Arc::clone(&cancel),
            job_id,
            submitted_micros: now,
        }));
        let depth = state.queue.len();
        obs.queue_depth.set(depth as i64);
        obs.record(job_id, EventKind::Submitted);
        obs.record(
            job_id,
            EventKind::RefineSubmitted {
                first_level: u32::try_from(first_level).unwrap_or(u32::MAX),
                final_level: u32::try_from(final_level).unwrap_or(u32::MAX),
            },
        );
        obs.record(
            job_id,
            EventKind::Enqueued {
                queue_depth: u32::try_from(depth).unwrap_or(u32::MAX),
            },
        );
        drop(state);
        self.shared.work.notify_one();
        // Same post-release deadline arming as `submit_routed`; the
        // cost estimate is the refinement's full Theorem-1 pattern
        // plan, so deeper refinements earn proportionally more time.
        if let Some(tp) = &self.shared.timeout {
            let budget = tp.budget_micros(qns_core::bounds::planned_patterns(n, final_level));
            self.shared.arm_deadline(WatchdogEntry {
                deadline_micros: now.saturating_add(budget),
                budget_micros: budget,
                job_id,
                target: WatchdogTarget::Refine {
                    shared: Arc::clone(&progress),
                    cancel: Arc::clone(&cancel),
                },
            });
        }
        Ok(RefinementHandle::new(
            progress,
            cancel,
            first_level,
            final_level,
        ))
    }

    /// The options every refinement runs under (see
    /// [`ServiceBuilder::refine_options`]).
    pub fn refine_options(&self) -> &ApproxOptions {
        &self.shared.refine_opts
    }

    /// A point-in-time snapshot of the service's counters — a view
    /// over the metrics registry (the counters live there; see
    /// [`Service::metrics_snapshot`] for the full export).
    pub fn stats(&self) -> ServiceStats {
        let obs = &self.shared.obs;
        let (cache, partial_cache, inflight, refine_rate_pps) = {
            let state = self.shared.lock();
            (
                state.cache.counters(),
                state.partial.counters(),
                state.inflight.len(),
                state.refine_rate_pps,
            )
        };
        let mut per_backend = BTreeMap::new();
        for (name, handles) in &obs.backends {
            let jobs = handles.jobs.get();
            if jobs > 0 {
                per_backend.insert(
                    *name,
                    BackendStats {
                        jobs,
                        seconds: handles.micros.get() as f64 / 1e6,
                    },
                );
            }
        }
        let refine_levels_completed = obs
            .registry
            .counter_values("qns_serve_refine_levels_completed_total")
            .into_iter()
            .filter_map(|(label, count)| label.parse::<usize>().ok().map(|level| (level, count)))
            .collect();
        ServiceStats {
            submitted: obs.submitted.get(),
            executed: obs.executed.get(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            dedup_joins: obs.dedup_joins.get(),
            queue_high_water: usize::try_from(obs.queue_depth.high_water()).unwrap_or(0),
            per_backend,
            refinements: obs.refinements.get(),
            refine_levels_completed,
            refine_levels_from_cache: obs.refine_from_cache.get(),
            refine_active: usize::try_from(obs.refine_active.get()).unwrap_or(0),
            refine_high_water: usize::try_from(obs.refine_active.high_water()).unwrap_or(0),
            refine_cancelled: obs.refine_cancelled.get(),
            partial_cache,
            retries: obs.retries.get(),
            failovers: obs.failovers.get(),
            timeouts: obs.timeouts.get(),
            shed: obs.shed.get(),
            degraded: obs.degraded.get(),
            breaker_opens: self.shared.breakers.iter().map(CircuitBreaker::opens).sum(),
            inflight,
            refine_rate_pps,
        }
    }

    /// The current per-engine circuit-breaker states, in registration
    /// order (paired with [`Service::engine_names`]).
    pub fn breaker_states(&self) -> Vec<(&'static str, crate::breaker::BreakerState)> {
        self.shared
            .engines
            .iter()
            .zip(&self.shared.breakers)
            .map(|(e, b)| (e.name(), b.state()))
            .collect()
    }

    /// A point-in-time copy of every metric series the service (and
    /// anything else sharing [`Service::metrics_registry`], e.g. the
    /// `qns-tnet` replay profiler) has recorded. Feed it to
    /// [`qns_obs::export::to_prometheus`] /
    /// [`qns_obs::export::to_json`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.obs.registry.snapshot()
    }

    /// The service's metrics registry — shareable with other
    /// instrumented components (e.g.
    /// `qns_tnet::profile::install`) so their series export alongside
    /// the service's.
    pub fn metrics_registry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.obs.registry)
    }

    /// Drains the event journal: every buffered per-job lifecycle
    /// event, oldest first, plus the cumulative count of events lost
    /// to ring overflow. Use [`qns_obs::DrainedEvents::timelines`] to
    /// regroup per job.
    pub fn drain_events(&self) -> DrainedEvents {
        self.shared.obs.drain_events()
    }

    /// Names of the registered engines, in registration (= routing
    /// tie-break) order.
    pub fn engine_names(&self) -> Vec<&'static str> {
        self.shared.engines.iter().map(|e| e.name()).collect()
    }

    /// Signals shutdown without waiting: new submissions are rejected
    /// and submitters blocked on queue space wake with an error (their
    /// flights resolve), while already-queued work keeps draining.
    /// [`Service::shutdown`] / dropping the service additionally join
    /// the workers.
    pub fn begin_shutdown(&self) {
        {
            let mut state = self.shared.lock();
            state.shutdown = true;
        }
        // The lock-free mirror interrupts retry backoffs and stops the
        // watchdog scan loop.
        self.shared.stopping.store(true, Ordering::Release);
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        self.shared.watchdog_wake.notify_all();
    }

    /// Stops accepting submissions, drains the queue, and joins the
    /// workers. Outstanding handles all resolve before this returns.
    /// Dropping the service does the same.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.watchdog.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// One worker: pop, route, execute (lock released), record, resolve.
/// On shutdown the loop drains the queue before exiting, so every
/// accepted submission resolves.
fn worker_loop(shared: &Shared) {
    loop {
        let work = {
            let mut state = shared.lock();
            loop {
                if let Some(work) = state.queue.pop_front() {
                    shared.obs.queue_depth.set(state.queue.len() as i64);
                    shared.space.notify_one();
                    break Some(work);
                }
                if state.shutdown {
                    break None;
                }
                state = shared.work.wait(state);
            }
        };
        match work {
            Some(Work::Expect(task)) => run_expectation(shared, task),
            Some(Work::Refine(task)) => run_refinement(shared, task),
            None => return,
        }
    }
}

/// Removes `task`'s single-flight entry iff it still owns it. The
/// watchdog retires entries for timed-out jobs (so later submissions
/// re-execute), after which the same key may belong to a *newer*
/// flight — which must not be clobbered by this worker's cleanup.
fn retire_flight(state: &mut State, key: u128, flight: &Arc<Flight>) {
    if state
        .inflight
        .get(&key)
        .is_some_and(|f| Arc::ptr_eq(f, flight))
    {
        state.inflight.remove(&key);
    }
}

/// Sleeps out a retry backoff in small slices, aborting early on
/// shutdown or when the job's deadline fired. Returns whether the full
/// backoff elapsed (i.e. the retry should proceed).
fn backoff_sleep(shared: &Shared, task: &Task, micros: u64) -> bool {
    let mut remaining = micros;
    loop {
        if shared.stopping.load(Ordering::Acquire) || task.timed_out.load(Ordering::Acquire) {
            return false;
        }
        if remaining == 0 {
            return true;
        }
        let chunk = remaining.min(1_000);
        std::thread::sleep(Duration::from_micros(chunk));
        remaining -= chunk;
    }
}

/// Executes one expectation task: route (around open breakers and
/// already-failed engines), execute (lock released), retry retryable
/// failures under the retry policy, record, resolve.
fn run_expectation(shared: &Shared, task: Task) {
    let obs = &shared.obs;
    let wait_micros = obs.now_micros().saturating_sub(task.submitted_micros);
    obs.queue_wait.record(wait_micros);
    obs.record(
        task.job_id,
        EventKind::Dequeued {
            queue_wait_micros: wait_micros,
        },
    );
    if task.timed_out.load(Ordering::Acquire) {
        // The deadline fired while the job was still queued: the
        // watchdog already resolved the flight, so there is nothing
        // left to execute — just drop our (already-retired) ownership.
        let mut state = shared.lock();
        retire_flight(&mut state, task.key, &task.flight);
        return;
    }
    let max_attempts = shared.retry.map_or(1, |r| r.max_attempts.max(1));
    // Engines that failed this job (Auto failover skips them on the
    // next attempt; the router falls back if they were the only
    // option).
    let mut failed: Vec<usize> = Vec::new();
    let mut prev_engine: Option<&'static str> = None;
    let mut attempt = 0u32;
    let result = loop {
        attempt += 1;
        let mut routed_idx: Option<usize> = None;
        let mut routed_name: Option<&'static str> = None;
        // A panicking backend (custom engines arrive through
        // `ServiceBuilder::with_engine`) must not kill the worker:
        // that would strand the flight — every joined handle would
        // hang in `wait()` forever — and silently shrink the pool.
        // Contain it and treat it as a (retryable) failed attempt.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let job = task.spec.job();
            let now = obs.now_micros();
            let pick = route_job_masked(&shared.engines, &job, task.route, |i| {
                !failed.contains(&i) && shared.breakers[i].candidate(now)
            });
            match pick {
                Ok(idx) => {
                    routed_idx = Some(idx);
                    let engine = &shared.engines[idx];
                    routed_name = Some(engine.name());
                    // An open-but-cooled breaker spends its half-open
                    // trial on this attempt.
                    shared.breakers[idx].begin_attempt(now);
                    obs.record(
                        task.job_id,
                        EventKind::Routed {
                            engine: engine.name(),
                            cost: engine
                                .cost_hint(&job)
                                .map_or(u64::MAX, |c| u64::try_from(c).unwrap_or(u64::MAX)),
                        },
                    );
                    if let Some(prev) = prev_engine {
                        if prev != engine.name() {
                            obs.failovers.inc();
                            obs.record(
                                task.job_id,
                                EventKind::FailedOver {
                                    from: prev,
                                    to: engine.name(),
                                },
                            );
                        }
                    }
                    let (result, seconds) = time_it(|| engine.expectation(&job));
                    (result, Some((engine.name(), seconds)))
                }
                Err(e) => (Err(e), None),
            }
        }));
        let (attempt_result, executed_on) = outcome.unwrap_or_else(|payload| {
            (
                Err(QnsError::ExecutionPanicked {
                    reason: format!("backend panicked: {}", panic_reason(payload.as_ref())),
                }),
                None,
            )
        });
        if let Some((name, seconds)) = executed_on {
            let micros = (seconds * 1e6) as u64;
            obs.executed.inc();
            if let Some(handles) = obs.backends.get(name) {
                handles.jobs.inc();
                handles.micros.add(micros);
            }
            obs.record(
                task.job_id,
                EventKind::Executed {
                    engine: name,
                    micros,
                    ok: attempt_result.is_ok(),
                },
            );
        }
        // Breaker feedback covers panics too: `routed_idx` was latched
        // before the engine ran.
        if let Some(idx) = routed_idx {
            match &attempt_result {
                Ok(_) => shared.breakers[idx].on_success(),
                Err(_) => shared.breakers[idx].on_failure(obs.now_micros()),
            }
        }
        match attempt_result {
            Ok(est) => break Ok(est),
            Err(err) => {
                if attempt >= max_attempts
                    || !err.is_retryable()
                    || task.timed_out.load(Ordering::Acquire)
                    || shared.stopping.load(Ordering::Acquire)
                {
                    break Err(err);
                }
                if let Some(idx) = routed_idx {
                    if !failed.contains(&idx) {
                        failed.push(idx);
                    }
                }
                prev_engine = routed_name.or(prev_engine);
                let backoff = shared
                    .retry
                    .map_or(0, |r| r.backoff_micros(attempt, task.job_id));
                obs.retries.inc();
                obs.record(
                    task.job_id,
                    EventKind::Retried {
                        attempt: attempt + 1,
                        backoff_micros: backoff,
                    },
                );
                if !backoff_sleep(shared, &task, backoff) {
                    // Shutdown or deadline interrupted the backoff:
                    // resolve with the last error instead of retrying.
                    break Err(err);
                }
            }
        }
    };

    {
        let mut state = shared.lock();
        if let Ok(est) = &result {
            state.cache.insert(task.key, est.clone());
        }
        retire_flight(&mut state, task.key, &task.flight);
    }
    let ok = result.is_ok();
    task.flight.try_fill_with(result, || {
        let now = obs.now_micros();
        obs.e2e.record(now.saturating_sub(task.submitted_micros));
        obs.mark_resolve(now);
        obs.record(task.job_id, EventKind::Resolved { ok });
    });
    // On a lost race the watchdog already resolved (and journaled) the
    // flight as timed out mid-execution; the late result was still
    // cached above.
}

/// The deadline watchdog: scans the armed-deadline table, fires every
/// expired entry (resolving its flight or refinement stream with
/// [`QnsError::Timeout`] — first writer wins against the executing
/// worker), and sleeps until the nearest remaining deadline, capped at
/// the policy's scan interval. New registrations and shutdown wake it
/// early.
fn watchdog_loop(shared: &Shared, policy: TimeoutPolicy) {
    loop {
        // Collect expired entries under the watchdog lock, then fire
        // them after releasing it: firing acquires `serve.state`
        // (legal — the watchdog table is outermost in the lock order)
        // and holding the table across those acquisitions would stall
        // every submission's deadline registration.
        let now = shared.obs.now_micros();
        let (expired, next_deadline) = {
            let mut entries = shared.watchdog.lock_or_recover();
            let mut expired = Vec::new();
            let mut i = 0;
            while i < entries.len() {
                if entries[i].deadline_micros <= now {
                    expired.push(entries.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            (expired, entries.iter().map(|e| e.deadline_micros).min())
        };
        for entry in expired {
            fire_deadline(shared, entry);
        }
        if shared.stopping.load(Ordering::Acquire) {
            // Shutdown: the draining workers resolve everything still
            // armed; racing them with timeout verdicts mid-drain would
            // turn legitimate results into spurious timeouts.
            return;
        }
        let wait = next_deadline
            .map(|d| d.saturating_sub(shared.obs.now_micros()))
            .unwrap_or(policy.check_interval_micros)
            .clamp(1, policy.check_interval_micros.max(1));
        let entries = shared.watchdog.lock_or_recover();
        let _ = shared
            .watchdog_wake
            .wait_timeout(entries, Duration::from_micros(wait));
    }
}

/// Fires one expired deadline. Resolution is first-writer-wins: when
/// the executing worker already resolved (or resolves concurrently),
/// firing is a no-op and records nothing.
fn fire_deadline(shared: &Shared, entry: WatchdogEntry) {
    let obs = &shared.obs;
    let timeout = QnsError::Timeout {
        after_micros: entry.budget_micros,
    };
    let bookkeeping = || {
        obs.timeouts.inc();
        obs.record(
            entry.job_id,
            EventKind::TimedOut {
                after_micros: entry.budget_micros,
            },
        );
        obs.mark_resolve(obs.now_micros());
        obs.record(entry.job_id, EventKind::Resolved { ok: false });
    };
    match entry.target {
        WatchdogTarget::Expect {
            key,
            flight,
            timed_out,
        } => {
            // Flag first: workers skip executing a job that timed out
            // while queued and abandon retry backoffs in progress.
            timed_out.store(true, Ordering::Release);
            // Retire the single-flight entry (if this flight still
            // owns it) so later identical submissions re-execute
            // instead of joining a timed-out verdict.
            {
                let mut state = shared.lock();
                retire_flight(&mut state, key, &flight);
            }
            flight.try_fill_with(Err(timeout), bookkeeping);
        }
        WatchdogTarget::Refine { shared, cancel } => {
            // Cooperative: the worker stops at the next level
            // boundary; levels already published stay readable
            // (anytime semantics — the caller still gets the deepest
            // Theorem-1-bounded answer the budget paid for).
            cancel.store(true, Ordering::Relaxed);
            shared.finish_with(Some(timeout), false, bookkeeping);
        }
    }
}

fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Executes one refinement: install the cached level prefix, compute
/// the remaining levels up to `final_level`, publish each completed
/// level, and stop at a level boundary on cancel — or, once the
/// promised `first_level` is in, on shutdown (the deadline answer is
/// honoured even while draining; escalation past it is best-effort).
fn run_refinement(shared: &Shared, task: RefineTask) {
    let obs = &shared.obs;
    let wait_micros = obs.now_micros().saturating_sub(task.submitted_micros);
    obs.queue_wait.record(wait_micros);
    obs.record(
        task.job_id,
        EventKind::Dequeued {
            queue_wait_micros: wait_micros,
        },
    );
    // Same containment rationale as `run_expectation`: a panic must
    // resolve the progress state, not strand every handle.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_refinement_inner(shared, &task)
    }));
    let (error, cancelled) = match outcome {
        Ok(Ok(cancelled)) => (None, cancelled),
        Ok(Err(e)) => (Some(e), false),
        Err(payload) => (
            Some(QnsError::ExecutionPanicked {
                reason: format!("refinement panicked: {}", panic_reason(payload.as_ref())),
            }),
            false,
        ),
    };
    // Retire the gauge BEFORE publishing completion: anyone who
    // observes the refinement as done (via a handle wait) must also
    // observe `refine_active` already decremented.
    obs.refine_active.dec();
    let ok = error.is_none();
    // Only a winning finish records the terminal bookkeeping: when the
    // deadline watchdog finished the stream first, it already journaled
    // `TimedOut` + `Resolved`, and a cooperative cancel-on-timeout must
    // not also count as a user cancellation.
    task.shared.finish_with(error, cancelled, || {
        if cancelled {
            obs.refine_cancelled.inc();
        }
        let now = obs.now_micros();
        obs.e2e.record(now.saturating_sub(task.submitted_micros));
        obs.mark_resolve(now);
        obs.record(task.job_id, EventKind::Resolved { ok });
    });
}

/// The refinement loop proper; returns whether it stopped on a cancel.
fn run_refinement_inner(shared: &Shared, task: &RefineTask) -> Result<bool, QnsError> {
    let job = task.spec.job();
    let mut refinement = Refinement::new(&job, &shared.refine_opts)?;
    let cached = shared.lock().partial.probe(task.key);
    let mut total_seconds = 0.0;
    let mut cancelled = false;
    while refinement.next_level() <= task.final_level {
        let reached_first = refinement
            .completed_level()
            .is_some_and(|c| c >= task.first_level);
        if task.cancel.load(Ordering::Relaxed) {
            cancelled = true;
            break;
        }
        if reached_first && shared.lock().shutdown {
            break;
        }
        let level = refinement.next_level();
        if level < cached.len() {
            let partial =
                refinement.install_level(cached[level].contribution, cached[level].patterns)?;
            let estimate = refinement.estimate_for(&partial);
            shared.obs.refine_from_cache.inc();
            shared.obs.record(
                task.job_id,
                EventKind::RefineLevel {
                    level: u32::try_from(level).unwrap_or(u32::MAX),
                    patterns: partial.level_patterns as u64,
                    micros: 0,
                    from_cache: true,
                },
            );
            task.shared.publish(RefinementUpdate {
                partial,
                estimate,
                from_cache: true,
            });
        } else {
            // Chaos hook: an injected `refine.advance` fault fails the
            // level outright (Trip) or stalls it (Sleep). No plan
            // installed ⇒ one relaxed atomic load.
            let fault = faults::failpoint("refine.advance");
            if matches!(fault, FaultAction::Trip) {
                return Err(QnsError::ExecutionPanicked {
                    reason: format!("injected fault: refine.advance at level {level}"),
                });
            }
            let (result, seconds) = time_it(|| {
                faults::apply_delay(fault);
                refinement.advance()
            });
            let partial = result?;
            total_seconds += seconds;
            let micros = (seconds * 1e6) as u64;
            let estimate = refinement.estimate_for(&partial);
            // A level whose wall time was stalled by an injected fault
            // — or that a timeout/cancel interrupted mid-flight — is
            // not a throughput signal: feeding it into the
            // deadline-conversion EWMA would poison every later
            // deadline → level conversion toward absurdly shallow
            // answers. (Failed levels never get here: `?` above.)
            let poisoned =
                !matches!(fault, FaultAction::None) || task.cancel.load(Ordering::Relaxed);
            {
                let mut state = shared.lock();
                state.partial.record(
                    task.key,
                    level,
                    LevelSum {
                        contribution: partial.level_contribution,
                        patterns: partial.level_patterns,
                    },
                );
                if !poisoned {
                    // In Theorem-1 patterns per second, the unit the
                    // deadline budget is spent in (`deadline_level`
                    // prices levels with `level_patterns`), not the
                    // possibly smaller count of patterns that ran.
                    let priced = qns_core::bounds::level_patterns(refinement.max_level(), level);
                    state.observe_refine_rate(
                        usize::try_from(priced).unwrap_or(usize::MAX),
                        seconds,
                    );
                }
            }
            shared.obs.refine_level_micros.record(micros);
            shared.obs.refine_level_counter(level).inc();
            shared.obs.record(
                task.job_id,
                EventKind::RefineLevel {
                    level: u32::try_from(level).unwrap_or(u32::MAX),
                    patterns: partial.level_patterns as u64,
                    micros,
                    from_cache: false,
                },
            );
            task.shared.publish(RefinementUpdate {
                partial,
                estimate,
                from_cache: false,
            });
        }
    }
    if let Some(handles) = shared.obs.backends.get("refine") {
        handles.jobs.inc();
        handles.micros.add((total_seconds * 1e6) as u64);
    }
    Ok(cancelled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::route_job;
    use qns_circuit::generators::ghz;
    use qns_noise::channels;

    fn spec() -> JobSpec {
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(1e-3), 2, 7);
        JobSpec::zeros(noisy)
    }

    #[test]
    fn submit_resolves_to_the_direct_backend_result() {
        let service = ServiceBuilder::new().workers(2).build();
        let spec = spec();
        let handle = service.submit(&spec).unwrap();
        let est = handle.wait().unwrap();

        // Bit-identical to running the routed engine directly.
        let job = spec.job();
        let idx = route_job(&default_engines(), &job, Route::Auto).unwrap();
        let direct = default_engines()[idx].expectation(&job).unwrap();
        assert_eq!(est.value.to_bits(), direct.value.to_bits());
        assert_eq!(est.backend, direct.backend);
    }

    #[test]
    fn repeat_submissions_hit_the_cache() {
        let service = ServiceBuilder::new().workers(1).build();
        let spec = spec();
        let first = service.submit(&spec).unwrap().wait().unwrap();
        let second = service.submit(&spec).unwrap().wait().unwrap();
        assert_eq!(first.value.to_bits(), second.value.to_bits());
        let stats = service.stats();
        assert_eq!(stats.executed, 1, "second submission must not re-run");
        assert_eq!(stats.cache_hits, 1);
        assert!(stats.cache_hit_rate() > 0.0);
    }

    #[test]
    fn fixed_and_auto_routes_cache_separately() {
        let service = ServiceBuilder::new().workers(1).build();
        let spec = spec();
        let auto = service.submit_routed(&spec, Route::Auto).unwrap();
        let fixed = service
            .submit_routed(&spec, Route::Fixed("density"))
            .unwrap();
        assert!(auto.wait().is_ok());
        assert_eq!(fixed.wait().unwrap().backend, "density");
        // Distinct cache keys ⇒ both routes executed.
        assert_eq!(service.stats().executed, 2);
    }

    #[test]
    fn router_errors_arrive_on_the_handle() {
        let service = ServiceBuilder::new().workers(1).build();
        let handle = service
            .submit_routed(&spec(), Route::Fixed("nonesuch"))
            .unwrap();
        assert!(matches!(
            handle.wait(),
            Err(QnsError::Unsupported {
                backend: "serve-router",
                ..
            })
        ));
        // Errors are not cached: the submission re-routes next time.
        assert_eq!(service.stats().executed, 0);
    }

    #[test]
    fn shutdown_drains_every_accepted_submission() {
        let service = ServiceBuilder::new().workers(2).build();
        let spec = spec();
        let handles: Vec<_> = (0..4)
            .map(|bits| {
                let noisy = spec.noisy().clone();
                let n = noisy.n_qubits();
                let s = JobSpec::new(noisy, InitialState::zeros(n), Observable::basis(n, bits))
                    .unwrap();
                service.submit(&s).unwrap()
            })
            .collect();
        service.shutdown();
        // shutdown() joined the workers, so every handle is resolved.
        for h in &handles {
            assert!(h.try_get().expect("drained before join").is_ok());
        }
    }

    #[test]
    fn shutdown_during_backpressure_resolves_every_handle() {
        // Regression: a submitter blocked on a full queue could wake
        // *after* the workers had drained the queue and exited on
        // shutdown, see queue space, and push a task no worker would
        // ever run — leaving its handle (and every dedup-joined
        // handle) hanging forever. Stress the interleaving: a tiny
        // queue, concurrent submitters, and a shutdown signal racing
        // the backpressure wait. Every accepted handle must resolve
        // once the workers have joined.
        for _ in 0..16 {
            let service = Arc::new(ServiceBuilder::new().workers(1).queue_capacity(1).build());
            let base = spec();
            let barrier = Arc::new(std::sync::Barrier::new(3));
            let submitters: Vec<_> = (0..2u64)
                .map(|t| {
                    let service = Arc::clone(&service);
                    let barrier = Arc::clone(&barrier);
                    let noisy = base.noisy().clone();
                    std::thread::spawn(move || {
                        let n = noisy.n_qubits();
                        barrier.wait();
                        let mut handles = Vec::new();
                        for bits in 4 * t..4 * (t + 1) {
                            let s = JobSpec::new(
                                noisy.clone(),
                                InitialState::zeros(n),
                                Observable::basis(n, bits as usize),
                            )
                            .unwrap();
                            match service.submit(&s) {
                                Ok(h) => handles.push(h),
                                Err(_) => break, // shutdown won the race
                            }
                        }
                        handles
                    })
                })
                .collect();
            barrier.wait();
            service.begin_shutdown();
            let handles: Vec<_> = submitters
                .into_iter()
                .flat_map(|t| t.join().unwrap())
                .collect();
            drop(service); // joins the workers (drop is the last Arc)
            for h in &handles {
                assert!(
                    h.try_get().is_some(),
                    "an accepted handle was stranded by shutdown"
                );
            }
        }
    }

    #[test]
    // The no-join fallback below narrates to stderr rather than failing.
    #[allow(clippy::print_stderr)]
    fn dedup_joins_do_not_count_as_cache_misses() {
        // Saturate a single worker so a second identical submission
        // joins the first in-flight execution instead of probing the
        // cache: the join must not log a miss.
        let service = ServiceBuilder::new().workers(1).build();
        let spec = spec();
        let a = service.submit(&spec).unwrap();
        let mut joined = false;
        for _ in 0..64 {
            service.submit(&spec).unwrap();
            let stats = service.stats();
            if stats.dedup_joins > 0 {
                joined = true;
                assert_eq!(
                    stats.cache_misses, 1,
                    "only the flight owner probes the cache"
                );
                break;
            }
        }
        a.wait().unwrap();
        // Tiny jobs can resolve before we resubmit; only assert when a
        // join actually happened (it does on any normally loaded box).
        if !joined {
            eprintln!("note: no dedup join observed; interleaving not exercised");
        }
    }

    #[test]
    fn backend_panic_resolves_the_flight_and_keeps_the_worker_alive() {
        struct PanickingBackend;
        impl qns_api::Backend for PanickingBackend {
            fn name(&self) -> &'static str {
                "panicker"
            }
            fn expectation(&self, _job: &ExpectationJob<'_>) -> Result<Estimate, QnsError> {
                panic!("deliberate test panic")
            }
        }

        let service = ServiceBuilder::new()
            .workers(1)
            .with_engine(Arc::new(PanickingBackend))
            .build();
        let spec = spec();
        let handle = service
            .submit_routed(&spec, Route::Fixed("panicker"))
            .unwrap();
        match handle.wait() {
            Err(QnsError::ExecutionPanicked { reason }) => {
                assert!(reason.contains("panicked"), "unexpected reason: {reason}")
            }
            other => panic!("expected a contained panic error, got {other:?}"),
        }
        // The sole worker survived the panic and still serves jobs.
        let est = service.submit_routed(&spec, Route::Auto).unwrap().wait();
        assert!(est.is_ok(), "worker died after a contained panic: {est:?}");
    }

    #[test]
    fn try_get_is_none_only_while_pending() {
        let service = ServiceBuilder::new().workers(1).build();
        let handle = service.submit(&spec()).unwrap();
        let est = handle.wait().unwrap();
        assert_eq!(
            handle.try_get().unwrap().unwrap().value.to_bits(),
            est.value.to_bits()
        );
    }
}
