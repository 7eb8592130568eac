//! Deterministic fault injection for the serving layer.
//!
//! Chaos testing is only useful when a failing schedule can be
//! *replayed*: every injection decision here is a pure function of a
//! seed, a failpoint name, and a per-failpoint hit counter, so a
//! failure found under `--chaos 42` reproduces under `--chaos 42`.
//! Faults are described by a [`FaultPlan`] and reach the service two
//! ways:
//!
//! * **Backend faults** — wrap any engine in a [`ChaosBackend`], which
//!   consults the plan's `backend.*` failpoints around the inner
//!   engine's `expectation` call: injected errors (surfaced as the
//!   retryable [`QnsError::ExecutionPanicked`]), real panics (contained
//!   by the service's `catch_unwind` harness), injected latency, and
//!   hangs long enough to trip the deadline watchdog.
//! * **Serve-internal faults** — [`install`] a plan process-globally
//!   and the service's own failpoints ([`Failpoint::CacheProbe`],
//!   [`Failpoint::RefineAdvance`]) consult it via [`failpoint`]. While
//!   **uninstalled** (the default) that hook is a single relaxed atomic
//!   load — the same zero-overhead contract as `qns_tnet::profile` — so
//!   production serving pays nothing for the chaos machinery.
//!
//! Every failpoint is a variant of [`Failpoint`], and every consult
//! takes one, so a failpoint outside the registry does not compile:
//!
//! ```
//! use qns_serve::{FaultPlan, Failpoint};
//! let plan = FaultPlan::new(42).with_error(Failpoint::BackendError, 300);
//! let _ = plan.failpoint(Failpoint::BackendError);
//! ```
//!
//! ```compile_fail,E0599
//! use qns_serve::{FaultPlan, Failpoint};
//! let plan = FaultPlan::new(42).with_error(Failpoint::BackendEror, 300);
//! ```

use qns_api::{Backend, Estimate, ExpectationJob, QnsError};
use rand::SplitMix64;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};
use std::time::Duration;

/// Every failpoint the serving layer may consult. A plan indexes its
/// per-failpoint state by discriminant, and [`Failpoint::name`] feeds
/// the per-failpoint hash stream, so the dotted names are part of the
/// replay contract: renaming one changes every chaos schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failpoint {
    /// `backend.error` — [`ChaosBackend`] returns a retryable
    /// [`QnsError::ExecutionPanicked`] instead of executing.
    BackendError,
    /// `backend.panic` — [`ChaosBackend`] panics mid-execution (the
    /// service's `catch_unwind` harness must contain it).
    BackendPanic,
    /// `backend.delay` — [`ChaosBackend`] sleeps before executing
    /// (injected latency; stresses timeout margins).
    BackendDelay,
    /// `backend.hang` — [`ChaosBackend`] sleeps a long, bounded time
    /// (a hung engine; the deadline watchdog must resolve the handle).
    BackendHang,
    /// `cache.probe` — the service stalls inside its result-cache
    /// probe, widening the dedup/cache race windows.
    CacheProbe,
    /// `refine.advance` — one refinement level fails or runs slow,
    /// exercising the EWMA poisoning guard and per-level error paths.
    RefineAdvance,
}

impl Failpoint {
    /// Every failpoint, in discriminant order.
    pub const ALL: [Failpoint; 6] = [
        Failpoint::BackendError,
        Failpoint::BackendPanic,
        Failpoint::BackendDelay,
        Failpoint::BackendHang,
        Failpoint::CacheProbe,
        Failpoint::RefineAdvance,
    ];

    /// The failpoint's dotted name (`backend.error`, …).
    pub const fn name(self) -> &'static str {
        match self {
            Failpoint::BackendError => "backend.error",
            Failpoint::BackendPanic => "backend.panic",
            Failpoint::BackendDelay => "backend.delay",
            Failpoint::BackendHang => "backend.hang",
            Failpoint::CacheProbe => "cache.probe",
            Failpoint::RefineAdvance => "refine.advance",
        }
    }
}

/// Number of failpoints (array sizes below).
const N: usize = Failpoint::ALL.len();

/// What a consulted failpoint told the caller to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault this hit; proceed normally.
    None,
    /// The fault fired; apply the site's failure effect (error, panic,
    /// failed level — whatever the failpoint's contract says).
    Trip,
    /// The fault fired as injected latency: sleep this many
    /// microseconds, then proceed normally.
    Sleep(u64),
}

/// One failpoint's configured behavior inside a [`FaultPlan`].
#[derive(Clone, Copy, Debug, Default)]
struct FaultRule {
    /// Firing probability in per-mille (0 = never, 1000 = always).
    per_mille: u32,
    /// When non-zero, a firing injects this much latency instead of a
    /// failure effect.
    delay_micros: u64,
}

/// A seeded, replayable schedule of fault injections.
///
/// The plan is immutable after construction; decisions are made by
/// hashing `(seed, failpoint, hit index)` through SplitMix64, so each
/// failpoint sees a fixed pseudo-random firing sequence independent of
/// thread interleaving — hit *k* of `backend.error` fires (or not)
/// identically on every run with the same seed, no matter which worker
/// gets there.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: [FaultRule; N],
    hits: [AtomicU64; N],
    fired: [AtomicU64; N],
}

/// FNV-1a over the failpoint name, folding [`Failpoint::name`] into
/// the per-failpoint hash stream.
fn fnv1a(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl FaultPlan {
    /// An empty plan (no failpoint ever fires) under `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: [FaultRule::default(); N],
            hits: [(); N].map(|()| AtomicU64::new(0)),
            fired: [(); N].map(|()| AtomicU64::new(0)),
        }
    }

    /// The seed this plan replays under.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Configures `fp` to fire a failure effect with probability
    /// `per_mille`/1000 per hit.
    #[must_use]
    pub fn with_error(mut self, fp: Failpoint, per_mille: u32) -> FaultPlan {
        self.rules[fp as usize] = FaultRule {
            per_mille,
            delay_micros: 0,
        };
        self
    }

    /// Configures `fp` to inject `delay_micros` of latency with
    /// probability `per_mille`/1000 per hit.
    #[must_use]
    pub fn with_delay(mut self, fp: Failpoint, per_mille: u32, delay_micros: u64) -> FaultPlan {
        self.rules[fp as usize] = FaultRule {
            per_mille,
            delay_micros: delay_micros.max(1),
        };
        self
    }

    /// Consults `fp`: advances its hit counter and returns the
    /// (deterministic) action for this hit.
    pub fn failpoint(&self, fp: Failpoint) -> FaultAction {
        let idx = fp as usize;
        let rule = self.rules[idx];
        let hit = self.hits[idx].fetch_add(1, Ordering::Relaxed);
        if rule.per_mille == 0 {
            return FaultAction::None;
        }
        let mut mix =
            SplitMix64::new(self.seed ^ fnv1a(fp.name()) ^ hit.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        if mix.next_u64() % 1000 >= u64::from(rule.per_mille) {
            return FaultAction::None;
        }
        self.fired[idx].fetch_add(1, Ordering::Relaxed);
        if rule.delay_micros > 0 {
            FaultAction::Sleep(rule.delay_micros)
        } else {
            FaultAction::Trip
        }
    }

    /// Times `fp` was consulted.
    pub fn hits(&self, fp: Failpoint) -> u64 {
        self.hits[fp as usize].load(Ordering::Relaxed)
    }

    /// Times `fp` actually fired.
    pub fn fired(&self, fp: Failpoint) -> u64 {
        self.fired[fp as usize].load(Ordering::Relaxed)
    }

    /// Total firings across all failpoints.
    pub fn total_fired(&self) -> u64 {
        self.fired.iter().map(|f| f.load(Ordering::Relaxed)).sum()
    }
}

/// Fast-path switch for the process-global plan: checked (relaxed) at
/// every serve-internal failpoint before anything else, so the
/// uninstalled cost is one atomic load.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// The installed plan. A raw std lock, not an `OrderedMutex`: it is
/// never acquired while any serve lock is held on the fast path (the
/// relaxed load short-circuits first), and chaos installation is a
/// test/bench harness concern outside the serve lock order.
#[allow(clippy::disallowed_types)]
static PLAN: std::sync::RwLock<Option<Arc<FaultPlan>>> = std::sync::RwLock::new(None);

/// Installs `plan` as the process-global fault plan consulted by the
/// service's internal failpoints until [`uninstall`] (last install
/// wins). Backend faults do not need this: wrap engines in
/// [`ChaosBackend`] instead.
pub fn install(plan: Arc<FaultPlan>) {
    *PLAN.write().unwrap_or_else(PoisonError::into_inner) = Some(plan);
    ENABLED.store(true, Ordering::Release);
}

/// Removes the process-global plan; all internal failpoints return to
/// the single-relaxed-load no-op path.
pub fn uninstall() {
    ENABLED.store(false, Ordering::Release);
    *PLAN.write().unwrap_or_else(PoisonError::into_inner) = None;
}

/// Whether a process-global plan is installed.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Consults the process-global plan's failpoint `fp`;
/// [`FaultAction::None`] when no plan is installed.
pub fn failpoint(fp: Failpoint) -> FaultAction {
    if !ENABLED.load(Ordering::Relaxed) {
        return FaultAction::None;
    }
    let guard = PLAN.read().unwrap_or_else(PoisonError::into_inner);
    match guard.as_ref() {
        Some(plan) => plan.failpoint(fp),
        None => FaultAction::None,
    }
}

/// Sleeps out an injected-latency action; no-op for the others.
/// Returns `true` when the action was a failure trip the caller must
/// now apply.
pub(crate) fn apply_delay(action: FaultAction) -> bool {
    match action {
        FaultAction::None => false,
        FaultAction::Trip => true,
        FaultAction::Sleep(micros) => {
            std::thread::sleep(Duration::from_micros(micros));
            false
        }
    }
}

/// A [`Backend`] wrapper that injects the plan's `backend.*` faults
/// around the inner engine.
///
/// The wrapper is transparent for routing: `name`, `supports`,
/// `cost_hint` and `tolerance` all delegate, so the router costs and
/// filters the chaos-wrapped engine exactly like the real one.
pub struct ChaosBackend<B> {
    inner: B,
    plan: Arc<FaultPlan>,
}

impl<B: Backend> ChaosBackend<B> {
    /// Wraps `inner`, consulting `plan` on every execution.
    pub fn new(inner: B, plan: Arc<FaultPlan>) -> ChaosBackend<B> {
        ChaosBackend { inner, plan }
    }

    /// The shared plan this wrapper consults.
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }
}

impl<B: Backend> Backend for ChaosBackend<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn expectation(&self, job: &ExpectationJob<'_>) -> Result<Estimate, QnsError> {
        // Latency first (delay, then hang), so a plan combining delay
        // and error observes the slow-then-fail ordering a real
        // degrading engine exhibits.
        apply_delay(self.plan.failpoint(Failpoint::BackendDelay));
        apply_delay(self.plan.failpoint(Failpoint::BackendHang));
        if apply_delay(self.plan.failpoint(Failpoint::BackendError)) {
            return Err(QnsError::ExecutionPanicked {
                reason: format!("injected fault: backend.error on `{}`", self.inner.name()),
            });
        }
        #[expect(
            clippy::panic,
            reason = "the injected crash this failpoint exists to raise"
        )]
        if apply_delay(self.plan.failpoint(Failpoint::BackendPanic)) {
            // An injected engine crash: must be contained by the
            // service's catch_unwind harness like any real panic.
            panic!("injected fault: backend.panic on `{}`", self.inner.name());
        }
        self.inner.expectation(job)
    }

    fn supports(&self, job: &ExpectationJob<'_>) -> Result<(), QnsError> {
        self.inner.supports(job)
    }

    fn cost_hint(&self, job: &ExpectationJob<'_>) -> Option<u128> {
        self.inner.cost_hint(job)
    }

    fn tolerance(&self) -> f64 {
        self.inner.tolerance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decisions(plan: &FaultPlan, fp: Failpoint, hits: usize) -> Vec<FaultAction> {
        (0..hits).map(|_| plan.failpoint(fp)).collect()
    }

    #[test]
    fn same_seed_replays_the_same_schedule() {
        let a = FaultPlan::new(42).with_error(Failpoint::BackendError, 300);
        let b = FaultPlan::new(42).with_error(Failpoint::BackendError, 300);
        assert_eq!(
            decisions(&a, Failpoint::BackendError, 200),
            decisions(&b, Failpoint::BackendError, 200)
        );
        assert!(
            a.fired(Failpoint::BackendError) > 0,
            "p=0.3 over 200 hits fires"
        );
        assert_eq!(
            a.fired(Failpoint::BackendError),
            b.fired(Failpoint::BackendError)
        );
    }

    /// The first 64 decisions of every failpoint under seed 42 at
    /// 500‰, as bitmasks (bit `k` = hit `k` tripped), recorded when
    /// failpoints were still string-keyed. A chaos seed must replay the
    /// same schedule across that change, so these may never move.
    #[test]
    fn pinned_seed_42_schedule_is_unchanged() {
        const PINNED: [(Failpoint, u64); N] = [
            (Failpoint::BackendError, 0x2b1b_e783_1e02_e113),
            (Failpoint::BackendPanic, 0x52cd_98bb_b7ca_94cc),
            (Failpoint::BackendDelay, 0x521e_ab87_7f23_c50c),
            (Failpoint::BackendHang, 0xd072_4f43_e3aa_6e8b),
            (Failpoint::CacheProbe, 0xd747_6b5e_0efb_656e),
            (Failpoint::RefineAdvance, 0x20a1_2697_3cd9_21a0),
        ];
        for (fp, mask) in PINNED {
            let plan = FaultPlan::new(42).with_error(fp, 500);
            let expected: Vec<FaultAction> = (0..64)
                .map(|k| {
                    if mask >> k & 1 == 1 {
                        FaultAction::Trip
                    } else {
                        FaultAction::None
                    }
                })
                .collect();
            assert_eq!(decisions(&plan, fp, 64), expected, "{}", fp.name());
        }
        assert_eq!(PINNED.map(|(fp, _)| fp), Failpoint::ALL);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::new(1).with_error(Failpoint::BackendError, 500);
        let b = FaultPlan::new(2).with_error(Failpoint::BackendError, 500);
        assert_ne!(
            decisions(&a, Failpoint::BackendError, 128),
            decisions(&b, Failpoint::BackendError, 128),
            "seeds 1 and 2 agree on 128 coin flips — hash is broken"
        );
    }

    #[test]
    fn failpoints_are_independent_streams() {
        let plan = FaultPlan::new(7)
            .with_error(Failpoint::BackendError, 500)
            .with_error(Failpoint::BackendPanic, 500);
        // Interleaving consultations of one failpoint must not disturb
        // the other's sequence.
        let solo = FaultPlan::new(7).with_error(Failpoint::BackendError, 500);
        let expected = decisions(&solo, Failpoint::BackendError, 64);
        let mut got = Vec::new();
        for _ in 0..64 {
            got.push(plan.failpoint(Failpoint::BackendError));
            let _ = plan.failpoint(Failpoint::BackendPanic);
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn unconfigured_failpoints_never_fire() {
        let plan = FaultPlan::new(9);
        for _ in 0..64 {
            assert_eq!(plan.failpoint(Failpoint::CacheProbe), FaultAction::None);
        }
        assert_eq!(plan.hits(Failpoint::CacheProbe), 64);
        assert_eq!(plan.total_fired(), 0);
    }

    #[test]
    fn delay_rules_yield_sleep_actions() {
        let plan = FaultPlan::new(3).with_delay(Failpoint::BackendDelay, 1000, 5);
        assert_eq!(
            plan.failpoint(Failpoint::BackendDelay),
            FaultAction::Sleep(5)
        );
    }

    #[test]
    fn global_hook_is_inert_until_installed() {
        // Note: global-state tests elsewhere serialize on a lock; this
        // one only asserts the uninstalled default.
        if !is_enabled() {
            assert_eq!(failpoint(Failpoint::CacheProbe), FaultAction::None);
        }
    }

    #[test]
    fn chaos_backend_delegates_metadata() {
        let plan = Arc::new(FaultPlan::new(1));
        let inner = qns_api::ApproxBackend::level(2);
        let wrapped = ChaosBackend::new(inner.clone(), Arc::clone(&plan));
        assert_eq!(wrapped.name(), inner.name());
        assert_eq!(wrapped.tolerance(), inner.tolerance());
    }
}
