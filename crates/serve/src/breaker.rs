//! Per-engine circuit breakers for the routing layer.
//!
//! A breaker tracks one engine's recent outcomes in a sliding bit
//! window and walks the classic three-state machine:
//!
//! * **Closed** — requests flow; failures shift into the window. When
//!   the window holds ≥ `max_failures` failure bits, the breaker
//!   *opens*.
//! * **Open** — [`CircuitBreaker::allow`] refuses the engine (the
//!   router skips it) until `cooldown_micros` of service-clock time
//!   has passed, then exactly one caller wins the transition to …
//! * **Half-open** — a single trial request is admitted. Success
//!   closes the breaker (window cleared); failure re-opens it and the
//!   cooldown restarts.
//!
//! The implementation is atomics-only (no locks): `allow` is called
//! inside the router on every submission, and the state machine must
//! stay callable from any thread without joining the serve lock
//! order. Time is a *parameter* (`now_micros` on the service clock),
//! not a clock read, so breakers are deterministic under test and the
//! module stays off the wall clock.
//!
//! State transitions mirror into the observability registry when
//! handles are attached: `qns_serve_breaker_state{backend=…}` carries
//! the numeric state (0 = closed, 1 = half-open, 2 = open; the gauge's
//! high-water mark records whether an engine ever tripped) and
//! `qns_serve_breaker_opens_total{backend=…}` counts open
//! transitions.

use qns_obs::{Counter, Gauge};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// The three breaker states, in escalation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow normally.
    Closed,
    /// One trial request is probing a cooled-down engine.
    HalfOpen,
    /// The engine is refused until its cooldown elapses.
    Open,
}

const CLOSED: u8 = 0;
const HALF_OPEN: u8 = 1;
const OPEN: u8 = 2;

/// Tuning for one [`CircuitBreaker`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Outcomes remembered in the sliding window (capped at 64 — one
    /// bit per outcome).
    pub window: u32,
    /// Failure bits within the window that trip the breaker open.
    pub max_failures: u32,
    /// Service-clock microseconds an open breaker waits before
    /// admitting a half-open trial.
    pub cooldown_micros: u64,
}

impl Default for BreakerPolicy {
    /// Conservative default: 3 failures among the last 8 outcomes trip
    /// the breaker, trials resume after 50 ms. Only misbehaving
    /// engines ever notice it exists.
    fn default() -> BreakerPolicy {
        BreakerPolicy {
            window: 8,
            max_failures: 3,
            cooldown_micros: 50_000,
        }
    }
}

/// One engine's breaker; see the module docs for the state machine.
#[derive(Debug)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    state: AtomicU8,
    /// Sliding outcome window, newest outcome in bit 0, failure = 1.
    history: AtomicU64,
    /// Service-clock micros of the most recent open transition.
    opened_at: AtomicU64,
    opens: AtomicU64,
    state_gauge: Gauge,
    opens_counter: Counter,
}

impl CircuitBreaker {
    /// A closed breaker under `policy`.
    pub fn new(policy: BreakerPolicy) -> CircuitBreaker {
        CircuitBreaker {
            policy,
            state: AtomicU8::new(CLOSED),
            history: AtomicU64::new(0),
            opened_at: AtomicU64::new(0),
            opens: AtomicU64::new(0),
            state_gauge: Gauge::detached(),
            opens_counter: Counter::detached(),
        }
    }

    /// Mirrors state transitions into registry handles.
    #[must_use]
    pub fn with_metrics(mut self, state_gauge: Gauge, opens_counter: Counter) -> CircuitBreaker {
        self.state_gauge = state_gauge;
        self.opens_counter = opens_counter;
        self
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        match self.state.load(Ordering::Acquire) {
            HALF_OPEN => BreakerState::HalfOpen,
            OPEN => BreakerState::Open,
            _ => BreakerState::Closed,
        }
    }

    /// Total open transitions over the breaker's lifetime.
    pub fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }

    fn window_mask(&self) -> u64 {
        let w = self.policy.window.clamp(1, 64);
        if w == 64 {
            u64::MAX
        } else {
            (1u64 << w) - 1
        }
    }

    fn transition(&self, to: u8) {
        self.state.store(to, Ordering::Release);
        self.state_gauge.set(i64::from(to));
    }

    /// Whether the router may *consider* this engine at service-clock
    /// time `now_micros`. Non-mutating by design: the router probes
    /// every engine while picking the cheapest, and a probe must not
    /// consume the half-open trial slot of an engine that is never
    /// actually selected. The selected engine then calls
    /// [`CircuitBreaker::begin_attempt`], which performs the
    /// open → half-open transition.
    pub fn candidate(&self, now_micros: u64) -> bool {
        match self.state.load(Ordering::Acquire) {
            CLOSED => true,
            OPEN => {
                let opened = self.opened_at.load(Ordering::Acquire);
                now_micros.saturating_sub(opened) >= self.policy.cooldown_micros
            }
            _ => false, // half-open: the trial is already in flight
        }
    }

    /// Marks the start of a request on this engine at service-clock
    /// time `now_micros`. A cooled-down open breaker transitions to
    /// half-open — this request *is* the trial; its outcome (via
    /// [`CircuitBreaker::on_success`] / [`CircuitBreaker::on_failure`])
    /// decides whether the breaker closes or re-opens. All other
    /// states are untouched.
    pub fn begin_attempt(&self, now_micros: u64) {
        if self.state.load(Ordering::Acquire) != OPEN {
            return;
        }
        let opened = self.opened_at.load(Ordering::Acquire);
        if now_micros.saturating_sub(opened) < self.policy.cooldown_micros {
            return;
        }
        // Exactly one caller wins the trial slot; losers proceed as
        // plain requests whose outcomes the open breaker ignores.
        if self
            .state
            .compare_exchange(OPEN, HALF_OPEN, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.state_gauge.set(i64::from(HALF_OPEN));
        }
    }

    /// [`CircuitBreaker::candidate`] and
    /// [`CircuitBreaker::begin_attempt`] fused: admits the request and
    /// claims the half-open trial in one call. Convenient for callers
    /// without a separate consideration phase.
    pub fn allow(&self, now_micros: u64) -> bool {
        match self.state.load(Ordering::Acquire) {
            CLOSED => true,
            OPEN => {
                let opened = self.opened_at.load(Ordering::Acquire);
                if now_micros.saturating_sub(opened) < self.policy.cooldown_micros {
                    return false;
                }
                // Cooldown elapsed: exactly one caller wins the
                // half-open trial slot; the rest keep seeing a
                // not-yet-probed engine.
                let won = self
                    .state
                    .compare_exchange(OPEN, HALF_OPEN, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok();
                if won {
                    self.state_gauge.set(i64::from(HALF_OPEN));
                }
                won
            }
            _ => false, // half-open: the trial is already in flight
        }
    }

    /// Records a successful outcome; closes the breaker from any
    /// state and clears the failure window.
    pub fn on_success(&self) {
        self.history.store(0, Ordering::Relaxed);
        if self.state.load(Ordering::Acquire) != CLOSED {
            self.transition(CLOSED);
        }
    }

    /// Records a failed outcome at service-clock time `now_micros`;
    /// may open the breaker (from closed, via the window threshold) or
    /// re-open it (from a failed half-open trial).
    pub fn on_failure(&self, now_micros: u64) {
        match self.state.load(Ordering::Acquire) {
            HALF_OPEN => self.open(now_micros),
            CLOSED => {
                let mask = self.window_mask();
                let prev = self
                    .history
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |h| {
                        Some(((h << 1) | 1) & mask)
                    })
                    .unwrap_or(0);
                let failures = (((prev << 1) | 1) & mask).count_ones();
                if failures >= self.policy.max_failures.max(1) {
                    self.open(now_micros);
                }
            }
            _ => {
                // Already open: a straggler failure from a request
                // admitted before the trip; the cooldown stands.
            }
        }
    }

    fn open(&self, now_micros: u64) {
        self.opened_at.store(now_micros, Ordering::Release);
        self.transition(OPEN);
        self.opens.fetch_add(1, Ordering::Relaxed);
        self.opens_counter.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tripped(b: &CircuitBreaker, now: u64, n: u32) {
        for _ in 0..n {
            b.on_failure(now);
        }
    }

    #[test]
    fn opens_after_window_threshold_and_recloses_after_cooldown() {
        let b = CircuitBreaker::new(BreakerPolicy {
            window: 8,
            max_failures: 3,
            cooldown_micros: 100,
        });
        assert!(b.allow(0));
        tripped(&b, 10, 2);
        assert_eq!(b.state(), BreakerState::Closed, "below threshold");
        b.on_failure(10);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 1);
        assert!(!b.allow(50), "cooldown not elapsed");
        assert!(b.allow(150), "cooldown elapsed: half-open trial admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow(150), "only one trial in flight");
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(151));
    }

    #[test]
    fn failed_trial_reopens_and_restarts_cooldown() {
        let b = CircuitBreaker::new(BreakerPolicy {
            window: 4,
            max_failures: 2,
            cooldown_micros: 100,
        });
        tripped(&b, 0, 2);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow(120));
        b.on_failure(120);
        assert_eq!(b.state(), BreakerState::Open, "failed trial reopens");
        assert_eq!(b.opens(), 2);
        assert!(!b.allow(200), "cooldown restarted from the trial failure");
        assert!(b.allow(230));
    }

    #[test]
    fn successes_slide_failures_out_of_the_window() {
        let b = CircuitBreaker::new(BreakerPolicy {
            window: 4,
            max_failures: 3,
            cooldown_micros: 100,
        });
        for _ in 0..8 {
            b.on_failure(0);
            b.on_success();
        }
        assert_eq!(
            b.state(),
            BreakerState::Closed,
            "interleaved successes keep the window below threshold"
        );
        assert_eq!(b.opens(), 0);
    }

    #[test]
    fn candidate_is_non_mutating_and_begin_attempt_claims_the_trial() {
        let b = CircuitBreaker::new(BreakerPolicy {
            window: 4,
            max_failures: 2,
            cooldown_micros: 100,
        });
        tripped(&b, 0, 2);
        assert!(!b.candidate(50), "cooldown not elapsed");
        // Repeated candidacy checks after cooldown never consume the
        // trial slot — the router probes all engines while choosing.
        assert!(b.candidate(150));
        assert!(b.candidate(150));
        assert_eq!(b.state(), BreakerState::Open, "candidate() mutates nothing");
        b.begin_attempt(150);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.candidate(150), "trial in flight: no more candidates");
        // begin_attempt on non-open states is a no-op.
        b.begin_attempt(150);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn metrics_mirror_transitions() {
        let gauge = Gauge::detached();
        let opens = Counter::detached();
        let b = CircuitBreaker::new(BreakerPolicy {
            window: 2,
            max_failures: 1,
            cooldown_micros: 10,
        })
        .with_metrics(gauge.clone(), opens.clone());
        b.on_failure(0);
        assert_eq!(opens.get(), 1);
        assert!(b.allow(20));
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(opens.get(), 1);
    }
}
