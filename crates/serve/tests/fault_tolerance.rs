//! The fault-tolerance contract of the serving layer, exercised under
//! deterministic (seeded, replayable) chaos:
//!
//! * **Exactly-once resolution** — under any seeded schedule of
//!   injected errors, panics and delays, every accepted handle
//!   resolves exactly once, no worker dies permanently, and the
//!   single-flight table ends empty.
//! * **Replay** — the same chaos seed produces bit-identical results.
//! * **Retry/failover** — retryable failures re-route to the
//!   next-cheapest feasible engine; circuit breakers open under
//!   sustained failure and re-close after their cooldown.
//! * **Timeouts** — the deadline watchdog resolves handles of hung
//!   backends with `QnsError::Timeout`; refinements cancel
//!   cooperatively and keep their published levels.
//! * **Load shedding / degradation** — admission control sheds with
//!   `QnsError::Overloaded` and degrades refinements to shallower
//!   first levels whose Theorem-1-bounded answers stay bit-identical
//!   to fresh runs at the served level.
//! * **EWMA guard** — fault-stalled refinement levels never poison the
//!   deadline-conversion throughput estimate.
//!
//! With no fault plan in play, results stay byte-identical to an
//! unchaosed service (the zero-cost contract).

// The raw std locks below are test-harness gates that no serve code
// ever acquires, so they sit outside the serve lock ranks that
// `crates/serve/clippy.toml` enforces for the crate itself.
#![allow(clippy::disallowed_types)]

use qns_api::{ApproxBackend, Backend, Estimate, ExpectationJob, QnsError};
use qns_circuit::generators::ghz;
use qns_noise::{channels, NoisyCircuit};
use qns_serve::{
    faults, AdmissionPolicy, BreakerPolicy, BreakerState, ChaosBackend, Failpoint, FaultPlan,
    JobSpec, RefineRequest, RetryPolicy, Route, ServiceBuilder, SharedBackend, TimeoutPolicy,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Serializes tests that install the process-global fault plan (the
/// per-instance `ChaosBackend` plans need no such care).
static GLOBAL_PLAN: Mutex<()> = Mutex::new(());

fn spec_with_observable(bits: usize) -> JobSpec {
    let noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(5e-3), 3, 11);
    let n = noisy.n_qubits();
    JobSpec::new(
        noisy,
        qns_api::InitialState::zeros(n),
        qns_api::Observable::basis(n, bits % (1 << n)),
    )
    .unwrap()
}

fn refine_spec() -> JobSpec {
    JobSpec::zeros(NoisyCircuit::inject_random(
        ghz(3),
        &channels::depolarizing(5e-3),
        4,
        13,
    ))
}

/// A backend that fails its first `failures` executions with a
/// retryable error, then succeeds by delegating to an `ApproxBackend`.
struct FlakyBackend {
    inner: ApproxBackend,
    failures: usize,
    calls: AtomicUsize,
    cost: u128,
}

impl FlakyBackend {
    fn new(failures: usize, cost: u128) -> FlakyBackend {
        FlakyBackend {
            inner: ApproxBackend::level(1),
            failures,
            calls: AtomicUsize::new(0),
            cost,
        }
    }
}

impl Backend for FlakyBackend {
    fn name(&self) -> &'static str {
        "flaky"
    }
    fn expectation(&self, job: &ExpectationJob<'_>) -> Result<Estimate, QnsError> {
        if self.calls.fetch_add(1, Ordering::SeqCst) < self.failures {
            return Err(QnsError::ExecutionPanicked {
                reason: "flaky backend failing on purpose".into(),
            });
        }
        self.inner.expectation(job)
    }
    fn cost_hint(&self, _job: &ExpectationJob<'_>) -> Option<u128> {
        Some(self.cost)
    }
}

/// A backend that sleeps long enough to overrun any reasonable test
/// deadline before answering.
struct HangingBackend {
    sleep_micros: u64,
}

impl Backend for HangingBackend {
    fn name(&self) -> &'static str {
        "hanger"
    }
    fn expectation(&self, job: &ExpectationJob<'_>) -> Result<Estimate, QnsError> {
        std::thread::sleep(std::time::Duration::from_micros(self.sleep_micros));
        ApproxBackend::level(1).expectation(job)
    }
    fn cost_hint(&self, _job: &ExpectationJob<'_>) -> Option<u128> {
        Some(1)
    }
}

fn chaos_engines(plan: &Arc<FaultPlan>) -> Vec<SharedBackend> {
    vec![
        Arc::new(ChaosBackend::new(ApproxBackend::level(1), Arc::clone(plan))),
        Arc::new(ChaosBackend::new(
            qns_api::DensityBackend::new(),
            Arc::clone(plan),
        )),
        Arc::new(ChaosBackend::new(
            qns_api::TnetBackend::new(),
            Arc::clone(plan),
        )),
    ]
}

#[test]
fn without_a_plan_chaos_wrapping_changes_nothing() {
    // The full fault-tolerance stack enabled, but an empty plan: every
    // result must be byte-identical to the plain pre-fault service.
    let empty = Arc::new(FaultPlan::new(0));
    let chaosed = ServiceBuilder::new()
        .workers(2)
        .engines(chaos_engines(&empty))
        .retry_policy(RetryPolicy::default())
        .timeout_policy(TimeoutPolicy::default())
        .admission_policy(AdmissionPolicy {
            degrade_pressure: u128::MAX,
            shed_pressure: u128::MAX,
        })
        .build();
    // Same engine subset, unwrapped, so Auto routes identically.
    let plain = ServiceBuilder::new()
        .workers(2)
        .engines(vec![
            Arc::new(ApproxBackend::level(1)),
            Arc::new(qns_api::DensityBackend::new()),
            Arc::new(qns_api::TnetBackend::new()),
        ])
        .build();
    for bits in 0..6 {
        let spec = spec_with_observable(bits);
        let a = chaosed.submit(&spec).unwrap().wait().unwrap();
        let b = plain.submit(&spec).unwrap().wait().unwrap();
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        assert_eq!(a.backend, b.backend);
    }
    assert_eq!(empty.total_fired(), 0);
    let stats = chaosed.stats();
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.timeouts, 0);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.breaker_opens, 0);
}

#[test]
fn seeded_chaos_resolves_every_handle_exactly_once() {
    for seed in [1u64, 7, 42, 1234] {
        let plan = Arc::new(
            FaultPlan::new(seed)
                .with_error(Failpoint::BackendError, 350)
                .with_error(Failpoint::BackendPanic, 150)
                .with_delay(Failpoint::BackendDelay, 200, 300),
        );
        let service = ServiceBuilder::new()
            .workers(2)
            .cache_capacity(0) // every submission exercises execution
            .engines(chaos_engines(&plan))
            .retry_policy(RetryPolicy {
                max_attempts: 4,
                base_backoff_micros: 100,
                max_backoff_micros: 400,
                seed,
            })
            .breaker_policy(BreakerPolicy {
                window: 8,
                max_failures: 4,
                cooldown_micros: 2_000,
            })
            .build();
        let handles: Vec<_> = (0..24)
            .map(|bits| service.submit(&spec_with_observable(bits)).unwrap())
            .collect();
        for h in &handles {
            // Every handle resolves — success or a terminal error, but
            // never a hang, whatever the schedule injected.
            let _ = h.wait();
            // …and exactly once: the resolved value is stable.
            assert!(h.try_get().is_some());
        }
        assert!(plan.total_fired() > 0, "seed {seed} injected nothing");
        let stats = service.stats();
        assert_eq!(stats.inflight, 0, "seed {seed}: leaked flight entries");
        assert_eq!(stats.submitted, 24);
        // Injected errors and panics must reach the recovery machinery
        // (seed 1 fires only a delay, which no policy here reacts to).
        let failures = plan.fired(Failpoint::BackendError) + plan.fired(Failpoint::BackendPanic);
        if failures > 0 {
            assert!(
                stats.retries + stats.timeouts > 0,
                "seed {seed}: {failures} injected failures never reached the recovery machinery"
            );
        }
        // Stats reconcile with the metrics registry they view.
        let snap = service.metrics_snapshot();
        assert_eq!(
            stats.retries,
            snap.counter_value("qns_serve_retries_total").unwrap_or(0)
        );
        assert_eq!(
            stats.failovers,
            snap.counter_value("qns_serve_failovers_total").unwrap_or(0)
        );
        // No worker died permanently: a clean job still executes even
        // though panics were injected (catch_unwind containment).
        let clean = ServiceBuilder::new().workers(1).build();
        drop(clean);
        let again = service.submit(&spec_with_observable(1000)).unwrap();
        let _ = again.wait();
        assert!(again.try_get().is_some(), "seed {seed}: pool died");
        service.shutdown();
    }
}

#[test]
fn same_seed_replays_bit_identically() {
    let run = |seed: u64| -> Vec<Result<u64, String>> {
        let plan = Arc::new(FaultPlan::new(seed).with_error(Failpoint::BackendError, 400));
        // One worker: queue order, failpoint hit order and backoff
        // jitter are then all pure functions of the seed.
        let service = ServiceBuilder::new()
            .workers(1)
            .cache_capacity(0)
            .engines(chaos_engines(&plan))
            .retry_policy(RetryPolicy {
                max_attempts: 3,
                base_backoff_micros: 50,
                max_backoff_micros: 200,
                seed,
            })
            .build();
        (0..12)
            .map(|bits| {
                service
                    .submit(&spec_with_observable(bits))
                    .unwrap()
                    .wait()
                    .map(|e| e.value.to_bits())
                    .map_err(|e| e.to_string())
            })
            .collect()
    };
    assert_eq!(run(42), run(42), "same seed must replay identically");
}

#[test]
fn retryable_failures_fail_over_to_the_next_cheapest_engine() {
    // `flaky` is the cheapest engine and always fails; Auto + retry
    // must fail over to the real engine and answer bit-identically to
    // running it directly.
    let service = ServiceBuilder::new()
        .workers(1)
        .engines(vec![
            Arc::new(FlakyBackend::new(usize::MAX, 1)),
            Arc::new(ApproxBackend::level(1)),
        ])
        .retry_policy(RetryPolicy {
            max_attempts: 2,
            base_backoff_micros: 0, // retry immediately
            max_backoff_micros: 0,
            seed: 0,
        })
        .build();
    let spec = spec_with_observable(3);
    let est = service.submit(&spec).unwrap().wait().unwrap();
    let direct = ApproxBackend::level(1).expectation(&spec.job()).unwrap();
    assert_eq!(est.value.to_bits(), direct.value.to_bits());
    assert_eq!(est.backend, direct.backend);
    let stats = service.stats();
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.failovers, 1);
    assert_eq!(stats.executed, 2, "both attempts executed a backend");
}

#[test]
fn breakers_open_under_sustained_failure_and_reclose_after_cooldown() {
    let service = ServiceBuilder::new()
        .workers(1)
        .engines(vec![
            Arc::new(FlakyBackend::new(3, 1)),
            Arc::new(ApproxBackend::level(1)),
        ])
        .breaker_policy(BreakerPolicy {
            window: 4,
            max_failures: 3,
            cooldown_micros: 20_000,
        })
        .build();
    // Three pinned failures trip the flaky engine's breaker…
    for bits in 0..3 {
        let handle = service
            .submit_routed(&spec_with_observable(bits), Route::Fixed("flaky"))
            .unwrap();
        assert!(handle.wait().is_err());
    }
    let state_of = |service: &qns_serve::Service, name: &str| {
        service
            .breaker_states()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
            .unwrap()
    };
    assert_eq!(state_of(&service, "flaky"), BreakerState::Open);
    assert_eq!(service.stats().breaker_opens, 1);
    // …Auto routing now avoids it even though it is cheapest…
    let routed = service
        .submit(&spec_with_observable(50))
        .unwrap()
        .wait()
        .unwrap();
    assert_ne!(
        routed.backend, "flaky",
        "open breaker must be routed around"
    );
    // …and after the cooldown one successful trial re-closes it (the
    // flaky backend has exhausted its scripted failures by now).
    std::thread::sleep(std::time::Duration::from_millis(30));
    let trial = service
        .submit_routed(&spec_with_observable(51), Route::Fixed("flaky"))
        .unwrap()
        .wait();
    assert!(trial.is_ok(), "half-open trial should succeed: {trial:?}");
    assert_eq!(state_of(&service, "flaky"), BreakerState::Closed);
}

#[test]
fn the_watchdog_resolves_hung_backends_with_timeout() {
    let service = ServiceBuilder::new()
        .workers(1)
        .engines(vec![Arc::new(HangingBackend {
            sleep_micros: 300_000,
        })])
        .timeout_policy(TimeoutPolicy {
            base_micros: 15_000,
            micros_per_kilocost: 0,
            check_interval_micros: 1_000,
        })
        .build();
    let handle = service.submit(&spec_with_observable(0)).unwrap();
    match handle.wait() {
        Err(QnsError::Timeout { after_micros }) => assert_eq!(after_micros, 15_000),
        other => panic!("expected a timeout, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.timeouts, 1);
    assert_eq!(
        stats.inflight, 0,
        "the watchdog retires the timed-out flight entry"
    );
    // The handle resolved exactly once; the worker's late result is
    // dropped, and shutdown drains cleanly (no stranded state).
    assert!(handle.try_get().unwrap().is_err());
    service.shutdown();
}

#[test]
fn a_timed_out_refinement_cancels_cooperatively() {
    let _guard = GLOBAL_PLAN.lock().unwrap_or_else(PoisonError::into_inner);
    // Every refinement level stalls 60 ms; a 20 ms deadline must fire
    // before level 0 lands, resolving the stream with Timeout.
    faults::install(Arc::new(FaultPlan::new(5).with_delay(
        Failpoint::RefineAdvance,
        1000,
        60_000,
    )));
    let service = ServiceBuilder::new()
        .workers(1)
        .timeout_policy(TimeoutPolicy {
            base_micros: 20_000,
            micros_per_kilocost: 0,
            check_interval_micros: 1_000,
        })
        .build();
    let handle = service
        .submit_refine(&refine_spec(), &RefineRequest::new())
        .unwrap();
    match handle.wait_final() {
        Err(QnsError::Timeout { .. }) => {}
        other => panic!("expected a refinement timeout, got {other:?}"),
    }
    service.shutdown();
    faults::uninstall();
}

#[test]
fn fault_stalled_levels_never_poison_the_refine_rate_ewma() {
    let _guard = GLOBAL_PLAN.lock().unwrap_or_else(PoisonError::into_inner);
    // Regression: before the guard, a single fault-stalled level fed
    // its (absurdly slow) wall time into the EWMA and every later
    // deadline converted to a near-zero pattern budget.
    faults::install(Arc::new(FaultPlan::new(1).with_delay(
        Failpoint::RefineAdvance,
        1000,
        3_000,
    )));
    let service = ServiceBuilder::new().workers(1).build();
    service
        .submit_refine(&refine_spec(), &RefineRequest::new())
        .unwrap()
        .wait_final()
        .unwrap();
    assert_eq!(
        service.stats().refine_rate_pps,
        0.0,
        "stalled levels must not feed the EWMA"
    );
    faults::uninstall();
    // Clean levels calibrate it as before.
    let clean = JobSpec::zeros(NoisyCircuit::inject_random(
        ghz(4),
        &channels::depolarizing(1e-3),
        3,
        29,
    ));
    service
        .submit_refine(&clean, &RefineRequest::new())
        .unwrap()
        .wait_final()
        .unwrap();
    assert!(service.stats().refine_rate_pps > 0.0);
}

#[test]
fn shutdown_during_backoff_resolves_the_handle() {
    let service = ServiceBuilder::new()
        .workers(1)
        .engines(vec![Arc::new(FlakyBackend::new(usize::MAX, 1))])
        .retry_policy(RetryPolicy {
            max_attempts: 100,
            base_backoff_micros: 500_000, // half a second per backoff
            max_backoff_micros: 500_000,
            seed: 0,
        })
        .build();
    let handle = service.submit(&spec_with_observable(0)).unwrap();
    // Give the worker time to fail the first attempt and enter the
    // backoff sleep, then shut down: the sliced sleep must abort and
    // resolve the handle with the last error — well before the ~50 s
    // the full retry schedule would take.
    std::thread::sleep(std::time::Duration::from_millis(30));
    service.shutdown();
    match handle.try_get() {
        Some(Err(QnsError::ExecutionPanicked { .. })) => {}
        other => panic!("expected the last attempt's error, got {other:?}"),
    }
}

#[test]
fn dropping_the_last_handle_during_retries_leaks_nothing() {
    let service = ServiceBuilder::new()
        .workers(1)
        .engines(vec![Arc::new(FlakyBackend::new(usize::MAX, 1))])
        .retry_policy(RetryPolicy {
            max_attempts: 3,
            base_backoff_micros: 1_000,
            max_backoff_micros: 2_000,
            seed: 0,
        })
        .build();
    drop(service.submit(&spec_with_observable(0)).unwrap());
    // The flight keeps running (and failing) with no waiter; once it
    // exhausts its attempts the table must be empty and the stats must
    // reconcile with the registry.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let stats = service.stats();
        if stats.inflight == 0 {
            assert_eq!(stats.retries, 2, "3 attempts = 2 retries");
            let snap = service.metrics_snapshot();
            assert_eq!(
                snap.counter_value("qns_serve_retries_total").unwrap_or(0),
                2
            );
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "flight entry leaked after handle drop"
        );
        std::thread::yield_now();
    }
    service.shutdown();
}

#[test]
fn admission_control_sheds_with_overloaded() {
    let service = ServiceBuilder::new()
        .workers(1)
        .admission_policy(AdmissionPolicy {
            degrade_pressure: 1,
            shed_pressure: 1, // everything that would queue is shed
        })
        .build();
    let spec = spec_with_observable(0);
    match service.submit(&spec) {
        Err(QnsError::Overloaded { queue_depth }) => assert_eq!(queue_depth, 0),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.submitted, 0, "shed submissions are not accepted");
    assert_eq!(stats.inflight, 0);
}

#[test]
fn degraded_refinements_stay_theorem1_bounded_and_bitwise_correct() {
    let spec = refine_spec();
    let n = spec.noisy().noise_count();
    let service = ServiceBuilder::new()
        .workers(1)
        .admission_policy(AdmissionPolicy {
            degrade_pressure: 1,      // always degraded…
            shed_pressure: u128::MAX, // …never shed
        })
        .build();
    // An unlimited request would normally answer at the final level;
    // under pressure it is admitted at a shallower first level.
    let handle = service.submit_refine(&spec, &RefineRequest::new()).unwrap();
    assert!(
        handle.first_level() < n,
        "degrade_pressure=1 must lower the first level"
    );
    let first = handle.wait_first().unwrap();
    let level = first.partial.level;
    // The degraded answer is worse only in tightness: its value and
    // Theorem-1 error bound are bit-identical to a fresh, unloaded run
    // at the served level.
    let direct = ApproxBackend::level(level)
        .expectation(&spec.job())
        .unwrap();
    assert_eq!(first.estimate.value.to_bits(), direct.value.to_bits());
    assert_eq!(first.estimate.error_bound, direct.error_bound);
    assert!(first.estimate.error_bound.is_some());
    // Escalation past the degraded level still runs to completion.
    let last = handle.wait_final().unwrap();
    assert_eq!(last.partial.level, n);
    assert_eq!(service.stats().degraded, 1);
}
