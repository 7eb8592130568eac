//! The anytime-serving contract of `Service::submit_refine`:
//!
//! * **Deadline answer** — a tight budget is answered at the deepest
//!   affordable level, with its Theorem-1 bound, having executed *no*
//!   pattern beyond that level (`patterns_done` is exactly the level's
//!   planned pattern count).
//! * **Bitwise escalation** — every streamed level-`l` estimate is
//!   bit-identical to a fresh full run at level `l` (the acceptance
//!   criterion of the subsystem).
//! * **Resume** — resubmitting the same job replays cached per-level
//!   partial sums instead of recomputing them, bit-identically.
//! * **Degradation** — zero/negative/infinite deadlines clamp cleanly;
//!   `NaN` is rejected; refine traffic never pollutes the result cache.
//! * **Cancellation** — explicit cancel and handle drop both stop the
//!   escalation and are visible in the stats.

// The raw std locks below are test-harness gates that no serve code
// ever acquires, so they sit outside the serve lock ranks that
// `crates/serve/clippy.toml` enforces for the crate itself.
#![allow(clippy::disallowed_types)]

use qns_api::{ApproxBackend, ApproxOptions, Backend, Estimate, ExpectationJob, QnsError};
use qns_circuit::generators::ghz;
use qns_core::bounds;
use qns_noise::{channels, NoisyCircuit};
use qns_serve::{JobSpec, RefineRequest, Route, Service, ServiceBuilder, SharedBackend};
use std::sync::{Arc, Condvar, Mutex};

/// 4 noise sites: per-level pattern costs 1, 12, 54, 108, 81.
fn spec() -> JobSpec {
    JobSpec::zeros(NoisyCircuit::inject_random(
        ghz(3),
        &channels::depolarizing(5e-3),
        4,
        13,
    ))
}

/// The same circuit with thermal-relaxation sites, whose Kraus rank is
/// 3: a level runs `C(N,u)·2^u` patterns, fewer than the Theorem-1
/// count `C(N,u)·3^u` that admission prices. At rank 4 the two agree,
/// so only this input tells them apart.
fn thermal_spec() -> JobSpec {
    let spec = JobSpec::zeros(NoisyCircuit::inject_random(
        ghz(3),
        &channels::thermal_relaxation(30.0, 40.0, 25.0),
        4,
        13,
    ));
    assert_eq!(qns_core::site_ranks(spec.noisy()), vec![3; 4]);
    spec
}

fn n_sites(spec: &JobSpec) -> usize {
    spec.noisy().noise_count()
}

#[test]
fn tight_budget_answers_early_and_escalations_match_fresh_runs_bitwise() {
    for spec in [spec(), thermal_spec()] {
        let service = ServiceBuilder::new().workers(1).build();
        let n = n_sites(&spec);

        // Budget covers exactly levels 0..=1 (1 + 3n = 13 patterns).
        let req = RefineRequest::new().with_pattern_budget(bounds::planned_patterns(n, 1));
        let handle = service.submit_refine(&spec, &req).unwrap();
        assert_eq!(handle.first_level(), 1);
        assert_eq!(handle.final_level(), n);

        // The deadline answer arrives at level 1 with its Theorem-1
        // bound, and `patterns_done` — the rank-aware count of levels
        // 0..=1 — proves no level-2 pattern was executed for it.
        let first = handle.wait_first().unwrap();
        assert_eq!(first.partial.level, 1);
        assert_eq!(
            first.partial.patterns_done as u128,
            bounds::planned_patterns_for_ranks(&qns_core::site_ranks(spec.noisy()), 1)
        );
        assert!(first.estimate.error_bound.is_some());
        assert_eq!(first.estimate.level, Some(1));
        assert!(!first.estimate.is_exact());

        // Every escalated level is bit-identical to a fresh full run at
        // that level under the same options.
        for level in 0..=n {
            let update = handle.wait_level(level).unwrap();
            let direct = ApproxBackend::level(level)
                .expectation(&spec.job())
                .unwrap();
            assert_eq!(
                update.estimate.value.to_bits(),
                direct.value.to_bits(),
                "level {level} must match a fresh run bitwise"
            );
            assert_eq!(update.estimate.error_bound, direct.error_bound);
        }

        // The final update carries the full sum, exactly.
        let last = handle.wait_final().unwrap();
        assert_eq!(last.partial.level, n);
        assert!(last.estimate.is_exact());

        // Theorem-1 bounds tighten monotonically across the stream.
        let updates = handle.updates();
        assert_eq!(updates.len(), n + 1);
        for pair in updates.windows(2) {
            assert!(pair[1].partial.theorem1_bound <= pair[0].partial.theorem1_bound);
        }
        // Zero up to the fp residue of the bound's difference of
        // near-equal products.
        assert!(updates[n].partial.theorem1_bound <= 1e-9);
    }
}

#[test]
fn resubmission_resumes_from_the_partial_sum_cache_bitwise() {
    for spec in [spec(), thermal_spec()] {
        let service = ServiceBuilder::new().workers(1).build();
        let n = n_sites(&spec);

        // First pass computes everything fresh.
        let fresh = service.submit_refine(&spec, &RefineRequest::new()).unwrap();
        let fresh_updates = {
            fresh.wait_final().unwrap();
            fresh.updates()
        };
        assert!(fresh_updates.iter().all(|u| !u.from_cache));

        // Second pass: even a zero pattern budget affords the final
        // level, because every level replays for free from the cache.
        let resumed = service
            .submit_refine(&spec, &RefineRequest::new().with_pattern_budget(0))
            .unwrap();
        assert_eq!(resumed.first_level(), n, "cached levels are free");
        let resumed_updates = {
            resumed.wait_final().unwrap();
            resumed.updates()
        };
        assert_eq!(resumed_updates.len(), n + 1);
        for (a, b) in fresh_updates.iter().zip(&resumed_updates) {
            assert!(b.from_cache);
            assert_eq!(
                a.estimate.value.to_bits(),
                b.estimate.value.to_bits(),
                "resumed level {} must be bit-identical",
                b.partial.level
            );
        }

        let stats = service.stats();
        assert_eq!(stats.refinements, 2);
        assert_eq!(stats.partial_cache.hits, 1, "second run resumed");
        assert_eq!(stats.partial_cache.misses, 1, "first run found nothing");
        assert_eq!(stats.refine_levels_from_cache, (n + 1) as u64);
        let fresh_levels: u64 = stats.refine_levels_completed.values().sum();
        assert_eq!(fresh_levels, (n + 1) as u64, "each level computed once");
        assert!(stats.partial_cache_hit_rate() > 0.0);
    }
}

#[test]
fn degenerate_budgets_clamp_to_the_cheapest_level_and_nan_is_rejected() {
    let spec = spec();
    let n = n_sites(&spec);

    let first_level_for = |req: &RefineRequest| {
        let service = ServiceBuilder::new().workers(1).build();
        let handle = service.submit_refine(&spec, req).unwrap();
        let first = handle.wait_first().unwrap();
        assert_eq!(first.partial.level, handle.first_level());
        handle.first_level()
    };

    // Zero, negative and zero-pattern budgets degrade to level 0 —
    // never a panic, never a busy loop, and the answer still carries
    // its bound.
    assert_eq!(
        first_level_for(&RefineRequest::new().with_deadline_secs(0.0)),
        0
    );
    assert_eq!(
        first_level_for(&RefineRequest::new().with_deadline_secs(-7.5)),
        0
    );
    assert_eq!(
        first_level_for(&RefineRequest::new().with_pattern_budget(0)),
        0
    );
    // An unbounded deadline answers at the final level directly.
    assert_eq!(
        first_level_for(&RefineRequest::new().with_deadline_secs(f64::INFINITY)),
        n
    );

    // NaN deadlines are a clean error at submission.
    let service = ServiceBuilder::new().workers(1).build();
    let err = service
        .submit_refine(&spec, &RefineRequest::new().with_deadline_secs(f64::NAN))
        .unwrap_err();
    assert!(matches!(err, QnsError::InvalidJob { .. }));

    // A max_level cap stops the escalation early, truncated estimate
    // and bound intact.
    let handle = service
        .submit_refine(&spec, &RefineRequest::new().with_max_level(2))
        .unwrap();
    let last = handle.wait_final().unwrap();
    assert_eq!(last.partial.level, 2);
    assert!(!last.estimate.is_exact());
    assert!(last.partial.theorem1_bound > 0.0);

    // refine options whose term budget cannot afford even level 0 are
    // a clean TermBudgetExceeded at submission.
    let starved = ServiceBuilder::new()
        .workers(1)
        .refine_options(ApproxOptions::default().with_max_terms(0))
        .build();
    assert!(matches!(
        starved.submit_refine(&spec, &RefineRequest::new()),
        Err(QnsError::TermBudgetExceeded { .. })
    ));

    // A term budget that only affords level 1 caps the final level.
    let capped = ServiceBuilder::new()
        .workers(1)
        .refine_options(ApproxOptions::default().with_max_terms(bounds::planned_patterns(n, 1)))
        .build();
    let handle = capped.submit_refine(&spec, &RefineRequest::new()).unwrap();
    assert_eq!(handle.final_level(), 1);
    assert_eq!(handle.wait_final().unwrap().partial.level, 1);
}

#[test]
fn refinements_and_one_shot_submissions_never_share_caches() {
    // Regression for the fingerprint audit: the partial-sum cache keys
    // are domain-separated from the result-cache keys, and refine
    // results are never inserted into the result cache — so a job
    // refined to the full level must still *execute* when submitted
    // normally, and vice versa.
    let service = ServiceBuilder::new().workers(1).build();
    let spec = spec();

    let refined = service
        .submit_refine(&spec, &RefineRequest::new())
        .unwrap()
        .wait_final()
        .unwrap();
    assert!(refined.estimate.is_exact());

    let est = service
        .submit_routed(&spec, Route::Fixed("approx"))
        .unwrap()
        .wait()
        .unwrap();
    let stats = service.stats();
    assert_eq!(stats.executed, 1, "the one-shot job really executed");
    assert_eq!(
        stats.cache_hits, 0,
        "refine results must not answer submits"
    );
    assert_eq!(est.backend, "approx");

    // And the reverse: a refinement after a one-shot run still
    // computes its levels fresh (the result cache holds whole
    // estimates, not per-level sums — and this job's sums are already
    // in the partial cache from the first refinement, so use a
    // different observable to prove the point).
    let n = spec.noisy().n_qubits();
    let other = JobSpec::new(
        spec.noisy().clone(),
        qns_api::InitialState::zeros(n),
        qns_api::Observable::basis(n, 1),
    )
    .unwrap();
    service.submit(&other).unwrap().wait().unwrap();
    let before = service
        .stats()
        .refine_levels_completed
        .values()
        .sum::<u64>();
    service
        .submit_refine(&other, &RefineRequest::new())
        .unwrap()
        .wait_final()
        .unwrap();
    let after = service
        .stats()
        .refine_levels_completed
        .values()
        .sum::<u64>();
    assert!(after > before, "the refinement computed fresh levels");
}

/// A backend that blocks until released — pins the sole worker so a
/// queued refinement provably has not started yet.
struct GateBackend {
    inner: ApproxBackend,
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl GateBackend {
    fn new(gate: Arc<(Mutex<bool>, Condvar)>) -> Self {
        GateBackend {
            inner: ApproxBackend::level(1),
            gate,
        }
    }

    fn open(gate: &Arc<(Mutex<bool>, Condvar)>) {
        let (lock, cv) = &**gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }
}

impl Backend for GateBackend {
    fn name(&self) -> &'static str {
        "gate"
    }

    fn expectation(&self, job: &ExpectationJob<'_>) -> Result<Estimate, QnsError> {
        let (lock, cv) = &*self.gate;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cv.wait(open).unwrap();
        }
        drop(open);
        self.inner.expectation(job)
    }
}

fn wait_refines_drained(service: &Service) {
    for _ in 0..500 {
        if service.stats().refine_active == 0 {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("refinement never drained: {:?}", service.stats());
}

#[test]
fn explicit_cancel_stops_the_refinement_before_it_starts() {
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let service = ServiceBuilder::new()
        .workers(1)
        .with_engine(Arc::new(GateBackend::new(Arc::clone(&gate))) as SharedBackend)
        .build();
    let spec = spec();

    // Pin the sole worker, queue the refinement behind it, cancel.
    let pinned = service.submit_routed(&spec, Route::Fixed("gate")).unwrap();
    let handle = service.submit_refine(&spec, &RefineRequest::new()).unwrap();
    handle.cancel();
    GateBackend::open(&gate);
    pinned.wait().unwrap();

    // The refinement stopped before computing any level.
    match handle.wait_final() {
        Err(QnsError::InvalidJob { reason }) => {
            assert!(reason.contains("cancelled"), "unexpected reason: {reason}")
        }
        other => panic!("expected a cancellation error, got {other:?}"),
    }
    assert!(handle.is_done());
    assert!(handle.latest().is_none());

    wait_refines_drained(&service);
    let stats = service.stats();
    assert_eq!(stats.refine_cancelled, 1);
    assert_eq!(stats.refine_levels_completed.values().sum::<u64>(), 0);
    assert!(stats.refine_high_water >= 1);
    assert_eq!(
        stats.partial_cache.misses, 0,
        "a stopped job probes nothing"
    );
}

#[test]
fn dropping_every_handle_cancels_the_refinement() {
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let service = ServiceBuilder::new()
        .workers(1)
        .with_engine(Arc::new(GateBackend::new(Arc::clone(&gate))) as SharedBackend)
        .build();
    let spec = spec();

    let pinned = service.submit_routed(&spec, Route::Fixed("gate")).unwrap();
    let handle = service.submit_refine(&spec, &RefineRequest::new()).unwrap();
    drop(handle); // the client walked away
    GateBackend::open(&gate);
    pinned.wait().unwrap();

    wait_refines_drained(&service);
    let stats = service.stats();
    assert_eq!(stats.refine_cancelled, 1, "abandoned refinement cancelled");
    assert_eq!(stats.refine_levels_completed.values().sum::<u64>(), 0);
    assert_eq!(
        stats.partial_cache.misses, 0,
        "a stopped job probes nothing"
    );
}
