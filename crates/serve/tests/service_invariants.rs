//! The serving-layer invariants the subsystem is built around:
//!
//! * **Single-flight** — K concurrent submissions of one fingerprint
//!   perform exactly one backend execution, and all K handles observe
//!   a result bit-identical to a direct `Backend::expectation` call.
//! * **Fingerprint stability** — specs built independently from
//!   structurally identical inputs share cache entries.
//! * **LRU semantics** — eviction follows recency through the service,
//!   not just in the cache unit tests.
//! * **Routing safety** — `Route::Auto` never lands on an engine that
//!   reports the job `Unsupported`.
//! * **Spec validation** — `JobSpec::new` on any circuit and any
//!   state returns `Ok` or `SizeMismatch`, never panics.

use proptest::prelude::*;
use qns_api::{
    ApproxBackend, Backend, DensityBackend, Estimate, ExpectationJob, InitialState, Observable,
    QnsError,
};
use qns_circuit::generators::{ghz, hf_vqe, inst_grid, qaoa_grid_random};
use qns_circuit::Circuit;
use qns_linalg::{c64, Complex64};
use qns_noise::{channels, NoisyCircuit};
use qns_serve::{JobSpec, ServiceBuilder, SharedBackend};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A deterministic backend that counts its executions and dawdles a
/// little, so concurrent duplicate submissions genuinely overlap.
struct CountingBackend {
    inner: ApproxBackend,
    executions: Arc<AtomicUsize>,
    delay: std::time::Duration,
}

impl CountingBackend {
    fn new(executions: Arc<AtomicUsize>, delay_ms: u64) -> Self {
        CountingBackend {
            inner: ApproxBackend::level(2),
            executions,
            delay: std::time::Duration::from_millis(delay_ms),
        }
    }
}

impl Backend for CountingBackend {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn expectation(&self, job: &ExpectationJob<'_>) -> Result<Estimate, QnsError> {
        self.executions.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(self.delay);
        self.inner.expectation(job)
    }
}

fn noisy(seed: u64) -> NoisyCircuit {
    NoisyCircuit::inject_random(ghz(4), &channels::depolarizing(1e-3), 2, seed)
}

#[test]
fn concurrent_identical_submissions_execute_exactly_once() {
    const K: usize = 16;
    let executions = Arc::new(AtomicUsize::new(0));
    let engine: SharedBackend = Arc::new(CountingBackend::new(Arc::clone(&executions), 30));
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(4)
            .engines(vec![engine])
            .build(),
    );

    // K threads submit the same (independently rebuilt) job at once.
    let values: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..K)
            .map(|_| {
                let service = Arc::clone(&service);
                scope.spawn(move || {
                    let spec = JobSpec::zeros(noisy(7));
                    service.submit(&spec).unwrap().wait().unwrap()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap().value.to_bits())
            .collect()
    });

    assert_eq!(
        executions.load(Ordering::SeqCst),
        1,
        "single-flight: K concurrent identical jobs, one execution"
    );
    // Every handle saw the same bits as a direct backend call.
    let spec = JobSpec::zeros(noisy(7));
    let direct = ApproxBackend::level(2)
        .expectation(&spec.job())
        .unwrap()
        .value
        .to_bits();
    for v in values {
        assert_eq!(v, direct);
    }

    let stats = service.stats();
    assert_eq!(stats.submitted, K as u64);
    assert_eq!(stats.executed, 1);
    assert_eq!(
        stats.saved_executions(),
        (K - 1) as u64,
        "K−1 submissions served by join or cache: {stats:?}"
    );
}

#[test]
fn distinct_jobs_all_execute_and_agree_with_direct_runs() {
    let service = ServiceBuilder::new().workers(3).build();
    let specs: Vec<JobSpec> = (0..6).map(spec_with_observable).collect();
    let handles: Vec<_> = specs.iter().map(|s| service.submit(s).unwrap()).collect();
    for (spec, handle) in specs.iter().zip(handles) {
        let est = handle.wait().unwrap();
        // Replay on the engine the service reports it used.
        let direct = qns_serve::default_engines()
            .iter()
            .find(|e| e.name() == est.backend)
            .expect("service used a registered engine")
            .expectation(&spec.job())
            .unwrap();
        assert_eq!(est.value.to_bits(), direct.value.to_bits());
    }
    assert_eq!(service.stats().executed, 6);
}

#[test]
fn rebuilt_identical_specs_share_one_cache_entry() {
    let service = ServiceBuilder::new().workers(1).build();
    // Two constructions from scratch — different allocations, same
    // structure, same fingerprint.
    let a = JobSpec::zeros(NoisyCircuit::inject_random(
        qaoa_grid_random(2, 3, 2, 5),
        &channels::amplitude_damping(0.02),
        3,
        9,
    ));
    let b = JobSpec::zeros(NoisyCircuit::inject_random(
        qaoa_grid_random(2, 3, 2, 5),
        &channels::amplitude_damping(0.02),
        3,
        9,
    ));
    assert_eq!(a.fingerprint(), b.fingerprint());

    let first = service.submit(&a).unwrap().wait().unwrap();
    let second = service.submit(&b).unwrap().wait().unwrap();
    assert_eq!(first.value.to_bits(), second.value.to_bits());
    let stats = service.stats();
    assert_eq!(stats.executed, 1, "spec b must be a pure cache hit");
    assert_eq!(stats.cache_hits, 1);
}

/// Specs over one circuit that provably differ: distinct observables.
/// (Distinct injection *seeds* can legitimately land on identical
/// noise placements and thus identical fingerprints.)
fn spec_with_observable(bits: usize) -> JobSpec {
    let circuit = noisy(7);
    let n = circuit.n_qubits();
    JobSpec::new(
        circuit,
        qns_api::InitialState::zeros(n),
        qns_api::Observable::basis(n, bits),
    )
    .unwrap()
}

#[test]
fn lru_eviction_preserves_recently_used_entries_through_the_service() {
    // Capacity 2: submit jobs A, B, re-touch A, then C. B is the LRU
    // victim; A must still answer from cache.
    let service = ServiceBuilder::new().workers(1).cache_capacity(2).build();
    let spec_of = spec_with_observable;

    service.submit(&spec_of(1)).unwrap().wait().unwrap(); // A
    service.submit(&spec_of(2)).unwrap().wait().unwrap(); // B
    service.submit(&spec_of(1)).unwrap().wait().unwrap(); // A again: hit
    service.submit(&spec_of(3)).unwrap().wait().unwrap(); // C evicts B
    let before = service.stats();
    assert_eq!(before.cache_evictions, 1);

    service.submit(&spec_of(1)).unwrap().wait().unwrap(); // A: still cached
    let after_a = service.stats();
    assert_eq!(after_a.executed, before.executed, "A was not re-executed");
    assert_eq!(after_a.cache_hits, before.cache_hits + 1);

    service.submit(&spec_of(2)).unwrap().wait().unwrap(); // B: evicted, re-runs
    let after_b = service.stats();
    assert_eq!(after_b.executed, before.executed + 1, "B was re-executed");
}

#[test]
fn auto_route_skips_engines_that_reject_the_job() {
    // A dense engine that rejects everything, registered FIRST, plus a
    // real engine: Auto must never hand the job to the rejecting one.
    let service = ServiceBuilder::new()
        .workers(1)
        .engines(vec![
            Arc::new(DensityBackend::new().with_max_qubits(1)) as SharedBackend,
            Arc::new(ApproxBackend::level(2)) as SharedBackend,
        ])
        .build();
    let est = service
        .submit(&JobSpec::zeros(noisy(4)))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(est.backend, "approx");
    let stats = service.stats();
    assert_eq!(stats.per_backend.get("density"), None);
    assert_eq!(stats.per_backend["approx"].jobs, 1);
    assert!(stats.per_backend["approx"].seconds >= 0.0);
}

#[test]
fn shutdown_resolves_handles_that_joined_a_backpressured_flight() {
    // Regression: a submitter blocked on queue space owns a flight
    // other submissions can dedup-join; shutting down while it waits
    // must resolve that flight (with the shutdown error), not abandon
    // it — or the joined handles would hang forever.
    let executions = Arc::new(AtomicUsize::new(0));
    let engine: SharedBackend = Arc::new(CountingBackend::new(Arc::clone(&executions), 400));
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(1)
            .queue_capacity(1)
            .engines(vec![engine])
            .build(),
    );

    // Fill the worker (job 0) and the queue (job 1).
    let running = service.submit(&spec_with_observable(0)).unwrap();
    let queued = service.submit(&spec_with_observable(1)).unwrap();
    // Job 2 blocks awaiting queue space; job 2's twin joins its flight.
    let (blocked, joined) = {
        let s1 = Arc::clone(&service);
        let blocked = std::thread::spawn(move || s1.submit(&spec_with_observable(2)));
        // Give the blocked submitter time to register its flight.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let joined = service.submit(&spec_with_observable(2)).unwrap();
        (blocked, joined)
    };

    std::thread::sleep(std::time::Duration::from_millis(100));
    // Signal shutdown while the submitter is (in the usual
    // interleaving) still blocked on queue space.
    service.begin_shutdown();

    // The two accepted jobs completed; the backpressured submission
    // errored — and so did every handle that joined its flight, rather
    // than hanging.
    assert!(running.wait().is_ok());
    assert!(queued.wait().is_ok());
    let blocked = blocked.join().unwrap();
    match blocked {
        // The usual interleaving: still waiting for space at shutdown.
        Err(QnsError::InvalidJob { .. }) => {
            assert!(joined.wait().is_err(), "joined handle must resolve");
        }
        // Scheduling got job 2 queued before shutdown: it then drained.
        Ok(handle) => {
            assert!(handle.wait().is_ok());
            assert!(joined.wait().is_ok());
        }
        Err(e) => panic!("unexpected submit error: {e}"),
    }
}

#[test]
fn refinement_counters_stay_coherent_through_a_mixed_workload() {
    // Satellite invariant: the anytime counters in the stats snapshot
    // must reconcile with each other — fresh + cached level
    // completions account for every published update, the active gauge
    // drains to zero, and refine traffic leaves the one-shot counters
    // untouched.
    let service = ServiceBuilder::new().workers(2).build();
    let spec = JobSpec::zeros(noisy(11));
    let n = spec.noisy().noise_count();

    // One fresh refinement, one resumed, interleaved with one-shots.
    let a = service
        .submit_refine(&spec, &qns_serve::RefineRequest::new())
        .unwrap();
    service
        .submit(&spec_with_observable(5))
        .unwrap()
        .wait()
        .unwrap();
    a.wait_final().unwrap();
    let b = service
        .submit_refine(&spec, &qns_serve::RefineRequest::new())
        .unwrap();
    b.wait_final().unwrap();

    let stats = service.stats();
    assert_eq!(stats.refinements, 2);
    assert_eq!(stats.refine_active, 0, "both refinements drained");
    assert!(stats.refine_high_water >= 1);
    assert_eq!(stats.refine_cancelled, 0);
    // Every level published exactly once fresh (run a) and once from
    // cache (run b).
    let fresh: u64 = stats.refine_levels_completed.values().sum();
    assert_eq!(fresh, (n + 1) as u64);
    assert_eq!(stats.refine_levels_from_cache, (n + 1) as u64);
    // Cache accounting: one miss (a), one hit (b).
    assert_eq!(stats.partial_cache.hits + stats.partial_cache.misses, 2);
    assert_eq!(stats.partial_cache_hit_rate(), 0.5);
    // Refinements aggregate under the "refine" pseudo-backend and do
    // not inflate the one-shot execution counter.
    assert_eq!(stats.per_backend["refine"].jobs, 2);
    assert_eq!(stats.executed, 1, "only the one-shot job executed");
    // submitted counts refinements too.
    assert_eq!(stats.submitted, 3);
}

#[test]
fn queue_high_water_and_backpressure_are_observable() {
    // One worker, tiny queue: the high-water mark must reach the
    // configured bound while submissions keep succeeding (blocking,
    // not failing, when full).
    let service = ServiceBuilder::new().workers(1).queue_capacity(2).build();
    let handles: Vec<_> = (0..8)
        .map(|bits| service.submit(&spec_with_observable(bits)).unwrap())
        .collect();
    for h in handles {
        h.wait().unwrap();
    }
    let stats = service.stats();
    assert!(stats.queue_high_water <= 2, "bounded: {stats:?}");
    assert!(stats.queue_high_water >= 1);
    assert_eq!(stats.executed, 8);
}

/// Qubit counts: small, and past every dense cap and `usize` width.
const QUBITS: &[usize] = &[1, 2, 3, 4, 5, 6, 7, 8, 63, 64, 65, 225];

/// The largest entry of [`QUBITS`].
const MAX_QUBITS: usize = QUBITS[QUBITS.len() - 1];

/// Per-qubit factors: basis, superposition, zero and non-finite.
fn factor(i: usize) -> [Complex64; 2] {
    let h = std::f64::consts::FRAC_1_SQRT_2;
    [
        [c64(1.0, 0.0), c64(0.0, 0.0)],
        [c64(0.0, 0.0), c64(0.0, 1.0)],
        [c64(h, 0.0), c64(-h, 0.0)],
        [c64(0.0, 0.0), c64(0.0, 0.0)],
        [c64(f64::NAN, 0.0), c64(0.0, 0.0)],
        [c64(f64::INFINITY, 0.0), c64(1.0, 0.0)],
        [c64(0.0, f64::NEG_INFINITY), c64(f64::NAN, f64::NAN)],
    ][i]
}

/// `ghz(n)`, or one of the benchmark registry's smoke circuits
/// (`hf_6`, `qaoa_9`, `inst_2x3_8`, built from the same generators).
fn fuzz_circuit(kind: usize, n: usize) -> Circuit {
    match kind {
        0 => hf_vqe(6, 3, 10),
        1 => qaoa_grid_random(3, 3, 2, 20),
        2 => inst_grid(2, 3, 8, 30),
        _ => ghz(n),
    }
}

/// A basis index valid on `n` qubits.
fn fuzz_bits(raw: u64, n: usize) -> usize {
    let raw = raw as usize;
    if n >= usize::BITS as usize {
        raw
    } else {
        raw % (1usize << n)
    }
}

fn fuzz_initial(kind: usize, n: usize, raw: u64, factors: &[usize]) -> InitialState {
    match kind {
        0 => InitialState::zeros(n),
        1 => InitialState::basis(n, fuzz_bits(raw, n)),
        2 => InitialState::plus(n),
        _ => InitialState::from_factors(factors[..n].iter().map(|&i| factor(i)).collect()),
    }
}

fn fuzz_observable(kind: usize, n: usize, raw: u64) -> Observable {
    match kind {
        0 => Observable::zeros(n),
        _ => Observable::basis(n, fuzz_bits(raw, n)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Validation of outside input never panics: the spec is `Ok`
    /// exactly when the state and observable match the circuit's
    /// qubit count, `SizeMismatch` otherwise, and identical inputs
    /// fingerprint equal.
    #[test]
    fn job_spec_new_validates_without_panicking(
        circuit in (0usize..6, 0..QUBITS.len(), 0usize..3, 0u64..1 << 20),
        initial in (0usize..4, 0usize..3, 0..QUBITS.len(), 0u64..u64::MAX),
        observable in (0usize..2, 0usize..3, 0..QUBITS.len(), 0u64..u64::MAX),
        factors in proptest::collection::vec(0usize..7, MAX_QUBITS),
    ) {
        let (circuit_kind, circuit_qubits, noises, seed) = circuit;
        let noisy = NoisyCircuit::inject_random(
            fuzz_circuit(circuit_kind, QUBITS[circuit_qubits]),
            &channels::depolarizing(1e-3),
            noises,
            seed,
        );
        let n = noisy.n_qubits();
        // Two draws in three keep the circuit's qubit count; the third
        // takes any count from the list, which may match by chance.
        let width = |matched: usize, idx: usize| if matched < 2 { n } else { QUBITS[idx] };
        let (initial_kind, initial_matched, initial_idx, initial_raw) = initial;
        let m = width(initial_matched, initial_idx);
        let (observable_kind, observable_matched, observable_idx, observable_raw) = observable;
        let k = width(observable_matched, observable_idx);
        let build = || {
            JobSpec::new(
                noisy.clone(),
                fuzz_initial(initial_kind, m, initial_raw, &factors),
                fuzz_observable(observable_kind, k, observable_raw),
            )
        };
        match (build(), build()) {
            (Ok(a), Ok(b)) => {
                prop_assert!(m == n && k == n, "accepted {m}/{k} qubits on {n}");
                prop_assert_eq!(a.fingerprint(), b.fingerprint());
                prop_assert_eq!(a.job().n_qubits(), n);
            }
            (Err(a), Err(b)) => {
                prop_assert!(m != n || k != n, "rejected matching {m}/{k} qubits on {n}");
                let mismatch = matches!(
                    a,
                    QnsError::SizeMismatch { expected, actual, .. }
                        if expected == n && (actual == m || actual == k)
                );
                prop_assert!(mismatch, "{m}/{k} qubits on {n}: {a:?}");
                prop_assert_eq!(a, b);
            }
            (a, b) => prop_assert!(false, "{m}/{k} qubits on {n}: {:?} then {:?}", a.err(), b.err()),
        }
    }
}
