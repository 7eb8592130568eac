//! The two service workloads, `serve_mixed` and `refine_stream`: a
//! `Service` with two workers driven by two closed-loop clients (each
//! sends its next request only after the previous one is answered).
//! Every pass runs on a freshly built and warmed service, so its
//! caches start empty and every pass does the same work.

use crate::gen::{self, RefineCall, ServeInputs, Submission};
use crate::layers::LayerJob;
use crate::metrics::{put, Metrics};
use crate::run::{Answer, Checks, Pass, Record, Workload};
use crate::stats;
use crate::trace::{Span, Tracer};
use qns_api::{
    ApproxBackend, ApproxOptions, Backend, DensityBackend, Estimate, ExpectationJob, QnsError,
    TnetBackend,
};
use qns_circuit::generators::ghz;
use qns_noise::NoisyCircuit;
use qns_serve::{JobSpec, RefineRequest, Route, Service, ServiceBuilder, SharedBackend};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop clients per pass.
pub const CLIENTS: usize = 2;
/// Service worker threads.
pub const WORKERS: usize = 2;

/// Traces every `Backend::expectation` call the service makes once
/// `live` is set (after warm-up): a `serve.backend` span with an
/// `api.job.<engine>` child, keyed by the job's fingerprint (the
/// service does not expose request ids).
struct Traced {
    inner: SharedBackend,
    span: &'static str,
    tracer: Arc<Tracer>,
    live: Arc<AtomicBool>,
}

impl Backend for Traced {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn expectation(&self, job: &ExpectationJob<'_>) -> Result<Estimate, QnsError> {
        if !self.live.load(Ordering::SeqCst) {
            return self.inner.expectation(job);
        }
        let req = job.fingerprint().as_u128() as u64;
        self.tracer.span("serve.backend", None, req, |id| {
            self.tracer
                .span(self.span, id, req, |_| self.inner.expectation(job))
        })
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

/// The level-1 approximation plus the paper's exact `tnet` and
/// `density` baselines; wrapped in [`Traced`] when tracing.
fn service(tracer: &Arc<Tracer>) -> Service {
    let engines: [(SharedBackend, &'static str); 3] = [
        (Arc::new(ApproxBackend::level(1)), "api.job.approx"),
        (Arc::new(TnetBackend::new()), "api.job.tnet"),
        (Arc::new(DensityBackend::new()), "api.job.density"),
    ];
    let live = Arc::new(AtomicBool::new(false));
    let engines = engines
        .into_iter()
        .map(|(inner, span)| -> SharedBackend {
            if tracer.enabled() {
                Arc::new(Traced {
                    inner,
                    span,
                    tracer: Arc::clone(tracer),
                    live: Arc::clone(&live),
                })
            } else {
                inner
            }
        })
        .collect();
    let svc = ServiceBuilder::new()
        .workers(WORKERS)
        .engines(engines)
        .build();
    // Warm-up on a job outside every mix: each engine once, and one
    // refinement, so worker threads and allocator pools are live.
    let noisy = NoisyCircuit::inject_random(ghz(4), &gen::channel(), 3, 1);
    let warm = JobSpec::zeros(noisy);
    for route in [Route::Auto, Route::Fixed("tnet"), Route::Fixed("density")] {
        svc.submit_routed(&warm, route)
            .and_then(|h| h.wait())
            .expect("warm-up job runs");
    }
    svc.submit_refine(&warm, &RefineRequest::new().with_max_level(2))
        .and_then(|h| h.wait_final())
        .expect("warm-up refinement runs");
    live.store(true, Ordering::SeqCst);
    svc
}

/// Service counters accumulated over passes (warm-up excluded).
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    submitted: u64,
    executed: u64,
    cache_hits: u64,
    dedup_joins: u64,
    partial_hits: u64,
    partial_misses: u64,
    levels_computed: u64,
    levels_from_cache: u64,
    queue_wait_us: u64,
    queue_waits: u64,
    refine_level_us: u64,
    refine_levels_timed: u64,
}

impl Counters {
    fn read(svc: &Service) -> Counters {
        let s = svc.stats();
        let snap = svc.metrics_snapshot();
        let hist = |name: &str| {
            snap.histogram_value(name)
                .map_or((0, 0), |h| (h.sum, h.count()))
        };
        let (queue_wait_us, queue_waits) = hist("qns_serve_queue_wait_micros");
        let (refine_level_us, refine_levels_timed) = hist("qns_serve_refine_level_micros");
        Counters {
            submitted: s.submitted,
            executed: s.executed,
            cache_hits: s.cache_hits,
            dedup_joins: s.dedup_joins,
            partial_hits: s.partial_cache.hits,
            partial_misses: s.partial_cache.misses,
            levels_computed: s.refine_levels_completed.values().sum(),
            levels_from_cache: s.refine_levels_from_cache,
            queue_wait_us,
            queue_waits,
            refine_level_us,
            refine_levels_timed,
        }
    }

    /// Adds `after − before` into `self`.
    fn add_delta(&mut self, after: &Counters, before: &Counters) {
        self.submitted += after.submitted - before.submitted;
        self.executed += after.executed - before.executed;
        self.cache_hits += after.cache_hits - before.cache_hits;
        self.dedup_joins += after.dedup_joins - before.dedup_joins;
        self.partial_hits += after.partial_hits - before.partial_hits;
        self.partial_misses += after.partial_misses - before.partial_misses;
        self.levels_computed += after.levels_computed - before.levels_computed;
        self.levels_from_cache += after.levels_from_cache - before.levels_from_cache;
        self.queue_wait_us += after.queue_wait_us - before.queue_wait_us;
        self.queue_waits += after.queue_waits - before.queue_waits;
        self.refine_level_us += after.refine_level_us - before.refine_level_us;
        self.refine_levels_timed += after.refine_levels_timed - before.refine_levels_timed;
    }
}

/// Runs `request(i)` for every `i < n` from [`CLIENTS`] closed-loop
/// client threads, every `i < barrier` answered before any later one
/// is issued; returns the records in issue order.
fn clients(n: usize, barrier: usize, request: impl Fn(usize) -> Record + Sync) -> Vec<Record> {
    let mut out: Vec<(usize, Record)> = Vec::with_capacity(n);
    for phase in [0..barrier.min(n), barrier.min(n)..n] {
        let next = AtomicUsize::new(phase.start);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= phase.end {
                                break mine;
                            }
                            mine.push((i, request(i)));
                        }
                    })
                })
                .collect();
            for h in handles {
                out.extend(h.join().expect("client thread panicked"));
            }
        });
    }
    out.sort_by_key(|&(i, _)| i);
    let mut seen = std::collections::BTreeSet::new();
    out.into_iter()
        .map(|(_, mut r)| {
            r.executed = seen.insert(r.key);
            r
        })
        .collect()
}

/// Records a request span with `serve.submit` and `serve.wait`
/// children from timestamps taken on the client thread.
fn record_request(tracer: &Tracer, req: u64, t0: Instant, t_sub: Instant, t1: Instant) {
    if !tracer.enabled() {
        return;
    }
    let id = tracer.next_id();
    let at = |t| tracer.offset_ns(t);
    for (name, parent, a, b) in [
        ("serve.submit", Some(id), t0, t_sub),
        ("serve.wait", Some(id), t_sub, t1),
        ("serve.request", None, t0, t1),
    ] {
        let span_id = if parent.is_none() {
            id
        } else {
            tracer.next_id()
        };
        tracer.record(Span {
            id: span_id,
            parent,
            req,
            name,
            start_ns: at(a),
            end_ns: at(b),
        });
    }
}

fn answer(e: Estimate) -> Answer {
    Answer {
        value: e.value,
        bound: e.error_bound.unwrap_or(0.0),
        levels: Vec::new(),
    }
}

/// Every `len / max`-th index: a sample spread over the mix.
fn spread(len: usize, max: usize) -> impl Iterator<Item = usize> {
    (0..len).step_by(len.div_ceil(max.max(1)).max(1))
}

fn span_mean(tracer: &Tracer, name: &str, scale: f64) -> f64 {
    let d: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / scale)
        .collect();
    stats::mean(&d)
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b as f64
}

/// `serve_mixed`: level-1 jobs through `Route::Auto`, with repeated
/// specs (cache hits and single-flight joins) and a few jobs pinned to
/// the exact engines.
pub struct ServeMixed {
    inputs: ServeInputs<Submission>,
    counters: Counters,
    passes: u64,
}

fn route_code(r: Route) -> u64 {
    match r {
        Route::Auto => 0,
        Route::Fixed("tnet") => 1,
        Route::Fixed(_) => 2,
    }
}

impl Workload for ServeMixed {
    const NAME: &'static str = "serve_mixed";

    fn setup(seed: u64) -> Self {
        let inputs = gen::serve_mixed(seed);
        service(&Arc::new(Tracer::new(false))).shutdown();
        ServeMixed {
            inputs,
            counters: Counters::default(),
            passes: 0,
        }
    }

    fn pass(&mut self, tracer: &Arc<Tracer>) -> Pass {
        let svc = service(tracer);
        let before = Counters::read(&svc);
        let base = self.passes << 32;
        let ServeInputs { specs, requests } = &self.inputs;
        let start = Instant::now();
        let records = clients(requests.len(), requests.len(), |i| {
            let sub = requests[i];
            let t0 = Instant::now();
            let h = svc.submit_routed(&specs[sub.spec].spec, sub.route);
            let t_sub = Instant::now();
            let r = h.and_then(|h| h.wait());
            let t1 = Instant::now();
            record_request(tracer, base + i as u64, t0, t_sub, t1);
            Record {
                key: sub.spec as u64 * 4 + route_code(sub.route),
                spec: sub.spec,
                first: t1 - t0,
                last: t1 - t0,
                answer: r.map(answer).map_err(|e| e.to_string()),
                executed: false,
            }
        });
        let wall = start.elapsed();
        self.counters.add_delta(&Counters::read(&svc), &before);
        svc.shutdown();
        self.passes += 1;
        Pass { records, wall }
    }

    fn specs(&self) -> Vec<&JobSpec> {
        self.inputs.specs.iter().map(|s| &s.spec).collect()
    }

    fn layer_jobs(&self, max: usize) -> Vec<LayerJob<'_>> {
        spread(self.inputs.specs.len(), max)
            .map(|i| LayerJob {
                spec: &self.inputs.specs[i].spec,
                level: 1,
                threads: 1,
            })
            .collect()
    }

    fn pass_metrics(&self, records: &[Record], tracer: &Tracer, m: &mut Metrics) {
        let c = &self.counters;
        let backend_ms = span_mean(tracer, "serve.backend", 1e6);
        let executed: Vec<f64> = records
            .iter()
            .filter(|r| r.executed)
            .map(|r| r.last.as_secs_f64() * 1e3)
            .collect();
        put(m, "serve.submit_us", span_mean(tracer, "serve.submit", 1e3));
        put(
            m,
            "serve.queue_wait_ms_mean",
            c.queue_wait_us as f64 / 1e3 / c.queue_waits as f64,
        );
        put(m, "serve.backend_ms_mean", backend_ms);
        put(m, "serve.tax_ms_mean", stats::mean(&executed) - backend_ms);
        put(m, "serve.cache_hit_ratio", ratio(c.cache_hits, c.submitted));
        put(
            m,
            "serve.dedup_join_ratio",
            ratio(c.dedup_joins, c.submitted),
        );
        put(
            m,
            "serve.executed_per_submitted",
            ratio(c.executed, c.submitted),
        );
    }
}

/// `refine_stream`: anytime refinements answered first at the level a
/// level-1 pattern budget allows and escalated to level 2 or 3 in the
/// background; repeats, issued after every first call is answered,
/// resume from the partial-sum cache.
pub struct RefineStream {
    inputs: ServeInputs<RefineCall>,
    opts: ApproxOptions,
    counters: Counters,
    first_levels: (u64, u64),
    passes: u64,
}

/// Every this-many distinct specs, one streamed level is compared with
/// a direct `ApproxBackend` run.
const LEVEL_SAMPLE_STRIDE: usize = 8;

impl Workload for RefineStream {
    const NAME: &'static str = "refine_stream";

    fn setup(seed: u64) -> Self {
        let inputs = gen::refine_stream(seed);
        let svc = service(&Arc::new(Tracer::new(false)));
        let opts = *svc.refine_options();
        svc.shutdown();
        RefineStream {
            inputs,
            opts,
            counters: Counters::default(),
            first_levels: (0, 0),
            passes: 0,
        }
    }

    fn pass(&mut self, tracer: &Arc<Tracer>) -> Pass {
        let svc = service(tracer);
        let before = Counters::read(&svc);
        let base = self.passes << 32;
        let first_level_sum = AtomicU64::new(0);
        let ServeInputs { specs, requests } = &self.inputs;
        let start = Instant::now();
        // First calls, then (after a barrier) the repeats.
        let records = clients(requests.len(), specs.len(), |i| {
            let call = requests[i];
            let spec = &specs[call.spec].spec;
            let n = spec.noisy().noise_count();
            let req = RefineRequest::new()
                .with_pattern_budget(qns_core::planned_patterns(n, 1))
                .with_max_level(call.max_level);
            let t0 = Instant::now();
            let h = svc.submit_refine(spec, &req);
            let t_sub = Instant::now();
            let mut first = Duration::ZERO;
            let r = h.and_then(|h| {
                h.wait_first()?;
                first = t0.elapsed();
                let fin = h.wait_final()?;
                first_level_sum.fetch_add(h.first_level() as u64, Ordering::Relaxed);
                Ok(Answer {
                    value: fin.estimate.value,
                    bound: fin.estimate.error_bound.unwrap_or(0.0),
                    levels: h.updates().iter().map(|u| u.partial.value).collect(),
                })
            });
            let t1 = Instant::now();
            record_request(tracer, base + i as u64, t0, t_sub, t1);
            Record {
                key: call.spec as u64,
                spec: call.spec,
                first,
                last: t1 - t0,
                answer: r.map_err(|e| e.to_string()),
                executed: false,
            }
        });
        let wall = start.elapsed();
        self.counters.add_delta(&Counters::read(&svc), &before);
        svc.shutdown();
        self.first_levels.0 += first_level_sum.into_inner();
        self.first_levels.1 += records.len() as u64;
        self.passes += 1;
        Pass { records, wall }
    }

    fn specs(&self) -> Vec<&JobSpec> {
        self.inputs.specs.iter().map(|s| &s.spec).collect()
    }

    /// A sample of streamed levels must equal a direct level-`l` run
    /// of `ApproxBackend` with the service's refine options, bitwise.
    fn extra_checks(&self, records: &[Record], tracer: &Tracer, checks: &mut Checks) {
        let mut done = std::collections::BTreeSet::new();
        for r in records {
            let Ok(a) = &r.answer else { continue };
            if r.spec % LEVEL_SAMPLE_STRIDE != 0 || a.levels.is_empty() || !done.insert(r.spec) {
                continue;
            }
            let l = (r.spec / LEVEL_SAMPLE_STRIDE) % a.levels.len();
            let job = self.inputs.specs[r.spec].spec.job();
            let direct = tracer.span("api.job.approx", None, r.spec as u64, |_| {
                ApproxBackend::with_options(self.opts.with_level(l)).expectation(&job)
            });
            let ok = matches!(&direct, Ok(e) if e.value.to_bits() == a.levels[l].to_bits());
            checks.check(ok, || {
                format!(
                    "spec {}: streamed level {l} = {} but a direct run gives {direct:?}",
                    r.spec, a.levels[l]
                )
            });
        }
    }

    fn layer_jobs(&self, max: usize) -> Vec<LayerJob<'_>> {
        spread(self.inputs.specs.len(), max)
            .map(|i| LayerJob {
                spec: &self.inputs.specs[i].spec,
                level: 3,
                threads: self.opts.threads,
            })
            .collect()
    }

    fn pass_metrics(&self, _records: &[Record], tracer: &Tracer, m: &mut Metrics) {
        let c = &self.counters;
        put(m, "serve.submit_us", span_mean(tracer, "serve.submit", 1e3));
        put(
            m,
            "serve.queue_wait_ms_mean",
            c.queue_wait_us as f64 / 1e3 / c.queue_waits as f64,
        );
        put(
            m,
            "serve.partial_cache_hit_ratio",
            ratio(c.partial_hits, c.partial_hits + c.partial_misses),
        );
        put(
            m,
            "serve.levels_from_cache_ratio",
            ratio(c.levels_from_cache, c.levels_from_cache + c.levels_computed),
        );
        put(
            m,
            "serve.refine_level_ms_mean",
            c.refine_level_us as f64 / 1e3 / c.refine_levels_timed as f64,
        );
        put(
            m,
            "serve.first_level_mean",
            ratio(self.first_levels.0, self.first_levels.1),
        );
    }
}
