//! What the three workloads share: request records, the correctness
//! gate, the timed window and the traced run.

use crate::alloc;
use crate::layers::{self, LayerJob};
use crate::metrics::{self, put, Metrics, PER_LAYER};
use crate::stats::{self, Samples, Summary};
use crate::trace::{self, Tracer};
use qns_api::{Backend, TnetBackend};
use qns_serve::JobSpec;
use qns_tnet::builder::double_network;
use qns_tnet::network::OrderStrategy;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-ups timed (each built and dropped) before every pass of an
/// untraced run. Spread over the run like the passes, their median
/// `setup_s` is as steady as the pass timings.
pub const SETUPS_PER_PASS: usize = 3;

/// Largest qubit count whose answers are checked against the exact
/// `tnet` engine.
pub const EXACT_MAX_QUBITS: usize = 16;

/// Largest intermediate tensor (in elements, 16 bytes each) an exact
/// reference contraction may plan: noise placements that widen the
/// double network beyond it would take seconds and gigabytes, so such
/// jobs are reported as unverified instead.
pub const EXACT_MAX_INTERMEDIATE: usize = 1 << 21;

/// Slack on top of the Theorem-1 bound for floating-point rounding
/// (also the agreement tolerance of exact engines).
pub const EXACT_TOL: f64 = 1e-9;

/// An answer as the program returned it.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    /// Final value.
    pub value: f64,
    /// Theorem-1 bound of `value` (0 when the engine is exact).
    pub bound: f64,
    /// Streamed per-level values, indexed by level (refinements only).
    pub levels: Vec<f64>,
}

/// One request of a pass.
#[derive(Clone, Debug)]
pub struct Record {
    /// Requests with equal keys must return bitwise-equal answers.
    pub key: u64,
    /// Index of the distinct job in [`Workload::specs`].
    pub spec: usize,
    /// Issue to first usable answer.
    pub first: Duration,
    /// Issue to final answer.
    pub last: Duration,
    /// The answer, or the error text.
    pub answer: Result<Answer, String>,
    /// First request of its key in the pass (the one that executes).
    pub executed: bool,
}

/// The requests of one pass and the wall time they took.
pub struct Pass {
    /// Per-request records, in issue order.
    pub records: Vec<Record>,
    /// Wall time of the requests (service build and shutdown excluded).
    pub wall: Duration,
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// Name given to `--workload`.
    const NAME: &'static str;
    /// Generates the inputs from `seed`, builds what the passes use
    /// and warms it up. Timed as `setup_s`.
    fn setup(seed: u64) -> Self;
    /// Runs one pass; spans go to `tracer`.
    fn pass(&mut self, tracer: &Arc<Tracer>) -> Pass;
    /// The distinct jobs, indexed as [`Record::spec`].
    fn specs(&self) -> Vec<&JobSpec>;
    /// Workload-specific correctness checks beyond [`check_records`].
    fn extra_checks(&self, _records: &[Record], _tracer: &Tracer, _checks: &mut Checks) {}
    /// Up to `max` jobs for the traced layer decomposition.
    fn layer_jobs(&self, max: usize) -> Vec<LayerJob<'_>>;
    /// Per-layer metrics of the passes so far, from records and spans.
    fn pass_metrics(&self, records: &[Record], tracer: &Tracer, out: &mut Metrics);
}

/// Correctness gate: attempts and failures, with the first few
/// failure messages.
#[derive(Debug, Default)]
pub struct Checks {
    /// Requests and stand-alone checks made.
    pub attempted: u64,
    /// Those that errored or gave a wrong answer.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub messages: Vec<String>,
    /// Largest observed |approx − exact| over its Theorem-1 bound.
    pub max_error_over_bound: Option<f64>,
    /// Distinct jobs left without an exact reference (too large).
    pub unverified: usize,
}

impl Checks {
    /// Counts one failure.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }

    /// Counts one stand-alone check, failing it with `msg` unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(msg());
        }
    }

    fn observe_ratio(&mut self, r: f64) {
        self.max_error_over_bound = Some(self.max_error_over_bound.map_or(r, |m| m.max(r)));
    }
}

fn same_answer(a: &Answer, b: &Answer) -> bool {
    if a.levels.is_empty() || b.levels.is_empty() {
        return a.value.to_bits() == b.value.to_bits();
    }
    a.levels
        .iter()
        .zip(&b.levels)
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Checks every record: it succeeded, it is bitwise equal to the first
/// answer of its key, and it lies within its Theorem-1 bound of the
/// exact value where one is known.
pub fn check_records(records: &[Record], exact: &BTreeMap<usize, f64>, checks: &mut Checks) {
    let mut first: BTreeMap<u64, &Answer> = BTreeMap::new();
    for r in records {
        checks.attempted += 1;
        let a = match &r.answer {
            Ok(a) => a,
            Err(e) => {
                checks.fail(format!("spec {} failed: {e}", r.spec));
                continue;
            }
        };
        if let Some(f) = first.get(&r.key) {
            if !same_answer(f, a) {
                checks.fail(format!(
                    "spec {}: answer {:?} differs from the first answer {:?} of its key",
                    r.spec, a, f
                ));
                continue;
            }
        } else {
            first.insert(r.key, a);
        }
        if let Some(&x) = exact.get(&r.spec) {
            let err = (a.value - x).abs();
            if a.bound > 0.0 {
                checks.observe_ratio(err / a.bound);
            }
            if err > a.bound + EXACT_TOL {
                checks.fail(format!(
                    "spec {}: |{} - exact {}| = {err:e} exceeds bound {:e}",
                    r.spec, a.value, x, a.bound
                ));
            }
        }
    }
}

/// Whether the exact `tnet` contraction of `spec` stays within
/// [`EXACT_MAX_QUBITS`] and [`EXACT_MAX_INTERMEDIATE`], judged from
/// the greedy plan of its double network.
fn exact_is_cheap(spec: &JobSpec) -> bool {
    if spec.noisy().n_qubits() > EXACT_MAX_QUBITS {
        return false;
    }
    let job = spec.job();
    let net = double_network(
        spec.noisy(),
        job.initial().product(),
        job.observable().product(),
        &BTreeMap::new(),
    );
    net.plan(OrderStrategy::Greedy)
        .compile()
        .replay_stats()
        .max_intermediate
        <= EXACT_MAX_INTERMEDIATE
}

/// Exact `tnet` values of the distinct jobs `wanted` whose exact
/// contraction is cheap enough (see [`exact_is_cheap`]), on two
/// threads. Each engine call is traced as `api.job.tnet`.
pub fn exact_values(
    specs: &[&JobSpec],
    todo: &[usize],
    tracer: &Tracer,
    checks: &mut Checks,
) -> BTreeMap<usize, f64> {
    let skipped = AtomicUsize::new(0);
    let next = AtomicUsize::new(0);
    let out = Mutex::new(BTreeMap::new());
    let errors = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = todo.get(k) else { break };
                if !exact_is_cheap(specs[i]) {
                    skipped.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let job = specs[i].job();
                let r = tracer.span("api.job.tnet", None, i as u64, |_| {
                    TnetBackend::new().expectation(&job)
                });
                match r {
                    Ok(e) => {
                        out.lock().expect("exact map lock").insert(i, e.value);
                    }
                    Err(e) => errors
                        .lock()
                        .expect("error list lock")
                        .push(format!("exact tnet reference for spec {i} failed: {e}")),
                }
            });
        }
    });
    for e in errors.into_inner().expect("error list lock") {
        checks.check(false, || e);
    }
    checks.unverified += skipped.into_inner();
    out.into_inner().expect("exact map lock")
}

/// Passes run within one timed window.
struct Window {
    /// Set-up times in seconds.
    setups: Vec<f64>,
    walls: Vec<Duration>,
    records: Vec<Record>,
    /// Requests of each pass.
    counts: Vec<usize>,
    /// High-water mark of live heap during each pass, less what the
    /// records of earlier passes hold.
    peaks: Vec<f64>,
}

fn time_setup<W: Workload>(seed: u64) -> f64 {
    let t = Instant::now();
    let w = W::setup(seed);
    let s = t.elapsed().as_secs_f64();
    drop(w);
    s
}

fn window<W: Workload>(w: &mut W, seed: u64, tracer: &Arc<Tracer>, seconds: f64) -> Window {
    let start = Instant::now();
    let mut win = Window {
        setups: Vec::new(),
        walls: Vec::new(),
        records: Vec::new(),
        counts: Vec::new(),
        peaks: Vec::new(),
    };
    let base = alloc::live_bytes();
    loop {
        for _ in 0..SETUPS_PER_PASS {
            win.setups.push(time_setup::<W>(seed));
        }
        alloc::reset_peak();
        let held = alloc::live_bytes().saturating_sub(base);
        let p = w.pass(tracer);
        win.peaks
            .push(alloc::peak_bytes().saturating_sub(held) as f64);
        win.walls.push(p.wall);
        win.counts.push(p.records.len());
        win.records.extend(p.records);
        if start.elapsed().as_secs_f64() >= seconds {
            return win;
        }
    }
}

/// Interquartile mean over passes of `f` applied to each pass's records.
fn per_pass(win: &Window, f: impl Fn(&[Record]) -> f64) -> f64 {
    let mut at = 0;
    let v: Vec<f64> = win
        .counts
        .iter()
        .map(|&n| {
            at += n;
            f(&win.records[at - n..at])
        })
        .collect();
    stats::interquartile_mean(&v)
}

fn summarize(records: &[Record], d: impl Fn(&Record) -> Duration) -> Option<Summary> {
    let mut s = Samples::default();
    for r in records {
        s.push(d(r));
    }
    s.summary()
}

fn distinct_specs(records: &[Record]) -> Vec<usize> {
    let mut v: Vec<usize> = records.iter().map(|r| r.spec).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Runs every correctness check on `records`.
fn verify<W: Workload>(w: &W, records: &[Record], tracer: &Tracer, checks: &mut Checks) {
    let specs = w.specs();
    let exact = exact_values(&specs, &distinct_specs(records), tracer, checks);
    check_records(records, &exact, checks);
    w.extra_checks(records, tracer, checks);
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured metrics by name.
    pub metrics: Metrics,
    /// The correctness gate.
    pub checks: Checks,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

fn summary_note(name: &str, s: &Option<Summary>) -> String {
    match s {
        None => format!("{name}: no samples"),
        Some(s) => {
            let tail = match s.tail {
                Some((q, v)) => format!("resolved tail p{:.0} = {v:.4} ms", q * 100.0),
                None => "no percentile has 10 samples beyond it".to_string(),
            };
            format!(
                "{name}: p50 {:.4} ms, p95 {:.4} ms ({} samples, {} beyond p95; {tail})",
                s.p50_ms, s.p95_ms, s.count, s.p95_beyond
            )
        }
    }
}

/// An untraced run: set-up, one warm-up pass, passes for `seconds`
/// (each after [`SETUPS_PER_PASS`] timed set-ups), then the correctness
/// checks (warm-up pass included) outside the timed window. `setup_s`
/// is the median set-up; every other metric is the interquartile mean
/// over passes of the pass's value (see [`stats::interquartile_mean`]):
/// a few passes slowed by the host move none of them, and passes that
/// split between a fast and a slow level (on a two-core machine, how
/// the scheduler places the service's fresh worker threads can decide
/// it) move them smoothly.
pub fn run_untraced<W: Workload>(seed: u64, seconds: f64) -> Outcome {
    let mut w = W::setup(seed);
    let off = Arc::new(Tracer::new(false));
    let warm = w.pass(&off).records;
    let win = window(&mut w, seed, &off, seconds);
    let mut out = Outcome::default();
    let mut checked = warm;
    checked.extend(win.records.iter().cloned());
    verify(&w, &checked, &off, &mut out.checks);

    let m = &mut out.metrics;
    let walls: Vec<f64> = win.walls.iter().map(Duration::as_secs_f64).collect();
    put(m, "setup_s", stats::median(&win.setups));
    put(m, "makespan_s", stats::interquartile_mean(&walls));
    let rates: Vec<f64> = win
        .counts
        .iter()
        .zip(&walls)
        .map(|(&n, w)| n as f64 / w)
        .collect();
    put(m, "jobs_per_s", stats::interquartile_mean(&rates));
    for (name, first, p95) in [
        ("latency_p50_ms", false, false),
        ("latency_p95_ms", false, true),
        ("first_answer_p50_ms", true, false),
        ("first_answer_p95_ms", true, true),
    ] {
        let v = per_pass(&win, |records| {
            let s = summarize(records, |r| if first { r.first } else { r.last })
                .expect("every pass makes requests");
            if p95 {
                s.p95_ms
            } else {
                s.p50_ms
            }
        });
        put(m, name, v);
    }
    put(
        m,
        "peak_heap_mb",
        stats::interquartile_mean(&win.peaks) / 1e6,
    );
    let mut sorted = walls.clone();
    sorted.sort_by(f64::total_cmp);
    out.notes.push(format!(
        "{} passes ({:.4} .. {:.4} s) after one warm-up pass, {} requests, set-up median of {} ({:.5} .. {:.5} s)",
        win.walls.len(),
        sorted[0],
        sorted[sorted.len() - 1],
        win.records.len(),
        win.setups.len(),
        win.setups.iter().copied().fold(f64::INFINITY, f64::min),
        win.setups.iter().copied().fold(0.0, f64::max),
    ));
    out.notes.push(
        "latency and first-answer metrics: interquartile mean over passes of each pass's percentile; pooled over all passes:".to_string(),
    );
    let (ls, fs) = (
        summarize(&win.records, |r| r.last),
        summarize(&win.records, |r| r.first),
    );
    out.notes.push(summary_note("latency", &ls));
    out.notes.push(summary_note("first answer", &fs));
    if let (Some(p50), Some(p95)) = (m.get("latency_p50_ms"), m.get("latency_p95_ms")) {
        out.notes.push(format!(
            "final_answer_p50_ms {p50:.4} ms, final_answer_p95_ms {p95:.4} ms (the latency: issue to final answer)"
        ));
    }
    out
}

/// Per-layer metrics of one traced pass set plus its layer
/// decomposition over up to `sample` jobs.
fn traced_metrics<W: Workload>(
    w: &W,
    records: &[Record],
    tracer: &Arc<Tracer>,
    sample: usize,
    checks: &mut Checks,
) -> Metrics {
    let mut m = Metrics::new();
    w.pass_metrics(records, tracer, &mut m);
    layers::decompose(&w.layer_jobs(sample), tracer, checks, &mut m);
    api_metrics(&tracer.spans(), &mut m);
    m
}

/// `api.job_ms.<engine>`: mean duration of the traced
/// `Backend::expectation` calls of each engine.
fn api_metrics(spans: &[trace::Span], m: &mut Metrics) {
    for (span, metric) in [
        ("api.job.approx", "api.job_ms.approx"),
        ("api.job.tnet", "api.job_ms.tnet"),
        ("api.job.density", "api.job_ms.density"),
    ] {
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect();
        put(m, metric, stats::mean(&d));
    }
}

/// Fills the per-layer metrics `m` still lacks from one traced pass of
/// another workload `V` (its layer sample kept small).
pub fn fill<V: Workload>(seed: u64, m: &mut Metrics, checks: &mut Checks, notes: &mut Vec<String>) {
    if metrics::missing(m, &PER_LAYER).is_empty() {
        return;
    }
    let mut v = V::setup(seed);
    let tracer = Arc::new(Tracer::new(true));
    let p = v.pass(&tracer);
    check_records(&p.records, &BTreeMap::new(), checks);
    let theirs = traced_metrics(&v, &p.records, &tracer, 6, checks);
    let mut taken = Vec::new();
    for (k, val) in theirs {
        if !m.contains_key(k) {
            m.insert(k, val);
            taken.push(k);
        }
    }
    if !taken.is_empty() {
        notes.push(format!(
            "not exercised here, measured on one traced {} pass: {}",
            V::NAME,
            taken.join(", ")
        ));
    }
}

/// A traced run: untraced and traced passes alternate for `seconds`,
/// each pair in the opposite order of the one before (the ratio of
/// their median wall times gives `trace.overhead_frac`),
/// then the checks and the layer decomposition. Metrics this workload
/// does not exercise are filled from one traced pass of the workloads
/// that do (`fill_missing` calls [`fill`] for them). Spans are written
/// to `spans_path`.
pub fn run_traced<W: Workload>(
    seed: u64,
    seconds: f64,
    spans_path: &std::path::Path,
    fill_missing: impl FnOnce(&mut Metrics, &mut Checks, &mut Vec<String>),
) -> Outcome {
    let mut w = W::setup(seed);
    let off = Arc::new(Tracer::new(false));
    let on = Arc::new(Tracer::new(true));
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut records, mut traced_records) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || traced_walls.len() < 2 {
        let traced_first = traced_walls.len() % 2 == 1;
        for traced in [traced_first, !traced_first] {
            let p = w.pass(if traced { &on } else { &off });
            if traced {
                traced_walls.push(p.wall.as_secs_f64());
                traced_records.extend(p.records);
            } else {
                plain_walls.push(p.wall.as_secs_f64());
                records.extend(p.records);
            }
        }
    }
    let overhead = stats::median(&traced_walls) / stats::median(&plain_walls) - 1.0;
    let mut out = Outcome::default();
    records.extend(traced_records.iter().cloned());
    verify(&w, &records, &on, &mut out.checks);

    let mut m = traced_metrics(&w, &traced_records, &on, 24, &mut out.checks);
    put(&mut m, "trace.overhead_frac", overhead);
    if let Some(r) = out.checks.max_error_over_bound {
        put(&mut m, "verify.max_error_over_bound", r);
    }
    let spans = on.spans();
    for (name, t) in trace::totals_by_name(&spans) {
        out.notes.push(format!(
            "span {name:<28} n={:<7} total {:>10.3} ms  self {:>10.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    if let Err(e) = trace::write_spans(spans_path, &spans) {
        out.notes
            .push(format!("could not write {}: {e}", spans_path.display()));
    } else {
        out.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            spans_path.display()
        ));
    }
    fill_missing(&mut m, &mut out.checks, &mut out.notes);
    out.metrics = m;
    out
}
