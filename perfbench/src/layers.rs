//! The traced layer decomposition: each sampled job is taken apart
//! into the public calls the evaluator makes internally (noise SVDs,
//! skeleton build, order search, compile, full and delta replay of the
//! Gray pattern sequence) and then run level by level through
//! `LevelEvaluator`, every call wrapped in a span. Warmed replays
//! must allocate nothing and delta replay must equal full replay
//! bitwise; both are checked.

use crate::alloc;
use crate::metrics::{put, Metrics};
use crate::run::Checks;
use crate::stats;
use crate::trace::{Span, Tracer};
use qns_core::{ApproxOptions, GrayPatternStream, LevelEvaluator, NoiseSvd};
use qns_linalg::{Complex64, Matrix};
use qns_obs::Registry;
use qns_serve::JobSpec;
use qns_tensor::Tensor;
use qns_tnet::builder::{AmplitudeSkeleton, Insertion};
use qns_tnet::exec::{ExecutablePlan, Workspace};
use qns_tnet::network::OrderStrategy;
use std::sync::Arc;
use std::time::Instant;

/// One job to decompose: its spec, level and evaluator thread count.
#[derive(Clone, Copy, Debug)]
pub struct LayerJob<'a> {
    /// The job.
    pub spec: &'a JobSpec,
    /// Approximation level it runs at.
    pub level: usize,
    /// Evaluator threads the workload uses for it.
    pub threads: usize,
}

/// Span names of the per-level `advance` calls.
const LEVEL_SPANS: [&str; 4] = [
    "core.level.L0",
    "core.level.L1",
    "core.level.L2",
    "core.level.L3",
];
const LEVEL_METRICS: [&str; 4] = [
    "core.level_ms.L0",
    "core.level_ms.L1",
    "core.level_ms.L2",
    "core.level_ms.L3",
];

/// Request ids of decomposed jobs start here, clear of pass requests.
const REQ_BASE: u64 = 1 << 40;

/// One split half: skeleton, compiled plan, workspace and the
/// dirty-leaf list of the current pattern.
struct Half {
    skel: AmplitudeSkeleton,
    plan: ExecutablePlan,
    ws: Workspace,
    dirty: Vec<usize>,
}

/// Sums of one Gray-order replay of levels `0..=level`.
struct Replay {
    level_sums: Vec<Complex64>,
    calls: u64,
    alloc_bytes: u64,
}

/// Both split halves of a job plus the term installed at each site.
/// Workspaces and installed terms persist across replays, so a second
/// replay runs fully warm.
struct Replayer {
    halves: [Half; 2],
    current: Vec<usize>,
}

impl Replayer {
    /// Replays every pattern of levels `0..=level` in minimal-change
    /// order, swapping only changed payloads, with full or delta
    /// execution. Bytes allocated inside the execute calls are counted,
    /// except during the very first call (the cold workspace fills).
    fn replay(&mut self, payloads: &[[(Tensor, Tensor); 4]], level: usize, delta: bool) -> Replay {
        let n = payloads.len();
        let mut pattern = vec![0usize; n];
        let mut out = Replay {
            level_sums: Vec::new(),
            calls: 0,
            alloc_bytes: 0,
        };
        for u in 0..=level.min(n) {
            let mut stream = GrayPatternStream::new(n, u);
            let mut acc = Complex64::ZERO;
            while stream.next_into(&mut pattern) {
                let [up, lo] = &mut self.halves;
                up.dirty.clear();
                lo.dirty.clear();
                for (i, (&t, cur)) in pattern.iter().zip(self.current.iter_mut()).enumerate() {
                    if t != *cur {
                        let (pu, pl) = &payloads[i][t];
                        for (h, p) in [(&mut *up, pu), (&mut *lo, pl)] {
                            h.skel.set_insertion_payload(i, p);
                            let slot = h.skel.insertion_slot(i);
                            h.dirty.push(slot);
                        }
                        *cur = t;
                    }
                }
                let cold = !up.ws.is_warm_for(&up.plan);
                let before = alloc::allocated_bytes();
                let mut amp = Complex64::ONE;
                for h in [up, lo] {
                    amp *= if delta {
                        h.plan
                            .execute_network_delta_scalar(h.skel.network(), &h.dirty, &mut h.ws)
                            .0
                    } else {
                        h.plan.execute_network_scalar(h.skel.network(), &mut h.ws)
                    };
                }
                if !cold {
                    out.alloc_bytes += alloc::allocated_bytes() - before;
                }
                acc += amp;
                out.calls += 2;
            }
            out.level_sums.push(acc);
        }
        out
    }
}

fn opts(level: usize, threads: usize) -> ApproxOptions {
    ApproxOptions::default()
        .with_level(level)
        .with_threads(threads)
}

/// Seconds spent in set-up and in levels by one evaluator run.
struct LevelRun {
    setup_s: f64,
    level_s: f64,
    patterns: u64,
}

/// Builds a `LevelEvaluator` and advances it through every level of
/// `job`; with `spans`, set-up and each `advance` get a span.
fn run_levels(
    tracer: &Tracer,
    parent: Option<u64>,
    req: u64,
    job: &LayerJob<'_>,
    threads: usize,
    spans: bool,
) -> LevelRun {
    let spec = job.spec;
    let j = spec.job();
    let (psi, v) = (j.initial().product(), j.observable().product());
    let timed = |name: &'static str, f: &mut dyn FnMut()| {
        let t = Instant::now();
        if spans {
            tracer.span(name, parent, req, |_| f());
        } else {
            f();
        }
        t.elapsed().as_secs_f64()
    };
    let mut ev = None;
    let setup_s = timed("core.evaluator_setup", &mut || {
        ev = Some(LevelEvaluator::new(
            spec.noisy(),
            psi,
            v,
            &opts(job.level, threads),
        ));
    });
    let mut ev = ev
        .expect("set-up ran")
        .expect("decomposed jobs fit the pattern budget");
    let mut run = LevelRun {
        setup_s,
        level_s: 0.0,
        patterns: 0,
    };
    for &name in LEVEL_SPANS.iter().take(job.level.min(ev.max_level()) + 1) {
        let mut patterns = 0;
        run.level_s += timed(name, &mut || {
            let p = ev
                .advance()
                .expect("levels up to the validated one stay in budget");
            patterns = p.level_patterns as u64;
        });
        run.patterns += patterns;
    }
    run
}

/// Decomposes `jobs` under `tracer` and writes the `tnet.*` and
/// `core.*` metrics into `m`. Checks that delta replay is bitwise
/// equal to full replay and that warmed replays allocate nothing.
pub fn decompose(jobs: &[LayerJob<'_>], tracer: &Tracer, checks: &mut Checks, m: &mut Metrics) {
    if jobs.is_empty() {
        return;
    }
    let mut full_calls = 0u64;
    let mut delta_calls = 0u64;
    let mut svd_calls = 0u64;
    let mut flops = Vec::new();
    let mut max_intermediate = 0usize;
    let (mut setup_s, mut level_s, mut patterns) = (0.0, 0.0, 0u64);
    let mut efficiency = Vec::new();
    let registry = Arc::new(Registry::new());
    let mut profiled_patterns = 0u64;

    for (j, job) in jobs.iter().enumerate() {
        let req = REQ_BASE + j as u64;
        let noisy = job.spec.noisy();
        let (psi, v) = (
            job.spec.job().initial().product().clone(),
            job.spec.job().observable().product().clone(),
        );
        tracer.span("layer.job", None, req, |parent| {
            // Noise sites in evaluator order: initial events first.
            let events: Vec<(usize, &qns_noise::NoiseEvent)> = noisy
                .initial_events()
                .iter()
                .map(|e| (usize::MAX, e))
                .chain(noisy.events().iter().map(|e| (e.after_gate, e)))
                .collect();
            let svds: Vec<NoiseSvd> = events
                .iter()
                .map(|(_, e)| {
                    tracer.span("core.noise_svd", parent, req, |_| {
                        NoiseSvd::decompose(&e.kraus)
                    })
                })
                .collect();
            svd_calls += svds.len() as u64;
            let placeholders: Vec<Insertion> = events
                .iter()
                .map(|&(after_gate, e)| Insertion {
                    after_gate,
                    qubit: e.qubit,
                    matrix: Matrix::identity(2),
                })
                .collect();
            let circuit = noisy.circuit();
            let skels = tracer.span("tnet.skeleton_build", parent, req, |_| {
                [false, true]
                    .map(|conj| AmplitudeSkeleton::new(circuit, &psi, &v, &placeholders, conj))
            });
            let plans = tracer.span("tnet.order_search", parent, req, |_| {
                [&skels[0], &skels[1]].map(|s| s.plan(OrderStrategy::Greedy))
            });
            let compiled = tracer.span("tnet.compile", parent, req, |_| {
                plans.each_ref().map(|p| p.compile())
            });
            for c in &compiled {
                let st = c.replay_stats();
                max_intermediate = max_intermediate.max(st.max_intermediate);
            }
            flops.push(
                compiled
                    .iter()
                    .map(|c| c.replay_stats().flops_proxy as f64)
                    .sum::<f64>(),
            );
            let payloads: Vec<[(Tensor, Tensor); 4]> = svds
                .iter()
                .map(|s| {
                    std::array::from_fn(|t| {
                        let (u, vm) = s.term(t);
                        (Tensor::from_matrix(u), Tensor::from_matrix(vm))
                    })
                })
                .collect();
            let [su, sl] = skels;
            let [pu, pl] = compiled;
            let half = |skel, plan| Half {
                skel,
                plan,
                ws: Workspace::new(),
                dirty: Vec::with_capacity(payloads.len()),
            };
            let mut r = Replayer {
                halves: [half(su, pu), half(sl, pl)],
                current: vec![usize::MAX; payloads.len()],
            };
            let full = tracer.span("tnet.full_replay", parent, req, |_| {
                r.replay(&payloads, job.level, false)
            });
            // The first delta pass grows the delta path's step buffer;
            // the second, timed one runs fully warm.
            r.replay(&payloads, job.level, true);
            let delta = tracer.span("tnet.delta_replay", parent, req, |_| {
                r.replay(&payloads, job.level, true)
            });
            full_calls += full.calls;
            delta_calls += delta.calls;
            let bitwise =
                full.level_sums.iter().zip(&delta.level_sums).all(|(a, b)| {
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
                });
            checks.check(bitwise, || {
                format!("layer job {j}: delta replay differs from full replay")
            });
            let bytes = full.alloc_bytes + delta.alloc_bytes;
            checks.check(bytes == 0, || {
                format!("layer job {j}: warmed replays allocated {bytes} bytes")
            });

            let main = run_levels(tracer, parent, req, job, job.threads, true);
            setup_s += main.setup_s;
            level_s += main.level_s;
            patterns += main.patterns;
            // The same levels at 1 and 2 threads give the parallel
            // efficiency; the run above covers the workload's count.
            let other = run_levels(tracer, parent, req, job, 3 - job.threads, false);
            let (t1, t2) = if job.threads == 2 {
                (other.level_s, main.level_s)
            } else {
                (main.level_s, other.level_s)
            };
            efficiency.push(t1 / (2.0 * t2));
            // Exact replay counts from the tnet profiler, on a run of
            // its own so its clock reads stay out of the timings above.
            qns_tnet::profile::install(&registry);
            profiled_patterns += run_levels(tracer, parent, req, job, job.threads, false).patterns;
            qns_tnet::profile::uninstall();
        });
    }

    let spans = tracer.spans();
    let mean_ms = |name: &str| -> f64 {
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect();
        stats::mean(&d)
    };
    let total_ns = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum::<u64>() as f64
    };
    put(
        m,
        "tnet.full_replay_ns",
        total_ns("tnet.full_replay") / full_calls as f64,
    );
    put(
        m,
        "tnet.delta_replay_ns",
        total_ns("tnet.delta_replay") / delta_calls as f64,
    );
    put(m, "tnet.skeleton_build_ms", mean_ms("tnet.skeleton_build"));
    put(m, "tnet.order_search_ms", mean_ms("tnet.order_search"));
    put(m, "tnet.compile_ms", mean_ms("tnet.compile"));
    put(m, "tnet.plan_flops_proxy", stats::mean(&flops));
    put(m, "tnet.max_intermediate", max_intermediate as f64);
    put(
        m,
        "core.noise_svd_us",
        total_ns("core.noise_svd") / 1e3 / svd_calls as f64,
    );
    put(
        m,
        "core.evaluator_setup_ms",
        mean_ms("core.evaluator_setup"),
    );
    for (span, metric) in LEVEL_SPANS.iter().zip(LEVEL_METRICS) {
        put(m, metric, mean_ms(span));
    }
    put(m, "core.patterns_per_s", patterns as f64 / level_s);
    put(m, "core.setup_share", setup_s / (setup_s + level_s));
    put(
        m,
        "core.setup_share_base_ms",
        (setup_s + level_s) * 1e3 / jobs.len() as f64,
    );
    put(m, "core.parallel_efficiency", stats::mean(&efficiency));

    let snap = registry.snapshot();
    let count = |mode: &str| {
        snap.counter_value_labeled("qns_tnet_replays_total", mode)
            .unwrap_or(0)
    };
    let delta_steps = snap
        .histogram_value_labeled("qns_tnet_replay_steps", "delta")
        .map_or(0, |h| h.sum);
    put(m, "tnet.replays_full", count("full") as f64);
    put(m, "tnet.replays_delta", count("delta") as f64);
    put(
        m,
        "tnet.delta_steps_per_pattern",
        delta_steps as f64 / profiled_patterns as f64,
    );
}
