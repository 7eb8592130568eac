//! Serving-layer benchmark: hammer a `qns_serve::Service` with a
//! mixed registry workload full of duplicate submissions and report
//! throughput, cache-hit rate and single-flight wins.
//!
//! Usage:
//!   cargo run -p qns-bench --release --bin serve_bench -- \
//!       [--smoke] [--chaos SEED] [--workers W] [--level L] \
//!       [--noises N] [--repeats R] [--observables O] [--out PATH] \
//!       [--obs-dump PATH]
//!
//! Each unique job (registry circuit × observable) is submitted
//! `R` times, interleaved so duplicates arrive while their first
//! submission is queued, in flight, or cached — exercising all three
//! dedup paths. The run writes a machine-readable `BENCH_serve.json`
//! (CI uploads it as an artifact).
//!
//! Timing comes from the service's own registry, not the harness
//! stopwatch: `elapsed_seconds` is the submission window
//! (`qns_serve_window_last_resolve_micros −
//! qns_serve_window_first_submit_micros`), so report throughput
//! excludes harness setup, and the latency fields are the p50/p95/p99
//! upper bounds of the queue-wait and end-to-end histograms. The full
//! metric catalog can be dumped as deterministic JSON with
//! `--obs-dump PATH`; the tnet replay profiler is installed for the
//! run, so the dump includes per-mode compiled-plan replay counters.
//!
//! `--smoke` is the CI mode: the small registry smoke set, and hard
//! *assertions* on the serving invariants — exactly one backend
//! execution per unique job, every duplicate answered by the cache or
//! a single-flight join, no job routed to an engine that declared it
//! unsupported, per-stage histogram totals reconciling with the job
//! counts, byte-deterministic exports, and an `--obs-dump` file that
//! parses and covers the whole `qns_obs::catalog::CATALOG` — so a
//! serving or observability regression fails the pipeline.
//!
//! `--chaos SEED` is the fault-tolerance smoke: the same duplicate-heavy
//! workload against engines wrapped in [`qns_serve::ChaosBackend`]
//! under a seeded `FaultPlan` (injected errors, panics, latency), with
//! the retry/failover, circuit-breaker and deadline-watchdog machinery
//! enabled. It asserts the recovery contract — every handle resolves
//! exactly once (Ok or Err, never a hang), faults actually fired, and
//! nothing is left in flight — and records the recovery counters
//! (retries, failovers, timeouts, shed, degraded, breaker opens) plus
//! a `chaos` block in the report, so CI tracks how much chaos the
//! serving layer absorbed. The schedule is replayable: the same seed
//! injects the same per-failpoint firing sequence.

use qns_api::{ApproxBackend, DensityBackend, InitialState, Observable, TnetBackend};
use qns_bench::registry::{default_set, smoke_set, BenchCircuit};
use qns_bench::timing::time_it;
use qns_bench::{arg_flag, arg_usize, print_row};
use qns_noise::{channels, NoisyCircuit};
use qns_obs::{catalog, export, json, MetricsSnapshot};
use qns_serve::{
    default_engines, ChaosBackend, Failpoint, FaultPlan, JobSpec, RetryPolicy, Route, Service,
    ServiceBuilder, ServiceStats, TimeoutPolicy,
};
use std::io::Write;
use std::sync::Arc;

/// `--flag VALUE` string argument.
fn arg_str(name: &str) -> Option<String> {
    std::env::args()
        .collect::<Vec<_>>()
        .windows(2)
        .find(|w| w[0] == name)
        .map(|w| w[1].clone())
}

/// One unique job per (circuit, observable-bits) pair.
fn build_specs(set: &[BenchCircuit], noises: usize, observables: usize) -> Vec<JobSpec> {
    let channel = channels::thermal_relaxation(30.0, 40.0, 25.0);
    let mut specs = Vec::new();
    for (i, bench) in set.iter().enumerate() {
        let noisy = NoisyCircuit::inject_random(
            bench.circuit.clone(),
            &channel,
            noises,
            0x5E17E + i as u64,
        );
        let n = noisy.n_qubits();
        let noisy = Arc::new(noisy);
        for bits in 0..observables {
            specs.push(
                JobSpec::new(
                    Arc::clone(&noisy),
                    InitialState::zeros(n),
                    Observable::basis(n, bits),
                )
                .expect("registry jobs are well-formed"),
            );
        }
    }
    specs
}

/// Submits every spec `repeats` times and waits for all handles,
/// returning the elapsed seconds. The first `repeats − 1` rounds are
/// interleaved *without* waiting, so duplicates overlap their
/// originals (single-flight joins, or cache hits when a worker beat
/// the submitter); the final round runs after everything completed,
/// so it consists of guaranteed cache hits.
fn run_workload(service: &Service, specs: &[JobSpec], repeats: usize) -> f64 {
    let ((), elapsed) = time_it(|| {
        let handles: Vec<_> = (0..repeats.saturating_sub(1))
            .flat_map(|_| specs.iter())
            .map(|spec| service.submit(spec).expect("service accepts submissions"))
            .collect();
        for h in &handles {
            h.wait().expect("workload jobs are feasible");
        }
        for spec in specs {
            service
                .submit(spec)
                .expect("service accepts submissions")
                .wait()
                .expect("workload jobs are feasible");
        }
    });
    elapsed
}

/// The default engine trio wrapped in [`ChaosBackend`]s sharing one
/// seeded plan, mirroring the fault-tolerance suite's setup. Wrapping
/// is transparent to routing (names, support and cost hints all
/// delegate), so chaos runs exercise the same Auto decisions.
fn chaos_engines(level: usize, plan: &Arc<FaultPlan>) -> Vec<qns_serve::SharedBackend> {
    vec![
        Arc::new(ChaosBackend::new(
            ApproxBackend::level(level),
            Arc::clone(plan),
        )),
        Arc::new(ChaosBackend::new(DensityBackend::new(), Arc::clone(plan))),
        Arc::new(ChaosBackend::new(TnetBackend::new(), Arc::clone(plan))),
    ]
}

/// Chaos-mode workload: the same duplicate-heavy submission pattern,
/// but tolerant of injected failures — a job that exhausted its retry
/// budget resolves `Err`, which is a legitimate chaos outcome. What is
/// *not* legitimate is a handle that never resolves; `wait` returning
/// at all is the contract under test. Returns (ok, err, wall seconds).
fn run_chaos_workload(service: &Service, specs: &[JobSpec], repeats: usize) -> (u64, u64, f64) {
    let mut ok = 0u64;
    let mut err = 0u64;
    let ((), wall) = time_it(|| {
        let handles: Vec<_> = (0..repeats)
            .flat_map(|_| specs.iter())
            .map(|spec| {
                service
                    .submit(spec)
                    .expect("chaos run leaves admission open")
            })
            .collect();
        for h in &handles {
            match h.wait() {
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
        }
    });
    (ok, err, wall)
}

/// Chaos-mode summary recorded into the report's `chaos` block.
struct ChaosSummary {
    seed: u64,
    faults_fired: u64,
    resolved_ok: u64,
    resolved_err: u64,
}

/// The submission window in seconds, read from the registry's window
/// gauges: first accepted submission to last resolution. Harness setup
/// (spec construction, service build) is outside it by construction.
fn window_seconds(snap: &MetricsSnapshot) -> f64 {
    let first = snap
        .gauge_value("qns_serve_window_first_submit_micros")
        .map_or(0, |g| g.value);
    let last = snap
        .gauge_value("qns_serve_window_last_resolve_micros")
        .map_or(0, |g| g.value);
    (last - first).max(0) as f64 / 1e6
}

/// `{"count":…,"p50_micros":…,"p95_micros":…,"p99_micros":…}` for one
/// latency histogram (quantiles are bucket upper bounds).
fn latency_json(snap: &MetricsSnapshot, name: &str) -> String {
    match snap.histogram_value(name) {
        Some(h) => format!(
            "{{\"count\":{},\"p50_micros\":{},\"p95_micros\":{},\"p99_micros\":{}}}",
            h.count(),
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99)
        ),
        None => "{\"count\":0,\"p50_micros\":0,\"p95_micros\":0,\"p99_micros\":0}".to_string(),
    }
}

#[allow(clippy::too_many_arguments)]
fn write_report(
    path: &str,
    mode: &str,
    workers: usize,
    unique: usize,
    submitted: u64,
    elapsed: f64,
    wall: f64,
    stats: &ServiceStats,
    snap: &MetricsSnapshot,
    chaos: Option<&ChaosSummary>,
) {
    let mut backends = String::new();
    for (i, (name, b)) in stats.per_backend.iter().enumerate() {
        if i > 0 {
            backends.push(',');
        }
        backends.push_str(&format!(
            "\"{name}\":{{\"jobs\":{},\"seconds\":{:.6}}}",
            b.jobs, b.seconds
        ));
    }
    let chaos_block = chaos.map_or(String::new(), |c| {
        format!(
            "\"chaos\":{{\"seed\":{},\"faults_fired\":{},\"resolved_ok\":{},\
             \"resolved_err\":{}}},",
            c.seed, c.faults_fired, c.resolved_ok, c.resolved_err
        )
    });
    let json = format!(
        "{{\"mode\":\"{mode}\",\"workers\":{workers},\"unique_jobs\":{unique},\
         \"submitted\":{submitted},\"executed\":{},\"cache_hits\":{},\
         \"cache_misses\":{},\"cache_evictions\":{},\"dedup_joins\":{},\
         \"hit_rate\":{:.4},\"queue_high_water\":{},\"retries\":{},\
         \"failovers\":{},\"timeouts\":{},\"shed\":{},\"degraded\":{},\
         \"breaker_opens\":{},{chaos_block}\"elapsed_seconds\":{:.6},\
         \"wall_seconds\":{:.6},\"throughput_jobs_per_sec\":{:.2},\
         \"queue_wait\":{},\"e2e_latency\":{},\"backends\":{{{backends}}}}}\n",
        stats.executed,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        stats.dedup_joins,
        stats.cache_hit_rate(),
        stats.queue_high_water,
        stats.retries,
        stats.failovers,
        stats.timeouts,
        stats.shed,
        stats.degraded,
        stats.breaker_opens,
        elapsed,
        wall,
        submitted as f64 / elapsed.max(1e-9),
        latency_json(snap, "qns_serve_queue_wait_micros"),
        latency_json(snap, "qns_serve_e2e_latency_micros"),
    );
    let mut f = std::fs::File::create(path).expect("create bench report");
    f.write_all(json.as_bytes()).expect("write bench report");
    println!("\nreport written to {path}");
}

fn main() {
    let smoke = arg_flag("--smoke");
    let chaos_seed = arg_str("--chaos").map(|s| {
        s.parse::<u64>()
            .expect("--chaos takes the u64 fault-plan seed")
    });
    let workers = arg_usize("--workers", 4);
    let level = arg_usize("--level", 1);
    let noises = arg_usize(
        "--noises",
        if smoke || chaos_seed.is_some() { 6 } else { 8 },
    );
    let repeats = arg_usize("--repeats", 4);
    let observables = arg_usize("--observables", 2);
    let out = arg_str("--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
    let obs_dump = arg_str("--obs-dump");

    // Chaos runs use the smoke registry set: the point is the recovery
    // machinery, not throughput, and CI wants it quick.
    let set = if smoke || chaos_seed.is_some() {
        smoke_set()
    } else {
        default_set()
    };
    let specs = build_specs(&set, noises, observables);
    let unique = specs.len();
    let total = unique * repeats;

    println!(
        "serve_bench — {} unique jobs × {repeats} submissions = {total} total, \
         {workers} workers, level-{level} approximation, Route::Auto{}\n",
        unique,
        chaos_seed.map_or(String::new(), |s| format!(", chaos seed {s}")),
    );

    let plan = chaos_seed.map(|seed| {
        // Error/panic/latency mix aggressive enough that every recovery
        // path fires on the smoke set, bounded so retries converge.
        Arc::new(
            FaultPlan::new(seed)
                .with_error(Failpoint::BackendError, 250)
                .with_error(Failpoint::BackendPanic, 100)
                .with_delay(Failpoint::BackendDelay, 150, 200),
        )
    });
    let service = if let Some(plan) = &plan {
        // Chaos-wrapped engine trio with the full recovery stack:
        // bounded retries with failover, per-engine breakers (default
        // policy), and the deadline watchdog.
        ServiceBuilder::new()
            .workers(workers)
            .cache_capacity(2 * unique)
            .route(Route::Auto)
            .engines(chaos_engines(level, plan))
            .retry_policy(RetryPolicy {
                seed: plan.seed(),
                ..RetryPolicy::default()
            })
            .timeout_policy(TimeoutPolicy::default())
            .build()
    } else {
        // The default engine set, with the approximation level
        // configurable (the one knob the mixed workload is sensitive
        // to). Replace the approx engine by name, not position, so a
        // reordered `default_engines()` can't silently swap out a
        // different engine.
        let mut engines = default_engines();
        let approx = engines
            .iter_mut()
            .find(|e| e.name() == "approx")
            .expect("default_engines() always includes the approx engine");
        *approx = Arc::new(ApproxBackend::level(level));
        ServiceBuilder::new()
            .workers(workers)
            .cache_capacity(2 * unique)
            .route(Route::Auto)
            .engines(engines)
            .build()
    };

    // Route the compiled-plan replay profiler into the service's own
    // registry, so the dump carries full/delta replay counters next to
    // the serving metrics.
    qns_tnet::profile::install(&service.metrics_registry());

    let (chaos_resolved, wall) = if plan.is_some() {
        let (ok, err, wall) = run_chaos_workload(&service, &specs, repeats);
        (Some((ok, err)), wall)
    } else {
        (None, run_workload(&service, &specs, repeats))
    };
    qns_tnet::profile::uninstall();
    let stats = service.stats();
    let snap = service.metrics_snapshot();
    let elapsed = window_seconds(&snap);
    let queue_wait = snap
        .histogram_value("qns_serve_queue_wait_micros")
        .expect("queue-wait histogram is in the catalog")
        .clone();
    let e2e = snap
        .histogram_value("qns_serve_e2e_latency_micros")
        .expect("e2e histogram is in the catalog")
        .clone();

    let widths = [22usize, 12];
    let rows: Vec<(&str, String)> = vec![
        ("submitted", stats.submitted.to_string()),
        ("executed", stats.executed.to_string()),
        ("cache hits", stats.cache_hits.to_string()),
        ("dedup joins", stats.dedup_joins.to_string()),
        ("cache evictions", stats.cache_evictions.to_string()),
        ("hit rate", format!("{:.3}", stats.cache_hit_rate())),
        ("queue high-water", stats.queue_high_water.to_string()),
        ("window (s)", format!("{elapsed:.3}")),
        ("wall (s)", format!("{wall:.3}")),
        (
            "throughput (jobs/s)",
            format!("{:.1}", total as f64 / elapsed.max(1e-9)),
        ),
        (
            "queue wait p50/p99",
            format!(
                "{}µs/{}µs",
                queue_wait.quantile(0.5),
                queue_wait.quantile(0.99)
            ),
        ),
        (
            "e2e p50/p99",
            format!("{}µs/{}µs", e2e.quantile(0.5), e2e.quantile(0.99)),
        ),
    ];
    for (label, value) in rows {
        print_row(&[label.to_string(), value], &widths);
    }
    println!();
    for (name, b) in &stats.per_backend {
        print_row(
            &[
                format!("backend {name}"),
                format!("{} jobs", b.jobs),
                format!("{:.3}s", b.seconds),
            ],
            &[22, 12, 10],
        );
    }

    let chaos_summary = plan.as_ref().map(|plan| {
        let (ok, err) = chaos_resolved.expect("chaos workload ran");
        ChaosSummary {
            seed: plan.seed(),
            faults_fired: plan.total_fired(),
            resolved_ok: ok,
            resolved_err: err,
        }
    });
    if let Some(c) = &chaos_summary {
        println!();
        let rows: Vec<(&str, String)> = vec![
            ("faults fired", c.faults_fired.to_string()),
            ("resolved ok", c.resolved_ok.to_string()),
            ("resolved err", c.resolved_err.to_string()),
            ("retries", stats.retries.to_string()),
            ("failovers", stats.failovers.to_string()),
            ("timeouts", stats.timeouts.to_string()),
            ("shed", stats.shed.to_string()),
            ("degraded", stats.degraded.to_string()),
            ("breaker opens", stats.breaker_opens.to_string()),
        ];
        for (label, value) in rows {
            print_row(&[label.to_string(), value], &widths);
        }
        for (name, state) in service.breaker_states() {
            print_row(&[format!("breaker {name}"), format!("{state:?}")], &widths);
        }

        // The recovery-contract tripwires (CI runs this mode).
        assert_eq!(
            c.resolved_ok + c.resolved_err,
            total as u64,
            "every chaos handle resolves exactly once — Ok or Err, never a hang"
        );
        assert!(
            c.faults_fired > 0,
            "a chaos run with error/panic/delay rules must inject something"
        );
        assert_eq!(
            stats.inflight, 0,
            "no flight may outlive its last resolution"
        );
        assert!(
            stats.retries + stats.timeouts > 0,
            "injected faults must exercise the recovery machinery"
        );
        println!(
            "\nrecovery contract holds: {} faults absorbed, {} retries, \
             {} failovers, {} timeouts, every handle resolved",
            c.faults_fired, stats.retries, stats.failovers, stats.timeouts
        );
    }

    if smoke && chaos_summary.is_none() {
        // The serving-invariant tripwires (CI runs this mode).
        assert_eq!(
            stats.executed, unique as u64,
            "exactly one backend execution per unique job"
        );
        assert_eq!(
            stats.saved_executions(),
            (total - unique) as u64,
            "every duplicate answered by cache or single-flight join"
        );
        assert!(
            stats.cache_hits > 0,
            "a repeated workload must produce cache hits"
        );
        let routed: u64 = stats.per_backend.values().map(|b| b.jobs).sum();
        assert_eq!(
            routed, stats.executed,
            "every execution is attributed to exactly one engine"
        );

        // Observability tripwires: per-stage histogram totals reconcile
        // exactly with the job counts (cache hits and dedup joins never
        // enter the queue and never execute), the submission window is
        // latched and sane, and a quiesced registry exports
        // byte-identical documents.
        assert_eq!(
            queue_wait.count(),
            stats.executed,
            "every executed job was dequeued exactly once"
        );
        assert_eq!(
            e2e.count(),
            stats.executed,
            "every executed job resolved exactly one e2e sample"
        );
        assert!(elapsed > 0.0, "submission window gauges latched");
        assert!(
            elapsed <= wall,
            "window cannot exceed the harness wall clock"
        );
        let full = snap
            .counter_value_labeled("qns_tnet_replays_total", "full")
            .unwrap_or(0);
        let delta = snap
            .counter_value_labeled("qns_tnet_replays_total", "delta")
            .unwrap_or(0);
        assert!(full > 0, "approx executions replay compiled plans");
        assert!(
            delta > 0,
            "the pattern sum's warm replays take the delta path"
        );
        assert_eq!(
            export::to_prometheus(&snap),
            export::to_prometheus(&service.metrics_snapshot()),
            "quiesced Prometheus export must be byte-deterministic"
        );
        assert_eq!(
            export::to_json(&snap),
            export::to_json(&service.metrics_snapshot()),
            "quiesced JSON export must be byte-deterministic"
        );
        println!(
            "\nserving invariants hold: single-flight, cache, routing attribution, \
             histogram reconciliation, deterministic exports"
        );
    }

    if let Some(dump_path) = &obs_dump {
        let mut f = std::fs::File::create(dump_path).expect("create obs dump");
        f.write_all(export::to_json(&snap).as_bytes())
            .expect("write obs dump");
        println!("metrics snapshot written to {dump_path}");
        if smoke {
            // CI artifact contract: the written file parses with the
            // workspace's own reader and covers the entire catalog.
            let text = std::fs::read_to_string(dump_path).expect("read back obs dump");
            let doc = json::parse(&text).expect("obs dump parses");
            let metrics = doc
                .get("metrics")
                .and_then(|m| m.as_array())
                .expect("obs dump has a metrics array");
            for def in catalog::CATALOG {
                assert!(
                    metrics
                        .iter()
                        .any(|m| m.get("name").and_then(|n| n.as_str()) == Some(def.name)),
                    "obs dump must cover catalog entry {}",
                    def.name
                );
            }
            assert_eq!(
                metrics.len(),
                catalog::CATALOG.len(),
                "obs dump carries exactly the catalog families"
            );
            println!(
                "obs dump covers all {} catalog families",
                catalog::CATALOG.len()
            );
        }
    }

    write_report(
        &out,
        if chaos_summary.is_some() {
            "chaos"
        } else if smoke {
            "smoke"
        } else {
            "default"
        },
        workers,
        unique,
        stats.submitted,
        elapsed,
        wall,
        &stats,
        &snap,
        chaos_summary.as_ref(),
    );
}
