//! Anytime-refinement benchmark: time-to-first-estimate under a tight
//! pattern budget vs time-to-full-refinement, and the speedup a
//! resubmission gets from resuming cached per-level partial sums.
//!
//! Usage:
//!   cargo run -p qns-bench --release --bin anytime_bench -- \
//!       [--smoke] [--workers W] [--noises N] [--budget-level K] \
//!       [--out PATH]
//!
//! Each registry circuit is refined twice through one
//! `qns_serve::Service`: a fresh run budgeted to answer first at level
//! `K`, then a resubmission that replays every level from the
//! partial-sum cache. The run writes a machine-readable
//! `BENCH_anytime.json` (CI uploads it as an artifact), including
//! p50/p95/p99 queue-wait, end-to-end and per-level latency fields
//! derived from the service's registry histograms.
//!
//! `--smoke` is the CI mode, with hard *assertions* on the anytime
//! contract: the budgeted first answer arrives at its promised level
//! having executed exactly that level's planned pattern count (no
//! deeper pattern ran for it), the subsequently streamed next level is
//! bitwise identical to a fresh one-shot run at that level, and the
//! resumed refinement reproduces the fresh one bit for bit.

use qns_api::{ApproxBackend, Backend};
use qns_bench::registry::{default_set, smoke_set, BenchCircuit};
use qns_bench::timing::time_it;
use qns_bench::{arg_flag, arg_usize, print_row};
use qns_core::bounds;
use qns_noise::{channels, NoisyCircuit};
use qns_serve::{JobSpec, RefineRequest, Service, ServiceBuilder};
use std::io::Write;

struct CircuitReport {
    name: String,
    n_noises: usize,
    first_level: usize,
    final_level: usize,
    time_to_first: f64,
    time_to_final: f64,
    resume_time: f64,
    resume_speedup: f64,
}

fn build_specs(set: &[BenchCircuit], noises: usize) -> Vec<(String, JobSpec)> {
    let channel = channels::thermal_relaxation(30.0, 40.0, 25.0);
    set.iter()
        .enumerate()
        .map(|(i, bench)| {
            let noisy = NoisyCircuit::inject_random(
                bench.circuit.clone(),
                &channel,
                noises,
                0xA27 + i as u64,
            );
            (bench.name.clone(), JobSpec::zeros(noisy))
        })
        .collect()
}

fn refine_circuit(
    service: &Service,
    name: &str,
    spec: &JobSpec,
    budget_level: usize,
    smoke: bool,
) -> CircuitReport {
    let n = spec.noisy().noise_count();
    let budget = bounds::planned_patterns(n, budget_level.min(n));
    let req = RefineRequest::new().with_pattern_budget(budget);

    // Fresh run: budgeted first answer, then background escalation.
    let handle = service
        .submit_refine(spec, &req)
        .expect("registry jobs are feasible");
    let (first, time_to_first) = time_it(|| handle.wait_first().expect("refinement runs"));
    let (last, time_to_final) = time_it(|| handle.wait_final().expect("refinement completes"));

    // Resumed run: same job, same budget — every level replays from
    // the partial-sum cache.
    let resumed = service
        .submit_refine(spec, &req)
        .expect("registry jobs are feasible");
    let (resumed_last, resume_time) = time_it(|| resumed.wait_final().expect("resume completes"));

    let fresh_total = time_to_first + time_to_final;
    let report = CircuitReport {
        name: name.to_string(),
        n_noises: n,
        first_level: handle.first_level(),
        final_level: handle.final_level(),
        time_to_first,
        time_to_final,
        resume_time,
        resume_speedup: fresh_total / resume_time.max(1e-9),
    };

    if smoke {
        // The anytime contract, asserted per circuit.
        let k = handle.first_level();
        assert_eq!(first.partial.level, k, "{name}: first answer at its level");
        assert_eq!(
            first.partial.patterns_done as u128,
            bounds::planned_patterns_for_ranks(&qns_core::site_ranks(spec.noisy()), k),
            "{name}: the level-{k} answer executed no deeper pattern"
        );
        assert!(
            first.estimate.error_bound.is_some() || first.estimate.is_exact(),
            "{name}: the first answer carries its Theorem-1 certificate"
        );
        if k < handle.final_level() {
            let next = handle.wait_level(k + 1).expect("escalation reaches k+1");
            let direct = ApproxBackend::level(k + 1)
                .expectation(&spec.job())
                .expect("direct run is feasible");
            assert_eq!(
                next.estimate.value.to_bits(),
                direct.value.to_bits(),
                "{name}: streamed level {} must be bitwise identical to a fresh run",
                k + 1
            );
        }
        assert!(last.estimate.is_exact(), "{name}: full level is exact");
        assert_eq!(
            last.estimate.value.to_bits(),
            resumed_last.estimate.value.to_bits(),
            "{name}: resume must reproduce the fresh refinement bit for bit"
        );
        assert!(
            resumed.updates().iter().all(|u| u.from_cache),
            "{name}: the resumed run must replay entirely from the cache"
        );
    }
    report
}

/// `{"count":…,"p50_micros":…,…}` for one latency histogram out of the
/// service registry (quantiles are bucket upper bounds).
fn latency_json(service: &Service, name: &str) -> String {
    match service.metrics_snapshot().histogram_value(name) {
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

fn write_report(
    path: &str,
    mode: &str,
    workers: usize,
    reports: &[CircuitReport],
    service: &Service,
) {
    let stats = service.stats();
    let mut circuits = String::new();
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            circuits.push(',');
        }
        circuits.push_str(&format!(
            "{{\"name\":\"{}\",\"n_noises\":{},\"first_level\":{},\"final_level\":{},\
             \"time_to_first_seconds\":{:.6},\"time_to_final_seconds\":{:.6},\
             \"resume_seconds\":{:.6},\"resume_speedup\":{:.2}}}",
            r.name,
            r.n_noises,
            r.first_level,
            r.final_level,
            r.time_to_first,
            r.time_to_final,
            r.resume_time,
            r.resume_speedup
        ));
    }
    let mut levels = String::new();
    for (i, (level, count)) in stats.refine_levels_completed.iter().enumerate() {
        if i > 0 {
            levels.push(',');
        }
        levels.push_str(&format!("\"{level}\":{count}"));
    }
    let json = format!(
        "{{\"mode\":\"{mode}\",\"workers\":{workers},\"refinements\":{},\
         \"refine_levels_completed\":{{{levels}}},\"refine_levels_from_cache\":{},\
         \"partial_cache_hits\":{},\"partial_cache_misses\":{},\
         \"partial_cache_hit_rate\":{:.4},\"queue_wait\":{},\"e2e_latency\":{},\
         \"refine_level\":{},\"circuits\":[{circuits}]}}\n",
        stats.refinements,
        stats.refine_levels_from_cache,
        stats.partial_cache.hits,
        stats.partial_cache.misses,
        stats.partial_cache_hit_rate(),
        latency_json(service, "qns_serve_queue_wait_micros"),
        latency_json(service, "qns_serve_e2e_latency_micros"),
        latency_json(service, "qns_serve_refine_level_micros"),
    );
    let mut f = std::fs::File::create(path).expect("create bench report");
    f.write_all(json.as_bytes()).expect("write bench report");
    println!("\nreport written to {path}");
}

fn main() {
    let smoke = arg_flag("--smoke");
    let workers = arg_usize("--workers", 2);
    let noises = arg_usize("--noises", if smoke { 6 } else { 8 });
    let budget_level = arg_usize("--budget-level", 1);
    let out = std::env::args()
        .collect::<Vec<_>>()
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone())
        .unwrap_or_else(|| "BENCH_anytime.json".to_string());

    let set = if smoke { smoke_set() } else { default_set() };
    let specs = build_specs(&set, noises);

    println!(
        "anytime_bench — {} circuits, {noises} noise sites, first answer \
         budgeted for level {budget_level}, {workers} workers\n",
        specs.len()
    );

    let service = ServiceBuilder::new().workers(workers).build();
    let reports: Vec<CircuitReport> = specs
        .iter()
        .map(|(name, spec)| refine_circuit(&service, name, spec, budget_level, smoke))
        .collect();

    let widths = [12usize, 8, 8, 14, 14, 12, 10];
    print_row(
        &[
            "circuit".into(),
            "first".into(),
            "final".into(),
            "t_first (s)".into(),
            "t_final (s)".into(),
            "resume (s)".into(),
            "speedup".into(),
        ],
        &widths,
    );
    for r in &reports {
        print_row(
            &[
                r.name.clone(),
                format!("L{}", r.first_level),
                format!("L{}", r.final_level),
                format!("{:.4}", r.time_to_first),
                format!("{:.4}", r.time_to_final),
                format!("{:.4}", r.resume_time),
                format!("{:.1}x", r.resume_speedup),
            ],
            &widths,
        );
    }

    if smoke {
        let stats = service.stats();
        assert_eq!(stats.refinements, 2 * reports.len() as u64);
        assert_eq!(
            stats.partial_cache.hits,
            reports.len() as u64,
            "every resubmission resumed from the partial-sum cache"
        );
        assert_eq!(stats.refine_active, 0, "every refinement drained");
        // Histogram reconciliation: this workload is refinements only,
        // so every refinement was dequeued once and resolved one e2e
        // sample, and every freshly computed level was timed once.
        let snap = service.metrics_snapshot();
        let queue_wait = snap
            .histogram_value("qns_serve_queue_wait_micros")
            .expect("queue-wait histogram is in the catalog");
        assert_eq!(queue_wait.count(), stats.refinements);
        let e2e = snap
            .histogram_value("qns_serve_e2e_latency_micros")
            .expect("e2e histogram is in the catalog");
        assert_eq!(e2e.count(), stats.refinements);
        let level_micros = snap
            .histogram_value("qns_serve_refine_level_micros")
            .expect("level histogram is in the catalog");
        let fresh: u64 = stats.refine_levels_completed.values().sum();
        assert_eq!(
            level_micros.count(),
            fresh,
            "one timing sample per freshly computed level"
        );
        println!(
            "\nanytime invariants hold: budgeted levels, bitwise escalation, cache resume, \
             histogram reconciliation"
        );
    }

    write_report(
        &out,
        if smoke { "smoke" } else { "default" },
        workers,
        &reports,
        &service,
    );
}
