//! Metric names and units. `BENCHMARK.json` lists the same names; a
//! test keeps the two in step. Later changes cite these names, so they
//! are fixed here.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run.
///
/// `latency_*` runs from issuing a request to its final answer (the
/// `deep_sum` job call, `submit`→`wait`, or `submit_refine`→
/// `wait_final`, where it is the final-answer time); `first_answer_*`
/// runs to the first usable answer, which for one-shot jobs is the
/// final one.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("makespan_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("first_answer_p50_ms", "ms"),
    ("first_answer_p95_ms", "ms"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("tnet.delta_replay_ns", "ns"),
    ("tnet.full_replay_ns", "ns"),
    ("tnet.delta_steps_per_pattern", "count"),
    ("tnet.replays_full", "count"),
    ("tnet.replays_delta", "count"),
    ("tnet.plan_flops_proxy", "count"),
    ("tnet.max_intermediate", "count"),
    ("tnet.skeleton_build_ms", "ms"),
    ("tnet.order_search_ms", "ms"),
    ("tnet.compile_ms", "ms"),
    ("core.noise_svd_us", "us"),
    ("core.evaluator_setup_ms", "ms"),
    ("core.level_ms.L0", "ms"),
    ("core.level_ms.L1", "ms"),
    ("core.level_ms.L2", "ms"),
    ("core.level_ms.L3", "ms"),
    ("core.patterns_per_s", "1/s"),
    ("core.setup_share", "ratio"),
    ("core.setup_share_base_ms", "ms"),
    ("core.parallel_efficiency", "ratio"),
    ("api.job_ms.approx", "ms"),
    ("api.job_ms.tnet", "ms"),
    ("api.job_ms.density", "ms"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_ms_mean", "ms"),
    ("serve.backend_ms_mean", "ms"),
    ("serve.tax_ms_mean", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.dedup_join_ratio", "ratio"),
    ("serve.executed_per_submitted", "ratio"),
    ("serve.partial_cache_hit_ratio", "ratio"),
    ("serve.levels_from_cache_ratio", "ratio"),
    ("serve.refine_level_ms_mean", "ms"),
    ("serve.first_level_mean", "count"),
    ("verify.max_error_over_bound", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Measured values by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Inserts `value` under `name` unless it is not finite (a ratio or
/// mean over no samples), so a metric is either measured or missing.
pub fn put(m: &mut Metrics, name: &'static str, value: f64) {
    if value.is_finite() {
        m.insert(name, value);
    }
}

/// Names from `wanted` that `m` lacks.
pub fn missing(m: &Metrics, wanted: &[(&'static str, &'static str)]) -> Vec<&'static str> {
    wanted
        .iter()
        .map(|&(n, _)| n)
        .filter(|n| !m.contains_key(n))
        .collect()
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`
/// over the metrics of `wanted`, in their listed order.
pub fn result_json(
    attempted: u64,
    failed: u64,
    m: &Metrics,
    wanted: &[(&'static str, &'static str)],
) -> String {
    let body: Vec<String> = wanted
        .iter()
        .filter_map(|&(name, unit)| {
            m.get(name)
                .map(|v| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}
