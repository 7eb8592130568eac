//! `BENCHMARK.json` names every metric the binary prints, with the
//! same unit, and the result line is the documented JSON object.

use qns_perfbench::metrics::{result_json, Metrics, END_TO_END, PER_LAYER};

fn definition() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory")
}

#[test]
fn benchmark_json_lists_the_metrics_with_their_units() {
    let def = definition();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(def.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let entries = def.matches("\"unit\":").count();
    assert_eq!(entries, END_TO_END.len() + PER_LAYER.len());
    for workload in ["deep_sum", "serve_mixed", "refine_stream"] {
        assert!(def.contains(&format!("\"name\": \"{workload}\", \"why\": ")));
    }
}

#[test]
fn result_line_has_the_four_keys() {
    let mut m = Metrics::new();
    m.insert("setup_s", 0.25);
    m.insert("makespan_s", 1.5e-7);
    let line = result_json(10, 0, &m, &END_TO_END);
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
         \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
         \"makespan_s\": {\"value\": 1.5e-7, \"unit\": \"s\"}}}"
    );
    assert!(result_json(3, 1, &m, &END_TO_END).starts_with("{\"correct\": false"));
}
