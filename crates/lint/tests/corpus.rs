//! Runs the analyzer over the seeded fixture corpus and checks both
//! the structured findings and the byte-exact golden JSON report.

use qns_lint::report::RatchetRow;
use qns_lint::rules::rule;
use qns_lint::{baseline, collect_sources, report, rules};
use std::path::Path;

fn fixture(path: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(path)
}

fn analyze_corpus() -> rules::Analysis {
    let sources = collect_sources(&fixture("corpus")).expect("collect fixture corpus");
    assert_eq!(sources.len(), 2, "fixture corpus drifted");
    rules::analyze_sources(&sources)
}

#[test]
fn corpus_findings_are_exactly_the_seeded_violations() {
    let a = analyze_corpus();

    let by_rule = |r: &str| -> Vec<(&str, u32)> {
        a.findings
            .iter()
            .filter(|f| f.rule == r)
            .map(|f| (f.file.as_str(), f.line))
            .collect()
    };

    assert_eq!(
        by_rule(rule::DETERMINISM),
        vec![
            ("crates/tnet/src/plan.rs", 4),
            ("crates/tnet/src/plan.rs", 5),
            ("crates/tnet/src/plan.rs", 9),
        ],
        "HashMap/Instant uses outside the suppressed line"
    );
    assert_eq!(a.findings.len(), 3, "determinism is the only finding rule");

    // Ratchet: two countable sites in core lib code, none elsewhere;
    // the cfg(test) unwraps and the allow(panic) expect are invisible.
    assert_eq!(a.panic_counts.get("core"), Some(&2));
    assert_eq!(a.panic_counts.get("tnet"), Some(&0));

    // 2 suppressed determinism hits on plan.rs:8 + 1 suppressed panic.
    assert_eq!(a.suppressed, 3);
}

#[test]
fn corpus_report_matches_golden_json() {
    let a = analyze_corpus();
    let baseline_text =
        std::fs::read_to_string(fixture("panic-baseline.txt")).expect("fixture baseline");
    let baseline_map = baseline::parse(&baseline_text).expect("parse fixture baseline");

    // core is over its fixture ceiling of 1 — the ratchet must say so.
    let violations = baseline::check(&baseline_map, &a.panic_counts);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].contains("`core`"));

    let rows: Vec<RatchetRow> = a
        .panic_counts
        .iter()
        .map(|(krate, &current)| RatchetRow {
            krate: krate.clone(),
            baseline: baseline_map.get(krate).copied().unwrap_or(0),
            current,
        })
        .collect();
    let rendered = report::to_json(&a, &rows);
    // UPDATE_GOLDEN=1 cargo test -p qns-lint … rewrites the golden in
    // place after an intentional schema or corpus change.
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(fixture("expected_report.json"), &rendered).expect("update golden");
    }
    let golden =
        std::fs::read_to_string(fixture("expected_report.json")).expect("golden report file");
    assert_eq!(
        rendered, golden,
        "report drifted from tests/fixtures/expected_report.json; \
         regenerate it if the change is intentional"
    );
}
