//! Property test: for arbitrary recorded values over the full catalog,
//! the Prometheus and JSON exporters are byte-deterministic and both
//! formats parse back to exactly the recorded values.

use proptest::prelude::*;
use qns_obs::catalog::MetricKind;
use qns_obs::{export, json, Registry, CATALOG};

/// Seeds every catalog family from one generated value per family
/// (labeled families get two children, `a` and `b`).
fn seed(reg: &Registry, values: &[u64]) {
    for (def, &v) in CATALOG.iter().zip(values) {
        match (def.kind, def.label.is_some()) {
            (MetricKind::Counter, false) => reg.counter(def).add(v),
            (MetricKind::Counter, true) => {
                reg.counter_labeled(def, "a").add(v);
                reg.counter_labeled(def, "b").add(v / 3);
            }
            (MetricKind::Gauge, false) => {
                let g = reg.gauge(def);
                g.set(v as i64);
                g.add(-((v / 2) as i64));
            }
            (MetricKind::Gauge, true) => {
                let a = reg.gauge_labeled(def, "a");
                a.set(v as i64);
                a.add(-((v / 2) as i64));
                reg.gauge_labeled(def, "b").set((v / 3) as i64);
            }
            (MetricKind::Histogram, false) => {
                let h = reg.histogram(def);
                h.record(v);
                h.record(v / 7);
                h.record(v % 1024);
            }
            (MetricKind::Histogram, true) => {
                reg.histogram_labeled(def, "a").record(v);
                reg.histogram_labeled(def, "b").record(v % 4096);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn exports_round_trip_every_catalog_metric(
        values in proptest::collection::vec(0u64..1_000_000_000_000, CATALOG.len())
    ) {
        let reg = Registry::new();
        seed(&reg, &values);
        let snap = reg.snapshot();

        // Determinism: same snapshot, same bytes — and a second snapshot
        // of the quiesced registry exports identically too.
        let prom = export::to_prometheus(&snap);
        let json_doc = export::to_json(&snap);
        prop_assert_eq!(&prom, &export::to_prometheus(&reg.snapshot()));
        prop_assert_eq!(&json_doc, &export::to_json(&reg.snapshot()));

        // JSON round trip: every catalog family present with the
        // recorded values.
        let parsed = json::parse(&json_doc).map_err(|e| {
            proptest::test_runner::TestCaseError::fail(format!("json parse: {e}"))
        })?;
        let metrics = parsed.get("metrics").and_then(|m| m.as_array()).ok_or_else(|| {
            proptest::test_runner::TestCaseError::fail("missing metrics array")
        })?;
        prop_assert_eq!(metrics.len(), CATALOG.len());
        // Snapshot families iterate in sorted-name order, not catalog
        // declaration order; sort the defs to pair them up.
        let mut sorted_defs: Vec<_> = CATALOG.iter().collect();
        sorted_defs.sort_unstable_by_key(|d| d.name);
        for (def, m) in sorted_defs.iter().zip(metrics) {
            prop_assert_eq!(m.get("name").and_then(|n| n.as_str()), Some(def.name));
            let children = m.get("children").and_then(|c| c.as_array()).ok_or_else(|| {
                proptest::test_runner::TestCaseError::fail("missing children")
            })?;
            prop_assert!(!children.is_empty(), "family {} has no children", def.name);
            for child in children {
                let label = child.get("label").and_then(|l| l.as_str()).unwrap_or("?");
                match def.kind {
                    MetricKind::Counter => {
                        let got = child.get("value").and_then(|v| v.as_u64());
                        let want = snap.counter_value_labeled(def.name, label)
                            .or_else(|| snap.counter_value(def.name));
                        prop_assert_eq!(got, want, "{}{{{}}}", def.name, label);
                    }
                    MetricKind::Gauge => {
                        let g = snap.gauge_value_labeled(def.name, label)
                            .or_else(|| snap.gauge_value(def.name))
                            .ok_or_else(|| {
                                proptest::test_runner::TestCaseError::fail("gauge missing")
                            })?;
                        prop_assert_eq!(child.get("value").and_then(|v| v.as_i64()), Some(g.value));
                        prop_assert_eq!(
                            child.get("high_water").and_then(|v| v.as_i64()),
                            Some(g.high_water)
                        );
                    }
                    MetricKind::Histogram => {
                        let h = snap.histogram_value_labeled(def.name, label)
                            .or_else(|| snap.histogram_value(def.name))
                            .ok_or_else(|| {
                                proptest::test_runner::TestCaseError::fail("histogram missing")
                            })?;
                        prop_assert_eq!(child.get("count").and_then(|v| v.as_u64()), Some(h.count()));
                        prop_assert_eq!(child.get("sum").and_then(|v| v.as_u64()), Some(h.sum));
                        let buckets = child.get("buckets").and_then(|b| b.as_array()).ok_or_else(|| {
                            proptest::test_runner::TestCaseError::fail("missing buckets")
                        })?;
                        let got: Vec<u64> = buckets.iter().filter_map(|b| b.as_u64()).collect();
                        prop_assert_eq!(&got[..], &h.buckets[..]);
                    }
                }
            }
        }

        // Prometheus round trip: parsed samples match the snapshot.
        let series = export::parse_prometheus(&prom).map_err(|e| {
            proptest::test_runner::TestCaseError::fail(format!("prom parse: {e}"))
        })?;
        for def in CATALOG {
            match (def.kind, def.label.is_some()) {
                (MetricKind::Counter, false) => {
                    let want = snap.counter_value(def.name).unwrap_or(0) as f64;
                    prop_assert_eq!(series[def.name], want);
                }
                (MetricKind::Counter, true) => {
                    let key = def.label.unwrap_or("?");
                    for label in ["a", "b"] {
                        let want = snap.counter_value_labeled(def.name, label).unwrap_or(0) as f64;
                        prop_assert_eq!(series[&format!("{}{{{key}=\"{label}\"}}", def.name)], want);
                    }
                }
                (MetricKind::Gauge, false) => {
                    let g = snap.gauge_value(def.name).ok_or_else(|| {
                        proptest::test_runner::TestCaseError::fail("gauge missing")
                    })?;
                    prop_assert_eq!(series[def.name], g.value as f64);
                    prop_assert_eq!(series[&format!("{}_high_water", def.name)], g.high_water as f64);
                }
                (MetricKind::Gauge, true) => {
                    let key = def.label.unwrap_or("?");
                    for label in ["a", "b"] {
                        let g = snap.gauge_value_labeled(def.name, label).ok_or_else(|| {
                            proptest::test_runner::TestCaseError::fail("gauge missing")
                        })?;
                        prop_assert_eq!(
                            series[&format!("{}{{{key}=\"{label}\"}}", def.name)],
                            g.value as f64
                        );
                        prop_assert_eq!(
                            series[&format!("{}_high_water{{{key}=\"{label}\"}}", def.name)],
                            g.high_water as f64
                        );
                    }
                }
                (MetricKind::Histogram, false) => {
                    let h = snap.histogram_value(def.name).ok_or_else(|| {
                        proptest::test_runner::TestCaseError::fail("histogram missing")
                    })?;
                    prop_assert_eq!(series[&format!("{}_count", def.name)], h.count() as f64);
                    prop_assert_eq!(series[&format!("{}_sum", def.name)], h.sum as f64);
                    prop_assert_eq!(
                        series[&format!("{}_bucket{{le=\"+Inf\"}}", def.name)],
                        h.count() as f64,
                        "+Inf bucket is cumulative total"
                    );
                }
                (MetricKind::Histogram, true) => {
                    let key = def.label.unwrap_or("?");
                    for label in ["a", "b"] {
                        let h = snap.histogram_value_labeled(def.name, label).ok_or_else(|| {
                            proptest::test_runner::TestCaseError::fail("histogram missing")
                        })?;
                        prop_assert_eq!(
                            series[&format!("{}_count{{{key}=\"{label}\"}}", def.name)],
                            h.count() as f64
                        );
                        prop_assert_eq!(
                            series[&format!("{}_sum{{{key}=\"{label}\"}}", def.name)],
                            h.sum as f64
                        );
                    }
                }
            }
        }
    }
}
