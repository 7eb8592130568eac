//! Exporters: Prometheus text exposition format and deterministic JSON.
//!
//! Both exporters are pure functions of a [`MetricsSnapshot`]: the
//! snapshot iterates families in catalog-name order and children in
//! label order, so the same recorded values always produce the same
//! bytes. A small Prometheus *parser* is included for the round-trip
//! tests and CI coverage assertions.

use crate::catalog::MetricKind;
use crate::journal::{DrainedEvents, EventKind};
use crate::registry::{
    ChildSnapshot, MetricSnapshot, MetricsSnapshot, ValueSnapshot, BUCKET_COUNT,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders the snapshot in Prometheus text exposition format
/// (`# HELP` / `# TYPE` headers, one sample per line, histogram
/// `_bucket`/`_sum`/`_count` expansion, gauge `_high_water` companion
/// series). Byte-deterministic for a given snapshot.
pub fn to_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for m in &snapshot.metrics {
        let _ = writeln!(out, "# HELP {} {}", m.name, prom_escape_help(m.help));
        let _ = writeln!(out, "# TYPE {} {}", m.name, m.kind.as_str());
        for child in &m.children {
            render_prom_child(&mut out, m, child);
        }
        if m.kind == MetricKind::Gauge {
            let _ = writeln!(
                out,
                "# HELP {}_high_water High-water mark of {}",
                m.name, m.name
            );
            let _ = writeln!(out, "# TYPE {}_high_water gauge", m.name);
            for child in &m.children {
                if let ValueSnapshot::Gauge(g) = &child.value {
                    let _ = writeln!(
                        out,
                        "{}_high_water{} {}",
                        m.name,
                        prom_labels(m, child, None),
                        g.high_water
                    );
                }
            }
        }
    }
    out
}

fn render_prom_child(out: &mut String, m: &MetricSnapshot, child: &ChildSnapshot) {
    match &child.value {
        ValueSnapshot::Counter(v) => {
            let _ = writeln!(out, "{}{} {}", m.name, prom_labels(m, child, None), v);
        }
        ValueSnapshot::Gauge(g) => {
            let _ = writeln!(out, "{}{} {}", m.name, prom_labels(m, child, None), g.value);
        }
        ValueSnapshot::Histogram(h) => {
            let mut cum = 0u64;
            for (i, &b) in h.buckets.iter().enumerate() {
                cum += b;
                let le = bucket_le_label(i);
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    m.name,
                    prom_labels(m, child, Some(&le)),
                    cum
                );
            }
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                m.name,
                prom_labels(m, child, None),
                h.sum
            );
            let _ = writeln!(
                out,
                "{}_count{} {}",
                m.name,
                prom_labels(m, child, None),
                h.count()
            );
        }
    }
}

/// The `le` label text of bucket `i`.
fn bucket_le_label(i: usize) -> String {
    if i + 1 == BUCKET_COUNT {
        "+Inf".to_string()
    } else {
        (1u64 << i).to_string()
    }
}

/// `{key="value",le="…"}`, or the empty string for a bare series.
fn prom_labels(m: &MetricSnapshot, child: &ChildSnapshot, le: Option<&str>) -> String {
    let mut parts = Vec::new();
    if let Some(key) = m.label_key {
        parts.push(format!("{}=\"{}\"", key, prom_escape_label(&child.label)));
    }
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn prom_escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn prom_escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Parses Prometheus text exposition back into a
/// `series-with-labels → value` map (comment lines skipped). Series
/// text is kept verbatim (e.g. `qns_x_bucket{le="4"}`), so rendering a
/// parsed sample reproduces its source line.
pub fn parse_prometheus(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value separator", lineno + 1))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {}: bad value `{value}`", lineno + 1))?;
        if out.insert(series.to_string(), value).is_some() {
            return Err(format!("line {}: duplicate series `{series}`", lineno + 1));
        }
    }
    Ok(out)
}

/// Renders the snapshot as a deterministic JSON document: families in
/// catalog-name order, children in label order, fixed key order, 2-space
/// indent. Byte-deterministic for a given snapshot.
pub fn to_json(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"metrics\": [");
    for (i, m) in snapshot.metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\n");
        let _ = writeln!(out, "      \"name\": \"{}\",", json_escape(m.name));
        let _ = writeln!(out, "      \"kind\": \"{}\",", m.kind.as_str());
        let _ = writeln!(out, "      \"help\": \"{}\",", json_escape(m.help));
        match m.label_key {
            Some(key) => {
                let _ = writeln!(out, "      \"label_key\": \"{}\",", json_escape(key));
            }
            None => {
                let _ = writeln!(out, "      \"label_key\": null,");
            }
        }
        out.push_str("      \"children\": [");
        for (j, child) in m.children.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("\n        ");
            render_json_child(&mut out, child);
        }
        if !m.children.is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("]\n    }");
    }
    if !snapshot.metrics.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

fn render_json_child(out: &mut String, child: &ChildSnapshot) {
    let label = json_escape(&child.label);
    match &child.value {
        ValueSnapshot::Counter(v) => {
            let _ = write!(out, "{{\"label\": \"{label}\", \"value\": {v}}}");
        }
        ValueSnapshot::Gauge(g) => {
            let _ = write!(
                out,
                "{{\"label\": \"{label}\", \"value\": {}, \"high_water\": {}}}",
                g.value, g.high_water
            );
        }
        ValueSnapshot::Histogram(h) => {
            let _ = write!(
                out,
                "{{\"label\": \"{label}\", \"count\": {}, \"sum\": {}, \"buckets\": [",
                h.count(),
                h.sum
            );
            for (i, b) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
    }
}

/// Renders drained journal events as a deterministic JSON document.
pub fn events_to_json(drained: &DrainedEvents) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"dropped\": {},", drained.dropped);
    out.push_str("  \"events\": [");
    for (i, ev) in drained.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    {{\"seq\": {}, \"job\": {}, ", ev.seq, ev.job);
        match ev.kind {
            EventKind::Submitted => {
                out.push_str("\"type\": \"submitted\"");
            }
            EventKind::DedupJoined => {
                out.push_str("\"type\": \"dedup_joined\"");
            }
            EventKind::CacheHit => {
                out.push_str("\"type\": \"cache_hit\"");
            }
            EventKind::Enqueued { queue_depth } => {
                let _ = write!(
                    out,
                    "\"type\": \"enqueued\", \"queue_depth\": {queue_depth}"
                );
            }
            EventKind::Dequeued { queue_wait_micros } => {
                let _ = write!(
                    out,
                    "\"type\": \"dequeued\", \"queue_wait_micros\": {queue_wait_micros}"
                );
            }
            EventKind::Routed { engine, cost } => {
                let _ = write!(
                    out,
                    "\"type\": \"routed\", \"engine\": \"{}\", \"cost\": {cost}",
                    json_escape(engine)
                );
            }
            EventKind::Executed { engine, micros, ok } => {
                let _ = write!(
                    out,
                    "\"type\": \"executed\", \"engine\": \"{}\", \"micros\": {micros}, \"ok\": {ok}",
                    json_escape(engine)
                );
            }
            EventKind::RefineSubmitted {
                first_level,
                final_level,
            } => {
                let _ = write!(
                    out,
                    "\"type\": \"refine_submitted\", \"first_level\": {first_level}, \"final_level\": {final_level}"
                );
            }
            EventKind::RefineLevel {
                level,
                patterns,
                micros,
                from_cache,
            } => {
                let _ = write!(
                    out,
                    "\"type\": \"refine_level\", \"level\": {level}, \"patterns\": {patterns}, \"micros\": {micros}, \"from_cache\": {from_cache}"
                );
            }
            EventKind::Retried {
                attempt,
                backoff_micros,
            } => {
                let _ = write!(
                    out,
                    "\"type\": \"retried\", \"attempt\": {attempt}, \"backoff_micros\": {backoff_micros}"
                );
            }
            EventKind::FailedOver { from, to } => {
                let _ = write!(
                    out,
                    "\"type\": \"failed_over\", \"from\": \"{}\", \"to\": \"{}\"",
                    json_escape(from),
                    json_escape(to)
                );
            }
            EventKind::TimedOut { after_micros } => {
                let _ = write!(
                    out,
                    "\"type\": \"timed_out\", \"after_micros\": {after_micros}"
                );
            }
            EventKind::Degraded {
                requested_level,
                served_level,
            } => {
                let _ = write!(
                    out,
                    "\"type\": \"degraded\", \"requested_level\": {requested_level}, \"served_level\": {served_level}"
                );
            }
            EventKind::Shed { queue_depth } => {
                let _ = write!(out, "\"type\": \"shed\", \"queue_depth\": {queue_depth}");
            }
            EventKind::Resolved { ok } => {
                let _ = write!(out, "\"type\": \"resolved\", \"ok\": {ok}");
            }
        }
        out.push('}');
    }
    if !drained.events.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::journal::{Event, Journal};
    use crate::registry::Registry;

    fn seeded_registry() -> Registry {
        let reg = Registry::new();
        reg.counter(&catalog::SERVE_JOBS_SUBMITTED_TOTAL).add(7);
        reg.counter_labeled(&catalog::SERVE_BACKEND_JOBS_TOTAL, "approx")
            .add(3);
        reg.gauge(&catalog::SERVE_QUEUE_DEPTH).add(5);
        reg.gauge(&catalog::SERVE_QUEUE_DEPTH).add(-2);
        reg.histogram(&catalog::SERVE_QUEUE_WAIT_MICROS).record(3);
        reg.histogram(&catalog::SERVE_QUEUE_WAIT_MICROS).record(700);
        reg
    }

    #[test]
    fn prometheus_export_is_deterministic_and_parses() {
        let reg = seeded_registry();
        let snap = reg.snapshot();
        let a = to_prometheus(&snap);
        let b = to_prometheus(&snap);
        assert_eq!(a, b, "same snapshot ⇒ same bytes");

        let parsed = parse_prometheus(&a).unwrap();
        assert_eq!(parsed["qns_serve_jobs_submitted_total"], 7.0);
        assert_eq!(
            parsed["qns_serve_backend_jobs_total{backend=\"approx\"}"],
            3.0
        );
        assert_eq!(parsed["qns_serve_queue_depth"], 3.0);
        assert_eq!(parsed["qns_serve_queue_depth_high_water"], 5.0);
        assert_eq!(parsed["qns_serve_queue_wait_micros_count"], 2.0);
        assert_eq!(parsed["qns_serve_queue_wait_micros_sum"], 703.0);
        // 3 → le=4 bucket; cumulative counts step at 4 and 1024.
        assert_eq!(parsed["qns_serve_queue_wait_micros_bucket{le=\"2\"}"], 0.0);
        assert_eq!(parsed["qns_serve_queue_wait_micros_bucket{le=\"4\"}"], 1.0);
        assert_eq!(
            parsed["qns_serve_queue_wait_micros_bucket{le=\"1024\"}"],
            2.0
        );
        assert_eq!(
            parsed["qns_serve_queue_wait_micros_bucket{le=\"+Inf\"}"],
            2.0
        );
    }

    #[test]
    fn json_export_is_deterministic_and_parses() {
        let reg = seeded_registry();
        let snap = reg.snapshot();
        let a = to_json(&snap);
        assert_eq!(a, to_json(&snap));

        let doc = crate::json::parse(&a).unwrap();
        let metrics = doc.get("metrics").unwrap().as_array().unwrap();
        assert_eq!(metrics.len(), crate::catalog::CATALOG.len());
        let submitted = metrics
            .iter()
            .find(|m| {
                m.get("name").and_then(|n| n.as_str()) == Some("qns_serve_jobs_submitted_total")
            })
            .unwrap();
        let children = submitted.get("children").unwrap().as_array().unwrap();
        assert_eq!(children[0].get("value").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn events_render_all_variants() {
        let mut j = Journal::with_capacity(16);
        j.record(1, EventKind::Submitted);
        j.record(1, EventKind::Enqueued { queue_depth: 1 });
        j.record(
            1,
            EventKind::Dequeued {
                queue_wait_micros: 12,
            },
        );
        j.record(
            1,
            EventKind::Routed {
                engine: "approx",
                cost: 9,
            },
        );
        j.record(
            1,
            EventKind::Executed {
                engine: "approx",
                micros: 40,
                ok: true,
            },
        );
        j.record(1, EventKind::Resolved { ok: true });
        j.record(2, EventKind::DedupJoined);
        j.record(3, EventKind::CacheHit);
        j.record(
            4,
            EventKind::RefineSubmitted {
                first_level: 1,
                final_level: 3,
            },
        );
        j.record(
            4,
            EventKind::RefineLevel {
                level: 1,
                patterns: 5,
                micros: 8,
                from_cache: false,
            },
        );
        let drained = j.drain();
        let rendered = events_to_json(&drained);
        let doc = crate::json::parse(&rendered).unwrap();
        assert_eq!(doc.get("dropped").unwrap().as_u64(), Some(0));
        let events = doc.get("events").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 10);
        assert_eq!(events[3].get("engine").unwrap().as_str(), Some("approx"));
        assert_eq!(
            events[9].get("from_cache"),
            Some(&crate::json::JsonValue::Bool(false))
        );
    }

    #[test]
    fn empty_journal_renders_empty_array() {
        let drained = DrainedEvents {
            events: Vec::<Event>::new(),
            dropped: 0,
        };
        let rendered = events_to_json(&drained);
        assert!(crate::json::parse(&rendered).is_ok());
        assert!(rendered.contains("\"events\": []"));
    }
}
