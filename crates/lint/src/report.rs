//! JSON report emission. Hand-rolled (the workspace vendors no serde):
//! the schema is flat and the only dynamic strings are file paths and
//! messages, which the private `json_escape` helper handles.

use crate::rules::Analysis;
use std::fmt::Write as _;

/// Renders the analysis as a deterministic, pretty-printed JSON
/// document: keys in fixed order, findings pre-sorted by
/// rule/file/line, panic counts in `BTreeMap` (crate-name) order.
/// Byte-identical across runs on the same tree — CI archives it and
/// the fixture test diffs it against a golden copy.
pub fn to_json(analysis: &Analysis, ratchet: &[RatchetRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"files_scanned\": {},", analysis.files_scanned);
    let _ = writeln!(out, "  \"suppressed\": {},", analysis.suppressed);

    out.push_str("  \"panic_counts\": {");
    for (i, (krate, count)) in analysis.panic_counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": {}", json_escape(krate), count);
    }
    if !analysis.panic_counts.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n");

    out.push_str("  \"ratchet\": [");
    for (i, row) in ratchet.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"crate\": \"{}\", \"baseline\": {}, \"current\": {}, \"ok\": {}}}",
            json_escape(&row.krate),
            row.baseline,
            row.current,
            row.current <= row.baseline
        );
    }
    if !ratchet.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");

    out.push_str("  \"findings\": [");
    for (i, f) in analysis.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            f.rule,
            json_escape(&f.file),
            f.line,
            json_escape(&f.message)
        );
    }
    if !analysis.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// One crate's ratchet comparison for the report.
#[derive(Clone, Debug)]
pub struct RatchetRow {
    /// Crate directory name (`serve`, `core`, …).
    pub krate: String,
    /// Committed ceiling from `panic-baseline.txt`.
    pub baseline: usize,
    /// Count measured on this tree.
    pub current: usize,
}

/// Escapes a string for embedding in a JSON string literal.
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
    use crate::rules::{rule, Finding};

    #[test]
    fn report_is_valid_shape_and_escapes() {
        let analysis = Analysis {
            files_scanned: 2,
            findings: vec![Finding {
                rule: rule::DETERMINISM,
                file: "a\\b.rs".to_string(),
                line: 3,
                message: "quote \" and newline \n".to_string(),
            }],
            ..Analysis::default()
        };
        let json = to_json(
            &analysis,
            &[RatchetRow {
                krate: "serve".to_string(),
                baseline: 5,
                current: 4,
            }],
        );
        assert!(json.contains("\"files_scanned\": 2"));
        assert!(json.contains("a\\\\b.rs"));
        assert!(json.contains("quote \\\" and newline \\n"));
        assert!(json.contains("\"ok\": true"));
        // Balanced braces/brackets outside strings is a cheap sanity
        // proxy for well-formedness without a JSON parser.
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn empty_analysis_renders_empty_collections() {
        let json = to_json(&Analysis::default(), &[]);
        assert!(json.contains("\"findings\": []"));
        assert!(json.contains("\"ratchet\": []"));
        assert!(json.contains("\"panic_counts\": {}"));
    }
}
