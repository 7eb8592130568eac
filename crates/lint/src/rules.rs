//! The rule engine: walks lexed files and enforces the workspace's
//! two token-level invariants, `determinism` and the `panic` ratchet.
//! See `docs/ANALYSIS.md` for the rationale, and for the invariants the
//! compiler and tests check instead.

use crate::lexer::{lex, Lexed, Tok, TokKind};
use std::collections::BTreeMap;

/// Rule names, as spelled in reports and `allow(…)` suppressions.
pub mod rule {
    /// Hash-order / wall-clock sources on bit-reproducibility paths.
    pub const DETERMINISM: &str = "determinism";
    /// The `unwrap`/`expect`/`panic!` ratchet.
    pub const PANIC: &str = "panic";
}

/// Files on the bit-reproducibility path: fingerprints, cache keys,
/// the pattern sum and its planning/replay machinery. Inside these
/// files the identifiers in [`DETERMINISM_BANNED`] are findings —
/// `HashMap`/`HashSet` because their iteration order varies run to
/// run (and it takes one refactor for a lookup-only map to grow an
/// iteration), `Instant`/`SystemTime` because wall-clock reads on a
/// sum/key path make outputs time-dependent. Use `BTreeMap`, sorted
/// iteration, or hoist the offending code off the listed path.
pub const DETERMINISM_PATHS: &[&str] = &[
    "crates/api/src/fingerprint.rs",
    "crates/api/src/refine.rs",
    "crates/core/src/approx.rs",
    "crates/core/src/bounds.rs",
    "crates/core/src/patterns.rs",
    "crates/core/src/refine.rs",
    "crates/serve/src/cache.rs",
    "crates/serve/src/refine.rs",
    "crates/tnet/src/builder.rs",
    "crates/tnet/src/exec.rs",
    "crates/tnet/src/plan.rs",
];

/// Identifiers banned by the `determinism` rule.
pub const DETERMINISM_BANNED: &[&str] = &["HashMap", "HashSet", "Instant", "SystemTime"];

/// One reported rule violation.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Which rule fired (one of the [`rule`] names).
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What went wrong and what to do about it.
    pub message: String,
}

/// Everything the analysis produced for one workspace tree.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Files scanned, for the report header.
    pub files_scanned: usize,
    /// All findings except panic-ratchet counts (those aggregate into
    /// [`Analysis::panic_counts`]), sorted by rule/file/line.
    pub findings: Vec<Finding>,
    /// Panic-prone sites (`.unwrap()`, `.expect(…)`, `panic!`) per
    /// crate, after suppressions and test stripping.
    pub panic_counts: BTreeMap<String, usize>,
    /// Findings silenced by `// qns-lint: allow(rule)` directives.
    pub suppressed: usize,
}

/// Analyzes a set of `(workspace-relative path, contents)` sources.
/// Paths use forward slashes. This is the pure core [`crate::analyze_root`]
/// wraps; fixture tests feed it directly.
pub fn analyze_sources(files: &[(String, String)]) -> Analysis {
    let mut analysis = Analysis {
        files_scanned: files.len(),
        ..Analysis::default()
    };

    for (path, content) in files {
        let lexed = lex(content);
        let tests = test_ranges(&lexed.toks);
        let mut file = FileCx {
            path,
            lexed: &lexed,
            in_test: &tests,
            analysis: &mut analysis,
        };
        file.determinism();
        file.panic_ratchet();
    }

    analysis.findings.sort();
    analysis
}

/// Per-file rule context.
struct FileCx<'a> {
    path: &'a str,
    lexed: &'a Lexed,
    /// Sorted, disjoint `[start, end)` token-index ranges of
    /// `#[cfg(test)]` items.
    in_test: &'a [(usize, usize)],
    analysis: &'a mut Analysis,
}

impl FileCx<'_> {
    fn is_test_tok(&self, idx: usize) -> bool {
        self.in_test.iter().any(|&(s, e)| idx >= s && idx < e)
    }

    /// `true` (and counted) when an `allow(rule)` directive covers
    /// `line`: a trailing comment covers its own line, a comment-only
    /// line covers the line below — never both, so a same-line
    /// suppression cannot leak onto the next statement.
    fn suppressed(&mut self, rule: &str, line: u32) -> bool {
        let hit = self.lexed.directives.iter().any(|d| {
            let own_line_has_code = self.lexed.toks.iter().any(|t| t.line == d.line);
            let covered = if own_line_has_code {
                d.line
            } else {
                d.line + 1
            };
            covered == line && allow_list(&d.payload).any(|r| r == rule)
        });
        if hit {
            self.analysis.suppressed += 1;
        }
        hit
    }

    fn report(&mut self, rule: &'static str, line: u32, message: String) {
        if self.suppressed(rule, line) {
            return;
        }
        self.analysis.findings.push(Finding {
            rule,
            file: self.path.to_string(),
            line,
            message,
        });
    }

    /// Rule `determinism`: banned identifiers in files on the
    /// bit-reproducibility path.
    fn determinism(&mut self) {
        if !DETERMINISM_PATHS.contains(&self.path) {
            return;
        }
        for i in 0..self.lexed.toks.len() {
            let t = &self.lexed.toks[i];
            if t.kind == TokKind::Ident
                && DETERMINISM_BANNED.contains(&t.text.as_str())
                && !self.is_test_tok(i)
            {
                let (line, name) = (t.line, t.text.clone());
                self.report(
                    rule::DETERMINISM,
                    line,
                    format!(
                        "`{name}` on a determinism-critical path; use BTreeMap/sorted \
                         iteration (or hoist off this path) so bit-reproducible \
                         outputs cannot depend on hash or wall-clock state"
                    ),
                );
            }
        }
    }

    /// Rule `panic`: counts `.unwrap()` / `.expect(…)` / `panic!`
    /// sites per crate (library code only; the ratchet comparison
    /// against the committed baseline happens in the caller).
    fn panic_ratchet(&mut self) {
        let Some(krate) = crate_of(self.path) else {
            return;
        };
        let toks = &self.lexed.toks;
        let mut count = 0usize;
        for i in 0..toks.len() {
            if self.is_test_tok(i) {
                continue;
            }
            let t = &toks[i];
            let site = (t.is_ident("unwrap") || t.is_ident("expect"))
                && i > 0
                && toks[i - 1].is_punct('.')
                || t.is_ident("panic")
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
                    // `core::panic::…` / `std::panic::catch_unwind` are
                    // panic *handling*, not panicking.
                    && !(i > 0 && toks[i - 1].is_punct(':'));
            if site && !self.suppressed(rule::PANIC, t.line) {
                count += 1;
            }
        }
        *self
            .analysis
            .panic_counts
            .entry(krate.to_string())
            .or_default() += count;
    }
}

/// Iterates the rule names inside an `allow(a, b, …)` payload.
fn allow_list(payload: &str) -> impl Iterator<Item = &str> {
    payload
        .strip_prefix("allow(")
        .and_then(|rest| rest.strip_suffix(')'))
        .into_iter()
        .flat_map(|inner| inner.split(',').map(str::trim))
}

/// Maps a workspace-relative source path to its crate name
/// (`crates/<dir>/src/… → qns-<dir>`, `src/… → qns`); `None` for
/// binary targets (`main.rs`, `src/bin/`), which are not library code
/// and sit outside the panic ratchet.
fn crate_of(path: &str) -> Option<&str> {
    if path.ends_with("/main.rs") || path.contains("/src/bin/") {
        return None;
    }
    if path.starts_with("src/") {
        return Some("qns");
    }
    let rest = path.strip_prefix("crates/")?;
    let dir_end = rest.find('/')?;
    Some(&path["crates/".len().."crates/".len() + dir_end])
}

/// Finds the index of the `}` matching the `{` at `open`.
fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len()
}

/// Token-index ranges covered by `#[cfg(test)]` items (attribute
/// through closing brace), so test code is invisible to the rules.
fn test_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if is_cfg_test_attr(toks, i) {
            let start = i;
            // Skip this attribute and any further ones.
            let mut j = skip_attr(toks, i);
            while toks.get(j).is_some_and(|t| t.is_punct('#'))
                && toks.get(j + 1).is_some_and(|t| t.is_punct('['))
            {
                j = skip_attr(toks, j);
            }
            // The annotated item runs to its closing brace (or a `;`
            // for brace-less items).
            let mut end = toks.len();
            for (k, t) in toks.iter().enumerate().skip(j) {
                if t.is_punct('{') {
                    end = matching_brace(toks, k) + 1;
                    break;
                }
                if t.is_punct(';') {
                    end = k + 1;
                    break;
                }
            }
            ranges.push((start, end));
            i = end;
        } else {
            i += 1;
        }
    }
    ranges
}

/// `true` when `toks[i..]` starts a `#[cfg(… test …)]` attribute.
fn is_cfg_test_attr(toks: &[Tok], i: usize) -> bool {
    if !(toks.get(i).is_some_and(|t| t.is_punct('#'))
        && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
        && toks.get(i + 2).is_some_and(|t| t.is_ident("cfg")))
    {
        return false;
    }
    let end = skip_attr(toks, i);
    // An ident `test` inside the attribute marks a test region —
    // unless it is negated (`cfg(not(test))` is library code).
    toks[i..end].iter().enumerate().any(|(off, t)| {
        let k = i + off;
        t.is_ident("test") && !(k >= 2 && toks[k - 1].is_punct('(') && toks[k - 2].is_ident("not"))
    })
}

/// Index just past the `]` closing the attribute starting at `#`.
fn skip_attr(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(i) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(p, c)| (p.to_string(), c.to_string()))
            .collect()
    }

    #[test]
    fn determinism_flags_banned_idents_outside_tests_only() {
        let src = "use std::collections::HashMap;\n\
                   #[cfg(test)]\nmod tests { use std::collections::HashMap; fn f() { let _: HashMap<u8,u8>; } }\n";
        let a = analyze_sources(&files(&[("crates/tnet/src/plan.rs", src)]));
        let det: Vec<_> = a
            .findings
            .iter()
            .filter(|f| f.rule == rule::DETERMINISM)
            .collect();
        assert_eq!(det.len(), 1, "{det:?}");
        assert_eq!(det[0].line, 1);
    }

    #[test]
    fn determinism_ignores_files_off_the_path() {
        let a = analyze_sources(&files(&[(
            "crates/sim/src/density.rs",
            "use std::collections::HashMap;",
        )]));
        assert!(a.findings.is_empty());
    }

    #[test]
    fn panic_sites_count_per_crate_and_respect_suppressions() {
        let src = "fn f(x: Option<u8>) -> u8 {\n\
                   let a = x.unwrap();\n\
                   let b = x.expect(\"msg\"); // qns-lint: allow(panic)\n\
                   if a == 0 { panic!(\"zero\"); }\n\
                   std::panic::catch_unwind(|| a).unwrap_or(b)\n}\n";
        let a = analyze_sources(&files(&[("crates/core/src/approx.rs", src)]));
        // unwrap + panic! count; the suppressed expect and the
        // unwrap_or / panic-path idents do not.
        assert_eq!(a.panic_counts.get("core"), Some(&2));
        assert_eq!(a.suppressed, 1);
    }

    #[test]
    fn bins_are_outside_the_ratchet() {
        let src = "fn main() { None::<u8>.unwrap(); }";
        let a = analyze_sources(&files(&[
            ("crates/bench/src/bin/table2.rs", src),
            ("crates/lint/src/main.rs", src),
        ]));
        assert!(a.panic_counts.values().all(|&c| c == 0));
    }
}
