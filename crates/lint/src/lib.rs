//! # qns-lint
//!
//! A workspace-specific static analyzer for the qns codebase: a small
//! hand-rolled Rust lexer ([`lexer`]) feeding a rule engine ([`rules`])
//! that enforces the two invariants ordinary compiler lints cannot
//! express — which files must stay hash-order- and wall-clock-free
//! (`determinism`), and how many panic-prone call sites each crate may
//! have (`panic`, a ratchet that only tightens). Invariants a type or
//! a test can carry are left to them: lock ranks, metric families and
//! failpoints are typed registries the compiler checks, raw locks in
//! `qns-serve` are a clippy `disallowed-types` entry, and the
//! allocation-free replay and record paths are asserted by
//! counting-allocator tests (see `docs/ANALYSIS.md`).
//!
//! The lexer deliberately stops at tokens: it understands comments
//! (line, nested block), strings (plain, raw with `#` fences, byte/C
//! prefixed), lifetimes vs. char literals, and numbers, which is
//! exactly enough to never mistake prose for code. No parsing, no type
//! information — rules that need structure (test regions, attribute
//! spans) recover it with token-level brace matching.
//! See `docs/ANALYSIS.md` for the rule catalog and suppression grammar.

pub mod baseline;
pub mod lexer;
pub mod report;
pub mod rules;

use std::fs;
use std::path::Path;

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

/// Collects every workspace library source file under `root`:
/// `src/**/*.rs` plus `crates/*/src/**/*.rs`. Vendored shims, build
/// artifacts, integration `tests/`, `benches/` and `examples/` trees
/// stay out of scope — the rules govern the product, not its harness.
/// Paths come back workspace-relative with forward slashes, sorted.
pub fn collect_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut files = Vec::new();
    let top = root.join("src");
    if top.is_dir() {
        walk(&top, root, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<_> = fs::read_dir(&crates)
            .map_err(|e| format!("read {}: {e}", crates.display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        entries.sort();
        for entry in entries {
            let src = entry.join("src");
            if src.is_dir() {
                walk(&src, root, &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) -> Result<(), String> {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk(&path, root, out)?;
            }
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("strip {}: {e}", path.display()))?
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let content =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            out.push((rel, content));
        }
    }
    Ok(())
}

/// Convenience: collect + analyze in one call.
pub fn analyze_root(root: &Path) -> Result<rules::Analysis, String> {
    Ok(rules::analyze_sources(&collect_sources(root)?))
}
