//! The `qns-lint` CLI. Typical invocations:
//!
//! ```text
//! qns-lint                                  # report findings, exit 0
//! qns-lint --deny --report ANALYSIS_report.json   # CI gate
//! qns-lint --update-baseline                # shrink the panic ratchet
//! ```

use qns_lint::report::RatchetRow;
use qns_lint::{analyze_root, baseline, report};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    baseline_path: PathBuf,
    report_path: Option<PathBuf>,
    deny: bool,
    update_baseline: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut root = PathBuf::from(".");
    let mut baseline_path = None;
    let mut report_path = None;
    let mut deny = false;
    let mut update_baseline = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--root" => root = PathBuf::from(argv.next().ok_or("--root needs a path")?),
            "--baseline" => {
                baseline_path = Some(PathBuf::from(argv.next().ok_or("--baseline needs a path")?));
            }
            "--report" => {
                report_path = Some(PathBuf::from(argv.next().ok_or("--report needs a path")?));
            }
            "--deny" => deny = true,
            "--update-baseline" => update_baseline = true,
            "--help" | "-h" => {
                println!(
                    "qns-lint: workspace invariant analyzer\n\n\
                     USAGE: qns-lint [--root DIR] [--baseline FILE] [--report FILE]\n\
                     \x20                [--deny] [--update-baseline]\n\n\
                     --root DIR          workspace root (default: .)\n\
                     --baseline FILE     panic-ratchet baseline\n\
                     \x20                   (default: ROOT/crates/lint/panic-baseline.txt)\n\
                     --report FILE       write the JSON report here\n\
                     --deny              exit nonzero on findings or ratchet growth\n\
                     --update-baseline   rewrite the baseline to current counts\n\n\
                     Rules: determinism, panic (ratcheted). Suppress a site with\n\
                     `// qns-lint: allow(rule)` on the same line or the line\n\
                     above. See docs/ANALYSIS.md."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    let baseline_path =
        baseline_path.unwrap_or_else(|| root.join("crates/lint/panic-baseline.txt"));
    Ok(Args {
        root,
        baseline_path,
        report_path,
        deny,
        update_baseline,
    })
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let analysis = analyze_root(&args.root)?;

    if args.update_baseline {
        std::fs::write(
            &args.baseline_path,
            baseline::render(&analysis.panic_counts),
        )
        .map_err(|e| format!("write {}: {e}", args.baseline_path.display()))?;
        println!(
            "qns-lint: wrote baseline for {} crates to {}",
            analysis.panic_counts.len(),
            args.baseline_path.display()
        );
    }

    let baseline_map = match std::fs::read_to_string(&args.baseline_path) {
        Ok(text) => baseline::parse(&text)?,
        Err(e) => {
            return Err(format!(
                "read baseline {}: {e} (run with --update-baseline to create it)",
                args.baseline_path.display()
            ));
        }
    };
    let ratchet_violations = baseline::check(&baseline_map, &analysis.panic_counts);
    let ratchet_rows: Vec<RatchetRow> = analysis
        .panic_counts
        .iter()
        .map(|(krate, &current)| RatchetRow {
            krate: krate.clone(),
            baseline: baseline_map.get(krate).copied().unwrap_or(0),
            current,
        })
        .collect();

    if let Some(path) = &args.report_path {
        std::fs::write(path, report::to_json(&analysis, &ratchet_rows))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    for f in &analysis.findings {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
    }
    for v in &ratchet_violations {
        println!("{v}");
    }
    let total_panics: usize = analysis.panic_counts.values().sum();
    println!(
        "qns-lint: {} files, {} findings ({} suppressed), {} panic-prone sites \
         across {} crates",
        analysis.files_scanned,
        analysis.findings.len(),
        analysis.suppressed,
        total_panics,
        analysis.panic_counts.len(),
    );

    let clean = analysis.findings.is_empty() && ratchet_violations.is_empty();
    Ok(if clean || !args.deny {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("qns-lint: error: {e}");
            ExitCode::FAILURE
        }
    }
}
