#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]
//! Shared infrastructure for the experiment harnesses.
//!
//! Each paper table/figure has a binary in `src/bin` (`table2`,
//! `table3`, `table4`, `fig4`, `fig5`, `fig6`), and `contract_bench`
//! times the contraction kernels and plan replays. This library
//! provides the common pieces: the scaled benchmark-circuit registry,
//! table-time formatting and plain-text table rendering. Timing
//! itself is `qns_core::timing::time_it`.

pub mod registry;

pub use registry::{BenchCircuit, Family};

/// Formats a seconds value like the paper's tables (`0.095`, `15.74`),
/// or the given marker for `None` (timeout / memory-out).
pub fn fmt_time(t: Option<f64>, marker: &str) -> String {
    match t {
        Some(s) if s < 10.0 => format!("{s:.3}"),
        Some(s) => format!("{s:.2}"),
        None => marker.to_string(),
    }
}

/// Renders a row of right-aligned columns with the given widths.
///
/// Cells wider than their column are not truncated; extra columns
/// without a width (or widths without a cell) are ignored.
pub fn format_row(cells: &[String], widths: &[usize]) -> String {
    let mut line = String::new();
    for (cell, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{cell:>w$} ", w = w));
    }
    line.trim_end().to_string()
}

/// Prints a row of right-aligned columns with the given widths.
pub fn print_row(cells: &[String], widths: &[usize]) {
    println!("{}", format_row(cells, widths));
}

/// Reads an integer flag of the form `--name value` from `args`.
/// Missing flags, missing values and unparsable values all yield
/// `default`.
pub fn arg_usize_in(args: &[String], name: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads an integer CLI flag of the form `--name value`.
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    arg_usize_in(&args, name, default)
}

/// Reads a float flag of the form `--name value` from `args`, falling
/// back to `default` exactly like [`arg_usize_in`].
pub fn arg_f64_in(args: &[String], name: &str, default: f64) -> f64 {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads a float CLI flag of the form `--name value`.
pub fn arg_f64(name: &str, default: f64) -> f64 {
    let args: Vec<String> = std::env::args().collect();
    arg_f64_in(&args, name, default)
}

/// `true` when the flag is present.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn fmt_handles_markers() {
        assert_eq!(fmt_time(None, "MO"), "MO");
        assert_eq!(fmt_time(Some(0.1234), "MO"), "0.123");
        assert_eq!(fmt_time(Some(42.0), "TO"), "42.00");
    }

    #[test]
    fn format_row_right_aligns_to_widths() {
        let row = format_row(&args(&["ab", "7"]), &[5, 3]);
        assert_eq!(row, "   ab   7");
    }

    #[test]
    fn format_row_trims_trailing_padding() {
        let row = format_row(&args(&["x"]), &[4]);
        assert_eq!(row, "   x");
        assert!(!row.ends_with(' '));
    }

    #[test]
    fn format_row_keeps_overwide_cells_intact() {
        let row = format_row(&args(&["overflow", "z"]), &[3, 2]);
        assert_eq!(row, "overflow  z");
    }

    #[test]
    fn format_row_ignores_unmatched_cells_and_widths() {
        // More cells than widths: extras dropped.
        assert_eq!(format_row(&args(&["a", "b", "c"]), &[2]), " a");
        // More widths than cells: extras dropped.
        assert_eq!(format_row(&args(&["a"]), &[2, 9, 9]), " a");
        // Degenerate empty row.
        assert_eq!(format_row(&[], &[]), "");
    }

    #[test]
    fn arg_usize_parses_flag_value() {
        let a = args(&["bin", "--levels", "3", "--full"]);
        assert_eq!(arg_usize_in(&a, "--levels", 1), 3);
    }

    #[test]
    fn arg_usize_defaults_when_flag_absent() {
        let a = args(&["bin", "--full"]);
        assert_eq!(arg_usize_in(&a, "--levels", 7), 7);
    }

    #[test]
    fn arg_usize_defaults_when_value_missing_or_bad() {
        // Flag is the last token: no value follows.
        let a = args(&["bin", "--levels"]);
        assert_eq!(arg_usize_in(&a, "--levels", 7), 7);
        // Value is not an integer.
        let a = args(&["bin", "--levels", "many"]);
        assert_eq!(arg_usize_in(&a, "--levels", 7), 7);
        // Value is negative: usize parse fails.
        let a = args(&["bin", "--levels", "-2"]);
        assert_eq!(arg_usize_in(&a, "--levels", 7), 7);
    }

    #[test]
    fn arg_usize_uses_first_occurrence() {
        let a = args(&["bin", "--n", "4", "--n", "9"]);
        assert_eq!(arg_usize_in(&a, "--n", 0), 4);
    }

    #[test]
    fn arg_f64_parses_and_defaults() {
        let a = args(&["bin", "--p", "1e-3"]);
        assert_eq!(arg_f64_in(&a, "--p", 0.5), 1e-3);
        assert_eq!(arg_f64_in(&a, "--q", 0.5), 0.5);
        let a = args(&["bin", "--p", "x"]);
        assert_eq!(arg_f64_in(&a, "--p", 0.25), 0.25);
    }
}
