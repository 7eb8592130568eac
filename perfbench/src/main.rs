//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <deep_sum|serve_mixed|refine_stream> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints human-readable lines, then as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits 1 when any answer is wrong or any request failed, 2 on bad
//! arguments. Traced runs write their spans under `.perfbench-out/`.

use qns_perfbench::alloc::CountingAlloc;
use qns_perfbench::deep_sum::DeepSum;
use qns_perfbench::metrics::{self, END_TO_END, PER_LAYER};
use qns_perfbench::run::{self, Outcome};
use qns_perfbench::serve::{RefineStream, ServeMixed};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Six significant digits, in scientific notation for small values.
fn fmt(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.5e}")
    } else {
        format!("{v:.6}")
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <deep_sum|serve_mixed|refine_stream> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let (seed, secs) = (args.seed, args.seconds);
    let spans =
        PathBuf::from(".perfbench-out").join(format!("spans-{}-{}.json", args.workload, seed));
    let outcome: Outcome = match (args.workload.as_str(), args.trace) {
        ("deep_sum", false) => run::run_untraced::<DeepSum>(seed, secs),
        ("serve_mixed", false) => run::run_untraced::<ServeMixed>(seed, secs),
        ("refine_stream", false) => run::run_untraced::<RefineStream>(seed, secs),
        ("deep_sum", true) => run::run_traced::<DeepSum>(seed, secs, &spans, |m, c, n| {
            run::fill::<ServeMixed>(seed, m, c, n);
            run::fill::<RefineStream>(seed, m, c, n);
        }),
        ("serve_mixed", true) => run::run_traced::<ServeMixed>(seed, secs, &spans, |m, c, n| {
            run::fill::<RefineStream>(seed, m, c, n);
        }),
        ("refine_stream", true) => {
            run::run_traced::<RefineStream>(seed, secs, &spans, |m, c, n| {
                run::fill::<ServeMixed>(seed, m, c, n);
            })
        }
        (other, _) => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };

    let wanted: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        seed,
        secs,
        u8::from(args.trace)
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for &(name, unit) in wanted {
        match outcome.metrics.get(name) {
            Some(v) => println!("  {name:<32} {:>16} {unit}", fmt(*v)),
            None => println!("  {name:<32} {:>16} {unit}", "missing"),
        }
    }
    let c = &outcome.checks;
    println!(
        "  {:<32} {:>16.6} ({} of {} attempts)",
        "failed_frac",
        c.failed as f64 / c.attempted.max(1) as f64,
        c.failed,
        c.attempted
    );
    println!(
        "  distinct jobs without an exact reference (too large): {}",
        c.unverified
    );
    for msg in &c.messages {
        println!("  FAILED: {msg}");
    }
    let absent = metrics::missing(&outcome.metrics, wanted);
    if !absent.is_empty() {
        println!("  FAILED: metrics not measured: {}", absent.join(", "));
    }
    println!(
        "{}",
        metrics::result_json(c.attempted.max(1), c.failed, &outcome.metrics, wanted)
    );
    if c.failed == 0 && absent.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
