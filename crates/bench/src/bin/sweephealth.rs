//! `sweephealth` — aggregates engine-telemetry journals into a health
//! report: throughput, retry/quarantine census, worker utilization, the
//! straggler top-N, and wall-clock against the perfectly-packed ideal.
//!
//! ```text
//! sweephealth [--top N] JOURNAL...
//! ```
//!
//! Each journal (written by a sweep's `--telemetry PATH`) is parsed with
//! the torn-tail rule every journal reader shares, so journals
//! from killed runs report cleanly. A journal is *healthy* when its
//! sweep ended with every cell completed and none failed.
//!
//! The last line is machine-readable, one per invocation:
//!
//! ```text
//! sweephealth: ok journals=2 cells=28 failed=0
//! sweephealth: error[unhealthy] journals=2 unhealthy=1 failed=3
//! ```
//!
//! Journals written through `cesimd` carry result-cache and trace-cache
//! events; when any are present the ok line gains
//! ` cache_hits=H cache_misses=M trace_evictions=E` (CI's incremental
//! re-sweep gate greps these).
//!
//! Exit codes follow the repo contract: 0 every journal healthy, 1 any
//! unhealthy, 2 I/O, parse, or usage errors.

use std::path::PathBuf;
use std::process::ExitCode;

use ce_bench::telemetry::HealthReport;

fn main() -> ExitCode {
    let mut top = 5usize;
    let mut journals: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--top" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage("--top needs a count argument");
                };
                top = n;
            }
            other if other.starts_with("--") => {
                return usage(&format!("unrecognized `{other}`"));
            }
            other => journals.push(PathBuf::from(other)),
        }
    }
    if journals.is_empty() {
        return usage("expected at least one JOURNAL path");
    }

    let mut cells = 0usize;
    let mut failed = 0usize;
    let mut unhealthy = 0usize;
    let mut cache_hits = 0usize;
    let mut cache_misses = 0usize;
    let mut trace_evictions = 0u64;
    for (i, path) in journals.iter().enumerate() {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("sweephealth: error[io] {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let report = match HealthReport::from_journal(&text) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("sweephealth: error[journal] {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        if i > 0 {
            println!();
        }
        println!("== {}", path.display());
        print!("{}", report.render(top));
        cells += report.completed;
        failed += report.failed;
        cache_hits += report.cache_hits;
        cache_misses += report.cache_misses;
        trace_evictions += report.trace_evictions;
        if !report.healthy() {
            unhealthy += 1;
        }
    }

    if unhealthy == 0 {
        // Cache fields appear only when the journals carry cache events
        // (i.e. the sweep ran through cesimd), so plain sweeps keep the
        // historical line format.
        let mut cache = String::new();
        if cache_hits + cache_misses > 0 || trace_evictions > 0 {
            cache = format!(
                " cache_hits={cache_hits} cache_misses={cache_misses} \
                 trace_evictions={trace_evictions}"
            );
        }
        println!(
            "sweephealth: ok journals={} cells={cells} failed=0{cache}",
            journals.len()
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "sweephealth: error[unhealthy] journals={} unhealthy={unhealthy} failed={failed}",
            journals.len()
        );
        ExitCode::from(1)
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("sweephealth: error[usage] {msg}");
    eprintln!("usage: sweephealth [--top N] JOURNAL...");
    ExitCode::from(2)
}
