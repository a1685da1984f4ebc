//! delaycheck — the delay-model verification gate.
//!
//! Runs three campaigns against `ce-delay` and writes one combined report:
//!
//! 1. **Anchors** — every value the paper prints (Tables 1/2/4, Figures
//!    3/5/6, Sections 5.3/5.5) evaluated against the current calibration,
//!    each with its recorded tolerance ([`ce_delay::anchors`]).
//! 2. **Shapes** — the growth-shape assertions (rename/bypass quadratic in
//!    issue width, wakeup linear+quadratic in window size, selection
//!    step-logarithmic) verified by exact finite differences.
//! 3. **Domain fuzz** — a seeded corpus of adversarial parameters thrown
//!    at every `try_compute` path under `catch_unwind`, proving the
//!    checked APIs return `Result` instead of panicking, and that the
//!    corpus straddles the accept/reject boundary.
//!
//! ```text
//! cargo run --release -p ce-bench --bin delaycheck [--out PATH]
//! ```
//!
//! Writes `results/delay_anchor_report.csv` atomically (CI diffs it
//! against the committed copy). Exit codes: 0 all campaigns pass, 1 gate
//! failure (drift, broken shape, or a panic out of a checked path), 2
//! usage or I/O errors.

use ce_bench::journal::write_atomic;
use ce_bench::cli::OutArgs;
use ce_delay::bypass::{BypassDelay, BypassParams};
use ce_delay::cache::{CacheDelay, CacheParams};
use ce_delay::pipeline::ClockComparison;
use ce_delay::regfile::{RegfileDelay, RegfileParams};
use ce_delay::rename::{RenameDelay, RenameParams, RenameScheme};
use ce_delay::restable::{ResTableDelay, ResTableParams};
use ce_delay::select::{SelectDelay, SelectParams};
use ce_delay::wakeup::{WakeupDelay, WakeupParams};
use ce_delay::{anchors, DelayError, PipelineDelays, Technology};
use rand::{Rng, SeedableRng, StdRng};
use std::fmt::Write as _;
use std::process::ExitCode;

/// Adversarial parameter palette: boundary values, plausible values, and
/// far-out-of-domain garbage.
fn wild(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..6usize) {
        0 => 0,
        1 => 1,
        2 => rng.gen_range(2..9usize),
        3 => rng.gen_range(9..129usize),
        4 => rng.gen_range(129..5000usize),
        _ => rng.gen_range(5000..2_000_000usize),
    }
}

/// Outcome counts of the domain-fuzz campaign.
#[derive(Debug, Default)]
struct FuzzTally {
    cases: usize,
    accepted: usize,
    rejected: usize,
    panics: usize,
}

fn tally(tally: &mut FuzzTally, result: std::thread::Result<Result<(), DelayError>>) {
    tally.cases += 1;
    match result {
        Ok(Ok(())) => tally.accepted += 1,
        Ok(Err(_)) => tally.rejected += 1,
        Err(_) => tally.panics += 1,
    }
}

fn fuzz_domains(cases_per_structure: usize) -> FuzzTally {
    let mut rng = StdRng::seed_from_u64(0xde1a);
    let mut t = FuzzTally::default();
    let techs = Technology::all();
    for _ in 0..cases_per_structure {
        let tech = techs[rng.gen_range(0..techs.len())];

        let p = RenameParams {
            issue_width: wild(&mut rng),
            physical_regs: wild(&mut rng),
            scheme: if rng.gen_range(0..2usize) == 0 {
                RenameScheme::Ram
            } else {
                RenameScheme::Cam
            },
        };
        tally(&mut t, std::panic::catch_unwind(|| {
            RenameDelay::try_compute(&tech, &p).map(|_| ())
        }));

        let p = WakeupParams::new(wild(&mut rng), wild(&mut rng));
        tally(&mut t, std::panic::catch_unwind(|| {
            WakeupDelay::try_compute(&tech, &p).map(|_| ())
        }));

        let p = SelectParams {
            window_size: wild(&mut rng),
            arbiter_fanin: wild(&mut rng),
            grants: wild(&mut rng),
        };
        tally(&mut t, std::panic::catch_unwind(|| {
            SelectDelay::try_compute(&tech, &p).map(|_| ())
        }));

        let p = BypassParams {
            issue_width: wild(&mut rng),
            pipestages_after_exec: wild(&mut rng),
        };
        tally(&mut t, std::panic::catch_unwind(|| {
            BypassDelay::try_compute(&tech, &p).map(|_| ())
        }));

        let p = ResTableParams { issue_width: wild(&mut rng), physical_regs: wild(&mut rng) };
        tally(&mut t, std::panic::catch_unwind(|| {
            ResTableDelay::try_compute(&tech, &p).map(|_| ())
        }));

        let p = RegfileParams {
            registers: wild(&mut rng),
            ports: wild(&mut rng),
            bits: wild(&mut rng),
        };
        tally(&mut t, std::panic::catch_unwind(|| {
            RegfileDelay::try_compute(&tech, &p).map(|_| ())
        }));

        let p = CacheParams {
            bytes: wild(&mut rng),
            ways: wild(&mut rng),
            line_bytes: wild(&mut rng),
            ports: wild(&mut rng),
        };
        tally(&mut t, std::panic::catch_unwind(|| {
            CacheDelay::try_compute(&tech, &p).map(|_| ())
        }));

        let (iw, w, clusters) = (wild(&mut rng), wild(&mut rng), wild(&mut rng));
        tally(&mut t, std::panic::catch_unwind(move || {
            PipelineDelays::try_compute(&tech, iw, w)
                .and_then(|d| d.try_stages_at(w as f64).map(|_| d))
                .and_then(|_| ClockComparison::try_compute(&tech, iw, w, clusters))
                .map(|_| ())
        }));
    }
    t
}

fn main() -> ExitCode {
    let args = OutArgs::parse("results/delay_anchor_report.csv");
    let mut csv =
        String::from("kind,id,artifact,unit,expected,got,residual_pct,tol_pct,status\n");
    let mut failures = 0usize;

    println!("delaycheck: paper-anchor campaign");
    let checks = match anchors::evaluate_all() {
        Ok(checks) => checks,
        Err(e) => {
            eprintln!("delaycheck: error: anchor evaluation failed: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "{:<32} {:>12} {:>12} {:>9} {:>7}  status",
        "anchor", "expected", "got", "resid", "tol"
    );
    ce_bench::rule(84);
    for c in &checks {
        let status = if c.pass { "pass" } else { "FAIL" };
        println!(
            "{:<32} {:>12.3} {:>12.3} {:>8.1}% {:>6.0}%  {status}",
            c.anchor.id,
            c.anchor.expected,
            c.got,
            c.residual_frac * 100.0,
            c.anchor.tol_frac * 100.0,
        );
        let _ = writeln!(
            csv,
            "anchor,{},{},{},{:.4},{:.4},{:.2},{:.0},{status}",
            c.anchor.id,
            c.anchor.artifact.replace(',', ";"),
            c.anchor.unit,
            c.anchor.expected,
            c.got,
            c.residual_frac * 100.0,
            c.anchor.tol_frac * 100.0,
        );
        failures += usize::from(!c.pass);
    }

    println!();
    println!("delaycheck: growth-shape campaign");
    let shapes = match anchors::verify_shapes() {
        Ok(shapes) => shapes,
        Err(e) => {
            eprintln!("delaycheck: error: shape verification failed: {e}");
            return ExitCode::from(1);
        }
    };
    for s in &shapes {
        let status = if s.pass { "pass" } else { "FAIL" };
        println!("{:<44} {status}   ({})", s.id, s.detail);
        let _ = writeln!(csv, "shape,{},{},,,,,,{status}", s.id, s.structure);
        failures += usize::from(!s.pass);
    }

    println!();
    println!("delaycheck: domain-fuzz campaign (checked paths must not panic)");
    let t = fuzz_domains(250);
    // The corpus must exercise both sides of the validation boundary.
    let balanced = t.accepted > t.cases / 20 && t.rejected > t.cases / 20;
    let fuzz_pass = t.panics == 0 && balanced;
    println!(
        "  {} cases: {} accepted, {} rejected, {} panics -> {}",
        t.cases,
        t.accepted,
        t.rejected,
        t.panics,
        if fuzz_pass { "pass" } else { "FAIL" }
    );
    let _ = writeln!(
        csv,
        "fuzz,domain_campaign,,cases,{},{},,,{}",
        t.cases,
        t.cases - t.panics,
        if fuzz_pass { "pass" } else { "FAIL" }
    );
    failures += usize::from(!fuzz_pass);

    if let Err(e) = write_atomic(&args.out, &csv) {
        eprintln!("delaycheck: error[io]: writing {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    eprintln!("delaycheck: wrote {}", args.out.display());

    if failures > 0 {
        eprintln!("delaycheck: {failures} campaign check(s) FAILED");
        ExitCode::from(1)
    } else {
        println!("delaycheck: all campaigns pass");
        ExitCode::SUCCESS
    }
}
