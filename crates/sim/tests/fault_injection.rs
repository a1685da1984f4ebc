//! The detected-or-masked contract for scheduler fault injection: with
//! the invariant checker on, every planted fault either aborts the run
//! loudly (a `SimError`, or the deliberate `panic-cell` unwind) or
//! provably changed nothing (statistics fingerprint bit-identical to a
//! clean run). A fault that completes with a *different* fingerprint is
//! silent corruption — a checker hole — and fails this test.
//!
//! The seeded campaign in `ce-bench` (`faultcampaign`) sweeps this same
//! contract over randomized fault plans; this test pins the fixed grid
//! every CI run, on one machine of each scheduler kind.

use ce_sim::{machine, FaultKind, FaultSpec, SimConfig, SimError, SimStats, Simulator};
use ce_workloads::{trace_cached, Benchmark, Trace};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const INSTS: u64 = 3_000;

fn checked(mut cfg: SimConfig) -> SimConfig {
    cfg.check = true;
    cfg
}

fn checked_config() -> SimConfig {
    checked(machine::baseline_8way())
}

fn clean_run(trace: &Trace) -> SimStats {
    Simulator::new(checked_config()).run(trace)
}

enum Outcome {
    Aborted(SimError),
    Panicked,
    Completed(Box<SimStats>),
}

fn injected_run(cfg: SimConfig, trace: &Trace, fault: FaultSpec) -> Outcome {
    let mut cfg = checked(cfg);
    cfg.fault = Some(fault);
    // `panic-cell` deliberately unwinds; catch it so the test can
    // classify the outcome instead of dying.
    match catch_unwind(AssertUnwindSafe(|| Simulator::new(cfg).try_run(trace))) {
        Ok(Ok(stats)) => Outcome::Completed(Box::new(stats)),
        Ok(Err(e)) => Outcome::Aborted(e),
        Err(_) => Outcome::Panicked,
    }
}

/// Runs the fixed fault grid on one machine and asserts every fault is
/// detected or masked.
fn assert_grid_detected_or_masked(cfg: SimConfig) {
    let trace: Arc<Trace> = trace_cached(Benchmark::Compress, INSTS).expect("trace");
    let clean = Simulator::new(checked(cfg)).run(&trace);
    let horizon = clean.cycles;

    let mut detected = 0usize;
    let mut masked = 0usize;
    for kind in FaultKind::ALL {
        for at_cycle in [0, horizon / 4, horizon / 2, horizon - 1, horizon + 1_000] {
            let fault = FaultSpec { kind, at_cycle };
            match injected_run(cfg, &trace, fault) {
                Outcome::Aborted(SimError::Checker { .. }) => detected += 1,
                // Any loud abort counts as detection — the run did not
                // produce corrupted statistics.
                Outcome::Aborted(_) => detected += 1,
                Outcome::Panicked => {
                    assert_eq!(
                        kind,
                        FaultKind::PanicCell,
                        "{fault}: only panic-cell may unwind"
                    );
                    detected += 1;
                }
                Outcome::Completed(stats) => {
                    assert_eq!(
                        stats.fingerprint(),
                        clean.fingerprint(),
                        "{fault}: run completed with a different fingerprint — \
                         the fault was silent"
                    );
                    masked += 1;
                }
            }
        }
    }

    // The grid must exercise both arms: in-range faults that strike and
    // past-horizon faults that never fire.
    assert!(detected >= FaultKind::ALL.len(), "only {detected} faults detected");
    assert!(masked >= FaultKind::ALL.len(), "only {masked} faults masked");
}

#[test]
fn every_fault_kind_is_detected_or_masked_under_the_checker() {
    assert_grid_detected_or_masked(machine::baseline_8way());
}

/// The pooled organizations scan a different structure (FIFO heads, or
/// every FIFO entry) and on the fault cycle widen the scan to asleep
/// entries; the contract must hold there too.
#[test]
fn faults_on_pooled_machines_are_detected_or_masked() {
    assert_grid_detected_or_masked(machine::dependence_8way());
    assert_grid_detected_or_masked(machine::clustered_windows_dispatch_8way());
}

/// `stats-corrupt` ignores its trigger cycle and strikes at end of run;
/// the end-of-run reconciliation must always catch it.
#[test]
fn stats_corruption_is_always_caught() {
    let trace = trace_cached(Benchmark::Compress, INSTS).expect("trace");
    for at_cycle in [0u64, 7, 1 << 40] {
        let fault = FaultSpec { kind: FaultKind::StatsCorrupt, at_cycle };
        match injected_run(machine::baseline_8way(), &trace, fault) {
            Outcome::Aborted(SimError::Checker { .. }) => {}
            _ => panic!("{fault}: reconciliation failed to catch the corrupt counter"),
        }
    }
}

/// The checker itself is observation-only: a clean checked run must be
/// bit-identical to a clean unchecked run.
#[test]
fn checker_and_disabled_injection_do_not_perturb_timing() {
    let trace = trace_cached(Benchmark::Compress, INSTS).expect("trace");
    let unchecked = Simulator::new(machine::baseline_8way()).run(&trace);
    let checked = clean_run(&trace);
    assert_eq!(unchecked.fingerprint(), checked.fingerprint());
}
