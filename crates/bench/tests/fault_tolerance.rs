//! End-to-end contracts of the fault-tolerant sweep engine: panic
//! isolation, deadline + retry policy, quarantine of deterministic
//! failures, store-backed resume, and the headline guarantee — a sweep
//! killed with SIGKILL mid-run resumes to a **byte-identical** CSV,
//! re-executing only the unfinished cells.

use ce_bench::cli::{self, ObsFlags, SweepArgs};
use ce_bench::runner::{self, try_run_timed, RunOptions, RunPolicy, SweepOptions};
use ce_sim::{machine, FaultKind, FaultSpec};
use ce_workloads::Benchmark;
use std::path::{Path, PathBuf};
use std::time::Duration;

const INSTS: u64 = 2_000;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ce-ft-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Entries in a result-store directory, without creating it.
fn stored_cells(store: &Path) -> usize {
    std::fs::read_dir(store).map_or(0, |dir| {
        dir.flatten().filter(|e| e.path().extension().is_some_and(|x| x == "json")).count()
    })
}

/// A cell that unwinds mid-simulation must come back as a classified
/// `RunError`, and its neighbours must complete untouched.
#[test]
fn panicking_cell_is_isolated_and_classified() {
    let good = machine::baseline_8way();
    let mut bad = good;
    bad.fault = Some(FaultSpec { kind: FaultKind::PanicCell, at_cycle: 50 });

    let jobs = [
        (Benchmark::Compress, good),
        (Benchmark::Compress, bad),
        (Benchmark::Li, good),
    ];
    let results = try_run_timed(&jobs, INSTS);
    assert!(results[0].is_ok(), "{:?}", results[0]);
    assert!(results[2].is_ok(), "{:?}", results[2]);
    let err = results[1].as_ref().expect_err("panic cell must fail");
    assert_eq!(err.category(), "cell-panic", "{err}");
    assert!(err.message().contains("fault"), "{err}");
}

/// A cell that blows its deadline is a transient failure: retried up to
/// the attempt budget, then reported as a timeout.
#[test]
fn deadline_is_enforced_with_bounded_retries() {
    let jobs = [(Benchmark::Compress, machine::baseline_8way())];
    let opts = SweepOptions {
        policy: RunPolicy {
            cell_timeout: Some(Duration::from_nanos(1)),
            max_attempts: 2,
            backoff_base: Duration::from_millis(1),
            quarantine: true,
        },
        ..SweepOptions::default()
    };
    let summary = runner::run_sweep_ft(&jobs, 500_000, &opts).expect("no I/O in play");
    assert_eq!(summary.failures.len(), 1);
    let failure = &summary.failures[0];
    assert_eq!(failure.error.category(), "timeout", "{failure}");
    assert!(failure.error.is_transient());
    assert_eq!(failure.attempts, 2, "{failure}");
}

/// Two identical deterministically-failing jobs: the first burns its
/// attempts, the second is quarantined without re-running.
#[test]
fn deterministic_failures_are_quarantined() {
    let mut bad = machine::baseline_8way();
    bad.bpred.history_bits = 99; // config-invalid, deterministic
    let jobs = [(Benchmark::Compress, bad), (Benchmark::Compress, bad)];
    let summary =
        runner::run_sweep_ft(&jobs, INSTS, &SweepOptions::default()).expect("no I/O in play");
    assert_eq!(summary.failures.len(), 2);
    let by_index =
        |i: usize| summary.failures.iter().find(|f| f.index == i).expect("failure present");
    assert_eq!(by_index(0).quarantined_after, None);
    assert_eq!(by_index(1).quarantined_after, Some(0), "{}", by_index(1));
    assert_eq!(by_index(1).error.category(), "config-invalid");
}

/// A sweep with a failing cell keeps its result store; re-running with
/// `resume` replays the finished cells from disk (same stats, `resumed`
/// counted) and re-executes only the failure.
#[test]
fn store_resume_replays_finished_cells() {
    let dir = temp_dir("resume");
    let out = dir.join("sweep.csv");

    let good = machine::baseline_8way();
    let mut bad = good;
    bad.fault = Some(FaultSpec { kind: FaultKind::PanicCell, at_cycle: 50 });
    let jobs =
        [(Benchmark::Compress, good), (Benchmark::Li, good), (Benchmark::Compress, bad)];

    let args = |resume| SweepArgs {
        out: out.clone(),
        resume,
        obs: ObsFlags { quiet: true, ..ObsFlags::default() },
    };
    let sweep =
        |resume| args(resume).run_sweep("sweep", &jobs, INSTS, RunOptions::default()).expect("io");
    let first = sweep(false);
    assert_eq!(first.failures.len(), 1);
    assert_eq!(first.resumed, 0);
    let files = [(out.as_path(), String::new())];
    let run = RunOptions::default();
    let code = cli::finish_sweep("sweep", &args(false), &jobs, INSTS, run, &first, &files);
    assert_eq!(format!("{code:?}"), format!("{:?}", std::process::ExitCode::from(1)));
    let store = cli::store_dir(&out);
    assert_eq!(stored_cells(&store), 2, "the store must survive a failed sweep");

    let second = sweep(true);
    assert_eq!(second.resumed, 2, "both good cells replay from the store");
    assert_eq!(second.failures.len(), 1, "the bad cell re-runs and fails again");
    for i in [0, 1] {
        assert_eq!(
            first.cells[i].as_ref().expect("ran").stats.fingerprint(),
            second.cells[i].as_ref().expect("replayed").stats.fingerprint(),
            "cell {i} changed across resume"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// The headline guarantee, end to end on a real sweep binary: SIGKILL
/// the process mid-sweep, re-run with `--resume`, and the final CSV is
/// byte-identical to an uninterrupted run's.
#[test]
fn sigkill_then_resume_reproduces_the_csv_byte_for_byte() {
    let dir = temp_dir("kill");
    let reference_csv = dir.join("reference.csv");
    let killed_csv = dir.join("killed.csv");

    let fig13 = |out: &Path| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_fig13_ipc"));
        cmd.env("CE_MAX_INSTS", "20000")
            .env("CE_THREADS", "1")
            .arg("--out")
            .arg(out)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        cmd
    };

    // Uninterrupted reference run.
    let status = fig13(&reference_csv).status().expect("fig13 runs");
    assert!(status.success());
    let reference = std::fs::read(&reference_csv).expect("reference CSV");

    // Interrupted run: SIGKILL as soon as the store holds one cell but
    // before the CSV lands.
    let store = cli::store_dir(&killed_csv);
    let stored = || stored_cells(&store);
    let mut child = fig13(&killed_csv).spawn().expect("fig13 spawns");
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while stored() < 1 {
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("sweep finished before it could be killed ({status}); cap too small");
        }
        assert!(std::time::Instant::now() < deadline, "no stored cell after 120s");
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");
    assert!(!killed_csv.exists(), "CSV must not exist after a killed sweep");
    let stored_before = stored();

    // Resume: finishes the sweep, replaying what the store holds.
    let status = fig13(&killed_csv).arg("--resume").status().expect("fig13 resumes");
    assert!(status.success());
    let resumed = std::fs::read(&killed_csv).expect("resumed CSV");
    assert_eq!(
        resumed, reference,
        "resumed CSV differs from the uninterrupted run"
    );
    // Sanity: the kill left cells to reuse, and the store is deleted
    // only after a clean finish.
    assert!(!store.exists(), "store should be cleaned up after the clean resume");
    assert!(stored_before >= 1, "kill happened before any cell was stored");

    std::fs::remove_dir_all(&dir).ok();
}
