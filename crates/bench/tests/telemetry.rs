//! End-to-end contracts of the engine-telemetry layer: telemetry must
//! never change committed results (CSVs byte-identical on vs off), every
//! sweep writes a schema-valid content-addressed manifest, the Chrome
//! trace is loadable JSON, and `sweephealth`/`manifest_check` honor the
//! repo's exit-code contract (0 pass, 1 gate failure, 2 broken input).

use std::path::{Path, PathBuf};
use std::process::Command;

use ce_bench::json::Json;
use ce_bench::manifest;
use ce_bench::metrics_check::check_required;
use ce_bench::runner::{self, RunOptions};
use ce_sim::machine;
use ce_workloads::Benchmark;

const INSTS: &str = "2000";

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ce-telemetry-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn manifest_schema_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/manifest.schema.json")
}

fn manifest_schema() -> Json {
    Json::parse(&std::fs::read_to_string(manifest_schema_path()).expect("schema file"))
        .expect("schema parses")
}

fn fig17(dir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig17_organizations"));
    cmd.env("CE_MAX_INSTS", INSTS).current_dir(dir);
    cmd
}

fn sweephealth() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sweephealth"))
}

fn manifest_check() -> Command {
    Command::new(env!("CARGO_BIN_EXE_manifest_check"))
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The headline invariant: a sweep's CSV is byte-identical with telemetry
/// fully on (journal + Chrome trace + manifest) and fully off — and the
/// journal, trace, and manifest it produces all validate.
#[test]
fn fig17_csv_byte_identical_with_telemetry_on_and_off() {
    let dir = temp_dir("fig17");
    run_ok(fig17(&dir).args(["--quiet", "--out", "plain.csv"]));
    run_ok(fig17(&dir).args([
        "--quiet",
        "--out",
        "instrumented.csv",
        "--telemetry",
        "sweep.jsonl",
        "--trace-out",
        "sweep.trace.json",
    ]));
    let plain = std::fs::read(dir.join("plain.csv")).expect("plain CSV");
    let instrumented = std::fs::read(dir.join("instrumented.csv")).expect("instrumented CSV");
    assert_eq!(plain, instrumented, "telemetry must never change results");

    // The journal aggregates to a healthy report: every cell completed.
    let health = run_ok(sweephealth().arg(dir.join("sweep.jsonl")));
    assert!(health.contains("sweephealth: ok journals=1 cells=35 failed=0"), "{health}");

    // The Chrome trace is loadable trace_event JSON with paired spans.
    let trace = Json::parse(
        &std::fs::read_to_string(dir.join("sweep.trace.json")).expect("trace file"),
    )
    .expect("trace parses");
    assert_eq!(trace.at("displayTimeUnit").and_then(Json::as_str), Some("ms"));
    let events = trace.at("traceEvents").and_then(Json::as_arr).expect("traceEvents");
    assert!(events.len() >= 35, "one span per cell at least, got {}", events.len());
    assert!(events.iter().all(|e| e.at("ph").and_then(Json::as_str).is_some()));

    // The default-located manifest passes the committed schema and its
    // artifact digest matches the CSV on disk.
    let manifest_path = dir.join("instrumented.manifest.json");
    let doc = Json::parse(&std::fs::read_to_string(&manifest_path).expect("manifest"))
        .expect("manifest parses");
    let problems = check_required(
        &doc,
        &manifest_schema(),
        "ce-bench.manifest.schema.v1",
        manifest::MANIFEST_SCHEMA,
    );
    assert!(problems.is_empty(), "{problems:#?}");
    run_ok(manifest_check().args([
        manifest_path.to_str().unwrap(),
        manifest_schema_path(),
        "--verify-artifacts",
    ]));

    // Cross-process cache-key stability: the key the binary recorded is
    // the key this process computes from the same inputs.
    let jobs = runner::grid(&machine::figure17_machines());
    let expected = manifest::cache_key(
        &jobs,
        2_000,
        RunOptions { attribution: true, ..RunOptions::default() },
    )
    .expect("cache key");
    assert_eq!(doc.at("cache_key").and_then(Json::as_str), Some(expected.as_str()));
    assert_eq!(doc.at("cells").and_then(Json::as_u64), Some(35));

    std::fs::remove_dir_all(&dir).ok();
}

/// The explorer honors the same invariant for both of its CSVs, and its
/// manifest vouches for the pair.
#[test]
fn explore_csvs_byte_identical_and_manifest_covers_both() {
    // tab02_explore.csv has a fixed name next to the pareto CSV, so the
    // plain and instrumented runs get separate directories.
    let dir = temp_dir("explore");
    let (plain_dir, instr_dir) = (dir.join("plain"), dir.join("instr"));
    std::fs::create_dir_all(&plain_dir).expect("plain dir");
    std::fs::create_dir_all(&instr_dir).expect("instr dir");
    let explore = |cwd: &Path, args: &[&str]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_ce-explore"));
        cmd.env("CE_MAX_INSTS", INSTS)
            .current_dir(cwd)
            .args(["--grid", "tiny", "--quiet", "--out", "pareto.csv"]);
        cmd.args(args);
        cmd
    };
    run_ok(&mut explore(&plain_dir, &[]));
    run_ok(&mut explore(&instr_dir, &["--telemetry", "explore.jsonl"]));
    for name in ["pareto.csv", "tab02_explore.csv"] {
        assert_eq!(
            std::fs::read(plain_dir.join(name)).expect("plain CSV"),
            std::fs::read(instr_dir.join(name)).expect("instr CSV"),
            "{name} must be byte-identical with telemetry on and off"
        );
    }

    let manifest_path = instr_dir.join("pareto.manifest.json");
    let doc = Json::parse(&std::fs::read_to_string(&manifest_path).expect("manifest"))
        .expect("manifest parses");
    let problems = check_required(
        &doc,
        &manifest_schema(),
        "ce-bench.manifest.schema.v1",
        manifest::MANIFEST_SCHEMA,
    );
    assert!(problems.is_empty(), "{problems:#?}");
    let artifacts = doc.at("artifacts").and_then(Json::as_arr).expect("artifacts");
    assert_eq!(artifacts.len(), 2, "pareto + tab02");
    run_ok(manifest_check().args([
        manifest_path.to_str().unwrap(),
        manifest_schema_path(),
        "--verify-artifacts",
    ]));
    run_ok(sweephealth().arg(instr_dir.join("explore.jsonl")));

    std::fs::remove_dir_all(&dir).ok();
}

/// A sweep killed mid-run leaves a torn journal; the resumed run's
/// journal must aggregate to a healthy report with every cell accounted
/// for (resumed cells carrying their journaled wall times).
#[test]
fn killed_and_resumed_sweep_reports_healthy() {
    let dir = temp_dir("kill");
    let mut child = fig17(&dir)
        .args(["--quiet", "--out", "out.csv", "--telemetry", "first.jsonl"])
        .env("CE_THREADS", "1")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn");
    std::thread::sleep(std::time::Duration::from_millis(300));
    child.kill().ok();
    child.wait().expect("reap");

    run_ok(fig17(&dir).args([
        "--quiet",
        "--resume",
        "--out",
        "out.csv",
        "--telemetry",
        "resumed.jsonl",
    ]));
    assert!(dir.join("out.csv").exists());
    let health = run_ok(sweephealth().arg(dir.join("resumed.jsonl")));
    assert!(health.contains("sweephealth: ok journals=1 cells=35 failed=0"), "{health}");
    // A manifest is written on the resumed run too, and still validates.
    run_ok(manifest_check().args([
        dir.join("out.manifest.json").to_str().unwrap(),
        manifest_schema_path(),
        "--verify-artifacts",
    ]));

    std::fs::remove_dir_all(&dir).ok();
}

/// `sweephealth` exit codes: 0 healthy, 1 unhealthy (parseable journal,
/// bad sweep), 2 torn-beyond-repair input — with torn *final* lines
/// tolerated under the shared torn-tail rule.
#[test]
fn sweephealth_exit_codes_and_torn_line_tolerance() {
    let dir = temp_dir("health");
    let header = r#"{"ce_telemetry": 1, "name": "t", "cells": 1, "max_insts": 100}"#;
    let ok_cell = r#"{"t_us": 10, "ev": "attempt-end", "cell": 0, "worker": 0, "attempt": 1, "outcome": "ok", "wall_us": 10, "cycles": 50, "last": true}"#;
    let end = r#"{"t_us": 30, "ev": "sweep-end", "ok": 1, "failed": 0, "wall_us": 30}"#;

    // Healthy: complete journal, every cell ok.
    let healthy = dir.join("healthy.jsonl");
    std::fs::write(&healthy, format!("{header}\n{ok_cell}\n{end}\n")).expect("write");
    let out = sweephealth().arg(&healthy).output().expect("runs");
    assert_eq!(out.status.code(), Some(0));

    // Torn final line (kill -9 signature): parses, but no sweep-end →
    // unhealthy, exit 1, machine-readable error line.
    let torn = dir.join("torn.jsonl");
    std::fs::write(&torn, format!("{header}\n{ok_cell}\n{{\"t_us\": 29, \"ev\": \"sw"))
        .expect("write");
    let out = sweephealth().arg(&torn).output().expect("runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("error[unhealthy]"));

    // Corruption anywhere else is untrustworthy: exit 2.
    let corrupt = dir.join("corrupt.jsonl");
    std::fs::write(&corrupt, format!("{header}\n][ garbage\n{end}\n")).expect("write");
    let out = sweephealth().arg(&corrupt).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error[journal]"));

    // Missing file and usage errors: exit 2.
    let out = sweephealth().arg(dir.join("absent.jsonl")).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let out = sweephealth().output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    std::fs::remove_dir_all(&dir).ok();
}

/// `manifest_check` exit codes, including artifact-content verification:
/// a CSV edited after its manifest was written must fail the gate.
#[test]
fn manifest_check_catches_tampered_artifacts() {
    let dir = temp_dir("manifest");
    let out = dir.join("mini.csv");
    std::fs::write(&out, "a,b\n1,2\n").expect("csv");
    let jobs: Vec<runner::Job> = vec![(Benchmark::Compress, machine::baseline_8way())];
    let summary = runner::run_sweep(&jobs, 2_000, RunOptions::default());
    let manifest_path = dir.join("mini.manifest.json");
    manifest::write_manifest(
        &manifest_path,
        "mini",
        &jobs,
        2_000,
        RunOptions::default(),
        &summary,
        &[&out],
    )
    .expect("manifest");

    // Valid, artifacts intact: exit 0.
    run_ok(manifest_check().args([
        manifest_path.to_str().unwrap(),
        manifest_schema_path(),
        "--verify-artifacts",
    ]));

    // Tamper with the CSV: shape still passes, content verification trips.
    std::fs::write(&out, "a,b\n1,3\n").expect("tamper");
    let check = manifest_check()
        .args([manifest_path.to_str().unwrap(), manifest_schema_path(), "--verify-artifacts"])
        .output()
        .expect("runs");
    assert_eq!(check.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&check.stderr).contains("hashes to"));

    // A wrong document fails validation with exit 1; broken input exits 2.
    let wrong = dir.join("wrong.json");
    std::fs::write(&wrong, r#"{"schema": "something-else"}"#).expect("write");
    let out = manifest_check().args([wrong.to_str().unwrap(), manifest_schema_path()]).output().expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let out = manifest_check()
        .args([dir.join("absent.json").to_str().unwrap(), manifest_schema_path()])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let out = manifest_check().output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    std::fs::remove_dir_all(&dir).ok();
}
