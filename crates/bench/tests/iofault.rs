//! Fault-injection integration tests: one end-to-end scenario per
//! non-crash fault class, each driving a real durability flow of the
//! experiment service through the `ce_bench::iofault` seam. (The crash
//! class needs a process to die; its end-to-end coverage lives in
//! `tests/chaos.rs` and the `cechaos` grid.)
//!
//! The shared shape: arm a thread-local [`FailPlan`], run the real
//! code path, assert the error surfaces *and* that the on-disk state is
//! either untouched or recoverable — then re-run disarmed and assert
//! convergence to the same bytes a never-faulted run produces.
#![cfg(unix)]

use std::path::PathBuf;

use ce_bench::chaos::synthetic_result;
use ce_bench::iofault::{with_plan, FailPlan, FaultClass};
use ce_bench::journal::{append_line, scan, write_atomic, JournalClass};
use ce_bench::store::{Lookup, ResultStore};
use ce_bench::telemetry::HealthReport;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ce-iofault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tmpfiles(dir: &std::path::Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp"))
        .collect()
}

/// ENOSPC against a result-store insert: the error surfaces with the
/// real OS code, the store stays entry-free and tempfile-free, and a
/// disarmed retry converges to a servable entry.
#[test]
fn enospc_store_insert_fails_clean_and_retry_converges() {
    let dir = temp_dir("enospc");
    let store = ResultStore::open(&dir).unwrap();
    let result = synthetic_result(7);

    let (outcome, ops) = with_plan(FailPlan::one(0, FaultClass::Enospc), || {
        store.insert("00000000000000aa", "chaos-v1", &result)
    });
    let err = outcome.expect_err("the injected ENOSPC must surface");
    assert_eq!(err.raw_os_error(), Some(28), "ENOSPC, the real errno");
    assert!(ops >= 1, "the plan fired");
    assert_eq!(store.len(), 0, "no partial entry");
    assert_eq!(tmpfiles(&dir), Vec::<String>::new(), "no orphaned tempfile");

    store.insert("00000000000000aa", "chaos-v1", &result).unwrap();
    match store.lookup("00000000000000aa", "chaos-v1") {
        Lookup::Hit(got) => assert_eq!(got.stats.cycles, result.stats.cycles),
        other => panic!("expected a hit after the retry, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A telemetry-journal header and one settled-cell event line.
const HEADER: &str = "{\"ce_telemetry\": 1, \"name\": \"t\", \"cells\": 2, \"max_insts\": 9}";

fn settled(cell: u64) -> String {
    format!(
        "{{\"t_us\": {cell}, \"ev\": \"attempt-end\", \"cell\": {cell}, \"worker\": 0, \
         \"attempt\": 1, \"outcome\": \"ok\", \"wall_us\": 1, \"cycles\": 1, \"last\": true}}"
    )
}

fn completed(path: &std::path::Path) -> usize {
    HealthReport::from_journal(&std::fs::read_to_string(path).unwrap()).unwrap().completed
}

/// EIO against a journal append: the append errors, but every line
/// already written survives for the reader, and the retried append
/// lands cleanly after them.
#[test]
fn eio_journal_append_keeps_prior_records_resumable() {
    let dir = temp_dir("eio");
    let path = dir.join("t.jsonl");
    let mut file = std::fs::File::create(&path).unwrap();
    append_line(&mut file, HEADER).unwrap();
    append_line(&mut file, &settled(0)).unwrap();

    // Op 0 of the faulted scope is the very next append.
    let (outcome, _) =
        with_plan(FailPlan::one(0, FaultClass::Eio), || append_line(&mut file, &settled(1)));
    assert_eq!(
        outcome.expect_err("the injected EIO must surface").raw_os_error(),
        Some(5)
    );
    assert_eq!(completed(&path), 1, "the line before the fault survives");

    append_line(&mut file, &settled(1)).unwrap();
    assert_eq!(completed(&path), 2, "full recovery after the retry");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn write against a journal append: half the line lands on disk.
/// The torn *final* line is the tolerated kill -9 signature — the shared
/// scan calls it torn-tail, and the reader silently drops it while
/// keeping every complete record.
#[test]
fn torn_journal_append_leaves_recoverable_torn_tail() {
    let dir = temp_dir("torn");
    let path = dir.join("t.jsonl");
    let mut file = std::fs::File::create(&path).unwrap();
    append_line(&mut file, HEADER).unwrap();
    append_line(&mut file, &settled(0)).unwrap();
    let (outcome, _) =
        with_plan(FailPlan::one(0, FaultClass::TornWrite), || append_line(&mut file, &settled(1)));
    assert!(outcome.is_err(), "a torn write reports the short write as an error");
    drop(file);

    let text = std::fs::read_to_string(&path).unwrap();
    assert!(!text.ends_with('\n'), "the torn half-line is on disk");
    let (class, _) = scan(&text, |_| Some(()), |_, _| true);
    assert_eq!(class, JournalClass::TornTail);
    assert_eq!(completed(&path), 1, "the complete record survives, the torn one is dropped");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed fsync against an atomic file write: the destination keeps
/// its old bytes (rename never ran), no tempfile is left behind, and
/// the disarmed retry publishes the new content.
#[test]
fn failed_fsync_write_atomic_preserves_old_content() {
    let dir = temp_dir("fsync");
    let path = dir.join("results.csv");
    write_atomic(&path, "old,content\n").unwrap();

    // write_atomic is create(0) → write(1) → fsync(2) → rename(3).
    let (outcome, ops) = with_plan(FailPlan::one(2, FaultClass::FailedFsync), || {
        write_atomic(&path, "new,content\n")
    });
    assert!(outcome.is_err(), "the fsync failure must surface, not be swallowed");
    assert_eq!(ops, 3, "the rename after the failed fsync never ran");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "old,content\n");
    assert_eq!(tmpfiles(&dir), Vec::<String>::new(), "the tempfile was cleaned up");

    write_atomic(&path, "new,content\n").unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "new,content\n");
    let _ = std::fs::remove_dir_all(&dir);
}
