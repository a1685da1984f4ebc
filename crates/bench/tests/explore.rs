//! End-to-end contracts of `ce-explore`: the CSVs are identical whatever
//! `CE_THREADS` says, a SIGKILLed run resumes to byte-identical output,
//! the tiny grid's structured skips are exactly the two probes, the
//! frontier column is genuinely non-dominated, and the winner table
//! carries every §5.6 organization plus a best-BIPS row per technology.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ce-explore-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A tiny-grid sampled explorer invocation at a small cap.
fn explore_cmd(out: &Path, threads: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ce-explore"));
    cmd.env("CE_MAX_INSTS", "20000")
        .env("CE_THREADS", threads)
        .arg("--grid")
        .arg("tiny")
        .arg("--out")
        .arg(out)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    cmd
}

fn tab02_of(out: &Path) -> PathBuf {
    out.with_file_name("tab02_explore.csv")
}

/// Entries in a result-store directory, without creating it.
fn stored_cells(store: &Path) -> usize {
    std::fs::read_dir(store).map_or(0, |dir| {
        dir.flatten().filter(|e| e.path().extension().is_some_and(|x| x == "json")).count()
    })
}

/// Splits a CSV body into its data rows (header dropped).
fn rows(csv: &str) -> Vec<Vec<String>> {
    csv.trim_end()
        .lines()
        .skip(1)
        .map(|l| l.split(',').map(str::to_string).collect())
        .collect()
}

/// One run, checked in depth: row accounting, skip taxonomy, frontier
/// soundness, §5.6 coverage — then a second run under a different
/// `CE_THREADS` must reproduce both CSVs byte for byte.
#[test]
fn csvs_are_sound_and_independent_of_worker_count() {
    let dir = temp_dir("threads");
    let out1 = dir.join("one").join("pareto.csv");
    let out4 = dir.join("four").join("pareto.csv");
    std::fs::create_dir_all(out1.parent().unwrap()).unwrap();
    std::fs::create_dir_all(out4.parent().unwrap()).unwrap();

    assert!(explore_cmd(&out1, "1").status().expect("runs").success());
    let pareto = std::fs::read_to_string(&out1).expect("pareto.csv");
    let tab02 = std::fs::read_to_string(tab02_of(&out1)).expect("tab02_explore.csv");

    // 8 tiny-grid points × 3 technologies, all accounted for.
    let data = rows(&pareto);
    assert_eq!(data.len(), 24);
    let header: Vec<&str> = pareto.lines().next().unwrap().split(',').collect();
    let col = |name: &str| {
        header.iter().position(|h| *h == name).unwrap_or_else(|| panic!("column {name}"))
    };
    let (status_c, tech_c, clock_c, ipc_c, frontier_c, label_c) = (
        col("status"),
        col("tech_um"),
        col("clock_ps"),
        col("ipc_hmean"),
        col("frontier"),
        col("label"),
    );
    for row in &data {
        assert_eq!(row.len(), header.len(), "ragged row: {row:?}");
    }

    // Exactly the two probes skip — one refused by the delay models in
    // each technology, one refused by the simulator — and each skip
    // carries a reason.
    let by_status =
        |s: &str| data.iter().filter(|r| r[status_c] == s).collect::<Vec<_>>();
    assert_eq!(by_status("ok").len(), 18);
    let skip_delay = by_status("skip-delay");
    let skip_sim = by_status("skip-sim");
    assert_eq!(skip_delay.len(), 3);
    assert_eq!(skip_sim.len(), 3);
    for skip in skip_delay.iter().chain(&skip_sim) {
        assert!(skip[label_c].starts_with("w8."), "probe label: {skip:?}");
        assert!(!skip[col("reason")].is_empty(), "skips must carry a reason: {skip:?}");
    }

    // Frontier soundness from the published numbers alone: a frontier
    // row must not be strictly dominated (strict in both fields, so the
    // check stays sound under the CSV's rounding) by any row of its
    // technology.
    let scored: Vec<(&str, f64, f64, bool)> = data
        .iter()
        .filter(|r| r[status_c] == "ok")
        .map(|r| {
            (
                r[tech_c].as_str(),
                r[clock_c].parse::<f64>().expect("clock_ps"),
                r[ipc_c].parse::<f64>().expect("ipc_hmean"),
                r[frontier_c] == "1",
            )
        })
        .collect();
    for tech in ["0.8", "0.35", "0.18"] {
        let of_tech: Vec<_> = scored.iter().filter(|s| s.0 == tech).collect();
        assert_eq!(of_tech.len(), 6, "six scored organizations in {tech}um");
        assert!(of_tech.iter().any(|s| s.3), "empty frontier in {tech}um");
        for s in of_tech.iter().filter(|s| s.3) {
            assert!(
                !of_tech.iter().any(|o| o.1 < s.1 && o.2 > s.2),
                "frontier row strictly dominated in {tech}um"
            );
        }
    }

    // The winner table extends the paper's §5.6 organizations: every one
    // of them appears per technology, plus one explored-best row.
    let tab_rows = rows(&tab02);
    assert_eq!(tab_rows.len(), 3 * 6, "5 paper organizations + 1 winner, per technology");
    for name in [
        "1-cluster.1window",
        "2-cluster.FIFOs.dispatch_steer",
        "2-cluster.windows.dispatch_steer",
        "2-cluster.1window.exec_steer",
        "2-cluster.windows.random_steer",
    ] {
        assert_eq!(
            tab_rows.iter().filter(|r| r[2] == name).count(),
            3,
            "{name} once per technology"
        );
    }
    assert_eq!(tab_rows.iter().filter(|r| r[1] == "explored-best").count(), 3);

    // Same grid under a different worker count: byte-identical CSVs.
    assert!(explore_cmd(&out4, "4").status().expect("runs").success());
    assert_eq!(std::fs::read_to_string(&out4).unwrap(), pareto, "pareto.csv varies with CE_THREADS");
    assert_eq!(
        std::fs::read_to_string(tab02_of(&out4)).unwrap(),
        tab02,
        "tab02_explore.csv varies with CE_THREADS"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The fault-tolerance guarantee, end to end: SIGKILL `ce-explore`
/// mid-sweep, re-run with `--resume`, and both CSVs are byte-identical
/// to an uninterrupted run's.
#[test]
fn sigkill_then_resume_reproduces_both_csvs_byte_for_byte() {
    // Separate subdirectories: the companion tab02_explore.csv lands
    // next to each run's --out, so the runs must not share a directory.
    let dir = temp_dir("kill");
    let reference = dir.join("reference").join("pareto.csv");
    let killed = dir.join("killed").join("pareto.csv");
    std::fs::create_dir_all(reference.parent().unwrap()).unwrap();
    std::fs::create_dir_all(killed.parent().unwrap()).unwrap();

    // Uninterrupted reference run.
    assert!(explore_cmd(&reference, "1").status().expect("runs").success());
    let ref_pareto = std::fs::read(&reference).expect("reference pareto");
    let ref_tab02 = std::fs::read(tab02_of(&reference)).expect("reference tab02");

    // Interrupted run: SIGKILL once the store holds a cell but before
    // the CSVs land.
    let store = dir.join("killed").join("pareto.store");
    let mut child = explore_cmd(&killed, "1").spawn().expect("spawns");
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while stored_cells(&store) < 1 {
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("explorer finished before it could be killed ({status}); cap too small");
        }
        assert!(std::time::Instant::now() < deadline, "no stored cell after 120s");
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");
    assert!(!killed.exists(), "pareto.csv must not exist after a killed run");
    assert!(!tab02_of(&killed).exists(), "tab02_explore.csv must not exist after a killed run");
    let stored_before = stored_cells(&store);

    // Resume and compare.
    let status = explore_cmd(&killed, "1").arg("--resume").status().expect("resumes");
    assert!(status.success());
    assert_eq!(std::fs::read(&killed).unwrap(), ref_pareto, "pareto.csv differs after resume");
    assert_eq!(
        std::fs::read(tab02_of(&killed)).unwrap(),
        ref_tab02,
        "tab02_explore.csv differs after resume"
    );
    assert!(!store.exists(), "store should be cleaned up after the clean resume");
    assert!(stored_before >= 1, "kill happened before any cell was stored");

    std::fs::remove_dir_all(&dir).ok();
}
