//! Shared command-line plumbing for the sweep binaries.
//!
//! Every figure/table binary accepts the same flags:
//!
//! ```text
//! --out PATH        write the result CSV to PATH (default results/<name>.csv)
//! --resume          serve the cells already in PATH's result store
//!                   (<stem>.store/), re-simulating only unfinished cells
//! --telemetry PATH  write the JSONL engine-telemetry journal to PATH
//! --trace-out PATH  write a Chrome trace_event timeline (Perfetto) to PATH
//! --manifest PATH   write the run manifest to PATH (default: next to the
//!                   CSV as <stem>.manifest.json — always written)
//! --progress        force the live progress line on (default: on when
//!                   stderr is a TTY and not resuming)
//! --quiet           suppress the progress line and info messages
//! ```
//!
//! and runs through [`SweepArgs::run_sweep`], which stores every cell the
//! moment it settles in a [`ResultStore`] next to the CSV (wiped first
//! unless `--resume`), and finishes through [`finish_sweep`], which
//! enforces one policy everywhere: a fully-successful sweep writes its
//! CSVs atomically, writes a content-addressed
//! [`manifest`](crate::manifest) next to them, and deletes the store; a
//! sweep with failures writes **no** CSV and no manifest, keeps the store
//! for a later `--resume`, reports every failure with its
//! [`RunError`](crate::runner::RunError) category, and exits nonzero.

use std::io::IsTerminal as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use crate::journal::write_atomic;
use crate::manifest;
use crate::runner::{
    cell_weights, run_sweep_ft, CellHook, Job, RunOptions, SweepOptions, SweepSummary,
};
use crate::store::ResultStore;
use crate::telemetry::{Telemetry, TelemetryConfig};

/// The usage fragment for the shared observability flags.
const OBS_USAGE: &str =
    "[--telemetry PATH] [--trace-out PATH] [--manifest PATH] [--progress] [--quiet]";

/// The shared observability flags every sweep/explore binary accepts.
#[derive(Debug, Clone, Default)]
pub struct ObsFlags {
    /// `--telemetry PATH`: write the JSONL engine-telemetry journal.
    pub telemetry: Option<PathBuf>,
    /// `--trace-out PATH`: write a Chrome `trace_event` timeline.
    pub trace_out: Option<PathBuf>,
    /// `--manifest PATH`: override the manifest path (default: next to
    /// the CSV).
    pub manifest: Option<PathBuf>,
    /// `--progress`: force the live progress line on.
    pub progress: bool,
    /// `--quiet`: no progress line, no info messages (failures still
    /// print — errors are not chatter).
    pub quiet: bool,
}

impl ObsFlags {
    /// Tries to consume `arg` (and its value, if any) as one of the
    /// shared observability flags. Returns `false` when the flag is not
    /// ours — the caller then reports it unrecognized.
    ///
    /// # Errors
    ///
    /// A message naming the incomplete argument.
    fn try_match<I: Iterator<Item = String>>(
        &mut self,
        arg: &str,
        args: &mut I,
    ) -> Result<bool, String> {
        match arg {
            "--telemetry" => {
                self.telemetry =
                    Some(PathBuf::from(args.next().ok_or("--telemetry needs a path argument")?));
            }
            "--trace-out" => {
                self.trace_out =
                    Some(PathBuf::from(args.next().ok_or("--trace-out needs a path argument")?));
            }
            "--manifest" => {
                self.manifest =
                    Some(PathBuf::from(args.next().ok_or("--manifest needs a path argument")?));
            }
            "--progress" => self.progress = true,
            "--quiet" => self.quiet = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Validates flag combinations after parsing.
    fn validate(&self) -> Result<(), String> {
        if self.progress && self.quiet {
            return Err("--progress conflicts with --quiet".into());
        }
        Ok(())
    }

    /// Whether the live progress line should render: forced on by
    /// `--progress`, forced off by `--quiet`, otherwise on exactly when
    /// stderr is a TTY and the run is not a `--resume` replay (resumed
    /// runs are usually scripted recovery; their logs should stay clean).
    pub fn progress_enabled(&self, resume: bool) -> bool {
        if self.quiet {
            return false;
        }
        self.progress || (std::io::stderr().is_terminal() && !resume)
    }

    /// Where the run manifest goes: `--manifest` when given, else next to
    /// the result file.
    pub fn manifest_path(&self, out: &Path) -> PathBuf {
        self.manifest.clone().unwrap_or_else(|| manifest::manifest_path(out))
    }
}

/// Parsed sweep-binary arguments.
#[derive(Debug, Clone)]
pub struct SweepArgs {
    /// Result CSV path.
    pub out: PathBuf,
    /// Serve the cells already in the result store next to `out`.
    pub resume: bool,
    /// Shared observability flags.
    pub obs: ObsFlags,
}

impl SweepArgs {
    /// Runs this invocation's sweep: telemetry from the observability
    /// flags, the result store at [`store_dir`]`(out)` — wiped first unless
    /// `--resume`, so only a resumed run is served from it — and
    /// [`run_sweep_ft`] with every fresh cell stored as it settles. Prints
    /// `resumed N of M cells` when the store served any.
    ///
    /// # Errors
    ///
    /// The exit code (2) to return after an `error[io]` line: the telemetry
    /// journal, the store, or a cell key could not be created, or a cell
    /// could not be stored (the sweep cannot promise a `--resume`).
    pub fn run_sweep(
        &self,
        name: &str,
        jobs: &[Job],
        max_insts: u64,
        run: RunOptions,
    ) -> Result<SweepSummary, ExitCode> {
        let fail = |what: &str, e: &dyn std::fmt::Display| {
            eprintln!("{name}: error[io]: {what}: {e}");
            ExitCode::from(2)
        };
        let store_err = |e: &dyn std::fmt::Display| fail("result store", e);
        let config = TelemetryConfig {
            name: name.to_owned(),
            journal: self.obs.telemetry.clone(),
            chrome_out: self.obs.trace_out.clone(),
            progress: self.obs.progress_enabled(self.resume),
        };
        let telemetry = Telemetry::create(&config, cell_weights(jobs, max_insts), max_insts)
            .map_err(|e| fail("telemetry journal", &e))?;
        let dir = store_dir(&self.out);
        if !self.resume {
            match std::fs::remove_dir_all(&dir) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(store_err(&e)),
                _ => {}
            }
        }
        let store = Arc::new(ResultStore::open(&dir).map_err(|e| store_err(&e))?);
        let code = manifest::code_version();
        let backed = store
            .back_sweep(&code, jobs, max_insts, run, &telemetry, CellHook::default())
            .map_err(|e| store_err(&e))?;
        let opts = SweepOptions {
            run,
            telemetry,
            prefill: backed.prefill,
            on_cell: backed.on_cell,
            ..SweepOptions::default()
        };
        let summary = run_sweep_ft(jobs, max_insts, &opts).map_err(|e| fail("sweep", &e))?;
        if let Some(e) = backed.insert_error.lock().expect("insert error slot").take() {
            return Err(store_err(&e));
        }
        if summary.resumed > 0 && !self.obs.quiet {
            eprintln!(
                "{name}: resumed {} of {} cells from {}",
                summary.resumed,
                summary.cells.len(),
                dir.display()
            );
        }
        Ok(summary)
    }

    /// Parses `std::env::args`, exiting with code 2 and a usage message on
    /// anything unrecognized.
    pub fn parse(default_out: &str) -> SweepArgs {
        or_exit(
            SweepArgs::try_parse(std::env::args().skip(1), default_out),
            &format!("[--out PATH] [--resume] {OBS_USAGE}   (default --out {default_out})"),
        )
    }

    /// [`SweepArgs::parse`] over an explicit argument iterator.
    ///
    /// # Errors
    ///
    /// A message naming the unrecognized or incomplete argument.
    pub fn try_parse(
        args: impl Iterator<Item = String>,
        default_out: &str,
    ) -> Result<SweepArgs, String> {
        SweepArgs::try_parse_with(args, default_out, |_, _| Ok(false))
    }

    /// [`SweepArgs::try_parse`] for a binary with flags of its own:
    /// `extra` consumes the ones it recognizes (returning `true`).
    fn try_parse_with<I: Iterator<Item = String>>(
        mut args: I,
        default_out: &str,
        mut extra: impl FnMut(&str, &mut I) -> Result<bool, String>,
    ) -> Result<SweepArgs, String> {
        let mut out = PathBuf::from(default_out);
        let mut resume = false;
        let mut obs = ObsFlags::default();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--resume" => resume = true,
                "--out" => out = PathBuf::from(args.next().ok_or("--out needs a path argument")?),
                other => {
                    if !obs.try_match(other, &mut args)? && !extra(other, &mut args)? {
                        return Err(format!("unrecognized argument `{other}`"));
                    }
                }
            }
        }
        obs.validate()?;
        Ok(SweepArgs { out, resume, obs })
    }
}

/// Parsed arguments of `ce-explore`: the sweep flags plus the explorer's
/// own knobs.
///
/// ```text
/// --out PATH      write pareto.csv to PATH (tab02_explore.csv lands next
///                 to it; default results/pareto.csv)
/// --resume        serve the cells already in PATH's result store
/// --full          exact full-detail simulation instead of sampled
/// --grid NAME     tiny | full (default full)
/// ```
#[derive(Debug, Clone)]
pub struct ExploreArgs {
    /// The shared sweep flags; `--out` is the `pareto.csv` path.
    pub sweep: SweepArgs,
    /// Exact simulation (`--full`) instead of the sampled default.
    pub full: bool,
    /// Grid scale.
    pub grid: crate::explore::GridScale,
}

impl ExploreArgs {
    /// Parses `std::env::args`, exiting with code 2 and a usage message on
    /// anything unrecognized.
    pub fn parse() -> ExploreArgs {
        or_exit(
            ExploreArgs::try_parse(std::env::args().skip(1)),
            &format!(
                "[--out PATH] [--resume] [--full] [--grid tiny|full] {OBS_USAGE}   \
                 (default --out {})",
                crate::explore::DEFAULT_OUT
            ),
        )
    }

    /// [`ExploreArgs::parse`] over an explicit argument iterator.
    ///
    /// # Errors
    ///
    /// A message naming the unrecognized or incomplete argument.
    pub fn try_parse(args: impl Iterator<Item = String>) -> Result<ExploreArgs, String> {
        let (mut full, mut grid) = (false, crate::explore::GridScale::Full);
        let sweep = SweepArgs::try_parse_with(args, crate::explore::DEFAULT_OUT, |arg, args| {
            match arg {
                "--full" => full = true,
                "--grid" => {
                    grid = args.next().ok_or("--grid needs a scale argument (tiny|full)")?.parse()?;
                }
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(ExploreArgs { sweep, full, grid })
    }
}

/// Unwraps parsed arguments, or prints the error and the usage line and
/// exits with code 2.
fn or_exit<T>(parsed: Result<T, String>, usage: &str) -> T {
    parsed.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        eprintln!("usage: {usage}");
        std::process::exit(2)
    })
}

/// Parsed arguments of the report-style binaries (the delay figure/table
/// binaries), which take only `--out` — they have no result store
/// because the delay models are pure functions with no cells to resume.
#[derive(Debug, Clone)]
pub struct OutArgs {
    /// Result CSV path.
    pub out: PathBuf,
}

impl OutArgs {
    /// Parses `std::env::args`, exiting with code 2 and a usage message on
    /// anything unrecognized.
    pub fn parse(default_out: &str) -> OutArgs {
        or_exit(
            OutArgs::try_parse(std::env::args().skip(1), default_out),
            &format!("[--out PATH]   (default --out {default_out})"),
        )
    }

    /// [`OutArgs::parse`] over an explicit argument iterator.
    ///
    /// # Errors
    ///
    /// A message naming the unrecognized or incomplete argument.
    pub fn try_parse(
        args: impl Iterator<Item = String>,
        default_out: &str,
    ) -> Result<OutArgs, String> {
        let mut out = PathBuf::from(default_out);
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--out" => {
                    out = PathBuf::from(
                        args.next().ok_or("--out needs a path argument")?,
                    );
                }
                other => return Err(format!("unrecognized argument `{other}`")),
            }
        }
        Ok(OutArgs { out })
    }
}

/// The result store a CLI sweep keeps next to its CSV:
/// `results/foo.csv` → `results/foo.store/`.
pub fn store_dir(out: &Path) -> PathBuf {
    let stem = out.file_stem().and_then(|s| s.to_str()).unwrap_or("sweep");
    out.with_file_name(format!("{stem}.store"))
}

/// Finishes a report-style binary: on `Ok` writes the CSV atomically
/// (tempfile + rename); on `Err` writes nothing and reports the model
/// failure. Exit codes mirror [`finish_sweep`]: 0 clean, 1 the models
/// refused to evaluate, 2 I/O errors.
pub fn finish_report(
    name: &str,
    csv: Result<String, impl std::fmt::Display>,
    out: &Path,
) -> ExitCode {
    match csv {
        Ok(csv) => {
            if let Err(e) = write_atomic(out, &csv) {
                eprintln!("{name}: error[io]: writing {}: {e}", out.display());
                return ExitCode::from(2);
            }
            eprintln!("{name}: wrote {}", out.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{name}: error: {e}; no CSV written");
            ExitCode::from(1)
        }
    }
}

/// Applies the uniform end-of-sweep policy (see the module docs) and
/// returns the process exit code: 0 clean, 1 cell failures, 2 I/O errors.
///
/// On success every rendered file (`(path, content)`, `--out` first) is
/// written atomically, a content-addressed run manifest lands next to
/// `--out` (or at `--manifest`), vouching for their bytes and carrying
/// the cache key of `(code version, traces, configs, options)`, and the
/// result store is deleted. A sweep with failures writes none of them
/// and keeps the store.
pub fn finish_sweep(
    name: &str,
    args: &SweepArgs,
    jobs: &[Job],
    max_insts: u64,
    run: RunOptions,
    summary: &SweepSummary,
    files: &[(&Path, String)],
) -> ExitCode {
    if !summary.failures.is_empty() {
        for failure in &summary.failures {
            eprintln!("{name}: error: {failure}");
        }
        eprintln!(
            "{name}: {} of {} cells failed; no CSV written, result store kept for --resume",
            summary.failures.len(),
            summary.cells.len()
        );
        return ExitCode::from(1);
    }
    for (path, content) in files {
        if let Err(e) = write_atomic(path, content) {
            eprintln!("{name}: error[io]: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let manifest_out = args.obs.manifest_path(&args.out);
    let paths: Vec<&Path> = files.iter().map(|(path, _)| *path).collect();
    if let Err(e) =
        manifest::write_manifest(&manifest_out, name, jobs, max_insts, run, summary, &paths)
    {
        eprintln!("{name}: error[io]: manifest: {e}");
        return ExitCode::from(2);
    }
    if !args.obs.quiet {
        for path in paths.iter().chain([&manifest_out.as_path()]) {
            eprintln!("{name}: wrote {}", path.display());
        }
    }
    let _ = std::fs::remove_dir_all(store_dir(&args.out));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<SweepArgs, String> {
        SweepArgs::try_parse(args.iter().map(|s| s.to_string()), "results/x.csv")
    }

    #[test]
    fn defaults_and_flags() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.out, PathBuf::from("results/x.csv"));
        assert!(!a.resume);
        let a = parse(&["--resume", "--out", "/tmp/y.csv"]).unwrap();
        assert!(a.resume);
        assert_eq!(a.out, PathBuf::from("/tmp/y.csv"));
        assert_eq!(store_dir(&a.out), PathBuf::from("/tmp/y.store"));
    }

    #[test]
    fn rejects_unknown_and_incomplete_args() {
        assert!(parse(&["--frobnicate"]).unwrap_err().contains("frobnicate"));
        assert!(parse(&["--out"]).unwrap_err().contains("path"));
    }

    #[test]
    fn explore_args_defaults_flags_and_rejections() {
        let parse = |args: &[&str]| ExploreArgs::try_parse(args.iter().map(|s| s.to_string()));
        let a = parse(&[]).unwrap();
        assert_eq!(a.sweep.out, PathBuf::from("results/pareto.csv"));
        assert!(!a.sweep.resume && !a.full);
        assert_eq!(a.grid, crate::explore::GridScale::Full);

        let a = parse(&["--grid", "tiny", "--full", "--resume", "--out", "/tmp/p.csv"]).unwrap();
        assert!(a.sweep.resume && a.full);
        assert_eq!(a.grid, crate::explore::GridScale::Tiny);
        assert_eq!(a.sweep.out, PathBuf::from("/tmp/p.csv"));

        assert!(parse(&["--grid", "huge"]).unwrap_err().contains("huge"));
        assert!(parse(&["--grid"]).unwrap_err().contains("scale"));
        assert!(parse(&["--frobnicate"]).unwrap_err().contains("frobnicate"));
    }

    fn parse_out(args: &[&str]) -> Result<OutArgs, String> {
        OutArgs::try_parse(args.iter().map(|s| s.to_string()), "results/x.csv")
    }

    #[test]
    fn out_args_defaults_and_flags() {
        assert_eq!(parse_out(&[]).unwrap().out, PathBuf::from("results/x.csv"));
        assert_eq!(
            parse_out(&["--out", "/tmp/y.csv"]).unwrap().out,
            PathBuf::from("/tmp/y.csv")
        );
        assert!(parse_out(&["--resume"]).unwrap_err().contains("resume"));
        assert!(parse_out(&["--out"]).unwrap_err().contains("path"));
    }

    #[test]
    fn obs_flags_parse_on_both_arg_types() {
        let a = parse(&[
            "--telemetry", "/tmp/t.jsonl", "--trace-out", "/tmp/t.trace.json",
            "--manifest", "/tmp/t.manifest.json", "--quiet",
        ])
        .unwrap();
        assert_eq!(a.obs.telemetry, Some(PathBuf::from("/tmp/t.jsonl")));
        assert_eq!(a.obs.trace_out, Some(PathBuf::from("/tmp/t.trace.json")));
        assert_eq!(a.obs.manifest, Some(PathBuf::from("/tmp/t.manifest.json")));
        assert!(a.obs.quiet && !a.obs.progress);

        let e = ExploreArgs::try_parse(
            ["--progress", "--telemetry", "/tmp/e.jsonl"].iter().map(|s| s.to_string()),
        )
        .unwrap();
        assert!(e.sweep.obs.progress);
        assert_eq!(e.sweep.obs.telemetry, Some(PathBuf::from("/tmp/e.jsonl")));

        assert!(parse(&["--telemetry"]).unwrap_err().contains("path"));
        assert!(parse(&["--progress", "--quiet"]).unwrap_err().contains("conflicts"));
    }

    #[test]
    fn progress_rules() {
        // Test processes have no TTY on stderr, so auto mode is off and
        // only the explicit flags matter.
        let auto = ObsFlags::default();
        assert!(!auto.progress_enabled(false), "no TTY in tests");
        let forced = ObsFlags { progress: true, ..ObsFlags::default() };
        assert!(forced.progress_enabled(false));
        assert!(forced.progress_enabled(true), "explicit --progress wins over --resume");
        let quiet = ObsFlags { quiet: true, ..ObsFlags::default() };
        assert!(!quiet.progress_enabled(false));
    }

    #[test]
    fn manifest_path_defaults_next_to_csv_and_obeys_override() {
        let obs = ObsFlags::default();
        assert_eq!(
            obs.manifest_path(Path::new("results/fig13_ipc.csv")),
            PathBuf::from("results/fig13_ipc.manifest.json")
        );
        let obs = ObsFlags { manifest: Some(PathBuf::from("/tmp/m.json")), ..obs };
        assert_eq!(obs.manifest_path(Path::new("results/fig13_ipc.csv")), PathBuf::from("/tmp/m.json"));
    }

    /// A successful sweep finishes into a CSV *and* a schema-tagged
    /// manifest whose artifact entry hashes the CSV bytes.
    #[test]
    fn finish_sweep_writes_csv_and_manifest() {
        use ce_workloads::Benchmark;
        let dir = std::env::temp_dir().join(format!("ce-finish-sweep-{}", std::process::id()));
        let out = dir.join("mini.csv");
        let jobs: Vec<Job> =
            vec![(Benchmark::Compress, ce_sim::machine::baseline_8way())];
        let summary = crate::runner::run_sweep(&jobs, 2_000, RunOptions::default());
        let args = SweepArgs {
            out: out.clone(),
            resume: false,
            obs: ObsFlags { quiet: true, ..ObsFlags::default() },
        };
        let files = [(out.as_path(), "a,b\n".to_owned())];
        let code =
            finish_sweep("mini", &args, &jobs, 2_000, RunOptions::default(), &summary, &files);
        assert_eq!(format!("{code:?}"), format!("{:?}", ExitCode::SUCCESS));
        assert_eq!(std::fs::read_to_string(&out).unwrap(), "a,b\n");
        let manifest_text = std::fs::read_to_string(dir.join("mini.manifest.json")).unwrap();
        let doc = crate::json::Json::parse(&manifest_text).unwrap();
        use crate::json::Json;
        assert_eq!(
            doc.at("schema").and_then(Json::as_str),
            Some(crate::manifest::MANIFEST_SCHEMA)
        );
        assert_eq!(doc.at("cells").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.at("artifacts.0.bytes").and_then(Json::as_u64), Some(4));
        assert_eq!(doc.at("cache_key").and_then(Json::as_str).map(str::len), Some(16));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The store's lifecycle: a fresh run wipes it first, every settled
    /// cell lands in it, `--resume` is served from it, and a clean finish
    /// deletes it.
    #[test]
    fn store_is_wiped_served_on_resume_and_deleted_on_finish() {
        use ce_workloads::Benchmark;
        let dir = std::env::temp_dir().join(format!("ce-cli-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.join("s.csv");
        let jobs: Vec<Job> = vec![(Benchmark::Compress, ce_sim::machine::baseline_8way())];
        let obs = ObsFlags { quiet: true, ..ObsFlags::default() };
        let args = |resume| SweepArgs { out: out.clone(), resume, obs: obs.clone() };
        let sweep =
            |resume| args(resume).run_sweep("s", &jobs, 2_000, RunOptions::default()).unwrap();
        assert_eq!(sweep(false).resumed, 0);
        assert_eq!(ResultStore::open(&store_dir(&out)).unwrap().len(), 1, "stored as it settled");
        assert_eq!(sweep(true).resumed, 1, "--resume is served from the store");
        assert_eq!(sweep(false).resumed, 0, "a fresh run wipes the store first");
        let summary = sweep(true);
        let files = [(out.as_path(), "a\n".to_owned())];
        let run = RunOptions::default();
        let code = finish_sweep("s", &args(true), &jobs, 2_000, run, &summary, &files);
        assert_eq!(format!("{code:?}"), format!("{:?}", ExitCode::SUCCESS));
        assert!(!store_dir(&out).exists(), "a clean finish deletes the store");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_report_writes_on_ok_and_not_on_err() {
        let dir = std::env::temp_dir().join(format!("ce-finish-report-{}", std::process::id()));
        let out = dir.join("ok.csv");
        let code = finish_report("t", Ok::<_, String>("a,b\n1,2\n".into()), &out);
        assert_eq!(format!("{code:?}"), format!("{:?}", ExitCode::SUCCESS));
        assert_eq!(std::fs::read_to_string(&out).unwrap(), "a,b\n1,2\n");

        let out = dir.join("err.csv");
        let code = finish_report("t", Err::<String, _>("model refused"), &out);
        assert_eq!(format!("{code:?}"), format!("{:?}", ExitCode::from(1)));
        assert!(!out.exists(), "no CSV on model failure");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
