//! `ce-explore` — closed-loop design-space exploration (Section 6).
//!
//! Enumerates issue width × scheduler geometry × cluster count × steering
//! across the three technology nodes, scores every point with
//! BIPS = IPC × 1000 / clock_ps (clock from the delay models, IPC from
//! the simulator — sampled by default, exact with `--full`), and writes:
//!
//! * `results/pareto.csv` — every design point with delay/IPC/BIPS
//!   provenance, a structured skip status for refused corners, and a
//!   per-technology Pareto frontier flag;
//! * `results/tab02_explore.csv` — a Table 2-style roll-up extending the
//!   paper's §5.6 organizations with the best-BIPS point the grid found;
//! * `results/pareto.manifest.json` — the content-addressed run manifest
//!   vouching for both CSVs (see `ce_bench::manifest`).
//!
//! The IPC sweep stores every settled cell in a result store next to the
//! output CSV (`pareto.store/`); kill it at any point and rerun with
//! `--resume` for byte-identical results. On any cell failure neither
//! CSV is written and the store is kept, matching every other sweep
//! binary. The shared observability flags (`--telemetry`,
//! `--trace-out`, `--manifest`, `--progress`, `--quiet`) behave exactly
//! as in the sweep binaries.
//!
//! ```text
//! usage: [--out PATH] [--resume] [--full] [--grid tiny|full]
//!        [--telemetry PATH] [--trace-out PATH] [--manifest PATH]
//!        [--progress] [--quiet]
//! ```

use std::process::ExitCode;

use ce_bench::cli::{self, ExploreArgs};
use ce_bench::explore::{
    explore_jobs, pareto_csv, row_census, run_options, score, tab02_explore_csv, tab02_path,
};

fn main() -> ExitCode {
    let ExploreArgs { sweep: args, full, grid } = ExploreArgs::parse();
    let max_insts = ce_bench::max_insts();
    let jobs = explore_jobs(grid);
    let summary = match args.run_sweep("ce-explore", &jobs, max_insts, run_options(full)) {
        Ok(summary) => summary,
        Err(code) => return code,
    };
    let report = score(grid, full, Some(summary));
    let summary = report.summary.as_ref().expect("scored from a sweep");
    let tab02_out = tab02_path(&args.out);
    let files = [
        (args.out.as_path(), pareto_csv(&report)),
        (tab02_out.as_path(), tab02_explore_csv(&report)),
    ];
    let (jobs, run) = (&report.jobs, report.run);
    let code = cli::finish_sweep("ce-explore", &args, jobs, max_insts, run, summary, &files);
    if code == ExitCode::SUCCESS && !args.obs.quiet {
        let (ok, skip_delay, skip_sim) = row_census(&report);
        eprintln!(
            "ce-explore: {} design points × 3 technologies: {ok} scored, \
             {skip_delay} skip-delay, {skip_sim} skip-sim ({} mode)",
            report.points.len(),
            if report.sampled { "sampled" } else { "exact" }
        );
    }
    code
}
