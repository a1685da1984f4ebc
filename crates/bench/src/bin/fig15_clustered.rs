//! Figure 15: IPC of the 2×4-way clustered dependence-based machine
//! (2-cycle inter-cluster bypass) versus the 8-way window baseline, plus
//! the Section 5.5 clock-adjusted speedup.
//!
//! ```text
//! cargo run --release -p ce-bench --bin fig15_clustered -- [--out PATH] [--resume]
//! ```
//!
//! Runs fault-tolerantly: each cell is stored as it completes, so a
//! killed run restarted with `--resume` re-simulates only unfinished
//! cells and writes a byte-identical CSV.

use std::process::ExitCode;

use ce_bench::api::{self, SweepKind};
use ce_bench::cli::{finish_sweep, SweepArgs};
use ce_core::analysis::{mean_improvement, MachineSpec, Speedup};
use ce_delay::{FeatureSize, Technology};
use ce_workloads::Benchmark;

fn main() -> ExitCode {
    let args = SweepArgs::parse("results/fig15_clustered.csv");
    let tech = Technology::new(FeatureSize::U018);
    // Grid, options, and the CSV renderer come from the shared api plan
    // (see `ce_bench::api`): this binary and cesimd emit the same bytes.
    let plan = api::plan(SweepKind::Fig15);
    let jobs = plan.jobs;
    let max_insts = ce_bench::max_insts();
    let summary = match args.run_sweep("fig15_clustered", &jobs, max_insts, plan.run) {
        Ok(summary) => summary,
        Err(code) => return code,
    };

    let mut csv = String::new();
    if summary.all_ok() {
        csv = api::fig15_csv(&summary);
        println!("Figure 15: IPC, 64-entry window 8-way vs 2-cluster dependence-based 8-way");
        println!(
            "{:<10} {:>10} {:>12} {:>12} {:>10} {:>9}",
            "benchmark", "window", "2x4 fifos", "degradation", "IC-bypass", "speedup"
        );
        ce_bench::rule(68);
        let mut results = summary.ok_cells().map(|r| &r.stats);
        let mut speedups = Vec::new();
        for bench in Benchmark::all() {
            let win = results.next().expect("window cell");
            let dep = results.next().expect("clustered cell");
            let s = Speedup::combine(
                &tech,
                MachineSpec::paper_dependence_machine(),
                win.ipc(),
                dep.ipc(),
            );
            println!(
                "{:<10} {:>10.3} {:>12.3} {:>11.1}% {:>9.1}% {:>8.2}x",
                bench.name(),
                win.ipc(),
                dep.ipc(),
                s.ipc_degradation() * 100.0,
                dep.intercluster_bypass_frequency() * 100.0,
                s.speedup
            );
            speedups.push(s);
        }
        println!();
        println!(
            "clock ratio clk_dep/clk_win = {:.3} (paper: 1.25 at 0.18 um)",
            speedups[0].clock_ratio
        );
        println!(
            "mean clock-adjusted improvement: {:+.1}% (paper: 10-22%, average 16%)",
            mean_improvement(&speedups) * 100.0
        );
        println!();
    }
    let files = [(args.out.as_path(), csv)];
    finish_sweep("fig15_clustered", &args, &jobs, max_insts, plan.run, &summary, &files)
}
