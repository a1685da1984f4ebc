//! The three workloads, built from shared legs: set-up, runner sweeps,
//! the sampling audit, layer probes (delay pricing, cache keys, store
//! reads and writes, profiled detailed runs) and the service leg.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ce_bench::api::{self, JobOutcome, JobSpec, SweepKind, SweepPlan, SweepRequest};
use ce_bench::explore::{self, GridScale};
use ce_bench::manifest;
use ce_bench::runner::{
    cell_weights, run_sweep_ft, CellHook, Job, RunOptions, SweepOptions, SweepSummary, TimedResult,
};
use ce_bench::store::{Lookup, ResultStore};
use ce_bench::telemetry::{HealthReport, Telemetry, TelemetryConfig};
use ce_bench::DEFAULT_MAX_INSTS;
use ce_delay::{MachineClock, Technology};
use ce_sim::{machine, SamplingConfig, SimConfig, Simulator};
use ce_workloads::{trace_benchmark, trace_cached, Benchmark};

use crate::daemon::{tree_bytes, Daemon, Submitted};
use crate::inputs::{self, kind_name, ServicePlan, Step, UniverseCell, KINDS};
use crate::ledger::Ledger;
use crate::spans;

/// Set-up rounds per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;
const SERVICE_SETUP_ROUNDS: usize = 3;
/// Profiled detailed cells per scheduler kind in a traced pass.
const PROFILE_PER_KIND: usize = 7;

/// Where a run keeps its scratch state, and how it runs.
pub struct Ctx {
    /// Per-process scratch directory (relative to the working directory,
    /// so socket paths stay short). Nothing under it is deleted until the
    /// run ends: on a filesystem mounted with `discard`, deleting files
    /// slows the fsyncs the service steps time.
    pub run_dir: PathBuf,
    pub workers: usize,
    pub seed: u64,
    next_id: std::cell::Cell<usize>,
}

impl Ctx {
    pub fn new(run_dir: PathBuf, workers: usize, seed: u64) -> Ctx {
        Ctx {
            run_dir,
            workers,
            seed,
            next_id: std::cell::Cell::new(0),
        }
    }

    /// A fresh numbered path under the run directory.
    fn fresh(&self, prefix: &str) -> PathBuf {
        let n = self.next_id.get();
        self.next_id.set(n + 1);
        self.run_dir.join(format!("{prefix}{n}"))
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn read_repo_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

/// Generates every trace the workload needs, [`SETUP_ROUNDS`] times, and
/// returns each round's wall time. The last round goes through the
/// process-wide trace cache the runner reads, so the sweeps that follow
/// find their traces resident.
pub fn setup_traces(led: &mut Ledger, needs: &[(Benchmark, u64)]) -> Vec<f64> {
    let mut rounds = Vec::with_capacity(SETUP_ROUNDS);
    for round in 0..SETUP_ROUNDS {
        let last = round + 1 == SETUP_ROUNDS;
        let start = Instant::now();
        let mut insts = 0u64;
        for &(bench, cap) in needs {
            let t = Instant::now();
            let span = spans::begin(
                "workloads",
                format!("trace_benchmark {bench} {cap}"),
                None,
                None,
            );
            let len = if last {
                trace_cached(bench, cap).map(|t| t.len())
            } else {
                trace_benchmark(bench, cap).map(|t| t.len())
            };
            spans::end(span);
            match len {
                Ok(len) => {
                    insts += len as u64;
                    led.emu_s += t.elapsed().as_secs_f64();
                }
                Err(e) => led.fail(format!("tracing {bench} at {cap}: {e}")),
            }
        }
        rounds.push(start.elapsed().as_secs_f64());
        led.emu_insts += insts;
        led.trace_insts = insts;
    }
    rounds
}

/// Spawns a daemon on a fresh state dir until it answers `ping`, then
/// stops it, [`SERVICE_SETUP_ROUNDS`] times.
pub fn setup_service(ctx: &Ctx, led: &mut Ledger) {
    for _ in 0..SERVICE_SETUP_ROUNDS {
        let start = Instant::now();
        let state = ctx.fresh("setup-state-");
        let socket = ctx.fresh("s");
        let ready = Daemon::spawn(&state, &socket, ctx.workers).and_then(|(mut d, ready)| {
            d.ping()?;
            let setup = start.elapsed().as_secs_f64();
            d.stop()?;
            Ok((ready, setup))
        });
        match ready {
            Ok((ready, setup)) => {
                led.ready_ms.push(ready);
                led.setup_s.push(setup);
            }
            Err(e) => led.fail(format!("service set-up: {e}")),
        }
    }
}

// ---------------------------------------------------------------------
// Runner sweeps
// ---------------------------------------------------------------------

/// Runs one sweep through `runner::run_sweep_ft` with the default policy,
/// recording a runner span with one child span per settled cell.
fn sweep(
    ctx: &Ctx,
    led: &mut Ledger,
    name: &str,
    jobs: &[Job],
    cap: u64,
    run: RunOptions,
) -> SweepSummary {
    let traced = spans::enabled();
    let id = spans::begin("runner", format!("sweep {name}"), None, None);
    let layer = if run.sampled.is_some() {
        "sampling"
    } else {
        "sim"
    };
    let on_cell = if traced {
        let labels: Arc<Vec<String>> = Arc::new(
            jobs.iter()
                .map(|(b, cfg)| format!("{b} {}", kind_name(cfg)))
                .collect(),
        );
        CellHook::new(move |i, r: &TimedResult| {
            let now = Instant::now();
            spans::record(layer, labels[i].clone(), now - r.wall, now, id, None);
        })
    } else {
        CellHook::default()
    };
    let journal = traced.then(|| ctx.fresh("telemetry-").with_extension("jsonl"));
    let telemetry = journal
        .as_ref()
        .and_then(|path| {
            let config = TelemetryConfig {
                name: name.to_owned(),
                journal: Some(path.clone()),
                ..TelemetryConfig::default()
            };
            Telemetry::create(&config, cell_weights(jobs, cap), cap).ok()
        })
        .unwrap_or_default();
    let start = Instant::now();
    let summary = run_sweep_ft(
        jobs,
        cap,
        &SweepOptions {
            run,
            telemetry,
            on_cell,
            ..SweepOptions::default()
        },
    )
    .expect("a sweep without a checkpoint does no I/O that can fail");
    let wall = start.elapsed().as_secs_f64();
    spans::end(id);

    if let Some(path) = journal {
        match std::fs::read_to_string(&path).map(|t| HealthReport::from_journal(&t)) {
            Ok(Ok(report)) => led.retries += report.retries as u64,
            _ => led.fail(format!("sweep {name}: unreadable telemetry journal")),
        }
    }
    led.attempted += jobs.len() as u64;
    for failure in &summary.failures {
        led.failures.push(format!("sweep {name}: {failure}"));
    }
    led.runner_failures += summary.failures.len() as u64;
    led.sweep_s += wall;
    led.leg_s += wall;
    let busy = summary.serial_cell_wall.as_secs_f64();
    led.cell_busy_s += busy;
    led.worker_s += wall * summary.threads as f64;
    led.tail_s += (wall - busy / summary.threads as f64).max(0.0);
    for (cell, (_, cfg)) in summary.cells.iter().zip(jobs) {
        let Some(r) = cell else { continue };
        led.sweep_insts += r.stats.committed;
        if let Some(s) = &r.sampled {
            led.sampled_insts += s.total_insts;
            led.detailed_insts += s.detailed_insts;
            let slot = led.sampled_by_kind.entry(kind_name(cfg)).or_default();
            slot.0 += r.wall.as_secs_f64();
            slot.1 += s.total_insts;
        }
    }
    summary
}

/// Sum of simulated cycles over completed exact cells.
fn cycles(summaries: &[&SweepSummary]) -> u64 {
    summaries
        .iter()
        .flat_map(|s| s.ok_cells())
        .map(|r| r.stats.cycles)
        .sum()
}

/// Folds `|sampled − exact| / exact` of matching cells into the ledger's
/// maximum; cells missing on either side were already counted as failed.
fn fold_sample_error(led: &mut Ledger, exact: &SweepSummary, sampled: &SweepSummary) {
    for (e, s) in exact.cells.iter().zip(&sampled.cells) {
        if let (Some(e), Some(s)) = (e, s) {
            let err = (s.stats.cycles as f64 - e.stats.cycles as f64).abs() / e.stats.cycles as f64
                * 100.0;
            led.sample_err_pct = led.sample_err_pct.max(err);
        }
    }
}

fn sampled(run: RunOptions) -> RunOptions {
    RunOptions {
        sampled: Some(SamplingConfig::default()),
        ..run
    }
}

// ---------------------------------------------------------------------
// Layer probes
// ---------------------------------------------------------------------

/// Prices machines at the three technologies with
/// `MachineClock::try_compute`. Returns the results per machine.
fn price(
    led: &mut Ledger,
    cfgs: &[SimConfig],
) -> Vec<[Result<MachineClock, ce_delay::error::DelayError>; 3]> {
    let techs = Technology::all();
    cfgs.iter()
        .map(|cfg| {
            let mp = explore::machine_params(cfg);
            std::array::from_fn(|t| {
                let start = Instant::now();
                let span = spans::begin("delay", "try_compute", None, None);
                let clock = MachineClock::try_compute(&techs[t], &mp);
                spans::end(span);
                led.clock_us.push(us(start.elapsed()));
                if clock.is_err() {
                    led.delay_skips += 1;
                }
                clock
            })
        })
        .collect()
}

/// Cell keys as the service computes them: the trace fingerprint of each
/// kernel × cap first (timed on its first call), then `cell_key` per
/// cell.
fn cell_keys(led: &mut Ledger, jobs: &[Job], cap: u64, run: RunOptions) -> Vec<String> {
    let code = manifest::code_version();
    for bench in Benchmark::all() {
        // `trace_fingerprint` memoizes per process: only a first call
        // does the work, so only first calls are timed.
        if jobs.iter().any(|(b, _)| *b == bench) && led.fingerprinted.insert((bench, cap)) {
            let start = Instant::now();
            let span = spans::begin(
                "manifest",
                format!("trace_fingerprint {bench} {cap}"),
                None,
                None,
            );
            let fp = manifest::trace_fingerprint(bench, cap);
            spans::end(span);
            led.fp_ms.push(ms(start.elapsed()));
            if let Err(e) = fp {
                led.fail(format!("fingerprinting {bench}: {e}"));
            }
        }
    }
    jobs.iter()
        .map(|job| {
            let start = Instant::now();
            let span = spans::begin("manifest", "cell_key", None, None);
            let key = manifest::cell_key_with(&code, job, cap, run);
            spans::end(span);
            led.cell_key_us.push(us(start.elapsed()));
            key.unwrap_or_else(|e| {
                led.fail(format!("cell key: {e}"));
                String::new()
            })
        })
        .collect()
}

/// Reads every key from the daemon's result store and compares what it
/// holds with the in-process result; then writes the entries into a
/// scratch store. Times `ResultStore::lookup` and `insert`.
fn verify_store(
    ctx: &Ctx,
    led: &mut Ledger,
    state: &Path,
    keyed: &[(String, Option<&TimedResult>)],
) {
    let code = manifest::code_version();
    let (store, scratch) = match (
        ResultStore::open(&state.join("store")),
        ResultStore::open(&ctx.fresh("scratch-store-")),
    ) {
        (Ok(a), Ok(b)) => (a, b),
        _ => return led.fail("opening result stores".into()),
    };
    for (key, expected) in keyed {
        let start = Instant::now();
        let span = spans::begin("store", "lookup", None, None);
        let found = store.lookup(key, &code);
        spans::end(span);
        led.lookup_us.push(us(start.elapsed()));
        let Lookup::Hit(result) = found else {
            led.fail(format!("store has no entry for settled cell {key}"));
            continue;
        };
        if let Some(expected) = expected {
            led.check(
                result.stats.fingerprint() == expected.stats.fingerprint(),
                || format!("store entry {key} differs from the in-process result"),
            );
        }
        let start = Instant::now();
        let span = spans::begin("store", "insert", None, None);
        let inserted = scratch.insert(key, &code, &result);
        spans::end(span);
        led.insert_us.push(us(start.elapsed()));
        if let Err(e) = inserted {
            led.fail(format!("scratch store insert: {e}"));
        }
    }
}

/// Runs up to [`PROFILE_PER_KIND`] cells per scheduler kind (one per
/// kernel) through `Simulator::try_run_profiled`, checking each against
/// the runner's result for the same cell.
fn profile(led: &mut Ledger, cells: &[(Job, u64, &TimedResult)]) {
    let mut taken: Vec<(&str, Benchmark)> = Vec::new();
    for &((bench, cfg), cap, expected) in cells {
        let kind = kind_name(&cfg);
        if taken.iter().filter(|(k, _)| *k == kind).count() >= PROFILE_PER_KIND
            || taken.contains(&(kind, bench))
        {
            continue;
        }
        taken.push((kind, bench));
        let (trace, sim) = match (trace_cached(bench, cap), Simulator::try_new(cfg)) {
            (Ok(t), Ok(s)) => (t, s),
            _ => {
                led.fail(format!("profiling {bench} {kind}: set-up failed"));
                continue;
            }
        };
        let start = Instant::now();
        let span = spans::begin(
            "sim",
            format!("try_run_profiled {bench} {kind}"),
            None,
            None,
        );
        let run = sim.try_run_profiled(&trace);
        spans::end(span);
        let wall = start.elapsed();
        match run {
            Ok((stats, phases)) => {
                led.check(stats.fingerprint() == expected.stats.fingerprint(), || {
                    format!("profiled {bench} {kind} differs from the runner's result")
                });
                let slot = led.profile.entry(kind).or_default();
                slot.cycles += stats.cycles;
                slot.wall_ns += wall.as_secs_f64() * 1e9;
                for (acc, (_, d)) in slot.phase_ns.iter_mut().zip(phases.rows()) {
                    *acc += d.as_secs_f64() * 1e9;
                }
            }
            Err(e) => led.fail(format!("profiling {bench} {kind}: {e}")),
        }
    }
    for kind in KINDS {
        led.check(led.profile.contains_key(kind), || {
            format!("no {kind} cell was profiled")
        });
    }
}

// ---------------------------------------------------------------------
// The service leg
// ---------------------------------------------------------------------

/// One `done` the client received, kept for checking once the
/// in-process work has produced the expectations.
struct Settled {
    step: Step,
    outcome: JobOutcome,
}

/// Runs a plan's steps in order on one client connection: a fresh
/// daemon on a fresh state dir, restarted in place by `Restart` steps;
/// `Work(k)` steps call `work`, and `Rerun` steps run the cold jobs again
/// on a daemon of their own. `job_ms` gets each cold job's fastest run.
/// Returns the main state dir and every outcome, reruns included.
/// After a daemon failure the remaining service steps are skipped (the
/// failure is counted once) but the work still runs.
fn run_plan(
    ctx: &Ctx,
    led: &mut Ledger,
    plan: &ServicePlan,
    labels: &[String],
    work: &mut dyn FnMut(&mut Ledger, usize),
) -> (PathBuf, Vec<Settled>) {
    let state = ctx.fresh("state-");
    let socket = ctx.fresh("s");
    let specs: Vec<String> = plan.jobs.iter().map(JobSpec::to_json).collect();
    let mut settled = Vec::new();
    // Each cold job's latencies, one per cold run, and the store hits of
    // its first run, which every rerun must repeat.
    let mut cold_ms: Vec<Vec<f64>> = vec![Vec::new(); plan.jobs.len()];
    let mut first_hits: Vec<Option<usize>> = vec![None; plan.jobs.len()];
    let mut daemon = match Daemon::spawn(&state, &socket, ctx.workers) {
        Ok((mut d, ready)) => {
            led.ready_ms.push(ready);
            warm_up(led, &mut d, plan, &specs, labels);
            Some(d)
        }
        Err(e) => {
            led.fail(format!("service: {e}"));
            None
        }
    };
    for &step in &plan.steps {
        let j = match step {
            Step::Work(k) => {
                work(led, k);
                continue;
            }
            Step::Rerun => {
                let start = Instant::now();
                for (j, s) in rerun(ctx, led, plan, &specs, labels) {
                    led.check(Some(s.outcome.cache_hits) == first_hits[j], || {
                        format!(
                            "rerun of Cold({j}): {} store hits, the first run had {:?}",
                            s.outcome.cache_hits, first_hits[j]
                        )
                    });
                    cold_ms[j].push(s.done_ms);
                    settled.push(Settled {
                        step: Step::Cold(j),
                        outcome: s.outcome,
                    });
                }
                led.leg_s += start.elapsed().as_secs_f64();
                continue;
            }
            Step::Cold(j) | Step::Replay(j) | Step::Restart(j) => j,
        };
        let Some(mut d) = daemon.take() else { continue };
        let start = Instant::now();
        if let Step::Restart(_) = step {
            led.daemon_rss_kb = led.daemon_rss_kb.max(d.peak_rss_kb().unwrap_or(0));
            let respawned = d
                .stop()
                .and_then(|()| Daemon::spawn(&state, &socket, ctx.workers));
            match respawned {
                Ok((fresh, ready)) => {
                    led.ready_ms.push(ready);
                    d = fresh;
                }
                Err(e) => {
                    led.fail(format!("service restart: {e}"));
                    continue;
                }
            }
        }
        match d.submit(&specs[j], &labels[j]) {
            Ok(s) => {
                let o = &s.outcome;
                led.cells_requested += (o.cache_hits + o.cache_misses) as u64;
                led.cells_cached += o.cache_hits as u64;
                led.accept_ms.push(s.accept_ms);
                match step {
                    Step::Cold(_) => {
                        cold_ms[j].push(s.done_ms);
                        first_hits[j] = Some(o.cache_hits);
                    }
                    Step::Replay(_) => led.hit_ms.push(s.done_ms),
                    _ => led.restart_ms.push(s.done_ms),
                }
                settled.push(Settled {
                    step,
                    outcome: s.outcome,
                });
                daemon = Some(d);
            }
            Err(e) => led.fail(format!("{step:?}: {e}")),
        }
        led.leg_s += start.elapsed().as_secs_f64();
    }
    if let Some(d) = daemon {
        led.daemon_rss_kb = led.daemon_rss_kb.max(d.peak_rss_kb().unwrap_or(0));
        if let Err(e) = d.stop() {
            led.fail(format!("service stop: {e}"));
        }
    }
    for &step in &plan.steps {
        if let Step::Cold(j) = step {
            if let Some(fastest) = cold_ms[j].iter().copied().reduce(f64::min) {
                led.job_ms.push(fastest);
            }
        }
    }
    led.state_bytes += tree_bytes(&state);
    led.store_entries += ResultStore::open(&state.join("store")).map_or(0, |s| s.len() as u64);
    (state, settled)
}

/// Submits the plan's untimed warm-up jobs; each must settle every
/// cell.
fn warm_up(
    led: &mut Ledger,
    d: &mut Daemon,
    plan: &ServicePlan,
    specs: &[String],
    labels: &[String],
) {
    for &j in &plan.warm_up {
        match d.submit(&specs[j], &labels[j]) {
            Ok(s) => led.check(s.outcome.failed == 0, || {
                format!("warm-up {}: {} cells failed", labels[j], s.outcome.failed)
            }),
            Err(e) => led.fail(format!("warm-up {}: {e}", labels[j])),
        }
    }
}

/// One more cold run of every cold job, in the plan's order, on a fresh
/// daemon and state dir. Returns each job's index and what it returned;
/// a failed spawn or submit is counted and ends the rerun.
fn rerun(
    ctx: &Ctx,
    led: &mut Ledger,
    plan: &ServicePlan,
    specs: &[String],
    labels: &[String],
) -> Vec<(usize, Submitted)> {
    let state = ctx.fresh("state-");
    let socket = ctx.fresh("s");
    let mut d = match Daemon::spawn(&state, &socket, ctx.workers) {
        Ok((mut d, ready)) => {
            led.ready_ms.push(ready);
            warm_up(led, &mut d, plan, specs, labels);
            d
        }
        Err(e) => {
            led.fail(format!("service rerun: {e}"));
            return Vec::new();
        }
    };
    let mut out = Vec::new();
    for &step in &plan.steps {
        let Step::Cold(j) = step else { continue };
        match d.submit(&specs[j], &labels[j]) {
            Ok(s) => out.push((j, s)),
            Err(e) => {
                led.fail(format!("rerun of {step:?}: {e}"));
                break;
            }
        }
    }
    led.daemon_rss_kb = led.daemon_rss_kb.max(d.peak_rss_kb().unwrap_or(0));
    if let Err(e) = d.stop() {
        led.fail(format!("service rerun stop: {e}"));
    }
    out
}

/// Checks every outcome: all cells settled, warm submits were served
/// entirely from the store, and the artifacts are what the in-process
/// run renders (`expect`).
fn check_settled(
    led: &mut Ledger,
    settled: &[Settled],
    expect: &dyn Fn(usize, &JobOutcome) -> Result<(), String>,
) {
    for Settled { step, outcome: o } in settled {
        let j = match *step {
            Step::Cold(j) | Step::Replay(j) | Step::Restart(j) => j,
            Step::Work(_) | Step::Rerun => continue,
        };
        led.check(o.failed == 0, || {
            format!("{step:?}: {} cells failed", o.failed)
        });
        if !matches!(step, Step::Cold(_)) {
            led.check(o.cache_misses == 0, || {
                format!("{step:?}: {} cells missed a warm store", o.cache_misses)
            });
        }
        let verdict = expect(j, o);
        led.check(verdict.is_ok(), || {
            format!("{step:?}: {}", verdict.unwrap_err())
        });
    }
}

/// A summary holding exactly `cells`, for rendering with the library's
/// own artifact renderers.
fn summary_of(cells: Vec<TimedResult>) -> SweepSummary {
    SweepSummary {
        cells: cells.into_iter().map(Some).collect(),
        failures: Vec::new(),
        resumed: 0,
        sweep_wall: Duration::ZERO,
        serial_cell_wall: Duration::ZERO,
        total_cycles: 0,
        min_cell_wall: Duration::ZERO,
        max_cell_wall: Duration::ZERO,
        threads: 1,
        schedule: Vec::new(),
    }
}

/// Collects the summaries work chunks produced; a chunk that never ran
/// (it always runs) would be a bug in the schedule.
fn ran(chunks: Vec<Option<SweepSummary>>) -> Vec<SweepSummary> {
    chunks
        .into_iter()
        .map(|s| s.expect("every work chunk runs"))
        .collect()
}

// ---------------------------------------------------------------------
// figures-exact
// ---------------------------------------------------------------------

pub const FIGURE_PRESETS: [SweepKind; 4] = [
    SweepKind::Fig13,
    SweepKind::Fig15,
    SweepKind::Fig17,
    SweepKind::Occupancy,
];

/// One recorded reference cell: the exact run's `SimStats::fingerprint`
/// and the sampled rerun's estimated cycles.
pub type Reference = HashMap<(String, usize), (String, u64)>;

pub fn parse_reference(text: &str) -> Result<Reference, String> {
    let mut out = HashMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let f: Vec<&str> = line.split('\t').collect();
        let [preset, cell, _bench, fingerprint, est] = f[..] else {
            return Err(format!("malformed reference line: {line}"));
        };
        let cell = cell
            .parse()
            .map_err(|_| format!("bad cell index in: {line}"))?;
        let est = est
            .parse()
            .map_err(|_| format!("bad cycle count in: {line}"))?;
        out.insert((preset.to_owned(), cell), (fingerprint.to_owned(), est));
    }
    Ok(out)
}

/// Work chunk `k` of `figures-exact`: preset `k % 4`, exact for chunks
/// 0–3 and under the default sampling geometry for 4–7.
fn figure_chunk(ctx: &Ctx, led: &mut Ledger, plans: &[SweepPlan], k: usize) -> SweepSummary {
    let n = FIGURE_PRESETS.len();
    let (plan, name) = (&plans[k % n], FIGURE_PRESETS[k % n].name());
    if k < n {
        sweep(ctx, led, name, &plan.jobs, DEFAULT_MAX_INSTS, plan.run)
    } else {
        let name = format!("{name} sampled");
        sweep(
            ctx,
            led,
            &name,
            &plan.jobs,
            DEFAULT_MAX_INSTS,
            sampled(plan.run),
        )
    }
}

/// The reference table's text for the current code.
pub fn record_reference(ctx: &Ctx) -> String {
    let mut led = Ledger::default();
    let plans: Vec<SweepPlan> = FIGURE_PRESETS.iter().map(|k| api::plan(*k)).collect();
    let runs: Vec<SweepSummary> = (0..2 * plans.len())
        .map(|k| figure_chunk(ctx, &mut led, &plans, k))
        .collect();
    let (exact, sampled) = runs.split_at(plans.len());
    let mut out = String::from(
        "# figures-exact reference: preset, cell, kernel, exact SimStats fingerprint, \
         sampled estimated cycles\n",
    );
    for (k, kind) in FIGURE_PRESETS.iter().enumerate() {
        for (i, (bench, _)) in plans[k].jobs.iter().enumerate() {
            let (Some(e), Some(s)) = (&exact[k].cells[i], &sampled[k].cells[i]) else {
                panic!("reference cell {} {i} failed", kind.name());
            };
            out.push_str(&format!(
                "{}\t{i}\t{bench}\t{}\t{}\n",
                kind.name(),
                e.stats.fingerprint(),
                s.stats.cycles
            ));
        }
    }
    out
}

pub fn figures_pass(ctx: &Ctx, led: &mut Ledger, reference: &Reference) {
    let n = FIGURE_PRESETS.len();
    let plans: Vec<SweepPlan> = FIGURE_PRESETS.iter().map(|k| api::plan(*k)).collect();
    // The grid through cesimd: every preset's cells as small cold `cells`
    // jobs, then the presets themselves replayed (fully cached) and
    // resubmitted after restarts — with the in-process sweeps interleaved.
    let mut jobs: Vec<JobSpec> = Vec::new();
    let mut cold_cells: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
    let mut cold_counts = Vec::new();
    for (k, plan) in plans.iter().enumerate() {
        let per_job = inputs::FIGURE_CELLS_PER_JOB;
        let Some(cold) =
            inputs::cell_jobs(&plan.jobs, per_job, None, (plan.run.attribution, false))
        else {
            return led.fail(format!(
                "{}: a machine has no registry name",
                FIGURE_PRESETS[k].name()
            ));
        };
        cold_cells.extend(
            (0..cold.len()).map(|p| (k, per_job * p..(per_job * (p + 1)).min(plan.jobs.len()))),
        );
        cold_counts.push(cold.len());
        jobs.extend(cold);
    }
    let n_cold = jobs.len();
    jobs.extend(FIGURE_PRESETS.iter().map(|k| JobSpec::preset(*k)));
    let labels: Vec<String> = (0..jobs.len())
        .map(|j| match cold_cells.get(j) {
            Some((k, cells)) => format!("{} cells {cells:?}", FIGURE_PRESETS[*k].name()),
            None => FIGURE_PRESETS[j - n_cold].name().to_owned(),
        })
        .collect();
    let service = ServicePlan {
        jobs,
        steps: inputs::figures_schedule(ctx.seed, &cold_counts),
        warm_up: Vec::new(),
    };
    let mut chunks: Vec<Option<SweepSummary>> = vec![None; 2 * n];
    let (state, settled) = run_plan(ctx, led, &service, &labels, &mut |led, k| {
        chunks[k] = Some(figure_chunk(ctx, led, &plans, k));
    });
    let mut runs = ran(chunks);
    let sampled = runs.split_off(n);
    let exact = runs;

    for (k, kind) in FIGURE_PRESETS.iter().enumerate() {
        for (i, (e, s)) in exact[k].cells.iter().zip(&sampled[k].cells).enumerate() {
            let want = reference.get(&(kind.name().to_owned(), i));
            let (Some(e), Some(s), Some((fp, est))) = (e, s, want) else {
                led.fail(format!(
                    "{} cell {i}: no result or no reference",
                    kind.name()
                ));
                continue;
            };
            led.check(&e.stats.fingerprint() == fp, || {
                format!(
                    "{} cell {i}: exact fingerprint differs from the reference",
                    kind.name()
                )
            });
            led.check(s.stats.cycles == *est, || {
                format!(
                    "{} cell {i}: sampled cycles {} != reference {est}",
                    kind.name(),
                    s.stats.cycles
                )
            });
        }
        fold_sample_error(led, &exact[k], &sampled[k]);
    }
    led.exact_cycles
        .push(cycles(&exact.iter().collect::<Vec<_>>()));
    let rendered: Vec<Vec<(String, String)>> = FIGURE_PRESETS
        .iter()
        .zip(&exact)
        .map(|(k, s)| {
            if s.all_ok() {
                api::preset_artifacts(*k, s)
            } else {
                Vec::new()
            }
        })
        .collect();
    for (k, path) in [
        (0, "results/fig13_ipc.csv"),
        (1, "results/fig15_clustered.csv"),
    ] {
        let csv = rendered[k]
            .first()
            .map(|(_, csv)| csv.as_str())
            .unwrap_or_default();
        match read_repo_file(path) {
            Ok(committed) => led.check(csv == committed, || format!("{path} differs")),
            Err(e) => led.fail(e),
        }
    }
    // What each job must return: a cold job the library's `cells.csv`
    // render of the in-process results, a preset its figure CSVs.
    let expected: Vec<Vec<(String, String)>> = service
        .jobs
        .iter()
        .enumerate()
        .map(|(j, spec)| match cold_cells.get(j) {
            Some((k, cells)) => exact[*k].cells[cells.clone()]
                .iter()
                .cloned()
                .collect::<Option<Vec<_>>>()
                .map(|rs| spec.artifacts(false, &summary_of(rs)))
                .unwrap_or_default(),
            None => rendered[j - n_cold].clone(),
        })
        .collect();
    check_settled(led, &settled, &|j, o| {
        if o.artifacts == expected[j] {
            Ok(())
        } else {
            Err("artifacts differ from the in-process render".to_owned())
        }
    });

    // Delay pricing of the grid's machines (a control: the figures price
    // nothing on their own path beyond fig15's speedup roll-up).
    let mut cfgs: Vec<SimConfig> = Vec::new();
    for plan in &plans {
        for (_, cfg) in &plan.jobs {
            if !cfgs.contains(cfg) {
                cfgs.push(*cfg);
            }
        }
    }
    price(led, &cfgs);

    let mut keyed: Vec<(String, Option<&TimedResult>)> = Vec::new();
    for (plan, summary) in plans.iter().zip(&exact) {
        let keys = cell_keys(led, &plan.jobs, DEFAULT_MAX_INSTS, plan.run);
        keyed.extend(
            keys.into_iter()
                .zip(summary.cells.iter().map(Option::as_ref)),
        );
    }
    verify_store(ctx, led, &state, &keyed);

    if spans::enabled() {
        let mut cells = Vec::new();
        for (plan, summary) in plans.iter().zip(&exact) {
            for ((bench, cfg), r) in plan.jobs.iter().zip(&summary.cells) {
                let cfg = SimConfig {
                    attribution: cfg.attribution | plan.run.attribution,
                    ..*cfg
                };
                if let Some(r) = r {
                    cells.push(((*bench, cfg), DEFAULT_MAX_INSTS, r));
                }
            }
        }
        profile(led, &cells);
    }
}

// ---------------------------------------------------------------------
// explore-sampled
// ---------------------------------------------------------------------

/// Committed `results/pareto.csv` rows by `(label, tech_um)`.
pub type Pareto = HashMap<(String, String), Vec<String>>;

pub fn parse_pareto(text: &str) -> Pareto {
    text.lines()
        .skip(1)
        .map(|line| {
            let f: Vec<String> = line.split(',').map(str::to_owned).collect();
            ((f[0].clone(), f[1].clone()), f)
        })
        .collect()
}

/// Column indices of `pareto.csv`.
const P_STATUS: usize = 8;
const P_RENAME: usize = 10;
const P_CLOCK: usize = 13;
const P_SIM_INSTS: usize = 15;
const P_IPC: usize = 16;
const P_FRONTIER: usize = 18;

/// Checks one rendered `pareto.csv` row against the committed one, up to
/// (not including) the frontier flag, which depends on the whole grid.
fn pareto_row_matches(pareto: &Pareto, line: &str) -> Result<(), String> {
    let f: Vec<&str> = line.split(',').collect();
    let Some(row) = pareto.get(&(f[0].to_owned(), f[1].to_owned())) else {
        return Err(format!("row {} @ {} is not in pareto.csv", f[0], f[1]));
    };
    if f.len() == row.len() && f[..P_FRONTIER] == row[..P_FRONTIER] {
        Ok(())
    } else {
        Err(format!("row {} @ {} differs from pareto.csv", f[0], f[1]))
    }
}

pub fn explore_pass(ctx: &Ctx, led: &mut Ledger, subset: &[usize], pareto: &Pareto) {
    let points = explore::grid(GridScale::Full);
    let techs = Technology::all();
    let cfgs: Vec<SimConfig> = subset.iter().map(|&i| points[i].cfg).collect();
    let clocks = price(led, &cfgs);
    let benches = Benchmark::all();
    let jobs: Vec<Job> = cfgs
        .iter()
        .flat_map(|cfg| benches.iter().map(move |&b| (b, *cfg)))
        .collect();
    let run = sampled(RunOptions::default());
    let audit = inputs::explore_audit();

    // Work chunks: 0 the subset, exactly as `explore::explore` sweeps it;
    // 1 and 2 the sampling audit (a fixed cell per family), exact and
    // sampled. Around them, the explorer's CI-scale grid goes through
    // cesimd: its cells as small cold sampled `cells` jobs, then the
    // preset itself replayed (fully cached) and after restarts.
    let tiny = api::plan(SweepKind::ExploreTiny);
    let mut service_jobs = Vec::new();
    for cap in inputs::EXPLORE_COLD_CAPS {
        let Some(jobs) = inputs::cell_jobs(&tiny.jobs, 1, cap, (false, true)) else {
            return led.fail("explore-tiny: a machine has no registry name".into());
        };
        service_jobs.extend(jobs);
    }
    let n_cold = service_jobs.len();
    service_jobs.push(JobSpec::preset(SweepKind::ExploreTiny));
    let labels: Vec<String> = (0..=n_cold)
        .map(|j| {
            if j < n_cold {
                format!("explore-tiny cells#{j}")
            } else {
                "explore-tiny".into()
            }
        })
        .collect();
    let service = ServicePlan {
        jobs: service_jobs,
        steps: inputs::explore_schedule(n_cold),
        warm_up: Vec::new(),
    };
    // The subset runs as `SUBSET_CHUNKS` runner sweeps of whole
    // organisations, so the service steps can interleave with it.
    let per_chunk = subset.len().div_ceil(inputs::SUBSET_CHUNKS) * benches.len();
    let mut chunks: Vec<Option<SweepSummary>> = vec![None; inputs::SUBSET_CHUNKS + 2];
    let (state, settled) = run_plan(ctx, led, &service, &labels, &mut |led, k| {
        chunks[k] = Some(match k {
            k if k < inputs::SUBSET_CHUNKS => {
                let part =
                    &jobs[(k * per_chunk).min(jobs.len())..((k + 1) * per_chunk).min(jobs.len())];
                sweep(
                    ctx,
                    led,
                    &format!("explore subset {k}"),
                    part,
                    DEFAULT_MAX_INSTS,
                    run,
                )
            }
            k if k == inputs::SUBSET_CHUNKS => sweep(
                ctx,
                led,
                "audit",
                &audit,
                DEFAULT_MAX_INSTS,
                RunOptions::default(),
            ),
            _ => sweep(ctx, led, "audit sampled", &audit, DEFAULT_MAX_INSTS, run),
        });
    });
    let mut runs = ran(chunks);
    let audit_sampled = runs.pop().expect("audit chunks");
    let exact = runs.pop().expect("audit chunks");
    let subset_cells: Vec<Option<TimedResult>> = runs.into_iter().flat_map(|s| s.cells).collect();
    fold_sample_error(led, &exact, &audit_sampled);
    led.exact_cycles.push(cycles(&[&exact]));

    // Each organisation's harmonic-mean IPC and delay roll-up against the
    // committed pareto.csv rows, at every technology.
    for (o, &i) in subset.iter().enumerate() {
        let cells = &subset_cells[o * benches.len()..(o + 1) * benches.len()];
        let label = &points[i].label;
        let score = cells.iter().all(Option::is_some).then(|| {
            let inv: f64 = cells
                .iter()
                .flatten()
                .map(|c| c.stats.cycles as f64 / c.stats.committed as f64)
                .sum();
            let insts: u64 = cells.iter().flatten().map(|c| c.stats.committed).sum();
            (benches.len() as f64 / inv, insts)
        });
        for (t, tech) in techs.iter().enumerate() {
            let tech_um = tech.feature().micrometers().to_string();
            let Some(row) = pareto.get(&(label.clone(), tech_um.clone())) else {
                led.fail(format!("pareto.csv has no row {label} @ {tech_um}"));
                continue;
            };
            match (&clocks[o][t], score) {
                (Ok(clock), Some((ipc, insts))) => {
                    let got = [
                        "ok".to_owned(),
                        format!("{:.1}", clock.rename_ps),
                        format!("{:.1}", clock.window_logic_ps),
                        format!("{:.1}", clock.bypass_ps),
                        format!("{:.1}", clock.clock_ps()),
                        insts.to_string(),
                        format!("{ipc:.4}"),
                    ];
                    let want = [
                        &row[P_STATUS],
                        &row[P_RENAME],
                        &row[P_RENAME + 1],
                        &row[P_RENAME + 2],
                        &row[P_CLOCK],
                        &row[P_SIM_INSTS],
                        &row[P_IPC],
                    ];
                    led.check(got.iter().zip(want).all(|(g, w)| g == w), || {
                        format!("{label} @ {tech_um}: {got:?} != committed {want:?}")
                    });
                }
                (Err(_), _) => led.check(row[P_STATUS] == "skip-delay", || {
                    format!(
                        "{label} @ {tech_um}: delay refused, committed row is {}",
                        row[P_STATUS]
                    )
                }),
                (Ok(_), None) => led.fail(format!("{label}: cells failed")),
            }
        }
    }
    // Cold jobs must answer their cells in order; the preset's pareto.csv
    // rows (every cell folded into harmonic-mean IPC at four decimals)
    // must equal the committed rows.
    check_settled(led, &settled, &|j, o| {
        if let SweepRequest::Cells { cells, .. } = &service.jobs[j].request {
            let Some((_, csv)) = o.artifacts.iter().find(|(n, _)| n == "cells.csv") else {
                return Err("no cells.csv artifact".to_owned());
            };
            let rows: Vec<&str> = csv.lines().skip(1).collect();
            let in_order = rows.len() == cells.len()
                && rows
                    .iter()
                    .zip(cells)
                    .all(|(row, c)| row.starts_with(&format!("{},{},", c.bench.name(), c.machine)));
            return if in_order {
                Ok(())
            } else {
                Err("cells.csv rows out of order".into())
            };
        }
        let Some((_, csv)) = o.artifacts.iter().find(|(n, _)| n == "pareto.csv") else {
            return Err("no pareto.csv artifact".to_owned());
        };
        csv.lines()
            .skip(1)
            .try_for_each(|line| pareto_row_matches(pareto, line))
    });

    let subset_keys = cell_keys(led, &jobs, DEFAULT_MAX_INSTS, run);
    let mine: HashMap<String, &TimedResult> = subset_keys
        .into_iter()
        .zip(subset_cells.iter())
        .filter_map(|(k, c)| c.as_ref().map(|c| (k, c)))
        .collect();
    let keyed: Vec<(String, Option<&TimedResult>)> =
        cell_keys(led, &tiny.jobs, DEFAULT_MAX_INSTS, tiny.run)
            .into_iter()
            .map(|k| {
                let mine = mine.get(&k).copied();
                (k, mine)
            })
            .collect();
    verify_store(ctx, led, &state, &keyed);

    if spans::enabled() {
        let cells: Vec<(Job, u64, &TimedResult)> = audit
            .iter()
            .zip(&exact.cells)
            .filter_map(|(job, r)| r.as_ref().map(|r| (*job, DEFAULT_MAX_INSTS, r)))
            .collect();
        profile(led, &cells);
    }
}

// ---------------------------------------------------------------------
// service-mixed
// ---------------------------------------------------------------------

/// The traces the service reference sweep reads: every kernel at every
/// stream cap.
pub fn service_trace_needs() -> Vec<(Benchmark, u64)> {
    inputs::STREAM_CAPS
        .iter()
        .flat_map(|&cap| Benchmark::all().into_iter().map(move |b| (b, cap)))
        .collect()
}

fn machine_name(name: &str) -> Option<&'static str> {
    machine::MACHINE_NAMES.iter().copied().find(|&n| n == name)
}

pub fn service_pass(ctx: &Ctx, led: &mut Ledger, plan: &ServicePlan) {
    // Work chunk k: the whole universe at cap `k / 2` through the
    // in-process runner, exact for even k and sampled for odd k — the
    // reference every daemon answer is checked against.
    let universes: Vec<(u64, Vec<UniverseCell>, Vec<Job>)> = inputs::STREAM_CAPS
        .iter()
        .map(|&cap| {
            let cells: Vec<UniverseCell> = inputs::service_universe()
                .into_iter()
                .filter(|c| c.2 == cap)
                .collect();
            let jobs = cells
                .iter()
                .map(|&(b, m, _)| (b, machine::by_name(m).expect("registry machine")))
                .collect();
            (cap, cells, jobs)
        })
        .collect();
    let labels: Vec<String> = (0..plan.jobs.len()).map(|j| format!("cells#{j}")).collect();
    let (requested_before, cached_before) = (led.cells_requested, led.cells_cached);
    let mut chunks: Vec<Option<SweepSummary>> = vec![None; 2 * universes.len()];
    let (state, settled) = run_plan(ctx, led, plan, &labels, &mut |led, k| {
        let (cap, _, jobs) = &universes[k / 2];
        let run = if k % 2 == 0 {
            RunOptions::default()
        } else {
            sampled(RunOptions::default())
        };
        let name = format!(
            "reference {cap}{}",
            if k % 2 == 0 { "" } else { " sampled" }
        );
        chunks[k] = Some(sweep(ctx, led, &name, jobs, *cap, run));
    });
    let runs = ran(chunks);
    let mut results: HashMap<UniverseCell, TimedResult> = HashMap::new();
    let mut sampled_results: HashMap<UniverseCell, TimedResult> = HashMap::new();
    for (u, (_, cells, _)) in universes.iter().enumerate() {
        let (exact, samp) = (&runs[2 * u], &runs[2 * u + 1]);
        fold_sample_error(led, exact, samp);
        for (cell, (e, s)) in cells.iter().zip(exact.cells.iter().zip(&samp.cells)) {
            if let Some(e) = e {
                results.insert(*cell, e.clone());
            }
            if let Some(s) = s {
                sampled_results.insert(*cell, s.clone());
            }
        }
    }
    led.exact_cycles
        .push(cycles(&runs.iter().step_by(2).collect::<Vec<_>>()));

    // Each job's cells.csv must be what the library renders from the
    // in-process results (sampled ones for the sampled warm-up jobs).
    let expected: Vec<Option<String>> = plan
        .jobs
        .iter()
        .map(|spec| {
            let SweepRequest::Cells { cells, sampled, .. } = &spec.request else {
                return None;
            };
            let cap = spec.max_insts?;
            let from = if *sampled { &sampled_results } else { &results };
            let rs: Option<Vec<TimedResult>> = cells
                .iter()
                .map(|c| {
                    from.get(&(c.bench, machine_name(&c.machine)?, cap))
                        .cloned()
                })
                .collect();
            let arts = spec.artifacts(false, &summary_of(rs?));
            arts.into_iter()
                .find(|(n, _)| n == "cells.csv")
                .map(|(_, c)| c)
        })
        .collect();
    check_settled(
        led,
        &settled,
        &|j, o| match (&expected[j], o.artifacts.first()) {
            (Some(want), Some((name, got))) if name == "cells.csv" && got == want => Ok(()),
            (None, _) => Err("no in-process reference for this job".to_owned()),
            _ => Err("cells.csv differs from the in-process run_sweep".to_owned()),
        },
    );

    // The store must have served exactly the cells the stream predicts.
    let (cold_requested, cold_misses) = plan.cold_counts();
    let warm = plan.warm_cells();
    let want_cached = (cold_requested - cold_misses + warm) as u64;
    let got_cached = led.cells_cached - cached_before;
    let got_requested = led.cells_requested - requested_before;
    led.check(
        got_cached == want_cached && got_requested == (cold_requested + warm) as u64,
        || {
            format!(
                "store served {got_cached}/{got_requested} cells, stream predicts {want_cached}"
            )
        },
    );

    let cfgs: Vec<SimConfig> = machine::MACHINE_NAMES
        .iter()
        .map(|m| machine::by_name(m).expect("registry machine"))
        .collect();
    price(led, &cfgs);

    let mut keys: HashMap<UniverseCell, String> = HashMap::new();
    for (cap, cells, jobs) in &universes {
        let ks = cell_keys(led, jobs, *cap, RunOptions::default());
        keys.extend(cells.iter().copied().zip(ks));
    }
    let mut requested: Vec<UniverseCell> = Vec::new();
    for spec in &plan.jobs {
        if let (
            SweepRequest::Cells {
                cells,
                sampled: false,
                ..
            },
            Some(cap),
        ) = (&spec.request, spec.max_insts)
        {
            for c in cells {
                if let Some(m) = machine_name(&c.machine) {
                    if !requested.contains(&(c.bench, m, cap)) {
                        requested.push((c.bench, m, cap));
                    }
                }
            }
        }
    }
    let keyed: Vec<(String, Option<&TimedResult>)> = requested
        .iter()
        .filter_map(|cell| Some((keys.get(cell)?.clone(), results.get(cell))))
        .collect();
    verify_store(ctx, led, &state, &keyed);

    if spans::enabled() {
        let cap = inputs::STREAM_CAPS[inputs::STREAM_CAPS.len() - 1];
        let cells: Vec<(Job, u64, &TimedResult)> = universes
            .iter()
            .filter(|(c, _, _)| *c == cap)
            .flat_map(|(_, cells, jobs)| cells.iter().zip(jobs))
            .filter_map(|(cell, job)| Some((*job, cap, results.get(cell)?)))
            .collect();
        profile(led, &cells);
    }
}
