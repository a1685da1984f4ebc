//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload figures-exact|explore-sampled|service-mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each run sets up once, then repeats its
//! workload's pass as often as fits `--seconds` (at least once; the count
//! depends only on `--seconds`). `--trace 0` prints the end-to-end metrics; `--trace 1` runs one
//! traced pass and one untraced pass and prints the per-layer metrics,
//! span self times and the tracing overhead. The last stdout line is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Every
//! output check that fails is listed on stderr and makes the exit code 1.
//!
//! Two internal modes: `perfbench daemon --state DIR --socket PATH` is
//! the `cesimd` child the service leg drives, and `perfbench
//! record-reference` rewrites `perfbench/reference/figures_exact.tsv`.
//! Metric definitions and what each layer metric should move are in
//! `perfbench/METRICS.md`.

mod daemon;
mod inputs;
mod ledger;
mod legs;
mod spans;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ledger::{Ledger, Metric};

const REFERENCE: &str = "perfbench/reference/figures_exact.tsv";
const OUT_DIR: &str = ".perfbench";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FiguresExact,
    ExploreSampled,
    ServiceMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "figures-exact" => Some(Workload::FiguresExact),
            "explore-sampled" => Some(Workload::ExploreSampled),
            "service-mixed" => Some(Workload::ServiceMixed),
            _ => None,
        }
    }

    /// Passes per run: `--seconds` over the pass length measured on a
    /// 2-core VM, rounded, at least one. Fixed per run, so every count in
    /// the ledger repeats exactly.
    fn passes(self, seconds: f64) -> usize {
        let pass_s = match self {
            Workload::FiguresExact => 20.0,
            Workload::ExploreSampled => 30.0,
            Workload::ServiceMixed => 13.0,
        };
        ((seconds / pass_s).round() as usize).max(1)
    }

    fn name(self) -> &'static str {
        match self {
            Workload::FiguresExact => "figures-exact",
            Workload::ExploreSampled => "explore-sampled",
            Workload::ServiceMixed => "service-mixed",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Sweep workers: at most two, and never more than the machine has.
fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Pins the environment every layer reads: the worker count, and no
/// variable that silently changes caps, keys, caches or injects faults.
/// Runs before any other thread exists.
fn pin_env(workers: usize) {
    std::env::set_var("CE_THREADS", workers.to_string());
    for var in daemon::PINNED_OFF {
        std::env::remove_var(var);
    }
}

/// The commit being measured, when the checkout is a git repository.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn run_daemon(args: &[String]) -> ExitCode {
    let (mut state, mut socket) = (None, None);
    let mut it = args.iter();
    while let (Some(flag), Some(value)) = (it.next(), it.next()) {
        match flag.as_str() {
            "--state" => state = Some(PathBuf::from(value)),
            "--socket" => socket = Some(PathBuf::from(value)),
            _ => {}
        }
    }
    let (Some(state_dir), Some(socket)) = (state, socket) else {
        eprintln!("usage: perfbench daemon --state DIR --socket PATH");
        return ExitCode::from(2);
    };
    let mut config = ce_bench::service::ServiceConfig::new(socket, state_dir);
    config.quiet = true;
    match ce_bench::service::run(config) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench daemon: error[io]: {e}");
            ExitCode::from(2)
        }
    }
}

/// Everything one run measured.
struct Outcome {
    led: Ledger,
    metrics: Vec<Metric>,
    passes: usize,
}

fn run_workload(args: &Args, ctx: &legs::Ctx) -> Result<Outcome, String> {
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"));
    let pass: Box<dyn Fn(&mut Ledger) + '_> = match args.workload {
        Workload::FiguresExact => {
            let reference = legs::parse_reference(&read(REFERENCE)?)?;
            Box::new(move |led| legs::figures_pass(ctx, led, &reference))
        }
        Workload::ExploreSampled => {
            let pareto = legs::parse_pareto(&read("results/pareto.csv")?);
            let subset = inputs::explore_subset(args.seed);
            Box::new(move |led| legs::explore_pass(ctx, led, &subset, &pareto))
        }
        Workload::ServiceMixed => {
            let stream = inputs::service_stream(args.seed);
            Box::new(move |led| legs::service_pass(ctx, led, &stream))
        }
    };

    spans::set_enabled(args.trace);
    let mut led = Ledger::default();
    match args.workload {
        Workload::FiguresExact | Workload::ExploreSampled => {
            let needs: Vec<_> = ce_workloads::Benchmark::all()
                .into_iter()
                .map(|b| (b, ce_bench::DEFAULT_MAX_INSTS))
                .collect();
            led.setup_s = legs::setup_traces(&mut led, &needs);
        }
        Workload::ServiceMixed => {
            legs::setup_service(ctx, &mut led);
            // The reference sweeps' traces: generated like the sweep
            // workloads' set-up, but not part of this workload's set-up.
            legs::setup_traces(&mut led, &legs::service_trace_needs());
        }
    }

    if args.trace {
        pass(&mut led);
        spans::set_enabled(false);
        let spans = spans::drain();
        let mut untraced = Ledger::default();
        pass(&mut untraced);
        let overhead = (led.leg_s / untraced.leg_s - 1.0) * 100.0;
        led.attempted += untraced.attempted;
        led.failures.extend(untraced.failures);
        led.exact_cycles.extend(untraced.exact_cycles);
        let trace_path = Path::new(OUT_DIR).join("traces").join(format!(
            "{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        let title = format!("perfbench {} seed {}", args.workload.name(), args.seed);
        write_file(&trace_path, &spans::chrome_json(&title, &spans))?;
        let metrics = ledger::per_layer(&led, &spans::self_time_us(&spans), overhead);
        return Ok(Outcome {
            led,
            metrics,
            passes: 2,
        });
    }

    let passes = args.workload.passes(args.seconds);
    for _ in 0..passes {
        pass(&mut led);
    }
    let peak_kb = match args.workload {
        Workload::ServiceMixed => led.daemon_rss_kb,
        _ => daemon::vm_hwm_kb("/proc/self/status").unwrap_or(0),
    };
    let metrics = ledger::end_to_end(&led, peak_kb);
    Ok(Outcome {
        led,
        metrics,
        passes,
    })
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("daemon") {
        return run_daemon(&argv[1..]);
    }
    // Paths below are relative to the repository root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if let Err(e) = std::env::set_current_dir(&root) {
        eprintln!(
            "perfbench: cannot enter the repository root {}: {e}",
            root.display()
        );
        return ExitCode::from(2);
    }
    let workers = workers();
    pin_env(workers);
    let run_dir = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: creating {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }

    if argv.first().map(String::as_str) == Some("record-reference") {
        let ctx = legs::Ctx::new(run_dir.clone(), workers, 0);
        let text = legs::record_reference(&ctx);
        let _ = std::fs::remove_dir_all(&run_dir);
        return match write_file(Path::new(REFERENCE), &text) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }

    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload figures-exact|explore-sampled|service-mixed \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let ctx = legs::Ctx::new(run_dir.clone(), workers, args.seed);
    daemon::flush_disks();
    let outcome = run_workload(&args, &ctx);
    let _ = std::fs::remove_dir_all(&run_dir);
    daemon::flush_disks();
    let Outcome {
        mut led,
        metrics,
        passes,
    } = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    // Simulated quantities must repeat exactly from pass to pass.
    if led.exact_cycles.windows(2).any(|w| w[0] != w[1]) {
        let cycles = led.exact_cycles.clone();
        led.fail(format!(
            "simulated cycles differ between passes: {cycles:?}"
        ));
    }
    let failed = led.failures.len() as u64;
    let attempted = led.attempted.max(1);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = commit();

    for failure in &led.failures {
        eprintln!("perfbench: FAILED: {failure}");
    }
    println!(
        "perfbench {} seed={} trace={} passes={passes} nproc={nproc} workers={workers} \
         commit={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        commit
    );
    for m in &metrics {
        let n = if m.samples > 0 {
            format!("  (n={})", m.samples)
        } else {
            String::new()
        };
        println!("  {:<36} {:>14.4} {}{n}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<36} {:>14.6} ratio  ({failed} of {attempted} operations failed)",
        "fail_ratio",
        failed as f64 / attempted as f64
    );

    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let raw = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"passes\": {passes}, \
         \"nproc\": {nproc}, \"workers\": {workers}, \"commit\": \"{}\", \
         \"attempted\": {attempted}, \"failed\": {failed}, \"samples\": {{{}}}, \
         \"metrics\": {{{}}}, \"raw_ms\": {{\"job\": [{}], \"hit\": [{}], \"restart_hit\": [{}], \
         \"setup\": [{}]}}}}\n",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        commit,
        metrics
            .iter()
            .filter(|m| m.samples > 0)
            .map(|m| format!("\"{}\": {}", m.name, m.samples))
            .collect::<Vec<_>>()
            .join(", "),
        metrics_json.join(", "),
        raw(&led.job_ms),
        raw(&led.hit_ms),
        raw(&led.restart_ms),
        raw(&led.setup_s.iter().map(|s| s * 1e3).collect::<Vec<_>>()),
    );
    let record_path = Path::new(OUT_DIR).join("results").join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = write_file(&record_path, &record) {
        eprintln!("perfbench: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics_json.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
