//! What a run measured, and the metrics derived from it.

use std::collections::{BTreeMap, BTreeSet};

use ce_workloads::Benchmark;

use crate::inputs::KINDS;

/// Phase names of `ce_sim::PhaseProfile::rows`, in pipeline order.
pub const PHASES: [&str; 6] = ["fetch", "dispatch", "wakeup", "select", "execute", "commit"];

/// Layers that record spans, in metric order.
pub const LAYERS: [&str; 8] = [
    "workloads",
    "manifest",
    "sim",
    "sampling",
    "delay",
    "runner",
    "service",
    "store",
];

/// Profiled detailed runs of one scheduler kind.
#[derive(Debug, Default, Clone)]
pub struct Profile {
    pub cycles: u64,
    pub wall_ns: f64,
    pub phase_ns: [f64; 6],
}

/// Accumulated measurements of one or more passes.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted (cells, submits, output checks).
    pub attempted: u64,
    /// One line per failed cell, rejected submit, or output mismatch.
    pub failures: Vec<String>,

    pub setup_s: Vec<f64>,
    /// Instructions one set-up round generates.
    pub trace_insts: u64,
    pub emu_insts: u64,
    pub emu_s: f64,

    pub sweep_insts: u64,
    pub sweep_s: f64,
    pub cell_busy_s: f64,
    pub worker_s: f64,
    pub tail_s: f64,
    pub retries: u64,
    pub runner_failures: u64,
    /// Simulated cycles of the exact cells, one entry per pass.
    pub exact_cycles: Vec<u64>,
    pub sample_err_pct: f64,
    pub sampled_insts: u64,
    pub detailed_insts: u64,
    pub sampled_by_kind: BTreeMap<&'static str, (f64, u64)>,
    pub profile: BTreeMap<&'static str, Profile>,

    /// Kernel × cap pairs this process has fingerprinted.
    pub fingerprinted: BTreeSet<(Benchmark, u64)>,
    pub fp_ms: Vec<f64>,
    pub cell_key_us: Vec<f64>,
    pub clock_us: Vec<f64>,
    pub delay_skips: u64,

    pub job_ms: Vec<f64>,
    pub hit_ms: Vec<f64>,
    pub restart_ms: Vec<f64>,
    pub ready_ms: Vec<f64>,
    pub accept_ms: Vec<f64>,
    pub cells_requested: u64,
    pub cells_cached: u64,
    pub state_bytes: u64,
    pub store_entries: u64,
    pub lookup_us: Vec<f64>,
    pub insert_us: Vec<f64>,
    pub daemon_rss_kb: u64,

    /// Host time of the legs both a traced and an untraced pass run
    /// (sweeps and the service leg), for the tracing overhead.
    pub leg_s: f64,
}

impl Ledger {
    /// Counts one output check; a failed one is recorded with its reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Counts an operation that failed outright.
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failures.push(what);
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a median or percentile (0 for other metrics).
    pub samples: usize,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

/// Linear-interpolated quantile (`q` in `[0, 1]`); `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        f64::NAN
    }
}

/// The end-to-end metrics, from an untraced run.
pub fn end_to_end(led: &Ledger, peak_rss_kb: u64) -> Vec<Metric> {
    let p = |v: &Vec<f64>, q: f64| quantile(v, q);
    vec![
        metric("setup_s", p(&led.setup_s, 0.5), "s", led.setup_s.len()),
        metric(
            "sweep_minst_per_s",
            ratio(led.sweep_insts as f64, led.sweep_s) / 1e6,
            "Minst/s",
            0,
        ),
        metric("sample_err_pct", led.sample_err_pct, "%", 0),
        metric("job_ms_p50", p(&led.job_ms, 0.5), "ms", led.job_ms.len()),
        metric("job_ms_p90", p(&led.job_ms, 0.9), "ms", led.job_ms.len()),
        metric(
            "restart_hit_ms_p50",
            p(&led.restart_ms, 0.5),
            "ms",
            led.restart_ms.len(),
        ),
        metric("peak_rss_mb", peak_rss_kb as f64 / 1024.0, "MB", 0),
    ]
}

/// The per-layer metrics, from a traced pass, plus span self times and
/// the tracing overhead against an untraced pass of the same legs.
pub fn per_layer(
    led: &Ledger,
    self_us: &BTreeMap<&'static str, u64>,
    overhead_pct: f64,
) -> Vec<Metric> {
    let mut out = vec![
        metric(
            "workloads.emu_minst_per_s",
            ratio(led.emu_insts as f64, led.emu_s) / 1e6,
            "Minst/s",
            0,
        ),
        metric("workloads.trace_insts", led.trace_insts as f64, "count", 0),
        metric(
            "manifest.trace_fp_ms",
            mean(&led.fp_ms),
            "ms",
            led.fp_ms.len(),
        ),
        metric(
            "manifest.cell_key_us",
            mean(&led.cell_key_us),
            "us",
            led.cell_key_us.len(),
        ),
    ];
    for kind in KINDS {
        let prof = led.profile.get(kind).cloned().unwrap_or_default();
        let cycles = prof.cycles as f64;
        out.push(metric(
            format!("sim.{kind}.ns_per_cycle"),
            ratio(prof.wall_ns, cycles),
            "ns/cycle",
            0,
        ));
        for (phase, ns) in PHASES.iter().zip(prof.phase_ns) {
            out.push(metric(
                format!("sim.{kind}.{phase}_ns_per_cycle"),
                ratio(ns, cycles),
                "ns/cycle",
                0,
            ));
        }
    }
    out.push(metric(
        "sim.cycles",
        led.exact_cycles.first().copied().unwrap_or(0) as f64,
        "count",
        0,
    ));
    out.push(metric(
        "sampling.detailed_frac",
        ratio(led.detailed_insts as f64, led.sampled_insts as f64),
        "ratio",
        0,
    ));
    for kind in KINDS {
        let (wall_s, insts) = led.sampled_by_kind.get(kind).copied().unwrap_or_default();
        out.push(metric(
            format!("sampling.{kind}.ns_per_inst"),
            ratio(wall_s * 1e9, insts as f64),
            "ns/inst",
            0,
        ));
    }
    out.extend([
        metric(
            "delay.clock_us",
            mean(&led.clock_us),
            "us",
            led.clock_us.len(),
        ),
        metric("delay.skips", led.delay_skips as f64, "count", 0),
        metric(
            "runner.busy_frac",
            ratio(led.cell_busy_s, led.worker_s),
            "ratio",
            0,
        ),
        metric("runner.tail_s", led.tail_s, "s", 0),
        metric("runner.retries", led.retries as f64, "count", 0),
        metric("runner.failures", led.runner_failures as f64, "count", 0),
        metric(
            "service.ready_ms",
            quantile(&led.ready_ms, 0.5),
            "ms",
            led.ready_ms.len(),
        ),
        metric(
            "service.hit_ms_p50",
            quantile(&led.hit_ms, 0.5),
            "ms",
            led.hit_ms.len(),
        ),
        metric(
            "service.hit_ms_p90",
            quantile(&led.hit_ms, 0.9),
            "ms",
            led.hit_ms.len(),
        ),
        metric(
            "service.accept_ms_p50",
            quantile(&led.accept_ms, 0.5),
            "ms",
            led.accept_ms.len(),
        ),
        metric(
            "service.state_bytes_per_cell",
            ratio(led.state_bytes as f64, led.store_entries as f64),
            "B/cell",
            0,
        ),
        metric(
            "store.hit_ratio",
            ratio(led.cells_cached as f64, led.cells_requested as f64),
            "ratio",
            0,
        ),
        metric(
            "store.lookup_us",
            mean(&led.lookup_us),
            "us",
            led.lookup_us.len(),
        ),
        metric(
            "store.insert_us",
            mean(&led.insert_us),
            "us",
            led.insert_us.len(),
        ),
        metric("trace.overhead_pct", overhead_pct, "%", 0),
    ]);
    for layer in LAYERS {
        let us = self_us.get(layer).copied().unwrap_or(0);
        out.push(metric(format!("{layer}.self_ms"), us as f64 / 1e3, "ms", 0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
    }
}
