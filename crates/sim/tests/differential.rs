//! Differential tests: the optimized [`Simulator`] against the deliberately
//! naive [`OracleSimulator`].
//!
//! The two implement the same architectural contract with disjoint data
//! structures (event heap / hot ring / store tracker / bitmasks vs. plain
//! `Vec` scans), so a *bit-identical* statistics fingerprint across many
//! workloads and configurations is strong evidence that neither the
//! optimizations nor the reference model drifted from the paper's
//! semantics. The invariant checker runs on the optimized side of every
//! comparison, so each case also re-verifies the per-cycle issue rules from
//! first principles.
//!
//! On a mismatch the failing trace is minimized with
//! [`ce_workloads::shrink::shrink_trace`] before being reported, so the
//! panic message carries a reproducer small enough to step through.

use ce_sim::{machine, MemDisambiguation, OracleSimulator, SelectionPolicy, SimConfig, Simulator};
use ce_workloads::synthetic::{generate, SyntheticConfig};
use ce_workloads::{shrink::shrink_trace, trace_cached, Benchmark, Trace};
use proptest::prelude::*;

/// Runs both simulators (checker enabled on the optimized one) and panics
/// with a shrunk reproducer if their fingerprints differ.
fn assert_agree(label: &str, cfg: SimConfig, trace: &Trace) {
    let mut checked = cfg;
    checked.check = true;
    let optimized = Simulator::new(checked).run(trace).fingerprint();
    let oracle = OracleSimulator::new(cfg).run(trace).fingerprint();
    if optimized == oracle {
        return;
    }
    // Minimize with the checker off, so a checker panic cannot mask the
    // divergence being reduced.
    let small = shrink_trace(trace, |t| {
        Simulator::new(cfg).run(t).fingerprint() != OracleSimulator::new(cfg).run(t).fingerprint()
    });
    panic!(
        "{label}: optimized and oracle simulators diverge\n\
         \x20 optimized: {optimized}\n\
         \x20 oracle:    {oracle}\n\
         minimal reproducer ({} instructions):\n{}",
        small.len(),
        ce_workloads::trace_io::format_trace(&small),
    );
}

/// The acceptance grid: every Figure 17 organization on every benchmark
/// kernel must match the oracle exactly.
#[test]
fn all_organizations_match_oracle_on_all_kernels() {
    for (name, cfg) in machine::figure17_machines() {
        for bench in Benchmark::all() {
            let trace = trace_cached(bench, 20_000).expect("kernel runs");
            assert_agree(&format!("{name} x {bench}"), cfg, &trace);
        }
    }
}

/// The unchecked path must match the oracle as well as the checked one.
/// Split stores on the central window pin the pruned scan's one
/// same-pass dependence: a store's data producer can issue earlier in the
/// select pass that scans the store, so waiting on it would prune a store
/// the oracle issues.
#[test]
fn unchecked_split_store_runs_match_oracle() {
    let cfg = SimConfig { split_store_issue: true, ..machine::baseline_8way() };
    for bench in Benchmark::all() {
        let trace = trace_cached(bench, 5_000).expect("kernel runs");
        let production = Simulator::new(cfg).run(&trace).fingerprint();
        let oracle = OracleSimulator::new(cfg).run(&trace).fingerprint();
        assert_eq!(production, oracle, "baseline+split_store x {bench}");
    }
}

/// Synthetic-trace mixes chosen to stress distinct mechanisms: the default
/// SPEC-ish mix, a memory-heavy small-working-set mix (store-to-load
/// forwarding and cache misses), an unpredictable-branch mix (squash
/// paths), and a tight-dependence mix (serialized wakeup chains).
fn mix(sel: usize, seed: u64) -> SyntheticConfig {
    let base = match sel {
        0 => SyntheticConfig::default(),
        1 => SyntheticConfig {
            load_frac: 0.40,
            store_frac: 0.25,
            branch_frac: 0.05,
            working_set_words: 64,
            ..SyntheticConfig::default()
        },
        2 => SyntheticConfig {
            branch_frac: 0.30,
            predictability: 0.0,
            taken_prob: 0.5,
            ..SyntheticConfig::default()
        },
        _ => SyntheticConfig { dep_locality: 0.95, ..SyntheticConfig::default() },
    };
    SyntheticConfig { seed, ..base }
}

proptest! {
    /// Random synthetic traces across all five organizations.
    #[test]
    fn organizations_match_oracle_on_synthetic_traces(
        seed in 0u64..1_000_000,
        org_sel in 0usize..5,
        mix_sel in 0usize..4,
    ) {
        let (name, cfg) = machine::figure17_machines()[org_sel];
        let config = mix(mix_sel, seed);
        let trace = generate(&config, 3_000);
        assert_agree(&format!("{name} x synthetic(mix {mix_sel}, seed {seed})"), cfg, &trace);
    }

    /// Random synthetic traces across the non-default configuration knobs:
    /// split store issue, selection policies, disambiguation rules, bypass
    /// and latency models, pipelined wakeup/select, wrong-path modeling,
    /// fetch breaks, the alternative steering policies, and the
    /// position / youngest-first orders on the pooled organizations too
    /// (the scheduler derives them from one age-ordered scan).
    #[test]
    fn config_knobs_match_oracle_on_synthetic_traces(
        seed in 0u64..1_000_000,
        knob in 0usize..15,
    ) {
        use ce_sim::{BypassModel, LatencyModel, SteeringPolicy};
        let (label, cfg) = match knob {
            0 => ("baseline+split_store", SimConfig {
                split_store_issue: true, ..machine::baseline_8way() }),
            1 => ("fifos+split_store", SimConfig {
                split_store_issue: true, ..machine::dependence_8way() }),
            2 => ("baseline+position_select", SimConfig {
                selection: SelectionPolicy::Position, ..machine::baseline_8way() }),
            3 => ("baseline+youngest_first", SimConfig {
                selection: SelectionPolicy::YoungestFirst, ..machine::baseline_8way() }),
            4 => ("baseline+all_stores_complete", SimConfig {
                mem_disambiguation: MemDisambiguation::AllStoresComplete,
                ..machine::baseline_8way() }),
            5 => ("baseline+oracle_disambiguation", SimConfig {
                mem_disambiguation: MemDisambiguation::Oracle, ..machine::baseline_8way() }),
            6 => ("baseline+no_bypass", SimConfig {
                bypass_model: BypassModel::None, ..machine::baseline_8way() }),
            7 => ("baseline+pipelined_wakeup", SimConfig {
                pipelined_wakeup_select: true, ..machine::baseline_8way() }),
            8 => ("baseline+weighted_latency", SimConfig {
                latency: LatencyModel::Weighted, ..machine::baseline_8way() }),
            9 => ("clustered_fifos+wrong_path", SimConfig {
                model_wrong_path: true, ..machine::clustered_fifos_8way() }),
            10 => ("windows+round_robin+fetch_breaks", SimConfig {
                steering: SteeringPolicy::RoundRobin,
                fetch_breaks_on_taken: true,
                ..machine::clustered_windows_dispatch_8way() }),
            11 => ("fifos+position_select", SimConfig {
                selection: SelectionPolicy::Position, ..machine::dependence_8way() }),
            12 => ("windows+position_select", SimConfig {
                selection: SelectionPolicy::Position,
                ..machine::clustered_windows_dispatch_8way() }),
            13 => ("windows+youngest_first", SimConfig {
                selection: SelectionPolicy::YoungestFirst,
                ..machine::clustered_windows_dispatch_8way() }),
            _ => ("clustered_fifos+load_balanced+perfect_bpred", {
                let mut c = machine::clustered_fifos_8way();
                c.steering = SteeringPolicy::LoadBalanced;
                c.bpred.perfect = true;
                c
            }),
        };
        let config = mix(seed as usize % 4, seed);
        let trace = generate(&config, 2_000);
        assert_agree(&format!("{label} (seed {seed})"), cfg, &trace);
    }
}
