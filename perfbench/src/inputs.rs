//! Seeded inputs: the stratified explore subset and the service job
//! stream. Both are pure functions of the seed, so a run can be repeated
//! exactly and the seed tests below can pin their properties.

use std::collections::BTreeSet;

use ce_bench::api::{CellSpec, JobSpec, SweepRequest};
use ce_bench::explore::{self, DesignPoint, GridScale};
use ce_delay::{MachineClock, Technology};
use ce_sim::{machine, SchedulerKind, SimConfig};
use ce_workloads::Benchmark;

/// SplitMix64: a tiny, well-mixed generator whose output depends only on
/// the seed, so inputs never change with a dependency's version.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The short name of a scheduler kind, as the per-layer metrics use it.
pub fn kind_name(cfg: &SimConfig) -> &'static str {
    match cfg.scheduler {
        SchedulerKind::CentralWindow { .. } => "window",
        SchedulerKind::Fifos { .. } => "fifo",
        SchedulerKind::SteeredWindows { .. } => "swin",
    }
}

/// The scheduler kinds in metric order.
pub const KINDS: [&str; 3] = ["window", "fifo", "swin"];

/// An explore family: issue width × clusters × scheduler kind.
pub type Family = (usize, usize, &'static str);

pub fn family(cfg: &SimConfig) -> Family {
    (cfg.issue_width, cfg.clusters, kind_name(cfg))
}

/// Indices into `explore::grid(GridScale::Full)` of the organisations the
/// explorer simulates: valid for the simulator and clockable by at least
/// one technology (the rule `explore::explore_jobs` applies).
pub fn simulatable(points: &[DesignPoint]) -> Vec<usize> {
    let techs = Technology::all();
    (0..points.len())
        .filter(|&i| {
            let cfg = &points[i].cfg;
            cfg.validate().is_ok() && {
                let mp = explore::machine_params(cfg);
                techs
                    .iter()
                    .any(|t| MachineClock::try_compute(t, &mp).is_ok())
            }
        })
        .collect()
}

/// The seeded stratified third of the full explore grid: within every
/// family, a seeded shuffle keeps `ceil(n / 3)` organisations. Returned
/// as sorted grid indices, so the sweep runs in grid order.
pub fn explore_subset(seed: u64) -> Vec<usize> {
    let points = explore::grid(GridScale::Full);
    let mut families: Vec<(Family, Vec<usize>)> = Vec::new();
    for i in simulatable(&points) {
        let f = family(&points[i].cfg);
        match families.iter_mut().find(|(g, _)| *g == f) {
            Some((_, members)) => members.push(i),
            None => families.push((f, vec![i])),
        }
    }
    let mut rng = Rng::new(seed);
    let mut chosen = Vec::new();
    for (_, mut members) in families {
        rng.shuffle(&mut members);
        chosen.extend_from_slice(&members[..members.len().div_ceil(3)]);
    }
    chosen.sort_unstable();
    chosen
}

/// The fixed sampling-audit cells of the explore workload: the first
/// organisation of every family in grid order, each with one kernel
/// (rotating through the seven). Seed-independent, so the audit error is
/// comparable across runs.
pub fn explore_audit() -> Vec<(Benchmark, SimConfig)> {
    let points = explore::grid(GridScale::Full);
    let mut seen: Vec<Family> = Vec::new();
    let mut cells = Vec::new();
    for i in simulatable(&points) {
        let f = family(&points[i].cfg);
        if !seen.contains(&f) {
            let bench = Benchmark::all()[seen.len() % 7];
            seen.push(f);
            cells.push((bench, points[i].cfg));
        }
    }
    cells
}

/// Instruction caps of the service stream's jobs.
pub const STREAM_CAPS: [u64; 3] = [40_000, 120_000, 400_000];
/// Jobs in the mixed stream, cells per job, and the share of cell slots
/// that ask for a cell no earlier job settled.
pub const STREAM_JOBS: usize = 100;
pub const CELLS_PER_JOB: usize = 3;
pub const FRESH_SHARE: f64 = 0.4;
/// A warm replay follows every cold job; the daemon restarts
/// `STREAM_RESTARTS` times once the cold stream has settled. The
/// in-process work is split into `STREAM_WORK` chunks, the first
/// `STREAM_WORK_COLD` of them spread over the cold stream.
pub const STREAM_RESTARTS: usize = 20;
pub const STREAM_WORK: usize = 6;
pub const STREAM_WORK_COLD: usize = 3;

/// Cold runs of every cold job on `figures-exact` and `service-mixed`:
/// the first on the workload's daemon, each further one on a fresh
/// daemon and state dir ([`Step::Rerun`]).
/// `job_ms` keeps each job's fastest run, so a slow spell of the shared
/// host that lands on one run of a job does not move the percentiles.
pub const COLD_RUNS: usize = 2;

/// One cell of the service universe: kernel, machine name, cap.
pub type UniverseCell = (Benchmark, &'static str, u64);

/// Every cell the service stream can ask for: 7 kernels ×
/// `machine::MACHINE_NAMES` × [`STREAM_CAPS`].
pub fn service_universe() -> Vec<UniverseCell> {
    let mut cells = Vec::new();
    for cap in STREAM_CAPS {
        for bench in Benchmark::all() {
            for name in machine::MACHINE_NAMES {
                cells.push((bench, name, cap));
            }
        }
    }
    cells
}

/// One step of a service workload, run in order on one client
/// connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Submit job `j` for the first time.
    Cold(usize),
    /// Resubmit job `j` (already settled) to the warm daemon.
    Replay(usize),
    /// SIGTERM the daemon, start a new one on the same state dir, and
    /// resubmit job `j` as its first request.
    Restart(usize),
    /// Start a fresh daemon on a fresh state dir, submit every cold job
    /// to it again in order, and stop it: one more cold run of each job.
    Rerun,
    /// Run chunk `k` of the workload's in-process work. Interleaving it
    /// with the service steps spreads every latency sample over the whole
    /// run, so a slow spell of the host does not land on one metric.
    Work(usize),
}

/// A service workload: the jobs, the schedule of steps over them, and
/// the jobs every fresh daemon gets first, untimed.
#[derive(Debug, Clone)]
pub struct ServicePlan {
    pub jobs: Vec<JobSpec>,
    pub steps: Vec<Step>,
    pub warm_up: Vec<usize>,
}

impl ServicePlan {
    #[cfg(test)]
    /// The plan as bytes: one spec per line, then the schedule.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        for job in &self.jobs {
            out.push_str(&job.to_json());
            out.push('\n');
        }
        out.push_str(&format!("{:?}\n", self.steps));
        out.into_bytes()
    }

    #[cfg(test)]
    /// The share of requested cells in the cold submits that no earlier
    /// job settled, which is what the daemon's store misses.
    pub fn cold_miss_share(&self) -> f64 {
        let (requested, misses) = self.cold_counts();
        misses as f64 / requested as f64
    }

    /// `(requested, misses)` over the cold submits. Cells are looked up
    /// before any of the job's own cells settle, so a cell repeated
    /// inside one job misses twice. Replays and restarts only ever hit.
    pub fn cold_counts(&self) -> (usize, usize) {
        let mut settled: BTreeSet<(String, Option<u64>)> = BTreeSet::new();
        let (mut requested, mut misses) = (0, 0);
        for step in &self.steps {
            if let Step::Cold(j) = *step {
                let keys = cell_identities(&self.jobs[j]);
                requested += keys.len();
                misses += keys.iter().filter(|k| !settled.contains(*k)).count();
                settled.extend(keys);
            }
        }
        (requested, misses)
    }

    /// Cells requested by the warm steps (replays and restarts).
    pub fn warm_cells(&self) -> usize {
        self.steps
            .iter()
            .map(|step| match *step {
                Step::Replay(j) | Step::Restart(j) => cell_identities(&self.jobs[j]).len(),
                Step::Cold(_) | Step::Work(_) | Step::Rerun => 0,
            })
            .sum()
    }

    #[cfg(test)]
    /// Whether every warm step resubmits a job the warm-up or an earlier
    /// cold step ran.
    pub fn warm_steps_follow_cold(&self) -> bool {
        let mut cold: BTreeSet<usize> = self.warm_up.iter().copied().collect();
        self.steps.iter().all(|step| match *step {
            Step::Cold(j) => {
                cold.insert(j);
                true
            }
            Step::Replay(j) | Step::Restart(j) => cold.contains(&j),
            Step::Work(_) => true,
            Step::Rerun => !cold.is_empty(),
        })
    }
}

/// A job's cells as comparable identities (cell text plus cap). Presets
/// are identified by their wire name; the service stream only uses
/// explicit cells.
fn cell_identities(job: &JobSpec) -> Vec<(String, Option<u64>)> {
    match &job.request {
        SweepRequest::Cells {
            cells,
            attribution,
            sampled,
        } => cells
            .iter()
            .map(|c| {
                (
                    format!("{}/{}/{attribution}/{sampled}", c.bench.name(), c.machine),
                    job.max_insts,
                )
            })
            .collect(),
        SweepRequest::Preset(kind) => vec![(kind.name().to_owned(), job.max_insts)],
    }
}

/// The seeded `service-mixed` stream: [`STREAM_JOBS`] custom `cells`
/// jobs of [`CELLS_PER_JOB`] distinct cells, each job at one cap, with
/// the same job shapes for every seed. Per cap, the first job asks for
/// fresh cells only (nothing at that cap has settled yet); every later
/// job for one fresh cell plus repeats of cells earlier jobs at that cap
/// settled, or for two fresh cells, so that the cap's fresh cells are
/// [`FRESH_SHARE`] of its slots. The seed shuffles the caps' order and
/// the cells, and picks which later jobs take two fresh cells.
///
/// The jobs after the stream's are [`service_warm_up`], which every
/// fresh daemon gets before the first step. The schedule: every cold
/// submit is followed by a replay of a settled job, on a daemon that has
/// run since the start. Then the daemon restarts [`STREAM_RESTARTS`]
/// times, with the remaining work chunks and the [`COLD_RUNS`] reruns in
/// between. After each restart the first warm-up job is resubmitted: a
/// fully cached submit that must re-read and fingerprint the same seven
/// traces on every seed.
pub fn service_stream(seed: u64) -> ServicePlan {
    let mut rng = Rng::new(seed);
    let mut caps: Vec<usize> = (0..STREAM_JOBS).map(|i| i % STREAM_CAPS.len()).collect();
    rng.shuffle(&mut caps);
    let mut pools: Vec<Vec<(Benchmark, &'static str)>> = STREAM_CAPS
        .iter()
        .map(|_| {
            let mut pool: Vec<_> = Benchmark::all()
                .into_iter()
                .flat_map(|b| machine::MACHINE_NAMES.into_iter().map(move |m| (b, m)))
                .collect();
            rng.shuffle(&mut pool);
            pool
        })
        .collect();
    // Fresh cells per job, cap by cap, popped from the back as the cap's
    // jobs run.
    let mut shapes: Vec<Vec<usize>> = (0..STREAM_CAPS.len())
        .map(|c| {
            let n = caps.iter().filter(|&&k| k == c).count();
            let fresh = (n as f64 * CELLS_PER_JOB as f64 * FRESH_SHARE).round() as usize;
            let twos = fresh - CELLS_PER_JOB - (n - 1);
            let mut later: Vec<usize> = (0..n - 1).map(|i| 1 + usize::from(i < twos)).collect();
            rng.shuffle(&mut later);
            later.push(CELLS_PER_JOB);
            later
        })
        .collect();
    let mut settled: Vec<Vec<(Benchmark, &'static str)>> = vec![Vec::new(); STREAM_CAPS.len()];
    let mut jobs = Vec::with_capacity(STREAM_JOBS);
    for &c in &caps {
        let fresh = shapes[c].pop().expect("one shape per job");
        let left = pools[c].len() - fresh;
        let mut cells: Vec<(Benchmark, &'static str)> = pools[c].split_off(left);
        while cells.len() < CELLS_PER_JOB {
            let repeats: Vec<_> = settled[c]
                .iter()
                .filter(|cell| !cells.contains(cell))
                .copied()
                .collect();
            cells.push(repeats[rng.below(repeats.len())]);
        }
        settled[c].extend_from_slice(&cells[..fresh]);
        jobs.push(JobSpec {
            request: SweepRequest::Cells {
                cells: cells
                    .iter()
                    .map(|&(bench, m)| CellSpec {
                        bench,
                        machine: m.to_owned(),
                    })
                    .collect(),
                attribution: false,
                sampled: false,
            },
            max_insts: Some(STREAM_CAPS[c]),
            deadline_ms: None,
            allow_degraded: false,
            tag: None,
        });
    }
    let mut steps = Vec::new();
    for j in 0..jobs.len() {
        if j * STREAM_WORK_COLD % jobs.len() < STREAM_WORK_COLD {
            steps.push(Step::Work(j * STREAM_WORK_COLD / jobs.len()));
        }
        steps.push(Step::Cold(j));
        for _ in 0..REPLAYS_PER_COLD {
            steps.push(Step::Replay(rng.below(j + 1)));
        }
    }
    // After the cold stream: the remaining work chunks with the reruns
    // between them, and the restarts spread evenly after each of those.
    let mut later: Vec<Step> = (STREAM_WORK_COLD..STREAM_WORK).map(Step::Work).collect();
    for r in 1..COLD_RUNS {
        later.insert(2 * r - 1, Step::Rerun);
    }
    let warm_up: Vec<usize> = (jobs.len()..jobs.len() + STREAM_CAPS.len()).collect();
    jobs.extend(service_warm_up());
    let n_later = later.len();
    let mut restarts = 0;
    for (b, step) in later.into_iter().enumerate() {
        steps.push(step);
        while restarts < STREAM_RESTARTS * (b + 1) / n_later {
            steps.push(Step::Restart(warm_up[0]));
            restarts += 1;
        }
    }
    ServicePlan {
        jobs,
        steps,
        warm_up,
    }
}

/// The jobs a fresh `service-mixed` daemon gets first, untimed: per cap,
/// one sampled cell of every kernel. They make the daemon generate and
/// fingerprint every trace the stream reads, so that the timed jobs
/// measure store reads and writes, simulation and the journal, and a
/// job's latency does not depend on whether the seed made it the first
/// to read a trace. Sampled cells have keys of their own, so the stream
/// still misses and hits exactly as [`ServicePlan::cold_counts`] says.
pub fn service_warm_up() -> Vec<JobSpec> {
    STREAM_CAPS
        .iter()
        .map(|&cap| JobSpec {
            request: SweepRequest::Cells {
                cells: Benchmark::all()
                    .into_iter()
                    .map(|bench| CellSpec {
                        bench,
                        machine: machine::MACHINE_NAMES[0].to_owned(),
                    })
                    .collect(),
                attribution: false,
                sampled: true,
            },
            max_insts: Some(cap),
            deadline_ms: None,
            allow_degraded: false,
            tag: None,
        })
        .collect()
}

/// The registry name of a machine configuration, if it is one of
/// `machine::MACHINE_NAMES`.
pub fn machine_name_of(cfg: &SimConfig) -> Option<&'static str> {
    machine::MACHINE_NAMES
        .into_iter()
        .find(|n| machine::by_name(n).as_ref() == Some(cfg))
}

/// Cells as custom `cells` jobs of at most `per_job` cells each, in
/// order, at instruction cap `max_insts` (`None`: the daemon's default).
/// `None` if a machine has no registry name.
pub fn cell_jobs(
    cells: &[(Benchmark, SimConfig)],
    per_job: usize,
    max_insts: Option<u64>,
    (attribution, sampled): (bool, bool),
) -> Option<Vec<JobSpec>> {
    cells
        .chunks(per_job)
        .map(|chunk| {
            let cells = chunk
                .iter()
                .map(|(bench, cfg)| {
                    Some(CellSpec {
                        bench: *bench,
                        machine: machine_name_of(cfg)?.to_owned(),
                    })
                })
                .collect::<Option<Vec<_>>>()?;
            Some(JobSpec {
                request: SweepRequest::Cells {
                    cells,
                    attribution,
                    sampled,
                },
                max_insts,
                deadline_ms: None,
                allow_degraded: false,
                tag: None,
            })
        })
        .collect()
}

/// Instruction caps of the explore workload's cold sampled cells: the
/// default (what the CI-scale preset reads) and two shorter ones, so
/// `job_ms` has over a hundred samples.
pub const EXPLORE_COLD_CAPS: [Option<u64>; 3] = [None, Some(200_000), Some(100_000)];

/// Replays after each cold submit, once there is something to replay.
pub const REPLAYS_PER_COLD: usize = 1;

/// Warm replays per run on the sweep workloads, and their restarts.
pub const PRESET_REPLAYS: usize = 100;
pub const PRESET_RESTARTS: usize = 5;

/// Cells per cold `cells` job of the `figures-exact` grid. One, so that
/// `job_ms` has 91 samples (p90 has nine beyond it) rather than 46.
pub const FIGURE_CELLS_PER_JOB: usize = 1;

/// The `figures-exact` schedule. Jobs `0..cold.iter().sum()` are the
/// figure cells as small `cells` jobs, preset by preset (`cold[k]` jobs
/// for preset `k`); the presets themselves follow as jobs
/// `n_cold..n_cold + cold.len()` and are only ever replayed or
/// resubmitted after a restart, once their own cold jobs have run. Work
/// chunks `0..P` are the exact sweeps, each followed by its preset's cold
/// jobs; `P..2P` the sampled reruns, each followed by a restart, and
/// the [`COLD_RUNS`] reruns of the cold jobs go between them. Replays
/// (every preset equally often, in a seeded order) follow every cold job
/// once a preset has settled, and the rest follow the restarts, so they
/// spread over the whole run.
pub fn figures_schedule(seed: u64, cold: &[usize]) -> Vec<Step> {
    let presets = cold.len();
    let n_cold: usize = cold.iter().sum();
    let mut rng = Rng::new(seed);
    let mut pool: Vec<usize> = (0..PRESET_REPLAYS).map(|i| i % presets).collect();
    rng.shuffle(&mut pool);
    let mut settled: Vec<usize> = Vec::new();
    let mut steps = Vec::new();
    let mut next = 0;
    for (k, &n) in cold.iter().enumerate() {
        steps.push(Step::Work(k));
        for j in next..next + n {
            steps.push(Step::Cold(j));
            for _ in 0..REPLAYS_PER_COLD {
                if let Some(at) = pool.iter().position(|p| settled.contains(p)) {
                    steps.push(Step::Replay(n_cold + pool.remove(at)));
                }
            }
        }
        next += n;
        settled.push(k);
    }
    let per_chunk = pool.len().div_ceil(presets);
    let reruns: Vec<usize> = (1..COLD_RUNS)
        .map(|r| (2 * r - 1) * presets / (2 * (COLD_RUNS - 1)))
        .collect();
    for k in 0..presets {
        steps.push(Step::Work(presets + k));
        if reruns.contains(&k) {
            steps.push(Step::Rerun);
        }
        steps.push(Step::Restart(n_cold + rng.below(presets)));
        let take = per_chunk.min(pool.len());
        steps.extend(pool.drain(..take).map(|p| Step::Replay(n_cold + p)));
    }
    steps.extend((presets..PRESET_RESTARTS).map(|_| Step::Restart(n_cold + rng.below(presets))));
    steps
}

/// Work chunks of the explore subset sweep; chunks `SUBSET_CHUNKS` and
/// `SUBSET_CHUNKS + 1` are the sampling audit, exact and sampled.
pub const SUBSET_CHUNKS: usize = 4;

/// The `explore-sampled` schedule. Jobs `0..n_cold` are the explorer's
/// CI-scale cells as one-cell sampled `cells` jobs, one group per cap in
/// [`EXPLORE_COLD_CAPS`] order, so the first group is the CI-scale
/// preset's own cells; job `n_cold` is that preset. The groups go in
/// between the first subset chunks. Once the first group has settled,
/// every cold job is followed by a replay of the preset; the remaining
/// replays follow the restarts, one after each later work chunk.
pub fn explore_schedule(n_cold: usize) -> Vec<Step> {
    let preset = n_cold;
    let groups = EXPLORE_COLD_CAPS.len();
    let mut steps = Vec::new();
    let mut replays = 0;
    for g in 0..groups {
        for j in g * n_cold / groups..(g + 1) * n_cold / groups {
            steps.push(Step::Cold(j));
            if g > 0 {
                steps.extend(std::iter::repeat_n(Step::Replay(preset), REPLAYS_PER_COLD));
                replays += REPLAYS_PER_COLD;
            }
        }
        if g + 1 < groups {
            steps.push(Step::Work(g));
        }
    }
    let later = (groups - 1..SUBSET_CHUNKS + 2).count() + 1;
    for b in 0..later {
        if let Some(k) = (groups - 1..SUBSET_CHUNKS + 2).nth(b) {
            steps.push(Step::Work(k));
        }
        if b < PRESET_RESTARTS {
            steps.push(Step::Restart(preset));
        }
        let share = (PRESET_REPLAYS - replays).div_ceil(later - b);
        steps.extend(std::iter::repeat_n(Step::Replay(preset), share));
        replays += share;
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEEDS: [u64; 6] = [1, 2, 3, 7, 42, 0xce];

    #[test]
    fn same_seed_gives_identical_inputs() {
        for seed in SEEDS {
            assert_eq!(explore_subset(seed), explore_subset(seed));
            assert_eq!(
                service_stream(seed).to_bytes(),
                service_stream(seed).to_bytes()
            );
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(explore_subset(1), explore_subset(2));
        assert_ne!(service_stream(1).to_bytes(), service_stream(2).to_bytes());
    }

    #[test]
    fn every_explore_family_appears_in_each_subset() {
        let points = explore::grid(GridScale::Full);
        let all: BTreeSet<Family> = simulatable(&points)
            .into_iter()
            .map(|i| family(&points[i].cfg))
            .collect();
        assert_eq!(
            all.len(),
            24,
            "4 widths × 2 cluster counts × 3 scheduler kinds"
        );
        for seed in SEEDS {
            let subset = explore_subset(seed);
            let seen: BTreeSet<Family> = subset.iter().map(|&i| family(&points[i].cfg)).collect();
            assert_eq!(seen, all, "seed {seed}");
            // ceil(n/3) of each family: 2 of 5 central windows, 12 of 36
            // FIFO shapes and 3 of 8 steered windows, per width × clusters.
            assert_eq!(simulatable(&points).len(), 392);
            assert_eq!(subset.len(), 136, "seed {seed}");
        }
    }

    #[test]
    fn audit_covers_every_family_once() {
        let audit = explore_audit();
        let families: BTreeSet<Family> = audit.iter().map(|(_, cfg)| family(cfg)).collect();
        assert_eq!(audit.len(), 24);
        assert_eq!(families.len(), 24);
    }

    #[test]
    fn service_miss_share_stays_in_band() {
        for seed in 0..12u64 {
            let plan = service_stream(seed);
            let share = plan.cold_miss_share();
            assert!(
                (1.0 / 3.0..=0.5).contains(&share),
                "seed {seed}: miss share {share}"
            );
            assert_eq!(plan.jobs.len(), STREAM_JOBS + plan.warm_up.len());
            let count = |f: fn(&Step) -> bool| plan.steps.iter().filter(|s| f(s)).count();
            assert_eq!(count(|s| matches!(s, Step::Cold(_))), STREAM_JOBS);
            assert_eq!(
                count(|s| matches!(s, Step::Replay(_))),
                STREAM_JOBS * REPLAYS_PER_COLD
            );
            assert_eq!(count(|s| matches!(s, Step::Restart(_))), STREAM_RESTARTS);
            assert_eq!(count(|s| matches!(s, Step::Rerun)), COLD_RUNS - 1);
            let last_cold = plan.steps.iter().rposition(|s| matches!(s, Step::Cold(_)));
            let first_warm_only = plan
                .steps
                .iter()
                .position(|s| matches!(s, Step::Restart(_) | Step::Rerun));
            assert!(last_cold < first_warm_only, "seed {seed}");
            let work: Vec<Step> = plan
                .steps
                .iter()
                .copied()
                .filter(|s| matches!(s, Step::Work(_)))
                .collect();
            assert_eq!(work, (0..STREAM_WORK).map(Step::Work).collect::<Vec<_>>());
            assert!(plan.warm_steps_follow_cold(), "seed {seed}");
        }
    }

    /// Per cold job in stream order: its cap and how many of its cells
    /// no earlier job settled.
    fn shapes(plan: &ServicePlan) -> Vec<(Option<u64>, usize)> {
        let mut seen = BTreeSet::new();
        plan.steps
            .iter()
            .filter_map(|step| match *step {
                Step::Cold(j) => Some(&plan.jobs[j]),
                _ => None,
            })
            .map(|job| {
                let fresh = cell_identities(job)
                    .into_iter()
                    .filter(|c| seen.insert(c.clone()))
                    .count();
                (job.max_insts, fresh)
            })
            .collect()
    }

    #[test]
    fn service_job_shapes_repeat_across_seeds() {
        let sorted = |seed| {
            let mut s = shapes(&service_stream(seed));
            s.sort_unstable();
            s
        };
        let want = sorted(0);
        for seed in 1..12u64 {
            assert_eq!(sorted(seed), want, "seed {seed}");
        }
        // Per cap: the first job all fresh, every later one one or two.
        for cap in STREAM_CAPS.map(Some) {
            let plan = service_stream(7);
            let per_cap: Vec<usize> = shapes(&plan)
                .into_iter()
                .filter(|s| s.0 == cap)
                .map(|s| s.1)
                .collect();
            assert_eq!(per_cap[0], CELLS_PER_JOB);
            assert!(per_cap[1..].iter().all(|f| (1..=2).contains(f)));
        }
    }

    #[test]
    fn warm_up_reads_every_trace_and_settles_no_stream_cell() {
        let plan = service_stream(3);
        let (stream, warm) = plan.jobs.split_at(STREAM_JOBS);
        assert_eq!(
            plan.warm_up,
            (STREAM_JOBS..plan.jobs.len()).collect::<Vec<_>>()
        );
        let ids =
            |jobs: &[JobSpec]| -> BTreeSet<_> { jobs.iter().flat_map(cell_identities).collect() };
        assert!(ids(warm).is_disjoint(&ids(stream)));
        let pairs = |jobs: &[JobSpec]| -> BTreeSet<(Benchmark, Option<u64>)> {
            jobs.iter()
                .flat_map(|job| match &job.request {
                    SweepRequest::Cells { cells, .. } => {
                        cells.iter().map(|c| (c.bench, job.max_insts)).collect()
                    }
                    SweepRequest::Preset(_) => Vec::new(),
                })
                .collect()
        };
        assert_eq!(pairs(warm), pairs(stream));
    }

    #[test]
    fn sweep_schedules_are_complete_and_seeded() {
        let count = |steps: &[Step], f: fn(&Step) -> bool| steps.iter().filter(|s| f(s)).count();
        let cold = [7, 7, 18, 14];
        for steps in [figures_schedule(3, &cold), explore_schedule(126)] {
            assert_eq!(
                count(&steps, |s| matches!(s, Step::Replay(_))),
                PRESET_REPLAYS
            );
            assert_eq!(
                count(&steps, |s| matches!(s, Step::Restart(_))),
                PRESET_RESTARTS
            );
        }
        let figures = figures_schedule(3, &cold);
        assert_eq!(count(&figures, |s| matches!(s, Step::Cold(_))), 46);
        assert_eq!(count(&figures, |s| matches!(s, Step::Work(_))), 8);
        assert_eq!(count(&figures, |s| matches!(s, Step::Rerun)), COLD_RUNS - 1);
        assert!(
            figures.iter().rposition(|s| matches!(s, Step::Cold(_)))
                < figures.iter().position(|s| matches!(s, Step::Rerun))
        );
        assert_eq!(
            count(&explore_schedule(126), |s| matches!(s, Step::Cold(_))),
            126
        );
        let work: Vec<Step> = explore_schedule(126)
            .into_iter()
            .filter(|s| matches!(s, Step::Work(_)))
            .collect();
        assert_eq!(
            work,
            (0..SUBSET_CHUNKS + 2).map(Step::Work).collect::<Vec<_>>()
        );
        assert_eq!(figures, figures_schedule(3, &cold));
        assert_ne!(figures, figures_schedule(4, &cold));
    }

    #[test]
    fn figure_and_ci_explore_machines_have_registry_names() {
        use ce_bench::api::{plan, SweepKind};
        for kind in [
            SweepKind::Fig13,
            SweepKind::Fig15,
            SweepKind::Fig17,
            SweepKind::Occupancy,
            SweepKind::ExploreTiny,
        ] {
            let p = plan(kind);
            assert_eq!(
                cell_jobs(&p.jobs, 2, None, (false, false)).map(|j| j.len()),
                Some(p.jobs.len().div_ceil(2))
            );
        }
    }

    #[test]
    fn stream_jobs_have_distinct_cells_from_the_universe() {
        let universe = service_universe();
        for job in service_stream(5).jobs {
            let SweepRequest::Cells { cells, .. } = &job.request else {
                panic!("preset")
            };
            let cap = job.max_insts.expect("capped");
            let mut seen = BTreeSet::new();
            for c in cells {
                assert!(
                    seen.insert((c.bench.name(), c.machine.clone())),
                    "duplicate cell"
                );
                assert!(universe
                    .iter()
                    .any(|&(b, m, k)| b == c.bench && m == c.machine && k == cap));
            }
        }
    }
}
