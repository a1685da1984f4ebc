//! A deliberately naive reference implementation of the timing model —
//! the differential-testing oracle for [`Simulator`](crate::Simulator).
//!
//! The optimized pipeline earns its speed from redundant data structures:
//! a completion event heap instead of ROB scans, a dense `HotEntry` ring
//! instead of ROB reads on the wakeup path, a `StoreTracker` instead of
//! window scans for memory ordering, a placement ring, and bitset window
//! occupancy walked from the ROB head's ring index so candidates come out
//! age-ordered without a sort. Every one of those is a place where the
//! model can silently diverge from the architecture it claims to
//! implement.
//!
//! This module implements the *same architectural contract* — the same
//! [`SimConfig`] in, the same [`SimStats`] fingerprint out, for all five
//! Figure 17 organizations — using none of those structures:
//!
//! * the ROB is a plain `Vec` committed with `remove(0)` and searched
//!   linearly;
//! * the complete phase is a full linear scan for `finish_at == cycle`
//!   (no event heap);
//! * issue candidates are collected into a fresh `Vec` every cycle and
//!   explicitly sorted for oldest-first selection (no ring-ordered
//!   bitset scan);
//! * memory-ordering and forwarding predicates scan the ROB's stores
//!   directly (no `StoreTracker`);
//! * operand fields are read from the ROB entry itself (no hot ring).
//!
//! What it deliberately *shares* with the optimized simulator is the
//! stateful architectural machinery whose decisions are part of the
//! contract, not an optimization: the [`Gshare`] predictor, the
//! [`Dcache`], the [`RenameTable`], and the ce-core [`FifoPool`] +
//! steering heuristics (the Section 5.1 `SRC_FIFO` table, the free-list
//! rotation, the seeded random steerer). Reimplementing those would test
//! nothing — their observable behaviour *is* the specification.
//!
//! The differential harness (`tests/differential.rs`, `ce-bench`'s
//! `diffcheck`) asserts `Simulator::run(...).fingerprint() ==
//! OracleSimulator::run(...).fingerprint()` across organizations,
//! kernels, and randomized synthetic traces.

use crate::bpred::Gshare;
use crate::config::{ConfigError, SimConfig};
use crate::dcache::{Access, Dcache};
use crate::rename::{Preg, RenameTable};
use crate::stats::SimStats;
use ce_core::fifos::{FifoPool, PoolConfig};
use ce_core::steering::{DependenceSteerer, RandomSteerer, SteerOutcome};
use ce_core::steering_variants::{LoadBalancedSteerer, RoundRobinSteerer};
use ce_core::{FifoId, InstId};
use ce_isa::OperationKind;
use ce_workloads::{DynInst, Trace};
use std::collections::VecDeque;

/// State of one physical register's value (mirrors the pipeline's).
#[derive(Debug, Clone, Copy)]
struct PregInfo {
    ready: u64,
    cluster: Option<usize>,
}

/// One in-flight instruction — the oracle keeps everything in this one
/// record and re-reads it wherever the optimized pipeline consults a
/// mirror structure.
#[derive(Debug, Clone)]
struct Entry {
    seq: u64,
    d: DynInst,
    srcs: [Option<Preg>; 2],
    dest: Option<Preg>,
    prev_dest: Option<Preg>,
    cluster: Option<usize>,
    issued_at: Option<u64>,
    finish_at: Option<u64>,
    done: bool,
    mispredicted: bool,
    used_intercluster: bool,
    wrong_path: bool,
}

/// An issue candidate (same meaning as the scheduler's).
#[derive(Debug, Clone, Copy)]
struct Candidate {
    id: InstId,
    cluster: Option<usize>,
}

/// An instruction waiting in the front end.
#[derive(Debug, Clone, Copy)]
struct FrontEndSlot {
    payload: SlotPayload,
    ready_at: u64,
    mispredicted: bool,
}

#[derive(Debug, Clone, Copy)]
enum SlotPayload {
    Real(usize),
    WrongPath(DynInst),
}

impl SlotPayload {
    fn is_wrong_path(&self) -> bool {
        matches!(self, SlotPayload::WrongPath(_))
    }
}

/// The naive issue structure: a linearly scanned slot array for central
/// windows, or the shared [`FifoPool`] + steering heuristics with a plain
/// association list for placement.
// One window exists per simulation, so the size gap between the two
// variants (the steering tables live in `Pooled`) costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum NaiveWindow {
    Central {
        slots: Vec<Option<InstId>>,
    },
    Pooled {
        pool: FifoPool,
        head_only: bool,
        /// Resident instruction → FIFO index, searched linearly.
        placement: Vec<(InstId, usize)>,
        dependence: DependenceSteerer,
        random: Option<RandomSteerer>,
        round_robin: Option<RoundRobinSteerer>,
        load_balanced: Option<LoadBalancedSteerer>,
    },
}

impl NaiveWindow {
    fn new(cfg: &SimConfig) -> NaiveWindow {
        use crate::config::SchedulerKind;
        match cfg.scheduler {
            SchedulerKind::CentralWindow { size } => {
                NaiveWindow::Central { slots: vec![None; size] }
            }
            SchedulerKind::SteeredWindows { fifos_per_cluster, fifo_depth } => {
                NaiveWindow::pooled(cfg, fifos_per_cluster, fifo_depth, false)
            }
            SchedulerKind::Fifos { fifos_per_cluster, depth } => {
                NaiveWindow::pooled(cfg, fifos_per_cluster, depth, true)
            }
        }
        .seeded(cfg.steering)
    }

    fn pooled(cfg: &SimConfig, fifos_per_cluster: usize, depth: usize, head_only: bool) -> NaiveWindow {
        NaiveWindow::Pooled {
            pool: FifoPool::new(PoolConfig {
                fifos: fifos_per_cluster * cfg.clusters,
                depth,
                clusters: cfg.clusters,
            }),
            head_only,
            placement: Vec::new(),
            dependence: DependenceSteerer::new(),
            random: None,
            round_robin: None,
            load_balanced: None,
        }
    }

    fn seeded(mut self, steering: crate::config::SteeringPolicy) -> NaiveWindow {
        use crate::config::SteeringPolicy;
        if let NaiveWindow::Pooled { random, round_robin, load_balanced, .. } = &mut self {
            match steering {
                SteeringPolicy::Random { seed } => *random = Some(RandomSteerer::new(seed)),
                SteeringPolicy::RoundRobin => *round_robin = Some(RoundRobinSteerer::new()),
                SteeringPolicy::LoadBalanced => *load_balanced = Some(LoadBalancedSteerer::new()),
                SteeringPolicy::Dependence => {}
            }
        }
        self
    }

    /// Inserts at dispatch; same outcome contract as the scheduler's
    /// `try_insert` (central: lowest free slot; pooled: the steering
    /// heuristic's choice).
    #[allow(clippy::result_unit_err)]
    fn try_insert(&mut self, id: InstId, inst: &ce_isa::Instruction) -> Result<Option<usize>, ()> {
        match self {
            NaiveWindow::Central { slots } => {
                let slot = slots.iter().position(Option::is_none).ok_or(())?;
                slots[slot] = Some(id);
                Ok(None)
            }
            NaiveWindow::Pooled {
                pool,
                placement,
                dependence,
                random,
                round_robin,
                load_balanced,
                ..
            } => {
                let outcome = if let Some(r) = random {
                    r.steer(id, pool)
                } else if let Some(r) = round_robin {
                    r.steer(id, pool)
                } else if let Some(l) = load_balanced {
                    l.steer(id, inst, pool)
                } else {
                    dependence.steer(id, inst, pool)
                };
                match outcome {
                    SteerOutcome::Fifo(fifo) => {
                        placement.push((id, fifo.0));
                        Ok(Some(pool.cluster_of(fifo)))
                    }
                    SteerOutcome::Stall => Err(()),
                }
            }
        }
    }

    /// This cycle's issue candidates, freshly collected: central windows
    /// in slot order, head-only pools as the FIFO heads, flexible pools as
    /// every buffered entry in FIFO-major order.
    fn candidates(&self) -> Vec<Candidate> {
        match self {
            NaiveWindow::Central { slots } => slots
                .iter()
                .flatten()
                .map(|&id| Candidate { id, cluster: None })
                .collect(),
            NaiveWindow::Pooled { pool, head_only: true, .. } => (0..pool.config().fifos)
                .filter_map(|f| {
                    let fifo = FifoId(f);
                    pool.head(fifo).map(|id| Candidate { id, cluster: Some(pool.cluster_of(fifo)) })
                })
                .collect(),
            NaiveWindow::Pooled { pool, head_only: false, .. } => pool
                .entries()
                .map(|(f, _, id)| Candidate { id, cluster: Some(pool.cluster_of(f)) })
                .collect(),
        }
    }

    fn fifo_of(placement: &mut Vec<(InstId, usize)>, id: InstId) -> FifoId {
        let at = placement
            .iter()
            .position(|&(i, _)| i == id)
            .expect("resident instruction has a placement");
        FifoId(placement.swap_remove(at).1)
    }

    /// Removes an issuing instruction (head-only pools pop their head).
    fn remove_issued(&mut self, id: InstId) {
        match self {
            NaiveWindow::Central { slots } => {
                let slot = slots
                    .iter()
                    .position(|&s| s == Some(id))
                    .expect("issued instruction is in the window");
                slots[slot] = None;
            }
            NaiveWindow::Pooled { pool, head_only, placement, .. } => {
                let fifo = NaiveWindow::fifo_of(placement, id);
                if *head_only {
                    assert_eq!(pool.pop_head(fifo), Some(id), "head-only issue pops the head");
                } else {
                    assert!(pool.remove(fifo, id), "instruction is in its FIFO");
                }
            }
        }
    }

    /// Removes a squashed, never-issued instruction from any position.
    fn remove_squashed(&mut self, id: InstId) {
        match self {
            NaiveWindow::Central { .. } => self.remove_issued(id),
            NaiveWindow::Pooled { pool, placement, .. } => {
                let fifo = NaiveWindow::fifo_of(placement, id);
                assert!(pool.remove(fifo, id), "squashed instruction is in its FIFO");
            }
        }
    }

    /// Instructions currently waiting, recounted from scratch.
    fn occupancy(&self) -> usize {
        match self {
            NaiveWindow::Central { slots } => slots.iter().flatten().count(),
            NaiveWindow::Pooled { pool, .. } => pool.entries().count(),
        }
    }
}

/// The reference simulator. Same constructor/run surface as
/// [`Simulator`](crate::Simulator), several times slower by design.
#[derive(Debug)]
pub struct OracleSimulator {
    cfg: SimConfig,
    bpred: Gshare,
    dcache: Dcache,
    rename: RenameTable,
    window: NaiveWindow,
    pregs: Vec<PregInfo>,
    stats: SimStats,
}

impl OracleSimulator {
    /// Creates a reference simulator, rejecting the same configurations
    /// [`Simulator::try_new`](crate::Simulator::try_new) rejects.
    ///
    /// # Errors
    ///
    /// Returns the first constraint [`SimConfig::validate`] rejects.
    pub fn try_new(cfg: SimConfig) -> Result<OracleSimulator, ConfigError> {
        cfg.validate().map_err(ConfigError)?;
        Ok(OracleSimulator {
            bpred: Gshare::new(cfg.bpred),
            dcache: Dcache::new(cfg.dcache),
            rename: RenameTable::new(cfg.physical_regs),
            window: NaiveWindow::new(&cfg),
            pregs: vec![PregInfo { ready: 0, cluster: None }; cfg.physical_regs],
            stats: SimStats::default(),
            cfg,
        })
    }

    /// Creates a reference simulator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`].
    pub fn new(cfg: SimConfig) -> OracleSimulator {
        match OracleSimulator::try_new(cfg) {
            Ok(sim) => sim,
            Err(e) => panic!("{e}"),
        }
    }

    /// First cycle the value in `preg` can feed an FU in `cluster` — the
    /// same arithmetic as the optimized pipeline's `avail_in`.
    fn avail_in(&self, preg: Preg, cluster: usize) -> u64 {
        let info = self.pregs[preg as usize];
        if info.ready == u64::MAX {
            return u64::MAX;
        }
        let Some(producer) = info.cluster else {
            return info.ready;
        };
        let cross_penalty = if producer != cluster { self.cfg.intercluster_extra } else { 0 };
        let mut avail = match self.cfg.bypass_model {
            crate::config::BypassModel::Full => info.ready + cross_penalty,
            crate::config::BypassModel::None => {
                info.ready + self.cfg.regwrite_delay + cross_penalty
            }
        };
        if self.cfg.pipelined_wakeup_select {
            avail += 1;
        }
        avail
    }

    fn bypass_source(&self, preg: Preg, consumer_cluster: usize, at: u64) -> Option<usize> {
        if self.cfg.bypass_model == crate::config::BypassModel::None {
            return None;
        }
        let info = self.pregs[preg as usize];
        let producer = info.cluster?;
        let regfile_at = info.ready
            + self.cfg.regwrite_delay
            + if producer != consumer_cluster { self.cfg.intercluster_extra } else { 0 };
        (at < regfile_at).then_some(producer)
    }

    fn pick_cluster(
        &self,
        srcs: &[Option<Preg>],
        cycle: u64,
        fu_used: &[usize],
        fus_per_cluster: usize,
    ) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for (c, used) in fu_used.iter().enumerate().take(self.cfg.clusters) {
            if *used >= fus_per_cluster {
                continue;
            }
            let avail =
                srcs.iter().flatten().map(|&p| self.avail_in(p, c)).max().unwrap_or(0);
            if avail > cycle {
                continue;
            }
            if best.map(|(a, _)| avail < a).unwrap_or(true) {
                best = Some((avail, c));
            }
        }
        best.map(|(_, c)| c)
    }

    /// The memory-ordering predicate, as a full scan of the ROB's older
    /// stores (the optimized path consults the `StoreTracker` mirror).
    fn load_may_issue(rob: &[Entry], load_seq: u64, load_word: Option<u32>, cfg: &SimConfig) -> bool {
        use crate::config::MemDisambiguation as M;
        rob.iter()
            .filter(|e| e.seq < load_seq && e.d.inst.opcode.kind() == OperationKind::Store)
            .all(|s| match cfg.mem_disambiguation {
                M::AddressesKnown => s.issued_at.is_some(),
                M::AllStoresComplete => s.done,
                M::Oracle => s.d.mem_addr.map(|a| a & !3) != load_word || s.issued_at.is_some(),
            })
    }

    /// The youngest older store to the same word, by ROB scan.
    fn forwarding_store(rob: &[Entry], load_seq: u64, load_word: Option<u32>) -> Option<u64> {
        let addr = load_word?;
        rob.iter()
            .rev()
            .filter(|e| e.seq < load_seq)
            .find(|e| {
                e.d.inst.opcode.kind() == OperationKind::Store
                    && e.d.mem_addr.map(|a| a & !3) == Some(addr)
            })
            .map(|e| e.seq)
    }

    fn note_commit(&mut self, e: &Entry) {
        match e.d.inst.opcode.kind() {
            OperationKind::Branch => {
                self.stats.branches += 1;
                if e.mispredicted {
                    self.stats.mispredictions += 1;
                }
            }
            OperationKind::Load => self.stats.loads += 1,
            OperationKind::Store => self.stats.stores += 1,
            _ => {}
        }
        if e.used_intercluster {
            self.stats.intercluster_bypasses += 1;
        }
    }

    /// Runs the trace to completion and returns the statistics.
    ///
    /// # Panics
    ///
    /// Panics if the machine deadlocks.
    pub fn run(mut self, trace: &Trace) -> SimStats {
        let insts = trace.as_slice();
        if insts.is_empty() {
            return self.stats;
        }

        // The ROB: a plain vector, committed from the front with the
        // full-shift `remove(0)` and searched linearly everywhere.
        let mut rob: Vec<Entry> = Vec::new();
        let mut frontq: VecDeque<FrontEndSlot> = VecDeque::new();
        let mut fetch_index = 0usize;
        let mut fetch_stalled_on: Option<u64> = None;
        let mut wrong_seq: u64 = 0;
        let mut wrong_pc: u32 = 0;
        let mut wrong_reg: u8 = 8;
        let mut recent_mem_addr: u32 = ce_isa::DATA_BASE;
        let mut wrong_mem_offset: u32 = 0;
        let mut cycle: u64 = 0;
        let mut committed = 0usize;
        let deadlock_limit = 1_000 + 60 * insts.len() as u64;

        while committed < insts.len() {
            cycle += 1;
            assert!(
                cycle < deadlock_limit,
                "oracle deadlock at cycle {cycle}: committed {committed}/{}",
                insts.len()
            );

            // ---- commit ------------------------------------------------
            for _ in 0..self.cfg.retire_width {
                match rob.first() {
                    Some(e) if e.done => {
                        let e = rob.remove(0);
                        if let Some(prev) = e.prev_dest {
                            self.rename.release(prev);
                        }
                        self.note_commit(&e);
                        committed += 1;
                    }
                    _ => break,
                }
            }

            // ---- complete: full linear scan, no event heap --------------
            let mut resolved_branch: Option<u64> = None;
            for e in rob.iter_mut() {
                if !e.done && e.finish_at == Some(cycle) {
                    e.done = true;
                    if e.mispredicted && fetch_stalled_on == Some(e.seq) {
                        fetch_stalled_on = None;
                        resolved_branch = Some(e.seq);
                    }
                }
            }
            if let Some(branch_seq) = resolved_branch {
                while rob.last().map(|e| e.seq > branch_seq).unwrap_or(false) {
                    let e = rob.pop().expect("checked");
                    if e.issued_at.is_none() {
                        self.window.remove_squashed(InstId(e.seq));
                    }
                }
                frontq.retain(|slot| !slot.payload.is_wrong_path());
            }

            // ---- wakeup + select + execute ------------------------------
            self.issue_cycle(cycle, &mut rob);

            // ---- dispatch (rename + steer) ------------------------------
            self.dispatch_cycle(cycle, insts, &mut frontq, &mut rob);

            // ---- fetch ---------------------------------------------------
            let cap = 2 * self.cfg.fetch_width;
            if fetch_stalled_on.is_none() {
                for _ in 0..self.cfg.fetch_width {
                    if fetch_index >= insts.len() || frontq.len() >= cap {
                        break;
                    }
                    let d = &insts[fetch_index];
                    if let Some(addr) = d.mem_addr {
                        recent_mem_addr = addr;
                    }
                    let mut mispredicted = false;
                    if d.is_conditional_branch() {
                        let predicted = self.bpred.predict_and_update(d.pc, d.taken);
                        mispredicted = !self.cfg.bpred.perfect && predicted != d.taken;
                    }
                    let taken_cti = d.is_control() && d.taken;
                    frontq.push_back(FrontEndSlot {
                        payload: SlotPayload::Real(fetch_index),
                        ready_at: cycle + self.cfg.frontend_depth,
                        mispredicted,
                    });
                    fetch_index += 1;
                    if self.cfg.fetch_breaks_on_taken && taken_cti && !mispredicted {
                        break;
                    }
                    if mispredicted {
                        fetch_stalled_on = Some(d.seq);
                        wrong_seq = d.seq + 1;
                        wrong_pc = d.pc.wrapping_add(8);
                        break;
                    }
                }
            } else if self.cfg.model_wrong_path {
                for _ in 0..self.cfg.fetch_width {
                    if frontq.len() >= cap {
                        break;
                    }
                    let a = ce_isa::Reg::new(wrong_reg);
                    let b = ce_isa::Reg::new(8 + (wrong_reg + 5) % 16);
                    wrong_reg = 8 + (wrong_reg + 1) % 16;
                    let (inst, mem_addr) = if wrong_seq.is_multiple_of(3) {
                        wrong_mem_offset = wrong_mem_offset
                            .wrapping_add(self.cfg.dcache.line_bytes as u32 * 2);
                        (
                            ce_isa::Instruction::mem(ce_isa::Opcode::Lw, ce_isa::Reg::ZERO, 0, a),
                            Some(recent_mem_addr.wrapping_add(wrong_mem_offset)),
                        )
                    } else {
                        (
                            ce_isa::Instruction::rrr(
                                ce_isa::Opcode::Addu,
                                ce_isa::Reg::ZERO,
                                a,
                                b,
                            ),
                            None,
                        )
                    };
                    let d = DynInst {
                        seq: wrong_seq,
                        pc: wrong_pc,
                        inst,
                        next_pc: wrong_pc.wrapping_add(4),
                        taken: false,
                        mem_addr,
                    };
                    wrong_seq += 1;
                    wrong_pc = wrong_pc.wrapping_add(4);
                    self.stats.wrong_path_fetched += 1;
                    frontq.push_back(FrontEndSlot {
                        payload: SlotPayload::WrongPath(d),
                        ready_at: cycle + self.cfg.frontend_depth,
                        mispredicted: false,
                    });
                }
            }

            self.stats.occupancy_sum += self.window.occupancy() as u64;
        }

        self.stats.cycles = cycle;
        self.stats.committed = committed as u64;
        self.stats.dcache_accesses = self.dcache.hits() + self.dcache.misses();
        self.stats.dcache_misses = self.dcache.misses();
        self.stats
    }

    fn issue_cycle(&mut self, cycle: u64, rob: &mut [Entry]) {
        // A fresh candidate vector every cycle, explicitly sorted when the
        // policy wants age order — the per-cycle sort the optimized
        // scheduler's ring-ordered bitset scan exists to avoid.
        let mut candidates = self.window.candidates();
        match self.cfg.selection {
            crate::config::SelectionPolicy::OldestFirst => {
                candidates.sort_by_key(|c| c.id);
            }
            crate::config::SelectionPolicy::Position => {}
            crate::config::SelectionPolicy::YoungestFirst => {
                candidates.sort_by_key(|c| std::cmp::Reverse(c.id));
            }
        }
        if candidates.is_empty() {
            self.stats.issue_histogram[0] += 1;
            return;
        }
        let fus_per_cluster = self.cfg.fus_per_cluster();
        let mut fu_used = vec![0usize; self.cfg.clusters];
        let mut ports_used = 0usize;
        let mut issued = 0usize;

        for cand in candidates {
            if issued >= self.cfg.issue_width {
                break;
            }
            // Linear ROB search — where the optimized path indexes a ring.
            let idx = rob
                .iter()
                .position(|e| e.seq == cand.id.0)
                .expect("candidate is in the ROB");
            let kind = rob[idx].d.inst.opcode.kind();
            let srcs = rob[idx].srcs;
            let mem_addr = rob[idx].d.mem_addr;

            let is_store = kind == OperationKind::Store;
            let split_store = is_store && self.cfg.split_store_issue;
            let required_srcs: &[Option<Preg>] =
                if split_store { &srcs[..1] } else { &srcs[..] };
            if split_store {
                let data_unknown = srcs[1]
                    .map(|preg| self.pregs[preg as usize].ready == u64::MAX)
                    .unwrap_or(false);
                if data_unknown {
                    continue;
                }
            }

            let cluster = match cand.cluster {
                Some(c) => {
                    if fu_used[c] >= fus_per_cluster {
                        continue;
                    }
                    let ready =
                        required_srcs.iter().flatten().all(|&p| self.avail_in(p, c) <= cycle);
                    if !ready {
                        continue;
                    }
                    c
                }
                None => {
                    match self.pick_cluster(required_srcs, cycle, &fu_used, fus_per_cluster) {
                        Some(c) => c,
                        None => continue,
                    }
                }
            };

            let is_mem = matches!(kind, OperationKind::Load | OperationKind::Store);
            if is_mem && ports_used >= self.cfg.dcache.ports {
                continue;
            }
            if kind == OperationKind::Load {
                let load_word = mem_addr.map(|a| a & !3);
                if !OracleSimulator::load_may_issue(rob, cand.id.0, load_word, &self.cfg) {
                    continue;
                }
            }

            // The candidate issues; replicate the optimized mutation order
            // (D-cache access and forwarding stat before the ROB update).
            let latency = match kind {
                OperationKind::Load => {
                    let load_word = mem_addr.map(|a| a & !3);
                    if OracleSimulator::forwarding_store(rob, cand.id.0, load_word).is_some() {
                        self.stats.forwarded_loads += 1;
                        2
                    } else {
                        let addr = mem_addr.expect("loads carry addresses");
                        match self.dcache.access(addr, false) {
                            Access::Hit => 2,
                            Access::Miss { .. } => 2 + self.cfg.dcache.miss_penalty,
                        }
                    }
                }
                OperationKind::Store => {
                    let addr = mem_addr.expect("stores carry addresses");
                    let _ = self.dcache.access(addr, true);
                    let data_wait = srcs
                        .get(1)
                        .copied()
                        .flatten()
                        .map(|p| self.avail_in(p, cluster).saturating_sub(cycle))
                        .unwrap_or(0);
                    1 + data_wait
                }
                _ => self.cfg.op_latency(rob[idx].d.inst.opcode),
            };

            let mut used_intercluster = false;
            for &src in srcs.iter().flatten() {
                if let Some(producer) = self.bypass_source(src, cluster, cycle) {
                    if producer != cluster {
                        used_intercluster = true;
                    }
                }
            }
            let entry = &mut rob[idx];
            entry.used_intercluster = used_intercluster;
            entry.cluster = Some(cluster);
            entry.issued_at = Some(cycle);
            entry.finish_at = Some(cycle + latency);
            let entry_wrong_path = entry.wrong_path;
            if let Some(dest) = entry.dest {
                self.pregs[dest as usize] =
                    PregInfo { ready: cycle + latency, cluster: Some(cluster) };
            }

            if entry_wrong_path {
                self.stats.wrong_path_issued += 1;
            }
            self.stats.issued += 1;
            self.window.remove_issued(cand.id);
            fu_used[cluster] += 1;
            if is_mem {
                ports_used += 1;
            }
            issued += 1;
        }
        self.stats.issue_histogram[issued.min(16)] += 1;
    }

    fn dispatch_cycle(
        &mut self,
        cycle: u64,
        insts: &[DynInst],
        frontq: &mut VecDeque<FrontEndSlot>,
        rob: &mut Vec<Entry>,
    ) {
        let mut dispatched = 0usize;
        let mut had_candidate = false;
        while dispatched < self.cfg.fetch_width {
            let Some(&slot) = frontq.front() else { break };
            if slot.ready_at > cycle {
                break;
            }
            had_candidate = true;
            let wrong_path = slot.payload.is_wrong_path();
            let synthesized;
            let d = match slot.payload {
                SlotPayload::Real(index) => &insts[index],
                SlotPayload::WrongPath(d) => {
                    synthesized = d;
                    &synthesized
                }
            };

            if rob.len() >= self.cfg.max_inflight {
                self.stats.inflight_stalls += 1;
                break;
            }
            if d.inst.defs().is_some() && !self.rename.has_free() {
                self.stats.preg_stalls += 1;
                break;
            }
            let cluster = match self.window.try_insert(InstId(d.seq), &d.inst) {
                Ok(c) => c,
                Err(()) => {
                    self.stats.scheduler_stalls += 1;
                    break;
                }
            };

            let srcs = d.inst.uses().map(|u| u.map(|r| self.rename.lookup(r)));
            let (dest, prev_dest) = match d.inst.defs() {
                Some(r) => {
                    let (new, prev) = self.rename.rename_dest(r).expect("checked has_free");
                    self.pregs[new as usize] = PregInfo { ready: u64::MAX, cluster: None };
                    (Some(new), Some(prev))
                }
                None => (None, None),
            };

            rob.push(Entry {
                seq: d.seq,
                d: *d,
                srcs,
                dest,
                prev_dest,
                cluster,
                issued_at: None,
                finish_at: None,
                done: false,
                mispredicted: slot.mispredicted,
                used_intercluster: false,
                wrong_path,
            });
            frontq.pop_front();
            dispatched += 1;
        }
        if dispatched == 0 && had_candidate {
            self.stats.dispatch_stall_cycles += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{machine, Simulator};
    use ce_isa::asm::assemble;
    use ce_workloads::Emulator;

    fn trace_of(src: &str) -> Trace {
        let program = assemble(src).expect("assembles");
        Emulator::new(&program).run_to_completion(1_000_000).expect("halts")
    }

    /// A kernel mixing loads, stores, a data-dependent branch, and ALU
    /// chains — enough to exercise forwarding, memory ordering, steering,
    /// and mispredictions.
    fn mixed_kernel() -> Trace {
        trace_of(
            "
            li s0, 0x1000
            li s1, 40
            li s2, 7
        loop:
            sw s2, 0(s0)
            lw t0, 0(s0)
            addu t1, t0, s2
            mul t2, t1, t1
            andi t3, t2, 1
            beqz t3, skip
            addu s3, s3, t3
        skip:
            addiu s0, s0, 4
            addiu s1, s1, -1
            bnez s1, loop
            halt
        ",
        )
    }

    #[test]
    fn oracle_matches_optimized_on_all_figure17_machines() {
        let trace = mixed_kernel();
        for (name, mut cfg) in machine::figure17_machines() {
            let oracle = OracleSimulator::new(cfg).run(&trace);
            cfg.check = true; // checker on the optimized side only
            let optimized = Simulator::new(cfg).run(&trace);
            assert_eq!(
                optimized.fingerprint(),
                oracle.fingerprint(),
                "fingerprint divergence on {name}"
            );
        }
    }

    #[test]
    fn oracle_matches_with_wrong_path_modeling() {
        let trace = mixed_kernel();
        for (name, mut cfg) in machine::figure17_machines() {
            cfg.model_wrong_path = true;
            let oracle = OracleSimulator::new(cfg).run(&trace);
            cfg.check = true;
            let optimized = Simulator::new(cfg).run(&trace);
            assert_eq!(
                optimized.fingerprint(),
                oracle.fingerprint(),
                "wrong-path fingerprint divergence on {name}"
            );
        }
    }

    #[test]
    fn oracle_rejects_what_the_simulator_rejects() {
        let mut cfg = machine::baseline_8way();
        cfg.bpred.history_bits = 40;
        let a = Simulator::try_new(cfg).map(|_| ()).unwrap_err();
        let b = OracleSimulator::try_new(cfg).map(|_| ()).unwrap_err();
        assert_eq!(a, b, "identical validation surface");
    }
}
