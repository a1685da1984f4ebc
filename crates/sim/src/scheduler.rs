//! The issue structure: central window, steered per-cluster windows, or
//! the dependence-based FIFOs.
//!
//! One type models all five of the paper's organizations; the
//! [`SchedulerKind`] and [`SteeringPolicy`] pick the behaviour:
//!
//! * `CentralWindow` — one flexible pool of entries; with multiple
//!   clusters, the cluster is chosen at issue time (Section 5.6.1).
//! * `SteeredWindows` — dispatch-steered conceptual FIFOs; issue may pick
//!   any waiting instruction (Section 5.6.2).
//! * `Fifos` — the dependence-based design; only FIFO heads are issue
//!   candidates (Section 5).

use crate::config::{SchedulerKind, SteeringPolicy};
use ce_core::fifos::{FifoPool, PoolConfig};
use ce_core::steering::{DependenceSteerer, RandomSteerer, SteerChoice, SteerExplain, SteerOutcome};
use ce_core::steering_variants::{LoadBalancedSteerer, RoundRobinSteerer};
use ce_core::{FifoId, InstId};
use ce_isa::Instruction;

/// An issue candidate: a waiting instruction and the cluster it is bound
/// to (`None` = unbound; the pipeline picks a cluster at issue time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The instruction's dynamic sequence number.
    pub id: InstId,
    /// Dispatch-assigned cluster, if the organization binds one.
    pub cluster: Option<usize>,
}

/// A successful dispatch insertion, explained — for pipeline probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Bound cluster (`None` for the central window).
    pub cluster: Option<usize>,
    /// Central-window slot index, or FIFO index for pooled organizations.
    pub slot: u32,
    /// How steering chose the FIFO (`None` for the central window).
    pub steer: Option<SteerChoice>,
}

/// Why a dispatch insertion failed — for pipeline probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertReject {
    /// The central window has no free slot.
    WindowFull,
    /// The steering heuristic found no suitable or free FIFO; `chain_full`
    /// means a dependence-chain target existed but had no room.
    Steering {
        /// A chain target existed but its FIFO was full.
        chain_full: bool,
    },
}

/// The issue structure.
#[derive(Debug)]
pub struct Scheduler {
    kind: SchedulerKind,
    /// Pool backing the FIFO-shaped organizations (`None` for the central
    /// window).
    pool: Option<FifoPool>,
    dependence: DependenceSteerer,
    random: Option<RandomSteerer>,
    round_robin: Option<RoundRobinSteerer>,
    load_balanced: Option<LoadBalancedSteerer>,
    /// Dense placement ring keyed by `seq & place_mask`: each resident
    /// instruction's id and the window slot (central) or FIFO index
    /// (pooled) holding it. Sound because resident sequence numbers are
    /// ROB-contiguous, so any two differ by less than the ring size (a
    /// power of two ≥ `max_inflight`) — no hash lookups on the issue
    /// path. The stored id tells a resident instruction from a stale or
    /// aliased one (same ring index, different sequence number).
    place: Vec<Option<(InstId, u32)>>,
    place_mask: u64,
    /// Bit `i` set iff ring slot `i` holds a resident instruction select
    /// can see: every resident instruction, except that the head-only
    /// FIFO organization marks only FIFO heads (the rest of a FIFO is
    /// invisible to select until it reaches the head).
    visible: Vec<u64>,
    /// Bit `i` set iff ring slot `i` holds a resident instruction whose
    /// required source operands have all been produced (the tag-match
    /// result of the paper's wakeup broadcast, cached as a bit per entry).
    /// Maintained by the pipeline via [`set_awake`](Self::set_awake);
    /// cleared whenever a ring slot is filled or vacated.
    awake: Vec<u64>,
    /// Central-window slots: new instructions take the lowest free slot, so
    /// slot order models physical window position (no compaction). Bit `s`
    /// set iff slot `s` is occupied; bits at or beyond `central_capacity`
    /// are permanently set so the free-slot probe never strays past the
    /// capacity.
    occ_words: Vec<u64>,
    central_capacity: usize,
}

/// Sets or clears bit `i` of a word-packed bitset.
fn set_bit(words: &mut [u64], i: usize, on: bool) {
    let (w, m) = (i / 64, 1u64 << (i % 64));
    if on {
        words[w] |= m;
    } else {
        words[w] &= !m;
    }
}

impl Scheduler {
    /// Builds the scheduler for a machine configuration. `max_inflight` is
    /// the machine's in-flight limit; it bounds how far apart the sequence
    /// numbers of two resident instructions can be, sizing the placement
    /// ring.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (zero sizes, clusters not dividing
    /// the window).
    pub fn new(
        kind: SchedulerKind,
        clusters: usize,
        steering: SteeringPolicy,
        max_inflight: usize,
    ) -> Scheduler {
        let pool = match kind {
            SchedulerKind::CentralWindow { .. } => None,
            SchedulerKind::SteeredWindows { fifos_per_cluster, fifo_depth } => {
                Some(FifoPool::new(PoolConfig {
                    fifos: fifos_per_cluster * clusters,
                    depth: fifo_depth,
                    clusters,
                }))
            }
            SchedulerKind::Fifos { fifos_per_cluster, depth } => Some(FifoPool::new(PoolConfig {
                fifos: fifos_per_cluster * clusters,
                depth,
                clusters,
            })),
        };
        let central_capacity = match kind {
            SchedulerKind::CentralWindow { size } => size,
            _ => 0,
        };
        let random = match steering {
            SteeringPolicy::Random { seed } => Some(RandomSteerer::new(seed)),
            _ => None,
        };
        let round_robin = matches!(steering, SteeringPolicy::RoundRobin)
            .then(RoundRobinSteerer::new);
        let load_balanced = matches!(steering, SteeringPolicy::LoadBalanced)
            .then(LoadBalancedSteerer::new);
        let ring = max_inflight.max(1).next_power_of_two();
        let mut occ_words = vec![0u64; central_capacity.div_ceil(64).max(1)];
        // Pad bits past the capacity read as "occupied" so the lowest-free
        // probe never hands out a slot beyond the window.
        for pad in central_capacity..occ_words.len() * 64 {
            set_bit(&mut occ_words, pad, true);
        }
        Scheduler {
            kind,
            pool,
            dependence: DependenceSteerer::new(),
            random,
            round_robin,
            load_balanced,
            place: vec![None; ring],
            place_mask: ring as u64 - 1,
            visible: vec![0u64; ring.div_ceil(64)],
            awake: vec![0u64; ring.div_ceil(64)],
            occ_words,
            central_capacity,
        }
    }

    /// Whether only FIFO heads may issue.
    pub fn head_only(&self) -> bool {
        matches!(self.kind, SchedulerKind::Fifos { .. })
    }

    /// The placement-ring index of an instruction.
    fn ring(&self, id: InstId) -> usize {
        (id.0 & self.place_mask) as usize
    }

    /// Inserts an instruction at dispatch. On success reports its bound
    /// cluster (`None` for the central window), the slot/FIFO taken and
    /// how steering chose it; on failure — the structure has no suitable
    /// slot and dispatch must stall — reports why.
    pub fn try_insert(&mut self, id: InstId, inst: &Instruction) -> Result<Placement, InsertReject> {
        let Some(pool) = &mut self.pool else {
            // Lowest free slot, found by bitmask probe (same placement a
            // first-`None` linear scan produced).
            let word = match self.occ_words.iter().position(|&w| w != u64::MAX) {
                Some(w) => w,
                None => return Err(InsertReject::WindowFull),
            };
            let slot = word * 64 + (!self.occ_words[word]).trailing_zeros() as usize;
            debug_assert!(slot < self.central_capacity);
            self.occ_words[word] |= 1u64 << (slot % 64);
            self.enter(id, slot as u32, true);
            return Ok(Placement { cluster: None, slot: slot as u32, steer: None });
        };
        let (outcome, explain) = if let Some(r) = &mut self.random {
            (r.steer(id, pool), None)
        } else if let Some(r) = &mut self.round_robin {
            (r.steer(id, pool), None)
        } else if let Some(l) = &mut self.load_balanced {
            (l.steer(id, inst, pool), None)
        } else {
            let (o, e) = self.dependence.steer_explained(id, inst, pool);
            (o, Some(e))
        };
        let fifo = match outcome {
            SteerOutcome::Fifo(fifo) => fifo,
            SteerOutcome::Stall => {
                let chain_full =
                    matches!(explain, Some(SteerExplain::Stalled { chain_full: true }));
                return Err(InsertReject::Steering { chain_full });
            }
        };
        let cluster = pool.cluster_of(fifo);
        let is_head = pool.head(fifo) == Some(id);
        let choice = match explain {
            Some(SteerExplain::Placed(c)) => c,
            // The non-dependence steerers don't explain themselves; label
            // by policy.
            _ if self.random.is_some() => SteerChoice::Random,
            _ if self.round_robin.is_some() => SteerChoice::RoundRobin,
            _ => SteerChoice::Balanced,
        };
        self.enter(id, fifo.0 as u32, is_head || !self.head_only());
        Ok(Placement { cluster: Some(cluster), slot: fifo.0 as u32, steer: Some(choice) })
    }

    /// Records a newly placed instruction in the ring: asleep, and visible
    /// to select unless it queues behind a FIFO head.
    fn enter(&mut self, id: InstId, at: u32, visible: bool) {
        let i = self.ring(id);
        self.place[i] = Some((id, at));
        set_bit(&mut self.visible, i, visible);
        set_bit(&mut self.awake, i, false);
    }

    /// Clears an instruction's ring slot, returning where it was placed;
    /// `None` (and nothing cleared) if `id` is not the resident instruction
    /// at its ring index.
    fn leave(&mut self, id: InstId) -> Option<u32> {
        let at = self.placement_of(id)?;
        let i = self.ring(id);
        set_bit(&mut self.visible, i, false);
        set_bit(&mut self.awake, i, false);
        self.place[i] = None;
        Some(at)
    }

    /// The one candidate enumerator: appends this cycle's issue candidates
    /// to `out` (cleared first) in **age order**, oldest first.
    ///
    /// `oldest` is the ROB head's sequence number. Every resident
    /// instruction lies less than one ring length after it, so walking the
    /// `visible` bits from its ring index — one word at a time, with
    /// `trailing_zeros` touching only set bits — yields ascending ids for
    /// every organization, without a sort or a merge. Head-only FIFOs
    /// yield only their heads.
    ///
    /// With `awake_only`, asleep entries are skipped: they would fail the
    /// pipeline's operand checks in every cluster, so pruning them is
    /// selection-invisible. Without it, every visible entry is yielded.
    pub fn scan(&self, oldest: InstId, awake_only: bool, out: &mut Vec<Candidate>) {
        out.clear();
        let words = self.visible.len();
        let start = self.ring(oldest);
        let (w0, b0) = (start / 64, start % 64);
        // Words from the start word round the ring and back to it: its
        // bits at or above `b0` come first, the ones below `b0` last.
        for k in 0..=words {
            let w = (w0 + k) % words;
            let mut bits = self.visible[w];
            if awake_only {
                bits &= self.awake[w];
            }
            if k == 0 {
                bits &= u64::MAX << b0;
            } else if k == words {
                bits &= !(u64::MAX << b0);
            }
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let id = InstId(oldest.0 + (i.wrapping_sub(start) as u64 & self.place_mask));
                debug_assert_eq!(self.place[i].map(|(resident, _)| resident), Some(id));
                let cluster = self.pool.as_ref().map(|p| {
                    p.cluster_of(FifoId(self.place[i].expect("visible slot is placed").1 as usize))
                });
                out.push(Candidate { id, cluster });
            }
        }
    }

    /// Marks a resident instruction as awake: every required source operand
    /// has been produced, so it is a real wakeup/select candidate. The
    /// pipeline calls this from its tag-broadcast bookkeeping (at dispatch
    /// when no operand is outstanding, and when the last outstanding
    /// producer issues). No-op for ids that are not (or are no longer)
    /// resident — a broadcast can race an early-selected or squashed
    /// consumer under fault injection.
    pub fn set_awake(&mut self, id: InstId) {
        if self.placement_of(id).is_some() {
            let i = self.ring(id);
            set_bit(&mut self.awake, i, true);
        }
    }

    /// Removes an instruction at issue.
    ///
    /// # Panics
    ///
    /// Panics if the instruction is not present (a pipeline bug).
    pub fn remove(&mut self, id: InstId) {
        let head_only = self.head_only();
        let placed = self.leave(id);
        match &mut self.pool {
            None => {
                let slot = placed.expect("issued instruction must be in the window");
                set_bit(&mut self.occ_words, slot as usize, false);
            }
            Some(pool) => {
                let fifo = FifoId(placed.expect("issued instruction placed") as usize);
                if head_only {
                    let popped = pool.pop_head(fifo);
                    assert_eq!(popped, Some(id), "head-only issue must pop the head");
                } else {
                    assert!(pool.remove(fifo, id), "instruction must be in its FIFO");
                }
                // NOTE: the SRC_FIFO table is deliberately NOT cleared at
                // issue. The paper invalidates entries only at *completion*;
                // keeping them lets later dependents inherit the producer's
                // cluster (FIFO→cluster is static), and the steerer already
                // validates staleness against the pool contents.
                self.expose_head(fifo);
            }
        }
    }

    /// Removes a squashed, never-issued instruction.
    ///
    /// Distinct from [`remove`](Self::remove), which models *issue*: the
    /// head-only FIFO organizations must pop their FIFO head there. A
    /// squash strikes from the *young* end — the wrong-path work sits at
    /// FIFO tails, behind entries that survive — so this removes from any
    /// queue position.
    ///
    /// # Panics
    ///
    /// Panics if the instruction is not present (a pipeline bug).
    pub fn remove_squashed(&mut self, id: InstId) {
        if self.pool.is_none() {
            // Central window removal is position-independent already.
            self.remove(id);
            return;
        }
        let placed = self.leave(id);
        let fifo = FifoId(placed.expect("squashed instruction must be placed") as usize);
        let pool = self.pool.as_mut().expect("checked");
        assert!(pool.remove(fifo, id), "squashed instruction must be in its FIFO");
        self.expose_head(fifo);
    }

    /// Head-only FIFOs: after `fifo` lost an entry, its head (possibly a
    /// new one) is visible to select.
    fn expose_head(&mut self, fifo: FifoId) {
        if !self.head_only() {
            return;
        }
        if let Some(head) = self.pool.as_ref().and_then(|p| p.head(fifo)) {
            let i = self.ring(head);
            set_bit(&mut self.visible, i, true);
        }
    }

    /// The FIFO pool backing a pooled organization (`None` for the
    /// central window) — read-only access for invariant checkers.
    pub fn pool(&self) -> Option<&FifoPool> {
        self.pool.as_ref()
    }

    /// Where a resident instruction sits: the central-window slot index,
    /// or the FIFO index for pooled organizations; `None` if `id` is not
    /// in the scheduler.
    pub fn placement_of(&self, id: InstId) -> Option<u32> {
        match self.place[self.ring(id)] {
            Some((resident, at)) if resident == id => Some(at),
            _ => None,
        }
    }

    /// Total scheduler capacity (window slots, or FIFOs × depth).
    pub fn capacity(&self) -> usize {
        match &self.pool {
            None => self.central_capacity,
            Some(pool) => pool.config().fifos * pool.config().depth,
        }
    }

    /// Instructions currently waiting.
    pub fn occupancy(&self) -> usize {
        match &self.pool {
            // Every central-window resident is visible.
            None => self.visible.iter().map(|w| w.count_ones() as usize).sum(),
            Some(pool) => pool.occupancy(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_isa::{Opcode, Reg};

    fn alu(dst: u8, a: u8, b: u8) -> Instruction {
        Instruction::rrr(Opcode::Addu, Reg::new(dst), Reg::new(a), Reg::new(b))
    }

    /// Every visible entry, scanned from id 0 (the tests' oldest id).
    fn visible(s: &Scheduler) -> Vec<Candidate> {
        let mut out = Vec::new();
        s.scan(InstId(0), false, &mut out);
        out
    }

    #[test]
    fn central_window_capacity() {
        let mut s = Scheduler::new(
            SchedulerKind::CentralWindow { size: 2 },
            1,
            SteeringPolicy::Dependence,
            128,
        );
        assert!(s.try_insert(InstId(0), &alu(10, 1, 2)).is_ok());
        assert!(s.try_insert(InstId(1), &alu(11, 1, 2)).is_ok());
        assert!(s.try_insert(InstId(2), &alu(12, 1, 2)).is_err());
        assert_eq!(s.occupancy(), 2);
        s.remove(InstId(0));
        assert!(s.try_insert(InstId(2), &alu(12, 1, 2)).is_ok());
    }

    #[test]
    fn fifo_candidates_are_heads_only() {
        let mut s = Scheduler::new(
            SchedulerKind::Fifos { fifos_per_cluster: 2, depth: 4 },
            1,
            SteeringPolicy::Dependence,
            128,
        );
        // A chain of three dependent instructions lands in one FIFO.
        s.try_insert(InstId(0), &alu(10, 1, 2)).unwrap();
        s.try_insert(InstId(1), &alu(11, 10, 2)).unwrap();
        s.try_insert(InstId(2), &alu(12, 11, 2)).unwrap();
        let cands = visible(&s);
        assert_eq!(cands.len(), 1, "only the head is visible");
        assert_eq!(cands[0].id, InstId(0));
        assert!(s.head_only());
        s.remove(InstId(0));
        assert_eq!(visible(&s)[0].id, InstId(1));
    }

    #[test]
    fn steered_windows_expose_every_entry() {
        let mut s = Scheduler::new(
            SchedulerKind::SteeredWindows { fifos_per_cluster: 2, fifo_depth: 4 },
            1,
            SteeringPolicy::Dependence,
            128,
        );
        s.try_insert(InstId(0), &alu(10, 1, 2)).unwrap();
        s.try_insert(InstId(1), &alu(11, 10, 2)).unwrap();
        assert_eq!(visible(&s).len(), 2, "flexible window sees all entries");
        assert!(!s.head_only());
        // Out-of-order removal works (issue from the middle of a chain).
        s.remove(InstId(1));
        assert_eq!(visible(&s).len(), 1);
    }

    #[test]
    fn clustered_fifos_report_cluster() {
        let mut s = Scheduler::new(
            SchedulerKind::Fifos { fifos_per_cluster: 2, depth: 2 },
            2,
            SteeringPolicy::Dependence,
            128,
        );
        // Independent instructions spread across FIFOs; clusters 0 then 1.
        for i in 0..4u64 {
            s.try_insert(InstId(i), &alu(10 + i as u8, 1, 2)).unwrap();
        }
        let mut clusters: Vec<usize> =
            visible(&s).iter().filter_map(|c| c.cluster).collect();
        clusters.sort_unstable();
        assert_eq!(clusters, vec![0, 0, 1, 1]);
    }

    #[test]
    fn random_steering_fills_everything() {
        let mut s = Scheduler::new(
            SchedulerKind::SteeredWindows { fifos_per_cluster: 2, fifo_depth: 2 },
            2,
            SteeringPolicy::Random { seed: 3 },
            128,
        );
        for i in 0..8u64 {
            assert!(s.try_insert(InstId(i), &alu(10, 1, 2)).is_ok(), "slot {i}");
        }
        assert!(s.try_insert(InstId(8), &alu(10, 1, 2)).is_err());
        assert_eq!(s.occupancy(), 8);
    }

    /// Regression test: squashing from a head-only FIFO used to go
    /// through [`Scheduler::remove`], which pops the *head* and asserts it
    /// matches — but squashed wrong-path work sits at the *tail*, so any
    /// FIFO holding real work in front of wrong-path work panicked.
    #[test]
    fn squash_removes_from_fifo_tail_not_head() {
        let mut s = Scheduler::new(
            SchedulerKind::Fifos { fifos_per_cluster: 2, depth: 4 },
            1,
            SteeringPolicy::Dependence,
            128,
        );
        // A dependence chain: all three share one FIFO, id order 0,1,2.
        s.try_insert(InstId(0), &alu(10, 1, 2)).unwrap();
        s.try_insert(InstId(1), &alu(11, 10, 2)).unwrap();
        s.try_insert(InstId(2), &alu(12, 11, 2)).unwrap();
        // Squash the two youngest (a wrong-path slice): tail-side removal.
        s.remove_squashed(InstId(2));
        s.remove_squashed(InstId(1));
        assert_eq!(s.occupancy(), 1);
        let cands = visible(&s);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].id, InstId(0), "the surviving head is untouched");
        // The survivor still issues normally.
        s.remove(InstId(0));
        assert_eq!(s.occupancy(), 0);
    }

    #[test]
    fn checker_accessors_expose_placement() {
        let mut s = Scheduler::new(
            SchedulerKind::Fifos { fifos_per_cluster: 2, depth: 4 },
            1,
            SteeringPolicy::Dependence,
            128,
        );
        s.try_insert(InstId(0), &alu(10, 1, 2)).unwrap();
        s.try_insert(InstId(1), &alu(11, 10, 2)).unwrap();
        let fifo = s.placement_of(InstId(1)).expect("resident");
        let pool = s.pool().expect("pooled organization");
        assert_eq!(pool.position_of(ce_core::FifoId(fifo as usize), InstId(1)), Some(1));
        assert_eq!(s.capacity(), 8);
    }

    #[test]
    fn try_insert_reports_placement_and_rejection() {
        // Central window: slots fill lowest-first, reject is WindowFull.
        let mut s = Scheduler::new(
            SchedulerKind::CentralWindow { size: 2 },
            1,
            SteeringPolicy::Dependence,
            128,
        );
        let p0 = s.try_insert(InstId(0), &alu(10, 1, 2)).unwrap();
        assert_eq!(p0, Placement { cluster: None, slot: 0, steer: None });
        let p1 = s.try_insert(InstId(1), &alu(11, 1, 2)).unwrap();
        assert_eq!(p1.slot, 1);
        assert_eq!(
            s.try_insert(InstId(2), &alu(12, 1, 2)),
            Err(InsertReject::WindowFull)
        );

        // Dependence FIFOs: the chain explanation and fifo index surface.
        let mut f = Scheduler::new(
            SchedulerKind::Fifos { fifos_per_cluster: 1, depth: 2 },
            1,
            SteeringPolicy::Dependence,
            128,
        );
        let q0 = f.try_insert(InstId(0), &alu(10, 1, 2)).unwrap();
        assert_eq!(q0.cluster, Some(0));
        assert_eq!(q0.steer, Some(SteerChoice::Fresh));
        let q1 = f.try_insert(InstId(1), &alu(11, 10, 2)).unwrap();
        assert_eq!(q1.slot, q0.slot, "chained into the producer's FIFO");
        assert_eq!(q1.steer, Some(SteerChoice::Chained { operand: 0 }));
        // FIFO full behind a chain target: Steering { chain_full: true }.
        assert_eq!(
            f.try_insert(InstId(2), &alu(12, 11, 2)),
            Err(InsertReject::Steering { chain_full: true })
        );

        // Policy-labelled steering for the non-dependence steerers.
        let mut r = Scheduler::new(
            SchedulerKind::SteeredWindows { fifos_per_cluster: 2, fifo_depth: 2 },
            1,
            SteeringPolicy::RoundRobin,
            128,
        );
        let w = r.try_insert(InstId(0), &alu(10, 1, 2)).unwrap();
        assert_eq!(w.steer, Some(SteerChoice::RoundRobin));
    }

    /// Property: on random insert / issue / squash / wake histories, for
    /// every scheduler kind, both scan masks equal a naive reference —
    /// the resident ids read from the test's own log (central) or the
    /// pool queues (pooled), heads only for head-only FIFOs, filtered to
    /// awake ones for the pruned mask, sorted by id.
    #[test]
    fn scan_matches_naive_reference_on_random_histories() {
        let mut rng: u64 = 0x5eed_cafe_f00d_0001;
        let mut next = move || {
            // xorshift64* — deterministic, no external crates.
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        for trial in 0..300u64 {
            let size = 1 + (next() % 100) as usize; // spans multiple words
            let kind = match trial % 3 {
                0 => SchedulerKind::CentralWindow { size },
                1 => SchedulerKind::SteeredWindows {
                    fifos_per_cluster: 1 + size % 4,
                    fifo_depth: 1 + size % 8,
                },
                _ => SchedulerKind::Fifos { fifos_per_cluster: 1 + size % 4, depth: 1 + size % 8 },
            };
            let clusters = 1 + (next() % 2) as usize;
            // Ring sized past the whole trial: the random removal order
            // lets resident ids spread wider than a real pipeline's
            // in-flight limit would allow. Trials start at varying ring
            // indices, so some scans wrap past the end of the ring.
            let mut s = Scheduler::new(kind, clusters, SteeringPolicy::Dependence, 512);
            let mut seq = trial * 10_000; // distinct ids per trial
            let mut resident: Vec<InstId> = Vec::new();
            let mut awake: Vec<InstId> = Vec::new();
            for _ in 0..300 {
                match next() % 5 {
                    // Dispatch (ids ascend, like real sequence numbers);
                    // random registers make dependence chains.
                    0 | 1 => {
                        let id = InstId(seq);
                        let r = |x: u64| 8 + (x % 8) as u8;
                        let inst = alu(r(next()), r(next()), r(next()));
                        if s.try_insert(id, &inst).is_ok() {
                            seq += 1;
                            resident.push(id);
                            if next() % 2 == 0 {
                                s.set_awake(id);
                                awake.push(id);
                            }
                        }
                    }
                    // Issue: any resident, or a FIFO head when head-only
                    // (fragments the window and the FIFOs).
                    2 => {
                        let issuable: Vec<InstId> = match s.pool() {
                            Some(pool) if s.head_only() => pool.heads().map(|(_, id)| id).collect(),
                            _ => resident.clone(),
                        };
                        if !issuable.is_empty() {
                            let victim = issuable[(next() % issuable.len() as u64) as usize];
                            resident.retain(|&id| id != victim);
                            awake.retain(|&id| id != victim);
                            s.remove(victim);
                        }
                    }
                    // Squash an arbitrary resident, from any queue position.
                    3 => {
                        if !resident.is_empty() {
                            let victim = resident.remove((next() % resident.len() as u64) as usize);
                            awake.retain(|&id| id != victim);
                            s.remove_squashed(victim);
                        }
                    }
                    // Wake a sleeping resident.
                    _ => {
                        let asleep: Vec<InstId> =
                            resident.iter().copied().filter(|id| !awake.contains(id)).collect();
                        if !asleep.is_empty() {
                            let id = asleep[(next() % asleep.len() as u64) as usize];
                            s.set_awake(id);
                            awake.push(id);
                        }
                    }
                }
                let oldest = resident.iter().min().copied().unwrap_or(InstId(seq));
                // The naive reference.
                let mut expect: Vec<Candidate> = match s.pool() {
                    None => resident.iter().map(|&id| Candidate { id, cluster: None }).collect(),
                    Some(pool) => pool
                        .entries()
                        .filter(|&(_, pos, _)| pos == 0 || !s.head_only())
                        .map(|(f, _, id)| Candidate { id, cluster: Some(pool.cluster_of(f)) })
                        .collect(),
                };
                expect.sort_unstable_by_key(|c| c.id);
                let mut got = Vec::new();
                s.scan(oldest, false, &mut got);
                assert_eq!(got, expect, "trial {trial} ({kind:?}): every visible entry");
                expect.retain(|c| awake.contains(&c.id));
                s.scan(oldest, true, &mut got);
                assert_eq!(got, expect, "trial {trial} ({kind:?}): awake entries");
            }
        }
    }

    #[test]
    fn set_awake_tolerates_pooled_and_absent_ids() {
        let mut pooled = Scheduler::new(
            SchedulerKind::Fifos { fifos_per_cluster: 2, depth: 4 },
            1,
            SteeringPolicy::Dependence,
            128,
        );
        pooled.try_insert(InstId(0), &alu(10, 1, 2)).unwrap();
        let mut out = Vec::new();
        pooled.scan(InstId(0), true, &mut out);
        assert!(out.is_empty(), "a fresh entry is asleep");
        pooled.set_awake(InstId(0));
        pooled.scan(InstId(0), true, &mut out);
        assert_eq!(out, vec![Candidate { id: InstId(0), cluster: Some(0) }]);
        let mut central = Scheduler::new(
            SchedulerKind::CentralWindow { size: 4 },
            1,
            SteeringPolicy::Dependence,
            128,
        );
        central.set_awake(InstId(7)); // absent id: no-op
        central.scan(InstId(0), true, &mut out);
        assert!(out.is_empty());
        central.try_insert(InstId(7), &alu(10, 1, 2)).unwrap();
        central.scan(InstId(0), true, &mut out);
        assert!(out.is_empty(), "a stale wake does not carry over to a new entry");
        central.set_awake(InstId(7 + 128)); // same ring index, not resident
        central.scan(InstId(0), true, &mut out);
        assert!(out.is_empty(), "an aliased wake leaves the resident asleep");
        assert_eq!(central.placement_of(InstId(7 + 128)), None);
    }

    #[test]
    #[should_panic(expected = "must be in the window")]
    fn removing_absent_instruction_panics() {
        let mut s = Scheduler::new(
            SchedulerKind::CentralWindow { size: 4 },
            1,
            SteeringPolicy::Dependence,
            128,
        );
        // Id 42 shares resident 170's ring index but is not it.
        s.try_insert(InstId(170), &alu(10, 1, 2)).unwrap();
        s.remove(InstId(42));
    }
}
