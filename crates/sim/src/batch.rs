//! Batched multi-cluster lockstep engine (structure-of-arrays).
//!
//! [`BatchCluster`] runs `B` *independent* clusters — all with the same node
//! count `N` and the same TDMA round schedule — through their rounds
//! simultaneously. Controller state is stored as structure-of-arrays: for
//! every per-observer or per-sender quantity there is one contiguous
//! `[u64; B]` lane array, so the round's reception update and the
//! per-round protocol kernels become branch-light bulk loops over lanes
//! that the compiler can auto-vectorize. One u64 per lane packs the
//! per-sender bits (bit `j` = sender `j`), which caps the batched engine at
//! `N ≤ 64` nodes — the same bound as the scalar `Copy` syndrome bitset.
//!
//! The substrate in this module is protocol-agnostic: it models exactly what
//! the scalar [`Controller`](crate::Controller) + engine pair does per slot
//! (validity bits, interface-variable freshness, activity masks, the local
//! collision detector) and hands each round's job phase to a [`LockstepJob`]
//! — the batched counterpart of [`Job`](crate::Job). The batched diagnostic
//! protocol lives in `tt-core` and drives this state machine.
//!
//! A round's `N` slots are resolved in one *slot phase* whose cost follows
//! the faults, not the slot × receiver product:
//!
//! * **Bus rows.** Every sender's frame reaches every receiver with the same
//!   value, so the engine keeps one [`BatchLanes::bus_row`] per sender (the
//!   value on the bus in the last round) instead of one copy per observer.
//!   A receiver reads row `r` only through its validity bit for `r`, which
//!   is set exactly when it accepted that frame, and the scalar
//!   `read_and_align` treats an invalid row as ε — so a per-observer copy
//!   holds nothing a reader can see that the bus row does not.
//! * **Every frame accepted, then the faults.** Each live lane starts from a
//!   fault-free round: observer `i` accepts every active sender but itself,
//!   and its own bit comes from the collision detector. Only the faults due
//!   in this round then act: a benign or asymmetric fault marks the frame
//!   detected by its receivers (and may clear the sender's collision bit),
//!   a malicious one overrides that lane's bus value. Validity, presence
//!   and the collision ring are then written once per (observer, lane).
//! * **Due-round cursors.** Each scheduled fault carries the next round it
//!   strikes and the strikes it has left, so finding the round's faults is
//!   a comparison per fault, skipped outright while no fault is due;
//!   [`LaneFault::covers`] stays as the reference the cursors are tested
//!   against. Entries are kept in (lane, plan) order, so the first due
//!   fault of a (lane, slot) wins, as in `tt-fault`'s schedule pipeline.
//!
//! Divergent lanes are handled with a per-lane *live* mask: a retired lane
//! (its experiment ran out of rounds, or the caller retired it with
//! [`BatchCluster::retire_lane`]) keeps its state frozen bit-for-bit while
//! the remaining lanes continue — the masked updates select the old value
//! by the lane's live flag instead of branching.
//!
//! Scalar-only paths: provenance tracing, metrics sinks and per-cluster
//! `Bytes` payloads are deliberately **not** reproduced here — batched mode
//! corresponds to a scalar cluster with `TraceMode::Off` and the default
//! `NoopSink`. Anything that needs spans or recorded events runs the scalar
//! engine.

use crate::error::SimError;

/// Maximum cluster size of the batched engine: per-sender bits are packed
/// into one `u64` per lane (same bound as `tt-core`'s syndrome bitset).
pub const MAX_BATCH_NODES: usize = 64;

/// Depth of the per-lane collision-detector ring buffer, in rounds.
///
/// The diagnostic protocol queries round `k - 3` during round `k` (Lemma 1);
/// four rounds of history cover the query window with the round currently
/// being written.
const COLLISION_RING: usize = 4;

/// The due round of a fault with no strikes left: a round the engine's
/// counter never reaches.
const NEVER: u64 = u64::MAX;

/// The pre-decoded per-lane effect of one faulty transmission slot.
///
/// This is the batched counterpart of `SlotEffect`: payloads are already
/// decoded to `N`-bit masks so the hot loop never touches `Bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneEffect {
    /// Benign/locally detectable fault: every receiver detects the frame as
    /// invalid, and the sender's collision detector sees the failure.
    Benign,
    /// Symmetric malicious fault: every receiver accepts `mask` (bit `j` =
    /// opinion "node `j` ok") instead of the sender's real payload; the
    /// sender's collision detector reads the frame back fine.
    Malicious {
        /// The received (already decoded) syndrome mask.
        mask: u64,
    },
    /// Asymmetric fault: receivers whose bit is set in `detected_by` detect
    /// the frame as invalid, the others accept the real payload.
    Asymmetric {
        /// Bit `i` set = receiver `i` detects the frame as invalid.
        detected_by: u64,
        /// What the sender's local collision detector observes.
        collision_ok: bool,
    },
}

/// One scheduled fault of a lane's fault plan: `hits` strikes on `slot`'s
/// transmission, every `stride` rounds, starting at `first_round`.
///
/// Mirrors `tt-fault`'s `ScheduledFault` (which converts into this form)
/// with the slot index pre-resolved and the effect pre-decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneFault {
    /// The sending slot (= sender index) the fault strikes.
    pub slot: usize,
    /// First affected round.
    pub first_round: u64,
    /// Number of affected transmissions.
    pub hits: u64,
    /// Rounds between consecutive hits (`0` is treated as `1`).
    pub stride: u64,
    /// What happens to each affected transmission.
    pub effect: LaneEffect,
}

impl LaneFault {
    /// Whether this fault covers the transmission of `slot` in `round`: the
    /// reference definition the engine's due-round cursors reproduce.
    #[inline]
    pub fn covers(&self, round: u64, slot: usize) -> bool {
        if slot != self.slot || round < self.first_round {
            return false;
        }
        let d = round - self.first_round;
        let stride = self.stride.max(1);
        d.is_multiple_of(stride) && d / stride < self.hits
    }
}

/// The fault plan of one lane: a list of [`LaneFault`]s, first match wins
/// (the same resolution order as `tt-fault`'s schedule pipeline). An empty
/// plan is a fault-free lane.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchFaultPlan {
    faults: Vec<LaneFault>,
}

impl BatchFaultPlan {
    /// A plan injecting `faults` (first match wins).
    pub fn new(faults: Vec<LaneFault>) -> Self {
        BatchFaultPlan { faults }
    }

    /// The fault-free plan.
    pub fn correct() -> Self {
        BatchFaultPlan::default()
    }

    /// The scheduled faults, in match order.
    pub fn faults(&self) -> &[LaneFault] {
        &self.faults
    }

    /// The effect striking `slot`'s transmission in `round`, if any.
    #[inline]
    pub fn effect_for(&self, round: u64, slot: usize) -> Option<&LaneEffect> {
        self.faults
            .iter()
            .find(|f| f.covers(round, slot))
            .map(|f| &f.effect)
    }
}

/// The batched job interface: the per-round protocol step of all lanes.
///
/// [`BatchCluster::run_round`] calls [`LockstepJob::execute`] once per round
/// *before* the round's slot phase, exactly as the scalar engine runs jobs
/// with schedule offset `l = 0` before slot 0. The job reads and updates the
/// lanes' controller state through [`BatchLanes`] and must skip lanes whose
/// live flag is clear.
pub trait LockstepJob {
    /// Runs the job phase of the current round for every live lane.
    fn execute(&mut self, lanes: &mut BatchLanes);
}

/// Structure-of-arrays controller state for `B` lockstep clusters.
///
/// Every row accessor returns a `B`-element lane array; per-sender bits are
/// packed into the `u64` lane values (bit `j` = sender/subject `j`).
#[derive(Debug, Clone)]
pub struct BatchLanes {
    n: usize,
    b: usize,
    round: u64,
    /// Validity bit per (observer `i`, sender bit `j`): `[i * b + lane]`.
    validity: Vec<u64>,
    /// Interface-variable presence (ever successfully received) per
    /// (observer, sender bit): `[i * b + lane]`.
    present: Vec<u64>,
    /// Activity mask per (observer, subject bit): `[i * b + lane]`.
    active: Vec<u64>,
    /// The value on the bus in sender `r`'s slot of the last round (the
    /// transmit buffer, or a malicious fault's payload): `[r * b + lane]`.
    bus: Vec<u64>,
    /// Transmit buffer (decoded mask) per sender `p`: `[p * b + lane]`.
    tx: Vec<u64>,
    /// Collision-detector ring: `[(round % COLLISION_RING) * b + lane]`,
    /// bit `p` = own-transmission outcome of slot `p` in that round.
    collisions: Vec<u64>,
    /// Live flag per lane (`1` = running, `0` = retired/frozen).
    live: Vec<u64>,
    live_count: usize,
}

impl BatchLanes {
    fn new(n: usize, b: usize) -> Self {
        let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        BatchLanes {
            n,
            b,
            round: 0,
            validity: vec![0; n * b],
            present: vec![0; n * b],
            active: vec![mask; n * b],
            bus: vec![0; n * b],
            tx: vec![0; n * b],
            collisions: vec![0; COLLISION_RING * b],
            live: vec![1; b],
            live_count: b,
        }
    }

    /// Cluster size `N` (nodes per lane).
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Batch width `B` (number of lanes).
    #[inline]
    pub fn batch(&self) -> usize {
        self.b
    }

    /// The current round `k` (the round whose job phase is running, or the
    /// next round to run between rounds).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The all-ones mask over the `N` per-sender bits.
    #[inline]
    pub fn node_mask(&self) -> u64 {
        if self.n == 64 {
            u64::MAX
        } else {
            (1u64 << self.n) - 1
        }
    }

    /// Per-lane live flags (`1` = running, `0` = retired).
    #[inline]
    pub fn live(&self) -> &[u64] {
        &self.live
    }

    /// Whether `lane` is still running.
    #[inline]
    pub fn is_live(&self, lane: usize) -> bool {
        self.live[lane] == 1
    }

    /// Number of live lanes.
    #[inline]
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Validity bits of observer `i` (bit `j` = sender `j`'s variable valid).
    #[inline]
    pub fn validity_row(&self, i: usize) -> &[u64] {
        &self.validity[i * self.b..(i + 1) * self.b]
    }

    /// Interface-variable presence of observer `i` (bit `j` set once sender
    /// `j`'s variable was successfully received at least once).
    #[inline]
    pub fn present_row(&self, i: usize) -> &[u64] {
        &self.present[i * self.b..(i + 1) * self.b]
    }

    /// Activity mask of observer `i` (bit `j` clear = `j` isolated locally).
    #[inline]
    pub fn active_row(&self, i: usize) -> &[u64] {
        &self.active[i * self.b..(i + 1) * self.b]
    }

    /// The value sender `r` put on the bus in the last round. Observer `i`
    /// received exactly this value in a lane where bit `r` of its
    /// [`validity_row`](Self::validity_row) is set; where the bit is clear,
    /// it holds no readable copy of `r`'s frame (the scalar alignment reads
    /// an invalid variable as ε).
    #[inline]
    pub fn bus_row(&self, r: usize) -> &[u64] {
        &self.bus[r * self.b..(r + 1) * self.b]
    }

    /// Mutable transmit buffer of sender `p` (decoded `N`-bit masks); the
    /// job phase writes the outgoing syndrome here, the slot phase of the
    /// same round puts it on the bus.
    #[inline]
    pub fn tx_row_mut(&mut self, p: usize) -> &mut [u64] {
        &mut self.tx[p * self.b..(p + 1) * self.b]
    }

    /// The collision-detector observations of `round` (bit `p` = own
    /// transmission in slot `p` was readable on the bus).
    ///
    /// Only the last `COLLISION_RING` (4) completed rounds are retained;
    /// the protocol queries `k - 3`, inside the window.
    #[inline]
    pub fn collision_row(&self, round: u64) -> &[u64] {
        debug_assert!(
            round < self.round && self.round - round <= COLLISION_RING as u64,
            "collision history holds the last {COLLISION_RING} rounds"
        );
        let slot = (round % COLLISION_RING as u64) as usize;
        &self.collisions[slot * self.b..(slot + 1) * self.b]
    }

    /// Clears observer `i`'s activity bit for `subject` in `lane` (the
    /// local isolation decision of the diagnostic protocol).
    #[inline]
    pub fn isolate(&mut self, i: usize, subject: usize, lane: usize) {
        self.active[i * self.b + lane] &= !(1u64 << subject);
    }
}

/// A scheduled fault's static part, with its lane: what it does, where, and
/// how often. Its due round lives in `BatchCluster::due`.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    lane: usize,
    slot: usize,
    /// Rounds between strikes (at least 1).
    stride: u64,
    /// Strikes left, counting the one at the due round.
    left: u64,
    effect: LaneEffect,
}

/// `B` independent clusters advanced in lockstep through the same round
/// schedule (see the [module docs](self) for the layout and semantics).
#[derive(Debug, Clone)]
pub struct BatchCluster {
    lanes: BatchLanes,
    plans: Vec<BatchFaultPlan>,
    /// Every lane's scheduled faults, in (lane, plan) order.
    cursors: Vec<Cursor>,
    /// The next round each cursor strikes (`NEVER` once spent), kept apart
    /// from the cursors so the per-round search reads one dense array.
    due: Vec<u64>,
    /// The earliest entry of `due`: rounds before it strike no fault.
    next_due: u64,
    /// Scratch: per-lane slots whose frame every receiver detects (bit `p`).
    lost: Vec<u64>,
    /// Scratch: per-(receiver, lane) slots whose frame this receiver alone
    /// detects, `[i * b + lane]` (asymmetric faults); zero between rounds.
    det: Vec<u64>,
    /// Scratch: per-lane collision-detector outcomes (bit `p` = sender `p`
    /// read its own frame back).
    coll: Vec<u64>,
}

impl BatchCluster {
    /// Creates a lockstep batch of `plans.len()` clusters of `n` nodes; lane
    /// `l` runs fault plan `plans[l]`.
    pub fn new(n: usize, plans: Vec<BatchFaultPlan>) -> Result<Self, SimError> {
        if !(2..=MAX_BATCH_NODES).contains(&n) {
            return Err(SimError::InvalidConfig(format!(
                "batched cluster size must be 2..={MAX_BATCH_NODES}, got {n}"
            )));
        }
        if plans.is_empty() {
            return Err(SimError::InvalidConfig(
                "a batch needs at least one lane".into(),
            ));
        }
        let b = plans.len();
        for (lane, plan) in plans.iter().enumerate() {
            if let Some(f) = plan.faults().iter().find(|f| f.slot >= n) {
                return Err(SimError::InvalidConfig(format!(
                    "lane {lane}: fault slot {} out of range for n = {n}",
                    f.slot
                )));
            }
        }
        let (cursors, due): (Vec<Cursor>, Vec<u64>) = plans
            .iter()
            .enumerate()
            .flat_map(|(lane, plan)| plan.faults().iter().map(move |f| (lane, f)))
            .map(|(lane, f)| {
                let cursor = Cursor {
                    lane,
                    slot: f.slot,
                    stride: f.stride.max(1),
                    left: f.hits,
                    effect: f.effect,
                };
                (cursor, if f.hits == 0 { NEVER } else { f.first_round })
            })
            .unzip();
        let lanes = BatchLanes::new(n, b);
        let coll = vec![lanes.node_mask(); b];
        Ok(BatchCluster {
            lanes,
            plans,
            cursors,
            next_due: due.iter().copied().min().unwrap_or(NEVER),
            due,
            lost: vec![0; b],
            det: vec![0; n * b],
            coll,
        })
    }

    /// The lanes' controller state.
    pub fn lanes(&self) -> &BatchLanes {
        &self.lanes
    }

    /// The per-lane fault plans, in lane order.
    pub fn plans(&self) -> &[BatchFaultPlan] {
        &self.plans
    }

    /// Retires `lane`: its state freezes bit-for-bit and subsequent rounds
    /// skip it. Retiring an already-retired lane is a no-op.
    pub fn retire_lane(&mut self, lane: usize) {
        if self.lanes.live[lane] == 1 {
            self.lanes.live[lane] = 0;
            self.lanes.live_count -= 1;
        }
    }

    /// Runs one full round: the job phase (all lanes, via `job`), then the
    /// slot phase of the `N` transmission slots. Returns `false` when no
    /// lane is live (the round did not run).
    pub fn run_round(&mut self, job: &mut dyn LockstepJob) -> bool {
        if self.lanes.live_count == 0 {
            return false;
        }
        job.execute(&mut self.lanes);
        let b = self.lanes.b;
        let k = self.lanes.round;
        // Every sender's transmit buffer goes on the bus; retired lanes keep
        // their frozen rows. Exact-length slice bindings let the lane loops
        // elide bounds checks and vectorize.
        let live = &self.lanes.live[..b];
        for (bus, tx) in self
            .lanes
            .bus
            .chunks_exact_mut(b)
            .zip(self.lanes.tx.chunks_exact(b))
        {
            for ((x, &t), &lv) in bus.iter_mut().zip(tx).zip(live) {
                let m = 0u64.wrapping_sub(lv);
                *x = (*x & !m) | (t & m);
            }
        }
        self.lost.fill(0);
        self.coll.fill(self.lanes.node_mask());
        if k >= self.next_due {
            self.strike_due_faults(k);
        }
        // Receptions: the masked, branch-free equivalent of every slot's
        // `Controller::deliver` and `Controller::record_collision`. Observer
        // `i` accepts each active sender's frame unless it detected it, and
        // learns its own from the collision detector; an accepted frame
        // marks its variable present (the own one always is).
        let live = &self.lanes.live[..b];
        let (lost, coll) = (&self.lost[..b], &self.coll[..b]);
        for i in 0..self.lanes.n {
            let own = 1u64 << i;
            let rows = i * b..(i + 1) * b;
            let validity = &mut self.lanes.validity[rows.clone()];
            let present = &mut self.lanes.present[rows.clone()];
            let active = &self.lanes.active[rows.clone()];
            let det = &mut self.det[rows];
            for lane in 0..b {
                let m = 0u64.wrapping_sub(live[lane]);
                let heard = active[lane] & !own & !(lost[lane] | det[lane]);
                let v = heard | (coll[lane] & own);
                validity[lane] = (validity[lane] & !m) | (v & m);
                present[lane] |= (v | own) & m;
                det[lane] = 0;
            }
        }
        let ring = (k % COLLISION_RING as u64) as usize * b;
        let collisions = &mut self.lanes.collisions[ring..ring + b];
        for ((c, &x), &lv) in collisions.iter_mut().zip(coll).zip(live) {
            let m = 0u64.wrapping_sub(lv);
            *c = (*c & !m) | (x & m);
        }
        self.lanes.round += 1;
        true
    }

    /// Applies every fault due in round `k` to the slot-phase scratch (and
    /// malicious payloads to the bus rows), then moves each past `k`.
    ///
    /// Cursors run in (lane, plan) order, so the first due fault of a
    /// (lane, slot) is the one that acts — the first match of the plan's
    /// [`LaneFault::covers`] scan — while every due cursor still advances.
    /// A retired lane's cursors are dropped: the lane never runs again.
    fn strike_due_faults(&mut self, k: u64) {
        let b = self.lanes.b;
        let node_mask = self.lanes.node_mask();
        let mut next = NEVER;
        let mut lane_seen = usize::MAX;
        let mut struck = 0u64;
        for (due, c) in self.due.iter_mut().zip(&mut self.cursors) {
            if *due == k {
                if self.lanes.live[c.lane] == 0 {
                    *due = NEVER;
                    continue;
                }
                if c.lane != lane_seen {
                    lane_seen = c.lane;
                    struck = 0;
                }
                let bit = 1u64 << c.slot;
                if struck & bit == 0 {
                    struck |= bit;
                    let lane = c.lane;
                    match c.effect {
                        LaneEffect::Benign => {
                            self.lost[lane] |= bit;
                            self.coll[lane] &= !bit;
                        }
                        LaneEffect::Malicious { mask } => {
                            self.lanes.bus[c.slot * b + lane] = mask;
                        }
                        LaneEffect::Asymmetric {
                            detected_by,
                            collision_ok,
                        } => {
                            let mut receivers = detected_by & node_mask & !bit;
                            while receivers != 0 {
                                let i = receivers.trailing_zeros() as usize;
                                receivers &= receivers - 1;
                                self.det[i * b + lane] |= bit;
                            }
                            if !collision_ok {
                                self.coll[lane] &= !bit;
                            }
                        }
                    }
                }
                c.left -= 1;
                *due = match c.left {
                    0 => NEVER,
                    _ => k.checked_add(c.stride).unwrap_or(NEVER),
                };
            }
            next = next.min(*due);
        }
        self.next_due = next;
    }

    /// Runs `rounds` full rounds (stopping early if every lane retires);
    /// returns the number of rounds that ran.
    pub fn run_rounds(&mut self, rounds: u64, job: &mut dyn LockstepJob) -> u64 {
        for executed in 0..rounds {
            if !self.run_round(job) {
                return executed;
            }
        }
        rounds
    }

    /// Runs until every lane has completed its per-lane round budget:
    /// lane `l` participates in rounds `0..lane_rounds[l]` and is then
    /// retired, letting shorter experiments fall out of the batch while the
    /// longer ones continue (lane divergence).
    ///
    /// # Panics
    ///
    /// Panics if `lane_rounds.len() != B`.
    pub fn run_lane_rounds(&mut self, lane_rounds: &[u64], job: &mut dyn LockstepJob) {
        assert_eq!(lane_rounds.len(), self.lanes.b, "one round budget per lane");
        loop {
            let k = self.lanes.round;
            for (lane, &target) in lane_rounds.iter().enumerate() {
                if k >= target {
                    self.retire_lane(lane);
                }
            }
            if !self.run_round(job) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job that records nothing: pure slot-phase exercise.
    struct Idle;
    impl LockstepJob for Idle {
        fn execute(&mut self, _lanes: &mut BatchLanes) {}
    }

    /// A job that transmits a constant per-lane mask.
    struct Constant(u64);
    impl LockstepJob for Constant {
        fn execute(&mut self, lanes: &mut BatchLanes) {
            for p in 0..lanes.n_nodes() {
                let mask = self.0;
                lanes.tx_row_mut(p).iter_mut().for_each(|t| *t = mask);
            }
        }
    }

    #[test]
    fn rejects_invalid_configs() {
        assert!(BatchCluster::new(1, vec![BatchFaultPlan::correct()]).is_err());
        assert!(BatchCluster::new(65, vec![BatchFaultPlan::correct()]).is_err());
        assert!(BatchCluster::new(4, Vec::new()).is_err());
        let bad_slot = BatchFaultPlan::new(vec![LaneFault {
            slot: 4,
            first_round: 0,
            hits: 1,
            stride: 1,
            effect: LaneEffect::Benign,
        }]);
        assert!(BatchCluster::new(4, vec![bad_slot]).is_err());
    }

    #[test]
    fn healthy_slots_set_validity_present_and_syndromes() {
        let mut c = BatchCluster::new(4, vec![BatchFaultPlan::correct(); 3]).unwrap();
        let mut job = Constant(0b1010);
        assert!(c.run_round(&mut job));
        let lanes = c.lanes();
        for i in 0..4 {
            for lane in 0..3 {
                assert_eq!(lanes.validity_row(i)[lane], 0b1111, "observer {i}");
                assert_eq!(lanes.present_row(i)[lane], 0b1111);
            }
        }
        // Every row is valid at every observer, so each reads the bus row.
        for r in 0..4 {
            for lane in 0..3 {
                assert_eq!(lanes.bus_row(r)[lane], 0b1010);
            }
        }
        // Collision ring: all four own transmissions fine.
        assert_eq!(lanes.collision_row(0)[0], 0b1111);
    }

    #[test]
    fn benign_fault_detected_by_all_and_collision_seen() {
        let plan = BatchFaultPlan::new(vec![LaneFault {
            slot: 2,
            first_round: 0,
            hits: 1,
            stride: 1,
            effect: LaneEffect::Benign,
        }]);
        let mut c = BatchCluster::new(4, vec![BatchFaultPlan::correct(), plan]).unwrap();
        let mut job = Constant(0b1111);
        c.run_round(&mut Idle); // round 0: empty tx, establish presence
        c.run_round(&mut job);
        let lanes = c.lanes();
        // Lane 0 (fault-free): everything valid.
        for i in 0..4 {
            assert_eq!(lanes.validity_row(i)[0], 0b1111);
        }
        // Lane 1: slot 2's frame detected by every receiver in round 0 —
        // validity restored in round 1 (hits = 1).
        assert_eq!(lanes.collision_row(0)[1], 0b1011, "collision seen");
        assert_eq!(lanes.collision_row(1)[1], 0b1111, "round 1 clean");
        for i in 0..4 {
            assert_eq!(lanes.validity_row(i)[1], 0b1111, "recovered");
        }
    }

    #[test]
    fn malicious_payload_replaces_receptions_but_not_self_copy() {
        let plan = BatchFaultPlan::new(vec![LaneFault {
            slot: 1,
            first_round: 0,
            hits: 1,
            stride: 1,
            effect: LaneEffect::Malicious { mask: 0b0001 },
        }]);
        let mut c = BatchCluster::new(4, vec![plan]).unwrap();
        let mut job = Constant(0b1111);
        c.run_round(&mut job);
        let lanes = c.lanes();
        // Every receiver accepts the forged payload: the bus row carries it.
        assert_eq!(lanes.bus_row(1)[0], 0b0001, "forged payload received");
        for i in 0..4 {
            assert_eq!(lanes.validity_row(i)[0], 0b1111, "accepted as valid");
        }
        // The sender's real transmit buffer is untouched (what it knows it
        // sent is the job's own row, not a bus read).
        assert_eq!(c.lanes.tx[1], 0b1111, "real payload kept");
    }

    #[test]
    fn asymmetric_fault_splits_receivers() {
        let plan = BatchFaultPlan::new(vec![LaneFault {
            slot: 0,
            first_round: 2,
            hits: 2,
            stride: 3,
            effect: LaneEffect::Asymmetric {
                detected_by: 0b0110,
                collision_ok: true,
            },
        }]);
        let mut c = BatchCluster::new(4, vec![plan]).unwrap();
        let mut job = Constant(0b1111);
        c.run_rounds(3, &mut job); // rounds 0..=2; fault strikes round 2
        let lanes = c.lanes();
        assert_eq!(lanes.validity_row(1)[0], 0b1110, "receiver 1 detected");
        assert_eq!(lanes.validity_row(2)[0], 0b1110, "receiver 2 detected");
        assert_eq!(lanes.validity_row(3)[0], 0b1111, "receiver 3 accepted");
        assert_eq!(lanes.collision_row(2)[0], 0b1111, "sender saw no failure");
        // Stride 3, hits 2: covers rounds 2 and 5 only.
        let f = &c.plans[0].faults()[0];
        assert!(f.covers(2, 0) && f.covers(5, 0));
        assert!(!f.covers(3, 0) && !f.covers(8, 0) && !f.covers(2, 1));
    }

    #[test]
    fn inactive_senders_are_ignored() {
        let mut c = BatchCluster::new(4, vec![BatchFaultPlan::correct(); 2]).unwrap();
        let mut job = Constant(0b1111);
        c.run_round(&mut job);
        // Observer 3 isolates node 1 in lane 0 only.
        c.lanes.isolate(3, 1, 0);
        c.run_round(&mut job);
        let lanes = c.lanes();
        assert_eq!(lanes.validity_row(3)[0], 0b1101, "validity forced off");
        assert_eq!(lanes.validity_row(3)[1], 0b1111, "other lane unaffected");
        // Observer 3 cannot read node 1's row in lane 0 (validity bit
        // clear); node 1 itself still transmits its real buffer, which the
        // other observers read.
        assert_eq!(lanes.validity_row(3)[0] & 0b0010, 0, "row unreadable");
        assert_eq!(c.lanes.tx[2], 0b1111, "sender's tx untouched");
        assert_eq!(lanes.bus_row(1)[0], 0b1111, "others read the real frame");
        assert_eq!(lanes.active_row(3)[0], 0b1101);
    }

    #[test]
    fn retired_lanes_freeze_bit_for_bit() {
        let plan = BatchFaultPlan::new(vec![LaneFault {
            slot: 3,
            first_round: 1,
            hits: u64::MAX,
            stride: 1,
            effect: LaneEffect::Benign,
        }]);
        let mut c = BatchCluster::new(4, vec![plan.clone(), plan]).unwrap();
        let mut job = Constant(0b1111);
        c.run_rounds(2, &mut job);
        c.retire_lane(0);
        let frozen: Vec<u64> = c.lanes.validity.clone();
        let frozen_bus: Vec<u64> = c.lanes.bus.clone();
        c.run_rounds(3, &mut job);
        let lanes = c.lanes();
        assert_eq!(lanes.live_count(), 1);
        assert!(!lanes.is_live(0));
        for i in 0..4 {
            assert_eq!(lanes.validity_row(i)[0], frozen[i * 2], "lane 0 frozen");
        }
        for r in 0..4 {
            assert_eq!(lanes.bus_row(r)[0], frozen_bus[r * 2], "bus row frozen");
        }
        // Lane 1 kept running: the persistent benign fault on slot 3 keeps
        // its validity bit down.
        assert_eq!(lanes.validity_row(0)[1] & 0b1000, 0);
        // Retiring every lane stops the engine.
        c.retire_lane(1);
        assert!(!c.run_round(&mut job));
        assert_eq!(c.lanes().round(), 5);
    }

    #[test]
    fn lane_round_budgets_retire_lanes_individually() {
        let mut c = BatchCluster::new(4, vec![BatchFaultPlan::correct(); 3]).unwrap();
        c.run_lane_rounds(&[2, 5, 0], &mut Constant(0b1111));
        assert_eq!(c.lanes().round(), 5, "longest budget bounds the run");
        assert_eq!(c.lanes().live_count(), 0);
        // Lane 2 never ran a round: validity still at the initial state.
        assert_eq!(c.lanes().validity_row(0)[2], 0);
        // Lane 0 ran exactly 2 rounds, lane 1 all 5.
        assert_eq!(c.lanes().validity_row(0)[0], 0b1111);
        assert_eq!(c.lanes().validity_row(0)[1], 0b1111);
    }

    /// SplitMix64: the seeded draws of the cursor parity test.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A random plan over `n` slots: several faults share one slot so
    /// same-lane overlaps are common, and stride, hits and first round
    /// come from edge-heavy menus.
    fn random_plan(n: usize, seed: &mut u64) -> BatchFaultPlan {
        let pick = |seed: &mut u64, menu: &[u64]| menu[splitmix(seed) as usize % menu.len()];
        let hot = splitmix(seed) as usize % n;
        let faults = (0..splitmix(seed) % 6)
            .map(|f| {
                let r = splitmix(seed);
                LaneFault {
                    slot: if r.is_multiple_of(3) {
                        r as usize % n
                    } else {
                        hot
                    },
                    first_round: pick(seed, &[0, 0, 3, 17, 250, 299, 300, 1 << 40, u64::MAX]),
                    hits: pick(seed, &[0, 1, 1, 2, 5, u64::MAX, u64::MAX]),
                    stride: pick(seed, &[0, 1, 1, 2, 3, 7, 150, 1 << 62, u64::MAX]),
                    effect: match r % 3 {
                        0 => LaneEffect::Benign,
                        1 => LaneEffect::Malicious {
                            // Distinct per fault, so the applied one shows.
                            mask: (r >> 8) & ((1 << n) - 1) | (f + 1) << n,
                        },
                        _ => LaneEffect::Asymmetric {
                            detected_by: (r >> 16) & ((1 << n) - 1),
                            collision_ok: r & 0x100 != 0,
                        },
                    },
                }
            })
            .collect();
        BatchFaultPlan::new(faults)
    }

    #[test]
    fn due_cursors_apply_the_first_covering_fault() {
        const N: usize = 6;
        const TX: u64 = 0b10_1101;
        let mut seed = 0x5EED_u64;
        for _ in 0..40 {
            let plans: Vec<BatchFaultPlan> = (0..9).map(|_| random_plan(N, &mut seed)).collect();
            let mut c = BatchCluster::new(N, plans.clone()).unwrap();
            for k in 0..300u64 {
                assert!(c.run_round(&mut Constant(TX)));
                let lanes = c.lanes();
                for (lane, plan) in plans.iter().enumerate() {
                    for p in 0..N {
                        let bit = 1u64 << p;
                        // (bus value, receivers that detect, collision ok)
                        let (bus, detected, coll) = match plan.effect_for(k, p) {
                            None => (TX, 0, true),
                            Some(LaneEffect::Benign) => (TX, u64::MAX, false),
                            Some(&LaneEffect::Malicious { mask }) => (mask, 0, true),
                            Some(&LaneEffect::Asymmetric {
                                detected_by,
                                collision_ok,
                            }) => (TX, detected_by, collision_ok),
                        };
                        let at = format!("round {k}, lane {lane}, slot {p}");
                        assert_eq!(lanes.bus_row(p)[lane], bus, "{at}");
                        let seen = lanes.collision_row(k)[lane] & bit != 0;
                        assert_eq!(seen, coll, "{at}");
                        for i in 0..N {
                            let valid = lanes.validity_row(i)[lane] & bit != 0;
                            let expect = if i == p { coll } else { detected >> i & 1 == 0 };
                            assert_eq!(valid, expect, "{at}, observer {i}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn node_mask_covers_full_width() {
        let c = BatchCluster::new(64, vec![BatchFaultPlan::correct()]).unwrap();
        assert_eq!(c.lanes().node_mask(), u64::MAX);
        let c = BatchCluster::new(4, vec![BatchFaultPlan::correct()]).unwrap();
        assert_eq!(c.lanes().node_mask(), 0b1111);
        assert_eq!(c.lanes().active_row(0)[0], 0b1111, "all nodes start active");
    }
}
