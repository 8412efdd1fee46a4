//! Batched multi-cluster lockstep engine (structure-of-arrays).
//!
//! [`BatchCluster`] runs `B` *independent* clusters — all with the same node
//! count `N` and the same TDMA round schedule — through their rounds
//! simultaneously. Controller state is stored as structure-of-arrays: for
//! every per-(observer, sender) quantity there is one contiguous `[u64; B]`
//! lane array, so the per-slot reception update and the per-round protocol
//! kernels become branch-light bulk loops over lanes that the compiler can
//! auto-vectorize. One u64 per lane packs the per-sender bits (bit `j` =
//! sender `j`), which caps the batched engine at `N ≤ 64` nodes — the same
//! bound as the scalar `Copy` syndrome bitset.
//!
//! The substrate in this module is protocol-agnostic: it models exactly what
//! the scalar [`Controller`](crate::Controller) + engine pair does per slot
//! (validity bits, interface-variable freshness, activity masks, the local
//! collision detector) and hands each round's job phase to a [`LockstepJob`]
//! — the batched counterpart of [`Job`](crate::Job). The batched diagnostic
//! protocol lives in `tt-core` and drives this state machine.
//!
//! Divergent lanes are handled with a per-lane *live* mask: a retired lane
//! (its experiment ran out of rounds, or the caller retired it with
//! [`BatchCluster::retire_lane`]) keeps its state frozen bit-for-bit while
//! the remaining lanes continue — the masked updates multiply every write
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
    /// Whether this fault covers the transmission of `slot` in `round`.
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
    /// Last successfully received syndrome mask per (observer `i`,
    /// sender `r`): `[(i * n + r) * b + lane]`.
    syn: Vec<u64>,
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
            syn: vec![0; n * n * b],
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

    /// The last successfully received syndrome of sender `r` as seen by
    /// observer `i`.
    #[inline]
    pub fn syndrome_row(&self, i: usize, r: usize) -> &[u64] {
        let base = (i * self.n + r) * self.b;
        &self.syn[base..base + self.b]
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

/// `B` independent clusters advanced in lockstep through the same round
/// schedule (see the [module docs](self) for the layout and semantics).
#[derive(Debug, Clone)]
pub struct BatchCluster {
    lanes: BatchLanes,
    plans: Vec<BatchFaultPlan>,
    /// Fault index: per sending slot, the `(lane, fault)` pairs that can
    /// ever strike it, in (lane, plan) order — so the per-slot resolution
    /// scans only the (sparse) faulty lanes instead of every lane, and
    /// consecutive same-lane entries implement first-match-wins.
    by_slot: Vec<Vec<(u32, LaneFault)>>,
    /// Scratch: per-lane received payload mask of the current slot.
    pay: Vec<u64>,
    /// Scratch: per-lane receiver-detection mask (bit `i` = receiver `i`
    /// detects the frame as invalid).
    det: Vec<u64>,
    /// Scratch: per-lane collision-detector outcome (0/1).
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
        let mut by_slot = vec![Vec::new(); n];
        for (lane, plan) in plans.iter().enumerate() {
            for f in plan.faults() {
                by_slot[f.slot].push((lane as u32, *f));
            }
        }
        Ok(BatchCluster {
            lanes: BatchLanes::new(n, b),
            plans,
            by_slot,
            pay: vec![0; b],
            det: vec![0; b],
            coll: vec![0; b],
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
    /// `N` transmission slots. Returns `false` when no lane is live (the
    /// round did not run).
    pub fn run_round(&mut self, job: &mut dyn LockstepJob) -> bool {
        if self.lanes.live_count == 0 {
            return false;
        }
        job.execute(&mut self.lanes);
        let n = self.lanes.n;
        let b = self.lanes.b;
        let k = self.lanes.round;
        let ring = (k % COLLISION_RING as u64) as usize * b;
        for p in 0..n {
            // Resolve each lane's slot effect into the scratch arrays. The
            // defaults model a correct transmission; the slot's fault index
            // visits only the lanes with a fault scheduled on this slot, in
            // (lane, plan) order, so skipping the remaining entries of an
            // already-matched lane preserves first-match-wins.
            self.pay.copy_from_slice(&self.lanes.tx[p * b..(p + 1) * b]);
            self.det.fill(0);
            self.coll.fill(1);
            let mut matched = usize::MAX;
            for &(lane, ref f) in &self.by_slot[p] {
                let lane = lane as usize;
                if lane == matched || self.lanes.live[lane] == 0 || !f.covers(k, p) {
                    continue;
                }
                matched = lane;
                match f.effect {
                    LaneEffect::Benign => {
                        self.det[lane] = u64::MAX;
                        self.coll[lane] = 0;
                    }
                    LaneEffect::Malicious { mask } => {
                        self.pay[lane] = mask;
                    }
                    LaneEffect::Asymmetric {
                        detected_by,
                        collision_ok,
                    } => {
                        self.det[lane] = detected_by;
                        self.coll[lane] = collision_ok as u64;
                    }
                }
            }
            let bit = 1u64 << p;
            // Receivers i != p: the masked, branch-free equivalent of
            // `Controller::deliver`. An inactive sender or a detected frame
            // clears the validity bit; a valid reception sets it, marks the
            // variable present and latches the payload mask. Retired lanes
            // multiply every write out. Exact-length slice bindings let the
            // lane loops elide bounds checks and vectorize.
            let live = &self.lanes.live[..b];
            let det = &self.det[..b];
            let pay = &self.pay[..b];
            for i in 0..n {
                if i == p {
                    continue;
                }
                let validity = &mut self.lanes.validity[i * b..(i + 1) * b];
                let present = &mut self.lanes.present[i * b..(i + 1) * b];
                let active = &self.lanes.active[i * b..(i + 1) * b];
                let srow = (i * n + p) * b;
                let syn = &mut self.lanes.syn[srow..srow + b];
                for lane in 0..b {
                    let lv = live[lane];
                    let act = (active[lane] >> p) & 1;
                    let detected = (det[lane] >> i) & 1;
                    let ok = act & (detected ^ 1) & lv;
                    let clear = bit & 0u64.wrapping_sub(lv);
                    validity[lane] = (validity[lane] & !clear) | (ok << p);
                    present[lane] |= ok << p;
                    let m = 0u64.wrapping_sub(ok);
                    syn[lane] = (syn[lane] & !m) | (pay[lane] & m);
                }
            }
            // Sender self-path: the equivalent of
            // `Controller::record_collision` — unconditionally latches the
            // *real* transmit buffer (the node knows what it sent), sets the
            // own validity bit from the collision detector and records the
            // observation in the ring.
            let coll = &self.coll[..b];
            let validity = &mut self.lanes.validity[p * b..(p + 1) * b];
            let present = &mut self.lanes.present[p * b..(p + 1) * b];
            let tx = &self.lanes.tx[p * b..(p + 1) * b];
            let srow = (p * n + p) * b;
            let syn = &mut self.lanes.syn[srow..srow + b];
            let collisions = &mut self.lanes.collisions[ring..ring + b];
            for lane in 0..b {
                let lv = live[lane];
                let c = coll[lane] & lv;
                let clear = bit & 0u64.wrapping_sub(lv);
                validity[lane] = (validity[lane] & !clear) | (c << p);
                present[lane] |= lv << p;
                let m = 0u64.wrapping_sub(lv);
                syn[lane] = (syn[lane] & !m) | (tx[lane] & m);
                collisions[lane] = (collisions[lane] & !clear) | (c << p);
            }
        }
        self.lanes.round += 1;
        true
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
                for r in 0..4 {
                    assert_eq!(lanes.syndrome_row(i, r)[lane], 0b1010);
                }
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
        for i in 0..4 {
            let expect = if i == 1 { 0b1111 } else { 0b0001 };
            assert_eq!(lanes.syndrome_row(i, 1)[0], expect, "observer {i}");
            assert_eq!(lanes.validity_row(i)[0], 0b1111, "accepted as valid");
        }
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
        assert_eq!(lanes.syndrome_row(3, 1)[0], 0b1111, "stale value kept");
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
        let frozen_syn: Vec<u64> = c.lanes.syn.clone();
        c.run_rounds(3, &mut job);
        let lanes = c.lanes();
        assert_eq!(lanes.live_count(), 1);
        assert!(!lanes.is_live(0));
        for i in 0..4 {
            assert_eq!(lanes.validity_row(i)[0], frozen[i * 2], "lane 0 frozen");
            for r in 0..4 {
                assert_eq!(lanes.syndrome_row(i, r)[0], frozen_syn[(i * 4 + r) * 2]);
            }
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

    #[test]
    fn node_mask_covers_full_width() {
        let c = BatchCluster::new(64, vec![BatchFaultPlan::correct()]).unwrap();
        assert_eq!(c.lanes().node_mask(), u64::MAX);
        let c = BatchCluster::new(4, vec![BatchFaultPlan::correct()]).unwrap();
        assert_eq!(c.lanes().node_mask(), 0b1111);
        assert_eq!(c.lanes().active_row(0)[0], 0b1111, "all nodes start active");
    }
}
