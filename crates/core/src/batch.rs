//! Batched diagnostic protocol: `B` independent protocol instances advanced
//! in lockstep over a [`tt_sim::BatchCluster`].
//!
//! [`BatchDiagJob`] is the structure-of-arrays counterpart of
//! [`crate::DiagJob`]:
//! per-(observer, subject) penalty and reward counters are contiguous
//! `[u64; B]` lane arrays, health vectors and syndrome rows are packed
//! `u64` bitmasks, and both the H-maj column vote and the Alg. 2 counter
//! update run as branch-free bulk loops over lanes (the per-lane "branches"
//! are 0/1 flags widened to all-ones masks and ANDed in, so the compiler
//! can auto-vectorize them).
//!
//! The work of a diagnosed round follows its accusations, not `N²`:
//!
//! * **Accused columns.** Every observer's matrix is the bus rows it
//!   accepted (shared by all observers) plus its own row, so one OR pass
//!   over the bus rows and the own rows finds every column that some row
//!   accuses in some live lane. Only those columns, and each observer's own
//!   column, are resolved. Any other column is a unanimous healthy vote:
//!   the observer's forced own row always votes on it.
//! * **Accuser sets.** For each accused column `j`, one pass over the bus
//!   rows packs the rows accusing `j` into a lane mask (bit `r` = row `r`
//!   says `j` is faulty), shared by all observers. An observer's count of
//!   votes against `j` is then the popcount of that mask, with its own row
//!   swapped in, under its present rows and without row `j`'s
//!   self-opinion.
//! * **Pending subjects.** Alg. 2 is the identity for a subject with a
//!   healthy verdict and no penalty, so the update runs only for subjects
//!   with a faulty verdict in some live lane or a penalty pending in some
//!   lane (a per-observer mask the update keeps).
//!
//! Dense traffic (every column accused) runs the same code with every
//! column selected.
//!
//! The batched protocol reproduces the scalar `DiagJob` byte for byte under
//! the scalar engine's standard configuration: schedule offset 0 for every
//! job (`l = 0`, `send_curr_round = true`), mixed send alignment
//! (`all_send_curr_round = false`, diagnosis lag 3), an accurate collision
//! detector, and [`crate::ReintegrationPolicy::Never`]. Per-lane state
//! divergence
//! (different fault schedules, thresholds, or experiment lengths) is the
//! point of batching; *configuration* divergence beyond the per-lane `P`/`R`
//! thresholds is not supported — reintegration, `all_send_curr_round`, and
//! per-cluster tracing/metrics remain scalar-only paths.
//!
//! Equivalence with the scalar path is enforced three ways: the unit tests
//! here compare every counter against a scalar [`crate::DiagJob`] run, the
//! workspace `batch_equivalence` proptest does the same over random fault
//! schedules and batch sizes, and `tt-fault`'s batched schedule evaluator
//! asserts fingerprint identity against the scalar explorer on the
//! committed regression corpus.

use std::hash::Hasher;

use tt_sim::{BatchLanes, Fnv1a64, LockstepJob, NodeId, RoundIndex};

use crate::protocol::{CounterSample, HealthRecord, IsolationEvent};
use crate::syndrome::bits;

/// Diagnosis lag of the supported (mixed-alignment) configuration: the
/// activation of round `k` diagnoses round `k - 3`.
const LAG: u64 = 3;

/// Per-lane protocol parameters: the tunable thresholds of Alg. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchLaneParams {
    /// Penalty threshold `P` (isolation on *exceeding* it).
    pub penalty_threshold: u64,
    /// Reward threshold `R` (forgiveness on *reaching* it).
    pub reward_threshold: u64,
}

/// The batched diagnostic protocol state of all `N` observers across all
/// `B` lanes (see the [module docs](self) for layout and semantics).
#[derive(Debug, Clone)]
pub struct BatchDiagJob {
    n: usize,
    b: usize,
    /// Criticality per subject (shared across lanes, like the scalar
    /// default configuration).
    crit: Vec<u64>,
    /// Per-lane penalty threshold `P`.
    pthresh: Vec<u64>,
    /// Per-lane reward threshold `R`.
    rthresh: Vec<u64>,
    /// Penalty counters: `[(i * n + j) * b + lane]` (observer `i` about
    /// subject `j`).
    pen: Vec<u64>,
    /// Reward counters, same layout.
    rew: Vec<u64>,
    /// The syndrome each observer transmits this round (= its aligned local
    /// syndrome of round `k - 1`): `[i * b + lane]`.
    row_tx: Vec<u64>,
    /// The observer's own diagnostic-matrix row (= what it transmitted in
    /// round `k - 1`, i.e. its aligned local syndrome of `k - 2`).
    row_prev: Vec<u64>,
    /// Isolation decisions per `[lane * n + observer]`.
    isolations: Vec<Vec<IsolationEvent>>,
    /// Forgiveness events per lane, summed over observers and subjects.
    fgv: Vec<u64>,
    record: bool,
    /// Health vectors per `[lane * n + observer]` (recording mode only).
    health_logs: Vec<Vec<HealthRecord>>,
    /// Counter samples per `[lane * n + observer]` (recording mode only).
    counter_logs: Vec<Vec<CounterSample>>,
    fingerprint: bool,
    /// Per-lane protocol-state fingerprints, one per diagnosed round, in
    /// the exact byte stream of the scalar explorer's state hash.
    fps: Vec<Vec<u64>>,
    /// Per-lane running hasher of the current round (scratch).
    hashers: Vec<Fnv1a64>,
    /// Per observer: the subjects with a nonzero penalty in some live lane
    /// where they are still active — where Alg. 2 is not the identity even
    /// on a healthy verdict. Kept by [`update`].
    pending: Vec<u64>,
    /// The columns some row accuses in some live lane, this round.
    accused: u64,
    /// Accuser sets per column, `[j * b + lane]`: bit `r` set = bus row `r`
    /// says subject `j` is faulty. Filled for the `accused` columns, zero
    /// for every other column.
    accusers: Vec<u64>,
    // Per-lane scratch arrays, allocated once.
    rp: Vec<u64>,
    pc: Vec<u32>,
    hv: Vec<u64>,
    coll: Vec<u64>,
    iso: Vec<u64>,
}

/// Observer `i`'s diagnostic matrix of one diagnosed round, across all
/// lanes: the inputs of its H-maj vote.
struct Matrix<'a> {
    i: usize,
    /// The observer's own row: what it sent itself, which replaces its
    /// bus row (a node always knows what it sent — Lemma 3).
    own: &'a [u64],
    /// Present rows per lane (bit `r` set = row `r` votes).
    present: &'a [u64],
    /// Number of present rows per lane.
    count: &'a [u32],
    /// The observer's collision detector of the diagnosed round per lane.
    coll: &'a [u64],
    /// The bus rows' accuser sets, `[j * b + lane]` (zero outside
    /// `accused`).
    accusers: &'a [u64],
    accused: u64,
    node_mask: u64,
}

/// H-maj votes every column of observer `i`'s matrix into `hv`: majority
/// over the present rows' opinions, excluding row `j` (the subject's
/// self-opinion); ties and empty columns default to healthy, except that
/// an undecidable own column falls back to the collision detector of the
/// diagnosed round (Alg. 1 line 14).
///
/// Only the accused columns and the own column are counted; every other
/// column is a unanimous healthy vote. Column `j`'s votes against are the
/// present rows other than `j` in its accuser set, with the observer's own
/// row in place of its bus row; it is healthy when they are at most half
/// of the votes cast.
///
/// Kept out of line, like [`update`]: as parameters, the `&mut` lane
/// arrays they write are known to alias nothing they read. Inlined into
/// `analyze`, which reaches the same arrays through `self`, the lane loops
/// of both compiled to scalar code, 2.6× slower per lane-round at N = 16
/// on an AVX-512 host.
#[inline(never)]
fn vote(hv: &mut [u64], m: &Matrix<'_>) {
    let b = hv.len();
    let (own, present, count, coll) = (&m.own[..b], &m.present[..b], &m.count[..b], &m.coll[..b]);
    hv.fill(m.node_mask);
    let own_bit = 1u64 << m.i;
    for j in bits(m.accused | own_bit) {
        let bit = 1u64 << j;
        let accusers = &m.accusers[j * b..j * b + b];
        let own_column = (j == m.i) as u64;
        for lane in 0..b {
            let rows = present[lane];
            let own_accuses = ((!own[lane] >> j) & 1) << m.i;
            let against = ((accusers[lane] & !own_bit) | own_accuses) & rows & !bit;
            let votes = count[lane] - ((rows >> j) & 1) as u32;
            let voted = (votes >= 2 * against.count_ones()) as u64;
            let undecidable = (votes == 0) as u64;
            // Undecidable is only reachable on the own column (the forced
            // own row votes on every other column).
            let fallback = (coll[lane] >> m.i) & 1 | (own_column ^ 1);
            let h = voted & (undecidable ^ 1) | (fallback & undecidable);
            hv[lane] = (hv[lane] & !bit) | (h << j);
        }
    }
}

/// Everything Alg. 2 reads for one observer, across all lanes.
struct UpdateInputs<'a> {
    /// The observer's activity row (bit `j` set = subject `j` active).
    active: &'a [u64],
    live: &'a [u64],
    /// The voted health vectors.
    hv: &'a [u64],
    /// Criticality per subject.
    crit: &'a [u64],
    pthresh: &'a [u64],
    rthresh: &'a [u64],
}

/// Alg. 2 for one observer, branch-free: penalties charge by criticality
/// on a faulty verdict, rewards accrue on healthy verdicts with a pending
/// penalty, reaching R forgives, exceeding P isolates (bit `j` of `iso`).
/// Retired lanes and already-isolated subjects mask out. `pen` and `rew`
/// are the observer's counters, `[j * b + lane]`.
///
/// Runs for the `subjects` mask only — the caller passes every subject for
/// which the update is not the identity — and keeps the observer's
/// `pending` mask current for them. Out of line for the reason given at
/// [`vote`].
#[inline(never)]
fn update(
    pen: &mut [u64],
    rew: &mut [u64],
    iso: &mut [u64],
    fgv: &mut [u64],
    pending: &mut u64,
    subjects: u64,
    v: &UpdateInputs<'_>,
) {
    let b = iso.len();
    let fgv = &mut fgv[..b];
    let (active, live, hv) = (&v.active[..b], &v.live[..b], &v.hv[..b]);
    let (pthresh, rthresh) = (&v.pthresh[..b], &v.rthresh[..b]);
    for j in bits(subjects) {
        let crit = v.crit[j];
        let pen = &mut pen[j * b..j * b + b];
        let rew = &mut rew[j * b..j * b + b];
        let mut still = 0u64;
        for lane in 0..b {
            let act = (active[lane] >> j) & live[lane];
            let hvj = (hv[lane] >> j) & 1;
            let pen0 = pen[lane];
            let rew0 = rew[lane];
            let faulty = act & (hvj ^ 1);
            let reward_step = act & hvj & (pen0 > 0) as u64;
            // 0/1 flags widened to all-ones masks: an AND is one cheap
            // vector op where a 64-bit multiply is not.
            let p1 = pen0 + (crit & 0u64.wrapping_sub(faulty));
            let r1 = (rew0 & 0u64.wrapping_sub(faulty ^ 1)) + reward_step;
            let forgive = reward_step & (r1 >= rthresh[lane]) as u64;
            let keep = 0u64.wrapping_sub(forgive ^ 1);
            pen[lane] = p1 & keep;
            rew[lane] = r1 & keep;
            fgv[lane] += forgive;
            let isolated = faulty & (p1 > pthresh[lane]) as u64;
            iso[lane] |= isolated << j;
            still |= (pen[lane] != 0) as u64 & act & (isolated ^ 1);
        }
        *pending = (*pending & !(1u64 << j)) | (still << j);
    }
}

impl BatchDiagJob {
    /// Creates the protocol state for `lanes.len()` lanes of `n` nodes with
    /// uniform criticality 1 (the scalar builder default). Health recording
    /// and fingerprinting start disabled — enable what the workload needs
    /// via [`BatchDiagJob::with_recording`] /
    /// [`BatchDiagJob::with_fingerprints`].
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside `2..=64` or `lanes` is empty.
    pub fn new(n: usize, lanes: &[BatchLaneParams]) -> Self {
        assert!(
            (2..=tt_sim::MAX_BATCH_NODES).contains(&n),
            "batched protocol supports 2..=64 nodes"
        );
        assert!(!lanes.is_empty(), "at least one lane");
        let b = lanes.len();
        let all_ok = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        BatchDiagJob {
            n,
            b,
            crit: vec![1; n],
            pthresh: lanes.iter().map(|l| l.penalty_threshold).collect(),
            rthresh: lanes.iter().map(|l| l.reward_threshold).collect(),
            pen: vec![0; n * n * b],
            rew: vec![0; n * n * b],
            // Round 0 transmits the initial all-ok syndrome, exactly like
            // the scalar alignment buffers' `prev_al_ls` seed.
            row_tx: vec![all_ok; n * b],
            row_prev: vec![0; n * b],
            isolations: vec![Vec::new(); n * b],
            fgv: vec![0; b],
            record: false,
            health_logs: vec![Vec::new(); n * b],
            counter_logs: vec![Vec::new(); n * b],
            fingerprint: false,
            fps: vec![Vec::new(); b],
            hashers: vec![Fnv1a64::new(); b],
            pending: vec![0; n],
            accused: 0,
            accusers: vec![0; n * b],
            rp: vec![0; b],
            pc: vec![0; b],
            hv: vec![0; b],
            coll: vec![0; b],
            iso: vec![0; b],
        }
    }

    /// Sets per-subject criticalities (shared by all lanes).
    ///
    /// # Panics
    ///
    /// Panics if `crit.len() != n`.
    pub fn with_criticalities(mut self, crit: Vec<u64>) -> Self {
        assert_eq!(crit.len(), self.n, "one criticality per node");
        self.crit = crit;
        self
    }

    /// Enables per-(lane, observer) health-vector and counter recording —
    /// the allocating inspection mode the equivalence tests compare against
    /// scalar [`crate::DiagJob`] logs.
    pub fn with_recording(mut self) -> Self {
        self.record = true;
        self
    }

    /// Enables per-lane protocol-state fingerprinting, reserving capacity
    /// for `rounds` rounds up front so steady-state rounds stay
    /// allocation-free.
    pub fn with_fingerprints(mut self, rounds: u64) -> Self {
        self.fingerprint = true;
        let cap = rounds.saturating_sub(LAG) as usize;
        for fp in &mut self.fps {
            fp.reserve_exact(cap);
        }
        self
    }

    /// Cluster size `N`.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Batch width `B`.
    pub fn batch(&self) -> usize {
        self.b
    }

    /// Observer `i`'s penalty counter about `subject` in `lane`.
    pub fn penalty(&self, lane: usize, i: usize, subject: usize) -> u64 {
        self.pen[(i * self.n + subject) * self.b + lane]
    }

    /// Observer `i`'s reward counter about `subject` in `lane`.
    pub fn reward(&self, lane: usize, i: usize, subject: usize) -> u64 {
        self.rew[(i * self.n + subject) * self.b + lane]
    }

    /// The isolation decisions observer `i` took in `lane`, in decision
    /// order (always tracked, in every mode).
    pub fn isolation_events(&self, lane: usize, i: usize) -> &[IsolationEvent] {
        &self.isolations[lane * self.n + i]
    }

    /// Forgiveness events in `lane` — every reward run reaching `R` and
    /// zeroing a pending penalty, summed over all observers and subjects
    /// (always tracked, in every mode).
    pub fn forgiveness(&self, lane: usize) -> u64 {
        self.fgv[lane]
    }

    /// Observer `i`'s health-vector log in `lane` (recording mode only;
    /// empty otherwise).
    pub fn health_log(&self, lane: usize, i: usize) -> &[HealthRecord] {
        &self.health_logs[lane * self.n + i]
    }

    /// Observer `i`'s counter-sample log in `lane` (recording mode only;
    /// empty otherwise).
    pub fn counter_trace(&self, lane: usize, i: usize) -> &[CounterSample] {
        &self.counter_logs[lane * self.n + i]
    }

    /// The per-round protocol-state fingerprints of `lane` (fingerprint
    /// mode only; empty otherwise). Byte-compatible with the scalar
    /// explorer's state hash: one FNV-1a of every observer's health vector
    /// and post-update counters per diagnosed round.
    pub fn fingerprints(&self, lane: usize) -> &[u64] {
        &self.fps[lane]
    }
}

impl LockstepJob for BatchDiagJob {
    fn execute(&mut self, lanes: &mut BatchLanes) {
        let n = self.n;
        let b = self.b;
        debug_assert_eq!(lanes.n_nodes(), n);
        debug_assert_eq!(lanes.batch(), b);
        let k = lanes.round();
        // Phase 2 (dissemination): every observer transmits its aligned
        // local syndrome of round k - 1 (send alignment chooses the
        // previous aligned syndrome for offset-0 schedules).
        for i in 0..n {
            let row = &self.row_tx[i * b..(i + 1) * b];
            lanes.tx_row_mut(i).copy_from_slice(row);
        }
        // Phases 4 & 5 (analysis + counter update) for diagnosed round
        // k - 3, once the pipeline is full.
        if k >= LAG {
            self.analyze(lanes, k);
        }
        // Alg. 1 lines 16-17 (commit): the syndrome transmitted this round
        // becomes next round's own matrix row, and the *current* validity
        // bits (= aligned local syndrome of this activation) become the next
        // transmission.
        std::mem::swap(&mut self.row_prev, &mut self.row_tx);
        for i in 0..n {
            let validity = &lanes.validity_row(i)[..b];
            let live = &lanes.live()[..b];
            let row = &mut self.row_tx[i * b..i * b + b];
            let prev = &self.row_prev[i * b..i * b + b];
            for lane in 0..b {
                let lv = live[lane];
                let keep = 0u64.wrapping_sub(lv ^ 1);
                // Live lanes take the fresh validity mask; retired lanes
                // keep the frozen rotation intact.
                row[lane] = (validity[lane] & !keep) | (prev[lane] & keep);
            }
        }
        // Un-swap the frozen lanes' row_prev: for them nothing rotates.
        // (Handled implicitly: row_prev of a frozen lane was its old
        // row_tx, but frozen lanes are never analyzed or transmitted again,
        // so their rotation state is unobservable.)
    }
}

impl BatchDiagJob {
    /// Finds this round's accused columns — the zero bits of every bus row
    /// and every own row, over the live lanes — and packs each one's
    /// accuser set from the bus rows, leaving every other column's set
    /// zero.
    fn find_accusers(&mut self, lanes: &BatchLanes) {
        let (n, b) = (self.n, self.b);
        let live = &lanes.live()[..b];
        let mut accused = 0u64;
        for r in 0..n {
            let bus = &lanes.bus_row(r)[..b];
            let own = &self.row_prev[r * b..r * b + b];
            for lane in 0..b {
                accused |= !(bus[lane] & own[lane]) & 0u64.wrapping_sub(live[lane]);
            }
        }
        accused &= lanes.node_mask();
        for j in bits(self.accused) {
            self.accusers[j * b..j * b + b].fill(0);
        }
        for j in bits(accused) {
            let set = &mut self.accusers[j * b..j * b + b];
            for r in 0..n {
                let bus = &lanes.bus_row(r)[..b];
                for (a, &x) in set.iter_mut().zip(bus) {
                    *a |= ((!x >> j) & 1) << r;
                }
            }
        }
        self.accused = accused;
    }

    /// H-maj votes every matrix column and applies Alg. 2, for every
    /// observer and lane, for diagnosed round `k - 3`.
    fn analyze(&mut self, lanes: &mut BatchLanes, k: u64) {
        let n = self.n;
        let b = self.b;
        let diagnosed = k - LAG;
        self.coll.copy_from_slice(lanes.collision_row(diagnosed));
        if self.fingerprint {
            self.hashers.fill(Fnv1a64::new());
        }
        self.find_accusers(lanes);
        let node_mask = lanes.node_mask();
        for i in 0..n {
            // Present matrix rows: validity ∧ ever-received, with the
            // observer's own row forced in (a node always knows what it
            // sent, even through a bus fault — Lemma 3).
            {
                let validity = &lanes.validity_row(i)[..b];
                let present = &lanes.present_row(i)[..b];
                let rps = &mut self.rp[..b];
                let pcs = &mut self.pc[..b];
                let own = 1u64 << i;
                for lane in 0..b {
                    let rp = (validity[lane] & present[lane]) | own;
                    rps[lane] = rp;
                    pcs[lane] = rp.count_ones();
                }
            }
            let m = Matrix {
                i,
                own: &self.row_prev[i * b..i * b + b],
                present: &self.rp[..b],
                count: &self.pc[..b],
                coll: &self.coll[..b],
                accusers: &self.accusers,
                accused: self.accused,
                node_mask,
            };
            vote(&mut self.hv[..b], &m);
            // Alg. 2 moves only the counters of subjects found faulty in a
            // live lane where they are active, or with a penalty pending.
            let active = &lanes.active_row(i)[..b];
            let live = &lanes.live()[..b];
            let hv = &self.hv[..b];
            let mut faulty = 0u64;
            for lane in 0..b {
                faulty |= !hv[lane] & active[lane] & 0u64.wrapping_sub(live[lane]);
            }
            let subjects = (faulty & node_mask) | self.pending[i];
            if subjects != 0 {
                self.iso[..b].fill(0);
                let counters = i * n * b..(i + 1) * n * b;
                update(
                    &mut self.pen[counters.clone()],
                    &mut self.rew[counters],
                    &mut self.iso[..b],
                    &mut self.fgv[..b],
                    &mut self.pending[i],
                    subjects,
                    &UpdateInputs {
                        active: lanes.active_row(i),
                        live: lanes.live(),
                        hv: &self.hv[..b],
                        crit: &self.crit,
                        pthresh: &self.pthresh,
                        rthresh: &self.rthresh,
                    },
                );
                // Isolation decisions: clear the observer's activity bits
                // and record the events (node order, like the scalar
                // newly-isolated sweep). Rare, so a per-lane branch on the
                // zero mask is fine.
                for lane in 0..b {
                    for j in bits(self.iso[lane]) {
                        lanes.isolate(i, j, lane);
                        self.isolations[lane * n + i].push(IsolationEvent {
                            node: NodeId::from_slot(j),
                            decided_at: RoundIndex::new(k),
                            diagnosed: RoundIndex::new(diagnosed),
                        });
                    }
                }
            }
            if self.record {
                for lane in 0..b {
                    if lanes.live()[lane] == 0 {
                        continue;
                    }
                    let slot = lane * n + i;
                    self.health_logs[slot].push(HealthRecord {
                        diagnosed: RoundIndex::new(diagnosed),
                        decided_at: RoundIndex::new(k),
                        health: (0..n).map(|j| (self.hv[lane] >> j) & 1 == 1).collect(),
                    });
                    let base = i * n * b;
                    self.counter_logs[slot].push(CounterSample {
                        diagnosed: RoundIndex::new(diagnosed),
                        penalties: (0..n).map(|j| self.pen[base + j * b + lane]).collect(),
                        rewards: (0..n).map(|j| self.rew[base + j * b + lane]).collect(),
                    });
                }
            }
            if self.fingerprint {
                // The scalar state-hash byte stream, per observer: a
                // present marker, the health vector, then the post-update
                // penalty and reward counters (little endian). Retired
                // lanes' hashers run on garbage and are never finished.
                // Lane-inner order keeps the per-lane FNV dependency chains
                // interleaved, hiding the multiply latency.
                let hashers = &mut self.hashers[..b];
                for h in hashers.iter_mut() {
                    h.write(&[1]);
                }
                let hv = &self.hv[..b];
                for j in 0..n {
                    for (h, v) in hashers.iter_mut().zip(hv) {
                        h.write(&[((v >> j) & 1) as u8]);
                    }
                }
                for j in 0..n {
                    let base = (i * n + j) * b;
                    let pen = &self.pen[base..base + b];
                    for (h, p) in hashers.iter_mut().zip(pen) {
                        h.write(&p.to_le_bytes());
                    }
                }
                for j in 0..n {
                    let base = (i * n + j) * b;
                    let rew = &self.rew[base..base + b];
                    for (h, r) in hashers.iter_mut().zip(rew) {
                        h.write(&r.to_le_bytes());
                    }
                }
            }
        }
        if self.fingerprint {
            let live = &lanes.live()[..b];
            for (lane, &lv) in live.iter().enumerate() {
                if lv == 1 {
                    self.fps[lane].push(self.hashers[lane].finish());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiagJob, ProtocolConfig};
    use tt_sim::{
        BatchCluster, BatchFaultPlan, Cluster, ClusterBuilder, LaneEffect, LaneFault, SlotEffect,
        TxCtx,
    };

    type ScalarPipeline = Box<dyn FnMut(&TxCtx) -> SlotEffect + Send>;

    fn scalar_cluster(
        n: usize,
        p: u64,
        r: u64,
        pipeline: impl FnMut(&TxCtx) -> SlotEffect + Send + 'static,
    ) -> Cluster {
        let cfg = ProtocolConfig::builder(n)
            .penalty_threshold(p)
            .reward_threshold(r)
            .build()
            .expect("valid config");
        ClusterBuilder::new(n).build_with_jobs(
            move |id| Box::new(DiagJob::new(id, cfg.clone()).with_counter_trace()),
            Box::new(pipeline),
        )
    }

    /// Asserts lane `lane` of the batched run matches the scalar cluster's
    /// protocol state exactly: health vectors, counter samples, isolation
    /// events, counters and activity.
    fn assert_lane_matches(job: &BatchDiagJob, cluster: &Cluster, lane: usize) {
        let n = job.n_nodes();
        for i in 0..n {
            let scalar: &DiagJob = cluster
                .job_as(tt_sim::NodeId::from_slot(i))
                .expect("diag job");
            assert_eq!(
                job.health_log(lane, i),
                scalar.health_log(),
                "health log of observer {i}"
            );
            assert_eq!(
                job.counter_trace(lane, i),
                scalar.counter_trace(),
                "counter trace of observer {i}"
            );
            assert_eq!(
                job.isolation_events(lane, i),
                scalar.isolations(),
                "isolations of observer {i}"
            );
            for j in 0..n {
                let node = tt_sim::NodeId::from_slot(j);
                assert_eq!(job.penalty(lane, i, j), scalar.penalty(node));
                assert_eq!(job.reward(lane, i, j), scalar.reward(node));
            }
        }
    }

    #[test]
    fn healthy_batch_matches_scalar() {
        let mut batch = BatchCluster::new(5, vec![BatchFaultPlan::correct(); 3]).unwrap();
        let mut job = BatchDiagJob::new(
            5,
            &[BatchLaneParams {
                penalty_threshold: 3,
                reward_threshold: 2,
            }; 3],
        )
        .with_recording();
        batch.run_rounds(20, &mut job);
        let mut scalar = scalar_cluster(5, 3, 2, |_| SlotEffect::Correct);
        scalar.run_rounds(20);
        for lane in 0..3 {
            assert_lane_matches(&job, &scalar, lane);
        }
        // Steady state: everybody healthy, no counters moving.
        assert!(job
            .health_log(0, 0)
            .iter()
            .all(|h| h.health.iter().all(|&x| x)));
        assert_eq!(job.health_log(0, 0).len(), 17, "rounds - lag records");
    }

    #[test]
    fn benign_crash_isolates_in_lockstep_with_scalar() {
        let plan = BatchFaultPlan::new(vec![LaneFault {
            slot: 2,
            first_round: 5,
            hits: u64::MAX,
            stride: 1,
            effect: LaneEffect::Benign,
        }]);
        let mut batch = BatchCluster::new(4, vec![plan]).unwrap();
        let mut job = BatchDiagJob::new(
            4,
            &[BatchLaneParams {
                penalty_threshold: 3,
                reward_threshold: 10,
            }],
        )
        .with_recording();
        batch.run_rounds(20, &mut job);
        let mut scalar = scalar_cluster(4, 3, 10, |ctx: &TxCtx| {
            if ctx.sender.index() == 2 && ctx.round.as_u64() >= 5 {
                SlotEffect::Benign
            } else {
                SlotEffect::Correct
            }
        });
        scalar.run_rounds(20);
        assert_lane_matches(&job, &scalar, 0);
        assert_eq!(job.isolation_events(0, 0).len(), 1, "node 3 isolated");
    }

    #[test]
    fn transient_and_malicious_faults_match_scalar() {
        let accuse_all_but_sender = 0b0010u64; // only node 2 claimed ok
        let plans = vec![
            BatchFaultPlan::new(vec![LaneFault {
                slot: 1,
                first_round: 6,
                hits: 3,
                stride: 2,
                effect: LaneEffect::Benign,
            }]),
            BatchFaultPlan::new(vec![LaneFault {
                slot: 1,
                first_round: 6,
                hits: 2,
                stride: 1,
                effect: LaneEffect::Malicious {
                    mask: accuse_all_but_sender,
                },
            }]),
            BatchFaultPlan::new(vec![LaneFault {
                slot: 3,
                first_round: 7,
                hits: 4,
                stride: 1,
                effect: LaneEffect::Asymmetric {
                    detected_by: 0b0011,
                    collision_ok: true,
                },
            }]),
        ];
        let mut batch = BatchCluster::new(4, plans).unwrap();
        let params = BatchLaneParams {
            penalty_threshold: 2,
            reward_threshold: 3,
        };
        let mut job = BatchDiagJob::new(4, &[params; 3]).with_recording();
        batch.run_rounds(24, &mut job);

        let scalars: Vec<ScalarPipeline> = vec![
            Box::new(|ctx: &TxCtx| {
                let r = ctx.round.as_u64();
                if ctx.sender.index() == 1 && r >= 6 && (r - 6).is_multiple_of(2) && (r - 6) / 2 < 3
                {
                    SlotEffect::Benign
                } else {
                    SlotEffect::Correct
                }
            }),
            Box::new(move |ctx: &TxCtx| {
                let r = ctx.round.as_u64();
                if ctx.sender.index() == 1 && (6..8).contains(&r) {
                    SlotEffect::SymmetricMalicious {
                        payload: bytes::Bytes::from(vec![accuse_all_but_sender as u8]),
                    }
                } else {
                    SlotEffect::Correct
                }
            }),
            Box::new(|ctx: &TxCtx| {
                let r = ctx.round.as_u64();
                if ctx.sender.index() == 3 && (7..11).contains(&r) {
                    SlotEffect::Asymmetric {
                        detected_by: vec![0, 1],
                        collision_ok: true,
                    }
                } else {
                    SlotEffect::Correct
                }
            }),
        ];
        for (lane, pipeline) in scalars.into_iter().enumerate() {
            let mut scalar = scalar_cluster(4, 2, 3, pipeline);
            scalar.run_rounds(24);
            assert_lane_matches(&job, &scalar, lane);
        }
    }

    #[test]
    fn wide_column_verdict_flips_at_the_majority_boundary() {
        // N = 16: subject 12 sits in the second syndrome byte. One
        // asymmetric fault on its slot is detected by 7 of its 15
        // receivers in lane 0 (8 of 15 ok votes: healthy) and by 8 in
        // lane 1 (7 of 15: faulty). The detectors span both bytes.
        let (n, sender, round) = (16, 12, 6);
        let receivers: Vec<usize> = (0..n).filter(|&r| r != sender).step_by(2).collect();
        let detectors = [&receivers[..7], &receivers[..8]];
        let plans = detectors
            .iter()
            .map(|d| {
                BatchFaultPlan::new(vec![LaneFault {
                    slot: sender,
                    first_round: round,
                    hits: 1,
                    stride: 1,
                    effect: LaneEffect::Asymmetric {
                        detected_by: d.iter().map(|&r| 1u64 << r).sum(),
                        collision_ok: true,
                    },
                }])
            })
            .collect();
        let params = BatchLaneParams {
            penalty_threshold: 10,
            reward_threshold: 10,
        };
        let mut batch = BatchCluster::new(n, plans).unwrap();
        let mut job = BatchDiagJob::new(n, &[params; 2]).with_recording();
        batch.run_rounds(16, &mut job);
        for (lane, d) in detectors.into_iter().enumerate() {
            let detected_by = d.to_vec();
            let mut scalar = scalar_cluster(n, 10, 10, move |ctx: &TxCtx| {
                if ctx.sender.index() == sender && ctx.round.as_u64() == round {
                    SlotEffect::Asymmetric {
                        detected_by: detected_by.clone(),
                        collision_ok: true,
                    }
                } else {
                    SlotEffect::Correct
                }
            });
            scalar.run_rounds(16);
            assert_lane_matches(&job, &scalar, lane);
            for i in 0..n {
                let verdict = job
                    .health_log(lane, i)
                    .iter()
                    .find(|h| h.diagnosed == RoundIndex::new(round))
                    .expect("the faulty round is diagnosed");
                assert_eq!(
                    verdict.health[sender],
                    lane == 0,
                    "observer {i}, lane {lane}"
                );
                assert_eq!(job.penalty(lane, i, sender), lane as u64, "observer {i}");
            }
        }
    }

    #[test]
    fn per_lane_thresholds_diverge_independently() {
        // Same persistent fault in both lanes; lane 0's low P isolates
        // early, lane 1's high P never does.
        let plan = BatchFaultPlan::new(vec![LaneFault {
            slot: 0,
            first_round: 4,
            hits: u64::MAX,
            stride: 1,
            effect: LaneEffect::Benign,
        }]);
        let mut batch = BatchCluster::new(4, vec![plan.clone(), plan]).unwrap();
        let mut job = BatchDiagJob::new(
            4,
            &[
                BatchLaneParams {
                    penalty_threshold: 2,
                    reward_threshold: 5,
                },
                BatchLaneParams {
                    penalty_threshold: 1_000_000,
                    reward_threshold: 5,
                },
            ],
        );
        batch.run_rounds(30, &mut job);
        assert_eq!(job.isolation_events(0, 1).len(), 1, "lane 0 isolates");
        assert!(job.isolation_events(1, 1).is_empty(), "lane 1 tolerates");
        assert!(job.penalty(1, 1, 0) > job.penalty(0, 1, 0));
    }

    #[test]
    fn fingerprints_are_deterministic_and_lane_local() {
        let plan = BatchFaultPlan::new(vec![LaneFault {
            slot: 1,
            first_round: 5,
            hits: 2,
            stride: 1,
            effect: LaneEffect::Benign,
        }]);
        let params = BatchLaneParams {
            penalty_threshold: 3,
            reward_threshold: 2,
        };
        let run = |plans: Vec<BatchFaultPlan>| {
            let b = plans.len();
            let mut batch = BatchCluster::new(4, plans).unwrap();
            let mut job = BatchDiagJob::new(4, &vec![params; b]).with_fingerprints(16);
            batch.run_rounds(16, &mut job);
            (0..b)
                .map(|l| job.fingerprints(l).to_vec())
                .collect::<Vec<_>>()
        };
        let a = run(vec![BatchFaultPlan::correct(), plan.clone()]);
        let b = run(vec![plan.clone(), BatchFaultPlan::correct(), plan]);
        assert_eq!(a[0], b[1], "fault-free lanes agree regardless of batch");
        assert_eq!(a[1], b[0], "faulty lanes agree regardless of position");
        assert_eq!(a[1], b[2], "duplicate plans agree");
        assert_ne!(a[0], a[1], "the fault changes the state trajectory");
        assert_eq!(a[0].len(), 13, "one fingerprint per diagnosed round");
    }

    #[test]
    fn recording_off_tracks_isolations_anyway() {
        let plan = BatchFaultPlan::new(vec![LaneFault {
            slot: 2,
            first_round: 4,
            hits: u64::MAX,
            stride: 1,
            effect: LaneEffect::Benign,
        }]);
        let mut batch = BatchCluster::new(4, vec![plan]).unwrap();
        let mut job = BatchDiagJob::new(
            4,
            &[BatchLaneParams {
                penalty_threshold: 1,
                reward_threshold: 5,
            }],
        );
        batch.run_rounds(16, &mut job);
        assert!(job.health_log(0, 0).is_empty(), "recording off");
        assert!(job.counter_trace(0, 0).is_empty());
        assert_eq!(job.isolation_events(0, 0).len(), 1);
        assert_eq!(
            job.isolation_events(0, 0)[0].node,
            tt_sim::NodeId::from_slot(2)
        );
    }

    #[test]
    fn criticalities_weight_penalties() {
        let plan = BatchFaultPlan::new(vec![LaneFault {
            slot: 0,
            first_round: 4,
            hits: 1,
            stride: 1,
            effect: LaneEffect::Benign,
        }]);
        let mut batch = BatchCluster::new(4, vec![plan]).unwrap();
        let mut job = BatchDiagJob::new(
            4,
            &[BatchLaneParams {
                penalty_threshold: 1_000_000,
                reward_threshold: 1_000_000,
            }],
        )
        .with_criticalities(vec![40, 6, 1, 1]);
        batch.run_rounds(10, &mut job);
        assert_eq!(job.penalty(0, 1, 0), 40, "criticality-40 charge");
    }
}
