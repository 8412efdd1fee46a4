//! The low-latency system-level variant (paper Sec. 10).
//!
//! The add-on protocol trades latency for portability: it constrains
//! nothing about node scheduling and pays up to four rounds of detection
//! latency. The paper sketches a **system-level variant** that constrains
//! the internal node scheduling instead: every node observes each slot as
//! it happens, appends its local syndrome (its opinions on the last `N`
//! slots) to every message it sends, and runs the analysis *right after
//! each slot*, diagnosing a single previous slot. One TDMA round after a
//! slot, all local syndromes needed to diagnose it are collected —
//! **detection latency: one round**; two chained executions implement the
//! membership function in **two rounds**.
//!
//! Because this variant lives below the application (in the communication
//! controller / system layer), it is modelled here with its own
//! slot-granular driver ([`LowLatCluster`]) that reuses the simulator's bus
//! semantics ([`tt_sim::apply_effect_into`]) rather than the once-per-round
//! job model.
//!
//! Frame format: each message carries `2N` bits in `2·⌈N/8⌉` bytes — the
//! **window** (opinions on the `N` slots preceding the sending slot), then
//! the **accusation vector** (minority accusations derived from recently
//! completed verdicts), each packed like a [`Syndrome`] with bit 0 =
//! faulty / accused — giving the 2-round membership composition.
//!
//! Each node's state is sized from `N` when the cluster is built: rings of
//! the last `N + 1` slots' observations and vote tables, and accusations as
//! bit masks, so clusters are bounded by the 64-bit mask width.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use tt_sim::{
    apply_effect_into, FaultPipeline, NodeId, Reception, RoundIndex, SlotFaultClass, SlotOutcome,
    TxCtx,
};

use crate::syndrome::{bits, Syndrome, MAX_SYNDROME_NODES};
use crate::voting::{h_maj_counts, HMaj};

/// A per-slot diagnosis produced by the low-latency variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotVerdict {
    /// Absolute slot index of the diagnosed slot.
    pub abs_slot: u64,
    /// Round containing the diagnosed slot.
    pub round: RoundIndex,
    /// The sender owning the diagnosed slot.
    pub sender: NodeId,
    /// Agreed health of the sender in that slot.
    pub healthy: bool,
    /// Absolute slot index at which the verdict was available.
    pub decided_at_slot: u64,
}

impl SlotVerdict {
    /// Detection latency of this verdict, in slots.
    pub fn latency_slots(&self) -> u64 {
        self.decided_at_slot - self.abs_slot
    }
}

/// The votes on one diagnosed slot as reconstructed at one node: bit `j`
/// of `ok` (`faulty`) is set once node `j`'s opinion on the slot arrived
/// saying correct (faulty). Neither bit set means ε: the frame carrying
/// the opinion was locally detected faulty (or, before decision time, has
/// not arrived yet).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct VoteTable {
    ok: u64,
    faulty: u64,
}

/// The mask of an `n`-node cluster: one bit per node.
fn all_nodes(n: usize) -> u64 {
    u64::MAX >> (64 - n)
}

/// The per-node state of the low-latency protocol.
///
/// Every buffer is sized from `N` at construction: slot `a`'s observation
/// and vote table live at `a % (N + 1)` of their rings (the `N` slots
/// awaiting diagnosis plus the current one), and accusations are masks, so
/// receiving a slot allocates nothing. Only a built frame's `Bytes`, the
/// verdict log and the view log allocate.
#[derive(Debug, Clone)]
struct LowLatNode {
    index: usize,
    n: usize,
    /// Own local observations of the last `N + 1` slots.
    observed: Vec<bool>,
    /// Vote tables of the last `N + 1` slots.
    votes: Vec<VoteTable>,
    /// Per sender: the absolute slot of its latest frame, and that frame's
    /// accusations (bit `x` set = node `x` accused), or `None` (ε) when the
    /// frame was locally detected faulty.
    last_acc: Vec<Option<(u64, Option<u64>)>>,
    /// Own accusations: node `x` is accused in every frame this node builds
    /// before slot `acc_until[x]` (0 = never accused).
    acc_until: Vec<u64>,
    /// Completed verdicts, in strictly increasing slot order.
    verdicts: Vec<SlotVerdict>,
    /// Membership: bit `x` set while node `x` has never been excluded.
    in_view: u64,
    /// View history: (installed at absolute slot, surviving members).
    view_log: Vec<(u64, Vec<NodeId>)>,
    membership: bool,
}

impl LowLatNode {
    fn new(index: usize, n: usize, membership: bool) -> Self {
        LowLatNode {
            index,
            n,
            observed: vec![true; n + 1],
            votes: vec![VoteTable::default(); n + 1],
            last_acc: vec![None; n],
            acc_until: vec![0; n],
            verdicts: Vec::new(),
            in_view: all_nodes(n),
            view_log: Vec::new(),
            membership,
        }
    }

    /// The ring position of absolute slot `a`.
    fn ring(&self, a: u64) -> usize {
        (a % (self.n as u64 + 1)) as usize
    }

    /// Builds the payload for this node's own sending slot at `abs`:
    /// window (opinions on slots `abs-N .. abs-1`) + accusation vector,
    /// each packed like a [`Syndrome`] (`⌈N/8⌉` bytes, bit 0 = faulty /
    /// accused).
    fn build_frame(&self, abs: u64) -> Bytes {
        let n = self.n as u64;
        let mut window = 0u64;
        for t in 0..n {
            // Before the start of time a slot is vacuously correct.
            let ok = (abs + t)
                .checked_sub(n)
                .is_none_or(|slot| self.observed[self.ring(slot)]);
            window |= u64::from(ok) << t;
        }
        let mut unaccused = 0u64;
        for (x, &until) in self.acc_until.iter().enumerate() {
            unaccused |= u64::from(abs >= until) << x;
        }
        let w_len = self.n.div_ceil(8);
        let mut frame = [0u8; 2 * MAX_SYNDROME_NODES / 8];
        for i in 0..w_len {
            frame[i] = (window >> (8 * i)) as u8;
            frame[w_len + i] = (unaccused >> (8 * i)) as u8;
        }
        Bytes::copy_from_slice(&frame[..2 * w_len])
    }

    /// Splits a received frame into (window, accused) masks. Decoding is
    /// total, like [`Syndrome::decode`]: missing bytes read as zeros.
    fn decode_frame(&self, payload: &[u8]) -> (u64, u64) {
        let w_len = self.n.div_ceil(8);
        let window = Syndrome::decode(payload, self.n).bits();
        let acc_bytes = payload.get(w_len..).unwrap_or(&[]);
        let unaccused = Syndrome::decode(acc_bytes, self.n).bits();
        (window, !unaccused & all_nodes(self.n))
    }

    /// Processes the delivery of slot `abs` (sender index `s`).
    /// `validity` is this node's local view (collision detector for its own
    /// slot); `payload` is present iff the frame passed local detection.
    fn on_slot(&mut self, abs: u64, s: usize, validity: bool, payload: Option<&[u8]>) {
        let n = self.n as u64;
        let slot = self.ring(abs);
        // 1. Record the local observation (our own future window) and, in
        //    the table the ring slot now holds, our own vote on this slot.
        self.observed[slot] = validity;
        let own = 1u64 << self.index;
        self.votes[slot] = if validity {
            VoteTable { ok: own, faulty: 0 }
        } else {
            VoteTable { ok: 0, faulty: own }
        };
        // 2. Extract the sender's window votes and accusation vector. An ε
        //    frame leaves the sender's bits clear in every covered table.
        match payload {
            Some(p) => {
                let (window, accused) = self.decode_frame(p);
                // Keep our own locally recorded opinion authoritative.
                if s != self.index {
                    let voter = 1u64 << s;
                    for t in 0..n {
                        if let Some(covered) = (abs + t).checked_sub(n) {
                            let i = self.ring(covered);
                            let table = &mut self.votes[i];
                            if window >> t & 1 == 1 {
                                table.ok |= voter;
                            } else {
                                table.faulty |= voter;
                            }
                        }
                    }
                }
                self.last_acc[s] = Some((abs, Some(accused)));
            }
            None => self.last_acc[s] = Some((abs, None)),
        }
        // 3. One full round after a slot, every opinion on it has arrived:
        //    decide it.
        if let Some(diagnosed) = abs.checked_sub(n) {
            self.decide(diagnosed, abs);
        }
        // 4. Membership: evaluate accusation majorities.
        if self.membership {
            self.evaluate_accusations(abs);
        }
    }

    /// Analysis for diagnosed slot `a`, executed right after slot `now`.
    fn decide(&mut self, a: u64, now: u64) {
        let n = self.n as u64;
        assert!(
            self.verdicts.last().is_none_or(|v| v.abs_slot < a),
            "slot {a} decided out of order"
        );
        let table = self.votes[self.ring(a)];
        let sender = (a % n) as usize;
        let electorate = !(1u64 << sender);
        let ok = u64::from((table.ok & electorate).count_ones());
        let faulty = u64::from((table.faulty & electorate).count_ones());
        let healthy = match h_maj_counts(ok, faulty) {
            HMaj::Decided(v) => v,
            HMaj::Undecidable => {
                // Blackout fallback: self-diagnosis via the collision
                // detector observation; others default to healthy.
                if sender == self.index {
                    self.observed[self.ring(a)]
                } else {
                    true
                }
            }
        };
        self.verdicts.push(SlotVerdict {
            abs_slot: a,
            round: RoundIndex::new(a / n),
            sender: NodeId::from_slot(sender),
            healthy,
            decided_at_slot: now,
        });
        if self.membership {
            if !healthy && self.in_view & (1 << sender) != 0 {
                self.exclude(sender, now);
            }
            // Minority accusations: any node whose (non-ε) vote disagreed
            // with the verdict diverges from the agreed state. Carry the
            // accusation long enough to be seen in our next frame by
            // everyone: in every frame of the next two rounds.
            let dissent = if healthy { table.faulty } else { table.ok };
            for x in bits(dissent & electorate & !(1 << self.index)) {
                self.acc_until[x] = now + 2 * n + 1;
            }
        }
    }

    /// Excludes a node from the local view and logs the new view.
    fn exclude(&mut self, x: usize, now: u64) {
        self.in_view &= !(1 << x);
        let members = bits(self.in_view).map(NodeId::from_slot).collect();
        self.view_log.push((now, members));
    }

    /// Votes accusation vectors: a member accused by the hybrid majority of
    /// the other nodes' freshest frames is excluded.
    fn evaluate_accusations(&mut self, now: u64) {
        let n = self.n as u64;
        // The senders whose frame of the last round passed detection vote;
        // only a member one of them accuses can lose the vote.
        let mut voters = 0u64;
        let mut accused = 0u64;
        for (j, last) in self.last_acc.iter().enumerate() {
            if let Some((at, Some(acc))) = *last {
                if now - at < n {
                    voters |= 1 << j;
                    accused |= acc;
                }
            }
        }
        for x in bits(accused & self.in_view) {
            let electorate = voters & !(1 << x);
            let faulty: u64 = bits(electorate)
                .map(|j| match self.last_acc[j] {
                    Some((_, Some(acc))) => acc >> x & 1,
                    _ => 0,
                })
                .sum();
            let ok = u64::from(electorate.count_ones()) - faulty;
            if h_maj_counts(ok, faulty) == HMaj::Decided(false) {
                self.exclude(x, now);
            }
        }
    }
}

/// A self-contained slot-granular cluster running the low-latency variant.
///
/// ```
/// use tt_core::lowlat::LowLatCluster;
/// use tt_sim::{NodeId, RoundIndex, SlotEffect, TxCtx};
///
/// // Node 2's slot in round 3 is benign faulty.
/// let pipeline = |ctx: &TxCtx| {
///     if ctx.round == RoundIndex::new(3) && ctx.sender == NodeId::new(2) {
///         SlotEffect::Benign
///     } else {
///         SlotEffect::Correct
///     }
/// };
/// let mut cluster = LowLatCluster::new(4, false, Box::new(pipeline));
/// cluster.run_rounds(6);
/// let v = cluster
///     .verdict_for(NodeId::new(1), RoundIndex::new(3), NodeId::new(2))
///     .expect("diagnosed");
/// assert!(!v.healthy);
/// assert_eq!(v.latency_slots(), 4, "one TDMA round of latency");
/// ```
pub struct LowLatCluster {
    n: usize,
    nodes: Vec<LowLatNode>,
    pipeline: Box<dyn FaultPipeline>,
    abs: u64,
    /// The bus outcome of the current slot, refilled in place every slot.
    outcome: SlotOutcome,
    /// Ground truth per absolute slot (class of the applied effect), for
    /// the validation oracles; the protocol never reads it.
    ground_truth: Vec<SlotFaultClass>,
}

impl std::fmt::Debug for LowLatCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LowLatCluster")
            .field("n", &self.n)
            .field("abs_slot", &self.abs)
            .finish()
    }
}

impl LowLatCluster {
    /// Creates an `n`-node low-latency cluster. With `membership = true`
    /// the 2-round membership composition (accusation vectors and views) is
    /// active.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n <=` [`MAX_SYNDROME_NODES`]: each node keeps
    /// its votes and accusations as one bit per node in a 64-bit mask.
    pub fn new(n: usize, membership: bool, pipeline: Box<dyn FaultPipeline>) -> Self {
        assert!(
            (1..=MAX_SYNDROME_NODES).contains(&n),
            "a low-latency cluster has 1..={MAX_SYNDROME_NODES} nodes, got {n}"
        );
        LowLatCluster {
            n,
            nodes: (0..n).map(|i| LowLatNode::new(i, n, membership)).collect(),
            pipeline,
            abs: 0,
            outcome: SlotOutcome::with_capacity(n),
            ground_truth: Vec::new(),
        }
    }

    /// Executes one sending slot.
    pub fn run_slot(&mut self) {
        let abs = self.abs;
        let n = self.n;
        let s = (abs % n as u64) as usize;
        let sender = NodeId::from_slot(s);
        let payload = self.nodes[s].build_frame(abs);
        let ctx = TxCtx {
            round: RoundIndex::new(abs / n as u64),
            sender,
            n_nodes: n,
            abs_slot: abs,
        };
        let effect = self.pipeline.effect(&ctx);
        let outcome = &mut self.outcome;
        apply_effect_into(&effect, &ctx, &payload, outcome);
        self.ground_truth.push(outcome.class);
        for (rx, (node, reception)) in self.nodes.iter_mut().zip(&outcome.receptions).enumerate() {
            if rx == s {
                // The sender observes its own slot via collision detection
                // and processes its own (locally known) frame content.
                node.on_slot(abs, s, outcome.collision_ok, Some(&payload));
            } else {
                match reception {
                    Reception::Valid(p) => node.on_slot(abs, s, true, Some(p)),
                    Reception::Detected => node.on_slot(abs, s, false, None),
                }
            }
        }
        self.abs += 1;
    }

    /// Executes `rounds` full TDMA rounds.
    pub fn run_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds * self.n as u64 {
            self.run_slot();
        }
    }

    /// All verdicts computed by `node`, in decision order.
    pub fn verdicts(&self, node: NodeId) -> &[SlotVerdict] {
        &self.nodes[node.index()].verdicts
    }

    /// The verdict of `node` on `sender`'s slot in `round`, if decided.
    pub fn verdict_for(
        &self,
        node: NodeId,
        round: RoundIndex,
        sender: NodeId,
    ) -> Option<&SlotVerdict> {
        let abs = round.as_u64() * self.n as u64 + sender.slot() as u64;
        self.verdict_at(node, abs)
    }

    /// The verdict of `node` on absolute slot `abs`, if decided: a binary
    /// search, since verdicts are decided in strictly increasing slot order.
    pub fn verdict_at(&self, node: NodeId, abs: u64) -> Option<&SlotVerdict> {
        let verdicts = &self.nodes[node.index()].verdicts;
        verdicts
            .binary_search_by_key(&abs, |v| v.abs_slot)
            .ok()
            .map(|i| &verdicts[i])
    }

    /// The current membership view at `node` (all nodes if membership mode
    /// is off).
    pub fn view(&self, node: NodeId) -> Vec<NodeId> {
        bits(self.nodes[node.index()].in_view)
            .map(NodeId::from_slot)
            .collect()
    }

    /// View changes recorded at `node`: (absolute slot, surviving members).
    pub fn view_log(&self, node: NodeId) -> &[(u64, Vec<NodeId>)] {
        &self.nodes[node.index()].view_log
    }

    /// Ground-truth fault class of `abs_slot` (recorded by the driver; the
    /// protocol never reads it).
    pub fn ground_truth(&self, abs_slot: u64) -> Option<SlotFaultClass> {
        self.ground_truth.get(abs_slot as usize).copied()
    }

    /// Validates the variant's verdicts against the ground truth, mirroring
    /// Theorem 1's properties at slot granularity:
    ///
    /// * every decided slot's verdicts are identical across all nodes
    ///   (consistency);
    /// * benign slots are convicted (completeness) and correct slots
    ///   acquitted (correctness) whenever the slot's *vote-collection
    ///   round* (the N slots after it) contains only benign or correct
    ///   slots — the per-slot analogue of the Lemma 2/3 hypotheses.
    ///
    /// Returns human-readable violations (empty = all properties held).
    pub fn check_properties(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let n = self.n as u64;
        let decided = self.ground_truth.len() as u64;
        for a in 0..decided.saturating_sub(n) {
            let sender = NodeId::from_slot((a % n) as usize);
            let reference = match self.verdict_at(NodeId::new(1), a).map(|v| v.healthy) {
                Some(v) => v,
                None => {
                    violations.push(format!("slot {a}: node 1 has no verdict"));
                    continue;
                }
            };
            for id in NodeId::all(self.n).skip(1) {
                match self.verdict_at(id, a).map(|v| v.healthy) {
                    Some(v) if v == reference => {}
                    Some(_) => violations.push(format!("slot {a}: {id} disagrees")),
                    None => violations.push(format!("slot {a}: {id} has no verdict")),
                }
            }
            // Hypothesis: only benign/correct slots in the collection round.
            let in_hypothesis = (a..=a + n).all(|s| {
                matches!(
                    self.ground_truth.get(s as usize),
                    Some(SlotFaultClass::Correct) | Some(SlotFaultClass::Benign) | None
                )
            });
            if !in_hypothesis {
                continue;
            }
            match self.ground_truth[a as usize] {
                SlotFaultClass::Correct if !reference => {
                    violations.push(format!("slot {a}: correct {sender} convicted"))
                }
                SlotFaultClass::Benign if reference => {
                    violations.push(format!("slot {a}: benign {sender} acquitted"))
                }
                _ => {}
            }
        }
        violations
    }

    /// Whether the 2-round membership composition is active.
    pub fn membership_enabled(&self) -> bool {
        self.nodes.first().is_some_and(|nd| nd.membership)
    }

    /// Absolute slots executed so far.
    pub fn slots(&self) -> u64 {
        self.abs
    }

    /// The Sec. 10 latency oracle: every verdict is decided exactly one
    /// TDMA round (N slots) after its slot, and every node decides every
    /// past slot (no verdict is skipped or delayed). These are structural
    /// bounds of the per-slot pipeline, so they hold unconditionally —
    /// no fault hypothesis gates them.
    pub fn check_latency(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let n = self.n as u64;
        let expected = self.abs.saturating_sub(n);
        for id in NodeId::all(self.n) {
            let vs = &self.nodes[id.index()].verdicts;
            if vs.len() as u64 != expected {
                violations.push(format!("{id}: {} verdicts, expected {expected}", vs.len()));
            }
            for v in vs {
                if v.latency_slots() != n {
                    violations.push(format!(
                        "{id}: slot {} decided after {} slots, bound is {n}",
                        v.abs_slot,
                        v.latency_slots()
                    ));
                }
            }
        }
        violations
    }

    /// The view-synchrony oracle for the 2-round membership composition:
    /// when the whole run stays within the benign hypothesis (every slot's
    /// ground truth is `Correct` or `Benign`), all nodes install the exact
    /// same view sequence, and every excluded node really sent a benign
    /// slot earlier. Vacuous outside the hypothesis or when membership is
    /// off.
    pub fn check_view_synchrony(&self) -> Vec<String> {
        let mut violations = Vec::new();
        if !self.membership_enabled() {
            return violations;
        }
        let benign_only = self
            .ground_truth
            .iter()
            .all(|c| matches!(c, SlotFaultClass::Correct | SlotFaultClass::Benign));
        if !benign_only {
            return violations;
        }
        let reference = self.view_log(NodeId::new(1));
        for id in NodeId::all(self.n).skip(1) {
            if self.view_log(id) != reference {
                violations.push(format!("{id} installed a different view sequence"));
            }
        }
        // Wrongful exclusion: a node may only leave a view after sending a
        // benign slot.
        let n = self.n as u64;
        for (installed, members) in reference {
            for x in NodeId::all(self.n) {
                if members.contains(&x) {
                    continue;
                }
                let sent_benign = (0..*installed).any(|a| {
                    (a % n) as usize == x.slot()
                        && matches!(
                            self.ground_truth.get(a as usize),
                            Some(SlotFaultClass::Benign)
                        )
                });
                if !sent_benign {
                    violations.push(format!("view at slot {installed} excludes obedient {x}"));
                }
            }
        }
        violations
    }

    /// The membership-liveness oracle: a locally detectable (benign) faulty
    /// slot whose collection round is clean yields a view excluding its
    /// sender within two executions — 2·N slots (Sec. 10). Slots whose
    /// deadline falls past the end of the run are skipped.
    pub fn check_membership_liveness(&self) -> Vec<String> {
        let mut violations = Vec::new();
        if !self.membership_enabled() {
            return violations;
        }
        let n = self.n as u64;
        for (a, class) in self.ground_truth.iter().enumerate() {
            let a = a as u64;
            if !matches!(class, SlotFaultClass::Benign) || a + 2 * n >= self.abs {
                continue;
            }
            // The conviction at a + N needs every opinion on `a` delivered.
            let clean_collection = (a + 1..=a + n).all(|s| {
                matches!(
                    self.ground_truth.get(s as usize),
                    Some(SlotFaultClass::Correct)
                )
            });
            if !clean_collection {
                continue;
            }
            let sender = NodeId::from_slot((a % n) as usize);
            for id in NodeId::all(self.n) {
                let excluded = self
                    .view_log(id)
                    .iter()
                    .any(|(s, members)| *s <= a + 2 * n && !members.contains(&sender));
                if !excluded {
                    violations.push(format!(
                        "{id} never excluded {sender} within 2 rounds of benign slot {a}"
                    ));
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_sim::SlotEffect;

    fn benign_at(round: u64, sender: u32) -> impl FnMut(&TxCtx) -> SlotEffect + Send {
        move |ctx: &TxCtx| {
            if ctx.round == RoundIndex::new(round) && ctx.sender == NodeId::new(sender) {
                SlotEffect::Benign
            } else {
                SlotEffect::Correct
            }
        }
    }

    #[test]
    fn healthy_run_all_verdicts_healthy() {
        let mut c = LowLatCluster::new(4, false, Box::new(tt_sim::NoFaults));
        c.run_rounds(10);
        for id in 1..=4 {
            let vs = c.verdicts(NodeId::new(id));
            assert_eq!(vs.len() as u64, 10 * 4 - 4, "one verdict per past slot");
            assert!(vs.iter().all(|v| v.healthy));
        }
    }

    #[test]
    fn detection_latency_is_one_round() {
        let mut c = LowLatCluster::new(4, false, Box::new(benign_at(5, 3)));
        c.run_rounds(8);
        for id in 1..=4 {
            let v = c
                .verdict_for(NodeId::new(id), RoundIndex::new(5), NodeId::new(3))
                .unwrap();
            assert!(!v.healthy, "node {id} detects the fault");
            assert_eq!(v.latency_slots(), 4, "exactly one TDMA round (N slots)");
        }
    }

    #[test]
    fn verdicts_are_consistent_across_nodes() {
        // A messy pattern of benign faults; all four nodes must agree on
        // every verdict.
        let pipeline = |ctx: &TxCtx| {
            if ctx.abs_slot % 5 == 2 {
                SlotEffect::Benign
            } else {
                SlotEffect::Correct
            }
        };
        let mut c = LowLatCluster::new(4, false, Box::new(pipeline));
        c.run_rounds(12);
        let reference: Vec<_> = c.verdicts(NodeId::new(1)).to_vec();
        for id in 2..=4 {
            assert_eq!(c.verdicts(NodeId::new(id)), &reference[..], "node {id}");
        }
    }

    #[test]
    fn blackout_self_diagnosis_via_collision() {
        // One entire round lost: every node still decides every slot, and
        // the verdicts stay consistent (Lemma 3 analogue at slot level).
        let pipeline = |ctx: &TxCtx| {
            if ctx.round == RoundIndex::new(4) {
                SlotEffect::Benign
            } else {
                SlotEffect::Correct
            }
        };
        let mut c = LowLatCluster::new(4, false, Box::new(pipeline));
        c.run_rounds(8);
        for id in 1..=4 {
            for s in 1..=4u32 {
                let v = c
                    .verdict_for(NodeId::new(id), RoundIndex::new(4), NodeId::new(s))
                    .unwrap();
                assert!(!v.healthy, "node {id} on sender {s}");
            }
        }
    }

    #[test]
    fn membership_excludes_faulty_sender_within_two_rounds() {
        let mut c = LowLatCluster::new(4, true, Box::new(benign_at(5, 2)));
        c.run_rounds(9);
        for id in 1..=4 {
            let view = c.view(NodeId::new(id));
            assert!(!view.contains(&NodeId::new(2)), "node {id}");
            assert_eq!(view.len(), 3);
            let (installed, _) = c.view_log(NodeId::new(id))[0];
            // Fault at abs slot 5*4+1 = 21; exclusion within two rounds.
            assert!(installed <= 21 + 8, "2-round membership latency");
        }
    }

    #[test]
    fn membership_excludes_minority_clique() {
        // Node 1 misses everyone's messages in round 5: its window votes
        // disagree with the majority verdicts, and the accusation vectors
        // must evict it within two further rounds.
        let pipeline = |ctx: &TxCtx| {
            if ctx.round == RoundIndex::new(5) && ctx.sender != NodeId::new(1) {
                SlotEffect::Asymmetric {
                    detected_by: vec![0],
                    collision_ok: true,
                }
            } else {
                SlotEffect::Correct
            }
        };
        let mut c = LowLatCluster::new(4, true, Box::new(pipeline));
        c.run_rounds(10);
        for id in 2..=4 {
            let view = c.view(NodeId::new(id));
            assert!(
                !view.contains(&NodeId::new(1)),
                "node {id} evicted the minority clique: {view:?}"
            );
        }
    }

    #[test]
    fn frame_roundtrip() {
        let node = LowLatNode::new(0, 4, true);
        let frame = node.build_frame(0);
        assert_eq!(frame.len(), 2, "2N bits = 2 bytes for N = 4");
        let (window, accused) = node.decode_frame(&frame);
        assert_eq!(window, 0b1111, "slots before time are vacuously correct");
        assert_eq!(accused, 0, "no accusations initially");
        // Decoding is total: a short frame reads as all-faulty, all-accused.
        assert_eq!(node.decode_frame(&[]), (0, 0b1111));
    }

    #[test]
    fn minority_accusation_is_carried_for_exactly_two_rounds() {
        // Node 1 alone misses node 2's frame in slot 5. The verdict on that
        // slot (decided at slot 9) is healthy, so node 3 holds node 1's
        // dissenting vote as a minority accusation: every frame node 3
        // builds in the 2N slots after the decision accuses node 1, and no
        // frame after that does.
        let pipeline = |ctx: &TxCtx| {
            if ctx.abs_slot == 5 {
                SlotEffect::Asymmetric {
                    detected_by: vec![0],
                    collision_ok: true,
                }
            } else {
                SlotEffect::Correct
            }
        };
        let n = 4u64;
        let decided = 5 + n;
        let mut c = LowLatCluster::new(n as usize, true, Box::new(pipeline));
        let mut carried = Vec::new();
        while c.slots() < decided + 4 * n {
            // The frame node 3 would send if it owned the upcoming slot.
            let accuser = &c.nodes[2];
            let (_, accused) = accuser.decode_frame(&accuser.build_frame(c.slots()));
            if accused & 1 != 0 {
                carried.push(c.slots());
            }
            c.run_slot();
        }
        let expected: Vec<u64> = (decided + 1..=decided + 2 * n).collect();
        assert_eq!(carried, expected);
    }

    #[test]
    #[should_panic(expected = "1..=64 nodes, got 0")]
    fn empty_cluster_is_rejected() {
        LowLatCluster::new(0, false, Box::new(tt_sim::NoFaults));
    }

    #[test]
    #[should_panic(expected = "1..=64 nodes, got 65")]
    fn cluster_wider_than_a_mask_is_rejected() {
        LowLatCluster::new(65, false, Box::new(tt_sim::NoFaults));
    }
}
