//! The shared broadcast bus and the fault pipeline that shapes receptions.
//!
//! Every transmission on the bus produces, for each receiver, a
//! [`Reception`] outcome. Faults are injected by an implementation of
//! [`FaultPipeline`] — the software analogue of the paper's *disturbance
//! node* (Sec. 8), which corrupted or dropped messages on the physical bus.
//!
//! The pipeline expresses faults at the *effect* level ([`SlotEffect`]),
//! following the paper's Customizable Fault-Effect Model (Sec. 4):
//!
//! * **benign** (symmetric): the message is locally detectable by *all*
//!   receivers (syntactically incorrect, or early/late/missing);
//! * **symmetric malicious**: all receivers accept the same, semantically
//!   incorrect message (not locally detectable);
//! * **asymmetric**: the message is locally detectable by at least one but
//!   not all receivers. Per the broadcast-channel assumption, receivers that
//!   do not detect it all receive the *same* message.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::time::{NodeId, RoundIndex};

/// What a single receiver observes for one sending slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reception {
    /// The frame was received and passed local error detection; the
    /// interface variable is updated and its validity bit set to 1.
    Valid(Bytes),
    /// Local error detection flagged the frame (corrupt / missing /
    /// mistimed); the validity bit is set to 0 and the variable not updated.
    Detected,
}

impl Reception {
    /// True iff the reception passed local error detection.
    pub fn is_valid(&self) -> bool {
        matches!(self, Reception::Valid(_))
    }
}

/// Ground-truth classification of what the fault pipeline did to one slot.
///
/// This is recorded in the trace and consumed by the test oracles; the
/// protocol under test never sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SlotFaultClass {
    /// The frame was delivered correctly to everyone.
    Correct,
    /// Symmetric benign fault: locally detected by all receivers.
    Benign,
    /// Symmetric malicious fault: all receivers accepted a wrong payload.
    SymmetricMalicious,
    /// Asymmetric fault: detected by a strict, non-empty subset of receivers.
    Asymmetric,
}

/// The effect of the fault pipeline on one transmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotEffect {
    /// Deliver the payload unmodified to every receiver.
    Correct,
    /// All receivers locally detect the fault (validity bit 0). Models
    /// crashes, omissions, noise bursts, silence, spikes.
    Benign,
    /// All receivers accept `payload` instead of the real one (validity bit
    /// 1, wrong value). Not locally detectable.
    SymmetricMalicious {
        /// The corrupted payload delivered to all receivers.
        payload: Bytes,
    },
    /// Receivers in `detected_by` (0-based node indices) locally detect the
    /// fault; all others receive the true payload. Models
    /// Slightly-Off-Specification faults and spatially partial disturbances.
    Asymmetric {
        /// 0-based indices of the receivers that locally detect the fault.
        detected_by: Vec<usize>,
        /// What the sender's local collision detector observes on its own
        /// bus tap: `true` if the frame read back syntactically correct.
        collision_ok: bool,
    },
}

impl SlotEffect {
    /// The ground-truth class of this effect, validating subset sizes.
    ///
    /// An `Asymmetric` effect that is detected by nobody degenerates to
    /// `Correct`; one detected by all `n - 1` receivers degenerates to
    /// `Benign`.
    pub fn classify(&self, n_nodes: usize, sender: NodeId) -> SlotFaultClass {
        match self {
            SlotEffect::Correct => SlotFaultClass::Correct,
            SlotEffect::Benign => SlotFaultClass::Benign,
            SlotEffect::SymmetricMalicious { .. } => SlotFaultClass::SymmetricMalicious,
            SlotEffect::Asymmetric { detected_by, .. } => {
                let detected = detected_by
                    .iter()
                    .filter(|&&r| r != sender.index() && r < n_nodes)
                    .count();
                if detected == 0 {
                    SlotFaultClass::Correct
                } else if detected == n_nodes - 1 {
                    SlotFaultClass::Benign
                } else {
                    SlotFaultClass::Asymmetric
                }
            }
        }
    }

    /// What the sender's local collision detector reports for this effect.
    ///
    /// A benign fault is observed on the sender's own tap too (`false`); a
    /// malicious frame is syntactically fine (`true`); for asymmetric
    /// effects the outcome depends on where the disturbance hit and is
    /// carried explicitly.
    pub fn collision_ok(&self) -> bool {
        match self {
            SlotEffect::Correct | SlotEffect::SymmetricMalicious { .. } => true,
            SlotEffect::Benign => false,
            SlotEffect::Asymmetric { collision_ok, .. } => *collision_ok,
        }
    }

    /// Computes the reception outcome for receiver index `rx` (0-based).
    pub fn reception_for(&self, rx: usize, true_payload: &Bytes) -> Reception {
        match self {
            SlotEffect::Correct => Reception::Valid(true_payload.clone()),
            SlotEffect::Benign => Reception::Detected,
            SlotEffect::SymmetricMalicious { payload } => Reception::Valid(payload.clone()),
            SlotEffect::Asymmetric { detected_by, .. } => {
                if detected_by.contains(&rx) {
                    Reception::Detected
                } else {
                    Reception::Valid(true_payload.clone())
                }
            }
        }
    }
}

/// Context handed to the fault pipeline for each transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxCtx {
    /// The round in which the slot lies.
    pub round: RoundIndex,
    /// The sending node (slot position = `sender.slot()`).
    pub sender: NodeId,
    /// Cluster size.
    pub n_nodes: usize,
    /// Absolute slot number since simulation start
    /// (`round * n_nodes + sender.slot()`).
    pub abs_slot: u64,
}

/// The result of pushing one frame through the bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxOutcome {
    /// Reception per receiver index (length `n_nodes`; the entry at the
    /// sender's own index reflects its loop-back reception).
    pub receptions: Vec<Reception>,
    /// What the sender's local collision detector observed.
    pub collision_ok: bool,
    /// Ground-truth classification for the trace/oracles.
    pub class: SlotFaultClass,
}

/// A reusable, caller-owned buffer holding one slot's transmission outcome.
///
/// [`FaultPipeline::transmit_into`] fills it in place; the engine owns one
/// per cluster. The outcome is stored once: the value on the bus, a mask of
/// the receivers that locally detected the frame, and a per-receiver
/// override only where a receiver accepted a different payload (as a
/// [`crate::ReplicatedBus`] can produce). Read it per receiver through
/// [`SlotOutcome::received`] or [`SlotOutcome::reception`]. It covers
/// clusters of up to [`crate::MAX_NODES`] receivers.
#[derive(Debug, Clone)]
pub struct SlotOutcome {
    n_nodes: usize,
    /// The payload every non-detecting receiver accepted, unless overridden.
    value: Bytes,
    /// Bit `rx`: receiver `rx` locally detected the frame.
    detected: u64,
    /// `(rx, payload)` for each receiver that accepted a payload other than
    /// `value`, in receiver order.
    overrides: Vec<(usize, Bytes)>,
    /// What the sender's local collision detector observed.
    pub collision_ok: bool,
    /// Ground-truth classification for the trace/oracles.
    pub class: SlotFaultClass,
}

impl Default for SlotOutcome {
    fn default() -> Self {
        SlotOutcome::new()
    }
}

/// Equal when every receiver's reception, the collision-detector view and
/// the class agree, however the value and its overrides are laid out.
impl PartialEq for SlotOutcome {
    fn eq(&self, other: &SlotOutcome) -> bool {
        self.n_nodes == other.n_nodes
            && self.collision_ok == other.collision_ok
            && self.class == other.class
            && (0..self.n_nodes).all(|rx| self.received(rx) == other.received(rx))
    }
}

impl Eq for SlotOutcome {}

impl SlotOutcome {
    /// An empty buffer; the first fill sizes it.
    pub fn new() -> Self {
        SlotOutcome {
            n_nodes: 0,
            value: Bytes::new(),
            detected: 0,
            overrides: Vec::new(),
            collision_ok: true,
            class: SlotFaultClass::Correct,
        }
    }

    /// Number of receivers covered by the last fill.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// The payload receiver `rx` accepted, or `None` if it locally detected
    /// the frame.
    pub fn received(&self, rx: usize) -> Option<&Bytes> {
        debug_assert!(rx < self.n_nodes, "receiver {rx} out of range");
        if self.detected & (1 << rx) != 0 {
            return None;
        }
        Some(
            self.overrides
                .iter()
                .find(|(r, _)| *r == rx)
                .map_or(&self.value, |(_, p)| p),
        )
    }

    /// Receiver `rx`'s reception, as a controller takes it.
    pub fn reception(&self, rx: usize) -> Reception {
        match self.received(rx) {
            Some(p) => Reception::Valid(p.clone()),
            None => Reception::Detected,
        }
    }

    /// Every receiver's reception, in receiver order.
    pub fn receptions(&self) -> impl Iterator<Item = Reception> + '_ {
        (0..self.n_nodes).map(|rx| self.reception(rx))
    }

    /// Fills the buffer with one value for every receiver outside the
    /// `detected` mask.
    pub(crate) fn set_uniform(&mut self, n_nodes: usize, value: Bytes, detected: u64) {
        assert!(
            n_nodes <= crate::MAX_NODES,
            "a slot outcome covers at most {} receivers, got {n_nodes}",
            crate::MAX_NODES
        );
        self.n_nodes = n_nodes;
        self.value = value;
        self.detected = detected;
        self.overrides.clear();
    }

    /// Records that receiver `rx` accepted `payload`, keeping the first
    /// accepted payload as the bus value and any other as an override.
    /// Receivers must be added in increasing order after a
    /// [`SlotOutcome::set_uniform`] that marked them all detected.
    pub(crate) fn accept(&mut self, rx: usize, payload: &Bytes) {
        let first = self.detected == crate::controller::nodes_mask(self.n_nodes);
        self.detected &= !(1 << rx);
        if first {
            self.value = payload.clone();
        } else if *payload != self.value {
            self.overrides.push((rx, payload.clone()));
        }
    }

    /// Moves a by-value outcome into the buffer, reusing its allocation.
    pub fn fill_from(&mut self, outcome: TxOutcome) {
        let n = outcome.receptions.len();
        self.set_uniform(n, Bytes::new(), crate::controller::nodes_mask(n));
        for (rx, r) in outcome.receptions.iter().enumerate() {
            if let Reception::Valid(p) = r {
                self.accept(rx, p);
            }
        }
        self.collision_ok = outcome.collision_ok;
        self.class = outcome.class;
    }

    /// Converts the buffer into an owned [`TxOutcome`], consuming it.
    pub fn into_outcome(self) -> TxOutcome {
        TxOutcome {
            receptions: self.receptions().collect(),
            collision_ok: self.collision_ok,
            class: self.class,
        }
    }
}

/// A pluggable model of disturbances on the broadcast bus.
///
/// Implementations decide, per transmission, which [`SlotEffect`] applies.
/// They may keep state (e.g. a burst spanning several slots) and may use
/// their own seeded randomness; the simulator itself adds none.
///
/// Most pipelines only implement [`FaultPipeline::effect`]; pipelines that
/// need finer, per-receiver control than one [`SlotEffect`] can express —
/// e.g. a replicated bus whose channels fail independently
/// ([`crate::ReplicatedBus`]) — override [`FaultPipeline::transmit`]
/// instead.
pub trait FaultPipeline: Send {
    /// Chooses the effect applied to the transmission described by `ctx`.
    fn effect(&mut self, ctx: &TxCtx) -> SlotEffect;

    /// Produces the full per-receiver outcome of the transmission. The
    /// default applies [`FaultPipeline::effect`] uniformly via
    /// [`apply_effect`].
    fn transmit(&mut self, ctx: &TxCtx, payload: &Bytes) -> TxOutcome {
        apply_effect(&self.effect(ctx), ctx, payload)
    }

    /// Fills `out` with the per-receiver outcome of the transmission,
    /// reusing the buffer's allocations. The engine's hot path goes through
    /// this method once per slot.
    ///
    /// The default delegates to [`FaultPipeline::transmit`], so existing
    /// pipelines — including plain `FnMut` closures and pipelines that
    /// override `transmit` — keep working unchanged. Allocation-conscious
    /// pipelines override it with an in-place fill (usually via
    /// [`apply_effect_into`]); the contract is that after the call `out` is
    /// entirely overwritten and equal to what `transmit` would have
    /// returned.
    fn transmit_into(&mut self, ctx: &TxCtx, payload: &Bytes, out: &mut SlotOutcome) {
        out.fill_from(self.transmit(ctx, payload));
    }
}

/// The identity pipeline: a perfectly healthy bus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoFaults;

impl FaultPipeline for NoFaults {
    fn effect(&mut self, _ctx: &TxCtx) -> SlotEffect {
        SlotEffect::Correct
    }

    fn transmit_into(&mut self, ctx: &TxCtx, payload: &Bytes, out: &mut SlotOutcome) {
        apply_effect_into(&SlotEffect::Correct, ctx, payload, out);
    }
}

impl<F> FaultPipeline for F
where
    F: FnMut(&TxCtx) -> SlotEffect + Send,
{
    fn effect(&mut self, ctx: &TxCtx) -> SlotEffect {
        self(ctx)
    }

    fn transmit_into(&mut self, ctx: &TxCtx, payload: &Bytes, out: &mut SlotOutcome) {
        apply_effect_into(&self(ctx), ctx, payload, out);
    }
}

/// Classifies a per-receiver outcome, given as each receiver's accepted
/// payload (`None` = detected) in receiver order, against the true payload,
/// for traces and oracles: all-valid-and-true = correct, all-detected =
/// benign, all-valid-but-wrong = symmetric malicious, anything mixed =
/// asymmetric.
pub(crate) fn classify_received<'a>(
    received: impl Iterator<Item = Option<&'a Bytes>>,
    true_payload: &Bytes,
    sender: NodeId,
) -> SlotFaultClass {
    let mut valid_true = 0usize;
    let mut valid_wrong = 0usize;
    let mut detected = 0usize;
    for (rx, r) in received.enumerate() {
        if rx == sender.index() {
            continue; // the sender's loop-back does not classify the slot
        }
        match r {
            Some(p) if p == true_payload => valid_true += 1,
            Some(_) => valid_wrong += 1,
            None => detected += 1,
        }
    }
    let others = valid_true + valid_wrong + detected;
    if detected == others && others > 0 {
        SlotFaultClass::Benign
    } else if detected > 0 {
        SlotFaultClass::Asymmetric
    } else if valid_wrong > 0 {
        SlotFaultClass::SymmetricMalicious
    } else {
        SlotFaultClass::Correct
    }
}

/// Applies an effect to a transmission, producing the per-receiver outcome.
///
/// Exposed publicly so protocol variants that model the bus at slot
/// granularity (e.g. the low-latency system-level variant of the paper's
/// Sec. 10) can reuse the exact reception semantics of the simulator.
pub fn apply_effect(effect: &SlotEffect, ctx: &TxCtx, payload: &Bytes) -> TxOutcome {
    TxOutcome {
        receptions: (0..ctx.n_nodes)
            .map(|rx| effect.reception_for(rx, payload))
            .collect(),
        collision_ok: effect.collision_ok(),
        class: effect.classify(ctx.n_nodes, ctx.sender),
    }
}

/// In-place variant of [`apply_effect`]: fills `out` with the one value on
/// the bus and the mask of receivers that detect it. A payload is cloned
/// once per slot, and a clone never allocates, so the fill performs no
/// heap allocation at all.
pub fn apply_effect_into(effect: &SlotEffect, ctx: &TxCtx, payload: &Bytes, out: &mut SlotOutcome) {
    let n = ctx.n_nodes;
    match effect {
        SlotEffect::Correct => out.set_uniform(n, payload.clone(), 0),
        SlotEffect::Benign => {
            out.set_uniform(n, Bytes::new(), crate::controller::nodes_mask(n));
        }
        SlotEffect::SymmetricMalicious { payload: wrong } => out.set_uniform(n, wrong.clone(), 0),
        SlotEffect::Asymmetric { detected_by, .. } => {
            let detected = detected_by
                .iter()
                .filter(|&&rx| rx < n)
                .fold(0u64, |mask, &rx| mask | 1 << rx);
            out.set_uniform(n, payload.clone(), detected);
        }
    }
    out.collision_ok = effect.collision_ok();
    out.class = effect.classify(n, ctx.sender);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> TxCtx {
        TxCtx {
            round: RoundIndex::new(7),
            sender: NodeId::new(2),
            n_nodes: 4,
            abs_slot: 29,
        }
    }

    #[test]
    fn correct_effect_delivers_everywhere() {
        let payload = Bytes::from_static(b"\x0f");
        let out = apply_effect(&SlotEffect::Correct, &ctx(), &payload);
        assert_eq!(out.class, SlotFaultClass::Correct);
        assert!(out.collision_ok);
        assert!(out
            .receptions
            .iter()
            .all(|r| *r == Reception::Valid(payload.clone())));
    }

    #[test]
    fn benign_effect_detected_by_all() {
        let out = apply_effect(&SlotEffect::Benign, &ctx(), &Bytes::from_static(b"x"));
        assert_eq!(out.class, SlotFaultClass::Benign);
        assert!(!out.collision_ok);
        assert!(out.receptions.iter().all(|r| *r == Reception::Detected));
    }

    #[test]
    fn malicious_effect_swaps_payload_without_detection() {
        let wrong = Bytes::from_static(b"\xff");
        let out = apply_effect(
            &SlotEffect::SymmetricMalicious {
                payload: wrong.clone(),
            },
            &ctx(),
            &Bytes::from_static(b"\x00"),
        );
        assert_eq!(out.class, SlotFaultClass::SymmetricMalicious);
        assert!(out.collision_ok, "malicious frames are syntactically fine");
        assert!(out
            .receptions
            .iter()
            .all(|r| *r == Reception::Valid(wrong.clone())));
    }

    #[test]
    fn asymmetric_effect_splits_receivers() {
        let payload = Bytes::from_static(b"\x05");
        let eff = SlotEffect::Asymmetric {
            detected_by: vec![0, 3],
            collision_ok: true,
        };
        let out = apply_effect(&eff, &ctx(), &payload);
        assert_eq!(out.class, SlotFaultClass::Asymmetric);
        assert_eq!(out.receptions[0], Reception::Detected);
        assert_eq!(out.receptions[1], Reception::Valid(payload.clone()));
        assert_eq!(out.receptions[2], Reception::Valid(payload.clone()));
        assert_eq!(out.receptions[3], Reception::Detected);
    }

    #[test]
    fn asymmetric_degenerates_to_correct_or_benign() {
        let none = SlotEffect::Asymmetric {
            detected_by: vec![],
            collision_ok: true,
        };
        assert_eq!(none.classify(4, NodeId::new(2)), SlotFaultClass::Correct);
        // Detected by all three *other* nodes => benign; the sender's own
        // index in the list does not count.
        let all = SlotEffect::Asymmetric {
            detected_by: vec![0, 1, 2, 3],
            collision_ok: false,
        };
        assert_eq!(all.classify(4, NodeId::new(2)), SlotFaultClass::Benign);
    }

    #[test]
    fn closures_are_pipelines() {
        let mut p = |c: &TxCtx| {
            if c.sender == NodeId::new(1) {
                SlotEffect::Benign
            } else {
                SlotEffect::Correct
            }
        };
        assert_eq!(FaultPipeline::effect(&mut p, &ctx()), SlotEffect::Correct);
    }

    #[test]
    fn no_faults_is_identity() {
        assert_eq!(NoFaults.effect(&ctx()), SlotEffect::Correct);
    }

    #[test]
    fn transmit_into_overwrites_reused_buffer() {
        let payload = Bytes::from_static(b"\x2a");
        let mut pipeline = |c: &TxCtx| {
            if c.abs_slot.is_multiple_of(2) {
                SlotEffect::Benign
            } else {
                SlotEffect::Correct
            }
        };
        let mut out = SlotOutcome::new();
        for abs_slot in 0..6u64 {
            let c = TxCtx {
                round: RoundIndex::new(abs_slot / 4),
                sender: NodeId::from_slot((abs_slot % 4) as usize),
                n_nodes: 4,
                abs_slot,
            };
            let legacy = FaultPipeline::transmit(&mut pipeline, &c, &payload);
            FaultPipeline::transmit_into(&mut pipeline, &c, &payload, &mut out);
            assert!(out.receptions().eq(legacy.receptions.iter().cloned()));
            assert_eq!(out.collision_ok, legacy.collision_ok);
            assert_eq!(out.class, legacy.class);
        }
    }

    #[test]
    fn default_transmit_into_delegates_to_transmit() {
        // A pipeline implementing only `effect` exercises the trait default.
        struct EffectOnly;
        impl FaultPipeline for EffectOnly {
            fn effect(&mut self, _ctx: &TxCtx) -> SlotEffect {
                SlotEffect::Asymmetric {
                    detected_by: vec![0, 3],
                    collision_ok: true,
                }
            }
        }
        let payload = Bytes::from_static(b"\x07");
        let legacy = EffectOnly.transmit(&ctx(), &payload);
        let mut out = SlotOutcome::new();
        EffectOnly.transmit_into(&ctx(), &payload, &mut out);
        assert_eq!(out.clone().into_outcome(), legacy);
    }
}
