//! Ground-truth trace of **injected faults**, for oracles and debugging.
//!
//! The trace records what the fault pipeline actually did to each sending
//! slot. It is the experiment harness's source of truth when checking the
//! protocol's correctness/completeness/consistency properties: the protocol
//! itself never reads it.
//!
//! **This is not protocol tracing.** Despite the name, [`Trace`] (also
//! re-exported as `tt_sim::FaultTrace`) has nothing to do with observing
//! the diagnostic protocol: it captures the *disturbances on the bus*
//! (ground truth an omniscient observer would see), and can be serialized
//! and replayed bit-exactly via [`ReplayPipeline`]. Observing what the
//! *protocol* did — and why — is the job of two separate layers:
//!
//! * [`crate::metrics`] — counters, histograms and the flat
//!   [`crate::MetricsEvent`] stream (*what happened*);
//! * [`crate::tracing`] — causal provenance spans threaded through the
//!   five phases of Alg. 1 via [`crate::TraceSink`] (*why it happened*).

use serde::{Deserialize, Serialize};

use crate::bus::{
    apply_effect_into, FaultPipeline, Reception, SlotEffect, SlotFaultClass, SlotOutcome, TxCtx,
    TxOutcome,
};
use crate::time::{NodeId, RoundIndex};

/// How much the trace records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Record every non-`Correct` slot (compact; correct slots implicit).
    #[default]
    Anomalies,
    /// Record every slot, including correct ones (verbose; for debugging).
    Full,
    /// Record nothing (long tuning runs).
    Off,
}

/// A serializable, replayable record of what a slot's transmission did —
/// reconstructed from the per-receiver outcome, so it captures the fault
/// *pattern* (who detected, what wrong bytes were accepted) independent of
/// the payload the protocol happened to send.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EffectRecord {
    /// Delivered correctly everywhere.
    Correct,
    /// Locally detected by every receiver.
    Benign,
    /// All receivers accepted these (wrong) bytes.
    Malicious(Vec<u8>),
    /// Detected by exactly these receiver indices; the rest received fine.
    Asymmetric {
        /// 0-based receiver indices that detected the fault.
        detected_by: Vec<usize>,
        /// The sender's collision-detector observation.
        collision_ok: bool,
    },
}

impl EffectRecord {
    /// Reconstructs an equivalent effect from a transmission outcome.
    ///
    /// Mixed outcomes that a single [`SlotEffect`] cannot express (e.g. a
    /// replicated bus delivering different valid payloads to different
    /// receivers) are approximated by their dominant class.
    pub fn from_outcome(outcome: &TxOutcome, true_payload: &[u8], sender: NodeId) -> Self {
        Self::from_received(
            outcome.receptions.iter().map(|r| match r {
                Reception::Valid(p) => Some(&p[..]),
                Reception::Detected => None,
            }),
            outcome.collision_ok,
            outcome.class,
            true_payload,
            sender,
        )
    }

    /// Reconstructs an equivalent effect from an engine-owned
    /// [`SlotOutcome`] buffer (same semantics as
    /// [`EffectRecord::from_outcome`]).
    pub fn from_slot_outcome(outcome: &SlotOutcome, true_payload: &[u8], sender: NodeId) -> Self {
        Self::from_received(
            (0..outcome.n_nodes()).map(|rx| outcome.received(rx).map(|p| &p[..])),
            outcome.collision_ok,
            outcome.class,
            true_payload,
            sender,
        )
    }

    /// The record of an outcome given as each receiver's accepted payload
    /// (`None` = detected), in receiver order.
    fn from_received<'a>(
        mut received: impl Iterator<Item = Option<&'a [u8]>>,
        collision_ok: bool,
        class: SlotFaultClass,
        true_payload: &[u8],
        sender: NodeId,
    ) -> Self {
        match class {
            SlotFaultClass::Correct => EffectRecord::Correct,
            SlotFaultClass::Benign => EffectRecord::Benign,
            SlotFaultClass::SymmetricMalicious => EffectRecord::Malicious(
                received
                    .find_map(|r| r.filter(|p| *p != true_payload))
                    .map(<[u8]>::to_vec)
                    .unwrap_or_default(),
            ),
            SlotFaultClass::Asymmetric => EffectRecord::Asymmetric {
                detected_by: received
                    .enumerate()
                    .filter(|(rx, r)| *rx != sender.index() && r.is_none())
                    .map(|(rx, _)| rx)
                    .collect(),
                collision_ok,
            },
        }
    }

    /// The [`SlotEffect`] that re-applies this record.
    pub fn to_effect(&self) -> SlotEffect {
        match self {
            EffectRecord::Correct => SlotEffect::Correct,
            EffectRecord::Benign => SlotEffect::Benign,
            EffectRecord::Malicious(bytes) => SlotEffect::SymmetricMalicious {
                payload: bytes::Bytes::from(bytes.clone()),
            },
            EffectRecord::Asymmetric {
                detected_by,
                collision_ok,
            } => SlotEffect::Asymmetric {
                detected_by: detected_by.clone(),
                collision_ok: *collision_ok,
            },
        }
    }
}

/// One recorded slot outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotRecord {
    /// The round of the slot.
    pub round: RoundIndex,
    /// The sender owning the slot.
    pub sender: NodeId,
    /// Ground-truth fault class applied by the pipeline.
    pub class: SlotFaultClass,
    /// The replayable effect, recorded in [`TraceMode::Full`] (and for
    /// anomalies in [`TraceMode::Anomalies`]).
    pub effect: Option<EffectRecord>,
}

/// The ground-truth fault trace of a simulation run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    records: Vec<SlotRecord>,
    #[serde(skip)]
    mode: TraceModeSer,
}

// TraceMode is not serialized; wrap to keep Default derivable.
type TraceModeSer = TraceMode;

impl Trace {
    /// Creates an empty trace with the given mode.
    pub fn new(mode: TraceMode) -> Self {
        Trace {
            records: Vec::new(),
            mode,
        }
    }

    /// The trace's recording mode.
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// Whether a record of `class` would be retained under this mode.
    pub fn wants(&self, class: SlotFaultClass) -> bool {
        match self.mode {
            TraceMode::Off => false,
            TraceMode::Anomalies => class != SlotFaultClass::Correct,
            TraceMode::Full => true,
        }
    }

    /// Records one slot outcome, subject to the trace mode.
    pub fn record(&mut self, round: RoundIndex, sender: NodeId, class: SlotFaultClass) {
        self.record_with_effect(round, sender, class, None);
    }

    /// Records one slot outcome together with its replayable effect.
    pub fn record_with_effect(
        &mut self,
        round: RoundIndex,
        sender: NodeId,
        class: SlotFaultClass,
        effect: Option<EffectRecord>,
    ) {
        match self.mode {
            TraceMode::Off => {}
            TraceMode::Anomalies => {
                if class != SlotFaultClass::Correct {
                    self.records.push(SlotRecord {
                        round,
                        sender,
                        class,
                        effect,
                    });
                }
            }
            TraceMode::Full => self.records.push(SlotRecord {
                round,
                sender,
                class,
                effect,
            }),
        }
    }

    /// A pipeline that replays this trace's recorded effects: each slot
    /// gets its recorded effect (or `Correct` when absent), so a captured
    /// run — from this simulator or from hardware instrumentation imported
    /// into [`SlotRecord`]s — can be re-driven deterministically against
    /// any protocol configuration.
    pub fn replay_pipeline(&self) -> ReplayPipeline {
        ReplayPipeline {
            records: self
                .records
                .iter()
                .filter_map(|r| r.effect.as_ref().map(|e| ((r.round, r.sender), e.clone())))
                .collect(),
        }
    }

    /// All recorded slots, in transmission order.
    pub fn records(&self) -> &[SlotRecord] {
        &self.records
    }

    /// Ground-truth fault class of the slot of `sender` in `round`.
    ///
    /// With [`TraceMode::Anomalies`], absent records mean `Correct`.
    pub fn class_of(&self, round: RoundIndex, sender: NodeId) -> SlotFaultClass {
        self.records
            .iter()
            .rev()
            .find(|r| r.round == round && r.sender == sender)
            .map(|r| r.class)
            .unwrap_or(SlotFaultClass::Correct)
    }

    /// The set of senders whose slot in `round` was benign faulty
    /// (locally detectable by all receivers).
    pub fn benign_in(&self, round: RoundIndex) -> Vec<NodeId> {
        self.records
            .iter()
            .filter(|r| r.round == round && r.class == SlotFaultClass::Benign)
            .map(|r| r.sender)
            .collect()
    }

    /// Count of faulty (non-correct) slots in `round`.
    pub fn faults_in(&self, round: RoundIndex) -> usize {
        self.records
            .iter()
            .filter(|r| r.round == round && r.class != SlotFaultClass::Correct)
            .count()
    }

    /// The highest recorded round, if any record exists.
    pub fn last_round(&self) -> Option<RoundIndex> {
        self.records.iter().map(|r| r.round).max()
    }
}

/// A [`FaultPipeline`] replaying recorded effects (see
/// [`Trace::replay_pipeline`]).
#[derive(Debug, Clone, Default)]
pub struct ReplayPipeline {
    records: std::collections::HashMap<(RoundIndex, NodeId), EffectRecord>,
}

impl FaultPipeline for ReplayPipeline {
    fn effect(&mut self, ctx: &TxCtx) -> SlotEffect {
        self.records
            .get(&(ctx.round, ctx.sender))
            .map(EffectRecord::to_effect)
            .unwrap_or(SlotEffect::Correct)
    }

    fn transmit_into(&mut self, ctx: &TxCtx, payload: &bytes::Bytes, out: &mut SlotOutcome) {
        // Unrecorded slots (the vast majority under `TraceMode::Anomalies`)
        // skip the effect reconstruction and allocate nothing.
        match self.records.get(&(ctx.round, ctx.sender)) {
            None => apply_effect_into(&SlotEffect::Correct, ctx, payload, out),
            Some(rec) => apply_effect_into(&rec.to_effect(), ctx, payload, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anomalies_mode_skips_correct_slots() {
        let mut t = Trace::new(TraceMode::Anomalies);
        t.record(RoundIndex::new(1), NodeId::new(1), SlotFaultClass::Correct);
        t.record(RoundIndex::new(1), NodeId::new(2), SlotFaultClass::Benign);
        assert_eq!(t.records().len(), 1);
        assert_eq!(
            t.class_of(RoundIndex::new(1), NodeId::new(1)),
            SlotFaultClass::Correct
        );
        assert_eq!(
            t.class_of(RoundIndex::new(1), NodeId::new(2)),
            SlotFaultClass::Benign
        );
    }

    #[test]
    fn full_mode_records_everything_and_off_nothing() {
        let mut full = Trace::new(TraceMode::Full);
        let mut off = Trace::new(TraceMode::Off);
        for t in [&mut full, &mut off] {
            t.record(RoundIndex::new(0), NodeId::new(1), SlotFaultClass::Correct);
        }
        assert_eq!(full.records().len(), 1);
        assert_eq!(off.records().len(), 0);
    }

    #[test]
    fn queries_by_round() {
        let mut t = Trace::new(TraceMode::Anomalies);
        t.record(RoundIndex::new(2), NodeId::new(3), SlotFaultClass::Benign);
        t.record(RoundIndex::new(2), NodeId::new(4), SlotFaultClass::Benign);
        t.record(
            RoundIndex::new(3),
            NodeId::new(1),
            SlotFaultClass::Asymmetric,
        );
        assert_eq!(
            t.benign_in(RoundIndex::new(2)),
            vec![NodeId::new(3), NodeId::new(4)]
        );
        assert_eq!(t.faults_in(RoundIndex::new(2)), 2);
        assert_eq!(t.faults_in(RoundIndex::new(3)), 1);
        assert_eq!(t.faults_in(RoundIndex::new(4)), 0);
        assert_eq!(t.last_round(), Some(RoundIndex::new(3)));
    }
}
