//! Replicated (multi-channel) broadcast buses.
//!
//! The paper's system model allows "a shared (and possibly replicated)
//! communication bus", and its prototype ran on a *redundant* TT network
//! (layered TTP). [`ReplicatedBus`] models `K` physical channels carrying
//! every transmission simultaneously, each with its own independent
//! [`FaultPipeline`]. A receiver accepts the frame from the lowest-indexed
//! channel on which it passed local error detection; only a slot corrupted
//! on *every* channel is locally detected as faulty.
//!
//! The sender's collision detector succeeds if its frame was readable on at
//! least one channel.

use bytes::Bytes;

use crate::bus::{classify_received, FaultPipeline, SlotEffect, SlotOutcome, TxCtx, TxOutcome};
use crate::controller::nodes_mask;

/// A bus replicated over `K >= 1` independently failing channels.
///
/// ```
/// use tt_sim::{ClusterBuilder, NodeId, ReplicatedBus, RoundIndex, SlotEffect, TraceMode, TxCtx};
///
/// // Channel A is hit by a disturbance in round 3; channel B is healthy.
/// let channel_a = |ctx: &TxCtx| {
///     if ctx.round == RoundIndex::new(3) {
///         SlotEffect::Benign
///     } else {
///         SlotEffect::Correct
///     }
/// };
/// let bus = ReplicatedBus::new(vec![Box::new(channel_a), Box::new(tt_sim::NoFaults)]);
/// let mut cluster = ClusterBuilder::new(4)
///     .trace_mode(TraceMode::Anomalies)
///     .build(Box::new(bus))?;
/// cluster.run_rounds(6);
/// // The redundancy masks the single-channel disturbance completely.
/// assert!(cluster.trace().records().is_empty());
/// # Ok::<(), tt_sim::SimError>(())
/// ```
pub struct ReplicatedBus {
    channels: Vec<Box<dyn FaultPipeline>>,
    /// One reusable outcome buffer per channel, so per-receiver merging in
    /// [`FaultPipeline::transmit_into`] allocates nothing in steady state.
    scratch: Vec<SlotOutcome>,
}

impl std::fmt::Debug for ReplicatedBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedBus")
            .field("channels", &self.channels.len())
            .finish()
    }
}

impl ReplicatedBus {
    /// Creates a bus from per-channel pipelines.
    ///
    /// # Panics
    ///
    /// Panics if no channel is given.
    pub fn new(channels: Vec<Box<dyn FaultPipeline>>) -> Self {
        assert!(!channels.is_empty(), "a bus needs at least one channel");
        let scratch = channels.iter().map(|_| SlotOutcome::new()).collect();
        ReplicatedBus { channels, scratch }
    }

    /// Number of channels.
    pub fn n_channels(&self) -> usize {
        self.channels.len()
    }
}

impl FaultPipeline for ReplicatedBus {
    /// Effect-level merge, used only if a caller bypasses
    /// [`FaultPipeline::transmit`]; per-receiver resolution happens there.
    fn effect(&mut self, ctx: &TxCtx) -> SlotEffect {
        let effects: Vec<SlotEffect> = self.channels.iter_mut().map(|c| c.effect(ctx)).collect();
        // A receiver is blind only where every channel failed for it.
        let mut merged: Option<SlotEffect> = None;
        for e in effects {
            merged = Some(match (merged, e) {
                (None, e) => e,
                (Some(SlotEffect::Correct), _) => SlotEffect::Correct,
                (Some(a), SlotEffect::Benign) => a,
                (Some(SlotEffect::Benign), e) => e,
                (Some(SlotEffect::SymmetricMalicious { payload }), _) => {
                    // Receivers already accepted channel A's (wrong) frame.
                    SlotEffect::SymmetricMalicious { payload }
                }
                (
                    Some(SlotEffect::Asymmetric {
                        detected_by: d1,
                        collision_ok: c1,
                    }),
                    e2,
                ) => {
                    match e2 {
                        SlotEffect::Correct | SlotEffect::SymmetricMalicious { .. } => {
                            // Blind receivers fall back to channel B.
                            SlotEffect::Correct
                        }
                        SlotEffect::Benign => SlotEffect::Asymmetric {
                            detected_by: d1,
                            collision_ok: c1,
                        },
                        SlotEffect::Asymmetric {
                            detected_by: d2,
                            collision_ok: c2,
                        } => SlotEffect::Asymmetric {
                            detected_by: d1.iter().copied().filter(|r| d2.contains(r)).collect(),
                            collision_ok: c1 || c2,
                        },
                    }
                }
            });
        }
        merged.expect("at least one channel")
    }

    /// Per-receiver merge: the lowest-indexed channel delivering a valid
    /// frame wins; detection requires all channels to fail.
    fn transmit(&mut self, ctx: &TxCtx, payload: &Bytes) -> TxOutcome {
        let mut out = SlotOutcome::new();
        self.transmit_into(ctx, payload, &mut out);
        out.into_outcome()
    }

    /// Same per-receiver merge, filling `out` in place: each channel fills
    /// its own reusable scratch buffer, then each receiver takes the
    /// payload of the first channel it accepted; receivers that accepted a
    /// payload other than the first one become overrides.
    fn transmit_into(&mut self, ctx: &TxCtx, payload: &Bytes, out: &mut SlotOutcome) {
        for (channel, scratch) in self.channels.iter_mut().zip(self.scratch.iter_mut()) {
            channel.transmit_into(ctx, payload, scratch);
        }
        let n = ctx.n_nodes;
        out.set_uniform(n, Bytes::new(), nodes_mask(n));
        for rx in 0..n {
            if let Some(p) = self.scratch.iter().find_map(|o| o.received(rx)) {
                out.accept(rx, p);
            }
        }
        out.collision_ok = self.scratch.iter().any(|o| o.collision_ok);
        out.class = classify_received((0..n).map(|rx| out.received(rx)), payload, ctx.sender);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{NoFaults, Reception, SlotFaultClass};
    use crate::time::{NodeId, RoundIndex};

    fn ctx() -> TxCtx {
        TxCtx {
            round: RoundIndex::new(3),
            sender: NodeId::new(2),
            n_nodes: 4,
            abs_slot: 13,
        }
    }

    fn benign_channel() -> Box<dyn FaultPipeline> {
        Box::new(|_: &TxCtx| SlotEffect::Benign)
    }

    fn healthy_channel() -> Box<dyn FaultPipeline> {
        Box::new(NoFaults)
    }

    #[test]
    fn single_channel_failure_is_masked() {
        let mut bus = ReplicatedBus::new(vec![benign_channel(), healthy_channel()]);
        let out = bus.transmit(&ctx(), &Bytes::from_static(b"\x0f"));
        assert_eq!(out.class, SlotFaultClass::Correct);
        assert!(out.collision_ok);
        assert!(out.receptions.iter().all(Reception::is_valid));
    }

    #[test]
    fn slot_fails_only_when_all_channels_fail() {
        let mut bus = ReplicatedBus::new(vec![benign_channel(), benign_channel()]);
        let out = bus.transmit(&ctx(), &Bytes::from_static(b"\x0f"));
        assert_eq!(out.class, SlotFaultClass::Benign);
        assert!(!out.collision_ok);
    }

    #[test]
    fn asymmetric_faults_intersect_across_channels() {
        // Receiver 0 blind on channel A, receivers 0 and 3 blind on B:
        // only receiver 0 is blind on both.
        let a = |_: &TxCtx| SlotEffect::Asymmetric {
            detected_by: vec![0],
            collision_ok: true,
        };
        let b = |_: &TxCtx| SlotEffect::Asymmetric {
            detected_by: vec![0, 3],
            collision_ok: true,
        };
        let mut bus = ReplicatedBus::new(vec![Box::new(a), Box::new(b)]);
        let out = bus.transmit(&ctx(), &Bytes::from_static(b"\x05"));
        assert_eq!(out.receptions[0], Reception::Detected);
        assert!(out.receptions[3].is_valid());
        assert_eq!(out.class, SlotFaultClass::Asymmetric);
    }

    #[test]
    fn cross_channel_malicious_is_resolved_per_receiver() {
        // Channel A delivers a corrupted-but-valid frame; channel B is
        // healthy. Receivers accept channel A (lowest index): the fault
        // stays symmetric malicious — redundancy does not help against
        // undetectable corruption.
        let a = |_: &TxCtx| SlotEffect::SymmetricMalicious {
            payload: Bytes::from_static(b"\xff"),
        };
        let mut bus = ReplicatedBus::new(vec![Box::new(a), healthy_channel()]);
        let out = bus.transmit(&ctx(), &Bytes::from_static(b"\x00"));
        assert_eq!(out.class, SlotFaultClass::SymmetricMalicious);
        assert!(out
            .receptions
            .iter()
            .all(|r| *r == Reception::Valid(Bytes::from_static(b"\xff"))));
    }

    #[test]
    fn asymmetric_plus_malicious_creates_mixed_receptions() {
        // The case a single SlotEffect cannot express: receiver 0 detects
        // channel A and falls back to channel B's corrupted frame, the
        // rest accept channel A's true frame. The per-receiver merge
        // represents it exactly, classified as asymmetric.
        let a = |_: &TxCtx| SlotEffect::Asymmetric {
            detected_by: vec![0],
            collision_ok: true,
        };
        let b = |_: &TxCtx| SlotEffect::SymmetricMalicious {
            payload: Bytes::from_static(b"\xee"),
        };
        let mut bus = ReplicatedBus::new(vec![Box::new(a), Box::new(b)]);
        let true_payload = Bytes::from_static(b"\x11");
        let out = bus.transmit(&ctx(), &true_payload);
        assert_eq!(
            out.receptions[0],
            Reception::Valid(Bytes::from_static(b"\xee"))
        );
        assert_eq!(out.receptions[1], Reception::Valid(true_payload.clone()));
        // Exact class: some receivers hold a wrong frame, none detected a
        // fault -> the outcome classifier reports undetectable corruption.
        assert_eq!(out.class, SlotFaultClass::SymmetricMalicious);
    }

    #[test]
    fn effect_level_merge_matches_common_cases() {
        let mut bus = ReplicatedBus::new(vec![benign_channel(), healthy_channel()]);
        assert_eq!(bus.effect(&ctx()), SlotEffect::Correct);
        let mut bus = ReplicatedBus::new(vec![benign_channel(), benign_channel()]);
        assert_eq!(bus.effect(&ctx()), SlotEffect::Benign);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn empty_bus_rejected() {
        let _ = ReplicatedBus::new(vec![]);
    }
}
