//! Batched (lockstep) evaluation of [`FaultSchedule`]s.
//!
//! [`execute_schedules_batched`] runs a whole slate of schedules as lanes
//! of one [`tt_sim::BatchCluster`] driven by a [`tt_core::BatchDiagJob`]
//! and returns each schedule's protocol-state fingerprint stream — the
//! same stream [`execute_schedule`](crate::explore::execute_schedule)
//! derives from a scalar run, byte for byte: CI's batched corpus replay and
//! `tests/batch_equivalence.rs` compare the two, which checks the
//! schedule-to-lane conversion ([`lane_plan`], [`lane_params`]) that the
//! Sec. 9 sweep's [`crate::sampled::observe_schedules_batched`] runs on.
//!
//! Schedules may differ in round budget and Alg. 2 thresholds (those are
//! per-lane); schedules of different cluster sizes are grouped into one
//! batch per size. Fault *effects* convert exactly: a malicious payload
//! byte becomes the accusation mask the scalar receivers would decode from
//! it, so lane syndromes match scalar interface variables bit for bit.

use std::collections::BTreeMap;

use tt_core::{BatchDiagJob, BatchLaneParams, Syndrome};
use tt_sim::{BatchCluster, BatchFaultPlan, LaneEffect, LaneFault, SimError};

use crate::explore::{FaultSchedule, ScheduledClass};

/// The per-lane Alg. 2 thresholds a schedule runs under.
pub fn lane_params(schedule: &FaultSchedule) -> BatchLaneParams {
    BatchLaneParams {
        penalty_threshold: schedule.penalty_threshold,
        reward_threshold: schedule.reward_threshold,
    }
}

/// Converts a schedule's fault list into a lane fault plan with identical
/// first-match-wins semantics and bus effects.
///
/// A malicious payload byte is pre-decoded into the syndrome mask every
/// scalar receiver would extract from it ([`Syndrome::decode`]). A
/// degenerate `stride == 0` (which the explorer never produces and the
/// scalar executor rejects with a division panic) is clamped to 1.
pub fn lane_plan(schedule: &FaultSchedule) -> BatchFaultPlan {
    let n = schedule.n;
    BatchFaultPlan::new(
        schedule
            .faults
            .iter()
            .map(|f| LaneFault {
                slot: (f.node - 1) as usize,
                first_round: f.round,
                hits: f.hits,
                stride: f.stride.max(1),
                effect: match &f.class {
                    ScheduledClass::Benign => LaneEffect::Benign,
                    ScheduledClass::Malicious { payload } => LaneEffect::Malicious {
                        mask: decode_mask(*payload, n),
                    },
                    ScheduledClass::Asymmetric { detected_by } => LaneEffect::Asymmetric {
                        detected_by: detected_by
                            .iter()
                            .filter(|&&i| i < n)
                            .fold(0u64, |m, &i| m | (1u64 << i)),
                        collision_ok: true,
                    },
                },
            })
            .collect(),
    )
}

/// The accusation mask scalar receivers decode from a malicious payload
/// byte.
fn decode_mask(payload: u8, n: usize) -> u64 {
    let syn = Syndrome::decode(&[payload], n);
    (0..n).fold(0u64, |m, j| m | (u64::from(syn.get(j)) << j))
}

/// Executes every schedule through the lockstep engine and returns its
/// fingerprint stream, in input order. Schedules are grouped by cluster
/// size into one batch each; lanes retire individually when their round
/// budget is spent.
///
/// The streams are byte-identical to the scalar
/// [`execute_schedule`](crate::explore::execute_schedule) fingerprints —
/// `tests/corpus_replay.rs` and the `batch_equivalence` proptest enforce
/// this on every run. Only the state streams are produced; the oracle
/// stack (Theorem 1, counter consistency, Alg. 2 invariants) stays on the
/// scalar path.
///
/// # Errors
///
/// Propagates the engine's validation errors for schedules the explorer
/// can't produce (cluster size outside `2..=64`, fault slot out of range),
/// and rejects schedules targeting a protocol variant other than
/// [`ProtocolUnderTest::Diag`](crate::explore::ProtocolUnderTest) — the
/// lockstep engine models `DiagJob` lanes only, and silently producing
/// diag fingerprints for a membership or lowlat schedule would pass off a
/// different protocol's state stream as the scalar one.
pub fn execute_schedules_batched(schedules: &[FaultSchedule]) -> Result<Vec<Vec<u64>>, SimError> {
    use crate::explore::ProtocolUnderTest;
    if let Some(s) = schedules
        .iter()
        .find(|s| s.protocol != ProtocolUnderTest::Diag)
    {
        return Err(SimError::InvalidConfig(format!(
            "batched evaluation is DiagJob-only; got a {} schedule",
            s.protocol.as_str()
        )));
    }
    let mut out: Vec<Vec<u64>> = vec![Vec::new(); schedules.len()];
    let mut by_n: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (idx, s) in schedules.iter().enumerate() {
        by_n.entry(s.n).or_default().push(idx);
    }
    for (n, idxs) in by_n {
        let plans: Vec<BatchFaultPlan> = idxs.iter().map(|&i| lane_plan(&schedules[i])).collect();
        let params: Vec<BatchLaneParams> =
            idxs.iter().map(|&i| lane_params(&schedules[i])).collect();
        let rounds: Vec<u64> = idxs.iter().map(|&i| schedules[i].rounds).collect();
        let max_rounds = rounds.iter().copied().max().unwrap_or(0);
        let mut batch = BatchCluster::new(n, plans)?;
        let mut job = BatchDiagJob::new(n, &params).with_fingerprints(max_rounds);
        batch.run_lane_rounds(&rounds, &mut job);
        for (lane, &i) in idxs.iter().enumerate() {
            out[i] = job.fingerprints(lane).to_vec();
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{
        execute_schedule, seeded_schedule, ExploreConfig, ProtocolUnderTest, ScheduledFault,
    };

    #[test]
    fn batched_fingerprints_match_scalar_on_random_schedules() {
        let cfg = ExploreConfig::default();
        let schedules: Vec<FaultSchedule> =
            (0..32).map(|seed| seeded_schedule(&cfg, seed)).collect();
        let batched = execute_schedules_batched(&schedules).expect("valid schedules");
        for (s, fps) in schedules.iter().zip(&batched) {
            assert_eq!(&execute_schedule(s).fingerprints, fps, "{s:?}");
        }
    }

    #[test]
    fn mixed_sizes_and_budgets_group_correctly() {
        let mut schedules = Vec::new();
        for (seed, n, rounds) in [(1u64, 4usize, 16u64), (2, 5, 24), (3, 4, 30), (4, 6, 12)] {
            let cfg = ExploreConfig {
                n,
                rounds,
                ..ExploreConfig::default()
            };
            schedules.push(seeded_schedule(&cfg, seed));
        }
        let batched = execute_schedules_batched(&schedules).expect("valid schedules");
        for (s, fps) in schedules.iter().zip(&batched) {
            assert_eq!(fps.len() as u64, s.rounds - 3, "one print per diagnosis");
            assert_eq!(&execute_schedule(s).fingerprints, fps, "{s:?}");
        }
    }

    #[test]
    fn intermittent_strides_match_scalar() {
        let s = FaultSchedule {
            n: 4,
            rounds: 20,
            penalty_threshold: 3,
            reward_threshold: 2,
            faults: vec![ScheduledFault {
                node: 2,
                round: 5,
                hits: 4,
                stride: 3,
                class: ScheduledClass::Benign,
            }],
            protocol: ProtocolUnderTest::Diag,
        };
        let batched = execute_schedules_batched(std::slice::from_ref(&s)).unwrap();
        assert_eq!(execute_schedule(&s).fingerprints, batched[0]);
    }

    #[test]
    fn variant_schedules_are_rejected_not_misfingerprinted() {
        let s = FaultSchedule {
            n: 4,
            rounds: 12,
            penalty_threshold: 3,
            reward_threshold: 2,
            faults: Vec::new(),
            protocol: ProtocolUnderTest::Membership,
        };
        let err = execute_schedules_batched(std::slice::from_ref(&s)).unwrap_err();
        assert!(err.to_string().contains("membership"), "{err}");
    }

    #[test]
    fn oversized_cluster_is_rejected_not_miscomputed() {
        let s = FaultSchedule {
            n: 65,
            rounds: 12,
            penalty_threshold: 3,
            reward_threshold: 2,
            faults: Vec::new(),
            protocol: ProtocolUnderTest::Diag,
        };
        assert!(execute_schedules_batched(std::slice::from_ref(&s)).is_err());
    }
}
