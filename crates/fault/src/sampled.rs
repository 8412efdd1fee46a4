//! λ-sampled transient workloads and their observed protocol outcomes.
//!
//! The Monte Carlo tuning sweeps (`tt_analysis::sweep`, `ttdiag tune
//! sweep`) estimate the Sec. 9 quantities — false-isolation probability,
//! time to (correct|incorrect) isolation, forgiveness counts — by running
//! many randomized fault campaigns per grid cell. This module provides the
//! two halves the sweep driver composes:
//!
//! * [`sampled_schedule`] turns a cell's Poisson transient rate `λ` into a
//!   concrete [`FaultSchedule`]: seeded per-round Bernoulli arrivals
//!   ([`tt_sim::sample_arrival_rounds`]) striking the **victim node**
//!   (node 1) as single-round benign faults, plus an optional genuinely
//!   **intermittent node** (node 2) firing with a fixed period — the one
//!   isolation the protocol is *supposed* to make;
//! * [`observe_schedules_batched`] executes a slate of same-sized
//!   schedules as lanes of one lockstep [`tt_core::BatchDiagJob`] (with
//!   per-subject criticalities applied) and returns what the sweep
//!   estimators need: isolation decisions and forgiveness counts.
//!   [`observe_schedule`] is its scalar equivalent, kept as the reference
//!   the tests cross-check the lockstep path against, observation for
//!   observation; the sweep itself has no scalar path (it validates its
//!   grid to shapes the lockstep engine runs).

use tt_core::{BatchDiagJob, DiagJob, ProtocolConfig};
use tt_sim::{ClusterBuilder, NodeId, SimError};

use crate::batch_eval::{lane_params, lane_plan};
use crate::explore::{
    max_fault_round, round_for, FaultSchedule, ProtocolUnderTest, ScheduledClass, ScheduledFault,
    LAG, MIN_FAULT_ROUND,
};

/// The node struck by the sampled external transients (1-based). Its
/// sending slot is 0, so it is "subject 0" in observation terms.
pub const VICTIM_NODE: u32 = 1;

/// The node carrying the optional genuinely intermittent fault (1-based).
pub const INTERMITTENT_NODE: u32 = 2;

/// One cell's workload parameters: the protocol configuration under test
/// plus the fault environment it is exposed to.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientCell {
    /// Cluster size (≥ 4 so the victim, the intermittent slot and at least
    /// two clean observers coexist).
    pub n: usize,
    /// Rounds per experiment.
    pub rounds: u64,
    /// Alg. 2 penalty threshold `P`.
    pub penalty_threshold: u64,
    /// Alg. 2 reward threshold `R`.
    pub reward_threshold: u64,
    /// Poisson transient rate `λ` (faults/hour) striking the victim.
    pub rate_per_hour: f64,
    /// Period (rounds) of the genuinely intermittent fault on node 2;
    /// 0 disables it.
    pub intermittent_period: u64,
}

impl TransientCell {
    /// The last round a sampled arrival may land in (mirrors the
    /// explorer's bound so every injection is diagnosable in budget).
    pub fn max_arrival_round(&self) -> u64 {
        max_fault_round(self.rounds)
    }
}

/// Draws one seeded experiment for `cell`: Poisson arrivals on the victim
/// in `[MIN_FAULT_ROUND, max_arrival_round]`, each a single-round benign
/// fault, plus the periodic intermittent fault when configured.
///
/// Deterministic per `(cell, seed)`; the RNG stream is consumed only by
/// the arrival sampling.
pub fn sampled_schedule(cell: &TransientCell, seed: u64) -> FaultSchedule {
    let last = cell.max_arrival_round();
    let arrivals = tt_sim::sample_arrival_rounds(
        cell.rate_per_hour,
        round_for(cell.n),
        MIN_FAULT_ROUND,
        last,
        seed,
    );
    let mut faults: Vec<ScheduledFault> = arrivals
        .into_iter()
        .map(|round| ScheduledFault {
            node: VICTIM_NODE,
            round,
            hits: 1,
            stride: 1,
            class: ScheduledClass::Benign,
        })
        .collect();
    if cell.intermittent_period > 0 && last >= MIN_FAULT_ROUND {
        let hits = (last - MIN_FAULT_ROUND) / cell.intermittent_period + 1;
        faults.push(ScheduledFault {
            node: INTERMITTENT_NODE,
            round: MIN_FAULT_ROUND,
            hits,
            stride: cell.intermittent_period,
            class: ScheduledClass::Benign,
        });
    }
    FaultSchedule {
        n: cell.n,
        rounds: cell.rounds,
        penalty_threshold: cell.penalty_threshold,
        reward_threshold: cell.reward_threshold,
        faults,
        protocol: ProtocolUnderTest::Diag,
    }
}

/// The first sampled arrival on the victim, if any.
pub fn first_victim_arrival(schedule: &FaultSchedule) -> Option<u64> {
    schedule
        .faults
        .iter()
        .filter(|f| f.node == VICTIM_NODE)
        .map(|f| f.round)
        .min()
}

/// Number of sampled arrivals on the victim.
pub fn victim_arrivals(schedule: &FaultSchedule) -> u64 {
    schedule
        .faults
        .iter()
        .filter(|f| f.node == VICTIM_NODE)
        .count() as u64
}

/// One isolation decision as seen by the reference observer (the last
/// node, which never carries a scheduled fault in sampled workloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedIsolation {
    /// Sending slot (0-based) of the isolated subject.
    pub subject: usize,
    /// The diagnosed round the conviction is about.
    pub diagnosed: u64,
    /// The round the decision was taken in (`diagnosed + LAG`).
    pub decided_at: u64,
}

/// What the sweep estimators extract from one executed schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScheduleObservation {
    /// Isolation decisions of the reference observer, in decision order.
    pub isolations: Vec<ObservedIsolation>,
    /// Forgiveness events summed over all observers and subjects.
    pub forgiveness: u64,
}

impl ScheduleObservation {
    /// The reference observer's earliest isolation of `subject`, if any.
    pub fn isolation_of(&self, subject: usize) -> Option<ObservedIsolation> {
        self.isolations
            .iter()
            .find(|e| e.subject == subject)
            .copied()
    }
}

/// Executes every schedule through the lockstep engine with the given
/// per-subject criticalities and returns its observation, in input order.
///
/// All schedules must share one cluster size (`criticalities.len()`); the
/// sweep driver batches per cell, which guarantees this.
///
/// # Errors
///
/// Propagates the engine's validation errors (cluster size outside
/// `2..=64`, fault slot out of range). There is no fallback: a caller that
/// validated its schedules, as the sweep does, treats an error as a bug.
///
/// # Panics
///
/// Panics if `schedules` is empty or the sizes disagree.
pub fn observe_schedules_batched(
    schedules: &[FaultSchedule],
    criticalities: &[u64],
) -> Result<Vec<ScheduleObservation>, SimError> {
    let n = criticalities.len();
    assert!(!schedules.is_empty(), "at least one schedule");
    assert!(
        schedules.iter().all(|s| s.n == n),
        "one cluster size per batch"
    );
    let plans = schedules.iter().map(lane_plan).collect();
    let params: Vec<_> = schedules.iter().map(lane_params).collect();
    let rounds: Vec<u64> = schedules.iter().map(|s| s.rounds).collect();
    let mut batch = tt_sim::BatchCluster::new(n, plans)?;
    let mut job = BatchDiagJob::new(n, &params).with_criticalities(criticalities.to_vec());
    batch.run_lane_rounds(&rounds, &mut job);
    let observer = n - 1;
    Ok((0..schedules.len())
        .map(|lane| ScheduleObservation {
            isolations: job
                .isolation_events(lane, observer)
                .iter()
                .map(|ev| ObservedIsolation {
                    subject: ev.node.index(),
                    diagnosed: ev.diagnosed.as_u64(),
                    decided_at: ev.decided_at.as_u64(),
                })
                .collect(),
            forgiveness: job.forgiveness(lane),
        })
        .collect())
}

/// Scalar equivalent of [`observe_schedules_batched`] for one schedule:
/// a per-experiment cluster of [`DiagJob`]s with counter tracing, from
/// which forgiveness is recovered as every penalty transition `> 0 → 0`.
pub fn observe_schedule(schedule: &FaultSchedule, criticalities: &[u64]) -> ScheduleObservation {
    let cfg = ProtocolConfig::builder(schedule.n)
        .penalty_threshold(schedule.penalty_threshold)
        .reward_threshold(schedule.reward_threshold)
        .criticalities(criticalities.to_vec())
        .build()
        .expect("sampled schedule carries a valid protocol config");
    let mut cluster = ClusterBuilder::new(schedule.n)
        .round_length(round_for(schedule.n))
        .build_with_jobs(
            move |id| Box::new(DiagJob::new(id, cfg.clone()).with_counter_trace()),
            crate::explore::schedule_pipeline(schedule),
        );
    cluster.run_rounds(schedule.rounds);
    let n = schedule.n;
    let observer: &DiagJob = cluster
        .job_as(NodeId::from_slot(n - 1))
        .expect("every node runs a DiagJob");
    let isolations = observer
        .isolations()
        .iter()
        .map(|ev| ObservedIsolation {
            subject: ev.node.index(),
            diagnosed: ev.diagnosed.as_u64(),
            decided_at: ev.decided_at.as_u64(),
        })
        .collect();
    let mut forgiveness = 0u64;
    for id in NodeId::all(n) {
        let job: &DiagJob = cluster.job_as(id).expect("every node runs a DiagJob");
        let trace = job.counter_trace();
        for w in trace.windows(2) {
            for j in 0..n {
                if w[0].penalties[j] > 0 && w[1].penalties[j] == 0 {
                    forgiveness += 1;
                }
            }
        }
    }
    ScheduleObservation {
        isolations,
        forgiveness,
    }
}

/// The diagnosis lag between a diagnosed round and its decision round.
pub const DECISION_LAG: u64 = LAG;

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> TransientCell {
        TransientCell {
            n: 4,
            rounds: 48,
            penalty_threshold: 1,
            reward_threshold: 4,
            rate_per_hour: 72_000.0,
            intermittent_period: 6,
        }
    }

    #[test]
    fn sampled_schedules_are_deterministic_and_bounded() {
        let c = cell();
        let a = sampled_schedule(&c, 3);
        assert_eq!(a, sampled_schedule(&c, 3));
        assert_ne!(a, sampled_schedule(&c, 4));
        for f in &a.faults {
            assert!(f.round >= MIN_FAULT_ROUND);
            assert!(f.last_round() <= c.max_arrival_round());
        }
        assert!(
            a.faults.iter().any(|f| f.node == INTERMITTENT_NODE),
            "periodic fault present"
        );
    }

    #[test]
    fn batched_and_scalar_observations_agree() {
        let crit = vec![1u64; 4];
        let schedules: Vec<FaultSchedule> = (0..24).map(|s| sampled_schedule(&cell(), s)).collect();
        let batched = observe_schedules_batched(&schedules, &crit).expect("supported shape");
        for (s, b) in schedules.iter().zip(&batched) {
            assert_eq!(&observe_schedule(s, &crit), b, "{s:?}");
        }
    }

    fn two_arrival_schedule(gap: u64) -> FaultSchedule {
        FaultSchedule {
            n: 4,
            rounds: 32,
            penalty_threshold: 1,
            reward_threshold: 4,
            faults: [8, 8 + gap]
                .into_iter()
                .map(|round| ScheduledFault {
                    node: VICTIM_NODE,
                    round,
                    hits: 1,
                    stride: 1,
                    class: ScheduledClass::Benign,
                })
                .collect(),
            protocol: ProtocolUnderTest::Diag,
        }
    }

    #[test]
    fn arrivals_within_the_reward_window_isolate() {
        // Gap == R: the second transient lands before forgiveness, the
        // penalty exceeds P = s, the victim is (falsely) isolated with the
        // second arrival as its diagnosed round.
        let obs = observe_schedule(&two_arrival_schedule(4), &[1, 1, 1, 1]);
        let iso = obs.isolation_of(0).expect("victim isolated");
        assert_eq!(iso.diagnosed, 12);
        assert_eq!(iso.decided_at, 12 + DECISION_LAG);
    }

    #[test]
    fn arrivals_beyond_the_reward_window_forgive() {
        // Gap == R + 1: the reward run reaches R first, the pending
        // penalty is forgiven, and each arrival stands alone.
        let obs = observe_schedule(&two_arrival_schedule(5), &[1, 1, 1, 1]);
        assert_eq!(obs.isolation_of(0), None);
        // Every observer forgives the victim twice (once per arrival —
        // the second pending penalty is forgiven before the run ends).
        assert_eq!(obs.forgiveness, 2 * 4);
    }
}
