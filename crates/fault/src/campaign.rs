//! The Sec. 8 validation campaign: experiment classes, seeded repetitions,
//! and machine-checked verdicts.
//!
//! The paper validates the protocols with physical fault injection on a
//! four-node cluster, repeating each *experiment class* 100 times:
//!
//! * bursty faults of one slot, two slots, and two TDMA rounds, starting in
//!   any of the four sending slots (12 classes);
//! * a penalty/reward stepping class: a fault in a node's sending slot
//!   every second round for 20 rounds, so one of the two counters must
//!   step at every round;
//! * one malicious node disseminating random local syndromes (4 classes,
//!   one per possible culprit);
//! * clique formation: one node partitioned from the rest of the cluster,
//!   to be detected and excluded by the membership protocol.
//!
//! Every experiment here is checked by the property oracles of
//! [`tt_core::properties`] plus class-specific expectations, and is
//! reproducible from `(class, seed)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use std::sync::{Arc, OnceLock};

use tt_core::properties::{check_diag_cluster, checkable_rounds, PropertyReport};
use tt_core::{DiagJob, MembershipJob, ProtocolConfig};
use tt_sim::{
    CancellationToken, Cluster, ClusterBuilder, MetricsSink, NodeId, NoopSink, NoopTraceSink,
    RoundIndex, TraceSink,
};

use crate::burst::Burst;
use crate::injector::DisturbanceNode;
use crate::malicious::{CliquePartition, RandomSyndromeJob};

/// One experiment class of the validation campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExperimentClass {
    /// A bus burst of `len_slots` slots starting in sending slot
    /// `start_slot` (0-based) of a randomly drawn round.
    Burst {
        /// Burst length in slots (1, 2, or `2N` for two TDMA rounds).
        len_slots: u64,
        /// The sending slot the burst starts in.
        start_slot: usize,
    },
    /// Faults in `node`'s sending slot every second round for 20 rounds;
    /// penalty/reward counters must step every round.
    PenaltyRewardStepping {
        /// The periodically faulty node.
        node: NodeId,
    },
    /// `node`'s diagnostic job disseminates random local syndromes; no
    /// correct node may be diagnosed faulty.
    MaliciousSyndromes {
        /// The malicious node.
        node: NodeId,
    },
    /// `victim` is partitioned from the rest of the cluster for one round;
    /// the membership protocol must exclude the minority clique.
    CliqueFormation {
        /// The partitioned node.
        victim: NodeId,
    },
}

impl ExperimentClass {
    /// A short human-readable label (used in campaign summaries).
    pub fn label(&self) -> String {
        match self {
            ExperimentClass::Burst {
                len_slots,
                start_slot,
            } => format!("burst/{len_slots}slots@s{start_slot}"),
            ExperimentClass::PenaltyRewardStepping { node } => format!("pr-stepping/{node}"),
            ExperimentClass::MaliciousSyndromes { node } => format!("malicious/{node}"),
            ExperimentClass::CliqueFormation { victim } => format!("clique/{victim}"),
        }
    }
}

/// The full set of Sec. 8 experiment classes for an `n`-node cluster.
pub fn sec8_classes(n: usize) -> Vec<ExperimentClass> {
    let mut classes = Vec::new();
    for len in [1, 2, 2 * n as u64] {
        for start in 0..n {
            classes.push(ExperimentClass::Burst {
                len_slots: len,
                start_slot: start,
            });
        }
    }
    classes.push(ExperimentClass::PenaltyRewardStepping {
        node: NodeId::new(2),
    });
    for node in NodeId::all(n) {
        classes.push(ExperimentClass::MaliciousSyndromes { node });
    }
    classes.push(ExperimentClass::CliqueFormation {
        victim: NodeId::new(1),
    });
    classes
}

/// Extended experiment classes beyond the paper's Sec. 8 set: the same
/// oracle discipline applied to the newer substrates (bit-level corruption,
/// random-subset SOS faults, every clique victim, scenario survival).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExtendedClass {
    /// Frame bit flips at the given per-slot probability for 20 rounds;
    /// CRC-grounded detection, Theorem 1 oracles.
    BitNoise {
        /// Per-slot hit probability in percent (integer, for hashability).
        percent: u8,
    },
    /// A random strict receiver subset misses one sender's frames for one
    /// round (SOS-like); consistency is required, detection is not.
    RandomSos {
        /// The affected sender.
        sender: NodeId,
    },
    /// Clique formation with an arbitrary victim (the paper used node 1).
    Clique {
        /// The partitioned node.
        victim: NodeId,
    },
}

impl ExtendedClass {
    /// A short human-readable label.
    pub fn label(&self) -> String {
        match self {
            ExtendedClass::BitNoise { percent } => format!("bitnoise/{percent}%"),
            ExtendedClass::RandomSos { sender } => format!("sos/{sender}"),
            ExtendedClass::Clique { victim } => format!("clique/{victim}"),
        }
    }
}

/// The extended class list for an `n`-node cluster.
pub fn extended_classes(n: usize) -> Vec<ExtendedClass> {
    let mut out = vec![
        ExtendedClass::BitNoise { percent: 5 },
        ExtendedClass::BitNoise { percent: 15 },
    ];
    for node in NodeId::all(n) {
        out.push(ExtendedClass::RandomSos { sender: node });
        out.push(ExtendedClass::Clique { victim: node });
    }
    out
}

/// Runs one extended experiment.
pub fn run_extended(class: ExtendedClass, n: usize, seed: u64) -> ExperimentOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let fault_round = RoundIndex::new(rng.gen_range(5..15));
    let lag = 3;
    let all: Vec<NodeId> = NodeId::all(n).collect();
    match class {
        ExtendedClass::BitNoise { percent } => {
            let from = fault_round.as_u64() * n as u64;
            let until = from + 20 * n as u64;
            let gate = move |ctx: &tt_sim::TxCtx, _: &mut StdRng| {
                (ctx.abs_slot < from || ctx.abs_slot >= until)
                    .then_some(tt_sim::SlotEffect::Correct)
            };
            let pipeline = DisturbanceNode::new(seed)
                .with(gate)
                .with(crate::bitflip::BitNoise::new(percent as f64 / 100.0, 3));
            let mut cluster = diag_cluster(n, pipeline);
            let total = fault_round.as_u64() + 20 + 10;
            cluster.run_rounds(total);
            let report = check_diag_cluster(&cluster, &all, checkable_rounds(total, lag));
            let passed = report.ok();
            let notes = if passed {
                vec![]
            } else {
                vec![format!("{:?}", report.violations)]
            };
            ExperimentOutcome {
                label: class.label(),
                seed,
                passed,
                report,
                notes,
                mean_detection_latency: None,
            }
        }
        ExtendedClass::RandomSos { sender } => {
            let pipeline =
                DisturbanceNode::new(seed).with(crate::malicious::AsymmetricDisturbance::new(
                    sender,
                    fault_round,
                    1,
                    crate::malicious::AsymmetricTarget::RandomSubset,
                ));
            let mut cluster = diag_cluster(n, pipeline);
            let total = fault_round.as_u64() + 12;
            cluster.run_rounds(total);
            let report = check_diag_cluster(&cluster, &all, checkable_rounds(total, lag));
            ExperimentOutcome {
                label: class.label(),
                seed,
                passed: report.ok(),
                notes: if report.ok() {
                    vec![]
                } else {
                    vec![format!("{:?}", report.violations)]
                },
                report,
                mean_detection_latency: None,
            }
        }
        ExtendedClass::Clique { victim } => {
            run_experiment(ExperimentClass::CliqueFormation { victim }, n, seed)
        }
    }
}

/// The verdict of one experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentOutcome {
    /// Label of the class this run belongs to (see
    /// [`ExperimentClass::label`] / [`ExtendedClass::label`]).
    pub label: String,
    /// The seed that reproduces this run exactly.
    pub seed: u64,
    /// Whether all expectations held.
    pub passed: bool,
    /// The property-oracle report (for diagnostic-protocol classes).
    pub report: PropertyReport,
    /// Human-readable details on any failure.
    pub notes: Vec<String>,
    /// Mean detection latency in rounds (fault occurrence to decision),
    /// where the class has a meaningful notion of it (burst classes).
    pub mean_detection_latency: Option<f64>,
}

fn base_config(n: usize) -> ProtocolConfig {
    // Large thresholds: validation observes detection, not isolation.
    ProtocolConfig::builder(n)
        .penalty_threshold(1_000_000)
        .reward_threshold(1_000_000)
        .build()
        .expect("static config is valid")
}

/// A round length close to the paper's 2.5 ms that divides into `n` equal
/// slots (the builder default only suits divisors of 2 500 000 ns).
fn round_for(n: usize) -> tt_sim::Nanos {
    tt_sim::Nanos::from_nanos(2_500_000 - (2_500_000 % n as u64))
}

/// The observability sinks attached to every cluster an experiment runner
/// builds. [`ExperimentSinks::noop`] (the default) keeps the campaign hot
/// path exactly as before — disabled sinks cost nothing; `ttdiag serve`
/// passes streaming sinks here so campaign experiments feed the live
/// `metrics`/`spans` subscribers.
#[derive(Clone)]
pub struct ExperimentSinks {
    /// Metrics sink cloned into every experiment cluster.
    pub metrics: Arc<dyn MetricsSink>,
    /// Trace sink cloned into every experiment cluster.
    pub trace: Arc<dyn TraceSink>,
}

impl std::fmt::Debug for ExperimentSinks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentSinks")
            .field("metrics_enabled", &self.metrics.enabled())
            .field("trace_enabled", &self.trace.enabled())
            .finish()
    }
}

impl ExperimentSinks {
    /// Disabled sinks (shared process-wide, so per-experiment cost is two
    /// reference-count bumps).
    pub fn noop() -> Self {
        static NOOP: OnceLock<ExperimentSinks> = OnceLock::new();
        NOOP.get_or_init(|| ExperimentSinks {
            metrics: Arc::new(NoopSink),
            trace: Arc::new(NoopTraceSink),
        })
        .clone()
    }
}

impl Default for ExperimentSinks {
    fn default() -> Self {
        Self::noop()
    }
}

fn diag_cluster(n: usize, pipeline: DisturbanceNode) -> Cluster {
    diag_cluster_cancellable(
        n,
        pipeline,
        CancellationToken::new(),
        &ExperimentSinks::noop(),
    )
}

fn diag_cluster_cancellable(
    n: usize,
    pipeline: DisturbanceNode,
    token: CancellationToken,
    sinks: &ExperimentSinks,
) -> Cluster {
    let cfg = base_config(n);
    ClusterBuilder::new(n)
        .round_length(round_for(n))
        .cancel_token(token)
        .metrics_sink(sinks.metrics.clone())
        .trace_sink(sinks.trace.clone())
        .build_with_jobs(
            move |id| Box::new(DiagJob::new(id, cfg.clone())),
            Box::new(pipeline),
        )
}

/// Runs one experiment and checks its expectations.
pub fn run_experiment(class: ExperimentClass, n: usize, seed: u64) -> ExperimentOutcome {
    run_experiment_observed(
        class,
        n,
        seed,
        &CancellationToken::new(),
        &ExperimentSinks::noop(),
    )
    .expect("a fresh token never cancels")
}

/// Like [`run_experiment`], but observing `token` at round granularity and
/// attaching `sinks` to the experiment cluster. Once the token is
/// cancelled the simulation stops at the next round boundary and `None` is
/// returned (a partially executed experiment has no meaningful verdict):
/// supervisors use this to enforce watchdog deadlines on hung or oversized
/// experiments without killing the hosting thread. The sinks stream
/// metrics events and provenance spans out while the experiment runs
/// (`ttdiag serve` live feeds); [`ExperimentSinks::noop`] attaches none.
pub fn run_experiment_observed(
    class: ExperimentClass,
    n: usize,
    seed: u64,
    token: &CancellationToken,
    sinks: &ExperimentSinks,
) -> Option<ExperimentOutcome> {
    let mut rng = StdRng::seed_from_u64(seed);
    let fault_round = RoundIndex::new(rng.gen_range(5..15));
    let lag = 3; // conservative send alignment in all campaign configs
    let mut notes = Vec::new();
    let all: Vec<NodeId> = NodeId::all(n).collect();

    match class {
        ExperimentClass::Burst {
            len_slots,
            start_slot,
        } => {
            let pipeline = DisturbanceNode::new(seed).with(Burst::in_round(
                fault_round,
                start_slot,
                len_slots,
                n,
            ));
            let mut cluster = diag_cluster_cancellable(n, pipeline, token.clone(), sinks);
            let total = fault_round.as_u64() + len_slots.div_ceil(n as u64) + 10;
            if cluster.run_rounds(total) < total {
                return None;
            }
            let report = check_diag_cluster(&cluster, &all, checkable_rounds(total, lag));
            let mut passed = report.ok();
            // The burst must actually have been detected: every benign slot
            // appears as a conviction in the (consistent) health vectors.
            let sample: &DiagJob = cluster.job_as(all[0]).expect("diag job");
            let mut latencies: Vec<f64> = Vec::new();
            for rec in cluster.trace().records() {
                let verdict = sample.health_for(rec.round);
                match verdict {
                    Some(h) if !h.health[rec.sender.index()] => {
                        latencies.push((h.decided_at.as_u64() - rec.round.as_u64()) as f64);
                    }
                    _ => {
                        passed = false;
                        notes.push(format!(
                            "benign slot {}@{} not convicted",
                            rec.sender, rec.round
                        ));
                    }
                }
            }
            let mean_detection_latency = (!latencies.is_empty())
                .then(|| latencies.iter().sum::<f64>() / latencies.len() as f64);
            if report.rounds_checked == 0 {
                passed = false;
                notes.push("no rounds checked".into());
            }
            Some(ExperimentOutcome {
                label: class.label(),
                seed,
                passed,
                report,
                notes,
                mean_detection_latency,
            })
        }
        ExperimentClass::PenaltyRewardStepping { node } => {
            // A fault in `node`'s slot every second round for 20 rounds.
            let first = fault_round;
            let stepper = move |ctx: &tt_sim::TxCtx, _: &mut StdRng| {
                let r = ctx.round.as_u64();
                let active = r >= first.as_u64() && r < first.as_u64() + 20;
                (active && ctx.sender == node && (r - first.as_u64()).is_multiple_of(2))
                    .then_some(tt_sim::SlotEffect::Benign)
            };
            let pipeline = DisturbanceNode::new(seed).with(stepper);
            let mut cluster = diag_cluster_cancellable(n, pipeline, token.clone(), sinks);
            let total = first.as_u64() + 20 + 10;
            if cluster.run_rounds(total) < total {
                return None;
            }
            let report = check_diag_cluster(&cluster, &all, checkable_rounds(total, lag));
            let mut passed = report.ok();
            for &obs in &all {
                let job: &DiagJob = cluster.job_as(obs).expect("diag job");
                // 10 faults, criticality 1, thresholds never reached.
                if job.penalty(node) != 10 {
                    passed = false;
                    notes.push(format!("{obs}: penalty {} != 10", job.penalty(node)));
                }
                // Every round inside the window stepped exactly one of the
                // two counters: faulty rounds convicted, healthy acquitted.
                for d in 0..20u64 {
                    let dr = first + d;
                    let Some(h) = job.health_for(dr) else {
                        passed = false;
                        notes.push(format!("{obs}: no verdict for {dr}"));
                        continue;
                    };
                    let expect_faulty = d % 2 == 0;
                    if h.health[node.index()] == expect_faulty {
                        passed = false;
                        notes.push(format!("{obs}: wrong verdict at {dr}"));
                    }
                }
            }
            Some(ExperimentOutcome {
                label: class.label(),
                seed,
                passed,
                report,
                notes,
                mean_detection_latency: None,
            })
        }
        ExperimentClass::MaliciousSyndromes { node } => {
            let cfg = base_config(n);
            let mal_seed = rng.gen();
            let mut cluster = ClusterBuilder::new(n)
                .round_length(round_for(n))
                .cancel_token(token.clone())
                .metrics_sink(sinks.metrics.clone())
                .trace_sink(sinks.trace.clone())
                .build_with_jobs(
                    |id| {
                        if id == node {
                            Box::new(RandomSyndromeJob::new(id, n, mal_seed))
                        } else {
                            Box::new(DiagJob::new(id, cfg.clone()))
                        }
                    },
                    Box::new(DisturbanceNode::new(seed)),
                );
            let total = 30;
            if cluster.run_rounds(total) < total {
                return None;
            }
            let obedient: Vec<NodeId> = all.iter().copied().filter(|&x| x != node).collect();
            let report = check_diag_cluster(&cluster, &obedient, checkable_rounds(total, lag));
            let mut passed = report.ok();
            // Stronger statement: nobody is ever convicted (the bus is
            // clean; random syndromes alone cannot frame a correct node).
            for &obs in &obedient {
                let job: &DiagJob = cluster.job_as(obs).expect("diag job");
                if !job.health_log().iter().all(|h| h.health.iter().all(|&b| b)) {
                    passed = false;
                    notes.push(format!("{obs}: convicted a correct node"));
                }
            }
            Some(ExperimentOutcome {
                label: class.label(),
                seed,
                passed,
                report,
                notes,
                mean_detection_latency: None,
            })
        }
        ExperimentClass::CliqueFormation { victim } => {
            let cfg = base_config(n);
            let pipeline =
                DisturbanceNode::new(seed).with(CliquePartition::new(victim, fault_round, 1));
            let mut cluster = ClusterBuilder::new(n)
                .round_length(round_for(n))
                .cancel_token(token.clone())
                .metrics_sink(sinks.metrics.clone())
                .trace_sink(sinks.trace.clone())
                .build_with_jobs(
                    |id| Box::new(MembershipJob::new(id, cfg.clone())),
                    Box::new(pipeline),
                );
            let total = fault_round.as_u64() + 2 * lag + 6;
            if cluster.run_rounds(total) < total {
                return None;
            }
            let mut passed = true;
            let majority: Vec<NodeId> = all.iter().copied().filter(|&x| x != victim).collect();
            let mut views = Vec::new();
            for &obs in &all {
                let job: &MembershipJob = cluster.job_as(obs).expect("membership job");
                views.push((obs, job.current_view().members.clone()));
            }
            for (obs, view) in &views {
                if view.contains(&victim) {
                    passed = false;
                    notes.push(format!("{obs}: victim still in view"));
                }
                if view.len() != n - 1 {
                    passed = false;
                    notes.push(format!("{obs}: unexpected view {view:?}"));
                }
            }
            if !views.windows(2).all(|w| w[0].1 == w[1].1) {
                passed = false;
                notes.push("views disagree across nodes".into());
            }
            // Liveness: exclusion within two protocol executions.
            for &obs in &majority {
                let job: &MembershipJob = cluster.job_as(obs).expect("membership job");
                if let Some(v) = job.views().last() {
                    if v.diagnosed.as_u64() > fault_round.as_u64() + 2 * lag {
                        passed = false;
                        notes.push(format!("{obs}: late view change at {:?}", v.diagnosed));
                    }
                }
            }
            Some(ExperimentOutcome {
                label: class.label(),
                seed,
                passed,
                report: PropertyReport::default(),
                notes,
                mean_detection_latency: None,
            })
        }
    }
}

/// Aggregate result of a campaign.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CampaignResult {
    /// All individual outcomes.
    pub outcomes: Vec<ExperimentOutcome>,
}

impl CampaignResult {
    /// `(label, passed, total)` per class, in first-seen order.
    pub fn summary(&self) -> Vec<(String, usize, usize)> {
        let mut rows: Vec<(String, usize, usize)> = Vec::new();
        for o in &self.outcomes {
            let label = o.label.clone();
            match rows.iter_mut().find(|(l, _, _)| *l == label) {
                Some((_, p, t)) => {
                    *t += 1;
                    if o.passed {
                        *p += 1;
                    }
                }
                None => rows.push((label, usize::from(o.passed), 1)),
            }
        }
        rows
    }

    /// Whether every experiment passed.
    pub fn all_passed(&self) -> bool {
        self.outcomes.iter().all(|o| o.passed)
    }

    /// Total number of injection experiments.
    pub fn total(&self) -> usize {
        self.outcomes.len()
    }
}

/// Derives the seed of repetition `rep` of class index `class_idx` from a
/// campaign's base seed.
///
/// This is the *only* seed derivation used by campaign runners (the
/// sequential [`run_campaign`] and the supervised executor), so their
/// outcomes are bit-identical for the same `(classes, n, reps, base_seed)`.
pub fn experiment_seed(base_seed: u64, class_idx: usize, rep: u64) -> u64 {
    base_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((class_idx as u64) << 32)
        .wrapping_add(rep)
}

/// Runs `reps` seeded repetitions of each class.
pub fn run_campaign(
    classes: &[ExperimentClass],
    n: usize,
    reps: u64,
    base_seed: u64,
) -> CampaignResult {
    let mut result = CampaignResult::default();
    for (ci, &class) in classes.iter().enumerate() {
        for rep in 0..reps {
            let seed = experiment_seed(base_seed, ci, rep);
            result.outcomes.push(run_experiment(class, n, seed));
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_list_matches_sec8() {
        let classes = sec8_classes(4);
        // 12 burst + 1 stepping + 4 malicious + 1 clique.
        assert_eq!(classes.len(), 18);
        assert_eq!(
            classes
                .iter()
                .filter(|c| matches!(c, ExperimentClass::Burst { .. }))
                .count(),
            12
        );
    }

    #[test]
    fn one_slot_burst_experiments_pass() {
        for start in 0..4 {
            let o = run_experiment(
                ExperimentClass::Burst {
                    len_slots: 1,
                    start_slot: start,
                },
                4,
                7,
            );
            assert!(o.passed, "start {start}: {:?}", o.notes);
        }
    }

    #[test]
    fn two_slot_burst_experiments_pass() {
        let o = run_experiment(
            ExperimentClass::Burst {
                len_slots: 2,
                start_slot: 3, // straddles a round boundary
            },
            4,
            11,
        );
        assert!(o.passed, "{:?}", o.notes);
    }

    #[test]
    fn two_round_blackout_experiments_pass() {
        for start in 0..4 {
            let o = run_experiment(
                ExperimentClass::Burst {
                    len_slots: 8,
                    start_slot: start,
                },
                4,
                13,
            );
            assert!(o.passed, "start {start}: {:?}", o.notes);
        }
    }

    #[test]
    fn pr_stepping_experiment_passes() {
        let o = run_experiment(
            ExperimentClass::PenaltyRewardStepping {
                node: NodeId::new(2),
            },
            4,
            17,
        );
        assert!(o.passed, "{:?}", o.notes);
    }

    #[test]
    fn malicious_experiments_pass_for_every_culprit() {
        for node in NodeId::all(4) {
            let o = run_experiment(ExperimentClass::MaliciousSyndromes { node }, 4, 19);
            assert!(o.passed, "{node}: {:?}", o.notes);
        }
    }

    #[test]
    fn clique_experiment_passes() {
        let o = run_experiment(
            ExperimentClass::CliqueFormation {
                victim: NodeId::new(1),
            },
            4,
            23,
        );
        assert!(o.passed, "{:?}", o.notes);
    }

    #[test]
    fn small_campaign_all_green() {
        let classes = sec8_classes(4);
        let result = run_campaign(&classes, 4, 2, 1);
        assert_eq!(result.total(), classes.len() * 2);
        assert!(
            result.all_passed(),
            "failures: {:?}",
            result
                .outcomes
                .iter()
                .filter(|o| !o.passed)
                .map(|o| (o.label.clone(), &o.notes))
                .collect::<Vec<_>>()
        );
        let summary = result.summary();
        assert_eq!(summary.len(), classes.len());
        assert!(summary.iter().all(|(_, p, t)| p == t));
    }

    #[test]
    fn outcomes_are_reproducible() {
        let class = ExperimentClass::Burst {
            len_slots: 2,
            start_slot: 1,
        };
        let a = run_experiment(class, 4, 99);
        let b = run_experiment(class, 4, 99);
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod extended_tests {
    use super::*;

    #[test]
    fn extended_class_list_covers_all_nodes() {
        let classes = extended_classes(4);
        assert_eq!(classes.len(), 2 + 4 + 4);
        assert!(classes.contains(&ExtendedClass::Clique {
            victim: NodeId::new(3)
        }));
    }

    #[test]
    fn bitnoise_classes_pass() {
        for percent in [5u8, 15] {
            for seed in [1u64, 2, 3] {
                let o = run_extended(ExtendedClass::BitNoise { percent }, 4, seed);
                assert!(o.passed, "{percent}% seed {seed}: {:?}", o.notes);
                assert_eq!(o.label, format!("bitnoise/{percent}%"));
            }
        }
    }

    #[test]
    fn random_sos_classes_pass() {
        for sender in NodeId::all(4) {
            for seed in [7u64, 8] {
                let o = run_extended(ExtendedClass::RandomSos { sender }, 4, seed);
                assert!(o.passed, "{sender} seed {seed}: {:?}", o.notes);
            }
        }
    }

    #[test]
    fn clique_classes_pass_for_every_victim() {
        for victim in NodeId::all(4) {
            let o = run_extended(ExtendedClass::Clique { victim }, 4, 11);
            assert!(o.passed, "{victim}: {:?}", o.notes);
        }
    }
}
