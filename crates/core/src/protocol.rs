//! The on-line diagnostic protocol (paper Sec. 5, Alg. 1).
//!
//! [`DiagJob`] is the diagnostic job `diag_i` that runs once per round on
//! every node. Each activation interleaves the phases of several pipelined
//! protocol instances (paper Fig. 1):
//!
//! 1. **Local detection** — read the validity bits of the diagnostic
//!    messages; read alignment forms the local syndrome of the previous
//!    round.
//! 2. **Dissemination** — write the (send-aligned) local syndrome into the
//!    outgoing interface variable.
//! 3. **Aggregation** — read all local syndromes (with read alignment) into
//!    the diagnostic matrix for the diagnosed round; rows whose carrying
//!    message was invalid become ε.
//! 4. **Analysis** — hybrid-majority vote each matrix column into the
//!    **consistent health vector**, falling back to the local collision
//!    detector when a column is undecidable (communication blackout).
//! 5. **Update counters** — feed the health vector to the penalty/reward
//!    algorithm and isolate nodes whose penalty exceeded the threshold.
//!
//! The node's *own* matrix row is taken from its locally buffered copy of
//! the syndrome it disseminated — a node always knows what it sent, even if
//! the bus corrupted the transmission. This is what lets an obedient node
//! keep diagnosing *others* correctly during a total communication blackout
//! (Lemma 3), while self-diagnosis falls back to the collision detector.

use serde::{Deserialize, Serialize};

use tt_sim::{
    CauseId, Job, JobCtx, MetricsEvent, MetricsSink, NodeId, RoundIndex, SpanEvent, TraceSink,
    UpdateKind,
};

use crate::alignment::{diagnosis_lag, syndrome_reference_round};
use crate::config::ProtocolConfig;
use crate::matrix::{health_mask, DiagnosticMatrix};
use crate::penalty::{PenaltyReward, PrTransition, ReintegrationPolicy};
use crate::pipeline::{Aligned, AlignmentBuffers};
use crate::syndrome::{Syndrome, SyndromeRow};

/// Emits the contested [`MetricsEvent::VoteTally`]s of one analysis phase
/// (shared by [`DiagJob`] and the membership variant).
pub(crate) fn emit_vote_tallies(
    sink: &dyn MetricsSink,
    matrix: &DiagnosticMatrix,
    node: NodeId,
    decided_at: RoundIndex,
    diagnosed: RoundIndex,
) {
    for subject in NodeId::all(matrix.n_nodes()) {
        let t = matrix.tally(subject);
        if t.contested() {
            sink.emit(&MetricsEvent::VoteTally {
                node,
                decided_at,
                diagnosed,
                subject,
                ok: t.ok,
                faulty: t.faulty,
                epsilon: t.epsilon,
                decided: t.outcome.decided(),
            });
        }
    }
}

/// Forwards one p/r counter transition to the metrics sink (shared by
/// [`DiagJob`] and the membership variant).
pub(crate) fn emit_pr_transition(
    sink: &dyn MetricsSink,
    transition: PrTransition,
    node: NodeId,
    decided_at: RoundIndex,
    diagnosed: RoundIndex,
) {
    let event = match transition {
        PrTransition::Penalized { subject, penalty } => MetricsEvent::PenaltyCharged {
            node,
            decided_at,
            diagnosed,
            subject,
            penalty,
        },
        PrTransition::Rewarded { subject, reward } => MetricsEvent::RewardEarned {
            node,
            decided_at,
            diagnosed,
            subject,
            reward,
        },
        PrTransition::Forgiven { subject } => MetricsEvent::Forgiveness {
            node,
            decided_at,
            diagnosed,
            subject,
        },
        PrTransition::Isolated { subject, penalty } => MetricsEvent::Isolation {
            node,
            decided_at,
            diagnosed,
            subject,
            penalty,
        },
        PrTransition::Reintegrated { subject } => MetricsEvent::Reintegration {
            node,
            decided_at,
            diagnosed,
            subject,
        },
    };
    sink.emit(&event);
}

/// Emits one [`SpanEvent::Detection`] per node accused by the aligned
/// local syndrome of the activation at round `k` (shared by [`DiagJob`]
/// and the membership variant).
///
/// The aligned syndrome refers to round `k - 1` (read alignment), so the
/// causal id of each span names that round as the fault round. Nothing is
/// emitted for the start-up activation at round 0.
pub(crate) fn emit_detection_spans(
    tracer: &dyn TraceSink,
    al_ls: &Syndrome,
    node: NodeId,
    k: RoundIndex,
) {
    let Some(observed) = k.checked_sub(1) else {
        return;
    };
    for subject in al_ls.accused() {
        tracer.span(&SpanEvent::Detection {
            cause: CauseId::new(subject, observed),
            node,
            round: k,
        });
    }
}

/// Emits one [`SpanEvent::Dissemination`] per accusation carried by the
/// syndrome this activation put on the bus (shared by [`DiagJob`] and the
/// membership variant).
///
/// The causal id is recovered from the transmission slot via
/// [`syndrome_reference_round`]: the syndrome transmitted in `tx_round`
/// refers to round `tx_round - (diagnosis_lag - 1)`.
pub(crate) fn emit_dissemination_spans(
    tracer: &dyn TraceSink,
    bufs: &AlignmentBuffers,
    tx_round: RoundIndex,
    all_send_curr_round: bool,
    node: NodeId,
    k: RoundIndex,
) {
    let Some(referred) = syndrome_reference_round(tx_round, all_send_curr_round) else {
        return;
    };
    let Some(sent) = bufs.own_row_for_tx_round(tx_round) else {
        return;
    };
    for subject in sent.accused() {
        tracer.span(&SpanEvent::Dissemination {
            cause: CauseId::new(subject, referred),
            node,
            round: k,
            tx_round,
        });
    }
}

/// Emits the [`SpanEvent::Aggregation`] and [`SpanEvent::Analysis`] spans
/// of one analysis phase: one pair per contested matrix column, mirroring
/// the contested-only filtering of [`emit_vote_tallies`].
pub(crate) fn emit_vote_spans(
    tracer: &dyn TraceSink,
    matrix: &DiagnosticMatrix,
    node: NodeId,
    decided_at: RoundIndex,
    diagnosed: RoundIndex,
) {
    for subject in NodeId::all(matrix.n_nodes()) {
        let t = matrix.tally(subject);
        if t.contested() {
            let cause = CauseId::new(subject, diagnosed);
            tracer.span(&SpanEvent::Aggregation {
                cause,
                node,
                round: decided_at,
                epsilon: t.epsilon,
            });
            tracer.span(&SpanEvent::Analysis {
                cause,
                node,
                round: decided_at,
                ok: t.ok,
                faulty: t.faulty,
                epsilon: t.epsilon,
                decided: t.decided(),
            });
        }
    }
}

/// The [`SpanEvent::Update`] span describing one p/r counter transition
/// (shared by [`DiagJob`] and the membership variant).
pub(crate) fn span_for_transition(
    transition: PrTransition,
    node: NodeId,
    decided_at: RoundIndex,
    diagnosed: RoundIndex,
) -> SpanEvent {
    let kind = match transition {
        PrTransition::Penalized { .. } => UpdateKind::Penalty,
        PrTransition::Rewarded { .. } => UpdateKind::Reward,
        PrTransition::Forgiven { .. } => UpdateKind::Forgiveness,
        PrTransition::Isolated { .. } => UpdateKind::Isolation,
        PrTransition::Reintegrated { .. } => UpdateKind::Reintegration,
    };
    SpanEvent::Update {
        cause: CauseId::new(transition.subject(), diagnosed),
        node,
        round: decided_at,
        kind,
        counter: transition.counter_value().unwrap_or(0),
    }
}

/// One consistent health vector, with its provenance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthRecord {
    /// The diagnosed round the vector refers to (`k - 2` or `k - 3`).
    pub diagnosed: RoundIndex,
    /// The round whose activation computed the vector.
    pub decided_at: RoundIndex,
    /// Health per node (`true` = not faulty in the diagnosed round).
    pub health: Vec<bool>,
}

/// One sample of the p/r counters, taken after the update for a diagnosed
/// round (recorded only when counter tracing is enabled).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSample {
    /// The diagnosed round whose verdict produced this update.
    pub diagnosed: RoundIndex,
    /// Penalty counters after the update (index = node index).
    pub penalties: Vec<u64>,
    /// Reward counters after the update (index = node index).
    pub rewards: Vec<u64>,
}

/// A node-isolation decision taken by the p/r algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IsolationEvent {
    /// The isolated node.
    pub node: NodeId,
    /// The round whose activation decided the isolation.
    pub decided_at: RoundIndex,
    /// The diagnosed round whose fault pushed the penalty over the
    /// threshold.
    pub diagnosed: RoundIndex,
}

/// The diagnostic job `diag_i` of one node (Alg. 1).
///
/// See the [crate-level example](crate) for typical usage inside a
/// [`tt_sim::Cluster`].
#[derive(Debug, Clone)]
pub struct DiagJob {
    node: NodeId,
    config: ProtocolConfig,
    pr: PenaltyReward,
    bufs: AlignmentBuffers,
    /// Completed protocol executions (health vectors), newest last.
    health_log: Vec<HealthRecord>,
    isolations: Vec<IsolationEvent>,
    counter_trace: Vec<CounterSample>,
    log_health: bool,
    log_counters: bool,
    activations: u64,
    /// Recycled row storage for the [`DiagnosticMatrix`] the vote tallies
    /// are read from when a sink is enabled.
    matrix_scratch: Vec<SyndromeRow>,
    /// Recycled buffer for the per-activation consistent health vector.
    hv_scratch: Vec<bool>,
}

impl DiagJob {
    /// Creates the diagnostic job for `node` with health-vector logging on.
    pub fn new(node: NodeId, config: ProtocolConfig) -> Self {
        Self::with_logging(node, config, true)
    }

    /// Creates the job, choosing whether every consistent health vector is
    /// retained (turn off for very long tuning runs to bound memory).
    pub fn with_logging(node: NodeId, config: ProtocolConfig, log_health: bool) -> Self {
        let n = config.n_nodes();
        DiagJob {
            node,
            pr: PenaltyReward::new(
                n,
                config.criticalities().to_vec(),
                config.penalty_threshold(),
                config.reward_threshold(),
                config.reintegration(),
            ),
            bufs: AlignmentBuffers::new(n),
            health_log: Vec::new(),
            isolations: Vec::new(),
            counter_trace: Vec::new(),
            log_health,
            log_counters: false,
            activations: 0,
            matrix_scratch: Vec::with_capacity(n),
            hv_scratch: Vec::with_capacity(n),
            config,
        }
    }

    /// Enables per-round counter tracing (off by default: it stores two
    /// `N`-vectors per diagnosed round). Returns `self` for chaining.
    pub fn with_counter_trace(mut self) -> Self {
        self.log_counters = true;
        self
    }

    /// The recorded counter evolution (empty unless tracing was enabled
    /// via [`DiagJob::with_counter_trace`]).
    pub fn counter_trace(&self) -> &[CounterSample] {
        &self.counter_trace
    }

    /// The hosting node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The protocol configuration.
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// Whether this instance still considers `node` active (not isolated).
    pub fn is_active(&self, node: NodeId) -> bool {
        self.pr.is_active(node)
    }

    /// The activity vector (index = node index).
    pub fn active(&self) -> &[bool] {
        self.pr.active()
    }

    /// Current penalty counter of `node`.
    pub fn penalty(&self, node: NodeId) -> u64 {
        self.pr.penalty(node)
    }

    /// Current reward counter of `node`.
    pub fn reward(&self, node: NodeId) -> u64 {
        self.pr.reward(node)
    }

    /// All recorded consistent health vectors (empty if logging is off).
    pub fn health_log(&self) -> &[HealthRecord] {
        &self.health_log
    }

    /// The health vector for a specific diagnosed round, if recorded.
    pub fn health_for(&self, diagnosed: RoundIndex) -> Option<&HealthRecord> {
        self.health_log.iter().find(|h| h.diagnosed == diagnosed)
    }

    /// The most recent health vector, if any.
    pub fn last_health(&self) -> Option<&HealthRecord> {
        self.health_log.last()
    }

    /// All isolation decisions taken so far, in decision order.
    pub fn isolations(&self) -> &[IsolationEvent] {
        &self.isolations
    }

    /// Number of completed activations.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Phases 4–5: voting, health vector, counters, isolation.
    fn analyze_and_update(&mut self, ctx: &mut JobCtx<'_>, aligned: &Aligned) {
        let k = ctx.round();
        let lag = diagnosis_lag(self.config.all_send_curr_round());
        let Some(diagnosed) = k.checked_sub(lag) else {
            return;
        };
        if self.activations < lag {
            return; // pipeline not yet full: no complete instance exists
        }
        let node = self.node;
        let present = self.bufs.install_own_row(aligned, node, k);
        let rows = self.bufs.aligned_rows();
        let healthy = health_mask(rows, present, |j| {
            if j == node {
                ctx.collision_ok(diagnosed)
            } else {
                None
            }
        });
        self.hv_scratch.clear();
        self.hv_scratch
            .extend((0..rows.len()).map(|j| healthy & 1 << j != 0));
        let sink = ctx.metrics();
        let metrics_on = sink.enabled();
        let tracer = ctx.tracing();
        let tracing_on = tracer.enabled();
        if metrics_on || tracing_on {
            let matrix = DiagnosticMatrix::from_words(
                rows,
                present,
                std::mem::take(&mut self.matrix_scratch),
            );
            if metrics_on {
                emit_vote_tallies(sink, &matrix, node, k, diagnosed);
            }
            if tracing_on {
                emit_vote_spans(tracer, &matrix, node, k, diagnosed);
            }
            self.matrix_scratch = matrix.into_rows();
        }
        let newly_isolated = self.pr.update_observed(&self.hv_scratch, |t| {
            sink.counter("core.pr_transitions", 1);
            if metrics_on {
                emit_pr_transition(sink, t, node, k, diagnosed);
            }
            if tracing_on {
                tracer.span(&span_for_transition(t, node, k, diagnosed));
            }
        });
        if self.log_counters {
            self.counter_trace.push(CounterSample {
                diagnosed,
                penalties: self.pr.penalties().to_vec(),
                rewards: self.pr.rewards().to_vec(),
            });
        }
        for iso in newly_isolated {
            self.isolations.push(IsolationEvent {
                node: iso,
                decided_at: k,
                diagnosed,
            });
            // Under the reintegration extension the node is kept "under
            // observation": the application treats it as isolated but the
            // controller keeps reporting its slots so recovery is visible.
            if self.config.reintegration() == ReintegrationPolicy::Never {
                ctx.isolate(iso);
            }
        }
        if self.log_health {
            self.health_log.push(HealthRecord {
                diagnosed,
                decided_at: k,
                health: self.hv_scratch.clone(),
            });
        }
    }
}

impl Job for DiagJob {
    fn execute(&mut self, ctx: &mut JobCtx<'_>) {
        let sink = ctx.metrics();
        let metrics_on = sink.enabled();
        let tracer = ctx.tracing();
        let tracing_on = tracer.enabled();
        // Phases 1 & 3: local detection + aggregation (read alignment).
        let aligned = self.bufs.read_and_align(ctx);
        if metrics_on {
            sink.emit(&MetricsEvent::Aggregation {
                node: self.node,
                round: ctx.round(),
                epsilon_rows: aligned.epsilon_rows(),
            });
        }
        if tracing_on {
            emit_detection_spans(tracer, &aligned.al_ls, self.node, ctx.round());
        }
        // Phase 2: dissemination (send alignment).
        let tx_round = self.bufs.disseminate(
            ctx,
            self.config.all_send_curr_round(),
            &aligned.al_ls,
            |_| {},
        );
        if metrics_on {
            sink.emit(&MetricsEvent::Dissemination {
                node: self.node,
                round: ctx.round(),
                tx_round,
                accusations: 0,
            });
        }
        if tracing_on {
            emit_dissemination_spans(
                tracer,
                &self.bufs,
                tx_round,
                self.config.all_send_curr_round(),
                self.node,
                ctx.round(),
            );
        }
        // Phases 4 & 5: analysis + counter update.
        self.analyze_and_update(ctx, &aligned);
        // Buffering for the next activation (Alg. 1, lines 16–17).
        self.bufs.commit(aligned);
        self.activations += 1;
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_sim::{Cluster, ClusterBuilder, SlotEffect, TxCtx};

    fn config(p: u64, r: u64) -> ProtocolConfig {
        ProtocolConfig::builder(4)
            .penalty_threshold(p)
            .reward_threshold(r)
            .build()
            .unwrap()
    }

    fn cluster_with(
        cfg: &ProtocolConfig,
        pipeline: impl FnMut(&TxCtx) -> SlotEffect + Send + 'static,
    ) -> Cluster {
        let cfg = cfg.clone();
        ClusterBuilder::new(4).build_with_jobs(
            move |id| Box::new(DiagJob::new(id, cfg.clone())),
            Box::new(pipeline),
        )
    }

    fn diag(cluster: &Cluster, id: u32) -> &DiagJob {
        cluster.job_as(NodeId::new(id)).unwrap()
    }

    #[test]
    fn healthy_cluster_diagnoses_all_healthy() {
        let mut cluster = cluster_with(&config(3, 10), |_| SlotEffect::Correct);
        cluster.run_rounds(20);
        for id in 1..=4 {
            let d = diag(&cluster, id);
            assert!(d.health_log().len() >= 15, "pipelined instances complete");
            assert!(d.health_log().iter().all(|h| h.health.iter().all(|&b| b)));
            assert!(d.isolations().is_empty());
        }
    }

    #[test]
    fn single_benign_fault_detected_with_lag_3() {
        // Default config: conservative send alignment, diagnosed = k - 3.
        let mut cluster = cluster_with(&config(100, 10), |ctx: &TxCtx| {
            if ctx.round == RoundIndex::new(10) && ctx.sender == NodeId::new(2) {
                SlotEffect::Benign
            } else {
                SlotEffect::Correct
            }
        });
        cluster.run_rounds(20);
        for id in 1..=4 {
            let d = diag(&cluster, id);
            let rec = d.health_for(RoundIndex::new(10)).expect("round diagnosed");
            assert_eq!(rec.health, vec![true, false, true, true]);
            assert_eq!(rec.decided_at, RoundIndex::new(13), "k - 3 lag");
            // Neighbouring rounds diagnosed clean.
            let prev = d.health_for(RoundIndex::new(9)).unwrap();
            assert!(prev.health.iter().all(|&b| b));
        }
    }

    #[test]
    fn all_send_curr_round_reduces_lag_to_2() {
        let cfg = ProtocolConfig::builder(4)
            .penalty_threshold(100)
            .reward_threshold(10)
            .all_send_curr_round(true)
            .build()
            .unwrap();
        let mut cluster = cluster_with(&cfg, |ctx: &TxCtx| {
            if ctx.round == RoundIndex::new(10) && ctx.sender == NodeId::new(2) {
                SlotEffect::Benign
            } else {
                SlotEffect::Correct
            }
        });
        cluster.run_rounds(20);
        let d = diag(&cluster, 1);
        let rec = d.health_for(RoundIndex::new(10)).unwrap();
        assert_eq!(rec.health, vec![true, false, true, true]);
        assert_eq!(rec.decided_at, RoundIndex::new(12), "k - 2 lag");
    }

    #[test]
    fn crash_leads_to_consistent_isolation() {
        let mut cluster = cluster_with(&config(3, 10), |ctx: &TxCtx| {
            if ctx.sender == NodeId::new(3) && ctx.round >= RoundIndex::new(5) {
                SlotEffect::Benign
            } else {
                SlotEffect::Correct
            }
        });
        cluster.run_rounds(20);
        let mut decided = Vec::new();
        for id in 1..=4 {
            let d = diag(&cluster, id);
            assert!(!d.is_active(NodeId::new(3)));
            assert!(d.is_active(NodeId::new(id)) || id == 3);
            assert_eq!(d.isolations().len(), 1);
            decided.push(d.isolations()[0].decided_at);
        }
        // All obedient nodes isolate in the same round (consistency).
        assert!(decided.windows(2).all(|w| w[0] == w[1]));
        // P = 3 with criticality 1: the 4th consecutive fault (round 8)
        // exceeds the threshold; decided 3 rounds later.
        assert_eq!(decided[0], RoundIndex::new(11));
    }

    #[test]
    fn two_coincident_benign_faults_diagnosed() {
        // Table 1's scenario: nodes 3 and 4 benign faulty across both the
        // diagnosed and dissemination rounds.
        let mut cluster = cluster_with(&config(100, 10), |ctx: &TxCtx| {
            let r = ctx.round.as_u64();
            if (10..=13).contains(&r)
                && (ctx.sender == NodeId::new(3) || ctx.sender == NodeId::new(4))
            {
                SlotEffect::Benign
            } else {
                SlotEffect::Correct
            }
        });
        cluster.run_rounds(20);
        for id in 1..=4 {
            let d = diag(&cluster, id);
            let rec = d.health_for(RoundIndex::new(11)).unwrap();
            assert_eq!(rec.health, vec![true, true, false, false], "node {id}");
        }
    }

    #[test]
    fn blackout_diagnosed_via_collision_detector() {
        // Two full TDMA rounds lost (Lemma 3's b = N case): every node must
        // still self-diagnose via its collision detector and diagnose
        // others via its own local syndrome.
        let mut cluster = cluster_with(&config(100, 10), |ctx: &TxCtx| {
            let r = ctx.round.as_u64();
            if (10..12).contains(&r) {
                SlotEffect::Benign
            } else {
                SlotEffect::Correct
            }
        });
        cluster.run_rounds(20);
        for id in 1..=4 {
            let d = diag(&cluster, id);
            for dr in [10u64, 11] {
                let rec = d.health_for(RoundIndex::new(dr)).unwrap();
                assert_eq!(
                    rec.health,
                    vec![false; 4],
                    "node {id} sees total blackout in round {dr}"
                );
            }
            // Surrounding rounds remain clean despite ε-heavy matrices.
            assert!(d
                .health_for(RoundIndex::new(9))
                .unwrap()
                .health
                .iter()
                .all(|&b| b));
            assert!(d
                .health_for(RoundIndex::new(13))
                .unwrap()
                .health
                .iter()
                .all(|&b| b));
        }
    }

    #[test]
    fn asymmetric_fault_is_diagnosed_consistently() {
        // Node 1's slot in round 10 is seen as faulty only by node 2
        // (a = 1). Theorem 1 requires a *consistent* verdict (any value).
        let mut cluster = cluster_with(&config(100, 10), |ctx: &TxCtx| {
            if ctx.round == RoundIndex::new(10) && ctx.sender == NodeId::new(1) {
                SlotEffect::Asymmetric {
                    detected_by: vec![1],
                    collision_ok: true,
                }
            } else {
                SlotEffect::Correct
            }
        });
        cluster.run_rounds(20);
        let verdicts: Vec<Vec<bool>> = (1..=4)
            .map(|id| {
                diag(&cluster, id)
                    .health_for(RoundIndex::new(10))
                    .unwrap()
                    .health
                    .clone()
            })
            .collect();
        assert!(verdicts.windows(2).all(|w| w[0] == w[1]), "consistency");
        // With a single accuser among three voters the majority says
        // healthy: asymmetric faults need not be detected, only agreed on.
        assert_eq!(verdicts[0], vec![true; 4]);
    }

    #[test]
    fn mixed_node_schedules_stay_consistent() {
        // Jobs at staggered offsets: some can send in the current round,
        // some cannot — exercising both branches of the send alignment.
        let cfg = config(100, 10);
        let mut cluster = ClusterBuilder::new(4)
            .build(Box::new(|ctx: &TxCtx| {
                if ctx.round == RoundIndex::new(10) && ctx.sender == NodeId::new(4) {
                    SlotEffect::Benign
                } else {
                    SlotEffect::Correct
                }
            }))
            .unwrap();
        // Node i gets offset i (node 1 after slot 1: cannot send current
        // round; node 4 after slot... offset 0 for variety).
        for (id, off) in [(1u32, 1usize), (2, 3), (3, 0), (4, 2)] {
            cluster
                .add_job(
                    NodeId::new(id),
                    off,
                    Box::new(DiagJob::new(NodeId::new(id), cfg.clone())),
                )
                .unwrap();
        }
        cluster.run_rounds(24);
        let mut records = Vec::new();
        for id in 1..=4 {
            let d: &DiagJob = cluster.job_as(NodeId::new(id)).unwrap();
            let rec = d.health_for(RoundIndex::new(10)).expect("diagnosed");
            records.push(rec.health.clone());
            assert_eq!(rec.health, vec![true, true, true, false], "node {id}");
        }
        assert!(records.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn reward_threshold_forgives_transients() {
        // A fault every 2nd round, but R = 2 is reached between faults...
        // actually with faults every 4 rounds and R = 2, counters reset
        // between faults and the node is never isolated even though the
        // total fault count exceeds P.
        let cfg = ProtocolConfig::builder(4)
            .penalty_threshold(3)
            .reward_threshold(2)
            .build()
            .unwrap();
        let mut cluster = cluster_with(&cfg, |ctx: &TxCtx| {
            if ctx.sender == NodeId::new(2) && ctx.round.as_u64().is_multiple_of(4) {
                SlotEffect::Benign
            } else {
                SlotEffect::Correct
            }
        });
        cluster.run_rounds(40); // 10 faults > P, but never 4 within a window
        let d = diag(&cluster, 1);
        assert!(d.is_active(NodeId::new(2)), "transients forgiven");
        assert!(d.penalty(NodeId::new(2)) <= 1);
    }

    #[test]
    fn reintegration_extension_restores_node() {
        let cfg = ProtocolConfig::builder(4)
            .penalty_threshold(2)
            .reward_threshold(5)
            .reintegration(ReintegrationPolicy::AfterRewards(4))
            .build()
            .unwrap();
        // Node 4 faulty for rounds 5..=9, then recovers for good.
        let mut cluster = cluster_with(&cfg, |ctx: &TxCtx| {
            if ctx.sender == NodeId::new(4) && (5..=9).contains(&ctx.round.as_u64()) {
                SlotEffect::Benign
            } else {
                SlotEffect::Correct
            }
        });
        cluster.run_rounds(11);
        assert!(!diag(&cluster, 1).is_active(NodeId::new(4)), "isolated");
        cluster.run_rounds(10);
        assert!(
            diag(&cluster, 1).is_active(NodeId::new(4)),
            "reintegrated after observed recovery"
        );
    }

    #[test]
    fn job_accessors() {
        let cfg = config(3, 10);
        let mut cluster = cluster_with(&cfg, |_| SlotEffect::Correct);
        cluster.run_rounds(10);
        let d = diag(&cluster, 2);
        assert_eq!(d.node(), NodeId::new(2));
        assert_eq!(d.config().penalty_threshold(), 3);
        assert_eq!(d.activations(), 10);
        assert!(d.last_health().is_some());
        assert_eq!(d.reward(NodeId::new(1)), 0);
        assert_eq!(d.active(), &[true; 4]);
    }

    #[test]
    fn trace_sink_observes_full_provenance_chain() {
        use std::sync::Arc;
        use tt_sim::{CauseId, RecordingTraceSink, SpanEvent, TracePhase};
        // The single-benign-fault scenario of `single_benign_fault_detected_
        // with_lag_3`, this time with a recording trace sink installed: the
        // fault at (node 2, round 10) must leave a complete causal chain.
        let tracing = Arc::new(RecordingTraceSink::new());
        let cfg = config(100, 10);
        let mut cluster = ClusterBuilder::new(4)
            .trace_sink(tracing.clone())
            .build_with_jobs(
                move |id| Box::new(DiagJob::new(id, cfg.clone())),
                Box::new(|ctx: &TxCtx| {
                    if ctx.round == RoundIndex::new(10) && ctx.sender == NodeId::new(2) {
                        SlotEffect::Benign
                    } else {
                        SlotEffect::Correct
                    }
                }),
            );
        cluster.run_rounds(20);
        let cause = CauseId::new(NodeId::new(2), RoundIndex::new(10));
        let spans: Vec<SpanEvent> = tracing
            .spans()
            .into_iter()
            .filter(|s| s.cause() == cause)
            .collect();
        let of_phase = |p: TracePhase| spans.iter().filter(move |s| s.phase() == p);
        // The engine records the injected slot fault itself...
        assert_eq!(of_phase(TracePhase::SlotFault).count(), 1);
        // ...every obedient receiver detects it in the next activation...
        let detections: Vec<_> = of_phase(TracePhase::Detection).collect();
        assert!(detections.len() >= 3, "got {detections:?}");
        assert!(detections.iter().all(|s| s.round() == RoundIndex::new(11)));
        // ...the accusing syndromes ship in the slot of round 12 (so that
        // the analysis at round 13 can read-align them)...
        for d in of_phase(TracePhase::Dissemination) {
            let SpanEvent::Dissemination { tx_round, .. } = d else {
                unreachable!()
            };
            assert_eq!(*tx_round, RoundIndex::new(12));
        }
        assert!(of_phase(TracePhase::Dissemination).count() >= 3);
        // ...all four nodes aggregate, vote and convict at round 13 (lag 3)
        for p in [
            TracePhase::Aggregation,
            TracePhase::Analysis,
            TracePhase::Update,
        ] {
            let phase_spans: Vec<_> = of_phase(p).collect();
            assert_eq!(phase_spans.len(), 4, "{p:?}");
            assert!(phase_spans.iter().all(|s| s.round() == RoundIndex::new(13)));
        }
        for a in of_phase(TracePhase::Analysis) {
            let SpanEvent::Analysis { decided, .. } = a else {
                unreachable!()
            };
            assert_eq!(*decided, Some(false), "convicted");
        }
        // The counter transition is a penalty charge of 1.
        for u in of_phase(TracePhase::Update) {
            let SpanEvent::Update { kind, counter, .. } = u else {
                unreachable!()
            };
            assert_eq!(*kind, tt_sim::UpdateKind::Penalty);
            assert_eq!(*counter, 1);
        }
        // No span of any phase precedes the fault round.
        assert!(spans.iter().all(|s| s.round() >= RoundIndex::new(10)));
    }

    #[test]
    fn noop_trace_sink_leaves_protocol_behaviour_unchanged() {
        // Tracing defaults to a no-op sink: results must be identical to an
        // explicitly traced run (determinism guard for the span wiring).
        let run = |traced: bool| {
            let cfg = config(3, 10);
            let mut builder = ClusterBuilder::new(4);
            if traced {
                builder =
                    builder.trace_sink(std::sync::Arc::new(tt_sim::RecordingTraceSink::new()));
            }
            let mut cluster = builder.build_with_jobs(
                move |id| Box::new(DiagJob::new(id, cfg.clone())),
                Box::new(|ctx: &TxCtx| {
                    if ctx.sender == NodeId::new(3) && ctx.round >= RoundIndex::new(5) {
                        SlotEffect::Benign
                    } else {
                        SlotEffect::Correct
                    }
                }),
            );
            cluster.run_rounds(20);
            (1..=4u32)
                .map(|id| diag(&cluster, id).health_log().to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn logging_can_be_disabled() {
        let cfg = config(3, 10);
        let mut cluster = ClusterBuilder::new(4).build_with_jobs(
            |id| Box::new(DiagJob::with_logging(id, cfg.clone(), false)),
            Box::new(tt_sim::NoFaults),
        );
        cluster.run_rounds(10);
        assert!(diag(&cluster, 1).health_log().is_empty());
    }
}
