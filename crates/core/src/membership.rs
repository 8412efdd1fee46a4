//! The membership protocol (paper Sec. 7).
//!
//! A modified diagnostic protocol that also detects the **cliques** formed
//! by asymmetric faults. The analysis phase runs *before* dissemination;
//! after the consistent health vector is computed, the node adds **minority
//! accusations** against every node whose received local syndrome disagrees
//! with the consistent decision. Members of a minority clique — nodes whose
//! local view diverges from the majority — are thereby consistently accused
//! and diagnosed as faulty within the next execution (Theorem 2), after
//! which a new **membership view** excluding them is formed.
//!
//! The view maintained here is the paper's: "all nodes never deemed as
//! faulty"; the service guarantees *membership liveness* (a new unique view
//! within two executions of a locally detectable faulty message) and *view
//! synchrony* (surviving members received the same messages).

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use tt_sim::{Job, JobCtx, MetricsEvent, NodeId, RoundIndex};

use crate::alignment::diagnosis_lag;
use crate::config::ProtocolConfig;
use crate::matrix::{health_mask, DiagnosticMatrix};
use crate::penalty::{PenaltyReward, ReintegrationPolicy};
use crate::pipeline::{Aligned, AlignmentBuffers};
use crate::protocol::{
    emit_detection_spans, emit_dissemination_spans, emit_pr_transition, emit_vote_spans,
    emit_vote_tallies, span_for_transition, HealthRecord, IsolationEvent,
};
use crate::syndrome::{bits, low_bits, Syndrome, SyndromeRow};

/// A membership view: the agreed set of participating nodes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MembershipView {
    /// Monotonic view number (view 0 is the initial full membership).
    pub view_id: u64,
    /// The surviving members, in node order.
    pub members: Vec<NodeId>,
    /// The round whose activation installed this view.
    pub installed_at: RoundIndex,
    /// The diagnosed round whose verdict triggered the view change
    /// (`installed_at` for the initial view).
    pub diagnosed: RoundIndex,
}

impl MembershipView {
    /// Whether `node` belongs to this view.
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.contains(&node)
    }
}

/// The membership job: Alg. 1 with analysis-before-dissemination and
/// minority accusations.
#[derive(Debug, Clone)]
pub struct MembershipJob {
    node: NodeId,
    config: ProtocolConfig,
    pr: PenaltyReward,
    bufs: AlignmentBuffers,
    members: BTreeSet<NodeId>,
    views: Vec<MembershipView>,
    health_log: Vec<HealthRecord>,
    isolations: Vec<IsolationEvent>,
    accusation_log: Vec<(RoundIndex, NodeId)>,
    activations: u64,
    /// Recycled row storage for the [`DiagnosticMatrix`] the vote tallies
    /// are read from when a sink is enabled.
    matrix_scratch: Vec<SyndromeRow>,
}

impl MembershipJob {
    /// Creates the membership job for `node`.
    pub fn new(node: NodeId, config: ProtocolConfig) -> Self {
        let n = config.n_nodes();
        let members: BTreeSet<NodeId> = NodeId::all(n).collect();
        MembershipJob {
            node,
            pr: PenaltyReward::new(
                n,
                config.criticalities().to_vec(),
                config.penalty_threshold(),
                config.reward_threshold(),
                config.reintegration(),
            ),
            bufs: AlignmentBuffers::new(n),
            views: vec![MembershipView {
                view_id: 0,
                members: members.iter().copied().collect(),
                installed_at: RoundIndex::ZERO,
                diagnosed: RoundIndex::ZERO,
            }],
            members,
            health_log: Vec::new(),
            isolations: Vec::new(),
            accusation_log: Vec::new(),
            activations: 0,
            matrix_scratch: Vec::with_capacity(n),
            config,
        }
    }

    /// The hosting node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The currently installed view.
    pub fn current_view(&self) -> &MembershipView {
        self.views.last().expect("initial view always present")
    }

    /// All views installed so far, oldest first.
    pub fn views(&self) -> &[MembershipView] {
        &self.views
    }

    /// All consistent health vectors computed so far.
    pub fn health_log(&self) -> &[HealthRecord] {
        &self.health_log
    }

    /// The health vector for a specific diagnosed round, if recorded.
    pub fn health_for(&self, diagnosed: RoundIndex) -> Option<&HealthRecord> {
        self.health_log.iter().find(|h| h.diagnosed == diagnosed)
    }

    /// Isolation decisions taken by the embedded p/r algorithm.
    pub fn isolations(&self) -> &[IsolationEvent] {
        &self.isolations
    }

    /// Minority accusations issued by this node `(round issued, accused)`.
    pub fn accusations(&self) -> &[(RoundIndex, NodeId)] {
        &self.accusation_log
    }

    /// Whether this instance still considers `node` active.
    pub fn is_active(&self, node: NodeId) -> bool {
        self.pr.is_active(node)
    }

    /// The current Alg. 2 penalty counter this instance keeps for `node`.
    pub fn penalty(&self, node: NodeId) -> u64 {
        self.pr.penalty(node)
    }

    /// The current Alg. 2 reward counter this instance keeps for `node`.
    pub fn reward(&self, node: NodeId) -> u64 {
        self.pr.reward(node)
    }

    /// Detects the minority clique: nodes whose disseminated syndrome
    /// disagrees with the consistent health vector `healthy` (as a mask) on
    /// some *other* node's health (their self-opinion is ignored, as in the
    /// voting). Returns the accused as a mask.
    fn minority_accusations(&self, rows: &[u64], present: u64, healthy: u64) -> u64 {
        let all = low_bits(rows.len());
        bits(present & !(1 << self.node.index()))
            .filter(|&j| (rows[j] ^ healthy) & all & !(1 << j) != 0)
            .fold(0, |acc, j| acc | 1 << j)
    }

    /// Analysis (phases 4–5) for the diagnosed round; returns the
    /// accusations to fold into the outgoing syndrome, as a mask.
    fn analyze(&mut self, ctx: &mut JobCtx<'_>, aligned: &Aligned) -> u64 {
        let k = ctx.round();
        let lag = diagnosis_lag(self.config.all_send_curr_round());
        let Some(diagnosed) = k.checked_sub(lag) else {
            return 0;
        };
        if self.activations < lag {
            return 0;
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
        let cons_hv: Vec<bool> = (0..rows.len()).map(|j| healthy & 1 << j != 0).collect();
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
        // Minority accusations: disseminated with the *next* syndrome.
        let accusations = self.minority_accusations(self.bufs.aligned_rows(), present, healthy);
        for a in bits(accusations) {
            self.accusation_log.push((k, NodeId::from_slot(a)));
        }
        // p/r bookkeeping and isolation, as in the base protocol.
        let newly_isolated = self.pr.update_observed(&cons_hv, |t| {
            sink.counter("core.pr_transitions", 1);
            if metrics_on {
                emit_pr_transition(sink, t, node, k, diagnosed);
            }
            if tracing_on {
                tracer.span(&span_for_transition(t, node, k, diagnosed));
            }
        });
        for iso in newly_isolated {
            self.isolations.push(IsolationEvent {
                node: iso,
                decided_at: k,
                diagnosed,
            });
            if self.config.reintegration() == ReintegrationPolicy::Never {
                ctx.isolate(iso);
            }
        }
        // View maintenance: drop every member deemed faulty this round.
        let mut convicted = false;
        for j in bits(!healthy & low_bits(cons_hv.len())) {
            convicted |= self.members.remove(&NodeId::from_slot(j));
        }
        if convicted {
            let view_id = self.views.len() as u64;
            let view = MembershipView {
                view_id,
                members: self.members.iter().copied().collect(),
                installed_at: k,
                diagnosed,
            };
            sink.counter("core.views_installed", 1);
            if metrics_on {
                sink.emit(&MetricsEvent::ViewInstalled {
                    node,
                    view_id,
                    installed_at: k,
                    diagnosed,
                    members: view.members.clone(),
                });
            }
            self.views.push(view);
        }
        self.health_log.push(HealthRecord {
            diagnosed,
            decided_at: k,
            health: cons_hv,
        });
        accusations
    }
}

impl Job for MembershipJob {
    fn execute(&mut self, ctx: &mut JobCtx<'_>) {
        let sink = ctx.metrics();
        let metrics_on = sink.enabled();
        let tracer = ctx.tracing();
        let tracing_on = tracer.enabled();
        // Phases 1 & 3: read + alignment.
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
        // Phase 4 runs BEFORE dissemination (Sec. 7): the consistent health
        // vector determines the minority accusations...
        let accusations = self.analyze(ctx, &aligned);
        let n_accusations = u64::from(accusations.count_ones());
        // ...which phase 2 folds into the outgoing local syndrome.
        let tx_round = self.bufs.disseminate(
            ctx,
            self.config.all_send_curr_round(),
            &aligned.al_ls,
            |s: &mut Syndrome| {
                for a in bits(accusations) {
                    s.set(NodeId::from_slot(a), false);
                }
            },
        );
        if metrics_on {
            sink.emit(&MetricsEvent::Dissemination {
                node: self.node,
                round: ctx.round(),
                tx_round,
                accusations: n_accusations,
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

    fn config() -> ProtocolConfig {
        ProtocolConfig::builder(4)
            .penalty_threshold(2)
            .reward_threshold(10)
            .build()
            .unwrap()
    }

    fn cluster_with(pipeline: impl FnMut(&TxCtx) -> SlotEffect + Send + 'static) -> Cluster {
        let cfg = config();
        ClusterBuilder::new(4).build_with_jobs(
            move |id| Box::new(MembershipJob::new(id, cfg.clone())),
            Box::new(pipeline),
        )
    }

    fn job(cluster: &Cluster, id: u32) -> &MembershipJob {
        cluster.job_as(NodeId::new(id)).unwrap()
    }

    #[test]
    fn fault_free_run_keeps_initial_view() {
        let mut cluster = cluster_with(|_| SlotEffect::Correct);
        cluster.run_rounds(20);
        for id in 1..=4 {
            let m = job(&cluster, id);
            assert_eq!(m.views().len(), 1);
            assert_eq!(m.current_view().members.len(), 4);
            assert!(m.accusations().is_empty());
        }
    }

    #[test]
    fn benign_faulty_sender_excluded_from_view() {
        // Node 2 crashes at round 8: all receivers detect it; the sender is
        // the only node outside the (unique) receiving clique.
        let mut cluster = cluster_with(|ctx: &TxCtx| {
            if ctx.sender == NodeId::new(2) && ctx.round.as_u64() >= 8 {
                SlotEffect::Benign
            } else {
                SlotEffect::Correct
            }
        });
        cluster.run_rounds(20);
        let mut installed = Vec::new();
        for id in 1..=4 {
            let m = job(&cluster, id);
            let v = m.current_view();
            assert!(!v.contains(NodeId::new(2)), "node {id} dropped node 2");
            assert_eq!(v.members.len(), 3);
            installed.push(v.installed_at);
        }
        // Views install in the same round everywhere (uniqueness).
        assert!(installed.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn asymmetric_fault_forms_and_excludes_minority_clique() {
        // The paper's Sec. 8 clique experiment: node 1 fails to receive the
        // slots of other nodes (the disturbance sits between node 1 and the
        // rest of the cluster) in round 8. Node 1 becomes a minority clique
        // of one and must be excluded within two protocol executions.
        let mut cluster = cluster_with(|ctx: &TxCtx| {
            if ctx.round == RoundIndex::new(8) && ctx.sender != NodeId::new(1) {
                SlotEffect::Asymmetric {
                    detected_by: vec![0], // only node 1 misses the message
                    collision_ok: true,
                }
            } else {
                SlotEffect::Correct
            }
        });
        cluster.run_rounds(24);
        // The majority's verdict on round 8 is "all healthy" (single
        // accuser outvoted)...
        let m2 = job(&cluster, 2);
        assert!(m2
            .health_for(RoundIndex::new(8))
            .unwrap()
            .health
            .iter()
            .all(|&b| b));
        // ...node 1's divergent syndrome earns minority accusations from
        // every majority member...
        for id in 2..=4 {
            let m = job(&cluster, id);
            assert!(
                m.accusations().iter().any(|(_, a)| *a == NodeId::new(1)),
                "node {id} accuses the minority-clique member"
            );
        }
        // ...and node 1 is excluded from the next view, consistently.
        for id in 2..=4 {
            let m = job(&cluster, id);
            let v = m.current_view();
            assert!(!v.contains(NodeId::new(1)), "node {id} excluded node 1");
            assert_eq!(v.members.len(), 3);
        }
        // Liveness bound: exclusion within two executions of the protocol
        // after the fault (diagnosed round of the view change <= 8 + lag).
        let v = job(&cluster, 2).current_view();
        assert!(
            v.diagnosed.as_u64() <= 8 + 2 * diagnosis_lag(false),
            "view change within two protocol executions, got {:?}",
            v.diagnosed
        );
    }

    #[test]
    fn view_synchrony_larger_clique_survives() {
        // Asymmetric fault on node 4's message m in round 8: nodes 2 and 3
        // miss it, node 1 receives it. The receiving clique {1} is the
        // minority. The vote convicts the sender (accusers {2,3} outvote
        // endorser {1}); node 1's divergent syndrome then earns minority
        // accusations, so the installed view is the larger clique {2, 3} —
        // whose members received the same set of messages (view synchrony).
        let mut cluster = cluster_with(|ctx: &TxCtx| {
            if ctx.round == RoundIndex::new(8) && ctx.sender == NodeId::new(4) {
                SlotEffect::Asymmetric {
                    detected_by: vec![1, 2],
                    collision_ok: true,
                }
            } else {
                SlotEffect::Correct
            }
        });
        cluster.run_rounds(24);
        for id in 2..=3 {
            let m = job(&cluster, id);
            let rec = m.health_for(RoundIndex::new(8)).unwrap();
            assert_eq!(rec.health, vec![true, true, true, false], "node {id}");
            let v = m.current_view();
            assert!(!v.contains(NodeId::new(4)), "faulty sender dropped");
            assert!(
                !v.contains(NodeId::new(1)),
                "minority-clique member dropped"
            );
            assert_eq!(v.members, vec![NodeId::new(2), NodeId::new(3)]);
        }
        // Obedient node 1 accepts the same verdicts: views are identical
        // everywhere, including on the excluded member itself.
        let views: Vec<_> = (1..=3)
            .map(|id| job(&cluster, id).current_view().members.clone())
            .collect();
        assert!(views.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn membership_job_emits_provenance_spans() {
        use std::sync::Arc;
        use tt_sim::{CauseId, RecordingTraceSink, TracePhase};
        let tracing = Arc::new(RecordingTraceSink::new());
        let cfg = config();
        let mut cluster = ClusterBuilder::new(4)
            .trace_sink(tracing.clone())
            .build_with_jobs(
                move |id| Box::new(MembershipJob::new(id, cfg.clone())),
                Box::new(|ctx: &TxCtx| {
                    if ctx.sender == NodeId::new(2) && ctx.round.as_u64() >= 8 {
                        SlotEffect::Benign
                    } else {
                        SlotEffect::Correct
                    }
                }),
            );
        cluster.run_rounds(20);
        let cause = CauseId::new(NodeId::new(2), RoundIndex::new(8));
        let spans: Vec<_> = tracing
            .spans()
            .into_iter()
            .filter(|s| s.cause() == cause)
            .collect();
        // The first faulty round leaves the full five protocol phases plus
        // the engine's slot-fault record.
        for p in TracePhase::ALL {
            assert!(
                spans.iter().any(|s| s.phase() == p),
                "missing phase {p:?} in {spans:?}"
            );
        }
        // Analysis and update happen at round 8 + lag.
        let decided_at = RoundIndex::new(8 + diagnosis_lag(false));
        assert!(spans
            .iter()
            .filter(|s| s.phase() == TracePhase::Update)
            .all(|s| s.round() == decided_at));
    }

    #[test]
    fn accessors() {
        let mut cluster = cluster_with(|_| SlotEffect::Correct);
        cluster.run_rounds(10);
        let m = job(&cluster, 3);
        assert_eq!(m.node(), NodeId::new(3));
        assert!(m.is_active(NodeId::new(1)));
        assert!(m.isolations().is_empty());
        assert!(m.health_log().len() >= 5);
        assert_eq!(m.current_view().view_id, 0);
    }
}
