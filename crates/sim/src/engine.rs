//! The deterministic, slot-granular simulation engine.
//!
//! A [`Cluster`] advances one sending slot at a time. Before slot `p` of a
//! round is transmitted, every job scheduled with `l = p` executes (it has
//! seen slots `0..p` of the current round); then the slot is transmitted,
//! pushed through the fault pipeline, and delivered to all controllers.
//! This realizes the paper's interleaving of node schedules with the global
//! communication schedule exactly, with no wall-clock nondeterminism.

use std::sync::Arc;

use bytes::Bytes;

use crate::bus::{FaultPipeline, SlotFaultClass, SlotOutcome, TxCtx};
use crate::cancel::CancellationToken;
use crate::controller::{Controller, MAX_NODES};
use crate::error::SimError;
use crate::job::{Job, JobCtx};
use crate::metrics::{MetricsEvent, MetricsSink, NoopSink};
use crate::node::{Node, ScheduleSource};
use crate::schedule::{CommunicationSchedule, NodeSchedule};
use crate::time::{Nanos, NodeId, RoundIndex};
use crate::trace::{Trace, TraceMode};
use crate::tracing::{CauseId, NoopTraceSink, SpanEvent, TraceSink};

/// A complete simulated TDMA cluster: nodes, controllers, bus and trace.
pub struct Cluster {
    schedule: CommunicationSchedule,
    nodes: Vec<Node>,
    controllers: Vec<Controller>,
    pipeline: Box<dyn FaultPipeline>,
    round: RoundIndex,
    trace: Trace,
    /// This round's activations as `(schedule, node index, job index)`,
    /// sorted by execution offset, then node, then registration order.
    dispatch: Vec<(NodeSchedule, usize, usize)>,
    /// Whether `dispatch` holds the activations of every round: set once it
    /// is built from static schedules only, cleared when a job is added.
    /// Otherwise it is refilled (not reallocated) each round.
    dispatch_fixed: bool,
    /// Transmission outcome buffer, reused for every slot.
    slot_out: SlotOutcome,
    /// Observability sink shared with every job context (a [`NoopSink`] by
    /// default, keeping the hot path untouched).
    metrics: Arc<dyn MetricsSink>,
    /// Provenance-trace sink shared with every job context (a
    /// [`NoopTraceSink`] by default, same zero-overhead contract).
    trace_sink: Arc<dyn TraceSink>,
    /// Cooperative cancellation flag, observed at round granularity: one
    /// relaxed-cost atomic load per round, nothing on the slot path.
    cancel: CancellationToken,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("n_nodes", &self.schedule.n_nodes())
            .field("round", &self.round)
            .finish()
    }
}

impl Cluster {
    /// The global communication schedule.
    pub fn schedule(&self) -> &CommunicationSchedule {
        &self.schedule
    }

    /// The next round to be executed (rounds already completed: `0..round`).
    pub fn round(&self) -> RoundIndex {
        self.round
    }

    /// Physical time at the start of the next round to execute.
    pub fn now(&self) -> Nanos {
        self.round.start_time(self.schedule.round_length())
    }

    /// The ground-truth *injected-fault* trace recorded so far (what the
    /// fault pipeline did to the bus — not protocol tracing; see
    /// [`Cluster::tracing`] for provenance spans).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The observability sink this cluster reports to.
    pub fn metrics(&self) -> &dyn MetricsSink {
        &*self.metrics
    }

    /// The provenance-trace sink this cluster reports spans to.
    pub fn tracing(&self) -> &dyn TraceSink {
        &*self.trace_sink
    }

    /// Immutable access to the controller of `node`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] for out-of-range ids.
    pub fn controller(&self, node: NodeId) -> Result<&Controller, SimError> {
        self.controllers
            .get(node.index())
            .ok_or(SimError::UnknownNode(node))
    }

    /// Mutable access to the controller of `node`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] for out-of-range ids.
    pub fn controller_mut(&mut self, node: NodeId) -> Result<&mut Controller, SimError> {
        self.controllers
            .get_mut(node.index())
            .ok_or(SimError::UnknownNode(node))
    }

    /// Replaces the fault pipeline (e.g. between phases of an experiment).
    pub fn set_pipeline(&mut self, pipeline: Box<dyn FaultPipeline>) {
        self.pipeline = pipeline;
    }

    /// Adds `job` to `node`, executing after `exec_offset` slots each round.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] for out-of-range ids.
    pub fn add_job(
        &mut self,
        node: NodeId,
        exec_offset: usize,
        job: Box<dyn Job>,
    ) -> Result<(), SimError> {
        let n = self.schedule.n_nodes();
        let sched = NodeSchedule::new(node, exec_offset, n)?;
        self.nodes
            .get_mut(node.index())
            .ok_or(SimError::UnknownNode(node))?
            .add_job(sched, job);
        self.dispatch_fixed = false;
        Ok(())
    }

    /// Returns the first job of concrete type `T` hosted on `node`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] or [`SimError::JobTypeMismatch`].
    pub fn job_as<T: Job + 'static>(&self, node: NodeId) -> Result<&T, SimError> {
        let n = self
            .nodes
            .get(node.index())
            .ok_or(SimError::UnknownNode(node))?;
        n.jobs()
            .iter()
            .find_map(|s| s.job.as_any().downcast_ref::<T>())
            .ok_or(SimError::JobTypeMismatch(node))
    }

    /// Adds a *dynamically scheduled* job to `node`: the OS decides the
    /// execution offset anew each round via `offset_of` (normalized modulo
    /// `N`), and the job reads the resulting `l_i` / `send_curr_round_i`
    /// from its context at run-time — the paper's Sec. 10 dynamic-
    /// scheduling case.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] for out-of-range ids.
    pub fn add_dynamic_job(
        &mut self,
        node: NodeId,
        offset_of: impl FnMut(RoundIndex) -> usize + Send + 'static,
        job: Box<dyn Job>,
    ) -> Result<(), SimError> {
        let n = self.schedule.n_nodes();
        self.nodes
            .get_mut(node.index())
            .ok_or(SimError::UnknownNode(node))?
            .add_dynamic_job(n, Box::new(offset_of), job);
        self.dispatch_fixed = false;
        Ok(())
    }

    /// The cancellation token this cluster observes between rounds.
    /// Cancelling it (from any thread) stops the simulation at the next
    /// round boundary.
    pub fn cancel_token(&self) -> &CancellationToken {
        &self.cancel
    }

    /// Executes exactly one TDMA round (all `N` slots, plus the job
    /// activations interleaved between them).
    ///
    /// Returns `false` — without executing anything — once the cluster's
    /// [`CancellationToken`] has been cancelled; the cluster state then
    /// stays frozen at the last completed round boundary.
    pub fn run_round(&mut self) -> bool {
        if self.cancel.is_cancelled() {
            return false;
        }
        let k = self.round;
        let n = self.schedule.n_nodes();
        // With a `NoopSink` the whole observability block reduces to one
        // virtual `enabled()` call; with a recording sink, round timing and
        // the structured event stream are captured.
        let metrics_on = self.metrics.enabled();
        let tracing_on = self.trace_sink.enabled();
        let round_start = metrics_on.then(std::time::Instant::now);
        // Resolve every job's schedule for this round up front (dynamic
        // schedules are queried exactly once per round, like an OS would)
        // and order the activations by offset, so each slot runs exactly
        // its own jobs.
        if !self.dispatch_fixed {
            self.dispatch.clear();
            let mut dynamic = false;
            for (i, node) in self.nodes.iter_mut().enumerate() {
                for (j, slot) in node.jobs_mut().iter_mut().enumerate() {
                    dynamic |= matches!(slot.schedule, ScheduleSource::Dynamic { .. });
                    self.dispatch.push((slot.schedule.resolve(k), i, j));
                }
            }
            self.dispatch
                .sort_unstable_by_key(|&(sched, i, j)| (sched.l(), i, j));
            self.dispatch_fixed = !dynamic;
        }
        let mut next = 0;
        let trace_off = self.trace.mode() == TraceMode::Off;
        for p in 0..n {
            // 1. Jobs scheduled at offset p execute (they have seen slots
            //    0..p of round k).
            while let Some(&(sched, i, j)) = self.dispatch.get(next) {
                if sched.l() != p {
                    break;
                }
                next += 1;
                let mut ctx = JobCtx::with_sinks(
                    &mut self.controllers[i],
                    sched,
                    k,
                    &*self.metrics,
                    &*self.trace_sink,
                );
                self.nodes[i].jobs_mut()[j].job.execute(&mut ctx);
            }
            // 2. The node owning slot p transmits, filling the reusable
            //    outcome buffer in place.
            let sender = NodeId::from_slot(p);
            let payload: Bytes = self.controllers[p].tx_payload();
            let tx_ctx = TxCtx {
                round: k,
                sender,
                n_nodes: n,
                abs_slot: k.as_u64() * n as u64 + p as u64,
            };
            self.pipeline
                .transmit_into(&tx_ctx, &payload, &mut self.slot_out);
            if self.slot_out.class != SlotFaultClass::Correct {
                self.metrics.counter("sim.slot_faults", 1);
                if metrics_on {
                    self.metrics.emit(&MetricsEvent::SlotFault {
                        round: k,
                        sender,
                        class: self.slot_out.class,
                    });
                }
                if tracing_on {
                    // Root of every provenance chain: the ground-truth
                    // disturbance of (sender, round k).
                    self.trace_sink.span(&SpanEvent::SlotFault {
                        cause: CauseId::new(sender, k),
                        class: self.slot_out.class,
                    });
                }
            }
            // With tracing off, skip effect-record construction entirely.
            if !trace_off && self.trace.wants(self.slot_out.class) {
                let effect =
                    crate::trace::EffectRecord::from_slot_outcome(&self.slot_out, &payload, sender);
                self.trace
                    .record_with_effect(k, sender, self.slot_out.class, Some(effect));
            }
            // 3. Delivery: receivers update interface variables + validity
            //    bits; the sender records its collision-detector view. Each
            //    receiver takes its own copy of the value on the bus.
            for (rx, controller) in self.controllers.iter_mut().enumerate() {
                if rx == p {
                    controller.record_collision(k, self.slot_out.collision_ok);
                } else {
                    controller.deliver(sender, k, self.slot_out.reception(rx));
                }
            }
        }
        self.metrics.counter("sim.rounds", 1);
        self.metrics.counter("sim.slots", n as u64);
        if let Some(start) = round_start {
            let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.metrics.histogram("sim.round_ns", wall_ns);
            self.metrics
                .emit(&MetricsEvent::RoundCompleted { round: k, wall_ns });
        }
        self.round = k.next();
        true
    }

    /// Executes up to `rounds` consecutive TDMA rounds, stopping early if
    /// the cluster's [`CancellationToken`] is cancelled. Returns the number
    /// of rounds actually executed.
    pub fn run_rounds(&mut self, rounds: u64) -> u64 {
        for executed in 0..rounds {
            if !self.run_round() {
                return executed;
            }
        }
        rounds
    }

    /// Runs rounds until `stop` returns true (checked after each round),
    /// `max_rounds` have executed, or the cluster's cancellation token is
    /// cancelled. Returns the number of rounds executed.
    pub fn run_until(&mut self, max_rounds: u64, mut stop: impl FnMut(&Cluster) -> bool) -> u64 {
        for executed in 0..max_rounds {
            if !self.run_round() {
                return executed;
            }
            if stop(self) {
                return executed + 1;
            }
        }
        max_rounds
    }
}

/// Builder for [`Cluster`].
///
/// ```
/// use tt_sim::{ClusterBuilder, NoFaults};
/// let cluster = ClusterBuilder::new(4)
///     .round_length_ns(2_500_000)
///     .trace_mode(tt_sim::TraceMode::Full)
///     .build(Box::new(NoFaults))
///     .unwrap();
/// assert_eq!(cluster.schedule().n_nodes(), 4);
/// ```
pub struct ClusterBuilder {
    n_nodes: usize,
    round_length: Nanos,
    trace_mode: TraceMode,
    metrics: Option<Arc<dyn MetricsSink>>,
    trace_sink: Option<Arc<dyn TraceSink>>,
    cancel: Option<CancellationToken>,
}

impl std::fmt::Debug for ClusterBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterBuilder")
            .field("n_nodes", &self.n_nodes)
            .field("round_length", &self.round_length)
            .field("trace_mode", &self.trace_mode)
            .field("instrumented", &self.metrics.is_some())
            .field("traced", &self.trace_sink.is_some())
            .finish()
    }
}

impl ClusterBuilder {
    /// Starts a builder for an `n_nodes` cluster with the paper's default
    /// round length of 2.5 ms.
    pub fn new(n_nodes: usize) -> Self {
        ClusterBuilder {
            n_nodes,
            round_length: Nanos::from_micros(2_500),
            trace_mode: TraceMode::default(),
            metrics: None,
            trace_sink: None,
            cancel: None,
        }
    }

    /// Installs a cancellation token observed between rounds (defaults to
    /// a fresh, never-cancelled token). Supervisors keep a clone and
    /// cancel it to stop the simulation cooperatively at the next round
    /// boundary.
    pub fn cancel_token(mut self, token: CancellationToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Installs an observability sink shared by the engine and every job
    /// context (defaults to a [`NoopSink`]).
    pub fn metrics_sink(mut self, sink: Arc<dyn MetricsSink>) -> Self {
        self.metrics = Some(sink);
        self
    }

    /// Installs a provenance-trace sink shared by the engine and every job
    /// context (defaults to a [`NoopTraceSink`]).
    pub fn trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace_sink = Some(sink);
        self
    }

    /// Sets the TDMA round length.
    pub fn round_length(mut self, t: Nanos) -> Self {
        self.round_length = t;
        self
    }

    /// Sets the TDMA round length in nanoseconds.
    pub fn round_length_ns(mut self, ns: u64) -> Self {
        self.round_length = Nanos::from_nanos(ns);
        self
    }

    /// Sets how much ground truth the trace records.
    pub fn trace_mode(mut self, mode: TraceMode) -> Self {
        self.trace_mode = mode;
        self
    }

    /// Builds a cluster with no jobs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for invalid schedules and for
    /// clusters of more than [`MAX_NODES`] nodes (controllers keep one
    /// validity bit per node in a 64-bit mask).
    pub fn build(self, pipeline: Box<dyn FaultPipeline>) -> Result<Cluster, SimError> {
        if self.n_nodes > MAX_NODES {
            return Err(SimError::InvalidConfig(format!(
                "at most {MAX_NODES} nodes, got {}",
                self.n_nodes
            )));
        }
        let schedule = CommunicationSchedule::new(self.n_nodes, self.round_length)?;
        let nodes = NodeId::all(self.n_nodes).map(Node::new).collect();
        let controllers = NodeId::all(self.n_nodes)
            .map(|id| Controller::new(id, self.n_nodes))
            .collect();
        Ok(Cluster {
            schedule,
            nodes,
            controllers,
            pipeline,
            round: RoundIndex::ZERO,
            trace: Trace::new(self.trace_mode),
            dispatch: Vec::with_capacity(self.n_nodes),
            dispatch_fixed: false,
            slot_out: SlotOutcome::new(),
            metrics: self.metrics.unwrap_or_else(|| Arc::new(NoopSink)),
            trace_sink: self.trace_sink.unwrap_or_else(|| Arc::new(NoopTraceSink)),
            cancel: self.cancel.unwrap_or_default(),
        })
    }

    /// Builds a cluster and installs one job per node from `factory`, all at
    /// execution offset 0 (start of round).
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration (use [`ClusterBuilder::build`] plus
    /// [`Cluster::add_job`] for fallible construction).
    pub fn build_with_jobs(
        self,
        mut factory: impl FnMut(NodeId) -> Box<dyn Job>,
        pipeline: Box<dyn FaultPipeline>,
    ) -> Cluster {
        let n = self.n_nodes;
        let mut cluster = self.build(pipeline).expect("invalid cluster configuration");
        for id in NodeId::all(n) {
            cluster
                .add_job(id, 0, factory(id))
                .expect("node ids are in range by construction");
        }
        cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{NoFaults, SlotEffect, SlotFaultClass};

    /// Records, per activation, which senders' variables were valid and the
    /// freshness pattern visible at the job's offset.
    struct Probe {
        valid_history: Vec<Vec<bool>>,
    }

    impl Job for Probe {
        fn execute(&mut self, ctx: &mut JobCtx<'_>) {
            self.valid_history.push(ctx.validity_bits());
            ctx.write_iface(vec![ctx.round().as_u64() as u8]);
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    fn probe() -> Box<dyn Job> {
        Box::new(Probe {
            valid_history: Vec::new(),
        })
    }

    #[test]
    fn healthy_cluster_reaches_all_valid() {
        let mut cluster = ClusterBuilder::new(4).build_with_jobs(|_| probe(), Box::new(NoFaults));
        cluster.run_rounds(3);
        let job: &Probe = cluster.job_as(NodeId::new(1)).unwrap();
        // After the first round every variable has been received once.
        assert!(job.valid_history[1].iter().all(|&v| v));
        assert!(job.valid_history[2].iter().all(|&v| v));
    }

    #[test]
    fn job_offset_controls_freshness() {
        // A job at offset 2 on node 1 sees slots 0 and 1 of the current
        // round; we verify via last_update freshness on the controller.
        let mut cluster = ClusterBuilder::new(4).build(Box::new(NoFaults)).unwrap();
        cluster.add_job(NodeId::new(1), 2, probe()).unwrap();
        cluster.run_rounds(2);
        let c = cluster.controller(NodeId::new(1)).unwrap();
        // After 2 full rounds every slot of round 1 was delivered.
        assert_eq!(c.last_update(NodeId::new(4)), Some(RoundIndex::new(1)));
    }

    #[test]
    fn benign_fault_clears_validity_at_all_receivers() {
        // Node 3's slot is benign faulty in round 1.
        let pipeline = |ctx: &TxCtx| {
            if ctx.round == RoundIndex::new(1) && ctx.sender == NodeId::new(3) {
                SlotEffect::Benign
            } else {
                SlotEffect::Correct
            }
        };
        let mut cluster = ClusterBuilder::new(4).build_with_jobs(|_| probe(), Box::new(pipeline));
        cluster.run_rounds(2);
        for id in NodeId::all(4) {
            if id == NodeId::new(3) {
                // Sender: collision detector saw the failure.
                let c = cluster.controller(id).unwrap();
                assert_eq!(c.collision_ok(RoundIndex::new(1)), Some(false));
            } else {
                let v = cluster.controller(id).unwrap().validity_snapshot();
                assert!(!v[2], "receiver {id} must have validity 0 for node 3");
            }
        }
        assert_eq!(
            cluster.trace().class_of(RoundIndex::new(1), NodeId::new(3)),
            SlotFaultClass::Benign
        );
        assert_eq!(
            cluster.trace().class_of(RoundIndex::new(0), NodeId::new(3)),
            SlotFaultClass::Correct
        );
    }

    #[test]
    fn determinism_same_config_same_trace() {
        let mk = || {
            let pipeline = |ctx: &TxCtx| {
                // A deterministic pseudo-pattern: every 7th slot benign.
                if ctx.abs_slot % 7 == 3 {
                    SlotEffect::Benign
                } else {
                    SlotEffect::Correct
                }
            };
            let mut c = ClusterBuilder::new(4)
                .trace_mode(TraceMode::Full)
                .build_with_jobs(|_| probe(), Box::new(pipeline));
            c.run_rounds(50);
            c.trace().records().to_vec()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn run_until_stops_on_predicate() {
        let mut cluster = ClusterBuilder::new(4).build_with_jobs(|_| probe(), Box::new(NoFaults));
        let executed = cluster.run_until(100, |c| c.round() == RoundIndex::new(5));
        assert_eq!(executed, 5);
        let executed = cluster.run_until(7, |_| false);
        assert_eq!(executed, 7);
    }

    #[test]
    fn cancelled_token_freezes_cluster_at_round_boundary() {
        let token = CancellationToken::new();
        let mut cluster = ClusterBuilder::new(4)
            .cancel_token(token.clone())
            .build_with_jobs(|_| probe(), Box::new(NoFaults));
        assert_eq!(cluster.run_rounds(3), 3);
        token.cancel();
        assert!(!cluster.run_round());
        assert_eq!(cluster.run_rounds(5), 0);
        assert_eq!(cluster.run_until(5, |_| false), 0);
        assert_eq!(cluster.round(), RoundIndex::new(3));
        // State is frozen, not corrupted: the last completed round's
        // deliveries are all still visible.
        let job: &Probe = cluster.job_as(NodeId::new(1)).unwrap();
        assert_eq!(job.valid_history.len(), 3);
    }

    #[test]
    fn mid_run_cancellation_stops_via_stop_hook() {
        let token = CancellationToken::new();
        let mut cluster = ClusterBuilder::new(4)
            .cancel_token(token.clone())
            .build_with_jobs(|_| probe(), Box::new(NoFaults));
        // Cancel from inside the stop predicate after round 2 completes:
        // the next run_round call observes it.
        let executed = cluster.run_until(100, |c| {
            if c.round() == RoundIndex::new(2) {
                token.cancel();
            }
            false
        });
        assert_eq!(executed, 2);
        assert_eq!(cluster.round(), RoundIndex::new(2));
    }

    #[test]
    fn build_accepts_64_nodes_and_refuses_65() {
        let wide = ClusterBuilder::new(64)
            .round_length_ns(64 * 1_000)
            .build(Box::new(NoFaults))
            .expect("64 nodes fit the validity mask");
        assert_eq!(wide.schedule().n_nodes(), 64);
        let err = ClusterBuilder::new(65)
            .round_length_ns(65 * 1_000)
            .build(Box::new(NoFaults))
            .unwrap_err();
        assert!(
            matches!(&err, SimError::InvalidConfig(msg) if msg.contains("65")),
            "{err}"
        );
    }

    #[test]
    fn unknown_node_errors() {
        let cluster = ClusterBuilder::new(4).build(Box::new(NoFaults)).unwrap();
        assert_eq!(
            cluster.controller(NodeId::new(9)).unwrap_err(),
            SimError::UnknownNode(NodeId::new(9))
        );
    }

    #[test]
    fn job_type_mismatch_errors() {
        struct Other;
        impl Job for Other {
            fn execute(&mut self, _: &mut JobCtx<'_>) {}
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
        let mut cluster = ClusterBuilder::new(4).build(Box::new(NoFaults)).unwrap();
        cluster.add_job(NodeId::new(1), 0, Box::new(Other)).unwrap();
        assert!(matches!(
            cluster.job_as::<Probe>(NodeId::new(1)),
            Err(SimError::JobTypeMismatch(_))
        ));
    }

    #[test]
    fn recording_sink_observes_rounds_and_faults() {
        let sink = Arc::new(crate::metrics::RecordingSink::new());
        let pipeline = |ctx: &TxCtx| {
            if ctx.abs_slot % 5 == 2 {
                SlotEffect::Benign
            } else {
                SlotEffect::Correct
            }
        };
        let mut cluster = ClusterBuilder::new(4)
            .metrics_sink(sink.clone())
            .build_with_jobs(|_| probe(), Box::new(pipeline));
        cluster.run_rounds(10);
        assert_eq!(sink.counter_value("sim.rounds"), 10);
        assert_eq!(sink.counter_value("sim.slots"), 40);
        assert_eq!(sink.counter_value("sim.slot_faults"), 8);
        let events = sink.events();
        let faults = events
            .iter()
            .filter(|e| matches!(e, crate::metrics::MetricsEvent::SlotFault { .. }))
            .count();
        let rounds = events
            .iter()
            .filter(|e| matches!(e, crate::metrics::MetricsEvent::RoundCompleted { .. }))
            .count();
        assert_eq!(faults, 8);
        assert_eq!(rounds, 10);
        // Ground-truth trace and metrics stream agree on fault slots.
        for e in &events {
            if let crate::metrics::MetricsEvent::SlotFault {
                round,
                sender,
                class,
            } = e
            {
                assert_eq!(cluster.trace().class_of(*round, *sender), *class);
            }
        }
        let report = sink.report();
        assert_eq!(report.histograms[0].name, "sim.round_ns");
        assert_eq!(report.histograms[0].summary.count, 10);
    }

    #[test]
    fn default_cluster_uses_noop_sink() {
        let cluster = ClusterBuilder::new(4).build(Box::new(NoFaults)).unwrap();
        assert!(!cluster.metrics().enabled());
    }

    #[test]
    fn now_tracks_round_starts() {
        let mut cluster = ClusterBuilder::new(4)
            .round_length_ns(2_500_000)
            .build(Box::new(NoFaults))
            .unwrap();
        assert_eq!(cluster.now(), Nanos::ZERO);
        cluster.run_rounds(4);
        assert_eq!(cluster.now(), Nanos::from_millis(10));
    }
}
