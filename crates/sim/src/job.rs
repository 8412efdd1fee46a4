//! Application jobs and their execution context.
//!
//! Jobs are the unit of application-level computation in the paper's system
//! model: each node's internal schedule runs its jobs once per round, and
//! jobs communicate exclusively through interface variables. The add-on
//! diagnostic protocol is implemented as an ordinary [`Job`] — it has no
//! access to anything a real application-level middleware module would not
//! have.

use std::any::Any;

use bytes::Bytes;

use crate::controller::Controller;
use crate::metrics::{MetricsSink, NOOP_SINK};
use crate::schedule::NodeSchedule;
use crate::time::{NodeId, RoundIndex};
use crate::tracing::{TraceSink, NOOP_TRACE_SINK};

/// An application-level job executed once per TDMA round.
///
/// Implementors must also provide [`Job::as_any`] so that test harnesses and
/// experiment runners can recover the concrete job type after a simulation
/// (see [`crate::Cluster::job_as`]).
pub trait Job: Send {
    /// Runs the job for the current round.
    ///
    /// The context exposes exactly the application-level facilities of the
    /// paper's system model: interface variables with validity bits, the
    /// node's transmit buffer, the two node-schedule parameters, and the
    /// local collision detector.
    fn execute(&mut self, ctx: &mut JobCtx<'_>);

    /// Upcasts to [`Any`] for post-simulation inspection.
    fn as_any(&self) -> &dyn Any;
}

/// The execution context of one job activation.
///
/// Borrow of the hosting node's communication controller plus the static
/// schedule information the paper allows the application to know
/// (`l_i`, `send_curr_round_i`; Sec. 10).
pub struct JobCtx<'a> {
    controller: &'a mut Controller,
    schedule: NodeSchedule,
    round: RoundIndex,
    metrics: &'a dyn MetricsSink,
    tracing: &'a dyn TraceSink,
}

impl std::fmt::Debug for JobCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobCtx")
            .field("controller", &self.controller)
            .field("schedule", &self.schedule)
            .field("round", &self.round)
            .finish_non_exhaustive()
    }
}

impl<'a> JobCtx<'a> {
    /// Creates a context with no metrics or trace sink; used by unit tests
    /// that drive a job manually (the engine uses [`JobCtx::with_sinks`]).
    pub fn new(controller: &'a mut Controller, schedule: NodeSchedule, round: RoundIndex) -> Self {
        Self::with_sinks(controller, schedule, round, &NOOP_SINK, &NOOP_TRACE_SINK)
    }

    /// Creates a context reporting to `metrics` (no provenance tracing).
    pub fn with_metrics(
        controller: &'a mut Controller,
        schedule: NodeSchedule,
        round: RoundIndex,
        metrics: &'a dyn MetricsSink,
    ) -> Self {
        Self::with_sinks(controller, schedule, round, metrics, &NOOP_TRACE_SINK)
    }

    /// Creates a context reporting metrics to `metrics` and provenance
    /// spans to `tracing`.
    pub fn with_sinks(
        controller: &'a mut Controller,
        schedule: NodeSchedule,
        round: RoundIndex,
        metrics: &'a dyn MetricsSink,
        tracing: &'a dyn TraceSink,
    ) -> Self {
        JobCtx {
            controller,
            schedule,
            round,
            metrics,
            tracing,
        }
    }

    /// The cluster's metrics sink.
    ///
    /// The returned reference carries the context's full lifetime, so jobs
    /// can hold it across later mutable uses of the context (e.g. capture it
    /// before an [`JobCtx::isolate`] call).
    pub fn metrics(&self) -> &'a dyn MetricsSink {
        self.metrics
    }

    /// The cluster's provenance-trace sink (same lifetime contract as
    /// [`JobCtx::metrics`]).
    pub fn tracing(&self) -> &'a dyn TraceSink {
        self.tracing
    }

    /// The hosting node's id.
    pub fn node(&self) -> NodeId {
        self.schedule.node()
    }

    /// The current round `k` (the round in which this activation runs).
    pub fn round(&self) -> RoundIndex {
        self.round
    }

    /// Cluster size `N`.
    pub fn n_nodes(&self) -> usize {
        self.controller.n_nodes()
    }

    /// The paper's `l_i` for this node's schedule.
    pub fn l(&self) -> usize {
        self.schedule.l()
    }

    /// The paper's `send_curr_round_i` predicate for this node's schedule.
    pub fn send_curr_round(&self) -> bool {
        self.schedule.send_curr_round()
    }

    /// Reads all interface variables (`read_iface` in Alg. 1).
    ///
    /// Index = sender index; `None` if never successfully received.
    pub fn read_iface(&self) -> Vec<Option<Bytes>> {
        self.controller.iface_snapshot()
    }

    /// Borrows all interface variables without copying (the allocation-free
    /// counterpart of [`JobCtx::read_iface`]).
    pub fn iface(&self) -> &[Option<Bytes>] {
        self.controller.iface()
    }

    /// Reads all validity bits (`read_vbits` in Alg. 1).
    pub fn validity_bits(&self) -> Vec<bool> {
        self.controller.validity_snapshot()
    }

    /// All validity bits as a mask, bit `j` for the sender at index `j`
    /// (the allocation-free counterpart of [`JobCtx::validity_bits`]).
    pub fn validity_mask(&self) -> u64 {
        self.controller.validity_mask()
    }

    /// Writes the node's outgoing interface variable (`write_iface`).
    ///
    /// Whether the value is transmitted in the current or the next round
    /// depends on [`JobCtx::send_curr_round`].
    pub fn write_iface(&mut self, payload: impl Into<Bytes>) {
        self.controller.write_tx(payload.into());
    }

    /// Queries the local collision detector for the node's own slot in
    /// `round` (`coll-det` in Alg. 1, line 14).
    ///
    /// Returns `None` if no observation is available for that round.
    pub fn collision_ok(&self, round: RoundIndex) -> Option<bool> {
        self.controller.collision_ok(round)
    }

    /// Instructs the local communication controller to ignore traffic from
    /// `node` from now on (isolation decision of the p/r algorithm).
    pub fn isolate(&mut self, node: NodeId) {
        self.controller.isolate(node);
    }

    /// Whether the local controller currently accepts traffic from `node`.
    pub fn is_active(&self, node: NodeId) -> bool {
        self.controller.is_active(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::Reception;

    struct Echo {
        last_seen_valid: usize,
    }

    impl Job for Echo {
        fn execute(&mut self, ctx: &mut JobCtx<'_>) {
            self.last_seen_valid = ctx.validity_bits().iter().filter(|&&v| v).count();
            ctx.write_iface(vec![self.last_seen_valid as u8]);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn job_reads_and_writes_through_ctx() {
        let node = NodeId::new(2);
        let mut controller = Controller::new(node, 4);
        controller.deliver(
            NodeId::new(1),
            RoundIndex::new(0),
            Reception::Valid(Bytes::from_static(b"\x01")),
        );
        let sched = NodeSchedule::new(node, 1, 4).unwrap();
        let mut job = Echo { last_seen_valid: 0 };
        let mut ctx = JobCtx::new(&mut controller, sched, RoundIndex::new(0));
        assert_eq!(ctx.node(), node);
        assert_eq!(ctx.n_nodes(), 4);
        assert_eq!(ctx.l(), 1);
        assert!(ctx.send_curr_round());
        job.execute(&mut ctx);
        assert_eq!(job.last_seen_valid, 1);
        assert_eq!(controller.tx_payload(), Bytes::from(vec![1u8]));
    }

    #[test]
    fn ctx_isolation_affects_only_local_controller() {
        let node = NodeId::new(1);
        let mut controller = Controller::new(node, 4);
        let sched = NodeSchedule::new(node, 0, 4).unwrap();
        let mut ctx = JobCtx::new(&mut controller, sched, RoundIndex::ZERO);
        assert!(ctx.is_active(NodeId::new(3)));
        ctx.isolate(NodeId::new(3));
        assert!(!ctx.is_active(NodeId::new(3)));
    }
}
