//! # tt-sim — a deterministic time-triggered (TDMA) cluster simulator
//!
//! This crate is the *substrate* for the reproduction of the DSN 2007 paper
//! "A Tunable Add-On Diagnostic Protocol for Time-Triggered Systems".
//! It simulates, deterministically and at slot granularity, the system model
//! of Sec. 3 of the paper:
//!
//! * `N` nodes with unique IDs `1..=N`, assigned in sending-slot order;
//! * a periodic **global communication schedule**: each TDMA round contains
//!   one **sending slot** per node ([`CommunicationSchedule`]);
//! * a shared **broadcast bus** ([`bus`]) on which each transmission yields a
//!   per-receiver [`Reception`] outcome, shaped by a pluggable
//!   [`FaultPipeline`] (the disturbance node of the paper's testbed);
//! * a **communication controller** per node ([`Controller`]) that updates
//!   **interface variables** and their **validity bits** using its local
//!   error-detection mechanisms, and features a **local collision detector**;
//! * per-node **node schedules** ([`JobSlot`]) that determine when
//!   application jobs run inside a round, from which the paper's `l_i` and
//!   `send_curr_round_i` parameters are derived.
//!
//! The simulator is fully deterministic: given the same configuration, job
//! set and fault pipeline, every run is bit-identical. There is no wall
//! clock; simulated time is tracked in integer [`Nanos`] and rounds.
//!
//! ## Quick example
//!
//! ```
//! use tt_sim::{ClusterBuilder, Job, JobCtx, NoFaults};
//!
//! /// A job that broadcasts its round number and counts valid receptions.
//! struct Counter { seen: u64 }
//! impl Job for Counter {
//!     fn execute(&mut self, ctx: &mut JobCtx<'_>) {
//!         ctx.write_iface(ctx.round().as_u64().to_le_bytes().to_vec());
//!         self.seen += ctx.validity_bits().iter().filter(|&&v| v).count() as u64;
//!     }
//!     fn as_any(&self) -> &dyn std::any::Any { self }
//! }
//!
//! let mut cluster = ClusterBuilder::new(4)
//!     .round_length_ns(2_500_000) // 2.5 ms rounds, as in the paper
//!     .build_with_jobs(|_id| Box::new(Counter { seen: 0 }), Box::new(NoFaults));
//! cluster.run_rounds(10);
//! let job = cluster.job_as::<Counter>(tt_sim::NodeId::new(1)).unwrap();
//! assert!(job.seen > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod bus;
pub mod cancel;
pub mod channels;
pub mod clock;
pub mod controller;
pub mod engine;
pub mod error;
pub mod frame;
pub mod hash;
pub mod job;
pub mod metrics;
pub mod node;
pub mod poisson;
pub mod schedule;
pub mod stream;
pub mod time;
pub mod timeline;
pub mod trace;
pub mod tracing;

pub use batch::{
    BatchCluster, BatchFaultPlan, BatchLanes, LaneEffect, LaneFault, LockstepJob, MAX_BATCH_NODES,
};
pub use bus::{
    apply_effect, apply_effect_into, FaultPipeline, NoFaults, Reception, SlotEffect,
    SlotFaultClass, SlotOutcome, TxCtx, TxOutcome,
};
pub use cancel::CancellationToken;
pub use channels::ReplicatedBus;
pub use clock::{ClockConfig, ClockDrivenPipeline, ClockEnsemble};
pub use controller::{CollisionDetectorMode, Controller, MAX_NODES};
pub use engine::{Cluster, ClusterBuilder};
pub use error::SimError;
pub use frame::{crc32, Frame, FrameError};
pub use hash::Fnv1a64;
pub use job::{Job, JobCtx};
pub use metrics::{
    HistogramSummary, MetricsEvent, MetricsReport, MetricsSink, NamedCounter, NamedGauge,
    NamedHistogram, NoopSink, RecordingSink, NOOP_SINK,
};
pub use node::{JobSlot, Node, ScheduleSource};
pub use poisson::{per_round_probability, sample_arrival_rounds};
pub use schedule::{CommunicationSchedule, NodeSchedule, SlotPosition};
pub use stream::{
    Framed, ProgressEvent, StreamHub, StreamingSink, StreamingTraceSink, SubscriberStats,
    Subscription,
};
pub use time::{Nanos, NodeId, RoundIndex};
// The ground-truth *injected-fault* trace (what the fault pipeline did to
// the bus). `FaultTrace` is an alias that disambiguates it from the
// protocol-provenance tracing layer below.
pub use trace::{EffectRecord, ReplayPipeline, SlotRecord, Trace, Trace as FaultTrace, TraceMode};
// Protocol-provenance tracing (why the protocol concluded what it did).
pub use tracing::{
    CauseId, NoopTraceSink, RecordingTraceSink, SpanEvent, TracePhase, TraceSink, UpdateKind,
    NOOP_TRACE_SINK,
};
