//! # tt-core — the tunable add-on diagnostic & membership protocols
//!
//! This crate implements the primary contribution of the DSN 2007 paper
//! *"A Tunable Add-On Diagnostic Protocol for Time-Triggered Systems"*
//! (Serafini, Suri, Brandstätter, Vinter, Tagliabò, Ademaj, Koch):
//!
//! * the **on-line diagnostic protocol** (paper Sec. 5, Alg. 1): five
//!   pipelined phases — local detection, dissemination, aggregation,
//!   analysis, counter update — executed by an application-level job on
//!   every node, with **read alignment** and **send alignment** making the
//!   protocol correct under arbitrary node schedules ([`protocol::DiagJob`]);
//! * the **hybrid majority voting** function `H-maj` (Eqn. 1) over the
//!   columns of the **diagnostic matrix** ([`voting`], [`matrix`]);
//! * the **penalty/reward algorithm** (Alg. 2) that accumulates diagnostic
//!   information to discriminate external transient faults from
//!   intermittent/permanent ones, with per-node criticality levels
//!   ([`penalty`]);
//! * the **membership protocol** variant (Sec. 7) with *minority
//!   accusations* that detects cliques formed by asymmetric faults and
//!   maintains membership views ([`membership`]);
//! * the **low-latency system-level variant** (Sec. 10) with per-slot
//!   analysis and one-round detection latency ([`lowlat`]);
//! * machine-checkable **property oracles** for the correctness,
//!   completeness and consistency guarantees of Theorem 1
//!   ([`properties`]).
//!
//! The protocol is an ordinary [`tt_sim::Job`]: it uses only interface
//! variables, validity bits, the local collision detector, and the two
//! schedule parameters `l_i` / `send_curr_round_i` — exactly the
//! application-level facilities the paper allows.
//!
//! ## Quick start
//!
//! ```
//! use tt_core::{DiagJob, ProtocolConfig};
//! use tt_sim::{ClusterBuilder, NodeId, SlotEffect, TxCtx, RoundIndex};
//!
//! // Node 3 crashes (permanently benign faulty) from round 5 on.
//! let pipeline = |ctx: &TxCtx| {
//!     if ctx.sender == NodeId::new(3) && ctx.round >= RoundIndex::new(5) {
//!         SlotEffect::Benign
//!     } else {
//!         SlotEffect::Correct
//!     }
//! };
//! let config = ProtocolConfig::builder(4)
//!     .penalty_threshold(3)
//!     .reward_threshold(10)
//!     .build()?;
//! let mut cluster = ClusterBuilder::new(4).build_with_jobs(
//!     |id| Box::new(DiagJob::new(id, config.clone())),
//!     Box::new(pipeline),
//! );
//! cluster.run_rounds(20);
//! let diag: &DiagJob = cluster.job_as(NodeId::new(1))?;
//! assert!(!diag.is_active(NodeId::new(3)), "crashed node isolated");
//! assert!(diag.is_active(NodeId::new(1)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alignment;
pub mod bandwidth;
pub mod batch;
pub mod config;
pub mod error;
pub mod lowlat;
pub mod matrix;
pub mod membership;
pub mod penalty;
pub mod pipeline;
pub mod properties;
pub mod protocol;
pub mod syndrome;
pub mod voting;

pub use batch::{BatchDiagJob, BatchLaneParams};
pub use config::{ProtocolConfig, ProtocolConfigBuilder};
pub use error::ProtocolError;
pub use matrix::DiagnosticMatrix;
pub use membership::{MembershipJob, MembershipView};
pub use penalty::{PenaltyReward, PrTransition, ReintegrationPolicy};
pub use protocol::{CounterSample, DiagJob, HealthRecord, IsolationEvent};
pub use syndrome::{Syndrome, SyndromeRow};
pub use voting::{h_maj, h_maj_tally, HMaj, VoteTally};
