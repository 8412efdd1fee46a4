//! # tt-bench — experiment regeneration for the tt-diag reproduction
//!
//! This crate hosts:
//!
//! * [`experiments`] — functions that regenerate every table and figure of
//!   the paper's evaluation (Tables 1–4, Figs. 1–3, the Sec. 8 validation
//!   campaign, and the Sec. 10 low-latency variant), returning rendered
//!   reports;
//! * the `fig3` / `table1` / `table2` / `table4` / `validation` /
//!   `repro_all` binaries (thin wrappers over [`experiments`]);
//! * [`observability`] — the host fingerprint that benchmark results
//!   carry, and the canonical scenarios behind the
//!   `tests/golden/metrics_events*.json` snapshots;
//! * [`parallel`] — the lock-free persistent campaign worker pool (with
//!   panic quarantine, so one crashing experiment cannot poison the pool);
//! * [`supervised`] — fault-tolerant campaign execution: watchdog
//!   deadlines, retry/backoff, Alg. 2-style worker health and isolation,
//!   and atomic checkpoint/resume;
//! * [`service`] — the long-lived diagnosis job service behind
//!   `ttdiag serve`: a queue of campaign/explore/tune-sweep jobs executed
//!   in halt/resumable checkpointed chunks with live metrics, span and
//!   progress feeds;
//! * the workspace-level integration tests under `tests/` and the runnable
//!   examples under `examples/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comparison;
pub mod experiments;
pub mod observability;
pub mod parallel;
pub mod service;
pub mod supervised;

pub use comparison::comparison_report;
pub use experiments::*;
pub use observability::{
    canonical_metrics_report, lightning_metrics_report, normalize_report, HostFingerprint,
};
pub use parallel::{run_parallel_campaign, CampaignExecutor};
pub use service::{DiagService, FeedHubs, JobSpec, JobState, JobStatus};
pub use supervised::{LiveFeeds, SupervisedCampaign, SupervisedOutcome, SupervisorConfig};
