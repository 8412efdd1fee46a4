//! Benchmark provenance and observability fixtures: the [`HostFingerprint`]
//! that perfbench prints with every result and `BENCH_perfbench.json`
//! records with every row, and the canonical instrumented scenarios whose
//! event streams are snapshotted under `tests/golden/metrics_events*.json`.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use tt_core::{DiagJob, ProtocolConfig};
use tt_fault::{DisturbanceNode, TransientScenario};
use tt_sim::{
    ClusterBuilder, CommunicationSchedule, MetricsEvent, MetricsReport, Nanos, NodeId,
    RecordingSink, SlotEffect, TraceMode, TxCtx,
};

/// The machine a benchmark result was measured on. Absolute throughput is
/// only comparable between identical hosts, so every perfbench result and
/// every `BENCH_perfbench.json` row carries one: two numbers with different
/// fingerprints (silicon, core count or `target-cpu`) do not gate each other.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostFingerprint {
    /// Logical CPU count visible to the process.
    pub logical_cores: usize,
    /// The kernel-reported CPU model (`model name` in `/proc/cpuinfo`),
    /// `"unknown"` where unavailable.
    pub cpu_model: String,
    /// The compile-time target: architecture plus the SIMD features the
    /// binary was built with (e.g. `x86_64[avx2+sse4.2]`).
    pub target_cpu: String,
}

impl HostFingerprint {
    /// Fingerprints the current host and binary.
    pub fn detect() -> Self {
        HostFingerprint {
            logical_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            target_cpu: target_cpu(),
        }
    }
}

/// The first `model name` entry of `/proc/cpuinfo`, or `"unknown"`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|body| {
            body.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .filter(|m| !m.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The compile-time architecture and SIMD feature set of this binary —
/// the observable trace of `-C target-cpu`.
fn target_cpu() -> String {
    let features: Vec<&str> = [
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("avx", cfg!(target_feature = "avx")),
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("neon", cfg!(target_feature = "neon")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    if features.is_empty() {
        std::env::consts::ARCH.to_string()
    } else {
        format!("{}[{}]", std::env::consts::ARCH, features.join("+"))
    }
}

/// Zeroes the wall-clock fields of a report in place.
///
/// `sim.round_ns` timings are the only nondeterministic signal in an
/// instrumented run; golden snapshots normalize them away so the rest of
/// the stream can be compared bit for bit.
pub fn normalize_report(report: &mut MetricsReport) {
    for h in &mut report.histograms {
        if h.name == "sim.round_ns" {
            let count = h.summary.count;
            h.summary = Default::default();
            h.summary.count = count;
        }
    }
    for e in &mut report.events {
        if let MetricsEvent::RoundCompleted { wall_ns, .. } = e {
            *wall_ns = 0;
        }
    }
}

/// The canonical instrumented scenario behind
/// `tests/golden/metrics_events.json`: a 4-node cluster with `P = 3`,
/// `R = 2` where node 2 is intermittently faulty (every second round from
/// round 4) until it is isolated, while node 3 suffers a single transient
/// in round 5 that the reward counter forgives. The returned report is
/// [normalized](normalize_report) and therefore fully deterministic.
pub fn canonical_metrics_report() -> MetricsReport {
    let sink = Arc::new(RecordingSink::new());
    let config = ProtocolConfig::builder(4)
        .penalty_threshold(3)
        .reward_threshold(2)
        .build()
        .expect("valid protocol config");
    let pipeline = |ctx: &TxCtx| {
        let r = ctx.round.as_u64();
        let intermittent = ctx.sender == NodeId::new(2) && r >= 4 && r.is_multiple_of(2);
        let transient = ctx.sender == NodeId::new(3) && r == 5;
        if intermittent || transient {
            SlotEffect::Benign
        } else {
            SlotEffect::Correct
        }
    };
    let mut cluster = ClusterBuilder::new(4)
        .trace_mode(TraceMode::Off)
        .metrics_sink(sink.clone())
        .build_with_jobs(
            |id| Box::new(DiagJob::new(id, config.clone())),
            Box::new(pipeline),
        );
    cluster.run_rounds(16);
    let mut report = sink.report();
    normalize_report(&mut report);
    report
}

/// The second canonical instrumented scenario, behind
/// `tests/golden/metrics_events_lightning.json`: the Table 3 aerospace
/// lightning-bolt transient driven against a 4-node cluster tuned with the
/// aerospace penalty threshold `P = 17` and `R = 2`, for 24 rounds. The
/// burst hits every node's slots, so the stream exercises simultaneous
/// multi-column accusations and the forgiveness path — a shape the
/// intermittent scenario above never produces. The returned report is
/// [normalized](normalize_report) and therefore fully deterministic.
pub fn lightning_metrics_report() -> MetricsReport {
    let n = 4;
    let round_length = Nanos::from_micros(2_500);
    let sink = Arc::new(RecordingSink::new());
    let config = ProtocolConfig::builder(n)
        .penalty_threshold(17)
        .reward_threshold(2)
        .build()
        .expect("valid protocol config");
    let sched = CommunicationSchedule::new(n, round_length).expect("valid schedule");
    let mut pipeline = DisturbanceNode::new(0);
    pipeline.push(TransientScenario::lightning_bolt().to_disturbance(&sched, Nanos::ZERO));
    let mut cluster = ClusterBuilder::new(n)
        .round_length(round_length)
        .trace_mode(TraceMode::Off)
        .metrics_sink(sink.clone())
        .build_with_jobs(
            |id| Box::new(DiagJob::new(id, config.clone())),
            Box::new(pipeline),
        );
    cluster.run_rounds(24);
    let mut report = sink.report();
    normalize_report(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_analysis::EventSummary;

    #[test]
    fn canonical_report_is_deterministic_and_complete() {
        let a = canonical_metrics_report();
        let b = canonical_metrics_report();
        assert_eq!(a, b, "normalized canonical report must be reproducible");

        let summary = EventSummary::of(&a.events);
        assert_eq!(summary.count("round_completed"), 16);
        assert!(summary.count("isolation") > 0, "node 2 gets isolated");
        assert!(summary.count("forgiveness") > 0, "node 3 gets forgiven");
        assert!(summary.count("penalty_charged") > 0);
        assert!(summary.count("reward_earned") > 0);
        // Normalization: every wall-clock field is zero.
        for e in &a.events {
            if let MetricsEvent::RoundCompleted { wall_ns, .. } = e {
                assert_eq!(*wall_ns, 0);
            }
        }
    }

    #[test]
    fn lightning_report_is_deterministic_and_complete() {
        let a = lightning_metrics_report();
        let b = lightning_metrics_report();
        assert_eq!(a, b, "normalized lightning report must be reproducible");

        let summary = EventSummary::of(&a.events);
        assert_eq!(summary.count("round_completed"), 24);
        assert!(summary.count("slot_fault") > 0, "the burst hits the bus");
        assert!(
            summary.count("penalty_charged") > 0,
            "victims get penalized"
        );
        assert!(
            summary.count("forgiveness") > 0,
            "R = 2 forgives the transient before P = 17 isolates"
        );
        assert_eq!(summary.count("isolation"), 0, "no one is isolated");
    }

    #[test]
    fn host_fingerprint_detects_this_machine() {
        let h = HostFingerprint::detect();
        assert!(h.logical_cores >= 1);
        assert!(!h.cpu_model.is_empty());
        assert!(h.target_cpu.contains(std::env::consts::ARCH));
        assert_eq!(h, HostFingerprint::detect(), "detection is stable");
    }
}
