//! Property-based equivalence of the lockstep batch engine and the scalar
//! cluster: every lane of a [`BatchCluster`] must reproduce a scalar
//! [`Cluster`] run of the same fault schedule byte for byte — health
//! vectors, counter samples, isolation events, penalty/reward counters and
//! state fingerprints — at every required batch size B ∈ {1, 7, 64, 256},
//! and for wide clusters (N ∈ {9, 15, 16, 17, 33, 64}, every word count of
//! the vote tally) at B ∈ {1, 7, 64}.
//!
//! Two layers of the stack are exercised:
//!
//! * the fault-crate conversion path ([`seeded_schedule`] →
//!   [`execute_schedules_batched`] vs [`execute_schedule`]), whose lane
//!   conversion `ttdiag tune sweep` runs through `observe_schedules_batched`;
//!   and
//! * the raw engine ([`BatchCluster`] + [`BatchDiagJob::with_recording`])
//!   against a hand-driven scalar fault pipeline, comparing full protocol
//!   state rather than just its fingerprint stream.

use proptest::prelude::*;

use bytes::Bytes;
use tt_core::{BatchDiagJob, BatchLaneParams, DiagJob, ProtocolConfig};
use tt_fault::{
    execute_schedule, execute_schedules_batched, round_for, seeded_schedule, ExploreConfig,
};
use tt_sim::{
    BatchCluster, BatchFaultPlan, Cluster, ClusterBuilder, LaneEffect, LaneFault, NodeId,
    SlotEffect, TxCtx,
};

/// The batch sizes the lockstep engine must be exact at: a single lane, a
/// ragged non-power-of-two, a full SWAR word multiple and the campaign's
/// production width.
const BATCH_SIZES: [usize; 4] = [1, 7, 64, 256];

/// Wide cluster sizes: one tally word plus a node, two words less a node,
/// exactly two words, two words plus a node, four words plus a node, and
/// the engine's maximum.
const WIDE_NODES: [usize; 6] = [9, 15, 16, 17, 33, 64];

/// Batch sizes of the wide case: one lane, a ragged width and one full
/// 64-lane batch (256 lanes of 64-node clusters add time, not coverage).
const WIDE_BATCH_SIZES: [usize; 3] = [1, 7, 64];

/// The all-ok mask of an `n`-node cluster (full width at `n = 64`).
fn full_mask(n: usize) -> u64 {
    u64::MAX >> (64 - n)
}

/// A lane's fault plan plus the thresholds it runs under.
#[derive(Debug, Clone)]
struct LaneCase {
    faults: Vec<LaneFault>,
    penalty_threshold: u64,
    reward_threshold: u64,
}

fn effect_strategy(n: usize) -> impl Strategy<Value = LaneEffect> {
    let full = full_mask(n);
    prop_oneof![
        Just(LaneEffect::Benign),
        (0..=full).prop_map(|mask| LaneEffect::Malicious { mask }),
        (0..=full, any::<bool>()).prop_map(|(detected_by, collision_ok)| {
            LaneEffect::Asymmetric {
                detected_by,
                collision_ok,
            }
        }),
    ]
}

fn fault_strategy(n: usize, rounds: u64) -> impl Strategy<Value = LaneFault> {
    (
        (0..n, 0..rounds),
        (prop_oneof![1u64..6, Just(u64::MAX)], 1u64..4),
        effect_strategy(n),
    )
        .prop_map(|((slot, first_round), (hits, stride), effect)| LaneFault {
            slot,
            first_round,
            hits,
            stride,
            effect,
        })
}

fn lane_case_strategy(n: usize, rounds: u64) -> impl Strategy<Value = LaneCase> {
    (
        proptest::collection::vec(fault_strategy(n, rounds), 0..4),
        1u64..5,
        1u64..5,
    )
        .prop_map(|(faults, penalty_threshold, reward_threshold)| LaneCase {
            faults,
            penalty_threshold,
            reward_threshold,
        })
}

/// Fits a fault drawn for a 64-node cluster to `n` nodes: the slot wraps,
/// a malicious mask keeps its low `n` bits, and an asymmetric fault's
/// drawn bits seed a detector set at the majority boundary — exactly
/// ⌊(n−1)/2⌋ or ⌈(n−1)/2⌉ receivers other than the sender, so one
/// miscounted vote flips a column verdict.
fn fit_to(mut fault: LaneFault, n: usize) -> LaneFault {
    fault.slot %= n;
    match &mut fault.effect {
        LaneEffect::Benign => {}
        LaneEffect::Malicious { mask } => *mask &= full_mask(n),
        LaneEffect::Asymmetric { detected_by, .. } => {
            *detected_by = boundary_detectors(n, fault.slot, *detected_by);
        }
    }
    fault
}

/// ⌊(n−1)/2⌋ receivers other than `sender` (⌈(n−1)/2⌉ if the top bit of
/// `seed` is set), picked by a partial Fisher–Yates shuffle seeded from
/// `seed`.
fn boundary_detectors(n: usize, sender: usize, seed: u64) -> u64 {
    let k = (n - 1) / 2 + (seed >> 63) as usize * ((n - 1) % 2);
    let mut pool: Vec<usize> = (0..n).filter(|&r| r != sender).collect();
    let mut state = seed;
    let mut mask = 0;
    for _ in 0..k {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let pick = (state >> 33) as usize % pool.len();
        mask |= 1u64 << pool.swap_remove(pick);
    }
    mask
}

/// Replays a lane's fault plan through the scalar fault pipeline of an
/// `n`-node cluster with the engine's first-match-wins resolution, mapping
/// each [`LaneEffect`] to the [`SlotEffect`] it was pre-decoded from (a
/// malicious mask travels as its ⌈n/8⌉ little-endian wire bytes).
fn scalar_pipeline(
    n: usize,
    faults: Vec<LaneFault>,
) -> impl FnMut(&TxCtx) -> SlotEffect + Send + 'static {
    move |ctx: &TxCtx| {
        let (round, slot) = (ctx.round.as_u64(), ctx.sender.index());
        match faults.iter().find(|f| f.covers(round, slot)) {
            None => SlotEffect::Correct,
            Some(f) => match f.effect {
                LaneEffect::Benign => SlotEffect::Benign,
                LaneEffect::Malicious { mask } => SlotEffect::SymmetricMalicious {
                    payload: Bytes::copy_from_slice(&mask.to_le_bytes()[..n.div_ceil(8)]),
                },
                LaneEffect::Asymmetric {
                    detected_by,
                    collision_ok,
                } => SlotEffect::Asymmetric {
                    detected_by: (0..64).filter(|i| detected_by & (1 << i) != 0).collect(),
                    collision_ok,
                },
            },
        }
    }
}

/// Asserts lane `lane` of the batched run matches the scalar cluster's
/// protocol state exactly.
fn assert_lane_matches(job: &BatchDiagJob, cluster: &Cluster, lane: usize) {
    let n = job.n_nodes();
    for i in 0..n {
        let scalar: &DiagJob = cluster.job_as(NodeId::from_slot(i)).expect("diag job");
        assert_eq!(
            job.health_log(lane, i),
            scalar.health_log(),
            "health log of observer {i} in lane {lane}"
        );
        assert_eq!(
            job.counter_trace(lane, i),
            scalar.counter_trace(),
            "counter trace of observer {i} in lane {lane}"
        );
        assert_eq!(
            job.isolation_events(lane, i),
            scalar.isolations(),
            "isolations of observer {i} in lane {lane}"
        );
        for j in 0..n {
            let node = NodeId::from_slot(j);
            assert_eq!(job.penalty(lane, i, j), scalar.penalty(node));
            assert_eq!(job.reward(lane, i, j), scalar.reward(node));
        }
    }
}

/// Runs `cases` (lane `l` takes `cases[l % cases.len()]`) through the
/// batched engine at every size in `batch_sizes` and asserts each lane's
/// full recorded state equals an independent scalar run of its case.
fn assert_batches_match_scalar(n: usize, cases: &[LaneCase], batch_sizes: &[usize], rounds: u64) {
    // Distinct lane cases is all that needs scalar re-execution: the engine
    // is deterministic per (plan, params).
    let scalars: Vec<Cluster> = cases
        .iter()
        .map(|c| {
            let cfg = ProtocolConfig::builder(n)
                .penalty_threshold(c.penalty_threshold)
                .reward_threshold(c.reward_threshold)
                .build()
                .expect("valid config");
            // The round must divide into n equal slots (its absolute length
            // is irrelevant to the diagnosis state).
            let mut cluster = ClusterBuilder::new(n)
                .round_length(round_for(n))
                .build_with_jobs(
                    move |id| Box::new(DiagJob::new(id, cfg.clone()).with_counter_trace()),
                    Box::new(scalar_pipeline(n, c.faults.clone())),
                );
            cluster.run_rounds(rounds);
            cluster
        })
        .collect();
    for &b in batch_sizes {
        let lanes: Vec<&LaneCase> = (0..b).map(|l| &cases[l % cases.len()]).collect();
        let plans = lanes
            .iter()
            .map(|c| BatchFaultPlan::new(c.faults.clone()))
            .collect();
        let params: Vec<BatchLaneParams> = lanes
            .iter()
            .map(|c| BatchLaneParams {
                penalty_threshold: c.penalty_threshold,
                reward_threshold: c.reward_threshold,
            })
            .collect();
        let mut batch = BatchCluster::new(n, plans).expect("valid batch");
        let mut job = BatchDiagJob::new(n, &params).with_recording();
        batch.run_rounds(rounds, &mut job);
        for lane in 0..b {
            assert_lane_matches(&job, &scalars[lane % cases.len()], lane);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random lane plans at every required batch size: the full recorded
    /// protocol state of each lane equals an independent scalar run of the
    /// same plan under the same thresholds. Lanes are deliberately
    /// heterogeneous (plan and thresholds both vary per lane) so divergent
    /// control flow inside one SIMD batch is exercised, not just replicated
    /// uniform work.
    #[test]
    fn every_lane_matches_scalar_state(
        n in 4usize..7,
        seeds in proptest::collection::vec(lane_case_strategy(6, 24), 8),
    ) {
        let cases: Vec<LaneCase> = seeds
            .into_iter()
            .map(|mut c| {
                // Clamp out-of-range slots/masks drawn for the widest n.
                c.faults.retain(|f| f.slot < n);
                for f in &mut c.faults {
                    if let LaneEffect::Malicious { mask } = &mut f.effect {
                        *mask &= full_mask(n);
                    }
                    if let LaneEffect::Asymmetric { detected_by, .. } = &mut f.effect {
                        *detected_by &= full_mask(n);
                    }
                }
                c
            })
            .collect();
        assert_batches_match_scalar(n, &cases, &BATCH_SIZES, 24);
    }

    /// The production conversion path: explorer-grade random schedules
    /// (mixed fault classes, strides, budgets) run through
    /// [`execute_schedules_batched`] yield the exact scalar
    /// [`execute_schedule`] fingerprint stream, at every batch size.
    #[test]
    fn batched_fingerprints_match_scalar_at_all_batch_sizes(seed in any::<u64>()) {
        let cfg = ExploreConfig::default();
        for &b in &BATCH_SIZES {
            let schedules: Vec<_> = (0..b as u64)
                .map(|i| seeded_schedule(&cfg, seed.wrapping_add(i)))
                .collect();
            let batched = execute_schedules_batched(&schedules).expect("valid schedules");
            for (s, fps) in schedules.iter().zip(&batched) {
                prop_assert_eq!(
                    &execute_schedule(s).fingerprints,
                    fps,
                    "B={} schedule {:?}",
                    b,
                    s
                );
            }
        }
    }
}

proptest! {
    // Every case runs all six cluster sizes, up to 64-node scalar re-runs.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The same comparison for wide clusters, where the vote tally spans
    /// ⌈N/8⌉ words per lane: every N of [`WIDE_NODES`] runs each drawn
    /// set of lane plans. Asymmetric faults sit at the majority boundary,
    /// where a single miscounted vote changes the verdict.
    #[test]
    fn wide_lanes_match_scalar_state(
        seeds in proptest::collection::vec(lane_case_strategy(64, 24), 8),
    ) {
        for &n in &WIDE_NODES {
            let cases: Vec<LaneCase> = seeds
                .iter()
                .map(|c| LaneCase {
                    faults: c.faults.iter().map(|&f| fit_to(f, n)).collect(),
                    ..c.clone()
                })
                .collect();
            assert_batches_match_scalar(n, &cases, &WIDE_BATCH_SIZES, 24);
        }
    }
}

/// Lane results are independent of batch width: running 256 random plans
/// as one batch and as 256 single-lane batches yields identical
/// fingerprint streams (so campaign results can't depend on how the work
/// was chunked).
#[test]
fn batch_width_does_not_change_lane_results() {
    let cfg = ExploreConfig {
        n: 5,
        rounds: 20,
        ..ExploreConfig::default()
    };
    let schedules: Vec<_> = (0..256)
        .map(|i| seeded_schedule(&cfg, 0xB_A7C4 + i))
        .collect();
    let wide = execute_schedules_batched(&schedules).expect("valid schedules");
    for (s, fps) in schedules.iter().zip(&wide) {
        let narrow = execute_schedules_batched(std::slice::from_ref(s)).expect("valid schedule");
        assert_eq!(&narrow[0], fps, "{s:?}");
    }
}
