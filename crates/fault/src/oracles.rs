//! Oracle stacks and execution paths for the protocol variants the
//! explorer hunts beyond the base [`tt_core::DiagJob`]: the Sec. 7
//! membership protocol and the Sec. 10 low-latency variant.
//!
//! The properties come from the paper's Theorem 2 and the group-membership
//! literature it builds on ("Parametric Verification of a Group Membership
//! Algorithm" supplies the formulations):
//!
//! * **view synchrony** — all obedient surviving members install identical
//!   view sequences, and no view excludes an obedient node absent a
//!   qualifying fault;
//! * **membership / clique liveness** — a locally detectable (benign)
//!   faulty message yields a new view excluding its sender within two
//!   executions, and a minority clique partitioned by asymmetric faults is
//!   consistently accused and excluded by the majority;
//! * **latency** (Sec. 10) — every slot verdict lands exactly one TDMA
//!   round after its slot, and the membership composition reacts within
//!   two rounds.
//!
//! Like the Theorem 1 oracles in [`mod@crate::explore`], every check is gated
//! on the fault hypothesis it is owed under — the explorer throws
//! out-of-hypothesis schedules at these paths constantly, and a sound
//! oracle must stay vacuous there rather than report phantom violations.
//! The one deliberate exception is the *clique* mode: a schedule whose
//! faults are all asymmetric with one common detector set `D` leaves the
//! per-round hypothesis (up to `N - |D|` simultaneous asymmetric faults),
//! but the majority's syndromes still dominate every vote whenever
//! `2·|D| < N - 1`, so Sec. 7's clique exclusion is checkable — and worth
//! checking, because it is exactly the scenario the membership variant
//! exists for.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hasher;

use tt_core::lowlat::LowLatCluster;
use tt_core::properties::{check_properties, checkable_rounds, Violation};
use tt_core::{MembershipJob, ProtocolConfig};
use tt_sim::{Cluster, ClusterBuilder, Fnv1a64, NodeId, RoundIndex, SlotFaultClass};

use crate::explore::{
    hypothesis_prefix, round_for, schedule_pipeline, ExtraOracle, FaultSchedule, ScheduleExec,
    ScheduleVerdict, ScheduledClass, LAG,
};

/// Executes a [`FaultSchedule`] against a cluster of
/// [`MembershipJob`]s and checks the membership oracle stack: the Theorem 1
/// properties (with accusation-conviction exemptions), cross-node counter
/// agreement, Theorem 2 view synchrony, wrongful exclusion, membership
/// liveness, and — for clique-partition schedules — minority-clique
/// accusation and exclusion.
///
/// The extra oracle runs against the final cluster state, exactly as in
/// the diag path (the planted-bug self-tests rely on it).
pub fn execute_membership_schedule(
    schedule: &FaultSchedule,
    extra: ExtraOracle<'_>,
) -> ScheduleExec {
    let n = schedule.n;
    let cfg = ProtocolConfig::builder(n)
        .penalty_threshold(schedule.penalty_threshold)
        .reward_threshold(schedule.reward_threshold)
        .build()
        .expect("schedule carries a valid protocol config");
    let mut cluster = ClusterBuilder::new(n)
        .round_length(round_for(n))
        .build_with_jobs(
            move |id| Box::new(MembershipJob::new(id, cfg.clone())),
            schedule_pipeline(schedule),
        );
    cluster.run_rounds(schedule.rounds);
    let all: Vec<NodeId> = NodeId::all(n).collect();
    let job = |id: NodeId| -> &MembershipJob {
        cluster.job_as(id).expect("every node runs a MembershipJob")
    };

    // Hypothesis prefix, with every isolated node counted as a standing
    // benign faulty sender (same accounting as the diag path; membership
    // runs the identical p/r layer).
    let mut iso: BTreeMap<usize, u64> = BTreeMap::new();
    let mut isolated_from: HashMap<NodeId, RoundIndex> = HashMap::new();
    // Earliest minority accusation per accused node, across all accusers.
    let mut accused_from: HashMap<NodeId, RoundIndex> = HashMap::new();
    for &id in &all {
        let j = job(id);
        for ev in j.isolations() {
            let e = iso.entry(ev.node.index()).or_insert(u64::MAX);
            *e = (*e).min(ev.decided_at.as_u64());
            isolated_from
                .entry(ev.node)
                .and_modify(|d| *d = (*d).min(ev.decided_at))
                .or_insert(ev.decided_at);
        }
        for &(k, accused) in j.accusations() {
            accused_from
                .entry(accused)
                .and_modify(|d| *d = (*d).min(k))
                .or_insert(k);
        }
    }
    let checked = hypothesis_prefix(&cluster, n, schedule.rounds, &iso);
    let all_within = checked.len() == checkable_rounds(schedule.rounds, LAG).count();
    let horizon = checked.last().copied();

    // Theorem 1 via the generic checker over the membership health logs.
    let getter = |node: NodeId, r: RoundIndex| -> Option<Vec<bool>> {
        let j: &MembershipJob = cluster.job_as(node).ok()?;
        j.health_for(r).map(|h| h.health.clone())
    };
    let mut report = check_properties(
        cluster.trace(),
        n,
        LAG,
        &all,
        checked.iter().copied(),
        &getter,
    );
    // Two correctness exemptions, both intended protocol behavior:
    // * isolated senders are ignored by design (as in the diag path);
    // * a minority accusation folds "accused is faulty" into the accusers'
    //   outgoing syndromes (Sec. 7), so a correct-but-accused node can be
    //   convicted by the resulting vote from the accusation's decision
    //   round on. Whether the accusation itself was *legitimate* is what
    //   the wrongful-exclusion check below decides.
    report.violations.retain(|v| match v {
        Violation::Correctness {
            diagnosed, sender, ..
        } => {
            let pre_isolation = isolated_from
                .get(sender)
                .is_none_or(|from| diagnosed < from);
            let pre_accusation = accused_from
                .get(sender)
                .is_none_or(|from| diagnosed.as_u64() + LAG < from.as_u64());
            pre_isolation && pre_accusation
        }
        _ => true,
    });
    let theorem1: Vec<String> = report.violations.iter().map(|v| format!("{v:?}")).collect();

    // Cross-node p/r agreement, gated exactly like the diag path.
    let counter_divergence = if all_within {
        let snapshot = |id: NodeId| {
            let j = job(id);
            let per_node: Vec<(u64, u64, bool)> = NodeId::all(n)
                .map(|x| (j.penalty(x), j.reward(x), j.is_active(x)))
                .collect();
            (per_node, j.isolations().to_vec())
        };
        let mut divergent = Vec::new();
        for pair in all.windows(2) {
            if snapshot(pair[0]) != snapshot(pair[1]) {
                divergent.push(format!(
                    "counters diverge between {} and {}",
                    pair[0], pair[1]
                ));
            }
        }
        divergent
    } else {
        Vec::new()
    };

    let mut view_synchrony = Vec::new();
    let mut liveness = Vec::new();

    // Theorem 2 view synchrony, owed on the hypothesis prefix: all
    // obedient surviving members (every fault here is bus-level, so
    // "surviving" = still in everyone's current view) installed identical
    // view sequences.
    if let Some(h) = horizon {
        let survivors: Vec<NodeId> = all
            .iter()
            .copied()
            .filter(|&m| all.iter().all(|&o| job(o).current_view().contains(m)))
            .collect();
        let seq = |id: NodeId| -> Vec<(u64, Vec<NodeId>)> {
            job(id)
                .views()
                .iter()
                .filter(|v| v.diagnosed <= h)
                .map(|v| (v.view_id, v.members.clone()))
                .collect()
        };
        for pair in survivors.windows(2) {
            if seq(pair[0]) != seq(pair[1]) {
                view_synchrony.push(format!(
                    "surviving members {} and {} installed different view sequences",
                    pair[0], pair[1]
                ));
            }
        }
        // Wrongful exclusion: a view decided in-hypothesis may only drop a
        // node if a fault could implicate it — a fault on its own slot, or
        // any asymmetric fault (whose *detectors* are the ones a clique
        // vote can turn on). A fault at round r distorts the dissemination
        // frame of round r, which carries opinions about rounds back to
        // r - LAG, so the earliest view it can legitimately produce is
        // diagnosed r - LAG (observed: a malicious frame at r triggers
        // accusation folding that convicts its sender at diagnosed r - 1).
        for &id in &all {
            for v in job(id).views().iter().filter(|v| v.diagnosed <= h) {
                for &m in &all {
                    if v.members.contains(&m) {
                        continue;
                    }
                    let qualifying = schedule.faults.iter().any(|f| {
                        f.round <= v.diagnosed.as_u64() + LAG
                            && (NodeId::new(f.node) == m
                                || matches!(f.class, ScheduledClass::Asymmetric { .. }))
                    });
                    if !qualifying {
                        view_synchrony.push(format!(
                            "{id}: view {} excludes obedient {m} with no qualifying fault",
                            v.view_id
                        ));
                    }
                }
            }
        }
        // Membership liveness: a benign (locally detectable) slot in the
        // prefix yields a view excluding its sender no later than the view
        // diagnosing that round.
        let trace = cluster.trace();
        for &r in &checked {
            for sender in NodeId::all(n) {
                if !matches!(trace.class_of(r, sender), SlotFaultClass::Benign) {
                    continue;
                }
                for &id in &all {
                    let excluded = job(id)
                        .views()
                        .iter()
                        .any(|v| v.diagnosed <= r && !v.members.contains(&sender));
                    if !excluded {
                        liveness.push(format!(
                            "{id} has no view excluding {sender} after its benign round {r}"
                        ));
                    }
                }
            }
        }
    }

    // Clique mode: all faults asymmetric with one common detector set D,
    // and the clique a sub-majority (2·|D| < N - 1, so the clique's rows
    // can never win or tie a vote). The majority must agree on the full
    // view sequence, accuse every clique member, and — once the run is
    // long enough for the two-execution bound to land — exclude exactly
    // the clique.
    if let Some(clique) = clique_detector_set(schedule) {
        if 2 * clique.len() < n - 1 {
            let observers: Vec<NodeId> = all
                .iter()
                .copied()
                .filter(|id| !clique.contains(&id.index()))
                .collect();
            for pair in observers.windows(2) {
                if job(pair[0]).views() != job(pair[1]).views() {
                    view_synchrony.push(format!(
                        "clique observers {} and {} installed different view sequences",
                        pair[0], pair[1]
                    ));
                }
            }
            let first = schedule
                .faults
                .iter()
                .map(|f| f.round)
                .min()
                .expect("clique mode implies faults");
            for &obs in &observers {
                for &c in &clique {
                    let member = NodeId::from_slot(c);
                    if !job(obs).accusations().iter().any(|&(_, a)| a == member) {
                        liveness.push(format!("clique member {member} was never accused by {obs}"));
                    }
                }
            }
            // The exclusion lands within two executions of the first
            // clique round: by diagnosed round `first + 2·LAG`, decided at
            // `first + 3·LAG` — only checkable if the run reaches it.
            if first + 3 * LAG < schedule.rounds {
                for &obs in &observers {
                    for &c in &clique {
                        let member = NodeId::from_slot(c);
                        let excluded = job(obs).views().iter().any(|v| {
                            v.diagnosed.as_u64() <= first + 2 * LAG && !v.members.contains(&member)
                        });
                        if !excluded {
                            liveness.push(format!(
                                "{obs} did not exclude clique member {member} within \
                                 two executions of round {first}"
                            ));
                        }
                    }
                }
                for &obs in &observers {
                    let members = &job(obs).current_view().members;
                    if members != &observers {
                        view_synchrony.push(format!(
                            "{obs}: final view {members:?} is not the majority {observers:?}"
                        ));
                    }
                }
            }
        }
    }

    let verdict = ScheduleVerdict {
        theorem1,
        counter_divergence,
        alg2: Vec::new(),
        view_synchrony,
        liveness,
        latency: Vec::new(),
        extra: extra(&cluster),
    };
    ScheduleExec {
        fingerprints: membership_fingerprints(&cluster, n),
        verdict,
    }
}

/// The common detector set if every fault in `schedule` is asymmetric with
/// the identical `detected_by` — the clique-partition shape — else `None`.
fn clique_detector_set(schedule: &FaultSchedule) -> Option<Vec<usize>> {
    let mut detectors: Option<Vec<usize>> = None;
    if schedule.faults.is_empty() {
        return None;
    }
    for f in &schedule.faults {
        let ScheduledClass::Asymmetric { detected_by } = &f.class else {
            return None;
        };
        match &detectors {
            Some(d) if d != detected_by => return None,
            Some(_) => {}
            None => detectors = Some(detected_by.clone()),
        }
    }
    detectors
}

/// Hashes the cluster-wide membership state at each decision step: every
/// node's consistent health vector, its installed view (id + member set)
/// as of that decision round, and the accusations it issued in that round
/// — so view churn and accusation traffic count as coverage novelty.
fn membership_fingerprints(cluster: &Cluster, n: usize) -> Vec<u64> {
    let jobs: Vec<&MembershipJob> = NodeId::all(n)
        .map(|id| cluster.job_as(id).expect("every node runs a MembershipJob"))
        .collect();
    let steps = jobs.iter().map(|j| j.health_log().len()).max().unwrap_or(0);
    let mut out = Vec::with_capacity(steps);
    for i in 0..steps {
        let mut h = Fnv1a64::new();
        for job in &jobs {
            match job.health_log().get(i) {
                Some(rec) => {
                    h.write(&[1]);
                    for &b in &rec.health {
                        h.write(&[u8::from(b)]);
                    }
                    let k = rec.decided_at;
                    let view = job
                        .views()
                        .iter()
                        .rfind(|v| v.installed_at <= k)
                        .unwrap_or(&job.views()[0]);
                    h.write(&view.view_id.to_le_bytes());
                    let mut members = 0u64;
                    for m in &view.members {
                        members |= 1 << m.index();
                    }
                    h.write(&members.to_le_bytes());
                    let mut accused = 0u64;
                    for &(ka, a) in job.accusations() {
                        if ka == k {
                            accused |= 1 << a.index();
                        }
                    }
                    h.write(&accused.to_le_bytes());
                }
                None => h.write(&[0]),
            }
        }
        out.push(h.finish());
    }
    out
}

/// Executes a [`FaultSchedule`] against the Sec. 10 low-latency variant
/// (with the 2-round membership composition active) and checks the
/// per-slot Theorem 1 analogue, the 1-round latency bound, view synchrony
/// and membership liveness.
///
/// The extra oracle does not apply here: the lowlat cluster is
/// slot-granular ([`LowLatCluster`]), not a [`Cluster`] of round jobs.
pub fn execute_lowlat_schedule(schedule: &FaultSchedule) -> ScheduleExec {
    let mut cluster = LowLatCluster::new(schedule.n, true, schedule_pipeline(schedule));
    cluster.run_rounds(schedule.rounds);
    let verdict = ScheduleVerdict {
        theorem1: lowlat_slot_properties(&cluster, schedule.n),
        counter_divergence: Vec::new(),
        alg2: Vec::new(),
        view_synchrony: cluster.check_view_synchrony(),
        liveness: cluster.check_membership_liveness(),
        latency: cluster.check_latency(),
        extra: Vec::new(),
    };
    ScheduleExec {
        fingerprints: lowlat_fingerprints(&cluster, schedule.n),
        verdict,
    }
}

/// The per-slot Theorem 1 analogue, gated for adversarial schedules:
///
/// * every node decides every past slot (structural, ungated);
/// * verdicts agree across nodes as long as no malicious or asymmetric
///   frame has occurred anywhere up to the collection window — those split
///   the vote tables (a corrupted dissemination frame makes the sender's
///   own authoritative opinion diverge from what everyone else decoded),
///   and with the membership composition active the split is *sticky*:
///   the detecting side excludes the sender from its view while the
///   oblivious side keeps it, so verdicts may diverge in later windows
///   that are locally clean (the explorer shrinks exactly such 2-fault
///   schedules — one divergence seed, one later probe);
/// * correct slots are acquitted and benign slots convicted whenever the
///   whole collection window stays benign/correct — the per-slot Lemma 2/3
///   hypothesis, as in [`LowLatCluster::check_properties`].
fn lowlat_slot_properties(cluster: &LowLatCluster, n: usize) -> Vec<String> {
    let mut violations = Vec::new();
    let nn = n as u64;
    let slots = cluster.slots();
    let healthy_at = |id: NodeId, abs: u64| cluster.verdict_at(id, abs).map(|v| v.healthy);
    let first_divergent = (0..slots)
        .find(|&s| {
            matches!(
                cluster.ground_truth(s),
                Some(SlotFaultClass::SymmetricMalicious) | Some(SlotFaultClass::Asymmetric)
            )
        })
        .unwrap_or(u64::MAX);
    for a in 0..slots.saturating_sub(nn) {
        let sender = NodeId::from_slot((a % nn) as usize);
        for id in NodeId::all(n) {
            if healthy_at(id, a).is_none() {
                violations.push(format!("slot {a}: {id} has no verdict"));
            }
        }
        if a + nn < first_divergent {
            if let Some(reference) = healthy_at(NodeId::new(1), a) {
                for id in NodeId::all(n).skip(1) {
                    if healthy_at(id, a).is_some_and(|v| v != reference) {
                        violations.push(format!("slot {a}: {id} disagrees"));
                    }
                }
            }
        }
        let in_hypothesis = (a..=a + nn).all(|s| {
            matches!(
                cluster.ground_truth(s),
                Some(SlotFaultClass::Correct) | Some(SlotFaultClass::Benign) | None
            )
        });
        if !in_hypothesis {
            continue;
        }
        for id in NodeId::all(n) {
            match (cluster.ground_truth(a), healthy_at(id, a)) {
                (Some(SlotFaultClass::Correct), Some(false)) => {
                    violations.push(format!("slot {a}: correct {sender} convicted by {id}"));
                }
                (Some(SlotFaultClass::Benign), Some(true)) => {
                    violations.push(format!("slot {a}: benign {sender} acquitted by {id}"));
                }
                _ => {}
            }
        }
    }
    violations
}

/// Hashes the per-slot protocol state at each decision step: every node's
/// verdict (slot-in-round, health bit) plus its membership view as of the
/// deciding slot — view churn in the 2-round composition is coverage.
fn lowlat_fingerprints(cluster: &LowLatCluster, n: usize) -> Vec<u64> {
    let steps = NodeId::all(n)
        .map(|id| cluster.verdicts(id).len())
        .max()
        .unwrap_or(0);
    let full = u64::MAX >> (64 - n);
    let mut out = Vec::with_capacity(steps);
    for i in 0..steps {
        let mut h = Fnv1a64::new();
        for id in NodeId::all(n) {
            match cluster.verdicts(id).get(i) {
                Some(v) => {
                    h.write(&[1, (v.abs_slot % n as u64) as u8, u8::from(v.healthy)]);
                    let members = cluster
                        .view_log(id)
                        .iter()
                        .rev()
                        .find(|(s, _)| *s <= v.decided_at_slot)
                        .map(|(_, m)| m.iter().fold(0u64, |acc, x| acc | 1 << x.index()))
                        .unwrap_or(full);
                    h.write(&members.to_le_bytes());
                }
                None => h.write(&[0]),
            }
        }
        out.push(h.finish());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{
        clique_partition_faults, execute_schedule, ProtocolUnderTest, ScheduledFault,
    };

    fn base(protocol: ProtocolUnderTest) -> FaultSchedule {
        FaultSchedule {
            n: 4,
            rounds: 24,
            penalty_threshold: 3,
            reward_threshold: 2,
            faults: Vec::new(),
            protocol,
        }
    }

    #[test]
    fn membership_benign_fault_passes_and_reaches_new_views() {
        let mut s = base(ProtocolUnderTest::Membership);
        s.faults.push(ScheduledFault {
            node: 2,
            round: 6,
            hits: 1,
            stride: 1,
            class: ScheduledClass::Benign,
        });
        let exec = execute_schedule(&s);
        assert!(exec.verdict.ok(), "{:?}", exec.verdict.all());
        // The view change shows up as coverage: the fingerprints differ
        // from the fault-free run's.
        let clean = execute_schedule(&base(ProtocolUnderTest::Membership));
        assert_ne!(exec.fingerprints, clean.fingerprints);
    }

    #[test]
    fn membership_clique_partition_passes_the_real_oracles() {
        let mut s = base(ProtocolUnderTest::Membership);
        s.faults = clique_partition_faults(4, &[0], 6, 1);
        let exec = execute_schedule(&s);
        assert!(exec.verdict.ok(), "{:?}", exec.verdict.all());
    }

    #[test]
    fn membership_single_asymmetric_excludes_the_minority_cleanly() {
        let mut s = base(ProtocolUnderTest::Membership);
        s.faults.push(ScheduledFault {
            node: 2,
            round: 6,
            hits: 1,
            stride: 1,
            class: ScheduledClass::Asymmetric {
                detected_by: vec![0],
            },
        });
        let exec = execute_schedule(&s);
        assert!(exec.verdict.ok(), "{:?}", exec.verdict.all());
    }

    #[test]
    fn lowlat_benign_fault_passes_and_reaches_new_views() {
        let mut s = base(ProtocolUnderTest::Lowlat);
        s.faults.push(ScheduledFault {
            node: 3,
            round: 6,
            hits: 1,
            stride: 1,
            class: ScheduledClass::Benign,
        });
        let exec = execute_schedule(&s);
        assert!(exec.verdict.ok(), "{:?}", exec.verdict.all());
        let clean = execute_schedule(&base(ProtocolUnderTest::Lowlat));
        assert_ne!(exec.fingerprints, clean.fingerprints);
    }

    #[test]
    fn lowlat_latency_oracle_sees_every_chain() {
        let s = base(ProtocolUnderTest::Lowlat);
        let exec = execute_schedule(&s);
        assert!(
            exec.verdict.latency.is_empty(),
            "{:?}",
            exec.verdict.latency
        );
        // 24 rounds × 4 slots, minus the one undecidable trailing round.
        assert_eq!(exec.fingerprints.len(), 24 * 4 - 4);
    }

    #[test]
    fn lowlat_runs_at_the_full_mask_width() {
        // N = 64 fills every node mask: a benign fault still passes every
        // oracle, and a view that never changed hashes all 64 members.
        let mut s = base(ProtocolUnderTest::Lowlat);
        s.n = 64;
        s.rounds = 4;
        s.faults.push(ScheduledFault {
            node: 3,
            round: 1,
            hits: 1,
            stride: 1,
            class: ScheduledClass::Benign,
        });
        let exec = execute_schedule(&s);
        assert!(exec.verdict.ok(), "{:?}", exec.verdict.all());
        assert_eq!(exec.fingerprints.len(), 3 * 64);
        let mut first = Fnv1a64::new();
        for _ in 0..64 {
            first.write(&[1, 0, 1]);
            first.write(&u64::MAX.to_le_bytes());
        }
        assert_eq!(exec.fingerprints[0], first.finish());
    }

    #[test]
    fn clique_detector_set_requires_a_uniform_clique() {
        let mut s = base(ProtocolUnderTest::Membership);
        s.faults = clique_partition_faults(4, &[0], 6, 1);
        assert_eq!(clique_detector_set(&s), Some(vec![0]));
        s.faults[0].class = ScheduledClass::Benign;
        assert_eq!(clique_detector_set(&s), None);
    }
}
