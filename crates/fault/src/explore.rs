//! Coverage-guided exploration of bounded fault schedules.
//!
//! Random sampling (`tests/property_based.rs`) and brute-force enumeration
//! of a tiny window (`tests/exhaustive_small_worlds.rs`) bracket the
//! scenario space from both ends; everything between them — longer windows,
//! intermittent faults interacting with the Alg. 2 penalty/reward
//! thresholds, isolation and its aftermath — is where the subtle
//! diagnosis/membership bugs hide. This module searches that middle ground
//! the way a coverage-guided fuzzer searches program paths:
//!
//! 1. a **schedule generator** draws bounded [`FaultSchedule`]s and mutates
//!    promising ones (add/remove/widen a fault, flip its class among
//!    benign/symmetric-malicious/asymmetric, shift its round/slot, convert
//!    it to an intermittent fault à la [`crate::burst::IntermittentFault`]);
//! 2. a **state fingerprint** hashes the protocol state at every round end
//!    (consistent health vectors plus penalty/reward counters of every
//!    node) with the stable [`Fnv1a64`] hash, deduping schedules that only
//!    reach already-seen states and keeping the ones that discover new
//!    states on the mutation frontier;
//! 3. every executed schedule is checked against the full **oracle stack**:
//!    Theorem 1 ([`check_diag_cluster`]), cross-node counter agreement
//!    ([`check_counter_consistency`]) and the Alg. 2 invariants
//!    ([`check_alg2_cluster`]);
//! 4. on a violation, a **delta-debugging shrinker** minimizes the schedule
//!    (drop faults, narrow bursts, collapse strides, simplify classes to
//!    benign) while it still fails, yielding the smallest reproducer;
//! 5. coverage-discovering schedules and shrunk counterexamples serialize
//!    (serde) into a **replayable corpus** re-executed by
//!    `tests/corpus_replay.rs` on every run.
//!
//! Everything is deterministic under a fixed seed: the generator draws from
//! the vendored `StdRng`, schedule execution itself is RNG-free, and the
//! fingerprints are platform-stable.
//!
//! The search is **protocol-generic**: a [`ProtocolUnderTest`] selector on
//! every schedule picks the base diagnosis ([`DiagJob`]), the Sec. 7
//! membership variant or the Sec. 10 low-latency variant; the membership
//! and low-latency execution paths and their oracle stacks (view
//! synchrony, clique liveness, latency bounds) live in [`crate::oracles`].
//! Generation, mutation, shrinking and the corpus format are shared by all
//! three variants.

use std::collections::HashSet;
use std::hash::Hasher;
use std::path::{Path, PathBuf};

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use tt_core::properties::{
    check_alg2_cluster, check_counter_consistency, check_diag_cluster, checkable_rounds,
    FaultCounts,
};
use tt_core::{DiagJob, ProtocolConfig};
use tt_sim::{
    Cluster, ClusterBuilder, FaultPipeline, Fnv1a64, NodeId, RoundIndex, SlotEffect, TxCtx,
};

/// The diagnosis lag of the conservative send alignment used throughout
/// the campaign configs (and by this explorer).
pub const LAG: u64 = 3;

/// The first round in which a scheduled fault may fire (earlier rounds are
/// still filling the diagnosis pipeline).
pub const MIN_FAULT_ROUND: u64 = 4;

/// Which protocol variant a schedule executes against.
///
/// The selector travels *on the schedule* (not just the session config) so
/// a corpus can mix variants and every file replays against the oracles
/// that produced it. `Diag` schedules serialize without the selector,
/// keeping the ids (and corpus file names) of every pre-variant schedule
/// unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtocolUnderTest {
    /// The base diagnosis protocol ([`DiagJob`]): Theorem 1, cross-node
    /// counter agreement and the Alg. 2 invariants.
    Diag,
    /// The Sec. 7 membership variant ([`tt_core::MembershipJob`]):
    /// Theorem 2 view synchrony, wrongful-exclusion, membership liveness
    /// and clique exclusion (see [`crate::oracles`]).
    Membership,
    /// The Sec. 10 low-latency variant ([`tt_core::lowlat::LowLatCluster`]):
    /// 1-round diagnostic / 2-round membership latency bounds plus the
    /// per-slot Theorem 1 analogue.
    Lowlat,
}

impl ProtocolUnderTest {
    /// The CLI spelling (`--protocol diag|membership|lowlat`).
    pub fn as_str(self) -> &'static str {
        match self {
            ProtocolUnderTest::Diag => "diag",
            ProtocolUnderTest::Membership => "membership",
            ProtocolUnderTest::Lowlat => "lowlat",
        }
    }

    /// Parses the CLI spelling; `None` for anything else.
    pub fn parse_cli(s: &str) -> Option<Self> {
        match s {
            "diag" => Some(ProtocolUnderTest::Diag),
            "membership" => Some(ProtocolUnderTest::Membership),
            "lowlat" => Some(ProtocolUnderTest::Lowlat),
            _ => None,
        }
    }
}

/// The class of one scheduled fault, mirroring the paper's fault taxonomy
/// (benign / symmetric malicious / asymmetric).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScheduledClass {
    /// Every receiver locally detects the slot as invalid.
    Benign,
    /// Every receiver accepts the same wrong payload.
    Malicious {
        /// The byte delivered instead of the true syndrome frame.
        payload: u8,
    },
    /// Only the listed receivers detect the fault (SOS-like).
    Asymmetric {
        /// 0-based indices of the detecting receivers: a nonempty strict
        /// subset of the `n - 1` receivers.
        detected_by: Vec<usize>,
    },
}

/// One fault in a schedule: `hits` occurrences in the sending slot of
/// `node`, starting at `round`, spaced `stride` rounds apart.
///
/// `stride == 1` is a contiguous burst; `stride > 1` models an
/// intermittent fault (cf. [`crate::burst::IntermittentFault`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledFault {
    /// The afflicted sender (1-based node id).
    pub node: u32,
    /// The first affected round.
    pub round: u64,
    /// Number of occurrences (≥ 1).
    pub hits: u64,
    /// Rounds between consecutive occurrences (≥ 1).
    pub stride: u64,
    /// What happens to the slot.
    pub class: ScheduledClass,
}

impl ScheduledFault {
    /// The last round this fault fires in.
    pub fn last_round(&self) -> u64 {
        self.round + (self.hits - 1) * self.stride
    }

    /// Whether this fault fires in `round` on `sender`'s slot.
    pub fn covers(&self, round: u64, sender: NodeId) -> bool {
        if sender.index() != (self.node - 1) as usize || round < self.round {
            return false;
        }
        let d = round - self.round;
        d.is_multiple_of(self.stride) && d / self.stride < self.hits
    }

    /// The bus effect this fault injects.
    pub fn effect(&self) -> SlotEffect {
        match &self.class {
            ScheduledClass::Benign => SlotEffect::Benign,
            ScheduledClass::Malicious { payload } => SlotEffect::SymmetricMalicious {
                payload: Bytes::from(vec![*payload]),
            },
            ScheduledClass::Asymmetric { detected_by } => SlotEffect::Asymmetric {
                detected_by: detected_by.clone(),
                collision_ok: true,
            },
        }
    }
}

/// A bounded, fully deterministic fault scenario: the protocol parameters
/// it runs under plus the faults injected on the bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Cluster size.
    pub n: usize,
    /// Rounds to simulate.
    pub rounds: u64,
    /// Alg. 2 penalty threshold `P`.
    pub penalty_threshold: u64,
    /// Alg. 2 reward threshold `R`.
    pub reward_threshold: u64,
    /// The injected faults (first matching fault wins per slot).
    pub faults: Vec<ScheduledFault>,
    /// The protocol variant this schedule executes against.
    pub protocol: ProtocolUnderTest,
}

impl FaultSchedule {
    /// A stable 64-bit identity for corpus file names, derived from the
    /// serialized form.
    pub fn id(&self) -> u64 {
        let json = serde_json::to_string(self).expect("schedule serializes");
        Fnv1a64::hash_bytes(json.as_bytes())
    }
}

// Hand-written (de)serialization: `Diag` schedules omit the `protocol`
// field entirely so their serialized form — and therefore [`FaultSchedule::
// id`] and every committed corpus file name — is byte-identical to the
// pre-variant format, and pre-variant JSON deserializes as `Diag`.
impl Serialize for FaultSchedule {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        let mut fields = vec![
            ("n".to_string(), self.n.to_value()),
            ("rounds".to_string(), self.rounds.to_value()),
            (
                "penalty_threshold".to_string(),
                self.penalty_threshold.to_value(),
            ),
            (
                "reward_threshold".to_string(),
                self.reward_threshold.to_value(),
            ),
            ("faults".to_string(), self.faults.to_value()),
        ];
        if self.protocol != ProtocolUnderTest::Diag {
            fields.push(("protocol".to_string(), self.protocol.to_value()));
        }
        Value::Map(fields)
    }
}

impl Deserialize for FaultSchedule {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        use serde::{DeError, Value};
        let map = v
            .as_map()
            .ok_or_else(|| DeError::custom("FaultSchedule: expected map"))?;
        let field = |key: &str| {
            Value::get_field(map, key)
                .ok_or_else(|| DeError::custom(format!("FaultSchedule: missing field `{key}`")))
        };
        let protocol = match Value::get_field(map, "protocol") {
            Some(p) => Deserialize::from_value(p)?,
            None => ProtocolUnderTest::Diag,
        };
        Ok(FaultSchedule {
            n: Deserialize::from_value(field("n")?)?,
            rounds: Deserialize::from_value(field("rounds")?)?,
            penalty_threshold: Deserialize::from_value(field("penalty_threshold")?)?,
            reward_threshold: Deserialize::from_value(field("reward_threshold")?)?,
            faults: Deserialize::from_value(field("faults")?)?,
            protocol,
        })
    }
}

/// Executes a [`FaultSchedule`] verbatim on the bus. First matching fault
/// wins; execution uses no randomness at all.
struct SchedulePipeline {
    faults: Vec<ScheduledFault>,
}

impl FaultPipeline for SchedulePipeline {
    fn effect(&mut self, ctx: &TxCtx) -> SlotEffect {
        for f in &self.faults {
            if f.covers(ctx.round.as_u64(), ctx.sender) {
                return f.effect();
            }
        }
        SlotEffect::Correct
    }
}

/// The verdict of the full oracle stack on one executed schedule. Each
/// field names the oracle that produced it, so a counterexample's
/// violation strings say exactly which oracle fired.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleVerdict {
    /// Theorem 1 violations ([`check_diag_cluster`] or its membership /
    /// per-slot analogues), formatted.
    pub theorem1: Vec<String>,
    /// Cross-node counter divergences ([`check_counter_consistency`]).
    pub counter_divergence: Vec<String>,
    /// Alg. 2 invariant violations ([`check_alg2_cluster`]), formatted.
    pub alg2: Vec<String>,
    /// Theorem 2 view-synchrony violations (identical view sequences, no
    /// wrongful exclusion, clique agreement) — membership and lowlat runs.
    pub view_synchrony: Vec<String>,
    /// Membership- / clique-liveness violations (detectable fault ⇒ new
    /// view within two executions; minority clique accused and excluded).
    pub liveness: Vec<String>,
    /// Sec. 10 latency-bound violations (1-round diagnostic, per chain).
    pub latency: Vec<String>,
    /// Violations reported by a caller-provided extra oracle.
    pub extra: Vec<String>,
}

impl ScheduleVerdict {
    /// Whether every oracle held.
    pub fn ok(&self) -> bool {
        self.theorem1.is_empty()
            && self.counter_divergence.is_empty()
            && self.alg2.is_empty()
            && self.view_synchrony.is_empty()
            && self.liveness.is_empty()
            && self.latency.is_empty()
            && self.extra.is_empty()
    }

    /// All violations, each prefixed with its oracle's name.
    pub fn all(&self) -> Vec<String> {
        let tag = |p: &str, v: &[String]| -> Vec<String> {
            v.iter().map(|s| format!("{p}: {s}")).collect()
        };
        let mut out = tag("theorem1", &self.theorem1);
        out.extend(tag("counter-divergence", &self.counter_divergence));
        out.extend(tag("alg2", &self.alg2));
        out.extend(tag("view-synchrony", &self.view_synchrony));
        out.extend(tag("liveness", &self.liveness));
        out.extend(tag("latency", &self.latency));
        out.extend(tag("extra", &self.extra));
        out
    }
}

/// The observable result of executing one schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleExec {
    /// One protocol-state fingerprint per diagnosed round (round index
    /// excluded, so revisiting a state in a later round dedupes).
    pub fingerprints: Vec<u64>,
    /// The oracle verdict.
    pub verdict: ScheduleVerdict,
}

/// An extra, caller-provided oracle run against the final cluster state
/// (used by the harness self-test to plant a deliberately weak oracle).
pub type ExtraOracle<'a> = &'a dyn Fn(&Cluster) -> Vec<String>;

/// The no-op extra oracle.
pub fn no_extra_oracle(_: &Cluster) -> Vec<String> {
    Vec::new()
}

/// A bus pipeline injecting `schedule`'s fault list verbatim (first
/// matching fault wins per slot), for callers building their own clusters
/// around a schedule — e.g. the sampled-workload observers.
pub fn schedule_pipeline(schedule: &FaultSchedule) -> Box<dyn FaultPipeline> {
    Box::new(SchedulePipeline {
        faults: schedule.faults.clone(),
    })
}

/// Executes `schedule` and checks it against the built-in oracle stack.
pub fn execute_schedule(schedule: &FaultSchedule) -> ScheduleExec {
    execute_schedule_with_oracle(schedule, &no_extra_oracle)
}

/// Like [`execute_schedule`], with an additional caller-provided oracle.
///
/// Dispatches on the schedule's [`ProtocolUnderTest`]. The extra oracle
/// receives the round-granular [`Cluster`] for the diag and membership
/// variants; the slot-granular lowlat variant runs no extra oracle (its
/// cluster is a different type).
pub fn execute_schedule_with_oracle(
    schedule: &FaultSchedule,
    extra: ExtraOracle<'_>,
) -> ScheduleExec {
    match schedule.protocol {
        ProtocolUnderTest::Diag => execute_diag_schedule(schedule, extra),
        ProtocolUnderTest::Membership => {
            crate::oracles::execute_membership_schedule(schedule, extra)
        }
        ProtocolUnderTest::Lowlat => crate::oracles::execute_lowlat_schedule(schedule),
    }
}

/// The base-protocol execution path: a cluster of [`DiagJob`]s checked by
/// the Theorem 1 / counter-agreement / Alg. 2 stack.
fn execute_diag_schedule(schedule: &FaultSchedule, extra: ExtraOracle<'_>) -> ScheduleExec {
    let cfg = ProtocolConfig::builder(schedule.n)
        .penalty_threshold(schedule.penalty_threshold)
        .reward_threshold(schedule.reward_threshold)
        .build()
        .expect("schedule carries a valid protocol config");
    let pipeline = SchedulePipeline {
        faults: schedule.faults.clone(),
    };
    let mut cluster = ClusterBuilder::new(schedule.n)
        .round_length(round_for(schedule.n))
        .build_with_jobs(
            move |id| Box::new(DiagJob::new(id, cfg.clone()).with_counter_trace()),
            Box::new(pipeline),
        );
    cluster.run_rounds(schedule.rounds);
    let all: Vec<NodeId> = NodeId::all(schedule.n).collect();
    let checked = effective_hypothesis_rounds(&cluster, schedule);
    let all_within = checked.len() == checkable_rounds(schedule.rounds, LAG).count();
    let report = check_diag_cluster(&cluster, &all, checked);
    // Cross-node counter agreement is a consequence of the *consistency*
    // property, which Theorem 1 only guarantees while the fault hypothesis
    // holds — and a divergence born in an out-of-hypothesis round persists
    // in the counters forever. Only apply the oracle to runs that stay
    // within the hypothesis throughout.
    let counter_divergence = if all_within {
        check_counter_consistency(&cluster, &all)
            .iter()
            .map(|(a, b)| format!("counters diverge between {a} and {b}"))
            .collect()
    } else {
        Vec::new()
    };
    let verdict = ScheduleVerdict {
        theorem1: report.violations.iter().map(|v| format!("{v:?}")).collect(),
        counter_divergence,
        alg2: check_alg2_cluster(&cluster, &all)
            .iter()
            .map(|v| format!("{v:?}"))
            .collect(),
        view_synchrony: Vec::new(),
        liveness: Vec::new(),
        latency: Vec::new(),
        extra: extra(&cluster),
    };
    ScheduleExec {
        fingerprints: fingerprints(&cluster, schedule.n),
        verdict,
    }
}

/// A round length close to the paper's 2.5 ms that divides into `n` slots.
pub fn round_for(n: usize) -> tt_sim::Nanos {
    tt_sim::Nanos::from_nanos(2_500_000 - (2_500_000 % n as u64))
}

/// The prefix of diagnosed rounds for which Theorem 1's guarantees are
/// owed: every checkable round up to (excluding) the first one whose
/// execution window leaves the fault hypothesis, counting each *isolated*
/// node as one standing benign faulty sender from its isolation decision
/// on.
///
/// Two subtleties, both found by the explorer itself:
///
/// * The injected-fault trace alone undercounts: once a node is isolated,
///   obedient controllers ignore its (perfectly correct) traffic, so its
///   row is missing every round — exactly a benign fault the paper's `b`
///   must cover. A lone isolated node keeps Lemma 3 alive (benign-only),
///   but combined with an asymmetric or malicious fault it can push an
///   `N = 4` cluster out of Lemma 2.
/// * Checking must stop at the first out-of-hypothesis window, not merely
///   skip it: Theorem 1 assumes the execution has stayed within the
///   hypothesis since the consistent initial state. An out-of-hypothesis
///   burst can legitimately leave *divergent* isolation decisions behind
///   (one clique convicts a storm victim past `P`, the other forgives),
///   and the paper claims no self-stabilization — the divergence persists
///   after the bus is quiet again, so no later round is attributable.
fn effective_hypothesis_rounds(cluster: &Cluster, schedule: &FaultSchedule) -> Vec<RoundIndex> {
    let n = schedule.n;
    // Earliest isolation decision per subject, across all observers (they
    // can disagree once the hypothesis has been left).
    let mut iso: std::collections::BTreeMap<usize, u64> = std::collections::BTreeMap::new();
    for id in NodeId::all(n) {
        let job: &DiagJob = cluster.job_as(id).expect("every node runs a DiagJob");
        for ev in job.isolations() {
            let e = iso.entry(ev.node.index()).or_insert(u64::MAX);
            *e = (*e).min(ev.decided_at.as_u64());
        }
    }
    hypothesis_prefix(cluster, n, schedule.rounds, &iso)
}

/// The shared core of the hypothesis-prefix computation: given the
/// earliest isolation decision per subject (each isolated node counts as
/// one standing benign faulty sender from that decision on), walks the
/// checkable rounds and stops at the first whose execution window leaves
/// the fault hypothesis. Used by the diag path above and by the membership
/// oracle stack ([`crate::oracles`]), which collects the isolation map
/// from [`tt_core::MembershipJob`]s instead.
pub(crate) fn hypothesis_prefix(
    cluster: &Cluster,
    n: usize,
    rounds: u64,
    iso: &std::collections::BTreeMap<usize, u64>,
) -> Vec<RoundIndex> {
    let trace = cluster.trace();
    let mut out = Vec::new();
    for r in checkable_rounds(rounds, LAG) {
        let mut counts = FaultCounts::default();
        for d in 0..=LAG {
            counts.accumulate(FaultCounts::of_round(trace, r + d));
        }
        counts.benign += iso.values().filter(|&&d| d <= r.as_u64() + LAG).count();
        if !(counts.lemma2_holds(n) || counts.lemma3_holds()) {
            break;
        }
        out.push(r);
    }
    out
}

/// Hashes the cluster-wide protocol state at each diagnosed round: every
/// node's consistent health vector plus its penalty/reward counters. The
/// round index deliberately does not feed the hash, so a state reached
/// again later (e.g. "all healthy, all counters zero") dedupes.
fn fingerprints(cluster: &Cluster, n: usize) -> Vec<u64> {
    let jobs: Vec<&DiagJob> = NodeId::all(n)
        .map(|id| cluster.job_as(id).expect("every node runs a DiagJob"))
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
                }
                None => h.write(&[0]),
            }
            match job.counter_trace().get(i) {
                Some(s) => {
                    for &p in &s.penalties {
                        h.write(&p.to_le_bytes());
                    }
                    for &r in &s.rewards {
                        h.write(&r.to_le_bytes());
                    }
                }
                None => h.write(&[2]),
            }
        }
        out.push(h.finish());
    }
    out
}

/// How the explorer draws the next schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Mutate schedules from the coverage frontier (default).
    CoverageGuided,
    /// Draw every schedule fresh at random (the baseline the coverage
    /// assertion in `tests/explorer.rs` compares against).
    Random,
}

/// Exploration parameters. All bounds are inclusive of protocol warm-up:
/// faults fire in `[MIN_FAULT_ROUND, rounds - LAG - 2]` so every injection
/// lands in an oracle-checkable round.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ExploreConfig {
    /// Cluster size (≥ 4).
    pub n: usize,
    /// Rounds per schedule execution.
    pub rounds: u64,
    /// Alg. 2 penalty threshold `P` for explored schedules.
    pub penalty_threshold: u64,
    /// Alg. 2 reward threshold `R` for explored schedules.
    pub reward_threshold: u64,
    /// Maximum faults per schedule.
    pub max_faults: usize,
    /// Number of schedule executions (shrinking is not counted).
    pub budget: u64,
    /// Seed of all generator/mutator randomness.
    pub seed: u64,
    /// Generation strategy.
    pub strategy: Strategy,
    /// The protocol variant generated schedules execute against.
    pub protocol: ProtocolUnderTest,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            n: 4,
            rounds: 24,
            // Low thresholds on purpose: isolation and forgiveness are
            // reachable, so the counter state space is worth exploring.
            penalty_threshold: 3,
            reward_threshold: 2,
            max_faults: 6,
            budget: 150,
            seed: 0xD1A6_05E5,
            strategy: Strategy::CoverageGuided,
            protocol: ProtocolUnderTest::Diag,
        }
    }
}

// Hand-written so checkpoints written before the protocol selector existed
// (no `protocol` field) keep resuming: a missing field means `Diag`.
impl Deserialize for ExploreConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        use serde::{DeError, Value};
        let map = v
            .as_map()
            .ok_or_else(|| DeError::custom("ExploreConfig: expected map"))?;
        let field = |key: &str| {
            Value::get_field(map, key)
                .ok_or_else(|| DeError::custom(format!("ExploreConfig: missing field `{key}`")))
        };
        let protocol = match Value::get_field(map, "protocol") {
            Some(p) => Deserialize::from_value(p)?,
            None => ProtocolUnderTest::Diag,
        };
        Ok(ExploreConfig {
            n: Deserialize::from_value(field("n")?)?,
            rounds: Deserialize::from_value(field("rounds")?)?,
            penalty_threshold: Deserialize::from_value(field("penalty_threshold")?)?,
            reward_threshold: Deserialize::from_value(field("reward_threshold")?)?,
            max_faults: Deserialize::from_value(field("max_faults")?)?,
            budget: Deserialize::from_value(field("budget")?)?,
            seed: Deserialize::from_value(field("seed")?)?,
            strategy: Deserialize::from_value(field("strategy")?)?,
            protocol,
        })
    }
}

impl ExploreConfig {
    /// The last round a fault may fire in.
    fn max_fault_round(&self) -> u64 {
        max_fault_round(self.rounds)
    }
}

/// The last round a fault may fire in so that its diagnosis (and any
/// isolation decision `LAG` rounds later) still lands within a `rounds`
/// budget.
pub fn max_fault_round(rounds: u64) -> u64 {
    rounds.saturating_sub(LAG + 2).max(MIN_FAULT_ROUND)
}

/// A violation found by the explorer, with its delta-debugged reproducer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counterexample {
    /// The schedule the explorer originally tripped on.
    pub original: FaultSchedule,
    /// The minimized schedule (still failing the same oracle stack).
    pub shrunk: FaultSchedule,
    /// The violations the shrunk schedule produces.
    pub violations: Vec<String>,
    /// Schedule executions the shrinker spent on this counterexample.
    pub shrink_steps: u64,
}

/// The outcome of one exploration run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploreReport {
    /// Schedules executed (shrinking excluded).
    pub executed: u64,
    /// Distinct protocol-state fingerprints reached.
    pub unique_states: u64,
    /// Every schedule that discovered at least one new state, in discovery
    /// order — the replayable corpus.
    pub corpus: Vec<FaultSchedule>,
    /// Violations found, each minimized by the shrinker.
    pub counterexamples: Vec<Counterexample>,
    /// Total schedule executions spent shrinking.
    pub shrink_steps: u64,
}

/// Explores with the built-in oracle stack and no seed corpus.
pub fn explore(cfg: &ExploreConfig) -> ExploreReport {
    explore_with(cfg, &[], &no_extra_oracle)
}

/// Explores from an optional seed corpus with an optional extra oracle.
///
/// Seed schedules are executed first (consuming budget) so their coverage
/// primes the frontier; generation then follows `cfg.strategy`. The run is
/// a pure function of `(cfg, seeds)`.
pub fn explore_with(
    cfg: &ExploreConfig,
    seeds: &[FaultSchedule],
    extra: ExtraOracle<'_>,
) -> ExploreReport {
    let mut session = Explorer::new(cfg, seeds);
    while session.step(extra) {}
    session.into_report()
}

/// A resumable exploration session: the explicit loop state behind
/// [`explore_with`], one schedule execution per [`Explorer::step`].
///
/// The session can be snapshotted between steps with
/// [`Explorer::checkpoint`] and rebuilt with [`Explorer::from_checkpoint`];
/// because the snapshot carries the exact RNG stream position alongside
/// the coverage set, frontier and report, a resumed session continues
/// *byte-identically* to one that was never interrupted.
pub struct Explorer {
    cfg: ExploreConfig,
    rng: StdRng,
    seen: HashSet<u64>,
    frontier: Vec<FaultSchedule>,
    /// Not-yet-executed seed schedules, as a stack (last = next).
    pending: Vec<FaultSchedule>,
    report: ExploreReport,
}

impl std::fmt::Debug for Explorer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Explorer")
            .field("executed", &self.report.executed)
            .field("budget", &self.cfg.budget)
            .field("unique_states", &self.seen.len())
            .finish()
    }
}

impl Explorer {
    /// Starts a fresh session over `cfg`, priming the queue with `seeds`.
    ///
    /// # Panics
    ///
    /// Panics on configurations too small to check anything (`n < 4` or
    /// `rounds <= 2 * LAG + 4`), exactly like [`explore_with`].
    pub fn new(cfg: &ExploreConfig, seeds: &[FaultSchedule]) -> Self {
        assert!(cfg.n >= 4, "explorer needs n >= 4");
        assert!(
            cfg.rounds > 2 * LAG + 4,
            "rounds too short to check anything"
        );
        let mut pending = seeds.to_vec();
        pending.reverse();
        Explorer {
            cfg: cfg.clone(),
            rng: StdRng::seed_from_u64(cfg.seed),
            seen: HashSet::new(),
            frontier: Vec::new(),
            pending,
            report: ExploreReport::default(),
        }
    }

    /// Rebuilds a session from a snapshot taken by [`Explorer::checkpoint`].
    ///
    /// # Errors
    ///
    /// Rejects snapshots with an unknown version or a malformed RNG state
    /// (both indicate a checkpoint from an incompatible build).
    pub fn from_checkpoint(cp: &crate::checkpoint::ExploreCheckpoint) -> Result<Self, String> {
        if cp.version != crate::checkpoint::CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint version {} unsupported (expected {})",
                cp.version,
                crate::checkpoint::CHECKPOINT_VERSION
            ));
        }
        if !cp.rng.is_well_formed() {
            return Err("checkpoint RNG state is malformed".into());
        }
        Ok(Explorer {
            cfg: cp.cfg.clone(),
            rng: cp.rng.restore(),
            seen: cp.seen.iter().copied().collect(),
            frontier: cp.frontier.clone(),
            pending: cp.pending.clone(),
            report: cp.report.clone(),
        })
    }

    /// Snapshots the complete session state between steps.
    pub fn checkpoint(&self) -> crate::checkpoint::ExploreCheckpoint {
        let mut seen: Vec<u64> = self.seen.iter().copied().collect();
        seen.sort_unstable();
        crate::checkpoint::ExploreCheckpoint {
            version: crate::checkpoint::CHECKPOINT_VERSION,
            cfg: self.cfg.clone(),
            pending: self.pending.clone(),
            seen,
            frontier: self.frontier.clone(),
            report: self.report.clone(),
            rng: crate::checkpoint::RngState::capture(&self.rng),
        }
    }

    /// Schedule executions completed so far (shrinking excluded).
    pub fn executed(&self) -> u64 {
        self.report.executed
    }

    /// Whether the execution budget has been spent.
    pub fn done(&self) -> bool {
        self.report.executed >= self.cfg.budget
    }

    /// Draws the next candidate: the seed queue first, then the frontier
    /// or a fresh random schedule, per the strategy.
    fn draw_schedule(&mut self) -> FaultSchedule {
        let cfg = &self.cfg;
        match self.pending.pop() {
            Some(s) => s,
            None => match cfg.strategy {
                Strategy::Random => random_schedule(cfg, &mut self.rng),
                Strategy::CoverageGuided => {
                    // Mostly mutate the frontier (stacking a few operators
                    // for diversity), but keep a slice of fresh random
                    // schedules so the search never fixates on one basin.
                    if self.frontier.is_empty() || self.rng.gen_range(0..5u32) == 0 {
                        random_schedule(cfg, &mut self.rng)
                    } else {
                        let mut child =
                            self.frontier[self.rng.gen_range(0..self.frontier.len())].clone();
                        for _ in 0..self.rng.gen_range(1..=3u32) {
                            child = mutate_schedule(&child, cfg, &mut self.rng);
                        }
                        child
                    }
                }
            },
        }
    }

    /// Folds one executed schedule's coverage and verdict into the report.
    fn absorb(&mut self, schedule: FaultSchedule, exec: &ScheduleExec, extra: ExtraOracle<'_>) {
        let new_states = exec
            .fingerprints
            .iter()
            .filter(|&&fp| self.seen.insert(fp))
            .count();
        if !exec.verdict.ok() {
            let (shrunk, steps) = shrink_schedule(&schedule, extra);
            self.report.shrink_steps += steps;
            let shrunk_exec = execute_schedule_with_oracle(&shrunk, extra);
            if !self
                .report
                .counterexamples
                .iter()
                .any(|c| c.shrunk == shrunk)
            {
                self.report.counterexamples.push(Counterexample {
                    original: schedule.clone(),
                    shrunk,
                    violations: shrunk_exec.verdict.all(),
                    shrink_steps: steps,
                });
            }
        }
        if new_states > 0 {
            self.report.corpus.push(schedule.clone());
            if self.cfg.strategy == Strategy::CoverageGuided {
                self.frontier.push(schedule);
            }
        }
        self.report.unique_states = self.seen.len() as u64;
    }

    /// Executes one schedule (drawn from the seed queue, the frontier, or
    /// fresh at random, per the strategy) and folds its coverage and
    /// verdict into the report. Returns `false` — without executing — once
    /// the budget is spent.
    pub fn step(&mut self, extra: ExtraOracle<'_>) -> bool {
        if self.done() {
            return false;
        }
        let schedule = self.draw_schedule();
        let exec = execute_schedule_with_oracle(&schedule, extra);
        self.report.executed += 1;
        self.absorb(schedule, &exec, extra);
        true
    }

    /// Consumes the session and returns the final report.
    pub fn into_report(mut self) -> ExploreReport {
        self.report.unique_states = self.seen.len() as u64;
        self.report
    }
}

/// Delta-debugs a failing schedule down to a minimal one that still fails:
/// repeatedly drop whole faults, narrow bursts (`hits -= 1`), collapse
/// strides to 1 and simplify classes to benign, keeping any reduction that
/// preserves failure, until a fixpoint.
///
/// Returns the minimized schedule and the number of executions spent.
/// `schedule` itself must fail (the caller established that).
pub fn shrink_schedule(schedule: &FaultSchedule, extra: ExtraOracle<'_>) -> (FaultSchedule, u64) {
    let mut steps = 0u64;
    let mut still_fails = |cand: &FaultSchedule| {
        steps += 1;
        !execute_schedule_with_oracle(cand, extra).verdict.ok()
    };
    let mut best = schedule.clone();
    loop {
        let mut improved = false;
        if best.faults.len() > 1 {
            for i in 0..best.faults.len() {
                let mut cand = best.clone();
                cand.faults.remove(i);
                if still_fails(&cand) {
                    best = cand;
                    improved = true;
                    break;
                }
            }
            if improved {
                continue;
            }
        }
        'reduce: for i in 0..best.faults.len() {
            if best.faults[i].hits > 1 {
                let mut cand = best.clone();
                cand.faults[i].hits -= 1;
                if still_fails(&cand) {
                    best = cand;
                    improved = true;
                    break 'reduce;
                }
            }
            if best.faults[i].stride > 1 {
                let mut cand = best.clone();
                cand.faults[i].stride = 1;
                if still_fails(&cand) {
                    best = cand;
                    improved = true;
                    break 'reduce;
                }
            }
            if best.faults[i].class != ScheduledClass::Benign {
                let mut cand = best.clone();
                cand.faults[i].class = ScheduledClass::Benign;
                if still_fails(&cand) {
                    best = cand;
                    improved = true;
                    break 'reduce;
                }
            }
        }
        if !improved {
            return (best, steps);
        }
    }
}

/// Draws the deterministic random schedule of `seed` within the config's
/// bounds — the public seeded generator behind campaign workers and the
/// batched-equivalence tests (`seed` indexes an independent RNG stream, so
/// consecutive seeds give independent schedules).
pub fn seeded_schedule(cfg: &ExploreConfig, seed: u64) -> FaultSchedule {
    random_schedule(cfg, &mut StdRng::seed_from_u64(seed))
}

/// Draws a fresh random schedule within the config's bounds.
fn random_schedule(cfg: &ExploreConfig, rng: &mut StdRng) -> FaultSchedule {
    let k = rng.gen_range(1..=cfg.max_faults);
    let faults = (0..k).map(|_| random_fault(cfg, rng)).collect();
    FaultSchedule {
        n: cfg.n,
        rounds: cfg.rounds,
        penalty_threshold: cfg.penalty_threshold,
        reward_threshold: cfg.reward_threshold,
        faults,
        protocol: cfg.protocol,
    }
}

/// The `CliquePartition` fault list (cf. [`crate::malicious::CliquePartition`])
/// as schedule faults: every sender *outside* the clique is hit by an
/// asymmetric fault detected only by the clique members, so the clique
/// perceives the rest of the cluster as faulty while the majority sees a
/// clean bus — the adversarial scenario behind Sec. 7's minority-clique
/// exclusion. `clique` holds 0-based node indices; it must be a nonempty
/// strict subset of the cluster.
pub fn clique_partition_faults(
    n: usize,
    clique: &[usize],
    round: u64,
    hits: u64,
) -> Vec<ScheduledFault> {
    assert!(
        !clique.is_empty() && clique.len() < n,
        "clique must be a nonempty strict subset"
    );
    let mut clique = clique.to_vec();
    clique.sort_unstable();
    clique.dedup();
    (1..=n as u32)
        .filter(|&s| !clique.contains(&((s - 1) as usize)))
        .map(|s| ScheduledFault {
            node: s,
            round,
            hits,
            stride: 1,
            class: ScheduledClass::Asymmetric {
                detected_by: clique.clone(),
            },
        })
        .collect()
}

fn random_fault(cfg: &ExploreConfig, rng: &mut StdRng) -> ScheduledFault {
    let node = rng.gen_range(1..=cfg.n as u32);
    let mut f = ScheduledFault {
        node,
        round: rng.gen_range(MIN_FAULT_ROUND..=cfg.max_fault_round()),
        hits: rng.gen_range(1..=2u64),
        stride: 1,
        class: random_class(cfg.n, node, rng),
    };
    clamp_fault(&mut f, cfg);
    f
}

fn random_class(n: usize, node: u32, rng: &mut StdRng) -> ScheduledClass {
    match rng.gen_range(0..3u32) {
        0 => ScheduledClass::Benign,
        1 => ScheduledClass::Malicious { payload: rng.gen() },
        _ => ScheduledClass::Asymmetric {
            detected_by: random_subset(n, node, rng),
        },
    }
}

/// A nonempty strict subset of the receivers of `sender` (0-based).
fn random_subset(n: usize, sender: u32, rng: &mut StdRng) -> Vec<usize> {
    let mut candidates: Vec<usize> = (0..n).filter(|&i| i != (sender - 1) as usize).collect();
    let size = rng.gen_range(1..candidates.len());
    let mut out = Vec::with_capacity(size);
    for _ in 0..size {
        out.push(candidates.swap_remove(rng.gen_range(0..candidates.len())));
    }
    out.sort_unstable();
    out
}

/// Applies one mutation operator to a copy of `parent`.
fn mutate_schedule(parent: &FaultSchedule, cfg: &ExploreConfig, rng: &mut StdRng) -> FaultSchedule {
    let mut s = parent.clone();
    let op = rng.gen_range(0..7u32);
    if op == 0 && s.faults.len() < cfg.max_faults {
        let f = random_fault(cfg, rng);
        s.faults.push(f);
    } else if op == 1 && s.faults.len() > 1 {
        let i = rng.gen_range(0..s.faults.len());
        s.faults.remove(i);
    } else if s.faults.is_empty() {
        s.faults.push(random_fault(cfg, rng));
    } else {
        let i = rng.gen_range(0..s.faults.len());
        let n = cfg.n;
        let f = &mut s.faults[i];
        match op {
            // Flip the fault class along the paper's taxonomy.
            3 => {
                f.class = match &f.class {
                    ScheduledClass::Benign => ScheduledClass::Malicious { payload: rng.gen() },
                    ScheduledClass::Malicious { .. } => ScheduledClass::Asymmetric {
                        detected_by: random_subset(n, f.node, rng),
                    },
                    ScheduledClass::Asymmetric { .. } => ScheduledClass::Benign,
                };
            }
            // Shift the fault one round earlier or later.
            4 => {
                f.round = if rng.gen_range(0..2u32) == 0 {
                    f.round.saturating_sub(1)
                } else {
                    f.round + 1
                };
            }
            // Move the fault to another sending slot.
            5 => f.node = rng.gen_range(1..=n as u32),
            // Convert to an intermittent fault.
            6 => {
                f.stride = rng.gen_range(2..=3u64);
                f.hits = f.hits.max(2);
            }
            // Widen the burst (op 2, and the fallback when 0/1 don't apply).
            _ => f.hits += 1,
        }
    }
    for f in &mut s.faults {
        clamp_fault(f, cfg);
    }
    s
}

/// Clamps a fault back into the config's bounds after mutation: the whole
/// occurrence window must lie in `[MIN_FAULT_ROUND, max_fault_round]`, and
/// an asymmetric subset must stay a nonempty strict receiver subset.
fn clamp_fault(f: &mut ScheduledFault, cfg: &ExploreConfig) {
    let n = cfg.n;
    f.node = f.node.clamp(1, n as u32);
    f.hits = f.hits.max(1);
    f.stride = f.stride.max(1);
    f.round = f.round.clamp(MIN_FAULT_ROUND, cfg.max_fault_round());
    while f.hits > 1 && f.last_round() > cfg.max_fault_round() {
        f.hits -= 1;
    }
    if let ScheduledClass::Asymmetric { detected_by } = &mut f.class {
        let sender = (f.node - 1) as usize;
        detected_by.retain(|&i| i < n && i != sender);
        detected_by.sort_unstable();
        detected_by.dedup();
        detected_by.truncate(n - 2);
        if detected_by.is_empty() {
            // Deterministic repair: detect by the first receiver.
            detected_by.push(usize::from(sender == 0));
        }
    }
}

/// Writes one schedule into `dir` as pretty-printed JSON named
/// `<prefix>-<id>.json`, creating the directory if needed. Returns the
/// path written.
pub fn save_schedule(
    dir: &Path,
    prefix: &str,
    schedule: &FaultSchedule,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let mut json = serde_json::to_string_pretty(schedule).expect("schedule serializes");
    json.push('\n');
    let path = dir.join(format!("{prefix}-{:016x}.json", schedule.id()));
    std::fs::write(&path, json.as_bytes())?;
    Ok(path)
}

/// Loads every `*.json` schedule in `dir`, sorted by file name for
/// deterministic replay order. A missing directory is an empty corpus.
pub fn load_corpus(dir: &Path) -> std::io::Result<Vec<(PathBuf, FaultSchedule)>> {
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let data = std::fs::read_to_string(&path)?;
        let schedule: FaultSchedule = serde_json::from_str(&data).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })?;
        out.push((path, schedule));
    }
    Ok(out)
}

/// Convenience for tests and the CLI: the diagnosed rounds this explorer
/// checks for a given total.
pub fn explored_rounds(rounds: u64) -> impl Iterator<Item = RoundIndex> {
    checkable_rounds(rounds, LAG)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExploreConfig {
        ExploreConfig::default()
    }

    #[test]
    fn covers_handles_strides() {
        let f = ScheduledFault {
            node: 2,
            round: 6,
            hits: 3,
            stride: 2,
            class: ScheduledClass::Benign,
        };
        let hit = |r| f.covers(r, NodeId::new(2));
        assert!(hit(6) && hit(8) && hit(10));
        assert!(!hit(5) && !hit(7) && !hit(12));
        assert!(!f.covers(6, NodeId::new(1)));
        assert_eq!(f.last_round(), 10);
    }

    #[test]
    fn generated_schedules_stay_in_bounds() {
        let cfg = cfg();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let s = random_schedule(&cfg, &mut rng);
            assert!(!s.faults.is_empty() && s.faults.len() <= cfg.max_faults);
            for f in &s.faults {
                assert!((1..=cfg.n as u32).contains(&f.node));
                assert!(f.round >= MIN_FAULT_ROUND);
                assert!(f.last_round() <= cfg.max_fault_round());
                if let ScheduledClass::Asymmetric { detected_by } = &f.class {
                    assert!(!detected_by.is_empty());
                    assert!(detected_by.len() <= cfg.n - 2);
                    assert!(detected_by.iter().all(|&i| i != (f.node - 1) as usize));
                }
            }
        }
    }

    #[test]
    fn mutants_stay_in_bounds() {
        let cfg = cfg();
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = random_schedule(&cfg, &mut rng);
        for _ in 0..300 {
            s = mutate_schedule(&s, &cfg, &mut rng);
            assert!(!s.faults.is_empty() && s.faults.len() <= cfg.max_faults);
            for f in &s.faults {
                assert!(f.round >= MIN_FAULT_ROUND && f.last_round() <= cfg.max_fault_round());
            }
        }
    }

    #[test]
    fn empty_schedule_passes_all_oracles() {
        let s = FaultSchedule {
            n: 4,
            rounds: 16,
            penalty_threshold: 100,
            reward_threshold: 100,
            faults: Vec::new(),
            protocol: ProtocolUnderTest::Diag,
        };
        for protocol in [
            ProtocolUnderTest::Diag,
            ProtocolUnderTest::Membership,
            ProtocolUnderTest::Lowlat,
        ] {
            let s = FaultSchedule {
                protocol,
                ..s.clone()
            };
            let exec = execute_schedule(&s);
            assert!(exec.verdict.ok(), "{protocol:?}: {:?}", exec.verdict.all());
            assert!(!exec.fingerprints.is_empty(), "{protocol:?}");
        }
    }

    #[test]
    fn execution_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = random_schedule(&cfg(), &mut rng);
        assert_eq!(execute_schedule(&s), execute_schedule(&s));
    }

    #[test]
    fn schedule_roundtrips_through_json() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = random_schedule(&cfg(), &mut rng);
        let json = serde_json::to_string(&s).unwrap();
        let back: FaultSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        assert_eq!(s.id(), back.id());
    }

    #[test]
    fn isolation_heavy_schedule_still_satisfies_oracles() {
        // Enough hits on one node to push it past P = 3 and isolate it.
        let s = FaultSchedule {
            n: 4,
            rounds: 24,
            penalty_threshold: 3,
            reward_threshold: 2,
            faults: vec![ScheduledFault {
                node: 2,
                round: 5,
                hits: 6,
                stride: 1,
                class: ScheduledClass::Benign,
            }],
            protocol: ProtocolUnderTest::Diag,
        };
        let exec = execute_schedule(&s);
        assert!(exec.verdict.ok(), "{:?}", exec.verdict.all());
    }

    #[test]
    fn diag_schedules_keep_the_pre_variant_serialized_form() {
        // Diag schedules must omit the `protocol` field so every committed
        // corpus file name (id = hash of the JSON) stays valid.
        let mut rng = StdRng::seed_from_u64(4);
        let s = random_schedule(&cfg(), &mut rng);
        let json = serde_json::to_string(&s).unwrap();
        assert!(!json.contains("protocol"), "{json}");
        // And pre-variant JSON (no `protocol` field) loads as Diag.
        let back: FaultSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back.protocol, ProtocolUnderTest::Diag);
    }

    #[test]
    fn variant_schedules_roundtrip_with_their_protocol() {
        let mut rng = StdRng::seed_from_u64(4);
        for protocol in [ProtocolUnderTest::Membership, ProtocolUnderTest::Lowlat] {
            let s = FaultSchedule {
                protocol,
                ..random_schedule(&cfg(), &mut rng)
            };
            let json = serde_json::to_string(&s).unwrap();
            assert!(json.contains("protocol"), "{json}");
            let back: FaultSchedule = serde_json::from_str(&json).unwrap();
            assert_eq!(s, back);
            assert_eq!(s.id(), back.id());
        }
    }

    #[test]
    fn variant_execution_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(9);
        for protocol in [ProtocolUnderTest::Membership, ProtocolUnderTest::Lowlat] {
            let s = FaultSchedule {
                protocol,
                ..random_schedule(&cfg(), &mut rng)
            };
            assert_eq!(execute_schedule(&s), execute_schedule(&s));
        }
    }

    #[test]
    fn protocol_cli_spellings_roundtrip() {
        for p in [
            ProtocolUnderTest::Diag,
            ProtocolUnderTest::Membership,
            ProtocolUnderTest::Lowlat,
        ] {
            assert_eq!(ProtocolUnderTest::parse_cli(p.as_str()), Some(p));
        }
        assert_eq!(ProtocolUnderTest::parse_cli("quorum"), None);
    }

    #[test]
    fn clique_partition_faults_build_the_asymmetric_pattern() {
        let faults = clique_partition_faults(5, &[2], 8, 2);
        assert_eq!(faults.len(), 4, "every sender outside the clique");
        for f in &faults {
            assert_ne!(f.node, 3, "clique member 2 (node 3) is not a sender");
            assert_eq!(f.round, 8);
            assert_eq!(f.hits, 2);
            assert_eq!(
                f.class,
                ScheduledClass::Asymmetric {
                    detected_by: vec![2]
                }
            );
        }
    }

    #[test]
    fn shrinker_minimizes_a_planted_weak_oracle_failure() {
        // A deliberately weak oracle: "no node is ever convicted". Any
        // detected fault violates it, so the minimum is one single-hit
        // benign fault.
        let weak = |cluster: &Cluster| -> Vec<String> {
            let job: &DiagJob = cluster.job_as(NodeId::new(1)).unwrap();
            if job
                .health_log()
                .iter()
                .any(|h| h.health.iter().any(|&b| !b))
            {
                vec!["weakened-oracle violation: somebody was convicted".into()]
            } else {
                Vec::new()
            }
        };
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = cfg();
        // Find a failing schedule (any with a detectable fault).
        let failing = loop {
            let s = random_schedule(&cfg, &mut rng);
            if !execute_schedule_with_oracle(&s, &weak).verdict.ok() {
                break s;
            }
        };
        let (shrunk, steps) = shrink_schedule(&failing, &weak);
        assert!(steps > 0);
        assert_eq!(shrunk.faults.len(), 1, "{shrunk:?}");
        assert_eq!(shrunk.faults[0].hits, 1, "{shrunk:?}");
        assert_eq!(shrunk.faults[0].stride, 1, "{shrunk:?}");
        assert!(!execute_schedule_with_oracle(&shrunk, &weak).verdict.ok());
    }

    #[test]
    fn corpus_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join("tt-fault-explore-corpus-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut rng = StdRng::seed_from_u64(6);
        let a = random_schedule(&cfg(), &mut rng);
        let b = random_schedule(&cfg(), &mut rng);
        save_schedule(&dir, "sched", &a).unwrap();
        save_schedule(&dir, "sched", &b).unwrap();
        let loaded = load_corpus(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        assert!(loaded.iter().any(|(_, s)| *s == a));
        assert!(loaded.iter().any(|(_, s)| *s == b));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_corpus_dir_is_empty() {
        let dir = std::env::temp_dir().join("tt-fault-explore-no-such-dir");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(load_corpus(&dir).unwrap().is_empty());
    }

    #[test]
    fn small_exploration_is_deterministic() {
        let cfg = ExploreConfig {
            budget: 25,
            ..cfg()
        };
        let a = explore(&cfg);
        let b = explore(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.executed, 25);
        assert!(a.unique_states > 0);
        assert!(a.counterexamples.is_empty(), "{:?}", a.counterexamples);
    }

    #[test]
    fn seeded_schedules_are_stable_and_distinct() {
        let cfg = cfg();
        assert_eq!(seeded_schedule(&cfg, 7), seeded_schedule(&cfg, 7));
        assert_ne!(seeded_schedule(&cfg, 7), seeded_schedule(&cfg, 8));
    }

    #[test]
    fn checkpointed_resume_is_byte_identical() {
        let cfg = ExploreConfig {
            budget: 20,
            ..cfg()
        };
        let uninterrupted = explore(&cfg);
        // Interrupt after every possible number of steps; resuming from
        // the snapshot must reproduce the uninterrupted report exactly.
        for interrupt_at in [0u64, 1, 7, 10, 19, 20] {
            let mut session = Explorer::new(&cfg, &[]);
            for _ in 0..interrupt_at {
                assert!(session.step(&no_extra_oracle));
            }
            let cp = session.checkpoint();
            drop(session); // the "crash"
            let mut resumed = Explorer::from_checkpoint(&cp).expect("valid checkpoint");
            while resumed.step(&no_extra_oracle) {}
            assert_eq!(
                resumed.into_report(),
                uninterrupted,
                "interrupted after {interrupt_at} steps"
            );
        }
    }

    #[test]
    fn checkpoint_roundtrips_through_json() {
        let cfg = ExploreConfig {
            budget: 10,
            ..cfg()
        };
        let mut session = Explorer::new(&cfg, &[]);
        for _ in 0..4 {
            session.step(&no_extra_oracle);
        }
        let cp = session.checkpoint();
        let json = serde_json::to_string(&cp).unwrap();
        let back: crate::checkpoint::ExploreCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(cp, back);
        let mut a = Explorer::from_checkpoint(&cp).unwrap();
        let mut b = Explorer::from_checkpoint(&back).unwrap();
        while a.step(&no_extra_oracle) {
            assert!(b.step(&no_extra_oracle));
        }
        assert_eq!(a.into_report(), b.into_report());
    }

    #[test]
    fn incompatible_checkpoints_are_rejected() {
        let cfg = ExploreConfig { budget: 5, ..cfg() };
        let mut cp = Explorer::new(&cfg, &[]).checkpoint();
        cp.version += 1;
        assert!(Explorer::from_checkpoint(&cp).is_err());
        let mut cp = Explorer::new(&cfg, &[]).checkpoint();
        cp.rng.key.pop();
        assert!(Explorer::from_checkpoint(&cp).is_err());
    }

    #[test]
    fn seeded_session_resumes_with_pending_seeds_intact() {
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = ExploreConfig {
            budget: 12,
            ..cfg()
        };
        let seeds: Vec<FaultSchedule> = (0..6).map(|_| random_schedule(&cfg, &mut rng)).collect();
        let uninterrupted = explore_with(&cfg, &seeds, &no_extra_oracle);
        // Interrupt while seed schedules are still pending.
        let mut session = Explorer::new(&cfg, &seeds);
        for _ in 0..3 {
            session.step(&no_extra_oracle);
        }
        let cp = session.checkpoint();
        assert_eq!(cp.pending.len(), 3, "three seeds still queued");
        let mut resumed = Explorer::from_checkpoint(&cp).unwrap();
        while resumed.step(&no_extra_oracle) {}
        assert_eq!(resumed.into_report(), uninterrupted);
    }
}
