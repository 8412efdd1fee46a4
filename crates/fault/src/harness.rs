//! Harness-fault injection and the supervision policy vocabulary.
//!
//! The campaign *harness* — worker pools, the explorer driver — must
//! tolerate the same fault taxonomy it studies: crashed experiments
//! (panics), hung experiments (infinite or overlong runs), and transient
//! failures that clear on retry. This module provides
//!
//! * [`HarnessFault`] / [`HarnessFaultHook`] — an injectable source of
//!   harness faults, so the supervision policies are testable the same
//!   way the protocol is: deterministically, from a seed;
//! * [`ChaosPlan`] — a seeded hook marking a configurable fraction of
//!   experiments as panicking / hanging / transiently failing;
//! * [`BackoffPolicy`] — bounded exponential retry backoff;
//! * [`WorkerHealth`] — a per-worker penalty/reward tracker mirroring the
//!   paper's Alg. 2: failures raise a penalty counter, sustained success
//!   earns forgiveness, and a worker whose penalty crosses the threshold
//!   is isolated from the pool;
//! * the report vocabulary shared by executors and `tt_analysis`:
//!   [`QuarantineReason`], [`QuarantineRecord`], [`WorkerStats`] and
//!   [`SupervisionSummary`] — degraded results are visible, never silent.

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// SplitMix64 over `(seed, index)`: cheap, stable, well-mixed — the
/// deterministic per-item draw shared by the harness [`ChaosPlan`] and the
/// network chaos injector (`tt_net`). Pure, so every consumer that derives
/// decisions from it is reproducible from its seed alone.
pub fn splitmix64(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fault injected into the *harness* (not the simulated bus): what goes
/// wrong with the execution of one experiment attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HarnessFault {
    /// The attempt panics (as a crashed experiment process would).
    Panic,
    /// The attempt hangs until cancelled by the watchdog.
    Hang,
    /// The attempt fails transiently; a retry may succeed.
    Transient,
}

/// An injectable decision source for harness faults, consulted once per
/// `(work item, attempt)` pair. `None` means the attempt runs untouched.
///
/// Implementations must be deterministic in their inputs so supervised
/// runs stay reproducible.
pub trait HarnessFaultHook: Send + Sync {
    /// The fault (if any) to inject into attempt `attempt` of item `item`.
    fn fault(&self, item: usize, attempt: u32) -> Option<HarnessFault>;
}

/// The hook that never injects anything (production default).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHarnessFaults;

impl HarnessFaultHook for NoHarnessFaults {
    fn fault(&self, _item: usize, _attempt: u32) -> Option<HarnessFault> {
        None
    }
}

/// A seeded harness-fault plan: marks a per-mille fraction of work items
/// as panicking, hanging, or transiently failing. The decision for an item
/// is a pure function of `(seed, item)`, so two runs of the same plan over
/// the same work list inject exactly the same faults — the chaos CI job
/// relies on this to assert an exact quarantine count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosPlan {
    /// Seed of the per-item decisions.
    pub seed: u64,
    /// Per-mille of items whose attempts panic.
    pub panic_per_mille: u16,
    /// Per-mille of items whose attempts hang until cancelled.
    pub hang_per_mille: u16,
    /// Per-mille of items whose attempts fail transiently.
    pub transient_per_mille: u16,
    /// If true, the fault strikes only the first attempt, so a retry
    /// recovers the item; if false, every attempt is hit and the item is
    /// eventually quarantined.
    pub first_attempt_only: bool,
}

impl ChaosPlan {
    /// A plan injecting nothing (useful as a CLI default).
    pub fn quiet(seed: u64) -> Self {
        ChaosPlan {
            seed,
            panic_per_mille: 0,
            hang_per_mille: 0,
            transient_per_mille: 0,
            first_attempt_only: false,
        }
    }

    /// Whether this plan can inject at least one fault class.
    pub fn is_active(&self) -> bool {
        self.panic_per_mille > 0 || self.hang_per_mille > 0 || self.transient_per_mille > 0
    }

    /// The deterministic per-item draw in `0..1000`.
    fn draw(&self, item: usize) -> u64 {
        splitmix64(self.seed, item as u64) % 1000
    }

    /// The fault class this plan assigns to `item`, independent of the
    /// attempt (use [`HarnessFaultHook::fault`] for the per-attempt view).
    pub fn fault_for_item(&self, item: usize) -> Option<HarnessFault> {
        let d = self.draw(item);
        let p = u64::from(self.panic_per_mille);
        let h = u64::from(self.hang_per_mille);
        let t = u64::from(self.transient_per_mille);
        if d < p {
            Some(HarnessFault::Panic)
        } else if d < p + h {
            Some(HarnessFault::Hang)
        } else if d < p + h + t {
            Some(HarnessFault::Transient)
        } else {
            None
        }
    }

    /// How many of the items `0..items` this plan faults, per class:
    /// `(panics, hangs, transients)`. With `first_attempt_only = false`,
    /// panicking and hanging items are exactly the ones a supervisor will
    /// quarantine.
    pub fn expected_faults(&self, items: usize) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for item in 0..items {
            match self.fault_for_item(item) {
                Some(HarnessFault::Panic) => counts.0 += 1,
                Some(HarnessFault::Hang) => counts.1 += 1,
                Some(HarnessFault::Transient) => counts.2 += 1,
                None => {}
            }
        }
        counts
    }
}

impl HarnessFaultHook for ChaosPlan {
    fn fault(&self, item: usize, attempt: u32) -> Option<HarnessFault> {
        if self.first_attempt_only && attempt > 0 {
            return None;
        }
        self.fault_for_item(item)
    }
}

/// Bounded exponential backoff for retrying transiently failed attempts.
///
/// Attempt `a` (0-based count of *completed* failures) waits
/// `min(base * 2^a, cap)` before rerunning; after `max_retries` failed
/// retries the item is quarantined as [`QuarantineReason::RetriesExhausted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay before the first retry.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// Retries allowed per item beyond the initial attempt.
    pub max_retries: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
            max_retries: 2,
        }
    }
}

impl BackoffPolicy {
    /// The delay before retry number `attempt` (0-based): bounded
    /// exponential, saturating at the cap.
    pub fn delay(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base
            .checked_mul(factor)
            .map_or(self.cap, |d| d.min(self.cap))
    }

    /// Whether another retry is allowed after `failures` failed attempts
    /// (the initial attempt counts as the first failure).
    pub fn allows_retry(&self, failures: u32) -> bool {
        failures <= self.max_retries
    }
}

/// A per-worker penalty/reward health tracker in the vocabulary of the
/// paper's Alg. 2: every failure (panic or timeout attributable to the
/// worker) raises the penalty counter and resets the reward counter; every
/// success raises the reward counter, and `reward_threshold` consecutive
/// successes decrement the penalty (forgiveness). A worker whose penalty
/// reaches `penalty_threshold` is isolated from the pool.
///
/// It is not a copy of Alg. 2 ([`tt_core::PenaltyReward`]), which it
/// departs from in three ways:
///
/// * it isolates at `penalty >= P`; Alg. 2 isolates at `penalty > P`;
/// * forgiveness takes one penalty point off; Alg. 2 resets both counters;
/// * successes earn rewards even with no penalty pending; Alg. 2 rewards a
///   node only while its penalty is above zero.
///
/// The quarantine and isolation counts that the supervision tests and the
/// CI chaos job assert depend on these rules, so they are kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerHealth {
    penalty: u32,
    reward: u32,
    penalty_threshold: u32,
    reward_threshold: u32,
}

impl WorkerHealth {
    /// A healthy tracker with the given Alg. 2 thresholds (`P`, `R`).
    pub fn new(penalty_threshold: u32, reward_threshold: u32) -> Self {
        WorkerHealth {
            penalty: 0,
            reward: 0,
            penalty_threshold: penalty_threshold.max(1),
            reward_threshold: reward_threshold.max(1),
        }
    }

    /// Records a failure; returns whether the worker is now isolated.
    pub fn record_failure(&mut self) -> bool {
        self.penalty = self.penalty.saturating_add(1);
        self.reward = 0;
        self.is_isolated()
    }

    /// Records a success, with Alg. 2 forgiveness at the reward threshold.
    pub fn record_success(&mut self) {
        self.reward += 1;
        if self.reward >= self.reward_threshold {
            self.reward = 0;
            self.penalty = self.penalty.saturating_sub(1);
        }
    }

    /// Whether the penalty counter has reached the isolation threshold.
    pub fn is_isolated(&self) -> bool {
        self.penalty >= self.penalty_threshold
    }

    /// The current penalty counter.
    pub fn penalty(&self) -> u32 {
        self.penalty
    }
}

/// Why an experiment ended up quarantined instead of completed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuarantineReason {
    /// Every allowed attempt panicked; the payload message of the last one.
    Panic(String),
    /// The watchdog cancelled every allowed attempt past its deadline.
    Timeout,
    /// Transient failures exhausted the retry budget.
    RetriesExhausted,
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuarantineReason::Panic(msg) => write!(f, "panic: {msg}"),
            QuarantineReason::Timeout => write!(f, "watchdog timeout"),
            QuarantineReason::RetriesExhausted => write!(f, "retries exhausted"),
        }
    }
}

/// One quarantined experiment: everything needed to reproduce it locally.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineRecord {
    /// Index in the campaign's deterministic work list.
    pub item: usize,
    /// The experiment class label.
    pub label: String,
    /// The seed that reproduces the experiment exactly.
    pub seed: u64,
    /// Attempts spent before quarantining (including the first).
    pub attempts: u32,
    /// Why the experiment was quarantined.
    pub reason: QuarantineReason,
}

/// Per-worker accounting of a supervised campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Worker index in the pool.
    pub worker: usize,
    /// Experiments completed successfully on this worker.
    pub completed: u64,
    /// Attempts that panicked on this worker.
    pub panics: u64,
    /// Attempts the watchdog cancelled on this worker.
    pub timeouts: u64,
    /// Attempts that failed transiently on this worker.
    pub transients: u64,
    /// Whether the health tracker isolated this worker.
    pub isolated: bool,
}

/// The supervision outcome of one campaign: what degraded, and how.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupervisionSummary {
    /// Experiments that never produced a verdict, with reproduction info.
    pub quarantined: Vec<QuarantineRecord>,
    /// Total retry attempts across all items.
    pub retries: u64,
    /// Per-worker accounting, in worker order.
    pub workers: Vec<WorkerStats>,
}

impl SupervisionSummary {
    /// Whether the campaign ran without any degradation at all.
    pub fn clean(&self) -> bool {
        self.quarantined.is_empty() && self.retries == 0 && !self.workers.iter().any(|w| w.isolated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_injects_nothing() {
        let plan = ChaosPlan::quiet(7);
        assert!(!plan.is_active());
        for item in 0..500 {
            assert_eq!(plan.fault(item, 0), None);
        }
        assert_eq!(plan.expected_faults(500), (0, 0, 0));
    }

    #[test]
    fn plan_rates_are_roughly_respected_and_deterministic() {
        let plan = ChaosPlan {
            seed: 99,
            panic_per_mille: 100,
            hang_per_mille: 50,
            transient_per_mille: 100,
            first_attempt_only: false,
        };
        let (p, h, t) = plan.expected_faults(2000);
        // Rates are per-mille; allow generous slack around the mean.
        assert!((100..=300).contains(&p), "panics: {p}");
        assert!((40..=180).contains(&h), "hangs: {h}");
        assert!((100..=300).contains(&t), "transients: {t}");
        // Determinism: the same (seed, item) decides the same way.
        for item in 0..2000 {
            assert_eq!(plan.fault(item, 0), plan.fault(item, 5));
        }
        assert_eq!(plan.expected_faults(2000), (p, h, t));
    }

    #[test]
    fn first_attempt_only_plans_recover_on_retry() {
        let plan = ChaosPlan {
            seed: 3,
            panic_per_mille: 500,
            hang_per_mille: 0,
            transient_per_mille: 0,
            first_attempt_only: true,
        };
        let faulted: Vec<usize> = (0..100).filter(|&i| plan.fault(i, 0).is_some()).collect();
        assert!(!faulted.is_empty());
        for item in faulted {
            assert_eq!(plan.fault(item, 1), None);
        }
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        let p = BackoffPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            max_retries: 3,
        };
        assert_eq!(p.delay(0), Duration::from_millis(10));
        assert_eq!(p.delay(1), Duration::from_millis(20));
        assert_eq!(p.delay(2), Duration::from_millis(40));
        assert_eq!(p.delay(3), Duration::from_millis(80));
        assert_eq!(p.delay(4), Duration::from_millis(100));
        assert_eq!(p.delay(63), Duration::from_millis(100));
        assert_eq!(p.delay(64), Duration::from_millis(100));
        assert!(p.allows_retry(1) && p.allows_retry(3));
        assert!(!p.allows_retry(4));
    }

    #[test]
    fn worker_health_mirrors_alg2() {
        let mut h = WorkerHealth::new(3, 2);
        assert!(!h.is_isolated());
        assert!(!h.record_failure());
        assert!(!h.record_failure());
        assert_eq!(h.penalty(), 2);
        // Forgiveness: two consecutive successes decrement the penalty.
        h.record_success();
        assert_eq!(h.penalty(), 2);
        h.record_success();
        assert_eq!(h.penalty(), 1);
        // A failure resets the reward streak.
        h.record_success();
        assert!(!h.record_failure());
        h.record_success();
        assert_eq!(h.penalty(), 2, "streak was reset by the failure");
        // Crossing P isolates.
        assert!(h.record_failure());
        assert!(h.is_isolated());
    }

    #[test]
    fn supervision_summary_clean_detects_degradation() {
        let mut s = SupervisionSummary::default();
        assert!(s.clean());
        s.retries = 1;
        assert!(!s.clean());
        s.retries = 0;
        s.quarantined.push(QuarantineRecord {
            item: 0,
            label: "burst/1slots@s0".into(),
            seed: 1,
            attempts: 3,
            reason: QuarantineReason::Timeout,
        });
        assert!(!s.clean());
    }

    #[test]
    fn quarantine_reason_displays() {
        assert_eq!(
            QuarantineReason::Panic("boom".into()).to_string(),
            "panic: boom"
        );
        assert_eq!(QuarantineReason::Timeout.to_string(), "watchdog timeout");
        assert_eq!(
            QuarantineReason::RetriesExhausted.to_string(),
            "retries exhausted"
        );
    }
}
