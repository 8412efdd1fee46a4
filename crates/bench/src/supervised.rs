//! Fault-tolerant, supervised campaign execution.
//!
//! A [`SupervisedCampaign`] runs a campaign's deterministic work list (the
//! one the sequential [`tt_fault::run_campaign`] runs) on worker threads,
//! and assumes experiments are not well-behaved: its supervisor applies
//! the paper's own fault-tolerance vocabulary to the harness itself:
//!
//! * **panic quarantine** — every attempt runs under `catch_unwind`; a
//!   panicking experiment becomes a [`QuarantineRecord`] (with the seed
//!   that reproduces it) instead of killing the worker or the pool;
//! * **watchdog deadlines** — attempts exceeding the configured
//!   per-experiment budget are cancelled cooperatively through the
//!   round-granularity [`tt_sim::CancellationToken`] threaded into the
//!   cluster, then retried or quarantined;
//! * **retry with bounded exponential backoff** — transiently failing
//!   attempts (injectable via [`HarnessFaultHook`], so the policy is
//!   testable) are requeued after [`BackoffPolicy::delay`];
//! * **worker health (Alg. 2)** — each worker carries a
//!   [`WorkerHealth`] penalty/reward tracker; workers that repeatedly
//!   panic or time out are isolated from the pool and the campaign
//!   degrades gracefully to fewer threads (the last active worker is
//!   never isolated, so the campaign always completes);
//! * **checkpoint/resume** — progress snapshots
//!   ([`tt_fault::CampaignCheckpoint`]) are written atomically every N
//!   settled experiments; a resumed campaign re-runs only unsettled
//!   indices, and — because every experiment is a pure function of its
//!   index-derived seed — produces results byte-identical to an
//!   uninterrupted run.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tt_fault::{
    experiment_seed, run_experiment_observed, BackoffPolicy, CampaignCheckpoint, CampaignResult,
    ExperimentClass, ExperimentOutcome, ExperimentSinks, HarnessFault, HarnessFaultHook,
    QuarantineReason, QuarantineRecord, SupervisionSummary, WorkerHealth, WorkerStats,
};
use tt_sim::{CancellationToken, ProgressEvent, StreamHub};

/// Live observability attachments for `ttdiag serve`: streaming sinks
/// cloned into every experiment cluster plus a progress hub the supervisor
/// publishes a [`ProgressEvent::Settled`] to each time a work item settles.
///
/// `None` (the default) keeps the supervisor exactly as before; attached
/// but subscriber-less feeds cost one relaxed load per settle.
#[derive(Debug, Clone)]
pub struct LiveFeeds {
    /// Service-assigned job id stamped into every progress event.
    pub job: u64,
    /// Sinks attached to every experiment cluster.
    pub sinks: ExperimentSinks,
    /// Hub per-settle progress events are published to.
    pub progress: Arc<StreamHub<ProgressEvent>>,
}

/// Supervision policy for one campaign run.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Worker threads (clamped to ≥ 1).
    pub threads: usize,
    /// Per-experiment wall-clock budget; `None` disables the watchdog.
    /// Required when the harness-fault hook can inject hangs.
    pub watchdog: Option<Duration>,
    /// Retry/backoff policy for failed attempts.
    pub backoff: BackoffPolicy,
    /// Alg. 2 penalty threshold `P` for worker isolation.
    pub worker_penalty_threshold: u32,
    /// Alg. 2 reward threshold `R` for worker forgiveness.
    pub worker_reward_threshold: u32,
    /// Write a checkpoint every this many settled experiments
    /// (0 disables periodic snapshots; a final one is still written when
    /// `checkpoint_path` is set).
    pub checkpoint_every: usize,
    /// Where to write checkpoints; `None` disables checkpointing.
    pub checkpoint_path: Option<PathBuf>,
    /// Stop (with a checkpoint) after this many newly settled experiments
    /// — the controlled "interrupt" used by resume tests and the chaos CI
    /// job.
    pub halt_after: Option<usize>,
    /// Live streaming attachments (`ttdiag serve`); `None` outside serve
    /// mode.
    pub live: Option<LiveFeeds>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            threads: 4,
            watchdog: None,
            backoff: BackoffPolicy::default(),
            worker_penalty_threshold: 3,
            worker_reward_threshold: 2,
            checkpoint_every: 25,
            checkpoint_path: None,
            halt_after: None,
            live: None,
        }
    }
}

/// The result of a supervised campaign run.
#[derive(Debug, Clone)]
pub struct SupervisedOutcome {
    /// Outcomes of all *completed* experiments, in deterministic
    /// work-list order (quarantined indices are absent here and listed in
    /// the supervision summary instead).
    pub result: CampaignResult,
    /// What degraded: quarantines, retries, per-worker accounting.
    pub supervision: SupervisionSummary,
    /// Whether the run stopped early at `halt_after` (resume from the
    /// checkpoint to continue).
    pub halted: bool,
}

/// A deterministic campaign work list plus the supervision policy to run
/// it under.
#[derive(Debug, Clone)]
pub struct SupervisedCampaign<'a> {
    /// The experiment classes, in work-list order.
    pub classes: &'a [ExperimentClass],
    /// Cluster size.
    pub n: usize,
    /// Seeded repetitions per class.
    pub reps: u64,
    /// Base seed (per-item seeds derive via [`experiment_seed`]).
    pub base_seed: u64,
    /// The supervision policy.
    pub config: SupervisorConfig,
}

/// One attempt handed to a worker.
struct Assignment {
    worker: usize,
    item: usize,
    class: ExperimentClass,
    seed: u64,
    /// Backoff delay the worker sleeps before the attempt.
    delay: Duration,
    /// Fresh per-attempt token the watchdog cancels on deadline.
    token: CancellationToken,
    /// Harness fault injected into this attempt, if any.
    inject: Option<HarnessFault>,
}

/// What one attempt produced, reported back to the supervisor.
enum AttemptOutcome {
    Completed(Box<ExperimentOutcome>),
    Panicked(String),
    /// The watchdog cancelled the attempt (or an injected hang observed
    /// its cancellation).
    Cancelled,
    /// Injected transient failure.
    Transient,
}

struct Event {
    worker: usize,
    item: usize,
    outcome: AttemptOutcome,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_attempt(a: &Assignment, n: usize, sinks: &ExperimentSinks) -> AttemptOutcome {
    match a.inject {
        Some(HarnessFault::Hang) => {
            // A simulated hang: spins until the watchdog cancels it. A
            // real runaway experiment observes the same token at round
            // granularity inside `Cluster::run_round`.
            while !a.token.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            AttemptOutcome::Cancelled
        }
        Some(HarnessFault::Transient) => AttemptOutcome::Transient,
        inject => {
            let result = catch_unwind(AssertUnwindSafe(|| {
                if inject == Some(HarnessFault::Panic) {
                    panic!("injected harness panic");
                }
                run_experiment_observed(a.class, n, a.seed, &a.token, sinks)
            }));
            match result {
                Ok(Some(outcome)) => AttemptOutcome::Completed(Box::new(outcome)),
                Ok(None) => AttemptOutcome::Cancelled,
                Err(payload) => AttemptOutcome::Panicked(panic_message(payload)),
            }
        }
    }
}

fn worker_loop(
    n: usize,
    sinks: ExperimentSinks,
    assignments: Receiver<Assignment>,
    events: Sender<Event>,
) {
    while let Ok(a) = assignments.recv() {
        if !a.delay.is_zero() {
            std::thread::sleep(a.delay);
        }
        let event = Event {
            worker: a.worker,
            item: a.item,
            outcome: run_attempt(&a, n, &sinks),
        };
        if events.send(event).is_err() {
            return; // supervisor gone; nothing left to report to
        }
    }
}

/// A queued (re)attempt of one work item.
struct Pending {
    item: usize,
    attempt: u32,
    delay: Duration,
}

/// Attempts kept assigned to each worker: one running and one waiting in
/// its assignment channel. A worker that reports an attempt then starts the
/// next one at once, instead of parking in `recv` until the supervisor has
/// settled the event and handed over more work.
const WORKER_QUEUE_DEPTH: usize = 2;

/// An attempt assigned to a worker: running at the front of the worker's
/// FIFO, or waiting behind it in the worker's assignment channel.
struct InFlight {
    item: usize,
    token: CancellationToken,
    /// Backoff delay the worker sleeps before starting the attempt.
    delay: Duration,
    /// Watchdog deadline; `None` while queued behind another attempt, once
    /// cancelled, or with no watchdog.
    deadline: Option<Instant>,
}

impl SupervisedCampaign<'_> {
    /// Runs the campaign from scratch.
    ///
    /// # Errors
    ///
    /// Only checkpoint I/O can fail; the supervision machinery itself
    /// turns experiment failures into quarantine records, never errors.
    pub fn run(&self, hook: &dyn HarnessFaultHook) -> io::Result<SupervisedOutcome> {
        let checkpoint = CampaignCheckpoint::new(self.classes, self.n, self.reps, self.base_seed);
        self.run_from(hook, checkpoint)
    }

    /// Resumes the campaign from a checkpoint: already settled indices
    /// (completed or quarantined) are not re-run, and the final outcome is
    /// byte-identical to an uninterrupted run's.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidInput`] if the checkpoint does
    /// not belong to this campaign's `(classes, n, reps, base_seed)`.
    pub fn run_resumed(
        &self,
        hook: &dyn HarnessFaultHook,
        checkpoint: &CampaignCheckpoint,
    ) -> io::Result<SupervisedOutcome> {
        if !checkpoint.matches(self.classes, self.n, self.reps, self.base_seed) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "checkpoint does not match this campaign's classes/n/reps/seed",
            ));
        }
        self.run_from(hook, checkpoint.clone())
    }

    /// The deterministic work list `(class, seed)` in sequential order.
    fn work_items(&self) -> Vec<(ExperimentClass, u64)> {
        self.classes
            .iter()
            .enumerate()
            .flat_map(|(ci, &class)| {
                (0..self.reps).map(move |rep| (class, experiment_seed(self.base_seed, ci, rep)))
            })
            .collect()
    }

    fn run_from(
        &self,
        hook: &dyn HarnessFaultHook,
        checkpoint: CampaignCheckpoint,
    ) -> io::Result<SupervisedOutcome> {
        let items = self.work_items();
        let threads = self.config.threads.max(1);
        let mut completed: BTreeMap<usize, ExperimentOutcome> =
            checkpoint.completed.iter().cloned().collect();
        let mut quarantined: Vec<QuarantineRecord> = checkpoint.quarantined.clone();
        let mut retries: u64 = checkpoint.retries;

        let settled: std::collections::HashSet<usize> = checkpoint.settled().collect();
        let mut queue: VecDeque<Pending> = (0..items.len())
            .filter(|i| !settled.contains(i))
            .map(|item| Pending {
                item,
                attempt: 0,
                delay: Duration::ZERO,
            })
            .collect();

        let mut health = vec![
            WorkerHealth::new(
                self.config.worker_penalty_threshold,
                self.config.worker_reward_threshold,
            );
            threads
        ];
        let mut stats: Vec<WorkerStats> = (0..threads)
            .map(|worker| WorkerStats {
                worker,
                ..WorkerStats::default()
            })
            .collect();
        // Per-item failure count (attempts that did not complete).
        let mut failures: HashMap<usize, u32> = HashMap::new();
        let mut newly_settled: usize = 0;
        let mut halted = false;

        let write_checkpoint = |completed: &BTreeMap<usize, ExperimentOutcome>,
                                quarantined: &[QuarantineRecord],
                                retries: u64|
         -> io::Result<()> {
            let Some(path) = &self.config.checkpoint_path else {
                return Ok(());
            };
            let cp = CampaignCheckpoint {
                completed: completed.iter().map(|(i, o)| (*i, o.clone())).collect(),
                quarantined: quarantined.to_vec(),
                retries,
                ..CampaignCheckpoint::new(self.classes, self.n, self.reps, self.base_seed)
            };
            tt_fault::write_json_atomic(path, &cp)
        };

        let mut checkpoint_io: io::Result<()> = Ok(());
        std::thread::scope(|scope| {
            let (event_tx, event_rx) = mpsc::channel::<Event>();
            let mut assignment_txs: Vec<Sender<Assignment>> = Vec::with_capacity(threads);
            for _ in 0..threads {
                let (tx, rx) = mpsc::channel::<Assignment>();
                assignment_txs.push(tx);
                let events = event_tx.clone();
                let n = self.n;
                let sinks = self
                    .config
                    .live
                    .as_ref()
                    .map(|l| l.sinks.clone())
                    .unwrap_or_default();
                scope.spawn(move || worker_loop(n, sinks, rx, events));
            }
            drop(event_tx);

            // Per worker, its assigned attempts in the order it runs them.
            let mut lanes: Vec<VecDeque<InFlight>> = (0..threads)
                .map(|_| VecDeque::with_capacity(WORKER_QUEUE_DEPTH))
                .collect();
            // A worker starts an attempt once the one ahead of it has
            // reported, so the watchdog clock starts then, not at assignment.
            let arm = |f: &mut InFlight| {
                f.deadline = self.config.watchdog.map(|d| Instant::now() + f.delay + d);
            };

            loop {
                let total_settled = completed.len() + quarantined.len();
                if total_settled == items.len() {
                    break;
                }
                // Outstanding attempts never exceed what `halt_after` still
                // allows, so a halted run settles exactly `halt_after` items
                // and nothing is left running when it stops.
                let allowed = self
                    .config
                    .halt_after
                    .map_or(usize::MAX, |k| k.saturating_sub(newly_settled));
                halted = allowed == 0;
                let mut outstanding: usize = lanes.iter().map(VecDeque::len).sum();
                if halted {
                    debug_assert_eq!(outstanding, 0);
                    break;
                }
                // Top up healthy workers to the queue depth, emptiest first,
                // so every worker runs something before any gets a second
                // attempt queued. If every worker is isolated, all stay
                // eligible: the pool degrades, it never deadlocks.
                let all_isolated = health.iter().all(|h| h.is_isolated());
                while outstanding < allowed && !queue.is_empty() {
                    let Some(worker) = (0..threads)
                        .filter(|&w| {
                            lanes[w].len() < WORKER_QUEUE_DEPTH
                                && (all_isolated || !health[w].is_isolated())
                        })
                        .min_by_key(|&w| lanes[w].len())
                    else {
                        break;
                    };
                    let p = queue.pop_front().expect("queue checked non-empty");
                    let (class, seed) = items[p.item];
                    let token = CancellationToken::new();
                    let inject = hook.fault(p.item, p.attempt);
                    let mut flight = InFlight {
                        item: p.item,
                        token: token.clone(),
                        delay: p.delay,
                        deadline: None,
                    };
                    if lanes[worker].is_empty() {
                        arm(&mut flight);
                    }
                    lanes[worker].push_back(flight);
                    outstanding += 1;
                    assignment_txs[worker]
                        .send(Assignment {
                            worker,
                            item: p.item,
                            class,
                            seed,
                            delay: p.delay,
                            token,
                            inject,
                        })
                        .expect("worker outlives the supervisor scope");
                }
                if outstanding == 0 {
                    // Nothing running and nothing assignable: only possible
                    // when the queue is empty but unsettled items remain —
                    // which cannot happen, since failed attempts requeue
                    // synchronously.
                    debug_assert!(queue.is_empty());
                    break;
                }
                // Wait for the next event, or the nearest watchdog deadline.
                // Only the attempt at the front of a worker's FIFO is
                // running, so only it has a deadline.
                let now = Instant::now();
                let next_deadline = lanes
                    .iter()
                    .filter_map(|lane| lane.front()?.deadline)
                    .min()
                    .map(|d| d.saturating_duration_since(now));
                let event = match next_deadline {
                    Some(timeout) => match event_rx.recv_timeout(timeout) {
                        Ok(ev) => Some(ev),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => {
                            unreachable!("workers live for the whole scope")
                        }
                    },
                    None => Some(event_rx.recv().expect("workers live for the whole scope")),
                };
                let Some(event) = event else {
                    // Watchdog tick: cancel every expired attempt. The
                    // worker observes the token at round granularity and
                    // reports `Cancelled`; the deadline is cleared so the
                    // attempt is not cancelled twice.
                    let now = Instant::now();
                    for f in lanes.iter_mut().filter_map(VecDeque::front_mut) {
                        if f.deadline.is_some_and(|d| d <= now) {
                            f.token.cancel();
                            f.deadline = None;
                        }
                    }
                    continue;
                };
                let lane = &mut lanes[event.worker];
                let flight = lane
                    .pop_front()
                    .expect("event only from an assigned worker");
                debug_assert_eq!(flight.item, event.item);
                // The worker has started its queued attempt, if any.
                if let Some(next) = lane.front_mut() {
                    arm(next);
                }
                let attempt_no = *failures.get(&event.item).unwrap_or(&0);
                let settled_before = newly_settled;
                match event.outcome {
                    AttemptOutcome::Completed(outcome) => {
                        health[event.worker].record_success();
                        stats[event.worker].completed += 1;
                        completed.insert(event.item, *outcome);
                        // Retries are accounted when an item settles (not
                        // when it is requeued), so the counter is a pure
                        // function of per-item results: an interrupted run
                        // never double-counts the attempts an unsettled
                        // item repeats after resume.
                        retries += u64::from(attempt_no);
                        newly_settled += 1;
                    }
                    failure => {
                        let (kind, last_panic) = match failure {
                            AttemptOutcome::Panicked(msg) => {
                                stats[event.worker].panics += 1;
                                health[event.worker].record_failure();
                                ("panic", Some(msg))
                            }
                            AttemptOutcome::Cancelled => {
                                stats[event.worker].timeouts += 1;
                                health[event.worker].record_failure();
                                ("timeout", None)
                            }
                            AttemptOutcome::Transient => {
                                stats[event.worker].transients += 1;
                                // Transient failures are the *item's*
                                // weather, not the worker's fault: they
                                // do not count against worker health.
                                ("transient", None)
                            }
                            AttemptOutcome::Completed(_) => unreachable!(),
                        };
                        let n_failures = attempt_no + 1;
                        failures.insert(event.item, n_failures);
                        if self.config.backoff.allows_retry(n_failures) {
                            queue.push_back(Pending {
                                item: event.item,
                                attempt: n_failures,
                                delay: self.config.backoff.delay(n_failures - 1),
                            });
                        } else {
                            let (class, seed) = items[event.item];
                            let reason = match (kind, last_panic) {
                                ("panic", Some(msg)) => QuarantineReason::Panic(msg),
                                ("timeout", _) => QuarantineReason::Timeout,
                                _ => QuarantineReason::RetriesExhausted,
                            };
                            quarantined.push(QuarantineRecord {
                                item: event.item,
                                label: class.label(),
                                seed,
                                attempts: n_failures,
                                reason,
                            });
                            retries += u64::from(n_failures - 1);
                            newly_settled += 1;
                        }
                    }
                }
                // Live progress: one event per settled item, published only
                // when somebody is watching (one relaxed load otherwise).
                if newly_settled > settled_before {
                    if let Some(live) = &self.config.live {
                        if live.progress.has_subscribers() {
                            live.progress.publish(ProgressEvent::Settled {
                                job: live.job,
                                completed: (completed.len() + quarantined.len()) as u64,
                                total: items.len() as u64,
                                quarantined: quarantined.len() as u64,
                            });
                        }
                    }
                }
                // Periodic atomic snapshot.
                let every = self.config.checkpoint_every;
                if every > 0 && newly_settled > 0 && newly_settled.is_multiple_of(every) {
                    if let Err(e) = write_checkpoint(&completed, &quarantined, retries) {
                        checkpoint_io = Err(e);
                    }
                }
            }
            drop(assignment_txs); // workers drain and exit; scope joins them
        });
        checkpoint_io?;
        quarantined.sort_by_key(|q| q.item);
        // Final snapshot: the artifact CI uploads and resume starts from.
        write_checkpoint(&completed, &quarantined, retries)?;
        for (s, h) in stats.iter_mut().zip(&health) {
            s.isolated = h.is_isolated();
        }
        Ok(SupervisedOutcome {
            result: CampaignResult {
                outcomes: completed.into_values().collect(),
            },
            supervision: SupervisionSummary {
                quarantined,
                retries,
                workers: stats,
            },
            halted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_fault::{run_campaign, ChaosPlan, NoHarnessFaults};

    fn classes() -> Vec<ExperimentClass> {
        vec![
            ExperimentClass::Burst {
                len_slots: 1,
                start_slot: 0,
            },
            ExperimentClass::Burst {
                len_slots: 2,
                start_slot: 3,
            },
            ExperimentClass::Burst {
                len_slots: 1,
                start_slot: 2,
            },
        ]
    }

    fn campaign(classes: &[ExperimentClass], config: SupervisorConfig) -> SupervisedCampaign<'_> {
        SupervisedCampaign {
            classes,
            n: 4,
            reps: 3,
            base_seed: 42,
            config,
        }
    }

    #[test]
    fn clean_run_matches_sequential_campaign() {
        let classes = classes();
        let seq = run_campaign(&classes, 4, 3, 42);
        for threads in [1usize, 3, 8] {
            let sup = campaign(
                &classes,
                SupervisorConfig {
                    threads,
                    ..SupervisorConfig::default()
                },
            )
            .run(&NoHarnessFaults)
            .expect("no checkpoint I/O configured");
            assert_eq!(sup.result.outcomes, seq.outcomes, "{threads} threads");
            assert!(sup.supervision.clean());
            assert!(!sup.halted);
        }
    }

    #[test]
    fn persistent_panics_are_quarantined_not_fatal() {
        let classes = classes();
        let plan = ChaosPlan {
            seed: 5,
            panic_per_mille: 250,
            hang_per_mille: 0,
            transient_per_mille: 0,
            first_attempt_only: false,
        };
        let (expect_panics, _, _) = plan.expected_faults(9);
        assert!(expect_panics > 0, "plan must fault at least one item");
        let sup = campaign(&classes, SupervisorConfig::default())
            .run(&plan)
            .unwrap();
        assert_eq!(sup.supervision.quarantined.len(), expect_panics);
        assert_eq!(sup.result.total(), 9 - expect_panics);
        for q in &sup.supervision.quarantined {
            assert!(matches!(q.reason, QuarantineReason::Panic(_)), "{q:?}");
            assert_eq!(q.attempts, 1 + sup_retries_per_item());
        }
        // Healthy experiments still match the sequential reference.
        let seq = run_campaign(&classes, 4, 3, 42);
        let quarantined: Vec<usize> = sup.supervision.quarantined.iter().map(|q| q.item).collect();
        let healthy: Vec<_> = seq
            .outcomes
            .iter()
            .enumerate()
            .filter(|(i, _)| !quarantined.contains(i))
            .map(|(_, o)| o.clone())
            .collect();
        assert_eq!(sup.result.outcomes, healthy);
    }

    #[test]
    fn empty_work_lists_settle_nothing() {
        for (classes, reps) in [(Vec::new(), 3), (classes(), 0)] {
            let sup = SupervisedCampaign {
                classes: &classes,
                n: 4,
                reps,
                base_seed: 7,
                config: SupervisorConfig::default(),
            }
            .run(&NoHarnessFaults)
            .unwrap();
            assert_eq!(sup.result.total(), 0);
            assert!(sup.supervision.clean());
            assert!(!sup.halted);
        }
    }

    #[test]
    fn more_threads_than_work_items() {
        let classes = &classes()[..1];
        let seq = run_campaign(classes, 4, 1, 5);
        let sup = SupervisedCampaign {
            classes,
            n: 4,
            reps: 1,
            base_seed: 5,
            config: SupervisorConfig {
                threads: 16,
                ..SupervisorConfig::default()
            },
        }
        .run(&NoHarnessFaults)
        .unwrap();
        assert_eq!(sup.result.outcomes, seq.outcomes);
        assert!(sup.supervision.clean());
    }

    fn sup_retries_per_item() -> u32 {
        BackoffPolicy::default().max_retries
    }

    #[test]
    fn transient_faults_recover_on_retry() {
        let classes = classes();
        let plan = ChaosPlan {
            seed: 1,
            panic_per_mille: 0,
            hang_per_mille: 0,
            transient_per_mille: 300,
            first_attempt_only: true,
        };
        let (_, _, transients) = plan.expected_faults(9);
        assert!(transients > 0);
        let sup = campaign(
            &classes,
            SupervisorConfig {
                backoff: BackoffPolicy {
                    base: Duration::from_millis(1),
                    cap: Duration::from_millis(2),
                    max_retries: 2,
                },
                ..SupervisorConfig::default()
            },
        )
        .run(&plan)
        .unwrap();
        // Every transiently failed item recovered: full results, no
        // quarantine, one retry per faulted item.
        assert_eq!(sup.result.total(), 9);
        assert!(sup.supervision.quarantined.is_empty());
        assert_eq!(sup.supervision.retries, transients as u64);
        let seq = run_campaign(&classes, 4, 3, 42);
        assert_eq!(sup.result.outcomes, seq.outcomes);
    }

    #[test]
    fn hangs_are_cancelled_by_the_watchdog_and_quarantined() {
        let classes = classes();
        let plan = ChaosPlan {
            seed: 23,
            panic_per_mille: 0,
            hang_per_mille: 200,
            transient_per_mille: 0,
            first_attempt_only: false,
        };
        let (_, hangs, _) = plan.expected_faults(9);
        assert!(hangs > 0);
        // One worker queues each hang behind another attempt, so its
        // deadline must start when the attempt ahead of it reports.
        for threads in [1usize, 4] {
            let sup = campaign(
                &classes,
                SupervisorConfig {
                    threads,
                    watchdog: Some(Duration::from_millis(30)),
                    backoff: BackoffPolicy {
                        base: Duration::from_millis(1),
                        cap: Duration::from_millis(2),
                        max_retries: 1,
                    },
                    ..SupervisorConfig::default()
                },
            )
            .run(&plan)
            .unwrap();
            assert_eq!(
                sup.supervision.quarantined.len(),
                hangs,
                "{threads} threads"
            );
            for q in &sup.supervision.quarantined {
                assert_eq!(q.reason, QuarantineReason::Timeout, "{q:?}");
            }
            assert_eq!(sup.result.total(), 9 - hangs, "{threads} threads");
        }
    }

    #[test]
    fn one_worker_halt_settles_exactly_halt_after_items() {
        // The worker keeps an attempt queued behind the running one, but
        // never more than `halt_after` still allows: the halted outcome and
        // its checkpoint hold exactly k settled items.
        let classes = classes();
        let dir = std::env::temp_dir().join("tt-bench-supervised-exact-halt");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("campaign.json");
        let seq = run_campaign(&classes, 4, 3, 42);
        for k in [1usize, 2, 5] {
            let halted = campaign(
                &classes,
                SupervisorConfig {
                    threads: 1,
                    checkpoint_every: 0,
                    checkpoint_path: Some(path.clone()),
                    halt_after: Some(k),
                    ..SupervisorConfig::default()
                },
            )
            .run(&NoHarnessFaults)
            .unwrap();
            assert!(halted.halted, "halt_after {k}");
            assert_eq!(halted.result.outcomes, seq.outcomes[..k], "halt_after {k}");
            let cp: CampaignCheckpoint = tt_fault::read_json(&path).unwrap();
            assert_eq!(cp.settled().count(), k, "halt_after {k}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeatedly_failing_worker_is_isolated_and_campaign_degrades() {
        // One worker, panics everywhere, P=2: the sole worker crosses the
        // threshold but — as the last active worker — keeps draining, so
        // the campaign completes (all quarantined) instead of stalling.
        let classes = classes();
        let plan = ChaosPlan {
            seed: 1,
            panic_per_mille: 1000,
            hang_per_mille: 0,
            transient_per_mille: 0,
            first_attempt_only: false,
        };
        let sup = campaign(
            &classes,
            SupervisorConfig {
                threads: 1,
                worker_penalty_threshold: 2,
                backoff: BackoffPolicy {
                    base: Duration::ZERO,
                    cap: Duration::ZERO,
                    max_retries: 0,
                },
                ..SupervisorConfig::default()
            },
        )
        .run(&plan)
        .unwrap();
        assert_eq!(sup.supervision.quarantined.len(), 9);
        assert!(sup.result.outcomes.is_empty());
        assert!(sup.supervision.workers[0].isolated);
        assert_eq!(sup.supervision.workers[0].panics, 9);
    }

    #[test]
    fn multi_worker_pool_isolates_only_the_unhealthy_workers() {
        // Everything panics once (first attempt only); with retries the
        // campaign still completes fully, and workers that absorbed ≥ P
        // panics without enough forgiveness may be isolated — but the
        // campaign nevertheless produces every outcome.
        let classes = classes();
        let plan = ChaosPlan {
            seed: 9,
            panic_per_mille: 400,
            hang_per_mille: 0,
            transient_per_mille: 0,
            first_attempt_only: true,
        };
        let sup = campaign(
            &classes,
            SupervisorConfig {
                threads: 2,
                backoff: BackoffPolicy {
                    base: Duration::ZERO,
                    cap: Duration::ZERO,
                    max_retries: 2,
                },
                ..SupervisorConfig::default()
            },
        )
        .run(&plan)
        .unwrap();
        assert_eq!(sup.result.total(), 9, "first-attempt panics all recover");
        assert!(sup.supervision.quarantined.is_empty());
        let seq = run_campaign(&classes, 4, 3, 42);
        assert_eq!(sup.result.outcomes, seq.outcomes);
    }

    #[test]
    fn checkpoint_resume_is_byte_identical() {
        let classes = classes();
        let dir = std::env::temp_dir().join("tt-bench-supervised-resume");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("campaign.json");
        let plan = ChaosPlan {
            seed: 2,
            panic_per_mille: 150,
            hang_per_mille: 0,
            transient_per_mille: 150,
            first_attempt_only: false,
        };
        let config = SupervisorConfig {
            threads: 3,
            backoff: BackoffPolicy {
                base: Duration::from_millis(1),
                cap: Duration::from_millis(2),
                max_retries: 1,
            },
            checkpoint_every: 2,
            checkpoint_path: Some(path.clone()),
            ..SupervisorConfig::default()
        };
        let uninterrupted = campaign(
            &classes,
            SupervisorConfig {
                checkpoint_path: None,
                ..config.clone()
            },
        )
        .run(&plan)
        .unwrap();
        // Interrupt after 4 settled experiments, then resume from disk.
        let halted = campaign(
            &classes,
            SupervisorConfig {
                halt_after: Some(4),
                ..config.clone()
            },
        )
        .run(&plan)
        .unwrap();
        assert!(halted.halted);
        let cp: CampaignCheckpoint = tt_fault::read_json(&path).unwrap();
        assert!(cp.settled().count() >= 4);
        let resumed = campaign(&classes, config).run_resumed(&plan, &cp).unwrap();
        assert!(!resumed.halted);
        assert_eq!(resumed.result.outcomes, uninterrupted.result.outcomes);
        assert_eq!(
            resumed.supervision.quarantined,
            uninterrupted.supervision.quarantined
        );
        assert_eq!(
            resumed.supervision.retries,
            uninterrupted.supervision.retries
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_checkpoint_is_rejected() {
        let classes = classes();
        let cp = CampaignCheckpoint::new(&classes, 4, 3, 41); // wrong seed
        let err = campaign(&classes, SupervisorConfig::default())
            .run_resumed(&NoHarnessFaults, &cp)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
