//! Parallel campaign execution on a persistent, lock-free worker pool.
//!
//! Each experiment is an independent, seeded simulation, so campaigns
//! parallelize embarrassingly. [`CampaignExecutor`] keeps its worker
//! threads alive across campaigns, so sweeps that issue many campaigns
//! back to back do not pay a thread spawn/join per call.
//! Work distribution is chunked and lock-free: workers claim contiguous
//! chunks of the deterministic work list with a single `fetch_add` on an
//! atomic cursor, run each chunk's experiments into a chunk-local `Vec`,
//! and hand finished chunks back over an `mpsc` channel — no mutex is
//! taken anywhere on the work or result path. The submitting thread
//! reassembles chunks by index, so the outcome order is bit-identical to
//! the sequential [`tt_fault::run_campaign`] regardless of thread count or
//! scheduling.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

use tt_fault::{
    experiment_seed, quarantined_outcome, run_experiment, CampaignResult, ChaosPlan,
    ExperimentClass, ExperimentOutcome, HarnessFault,
};

/// One campaign submitted to the pool: the deterministic work list plus the
/// lock-free chunk cursor and the channel finished chunks go back on.
struct CampaignWork {
    /// `(class, seed)` in sequential-campaign order.
    items: Vec<(ExperimentClass, u64)>,
    /// Cluster size.
    n: usize,
    /// Work-list chunking (contiguous, disjoint ranges covering `items`).
    chunks: Vec<Range<usize>>,
    /// Index of the next unclaimed chunk.
    next_chunk: AtomicUsize,
    /// Finished chunks, tagged with their chunk index.
    results: Sender<(usize, Vec<ExperimentOutcome>)>,
    /// Harness-fault plan injected into the run (tests, chaos CI job).
    chaos: Option<ChaosPlan>,
}

/// Runs one experiment under `catch_unwind`, so a panicking experiment
/// becomes a quarantine-marked failed outcome (seed preserved for local
/// reproduction) instead of killing the worker thread — which would leave
/// the submitting thread waiting forever on a chunk that never arrives.
fn run_quarantining(
    class: ExperimentClass,
    n: usize,
    seed: u64,
    chaos: Option<&ChaosPlan>,
    item: usize,
) -> ExperimentOutcome {
    let result = catch_unwind(AssertUnwindSafe(|| {
        // The basic pool has no watchdog or retry machinery, so only
        // panics are injectable here; hangs and transients need the
        // supervised executor.
        if chaos.and_then(|p| p.fault_for_item(item)) == Some(HarnessFault::Panic) {
            panic!("injected harness panic");
        }
        run_experiment(class, n, seed)
    }));
    result.unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        quarantined_outcome(class, seed, &msg)
    })
}

fn worker_loop(jobs: Receiver<Arc<CampaignWork>>) {
    while let Ok(work) = jobs.recv() {
        loop {
            let c = work.next_chunk.fetch_add(1, Ordering::Relaxed);
            let Some(range) = work.chunks.get(c) else {
                break;
            };
            let outcomes: Vec<ExperimentOutcome> = work.items[range.clone()]
                .iter()
                .enumerate()
                .map(|(off, &(class, seed))| {
                    run_quarantining(class, work.n, seed, work.chaos.as_ref(), range.start + off)
                })
                .collect();
            // The submitter may have been dropped (e.g. on panic); a closed
            // channel just means nobody wants the chunk any more.
            let _ = work.results.send((c, outcomes));
        }
    }
}

/// A persistent pool of campaign worker threads.
///
/// Workers are spawned once and reused for every campaign submitted via
/// [`CampaignExecutor::run`]; they sleep on a channel between campaigns.
/// Results are identical (including ordering) to the sequential
/// [`tt_fault::run_campaign`] with the same seeds.
pub struct CampaignExecutor {
    senders: Vec<Sender<Arc<CampaignWork>>>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for CampaignExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignExecutor")
            .field("threads", &self.handles.len())
            .finish()
    }
}

impl CampaignExecutor {
    /// Spawns a pool with `threads.max(1)` persistent workers.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let (tx, rx) = mpsc::channel();
            senders.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("campaign-worker-{i}"))
                    .spawn(move || worker_loop(rx))
                    .expect("spawn campaign worker"),
            );
        }
        CampaignExecutor { senders, handles }
    }

    /// Number of worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Runs `reps` seeded repetitions of each class on the pool and returns
    /// the outcomes in sequential-campaign order.
    pub fn run(
        &self,
        classes: &[ExperimentClass],
        n: usize,
        reps: u64,
        base_seed: u64,
    ) -> CampaignResult {
        self.run_with_chaos(classes, n, reps, base_seed, None)
    }

    /// Like [`CampaignExecutor::run`], with an optional [`ChaosPlan`]
    /// injecting panics into the marked work items. Panicking experiments
    /// come back as quarantine-marked failed outcomes (in their normal
    /// work-list position); the pool itself is never poisoned and stays
    /// usable for subsequent campaigns.
    pub fn run_with_chaos(
        &self,
        classes: &[ExperimentClass],
        n: usize,
        reps: u64,
        base_seed: u64,
        chaos: Option<ChaosPlan>,
    ) -> CampaignResult {
        let items: Vec<(ExperimentClass, u64)> = classes
            .iter()
            .enumerate()
            .flat_map(|(ci, &class)| {
                (0..reps).map(move |rep| (class, experiment_seed(base_seed, ci, rep)))
            })
            .collect();
        if items.is_empty() {
            return CampaignResult::default();
        }
        // Small chunks keep long-tailed experiments balanced across
        // workers; chunking only groups sends, it cannot change the
        // reassembled order.
        let chunk_size = items.len().div_ceil(self.threads() * 4).max(1);
        let chunks: Vec<Range<usize>> = (0..items.len())
            .step_by(chunk_size)
            .map(|lo| lo..(lo + chunk_size).min(items.len()))
            .collect();
        let n_chunks = chunks.len();
        let (results, collected) = mpsc::channel();
        let work = Arc::new(CampaignWork {
            items,
            n,
            chunks,
            next_chunk: AtomicUsize::new(0),
            results,
            chaos,
        });
        for sender in &self.senders {
            sender
                .send(Arc::clone(&work))
                .expect("campaign worker exited unexpectedly");
        }
        drop(work);
        let mut slots: Vec<Option<Vec<ExperimentOutcome>>> = vec![None; n_chunks];
        for _ in 0..n_chunks {
            let (idx, outcomes) = collected.recv().expect("campaign worker panicked");
            slots[idx] = Some(outcomes);
        }
        CampaignResult {
            outcomes: slots
                .into_iter()
                .flat_map(|c| c.expect("every chunk index reported once"))
                .collect(),
        }
    }
}

impl Drop for CampaignExecutor {
    fn drop(&mut self) {
        // Closing the job channels wakes the workers out of `recv`.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Process-wide executor cache, keyed by thread count, so repeated
/// campaigns (sensitivity sweeps, tuning matrices) reuse one warm pool
/// instead of spawning threads per call.
fn shared_executor(threads: usize) -> Arc<CampaignExecutor> {
    type PoolRegistry = Mutex<Vec<(usize, Arc<CampaignExecutor>)>>;
    static POOLS: OnceLock<PoolRegistry> = OnceLock::new();
    let registry = POOLS.get_or_init(|| Mutex::new(Vec::new()));
    let mut pools = registry.lock().expect("executor registry poisoned");
    if let Some((_, executor)) = pools.iter().find(|(t, _)| *t == threads) {
        return Arc::clone(executor);
    }
    let executor = Arc::new(CampaignExecutor::new(threads));
    pools.push((threads, Arc::clone(&executor)));
    executor
}

/// Runs `reps` seeded repetitions of each class across `threads` worker
/// threads. The result is identical (including ordering) to the sequential
/// [`tt_fault::run_campaign`] with the same seeds.
///
/// Pools are cached per thread count and reused across calls; use
/// [`CampaignExecutor`] directly for explicit pool lifetime control.
pub fn run_parallel_campaign(
    classes: &[ExperimentClass],
    n: usize,
    reps: u64,
    base_seed: u64,
    threads: usize,
) -> CampaignResult {
    shared_executor(threads.max(1)).run(classes, n, reps, base_seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_fault::run_campaign;

    fn burst(len_slots: u64, start_slot: usize) -> ExperimentClass {
        ExperimentClass::Burst {
            len_slots,
            start_slot,
        }
    }

    #[test]
    fn parallel_matches_sequential_across_thread_counts() {
        // Uneven work list: three classes, five reps — does not divide
        // evenly into chunks for any of the pool sizes below.
        let classes = [burst(1, 0), burst(2, 3), burst(1, 2)];
        let seq = run_campaign(&classes, 4, 5, 42);
        for threads in [1usize, 2, 7, 16] {
            let par = run_parallel_campaign(&classes, 4, 5, 42, threads);
            assert_eq!(seq.outcomes, par.outcomes, "{threads} threads");
            assert!(par.all_passed());
        }
    }

    #[test]
    fn single_thread_degenerate_case() {
        let classes = [burst(1, 1)];
        let r = run_parallel_campaign(&classes, 4, 2, 7, 1);
        assert_eq!(r.total(), 2);
    }

    #[test]
    fn empty_classes_and_zero_reps() {
        assert_eq!(run_parallel_campaign(&[], 4, 3, 7, 4).total(), 0);
        assert_eq!(run_parallel_campaign(&[burst(1, 0)], 4, 0, 7, 4).total(), 0);
    }

    #[test]
    fn pool_survives_repeated_campaigns() {
        let executor = CampaignExecutor::new(3);
        let classes = [burst(1, 0), burst(2, 1)];
        let seq = run_campaign(&classes, 4, 2, 11);
        for _ in 0..4 {
            let par = executor.run(&classes, 4, 2, 11);
            assert_eq!(seq.outcomes, par.outcomes);
        }
        assert_eq!(executor.threads(), 3);
    }

    #[test]
    fn panicking_experiments_are_quarantined_without_poisoning_the_pool() {
        let executor = CampaignExecutor::new(3);
        let classes = [burst(1, 0), burst(2, 3), burst(1, 2)];
        let plan = ChaosPlan {
            seed: 5,
            panic_per_mille: 300,
            hang_per_mille: 0,
            transient_per_mille: 0,
            first_attempt_only: false,
        };
        let (panics, _, _) = plan.expected_faults(3 * 5);
        assert!(panics > 0, "plan must panic at least one item");
        let chaotic = executor.run_with_chaos(&classes, 4, 5, 42, Some(plan));
        assert_eq!(chaotic.total(), 15, "every item reports an outcome");
        let seq = run_campaign(&classes, 4, 5, 42);
        let mut quarantined = 0;
        for (i, (got, want)) in chaotic.outcomes.iter().zip(&seq.outcomes).enumerate() {
            if plan.fault_for_item(i).is_some() {
                quarantined += 1;
                assert!(!got.passed);
                assert!(
                    got.notes
                        .iter()
                        .any(|n| n.starts_with("quarantined: panic")),
                    "{:?}",
                    got.notes
                );
                assert_eq!(got.seed, want.seed, "reproduction seed preserved");
            } else {
                assert_eq!(got, want, "healthy item {i} unaffected");
            }
        }
        assert_eq!(quarantined, panics);
        // The pool keeps draining: a follow-up clean campaign on the same
        // executor is bit-identical to the sequential reference.
        let clean = executor.run(&classes, 4, 5, 42);
        assert_eq!(clean.outcomes, seq.outcomes);
    }

    #[test]
    fn more_threads_than_work_items() {
        let classes = [burst(1, 0)];
        let seq = run_campaign(&classes, 4, 1, 5);
        let par = run_parallel_campaign(&classes, 4, 1, 5, 16);
        assert_eq!(seq.outcomes, par.outcomes);
    }
}
