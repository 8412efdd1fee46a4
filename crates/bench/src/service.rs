//! The long-lived diagnosis job service behind `ttdiag serve`.
//!
//! A [`DiagService`] owns the three live feed hubs (`metrics`, `spans`,
//! `progress`), a state directory of per-job checkpoints, and one executor
//! thread that drains a job queue. Jobs are the three campaign-scale
//! workloads the CLI already runs in batch mode — the Sec. 8 validation
//! [`JobSpec::Campaign`], the coverage-guided [`JobSpec::Explore`], and
//! the Sec. 9 Monte Carlo [`JobSpec::TuneSweep`] — executed **in chunks**
//! on the existing supervised machinery with a checkpoint written after
//! every chunk, so any job can be halted over the admin socket and later
//! resumed byte-identically from its checkpoint.
//!
//! Liveness contract: the executor publishes [`ProgressEvent`]s (started /
//! per-settle / per-chunk / halted / finished) to the progress hub, and
//! campaign experiment clusters run with the streaming metrics/trace sinks
//! attached — all behind the `StreamHub` zero-subscriber fast path, so an
//! unobserved service pays nothing on the simulation hot path. Explore and
//! tune-sweep jobs execute on the batched lockstep engine and therefore
//! feed the progress stream only.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use tt_analysis::{resume_sweep, run_sweep, SweepConfig, SweepSupervisor};
use tt_core::syndrome::MAX_SYNDROME_NODES;
use tt_fault::{
    no_extra_oracle, read_json, sec8_classes, write_json_atomic, CampaignCheckpoint,
    ExperimentSinks, ExploreCheckpoint, ExploreConfig, Explorer, NoHarnessFaults,
};
use tt_sim::{
    MetricsEvent, ProgressEvent, SpanEvent, StreamHub, StreamingSink, StreamingTraceSink,
};

use crate::observability::HostFingerprint;
use crate::supervised::{LiveFeeds, SupervisedCampaign, SupervisorConfig};

/// The three live feed hubs of one service instance.
#[derive(Debug, Clone, Default)]
pub struct FeedHubs {
    /// `MetricsEvent` feed (campaign experiment clusters).
    pub metrics: Arc<StreamHub<MetricsEvent>>,
    /// `SpanEvent` provenance feed (campaign experiment clusters).
    pub spans: Arc<StreamHub<SpanEvent>>,
    /// `ProgressEvent` job-lifecycle feed (all job kinds).
    pub progress: Arc<StreamHub<ProgressEvent>>,
}

impl FeedHubs {
    /// Fresh hubs with no subscribers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One job accepted over the admin socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobSpec {
    /// The Sec. 8 validation campaign on the supervised executor.
    Campaign {
        /// Cluster size (≥ 4).
        nodes: usize,
        /// Seeded repetitions per experiment class.
        reps: u64,
        /// Base seed (per-item seeds derive deterministically).
        base_seed: u64,
        /// Worker threads.
        threads: usize,
        /// Experiments settled per chunk (checkpoint + halt granularity).
        chunk: u64,
        /// Halt once, at the first chunk boundary with at least this many
        /// experiments settled (absent in requests from older clients).
        #[serde(default)]
        halt_after: Option<u64>,
    },
    /// The coverage-guided fault-scenario explorer.
    Explore {
        /// Cluster size (≥ 4).
        nodes: usize,
        /// Rounds per schedule execution.
        rounds: u64,
        /// Schedule executions to spend.
        budget: u64,
        /// Generator/mutator seed.
        seed: u64,
        /// Schedules executed per chunk.
        chunk: u64,
        /// Halt once, at the first chunk boundary with at least this many
        /// schedules executed (absent in requests from older clients).
        #[serde(default)]
        halt_after: Option<u64>,
    },
    /// The pinned small Sec. 9 tuning grid (the default [`SweepConfig`]).
    TuneSweep {
        /// Sweep cells completed per chunk.
        chunk: u64,
    },
}

impl JobSpec {
    /// A short stable label for the job kind.
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Campaign { .. } => "campaign",
            JobSpec::Explore { .. } => "explore",
            JobSpec::TuneSweep { .. } => "tune-sweep",
        }
    }

    /// Total work items: experiments, schedule executions, or sweep cells.
    pub fn total(&self) -> u64 {
        match *self {
            JobSpec::Campaign { nodes, reps, .. } => sec8_classes(nodes).len() as u64 * reps,
            JobSpec::Explore { budget, .. } => budget,
            JobSpec::TuneSweep { .. } => SweepConfig::default().cells().len() as u64,
        }
    }

    /// The settled-item count at which the job halts once by itself, if
    /// any (campaign and explore jobs).
    pub fn halt_after(&self) -> Option<u64> {
        match *self {
            JobSpec::Campaign { halt_after, .. } | JobSpec::Explore { halt_after, .. } => {
                halt_after
            }
            JobSpec::TuneSweep { .. } => None,
        }
    }

    /// Validates the spec (usage errors, reported before queueing).
    pub fn validate(&self) -> Result<(), String> {
        if self.halt_after() == Some(0) {
            return Err("halt_after must be >= 1".into());
        }
        let chunk = match *self {
            JobSpec::Campaign {
                nodes, reps, chunk, ..
            } => {
                if !(4..=MAX_SYNDROME_NODES).contains(&nodes) {
                    return Err(format!(
                        "campaign needs 4..={MAX_SYNDROME_NODES} nodes, got {nodes}"
                    ));
                }
                if reps == 0 {
                    return Err("campaign needs reps >= 1".into());
                }
                chunk
            }
            JobSpec::Explore {
                nodes,
                rounds,
                budget,
                seed,
                chunk,
                ..
            } => {
                explore_config(nodes, rounds, budget, seed).validate()?;
                chunk
            }
            JobSpec::TuneSweep { chunk } => chunk,
        };
        if chunk == 0 {
            return Err("chunk must be >= 1".into());
        }
        Ok(())
    }
}

/// The explorer session an explore job runs (the default thresholds,
/// fault count and strategy).
fn explore_config(nodes: usize, rounds: u64, budget: u64, seed: u64) -> ExploreConfig {
    ExploreConfig {
        n: nodes,
        rounds,
        budget,
        seed,
        ..ExploreConfig::default()
    }
}

/// Job lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Accepted, waiting for the executor.
    Queued,
    /// Currently executing.
    Running,
    /// Stopped at a halt request; resumable from its checkpoint.
    Halted,
    /// Ran to completion.
    Done,
    /// Terminal executor error (I/O, bad checkpoint).
    Failed,
}

impl JobState {
    /// A short stable label.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Halted => "halted",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// A snapshot of one job, as returned by submit/status responses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    /// Service-assigned job id (monotone from 1).
    pub id: u64,
    /// Job kind label (`campaign`, `explore`, `tune-sweep`).
    pub kind: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Work items settled so far (including quarantined ones).
    pub completed: u64,
    /// Total work items.
    pub total: u64,
    /// Items quarantined so far (campaign jobs).
    pub quarantined: u64,
    /// Checkpoints written for this job so far — the checkpoint sequence
    /// number live throughput numbers can be attributed to.
    pub checkpoint_seq: u64,
    /// Whether a halt was requested and not yet honored.
    pub halt_requested: bool,
    /// Whether every settled item passed its oracle so far.
    pub passed: bool,
    /// Human-readable detail (summary or error), filled when terminal.
    pub detail: String,
}

struct JobRecord {
    spec: JobSpec,
    status: JobStatus,
    halt: Arc<AtomicBool>,
}

struct ServiceState {
    next_id: u64,
    jobs: BTreeMap<u64, JobRecord>,
    queue: VecDeque<u64>,
    shutdown: bool,
}

/// The long-lived job service: feed hubs + job table + one executor
/// thread. Create with [`DiagService::start`]; share via `Arc`.
pub struct DiagService {
    hubs: FeedHubs,
    host: HostFingerprint,
    state_dir: PathBuf,
    state: Mutex<ServiceState>,
    wake: Condvar,
    executor: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for DiagService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiagService")
            .field("state_dir", &self.state_dir)
            .finish_non_exhaustive()
    }
}

impl DiagService {
    /// Creates the state directory, starts the executor thread and returns
    /// the shared service handle.
    ///
    /// # Errors
    ///
    /// Fails if the state directory cannot be created.
    pub fn start(state_dir: &Path) -> io::Result<Arc<DiagService>> {
        std::fs::create_dir_all(state_dir)?;
        let service = Arc::new(DiagService {
            hubs: FeedHubs::new(),
            host: HostFingerprint::detect(),
            state_dir: state_dir.to_path_buf(),
            state: Mutex::new(ServiceState {
                next_id: 1,
                jobs: BTreeMap::new(),
                queue: VecDeque::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
            executor: Mutex::new(None),
        });
        let worker = Arc::clone(&service);
        let handle = std::thread::Builder::new()
            .name("ttdiag-executor".into())
            .spawn(move || worker.executor_loop())?;
        *service.executor.lock().expect("executor slot") = Some(handle);
        Ok(service)
    }

    /// The live feed hubs.
    pub fn hubs(&self) -> &FeedHubs {
        &self.hubs
    }

    /// The serving host's fingerprint (reported in submit/status
    /// responses so clients can attribute throughput numbers).
    pub fn host(&self) -> &HostFingerprint {
        &self.host
    }

    /// Queues a job and returns its initial status.
    ///
    /// # Errors
    ///
    /// Rejects invalid specs and submissions after shutdown began.
    pub fn submit(&self, spec: JobSpec) -> Result<JobStatus, String> {
        spec.validate()?;
        let mut state = self.lock();
        if state.shutdown {
            return Err("service is shutting down".into());
        }
        let id = state.next_id;
        state.next_id += 1;
        let status = JobStatus {
            id,
            kind: spec.kind().to_string(),
            state: JobState::Queued,
            completed: 0,
            total: spec.total(),
            quarantined: 0,
            checkpoint_seq: 0,
            halt_requested: false,
            passed: true,
            detail: String::new(),
        };
        state.jobs.insert(
            id,
            JobRecord {
                spec,
                status: status.clone(),
                halt: Arc::new(AtomicBool::new(false)),
            },
        );
        state.queue.push_back(id);
        drop(state);
        self.wake.notify_all();
        Ok(status)
    }

    /// The current status of a job.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        self.lock().jobs.get(&id).map(|r| r.status.clone())
    }

    /// Status of every known job, in id order.
    pub fn list(&self) -> Vec<JobStatus> {
        self.lock()
            .jobs
            .values()
            .map(|r| r.status.clone())
            .collect()
    }

    /// Requests a halt: a queued job halts immediately; a running job
    /// stops at its next chunk boundary (with a resumable checkpoint).
    ///
    /// # Errors
    ///
    /// Fails for unknown job ids and terminal jobs.
    pub fn halt(&self, id: u64) -> Result<JobStatus, String> {
        let mut state = self.lock();
        let record = state.jobs.get_mut(&id).ok_or(format!("unknown job {id}"))?;
        match record.status.state {
            JobState::Queued => {
                record.status.state = JobState::Halted;
                record.status.halt_requested = false;
                let status = record.status.clone();
                state.queue.retain(|&q| q != id);
                Ok(status)
            }
            JobState::Running => {
                record.halt.store(true, Ordering::Relaxed);
                record.status.halt_requested = true;
                Ok(record.status.clone())
            }
            terminal => Err(format!("job {id} is {} already", terminal.label())),
        }
    }

    /// Requeues a halted job; it resumes from its last checkpoint.
    ///
    /// # Errors
    ///
    /// Fails for unknown job ids and jobs not in the halted state.
    pub fn resume(&self, id: u64) -> Result<JobStatus, String> {
        let mut state = self.lock();
        if state.shutdown {
            return Err("service is shutting down".into());
        }
        let record = state.jobs.get_mut(&id).ok_or(format!("unknown job {id}"))?;
        if record.status.state != JobState::Halted {
            return Err(format!(
                "job {id} is {}, only halted jobs resume",
                record.status.state.label()
            ));
        }
        record.halt.store(false, Ordering::Relaxed);
        record.status.state = JobState::Queued;
        record.status.halt_requested = false;
        let status = record.status.clone();
        state.queue.push_back(id);
        drop(state);
        self.wake.notify_all();
        Ok(status)
    }

    /// Begins shutdown: no new submissions, queued jobs are parked as
    /// halted, a running job is asked to halt at its chunk boundary.
    pub fn begin_shutdown(&self) {
        let mut state = self.lock();
        state.shutdown = true;
        while let Some(id) = state.queue.pop_front() {
            if let Some(r) = state.jobs.get_mut(&id) {
                r.status.state = JobState::Halted;
            }
        }
        for r in state.jobs.values_mut() {
            if r.status.state == JobState::Running {
                r.halt.store(true, Ordering::Relaxed);
                r.status.halt_requested = true;
            }
        }
        drop(state);
        self.wake.notify_all();
    }

    /// Begins shutdown and joins the executor thread.
    pub fn shutdown_wait(&self) {
        self.begin_shutdown();
        let handle = self.executor.lock().expect("executor slot").take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    /// The checkpoint path of job `id` inside the state directory.
    pub fn checkpoint_path(&self, id: u64) -> PathBuf {
        self.state_dir.join(format!("job-{id}.checkpoint.json"))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ServiceState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    // ------------------------------------------------------- executor side

    fn executor_loop(self: Arc<Self>) {
        loop {
            let job = {
                let mut state = self.lock();
                loop {
                    if let Some(id) = state.queue.pop_front() {
                        break Some(id);
                    }
                    if state.shutdown {
                        break None;
                    }
                    state = match self.wake.wait_timeout(state, Duration::from_millis(200)) {
                        Ok((g, _)) => g,
                        Err(poisoned) => poisoned.into_inner().0,
                    };
                }
            };
            let Some(id) = job else { return };
            self.run_job(id);
        }
    }

    /// Marks the job running and returns what the executor needs.
    fn job_setup(&self, id: u64) -> Option<(JobSpec, Arc<AtomicBool>, u64)> {
        let mut state = self.lock();
        let record = state.jobs.get_mut(&id)?;
        if record.status.state != JobState::Queued {
            return None; // halted while queued
        }
        record.status.state = JobState::Running;
        Some((
            record.spec,
            Arc::clone(&record.halt),
            record.status.completed,
        ))
    }

    fn update_status(&self, id: u64, f: impl FnOnce(&mut JobStatus)) {
        let mut state = self.lock();
        if let Some(record) = state.jobs.get_mut(&id) {
            f(&mut record.status);
        }
    }

    fn publish_progress(&self, event: ProgressEvent) {
        self.hubs.progress.publish(event);
    }

    fn run_job(self: &Arc<Self>, id: u64) {
        let Some((spec, halt, resumed_from)) = self.job_setup(id) else {
            return;
        };
        self.publish_progress(ProgressEvent::JobStarted {
            job: id,
            kind: spec.kind().to_string(),
            total: spec.total(),
            resumed_from,
        });
        // A job resumed at or past its `halt_after` point has halted there
        // once already and now runs to the end.
        let halt_at = spec.halt_after().filter(|&h| resumed_from < h);
        let result = match spec {
            JobSpec::Campaign { .. } => self.run_campaign_job(id, &spec, &halt, halt_at),
            JobSpec::Explore { .. } => self.run_explore_job(id, &spec, &halt, halt_at),
            JobSpec::TuneSweep { chunk } => self.run_sweep_job(id, chunk, &halt),
        };
        match result {
            Ok(ChunkedEnd::Halted) => {
                let status = self.status(id).expect("running job is known");
                self.update_status(id, |s| {
                    s.state = JobState::Halted;
                    s.halt_requested = false;
                });
                self.publish_progress(ProgressEvent::Halted {
                    job: id,
                    completed: status.completed,
                    checkpoint_seq: status.checkpoint_seq,
                });
            }
            Ok(ChunkedEnd::Finished { passed, detail }) => {
                self.update_status(id, |s| {
                    s.state = JobState::Done;
                    s.passed = s.passed && passed;
                    s.detail = detail;
                });
                let status = self.status(id).expect("running job is known");
                self.publish_progress(ProgressEvent::JobFinished {
                    job: id,
                    completed: status.completed,
                    total: status.total,
                    quarantined: status.quarantined,
                    passed: status.passed,
                });
            }
            Err(e) => {
                self.update_status(id, |s| {
                    s.state = JobState::Failed;
                    s.passed = false;
                    s.detail = e.to_string();
                });
                let status = self.status(id).expect("running job is known");
                self.publish_progress(ProgressEvent::JobFinished {
                    job: id,
                    completed: status.completed,
                    total: status.total,
                    quarantined: status.quarantined,
                    passed: false,
                });
            }
        }
    }

    /// Records one finished chunk: bumps the checkpoint sequence, updates
    /// the job table, and publishes the per-chunk progress event.
    fn finish_chunk(&self, id: u64, completed: u64, total: u64, quarantined: u64, secs: f64) {
        let mut checkpoint_seq = 0;
        let mut settled_before = 0;
        self.update_status(id, |s| {
            settled_before = s.completed;
            s.checkpoint_seq += 1;
            s.completed = completed;
            s.quarantined = quarantined;
            checkpoint_seq = s.checkpoint_seq;
        });
        let items_per_sec = if secs > 0.0 {
            (completed.saturating_sub(settled_before)) as f64 / secs
        } else {
            0.0
        };
        self.publish_progress(ProgressEvent::Chunk {
            job: id,
            completed,
            total,
            quarantined,
            checkpoint_seq,
            items_per_sec,
        });
    }

    fn run_campaign_job(
        self: &Arc<Self>,
        id: u64,
        spec: &JobSpec,
        halt: &AtomicBool,
        halt_at: Option<u64>,
    ) -> io::Result<ChunkedEnd> {
        let JobSpec::Campaign {
            nodes,
            reps,
            base_seed,
            threads,
            chunk,
            ..
        } = *spec
        else {
            unreachable!("dispatched on the Campaign variant");
        };
        let classes = sec8_classes(nodes);
        let total = classes.len() as u64 * reps;
        let checkpoint_path = self.checkpoint_path(id);
        let live = LiveFeeds {
            job: id,
            sinks: ExperimentSinks {
                metrics: Arc::new(StreamingSink::new(Arc::clone(&self.hubs.metrics))),
                trace: Arc::new(StreamingTraceSink::new(Arc::clone(&self.hubs.spans))),
            },
            progress: Arc::clone(&self.hubs.progress),
        };
        loop {
            let campaign = SupervisedCampaign {
                classes: &classes,
                n: nodes,
                reps,
                base_seed,
                config: SupervisorConfig {
                    threads: threads.max(1),
                    checkpoint_every: 0,
                    checkpoint_path: Some(checkpoint_path.clone()),
                    halt_after: Some(chunk as usize),
                    live: Some(live.clone()),
                    ..SupervisorConfig::default()
                },
            };
            let started = Instant::now();
            let outcome = if checkpoint_path.exists() {
                let cp: CampaignCheckpoint = read_json(&checkpoint_path)?;
                campaign.run_resumed(&NoHarnessFaults, &cp)?
            } else {
                campaign.run(&NoHarnessFaults)?
            };
            let quarantined = outcome.supervision.quarantined.len() as u64;
            let settled = outcome.result.outcomes.len() as u64 + quarantined;
            let passed = outcome.result.outcomes.iter().all(|o| o.passed) && quarantined == 0;
            if !passed {
                self.update_status(id, |s| s.passed = false);
            }
            self.finish_chunk(
                id,
                settled,
                total,
                quarantined,
                started.elapsed().as_secs_f64(),
            );
            if !outcome.halted {
                return Ok(ChunkedEnd::Finished {
                    passed,
                    detail: format!(
                        "{} completed, {} quarantined, {} retries",
                        outcome.result.outcomes.len(),
                        quarantined,
                        outcome.supervision.retries
                    ),
                });
            }
            if halt.load(Ordering::Relaxed) || halt_at.is_some_and(|h| settled >= h) {
                return Ok(ChunkedEnd::Halted);
            }
        }
    }

    fn run_explore_job(
        self: &Arc<Self>,
        id: u64,
        spec: &JobSpec,
        halt: &AtomicBool,
        halt_at: Option<u64>,
    ) -> io::Result<ChunkedEnd> {
        let JobSpec::Explore {
            nodes,
            rounds,
            budget,
            seed,
            chunk,
            ..
        } = *spec
        else {
            unreachable!("dispatched on the Explore variant");
        };
        let cfg = explore_config(nodes, rounds, budget, seed);
        let checkpoint_path = self.checkpoint_path(id);
        let mut session = if checkpoint_path.exists() {
            let cp: ExploreCheckpoint = read_json(&checkpoint_path)?;
            Explorer::from_checkpoint(&cp)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        } else {
            Explorer::new(&cfg, &[])
        };
        let total = budget;
        loop {
            let started = Instant::now();
            let mut stepped = 0;
            while stepped < chunk && session.step(&no_extra_oracle) {
                stepped += 1;
                let executed = session.executed();
                let hub = &self.hubs.progress;
                if hub.has_subscribers() {
                    hub.publish(ProgressEvent::Settled {
                        job: id,
                        completed: executed,
                        total,
                        quarantined: 0,
                    });
                }
            }
            write_json_atomic(&checkpoint_path, &session.checkpoint())?;
            self.finish_chunk(
                id,
                session.executed(),
                total,
                0,
                started.elapsed().as_secs_f64(),
            );
            if session.done() {
                let report = session.into_report();
                let passed = report.counterexamples.is_empty();
                return Ok(ChunkedEnd::Finished {
                    passed,
                    detail: format!(
                        "{} executed, {} unique states, {} counterexamples",
                        report.executed,
                        report.unique_states,
                        report.counterexamples.len()
                    ),
                });
            }
            if halt.load(Ordering::Relaxed) || halt_at.is_some_and(|h| session.executed() >= h) {
                return Ok(ChunkedEnd::Halted);
            }
        }
    }

    fn run_sweep_job(
        self: &Arc<Self>,
        id: u64,
        chunk: u64,
        halt: &AtomicBool,
    ) -> io::Result<ChunkedEnd> {
        let config = SweepConfig::default();
        let checkpoint_path = self.checkpoint_path(id);
        loop {
            let supervisor = SweepSupervisor {
                checkpoint_path: Some(checkpoint_path.clone()),
                halt_after_cells: Some(chunk),
            };
            let started = Instant::now();
            let outcome = if checkpoint_path.exists() {
                let cp = read_json(&checkpoint_path)?;
                resume_sweep(cp, &supervisor)?
            } else {
                run_sweep(&config, &supervisor)?
            };
            let completed = outcome.report.cells.len() as u64;
            self.finish_chunk(
                id,
                completed,
                outcome.total_cells as u64,
                0,
                started.elapsed().as_secs_f64(),
            );
            if !outcome.halted {
                return Ok(ChunkedEnd::Finished {
                    passed: true,
                    detail: format!("{completed} cells"),
                });
            }
            if halt.load(Ordering::Relaxed) {
                return Ok(ChunkedEnd::Halted);
            }
        }
    }
}

/// How a chunked job execution ended.
enum ChunkedEnd {
    /// Stopped at a halt request with a fresh checkpoint on disk.
    Halted,
    /// Ran out of work.
    Finished {
        /// Whether every item passed.
        passed: bool,
        /// Human-readable summary for the job table.
        detail: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ttdiag-service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn wait_state(service: &DiagService, id: u64, want: JobState, timeout: Duration) -> JobStatus {
        let deadline = Instant::now() + timeout;
        loop {
            let status = service.status(id).expect("job exists");
            if status.state == want {
                return status;
            }
            assert!(
                Instant::now() < deadline,
                "timed out waiting for {want:?}, last {status:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn validate_bounds_cluster_size_to_a_syndrome_word() {
        let campaign = |nodes| JobSpec::Campaign {
            nodes,
            reps: 1,
            base_seed: 0,
            threads: 1,
            chunk: 1,
            halt_after: None,
        };
        let explore = |nodes| JobSpec::Explore {
            nodes,
            rounds: 24,
            budget: 1,
            seed: 0,
            chunk: 1,
            halt_after: None,
        };
        for spec in [campaign(4), campaign(64), explore(4), explore(64)] {
            assert_eq!(spec.validate(), Ok(()), "{spec:?}");
        }
        for spec in [campaign(3), campaign(65), explore(3), explore(65)] {
            let err = spec.validate().unwrap_err();
            assert!(err.contains("4..=64 nodes"), "{spec:?}: {err}");
        }
    }

    #[test]
    fn validate_takes_the_explorer_bounds() {
        let explore = |rounds, budget| JobSpec::Explore {
            nodes: 4,
            rounds,
            budget,
            seed: 0,
            chunk: 1,
            halt_after: None,
        };
        // The explorer checks something from 11 rounds on.
        assert_eq!(explore(11, 1).validate(), Ok(()));
        let err = explore(10, 1).validate().unwrap_err();
        assert!(err.contains("at least 11 rounds"), "{err}");
        let err = explore(24, 0).validate().unwrap_err();
        assert!(err.contains("budget must be positive"), "{err}");
    }

    #[test]
    fn campaign_job_runs_to_done_with_progress_feed() {
        let dir = tmp_dir("campaign");
        let service = DiagService::start(&dir).unwrap();
        let sub = service.hubs().progress.subscribe(4096);
        let status = service
            .submit(JobSpec::Campaign {
                nodes: 4,
                reps: 1,
                base_seed: 2_007,
                threads: 2,
                chunk: 7,
                halt_after: None,
            })
            .unwrap();
        assert_eq!(status.state, JobState::Queued);
        assert_eq!(status.total, 18); // 12 bursts + stepping + 4 malicious + clique
        let done = wait_state(
            &service,
            status.id,
            JobState::Done,
            Duration::from_secs(120),
        );
        assert_eq!(done.completed, 18);
        assert!(done.passed, "sec8 campaign must pass: {}", done.detail);
        assert!(
            done.checkpoint_seq >= 2,
            "chunked into multiple checkpoints"
        );
        let frames = sub.drain(usize::MAX);
        let kinds: Vec<&str> = frames.iter().map(|f| f.event.kind()).collect();
        assert_eq!(kinds.first(), Some(&"job_started"));
        assert_eq!(kinds.last(), Some(&"job_finished"));
        assert!(kinds.contains(&"settled"));
        assert!(kinds.contains(&"chunk"));
        // Monotone gap-free seq for a keeping-up subscriber.
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.seq, i as u64);
        }
        service.shutdown_wait();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn halt_then_resume_completes_the_job() {
        let dir = tmp_dir("halt");
        let service = DiagService::start(&dir).unwrap();
        // A deliberately long work list (136 items) chunked very finely, so
        // the job is reliably observable in the running state.
        let status = service
            .submit(JobSpec::Campaign {
                nodes: 8,
                reps: 4,
                base_seed: 99,
                threads: 2,
                chunk: 2,
                halt_after: None,
            })
            .unwrap();
        let id = status.id;
        wait_state(&service, id, JobState::Running, Duration::from_secs(120));
        service.halt(id).expect("halt a running job");
        let halted = wait_state(&service, id, JobState::Halted, Duration::from_secs(120));
        assert!(halted.completed < halted.total, "{halted:?}");
        assert!(service.checkpoint_path(id).exists());
        service.resume(id).unwrap();
        let done = wait_state(&service, id, JobState::Done, Duration::from_secs(120));
        assert_eq!(done.completed, done.total);
        assert!(done.passed);
        service.shutdown_wait();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn halt_after_halts_once_at_a_chunk_boundary_then_resume_finishes() {
        let dir = tmp_dir("halt-after");
        let service = DiagService::start(&dir).unwrap();
        let sub = service.hubs().progress.subscribe(1 << 16);
        let status = service
            .submit(JobSpec::Campaign {
                nodes: 8,
                reps: 4,
                base_seed: 99,
                threads: 2,
                chunk: 4,
                halt_after: Some(6),
            })
            .unwrap();
        let id = status.id;
        // Chunks of 4: the first boundary with >= 6 settled is at 8.
        let halted = wait_state(&service, id, JobState::Halted, Duration::from_secs(120));
        assert_eq!(halted.completed, 8, "{halted:?}");
        assert!(!halted.halt_requested);
        assert!(service.checkpoint_path(id).exists());
        service.resume(id).unwrap();
        let done = wait_state(&service, id, JobState::Done, Duration::from_secs(120));
        assert_eq!(done.completed, done.total);
        assert!(done.passed, "{}", done.detail);
        let halts = sub
            .drain(usize::MAX)
            .iter()
            .filter(|f| f.event.kind() == "halted")
            .count();
        assert_eq!(halts, 1, "halts once, not at every later boundary");

        // The explorer halts the same way.
        let status = service
            .submit(JobSpec::Explore {
                nodes: 4,
                rounds: 24,
                budget: 12,
                seed: 7,
                chunk: 5,
                halt_after: Some(5),
            })
            .unwrap();
        let halted = wait_state(
            &service,
            status.id,
            JobState::Halted,
            Duration::from_secs(120),
        );
        assert_eq!(halted.completed, 5);
        service.resume(status.id).unwrap();
        let done = wait_state(
            &service,
            status.id,
            JobState::Done,
            Duration::from_secs(120),
        );
        assert_eq!(done.completed, 12);
        service.shutdown_wait();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn requests_without_halt_after_still_parse() {
        let old = r#"{"Campaign":{"nodes":8,"reps":4,"base_seed":1,"threads":2,"chunk":3}}"#;
        let spec: JobSpec = serde_json::from_str(old).unwrap();
        assert_eq!(spec.halt_after(), None);
        let old = r#"{"Explore":{"nodes":4,"rounds":24,"budget":9,"seed":7,"chunk":5}}"#;
        let spec: JobSpec = serde_json::from_str(old).unwrap();
        assert_eq!(spec.halt_after(), None);
        let zero = JobSpec::Explore {
            nodes: 4,
            rounds: 24,
            budget: 9,
            seed: 7,
            chunk: 5,
            halt_after: Some(0),
        };
        assert!(zero.validate().unwrap_err().contains("halt_after"));
    }

    #[test]
    fn explore_job_reports_executions() {
        let dir = tmp_dir("explore");
        let service = DiagService::start(&dir).unwrap();
        let status = service
            .submit(JobSpec::Explore {
                nodes: 4,
                rounds: 24,
                budget: 12,
                seed: 7,
                chunk: 5,
                halt_after: None,
            })
            .unwrap();
        let done = wait_state(
            &service,
            status.id,
            JobState::Done,
            Duration::from_secs(120),
        );
        assert_eq!(done.completed, 12);
        assert!(done.passed, "{}", done.detail);
        service.shutdown_wait();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let dir = tmp_dir("invalid");
        let service = DiagService::start(&dir).unwrap();
        assert!(service
            .submit(JobSpec::Campaign {
                nodes: 2,
                reps: 1,
                base_seed: 0,
                threads: 1,
                chunk: 1,
                halt_after: None,
            })
            .is_err());
        assert!(service.submit(JobSpec::TuneSweep { chunk: 0 }).is_err());
        assert!(service.status(42).is_none());
        assert!(service.halt(42).is_err());
        service.shutdown_wait();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
