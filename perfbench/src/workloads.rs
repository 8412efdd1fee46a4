//! The four end-to-end workloads.
//!
//! Each workload repeats one complete user-level operation — a whole
//! supervised campaign, a whole set of exploration sessions, or a whole
//! sweep grid — as identical closed-loop trials. A trial returns how many
//! operations it completed, how many of them failed their checks, and a
//! digest of everything it produced; the harness compares every trial's
//! digest with the first one.

use std::hash::Hasher;
use std::path::Path;
use std::sync::Arc;

use tt_analysis::sweep::{
    run_sweep, sweep_json, SweepCell, SweepConfig, SweepReport, SweepSupervisor,
};
use tt_bench::{LiveFeeds, SupervisedCampaign, SupervisorConfig};
use tt_fault::{
    experiment_seed, load_corpus, no_extra_oracle, observe_schedule, observe_schedules_batched,
    run_campaign, sampled_schedule, sec8_classes, splitmix64, ExperimentClass, ExperimentOutcome,
    ExperimentSinks, ExploreConfig, Explorer, FaultSchedule, NoHarnessFaults, ProtocolUnderTest,
    TransientCell,
};
use tt_sim::{
    Fnv1a64, MetricsEvent, ProgressEvent, SpanEvent, StreamHub, StreamingSink, StreamingTraceSink,
    Subscription,
};

/// Workload names, in the order the traced run visits them.
pub const NAMES: [&str; 4] = ["campaign-live", "explore", "sweep", "sweep-wide"];

/// What one trial produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialOutput {
    /// Operations completed: experiments, executed schedules or sampled
    /// lane experiments.
    pub ops: u64,
    /// Operations that failed their checks.
    pub failed: u64,
    /// Digest of the trial's outputs; identical trials give equal digests.
    pub digest: u64,
}

/// One workload after set-up.
pub trait Workload {
    /// Runs one complete operation and checks its outputs.
    fn trial(&mut self) -> TrialOutput;

    /// Reference checks that run once per process, untimed, after the
    /// trials: each compares the workload's output with an independent
    /// path through the library. Returns the number of mismatches.
    fn verify(&mut self) -> u64;
}

/// Whether the workload runs on the calling thread alone; only those are
/// pinned to one CPU at a time (see `CpuRotation`).
pub fn single_threaded(name: &str) -> bool {
    name != "campaign-live"
}

/// Per-workload input derived from the command-line seed, so workloads
/// never share a stream.
pub fn derive_seed(seed: u64, workload: &str) -> u64 {
    let salt = NAMES
        .iter()
        .position(|&w| w == workload)
        .expect("known workload") as u64;
    splitmix64(seed, salt)
}

/// Sets up the named workload from `seed`, reading committed inputs
/// (corpora) relative to `root`.
pub fn setup(name: &str, seed: u64, root: &Path) -> Box<dyn Workload> {
    let seed = derive_seed(seed, name);
    match name {
        "campaign-live" => Box::new(CampaignLive::new(seed)),
        "explore" => Box::new(Explore::new(seed, root)),
        "sweep" => Box::new(Sweep::new(sweep_config(seed))),
        "sweep-wide" => Box::new(Sweep::new(sweep_wide_config(seed))),
        other => panic!("unknown workload {other:?}"),
    }
}

// ------------------------------------------------------------ campaign-live

/// Cluster size of the Sec. 8 campaign.
pub const CAMPAIGN_N: usize = 4;
/// Seeded repetitions per class in one trial (18 classes at N = 4).
pub const CAMPAIGN_REPS: u64 = 3;
/// Ring capacity of the metrics and spans subscriptions: comfortably above
/// the events one trial publishes, so nothing is ever evicted.
const EVENT_RING: usize = 1 << 16;
/// Ring capacity of the progress subscription (one event per experiment).
const PROGRESS_RING: usize = 1 << 10;

/// The three live feeds of a `ttdiag serve` campaign job, each with one
/// subscriber the calling thread drains after every trial.
pub struct Feeds {
    /// The sinks and progress hub handed to the supervisor.
    pub live: LiveFeeds,
    /// Subscriber of the metrics hub.
    pub metrics: Subscription<MetricsEvent>,
    /// Subscriber of the spans hub.
    pub spans: Subscription<SpanEvent>,
    /// Subscriber of the progress hub.
    pub progress: Subscription<ProgressEvent>,
}

impl Feeds {
    /// Fresh hubs, subscribed, with the streaming sinks `ttdiag serve`
    /// attaches to campaign clusters.
    pub fn new() -> Self {
        let metrics_hub = Arc::new(StreamHub::new());
        let spans_hub = Arc::new(StreamHub::new());
        let progress_hub = Arc::new(StreamHub::new());
        let metrics = metrics_hub.subscribe(EVENT_RING);
        let spans = spans_hub.subscribe(EVENT_RING);
        let progress = progress_hub.subscribe(PROGRESS_RING);
        Feeds {
            live: LiveFeeds {
                job: 1,
                sinks: ExperimentSinks {
                    metrics: Arc::new(StreamingSink::new(metrics_hub)),
                    trace: Arc::new(StreamingTraceSink::new(spans_hub)),
                },
                progress: progress_hub,
            },
            metrics,
            spans,
            progress,
        }
    }

    /// Drains all three feeds; returns the frames delivered and the frames
    /// ever dropped across them.
    pub fn drain(&self) -> (u64, u64) {
        let delivered = self.metrics.drain(usize::MAX).len()
            + self.spans.drain(usize::MAX).len()
            + self.progress.drain(usize::MAX).len();
        let dropped = self.metrics.stats().dropped
            + self.spans.stats().dropped
            + self.progress.stats().dropped;
        (delivered as u64, dropped)
    }
}

impl Default for Feeds {
    fn default() -> Self {
        Self::new()
    }
}

/// The Sec. 8 campaign run the way a `ttdiag serve` campaign job runs it.
struct CampaignLive {
    classes: Vec<ExperimentClass>,
    base_seed: u64,
    feeds: Feeds,
    first: Option<Vec<ExperimentOutcome>>,
}

impl CampaignLive {
    fn new(base_seed: u64) -> Self {
        CampaignLive {
            classes: sec8_classes(CAMPAIGN_N),
            base_seed,
            feeds: Feeds::new(),
            first: None,
        }
    }
}

/// A one-worker supervised campaign over `classes` with `live` attached.
pub fn campaign_with(
    classes: &[ExperimentClass],
    base_seed: u64,
    live: LiveFeeds,
) -> SupervisedCampaign<'_> {
    SupervisedCampaign {
        classes,
        n: CAMPAIGN_N,
        reps: CAMPAIGN_REPS,
        base_seed,
        config: SupervisorConfig {
            threads: 1,
            live: Some(live),
            ..SupervisorConfig::default()
        },
    }
}

/// Digest of campaign outcomes plus the events they streamed.
fn campaign_digest(outcomes: &[ExperimentOutcome], events: u64) -> u64 {
    let mut h = Fnv1a64::new();
    for o in outcomes {
        h.write(o.label.as_bytes());
        h.write(&o.seed.to_le_bytes());
        h.write(&[u8::from(o.passed)]);
        h.write(&o.report.rounds_checked.to_le_bytes());
        h.write(
            &o.mean_detection_latency
                .unwrap_or(-1.0)
                .to_bits()
                .to_le_bytes(),
        );
    }
    h.write(&events.to_le_bytes());
    h.finish()
}

impl Workload for CampaignLive {
    fn trial(&mut self) -> TrialOutput {
        let outcome = campaign_with(&self.classes, self.base_seed, self.feeds.live.clone())
            .run(&NoHarnessFaults)
            .expect("no checkpoint path is configured, so no I/O can fail");
        let (events, dropped) = self.feeds.drain();
        let total = self.classes.len() as u64 * CAMPAIGN_REPS;
        let outcomes = outcome.result.outcomes;
        // Quarantined experiments are absent from `outcomes`.
        let mut failed = outcomes.iter().filter(|o| !o.passed).count() as u64
            + total.saturating_sub(outcomes.len() as u64);
        if dropped != 0 || outcome.halted {
            failed = total;
        }
        let digest = campaign_digest(&outcomes, events);
        if self.first.is_none() {
            self.first = Some(outcomes);
        }
        TrialOutput {
            ops: total,
            failed,
            digest,
        }
    }

    fn verify(&mut self) -> u64 {
        let reference = run_campaign(&self.classes, CAMPAIGN_N, CAMPAIGN_REPS, self.base_seed);
        let first = self.first.as_ref().expect("verify runs after a trial");
        mismatches(first, &reference.outcomes)
    }
}

fn mismatches<T: PartialEq>(a: &[T], b: &[T]) -> u64 {
    let differing = a.iter().zip(b).filter(|(x, y)| x != y).count();
    (differing + a.len().abs_diff(b.len())) as u64
}

// ------------------------------------------------------------------ explore

/// The three protocol variants and their committed corpora.
pub const VARIANTS: [(ProtocolUnderTest, &str); 3] = [
    (ProtocolUnderTest::Diag, "tests/corpus"),
    (ProtocolUnderTest::Membership, "tests/corpus/membership"),
    (ProtocolUnderTest::Lowlat, "tests/corpus/lowlat"),
];

/// Schedule executions per session: the CI explore job's budget for the
/// variant corpora, above every committed corpus size so each seed
/// schedule is re-executed.
pub const EXPLORE_BUDGET: u64 = 150;

/// Loads the three committed corpora (216 schedules).
pub fn load_corpora(root: &Path) -> Vec<Vec<FaultSchedule>> {
    VARIANTS
        .iter()
        .map(|(_, dir)| {
            load_corpus(&root.join(dir))
                .unwrap_or_else(|e| panic!("reading the committed corpus {dir}: {e}"))
                .into_iter()
                .map(|(_, s)| s)
                .collect()
        })
        .collect()
}

/// The CLI-default explorer configuration for one variant.
pub fn explore_config(seed: u64, protocol: ProtocolUnderTest) -> ExploreConfig {
    ExploreConfig {
        budget: EXPLORE_BUDGET,
        seed,
        protocol,
        ..ExploreConfig::default()
    }
}

/// Coverage-guided exploration of all three variants, each session seeded
/// from its committed corpus.
struct Explore {
    corpora: Vec<Vec<FaultSchedule>>,
    seed: u64,
}

impl Explore {
    fn new(seed: u64, root: &Path) -> Self {
        let corpora = load_corpora(root);
        assert!(
            corpora.iter().all(|c| !c.is_empty()),
            "every committed corpus holds schedules"
        );
        Explore { corpora, seed }
    }
}

impl Workload for Explore {
    fn trial(&mut self) -> TrialOutput {
        let mut h = Fnv1a64::new();
        let mut ops = 0;
        let mut failed = 0;
        for ((protocol, _), seeds) in VARIANTS.iter().zip(&self.corpora) {
            let mut session = Explorer::new(&explore_config(self.seed, *protocol), seeds);
            while session.step(&no_extra_oracle) {}
            let report = session.into_report();
            ops += report.executed;
            failed += report.counterexamples.len() as u64;
            h.write(&report.executed.to_le_bytes());
            h.write(&report.unique_states.to_le_bytes());
            for s in &report.corpus {
                h.write(&s.id().to_le_bytes());
            }
        }
        TrialOutput {
            ops,
            failed,
            digest: h.finish(),
        }
    }

    fn verify(&mut self) -> u64 {
        // Every trial already ran the full oracle stack; the reference
        // check is that the committed seed schedules replay clean through
        // the library's one-shot entry point.
        self.corpora
            .iter()
            .flatten()
            .filter(|s| !tt_fault::execute_schedule(s).verdict.ok())
            .count() as u64
    }
}

// -------------------------------------------------------------------- sweep

/// Experiments per sweep cell: one full lockstep batch at the default
/// `batch_size`, the width every `ttdiag tune sweep` runs.
pub const SWEEP_EXPERIMENTS: u64 = 64;

/// The Sec. 9 study on the shape of the pinned golden grid, one full-width
/// lockstep batch per cell.
pub fn sweep_config(base_seed: u64) -> SweepConfig {
    SweepConfig {
        experiments: SWEEP_EXPERIMENTS,
        base_seed,
        ..SweepConfig::default()
    }
}

/// The same study at N = 16, past the SWAR tally's N ≤ 8 limit, with the
/// R/s/period axes trimmed so a trial stays short.
pub fn sweep_wide_config(base_seed: u64) -> SweepConfig {
    SweepConfig {
        nodes: vec![16],
        penalty_thresholds: vec![1, 41],
        reward_thresholds: vec![2, 24],
        criticalities: vec![1],
        intermittent_periods: vec![6],
        experiments: SWEEP_EXPERIMENTS,
        base_seed,
        ..SweepConfig::default()
    }
}

/// One sweep workload.
struct Sweep {
    config: SweepConfig,
    first: Option<SweepReport>,
}

impl Sweep {
    fn new(config: SweepConfig) -> Self {
        config
            .validate()
            .expect("the benchmark grid is well-formed");
        Sweep {
            config,
            first: None,
        }
    }
}

impl Workload for Sweep {
    fn trial(&mut self) -> TrialOutput {
        let outcome = run_sweep(&self.config, &SweepSupervisor::default())
            .expect("a validated grid without checkpoints cannot fail");
        let report = outcome.report;
        let ops = report.cells.len() as u64 * self.config.experiments;
        let mut failed = report.cells.iter().filter(|c| !c.estimate.batched).count() as u64
            * self.config.experiments;
        if outcome.halted || report.cells.len() != outcome.total_cells {
            failed = ops;
        }
        let mut h = Fnv1a64::new();
        h.write(sweep_json(&report).as_bytes());
        if self.first.is_none() {
            self.first = Some(report);
        }
        TrialOutput {
            ops,
            failed,
            digest: h.finish(),
        }
    }

    fn verify(&mut self) -> u64 {
        // The first lane batch of every cell, sampled lane by lane through
        // the scalar simulator.
        let mut bad = 0;
        for cell in self.config.cells() {
            let crit = vec![cell.criticality; cell.n];
            let schedules = cell_batches(&self.config, &cell)
                .next()
                .expect("every cell has experiments");
            let lanes = observe_schedules_batched(&schedules, &crit)
                .expect("benchmark cells fit the lockstep engine");
            for lane in [0, schedules.len() / 2, schedules.len() - 1] {
                if observe_schedule(&schedules[lane], &crit) != lanes[lane] {
                    bad += 1;
                }
            }
        }
        bad
    }
}

/// The lane batches `run_sweep` draws for `cell`: its seeded experiments,
/// `batch_size` at a time.
pub fn cell_batches<'a>(
    config: &'a SweepConfig,
    cell: &'a SweepCell,
) -> impl Iterator<Item = Vec<FaultSchedule>> + 'a {
    let workload = TransientCell {
        n: cell.n,
        rounds: cell.rounds,
        penalty_threshold: cell.penalty_threshold,
        reward_threshold: cell.reward_threshold,
        rate_per_hour: cell.rate_per_hour,
        intermittent_period: cell.intermittent_period,
    };
    (0..config.experiments)
        .step_by(config.batch_size)
        .map(move |first| {
            let end = (first + config.batch_size as u64).min(config.experiments);
            (first..end)
                .map(|i| {
                    sampled_schedule(&workload, experiment_seed(config.base_seed, cell.index, i))
                })
                .collect()
        })
}

/// Reproduces the pinned golden sweep and compares it byte for byte with
/// the committed file. Only reads the golden file.
pub fn golden_sweep_matches(root: &Path) -> bool {
    let expected = std::fs::read_to_string(root.join("tests/golden/tune_sweep_small.json"));
    let outcome = run_sweep(&SweepConfig::default(), &SweepSupervisor::default());
    matches!((expected, outcome), (Ok(e), Ok(o)) if sweep_json(&o.report) == e)
}
