//! Monte Carlo tuning sweeps at campaign scale (paper Sec. 9, measured
//! rather than derived).
//!
//! `docs/TUNING.md` walks the paper's tuning procedure analytically:
//! choose `R` from the false-correlation model behind Fig. 3, derive `P`
//! and the criticality levels `s_i` from outage budgets (Tables 2–4).
//! This module is the empirical counterpart. A [`SweepConfig`] spans a
//! grid over `(N, rounds, P, R, s, λ, intermittent period)`; every
//! [`SweepCell`] runs a batch of seeded randomized fault campaigns —
//! Poisson transients striking a healthy victim node, optionally next to
//! a genuinely intermittent node — through the lockstep batched engine
//! ([`tt_fault::observe_schedules_batched`], which runs every cluster
//! size [`SweepConfig::validate`] admits) and estimates:
//!
//! * **false-isolation probability** of the healthy victim, with Wilson
//!   confidence intervals ([`crate::stats::wilson_interval`]);
//! * the **false-correlation probability**: among experiments whose first
//!   transient leaves a full correlation window inside the run, how often
//!   a second independent transient lands within `R` rounds — the
//!   measured Fig. 3 boundary, cross-checked against the analytic
//!   [`crate::correlation_probability`];
//! * **time-to-(correct|incorrect)-isolation** distributions
//!   (mean/p50/p99, plus deciles for the safety-curve export);
//! * **forgiveness / reintegration** counts.
//!
//! Sweeps stream through the `tt_fault` checkpoint machinery
//! ([`SweepCheckpoint`], written atomically after every cell), so a run
//! halted after any number of cells resumes byte-identically — cells are
//! independent and seeded per `(base_seed, cell index, repetition)`.
//!
//! Results export as JSON ([`sweep_json`]), paper-style CSV tables
//! ([`fig3_csv`], [`isolation_csv`], [`safety_curve_csv`]) and a human
//! summary ([`render_sweep_summary`]); [`check_analytic_agreement`] turns
//! the Fig. 3 cross-check into a pass/fail verdict.

use std::io;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use tt_fault::{
    experiment_seed, first_victim_arrival, max_fault_round, observe_schedules_batched, round_for,
    sampled_schedule, victim_arrivals, write_json_atomic, FaultSchedule, TransientCell,
    CHECKPOINT_VERSION, MIN_FAULT_ROUND,
};

use crate::correlation::correlation_probability;
use crate::stats::{percentile, wilson_interval, Summary};
use crate::table::Table;

/// Normal quantile of the reported confidence intervals (95 %).
pub const SWEEP_Z: f64 = 1.96;

/// The grid a sweep spans: one cell per element of the cartesian product
/// of the axes, in nested field order (`nodes` outermost, then `rounds`,
/// `penalty_thresholds`, `reward_thresholds`, `criticalities`,
/// `rates_per_hour`, `intermittent_periods` innermost).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Cluster sizes `N` (each in 4..=64).
    pub nodes: Vec<usize>,
    /// Round budgets per experiment.
    pub rounds: Vec<u64>,
    /// Alg. 2 penalty thresholds `P`.
    pub penalty_thresholds: Vec<u64>,
    /// Alg. 2 reward thresholds `R`.
    pub reward_thresholds: Vec<u64>,
    /// Uniform criticality levels `s` (penalty increment per conviction).
    pub criticalities: Vec<u64>,
    /// Poisson transient rates `λ` (faults/hour) striking the victim.
    pub rates_per_hour: Vec<f64>,
    /// Periods (rounds) of the genuinely intermittent node; 0 = absent.
    pub intermittent_periods: Vec<u64>,
    /// Seeded experiments per cell.
    pub experiments: u64,
    /// Lanes per lockstep batch.
    pub batch_size: usize,
    /// Base seed; experiment seeds derive per `(cell index, repetition)`.
    pub base_seed: u64,
}

impl Default for SweepConfig {
    /// The pinned small grid behind `tests/golden/tune_sweep_small.json`
    /// and the CI `tune-goldens` job: N ∈ {4, 8}, short rounds, fixed
    /// seeds. The transient rate is accelerated so the dimensionless
    /// product `λ·R·T` — the only quantity the Fig. 3 model depends on —
    /// spans the knee of the curve within a 64-round budget.
    fn default() -> Self {
        SweepConfig {
            nodes: vec![4, 8],
            rounds: vec![64],
            penalty_thresholds: vec![1, 41],
            reward_thresholds: vec![2, 8, 24],
            criticalities: vec![1, 40],
            rates_per_hour: vec![72_000.0],
            intermittent_periods: vec![0, 6],
            experiments: 192,
            batch_size: 64,
            base_seed: 2_007,
        }
    }
}

impl SweepConfig {
    /// Checks the grid is well-formed.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        let axes: [(&str, bool); 7] = [
            ("nodes", self.nodes.is_empty()),
            ("rounds", self.rounds.is_empty()),
            ("penalty_thresholds", self.penalty_thresholds.is_empty()),
            ("reward_thresholds", self.reward_thresholds.is_empty()),
            ("criticalities", self.criticalities.is_empty()),
            ("rates_per_hour", self.rates_per_hour.is_empty()),
            ("intermittent_periods", self.intermittent_periods.is_empty()),
        ];
        if let Some((name, _)) = axes.iter().find(|(_, empty)| *empty) {
            return Err(format!("axis {name} is empty"));
        }
        if let Some(&n) = self.nodes.iter().find(|&&n| n < 4) {
            return Err(format!("cluster size {n} below the minimum of 4"));
        }
        // Neither the lockstep engine nor the scalar syndrome goes past
        // one 64-bit word per lane.
        let max = tt_sim::MAX_BATCH_NODES;
        if let Some(&n) = self.nodes.iter().find(|&&n| n > max) {
            return Err(format!("cluster size {n} above the maximum of {max}"));
        }
        let min_rounds = MIN_FAULT_ROUND + 5;
        if let Some(&r) = self.rounds.iter().find(|&&r| r < min_rounds) {
            return Err(format!(
                "round budget {r} below the minimum of {min_rounds}"
            ));
        }
        if self.penalty_thresholds.contains(&0) || self.reward_thresholds.contains(&0) {
            return Err("thresholds must be at least 1".into());
        }
        if self.criticalities.contains(&0) {
            return Err("criticality levels must be at least 1".into());
        }
        if let Some(&rate) = self
            .rates_per_hour
            .iter()
            .find(|r| !r.is_finite() || **r < 0.0)
        {
            return Err(format!("invalid transient rate {rate}"));
        }
        if self.experiments == 0 || self.batch_size == 0 {
            return Err("experiments and batch_size must be at least 1".into());
        }
        Ok(())
    }

    /// Materializes the grid, one cell per axis combination.
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut out = Vec::new();
        for &n in &self.nodes {
            for &rounds in &self.rounds {
                for &penalty_threshold in &self.penalty_thresholds {
                    for &reward_threshold in &self.reward_thresholds {
                        for &criticality in &self.criticalities {
                            for &rate_per_hour in &self.rates_per_hour {
                                for &intermittent_period in &self.intermittent_periods {
                                    out.push(SweepCell {
                                        index: out.len(),
                                        n,
                                        rounds,
                                        penalty_threshold,
                                        reward_threshold,
                                        criticality,
                                        rate_per_hour,
                                        intermittent_period,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// One grid point: a complete protocol + environment configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCell {
    /// Position in grid order (also the seed class of its experiments).
    pub index: usize,
    /// Cluster size `N`.
    pub n: usize,
    /// Rounds per experiment.
    pub rounds: u64,
    /// Alg. 2 penalty threshold `P`.
    pub penalty_threshold: u64,
    /// Alg. 2 reward threshold `R`.
    pub reward_threshold: u64,
    /// Uniform criticality level `s`.
    pub criticality: u64,
    /// Poisson transient rate `λ` (faults/hour).
    pub rate_per_hour: f64,
    /// Intermittent-node period (rounds); 0 = absent.
    pub intermittent_period: u64,
}

impl SweepCell {
    /// Whether the false-correlation boundary is observable in this cell:
    /// one transient must not isolate (`s ≤ P`) while two correlated ones
    /// must (`2s > P`) — then "victim isolated within `R` rounds of its
    /// first transient" is *exactly* "two transients correlated".
    pub fn correlation_measurable(&self) -> bool {
        self.criticality <= self.penalty_threshold && self.penalty_threshold < 2 * self.criticality
    }
}

/// A binomial estimate with its Wilson confidence interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Proportion {
    /// Observed successes.
    pub successes: u64,
    /// Observed trials.
    pub trials: u64,
    /// Point estimate `successes / trials` (0 for an empty sample).
    pub p: f64,
    /// Lower Wilson bound at [`SWEEP_Z`].
    pub lo: f64,
    /// Upper Wilson bound at [`SWEEP_Z`].
    pub hi: f64,
}

impl Proportion {
    /// Estimates from raw counts.
    pub fn of(successes: u64, trials: u64) -> Self {
        let (lo, hi) = wilson_interval(successes, trials, SWEEP_Z);
        Proportion {
            successes,
            trials,
            p: if trials == 0 {
                0.0
            } else {
                successes as f64 / trials as f64
            },
            lo,
            hi,
        }
    }
}

/// Distribution summary of a time-to-isolation sample, in rounds and
/// (via the cell's round length) seconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IsolationLatency {
    /// Number of isolation events observed.
    pub count: u64,
    /// Mean latency in rounds.
    pub mean_rounds: f64,
    /// Median latency in rounds (nearest rank).
    pub p50_rounds: f64,
    /// 99th-percentile latency in rounds (nearest rank).
    pub p99_rounds: f64,
    /// Mean latency in seconds.
    pub mean_seconds: f64,
}

impl IsolationLatency {
    fn of(samples: &[f64], round_seconds: f64) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let summary: Summary = samples.iter().copied().collect();
        Some(IsolationLatency {
            count: summary.count(),
            mean_rounds: summary.mean(),
            p50_rounds: percentile(samples, 50.0).expect("non-empty"),
            p99_rounds: percentile(samples, 99.0).expect("non-empty"),
            mean_seconds: summary.mean() * round_seconds,
        })
    }
}

/// The measured false-correlation boundary of one cell, next to its
/// analytic Fig. 3 prediction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorrelationEstimate {
    /// Measured probability that a second independent transient falls
    /// within `R` rounds of the first (with Wilson bounds).
    pub measured: Proportion,
    /// The analytic `1 − exp(−λ·R·T)` prediction.
    pub analytic: f64,
}

/// Everything estimated for one cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellEstimate {
    /// Experiments run.
    pub experiments: u64,
    /// Total sampled transient arrivals on the victim.
    pub arrivals: u64,
    /// Probability that the healthy victim is (falsely) isolated within
    /// the round budget.
    pub false_isolation: Proportion,
    /// The Fig. 3 boundary measurement, where observable
    /// ([`SweepCell::correlation_measurable`] and the window fits).
    pub correlation: Option<CorrelationEstimate>,
    /// Time from the victim's first transient to its (incorrect)
    /// isolation decision.
    pub time_to_false_isolation: Option<IsolationLatency>,
    /// Decile latencies (rounds, q = 10 % … 100 %) of the false
    /// isolations — the raw material of the safety-curve export.
    pub false_isolation_deciles: Vec<f64>,
    /// Time from the intermittent node's first fault to its (correct)
    /// isolation decision.
    pub time_to_correct_isolation: Option<IsolationLatency>,
    /// Forgiveness events, summed over observers, subjects, experiments.
    pub forgiveness: u64,
    /// Reintegrations (always 0: sweeps run with reintegration disabled).
    pub reintegrations: u64,
    /// Whether every batch ran on the lockstep engine. Always `true` for
    /// a grid that passed [`SweepConfig::validate`], since the engine runs
    /// every cluster size it admits; kept because the JSON and CSV
    /// exports carry the column.
    pub batched: bool,
}

/// One completed cell: its configuration and its estimates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellReport {
    /// The grid point.
    pub cell: SweepCell,
    /// Its Monte Carlo estimates.
    pub estimate: CellEstimate,
}

/// A completed (or partially completed, when halted) sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// The grid definition.
    pub config: SweepConfig,
    /// Completed cells, in grid order.
    pub cells: Vec<CellReport>,
}

/// Progress snapshot of a sweep, written atomically after every cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCheckpoint {
    /// Format version ([`tt_fault::CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The grid definition the snapshot belongs to.
    pub config: SweepConfig,
    /// Cells completed so far, in grid order.
    pub completed: Vec<CellReport>,
}

impl SweepCheckpoint {
    /// Whether this snapshot belongs to `config`. A resume against a
    /// mismatching checkpoint must be rejected, not silently merged.
    pub fn matches(&self, config: &SweepConfig) -> bool {
        self.version == CHECKPOINT_VERSION && self.config == *config
    }
}

/// Supervision knobs of a sweep run.
#[derive(Debug, Clone, Default)]
pub struct SweepSupervisor {
    /// Where to stream [`SweepCheckpoint`]s (after every completed cell).
    pub checkpoint_path: Option<PathBuf>,
    /// Halt after newly completing this many cells (the chaos/CI hook
    /// behind byte-identical halt/resume).
    pub halt_after_cells: Option<u64>,
}

/// The outcome of [`run_sweep`] / [`resume_sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// The (possibly partial) report.
    pub report: SweepReport,
    /// Total cells in the grid.
    pub total_cells: usize,
    /// Whether the run stopped at the halt bound with cells remaining.
    pub halted: bool,
}

/// Runs a sweep from scratch.
///
/// # Errors
///
/// Fails with [`io::ErrorKind::InvalidInput`] on a malformed grid and
/// propagates checkpoint write errors.
pub fn run_sweep(config: &SweepConfig, supervisor: &SweepSupervisor) -> io::Result<SweepOutcome> {
    config
        .validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    run_from(config.clone(), Vec::new(), supervisor)
}

/// Resumes a sweep from a [`SweepCheckpoint`], continuing cell-by-cell
/// exactly where the snapshot stopped. The final report is byte-identical
/// to an uninterrupted run: cells are independent and seeded by index.
///
/// # Errors
///
/// Fails with [`io::ErrorKind::InvalidData`] if the snapshot is
/// malformed, [`io::ErrorKind::InvalidInput`] if its grid is, and
/// propagates checkpoint write errors.
pub fn resume_sweep(
    checkpoint: SweepCheckpoint,
    supervisor: &SweepSupervisor,
) -> io::Result<SweepOutcome> {
    checkpoint
        .config
        .validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    if checkpoint.version != CHECKPOINT_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "checkpoint version {} (expected {CHECKPOINT_VERSION})",
                checkpoint.version
            ),
        ));
    }
    run_from(checkpoint.config, checkpoint.completed, supervisor)
}

fn run_from(
    config: SweepConfig,
    mut completed: Vec<CellReport>,
    supervisor: &SweepSupervisor,
) -> io::Result<SweepOutcome> {
    let cells = config.cells();
    if completed.len() > cells.len()
        || completed
            .iter()
            .zip(&cells)
            .any(|(done, cell)| done.cell != *cell)
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "checkpoint cells do not form a prefix of the configured grid",
        ));
    }
    for (newly, cell) in cells[completed.len()..].iter().enumerate() {
        if supervisor
            .halt_after_cells
            .is_some_and(|h| newly as u64 >= h)
        {
            if let Some(path) = &supervisor.checkpoint_path {
                write_json_atomic(
                    path,
                    &SweepCheckpoint {
                        version: CHECKPOINT_VERSION,
                        config: config.clone(),
                        completed: completed.clone(),
                    },
                )?;
            }
            let total_cells = cells.len();
            return Ok(SweepOutcome {
                report: SweepReport {
                    config,
                    cells: completed,
                },
                total_cells,
                halted: true,
            });
        }
        let estimate = run_cell(&config, cell);
        completed.push(CellReport {
            cell: cell.clone(),
            estimate,
        });
        if let Some(path) = &supervisor.checkpoint_path {
            write_json_atomic(
                path,
                &SweepCheckpoint {
                    version: CHECKPOINT_VERSION,
                    config: config.clone(),
                    completed: completed.clone(),
                },
            )?;
        }
    }
    let total_cells = cells.len();
    Ok(SweepOutcome {
        report: SweepReport {
            config,
            cells: completed,
        },
        total_cells,
        halted: false,
    })
}

/// Runs every experiment of one cell and folds the observations into its
/// estimate. Chunks of `batch_size` run on the lockstep engine, which
/// accepts every cluster size [`SweepConfig::validate`] admits (4..=64);
/// only [`run_sweep`] and [`resume_sweep`] reach here, after validation.
fn run_cell(config: &SweepConfig, cell: &SweepCell) -> CellEstimate {
    let crit = vec![cell.criticality; cell.n];
    let workload = TransientCell {
        n: cell.n,
        rounds: cell.rounds,
        penalty_threshold: cell.penalty_threshold,
        reward_threshold: cell.reward_threshold,
        rate_per_hour: cell.rate_per_hour,
        intermittent_period: cell.intermittent_period,
    };
    let round = round_for(cell.n);
    let max_arrival = max_fault_round(cell.rounds);
    let measurable = cell.correlation_measurable();

    let mut arrivals = 0u64;
    let mut false_isolated = 0u64;
    let mut corr_trials = 0u64;
    let mut corr_hits = 0u64;
    let mut tti_false: Vec<f64> = Vec::new();
    let mut tti_correct: Vec<f64> = Vec::new();
    let mut forgiveness = 0u64;

    let mut rep = 0u64;
    while rep < config.experiments {
        let chunk = (config.experiments - rep).min(config.batch_size as u64);
        let schedules: Vec<FaultSchedule> = (rep..rep + chunk)
            .map(|r| sampled_schedule(&workload, experiment_seed(config.base_seed, cell.index, r)))
            .collect();
        let observations = observe_schedules_batched(&schedules, &crit).expect(
            "a validated grid (N in 4..=64, fault slots sampled in range) runs on the lockstep engine",
        );
        for (schedule, obs) in schedules.iter().zip(&observations) {
            arrivals += victim_arrivals(schedule);
            let first = first_victim_arrival(schedule);
            let victim_iso = obs.isolation_of(0);
            if let Some(iso) = victim_iso {
                false_isolated += 1;
                let a = first.expect("an isolated victim was struck at least once");
                tti_false.push((iso.decided_at - a) as f64);
            }
            if measurable {
                if let Some(a) = first {
                    if a.saturating_add(cell.reward_threshold) <= max_arrival {
                        corr_trials += 1;
                        corr_hits += u64::from(
                            victim_iso
                                .is_some_and(|iso| iso.diagnosed <= a + cell.reward_threshold),
                        );
                    }
                }
            }
            if cell.intermittent_period > 0 {
                if let Some(iso) = obs.isolation_of(1) {
                    tti_correct.push((iso.decided_at - MIN_FAULT_ROUND) as f64);
                }
            }
            forgiveness += obs.forgiveness;
        }
        rep += chunk;
    }

    let round_seconds = round.as_secs_f64();
    let deciles = if tti_false.is_empty() {
        Vec::new()
    } else {
        (1..=10)
            .map(|d| percentile(&tti_false, d as f64 * 10.0).expect("non-empty"))
            .collect()
    };
    CellEstimate {
        experiments: config.experiments,
        arrivals,
        false_isolation: Proportion::of(false_isolated, config.experiments),
        correlation: measurable.then(|| CorrelationEstimate {
            measured: Proportion::of(corr_hits, corr_trials),
            analytic: correlation_probability(cell.rate_per_hour, cell.reward_threshold, round),
        }),
        time_to_false_isolation: IsolationLatency::of(&tti_false, round_seconds),
        false_isolation_deciles: deciles,
        time_to_correct_isolation: IsolationLatency::of(&tti_correct, round_seconds),
        forgiveness,
        reintegrations: 0,
        batched: true,
    }
}

/// Serializes a report as pretty JSON with a trailing newline — the byte
/// stream the goldens and the halt/resume equivalence tests compare.
pub fn sweep_json(report: &SweepReport) -> String {
    let mut json = serde_json::to_string_pretty(report).expect("report serializes");
    json.push('\n');
    json
}

/// One row of the Fig. 3 agreement check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgreementRow {
    /// Cell index.
    pub cell: usize,
    /// Reward threshold `R` of the cell.
    pub reward_threshold: u64,
    /// Transient rate `λ` of the cell.
    pub rate_per_hour: f64,
    /// Correlation trials observed.
    pub trials: u64,
    /// Measured false-correlation probability.
    pub measured: f64,
    /// Lower Wilson bound.
    pub lo: f64,
    /// Upper Wilson bound.
    pub hi: f64,
    /// Analytic `1 − exp(−λ·R·T)`.
    pub analytic: f64,
    /// Whether the analytic value falls within the Wilson interval.
    pub within: bool,
}

/// The Fig. 3 cross-check rows: every cell whose correlation boundary was
/// measured (observable and at least one trial).
pub fn analytic_agreement(report: &SweepReport) -> Vec<AgreementRow> {
    report
        .cells
        .iter()
        .filter_map(|c| {
            let corr = c.estimate.correlation.as_ref()?;
            if corr.measured.trials == 0 {
                return None;
            }
            Some(AgreementRow {
                cell: c.cell.index,
                reward_threshold: c.cell.reward_threshold,
                rate_per_hour: c.cell.rate_per_hour,
                trials: corr.measured.trials,
                measured: corr.measured.p,
                lo: corr.measured.lo,
                hi: corr.measured.hi,
                analytic: corr.analytic,
                within: corr.measured.lo <= corr.analytic && corr.analytic <= corr.measured.hi,
            })
        })
        .collect()
}

/// Verdict over the whole Fig. 3 cross-check: `Ok` with a summary when
/// every measured boundary contains its analytic prediction within the
/// Wilson interval, `Err` listing the disagreeing cells otherwise.
pub fn check_analytic_agreement(report: &SweepReport) -> Result<String, String> {
    let rows = analytic_agreement(report);
    let bad: Vec<&AgreementRow> = rows.iter().filter(|r| !r.within).collect();
    if bad.is_empty() {
        Ok(format!(
            "fig3 agreement: analytic within the 95% Wilson interval in {}/{} measured cells",
            rows.len(),
            rows.len()
        ))
    } else {
        Err(bad
            .iter()
            .map(|r| {
                format!(
                    "fig3 disagreement: cell {} (R={}, λ={}/h): analytic {:.4} outside [{:.4}, {:.4}] ({} trials)",
                    r.cell, r.reward_threshold, r.rate_per_hour, r.analytic, r.lo, r.hi, r.trials
                )
            })
            .collect::<Vec<_>>()
            .join("\n"))
    }
}

/// CSV of the measured Fig. 3 boundary: one row per cell with a measured
/// correlation estimate, next to the analytic curve.
pub fn fig3_csv(report: &SweepReport) -> String {
    let mut out = String::from(
        "cell,n,rounds,penalty_threshold,reward_threshold,criticality,rate_per_hour,\
         trials,correlated,measured,wilson_lo,wilson_hi,analytic,within_ci\n",
    );
    for row in analytic_agreement(report) {
        let cell = &report.cells[row.cell].cell;
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{}\n",
            row.cell,
            cell.n,
            cell.rounds,
            cell.penalty_threshold,
            cell.reward_threshold,
            cell.criticality,
            cell.rate_per_hour,
            row.trials,
            (row.measured * row.trials as f64).round() as u64,
            row.measured,
            row.lo,
            row.hi,
            row.analytic,
            row.within,
        ));
    }
    out
}

fn latency_csv_cells(latency: &Option<IsolationLatency>) -> String {
    match latency {
        Some(l) => format!(
            "{},{:.3},{:.3},{:.3},{:.6}",
            l.count, l.mean_rounds, l.p50_rounds, l.p99_rounds, l.mean_seconds
        ),
        None => ",,,,".into(),
    }
}

/// CSV of the per-cell isolation estimators (the Tables 2–4 analog):
/// false-isolation probability with Wilson bounds, time-to-isolation
/// distributions, forgiveness/reintegration counts.
pub fn isolation_csv(report: &SweepReport) -> String {
    let mut out = String::from(
        "cell,n,rounds,penalty_threshold,reward_threshold,criticality,rate_per_hour,\
         intermittent_period,experiments,arrivals,false_isolated,false_p,false_lo,false_hi,\
         tti_false_count,tti_false_mean_rounds,tti_false_p50_rounds,tti_false_p99_rounds,\
         tti_false_mean_s,tti_correct_count,tti_correct_mean_rounds,tti_correct_p50_rounds,\
         tti_correct_p99_rounds,tti_correct_mean_s,forgiveness,reintegrations,batched\n",
    );
    for c in &report.cells {
        let e = &c.estimate;
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{:.6},{:.6},{:.6},{},{},{},{},{}\n",
            c.cell.index,
            c.cell.n,
            c.cell.rounds,
            c.cell.penalty_threshold,
            c.cell.reward_threshold,
            c.cell.criticality,
            c.cell.rate_per_hour,
            c.cell.intermittent_period,
            e.experiments,
            e.arrivals,
            e.false_isolation.successes,
            e.false_isolation.p,
            e.false_isolation.lo,
            e.false_isolation.hi,
            latency_csv_cells(&e.time_to_false_isolation),
            latency_csv_cells(&e.time_to_correct_isolation),
            e.forgiveness,
            e.reintegrations,
            e.batched,
        ));
    }
    out
}

/// CSV of the empirical safety curves: for each cell, the cumulative
/// probability that the healthy victim has been falsely isolated by time
/// `t` (deciles of the observed false-isolation latencies, scaled by the
/// cell's false-isolation probability).
pub fn safety_curve_csv(report: &SweepReport) -> String {
    let mut out = String::from(
        "cell,n,reward_threshold,rate_per_hour,quantile,t_rounds,t_seconds,\
                      p_false_isolation_by_t\n",
    );
    for c in &report.cells {
        let round_seconds = round_for(c.cell.n).as_secs_f64();
        for (i, &t_rounds) in c.estimate.false_isolation_deciles.iter().enumerate() {
            let q = (i + 1) as f64 / 10.0;
            out.push_str(&format!(
                "{},{},{},{},{:.1},{:.3},{:.6},{:.6}\n",
                c.cell.index,
                c.cell.n,
                c.cell.reward_threshold,
                c.cell.rate_per_hour,
                q,
                t_rounds,
                t_rounds * round_seconds,
                q * c.estimate.false_isolation.p,
            ));
        }
    }
    out
}

/// Renders the human summary of a sweep: one table row per cell plus the
/// Fig. 3 agreement verdict line.
pub fn render_sweep_summary(report: &SweepReport) -> String {
    let mut table = Table::new(vec![
        "cell",
        "N",
        "rounds",
        "P",
        "R",
        "s",
        "lambda/h",
        "int",
        "false-iso p [95% CI]",
        "corr measured vs analytic",
        "tti-false p50/p99",
        "fgv",
        "engine",
    ]);
    for c in &report.cells {
        let e = &c.estimate;
        let corr = match &e.correlation {
            Some(corr) if corr.measured.trials > 0 => format!(
                "{:.3} [{:.3},{:.3}] vs {:.3}",
                corr.measured.p, corr.measured.lo, corr.measured.hi, corr.analytic
            ),
            Some(_) => "no trials".into(),
            None => "-".into(),
        };
        let tti = match &e.time_to_false_isolation {
            Some(l) => format!("{:.0}/{:.0}", l.p50_rounds, l.p99_rounds),
            None => "-".into(),
        };
        table.row(vec![
            c.cell.index.to_string(),
            c.cell.n.to_string(),
            c.cell.rounds.to_string(),
            c.cell.penalty_threshold.to_string(),
            c.cell.reward_threshold.to_string(),
            c.cell.criticality.to_string(),
            format!("{}", c.cell.rate_per_hour),
            c.cell.intermittent_period.to_string(),
            format!(
                "{:.3} [{:.3},{:.3}]",
                e.false_isolation.p, e.false_isolation.lo, e.false_isolation.hi
            ),
            corr,
            tti,
            e.forgiveness.to_string(),
            if e.batched { "batched" } else { "scalar" }.to_string(),
        ]);
    }
    let verdict = match check_analytic_agreement(report) {
        Ok(v) => v,
        Err(v) => v,
    };
    format!(
        "tune sweep: {} cells x {} experiments (base seed {})\n{}\n{}\n",
        report.cells.len(),
        report.config.experiments,
        report.config.base_seed,
        table.render(),
        verdict
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SweepConfig {
        SweepConfig {
            nodes: vec![4],
            rounds: vec![32],
            penalty_thresholds: vec![1],
            reward_thresholds: vec![4],
            criticalities: vec![1],
            rates_per_hour: vec![72_000.0],
            intermittent_periods: vec![0, 3],
            experiments: 48,
            batch_size: 16,
            base_seed: 11,
        }
    }

    #[test]
    fn grid_enumeration_is_dense_and_indexed() {
        let cells = SweepConfig::default().cells();
        assert_eq!(cells.len(), 2 * 2 * 3 * 2 * 2);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn validation_rejects_malformed_grids() {
        let mut c = tiny_config();
        c.nodes = vec![];
        assert!(c.validate().is_err());
        let mut c = tiny_config();
        c.nodes = vec![3];
        assert!(c.validate().is_err());
        let mut c = tiny_config();
        c.nodes = vec![4, 64];
        assert!(c.validate().is_ok());
        c.nodes = vec![4, 65];
        assert_eq!(
            c.validate(),
            Err("cluster size 65 above the maximum of 64".into())
        );
        let mut c = tiny_config();
        c.rounds = vec![4];
        assert!(c.validate().is_err());
        let mut c = tiny_config();
        c.criticalities = vec![0];
        assert!(c.validate().is_err());
        let mut c = tiny_config();
        c.rates_per_hour = vec![f64::NAN];
        assert!(c.validate().is_err());
        assert!(tiny_config().validate().is_ok());
    }

    #[test]
    fn correlation_measurability_is_the_two_hit_condition() {
        let mut cell = SweepConfig::default().cells().remove(0);
        cell.criticality = 1;
        cell.penalty_threshold = 1;
        assert!(cell.correlation_measurable());
        cell.penalty_threshold = 2; // two hits reach exactly P, no isolation
        assert!(!cell.correlation_measurable());
        cell.criticality = 40;
        cell.penalty_threshold = 41;
        assert!(cell.correlation_measurable());
        cell.penalty_threshold = 39; // one hit already isolates
        assert!(!cell.correlation_measurable());
    }

    #[test]
    fn sweep_is_deterministic() {
        let sup = SweepSupervisor::default();
        let a = run_sweep(&tiny_config(), &sup).unwrap();
        let b = run_sweep(&tiny_config(), &sup).unwrap();
        assert!(!a.halted);
        assert_eq!(sweep_json(&a.report), sweep_json(&b.report));
    }

    #[test]
    fn estimates_are_internally_consistent() {
        let outcome = run_sweep(&tiny_config(), &SweepSupervisor::default()).unwrap();
        for c in &outcome.report.cells {
            let e = &c.estimate;
            assert_eq!(e.experiments, 48);
            assert!(e.arrivals > 0, "accelerated rate must produce arrivals");
            assert!(e.false_isolation.successes <= e.experiments);
            assert!(e.batched, "N=4 cells run on the lockstep engine");
            assert_eq!(e.reintegrations, 0);
            let corr = e.correlation.as_ref().expect("P=s cell is measurable");
            assert!(corr.measured.trials <= e.experiments);
            if c.cell.intermittent_period == 3 {
                // Period 3 < R=4: the intermittent node is correlated and
                // correctly isolated in every experiment.
                let tti = e.time_to_correct_isolation.as_ref().expect("isolated");
                assert_eq!(tti.count, e.experiments);
            } else {
                assert_eq!(e.time_to_correct_isolation, None);
            }
        }
    }

    #[test]
    fn halted_sweeps_resume_byte_identically() {
        let dir = std::env::temp_dir().join("tt-analysis-sweep-halt");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("sweep.json");
        let config = tiny_config();
        let uninterrupted = run_sweep(&config, &SweepSupervisor::default()).unwrap();
        let halted = run_sweep(
            &config,
            &SweepSupervisor {
                checkpoint_path: Some(path.clone()),
                halt_after_cells: Some(1),
            },
        )
        .unwrap();
        assert!(halted.halted);
        assert_eq!(halted.report.cells.len(), 1);
        let cp: SweepCheckpoint = tt_fault::read_json(&path).unwrap();
        assert!(cp.matches(&config));
        let resumed = resume_sweep(cp, &SweepSupervisor::default()).unwrap();
        assert!(!resumed.halted);
        assert_eq!(
            sweep_json(&resumed.report),
            sweep_json(&uninterrupted.report)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_checkpoints_are_rejected() {
        let config = tiny_config();
        let outcome = run_sweep(&config, &SweepSupervisor::default()).unwrap();
        let mut other = config.clone();
        other.base_seed ^= 1;
        let cp = SweepCheckpoint {
            version: CHECKPOINT_VERSION,
            config: other,
            completed: outcome.report.cells.clone(),
        };
        assert!(!cp.matches(&config));
        // The completed cells belong to a different grid prefix only if
        // the grids differ structurally; a wrong version always fails.
        let bad_version = SweepCheckpoint {
            version: CHECKPOINT_VERSION + 1,
            config: config.clone(),
            completed: Vec::new(),
        };
        assert!(resume_sweep(bad_version, &SweepSupervisor::default()).is_err());
    }

    #[test]
    fn exports_are_well_formed() {
        let outcome = run_sweep(&tiny_config(), &SweepSupervisor::default()).unwrap();
        let report = &outcome.report;
        let json = sweep_json(report);
        assert!(json.ends_with('\n'));
        let back: SweepReport = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, report);
        let fig3 = fig3_csv(report);
        assert!(fig3.lines().count() >= 2, "{fig3}");
        assert!(fig3.starts_with("cell,"));
        let iso = isolation_csv(report);
        assert_eq!(iso.lines().count(), 1 + report.cells.len());
        let safety = safety_curve_csv(report);
        assert!(safety.starts_with("cell,"));
        let summary = render_sweep_summary(report);
        assert!(summary.contains("fig3 agreement") || summary.contains("fig3 disagreement"));
    }
}
