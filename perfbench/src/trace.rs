//! The traced run: per-layer metrics, timed from outside the program.
//!
//! Every span is taken in this file, around a call into a layer's public
//! function or through a wrapper that implements the layer's trait
//! boundary (`Job`, `FaultPipeline`, `LockstepJob`, `MetricsSink`,
//! `TraceSink`) and times the real implementation it delegates to. Where
//! the library builds its own jobs, the traced run rebuilds them from the
//! same public parts and asserts that the rebuilt run reproduces the
//! library's result, so the split measures the same work.
//!
//! Spans are accumulated in memory per layer and printed when the run
//! ends. A layer's self time is its span total minus the spans of the
//! layers it calls. Counts (`count` unit) are fixed by the seed and repeat
//! exactly from run to run; times are medians or totals over a fixed
//! number of repetitions.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hasher;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use tt_analysis::correlation::correlation_probability;
use tt_analysis::stats::{percentile, Summary};
use tt_analysis::sweep::{
    run_sweep, CellEstimate, CorrelationEstimate, IsolationLatency, Proportion, SweepCell,
    SweepConfig, SweepSupervisor,
};
use tt_bench::LiveFeeds;
use tt_core::properties::{
    check_alg2_cluster, check_counter_consistency, check_diag_cluster, checkable_rounds,
    FaultCounts,
};
use tt_core::{BatchDiagJob, DiagJob, ProtocolConfig};
use tt_fault::oracles::{execute_lowlat_schedule, execute_membership_schedule};
use tt_fault::sampled::{ObservedIsolation, ScheduleObservation};
use tt_fault::{
    execute_schedule, experiment_seed, first_victim_arrival, lane_params, lane_plan, load_corpus,
    max_fault_round, no_extra_oracle, observe_schedules_batched, round_for,
    run_experiment_observed, schedule_pipeline, sec8_classes, victim_arrivals, ExperimentClass,
    ExperimentSinks, Explorer, FaultSchedule, NoHarnessFaults, ProtocolUnderTest, ScheduleExec,
    ScheduleVerdict, LAG, MIN_FAULT_ROUND,
};
use tt_sim::{
    BatchCluster, BatchLanes, CancellationToken, Cluster, ClusterBuilder, FaultPipeline, Fnv1a64,
    Job, JobCtx, LockstepJob, MetricsEvent, MetricsSink, NodeId, RoundIndex, SlotEffect,
    SlotOutcome, SpanEvent, TraceSink, TxCtx, TxOutcome,
};

use crate::workloads::{
    campaign_with, cell_batches, derive_seed, explore_config, single_threaded, sweep_config,
    sweep_wide_config, Feeds, CAMPAIGN_N, CAMPAIGN_REPS, VARIANTS,
};
use crate::{alloc, quantile, CpuRotation, Metric, Outcome};

/// Repetitions of each timed phase.
const REPS: usize = 10;
/// Supervised and inline campaign trials per phase (the supervised CPU
/// time is read from 10 ms ticks, so this phase spans about a second).
const CAMPAIGN_TRIALS: usize = 60;

// -------------------------------------------------------------- spans

/// In-memory accumulator of one layer's spans.
#[derive(Debug, Default)]
pub struct Span {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Span {
    /// Closes a span opened at `start`.
    #[inline]
    fn close(&self, start: Instant) {
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Times `f` as one span.
    #[inline]
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.close(t);
        r
    }

    /// Total span time in nanoseconds.
    fn ns(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64
    }

    /// Spans closed.
    fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// Wall time of `f` in nanoseconds, with its result.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as f64)
}

/// The fast end of repeated timings: host interference only ever adds
/// time, so differences and ratios of whole-pass times compare minima.
fn fastest(values: &[f64]) -> f64 {
    quantile(values, 0.0)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Process CPU time (all threads, live and exited) in seconds, from the
/// 100 Hz tick counters of `/proc/self/stat`.
fn process_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let fields: Vec<&str> = s.rsplit_once(") ")?.1.split(' ').collect();
            let utime: f64 = fields.get(11)?.parse().ok()?;
            let stime: f64 = fields.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(f64::NAN)
}

// ----------------------------------------------------------- wrappers

/// Times every activation of the job it wraps. `as_any` delegates, so
/// `Cluster::job_as::<DiagJob>` and the property oracles still see the
/// inner job.
struct TimedJob {
    inner: Box<dyn Job>,
    span: Arc<Span>,
}

impl Job for TimedJob {
    fn execute(&mut self, ctx: &mut JobCtx<'_>) {
        let t = Instant::now();
        self.inner.execute(ctx);
        self.span.close(t);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}

/// Times the engine's once-per-slot `transmit_into` of the pipeline it
/// wraps.
struct TimedPipeline {
    inner: Box<dyn FaultPipeline>,
    span: Arc<Span>,
}

impl FaultPipeline for TimedPipeline {
    fn effect(&mut self, ctx: &TxCtx) -> SlotEffect {
        self.inner.effect(ctx)
    }

    fn transmit(&mut self, ctx: &TxCtx, payload: &Bytes) -> TxOutcome {
        self.inner.transmit(ctx, payload)
    }

    fn transmit_into(&mut self, ctx: &TxCtx, payload: &Bytes, out: &mut SlotOutcome) {
        let t = Instant::now();
        self.inner.transmit_into(ctx, payload, out);
        self.span.close(t);
    }
}

/// Times every round of the lockstep job it wraps.
struct TimedLockstep<'a> {
    inner: &'a mut BatchDiagJob,
    span: &'a Span,
}

impl LockstepJob for TimedLockstep<'_> {
    fn execute(&mut self, lanes: &mut BatchLanes) {
        let t = Instant::now();
        self.inner.execute(lanes);
        self.span.close(t);
    }
}

/// Span accumulators of the two sink wrappers.
#[derive(Debug, Default)]
struct SinkSpans {
    /// `MetricsSink::emit` calls.
    emit: Span,
    /// `TraceSink::span` calls.
    span: Span,
    /// Counter, gauge and histogram hooks.
    other: Span,
}

impl SinkSpans {
    fn events(&self) -> u64 {
        self.emit.calls() + self.span.calls()
    }

    fn ns(&self) -> f64 {
        self.emit.ns() + self.span.ns() + self.other.ns()
    }
}

/// Times every hook of the metrics sink it wraps.
struct TimedMetrics {
    inner: Arc<dyn MetricsSink>,
    spans: Arc<SinkSpans>,
}

impl MetricsSink for TimedMetrics {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.spans.other.time(|| self.inner.counter(name, delta));
    }

    fn gauge(&self, name: &'static str, value: i64) {
        self.spans.other.time(|| self.inner.gauge(name, value));
    }

    fn histogram(&self, name: &'static str, value: u64) {
        self.spans.other.time(|| self.inner.histogram(name, value));
    }

    fn emit(&self, event: &MetricsEvent) {
        self.spans.emit.time(|| self.inner.emit(event));
    }
}

/// Times every span the trace sink it wraps receives.
struct TimedTrace {
    inner: Arc<dyn TraceSink>,
    spans: Arc<SinkSpans>,
}

impl TraceSink for TimedTrace {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn span(&self, span: &SpanEvent) {
        self.spans.span.time(|| self.inner.span(span));
    }
}

/// `sinks` with both halves wrapped, reporting to `spans`.
fn timed_sinks(sinks: &ExperimentSinks, spans: &Arc<SinkSpans>) -> ExperimentSinks {
    ExperimentSinks {
        metrics: Arc::new(TimedMetrics {
            inner: Arc::clone(&sinks.metrics),
            spans: Arc::clone(spans),
        }),
        trace: Arc::new(TimedTrace {
            inner: Arc::clone(&sinks.trace),
            spans: Arc::clone(spans),
        }),
    }
}

// ------------------------------------------------------------ the run

/// Collects metrics and failures across the four traced workloads.
struct Report {
    outcome: Outcome,
}

impl Report {
    fn metric(&mut self, workload: &str, name: &str, value: f64, unit: &'static str) {
        self.outcome
            .metrics
            .push(Metric::new(format!("{workload}.{name}"), value, unit));
    }

    fn ops(&mut self, attempted: u64, failed: u64) {
        self.outcome.attempted += attempted;
        self.outcome.failed += failed;
    }

    /// Records a broken invariant of the traced run itself.
    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("perfbench: traced run check failed: {what}");
            self.outcome.correct = false;
        }
    }

    /// Allocation counts per operation of `f`, which completes `ops`.
    fn allocations(&mut self, workload: &str, ops: u64, f: impl FnOnce()) {
        let ((), count, bytes) = alloc::counting(f);
        self.metric(
            workload,
            "alloc.count_per_exp",
            count as f64 / ops as f64,
            "count",
        );
        self.metric(
            workload,
            "alloc.bytes_per_exp",
            bytes as f64 / ops as f64,
            "B",
        );
    }
}

/// Runs the traced analysis of all four workloads from `seed`. The work
/// is fixed, so that its counts repeat exactly; it does not depend on the
/// run length.
pub fn run(seed: u64, root: &Path) -> Outcome {
    let mut r = Report {
        outcome: Outcome {
            correct: true,
            ..Outcome::default()
        },
    };
    campaign_live(seed, &mut r);
    explore(seed, root, &mut r);
    sweep("sweep", sweep_config(derive_seed(seed, "sweep")), &mut r);
    sweep(
        "sweep-wide",
        sweep_wide_config(derive_seed(seed, "sweep-wide")),
        &mut r,
    );
    r.outcome.correct &= r.outcome.failed == 0;
    r.outcome
}

// ---------------------------------------------------------- campaign-live

/// Index of the class family in [`FAMILIES`].
fn family(class: &ExperimentClass) -> usize {
    match class {
        ExperimentClass::Burst { .. } => 0,
        ExperimentClass::PenaltyRewardStepping { .. } => 1,
        ExperimentClass::MaliciousSyndromes { .. } => 2,
        ExperimentClass::CliqueFormation { .. } => 3,
    }
}

const FAMILIES: [&str; 4] = ["burst", "pr_stepping", "malicious", "clique"];

/// One pass of the campaign's work list through `run_experiment_observed`
/// in the calling thread, each experiment timed into its class family;
/// returns the failed count.
fn campaign_inline(
    classes: &[ExperimentClass],
    base_seed: u64,
    sinks: &ExperimentSinks,
    families: &[Span; 4],
) -> u64 {
    let token = CancellationToken::new();
    let mut failed = 0;
    for (ci, class) in classes.iter().enumerate() {
        for rep in 0..CAMPAIGN_REPS {
            let seed = experiment_seed(base_seed, ci, rep);
            let t = Instant::now();
            let outcome = run_experiment_observed(*class, CAMPAIGN_N, seed, &token, sinks);
            families[family(class)].close(t);
            failed += u64::from(!outcome.is_some_and(|o| o.passed));
        }
    }
    failed
}

fn campaign_live(seed: u64, r: &mut Report) {
    const W: &str = "campaign-live";
    let base_seed = derive_seed(seed, W);
    let classes = sec8_classes(CAMPAIGN_N);
    let exps = classes.len() as u64 * CAMPAIGN_REPS;
    let supervised_trial = |live: LiveFeeds, feeds: &Feeds, drain: &Span| -> (f64, u64) {
        let (outcome, ns) = timed(|| {
            campaign_with(&classes, base_seed, live)
                .run(&NoHarnessFaults)
                .expect("no checkpoint path is configured")
        });
        drain.time(|| feeds.drain());
        let passed = outcome.result.outcomes.iter().filter(|o| o.passed).count() as u64;
        (ns, exps - passed)
    };
    let plain = Feeds::new();
    let traced_feeds = Feeds::new();
    let sink_spans = Arc::new(SinkSpans::default());
    let traced_live = LiveFeeds {
        sinks: timed_sinks(&traced_feeds.live.sinks, &sink_spans),
        ..traced_feeds.live.clone()
    };
    let untimed_drain = Span::default();
    let drain = Span::default();
    let families: [Span; 4] = Default::default();
    let (mut untraced, mut traced, mut inline) = (Vec::new(), Vec::new(), Vec::new());
    let mut failed = 0u64;

    // Interleaved, so that a slow period of the host hits all three alike:
    // the untraced supervised trial (the end-to-end workload), the same
    // trial with its sinks wrapped and its drain timed, and the same items
    // through `run_experiment_observed` in the calling thread with the
    // same unwrapped sinks. The campaign spawns its worker thread, so its
    // phases run on all allowed CPUs, unpinned.
    for _ in 0..CAMPAIGN_TRIALS {
        let (ns, f) = supervised_trial(plain.live.clone(), &plain, &untimed_drain);
        untraced.push(ns);
        failed += f;
        let (ns, f) = supervised_trial(traced_live.clone(), &traced_feeds, &drain);
        traced.push(ns);
        failed += f;
        let (f, ns) = timed(|| campaign_inline(&classes, base_seed, &plain.live.sinks, &families));
        plain.drain();
        inline.push(ns);
        failed += f;
    }

    // CPU time of a contiguous block of untraced supervised trials (the
    // tick counters are too coarse for single trials), then one counted
    // trial for the allocations.
    let cpu_before = process_cpu_seconds();
    for _ in 0..CAMPAIGN_TRIALS {
        failed += supervised_trial(plain.live.clone(), &plain, &untimed_drain).1;
    }
    let cpu = process_cpu_seconds() - cpu_before;
    r.allocations(W, exps, || {
        failed += supervised_trial(plain.live.clone(), &plain, &untimed_drain).1;
    });
    let dropped = traced_feeds.drain().1 + plain.drain().1;

    // The inline pass with wrapped sinks, for the layer sum.
    let traced_inline_spans = Arc::new(SinkSpans::default());
    let traced_inline_sinks = timed_sinks(&traced_feeds.live.sinks, &traced_inline_spans);
    let inline_families: [Span; 4] = Default::default();
    let inline_drain = Span::default();
    let (f, inline_wall) = timed(|| {
        (0..REPS)
            .map(|_| {
                let f =
                    campaign_inline(&classes, base_seed, &traced_inline_sinks, &inline_families);
                inline_drain.time(|| traced_feeds.drain());
                f
            })
            .sum::<u64>()
    });
    failed += f;
    r.ops(
        exps * (4 * CAMPAIGN_TRIALS as u64 + 1 + REPS as u64),
        failed,
    );

    let per_exp_us = |ns: f64| ns / exps as f64 / 1e3;
    let supervised = fastest(&untraced);
    r.metric(
        W,
        "supervised.overhead_us_per_exp",
        per_exp_us(supervised - fastest(&inline)),
        "us",
    );
    r.metric(
        W,
        "supervised.cpu_us_per_exp",
        cpu * 1e6 / (exps as f64 * CAMPAIGN_TRIALS as f64),
        "us",
    );
    for (name, span) in FAMILIES.iter().zip(&families) {
        r.metric(
            W,
            &format!("campaign.us_per_exp.{name}"),
            span.ns() / span.calls() as f64 / 1e3,
            "us",
        );
    }
    r.metric(W, "campaign.failed", failed as f64, "count");
    let traced_exps = (exps * CAMPAIGN_TRIALS as u64) as f64;
    r.metric(
        W,
        "sinks.events_per_exp",
        sink_spans.events() as f64 / traced_exps,
        "count",
    );
    r.metric(
        W,
        "sinks.ns_per_event",
        sink_spans.ns() / sink_spans.events() as f64,
        "ns",
    );
    r.metric(
        W,
        "sinks.share",
        sink_spans.ns() / traced.iter().sum::<f64>(),
        "ratio",
    );
    r.metric(
        W,
        "stream.drain_us_per_exp",
        drain.ns() / traced_exps / 1e3,
        "us",
    );
    r.metric(W, "stream.dropped", dropped as f64, "count");
    r.check(dropped == 0, "no live-feed frame dropped");
    r.metric(
        W,
        "trace.overhead_ratio",
        fastest(&traced) / supervised,
        "ratio",
    );
    // The supervised layer is defined by subtraction, so the layers that
    // can add up from their own spans are those of the inline pass.
    let inline_spans: f64 = inline_families.iter().map(Span::ns).sum::<f64>() + inline_drain.ns();
    r.metric(
        W,
        "layers.unattributed_share",
        1.0 - inline_spans / inline_wall,
        "ratio",
    );
}

// ---------------------------------------------------------------- explore

/// Layer spans of the rebuilt diag execution path.
#[derive(Debug, Default)]
struct DiagSpans {
    build: Span,
    run: Span,
    job: Arc<Span>,
    pipeline: Arc<Span>,
    oracles: Span,
}

/// The rounds Theorem 1 is owed on: the checkable prefix before the first
/// execution window outside the fault hypothesis, each isolated node
/// counting as a standing benign fault from its isolation decision on.
/// Rebuilt from the public fault counters; the traced run asserts it
/// reproduces `execute_schedule`'s verdict.
fn hypothesis_rounds(cluster: &Cluster, schedule: &FaultSchedule) -> Vec<RoundIndex> {
    let n = schedule.n;
    let mut iso: BTreeMap<usize, u64> = BTreeMap::new();
    for id in NodeId::all(n) {
        let job: &DiagJob = cluster.job_as(id).expect("every node runs a DiagJob");
        for ev in job.isolations() {
            let e = iso.entry(ev.node.index()).or_insert(u64::MAX);
            *e = (*e).min(ev.decided_at.as_u64());
        }
    }
    let trace = cluster.trace();
    let mut out = Vec::new();
    for r in checkable_rounds(schedule.rounds, LAG) {
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

/// The explorer's coverage fingerprint per diagnosed round: every node's
/// health vector and counters, the round index left out.
fn fingerprints(cluster: &Cluster, n: usize) -> Vec<u64> {
    let jobs: Vec<&DiagJob> = NodeId::all(n)
        .map(|id| cluster.job_as(id).expect("every node runs a DiagJob"))
        .collect();
    let steps = jobs.iter().map(|j| j.health_log().len()).max().unwrap_or(0);
    (0..steps)
        .map(|i| {
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
            h.finish()
        })
        .collect()
}

/// `execute_schedule` for a diag schedule, rebuilt from its public parts
/// with every layer timed.
fn rebuilt_diag(schedule: &FaultSchedule, s: &DiagSpans) -> ScheduleExec {
    let n = schedule.n;
    let mut cluster = s.build.time(|| {
        let cfg = ProtocolConfig::builder(n)
            .penalty_threshold(schedule.penalty_threshold)
            .reward_threshold(schedule.reward_threshold)
            .build()
            .expect("schedule carries a valid protocol config");
        let job_span = Arc::clone(&s.job);
        ClusterBuilder::new(n)
            .round_length(round_for(n))
            .build_with_jobs(
                move |id| {
                    Box::new(TimedJob {
                        inner: Box::new(DiagJob::new(id, cfg.clone()).with_counter_trace()),
                        span: Arc::clone(&job_span),
                    })
                },
                Box::new(TimedPipeline {
                    inner: schedule_pipeline(schedule),
                    span: Arc::clone(&s.pipeline),
                }),
            )
    });
    s.run.time(|| cluster.run_rounds(schedule.rounds));
    let verdict = s.oracles.time(|| {
        let all: Vec<NodeId> = NodeId::all(n).collect();
        let checked = hypothesis_rounds(&cluster, schedule);
        let all_within = checked.len() == checkable_rounds(schedule.rounds, LAG).count();
        let report = check_diag_cluster(&cluster, &all, checked);
        let counter_divergence = if all_within {
            check_counter_consistency(&cluster, &all)
                .iter()
                .map(|(a, b)| format!("counters diverge between {a} and {b}"))
                .collect()
        } else {
            Vec::new()
        };
        ScheduleVerdict {
            theorem1: report.violations.iter().map(|v| format!("{v:?}")).collect(),
            counter_divergence,
            alg2: check_alg2_cluster(&cluster, &all)
                .iter()
                .map(|v| format!("{v:?}"))
                .collect(),
            ..ScheduleVerdict::default()
        }
    });
    ScheduleExec {
        fingerprints: fingerprints(&cluster, n),
        verdict,
    }
}

/// Every schedule a session is known to have executed: its seeds plus the
/// corpus additions it reported, without repeats.
fn known_schedules(seeds: &[FaultSchedule], added: &[FaultSchedule]) -> Vec<FaultSchedule> {
    let mut ids = BTreeSet::new();
    seeds
        .iter()
        .chain(added)
        .filter(|s| ids.insert(s.id()))
        .cloned()
        .collect()
}

fn explore(seed: u64, root: &Path, r: &mut Report) {
    const W: &str = "explore";
    let explorer_seed = derive_seed(seed, W);

    let mut corpora = Vec::new();
    let loads: Vec<f64> = (0..REPS)
        .map(|_| {
            let (c, ns) = timed(|| crate::workloads::load_corpora(root));
            corpora = c;
            ns
        })
        .collect();
    r.metric(W, "corpus.load_ms", median(&loads) / 1e6, "ms");
    r.check(
        VARIANTS
            .iter()
            .all(|(_, dir)| load_corpus(&root.join(dir)).is_ok_and(|c| !c.is_empty())),
        "committed corpora present",
    );

    // The sessions through the library, every step timed.
    let mut rotation = CpuRotation::new(single_threaded(W));
    let steps: [Span; 3] = Default::default();
    let mut reports = Vec::new();
    for rep in 0..REPS {
        rotation.advance();
        let rs = {
            VARIANTS
                .iter()
                .zip(&corpora)
                .zip(&steps)
                .map(|(((protocol, _), seeds), span)| {
                    let mut session =
                        Explorer::new(&explore_config(explorer_seed, *protocol), seeds);
                    while span.time(|| session.step(&no_extra_oracle)) {}
                    session.into_report()
                })
                .collect::<Vec<_>>()
        };
        if rep == 0 {
            reports = rs;
        } else {
            r.check(
                rs.iter()
                    .zip(&reports)
                    .all(|(a, b)| a.executed == b.executed && a.corpus == b.corpus),
                "identical sessions",
            );
        }
    }
    let executed: u64 = reports.iter().map(|x| x.executed).sum();
    let counterexamples: u64 = reports.iter().map(|x| x.counterexamples.len() as u64).sum();
    r.ops(executed * REPS as u64, counterexamples * REPS as u64);
    for (((protocol, _), span), report) in VARIANTS.iter().zip(&steps).zip(&reports) {
        r.metric(
            W,
            &format!("explorer.us_per_step.{}", protocol.as_str()),
            span.ns() / report.executed as f64 / 1e3 / REPS as f64,
            "us",
        );
    }
    r.metric(
        W,
        "explorer.unique_states",
        reports.iter().map(|x| x.unique_states).sum::<u64>() as f64,
        "count",
    );
    r.metric(
        W,
        "explorer.novel_share",
        reports.iter().map(|x| x.corpus.len()).sum::<usize>() as f64 / executed as f64,
        "ratio",
    );
    r.metric(
        W,
        "explorer.counterexamples",
        counterexamples as f64,
        "count",
    );
    r.allocations(W, executed, || {
        for ((protocol, _), seeds) in VARIANTS.iter().zip(&corpora) {
            let mut session = Explorer::new(&explore_config(explorer_seed, *protocol), seeds);
            while session.step(&no_extra_oracle) {}
        }
    });

    // The rebuilt pass over every known schedule of the three sessions.
    let known: Vec<Vec<FaultSchedule>> = corpora
        .iter()
        .zip(&reports)
        .map(|(seeds, report)| known_schedules(seeds, &report.corpus))
        .collect();
    let all_known: Vec<&FaultSchedule> = known.iter().flatten().collect();
    let reference: Vec<ScheduleExec> = all_known.iter().map(|s| execute_schedule(s)).collect();
    let diag = DiagSpans::default();
    let membership = Span::default();
    let lowlat = Span::default();
    let mut traced_wall = Vec::new();
    let mut untraced_wall = Vec::new();
    let mut mismatched = 0u64;
    for _ in 0..REPS {
        rotation.advance();
        let (execs, ns) = timed(|| {
            all_known
                .iter()
                .map(|s| match s.protocol {
                    ProtocolUnderTest::Diag => rebuilt_diag(s, &diag),
                    ProtocolUnderTest::Membership => {
                        membership.time(|| execute_membership_schedule(s, &no_extra_oracle))
                    }
                    ProtocolUnderTest::Lowlat => lowlat.time(|| execute_lowlat_schedule(s)),
                })
                .collect::<Vec<_>>()
        });
        traced_wall.push(ns);
        mismatched += execs.iter().zip(&reference).filter(|(a, b)| a != b).count() as u64;
        let ((), ns) = timed(|| {
            for s in &all_known {
                std::hint::black_box(execute_schedule(s));
            }
        });
        untraced_wall.push(ns);
    }
    rotation.release();
    r.check(
        mismatched == 0,
        "rebuilt diag path reproduces execute_schedule",
    );
    r.ops(
        (all_known.len() * REPS) as u64,
        mismatched + reference.iter().filter(|e| !e.verdict.ok()).count() as u64,
    );

    let diag_known: Vec<&&FaultSchedule> = all_known
        .iter()
        .filter(|s| s.protocol == ProtocolUnderTest::Diag)
        .collect();
    let diag_count = (diag_known.len() * REPS) as f64;
    let rounds = diag_known.iter().map(|s| s.rounds).sum::<u64>() * REPS as u64;
    let engine_self = diag.run.ns() - diag.job.ns() - diag.pipeline.ns();
    r.metric(
        W,
        "engine.build_us",
        diag.build.ns() / diag_count / 1e3,
        "us",
    );
    r.metric(
        W,
        "engine.ns_per_cluster_round",
        engine_self / rounds as f64,
        "ns",
    );
    r.metric(W, "engine.rounds", (rounds / REPS as u64) as f64, "count");
    r.metric(
        W,
        "diagjob.ns_per_activation",
        diag.job.ns() / diag.job.calls() as f64,
        "ns",
    );
    r.metric(
        W,
        "diagjob.activations",
        (diag.job.calls() / REPS as u64) as f64,
        "count",
    );
    r.metric(
        W,
        "pipeline.ns_per_slot",
        diag.pipeline.ns() / diag.pipeline.calls() as f64,
        "ns",
    );
    r.metric(
        W,
        "oracles.us_per_schedule",
        diag.oracles.ns() / diag_count / 1e3,
        "us",
    );
    r.metric(
        W,
        "membership.us_per_schedule",
        membership.ns() / membership.calls() as f64 / 1e3,
        "us",
    );
    r.metric(
        W,
        "lowlat.us_per_schedule",
        lowlat.ns() / lowlat.calls() as f64 / 1e3,
        "us",
    );
    let traced_total: f64 = traced_wall.iter().sum();
    r.metric(
        W,
        "trace.overhead_ratio",
        fastest(&traced_wall) / fastest(&untraced_wall),
        "ratio",
    );
    let layers = diag.build.ns()
        + engine_self
        + diag.job.ns()
        + diag.pipeline.ns()
        + diag.oracles.ns()
        + membership.ns()
        + lowlat.ns();
    r.metric(
        W,
        "layers.unattributed_share",
        1.0 - layers / traced_total,
        "ratio",
    );
}

// ------------------------------------------------------------------ sweep

/// Layer spans of the rebuilt `run_sweep` steps.
#[derive(Debug, Default)]
struct LockstepSpans {
    sampled: Span,
    lane_plan: Span,
    batch_new: Span,
    job_new: Span,
    run: Span,
    /// `BatchDiagJob::execute`, per cluster size.
    job: BTreeMap<usize, Span>,
    lane_rounds: BTreeMap<usize, u64>,
    /// The per-cell fold of observations into estimates.
    fold: Span,
}

/// `IsolationLatency::of`, which the library keeps private.
fn isolation_latency(samples: &[f64], round_seconds: f64) -> Option<IsolationLatency> {
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

/// The fold `run_sweep` applies to one cell's experiments, rebuilt from
/// the public estimators; the traced run asserts it reproduces the
/// library's estimate.
fn fold_cell(
    cell: &SweepCell,
    schedules: &[FaultSchedule],
    observations: &[ScheduleObservation],
) -> CellEstimate {
    let round = round_for(cell.n);
    let max_arrival = max_fault_round(cell.rounds);
    let measurable = cell.correlation_measurable();
    let (mut arrivals, mut false_isolated, mut forgiveness) = (0, 0, 0);
    let (mut corr_trials, mut corr_hits) = (0, 0);
    let (mut tti_false, mut tti_correct) = (Vec::new(), Vec::new());
    for (schedule, obs) in schedules.iter().zip(observations) {
        arrivals += victim_arrivals(schedule);
        let first = first_victim_arrival(schedule);
        let victim_iso = obs.isolation_of(0);
        if let Some(iso) = victim_iso {
            false_isolated += 1;
            let a = first.expect("an isolated victim was struck at least once");
            tti_false.push((iso.decided_at - a) as f64);
        }
        if let Some(a) =
            first.filter(|a| measurable && a.saturating_add(cell.reward_threshold) <= max_arrival)
        {
            corr_trials += 1;
            corr_hits +=
                u64::from(victim_iso.is_some_and(|iso| iso.diagnosed <= a + cell.reward_threshold));
        }
        if cell.intermittent_period > 0 {
            if let Some(iso) = obs.isolation_of(1) {
                tti_correct.push((iso.decided_at - MIN_FAULT_ROUND) as f64);
            }
        }
        forgiveness += obs.forgiveness;
    }
    let experiments = schedules.len() as u64;
    let round_seconds = round.as_secs_f64();
    CellEstimate {
        experiments,
        arrivals,
        false_isolation: Proportion::of(false_isolated, experiments),
        correlation: measurable.then(|| CorrelationEstimate {
            measured: Proportion::of(corr_hits, corr_trials),
            analytic: correlation_probability(cell.rate_per_hour, cell.reward_threshold, round),
        }),
        time_to_false_isolation: isolation_latency(&tti_false, round_seconds),
        false_isolation_deciles: if tti_false.is_empty() {
            Vec::new()
        } else {
            (1..=10)
                .map(|d| percentile(&tti_false, f64::from(d) * 10.0).expect("non-empty"))
                .collect()
        },
        time_to_correct_isolation: isolation_latency(&tti_correct, round_seconds),
        forgiveness,
        reintegrations: 0,
        batched: true,
    }
}

/// One pass over the grid through the rebuilt steps of `run_sweep`;
/// returns the observations and the estimate of every cell.
fn rebuilt_sweep(
    config: &SweepConfig,
    s: &mut LockstepSpans,
) -> Vec<(Vec<ScheduleObservation>, CellEstimate)> {
    let mut out = Vec::new();
    for cell in config.cells() {
        let crit = vec![cell.criticality; cell.n];
        let mut batches = cell_batches(config, &cell);
        let mut cell_schedules = Vec::new();
        let mut cell_obs = Vec::new();
        while let Some(schedules) = s.sampled.time(|| batches.next()) {
            let (plans, params) = s.lane_plan.time(|| {
                let plans: Vec<_> = schedules.iter().map(lane_plan).collect();
                let params: Vec<_> = schedules.iter().map(lane_params).collect();
                (plans, params)
            });
            let rounds: Vec<u64> = schedules.iter().map(|x| x.rounds).collect();
            let mut batch = s
                .batch_new
                .time(|| BatchCluster::new(cell.n, plans))
                .expect("benchmark cells fit the lockstep engine");
            let mut job = s
                .job_new
                .time(|| BatchDiagJob::new(cell.n, &params).with_criticalities(crit.clone()));
            let job_span = s.job.entry(cell.n).or_default();
            s.run.time(|| {
                batch.run_lane_rounds(
                    &rounds,
                    &mut TimedLockstep {
                        inner: &mut job,
                        span: job_span,
                    },
                )
            });
            *s.lane_rounds.entry(cell.n).or_default() += rounds.iter().sum::<u64>();
            let observer = cell.n - 1;
            cell_obs.extend((0..schedules.len()).map(|lane| {
                ScheduleObservation {
                    isolations: job
                        .isolation_events(lane, observer)
                        .iter()
                        .map(|ev| ObservedIsolation {
                            subject: ev.node.index(),
                            diagnosed: ev.diagnosed.as_u64(),
                            decided_at: ev.decided_at.as_u64(),
                        })
                        .collect(),
                    forgiveness: job.forgiveness(lane),
                }
            }));
            cell_schedules.extend(schedules);
        }
        let estimate = s.fold.time(|| fold_cell(&cell, &cell_schedules, &cell_obs));
        out.push((cell_obs, estimate));
    }
    out
}

/// The library's observations of the same grid.
fn library_observations(config: &SweepConfig) -> Vec<Vec<ScheduleObservation>> {
    config
        .cells()
        .iter()
        .map(|cell| {
            let crit = vec![cell.criticality; cell.n];
            cell_batches(config, cell)
                .flat_map(|schedules| {
                    observe_schedules_batched(&schedules, &crit)
                        .expect("benchmark cells fit the lockstep engine")
                })
                .collect()
        })
        .collect()
}

fn sweep(w: &str, config: SweepConfig, r: &mut Report) {
    let cells = config.cells().len() as f64;
    let exps = cells as u64 * config.experiments;
    let run = || {
        run_sweep(&config, &SweepSupervisor::default())
            .expect("a validated grid without checkpoints cannot fail")
    };
    let reference = run();
    let unbatched = reference
        .report
        .cells
        .iter()
        .filter(|c| !c.estimate.batched)
        .count() as u64;
    r.allocations(w, exps, || {
        std::hint::black_box(run());
    });

    // Interleaved, so that a slow period of the host hits both alike: the
    // sweep through the library, and the same sweep rebuilt from its steps
    // with every layer timed.
    let library = library_observations(&config);
    let mut spans = LockstepSpans::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut mismatched = 0u64;
    let mut rotation = CpuRotation::new(single_threaded(w));
    for _ in 0..REPS {
        rotation.advance();
        let (outcome, ns) = timed(run);
        untraced.push(ns);
        mismatched += u64::from(outcome.report != reference.report) * exps;
        let (rebuilt, ns) = timed(|| rebuilt_sweep(&config, &mut spans));
        traced.push(ns);
        for (((obs, estimate), lib_obs), lib_cell) in
            rebuilt.iter().zip(&library).zip(&reference.report.cells)
        {
            mismatched += obs.iter().zip(lib_obs).filter(|(a, b)| a != b).count() as u64;
            mismatched += u64::from(*estimate != lib_cell.estimate) * config.experiments;
        }
    }
    rotation.release();
    r.check(
        mismatched == 0,
        "rebuilt sweep steps reproduce the library's observations and estimates",
    );
    r.ops(
        exps * (1 + 2 * REPS as u64),
        mismatched + unbatched * config.experiments,
    );

    let schedules = (exps * REPS as u64) as f64;
    r.metric(
        w,
        "sampled.us_per_schedule",
        spans.sampled.ns() / schedules / 1e3,
        "us",
    );
    r.metric(
        w,
        "lane_plan.us_per_schedule",
        spans.lane_plan.ns() / schedules / 1e3,
        "us",
    );
    r.metric(
        w,
        "batch.new_us",
        spans.batch_new.ns() / spans.batch_new.calls() as f64 / 1e3,
        "us",
    );
    let job_ns: f64 = spans.job.values().map(Span::ns).sum();
    let lane_rounds: u64 = spans.lane_rounds.values().sum();
    r.metric(
        w,
        "batch.engine_ns_per_lane_round",
        (spans.run.ns() - job_ns) / lane_rounds as f64,
        "ns",
    );
    r.metric(
        w,
        "batch.lane_rounds",
        (lane_rounds / REPS as u64) as f64,
        "count",
    );
    for (n, span) in &spans.job {
        r.metric(
            w,
            &format!("batchjob.ns_per_lane_round.n{n}"),
            span.ns() / spans.lane_rounds[n] as f64,
            "ns",
        );
    }
    r.metric(
        w,
        "sweep.fold_us_per_cell",
        spans.fold.ns() / spans.fold.calls() as f64 / 1e3,
        "us",
    );
    r.metric(
        w,
        "trace.overhead_ratio",
        fastest(&traced) / fastest(&untraced),
        "ratio",
    );
    let layers = spans.sampled.ns()
        + spans.lane_plan.ns()
        + spans.batch_new.ns()
        + spans.job_new.ns()
        + spans.run.ns()
        + spans.fold.ns();
    r.metric(
        w,
        "layers.unattributed_share",
        1.0 - layers / traced.iter().sum::<f64>(),
        "ratio",
    );
}
