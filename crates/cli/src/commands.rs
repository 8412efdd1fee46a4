//! Execution of the parsed `ttdiag` commands.

use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;

use tt_analysis::{
    aerospace_setup, automotive_setup, availability_of, check_analytic_agreement, fig3_csv,
    group_chains, isolation_csv, measure_time_to_isolation, render_explore_summary,
    render_provenance_summary, render_supervision_summary, render_sweep_summary, resume_sweep,
    run_sweep, safety_curve_csv, spans_to_jsonl, spans_to_perfetto, sweep_json, tune, DomainSetup,
    LatencySummary, SweepCheckpoint, SweepSupervisor, Table, LATENCY_BOUND_ROUNDS,
};
use tt_bench::{SupervisedCampaign, SupervisorConfig};
use tt_core::properties::{check_diag_cluster, checkable_rounds};
use tt_core::{DiagJob, ProtocolConfig};
use tt_fault::{
    sec8_classes, AsymmetricDisturbance, Burst, ContinuousFault, DisturbanceNode,
    IntermittentFault, RandomNoise, TransientScenario,
};
use tt_sim::{
    timeline, Cluster, ClusterBuilder, FaultPipeline, Nanos, NodeId, RecordingTraceSink,
    RoundIndex, TraceMode,
};

use crate::args::{
    CampaignOpts, ClusterOpts, Command, ExploreOpts, FaultOpts, FaultSpec, MetricsFormat,
    MetricsOpts, ReplayOpts, TraceFormat, TraceOpts, TuneSweepOpts,
};

/// Why a command failed, mapped onto the process exit code: the failure
/// taxonomy distinguishes "you asked for something invalid" from "the
/// protocol check failed" from "the harness itself broke", so scripts and
/// CI can react to each differently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Semantically invalid arguments or argument combinations (exit 2,
    /// like parse errors).
    Usage(String),
    /// A protocol check failed: a campaign experiment failed, the explorer
    /// found a surviving counterexample, or a latency bound was violated
    /// (exit 1). The message carries the full report.
    Counterexample(String),
    /// The harness itself failed — I/O, serialization — rather than the
    /// system under test (exit 101, mirroring a Rust panic).
    Internal(String),
}

impl CliError {
    /// The process exit code this failure maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Counterexample(_) => 1,
            CliError::Internal(_) => 101,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Counterexample(msg) | CliError::Internal(msg) => {
                write!(f, "{msg}")
            }
        }
    }
}

impl std::error::Error for CliError {}

pub(crate) fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

pub(crate) fn internal(msg: impl Into<String>) -> CliError {
    CliError::Internal(msg.into())
}

/// Runs a command, returning the text to print or a typed failure.
pub fn run(cmd: Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(crate::args::USAGE.to_string()),
        Command::Serve { socket, state } => crate::serve::serve(&socket, &state),
        Command::Submit { socket, spec } => crate::serve::submit(&socket, spec),
        Command::Job { socket, op } => crate::serve::job(&socket, op),
        Command::Watch { socket, job } => crate::serve::watch(&socket, job),
        Command::Tail {
            socket,
            feed,
            max,
            capacity,
        } => crate::serve::tail(&socket, feed, max, capacity),
        Command::Shutdown { socket } => crate::serve::shutdown(&socket),
        Command::NetRun(o) => crate::net::net_run(&o),
        Command::NetNode(o) => crate::net::net_node(&o),
        Command::Tune { domain } => tune_report(&domain),
        Command::Isolation { domain } => isolation_report(&domain),
        Command::TuneSweep(o) => tune_sweep(&o),
        Command::Campaign(o) => campaign(&o),
        Command::Explore(o) => explore(&o),
        Command::Simulate(o) => {
            let pipeline = build_pipeline(&o.faults, o.cluster.nodes)?;
            simulate(
                &o.cluster,
                o.timeline,
                Box::new(pipeline),
                o.record.as_deref(),
            )
        }
        Command::Replay(o) => replay(&o),
        Command::Metrics(o) => metrics(&o),
        Command::Trace(o) => trace(&o),
    }
}

fn round_for(n: usize) -> Nanos {
    Nanos::from_nanos(2_500_000 - (2_500_000 % n as u64))
}

fn build_pipeline(faults: &FaultOpts, n: usize) -> Result<DisturbanceNode, CliError> {
    let sched =
        tt_sim::CommunicationSchedule::new(n, round_for(n)).map_err(|e| usage(e.to_string()))?;
    let mut node = DisturbanceNode::new(faults.seed);
    for f in &faults.faults {
        match f {
            FaultSpec::Crash { node: id, round } => {
                if *id as usize > n {
                    return Err(usage(format!("crash: node {id} exceeds cluster size {n}")));
                }
                node.push(ContinuousFault::new(
                    NodeId::new(*id),
                    RoundIndex::new(*round),
                ));
            }
            FaultSpec::Intermittent {
                node: id,
                round,
                period,
            } => {
                if *id as usize > n {
                    return Err(usage(format!(
                        "intermittent: node {id} exceeds cluster size {n}"
                    )));
                }
                node.push(IntermittentFault::new(
                    NodeId::new(*id),
                    RoundIndex::new(*round),
                    *period,
                ));
            }
            FaultSpec::Burst { len, round, slot } => {
                if *slot >= n {
                    return Err(usage(format!(
                        "burst: slot {slot} exceeds cluster size {n}"
                    )));
                }
                node.push(Burst::in_round(RoundIndex::new(*round), *slot, *len, n));
            }
            FaultSpec::Noise { p } => node.push(RandomNoise::everywhere(*p)),
            FaultSpec::Asym {
                node: id,
                round,
                detected_by,
            } => {
                if *id as usize > n || detected_by.iter().any(|&r| r >= n) {
                    return Err(usage("asym: node or receiver out of range"));
                }
                node.push(AsymmetricDisturbance::new(
                    NodeId::new(*id),
                    RoundIndex::new(*round),
                    1,
                    tt_fault::malicious::AsymmetricTarget::Fixed(detected_by.clone()),
                ));
            }
            FaultSpec::Scenario { name } => {
                let scenario = match name.as_str() {
                    "blinking" => TransientScenario::blinking_light(),
                    _ => TransientScenario::lightning_bolt(),
                };
                node.push(scenario.to_disturbance(&sched, Nanos::ZERO));
            }
        }
    }
    Ok(node)
}

/// Builds and runs the `DiagJob` cluster behind `simulate`, `replay`,
/// `metrics` and `trace`; `attach` adds the command's sinks and trace mode.
fn run_diag_cluster(
    c: &ClusterOpts,
    attach: impl FnOnce(ClusterBuilder) -> ClusterBuilder,
    pipeline: Box<dyn FaultPipeline>,
) -> Result<Cluster, CliError> {
    let config = ProtocolConfig::builder(c.nodes)
        .penalty_threshold(c.penalty)
        .reward_threshold(c.reward)
        .build()
        .map_err(|e| usage(e.to_string()))?;
    let mut cluster = attach(ClusterBuilder::new(c.nodes).round_length(round_for(c.nodes)))
        .build_with_jobs(|id| Box::new(DiagJob::new(id, config.clone())), pipeline);
    cluster.run_rounds(c.rounds);
    Ok(cluster)
}

fn simulate(
    c: &ClusterOpts,
    show_timeline: bool,
    pipeline: Box<dyn FaultPipeline>,
    record: Option<&str>,
) -> Result<String, CliError> {
    let (n, rounds) = (c.nodes, c.rounds);
    let cluster = run_diag_cluster(c, |b| b.trace_mode(TraceMode::Anomalies), pipeline)?;
    let mut out = format!(
        "{n}-node cluster, {rounds} rounds of {}, P = {}, R = {}\n\n",
        round_for(n),
        c.penalty,
        c.reward
    );
    let trace = cluster.trace();
    out.push_str(&format!(
        "Faulty slots on the bus: {}\n",
        trace.records().len()
    ));
    if show_timeline && !trace.records().is_empty() {
        out.push('\n');
        out.push_str(&timeline::render_anomalies(trace, n, 1));
        out.push('\n');
    }
    let diag: &DiagJob = cluster
        .job_as(NodeId::new(1))
        .map_err(|e| internal(e.to_string()))?;
    let mut t = Table::new(vec!["Node", "Active", "Penalty", "Reward", "Availability"]);
    let avail = availability_of(diag, rounds);
    for id in NodeId::all(n) {
        t.row(vec![
            id.to_string(),
            if diag.is_active(id) {
                "yes"
            } else {
                "ISOLATED"
            }
            .to_string(),
            diag.penalty(id).to_string(),
            diag.reward(id).to_string(),
            format!("{:.1}%", avail.nodes[id.index()].fraction() * 100.0),
        ]);
    }
    out.push_str(&t.render());
    for iso in diag.isolations() {
        out.push_str(&format!(
            "\nisolated {} at round {} (fault diagnosed in round {})",
            iso.node,
            iso.decided_at.as_u64(),
            iso.diagnosed.as_u64()
        ));
    }
    // Run the Theorem 1 oracles over the run as a free sanity check.
    let all: Vec<NodeId> = NodeId::all(n).collect();
    let report = check_diag_cluster(&cluster, &all, checkable_rounds(rounds, 3));
    out.push_str(&format!(
        "\n\nTheorem 1 oracles: {} rounds checked, {} out of hypothesis, {} violations\n",
        report.rounds_checked,
        report.rounds_out_of_hypothesis,
        report.violations.len()
    ));
    if let Some(path) = record {
        out.push_str(&record_fault_trace(cluster.trace(), path)?);
    }
    Ok(out)
}

fn replay(o: &ReplayOpts) -> Result<String, CliError> {
    let (trace, nodes) = (&o.trace, o.cluster.nodes);
    let body =
        std::fs::read_to_string(trace).map_err(|e| internal(format!("reading {trace}: {e}")))?;
    let restored: tt_sim::Trace =
        serde_json::from_str(&body).map_err(|e| internal(format!("parsing {trace}: {e}")))?;
    // A sender outside the cluster never transmits, so its faults would
    // vanish from the replay without a trace of it.
    if let Some(sender) = restored
        .records()
        .iter()
        .map(|r| r.sender)
        .filter(|s| s.index() >= nodes)
        .max_by_key(|s| s.index())
    {
        return Err(usage(format!(
            "replay: {trace} records sender node {} but --nodes is {nodes}; \
             replay it with --nodes {} or more",
            sender.index() + 1,
            sender.index() + 1
        )));
    }
    let pipeline = Box::new(restored.replay_pipeline());
    simulate(&o.cluster, o.timeline, pipeline, None)
}

/// Serializes a cluster's fault trace to `path` — the single implementation
/// behind both `simulate --record` and `metrics --record`.
fn record_fault_trace(trace: &tt_sim::Trace, path: &str) -> Result<String, CliError> {
    let body = serde_json::to_string_pretty(trace).map_err(|e| internal(e.to_string()))?;
    std::fs::write(path, body).map_err(|e| internal(format!("writing {path}: {e}")))?;
    Ok(format!(
        "\nrecorded fault trace to {path} (replay with `ttdiag replay {path}`)\n"
    ))
}

fn metrics(o: &MetricsOpts) -> Result<String, CliError> {
    let pipeline = build_pipeline(&o.faults, o.cluster.nodes)?;
    let sink = std::sync::Arc::new(tt_sim::RecordingSink::new());
    // Both sides of the bus report into the same sink: the disturbance node
    // counts injected effects, the cluster records protocol-level events.
    let pipeline = Box::new(pipeline.with_metrics(sink.clone()));
    let cluster = run_diag_cluster(
        &o.cluster,
        |b| {
            let b = b.metrics_sink(sink.clone());
            // Recording needs the bus-level fault trace alongside the
            // metrics.
            if o.record.is_some() {
                b.trace_mode(TraceMode::Anomalies)
            } else {
                b
            }
        },
        pipeline,
    )?;

    let report = sink.report();
    let mut body = match o.format {
        MetricsFormat::Json => {
            serde_json::to_string_pretty(&report).map_err(|e| internal(e.to_string()))?
        }
        MetricsFormat::Csv => tt_analysis::events_to_csv(&report.events),
        MetricsFormat::Summary => tt_analysis::render_summary(&report),
    };
    let recorded = match &o.record {
        Some(path) => record_fault_trace(cluster.trace(), path)?,
        None => String::new(),
    };
    match &o.out {
        Some(path) => {
            std::fs::write(path, &body).map_err(|e| internal(format!("writing {path}: {e}")))?;
            Ok(format!(
                "wrote {} events ({} bytes) to {path}\n{recorded}",
                report.events.len(),
                body.len()
            ))
        }
        None => {
            body.push_str(&recorded);
            Ok(body)
        }
    }
}

fn trace(o: &TraceOpts) -> Result<String, CliError> {
    let pipeline = Box::new(build_pipeline(&o.faults, o.cluster.nodes)?);
    let sink = std::sync::Arc::new(RecordingTraceSink::new());
    run_diag_cluster(&o.cluster, |b| b.trace_sink(sink.clone()), pipeline)?;

    let spans = sink.spans();
    let body = match o.format {
        TraceFormat::Jsonl => spans_to_jsonl(&spans),
        TraceFormat::Perfetto => spans_to_perfetto(&spans, round_for(o.cluster.nodes)),
        TraceFormat::Summary => {
            let chains = group_chains(&spans);
            let mut s = render_provenance_summary(&chains);
            match LatencySummary::check_bound(&chains, LATENCY_BOUND_ROUNDS) {
                Ok(_) => s.push_str(&format!(
                    "\nall diagnosed faults within the {LATENCY_BOUND_ROUNDS}-round bound\n"
                )),
                Err(violations) => {
                    return Err(CliError::Counterexample(format!(
                        "{s}\nlatency bound of {LATENCY_BOUND_ROUNDS} rounds violated for {} \
                         chain(s)",
                        violations.len()
                    )))
                }
            }
            s
        }
    };
    match &o.out {
        Some(path) => {
            std::fs::write(path, &body).map_err(|e| internal(format!("writing {path}: {e}")))?;
            Ok(format!(
                "wrote {} spans ({} bytes) to {path}\n",
                spans.len(),
                body.len()
            ))
        }
        None => Ok(body),
    }
}

/// The one domain-token validation behind `tune` and `isolation`: the
/// parser passes any token through, and an unknown one fails here as a
/// usage error (exit 2) rather than silently falling back to a default.
fn domain_setup(domain: &str) -> Result<DomainSetup, CliError> {
    match domain {
        "automotive" => Ok(automotive_setup()),
        "aerospace" => Ok(aerospace_setup()),
        other => Err(usage(format!(
            "unknown domain {other:?} (automotive|aerospace)"
        ))),
    }
}

fn tune_report(domain: &str) -> Result<String, CliError> {
    let setup = domain_setup(domain)?;
    let tuned = tune(&setup);
    let mut out = format!("{} tuning (paper Table 2 procedure):\n\n", tuned.domain);
    let mut t = Table::new(vec![
        "Criticality class",
        "Tolerated outage",
        "Penalty budget",
        "s_i",
    ]);
    for row in &tuned.rows {
        t.row(vec![
            row.class.name.clone(),
            format!("{}", row.class.tolerated_outage),
            row.penalty_budget.to_string(),
            row.criticality.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nP = {}   R = {:.0e}   T = {}\n",
        tuned.penalty_threshold, tuned.reward_threshold as f64, tuned.round
    ));
    Ok(out)
}

fn isolation_report(domain: &str) -> Result<String, CliError> {
    let setup = domain_setup(domain)?;
    let (scenario, paper) = if domain == "aerospace" {
        (TransientScenario::lightning_bolt(), vec!["0.205 s"])
    } else {
        (
            TransientScenario::blinking_light(),
            vec!["0.518 s", "4.595 s", "24.475 s"],
        )
    };
    let tuned = tune(&setup);
    let mut out = format!(
        "{} — time to incorrect isolation under \"{}\":\n\n",
        tuned.domain,
        scenario.name()
    );
    let mut t = Table::new(vec!["Class", "s_i", "Measured", "Paper"]);
    for (row, paper_val) in tuned.rows.iter().zip(paper) {
        let m = measure_time_to_isolation(
            &scenario,
            row.criticality,
            tuned.penalty_threshold,
            tuned.reward_threshold,
            tuned.round,
            setup.n_nodes,
        );
        t.row(vec![
            row.class.name.clone(),
            row.criticality.to_string(),
            m.time_to_isolation
                .map(|d| format!("{:.3} s", d.as_secs_f64()))
                .unwrap_or_else(|| "never".into()),
            paper_val.to_string(),
        ]);
    }
    out.push_str(&t.render());
    Ok(out)
}

fn tune_sweep(o: &TuneSweepOpts) -> Result<String, CliError> {
    let supervisor = SweepSupervisor {
        checkpoint_path: o.checkpoint.path.as_ref().map(PathBuf::from),
        halt_after_cells: o.halt_after,
    };
    let map_sweep_err = |e: std::io::Error| match e.kind() {
        std::io::ErrorKind::InvalidInput | std::io::ErrorKind::InvalidData => usage(e.to_string()),
        _ => internal(e.to_string()),
    };
    // A resumed sweep carries its grid in the checkpoint; command-line grid
    // flags apply only to fresh runs (mirroring `campaign` and `explore`).
    let outcome = match o.checkpoint.resume_from() {
        Some(path) => {
            let cp: SweepCheckpoint = tt_fault::read_json(Path::new(path))
                .map_err(|e| internal(format!("reading checkpoint {path}: {e}")))?;
            resume_sweep(cp, &supervisor).map_err(map_sweep_err)?
        }
        None => run_sweep(&o.config, &supervisor).map_err(map_sweep_err)?,
    };
    let report = &outcome.report;
    let mut out = render_sweep_summary(report);
    if let Some(path) = &o.json {
        std::fs::write(path, sweep_json(report))
            .map_err(|e| internal(format!("writing {path}: {e}")))?;
        out.push_str(&format!("\nwrote sweep report to {path}\n"));
    }
    if let Some(dir) = &o.csv_dir {
        let dir = Path::new(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| internal(format!("creating {}: {e}", dir.display())))?;
        for (name, body) in [
            ("fig3_boundary.csv", fig3_csv(report)),
            ("isolation.csv", isolation_csv(report)),
            ("safety_curves.csv", safety_curve_csv(report)),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, body)
                .map_err(|e| internal(format!("writing {}: {e}", path.display())))?;
        }
        out.push_str(&format!("\nwrote CSV tables to {}\n", dir.display()));
    }
    if outcome.halted {
        out.push_str(&format!(
            "\nhalted after {}/{} cells; resume with --resume --checkpoint PATH\n",
            report.cells.len(),
            outcome.total_cells
        ));
        // An incomplete grid has nothing final to check against.
        return Ok(out);
    }
    if o.check {
        if let Err(disagreement) = check_analytic_agreement(report) {
            return Err(CliError::Counterexample(format!("{out}\n{disagreement}")));
        }
    }
    Ok(out)
}

/// The serialized form of a campaign report (`campaign --json`).
/// Owned fields: the vendored serde derive does not support generics.
#[derive(serde::Serialize)]
struct CampaignJson {
    result: tt_fault::CampaignResult,
    supervision: tt_fault::SupervisionSummary,
}

fn campaign(o: &CampaignOpts) -> Result<String, CliError> {
    let classes = sec8_classes(4);
    let base_seed = 2_007;
    // Injected hangs would spin forever without a deadline; an explicit
    // watchdog always wins, otherwise chaos hangs get a 1 s default.
    let watchdog = o
        .watchdog_ms
        .map(Duration::from_millis)
        .or_else(|| (o.chaos.hang_per_mille > 0).then(|| Duration::from_millis(1_000)));
    let supervised = SupervisedCampaign {
        classes: &classes,
        n: 4,
        reps: o.reps,
        base_seed,
        config: SupervisorConfig {
            threads: o.threads,
            watchdog,
            checkpoint_every: o.checkpoint_every as usize,
            checkpoint_path: o.checkpoint.path.as_ref().map(PathBuf::from),
            halt_after: o.halt_after,
            ..SupervisorConfig::default()
        },
    };
    let outcome = match o.checkpoint.resume_from() {
        Some(path) => {
            let cp = tt_fault::read_json(Path::new(path))
                .map_err(|e| internal(format!("reading checkpoint {path}: {e}")))?;
            supervised.run_resumed(&o.chaos, &cp).map_err(|e| {
                if e.kind() == std::io::ErrorKind::InvalidInput {
                    usage(format!("checkpoint {path}: {e}"))
                } else {
                    internal(e.to_string())
                }
            })?
        }
        None => supervised
            .run(&o.chaos)
            .map_err(|e| internal(format!("writing checkpoint: {e}")))?,
    };
    let result = &outcome.result;
    let quarantined = outcome.supervision.quarantined.len();
    let mut out = format!(
        "Sec. 8 campaign: {} classes x {} = {} injections; {} completed, {} quarantined; \
         all passed: {}\n\n",
        classes.len(),
        o.reps,
        classes.len() as u64 * o.reps,
        result.total(),
        quarantined,
        result.all_passed()
    );
    let mut t = Table::new(vec!["Class", "Passed", "Total"]);
    for (label, passed, total) in result.summary() {
        t.row(vec![label, passed.to_string(), total.to_string()]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(&render_supervision_summary(&outcome.supervision));
    if outcome.halted {
        out.push_str("\nhalted early; resume with --resume --checkpoint PATH\n");
    }
    if let Some(path) = &o.json {
        let body = serde_json::to_string_pretty(&CampaignJson {
            result: result.clone(),
            supervision: outcome.supervision.clone(),
        })
        .map_err(|e| internal(e.to_string()))?;
        std::fs::write(path, body).map_err(|e| internal(format!("writing {path}: {e}")))?;
        out.push_str(&format!("\nwrote per-experiment outcomes to {path}\n"));
    }
    // Quarantined experiments are reported, not fatal (the campaign ran
    // them as far as the supervision policy allows); a *completed*
    // experiment that failed its oracle is a real counterexample.
    if !result.all_passed() {
        return Err(CliError::Counterexample(out));
    }
    Ok(out)
}

fn explore(o: &ExploreOpts) -> Result<String, CliError> {
    use tt_fault::explore::{load_corpus, no_extra_oracle, save_schedule, Explorer};
    use tt_fault::{write_json_atomic, ExploreCheckpoint};
    let seeds: Vec<_> = match &o.corpus {
        Some(dir) => load_corpus(Path::new(dir))
            .map_err(|e| internal(format!("loading corpus {dir}: {e}")))?
            .into_iter()
            .map(|(_, s)| s)
            .collect(),
        None => Vec::new(),
    };
    let started = std::time::Instant::now();
    // A resumed session carries its own parameters, coverage set, and RNG
    // position; command-line exploration flags apply only to fresh runs.
    let (mut session, cfg) = match o.checkpoint.resume_from() {
        Some(path) => {
            let cp: ExploreCheckpoint = tt_fault::read_json(Path::new(path))
                .map_err(|e| internal(format!("reading checkpoint {path}: {e}")))?;
            let session = Explorer::from_checkpoint(&cp)
                .map_err(|e| usage(format!("checkpoint {path}: {e}")))?;
            (session, cp.cfg)
        }
        None => (Explorer::new(&o.config, &seeds), o.config.clone()),
    };
    loop {
        let stepped = session.step(&no_extra_oracle);
        if let Some(path) = &o.checkpoint.path {
            let boundary =
                o.checkpoint_every > 0 && session.executed() % o.checkpoint_every.max(1) == 0;
            // Snapshot on every interval boundary and once at the end, so
            // `--resume` always finds the final state on disk.
            if boundary || !stepped {
                write_json_atomic(Path::new(path), &session.checkpoint())
                    .map_err(|e| internal(format!("writing checkpoint {path}: {e}")))?;
            }
        }
        if !stepped {
            break;
        }
    }
    let report = session.into_report();
    let elapsed = started.elapsed().as_secs_f64();
    let mut out = render_explore_summary(&cfg, &report, elapsed);
    if let Some(dir) = &o.corpus_out {
        let dir = Path::new(dir);
        for s in &report.corpus {
            save_schedule(dir, "sched", s).map_err(|e| internal(format!("writing corpus: {e}")))?;
        }
        out.push_str(&format!(
            "\nwrote {} coverage-discovering schedules to {}\n",
            report.corpus.len(),
            dir.display()
        ));
    }
    if let Some(dir) = &o.repro {
        let dir = Path::new(dir);
        for cx in &report.counterexamples {
            let path = save_schedule(dir, "repro", &cx.shrunk)
                .map_err(|e| internal(format!("writing repro: {e}")))?;
            out.push_str(&format!(
                "\nwrote shrunk reproducer to {}\n",
                path.display()
            ));
        }
    }
    if let Some(path) = &o.json {
        let body = serde_json::to_string_pretty(&report).map_err(|e| internal(e.to_string()))?;
        std::fs::write(path, body).map_err(|e| internal(format!("writing {path}: {e}")))?;
        out.push_str(&format!("\nwrote full report to {path}\n"));
    }
    if !report.counterexamples.is_empty() {
        return Err(CliError::Counterexample(out));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{CheckpointOpts, SimulateOpts};

    fn cluster(nodes: usize, rounds: u64, penalty: u64, reward: u64) -> ClusterOpts {
        ClusterOpts {
            nodes,
            rounds,
            penalty,
            reward,
        }
    }

    fn simulate_cmd(
        cluster: ClusterOpts,
        faults: Vec<FaultSpec>,
        timeline: bool,
        record: Option<String>,
    ) -> Command {
        Command::Simulate(SimulateOpts {
            cluster,
            faults: FaultOpts { seed: 0, faults },
            timeline,
            record,
        })
    }

    /// The 20-round crash of node 3 the metrics format tests render.
    fn metrics_crash_cmd(format: MetricsFormat) -> Command {
        Command::Metrics(MetricsOpts {
            cluster: cluster(4, 20, 3, 100),
            faults: FaultOpts {
                seed: 0,
                faults: vec![FaultSpec::Crash { node: 3, round: 5 }],
            },
            format,
            out: None,
            record: None,
        })
    }

    #[test]
    fn simulate_crash_reports_isolation() {
        let out = run(simulate_cmd(
            cluster(4, 40, 3, 100),
            vec![FaultSpec::Crash { node: 3, round: 12 }],
            true,
            None,
        ))
        .unwrap();
        assert!(out.contains("ISOLATED"), "{out}");
        assert!(out.contains("isolated N3"), "{out}");
        assert!(out.contains("0 violations"), "{out}");
        assert!(out.contains("round |"), "timeline shown: {out}");
    }

    #[test]
    fn simulate_validates_fault_targets() {
        let e = run(simulate_cmd(
            cluster(4, 10, 3, 10),
            vec![FaultSpec::Crash { node: 9, round: 1 }],
            false,
            None,
        ))
        .unwrap_err();
        assert!(e.to_string().contains("exceeds cluster size"));
        assert_eq!(e.exit_code(), 2, "bad flag values are usage errors");
    }

    #[test]
    fn exit_codes_follow_the_documented_taxonomy() {
        assert_eq!(CliError::Usage("x".into()).exit_code(), 2);
        assert_eq!(CliError::Counterexample("x".into()).exit_code(), 1);
        assert_eq!(CliError::Internal("x".into()).exit_code(), 101);
    }

    #[test]
    fn replay_missing_trace_is_an_internal_error() {
        let e = run(Command::Replay(ReplayOpts {
            trace: "/nonexistent/ttdiag-no-such-trace.json".into(),
            cluster: cluster(4, 10, 3, 100),
            timeline: false,
        }))
        .unwrap_err();
        assert_eq!(e.exit_code(), 101, "I/O failures are internal errors: {e}");
    }

    #[test]
    fn tune_commands_render() {
        let auto = run(Command::Tune {
            domain: "automotive".into(),
        })
        .unwrap();
        assert!(auto.contains("P = 197"), "{auto}");
        let aero = run(Command::Tune {
            domain: "aerospace".into(),
        })
        .unwrap();
        assert!(aero.contains("P = 17"), "{aero}");
    }

    #[test]
    fn unknown_domains_are_usage_errors_in_both_commands() {
        for cmd in [
            Command::Tune {
                domain: "maritime".into(),
            },
            Command::Isolation {
                domain: "maritime".into(),
            },
        ] {
            let e = run(cmd).unwrap_err();
            assert_eq!(e.exit_code(), 2, "{e}");
            assert!(e.to_string().contains("unknown domain"), "{e}");
        }
    }

    /// A one-cell sweep small enough for a unit test.
    fn tiny_sweep() -> TuneSweepOpts {
        TuneSweepOpts {
            config: tt_analysis::SweepConfig {
                nodes: vec![4],
                rounds: vec![32],
                penalty_thresholds: vec![1],
                reward_thresholds: vec![4],
                criticalities: vec![1],
                rates_per_hour: vec![72_000.0],
                intermittent_periods: vec![0],
                experiments: 32,
                batch_size: 16,
                base_seed: 11,
            },
            ..TuneSweepOpts::default()
        }
    }

    #[test]
    fn tune_sweep_renders_and_exports() {
        let dir = std::env::temp_dir().join("ttdiag_cli_test_sweep");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("sweep.json");
        let out = run(Command::TuneSweep(TuneSweepOpts {
            json: Some(json.to_string_lossy().into_owned()),
            csv_dir: Some(dir.to_string_lossy().into_owned()),
            ..tiny_sweep()
        }))
        .unwrap();
        assert!(out.contains("tune sweep: 1 cells"), "{out}");
        let report: tt_analysis::SweepReport =
            serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert_eq!(report.cells.len(), 1);
        for table in ["fig3_boundary.csv", "isolation.csv", "safety_curves.csv"] {
            assert!(dir.join(table).is_file(), "{table} written");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tune_sweep_rejects_invalid_grids_as_usage_errors() {
        let mut sweep = tiny_sweep();
        sweep.config.nodes = vec![3];
        let e = run(Command::TuneSweep(sweep)).unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
    }

    #[test]
    fn tune_sweep_halt_then_resume_matches_uninterrupted() {
        let dir = std::env::temp_dir().join("ttdiag_cli_test_sweep_halt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cp = dir.join("cp.json");
        let full_json = dir.join("full.json");
        let resumed_json = dir.join("resumed.json");
        let mut sweep = tiny_sweep();
        sweep.config.intermittent_periods = vec![0, 3]; // two cells to halt between
        let cp = Some(cp.to_string_lossy().into_owned());
        let uninterrupted = run(Command::TuneSweep(TuneSweepOpts {
            json: Some(full_json.to_string_lossy().into_owned()),
            ..sweep.clone()
        }))
        .unwrap();
        assert!(!uninterrupted.contains("halted"), "{uninterrupted}");
        let halted = run(Command::TuneSweep(TuneSweepOpts {
            checkpoint: CheckpointOpts {
                path: cp.clone(),
                resume: false,
            },
            halt_after: Some(1),
            ..sweep.clone()
        }))
        .unwrap();
        assert!(halted.contains("halted after 1/2 cells"), "{halted}");
        run(Command::TuneSweep(TuneSweepOpts {
            json: Some(resumed_json.to_string_lossy().into_owned()),
            checkpoint: CheckpointOpts {
                path: cp,
                resume: true,
            },
            ..sweep
        }))
        .unwrap();
        assert_eq!(
            std::fs::read(&full_json).unwrap(),
            std::fs::read(&resumed_json).unwrap(),
            "resumed sweep is byte-identical to the uninterrupted one"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `Command::Campaign` with every supervision flag at its default.
    fn campaign_cmd(reps: u64) -> Command {
        Command::Campaign(CampaignOpts {
            reps,
            ..CampaignOpts::default()
        })
    }

    #[test]
    fn campaign_small_run_passes() {
        let out = run(campaign_cmd(1)).unwrap();
        assert!(out.contains("all passed: true"), "{out}");
        assert!(out.contains("supervision: clean run"), "{out}");
    }

    #[test]
    fn campaign_with_injected_panics_completes_and_reports_quarantines() {
        let cmd = Command::Campaign(CampaignOpts {
            reps: 1,
            chaos: tt_fault::ChaosPlan {
                panic_per_mille: 400,
                ..tt_fault::ChaosPlan::quiet(5)
            },
            ..CampaignOpts::default()
        });
        // Injected panics quarantine some experiments but never poison the
        // pool: every healthy experiment completes and passes, so the
        // campaign still succeeds (exit 0) with a non-empty quarantine
        // section in the report.
        let out = run(cmd).unwrap();
        assert!(out.contains("all passed: true"), "{out}");
        assert!(out.contains("quarantined"), "{out}");
        assert!(out.contains("panic: injected harness panic"), "{out}");
    }

    #[test]
    fn campaign_checkpoint_halt_and_resume_match_uninterrupted() {
        let path = std::env::temp_dir().join("ttdiag_cli_test_campaign_ckpt.json");
        let path_s = path.to_string_lossy().to_string();
        let _ = std::fs::remove_file(&path);
        let halted = Command::Campaign(CampaignOpts {
            reps: 1,
            checkpoint: CheckpointOpts {
                path: Some(path_s.clone()),
                resume: false,
            },
            checkpoint_every: 1,
            halt_after: Some(2),
            ..CampaignOpts::default()
        });
        let out = run(halted).unwrap();
        assert!(out.contains("halted early"), "{out}");
        let resumed = Command::Campaign(CampaignOpts {
            reps: 1,
            checkpoint: CheckpointOpts {
                path: Some(path_s.clone()),
                resume: true,
            },
            ..CampaignOpts::default()
        });
        let resumed_out = run(resumed).unwrap();
        assert!(resumed_out.contains("all passed: true"), "{resumed_out}");
        let direct = run(campaign_cmd(1)).unwrap();
        // The resumed run reaches the same verdict and per-class results as
        // an uninterrupted one (modulo the resume banner line).
        for line in direct.lines().filter(|l| l.contains('|')) {
            assert!(resumed_out.contains(line), "missing {line:?}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn help_prints_usage() {
        let out = run(Command::Help).unwrap();
        assert!(out.contains("ttdiag simulate"));
    }

    #[test]
    fn record_and_replay_roundtrip() {
        let dir = std::env::temp_dir().join("ttdiag_cli_test_trace.json");
        let path = dir.to_string_lossy().to_string();
        let rec = run(Command::Simulate(SimulateOpts {
            cluster: cluster(4, 30, 1_000, 1_000),
            faults: FaultOpts {
                seed: 5,
                faults: vec![FaultSpec::Burst {
                    len: 8,
                    round: 10,
                    slot: 0,
                }],
            },
            timeline: false,
            record: Some(path.clone()),
        }))
        .unwrap();
        assert!(rec.contains("recorded fault trace"), "{rec}");
        let rep = run(Command::Replay(ReplayOpts {
            trace: path.clone(),
            cluster: cluster(4, 30, 1, 1_000),
            timeline: false,
        }))
        .unwrap();
        // Re-tuned replay: P = 1 isolates the burst victims this time.
        assert!(rep.contains("ISOLATED"), "{rep}");
        assert!(rep.contains("Faulty slots on the bus: 8"), "{rep}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn metrics_json_round_trips() {
        let out = run(metrics_crash_cmd(MetricsFormat::Json)).unwrap();
        let report: tt_sim::MetricsReport = serde_json::from_str(&out).unwrap();
        assert!(!report.events.is_empty());
        let isolations = report
            .events
            .iter()
            .filter(|e| e.kind() == "isolation")
            .count();
        // All four nodes isolate N3 — the benign-faulty node still runs its
        // job and convicts itself from the consistent diagnostic matrix.
        assert_eq!(isolations, 4, "every node isolates the crashed one");
        assert!(report
            .counters
            .iter()
            .any(|c| c.name == "fault.injected.benign" && c.value > 0));
    }

    #[test]
    fn metrics_csv_and_summary_render() {
        let csv = run(metrics_crash_cmd(MetricsFormat::Csv)).unwrap();
        assert!(csv.starts_with(tt_analysis::EVENTS_CSV_HEADER), "{csv}");
        assert!(csv.contains("isolation,"), "{csv}");
        let summary = run(metrics_crash_cmd(MetricsFormat::Summary)).unwrap();
        assert!(summary.contains("sim.rounds"), "{summary}");
        assert!(summary.contains("isolation"), "{summary}");
    }

    #[test]
    fn metrics_out_writes_file() {
        let path = std::env::temp_dir().join("ttdiag_cli_test_metrics.json");
        let path = path.to_string_lossy().to_string();
        let msg = run(Command::Metrics(MetricsOpts {
            cluster: cluster(4, 10, 197, 1_000_000),
            format: MetricsFormat::Json,
            out: Some(path.clone()),
            ..MetricsOpts::default()
        }))
        .unwrap();
        assert!(msg.contains("wrote"), "{msg}");
        let body = std::fs::read_to_string(&path).unwrap();
        let report: tt_sim::MetricsReport = serde_json::from_str(&body).unwrap();
        assert!(report.counters.iter().any(|c| c.name == "sim.rounds"));
        let _ = std::fs::remove_file(path);
    }

    /// The canonical intermittent-fault scenario used throughout the
    /// observability docs: node 2 blinks every other round from round 4,
    /// node 3 suffers a single benign fault in round 5.
    fn canonical_trace_cmd(format: TraceFormat, out: Option<String>) -> Command {
        Command::Trace(TraceOpts {
            cluster: cluster(4, 16, 3, 2),
            faults: FaultOpts {
                seed: 0,
                faults: vec![
                    FaultSpec::Intermittent {
                        node: 2,
                        round: 4,
                        period: 2,
                    },
                    FaultSpec::Burst {
                        len: 1,
                        round: 5,
                        slot: 2,
                    },
                ],
            },
            format,
            out,
        })
    }

    #[test]
    fn trace_summary_reports_bounded_latency() {
        let out = run(canonical_trace_cmd(TraceFormat::Summary, None)).unwrap();
        assert!(out.contains("N2"), "{out}");
        assert!(out.contains("within the 4-round bound"), "{out}");
    }

    #[test]
    fn trace_jsonl_emits_one_span_per_line() {
        let out = run(canonical_trace_cmd(TraceFormat::Jsonl, None)).unwrap();
        assert!(!out.is_empty());
        for line in out.lines() {
            let v: serde::Value = serde_json::from_str(line).unwrap();
            assert!(v.as_map().is_some(), "span line is an object: {line}");
        }
    }

    #[test]
    fn trace_perfetto_writes_chrome_trace_json() {
        let path = std::env::temp_dir().join("ttdiag_cli_test_perfetto.json");
        let path = path.to_string_lossy().to_string();
        let msg = run(canonical_trace_cmd(
            TraceFormat::Perfetto,
            Some(path.clone()),
        ))
        .unwrap();
        assert!(msg.contains("wrote"), "{msg}");
        let body = std::fs::read_to_string(&path).unwrap();
        let v: serde::Value = serde_json::from_str(&body).unwrap();
        let map = v.as_map().unwrap();
        let events = serde::Value::get_field(map, "traceEvents")
            .and_then(|e| e.as_seq())
            .unwrap();
        assert!(!events.is_empty(), "trace has events");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn metrics_record_roundtrips_through_replay() {
        let path = std::env::temp_dir().join("ttdiag_cli_test_metrics_trace.json");
        let path = path.to_string_lossy().to_string();
        let out = run(Command::Metrics(MetricsOpts {
            cluster: cluster(4, 30, 1_000, 1_000),
            faults: FaultOpts {
                seed: 5,
                faults: vec![FaultSpec::Burst {
                    len: 8,
                    round: 10,
                    slot: 0,
                }],
            },
            format: MetricsFormat::Summary,
            out: None,
            record: Some(path.clone()),
        }))
        .unwrap();
        assert!(out.contains("recorded fault trace"), "{out}");
        let rep = run(Command::Replay(ReplayOpts {
            trace: path.clone(),
            cluster: cluster(4, 30, 1, 1_000),
            timeline: false,
        }))
        .unwrap();
        assert!(rep.contains("Faulty slots on the bus: 8"), "{rep}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn scenario_fault_spec_builds() {
        let out = run(simulate_cmd(
            cluster(4, 8, 1_000, 1_000),
            vec![FaultSpec::Scenario {
                name: "blinking".into(),
            }],
            false,
            None,
        ))
        .unwrap();
        // The first 10 ms burst corrupts 16 slots.
        assert!(out.contains("Faulty slots on the bus: 16"), "{out}");
    }

    #[test]
    fn explore_small_budget_finds_no_violations() {
        let corpus_out = std::env::temp_dir().join("ttdiag_cli_test_explore_corpus");
        let json = std::env::temp_dir().join("ttdiag_cli_test_explore.json");
        let out = run(Command::Explore(ExploreOpts {
            config: tt_fault::ExploreConfig {
                protocol: tt_fault::ProtocolUnderTest::Diag,
                n: 4,
                rounds: 24,
                penalty_threshold: 3,
                reward_threshold: 2,
                seed: 0xD1A6_05E5,
                budget: 15,
                max_faults: 6,
                strategy: tt_fault::Strategy::CoverageGuided,
            },
            corpus_out: Some(corpus_out.to_string_lossy().to_string()),
            json: Some(json.to_string_lossy().to_string()),
            ..ExploreOpts::default()
        }))
        .unwrap();
        assert!(out.contains("unique state fingerprints"), "{out}");
        assert!(out.contains("violations found"), "{out}");
        // The corpus directory holds one JSON schedule per coverage discovery
        // and the report round-trips through serde.
        let n_schedules = std::fs::read_dir(&corpus_out).unwrap().count();
        assert!(n_schedules > 0);
        let report: tt_fault::ExploreReport =
            serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert_eq!(report.executed, 15);
        assert!(report.counterexamples.is_empty());
        std::fs::remove_dir_all(&corpus_out).ok();
        std::fs::remove_file(&json).ok();
    }
}
