//! Hand-rolled argument parsing for the `ttdiag` CLI (no dependencies).
//!
//! Grammar:
//!
//! ```text
//! ttdiag simulate [--nodes N] [--rounds R] [--penalty P] [--reward R]
//!                 [--seed S] [--timeline] [--fault SPEC]...
//! ttdiag tune [automotive|aerospace]
//! ttdiag isolation [automotive|aerospace]
//! ttdiag campaign [--reps N] [--threads T] [--json PATH]
//! ttdiag help
//! ```
//!
//! Fault specs:
//!
//! ```text
//! crash:NODE@ROUND          permanent benign sender fault
//! intermittent:NODE@ROUND/PERIOD  recurring benign sender fault
//! burst:LEN@ROUND.SLOT      bus burst of LEN slots from ROUND/SLOT
//! noise:P                   benign noise with per-slot probability P
//! asym:NODE@ROUND:R1,R2     asymmetric fault detected by receivers R1,R2
//! scenario:blinking         the Table 3 blinking-light scenario
//! scenario:lightning        the Table 3 lightning-bolt scenario
//! ```

use std::fmt;

/// A parsed fault specification.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// `crash:NODE@ROUND`
    Crash {
        /// 1-based node id.
        node: u32,
        /// Round the crash begins.
        round: u64,
    },
    /// `intermittent:NODE@ROUND/PERIOD`
    Intermittent {
        /// 1-based node id.
        node: u32,
        /// First faulty round.
        round: u64,
        /// The fault recurs every `period` rounds.
        period: u64,
    },
    /// `burst:LEN@ROUND.SLOT`
    Burst {
        /// Length in slots.
        len: u64,
        /// Starting round.
        round: u64,
        /// Starting slot position (0-based).
        slot: usize,
    },
    /// `noise:P`
    Noise {
        /// Per-slot corruption probability.
        p: f64,
    },
    /// `asym:NODE@ROUND:R1,R2,...`
    Asym {
        /// 1-based sender id.
        node: u32,
        /// The affected round.
        round: u64,
        /// 0-based receiver indices that miss the frame.
        detected_by: Vec<usize>,
    },
    /// `scenario:blinking` / `scenario:lightning`
    Scenario {
        /// `"blinking"` or `"lightning"`.
        name: String,
    },
}

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run a cluster and report the protocol's view.
    Simulate {
        /// Cluster size.
        nodes: usize,
        /// Rounds to simulate.
        rounds: u64,
        /// Penalty threshold `P`.
        penalty: u64,
        /// Reward threshold `R`.
        reward: u64,
        /// Seed for randomized disturbances.
        seed: u64,
        /// Print the fault timeline.
        timeline: bool,
        /// Injected faults.
        faults: Vec<FaultSpec>,
        /// Write the fault trace (with replayable effects) to this path.
        record: Option<String>,
    },
    /// Replay a recorded fault trace against a (possibly re-tuned) cluster.
    Replay {
        /// Path to a JSON trace written by `simulate --record`.
        trace: String,
        /// Cluster size.
        nodes: usize,
        /// Rounds to simulate.
        rounds: u64,
        /// Penalty threshold `P`.
        penalty: u64,
        /// Reward threshold `R`.
        reward: u64,
        /// Print the fault timeline.
        timeline: bool,
    },
    /// Print the Table 2 tuning for a domain.
    Tune {
        /// `"automotive"` or `"aerospace"` (validated at execution, so
        /// unknown domains share one error path with `isolation`).
        domain: String,
    },
    /// Run a campaign-scale Monte Carlo tuning sweep over a
    /// `(N, P, R, s, λ)` grid.
    TuneSweep {
        /// The grid and sampling parameters.
        config: tt_analysis::SweepConfig,
        /// JSON report output path, if any.
        json: Option<String>,
        /// Directory for the CSV table exports (Fig. 3 boundary,
        /// isolation estimators, safety curves), if any.
        csv_dir: Option<String>,
        /// Fail (exit 1) when a measured Fig. 3 boundary disagrees with
        /// the analytic model beyond its Wilson interval.
        check: bool,
        /// Checkpoint file path, if checkpointing is enabled.
        checkpoint: Option<String>,
        /// Resume from the checkpoint (which carries the grid) instead
        /// of starting fresh.
        resume: bool,
        /// Halt (with a checkpoint) after this many newly completed
        /// cells.
        halt_after: Option<u64>,
    },
    /// Print the Table 4 time-to-isolation rows for a domain.
    Isolation {
        /// `"automotive"` or `"aerospace"`.
        domain: String,
    },
    /// Run an instrumented cluster and dump the recorded metrics.
    Metrics {
        /// Cluster size.
        nodes: usize,
        /// Rounds to simulate.
        rounds: u64,
        /// Penalty threshold `P`.
        penalty: u64,
        /// Reward threshold `R`.
        reward: u64,
        /// Seed for randomized disturbances.
        seed: u64,
        /// Injected faults.
        faults: Vec<FaultSpec>,
        /// Output format.
        format: MetricsFormat,
        /// Write the output to this path instead of stdout.
        out: Option<String>,
        /// Write the fault trace (with replayable effects) to this path.
        record: Option<String>,
    },
    /// Run a trace-instrumented cluster and export the provenance spans.
    Trace {
        /// Cluster size.
        nodes: usize,
        /// Rounds to simulate.
        rounds: u64,
        /// Penalty threshold `P`.
        penalty: u64,
        /// Reward threshold `R`.
        reward: u64,
        /// Seed for randomized disturbances.
        seed: u64,
        /// Injected faults.
        faults: Vec<FaultSpec>,
        /// Output format.
        format: TraceFormat,
        /// Write the output to this path instead of stdout.
        out: Option<String>,
    },
    /// Run the Sec. 8 validation campaign under supervision.
    Campaign {
        /// Repetitions per class.
        reps: u64,
        /// JSON output path, if any.
        json: Option<String>,
        /// Supervised worker threads.
        threads: usize,
        /// Checkpoint file path, if checkpointing is enabled.
        checkpoint: Option<String>,
        /// Checkpoint every this many settled experiments.
        checkpoint_every: u64,
        /// Resume from the checkpoint instead of starting fresh.
        resume: bool,
        /// Stop (with a checkpoint) after this many newly settled
        /// experiments.
        halt_after: Option<usize>,
        /// Per-experiment watchdog budget in milliseconds.
        watchdog_ms: Option<u64>,
        /// Seed of the injected harness-fault plan.
        chaos_seed: u64,
        /// Per-mille of experiments whose attempts panic.
        chaos_panic: u16,
        /// Per-mille of experiments whose attempts hang.
        chaos_hang: u16,
        /// Per-mille of experiments whose attempts fail transiently.
        chaos_transient: u16,
    },
    /// Run the coverage-guided fault-schedule explorer.
    Explore {
        /// The protocol variant the explorer drives and checks.
        protocol: tt_fault::ProtocolUnderTest,
        /// Cluster size.
        nodes: usize,
        /// Rounds per explored schedule.
        rounds: u64,
        /// Penalty threshold `P` of explored schedules.
        penalty: u64,
        /// Reward threshold `R` of explored schedules.
        reward: u64,
        /// Generator seed (the run is a pure function of it).
        seed: u64,
        /// Schedule executions to spend.
        budget: u64,
        /// Maximum faults per schedule.
        max_faults: usize,
        /// Use the pure-random baseline generator instead of coverage
        /// guidance.
        random: bool,
        /// Seed-corpus directory to replay before generating.
        corpus: Option<String>,
        /// Directory to write coverage-discovering schedules to.
        corpus_out: Option<String>,
        /// Directory to write shrunk counterexample schedules to.
        repro: Option<String>,
        /// JSON report output path, if any.
        json: Option<String>,
        /// Checkpoint file path, if checkpointing is enabled.
        checkpoint: Option<String>,
        /// Checkpoint every this many executed schedules.
        checkpoint_every: u64,
        /// Resume from the checkpoint (which carries the exploration
        /// parameters) instead of starting fresh.
        resume: bool,
    },
    /// Run the long-lived diagnosis service on a Unix admin socket.
    Serve {
        /// Admin socket path.
        socket: String,
        /// Directory for per-job checkpoints.
        state: String,
    },
    /// Submit a job to a running service and print its id.
    Submit {
        /// Admin socket path.
        socket: String,
        /// The job to enqueue.
        spec: tt_bench::JobSpec,
    },
    /// Query or control jobs on a running service.
    Job {
        /// Admin socket path.
        socket: String,
        /// The operation.
        op: JobOp,
    },
    /// Live one-line progress summary of one job.
    Watch {
        /// Admin socket path.
        socket: String,
        /// The job id to follow.
        job: u64,
    },
    /// Stream one live feed as raw JSONL.
    Tail {
        /// Admin socket path.
        socket: String,
        /// Which feed to subscribe to.
        feed: FeedName,
        /// Stop after this many frames (0 = until server shutdown).
        max: u64,
        /// Subscriber ring capacity (frames buffered server-side).
        capacity: u64,
    },
    /// Ask a running service to halt its jobs, checkpoint, and exit.
    Shutdown {
        /// Admin socket path.
        socket: String,
    },
    /// Run an N-node UDP cluster on loopback threads (`ttdiag net run`).
    NetRun {
        /// Cluster size (one TDMA slot per node).
        nodes: usize,
        /// Rounds to run.
        rounds: u64,
        /// TDMA slot duration in microseconds.
        slot_us: u64,
        /// Reception grace in microseconds (default: half a slot).
        grace_us: Option<u64>,
        /// Penalty threshold `P`.
        penalty: u64,
        /// Reward threshold `R`.
        reward: u64,
        /// Reintegrate an isolated node after this many consecutive
        /// rewards (0 = never reintegrate).
        reintegrate_after: u64,
        /// Chaos seed (the injected loss pattern is a pure function of
        /// seed and topology).
        seed: u64,
        /// Per-mille of frames dropped per directed link.
        drop: u16,
        /// Per-mille of frames duplicated.
        duplicate: u16,
        /// Per-mille of frames held back one round.
        reorder: u16,
        /// Per-mille of frames with one byte flipped.
        corrupt: u16,
        /// Kill `(node, at_round, down_rounds)` mid-run and restart it.
        crash: Option<(u32, u64, u64)>,
        /// Write the full JSON report (with host fingerprint) here.
        json: Option<String>,
        /// Exit 1 unless the run converged and the simulator replay
        /// agrees.
        check: bool,
    },
    /// Run one UDP peer of a multi-process cluster (`ttdiag net node`).
    NetNode {
        /// This peer's 1-based id (slot = id - 1).
        id: u32,
        /// Bind address (default: the own entry of `--peers`).
        bind: Option<String>,
        /// All peer addresses in slot order, comma-separated.
        peers: Vec<String>,
        /// Rounds to run.
        rounds: u64,
        /// TDMA slot duration in microseconds.
        slot_us: u64,
        /// Reception grace in microseconds (default: half a slot).
        grace_us: Option<u64>,
        /// Penalty threshold `P`.
        penalty: u64,
        /// Reward threshold `R`.
        reward: u64,
        /// Reintegrate after this many consecutive rewards (0 = never).
        reintegrate_after: u64,
        /// Epoch delay in milliseconds: all peers must start within this
        /// window for their slot clocks to align.
        start_delay_ms: u64,
        /// Write this node's JSON segment report here.
        json: Option<String>,
    },
    /// Print usage.
    Help,
}

/// A `ttdiag job` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOp {
    /// Status of every known job.
    List,
    /// Status of one job.
    Status(u64),
    /// Request a halt (checkpointed, resumable).
    Halt(u64),
    /// Requeue a halted job from its checkpoint.
    Resume(u64),
}

/// A live feed name (`ttdiag tail --feed ...`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedName {
    /// The `MetricsEvent` feed.
    Metrics,
    /// The `SpanEvent` provenance feed.
    Spans,
    /// The `ProgressEvent` job-lifecycle feed.
    Progress,
}

impl FeedName {
    /// Parses a `--feed` value.
    pub fn parse(s: &str) -> Result<Self, ParseError> {
        match s {
            "metrics" => Ok(FeedName::Metrics),
            "spans" => Ok(FeedName::Spans),
            "progress" => Ok(FeedName::Progress),
            other => err(format!("unknown feed {other:?} (metrics|spans|progress)")),
        }
    }

    /// The wire name of the feed.
    pub fn as_str(self) -> &'static str {
        match self {
            FeedName::Metrics => "metrics",
            FeedName::Spans => "spans",
            FeedName::Progress => "progress",
        }
    }
}

/// Output format of `ttdiag metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// The full `MetricsReport` as pretty-printed JSON (default).
    #[default]
    Json,
    /// The event stream as CSV.
    Csv,
    /// Human-readable counter/event-count tables.
    Summary,
}

impl MetricsFormat {
    /// Parses a `--format` value.
    pub fn parse(s: &str) -> Result<Self, ParseError> {
        match s {
            "json" => Ok(MetricsFormat::Json),
            "csv" => Ok(MetricsFormat::Csv),
            "summary" => Ok(MetricsFormat::Summary),
            other => err(format!("unknown format {other:?} (json|csv|summary)")),
        }
    }
}

/// Output format of `ttdiag trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFormat {
    /// Human-readable provenance-chain and latency tables (default).
    #[default]
    Summary,
    /// One span event as JSON per line.
    Jsonl,
    /// Chrome trace-event JSON for Perfetto / `chrome://tracing`.
    Perfetto,
}

impl TraceFormat {
    /// Parses a `--format` value.
    pub fn parse(s: &str) -> Result<Self, ParseError> {
        match s {
            "summary" => Ok(TraceFormat::Summary),
            "jsonl" => Ok(TraceFormat::Jsonl),
            "perfetto" => Ok(TraceFormat::Perfetto),
            other => err(format!("unknown format {other:?} (jsonl|perfetto|summary)")),
        }
    }
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

/// Refuses a cluster size that one syndrome word (one bit per node) cannot
/// hold, before any cluster is built.
fn check_cluster_nodes(nodes: usize) -> Result<(), ParseError> {
    let max = tt_core::syndrome::MAX_SYNDROME_NODES;
    if (2..=max).contains(&nodes) {
        Ok(())
    } else {
        err(format!("need 2..={max} nodes, got {nodes}"))
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, ParseError> {
    s.parse()
        .map_err(|_| ParseError(format!("invalid {what}: {s:?}")))
}

/// Parses a comma-separated axis value (`--reward 2,8,24`).
fn parse_list<T: std::str::FromStr>(s: &str, what: &str) -> Result<Vec<T>, ParseError> {
    s.split(',').map(|v| parse_num(v.trim(), what)).collect()
}

/// Parses `NODE@ROUND` into `(node, round)`.
fn parse_at(s: &str, what: &str) -> Result<(u32, u64), ParseError> {
    let (node, round) = s
        .split_once('@')
        .ok_or_else(|| ParseError(format!("{what} must be NODE@ROUND, got {s:?}")))?;
    Ok((parse_num(node, "node")?, parse_num(round, "round")?))
}

/// Parses `NODE@ROUND+DOWN` into `(node, at_round, down_rounds)`.
fn parse_crash(s: &str) -> Result<(u32, u64, u64), ParseError> {
    let (at, down) = s
        .split_once('+')
        .ok_or_else(|| ParseError(format!("--crash must be NODE@ROUND+DOWN, got {s:?}")))?;
    let (node, round) = parse_at(at, "--crash")?;
    let down: u64 = parse_num(down, "down rounds")?;
    if down == 0 {
        return err("--crash needs at least one down round");
    }
    Ok((node, round, down))
}

impl FaultSpec {
    /// Parses one `--fault` value.
    pub fn parse(s: &str) -> Result<FaultSpec, ParseError> {
        let (kind, rest) = s
            .split_once(':')
            .ok_or_else(|| ParseError(format!("fault spec needs KIND:ARGS, got {s:?}")))?;
        match kind {
            "crash" => {
                let (node, round) = parse_at(rest, "crash")?;
                Ok(FaultSpec::Crash { node, round })
            }
            "intermittent" => {
                let (at, period) = rest.rsplit_once('/').ok_or_else(|| {
                    ParseError(format!(
                        "intermittent must be NODE@ROUND/PERIOD, got {rest:?}"
                    ))
                })?;
                let (node, round) = parse_at(at, "intermittent")?;
                let period: u64 = parse_num(period, "period")?;
                if period == 0 {
                    return err("intermittent period must be positive");
                }
                Ok(FaultSpec::Intermittent {
                    node,
                    round,
                    period,
                })
            }
            "burst" => {
                let (len, at) = rest.split_once('@').ok_or_else(|| {
                    ParseError(format!("burst must be LEN@ROUND.SLOT, got {rest:?}"))
                })?;
                let (round, slot) = at.split_once('.').ok_or_else(|| {
                    ParseError(format!("burst must be LEN@ROUND.SLOT, got {rest:?}"))
                })?;
                Ok(FaultSpec::Burst {
                    len: parse_num(len, "burst length")?,
                    round: parse_num(round, "round")?,
                    slot: parse_num(slot, "slot")?,
                })
            }
            "noise" => {
                let p: f64 = parse_num(rest, "noise probability")?;
                if !(0.0..=1.0).contains(&p) {
                    return err(format!("noise probability out of range: {p}"));
                }
                Ok(FaultSpec::Noise { p })
            }
            "asym" => {
                let (at, rxs) = rest.rsplit_once(':').ok_or_else(|| {
                    ParseError(format!("asym must be NODE@ROUND:RX,..., got {rest:?}"))
                })?;
                let (node, round) = parse_at(at, "asym")?;
                let detected_by = rxs
                    .split(',')
                    .map(|r| parse_num(r, "receiver index"))
                    .collect::<Result<Vec<usize>, _>>()?;
                if detected_by.is_empty() {
                    return err("asym needs at least one receiver");
                }
                Ok(FaultSpec::Asym {
                    node,
                    round,
                    detected_by,
                })
            }
            "scenario" => match rest {
                "blinking" | "lightning" => Ok(FaultSpec::Scenario {
                    name: rest.to_string(),
                }),
                other => err(format!("unknown scenario {other:?} (blinking|lightning)")),
            },
            other => err(format!("unknown fault kind {other:?}")),
        }
    }
}

/// Parses the full argument list (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "tune" if rest.first().map(String::as_str) == Some("sweep") => {
            let mut config = tt_analysis::SweepConfig::default();
            let mut json = None;
            let mut csv_dir = None;
            let mut check = false;
            let mut checkpoint = None;
            let mut resume = false;
            let mut halt_after = None;
            let mut it = rest[1..].iter();
            while let Some(a) = it.next() {
                let mut val = |name: &str| -> Result<&String, ParseError> {
                    it.next()
                        .ok_or_else(|| ParseError(format!("{name} needs a value")))
                };
                match a.as_str() {
                    "--nodes" => config.nodes = parse_list(val("--nodes")?, "nodes")?,
                    "--rounds" => config.rounds = parse_list(val("--rounds")?, "rounds")?,
                    "--penalty" => {
                        config.penalty_thresholds = parse_list(val("--penalty")?, "penalty")?
                    }
                    "--reward" => {
                        config.reward_thresholds = parse_list(val("--reward")?, "reward")?
                    }
                    "--crit" => config.criticalities = parse_list(val("--crit")?, "criticality")?,
                    "--rate" => config.rates_per_hour = parse_list(val("--rate")?, "rate")?,
                    "--intermittent" => {
                        config.intermittent_periods =
                            parse_list(val("--intermittent")?, "intermittent period")?
                    }
                    "--experiments" => {
                        config.experiments = parse_num(val("--experiments")?, "experiments")?
                    }
                    "--batch" => config.batch_size = parse_num(val("--batch")?, "batch size")?,
                    "--seed" => config.base_seed = parse_num(val("--seed")?, "seed")?,
                    "--json" => json = Some(val("--json")?.clone()),
                    "--csv-dir" => csv_dir = Some(val("--csv-dir")?.clone()),
                    "--check" => check = true,
                    "--checkpoint" => checkpoint = Some(val("--checkpoint")?.clone()),
                    "--resume" => resume = true,
                    "--halt-after" => {
                        halt_after = Some(parse_num(val("--halt-after")?, "halt count")?)
                    }
                    other => return err(format!("unknown tune sweep flag {other:?}")),
                }
            }
            if resume && checkpoint.is_none() {
                return err("--resume needs --checkpoint PATH");
            }
            Ok(Command::TuneSweep {
                config,
                json,
                csv_dir,
                check,
                checkpoint,
                resume,
                halt_after,
            })
        }
        "tune" | "isolation" => {
            // Any domain token parses; `commands::domain_setup` rejects
            // unknown ones so `tune` and `isolation` share one error path.
            let domain = rest.first().cloned().unwrap_or_else(|| "automotive".into());
            if cmd == "tune" {
                Ok(Command::Tune { domain })
            } else {
                Ok(Command::Isolation { domain })
            }
        }
        "campaign" => {
            let mut reps = 100u64;
            let mut json = None;
            let mut threads = 1usize;
            let mut checkpoint = None;
            let mut checkpoint_every = 25u64;
            let mut resume = false;
            let mut halt_after = None;
            let mut watchdog_ms = None;
            let mut chaos_seed = 0u64;
            let mut chaos_panic = 0u16;
            let mut chaos_hang = 0u16;
            let mut chaos_transient = 0u16;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                let mut val = |name: &str| -> Result<&String, ParseError> {
                    it.next()
                        .ok_or_else(|| ParseError(format!("{name} needs a value")))
                };
                match a.as_str() {
                    "--reps" => reps = parse_num(val("--reps")?, "reps")?,
                    "--json" => json = Some(val("--json")?.clone()),
                    "--threads" => threads = parse_num(val("--threads")?, "threads")?,
                    "--checkpoint" => checkpoint = Some(val("--checkpoint")?.clone()),
                    "--checkpoint-every" => {
                        checkpoint_every =
                            parse_num(val("--checkpoint-every")?, "checkpoint interval")?
                    }
                    "--resume" => resume = true,
                    "--halt-after" => {
                        halt_after = Some(parse_num(val("--halt-after")?, "halt count")?)
                    }
                    "--watchdog-ms" => {
                        watchdog_ms = Some(parse_num(val("--watchdog-ms")?, "watchdog budget")?)
                    }
                    "--chaos-seed" => chaos_seed = parse_num(val("--chaos-seed")?, "chaos seed")?,
                    "--chaos-panic" => {
                        chaos_panic = parse_num(val("--chaos-panic")?, "panic per-mille")?
                    }
                    "--chaos-hang" => {
                        chaos_hang = parse_num(val("--chaos-hang")?, "hang per-mille")?
                    }
                    "--chaos-transient" => {
                        chaos_transient =
                            parse_num(val("--chaos-transient")?, "transient per-mille")?
                    }
                    other => return err(format!("unknown campaign flag {other:?}")),
                }
            }
            if threads == 0 {
                return err("--threads must be positive");
            }
            if resume && checkpoint.is_none() {
                return err("--resume needs --checkpoint PATH");
            }
            if u32::from(chaos_panic) + u32::from(chaos_hang) + u32::from(chaos_transient) > 1000 {
                return err("chaos per-mille rates must sum to at most 1000");
            }
            Ok(Command::Campaign {
                reps,
                json,
                threads,
                checkpoint,
                checkpoint_every,
                resume,
                halt_after,
                watchdog_ms,
                chaos_seed,
                chaos_panic,
                chaos_hang,
                chaos_transient,
            })
        }
        "explore" => {
            let mut protocol = tt_fault::ProtocolUnderTest::Diag;
            let mut nodes = 4usize;
            let mut rounds = 24u64;
            let mut penalty = 3u64;
            let mut reward = 2u64;
            let mut seed = 0xD1A6_05E5u64;
            let mut budget = 200u64;
            let mut max_faults = 6usize;
            let mut random = false;
            let mut corpus = None;
            let mut corpus_out = None;
            let mut repro = None;
            let mut json = None;
            let mut checkpoint = None;
            let mut checkpoint_every = 25u64;
            let mut resume = false;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                let mut val = |name: &str| -> Result<&String, ParseError> {
                    it.next()
                        .ok_or_else(|| ParseError(format!("{name} needs a value")))
                };
                match a.as_str() {
                    "--protocol" => {
                        let v = val("--protocol")?;
                        protocol = tt_fault::ProtocolUnderTest::parse_cli(v).ok_or_else(|| {
                            ParseError(format!(
                                "unknown protocol {v:?} (expected diag, membership or lowlat)"
                            ))
                        })?;
                    }
                    "--nodes" => nodes = parse_num(val("--nodes")?, "nodes")?,
                    "--rounds" => rounds = parse_num(val("--rounds")?, "rounds")?,
                    "--penalty" => penalty = parse_num(val("--penalty")?, "penalty")?,
                    "--reward" => reward = parse_num(val("--reward")?, "reward")?,
                    "--seed" => seed = parse_num(val("--seed")?, "seed")?,
                    "--budget" => budget = parse_num(val("--budget")?, "budget")?,
                    "--max-faults" => max_faults = parse_num(val("--max-faults")?, "max faults")?,
                    "--random" => random = true,
                    "--corpus" => corpus = Some(val("--corpus")?.clone()),
                    "--corpus-out" => corpus_out = Some(val("--corpus-out")?.clone()),
                    "--repro" => repro = Some(val("--repro")?.clone()),
                    "--json" => json = Some(val("--json")?.clone()),
                    "--checkpoint" => checkpoint = Some(val("--checkpoint")?.clone()),
                    "--checkpoint-every" => {
                        checkpoint_every =
                            parse_num(val("--checkpoint-every")?, "checkpoint interval")?
                    }
                    "--resume" => resume = true,
                    other => return err(format!("unknown explore flag {other:?}")),
                }
            }
            // Every variant packs one bit per node into a syndrome word.
            let max_nodes = tt_core::syndrome::MAX_SYNDROME_NODES;
            if !(4..=max_nodes).contains(&nodes) {
                return err(format!("explore needs 4..={max_nodes} nodes, got {nodes}"));
            }
            if budget == 0 {
                return err("explore budget must be positive");
            }
            if resume && checkpoint.is_none() {
                return err("--resume needs --checkpoint PATH");
            }
            Ok(Command::Explore {
                protocol,
                nodes,
                rounds,
                penalty,
                reward,
                seed,
                budget,
                max_faults,
                random,
                corpus,
                corpus_out,
                repro,
                json,
                checkpoint,
                checkpoint_every,
                resume,
            })
        }
        "simulate" => {
            let mut nodes = 4usize;
            let mut rounds = 50u64;
            let mut penalty = 197u64;
            let mut reward = 1_000_000u64;
            let mut seed = 0u64;
            let mut timeline = false;
            let mut faults = Vec::new();
            let mut record = None;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                let mut val = |name: &str| -> Result<&String, ParseError> {
                    it.next()
                        .ok_or_else(|| ParseError(format!("{name} needs a value")))
                };
                match a.as_str() {
                    "--nodes" => nodes = parse_num(val("--nodes")?, "nodes")?,
                    "--rounds" => rounds = parse_num(val("--rounds")?, "rounds")?,
                    "--penalty" => penalty = parse_num(val("--penalty")?, "penalty")?,
                    "--reward" => reward = parse_num(val("--reward")?, "reward")?,
                    "--seed" => seed = parse_num(val("--seed")?, "seed")?,
                    "--timeline" => timeline = true,
                    "--fault" => faults.push(FaultSpec::parse(val("--fault")?)?),
                    "--record" => record = Some(val("--record")?.clone()),
                    other => return err(format!("unknown simulate flag {other:?}")),
                }
            }
            check_cluster_nodes(nodes)?;
            Ok(Command::Simulate {
                nodes,
                rounds,
                penalty,
                reward,
                seed,
                timeline,
                faults,
                record,
            })
        }
        "metrics" => {
            let mut nodes = 4usize;
            let mut rounds = 50u64;
            let mut penalty = 197u64;
            let mut reward = 1_000_000u64;
            let mut seed = 0u64;
            let mut faults = Vec::new();
            let mut format = MetricsFormat::default();
            let mut out = None;
            let mut record = None;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                let mut val = |name: &str| -> Result<&String, ParseError> {
                    it.next()
                        .ok_or_else(|| ParseError(format!("{name} needs a value")))
                };
                match a.as_str() {
                    "--nodes" => nodes = parse_num(val("--nodes")?, "nodes")?,
                    "--rounds" => rounds = parse_num(val("--rounds")?, "rounds")?,
                    "--penalty" => penalty = parse_num(val("--penalty")?, "penalty")?,
                    "--reward" => reward = parse_num(val("--reward")?, "reward")?,
                    "--seed" => seed = parse_num(val("--seed")?, "seed")?,
                    "--fault" => faults.push(FaultSpec::parse(val("--fault")?)?),
                    "--format" => format = MetricsFormat::parse(val("--format")?)?,
                    "--out" => out = Some(val("--out")?.clone()),
                    "--record" => record = Some(val("--record")?.clone()),
                    other => return err(format!("unknown metrics flag {other:?}")),
                }
            }
            check_cluster_nodes(nodes)?;
            Ok(Command::Metrics {
                nodes,
                rounds,
                penalty,
                reward,
                seed,
                faults,
                format,
                out,
                record,
            })
        }
        "trace" => {
            let mut nodes = 4usize;
            let mut rounds = 50u64;
            let mut penalty = 197u64;
            let mut reward = 1_000_000u64;
            let mut seed = 0u64;
            let mut faults = Vec::new();
            let mut format = TraceFormat::default();
            let mut out = None;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                let mut val = |name: &str| -> Result<&String, ParseError> {
                    it.next()
                        .ok_or_else(|| ParseError(format!("{name} needs a value")))
                };
                match a.as_str() {
                    "--nodes" => nodes = parse_num(val("--nodes")?, "nodes")?,
                    "--rounds" => rounds = parse_num(val("--rounds")?, "rounds")?,
                    "--penalty" => penalty = parse_num(val("--penalty")?, "penalty")?,
                    "--reward" => reward = parse_num(val("--reward")?, "reward")?,
                    "--seed" => seed = parse_num(val("--seed")?, "seed")?,
                    "--fault" => faults.push(FaultSpec::parse(val("--fault")?)?),
                    "--format" => format = TraceFormat::parse(val("--format")?)?,
                    "--out" => out = Some(val("--out")?.clone()),
                    other => return err(format!("unknown trace flag {other:?}")),
                }
            }
            check_cluster_nodes(nodes)?;
            Ok(Command::Trace {
                nodes,
                rounds,
                penalty,
                reward,
                seed,
                faults,
                format,
                out,
            })
        }
        "replay" => {
            let Some(trace) = rest.first() else {
                return err("replay needs a trace path");
            };
            let mut nodes = 4usize;
            let mut rounds = 50u64;
            let mut penalty = 197u64;
            let mut reward = 1_000_000u64;
            let mut timeline = false;
            let mut it = rest[1..].iter();
            while let Some(a) = it.next() {
                let mut val = |name: &str| -> Result<&String, ParseError> {
                    it.next()
                        .ok_or_else(|| ParseError(format!("{name} needs a value")))
                };
                match a.as_str() {
                    "--nodes" => nodes = parse_num(val("--nodes")?, "nodes")?,
                    "--rounds" => rounds = parse_num(val("--rounds")?, "rounds")?,
                    "--penalty" => penalty = parse_num(val("--penalty")?, "penalty")?,
                    "--reward" => reward = parse_num(val("--reward")?, "reward")?,
                    "--timeline" => timeline = true,
                    other => return err(format!("unknown replay flag {other:?}")),
                }
            }
            check_cluster_nodes(nodes)?;
            Ok(Command::Replay {
                trace: trace.clone(),
                nodes,
                rounds,
                penalty,
                reward,
                timeline,
            })
        }
        "serve" => {
            let mut socket = DEFAULT_SOCKET.to_string();
            let mut state = DEFAULT_STATE.to_string();
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                let mut val = |name: &str| -> Result<&String, ParseError> {
                    it.next()
                        .ok_or_else(|| ParseError(format!("{name} needs a value")))
                };
                match a.as_str() {
                    "--socket" => socket = val("--socket")?.clone(),
                    "--state" => state = val("--state")?.clone(),
                    other => return err(format!("unknown serve flag {other:?}")),
                }
            }
            Ok(Command::Serve { socket, state })
        }
        "submit" => {
            let Some(kind) = rest.first() else {
                return err("submit needs a job kind (campaign|explore|tune-sweep)");
            };
            let mut socket = DEFAULT_SOCKET.to_string();
            // Per-kind knobs, defaulted to small service-friendly jobs.
            let mut nodes = 4usize;
            let mut reps = 10u64;
            let mut rounds = 24u64;
            let mut budget = 150u64;
            let mut seed = 0xD1A6_05E5u64;
            let mut threads = 4usize;
            let mut chunk = 25u64;
            let mut halt_after = None;
            let mut it = rest[1..].iter();
            while let Some(a) = it.next() {
                let mut val = |name: &str| -> Result<&String, ParseError> {
                    it.next()
                        .ok_or_else(|| ParseError(format!("{name} needs a value")))
                };
                match a.as_str() {
                    "--socket" => socket = val("--socket")?.clone(),
                    "--nodes" => nodes = parse_num(val("--nodes")?, "nodes")?,
                    "--reps" => reps = parse_num(val("--reps")?, "reps")?,
                    "--rounds" => rounds = parse_num(val("--rounds")?, "rounds")?,
                    "--budget" => budget = parse_num(val("--budget")?, "budget")?,
                    "--seed" => seed = parse_num(val("--seed")?, "seed")?,
                    "--threads" => threads = parse_num(val("--threads")?, "threads")?,
                    "--chunk" => chunk = parse_num(val("--chunk")?, "chunk")?,
                    "--halt-after" => {
                        halt_after = Some(parse_num(val("--halt-after")?, "halt count")?)
                    }
                    other => return err(format!("unknown submit flag {other:?}")),
                }
            }
            if chunk == 0 {
                return err("--chunk must be positive");
            }
            if halt_after == Some(0) {
                return err("--halt-after must be positive");
            }
            let spec = match kind.as_str() {
                "campaign" => tt_bench::JobSpec::Campaign {
                    nodes,
                    reps,
                    base_seed: seed,
                    threads,
                    chunk,
                    halt_after,
                },
                "explore" => tt_bench::JobSpec::Explore {
                    nodes,
                    rounds,
                    budget,
                    seed,
                    chunk,
                    halt_after,
                },
                "tune-sweep" if halt_after.is_some() => {
                    return err("--halt-after applies to campaign and explore jobs")
                }
                "tune-sweep" => tt_bench::JobSpec::TuneSweep { chunk },
                other => {
                    return err(format!(
                        "unknown job kind {other:?} (campaign|explore|tune-sweep)"
                    ))
                }
            };
            Ok(Command::Submit { socket, spec })
        }
        "job" => {
            let Some(op) = rest.first() else {
                return err("job needs an operation (list|status|halt|resume)");
            };
            let mut operand = None;
            let mut socket = DEFAULT_SOCKET.to_string();
            let mut it = rest[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--socket" => {
                        socket = it
                            .next()
                            .ok_or_else(|| ParseError("--socket needs a value".into()))?
                            .clone()
                    }
                    other if operand.is_none() && !other.starts_with('-') => {
                        operand = Some(parse_num::<u64>(other, "job id")?)
                    }
                    other => return err(format!("unknown job argument {other:?}")),
                }
            }
            let need_id = |op: &str| -> Result<u64, ParseError> {
                operand.ok_or_else(|| ParseError(format!("job {op} needs a job id")))
            };
            let op = match op.as_str() {
                "list" => JobOp::List,
                "status" => JobOp::Status(need_id("status")?),
                "halt" => JobOp::Halt(need_id("halt")?),
                "resume" => JobOp::Resume(need_id("resume")?),
                other => {
                    return err(format!(
                        "unknown job operation {other:?} (list|status|halt|resume)"
                    ))
                }
            };
            Ok(Command::Job { socket, op })
        }
        "watch" => {
            let Some(job) = rest.first() else {
                return err("watch needs a job id");
            };
            let job = parse_num(job, "job id")?;
            let mut socket = DEFAULT_SOCKET.to_string();
            let mut it = rest[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--socket" => {
                        socket = it
                            .next()
                            .ok_or_else(|| ParseError("--socket needs a value".into()))?
                            .clone()
                    }
                    other => return err(format!("unknown watch flag {other:?}")),
                }
            }
            Ok(Command::Watch { socket, job })
        }
        "tail" => {
            let mut socket = DEFAULT_SOCKET.to_string();
            let mut feed = None;
            let mut max = 0u64;
            let mut capacity = 4096u64;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                let mut val = |name: &str| -> Result<&String, ParseError> {
                    it.next()
                        .ok_or_else(|| ParseError(format!("{name} needs a value")))
                };
                match a.as_str() {
                    "--socket" => socket = val("--socket")?.clone(),
                    "--feed" => feed = Some(FeedName::parse(val("--feed")?)?),
                    "--max" => max = parse_num(val("--max")?, "frame count")?,
                    "--capacity" => capacity = parse_num(val("--capacity")?, "capacity")?,
                    other => return err(format!("unknown tail flag {other:?}")),
                }
            }
            let Some(feed) = feed else {
                return err("tail needs --feed metrics|spans|progress");
            };
            if capacity == 0 {
                return err("--capacity must be positive");
            }
            Ok(Command::Tail {
                socket,
                feed,
                max,
                capacity,
            })
        }
        "net" => {
            let Some(sub) = rest.first() else {
                return err("net needs a subcommand (run|node)");
            };
            let rest = &rest[1..];
            match sub.as_str() {
                "run" => {
                    let mut nodes = 5usize;
                    let mut rounds = 40u64;
                    let mut slot_us = 3000u64;
                    let mut grace_us = None;
                    let mut penalty = 6u64;
                    let mut reward = 1_000_000u64;
                    let mut reintegrate_after = 4u64;
                    let mut seed = 0u64;
                    let mut drop = 0u16;
                    let mut duplicate = 0u16;
                    let mut reorder = 0u16;
                    let mut corrupt = 0u16;
                    let mut crash = None;
                    let mut json = None;
                    let mut check = false;
                    let mut it = rest.iter();
                    while let Some(a) = it.next() {
                        let mut val = |name: &str| -> Result<&String, ParseError> {
                            it.next()
                                .ok_or_else(|| ParseError(format!("{name} needs a value")))
                        };
                        match a.as_str() {
                            "--nodes" => nodes = parse_num(val("--nodes")?, "nodes")?,
                            "--rounds" => rounds = parse_num(val("--rounds")?, "rounds")?,
                            "--slot-us" => slot_us = parse_num(val("--slot-us")?, "slot")?,
                            "--grace-us" => {
                                grace_us = Some(parse_num(val("--grace-us")?, "grace")?)
                            }
                            "--penalty" => penalty = parse_num(val("--penalty")?, "penalty")?,
                            "--reward" => reward = parse_num(val("--reward")?, "reward")?,
                            "--reintegrate-after" => {
                                reintegrate_after =
                                    parse_num(val("--reintegrate-after")?, "reward count")?
                            }
                            "--seed" => seed = parse_num(val("--seed")?, "seed")?,
                            "--drop" => drop = parse_num(val("--drop")?, "drop per-mille")?,
                            "--duplicate" => {
                                duplicate = parse_num(val("--duplicate")?, "duplicate per-mille")?
                            }
                            "--reorder" => {
                                reorder = parse_num(val("--reorder")?, "reorder per-mille")?
                            }
                            "--corrupt" => {
                                corrupt = parse_num(val("--corrupt")?, "corrupt per-mille")?
                            }
                            "--crash" => crash = Some(parse_crash(val("--crash")?)?),
                            "--json" => json = Some(val("--json")?.clone()),
                            "--check" => check = true,
                            other => return err(format!("unknown net run flag {other:?}")),
                        }
                    }
                    if !(2..=64).contains(&nodes) {
                        return err(format!("net run needs 2..=64 nodes, got {nodes}"));
                    }
                    if rounds == 0 {
                        return err("net run needs at least one round");
                    }
                    if u32::from(drop)
                        + u32::from(duplicate)
                        + u32::from(reorder)
                        + u32::from(corrupt)
                        > 1000
                    {
                        return err("chaos per-mille rates must sum to at most 1000");
                    }
                    if let Some((node, at_round, _)) = crash {
                        if node == 0 || node as usize > nodes {
                            return err(format!("--crash node {node} outside the cluster"));
                        }
                        if at_round == 0 || at_round >= rounds {
                            return err("--crash round must fall inside the run");
                        }
                    }
                    Ok(Command::NetRun {
                        nodes,
                        rounds,
                        slot_us,
                        grace_us,
                        penalty,
                        reward,
                        reintegrate_after,
                        seed,
                        drop,
                        duplicate,
                        reorder,
                        corrupt,
                        crash,
                        json,
                        check,
                    })
                }
                "node" => {
                    let mut id = 1u32;
                    let mut bind = None;
                    let mut peers = Vec::new();
                    let mut rounds = 40u64;
                    let mut slot_us = 3000u64;
                    let mut grace_us = None;
                    let mut penalty = 6u64;
                    let mut reward = 1_000_000u64;
                    let mut reintegrate_after = 4u64;
                    let mut start_delay_ms = 500u64;
                    let mut json = None;
                    let mut it = rest.iter();
                    while let Some(a) = it.next() {
                        let mut val = |name: &str| -> Result<&String, ParseError> {
                            it.next()
                                .ok_or_else(|| ParseError(format!("{name} needs a value")))
                        };
                        match a.as_str() {
                            "--id" => id = parse_num(val("--id")?, "node id")?,
                            "--bind" => bind = Some(val("--bind")?.clone()),
                            "--peers" => {
                                peers = val("--peers")?
                                    .split(',')
                                    .map(|p| p.trim().to_string())
                                    .collect()
                            }
                            "--rounds" => rounds = parse_num(val("--rounds")?, "rounds")?,
                            "--slot-us" => slot_us = parse_num(val("--slot-us")?, "slot")?,
                            "--grace-us" => {
                                grace_us = Some(parse_num(val("--grace-us")?, "grace")?)
                            }
                            "--penalty" => penalty = parse_num(val("--penalty")?, "penalty")?,
                            "--reward" => reward = parse_num(val("--reward")?, "reward")?,
                            "--reintegrate-after" => {
                                reintegrate_after =
                                    parse_num(val("--reintegrate-after")?, "reward count")?
                            }
                            "--start-delay-ms" => {
                                start_delay_ms = parse_num(val("--start-delay-ms")?, "start delay")?
                            }
                            "--json" => json = Some(val("--json")?.clone()),
                            other => return err(format!("unknown net node flag {other:?}")),
                        }
                    }
                    if peers.is_empty() {
                        return err("net node needs --peers ADDR,ADDR,...");
                    }
                    Ok(Command::NetNode {
                        id,
                        bind,
                        peers,
                        rounds,
                        slot_us,
                        grace_us,
                        penalty,
                        reward,
                        reintegrate_after,
                        start_delay_ms,
                        json,
                    })
                }
                other => err(format!("unknown net subcommand {other:?} (run|node)")),
            }
        }
        "shutdown" => {
            let mut socket = DEFAULT_SOCKET.to_string();
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--socket" => {
                        socket = it
                            .next()
                            .ok_or_else(|| ParseError("--socket needs a value".into()))?
                            .clone()
                    }
                    other => return err(format!("unknown shutdown flag {other:?}")),
                }
            }
            Ok(Command::Shutdown { socket })
        }
        other => err(format!("unknown command {other:?} (try `ttdiag help`)")),
    }
}

/// Default admin socket path of `ttdiag serve` and its clients.
pub const DEFAULT_SOCKET: &str = "ttdiag.sock";
/// Default per-job checkpoint directory of `ttdiag serve`.
pub const DEFAULT_STATE: &str = "ttdiag-state";

/// The usage text.
pub const USAGE: &str = "\
ttdiag — tunable add-on diagnosis for time-triggered systems (DSN 2007)

USAGE:
  ttdiag simulate [--nodes N] [--rounds R] [--penalty P] [--reward R]
                  [--seed S] [--timeline] [--fault SPEC]... [--record PATH]
  ttdiag replay PATH [--nodes N] [--rounds R] [--penalty P] [--reward R]
                  [--timeline]             re-drive a recorded trace
  ttdiag metrics [--nodes N] [--rounds R] [--penalty P] [--reward R]
                  [--seed S] [--fault SPEC]... [--format json|csv|summary]
                  [--out PATH] [--record PATH]
                                           instrumented run -> metrics dump
  ttdiag trace   [--nodes N] [--rounds R] [--penalty P] [--reward R]
                  [--seed S] [--fault SPEC]... [--format jsonl|perfetto|summary]
                  [--out PATH]             provenance spans for each diagnosis
  ttdiag tune [automotive|aerospace]       regenerate the Table 2 tuning
  ttdiag tune sweep [--nodes LIST] [--rounds LIST] [--penalty LIST]
                  [--reward LIST] [--crit LIST] [--rate LIST]
                  [--intermittent LIST] [--experiments N] [--batch N]
                  [--seed S] [--json PATH] [--csv-dir DIR] [--check]
                  [--checkpoint PATH] [--resume] [--halt-after CELLS]
                                           Monte Carlo tuning sweep over the
                                           (N, P, R, s, lambda) grid: per-cell
                                           false-isolation probability with
                                           Wilson CIs, time-to-isolation
                                           distributions, forgiveness counts;
                                           measures the Fig. 3 boundary and
                                           (--check) cross-checks it against
                                           the analytic model; LIST values are
                                           comma-separated; checkpointed runs
                                           halt/resume byte-identically
  ttdiag isolation [automotive|aerospace]  Table 4 time-to-isolation rows
  ttdiag campaign [--reps N] [--json PATH] [--threads T]
                  [--checkpoint PATH] [--checkpoint-every N] [--resume]
                  [--halt-after N] [--watchdog-ms MS] [--chaos-seed S]
                  [--chaos-panic PM] [--chaos-hang PM] [--chaos-transient PM]
                                           Sec. 8 validation campaign under
                                           supervision: panicking/hanging
                                           experiments are quarantined (with
                                           seeds), transient failures retried
                                           with backoff, progress checkpointed
                                           atomically; a resumed run is
                                           byte-identical to an uninterrupted
                                           one (chaos rates are per-mille)
  ttdiag explore [--protocol diag|membership|lowlat] [--nodes N] [--rounds R]
                  [--penalty P] [--reward R]
                  [--seed S] [--budget ITERS] [--max-faults K] [--random]
                  [--corpus DIR] [--corpus-out DIR] [--repro DIR] [--json PATH]
                  [--checkpoint PATH] [--checkpoint-every N] [--resume]
                                           coverage-guided fault-schedule
                                           search with shrinking (exit 1 on
                                           any surviving counterexample);
                                           --protocol picks the variant under
                                           test (Sec. 7 membership, Sec. 10
                                           low latency); --resume continues
                                           from the checkpoint's parameters
                                           and RNG position, byte-identically
  ttdiag serve [--socket PATH] [--state DIR]
                                           long-lived diagnosis service on a
                                           Unix admin socket: queued campaign/
                                           explore/tune-sweep jobs run in
                                           checkpointed chunks (halt/resume
                                           over the socket) with live metrics,
                                           span and progress feeds fanned out
                                           to concurrent subscribers
  ttdiag submit (campaign|explore|tune-sweep)
                  [--nodes N] [--reps N] [--rounds R] [--budget ITERS]
                  [--seed S] [--threads T] [--chunk K] [--socket PATH]
                  [--halt-after N]
                                           enqueue a job, print its id plus
                                           the serving host's fingerprint;
                                           --halt-after (campaign, explore)
                                           halts it once, at the first chunk
                                           boundary with >= N items settled
  ttdiag job (list|status ID|halt ID|resume ID) [--socket PATH]
                                           query or control submitted jobs
  ttdiag watch ID [--socket PATH]          live one-line progress summary
                                           (exit 1 if the job fails)
  ttdiag tail --feed (metrics|spans|progress)
                  [--max N] [--capacity N] [--socket PATH]
                                           stream one feed as raw JSONL; the
                                           final line reports delivered/
                                           dropped frame counts
  ttdiag shutdown [--socket PATH]          halt jobs (checkpointed), then stop
                                           the service cleanly
  ttdiag net run [--nodes N] [--rounds R] [--slot-us US] [--grace-us US]
                  [--penalty P] [--reward R] [--reintegrate-after K]
                  [--seed S] [--drop PM] [--duplicate PM] [--reorder PM]
                  [--corrupt PM] [--crash NODE@ROUND+DOWN] [--json PATH]
                  [--check]                run the certified protocol as a
                                           distributed system: N node threads
                                           exchange real UDP datagrams on an
                                           emulated TDMA schedule (loopback),
                                           with seeded chaos, optional
                                           mid-run crash/restart, and a
                                           simulator-replay cross-check of
                                           every surviving node's verdict
                                           (--check exits 1 on divergence;
                                           chaos rates are per-mille)
  ttdiag net node --peers A1,A2,... [--id I] [--bind ADDR] [--rounds R]
                  [--slot-us US] [--grace-us US] [--penalty P] [--reward R]
                  [--reintegrate-after K] [--start-delay-ms MS] [--json PATH]
                                           run one peer of a multi-process
                                           cluster; all peers need the same
                                           peer list (slot order) and must
                                           start within the epoch window
  ttdiag help

EXIT CODES:
  0    success (quarantined experiments alone do not fail a campaign)
  1    a protocol check failed: campaign experiment failure, surviving
       explorer counterexample, violated latency bound
  2    usage error: unparseable or semantically invalid arguments
  101  internal error: I/O or serialization failure in the harness

FAULT SPECS:
  crash:NODE@ROUND         permanent benign sender fault
  intermittent:NODE@ROUND/PERIOD
                           benign sender fault recurring every PERIOD rounds
  burst:LEN@ROUND.SLOT     bus burst of LEN slots
  noise:P                  per-slot benign noise, probability P
  asym:NODE@ROUND:R1,R2    asymmetric fault missed by receivers R1,R2
  scenario:blinking        Table 3 blinking-light scenario
  scenario:lightning       Table 3 lightning-bolt scenario

EXAMPLES:
  ttdiag simulate --fault crash:3@12 --timeline
  ttdiag metrics --fault crash:3@12 --format json
  ttdiag trace --rounds 16 --penalty 3 --reward 2 --fault intermittent:2@4/2 \\
               --format perfetto --out trace.json
  ttdiag metrics --rounds 200 --fault noise:0.05 --format csv --out events.csv
  ttdiag simulate --fault noise:0.1 --record trace.json
  ttdiag replay trace.json --penalty 10
  ttdiag simulate --nodes 6 --rounds 200 --fault noise:0.05 --penalty 10 --reward 50
  ttdiag tune aerospace
  ttdiag tune sweep --reward 2,8,24 --rate 72000 --json sweep.json --check
  ttdiag campaign --reps 100 --json results.json
  ttdiag explore --budget 150 --seed 7 --corpus tests/corpus --repro repros/
  ttdiag serve --socket /tmp/ttdiag.sock --state /tmp/ttdiag-state &
  ttdiag submit campaign --reps 5 --chunk 10 --socket /tmp/ttdiag.sock
  ttdiag watch 1 --socket /tmp/ttdiag.sock
  ttdiag tail --feed progress --max 50 --socket /tmp/ttdiag.sock
  ttdiag shutdown --socket /tmp/ttdiag.sock
";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&args("help")).unwrap(), Command::Help);
        assert_eq!(parse(&args("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn simulate_defaults_and_flags() {
        let c = parse(&args("simulate")).unwrap();
        assert_eq!(
            c,
            Command::Simulate {
                nodes: 4,
                rounds: 50,
                penalty: 197,
                reward: 1_000_000,
                seed: 0,
                timeline: false,
                faults: vec![],
                record: None,
            }
        );
        let c = parse(&args(
            "simulate --nodes 6 --rounds 200 --penalty 10 --reward 50 --seed 7 --timeline",
        ))
        .unwrap();
        match c {
            Command::Simulate {
                nodes,
                rounds,
                penalty,
                reward,
                seed,
                timeline,
                ..
            } => {
                assert_eq!(
                    (nodes, rounds, penalty, reward, seed, timeline),
                    (6, 200, 10, 50, 7, true)
                );
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&args("simulate --nodes 1")).is_err());
        assert!(parse(&args("simulate --nodes 64")).is_ok());
        assert!(parse(&args("simulate --nodes 65")).is_err());
        assert!(parse(&args("replay t.json --nodes 1")).is_err());
        assert!(parse(&args("replay t.json --nodes 65")).is_err());
    }

    #[test]
    fn fault_specs_parse() {
        assert_eq!(
            FaultSpec::parse("crash:3@12").unwrap(),
            FaultSpec::Crash { node: 3, round: 12 }
        );
        assert_eq!(
            FaultSpec::parse("burst:8@10.2").unwrap(),
            FaultSpec::Burst {
                len: 8,
                round: 10,
                slot: 2
            }
        );
        assert_eq!(
            FaultSpec::parse("noise:0.1").unwrap(),
            FaultSpec::Noise { p: 0.1 }
        );
        assert_eq!(
            FaultSpec::parse("asym:1@9:1,2").unwrap(),
            FaultSpec::Asym {
                node: 1,
                round: 9,
                detected_by: vec![1, 2]
            }
        );
        assert_eq!(
            FaultSpec::parse("scenario:lightning").unwrap(),
            FaultSpec::Scenario {
                name: "lightning".into()
            }
        );
        assert_eq!(
            FaultSpec::parse("intermittent:2@4/2").unwrap(),
            FaultSpec::Intermittent {
                node: 2,
                round: 4,
                period: 2
            }
        );
    }

    #[test]
    fn fault_spec_errors_are_informative() {
        assert!(FaultSpec::parse("crash:3")
            .unwrap_err()
            .0
            .contains("NODE@ROUND"));
        assert!(FaultSpec::parse("noise:2.0")
            .unwrap_err()
            .0
            .contains("out of range"));
        assert!(FaultSpec::parse("warp:9")
            .unwrap_err()
            .0
            .contains("unknown fault kind"));
        assert!(FaultSpec::parse("scenario:rain")
            .unwrap_err()
            .0
            .contains("unknown scenario"));
        assert!(FaultSpec::parse("intermittent:2@4")
            .unwrap_err()
            .0
            .contains("NODE@ROUND/PERIOD"));
        assert!(FaultSpec::parse("intermittent:2@4/0")
            .unwrap_err()
            .0
            .contains("period must be positive"));
    }

    #[test]
    fn metrics_defaults_and_flags() {
        let c = parse(&args("metrics")).unwrap();
        assert_eq!(
            c,
            Command::Metrics {
                nodes: 4,
                rounds: 50,
                penalty: 197,
                reward: 1_000_000,
                seed: 0,
                faults: vec![],
                format: MetricsFormat::Json,
                out: None,
                record: None,
            }
        );
        let c = parse(&args(
            "metrics --rounds 20 --fault crash:3@5 --format csv --out events.csv --record t.json",
        ))
        .unwrap();
        match c {
            Command::Metrics {
                rounds,
                faults,
                format,
                out,
                record,
                ..
            } => {
                assert_eq!(rounds, 20);
                assert_eq!(faults, vec![FaultSpec::Crash { node: 3, round: 5 }]);
                assert_eq!(format, MetricsFormat::Csv);
                assert_eq!(out, Some("events.csv".into()));
                assert_eq!(record, Some("t.json".into()));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&args("metrics --format xml")).is_err());
        assert!(parse(&args("metrics --nodes 1")).is_err());
        assert!(parse(&args("metrics --nodes 64")).is_ok());
        assert!(parse(&args("metrics --nodes 65")).is_err());
    }

    #[test]
    fn trace_defaults_and_flags() {
        let c = parse(&args("trace")).unwrap();
        assert_eq!(
            c,
            Command::Trace {
                nodes: 4,
                rounds: 50,
                penalty: 197,
                reward: 1_000_000,
                seed: 0,
                faults: vec![],
                format: TraceFormat::Summary,
                out: None,
            }
        );
        let c = parse(&args(
            "trace --rounds 16 --penalty 3 --reward 2 --fault intermittent:2@4/2 \
             --format perfetto --out trace.json",
        ))
        .unwrap();
        match c {
            Command::Trace {
                rounds,
                penalty,
                reward,
                faults,
                format,
                out,
                ..
            } => {
                assert_eq!((rounds, penalty, reward), (16, 3, 2));
                assert_eq!(
                    faults,
                    vec![FaultSpec::Intermittent {
                        node: 2,
                        round: 4,
                        period: 2
                    }]
                );
                assert_eq!(format, TraceFormat::Perfetto);
                assert_eq!(out, Some("trace.json".into()));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            TraceFormat::parse("jsonl").unwrap(),
            TraceFormat::Jsonl,
            "jsonl accepted"
        );
        assert!(parse(&args("trace --format xml")).is_err());
        assert!(parse(&args("trace --nodes 1")).is_err());
        assert!(parse(&args("trace --nodes 64")).is_ok());
        assert!(parse(&args("trace --nodes 65")).is_err());
    }

    #[test]
    fn tune_and_isolation_domains() {
        assert_eq!(
            parse(&args("tune")).unwrap(),
            Command::Tune {
                domain: "automotive".into()
            }
        );
        assert_eq!(
            parse(&args("isolation aerospace")).unwrap(),
            Command::Isolation {
                domain: "aerospace".into()
            }
        );
        // Unknown domains parse; `commands::domain_setup` rejects them with
        // a usage error so `tune` and `isolation` share one error path.
        assert_eq!(
            parse(&args("tune maritime")).unwrap(),
            Command::Tune {
                domain: "maritime".into()
            }
        );
        assert_eq!(
            parse(&args("isolation maritime")).unwrap(),
            Command::Isolation {
                domain: "maritime".into()
            }
        );
    }

    #[test]
    fn tune_sweep_defaults_and_flags() {
        let c = parse(&args("tune sweep")).unwrap();
        assert_eq!(
            c,
            Command::TuneSweep {
                config: tt_analysis::SweepConfig::default(),
                json: None,
                csv_dir: None,
                check: false,
                checkpoint: None,
                resume: false,
                halt_after: None,
            }
        );
        let c = parse(&args(
            "tune sweep --nodes 4 --rounds 48 --penalty 1 --reward 2,8 --crit 1 \
             --rate 72000,1400 --intermittent 0 --experiments 32 --batch 8 --seed 3 \
             --json s.json --csv-dir tables/ --check --checkpoint cp.json --halt-after 2",
        ))
        .unwrap();
        match c {
            Command::TuneSweep {
                config,
                json,
                csv_dir,
                check,
                checkpoint,
                resume,
                halt_after,
            } => {
                assert_eq!(config.nodes, vec![4]);
                assert_eq!(config.rounds, vec![48]);
                assert_eq!(config.penalty_thresholds, vec![1]);
                assert_eq!(config.reward_thresholds, vec![2, 8]);
                assert_eq!(config.criticalities, vec![1]);
                assert_eq!(config.rates_per_hour, vec![72_000.0, 1_400.0]);
                assert_eq!(config.intermittent_periods, vec![0]);
                assert_eq!((config.experiments, config.batch_size), (32, 8));
                assert_eq!(config.base_seed, 3);
                assert_eq!(json, Some("s.json".into()));
                assert_eq!(csv_dir, Some("tables/".into()));
                assert!(check);
                assert_eq!(checkpoint, Some("cp.json".into()));
                assert!(!resume);
                assert_eq!(halt_after, Some(2));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&args("tune sweep --rate bogus")).is_err());
        assert!(parse(&args("tune sweep --reward")).is_err());
        assert!(parse(&args("tune sweep --warp 9")).is_err());
        assert!(parse(&args("tune sweep --resume")).is_err());
        assert!(parse(&args("tune sweep --resume --checkpoint cp.json")).is_ok());
    }

    #[test]
    fn campaign_flags() {
        let c = parse(&args("campaign --reps 5 --json out.json")).unwrap();
        assert_eq!(
            c,
            Command::Campaign {
                reps: 5,
                json: Some("out.json".into()),
                threads: 1,
                checkpoint: None,
                checkpoint_every: 25,
                resume: false,
                halt_after: None,
                watchdog_ms: None,
                chaos_seed: 0,
                chaos_panic: 0,
                chaos_hang: 0,
                chaos_transient: 0,
            }
        );
        assert!(parse(&args("campaign --bogus")).is_err());
    }

    #[test]
    fn campaign_supervision_flags() {
        let c = parse(&args(
            "campaign --reps 2 --threads 4 --checkpoint cp.json --checkpoint-every 10 \
             --halt-after 7 --watchdog-ms 500 --chaos-seed 9 --chaos-panic 100 \
             --chaos-hang 50 --chaos-transient 25",
        ))
        .unwrap();
        match c {
            Command::Campaign {
                reps,
                threads,
                checkpoint,
                checkpoint_every,
                resume,
                halt_after,
                watchdog_ms,
                chaos_seed,
                chaos_panic,
                chaos_hang,
                chaos_transient,
                ..
            } => {
                assert_eq!((reps, threads), (2, 4));
                assert_eq!(checkpoint, Some("cp.json".into()));
                assert_eq!(checkpoint_every, 10);
                assert!(!resume);
                assert_eq!(halt_after, Some(7));
                assert_eq!(watchdog_ms, Some(500));
                assert_eq!((chaos_seed, chaos_panic), (9, 100));
                assert_eq!((chaos_hang, chaos_transient), (50, 25));
            }
            other => panic!("{other:?}"),
        }
        // Resume needs a checkpoint path to resume from.
        assert!(parse(&args("campaign --resume")).is_err());
        assert!(parse(&args("campaign --resume --checkpoint cp.json")).is_ok());
        assert!(parse(&args("campaign --threads 0")).is_err());
        // Per-mille bands cannot overflow the draw range.
        assert!(parse(&args(
            "campaign --chaos-panic 600 --chaos-hang 300 --chaos-transient 200"
        ))
        .is_err());
    }

    #[test]
    fn explore_defaults_and_flags() {
        let c = parse(&args("explore")).unwrap();
        assert_eq!(
            c,
            Command::Explore {
                protocol: tt_fault::ProtocolUnderTest::Diag,
                nodes: 4,
                rounds: 24,
                penalty: 3,
                reward: 2,
                seed: 0xD1A6_05E5,
                budget: 200,
                max_faults: 6,
                random: false,
                corpus: None,
                corpus_out: None,
                repro: None,
                json: None,
                checkpoint: None,
                checkpoint_every: 25,
                resume: false,
            }
        );
        let c = parse(&args(
            "explore --protocol membership --nodes 5 --rounds 30 --penalty 4 --reward 3 \
             --seed 9 --budget 50 \
             --max-faults 3 --random --corpus in/ --corpus-out out/ --repro rep/ --json r.json \
             --checkpoint cp.json --checkpoint-every 5",
        ))
        .unwrap();
        match c {
            Command::Explore {
                protocol,
                nodes,
                rounds,
                penalty,
                reward,
                seed,
                budget,
                max_faults,
                random,
                corpus,
                corpus_out,
                repro,
                json,
                checkpoint,
                checkpoint_every,
                resume,
            } => {
                assert_eq!(protocol, tt_fault::ProtocolUnderTest::Membership);
                assert_eq!((nodes, rounds, penalty, reward), (5, 30, 4, 3));
                assert_eq!((seed, budget, max_faults, random), (9, 50, 3, true));
                assert_eq!(corpus, Some("in/".into()));
                assert_eq!(corpus_out, Some("out/".into()));
                assert_eq!(repro, Some("rep/".into()));
                assert_eq!(json, Some("r.json".into()));
                assert_eq!(checkpoint, Some("cp.json".into()));
                assert_eq!(checkpoint_every, 5);
                assert!(!resume);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&args("explore --nodes 3")).is_err());
        assert!(parse(&args("explore --nodes 64")).is_ok());
        assert!(parse(&args("explore --nodes 65")).is_err());
        assert!(parse(&args("explore --budget 0")).is_err());
        assert!(parse(&args("explore --warp 9")).is_err());
        assert!(parse(&args("explore --protocol lowlat")).is_ok());
        assert!(parse(&args("explore --protocol quorum")).is_err());
        assert!(parse(&args("explore --protocol")).is_err());
        assert!(parse(&args("explore --resume")).is_err());
        assert!(parse(&args("explore --resume --checkpoint cp.json")).is_ok());
    }

    #[test]
    fn unknown_command_rejected() {
        assert!(parse(&args("launch")).is_err());
        assert!(parse(&args("simulate --warp 9")).is_err());
    }

    #[test]
    fn net_run_defaults_and_flags() {
        let c = parse(&args("net run")).unwrap();
        assert_eq!(
            c,
            Command::NetRun {
                nodes: 5,
                rounds: 40,
                slot_us: 3000,
                grace_us: None,
                penalty: 6,
                reward: 1_000_000,
                reintegrate_after: 4,
                seed: 0,
                drop: 0,
                duplicate: 0,
                reorder: 0,
                corrupt: 0,
                crash: None,
                json: None,
                check: false,
            }
        );
        let c = parse(&args(
            "net run --nodes 4 --rounds 60 --slot-us 5000 --grace-us 2000 --penalty 3 \
             --reward 8 --reintegrate-after 6 --seed 7 --drop 50 --duplicate 5 --reorder 5 \
             --corrupt 5 --crash 3@12+10 --json report.json --check",
        ))
        .unwrap();
        match c {
            Command::NetRun {
                nodes,
                rounds,
                slot_us,
                grace_us,
                penalty,
                reward,
                reintegrate_after,
                seed,
                drop,
                duplicate,
                reorder,
                corrupt,
                crash,
                json,
                check,
            } => {
                assert_eq!(
                    (nodes, rounds, slot_us, grace_us),
                    (4, 60, 5000, Some(2000))
                );
                assert_eq!((penalty, reward, reintegrate_after, seed), (3, 8, 6, 7));
                assert_eq!((drop, duplicate, reorder, corrupt), (50, 5, 5, 5));
                assert_eq!(crash, Some((3, 12, 10)));
                assert_eq!(json, Some("report.json".into()));
                assert!(check);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn net_usage_errors() {
        // The exit-code taxonomy: every one of these is a usage error
        // (exit 2), checked end to end in crates/cli/tests/exit_codes.rs.
        assert!(parse(&args("net")).is_err());
        assert!(parse(&args("net frobnicate")).is_err());
        assert!(parse(&args("net run --nodes 1")).is_err());
        assert!(parse(&args("net run --nodes 65")).is_err());
        assert!(parse(&args("net run --rounds 0")).is_err());
        assert!(parse(&args("net run --warp 9")).is_err());
        assert!(parse(&args("net run --drop 600 --corrupt 600")).is_err());
        assert!(parse(&args("net run --crash 3@12")).is_err());
        assert!(parse(&args("net run --crash 3@12+0")).is_err());
        assert!(parse(&args("net run --crash 9@12+4")).is_err());
        assert!(parse(&args("net run --crash 3@0+4")).is_err());
        assert!(parse(&args("net run --rounds 10 --crash 3@10+4")).is_err());
        assert!(parse(&args("net node")).is_err());
        assert!(parse(&args("net node --id 1")).is_err(), "peers required");
    }

    #[test]
    fn net_node_flags() {
        let c = parse(&args(
            "net node --id 2 --peers 127.0.0.1:9001,127.0.0.1:9002 --rounds 8 --start-delay-ms 200",
        ))
        .unwrap();
        match c {
            Command::NetNode {
                id,
                bind,
                peers,
                rounds,
                start_delay_ms,
                ..
            } => {
                assert_eq!(id, 2);
                assert_eq!(bind, None);
                assert_eq!(peers, vec!["127.0.0.1:9001", "127.0.0.1:9002"]);
                assert_eq!((rounds, start_delay_ms), (8, 200));
            }
            other => panic!("{other:?}"),
        }
    }
    #[test]
    fn submit_halt_after_reaches_campaign_and_explore_specs() {
        let c = parse(&args("submit campaign --reps 4 --chunk 3 --halt-after 6")).unwrap();
        let Command::Submit { spec, .. } = c else {
            panic!("{c:?}")
        };
        assert_eq!(spec.halt_after(), Some(6));
        assert!(matches!(
            spec,
            tt_bench::JobSpec::Campaign {
                reps: 4,
                chunk: 3,
                ..
            }
        ));
        let c = parse(&args("submit explore --budget 40 --halt-after 10")).unwrap();
        let Command::Submit { spec, .. } = c else {
            panic!("{c:?}")
        };
        assert_eq!(spec.halt_after(), Some(10));
        // Without the flag nothing halts by itself.
        let c = parse(&args("submit campaign")).unwrap();
        let Command::Submit { spec, .. } = c else {
            panic!("{c:?}")
        };
        assert_eq!(spec.halt_after(), None);
        for bad in [
            "submit campaign --halt-after 0",
            "submit campaign --halt-after x",
            "submit explore --halt-after",
            "submit tune-sweep --halt-after 2",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
