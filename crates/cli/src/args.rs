//! Argument parsing for the `ttdiag` CLI (std only, no dependencies).
//!
//! [`USAGE`] is the grammar: every subcommand, its flags and the fault
//! specs. [`parse`] reads each subcommand's flags through one [`Flags`]
//! cursor straight into the options struct its command runs on; flags
//! several subcommands take are read once, by [`ClusterOpts`],
//! [`FaultOpts`], [`CheckpointOpts`] and [`NetOpts`].

use std::fmt;
use std::str::FromStr;

use tt_analysis::SweepConfig;
use tt_fault::{ChaosPlan, ExploreConfig, ProtocolUnderTest, Strategy};
use tt_net::{CrashSpec, LinkRates};

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

/// The parsed command line: one variant per subcommand, each carrying the
/// options its command runs on.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run a cluster and report the protocol's view.
    Simulate(SimulateOpts),
    /// Replay a recorded fault trace against a (possibly re-tuned) cluster.
    Replay(ReplayOpts),
    /// Print the Table 2 tuning for a domain.
    Tune {
        /// `"automotive"` or `"aerospace"` (validated at execution, so
        /// unknown domains share one error path with `isolation`).
        domain: String,
    },
    /// Run a campaign-scale Monte Carlo tuning sweep over a
    /// `(N, P, R, s, λ)` grid.
    TuneSweep(TuneSweepOpts),
    /// Print the Table 4 time-to-isolation rows for a domain.
    Isolation {
        /// `"automotive"` or `"aerospace"`.
        domain: String,
    },
    /// Run an instrumented cluster and dump the recorded metrics.
    Metrics(MetricsOpts),
    /// Run a trace-instrumented cluster and export the provenance spans.
    Trace(TraceOpts),
    /// Run the Sec. 8 validation campaign under supervision.
    Campaign(CampaignOpts),
    /// Run the coverage-guided fault-schedule explorer.
    Explore(ExploreOpts),
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
    NetRun(NetRunOpts),
    /// Run one UDP peer of a multi-process cluster (`ttdiag net node`).
    NetNode(NetNodeOpts),
    /// Print usage.
    Help,
}

/// The cluster flags of `simulate`, `replay`, `metrics` and `trace`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterOpts {
    /// Cluster size.
    pub nodes: usize,
    /// Rounds to simulate.
    pub rounds: u64,
    /// Penalty threshold `P`.
    pub penalty: u64,
    /// Reward threshold `R`.
    pub reward: u64,
}

impl Default for ClusterOpts {
    fn default() -> Self {
        ClusterOpts {
            nodes: 4,
            rounds: 50,
            penalty: 197,
            reward: 1_000_000,
        }
    }
}

impl ClusterOpts {
    /// Reads `flag` if it is a cluster flag; `false` if it is not one.
    fn read(&mut self, flag: &str, f: &mut Flags) -> Result<bool, ParseError> {
        match flag {
            "--nodes" => self.nodes = f.num("nodes")?,
            "--rounds" => self.rounds = f.num("rounds")?,
            "--penalty" => self.penalty = f.num("penalty")?,
            "--reward" => self.reward = f.num("reward")?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Refuses a cluster size that one syndrome word (one bit per node)
    /// cannot hold, before any cluster is built.
    fn check(&self) -> Result<(), ParseError> {
        let max = tt_core::syndrome::MAX_SYNDROME_NODES;
        if (2..=max).contains(&self.nodes) {
            Ok(())
        } else {
            err(format!("need 2..={max} nodes, got {}", self.nodes))
        }
    }
}

/// The injected-fault flags of `simulate`, `metrics` and `trace`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultOpts {
    /// Seed for randomized disturbances.
    pub seed: u64,
    /// Injected faults.
    pub faults: Vec<FaultSpec>,
}

impl FaultOpts {
    /// Reads `flag` if it is a fault flag; `false` if it is not one.
    fn read(&mut self, flag: &str, f: &mut Flags) -> Result<bool, ParseError> {
        match flag {
            "--seed" => self.seed = f.num("seed")?,
            "--fault" => self.faults.push(FaultSpec::parse(f.value()?)?),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// `--checkpoint PATH` and `--resume`, shared by `tune sweep`, `campaign`
/// and `explore`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointOpts {
    /// Checkpoint file path, if checkpointing is enabled.
    pub path: Option<String>,
    /// Resume from the checkpoint instead of starting fresh.
    pub resume: bool,
}

impl CheckpointOpts {
    /// Reads `flag` if it is a checkpoint flag; `false` if it is not one.
    fn read(&mut self, flag: &str, f: &mut Flags) -> Result<bool, ParseError> {
        match flag {
            "--checkpoint" => self.path = f.path()?,
            "--resume" => self.resume = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn check(&self) -> Result<(), ParseError> {
        if self.resume && self.path.is_none() {
            return err("--resume needs --checkpoint PATH");
        }
        Ok(())
    }

    /// The checkpoint to resume from, when resuming.
    pub fn resume_from(&self) -> Option<&str> {
        self.path.as_deref().filter(|_| self.resume)
    }
}

/// `ttdiag simulate`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimulateOpts {
    /// The cluster.
    pub cluster: ClusterOpts,
    /// Injected faults.
    pub faults: FaultOpts,
    /// Print the fault timeline.
    pub timeline: bool,
    /// Write the fault trace (with replayable effects) to this path.
    pub record: Option<String>,
}

/// `ttdiag replay`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayOpts {
    /// Path to a JSON trace written by `simulate --record`.
    pub trace: String,
    /// The cluster.
    pub cluster: ClusterOpts,
    /// Print the fault timeline.
    pub timeline: bool,
}

/// `ttdiag metrics`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsOpts {
    /// The cluster.
    pub cluster: ClusterOpts,
    /// Injected faults.
    pub faults: FaultOpts,
    /// Output format.
    pub format: MetricsFormat,
    /// Write the output to this path instead of stdout.
    pub out: Option<String>,
    /// Write the fault trace (with replayable effects) to this path.
    pub record: Option<String>,
}

/// `ttdiag trace`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceOpts {
    /// The cluster.
    pub cluster: ClusterOpts,
    /// Injected faults.
    pub faults: FaultOpts,
    /// Output format.
    pub format: TraceFormat,
    /// Write the output to this path instead of stdout.
    pub out: Option<String>,
}

/// `ttdiag tune sweep`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TuneSweepOpts {
    /// The grid and sampling parameters.
    pub config: SweepConfig,
    /// JSON report output path, if any.
    pub json: Option<String>,
    /// Directory for the CSV table exports (Fig. 3 boundary, isolation
    /// estimators, safety curves), if any.
    pub csv_dir: Option<String>,
    /// Fail (exit 1) when a measured Fig. 3 boundary disagrees with the
    /// analytic model beyond its Wilson interval.
    pub check: bool,
    /// Checkpointing; a resumed sweep takes its grid from the checkpoint.
    pub checkpoint: CheckpointOpts,
    /// Halt (with a checkpoint) after this many newly completed cells.
    pub halt_after: Option<u64>,
}

/// `ttdiag campaign`.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOpts {
    /// Repetitions per class.
    pub reps: u64,
    /// JSON output path, if any.
    pub json: Option<String>,
    /// Supervised worker threads.
    pub threads: usize,
    /// Checkpointing.
    pub checkpoint: CheckpointOpts,
    /// Checkpoint every this many settled experiments.
    pub checkpoint_every: u64,
    /// Stop (with a checkpoint) after this many newly settled experiments.
    pub halt_after: Option<usize>,
    /// Per-experiment watchdog budget in milliseconds.
    pub watchdog_ms: Option<u64>,
    /// The injected harness-fault plan (`--chaos-*`, rates per-mille).
    pub chaos: ChaosPlan,
}

impl Default for CampaignOpts {
    fn default() -> Self {
        CampaignOpts {
            reps: 100,
            json: None,
            threads: 1,
            checkpoint: CheckpointOpts::default(),
            checkpoint_every: 25,
            halt_after: None,
            watchdog_ms: None,
            chaos: ChaosPlan::quiet(0),
        }
    }
}

/// `ttdiag explore`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreOpts {
    /// The session's parameters (a resumed session takes its own from the
    /// checkpoint).
    pub config: ExploreConfig,
    /// Seed-corpus directory to replay before generating.
    pub corpus: Option<String>,
    /// Directory to write coverage-discovering schedules to.
    pub corpus_out: Option<String>,
    /// Directory to write shrunk counterexample schedules to.
    pub repro: Option<String>,
    /// JSON report output path, if any.
    pub json: Option<String>,
    /// Checkpointing.
    pub checkpoint: CheckpointOpts,
    /// Checkpoint every this many executed schedules.
    pub checkpoint_every: u64,
}

impl Default for ExploreOpts {
    fn default() -> Self {
        ExploreOpts {
            config: ExploreConfig {
                budget: 200,
                ..ExploreConfig::default()
            },
            corpus: None,
            corpus_out: None,
            repro: None,
            json: None,
            checkpoint: CheckpointOpts::default(),
            checkpoint_every: 25,
        }
    }
}

/// The node flags `net run` and `net node` share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetOpts {
    /// Rounds to run.
    pub rounds: u64,
    /// TDMA slot duration in microseconds.
    pub slot_us: u64,
    /// Reception grace in microseconds (default: half a slot).
    pub grace_us: Option<u64>,
    /// Penalty threshold `P`.
    pub penalty: u64,
    /// Reward threshold `R`.
    pub reward: u64,
    /// Reintegrate an isolated node after this many consecutive rewards
    /// (0 = never reintegrate).
    pub reintegrate_after: u64,
    /// Write the JSON report (with host fingerprint) here: the whole run's
    /// for `net run`, this node's segment for `net node`.
    pub json: Option<String>,
}

impl Default for NetOpts {
    fn default() -> Self {
        NetOpts {
            rounds: 40,
            slot_us: 3000,
            grace_us: None,
            penalty: 6,
            reward: 1_000_000,
            reintegrate_after: 4,
            json: None,
        }
    }
}

impl NetOpts {
    /// Reads `flag` if it is a shared node flag; `false` if it is not one.
    fn read(&mut self, flag: &str, f: &mut Flags) -> Result<bool, ParseError> {
        match flag {
            "--rounds" => self.rounds = f.num("rounds")?,
            "--slot-us" => self.slot_us = f.num("slot")?,
            "--grace-us" => self.grace_us = Some(f.num("grace")?),
            "--penalty" => self.penalty = f.num("penalty")?,
            "--reward" => self.reward = f.num("reward")?,
            "--reintegrate-after" => self.reintegrate_after = f.num("reward count")?,
            "--json" => self.json = f.path()?,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// `ttdiag net run`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetRunOpts {
    /// Cluster size (one TDMA slot per node).
    pub nodes: usize,
    /// The shared node flags.
    pub net: NetOpts,
    /// Chaos seed (the injected loss pattern is a pure function of seed
    /// and topology).
    pub seed: u64,
    /// Per-mille link chaos rates.
    pub rates: LinkRates,
    /// Kill one node mid-run and restart it.
    pub crash: Option<CrashSpec>,
    /// Exit 1 unless the run converged and the simulator replay agrees.
    pub check: bool,
}

impl Default for NetRunOpts {
    fn default() -> Self {
        NetRunOpts {
            nodes: 5,
            net: NetOpts::default(),
            seed: 0,
            rates: LinkRates::QUIET,
            crash: None,
            check: false,
        }
    }
}

/// `ttdiag net node`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetNodeOpts {
    /// This peer's 1-based id (slot = id - 1).
    pub id: u32,
    /// Bind address (default: the own entry of `--peers`).
    pub bind: Option<String>,
    /// All peer addresses in slot order.
    pub peers: Vec<String>,
    /// The shared node flags.
    pub net: NetOpts,
    /// Epoch delay in milliseconds: all peers must start within this
    /// window for their slot clocks to align.
    pub start_delay_ms: u64,
}

impl Default for NetNodeOpts {
    fn default() -> Self {
        NetNodeOpts {
            id: 1,
            bind: None,
            peers: Vec::new(),
            net: NetOpts::default(),
            start_delay_ms: 500,
        }
    }
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

fn parse_num<T: FromStr>(s: &str, what: &str) -> Result<T, ParseError> {
    s.parse()
        .map_err(|_| ParseError(format!("invalid {what}: {s:?}")))
}

/// A cursor over one subcommand's arguments: it yields each flag in turn
/// and reads the flag's value, naming the flag in every error.
struct Flags<'a> {
    /// The subcommand, as the unknown-flag message names it.
    cmd: &'a str,
    args: std::slice::Iter<'a, String>,
    /// The flag [`Flags::next`] returned last.
    flag: &'a str,
}

impl<'a> Flags<'a> {
    fn new(cmd: &'a str, args: &'a [String]) -> Self {
        Flags {
            cmd,
            args: args.iter(),
            flag: "",
        }
    }

    /// The next flag, or `None` once every argument is read.
    fn next(&mut self) -> Option<&'a str> {
        self.flag = self.args.next()?.as_str();
        Some(self.flag)
    }

    /// The current flag's value.
    fn value(&mut self) -> Result<&'a str, ParseError> {
        match self.args.next() {
            Some(v) => Ok(v.as_str()),
            None => err(format!("{} needs a value", self.flag)),
        }
    }

    /// The current flag's value, parsed as a `what`.
    fn num<T: FromStr>(&mut self, what: &str) -> Result<T, ParseError> {
        parse_num(self.value()?, what)
    }

    /// The current flag's comma-separated value (`--reward 2,8,24`), each
    /// item parsed as a `what`.
    fn list<T: FromStr>(&mut self, what: &str) -> Result<Vec<T>, ParseError> {
        let v = self.value()?;
        v.split(',').map(|s| parse_num(s.trim(), what)).collect()
    }

    /// The current flag's value as an output or input path.
    fn path(&mut self) -> Result<Option<String>, ParseError> {
        Ok(Some(self.value()?.to_string()))
    }

    /// The error for a flag the subcommand does not take.
    fn unknown<T>(&self) -> Result<T, ParseError> {
        err(format!("unknown {} flag {:?}", self.cmd, self.flag))
    }
}

/// Parses `NODE@ROUND` into `(node, round)`.
fn parse_at(s: &str, what: &str) -> Result<(u32, u64), ParseError> {
    let (node, round) = s
        .split_once('@')
        .ok_or_else(|| ParseError(format!("{what} must be NODE@ROUND, got {s:?}")))?;
    Ok((parse_num(node, "node")?, parse_num(round, "round")?))
}

/// Parses the `NODE@ROUND` of a fault spec, refusing node 0: fault specs
/// name nodes by their 1-based id.
fn fault_at(s: &str, what: &str) -> Result<(u32, u64), ParseError> {
    let (node, round) = parse_at(s, what)?;
    if node == 0 {
        return err(format!("{what}: node ids are 1-based, got 0"));
    }
    Ok((node, round))
}

/// Parses `NODE@ROUND+DOWN`.
fn parse_crash(s: &str) -> Result<CrashSpec, ParseError> {
    let (at, down) = s
        .split_once('+')
        .ok_or_else(|| ParseError(format!("--crash must be NODE@ROUND+DOWN, got {s:?}")))?;
    let (node, at_round) = parse_at(at, "--crash")?;
    let down_rounds: u64 = parse_num(down, "down rounds")?;
    if down_rounds == 0 {
        return err("--crash needs at least one down round");
    }
    Ok(CrashSpec {
        node,
        at_round,
        down_rounds,
    })
}

impl FaultSpec {
    /// Parses one `--fault` value.
    pub fn parse(s: &str) -> Result<FaultSpec, ParseError> {
        let (kind, rest) = s
            .split_once(':')
            .ok_or_else(|| ParseError(format!("fault spec needs KIND:ARGS, got {s:?}")))?;
        match kind {
            "crash" => {
                let (node, round) = fault_at(rest, "crash")?;
                Ok(FaultSpec::Crash { node, round })
            }
            "intermittent" => {
                let (at, period) = rest.rsplit_once('/').ok_or_else(|| {
                    ParseError(format!(
                        "intermittent must be NODE@ROUND/PERIOD, got {rest:?}"
                    ))
                })?;
                let (node, round) = fault_at(at, "intermittent")?;
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
                let shape = || ParseError(format!("burst must be LEN@ROUND.SLOT, got {rest:?}"));
                let (len, at) = rest.split_once('@').ok_or_else(shape)?;
                let (round, slot) = at.split_once('.').ok_or_else(shape)?;
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
                let (node, round) = fault_at(at, "asym")?;
                let detected_by = rxs
                    .split(',')
                    .map(|r| parse_num(r, "receiver index"))
                    .collect::<Result<Vec<usize>, _>>()?;
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
    Ok(match cmd.as_str() {
        "help" | "--help" | "-h" => Command::Help,
        "tune" if rest.first().map(String::as_str) == Some("sweep") => {
            Command::TuneSweep(tune_sweep(&rest[1..])?)
        }
        // Any domain token parses; `commands::domain_setup` rejects
        // unknown ones so `tune` and `isolation` share one error path.
        "tune" => Command::Tune {
            domain: domain(cmd, rest)?,
        },
        "isolation" => Command::Isolation {
            domain: domain(cmd, rest)?,
        },
        "simulate" => Command::Simulate(simulate(rest)?),
        "replay" => Command::Replay(replay(rest)?),
        "metrics" => Command::Metrics(metrics(rest)?),
        "trace" => Command::Trace(trace(rest)?),
        "campaign" => Command::Campaign(campaign(rest)?),
        "explore" => Command::Explore(explore(rest)?),
        "serve" => serve(rest)?,
        "submit" => submit(rest)?,
        "job" => job(rest)?,
        "watch" => {
            let Some(job) = rest.first() else {
                return err("watch needs a job id");
            };
            let job = parse_num(job, "job id")?;
            let socket = socket_only("watch", &rest[1..])?;
            Command::Watch { socket, job }
        }
        "tail" => tail(rest)?,
        "shutdown" => Command::Shutdown {
            socket: socket_only("shutdown", rest)?,
        },
        "net" => match rest.first().map(String::as_str) {
            None => return err("net needs a subcommand (run|node)"),
            Some("run") => Command::NetRun(net_run(&rest[1..])?),
            Some("node") => Command::NetNode(net_node(&rest[1..])?),
            Some(other) => return err(format!("unknown net subcommand {other:?} (run|node)")),
        },
        other => return err(format!("unknown command {other:?} (try `ttdiag help`)")),
    })
}

/// The domain token of `tune` and `isolation`; nothing may follow it.
fn domain(cmd: &str, args: &[String]) -> Result<String, ParseError> {
    let mut f = Flags::new(cmd, args.get(1..).unwrap_or_default());
    if f.next().is_some() {
        return f.unknown();
    }
    Ok(args.first().cloned().unwrap_or_else(|| "automotive".into()))
}

/// Refuses `--halt-after 0`, which would halt before running anything.
fn check_halt_after<T: Default + PartialEq>(halt_after: Option<T>) -> Result<(), ParseError> {
    if halt_after == Some(T::default()) {
        return err("--halt-after must be positive");
    }
    Ok(())
}

fn simulate(args: &[String]) -> Result<SimulateOpts, ParseError> {
    let mut o = SimulateOpts::default();
    let mut f = Flags::new("simulate", args);
    while let Some(flag) = f.next() {
        match flag {
            "--timeline" => o.timeline = true,
            "--record" => o.record = f.path()?,
            _ if o.cluster.read(flag, &mut f)? || o.faults.read(flag, &mut f)? => {}
            _ => return f.unknown(),
        }
    }
    o.cluster.check()?;
    Ok(o)
}

fn replay(args: &[String]) -> Result<ReplayOpts, ParseError> {
    let Some(trace) = args.first() else {
        return err("replay needs a trace path");
    };
    let mut o = ReplayOpts {
        trace: trace.clone(),
        ..ReplayOpts::default()
    };
    let mut f = Flags::new("replay", &args[1..]);
    while let Some(flag) = f.next() {
        match flag {
            "--timeline" => o.timeline = true,
            _ if o.cluster.read(flag, &mut f)? => {}
            _ => return f.unknown(),
        }
    }
    o.cluster.check()?;
    Ok(o)
}

fn metrics(args: &[String]) -> Result<MetricsOpts, ParseError> {
    let mut o = MetricsOpts::default();
    let mut f = Flags::new("metrics", args);
    while let Some(flag) = f.next() {
        match flag {
            "--format" => o.format = MetricsFormat::parse(f.value()?)?,
            "--out" => o.out = f.path()?,
            "--record" => o.record = f.path()?,
            _ if o.cluster.read(flag, &mut f)? || o.faults.read(flag, &mut f)? => {}
            _ => return f.unknown(),
        }
    }
    o.cluster.check()?;
    Ok(o)
}

fn trace(args: &[String]) -> Result<TraceOpts, ParseError> {
    let mut o = TraceOpts::default();
    let mut f = Flags::new("trace", args);
    while let Some(flag) = f.next() {
        match flag {
            "--format" => o.format = TraceFormat::parse(f.value()?)?,
            "--out" => o.out = f.path()?,
            _ if o.cluster.read(flag, &mut f)? || o.faults.read(flag, &mut f)? => {}
            _ => return f.unknown(),
        }
    }
    o.cluster.check()?;
    Ok(o)
}

fn tune_sweep(args: &[String]) -> Result<TuneSweepOpts, ParseError> {
    let mut o = TuneSweepOpts::default();
    let mut f = Flags::new("tune sweep", args);
    while let Some(flag) = f.next() {
        let c = &mut o.config;
        match flag {
            "--nodes" => c.nodes = f.list("nodes")?,
            "--rounds" => c.rounds = f.list("rounds")?,
            "--penalty" => c.penalty_thresholds = f.list("penalty")?,
            "--reward" => c.reward_thresholds = f.list("reward")?,
            "--crit" => c.criticalities = f.list("criticality")?,
            "--rate" => c.rates_per_hour = f.list("rate")?,
            "--intermittent" => c.intermittent_periods = f.list("intermittent period")?,
            "--experiments" => c.experiments = f.num("experiments")?,
            "--batch" => c.batch_size = f.num("batch size")?,
            "--seed" => c.base_seed = f.num("seed")?,
            "--json" => o.json = f.path()?,
            "--csv-dir" => o.csv_dir = f.path()?,
            "--check" => o.check = true,
            "--halt-after" => o.halt_after = Some(f.num("halt count")?),
            _ if o.checkpoint.read(flag, &mut f)? => {}
            _ => return f.unknown(),
        }
    }
    check_halt_after(o.halt_after)?;
    o.checkpoint.check()?;
    Ok(o)
}

fn campaign(args: &[String]) -> Result<CampaignOpts, ParseError> {
    let mut o = CampaignOpts::default();
    let mut f = Flags::new("campaign", args);
    while let Some(flag) = f.next() {
        let chaos = &mut o.chaos;
        match flag {
            "--reps" => o.reps = f.num("reps")?,
            "--json" => o.json = f.path()?,
            "--threads" => o.threads = f.num("threads")?,
            "--checkpoint-every" => o.checkpoint_every = f.num("checkpoint interval")?,
            "--halt-after" => o.halt_after = Some(f.num("halt count")?),
            "--watchdog-ms" => o.watchdog_ms = Some(f.num("watchdog budget")?),
            "--chaos-seed" => chaos.seed = f.num("chaos seed")?,
            "--chaos-panic" => chaos.panic_per_mille = f.num("panic per-mille")?,
            "--chaos-hang" => chaos.hang_per_mille = f.num("hang per-mille")?,
            "--chaos-transient" => chaos.transient_per_mille = f.num("transient per-mille")?,
            _ if o.checkpoint.read(flag, &mut f)? => {}
            _ => return f.unknown(),
        }
    }
    if o.threads == 0 {
        return err("--threads must be positive");
    }
    check_halt_after(o.halt_after)?;
    o.checkpoint.check()?;
    let c = &o.chaos;
    if u32::from(c.panic_per_mille) + u32::from(c.hang_per_mille) + u32::from(c.transient_per_mille)
        > 1000
    {
        return err("chaos per-mille rates must sum to at most 1000");
    }
    Ok(o)
}

fn explore(args: &[String]) -> Result<ExploreOpts, ParseError> {
    let mut o = ExploreOpts::default();
    let mut f = Flags::new("explore", args);
    while let Some(flag) = f.next() {
        let c = &mut o.config;
        match flag {
            "--protocol" => {
                let v = f.value()?;
                c.protocol = ProtocolUnderTest::parse_cli(v).ok_or_else(|| {
                    ParseError(format!(
                        "unknown protocol {v:?} (expected diag, membership or lowlat)"
                    ))
                })?;
            }
            "--nodes" => c.n = f.num("nodes")?,
            "--rounds" => c.rounds = f.num("rounds")?,
            "--penalty" => c.penalty_threshold = f.num("penalty")?,
            "--reward" => c.reward_threshold = f.num("reward")?,
            "--seed" => c.seed = f.num("seed")?,
            "--budget" => c.budget = f.num("budget")?,
            "--max-faults" => c.max_faults = f.num("max faults")?,
            "--random" => c.strategy = Strategy::Random,
            "--corpus" => o.corpus = f.path()?,
            "--corpus-out" => o.corpus_out = f.path()?,
            "--repro" => o.repro = f.path()?,
            "--json" => o.json = f.path()?,
            "--checkpoint-every" => o.checkpoint_every = f.num("checkpoint interval")?,
            _ if o.checkpoint.read(flag, &mut f)? => {}
            _ => return f.unknown(),
        }
    }
    o.config.validate().map_err(ParseError)?;
    o.checkpoint.check()?;
    Ok(o)
}

fn serve(args: &[String]) -> Result<Command, ParseError> {
    let mut socket = DEFAULT_SOCKET.to_string();
    let mut state = DEFAULT_STATE.to_string();
    let mut f = Flags::new("serve", args);
    while let Some(flag) = f.next() {
        match flag {
            "--socket" => socket = f.value()?.to_string(),
            "--state" => state = f.value()?.to_string(),
            _ => return f.unknown(),
        }
    }
    Ok(Command::Serve { socket, state })
}

/// The admin socket of a client that takes no other flag.
fn socket_only(cmd: &str, args: &[String]) -> Result<String, ParseError> {
    let mut socket = DEFAULT_SOCKET.to_string();
    let mut f = Flags::new(cmd, args);
    while let Some(flag) = f.next() {
        match flag {
            "--socket" => socket = f.value()?.to_string(),
            _ => return f.unknown(),
        }
    }
    Ok(socket)
}

fn submit(args: &[String]) -> Result<Command, ParseError> {
    let Some(kind) = args.first() else {
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
    let mut f = Flags::new("submit", &args[1..]);
    while let Some(flag) = f.next() {
        match flag {
            "--socket" => socket = f.value()?.to_string(),
            "--nodes" => nodes = f.num("nodes")?,
            "--reps" => reps = f.num("reps")?,
            "--rounds" => rounds = f.num("rounds")?,
            "--budget" => budget = f.num("budget")?,
            "--seed" => seed = f.num("seed")?,
            "--threads" => threads = f.num("threads")?,
            "--chunk" => chunk = f.num("chunk")?,
            "--halt-after" => halt_after = Some(f.num("halt count")?),
            _ => return f.unknown(),
        }
    }
    if chunk == 0 {
        return err("--chunk must be positive");
    }
    check_halt_after(halt_after)?;
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

fn job(args: &[String]) -> Result<Command, ParseError> {
    let Some(op) = args.first() else {
        return err("job needs an operation (list|status|halt|resume)");
    };
    let mut operand = None;
    let mut socket = DEFAULT_SOCKET.to_string();
    let mut f = Flags::new("job", &args[1..]);
    while let Some(arg) = f.next() {
        match arg {
            "--socket" => socket = f.value()?.to_string(),
            _ if operand.is_none() && !arg.starts_with('-') => {
                operand = Some(parse_num::<u64>(arg, "job id")?)
            }
            _ => return err(format!("unknown job argument {arg:?}")),
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

fn tail(args: &[String]) -> Result<Command, ParseError> {
    let mut socket = DEFAULT_SOCKET.to_string();
    let mut feed = None;
    let mut max = 0u64;
    let mut capacity = 4096u64;
    let mut f = Flags::new("tail", args);
    while let Some(flag) = f.next() {
        match flag {
            "--socket" => socket = f.value()?.to_string(),
            "--feed" => feed = Some(FeedName::parse(f.value()?)?),
            "--max" => max = f.num("frame count")?,
            "--capacity" => capacity = f.num("capacity")?,
            _ => return f.unknown(),
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

fn net_run(args: &[String]) -> Result<NetRunOpts, ParseError> {
    let mut o = NetRunOpts::default();
    let mut f = Flags::new("net run", args);
    while let Some(flag) = f.next() {
        let r = &mut o.rates;
        match flag {
            "--nodes" => o.nodes = f.num("nodes")?,
            "--seed" => o.seed = f.num("seed")?,
            "--drop" => r.drop_per_mille = f.num("drop per-mille")?,
            "--duplicate" => r.duplicate_per_mille = f.num("duplicate per-mille")?,
            "--reorder" => r.reorder_per_mille = f.num("reorder per-mille")?,
            "--corrupt" => r.corrupt_per_mille = f.num("corrupt per-mille")?,
            "--crash" => o.crash = Some(parse_crash(f.value()?)?),
            "--check" => o.check = true,
            _ if o.net.read(flag, &mut f)? => {}
            _ => return f.unknown(),
        }
    }
    if !(2..=64).contains(&o.nodes) {
        return err(format!("net run needs 2..=64 nodes, got {}", o.nodes));
    }
    if o.net.rounds == 0 {
        return err("net run needs at least one round");
    }
    if o.rates.total() > 1000 {
        return err("chaos per-mille rates must sum to at most 1000");
    }
    if let Some(c) = o.crash {
        if c.node == 0 || c.node as usize > o.nodes {
            return err(format!("--crash node {} outside the cluster", c.node));
        }
        if c.at_round == 0 || c.at_round >= o.net.rounds {
            return err("--crash round must fall inside the run");
        }
    }
    Ok(o)
}

fn net_node(args: &[String]) -> Result<NetNodeOpts, ParseError> {
    let mut o = NetNodeOpts::default();
    let mut f = Flags::new("net node", args);
    while let Some(flag) = f.next() {
        match flag {
            "--id" => o.id = f.num("node id")?,
            "--bind" => o.bind = f.path()?,
            "--peers" => o.peers = f.list("peer address")?,
            "--start-delay-ms" => o.start_delay_ms = f.num("start delay")?,
            _ if o.net.read(flag, &mut f)? => {}
            _ => return f.unknown(),
        }
    }
    if o.peers.is_empty() {
        return err("net node needs --peers ADDR,ADDR,...");
    }
    Ok(o)
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
            Command::Simulate(SimulateOpts {
                cluster: ClusterOpts {
                    nodes: 4,
                    rounds: 50,
                    penalty: 197,
                    reward: 1_000_000,
                },
                faults: FaultOpts {
                    seed: 0,
                    faults: vec![],
                },
                timeline: false,
                record: None,
            })
        );
        let c = parse(&args(
            "simulate --nodes 6 --rounds 200 --penalty 10 --reward 50 --seed 7 --timeline",
        ))
        .unwrap();
        match c {
            Command::Simulate(SimulateOpts {
                cluster:
                    ClusterOpts {
                        nodes,
                        rounds,
                        penalty,
                        reward,
                    },
                faults: FaultOpts { seed, .. },
                timeline,
                ..
            }) => {
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
            Command::Metrics(MetricsOpts {
                cluster: ClusterOpts {
                    nodes: 4,
                    rounds: 50,
                    penalty: 197,
                    reward: 1_000_000,
                },
                faults: FaultOpts {
                    seed: 0,
                    faults: vec![],
                },
                format: MetricsFormat::Json,
                out: None,
                record: None,
            })
        );
        let c = parse(&args(
            "metrics --rounds 20 --fault crash:3@5 --format csv --out events.csv --record t.json",
        ))
        .unwrap();
        match c {
            Command::Metrics(MetricsOpts {
                cluster: ClusterOpts { rounds, .. },
                faults: FaultOpts { faults, .. },
                format,
                out,
                record,
            }) => {
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
            Command::Trace(TraceOpts {
                cluster: ClusterOpts {
                    nodes: 4,
                    rounds: 50,
                    penalty: 197,
                    reward: 1_000_000,
                },
                faults: FaultOpts {
                    seed: 0,
                    faults: vec![],
                },
                format: TraceFormat::Summary,
                out: None,
            })
        );
        let c = parse(&args(
            "trace --rounds 16 --penalty 3 --reward 2 --fault intermittent:2@4/2 \
             --format perfetto --out trace.json",
        ))
        .unwrap();
        match c {
            Command::Trace(TraceOpts {
                cluster:
                    ClusterOpts {
                        rounds,
                        penalty,
                        reward,
                        ..
                    },
                faults: FaultOpts { faults, .. },
                format,
                out,
            }) => {
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
            Command::TuneSweep(TuneSweepOpts {
                config: tt_analysis::SweepConfig::default(),
                json: None,
                csv_dir: None,
                check: false,
                checkpoint: CheckpointOpts {
                    path: None,
                    resume: false,
                },
                halt_after: None,
            })
        );
        let c = parse(&args(
            "tune sweep --nodes 4 --rounds 48 --penalty 1 --reward 2,8 --crit 1 \
             --rate 72000,1400 --intermittent 0 --experiments 32 --batch 8 --seed 3 \
             --json s.json --csv-dir tables/ --check --checkpoint cp.json --halt-after 2",
        ))
        .unwrap();
        match c {
            Command::TuneSweep(TuneSweepOpts {
                config,
                json,
                csv_dir,
                check,
                checkpoint:
                    CheckpointOpts {
                        path: checkpoint,
                        resume,
                    },
                halt_after,
            }) => {
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
            Command::Campaign(CampaignOpts {
                reps: 5,
                json: Some("out.json".into()),
                threads: 1,
                checkpoint: CheckpointOpts {
                    path: None,
                    resume: false,
                },
                checkpoint_every: 25,
                halt_after: None,
                watchdog_ms: None,
                chaos: ChaosPlan {
                    seed: 0,
                    panic_per_mille: 0,
                    hang_per_mille: 0,
                    transient_per_mille: 0,
                    first_attempt_only: false,
                },
            })
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
            Command::Campaign(CampaignOpts {
                reps,
                threads,
                checkpoint:
                    CheckpointOpts {
                        path: checkpoint,
                        resume,
                    },
                checkpoint_every,
                halt_after,
                watchdog_ms,
                chaos:
                    ChaosPlan {
                        seed: chaos_seed,
                        panic_per_mille: chaos_panic,
                        hang_per_mille: chaos_hang,
                        transient_per_mille: chaos_transient,
                        ..
                    },
                ..
            }) => {
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
            Command::Explore(ExploreOpts {
                config: ExploreConfig {
                    protocol: ProtocolUnderTest::Diag,
                    n: 4,
                    rounds: 24,
                    penalty_threshold: 3,
                    reward_threshold: 2,
                    seed: 0xD1A6_05E5,
                    budget: 200,
                    max_faults: 6,
                    strategy: Strategy::CoverageGuided,
                },
                corpus: None,
                corpus_out: None,
                repro: None,
                json: None,
                checkpoint: CheckpointOpts {
                    path: None,
                    resume: false,
                },
                checkpoint_every: 25,
            })
        );
        let c = parse(&args(
            "explore --protocol membership --nodes 5 --rounds 30 --penalty 4 --reward 3 \
             --seed 9 --budget 50 \
             --max-faults 3 --random --corpus in/ --corpus-out out/ --repro rep/ --json r.json \
             --checkpoint cp.json --checkpoint-every 5",
        ))
        .unwrap();
        match c {
            Command::Explore(ExploreOpts {
                config:
                    ExploreConfig {
                        protocol,
                        n: nodes,
                        rounds,
                        penalty_threshold: penalty,
                        reward_threshold: reward,
                        seed,
                        budget,
                        max_faults,
                        strategy,
                    },
                corpus,
                corpus_out,
                repro,
                json,
                checkpoint:
                    CheckpointOpts {
                        path: checkpoint,
                        resume,
                    },
                checkpoint_every,
            }) => {
                let random = strategy == Strategy::Random;
                assert_eq!(protocol, ProtocolUnderTest::Membership);
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
            Command::NetRun(NetRunOpts {
                nodes: 5,
                net: NetOpts {
                    rounds: 40,
                    slot_us: 3000,
                    grace_us: None,
                    penalty: 6,
                    reward: 1_000_000,
                    reintegrate_after: 4,
                    json: None,
                },
                seed: 0,
                rates: LinkRates {
                    drop_per_mille: 0,
                    duplicate_per_mille: 0,
                    reorder_per_mille: 0,
                    corrupt_per_mille: 0,
                },
                crash: None,
                check: false,
            })
        );
        let c = parse(&args(
            "net run --nodes 4 --rounds 60 --slot-us 5000 --grace-us 2000 --penalty 3 \
             --reward 8 --reintegrate-after 6 --seed 7 --drop 50 --duplicate 5 --reorder 5 \
             --corrupt 5 --crash 3@12+10 --json report.json --check",
        ))
        .unwrap();
        match c {
            Command::NetRun(NetRunOpts {
                nodes,
                net:
                    NetOpts {
                        rounds,
                        slot_us,
                        grace_us,
                        penalty,
                        reward,
                        reintegrate_after,
                        json,
                    },
                seed,
                rates:
                    LinkRates {
                        drop_per_mille: drop,
                        duplicate_per_mille: duplicate,
                        reorder_per_mille: reorder,
                        corrupt_per_mille: corrupt,
                    },
                crash,
                check,
            }) => {
                assert_eq!(
                    (nodes, rounds, slot_us, grace_us),
                    (4, 60, 5000, Some(2000))
                );
                assert_eq!((penalty, reward, reintegrate_after, seed), (3, 8, 6, 7));
                assert_eq!((drop, duplicate, reorder, corrupt), (50, 5, 5, 5));
                assert_eq!(
                    crash,
                    Some(CrashSpec {
                        node: 3,
                        at_round: 12,
                        down_rounds: 10
                    })
                );
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
            Command::NetNode(NetNodeOpts {
                id,
                bind,
                peers,
                net: NetOpts { rounds, .. },
                start_delay_ms,
            }) => {
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

    /// Every message the parser gives, pinned verbatim: each row is an argv
    /// (split on whitespace) and the exact `ParseError` text it produces.
    #[test]
    fn usage_errors_are_pinned() {
        for (argv, msg) in [
            ("launch", "unknown command \"launch\" (try `ttdiag help`)"),
            ("simulate --nodes", "--nodes needs a value"),
            ("simulate --nodes x", "invalid nodes: \"x\""),
            ("simulate --rounds x", "invalid rounds: \"x\""),
            ("simulate --penalty x", "invalid penalty: \"x\""),
            ("simulate --reward x", "invalid reward: \"x\""),
            ("simulate --seed x", "invalid seed: \"x\""),
            ("simulate --fault", "--fault needs a value"),
            ("simulate --record", "--record needs a value"),
            ("simulate --warp 9", "unknown simulate flag \"--warp\""),
            ("simulate --nodes 1", "need 2..=64 nodes, got 1"),
            ("simulate --nodes 65", "need 2..=64 nodes, got 65"),
            (
                "simulate --fault crash",
                "fault spec needs KIND:ARGS, got \"crash\"",
            ),
            (
                "simulate --fault crash:3",
                "crash must be NODE@ROUND, got \"3\"",
            ),
            ("simulate --fault crash:x@3", "invalid node: \"x\""),
            ("simulate --fault crash:3@x", "invalid round: \"x\""),
            (
                "simulate --fault intermittent:2@4",
                "intermittent must be NODE@ROUND/PERIOD, got \"2@4\"",
            ),
            (
                "simulate --fault intermittent:2/3",
                "intermittent must be NODE@ROUND, got \"2\"",
            ),
            (
                "simulate --fault intermittent:2@4/x",
                "invalid period: \"x\"",
            ),
            (
                "simulate --fault intermittent:2@4/0",
                "intermittent period must be positive",
            ),
            (
                "simulate --fault burst:8",
                "burst must be LEN@ROUND.SLOT, got \"8\"",
            ),
            (
                "simulate --fault burst:8@10",
                "burst must be LEN@ROUND.SLOT, got \"8@10\"",
            ),
            (
                "simulate --fault burst:x@10.2",
                "invalid burst length: \"x\"",
            ),
            ("simulate --fault burst:8@x.2", "invalid round: \"x\""),
            ("simulate --fault burst:8@10.x", "invalid slot: \"x\""),
            (
                "simulate --fault noise:x",
                "invalid noise probability: \"x\"",
            ),
            (
                "simulate --fault noise:2.0",
                "noise probability out of range: 2",
            ),
            (
                "simulate --fault asym:1@9",
                "asym must be NODE@ROUND:RX,..., got \"1@9\"",
            ),
            (
                "simulate --fault asym:1:2",
                "asym must be NODE@ROUND, got \"1\"",
            ),
            (
                "simulate --fault asym:1@9:x",
                "invalid receiver index: \"x\"",
            ),
            ("simulate --fault asym:1@9:", "invalid receiver index: \"\""),
            (
                "simulate --fault scenario:rain",
                "unknown scenario \"rain\" (blinking|lightning)",
            ),
            ("simulate --fault warp:9", "unknown fault kind \"warp\""),
            (
                "simulate --fault crash:0@3",
                "crash: node ids are 1-based, got 0",
            ),
            (
                "metrics --fault intermittent:0@3/2",
                "intermittent: node ids are 1-based, got 0",
            ),
            (
                "trace --fault asym:0@3:1",
                "asym: node ids are 1-based, got 0",
            ),
            ("replay", "replay needs a trace path"),
            ("replay --nodes 5", "unknown replay flag \"5\""),
            ("replay t.json --nodes", "--nodes needs a value"),
            ("replay t.json --nodes x", "invalid nodes: \"x\""),
            ("replay t.json --rounds x", "invalid rounds: \"x\""),
            ("replay t.json --penalty x", "invalid penalty: \"x\""),
            ("replay t.json --reward x", "invalid reward: \"x\""),
            ("replay t.json --seed 1", "unknown replay flag \"--seed\""),
            (
                "replay t.json --fault crash:1@2",
                "unknown replay flag \"--fault\"",
            ),
            ("replay t.json --nodes 1", "need 2..=64 nodes, got 1"),
            ("replay t.json --nodes 65", "need 2..=64 nodes, got 65"),
            ("metrics --nodes x", "invalid nodes: \"x\""),
            ("metrics --rounds x", "invalid rounds: \"x\""),
            ("metrics --penalty x", "invalid penalty: \"x\""),
            ("metrics --reward x", "invalid reward: \"x\""),
            ("metrics --seed x", "invalid seed: \"x\""),
            ("metrics --fault", "--fault needs a value"),
            ("metrics --fault crash:x@3", "invalid node: \"x\""),
            ("metrics --format", "--format needs a value"),
            (
                "metrics --format xml",
                "unknown format \"xml\" (json|csv|summary)",
            ),
            ("metrics --out", "--out needs a value"),
            ("metrics --record", "--record needs a value"),
            ("metrics --timeline", "unknown metrics flag \"--timeline\""),
            ("metrics --nodes 65", "need 2..=64 nodes, got 65"),
            ("trace --nodes x", "invalid nodes: \"x\""),
            ("trace --rounds x", "invalid rounds: \"x\""),
            ("trace --penalty x", "invalid penalty: \"x\""),
            ("trace --reward x", "invalid reward: \"x\""),
            ("trace --seed x", "invalid seed: \"x\""),
            ("trace --fault", "--fault needs a value"),
            (
                "trace --fault noise:2.0",
                "noise probability out of range: 2",
            ),
            ("trace --format", "--format needs a value"),
            (
                "trace --format csv",
                "unknown format \"csv\" (jsonl|perfetto|summary)",
            ),
            ("trace --out", "--out needs a value"),
            ("trace --record t.json", "unknown trace flag \"--record\""),
            ("trace --nodes 1", "need 2..=64 nodes, got 1"),
            ("tune sweep --nodes x", "invalid nodes: \"x\""),
            ("tune sweep --rounds x", "invalid rounds: \"x\""),
            ("tune sweep --penalty x", "invalid penalty: \"x\""),
            ("tune sweep --reward 2,x", "invalid reward: \"x\""),
            ("tune sweep --reward 2,,3", "invalid reward: \"\""),
            ("tune sweep --crit x", "invalid criticality: \"x\""),
            ("tune sweep --rate bogus", "invalid rate: \"bogus\""),
            (
                "tune sweep --intermittent x",
                "invalid intermittent period: \"x\"",
            ),
            ("tune sweep --experiments x", "invalid experiments: \"x\""),
            ("tune sweep --batch x", "invalid batch size: \"x\""),
            ("tune sweep --seed x", "invalid seed: \"x\""),
            ("tune sweep --halt-after x", "invalid halt count: \"x\""),
            ("tune sweep --reward", "--reward needs a value"),
            ("tune sweep --json", "--json needs a value"),
            ("tune sweep --csv-dir", "--csv-dir needs a value"),
            ("tune sweep --checkpoint", "--checkpoint needs a value"),
            ("tune sweep --warp 9", "unknown tune sweep flag \"--warp\""),
            ("tune sweep --resume", "--resume needs --checkpoint PATH"),
            ("tune sweep --halt-after 0", "--halt-after must be positive"),
            ("tune automotive --bogus", "unknown tune flag \"--bogus\""),
            (
                "isolation aerospace extra",
                "unknown isolation flag \"extra\"",
            ),
            ("campaign --reps x", "invalid reps: \"x\""),
            ("campaign --threads x", "invalid threads: \"x\""),
            (
                "campaign --checkpoint-every x",
                "invalid checkpoint interval: \"x\"",
            ),
            ("campaign --halt-after x", "invalid halt count: \"x\""),
            ("campaign --watchdog-ms x", "invalid watchdog budget: \"x\""),
            ("campaign --chaos-seed x", "invalid chaos seed: \"x\""),
            ("campaign --chaos-panic x", "invalid panic per-mille: \"x\""),
            (
                "campaign --chaos-panic 70000",
                "invalid panic per-mille: \"70000\"",
            ),
            ("campaign --chaos-hang x", "invalid hang per-mille: \"x\""),
            (
                "campaign --chaos-transient x",
                "invalid transient per-mille: \"x\"",
            ),
            ("campaign --reps", "--reps needs a value"),
            ("campaign --json", "--json needs a value"),
            ("campaign --checkpoint", "--checkpoint needs a value"),
            ("campaign --bogus", "unknown campaign flag \"--bogus\""),
            ("campaign --threads 0", "--threads must be positive"),
            ("campaign --resume", "--resume needs --checkpoint PATH"),
            ("campaign --halt-after 0", "--halt-after must be positive"),
            (
                "campaign --chaos-panic 600 --chaos-hang 300 --chaos-transient 200",
                "chaos per-mille rates must sum to at most 1000",
            ),
            ("explore --protocol", "--protocol needs a value"),
            (
                "explore --protocol quorum",
                "unknown protocol \"quorum\" (expected diag, membership or lowlat)",
            ),
            ("explore --nodes x", "invalid nodes: \"x\""),
            ("explore --rounds x", "invalid rounds: \"x\""),
            ("explore --penalty x", "invalid penalty: \"x\""),
            ("explore --reward x", "invalid reward: \"x\""),
            ("explore --seed x", "invalid seed: \"x\""),
            ("explore --budget x", "invalid budget: \"x\""),
            ("explore --max-faults x", "invalid max faults: \"x\""),
            (
                "explore --checkpoint-every x",
                "invalid checkpoint interval: \"x\"",
            ),
            ("explore --corpus", "--corpus needs a value"),
            ("explore --corpus-out", "--corpus-out needs a value"),
            ("explore --repro", "--repro needs a value"),
            ("explore --json", "--json needs a value"),
            ("explore --checkpoint", "--checkpoint needs a value"),
            ("explore --warp 9", "unknown explore flag \"--warp\""),
            ("explore --nodes 3", "explore needs 4..=64 nodes, got 3"),
            ("explore --nodes 65", "explore needs 4..=64 nodes, got 65"),
            ("explore --budget 0", "explore budget must be positive"),
            ("explore --resume", "--resume needs --checkpoint PATH"),
            (
                "explore --rounds 10",
                "explore needs at least 11 rounds, got 10",
            ),
            (
                "explore --max-faults 0",
                "explore max faults must be positive",
            ),
            ("serve --socket", "--socket needs a value"),
            ("serve --state", "--state needs a value"),
            ("serve --bogus", "unknown serve flag \"--bogus\""),
            (
                "submit",
                "submit needs a job kind (campaign|explore|tune-sweep)",
            ),
            (
                "submit bake-cookies",
                "unknown job kind \"bake-cookies\" (campaign|explore|tune-sweep)",
            ),
            ("submit campaign --nodes x", "invalid nodes: \"x\""),
            ("submit campaign --reps x", "invalid reps: \"x\""),
            ("submit explore --rounds x", "invalid rounds: \"x\""),
            ("submit explore --budget x", "invalid budget: \"x\""),
            ("submit campaign --seed x", "invalid seed: \"x\""),
            ("submit campaign --threads x", "invalid threads: \"x\""),
            ("submit campaign --chunk x", "invalid chunk: \"x\""),
            (
                "submit campaign --halt-after x",
                "invalid halt count: \"x\"",
            ),
            ("submit explore --halt-after", "--halt-after needs a value"),
            ("submit campaign --socket", "--socket needs a value"),
            ("submit campaign --bogus", "unknown submit flag \"--bogus\""),
            ("submit campaign --chunk 0", "--chunk must be positive"),
            (
                "submit campaign --halt-after 0",
                "--halt-after must be positive",
            ),
            (
                "submit tune-sweep --halt-after 2",
                "--halt-after applies to campaign and explore jobs",
            ),
            ("job", "job needs an operation (list|status|halt|resume)"),
            ("job list --socket", "--socket needs a value"),
            ("job status x", "invalid job id: \"x\""),
            ("job status 1 2", "unknown job argument \"2\""),
            ("job status --bogus", "unknown job argument \"--bogus\""),
            ("job status", "job status needs a job id"),
            ("job halt", "job halt needs a job id"),
            ("job resume", "job resume needs a job id"),
            (
                "job frobnicate",
                "unknown job operation \"frobnicate\" (list|status|halt|resume)",
            ),
            ("watch", "watch needs a job id"),
            ("watch x", "invalid job id: \"x\""),
            ("watch 1 --socket", "--socket needs a value"),
            ("watch 1 --bogus", "unknown watch flag \"--bogus\""),
            ("watch --socket s", "invalid job id: \"--socket\""),
            ("tail", "tail needs --feed metrics|spans|progress"),
            ("tail --feed", "--feed needs a value"),
            (
                "tail --feed flamegraphs",
                "unknown feed \"flamegraphs\" (metrics|spans|progress)",
            ),
            ("tail --feed progress --max x", "invalid frame count: \"x\""),
            (
                "tail --feed progress --capacity x",
                "invalid capacity: \"x\"",
            ),
            (
                "tail --feed progress --capacity 0",
                "--capacity must be positive",
            ),
            ("tail --feed progress --socket", "--socket needs a value"),
            ("tail --bogus", "unknown tail flag \"--bogus\""),
            ("shutdown --socket", "--socket needs a value"),
            ("shutdown --bogus", "unknown shutdown flag \"--bogus\""),
            ("shutdown extra", "unknown shutdown flag \"extra\""),
            ("net", "net needs a subcommand (run|node)"),
            (
                "net frobnicate",
                "unknown net subcommand \"frobnicate\" (run|node)",
            ),
            ("net run --nodes x", "invalid nodes: \"x\""),
            ("net run --rounds x", "invalid rounds: \"x\""),
            ("net run --slot-us x", "invalid slot: \"x\""),
            ("net run --grace-us x", "invalid grace: \"x\""),
            ("net run --penalty x", "invalid penalty: \"x\""),
            ("net run --reward x", "invalid reward: \"x\""),
            (
                "net run --reintegrate-after x",
                "invalid reward count: \"x\"",
            ),
            ("net run --seed x", "invalid seed: \"x\""),
            ("net run --drop x", "invalid drop per-mille: \"x\""),
            (
                "net run --duplicate x",
                "invalid duplicate per-mille: \"x\"",
            ),
            ("net run --reorder x", "invalid reorder per-mille: \"x\""),
            ("net run --corrupt x", "invalid corrupt per-mille: \"x\""),
            ("net run --crash", "--crash needs a value"),
            ("net run --json", "--json needs a value"),
            ("net run --warp 9", "unknown net run flag \"--warp\""),
            ("net run --nodes 1", "net run needs 2..=64 nodes, got 1"),
            ("net run --nodes 65", "net run needs 2..=64 nodes, got 65"),
            ("net run --rounds 0", "net run needs at least one round"),
            (
                "net run --drop 600 --corrupt 600",
                "chaos per-mille rates must sum to at most 1000",
            ),
            (
                "net run --crash 3@12",
                "--crash must be NODE@ROUND+DOWN, got \"3@12\"",
            ),
            (
                "net run --crash 3+4",
                "--crash must be NODE@ROUND, got \"3\"",
            ),
            ("net run --crash x@12+4", "invalid node: \"x\""),
            ("net run --crash 3@x+4", "invalid round: \"x\""),
            ("net run --crash 3@12+x", "invalid down rounds: \"x\""),
            (
                "net run --crash 3@12+0",
                "--crash needs at least one down round",
            ),
            (
                "net run --crash 9@12+4",
                "--crash node 9 outside the cluster",
            ),
            (
                "net run --crash 0@12+4",
                "--crash node 0 outside the cluster",
            ),
            (
                "net run --crash 3@0+4",
                "--crash round must fall inside the run",
            ),
            (
                "net run --rounds 10 --crash 3@10+4",
                "--crash round must fall inside the run",
            ),
            ("net node --id x", "invalid node id: \"x\""),
            ("net node --bind", "--bind needs a value"),
            ("net node --peers", "--peers needs a value"),
            ("net node --rounds x", "invalid rounds: \"x\""),
            ("net node --slot-us x", "invalid slot: \"x\""),
            ("net node --grace-us x", "invalid grace: \"x\""),
            ("net node --penalty x", "invalid penalty: \"x\""),
            ("net node --reward x", "invalid reward: \"x\""),
            (
                "net node --reintegrate-after x",
                "invalid reward count: \"x\"",
            ),
            ("net node --start-delay-ms x", "invalid start delay: \"x\""),
            ("net node --json", "--json needs a value"),
            ("net node --warp 9", "unknown net node flag \"--warp\""),
            ("net node", "net node needs --peers ADDR,ADDR,..."),
            ("net node --id 1", "net node needs --peers ADDR,ADDR,..."),
        ] {
            assert_eq!(
                parse(&args(argv)),
                Err(ParseError(msg.to_string())),
                "{argv}"
            );
        }
    }
}
