//! End-to-end and per-layer benchmark of the tt-diag library.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace 0` sets a
//! workload up, repeats its operation as identical closed-loop trials for
//! `s` seconds, checks every trial, and prints the end-to-end metrics;
//! `perfbench-trace ... --trace 1` runs the traced analysis of every
//! workload instead and prints the per-layer metrics. The last line of
//! standard output is always one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md` for the
//! workloads, the metrics and the noise findings behind the statistics.

#![forbid(unsafe_code)]

pub mod alloc;
pub mod trace;
pub mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use workloads::{golden_sweep_matches, TrialOutput, NAMES};

/// Rank (from 0, fastest first) of the trial time the throughput and the
/// set-up time are taken from. Host interference only ever adds time, so
/// the fast end of many identical trials is the steadiest estimate of the
/// program's own speed; the third-fastest keeps a margin above a single
/// stray reading.
pub const FAST_RANK: usize = 2;

/// How long trials stay on one CPU before moving to the next.
///
/// Each slice starts from a fresh set-up, so a run holds as many set-ups
/// and first trials as slices.
const CPU_SLICE: Duration = Duration::from_millis(500);

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result object printed as the last line of standard output.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Whether every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed their checks.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The one-line JSON form.
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// JSON has no NaN or infinity; a metric that could not be computed is
/// printed as `null`, which the result checker rejects loudly.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            NAMES.join(", "),
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Entry point shared by both binaries. `traced_binary` says whether the
/// counting allocator is installed, which only the traced run may use.
pub fn main_with(traced_binary: bool) -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace != traced_binary {
        eprintln!(
            "perfbench: --trace {} needs the {} binary",
            u8::from(args.trace),
            if args.trace {
                "perfbench-trace"
            } else {
                "perfbench"
            }
        );
        return ExitCode::from(2);
    }
    let root = match std::env::current_dir() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    println!("provenance {}", provenance());
    let outcome = if args.trace {
        trace::run(args.seed, &root)
    } else {
        measure(&args, &root)
    };
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

/// Host fingerprint, revision and build settings, as one JSON object.
fn provenance() -> String {
    let host = tt_bench::HostFingerprint::detect();
    let rev = std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let lto = include_str!("../Cargo.toml")
        .lines()
        .find_map(|l| l.strip_prefix("lto = "))
        .unwrap_or("off")
        .trim_matches('"');
    format!(
        "{{\"logical_cores\": {}, \"cpu_model\": \"{}\", \"target_cpu\": \"{}\", \
         \"git_rev\": \"{}\", \"profile\": \"{profile}\", \"lto\": \"{lto}\"}}",
        host.logical_cores,
        host.cpu_model.replace('"', "'"),
        host.target_cpu,
        rev.replace('"', "'")
    )
}

/// The `q` quantile of `values` (nearest rank on the sorted values).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let idx = ((v.len() - 1) as f64 * q).round() as usize;
    v[idx.min(v.len() - 1)]
}

/// The [`FAST_RANK`]-th smallest of `values` (the largest if there are
/// fewer).
pub fn fast_end(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(FAST_RANK.min(v.len().saturating_sub(1)))
        .copied()
        .unwrap_or(f64::NAN)
}

/// Times one trial.
fn timed_trial(w: &mut dyn workloads::Workload) -> (TrialOutput, f64) {
    timed(|| w.trial())
}

/// The CPUs this process may run on, from `Cpus_allowed_list` (for
/// example `0-1` or `0,2-3`); empty when unreadable.
fn allowed_cpus() -> Vec<usize> {
    let list = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|l| l.trim().to_string())
        })
        .unwrap_or_default();
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Rotates the main thread over the allowed CPUs, one at a time.
///
/// On a shared virtual machine one vCPU can run up to 2× slower than the
/// other for seconds to minutes. Trials pinned in turn to each vCPU let
/// the fast end of a run see the faster one, where an unpinned process can
/// stay on the slow one for the whole run. Threads spawned by a pinned
/// thread inherit its CPU, which would put a campaign trial's worker on
/// its supervisor's CPU, a placement `ttdiag serve` never has; so only
/// single-threaded work is rotated. Pinning goes through `taskset`;
/// without it, runs are unpinned.
pub(crate) struct CpuRotation {
    cpus: Vec<usize>,
    next: usize,
}

impl CpuRotation {
    /// A rotation over the allowed CPUs, or one that never pins when
    /// `single_threaded` is false.
    pub(crate) fn new(single_threaded: bool) -> Self {
        CpuRotation {
            cpus: if single_threaded {
                allowed_cpus()
            } else {
                Vec::new()
            },
            next: 0,
        }
    }

    /// Pins the main thread to the next CPU; returns whether it worked.
    pub(crate) fn advance(&mut self) -> bool {
        if self.cpus.len() < 2 {
            return false;
        }
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        Command::new("taskset")
            .args([
                "-p",
                "-c",
                &cpu.to_string(),
                &std::process::id().to_string(),
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success())
    }

    /// Lets the main thread run on every allowed CPU again.
    pub(crate) fn release(&self) {
        if self.cpus.len() >= 2 {
            let all: Vec<String> = self.cpus.iter().map(usize::to_string).collect();
            let _ = Command::new("taskset")
                .args(["-p", "-c", &all.join(","), &std::process::id().to_string()])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status();
        }
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The untraced run: trials for `seconds`, in slices that each start from
/// a fresh set-up (pinned to the next CPU for single-threaded workloads),
/// then the once-per-run reference checks.
///
/// `setup_s` is the fast-end order statistic of the slices' set-up times.
/// The first trial on each fresh state is kept apart from the steady
/// trials the throughput is taken from; its excess over a steady trial is
/// printed, but not added to `setup_s` (see `README.md`).
fn measure(args: &Args, root: &Path) -> Outcome {
    let mut rotation = CpuRotation::new(workloads::single_threaded(&args.workload));
    let mut pinned = rotation.advance();
    let (mut w, setup) = timed(|| workloads::setup(&args.workload, args.seed, root));
    let (reference, _) = timed_trial(w.as_mut());
    let mut setups = vec![setup];
    let mut firsts = Vec::new();
    let mut times = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut mismatched_trials = 0u64;
    let mut check = |out: TrialOutput| {
        attempted += out.ops;
        if out.digest == reference.digest && out.ops == reference.ops {
            failed += out.failed;
        } else {
            mismatched_trials += 1;
            failed += out.ops;
        }
    };
    check(reference);
    let started = Instant::now();
    let deadline = started + Duration::from_secs(args.seconds);
    while Instant::now() < deadline {
        pinned &= rotation.advance();
        let slice_end = Instant::now() + CPU_SLICE;
        let (fresh, setup) = timed(|| workloads::setup(&args.workload, args.seed, root));
        w = fresh;
        setups.push(setup);
        let (out, dt) = timed_trial(w.as_mut());
        firsts.push(dt);
        check(out);
        while Instant::now() < slice_end.min(deadline) {
            let (out, dt) = timed_trial(w.as_mut());
            times.push(dt);
            check(out);
        }
    }
    rotation.release();
    let measured = started.elapsed().as_secs_f64();
    let verify_mismatches = w.verify();
    let peak_rss = peak_rss_mib();
    let golden = golden_sweep_matches(root);

    let ops = reference.ops as f64;
    let fast = ops / fast_end(&times);
    let setup_s = fast_end(&setups);
    let excess = fast_end(&firsts) - fast_end(&times);
    let average = ops * (times.len() + firsts.len()) as f64 / measured;
    println!(
        "digest {} seed {} {:016x}",
        args.workload, args.seed, reference.digest
    );
    let rates: Vec<String> = [0.0, 0.01, 0.02, 0.05, 0.10, 0.25, 0.50]
        .iter()
        .map(|&q| format!("p{}={:.1}", q * 100.0, ops / quantile(&times, q)))
        .collect();
    println!(
        "steady trials {} ops/trial {} exp/s at rank {FAST_RANK} {fast:.1}, at trial-time \
         quantiles: {} whole-run average {average:.1} (not gated)",
        times.len(),
        reference.ops,
        rates.join(" ")
    );
    println!(
        "set-ups {}: rank {FAST_RANK} {setup_s:.3e} s, median {:.3e} s; first-trial excess \
         over a steady trial {excess:.3e} s (not gated); cpu rotation {}",
        setups.len(),
        quantile(&setups, 0.5),
        if pinned { "on" } else { "off" }
    );
    println!(
        "checks: mismatched trials {mismatched_trials}, reference mismatches \
         {verify_mismatches}, golden sweep {}",
        if golden { "ok" } else { "MISMATCH" }
    );
    Outcome {
        correct: failed == 0 && mismatched_trials == 0 && verify_mismatches == 0 && golden,
        attempted,
        failed,
        metrics: vec![
            Metric::new("experiments_per_s", fast, "exp/s"),
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("peak_rss_mib", peak_rss, "MiB"),
        ],
    }
}

/// Wall time of `f` in seconds, with its result.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}
