//! Execution of `ttdiag net run` / `ttdiag net node`: the certified
//! protocol as a distributed system over real UDP sockets.
//!
//! `net run` hosts the whole cluster as loopback threads (the CI-friendly
//! single-process deployment); `net node` runs one peer so a cluster can
//! be spread over processes or hosts. Both feed the same `tt_net` engine;
//! the run report carries the serving host's fingerprint so measured slot
//! jitter can be attributed to a machine, like the service's job replies.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use serde::Serialize;

use tt_bench::HostFingerprint;
use tt_core::{ProtocolConfig, ReintegrationPolicy};
use tt_net::{
    run_cluster, run_node, JitterStats, NetChaos, NetError, NodeParams, NodeSegment, RunConfig,
    RunReport, SlotClock, UdpTransport,
};
use tt_sim::{CancellationToken, NodeId};

use crate::args::{NetNodeOpts, NetOpts, NetRunOpts};
use crate::commands::{internal, usage, CliError};

/// The `net run` JSON document: the full report plus the host it ran on.
#[derive(Serialize)]
struct NetRunDoc {
    host: HostFingerprint,
    report: RunReport,
}

/// The `net node` JSON document: one peer's segment plus its host.
#[derive(Serialize)]
struct NetNodeDoc {
    host: HostFingerprint,
    segment: NodeSegment,
}

fn protocol(n: usize, o: &NetOpts) -> Result<ProtocolConfig, CliError> {
    let reintegration = if o.reintegrate_after == 0 {
        ReintegrationPolicy::Never
    } else {
        ReintegrationPolicy::AfterRewards(o.reintegrate_after)
    };
    ProtocolConfig::builder(n)
        .penalty_threshold(o.penalty)
        .reward_threshold(o.reward)
        .reintegration(reintegration)
        .build()
        .map_err(|e| usage(e.to_string()))
}

/// `ttdiag net run`: the whole cluster as loopback threads.
pub fn net_run(o: &NetRunOpts) -> Result<String, CliError> {
    let net = &o.net;
    let protocol = protocol(o.nodes, net)?;
    let mut cfg = RunConfig::new(protocol, net.rounds, Duration::from_micros(net.slot_us));
    if let Some(g) = net.grace_us {
        cfg.grace = Duration::from_micros(g);
    }
    if o.rates.total() > 0 {
        cfg.chaos = Some(NetChaos::uniform(o.seed, o.rates));
    }
    cfg.crash = o.crash;
    let report = run_cluster(cfg).map_err(|e| match e {
        NetError::Config(m) => usage(m),
        NetError::Io(m) => internal(m),
    })?;
    let host = HostFingerprint::detect();

    if let Some(path) = &net.json {
        let doc = NetRunDoc {
            host: host.clone(),
            report: report.clone(),
        };
        let body = serde_json::to_string(&doc)
            .map_err(|e| internal(format!("serializing report: {e}")))?;
        std::fs::write(path, body).map_err(|e| internal(format!("writing {path}: {e}")))?;
    }

    let text = render_run_report(&report, &host);
    let ok = report.convergence.converged && report.replay.agree;
    if o.check && !ok {
        return Err(CliError::Counterexample(text));
    }
    Ok(text)
}

fn render_run_report(report: &RunReport, host: &HostFingerprint) -> String {
    let mut out = String::new();
    let push = |out: &mut String, line: String| {
        out.push_str(&line);
        out.push('\n');
    };
    push(
        &mut out,
        format!(
            "net run: {} nodes, {} rounds, slot {}us, grace {}us",
            report.n_nodes,
            report.rounds,
            report.slot_ns / 1_000,
            report.grace_ns / 1_000
        ),
    );
    push(
        &mut out,
        format!("host: {} cores, {}", host.logical_cores, host.cpu_model),
    );
    if let Some(chaos) = &report.chaos {
        let r = chaos.default_rates;
        push(
            &mut out,
            format!(
                "chaos: seed {}, per-mille drop {} / duplicate {} / reorder {} / corrupt {}",
                chaos.seed,
                r.drop_per_mille,
                r.duplicate_per_mille,
                r.reorder_per_mille,
                r.corrupt_per_mille
            ),
        );
    }
    if let Some(digest) = report.chaos_digest {
        push(&mut out, format!("chaos digest: 0x{digest:016x}"));
    }
    if let Some(crash) = report.crash {
        push(
            &mut out,
            format!(
                "crash: node {} down rounds {}..{}",
                crash.node,
                crash.at_round,
                crash.at_round + crash.down_rounds
            ),
        );
    }
    for t in &report.nodes {
        for seg in &t.segments {
            let tm = &seg.timing;
            push(
                &mut out,
                format!(
                    "node {} rounds {}..{}: {} frames (late {}, stale {}, corrupt {}, \
                     duplicate {}, missing {}), arrival {}, exec lag {}, isolations {}",
                    seg.node,
                    seg.start_round,
                    seg.end_round,
                    tm.frames,
                    tm.late,
                    tm.stale,
                    tm.corrupt,
                    tm.duplicate,
                    tm.missing,
                    jitter(&tm.arrival_error),
                    jitter(&tm.exec_lag),
                    seg.isolations.len()
                ),
            );
        }
    }
    let injected: u64 = report
        .nodes
        .iter()
        .flat_map(|t| &t.segments)
        .map(|s| s.chaos.dropped + s.chaos.duplicated + s.chaos.reordered + s.chaos.corrupted)
        .sum();
    if report.chaos.is_some() {
        push(&mut out, format!("chaos injections: {injected}"));
    }
    let c = &report.convergence;
    if c.converged {
        push(&mut out, "convergence: ok".to_string());
    } else {
        push(
            &mut out,
            format!(
                "convergence: FAILED (wrongful isolations {}, survivors active {}, \
                 survivors healthy {}, crash isolated {}, crash reintegrated {})",
                c.wrongful_isolations,
                c.survivors_active,
                c.survivors_healthy,
                c.crash_isolated,
                c.crash_reintegrated
            ),
        );
    }
    if report.replay.agree {
        push(
            &mut out,
            format!(
                "verdict cross-check: agree ({} rounds replayed, {} nodes compared)",
                report.replay.replayed_rounds,
                report.replay.compared_nodes.len()
            ),
        );
    } else {
        push(
            &mut out,
            format!(
                "verdict cross-check: DISAGREE ({} mismatches)",
                report.replay.mismatches.len()
            ),
        );
        for m in report.replay.mismatches.iter().take(10) {
            push(&mut out, format!("  {m}"));
        }
    }
    out.pop();
    out
}

fn jitter(j: &JitterStats) -> String {
    if j.count == 0 {
        "n/a".to_string()
    } else {
        format!("mean {:.0}us max {}us", j.mean_us, j.max_us)
    }
}

/// `ttdiag net node`: one peer of a multi-process cluster.
pub fn net_node(o: &NetNodeOpts) -> Result<String, CliError> {
    let slot = Duration::from_micros(o.net.slot_us);
    let grace = o
        .net
        .grace_us
        .map(Duration::from_micros)
        .unwrap_or(slot / 2);
    let protocol = protocol(o.peers.len(), &o.net)?;
    let n = o.peers.len();
    if !(2..=64).contains(&n) {
        return Err(usage(format!("net node needs 2..=64 peers, got {n}")));
    }
    if o.id == 0 || o.id as usize > n {
        return Err(usage(format!(
            "--id {} outside the peer list (1..={n})",
            o.id
        )));
    }
    if slot < Duration::from_micros(200) {
        return Err(usage("slot must be at least 200us"));
    }
    let mut addrs: Vec<SocketAddr> = Vec::with_capacity(n);
    for p in &o.peers {
        let a: SocketAddr = p
            .parse()
            .map_err(|e| usage(format!("bad peer address {p:?}: {e}")))?;
        if addrs.contains(&a) {
            return Err(usage(format!("inconsistent peer list: {a} appears twice")));
        }
        addrs.push(a);
    }
    let slot_idx = o.id as usize - 1;
    let bind_addr: SocketAddr = match &o.bind {
        Some(b) => b
            .parse()
            .map_err(|e| usage(format!("bad bind address {b:?}: {e}")))?,
        None => addrs[slot_idx],
    };
    let mut transport = UdpTransport::bind(bind_addr, addrs, slot_idx as u8)
        .map_err(|e| usage(format!("binding {bind_addr}: {e}")))?;

    let start_delay = Duration::from_millis(o.start_delay_ms);
    let clock = SlotClock::new(Instant::now() + start_delay, slot, n as u32);
    let params = NodeParams {
        node: NodeId::new(o.id),
        protocol,
        grace,
        exec_offset_slots: 0,
        end_round: o.net.rounds,
    };
    let cancel = CancellationToken::new();
    let segment = run_node(&params, clock, &mut transport, &cancel, 0);

    let host = HostFingerprint::detect();
    if let Some(path) = &o.net.json {
        let doc = NetNodeDoc {
            host: host.clone(),
            segment: segment.clone(),
        };
        let body = serde_json::to_string(&doc)
            .map_err(|e| internal(format!("serializing segment: {e}")))?;
        std::fs::write(path, body).map_err(|e| internal(format!("writing {path}: {e}")))?;
    }

    let tm = &segment.timing;
    let active: Vec<String> = segment
        .final_active
        .iter()
        .enumerate()
        .map(|(i, &a)| format!("{}:{}", i + 1, if a { "ACTIVE" } else { "ISOLATED" }))
        .collect();
    Ok(format!(
        "net node {} on {}: rounds {}..{}, {} frames (late {}, stale {}, corrupt {}, \
         missing {}), arrival {}, isolations {}\nfinal view: {}",
        segment.node,
        bind_addr,
        segment.start_round,
        segment.end_round,
        tm.frames,
        tm.late,
        tm.stale,
        tm.corrupt,
        tm.missing,
        jitter(&tm.arrival_error),
        segment.isolations.len(),
        active.join(" ")
    ))
}
