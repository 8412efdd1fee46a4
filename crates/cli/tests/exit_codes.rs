//! Process-level checks of the documented exit-code taxonomy:
//! `0` success, `1` protocol counterexample, `2` usage error, `101`
//! internal error (mirroring Rust's panic exit status).

use std::process::Command;

fn ttdiag() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ttdiag"))
}

#[test]
fn success_exits_zero() {
    let out = ttdiag()
        .args(["tune", "automotive"])
        .output()
        .expect("spawn ttdiag");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn unknown_command_is_a_usage_error() {
    let out = ttdiag().arg("frobnicate").output().expect("spawn ttdiag");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("USAGE") || stderr.contains("usage"),
        "{stderr}"
    );
}

#[test]
fn bad_flag_value_is_a_usage_error() {
    let out = ttdiag()
        .args(["simulate", "--nodes", "not-a-number"])
        .output()
        .expect("spawn ttdiag");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn unknown_domain_is_a_usage_error_in_tune_and_isolation() {
    // Both commands route through the same `domain_setup` validation, so
    // an unknown domain is a usage error (2) — not a silent default.
    for cmd in ["tune", "isolation"] {
        let out = ttdiag()
            .args([cmd, "maritime"])
            .output()
            .expect("spawn ttdiag");
        assert_eq!(out.status.code(), Some(2), "{cmd}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown domain"), "{cmd}: {stderr}");
    }
}

#[test]
fn bad_tune_sweep_axis_is_a_usage_error() {
    let out = ttdiag()
        .args(["tune", "sweep", "--rate", "bogus"])
        .output()
        .expect("spawn ttdiag");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn out_of_range_tune_sweep_cluster_is_a_usage_error() {
    // A cluster past 64 nodes fits neither the lockstep engine nor a
    // syndrome word: refused up front like one below the minimum of 4,
    // not a panic mid-sweep.
    for nodes in ["3", "65"] {
        let out = ttdiag()
            .args(["tune", "sweep", "--nodes", nodes])
            .output()
            .expect("spawn ttdiag");
        assert_eq!(out.status.code(), Some(2), "--nodes {nodes}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("cluster size"), "--nodes {nodes}: {stderr}");
    }
}

#[test]
fn out_of_range_explore_cluster_is_a_usage_error() {
    // Every variant packs one bit per node into a 64-bit syndrome: a
    // larger cluster is refused by the parser, not a panic mid-session.
    for protocol in ["diag", "membership", "lowlat"] {
        for nodes in ["3", "65"] {
            let out = ttdiag()
                .args(["explore", "--protocol", protocol, "--nodes", nodes])
                .args(["--budget", "1"])
                .output()
                .expect("spawn ttdiag");
            assert_eq!(
                out.status.code(),
                Some(2),
                "{protocol} --nodes {nodes}: {out:?}"
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("4..=64 nodes"),
                "{protocol} --nodes {nodes}: {stderr}"
            );
        }
    }
}

#[test]
fn out_of_range_simulation_cluster_is_a_usage_error() {
    // simulate, metrics and trace build a syndrome per node: a cluster
    // past 64 nodes is refused by the parser, not a panic in the engine.
    for cmd in ["simulate", "metrics", "trace"] {
        for nodes in ["1", "65"] {
            let out = ttdiag()
                .args([cmd, "--nodes", nodes, "--rounds", "2"])
                .output()
                .expect("spawn ttdiag");
            assert_eq!(out.status.code(), Some(2), "{cmd} --nodes {nodes}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("2..=64 nodes"),
                "{cmd} --nodes {nodes}: {stderr}"
            );
        }
    }
}

#[test]
fn fault_specs_naming_node_zero_are_usage_errors() {
    // Fault specs name nodes by their 1-based id: node 0 is refused by the
    // parser, not a panic in the simulator's node-id constructor.
    for cmd in ["simulate", "metrics", "trace"] {
        for spec in ["crash:0@3", "intermittent:0@3/2", "asym:0@3:1"] {
            let out = ttdiag()
                .args([cmd, "--rounds", "8", "--fault", spec])
                .output()
                .expect("spawn ttdiag");
            assert_eq!(out.status.code(), Some(2), "{cmd} {spec}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("node ids are 1-based"),
                "{cmd} {spec}: {stderr}"
            );
        }
    }
}

#[test]
fn explorer_bounds_are_usage_errors() {
    // Too few rounds to check anything, or schedules without a fault:
    // refused by the parser, not a panic once the session starts.
    for (flag, value, msg) in [
        ("--rounds", "10", "at least 11 rounds"),
        ("--max-faults", "0", "max faults must be positive"),
    ] {
        let out = ttdiag()
            .args(["explore", flag, value, "--budget", "1"])
            .output()
            .expect("spawn ttdiag");
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(msg), "{flag} {value}: {stderr}");
    }
}

#[test]
fn tiny_tune_sweep_exits_zero() {
    let out = ttdiag()
        .args([
            "tune",
            "sweep",
            "--nodes",
            "4",
            "--rounds",
            "32",
            "--penalty",
            "1",
            "--reward",
            "4",
            "--crit",
            "1",
            "--intermittent",
            "0",
            "--experiments",
            "16",
            "--batch",
            "8",
        ])
        .output()
        .expect("spawn ttdiag");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("tune sweep: 1 cells"), "{stdout}");
}

#[test]
fn missing_replay_trace_is_an_internal_error() {
    let out = ttdiag()
        .args(["replay", "/nonexistent/ttdiag-no-such.json"])
        .output()
        .expect("spawn ttdiag");
    assert_eq!(out.status.code(), Some(101), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no-such"), "error names the path: {stderr}");
}

/// Records a 6-node trace with a crash on node 6 into a fresh temp file.
fn six_node_trace(name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("ttdiag-{}-{name}.json", std::process::id()));
    let out = ttdiag()
        .args([
            "simulate",
            "--nodes",
            "6",
            "--rounds",
            "20",
            "--penalty",
            "3",
        ])
        .args(["--fault", "crash:6@5", "--record"])
        .arg(&path)
        .output()
        .expect("spawn ttdiag");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    path
}

#[test]
fn replay_on_a_smaller_cluster_than_recorded_is_a_usage_error() {
    let path = six_node_trace("smaller");
    let out = ttdiag()
        .arg("replay")
        .arg(&path)
        .args(["--nodes", "4", "--rounds", "20", "--penalty", "3"])
        .output()
        .expect("spawn ttdiag");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("sender node 6"),
        "names the sender: {stderr}"
    );
}

#[test]
fn replay_on_the_recorded_cluster_size_exits_zero() {
    let path = six_node_trace("same");
    let out = ttdiag()
        .arg("replay")
        .arg(&path)
        .args(["--nodes", "6", "--rounds", "20", "--penalty", "3"])
        .output()
        .expect("spawn ttdiag");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("Faulty slots on the bus: 0"), "{stdout}");
}

#[test]
fn chaos_campaign_with_quarantines_still_exits_zero() {
    let out = ttdiag()
        .args([
            "campaign",
            "--reps",
            "1",
            "--chaos-seed",
            "5",
            "--chaos-panic",
            "400",
        ])
        .output()
        .expect("spawn ttdiag");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("quarantined"), "{stdout}");
}

#[test]
fn unknown_feed_name_is_a_usage_error() {
    let out = ttdiag()
        .args(["tail", "--feed", "flamegraphs"])
        .output()
        .expect("spawn ttdiag");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown feed"), "{stderr}");
}

#[test]
fn missing_tail_feed_is_a_usage_error() {
    let out = ttdiag().arg("tail").output().expect("spawn ttdiag");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn connecting_to_a_dead_server_is_a_usage_error() {
    // The socket path names nothing listening — for every client command.
    let sock = "/tmp/ttdiag-no-such-server.sock";
    let _ = std::fs::remove_file(sock);
    for args in [
        vec!["submit", "campaign"],
        vec!["job", "list"],
        vec!["job", "status", "1"],
        vec!["watch", "1"],
        vec!["tail", "--feed", "progress"],
        vec!["shutdown"],
    ] {
        let mut full = args.clone();
        full.extend(["--socket", sock]);
        let out = ttdiag().args(&full).output().expect("spawn ttdiag");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("cannot connect"), "{args:?}: {stderr}");
    }
}

#[test]
fn unbindable_socket_path_is_a_usage_error() {
    let out = ttdiag()
        .args([
            "serve",
            "--socket",
            "/nonexistent-dir/ttdiag.sock",
            "--state",
            "/tmp/ttdiag-exitcode-state",
        ])
        .output()
        .expect("spawn ttdiag");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot bind"), "{stderr}");
}

#[test]
fn unknown_explore_protocol_is_a_usage_error() {
    let out = ttdiag()
        .args(["explore", "--protocol", "bogus"])
        .output()
        .expect("spawn ttdiag");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown protocol"), "{stderr}");
}

#[test]
fn explore_accepts_every_documented_protocol() {
    for protocol in ["diag", "membership", "lowlat"] {
        let out = ttdiag()
            .args(["explore", "--protocol", protocol, "--budget", "10"])
            .output()
            .expect("spawn ttdiag");
        assert_eq!(out.status.code(), Some(0), "{protocol}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!("protocol={protocol}")),
            "{protocol}: {stdout}"
        );
    }
}

#[test]
fn net_without_a_subcommand_is_a_usage_error() {
    let out = ttdiag().arg("net").output().expect("spawn ttdiag");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("needs a subcommand"), "{stderr}");
}

#[test]
fn unknown_net_subcommand_is_a_usage_error() {
    let out = ttdiag()
        .args(["net", "frobnicate"])
        .output()
        .expect("spawn ttdiag");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown net subcommand"), "{stderr}");
}

#[test]
fn undersized_net_cluster_is_a_usage_error() {
    let out = ttdiag()
        .args(["net", "run", "--nodes", "1"])
        .output()
        .expect("spawn ttdiag");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn bad_net_peer_address_is_a_usage_error() {
    let out = ttdiag()
        .args([
            "net",
            "node",
            "--id",
            "1",
            "--peers",
            "not-an-addr,127.0.0.1:9",
        ])
        .output()
        .expect("spawn ttdiag");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad peer address"), "{stderr}");
}

#[test]
fn bad_net_bind_address_is_a_usage_error() {
    let out = ttdiag()
        .args([
            "net",
            "node",
            "--id",
            "1",
            "--bind",
            "999.999.999.999:77777",
            "--peers",
            "127.0.0.1:19901,127.0.0.1:19902",
        ])
        .output()
        .expect("spawn ttdiag");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad bind address"), "{stderr}");
}

#[test]
fn duplicate_net_peers_are_a_usage_error() {
    let out = ttdiag()
        .args([
            "net",
            "node",
            "--id",
            "1",
            "--peers",
            "127.0.0.1:19903,127.0.0.1:19903",
        ])
        .output()
        .expect("spawn ttdiag");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("inconsistent peer list"), "{stderr}");
}

#[test]
fn out_of_range_net_node_id_is_a_usage_error() {
    let out = ttdiag()
        .args([
            "net",
            "node",
            "--id",
            "3",
            "--peers",
            "127.0.0.1:19904,127.0.0.1:19905",
        ])
        .output()
        .expect("spawn ttdiag");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("outside the peer list"), "{stderr}");
}

#[test]
fn net_node_port_in_use_is_a_usage_error() {
    // Hold the port so the node's bind fails.
    let holder = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind holder");
    let addr = holder.local_addr().expect("holder addr").to_string();
    let peers = format!("{addr},127.0.0.1:19906");
    let out = ttdiag()
        .args(["net", "node", "--id", "1", "--peers", &peers])
        .output()
        .expect("spawn ttdiag");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("binding"), "{stderr}");
}

#[test]
fn small_net_run_exits_zero_and_reports_agreement() {
    let out = ttdiag()
        .args([
            "net",
            "run",
            "--nodes",
            "3",
            "--rounds",
            "10",
            "--penalty",
            "4",
            "--check",
        ])
        .output()
        .expect("spawn ttdiag");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("convergence: ok"), "{stdout}");
    assert!(stdout.contains("verdict cross-check: agree"), "{stdout}");
}

#[test]
fn bad_submit_job_kind_is_a_usage_error() {
    let out = ttdiag()
        .args(["submit", "bake-cookies"])
        .output()
        .expect("spawn ttdiag");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown job kind"), "{stderr}");
}
