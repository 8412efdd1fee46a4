//! Regression corpus replay for the protocol variants: the committed
//! membership (`tests/corpus/membership/`) and low-latency
//! (`tests/corpus/lowlat/`) corpora — discovered by the coverage-guided
//! explorer running the Sec. 7 / Sec. 10 oracle stacks — are re-executed
//! against the full variant oracles on every PR, exactly as
//! `tests/corpus_replay.rs` does for the base-protocol corpus. The
//! planted-bug self-test at the bottom proves the explorer would catch a
//! deliberately weakened view-synchrony oracle and shrink its reproducer
//! to a minimal schedule.

use std::path::{Path, PathBuf};

use tt_fault::explore::{
    execute_schedule, explore_with, load_corpus, ExploreConfig, FaultSchedule, ProtocolUnderTest,
};
use tt_sim::Cluster;

fn corpus_dir(variant: &str) -> PathBuf {
    // Tests are registered from crates/bench; the corpora live at the
    // workspace root, one subdirectory per protocol variant (invisible to
    // the flat diag corpus load — `load_corpus` is non-recursive).
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/corpus")
        .join(variant)
}

fn variant_corpus(variant: &str, protocol: ProtocolUnderTest) -> Vec<(PathBuf, FaultSchedule)> {
    let corpus = load_corpus(&corpus_dir(variant)).expect("corpus directory readable");
    assert!(
        !corpus.is_empty(),
        "the committed {variant} corpus is non-empty"
    );
    for (path, schedule) in &corpus {
        assert_eq!(
            schedule.protocol,
            protocol,
            "{}: misfiled schedule — the {variant} corpus holds only \
             {protocol:?} schedules",
            path.display(),
        );
    }
    corpus
}

/// Every stored membership schedule replays cleanly against the whole
/// Sec. 7 oracle stack (Theorem 1 with accusation exemptions, counter
/// agreement, Theorem 2 view synchrony, wrongful exclusion, membership
/// and clique liveness).
#[test]
fn membership_corpus_replays_clean_against_all_oracles() {
    for (path, schedule) in variant_corpus("membership", ProtocolUnderTest::Membership) {
        let exec = execute_schedule(&schedule);
        assert!(
            exec.verdict.ok(),
            "{}: {:?}",
            path.display(),
            exec.verdict.all(),
        );
    }
}

/// Every stored lowlat schedule replays cleanly against the Sec. 10
/// oracle stack (per-slot properties, 1-round latency bound, view
/// synchrony, membership liveness).
#[test]
fn lowlat_corpus_replays_clean_against_all_oracles() {
    for (path, schedule) in variant_corpus("lowlat", ProtocolUnderTest::Lowlat) {
        let exec = execute_schedule(&schedule);
        assert!(
            exec.verdict.ok(),
            "{}: {:?}",
            path.display(),
            exec.verdict.all(),
        );
    }
}

/// Stored filenames embed the schedule's content hash; a hand-edited or
/// corrupted corpus entry is caught before it silently weakens the suite.
#[test]
fn variant_corpus_filenames_match_schedule_ids() {
    for (variant, protocol) in [
        ("membership", ProtocolUnderTest::Membership),
        ("lowlat", ProtocolUnderTest::Lowlat),
    ] {
        for (path, schedule) in variant_corpus(variant, protocol) {
            let stem = path.file_stem().unwrap().to_string_lossy();
            let hex = stem.rsplit('-').next().unwrap();
            assert_eq!(
                u64::from_str_radix(hex, 16).ok(),
                Some(schedule.id()),
                "{}: filename does not match content id",
                path.display(),
            );
        }
    }
}

/// Replaying a variant corpus as an explorer seed primes coverage without
/// finding violations: the committed schedules stay within the variant's
/// verified envelope even when mutated further (mutations preserve each
/// seed's protocol).
fn corpus_seeds_explore_cleanly(variant: &str, protocol: ProtocolUnderTest) {
    let seeds: Vec<FaultSchedule> = variant_corpus(variant, protocol)
        .into_iter()
        .map(|(_, s)| s)
        .collect();
    let cfg = ExploreConfig {
        budget: seeds.len() as u64 + 20,
        protocol,
        ..ExploreConfig::default()
    };
    let report = explore_with(&cfg, &seeds, &tt_fault::explore::no_extra_oracle);
    assert!(
        report.counterexamples.is_empty(),
        "{:?}",
        report
            .counterexamples
            .iter()
            .map(|c| &c.violations)
            .collect::<Vec<_>>(),
    );
    assert!(report.unique_states > 0);
}

/// CI's lowlat explorer session (`ttdiag explore --protocol lowlat --seed
/// 3517318629 --budget 150 --corpus tests/corpus/lowlat --json FILE`),
/// pinned byte for byte in `tests/golden/explore_lowlat.json`: a change to
/// any Sec. 10 verdict, view or fingerprint moves the discovered corpus or
/// the state count, and the report bytes with them.
#[test]
fn lowlat_explore_session_matches_its_golden_report() {
    let seeds: Vec<FaultSchedule> = variant_corpus("lowlat", ProtocolUnderTest::Lowlat)
        .into_iter()
        .map(|(_, s)| s)
        .collect();
    let cfg = ExploreConfig {
        budget: 150,
        seed: 3_517_318_629,
        protocol: ProtocolUnderTest::Lowlat,
        ..ExploreConfig::default()
    };
    let report = explore_with(&cfg, &seeds, &tt_fault::explore::no_extra_oracle);
    let got = serde_json::to_string_pretty(&report).expect("report serializes");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/explore_lowlat.json");
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .map_or_else(
                || "past the shorter report".to_owned(),
                |i| (i + 1).to_string(),
            );
        panic!(
            "the lowlat explorer report drifted from {} (first difference at line {line}); \
             if intentional, regenerate it with the ttdiag command in this test's doc",
            path.display()
        );
    }
}

#[test]
fn membership_corpus_seeds_explore_cleanly() {
    corpus_seeds_explore_cleanly("membership", ProtocolUnderTest::Membership);
}

#[test]
fn lowlat_corpus_seeds_explore_cleanly() {
    corpus_seeds_explore_cleanly("lowlat", ProtocolUnderTest::Lowlat);
}

/// Harness self-test, mirroring `corpus_replay.rs`: plant a deliberately
/// weakened view-synchrony oracle — "the membership never installs a new
/// view", false under any effective fault because Sec. 7 turns every
/// conviction into a view change — and prove the membership explorer
/// detects it AND the shrinker minimizes the reproducer to a single
/// one-shot fault. The final `panic!` carries a sentinel message; if
/// detection or minimization ever silently breaks, the asserts above it
/// fail with different messages and `should_panic(expected)` rejects them.
#[test]
#[should_panic(expected = "weak view-synchrony oracle detected and minimized as designed")]
fn planted_weak_view_synchrony_oracle_self_test() {
    let weak = |cluster: &Cluster| -> Vec<String> {
        use tt_core::MembershipJob;
        use tt_sim::NodeId;
        let job: &MembershipJob = cluster.job_as(NodeId::new(1)).expect("membership job");
        if job.views().len() > 1 {
            vec!["weak: a new view was installed".into()]
        } else {
            Vec::new()
        }
    };
    let cfg = ExploreConfig {
        budget: 30,
        protocol: ProtocolUnderTest::Membership,
        ..ExploreConfig::default()
    };
    let report = explore_with(&cfg, &[], &weak);
    let cx = report
        .counterexamples
        .first()
        .expect("explorer trips the weak view-synchrony oracle");
    assert_eq!(cx.shrunk.faults.len(), 1, "minimized to one fault");
    assert_eq!(cx.shrunk.faults[0].hits, 1, "minimized to one hit");
    assert_eq!(
        cx.shrunk.protocol,
        ProtocolUnderTest::Membership,
        "shrinking preserves the protocol under test"
    );
    panic!("weak view-synchrony oracle detected and minimized as designed");
}
