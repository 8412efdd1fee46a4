//! Campaign-scale tuning sweeps (`tt_analysis::sweep`, `ttdiag tune
//! sweep`): the pinned small-grid and wide-cluster goldens behind CI's
//! tune-goldens job, halt/resume byte-equivalence at arbitrary interrupt
//! points, the batched-vs-scalar agreement of a sweep cell's
//! observations, and the empirical Fig. 3 boundary against the analytic
//! model.

use proptest::prelude::*;

use tt_analysis::{
    analytic_agreement, check_analytic_agreement, resume_sweep, run_sweep, sweep_json,
    SweepCheckpoint, SweepConfig, SweepSupervisor,
};
use tt_fault::{
    experiment_seed, observe_schedule, observe_schedules_batched, read_json, sampled_schedule,
    FaultSchedule, TransientCell,
};

/// Asserts `config`'s sweep report equals the committed golden `name`.
fn assert_matches_golden(config: &SweepConfig, name: &str) {
    let outcome = run_sweep(config, &SweepSupervisor::default()).unwrap();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    let expected =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("missing golden {name}: {e}"));
    assert_eq!(
        sweep_json(&outcome.report),
        expected,
        "pinned sweep drifted from its golden snapshot {name}; if intentional, \
         regenerate with `cargo run -p tt-bench --bin gen_golden`"
    );
}

/// A 4-cell grid small enough to proptest halt/resume over.
fn tiny_config() -> SweepConfig {
    SweepConfig {
        nodes: vec![4],
        rounds: vec![32],
        penalty_thresholds: vec![1],
        reward_thresholds: vec![2, 8],
        criticalities: vec![1],
        rates_per_hour: vec![72_000.0],
        intermittent_periods: vec![0, 6],
        experiments: 48,
        batch_size: 16,
        base_seed: 2_007,
    }
}

#[test]
fn pinned_grid_matches_golden() {
    assert_matches_golden(&SweepConfig::default(), "tune_sweep_small.json");
}

#[test]
fn pinned_wide_grid_matches_golden() {
    // N ∈ {9, 16, 33} runs the vote tally with two and five words a lane.
    // Same grid as `ttdiag tune sweep --nodes 9,16,33 --penalty 1,41
    // --reward 2 --crit 1 --intermittent 6 --experiments 64`.
    let config = SweepConfig {
        nodes: vec![9, 16, 33],
        penalty_thresholds: vec![1, 41],
        reward_thresholds: vec![2],
        criticalities: vec![1],
        intermittent_periods: vec![6],
        experiments: 64,
        ..SweepConfig::default()
    };
    assert_matches_golden(&config, "tune_sweep_wide.json");
}

#[test]
fn pinned_grid_reproduces_the_fig3_boundary() {
    // The acceptance criterion of the sweep: at every measured operating
    // point of the pinned grid, the empirical false-correlation
    // probability agrees with the analytic `correlation_probability`
    // within the reported 95% Wilson interval.
    let outcome = run_sweep(&SweepConfig::default(), &SweepSupervisor::default()).unwrap();
    let rows = analytic_agreement(&outcome.report);
    assert!(
        rows.len() >= 12,
        "the pinned grid measures the boundary at many operating points, got {}",
        rows.len()
    );
    let verdict = check_analytic_agreement(&outcome.report)
        .unwrap_or_else(|disagreement| panic!("{disagreement}"));
    assert!(verdict.contains("24/24"), "{verdict}");
}

#[test]
fn same_seed_means_byte_identical_json() {
    let sup = SweepSupervisor::default();
    let a = run_sweep(&tiny_config(), &sup).unwrap();
    let b = run_sweep(&tiny_config(), &sup).unwrap();
    assert_eq!(sweep_json(&a.report), sweep_json(&b.report));
    // A different base seed is a genuinely different sample.
    let mut reseeded = tiny_config();
    reseeded.base_seed ^= 0xDEAD_BEEF;
    let c = run_sweep(&reseeded, &sup).unwrap();
    assert_ne!(sweep_json(&a.report), sweep_json(&c.report));
}

#[test]
fn one_sweep_cell_agrees_batched_vs_scalar() {
    // The exact experiment list of one pinned-grid cell, observed once
    // through the lockstep engine and once per-schedule on the scalar
    // path: observation for observation identical.
    let cell = TransientCell {
        n: 4,
        rounds: 64,
        penalty_threshold: 1,
        reward_threshold: 8,
        rate_per_hour: 72_000.0,
        intermittent_period: 6,
    };
    let crit = vec![1u64; cell.n];
    let schedules: Vec<FaultSchedule> = (0..32)
        .map(|rep| sampled_schedule(&cell, experiment_seed(2_007, 5, rep)))
        .collect();
    let batched = observe_schedules_batched(&schedules, &crit).unwrap();
    for (schedule, b) in schedules.iter().zip(&batched) {
        let scalar = observe_schedule(schedule, &crit);
        assert_eq!(b.forgiveness, scalar.forgiveness);
        assert_eq!(b.isolations.len(), scalar.isolations.len());
        for (bi, si) in b.isolations.iter().zip(&scalar.isolations) {
            assert_eq!(
                (bi.subject, bi.diagnosed, bi.decided_at),
                (si.subject, si.diagnosed, si.decided_at)
            );
        }
    }
}

fn unique_checkpoint_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "tt-tune-sweep-test-{tag}-{}.json",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A sweep halted after an arbitrary number of cells and resumed from
    /// its checkpoint produces byte-identical JSON to an uninterrupted
    /// run — the guarantee CI's halt/resume check leans on.
    #[test]
    fn halt_resume_is_byte_identical_at_any_interrupt_point(halt_after in 1u64..4) {
        let config = tiny_config();
        let uninterrupted = run_sweep(&config, &SweepSupervisor::default()).unwrap();
        let path = unique_checkpoint_path(&format!("halt{halt_after}"));
        let halted = run_sweep(
            &config,
            &SweepSupervisor {
                checkpoint_path: Some(path.clone()),
                halt_after_cells: Some(halt_after),
            },
        )
        .unwrap();
        prop_assert!(halted.halted);
        prop_assert_eq!(halted.report.cells.len() as u64, halt_after);
        let cp: SweepCheckpoint = read_json(&path).unwrap();
        prop_assert!(cp.matches(&config));
        let resumed = resume_sweep(cp, &SweepSupervisor::default()).unwrap();
        prop_assert!(!resumed.halted);
        prop_assert_eq!(
            sweep_json(&resumed.report),
            sweep_json(&uninterrupted.report)
        );
        let _ = std::fs::remove_file(&path);
    }
}
