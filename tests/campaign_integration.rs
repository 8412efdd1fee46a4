//! Integration test of the Sec. 8 validation campaign: every experiment
//! class, multiple seeded repetitions, sequential and supervised runners.

use tt_bench::{SupervisedCampaign, SupervisorConfig};
use tt_fault::{run_campaign, sec8_classes, ExperimentClass, NoHarnessFaults};
use tt_sim::NodeId;

#[test]
fn full_campaign_small_reps_all_green() {
    let classes = sec8_classes(4);
    let result = run_campaign(&classes, 4, 5, 20_070_101);
    assert_eq!(result.total(), classes.len() * 5);
    let failures: Vec<_> = result
        .outcomes
        .iter()
        .filter(|o| !o.passed)
        .map(|o| (o.label.clone(), o.seed, o.notes.clone()))
        .collect();
    assert!(failures.is_empty(), "{failures:?}");
    // Per-class summaries are complete and green.
    let summary = result.summary();
    assert_eq!(summary.len(), classes.len());
    for (label, passed, total) in summary {
        assert_eq!(passed, total, "{label}");
        assert_eq!(total, 5, "{label}");
    }
}

#[test]
fn parallel_campaign_equals_sequential() {
    let classes = sec8_classes(4);
    let seq = run_campaign(&classes, 4, 2, 99);
    let par = SupervisedCampaign {
        classes: &classes,
        n: 4,
        reps: 2,
        base_seed: 99,
        config: SupervisorConfig {
            threads: 8,
            ..SupervisorConfig::default()
        },
    }
    .run(&NoHarnessFaults)
    .expect("no checkpoint I/O configured");
    // A quarantined experiment is left out of `result`: require none.
    assert!(
        par.supervision.quarantined.is_empty(),
        "{:?}",
        par.supervision.quarantined
    );
    assert_eq!(seq.outcomes, par.result.outcomes);
}

#[test]
fn campaign_covers_paper_experiment_structure() {
    let classes = sec8_classes(4);
    // 12 burst classes: lengths {1 slot, 2 slots, 2 rounds} x 4 start slots.
    let mut lens = std::collections::BTreeSet::new();
    let mut starts = std::collections::BTreeSet::new();
    for c in &classes {
        if let ExperimentClass::Burst {
            len_slots,
            start_slot,
        } = c
        {
            lens.insert(*len_slots);
            starts.insert(*start_slot);
        }
    }
    assert_eq!(lens.into_iter().collect::<Vec<_>>(), vec![1, 2, 8]);
    assert_eq!(starts.into_iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    // A malicious class per possible culprit.
    assert_eq!(
        NodeId::all(4)
            .filter(|&n| classes.contains(&ExperimentClass::MaliciousSyndromes { node: n }))
            .count(),
        4
    );
}

#[test]
fn hundred_rep_class_mirrors_paper_count() {
    // The paper repeats each class 100 times; run one class at full count
    // to show the harness sustains it (the `validation` binary runs all).
    let result = run_campaign(
        &[ExperimentClass::Burst {
            len_slots: 1,
            start_slot: 2,
        }],
        4,
        100,
        7,
    );
    assert_eq!(result.total(), 100);
    assert!(result.all_passed());
}
