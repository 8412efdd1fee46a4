//! Regenerates the golden snapshots under `tests/golden/` (run from the
//! repository root after an intentional report change).

fn main() {
    let dir = std::path::Path::new("tests/golden");
    for (name, content) in [
        ("fig1.txt", tt_bench::fig1_report()),
        ("fig2.txt", tt_bench::fig2_report()),
        ("table1.txt", tt_bench::table1_report()),
        ("fig3.txt", tt_bench::fig3_report()),
        ("table2.txt", tt_bench::table2_report()),
        ("table3.txt", tt_bench::table3_report()),
        ("bandwidth.txt", tt_bench::bandwidth_report()),
        ("lowlat.txt", tt_bench::lowlat_report()),
        ("metrics_events.json", {
            let report = tt_bench::canonical_metrics_report();
            serde_json::to_string_pretty(&report).unwrap() + "\n"
        }),
        ("metrics_events_lightning.json", {
            let report = tt_bench::lightning_metrics_report();
            serde_json::to_string_pretty(&report).unwrap() + "\n"
        }),
        ("tune_sweep_small.json", {
            // The pinned small grid behind CI's tune-goldens job: the
            // default `SweepConfig` IS the golden grid.
            let outcome = tt_analysis::run_sweep(
                &tt_analysis::SweepConfig::default(),
                &tt_analysis::SweepSupervisor::default(),
            )
            .unwrap();
            tt_analysis::sweep_json(&outcome.report)
        }),
        ("tune_sweep_wide.json", {
            // Wide clusters (N ∈ {9, 16, 33}) pin the multi-word vote tally:
            // `ttdiag tune sweep --nodes 9,16,33 --penalty 1,41 --reward 2
            // --crit 1 --intermittent 6 --experiments 64`.
            let outcome = tt_analysis::run_sweep(
                &tt_analysis::SweepConfig {
                    nodes: vec![9, 16, 33],
                    penalty_thresholds: vec![1, 41],
                    reward_thresholds: vec![2],
                    criticalities: vec![1],
                    intermittent_periods: vec![6],
                    experiments: 64,
                    ..tt_analysis::SweepConfig::default()
                },
                &tt_analysis::SweepSupervisor::default(),
            )
            .unwrap();
            tt_analysis::sweep_json(&outcome.report)
        }),
    ] {
        std::fs::write(dir.join(name), content).unwrap();
        println!("wrote {name}");
    }
}
