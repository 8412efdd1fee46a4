//! Runs the Sec. 8 fault-injection validation campaign.
//!
//! Usage: `validation [repetitions] [threads] [--json <path>]` (default 100
//! repetitions — the paper's count per class — on 8 supervised worker
//! threads; a quarantined experiment fails the run). With
//! `--json`, the full per-experiment outcomes are also written to `<path>`
//! for archival/regression diffing.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut json_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--json" {
            json_path = Some(it.next().expect("--json requires a path"));
        } else {
            positional.push(a);
        }
    }
    let reps: u64 = positional
        .first()
        .map(|a| a.parse().expect("repetitions must be a number"))
        .unwrap_or(100);
    let threads: usize = positional
        .get(1)
        .map(|a| a.parse().expect("threads must be a number"))
        .unwrap_or(8);
    if let Some(path) = json_path {
        let result = tt_bench::sec8_campaign(reps, threads);
        let json = serde_json::to_string_pretty(&result).expect("campaign serializes");
        std::fs::write(&path, json).expect("write campaign results");
        println!("wrote {} outcomes to {path}", result.total());
        assert!(result.all_passed(), "campaign failures recorded in {path}");
    } else {
        println!("{}", tt_bench::validation_report(reps, threads));
    }
}
