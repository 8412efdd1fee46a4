//! Schema of the committed perf ledger, `BENCH_perfbench.json`: a JSON array
//! with one row per (PR, side, workload, end-to-end metric), holding the
//! median and quartiles of `runs` perfbench runs on the PR's parent
//! (`side: "parent"`) or on the change (`side: "change"`), their seeds, the
//! [`HostFingerprint`] they ran on and the parent's full revision. Change
//! rows also count the pairs the change won. Every row is checked against
//! `BENCHMARK.json`, which declares the workloads and metrics; both files
//! are only read.

use std::collections::BTreeSet;

use serde::{Deserialize, Value};
use tt_bench::HostFingerprint;

fn objects(name: &str, list: Option<&str>) -> Vec<Vec<(String, Value)>> {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    let body = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut v: Value = serde_json::from_str(&body).unwrap_or_else(|e| panic!("{path}: {e}"));
    if let Some(list) = list {
        v = get(v.as_map().expect("an object"), list, name);
    }
    let items = v.as_seq().unwrap_or_else(|| panic!("{name}: not an array"));
    items
        .iter()
        .map(|e| e.as_map().expect("an object").to_vec())
        .collect()
}

fn get<T: Deserialize>(map: &[(String, Value)], key: &str, at: &str) -> T {
    let v = Value::get_field(map, key).unwrap_or_else(|| panic!("{at}: missing `{key}`"));
    T::from_value(v).unwrap_or_else(|e| panic!("{at}: `{key}`: {e}"))
}

#[test]
fn every_ledger_row_names_a_declared_metric_and_has_its_parent() {
    let workloads: Vec<String> = objects("BENCHMARK.json", Some("workloads"))
        .iter()
        .map(|w| get(w, "name", "workloads"))
        .collect();
    let metrics: Vec<(String, String)> = objects("BENCHMARK.json", Some("end_to_end"))
        .iter()
        .map(|m| (get(m, "name", "end_to_end"), get(m, "unit", "end_to_end")))
        .collect();
    let rows = objects("BENCH_perfbench.json", None);
    assert!(!rows.is_empty(), "the ledger has rows");
    let (mut parents, mut changes) = (BTreeSet::new(), Vec::new());
    for (i, row) in rows.iter().enumerate() {
        let at = &format!("BENCH_perfbench.json row {i}");
        let [workload, metric, unit, side] =
            ["workload", "metric", "unit", "side"].map(|k| get::<String>(row, k, at));
        assert!(workloads.contains(&workload), "{at}: undeclared workload");
        let declared = metrics.contains(&(metric.clone(), unit));
        assert!(declared, "{at}: undeclared metric or unit");
        let [q1, median, q3] = ["q1", "median", "q3"].map(|k| get::<f64>(row, k, at));
        assert!(q1 <= median && median <= q3, "{at}: {q1} {median} {q3}");
        let runs: usize = get(row, "runs", at);
        assert!(runs >= 3, "{at}: {runs} runs");
        assert_eq!(get::<Vec<u64>>(row, "seeds", at).len(), runs, "{at}: seeds");
        let _: HostFingerprint = get(row, "host", at);
        let rev: String = get(row, "parent_rev", at);
        let hex = rev.len() == 40 && rev.bytes().all(|b| b.is_ascii_hexdigit());
        assert!(hex, "{at}: parent_rev {rev:?} is not 40 hex digits");
        let key = (get::<u64>(row, "pr", at), workload, metric);
        match side.as_str() {
            "parent" => {
                parents.insert(key);
            }
            "change" => {
                let won: usize = get(row, "pairs_won", at);
                assert!(won <= runs, "{at}: {won} pairs won of {runs}");
                changes.push((at.clone(), key));
            }
            other => panic!("{at}: side {other:?} is neither parent nor change"),
        }
    }
    for (at, key) in changes {
        assert!(parents.contains(&key), "{at}: no parent row for {key:?}");
    }
}
