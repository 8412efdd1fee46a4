#!/usr/bin/env python3
"""Gates perfbench results of a pull request's head against its base.

Usage: bench_compare.py BENCHMARK.json RESULTS_DIR

RESULTS_DIR holds one file per perfbench run, named
`<workload>.<side>.<pair>.txt` (side `base` or `head`), each the standard
output of `python3 perfbench/run.py ... --trace 0`; its last line is the
result object. Writes a workload x metric table in Markdown to standard
output and every failure to standard error. Exits 1 when

* a head run has no result line, reports `correct: false` or counts a
  failed operation, or lacks an end-to-end metric; or
* for some workload and end-to-end metric, the head is worse than the base
  by more than the metric's `bound`, both in the median and in every pair.

Without base runs (scheduled and manual runs) only the first rule applies.
"""

import json
import os
import statistics
import sys


def load_result(path):
    """The result object on the last non-empty line of a run's output."""
    try:
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        return json.loads(lines[-1]) if lines else None
    except (OSError, ValueError):
        return None


def metric(result, name):
    m = (result or {}).get("metrics", {}).get(name)
    return m.get("value") if isinstance(m, dict) else None


def worse_by(base, head, better):
    """How much worse `head` is than `base`, as a fraction of `base`."""
    diff = base - head if better == "higher" else head - base
    return diff / (base or 1e-12)


def main(bench_path, results_dir):
    with open(bench_path) as f:
        bench = json.load(f)
    runs = {}  # (workload, side) -> {pair: result}
    for name in sorted(os.listdir(results_dir)):
        parts = name.split(".")
        if len(parts) != 4 or parts[3] != "txt" or parts[1] not in ("base", "head"):
            continue
        workload, side, pair = parts[0], parts[1], parts[2]
        runs.setdefault((workload, side), {})[pair] = load_result(
            os.path.join(results_dir, name)
        )

    failures = []
    rows = []
    for w in (w["name"] for w in bench["workloads"]):
        head = runs.get((w, "head"), {})
        base = runs.get((w, "base"), {})
        if not head:
            failures.append(f"{w}: no head runs")
            continue
        for pair, r in sorted(head.items()):
            if r is None:
                failures.append(f"{w} head pair {pair}: no result line")
            elif r.get("correct") is not True:
                failures.append(f"{w} head pair {pair}: correct is {r.get('correct')}")
            elif r.get("failed") != 0:
                failures.append(f"{w} head pair {pair}: {r.get('failed')} failed operations")
        for pair, r in sorted(base.items()):
            if r is None or r.get("correct") is not True or r.get("failed") != 0:
                print(f"note: {w} base pair {pair} is not a valid result", file=sys.stderr)
        for m in bench["end_to_end"]:
            name, better, bound = m["name"], m["better"], m["bound"]
            head_vals = {p: metric(r, name) for p, r in head.items()}
            missing = [p for p, v in head_vals.items() if not isinstance(v, (int, float))]
            if missing:
                failures.append(f"{w} {name}: missing in head pair(s) {', '.join(missing)}")
                continue
            pairs = {
                p: (metric(base[p], name), v)
                for p, v in head_vals.items()
                if p in base and isinstance(metric(base[p], name), (int, float))
            }
            head_med = statistics.median(head_vals.values())
            if not pairs:
                rows.append((w, name, None, head_med, None, "-"))
                continue
            base_med = statistics.median(b for b, _ in pairs.values())
            worse_pairs = sum(worse_by(b, h, better) > bound for b, h in pairs.values())
            ratio = head_med / (base_med or 1e-12)
            rows.append((w, name, base_med, head_med, ratio, f"{worse_pairs}/{len(pairs)}"))
            if worse_by(base_med, head_med, better) > bound and worse_pairs == len(pairs):
                failures.append(
                    f"{w} {name}: head median {head_med:g} vs base {base_med:g} "
                    f"({better} is better) is worse by more than {bound:.0%} "
                    f"in the median and in all {len(pairs)} pairs"
                )

    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    fmt = lambda v: "-" if v is None else f"{v:.4g}"
    print("### perfbench: head vs base\n")
    print("| workload | metric | base median | head median | head/base | pairs worse than bound |")
    print("|---|---|---|---|---|---|")
    for w, name, base_med, head_med, ratio, worse in rows:
        print(
            f"| {w} | {name} ({units[name]}) | {fmt(base_med)} | {fmt(head_med)} "
            f"| {fmt(ratio)} | {worse} |"
        )
    print()
    if failures:
        print("**FAIL**\n")
        for msg in failures:
            print(f"- {msg}")
            print(f"bench: {msg}", file=sys.stderr)
        return 1
    print("**PASS**")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print("usage: bench_compare.py BENCHMARK.json RESULTS_DIR", file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
