"""Compare two result sets of the falconnet benchmark, a parent and a change.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the records that ``run.py --out`` appends, one per run, for
any mix of workloads, seeds and trace settings. For each workload and
end-to-end metric (untraced runs) it prints each side's median and
quartiles, the share of pairs the change won, and a verdict:

* improved: the change won at least nine tenths of at least ten pairs,
  ties counting for neither, and the medians differ by more than the
  parent's quartile spread;
* worse beyond bound: the change's median is worse than the parent's by
  more than the metric's bound in BENCHMARK.json;
* unresolved: the parent's spread is wider than the bound and not every
  run of the change reads better than every run of the parent;
* within bound: otherwise.

Runs are paired by seed where both sides have it, else in file order. For
traced runs it prints the per-layer medians and their deltas. It also
checks that the model-identity counts repeat exactly on every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> list:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(xs) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def pairs(parent: list, change: list, name: str) -> list:
    """(parent value, change value) per pair, matched by seed where possible."""
    by_seed = {r["seed"]: r for r in parent}
    matched = [(by_seed[r["seed"]], r) for r in change if r["seed"] in by_seed]
    if len(matched) < min(len(parent), len(change)):
        matched = list(zip(parent, change))
    return [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in matched]


def verdict(pv: list, cv: list, paired: list, better: str, bound: float) -> tuple:
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in paired if sign * (c - p) > 0)
    share = wins / len(paired) if paired else 0.0
    pq1, pmed, pq3 = quartiles(pv)
    cmed = statistics.median(cv)
    spread = pq3 - pq1
    if len(paired) >= 10 and share >= 0.9 and sign * (cmed - pmed) > spread:
        return "improved", share
    if sign * (cmed - pmed) < -bound * abs(pmed):
        return "worse beyond bound", share
    all_better = min(sign * c for c in cv) > max(sign * p for p in pv)
    if pmed and spread / abs(pmed) > bound and not all_better:
        return "unresolved", share
    return "within bound", share


def check_identity(records: list, label: str) -> bool:
    ok = True
    for wl in sorted({r["workload"] for r in records}):
        idents = {json.dumps(r["identity"], sort_keys=True) for r in records if r["workload"] == wl}
        if len(idents) > 1:
            ok = False
            print(f"IDENTITY MISMATCH {label} {wl}: {len(idents)} distinct model identities")
    return ok


def fmt(x: float) -> str:
    return f"{x:.4g}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    parent, change = load(args.parent), load(args.change)
    ok = check_identity(parent + change, "parent+change")
    for r in parent + change:
        if not r["correct"]:
            ok = False
            print(f"INCORRECT {r['workload']} seed {r['seed']}: {r['failed']} of "
                  f"{r['attempted']} operations failed")

    workloads = sorted({r["workload"] for r in parent} & {r["workload"] for r in change})
    print("workload\tmetric\tparent_q1\tparent_med\tparent_q3\tchange_q1\tchange_med\t"
          "change_q3\tpairs\twon\tverdict")
    for wl in workloads:
        ps = [r for r in parent if r["workload"] == wl and not r["trace"]]
        cs = [r for r in change if r["workload"] == wl and not r["trace"]]
        if not ps or not cs:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in ps]
            cv = [r["metrics"][name]["value"] for r in cs]
            paired = pairs(ps, cs, name)
            v, share = verdict(pv, cv, paired, m["better"], m["bound"])
            cols = [*map(fmt, quartiles(pv)), *map(fmt, quartiles(cv))]
            print("\t".join([wl, name, *cols, str(len(paired)), f"{share:.2f}", v]))

    print()
    print("workload\tper_layer_metric\tunit\tparent_med\tchange_med\tdelta\tdelta_pct")
    for wl in workloads:
        ps = [r for r in parent if r["workload"] == wl and r["trace"]]
        cs = [r for r in change if r["workload"] == wl and r["trace"]]
        if not ps or not cs:
            continue
        for m in spec["per_layer"]:
            name = m["name"]
            pmed = statistics.median(r["metrics"][name]["value"] for r in ps)
            cmed = statistics.median(r["metrics"][name]["value"] for r in cs)
            pct = f"{100 * (cmed - pmed) / abs(pmed):+.1f}" if pmed else "n/a"
            unit = ps[0]["metrics"][name]["unit"]
            print("\t".join([wl, name, unit, fmt(pmed), fmt(cmed), fmt(cmed - pmed), pct]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
