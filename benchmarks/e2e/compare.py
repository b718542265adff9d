"""Compare two sets of bench_e2e results under the benchmark's own bounds.

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py A1.json,A2.json,A3.json B1.json,B2.json,B3.json

Each argument is one result file written by ``run.py --out``, or several
joined by commas (runs of the same commit). A is the base (the parent, or
the first run of a repeatability check); B is the change.

One row per (workload, end-to-end metric): both medians and B/A with its
base. Verdicts:

* ``regression``: B is worse than A by more than the metric's bound.
* ``unresolved``: not a regression by the medians, but one side's own runs
  spread (max - min over its median) wider than the bound, so "unchanged"
  cannot be told from "changed".
* ``ok``: neither.

``fail_ratio`` has no bound in ``BENCHMARK.json`` (it reads 0 and a ratio to
0 means nothing); any increase is a regression. Exit status 1 when any row
is a regression, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List

import harness


def load_set(argument: str) -> List[dict]:
    files = []
    for path in argument.split(","):
        with open(path) as handle:
            files.append(json.load(handle))
    return files


def values_of(files: List[dict], workload: str, metric: str) -> List[float]:
    out = []
    for data in files:
        entry = data["workloads"].get(workload, {})
        if metric == "fail_ratio":
            run = entry.get("end_to_end_run")
            if run:
                out.append(run["failed"] / run["attempted"])
        elif metric in entry.get("end_to_end", {}):
            out.append(entry["end_to_end"][metric]["value"])
    return out


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    return (max(values) - min(values)) / statistics.median(values)


def judge(metric: dict, base: List[float], change: List[float]) -> Dict[str, object]:
    a, b = statistics.median(base), statistics.median(change)
    worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
    widest = max(spread(base), spread(change))
    if worse > metric["bound"]:
        verdict = "regression"
    elif widest > metric["bound"]:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {"base": a, "change": b, "ratio": b / a, "verdict": verdict,
            "spread": widest}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    contract = harness.load_contract()
    base_files, change_files = load_set(argv[0]), load_set(argv[1])
    status = 0
    print(f"{'workload':14s} {'metric':12s} {'A':>12s} {'B':>12s} {'B/A':>8s} "
          f"{'bound':>6s} {'spread':>7s}  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            base = values_of(base_files, workload, metric["name"])
            change = values_of(change_files, workload, metric["name"])
            if not base or not change:
                print(f"{workload:14s} {metric['name']:12s} missing on one side")
                status = 1
                continue
            row = judge(metric, base, change)
            if row["verdict"] == "regression":
                status = 1
            print(f"{workload:14s} {metric['name']:12s} {row['base']:12.4f} "
                  f"{row['change']:12.4f} {row['ratio']:7.3f}x {metric['bound']:6.2f} "
                  f"{row['spread']:7.3f}  {row['verdict']} "
                  f"(B/A of {row['base']:.4g} {metric['unit']})")
        base = values_of(base_files, workload, "fail_ratio")
        change = values_of(change_files, workload, "fail_ratio")
        if base and change:
            a, b = statistics.median(base), statistics.median(change)
            verdict = "regression" if b > a else "ok"
            if b > a:
                status = 1
            print(f"{workload:14s} {'fail_ratio':12s} {a:12.6f} {b:12.6f} "
                  f"{'':>8s} {'any':>6s} {'':>7s}  {verdict}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
