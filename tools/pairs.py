"""Run bench_e2e in alternating parent/change pairs and summarise them.

    python tools/pairs.py PARENT CHANGE --workloads train_grid,mm_search \
        --seed 1 --pairs 10 --out-dir pairs-out

PARENT and CHANGE are two checkouts of the repository. For each pair and
each workload, ``benchmarks/e2e/run.py --workload W --trace 0`` runs once in
each checkout, each run in its own child process with the checkout as its
working directory. The side that goes first alternates from pair to pair, so
a slow spell of the host does not fall on one side only. Every run keeps its
result file in the output directory (``A-W-i.json`` for the parent,
``B-W-i.json`` for the change).

Printed per workload and end-to-end metric: each side's median with its
quartiles, B/A of the medians, in how many pairs the change was better,
whether the medians differ by more than the parent's interquartile range,
and the verdict of ``judge`` from the change checkout's
``benchmarks/e2e/compare.py`` under the bounds of its ``BENCHMARK.json``
(``ok``, ``unresolved`` or ``regression``). A row also reads ``gain`` when
the change was better in at least nine pairs of ten and its median beyond
the parent's interquartile range: what a claimed gain must show. Then one
``fail_ratio`` row per workload: any increase is a regression. Only the
workloads named in ``--workloads`` are judged. Exit status 1 when a run
failed or a row is a regression, else 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
from typing import Callable, Dict, List, Tuple

SIDES = ("A", "B")
GAIN_WINS = 0.9          # share of pairs the change must win for a gain


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit (side A)")
    parser.add_argument("change", help="checkout of the change (side B)")
    parser.add_argument("--workloads", required=True,
                        help="comma-separated workload names")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out-dir", required=True,
                        help="directory for the result files")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per run (default: the contract's)")
    parser.add_argument("--scale", type=float, default=None,
                        help="shrink the data (smoke runs)")
    return parser


def run_once(checkout: str, workload: str, out: str, options) -> bool:
    command = [sys.executable, os.path.join("benchmarks", "e2e", "run.py"),
               "--workload", workload, "--trace", "0",
               "--seed", str(options.seed), "--out", out]
    if options.seconds is not None:
        command += ["--seconds", str(options.seconds)]
    if options.scale is not None:
        command += ["--scale", str(options.scale)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(f"# {checkout} {workload}: exit {done.returncode}\n"
                         f"{done.stderr[-2000:]}\n")
    return done.returncode == 0


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def load_compare(checkout: str):
    """``benchmarks/e2e/compare.py`` of ``checkout`` as a module (it imports
    ``harness`` from its own directory)."""
    directory = os.path.join(checkout, "benchmarks", "e2e")
    spec = importlib.util.spec_from_file_location(
        "bench_compare", os.path.join(directory, "compare.py"))
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, directory)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(directory)
    return module


def summarise(workload: str, metric: dict, runs: Dict[str, List[dict]],
              judge: Callable) -> Tuple[str, str]:
    """One metric's summary line and its bound verdict."""
    values = {side: [data["workloads"][workload]["end_to_end"][metric["name"]]["value"]
                     for data in runs[side]] for side in SIDES}
    (a1, a, a3), (b1, b, b3) = quartiles(values["A"]), quartiles(values["B"])
    lower = metric["better"] == "lower"
    wins = sum((vb < va) if lower else (vb > va)
               for va, vb in zip(values["A"], values["B"]))
    clear = abs(b - a) > a3 - a1
    verdict = judge(metric, values["A"], values["B"])["verdict"]
    gain = clear and wins >= GAIN_WINS * len(values["A"]) and ((b < a) == lower)
    return (f"{workload:14s} {metric['name']:12s} "
            f"A {a:10.4f} [{a1:.4f}, {a3:.4f}]  B {b:10.4f} [{b1:.4f}, {b3:.4f}]  "
            f"B/A {b / a:6.3f}  wins {wins}/{len(values['A'])}  "
            f"{'beyond' if clear else 'within'} A's IQR  ({metric['unit']}, "
            f"{metric['better']} is better)  bound {metric['bound']:.2f}: "
            f"{verdict}{' gain' if gain else ''}"), verdict


def fail_ratio(workload: str, runs: Dict[str, List[dict]],
               values_of: Callable) -> Tuple[str, str]:
    """The median share of failed operations on each side, and its verdict."""
    ratios = [values_of(runs[side], workload, "fail_ratio") for side in SIDES]
    if not all(ratios):
        return f"{workload:14s} {'fail_ratio':12s} not recorded", "ok"
    a, b = (statistics.median(values) for values in ratios)
    verdict = "regression" if b > a else "ok"
    return (f"{workload:14s} {'fail_ratio':12s} A {a:10.6f}  B {b:10.6f}  "
            f"any increase: {verdict}"), verdict


def main(argv=None) -> int:
    options = make_parser().parse_args(argv)
    checkouts = {"A": os.path.abspath(options.parent), "B": os.path.abspath(options.change)}
    workloads = [w for w in options.workloads.split(",") if w]
    os.makedirs(options.out_dir, exist_ok=True)
    files: Dict[str, Dict[str, List[str]]] = {w: {"A": [], "B": []} for w in workloads}
    status = 0
    for index in range(options.pairs):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                out = os.path.abspath(os.path.join(options.out_dir,
                                                   f"{side}-{workload}-{index}.json"))
                if run_once(checkouts[side], workload, out, options):
                    files[workload][side].append(out)
                else:
                    status = 1
        print(f"# pair {index + 1} of {options.pairs} done", flush=True)

    with open(os.path.join(checkouts["B"], "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    compare = load_compare(checkouts["B"])
    for workload in workloads:
        if any(len(files[workload][side]) != options.pairs for side in SIDES):
            print(f"{workload:14s} incomplete: a run failed, no summary")
            continue
        runs = {}
        for side in SIDES:
            runs[side] = []
            for path in files[workload][side]:
                with open(path) as handle:
                    runs[side].append(json.load(handle))
        rows = [summarise(workload, metric, runs, compare.judge)
                for metric in contract["end_to_end"]]
        rows.append(fail_ratio(workload, runs, compare.values_of))
        for line, verdict in rows:
            print(line)
            if verdict == "regression":
                status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
