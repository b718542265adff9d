"""bench_e2e: five workloads, end-to-end metrics and a per-layer ledger.

    python3 benchmarks/e2e/run.py                       # everything, both passes
    python3 benchmarks/e2e/run.py --workload rel_analytic --seed 7
    python3 benchmarks/e2e/run.py --workload point_http --trace 1
    python3 benchmarks/e2e/run.py --out A.json          # then compare.py A.json B.json

With ``--workload`` one pass of one workload runs in this process and the
last line printed is the result object ``BENCHMARK.json`` describes. Without
it every workload runs in a fresh child process (both passes unless
``--trace`` picks one) and ``--out`` collects the results in one file.

End-to-end metrics come from the untraced pass only (``--trace 0``). The
traced pass (``--trace 1``, alias ``--traced``) records spans from the
benchmark's own files and prints the per-layer metrics; a layer the
workload never enters reads 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import harness


def make_parser(workloads) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace",
                        help="same as --trace 1")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the data (smoke tests); 1.0 is the benchmark")
    parser.add_argument("--out", help="write the collected results to this file")
    parser.add_argument("--wrong-reference", action="store_true",
                        help="self-test: perturb the oracle, every check must fire")
    return parser


def run_workload(name: str, options) -> dict:
    if name in ("rel_analytic", "rel_sharded"):
        import wl_rel
        return wl_rel.run(name, options)
    if name == "point_http":
        import wl_point_http
        return wl_point_http.run(options)
    if name == "mm_search":
        import wl_mm_search
        return wl_mm_search.run(options)
    import wl_train_grid
    return wl_train_grid.run(options)


def shape_result(contract: dict, outcome: dict, trace: bool) -> dict:
    """The contract's result object: every metric of the pass, with units."""
    declared = contract["per_layer" if trace else "end_to_end"]
    measured = outcome["metrics"]
    unknown = sorted(set(measured) - {m["name"] for m in declared})
    if unknown:
        raise SystemExit(f"bench_e2e: metrics not in BENCHMARK.json: {unknown}")
    metrics = {}
    for metric in declared:
        if not trace and metric["name"] not in measured:
            raise SystemExit(f"bench_e2e: {metric['name']} was not measured")
        # A per-layer metric the workload did not produce belongs to a layer
        # it never enters: no time spent, nothing counted.
        metrics[metric["name"]] = {"value": float(measured.get(metric["name"], 0.0)),
                                   "unit": metric["unit"]}
    attempted = int(outcome["attempted"])
    # A check on the whole run (recall, the loss falling) can add a failure
    # to a run whose every operation had failed already.
    failed = min(int(outcome["failed"]), attempted)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main_single(options, contract) -> int:
    harness.use_checkout()
    trace = bool(options.trace)
    options.trace = trace
    outcome = run_workload(options.workload, options)
    result = shape_result(contract, outcome, trace)
    print(f"# {options.workload} seed={options.seed} seconds={options.seconds:g} "
          f"trace={int(trace)} scale={options.scale:g}")
    for name, metric in result["metrics"].items():
        if trace and name not in outcome["metrics"]:
            continue
        print(f"{name:34s} {metric['value']:14.4f} {metric['unit']}")
    print(f"{'fail_ratio':34s} {result['failed'] / result['attempted']:14.6f} ratio "
          f"({result['failed']} of {result['attempted']})")
    for note in outcome.get("notes", ()):
        print(f"# note: {note}", file=sys.stderr)
    if not outcome.get("valid", True):
        print("# INVALID RUN: the load generator fell behind; see loadgen.*",
              file=sys.stderr)
    if options.out:
        key = "per_layer" if trace else "end_to_end"
        run = {k: result[k] for k in ("correct", "attempted", "failed")}
        run["valid"] = outcome.get("valid", True)
        write_results(options, {options.workload: {key: result["metrics"],
                                                   f"{key}_run": run}})
    print(json.dumps(result))
    return 0


def write_results(options, workloads: dict) -> None:
    """The result file ``compare.py`` reads; it carries its environment."""
    with open(options.out, "w") as handle:
        json.dump({"environment": harness.environment(options.seed),
                   "run_seconds": options.seconds, "scale": options.scale,
                   "workloads": workloads}, handle, indent=1)


def main_all(options, contract) -> int:
    """Each (workload, pass) in a fresh child, so no state is shared."""
    harness.use_checkout()
    passes = [0, 1] if options.trace is None else [options.trace]
    collected: dict = {}
    status = 0
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    for workload in (w["name"] for w in contract["workloads"]):
        for trace in passes:
            part = os.path.join(harness.OUT_DIR, f"part-{workload}-{trace}.json")
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", workload, "--seed", str(options.seed),
                       "--seconds", str(options.seconds), "--trace", str(trace),
                       "--scale", str(options.scale), "--out", part]
            if options.wrong_reference:
                command.append("--wrong-reference")
            start = time.perf_counter()
            code = subprocess.run(command).returncode
            print(f"# {workload} trace={trace}: exit {code} "
                  f"in {time.perf_counter() - start:.1f} s\n")
            if code != 0:
                status = 1
                continue
            with open(part) as handle:
                entry = json.load(handle)["workloads"][workload]
            os.remove(part)
            collected.setdefault(workload, {}).update(entry)
            if not all(run["correct"] for name, run in entry.items()
                       if name.endswith("_run")):
                status = 1
    if options.out:
        write_results(options, collected)
        print(f"# results written to {options.out}")
    return status


def main(argv=None) -> int:
    contract = harness.load_contract()
    workloads = [w["name"] for w in contract["workloads"]]
    options = make_parser(workloads).parse_args(argv)
    if options.seconds is None:
        options.seconds = float(contract["run_seconds"])
    if options.workload:
        return main_single(options, contract)
    return main_all(options, contract)


if __name__ == "__main__":
    raise SystemExit(main())
