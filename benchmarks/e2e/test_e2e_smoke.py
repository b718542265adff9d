"""Smoke test of bench_e2e: every workload, both passes, tiny data, 0.5 s.

Collected by the tier-1 run. Each workload runs in its own child process, as
the benchmark itself does. Checked: the result object's shape, that the
metric names are exactly those of ``BENCHMARK.json`` and well formed, that
every metric carries its unit, that nothing fails on a sound run, and that a
deliberately wrong reference makes every workload report failures.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def run_bench(workload, trace, *extra):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.5", "--trace", str(trace),
         "--scale", "0.02", *extra],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_pass(workload):
    result = run_bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert NAME.match(name)
        assert metric["unit"] == declared[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass(workload):
    result = run_bench(workload, 1)
    assert result["correct"] is True
    declared = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert NAME.match(name)
        assert metric["unit"] == declared[name]
    # The layers' self times account for the traced operations.
    assert result["metrics"]["trace.coverage_ratio"]["value"] > 0.95
    assert os.path.exists(os.path.join(HERE, "out", f"trace-{workload}.json"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_is_caught(workload):
    result = run_bench(workload, 0, "--wrong-reference")
    assert result["correct"] is False
    assert result["failed"] > 0
