"""``tools/pairs.py``: one alternating pair end to end (the repository as
both sides, one workload at tiny scale, each run in its own child), and the
verdicts and exit status over synthetic result files."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("setup_s", "op_p50_ms", "ops_per_s", "peak_rss_mb")
VERDICTS = ("ok", "unresolved", "regression")


def _pairs_module():
    spec = importlib.util.spec_from_file_location(
        "pairs", os.path.join(ROOT, "tools", "pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(stdout, workload):
    return {line.split()[1]: line for line in stdout.splitlines()
            if line.split()[:1] == [workload]}


def test_one_pair_summarised_and_compared(tmp_path):
    out = tmp_path / "pairs"
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "pairs.py"), ROOT, ROOT,
         "--workloads", "train_grid", "--seed", "5", "--pairs", "1",
         "--seconds", "0.5", "--scale", "0.02", "--out-dir", str(out)],
        capture_output=True, text=True, timeout=240, cwd=ROOT)
    assert sorted(os.listdir(out)) == ["A-train_grid-0.json", "B-train_grid-0.json"]
    rows = _rows(done.stdout, "train_grid")
    assert sorted(rows) == sorted(METRICS + ("fail_ratio",)), done.stdout
    for metric in METRICS:
        assert "wins" in rows[metric] and "/1 " in rows[metric]
        assert rows[metric].split(": ")[-1].split()[0] in VERDICTS
    assert rows["fail_ratio"].endswith("any increase: ok")
    # Only the workload that ran is judged: nothing reads as missing.
    assert "missing" not in done.stdout and "compare.py" not in done.stdout
    # Two runs of one checkout may still differ by more than a bound.
    regression = any(line.endswith(": regression") for line in rows.values())
    assert done.returncode == int(regression), done.stderr[-2000:]


def _fake_runs(monkeypatch, pairs, values):
    """Make ``run_once`` write a result file for the ``i``-th run of a
    side in which every lower-is-better end-to-end metric reads
    ``values[side][i]`` and ``ops_per_s`` its inverse (so each metric moves
    the same way), and ``failed`` reads ``values["failed"][side]``."""
    module = _pairs_module()
    seen = {"A": 0, "B": 0}

    def run_once(checkout, workload, out, options):
        side = os.path.basename(out)[0]
        value = values[side][seen[side]]
        seen[side] += 1
        metrics = {name: {"value": 1 / value if name == "ops_per_s" else value}
                   for name in METRICS if value is not None}
        failed = values.get("failed", {}).get(side, 0)
        with open(out, "w") as handle:
            json.dump({"workloads": {workload: {
                "end_to_end": metrics,
                "end_to_end_run": {"attempted": 100, "failed": failed}}}}, handle)
        return value is not None

    monkeypatch.setattr(module, "run_once", run_once)
    return module


def _main(module, tmp_path, pairs):
    return module.main([ROOT, ROOT, "--workloads", "mm_search", "--pairs", str(pairs),
                        "--out-dir", str(tmp_path)])


def test_a_clear_win_reads_gain_and_exits_0(monkeypatch, tmp_path, capsys):
    base = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    lower = [v * 0.7 for v in base]
    module = _fake_runs(monkeypatch, 10, {"A": base, "B": lower})
    assert _main(module, tmp_path, 10) == 0
    rows = _rows(capsys.readouterr().out, "mm_search")
    assert rows["op_p50_ms"].endswith("wins 10/10  beyond A's IQR  (ms, lower is better)"
                                      "  bound 0.25: ok gain")
    for metric in METRICS:
        assert rows[metric].endswith(": ok gain")


def test_a_loss_beyond_the_bound_is_a_regression(monkeypatch, tmp_path, capsys):
    module = _fake_runs(monkeypatch, 2, {"A": [1.0, 1.0], "B": [1.2, 1.2]})
    assert _main(module, tmp_path, 2) == 1
    rows = _rows(capsys.readouterr().out, "mm_search")
    assert rows["op_p50_ms"].endswith(": ok")            # +20%, bound 0.25
    assert rows["peak_rss_mb"].endswith(": regression")  # +20%, bound 0.10


def test_eight_wins_of_ten_are_no_gain(monkeypatch, tmp_path, capsys):
    base = [1.0] * 10
    change = [0.5] * 8 + [1.5] * 2
    module = _fake_runs(monkeypatch, 10, {"A": base, "B": change})
    _main(module, tmp_path, 10)
    row = _rows(capsys.readouterr().out, "mm_search")["op_p50_ms"]
    assert "wins 8/10" in row and not row.endswith("gain")


def test_more_failed_operations_are_a_regression(monkeypatch, tmp_path, capsys):
    module = _fake_runs(monkeypatch, 1, {"A": [1.0], "B": [1.0],
                                         "failed": {"B": 1}})
    assert _main(module, tmp_path, 1) == 1
    assert _rows(capsys.readouterr().out, "mm_search")["fail_ratio"].endswith(
        "any increase: regression")


@pytest.mark.parametrize("failed_side", ["A", "B"])
def test_a_failed_run_exits_1(monkeypatch, tmp_path, capsys, failed_side):
    values = {"A": [1.0], "B": [1.0]}
    values[failed_side] = [None]
    module = _fake_runs(monkeypatch, 1, values)
    assert _main(module, tmp_path, 1) == 1
    assert "incomplete: a run failed" in capsys.readouterr().out
