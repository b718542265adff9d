"""``tools/pairs.py`` runs one alternating pair end to end: the repository
as both sides, one workload at tiny scale, each run in its own child."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_one_pair_summarised_and_compared(tmp_path):
    out = tmp_path / "pairs"
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "pairs.py"), ROOT, ROOT,
         "--workloads", "train_grid", "--seed", "5", "--pairs", "1",
         "--seconds", "0.5", "--scale", "0.02", "--out-dir", str(out)],
        capture_output=True, text=True, timeout=240, cwd=ROOT)
    assert done.returncode == 0, done.stderr[-2000:]
    assert sorted(os.listdir(out)) == ["A-train_grid-0.json", "B-train_grid-0.json"]
    lines = done.stdout.splitlines()
    for metric in ("setup_s", "op_p50_ms", "ops_per_s", "peak_rss_mb"):
        summary = [line for line in lines
                   if line.split()[:2] == ["train_grid", metric] and "wins" in line]
        assert len(summary) == 1, done.stdout
        assert "/1 " in summary[0]
    # compare.py judged the four metrics of the workload that ran.
    judged = [line for line in lines
              if line.startswith("train_grid") and "(B/A of" in line]
    assert len(judged) == 4, done.stdout
    assert "# compare.py exit" in done.stdout
