"""The runnable examples run clean, as a user runs them: each in a child
process with only ``src`` added to the path and warnings as errors.
``quickstart.py`` places its table with ``device="cuda"`` (paper Listing 1);
``multimodal_search.py`` runs the Fig 2 statements and must count exactly
the 50 receipts. The first run trains and caches TinyCLIP (see
``repro.ml.models.clip.cache_dir``), later runs load it.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_example(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-W", "error", os.path.join(ROOT, "examples", name)],
        capture_output=True, text=True, timeout=300, cwd=ROOT, env=env)


def test_examples_run():
    for name, expected in (("quickstart.py", "registered tables"),
                           ("multimodal_search.py", "query counted 50")):
        done = _run_example(name)
        assert done.returncode == 0, (name, done.stderr[-2000:])
        assert expected in done.stdout, (name, done.stdout[-2000:])
