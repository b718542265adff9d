"""Differential-testing entry point (see README.md in this directory).

Each seed drives a full stream of generated statements through
``diffrun.run_differential``: serial, sharded (join inputs only), the
tcr-ops leg and, for joins, the no-pushdown leg, all bitwise against the
serial numpy leg, plus the miniduck oracle. The
default budget keeps tier-1 fast; CI's ``differential`` job widens it via
the environment:

* ``REPRO_DIFF_SEEDS``  — comma-separated seed list (default ``1,2``)
* ``REPRO_DIFF_STATEMENTS`` — statements per seed (default ``60``)
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from diffrun import run_differential  # noqa: E402


def _seeds():
    raw = os.environ.get("REPRO_DIFF_SEEDS", "1,2")
    return [int(part) for part in raw.split(",") if part.strip()]


def _count():
    return int(os.environ.get("REPRO_DIFF_STATEMENTS", "60"))


@pytest.mark.parametrize("seed", _seeds())
def test_differential_seed(seed, tiny_shards):
    stats = run_differential(seed, _count())
    assert stats["statements"] == _count()
    # The oracle comparison must retain real coverage: grammar drift that
    # silently pushes most statements outside miniduck's surface would turn
    # the harness into a shards-only check without anyone noticing.
    oracle_eligible = stats["oracle_checked"] + stats["oracle_skipped"]
    assert stats["oracle_checked"] >= 0.8 * max(oracle_eligible, 1), stats
    assert stats["oracle_checked"] > 0
    # The odd shard-count leg and the tcr-ops leg run for every statement.
    assert stats["odd_shards_checked"] == _count(), stats
    assert stats["tcr_checked"] == _count(), stats
    # Only join inputs shard: the shard legs must still split some scans,
    # or they would silently compare serial plans with serial plans.
    assert stats["sharded_checked"] > 0, stats
    # Join statements also run with pushdown off, the one leg whose join
    # inputs arrive without a selection.
    assert stats["no_pushdown_checked"] > 0, stats
