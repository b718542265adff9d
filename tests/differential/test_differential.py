"""Differential-testing entry point (see README.md in this directory).

Each seed drives a full stream of generated statements through
``diffrun.run_differential``: both expression namespaces × serial/sharded
(all bitwise against the serial tcr-ops leg) plus the miniduck oracle. The
default budget keeps tier-1 fast; CI's ``differential`` job widens it via
the environment:

* ``REPRO_DIFF_SEEDS``  — comma-separated seed list (default ``1,2``)
* ``REPRO_DIFF_STATEMENTS`` — statements per seed (default ``60``)
* ``REPRO_EXCHANGE`` — ``0`` turns the exchange rewrite off in the default
  sharded legs (the explicit exchange-on/off legs always run)
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
def test_differential_seed(seed):
    stats = run_differential(seed, _count())
    assert stats["statements"] == _count()
    # The oracle comparison must retain real coverage: grammar drift that
    # silently pushes most statements outside miniduck's surface would turn
    # the harness into a shards-only check without anyone noticing.
    oracle_eligible = stats["oracle_checked"] + stats["oracle_skipped"]
    assert stats["oracle_checked"] >= 0.8 * max(oracle_eligible, 1), stats
    assert stats["oracle_checked"] > 0
    # Exchange legs (on at shards=3, explicitly off at shards=4) and the
    # numpy-namespace legs (serial + sharded) run for every statement
    # regardless of the REPRO_EXCHANGE matrix setting.
    assert stats["exchange_checked"] == 2 * _count(), stats
    assert stats["kernel_checked"] == 2 * _count(), stats
