"""Shared fixtures: seeded RNGs and fresh sessions per test."""

import numpy as np
import pytest

from repro import tcr
from repro.core import partition
from repro.core.session import Session


@pytest.fixture(autouse=True)
def _seed_runtime():
    """Every test starts from the same runtime RNG state."""
    tcr.manual_seed(1234)
    yield


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def session() -> Session:
    return Session()


@pytest.fixture
def tiny_shards(monkeypatch):
    """Let sharded join inputs split tables of any size (the engine keeps
    inputs under ``partition.PARALLEL_MIN_ROWS`` rows whole)."""
    monkeypatch.setattr(partition, "PARALLEL_MIN_ROWS", 2)
