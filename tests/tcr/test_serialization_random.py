"""Serialization round-trips and RNG reproducibility."""

import numpy as np
import pytest

from repro import tcr
from repro.errors import TdpError
from repro.tcr import nn
from repro.tcr.serialization import load_state, save_state


class TestSerialization:
    def test_module_roundtrip(self, tmp_path):
        model = nn.Sequential(nn.Linear(3, 4), nn.ReLU(), nn.Linear(4, 2))
        path = str(tmp_path / "model.npz")
        save_state(model, path)
        clone = nn.Sequential(nn.Linear(3, 4), nn.ReLU(), nn.Linear(4, 2))
        clone.load_state_dict(load_state(path))
        x = tcr.randn(2, 3)
        np.testing.assert_array_equal(model(x).data, clone(x).data)

    def test_buffers_serialized(self, tmp_path):
        bn = nn.BatchNorm2d(2)
        bn(tcr.randn(4, 2, 3, 3))
        path = str(tmp_path / "bn.npz")
        save_state(bn, path)
        state = load_state(path)
        assert "running_mean" in state

    def test_raw_dict_roundtrip(self, tmp_path):
        path = str(tmp_path / "raw.npz")
        save_state({"a": np.arange(3)}, path)
        assert load_state(path)["a"].tolist() == [0, 1, 2]

    def test_missing_file_raises(self):
        with pytest.raises(TdpError):
            load_state("/nonexistent/state.npz")

    def test_bad_object_rejected(self, tmp_path):
        with pytest.raises(TdpError):
            save_state(42, str(tmp_path / "x.npz"))


class TestRandom:
    def test_manual_seed_reproduces(self):
        tcr.manual_seed(7)
        a = tcr.randn(5).data
        tcr.manual_seed(7)
        b = tcr.randn(5).data
        np.testing.assert_array_equal(a, b)

    def test_fork_generator_does_not_disturb_global(self):
        tcr.manual_seed(7)
        _ = tcr.fork_generator(99).normal(size=3)
        a = tcr.randn(3).data
        tcr.manual_seed(7)
        b = tcr.randn(3).data
        np.testing.assert_array_equal(a, b)
