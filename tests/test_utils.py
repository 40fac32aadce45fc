"""Tests for repro.utils: RNG, timers, config handling, logging."""

import json
import time

import numpy as np
import pytest

from repro.utils.config import save_json_config
from repro.utils.logging import get_logger
from repro.utils.rng import new_rng
from repro.utils.timer import TimeAccumulator, Timer


class TestRng:
    def test_new_rng_from_int_is_deterministic(self):
        a = new_rng(42).integers(0, 1000, size=10)
        b = new_rng(42).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_new_rng_passthrough_generator(self):
        gen = np.random.default_rng(1)
        assert new_rng(gen) is gen

    def test_new_rng_none_gives_generator(self):
        assert isinstance(new_rng(None), np.random.Generator)


class TestTimer:
    def test_timer_context_manager(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.005

    def test_timer_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_timer_accumulates(self):
        t = Timer()
        with t:
            pass
        with t:
            pass
        assert t.elapsed >= 0.0

    def test_accumulator_measure_and_fractions(self):
        acc = TimeAccumulator()
        with acc.measure("a"):
            time.sleep(0.002)
        acc.add("b", 0.01)
        fractions = acc.fractions()
        assert pytest.approx(sum(fractions.values()), abs=1e-9) == 1.0
        assert acc.total() > 0.01

    def test_accumulator_negative_add_raises(self):
        with pytest.raises(ValueError):
            TimeAccumulator().add("x", -1.0)

    def test_accumulator_empty_fractions(self):
        assert TimeAccumulator().fractions() == {}


class TestConfig:
    def test_save_numpy_values(self, tmp_path):
        data = {"arr": np.arange(3), "scalar": np.float64(1.5)}
        path = save_json_config(data, tmp_path / "np.json")
        loaded = json.loads(path.read_text())
        assert loaded["arr"] == [0, 1, 2]
        assert loaded["scalar"] == 1.5


class TestLogging:
    def test_get_logger_namespaced(self):
        logger = get_logger("sampling.labor")
        assert logger.name == "repro.sampling.labor"

    def test_get_logger_already_namespaced(self):
        assert get_logger("repro.models").name == "repro.models"
