"""The benchmark's tracer (bench/tracer.py) wraps program functions by module
and name and reads counts off their results; these tests keep that contract.
The tracer file is only loaded, never changed or installed."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import matrix, series_from_counts
from tradesync.polarization import score_population, shuffled_baseline
from tradesync.syncnet import build_sync_network
from tradesync.volatility import VolatilitySeries

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave nothing behind under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def _series(n_inv=6, n_days=60, seed=4):
    rng = np.random.default_rng(seed)
    return matrix(
        series_from_counts(rng.integers(1, 6, size=n_days), investor=f"I{k}")
        for k in range(n_inv))


def test_every_target_is_a_function_of_its_module(tracer):
    for module, name, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(f"tradesync.{module}"), name))


def test_activity_counts_read_its_length(tracer):
    series = _series()
    assert len(series) == 6
    assert tracer._counts("activity.build", (), {}, series) == {"investors": 6}


def test_score_counts_read_its_scores(tracer):
    vol = VolatilitySeries("TST", np.random.default_rng(1).lognormal(size=60))
    result = score_population(_series(), vol)
    assert len(result[0]) == 6
    assert tracer._counts("polarization.score", (), {}, result) == {"scored": 6}


def test_baseline_counts_read_its_replica_variances(tracer):
    series = _series()
    vol = VolatilitySeries("TST", np.random.default_rng(1).lognormal(size=60))
    result = shuffled_baseline(series, vol, replicas=7, seed=2)
    assert len(result.replica_variances) == 7
    assert tracer._counts("polarization.baseline", (), {}, result) == {"replicas": 7}


def test_syncnet_counts_read_its_diagnostics(tracer):
    net = build_sync_network(_series(), min_ops=5, shuffles=99, seed=1, workers=1)
    d = net.diagnostics
    assert tracer._counts("syncnet.build", (), {}, net) == {
        "pairs_tested": d["pairs_tested"], "edges": d["edges_retained"],
        "shuffles": 99}
