"""The names the benchmark in ``perfbench/`` imports or wraps still exist.

``perfbench/tracing.py`` wraps package functions by name and skips any that
are gone, so a rename would silently drop a traced layer; only the slow
smoke test of the benchmark would notice. This reads ``perfbench/`` and
changes nothing there.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from deephedge import diffcore, harness, market, optim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    yield tracing
    sys.modules.pop("tracing", None)


def test_every_traced_target_resolves(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert hasattr(diffcore.backward, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(diffcore.backward, "__wrapped__")


def test_names_the_benchmark_uses_resolve():
    for error in (diffcore.DiffError, harness.TrainingDiverged, optim.OptimError,
                  market.MarketError):
        assert issubclass(error, Exception)
    cfg = harness.build_config({"market": {}, "grid": {10: [1.0]},
                                "cliquet": {"cap": 0.015, "resets": [10]}, "seed": 7})
    cached = harness.make_cached_pricer(cfg, v_max=0.5)
    assert isinstance(cached, market.CachedGridPricer)
    assert isinstance(cached.pricer, market.HestonPricer)
    v = np.array([0.0, 0.1, 0.5])
    fast = cached.unit_call(v, 10, 0.0)
    assert np.abs(fast - cached.pricer.unit_call(v, 10, 0.0)).max() < cached.pricer.tol
