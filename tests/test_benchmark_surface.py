"""The names the benchmark in ``perfbench/`` imports or wraps still exist.

``perfbench/tracing.py`` wraps package functions by name and skips any that
are gone, so a rename would silently drop a traced layer; only the slow
smoke test of the benchmark would notice. A call that goes round its
wrapped name is just as silent, so a traced toy run checks that each layer
records time, and a config key the package no longer reads would stop
every workload, so each config ``perfbench/worker.py`` sends is built. This
reads ``perfbench/`` and changes nothing there.
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


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import worker
    yield worker
    sys.modules.pop("worker", None)


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


def test_every_benchmark_config_builds(worker):
    for workload in worker.WORKLOADS:
        for scale in worker.SCALES:
            cfg = harness.build_config(worker.raw_config(workload, 7, scale))
            if workload.startswith("desk_"):
                assert cfg.optimizer_name == workload.removeprefix("desk_")


# Two toy iterations with a validation each and the probe at the first.
TRACED_TOY = {
    "market": {},
    "grid": {10: [1.0]},
    "cliquet": {"cap": 0.015, "resets": [7, 14, 21]},
    "data": {"n_train": 64, "n_val": 32},
    "training": {"batch_size": 32, "max_iterations": 2, "val_every": 1, "probe_paths": 8},
    "seed": 7,
}


def _traced_metrics(tracing, tmp_path, name):
    cfg = harness.build_config(dict(TRACED_TOY), optimizer_override=name)
    datasets = harness.build_datasets(cfg)
    with tracing.Tracer() as tracer:
        harness.train(cfg, tmp_path, datasets=datasets)
    assert tracer.root_mismatch() < 1e-9
    return tracer.metrics()


def test_a_traced_kfac_run_times_every_curvature_call(tracing, tmp_path):
    # A call that went round its wrapped name would report a silent zero.
    metrics = _traced_metrics(tracing, tmp_path, "kfac")
    assert metrics["diffcore.backward.calls"] == 0   # training sweeps; it builds no tape
    # Every unroll goes through policy.rollout, 21 steps each: the baseline
    # and 2 validations of 32 paths, 2 batches of 32, 2 pseudo-paths and
    # the probe's 8 paths.
    assert metrics["policy.rollout.path_steps"] == 21 * (3 * 32 + 2 * 32 + 2 + 8)
    assert metrics["optim.update_eigenbasis.calls"] == 1
    for layer in ("optim.pseudo_backward", "optim.update_input_stats",
                  "optim.update_output_stats", "optim.update_eigenbasis",
                  "optim.precondition", "optim.kfac_apply_step",
                  "contracts.inner_hessian"):
        assert metrics[layer + ".s"] > 0.0, layer
    assert metrics["optim.adam_apply_step.s"] == 0.0


def test_a_traced_adam_run_times_its_step(tracing, tmp_path):
    metrics = _traced_metrics(tracing, tmp_path, "adam")
    assert metrics["optim.adam_apply_step.s"] > 0.0
    assert metrics["optim.pseudo_backward.s"] == 0.0
