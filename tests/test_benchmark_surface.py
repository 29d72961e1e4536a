"""The names the benchmark in ``perfbench/`` imports or wraps still exist.

``perfbench/tracing.py`` wraps package functions by name and skips any that
are gone, so a rename would silently drop a traced layer; here it fails at
once, before the benchmark's own smoke tests (``perfbench/test_smoke.py``,
also collected by the test run) start a workload. A call that goes round
its wrapped name is just as silent, so traced toy runs check that each
layer records time. No workload differentiates the tape, so one traced
backward on it checks that the tape still holds what the tracer reads. A
config key the package no longer reads would stop every workload, so each
config ``perfbench/worker.py`` sends is built. This reads ``perfbench/``
and changes nothing there.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from deephedge import contracts, diffcore, harness, market, optim, policy
from oracles import tape_rollout

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


@pytest.fixture
def checks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    yield checks
    sys.modules.pop("checks", None)


def test_data_invariants_check_a_dataset_without_premiums(checks):
    # The check rebuilds each premium as payoff minus return, so its
    # no-arbitrage bounds still hold every option column.
    cfg = harness.build_config(dict(TRACED_TOY, data={"n_test": 32}))
    ds = harness.build_datasets(cfg, ("test",))["test"]
    assert ds.premiums is None
    tol = 10 * market.HestonPricer.tol   # as perfbench/worker.py passes it
    check = checks.data_invariants(cfg, ds, tol)
    assert check.ok, check.detail
    assert check.name == "data_invariants[test]"
    ds.returns[:, 0, 1] += ds.paths.spot[:, 0]   # a premium below zero fails it
    assert not checks.data_invariants(cfg, ds, tol).ok


def test_every_traced_target_resolves(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert hasattr(diffcore.backward, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(diffcore.backward, "__wrapped__")


def test_a_traced_tape_backward_reports_its_size_and_layers(tracing):
    # The tracer reads the seed's tape and the hooks' captures at backward
    # entry; no benchmark run calls a traced backward, so this is its check.
    config = policy.PolicyConfig(action_dim=3, hidden=4, n_blocks=2)
    rng = np.random.default_rng(3)
    params = policy.init_params(config, rng)
    n, n_steps = 8, 5
    features = rng.normal(size=(n, n_steps, config.n_features))
    returns = rng.normal(size=(n, n_steps, config.action_dim)) * 0.05
    with tracing.Tracer() as tracer:
        tape = tape_rollout(params, features, np.ones((n_steps, config.action_dim)),
                            capture=True)
        loss = contracts.batch_objective(tape.action_nodes, returns, np.zeros(n), 10.0,
                                         contracts.CostSpec())
        diffcore.backward(loss, hooks=tape.channels.values())
    metrics = tracer.metrics()
    assert metrics["diffcore.backward.calls"] == 1
    assert metrics["diffcore.backward.nodes"] == len(tape.tape.nodes)
    assert metrics["diffcore.tape_peak_mb"] > 0.0
    for layer in ("diffcore.lstm_cell", "diffcore.affine", "diffcore.glue"):
        assert metrics[layer + ".s"] > 0.0, layer
    assert tracer.root_mismatch() < 1e-9


def test_names_the_benchmark_uses_resolve():
    for error in (diffcore.DiffError, harness.TrainingDiverged, optim.OptimError,
                  market.MarketError):
        assert issubclass(error, Exception)
    # perfbench/worker.py names the policy's error through the tape
    assert diffcore.DiffError is policy.DiffError
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
    # and 2 validations of 32 paths, and 2 batches of 32. The pseudo-path
    # and the probe's 8 paths are read from their batch, not unrolled again.
    assert metrics["policy.rollout.path_steps"] == 21 * (3 * 32 + 2 * 32)
    assert metrics["optim.update_eigenbasis.calls"] == 1
    for layer in ("harness.probe_gradient_variance",
                  "optim.pseudo_backward", "optim.update_input_stats",
                  "optim.update_output_stats", "optim.update_eigenbasis",
                  "optim.precondition", "optim.kfac_apply_step",
                  "contracts.inner_hessian"):
        assert metrics[layer + ".s"] > 0.0, layer
    assert metrics["optim.adam_apply_step.s"] == 0.0


def test_a_traced_adam_run_times_its_step(tracing, tmp_path):
    metrics = _traced_metrics(tracing, tmp_path, "adam")
    assert metrics["optim.adam_apply_step.s"] > 0.0
    assert metrics["optim.pseudo_backward.s"] == 0.0
