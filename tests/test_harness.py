import copy
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import child_pids

from deephedge import checkpoint as ckpt
from deephedge import contracts as ct
from deephedge import diffcore as dc
from deephedge import harness
from deephedge import optim as op
from deephedge import policy as pol
from deephedge import rngstreams as rs

# Small enough that building it and training it for three iterations take
# about a second.
TOY = {
    "market": {},
    "grid": {10: [1.0]},
    "cliquet": {"cap": 0.015, "resets": [7, 14, 21]},
    "data": {"n_train": 64, "n_val": 32, "n_test": 32},
    "training": {"batch_size": 32, "max_iterations": 3, "val_every": 2, "probe_paths": 8},
    "seed": 7,
}


def _with(path: str, value) -> dict:
    raw = copy.deepcopy(TOY)
    *parents, leaf = path.split(".")
    node = raw
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = value
    return raw


def test_toy_config_builds():
    cfg = harness.build_config(copy.deepcopy(TOY))
    assert cfg.training.val_every == 2 and cfg.data.n_val == 32


# Each of these used to get through build_config and fail inside set-up or
# training: a ZeroDivisionError, a DiffError deep in the tape, a MarketError
# from the pricer, or a raw ValueError at the first validation.
@pytest.mark.parametrize("path,value", [
    ("market.dt", 0.0),
    ("market.substeps", 0),
    ("objective.risk_aversion", -1.0),
    ("policy.hidden", 0),
    ("training.val_every", 0),
    ("training.probe_every", -1),
    ("training.probe_paths", 1),
    ("optimizer.kfac.n_cov", 0),
    ("optimizer.kfac.n_evd", 0),
    ("optimizer.kfac.tr_init", -1.0),
    ("optimizer.kfac.eta_max", 0.0),
    ("optimizer.adam.lr_peak", -1.0),
    ("data.n_val", 1),
    ("data.n_test", 1),
    # misspelled keys: ignored, each would leave its default in place (keys
    # are field names, so costs.spot and policy.blocks are refused too)
    ("trainng.max_iterations", 5),
    ("market.kapa", 2.0),
    ("costs.spot", -1e-3),
    ("policy.blocks", 2.0),
    ("objective.risk_aversoin", 10.0),
    ("cliquet.reset", [7]),
    ("optimizer.kfca", {}),
    # values of the wrong type: truncated, or passed on to fail inside train
    ("training.batch_size", 2.5),
    ("training.val_every", 1.5),
    ("training.divergence_factor", "ten"),    # now a constant, so an unknown key
    ("training.divergence_patience", True),   # a removed setting, so an unknown key
    ("data.n_train", 64.9),
    ("data.n_val", "32"),
    ("optimizer.kfac.n_cov", 5.0),
    ("optimizer.kfac.identity_basis", "yes"),
    ("optimizer.adam.warmup_iters", None),
    ("optimizer.kfac", [0.9]),
    # integer fields: truncated by int(...)
    ("market.substeps", 2.7),
    ("policy.hidden", 32.9),
    ("policy.n_blocks", 2.0),
    ("policy.n_blocks", True),
    ("seed", 7.9),
    ("seed", "7"),
    ("cliquet.resets", [7, 14.5, 21]),
    ("grid", {10.5: [1.0]}),
    # a bool where a float belongs: float(True) is 1.0
    ("optimizer.kfac.tr_init", True),
    ("training.divergence_factor", False),    # now a constant, so an unknown key
    # a strike of zero fails later as a missing cache entry, a negative one
    # in the pricer; a negative cost as a DiffError in KFAC's pseudo-target
    ("grid", {10: [0.0]}),
    ("grid", {10: [-1.0]}),
    ("costs.spot_cost", -1e-3),
    ("costs.l2_multiplier", -8),
    # Adam and training settings that built and then broke the run: a
    # negative clip norm trained uphill, a negative budget ran -5 iterations
    ("optimizer.adam.clip_norm", -1.0),
    ("optimizer.adam.clip_norm", 0.0),
    ("optimizer.adam.warmup_iters", -1),
    ("optimizer.adam.lr_decay", 0.0),
    ("optimizer.adam.lr_decay", 1.5),
    ("training.max_iterations", -5),
    # a bool where a float belongs, in the values read outside the sections'
    # type rule: a year per step, a risk aversion of one, an at-the-money option
    ("market.dt", True),
    ("objective.risk_aversion", True),
    ("grid", {10: [True]}),
    # refusals of the sections' own checks
    ("optimizer.name", "sgd"),
    ("grid", {30: [1.0]}),   # matures past the last reset
    ("training.batch_size", 1),
    ("data.n_train", 16),    # less than one batch
    ("optimizer.kfac.beta_factor", 1.0),
    ("optimizer.kfac.tr_decay", 0.0),
    ("optimizer.kfac.shrinkage", 1.0),
    ("cliquet.resets", [14, 7, 21]),
    # no residual block: the head read a buffer no block wrote, and a
    # negative count failed inside numpy
    ("policy.n_blocks", 0),
    ("policy.n_blocks", -1),
    # an option maturing in less than a step failed inside the pricer
    ("grid", {0: [1.0]}),
    ("grid", {-3: [1.0]}),
    # the probe reads the batch's rows: more than a batch was clamped to it
    ("training.probe_paths", 33),
])
def test_bad_value_raises_config_error(path, value):
    with pytest.raises(harness.ConfigError):
        harness.build_config(_with(path, value))


@pytest.mark.parametrize("path,value,key", [
    ("market.substeps", 2.7, "market.substeps"),
    ("policy.hidden", 32.9, "policy.hidden"),
    ("policy.n_blocks", 2.0, "policy.n_blocks"),
    ("seed", 7.9, "seed"),
    ("cliquet.resets", [7, 14.5, 21], "cliquet.resets"),
    ("grid", {10.5: [1.0]}, "grid"),
])
def test_fractional_integer_field_names_its_key(path, value, key):
    with pytest.raises(harness.ConfigError, match=f"^{key}.* must be an integer"):
        harness.build_config(_with(path, value))


@pytest.mark.parametrize("path,value,match", [
    # a section that is not a mapping: grid used to raise AttributeError and
    # market: [] used to build
    ("grid", [1.0], "^grid must be a mapping"),
    ("grid", None, "^grid must be a mapping"),
    ("market", [], "^market must be a mapping"),
    ("objective", [], "^objective must be a mapping"),
    ("optimizer.kfac.n_covv", 5, "^unknown key 'n_covv' in optimizer.kfac$"),
    ("optimizer.adam.beta1", 0.9, "^unknown key 'beta1' in optimizer.adam$"),
    ("data.n_tset", 32, "^unknown key 'n_tset' in data$"),
    ("training.max_iteratoins", 5, "^unknown key 'max_iteratoins' in training$"),
    ("policy.action_dim", 3, "^unknown key 'action_dim' in policy$"),
])
def test_bad_section_names_it(path, value, match):
    with pytest.raises(harness.ConfigError, match=match):
        harness.build_config(_with(path, value))


@pytest.mark.parametrize("key", ["market", "grid", "cliquet", "seed"])
def test_missing_section_is_named(key):
    raw = copy.deepcopy(TOY)
    del raw[key]
    with pytest.raises(harness.ConfigError, match=f"^missing '{key}' in config$"):
        harness.build_config(raw)


# One leaf of each section the hash covers, then what it leaves out so that
# paired runs share checkpoints and a run resumes to a longer budget or
# another validation target.
@pytest.mark.parametrize("path,value,hashed", [
    ("market.kappa", 4.0, True),
    ("market.dt", 1.0 / 252.0, True),
    ("market.substeps", 3, True),
    ("grid", {10: [1.01]}, True),
    ("cliquet.cap", 0.02, True),
    ("costs.option_cost", 0.02, True),
    ("objective.risk_aversion", 10.0, True),
    ("policy.hidden", 8, True),
    ("data.n_test", 16, True),
    ("training.val_every", 3, True),
    ("seed", 8, True),
    ("optimizer.name", "adam", False),
    ("optimizer.kfac.tr_init", 1e-6, False),
    ("optimizer.adam.lr_peak", 1e-2, False),
    ("training.max_iterations", 50, False),
    ("training.val_target", 0.05, False),
])
def test_identity_hash_covers_all_but_the_optimizer_and_budget(path, value, hashed):
    base = harness.build_config(copy.deepcopy(TOY)).identity_hash()
    assert (harness.build_config(_with(path, value)).identity_hash() != base) == hashed


def test_float_fields_take_numeric_strings():
    # PyYAML reads 1e-3 (no dot) as the string '1e-3'
    raw = _with("optimizer.kfac.tr_init", "1e-3")
    raw["costs"] = {"l2_multiplier": "8"}
    cfg = harness.build_config(raw)
    assert cfg.kfac.tr_init == 1e-3 and cfg.costs.l2_multiplier == 8.0
    assert cfg.training.val_target is None


def test_unknown_dataset_role_raises_config_error():
    cfg = harness.build_config(copy.deepcopy(TOY))
    with pytest.raises(harness.ConfigError, match="bogus"):
        harness.build_datasets(cfg, ("train", "bogus"))


def test_a_dataset_build_peaks_at_what_it_keeps():
    # Returns are priced in place, so no (n, T, d) premium array (6.2 MB
    # here) sits beside them. What the build holds beyond the returns,
    # features and paths it keeps is a fixed working set: the pricer's
    # 4 MB Chebyshev basis block, then the feature temporaries.
    raw = _with("data.n_test", 4096)
    raw["grid"] = {10: [0.99, 1.0, 1.01], 20: [0.97, 0.99, 1.0, 1.01, 1.03]}
    cfg = harness.build_config(raw)
    harness.build_datasets(cfg, ("test",))   # fills the quadrature rules' cache
    tracemalloc.start()
    try:
        ds = harness.build_datasets(cfg, ("test",))["test"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.premiums is None
    kept = sum(a.nbytes for a in (ds.returns, ds.features, ds.paths.spot, ds.paths.variance))
    assert peak < kept + 4 * 2 ** 20 < kept + ds.returns.nbytes


def test_load_config_reads_a_yaml_file(tmp_path):
    f = tmp_path / "toy.yaml"
    f.write_text("market: {}\ngrid: {10: [1.0]}\ncliquet: {cap: 0.015, resets: [7, 14, 21]}\n"
                 "data: {n_train: 64, n_val: 32}\ntraining: {batch_size: 32, probe_paths: 8}\n"
                 "seed: 7\n")
    cfg = harness.load_config(f, optimizer_override="adam")
    assert cfg.optimizer_name == "adam" and cfg.cliquet.maturity == 21


@pytest.mark.parametrize("content,match", [
    (None, "not found"),
    ("market: [unclosed\n", "YAML"),
    ("- just\n- a list\n", "mapping"),
])
def test_load_config_rejects_bad_files(tmp_path, content, match):
    f = tmp_path / "cfg.yaml"
    if content is not None:
        f.write_text(content)
    with pytest.raises(harness.ConfigError, match=match):
        harness.load_config(f)


@pytest.fixture(scope="module")
def toy_datasets():
    return harness.build_datasets(harness.build_config(copy.deepcopy(TOY)))


# The train_loss column of the toy iterations, bit for bit. KFAC amplifies
# round-off, so a change to the arithmetic of either graph shows here.
# KFAC at the TOY defaults diverges at its third iteration (see
# test_failed_run_checkpoint_equals_a_straight_run_to_its_last_iteration),
# so these runs use the benchmark's setting, with which it trains.
GOLDEN_TRAIN_LOSS = {
    "adam": [0.10176359554310248, 0.20549282795160467, 0.16439891661843806],
    "kfac": [0.10176359554310248, 0.1826874387316166, 0.139543012263215,
             0.12471052899390885],
}
TRAINING_KFAC = {"beta_momentum": 0.0, "tr_init": 1e-6}


def _toy_config(name, iterations, **training):
    """TOY with optimizer ``name`` (KFAC at TRAINING_KFAC) for ``iterations``,
    and any other ``training`` settings."""
    raw = _with("training.max_iterations", iterations)
    raw["training"].update(training)
    if name == "kfac":
        raw["optimizer"] = {"kfac": dict(TRAINING_KFAC)}
    return harness.build_config(raw, optimizer_override=name)


@pytest.mark.parametrize("name", ["adam", "kfac"])
def test_train_writes_metrics_and_a_matching_checkpoint(tmp_path, toy_datasets, name):
    iterations = len(GOLDEN_TRAIN_LOSS[name])
    cfg = _toy_config(name, iterations)
    result = harness.train(cfg, tmp_path, datasets=toy_datasets)
    lines = Path(result.metrics_path).read_text().splitlines()
    assert lines[0] == harness.METRICS_HEADER
    assert [float(row.split(",")[1]) for row in lines[1:]] == GOLDEN_TRAIN_LOSS[name]
    records, cfg_hash, kind, version = ckpt.load_records(result.checkpoint_path)
    opt_cls = op.KfacOptimizer if name == "kfac" else op.AdamOptimizer
    assert (cfg_hash, kind, version) == (cfg.identity_hash(), name, opt_cls.STATE_VERSION)
    # any numpy reads the checkpoint without this package
    with np.load(result.checkpoint_path, allow_pickle=False) as archive:
        assert np.array_equal(archive["head"], records["head"])
    assert result.iterations_run == iterations
    # the divergence guard's baseline: the seed's initialization on the validation set
    init = pol.init_params(cfg.policy, rs.stream(cfg.seed, rs.POLICY_INIT))
    assert _pretrain_val_loss(result) == harness.dataset_objective(
        init, toy_datasets["val"], cfg.risk_aversion, cfg.costs)
    # what the wall times depend on
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    environment = manifest["environment"]
    assert environment.keys() == {"python", "numpy", "usable_cpus", "block_workers",
                                  "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
    assert environment["numpy"] == np.__version__
    assert environment["usable_cpus"] == pol._usable_cpus() >= 1
    assert environment["block_workers"] == 0   # a batch of 32 is one row block


def _assert_initialization(cfg, checkpoint_path):
    """The checkpoint holds the seed's initialization and no ``train/`` record."""
    records, cfg_hash, kind, _ = ckpt.load_records(checkpoint_path)
    assert (cfg_hash, kind) == (cfg.identity_hash(), cfg.optimizer_name)
    init = pol.init_params(cfg.policy, rs.stream(cfg.seed, rs.POLICY_INIT))
    assert all(np.array_equal(records[k], v) for k, v in init.values.items())
    assert records["opt/step"][0, 0] == 0.0
    assert not [k for k in records if k.startswith("train/")]


# Adam at a learning rate of 0.01 from the first step (the default ramps up
# to 3e-3 over 100) takes the validation loss from 0.227 to 103.7 in one step.
def test_a_first_step_blow_up_stops_at_once(tmp_path, toy_datasets):
    raw = _with("optimizer.adam", {"lr_peak": 0.01, "warmup_iters": 1})
    cfg = harness.build_config(raw, optimizer_override="adam")
    with pytest.raises(harness.TrainingDiverged, match="at iteration 0 .* pre-training loss"):
        harness.train(cfg, tmp_path, datasets=toy_datasets)
    assert (tmp_path / "metrics.csv").read_text() == harness.METRICS_HEADER + "\n"
    _assert_initialization(cfg, tmp_path / "checkpoint.dhck")


def test_a_nan_validation_loss_stops_the_run(tmp_path, toy_datasets, monkeypatch):
    objective = harness.dataset_objective
    calls = []

    def nan_at_the_second_validation(*args):
        calls.append(args)   # the first call is the pre-training baseline
        return float("nan") if len(calls) == 3 else objective(*args)

    monkeypatch.setattr(harness, "dataset_objective", nan_at_the_second_validation)
    cfg = harness.build_config(copy.deepcopy(TOY), optimizer_override="adam")
    with pytest.raises(harness.TrainingDiverged, match="loss nan at iteration 2 "):
        harness.train(cfg, tmp_path, datasets=toy_datasets)
    assert len(_metrics_without_wall_ms(tmp_path / "metrics.csv")) == 1 + 2


def test_resume_refuses_another_config_or_optimizer(tmp_path, toy_datasets):
    # The optimizer is not part of a config's identity, so an Adam
    # checkpoint matches the KFAC config and is refused for its state.
    result = harness.train(_toy_config("adam", 1), tmp_path / "run", datasets=toy_datasets)
    other = harness.build_config(_with("objective.risk_aversion", 10.0),
                                 optimizer_override="adam")
    with pytest.raises(ckpt.CheckpointError, match="^checkpoint does not match this config$"):
        harness.train(other, tmp_path / "other", resume_from=result.checkpoint_path,
                      datasets=toy_datasets)
    with pytest.raises(ckpt.CheckpointError,
                       match="^checkpoint holds adam state, config wants kfac$"):
        harness.train(_toy_config("kfac", 2), tmp_path / "kfac",
                      resume_from=result.checkpoint_path, datasets=toy_datasets)


def test_a_run_builds_its_own_datasets_as_given_ones(tmp_path):
    cfg = _toy_config("adam", 1)
    own = harness.train(cfg, tmp_path / "own")
    given = harness.train(cfg, tmp_path / "given", datasets=harness.build_datasets(cfg))
    assert (_metrics_without_wall_ms(own.metrics_path)
            == _metrics_without_wall_ms(given.metrics_path))
    assert (Path(own.checkpoint_path).read_bytes()
            == Path(given.checkpoint_path).read_bytes())


def test_resume_refuses_another_optimizer_state_version(tmp_path, toy_datasets):
    cfg = harness.build_config(copy.deepcopy(TOY), optimizer_override="adam")
    result = harness.train(cfg, tmp_path / "run", datasets=toy_datasets)
    records, cfg_hash, kind, _ = ckpt.load_records(result.checkpoint_path)
    stale = tmp_path / "stale.dhck"
    ckpt.save_records(stale, records, cfg_hash, kind, 2)
    with pytest.raises(ckpt.CheckpointError, match="version 2"):
        harness.train(cfg, tmp_path / "resumed", resume_from=stale, datasets=toy_datasets)


def _resume_records(path):
    records, *_ = ckpt.load_records(path)
    return records


def _pretrain_val_loss(result):
    manifest = Path(result.checkpoint_path).with_name("manifest.json")
    return json.loads(manifest.read_text())["pretrain_val_loss"]


def _metrics_without_wall_ms(path):
    return [row.rsplit(",", 1)[0] for row in Path(path).read_text().splitlines()]


@pytest.mark.parametrize("name", ["adam", "kfac"])
def test_resumed_run_equals_a_straight_run(tmp_path, toy_datasets, name):
    # Half the run, then the rest.
    total = 4

    def cfg(iterations):
        return _toy_config(name, iterations)

    first = harness.train(cfg(total // 2), tmp_path / "resumed", datasets=toy_datasets)
    resumed = harness.train(cfg(total), tmp_path / "resumed",
                            resume_from=first.checkpoint_path, datasets=toy_datasets)
    straight = harness.train(cfg(total), tmp_path / "straight", datasets=toy_datasets)
    got = _resume_records(resumed.checkpoint_path)
    want = _resume_records(straight.checkpoint_path)
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[k], want[k]) for k in want)
    assert not [k for k in want if k.startswith("train/")]
    assert _pretrain_val_loss(resumed) == _pretrain_val_loss(straight)
    assert (_metrics_without_wall_ms(resumed.metrics_path)
            == _metrics_without_wall_ms(straight.metrics_path))
    assert len(_metrics_without_wall_ms(straight.metrics_path)) == 1 + total


@pytest.mark.parametrize("name", ["adam", "kfac"])
def test_a_reached_validation_target_stops_the_run(tmp_path, toy_datasets, name):
    # Every loss is below 1e9, so the first validation, at iteration 0,
    # reaches it and the run ends as a straight one-iteration run does.
    result = harness.train(_toy_config(name, 3, val_target=1e9), tmp_path / "target",
                           datasets=toy_datasets)
    assert (result.reached_target, result.target_iteration, result.iterations_run) == (
        True, 0, 1)
    straight = harness.train(_toy_config(name, 1), tmp_path / "straight",
                             datasets=toy_datasets)
    assert (_metrics_without_wall_ms(result.metrics_path)
            == _metrics_without_wall_ms(straight.metrics_path))
    got = _resume_records(result.checkpoint_path)
    want = _resume_records(straight.checkpoint_path)
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[k], want[k]) for k in want)


def test_a_resumed_run_takes_a_validation_target(tmp_path, toy_datasets):
    # Three iterations without a target, whose validations (iterations 0
    # and 2) stay above 0.17, then resumed to a budget of 8 with that
    # target: the run stops where the straight run with it stops, at the
    # validation of iteration 4 (loss 0.165), with its metrics and state.
    target = 0.17
    first = harness.train(_toy_config("adam", 3), tmp_path / "resumed", datasets=toy_datasets)
    losses = [row.split(",")[2] for row in _metrics_without_wall_ms(first.metrics_path)[1:]]
    assert all(float(loss) > target for loss in losses if loss)
    resumed = harness.train(_toy_config("adam", 8, val_target=target), tmp_path / "resumed",
                            resume_from=first.checkpoint_path, datasets=toy_datasets)
    straight = harness.train(_toy_config("adam", 8, val_target=target), tmp_path / "straight",
                             datasets=toy_datasets)
    for result in (resumed, straight):
        assert (result.reached_target, result.target_iteration, result.iterations_run) == (
            True, 4, 5)
    assert (_metrics_without_wall_ms(resumed.metrics_path)
            == _metrics_without_wall_ms(straight.metrics_path))
    assert (Path(resumed.checkpoint_path).read_bytes()
            == Path(straight.checkpoint_path).read_bytes())


@pytest.mark.parametrize("name", ["adam", "kfac"])
def test_an_unreached_validation_target_runs_the_whole_budget(tmp_path, toy_datasets, name):
    result = harness.train(_toy_config(name, 3, val_target=0.0), tmp_path,
                           datasets=toy_datasets)
    assert (result.reached_target, result.target_iteration, result.iterations_run) == (
        False, None, 3)
    assert len(_metrics_without_wall_ms(result.metrics_path)) == 1 + 3


@pytest.mark.parametrize("name", ["adam", "kfac"])
def test_two_runs_in_one_process_are_identical(tmp_path, toy_datasets, name):
    # A run records every batch into its own workspace, which the probe
    # reads: a second run, with a probe and a validation between its
    # iterations, repeats the first bit for bit.
    cfg = _toy_config(name, 4, probe_every=2)
    first = harness.train(cfg, tmp_path / "first", datasets=toy_datasets)
    second = harness.train(cfg, tmp_path / "second", datasets=toy_datasets)
    rows = _metrics_without_wall_ms(first.metrics_path)
    assert [r.split(",")[5] != "" for r in rows[1:]] == [True, False, True, False]
    assert [r.split(",")[2] != "" for r in rows[1:]] == [True, False, True, False]
    assert rows == _metrics_without_wall_ms(second.metrics_path)
    got = _resume_records(second.checkpoint_path)
    want = _resume_records(first.checkpoint_path)
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[k], want[k]) for k in want)


def test_metrics_rows_are_in_the_file_while_the_run_goes_on(tmp_path, toy_datasets,
                                                            monkeypatch):
    # Iteration 1's validation, in the middle of the run, reads the header
    # and row 0 from the file: each row reaches it as it is written.
    objective = harness.dataset_objective
    path = tmp_path / "metrics.csv"
    seen = []

    def read_the_metrics(*args):
        seen.append(path.read_text() if path.exists() else None)
        return objective(*args)

    monkeypatch.setattr(harness, "dataset_objective", read_the_metrics)
    harness.train(_toy_config("adam", 2, val_every=1), tmp_path, datasets=toy_datasets)
    assert len(seen) == 3   # the pre-training baseline, then iterations 0 and 1
    assert seen[2] == "".join(path.read_text().splitlines(keepends=True)[:2])
    assert seen[2].startswith(harness.METRICS_HEADER + "\n0,")


@pytest.mark.parametrize("block", [pol.RECORD_BLOCK, 3])
def test_probe_is_the_trace_of_the_per_path_gradient_covariance(toy_datasets, monkeypatch,
                                                                block):
    # One path at a time: a path unrolled alone and swept with n times its
    # row of the batch's dL/du gives its single-sample gradient estimate,
    # and the probe is the unbiased trace of their covariance over the
    # Kronecker blocks. 13 of 32 rows: two groups of 8, the second short,
    # and at row blocks of 3 each group spans several blocks.
    monkeypatch.setattr(pol, "RECORD_BLOCK", block)
    cfg = harness.build_config(copy.deepcopy(TOY))
    params = pol.init_params(cfg.policy, rs.stream(cfg.seed, rs.POLICY_INIT))
    ds, n, n_probe = toy_datasets["train"], 32, 13
    batch = pol.rollout(params, ds.features[:n], ds.mask)
    du = ct.objective_gradient(batch.actions, ds.returns[:n], ds.payoff[:n],
                               cfg.risk_aversion, cfg.costs)
    per_path = []
    for i in range(n_probe):
        alone = pol.rollout(params, ds.features[i:i + 1], ds.mask)
        grads, _ = pol.reverse_sweep(alone, n * du[i:i + 1])
        per_path.append(np.concatenate([grads[name].ravel() for name in params.kronecker_names]))
    want = np.var(per_path, axis=0, ddof=1).sum()
    got = harness.probe_gradient_variance(batch, du, n_probe)
    assert want > 0.0 and abs(got - want) <= 1e-10 * want


@pytest.mark.parametrize("name", ["adam", "kfac"])
def test_the_probe_changes_nothing_but_its_column(tmp_path, toy_datasets, name):
    # It reads the batch between its sweep and the step: a run probing every
    # iteration trains, validates and saves what a run without the probe
    # does, and iteration 0's probe is that of the first batch at the
    # initial parameters. The config hash covers probe_every, so the
    # checkpoints are compared record by record.
    cfg = _toy_config(name, 3, probe_every=1)
    probed = harness.train(cfg, tmp_path / "probed", datasets=toy_datasets)
    plain = harness.train(_toy_config(name, 3, probe_every=0), tmp_path / "plain",
                          datasets=toy_datasets)

    def columns(result):
        rows = [row.split(",") for row in _metrics_without_wall_ms(result.metrics_path)]
        return [row[:5] + row[6:] for row in rows], [row[5] for row in rows[1:]]

    (probed_rows, probes), (plain_rows, unprobed) = columns(probed), columns(plain)
    assert probed_rows == plain_rows
    assert all(float(v) > 0.0 for v in probes) and unprobed == ["", "", ""]
    ds, batch = toy_datasets["train"], cfg.training.batch_size
    idx = rs.stream(cfg.seed, rs.BATCH_SHUFFLE, 0).permutation(ds.n_paths)[:batch]
    init = pol.init_params(cfg.policy, rs.stream(cfg.seed, rs.POLICY_INIT))
    first = pol.rollout(init, ds.features[idx], ds.mask)
    du = ct.objective_gradient(first.actions, ds.returns[idx], ds.payoff[idx],
                               cfg.risk_aversion, cfg.costs)
    assert float(probes[0]) == harness.probe_gradient_variance(first, du, cfg.training.probe_paths)
    got = _resume_records(probed.checkpoint_path)
    want = _resume_records(plain.checkpoint_path)
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[k], want[k]) for k in want)


def _two_block_raw():
    """TOY with 600 training paths, and a batch of 300 paths, two recorded
    row blocks, all of which the probe reads."""
    raw = _with("data.n_train", 600)
    raw["training"].update(batch_size=300, probe_paths=300, val_every=1)
    return raw


def _two_block_config(name):
    raw = _two_block_raw()
    if name == "kfac":
        raw["optimizer"] = {"kfac": dict(TRAINING_KFAC)}
    return harness.build_config(raw, optimizer_override=name)


@pytest.fixture(scope="module")
def two_block_datasets():
    return harness.build_datasets(_two_block_config("adam"))


def _count_workers(monkeypatch, cpus):
    """Give this process ``cpus`` usable CPUs; returns the list to which each
    worker a workspace forks from now on appends its pid."""
    forked = []
    fork_workers = pol._fork_workers

    def counted(caches, count, workers):
        fork_workers(caches, count, workers)
        forked.extend(pid for pid, _ in workers[len(workers) - count:])

    monkeypatch.setattr(pol, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(pol, "_fork_workers", counted)
    return forked


@pytest.mark.parametrize("name", ["adam", "kfac"])
def test_training_does_not_depend_on_the_cpu_count(tmp_path, two_block_datasets, monkeypatch,
                                                   name):
    # The row blocks unrolled and swept inline on one CPU, and side by side
    # with a worker process, train alike, and the run stops its workers. The
    # probe at iteration 0 reads the batch, so the run forks its worker once.
    cfg = _two_block_config(name)
    assert -(-cfg.training.batch_size // pol.RECORD_BLOCK) == 2
    forked = _count_workers(monkeypatch, 1)
    runs = {}
    for cpus in (1, 4):
        monkeypatch.setattr(pol, "_usable_cpus", lambda cpus=cpus: cpus)
        runs[cpus] = harness.train(cfg, tmp_path / str(cpus), datasets=two_block_datasets)
        manifest = json.loads((tmp_path / str(cpus) / "manifest.json").read_text())
        assert manifest["environment"]["block_workers"] == min(cpus, 2) - 1
        if cpus == 1:
            assert forked == []
    assert len(forked) == 1
    assert (_metrics_without_wall_ms(runs[1].metrics_path)
            == _metrics_without_wall_ms(runs[4].metrics_path))
    assert (Path(runs[1].checkpoint_path).read_bytes()
            == Path(runs[4].checkpoint_path).read_bytes())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("failure", ["DiffError", "TrainingDiverged"])
def test_a_failed_run_leaves_no_worker(tmp_path, two_block_datasets, monkeypatch, failure):
    # A run that stops on an error has forked a worker for its batch, and
    # stopped and reaped it before the error reaches the caller.
    cfg = _two_block_config("adam")
    if failure == "DiffError":   # the batch's first step overflows in both row blocks
        cfg = harness.build_config({**_two_block_raw(), "policy": {"head_scale": 1e6}},
                                   optimizer_override="adam")
        error, match = pol.DiffError, "non-finite action at step 0$"
    else:
        objective = harness.dataset_objective
        calls = []

        def nan_at_the_first_validation(*args):
            calls.append(args)   # the first call is the pre-training baseline
            return float("nan") if len(calls) == 2 else objective(*args)

        monkeypatch.setattr(harness, "dataset_objective", nan_at_the_first_validation)
        error, match = harness.TrainingDiverged, "loss nan at iteration 0 "
    forked = _count_workers(monkeypatch, 2)
    with pytest.raises(error, match=match):
        harness.train(cfg, tmp_path, datasets=two_block_datasets)
    assert forked and child_pids() == []


KILLED_SCRIPT = """
import sys
from deephedge import harness, policy as pol
pol._usable_cpus = lambda: 2
harness.train(harness.build_config({raw!r}, optimizer_override="adam"), sys.argv[1])
"""


def _state(pid):
    """A process's state letter from ``/proc``, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="reads /proc")
def test_a_killed_run_leaves_no_worker_running(tmp_path):
    # SIGKILL gives the run no chance to stop its worker: the worker sees
    # EOF on its command pipe and exits within a second.
    src = Path(__file__).resolve().parents[1] / "src"
    raw = _two_block_raw()
    raw["training"].update(max_iterations=100000, probe_every=0)
    run = subprocess.Popen([sys.executable, "-c", KILLED_SCRIPT.format(raw=raw), str(tmp_path)],
                           env=dict(os.environ, PYTHONPATH=str(src)),
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline, workers = time.monotonic() + 120.0, []
        while not workers and run.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            for path in Path(f"/proc/{run.pid}/task").glob("*/children"):
                workers += [int(pid) for pid in path.read_text().split()]
        assert workers, "the run forked no worker"
    finally:
        run.kill()
        run.wait()
    deadline = time.monotonic() + 1.0
    while any(_state(pid) not in (None, "Z") for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert all(_state(pid) in (None, "Z") for pid in workers)


# A head 1e6 times the default overflows symexp at the first step: training
# must stop there with the step named, not go on with NaN into the optimizer.
OVERFLOWING = {**TOY, "policy": {"head_scale": 1e6}}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", ["adam", "kfac"])
def test_training_overflow_names_the_op(tmp_path, toy_datasets, name):
    cfg = harness.build_config(copy.deepcopy(OVERFLOWING), optimizer_override=name)
    with pytest.raises(dc.DiffError, match="non-finite action at step 0$"):
        harness.train(cfg, tmp_path, datasets=toy_datasets)
    # no iteration completed: the checkpoint holds the initialization
    _assert_initialization(cfg, tmp_path / "checkpoint.dhck")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_run_checkpoint_equals_a_straight_run_to_its_last_iteration(
        tmp_path, toy_datasets):
    def cfg(iterations):
        return harness.build_config(_with("training.max_iterations", iterations),
                                    optimizer_override="kfac")

    with pytest.raises(harness.TrainingDiverged, match="at iteration 2 "):
        harness.train(cfg(8), tmp_path / "failed", datasets=toy_datasets)
    completed = len(_metrics_without_wall_ms(tmp_path / "failed" / "metrics.csv")) - 1
    assert completed == 2  # KFAC at the TOY defaults diverges at the third iteration
    straight = harness.train(cfg(completed), tmp_path / "straight", datasets=toy_datasets)
    got = _resume_records(tmp_path / "failed" / "checkpoint.dhck")
    want = _resume_records(straight.checkpoint_path)
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[k], want[k], equal_nan=True) for k in want)
    assert (_metrics_without_wall_ms(tmp_path / "failed" / "metrics.csv")
            == _metrics_without_wall_ms(straight.metrics_path))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_probe_overflow_names_the_op(toy_datasets):
    # A non-finite row of the seed, in the second group of 8, stops the
    # probe with the parameter named.
    cfg = harness.build_config(copy.deepcopy(TOY))
    params = pol.init_params(cfg.policy, rs.stream(cfg.seed, rs.POLICY_INIT))
    ds, n = toy_datasets["train"], 32
    batch = pol.rollout(params, ds.features[:n], ds.mask)
    du = ct.objective_gradient(batch.actions, ds.returns[:n], ds.payoff[:n],
                               cfg.risk_aversion, cfg.costs)
    assert harness.probe_gradient_variance(batch, du, 16) > 0.0
    du[9, -1, 0] = np.inf
    with pytest.raises(dc.DiffError, match="non-finite gradient of parameter 'embed'$"):
        harness.probe_gradient_variance(batch, du, 16)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_forward_only_overflow_names_the_step(toy_datasets, toy_evaluation):
    cfg = harness.build_config(copy.deepcopy(OVERFLOWING))
    params = pol.init_params(cfg.policy, rs.stream(cfg.seed, rs.POLICY_INIT))
    with pytest.raises(dc.DiffError, match="non-finite action at step 0$"):
        harness.dataset_objective(params, toy_datasets["val"], cfg.risk_aversion, cfg.costs)
    ds_test = toy_evaluation[2]   # the policy section leaves the data as it is
    with pytest.raises(dc.DiffError, match="non-finite action at step 0$"):
        harness.evaluate(cfg, params, ds_test)


@pytest.fixture(scope="module")
def toy_evaluation():
    cfg = harness.build_config(copy.deepcopy(TOY))
    ds_test = harness.build_datasets(cfg, ("test",))["test"]
    params = pol.init_params(cfg.policy, rs.stream(cfg.seed, rs.POLICY_INIT))
    return cfg, params, ds_test, harness.evaluate(cfg, params, ds_test)


def test_evaluate_agrees_with_the_validation_objective(toy_evaluation):
    cfg, params, ds_test, result = toy_evaluation
    report, per_path = result["report"], result["per_path"]
    n, n_steps, d = 32, cfg.cliquet.maturity, cfg.grid.d
    assert report["n_paths"] == n and report["identity_hash"] == cfg.identity_hash()
    assert report["validation_estimator_loss"] == harness.dataset_objective(
        params, ds_test, cfg.risk_aversion, cfg.costs)
    assert per_path.shape == (n, 6)
    assert np.array(report["action_quantiles"]["values"]).shape == (5, n_steps, d)
    gains, payoff, pnl = per_path[:, 0], per_path[:, 1], per_path[:, 2]
    assert np.array_equal(payoff, ds_test.payoff)
    assert np.allclose(gains - payoff, pnl, rtol=0.0, atol=1e-15)
    assert report["pnl"]["hedged"]["mean"] == float(pnl.mean())
    assert report["pnl"]["unhedged"]["mean"] == float(-payoff.mean())


def test_action_quantiles_are_numpys_over_paths(toy_evaluation):
    _, params, ds_test, result = toy_evaluation
    actions = pol.rollout(params, ds_test.features, ds_test.mask, record=False).actions
    want = np.quantile(actions, harness.QUANTS, axis=0)
    assert np.array_equal(np.array(result["report"]["action_quantiles"]["values"]), want)


def test_delta_only_columns_are_the_spot_trades_alone(toy_evaluation):
    cfg, params, ds_test, result = toy_evaluation
    actions = pol.rollout(params, ds_test.features, ds_test.mask, record=False).actions
    spot_cost = cfg.costs.linear(cfg.grid.d)[0]
    gains = np.zeros(ds_test.n_paths)
    cost = np.zeros(ds_test.n_paths)
    for t in range(cfg.cliquet.maturity):
        gains += actions[:, t, 0] * ds_test.returns[:, t, 0]
        cost += np.abs(actions[:, t, 0]) * spot_cost
    per_path = result["per_path"]
    assert np.abs(per_path[:, 4] - (gains - ds_test.payoff)).max() < 1e-15
    assert np.abs(per_path[:, 5] - cost).max() < 1e-15
    # the option trades are there to drop: the full policy pays more costs
    assert (per_path[:, 3] > per_path[:, 5]).all()


def test_evaluation_files_and_exports(tmp_path, toy_evaluation):
    cfg, _, _, result = toy_evaluation
    summary, dump = harness.write_evaluation(tmp_path, result)
    assert json.loads(Path(summary).read_text()) == result["report"]
    rows = Path(dump).read_text().splitlines()
    assert rows[0] == harness.PER_PATH_HEADER and len(rows) == 33
    assert np.array_equal(np.array([[float(v) for v in r.split(",")[1:]] for r in rows[1:]]),
                          result["per_path"])

    hist = Path(harness.export_pnl_histogram(dump, tmp_path)).read_text().splitlines()
    assert hist[0] == "kind,bin_left,bin_right,count" and len(hist) == 1 + 3 * harness.HIST_BINS
    for kind in ("hedged", "delta_only", "unhedged"):
        assert sum(int(r.split(",")[3]) for r in hist[1:] if r.startswith(kind + ",")) == 32

    fans = Path(harness.export_hedge_fans(summary, tmp_path)).read_text().splitlines()
    n_steps, d = cfg.cliquet.maturity, cfg.grid.d
    assert fans[0] == "t,instrument,q05,q25,q50,q75,q95" and len(fans) == 1 + n_steps * d
    quantiles = np.array(result["report"]["action_quantiles"]["values"])
    t, i, *qs = fans[1 + 5 * d + 1].split(",")
    assert (int(t), int(i)) == (5, 1)
    assert [float(q) for q in qs] == list(quantiles[:, 5, 1])


def test_pnl_histogram_of_an_empty_evaluation_is_its_header(tmp_path):
    dump = tmp_path / "empty.csv"
    dump.write_text(harness.PER_PATH_HEADER + "\n")
    out = harness.export_pnl_histogram(dump, tmp_path / "out")
    assert Path(out).read_text() == "kind,bin_left,bin_right,count\n"


# Run in a fresh interpreter, so that no other test's imports count.
NO_TAPE_SCRIPT = """
import sys
from deephedge import checkpoint, harness, policy
raw, kfac, outdir = {raw!r}, {kfac!r}, sys.argv[1]
for name in ("kfac", "adam"):
    run = dict(raw, optimizer={{"kfac": kfac}})
    cfg = harness.build_config(run, optimizer_override=name)
    result = harness.train(cfg, f"{{outdir}}/{{name}}")
records = checkpoint.load_records(result.checkpoint_path)[0]
params = policy.PolicyParams(cfg.policy, {{k: records[k] for k in cfg.policy.param_shapes()}})
ds_test = harness.build_datasets(cfg, ("test",))["test"]
summary, dump = harness.write_evaluation(outdir, harness.evaluate(cfg, params, ds_test))
harness.export_pnl_histogram(dump, outdir)
harness.export_hedge_fans(summary, outdir)
assert "deephedge.diffcore" not in sys.modules, "the reference tape was loaded"
"""


def test_training_and_evaluation_never_load_the_tape(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    script = NO_TAPE_SCRIPT.format(raw=_with("training.max_iterations", 2), kfac=TRAINING_KFAC)
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "adam", "evaluation.json", "evaluation_paths.csv", "hedge_fans.csv", "kfac",
        "pnl_histogram.csv"]
