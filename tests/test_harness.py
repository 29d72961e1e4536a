import copy

import pytest

from deephedge import checkpoint as ckpt
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
    # misspelled keys: ignored, each would leave its default in place
    ("trainng.max_iterations", 5),
    ("market.kapa", 2.0),
    ("costs.spot_cost", 1e-3),
    ("policy.n_blocks", 2),
    ("objective.risk_aversoin", 10.0),
    ("cliquet.reset", [7]),
    ("optimizer.kfca", {}),
])
def test_bad_value_raises_config_error(path, value):
    with pytest.raises(harness.ConfigError):
        harness.build_config(_with(path, value))


def test_unknown_dataset_role_raises_config_error():
    cfg = harness.build_config(copy.deepcopy(TOY))
    with pytest.raises(harness.ConfigError, match="bogus"):
        harness.build_datasets(cfg, ("train", "bogus"))


def test_load_config_reads_a_yaml_file(tmp_path):
    f = tmp_path / "toy.yaml"
    f.write_text("market: {}\ngrid: {10: [1.0]}\ncliquet: {cap: 0.015, resets: [7, 14, 21]}\n"
                 "data: {n_train: 64, n_val: 32}\ntraining: {batch_size: 32}\nseed: 7\n")
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


# The train_loss column of three toy iterations, bit for bit. KFAC amplifies
# round-off, so a change to the arithmetic of either graph shows here.
GOLDEN_TRAIN_LOSS = {
    "adam": [0.10176359554310248, 0.20549282795160467, 0.16439891661843803],
    "kfac": [0.10176359554310248, 0.2033586927127611, 3.773671148812606],
}


@pytest.mark.parametrize("name", ["adam", "kfac"])
def test_train_writes_metrics_and_a_matching_checkpoint(tmp_path, toy_datasets, name):
    cfg = harness.build_config(copy.deepcopy(TOY), optimizer_override=name)
    result = harness.train(cfg, tmp_path, datasets=toy_datasets)
    lines = open(result.metrics_path).read().splitlines()
    assert lines[0] == harness.METRICS_HEADER
    assert [float(row.split(",")[1]) for row in lines[1:]] == GOLDEN_TRAIN_LOSS[name]
    records, cfg_hash, kind, version = ckpt.load_records(result.checkpoint_path)
    opt_cls = op.KfacOptimizer if name == "kfac" else op.AdamOptimizer
    assert (cfg_hash, kind, version) == (cfg.identity_hash(), name, opt_cls.STATE_VERSION)
    assert result.iterations_run == 3


def test_resume_refuses_another_optimizer_state_version(tmp_path, toy_datasets):
    cfg = harness.build_config(copy.deepcopy(TOY), optimizer_override="adam")
    result = harness.train(cfg, tmp_path / "run", datasets=toy_datasets)
    records, cfg_hash, kind, _ = ckpt.load_records(result.checkpoint_path)
    stale = tmp_path / "stale.dhck"
    ckpt.save_records(stale, records, cfg_hash, kind, 2)
    with pytest.raises(ckpt.CheckpointError, match="version 2"):
        harness.train(cfg, tmp_path / "resumed", resume_from=stale, datasets=toy_datasets)


# A head 1e6 times the default overflows symexp at the first step (tape node
# 36): training and the probe must stop there with the op named, not go on
# with NaN into the optimizer.
OVERFLOWING = {**TOY, "policy": {"head_scale": 1e6}}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", ["adam", "kfac"])
def test_training_overflow_names_the_op(tmp_path, toy_datasets, name):
    cfg = harness.build_config(copy.deepcopy(OVERFLOWING), optimizer_override=name)
    with pytest.raises(dc.DiffError, match="'symexp' at tape node 36"):
        harness.train(cfg, tmp_path, datasets=toy_datasets)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_probe_overflow_names_the_op(toy_datasets):
    cfg = harness.build_config(copy.deepcopy(OVERFLOWING))
    params = pol.init_params(cfg.policy, rs.stream(cfg.seed, rs.POLICY_INIT))
    with pytest.raises(dc.DiffError, match="'symexp' at tape node 36"):
        harness.probe_gradient_variance(params, toy_datasets["train"],
                                        cfg.risk_aversion, cfg.costs, 8)
