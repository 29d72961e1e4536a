import copy

import pytest

from deephedge import harness

# Small enough that building it costs nothing; only set-up runs here.
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
