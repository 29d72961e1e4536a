"""Experiment configuration, training loop, evaluation, and metrics.

One YAML config describes the whole experiment: market, instrument grid,
cliquet, costs, policy, both optimizer settings, data sizes, and the
training schedule. All randomness derives from the single root seed
through tagged streams, so a config determines its datasets, its
initialization, and its optimization trajectory bit for bit. The keys of
each section are the field names of its dataclass. A config is checked
when it is built: an unknown key, or a value the training loop cannot run
with, raises :class:`ConfigError` there, not an error deep inside
training.
The harness writes a manifest, metrics, a checkpoint and evaluation
exports; simulated paths stay in memory.

The policy's matrix products are small, so threaded BLAS loses more to
synchronization than it gains. The BLAS thread count cannot be changed
once numpy has loaded; set it in the environment before start-up, e.g.
``OPENBLAS_NUM_THREADS=1``, as ``perfbench/run.py`` does for each of its
worker processes. The policy runs its row blocks side by side instead,
each with its own single-threaded BLAS calls, in forked worker processes
beside the calling one: the many small ufunc calls each release the GIL
and take it back, which costs threads about a third of their time. A
training batch's recorded unroll and its reverse sweep run in blocks of
256 paths (``policy.RECORD_BLOCK``) on workers that the run's workspace
forks with its caches, once per run, so a batch of 512 takes two CPUs;
KFAC's pseudo-path and the gradient-variance probe read the batch's own
caches and sweep their copies in the training process. Validation and
evaluation run in blocks of 512 (``policy.ROW_BLOCK``) on workers forked
for each call and reaped before it returns. The block size, not the CPU
or worker count, sets the order of every sum, so results do not depend
on those counts; wall time does, so ``manifest.json`` records both.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import numbers
import os
import platform
import time
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from . import checkpoint as ckpt
from . import contracts as ct
from . import market as mk
from . import optim as op
from . import policy as pol
from . import rngstreams as rs

log = logging.getLogger(__name__)

METRICS_HEADER = ("iteration,train_loss,val_loss,eta,rho_tr,"
                  "grad_variance,max_precond_scale,wall_ms")

# A validation loss above this many times the pre-training one stops a run.
DIVERGENCE_FACTOR = 10.0


class ConfigError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class DataConfig:
    n_train: int = 50_000
    n_val: int = 10_000
    n_test: int = 10_000

    def __post_init__(self):
        # the loss estimator is an unbiased variance over the paths
        if self.n_val < 2 or self.n_test < 2:
            raise ValueError("n_val and n_test must be at least 2")


@dataclass
class TrainingConfig:
    batch_size: int = 512
    max_iterations: int = 2000
    val_every: int = 20
    probe_every: int = 100
    probe_paths: int = 64
    val_target: float | None = None

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if self.val_every < 1:
            raise ValueError("val_every must be at least 1")
        if self.probe_every < 0:
            raise ValueError("probe_every must be non-negative")
        if self.probe_paths < 2:
            raise ValueError("probe_paths must be at least 2")


@dataclass
class ExperimentConfig:
    market: mk.HestonParams
    dt: float
    substeps: int
    grid: ct.GridSpec
    cliquet: ct.CliquetSpec
    costs: ct.CostSpec
    risk_aversion: float
    policy: pol.PolicyConfig
    optimizer_name: str
    kfac: op.KfacConfig
    adam: op.AdamConfig
    data: DataConfig
    training: TrainingConfig
    seed: int

    def identity_hash(self) -> int:
        """Hash of every field but the optimizer's: the choice and settings
        are excluded so paired runs share checkpoints, and the stopping
        rules, the iteration budget and the validation target, so a run can
        be resumed to a longer budget or with another target."""
        d = asdict(self)
        for key in ("optimizer_name", "kfac", "adam"):
            d.pop(key)
        for key in ("max_iterations", "val_target"):
            d["training"].pop(key)
        return ckpt.config_hash(d)


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing '{key}' in {where}")
    return mapping[key]


def _mapping(v, where: str) -> dict:
    if not isinstance(v, dict):
        raise ConfigError(f"{where} must be a mapping")
    return v


def _known(mapping: dict, keys: list[str], where: str) -> dict:
    """``mapping`` itself, once it is a mapping and each of its keys is one
    of ``keys``: a misspelled key would otherwise fall back to its default."""
    unknown = [key for key in _mapping(mapping, where) if key not in keys]
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' in {where}")
    return mapping


def _integer(v, where: str) -> int:
    """``v`` if it is an integer and not a bool: ``int(v)`` would truncate."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ConfigError(f"{where} must be an integer, got {v!r}")
    return int(v)


def _real(v, where: str) -> float:
    """``float(v)`` of anything but a bool: ``float(True)`` is 1.0."""
    if isinstance(v, bool):
        raise ConfigError(f"{where} must be a number, got {v!r}")
    return float(v)


def _section(cls, raw: dict, where: str, **fixed):
    """``cls(**raw, **fixed)``, where the keys of ``raw`` are field names of
    the dataclass ``cls`` other than the ``fixed`` ones, under one type
    rule: a float field takes ``float(v)`` of anything but a bool, an int
    field needs an integer, a ``tuple[int, ...]`` field a list of them and a
    bool field a bool, so that no value is truncated or reaches the training
    loop as a string. Only the keys given are passed, so each default lives
    in ``cls``."""
    _known(raw, [f.name for f in fields(cls) if f.name not in fixed], where)
    kinds = typing.get_type_hints(cls)
    values = dict(fixed)
    for key, v in raw.items():
        kind = kinds[key]
        if kind is bool and not isinstance(v, bool):
            raise ConfigError(f"{where}.{key} must be true or false, got {v!r}")
        if kind is int:
            v = _integer(v, f"{where}.{key}")
        if kind == tuple[int, ...]:
            v = tuple(_integer(x, f"{where}.{key} entry") for x in v)
        if kind is float or (kind == float | None and v is not None):
            v = _real(v, f"{where}.{key}")
        values[key] = v
    return cls(**values)


def load_config(path, optimizer_override: str | None = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return build_config(raw, optimizer_override)


def build_config(raw: dict, optimizer_override: str | None = None) -> ExperimentConfig:
    try:
        _known(raw, "market grid cliquet costs objective policy optimizer data training seed"
               .split(), "config")
        m = dict(_mapping(_require(raw, "market", "config"), "market"))
        dt = _real(m.pop("dt", 1.0 / 250.0), "market.dt")
        substeps = _integer(m.pop("substeps", 2), "market.substeps")
        market = _section(mk.HestonParams, m, "market")
        grid_map = {_integer(k, "grid maturity"): [_real(x, "grid strike ratio") for x in v]
                    for k, v in _mapping(_require(raw, "grid", "config"), "grid").items()}
        grid = ct.GridSpec.from_ratio_map(grid_map)
        cliquet = _section(ct.CliquetSpec, _require(raw, "cliquet", "config"), "cliquet")
        costs = _section(ct.CostSpec, raw.get("costs", {}), "costs")
        ob = _known(raw.get("objective", {}), ["risk_aversion"], "objective")
        gamma = _real(ob.get("risk_aversion", 1000.0), "objective.risk_aversion")
        policy_cfg = _section(pol.PolicyConfig, raw.get("policy", {}), "policy",
                              action_dim=grid.d)
        o = _known(raw.get("optimizer", {}), ["name", "kfac", "adam"], "optimizer")
        name = optimizer_override or o.get("name", "kfac")
        if name not in ("kfac", "adam"):
            raise ConfigError(f"unknown optimizer '{name}'")
        kfac = _section(op.KfacConfig, o.get("kfac", {}), "optimizer.kfac")
        adam = _section(op.AdamConfig, o.get("adam", {}), "optimizer.adam")
        dcfg = _section(DataConfig, raw.get("data", {}), "data")
        tcfg = _section(TrainingConfig, raw.get("training", {}), "training")
        seed = _integer(_require(raw, "seed", "config"), "seed")
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid config: {exc}") from exc
    for opt in grid.entries:
        if opt.tau_steps < 1:
            raise ConfigError(f"grid option with tau={opt.tau_steps} matures in less than a step")
        if opt.tau_steps > cliquet.maturity:
            raise ConfigError(f"grid option with tau={opt.tau_steps} exceeds the horizon")
    if not (dt > 0.0 and substeps >= 1):
        raise ConfigError("market dt must be positive and substeps at least 1")
    if gamma < 0.0:
        raise ConfigError("risk_aversion must be non-negative")
    if tcfg.batch_size < 2:
        raise ConfigError("batch_size must be at least 2")
    if dcfg.n_train < tcfg.batch_size:
        raise ConfigError("n_train must be at least one batch")
    if tcfg.probe_paths > tcfg.batch_size:
        raise ConfigError(f"probe_paths ({tcfg.probe_paths}) must be at most batch_size "
                          f"({tcfg.batch_size}): the probe reads the batch's rows")
    return ExperimentConfig(
        market=market, dt=dt, substeps=substeps, grid=grid, cliquet=cliquet,
        costs=costs, risk_aversion=gamma, policy=policy_cfg, optimizer_name=name,
        kfac=kfac, adam=adam, data=dcfg, training=tcfg, seed=seed)


# ---------------------------------------------------------------------------
# datasets


@dataclass
class Dataset:
    """One role's paths and what the policy and the objective read of them.

    ``premiums`` is always None: no premium array is built, and a premium
    is recovered as payoff minus return where a check needs it."""

    role: str
    paths: mk.PathSet
    features: np.ndarray   # (n, T, 6)
    returns: np.ndarray    # (n, T, d)
    premiums: np.ndarray | None
    mask: np.ndarray       # (T, d)
    payoff: np.ndarray     # (n,)

    @property
    def n_paths(self) -> int:
        return self.paths.n_paths

    def content_hash(self) -> str:
        h = hashlib.sha256()
        for arr in (self.paths.spot, self.paths.variance, self.returns, self.payoff):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()[:16]


_ROLE_STREAMS = {"train": rs.MARKET_TRAIN, "val": rs.MARKET_VAL, "test": rs.MARKET_TEST}


def make_cached_pricer(cfg: ExperimentConfig, v_max: float) -> mk.CachedGridPricer:
    base = mk.HestonPricer(cfg.market, cfg.dt)
    contracts_list = [(o.tau_steps, o.log_moneyness) for o in cfg.grid.entries]
    return mk.CachedGridPricer(base, contracts_list, v_max=v_max)


def build_datasets(cfg: ExperimentConfig, roles=("train", "val")) -> dict[str, Dataset]:
    """Simulate every role's paths on its own stream, fit one grid pricer
    over all their variances, then derive returns, features and payoffs.
    No role keeps premiums: they are priced into the returns in place."""
    for role in roles:
        if role not in _ROLE_STREAMS:
            raise ConfigError(f"unknown dataset role '{role}'")
    sizes = {"train": cfg.data.n_train, "val": cfg.data.n_val, "test": cfg.data.n_test}
    path_sets = {role: mk.simulate(cfg.market, sizes[role], cfg.cliquet.maturity, cfg.dt,
                                   substeps=cfg.substeps, seed=cfg.seed,
                                   stream=_ROLE_STREAMS[role])
                 for role in roles}
    v_max = max(float(ps.variance.max()) for ps in path_sets.values()) * 1.02 + 1e-6
    pricer = make_cached_pricer(cfg, v_max)
    datasets = {}
    for role, paths in path_sets.items():
        returns, mask = ct.grid_returns(paths, cfg.grid, pricer)
        features = ct.feature_tensor(paths, cfg.cliquet)
        payoff = ct.cliquet_payoff_batch(paths.spot, cfg.cliquet)
        datasets[role] = Dataset(role=role, paths=paths, features=features, returns=returns,
                                 premiums=None, mask=mask, payoff=payoff)
    return datasets


# ---------------------------------------------------------------------------
# loss evaluation helpers


def dataset_objective(params: pol.PolicyParams, ds: Dataset, gamma: float,
                      costs: ct.CostSpec) -> float:
    """Validation-style loss on a full dataset: same estimator as training
    (unbiased PnL variance plus mean costs), forward-only."""
    actions = pol.rollout(params, ds.features, ds.mask, record=False).actions
    return ct.objective_value(actions, ds.returns, ds.payoff, gamma, costs)


def probe_gradient_variance(result: pol.RolloutResult, du: np.ndarray, n_probe: int) -> float:
    """Trace of the empirical covariance of single-path gradient estimates,
    over the first ``n_probe`` rows of a training batch: ``result`` is its
    recorded unroll and ``du`` its objective's seed dL/du.

    Each row's contribution to the batch gradient, times the batch size n,
    estimates a single-sample gradient at the batch's parameters. The
    probe copies the rows out of the caches ``COLUMN_GROUP`` at a time
    (:meth:`deephedge.policy.RolloutResult.paths`) and sweeps each group
    with capture, seeded with n times its rows of ``du``; a row's weight
    gradient is the sum over steps of its pre-activation gradients times
    its layer inputs, one batched matrix product per Kronecker block. The
    metric covers the Kronecker-block parameters (weight matrices). Raises
    ``DiffError`` naming a parameter whose gradient is not finite.
    """
    sq_sum, sums = 0.0, {}
    for start in range(0, n_probe, pol.COLUMN_GROUP):
        stop = min(start + pol.COLUMN_GROUP, n_probe)
        group = result.paths(range(start, stop))
        _, captured = pol.reverse_sweep(group, du.shape[0] * du[start:stop], capture=True)
        steps = list(group.step_inputs())
        for name, g in captured.items():                          # (T, out, k)
            x = np.stack([inputs[name] for inputs in steps])        # (T, in + 1, k)
            per_path = np.matmul(g.transpose(2, 1, 0), x.transpose(2, 0, 1))   # (k, out, in + 1)
            sq_sum += float((per_path ** 2).sum())
            sums[name] = sums.get(name, 0.0) + per_path.sum(axis=0)
    return (sq_sum - sum(float((t ** 2).sum()) for t in sums.values()) / n_probe) / (n_probe - 1)


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    checkpoint_path: str
    metrics_path: str
    iterations_run: int
    reached_target: bool
    target_iteration: int | None


def _train_iteration(cfg, params, optimizer, ds_train, idx, iteration, workspace, probe):
    """One step of either optimizer on the batch ``idx``, recorded into
    ``workspace``; returns the batch loss, the gradient-variance probe of
    the batch's first ``training.probe_paths`` rows when ``probe`` (NaN
    otherwise), and the step size (KFAC's eta, Adam's learning rate)."""
    gamma, costs = cfg.risk_aversion, cfg.costs
    returns, payoff = ds_train.returns[idx], ds_train.payoff[idx]
    # The forward pass raises on a non-finite action and the sweep on a
    # non-finite gradient, so the curvature update never sees a failed batch.
    res = pol.rollout(params, ds_train.features[idx], ds_train.mask, workspace=workspace)
    loss = ct.objective_value(res.actions, returns, payoff, gamma, costs)
    du = ct.objective_gradient(res.actions, returns, payoff, gamma, costs)
    grads, _ = pol.reverse_sweep(res, du)
    if isinstance(optimizer, op.KfacOptimizer):
        row = rs.stream(cfg.seed, rs.PSEUDO_PATH, iteration).integers(idx.size)
        optimizer.update_curvature(res, row,
                                   ct.inner_hessian(ds_train.returns[idx[row]], gamma, costs),
                                   rs.stream(cfg.seed, rs.PSEUDO_NOISE, iteration))
    grad_var = probe_gradient_variance(res, du, cfg.training.probe_paths) if probe else math.nan
    return loss, grad_var, optimizer.apply_step(params, grads)


def train(cfg: ExperimentConfig, outdir, resume_from=None,
          datasets: dict[str, Dataset] | None = None) -> TrainResult:
    """Run the configured optimizer for ``training.max_iterations``
    iterations, or until a validation loss reaches ``training.val_target``.

    Every iteration, for either optimizer, is one recorded batch rollout,
    its objective and one reverse sweep; KFAC then updates its curvature
    model from the batch's layer inputs and one pseudo-path drawn from the
    batch, read from the batch's caches; every ``training.probe_every``
    iterations the gradient-variance probe reads the batch's first
    ``training.probe_paths`` rows from the caches too; then the optimizer
    steps on the batch gradient. So ``grad_variance`` is the noise of the
    gradient the step takes, at the parameters and on the paths of the
    row's ``train_loss``. The run records every batch into one
    ``policy.Workspace``, so the caches (about 175 MB at a batch of 512
    and 63 steps) are allocated once per run, not per iteration, with the
    worker processes that unroll and sweep all row blocks but the first
    (one at a batch of 512 on two CPUs; ``block_workers`` in the
    manifest), which are forked once per run too: nothing is dropped for
    the probe. The run stops its workers when it ends, however it ends.

    A validation loss above ``DIVERGENCE_FACTOR`` times the
    pre-training one, or a NaN, raises ``TrainingDiverged`` at once. The
    pre-training loss is that of the seed's initial parameters, so a
    resumed run recomputes it bit for bit.

    Writes ``manifest.json`` and one ``metrics.csv`` row per iteration,
    each flushed as it is written, into ``outdir``, then ``checkpoint.dhck``
    (:mod:`deephedge.checkpoint`) with the parameters and the optimizer state.
    ``resume_from`` names a checkpoint of the same config and optimizer;
    the run continues from its iteration and appends to the metrics. The
    result holds paths and counts, not a loss: the metrics hold the
    validation losses, and ``dataset_objective`` scores the checkpoint's
    parameters.

    A run that stops on ``DiffError``, ``OptimError`` or ``TrainingDiverged``
    still writes its checkpoint, as of the last iteration that wrote its
    metrics row (the initialization if none did), then re-raises.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if datasets is None:
        datasets = build_datasets(cfg, ("train", "val"))
    ds_train, ds_val = datasets["train"], datasets["val"]
    gamma, costs = cfg.risk_aversion, cfg.costs
    tcfg = cfg.training

    params = pol.init_params(cfg.policy, rs.stream(cfg.seed, rs.POLICY_INIT))
    try:
        baseline = dataset_objective(params, ds_val, gamma, costs)
    except pol.DiffError as exc:
        # No baseline, so the first validation stops the run, if the first
        # step's forward pass has not already named the step that overflowed.
        log.warning("no pre-training validation loss: %s", exc)
        baseline = math.nan
    if cfg.optimizer_name == "kfac":
        optimizer = op.KfacOptimizer(params, cfg.kfac)
    else:
        optimizer = op.AdamOptimizer(params, cfg.adam)
    start = 0
    if resume_from is not None:
        records, cfg_hash, kind, opt_version = ckpt.load_records(resume_from)
        if cfg_hash != cfg.identity_hash():
            raise ckpt.CheckpointError("checkpoint does not match this config")
        if kind != cfg.optimizer_name:
            raise ckpt.CheckpointError(
                f"checkpoint holds {kind} state, config wants {cfg.optimizer_name}")
        if opt_version != optimizer.STATE_VERSION:
            raise ckpt.CheckpointError(f"checkpoint holds {kind} state version "
                                       f"{opt_version}, this code reads {optimizer.STATE_VERSION}")
        for name in params.values:
            params.values[name] = records[name].copy()
        optimizer.load_state_records(records)
        start = optimizer.step_count

    manifest = {
        "config": asdict(cfg),
        "identity_hash": cfg.identity_hash(),
        "datasets": {role: ds.content_hash() for role, ds in datasets.items()},
        "resumed_from_iteration": start,
        "pretrain_val_loss": baseline,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "usable_cpus": pol._usable_cpus(),
            "block_workers": pol._worker_count(-(-tcfg.batch_size // pol.RECORD_BLOCK)),
            **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        },
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))

    metrics_path = outdir / "metrics.csv"
    mode = "a" if (resume_from is not None and metrics_path.exists()) else "w"
    metrics = open(metrics_path, mode, buffering=1)   # line-buffered: flushed row by row
    if mode == "w":
        metrics.write(METRICS_HEADER + "\n")

    batches_per_epoch = ds_train.n_paths // tcfg.batch_size
    order = None
    order_epoch = -1
    reached = False
    target_iteration = None

    ckpt_path = outdir / "checkpoint.dhck"
    workspace = pol.Workspace()

    def save_checkpoint(records):
        ckpt.save_records(ckpt_path, records, cfg.identity_hash(),
                          cfg.optimizer_name, optimizer.STATE_VERSION)

    try:
        for it in range(start, tcfg.max_iterations):
            # what a failure in this iteration leaves: the state as of the
            # last iteration that wrote its metrics row
            last_good = _train_records(params, optimizer)
            t0 = time.perf_counter()
            epoch, j = divmod(it, batches_per_epoch)
            if epoch != order_epoch:
                order = rs.stream(cfg.seed, rs.BATCH_SHUFFLE, epoch).permutation(ds_train.n_paths)
                order_epoch = epoch
            idx = order[j * tcfg.batch_size:(j + 1) * tcfg.batch_size]

            probe = tcfg.probe_every > 0 and it % tcfg.probe_every == 0
            train_loss, grad_var, eta = _train_iteration(cfg, params, optimizer, ds_train,
                                                         idx, it, workspace, probe)
            rho_tr = max_scale = float("nan")
            if cfg.optimizer_name == "kfac":
                rho_tr = optimizer.rho_tr
                max_scale = optimizer.max_damped_scale()

            new_val = float("nan")
            if it % tcfg.val_every == 0:
                new_val = dataset_objective(params, ds_val, gamma, costs)
                if not new_val <= DIVERGENCE_FACTOR * baseline:
                    raise TrainingDiverged(
                        f"validation loss {new_val:.4g} at iteration {it} is not <= "
                        f"{DIVERGENCE_FACTOR} x the pre-training loss {baseline:.4g}")
                if tcfg.val_target is not None and new_val <= tcfg.val_target:
                    reached = True
                    target_iteration = it

            wall_ms = (time.perf_counter() - t0) * 1e3
            metrics.write(_metrics_row(it, train_loss, new_val, eta, rho_tr,
                                       grad_var, max_scale, wall_ms))
            if reached:
                break
    except (pol.DiffError, op.OptimError, TrainingDiverged):
        save_checkpoint(last_good)
        raise
    finally:
        metrics.close()
        workspace.release()

    iterations_run = (target_iteration + 1) if reached else tcfg.max_iterations
    save_checkpoint(_train_records(params, optimizer))
    return TrainResult(checkpoint_path=str(ckpt_path), metrics_path=str(metrics_path),
                       iterations_run=iterations_run, reached_target=reached,
                       target_iteration=target_iteration)


def _train_records(params, optimizer) -> dict:
    """Copies of everything a resume reads: parameters and optimizer state."""
    records = {name: value.copy() for name, value in params.values.items()}
    records.update((name, value.copy()) for name, value in optimizer.state_records().items())
    return records


def _metrics_row(it, train_loss, val_loss, eta, rho_tr, grad_var, max_scale, wall_ms):
    def fmt(x):
        return "" if (isinstance(x, float) and math.isnan(x)) else repr(float(x))

    return (f"{it},{fmt(train_loss)},{fmt(val_loss)},{fmt(eta)},{fmt(rho_tr)},"
            f"{fmt(grad_var)},{fmt(max_scale)},{wall_ms:.3f}\n")


# ---------------------------------------------------------------------------
# evaluation


QUANTS = (0.05, 0.25, 0.5, 0.75, 0.95)


def evaluate(cfg: ExperimentConfig, params: pol.PolicyParams,
             ds_test: Dataset) -> dict:
    """Hedge analysis on a held-out set.

    Besides the full policy, reports the unhedged book and a delta-only
    variant that keeps the spot trades and drops every option trade, so
    the option contribution to risk reduction is isolated.
    """
    actions = pol.rollout(params, ds_test.features, ds_test.mask, record=False).actions
    c_lin = cfg.costs.linear(cfg.grid.d)
    pnl, cost = ct.hedged_pnl(actions, ds_test.returns, ds_test.payoff, c_lin)
    pnl_delta, cost_delta = ct.hedged_pnl(actions[:, :, :1], ds_test.returns[:, :, :1],
                                          ds_test.payoff, c_lin[:1])
    unhedged = -ds_test.payoff

    def stats(x, costs_vec=None):
        out = {"mean": float(x.mean()), "std": float(x.std(ddof=1)),
               "skewness": _skewness(x)}
        if costs_vec is not None:
            out["mean_cost"] = float(costs_vec.mean())
        return out

    quantiles = np.empty((len(QUANTS),) + actions.shape[1:])  # (5, T, d), step by step
    for t in range(actions.shape[1]):
        quantiles[:, t] = np.quantile(np.sort(actions[:, t].T), QUANTS, axis=1)
    report = {
        "identity_hash": cfg.identity_hash(),
        "n_paths": int(ds_test.n_paths),
        "pnl": {
            "hedged": stats(pnl, cost),
            "delta_only": stats(pnl_delta, cost_delta),
            "unhedged": stats(unhedged),
        },
        "validation_estimator_loss": float(
            cfg.risk_aversion * pnl.var(ddof=1) + cost.mean()),
        "action_quantiles": {
            "levels": list(QUANTS),
            "values": quantiles.tolist(),  # (levels, T, d)
        },
    }
    per_path = np.column_stack([pnl + ds_test.payoff, ds_test.payoff, pnl, cost,
                                pnl_delta, cost_delta])
    return {"report": report, "per_path": per_path}


def _skewness(x: np.ndarray) -> float:
    m = x.mean()
    s = x.std(ddof=1)
    if s == 0.0:
        return 0.0
    return float(((x - m) ** 3).mean() / s ** 3)


PER_PATH_HEADER = "path,gains,payoff,pnl,cost,pnl_delta_only,cost_delta_only"


def write_evaluation(outdir, result: dict) -> tuple[str, str]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = outdir / "evaluation.json"
    summary.write_text(json.dumps(result["report"], indent=2, sort_keys=True))
    dump = outdir / "evaluation_paths.csv"
    with open(dump, "w") as fh:
        fh.write(PER_PATH_HEADER + "\n")
        for i, row in enumerate(result["per_path"]):
            fh.write(str(i) + "," + ",".join(repr(float(v)) for v in row) + "\n")
    return str(summary), str(dump)


# ---------------------------------------------------------------------------
# plot-ready exports


HIST_BINS = 60


def export_pnl_histogram(per_path_csv, outdir) -> str:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    out = outdir / "pnl_histogram.csv"
    rows = Path(per_path_csv).read_text().strip().splitlines()
    header = "kind,bin_left,bin_right,count\n"
    if len(rows) <= 1:
        out.write_text(header)
        return str(out)
    data = np.array([[float(v) for v in r.split(",")[1:]] for r in rows[1:]])
    pnl, pnl_delta = data[:, 2], data[:, 4]
    unhedged = -data[:, 1]
    lo = min(pnl.min(), pnl_delta.min(), unhedged.min())
    hi = max(pnl.max(), pnl_delta.max(), unhedged.max())
    edges = np.linspace(lo, hi, HIST_BINS + 1)
    with open(out, "w") as fh:
        fh.write(header)
        for kind, series in (("hedged", pnl), ("delta_only", pnl_delta),
                             ("unhedged", unhedged)):
            counts, _ = np.histogram(series, bins=edges)
            for b in range(HIST_BINS):
                fh.write(f"{kind},{edges[b]!r},{edges[b + 1]!r},{counts[b]}\n")
    return str(out)


def export_hedge_fans(eval_summary_json, outdir) -> str:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    out = outdir / "hedge_fans.csv"
    report = json.loads(Path(eval_summary_json).read_text())
    levels = report["action_quantiles"]["levels"]
    values = np.array(report["action_quantiles"]["values"])  # (levels, T, d)
    with open(out, "w") as fh:
        fh.write("t,instrument," + ",".join(f"q{int(100 * q):02d}" for q in levels) + "\n")
        _, n_steps, d = values.shape
        for t in range(n_steps):
            for i in range(d):
                qs = ",".join(repr(float(values[k, t, i])) for k in range(len(levels)))
                fh.write(f"{t},{i},{qs}\n")
    return str(out)
