"""Correctness checks run outside the timed sections.

Every check returns a :class:`Check`; a failed check fails the run. A
check that does not apply (a reference recorded for another seed) still
reports itself, with the reason, so nothing is skipped silently.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from deephedge import checkpoint as ckpt
from deephedge import contracts as ct
from deephedge import harness
from deephedge import policy as pol
from deephedge import rngstreams as rs

REFERENCE_RTOL = 1e-9
FIRST_LOSS_RTOL = 1e-12
EVAL_RTOL = 1e-12
CHEB_POINTS = 16


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def read_metrics(path) -> dict[str, list[float]]:
    """metrics.csv by column name; empty cells become NaN."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {col: [float(r[col]) if r[col] != "" else math.nan for r in rows]
            for col in (rows[0].keys() if rows else ())}


def data_invariants(cfg, ds: harness.Dataset, tol: float) -> Check:
    """Spot returns, masked zeros and no-arbitrage premium bounds.

    Premiums come from the dataset when it keeps them, otherwise they are
    reconstructed as payoff minus return; either way a call must lie in
    [max(x - K, 0), x] and a put in [max(K - x, 0), K], up to ``tol``
    times spot.
    """
    spot, ret, mask = ds.paths.spot, ds.returns, ds.mask
    n_steps = spot.shape[1] - 1
    problems = []
    if not np.array_equal(ret[:, :, 0], spot[:, [n_steps]] - spot[:, :n_steps]):
        problems.append("column 0 != spot[:, T] - spot[:, :T]")
    if np.any(ret[:, mask == 0.0] != 0.0):
        problems.append("masked returns are not exactly zero")
    worst = -np.inf   # largest excess over a bound; negative is a margin
    for i, opt in enumerate(cfg.grid.entries):
        live = int(mask[:, i + 1].sum())
        x = spot[:, :live]
        strike = x * np.exp(opt.log_moneyness)
        x_mat = spot[:, opt.tau_steps:opt.tau_steps + live]
        if opt.is_call:
            payoff, lo, hi = np.maximum(x_mat - strike, 0.0), np.maximum(x - strike, 0.0), x
        else:
            payoff, lo, hi = np.maximum(strike - x_mat, 0.0), np.maximum(strike - x, 0.0), strike
        prem = (ds.premiums[:, :live, i + 1] if ds.premiums is not None
                else payoff - ret[:, :live, i + 1])
        excess = np.maximum(lo - prem, prem - hi) / x
        worst = max(worst, float(excess.max(initial=-np.inf)))
    if worst > tol:
        problems.append(f"premium outside no-arbitrage bounds by {worst:.3e} x spot")
    detail = "; ".join(problems) or f"largest excess over a bound {worst:.2e} x spot"
    return Check(f"data_invariants[{ds.role}]", not problems, detail)


def cheb_cache(cfg, datasets: dict, seed: int) -> tuple[Check, float]:
    """Refit the grid pricer exactly as ``build_datasets`` does and compare
    its Chebyshev values with the quadrature pricer at sampled variances."""
    v_max = max(float(d.paths.variance.max()) for d in datasets.values()) * 1.02 + 1e-6
    cached = harness.make_cached_pricer(cfg, v_max)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for opt in cfg.grid.entries:
        v = np.concatenate([[0.0, v_max], rng.uniform(0.0, v_max, CHEB_POINTS - 2)])
        a = cached.unit_call(v, opt.tau_steps, opt.log_moneyness)
        b = cached.pricer.unit_call(v, opt.tau_steps, opt.log_moneyness)
        worst = max(worst, float(np.abs(a - b).max()))
    tol = cached.pricer.tol
    return (Check("cheb_cache_vs_quadrature", worst <= tol,
                  f"max residual {worst:.3e} (tol {tol:.0e}) over "
                  f"{CHEB_POINTS} points x {len(cfg.grid.entries)} contracts"), worst)


def first_loss(cfg, ds_train, metrics: dict) -> tuple[Check, float]:
    """Iteration-0 train loss against a forward-only recomputation on the
    same batch and initialization."""
    order = rs.stream(cfg.seed, rs.BATCH_SHUFFLE, 0).permutation(ds_train.n_paths)
    idx = order[:cfg.training.batch_size]
    params = pol.init_params(cfg.policy, rs.stream(cfg.seed, rs.POLICY_INIT))
    res = pol.rollout(params, ds_train.features[idx], ds_train.mask, record=False)
    expected = ct.objective_value(res.actions, ds_train.returns[idx],
                                  ds_train.payoff[idx], cfg.risk_aversion, cfg.costs)
    got = metrics["train_loss"][0]
    d = rel_diff(got, expected)
    return (Check("first_loss", d <= FIRST_LOSS_RTOL,
                  f"metrics.csv {got!r} vs recomputed {expected!r} (rel {d:.1e})"), got)


def training(metrics: dict, pretrain_val: float) -> tuple[Check, bool]:
    """All recorded losses finite. Whether the last validation loss is below
    the pre-training one is returned for the record, not checked."""
    vals = [x for x in metrics["val_loss"] if not math.isnan(x)]
    losses = metrics["train_loss"] + vals
    bad = [x for x in losses if not math.isfinite(x)]
    decreased = bool(vals) and vals[-1] < pretrain_val
    return (Check("training_losses_finite", not bad and bool(vals),
                  f"{len(losses)} losses, {len(bad)} non-finite, "
                  f"{len(vals)} validations"), decreased)


def evaluation(cfg, params, ds_test, report: dict) -> Check:
    direct = harness.dataset_objective(params, ds_test, cfg.risk_aversion, cfg.costs)
    got = report["validation_estimator_loss"]
    d = rel_diff(got, direct)
    return Check("evaluation_loss", d <= EVAL_RTOL,
                 f"evaluate {got!r} vs dataset_objective {direct!r} (rel {d:.1e})")


def checkpoint(cfg, path, params) -> Check:
    """The checkpoint reloads, belongs to this config and optimizer, and holds
    every parameter with its shape and finite values."""
    records, cfg_hash, kind, _ = ckpt.load_records(path)
    bad = [name for name, v in params.values.items()
           if name not in records or records[name].shape != v.shape
           or not np.isfinite(records[name]).all()]
    ok = not bad and cfg_hash == cfg.identity_hash() and kind == cfg.optimizer_name
    return Check("checkpoint", ok, f"{len(records)} records, kind {kind!r}, "
                 f"hash {'matches' if cfg_hash == cfg.identity_hash() else 'differs'}, "
                 f"{len(bad)} bad parameters")


def eval_outputs(cfg, report: dict, per_path, hist, fans) -> Check:
    """The written per-path table, histogram and fan chart cover every path,
    kind, step and instrument."""
    n = report["n_paths"]
    problems = []
    with open(per_path) as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != n:
        problems.append(f"{rows} per-path rows for {n} paths")
    with open(hist, newline="") as fh:
        counts: dict[str, int] = {}
        for r in csv.DictReader(fh):
            counts[r["kind"]] = counts.get(r["kind"], 0) + int(r["count"])
    if counts != {k: n for k in ("hedged", "delta_only", "unhedged")}:
        problems.append(f"histogram counts {counts}")
    with open(fans) as fh:
        fan_rows = sum(1 for _ in fh) - 1
    if fan_rows != cfg.cliquet.maturity * cfg.grid.d:
        problems.append(f"{fan_rows} fan rows")
    if not all(math.isfinite(report["pnl"][k]["std"]) for k in report["pnl"]):
        problems.append("non-finite PnL statistics")
    return Check("evaluation_outputs", not problems, "; ".join(problems) or
                 f"{n} paths, {fan_rows} fan rows")


def references(table: dict, key: str, seed: int, observed: dict) -> Check:
    """Seed-only values recorded from the benchmark's first commit; no
    optimizer step precedes them, so optimizer changes cannot move them."""
    if seed != table["seed"]:
        return Check("seed_references", True,
                     f"not applicable: references are recorded for seed {table['seed']}")
    ref = table["values"].get(key)
    if ref is None:
        return Check("seed_references", False, f"no reference recorded for {key}")
    bad = []
    for name, value in observed.items():
        if name not in ref:
            bad.append(f"{name}: no reference")
        elif rel_diff(value, ref[name]) > REFERENCE_RTOL:
            bad.append(f"{name}: {value!r} vs reference {ref[name]!r}")
    return Check("seed_references", not bad,
                 "; ".join(bad) or f"{len(observed)} values within {REFERENCE_RTOL:.0e}")


def identical(name: str, runs: list) -> Check:
    """Repetitions of one deterministic operation must agree bit for bit."""
    ok = all(r == runs[0] for r in runs[1:])
    return Check(name, ok, f"{len(runs)} repetitions "
                 + ("bit-identical" if ok else "differ"))
