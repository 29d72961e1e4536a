"""Floating-grid instruments, cliquet payoff, and the hedging objective.

The action space at each step holds the underlying plus a grid of vanilla
options quoted by time to maturity and log-moneyness relative to the
current spot. An option is a call when its log-moneyness is positive and
a put otherwise, and it is tradable only while it matures inside the
hedging horizon. Every trade is held to maturity, so instrument returns
are terminal payoffs minus the premium paid at trade time, and are
independent of the policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridOption:
    tau_steps: int
    log_moneyness: float

    @property
    def is_call(self) -> bool:
        return self.log_moneyness > 0.0


@dataclass(frozen=True)
class GridSpec:
    """Tradable option set; action dimension is 1 (spot) + len(entries)."""

    entries: tuple[GridOption, ...]

    @classmethod
    def from_ratio_map(cls, ratio_map: dict[int, list[float]]) -> "GridSpec":
        entries = []
        for tau_steps in sorted(ratio_map):
            for ratio in ratio_map[tau_steps]:
                if not ratio > 0.0:
                    raise ValueError(f"strike ratio {ratio} at maturity {tau_steps} "
                                     "must be positive")
                entries.append(GridOption(int(tau_steps), float(np.log(ratio))))
        return cls(entries=tuple(entries))

    @property
    def d(self) -> int:
        return 1 + len(self.entries)


def full_grid() -> GridSpec:
    """The 19-option grid used at full scale."""
    spec = GridSpec.from_ratio_map({
        10: [0.99, 1.0, 1.01],
        20: [0.97, 0.99, 1.0, 1.01, 1.03],
        40: [0.95, 1.0, 1.05],
        80: [0.91, 1.0, 1.09],
        120: [0.85, 0.95, 1.0, 1.05, 1.15],
    })
    assert len(spec.entries) == 19
    return spec


def desk_grid() -> GridSpec:
    """Short-maturity slice of the full grid for desk-scale experiments."""
    return GridSpec.from_ratio_map({
        10: [0.99, 1.0, 1.01],
        20: [0.97, 0.99, 1.0, 1.01, 1.03],
    })


@dataclass(frozen=True)
class CliquetSpec:
    """Locally-capped, globally-floored cliquet: sum of per-period returns
    capped at ``cap``, floored at zero at maturity."""

    cap: float
    resets: tuple[int, ...]

    def __post_init__(self):
        r = self.resets
        if len(r) == 0 or r[0] <= 0 or any(b <= a for a, b in zip(r, r[1:])):
            raise ValueError(f"reset dates must be strictly increasing and positive: {r}")

    @property
    def maturity(self) -> int:
        return self.resets[-1]


@dataclass(frozen=True)
class CostSpec:
    """Proportional trading costs; the quadratic surrogate costs feed the
    curvature model, not the traded objective."""

    spot_cost: float = 1e-4
    option_cost: float = 1e-2
    l2_multiplier: float = 8.0

    def __post_init__(self):
        if not all(c >= 0.0 for c in (self.spot_cost, self.option_cost, self.l2_multiplier)):
            raise ValueError(f"trading costs must be non-negative: {self}")

    def linear(self, d: int) -> np.ndarray:
        c = np.full(d, self.option_cost)
        c[0] = self.spot_cost
        return c

    def quadratic(self, d: int) -> np.ndarray:
        return self.l2_multiplier * self.linear(d)


def availability_mask(grid: GridSpec, n_steps: int) -> np.ndarray:
    """(T, d) 0/1 mask; options maturing beyond the horizon are struck out."""
    mask = np.ones((n_steps, grid.d))
    for i, opt in enumerate(grid.entries):
        cutoff = n_steps - opt.tau_steps  # tradable while tau <= T - t
        mask[cutoff + 1:, i + 1] = 0.0
    return mask


def grid_returns(paths, grid: GridSpec, pricer) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized instrument returns over a PathSet.

    ``pricer`` is the grid's :class:`~deephedge.market.CachedGridPricer`.
    One all-contract call prices every grid option at every live step
    from one shared Chebyshev basis per variance, writing the unit-spot
    prices straight into the returns array: the basis is built once, not
    once per contract, and no premium array or (n, T, C) temporary sits
    beside the returns. Each live entry then becomes payoff minus premium
    in place, the premium being the unit-spot price times the current
    spot (the Heston price is homogeneous of degree one in spot and
    strike), contract by contract over slabs of paths, and entries past a
    contract's last tradable step are reset to exactly zero. Returns
    (returns, mask) of shapes (n, T, d) and (T, d).
    """
    spot, variance = paths.spot, paths.variance
    n, n_steps = spot.shape[0], spot.shape[1] - 1
    mask = availability_mask(grid, n_steps)
    returns = np.zeros((n, n_steps, grid.d))
    returns[:, :, 0] = spot[:, [n_steps]] - spot[:, :n_steps]
    live_steps = mask[:, 1:].sum(axis=0).astype(int)
    max_live = int(live_steps.max(initial=0))
    pricer.unit_prices(variance[:, :max_live],
                       [(o.tau_steps, o.log_moneyness, o.is_call) for o in grid.entries],
                       out=returns[:, :max_live, 1:])
    # One contract fills a strided column, touching a cache line per entry.
    # Slabs of paths of about 1 MB of returns keep those lines cached from
    # one contract to the next.
    slab = max(1, (1 << 20) // (8 * n_steps * grid.d))
    for r0 in range(0, n, slab):
        rows = slice(r0, r0 + slab)
        for i, opt in enumerate(grid.entries):
            live = int(live_steps[i])
            x_t = spot[rows, :live]
            prem = returns[rows, :live, i + 1]
            prem *= x_t
            returns[rows, live:max_live, i + 1] = 0.0
            strike = x_t * np.exp(opt.log_moneyness)
            x_at_maturity = spot[rows, opt.tau_steps:opt.tau_steps + live]
            if opt.is_call:
                payoff = np.maximum(x_at_maturity - strike, 0.0)
            else:
                payoff = np.maximum(strike - x_at_maturity, 0.0)
            np.subtract(payoff, prem, out=prem)
    return returns, mask


def cliquet_payoff_batch(spot: np.ndarray, spec: CliquetSpec) -> np.ndarray:
    """Payoffs over a batch; spot has shape (n, T + 1)."""
    idx = (0,) + spec.resets
    period = spot[:, idx[1:]] / spot[:, idx[:-1]] - 1.0
    capped = np.minimum(period, spec.cap)
    return np.maximum(capped.sum(axis=1), 0.0)


def _reset_schedule(spec: CliquetSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per step t < T: the number of completed periods, the latest reset on
    or before t (0 in the first period) and the next reset after t."""
    bounds = np.array((0,) + spec.resets)
    completed = np.searchsorted(spec.resets, np.arange(spec.maturity), side="right")
    return completed, bounds[completed], bounds[completed + 1]


def running_cliquet_batch(spot: np.ndarray, spec: CliquetSpec) -> np.ndarray:
    """Running cliquet value for every step t in 0..T-1; shape (n, T)."""
    idx = (0,) + spec.resets
    capped = np.minimum(spot[:, idx[1:]] / spot[:, idx[:-1]] - 1.0, spec.cap)
    completed = np.concatenate([np.zeros((spot.shape[0], 1)), np.cumsum(capped, axis=1)],
                               axis=1)
    j, last_reset, _ = _reset_schedule(spec)
    stub = np.minimum(spot[:, :spec.maturity] / spot[:, last_reset] - 1.0, spec.cap)
    return np.maximum(completed[:, j] + stub, 0.0)


N_FEATURES = 6


def feature_tensor(paths, spec: CliquetSpec) -> np.ndarray:
    """Policy inputs per step: two time encodings (global progress and the
    phase within the current cliquet period), spot, spot at the latest
    reset, the variance state, and the running cliquet value. Shape
    (n, T, 6)."""
    spot, variance = paths.spot, paths.variance
    n, n_steps = spot.shape[0], spec.maturity
    if spot.shape[1] - 1 != n_steps:
        raise ValueError("path horizon does not match the cliquet maturity")
    t = np.arange(n_steps)
    _, last_reset, next_reset = _reset_schedule(spec)
    feats = np.empty((n, n_steps, N_FEATURES))
    feats[:, :, 0] = t / n_steps
    feats[:, :, 1] = (t - last_reset) / (next_reset - last_reset)
    feats[:, :, 2] = spot[:, :n_steps]
    feats[:, :, 3] = spot[:, last_reset]
    feats[:, :, 4] = variance[:, :n_steps]
    feats[:, :, 5] = running_cliquet_batch(spot, spec)
    return feats


COST_SLAB = 256  # paths per slab of hedged_pnl's |actions|, never taken at full size


def hedged_pnl(actions: np.ndarray, returns: np.ndarray, payoff: np.ndarray,
               costs_linear: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Terminal PnL (gains minus payoff) and accumulated costs per path."""
    gains = np.einsum("ntd,ntd->n", actions, returns)
    cost = np.empty(len(actions))
    for r0 in range(0, len(actions), COST_SLAB):
        slab = np.abs(actions[r0:r0 + COST_SLAB])
        cost[r0:r0 + COST_SLAB] = np.einsum("ntd,d->n", slab, costs_linear)
    return gains - payoff, cost


def objective_value(actions: np.ndarray, returns: np.ndarray, payoff: np.ndarray,
                    gamma: float, costs: CostSpec) -> float:
    """Risk-adjusted loss: gamma * Var(PnL) + mean costs (pure numpy)."""
    n = actions.shape[0]
    if n < 2:
        raise ValueError("objective needs a batch of at least 2 paths")
    pnl, cost = hedged_pnl(actions, returns, payoff, costs.linear(actions.shape[2]))
    return float(gamma * pnl.var(ddof=1) + cost.mean())


def objective_gradient(actions: np.ndarray, returns: np.ndarray, payoff: np.ndarray,
                       gamma: float, costs: CostSpec) -> np.ndarray:
    """dL/du of :func:`objective_value`, in closed form; shape (n, T, d).

    The variance term gives 2 gamma (pnl_i - mean pnl) / (n - 1) times the
    path's returns, the cost term sign(u) c / n.
    """
    n, _, d = actions.shape
    if n < 2:
        raise ValueError("objective needs a batch of at least 2 paths")
    c_lin = costs.linear(d)
    pnl, _ = hedged_pnl(actions, returns, payoff, c_lin)
    centered = pnl - pnl.mean()
    du = returns * (2.0 * gamma / (n - 1) * centered)[:, None, None]
    du += np.sign(actions) * (c_lin / n)
    return du


def batch_objective(action_nodes, returns: np.ndarray, payoff: np.ndarray,
                    gamma: float, costs: CostSpec):
    """The same loss built from tape primitives, differentiable end to end:
    the reference :func:`objective_gradient` is checked against.

    ``action_nodes`` is the per-step list of (batch, d) nodes of a policy
    unroll on the tape; returns and payoff are constants of the episode.
    """
    from . import diffcore as dc   # here, so that training never loads the tape

    tape = action_nodes[0].tape
    n, d = action_nodes[0].value.shape
    if n < 2:
        raise dc.DiffError("objective needs a batch of at least 2 paths")
    agg = dc.hedge_accumulate(action_nodes, returns, costs.linear(d))
    gains = dc.slice_cols(agg, 0, 1)
    cost = dc.slice_cols(agg, 1, 2)
    pnl = dc.sub(gains, tape.constant(payoff.reshape(n, 1)))
    return dc.add(dc.scale(dc.variance(pnl), gamma), dc.mean(cost))


@dataclass
class InnerHessian:
    """Curvature of the pathwise surrogate loss in action space.

    H = 2 gamma * r r^T + diag(2 c_tilde), never materialized densely:
    the rank-1 factor is the concatenated masked return vector of one
    path, the diagonal repeats the quadratic costs at every step.
    """

    gamma: float
    r_vec: np.ndarray   # (T * d,) concatenated returns, masked entries zero
    diag: np.ndarray    # (T * d,) = 2 * c_tilde tiled over steps


def inner_hessian(path_returns: np.ndarray, gamma: float, costs: CostSpec) -> InnerHessian:
    """Build H for one path; ``path_returns`` is the (T, d) masked matrix."""
    n_steps, d = path_returns.shape
    diag = np.tile(2.0 * costs.quadratic(d), n_steps)
    return InnerHessian(gamma=gamma, r_vec=path_returns.reshape(-1).copy(), diag=diag)


def sample_pseudo_target(h: InnerHessian, rng: np.random.Generator) -> np.ndarray:
    """Draw s with E[s s^T] = H via the rank-1 plus diagonal decomposition.

    Equal in distribution to multiplying a standard normal by a Cholesky
    factor of H, at O(Td) cost instead of O((Td)^3).
    """
    z0 = rng.standard_normal()
    z = rng.standard_normal(h.r_vec.size)
    return np.sqrt(2.0 * h.gamma) * h.r_vec * z0 + np.sqrt(h.diag) * z
