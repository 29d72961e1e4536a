"""Independent numerical oracles shared by the test suite.

Everything here is deliberately dumb and slow: central finite
differences, brute-force payoff recomputation, dense matrix algebra,
per-point option prices and a Monte Carlo pricer. None of it touches
the batched pricing or the policy's reverse sweep it is used to check.
The policy's graph on the generic tape of :mod:`deephedge.diffcore`
(:func:`tape_rollout`) is the reference the sweep's gradients and hook
captures are compared with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from deephedge import diffcore as dc
from deephedge import policy as pol
from deephedge import rngstreams
from deephedge.contracts import GridSpec, InnerHessian, availability_mask
from deephedge.market import HestonParams, _advance_substep


def central_diff_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def central_diff_gradient_map(f, params: dict[str, np.ndarray], h: float = 1e-6) -> dict[str, np.ndarray]:
    """Central differences of a scalar function of a dict of arrays."""
    out = {}
    for name, arr in params.items():
        def f_of(a, _name=name):
            trial = dict(params)
            trial[_name] = a
            return f(trial)
        out[name] = central_diff_gradient(f_of, arr.copy(), h=h)
    return out


def central_diff_jacobian(f, x: np.ndarray, m: int, h: float = 1e-6) -> np.ndarray:
    """Jacobian of a vector function R^n -> R^m by central differences."""
    x = np.asarray(x, dtype=np.float64)
    jac = np.zeros((m, x.size))
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = np.asarray(f(x), dtype=np.float64).reshape(-1)
        flat[i] = orig - h
        fm = np.asarray(f(x), dtype=np.float64).reshape(-1)
        flat[i] = orig
        jac[:, i] = (fp - fm) / (2.0 * h)
    return jac


def relative_gradient_error(approx: dict[str, np.ndarray], exact: dict[str, np.ndarray]) -> float:
    """max-norm of the difference over max-norm of the reference."""
    num = max(np.abs(approx[k] - exact[k]).max() for k in exact)
    den = max(np.abs(exact[k]).max() for k in exact)
    return num / max(den, 1e-300)


def cliquet_payoff_bruteforce(spot: np.ndarray, cap: float, resets: list[int]) -> float:
    """Literal evaluation of the capped-sum, floored-at-zero payoff."""
    total = 0.0
    prev = 0
    for r in resets:
        period_return = spot[r] / spot[prev] - 1.0
        total += min(period_return, cap)
        prev = r
    return max(total, 0.0)


def running_cliquet_bruteforce(spot: np.ndarray, cap: float, resets: list[int], t: int) -> float:
    """Payoff if the contract matured at t: completed periods plus the stub."""
    total = 0.0
    prev = 0
    for r in resets:
        if r <= t:
            total += min(spot[r] / spot[prev] - 1.0, cap)
            prev = r
    total += min(spot[t] / spot[prev] - 1.0, cap)
    return max(total, 0.0)


def inner_hessian_dense(h: InnerHessian) -> np.ndarray:
    """The action-space curvature 2 gamma r r^T + diag(h.diag), materialized."""
    return 2.0 * h.gamma * np.outer(h.r_vec, h.r_vec) + np.diag(h.diag)


def call_price(pricer, x: float, v: float, tau_steps: int, strike: float) -> float:
    """One call price at spot x from a pricer's unit-spot ``unit_call``."""
    if x <= 0 or strike <= 0:
        raise ValueError("spot and strike must be positive")
    k = np.log(strike / x)
    return float(x * pricer.unit_call(np.array([v]), tau_steps, k)[0])


def put_price(pricer, x: float, v: float, tau_steps: int, strike: float) -> float:
    # Zero rates: P = C - x + K, exact by construction.
    return call_price(pricer, x, v, tau_steps, strike) - x + strike


def instrument_returns(spot: np.ndarray, variance: np.ndarray, grid: GridSpec,
                       pricer) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cost-free terminal returns and premiums for one path.

    Column 0 is the underlying: x_T - x_t. Option column i is the payoff
    at t + tau_i minus the premium paid at t, holding to maturity; masked
    entries are zero. Returns (returns, premiums, mask), each (T, d).
    """
    n_steps = len(spot) - 1
    mask = availability_mask(grid, n_steps)
    returns = np.zeros((n_steps, grid.d))
    premiums = np.zeros((n_steps, grid.d))
    returns[:, 0] = spot[n_steps] - spot[:n_steps]
    for i, opt in enumerate(grid.entries):
        for t in range(n_steps):
            if mask[t, i + 1] == 0.0:
                continue
            x_t = spot[t]
            strike = x_t * np.exp(opt.log_moneyness)
            if opt.is_call:
                prem = call_price(pricer, x_t, variance[t], opt.tau_steps, strike)
                payoff = max(spot[t + opt.tau_steps] - strike, 0.0)
            else:
                prem = put_price(pricer, x_t, variance[t], opt.tau_steps, strike)
                payoff = max(strike - spot[t + opt.tau_steps], 0.0)
            premiums[t, i + 1] = prem
            returns[t, i + 1] = payoff - prem
    return returns, premiums, mask


def simulate_snapshots(params: HestonParams, n_paths: int, snap_steps, dt: float,
                       substeps: int, seed: int, stream: int = 0) -> dict[int, np.ndarray]:
    """Spot values at selected steps only, without storing full paths.

    Used by the Monte Carlo pricing oracle, where a million paths at a
    fine substep grid would not fit in memory as a full PathSet.
    """
    snap_steps = sorted(set(int(s) for s in snap_steps))
    horizon = snap_steps[-1]
    delta = dt / substeps
    ln_x = np.full(n_paths, np.log(params.x0))
    v = np.full(n_paths, params.v0)
    out: dict[int, np.ndarray] = {}
    for t in range(horizon):
        for s in range(substeps):
            z = rngstreams.substep_normals(seed, stream, t * substeps + s, n_paths)
            ln_x, v, _ = _advance_substep(ln_x, v, params, delta, z)
        if t + 1 in snap_steps:
            out[t + 1] = np.exp(ln_x)
    return out


def mc_option_prices(params: HestonParams, contracts, dt: float,
                     n_samples: int = 1_000_000, substeps: int = 8,
                     seed: int = 0, chunk: int = 250_000):
    """Monte Carlo payoff means and standard errors at the initial state.

    ``contracts`` is a sequence of (tau_steps, k, is_call). Payoffs for
    all contracts are evaluated on one shared set of paths simulated at
    a fine substep grid. Returns (means, standard_errors).
    """
    contracts = list(contracts)
    taus = sorted(set(c[0] for c in contracts))
    sums = np.zeros(len(contracts))
    sq_sums = np.zeros(len(contracts))
    done = 0
    chunk_id = 0
    while done < n_samples:
        n = min(chunk, n_samples - done)
        snaps = simulate_snapshots(params, n, taus, dt, substeps,
                                   seed=seed, stream=1000 + chunk_id)
        for i, (tau_steps, k, is_call) in enumerate(contracts):
            x_tau = snaps[tau_steps]
            strike = params.x0 * np.exp(k)
            payoff = np.maximum(x_tau - strike, 0.0) if is_call else np.maximum(strike - x_tau, 0.0)
            sums[i] += payoff.sum()
            sq_sums[i] += (payoff * payoff).sum()
        done += n
        chunk_id += 1
    means = sums / done
    var = np.maximum(sq_sums / done - means ** 2, 0.0)
    ses = np.sqrt(var / done)
    return means, ses


def tape_step(params_nodes: dict[str, dc.Node], config: pol.PolicyConfig,
              hc: list[dc.Node], u_prev: dc.Node, features: dc.Node, mask_row: np.ndarray,
              channels: dict[str, dc.HookChannel]) -> tuple[dc.Node, list[dc.Node]]:
    """One policy step on the tape; returns the masked action and each
    block's stacked [h | c] state. ``mask_row`` is the step's (d,) row of
    the availability mask."""
    tape, h_dim = u_prev.tape, config.hidden
    x = dc.affine(dc.concat([features, u_prev]), params_nodes["embed"],
                  channel=channels.get("embed"))
    new_hc = []
    for b in range(config.n_blocks):
        normed = dc.rms_normalize(x, params_nodes[f"block{b}.gain"])
        hc_b = dc.lstm_cell(normed, hc[b], params_nodes[f"block{b}.lstm"],
                            channel=channels.get(f"block{b}.lstm"))
        x = dc.add(x, dc.slice_cols(hc_b, 0, h_dim))  # residual: input plus cell output
        new_hc.append(hc_b)
    head = dc.affine(x, params_nodes["head"], channel=channels.get("head"))
    mask = tape.constant(np.tile(mask_row, (head.value.shape[0], 1)))
    return dc.multiply(dc.symexp(head), mask), new_hc


@dataclass
class TapeRollout:
    """The policy unrolled on a tape: action nodes and, when captured, a
    hook channel per Kronecker block."""

    tape: dc.Tape
    action_nodes: list[dc.Node]
    channels: dict[str, dc.HookChannel]

    @property
    def actions(self) -> np.ndarray:
        return np.stack([n.value for n in self.action_nodes], axis=1)


def tape_rollout(params: pol.PolicyParams, features: np.ndarray, mask: np.ndarray,
                 capture: bool = False) -> TapeRollout:
    """Record the unroll of ``features`` (n, T, f) on a fresh tape."""
    config = params.config
    n, n_steps, _ = features.shape
    tape = dc.Tape()
    params_nodes = {name: tape.parameter(name, value) for name, value in params.values.items()}
    channels = {name: dc.HookChannel(name) for name in params.kronecker_names} if capture else {}
    hc = [tape.constant(np.zeros((n, 2 * config.hidden))) for _ in range(config.n_blocks)]
    u = tape.constant(np.zeros((n, config.action_dim)))
    action_nodes = []
    for t in range(n_steps):
        u, hc = tape_step(params_nodes, config, hc, u, tape.constant(features[:, t, :]),
                          mask[t], channels)
        action_nodes.append(u)
    return TapeRollout(tape=tape, action_nodes=action_nodes, channels=channels)


def tape_inner(action_nodes: list[dc.Node], s: np.ndarray) -> dc.Node:
    """<s, u> on the tape for an (n, T, d) target ``s``: the gains column of
    the fused hedging aggregate with ``s`` as returns and zero costs."""
    sums = dc.hedge_accumulate(action_nodes, s, np.zeros(s.shape[2]))
    return dc.total(dc.slice_cols(sums, 0, 1))
