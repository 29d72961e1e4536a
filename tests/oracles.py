"""Independent numerical oracles shared by the test suite.

Everything here is deliberately dumb and slow: central finite
differences, brute-force payoff recomputation, dense matrix algebra.
None of it touches the reverse-mode machinery it is used to check.
"""

from __future__ import annotations

import numpy as np

from deephedge.contracts import GridSpec, availability_mask


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
                prem = pricer.call_price(x_t, variance[t], opt.tau_steps, strike)
                payoff = max(spot[t + opt.tau_steps] - strike, 0.0)
            else:
                prem = pricer.put_price(x_t, variance[t], opt.tau_steps, strike)
                payoff = max(strike - spot[t + opt.tau_steps], 0.0)
            premiums[t, i + 1] = prem
            returns[t, i + 1] = payoff - prem
    return returns, premiums, mask
