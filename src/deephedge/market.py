"""Heston model simulation and semi-analytic vanilla option pricing.

Simulation uses a full-truncation log-Euler scheme with configurable
substeps per trading day: the variance state may dip below zero between
substeps, but the negative part is clamped inside every drift and
diffusion coefficient, and stored paths are clamped to be non-negative.
The log-spot update is exactly martingale-preserving step by step.

Pricing evaluates the single-integral characteristic-function formula

    C = x - sqrt(x K) / pi * int_0^inf Re[e^{i u X} phi(u - i/2)] / (u^2 + 1/4) du

with X = ln(x / K), via fixed Gauss-Laguerre quadrature and the
numerically stable branch of the Heston characteristic function. A
second rule with different nodes provides the quadrature error estimate.
Rates are zero throughout; puts come from put-call parity.

Path sets live in memory only; the package defines no file format for
them. The Monte Carlo pricing oracle and the per-point (spot, strike)
prices that check this module live in the test suite, ``tests/oracles.py``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_laguerre, roots_legendre

from . import rngstreams

log = logging.getLogger(__name__)


class MarketError(RuntimeError):
    """Numerical failure in simulation or pricing."""


@dataclass(frozen=True)
class HestonParams:
    """Model parameters; mean-reversion speed is per year."""

    x0: float = 1.0
    v0: float = 0.0625
    kappa: float = 8.0
    theta: float = 0.0625
    xi: float = 1.0
    rho: float = -0.7

    def __post_init__(self):
        if not (self.x0 > 0 and self.v0 >= 0 and self.kappa > 0
                and self.theta > 0 and self.xi > 0 and abs(self.rho) <= 1):
            raise ValueError(f"invalid Heston parameters: {self}")


@dataclass
class PathSet:
    """Batch of simulated trajectories on the trading-day grid.

    ``spot`` and ``variance`` have shape (n_paths, n_steps + 1);
    column 0 holds the initial state.
    """

    spot: np.ndarray
    variance: np.ndarray
    substeps: int
    clamp_fraction: float = 0.0

    @property
    def n_paths(self) -> int:
        return self.spot.shape[0]

    @property
    def n_steps(self) -> int:
        return self.spot.shape[1] - 1


def _advance_substep(ln_x, v, params: HestonParams, delta: float, z: np.ndarray):
    """One full-truncation Euler substep; returns updated state and clamp count."""
    vp = np.maximum(v, 0.0)
    sq = np.sqrt(vp * delta)
    zv = z[:, 0]
    zx = params.rho * zv + np.sqrt(1.0 - params.rho ** 2) * z[:, 1]
    ln_x = ln_x - 0.5 * vp * delta + sq * zx
    v = v + params.kappa * (params.theta - vp) * delta + params.xi * sq * zv
    return ln_x, v, int((v < 0.0).sum())


def simulate(params: HestonParams, n_paths: int, n_steps: int, dt: float,
             substeps: int = 2, seed: int = 0, stream: int = 0) -> PathSet:
    """Simulate (spot, variance) on the trading-day grid.

    Substeps refine the Euler grid between stored points. Randomness is
    counter-based per substep, so results are bit-identical for a fixed
    (seed, stream, n_paths, n_steps, substeps) regardless of how work is
    partitioned across workers.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    delta = dt / substeps
    spot = np.empty((n_paths, n_steps + 1))
    variance = np.empty((n_paths, n_steps + 1))
    spot[:, 0] = params.x0
    variance[:, 0] = params.v0

    ln_x = np.full(n_paths, np.log(params.x0))
    v = np.full(n_paths, params.v0)
    clamped = 0
    for t in range(n_steps):
        for s in range(substeps):
            z = rngstreams.substep_normals(seed, stream, t * substeps + s, n_paths)
            ln_x, v, c = _advance_substep(ln_x, v, params, delta, z)
            clamped += c
            bad = ~(np.isfinite(ln_x) & np.isfinite(v))
            if bad.any():
                p = int(np.argmax(bad))
                raise MarketError(f"non-finite state at path {p}, step {t}, substep {s}")
        spot[:, t + 1] = np.exp(ln_x)
        variance[:, t + 1] = np.maximum(v, 0.0)

    frac = clamped / float(n_paths * n_steps * substeps)
    if frac > 0:
        log.info("variance clamped on %.4f%% of substeps", 100.0 * frac)
    return PathSet(spot=spot, variance=variance, substeps=substeps, clamp_fraction=frac)


# ---------------------------------------------------------------------------
# characteristic-function pricing


@lru_cache(maxsize=32)
def _split_rule(n_leg: int, n_lag: int, lam: float):
    """Nodes and weights for int_0^inf: Gauss-Legendre on [0, 1] where the
    1/(u^2 + 1/4) kernel peaks, plus a scaled Gauss-Laguerre tail on [1, inf)."""
    xl, wl = roots_legendre(n_leg)
    u_head = 0.5 * (xl + 1.0)
    w_head = 0.5 * wl
    s, w = roots_laguerre(n_lag)
    u_tail = 1.0 + lam * s
    w_tail = lam * w * np.exp(s)
    return np.concatenate([u_head, u_tail]), np.concatenate([w_head, w_tail])


def _cf_exponents(u: np.ndarray, tau: float, p: HestonParams):
    """C(u), D(u) with the stable branch: phi(u) = exp(C + D * v0).

    ``u`` may be complex; here it is evaluated on the shifted contour
    u - i/2 required by the pricing integral.
    """
    z = u - 0.5j
    beta = p.kappa - p.rho * p.xi * 1j * z
    d = np.sqrt(beta * beta + p.xi ** 2 * (1j * z + z * z))
    g = (beta - d) / (beta + d)
    edt = np.exp(-d * tau)
    log_term = np.log((1.0 - g * edt) / (1.0 - g))
    c = (p.kappa * p.theta / p.xi ** 2) * ((beta - d) * tau - 2.0 * log_term)
    dd = (beta - d) / p.xi ** 2 * (1.0 - edt) / (1.0 - g * edt)
    return c, dd


def _unit_call_quadrature(v: np.ndarray, tau: float, k: float, p: HestonParams,
                          n_leg: int, n_lag: int, lam: float) -> np.ndarray:
    """Unit-spot call price(s) for log-moneyness k = ln(K/x); v may be a vector.

    ``lam`` stretches the Laguerre tail (u = 1 + lam * s), trading node
    density for reach: small total variance of the log-return needs reach,
    extreme moneyness at short maturity needs density.
    """
    u, w = _split_rule(n_leg, n_lag, lam)
    c, dd = _cf_exponents(u, tau, p)
    # X = ln(x/K) = -k on the unit-spot contract
    phase = np.exp(-1j * u * k)
    kernel = w * phase / (u * u + 0.25)
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    integrand = np.exp(c[None, :] + dd[None, :] * v[:, None])
    integral = (integrand * kernel[None, :]).real.sum(axis=1)
    return 1.0 - np.exp(0.5 * k) / np.pi * integral


class HestonPricer:
    """Vanilla pricer consistent with the simulated Heston measure.

    Prices are homogeneous of degree one in (spot, strike), so internal
    evaluation happens on the unit-spot contract. The error estimate
    compares the primary rule against a finer one (96 Legendre and 160
    Laguerre nodes at 0.8 times the tail scale); disagreement above
    ``tol`` times spot is a hard error.
    """

    # Tail-scale ladder: the default handles every state on the hedging
    # grid; smaller scales add density for short-maturity extreme
    # moneyness, larger ones add reach for near-zero total variance.
    SCALES = (2.0, 1.0, 0.5, 4.0, 8.0, 16.0)
    N_LEG, N_LAG = 64, 128   # the primary rule's head and tail nodes
    tol = 1e-8               # certified error per unit spot, read by callers

    def __init__(self, params: HestonParams, dt: float):
        self.params = params
        self.dt = dt

    def unit_call(self, v, tau_steps: int, k: float) -> np.ndarray:
        """Call price on unit spot with strike exp(k); vectorized over v."""
        if tau_steps < 1:
            raise ValueError("tau_steps must be >= 1")
        v = np.atleast_1d(np.asarray(v, dtype=np.float64))
        if (v < 0).any():
            raise ValueError("variance must be non-negative")
        if np.exp(k) <= self.tol:
            # Vanishing strike: 0 <= put <= strike, so x - K is within tol * x.
            return np.full(v.shape, 1.0 - np.exp(k))
        tau = tau_steps * self.dt

        # A second rule with different nodes on every panel certifies the
        # primary one; disagreement walks the deterministic scale ladder.
        price = np.empty_like(v)
        pending = np.arange(v.size)
        for lam in self.SCALES:
            a = _unit_call_quadrature(v[pending], tau, k, self.params,
                                      self.N_LEG, self.N_LAG, lam)
            b = _unit_call_quadrature(v[pending], tau, k, self.params,
                                      (3 * self.N_LEG) // 2, (5 * self.N_LAG) // 4, 0.8 * lam)
            ok = np.abs(a - b) <= self.tol
            price[pending[ok]] = a[ok]
            pending = pending[~ok]
            if pending.size == 0:
                break
        if pending.size:
            raise MarketError(
                f"pricing quadrature did not converge to {self.tol:.1e} "
                f"(tau_steps={tau_steps}, k={k}, v={v[pending[0]]:.4g})")
        lo = max(1.0 - np.exp(k), 0.0)
        if (price < lo - 10 * self.tol).any() or (price > 1.0 + 10 * self.tol).any():
            raise MarketError(f"price outside no-arbitrage bounds (tau_steps={tau_steps}, k={k})")
        return np.clip(price, lo, 1.0)


class CachedGridPricer:
    """Chebyshev-accelerated pricer for a fixed set of (tau, k) contracts.

    The unit-spot price is an analytic function of the variance state, so
    a Chebyshev fit on [0, v_max] reproduces the quadrature price to
    near machine precision at a fraction of the cost. The fitted
    coefficients form one (C, K+1) matrix in contract order.

    Every evaluation goes through :meth:`unit_prices`, which prices any
    subset of the contracts from one shared basis: per chunk of ``CHUNK``
    variances it fills the (K+1, chunk) matrix of T_0..T_K with the
    three-term recurrence, and a single GEMM against the coefficient rows
    gives every contract's price. The basis depends only on the variance,
    so this replaces C separate Clenshaw passes of degree K with one
    recurrence and one matrix product, and keeps the working set at a few
    MB whatever the number of variances. ``unit_call`` and ``unit_price``
    are its one-contract case; ``unit_call`` matches
    :meth:`HestonPricer.unit_call`.
    """

    DEGREE = 120
    CHUNK = 4096  # variances per basis block: (K+1) x CHUNK float64, 4 MB at degree 120

    def __init__(self, pricer: HestonPricer, contracts, v_max: float):
        self.pricer = pricer
        self.v_max = float(v_max)
        self.contracts = tuple((int(tau), float(k)) for tau, k in contracts)
        self._taus = np.array([tau for tau, _ in self.contracts], dtype=np.int64)
        self._ks = np.array([k for _, k in self.contracts], dtype=np.float64)
        coef = []
        for tau_steps, k in self.contracts:
            # Interpolation at Chebyshev points is numerically stable at
            # high degree, unlike a least-squares fit.
            def g(y, _tau=tau_steps, _k=k):
                v = 0.5 * self.v_max * (y + 1.0)
                return pricer.unit_call(v, _tau, _k)
            coef.append(np.polynomial.chebyshev.chebinterpolate(g, self.DEGREE))
        self.coef = np.array(coef, dtype=np.float64).reshape(len(self.contracts),
                                                              self.DEGREE + 1)

    def _row(self, tau_steps: int, k: float) -> int:
        # A strike rebuilt as x * e^k gives back k only to within round-off.
        hit = np.flatnonzero((self._taus == tau_steps) & (np.abs(self._ks - k) <= 1e-12))
        if hit.size == 0:
            raise KeyError(f"contract {(tau_steps, k)} not in cache")
        return int(hit[0])

    def unit_prices(self, v, contracts, out: np.ndarray | None = None) -> np.ndarray:
        """Unit-spot prices of several cached contracts at every variance.

        ``contracts`` is a sequence of (tau_steps, k, is_call); puts come
        from parity, c - 1 + e^k. ``v`` is a scalar, vector or matrix, and
        the result has shape ``v.shape + (len(contracts),)``. It is written
        into ``out`` when given, which may be a strided view. A matrix is
        processed in blocks of whole rows, so a block holds at most
        max(CHUNK, row length) variances.
        """
        rows = [self._row(tau, k) for tau, k, _ in contracts]
        coef = self.coef[rows]                           # (c, K+1)
        put = np.array([not is_call for _, _, is_call in contracts], dtype=bool)
        minus_one = np.where(put, 1.0, 0.0)[:, None]
        plus_ek = np.where(put, np.exp(self._ks[rows]), 0.0)[:, None]

        v = np.asarray(v, dtype=np.float64)
        if v.ndim > 2:
            raise ValueError("variance must be a scalar, vector or matrix")
        if out is None:
            out = np.empty(v.shape + (len(rows),))
        v2 = v if v.ndim == 2 else v.reshape(-1, 1)
        out2 = out if v.ndim == 2 else out.reshape(-1, 1, len(rows))
        n_rows, width = v2.shape
        if v2.size == 0 or not rows:
            return out
        block_rows = max(1, self.CHUNK // width)
        basis = np.empty((coef.shape[1], block_rows * width))
        prices = np.empty((len(rows), block_rows * width))
        for r0 in range(0, n_rows, block_rows):
            r1 = min(r0 + block_rows, n_rows)
            m = (r1 - r0) * width
            block = v2[r0:r1].reshape(-1)
            # min/max propagate NaN, so a NaN variance fails the check too
            if not (block.min() >= -1e-15 and block.max() <= self.v_max):
                raise MarketError(f"variance outside cached range [0, {self.v_max}]")
            b = basis[:, :m]                             # T_j(y) in row j
            b[0] = 1.0
            np.multiply(block, 2.0 / self.v_max, out=b[1])
            b[1] -= 1.0
            two_y = 2.0 * b[1]
            for j in range(2, b.shape[0]):
                np.multiply(two_y, b[j - 1], out=b[j])
                b[j] -= b[j - 2]
            # BLAS runs (c, K+1) @ (K+1, m) faster than (m, K+1) @ (K+1, c)
            p = prices[:, :m]
            np.matmul(coef, b, out=p)
            p -= minus_one
            p += plus_ek
            out2[r0:r1] = p.reshape(-1, r1 - r0, width).transpose(1, 2, 0)
        return out

    def unit_call(self, v, tau_steps: int, k: float) -> np.ndarray:
        return self.unit_price(v, tau_steps, k, True)

    def unit_price(self, v, tau_steps: int, k: float, is_call: bool) -> np.ndarray:
        v = np.atleast_1d(np.asarray(v, dtype=np.float64))
        return self.unit_prices(v, [(tau_steps, k, is_call)])[..., 0]
