import numpy as np
import pytest
from scipy.stats import norm

from deephedge import market
from deephedge.contracts import full_grid
from deephedge.market import CachedGridPricer, HestonParams, HestonPricer, MarketError, simulate
from oracles import call_price, mc_option_prices, put_price

DT = 1.0 / 250.0
PAPER = HestonParams()


@pytest.fixture(scope="module")
def pricer():
    return HestonPricer(PAPER, DT)


# ---------------------------------------------------------------------------
# simulation


def test_params_validation():
    with pytest.raises(ValueError):
        HestonParams(kappa=-1.0)
    with pytest.raises(ValueError):
        HestonParams(rho=-1.5)


def test_zero_vol_of_vol_keeps_variance_at_fixed_point():
    # v0 = theta is the fixed point of the deterministic variance ODE.
    params = HestonParams(xi=1e-12)
    ps = simulate(params, 50, 10, DT, substeps=2, seed=3)
    assert np.allclose(ps.variance, params.theta, atol=1e-9)


def test_variance_mean_matches_cir_formula():
    n, steps = 200_000, 125  # t = 0.5 years
    ps = simulate(PAPER, n, steps, DT, substeps=2, seed=42)
    t = steps * DT
    target = PAPER.theta + (PAPER.v0 - PAPER.theta) * np.exp(-PAPER.kappa * t)
    v = ps.variance[:, -1]
    se = v.std(ddof=1) / np.sqrt(n)
    assert abs(v.mean() - target) < 3 * se


def test_spot_is_martingale():
    n, steps = 200_000, 125
    ps = simulate(PAPER, n, steps, DT, substeps=2, seed=42)
    x = ps.spot[:, -1]
    se = x.std(ddof=1) / np.sqrt(n)
    assert abs(x.mean() - PAPER.x0) < 3 * se


def test_paths_positive_and_variance_nonnegative():
    ps = simulate(PAPER, 5000, 60, DT, substeps=2, seed=5)
    assert (ps.spot > 0).all()
    assert (ps.variance >= 0).all()
    assert np.all(ps.spot[:, 0] == PAPER.x0)
    assert np.all(ps.variance[:, 0] == PAPER.v0)


def test_simulation_deterministic_and_prefix_stable():
    a = simulate(PAPER, 1000, 20, DT, substeps=2, seed=7)
    b = simulate(PAPER, 1000, 20, DT, substeps=2, seed=7)
    assert np.array_equal(a.spot, b.spot) and np.array_equal(a.variance, b.variance)
    # growing the batch must not disturb earlier paths (counter-based RNG)
    c = simulate(PAPER, 1500, 20, DT, substeps=2, seed=7)
    assert np.array_equal(c.spot[:1000], a.spot)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_non_finite_state_names_its_path_step_and_substep(monkeypatch):
    draw = market.rngstreams.substep_normals

    def inf_on_path_3_at_step_2_substep_1(seed, stream, counter, n_paths):
        z = draw(seed, stream, counter, n_paths)
        if counter == 2 * 2 + 1:
            z[3] = np.inf
        return z

    monkeypatch.setattr(market.rngstreams, "substep_normals", inf_on_path_3_at_step_2_substep_1)
    with pytest.raises(MarketError, match="^non-finite state at path 3, step 2, substep 1$"):
        simulate(PAPER, 8, 5, DT, substeps=2, seed=7)


# ---------------------------------------------------------------------------
# pricing


def test_call_price_tends_to_spot_as_strike_vanishes(pricer):
    price = call_price(pricer, 1.0, PAPER.theta, 20, 1e-10)
    assert abs(price - 1.0) < 1e-9


def test_deep_itm_one_step_price_is_intrinsic(pricer):
    price = call_price(pricer, 1.0, PAPER.theta, 1, 0.5)
    assert abs(price - 0.5) < 1e-4


def test_put_call_parity_exact(pricer):
    for tau, strike in [(10, 1.0), (20, 0.97), (40, 1.05), (120, 0.85)]:
        c = call_price(pricer, 1.0, PAPER.v0, tau, strike)
        p = put_price(pricer, 1.0, PAPER.v0, tau, strike)
        assert abs(p - (c - 1.0 + strike)) < 1e-12


def test_atm_put_equals_call(pricer):
    c = call_price(pricer, 1.0, PAPER.v0, 20, 1.0)
    p = put_price(pricer, 1.0, PAPER.v0, 20, 1.0)
    assert p == pytest.approx(c, abs=1e-15)


def test_call_monotone_decreasing_and_convex_in_strike(pricer):
    strikes = np.linspace(0.75, 1.3, 23)
    prices = np.array([call_price(pricer, 1.0, PAPER.v0, 40, s) for s in strikes])
    assert (np.diff(prices) <= 1e-12).all()
    assert (np.diff(prices, 2) >= -1e-12).all()


def test_price_homogeneous_in_spot(pricer):
    base = call_price(pricer, 1.0, PAPER.v0, 20, 1.01)
    scaled = call_price(pricer, 1.7, PAPER.v0, 20, 1.7 * 1.01)
    assert scaled == pytest.approx(1.7 * base, rel=1e-12)


def test_black_scholes_limit():
    # xi -> 0 makes variance deterministic; with v0 = theta the effective
    # Black-Scholes variance is exactly theta.
    params = HestonParams(xi=1e-3)
    pr = HestonPricer(params, DT)

    def bs_call(strike, tau):
        s = np.sqrt(params.theta * tau)
        d1 = (np.log(1.0 / strike) + 0.5 * params.theta * tau) / s
        return norm.cdf(d1) - strike * norm.cdf(d1 - s)

    for tau_steps in (10, 40, 120):
        for strike in (0.95, 1.0, 1.05):
            got = call_price(pr, 1.0, params.theta, tau_steps, strike)
            want = bs_call(strike, tau_steps * DT)
            assert abs(got - want) < 2e-5


def test_pricing_at_zero_variance_state(pricer):
    # Feller-boundary paths touch v = 0; pricing must stay accurate there.
    price = call_price(pricer, 1.0, 0.0, 10, 1.0)
    assert 0.0 < price < 0.05


def test_invalid_pricing_inputs(pricer):
    with pytest.raises(ValueError):
        call_price(pricer, 1.0, PAPER.v0, 0, 1.0)
    with pytest.raises(ValueError):
        call_price(pricer, -1.0, PAPER.v0, 10, 1.0)
    with pytest.raises(ValueError):
        call_price(pricer, 1.0, -0.1, 10, 1.0)


def test_an_uncertified_price_does_not_converge():
    # No scale of the ladder brings the two rules within 1e-300 of each other.
    strict = HestonPricer(PAPER, DT)
    strict.tol = 1e-300
    with pytest.raises(MarketError, match="^pricing quadrature did not converge to 1.0e-300 "):
        strict.unit_call(np.array([PAPER.v0]), 10, 0.0)


def test_atm_call_matches_monte_carlo(pricer):
    cf = call_price(pricer, PAPER.x0, PAPER.v0, 20, PAPER.x0)
    means, ses = mc_option_prices(PAPER, [(20, 0.0, True)], DT,
                                  n_samples=150_000, substeps=8, seed=13)
    assert abs(cf - means[0]) < 3 * ses[0]


def test_otm_put_matches_monte_carlo(pricer):
    k = -0.05
    cf = put_price(pricer, PAPER.x0, PAPER.v0, 40, PAPER.x0 * np.exp(k))
    means, ses = mc_option_prices(PAPER, [(40, k, False)], DT,
                                  n_samples=150_000, substeps=8, seed=13)
    assert abs(cf - means[0]) < 3 * ses[0]


def test_cached_grid_pricer_matches_quadrature(pricer):
    contracts = [(10, np.log(0.99)), (20, np.log(1.03)), (20, 0.0)]
    cache = CachedGridPricer(pricer, contracts, v_max=1.5)
    rng = np.random.default_rng(4)
    v = rng.uniform(0.0, 1.5, 400)
    for tau, k in contracts:
        exact = pricer.unit_call(v, tau, k)
        fast = cache.unit_call(v, tau, k)
        assert np.abs(exact - fast).max() < 1e-10
    # scalar interface agrees with the vector path bit for bit
    assert call_price(cache, 1.2, 0.3, 20, 1.2) == 1.2 * cache.unit_call(np.array([0.3]), 20, 0.0)[0]


def test_cached_grid_pricer_rejects_out_of_range():
    pr = HestonPricer(PAPER, DT)
    cache = CachedGridPricer(pr, [(10, 0.0)], v_max=0.5)
    with pytest.raises(MarketError):
        cache.unit_call(np.array([0.6]), 10, 0.0)
    with pytest.raises(KeyError):
        cache.unit_call(np.array([0.1]), 40, 0.0)


# ---------------------------------------------------------------------------
# all-contract Chebyshev evaluation


V_MAX = 0.9


@pytest.fixture(scope="module")
def grid_cache(pricer):
    contracts = [(o.tau_steps, o.log_moneyness) for o in full_grid().entries]
    return CachedGridPricer(pricer, contracts, v_max=V_MAX)


def _all_calls(cache):
    return [(tau, k, True) for tau, k in cache.contracts]


def _chebval_reference(cache, v):
    y = 2.0 * v / cache.v_max - 1.0
    return np.stack([np.polynomial.chebyshev.chebval(y, c) for c in cache.coef], axis=-1)


def test_all_contract_evaluation_matches_chebval(grid_cache):
    assert grid_cache.coef.shape == (19, 121)
    rng = np.random.default_rng(17)
    chunk = grid_cache.CHUNK
    inputs = [np.array([0.0]), np.array([V_MAX]), rng.uniform(0.0, V_MAX, 1)]
    for n in (chunk - 1, chunk, chunk + 1):
        v = rng.uniform(0.0, V_MAX, n)
        v[:2] = 0.0, V_MAX
        inputs.append(v)
    for v in inputs:
        got = grid_cache.unit_prices(v, _all_calls(grid_cache))
        assert got.shape == (v.size, 19)
        assert np.abs(got - _chebval_reference(grid_cache, v)).max() <= 1e-14


def test_all_contract_evaluation_fills_a_strided_view(grid_cache):
    # a matrix of variances goes in blocks of whole rows, written in place
    rng = np.random.default_rng(18)
    v = rng.uniform(0.0, V_MAX, (70, 130))[:, :117]
    dest = np.zeros((70, 130, 20))
    out = grid_cache.unit_prices(v, _all_calls(grid_cache), out=dest[:, :117, 1:])
    assert np.shares_memory(out, dest)
    ref = _chebval_reference(grid_cache, v)
    assert np.abs(dest[:, :117, 1:] - ref).max() <= 1e-14
    assert np.all(dest[:, 117:] == 0.0) and np.all(dest[:, :, 0] == 0.0)


def test_put_prices_are_calls_by_parity(grid_cache):
    v = np.random.default_rng(19).uniform(0.0, V_MAX, 300)
    calls = grid_cache.unit_prices(v, _all_calls(grid_cache))
    puts = grid_cache.unit_prices(v, [(tau, k, False) for tau, k in grid_cache.contracts])
    ks = np.array([k for _, k in grid_cache.contracts])
    assert np.array_equal(puts, calls - 1.0 + np.exp(ks))
    for tau, k in grid_cache.contracts:
        one = grid_cache.unit_price(v, tau, k, False)
        assert np.array_equal(one, grid_cache.unit_call(v, tau, k) - 1.0 + np.exp(k))


def test_all_contract_path_rejects_out_of_range(grid_cache):
    for bad in (V_MAX * 1.001, -1e-3, np.nan):
        v = np.full(grid_cache.CHUNK + 5, 0.1)
        v[-1] = bad   # in the second block, after the first has been priced
        with pytest.raises(MarketError):
            grid_cache.unit_prices(v, _all_calls(grid_cache))
