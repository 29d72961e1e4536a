import numpy as np
import pytest

from deephedge import contracts as ct
from deephedge import diffcore as dc
from deephedge.market import CachedGridPricer, HestonParams, HestonPricer, simulate
from oracles import (
    call_price,
    central_diff_gradient,
    cliquet_payoff_bruteforce,
    inner_hessian_dense,
    instrument_returns,
    put_price,
    running_cliquet_bruteforce,
)

DT = 1.0 / 250.0
PAPER = HestonParams()


@pytest.fixture(scope="module")
def pricer():
    return HestonPricer(PAPER, DT)


@pytest.fixture(scope="module")
def small_paths():
    return simulate(PAPER, 32, 20, DT, substeps=2, seed=21)


@pytest.fixture(scope="module")
def desk_cache(pricer, small_paths):
    """The desk grid's Chebyshev pricer over the paths of ``small_paths``."""
    v_max = float(small_paths.variance.max()) * 1.02 + 1e-6
    contracts = [(o.tau_steps, o.log_moneyness) for o in ct.desk_grid().entries]
    return CachedGridPricer(pricer, contracts, v_max)


# ---------------------------------------------------------------------------
# grids and masks


def test_full_grid_has_19_entries_with_sign_convention():
    g = ct.full_grid()
    assert len(g.entries) == 19 and g.d == 20
    for opt in g.entries:
        assert opt.is_call == (opt.log_moneyness > 0)
    # at-the-money entries (k = 0) are puts
    assert any(o.log_moneyness == 0.0 and not o.is_call for o in g.entries)


def test_desk_grid_dimensions():
    g = ct.desk_grid()
    assert len(g.entries) == 8 and g.d == 9


def test_availability_mask():
    g = ct.desk_grid()
    mask = ct.availability_mask(g, 60)
    for i, opt in enumerate(g.entries):
        for t in range(60):
            assert mask[t, i + 1] == (1.0 if opt.tau_steps <= 60 - t else 0.0)
    assert (mask[:, 0] == 1.0).all()


# ---------------------------------------------------------------------------
# instrument returns


def test_flat_path_atm_put_return_is_minus_premium(pricer):
    grid = ct.GridSpec.from_ratio_map({5: [1.0]})
    spot = np.ones(11)
    variance = np.full(11, PAPER.v0)
    returns, premiums, mask = instrument_returns(spot, variance, grid, pricer)
    prem = put_price(pricer, 1.0, PAPER.v0, 5, 1.0)
    live = mask[:, 1] == 1.0
    assert np.allclose(returns[live, 1], -premiums[live, 1])
    assert premiums[live, 1][0] == pytest.approx(prem)
    assert prem > 0


def test_spot_column_is_terminal_minus_current(small_paths, pricer):
    grid = ct.desk_grid()
    spot = small_paths.spot[0]
    variance = small_paths.variance[0]
    returns, _, _ = instrument_returns(spot, variance, grid, pricer)
    assert returns[0, 0] == spot[-1] - spot[0]
    assert np.array_equal(returns[:, 0], spot[-1] - spot[:-1])


def test_returns_against_bruteforce_recomputation(pricer):
    # full 19-option grid at t=0 on a random Heston path
    paths = simulate(PAPER, 1, 130, DT, substeps=2, seed=77)
    spot, variance = paths.spot[0], paths.variance[0]
    grid = ct.full_grid()
    returns, premiums, mask = instrument_returns(spot, variance, grid, pricer)
    for i, opt in enumerate(grid.entries):
        strike = spot[0] * np.exp(opt.log_moneyness)
        if opt.is_call:
            prem = call_price(pricer, spot[0], variance[0], opt.tau_steps, strike)
            payoff = max(spot[opt.tau_steps] - strike, 0.0)
        else:
            prem = put_price(pricer, spot[0], variance[0], opt.tau_steps, strike)
            payoff = max(strike - spot[opt.tau_steps], 0.0)
        assert returns[0, i + 1] == payoff - prem
        assert premiums[0, i + 1] == prem


def _payoffs(spot, grid, mask):
    """One path's option payoffs at maturity, (T, d), zero where masked."""
    payoff = np.zeros(mask.shape)
    for i, opt in enumerate(grid.entries):
        live = int(mask[:, i + 1].sum())
        strike = spot[:live] * np.exp(opt.log_moneyness)
        x_mat = spot[opt.tau_steps:opt.tau_steps + live]
        payoff[:live, i + 1] = np.maximum(x_mat - strike if opt.is_call else strike - x_mat, 0.0)
    return payoff


def test_grid_returns_matches_per_path_loop(small_paths, desk_cache):
    grid = ct.desk_grid()
    batched_r, mask = ct.grid_returns(small_paths, grid, desk_cache)
    for p in (0, 7, 31):
        r, prem, m = instrument_returns(
            small_paths.spot[p], small_paths.variance[p], grid, desk_cache)
        assert np.array_equal(m, mask)
        assert np.allclose(batched_r[p], r, atol=1e-14)
        assert np.allclose(batched_r[p, :, 1:], (_payoffs(small_paths.spot[p], grid, mask)
                                                 - prem)[:, 1:], atol=1e-14)


def test_grid_returns_matches_per_path_loop_across_path_slabs(pricer):
    # at T=130 on the full grid a slab holds 50 paths, so 101 paths span three
    paths = simulate(PAPER, 101, 130, DT, substeps=2, seed=23)
    grid = ct.full_grid()
    v_max = float(paths.variance.max()) * 1.02 + 1e-6
    cache = CachedGridPricer(pricer, [(o.tau_steps, o.log_moneyness) for o in grid.entries],
                             v_max)
    batched_r, mask = ct.grid_returns(paths, grid, cache)
    for p in (49, 50, 100):
        r, prem, _ = instrument_returns(paths.spot[p], paths.variance[p], grid, cache)
        assert np.allclose(batched_r[p], r, atol=1e-14)
        assert np.allclose(batched_r[p, :, 1:], (_payoffs(paths.spot[p], grid, mask)
                                                 - prem)[:, 1:], atol=1e-14)
    assert np.all(batched_r[:, mask == 0.0] == 0.0)


def test_masked_returns_are_zero(small_paths, desk_cache):
    grid = ct.desk_grid()
    returns, mask = ct.grid_returns(small_paths, grid, desk_cache)
    assert np.all(returns[:, mask == 0.0] == 0.0)


# ---------------------------------------------------------------------------
# cliquet


def test_cliquet_all_periods_capped():
    spec = ct.CliquetSpec(cap=0.015, resets=tuple(range(20, 241, 20)))
    steps = np.arange(241)
    spot = 1.05 ** (steps / 20.0)  # +5% every period, always above the cap
    payoff = ct.cliquet_payoff_batch(spot[None, :], spec)[0]
    assert payoff == pytest.approx(12 * 0.015)
    assert payoff == pytest.approx(0.18)


def test_cliquet_negative_periods_floored():
    spec = ct.CliquetSpec(cap=0.015, resets=(20, 40))
    spot = 0.99 ** (np.arange(41) / 20.0)
    assert ct.cliquet_payoff_batch(spot[None, :], spec)[0] == 0.0


def test_cliquet_mixed_periods_hand_value():
    spec = ct.CliquetSpec(cap=0.015, resets=(1, 2))
    spot = np.array([1.0, 1.05, 1.05 * 0.99])
    # min(0.05, 0.015) + min(-0.01, 0.015) = 0.005
    assert ct.cliquet_payoff_batch(spot[None, :], spec)[0] == pytest.approx(0.005)


def test_cliquet_bounds_property():
    spec = ct.CliquetSpec(cap=0.015, resets=(5, 10, 15))
    rng = np.random.default_rng(3)
    spot = np.exp(np.cumsum(rng.normal(0, 0.02, size=(500, 16)), axis=1))
    payoff = ct.cliquet_payoff_batch(spot, spec)
    assert (payoff >= 0).all() and (payoff <= 3 * spec.cap + 1e-15).all()


def test_cliquet_batch_matches_bruteforce_exactly():
    spec = ct.CliquetSpec(cap=0.015, resets=(4, 8, 12))
    rng = np.random.default_rng(8)
    spot = np.exp(np.cumsum(rng.normal(0, 0.03, size=(200, 13)), axis=1))
    batch = ct.cliquet_payoff_batch(spot, spec)
    for p in range(200):
        assert batch[p] == cliquet_payoff_bruteforce(spot[p], spec.cap, list(spec.resets))
        assert ct.cliquet_payoff_batch(spot[p:p + 1], spec)[0] == batch[p]


def test_running_value_endpoints_and_bruteforce():
    spec = ct.CliquetSpec(cap=0.015, resets=(5, 10))
    rng = np.random.default_rng(11)
    spot = np.exp(np.cumsum(rng.normal(0, 0.03, size=(50, 11)), axis=1))
    spot[:, 0] = 1.0
    running = ct.running_cliquet_batch(spot, spec)
    payoff = ct.cliquet_payoff_batch(spot, spec)
    resets = list(spec.resets)
    for p in range(50):
        assert running[p, 0] == 0.0
        # at maturity the running value equals the payoff
        assert running_cliquet_bruteforce(spot[p], spec.cap, resets, 10) == payoff[p]
        for t in range(10):
            want = running_cliquet_bruteforce(spot[p], spec.cap, resets, t)
            assert running[p, t] == want
            assert ct.running_cliquet_batch(spot[p:p + 1], spec)[0, t] == want


def test_running_value_monotone_up_path_caps_bind():
    spec = ct.CliquetSpec(cap=0.015, resets=(4, 8))
    spot = 1.05 ** np.arange(9)
    # mid second period: one completed capped period plus a capped stub
    assert ct.running_cliquet_batch(spot[None, :], spec)[0, 6] == pytest.approx(2 * 0.015)


def test_feature_tensor_layout(small_paths):
    spec = ct.CliquetSpec(cap=0.015, resets=(10, 20))
    feats = ct.feature_tensor(small_paths, spec)
    assert feats.shape == (32, 20, 6)
    assert np.all(feats[:, 0, 0] == 0.0)            # t / T at t=0
    assert np.all(feats[:, 0, 1] == 0.0)            # phase at t=0
    assert np.all(feats[:, 15, 1] == 0.5)           # middle of second period
    assert np.array_equal(feats[:, :, 2], small_paths.spot[:, :20])
    assert np.array_equal(feats[:, 12, 3], small_paths.spot[:, 10])
    assert np.array_equal(feats[:, :, 4], small_paths.variance[:, :20])
    assert np.all(feats[:, 0, 5] == 0.0)
    for t in range(20):   # the reset schedule, step by step
        last = max([0] + [r for r in spec.resets if r <= t])
        nxt = min(r for r in spec.resets if r > t)
        assert np.all(feats[:, t, 0] == t / 20)
        assert np.all(feats[:, t, 1] == (t - last) / (nxt - last))
        assert np.array_equal(feats[:, t, 3], small_paths.spot[:, last])


# ---------------------------------------------------------------------------
# objective


def _random_episode(rng, n=3, n_steps=4, d=3):
    actions = rng.normal(size=(n, n_steps, d)) * 0.1
    returns = rng.normal(size=(n, n_steps, d)) * 0.05
    payoff = rng.uniform(0, 0.05, size=n)
    return actions, returns, payoff


def test_objective_zero_actions_is_variance_of_payoff():
    rng = np.random.default_rng(5)
    _, returns, payoff = _random_episode(rng)
    actions = np.zeros_like(returns)
    gamma = 1000.0
    costs = ct.CostSpec()
    val = ct.objective_value(actions, returns, payoff, gamma, costs)
    assert val == pytest.approx(gamma * payoff.var(ddof=1))


def test_objective_identical_paths_is_pure_cost():
    costs = ct.CostSpec()
    actions = np.tile(np.array([[[0.5, -0.2, 0.1]]]), (4, 2, 1))
    returns = np.tile(np.array([[[0.01, 0.02, -0.01]]]), (4, 2, 1))
    payoff = np.full(4, 0.03)
    val = ct.objective_value(actions, returns, payoff, 1000.0, costs)
    c = costs.linear(3)
    want = 2 * (abs(0.5) * c[0] + abs(-0.2) * c[1] + abs(0.1) * c[2])
    assert val == pytest.approx(want)


def test_objective_hand_computed_three_paths():
    costs = ct.CostSpec(spot_cost=0.01, option_cost=0.1)
    gamma = 2.0
    actions = np.array([
        [[1.0, 0.0], [0.5, -1.0]],
        [[0.0, 2.0], [0.0, 0.0]],
        [[-1.0, 1.0], [1.0, 1.0]],
    ])
    returns = np.array([
        [[0.1, 0.2], [-0.1, 0.3]],
        [[0.2, -0.1], [0.0, 0.1]],
        [[0.0, 0.1], [0.2, -0.2]],
    ])
    payoff = np.array([0.05, 0.0, 0.1])
    gains = np.array([
        1.0 * 0.1 + 0.5 * -0.1 + -1.0 * 0.3,
        2.0 * -0.1,
        1.0 * 0.1 + 1.0 * 0.2 + 1.0 * -0.2,
    ])
    pnl = gains - payoff
    cost = np.array([
        0.01 * 1.5 + 0.1 * 1.0,
        0.1 * 2.0,
        0.01 * 2.0 + 0.1 * 2.0,
    ])
    want = gamma * pnl.var(ddof=1) + cost.mean()
    got = ct.objective_value(actions, returns, payoff, gamma, costs)
    assert got == pytest.approx(want, rel=1e-14)


def test_batch_objective_matches_numpy_twin():
    rng = np.random.default_rng(6)
    actions, returns, payoff = _random_episode(rng)
    costs = ct.CostSpec()
    tape = dc.Tape()
    nodes = [tape.constant(actions[:, t, :]) for t in range(actions.shape[1])]
    loss = ct.batch_objective(nodes, returns, payoff, 1000.0, costs)
    want = ct.objective_value(actions, returns, payoff, 1000.0, costs)
    assert float(loss.value[0, 0]) == pytest.approx(want, rel=1e-14)


def test_batch_objective_rejects_single_path():
    tape = dc.Tape()
    nodes = [tape.constant(np.ones((1, 2)))]
    with pytest.raises(dc.DiffError):
        ct.batch_objective(nodes, np.ones((1, 1, 2)), np.zeros(1), 1.0, ct.CostSpec())
    with pytest.raises(ValueError):
        ct.objective_value(np.ones((1, 1, 2)), np.ones((1, 1, 2)), np.zeros(1), 1.0, ct.CostSpec())


def test_batch_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    actions, returns, payoff = _random_episode(rng, n=3, n_steps=4, d=3)
    costs = ct.CostSpec()
    gamma = 1000.0

    def f(a):
        return ct.objective_value(a.reshape(actions.shape), returns, payoff, gamma, costs)

    tape = dc.Tape()
    u = tape.parameter("u", actions.reshape(3, -1))
    nodes = [dc.slice_cols(u, t * 3, (t + 1) * 3) for t in range(4)]
    loss = ct.batch_objective(nodes, returns, payoff, gamma, costs)
    grad = dc.backward(loss)["u"]
    fd = central_diff_gradient(lambda a: f(a), actions.reshape(3, -1).copy())
    rel = np.abs(grad - fd).max() / np.abs(fd).max()
    assert rel < 1e-6


# ---------------------------------------------------------------------------
# inner Hessian and pseudo-targets


def test_inner_hessian_scalar_case():
    h = ct.inner_hessian(np.array([[0.1]]), 1000.0,
                         ct.CostSpec(spot_cost=1e-4, option_cost=1e-2, l2_multiplier=8.0))
    dense = inner_hessian_dense(h)
    assert dense.shape == (1, 1)
    assert dense[0, 0] == pytest.approx(2 * 1000 * 0.01 + 2 * 8e-4)
    assert dense[0, 0] == pytest.approx(20.0016)


def test_inner_hessian_gamma_zero_is_diagonal():
    rng = np.random.default_rng(2)
    r = rng.normal(size=(3, 2))
    costs = ct.CostSpec()
    h = ct.inner_hessian(r, 0.0, costs)
    assert np.array_equal(inner_hessian_dense(h), np.diag(h.diag))


def test_inner_hessian_positive_definite():
    rng = np.random.default_rng(13)
    r = rng.normal(size=(5, 2))
    h = ct.inner_hessian(r, 1000.0, ct.CostSpec())
    eigs = np.linalg.eigvalsh(inner_hessian_dense(h))
    assert eigs.min() > 0


def test_pseudo_target_zero_noise_is_zero():
    class ZeroRng:
        def standard_normal(self, size=None):
            return np.zeros(size) if size is not None else 0.0

    h = ct.inner_hessian(np.ones((2, 2)), 1000.0, ct.CostSpec())
    s = ct.sample_pseudo_target(h, ZeroRng())
    assert np.array_equal(s, np.zeros(4))


def test_pseudo_target_diagonal_case_distribution():
    h = ct.inner_hessian(np.zeros((2, 3)), 1000.0, ct.CostSpec())
    rng = np.random.default_rng(14)
    samples = np.array([ct.sample_pseudo_target(h, rng) for _ in range(20000)])
    var = samples.var(axis=0, ddof=1)
    # each coordinate is N(0, 2 c_tilde)
    assert np.abs(var - h.diag).max() < 5 * h.diag.max() * np.sqrt(2.0 / 20000)


def test_pseudo_target_covariance_matches_dense_hessian():
    rng = np.random.default_rng(15)
    r = rng.normal(size=(3, 2)) * 0.2
    h = ct.inner_hessian(r, 100.0, ct.CostSpec(spot_cost=1e-3, option_cost=1e-2))
    dense = inner_hessian_dense(h)
    n = 1_000_000
    z0 = rng.standard_normal(n)
    z = rng.standard_normal((n, 6))
    samples = np.sqrt(2 * h.gamma) * np.outer(z0, h.r_vec) + np.sqrt(h.diag) * z
    emp = samples.T @ samples / n
    prods = np.einsum("ni,nj->nij", samples, samples)
    se = prods.std(axis=0, ddof=1) / np.sqrt(n)
    assert (np.abs(emp - dense) < 5 * se + 1e-12).all()



def test_objective_gradient_matches_the_tape():
    rng = np.random.default_rng(10)
    actions, returns, payoff = _random_episode(rng, n=5, n_steps=4, d=3)
    actions[0, 1, 2] = 0.0   # sign(0) = 0: no cost gradient at a zero trade
    costs, gamma = ct.CostSpec(), 1000.0
    tape = dc.Tape()
    u = tape.parameter("u", actions.reshape(5, -1))
    nodes = [dc.slice_cols(u, t * 3, (t + 1) * 3) for t in range(4)]
    want = dc.backward(ct.batch_objective(nodes, returns, payoff, gamma, costs))["u"]
    got = ct.objective_gradient(actions, returns, payoff, gamma, costs)
    assert got.shape == actions.shape
    assert np.abs(got.reshape(5, -1) - want).max() <= 1e-14 * np.abs(want).max()
    with pytest.raises(ValueError):
        ct.objective_gradient(actions[:1], returns[:1], payoff[:1], gamma, costs)
