import gc
import weakref

import numpy as np
import pytest

from deephedge import contracts as ct
from deephedge import diffcore as dc
from deephedge import policy as pol
from deephedge import rngstreams
from oracles import central_diff_gradient_map, relative_gradient_error

TINY = pol.PolicyConfig(action_dim=3, hidden=4, n_blocks=2)


def _random_problem(rng, config, n=4, n_steps=5):
    features = rng.normal(size=(n, n_steps, config.n_features)) * 0.5 + 1.0
    mask = np.ones((n_steps, config.action_dim))
    mask[-2:, 1] = 0.0  # one instrument drops out near the horizon
    returns = rng.normal(size=(n, n_steps, config.action_dim)) * 0.05
    returns[:, mask == 0.0] = 0.0
    payoff = rng.uniform(0.0, 0.05, size=n)
    return features, mask, returns, payoff


def test_init_params_shapes_and_head_scaling():
    config = pol.PolicyConfig(action_dim=9)
    params = pol.init_params(config, rngstreams.stream(1234, rngstreams.POLICY_INIT))
    shapes = config.param_shapes()
    assert set(params.values) == set(shapes)
    for name, arr in params.values.items():
        assert arr.shape == shapes[name]
    # final-layer bias column exactly zero
    assert np.all(params.values["head"][:, -1] == 0.0)
    # all other biases zero too
    assert np.all(params.values["embed"][:, -1] == 0.0)
    # head weights carry the 1e-3 downscale relative to the He scale
    he = np.sqrt(2.0 / 32)
    sample_std = params.values["head"][:, :-1].std()
    assert abs(sample_std - 1e-3 * he) < 0.2 * 1e-3 * he
    # gains start at one
    assert np.all(params.values["block0.gain"] == 1.0)


def test_init_params_deterministic():
    config = pol.PolicyConfig(action_dim=5)
    a = pol.init_params(config, rngstreams.stream(7, rngstreams.POLICY_INIT))
    b = pol.init_params(config, rngstreams.stream(7, rngstreams.POLICY_INIT))
    for name in a.values:
        assert np.array_equal(a.values[name], b.values[name])


def test_kronecker_and_diagonal_classification():
    params = pol.init_params(TINY, np.random.default_rng(0))
    assert sorted(params.kronecker_names) == ["block0.lstm", "block1.lstm", "embed", "head"]
    gains = sorted(set(params.values) - set(params.kronecker_names))
    assert gains == ["block0.gain", "block1.gain"]


def test_masked_instrument_outputs_exactly_zero():
    rng = np.random.default_rng(1)
    params = pol.init_params(TINY, rng)
    features, mask, _, _ = _random_problem(rng, TINY)
    mask[:, 2] = 0.0
    result = pol.rollout(params, features, mask)
    actions = result.actions
    assert np.all(actions[:, :, 2] == 0.0)
    assert np.all(actions[:, -2:, 1] == 0.0)


def test_fresh_policy_trades_are_small():
    rng = np.random.default_rng(2)
    config = pol.PolicyConfig(action_dim=9)
    params = pol.init_params(config, rng)
    features = rng.normal(size=(1000, 1, config.n_features)) * 0.5 + 1.0
    mask = np.ones((1, 9))
    result = pol.rollout(params, features, mask, record=False)
    assert np.abs(result.actions).max() < 1e-2


def test_zero_params_zero_input_gives_zero_action():
    config = TINY
    params = pol.init_params(config, np.random.default_rng(3))
    for name in params.values:
        params.values[name][:] = 0.0
    features = np.zeros((2, 3, config.n_features))
    mask = np.ones((3, config.action_dim))
    result = pol.rollout(params, features, mask, record=False)
    assert np.all(result.actions == 0.0)


def test_single_step_rollout_equals_forward_step():
    rng = np.random.default_rng(4)
    params = pol.init_params(TINY, rng)
    features, mask, _, _ = _random_problem(rng, TINY, n=3, n_steps=1)
    via_rollout = pol.rollout(params, features, mask).actions[:, 0, :]

    tape = dc.Tape()
    pnodes = {k: tape.parameter(k, v) for k, v in params.values.items()}
    state = pol._zero_state(tape, TINY, 3)
    u, _ = pol.forward_step(pnodes, TINY, state, tape.constant(features[:, 0, :]),
                            tape.constant(mask[0].reshape(1, -1)))
    assert np.array_equal(via_rollout, u.value)


# Wide enough for BLAS's edge kernels to round differently, which TINY is
# not, with a head large enough for symexp to be nonlinear.
ORACLE = pol.PolicyConfig(action_dim=3, hidden=8, n_blocks=4, head_scale=0.1)


def test_batch_permutation_leaves_actions_unchanged():
    # Bit for bit: a path unrolled alone, inside the first block, in a
    # short last block, or moved across the block boundary.
    rng = np.random.default_rng(5)
    params = pol.init_params(ORACLE, rng)
    n = pol.ROW_BLOCK + 3
    features, mask, _, _ = _random_problem(rng, ORACLE, n=n)
    base = pol.rollout(params, features, mask, record=False).actions
    for i in (0, 7, pol.ROW_BLOCK - 1, pol.ROW_BLOCK, n - 1):
        alone = pol.rollout(params, features[i:i + 1], mask, record=False).actions
        assert np.array_equal(alone[0], base[i]), i
    perm = rng.permutation(n)   # paths move columns and cross the block boundary
    permuted = pol.rollout(params, features[perm], mask, record=False).actions
    assert np.array_equal(permuted, base[perm])


@pytest.mark.parametrize("n", [3, pol.ROW_BLOCK, pol.ROW_BLOCK + 3])
def test_forward_only_actions_match_the_tape(n):
    rng = np.random.default_rng(12)
    params = pol.init_params(ORACLE, rng)
    features, mask, _, _ = _random_problem(rng, ORACLE, n=n, n_steps=7)
    mask[:, 2] = 0.0   # and column 1 drops out for the last two steps
    fused = pol.rollout(params, features, mask, record=False).actions
    tape = pol.rollout(params, features, mask).actions
    assert np.abs(tape).max() > 0.1   # the head scale keeps the actions nonlinear
    assert np.all(fused[:, :, 2] == 0.0) and np.all(fused[:, -2:, 1] == 0.0)
    assert np.linalg.norm(fused - tape) <= 1e-12 * np.linalg.norm(tape)


def test_rollout_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    config = pol.PolicyConfig(action_dim=3, hidden=4, n_blocks=4)
    params = pol.init_params(config, rng)
    features, mask, returns, payoff = _random_problem(rng, config, n=4, n_steps=5)
    gamma, costs = 1000.0, ct.CostSpec()

    result = pol.rollout(params, features, mask)
    loss = ct.batch_objective(result.action_nodes, returns, payoff, gamma, costs)
    grads = dc.backward(loss)

    def scalar(values):
        trial = pol.PolicyParams(config, values)
        res = pol.rollout(trial, features, mask, record=False)
        return ct.objective_value(res.actions, returns, payoff, gamma, costs)

    fd = central_diff_gradient_map(scalar, params.values)
    assert relative_gradient_error(grads, fd) < 1e-5


def test_action_recurrence_carries_gradient():
    # Zeroing the action-recurrence columns of the embedding must change
    # the gradient of the head weights: credit flows through u_{t-1}.
    rng = np.random.default_rng(7)
    config = TINY
    params = pol.init_params(config, rng)
    features, mask, returns, payoff = _random_problem(rng, config)
    gamma, costs = 1000.0, ct.CostSpec()

    def head_grad(p):
        res = pol.rollout(p, features, mask)
        loss = ct.batch_objective(res.action_nodes, returns, payoff, gamma, costs)
        return dc.backward(loss)["head"]

    g_with = head_grad(params)
    ablated = params.copy()
    ablated.values["embed"][:, config.n_features:-1] = 0.0
    g_without = head_grad(ablated)
    assert not np.allclose(g_with, g_without)


def test_hook_channels_record_every_step():
    rng = np.random.default_rng(8)
    params = pol.init_params(TINY, rng)
    features, mask, returns, payoff = _random_problem(rng, TINY, n_steps=6)
    result = pol.rollout(params, features, mask, capture=True)
    loss = ct.batch_objective(result.action_nodes, returns, payoff, 1000.0, ct.CostSpec())
    grads = dc.backward(loss, hooks=result.channels.values())
    for name, channel in result.channels.items():
        assert len(channel.activations) == len(channel.grads) == 6
        assert np.abs(channel.weight_gradient() - grads[name]).max() < 1e-12


def test_tape_is_freed_without_the_cyclic_collector():
    # Nodes point at their tape; after backward the tape must let go of its
    # nodes, so reference counting alone frees the unroll.
    rng = np.random.default_rng(10)
    params = pol.init_params(TINY, rng)
    features, mask, returns, payoff = _random_problem(rng, TINY)
    gc.disable()
    try:
        result = pol.rollout(params, features, mask)
        mid = weakref.ref(result.tape.nodes[len(result.tape.nodes) // 2].value)
        loss = ct.batch_objective(result.action_nodes, returns, payoff, 1000.0, ct.CostSpec())
        dc.backward(loss)
        with pytest.raises(dc.DiffError, match="already differentiated"):
            dc.backward(loss)
        del result, loss
        assert mid() is None
    finally:
        gc.enable()


def test_rollout_validates_shapes():
    params = pol.init_params(TINY, np.random.default_rng(9))
    with pytest.raises(ValueError):
        pol.rollout(params, np.zeros((2, 3, 5)), np.ones((3, 3)))
    with pytest.raises(ValueError):
        pol.rollout(params, np.zeros((2, 3, 6)), np.ones((4, 3)))
    with pytest.raises(ValueError, match="recorded"):   # hooks need a tape
        pol.rollout(params, np.zeros((2, 3, 6)), np.ones((3, 3)), capture=True, record=False)
