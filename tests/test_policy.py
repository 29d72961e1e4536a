import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest

from deephedge import contracts as ct
from deephedge import diffcore as dc
from deephedge import policy as pol
from deephedge import rngstreams
from conftest import child_pids
from oracles import (central_diff_gradient_map, relative_gradient_error, tape_inner,
                     tape_rollout, tape_step)

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
    # The tape oracle's unroll is its step, repeated.
    rng = np.random.default_rng(4)
    params = pol.init_params(TINY, rng)
    features, mask, _, _ = _random_problem(rng, TINY, n=3, n_steps=1)
    via_rollout = tape_rollout(params, features, mask).actions[:, 0, :]

    tape = dc.Tape()
    pnodes = {k: tape.parameter(k, v) for k, v in params.values.items()}
    hc = [tape.constant(np.zeros((3, 2 * TINY.hidden))) for _ in range(TINY.n_blocks)]
    u, _ = tape_step(pnodes, TINY, hc, tape.constant(np.zeros((3, TINY.action_dim))),
                     tape.constant(features[:, 0, :]), mask[0], {})
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
    tape = tape_rollout(params, features, mask).actions
    assert np.abs(tape).max() > 0.1   # the head scale keeps the actions nonlinear
    assert np.all(fused[:, :, 2] == 0.0) and np.all(fused[:, -2:, 1] == 0.0)
    assert np.linalg.norm(fused - tape) <= 1e-12 * np.linalg.norm(tape)
    # a recorded unroll is the same arithmetic as a forward-only one
    assert np.array_equal(pol.rollout(params, features, mask).actions, fused)


def _objective_seed(result, returns, payoff, gamma=1000.0, costs=ct.CostSpec()):
    return ct.objective_gradient(result.actions, returns, payoff, gamma, costs)


def test_rollout_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    config = pol.PolicyConfig(action_dim=3, hidden=4, n_blocks=4)
    params = pol.init_params(config, rng)
    features, mask, returns, payoff = _random_problem(rng, config, n=4, n_steps=5)
    gamma, costs = 1000.0, ct.CostSpec()

    result = pol.rollout(params, features, mask)
    grads, _ = pol.reverse_sweep(result, _objective_seed(result, returns, payoff, gamma, costs))

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

    def head_grad(p):
        res = pol.rollout(p, features, mask)
        return pol.reverse_sweep(res, _objective_seed(res, returns, payoff))[0]["head"]

    g_with = head_grad(params)
    ablated = params.copy()
    ablated.values["embed"][:, config.n_features:-1] = 0.0
    g_without = head_grad(ablated)
    assert not np.allclose(g_with, g_without)


def test_hook_channels_record_every_step():
    # The hook-sum identity on the sweep: per-step outer products of the
    # pre-activation gradients and layer inputs sum to the weight gradient.
    rng = np.random.default_rng(8)
    params = pol.init_params(TINY, rng)
    features, mask, returns, payoff = _random_problem(rng, TINY, n_steps=6)
    result = pol.rollout(params, features, mask)
    grads, captured = pol.reverse_sweep(result, _objective_seed(result, returns, payoff),
                                        capture=True)
    inputs = _stacked_inputs(result)
    assert captured.keys() == inputs.keys() == set(params.kronecker_names)
    for name, g in captured.items():
        assert g.shape == (6, params.values[name].shape[0], 4)
        assert inputs[name].shape == (6, params.values[name].shape[1], 4)
        hook_sum = sum(g_t @ a_t.T for g_t, a_t in zip(g, inputs[name]))
        assert np.abs(hook_sum - grads[name]).max() < 1e-12


# (config, batch size): the objective needs two paths, the pseudo graph one
SWEEP_CASES = [(config, n) for config in (TINY, ORACLE)
               for n in (1, 3, 13, pol.ROW_BLOCK + 3)]


def _tape_gradients(params, features, mask, seed_graph, hooks=False):
    tape = tape_rollout(params, features, mask, capture=hooks)
    return dc.backward(seed_graph(tape.action_nodes), hooks=tape.channels.values()), tape


def _assert_each_parameter_within(got, want, rtol):
    assert got.keys() == want.keys()
    for name, w in want.items():
        assert np.abs(w).max() > 0.0, name
        assert np.abs(got[name] - w).max() <= rtol * np.abs(w).max(), name


@pytest.mark.parametrize("config,n", SWEEP_CASES)
def test_sweep_gradients_match_the_tape(config, n):
    # Both graphs: the batch objective (seed dL/du) and <s, u> (seed s).
    rng = np.random.default_rng(13)
    params = pol.init_params(config, rng)
    features, mask, returns, payoff = _random_problem(rng, config, n=n, n_steps=7)
    s = rng.normal(size=(n, 7, config.action_dim))
    result = pol.rollout(params, features, mask)

    grads, _ = pol.reverse_sweep(result, s)
    want, _ = _tape_gradients(params, features, mask, lambda nodes: tape_inner(nodes, s))
    _assert_each_parameter_within(grads, want, 1e-12)
    if n >= 2:
        grads, _ = pol.reverse_sweep(result, _objective_seed(result, returns, payoff))
        want, _ = _tape_gradients(params, features, mask, lambda nodes: ct.batch_objective(
            nodes, returns, payoff, 1000.0, ct.CostSpec()))
        _assert_each_parameter_within(grads, want, 1e-12)


@pytest.mark.parametrize("n", [1, 13, pol.ROW_BLOCK + 3])
def test_sweep_captures_match_the_tape_channels(n):
    rng = np.random.default_rng(14)
    params = pol.init_params(ORACLE, rng)
    features, mask, _, _ = _random_problem(rng, ORACLE, n=n, n_steps=7)
    s = rng.normal(size=(n, 7, ORACLE.action_dim))
    result = pol.rollout(params, features, mask)
    _, captured = pol.reverse_sweep(result, s, capture=True)
    inputs = _stacked_inputs(result)
    _, tape = _tape_gradients(params, features, mask, lambda nodes: tape_inner(nodes, s),
                              hooks=True)
    for name, channel in tape.channels.items():
        assert captured[name].shape[0] == inputs[name].shape[0] == len(channel.grads) == 7
        for t in range(7):
            a, g = inputs[name][t].T, captured[name][t].T
            want_a, want_g = channel.activations[t], channel.grads[t]
            assert a.shape == want_a.shape and g.shape == want_g.shape
            assert np.abs(a - want_a).max() <= 1e-12 * np.abs(want_a).max(), (name, t)
            assert np.abs(g - want_g).max() <= 1e-12 * np.abs(want_g).max(), (name, t)


def test_sweep_keeps_no_state_between_calls():
    # Other inputs and batch sizes in between leave a call's results bit
    # for bit as they were.
    rng = np.random.default_rng(15)
    params = pol.init_params(ORACLE, rng)

    def sweep(n, seed):
        r = np.random.default_rng(seed)
        features, mask, _, _ = _random_problem(r, ORACLE, n=n, n_steps=7)
        return _sweep(pol.rollout(params, features, mask),
                      r.normal(size=(n, 7, ORACLE.action_dim)))

    first = sweep(13, 1)
    sweep(pol.ROW_BLOCK + 3, 2)
    sweep(1, 3)
    again = sweep(13, 1)
    assert np.array_equal(first[0], again[0])
    for got, want in zip(again[1:], first[1:]):
        for name in want:
            assert np.array_equal(got[name], want[name]), name


def test_a_pseudo_path_is_its_column_in_the_batch():
    # Bit for bit: a path swept alone gives the actions and per-step
    # pre-activation gradients of its column in a batch with the same seed.
    rng = np.random.default_rng(16)
    params = pol.init_params(ORACLE, rng)
    features, mask, _, _ = _random_problem(rng, ORACLE, n=13, n_steps=7)
    s = rng.normal(size=(13, 7, ORACLE.action_dim))
    batch = pol.rollout(params, features, mask)
    _, batch_grads = pol.reverse_sweep(batch, s, capture=True)
    for i in (0, 7, 8, 12):
        alone = pol.rollout(params, features[i:i + 1], mask)
        _, alone_grads = pol.reverse_sweep(alone, s[i:i + 1], capture=True)
        assert np.array_equal(alone.actions[0], batch.actions[i]), i
        for name, g in alone_grads.items():
            assert np.array_equal(g[..., 0], batch_grads[name][..., i]), (i, name)


def _stacked_inputs(result):
    """Each Kronecker block's (T, in + 1, n) layer inputs, ``step_inputs``
    stacked over the steps."""
    steps = list(result.step_inputs())
    return {name: np.stack([inputs[name] for inputs in steps]) for name in steps[0]}


def _sweep(result, s):
    """Actions, gradients, captures and layer inputs of a recorded unroll."""
    grads, captured = pol.reverse_sweep(result, s, capture=True)
    return result.actions, grads, captured, _stacked_inputs(result)


def test_a_reused_workspace_gives_what_fresh_buffers_give():
    # Bit for bit, buffers included, whether the workspace grows, shrinks,
    # splits into row blocks or is reused at its size, with NaN left in its
    # buffers each time.
    rng = np.random.default_rng(17)
    params = pol.init_params(ORACLE, rng)
    workspace = pol.Workspace()
    for n in (13, 5, 13, 13, pol.ROW_BLOCK + 3, pol.ROW_BLOCK + 3):
        for cache in workspace._caches:
            for f in fields(cache):
                if f.name != "rows":
                    getattr(cache, f.name).fill(np.nan)
        features, mask, _, _ = _random_problem(rng, ORACLE, n=n, n_steps=7)
        s = rng.normal(size=(n, 7, ORACLE.action_dim))
        reused = pol.rollout(params, features, mask, workspace=workspace)
        fresh = pol.rollout(params, features, mask)
        for got, want in zip(reused.caches, fresh.caches, strict=True):
            for f in fields(want):
                assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), (n, f.name)
        got, want = _sweep(reused, s), _sweep(fresh, s)
        assert np.array_equal(got[0], want[0])
        for g, w in zip(got[1:], want[1:]):
            assert g.keys() == w.keys()
            for name in w:
                assert np.array_equal(g[name], w[name]), (n, name)


def test_a_reused_workspace_refuses_the_results_it_held():
    rng = np.random.default_rng(18)
    params = pol.init_params(TINY, rng)
    features, mask, _, _ = _random_problem(rng, TINY)
    workspace = pol.Workspace()
    old = pol.rollout(params, features, mask, workspace=workspace)
    new = pol.rollout(params, features, mask, workspace=workspace)
    seed = np.ones(new.actions.shape)
    uses = (lambda r: pol.reverse_sweep(r, seed), lambda r: r.step_inputs(), lambda r: r.path(0))
    for use in uses:
        with pytest.raises(ValueError, match="workspace"):
            use(old)
        use(new)
    workspace.release()
    for use in uses:
        with pytest.raises(ValueError, match="workspace"):
            use(new)
    with pytest.raises(ValueError, match="forward-only"):
        pol.rollout(params, features, mask, record=False, workspace=workspace)
    with pytest.raises(IndexError):
        pol.rollout(params, features, mask).path(features.shape[0])


def test_a_reused_workspace_allocates_almost_nothing():
    # The default width and the desk's 63 steps: the gate weights go into
    # the workspace's buffers too, so what a reused unroll allocates is its
    # actions plus one step's temporaries, the largest of them the (H, cols)
    # buffer, 32 KB here, that a broadcasting ufunc takes.
    config = pol.PolicyConfig(action_dim=3)
    rng = np.random.default_rng(19)
    params = pol.init_params(config, rng)
    features, mask, _, _ = _random_problem(rng, config, n=128, n_steps=63)
    workspace = pol.Workspace()

    def peak_bytes():
        tracemalloc.start()
        try:
            pol.rollout(params, features, mask, workspace=workspace)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    first = peak_bytes()
    actions = 128 * 63 * config.action_dim * 8
    assert actions < peak_bytes() < actions + 64 * 1024 < 0.01 * first


def test_a_recorded_unroll_keeps_no_residual_stream():
    # Every buffer at exactly its field's size: the residual stream has one
    # slot per block, not one per step, and is rebuilt where it is read.
    rng = np.random.default_rng(20)
    params = pol.init_params(ORACLE, rng)
    n, n_steps = 13, 7
    features, mask, _, _ = _random_problem(rng, ORACLE, n=n, n_steps=n_steps)
    workspace = pol.Workspace()
    result = pol.rollout(params, features, mask, workspace=workspace)
    h, d, f, b = ORACLE.hidden, ORACLE.action_dim, ORACLE.n_features, ORACLE.n_blocks
    per_column = {"x_in": (n_steps + 1) * (f + d + 1), "res": (b + 1) * (h + 1),
                  "r": n_steps * b, "aug": (n_steps + 1) * b * (2 * h + 1),
                  "gates": n_steps * b * 4 * h, "c": (n_steps + 1) * b * h,
                  "tanh_c": n_steps * b * h, "e": n_steps * d}
    (cache,) = workspace._caches
    sizes = {fl.name: getattr(cache, fl.name).nbytes for fl in fields(cache) if fl.name != "rows"}
    assert sizes == {name: 8 * k * 16 for name, k in per_column.items()}   # 13 paths, 16 columns
    assert [w.shape for w in workspace.cells] == [(4 * h, 2 * h + 1)] * b
    # the head's inputs, rebuilt from the stream, are the tape's
    tape = tape_rollout(params, features, mask, capture=True)
    head_inputs = _stacked_inputs(result)["head"]
    for t, want in enumerate(tape.channels["head"].activations):
        got = head_inputs[t].T
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), t


def _running(pid):
    """Whether ``pid`` is a child of this process that has not exited."""
    try:
        return os.waitpid(pid, os.WNOHANG) == (0, 0)
    except ChildProcessError:   # reaped already
        return False


def _worker_pids(result):
    """The worker processes of a recorded unroll's workspace, each running."""
    pids = [pid for pid, _ in result.workspace.workers]
    assert all(_running(pid) for pid in pids)
    return pids


def _unroll_on(monkeypatch, cpus, params, features, mask, s, column):
    """With ``cpus`` usable CPUs: forward-only actions; a recorded unroll's
    actions, sweep gradients and layer inputs, and its path ``column``
    swept alone; the thread count of each pool the unrolls made, and the
    worker processes the recorded unroll forked, which its release stops."""
    pools = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(pol, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(pol, "ThreadPoolExecutor", Pool)
    forward_only = pol.rollout(params, features, mask, record=False).actions
    recorded = pol.rollout(params, features, mask)
    workers = _worker_pids(recorded)
    grads, _ = pol.reverse_sweep(recorded, s)
    alone = _sweep(recorded.path(column), s[column:column + 1])
    got = (forward_only, recorded.actions, grads, _stacked_inputs(recorded)) + alone
    recorded.workspace.release()
    assert not any(_running(pid) for pid in workers)
    return got, pools, len(workers)


def _assert_bit_for_bit(got, want):
    """Arrays, and dicts of arrays, equal bit for bit."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, dict):
            assert g.keys() == w.keys()
            for name in w:
                assert np.array_equal(g[name], w[name]), name
        else:
            assert np.array_equal(g, w)


def test_threaded_row_blocks_give_the_serial_result(monkeypatch):
    # Bit for bit: four forward-only row blocks, the last one short, inline
    # on one CPU and on a pool of four threads switching as often as they
    # can; seven recorded ones inline, and on three worker processes beside
    # this one, layer inputs and a path of worker 1's block included.
    rng = np.random.default_rng(21)
    params = pol.init_params(ORACLE, rng)
    n = 3 * pol.ROW_BLOCK + 5
    features, mask, _, _ = _random_problem(rng, ORACLE, n=n, n_steps=7)
    s = rng.normal(size=(n, 7, ORACLE.action_dim))
    column = pol.RECORD_BLOCK + 3
    serial, serial_pools, serial_workers = _unroll_on(monkeypatch, 1, params, features, mask,
                                                      s, column)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        split, pools, workers = _unroll_on(monkeypatch, 4, params, features, mask, s, column)
    finally:
        sys.setswitchinterval(interval)
    assert (serial_pools, serial_workers) == ([], 0)
    assert (pools, workers) == ([4], 3)   # the forward-only pool; the recorded unroll's workers
    _assert_bit_for_bit(split, serial)


def _recorded_on(monkeypatch, cpus, params, features, mask, s, column):
    """``_sweep`` of a recorded unroll with ``cpus`` usable CPUs, then of its
    path ``column``, and the worker processes it forked, which its release
    stops."""
    monkeypatch.setattr(pol, "_usable_cpus", lambda: cpus)
    result = pol.rollout(params, features, mask)
    workers = _worker_pids(result)
    got = _sweep(result, s) + _sweep(result.path(column), s[column:column + 1])
    result.workspace.release()
    assert not any(_running(pid) for pid in workers)
    return got, len(workers)


def test_threaded_sweep_gives_the_serial_result(monkeypatch):
    # Bit for bit: five recorded row blocks, the last one short, unrolled
    # and swept inline on one CPU and on three workers beside this process,
    # a path of worker 3's block included.
    rng = np.random.default_rng(23)
    params = pol.init_params(ORACLE, rng)
    n = 2 * pol.ROW_BLOCK + 5
    assert -(-n // pol.RECORD_BLOCK) == 5
    features, mask, _, _ = _random_problem(rng, ORACLE, n=n, n_steps=7)
    s = rng.normal(size=(n, 7, ORACLE.action_dim))
    column = 3 * pol.RECORD_BLOCK + 1
    split, workers = _recorded_on(monkeypatch, 4, params, features, mask, s, column)
    serial, serial_workers = _recorded_on(monkeypatch, 1, params, features, mask, s, column)
    assert (workers, serial_workers) == (3, 0)
    _assert_bit_for_bit(split, serial)


def test_threaded_sweeps_repeat_bit_for_bit(monkeypatch):
    # Five unroll-and-sweep calls into one workspace give one result on the
    # same three workers, which its release stops; no thread is left.
    monkeypatch.setattr(pol, "_usable_cpus", lambda: 4)
    rng = np.random.default_rng(24)
    params = pol.init_params(ORACLE, rng)
    n = 3 * pol.RECORD_BLOCK + 5
    features, mask, _, _ = _random_problem(rng, ORACLE, n=n, n_steps=7)
    s = rng.normal(size=(n, 7, ORACLE.action_dim))
    column = 3 * pol.RECORD_BLOCK + 4
    threads = threading.active_count()
    workspace = pol.Workspace()
    runs, workers = [], []
    for _ in range(5):
        result = pol.rollout(params, features, mask, workspace=workspace)
        workers.append(_worker_pids(result))
        runs.append(_sweep(result, s) + _sweep(result.path(column), s[column:column + 1]))
    assert len(workers[0]) == 3 and all(w == workers[0] for w in workers)
    workspace.release()
    assert not any(_running(pid) for pid in workers[0])
    assert threading.active_count() == threads
    for run in runs[1:]:
        _assert_bit_for_bit(run, runs[0])


@pytest.mark.parametrize("record", [False, True])
def test_threaded_row_blocks_raise_the_first_blocks_error(monkeypatch, record):
    # Block 2 fails long before block 1, yet the error is block 1's, as in
    # the serial loop, and no pool thread or worker outlives a call. Recorded,
    # the failing blocks are 2 (a worker's) and 4 (this process's).
    monkeypatch.setattr(pol, "_usable_cpus", lambda: 4)
    rng = np.random.default_rng(22)
    params = pol.init_params(ORACLE, rng)
    n = 3 * pol.ROW_BLOCK + 5
    features, mask, _, _ = _random_problem(rng, ORACLE, n=n, n_steps=40)
    threads = threading.active_count()
    pol.rollout(params, features, mask, record=record)
    assert threading.active_count() == threads
    assert child_pids() == []
    features[pol.ROW_BLOCK + 7, 30] = np.nan
    features[2 * pol.ROW_BLOCK + 1, 1] = np.nan
    with pytest.raises(dc.DiffError, match="^non-finite action at step 30$"):
        pol.rollout(params, features, mask, record=record)
    assert threading.active_count() == threads
    assert child_pids() == []


def test_a_block_failing_in_a_worker_raises_the_lowest_failing_blocks_error(monkeypatch):
    # Four recorded blocks on this process and three workers: blocks 1 and 3
    # fail in their workers, block 3 first, and the error is block 1's. A
    # non-finite gradient in worker 2's block is named by the finite check
    # on the sum. The workspace keeps its workers and gives the serial
    # result after each failure.
    monkeypatch.setattr(pol, "_usable_cpus", lambda: 4)
    rng = np.random.default_rng(25)
    params = pol.init_params(ORACLE, rng)
    n = 4 * pol.RECORD_BLOCK
    features, mask, _, _ = _random_problem(rng, ORACLE, n=n, n_steps=12)
    s = rng.normal(size=(n, 12, ORACLE.action_dim))
    bad = features.copy()
    bad[pol.RECORD_BLOCK + 5, 9] = np.nan
    bad[3 * pol.RECORD_BLOCK + 2, 1] = np.nan
    workspace = pol.Workspace()
    with pytest.raises(dc.DiffError, match="^non-finite action at step 9$"):
        pol.rollout(params, bad, mask, workspace=workspace)
    workers = [pid for pid, _ in workspace.workers]
    assert len(workers) == 3 and all(_running(pid) for pid in workers)
    result = pol.rollout(params, features, mask, workspace=workspace)
    split = _sweep(result, s)
    seed = s.copy()
    seed[2 * pol.RECORD_BLOCK + 7, 0, 0] = np.inf
    with pytest.raises(dc.DiffError, match="non-finite gradient of parameter 'embed'$"):
        pol.reverse_sweep(result, seed)
    _assert_bit_for_bit(_sweep(result, s), split)
    assert [pid for pid, _ in workspace.workers] == workers
    workspace.release()
    monkeypatch.setattr(pol, "_usable_cpus", lambda: 1)
    _assert_bit_for_bit(split, _sweep(pol.rollout(params, features, mask), s))


def test_workers_live_exactly_as_long_as_their_caches(monkeypatch):
    # Release, a reallocation, and the collection of a workspace each stop
    # and reap its workers; a same-shape unroll keeps them. One row block,
    # or one usable CPU, forks none.
    monkeypatch.setattr(pol, "_usable_cpus", lambda: 2)
    rng = np.random.default_rng(26)
    params = pol.init_params(TINY, rng)
    features, mask, _, _ = _random_problem(rng, TINY, n=2 * pol.RECORD_BLOCK, n_steps=3)
    workspace = pol.Workspace()
    first = _worker_pids(pol.rollout(params, features, mask, workspace=workspace))
    assert len(first) == 1
    assert _worker_pids(pol.rollout(params, features, mask, workspace=workspace)) == first
    second = _worker_pids(pol.rollout(params, features[:-1], mask, workspace=workspace))
    assert len(second) == 1 and not _running(first[0])
    workspace.release()
    assert workspace.workers == [] and not _running(second[0])
    third = _worker_pids(pol.rollout(params, features, mask))   # a workspace of its own
    assert len(third) == 1 and not _running(third[0])   # collected with its result
    assert pol.rollout(params, features[:pol.RECORD_BLOCK], mask).workspace.workers == []
    monkeypatch.setattr(pol, "_usable_cpus", lambda: 1)
    assert pol.rollout(params, features, mask).workspace.workers == []


def test_a_worker_exits_when_its_pipe_closes(monkeypatch):
    # Nothing but EOF on its command pipe, as when this process dies.
    monkeypatch.setattr(pol, "_usable_cpus", lambda: 2)
    rng = np.random.default_rng(27)
    params = pol.init_params(TINY, rng)
    features, mask, _, _ = _random_problem(rng, TINY, n=pol.RECORD_BLOCK + 1, n_steps=3)
    workspace = pol.Workspace()
    pol.rollout(params, features, mask, workspace=workspace)
    (pid, conn), = workspace.workers
    conn.close()
    deadline = time.monotonic() + 10.0
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _running(pid)
    workspace.release()


def test_rollout_validates_shapes():
    params = pol.init_params(TINY, np.random.default_rng(9))
    with pytest.raises(ValueError):
        pol.rollout(params, np.zeros((2, 3, 5)), np.ones((3, 3)))
    with pytest.raises(ValueError):
        pol.rollout(params, np.zeros((2, 3, 6)), np.ones((4, 3)))
    forward_only = pol.rollout(params, np.zeros((2, 3, 6)), np.ones((3, 3)), record=False)
    with pytest.raises(ValueError, match="forward-only"):   # the sweep needs the caches
        pol.reverse_sweep(forward_only, np.zeros((2, 3, 3)))
    recorded = pol.rollout(params, np.zeros((2, 3, 6)), np.ones((3, 3)))
    with pytest.raises(ValueError, match="seed shape"):
        pol.reverse_sweep(recorded, np.zeros((2, 4, 3)))


def test_a_non_finite_gradient_names_its_parameter():
    rng = np.random.default_rng(11)
    params = pol.init_params(TINY, rng)
    features, mask, _, _ = _random_problem(rng, TINY)
    result = pol.rollout(params, features, mask)
    seed = np.zeros(result.actions.shape)
    seed[0, -1, 0] = np.inf
    with pytest.raises(dc.DiffError, match="non-finite gradient of parameter 'embed'$"):
        pol.reverse_sweep(result, seed)
