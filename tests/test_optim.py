import tracemalloc

import numpy as np
import pytest

from deephedge import contracts as ct
from deephedge import diffcore as dc
from deephedge import optim as op
from deephedge import policy as pol
from oracles import central_diff_jacobian, inner_hessian_dense, tape_inner, tape_rollout


def make_optimizer(seed=0, config=None, action_dim=3):
    cfg = pol.PolicyConfig(action_dim=action_dim, hidden=4, n_blocks=2)
    params = pol.init_params(cfg, np.random.default_rng(seed))
    return params, op.KfacOptimizer(params, config or op.KfacConfig())


def factored_blocks(kfac):
    """The weight-matrix blocks: every block but the RMSNorm gains."""
    return [b for b in kfac.blocks.values() if b.a_cov is not None]


# ---------------------------------------------------------------------------
# factor updates


def _random_step_inputs(params, rng, batch, n_steps):
    """Per step, each Kronecker block's (in + 1, batch) inputs, as a
    recorded unroll's ``step_inputs`` yields them."""
    return [{name: rng.normal(size=(params.values[name].shape[1], batch))
             for name in params.kronecker_names} for _ in range(n_steps)]


def test_update_a_degenerate_ema_replaces():
    params, kfac = make_optimizer(config=op.KfacConfig(beta_factor=0.0))
    steps = _random_step_inputs(params, np.random.default_rng(1), 5, 3)
    kfac.update_input_stats(steps)
    want = sum(s["embed"] @ s["embed"].T for s in steps) / (5 * np.sqrt(3))
    got = kfac.blocks["embed"].a_cov
    assert np.abs(got - want).max() < 1e-14


def test_update_a_constant_unit_activation():
    # a_t = e1 over four steps, batch of one: contribution 4 / sqrt(4) = 2 e1 e1^T
    params, kfac = make_optimizer(config=op.KfacConfig(beta_factor=0.0))
    inputs = {}
    for name in params.kronecker_names:
        e1 = np.zeros((params.values[name].shape[1], 1))
        e1[0, 0] = 1.0
        inputs[name] = e1
    kfac.update_input_stats([inputs] * 4)
    a = kfac.blocks["embed"].a_cov
    want = np.zeros_like(a)
    want[0, 0] = 2.0
    assert np.abs(a - want).max() < 1e-15


def test_a_stays_symmetric_psd_under_random_updates():
    params, kfac = make_optimizer()
    rng = np.random.default_rng(3)
    for _ in range(100):
        kfac.update_input_stats(_random_step_inputs(params, rng, 4, 3))
    for curve in factored_blocks(kfac):
        a = curve.a_cov
        assert np.abs(a - a.T).max() < 1e-12
        assert np.linalg.eigvalsh(a).min() >= -1e-12


def _check_a_against_the_tape(n):
    """A from a recorded unroll of ``n`` paths is the sum over steps of the
    tape's hook captures' second moments, scaled by batch size and sqrt(T)."""
    params, kfac = make_optimizer(config=op.KfacConfig(beta_factor=0.0))
    rng = np.random.default_rng(2)
    features = rng.normal(size=(n, 4, params.config.n_features))
    mask = np.ones((4, params.config.action_dim))
    result = pol.rollout(params, features, mask)
    assert len(result.caches) == -(-n // pol.RECORD_BLOCK)
    kfac.update_input_stats(result.step_inputs())
    channels = tape_rollout(params, features, mask, capture=True).channels
    for name, channel in channels.items():
        want = sum(a.T @ a for a in channel.activations) / (n * np.sqrt(4))
        got = kfac.blocks[name].a_cov
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


def test_update_a_reads_the_batch_layer_inputs():
    _check_a_against_the_tape(6)


def test_update_a_joins_the_row_blocks_of_a_batch():
    _check_a_against_the_tape(pol.RECORD_BLOCK + 37)


def test_input_factors_do_not_depend_on_the_row_blocks(monkeypatch):
    # Bit for bit: a batch of 512 in two recorded row blocks gives the A
    # it gives unrolled as one block, so KFAC's eigenbases, which turn
    # with the last bit of A (ROADMAP item 13), do not depend on them.
    rng = np.random.default_rng(5)
    features = rng.normal(size=(512, 4, pol.PolicyConfig.n_features))
    factors = []
    for block in (pol.RECORD_BLOCK, 512):
        monkeypatch.setattr(pol, "RECORD_BLOCK", block)
        params, kfac = make_optimizer(config=op.KfacConfig(beta_factor=0.0))
        result = pol.rollout(params, features, np.ones((4, params.config.action_dim)))
        kfac.update_input_stats(result.step_inputs())
        factors.append({name: b.a_cov for name, b in kfac.blocks.items() if b.a_cov is not None})
    assert factors[0].keys() == factors[1].keys()
    for name, a in factors[0].items():
        assert np.array_equal(a, factors[1][name]), name


def test_input_factors_join_row_blocks_one_step_at_a_time():
    # At desk shape (63 steps, a batch of 512 in two row blocks, width 32)
    # the update joins the row blocks one step at a time: it takes less
    # than the smallest layer's inputs joined over every step would, and
    # keeping every layer's over every step would take twenty times that.
    config = pol.PolicyConfig(action_dim=9)
    params = pol.init_params(config, np.random.default_rng(6))
    kfac = op.KfacOptimizer(params, op.KfacConfig())
    rng = np.random.default_rng(7)
    n, n_steps = 512, 63
    features = rng.normal(size=(n, n_steps, config.n_features))
    result = pol.rollout(params, features, np.ones((n_steps, config.action_dim)))
    tracemalloc.start()
    try:
        kfac.update_input_stats(result.step_inputs())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    embed_join = n_steps * n * (config.n_features + config.action_dim + 1) * 8
    assert peak < embed_join


# ---------------------------------------------------------------------------
# pseudo-gradients


# A one-block policy of width 2 with an unscaled head: 66 parameters.
TINY_POLICY = pol.PolicyConfig(action_dim=2, hidden=2, n_blocks=1, head_scale=1.0)


def _one_path(seed):
    """Initial parameters, and the features and mask of one three-step path
    whose option is struck out at the last step."""
    rng = np.random.default_rng(seed)
    params = pol.init_params(TINY_POLICY, rng)
    features = rng.normal(size=(1, 3, TINY_POLICY.n_features)) * 0.5
    mask = np.ones((3, 2))
    mask[2, 1] = 0.0
    return params, features, mask


def _pseudo_gradient(params, features, mask, hessian, rng) -> np.ndarray:
    """All parameter pseudo-gradients, flattened in the order of ``params.values``."""
    grads, _ = op.pseudo_backward(pol.rollout(params, features, mask), hessian, rng)
    assert grads.keys() == params.values.keys()
    return np.concatenate([g.ravel() for g in grads.values()])


def test_pseudo_backward_zero_target_gives_zero():
    params, features, mask = _one_path(4)
    h = ct.InnerHessian(gamma=0.0, r_vec=np.zeros(6), diag=np.zeros(6))
    g = _pseudo_gradient(params, features, mask, h, np.random.default_rng(4))
    assert g.size == 66 and np.all(g == 0.0)


def test_pseudo_backward_matches_the_tape():
    # The backward pass of <s, u> on the tape, with the same draw of s.
    params, features, mask = _one_path(3)
    rng = np.random.default_rng(3)
    returns = rng.normal(size=(3, 2)) * 0.1
    returns[mask == 0.0] = 0.0
    h = ct.inner_hessian(returns, gamma=50.0, costs=ct.CostSpec())
    grads, captured = op.pseudo_backward(pol.rollout(params, features, mask), h,
                                         np.random.default_rng(9))
    s = ct.sample_pseudo_target(h, np.random.default_rng(9)).reshape(1, 3, 2)
    tape = tape_rollout(params, features, mask, capture=True)
    want = dc.backward(tape_inner(tape.action_nodes, s), hooks=tape.channels.values())
    assert grads.keys() == want.keys() and captured.keys() == tape.channels.keys()
    for name, w in want.items():
        assert np.abs(grads[name] - w).max() <= 1e-12 * np.abs(w).max(), name
    for name, channel in tape.channels.items():
        assert captured[name].shape == (3, params.values[name].shape[0], 1)
        for g, w in zip(captured[name], channel.grads, strict=True):
            assert np.abs(g.T - w).max() <= 1e-12 * np.abs(w).max(), name


def test_pseudo_backward_linear_in_target():
    params, features, mask = _one_path(5)
    r = np.random.default_rng(5).normal(size=6) * 0.1

    class FixedRng:
        def __init__(self, z0):
            self.z0 = z0

        def standard_normal(self, size=None):
            if size is None:
                return self.z0
            return np.zeros(size)

    h = ct.InnerHessian(gamma=0.5, r_vec=r, diag=np.zeros(6))
    g1 = _pseudo_gradient(params, features, mask, h, FixedRng(1.0))
    g2 = _pseudo_gradient(params, features, mask, h, FixedRng(2.0))
    assert np.abs(g1).max() > 0.0 and np.allclose(g2, 2.0 * g1, rtol=0.0, atol=1e-15)


def test_a_pseudo_path_read_from_its_batch_is_the_path_unrolled_alone():
    # Bit for bit, at the edges of the column groups of a 13-path batch
    # of a policy wide enough for BLAS's edge kernels to round differently.
    config = pol.PolicyConfig(action_dim=3, hidden=8, n_blocks=4, head_scale=0.1)
    rng = np.random.default_rng(10)
    params = pol.init_params(config, rng)
    features = rng.normal(size=(13, 7, config.n_features)) * 0.5 + 1.0
    mask = np.ones((7, 3))
    mask[-2:, 1] = 0.0
    returns = rng.normal(size=(7, 3)) * 0.1
    returns[mask == 0.0] = 0.0
    h = ct.inner_hessian(returns, gamma=50.0, costs=ct.CostSpec())
    batch = pol.rollout(params, features, mask, workspace=pol.Workspace())
    for i in (0, 7, 8, 12):
        got = op.pseudo_backward(batch.paths([i]), h, np.random.default_rng(i))
        want = op.pseudo_backward(pol.rollout(params, features[i:i + 1], mask), h,
                                  np.random.default_rng(i))
        assert got[0].keys() == want[0].keys() and got[1].keys() == want[1].keys()
        for name, w in want[0].items():
            assert np.array_equal(got[0][name], w), (i, name)
        for name, w in want[1].items():
            assert np.array_equal(got[1][name], w), (i, name)
    with pytest.raises(ValueError, match="one path"):
        op.pseudo_backward(batch, h, np.random.default_rng(0))


def _covariance_within_five_standard_errors(returns_scale):
    # Core identity: Cov(pseudo-gradient) = J^T H J on the policy itself, with
    # a finite-difference Jacobian of its forward-only actions as the oracle.
    params, features, mask = _one_path(6)
    theta0 = np.concatenate([v.ravel() for v in params.values.values()])

    def actions_of(theta):
        values, at = {}, 0
        for name, v in params.values.items():
            values[name] = theta[at:at + v.size].reshape(v.shape)
            at += v.size
        p = pol.PolicyParams(TINY_POLICY, values)
        return pol.rollout(p, features, mask, record=False).actions.ravel()

    jac = central_diff_jacobian(actions_of, theta0.copy(), m=6)
    assert jac.shape == (6, 66) and np.all(jac[5] == 0.0)   # the struck-out entry

    rng = np.random.default_rng(6)
    returns = rng.normal(size=(3, 2)) * returns_scale
    returns[mask == 0.0] = 0.0
    h = ct.inner_hessian(returns, gamma=50.0, costs=ct.CostSpec(
        spot_cost=1e-3, option_cost=5e-3))
    want = jac.T @ inner_hessian_dense(h) @ jac

    n = 3_000
    srng = np.random.default_rng(7)
    samples = np.stack([_pseudo_gradient(params, features, mask, h, srng) for _ in range(n)])
    emp = samples.T @ samples / n
    prods = np.einsum("ni,nj->nij", samples, samples)
    se = prods.std(axis=0, ddof=1) / np.sqrt(n)
    assert (np.abs(emp - want) < 5 * se + 1e-12).all()


def test_pseudo_gradient_covariance_matches_gauss_newton():
    _covariance_within_five_standard_errors(returns_scale=0.1)


def test_pseudo_gradient_covariance_matches_the_cost_diagonal():
    # With zero returns H is its cost diagonal alone, which the rank-1 term
    # dwarfs in the case above: a target without the diagonal fails here.
    _covariance_within_five_standard_errors(returns_scale=0.0)


def test_update_g_and_d_identity_rotation():
    params, kfac = make_optimizer(config=op.KfacConfig(beta_scale=0.0, beta_factor=0.0))
    rng = np.random.default_rng(8)
    grads, captured = {}, {}
    for name, value in params.values.items():
        grads[name] = rng.normal(size=value.shape)
    for name in params.kronecker_names:   # three steps of two paths
        captured[name] = rng.normal(size=(3, params.values[name].shape[0], 2))
    kfac.update_output_stats(grads, captured)
    for name, block in kfac.blocks.items():
        # q factors start at the identity, so D is the squared gradient
        assert np.abs(block.scale - grads[name] ** 2).max() < 1e-15
    for name in params.kronecker_names:
        want_g = sum(g @ g.T for g in captured[name]) / np.sqrt(3)
        assert np.abs(kfac.blocks[name].g_cov - want_g).max() < 1e-14


def test_d_converges_to_stationary_second_moment():
    # EMA of squares converges to E[(Q_g^T g Q_a)^2] on an iid stream.
    params, kfac = make_optimizer(config=op.KfacConfig(beta_scale=0.9))
    rng = np.random.default_rng(9)
    name = "embed"
    shape = params.values[name].shape
    base = rng.uniform(0.5, 2.0, size=shape)
    n = 4000
    for _ in range(n):
        grads, captured = {}, {}
        for pname, value in params.values.items():
            grads[pname] = rng.normal(size=value.shape) * (base if pname == name else 1.0)
        for pname in params.kronecker_names:
            captured[pname] = rng.normal(size=(1, params.values[pname].shape[0], 1))
        kfac.update_output_stats(grads, captured)
    got = kfac.blocks[name].scale
    want = base ** 2
    # EMA with beta=0.9 has effective sample size ~19; allow 5 sigma
    rel_se = np.sqrt(2.0 * (1 - 0.9) / (1 + 0.9))
    assert (np.abs(got - want) < 5 * rel_se * want).all()


def test_g_symmetric_psd_after_updates():
    params, kfac = make_optimizer()
    rng = np.random.default_rng(10)
    for _ in range(50):
        grads, captured = {}, {}
        for name, value in params.values.items():
            grads[name] = rng.normal(size=value.shape)
        for name in params.kronecker_names:
            captured[name] = rng.normal(size=(4, params.values[name].shape[0], 1))
        kfac.update_output_stats(grads, captured)
    for curve in factored_blocks(kfac):
        g = curve.g_cov
        assert np.abs(g - g.T).max() < 1e-12
        assert np.linalg.eigvalsh(g).min() >= -1e-12


# ---------------------------------------------------------------------------
# eigenbasis


def test_eigenbasis_diagonal_matrix_gives_signed_permutation():
    params, kfac = make_optimizer()
    curve = kfac.blocks["embed"]
    d = np.diag(np.arange(1.0, curve.a_cov.shape[0] + 1.0))
    curve.a_cov = d
    curve.g_cov = np.diag(np.arange(1.0, curve.g_cov.shape[0] + 1.0))
    kfac.update_eigenbasis()
    q = kfac.blocks["embed"].q_a
    assert np.abs(np.abs(q).sum(axis=0) - 1.0).max() < 1e-9
    assert np.abs(q @ q.T - np.eye(q.shape[0])).max() < 1e-10
    assert (q.max(axis=0) > 0.99).all()  # deterministic positive signs


def test_eigenbasis_reconstructs_diagonal():
    params, kfac = make_optimizer()
    rng = np.random.default_rng(11)
    for curve in factored_blocks(kfac):
        m = rng.normal(size=curve.a_cov.shape)
        curve.a_cov = m @ m.T
        m = rng.normal(size=curve.g_cov.shape)
        curve.g_cov = m @ m.T
    kfac.update_eigenbasis()
    for curve in factored_blocks(kfac):
        rotated = curve.q_a.T @ curve.a_cov @ curve.q_a
        off = rotated - np.diag(np.diag(rotated))
        assert np.abs(off).max() < 1e-10
        assert np.abs(curve.q_a @ curve.q_a.T - np.eye(curve.q_a.shape[0])).max() < 1e-10


def test_eigenbasis_with_repeated_eigenvalues_is_orthonormal():
    params, kfac = make_optimizer()
    curve = kfac.blocks["embed"]
    n = curve.a_cov.shape[0]
    curve.a_cov = np.eye(n) * 2.0  # fully degenerate spectrum
    curve.g_cov = np.eye(curve.g_cov.shape[0])
    kfac.update_eigenbasis()
    q = curve.q_a
    assert np.abs(q @ q.T - np.eye(n)).max() < 1e-10
    assert np.abs(q.T @ curve.a_cov @ q - 2.0 * np.eye(n)).max() < 1e-10


# ---------------------------------------------------------------------------
# preconditioning


def test_unit_scale_preconditioner_is_identity():
    params, kfac = make_optimizer()
    rng = np.random.default_rng(12)
    for curve in factored_blocks(kfac):
        m = rng.normal(size=curve.a_cov.shape)
        curve.a_cov = m @ m.T
        m = rng.normal(size=curve.g_cov.shape)
        curve.g_cov = m @ m.T
    kfac.update_eigenbasis()
    for curve in kfac.blocks.values():
        curve.scale = np.ones_like(curve.scale)
    grads = {k: rng.normal(size=v.shape) for k, v in params.values.items()}
    pre = kfac.precondition(grads)
    for name in grads:
        assert np.abs(pre[name] - grads[name]).max() < 1e-12


def test_preconditioner_matches_dense_inverse():
    # rotate/divide/rotate equals (Q D Q^T)^{-1} vec(grad) on a small block
    rng = np.random.default_rng(13)
    n_out, n_in = 3, 4
    m = rng.normal(size=(n_in, n_in))
    a_cov = m @ m.T
    m = rng.normal(size=(n_out, n_out))
    g_cov = m @ m.T
    q_a = op._sym_eigh_with_sign(a_cov)
    q_g = op._sym_eigh_with_sign(g_cov)
    scale = rng.uniform(0.5, 3.0, size=(n_out, n_in))
    rho = 5e-4
    grad = rng.normal(size=(n_out, n_in))

    rotated = q_g.T @ grad @ q_a
    rotated /= op.damped_scale(scale, rho)
    fast = q_g @ rotated @ q_a.T

    q_dense = np.kron(q_a, q_g)  # column-major vec convention
    d_vec = op.damped_scale(scale, rho).reshape(-1, order="F")
    dense = q_dense @ np.diag(d_vec) @ q_dense.T
    want = np.linalg.solve(dense, grad.reshape(-1, order="F")).reshape((n_out, n_in), order="F")
    assert np.abs(fast - want).max() < 1e-12


def test_kronecker_inverse_identity_undamped():
    # B^{-1} vec(V) = vec(G^{-1} V A^{-1}) for B = A (x) G
    rng = np.random.default_rng(14)
    n_out, n_in = 3, 2
    m = rng.normal(size=(n_in, n_in))
    a = m @ m.T + np.eye(n_in)
    m = rng.normal(size=(n_out, n_out))
    g = m @ m.T + np.eye(n_out)
    v = rng.normal(size=(n_out, n_in))
    via_kron = np.linalg.solve(np.kron(a, g), v.reshape(-1, order="F"))
    via_factors = (np.linalg.solve(g, v) @ np.linalg.inv(a)).reshape(-1, order="F")
    assert np.abs(via_kron - via_factors).max() < 1e-10


def test_shrinkage_preserves_trace_exactly():
    rng = np.random.default_rng(15)
    scale = rng.uniform(0.0, 5.0, size=(6, 7))
    damped = op.damped_scale(scale, 5e-4)
    assert abs(damped.sum() - scale.sum()) < 1e-12 * max(scale.sum(), 1.0)
    assert (damped > 0).all() or scale.sum() == 0.0


def test_preconditioned_inner_product_positive():
    params, kfac = make_optimizer()
    rng = np.random.default_rng(16)
    for curve in kfac.blocks.values():
        if curve.a_cov is not None:
            m = rng.normal(size=curve.a_cov.shape)
            curve.a_cov = m @ m.T
            m = rng.normal(size=curve.g_cov.shape)
            curve.g_cov = m @ m.T
        curve.scale = rng.uniform(0.1, 2.0, size=curve.scale.shape)
    kfac.update_eigenbasis()
    for _ in range(1000):
        grads = {k: rng.normal(size=v.shape) for k, v in params.values.items()}
        pre = kfac.precondition(grads)
        inner = sum(float((pre[k] * grads[k]).sum()) for k in grads)
        assert inner > 0.0


def test_gauge_invariance_under_eigenvector_sign_flips():
    rng = np.random.default_rng(17)
    n_out, n_in = 4, 3
    m = rng.normal(size=(n_in, n_in))
    q_a = np.linalg.qr(m)[0]
    m = rng.normal(size=(n_out, n_out))
    q_g = np.linalg.qr(m)[0]
    scale = rng.uniform(0.5, 2.0, size=(n_out, n_in))
    grad = rng.normal(size=(n_out, n_in))

    def run(qa, qg):
        rot = qg.T @ grad @ qa
        rot /= op.damped_scale(scale, 5e-4)
        return qg @ rot @ qa.T

    flip_a = np.diag([1, -1, 1])
    flip_g = np.diag([-1, 1, 1, -1])
    assert np.abs(run(q_a, q_g) - run(q_a @ flip_a, q_g @ flip_g)).max() < 1e-12


def test_dead_block_raises():
    params, kfac = make_optimizer()
    grads = {k: np.ones_like(v) for k, v in params.values.items()}
    with pytest.raises(op.OptimError, match="dead curvature block"):
        kfac.precondition(grads)


def test_ekfac_scales_beat_kronecker_eigenvalues():
    # For sums of Kronecker products, re-estimated diagonal scales give a
    # Frobenius error no worse than the factored eigenvalues, always.
    rng = np.random.default_rng(18)
    for trial in range(20):
        a_parts = []
        g_parts = []
        for _ in range(3):
            m = rng.normal(size=(3, 3))
            a_parts.append(m @ m.T)
            m = rng.normal(size=(2, 2))
            g_parts.append(m @ m.T)
        b = sum(np.kron(a_j, g_j) for a_j, g_j in zip(a_parts, g_parts))
        a = sum(a_parts)
        g = sum(g_parts)
        ea, q_a = np.linalg.eigh(a)
        eg, q_g = np.linalg.eigh(g)
        q = np.kron(q_a, q_g)
        d_kron = np.kron(np.diag(ea), np.diag(eg)).diagonal()
        d_star = np.einsum("ij,jk,ki->i", q.T, b, q)
        err_kron = np.linalg.norm(b - q @ np.diag(d_kron) @ q.T)
        err_star = np.linalg.norm(b - q @ np.diag(d_star) @ q.T)
        assert err_star <= err_kron + 1e-12


# ---------------------------------------------------------------------------
# trust-region step


def test_trust_region_step_size_formula():
    params, kfac = make_optimizer(config=op.KfacConfig(
        tr_init=1e-3, eta_max=1.0, beta_momentum=0.0))
    for curve in kfac.blocks.values():
        curve.scale = np.ones_like(curve.scale)
    # gradient with squared norm 4 in a single entry
    grads = {k: np.zeros_like(v) for k, v in params.values.items()}
    grads["embed"][0, 0] = 2.0
    # identity preconditioner here (unit scales, identity bases)
    eta = kfac.apply_step(params, grads)
    assert eta == pytest.approx(np.sqrt(1e-3 / 4.0), rel=1e-12)
    assert eta == pytest.approx(0.015811, abs=1e-6)
    assert kfac.rho_tr == pytest.approx(1e-3 * 0.997)


def test_trust_region_caps_at_eta_max():
    params, kfac = make_optimizer(config=op.KfacConfig(eta_max=0.5))
    for curve in kfac.blocks.values():
        curve.scale = np.ones_like(curve.scale)
    grads = {k: np.full_like(v, 1e-9) for k, v in params.values.items()}
    eta = kfac.apply_step(params, grads)
    assert eta == 0.5


def test_momentum_off_gives_plain_step():
    params, kfac = make_optimizer(config=op.KfacConfig(
        beta_momentum=0.0, eta_max=1e-4, tr_init=1e-3))
    before = {k: v.copy() for k, v in params.values.items()}
    for curve in kfac.blocks.values():
        curve.scale = np.ones_like(curve.scale)
    grads = {k: np.ones_like(v) for k, v in params.values.items()}
    pre = kfac.precondition(grads)
    eta = kfac.apply_step(params, grads)
    for k in before:
        assert np.allclose(params.values[k], before[k] - eta * pre[k])


def test_identity_basis_ablation_is_diagonal_method():
    cfg = op.KfacConfig(identity_basis=True)
    params, kfac = make_optimizer(config=cfg)
    assert not kfac.wants_eigenbasis
    rng = np.random.default_rng(19)
    for curve in kfac.blocks.values():
        curve.scale = rng.uniform(0.5, 2.0, size=curve.scale.shape)
    grads = {k: rng.normal(size=v.shape) for k, v in params.values.items()}
    pre = kfac.precondition(grads)
    for name, curve in kfac.blocks.items():
        want = grads[name] / op.damped_scale(curve.scale, cfg.shrinkage)
        assert np.abs(pre[name] - want).max() < 1e-14


def test_gain_blocks_have_no_factors_and_keep_identity_bases():
    params, kfac = make_optimizer()
    rng = np.random.default_rng(24)
    for curve in factored_blocks(kfac):
        m = rng.normal(size=curve.a_cov.shape)
        curve.a_cov = m @ m.T
        m = rng.normal(size=curve.g_cov.shape)
        curve.g_cov = m @ m.T
    kfac.update_eigenbasis()
    gains = [name for name in params.values if name not in params.kronecker_names]
    assert gains == ["block0.gain", "block1.gain"]
    for name in gains:
        block = kfac.blocks[name]
        assert block.a_cov is None and block.g_cov is None
        assert np.array_equal(block.q_a, np.eye(4)) and np.array_equal(block.q_g, np.eye(1))
    assert not np.array_equal(kfac.blocks["embed"].q_a, np.eye(10))


# ---------------------------------------------------------------------------
# checkpoint state


def test_state_records_layout_and_roundtrip():
    # the names and shapes a checkpoint holds; changing them needs a new
    # STATE_VERSION
    params, kfac = make_optimizer()
    weights = {"embed": (4, 10), "block0.lstm": (16, 9), "block1.lstm": (16, 9),
               "head": (3, 5)}
    want = {"opt/rho_tr": (1, 1), "opt/step": (1, 1)}
    for name, (n_out, n_in) in weights.items():
        want.update({f"opt/{name}/a_cov": (n_in, n_in), f"opt/{name}/g_cov": (n_out, n_out),
                     f"opt/{name}/q_a": (n_in, n_in), f"opt/{name}/q_g": (n_out, n_out),
                     f"opt/{name}/scale": (n_out, n_in),
                     f"opt/{name}/momentum": (n_out, n_in)})
    for name in ("block0.gain", "block1.gain"):
        want.update({f"opt/{name}/scale": (1, 4), f"opt/{name}/momentum": (1, 4)})
    records = kfac.state_records()
    assert {k: v.shape for k, v in records.items()} == want
    assert kfac.STATE_VERSION == 1

    rng = np.random.default_rng(25)
    saved = {k: rng.normal(size=v.shape) for k, v in records.items()}
    saved["opt/step"] = np.array([[7.0]])
    _, fresh = make_optimizer()
    fresh.load_state_records(saved)
    assert fresh.step_count == 7
    assert all(np.array_equal(v, saved[k]) for k, v in fresh.state_records().items())


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_no_change():
    cfg = pol.PolicyConfig(action_dim=3, hidden=4, n_blocks=1)
    params = pol.init_params(cfg, np.random.default_rng(20))
    before = {k: v.copy() for k, v in params.values.items()}
    adam = op.AdamOptimizer(params, op.AdamConfig())
    adam.apply_step(params, {k: np.zeros_like(v) for k, v in params.values.items()})
    for k in before:
        assert np.array_equal(params.values[k], before[k])


def test_adam_constant_gradient_approaches_sign_step():
    cfg = pol.PolicyConfig(action_dim=2, hidden=4, n_blocks=1)
    params = pol.init_params(cfg, np.random.default_rng(21))
    aconf = op.AdamConfig(lr_peak=1e-3, warmup_iters=1, lr_decay=1.0, clip_norm=1e9)
    adam = op.AdamOptimizer(params, aconf)
    g = {k: np.full_like(v, 0.5) for k, v in params.values.items()}
    for _ in range(2000):
        adam.apply_step(params, g)
    before = {k: v.copy() for k, v in params.values.items()}
    adam.apply_step(params, g)
    for k in before:
        step = before[k] - params.values[k]
        assert np.abs(step - 1e-3 * np.sign(g[k])).max() < 1e-6


def test_adam_clips_gradient_norm_before_moments():
    cfg = pol.PolicyConfig(action_dim=2, hidden=4, n_blocks=1)
    params = pol.init_params(cfg, np.random.default_rng(22))
    adam = op.AdamOptimizer(params, op.AdamConfig(clip_norm=1.0))
    g = {k: np.zeros_like(v) for k, v in params.values.items()}
    g["head"][0, 0] = 10.0
    adam.apply_step(params, g)
    # after clipping, the first moment sees 1.0, not 10.0
    assert abs(adam.m["head"][0, 0] - (1 - 0.9) * 1.0) < 1e-12


def test_adam_schedule_warmup_then_decay():
    cfg = pol.PolicyConfig(action_dim=2, hidden=4, n_blocks=1)
    params = pol.init_params(cfg, np.random.default_rng(23))
    aconf = op.AdamConfig(lr_peak=1e-2, warmup_iters=4, lr_decay=0.9)
    adam = op.AdamOptimizer(params, aconf)
    lrs = []
    g = {k: np.zeros_like(v) for k, v in params.values.items()}
    for _ in range(7):
        lrs.append(adam.learning_rate())
        adam.apply_step(params, g)
    assert np.allclose(lrs[:4], [2.5e-3, 5e-3, 7.5e-3, 1e-2])
    assert np.allclose(lrs[4:], [1e-2 * 0.9, 1e-2 * 0.81, 1e-2 * 0.729])
