import numpy as np
import pytest

from deephedge import contracts as ct
from deephedge import diffcore as dc
from deephedge import optim as op
from deephedge import policy as pol
from oracles import central_diff_jacobian, inner_hessian_dense


def make_optimizer(seed=0, config=None, action_dim=3):
    cfg = pol.PolicyConfig(action_dim=action_dim, hidden=4, n_blocks=2)
    params = pol.init_params(cfg, np.random.default_rng(seed))
    return params, op.KfacOptimizer(params, config or op.KfacConfig())


# ---------------------------------------------------------------------------
# factor updates


def test_update_a_degenerate_ema_replaces():
    params, kfac = make_optimizer(config=op.KfacConfig(beta_factor=0.0))
    rng = np.random.default_rng(1)
    width = params.values["embed"].shape[1]
    chan = dc.HookChannel("embed")
    acts = [rng.normal(size=(5, width)) for _ in range(3)]
    chan.activations.extend(acts)
    channels = {name: dc.HookChannel(name) for name in params.kronecker_names}
    channels["embed"] = chan
    for name, c in channels.items():
        if name != "embed":
            shape = params.values[name].shape[1]
            c.activations.append(rng.normal(size=(5, shape)))
    kfac.update_input_stats(channels, batch_size=5)
    want = sum(a.T @ a for a in acts) / (5 * np.sqrt(3))
    got = kfac.blocks["embed"].a_cov
    assert np.abs(got - want).max() < 1e-14


def test_update_a_constant_unit_activation():
    # a_t = e1 over four steps, batch of one: contribution 4 / sqrt(4) = 2 e1 e1^T
    params, kfac = make_optimizer(config=op.KfacConfig(beta_factor=0.0))
    channels = {}
    for name in params.kronecker_names:
        width = params.values[name].shape[1]
        chan = dc.HookChannel(name)
        e1 = np.zeros((1, width))
        e1[0, 0] = 1.0
        chan.activations.extend([e1] * 4)
        channels[name] = chan
    kfac.update_input_stats(channels, batch_size=1)
    a = kfac.blocks["embed"].a_cov
    want = np.zeros_like(a)
    want[0, 0] = 2.0
    assert np.abs(a - want).max() < 1e-15


def test_a_stays_symmetric_psd_under_random_updates():
    params, kfac = make_optimizer()
    rng = np.random.default_rng(3)
    for _ in range(100):
        channels = {}
        for name in params.kronecker_names:
            width = params.values[name].shape[1]
            chan = dc.HookChannel(name)
            chan.activations.extend(rng.normal(size=(4, width)) for _ in range(3))
            channels[name] = chan
        kfac.update_input_stats(channels, batch_size=4)
    for curve in kfac.blocks.values():
        a = curve.a_cov
        assert np.abs(a - a.T).max() < 1e-12
        assert np.linalg.eigvalsh(a).min() >= -1e-12


# ---------------------------------------------------------------------------
# pseudo-gradients


def _toy_rollout_factory(features, mask):
    """12-parameter action-recurrent toy model built on the tape engine:
    u_t = symexp(W [f_t; u_{t-1}; 1]) with d = 2, three features."""
    n_steps = features.shape[0]

    def rollout_fn(params: pol.PolicyParams):
        tape = dc.Tape()
        w = tape.parameter("w", params.values["w"])
        chan = dc.HookChannel("w")
        u = tape.constant(np.zeros((1, 2)))
        mask_nodes = [tape.constant(mask[t:t + 1]) for t in range(n_steps)]
        actions = []
        for t in range(n_steps):
            f_t = tape.constant(features[t:t + 1])
            u = dc.multiply(dc.symexp(dc.affine(dc.concat([f_t, u]), w, channel=chan)),
                            mask_nodes[t])
            actions.append(u)
        return pol.RolloutResult(tape=tape, action_nodes=actions, channels={"w": chan})

    return rollout_fn


class _ToyParams:
    def __init__(self, w):
        self.values = {"w": w}
        self.kronecker_names = ["w"]
        self.diagonal_names = []


def test_pseudo_backward_zero_target_gives_zero():
    rng = np.random.default_rng(4)
    features = rng.normal(size=(3, 3)) * 0.3
    mask = np.ones((3, 2))
    rollout_fn = _toy_rollout_factory(features, mask)
    params = _ToyParams(rng.normal(size=(2, 6)) * 0.3)
    h = ct.InnerHessian(gamma=0.0, r_vec=np.zeros(6), diag=np.zeros(6))
    pg = op.pseudo_backward(params, rollout_fn, h, rng)
    assert np.all(pg.grads["w"] == 0.0)


def test_pseudo_backward_linear_in_target():
    rng = np.random.default_rng(5)
    features = rng.normal(size=(3, 3)) * 0.3
    mask = np.ones((3, 2))
    rollout_fn = _toy_rollout_factory(features, mask)
    params = _ToyParams(rng.normal(size=(2, 6)) * 0.3)
    r = rng.normal(size=6) * 0.1

    class FixedRng:
        def __init__(self, z0):
            self.z0 = z0

        def standard_normal(self, size=None):
            if size is None:
                return self.z0
            return np.zeros(size)

    h = ct.InnerHessian(gamma=0.5, r_vec=r, diag=np.zeros(6))
    g1 = op.pseudo_backward(params, rollout_fn, h, FixedRng(1.0)).grads["w"]
    g2 = op.pseudo_backward(params, rollout_fn, h, FixedRng(2.0)).grads["w"]
    assert np.allclose(g2, 2.0 * g1, atol=1e-15)


def test_pseudo_gradient_covariance_matches_gauss_newton():
    # Core identity: Cov(pseudo-gradient) = J^T H J with a finite-difference
    # Jacobian oracle, on the 12-parameter toy policy.
    rng = np.random.default_rng(6)
    features = rng.normal(size=(3, 3)) * 0.4
    mask = np.ones((3, 2))
    mask[2, 1] = 0.0
    rollout_fn = _toy_rollout_factory(features, mask)
    w0 = rng.normal(size=(2, 6)) * 0.4
    params = _ToyParams(w0)

    def actions_of(w_flat):
        p = _ToyParams(w_flat.reshape(2, 6))
        res = rollout_fn(p)
        return np.concatenate([n.value.ravel() for n in res.action_nodes])

    jac = central_diff_jacobian(actions_of, w0.ravel().copy(), m=6)

    returns = rng.normal(size=(3, 2)) * 0.1
    returns[mask == 0.0] = 0.0
    h = ct.inner_hessian(returns, gamma=50.0, costs=ct.CostSpec(
        spot_cost=1e-3, option_cost=5e-3))
    want = jac.T @ inner_hessian_dense(h) @ jac

    n = 10_000
    samples = np.empty((n, 12))
    srng = np.random.default_rng(7)
    for i in range(n):
        samples[i] = op.pseudo_backward(params, rollout_fn, h, srng).grads["w"].ravel()
    emp = samples.T @ samples / n
    prods = np.einsum("ni,nj->nij", samples, samples)
    se = prods.std(axis=0, ddof=1) / np.sqrt(n)
    assert (np.abs(emp - want) < 5 * se + 1e-12).all()


def test_update_g_and_d_identity_rotation():
    params, kfac = make_optimizer(config=op.KfacConfig(beta_scale=0.0, beta_factor=0.0))
    rng = np.random.default_rng(8)
    pseudo = op.PseudoGradient(grads={}, step_grads={})
    for name in params.kronecker_names:
        shape = params.values[name].shape
        pseudo.grads[name] = rng.normal(size=shape)
        pseudo.step_grads[name] = [rng.normal(size=(1, shape[0])) for _ in range(3)]
    for name in params.diagonal_names:
        pseudo.grads[name] = rng.normal(size=params.values[name].shape)
    kfac.update_output_stats(pseudo)
    for name in params.kronecker_names:
        # q factors start at the identity, so D is the squared gradient
        assert np.abs(kfac.blocks[name].scale - pseudo.grads[name] ** 2).max() < 1e-15
        want_g = sum(g.T @ g for g in pseudo.step_grads[name]) / np.sqrt(3)
        assert np.abs(kfac.blocks[name].g_cov - want_g).max() < 1e-14
    for name in params.diagonal_names:
        assert np.abs(kfac.diags[name].scale - pseudo.grads[name] ** 2).max() < 1e-15


def test_d_converges_to_stationary_second_moment():
    # EMA of squares converges to E[(Q_g^T g Q_a)^2] on an iid stream.
    params, kfac = make_optimizer(config=op.KfacConfig(beta_scale=0.9))
    rng = np.random.default_rng(9)
    name = "embed"
    shape = params.values[name].shape
    base = rng.uniform(0.5, 2.0, size=shape)
    n = 4000
    for _ in range(n):
        pseudo = op.PseudoGradient(grads={}, step_grads={})
        for pname in params.kronecker_names:
            s = params.values[pname].shape
            pseudo.grads[pname] = rng.normal(size=s) * (base if pname == name else 1.0)
            pseudo.step_grads[pname] = [rng.normal(size=(1, s[0]))]
        for pname in params.diagonal_names:
            pseudo.grads[pname] = rng.normal(size=params.values[pname].shape)
        kfac.update_output_stats(pseudo)
    got = kfac.blocks[name].scale
    want = base ** 2
    # EMA with beta=0.9 has effective sample size ~19; allow 5 sigma
    rel_se = np.sqrt(2.0 * (1 - 0.9) / (1 + 0.9))
    assert (np.abs(got - want) < 5 * rel_se * want).all()


def test_g_symmetric_psd_after_updates():
    params, kfac = make_optimizer()
    rng = np.random.default_rng(10)
    for _ in range(50):
        pseudo = op.PseudoGradient(grads={}, step_grads={})
        for name in params.kronecker_names:
            s = params.values[name].shape
            pseudo.grads[name] = rng.normal(size=s)
            pseudo.step_grads[name] = [rng.normal(size=(1, s[0])) for _ in range(4)]
        for name in params.diagonal_names:
            pseudo.grads[name] = rng.normal(size=params.values[name].shape)
        kfac.update_output_stats(pseudo)
    for curve in kfac.blocks.values():
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
    for curve in kfac.blocks.values():
        m = rng.normal(size=curve.a_cov.shape)
        curve.a_cov = m @ m.T
        m = rng.normal(size=curve.g_cov.shape)
        curve.g_cov = m @ m.T
    kfac.update_eigenbasis()
    for curve in kfac.blocks.values():
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
    for curve in kfac.blocks.values():
        m = rng.normal(size=curve.a_cov.shape)
        curve.a_cov = m @ m.T
        m = rng.normal(size=curve.g_cov.shape)
        curve.g_cov = m @ m.T
    kfac.update_eigenbasis()
    for curve in kfac.blocks.values():
        curve.scale = np.ones_like(curve.scale)
    for diag in kfac.diags.values():
        diag.scale = np.ones_like(diag.scale)
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
        m = rng.normal(size=curve.a_cov.shape)
        curve.a_cov = m @ m.T
        m = rng.normal(size=curve.g_cov.shape)
        curve.g_cov = m @ m.T
        curve.scale = rng.uniform(0.1, 2.0, size=curve.scale.shape)
    for diag in kfac.diags.values():
        diag.scale = rng.uniform(0.1, 2.0, size=diag.scale.shape)
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
    for diag in kfac.diags.values():
        diag.scale = np.ones_like(diag.scale)
    # gradient with squared norm 4 in a single entry
    grads = {k: np.zeros_like(v) for k, v in params.values.items()}
    grads["embed"][0, 0] = 2.0
    pre = kfac.precondition(grads)
    # identity preconditioner here (unit scales, identity bases)
    eta = kfac.apply_step(params, pre, grads)
    assert eta == pytest.approx(np.sqrt(1e-3 / 4.0), rel=1e-12)
    assert eta == pytest.approx(0.015811, abs=1e-6)
    assert kfac.rho_tr == pytest.approx(1e-3 * 0.997)


def test_trust_region_caps_at_eta_max():
    params, kfac = make_optimizer(config=op.KfacConfig(eta_max=0.5))
    for curve in kfac.blocks.values():
        curve.scale = np.ones_like(curve.scale)
    for diag in kfac.diags.values():
        diag.scale = np.ones_like(diag.scale)
    grads = {k: np.full_like(v, 1e-9) for k, v in params.values.items()}
    pre = kfac.precondition(grads)
    eta = kfac.apply_step(params, pre, grads)
    assert eta == 0.5


def test_momentum_off_gives_plain_step():
    params, kfac = make_optimizer(config=op.KfacConfig(
        beta_momentum=0.0, eta_max=1e-4, tr_init=1e-3))
    before = {k: v.copy() for k, v in params.values.items()}
    for curve in kfac.blocks.values():
        curve.scale = np.ones_like(curve.scale)
    for diag in kfac.diags.values():
        diag.scale = np.ones_like(diag.scale)
    grads = {k: np.ones_like(v) for k, v in params.values.items()}
    pre = kfac.precondition(grads)
    eta = kfac.apply_step(params, pre, grads)
    for k in before:
        assert np.allclose(params.values[k], before[k] - eta * pre[k])


def test_identity_basis_ablation_is_diagonal_method():
    cfg = op.KfacConfig(identity_basis=True)
    params, kfac = make_optimizer(config=cfg)
    assert not kfac.wants_eigenbasis
    rng = np.random.default_rng(19)
    for curve in kfac.blocks.values():
        curve.scale = rng.uniform(0.5, 2.0, size=curve.scale.shape)
    for diag in kfac.diags.values():
        diag.scale = rng.uniform(0.5, 2.0, size=diag.scale.shape)
    grads = {k: rng.normal(size=v.shape) for k, v in params.values.items()}
    pre = kfac.precondition(grads)
    for name, curve in kfac.blocks.items():
        want = grads[name] / op.damped_scale(curve.scale, cfg.shrinkage)
        assert np.abs(pre[name] - want).max() < 1e-14


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
