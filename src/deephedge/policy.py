"""The recurrent hedging network.

Architecture: features and the previous action are embedded linearly,
then pass through four residually stacked blocks (RMSNorm into an LSTM
cell of width 32, residual add), a linear head, a symexp activation and
the availability mask. The network is recurrent both in its hidden
states and in its own output: the masked action u_{t-1} is an input at
step t, so gradients flow through the action recurrence during the full
unroll.

Every affine layer is one bias-augmented weight matrix and forms one
Kronecker curvature block; an LSTM cell's stacked gate matrix is a
single block, whose outputs are the four gates' pre-activations.
RMSNorm gains are the only parameters with no Kronecker factors; their
curvature blocks keep identity eigenbases, a damped diagonal method.

One forward pass, :func:`rollout`, serves every caller. Evaluation and
validation run it forward-only; training records time-major caches, and
:func:`reverse_sweep` backpropagates an action seed through them by hand.
The system differentiates two graphs, both this unroll: the batch
objective (seed dL/du) and <s, u> (seed s). Each weight gradient is the
sum over steps of pre-activation gradients times layer inputs, the
identity the Kronecker factors rest on. The generic tape of
:mod:`deephedge.diffcore` is the reference the tests check the sweep
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import contracts as ct
from . import diffcore as dc


@dataclass(frozen=True)
class PolicyConfig:
    n_features: ClassVar[int] = ct.N_FEATURES
    action_dim: int
    hidden: int = 32
    n_blocks: int = 4
    head_scale: float = 1e-3

    def __post_init__(self):
        if self.hidden < 1:
            raise ValueError("hidden width must be at least 1")

    def param_shapes(self) -> dict[str, tuple[int, int]]:
        h = self.hidden
        shapes = {"embed": (h, self.n_features + self.action_dim + 1)}
        for b in range(self.n_blocks):
            shapes[f"block{b}.gain"] = (1, h)
            shapes[f"block{b}.lstm"] = (4 * h, 2 * h + 1)
        shapes["head"] = (self.action_dim, h + 1)
        return shapes


@dataclass
class PolicyParams:
    """Named parameter arrays plus their curvature-block classification."""

    config: PolicyConfig
    values: dict[str, np.ndarray]

    @property
    def kronecker_names(self) -> list[str]:
        return [n for n in self.values if not n.endswith(".gain")]

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.config, {k: v.copy() for k, v in self.values.items()})


def init_params(config: PolicyConfig, rng: np.random.Generator) -> PolicyParams:
    """He initialization with zero biases; the head is scaled down so the
    freshly initialized policy trades almost nothing."""
    values: dict[str, np.ndarray] = {}
    for name, (rows, cols) in config.param_shapes().items():
        if name.endswith(".gain"):
            values[name] = np.ones((rows, cols))
            continue
        fan_in = cols - 1
        w = np.zeros((rows, cols))
        w[:, :-1] = rng.standard_normal((rows, fan_in)) * np.sqrt(2.0 / fan_in)
        if name == "head":
            w *= config.head_scale
        values[name] = w
    return PolicyParams(config=config, values=values)


ROW_BLOCK = 512  # paths per block: its (4H, 512) gates fit a core's L2 at H = 32
COLUMN_GROUP = 8  # BLAS sums an output column past the last full group of 8 in another order


@dataclass
class _Caches:
    """One row block's buffers, time-major and feature-major: (slot, ...,
    features, columns). A recorded unroll keeps step t in slot t and the
    recurrent values it hands to step t + 1 (the action, each cell's h
    and c) in slot t + 1, so slot T only receives the last step's. A
    forward-only unroll has one time slot, overwritten every step, and
    its blocks share one block slot for r, the gates, tanh(c) and the
    residual stream after each block, so its buffers stay in cache."""

    rows: int
    x_in: np.ndarray    # (S, f + d + 1, cols): [features; u_prev; 1], the embedding's input
    res: np.ndarray     # (S, B + 1, H + 1, cols): [residual stream; 1] into each block and the head
    r: np.ndarray       # (S, B, cols): RMSNorm's 1 / sqrt(mean(x^2) + eps)
    aug: np.ndarray     # (S, B, 2H + 1, cols): [normed x; h_prev; 1], each cell's input
    gates: np.ndarray   # (S, B, 4H, cols): sigmoid(i, f, o), then tanh(g)
    c: np.ndarray       # (S, B, H, cols): each cell's state before the step
    tanh_c: np.ndarray  # (S, B, H, cols): tanh of the state after it
    e: np.ndarray       # (S, d, cols): exp(|head output|), the derivative of symexp

    @classmethod
    def allocate(cls, config: PolicyConfig, n_steps: int, rows: int,
                 record: bool) -> "_Caches":
        h_dim, d, n_blocks = config.hidden, config.action_dim, config.n_blocks
        cols = -(-rows // COLUMN_GROUP) * COLUMN_GROUP
        slots, blocks = (n_steps + 1, n_blocks) if record else (1, 1)
        caches = cls(rows=rows,
                     x_in=np.zeros((slots, config.n_features + d + 1, cols)),
                     res=np.zeros((slots, blocks + 1, h_dim + 1, cols)),
                     r=np.empty((slots, blocks, cols)),
                     aug=np.zeros((slots, n_blocks, 2 * h_dim + 1, cols)),
                     gates=np.empty((slots, blocks, 4 * h_dim, cols)),
                     c=np.zeros((slots, n_blocks, h_dim, cols)),
                     tanh_c=np.empty((slots, blocks, h_dim, cols)),
                     e=np.empty((slots, d, cols)))
        for ones in (caches.x_in, caches.res, caches.aug):
            ones[..., -1, :] = 1.0
        return caches

    def layer_inputs(self) -> dict[str, np.ndarray]:
        """Each Kronecker block's bias-augmented input, (T, in + 1, rows)."""
        rows, n_steps, n_blocks = self.rows, self.e.shape[0] - 1, self.aug.shape[1]
        out = {"embed": self.x_in[:n_steps, :, :rows]}
        for b in range(n_blocks):
            out[f"block{b}.lstm"] = self.aug[:n_steps, b, :, :rows]
        out["head"] = self.res[:n_steps, n_blocks, :, :rows]
        return out


@dataclass
class RolloutResult:
    """An unroll's (n, T, d) actions. A recorded one also keeps the caches
    :func:`reverse_sweep` reads, valid until ``params`` change."""

    params: PolicyParams
    mask: np.ndarray
    actions: np.ndarray
    caches: list[_Caches]

    @property
    def activations(self) -> dict[str, list[np.ndarray]]:
        """Per Kronecker block, its per-step (n, in + 1) inputs: views of
        the caches, copied only to join row blocks."""
        if not self.caches:
            raise ValueError("a forward-only unroll keeps no layer inputs")
        parts = [c.layer_inputs() for c in self.caches]
        return {name: _per_step([p[name] for p in parts]) for name in parts[0]}


def _per_step(blocks: list[np.ndarray]) -> list[np.ndarray]:
    """(T, k, rows) arrays of consecutive row blocks as T arrays of (n, k)."""
    if len(blocks) == 1:
        return [a.T for a in blocks[0]]
    return [np.concatenate([a[t].T for a in blocks]) for t in range(blocks[0].shape[0])]


def rollout(params: PolicyParams, features: np.ndarray, mask: np.ndarray,
            record: bool = True) -> RolloutResult:
    """Unroll the policy over all steps of a feature tensor (n, T, f).

    ``record`` keeps the caches that :func:`reverse_sweep` differentiates;
    ``record=False`` is the forward-only pass of evaluation and
    validation. Either raises ``DiffError`` naming the first step with a
    non-finite action.
    """
    config = params.config
    n, n_steps, n_feat = features.shape
    if n_feat != config.n_features:
        raise ValueError(f"feature width {n_feat} != config {config.n_features}")
    if mask.shape != (n_steps, config.action_dim):
        raise ValueError(f"mask shape {mask.shape} unexpected")
    actions, caches = _forward(params, features, mask, record)
    return RolloutResult(params=params, mask=mask, actions=actions, caches=caches)


def _forward(params: PolicyParams, features: np.ndarray, mask: np.ndarray,
             record: bool) -> tuple[np.ndarray, list[_Caches]]:
    """The policy's forward arithmetic, fused and feature-major; returns
    the (n, T, d) actions and, when recording, each row block's caches.

    Paths run in blocks of ``ROW_BLOCK``, padded with zero-feature columns
    to whole groups of ``COLUMN_GROUP``, so a path's arithmetic does not
    depend on where it sits. Each layer is one matrix product written in
    place into its cache slot. The sigmoid gates use (tanh(z / 2) + 1) / 2
    with the (exact) halving folded into their weight rows, so one tanh
    covers all four gates.
    """
    config, v = params.config, params.values
    h_dim, d, n_feat = config.hidden, config.action_dim, config.n_features
    n, n_steps, _ = features.shape
    gains = [v[f"block{b}.gain"].reshape(-1, 1) for b in range(config.n_blocks)]
    halve = np.repeat([0.5, 1.0], [3 * h_dim, h_dim])[:, None]
    cells = [v[f"block{b}.lstm"] * halve for b in range(config.n_blocks)]
    actions = np.empty((n, n_steps, d))
    all_caches = []
    for r0 in range(0, n, ROW_BLOCK):
        rows = min(ROW_BLOCK, n - r0)
        cache = _Caches.allocate(config, n_steps, rows, record)
        if record:
            all_caches.append(cache)
        for t in range(n_steps):
            now, nxt = (t, t + 1) if record else (0, 0)
            x_in = cache.x_in[now]
            x_in[:n_feat, :rows] = features[r0:r0 + rows, t].T
            xs = cache.res[now, 0, :h_dim]
            np.matmul(v["embed"], x_in, out=xs)
            for b, (w, gain) in enumerate(zip(cells, gains)):
                kb = b if record else 0
                aug, gates, r = cache.aug[now, b], cache.gates[now, kb], cache.r[now, kb]
                np.einsum("ij,ij->j", xs, xs, out=r)
                r /= h_dim
                r += dc.RMS_EPS
                np.sqrt(r, out=r)
                np.divide(1.0, r, out=r)
                np.multiply(xs, r, out=aug[:h_dim])
                aug[:h_dim] *= gain
                np.matmul(w, aug, out=gates)
                np.tanh(gates, out=gates)
                gates[:3 * h_dim] += 1.0
                gates[:3 * h_dim] *= 0.5
                i_g, f_g, o_g, g_g = np.split(gates, 4)
                c_new, tanh_c = cache.c[nxt, b], cache.tanh_c[now, kb]
                np.multiply(cache.c[now, b], f_g, out=c_new)
                np.multiply(i_g, g_g, out=tanh_c)
                c_new += tanh_c
                np.tanh(c_new, out=tanh_c)
                h_new = cache.aug[nxt, b, h_dim:2 * h_dim]
                np.multiply(o_g, tanh_c, out=h_new)
                xs_next = cache.res[now, kb + 1, :h_dim]
                np.add(xs, h_new, out=xs_next)   # residual: input plus cell output
                xs = xs_next
            pre_u = v["head"] @ cache.res[now, -1]   # symexp, then the mask
            e, u = cache.e[now], cache.x_in[nxt, n_feat:n_feat + d]
            with np.errstate(over="ignore"):
                np.exp(np.abs(pre_u), out=e)
            np.multiply(np.sign(pre_u), e - 1.0, out=u)
            u *= mask[t][:, None]
            if not np.isfinite(u[:, :rows].sum()):
                raise dc.DiffError(f"non-finite action at step {t}")
            actions[r0:r0 + rows, t] = u[:, :rows].T
    return actions, all_caches


def reverse_sweep(result: RolloutResult, du: np.ndarray, capture: bool = False
                  ) -> tuple[dict[str, np.ndarray], dict[str, list[np.ndarray]]]:
    """Backpropagate the action seed ``du`` (n, T, d) through a recorded
    unroll: the gradient of <du, u> with respect to every parameter.

    The batch objective's gradient has ``du = dL/du``; the pseudo-gradient
    has ``du = s``. With ``capture``, also returns each Kronecker block's
    per-step (n, out) pre-activation gradients, whose outer products with
    ``result.activations`` sum to the weight gradient. Raises ``DiffError``
    naming a parameter whose gradient is not finite.

    The sweep runs each row block backward through time over its caches,
    column by column as the forward does, so a path's pre-activation
    gradients do not depend on its batch.
    """
    params = result.params
    config, v = params.config, params.values
    h_dim, d, n_feat, n_blocks = (config.hidden, config.action_dim, config.n_features,
                                  config.n_blocks)
    if not result.caches:
        raise ValueError("a forward-only unroll cannot be differentiated")
    if du.shape != result.actions.shape:
        raise ValueError(f"seed shape {du.shape} != actions {result.actions.shape}")
    n_steps = du.shape[1]
    grads = {name: np.zeros_like(value) for name, value in v.items()}
    lstm = [f"block{b}.lstm" for b in range(n_blocks)]
    gain_grads = [grads[f"block{b}.gain"][0] for b in range(n_blocks)]
    gains = [v[f"block{b}.gain"].reshape(-1, 1) for b in range(n_blocks)]
    w_in = [np.ascontiguousarray(v[name][:, :2 * h_dim].T) for name in lstm]
    head_in = np.ascontiguousarray(v["head"][:, :h_dim].T)
    embed_u = np.ascontiguousarray(v["embed"][:, n_feat:n_feat + d].T)
    slots = n_steps if capture else 1
    captured = []
    r0 = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for cache in result.caches:
            rows, cols = cache.rows, cache.e.shape[-1]
            # pre-activation gradients: the embedding's, each cell's, the head's
            g_embed = np.empty((slots, h_dim, cols))
            g_cell = np.empty((slots, n_blocks, 4 * h_dim, cols))
            g_head = np.zeros((slots, d, cols))
            d_aug = np.zeros((n_blocks, 2 * h_dim, cols))   # rows H: carry dL/dh_prev back
            d_c = np.zeros((n_blocks, h_dim, cols))          # dL/dc, carried back
            du_next = np.zeros((d, cols))                    # dL/du_prev, carried back
            dh, tmp, row = np.empty((h_dim, cols)), np.empty((h_dim, cols)), np.empty(cols)
            for t in reversed(range(n_steps)):
                k = t if capture else 0
                g_u, dx = g_head[k], g_embed[k]
                g_u[:, :rows] = du[r0:r0 + rows, t].T
                g_u += du_next
                g_u *= result.mask[t][:, None]
                g_u *= cache.e[t]
                grads["head"] += g_u[:, :rows] @ cache.res[t, -1, :, :rows].T
                np.matmul(head_in, g_u, out=dx)
                for b in reversed(range(n_blocks)):
                    gates, d_pre, dc_b = cache.gates[t, b], g_cell[k, b], d_c[b]
                    i_g, f_g, o_g, g_g = np.split(gates, 4)
                    di, df, do, dg = np.split(d_pre, 4)
                    tanh_c = cache.tanh_c[t, b]
                    np.add(dx, d_aug[b, h_dim:], out=dh)
                    # dL/dc: carried plus through h = o tanh(c)
                    np.multiply(tanh_c, tanh_c, out=tmp)
                    np.subtract(1.0, tmp, out=tmp)
                    tmp *= dh
                    tmp *= o_g
                    dc_b += tmp
                    # each sigmoid gate's s (1 - s), times what it multiplies
                    np.subtract(1.0, gates[:3 * h_dim], out=d_pre[:3 * h_dim])
                    d_pre[:3 * h_dim] *= gates[:3 * h_dim]
                    di *= dc_b
                    di *= g_g
                    df *= dc_b
                    df *= cache.c[t, b]
                    do *= dh
                    do *= tanh_c
                    np.multiply(g_g, g_g, out=dg)
                    np.subtract(1.0, dg, out=dg)
                    dg *= dc_b
                    dg *= i_g
                    dc_b *= f_g
                    grads[lstm[b]] += d_pre[:, :rows] @ cache.aug[t, b, :, :rows].T
                    np.matmul(w_in[b], d_pre, out=d_aug[b])
                    # RMSNorm: normed = x r gain with r = 1 / sqrt(mean(x^2) + eps)
                    xs, r, d_norm = cache.res[t, b, :h_dim], cache.r[t, b], d_aug[b, :h_dim]
                    np.multiply(xs, r, out=tmp)
                    tmp *= d_norm
                    gain_grads[b] += tmp[:, :rows].sum(axis=1)
                    d_norm *= gains[b]
                    np.einsum("ij,ij->j", d_norm, xs, out=row)
                    row *= r ** 3 / h_dim
                    np.multiply(d_norm, r, out=tmp)
                    dx += tmp
                    np.multiply(xs, row, out=tmp)
                    dx -= tmp
                grads["embed"] += dx[:, :rows] @ cache.x_in[t, :, :rows].T
                np.matmul(embed_u, dx, out=du_next)
            if capture:
                captured.append({"embed": g_embed[..., :rows],
                                 **{name: g_cell[:, b, :, :rows] for b, name in enumerate(lstm)},
                                 "head": g_head[..., :rows]})
            r0 += rows
        for name, g in grads.items():
            if not math.isfinite(float(g.sum())):
                raise dc.DiffError(f"non-finite gradient of parameter '{name}'")
    step_grads = ({name: _per_step([c[name] for c in captured]) for name in captured[0]}
                  if capture else {})
    return grads, step_grads
