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
A training run records every batch into one :class:`Workspace`, whose
buffers live as long as the run and are overwritten by each batch, so a
result's caches are valid only until the next unroll into its workspace.
The system differentiates two graphs, both this unroll: the batch
objective (seed dL/du) and <s, u> (seed s), the latter along one path of
the batch, copied out of its caches by :meth:`RolloutResult.path`. Each
weight gradient is the sum over steps of pre-activation gradients times
layer inputs, the identity the Kronecker factors rest on; a capturing
sweep returns a block's pre-activation gradients as one (T, out, paths)
array. The generic tape of :mod:`deephedge.diffcore` is the reference the
tests check the sweep against.

Paths run in row blocks: ``RECORD_BLOCK`` (256) in a recorded unroll (a
training batch, the probe, a pseudo-path), ``ROW_BLOCK`` (512) in a
forward-only one (validation, evaluation). An unroll of several row
blocks, and the sweep of a recorded one, run them on one thread per
usable CPU: the blocks share nothing they write, and numpy releases the
GIL in its matrix products and ufunc loops. A block's arithmetic is its
own, and the sweep adds the blocks' weight gradients in block order on
the calling thread, so the block size, not the CPU count, sets the order
of every sum, and the results do not depend on the thread count.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
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


# Paths per row block. A forward-only unroll (validation, evaluation,
# checks) takes ROW_BLOCK: its (4H, 512) gates fit a core's L2 at H = 32,
# and 256-path blocks made the 4,096-path evaluation 15-20% slower on two
# threads, with the same actions. A recorded unroll (a training batch, the
# probe, a pseudo-path) takes RECORD_BLOCK, so a desk batch of 512 is two
# blocks, unrolled and swept on two cores: a desk iteration took about 20%
# less, though on one thread two 256-path blocks take 10-25% longer
# than one 512-path block. The block size, never the CPU count, sets the
# order of every sum over blocks.
ROW_BLOCK = 512
RECORD_BLOCK = 256
COLUMN_GROUP = 8  # BLAS sums an output column past the last full group of 8 in another order


@dataclass
class _Caches:
    """One row block's buffers, time-major and feature-major: (slot, ...,
    features, columns). A recorded unroll keeps step t in slot t, and the
    recurrent values it hands to step t + 1 (the action, each cell's h and
    c) in slot t + 1 of ``x_in``, ``aug`` and ``c``, so only those three
    have a slot T. The residual stream has no time slot: it is the
    embedding of ``x_in[t]`` plus the blocks' h in ``aug[t + 1]``, so
    :meth:`stream` rebuilds a step's stream exactly, and cheaply, where
    the sweep needs it. A forward-only unroll has one time slot,
    overwritten every step, and its blocks share one block slot for r,
    the gates, tanh(c) and the residual stream after each block, so its
    buffers stay in cache."""

    rows: int
    x_in: np.ndarray    # (T + 1, f + d + 1, cols): [features; u_prev; 1], the embedding's input
    res: np.ndarray     # (B + 1, H + 1, cols): [residual stream; 1] into each block and the head
    r: np.ndarray       # (T, B, cols): RMSNorm's 1 / sqrt(mean(x^2) + eps)
    aug: np.ndarray     # (T + 1, B, 2H + 1, cols): [normed x; h_prev; 1], each cell's input
    gates: np.ndarray   # (T, B, 4H, cols): sigmoid(i, f, o), then tanh(g)
    c: np.ndarray       # (T + 1, B, H, cols): each cell's state before the step
    tanh_c: np.ndarray  # (T, B, H, cols): tanh of the state after it
    e: np.ndarray       # (T, d, cols): exp(|head output|), the derivative of symexp

    @classmethod
    def allocate(cls, config: PolicyConfig, n_steps: int, rows: int,
                 record: bool) -> "_Caches":
        h_dim, d, n_blocks = config.hidden, config.action_dim, config.n_blocks
        cols = -(-rows // COLUMN_GROUP) * COLUMN_GROUP
        steps, carried, blocks = (n_steps, n_steps + 1, n_blocks) if record else (1, 1, 1)
        caches = cls(rows=rows,
                     x_in=np.empty((carried, config.n_features + d + 1, cols)),
                     res=np.empty((blocks + 1, h_dim + 1, cols)),
                     r=np.empty((steps, blocks, cols)),
                     aug=np.empty((carried, n_blocks, 2 * h_dim + 1, cols)),
                     gates=np.empty((steps, blocks, 4 * h_dim, cols)),
                     c=np.empty((carried, n_blocks, h_dim, cols)),
                     tanh_c=np.empty((steps, blocks, h_dim, cols)),
                     e=np.empty((steps, d, cols)))
        caches.reset(config.n_features)
        return caches

    def reset(self, n_feat: int) -> None:
        """Set what the unroll does not write, whatever the buffers held:
        the first step's recurrent inputs (u_prev, h_prev, c) are zero, the
        pad columns' features are zero and the bias rows are one, as are
        the last slot's features and normed inputs, which no step reads.
        Every other value is written before it is read, so after an unroll
        the buffers hold a function of its inputs alone."""
        for carried in (self.x_in, self.aug, self.c):
            carried[0] = 0.0
            carried[-1] = 0.0
        self.x_in[:, :n_feat, self.rows:] = 0.0
        for ones in (self.x_in, self.res, self.aug):
            ones[..., -1, :] = 1.0

    def stream(self, embed: np.ndarray, t: int) -> np.ndarray:
        """Step ``t``'s residual stream, rebuilt into ``res`` with the
        forward's own arithmetic (the embedding's matrix product, then each
        block's h added in turn), so bit for bit what the forward built."""
        h_dim = self.res.shape[1] - 1
        np.matmul(embed, self.x_in[t], out=self.res[0, :h_dim])
        for b in range(self.res.shape[0] - 1):
            np.add(self.res[b, :h_dim], self.aug[t + 1, b, h_dim:2 * h_dim],
                   out=self.res[b + 1, :h_dim])
        return self.res

    def step_inputs(self, embed: np.ndarray, t: int) -> dict[str, np.ndarray]:
        """Each Kronecker block's bias-augmented (in + 1, rows) input at
        step ``t``: views of the caches but for the head's, rebuilt from the
        step's stream into an array of its own."""
        rows = self.rows
        out = {"embed": self.x_in[t, :, :rows]}
        for b in range(self.aug.shape[1]):
            out[f"block{b}.lstm"] = self.aug[t, b, :, :rows]
        out["head"] = self.stream(embed, t)[-1, :, :rows].copy()
        return out

    def column(self, j: int) -> "_Caches":
        """Column ``j`` as a one-path block: a copy of it in column 0 of
        buffers padded with zero columns to ``COLUMN_GROUP``."""
        one = {}
        for f in fields(self):
            if f.name != "rows":
                src = getattr(self, f.name)
                one[f.name] = np.zeros(src.shape[:-1] + (COLUMN_GROUP,))
                one[f.name][..., 0] = src[..., j]
        return _Caches(rows=1, **one)


class Workspace:
    """The buffers of recorded unrolls, reused from one unroll to the next.

    The caches are allocated once per shape: an unroll of the same policy
    shape, step count and path count writes over the previous one's, with
    no fresh allocation, and any other unroll reallocates them. Sweeping or
    reading the previous result would then read the new unroll, so an
    unroll into the workspace, or :meth:`release`, invalidates every result
    recorded into it before: :func:`reverse_sweep`, ``step_inputs`` and
    ``path`` refuse them; a sweep's (T, out, paths) captures are its own
    arrays and stay valid. The workspace holds nothing between unrolls that
    an unroll reads: each one resets what its forward reads before it
    writes, and writes its gate weights into ``cells``.
    """

    def __init__(self):
        self._caches: list[_Caches] = []
        self.cells: list[np.ndarray] = []
        self._shape: tuple | None = None
        self.generation = 0

    def caches(self, config: PolicyConfig, n_steps: int, n: int) -> list[_Caches]:
        """Recorded caches for ``n`` paths over ``n_steps`` steps, one per row block."""
        self.generation += 1
        if self._shape == (config, n_steps, n):
            for cache in self._caches:
                cache.reset(config.n_features)
            return self._caches
        self.release()   # free the old caches before allocating their successors
        self._caches = [_Caches.allocate(config, n_steps, min(RECORD_BLOCK, n - r0), record=True)
                        for r0 in range(0, n, RECORD_BLOCK)]
        self.cells = _gate_buffers(config)
        self._shape = (config, n_steps, n)
        return self._caches

    def release(self) -> None:
        """Drop the buffers, invalidating the last result recorded into them."""
        self._caches, self.cells, self._shape = [], [], None
        self.generation += 1


@dataclass
class RolloutResult:
    """An unroll's (n, T, d) actions. A recorded one also keeps the caches
    :func:`reverse_sweep` reads, valid until ``params`` change or the
    workspace they live in is unrolled into again."""

    params: PolicyParams
    mask: np.ndarray
    actions: np.ndarray
    caches: list[_Caches]
    workspace: Workspace | None = None
    generation: int = 0

    def recorded(self) -> list[_Caches]:
        """The caches, once they are there and still this unroll's."""
        if not self.caches:
            raise ValueError("a forward-only unroll keeps no caches")
        if self.workspace is not None and self.workspace.generation != self.generation:
            raise ValueError("this unroll's workspace has been unrolled into since")
        return self.caches

    def step_inputs(self) -> Iterator[dict[str, np.ndarray]]:
        """Step by step, each Kronecker block's (in + 1, n) inputs: one row
        block's are views of the caches, but for the head's, rebuilt from
        the step's residual stream; several are joined along the paths, one
        step at a time, so the matrices are bit for bit the same whatever
        the row blocks. A stale result is refused at the call."""
        caches, embed = self.recorded(), self.params.values["embed"]

        def joined(t: int) -> dict[str, np.ndarray]:
            parts = [cache.step_inputs(embed, t) for cache in caches]
            return parts[0] if len(parts) == 1 else {
                name: np.concatenate([p[name] for p in parts], axis=1) for name in parts[0]}

        return map(joined, range(caches[0].e.shape[0]))

    def path(self, i: int) -> "RolloutResult":
        """Path ``i`` as a one-path recorded unroll, copied out of the
        caches. Sweeping it is, bit for bit, sweeping the path unrolled
        alone: each column's arithmetic is its own, and every column sits
        in a full group of ``COLUMN_GROUP``, here as in the batch."""
        if not 0 <= i < self.actions.shape[0]:
            raise IndexError(f"path {i} is not in an unroll of {self.actions.shape[0]}")
        block, j = divmod(i, RECORD_BLOCK)
        return RolloutResult(params=self.params, mask=self.mask,
                             actions=self.actions[i:i + 1],
                             caches=[self.recorded()[block].column(j)])


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_blocks(fn: Callable[[int], object], n_blocks: int) -> list:
    """``[fn(k) for k in range(n_blocks)]``, one call per row block: on a
    pool of ``min(n_blocks, usable CPUs)`` threads that lives only for this
    call, or inline on the calling thread when that is one. The results
    are collected in block order, so an error is the lowest failing
    block's, as in the serial loop."""
    workers = min(n_blocks, _usable_cpus())
    if workers < 2:
        return [fn(k) for k in range(n_blocks)]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, range(n_blocks)))


def _gate_buffers(config: PolicyConfig) -> list[np.ndarray]:
    """One (4H, 2H + 1) buffer per cell for :func:`_forward`'s gate weights."""
    return [np.empty((4 * config.hidden, 2 * config.hidden + 1))
            for _ in range(config.n_blocks)]


def _quarters(a: np.ndarray, h_dim: int) -> tuple[np.ndarray, ...]:
    """The four gates' rows of a (4H, ...) array: views, as np.split gives
    but at a fraction of its cost."""
    return a[:h_dim], a[h_dim:2 * h_dim], a[2 * h_dim:3 * h_dim], a[3 * h_dim:]


def rollout(params: PolicyParams, features: np.ndarray, mask: np.ndarray,
            record: bool = True, workspace: Workspace | None = None) -> RolloutResult:
    """Unroll the policy over all steps of a feature tensor (n, T, f).

    ``record`` keeps the caches that :func:`reverse_sweep` differentiates,
    written into ``workspace`` when one is given (which invalidates the
    results recorded into it before) and into fresh buffers otherwise;
    ``record=False`` is the forward-only pass of evaluation and
    validation. Either raises ``DiffError`` naming the first step with a
    non-finite action. Row blocks (``RECORD_BLOCK`` paths when recording,
    ``ROW_BLOCK`` otherwise) run on one thread per usable CPU, with results
    that do not depend on that count; see :func:`_forward`.
    """
    config = params.config
    n, n_steps, n_feat = features.shape
    if n_feat != config.n_features:
        raise ValueError(f"feature width {n_feat} != config {config.n_features}")
    if mask.shape != (n_steps, config.action_dim):
        raise ValueError(f"mask shape {mask.shape} unexpected")
    if not record:
        if workspace is not None:
            raise ValueError("a forward-only unroll records nothing into a workspace")
        actions = _forward(params, features, mask, None, _gate_buffers(config))
        return RolloutResult(params=params, mask=mask, actions=actions, caches=[])
    workspace = workspace or Workspace()
    caches = workspace.caches(config, n_steps, n)
    actions = _forward(params, features, mask, caches, workspace.cells)
    return RolloutResult(params=params, mask=mask, actions=actions, caches=caches,
                         workspace=workspace, generation=workspace.generation)


def _forward(params: PolicyParams, features: np.ndarray, mask: np.ndarray,
             caches: list[_Caches] | None, cells: list[np.ndarray]) -> np.ndarray:
    """The policy's forward arithmetic, fused and feature-major; returns
    the (n, T, d) actions, recording each row block into ``caches`` when
    given and running forward-only when None.

    Paths run in blocks of ``RECORD_BLOCK`` when recording and of
    ``ROW_BLOCK`` otherwise, padded with zero-feature columns to whole
    groups of ``COLUMN_GROUP``, so a path's arithmetic does not depend on
    where it sits, nor on the block size. Each layer is one matrix product written in
    place into its cache slot. The sigmoid gates use (tanh(z / 2) + 1) / 2
    with the (exact) halving folded into their weight rows, written into
    ``cells``, so one tanh covers all four gates.

    The row blocks run side by side through :func:`_map_blocks`. Once
    ``cells`` is written, a block reads only shared inputs and writes only
    its own cache and its own rows of the actions, so the result is the
    serial loop's bit for bit, and an error is the lowest failing block's.
    """
    config, v = params.config, params.values
    h_dim, d, n_feat = config.hidden, config.action_dim, config.n_features
    n, n_steps, _ = features.shape
    gains = [v[f"block{b}.gain"].reshape(-1, 1) for b in range(config.n_blocks)]
    for b, cell in enumerate(cells):
        w = v[f"block{b}.lstm"]
        np.multiply(w[:3 * h_dim], 0.5, out=cell[:3 * h_dim])
        cell[3 * h_dim:] = w[3 * h_dim:]
    record = caches is not None
    actions = np.empty((n, n_steps, d))

    block = RECORD_BLOCK if record else ROW_BLOCK

    def unroll_block(k: int) -> None:
        r0 = k * block
        rows = min(block, n - r0)
        cache = caches[k] if record else _Caches.allocate(config, n_steps, rows, record=False)
        for t in range(n_steps):
            now, nxt = (t, t + 1) if record else (0, 0)
            x_in = cache.x_in[now]
            x_in[:n_feat, :rows] = features[r0:r0 + rows, t].T
            xs = cache.res[0, :h_dim]
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
                i_g, f_g, o_g, g_g = _quarters(gates, h_dim)
                c_new, tanh_c = cache.c[nxt, b], cache.tanh_c[now, kb]
                np.multiply(cache.c[now, b], f_g, out=c_new)
                np.multiply(i_g, g_g, out=tanh_c)
                c_new += tanh_c
                np.tanh(c_new, out=tanh_c)
                h_new = cache.aug[nxt, b, h_dim:2 * h_dim]
                np.multiply(o_g, tanh_c, out=h_new)
                xs_next = cache.res[kb + 1, :h_dim]
                np.add(xs, h_new, out=xs_next)   # residual: input plus cell output
                xs = xs_next
            pre_u = v["head"] @ cache.res[-1]   # symexp, then the mask
            e, u = cache.e[now], cache.x_in[nxt, n_feat:n_feat + d]
            with np.errstate(over="ignore"):
                np.exp(np.abs(pre_u), out=e)
            np.multiply(np.sign(pre_u), e - 1.0, out=u)
            u *= mask[t][:, None]
            if not np.isfinite(u[:, :rows].sum()):
                raise dc.DiffError(f"non-finite action at step {t}")
            actions[r0:r0 + rows, t] = u[:, :rows].T

    _map_blocks(unroll_block, -(-n // block))
    return actions


def reverse_sweep(result: RolloutResult, du: np.ndarray, capture: bool = False
                  ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Backpropagate the action seed ``du`` (n, T, d) through a recorded
    unroll: the gradient of <du, u> with respect to every parameter.

    The batch objective's gradient has ``du = dL/du``; the pseudo-gradient
    has ``du = s``. With ``capture``, also returns each Kronecker block's
    (T, out, n) pre-activation gradients g: the sum over steps t of g[t]
    times step t's transposed ``result.step_inputs()`` is its weight
    gradient. Raises ``DiffError`` naming a parameter whose gradient is
    not finite.

    The sweep runs each row block backward through time over its caches,
    column by column as the forward does, so a path's pre-activation
    gradients do not depend on its batch. The row blocks run side by side,
    as :func:`_forward`'s do: each sums its own weight gradients over the
    steps from zero and keeps its own captures, and the calling thread adds
    the blocks' sums in block order and joins their captures. So the
    gradients depend on ``RECORD_BLOCK``, never on the CPU count, and a
    one-block unroll's are its block's own.
    """
    params = result.params
    config, v = params.config, params.values
    h_dim, d, n_feat, n_blocks = (config.hidden, config.action_dim, config.n_features,
                                  config.n_blocks)
    caches = result.recorded()
    if du.shape != result.actions.shape:
        raise ValueError(f"seed shape {du.shape} != actions {result.actions.shape}")
    n_steps = du.shape[1]
    lstm = [f"block{b}.lstm" for b in range(n_blocks)]
    gains = [v[f"block{b}.gain"].reshape(-1, 1) for b in range(n_blocks)]
    w_in = [np.ascontiguousarray(v[name][:, :2 * h_dim].T) for name in lstm]
    head_in = np.ascontiguousarray(v["head"][:, :h_dim].T)
    embed_u = np.ascontiguousarray(v["embed"][:, n_feat:n_feat + d].T)
    slots = n_steps if capture else 1

    def sweep_block(k: int) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray] | None]:
        cache, r0 = caches[k], k * RECORD_BLOCK
        rows, cols = cache.rows, cache.e.shape[-1]
        grads = {name: np.zeros_like(value) for name, value in v.items()}
        gain_grads = [grads[f"block{b}.gain"][0] for b in range(n_blocks)]
        # pre-activation gradients: the embedding's, each cell's, the head's
        g_embed = np.empty((slots, h_dim, cols))
        g_cell = np.empty((slots, n_blocks, 4 * h_dim, cols))
        g_head = np.zeros((slots, d, cols))
        d_aug = np.zeros((n_blocks, 2 * h_dim, cols))   # rows H: carry dL/dh_prev back
        d_c = np.zeros((n_blocks, h_dim, cols))          # dL/dc, carried back
        du_next = np.zeros((d, cols))                    # dL/du_prev, carried back
        dh, tmp, row = np.empty((h_dim, cols)), np.empty((h_dim, cols)), np.empty(cols)
        # numpy's error state is a context variable, which a pool thread does not inherit
        with np.errstate(over="ignore", invalid="ignore"):
            for t in reversed(range(n_steps)):
                slot = t if capture else 0
                g_u, dx = g_head[slot], g_embed[slot]
                g_u[:, :rows] = du[r0:r0 + rows, t].T
                g_u += du_next
                g_u *= result.mask[t][:, None]
                g_u *= cache.e[t]
                res = cache.stream(v["embed"], t)
                grads["head"] += g_u[:, :rows] @ res[-1, :, :rows].T
                np.matmul(head_in, g_u, out=dx)
                for b in reversed(range(n_blocks)):
                    gates, d_pre, dc_b = cache.gates[t, b], g_cell[slot, b], d_c[b]
                    i_g, f_g, o_g, g_g = _quarters(gates, h_dim)
                    di, df, do, dg = _quarters(d_pre, h_dim)
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
                    xs, r, d_norm = res[b, :h_dim], cache.r[t, b], d_aug[b, :h_dim]
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
        captured = ({"embed": g_embed[..., :rows],
                     **{name: g_cell[:, b, :, :rows] for b, name in enumerate(lstm)},
                     "head": g_head[..., :rows]} if capture else None)
        return grads, captured

    blocks = _map_blocks(sweep_block, len(caches))
    grads = blocks[0][0]
    with np.errstate(over="ignore", invalid="ignore"):
        for block_grads, _ in blocks[1:]:
            for name, g in block_grads.items():
                grads[name] += g
        for name, g in grads.items():
            if not math.isfinite(float(g.sum())):
                raise dc.DiffError(f"non-finite gradient of parameter '{name}'")
    captured = ({name: np.concatenate([c[name] for _, c in blocks], axis=-1)
                 for name in blocks[0][1]} if capture else {})
    return grads, captured
