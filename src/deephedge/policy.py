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
single block with one hook channel on the concatenated pre-activations.
RMSNorm gains are the only parameters with no Kronecker factors; their
curvature blocks keep identity eigenbases, a damped diagonal method.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import contracts as ct
from . import diffcore as dc


@dataclass(frozen=True)
class PolicyConfig:
    action_dim: int
    n_features: int = ct.N_FEATURES
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


@dataclass
class PolicyState:
    hc: list[dc.Node]  # per block, stacked [h | c] of shape (batch, 2 * hidden)
    u_prev: dc.Node


def _zero_state(tape: dc.Tape, config: PolicyConfig, batch: int) -> PolicyState:
    zeros_hc = np.zeros((batch, 2 * config.hidden))
    return PolicyState(
        hc=[tape.constant(zeros_hc) for _ in range(config.n_blocks)],
        u_prev=tape.constant(np.zeros((batch, config.action_dim))),
    )


def forward_step(params_nodes: dict[str, dc.Node], config: PolicyConfig,
                 state: PolicyState, features: dc.Node, mask_row: dc.Node,
                 channels: dict[str, dc.HookChannel] | None = None) -> tuple[dc.Node, PolicyState]:
    """One policy step; returns the masked action and the updated state."""
    h_dim = config.hidden
    ch = channels or {}
    x = dc.affine(dc.concat([features, state.u_prev]), params_nodes["embed"],
                  channel=ch.get("embed"))
    new_hc = []
    for b in range(config.n_blocks):
        normed = dc.rms_normalize(x, params_nodes[f"block{b}.gain"])
        hc = dc.lstm_cell(normed, state.hc[b], params_nodes[f"block{b}.lstm"],
                          channel=ch.get(f"block{b}.lstm"))
        x = dc.add(x, dc.slice_cols(hc, 0, h_dim))  # residual: input plus cell output
        new_hc.append(hc)
    head = dc.affine(x, params_nodes["head"], channel=ch.get("head"))
    u = dc.multiply(dc.symexp(head), mask_row)
    return u, PolicyState(hc=new_hc, u_prev=u)


@dataclass
class RolloutResult:
    """A recorded unroll, or the actions alone of a forward-only one."""

    tape: dc.Tape | None
    action_nodes: list[dc.Node]
    channels: dict[str, dc.HookChannel]

    @cached_property
    def actions(self) -> np.ndarray:
        """(n, T, d) array of the unrolled actions."""
        return np.stack([n.value for n in self.action_nodes], axis=1)


def rollout(params: PolicyParams, features: np.ndarray, mask: np.ndarray,
            capture: bool = False, record: bool = True) -> RolloutResult:
    """Unroll the policy over all steps of a feature tensor (n, T, f).

    ``capture`` attaches a hook channel to every Kronecker block so that
    per-step inputs (and, after a backward pass, pre-activation gradients)
    are recorded. ``record=False`` builds no tape: it runs the fused
    forward pass and raises ``DiffError`` naming the first step with a
    non-finite action; a recorded unroll is checked by ``dc.backward``.
    """
    config = params.config
    n, n_steps, n_feat = features.shape
    if n_feat != config.n_features:
        raise ValueError(f"feature width {n_feat} != config {config.n_features}")
    if mask.shape != (n_steps, config.action_dim):
        raise ValueError(f"mask shape {mask.shape} unexpected")
    if not record:
        if capture:
            raise ValueError("hook capture needs a recorded rollout")
        result = RolloutResult(tape=None, action_nodes=[], channels={})
        result.actions = _forward(params, features, mask)
        return result
    tape = dc.Tape()
    params_nodes = {name: tape.parameter(name, value) for name, value in params.values.items()}
    channels = {name: dc.HookChannel(name) for name in params.kronecker_names} if capture else {}
    state = _zero_state(tape, config, n)
    action_nodes = []
    for t in range(n_steps):
        feat_node = tape.constant(features[:, t, :])
        mask_row = tape.constant(mask[t].reshape(1, -1))
        u, state = forward_step(params_nodes, config, state, feat_node, mask_row, channels)
        action_nodes.append(u)
    return RolloutResult(tape=tape, action_nodes=action_nodes, channels=channels)


ROW_BLOCK = 512  # paths per forward-only block: its (4H, 512) gates fit a core's L2 at H = 32
COLUMN_GROUP = 8  # BLAS sums an output column past the last full group of 8 in another order


def _forward(params: PolicyParams, features: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The tape's forward arithmetic, fused and feature-major; (n, T, d) actions.

    Paths run in blocks of ``ROW_BLOCK``, padded with zero-feature columns
    to whole groups of ``COLUMN_GROUP``, so a path's arithmetic does not
    depend on where it sits. Buffers are (features, columns), allocated
    once per block; each layer is one matrix product written in place. The
    sigmoid gates use (tanh(z / 2) + 1) / 2 with the (exact) halving folded
    into their weight rows, so one tanh covers all four gates.
    """
    config, v = params.config, params.values
    h_dim, d, n_feat = config.hidden, config.action_dim, config.n_features
    n, n_steps, _ = features.shape
    gains = [v[f"block{b}.gain"].reshape(-1, 1) for b in range(config.n_blocks)]
    halve = np.repeat([0.5, 1.0], [3 * h_dim, h_dim])[:, None]
    cells = [v[f"block{b}.lstm"] * halve for b in range(config.n_blocks)]
    actions = np.empty((n, n_steps, d))
    for r0 in range(0, n, ROW_BLOCK):
        rows = min(ROW_BLOCK, n - r0)
        cols = -(-rows // COLUMN_GROUP) * COLUMN_GROUP
        # [features; u_prev; 1], [residual stream x; 1] and per cell [normed x; h; 1]
        x_in, x, *cell_in = (np.zeros((k, cols)) for k in
                             [n_feat + d + 1, h_dim + 1] + [2 * h_dim + 1] * config.n_blocks)
        for buf in (x_in, x, *cell_in):
            buf[-1] = 1.0
        c = np.zeros((config.n_blocks, h_dim, cols))
        gates, tmp = np.empty((4 * h_dim, cols)), np.empty((h_dim, cols))
        xs, u = x[:h_dim], x_in[n_feat:n_feat + d]
        for t in range(n_steps):
            x_in[:n_feat, :rows] = features[r0:r0 + rows, t].T
            np.matmul(v["embed"], x_in, out=xs)
            for w, gain, aug, c_b in zip(cells, gains, cell_in, c):
                r = 1.0 / np.sqrt(np.einsum("ij,ij->j", xs, xs) / h_dim + dc.RMS_EPS)
                np.multiply(xs, r, out=aug[:h_dim])
                aug[:h_dim] *= gain
                np.matmul(w, aug, out=gates)
                np.tanh(gates, out=gates)
                gates[:3 * h_dim] += 1.0
                gates[:3 * h_dim] *= 0.5
                i_g, f_g, o_g, g_g = np.split(gates, 4)
                c_b *= f_g
                np.multiply(i_g, g_g, out=tmp)
                c_b += tmp
                np.tanh(c_b, out=tmp)
                np.multiply(o_g, tmp, out=aug[h_dim:2 * h_dim])
                xs += aug[h_dim:2 * h_dim]
            pre_u = v["head"] @ x   # symexp, then the mask
            with np.errstate(over="ignore"):
                e = np.exp(np.abs(pre_u))
            np.multiply(np.sign(pre_u), e - 1.0, out=u)
            u *= mask[t][:, None]
            if not np.isfinite(u[:, :rows].sum()):
                raise dc.DiffError(f"non-finite action at step {t}")
            actions[r0:r0 + rows, t] = u[:, :rows].T
    return actions
