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
    tape: dc.Tape
    action_nodes: list[dc.Node]
    channels: dict[str, dc.HookChannel]

    @property
    def actions(self) -> np.ndarray:
        """(n, T, d) array of the unrolled actions."""
        return np.stack([n.value for n in self.action_nodes], axis=1)


def rollout(params: PolicyParams, features: np.ndarray, mask: np.ndarray,
            capture: bool = False, record: bool = True) -> RolloutResult:
    """Unroll the policy over all steps of a feature tensor (n, T, f).

    ``capture`` attaches a hook channel to every Kronecker block so that
    per-step inputs (and, after a backward pass, pre-activation
    gradients) are recorded. ``record=False`` runs forward-only and
    raises ``DiffError`` at the first op with a non-finite output; a
    recorded unroll is checked for finite values by ``dc.backward``.
    """
    config = params.config
    n, n_steps, n_feat = features.shape
    if n_feat != config.n_features:
        raise ValueError(f"feature width {n_feat} != config {config.n_features}")
    if mask.shape != (n_steps, config.action_dim):
        raise ValueError(f"mask shape {mask.shape} unexpected")
    tape = dc.Tape(record=record)
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

