"""Reverse-mode differentiation over dense float64 matrices: the reference tape.

Training does not use this engine: the policy's own reverse sweep
(:func:`deephedge.policy.reverse_sweep`) differentiates both of its
graphs. The tape is the plain reference the tests check that sweep
against, and nothing that trains, validates or evaluates loads it: only
the tests, the benchmark's tracer and
:func:`deephedge.contracts.batch_objective`, which imports it when
called, do. Its op names stay as they are because the tracer,
``perfbench/tracing.py``, wraps them by name. :class:`DiffError` and
``RMS_EPS`` are the policy's, imported from :mod:`deephedge.policy`.

A define-by-run tape records primitive operations on 2-D arrays (rows
carry the batch, columns the features). Each op keeps whatever its
reverse rule reads; :func:`backward` walks the tape in reverse and adds
up the gradients that reach each node. The binary ops take operands of
one shape: the graphs the tests build need no broadcasting.

An affine layer is one bias-augmented weight matrix (the input gets a
trailing column of ones). A :class:`HookChannel` on an affine node, or on
an LSTM cell, records the layer input at forward time and the
pre-activation gradient at backward time; the sum of their per-timestep
outer products is the weight gradient, the identity the
Kronecker-factored curvature estimates rest on.

NaN or Inf anywhere is a hard error, checked once, in :func:`backward`:
a non-finite seed raises naming the first non-finite node the tape
holds, and a non-finite parameter gradient raises naming the parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .policy import RMS_EPS, DiffError


def _matrix(value, name: str) -> np.ndarray:
    arr = np.atleast_2d(np.ascontiguousarray(value, dtype=np.float64))
    if arr.ndim != 2:
        raise DiffError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


class HookChannel:
    """Per-layer capture of timestep inputs and pre-activation gradients.

    ``activations[k]`` is the bias-augmented input of the k-th firing of
    the layer, appended at forward time; ``grads[k]`` is the gradient of
    the loss with respect to the matching pre-activation, filled by
    :func:`backward` when the channel is among its hooks.
    """

    def __init__(self, layer: str):
        self.layer = layer
        self.activations: list[np.ndarray] = []
        self.grads: list[np.ndarray] = []

    def weight_gradient(self) -> np.ndarray:
        """Sum of per-timestep outer products, equal to the tape gradient."""
        if not self.grads:
            raise DiffError(f"channel '{self.layer}' holds no gradients; "
                            "run backward with this channel hooked")
        return sum(g.T @ a for a, g in zip(self.activations, self.grads))


@dataclass(eq=False)
class Node:
    tape: "Tape"
    idx: int
    op: str
    value: np.ndarray
    parents: tuple
    backward_fn: object           # output gradient -> parents' gradients
    channel: HookChannel | None


class Tape:
    """Ordered record of primitive operations, differentiated by
    :func:`backward`, which also checks their values for NaN and Inf."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.params: dict[str, Node] = {}

    def _emit(self, value, parents, backward_fn, op: str, channel=None) -> Node:
        node = Node(self, len(self.nodes), op, value, parents, backward_fn, channel)
        self.nodes.append(node)
        return node

    def constant(self, value) -> Node:
        return self._emit(_matrix(value, "constant"), (), None, "constant")

    def parameter(self, name: str, value) -> Node:
        if name in self.params:
            raise DiffError(f"parameter '{name}' registered twice")
        self.params[name] = node = self._emit(_matrix(value, name), (), None, "parameter")
        return node


def _tape_of(*nodes: Node) -> Tape:
    if any(n.tape is not nodes[0].tape for n in nodes):
        raise DiffError("operands belong to different tapes")
    return nodes[0].tape


def _same_shape_tape(a: Node, b: Node, op: str) -> Tape:
    if a.value.shape != b.value.shape:
        raise DiffError(f"{op}: shapes {a.value.shape} and {b.value.shape} differ")
    return _tape_of(a, b)


def add(a: Node, b: Node) -> Node:
    return _same_shape_tape(a, b, "add")._emit(
        a.value + b.value, (a, b), lambda g: (g, g), "add")


def sub(a: Node, b: Node) -> Node:
    return _same_shape_tape(a, b, "sub")._emit(
        a.value - b.value, (a, b), lambda g: (g, -g), "sub")


def multiply(a: Node, b: Node) -> Node:
    av, bv = a.value, b.value
    return _same_shape_tape(a, b, "multiply")._emit(
        av * bv, (a, b), lambda g: (g * bv, g * av), "multiply")


def scale(a: Node, s: float) -> Node:
    return a.tape._emit(a.value * s, (a,), lambda g: (g * s,), "scale")


def symexp(a: Node) -> Node:
    """sign(x) * (exp(|x|) - 1), with derivative exp(|x|)."""
    with np.errstate(over="ignore"):
        e = np.exp(np.abs(a.value))
    return a.tape._emit(np.sign(a.value) * (e - 1.0), (a,), lambda g: (g * e,), "symexp")


def concat(nodes: Sequence[Node]) -> Node:
    """Side-by-side concatenation along columns."""
    tape = _tape_of(*nodes)
    if any(n.value.shape[0] != nodes[0].value.shape[0] for n in nodes):
        raise DiffError("concat: row counts differ")
    ends = np.cumsum([n.value.shape[1] for n in nodes])[:-1]
    return tape._emit(np.concatenate([n.value for n in nodes], axis=1), tuple(nodes),
                      lambda g: tuple(np.split(g, ends, axis=1)), "concat")


def slice_cols(a: Node, start: int, stop: int) -> Node:
    shape = a.value.shape
    if not (0 <= start < stop <= shape[1]):
        raise DiffError(f"slice_cols [{start}:{stop}] out of range for shape {shape}")

    def backward_fn(g: np.ndarray):
        out = np.zeros(shape)
        out[:, start:stop] = g
        return (out,)

    return a.tape._emit(a.value[:, start:stop], (a,), backward_fn, "slice")


def total(a: Node) -> Node:
    """Sum over all entries; output shape (1, 1)."""
    shape = a.value.shape
    return a.tape._emit(np.array([[a.value.sum()]]), (a,),
                        lambda g: (np.broadcast_to(g, shape).copy(),), "sum")


def mean(a: Node) -> Node:
    """Mean over all entries; output shape (1, 1)."""
    shape = a.value.shape
    count = shape[0] * shape[1]
    return a.tape._emit(np.array([[a.value.sum()]]) / count, (a,),
                        lambda g: (np.broadcast_to(g / count, shape).copy(),), "mean")


def variance(a: Node) -> Node:
    """Unbiased sample variance over rows; output shape (1, cols)."""
    n = a.value.shape[0]
    if n < 2:
        raise DiffError("variance needs at least 2 rows")
    centered = a.value - a.value.mean(axis=0, keepdims=True)
    value = (centered * centered).sum(axis=0, keepdims=True) / (n - 1)
    # d var / d x_i = 2 (x_i - mean) / (n - 1); the mean term cancels.
    return a.tape._emit(value, (a,), lambda g: (g * (2.0 / (n - 1)) * centered,), "variance")


def rms_normalize(a: Node, gain: Node) -> Node:
    """x * gain / sqrt(mean(x^2, axis=1) + eps), gain broadcast over rows."""
    av, gv = a.value, gain.value
    if gv.shape != (1, av.shape[1]):
        raise DiffError(f"rms_normalize gain shape {gv.shape} != (1, {av.shape[1]})")
    n = av.shape[1]
    r = 1.0 / np.sqrt(np.einsum("ij,ij->i", av, av)[:, None] / n + RMS_EPS)
    xhat = av * r

    def backward_fn(g: np.ndarray):
        dxhat = g * gv
        # r depends on x through mean(x^2): dr/dx = -r^3 x / n
        row = np.einsum("ij,ij->i", dxhat, av)[:, None]
        return dxhat * r - (r ** 3 / n) * av * row, np.einsum("ij,ij->j", g, xhat)[None, :]

    return _tape_of(a, gain)._emit(xhat * gv, (a, gain), backward_fn, "rms_normalize")


def _augmented(*blocks: np.ndarray) -> np.ndarray:
    """The blocks side by side, then a column of ones: an affine map's input."""
    return np.concatenate(blocks + (np.ones((blocks[0].shape[0], 1)),), axis=1)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exact and overflow-free; the policy's forward pass uses the same form
    return 0.5 * (np.tanh(z * 0.5) + 1.0)


def affine(x: Node, w: Node, channel: HookChannel | None = None) -> Node:
    """Bias-augmented linear layer: output = [x, 1] @ w.T.

    ``w`` has shape (n_out, n_in + 1); the trailing column is the bias.
    When a hook channel is given, the augmented input is recorded at
    forward time and the pre-activation gradient at backward time.
    """
    tape = _tape_of(x, w)
    wv = w.value
    if wv.shape[1] != x.value.shape[1] + 1:
        raise DiffError(f"affine: weight shape {wv.shape} incompatible with input {x.value.shape}")
    aug = _augmented(x.value)

    def backward_fn(g: np.ndarray):
        # the pre-activation gradient, the output's own, comes last for the hook
        return (g @ wv)[:, :-1], g.T @ aug, g

    if channel is not None:
        channel.activations.append(aug)
    return tape._emit(aug @ wv.T, (x, w), backward_fn, "affine", channel)


def lstm_cell(x: Node, hc_prev: Node, w: Node, channel: HookChannel | None = None) -> Node:
    """Fused standard LSTM cell; the output stacks [h_new | c_new].

    ``x`` is the (batch, H) block input, ``hc_prev`` the (batch, 2H) stacked
    previous state, ``w`` the (4H, 2H + 1) bias-augmented gate matrix whose
    rows hold the gates in the order input, forget, output (sigmoid), cell
    (tanh). The stacked gate pre-activation is the layer's hook point, so
    the whole cell forms one Kronecker curvature block.
    """
    tape = _tape_of(x, hc_prev, w)
    xv, hcv, wv = x.value, hc_prev.value, w.value
    batch, h = xv.shape
    if hcv.shape != (batch, 2 * h) or wv.shape != (4 * h, 2 * h + 1):
        raise DiffError(f"lstm_cell: shapes x{xv.shape}, hc{hcv.shape}, w{wv.shape} inconsistent")
    c_prev = hcv[:, h:]
    aug = _augmented(xv, hcv[:, :h])
    pre = aug @ wv.T
    i_g, f_g, o_g = (_sigmoid(pre[:, k * h:(k + 1) * h]) for k in range(3))
    g_g = np.tanh(pre[:, 3 * h:])
    c_new = f_g * c_prev + i_g * g_g
    tanh_c = np.tanh(c_new)

    def backward_fn(g: np.ndarray):
        dh = g[:, :h]
        dc = g[:, h:] + dh * o_g * (1.0 - tanh_c * tanh_c)
        d_pre = np.concatenate([dc * g_g * i_g * (1.0 - i_g),
                                dc * c_prev * f_g * (1.0 - f_g),
                                dh * tanh_c * o_g * (1.0 - o_g),
                                dc * i_g * (1.0 - g_g * g_g)], axis=1)
        d_aug = d_pre @ wv
        d_hc = np.concatenate([d_aug[:, h:2 * h], dc * f_g], axis=1)
        # the stacked gate pre-activation gradient comes last for the hook
        return d_aug[:, :h], d_hc, d_pre.T @ aug, d_pre

    if channel is not None:
        channel.activations.append(aug)
    return tape._emit(np.concatenate([o_g * tanh_c, c_new], axis=1), (x, hc_prev, w),
                      backward_fn, "lstm_cell", channel)


def hedge_accumulate(action_nodes: Sequence[Node], returns: np.ndarray,
                     cost_row: np.ndarray) -> Node:
    """Fused per-path hedging aggregates over a full unroll.

    Column 0 collects terminal gains sum_t <u_t, r_t>, column 1 the L1
    trading costs sum_t <|u_t|, c>. ``returns`` is the (batch, T, d)
    constant tensor, ``cost_row`` the (d,) cost vector.
    """
    tape = _tape_of(*action_nodes)
    actions = [u_t.value for u_t in action_nodes]
    batch, d = actions[0].shape
    if returns.shape != (batch, len(actions), d):
        raise DiffError(f"hedge_accumulate: returns shape {returns.shape} unexpected")
    value = np.zeros((batch, 2))
    for t, uv in enumerate(actions):
        value[:, 0] += np.einsum("bd,bd->b", uv, returns[:, t, :])
        value[:, 1] += np.abs(uv) @ cost_row

    def backward_fn(g: np.ndarray):
        return tuple(g[:, 0:1] * returns[:, t, :] + g[:, 1:2] * (np.sign(uv) * cost_row)
                     for t, uv in enumerate(actions))

    return tape._emit(value, tuple(action_nodes), backward_fn, "hedge_accumulate")


def backward(seed: Node, hooks: Iterable[HookChannel] = ()) -> dict[str, np.ndarray]:
    """Reverse traversal from a scalar seed; returns parameter gradients
    and fills the ``grads`` of each channel in ``hooks``."""
    tape = seed.tape
    if seed.value.shape != (1, 1):
        raise DiffError(f"backward seed must be scalar (1, 1), got {seed.value.shape}")
    if not math.isfinite(seed.value[0, 0]):
        for node in tape.nodes:
            if not np.isfinite(node.value).all():
                raise DiffError(f"non-finite output of '{node.op}' at tape node {node.idx}")

    hooks = tuple(hooks)
    for ch in hooks:
        ch.grads = []
    grad = {seed.idx: np.ones((1, 1))}   # node index -> gradient of the seed
    for node in reversed(tape.nodes[: seed.idx + 1]):
        if node.idx not in grad or node.backward_fn is None:
            continue
        parent_grads = node.backward_fn(grad[node.idx])
        if node.channel in hooks:   # a hooked op's rule ends with its pre-activation gradient
            node.channel.grads.append(parent_grads[-1])
        for parent, g in zip(node.parents, parent_grads):
            grad[parent.idx] = grad[parent.idx] + g if parent.idx in grad else g
    for ch in hooks:
        ch.grads.reverse()   # visited last firing first
        if len(ch.grads) != len(ch.activations):
            raise DiffError(f"channel '{ch.layer}' got {len(ch.grads)} gradients "
                            f"for {len(ch.activations)} firings")

    out = {name: grad.get(node.idx, np.zeros_like(node.value))
           for name, node in tape.params.items()}
    for name, g in out.items():
        if not math.isfinite(float(g.sum())):
            raise DiffError(f"non-finite gradient of parameter '{name}'")
    return out
