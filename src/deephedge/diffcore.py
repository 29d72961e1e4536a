"""Reverse-mode differentiation over dense float64 matrices.

Training does not use this engine: the policy's own reverse sweep
(:func:`deephedge.policy.reverse_sweep`) differentiates both of its
graphs. The tape stays as the reference the tests check that sweep
against, and its op names are the layers the benchmark's tracer wraps.
:class:`DiffError` and ``RMS_EPS`` are shared with the policy.

The engine is deliberately small: a define-by-run tape of primitive
operations on 2-D arrays, rebuilt for every recorded unroll, with exact
reverse traversal. Rows carry the batch dimension, columns carry features.

Affine layers are represented by a single bias-augmented weight matrix
(the input gets a trailing column of ones), and each affine node can
carry a :class:`HookChannel` that records the layer input at forward
time and the pre-activation gradient at backward time. Summing the
per-timestep outer products recovers the weight gradient exactly, which
is the identity the Kronecker-factored curvature estimates rest on.

A tape's memory grows with the unroll, so one rule decides
what a reverse rule may keep: only the arrays it reads that no parent
node's value already holds. Anything a parent holds (an affine input, an
action whose sign is needed) is read back from the parent at backward
time, and anything cheap to rebuild from parent values (the augmented
input) is rebuilt. The fused LSTM cell computes each gate into its own
contiguous (batch, H) array and keeps the gates and tanh(c), not the
(batch, 4H) pre-activation. A rebuilt array repeats the forward pass's
elementwise operations in the same order, so it is bit-identical to the
array it replaces.

NaN or Inf anywhere is a hard error, not a value, and one rule checks
for it. A tape is checked once, in :func:`backward`: a non-finite seed
raises naming the first non-finite node the tape holds, and a
non-finite parameter gradient raises naming the parameter.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

# The universal numeric carrier: a 2-D C-order float64 array.
Matrix64 = np.ndarray

RMS_EPS = 1e-8  # inside the root: sqrt(mean(x^2) + RMS_EPS)


class DiffError(RuntimeError):
    """Shape mismatch, non-finite value, or misuse of the tape."""


def as_matrix64(value, name: str = "value") -> Matrix64:
    arr = np.ascontiguousarray(value, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DiffError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def _ensure_finite(value: np.ndarray, op: str, idx: int) -> None:
    # A single reduction: the sum is finite iff every entry is finite
    # (any NaN poisons it, a lone Inf survives, +Inf-Inf gives NaN).
    if not math.isfinite(float(value.sum())):
        raise DiffError(f"non-finite output of '{op}' at tape node {idx}")


class HookChannel:
    """Per-layer capture of timestep inputs and pre-activation gradients.

    ``activations[k]`` is the bias-augmented input of the k-th firing of
    the layer, appended at forward time; ``grads[k]`` is the gradient of
    the loss with respect to the matching pre-activation. Gradients are
    recorded only while the channel is armed by :func:`backward`, which
    visits firings last first, so they are reversed on read.
    """

    def __init__(self, layer: str):
        self.layer = layer
        self.activations: list[np.ndarray] = []
        self._grads: list[np.ndarray] = []     # last firing first
        self._armed = False

    def _record_grad(self, g: np.ndarray) -> None:
        if self._armed:
            self._grads.append(g)

    @property
    def grads(self) -> list[np.ndarray]:
        if len(self._grads) != len(self.activations):
            raise DiffError(
                f"channel '{self.layer}' holds {len(self._grads)} gradients for "
                f"{len(self.activations)} firings; run backward with this channel hooked"
            )
        return self._grads[::-1]

    def weight_gradient(self) -> Matrix64:
        """Sum of per-timestep outer products, equal to the tape gradient."""
        acc = None
        for a, g in zip(self.activations, self.grads):
            contrib = g.T @ a
            acc = contrib if acc is None else acc + contrib
        if acc is None:
            raise DiffError(f"channel '{self.layer}' recorded no firings")
        return acc


class Node:
    __slots__ = ("tape", "idx", "op", "value", "parents", "backward_fn", "grad",
                 "needs_grad", "grad_owned")

    def __init__(self, tape: "Tape", idx: int, op: str, value: np.ndarray,
                 parents: tuple, backward_fn, param: str | None):
        self.tape = tape
        self.idx = idx
        self.op = op
        self.value = value
        self.parents = parents
        self.backward_fn = backward_fn
        self.grad: np.ndarray | None = None
        self.needs_grad = param is not None or any(p.needs_grad for p in parents)
        self.grad_owned = False


class Tape:
    """Ordered record of primitive operations, differentiated by
    :func:`backward`, which also checks their values for NaN and Inf."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.params: dict[str, Node] = {}

    def _emit(self, value: np.ndarray, parents: tuple, backward_fn,
              op: str, param: str | None = None) -> Node:
        node = Node(self, len(self.nodes), op, value, parents, backward_fn, param)
        self.nodes.append(node)
        return node

    def constant(self, value) -> Node:
        return self._emit(as_matrix64(value, "constant"), (), None, "constant")

    def parameter(self, name: str, value) -> Node:
        if name in self.params:
            raise DiffError(f"parameter '{name}' registered twice")
        node = self._emit(as_matrix64(value, name), (), None, "parameter", param=name)
        self.params[name] = node
        return node


def _tape_of(*nodes: Node) -> Tape:
    tape = nodes[0].tape
    for n in nodes[1:]:
        if n.tape is not tape:
            raise DiffError("operands belong to different tapes")
    return tape


# ---------------------------------------------------------------------------
# primitives


def _broadcast_check(x: np.ndarray, y: np.ndarray, op: str) -> None:
    # Same shape, or one operand is (1, c), (r, 1) or (1, 1).
    for axis in (0, 1):
        if x.shape[axis] != y.shape[axis] and 1 not in (x.shape[axis], y.shape[axis]):
            raise DiffError(f"{op}: incompatible shapes {x.shape} and {y.shape}")


def _reduce_to(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and g.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and out.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def add(a: Node, b: Node) -> Node:
    tape = _tape_of(a, b)
    _broadcast_check(a.value, b.value, "add")
    value = a.value + b.value
    ash, bsh = a.value.shape, b.value.shape
    na, nb = a.needs_grad, b.needs_grad

    def backward_fn(g: np.ndarray):
        return (_reduce_to(g, ash) if na else None,
                _reduce_to(g, bsh) if nb else None)

    return tape._emit(value, (a, b), backward_fn, "add")


def sub(a: Node, b: Node) -> Node:
    tape = _tape_of(a, b)
    _broadcast_check(a.value, b.value, "sub")
    value = a.value - b.value
    ash, bsh = a.value.shape, b.value.shape
    na, nb = a.needs_grad, b.needs_grad

    def backward_fn(g: np.ndarray):
        return (_reduce_to(g, ash) if na else None,
                _reduce_to(-g, bsh) if nb else None)

    return tape._emit(value, (a, b), backward_fn, "sub")


def multiply(a: Node, b: Node) -> Node:
    tape = _tape_of(a, b)
    _broadcast_check(a.value, b.value, "multiply")
    av, bv = a.value, b.value
    value = av * bv
    na, nb = a.needs_grad, b.needs_grad

    def backward_fn(g: np.ndarray):
        return (_reduce_to(g * bv, av.shape) if na else None,
                _reduce_to(g * av, bv.shape) if nb else None)

    return tape._emit(value, (a, b), backward_fn, "multiply")


def scale(a: Node, s: float) -> Node:
    value = a.value * s

    def backward_fn(g: np.ndarray):
        return (g * s,)

    return a.tape._emit(value, (a,), backward_fn, "scale")


def symexp(a: Node) -> Node:
    """sign(x) * (exp(|x|) - 1), with derivative exp(|x|)."""
    av = a.value
    with np.errstate(over="ignore"):
        e = np.exp(np.abs(av))
    value = np.sign(av) * (e - 1.0)

    def backward_fn(g: np.ndarray):
        return (g * e,)

    return a.tape._emit(value, (a,), backward_fn, "symexp")


def concat(nodes: Sequence[Node]) -> Node:
    """Side-by-side concatenation along columns."""
    tape = _tape_of(*nodes)
    rows = nodes[0].value.shape[0]
    for n in nodes[1:]:
        if n.value.shape[0] != rows:
            raise DiffError("concat: row counts differ")
    widths = [n.value.shape[1] for n in nodes]
    value = np.concatenate([n.value for n in nodes], axis=1)
    offsets = np.cumsum([0] + widths)

    def backward_fn(g: np.ndarray):
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(widths)))

    return tape._emit(value, tuple(nodes), backward_fn, "concat")


def slice_cols(a: Node, start: int, stop: int) -> Node:
    av = a.value
    if not (0 <= start < stop <= av.shape[1]):
        raise DiffError(f"slice_cols [{start}:{stop}] out of range for shape {av.shape}")
    value = av[:, start:stop]  # view; node values are never mutated
    shape = av.shape

    def backward_fn(g: np.ndarray):
        out = np.zeros(shape)
        out[:, start:stop] = g
        return (out,)

    return a.tape._emit(value, (a,), backward_fn, "slice")


def total(a: Node) -> Node:
    """Sum over all entries; output shape (1, 1)."""
    shape = a.value.shape
    value = np.array([[a.value.sum()]])

    def backward_fn(g: np.ndarray):
        return (np.broadcast_to(g, shape).copy() if g.shape != shape else g,)

    return a.tape._emit(value, (a,), backward_fn, "sum")


def mean(a: Node) -> Node:
    """Mean over all entries; output shape (1, 1)."""
    shape = a.value.shape
    count = shape[0] * shape[1]
    value = np.array([[a.value.sum()]]) / count

    def backward_fn(g: np.ndarray):
        return (np.broadcast_to(g / count, shape).copy(),)

    return a.tape._emit(value, (a,), backward_fn, "mean")


def variance(a: Node) -> Node:
    """Unbiased sample variance over rows; output shape (1, cols)."""
    av = a.value
    n = av.shape[0]
    if n < 2:
        raise DiffError("variance needs at least 2 rows")
    centered = av - av.mean(axis=0, keepdims=True)
    value = (centered * centered).sum(axis=0, keepdims=True) / (n - 1)

    def backward_fn(g: np.ndarray):
        # d var / d x_i = 2 (x_i - mean) / (n - 1); the mean term cancels.
        return (g * (2.0 / (n - 1)) * centered,)

    return a.tape._emit(value, (a,), backward_fn, "variance")


def rms_normalize(a: Node, gain: Node) -> Node:
    """x * gain / sqrt(mean(x^2, axis=1) + eps), gain broadcast over rows."""
    av, gv = a.value, gain.value
    if gv.shape != (1, av.shape[1]):
        raise DiffError(f"rms_normalize gain shape {gv.shape} != (1, {av.shape[1]})")
    n = av.shape[1]
    ms = np.einsum("ij,ij->i", av, av)[:, None] / n
    r = 1.0 / np.sqrt(ms + RMS_EPS)
    value = av * r
    value *= gv
    tape = _tape_of(a, gain)
    na, ng = a.needs_grad, gain.needs_grad

    def backward_fn(g: np.ndarray):
        da = dgain = None
        if na:
            dxhat = g * gv
            # r depends on x through mean(x^2): dr/dx = -r^3 x / n
            row = np.einsum("ij,ij->i", dxhat, av)[:, None]
            da = dxhat * r - (r ** 3 / n) * av * row
        if ng:
            dgain = np.einsum("ij,ij->j", g, av * r)[None, :]
        return da, dgain

    return tape._emit(value, (a, gain), backward_fn, "rms_normalize")


def _augmented(*blocks: np.ndarray) -> np.ndarray:
    """The blocks side by side, then a column of ones: an affine map's input."""
    return np.concatenate(blocks + (np.ones((blocks[0].shape[0], 1)),), axis=1)


def affine(x: Node, w: Node, channel: HookChannel | None = None) -> Node:
    """Bias-augmented linear layer: output = [x, 1] @ w.T.

    ``w`` has shape (n_out, n_in + 1); the trailing column is the bias.
    When a hook channel is given, the augmented input is recorded at
    forward time and the pre-activation gradient at backward time. The
    reverse rule rebuilds the augmented input from ``x.value``.
    """
    tape = _tape_of(x, w)
    xv, wv = x.value, w.value
    if wv.shape[1] != xv.shape[1] + 1:
        raise DiffError(f"affine: weight shape {wv.shape} incompatible with input {xv.shape}")
    aug = _augmented(xv)
    value = aug @ wv.T
    nx, nw = x.needs_grad, w.needs_grad

    def backward_fn(g: np.ndarray):
        if channel is not None:
            channel._record_grad(g)
        dx = (g @ wv)[:, :-1] if nx else None
        dw = g.T @ _augmented(xv) if nw else None
        return dx, dw

    if channel is not None:
        channel.activations.append(aug)
    return tape._emit(value, (x, w), backward_fn, "affine")


def lstm_cell(x: Node, hc_prev: Node, w: Node, channel: HookChannel | None = None) -> Node:
    """Fused standard LSTM cell; the output stacks [h_new | c_new].

    ``x`` is the (batch, H) block input, ``hc_prev`` the (batch, 2H) stacked
    previous state, ``w`` the (4H, 2H + 1) bias-augmented gate matrix whose
    rows hold the gates in the order input, forget, output (sigmoid), cell
    (tanh). The stacked gate pre-activation is the layer's hook point, so
    the whole cell forms one Kronecker curvature block. Mathematically this
    is an affine map followed by elementwise sigmoid, tanh, products and
    sums; it is fused because the cell dominates the unroll's node count.

    Each gate is computed into its own contiguous (batch, H) array, the
    three sigmoid gates as the planes of one (3, batch, H) array: an
    elementwise op on a strided column slice of a (batch, 4H) array costs
    about as much as one on the whole array. The (batch, 4H) pre-activation
    is dropped once the gates exist, and the reverse rule keeps only the
    four gates and tanh(c_new), 5H columns per row; it rebuilds the
    augmented input from ``x.value`` and ``hc_prev.value``.
    """
    tape = _tape_of(x, hc_prev, w)
    xv, hcv, wv = x.value, hc_prev.value, w.value
    batch, h_dim = xv.shape
    if hcv.shape != (batch, 2 * h_dim) or wv.shape != (4 * h_dim, 2 * h_dim + 1):
        raise DiffError(f"lstm_cell: shapes x{xv.shape}, hc{hcv.shape}, w{wv.shape} inconsistent")
    c_prev = hcv[:, h_dim:]
    aug = _augmented(xv, hcv[:, :h_dim])
    # (4, batch, H) view of the pre-activation, one plane per gate
    pre = (aug @ wv.T).reshape(batch, 4, h_dim).transpose(1, 0, 2)
    # sigmoid as 0.5 * (tanh(x/2) + 1): exact, stable, and faster than scipy's logistic
    sig = np.empty((3, batch, h_dim))
    np.multiply(pre[:3], 0.5, out=sig)
    np.tanh(sig, out=sig)
    sig += 1.0
    sig *= 0.5
    i_g, f_g, o_g = sig
    g_g = np.tanh(pre[3])
    del pre
    c_new = f_g * c_prev
    c_new += i_g * g_g
    tanh_c = np.tanh(c_new)
    value = np.empty((batch, 2 * h_dim))
    np.multiply(o_g, tanh_c, out=value[:, :h_dim])
    value[:, h_dim:] = c_new
    nx, nhc, nw = x.needs_grad, hc_prev.needs_grad, w.needs_grad

    def backward_fn(g: np.ndarray):
        dh = g[:, :h_dim]
        # dc = dc_ext + dh * o * (1 - tanh(c)^2)
        dc = tanh_c * tanh_c
        np.subtract(1.0, dc, out=dc)
        dc *= dh
        dc *= o_g
        dc += g[:, h_dim:]
        # each gate's last factor writes its plane of the (batch, 4H) gradient
        d_pre = np.empty((batch, 4 * h_dim))
        d_gates = d_pre.reshape(batch, 4, h_dim).transpose(1, 0, 2)
        dsig = np.subtract(1.0, sig)
        dsig *= sig  # s (1 - s)
        dsig[:2] *= dc
        dsig[2] *= dh
        np.multiply(dsig[0], g_g, out=d_gates[0])
        np.multiply(dsig[1], c_prev, out=d_gates[1])
        np.multiply(dsig[2], tanh_c, out=d_gates[2])
        dtanh = g_g * g_g
        np.subtract(1.0, dtanh, out=dtanh)
        dtanh *= dc
        np.multiply(dtanh, i_g, out=d_gates[3])
        if channel is not None:
            channel._record_grad(d_pre)
        dx = d_hc = dw = None
        if nx or nhc:
            d_aug = d_pre @ wv
            if nhc:
                d_hc = np.empty((batch, 2 * h_dim))
                d_hc[:, :h_dim] = d_aug[:, h_dim:-1]
                np.multiply(dc, f_g, out=d_hc[:, h_dim:])
            if nx:
                dx = d_aug[:, :h_dim]
        if nw:
            dw = d_pre.T @ _augmented(xv, hcv[:, :h_dim])
        return dx, d_hc, dw

    if channel is not None:
        channel.activations.append(aug)
    return tape._emit(value, (x, hc_prev, w), backward_fn, "lstm_cell")


def hedge_accumulate(action_nodes: Sequence[Node], returns: np.ndarray,
                     cost_row: np.ndarray) -> Node:
    """Fused per-path hedging aggregates over a full unroll.

    Column 0 collects terminal gains sum_t <u_t, r_t>, column 1 the L1
    trading costs sum_t <|u_t|, c>. ``returns`` is the (batch, T, d)
    constant tensor, ``cost_row`` the (d,) cost vector. One tape node
    replaces six per step. The reverse rule recomputes the signs of the
    actions from their node values.
    """
    tape = _tape_of(*action_nodes)
    n_steps = len(action_nodes)
    batch, d = action_nodes[0].value.shape
    if returns.shape != (batch, n_steps, d):
        raise DiffError(f"hedge_accumulate: returns shape {returns.shape} unexpected")
    value = np.zeros((batch, 2))
    for t, u_t in enumerate(action_nodes):
        uv = u_t.value
        value[:, 0] += np.einsum("bd,bd->b", uv, returns[:, t, :])
        value[:, 1] += np.abs(uv) @ cost_row
    actions = [u_t.value for u_t in action_nodes]

    def backward_fn(g: np.ndarray):
        g_gain = g[:, 0:1]
        g_cost = g[:, 1:2]
        return tuple(g_gain * returns[:, t, :] + g_cost * (np.sign(uv) * cost_row)
                     for t, uv in enumerate(actions))

    return tape._emit(value, tuple(action_nodes), backward_fn, "hedge_accumulate")


# ---------------------------------------------------------------------------
# backward pass


def backward(seed: Node, hooks: Iterable[HookChannel] = ()) -> dict[str, Matrix64]:
    """Reverse traversal from a scalar seed; returns parameter gradients.

    Channels in ``hooks`` record pre-activation gradients for their
    affine firings. A non-finite seed raises naming the first non-finite
    node on the tape, a non-finite gradient names its parameter. Nodes
    are released as they are consumed and the tape lets go of its nodes
    at the end, so a tape cannot be differentiated twice.
    """
    tape = seed.tape
    if not tape.nodes:
        raise DiffError("backward on a tape that was already differentiated")
    if seed.value.shape != (1, 1):
        raise DiffError(f"backward seed must be scalar (1, 1), got {seed.value.shape}")

    hooks = tuple(hooks)
    for ch in hooks:
        ch._armed = True
        ch._grads.clear()
    try:
        if not math.isfinite(seed.value[0, 0]):
            for node in tape.nodes:
                _ensure_finite(node.value, node.op, node.idx)
        seed.grad = np.ones((1, 1))
        for node in reversed(tape.nodes[: seed.idx + 1]):
            if node.grad is None or node.backward_fn is None:
                continue
            grads = node.backward_fn(node.grad)
            for parent, g in zip(node.parents, grads):
                if g is None or not parent.needs_grad:
                    continue
                if parent.grad is None:
                    # May alias a sibling's deposit; don't mutate in place
                    # until this node owns a freshly allocated buffer.
                    parent.grad = g
                    parent.grad_owned = False
                elif parent.grad_owned:
                    parent.grad += g
                else:
                    parent.grad = parent.grad + g
                    parent.grad_owned = True
            # Free what the rest of the traversal no longer needs.
            node.grad = None
            node.backward_fn = None
            node.parents = ()

        out: dict[str, Matrix64] = {}
        for name, node in tape.params.items():
            out[name] = node.grad if node.grad is not None else np.zeros_like(node.value)
            node.grad = None
            if not math.isfinite(float(out[name].sum())):
                raise DiffError(f"non-finite gradient of parameter '{name}'")
        return out
    finally:
        for ch in hooks:
            ch._armed = False
        # Every node points at the tape: dropping the tape's references
        # breaks the cycle, so the tape is freed as soon as its last node
        # is, without waiting for the cyclic garbage collector.
        tape.nodes = []
        tape.params = {}
