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
:func:`reverse_sweep` backpropagates an action seed through them by
hand. A training run records every batch into one :class:`Workspace`,
whose buffers live as long as the run and are overwritten by each batch,
so a result's caches are valid only until the next unroll into its
workspace. The system differentiates two graphs, both this unroll: the
batch objective (seed dL/du) and <s, u> (seed s), the latter along one
path of the batch. :meth:`RolloutResult.paths` copies paths out of a
batch's caches as an unroll of their own, for that pseudo-path and for
the gradient-variance probe, which sweeps the batch's rows a group at a
time. Each weight gradient is the sum over steps of pre-activation
gradients times layer inputs, the identity the Kronecker factors rest
on; a capturing sweep returns a block's pre-activation gradients as one
(T, out, paths) array. The caches keep per step only what the sweep
cannot rebuild exactly: the embedding's input, RMSNorm's r, the gates,
each cell's state and symexp's derivative. Each cell's h, its input and
tanh of its state, and the residual stream, are exact functions of those
and the parameters, which the sweep and
:meth:`RolloutResult.step_inputs` recompute with the forward's own
ufuncs on the same operands (selective recomputation, Chen et al. 2016,
arXiv:1604.06174), so they are bit for bit what the forward computed.
The generic tape of :mod:`deephedge.diffcore` is the reference the tests
check the sweep against. Nothing that trains, validates or evaluates
loads it: only the tests, the benchmark's tracer and
:func:`deephedge.contracts.batch_objective` do, and it takes
:class:`DiffError` and ``RMS_EPS`` from this module.

Paths run in row blocks: ``RECORD_BLOCK`` (256) in a recorded unroll (a
training batch), ``ROW_BLOCK`` (512) in a forward-only one (validation,
evaluation). Every unroll and sweep of several row blocks runs them the
same way, through :func:`_run_blocks`: in worker processes, one fewer
than ``min(blocks, usable CPUs)``, beside the calling process. A
recorded unroll's :class:`Workspace` forks its workers with its caches
and keeps them for its sweeps, so a training run forks them once; a
forward-only unroll forks its own for the call, over its action and
feature rows, and reaps them before it returns. The time goes to small
ufunc calls, each of which releases the GIL and takes it back, so two
threads sweeping (32, 256) planes lost about a third of their time
waiting for it; processes share only what the blocks write, the caches
or the actions, in anonymous shared memory, and a worker forked for the
call reads its feature rows from the memory it inherits. A command to a
worker carries the parameters, the mask and its blocks' own rows (their
features, or their seed); each block builds its constants from the
parameters where it runs, into its caches: the cells' gate weights, with
the sigmoid rows halved, and each RMSNorm gain across its columns. A
block's arithmetic is its own wherever it runs, and the calling process
adds the blocks' weight gradients in block order, so the block size, not
the CPU count, sets the order of every sum, and the results do not
depend on the number of workers.
"""

from __future__ import annotations

import gc
import math
import mmap
import os
import signal
import threading
import weakref
from collections.abc import Iterator
from dataclasses import dataclass, fields
from multiprocessing.connection import Connection, Pipe
from typing import ClassVar

import numpy as np

from . import contracts as ct

RMS_EPS = 1e-8  # inside the root: sqrt(mean(x^2) + RMS_EPS)


class DiffError(RuntimeError):
    """A non-finite action or gradient, or misuse of the reference tape."""


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
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be at least 1")

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
# and on two CPUs (one worker beside the caller, one BLAS thread each) the
# 4,096-path full-grid evaluation took 1,125 ms in 512-path blocks against
# 1,328 ms in 256-path ones, with the same actions. A recorded unroll (a
# training batch) takes RECORD_BLOCK, so a desk batch of 512 is two
# blocks, unrolled and swept on two cores: a desk iteration took about 20%
# less, though on one thread two 256-path blocks take 10-25% longer than
# one 512-path block. Paths copied out of a batch (KFAC's pseudo-path, a
# group of the probe's) are one block of their own. The block size, never
# the CPU count, sets the order of every sum over blocks.
ROW_BLOCK = 512
RECORD_BLOCK = 256
COLUMN_GROUP = 8  # BLAS sums an output column past the last full group of 8 in another order


def _columns(rows: int) -> int:
    """A block's columns: its rows padded to whole groups of ``COLUMN_GROUP``."""
    return -(-rows // COLUMN_GROUP) * COLUMN_GROUP


def _shared_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized float64 array in anonymous shared memory, which a
    forked worker writes and this process reads. The mapping holds one
    element more than the array, since ``mmap`` refuses 0 bytes."""
    size = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * (size + 1)), count=size).reshape(shape)


@dataclass
class _Caches:
    """One row block's buffers, time-major and feature-major: (slot, ...,
    features, columns), and its constants, which each unroll builds from
    the parameters where the block runs: the cells' gate weights
    (:func:`_gate_weights`) and the RMSNorm gain planes
    (:func:`_gain_planes`). A recorded unroll keeps step t in slot t, and
    the recurrent values it hands to step t + 1 (the action and each cell's
    c) in slot t + 1 of ``x_in`` and ``c``, so only those two have a slot
    T. Everything else the sweep reads is an exact function of these:
    each cell's h at step t is o_t tanh(c[t + 1]) (:meth:`cell_output`),
    the residual stream is the embedding of ``x_in[t]`` plus the blocks' h
    (:meth:`stream`), and a cell's input is [stream r gain; h_prev; 1].
    So ``res``, ``aug`` and ``tanh_c`` have no time slot: the forward
    overwrites them every step, and the sweep (into ``aug`` and ``res``)
    and :meth:`RolloutResult.step_inputs` rebuild those values, bit for bit,
    with the forward's ufuncs on the same C-contiguous (H, cols) operands:
    one tanh and two multiplies per cell and step, against 36% of a
    recorded block's memory. A forward-only
    unroll has one time slot for all buffers, and its blocks share one
    block slot for r, the gates and the residual stream after each block,
    so its buffers stay in cache."""

    rows: int
    cells: np.ndarray   # (B, 4H, 2H + 1): each cell's gate weights, the sigmoid rows halved
    gains: np.ndarray   # (B, H, cols): each RMSNorm gain across the block's columns
    x_in: np.ndarray    # (T + 1, f + d + 1, cols): [features; u_prev; 1], the embedding's input
    res: np.ndarray     # (B + 1, H + 1, cols): [residual stream; 1] into each block and the head
    r: np.ndarray       # (T, B, cols): RMSNorm's 1 / sqrt(mean(x^2) + eps)
    aug: np.ndarray     # (B, 2H + 1, cols): [normed x; h_prev; 1], each cell's input, this step's
    gates: np.ndarray   # (T, B, 4H, cols): sigmoid(i, f, o), then tanh(g)
    c: np.ndarray       # (T + 1, B, H, cols): each cell's state before the step
    tanh_c: np.ndarray  # (H, cols): tanh of a cell's new state, the forward's scratch
    e: np.ndarray       # (T, d, cols): exp(|head output|), the derivative of symexp

    @classmethod
    def allocate(cls, config: PolicyConfig, n_steps: int, rows: int, record: bool,
                 shared: bool = False) -> "_Caches":
        """Buffers for ``rows`` paths, in anonymous shared memory when
        ``shared`` (a forked worker writes them and this process reads them),
        in this process's own memory otherwise."""
        h_dim, d, n_blocks = config.hidden, config.action_dim, config.n_blocks
        cols = _columns(rows)
        steps, carried, blocks = (n_steps, n_steps + 1, n_blocks) if record else (1, 1, 1)
        shapes = {"cells": (n_blocks, 4 * h_dim, 2 * h_dim + 1),
                  "gains": (n_blocks, h_dim, cols),
                  "x_in": (carried, config.n_features + d + 1, cols),
                  "res": (blocks + 1, h_dim + 1, cols),
                  "r": (steps, blocks, cols),
                  "aug": (n_blocks, 2 * h_dim + 1, cols),
                  "gates": (steps, blocks, 4 * h_dim, cols),
                  "c": (carried, n_blocks, h_dim, cols),
                  "tanh_c": (h_dim, cols),
                  "e": (steps, d, cols)}
        empty = _shared_empty if shared else np.empty
        caches = cls(rows=rows, **{name: empty(shape) for name, shape in shapes.items()})
        caches.reset(config.n_features)
        return caches

    def reset(self, n_feat: int) -> None:
        """Set what the unroll does not write, whatever the buffers held:
        the first step's recurrent inputs (u_prev, h_prev, c) are zero, the
        pad columns' features are zero and the bias rows are one, as are
        the last slot's features, which no step reads. Every other value is
        written before it is read, so after an unroll the buffers hold a
        function of its inputs alone."""
        for carried in (self.x_in, self.c):
            carried[0] = 0.0
            carried[-1] = 0.0
        self.aug[...] = 0.0
        self.x_in[:, :n_feat, self.rows:] = 0.0
        for ones in (self.x_in, self.res, self.aug):
            ones[..., -1, :] = 1.0

    def cell_output(self, t: int, b: int, tanh_c: np.ndarray, h: np.ndarray) -> None:
        """Cell ``b``'s state after step ``t`` through tanh, into the (H,
        cols) ``tanh_c``, and its h at step ``t``, o_t tanh(c), into ``h``:
        the forward's ufuncs on the same operands, so bit for bit what it
        computed."""
        h_dim = self.c.shape[2]
        np.tanh(self.c[t + 1, b], out=tanh_c)
        np.multiply(self.gates[t, b, 2 * h_dim:3 * h_dim], tanh_c, out=h)

    def stream(self, embed: np.ndarray, t: int, h: np.ndarray) -> np.ndarray:
        """Step ``t``'s residual stream, rebuilt into ``res`` from each
        block's (H, cols) h at the step in ``h`` with the forward's own
        arithmetic (the embedding's matrix product, then each block's h
        added in turn), so bit for bit what the forward built."""
        h_dim = self.res.shape[1] - 1
        np.matmul(embed, self.x_in[t], out=self.res[0, :h_dim])
        for b, h_b in enumerate(h):
            np.add(self.res[b, :h_dim], h_b, out=self.res[b + 1, :h_dim])
        return self.res


class Workspace:
    """The buffers of recorded unrolls, reused from one unroll to the next,
    and the worker processes that unroll and sweep their row blocks.

    The caches (:class:`_Caches`) hold, per step, what the sweep cannot
    rebuild exactly: 175 MB at a batch of 512, 63 steps and the desk's
    9 instruments, 0.36 GB at 126 steps and 20. They are allocated once
    per shape: an unroll of the same policy shape, step count and path
    count writes over the previous one's, with no fresh allocation, and
    any other unroll reallocates them. Sweeping or reading the previous
    result would then read the new unroll, so an unroll into the
    workspace, or :meth:`release`, invalidates every result recorded into
    it before: :func:`reverse_sweep`, ``step_inputs`` and ``paths`` refuse
    them; a sweep's (T, out, paths) captures, and the unrolls ``paths``
    copied out, are their own arrays and stay valid. The workspace holds
    nothing between unrolls that an unroll reads: each one resets what its
    forward reads before it writes, and each row block builds its gate
    weights and gain planes into its own caches, where it runs.

    Right after allocating caches of two or more row blocks, with two or
    more usable CPUs, the workspace forks ``min(blocks, usable CPUs) - 1``
    workers (none where ``os.fork`` is missing or another thread is alive).
    Worker w runs the row blocks k = w (mod workers + 1), this process
    those of k = 0, at the same time: GIL-bound ufunc loops do not overlap
    on threads. A worker's blocks live in anonymous shared memory, which it
    writes and this process reads; a command carries the parameters, the
    mask and its blocks' own rows (their features, or their seed). The
    workers live exactly as long as the caches they write: :meth:`release`,
    a reallocation, or the workspace's collection stops them, and one whose
    command pipe reaches EOF, because this process died, exits on its own.
    A training run records every batch into one workspace, so it allocates
    the caches and forks the workers once.
    """

    def __init__(self):
        self._caches: list[_Caches] = []
        self._shape: tuple | None = None
        self.generation = 0
        self.workers: list[tuple[int, Connection]] = []   # (pid, command pipe)
        weakref.finalize(self, _stop_workers, self.workers)

    def caches(self, config: PolicyConfig, n_steps: int, n: int) -> list[_Caches]:
        """Recorded caches for ``n`` paths over ``n_steps`` steps, one per row block."""
        self.generation += 1
        if self._shape == (config, n_steps, n):
            for cache in self._caches:
                cache.reset(config.n_features)
            return self._caches
        self.release()   # free the old caches and their workers before allocating
        starts = range(0, n, RECORD_BLOCK)
        lanes = _worker_count(len(starts)) + 1
        self._caches = [_Caches.allocate(config, n_steps, min(RECORD_BLOCK, n - r0),
                                         record=True, shared=k % lanes != 0)
                        for k, r0 in enumerate(starts)]
        _fork_workers(self._caches, lanes - 1, self.workers)
        self._shape = (config, n_steps, n)
        return self._caches

    def release(self) -> None:
        """Stop the workers and drop the buffers, invalidating the last
        result recorded into them."""
        _stop_workers(self.workers)
        self._caches, self._shape = [], None
        self.generation += 1


@dataclass
class RolloutResult:
    """An unroll's (n, T, d) actions. A recorded one also keeps the caches
    :func:`reverse_sweep` reads, valid until ``params`` change or the
    workspace they live in is unrolled into again; :meth:`paths` copies
    some of its paths out of them as an unroll of their own."""

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
        """Step by step, each Kronecker block's (in + 1, n) inputs, in
        arrays of the step's own: the cells' and the head's rebuilt, going
        forward, from the caches and their gain planes, with the
        sweep's arithmetic, the row blocks' side by side, so the matrices
        are bit for bit the same whatever the row blocks. A stale result is
        refused at the call."""
        return _step_inputs(self.recorded(), self.params, self.actions.shape[0])

    def paths(self, rows) -> "RolloutResult":
        """The paths ``rows``, in that order, as a recorded unroll of one
        row block, copied out of the caches, whatever blocks they sit in,
        into buffers padded with zero columns to whole groups of
        ``COLUMN_GROUP``. Sweeping it is, bit for bit, sweeping each path
        unrolled alone: each column's arithmetic is its own, and every
        column sits in a full group, here as in the batch."""
        n, rows = self.actions.shape[0], np.asarray(rows, dtype=np.intp)
        if not rows.size or rows.min() < 0 or rows.max() >= n:
            raise IndexError(f"paths {rows.tolist()} are not a selection of an unroll of {n}")
        caches = self.recorded()
        blocks, cols = np.divmod(rows, caches[0].rows)   # every block but the last is full
        copied = {f.name: np.zeros(getattr(caches[0], f.name).shape[:-1] + (_columns(rows.size),))
                  for f in fields(_Caches) if f.name not in ("rows", "cells")}
        for k in np.unique(blocks):
            at = np.flatnonzero(blocks == k)
            for name, buf in copied.items():
                buf[..., at] = getattr(caches[k], name)[..., cols[at]]
        # the gate weights have no column axis: the copy shares them, and no sweep reads them
        return RolloutResult(params=self.params, mask=self.mask, actions=self.actions[rows],
                             caches=[_Caches(rows=rows.size, cells=caches[0].cells, **copied)])


def _step_inputs(caches: list[_Caches], params: PolicyParams,
                 n: int) -> Iterator[dict[str, np.ndarray]]:
    """The generator behind :meth:`RolloutResult.step_inputs`: one step's
    (in + 1, n) arrays at a time, each row block writing its columns. A
    block carries its cells' h from step to step: h_{t-1} goes into the
    cells' inputs at step t, then h_t = o_t tanh(c[t + 1]) replaces it
    and builds the step's stream."""
    config, embed = params.config, params.values["embed"]
    h_dim, n_blocks = config.hidden, config.n_blocks
    hs = [np.zeros(cache.c.shape[1:]) for cache in caches]   # (B, H, cols), zero before step 0
    scratch = [np.empty(cache.tanh_c.shape) for cache in caches]
    for t in range(caches[0].e.shape[0]):
        x_in = np.empty((caches[0].x_in.shape[1], n))
        cells = np.empty((n_blocks, 2 * h_dim + 1, n))
        cells[:, -1] = 1.0
        head = np.empty((h_dim + 1, n))
        end = 0
        for cache, h, buf in zip(caches, hs, scratch):
            rows = cache.rows
            cols, end = slice(end, end + rows), end + rows
            x_in[:, cols] = cache.x_in[t, :, :rows]
            cells[:, h_dim:2 * h_dim, cols] = h[..., :rows]
            for b in range(n_blocks):
                cache.cell_output(t, b, buf, h[b])
            res = cache.stream(embed, t, h)
            for b, gain in enumerate(cache.gains):
                buf[...] = cache.r[t, b]   # a plane, not a broadcast row: no temporary
                normed = cells[b, :h_dim, cols]
                np.multiply(res[b, :h_dim, :rows], buf[:, :rows], out=normed)
                np.multiply(normed, gain[:, :rows], out=normed)
            head[:, cols] = res[-1, :, :rows]
        yield {"embed": x_in, **{f"block{b}.lstm": cells[b] for b in range(n_blocks)},
               "head": head}


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(n_blocks: int) -> int:
    """The workers an unroll of ``n_blocks`` row blocks forks: one fewer
    than ``min(n_blocks, usable CPUs)``, and none where this process cannot
    fork safely: without ``os.fork``, or with a thread other than the main
    one alive."""
    if not hasattr(os, "fork") or threading.enumerate() != [threading.main_thread()]:
        return 0
    return min(n_blocks, _usable_cpus()) - 1


# The parent ends of every live worker's command pipe. A newly forked
# worker closes its copies, so that each worker's pipe reaches EOF when
# this process closes its end, or dies.
_PARENT_ENDS: set[Connection] = set()


def _fork_workers(targets: list, count: int, workers: list[tuple[int, Connection]]) -> None:
    """Fork ``count`` workers over ``targets``, what each row block works on
    in place (a recorded unroll's caches, a forward-only one's action and
    feature rows), appending each (pid, pipe) to ``workers`` as it starts."""
    for _ in range(count):
        here, there = Pipe()
        try:
            pid = os.fork()
        except OSError:
            here.close()
            there.close()
            raise
        if pid == 0:
            try:
                for end in (here, *_PARENT_ENDS):
                    end.close()
                _serve(there, targets)
            finally:
                os._exit(0)   # never flush or close what this process inherited
        there.close()
        _PARENT_ENDS.add(here)
        workers.append((pid, here))


def _stop_workers(workers: list[tuple[int, Connection]]) -> None:
    """Stop each worker and reap it: a stop command, its pipe closed, then
    ``waitpid``; ``workers`` is left empty."""
    while workers:
        pid, conn = workers.pop()
        _PARENT_ENDS.discard(conn)
        try:
            conn.send(None)
        except OSError:   # the worker is gone already
            pass
        conn.close()
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def _serve(conn: Connection, targets: list) -> None:
    """A worker's loop: run the row blocks each command names over
    ``targets`` and send back their results or the first failing block's
    error, until a stop command or EOF. A worker ignores SIGINT, writes
    nothing to standard output or error, and never collects (so never
    flushes or closes) an object it inherited."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    gc.freeze()
    devnull = os.open(os.devnull, os.O_WRONLY)
    for fd in (1, 2):
        os.dup2(devnull, fd)
    os.close(devnull)
    while True:
        try:
            command = conn.recv()
        except EOFError:
            return
        if command is None:
            return
        conn.send(_run_lane(targets, *command))


def _run_lane(targets: list, fn, common: tuple,
              blocks: dict[int, tuple]) -> tuple[dict, tuple | None]:
    """Run ``blocks`` (block: its own arguments) in block order through the
    module-level block function ``fn``, which a command carries by
    reference; returns their results and the first failure as (block,
    error), or None."""
    done = {}
    for k, args in blocks.items():
        try:
            done[k] = fn(targets[k], *args, *common)
        except Exception as exc:
            return done, (k, exc)
    return done, None


def _run_blocks(workers: list[tuple[int, Connection]], targets: list, fn, common: tuple,
                per_block: list[tuple]) -> list:
    """Every row block's ``fn(targets[k], *per_block[k], *common)`` in block
    order, the one executor of every unroll and sweep: blocks k = w (mod
    lanes) on worker w, the others here at the same time. Raises the lowest
    failing block's error once every lane has answered, as the serial loop
    would; a call cut short, or a worker that died, stops the workers, and
    the blocks run here after."""
    lanes, n = len(workers) + 1, len(per_block)
    try:
        for lane, (_, conn) in enumerate(workers, 1):
            conn.send((fn, common, {k: per_block[k] for k in range(lane, n, lanes)}))
        done, failure = _run_lane(targets, fn, common,
                                  {k: per_block[k] for k in range(0, n, lanes)})
        failures = [failure]
        for _, conn in workers:
            theirs, failure = conn.recv()
            done.update(theirs)
            failures.append(failure)
    except BaseException as exc:
        _stop_workers(workers)
        if isinstance(exc, EOFError):
            raise RuntimeError("a row-block worker exited") from exc
        raise
    failures = [f for f in failures if f is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return [done[k] for k in range(n)]


def _quarters(a: np.ndarray, h_dim: int) -> tuple[np.ndarray, ...]:
    """The four gates' rows of a (4H, ...) array: views, as np.split gives
    but at a fraction of its cost."""
    return a[:h_dim], a[h_dim:2 * h_dim], a[2 * h_dim:3 * h_dim], a[3 * h_dim:]


def rollout(params: PolicyParams, features: np.ndarray, mask: np.ndarray,
            record: bool = True, workspace: Workspace | None = None) -> RolloutResult:
    """Unroll the policy over all steps of a feature tensor (n, T, f).

    ``record`` keeps the caches that :func:`reverse_sweep` differentiates,
    written into ``workspace`` when one is given (which invalidates the
    results recorded into it before) and into a fresh one otherwise;
    ``record=False`` is the forward-only pass of evaluation and
    validation. Either raises ``DiffError`` naming the first step with a
    non-finite action. Row blocks run side by side through
    :func:`_run_blocks`, in worker processes and this one, with results
    that do not depend on how many: ``RECORD_BLOCK`` paths each on the
    workspace's workers when recording (see :class:`Workspace`), which
    needs at least one path, ``ROW_BLOCK`` paths each when forward-only, on
    workers forked for the call once the actions are allocated in
    anonymous shared memory, where each block writes its rows: each worker
    inherits its blocks' action and feature rows, and is reaped before the
    call returns, however it returns. A command carries the parameters and
    the mask, plus each block's feature rows when recording; each block
    builds its gate weights and gain planes into its own caches
    (:func:`_unroll_block`).
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
        actions = _shared_empty((n, n_steps, config.action_dim))
        blocks = [(actions[r0:r0 + ROW_BLOCK], features[r0:r0 + ROW_BLOCK])
                  for r0 in range(0, n, ROW_BLOCK)]
        workers: list[tuple[int, Connection]] = []
        try:
            _fork_workers(blocks, _worker_count(len(blocks)), workers)
            _run_blocks(workers, blocks, _forward_block, (config, params.values, mask),
                        [()] * len(blocks))
        finally:
            _stop_workers(workers)
        return RolloutResult(params=params, mask=mask, actions=actions, caches=[])
    if n == 0:
        raise ValueError("a recorded unroll needs at least one path")
    fresh = workspace is None
    workspace = workspace or Workspace()
    caches = workspace.caches(config, n_steps, n)
    starts = range(0, n, RECORD_BLOCK)
    try:
        _run_blocks(workspace.workers, caches, _unroll_block, (params.values, mask),
                    [(features[r0:r0 + RECORD_BLOCK],) for r0 in starts])
    except BaseException:
        if fresh:   # its caches are no one's now: stop their workers
            workspace.release()
        raise
    d = config.action_dim
    actions = np.empty((n, n_steps, d))
    for r0, cache in zip(starts, caches):   # step t's action is u_prev in slot t + 1
        u = cache.x_in[1:, n_feat:n_feat + d, :cache.rows]
        actions[r0:r0 + cache.rows] = u.transpose(2, 0, 1)
    return RolloutResult(params=params, mask=mask, actions=actions, caches=caches,
                         workspace=workspace, generation=workspace.generation)


def _gate_weights(values: dict[str, np.ndarray], cells: np.ndarray) -> None:
    """Each cell's gate weights written into its (4H, 2H + 1) slot of
    ``cells``, the sigmoid gates' rows halved (exactly), so one tanh covers
    all four gates."""
    for b, cell in enumerate(cells):
        w = values[f"block{b}.lstm"]
        h_dim = w.shape[0] // 4
        np.multiply(w[:3 * h_dim], 0.5, out=cell[:3 * h_dim])
        cell[3 * h_dim:] = w[3 * h_dim:]


def _gain_planes(values: dict[str, np.ndarray], planes: np.ndarray) -> None:
    """Each RMSNorm gain copied across the columns of its (H, cols) plane in
    ``planes``: multiplying by a plane is bit for bit multiplying by the
    broadcast (H, 1) gain, without the full-size temporary numpy takes for
    a broadcasting operand (a (32, 256) multiply took 5.4 us with one and
    2.4 us with a plane)."""
    for b, plane in enumerate(planes):
        plane[...] = values[f"block{b}.gain"].reshape(-1, 1)


def _forward_block(block: tuple[np.ndarray, np.ndarray], config: PolicyConfig,
                   values: dict[str, np.ndarray], mask: np.ndarray) -> None:
    """One forward-only row block, ``block`` its (rows, T, d) action rows
    and (rows, T, f) feature rows: :func:`_unroll_block` of the features
    through buffers of its own, the actions into the action rows."""
    out, features = block
    _unroll_block(_Caches.allocate(config, features.shape[1], features.shape[0], record=False),
                  features, values, mask, out=out)


def _unroll_block(cache: _Caches, features: np.ndarray, values: dict[str, np.ndarray],
                  mask: np.ndarray, out: np.ndarray | None = None) -> None:
    """One row block's forward arithmetic, fused and feature-major: its
    (rows, T, f) features in, recorded into ``cache`` when it has a slot
    per step, where step t's actions stay in slot t + 1 of ``x_in``, and
    run forward-only in its single slot otherwise; either way each cell's
    input and tanh(c) have one slot (:class:`_Caches`). The (rows, T, d)
    actions are also written into ``out`` when given.

    The block's columns are padded with zero features to whole groups of
    ``COLUMN_GROUP``, so a path's arithmetic does not depend on where it
    sits, nor on the block size. Each layer is one matrix product written
    in place into its cache slot. The block starts by building its
    constants from ``values`` into ``cache``: the sigmoid gates use
    (tanh(z / 2) + 1) / 2 with the halving folded into ``cells``
    (:func:`_gate_weights`), and RMSNorm multiplies by the gain planes
    ``gains`` (:func:`_gain_planes`). The block reads only its arguments
    and writes only ``cache`` and ``out``, so it runs alike in a worker or
    inline.
    """
    rows, n_steps, n_feat = features.shape
    h_dim, d = cache.c.shape[2], cache.e.shape[1]
    record = cache.x_in.shape[0] > 1   # a forward-only cache has one time slot
    _gate_weights(values, cache.cells)
    _gain_planes(values, cache.gains)
    for t in range(n_steps):
        now, nxt = (t, t + 1) if record else (0, 0)
        x_in = cache.x_in[now]
        x_in[:n_feat, :rows] = features[:, t].T
        xs = cache.res[0, :h_dim]
        np.matmul(values["embed"], x_in, out=xs)
        for b, (w, gain) in enumerate(zip(cache.cells, cache.gains)):
            kb = b if record else 0
            aug, gates, r = cache.aug[b], cache.gates[now, kb], cache.r[now, kb]
            np.einsum("ij,ij->j", xs, xs, out=r)
            r /= h_dim
            r += RMS_EPS
            np.sqrt(r, out=r)
            np.divide(1.0, r, out=r)
            np.multiply(xs, r, out=aug[:h_dim])
            aug[:h_dim] *= gain
            np.matmul(w, aug, out=gates)
            np.tanh(gates, out=gates)
            gates[:3 * h_dim] += 1.0
            gates[:3 * h_dim] *= 0.5
            i_g, f_g, o_g, g_g = _quarters(gates, h_dim)
            c_new, tanh_c = cache.c[nxt, b], cache.tanh_c
            np.multiply(cache.c[now, b], f_g, out=c_new)
            np.multiply(i_g, g_g, out=tanh_c)
            c_new += tanh_c
            np.tanh(c_new, out=tanh_c)
            h_new = aug[h_dim:2 * h_dim]   # the cell's input has been read: h_prev's rows take h
            np.multiply(o_g, tanh_c, out=h_new)
            xs_next = cache.res[kb + 1, :h_dim]
            np.add(xs, h_new, out=xs_next)   # residual: input plus cell output
            xs = xs_next
        pre_u = values["head"] @ cache.res[-1]   # symexp, then the mask
        e, u = cache.e[now], cache.x_in[nxt, n_feat:n_feat + d]
        with np.errstate(over="ignore"):
            np.exp(np.abs(pre_u), out=e)
        np.multiply(np.sign(pre_u), e - 1.0, out=u)
        u *= mask[t][:, None]
        if not np.isfinite(u[:, :rows].sum()):
            raise DiffError(f"non-finite action at step {t}")
        if out is not None:
            out[:, t] = u[:, :rows].T


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

    The sweep rebuilds, a step ahead of where it reads them, the values
    the caches do not keep: each cell's tanh(c), h and input, and the
    residual stream. Each is the forward's ufunc on bit-identical
    C-contiguous operands, so the gradients and captures are what the
    caches of every value would give, for one tanh and two multiplies per
    cell and step.

    Each row block is swept by :func:`_sweep_block`, on the unroll's
    workspace's worker processes and this one, as the forward ran them.
    A command carries the parameters, the mask, ``capture`` and the
    block's rows of ``du``; the block reads the gain planes its unroll
    built into its caches. Each block sums its own weight gradients over
    the steps from zero and keeps its own captures, and this process adds
    the blocks' sums in block order, checks that the sums are finite, and
    joins the captures. So the gradients depend on ``RECORD_BLOCK``, never
    on the CPU count, and a one-block unroll's are its block's own.
    """
    caches = result.recorded()
    if du.shape != result.actions.shape:
        raise ValueError(f"seed shape {du.shape} != actions {result.actions.shape}")
    workers = result.workspace.workers if result.workspace is not None else []
    seeds = [(part,) for part in np.split(du, np.cumsum([c.rows for c in caches])[:-1])]
    blocks = _run_blocks(workers, caches, _sweep_block,
                         (result.params.values, result.mask, capture), seeds)
    grads = blocks[0][0]
    with np.errstate(over="ignore", invalid="ignore"):
        for block_grads, _ in blocks[1:]:
            for name, g in block_grads.items():
                grads[name] += g
        for name, g in grads.items():
            if not math.isfinite(float(g.sum())):
                raise DiffError(f"non-finite gradient of parameter '{name}'")
    captured = ({name: np.concatenate([c[name] for _, c in blocks], axis=-1)
                 for name in blocks[0][1]} if capture else {})
    return grads, captured


def _sweep_block(cache: _Caches, du: np.ndarray, values: dict[str, np.ndarray],
                 mask: np.ndarray, capture: bool
                 ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray] | None]:
    """One row block's sweep, backward through time over its caches, column
    by column as the forward runs, so a path's pre-activation gradients do
    not depend on its batch: the block's (rows, T, d) seed in, its weight
    gradients summed over the steps from zero out, with its (T, out, rows)
    captures when ``capture``.

    What the caches do not keep it rebuilds with the forward's
    arithmetic, each cell's input into the caches' ``aug`` and the stream
    into their ``res``, where the forward kept the same values, and
    tanh(c) into a buffer of its own per cell: going back from
    step t, cell b's tanh(c[t + 1]) and h_t are at hand from the step
    after (the first from ``c[T]``), step t's stream is rebuilt from its
    cells' h_t, and once the cell is swept, tanh(c[t]) replaces tanh(c[t
    + 1]) and gives h_{t - 1} (zero at t = 0), which goes into the cell's
    input beside its normed rows (stream r gain), for its weight
    gradient."""
    rows, n_steps, d = du.shape
    n_blocks, h_dim, cols = cache.c.shape[1], cache.c.shape[2], cache.e.shape[2]
    n_feat = cache.x_in.shape[1] - d - 1
    lstm = [f"block{b}.lstm" for b in range(n_blocks)]
    w_in = [np.ascontiguousarray(values[name][:, :2 * h_dim].T) for name in lstm]
    head_in = np.ascontiguousarray(values["head"][:, :h_dim].T)
    embed_u = np.ascontiguousarray(values["embed"][:, n_feat:n_feat + d].T)
    slots = n_steps if capture else 1
    grads = {name: np.zeros_like(value) for name, value in values.items()}
    gain_grads = [grads[f"block{b}.gain"][0] for b in range(n_blocks)]
    # pre-activation gradients: the embedding's, each cell's, the head's
    g_embed = np.empty((slots, h_dim, cols))
    g_cell = np.empty((slots, n_blocks, 4 * h_dim, cols))
    g_head = np.zeros((slots, d, cols))
    d_aug = np.zeros((n_blocks, 2 * h_dim, cols))   # rows H: carry dL/dh_prev back
    d_c = np.zeros((n_blocks, h_dim, cols))          # dL/dc, carried back
    du_next = np.zeros((d, cols))                    # dL/du_prev, carried back
    aug = cache.aug   # each cell's input, rebuilt where the forward kept it
    h = aug[:, h_dim:2 * h_dim]   # each cell's h at the step, until the cell is swept
    tanh_c = np.empty((n_blocks, h_dim, cols))       # tanh of each cell's state after the step
    for b in range(n_blocks if n_steps else 0):      # the last step's, from c[T], if any
        cache.cell_output(n_steps - 1, b, tanh_c[b], h[b])
    dh, tmp, r_plane = np.empty((h_dim, cols)), np.empty((h_dim, cols)), np.empty((h_dim, cols))
    row = np.empty(cols)
    # here, where the block runs: a worker's numpy error state is not the caller's
    with np.errstate(over="ignore", invalid="ignore"):
        for t in reversed(range(n_steps)):
            slot = t if capture else 0
            g_u, dx = g_head[slot], g_embed[slot]
            g_u[:, :rows] = du[:, t].T
            g_u += du_next
            g_u *= mask[t][:, None]
            g_u *= cache.e[t]
            res = cache.stream(values["embed"], t, h)
            grads["head"] += g_u[:, :rows] @ res[-1, :, :rows].T
            np.matmul(head_in, g_u, out=dx)
            for b in reversed(range(n_blocks)):
                gates, d_pre, dc_b, tanh_cb = cache.gates[t, b], g_cell[slot, b], d_c[b], tanh_c[b]
                i_g, f_g, o_g, g_g = _quarters(gates, h_dim)
                di, df, do, dg = _quarters(d_pre, h_dim)
                np.add(dx, d_aug[b, h_dim:], out=dh)
                # dL/dc: carried plus through h = o tanh(c)
                np.multiply(tanh_cb, tanh_cb, out=tmp)
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
                do *= tanh_cb
                np.multiply(g_g, g_g, out=dg)
                np.subtract(1.0, dg, out=dg)
                dg *= dc_b
                dg *= i_g
                dc_b *= f_g
                # the cell's input at the step: normed x beside h_{t - 1}
                xs, r = res[b, :h_dim], cache.r[t, b]
                r_plane[...] = r   # a plane, not a broadcast row: no temporary
                np.multiply(xs, r_plane, out=tmp)
                np.multiply(tmp, cache.gains[b], out=aug[b, :h_dim])
                if t:
                    cache.cell_output(t - 1, b, tanh_cb, h[b])
                else:
                    h[b] = 0.0
                grads[lstm[b]] += d_pre[:, :rows] @ aug[b, :, :rows].T
                np.matmul(w_in[b], d_pre, out=d_aug[b])
                # RMSNorm: normed = x r gain with r = 1 / sqrt(mean(x^2) + eps)
                d_norm = d_aug[b, :h_dim]
                tmp *= d_norm
                gain_grads[b] += tmp[:, :rows].sum(axis=1)
                d_norm *= cache.gains[b]
                np.einsum("ij,ij->j", d_norm, xs, out=row)
                row *= r ** 3 / h_dim
                np.multiply(d_norm, r_plane, out=tmp)
                dx += tmp
                np.multiply(xs, row, out=tmp)
                dx -= tmp
            grads["embed"] += dx[:, :rows] @ cache.x_in[t, :, :rows].T
            np.matmul(embed_u, dx, out=du_next)
    captured = ({"embed": g_embed[..., :rows],
                 **{name: g_cell[:, b, :, :rows] for b, name in enumerate(lstm)},
                 "head": g_head[..., :rows]} if capture else None)
    return grads, captured
