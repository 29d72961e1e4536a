"""Second-order training scheme and the Adam baseline.

The second-order optimizer preconditions gradients with a block-diagonal
curvature model. Each weight matrix is one Kronecker block: an input
second-moment factor A estimated from batch activations, a pre-activation
factor G estimated from single-path pseudo-gradients, eigenbases of both,
and a dense matrix D of second moments re-estimated directly in that
eigenbasis. The pseudo-gradient is the policy's reverse sweep seeded
with s, the gradient of <s, u>, where s is drawn with covariance equal
to the action-space curvature of the pathwise surrogate loss, so the
parameter-space covariance of the pseudo-gradient is exactly the
generalized Gauss-Newton matrix the scheme approximates.

Both optimizers step on the batch gradient through ``apply_step``. Before
that, ``KfacOptimizer.update_curvature`` does one iteration's curvature
work on the batch's recorded unroll, in order: input factors from its
layer inputs on their cadence, one pseudo-backward along one of its
paths, output factors and D, and the eigenbases on their cadence. The
pseudo-path is a column of the batch's caches, copied out by
``RolloutResult.paths``: both graphs are the same unroll, so no path is
unrolled twice.

Damping shrinks each block's eigen-spectrum linearly toward its own mean
scale (trace preserving) instead of adding a shared ridge. Step sizes
come from a decaying trust region on the preconditioned-gradient inner
product. An RMSNorm gain is a block too, but with no Kronecker factors:
its eigenbases stay at the identity, so D holds the elementwise second
moments and the block reduces to a damped diagonal method.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import contracts as ct
from . import policy as pol


class OptimError(RuntimeError):
    """Numerical failure inside an optimizer update."""


# ---------------------------------------------------------------------------
# configs


@dataclass
class KfacConfig:
    n_cov: int = 5            # batch activation-factor update cadence
    n_evd: int = 25           # eigenbasis recomputation cadence
    beta_factor: float = 0.95     # EMA for A and G
    beta_scale: float = 0.95      # EMA for D
    beta_momentum: float = 0.92
    shrinkage: float = 5e-4
    tr_init: float = 1e-3
    tr_decay: float = 0.997
    eta_max: float = 0.5
    identity_basis: bool = False  # ablation: freeze Q = I, diagonal method

    def __post_init__(self):
        # zero is the degenerate always-replace EMA, useful in tests
        for name in ("beta_factor", "beta_scale", "beta_momentum"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if not 0.0 < self.tr_decay <= 1.0:
            raise ValueError("tr_decay must lie in (0, 1]")
        if not 0.0 < self.shrinkage < 1.0:
            raise ValueError("shrinkage must lie in (0, 1)")
        if self.n_cov < 1 or self.n_evd < 1:
            raise ValueError("n_cov and n_evd must be at least 1")
        if not (self.tr_init > 0.0 and self.eta_max > 0.0):
            raise ValueError("tr_init and eta_max must be positive")


@dataclass
class AdamConfig:
    lr_peak: float = 3e-3
    warmup_iters: int = 100       # linear ramp over roughly one epoch
    lr_decay: float = 0.9985      # per-step exponential decay after warmup
    clip_norm: float = 1.0

    def __post_init__(self):
        if not (self.lr_peak > 0.0 and self.clip_norm > 0.0):
            raise ValueError("lr_peak and clip_norm must be positive")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must lie in (0, 1]")
        if self.warmup_iters < 0:
            raise ValueError("warmup_iters must be non-negative")


# ---------------------------------------------------------------------------
# curvature state


@dataclass
class CurvatureBlock:
    """Curvature state of one parameter of shape (n_out, n_in).

    A weight matrix (n_in counts the bias column) keeps its Kronecker
    factors A and G and their eigenbases; an RMSNorm gain has no factors
    (``a_cov`` and ``g_cov`` are None) and keeps identity bases.
    """

    q_a: np.ndarray                 # (n_in, n_in) eigenvectors of a_cov
    q_g: np.ndarray                 # (n_out, n_out) eigenvectors of g_cov
    scale: np.ndarray               # D: (n_out, n_in) second moments in the eigenbasis
    momentum: np.ndarray            # (n_out, n_in)
    a_cov: np.ndarray | None = None  # (n_in, n_in)
    g_cov: np.ndarray | None = None  # (n_out, n_out)

    @classmethod
    def fresh(cls, shape: tuple[int, int], factored: bool) -> "CurvatureBlock":
        n_out, n_in = shape
        return cls(q_a=np.eye(n_in), q_g=np.eye(n_out),
                   scale=np.zeros(shape), momentum=np.zeros(shape),
                   a_cov=np.zeros((n_in, n_in)) if factored else None,
                   g_cov=np.zeros((n_out, n_out)) if factored else None)

    @property
    def record_fields(self) -> tuple[str, ...]:
        """The state a checkpoint holds; a gain's identity bases are not saved."""
        factors = ("a_cov", "g_cov", "q_a", "q_g") if self.a_cov is not None else ()
        return factors + ("scale", "momentum")


def _sym_eigh_with_sign(m: np.ndarray) -> np.ndarray:
    """Eigenvectors of a symmetric matrix with a deterministic sign:
    the largest-magnitude component of each column is made positive."""
    n = m.shape[0]
    jitter = 1e-12 * np.trace(m) / n
    try:
        _, vecs = np.linalg.eigh(m + jitter * np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise OptimError(f"eigendecomposition failed: {exc}") from exc
    lead = np.abs(vecs).argmax(axis=0)
    signs = np.sign(vecs[lead, np.arange(vecs.shape[1])])
    signs[signs == 0.0] = 1.0
    return vecs * signs


def damped_scale(scale: np.ndarray, shrinkage: float) -> np.ndarray:
    """Shrink toward the block's mean scale; preserves the trace exactly."""
    m = scale.mean()
    return (1.0 - shrinkage) * scale + shrinkage * m


def pseudo_backward(path: pol.RolloutResult, hessian: ct.InnerHessian,
                    rng: np.random.Generator
                    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Backpropagate <s, u> along one path.

    ``path`` is a recorded one-path unroll, such as ``batch.paths([i])``, so u
    is the path's (T, d) actions; the sweep seeds it with s. The target s
    is drawn so that its covariance equals the action-space curvature
    ``hessian``, making the covariance of the parameter gradients the
    Gauss-Newton matrix. Returns those gradients and, per Kronecker block,
    the pre-activation gradients as one (T, out, 1) array.
    """
    n, n_steps, d = path.actions.shape
    if n != 1:
        raise ValueError(f"a pseudo-backward runs along one path, not {n}")
    if hessian.r_vec.size != n_steps * d:
        raise ValueError("inner Hessian size does not match the unrolled actions")
    s = ct.sample_pseudo_target(hessian, rng).reshape(1, n_steps, d)
    return pol.reverse_sweep(path, s, capture=True)


class KfacOptimizer:
    """Curvature-preconditioned trust-region updates for a hedging policy."""

    def __init__(self, params: pol.PolicyParams, config: KfacConfig):
        self.config = config
        self.step_count = 0
        self.rho_tr = config.tr_init
        factored = set(params.kronecker_names)
        self.blocks = {name: CurvatureBlock.fresh(value.shape, name in factored)
                       for name, value in params.values.items()}

    # -- cadence ------------------------------------------------------------

    @property
    def wants_input_stats(self) -> bool:
        return self.step_count % self.config.n_cov == 0

    @property
    def wants_eigenbasis(self) -> bool:
        return (not self.config.identity_basis
                and self.step_count % self.config.n_evd == 0)

    # -- statistics updates ---------------------------------------------------

    def update_curvature(self, result: pol.RolloutResult, row: int,
                         hessian: ct.InnerHessian, rng: np.random.Generator) -> None:
        """One iteration's curvature work on the batch's recorded unroll
        ``result``, after its sweep has checked the batch: the input factors
        from its layer inputs on their cadence, then one pseudo-backward
        along its path ``row`` with curvature ``hessian`` and noise ``rng``,
        the output factors and D from it, and the eigenbases on their
        cadence."""
        if self.wants_input_stats:
            self.update_input_stats(result.step_inputs())
        grads, captured = pseudo_backward(result.paths([row]), hessian, rng)
        self.update_output_stats(grads, captured)
        if self.wants_eigenbasis:
            self.update_eigenbasis()

    def update_input_stats(self, steps: Iterable[dict[str, np.ndarray]]) -> None:
        """EMA of the activation second moment, scaled by sqrt(T) overall,
        from each Kronecker block's (in + 1, batch) inputs, one step after
        another (``RolloutResult.step_inputs``), so that no more than a
        step's inputs need to be copied at a time."""
        beta = self.config.beta_factor
        sums: dict[str, np.ndarray] = {}
        n_steps = 0
        for inputs in steps:
            for name, x in inputs.items():
                sums[name] = sums.get(name, 0) + x @ x.T
            n_steps += 1
        batch = x.shape[1]
        for name, total in sums.items():
            block = self.blocks[name]
            block.a_cov *= beta
            block.a_cov += (1.0 - beta) * (total / (batch * np.sqrt(n_steps)))

    def update_output_stats(self, grads: dict[str, np.ndarray],
                            captured: dict[str, np.ndarray]) -> None:
        """EMA of pre-activation pseudo-gradient moments, from each
        Kronecker block's (T, out, paths) ``captured``, and of the
        eigenbasis second moments of the parameter pseudo-gradients
        ``grads`` (elementwise square after rotation)."""
        beta_f = self.config.beta_factor
        beta_d = self.config.beta_scale
        for name, block in self.blocks.items():
            if block.g_cov is not None:
                g = captured[name]
                # C-contiguous (T * paths, out) rows: G's sums do not follow the layout
                stacked = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(-1, g.shape[1])
                contrib = stacked.T @ stacked / np.sqrt(g.shape[0])
                block.g_cov *= beta_f
                block.g_cov += (1.0 - beta_f) * contrib
            rotated = block.q_g.T @ grads[name] @ block.q_a
            block.scale *= beta_d
            block.scale += (1.0 - beta_d) * rotated ** 2

    def update_eigenbasis(self) -> None:
        for block in self.blocks.values():
            if block.a_cov is not None:
                block.q_a = _sym_eigh_with_sign(block.a_cov)
                block.q_g = _sym_eigh_with_sign(block.g_cov)

    # -- preconditioning and the step ----------------------------------------

    def precondition(self, grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Rotate into each block's eigenbasis, divide by the damped scales,
        rotate back; a gain's identity bases make this an elementwise
        division."""
        rho = self.config.shrinkage
        out: dict[str, np.ndarray] = {}
        for name, block in self.blocks.items():
            if block.scale.mean() <= 0.0:
                raise OptimError(f"dead curvature block '{name}': mean scale is zero")
            rotated = block.q_g.T @ grads[name] @ block.q_a
            rotated /= damped_scale(block.scale, rho)
            out[name] = block.q_g @ rotated @ block.q_a.T
        return out

    def apply_step(self, params: pol.PolicyParams, grads: dict[str, np.ndarray]) -> float:
        """Precondition the batch gradient, then trust-region step size,
        momentum and parameter update; returns eta."""
        preconditioned = self.precondition(grads)
        inner = 0.0
        for name in grads:
            inner += float((preconditioned[name] * grads[name]).sum())
        if inner < -1e-12:
            raise OptimError(f"non-positive curvature inner product {inner:.3e}")
        with np.errstate(divide="ignore"):
            eta = min(float(np.sqrt(self.rho_tr / inner)) if inner > 0 else np.inf,
                      self.config.eta_max)
        self.rho_tr *= self.config.tr_decay
        beta = self.config.beta_momentum
        for name, block in self.blocks.items():
            block.momentum *= beta
            block.momentum += preconditioned[name]
            params.values[name] -= eta * block.momentum
        self.step_count += 1
        return eta

    def max_damped_scale(self) -> float:
        """Largest damped eigen-scale across blocks (preconditioner extreme)."""
        rho = self.config.shrinkage
        return float(max(damped_scale(b.scale, rho).max() for b in self.blocks.values()))

    # -- serialization ---------------------------------------------------------

    STATE_VERSION = 1

    def state_records(self) -> dict[str, np.ndarray]:
        out = {"opt/rho_tr": np.array([[self.rho_tr]]),
               "opt/step": np.array([[float(self.step_count)]])}
        for name, block in self.blocks.items():
            for field in block.record_fields:
                out[f"opt/{name}/{field}"] = getattr(block, field)
        return out

    def load_state_records(self, records: dict[str, np.ndarray]) -> None:
        self.rho_tr = float(records["opt/rho_tr"][0, 0])
        self.step_count = int(records["opt/step"][0, 0])
        for name, block in self.blocks.items():
            for field in block.record_fields:
                setattr(block, field, records[f"opt/{name}/{field}"])


class AdamOptimizer:
    """Adam with a global gradient-norm clip and warmup/decay schedule."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: pol.PolicyParams, config: AdamConfig):
        self.config = config
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.values.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.values.items()}

    def learning_rate(self) -> float:
        c = self.config
        if self.step_count < c.warmup_iters:
            return c.lr_peak * (self.step_count + 1) / c.warmup_iters
        return c.lr_peak * c.lr_decay ** (self.step_count - c.warmup_iters + 1)

    def apply_step(self, params: pol.PolicyParams, grads: dict[str, np.ndarray]) -> float:
        c = self.config
        norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        if norm > c.clip_norm:
            grads = {k: g * (c.clip_norm / norm) for k, g in grads.items()}
        lr = self.learning_rate()
        self.step_count += 1
        t = self.step_count
        corr1 = 1.0 - self.BETA1 ** t
        corr2 = 1.0 - self.BETA2 ** t
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            step = (m / corr1) / (np.sqrt(v / corr2) + self.EPS)
            params.values[name] -= lr * step
        return lr

    STATE_VERSION = 1

    def state_records(self) -> dict[str, np.ndarray]:
        out = {"opt/step": np.array([[float(self.step_count)]])}
        for name in self.m:
            out[f"opt/{name}/m"] = self.m[name]
            out[f"opt/{name}/v"] = self.v[name]
        return out

    def load_state_records(self, records: dict[str, np.ndarray]) -> None:
        self.step_count = int(records["opt/step"][0, 0])
        for name in self.m:
            self.m[name] = records[f"opt/{name}/m"]
            self.v[name] = records[f"opt/{name}/v"]
