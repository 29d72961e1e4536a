"""Span tracing of the deephedge layers from outside the package.

The tracer replaces public functions and methods by attribute (for
example ``deephedge.policy.rollout`` or
``KfacOptimizer.update_input_stats``) with wrappers that record a span
(name, start, end, parent) and counts. The package calls these names
through module attributes, so a wrapped attribute is seen by every
caller. Spans stay in memory; per-layer metrics are derived at the end.
A layer's self time is its spans' durations minus the time covered by
their direct child spans.

A target that no longer exists (renamed or removed by a refactor) is
skipped, and the metrics that depend on it are reported as absent.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field

MB = 1024.0 * 1024.0

# Metrics that keep their largest observation instead of a sum.
PEAK_METRICS = {"diffcore.tape_peak_mb"}

# Tape operations that are neither fused layers nor backward; their self
# time is reported together.
GLUE_OPS = ("add", "sub", "multiply", "scale", "concat", "slice_cols", "mean",
            "variance", "total")


def _backward_entry(args, kwargs):
    """Tape size at backward entry: node values plus hook captures, computed
    from array sizes (closure temporaries and cache effects not included)."""
    tape = args[0].tape
    if "hooks" in kwargs:
        kwargs["hooks"] = hooks = tuple(kwargs["hooks"])
    elif len(args) > 1:
        hooks = tuple(args[1])
        args = (args[0], hooks) + tuple(args[2:])
    else:
        hooks = ()
    held = sum(node.value.nbytes for node in tape.nodes)
    held += sum(a.nbytes for ch in hooks for a in ch.activations)
    return args, kwargs, {"diffcore.backward.nodes": len(tape.nodes),
                          "diffcore.tape_peak_mb": held / MB}


def _noop():
    return None


@dataclass(frozen=True)
class Target:
    module: str              # e.g. "deephedge.policy"
    attr: str                # "rollout" or "KfacOptimizer.apply_step"
    metric: str              # span name; its self time is reported as metric + ".s"
    counts: tuple = ()       # count metrics this target produces
    calls: bool = False      # also report metric + ".calls"
    pre: object = None       # (args, kwargs) -> (args, kwargs, {count: value})
    post: object = None      # (args, kwargs, result) -> {count: value}

    @property
    def count_names(self) -> tuple:
        return self.counts + ((self.metric + ".calls",) if self.calls else ())


def _targets() -> list[Target]:
    h, ck, mk, rs = ("deephedge.harness", "deephedge.checkpoint",
                     "deephedge.market", "deephedge.rngstreams")
    ct, pol, dc, op = ("deephedge.contracts", "deephedge.policy",
                       "deephedge.diffcore", "deephedge.optim")
    out = [
        Target(h, "build_datasets", "harness.build_datasets"),
        Target(h, "train", "harness.train"),
        Target(h, "dataset_objective", "harness.dataset_objective"),
        Target(h, "probe_gradient_variance", "harness.probe_gradient_variance"),
        Target(h, "evaluate", "harness.evaluate"),
        Target(h, "write_evaluation", "harness.write_evaluation"),
        Target(h, "export_pnl_histogram", "harness.export"),
        Target(h, "export_hedge_fans", "harness.export"),
        Target(ck, "save_records", "checkpoint.save_records", ("checkpoint.bytes",),
               post=lambda a, k, r: {"checkpoint.bytes": os.path.getsize(a[0])}),
        Target(mk, "simulate", "market.simulate", ("market.simulate.path_substeps",),
               post=lambda a, k, r: {"market.simulate.path_substeps":
                                     r.n_paths * r.n_steps * r.substeps}),
        Target(rs, "substep_normals", "rngstreams.substep_normals"),
        Target(mk, "CachedGridPricer.__init__", "market.pricer_fit"),
        Target(mk, "HestonPricer.unit_call", "market.quadrature",
               ("market.quadrature.points",),
               post=lambda a, k, r: {"market.quadrature.points": r.size}),
        Target(mk, "CachedGridPricer.unit_price", "market.cheb_eval",
               ("market.cheb_eval.points",),
               post=lambda a, k, r: {"market.cheb_eval.points": r.size}),
        Target(ct, "grid_returns", "contracts.grid_returns"),
        Target(ct, "feature_tensor", "contracts.feature_tensor"),
        Target(ct, "batch_objective", "contracts.batch_objective"),
        Target(ct, "objective_value", "contracts.objective_value"),
        Target(ct, "inner_hessian", "contracts.inner_hessian"),
        Target(pol, "rollout", "policy.rollout", ("policy.rollout.path_steps",),
               post=lambda a, k, r: {"policy.rollout.path_steps":
                                     a[1].shape[0] * a[1].shape[1]}),
        Target(pol, "init_params", "policy.init_params"),
        Target(dc, "lstm_cell", "diffcore.lstm_cell"),
        Target(dc, "affine", "diffcore.affine"),
        Target(dc, "rms_normalize", "diffcore.rms_normalize"),
        Target(dc, "symexp", "diffcore.symexp"),
        Target(dc, "hedge_accumulate", "diffcore.hedge_accumulate"),
        Target(dc, "backward", "diffcore.backward",
               ("diffcore.backward.nodes", "diffcore.tape_peak_mb"), calls=True,
               pre=_backward_entry),
        Target(op, "pseudo_backward", "optim.pseudo_backward"),
        Target(op, "KfacOptimizer.update_input_stats", "optim.update_input_stats"),
        Target(op, "KfacOptimizer.update_output_stats", "optim.update_output_stats"),
        Target(op, "KfacOptimizer.update_eigenbasis", "optim.update_eigenbasis",
               calls=True),
        Target(op, "KfacOptimizer.precondition", "optim.precondition"),
        Target(op, "KfacOptimizer.apply_step", "optim.kfac_apply_step"),
        Target(op, "AdamOptimizer.apply_step", "optim.adam_apply_step"),
    ]
    out += [Target(dc, name, "diffcore.glue") for name in GLUE_OPS]
    return out


TARGETS = _targets()


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer can report, with its unit."""
    units: dict[str, str] = {}
    for t in TARGETS:
        units[t.metric + ".s"] = "s"
        for c in t.count_names:
            units[c] = ("MB" if c.endswith("_mb")
                        else "bytes" if c.endswith(".bytes") else "count")
    return units


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int   # index into Tracer.spans, -1 for a root span


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    hook_s: float = 0.0      # time spent computing counts inside wrappers
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple] = field(default_factory=list)

    def install(self) -> None:
        for t in TARGETS:
            owner, leaf = self._resolve(t)
            if owner is None:
                self.absent.append(f"{t.module}.{t.attr}")
                continue
            original = getattr(owner, leaf)
            if isinstance(owner, type):
                original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(t, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @staticmethod
    def _resolve(t: Target):
        try:
            owner = importlib.import_module(t.module)
        except ImportError:
            return None, None
        *path, leaf = t.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, leaf, None)):
            return None, None
        if isinstance(owner, type) and leaf not in owner.__dict__:
            return None, None
        return owner, leaf

    def _wrap(self, t: Target, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            found = {}
            if t.pre is not None:
                h0 = clock()
                args, kwargs, found = t.pre(args, kwargs)
                self.hook_s += clock() - h0
            span = Span(t.metric, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if t.calls:
                found[t.metric + ".calls"] = 1
            if t.post is not None:
                h0 = clock()
                found.update(t.post(args, kwargs, result))
                self.hook_s += clock() - h0
            for name, value in found.items():
                if name in PEAK_METRICS:
                    counts[name] = max(counts.get(name, 0.0), value)
                else:
                    counts[name] = counts.get(name, 0) + value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one wrapper adds to a call, from a wrapped no-op against a
        plain one; measured now, so it scales with the machine's speed."""
        wrapped = Tracer()._wrap(Target("", "", "probe"), _noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            _noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        return max((t2 - t1) - (t1 - t0), 0.0) / calls

    def overhead_estimate(self, traced_s: float) -> float:
        """Tracing cost as a share of the untraced time: spans times the
        per-span cost, plus time spent computing counts."""
        cost = len(self.spans) * self.span_cost() + self.hook_s
        return cost / (traced_s - cost)

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def root_mismatch(self) -> float:
        """Largest relative gap between a root span's duration and the self
        times of its subtree; zero when spans nest properly."""
        own = self.self_times()
        sums = own[:]
        for i in range(len(self.spans) - 1, -1, -1):   # children follow parents
            p = self.spans[i].parent
            if p >= 0:
                sums[p] += sums[i]
        worst = 0.0
        for i, s in enumerate(self.spans):
            if s.parent < 0 and s.end > s.start:
                worst = max(worst, abs(sums[i] - (s.end - s.start)) / (s.end - s.start))
        return worst

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of every installed target; a layer that did not
        run reports zero seconds and zero counts."""
        out: dict[str, float] = {}
        for t in TARGETS:
            if f"{t.module}.{t.attr}" in self.absent:
                continue
            out.setdefault(t.metric + ".s", 0.0)
            for c in t.count_names:
                out[c] = self.counts.get(c, 0)
        for s, own in zip(self.spans, self.self_times()):
            out[s.name + ".s"] += own
        return out
