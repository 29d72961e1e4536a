"""One benchmark workload in one process; started by ``run.py``.

The launcher pins the BLAS thread count in this process's environment
before numpy is imported. The package is imported from ``src/`` of the
current directory (the checkout under test), never from elsewhere.
Timings go through the package's public entry points only; correctness
checks run outside the timed sections.

Writes one JSON record to ``--record``: the reported metrics with units,
the details behind them, every check, and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()

WORKLOADS = ("desk_adam", "desk_kfac", "fullgrid_eval")
DESK_GRID = {10: [0.99, 1.0, 1.01], 20: [0.97, 0.99, 1.0, 1.01, 1.03]}
FULL_GRID = {10: [0.99, 1.0, 1.01], 20: [0.97, 0.99, 1.0, 1.01, 1.03],
             40: [0.95, 1.0, 1.05], 80: [0.91, 1.0, 1.09],
             120: [0.85, 0.95, 1.0, 1.05, 1.15]}

# "full" is what the benchmark measures. "toy" exists for the smoke test:
# the same code paths at a few seconds per workload.
SCALES = {
    "full": {"resets": [21, 42, 63], "n_train": 2048, "n_val": 1024, "batch": 512,
             "iterations": 20, "val_every": 10, "probe_paths": 64,
             "full_resets": [42, 84, 126], "n_test": 4096},
    "toy": {"resets": [7, 14, 21], "n_train": 64, "n_val": 32, "batch": 32,
            "iterations": 3, "val_every": 2, "probe_paths": 8,
            "full_resets": [42, 84, 126], "n_test": 64},
}
SETUP_REPEATS = 3

# KFAC at its defaults diverges within a few steps (ROADMAP item 1). Without
# momentum its first step still takes the loss from 0.2-0.4 to 1e2-1e3 on
# some seeds, and with a trust region 10 times larger it overflows. A trust
# region 1000 times smaller keeps every seed tried finite and far from that
# edge. The work per iteration is unchanged: the same factors,
# eigendecompositions and preconditioning.
KFAC_OVERRIDES = {"beta_momentum": 0.0, "tr_init": 1e-6}

END_TO_END_UNITS = {"setup_s": "s", "paths_per_s": "paths/s", "op_ms_p50": "ms",
                    "peak_rss_mb": "MB"}
# The end-to-end names the benchmark was specified with, where each applies;
# printed and recorded, not gated (README, "End-to-end metrics").
SPECIFIED_UNITS = {"setup_s": "s", "train_iter_per_s": "iter/s", "iter_ms_p50": "ms",
                   "val_loss_mean": "loss", "eval_paths_per_s": "paths/s",
                   "peak_rss_mb": "MB", "fail_frac": "ratio"}
EXTRA_LAYER_UNITS = {"market.cheb_max_residual": "price", "harness.val_loss_mean": "loss",
                     "trace.overhead_frac": "ratio", "trace.overhead_est_frac": "ratio"}


def import_package():
    src = ROOT / "src"
    if not (src / "deephedge" / "__init__.py").is_file():
        sys.exit(f"benchmark: no package source at {src / 'deephedge'}")
    sys.path.insert(0, str(src))
    import deephedge
    if Path(deephedge.__file__).resolve().parent != (src / "deephedge").resolve():
        sys.exit(f"benchmark: deephedge imported from {deephedge.__file__}, not {src}")


def raw_config(workload: str, seed: int, scale: str) -> dict:
    s = SCALES[scale]
    if workload == "fullgrid_eval":
        return {"market": {}, "grid": FULL_GRID,
                "cliquet": {"cap": 0.015, "resets": s["full_resets"]},
                "data": {"n_test": s["n_test"]}, "seed": seed}
    return {"market": {}, "grid": DESK_GRID,
            "cliquet": {"cap": 0.015, "resets": s["resets"]},
            "optimizer": {"name": workload.removeprefix("desk_"),
                          "kfac": KFAC_OVERRIDES},
            "data": {"n_train": s["n_train"], "n_val": s["n_val"]},
            "training": {"batch_size": s["batch"], "max_iterations": s["iterations"],
                         "val_every": s["val_every"], "probe_paths": s["probe_paths"]},
            "seed": seed}


def environment(args) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu_model": model, "blas": blas,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "seed": args.seed, "seconds": args.seconds, "perturb_ulp": args.perturb_ulp,
            "scale": {"name": args.scale, **SCALES[args.scale]}}


def perturb_init(direction: int) -> None:
    """Move every initial parameter one ulp up (+1) or down (-1), from
    outside the package: every caller of ``policy.init_params`` sees it."""
    import numpy as np
    from deephedge import policy as pol
    original = pol.init_params

    def init_params(config, rng):
        params = original(config, rng)
        for name, v in params.values.items():
            params.values[name] = np.nextafter(v, direction * np.inf)
        return params

    pol.init_params = init_params


def percentiles(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    import numpy as np
    n = len(samples)
    out = {"samples": n, "p50": float(np.median(samples))}
    q = int(100 * (1 - 10 / n)) if n else 0
    if q > 50:
        out[f"p{q}"] = float(np.percentile(samples, q))
    return out


class Workload:
    """Setup, closed loop and checks of one workload at one seed."""

    def __init__(self, args):
        import checks   # imports deephedge, so only after import_package()
        from deephedge import diffcore, harness, market, optim
        self.args = args
        self.h = harness
        self.ck = checks
        self.named_errors = (diffcore.DiffError, harness.TrainingDiverged,
                             optim.OptimError, market.MarketError)
        self.is_desk = args.workload != "fullgrid_eval"
        self.raw = raw_config(args.workload, args.seed, args.scale)
        self.work = Path(args.results) / f"tmp_{args.workload}_{os.getpid()}"
        self.checks: list = []
        self.details: dict = {}
        self.attempted = 0
        self.failed = 0
        self.error: str | None = None
        self.curve = None

    # -- timed pieces ------------------------------------------------------------

    def setup(self):
        """Config, datasets and policy initialization; returns (seconds, state)."""
        from deephedge import policy as pol
        from deephedge import rngstreams as rs
        roles = ("train", "val") if self.is_desk else ("test",)
        t0 = time.perf_counter()
        cfg = self.h.build_config(self.raw)
        datasets = self.h.build_datasets(cfg, roles)
        params = pol.init_params(cfg.policy, rs.stream(cfg.seed, rs.POLICY_INIT))
        return time.perf_counter() - t0, (cfg, datasets, params)

    def body(self, state, rep: int):
        """One operation batch of the loop: a whole training run (desk) or one
        evaluation pass with its writes and exports (fullgrid)."""
        cfg, datasets, params = state
        out = self.work / f"rep{rep}"
        if self.is_desk:
            t0 = time.perf_counter()
            result = self.h.train(cfg, out, datasets=datasets)
            return time.perf_counter() - t0, result
        t0 = time.perf_counter()
        ev = self.h.evaluate(cfg, params, datasets["test"])
        summary, per_path = self.h.write_evaluation(out, ev)
        hist = self.h.export_pnl_histogram(per_path, out)
        fans = self.h.export_hedge_fans(summary, out)
        return time.perf_counter() - t0, (ev["report"], per_path, hist, fans)

    def ops_per_body(self) -> int:
        s = SCALES[self.args.scale]
        return s["iterations"] if self.is_desk else s["n_test"]

    def try_body(self, state, rep: int):
        """``body`` with a named failure counted and recorded, not raised."""
        self.attempted += self.ops_per_body()
        try:
            return self.body(state, rep)
        except self.named_errors as exc:
            done = 0
            metrics_csv = self.work / f"rep{rep}" / "metrics.csv"
            if self.is_desk and metrics_csv.exists():
                done = len(self.ck.read_metrics(metrics_csv).get("iteration", []))
            self.failed += self.ops_per_body() - done
            self.fail(exc)
            return None

    def fail(self, exc) -> None:
        self.error = f"{type(exc).__name__}: {exc}"
        self.checks.append(self.ck.Check("completed", False, self.error))

    def loop(self, state, seconds: float) -> list:
        """Closed loop: repeat the body until the next repetition would end
        past ``seconds``; always at least one."""
        reps = []
        t_start = time.perf_counter()
        while True:
            res = self.try_body(state, len(reps))
            if res is None:
                return reps
            reps.append(res)
            elapsed = time.perf_counter() - t_start
            if elapsed + statistics.median(d for d, _ in reps) > seconds:
                return reps

    # -- checks --------------------------------------------------------------------

    def check_setup(self, state) -> float:
        """Data and pricer checks; returns the pre-training loss on the
        validation set (desk) or test set (fullgrid)."""
        from deephedge import market
        cfg, datasets, params = state
        tol = market.HestonPricer(cfg.market, cfg.dt).tol
        for ds in datasets.values():
            self.checks.append(self.ck.data_invariants(cfg, ds, 10 * tol))
        check, residual = self.ck.cheb_cache(cfg, datasets, self.args.seed)
        self.checks.append(check)
        self.details["cheb_max_residual"] = residual
        role = "val" if self.is_desk else "test"
        return self.h.dataset_objective(params, datasets[role], cfg.risk_aversion, cfg.costs)

    def check_outputs(self, state, reps, pretrain: float) -> None:
        ck = self.ck
        cfg, datasets, params = state
        key = f"{self.args.workload}/{self.args.scale}"
        refs = json.loads(Path(self.args.references).read_text())
        self.details["pretrain_loss"] = pretrain
        if self.is_desk:
            runs = [ck.read_metrics(r.metrics_path) for _, r in reps]
            m = runs[0]
            check, iter0 = ck.first_loss(cfg, datasets["train"], m)
            self.checks.append(check)
            check, decreased = ck.training(m, pretrain)
            self.checks.append(check)
            self.checks.append(ck.checkpoint(cfg, reps[0][1].checkpoint_path, params))
            self.checks.append(ck.identical(
                "repetitions_identical",
                [{k: v for k, v in r.items() if k != "wall_ms"} for r in runs]))
            observed = {"pretrain_val_loss": pretrain, "iter0_train_loss": iter0}
            vals = [v for v in m["val_loss"] if v == v]
            wall_ms = [w for r in runs for w in r["wall_ms"]]
            self.details.update(
                val_losses=vals, val_loss_mean=statistics.fmean(vals),
                last_val_below_pretrain=decreased, iter_ms=percentiles(wall_ms))
            self.curve = m
        else:
            report, per_path, hist, fans = reps[0][1]
            self.checks.append(ck.evaluation(cfg, params, datasets["test"], report))
            self.checks.append(ck.eval_outputs(cfg, report, per_path, hist, fans))
            self.checks.append(ck.identical("repetitions_identical",
                                            [json.dumps(r[1][0]) for r in reps]))
            observed = {"pretrain_test_loss": report["validation_estimator_loss"]}
            self.details.update(val_loss_mean=report["validation_estimator_loss"],
                                pass_ms=percentiles([1e3 * d for d, _ in reps]))
        self.checks.append(ck.references(refs, key, self.args.seed, observed))
        self.details["reference_values"] = observed

    # -- the two kinds of run ------------------------------------------------------

    def untraced(self) -> dict:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            state = None   # release the previous datasets before rebuilding
            dt, state = self.setup()
            setup_s.append(dt)
        self.details["setup_s"] = setup_s
        pretrain = self.check_setup(state)
        reps = self.loop(state, self.args.seconds)
        values = {"setup_s": statistics.median(setup_s)}
        if reps:
            self.check_outputs(state, reps, pretrain)
            busy = sum(d for d, _ in reps)
            ops = len(reps) * self.ops_per_body()
            if self.is_desk:
                self.details["train_iter_per_s"] = ops / busy
                values["paths_per_s"] = ops * SCALES[self.args.scale]["batch"] / busy
                values["op_ms_p50"] = self.details["iter_ms"]["p50"]
            else:
                self.details["eval_paths_per_s"] = values["paths_per_s"] = ops / busy
                values["op_ms_p50"] = self.details["pass_ms"]["p50"]
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        d = self.details
        d["fail_frac"] = self.failed / max(self.attempted, 1)
        specified = {"setup_s": values["setup_s"], "train_iter_per_s": d.get("train_iter_per_s"),
                     "iter_ms_p50": d.get("iter_ms", {}).get("p50"),
                     "val_loss_mean": d.get("val_loss_mean") if self.is_desk else None,
                     "eval_paths_per_s": d.get("eval_paths_per_s"),
                     "peak_rss_mb": values["peak_rss_mb"], "fail_frac": d["fail_frac"]}
        d["specified_metrics"] = {k: {"value": v, "unit": SPECIFIED_UNITS[k]}
                                  for k, v in specified.items() if v is not None}
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    def traced(self) -> dict:
        import tracing
        t0 = time.perf_counter()
        _, state = self.setup()
        plain = self.try_body(state, 0)
        untraced_s = time.perf_counter() - t0
        state = None
        tracer = tracing.Tracer()
        with tracer:
            t0 = time.perf_counter()
            _, state = self.setup()
            rep = self.try_body(state, 1)
            traced_s = time.perf_counter() - t0
        pretrain = self.check_setup(state)
        done = [r for r in (rep, plain) if r is not None]
        if done:   # tracing must not change any result: both passes are compared
            self.check_outputs(state, done, pretrain)
        self.checks.append(self.trace_consistency(tracer))
        values = tracer.metrics()
        values["market.cheb_max_residual"] = self.details["cheb_max_residual"]
        if "val_loss_mean" in self.details:
            values["harness.val_loss_mean"] = self.details["val_loss_mean"]
        values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
        values["trace.overhead_est_frac"] = tracer.overhead_estimate(traced_s)
        self.details["absent_targets"] = tracer.absent
        units = {**tracing.metric_units(), **EXTRA_LAYER_UNITS}
        return {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    def trace_consistency(self, tracer):
        """Self times under each root span add up to its duration, and none
        is negative."""
        worst = tracer.root_mismatch()
        negative = sum(1 for o in tracer.self_times() if o < -1e-9)
        roots = sum(1 for s in tracer.spans if s.parent < 0)
        return self.ck.Check("trace_self_times", worst <= 1e-9 and negative == 0,
                             f"{len(tracer.spans)} spans under {roots} roots, worst "
                             f"root mismatch {worst:.1e}, {negative} negative self times")

    def write_curve(self, path: Path) -> None:
        """Validation loss against iteration and wall clock (the paper's
        optimizer comparison); desk workloads share data and initialization."""
        m = self.curve
        wall = 0.0
        lines = ["iteration,wall_s,train_loss,val_loss"]
        for it, tl, vl, ms in zip(m["iteration"], m["train_loss"], m["val_loss"],
                                  m["wall_ms"]):
            wall += ms / 1e3
            lines.append(f"{int(it)},{wall!r},{tl!r},{'' if vl != vl else repr(vl)}")
        path.write_text("\n".join(lines) + "\n")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=tuple(SCALES), default="full")
    p.add_argument("--perturb-ulp", type=int, choices=(-1, 0, 1), default=0)
    p.add_argument("--references", required=True)
    p.add_argument("--results", required=True)
    p.add_argument("--record", required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    if args.perturb_ulp:
        perturb_init(args.perturb_ulp)
    w = Workload(args)
    w.work.mkdir(parents=True, exist_ok=True)
    try:
        metrics = w.traced() if args.trace else w.untraced()
    except w.named_errors as exc:   # set-up failed: its operations never ran
        w.attempted += w.ops_per_body()
        w.failed += w.ops_per_body()
        w.fail(exc)
        metrics = {}
    finally:
        shutil.rmtree(w.work, ignore_errors=True)
    if w.curve is not None and not args.trace and not args.perturb_ulp:
        w.write_curve(Path(args.results) / f"curve_{args.workload}_seed{args.seed}.csv")
    record = {
        "workload": args.workload,
        "correct": all(c.ok for c in w.checks) and w.error is None,
        "attempted": w.attempted, "failed": w.failed, "error": w.error,
        "metrics": metrics, "details": w.details,
        "checks": [vars(c) for c in w.checks],
        "environment": environment(args),
    }
    Path(args.record).write_text(json.dumps(record, indent=2, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
