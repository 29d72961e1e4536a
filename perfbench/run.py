"""Benchmark of the deephedge package: desk training (Adam, KFAC) and a
full-grid evaluation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk_adam --seed 7 --seconds 20 --trace 0

Each workload runs in its own subprocess (``worker.py``) with BLAS pinned
to one thread. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run. Every metric is printed by name
with its unit, and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is not 0
when a correctness check fails or the workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from worker import SCALES, WORKLOADS   # stdlib-only at import time

HERE = Path(__file__).resolve().parent
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def record_path(results, workload: str, seed: int, trace: int, scale: str,
                perturb_ulp: int) -> Path:
    suffix = (f"_ulp{perturb_ulp:+d}" if perturb_ulp else "") + (
        f"_{scale}" if scale != "full" else "")
    return Path(results) / f"{workload}_seed{seed}_trace{trace}{suffix}.json"


def run_workload(workload: str, args) -> dict | None:
    """Run one workload in a child process; returns its record, or None when
    the child did not produce one."""
    Path(args.results).mkdir(parents=True, exist_ok=True)
    path = record_path(args.results, workload, args.seed, args.trace, args.scale,
                       args.perturb_ulp)
    path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale,
           "--perturb-ulp", str(args.perturb_ulp), "--references", args.references,
           "--results", args.results, "--record", str(path)]
    env = {**os.environ, **PINNED}
    try:
        proc = subprocess.run(cmd, env=env, timeout=max(170.0, 4 * args.seconds + 90))
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not path.exists():
        print(f"{workload}: worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(path.read_text())


def report(record: dict) -> None:
    w = record["workload"]
    for name, m in record["metrics"].items():
        print(f"{w}  {name} = {m['value']!r} {m['unit']}")
    for name, m in record["details"].get("specified_metrics", {}).items():
        print(f"{w}  specified {name} = {m['value']!r} {m['unit']}")
    for c in record["checks"]:
        print(f"{w}  check {c['name']}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")
    if record["error"]:
        print(f"{w}  error: {record['error']}")
    for c in record["checks"]:   # repeated on stderr, so a log of stderr alone names it
        if not c["ok"]:
            print(f"{w}: check {c['name']} FAILED ({c['detail']})", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=tuple(SCALES), default="full",
                   help="toy: every code path at a few seconds, for the smoke test")
    p.add_argument("--perturb-ulp", type=int, choices=(-1, 0, 1), default=0,
                   help="move every initial parameter by one ulp (round-off sensitivity)")
    p.add_argument("--references", default=str(HERE / "references.json"))
    p.add_argument("--results", default=str(HERE / "results"))
    args = p.parse_args(argv)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for w in workloads:
        record = run_workload(w, args)
        if record is None:
            return 2
        report(record)
        records.append(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
