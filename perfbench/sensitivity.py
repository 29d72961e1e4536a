"""Round-off sensitivity of ``val_loss_mean``.

Runs every workload once with the initial parameters as built, once moved
one ulp up and once one ulp down, and reports how far the mean validation
loss moves. A change that only reorders floating-point reductions moves
results by about this much; a larger move is a behaviour change.

    python3 perfbench/sensitivity.py --seed 7

Writes ``results/sensitivity_seed<n>.json`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import record_path
from worker import SCALES, WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--scale", choices=tuple(SCALES), default="full")
    args = p.parse_args(argv)
    results = HERE / "results"
    out = {"seed": args.seed, "scale": args.scale, "workloads": {}}
    for w in WORKLOADS:
        losses = {}
        for ulp in (0, 1, -1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", str(args.seed), "--seconds", "0", "--scale", args.scale,
                   "--perturb-ulp", str(ulp), "--results", str(results)]
            if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
                print(f"{w} (ulp {ulp:+d}) failed", file=sys.stderr)
                return 1
            path = record_path(results, w, args.seed, 0, args.scale, ulp)
            record = json.loads(path.read_text())
            losses[ulp] = record["details"]["val_loss_mean"]
        values = list(losses.values())
        spread = (max(values) - min(values)) / statistics.median(values)
        out["workloads"][w] = {"val_loss_mean": {f"{k:+d}": v for k, v in losses.items()},
                               "relative_spread": spread}
        print(f"{w}: val_loss_mean {losses[0]!r}, 1-ulp relative spread {spread:.3e}")
    suffix = f"_{args.scale}" if args.scale != "full" else ""
    (results / f"sensitivity_seed{args.seed}{suffix}.json").write_text(
        json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
