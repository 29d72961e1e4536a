"""Smoke test of the benchmark at toy scale.

    python3 -m pytest perfbench/test_smoke.py

Every workload must report every metric named in BENCHMARK.json with its
unit, in both modes, with all checks passing; a wrong reference value must
fail the run; a directory without the package must fail without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(tmp_path, *extra, cwd=REPO):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "7",
           "--seconds", "1", "--scale", "toy", "--results", str(tmp_path), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_unit(tmp_path, workload, trace):
    proc = run(tmp_path, "--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert f"{m['name']} = " in proc.stdout
    if not trace:   # the names the benchmark was specified with, printed ungated
        names = ["setup_s", "peak_rss_mb", "fail_frac"] + (
            ["eval_paths_per_s"] if workload == "fullgrid_eval"
            else ["train_iter_per_s", "iter_ms_p50", "val_loss_mean"])
        for name in names:
            assert f"specified {name} = " in proc.stdout, name


def test_wrong_reference_fails_the_run(tmp_path):
    refs = json.loads((REPO / "perfbench" / "references.json").read_text())
    refs["values"]["desk_adam/toy"]["iter0_train_loss"] *= 1.0 + 1e-6
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(refs))
    proc = run(tmp_path, "--workload", "desk_adam", "--references", str(wrong))
    assert proc.returncode == 1
    assert last_json(proc)["correct"] is False
    assert "check seed_references: FAILED" in proc.stdout


def test_without_the_package_exits_nonzero_without_result(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(REPO / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(tmp_path, "--workload", "desk_adam", cwd=bare)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_tracer_reports_missing_targets_as_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import tracing
    import json as target_module

    targets = [tracing.Target("json", "dumps", "json.dumps", calls=True),
               tracing.Target("json", "no_such_function", "json.missing"),
               tracing.Target("json", "JSONEncoder.no_such_method", "json.missing2")]
    monkeypatch.setattr(tracing, "TARGETS", targets)
    tracer = tracing.Tracer()
    with tracer:
        target_module.dumps({"a": [target_module.dumps(1)]})
    assert target_module.dumps.__name__ == "dumps"   # restored
    metrics = tracer.metrics()
    assert set(metrics) == {"json.dumps.s", "json.dumps.calls"}
    assert metrics["json.dumps.calls"] == 2
    assert len(tracer.absent) == 2
    assert tracer.root_mismatch() < 1e-9
