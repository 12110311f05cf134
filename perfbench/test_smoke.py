"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

They run tiny workloads (no minimum duration, one block of operations), so
they check wiring and output shape, not timings.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_OPS = {name: cls.block for name, cls in workloads.WORKLOADS.items()}


def _run(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT):
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
                           "--min-ops", str(TINY_OPS[workload])],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["digest"], json.loads(lines[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(workload):
    digest, result = _result(_run(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= TINY_OPS[workload]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert digest["ops"] == TINY_OPS[workload]


@pytest.mark.parametrize("workload", ["verify", "scalar"])
def test_traced_run_emits_every_per_layer_metric_and_same_digest(workload):
    plain, _ = _result(_run(workload, trace=0))
    traced, result = _result(_run(workload, trace=1))
    assert result["correct"], result
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert plain["sha256"] == traced["sha256"] == traced["traced_sha256"]


def test_wrappers_are_removed_after_tracing(tmp_path):
    from rcvf.series import FieldElement

    original = FieldElement.__init__
    wl = workloads.Scalar(3, str(tmp_path))
    tracer = tracing.Tracer().install()
    try:
        assert FieldElement.__init__ is not original
        assert tracer.leftovers()
        for op in wl.ops[:wl.block]:
            wl.execute(op)
    finally:
        tracer.remove()
    assert FieldElement.__init__ is original
    assert tracer.leftovers() == []
    assert tracer.stats["series.invert"][0] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("scalar", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
