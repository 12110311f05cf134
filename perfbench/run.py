"""Run one workload of the rcvf benchmark and print its metrics as JSON.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for how inputs are built from the seed):

- certify: ``cert find`` and ``integral`` through ``rcvf.cli.run``, in process.
- verify:  ``cert verify`` on certificate files built by construction.
- scalar:  ``invert``, ``sqrt``, ``compare_order``, ``valuation`` and
  ``residue`` from ``rcvf.series``, rendered with ``format_element``.

Set-up is timed in fresh interpreters, from process start to the first
timed operation; the run reports the median of several.  The last fresh
interpreter then runs the timed phase (see worker.py).  Every answer is
checked against the answer known from how its input was built; wrong
answers are listed on stderr by operation and make ``correct`` false.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the first ``--min-ops`` operations are replayed with timing wrappers
installed and the metrics are the per-layer ones, plus the import-time
breakdown from ``python -X importtime``.  The output digest (sha256 over the
first ``--min-ops`` outputs, which a given seed fixes) is printed on the line
before the result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import PROBE_REF_S, probe
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_tmp"
OUTDIR = ROOT / ".perfbench_out"

SETUPS = 5  # fresh interpreters timed per run; the last one also runs the workload

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "decided_share": "ratio",
}

_LAYERS = {
    "series.init": ("calls", "self_s"),
    "series.add": ("calls", "self_s"),
    "series.mul": ("calls", "self_s"),
    "series.pow": ("calls", "self_s"),
    "series.compare": ("calls", "self_s", "refusals"),
    "series.invert": ("calls", "self_s"),
    "series.sqrt": ("calls", "self_s"),
    "poly.evaluate": ("calls", "self_s"),
    "poly.mul": ("calls", "self_s"),
    "poly.add": ("calls", "self_s"),
    "poly.rf_eq": ("calls", "self_s"),
    "sets.sample_points": ("calls", "points", "self_s"),
    "sets.contains": ("calls", "self_s"),
    "certificates.falsify": ("calls", "self_s", "hit_ratio"),
    "certificates.generate": ("calls", "self_s"),
    "certificates.verify": ("calls", "self_s", "accept_ratio"),
    "ringexpr.to_rational": ("calls", "self_s"),
    "parser.parse": ("calls", "self_s"),
    "jsonio.decode": ("self_s",),
    "jsonio.encode": ("self_s",),
    "cli.build_parser": ("calls", "self_s"),
    "cli.run": ("self_s",),
    "sos.psd_falsify": ("calls", "self_s", "hit_ratio"),
    "sos.residue_sos_search": ("calls", "self_s", "sos_ratio"),
    "sos.ldl_psd": ("calls", "psd_ratio"),
    "integrality.oracle": ("calls", "self_s"),
    "integrality.pullback": ("calls", "self_s"),
}
_UNITS = {"calls": "count", "points": "count", "refusals": "count", "self_s": "s"}
PER_LAYER = {f"{layer}.{what}": _UNITS.get(what, "ratio")
             for layer, whats in _LAYERS.items() for what in whats}
PER_LAYER.update({
    "setup.import_rcvf_s": "s",
    "setup.import_sympy_s": "s",
    "setup.import_numpy_s": "s",
    "setup.numpy_first_use_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
    "error_share": "ratio",
})

WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker(args, setup_only: bool) -> tuple:
    """Start a fresh interpreter; returns (calibrated and raw set-up seconds, result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(WORKDIR), "--outdir", str(OUTDIR),
           "--seconds", str(args.seconds), "--min-ops", str(args.min_ops),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    ready = next((m for m in lines if "ready" in m), None)
    result = next((m["result"] for m in lines if "result" in m), None)
    if ready is None or (result is None and not setup_only):
        raise BenchError("worker printed no result")
    raw = ready["ready"] - start - ready["probe_s"]
    return raw * PROBE_REF_S / ready["probe"], raw, result


def _import_times() -> dict:
    """Cumulative import seconds of rcvf, sympy and numpy, from -X importtime.

    Calibrated like every other time, with probes taken between the imports.
    """
    runs, probes = [], []
    for _ in range(3):
        probes += [probe() for _ in range(3)]
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import rcvf"],
                              cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError("import rcvf failed")
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in ("rcvf", "sympy", "numpy"):
                found[parts[2].strip()] = int(parts[1]) / 1e6
        runs.append(found)
    scale = PROBE_REF_S / statistics.median(probes)
    return {f"setup.import_{m}_s": statistics.median(r.get(m, 0.0) for r in runs) * scale
            for m in ("rcvf", "sympy", "numpy")}


def run(args) -> dict:
    if not (ROOT / "src" / "rcvf" / "__init__.py").is_file():
        raise BenchError(f"no rcvf sources under {ROOT / 'src'}")
    runs = [_worker(args, setup_only=i < SETUPS - 1) for i in range(SETUPS)]
    setups, raw_setups, res = [r[0] for r in runs], [r[1] for r in runs], runs[-1][2]
    n = res["ops"]
    print(json.dumps({"raw": dict(res["raw"], setup_s=statistics.median(raw_setups))}))
    print(json.dumps({"digest": {"workload": args.workload, "seed": args.seed,
                                 "ops": args.min_ops, "sha256": res["digest"],
                                 **({"traced_sha256": res["traced_digest"]} if args.trace else {})}}))
    for problem in res["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    if args.trace:
        values = dict(res["layers"], **_import_times())
        values["error_share"] = res["failed"] / n
        units = PER_LAYER
    else:
        values = {"setup_s": statistics.median(setups), "ops_per_s": n / res["busy_s"],
                  "latency_p50_ms": res["latency_p50_ms"], "latency_p90_ms": res["latency_p90_ms"],
                  "peak_rss_mb": res["peak_rss_mb"], "decided_share": res["decided"] / n}
        units = END_TO_END
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": res["failed"] == 0 and not res["problems"], "attempted": n,
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-ops", type=int, default=100, dest="min_ops",
                    help="least number of operations per run; the digest covers these")
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
