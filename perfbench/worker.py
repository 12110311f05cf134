"""One benchmark process: import rcvf, build a workload's inputs, run it.

run.py starts this script in a fresh interpreter with ``src`` on
PYTHONPATH.  Once set-up is done it prints ``{"ready": t, ...}``, where
``t`` is CLOCK_MONOTONIC (comparable across processes), and, unless
``--setup-only``, a final ``{"result": {...}}`` line.

The timed phase is a closed loop: one caller, one operation at a time.  It
runs for at least ``--seconds`` and ``--min-ops`` operations and stops on a
block boundary, so every run sees the same mix.  With ``--trace 1`` the
first ``--min-ops`` operations are then replayed with the timing wrappers
installed.

Calibration: on a shared 2-core Xeon VM the machine's speed drifts (the
same 45 ms operation took between 22 and 55 ms within one minute, and all
Python code slowed alike).
So a fixed pure-Python kernel that runs no rcvf code, ``probe()``, is timed
before every operation, and each time is reported at a reference speed:
``seconds * PROBE_REF_S / probe``, with the median of the probes around the
operation.  Raw wall-clock figures are reported alongside.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction

# Reference duration of probe(): about its median on a 2-core Xeon VM with
# Python 3.11.  Calibrated times are seconds at that speed.
PROBE_REF_S = 0.0018


def probe() -> float:
    """Seconds taken by a fixed kernel of Fraction arithmetic, dicts and sorting."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 200):
        acc += Fraction(k, k + 1) * Fraction(k + 2, 3 * k + 1)
    table = {}
    for k in range(300):
        table[(k, k % 7)] = table.get((k % 11, 0), 0) + k
    sorted(table)
    return time.perf_counter() - start


def _calibrated(latencies, probes) -> list:
    """Latencies at the reference speed; probes[i] ran before op i, probes[-1] after the last."""
    return [lat * PROBE_REF_S / statistics.median(probes[max(0, i - 1):i + 3])
            for i, lat in enumerate(latencies)]


class Pass:
    """Outcomes and timings of one pass over a workload's operations."""

    def __init__(self, wl, execute, count=None, seconds=0.0, min_ops=0):
        clock = time.perf_counter
        self.outcomes, raw, probes = [], [], []
        self.first_numpy = None   # index of the operation that first imported numpy
        numpy_loaded = "numpy" in sys.modules
        start = clock()
        i = 0
        while (i < count if count is not None
               else i < min_ops or i % wl.block or clock() - start < seconds):
            probes.append(probe())
            t0 = clock()
            self.outcomes.append(execute(wl.ops[i % len(wl.ops)]))
            raw.append(clock() - t0)
            if not numpy_loaded and "numpy" in sys.modules:
                numpy_loaded, self.first_numpy = True, i
            i += 1
        probes.append(probe())
        self.wall = clock() - start
        self.raw = raw
        self.probe = statistics.median(probes)
        self.latencies = _calibrated(raw, probes)


def _traced(wl, count: int, spans_path: str):
    """Replay the first count operations with the wrappers installed."""
    import tracing

    tracer = tracing.Tracer().install()
    try:
        execute = tracer.wrap("op", wl.execute)
        ids = iter(range(count))

        def run_op(op):
            tracer.op_id = next(ids)
            return execute(op)

        traced = Pass(wl, run_op, count=count)
    finally:
        tracer.remove()
    with open(spans_path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return traced, tracer


def _digest(outcomes) -> str:
    h = hashlib.sha256()
    for out in outcomes:
        h.update(out.text.encode())
        h.update(b"\0")
    return h.hexdigest()


def _p90(xs) -> float:
    return statistics.quantiles(xs, n=10)[8]


def run(wl, args) -> dict:
    timed = Pass(wl, wl.execute, seconds=args.seconds, min_ops=args.min_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat, n = timed.latencies, len(timed.outcomes)
    result = {"ops": n, "busy_s": sum(lat), "peak_rss_mb": peak_rss_mb,
              "latency_p50_ms": statistics.median(lat) * 1000, "latency_p90_ms": _p90(lat) * 1000,
              "raw": {"ops_per_s": n / timed.wall, "latency_p50_ms": statistics.median(timed.raw) * 1000,
                      "latency_p90_ms": _p90(timed.raw) * 1000},
              "digest": _digest(timed.outcomes[:args.min_ops])}
    problems = []
    if args.trace:
        os.makedirs(args.outdir, exist_ok=True)
        spans_path = os.path.join(args.outdir, f"spans-{args.workload}-{args.seed}.jsonl")
        # A fixed number of operations, so that counts repeat exactly per seed.
        count = args.min_ops
        traced, tracer = _traced(wl, count, spans_path)
        if [o.text for o in traced.outcomes] != [o.text for o in timed.outcomes[:count]]:
            problems.append("traced outputs differ from untraced outputs")
        problems += [f"wrapper left installed: {name}" for name in tracer.leftovers()]
        layers = tracer.metrics()
        for name in layers:
            if name.endswith("self_s"):
                layers[name] *= PROBE_REF_S / traced.probe
        layers["trace.overhead_ratio"] = sum(traced.latencies) / sum(lat[:count])
        first = timed.first_numpy
        layers["setup.numpy_first_use_ms"] = 0.0 if first is None else lat[first] * 1000
        result["layers"] = layers
        result["traced_digest"] = _digest(traced.outcomes)
    failed = decided = 0
    for i, out in enumerate(timed.outcomes):
        op = wl.ops[i % len(wl.ops)]
        wrong, ok = wl.check(op, out)
        decided += ok and not wrong
        if wrong:
            failed += 1
            print(f"wrong answer: {args.workload} op {i} ({op.category}): {wrong}", file=sys.stderr)
    result.update(failed=failed, decided=decided, problems=problems)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True, help="directory for set-up files")
    ap.add_argument("--outdir", required=True, help="directory for the span file")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-ops", type=int, default=100, dest="min_ops")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true", dest="setup_only")
    args = ap.parse_args(argv)

    # Probes before and after set-up calibrate it; their own time is not set-up.
    probes = [probe() for _ in range(3)]
    probe_s = sum(probes)
    import rcvf  # noqa: F401 -- importing the package is part of set-up
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ready = time.monotonic()
        probes += [probe() for _ in range(3)]
        print(json.dumps({"ready": ready, "probe_s": probe_s, "probe": statistics.median(probes)}),
              flush=True)
        if not args.setup_only:
            print(json.dumps({"result": run(wl, args)}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
