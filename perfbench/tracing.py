"""Timing wrappers installed from outside the library for the traced run.

Methods are wrapped on their class, under every name that holds the same
function (aliases such as ``__radd__`` included).  Functions are wrapped in
the defining module and in every loaded ``rcvf`` module that bound the name
at import.  Coarse calls become spans ``(name, start, end, parent, op)``;
hot scalar and polynomial calls only add to a call count and a self time.
Self time is a call's duration minus the time of the wrapped calls it made.
"""

from __future__ import annotations

import functools
import sys
import time

SPAN, HOT = "span", "hot"

# (layer name, module, attribute path, kind)
TARGETS = [
    ("series.init", "rcvf.series", "FieldElement.__init__", HOT),
    ("series.add", "rcvf.series", "FieldElement.__add__", HOT),
    ("series.mul", "rcvf.series", "FieldElement.__mul__", HOT),
    ("series.pow", "rcvf.series", "FieldElement.__pow__", HOT),
    ("series.compare", "rcvf.series", "compare_order", HOT),
    ("series.invert", "rcvf.series", "FieldElement.invert", HOT),
    ("series.sqrt", "rcvf.series", "FieldElement.sqrt", HOT),
    ("poly.evaluate", "rcvf.poly", "Polynomial.evaluate", HOT),
    ("poly.mul", "rcvf.poly", "Polynomial.__mul__", HOT),
    ("poly.add", "rcvf.poly", "Polynomial.__add__", HOT),
    ("poly.rf_eq", "rcvf.poly", "RationalFunction.__eq__", HOT),
    ("sets.contains", "rcvf.sets", "SetDescriptor.contains", HOT),
    ("sets.sample_points", "rcvf.sets", "SetDescriptor.sample_points", SPAN),
    ("ringexpr.to_rational", "rcvf.ringexpr", "ring_expr_to_rational", HOT),
    ("parser.parse", "rcvf.parser", "parse_expression", HOT),
    ("sos.ldl_psd", "rcvf.sos", "ldl_psd", HOT),
    ("sos.psd_falsify", "rcvf.sos", "psd_falsify", SPAN),
    ("sos.residue_sos_search", "rcvf.sos", "residue_sos_search", SPAN),
    ("integrality.oracle", "rcvf.integrality", "pointwise_integral_oracle", SPAN),
    ("integrality.pullback", "rcvf.integrality", "module_pullback", SPAN),
    ("certificates.falsify", "rcvf.certificates", "falsify_nonnegativity", SPAN),
    ("certificates.generate", "rcvf.certificates", "generate_ball_certificate", SPAN),
    ("certificates.verify", "rcvf.certificates", "verify_nonneg_certificate", SPAN),
    ("jsonio.decode", "rcvf.jsonio", "certificate_from_json", SPAN),
    ("jsonio.encode", "rcvf.jsonio", "certificate_to_json", SPAN),
    ("jsonio.encode", "rcvf.jsonio", "canonical_dumps", SPAN),
    ("cli.build_parser", "rcvf.cli", "build_parser", SPAN),
    ("cli.run", "rcvf.cli", "run", SPAN),
]


def _hit(counter):
    def record(tracer, result, exc):
        if exc is None and result is not None:
            tracer.counts[counter] += 1
    return record


def _kind(counter, attr, value):
    def record(tracer, result, exc):
        if exc is None and getattr(result, attr) == value:
            tracer.counts[counter] += 1
    return record


def _ldl(tracer, result, exc):
    if exc is None and result[0] == "psd":
        tracer.counts["sos.ldl_psd.psd"] += 1


def _points(tracer, result, exc):
    if exc is None:
        tracer.counts["sets.sample_points.points"] += len(result)


def _refusal(tracer, result, exc):
    if exc is not None and type(exc).__name__ == "PrecisionExhausted":
        tracer.counts["series.compare.refusals"] += 1


# Outcome counters, recorded where the work happens.
OUTCOMES = {
    "certificates.falsify": _hit("certificates.falsify.hits"),
    "sos.psd_falsify": _hit("sos.psd_falsify.hits"),
    "sos.residue_sos_search": _kind("sos.residue_sos_search.sos", "kind", "sos"),
    "sos.ldl_psd": _ldl,
    "certificates.verify": _kind("certificates.verify.accepted", "ok", True),
    "sets.sample_points": _points,
    "series.compare": _refusal,
}


def _rcvf_modules() -> list:
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "rcvf" or key.startswith("rcvf."))]


def _holders(module) -> list:
    """The module and the classes it defines: every place a wrapper can sit."""
    return [module] + [v for v in vars(module).values()
                       if isinstance(v, type) and v.__module__ == module.__name__]


class Tracer:
    """Holds counts, self times and spans in memory while installed."""

    def __init__(self):
        self.stats: dict = {t[0]: [0, 0.0] for t in TARGETS}  # layer -> [calls, self seconds]
        self.counts: dict = {c: 0 for c in ("certificates.falsify.hits", "sos.psd_falsify.hits",
                                            "sos.residue_sos_search.sos", "sos.ldl_psd.psd",
                                            "certificates.verify.accepted",
                                            "sets.sample_points.points", "series.compare.refusals")}
        self.spans: list = []
        self.op_id = None
        self._frames: list = []               # child-time accumulators of open calls
        self._open_spans: list = []

    def wrap(self, name: str, fn, kind: str = SPAN):
        stat = self.stats.setdefault(name, [0, 0.0])
        outcome = OUTCOMES.get(name)
        frames, open_spans, spans = self._frames, self._open_spans, self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            frames.append(child)
            if kind == SPAN:
                sid = len(spans)
                spans.append(None)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if outcome:
                    outcome(tracer, None, exc)
                raise
            finally:
                t1 = clock()
                frames.pop()
                if frames:
                    frames[-1][0] += t1 - t0
                stat[0] += 1
                stat[1] += t1 - t0 - child[0]
                if kind == SPAN:
                    open_spans.pop()
                    spans[sid] = (name, t0, t1, parent, tracer.op_id)
            if outcome:
                outcome(tracer, result, None)
            return result

        wrapper.__wrapped_by_perfbench__ = fn
        return wrapper

    def install(self) -> "Tracer":
        """Wrap every target in the rcvf modules loaded now; others are not called."""
        for name, module, attr, kind in TARGETS:
            if module not in sys.modules:
                continue
            owner = sys.modules[module]
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, attr.split(".")[-1])
            wrapper = self.wrap(name, original, kind)
            holders = [owner] if isinstance(owner, type) else _rcvf_modules()
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
        return self

    def remove(self) -> None:
        """Restore the originals, also where a module imported while tracing bound a wrapper."""
        for module in _rcvf_modules():
            for holder in _holders(module):
                for key, value in list(vars(holder).items()):
                    if hasattr(value, "__wrapped_by_perfbench__"):
                        setattr(holder, key, value.__wrapped_by_perfbench__)

    def leftovers(self) -> list:
        """Attributes of rcvf modules and classes that still hold a wrapper."""
        return [f"{holder.__name__}.{key}" for module in _rcvf_modules() for holder in _holders(module)
                for key, value in vars(holder).items() if hasattr(value, "__wrapped_by_perfbench__")]

    def metrics(self) -> dict:
        """Per-layer numbers: calls, self seconds and outcome ratios."""
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s

        def ratio(count, layer):
            calls = self.stats[layer][0]
            return self.counts[count] / calls if calls else 0.0

        out["certificates.falsify.hit_ratio"] = ratio("certificates.falsify.hits", "certificates.falsify")
        out["sos.psd_falsify.hit_ratio"] = ratio("sos.psd_falsify.hits", "sos.psd_falsify")
        out["sos.residue_sos_search.sos_ratio"] = ratio("sos.residue_sos_search.sos", "sos.residue_sos_search")
        out["sos.ldl_psd.psd_ratio"] = ratio("sos.ldl_psd.psd", "sos.ldl_psd")
        out["certificates.verify.accept_ratio"] = ratio("certificates.verify.accepted", "certificates.verify")
        out["sets.sample_points.points"] = self.counts["sets.sample_points.points"]
        out["series.compare.refusals"] = self.counts["series.compare.refusals"]
        out["trace.spans"] = len(self.spans)
        return out
