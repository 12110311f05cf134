"""Command-line surface.

Exit codes: 0 = verified / consistent / no counterexample; 1 = falsified or
rejected, with a machine-readable witness on stdout; 2 = usage or internal
error.  All output is canonical JSON on stdout (--pretty for indented);
randomized commands require --seed and are bit-reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from dataclasses import replace

from . import jsonio
from .certificates import (
    CANDIDATE,
    CERTIFICATE,
    NEGATIVITY_WITNESS,
    GenerationBudget,
    check_general_characterization,
    falsify_nonnegativity,
    generate_ball_certificate,
    verify_nonneg_certificate,
)
from .errors import ParseError, RcvfError
from .integrality import gauss_gap, pointwise_integral_oracle
from .parser import parse_expression
from .poly import Polynomial, gauss_valuation
from .sampling import SampleConfig
from .series import FieldElement, compare_order, default_truncation, format_rational, working_truncation
from .sets import SetDescriptor, align_to_set


def _emit(payload: dict, pretty: bool) -> None:
    text = jsonio.pretty_dumps(payload) if pretty else jsonio.canonical_dumps(payload)
    print(text)


def _load_set(spec: str) -> SetDescriptor:
    if spec.startswith("ball:"):
        return SetDescriptor.unit_polydisc(int(spec.split(":", 1)[1]))
    if spec.startswith("affine:") or spec.endswith(".json"):
        with open(spec.removeprefix("affine:")) as fh:
            return jsonio.set_from_json(jsonio.load(fh))
    raise ValueError(f"unrecognized set spec {spec!r} (use ball:n, affine:file.json, or file.json)")


def _value_payload(v) -> dict:
    if isinstance(v, FieldElement):
        return {"type": "field", "text": str(v),
                "precision": None if v.precision is None else format_rational(v.precision)}
    if isinstance(v, Polynomial):
        return {"type": "poly", "text": str(v)}
    return {"type": "rational", "num": str(v.num), "den": str(v.den)}


def _element_list(point) -> list:
    return [str(x) for x in point]


def _config(args, default_samples=500) -> SampleConfig:
    return SampleConfig(seed=args.seed, samples=args.samples or default_samples)


# -- subcommand bodies: each returns (payload, exit code) ---------------------


def _cmd_eval(args):
    v = parse_expression(args.expr)
    return {"command": "eval", "value": _value_payload(v)}, 0


def _cmd_val(args):
    v = parse_expression(args.expr)
    if isinstance(v, FieldElement):
        out = str(v.valuation())
    else:
        out = str(gauss_valuation(v))
    return {"command": "val", "valuation": out}, 0


def _cmd_res(args):
    v = parse_expression(args.expr)
    if not isinstance(v, FieldElement):
        raise ValueError("residue applies to scalar expressions")
    return {"command": "res", "residue": format_rational(v.residue())}, 0


def _cmd_cmp(args):
    a = parse_expression(args.a)
    b = parse_expression(args.b)
    if not isinstance(a, FieldElement) or not isinstance(b, FieldElement):
        raise ValueError("cmp applies to scalar expressions")
    return {"command": "cmp", "order": compare_order(a, b)}, 0


def _cmd_gauss(args):
    v = parse_expression(args.expr)
    if isinstance(v, FieldElement):
        v = Polynomial.constant(v)
    return {"command": "gauss", "gauss": str(gauss_valuation(v))}, 0


def _cmd_integral(args):
    h = parse_expression(args.h)
    if isinstance(h, FieldElement):
        h = Polynomial.constant(h)
    sd = _load_set(args.set)
    config = _config(args, default_samples=2000)
    gap = gauss_gap(h, sd)
    gauss_ok = gap >= 0
    verdict = pointwise_integral_oracle(h, sd, config)
    payload = {
        "command": "integral",
        "gauss": {"integral": gauss_ok, "gap": str(gap)},
        "pointwise": {"verdict": verdict.kind, "samples": verdict.samples,
                      "skipped": verdict.skipped},
    }
    if verdict.found_counterexample:
        payload["pointwise"]["point"] = _element_list(verdict.point)
        payload["pointwise"]["value_valuation"] = str(verdict.value_valuation)
    return payload, 1 if (not gauss_ok or verdict.found_counterexample) else 0


def _psd_falsify(p, sd, config):
    p = align_to_set(p, sd)
    witness = falsify_nonnegativity(p, sd, config)
    if witness is not None:
        return {"command": "psd", "mode": "falsify",
                "witness": {"point": _element_list(witness), "value": str(p.evaluate(witness))}}, 1
    return {"command": "psd", "mode": "falsify", "witness": None, "samples": config.samples}, 0


def _generate(p, sd, args):
    """The generation outcome body of psd --generate and cert find, and its exit code.

    The budget is GenerationBudget's with --depth and --max-basis; --samples
    points are drawn.
    """
    budget = GenerationBudget(depth=args.depth,
                              sos=replace(GenerationBudget.sos, max_basis=args.max_basis))
    outcome = generate_ball_certificate(p, sd, budget, _config(args))
    payload = {"outcome": outcome.kind,
               "gauss": None if outcome.gauss is None else format_rational(outcome.gauss),
               "layers": outcome.layers}
    code = 0
    if outcome.kind == CERTIFICATE:
        payload["certificate"] = jsonio.certificate_to_json(p, sd, outcome.certificate)
    elif outcome.kind == NEGATIVITY_WITNESS:
        payload["witness"] = {"point": _element_list(outcome.point)}
        code = 1
    elif outcome.kind == CANDIDATE:
        payload["candidate"] = {
            "r": [str(s) for s in outcome.r.summands],
            "m": str(outcome.m),
            "h": {"num": str(outcome.h.num), "den": str(outcome.h.den)},
            "oracle": {"verdict": outcome.oracle.kind, "samples": outcome.oracle.samples},
        }
    return payload, code


def _psd_probe(p, sd, config):
    report = check_general_characterization(p, sd, config)
    payload = {"command": "psd", "mode": "probe41", "verdict": report.verdict,
               "samples_tested": report.samples_tested}
    if report.verdict == NEGATIVITY_WITNESS:
        payload["point"] = _element_list(report.point)
        payload["c"] = None if report.c is None else str(report.c)
        if report.confirm_point is not None:
            payload["confirm_point"] = _element_list(report.confirm_point)
        if report.obstruction:
            payload["obstruction"] = report.obstruction
    return payload, 1 if report.verdict == NEGATIVITY_WITNESS else 0


def _cmd_psd(args):
    p = jsonio.as_polynomial(parse_expression(args.p), args.p, "--p")
    sd = _load_set(args.set)
    if args.falsify:
        return _psd_falsify(p, sd, _config(args))
    if args.probe41:
        return _psd_probe(p, sd, _config(args))
    body, code = _generate(p, sd, args)
    return {"command": "psd", "mode": "generate", **body}, code


def _cmd_cert_verify(args):
    with open(args.file) as fh:
        obj = jsonio.load(fh)
    p, sd, cert = jsonio.certificate_from_json(obj)
    result = verify_nonneg_certificate(p, cert, sd)
    return {"command": "cert", "mode": "verify", "verified": result.ok,
            "reason": result.reason}, 0 if result.ok else 1


def _cmd_cert_find(args):
    p = jsonio.as_polynomial(parse_expression(args.p), args.p, "--p")
    sd = _load_set(args.set)
    body, code = _generate(p, sd, args)
    if args.out and "certificate" in body:
        with open(args.out, "w") as fh:
            fh.write(jsonio.canonical_dumps(body["certificate"]) + "\n")
    return {"command": "cert", "mode": "find", **body}, code


def _cmd_selftest(args):
    from . import selftest
    report = selftest.run_selftest(args.seed)
    return ({"command": "selftest", "passed": report["passed"], "checks": report["checks"]},
            0 if report["passed"] else 1)


# -- argument wiring ------------------------------------------------------------


def _int_at_least(minimum: int):
    """argparse type: an integer >= minimum; anything else is a usage error (exit 2)."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rcvf",
                                 description="Exact series arithmetic, integrality oracles, "
                                             "and non-negativity certificates.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, seed=False, sampled=False):
        p.add_argument("--trunc", type=_int_at_least(1), default=None,
                       help="working truncation order for inexact division/sqrt")
        p.add_argument("--pretty", action="store_true", help="indented JSON output")
        if seed:
            p.add_argument("--seed", type=int, required=True, help="RNG seed (required)")
        if sampled:
            p.add_argument("--samples", type=_int_at_least(1), default=None, help="sample budget")

    def generation(p):
        p.add_argument("--depth", type=_int_at_least(0), default=GenerationBudget.depth)
        p.add_argument("--max-basis", type=_int_at_least(0), default=GenerationBudget.sos.max_basis,
                       dest="max_basis")

    p = sub.add_parser("eval", help="evaluate an expression")
    p.add_argument("--expr", required=True)
    common(p)
    p.set_defaults(handler="_cmd_eval")

    p = sub.add_parser("val", help="valuation (Gauss valuation for polynomials)")
    p.add_argument("--expr", required=True)
    common(p)
    p.set_defaults(handler="_cmd_val")

    p = sub.add_parser("res", help="residue of an integral scalar")
    p.add_argument("--expr", required=True)
    common(p)
    p.set_defaults(handler="_cmd_res")

    p = sub.add_parser("cmp", help="order comparison of two scalars")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    common(p)
    p.set_defaults(handler="_cmd_cmp")

    p = sub.add_parser("gauss", help="Gauss valuation of a polynomial or quotient")
    p.add_argument("--expr", required=True)
    common(p)
    p.set_defaults(handler="_cmd_gauss")

    p = sub.add_parser("integral", help="integrality verdicts (Gauss and pointwise)")
    p.add_argument("--h", required=True)
    p.add_argument("--set", required=True)
    common(p, seed=True, sampled=True)
    p.set_defaults(handler="_cmd_integral")

    p = sub.add_parser("psd", help="non-negativity: falsify, generate, or probe")
    p.add_argument("--p", required=True)
    p.add_argument("--set", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--falsify", action="store_true")
    mode.add_argument("--generate", action="store_true")
    mode.add_argument("--probe41", action="store_true")
    generation(p)
    common(p, seed=True, sampled=True)
    p.set_defaults(handler="_cmd_psd")

    p = sub.add_parser("cert", help="verify or find certificates")
    cert_sub = p.add_subparsers(dest="cert_mode", required=True)
    pv = cert_sub.add_parser("verify")
    pv.add_argument("file")
    common(pv)
    pv.set_defaults(handler="_cmd_cert_verify")
    pf = cert_sub.add_parser("find")
    pf.add_argument("--p", required=True)
    pf.add_argument("--set", required=True)
    pf.add_argument("--out", default=None, help="write the certificate JSON here")
    generation(pf)
    common(pf, seed=True, sampled=True)
    pf.set_defaults(handler="_cmd_cert_find")

    p = sub.add_parser("selftest", help="run the quick property suite")
    common(p, seed=True)
    p.set_defaults(handler="_cmd_selftest")

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args leaves it unchanged."""
    return build_parser()


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with working_truncation(args.trunc or default_truncation()):
            # Looked up by name on each call: the parser is built once per process,
            # and the handler is whatever the module binds now.
            payload, code = globals()[args.handler](args)
    except ParseError as exc:
        payload, code = {"error": {"type": "parse", "message": str(exc), "position": exc.position}}, 2
    except (RcvfError, ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        payload, code = {"error": {"type": type(exc).__name__, "message": str(exc)}}, 2
    except Exception as exc:  # a crash must not exit 1, which reads as "rejected"
        traceback.print_exc(file=sys.stderr)
        payload = {"error": {"type": "internal", "exception": type(exc).__name__, "message": str(exc)}}
        code = 2
    _emit(payload, args.pretty)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
