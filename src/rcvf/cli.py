"""Command-line surface.

Exit codes: 0 = verified / consistent / no counterexample; 1 = falsified or
rejected, with a machine-readable witness on stdout; 2 = usage or internal
error.  All output is canonical JSON on stdout (--pretty for indented);
randomized commands require --seed and are bit-reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import jsonio
from .certificates import (
    CANDIDATE,
    CERTIFICATE,
    CONSISTENT_NONNEG,
    NEGATIVITY_WITNESS,
    UNKNOWN,
    GenerationBudget,
    check_general_characterization,
    generate_ball_certificate,
    verify_nonneg_certificate,
)
from .errors import ParseError, RcvfError
from .integrality import gauss_gap, pointwise_integral_oracle
from .parser import parse_expression
from .poly import Polynomial, RationalFunction, gauss_valuation
from .sampling import SampleConfig
from .series import FieldElement, compare_order, default_truncation, set_default_truncation
from .sets import SetDescriptor
from .sos import SosBudget


def _emit(payload: dict, pretty: bool) -> None:
    text = jsonio.pretty_dumps(payload) if pretty else jsonio.canonical_dumps(payload)
    print(text)


def _load_set(spec: str) -> SetDescriptor:
    if spec.startswith("ball:"):
        return SetDescriptor.unit_polydisc(int(spec.split(":", 1)[1]))
    if spec.startswith("affine:"):
        path = spec.split(":", 1)[1]
        with open(path) as fh:
            return jsonio.set_from_json(json.load(fh))
    if spec.endswith(".json"):
        with open(spec) as fh:
            return jsonio.set_from_json(json.load(fh))
    raise ValueError(f"unrecognized set spec {spec!r} (use ball:n, affine:file.json, or file.json)")


def _value_payload(v) -> dict:
    if isinstance(v, FieldElement):
        return {"type": "field", "text": str(v),
                "precision": None if v.precision is None else str(v.precision)}
    if isinstance(v, Polynomial):
        return {"type": "poly", "text": str(v)}
    return {"type": "rational", "num": str(v.num), "den": str(v.den)}


def _element_list(point) -> list:
    return [str(x) for x in point]


def _config(args, default_samples=500) -> SampleConfig:
    samples = getattr(args, "samples", None) or default_samples
    return SampleConfig(seed=args.seed, samples=samples)


def _as_poly(v) -> Polynomial:
    if isinstance(v, FieldElement):
        return Polynomial.constant(v)
    if isinstance(v, RationalFunction):
        raise ValueError("expected a polynomial, got a quotient")
    return v


# -- subcommand bodies -----------------------------------------------------------


def _cmd_eval(args) -> int:
    v = parse_expression(args.expr)
    _emit({"command": "eval", "value": _value_payload(v)}, args.pretty)
    return 0


def _cmd_val(args) -> int:
    v = parse_expression(args.expr)
    if isinstance(v, FieldElement):
        out = str(v.valuation())
    else:
        out = str(gauss_valuation(v))
    _emit({"command": "val", "valuation": out}, args.pretty)
    return 0


def _cmd_res(args) -> int:
    v = parse_expression(args.expr)
    if not isinstance(v, FieldElement):
        raise ValueError("residue applies to scalar expressions")
    _emit({"command": "res", "residue": str(v.residue())}, args.pretty)
    return 0


def _cmd_cmp(args) -> int:
    a = parse_expression(args.a)
    b = parse_expression(args.b)
    if not isinstance(a, FieldElement) or not isinstance(b, FieldElement):
        raise ValueError("cmp applies to scalar expressions")
    _emit({"command": "cmp", "order": compare_order(a, b)}, args.pretty)
    return 0


def _cmd_gauss(args) -> int:
    v = parse_expression(args.expr)
    if isinstance(v, FieldElement):
        v = Polynomial.constant(v)
    _emit({"command": "gauss", "gauss": str(gauss_valuation(v))}, args.pretty)
    return 0


def _cmd_integral(args) -> int:
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
    _emit(payload, args.pretty)
    return 1 if (not gauss_ok or verdict.found_counterexample) else 0


def _psd_falsify(p, sd, config, pretty) -> int:
    from .certificates import falsify_nonnegativity
    witness = falsify_nonnegativity(p, sd, config, config.samples)
    if witness is not None:
        _emit({"command": "psd", "mode": "falsify",
               "witness": {"point": _element_list(witness), "value": str(p.evaluate(witness))}},
              pretty)
        return 1
    _emit({"command": "psd", "mode": "falsify", "witness": None, "samples": config.samples}, pretty)
    return 0


def _generate(p, sd, config, args):
    """The generator under the budget that --depth, --max-basis and --samples set."""
    budget = GenerationBudget(depth=args.depth,
                              sos=SosBudget(max_basis=args.max_basis, denominator_cap=0),
                              falsifier_samples=config.samples)
    return generate_ball_certificate(p, sd, budget, config)


def _psd_generate(p, sd, config, args) -> int:
    outcome = _generate(p, sd, config, args)
    payload = {"command": "psd", "mode": "generate", "outcome": outcome.kind,
               "gauss": None if outcome.gauss is None else str(outcome.gauss),
               "gauss_in_two_gamma": outcome.gauss_in_two_gamma,
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
    _emit(payload, args.pretty)
    return code


def _psd_probe(p, sd, config, args) -> int:
    report = check_general_characterization(p, sd, config, c_values=args.c_values)
    payload = {"command": "psd", "mode": "probe41", "verdict": report.verdict,
               "samples_tested": report.samples_tested,
               "c_values_tested": report.c_values_tested}
    if report.verdict == NEGATIVITY_WITNESS:
        payload["point"] = _element_list(report.point)
        payload["c"] = None if report.c is None else str(report.c)
        if report.confirm_point is not None:
            payload["confirm_point"] = _element_list(report.confirm_point)
        if report.obstruction:
            payload["obstruction"] = report.obstruction
    _emit(payload, args.pretty)
    return 1 if report.verdict == NEGATIVITY_WITNESS else 0


def _cmd_psd(args) -> int:
    p = _as_poly(parse_expression(args.p))
    sd = _load_set(args.set)
    config = _config(args)
    if args.falsify:
        return _psd_falsify(p, sd, config, args.pretty)
    if args.probe41:
        return _psd_probe(p, sd, config, args)
    return _psd_generate(p, sd, config, args)


def _cmd_cert_verify(args) -> int:
    with open(args.file) as fh:
        obj = json.load(fh)
    p, sd, cert = jsonio.certificate_from_json(obj)
    result = verify_nonneg_certificate(p, cert, sd)
    _emit({"command": "cert", "mode": "verify", "verified": result.ok,
           "reason": result.reason}, args.pretty)
    return 0 if result.ok else 1


def _cmd_cert_find(args) -> int:
    p = _as_poly(parse_expression(args.p))
    sd = _load_set(args.set)
    outcome = _generate(p, sd, _config(args), args)
    payload = {"command": "cert", "mode": "find", "outcome": outcome.kind}
    code = 0
    if outcome.kind == CERTIFICATE:
        cert_json = jsonio.certificate_to_json(p, sd, outcome.certificate)
        payload["certificate"] = cert_json
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(jsonio.canonical_dumps(cert_json) + "\n")
    elif outcome.kind == NEGATIVITY_WITNESS:
        payload["witness"] = {"point": _element_list(outcome.point)}
        code = 1
    elif outcome.kind == CANDIDATE:
        payload["candidate"] = {"m": str(outcome.m),
                                "h": {"num": str(outcome.h.num), "den": str(outcome.h.den)},
                                "oracle": outcome.oracle.kind}
    _emit(payload, args.pretty)
    return code


def _cmd_selftest(args) -> int:
    from . import selftest
    report = selftest.run_selftest(args.seed)
    _emit({"command": "selftest", "passed": report["passed"], "checks": report["checks"]},
          args.pretty)
    return 0 if report["passed"] else 1


# -- argument wiring ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rcvf",
                                 description="Exact series arithmetic, integrality oracles, "
                                             "and non-negativity certificates.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, seed=False, sampled=False):
        p.add_argument("--trunc", type=int, default=None,
                       help="working truncation order for inexact division/sqrt")
        p.add_argument("--pretty", action="store_true", help="indented JSON output")
        if seed:
            p.add_argument("--seed", type=int, required=True, help="RNG seed (required)")
        if sampled:
            p.add_argument("--samples", type=int, default=None, help="sample budget")

    p = sub.add_parser("eval", help="evaluate an expression")
    p.add_argument("--expr", required=True)
    common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("val", help="valuation (Gauss valuation for polynomials)")
    p.add_argument("--expr", required=True)
    common(p)
    p.set_defaults(func=_cmd_val)

    p = sub.add_parser("res", help="residue of an integral scalar")
    p.add_argument("--expr", required=True)
    common(p)
    p.set_defaults(func=_cmd_res)

    p = sub.add_parser("cmp", help="order comparison of two scalars")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    common(p)
    p.set_defaults(func=_cmd_cmp)

    p = sub.add_parser("gauss", help="Gauss valuation of a polynomial or quotient")
    p.add_argument("--expr", required=True)
    common(p)
    p.set_defaults(func=_cmd_gauss)

    p = sub.add_parser("integral", help="integrality verdicts (Gauss and pointwise)")
    p.add_argument("--h", required=True)
    p.add_argument("--set", required=True)
    common(p, seed=True, sampled=True)
    p.set_defaults(func=_cmd_integral)

    p = sub.add_parser("psd", help="non-negativity: falsify, generate, or probe")
    p.add_argument("--p", required=True)
    p.add_argument("--set", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--falsify", action="store_true")
    mode.add_argument("--generate", action="store_true")
    mode.add_argument("--probe41", action="store_true")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--max-basis", type=int, default=16, dest="max_basis")
    p.add_argument("--c-values", type=int, default=10, dest="c_values")
    common(p, seed=True, sampled=True)
    p.set_defaults(func=_cmd_psd)

    p = sub.add_parser("cert", help="verify or find certificates")
    cert_sub = p.add_subparsers(dest="cert_mode", required=True)
    pv = cert_sub.add_parser("verify")
    pv.add_argument("file")
    common(pv)
    pv.set_defaults(func=_cmd_cert_verify)
    pf = cert_sub.add_parser("find")
    pf.add_argument("--p", required=True)
    pf.add_argument("--set", required=True)
    pf.add_argument("--out", default=None, help="write the certificate JSON here")
    pf.add_argument("--depth", type=int, default=3)
    pf.add_argument("--max-basis", type=int, default=16, dest="max_basis")
    common(pf, seed=True, sampled=True)
    pf.set_defaults(func=_cmd_cert_find)

    p = sub.add_parser("selftest", help="run the quick property suite")
    common(p, seed=True)
    p.set_defaults(func=_cmd_selftest)

    return ap


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    previous_truncation = default_truncation()
    if getattr(args, "trunc", None):
        set_default_truncation(args.trunc)
    try:
        return args.func(args)
    except ParseError as exc:
        _emit({"error": {"type": "parse", "message": str(exc), "position": exc.position}},
              getattr(args, "pretty", False))
        return 2
    except (RcvfError, ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}},
              getattr(args, "pretty", False))
        return 2
    finally:
        set_default_truncation(previous_truncation)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
