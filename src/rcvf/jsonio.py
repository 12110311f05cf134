"""Canonical JSON encoding of sets, ring expressions and certificates.

Dumps are canonical (sorted keys, compact separators), so serialize ->
parse -> serialize is byte-identical.  Only exact values are serializable;
a truncated element has no text form and is rejected.
"""

from __future__ import annotations

import json

from .errors import RcvfError
from .parser import parse_expression
from .poly import Polynomial, RationalFunction
from .ringexpr import (
    ConeExpr,
    ConeInverseExpr,
    ConstExpr,
    GenExpr,
    PerturbedUnit,
    ProdExpr,
    RingExpr,
    SOSExpr,
    SosInverseExpr,
    SumExpr,
)
from .sets import AffineModuleMap, SetDescriptor
from .series import FieldElement
from .certificates import (
    IntegralityWitness,
    NonnegCertificate,
    QuotientCoefficient,
)


class EncodingError(RcvfError):
    pass


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def pretty_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _expect(obj, kind: type, what: str):
    """obj itself when it has the JSON type kind, else EncodingError.  Readers
    check every node: a string where a list belongs would be iterated, and
    int() would read 0.9 or true as an index."""
    if not isinstance(obj, kind) or isinstance(obj, bool):
        raise EncodingError(f"{what} must be {_JSON_TYPES[kind]} in JSON, got {type(obj).__name__}")
    return obj


def _objects(obj, what: str) -> list:
    return [_expect(item, dict, f"an item of {what}") for item in _expect(obj, list, what)]


def _truncated(v) -> bool:
    if isinstance(v, FieldElement):
        return v.precision is not None
    if isinstance(v, RationalFunction):
        return _truncated(v.num) or _truncated(v.den)
    return any(c.precision is not None for c in v.terms.values())


def _parse(text, exact: bool):
    """The parsed value; with exact, EncodingError if it has a truncated
    coefficient (a division by a multi-term scalar), since a certificate
    holds exact data only."""
    v = parse_expression(_expect(text, str, "expression text"))
    if exact and _truncated(v):
        raise EncodingError(f"inexact coefficient in {text!r}: a certificate holds exact values only")
    return v


# -- scalars and polynomials ---------------------------------------------------


def element_to_text(x: FieldElement) -> str:
    if x.precision is not None:
        raise EncodingError("cannot serialize a truncated element")
    return str(x)


def element_from_text(text: str, exact: bool = True) -> FieldElement:
    v = _parse(text, exact)
    if not isinstance(v, FieldElement):
        raise EncodingError(f"expected a scalar, got {type(v).__name__}: {text!r}")
    return v


def poly_to_text(p: Polynomial) -> str:
    for c in p.terms.values():
        if c.precision is not None:
            raise EncodingError("cannot serialize a polynomial with truncated coefficients")
    return str(p)


def poly_from_text(text: str, exact: bool = True) -> Polynomial:
    v = _parse(text, exact)
    if isinstance(v, FieldElement):
        return Polynomial.constant(v)
    if isinstance(v, RationalFunction):
        if not v.den.is_constant():
            raise EncodingError(f"expected a polynomial, got a quotient: {text!r}")
        c = v.den.constant_value()
        if len(c.terms) != 1:
            raise EncodingError(f"non-monomial constant denominator in {text!r}")
        return v.num.scale(c.invert())
    return v


def rational_to_text(rf: RationalFunction) -> str:
    poly_to_text(rf.num), poly_to_text(rf.den)  # exactness check
    return str(rf)


def rational_from_text(text: str) -> RationalFunction:
    v = _parse(text, True)
    if isinstance(v, FieldElement):
        return RationalFunction.constant(v)
    if isinstance(v, Polynomial):
        return RationalFunction(v)
    return v


# -- sets ------------------------------------------------------------------------


def set_to_json(s: SetDescriptor) -> dict:
    if s.kind == "ball":
        out = {"kind": "ball", "n": s.n}
    else:
        out = {
            "kind": "affine",
            "centers": [element_to_text(c) for c in s.module_map.centers],
            "scales": [element_to_text(c) for c in s.module_map.scales],
        }
    if s.strict_constraints:
        out["strict"] = [poly_to_text(p) for p in s.strict_constraints]
    return out


def set_from_json(obj: dict) -> SetDescriptor:
    """A set; unlike a certificate's values, its values may be truncated."""
    obj = _expect(obj, dict, "set")
    strict = [poly_from_text(t, exact=False) for t in _expect(obj.get("strict", []), list, "strict")] or None
    if obj["kind"] == "ball":
        return SetDescriptor.unit_polydisc(_expect(obj["n"], int, "n"), strict)
    if obj["kind"] == "affine":
        centers = tuple(element_from_text(t, exact=False) for t in _expect(obj["centers"], list, "centers"))
        scales = tuple(element_from_text(t, exact=False) for t in _expect(obj["scales"], list, "scales"))
        return SetDescriptor.affine_module(AffineModuleMap(centers, scales), strict)
    raise EncodingError(f"unknown set kind {obj.get('kind')!r}")


# -- ring expressions --------------------------------------------------------------


def _sos_to_json(sos: SOSExpr) -> list:
    return [{"num": poly_to_text(s.num), "den": poly_to_text(s.den)} for s in sos.summands]


def _sos_from_json(items) -> SOSExpr:
    summands = []
    for it in _objects(items, "summands"):
        summands.append(RationalFunction(poly_from_text(it["num"]), poly_from_text(it["den"])))
    return SOSExpr(summands)


def ring_expr_to_json(e: RingExpr) -> dict:
    if isinstance(e, ConstExpr):
        return {"op": "const", "value": element_to_text(e.value)}
    if isinstance(e, GenExpr):
        return {"op": "gen", "index": e.index}
    if isinstance(e, SosInverseExpr):
        return {"op": "iord", "summands": _sos_to_json(e.sos)}
    if isinstance(e, ConeInverseExpr):
        return {"op": "icone", "entries": [
            {"coeff": _sos_to_json(sos), "factors": list(factors)}
            for sos, factors in e.cone.entries]}
    if isinstance(e, SumExpr):
        return {"op": "sum", "args": [ring_expr_to_json(a) for a in e.args]}
    if isinstance(e, ProdExpr):
        return {"op": "prod", "args": [ring_expr_to_json(a) for a in e.args]}
    raise EncodingError(f"not a ring expression: {type(e).__name__}")


def ring_expr_from_json(obj: dict) -> RingExpr:
    op = _expect(obj, dict, "ring expression").get("op")
    if op == "const":
        return ConstExpr(element_from_text(obj["value"]))
    if op == "gen":
        return GenExpr(_expect(obj["index"], int, "index"))
    if op == "iord":
        return SosInverseExpr(_sos_from_json(obj["summands"]))
    if op == "icone":
        entries = [(_sos_from_json(t["coeff"]),
                    tuple(_expect(i, int, "an item of factors")
                          for i in _expect(t["factors"], list, "factors")))
                   for t in _objects(obj["entries"], "entries")]
        return ConeInverseExpr(ConeExpr(entries))
    if op == "sum":
        return SumExpr([ring_expr_from_json(a) for a in _expect(obj["args"], list, "args")])
    if op == "prod":
        return ProdExpr([ring_expr_from_json(a) for a in _expect(obj["args"], list, "args")])
    raise EncodingError(f"unknown ring expression op {op!r}")


def _unit_to_json(u: PerturbedUnit) -> dict:
    return {"m": element_to_text(u.m), "a": ring_expr_to_json(u.a)}


def _unit_from_json(obj: dict) -> PerturbedUnit:
    obj = _expect(obj, dict, "unit")
    return PerturbedUnit(element_from_text(obj["m"]), ring_expr_from_json(obj["a"]))


def witness_to_json(w: IntegralityWitness) -> dict:
    monic = None
    if w.monic is not None:
        monic = [{"num": ring_expr_to_json(c.num), "den": _unit_to_json(c.den)} for c in w.monic]
    return {"num": ring_expr_to_json(w.numerator), "den": _unit_to_json(w.denominator), "monic": monic}


def witness_from_json(obj: dict) -> IntegralityWitness:
    obj = _expect(obj, dict, "witness")
    monic = None
    if obj.get("monic") is not None:
        monic = tuple(QuotientCoefficient(ring_expr_from_json(c["num"]), _unit_from_json(c["den"]))
                      for c in _objects(obj["monic"], "monic"))
    return IntegralityWitness(ring_expr_from_json(obj["num"]), _unit_from_json(obj["den"]), monic)


# -- certificates --------------------------------------------------------------------


def certificate_to_json(p: Polynomial, set_descriptor: SetDescriptor,
                        cert: NonnegCertificate) -> dict:
    return {
        "p": poly_to_text(p),
        "set": set_to_json(set_descriptor),
        "r": [rational_to_text(s) for s in cert.r.summands],
        "m": element_to_text(cert.m),
        "h": {"num": poly_to_text(cert.h.num), "den": poly_to_text(cert.h.den)},
        "witness": witness_to_json(cert.witness),
    }


def certificate_from_json(obj: dict):
    """Returns (p, set_descriptor, certificate)."""
    obj = _expect(obj, dict, "certificate")
    p = poly_from_text(obj["p"])
    sd = set_from_json(obj["set"])
    r = SOSExpr([rational_from_text(t) for t in _expect(obj["r"], list, "r")])
    m = element_from_text(obj["m"])
    h_obj = _expect(obj["h"], dict, "h")
    h = RationalFunction(poly_from_text(h_obj["num"]), poly_from_text(h_obj["den"]))
    witness = witness_from_json(obj["witness"])
    return p, sd, NonnegCertificate(r, m, h, witness)
