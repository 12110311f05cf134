"""Canonical JSON encoding of sets, ring expressions and certificates.

Dumps are canonical (sorted keys, compact separators), so serialize ->
parse -> serialize is byte-identical.  Only exact values are serializable;
a truncated element has no text form and is rejected.
"""

from __future__ import annotations

import json

from .errors import RcvfError
from .parser import _MAX_NESTING, parse_expression
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


def load(fh):
    """json.load; a document nested past the interpreter's stack is an EncodingError."""
    try:
        return json.load(fh)
    except RecursionError:
        raise EncodingError("JSON document nested too deeply to load") from None


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def pretty_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _expect(obj, what: str, kind: type):
    """obj, the value at the path what, when it has the JSON type kind, else
    EncodingError.  Readers check every node: a string where a list belongs
    would be iterated, and int() would read 0.9 or true as an index."""
    if not isinstance(obj, kind) or isinstance(obj, bool):
        raise EncodingError(f"{what} must be {_JSON_TYPES[kind]} in JSON, got {type(obj).__name__}")
    return obj


# -- scalars, polynomials and quotients --------------------------------------------


def element_to_text(x: FieldElement) -> str:
    if x.precision is not None:
        raise EncodingError("cannot serialize a truncated element")
    return str(x)


def poly_to_text(p: Polynomial) -> str:
    for c in p.terms.values():
        if c.precision is not None:
            raise EncodingError("cannot serialize a polynomial with truncated coefficients")
    return str(p)


def rational_to_text(rf: RationalFunction) -> str:
    poly_to_text(rf.num), poly_to_text(rf.den)  # exactness check
    return str(rf)


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
    if s.given_constraints:
        out["strict"] = [poly_to_text(p) for p in s.given_constraints]
    return out


def set_from_json(obj: dict) -> SetDescriptor:
    """A set; unlike a certificate's values, its values may be truncated."""
    return _Reader().set(obj, "set")


# -- ring expressions --------------------------------------------------------------


def _sos_to_json(sos: SOSExpr) -> list:
    return [{"num": poly_to_text(s.num), "den": poly_to_text(s.den)} for s in sos.summands]


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
    return _Reader().ring_expr(obj, "expression")


def _unit_to_json(u: PerturbedUnit) -> dict:
    return {"m": element_to_text(u.m), "a": ring_expr_to_json(u.a)}


def witness_to_json(w: IntegralityWitness) -> dict:
    monic = None
    if w.monic is not None:
        monic = [{"num": ring_expr_to_json(c.num), "den": _unit_to_json(c.den)} for c in w.monic]
    return {"num": ring_expr_to_json(w.numerator), "den": _unit_to_json(w.denominator), "monic": monic}


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
    return _Reader().certificate(obj)


# -- reading ---------------------------------------------------------------------------


def _field(obj: dict, key: str, path: str = "") -> tuple:
    """(obj[key], its path), obj being the object at path; EncodingError naming
    that path when the field is missing."""
    at = f"{path}.{key}" if path else key
    if key not in obj:
        raise EncodingError(f"missing field {at}")
    return obj[key], at


def _truncated(v) -> bool:
    """Whether a parsed value has a truncated coefficient."""
    if isinstance(v, FieldElement):
        return v.precision is not None
    parts = (v.num, v.den) if isinstance(v, RationalFunction) else (v,)
    return any(c.precision is not None for part in parts for c in part.terms.values())


def as_polynomial(v, text: str, where: str) -> Polynomial:
    """The polynomial that v, parsed from text at where (a JSON path or a CLI
    option), denotes: a scalar is a constant, and a quotient by an exact
    constant monomial is scaled; any other quotient is an EncodingError."""
    if isinstance(v, FieldElement):
        return Polynomial.constant(v)
    if isinstance(v, RationalFunction):
        if not v.den.is_constant():
            raise EncodingError(f"{where}: expected a polynomial, got a quotient: {text!r}")
        c = v.den.constant_value()
        if len(c.terms) != 1:
            raise EncodingError(f"{where}: non-monomial constant denominator in {text!r}")
        return v.num.scale(c.invert())
    return v


def _items(obj, path: str, kind: type | None = None) -> list:
    """(item, its path) for each item of the list at path; each item checked
    to be of the JSON type kind, if given."""
    items = [(item, f"{path}[{i}]") for i, item in enumerate(_expect(obj, path, list))]
    return items if kind is None else [(_expect(item, at, kind), at) for item, at in items]


def _sum_of_squares(summands: list, path: str) -> SOSExpr:
    if not summands:
        raise EncodingError(f"{path} must hold at least one summand")
    return SOSExpr(summands)


class _Reader:
    """Reads the values of one JSON document.

    Each distinct expression text is parsed once, and its polynomial built
    once: a unit certificate repeats p as h.den and the leaf 1/(1+S) of its
    witness.  Identical ring-expression subtrees decode to one object, keyed
    bottom-up by the op, the index or texts of a leaf and the objects of a
    node's children, so a ring that denotes each object once denotes each
    distinct subtree once.  The memos live as long as the reader, and a reader
    serves one call.  Errors name the path of the field at fault, such as
    ``witness.num.args[1].value``.
    """

    def __init__(self):
        # text -> [parsed value, whether it is truncated, its polynomial once poly() has read it]
        self.parsed = {}
        self.nodes = {}  # key -> the one summand, sum of squares or ring expression decoded under it

    def _parse(self, text, path: str, exact: bool):
        """The parsed value; with exact, EncodingError if it has a truncated
        coefficient (a division by a multi-term scalar), since a certificate
        holds exact data only."""
        return self._entry(text, path, exact)[0]

    def _entry(self, text, path: str, exact: bool) -> list:
        """The memo entry of text, [parsed value, truncated, polynomial or None],
        each distinct text scanned for truncation once; see _parse."""
        text = _expect(text, path, str)
        entry = self.parsed.get(text)
        if entry is None:
            v = parse_expression(text)
            entry = self.parsed[text] = [v, _truncated(v), None]
        if exact and entry[1]:
            raise EncodingError(f"inexact coefficient in {path} {text!r}: a certificate holds exact values only")
        return entry

    def _node(self, key: tuple, build):
        """The object decoded under key, built by build() the first time."""
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = build()
        return node

    def element(self, text, path: str, exact: bool = True) -> FieldElement:
        v = self._parse(text, path, exact)
        if not isinstance(v, FieldElement):
            raise EncodingError(f"{path}: expected a scalar, got {type(v).__name__}: {text!r}")
        return v

    def poly(self, text, path: str, exact: bool = True) -> Polynomial:
        entry = self._entry(text, path, exact)
        if entry[2] is None:
            entry[2] = as_polynomial(entry[0], text, path)
        return entry[2]

    def rational(self, text, path: str) -> RationalFunction:
        v = self._parse(text, path, True)
        if isinstance(v, FieldElement):
            return RationalFunction.constant(v)
        if isinstance(v, Polynomial):
            return RationalFunction(v)
        return v

    def set(self, obj, path: str) -> SetDescriptor:
        obj = _expect(obj, path, dict)
        strict = [self.poly(t, at, exact=False) for t, at in _items(obj.get("strict", []), f"{path}.strict")] or None
        kind, _ = _field(obj, "kind", path)
        if kind == "ball":
            return SetDescriptor.unit_polydisc(_expect(*_field(obj, "n", path), int), strict)
        if kind == "affine":
            centers, scales = (tuple(self.element(t, at, exact=False) for t, at in _items(*_field(obj, key, path)))
                               for key in ("centers", "scales"))
            return SetDescriptor.affine_module(AffineModuleMap(centers, scales), strict)
        raise EncodingError(f"unknown set kind {kind!r} at {path}.kind")

    def sos(self, obj, path: str) -> SOSExpr:
        key, summands = ["sos"], []
        for it, at in _items(obj, path, dict):
            num, den = (self.poly(*_field(it, field, at)) for field in ("num", "den"))
            texts = it["num"], it["den"]
            summands.append(self._node(("quotient", *texts), lambda: RationalFunction(num, den)))
            key += texts
        return self._node(tuple(key), lambda: _sum_of_squares(summands, path))

    def ring_expr(self, obj, path: str, depth: int = 0) -> RingExpr:
        """The expression at path, depth sums and products below the outermost
        one; as in expression texts, nesting deeper than _MAX_NESTING is refused."""
        if depth > _MAX_NESTING:
            raise EncodingError(f"ring expression nested deeper than {_MAX_NESTING} at {path}")
        op, _ = _field(_expect(obj, path, dict), "op", path)
        if op == "const":
            text, at = _field(obj, "value", path)
            value = self.element(text, at)
            return self._node((op, text), lambda: ConstExpr(value))
        if op == "gen":
            index = _expect(*_field(obj, "index", path), int)
            return self._node((op, index), lambda: GenExpr(index))
        if op == "iord":
            sos = self.sos(*_field(obj, "summands", path))
            return self._node((op, sos), lambda: SosInverseExpr(sos))
        if op == "icone":
            entries = tuple((self.sos(*_field(t, "coeff", at)),
                             tuple(i for i, _ in _items(*_field(t, "factors", at), int)))
                            for t, at in _items(*_field(obj, "entries", path), dict))
            return self._node((op, entries), lambda: ConeInverseExpr(ConeExpr(entries)))
        if op in ("sum", "prod"):
            args = tuple(self.ring_expr(a, at, depth + 1) for a, at in _items(*_field(obj, "args", path)))
            return self._node((op, args), lambda: SumExpr(args) if op == "sum" else ProdExpr(args))
        raise EncodingError(f"unknown ring expression op {op!r} at {path}.op")

    def unit(self, obj, path: str) -> PerturbedUnit:
        obj = _expect(obj, path, dict)
        return PerturbedUnit(self.element(*_field(obj, "m", path)), self.ring_expr(*_field(obj, "a", path)))

    def witness(self, obj, path: str) -> IntegralityWitness:
        obj = _expect(obj, path, dict)
        monic = None
        if obj.get("monic") is not None:
            monic = tuple(QuotientCoefficient(self.ring_expr(*_field(c, "num", at)), self.unit(*_field(c, "den", at)))
                          for c, at in _items(obj["monic"], f"{path}.monic", dict))
        return IntegralityWitness(self.ring_expr(*_field(obj, "num", path)), self.unit(*_field(obj, "den", path)),
                                  monic)

    def certificate(self, obj):
        obj = _expect(obj, "certificate", dict)
        p = self.poly(*_field(obj, "p"))
        sd = self.set(*_field(obj, "set"))
        r = _sum_of_squares([self.rational(t, at) for t, at in _items(*_field(obj, "r"))], "r")
        m = self.element(*_field(obj, "m"))
        h_obj = _expect(*_field(obj, "h"), dict)
        h = RationalFunction(self.poly(*_field(h_obj, "num", "h")), self.poly(*_field(h_obj, "den", "h")))
        return p, sd, NonnegCertificate(r, m, h, self.witness(*_field(obj, "witness")))

