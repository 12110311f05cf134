"""Structured certificate expressions over a set's generator family.

The expression tree can denote only elements that are integral on the set by
construction: integral constants, the set's generator functions, inverses of
1 + (sum of squares), inverses of 1 + (cone element), sums and products.
Quotients by perturbed units 1 + m*a (m infinitesimal) extend this to the
localization used by certificate witnesses.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .errors import DivisionByZero, PrecisionExhausted
from .poly import Polynomial, RationalFunction
from .series import FieldElement, TOP, ValueGroupElement
from .sets import SetDescriptor, align_to_set

DEFAULT_CONE_DEGREE_CAP = 8


class SOSExpr:
    """A formal sum of squares: nonempty list of rational-function summands."""

    __slots__ = ("summands",)

    def __init__(self, summands: Sequence[Union[RationalFunction, Polynomial]]):
        if not summands:
            raise ValueError("sum of squares needs at least one summand")
        fixed = tuple(s if isinstance(s, RationalFunction) else RationalFunction(s) for s in summands)
        object.__setattr__(self, "summands", fixed)

    def __setattr__(self, name, value):
        raise AttributeError("SOSExpr is immutable")

    def denote(self) -> RationalFunction:
        total = None
        for s in self.summands:
            sq = s * s
            total = sq if total is None else total + sq
        return total

    def evaluate(self, set_descriptor: SetDescriptor, point: Sequence[FieldElement]) -> FieldElement:
        """Value at a point of the set, summands aligned to the set's variables."""
        total = FieldElement.zero()
        for s in self.summands:
            s = align_to_set(s, set_descriptor)
            num = s.num.evaluate(point)
            den = s.den.evaluate(point)
            if den.is_exact_zero():
                raise DivisionByZero("SOS summand denominator vanishes at the point")
            v = num / den
            total = total + v * v
        return total

    def __repr__(self):
        return f"SOSExpr({list(map(str, self.summands))})"


def verify_sos_expression(target: Union[RationalFunction, Polynomial], r: SOSExpr) -> bool:
    """Exact rational-function identity target == sum of squares."""
    tgt = target if isinstance(target, RationalFunction) else RationalFunction(target)
    return tgt == r.denote()


class ConeExpr:
    """Sum of (sos_coefficient * product of strict-constraint factors)."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[tuple[SOSExpr, Sequence[int]]]):
        fixed = []
        for sos, factors in entries:
            fixed.append((sos, tuple(sorted(int(i) for i in factors))))
        object.__setattr__(self, "entries", tuple(fixed))

    def __setattr__(self, name, value):
        raise AttributeError("ConeExpr is immutable")

    def denote(self, strict: Sequence[Polynomial]) -> RationalFunction:
        total = None
        for sos, factors in self.entries:
            term = sos.denote()
            for i in factors:
                term = term * strict[i]
            total = term if total is None else total + term
        if total is None:
            raise ValueError("empty cone expression")
        return total

    def factor_degree(self, strict: Sequence[Polynomial]) -> int:
        deg = 0
        for _, factors in self.entries:
            deg = max(deg, sum(strict[i].total_degree() for i in factors))
        return deg

    def __repr__(self):
        return f"ConeExpr({len(self.entries)} terms)"


# -- expression tree ----------------------------------------------------------


class RingExpr:
    __slots__ = ()


class ConstExpr(RingExpr):
    __slots__ = ("value",)

    def __init__(self, value: Union[int, Fraction, FieldElement]):
        object.__setattr__(self, "value",
                           value if isinstance(value, FieldElement) else FieldElement.from_rational(value))

    def __setattr__(self, name, value):
        raise AttributeError("immutable")


class GenExpr(RingExpr):
    __slots__ = ("index",)

    def __init__(self, index: int):
        object.__setattr__(self, "index", int(index))

    def __setattr__(self, name, value):
        raise AttributeError("immutable")


class SosInverseExpr(RingExpr):
    """Denotes 1 / (1 + sum of squares)."""

    __slots__ = ("sos",)

    def __init__(self, sos: SOSExpr):
        object.__setattr__(self, "sos", sos)

    def __setattr__(self, name, value):
        raise AttributeError("immutable")


class ConeInverseExpr(RingExpr):
    """Denotes 1 / (1 + cone element); legal only on sets with strict constraints."""

    __slots__ = ("cone",)

    def __init__(self, cone: ConeExpr):
        object.__setattr__(self, "cone", cone)

    def __setattr__(self, name, value):
        raise AttributeError("immutable")


class SumExpr(RingExpr):
    __slots__ = ("args",)

    def __init__(self, args: Sequence[RingExpr]):
        object.__setattr__(self, "args", tuple(args))

    def __setattr__(self, name, value):
        raise AttributeError("immutable")


class ProdExpr(RingExpr):
    __slots__ = ("args",)

    def __init__(self, args: Sequence[RingExpr]):
        object.__setattr__(self, "args", tuple(args))

    def __setattr__(self, name, value):
        raise AttributeError("immutable")


def verify_ring_membership(e: RingExpr, set_descriptor: SetDescriptor,
                           cone_degree_cap: int = DEFAULT_CONE_DEGREE_CAP) -> bool:
    """Every leaf legal for the set: generator indices in range, cone leaves
    only with strict constraints, all constants integral."""
    if isinstance(e, ConstExpr):
        v = e.value.valuation_lower_bound()
        if not v.is_top and v.value < 0:
            try:
                return e.value.valuation() >= 0
            except Exception:
                return False
        return True
    if isinstance(e, GenExpr):
        return 0 <= e.index < set_descriptor.n
    if isinstance(e, SosInverseExpr):
        return True
    if isinstance(e, ConeInverseExpr):
        if not set_descriptor.has_strict_constraints:
            return False
        strict = set_descriptor.strict_constraints
        for _, factors in e.cone.entries:
            if any(i < 0 or i >= len(strict) for i in factors):
                return False
        return e.cone.factor_degree(strict) <= cone_degree_cap
    if isinstance(e, (SumExpr, ProdExpr)):
        return all(verify_ring_membership(a, set_descriptor, cone_degree_cap) for a in e.args)
    return False


def ring_expr_to_rational(e: RingExpr, set_descriptor: SetDescriptor) -> RationalFunction:
    """The rational function denoted by the tree relative to the set's generators."""
    vs = set_descriptor.variables()
    one = RationalFunction.constant(1, vs)
    if isinstance(e, ConstExpr):
        return RationalFunction.constant(e.value, vs)
    if isinstance(e, GenExpr):
        return set_descriptor.generators()[e.index]
    if isinstance(e, SosInverseExpr):
        return one / (one + align_to_set(e.sos.denote(), set_descriptor))
    if isinstance(e, ConeInverseExpr):
        return one / (one + align_to_set(e.cone.denote(set_descriptor.strict_constraints), set_descriptor))
    if isinstance(e, SumExpr):
        total = RationalFunction.constant(0, vs)
        for a in e.args:
            total = total + ring_expr_to_rational(a, set_descriptor)
        return total
    if isinstance(e, ProdExpr):
        total = one
        for a in e.args:
            total = total * ring_expr_to_rational(a, set_descriptor)
        return total
    raise TypeError(f"not a ring expression: {type(e).__name__}")


def eval_ring_expr(e: RingExpr, set_descriptor: SetDescriptor,
                   point: Sequence[FieldElement]) -> FieldElement:
    """Value of the denoted element at a point.

    On-set points always succeed (leaf denominators are 1 + SOS >= 1);
    DivisionByZero is possible only off-set.
    """
    if isinstance(e, ConstExpr):
        return e.value
    if isinstance(e, GenExpr):
        g = set_descriptor.generators()[e.index]
        num = g.num.evaluate(point)
        den = g.den.evaluate(point)
        if den.is_exact_zero():
            raise DivisionByZero("generator denominator vanishes")
        return num / den
    if isinstance(e, SosInverseExpr):
        w = FieldElement.one() + e.sos.evaluate(set_descriptor, point)
        if w.is_exact_zero():
            raise DivisionByZero("1 + SOS vanished (off-set point)")
        return w.invert()
    if isinstance(e, ConeInverseExpr):
        total = FieldElement.one()
        for sos, factors in e.cone.entries:
            term = sos.evaluate(set_descriptor, point)
            for i in factors:
                term = term * set_descriptor.strict_constraints[i].evaluate(point)
            total = total + term
        if total.is_exact_zero():
            raise DivisionByZero("1 + cone element vanished (off-set point)")
        return total.invert()
    if isinstance(e, SumExpr):
        total = FieldElement.zero()
        for a in e.args:
            total = total + eval_ring_expr(a, set_descriptor, point)
        return total
    if isinstance(e, ProdExpr):
        total = FieldElement.one()
        for a in e.args:
            total = total * eval_ring_expr(a, set_descriptor, point)
        return total
    raise TypeError(f"not a ring expression: {type(e).__name__}")


def infinitesimal_or_zero(m: FieldElement) -> bool:
    """m is exactly zero or of positive valuation, as every perturbation m must be.

    An element whose valuation the precision leaves open is refused.
    """
    v = m.valuation_lower_bound()
    if v.is_top or v.value > 0:
        return True
    try:
        return m.valuation() > 0
    except PrecisionExhausted:
        return False


class PerturbedUnit:
    """Denotes 1 + m*a with m infinitesimal (or zero); evaluates to a positive unit on-set."""

    __slots__ = ("m", "a")

    def __init__(self, m: FieldElement, a: RingExpr):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "a", a)

    def __setattr__(self, name, value):
        raise AttributeError("immutable")

    def is_well_formed(self) -> bool:
        return infinitesimal_or_zero(self.m)

    def denote(self, set_descriptor: SetDescriptor) -> RationalFunction:
        vs = set_descriptor.variables()
        one = RationalFunction.constant(1, vs)
        return one + RationalFunction.constant(self.m, vs) * ring_expr_to_rational(self.a, set_descriptor)

    def evaluate(self, set_descriptor: SetDescriptor, point: Sequence[FieldElement]) -> FieldElement:
        return FieldElement.one() + self.m * eval_ring_expr(self.a, set_descriptor, point)

    @staticmethod
    def trivial() -> "PerturbedUnit":
        return PerturbedUnit(FieldElement.zero(), ConstExpr(0))


def polynomial_to_ring_expr(p: Polynomial, set_descriptor: SetDescriptor) -> RingExpr:
    """Encode a polynomial with integral coefficients over the set's coordinates.

    Valid for polydisc generators (coordinate functions); each monomial
    becomes Const * Gen(i)^e products.
    """
    vs = set_descriptor.variables()
    aligned = p.with_variables(vs) if p.variables != vs else p
    terms = []
    for expv, c in aligned.terms.items():
        factors: list[RingExpr] = [ConstExpr(c)]
        for i, e in enumerate(expv):
            factors.extend(GenExpr(i) for _ in range(e))
        terms.append(ProdExpr(factors) if len(factors) > 1 else factors[0])
    if not terms:
        return ConstExpr(0)
    return SumExpr(terms) if len(terms) > 1 else terms[0]
