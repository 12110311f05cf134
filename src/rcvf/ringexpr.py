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

from .poly import Polynomial, RationalFunction, merge_variables
from .rings import FlatRing, holds
from .series import FieldElement
from .sets import SetDescriptor

CONE_DEGREE_CAP = 8  # highest factor degree of a cone-inverse leaf on a set


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

    def denote(self, ring):
        """The sum of the squares of the summands' images in ring.  Each distinct
        summand object is squared once, its square weighted by how often it
        occurs: a decode reads a repeated summand text as one object."""
        squares = {}  # id of a summand -> [its square, its count]
        for s in self.summands:
            seen = squares.get(id(s))
            if seen is None:
                v = ring(s)
                squares[id(s)] = [v * v, 1]
            else:
                seen[1] += 1
        return ring.sum([square if k == 1 else ring(k) * square for square, k in squares.values()])

    def __repr__(self):
        return f"SOSExpr({list(map(str, self.summands))})"


def verify_sos_expression(target: Union[RationalFunction, Polynomial], r: SOSExpr) -> bool:
    """Exact rational-function identity target == sum of squares, in the flat ring; False for inexact data."""
    tgt = target if isinstance(target, RationalFunction) else RationalFunction(target)
    vs = merge_variables(tgt.variables, *(s.variables for s in r.summands))
    ring = FlatRing.over(vs)
    return holds(lambda: ring(tgt) == r.denote(ring))


class ConeExpr:
    """Sum of (sos_coefficient * product of strict-constraint factors)."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[tuple[SOSExpr, Sequence[int]]]):
        fixed = tuple((sos, tuple(sorted(int(i) for i in factors))) for sos, factors in entries)
        object.__setattr__(self, "entries", fixed)

    def __setattr__(self, name, value):
        raise AttributeError("ConeExpr is immutable")

    def denote(self, strict: Sequence[Polynomial], ring):
        """The cone element, built from the images of its parts in ring."""
        if not self.entries:
            raise ValueError("empty cone expression")
        terms = []
        for sos, factors in self.entries:
            term = sos.denote(ring)
            for i in factors:
                term = term * ring(strict[i])
            terms.append(term)
        return ring.sum(terms)

    def factor_degree(self, strict: Sequence[Polynomial]) -> int:
        return max((sum(strict[i].total_degree() for i in factors) for _, factors in self.entries), default=0)

    def __repr__(self):
        return f"ConeExpr({len(self.entries)} terms)"


# -- expression tree ----------------------------------------------------------


class RingExpr:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("immutable")


class ConstExpr(RingExpr):
    __slots__ = ("value",)

    def __init__(self, value: Union[int, Fraction, FieldElement]):
        object.__setattr__(self, "value",
                           value if isinstance(value, FieldElement) else FieldElement.from_rational(value))


class GenExpr(RingExpr):
    __slots__ = ("index",)

    def __init__(self, index: int):
        object.__setattr__(self, "index", int(index))


class SosInverseExpr(RingExpr):
    """Denotes 1 / (1 + sum of squares)."""

    __slots__ = ("sos",)

    def __init__(self, sos: SOSExpr):
        object.__setattr__(self, "sos", sos)


class ConeInverseExpr(RingExpr):
    """Denotes 1 / (1 + cone element); legal only on sets with strict constraints."""

    __slots__ = ("cone",)

    def __init__(self, cone: ConeExpr):
        object.__setattr__(self, "cone", cone)


class SumExpr(RingExpr):
    __slots__ = ("args",)

    def __init__(self, args: Sequence[RingExpr]):
        object.__setattr__(self, "args", tuple(args))


class ProdExpr(RingExpr):
    __slots__ = ("args",)

    def __init__(self, args: Sequence[RingExpr]):
        object.__setattr__(self, "args", tuple(args))


def verify_ring_membership(e: RingExpr, set_descriptor: SetDescriptor) -> bool:
    """Every leaf legal for the set: generator indices in range, cone leaves
    only with strict constraints, all constants integral."""
    if isinstance(e, ConstExpr):
        return e.value.valuation_lower_bound() >= 0
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
        return e.cone.factor_degree(strict) <= CONE_DEGREE_CAP
    if isinstance(e, (SumExpr, ProdExpr)):
        return all(verify_ring_membership(a, set_descriptor) for a in e.args)
    return False


def leaf_summands(e: RingExpr):
    """Each leaf's summands, left to right with nothing built: an SOSExpr's, or
    all of a ConeExpr's entries' together, in order."""
    if isinstance(e, SosInverseExpr):
        yield e.sos.summands
    elif isinstance(e, ConeInverseExpr):
        yield [s for sos, _ in e.cone.entries for s in sos.summands]
    elif isinstance(e, (SumExpr, ProdExpr)):
        for a in e.args:
            yield from leaf_summands(a)


def ring_expr_to_rational(e: RingExpr, set_descriptor: SetDescriptor, ring):
    """The value the tree denotes in ring, relative to the set's generators.

    ring is a FlatRing over the set's coordinates, where certificate
    identities are checked and a leaf without an image raises NotFlat.  The
    ring denotes each node object once (FlatRing.once), so a subtree a decode
    shared is denoted once.  A leaf's summands are read through the ring's
    name table, as every value the ring maps is.
    """
    return ring.once(e, lambda e: _denote(e, set_descriptor, ring))


def _denote(e: RingExpr, set_descriptor: SetDescriptor, ring):
    """The value of e in ring, each subtree through ring_expr_to_rational."""
    if isinstance(e, ConstExpr):
        return ring(e.value)
    if isinstance(e, GenExpr):
        return ring(set_descriptor.generators()[e.index])
    if isinstance(e, SosInverseExpr):
        one = ring(1)
        return one / (one + e.sos.denote(ring))
    if isinstance(e, ConeInverseExpr):
        one = ring(1)
        return one / (one + e.cone.denote(set_descriptor.strict_constraints, ring))
    if isinstance(e, SumExpr):
        return ring.sum([ring_expr_to_rational(a, set_descriptor, ring) for a in e.args] or [ring(0)])
    if isinstance(e, ProdExpr):
        total = ring(1)
        for a in e.args:
            total = total * ring_expr_to_rational(a, set_descriptor, ring)
        return total
    raise TypeError(f"not a ring expression: {type(e).__name__}")


def infinitesimal_or_zero(m: FieldElement) -> bool:
    """m is exactly zero or of positive valuation, as every perturbation m must be.

    An element whose valuation the precision leaves open is refused.
    """
    return m.valuation_lower_bound() > 0


class PerturbedUnit:
    """Denotes 1 + m*a with m infinitesimal (or zero); evaluates to a positive unit on-set."""

    __slots__ = ("m", "a")

    def __init__(self, m: FieldElement, a: RingExpr):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "a", a)

    __setattr__ = RingExpr.__setattr__

    def is_well_formed(self) -> bool:
        return infinitesimal_or_zero(self.m)

    def denote(self, set_descriptor: SetDescriptor, ring):
        """1 + m*a in ring (see ring_expr_to_rational)."""
        return ring(1) + ring(self.m) * ring_expr_to_rational(self.a, set_descriptor, ring)

    @staticmethod
    def trivial() -> "PerturbedUnit":
        return PerturbedUnit(FieldElement.zero(), ConstExpr(0))


def polynomial_to_ring_expr(p: Polynomial, set_descriptor: SetDescriptor) -> RingExpr:
    """Encode a polynomial with integral coefficients over the set's coordinates.

    Valid for polydisc generators (coordinate functions); each monomial
    becomes Const * Gen(i)^e products.
    """
    vs = set_descriptor.variables()
    aligned = p.with_variables(vs)
    terms = []
    for expv, c in aligned.terms.items():
        factors: list[RingExpr] = [ConstExpr(c)]
        for i, e in enumerate(expv):
            factors.extend(GenExpr(i) for _ in range(e))
        terms.append(ProdExpr(factors) if len(factors) > 1 else factors[0])
    if not terms:
        return ConstExpr(0)
    return SumExpr(terms) if len(terms) > 1 else terms[0]
