"""Valuation-defined sets: unit polydiscs, affine module images, strict constraints.

A descriptor carries the generator functions whose integrality cuts the set
out, plus optional strict polynomial constraints (p_i(x) > 0, enforced on
samples by rejection).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .errors import PrecisionExhausted
from .poly import Polynomial, RationalFunction, leading_value
from .sampling import SampleConfig, _rng, generic_residue_point, random_element
from .series import GT, FieldElement, compare_order

BALL = "ball"
AFFINE = "affine"


@dataclass(frozen=True)
class AffineModuleMap:
    """Coordinatewise x_i = center_i + scale_i * y_i with invertible scales."""

    centers: tuple[FieldElement, ...]
    scales: tuple[FieldElement, ...]

    def __post_init__(self):
        if len(self.centers) != len(self.scales):
            raise ValueError("centers/scales arity mismatch")
        for s in self.scales:
            if s.is_visibly_zero():
                raise ValueError("scales must be nonzero")

    @property
    def dimension(self) -> int:
        return len(self.centers)

    def apply(self, point: Sequence[FieldElement]) -> list[FieldElement]:
        return [a + s * y for a, s, y in zip(self.centers, self.scales, point)]


def canonical_variables(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n))


class SetDescriptor:
    """A polydisc or affine-module set, with optional strict constraints."""

    __slots__ = ("kind", "n", "module_map", "strict_constraints")

    def __init__(self, kind: str, n: int | None = None, module_map: AffineModuleMap | None = None,
                 strict_constraints: Optional[Sequence[Polynomial]] = None):
        if kind == BALL:
            if n is None or n < 1:
                raise ValueError("ball descriptor needs a positive dimension")
        elif kind == AFFINE:
            if module_map is None:
                raise ValueError("affine descriptor needs a module map")
            n = module_map.dimension
        else:
            raise ValueError(f"unknown set kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "module_map", module_map)
        normalized = tuple(_normalize_constraint(p, n) for p in strict_constraints) if strict_constraints else ()
        object.__setattr__(self, "strict_constraints", normalized)

    def __setattr__(self, name, value):
        raise AttributeError("SetDescriptor is immutable")

    @staticmethod
    def unit_polydisc(n: int, strict_constraints=None) -> "SetDescriptor":
        return SetDescriptor(BALL, n=n, strict_constraints=strict_constraints)

    @staticmethod
    def affine_module(module_map: AffineModuleMap, strict_constraints=None) -> "SetDescriptor":
        return SetDescriptor(AFFINE, module_map=module_map, strict_constraints=strict_constraints)

    @property
    def has_strict_constraints(self) -> bool:
        return bool(self.strict_constraints)

    def variables(self) -> tuple[str, ...]:
        return canonical_variables(self.n)

    def generators(self) -> list[RationalFunction]:
        """The functions whose integrality defines the set."""
        vs = self.variables()
        gens = []
        for i in range(self.n):
            xi = Polynomial.variable(vs[i], vs)
            if self.kind == BALL:
                gens.append(RationalFunction(xi))
            else:
                a = self.module_map.centers[i]
                s = self.module_map.scales[i]
                num = xi - Polynomial.constant(a, vs)
                den = Polynomial.constant(s, vs)
                gens.append(RationalFunction(num, den))
        return gens

    # -- membership ------------------------------------------------------------

    def contains(self, point: Sequence[FieldElement]) -> bool:
        """Exact membership; strict constraints checked by sign."""
        if len(point) != self.n:
            return False
        for g in self.generators():
            num = g.num.evaluate(point)
            den = g.den.evaluate(point)
            v = num.valuation_lower_bound()
            if v.is_top:
                continue
            dv = den.valuation()
            if v - dv < 0:
                # A finite-precision lower bound below 0 may hide a real term;
                # exact sample points never hit this branch spuriously.
                if not num.terms:
                    raise PrecisionExhausted("membership undecidable at this precision")
                return False
        for p in self.strict_constraints:
            if compare_order(leading_value(p, point), FieldElement.zero()) != GT:
                return False
        return True

    # -- sampling ---------------------------------------------------------------

    def sample_points(self, config: SampleConfig, count: int | None = None,
                      start_index: int = 0) -> list[list[FieldElement]]:
        """Deterministic on-set points: structured probes first, then random.

        Strict constraints are enforced by rejection (skipped draws still
        consume indices, preserving determinism).
        """
        want = config.samples if count is None else count
        structured = list(self.structured_points())
        n_structured = min(len(structured), int(want * config.structured_fraction))
        points = structured[:n_structured]
        out = []
        for pt in points:
            if self._admissible(pt):
                out.append(pt)
        index = start_index
        attempts = 0
        max_attempts = 20 * want + 100
        while len(out) < want and attempts < max_attempts:
            rng = _rng(config.seed, index)
            index += 1
            attempts += 1
            ball_pt = [random_element(rng, config, Fraction(0)) for _ in range(self.n)]
            pt = self._from_ball(ball_pt)
            if self._admissible(pt):
                out.append(pt)
        return out[:want]

    def structured_points(self) -> Iterator[list[FieldElement]]:
        """Corners, eps-power coordinates, and a small rational grid."""
        n = self.n
        one = FieldElement.one()
        eps_pows = [FieldElement.eps_power(k) for k in range(1, 5)]
        rationals = [FieldElement.from_rational(Fraction(a, b))
                     for a, b in ((0, 1), (1, 2), (-1, 2), (2, 1), (-2, 1), (1, 3), (3, 2))]
        corners = []
        for mask in range(2**n):
            corners.append([one if (mask >> i) & 1 == 0 else -one for i in range(n)])
        for pt in corners:
            yield self._from_ball(pt)
        for v in eps_pows:
            for i in range(n):
                base = [FieldElement.from_rational(0)] * n
                base[i] = v
                yield self._from_ball(base)
            yield self._from_ball([v] * n)
        for r in rationals:
            yield self._from_ball([r] * n)
            for i in range(n):
                base = [one] * n
                base[i] = r
                yield self._from_ball(base)
        # mixed: eps-power in one slot, rational elsewhere
        for v in eps_pows[:2]:
            for r in rationals[:3]:
                for i in range(n):
                    base = [r] * n
                    base[i] = v
                    yield self._from_ball(base)

    def generic_residue_points(self, rng, count: int, pool_size: int) -> list[list[FieldElement]]:
        pts = []
        for _ in range(count):
            pts.append(self._from_ball(generic_residue_point(rng, self.n, pool_size)))
        return pts

    def _from_ball(self, point: list[FieldElement]) -> list[FieldElement]:
        if self.kind == BALL:
            return point
        return self.module_map.apply(point)

    def _admissible(self, point: list[FieldElement]) -> bool:
        if not self.strict_constraints:
            return True
        try:
            return self.contains(point)
        except PrecisionExhausted:
            return False

    # -- identity ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SetDescriptor):
            return NotImplemented
        if self.kind != other.kind or self.n != other.n:
            return False
        if len(self.strict_constraints) != len(other.strict_constraints):
            return False
        if self.kind == AFFINE:
            for a, b in zip(self.module_map.centers + self.module_map.scales,
                            other.module_map.centers + other.module_map.scales):
                if not (a - b).is_exact_zero():
                    return False
        return all(p == q for p, q in zip(self.strict_constraints, other.strict_constraints))

    __hash__ = None

    def __repr__(self):
        extra = f", strict={len(self.strict_constraints)}" if self.strict_constraints else ""
        return f"SetDescriptor({self.kind}, n={self.n}{extra})"


def align_polynomial(p: Polynomial, n: int) -> Polynomial:
    """Express a polynomial in the canonical x1..xn frame of an n-dimensional set.

    Canonical names embed by name; other variable names map positionally in
    their natural order.
    """
    vs = canonical_variables(n)
    if p.variables == vs:
        return p
    if len(p.variables) > n:
        raise ValueError(f"expression has {len(p.variables)} variables but the set has {n}")
    if set(p.variables) <= set(vs):
        return p.with_variables(vs)
    terms = {}
    for expv, c in p.terms.items():
        terms[tuple(expv) + (0,) * (n - len(expv))] = c
    return Polynomial(vs, terms)


def align_to_set(q, set_descriptor: "SetDescriptor"):
    """Align a Polynomial or RationalFunction to a set's canonical variables."""
    n = set_descriptor.n
    if isinstance(q, RationalFunction):
        return RationalFunction(align_polynomial(q.num, n), align_polynomial(q.den, n))
    return align_polynomial(q, n)


def _normalize_constraint(p: Polynomial, n: int) -> Polynomial:
    return align_polynomial(p, n)
