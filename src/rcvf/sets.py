"""Valuation-defined sets: unit polydiscs, affine module images, strict constraints.

A descriptor carries the generator functions whose integrality cuts the set
out, plus optional strict polynomial constraints (p_i(x) > 0, enforced on
samples by rejection).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from typing import Iterator, Optional, Sequence

from .errors import PrecisionExhausted
from .poly import Polynomial, RationalFunction, leading_sign, merge_variables, point_form
from .sampling import SampleConfig, generic_residue_point, random_element, reseeded
from .series import GT, FieldElement

BALL = "ball"
AFFINE = "affine"

_STRUCTURED_FRACTION = Fraction(1, 4)


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

    def apply(self, point: Sequence) -> list:
        """The image of a point; its coordinates may be polynomials, whose
        images a pullback substitutes."""
        return [a + s * y for a, s, y in zip(self.centers, self.scales, point)]


def canonical_variables(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n))


def name_table(own: tuple, *layers) -> dict:
    """The name table of values read on a set whose names are own (x1..xn):
    each variable name -> the set coordinate it reads as.

    The set's names name themselves.  Each layer is a list of the name sets of
    its values; the other names a layer brings take the next coordinates, in
    natural order, after the names of earlier layers.  A value that mixes the
    set's names with other names is refused, as x2 could then mean x1 in one
    value and x2 in another; so is a name whose coordinate the set has no
    room for.
    """
    order = [*dict.fromkeys(v for layer in layers for v in merge_variables(*layer) if v not in own)]
    for used in chain.from_iterable(layers):
        if used.issubset(own):
            continue
        mixed = not used.isdisjoint(own)
        frame = merge_variables(used) if mixed else order[:1 + max(map(order.index, used))]
        if len(frame) > len(own):
            raise ValueError(f"expression has {len(frame)} variables but the set has {len(own)}")
        if mixed:
            raise ValueError(f"variables {frame} mix the set's names {own} with other names")
    return {**dict(zip(own, own)), **dict(zip(order, own))}


class SetDescriptor:
    """A polydisc or affine-module set, with optional strict constraints."""

    # given_constraints: the strict constraints in their own names, which are read
    # together as the first layer of the set's name table (see name_table), before
    # any other value, and written out by jsonio so that the table survives a round trip.
    # _generators: the generator functions, built by the first generators() call.
    __slots__ = ("kind", "n", "module_map", "strict_constraints", "given_constraints", "_generators")

    def __init__(self, kind: str, n: int | None = None, module_map: AffineModuleMap | None = None,
                 strict_constraints: Optional[Sequence[Polynomial]] = None):
        if kind == AFFINE:
            if module_map is None:
                raise ValueError("affine descriptor needs a module map")
            n = module_map.dimension
        elif kind != BALL:
            raise ValueError(f"unknown set kind {kind!r}")
        if n is None or n < 1:
            raise ValueError(f"{kind} descriptor needs a positive dimension")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "module_map", module_map)
        object.__setattr__(self, "given_constraints", tuple(strict_constraints or ()))
        object.__setattr__(self, "strict_constraints", tuple(align_to_set(p, self) for p in self.given_constraints))

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

    def read_names(self, *layers) -> dict:
        """The set's name table extended by layers (see name_table)."""
        return name_table(self.variables(), [set(p.variables) for p in self.given_constraints], *layers)

    def generators(self) -> tuple[RationalFunction, ...]:
        """The functions whose integrality defines the set."""
        try:
            return self._generators
        except AttributeError:
            pass
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
        gens = tuple(gens)
        object.__setattr__(self, "_generators", gens)
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
            if leading_sign(p, point) != GT:
                return False
        return True

    # -- sampling ---------------------------------------------------------------

    def sample_points(self, config: SampleConfig, count: int | None = None) -> list[list[FieldElement]]:
        """The points of ``stream_forms``, as a list."""
        return [x for x, _ in self.stream_forms(config, count)]

    def stream_forms(self, config: SampleConfig, count: int | None = None,
                     on_polydisc: bool = False) -> Iterator[tuple[list[FieldElement], Optional[tuple]]]:
        """Deterministic on-set points, each with its integer initial form
        (``poly.point_form``), built as they are taken: structured probes first
        (at most a quarter of the count), then random ones.  A random point's
        form comes straight from its draws, a structured point's from the
        probe table.

        Strict constraints are enforced by rejection (skipped draws still
        consume indices, preserving determinism).  A consumer that stops early
        draws nothing past the last point it took.

        With on_polydisc, the point is the polydisc point whose image under the
        module map is the set's point (the point itself on a polydisc).
        Without it, an affine set's points are the images, and their form is
        None: the sign kernel derives it.
        """
        if self.kind == AFFINE and not on_polydisc:
            for _, _, x in self._stream(config, count, images=True):
                yield x, None
        else:
            for y, form, _ in self._stream(config, count, images=False):
                yield y, form

    def _stream(self, config: SampleConfig, count: int | None, images: bool):
        """(polydisc point, its form, image) per sampled point.  Each point is
        mapped at most once: when images are asked for or strict constraints
        test them, else the image is None."""
        want = config.samples if count is None else count
        if want <= 0:
            return
        strict = self.has_strict_constraints
        # At most a quarter of the count is structured, so only drawn points can complete it.
        structured = islice(_probes(self.n), int(want * _STRUCTURED_FRACTION))
        candidates = chain(((list(y), form) for y, form in structured), self._drawn(config.seed, 20 * want + 100))
        taken = 0
        for y, form in candidates:
            x = self._from_ball(y) if images or strict else None
            if strict and not self._admissible(x):
                continue
            yield y, form, x
            taken += 1
            if taken == want:
                return

    def _drawn(self, seed: int, count: int) -> Iterator[tuple[list[FieldElement], tuple]]:
        """The random polydisc points of indices 0..count-1, each with its form,
        drawn by one generator reseeded per index."""
        n = self.n
        for rng in reseeded(seed, count):
            draws = [random_element(rng, form=True) for _ in range(n)]
            yield [x for x, _ in draws], (2, [f for _, f in draws])

    def structured_points(self) -> Iterator[list[FieldElement]]:
        """Corners, eps-power coordinates, and a small rational grid."""
        for y, _ in _probes(self.n):
            yield self._from_ball(list(y))

    def generic_residue_points(self, rng, count: int, pool_size: int,
                               on_polydisc: bool = False) -> list[list[FieldElement]]:
        """Points with coordinates from a large rational pool; with on_polydisc,
        an affine set's polydisc points rather than their images (as in stream_forms)."""
        pts = [generic_residue_point(rng, self.n, pool_size) for _ in range(count)]
        return pts if on_polydisc else [self._from_ball(y) for y in pts]

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
        # The constraints must agree, and so must the names the set reads other values through.
        return all(p == q for p, q in zip(self.strict_constraints, other.strict_constraints)) and \
            self.read_names() == other.read_names()

    __hash__ = None

    def __repr__(self):
        extra = f", strict={len(self.strict_constraints)}" if self.strict_constraints else ""
        return f"SetDescriptor({self.kind}, n={self.n}{extra})"


# The structured probes of each dimension as (point, form) rows, form being the
# point's point_form: a pure function of n, so each row is built once and kept.
# A table grows only as far as a stream has read it (the corners alone are 2^n).
_PROBES: dict[int, tuple[list, Iterator[list[FieldElement]]]] = {}


def _probes(n: int) -> Iterator[tuple[tuple[FieldElement, ...], tuple]]:
    """The rows of the probe table of dimension n, in order."""
    rows, source = _PROBES.get(n) or _PROBES.setdefault(n, ([], _structured_ball_points(n)))
    index = 0
    while True:
        if index == len(rows):
            y = next(source, None)
            if y is None:
                return
            den, coords = point_form(y)
            rows.append((tuple(y), (den, tuple(coords))))
        yield rows[index]
        index += 1


def _structured_ball_points(n: int) -> Iterator[list[FieldElement]]:
    """The structured probes of the unit polydisc in n dimensions, in order."""
    one, zero = FieldElement.one(), FieldElement.zero()
    minus_one = -one
    eps_pows = [FieldElement.eps_power(k) for k in range(1, 5)]
    rationals = [FieldElement.from_rational(Fraction(a, b))
                 for a, b in ((0, 1), (1, 2), (-1, 2), (2, 1), (-2, 1), (1, 3), (3, 2))]
    for mask in range(2**n):
        yield [one if (mask >> i) & 1 == 0 else minus_one for i in range(n)]
    for v in eps_pows:
        for i in range(n):
            base = [zero] * n
            base[i] = v
            yield base
        yield [v] * n
    for r in rationals:
        yield [r] * n
        for i in range(n):
            base = [one] * n
            base[i] = r
            yield base
    # mixed: eps-power in one slot, rational elsewhere
    for v in eps_pows[:2]:
        for r in rationals[:3]:
            for i in range(n):
                base = [r] * n
                base[i] = v
                yield base


def align_to_set(q, set_descriptor: "SetDescriptor"):
    """A Polynomial or RationalFunction in the set's names x1..xn, each of its
    names read through the set's name table; q itself when it is in them."""
    own = set_descriptor.variables()
    if q.variables == own:
        return q
    return q.with_variables(own, set_descriptor.read_names([set(q.variables)]))
