"""Integrality of rational functions on valuation-defined sets.

Two deliberately separate semantics are exposed side by side: the exact Gauss
criterion (compare Gauss valuations of numerator and denominator, valid at a
generic point of the polydisc) and a pointwise sampling oracle.  For
non-polynomial functions the two can disagree; neither is silently
substituted for the other (the oracle reads the numerator's Gauss valuation
only as a lower bound of its values).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional, Union

from .errors import DivisionByZero, NotInfinitesimalDefinite, PrecisionExhausted
from .poly import Polynomial, RationalFunction, gauss_valuation, point_form, valuation_at
from .sampling import SampleConfig, _rng
from .series import _EXPONENT_DENOMINATOR_CAP, FieldElement, ValueGroupElement
from .sets import BALL, AffineModuleMap, SetDescriptor, align_to_set

INTEGRAL_BY_GAUSS = "integral_by_gauss"
NOT_INTEGRAL_BY_GAUSS = "not_integral_by_gauss"
COUNTEREXAMPLE_FOUND = "counterexample_found"
NO_COUNTEREXAMPLE_FOUND = "no_counterexample_found"


@dataclass(frozen=True)
class IntegralityVerdict:
    kind: str
    point: Optional[tuple[FieldElement, ...]] = None
    value_valuation: Optional[ValueGroupElement] = None
    samples: int = 0
    skipped: int = 0

    @property
    def found_counterexample(self) -> bool:
        return self.kind == COUNTEREXAMPLE_FOUND


def _as_rational_function(h: Union[Polynomial, RationalFunction]) -> RationalFunction:
    return h if isinstance(h, RationalFunction) else RationalFunction(h)


def generic_type_integral(h: Union[Polynomial, RationalFunction], set_descriptor: SetDescriptor) -> bool:
    """Gauss criterion: integral iff gauss(num) >= gauss(den)."""
    return gauss_gap(h, set_descriptor) >= 0


def gauss_gap(h: Union[Polynomial, RationalFunction], set_descriptor: SetDescriptor) -> ValueGroupElement:
    """The Gauss valuation of h after pullback; negative means not integral.

    Affine modules are pulled back to the unit polydisc first.  Sets with
    strict constraints are outside the Gauss criterion's scope.
    """
    if set_descriptor.has_strict_constraints:
        raise ValueError("the Gauss criterion applies to polydiscs and affine modules only")
    h = align_to_set(_as_rational_function(h), set_descriptor)
    if set_descriptor.kind == "affine":
        h = module_pullback(h, set_descriptor.module_map)
    return gauss_valuation(h)


def pointwise_integral_oracle(h: Union[Polynomial, RationalFunction], set_descriptor: SetDescriptor,
                              config: SampleConfig) -> IntegralityVerdict:
    """Search sampled on-set points for valuation(h(b)) < 0.

    The mix includes structured probes (corners, eps-power coordinates, a
    rational grid), random ball points, and generic-residue points; all
    deterministic under the seed.  Denominator zeros are skipped and counted.
    On an affine set h is tested in its polydisc frame (see polydisc_frame);
    on the polydisc, exact h is read by the Gauss bound of _oracle_valuation.
    """
    h = align_to_set(_as_rational_function(h), set_descriptor)
    h, module_map = polydisc_frame(h, set_descriptor)
    bound = None  # (gauss(num), D): D the lcm of the numerator's eps-exponent denominators
    if (set_descriptor.kind == BALL or module_map is not None) and \
            all(c.precision is None for part in (h.num, h.den) for c in part.terms.values()):
        bound = h.num.gauss_valuation(), lcm(*(w.denominator for c in h.num.terms.values() for w, _ in c.terms))
    tested = 0
    skipped = 0
    for b, form in _oracle_points(set_descriptor, config, module_map is not None):
        try:
            v = _oracle_valuation(h, b, form, bound)
        except (DivisionByZero, PrecisionExhausted):
            skipped += 1
            continue
        tested += 1
        if v is not None and not v.is_top and v.value < 0:
            point = b if module_map is None else module_map.apply(b)
            return IntegralityVerdict(COUNTEREXAMPLE_FOUND, point=tuple(point),
                                      value_valuation=v, samples=tested, skipped=skipped)
    return IntegralityVerdict(NO_COUNTEREXAMPLE_FOUND, samples=tested, skipped=skipped)


def _oracle_valuation(h: RationalFunction, b, form, bound) -> Optional[ValueGroupElement]:
    """valuation_at(h, b, form), or None where the Gauss bound shows it is not negative.

    On the closed unit polydisc an exact numerator has v(num(b)) >= gauss(num),
    so where v(den(b)) <= gauss(num) the numerator is not evaluated.  The
    denominator goes first only where the numerator's evaluation cannot raise
    ExponentBlowup: every exponent of its values lies over lcm(D, the form's
    denominator) (an oracle point's all lie over its form's), within the cap.
    """
    if form is None:
        form = point_form(b)
    if bound is None or form is None or lcm(bound[1], form[0]) > _EXPONENT_DENOMINATOR_CAP:
        return valuation_at(h, b, form)
    den = valuation_at(h.den, b, form)
    if den.is_top:
        raise DivisionByZero("denominator vanishes at the point")
    return None if den <= bound[0] else valuation_at(h.num, b, form) - den


def _oracle_points(set_descriptor: SetDescriptor, config: SampleConfig, on_polydisc: bool):
    """The oracle's (point, form) pairs, drawn as they are taken: the set's sample
    stream, then generic-residue points from their own generator."""
    yield from set_descriptor.stream_forms(config, on_polydisc=on_polydisc)
    rng = _rng(config.seed, 0xC0FFEE)
    for b in set_descriptor.generic_residue_points(rng, max(4, config.samples // 50), 1009, on_polydisc):
        yield b, None


def polydisc_frame(q: Union[Polynomial, RationalFunction], set_descriptor: SetDescriptor):
    """(q', module map or None): the function that sampling tests, and the map
    that takes its points to the set.

    On an affine set, with q aligned to it and q and the map exact, q is
    pulled back once: its value at a polydisc point y is q's at the image of
    y, exactly, so the points are drawn and tested on the polydisc and only a
    reported one goes through the map.  Strict constraints change nothing:
    sampling tests them on the image before it yields y.  Otherwise q and
    None: on a polydisc, and for truncated data, whose precision could
    differ between the two evaluations.
    """
    mm = set_descriptor.module_map
    if set_descriptor.kind != "affine":
        return q, None
    parts = (q,) if isinstance(q, Polynomial) else (q.num, q.den)
    data = [*mm.centers, *mm.scales, *(c for part in parts for c in part.terms.values())]
    if any(c.precision is not None for c in data):
        return q, None
    return module_pullback(q, mm), mm


def module_pullback(h: Union[Polynomial, RationalFunction], module_map: AffineModuleMap):
    """Substitute x_i = center_i + scale_i * y_i; keeps variable names.

    Integrality of h on the module equals integrality of the pullback on the
    unit polydisc.
    """
    vs = h.variables
    if len(vs) != module_map.dimension:
        raise ValueError(f"function arity {len(vs)} != module dimension {module_map.dimension}")
    images = module_map.apply([Polynomial.variable(v, vs) for v in vs])
    if isinstance(h, Polynomial):
        return h.substitute(images)
    return RationalFunction(h.num.substitute(images), h.den.substitute(images))


def infinitesimal_decompose(h: Union[Polynomial, RationalFunction],
                            set_descriptor: SetDescriptor) -> tuple[FieldElement, RationalFunction]:
    """Split h = m * g with m an eps power and g of Gauss valuation zero.

    Requires gauss_valuation(h) > 0 (h maps the polydisc into the
    infinitesimals).  The zero function returns (0, 0).
    """
    if set_descriptor.kind != "ball" or set_descriptor.has_strict_constraints:
        raise ValueError("infinitesimal decomposition is defined on plain polydiscs")
    hr = align_to_set(_as_rational_function(h), set_descriptor)
    g = gauss_valuation(hr)
    if g.is_top:
        return FieldElement.zero(), RationalFunction.constant(0, hr.variables)
    if g.value <= 0:
        raise NotInfinitesimalDefinite(f"gauss valuation {g} is not positive")
    m = FieldElement.eps_power(g.value)
    return m, RationalFunction(hr.num.residue_shift(g.value), hr.den)
