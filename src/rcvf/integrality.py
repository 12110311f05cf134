"""Integrality of rational functions on valuation-defined sets.

Two deliberately separate semantics are exposed side by side: the exact Gauss
criterion (compare Gauss valuations of numerator and denominator, valid at a
generic point of the polydisc) and a pointwise sampling oracle.  For
non-polynomial functions the two can disagree; neither is silently
substituted for the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import DivisionByZero, NotInfinitesimalDefinite, PrecisionExhausted
from .poly import Polynomial, RationalFunction, gauss_valuation
from .sampling import SampleConfig, _rng
from .series import FieldElement, ValueGroupElement
from .sets import AffineModuleMap, SetDescriptor, align_to_set

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
    """
    h = align_to_set(_as_rational_function(h), set_descriptor)
    points = set_descriptor.sample_points(config)
    rng = _rng(config.seed, 0xC0FFEE)
    points += set_descriptor.generic_residue_points(rng, max(4, config.samples // 50), 1009)
    tested = 0
    skipped = 0
    for b in points:
        try:
            num = h.num.evaluate(b)
            den = h.den.evaluate(b)
            if den.is_exact_zero():
                skipped += 1
                continue
            v = num.valuation() - den.valuation()
        except (DivisionByZero, PrecisionExhausted):
            skipped += 1
            continue
        tested += 1
        if not v.is_top and v.value < 0:
            return IntegralityVerdict(COUNTEREXAMPLE_FOUND, point=tuple(b),
                                      value_valuation=v, samples=tested, skipped=skipped)
    return IntegralityVerdict(NO_COUNTEREXAMPLE_FOUND, samples=tested, skipped=skipped)


def module_pullback(h: Union[Polynomial, RationalFunction], module_map: AffineModuleMap):
    """Substitute x_i = center_i + scale_i * y_i; keeps variable names.

    Integrality of h on the module equals integrality of the pullback on the
    unit polydisc.
    """
    poly_input = isinstance(h, Polynomial)
    hr = _as_rational_function(h)
    vs = hr.variables
    if len(vs) != module_map.dimension:
        raise ValueError(f"function arity {len(vs)} != module dimension {module_map.dimension}")
    images = []
    for i, v in enumerate(vs):
        xi = Polynomial.variable(v, vs)
        images.append(Polynomial.constant(module_map.centers[i], vs) + xi.scale(module_map.scales[i]))
    num = hr.num.substitute(images)
    den = hr.den.substitute(images)
    if poly_input:
        return num if den.is_constant() and den.constant_value() == FieldElement.one() else RationalFunction(num, den)
    return RationalFunction(num, den)


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
    scaled_num = hr.num.scale_coefficients(lambda c: c * FieldElement.eps_power(-g.value))
    return m, RationalFunction(scaled_num, hr.den)
