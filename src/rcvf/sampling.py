"""Deterministic, seed-indexed random generation of series and sample points.

Every draw is a pure function of ``(seed, index)``, so parallel consumers can
partition index ranges and still reproduce a run bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .series import FieldElement, ValueGroupElement

Rational = Union[int, Fraction]

_MIX = 0x9E3779B97F4A7C15

_COEFFICIENT_BOUND = 12
_EXPONENT_BOUND = 4


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(((seed * _MIX) ^ (index * 0xBF58476D1CE4E5B9)) & 0xFFFFFFFFFFFFFFFF)


@dataclass(frozen=True)
class SampleConfig:
    """Reproducible sampling parameters; identical config => identical sequence."""

    seed: int
    samples: int = 2000


def _random_rational(rng: random.Random, bound: int, nonzero=False) -> Fraction:
    while True:
        q = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if q != 0 or not nonzero:
            return q


def _random_halves(rng: random.Random, low: int, high: int) -> int:
    # An exponent with denominator 1 or 2 in [low/2, high/2], as its number of halves.
    den = rng.choice((1, 1, 2))
    return rng.randint(low * den // 2, high * den // 2) * (2 // den)


def _exact_element(terms: list[tuple[int, Fraction]]) -> FieldElement:
    """``FieldElement`` of terms given as (halves, coefficient): equal exponents
    merged, zero coefficients dropped, exponents ascending."""
    merged: dict[int, Fraction] = {}
    for h, c in terms:
        merged[h] = merged[h] + c if h in merged else c
    return FieldElement.from_canonical(tuple((Fraction(h, 2), c) for h, c in sorted(merged.items()) if c))


def random_element(rng: random.Random, min_valuation: Fraction = Fraction(0)) -> FieldElement:
    """One exact series with valuation >= min_valuation (or exact zero).

    The kind mix guarantees units with random rational residues, elements of
    strictly positive valuation, and exact rationals all occur.  Exponents are
    drawn as numbers of halves, so the terms are put in canonical form in
    integers and wrapped by the trusted constructor.
    """
    bound = _COEFFICIENT_BOUND
    top = 2 * _EXPONENT_BOUND
    kind = rng.randrange(8)
    if kind == 0:
        terms = [(0, _random_rational(rng, bound))]  # may be 0
    elif kind in (1, 2, 3):
        terms = [(0, _random_rational(rng, bound, nonzero=True))]
        for _ in range(rng.randrange(3)):
            terms.append((_random_halves(rng, 1, top), _random_rational(rng, bound, nonzero=True)))
    elif kind == 4:
        lead = _random_halves(rng, 1, top)
        terms = [(lead, _random_rational(rng, bound, nonzero=True))]
        for _ in range(rng.randrange(2)):
            terms.append((lead + _random_halves(rng, 1, 4), _random_rational(rng, bound, nonzero=True)))
    else:
        terms = []
        for _ in range(rng.randrange(1, 4)):
            terms.append((_random_halves(rng, 0, top), _random_rational(rng, bound, nonzero=True)))
    body = _exact_element(terms)
    if min_valuation == 0:
        return body
    return body * FieldElement.eps_power(min_valuation)


def random_positive_element(rng: random.Random) -> FieldElement:
    """An exact element that is strictly positive in the field order."""
    while True:
        x = random_element(rng)
        if x.is_exact_zero():
            continue
        e0, c0 = x.leading()
        if c0 < 0:
            x = -x
        return x


def sample_ball(n: int, radius: Union[ValueGroupElement, Rational], config: SampleConfig,
                start_index: int = 0) -> list[FieldElement]:
    """n deterministic series with valuation >= radius."""
    if isinstance(radius, ValueGroupElement):
        if radius.is_top:
            raise ValueError("radius must be a rational value")
        radius = radius.value
    radius = Fraction(radius)
    out = []
    for i in range(n):
        rng = _rng(config.seed, start_index + i)
        out.append(random_element(rng, radius))
    return out


def generic_residue_point(rng: random.Random, n: int, pool_size: int) -> list[FieldElement]:
    """A point whose coordinates are nonzero rationals from a large finite pool.

    Large pools make residue-level coincidences (vanishing of a fixed nonzero
    residue polynomial) improbable.
    """
    coords = []
    for _ in range(n):
        num = rng.randint(1, max(2, pool_size))
        den = rng.choice((1, 1, 2, 3, 5, 7))
        coords.append(FieldElement.from_rational(Fraction(num, den)))
    return coords
