"""Deterministic, seed-indexed random generation of series and sample points.

Every draw is a pure function of ``(seed, index)``, so parallel consumers can
partition index ranges and still reproduce a run bit-for-bit.  A generator
depends on nothing but the state it is seeded with (``_state``): a new one
(``_rng``) and one reseeded for each index in turn (``reseeded``) give the
same draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from _random import Random as _BaseRandom

from .series import FieldElement, ValueGroupElement

Rational = Union[int, Fraction]

_MIX = 0x9E3779B97F4A7C15

_COEFFICIENT_BOUND = 12
_EXPONENT_BOUND = 4


def _state(seed: int, index: int) -> int:
    """The 64-bit seed of the generator of (seed, index)."""
    return ((seed * _MIX) ^ (index * 0xBF58476D1CE4E5B9)) & 0xFFFFFFFFFFFFFFFF


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(_state(seed, index))


def reseeded(seed: int, count: int) -> Iterator[random.Random]:
    """One generator, in the state of ``_rng(seed, index)`` for index 0..count-1 in turn.

    ``random.Random(x)`` for an int x is the base class's ``seed(x)`` plus
    ``gauss_next = None``, which only ``gauss`` reads; so reseeding through the
    base class gives the draws of a new generator without building one.
    """
    rng = random.Random()
    seed_state = _BaseRandom.seed
    for index in range(count):
        seed_state(rng, _state(seed, index))
        yield rng


@dataclass(frozen=True)
class SampleConfig:
    """Reproducible sampling parameters; identical config => identical sequence."""

    seed: int
    samples: int = 2000


# Every draw below is made as ``random.Random`` makes it (randint, randrange and
# choice all reduce to one rejection loop on getrandbits), so the stream of a
# seed is that of the random module; _below skips only its argument checks.
def _below(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)``: getrandbits of n's bit length, redrawn at n or above."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


_BOUND_BITS = (2 * _COEFFICIENT_BOUND + 1).bit_length(), _COEFFICIENT_BOUND.bit_length()
# Fraction(a, b) for every coefficient draw, at index (a + bound) * bound + b - 1.
_COEFFICIENTS = tuple(Fraction(a, b) for a in range(-_COEFFICIENT_BOUND, _COEFFICIENT_BOUND + 1)
                      for b in range(1, _COEFFICIENT_BOUND + 1))
# Fraction(h, 2) for every exponent a draw can reach, in halves (at most 3 * _EXPONENT_BOUND).
_HALVES = tuple(Fraction(h, 2) for h in range(4 * _EXPONENT_BOUND + 1))


def _random_coefficient(rng: random.Random, nonzero: bool = False) -> Fraction:
    """``Fraction(rng.randint(-12, 12), rng.randint(1, 12))``, redrawn while 0 if nonzero."""
    bound = _COEFFICIENT_BOUND
    a_bits, b_bits = _BOUND_BITS
    getrandbits = rng.getrandbits
    while True:
        a = getrandbits(a_bits)
        while a > 2 * bound:
            a = getrandbits(a_bits)
        b = getrandbits(b_bits)
        while b >= bound:
            b = getrandbits(b_bits)
        if a != bound or not nonzero:
            return _COEFFICIENTS[a * bound + b]


def _random_halves(rng: random.Random, low: int, high: int) -> int:
    # An exponent with denominator 1 or 2 in [low/2, high/2], as its number of halves:
    # rng.choice((1, 1, 2)), then rng.randint over the exponents of that denominator.
    if _below(rng, 3) < 2:
        return (low // 2 + _below(rng, high // 2 - low // 2 + 1)) * 2
    return low + _below(rng, high - low + 1)


def _random_terms(rng: random.Random) -> list[tuple[int, Fraction]]:
    """The terms of one draw as (halves, coefficient): equal exponents merged,
    zero coefficients dropped, exponents ascending."""
    top = 2 * _EXPONENT_BOUND
    kind = _below(rng, 8)
    if kind == 0:
        c = _random_coefficient(rng)  # may be 0
        return [(0, c)] if c else []
    if kind in (1, 2, 3):
        terms = [(0, _random_coefficient(rng, nonzero=True))]
        for _ in range(_below(rng, 3)):
            terms.append((_random_halves(rng, 1, top), _random_coefficient(rng, nonzero=True)))
    elif kind == 4:
        lead = _random_halves(rng, 1, top)
        terms = [(lead, _random_coefficient(rng, nonzero=True))]
        for _ in range(_below(rng, 2)):
            terms.append((lead + _random_halves(rng, 1, 4), _random_coefficient(rng, nonzero=True)))
    else:
        terms = []
        for _ in range(1 + _below(rng, 3)):
            terms.append((_random_halves(rng, 0, top), _random_coefficient(rng, nonzero=True)))
    if len(terms) == 1:
        return terms
    merged: dict[int, Fraction] = {}
    for h, c in terms:
        merged[h] = merged[h] + c if h in merged else c
    return [(h, c) for h, c in sorted(merged.items()) if c]


def random_element(rng: random.Random, min_valuation: Rational = 0, form: bool = False):
    """One exact series with valuation >= min_valuation (or exact zero).

    The kind mix guarantees units with random rational residues, elements of
    strictly positive valuation, and exact rationals all occur.  Exponents are
    drawn as numbers of halves, so the terms are put in canonical form in
    integers and wrapped by the trusted constructor.

    With form, returns (element, its initial form), and raises ValueError
    unless min_valuation is 0.  The form is (v, n, q, g) with n/q its leading
    coefficient, v its leading exponent and g the gap to its next term (None
    if there is none), both in halves; None for an exact zero.  This is a
    coordinate of a ``poly.point_form`` over 2.
    """
    if form and min_valuation != 0:
        raise ValueError("an initial form is drawn only at min_valuation 0")
    terms = _random_terms(rng)
    body = FieldElement.from_canonical(tuple((_HALVES[h], c) for h, c in terms))
    if form:
        if not terms:
            return body, None
        v, a = terms[0]
        return body, (v, a.numerator, a.denominator, terms[1][0] - v if len(terms) > 1 else None)
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
