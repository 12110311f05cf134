"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import os
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

import rcvf
from rcvf.poly import Polynomial, RationalFunction
from rcvf.series import FieldElement


def subprocess_env() -> dict:
    """The environment with this checkout's rcvf first on PYTHONPATH, for child interpreters."""
    src = str(Path(rcvf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def small_fraction(rng: random.Random, bound: int = 10, nonzero: bool = False) -> Fraction:
    while True:
        q = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if q != 0 or not nonzero:
            return q


def random_exact_element(rng: random.Random, max_terms: int = 3, allow_negative_exponents: bool = False) -> FieldElement:
    terms = []
    lo = -4 if allow_negative_exponents else 0
    for _ in range(rng.randint(0, max_terms)):
        e = Fraction(rng.randint(2 * lo, 8), rng.choice((1, 1, 2)))
        c = small_fraction(rng, nonzero=True)
        terms.append((e, c))
    return FieldElement(terms)


def random_truncated_element(rng: random.Random) -> FieldElement:
    x = random_exact_element(rng, max_terms=3, allow_negative_exponents=True)
    if rng.random() < 0.5:
        return x
    lead = x.terms[0][0] if x.terms else Fraction(0)
    prec = lead + Fraction(rng.randint(1, 12), rng.choice((1, 2)))
    return FieldElement(x.terms, prec)


class SeriesRing:
    """Rational functions over the series field in one frame: the reference
    the flat ring (``rcvf.rings.FlatRing``) is checked against, and the
    denotation of ring expressions read at points (``poly_eval``).

    Names are read through a table as in FlatRing (name -> coordinate, or a
    sequence of names, each its own coordinate): each value is re-embedded
    over the coordinates, its names read through the table (see
    Polynomial.with_variables).  once builds each image anew and sum adds
    left to right, so nothing is shared or cancelled.
    """

    def __init__(self, names):
        if isinstance(names, dict):
            self.names, self.variables = names, tuple(dict.fromkeys(names.values()))
        else:
            self.variables = tuple(names)
            self.names = dict(zip(self.variables, self.variables))

    def __call__(self, q) -> RationalFunction:
        if isinstance(q, RationalFunction):
            return q.with_variables(self.variables, self.names)
        if isinstance(q, Polynomial):
            return RationalFunction(q.with_variables(self.variables, self.names))
        return RationalFunction.constant(q, self.variables)

    def once(self, value, image):
        return image(value)

    def sum(self, values):
        return sum(values[1:], values[0])


# Hypothesis strategies ---------------------------------------------------------

fractions_st = st.fractions(min_value=-10, max_value=10, max_denominator=8)

exponents_st = st.fractions(min_value=-4, max_value=8, max_denominator=2)


@st.composite
def exact_elements(draw, min_exponent=None):
    n = draw(st.integers(min_value=0, max_value=3))
    terms = []
    for _ in range(n):
        e = draw(exponents_st)
        if min_exponent is not None and e < min_exponent:
            e = min_exponent + abs(e)
        c = draw(fractions_st)
        terms.append((e, c))
    return FieldElement(terms)


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def coarse_truncation():
    """Lower the working order: valuation-level checks don't need 32 digits."""
    from rcvf.series import working_truncation

    with working_truncation(4):
        yield
