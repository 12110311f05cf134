"""The shared sparse-polynomial core: Polynomial and ResiduePolynomial agree."""

import random
from fractions import Fraction

import pytest

from rcvf.poly import Polynomial, ResiduePolynomial
from rcvf.series import FieldElement

from conftest import small_fraction

F = Fraction
FRAME = ("x1", "x2", "x3")


def random_residue(rng, frame=FRAME, max_deg=3, max_terms=5):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        expv = tuple(rng.randint(0, max_deg) for _ in frame)
        terms.append((expv, small_fraction(rng)))
    return ResiduePolynomial(frame, terms)


def lift(q):
    return Polynomial(q.variables, {e: FieldElement.from_rational(c) for e, c in q.terms.items()})


def same(p, q):
    """Identical frames and term-by-term identical exact coefficients."""
    return (p.variables == q.variables
            and list(p.terms) == list(q.terms)
            and all(c.precision is None and c == FieldElement.from_rational(d)
                    for c, d in zip(p.terms.values(), q.terms.values())))


class TestSameResultsOnBothRings:
    def test_arithmetic(self):
        rng = random.Random(7)
        for _ in range(60):
            a, b = random_residue(rng), random_residue(rng)
            n = rng.randint(0, 3)
            assert same(lift(a) + lift(b), a + b)
            assert same(lift(a) - lift(b), a - b)
            assert same(lift(a) * lift(b), a * b)
            assert same(lift(a) ** n, a**n)
            assert same(-lift(a), -a)

    def test_scalars(self):
        rng = random.Random(8)
        for _ in range(30):
            a = random_residue(rng)
            k, c = rng.randint(-3, 3), small_fraction(rng)
            assert same(k * lift(a) + c, k * a + c)
            assert same(c - lift(a), c - a)

    def test_evaluate(self):
        rng = random.Random(9)
        for _ in range(60):
            a = random_residue(rng)
            pt = [small_fraction(rng) for _ in FRAME]
            value = lift(a).evaluate([FieldElement.from_rational(x) for x in pt])
            assert value.precision is None
            assert value == FieldElement.from_rational(a.evaluate(pt))

    def test_equality(self):
        rng = random.Random(10)
        for _ in range(60):
            a, b = random_residue(rng), random_residue(rng)
            assert (lift(a) == lift(b)) == (a == b)
            assert a == a + b - b
            assert lift(a) == lift(a + b - b)

    def test_frames_merge(self):
        x = ResiduePolynomial.variable("x1", ("x1",))
        y = ResiduePolynomial.variable("x2", ("x2",))
        s = x + y
        assert s.variables == ("x1", "x2")
        assert same(lift(x) + lift(y), s)

    def test_negative_exponent_refused(self):
        with pytest.raises(ValueError):
            ResiduePolynomial(("x",), {(-1,): 1})


class TestSeriesCoefficients:
    def test_order_term_is_kept(self):
        big_o = FieldElement((), precision=3)
        p = Polynomial(("x",), {(1,): big_o})
        assert not p.is_exactly_zero()
        assert p != Polynomial(("x",))

    def test_inexact_coefficient_differs_from_exact(self):
        one_plus_o = FieldElement(((0, 1),), precision=3)
        assert Polynomial(("x",), {(1,): one_plus_o}) != Polynomial.variable("x")


class TestRingsDoNotMix:
    def test_add(self):
        p, q = Polynomial.variable("x"), ResiduePolynomial.variable("x")
        with pytest.raises(TypeError):
            p + q
        with pytest.raises(TypeError):
            q + p

    def test_mul_and_eq(self):
        p, q = Polynomial.variable("x"), ResiduePolynomial.variable("x")
        with pytest.raises(TypeError):
            p * q
        with pytest.raises(TypeError):
            p == q

    def test_series_scalar_is_not_a_residue_constant(self):
        with pytest.raises(TypeError):
            ResiduePolynomial.variable("x") + FieldElement.eps_power(1)

    def test_sibling_classes(self):
        assert not isinstance(ResiduePolynomial.variable("x"), Polynomial)
        assert not isinstance(Polynomial.variable("x"), ResiduePolynomial)
