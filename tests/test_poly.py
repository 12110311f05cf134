"""Polynomials, rational functions, Gauss valuation, structured expressions."""

import random
from fractions import Fraction

import pytest

from rcvf.errors import DivisionByZero, PrecisionExhausted, UndefinedGauss
from rcvf.poly import Polynomial, RationalFunction, gauss_valuation, poly_eval, valuation_at
from rcvf.ringexpr import (
    ConeExpr,
    ConeInverseExpr,
    ConstExpr,
    GenExpr,
    ProdExpr,
    SOSExpr,
    SosInverseExpr,
    SumExpr,
    infinitesimal_or_zero,
    ring_expr_to_rational,
    verify_ring_membership,
    verify_sos_expression,
)
from rcvf.sampling import SampleConfig, _rng
from rcvf.series import TOP, FieldElement, ValueGroupElement
from rcvf.sets import SetDescriptor

from conftest import SeriesRing, random_exact_element, random_truncated_element, small_fraction

F = Fraction
EPS = FieldElement.eps_power(1)


def var(name, frame):
    return Polynomial.variable(name, frame)


def random_polynomial(rng, frame, max_deg=4, max_terms=5, coeff_negative_exponents=False):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        expv = tuple(rng.randint(0, max_deg // max(1, len(frame))) for _ in frame)
        c = random_exact_element(rng, max_terms=2, allow_negative_exponents=coeff_negative_exponents)
        if c.is_visibly_zero():
            continue
        terms[expv] = terms.get(expv, FieldElement.zero()) + c
    return Polynomial(frame, terms)


class TestPolyEval:
    def test_examples(self):
        x = var("x", ("x",))
        q = x * x + Polynomial.constant(EPS, ("x",))
        assert poly_eval(q, [EPS]) == FieldElement([(1, 1), (2, 1)])
        q2 = Polynomial.constant(1, ("x",)) - (x * x).scale(EPS)
        assert poly_eval(q2, [FieldElement.one()]) == FieldElement([(0, 1), (1, -1)])
        h = RationalFunction(x + Polynomial.constant(EPS, ("x",)), x)
        assert poly_eval(h, [FieldElement.eps_power(2)]) == FieldElement([(-1, 1), (0, 1)])

    def test_denominator_zero(self):
        x = var("x", ("x",))
        h = RationalFunction(Polynomial.constant(1, ("x",)), x)
        with pytest.raises(DivisionByZero):
            poly_eval(h, [FieldElement.zero()])

    def test_arity_mismatch(self):
        x = var("x", ("x",))
        with pytest.raises(ValueError):
            poly_eval(x, [EPS, EPS])


class TestGaussValuation:
    def test_examples(self):
        xy = ("x", "y")
        q = (var("x", xy) ** 2).scale(EPS) + var("y", xy).scale(3)
        assert gauss_valuation(q) == ValueGroupElement(0)
        q2 = (var("x", ("x",)) ** 2).scale(EPS) + Polynomial.constant(FieldElement.eps_power(3), ("x",))
        assert gauss_valuation(q2) == ValueGroupElement(1)
        x = var("x", ("x",))
        h = RationalFunction(x + Polynomial.constant(EPS, ("x",)), x)
        assert gauss_valuation(h) == ValueGroupElement(0)

    def test_known_valuation_below_every_hidden_one_decides(self):
        # A coefficient that is only O(eps^k) has valuation k or more.
        hidden = {k: FieldElement((), k) for k in (1, 2, 32)}
        x = (1,)
        assert gauss_valuation(Polynomial(("x1",), {(2,): hidden[32], (0,): EPS})) == ValueGroupElement(1)
        assert gauss_valuation(Polynomial(("x1",), {x: hidden[2], (0,): EPS * EPS})) == ValueGroupElement(2)
        with pytest.raises(PrecisionExhausted, match="below precision 1$"):
            gauss_valuation(Polynomial(("x1",), {x: hidden[1], (0,): EPS * EPS}))
        with pytest.raises(PrecisionExhausted, match="below precision 2$"):
            gauss_valuation(Polynomial(("x1",), {x: hidden[2], (2,): hidden[1]}))

    def test_zero_polynomial_is_top(self):
        assert gauss_valuation(Polynomial(("x",))) == TOP

    def test_zero_denominator_raises(self):
        x = var("x", ("x",))
        with pytest.raises(DivisionByZero):
            RationalFunction(x, Polynomial(("x",)))

    def test_multiplicative_on_polynomials(self, rng):
        frame = ("x", "y")
        for _ in range(500):
            a = random_polynomial(rng, frame, coeff_negative_exponents=True)
            b = random_polynomial(rng, frame, coeff_negative_exponents=True)
            if a.is_exactly_zero() or b.is_exactly_zero():
                continue
            assert gauss_valuation(a * b) == gauss_valuation(a) + gauss_valuation(b)

    def test_lower_bound_law(self, rng):
        ball = SetDescriptor.unit_polydisc(2)
        config = SampleConfig(seed=31, samples=40)
        for i in range(25):
            q = random_polynomial(rng, ("x1", "x2"))
            if q.is_exactly_zero():
                continue
            g = gauss_valuation(q)
            for b in ball.sample_points(config):
                assert valuation_at(q, b) >= g

    def test_genericity(self, rng):
        # A generic-residue point achieves the Gauss valuation within 100 draws.
        ball = SetDescriptor.unit_polydisc(2)
        for i in range(100):
            q = random_polynomial(rng, ("x1", "x2"))
            if q.is_exactly_zero():
                continue
            g = gauss_valuation(q)
            pool = 1000 * max(1, len(q.terms))
            found = False
            r = _rng(7000, i)
            for pt in ball.generic_residue_points(r, 100, pool):
                if valuation_at(q, pt) == g:
                    found = True
                    break
            assert found

    def test_nonzero_polynomials_nonvanishing_somewhere(self, rng):
        # Sampled ball points witness q != 0 for nonzero q.
        ball = SetDescriptor.unit_polydisc(2)
        config = SampleConfig(seed=77, samples=60)
        for _ in range(100):
            q = random_polynomial(rng, ("x1", "x2"))
            if q.is_exactly_zero():
                continue
            witnessed = False
            for b in ball.sample_points(config):
                if not q.evaluate(b).is_visibly_zero():
                    witnessed = True
                    break
            assert witnessed


class TestSosExpressions:
    def test_x_squared_plus_eps(self):
        x = var("x", ("x",))
        target = x * x + Polynomial.constant(EPS, ("x",))
        r = SOSExpr([RationalFunction(x),
                     RationalFunction(Polynomial.constant(FieldElement.eps_power(F(1, 2)), ("x",)))])
        assert verify_sos_expression(target, r)

    def test_one_plus_x_squared(self):
        x = var("x", ("x",))
        target = Polynomial.constant(1, ("x",)) + x * x
        r = SOSExpr([RationalFunction(Polynomial.constant(1, ("x",))), RationalFunction(x)])
        assert verify_sos_expression(target, r)

    def test_identity_failure(self):
        x = var("x", ("x",))
        target = Polynomial.constant(1, ("x",)) - (x * x).scale(EPS)
        r = SOSExpr([RationalFunction(Polynomial.constant(1, ("x",)))])
        assert not verify_sos_expression(target, r)


def reference_infinitesimal_or_zero(m):
    """The two-step form of the check: lower bound first, then the valuation."""
    v = m.valuation_lower_bound()
    if v.is_top or v.value > 0:
        return True
    try:
        return m.valuation() > 0
    except PrecisionExhausted:
        return False


def reference_constant_is_integral(x):
    """The two-step form of the ConstExpr membership check."""
    v = x.valuation_lower_bound()
    if not v.is_top and v.value < 0:
        try:
            return x.valuation() >= 0
        except Exception:
            return False
    return True


class TestRingMembership:
    def test_one_line_checks_match_two_step_reference(self):
        # Exact, truncated and term-less O(eps^k) elements, k negative, zero and positive.
        rng = random.Random(4141)
        corpus = [FieldElement.zero()]
        corpus += [FieldElement((), F(k, d)) for k in range(-4, 5) for d in (1, 2)]
        corpus += [random_exact_element(rng, allow_negative_exponents=True) for _ in range(300)]
        corpus += [random_truncated_element(rng) for _ in range(300)]
        ball1 = SetDescriptor.unit_polydisc(1)
        infinitesimal, integral = [], []
        for x in corpus:
            infinitesimal.append(infinitesimal_or_zero(x))
            integral.append(verify_ring_membership(ConstExpr(x), ball1))
            assert infinitesimal[-1] == reference_infinitesimal_or_zero(x), repr(x)
            assert integral[-1] == reference_constant_is_integral(x), repr(x)
        assert set(infinitesimal) == set(integral) == {True, False}
        termless = [x for x in corpus if not x.terms and x.precision is not None]
        assert {x.precision > 0 for x in termless} == {True, False}

    def test_product_plus_constant(self):
        ball2 = SetDescriptor.unit_polydisc(2)
        e = SumExpr([ProdExpr([GenExpr(0), GenExpr(1)]), ConstExpr(3)])
        assert verify_ring_membership(e, ball2)

    def test_sos_inverse_always_allowed(self):
        ball1 = SetDescriptor.unit_polydisc(1)
        e = SosInverseExpr(SOSExpr([RationalFunction(var("x1", ("x1",)))]))
        assert verify_ring_membership(e, ball1)
        assert ring_expr_to_rational(e, ball1, SeriesRing(ball1.variables())) == RationalFunction(
            Polynomial.constant(1, ("x1",)),
            Polynomial.constant(1, ("x1",)) + var("x1", ("x1",)) ** 2)

    def test_generator_out_of_range(self):
        ball1 = SetDescriptor.unit_polydisc(1)
        assert not verify_ring_membership(GenExpr(1), ball1)

    def test_non_integral_constant_rejected(self):
        ball1 = SetDescriptor.unit_polydisc(1)
        assert not verify_ring_membership(ConstExpr(FieldElement.eps_power(-1)), ball1)

    def test_cone_inverse_needs_strict_constraints(self):
        x1 = var("x1", ("x1",))
        cone = ConeExpr([(SOSExpr([RationalFunction(Polynomial.constant(1, ("x1",)))]), (0,))])
        e = ConeInverseExpr(cone)
        plain = SetDescriptor.unit_polydisc(1)
        with_strict = SetDescriptor.unit_polydisc(1, strict_constraints=[x1])
        assert not verify_ring_membership(e, plain)
        assert verify_ring_membership(e, with_strict)

    def test_cone_degree_cap(self):
        x1 = var("x1", ("x1",))
        high = x1 ** 5
        cone = ConeExpr([(SOSExpr([RationalFunction(Polynomial.constant(1, ("x1",)))]), (0, 0))])
        sd = SetDescriptor.unit_polydisc(1, strict_constraints=[high])
        assert not verify_ring_membership(ConeInverseExpr(cone), sd)  # degree 10 > cap 8
        at_cap = SetDescriptor.unit_polydisc(1, strict_constraints=[x1 ** 4])
        assert verify_ring_membership(ConeInverseExpr(cone), at_cap)  # degree 8


def value_at(e, set_descriptor, point):
    """A ring expression's value at a point: its denotation's value there."""
    return poly_eval(ring_expr_to_rational(e, set_descriptor, SeriesRing(set_descriptor.variables())), point)


class TestEvalRingExpr:
    def test_examples(self):
        ball2 = SetDescriptor.unit_polydisc(2)
        e = SumExpr([ProdExpr([GenExpr(0), GenExpr(1)]), ConstExpr(3)])
        assert value_at(e, ball2, [EPS, FieldElement.one()]) == FieldElement([(0, 3), (1, 1)])
        ball1 = SetDescriptor.unit_polydisc(1)
        leaf = SosInverseExpr(SOSExpr([RationalFunction(var("x1", ("x1",)))]))
        assert value_at(leaf, ball1, [FieldElement.one()]) == FieldElement.from_rational(F(1, 2))

    def test_sos_inverse_defined_off_set(self):
        # 1/(1+x^2) evaluates with non-negative valuation even at x = eps^-1.
        ball1 = SetDescriptor.unit_polydisc(1)
        leaf = SosInverseExpr(SOSExpr([RationalFunction(var("x1", ("x1",)))]))
        v = value_at(leaf, ball1, [FieldElement.eps_power(-1)])
        assert v.valuation() == ValueGroupElement(2)

    def test_on_set_values_integral(self, rng, coarse_truncation):
        # 500 random (expression, point) pairs evaluate into the valuation ring.
        ball2 = SetDescriptor.unit_polydisc(2)
        config = SampleConfig(seed=13, samples=520)
        points = ball2.sample_points(config)
        for i, b in enumerate(points[:500]):
            e = random_ring_expr(rng, 2)
            v = value_at(e, ball2, b)
            lb = v.valuation_lower_bound()
            assert lb.is_top or lb.value >= 0


def random_ring_expr(rng, n, depth=2):
    kind = rng.randrange(5 if depth > 0 else 3)
    frame = tuple(f"x{i+1}" for i in range(n))
    if kind == 0:
        c = random_exact_element(rng)
        return ConstExpr(c if not c.is_visibly_zero() else FieldElement.one())
    if kind == 1:
        return GenExpr(rng.randrange(n))
    if kind == 2:
        summands = [RationalFunction(random_polynomial_simple(rng, frame)) for _ in range(rng.randint(1, 2))]
        return SosInverseExpr(SOSExpr(summands))
    ctor = SumExpr if kind == 3 else ProdExpr
    return ctor([random_ring_expr(rng, n, depth - 1) for _ in range(rng.randint(1, 3))])


def random_polynomial_simple(rng, frame):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        expv = tuple(rng.randint(0, 2) for _ in frame)
        terms[expv] = FieldElement.from_rational(small_fraction(rng, 6, nonzero=True))
    return Polynomial(frame, terms)


class TestVariableAlignment:
    def test_merge_on_arithmetic(self):
        x = var("x", ("x",))
        y = var("y", ("y",))
        s = x + y
        assert s.variables == ("x", "y")
        assert s.total_degree() == 1

    def test_natural_order(self):
        a = var("x10", ("x10",)) + var("x2", ("x2",))
        assert a.variables == ("x2", "x10")
