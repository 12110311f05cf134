"""Series field: arithmetic, order, valuation, residue, sqrt, sampling."""

import random
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcvf.errors import (
    DivisionByZero,
    ExponentBlowup,
    NegativeElement,
    NonSquareLeadingCoefficient,
    NotIntegral,
    PrecisionExhausted,
    RcvfError,
)
from rcvf.sampling import SampleConfig, sample_ball
from rcvf.series import (
    EQ,
    GT,
    LT,
    TOP,
    FieldElement,
    ValueGroupElement,
    _clamp,
    _min_precision,
    compare_order,
    default_truncation,
    field_arith,
    rational_sqrt,
    working_truncation,
)

from conftest import random_exact_element, random_truncated_element, exact_elements, fractions_st

F = Fraction
ONE = FieldElement.one()
EPS = FieldElement.eps_power(1)


def fe(*terms, precision=None):
    return FieldElement(terms, precision)


class TestArithmeticExamples:
    def test_mul_difference_of_squares(self):
        assert field_arith("mul", ONE + EPS, ONE - EPS) == fe((0, 1), (2, -1))

    def test_add_half_powers(self):
        half = FieldElement.eps_power(F(1, 2))
        assert field_arith("add", half, half) == FieldElement.eps_power(F(1, 2), 2)

    def test_sub_constants(self):
        assert field_arith("sub", FieldElement.from_rational(3) + EPS, FieldElement.from_rational(3)) == EPS

    def test_mul_precision_combines(self):
        a = fe((0, 1), precision=5)
        b = fe((1, 1))
        prod = a * b
        assert prod.precision == F(6)


class TestInvert:
    def test_geometric_series_at_precision_five(self):
        a = fe((0, 1), (1, -1), precision=5)
        inv = a.invert()
        assert inv == fe((0, 1), (1, 1), (2, 1), (3, 1), (4, 1))
        assert inv.precision == F(5)

    def test_monomial_inverse_exact(self):
        assert FieldElement.eps_power(2).invert() == FieldElement.eps_power(-2)
        assert FieldElement.eps_power(2).invert().precision is None

    def test_invert_zero_raises(self):
        with pytest.raises(DivisionByZero):
            FieldElement.zero().invert()

    def test_invert_hidden_zero_raises(self):
        with pytest.raises(PrecisionExhausted):
            fe(precision=3).invert()

    def test_invert_round_trip(self, rng):
        for _ in range(200):
            a = random_exact_element(rng, allow_negative_exponents=True)
            if a.is_visibly_zero():
                continue
            prod = a * a.invert()
            assert prod == ONE


class TestSqrt:
    def test_monomial_cases(self):
        assert FieldElement.eps_power(2, 4).sqrt() == FieldElement.eps_power(1, 2)
        assert FieldElement.eps_power(3).sqrt() == FieldElement.eps_power(F(3, 2))

    def test_non_square_leading_coefficient(self):
        with pytest.raises(NonSquareLeadingCoefficient):
            (FieldElement.from_rational(2) + EPS).sqrt()

    def test_negative_raises(self):
        with pytest.raises(NegativeElement):
            (-ONE + EPS).sqrt()

    def test_square_round_trip(self, rng):
        hits = 0
        while hits < 120:
            a = random_exact_element(rng)
            try:
                s = a.sqrt()
            except (NegativeElement, NonSquareLeadingCoefficient, DivisionByZero):
                continue
            hits += 1
            assert s * s == a


def _loop_invert(x: FieldElement) -> FieldElement:
    """The inverse as its own geometric-series loop, the reference for invert."""
    e0, c0 = x.leading()
    lead_inv = FieldElement.eps_power(-e0, Fraction(1) / c0)
    tail = FieldElement(x.terms[1:], x.precision)
    if tail.is_exact_zero():
        return lead_inv
    rel = (x.precision - e0) if x.precision is not None else default_truncation()
    u = _clamp(tail * lead_inv, rel)
    acc = FieldElement.one()
    power = FieldElement.one()
    u_lead = u.valuation_lower_bound()
    steps = 0 if u_lead.is_top else int(rel / u_lead.value) + 1
    for _ in range(steps):
        power = _clamp(power * (-u), rel)
        lb = power.valuation_lower_bound()
        if lb.is_top or lb.value >= rel:
            break
        acc = acc + power
    result = acc * lead_inv
    return FieldElement(result.terms, _min_precision(result.precision, rel - e0))


def _loop_sqrt(x: FieldElement) -> FieldElement:
    """The square root as its own binomial-series loop, the reference for sqrt."""
    if x.is_exact_zero():
        return FieldElement()
    if compare_order(x, FieldElement.zero()) == LT:
        raise NegativeElement("element is negative in the field order")
    e0, c0 = x.leading()
    root = rational_sqrt(c0)
    if root is None:
        raise NonSquareLeadingCoefficient(f"{c0} has no rational square root")
    lead_sqrt = FieldElement.eps_power(e0 / 2, root)
    tail = FieldElement(x.terms[1:], x.precision)
    if tail.is_exact_zero():
        return lead_sqrt
    rel = (x.precision - e0) if x.precision is not None else default_truncation()
    u = _clamp(tail * FieldElement.eps_power(-e0, 1 / c0), rel)
    acc = FieldElement.one()
    power = FieldElement.one()
    coeff = Fraction(1)
    k = 0
    u_lead = u.valuation_lower_bound()
    steps = 0 if u_lead.is_top else int(rel / u_lead.value) + 1
    for _ in range(steps):
        k += 1
        coeff = coeff * (Fraction(1, 2) - (k - 1)) / k
        power = _clamp(power * u, rel)
        lb = power.valuation_lower_bound()
        if lb.is_top or lb.value >= rel:
            break
        acc = acc + power * coeff
    result = acc * lead_sqrt
    return FieldElement(result.terms, _min_precision(result.precision, e0 / 2 + rel))


@st.composite
def series_elements(draw):
    """Exact or truncated elements; half of them lead with a square coefficient,
    so that sqrt runs its series."""
    x = draw(exact_elements())
    if x.terms and draw(st.booleans()):
        c = draw(fractions_st.filter(bool))
        x = FieldElement(((x.terms[0][0], c * c), *x.terms[1:]))
    if draw(st.booleans()):
        lead = x.terms[0][0] if x.terms else F(0)
        x = FieldElement(x.terms, lead + draw(st.fractions(min_value=0, max_value=12, max_denominator=3)))
    return x


def _result(f, x):
    """(terms, precision) of f(x), or the type of the error it raised."""
    try:
        y = f(x)
    except RcvfError as exc:
        return type(exc)
    return y.terms, y.precision


class TestOneBinomialKernel:
    # invert and sqrt share one series kernel; each must give the terms,
    # precision and errors of the loop it had before, at any working order.
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(x=series_elements(), order=st.fractions(min_value=1, max_value=40, max_denominator=4))
    def test_same_as_the_two_loops(self, x, order):
        with working_truncation(order):
            assert _result(FieldElement.invert, x) == _result(_loop_invert, x)
            assert _result(FieldElement.sqrt, x) == _result(_loop_sqrt, x)


class TestOrder:
    def test_eps_below_every_positive_rational(self):
        assert compare_order(EPS, FieldElement.from_rational(F(1, 10**9))) == LT

    def test_one_minus_eps(self):
        assert compare_order(ONE - EPS, ONE) == LT

    def test_ovf_axiom_instance(self):
        # 0 < eps <= 1 and valuation(1) <= valuation(eps)
        assert compare_order(EPS, FieldElement.zero()) == GT
        assert compare_order(EPS, ONE) == LT
        assert ONE.valuation() <= EPS.valuation()

    def test_indistinguishable_raises(self):
        with pytest.raises(PrecisionExhausted):
            compare_order(fe((0, 1), precision=4), fe((0, 1), precision=6))

    def test_total_on_visible(self, rng):
        for _ in range(300):
            a = random_exact_element(rng, allow_negative_exponents=True)
            b = random_exact_element(rng, allow_negative_exponents=True)
            verdict = compare_order(a, b)
            assert verdict in (LT, EQ, GT)
            assert (verdict == EQ) == ((a - b).is_exact_zero())

    def test_compatible_with_addition(self, rng):
        for _ in range(200):
            a = random_exact_element(rng)
            b = a + abs_positive(rng)
            c = random_exact_element(rng, allow_negative_exponents=True)
            assert compare_order(a + c, b + c) == LT

    def test_compatible_with_positive_multiplication(self, rng):
        for _ in range(200):
            a = random_exact_element(rng)
            b = a + abs_positive(rng)
            c = abs_positive(rng)
            assert compare_order(a * c, b * c) == LT


def abs_positive(rng):
    while True:
        x = random_exact_element(rng)
        if x.is_visibly_zero():
            continue
        return x if x.terms[0][1] > 0 else -x


class TestValuation:
    def test_examples(self):
        assert fe((2, 3), (5, 1)).valuation() == ValueGroupElement(2)
        assert FieldElement.from_rational(7).valuation() == ValueGroupElement(0)
        assert FieldElement.zero().valuation() == TOP

    def test_top_compares_above_everything(self):
        assert TOP > ValueGroupElement(10**9)
        assert (TOP + ValueGroupElement(3)).is_top

    def test_zero_like_raises(self):
        with pytest.raises(PrecisionExhausted):
            fe(precision=2).valuation()

    def test_multiplicative(self, rng):
        for _ in range(400):
            a, b = random_exact_element(rng, allow_negative_exponents=True), random_exact_element(rng)
            if a.is_visibly_zero() or b.is_visibly_zero():
                continue
            assert (a * b).valuation() == a.valuation() + b.valuation()

    def test_ultrametric(self, rng):
        for _ in range(400):
            a, b = random_exact_element(rng), random_exact_element(rng)
            va, vb = a.valuation(), b.valuation()
            vs = (a + b).valuation()
            assert vs >= min(va, vb)
            if va != vb:
                assert vs == min(va, vb)

    def test_ovf_axiom_sampled(self, rng):
        for _ in range(500):
            a = abs_positive(rng)
            b = a + abs_positive(rng)
            assert b.valuation() <= a.valuation()


class TestResidue:
    def test_examples(self):
        assert (FieldElement.from_rational(3) + EPS).residue() == 3
        assert EPS.residue() == 0
        with pytest.raises(NotIntegral):
            FieldElement.eps_power(-1).residue()

    def test_ring_homomorphism(self, rng):
        for _ in range(300):
            a, b = random_exact_element(rng), random_exact_element(rng)
            assert (a + b).residue() == a.residue() + b.residue()
            assert (a * b).residue() == a.residue() * b.residue()


class TestSosUnits:
    def test_inverse_of_one_plus_sos_is_integral(self, rng):
        # 200 random sums of squares, possibly with negative-valuation summands
        for _ in range(200):
            r = FieldElement.zero()
            for _ in range(rng.randint(1, 4)):
                s = random_exact_element(rng, allow_negative_exponents=True)
                r = r + s * s
            w = ONE + r
            assert w.valuation() <= 0
            assert w.invert().valuation() >= 0


class TestFieldLaws:
    def test_laws_on_random_triples(self, rng):
        for _ in range(1000):
            a = random_truncated_element(rng)
            b = random_truncated_element(rng)
            c = random_truncated_element(rng)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == FieldElement.zero()

    @settings(max_examples=200, derandomize=True)
    @given(a=exact_elements(), b=exact_elements())
    def test_exact_ring_laws_hypothesis(self, a, b):
        assert a + b == b + a
        assert a * b == b * a
        assert (a - b) + b == a

    @settings(max_examples=100, derandomize=True)
    @given(a=exact_elements())
    def test_invariants_preserved(self, a):
        sq = a * a
        exps = [e for e, _ in sq.terms]
        assert exps == sorted(exps)
        assert all(c != 0 for _, c in sq.terms)


class TestExponentCap:
    def test_blowup_raises(self):
        with pytest.raises(ExponentBlowup):
            FieldElement.eps_power(F(1, 65))

    def test_cap_boundary_allowed(self):
        FieldElement.eps_power(F(1, 64))


class TestWorkingTruncation:
    def test_scoped_and_restored(self):
        x = fe((0, 1), (1, -1))  # 1 - eps: its inverse has no last term
        with working_truncation(4):
            assert default_truncation() == 4
            assert x.invert().precision == 4 and x.sqrt().precision == 4
            with working_truncation(F(3, 2)):
                assert x.invert().precision == F(3, 2)
            assert default_truncation() == 4
        assert default_truncation() == 32
        assert x.invert().precision == 32

    @pytest.mark.parametrize("order", [0, -1, F(-1, 2)])
    def test_order_must_be_positive(self, order):
        with pytest.raises(ValueError):
            with working_truncation(order):
                pass
        assert default_truncation() == 32

    def test_other_threads_keep_the_default(self):
        seen = []
        with working_truncation(4):
            thread = threading.Thread(target=lambda: seen.append(default_truncation()))
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert default_truncation() == 4
        assert seen == [32]


class TestSampleBall:
    def test_invariant_radius_zero(self):
        config = SampleConfig(seed=7, samples=1000)
        for x in sample_ball(1000, 0, config):
            v = x.valuation_lower_bound()
            assert v.is_top or v.value >= 0

    def test_invariant_radius_two(self):
        config = SampleConfig(seed=1)
        for x in sample_ball(2, 2, config):
            v = x.valuation_lower_bound()
            assert v.is_top or v.value >= 2

    def test_empty(self):
        assert sample_ball(0, 0, SampleConfig(seed=1)) == []

    def test_deterministic_and_kind_mix(self):
        config = SampleConfig(seed=42)
        a = sample_ball(300, 0, config)
        b = sample_ball(300, 0, config)
        assert all(x.identical(y) if hasattr(x, "identical") else str(x) == str(y)
                   for x, y in zip(a, b))
        units = rationals = infinitesimals = 0
        for x in a:
            if x.is_visibly_zero():
                continue
            e0, _ = x.leading()
            if e0 == 0 and len(x.terms) == 1:
                rationals += 1
            elif e0 == 0:
                units += 1
            elif e0 > 0:
                infinitesimals += 1
        assert units > 10 and rationals > 10 and infinitesimals > 10

    def test_index_partition_matches_full_run(self):
        config = SampleConfig(seed=9)
        full = sample_ball(20, 0, config)
        head = sample_ball(10, 0, config)
        tail = sample_ball(10, 0, config, start_index=10)
        assert [str(x) for x in full] == [str(x) for x in head + tail]
