"""Exact identities in the flat ring give the series ring's verdicts.

The flat ring (``rcvf.rings.FlatRing``) maps exact polynomials over the series
field into Q[eps^Q][x], each eps exponent kept as the rational it is.  Each
case in TestSameVerdicts is checked twice: as it runs, and with
``FlatRing.over`` handing out the series ring (``conftest.SeriesRing``), which
runs every identity on series coefficients as before the flat ring existed.
Both runs must give the same verdict and reason, or raise the same error.
TestFallback holds the cases a series fallback once served: what only the
flat ring decides, and what it refuses that series arithmetic let through.
TestReferee checks the verifier's verdicts against a referee that specialises
eps and the coordinates at random rationals.  TestFactoredEquality checks the
flat ring's factored quotients (``rcvf.rings.FlatQuotient``), which cancel
shared factors before multiplying out, against quotients of expanded
polynomials compared by full cross-multiplication, and each leaf's image
against the same written-out map.  TestOneImagePerValue checks that a ring
mapping each distinct value once, and a decode reading identical subtrees as
one object, keep the verdicts.
"""

import json
import operator
import random
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcvf.certificates import (
    DickmannCertificate,
    DickmannTerm,
    IntegralityWitness,
    NonnegCertificate,
    QuotientCoefficient,
    verify_dickmann_certificate,
    verify_nonneg_certificate,
)
from rcvf.errors import DivisionByZero, RcvfError
from rcvf.jsonio import certificate_from_json, certificate_to_json
from rcvf.parser import parse_expression
from rcvf.poly import Polynomial, RationalFunction, ResiduePolynomial
from rcvf.ringexpr import (
    ConeExpr,
    ConeInverseExpr,
    ConstExpr,
    GenExpr,
    PerturbedUnit,
    ProdExpr,
    SOSExpr,
    SosInverseExpr,
    SumExpr,
    infinitesimal_or_zero,
    polynomial_to_ring_expr,
    verify_sos_expression,
)
from rcvf.rings import FLAT_EPS, FlatRing, flat_sum
from rcvf.series import FieldElement
from rcvf.sets import SetDescriptor

from conftest import SeriesRing, small_fraction

F = Fraction
VS = ("x1", "x2")
BALL = SetDescriptor.unit_polydisc(2)
# eps exponents of the random coefficients: negative, zero, fractional (D = 6).
EXPONENTS = [F(-1), F(0), F(0), F(1), F(1, 2), F(2, 3), F(-1, 3)]
# eps exponents in fifths and sevenths.
FIFTHS_SEVENTHS = [F(1, 5), F(-2, 7), F(3, 5), F(4, 7), F(0)]


def random_poly(rng, exponents=EXPONENTS, terms=3, degree=2) -> Polynomial:
    out = {}
    for _ in range(terms):
        expv = tuple(rng.randint(0, degree) for _ in VS)
        out[expv] = out.get(expv, FieldElement.zero()) + FieldElement.eps_power(
            rng.choice(exponents), small_fraction(rng, nonzero=True))
    return Polynomial(VS, out)


def sos_certificate(rng, exponents=EXPONENTS):
    """p = sum r_i^2, m = 0, the trivial witness."""
    r = [random_poly(rng, exponents) for _ in range(rng.randint(1, 3))]
    p = sum((s * s for s in r[1:]), r[0] * r[0])
    zero = RationalFunction.constant(0, VS)
    return p, NonnegCertificate(SOSExpr(r), FieldElement.zero(), zero, IntegralityWitness.trivial())


def unit_certificate(rng, m=None):
    """p = c^2 - m*q with c = 1 + T, T = sum t_j^2; r = [c], h = q/p.

    With S = c^2 - 1 = sum (t_j^2 + t_j^2) + T^2, the witness is
    h = [q / (1+S)] / (1 - m * [q / (1+S)]), the iord leaf denoting 1/(1+S).
    q has integral coefficients, so its ring tree passes the membership check.
    """
    t = [random_poly(rng, terms=2, degree=1) for _ in range(2)]
    big_t = t[0] * t[0] + t[1] * t[1]
    c = big_t + 1
    m = m if m is not None else FieldElement.eps_power(rng.choice([F(1), F(1, 2), F(2)]))
    q = random_poly(rng, exponents=[F(0), F(1), F(1, 3)], terms=2)
    p = c * c - q.scale(m)
    leaf = ProdExpr([polynomial_to_ring_expr(q, BALL), SosInverseExpr(SOSExpr(t + t + [big_t]))])
    witness = IntegralityWitness(leaf, PerturbedUnit(-m, leaf))
    return p, NonnegCertificate(SOSExpr([c]), m, RationalFunction(q, p), witness)


def mutants(p, cert):
    """One copy per changed field, each of which must fail the check."""
    x = Polynomial.variable("x1", VS)
    w = cert.witness
    yield "p", p + x, cert
    yield "r", p, NonnegCertificate(SOSExpr([cert.r.summands[0] + x, *cert.r.summands[1:]]),
                                    cert.m, cert.h, w)
    m = FieldElement.one() if cert.m.is_exact_zero() else -cert.m
    yield "m", p, NonnegCertificate(cert.r, m, cert.h, w)
    yield "h.num", p, NonnegCertificate(cert.r, cert.m, RationalFunction(cert.h.num + x, cert.h.den), w)
    yield "witness.num", p, NonnegCertificate(cert.r, cert.m, cert.h, IntegralityWitness(
        SumExpr([w.numerator, ConstExpr(1)]), w.denominator))
    yield "witness.den.m", p, NonnegCertificate(cert.r, cert.m, cert.h, IntegralityWitness(
        w.numerator, PerturbedUnit(cert.m, w.denominator.a)))


def outcome(check, *args):
    """(verdict, reason) of a check, or the name of the error it raised."""
    try:
        result = check(*args)
    except RcvfError as exc:
        return type(exc).__name__
    return (result.ok, result.reason) if hasattr(result, "ok") else result


def cross_multiplied(a, b) -> bool:
    """RationalFunction equality as the cross-multiplication identity."""
    b = a._coerce(b)
    if b is NotImplemented:
        return NotImplemented
    return (a.num * b.den - b.num * a.den).is_exactly_zero()


def series_only(monkeypatch):
    """A context in which every identity runs on the series ring, and equality
    of rational functions cross-multiplies their series coefficients."""
    context = monkeypatch.context()
    patch = context.__enter__()
    patch.setattr(FlatRing, "over", classmethod(lambda cls, names: SeriesRing(names)))
    patch.setattr(RationalFunction, "__eq__", cross_multiplied)
    return context


def flat_and_series(monkeypatch, check, *args) -> list:
    """[outcome as it runs, outcome on the series ring]."""
    flat = outcome(check, *args)
    context = series_only(monkeypatch)
    try:
        series = outcome(check, *args)
    finally:
        context.__exit__(None, None, None)
    return [flat, series]


def record_rings(monkeypatch) -> list:
    """The rings FlatRing.over hands out, in order."""
    rings = []
    over = FlatRing.over.__func__

    def recording(cls, names):
        ring = over(cls, names)
        rings.append(ring)
        return ring

    monkeypatch.setattr(FlatRing, "over", classmethod(recording))
    return rings


class TestSameVerdicts:
    @pytest.mark.parametrize("seed", range(6))
    def test_sos_certificates_and_mutants(self, monkeypatch, seed):
        rng = random.Random(seed)
        p, cert = sos_certificate(rng)
        assert flat_and_series(monkeypatch, verify_nonneg_certificate, p, cert, BALL) == [(True, None)] * 2
        for name, mp, mc in mutants(p, cert):
            flat, series = flat_and_series(monkeypatch, verify_nonneg_certificate, mp, mc, BALL)
            assert flat == series, name
            if name in ("p", "r", "m"):
                assert flat[0] is False, name

    @pytest.mark.parametrize("seed", range(3))
    def test_sos_certificates_over_unrelated_denominators(self, monkeypatch, seed):
        # Exponents in fifths and sevenths, whose sums no grid of 1/5 or 1/7
        # holds: the one ring keeps each as the rational it is.
        p, cert = sos_certificate(random.Random(200 + seed), FIFTHS_SEVENTHS)
        assert flat_and_series(monkeypatch, verify_nonneg_certificate, p, cert, BALL) == [(True, None)] * 2
        for name, mp, mc in mutants(p, cert):
            flat, series = flat_and_series(monkeypatch, verify_nonneg_certificate, mp, mc, BALL)
            assert flat == series, name
            if name in ("p", "r", "m"):
                assert flat[0] is False, name

    @pytest.mark.parametrize("seed", range(6))
    def test_unit_certificates_and_mutants(self, monkeypatch, seed):
        rng = random.Random(100 + seed)
        p, cert = unit_certificate(rng)
        assert flat_and_series(monkeypatch, verify_nonneg_certificate, p, cert, BALL) == [(True, None)] * 2
        for name, mp, mc in mutants(p, cert):
            flat, series = flat_and_series(monkeypatch, verify_nonneg_certificate, mp, mc, BALL)
            assert flat == series, name
            assert flat[0] is False, name

    @pytest.mark.parametrize("make", [sos_certificate, unit_certificate], ids=["sos", "unit"])
    def test_other_names_read_through_the_table(self, monkeypatch, make):
        # Every x1 written y and every x2 written z: both rings read y as x1
        # and z as x2 through the verifier's name table.
        p, cert = make(random.Random(7))
        for name, mp, mc in [("valid", p, cert), *mutants(p, cert)]:
            text = json.dumps(certificate_to_json(mp, BALL, mc)).replace("x1", "y").replace("x2", "z")
            renamed_p, sd, renamed = certificate_from_json(json.loads(text))
            assert set(renamed_p.variables) <= {"y", "z"}
            flat, series = flat_and_series(monkeypatch, verify_nonneg_certificate, renamed_p, renamed, sd)
            assert flat == series == outcome(verify_nonneg_certificate, mp, mc, BALL), name

    def test_flat_ring_is_taken(self, monkeypatch):
        rings = record_rings(monkeypatch)
        p, cert = unit_certificate(random.Random(5))
        assert verify_nonneg_certificate(p, cert, BALL).ok
        assert rings and all(isinstance(ring, FlatRing) for ring in rings)

    def test_grid_past_the_series_cap(self, monkeypatch):
        # r_i^2 = eps^(1/3)*x1^2 and eps^(1/32)*x2^2: each product stays within the
        # series ring's exponent cap of 64, while the exponents of p and r
        # together need the grid 1/192.
        p = parse_expression("eps^(1/3)*x1^2 + eps^(1/32)*x2^2")
        r = SOSExpr([parse_expression("eps^(1/6)*x1"), parse_expression("eps^(1/64)*x2")])
        zero = RationalFunction.constant(0, VS)
        cert = NonnegCertificate(r, FieldElement.zero(), zero, IntegralityWitness.trivial())
        assert flat_and_series(monkeypatch, verify_nonneg_certificate, p, cert, BALL) == [(True, None)] * 2
        for name, mp, mc in mutants(p, cert):
            flat, series = flat_and_series(monkeypatch, verify_nonneg_certificate, mp, mc, BALL)
            assert flat == series, name
            if name in ("p", "r", "m"):
                assert flat[0] is False, name

    def test_leaves_over_other_names(self, monkeypatch):
        # Leaf summands over y and z align together, as the value they denote
        # does: y is x1 and z is x2, so the leaves denote 1/(1 + x1^2 + x2^2).
        y, z = (Polynomial.variable(v) for v in "yz")
        sd = SetDescriptor.unit_polydisc(2, [Polynomial.variable("x1", VS)])
        leaves = (SosInverseExpr(SOSExpr([y, z])),
                  ConeInverseExpr(ConeExpr([(SOSExpr([y]), ()), (SOSExpr([z]), ())])))
        one = Polynomial.constant(1, VS)
        h = RationalFunction(one, one + parse_expression("x1^2 + x2^2"))

        def certificate(num):
            return NonnegCertificate(SOSExpr([one]), FieldElement.zero(), h,
                                     IntegralityWitness(num, PerturbedUnit.trivial()))

        for leaf in leaves:
            for num, expected in ((leaf, (True, None)),
                                  (SumExpr([leaf, ConstExpr(1)]), (False, "witness_identity_failed"))):
                assert flat_and_series(monkeypatch, verify_nonneg_certificate, one, certificate(num), sd) == \
                    [expected] * 2
        # y and x2 together: by position y would be x1 and x2 would be x2, or both x1.
        mixed = certificate(SosInverseExpr(SOSExpr([y, Polynomial.variable("x2")])))

        def refused():
            with pytest.raises(ValueError, match="mix"):
                verify_nonneg_certificate(one, mixed, sd)
            return "refused"

        assert flat_and_series(monkeypatch, refused) == ["refused"] * 2

    def test_sets_that_read_other_names_differently_differ(self, monkeypatch):
        # On ball:2 both sets say x1 > 0, but {"strict": ["y"]} reads y as x1,
        # so a certificate's z is x2, where {"strict": ["x1"]} reads z as x1.
        # p = 1 + z^2 = 1^2 + z^2 with h = z and the witness gen(1) = x2 is
        # valid on the first only, so the two sets are not equal.
        on_y = SetDescriptor.unit_polydisc(2, [Polynomial.variable("y")])
        on_x1 = SetDescriptor.unit_polydisc(2, [Polynomial.variable("x1", VS)])
        z = Polynomial.variable("z")
        one = Polynomial.constant(1, ("z",))
        cert = NonnegCertificate(SOSExpr([one, z]), FieldElement.zero(), RationalFunction(z),
                                 IntegralityWitness(GenExpr(1), PerturbedUnit.trivial()))
        assert flat_and_series(monkeypatch, verify_nonneg_certificate, one + z * z, cert, on_y) == \
            [(True, None)] * 2
        assert flat_and_series(monkeypatch, verify_nonneg_certificate, one + z * z, cert, on_x1) == \
            [(False, "witness_identity_failed")] * 2
        assert on_y != on_x1 and on_y.strict_constraints == on_x1.strict_constraints
        assert on_y == SetDescriptor.unit_polydisc(2, [Polynomial.variable("y")])

    def test_cone_leaf_with_factors_over_other_names(self, monkeypatch):
        # The entry y^2 * x1 has a strict factor in the set's names and a summand
        # in another name; the summand alone is read through the table, where y
        # (a name only the leaf uses) is x1, so the leaf is 1/(1 + x1^3).
        sd = SetDescriptor.unit_polydisc(2, [Polynomial.variable("x1", VS)])
        leaf = ConeInverseExpr(ConeExpr([(SOSExpr([Polynomial.variable("y")]), (0,))]))
        one = Polynomial.constant(1, VS)
        h = RationalFunction(one, one + parse_expression("x1^3"))
        for num, expected in ((leaf, (True, None)),
                              (SumExpr([leaf, ConstExpr(1)]), (False, "witness_identity_failed"))):
            cert = NonnegCertificate(SOSExpr([one]), FieldElement.zero(), h,
                                     IntegralityWitness(num, PerturbedUnit.trivial()))
            assert flat_and_series(monkeypatch, verify_nonneg_certificate, one, cert, sd) == [expected] * 2

    @pytest.mark.parametrize("a", [F(0), F(1, 2), F(2, 3)])
    def test_monic_witness(self, monkeypatch, a):
        # h = eps^a * x1 on the ball, m = 0, p = x1^2 + 1 = x1^2 + 1^2; the
        # witness is monic: h^2 + c_1 h + c_0 = 0 with c_1 = -eps^a * gen(0), c_0 = 0.
        x, one = Polynomial.variable("x1", VS), Polynomial.constant(1, VS)
        scale = FieldElement.eps_power(a)
        h = RationalFunction(x.scale(scale))
        r = SOSExpr([x, one])
        trivial = PerturbedUnit.trivial()

        def certificate(c1):
            monic = (QuotientCoefficient(ConstExpr(0), trivial),
                     QuotientCoefficient(ProdExpr([ConstExpr(-c1), GenExpr(0)]), trivial))
            witness = IntegralityWitness(GenExpr(0), trivial, monic)
            return NonnegCertificate(r, FieldElement.zero(), h, witness)

        p = x * x + one
        for c1, expected in ((scale, (True, None)),
                             (scale + FieldElement.eps_power(1), (False, "witness_monic_identity_failed"))):
            assert flat_and_series(monkeypatch, verify_nonneg_certificate, p, certificate(c1), BALL) == \
                [expected] * 2

    def test_dickmann_certificates(self, monkeypatch):
        rng = random.Random(11)
        for _ in range(8):
            q1, q2 = random_poly(rng, exponents=[F(0), F(1, 2)]), random_poly(rng, exponents=[F(0), F(1)])
            m1, m2 = FieldElement.eps_power(F(1, 3)), FieldElement.eps_power(2, -1)
            # With m2 = 0 the sum is the polynomial 1 + m1*q1^2.
            p = q1 * q1 * m1 + 1
            valid = DickmannCertificate((DickmannTerm(m1, q1, FieldElement.zero(), q2),))
            twice = DickmannCertificate((DickmannTerm(m1, q1, FieldElement.zero(), q2),) * 2)
            quotient = DickmannCertificate((DickmannTerm(m1, q1, m2, q2),))
            cases = [(p, valid, (True, None)), (p, twice, (False, "identity_failed")),
                     (p, quotient, (False, "identity_failed")), (p + p, twice, (True, None))]
            for check_p, cert, expected in cases:
                assert flat_and_series(monkeypatch, verify_dickmann_certificate, check_p, cert) == [expected] * 2

    def test_sos_expressions(self, monkeypatch):
        rng = random.Random(13)
        for _ in range(8):
            q1, q2 = random_poly(rng), random_poly(rng)
            r = SOSExpr([q1, RationalFunction(q2, Polynomial.constant(FieldElement.eps_power(-1), VS))])
            target = r.denote(SeriesRing(VS))
            for tgt, holds in ((target, True), (target + q1 * q1, False), (target.num, False)):
                assert flat_and_series(monkeypatch, verify_sos_expression, tgt, r) == [holds] * 2

    def test_rational_function_equality(self, monkeypatch):
        rng = random.Random(12)
        for _ in range(40):
            a, b, c = random_poly(rng), random_poly(rng), random_poly(rng)
            if b.is_exactly_zero() or c.is_exactly_zero():
                continue
            left = RationalFunction(a, b)
            right = RationalFunction(a * c, b * c)
            other = RationalFunction(a * c + Polynomial.constant(FieldElement.eps_power(F(-1, 2)), VS), b * c)
            for x, y in ((left, right), (left, other), (right, left)):
                flat, series = flat_and_series(monkeypatch, lambda u, v: u == v, x, y)
                assert flat == series == (y is not other)


class TestFallback:
    def test_inexact_certificate_keeps_its_verdict(self, monkeypatch):
        # r has a truncated coefficient: 1/(1 + eps) = 1 - eps + ... + O(eps^32).
        r = parse_expression("1/(1+eps) + x1").with_variables(VS)
        assert r.terms[(0, 0)].precision is not None
        p = r * r
        zero = RationalFunction.constant(0, VS)
        cert = NonnegCertificate(SOSExpr([r]), FieldElement.zero(), zero, IntegralityWitness.trivial())
        flat = outcome(verify_nonneg_certificate, p, cert, BALL)
        assert flat == (False, "identity_failed")
        assert flat == flat_and_series(monkeypatch, verify_nonneg_certificate, p, cert, BALL)[1]

    def test_inexact_witness_leaf_is_refused(self, monkeypatch):
        # A truncated constant has no flat image, so the witness identity fails,
        # even where an exact zero annihilates it and series arithmetic held.
        p, cert = unit_certificate(random.Random(3))
        w = cert.witness
        inexact = ConstExpr(FieldElement([(0, 1)], precision=5))
        for num, series in ((SumExpr([w.numerator, ProdExpr([inexact, ConstExpr(0)])]), (True, None)),
                            (SumExpr([w.numerator, inexact]), (False, "witness_identity_failed"))):
            changed = NonnegCertificate(cert.r, cert.m, cert.h, IntegralityWitness(num, w.denominator))
            assert flat_and_series(monkeypatch, verify_nonneg_certificate, p, changed, BALL) == \
                [(False, "witness_identity_failed"), series]

    def test_witness_leaf_in_fifths_keeps_one_ring(self, monkeypatch):
        # The main identity's eps exponents are in halves and thirds; eps^(1/5)
        # in the witness is mapped by the same ring, which keeps exponents as
        # the rationals they are.
        p, cert = unit_certificate(random.Random(4))
        w = cert.witness
        off = ProdExpr([ConstExpr(FieldElement.eps_power(F(1, 5))), ConstExpr(0)])
        built = []

        def recording(cls, name):
            original = cls.__init__

            def init(self, names):
                built.append(name)
                original(self, names)

            monkeypatch.setattr(cls, "__init__", init)

        for num, expected in ((SumExpr([w.numerator, off]), (True, None)),
                              (SumExpr([w.numerator, off, ConstExpr(FieldElement.eps_power(F(1, 5)))]),
                               (False, "witness_identity_failed"))):
            changed = NonnegCertificate(cert.r, cert.m, cert.h, IntegralityWitness(num, w.denominator))
            recording(FlatRing, "flat")
            recording(SeriesRing, "series")
            built.clear()
            assert outcome(verify_nonneg_certificate, p, changed, BALL) == expected
            assert built == ["flat"]
            monkeypatch.undo()
            assert flat_and_series(monkeypatch, verify_nonneg_certificate, p, changed, BALL) == [expected] * 2

    def test_grid_past_the_series_cap_is_decided(self, monkeypatch):
        # eps^(1/3) * eps^(1/64) = eps^(67/192): the series ring refuses the
        # denominator 192 (over its cap of 64); the flat ring, which has no cap, rejects.
        r = Polynomial(VS, {(0, 0): FieldElement.eps_power(F(1, 3)), (1, 0): FieldElement.eps_power(F(1, 64))})
        zero = RationalFunction.constant(0, VS)
        cert = NonnegCertificate(SOSExpr([r]), FieldElement.zero(), zero, IntegralityWitness.trivial())
        p = Polynomial.constant(1, VS)
        assert flat_and_series(monkeypatch, verify_nonneg_certificate, p, cert, BALL) == \
            [(False, "identity_failed"), "ExponentBlowup"]

    def test_division_by_zero_stays(self, monkeypatch):
        # 1 + (1^2) * (-1) = 0: the cone inverse divides by zero on both rings.
        sd = SetDescriptor.unit_polydisc(2, [Polynomial.constant(-1, VS)])
        cone = ConeInverseExpr(ConeExpr([(SOSExpr([Polynomial.constant(1, VS)]), (0,))]))
        zero = RationalFunction.constant(0, VS)
        cert = NonnegCertificate(SOSExpr([Polynomial.constant(1, VS)]), FieldElement.zero(), zero,
                                 IntegralityWitness(ProdExpr([ConstExpr(0), cone]), PerturbedUnit.trivial()))
        assert flat_and_series(monkeypatch, verify_nonneg_certificate, Polynomial.constant(1, VS), cert, sd) == \
            ["DivisionByZero"] * 2

    def test_parsed_certificates_verify_in_the_flat_ring(self, monkeypatch):
        rng = random.Random(21)
        for build in (sos_certificate, unit_certificate):
            p, cert = build(rng)
            p2, sd, cert2 = certificate_from_json(certificate_to_json(p, BALL, cert))
            rings = record_rings(monkeypatch)
            assert verify_nonneg_certificate(p2, cert2, sd).ok
            assert all(isinstance(ring, FlatRing) for ring in rings)
            monkeypatch.undo()


# -- an independent referee -------------------------------------------------------
#
# The referee decides an identity by specialising it: eps = s^L, with L the lcm
# of the data's eps-exponent denominators so that every eps power is a power of
# s, at random rational s > 0 and x.  Both sides are then plain Fractions.
# Unequal values refute the identity; a false identity is equal at a random
# point only with small probability (Schwartz, JACM 1980), and the referee asks
# for REFEREE_POINTS of them.  It walks the trees itself and builds no ring
# value: it calls neither FlatRing, nor ringexpr's denotation, nor the
# arithmetic of Polynomial and RationalFunction.

REFEREE_POINTS = 3


class Inexact(Exception):
    """A truncated coefficient, which has no value at any point."""


class Vanishes(Exception):
    """A denominator is zero at the drawn point."""


def scalars(v):
    """Every coefficient in v: a field element, polynomial, rational function,
    sum of squares, ring-expression tree or perturbed unit."""
    if isinstance(v, FieldElement):
        yield v
        return
    if isinstance(v, Polynomial):
        parts = v.terms.values()
    elif isinstance(v, RationalFunction):
        parts = (v.num, v.den)
    elif isinstance(v, SOSExpr):
        parts = v.summands
    elif isinstance(v, ConstExpr):
        parts = (v.value,)
    elif isinstance(v, PerturbedUnit):
        parts = (v.m, v.a)
    elif isinstance(v, SosInverseExpr):
        parts = (v.sos,)
    elif isinstance(v, ConeInverseExpr):
        parts = [sos for sos, _ in v.cone.entries]
    elif isinstance(v, (SumExpr, ProdExpr)):
        parts = v.args
    else:  # a generator, whose coefficients are the set's
        assert isinstance(v, GenExpr)
        parts = ()
    for part in parts:
        yield from scalars(part)


def divide(a: Fraction, b: Fraction) -> Fraction:
    if not b:
        raise Vanishes
    return a / b


class Specialisation:
    """eps = s^L and each of names a rational, drawn from rng."""

    def __init__(self, rng, names, lift: int):
        self.s, self.lift = F(rng.randint(1, 50), rng.randint(1, 50)), lift
        self.x = {v: F(rng.randint(-50, 50), rng.randint(1, 50)) for v in names}

    def __call__(self, v) -> Fraction:
        """The value of a field element, polynomial or rational function."""
        if isinstance(v, RationalFunction):
            return divide(self(v.num), self(v.den))
        if isinstance(v, Polynomial):
            return sum((self(c) * prod(self.x[name] ** e for name, e in zip(v.variables, expv))
                        for expv, c in v.terms.items()), F(0))
        if v.precision is not None:
            raise Inexact
        out = F(0)
        for w, a in v.terms:
            k = w * self.lift  # eps^w = s^(w*L)
            assert k.denominator == 1
            out += a * self.s**k.numerator
        return out

    def sos(self, r: SOSExpr) -> Fraction:
        return sum((self(s) ** 2 for s in r.summands), F(0))

    def tree(self, e, sd: SetDescriptor) -> Fraction:
        """The value of a ring-expression tree over the set's generators."""
        if isinstance(e, ConstExpr):
            return self(e.value)
        if isinstance(e, GenExpr):
            return self(sd.generators()[e.index])
        if isinstance(e, SosInverseExpr):
            return divide(F(1), 1 + self.sos(e.sos))
        if isinstance(e, ConeInverseExpr):
            strict = sd.strict_constraints
            return divide(F(1), 1 + sum(self.sos(sos) * prod(self(strict[i]) for i in factors)
                                        for sos, factors in e.cone.entries))
        values = [self.tree(a, sd) for a in e.args]
        return sum(values, F(0)) if isinstance(e, SumExpr) else prod(values, start=F(1))


def refereed(identity, names, lift: int, rng) -> bool:
    """identity(point) at REFEREE_POINTS specialisations, a point where a
    denominator vanishes redrawn; False at the first unequal one, and for
    inexact data."""
    held = 0
    for _ in range(100 * REFEREE_POINTS):
        try:
            if not identity(Specialisation(rng, names, lift)):
                return False
        except Inexact:
            return False
        except Vanishes:
            continue
        held += 1
        if held == REFEREE_POINTS:
            return True
    raise AssertionError("a denominator vanishes at every drawn point")


def referee_verdict(p, cert, sd) -> tuple:
    """(ok, reason) as verify_nonneg_certificate gives it for a certificate
    over the set's names with no monic witness, each identity decided by the
    referee and m's infinitesimality read by rcvf."""
    w = cert.witness
    assert w.monic is None
    data = (p, cert.m, cert.h, cert.r, w.numerator, w.denominator, *sd.generators(), *sd.strict_constraints)
    lift = lcm(*(t.denominator for v in data for c in scalars(v) for t, _ in c.terms))
    rng, names = random.Random(0), sd.variables()
    if not infinitesimal_or_zero(cert.m):
        return False, "m_not_infinitesimal"
    if not refereed(lambda at: at(p) * (1 + at(cert.m) * at(cert.h)) == at.sos(cert.r), names, lift, rng):
        return False, "identity_failed"
    unit = w.denominator
    if not refereed(lambda at: at(cert.h) * (1 + at(unit.m) * at.tree(unit.a, sd)) == at.tree(w.numerator, sd),
                    names, lift, rng):
        return False, "witness_identity_failed"
    return True, None


def inexact_certificates():
    """The certificates of TestFallback with a truncated r or witness leaf."""
    r = parse_expression("1/(1+eps) + x1").with_variables(VS)
    zero = RationalFunction.constant(0, VS)
    yield r * r, NonnegCertificate(SOSExpr([r]), FieldElement.zero(), zero, IntegralityWitness.trivial())
    p, cert = unit_certificate(random.Random(3))
    w = cert.witness
    inexact = ConstExpr(FieldElement([(0, 1)], precision=5))
    for num in (SumExpr([w.numerator, ProdExpr([inexact, ConstExpr(0)])]), SumExpr([w.numerator, inexact])):
        yield p, NonnegCertificate(cert.r, cert.m, cert.h, IntegralityWitness(num, w.denominator))


def referee_case(kind: str, seed: int):
    """A certificate of TestSameVerdicts: (p, certificate)."""
    if kind == "sos":
        return sos_certificate(random.Random(seed))
    if kind == "fifths_sevenths":
        return sos_certificate(random.Random(200 + seed), FIFTHS_SEVENTHS)
    return unit_certificate(random.Random(100 + seed))


class TestReferee:
    """The flat ring's verdicts on TestSameVerdicts' certificates and mutants
    are the referee's."""

    @pytest.mark.parametrize("kind, seed", [*(("sos", s) for s in range(6)),
                                            *(("fifths_sevenths", s) for s in range(3)),
                                            *(("unit", s) for s in range(6))])
    def test_certificates_and_mutants(self, kind, seed):
        p, cert = referee_case(kind, seed)
        verdicts = set()
        for name, mp, mc in [("valid", p, cert), *mutants(p, cert)]:
            verdict = outcome(verify_nonneg_certificate, mp, mc, BALL)
            assert verdict == referee_verdict(mp, mc, BALL), name
            verdicts.add(verdict)
        assert (True, None) in verdicts and len(verdicts) > 1

    def test_inexact_data_fails_its_identity(self):
        verdicts = [outcome(verify_nonneg_certificate, p, cert, BALL) for p, cert in inexact_certificates()]
        assert verdicts == [(False, "identity_failed"), (False, "witness_identity_failed"),
                            (False, "witness_identity_failed")]
        assert verdicts == [referee_verdict(p, cert, BALL) for p, cert in inexact_certificates()]

    def test_refutes_and_redraws(self):
        # With L = 5, eps^(1/5) is s, which no drawn s > 0 makes zero; x1 is 0
        # at some drawn points, where 1/x1 is redrawn.
        x = Polynomial.variable("x1", VS)
        e = Polynomial.constant(FieldElement.eps_power(F(1, 5)), VS)
        assert not refereed(lambda at: at(x * x + e) == at(x * x), VS, 5, random.Random(1))
        assert refereed(lambda at: at(RationalFunction(e, x)) * at(x) == at(e), VS, 5, random.Random(1))


# -- factored quotients against full cross-multiplication -------------------------

# eps exponents of the leaves: on the grid 1/6, and off it in fifths, sevenths
# and 128ths (past the series ring's exponent cap of 64).
ON_GRID = [F(0), F(1), F(1, 2), F(-1, 3), F(2, 3)]
OFF_GRID = [F(1, 5), F(-2, 7), F(3, 128)]


class Cross:
    """A quotient of expanded polynomials; equality by full cross-multiplication."""

    def __init__(self, num: ResiduePolynomial, den: ResiduePolynomial):
        self.num, self.den = num, den

    def __add__(self, o):
        return Cross(self.num * o.den + o.num * self.den, self.den * o.den)

    def __mul__(self, o):
        return Cross(self.num * o.num, self.den * o.den)

    def __truediv__(self, o):
        if o.num.is_exactly_zero():
            raise DivisionByZero("division by zero")
        return Cross(self.num * o.den, self.den * o.num)

    def __pow__(self, n):
        if n < 0:
            return (Cross(self.den, self.den) / self) ** -n
        return Cross(self.num**n, self.den**n)

    def __eq__(self, o):
        return (self.num * o.den - o.num * self.den).is_exactly_zero()


def grid(pool) -> int:
    """The lcm of the eps-exponent denominators of the leaves in pool."""
    return lcm(*(w.denominator for p in pool for c in p.terms.values() for w, _ in c.terms))


def cross_image(p: Polynomial, den: int) -> Cross:
    """p with eps^w read as t^(w*den), t Laurent, den a multiple of every
    exponent denominator of p: the flat map on an integer grid, written out."""
    vs = (FLAT_EPS,) + VS
    terms = {}
    for expv, c in p.terms.items():
        for w, a in c.terms:
            terms[(int(w * den), *expv)] = a
    return Cross(ResiduePolynomial.from_canonical(vs, terms), ResiduePolynomial.constant(1, vs))


OPS = {"+": operator.add, "*": operator.mul, "/": operator.truediv}


def denote(tree, leaf):
    """The value of an expression tree: a leaf index, (op, tree, tree) or ("**", tree, n)."""
    if isinstance(tree, int):
        return leaf(tree)
    op, a, b = tree
    if op == "**":
        return denote(a, leaf) ** b
    return OPS[op](denote(a, leaf), denote(b, leaf))


monomial_terms = st.lists(st.tuples(st.sampled_from(ON_GRID), st.integers(0, 1), st.integers(0, 1),
                                    st.integers(-2, 2).filter(bool)), min_size=1, max_size=3)


def leaf_polynomial(terms, off_grid=None) -> Polynomial:
    """The leaf of these monomial terms, plus eps^off_grid if one is given.

    Built from its terms as they are: the series field refuses an exponent
    denominator past its cap, which the flat ring and cross_image take.
    """
    coefficients = {}
    for w, e1, e2, c in [*terms, *([(off_grid, 0, 0, 1)] if off_grid is not None else [])]:
        at = coefficients.setdefault((e1, e2), {})
        at[w] = at.get(w, 0) + c
    out = {}
    for expv, at in coefficients.items():
        nonzero = tuple((w, F(c)) for w, c in sorted(at.items()) if c)
        if nonzero:
            out[expv] = FieldElement.from_canonical(nonzero)
    return Polynomial.from_canonical(VS, out)


# Leaf 0 is zero; the others are drawn, each with an off-grid term or none, and
# a tree may use any leaf more than once.
drawn_leaves = st.tuples(monomial_terms, st.sampled_from([None, *OFF_GRID])).map(lambda d: leaf_polynomial(*d))
leaf_pools = st.tuples(drawn_leaves, drawn_leaves, drawn_leaves).map(lambda leaves: [Polynomial(VS), *leaves])
trees = st.recursive(
    st.integers(0, 3),
    lambda sub: st.tuples(st.sampled_from(sorted(OPS)), sub, sub) | st.tuples(st.just("**"), sub, st.integers(-2, 2)),
    max_leaves=4)
# (left, right) built from trees a and b: identities that hold wherever they are
# defined, and the pair (a, b) itself.  A test may add a leaf to the right side.
PAIRS = [lambda a, b: (a, a), lambda a, b: (("/", ("*", a, b), b), a),
         lambda a, b: (("+", ("/", a, b), ("/", b, b)), ("/", ("+", a, b), b)),
         lambda a, b: (("*", ("+", a, b), a), ("+", ("*", a, a), ("*", b, a))),
         lambda a, b: (("*", a, b), ("*", b, a)), lambda a, b: (("**", a, 2), ("*", a, a)),
         lambda a, b: (("*", 0, a), ("*", 0, b)), lambda a, b: (a, b)]


def factored_and_cross(pool, left, right) -> list:
    """[verdict of the factored quotients, verdict of full cross-multiplication],
    "DivisionByZero" where the expression divides by zero.  The factored one
    keeps each eps exponent as it is; the cross one reads them on the grid of
    the pool."""
    ring, fine = FlatRing(VS), grid(pool)
    return [outcome(lambda: denote(left, lambda i: ring(pool[i])) == denote(right, lambda i: ring(pool[i]))),
            outcome(lambda: denote(left, lambda i: cross_image(pool[i], fine)) ==
                    denote(right, lambda i: cross_image(pool[i], fine)))]


def flat_terms(q, den: int, order=(0, 1, 2)) -> dict:
    """The terms of the flat image q of a polynomial, multiplied out, with eps^w
    read as t^(w*den) as cross_image reads it, and each key's entries taken in
    order (the ring's slot of eps, x1, x2)."""
    assert q.den == ()
    return {(int(e[order[0]] * den), e[order[1]], e[order[2]]): q.unit * c for e, c in q.numerator().terms.items()}


class TestFactoredEquality:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pool=leaf_pools)
    def test_each_leaf_image_is_its_cross_image(self, pool):
        # The identities of the tests below hold for any values of the leaves,
        # so only this one sees a leaf mapped to a wrong image: each leaf's image
        # against cross_image on the pool's grid, exponents in sixths, fifths,
        # sevenths and 128ths, in a ring whose slots take x1 and x2 in order and
        # in one that takes them the other way round.
        fine = grid(pool)
        for ring, order in ((FlatRing(VS), (0, 1, 2)), (FlatRing(VS[::-1]), (0, 2, 1))):
            for p in pool:
                assert flat_terms(ring(p), fine, order) == cross_image(p, fine).num.terms

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pool=leaf_pools, a=trees, b=trees, pair=st.sampled_from(PAIRS), added=st.integers(0, 3) | st.none())
    def test_same_verdict_as_full_cross_multiplication(self, pool, a, b, pair, added):
        left, right = pair(a, b)
        if added is not None:
            right = ("+", right, added)
        flat, cross = factored_and_cross(pool, left, right)
        assert flat == cross

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(pool=leaf_pools, parts=st.lists(trees, min_size=1, max_size=4), other=trees)
    def test_n_ary_sum_as_full_cross_multiplication(self, pool, parts, other):
        # flat_sum of the parts against their sum written out, added
        # pairwise in reverse, and against an unrelated tree.
        fine = grid(pool)
        ring = FlatRing(VS)
        reverse = parts[-1]
        for t in parts[-2::-1]:
            reverse = ("+", reverse, t)
        for right in (reverse, other):
            flat = outcome(lambda: flat_sum([denote(t, lambda i: ring(pool[i])) for t in parts]) ==
                           denote(right, lambda i: ring(pool[i])))
            cross = outcome(lambda: denote(reverse, lambda i: cross_image(pool[i], fine)) ==
                            denote(right, lambda i: cross_image(pool[i], fine)))
            assert flat == cross

    def test_zero_factors_are_never_cancelled(self):
        ring = FlatRing(VS)
        zero, x, y = ring(0), ring(Polynomial.variable("x1", VS)), ring(Polynomial.variable("x2", VS))
        cancelled = x + ring(-1) * x
        assert zero * x == zero * y
        assert zero * x == ring(0)
        assert not zero * x == x  # cancelling the shared x would leave 0 == 1
        assert not x == zero * x
        assert cancelled * y == zero
        with pytest.raises(DivisionByZero):
            x / (zero * y)
        with pytest.raises(DivisionByZero):
            cancelled ** -1

    def test_leaf_exponents_over_other_denominators(self):
        for off_grid in OFF_GRID:
            pool = [Polynomial(VS), leaf_polynomial([(F(1, 2), 1, 0, 1)]), leaf_polynomial([(F(0), 0, 1, 2)]),
                    leaf_polynomial([(F(-1, 3), 1, 1, -1)], off_grid)]
            for left, right, verdict in ((("*", 3, ("/", 1, 3)), 1, True), (("+", 3, 2), ("+", 2, 1), False),
                                         (("*", 3, 3), ("**", 3, 2), True), (("*", 3, 3), ("*", 3, 1), False)):
                assert factored_and_cross(pool, left, right) == [verdict] * 2, off_grid


# -- one image per value ---------------------------------------------------------


def leaf_copies(cert_json: dict):
    """(witness numerator, witness denominator's a) of a certificate's JSON."""
    w = cert_json["witness"]
    return w["num"], w["den"]["a"]


class TestOneImagePerValue:
    """A flat ring maps each distinct value once, and one decode reads identical
    subtrees as one object; the verdicts stay the series ring's."""

    def test_changing_one_leaf_copy_is_rejected(self, monkeypatch):
        p, cert = unit_certificate(random.Random(7))
        valid = certificate_to_json(p, BALL, cert)
        num, den = leaf_copies(valid)
        assert num == den

        def changed(copy, change):
            out = json.loads(json.dumps(valid))
            change(leaf_copies(out)[copy])
            return out

        def summand(leaf):
            leaf["args"][-1]["summands"][0]["num"] += " + x1"

        def index(leaf):
            gens = [a for term in leaf["args"][0]["args"] for a in term.get("args", ()) if a["op"] == "gen"]
            gens[0]["index"] = 1 - gens[0]["index"]

        def op(leaf):
            leaf["op"] = "sum"

        cases = [(valid, (True, None))] + [(changed(copy, change), (False, "witness_identity_failed"))
                                           for copy in (0, 1) for change in (summand, index, op)]
        for obj, expected in cases:
            p2, sd, cert2 = certificate_from_json(obj)
            assert flat_and_series(monkeypatch, verify_nonneg_certificate, p2, cert2, sd) == [expected] * 2

    def test_shared_leaf_off_the_grid_keeps_its_verdict(self, monkeypatch):
        # One leaf object in both the witness numerator and denominator, with
        # eps^(1/5) off the grid of the main identity's exponents: the one ring
        # of the check maps it with the rest.
        p, cert = unit_certificate(random.Random(4))
        leaf, eps5 = cert.witness.numerator, ConstExpr(FieldElement.eps_power(F(1, 5)))
        for shared, expected in ((SumExpr([leaf, ProdExpr([eps5, ConstExpr(0)])]), (True, None)),
                                 (SumExpr([leaf, eps5]), (False, "witness_identity_failed"))):
            changed = NonnegCertificate(cert.r, cert.m, cert.h,
                                        IntegralityWitness(shared, PerturbedUnit(-cert.m, shared)))
            rings = record_rings(monkeypatch)
            assert outcome(verify_nonneg_certificate, p, changed, BALL) == expected
            assert len(rings) == 1
            monkeypatch.undo()
            assert flat_and_series(monkeypatch, verify_nonneg_certificate, p, changed, BALL) == [expected] * 2
